//! Fault injection for crash-recovery testing.
//!
//! A [`FailPoint`] is armed with a *site name*, a *hit number*, and a
//! [`FailMode`]; the checkpointed campaign runner consults it at every
//! epoch and chip-run boundary. The Nth time the armed site is checked,
//! the run errors, panics, or kills the whole process — which is exactly
//! the battery of failures the checkpoint/resume path has to survive.
//! A disarmed `FailPoint` is a single `Option` discriminant test per
//! check, the same zero-cost-when-off discipline as the telemetry
//! `NullRecorder`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// What happens when an armed [`FailPoint`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FailMode {
    /// Return an [`InjectedFailure`] error from the checked operation —
    /// the graceful shutdown path (and the one in-process tests use).
    Error,
    /// `panic!` at the check site — exercises unwind behaviour. The
    /// campaign executor catches worker panics, so through the
    /// [`ShardedCheckpointer`](crate::ShardedCheckpointer) this surfaces as
    /// [`CheckpointError::WorkerPanic`](crate::CheckpointError::WorkerPanic).
    Panic,
    /// Kill the whole process immediately with exit code 137 (the
    /// `SIGKILL` convention) — no destructors, no flushing: the closest
    /// in-tree stand-in for a crash or OOM kill. Only subprocess tests
    /// can observe this mode.
    Kill,
}

impl FailMode {
    fn parse(text: &str) -> Option<FailMode> {
        match text {
            "error" => Some(FailMode::Error),
            "panic" => Some(FailMode::Panic),
            "kill" => Some(FailMode::Kill),
            _ => None,
        }
    }
}

/// The error an [`FailMode::Error`]-armed fail point injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFailure {
    /// The site that fired.
    pub site: String,
    /// The (1-based) hit at which it fired.
    pub hit: u64,
}

impl fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected failure at fail point `{}` (hit {})",
            self.site, self.hit
        )
    }
}

impl std::error::Error for InjectedFailure {}

#[derive(Debug)]
struct Armed {
    site: String,
    fire_at_hit: u64,
    mode: FailMode,
    hits: AtomicU64,
}

/// An armable crash/error injection point.
///
/// # Examples
///
/// Disarmed fail points never fire and cost one branch per check:
///
/// ```
/// use hayat_checkpoint::FailPoint;
///
/// let quiet = FailPoint::disarmed();
/// for _ in 0..1_000 {
///     quiet.check("campaign.epoch").unwrap();
/// }
/// ```
///
/// An armed point fires on the Nth check of its site and leaves every
/// other site untouched:
///
/// ```
/// use hayat_checkpoint::{FailMode, FailPoint};
///
/// let fp = FailPoint::armed("campaign.epoch", 3, FailMode::Error);
/// assert!(fp.check("campaign.epoch").is_ok());
/// assert!(fp.check("campaign.chip").is_ok()); // different site
/// assert!(fp.check("campaign.epoch").is_ok());
/// let err = fp.check("campaign.epoch").unwrap_err();
/// assert_eq!(err.hit, 3);
/// ```
#[derive(Debug)]
pub struct FailPoint {
    armed: Option<Armed>,
}

impl FailPoint {
    /// A fail point that never fires.
    #[must_use]
    pub const fn disarmed() -> Self {
        FailPoint { armed: None }
    }

    /// Arms a fail point: the `fire_at_hit`-th check of `site` (1-based)
    /// fires with the given mode.
    ///
    /// # Panics
    ///
    /// Panics if `fire_at_hit` is zero — hits are counted from 1.
    #[must_use]
    pub fn armed(site: &str, fire_at_hit: u64, mode: FailMode) -> Self {
        assert!(fire_at_hit > 0, "hits are 1-based; hit 0 never happens");
        FailPoint {
            armed: Some(Armed {
                site: site.to_owned(),
                fire_at_hit,
                mode,
                hits: AtomicU64::new(0),
            }),
        }
    }

    /// Arms from the `HAYAT_FAILPOINT` environment variable, formatted as
    /// `site:hit:mode` (e.g. `campaign.epoch:17:kill`); returns a disarmed
    /// point when the variable is unset. Malformed specs are rejected with
    /// a message rather than silently ignored — a typo'd fault injection
    /// that never fires would make a crash test vacuous.
    ///
    /// # Errors
    ///
    /// Returns the malformed spec when the variable is set but not
    /// parseable.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("HAYAT_FAILPOINT") {
            Err(_) => Ok(FailPoint::disarmed()),
            Ok(spec) => FailPoint::parse(&spec),
        }
    }

    /// Parses a `site:hit:mode` spec (the `HAYAT_FAILPOINT` format).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the spec is malformed.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [site, hit, mode] = parts.as_slice() else {
            return Err(format!(
                "fail point spec `{spec}` must be `site:hit:mode` \
                 (e.g. `campaign.epoch:17:kill`)"
            ));
        };
        let hit: u64 = hit
            .parse()
            .ok()
            .filter(|&h| h > 0)
            .ok_or_else(|| format!("fail point hit `{hit}` must be a positive integer"))?;
        let mode = FailMode::parse(mode)
            .ok_or_else(|| format!("fail point mode `{mode}` must be error, panic, or kill"))?;
        Ok(FailPoint::armed(site, hit, mode))
    }

    /// Whether this point is armed at all (used for log lines, never for
    /// control flow — `check` is the only way to fire).
    #[must_use]
    pub const fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Passes through a named site: counts the hit when the site matches
    /// the armed spec, and fires on the configured hit.
    ///
    /// # Errors
    ///
    /// Returns [`InjectedFailure`] when an [`FailMode::Error`]-armed point
    /// fires here.
    ///
    /// # Panics
    ///
    /// Panics when a [`FailMode::Panic`]-armed point fires here. A
    /// [`FailMode::Kill`]-armed point terminates the process instead of
    /// returning.
    pub fn check(&self, site: &str) -> Result<(), InjectedFailure> {
        let Some(armed) = &self.armed else {
            return Ok(());
        };
        if armed.site != site {
            return Ok(());
        }
        let hit = armed.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if hit != armed.fire_at_hit {
            return Ok(());
        }
        match armed.mode {
            FailMode::Error => Err(InjectedFailure {
                site: site.to_owned(),
                hit,
            }),
            FailMode::Panic => panic!("injected panic at fail point `{site}` (hit {hit})"),
            FailMode::Kill => {
                // Deliberately no cleanup: the point of this mode is to
                // model a hard kill, so nothing may flush or unwind.
                eprintln!("fail point `{site}` (hit {hit}): killing process");
                std::process::exit(137);
            }
        }
    }
}

impl Default for FailPoint {
    fn default() -> Self {
        FailPoint::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let fp = FailPoint::disarmed();
        for _ in 0..100 {
            assert!(fp.check("anything").is_ok());
        }
        assert!(!fp.is_armed());
    }

    #[test]
    fn fires_exactly_once_at_the_configured_hit() {
        let fp = FailPoint::armed("site", 2, FailMode::Error);
        assert!(fp.check("site").is_ok());
        let err = fp.check("site").unwrap_err();
        assert_eq!(
            err,
            InjectedFailure {
                site: "site".into(),
                hit: 2
            }
        );
        assert!(err.to_string().contains("fail point `site`"));
        // Later hits pass again: one spec models one fault.
        assert!(fp.check("site").is_ok());
    }

    #[test]
    fn other_sites_do_not_count_hits() {
        let fp = FailPoint::armed("a", 1, FailMode::Error);
        assert!(fp.check("b").is_ok());
        assert!(fp.check("a").is_err());
    }

    #[test]
    #[should_panic(expected = "injected panic at fail point `boom`")]
    fn panic_mode_panics() {
        let fp = FailPoint::armed("boom", 1, FailMode::Panic);
        let _ = fp.check("boom");
    }

    #[test]
    fn parse_round_trips_the_env_format() {
        let fp = FailPoint::parse("campaign.epoch:17:kill").unwrap();
        assert!(fp.is_armed());
        assert!(FailPoint::parse("missing-fields").is_err());
        assert!(FailPoint::parse("site:0:error").is_err());
        assert!(FailPoint::parse("site:three:error").is_err());
        assert!(FailPoint::parse("site:3:explode").is_err());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn hit_zero_is_rejected() {
        let _ = FailPoint::armed("site", 0, FailMode::Error);
    }
}
