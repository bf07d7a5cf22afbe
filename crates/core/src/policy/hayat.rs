//! The Hayat policy — Algorithm 1 with the Eq. 9 weighting function.

use crate::mapping::ThreadMapping;
use crate::policy::{Policy, PolicyContext, PolicyScratch};
use hayat_aging::TablePath;
use hayat_floorplan::{CoreId, TileOverlay};
use hayat_telemetry::RecorderExt;
use hayat_units::{Gigahertz, Kelvin, Watts};
use hayat_workload::WorkloadMix;
use serde::{Deserialize, Serialize};

/// Slack (GHz) below which the Eq. 9 frequency-matching term takes the cap
/// `w_max` outright instead of dividing.
///
/// The guard exists to keep `α / slack` well-defined near zero; it must be
/// an *absolute frequency* threshold, not `f64::EPSILON` (which is the ULP
/// at 1.0, i.e. a relative quantity ~2.2e-16 that a GHz-scale slack never
/// meaningfully compares against). Any value below `α / w_max` (0.06 GHz at
/// the paper's tightest coefficients) is behavior-preserving, because
/// `min(α/slack, w_max)` already saturates there; 1 kHz is comfortably
/// inside that and far above f64 noise on a ~GHz quantity.
const MIN_SLACK_GHZ: f64 = 1e-6;

/// Cap on how many of the hottest rise lanes the tiled mapping search folds
/// into its O(1) peak lower bound (the per-decision count scales as
/// `cores/16`, clamped to `[4, HOT_LANES]`). Measured at 32×32: the exact
/// peak of an infeasible candidate sits on one of the top 32 lanes ~96% of
/// the time (it is almost never the single hottest — the peak trades
/// accumulated rise against the candidate's own distance-decaying row), so
/// 32 keeps the bound within a few millikelvin of the exact peak while
/// staying far cheaper than the O(cores) scan it replaces. Correctness
/// never depends on the choice: every folded lane is an exact lower bound,
/// the count only tunes how often the full scan is avoided.
const HOT_LANES: usize = 32;

/// Coefficients of the Eq. 9 weighting function and the early/late-aging
/// switch.
///
/// The paper's experimentally chosen values (Section V): early-aging
/// `α = 0.6, β = 1`; late-aging `α = 4, β = 0.3`; weight cap `w_max = 10`.
/// The phase switch follows the mean chip health: Fig. 1 distinguishes a
/// time-/duty-cycle-critical early phase from a temperature-critical late
/// phase, so once the chip has visibly aged the late coefficients apply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HayatConfig {
    /// Frequency-matching coefficient `α` in the early-aging phase.
    pub alpha_early: f64,
    /// Health-ratio coefficient `β` in the early-aging phase.
    pub beta_early: f64,
    /// Frequency-matching coefficient `α` in the late-aging phase.
    pub alpha_late: f64,
    /// Health-ratio coefficient `β` in the late-aging phase.
    pub beta_late: f64,
    /// Cap `w_max` on the frequency-matching term.
    pub w_max: f64,
    /// Mean-health threshold below which the late-aging coefficients apply.
    pub late_phase_health: f64,
    /// DCM stage: fraction of cores protected as the chip's frequency elite.
    pub preserve_fraction: f64,
    /// DCM stage: penalty per GHz of frequency beyond the preserve threshold.
    pub excess_penalty: f64,
    /// DCM stage: temperature penalty, GHz per kelvin of predicted rise.
    pub lambda_ghz_per_kelvin: f64,
    /// DCM stage: leakage penalty, GHz per watt of the candidate's own
    /// leakage (Eq. 2 made explicit: leaky silicon heats the whole chip).
    pub mu_ghz_per_watt: f64,
    /// DCM stage: quantile of the non-critical requirements used as the
    /// feasibility cap.
    pub cap_quantile: f64,
    /// DCM stage: margin added to the feasibility cap, GHz.
    pub cap_margin_ghz: f64,
}

impl HayatConfig {
    /// The paper's coefficients.
    #[must_use]
    pub fn paper() -> Self {
        HayatConfig {
            alpha_early: 0.6,
            beta_early: 1.0,
            alpha_late: 4.0,
            beta_late: 0.3,
            w_max: 10.0,
            late_phase_health: 0.95,
            preserve_fraction: 0.05,
            excess_penalty: 3.0,
            lambda_ghz_per_kelvin: 0.08,
            mu_ghz_per_watt: 0.25,
            cap_quantile: 0.9,
            cap_margin_ghz: 0.05,
        }
    }

    /// The `(α, β)` pair for a given mean chip health.
    #[must_use]
    pub fn coefficients(&self, mean_health: f64) -> (f64, f64) {
        if mean_health < self.late_phase_health {
            (self.alpha_late, self.beta_late)
        } else {
            (self.alpha_early, self.beta_early)
        }
    }
}

impl Default for HayatConfig {
    fn default() -> Self {
        HayatConfig::paper()
    }
}

/// The Hayat run-time aging-management policy: Dark-Core-Map selection plus
/// Algorithm 1.
///
/// Per the concept overview (Section I-B), Hayat proactively determines
/// "(1) an appropriate Dark Core Map (DCM) that decelerates the chip aging
/// through improved heat dissipation due to dark cores; and (2) performs
/// variation-aware thread-to-core mapping". Both stages run at every epoch
/// boundary:
///
/// **Stage 1 — DCM selection.** Greedily powers on exactly as many cores as
/// there are threads (never more than the dark-silicon budget), scoring each
/// candidate by its aged frequency *capped at the workload's largest
/// requirement* (a core faster than any thread needs earns nothing extra and
/// pays a preservation penalty — high-frequency cores "should only be used
/// to fulfill the deadline constraints of a critical application",
/// Section II) minus a temperature penalty from the incremental
/// superposition predictor (spread beats clusters).
///
/// **Stage 2 — Algorithm 1.** For every runnable thread it evaluates every
/// feasible candidate among the DCM's on-cores:
///
/// 1. predicts the chip's next temperatures with the thread tentatively on
///    the candidate (incremental footprint superposition, Section IV-B
///    step 2),
/// 2. discards candidates that would push any core past `T_safe` (lines
///    12–13),
/// 3. estimates the candidate core's next health over the configured
///    horizon through the offline 3D aging table (line 15),
/// 4. scores the candidate with the Eq. 9 weight
///    `w = min(w_max, α/(f_max,i,t − f_req)) + β · H_cand,next / H_cand,t`
///    and keeps the best (lines 17–23), tie-breaking toward lower predicted
///    peak and average temperatures.
///
/// Cores that no thread selects stay power-gated — the resulting mapping
/// *is* the Dark Core Map, chosen jointly with the assignment exactly as the
/// problem formulation (Eq. 3) demands.
///
/// # Example
///
/// ```
/// use hayat::{ChipSystem, HayatPolicy, Policy, PolicyContext, SimulationConfig};
/// use hayat_units::Years;
/// use hayat_workload::WorkloadMix;
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let config = SimulationConfig::quick_demo();
/// let system = ChipSystem::paper_chip(0, &config)?;
/// let mut policy = HayatPolicy::default();
/// let ctx = PolicyContext::new(&system, Years::new(1.0), Years::new(0.0));
/// let workload = WorkloadMix::generate(1, 8);
/// let mapping = policy.map_threads(&ctx, &workload);
/// assert_eq!(mapping.active_cores(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HayatPolicy {
    config: HayatConfig,
}

impl HayatPolicy {
    /// Policy with the paper's coefficients.
    #[must_use]
    pub fn new(config: HayatConfig) -> Self {
        HayatPolicy { config }
    }

    /// The weighting-function configuration.
    #[must_use]
    pub const fn config(&self) -> &HayatConfig {
        &self.config
    }

    /// The Eq. 9 weight of one candidate.
    ///
    /// `f_slack = f_max,cand,t − f_req` must be non-negative (infeasible
    /// candidates are filtered before scoring); a zero slack takes the cap.
    fn weight(
        &self,
        alpha: f64,
        beta: f64,
        aged_fmax: Gigahertz,
        required: Gigahertz,
        health_now: f64,
        health_next: f64,
    ) -> f64 {
        let slack = (aged_fmax - required).value();
        let match_term = if slack <= MIN_SLACK_GHZ {
            self.config.w_max
        } else {
            (alpha / slack).min(self.config.w_max)
        };
        match_term + beta * (health_next / health_now)
    }

    /// Stage 1: the variation-, health- and temperature-aware Dark Core Map.
    ///
    /// Greedily selects `n_on` on-cores. Each step scores every remaining
    /// core as
    ///
    /// ```text
    /// score = min(aged_fmax, cap) − EXCESS_PENALTY·max(0, aged_fmax − cap)
    ///         − LAMBDA·T_predicted(core | already-selected set)
    /// ```
    ///
    /// where `cap` is the workload's largest frequency requirement plus a
    /// small margin. Capping makes "fast enough" cores equivalent, the
    /// excess penalty keeps the chip's fastest cores dark (preserved), and
    /// the temperature term spreads the on-set across the die.
    ///
    /// Fills `scratch.on`; expects `scratch.aged_fmax` to hold the caller's
    /// per-decision frequency snapshot.
    fn select_dcm(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &WorkloadMix,
        n_on: usize,
        search: SearchPath,
        scratch: &mut PolicyScratch,
    ) {
        let cfg = &self.config;
        let system = ctx.system;
        let fp = system.floorplan();
        let n = fp.core_count();
        // The feasibility cap: the 90th percentile of the *non-critical*
        // requirements. Deadline-critical outliers are served individually
        // through the elite-core fallback in stage 2, so they must not drag
        // the whole DCM toward the chip's fastest (preserved) cores.
        let cap = workload
            .requirement_quantile_into(cfg.cap_quantile, &mut scratch.freqs)
            .value()
            + cfg.cap_margin_ghz;
        let mean_dynamic = workload.mean_dynamic_power().value();
        // Per-core leakage estimate (Eq. 2): slow, high-ϑ cores leak
        // multiples of the nominal 1.18 W, which is exactly why a
        // variation-blind DCM runs hot. Leakage is evaluated at a typical
        // operating temperature (~ambient + 15 K), *once per decision* —
        // the greedy loop below reads the snapshot instead of re-running
        // the leakage model twice per candidate per step.
        let model = system.power_model();
        let typical_t = system.thermal_config().ambient + 15.0;
        scratch.dcm_leakage.clear();
        scratch.dcm_leakage.extend(fp.cores().map(|core| {
            model
                .leakage(
                    hayat_power::PowerState::Idle,
                    system.chip().leakage_factor(core),
                    typical_t,
                )
                .value()
        }));
        // The frequency elite to preserve: the top PRESERVE_FRACTION of the
        // aged per-core frequencies, but never below the workload's own
        // requirement cap (feasibility beats preservation).
        let preserve_threshold = {
            scratch.freqs.clear();
            scratch.freqs.extend_from_slice(&scratch.aged_fmax);
            scratch.freqs.sort_unstable_by(f64::total_cmp);
            let idx = ((1.0 - cfg.preserve_fraction) * (n - 1) as f64).round() as usize;
            scratch.freqs[idx.min(n - 1)].max(cap)
        };

        scratch.on.clear();
        scratch.on.resize(n, false);
        scratch.dcm_rise.clear();
        scratch.dcm_rise.resize(n, 0.0);
        // The tiled branch-and-bound relies on the score being monotone
        // non-increasing in the superposed rise — true only for λ ≥ 0, so a
        // (non-paper) negative coefficient falls back to the oracle scan.
        let tiled = search == SearchPath::Tiled && cfg.lambda_ghz_per_kelvin >= 0.0;
        let (candidates_evaluated, candidates_pruned, tiles_scanned) = if tiled {
            self.select_dcm_tiled(ctx, n_on, cap, mean_dynamic, preserve_threshold, scratch)
        } else {
            (
                self.select_dcm_exhaustive(
                    ctx,
                    n_on,
                    cap,
                    mean_dynamic,
                    preserve_threshold,
                    scratch,
                ),
                0,
                0,
            )
        };
        ctx.recorder
            .counter("policy.dcm.candidates_evaluated", candidates_evaluated);
        ctx.recorder
            .counter("policy.dcm.candidates_pruned", candidates_pruned);
        ctx.recorder
            .counter("policy.dcm.tiles_scanned", tiles_scanned);
    }

    /// The oracle DCM scan: every greedy step scores every still-free core.
    /// Returns the candidate-evaluation count.
    fn select_dcm_exhaustive(
        &self,
        ctx: &PolicyContext<'_>,
        n_on: usize,
        cap: f64,
        mean_dynamic: f64,
        preserve_threshold: f64,
        scratch: &mut PolicyScratch,
    ) -> u64 {
        let cfg = &self.config;
        let system = ctx.system;
        let fp = system.floorplan();
        let n = fp.core_count();
        let predictor = system.predictor();
        let mut candidates_evaluated: u64 = 0;
        for _ in 0..n_on.min(n) {
            let mut best: Option<(f64, CoreId)> = None;
            for cand in fp.cores() {
                if scratch.on[cand.index()] {
                    continue;
                }
                candidates_evaluated += 1;
                let f = scratch.aged_fmax[cand.index()];
                // Same arithmetic as the pre-snapshot code (power is the
                // dynamic+leakage sum, leak the difference back) so scores
                // stay bit-identical.
                let power = mean_dynamic + scratch.dcm_leakage[cand.index()];
                let t_cand = system.thermal_config().ambient.value()
                    + scratch.dcm_rise[cand.index()]
                    + power * predictor.rise_row(cand)[cand.index()];
                let leak = power - mean_dynamic;
                let score = f.min(cap)
                    - cfg.excess_penalty * (f - preserve_threshold).max(0.0)
                    - cfg.lambda_ghz_per_kelvin * t_cand
                    - cfg.mu_ghz_per_watt * leak;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, cand));
                }
            }
            let (_, core) = best.expect("n_on is at most the core count");
            scratch.on[core.index()] = true;
            let p = mean_dynamic + scratch.dcm_leakage[core.index()];
            hayat_linalg::axpy_in_place(&mut scratch.dcm_rise, p, predictor.rise_row(core));
        }
        candidates_evaluated
    }

    /// The tiled lazy-refresh DCM scan. Selects the **identical** DCM as
    /// [`select_dcm_exhaustive`](Self::select_dcm_exhaustive) while scoring
    /// only the candidates that could still win:
    ///
    /// * Each core carries a cached score from the step it was last
    ///   evaluated (step 0 seeds the cache with a full sweep — the same
    ///   work the oracle's first step does). Only the superposed rise
    ///   changes between steps, it only grows (`λ ≥ 0`, footprint rows
    ///   ≥ 0), and IEEE round-to-nearest addition and multiplication are
    ///   monotone — so a stale cache entry is a true upper bound on the
    ///   core's current exact score.
    /// * Cores are grouped per tile, each segment kept sorted by (cached
    ///   score descending, index ascending). A greedy step runs a
    ///   tournament over the tile heads: while the winning head is stale,
    ///   re-score it with the exact current-step expression and sift it
    ///   down its segment; once the winning head is fresh it *is* the
    ///   exact argmax — every other candidate sits under a bound that is
    ///   at most the winner's exact score, with the tournament's
    ///   lowest-index tie order matching the oracle's.
    /// * The winner is the maximum exact score, lowest core index among
    ///   exact floating-point ties — precisely what the oracle's
    ///   first-strictly-greater update converges to.
    ///
    /// Unlike a static rise-free bound (which goes uselessly loose once
    /// hundreds of selections have stacked rise under every candidate —
    /// exactly the 32×32 regime), the cache re-tightens on every refresh,
    /// so evaluations per step stay near-constant at any floorplan size.
    ///
    /// Returns `(evaluated, pruned, tiles_scanned)`; by construction
    /// `evaluated + pruned` equals the oracle's evaluation count.
    fn select_dcm_tiled(
        &self,
        ctx: &PolicyContext<'_>,
        n_on: usize,
        cap: f64,
        mean_dynamic: f64,
        preserve_threshold: f64,
        scratch: &mut PolicyScratch,
    ) -> (u64, u64, u64) {
        let cfg = &self.config;
        let system = ctx.system;
        let fp = system.floorplan();
        let n = fp.core_count();
        let predictor = system.predictor();
        let ambient = system.thermal_config().ambient.value();
        let tiles = TileOverlay::for_floorplan(fp);
        let t_count = tiles.tile_count();

        // Seed the cache with the exact step-0 scores (dcm_rise was just
        // reset, so reading it keeps the expression literally the one the
        // refresh below uses). This sweep is the oracle's first full step,
        // so it is charged to `evaluated` as n candidate evaluations.
        scratch.dcm_score0.clear();
        scratch.dcm_score0.extend(fp.cores().map(|cand| {
            let f = scratch.aged_fmax[cand.index()];
            let power = mean_dynamic + scratch.dcm_leakage[cand.index()];
            let t_cand = ambient
                + scratch.dcm_rise[cand.index()]
                + power * predictor.rise_row(cand)[cand.index()];
            let leak = power - mean_dynamic;
            f.min(cap)
                - cfg.excess_penalty * (f - preserve_threshold).max(0.0)
                - cfg.lambda_ghz_per_kelvin * t_cand
                - cfg.mu_ghz_per_watt * leak
        }));
        scratch.dcm_stamp.clear();
        scratch.dcm_stamp.resize(n, 0);

        // Group cores by tile (counting sort into segment offsets), then
        // sort each tile's segment by (cached score descending, index
        // ascending).
        scratch.tile_start.clear();
        scratch.tile_start.resize(t_count + 1, 0);
        for cand in fp.cores() {
            scratch.tile_start[tiles.tile_of(cand) + 1] += 1;
        }
        for t in 0..t_count {
            scratch.tile_start[t + 1] += scratch.tile_start[t];
        }
        scratch.tile_cursor.clear();
        scratch
            .tile_cursor
            .extend_from_slice(&scratch.tile_start[..t_count]);
        scratch.tile_members.clear();
        scratch.tile_members.resize(n, 0);
        for cand in fp.cores() {
            let t = tiles.tile_of(cand);
            scratch.tile_members[scratch.tile_cursor[t] as usize] = cand.index() as u32;
            scratch.tile_cursor[t] += 1;
        }
        {
            let score0 = &scratch.dcm_score0;
            for t in 0..t_count {
                let seg = &mut scratch.tile_members
                    [scratch.tile_start[t] as usize..scratch.tile_start[t + 1] as usize];
                seg.sort_unstable_by(|&a, &b| {
                    score0[b as usize]
                        .total_cmp(&score0[a as usize])
                        .then(a.cmp(&b))
                });
            }
        }
        scratch.tile_cursor.clear();
        scratch
            .tile_cursor
            .extend_from_slice(&scratch.tile_start[..t_count]);
        scratch.tile_stamp.clear();
        scratch.tile_stamp.resize(t_count, u32::MAX);

        let mut evaluated: u64 = 0;
        let mut pruned: u64 = 0;
        let mut tiles_scanned: u64 = 0;
        let mut on_count = 0usize;
        for step in 0..n_on.min(n) as u32 {
            let free = (n - on_count) as u64;
            let before = evaluated;
            if step == 0 {
                // The cache-seeding sweep above was this step's full scan.
                evaluated += n as u64;
            }
            let (winner_ci, winner_t);
            loop {
                // Tournament over the tile heads: max cached score, lowest
                // core index among exact fp ties — the same tie order the
                // oracle's strict-`>` sequential update converges to, so a
                // stale head that ties a fresh one at a lower index is
                // refreshed before the fresh one can win.
                let mut top: Option<(f64, u32, usize)> = None;
                for t in 0..t_count {
                    let cur = scratch.tile_cursor[t] as usize;
                    if cur >= scratch.tile_start[t + 1] as usize {
                        continue; // tile fully selected
                    }
                    let ci = scratch.tile_members[cur];
                    let key = scratch.dcm_score0[ci as usize];
                    let beats = match top {
                        None => true,
                        Some((bk, bi, _)) => key > bk || (key == bk && ci < bi),
                    };
                    if beats {
                        top = Some((key, ci, t));
                    }
                }
                let (_, ci, t) = top.expect("n_on is at most the core count");
                if scratch.dcm_stamp[ci as usize] == step {
                    // Fresh head on top: its cached value is this step's
                    // exact score and every other candidate is bounded by
                    // it, so it is the oracle's winner.
                    winner_ci = ci as usize;
                    winner_t = t;
                    break;
                }
                // Stale head: refresh with the exact current-step score.
                if scratch.tile_stamp[t] != step {
                    scratch.tile_stamp[t] = step;
                    tiles_scanned += 1;
                }
                evaluated += 1;
                let ci = ci as usize;
                let cand = CoreId::new(ci);
                let f = scratch.aged_fmax[ci];
                let power = mean_dynamic + scratch.dcm_leakage[ci];
                let t_cand = ambient + scratch.dcm_rise[ci] + power * predictor.rise_row(cand)[ci];
                let leak = power - mean_dynamic;
                let score = f.min(cap)
                    - cfg.excess_penalty * (f - preserve_threshold).max(0.0)
                    - cfg.lambda_ghz_per_kelvin * t_cand
                    - cfg.mu_ghz_per_watt * leak;
                debug_assert!(
                    score <= scratch.dcm_score0[ci],
                    "the cached score must bound the exact score (core {ci})"
                );
                scratch.dcm_score0[ci] = score;
                scratch.dcm_stamp[ci] = step;
                // The head's key just dropped: sift it down its (score
                // descending, index ascending)-sorted segment.
                let end = scratch.tile_start[t + 1] as usize;
                let mut i = scratch.tile_cursor[t] as usize;
                while i + 1 < end {
                    let a = scratch.tile_members[i];
                    let b = scratch.tile_members[i + 1];
                    let sa = scratch.dcm_score0[a as usize];
                    let sb = scratch.dcm_score0[b as usize];
                    if sa > sb || (sa == sb && a < b) {
                        break;
                    }
                    scratch.tile_members.swap(i, i + 1);
                    i += 1;
                }
            }
            scratch.on[winner_ci] = true;
            scratch.tile_cursor[winner_t] += 1;
            on_count += 1;
            pruned += free - (evaluated - before);
            let p = mean_dynamic + scratch.dcm_leakage[winner_ci];
            hayat_linalg::axpy_in_place(
                &mut scratch.dcm_rise,
                p,
                predictor.rise_row(CoreId::new(winner_ci)),
            );
        }
        (evaluated, pruned, tiles_scanned)
    }
}

impl HayatPolicy {
    /// The full two-stage decision under the given candidate search and
    /// table path, against the context's scratch (or a local one).
    fn decide(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &WorkloadMix,
        search: SearchPath,
        table_path: TablePath,
    ) -> ThreadMapping {
        match ctx.scratch {
            Some(cell) => {
                self.map_threads_with(ctx, workload, search, table_path, &mut cell.borrow_mut())
            }
            None => {
                self.map_threads_with(ctx, workload, search, table_path, &mut PolicyScratch::new())
            }
        }
    }

    /// The full two-stage decision against a caller-provided scratch.
    ///
    /// All per-decision state (frequency and leakage snapshots, the sorted
    /// thread list, the DCM, the superposed rise vector, the recycled
    /// mapping) lives in `scratch`, so a warm scratch makes the whole
    /// decision allocation-free.
    fn map_threads_with(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &WorkloadMix,
        search: SearchPath,
        table_path: TablePath,
        scratch: &mut PolicyScratch,
    ) -> ThreadMapping {
        let _decision = ctx.recorder.span("policy.hayat.decision");
        let system = ctx.system;
        let fp = system.floorplan();
        let n = fp.core_count();
        let predictor = system.predictor();
        let table = system.aging_table();
        let t_safe = system.thermal_config().t_safe;
        let ambient = system.thermal_config().ambient;
        let (alpha, beta) = self.config.coefficients(system.health().mean());

        // Per-decision snapshots: aged frequencies and reference-temperature
        // leakage are read once here instead of once per candidate inside
        // the O(threads × cores) loop below. The leakage sum reproduces the
        // old per-candidate `dynamic + leakage` arithmetic exactly.
        system.aged_fmax_into(&mut scratch.aged_fmax);
        let model = system.power_model();
        let reference_t = model.config().reference_temperature;
        scratch.ref_leakage.clear();
        scratch.ref_leakage.extend(fp.cores().map(|core| {
            model
                .leakage(
                    hayat_power::PowerState::Idle,
                    system.chip().leakage_factor(core),
                    reference_t,
                )
                .value()
        }));

        // Sort threads hardest-first so high-frequency demands see the full
        // candidate set (list S preparation, lines 2-3). Unstable sort is
        // safe — the thread-id tiebreak makes the order total — and avoids
        // the merge-sort temp buffer.
        scratch.threads.clear();
        scratch
            .threads
            .extend(workload.threads().map(|(tid, p)| (p.min_frequency(), tid)));
        scratch.threads.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("frequencies are finite")
                .then(a.1.cmp(&b.1))
        });

        // Stage 1: the Dark Core Map — exactly one on-core per thread, never
        // more than the budget admits.
        let n_on = workload.total_threads().min(system.budget().max_on());
        self.select_dcm(ctx, workload, n_on, search, scratch);

        let mut mapping = scratch.take_mapping(n);
        // Incrementally maintained temperature rise above ambient from all
        // threads mapped so far, plus the indices of its hottest lanes: any
        // exactly-reproduced lane of the fused scan is an exact lower bound
        // on the scan's peak, which is what lets the tiled path discard
        // certainly-infeasible candidates without the O(cores) scan.
        scratch.rise.clear();
        scratch.rise.resize(n, 0.0);
        // Scale the tracked-lane count with the mesh: the fold is pure
        // overhead on candidates that survive it, and on small meshes a
        // 32-lane fold costs a noticeable fraction of the O(cores) scan it
        // tries to avoid.
        let hot_k = (n / 16).clamp(4, HOT_LANES).min(n);
        scratch.hot_lanes.clear();
        scratch.hot_lanes.extend(0..hot_k as u32);
        // Ascending list of the DCM's on-cores. *Both* search paths walk this
        // exact sequence (it is the same set, in the same order, as the old
        // `fp.cores()` scan filtered on `scratch.on`), so the tiled path's
        // `evaluated + pruned` equals the exhaustive path's evaluation count
        // by construction.
        scratch.on_list.clear();
        for ci in 0..n {
            if scratch.on[ci] {
                scratch.on_list.push(ci as u32);
            }
        }
        // The Eq. 9 prune bounds the health term by `β` (the aging table
        // never lets health grow, so `health_next / health_now ≤ 1`). A
        // (non-paper) negative β flips that bound, so it falls back to the
        // oracle scan.
        let stage2_tiled = search == SearchPath::Tiled && beta >= 0.0;
        let mut candidates_evaluated: u64 = 0;
        let mut candidates_pruned: u64 = 0;
        let mut dcm_swaps: u64 = 0;
        let mut advances: u64 = 0;

        for &(required, tid) in &scratch.threads {
            if mapping.active_cores() >= system.budget().max_on() {
                break; // Budget exhausted: remaining threads stay unplaced.
            }
            let profile = workload.thread(tid);
            let dynamic = profile.dynamic_power(profile.min_frequency());
            let duty = profile.duty();
            let mut best: Option<(f64, f64, f64, CoreId, Watts)> = None;
            // Thermal-emergency fallback: the candidate with the lowest
            // predicted peak (and its on-list position, for exact tie
            // order), kept in case *every* candidate violates T_safe (the
            // thread must still run; DTM will police the chip at run time,
            // exactly the "DTM triggers even in case of a naive
            // optimization" situation the paper accounts for). The tiled
            // path defers certainly-infeasible candidates into
            // `fallback_pool` instead of scanning them eagerly.
            let mut fallback: Option<(f64, usize, CoreId, Watts)> = None;
            scratch.fallback_pool.clear();
            for mi in 0..scratch.on_list.len() {
                let ci = scratch.on_list[mi] as usize;
                let cand = CoreId::new(ci);
                if !mapping.is_free(cand) || scratch.aged_fmax[ci] < required.value() {
                    continue;
                }
                let power = dynamic + Watts::new(scratch.ref_leakage[ci]);
                let health_now = system.health().core(cand).value();

                // Tiled pruning, active only once a best exists (while it
                // does not, every candidate must still feed the fallback
                // below, so the full oracle body runs). Two levels, both with
                // a doubled 2e-12 margin: the oracle's tie test compares the
                // *rounded* difference `fl(w − bw)` against 1e-12, so a
                // candidate must only be dropped when it clears the tie
                // window even after that rounding.
                let mut prepaid: Option<(f64, f64)> = None;
                if stage2_tiled {
                    if let Some((bw, bt_max, _, _, _)) = &best {
                        // Level 1, O(1): the Eq. 9 weight can never exceed
                        // the frequency-matching term plus β.
                        let slack = scratch.aged_fmax[ci] - required.value();
                        let match_term = if slack <= MIN_SLACK_GHZ {
                            self.config.w_max
                        } else {
                            (alpha / slack).min(self.config.w_max)
                        };
                        if match_term + beta < *bw - 2e-12 {
                            candidates_pruned += 1;
                            continue;
                        }
                        // Level 1.5, O(1) and exact: any lane written in
                        // exactly the floating-point form `axpy_max_sum`
                        // folds into its max is a lower bound on the scan's
                        // peak. The candidate's own lane, its mesh
                        // neighbours, and the `HOT_LANES` hottest rise lanes
                        // together sit within millikelvin of the exact peak,
                        // which clears T_safe for almost every candidate the
                        // oracle would certainly discard; with a best
                        // already in hand its fallback entry is
                        // unobservable.
                        let row = predictor.rise_row(cand);
                        let t_self = ambient.value() + scratch.rise[ci] + power.value() * row[ci];
                        let mut lower_bound = t_self;
                        // Hot lanes are sorted by rise descending, so once
                        // the fold clears T_safe the prune below is already
                        // decided and the remaining lanes can't change it.
                        for &h in &scratch.hot_lanes {
                            if lower_bound > t_safe.value() {
                                break;
                            }
                            let j = h as usize;
                            let t = ambient.value() + scratch.rise[j] + power.value() * row[j];
                            if t > lower_bound {
                                lower_bound = t;
                            }
                        }
                        if lower_bound <= t_safe.value() {
                            for nb in fp.neighbors(cand) {
                                let j = nb.index();
                                let t = ambient.value() + scratch.rise[j] + power.value() * row[j];
                                if t > lower_bound {
                                    lower_bound = t;
                                }
                            }
                        }
                        if lower_bound > t_safe.value() {
                            candidates_pruned += 1;
                            continue;
                        }
                        // Level 2, O(1) + one table advance: the candidate's
                        // own next temperature yields the exact Eq. 9 weight
                        // without the O(cores) peak/average scan. Candidates
                        // pruned here may advance the table where the
                        // oracle's T_safe filter would not have, so
                        // `advances` (and `policy.table_lookups`)
                        // legitimately differ across search paths; the
                        // mapping cannot.
                        advances += 1;
                        let health_next = match table_path {
                            TablePath::Oracle => {
                                table.advance(Kelvin::new(t_self), duty, health_now, ctx.horizon)
                            }
                            TablePath::Fast => table
                                .age_curve(Kelvin::new(t_self), duty, &mut scratch.age_curve)
                                .advance(health_now, ctx.horizon),
                        };
                        let w = self.weight(
                            alpha,
                            beta,
                            Gigahertz::new(scratch.aged_fmax[ci]),
                            required,
                            health_now,
                            health_next,
                        );
                        if w < *bw - 2e-12 {
                            candidates_pruned += 1;
                            continue;
                        }
                        // Level 2.5, O(1) and exact: on an aged chip many
                        // candidates cap the match term at w_max, so the
                        // weight ties and the oracle falls through to the
                        // temperature tie-break — which is exactly where the
                        // peak lower bound discriminates. With the exact
                        // weight in hand, a candidate that does not strictly
                        // beat the best's weight can only win via
                        // `t_max < bt_max`; a bound already past the best's
                        // exact peak (with the doubled tie margin — the
                        // subtraction of two near-equal Kelvin values is
                        // exact by Sterbenz, so 2e-12 clears the oracle's
                        // rounded 1e-12 tie test) settles that without the
                        // O(cores) scan.
                        if w <= *bw && lower_bound > *bt_max + 2e-12 {
                            candidates_pruned += 1;
                            continue;
                        }
                        prepaid = Some((w, t_self));
                    } else {
                        // No best yet: a certainly-infeasible candidate can
                        // only matter as the thermal fallback. Defer its
                        // O(cores) scan until the thread is known to need
                        // one (most threads find a feasible best, and then
                        // the whole pool is dropped unscanned).
                        let row = predictor.rise_row(cand);
                        let t_self = ambient.value() + scratch.rise[ci] + power.value() * row[ci];
                        let mut lower_bound = t_self;
                        for &h in &scratch.hot_lanes {
                            let j = h as usize;
                            let t = ambient.value() + scratch.rise[j] + power.value() * row[j];
                            if t > lower_bound {
                                lower_bound = t;
                            }
                        }
                        for nb in fp.neighbors(cand) {
                            let j = nb.index();
                            let t = ambient.value() + scratch.rise[j] + power.value() * row[j];
                            if t > lower_bound {
                                lower_bound = t;
                            }
                        }
                        if lower_bound > t_safe.value() {
                            scratch.fallback_pool.push((lower_bound, mi as u32));
                            continue;
                        }
                    }
                }
                candidates_evaluated += 1;

                // Lines 8-14: predicted next temperatures; discard on
                // T_safe. One fused pass over the rise vector yields the
                // peak, the sum, and the candidate's own temperature.
                let scan = hayat_linalg::axpy_max_sum(
                    ambient.value(),
                    &scratch.rise,
                    power.value(),
                    predictor.rise_row(cand),
                    cand.index(),
                );
                let (t_max, t_sum, t_cand) = (scan.max, scan.sum, scan.probe);
                if let Some((_, t_pre)) = prepaid {
                    debug_assert_eq!(
                        t_pre.to_bits(),
                        t_cand.to_bits(),
                        "the O(1) probe must reproduce axpy_max_sum's probe lane bit-for-bit"
                    );
                }
                if fallback.is_none_or(|(ft, _, _, _)| t_max < ft) {
                    fallback = Some((t_max, mi, cand, power));
                }
                if t_max > t_safe.value() {
                    continue;
                }

                // Line 15: candidate's next health over the horizon. The
                // fast path collapses the 3D table into a 1D age curve and
                // inverts it directly; the oracle path bisects the original
                // trilinear surface. Both see the same (t, duty) cell.
                let w = match prepaid {
                    Some((w, _)) => w,
                    None => {
                        advances += 1;
                        let health_next = match table_path {
                            TablePath::Oracle => {
                                table.advance(Kelvin::new(t_cand), duty, health_now, ctx.horizon)
                            }
                            TablePath::Fast => table
                                .age_curve(Kelvin::new(t_cand), duty, &mut scratch.age_curve)
                                .advance(health_now, ctx.horizon),
                        };

                        // Lines 17-23: the Eq. 9 weight.
                        self.weight(
                            alpha,
                            beta,
                            Gigahertz::new(scratch.aged_fmax[ci]),
                            required,
                            health_now,
                            health_next,
                        )
                    }
                };
                // Tie-break toward cooler maps.
                let t_avg = t_sum / n as f64;
                let better = match &best {
                    None => true,
                    Some((bw, bt_max, bt_avg, _, _)) => {
                        w > *bw
                            || ((w - *bw).abs() < 1e-12
                                && (t_max < *bt_max
                                    || ((t_max - *bt_max).abs() < 1e-12 && t_avg < *bt_avg)))
                    }
                };
                if better {
                    best = Some((w, t_max, t_avg, cand, power));
                }
            }
            if best.is_some() {
                // A feasible best makes the fallback unobservable: the
                // deferred certainly-infeasible candidates were never
                // scanned, exactly the saving.
                candidates_pruned += scratch.fallback_pool.len() as u64;
            } else if !scratch.fallback_pool.is_empty() {
                // Thermal emergency: the oracle's fallback is the lowest
                // exact peak, earliest on-list position among exact fp ties
                // (its strict-`<` update in scan order). Resolve the
                // deferred pool best-first by peak lower bound — once the
                // bound clears the incumbent's exact peak, no later
                // candidate can displace it (its peak is at least its
                // bound), even on a tie.
                scratch
                    .fallback_pool
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut resolved = 0usize;
                for k in 0..scratch.fallback_pool.len() {
                    let (lower_bound, pos) = scratch.fallback_pool[k];
                    if let Some((ft, _, _, _)) = fallback {
                        if lower_bound > ft {
                            break;
                        }
                    }
                    resolved += 1;
                    candidates_evaluated += 1;
                    let mi = pos as usize;
                    let ci = scratch.on_list[mi] as usize;
                    let cand = CoreId::new(ci);
                    let power = dynamic + Watts::new(scratch.ref_leakage[ci]);
                    let scan = hayat_linalg::axpy_max_sum(
                        ambient.value(),
                        &scratch.rise,
                        power.value(),
                        predictor.rise_row(cand),
                        cand.index(),
                    );
                    debug_assert!(
                        scan.max > t_safe.value(),
                        "deferred candidates are certainly infeasible (core {ci})"
                    );
                    let replace = match fallback {
                        None => true,
                        Some((ft, fmi, _, _)) => scan.max < ft || (scan.max == ft && mi < fmi),
                    };
                    if replace {
                        fallback = Some((scan.max, mi, cand, power));
                    }
                }
                candidates_pruned += (scratch.fallback_pool.len() - resolved) as u64;
            }
            let mut chosen = best
                .map(|(_, _, _, core, power)| (core, power))
                .or(fallback.map(|(_, _, core, power)| (core, power)));
            if chosen.is_none() {
                // No feasible core inside the DCM (e.g. a demanding thread
                // on a well-aged chip): wake the coolest feasible core
                // outside it instead. N_on stays within the budget because
                // the per-thread loop is capped above.
                chosen = fp
                    .cores()
                    .filter(|&c| {
                        mapping.is_free(c) && scratch.aged_fmax[c.index()] >= required.value()
                    })
                    .min_by(|&a, &b| {
                        scratch.rise[a.index()]
                            .partial_cmp(&scratch.rise[b.index()])
                            .expect("rises are finite")
                    })
                    .map(|core| {
                        (
                            core,
                            dynamic + Watts::new(scratch.ref_leakage[core.index()]),
                        )
                    });
                if chosen.is_some() {
                    // Waking a planned-dark core swaps the Dark Core Map.
                    dcm_swaps += 1;
                }
            }
            if let Some((core, power)) = chosen {
                mapping.assign(tid, core);
                hayat_linalg::axpy_in_place(
                    &mut scratch.rise,
                    power.value(),
                    predictor.rise_row(core),
                );
                // Re-track the hottest lanes: one O(cores) insertion pass
                // per assignment, against the O(cores) scans per *candidate*
                // their bound saves. Any lane set is valid; the hottest keep
                // the bound tight.
                scratch.hot_lanes.clear();
                for i in 0..n {
                    let r = scratch.rise[i];
                    if scratch.hot_lanes.len() == hot_k {
                        let tail = *scratch.hot_lanes.last().expect("non-empty") as usize;
                        if r <= scratch.rise[tail] {
                            continue;
                        }
                        *scratch.hot_lanes.last_mut().expect("non-empty") = i as u32;
                    } else {
                        scratch.hot_lanes.push(i as u32);
                    }
                    let mut k = scratch.hot_lanes.len() - 1;
                    while k > 0 {
                        let a = scratch.hot_lanes[k] as usize;
                        let b = scratch.hot_lanes[k - 1] as usize;
                        if scratch.rise[a] <= scratch.rise[b] {
                            break;
                        }
                        scratch.hot_lanes.swap(k, k - 1);
                        k -= 1;
                    }
                }
            }
            // Threads with no frequency-feasible candidate stay unplaced;
            // the engine reports them.
        }
        ctx.recorder
            .counter("policy.hayat.candidates_evaluated", candidates_evaluated);
        ctx.recorder
            .counter("policy.hayat.candidates_pruned", candidates_pruned);
        ctx.recorder.counter("policy.hayat.dcm_swaps", dcm_swaps);
        ctx.recorder
            .counter("policy.hayat.assignments", mapping.active_cores() as u64);
        ctx.recorder.counter(
            "policy.table_lookups",
            advances * table_path.lookups_per_advance(),
        );
        mapping
    }
}

impl Policy for HayatPolicy {
    fn name(&self) -> &str {
        "Hayat"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        self.decide(ctx, workload, SearchPath::Tiled, TablePath::Fast)
    }
}

/// Which candidate search a Hayat decision runs.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPath {
    /// Tiled branch-and-bound candidate index, the production search: the
    /// die is partitioned into `K×K` tiles with per-tile score bounds, so
    /// each DCM slot / thread-mapping decision scores only the candidates
    /// that can still win — sub-quadratic in core count. Falls back to the
    /// exhaustive scan when a scoring coefficient violates the bound's
    /// assumptions (negative `λ` or `β`).
    Tiled,
    /// Exhaustive all-cores candidate scan — the oracle the tiled index is
    /// cross-validated against.
    Exhaustive,
}

/// The Hayat decision with its oracles selectable: the exhaustive candidate
/// scans in place of the tiled index and/or the bisection table advance in
/// place of the direct age-curve inversion.
///
/// Both oracles select exactly what the production [`HayatPolicy`] selects;
/// this reference policy exists so the identity tests and the bench's
/// speed races can hold them to it. It is not a campaign policy kind, so no
/// campaign or binary can run it.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct HayatReference {
    /// The coefficients the decision runs with.
    pub policy: HayatPolicy,
    /// The candidate search.
    pub search: SearchPath,
    /// The health-advance implementation of the Eq. 9 health term.
    pub table: TablePath,
}

impl HayatReference {
    /// The paper-coefficient Hayat decision under `search` and `table`.
    #[must_use]
    pub fn new(search: SearchPath, table: TablePath) -> Self {
        HayatReference {
            policy: HayatPolicy::default(),
            search,
            table,
        }
    }
}

impl Policy for HayatReference {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        self.policy.decide(ctx, workload, self.search, self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;
    use hayat_aging::Health;
    use hayat_units::Years;

    fn setup(dark: f64, threads: usize) -> (ChipSystem, WorkloadMix) {
        let mut cfg = SimulationConfig::quick_demo();
        cfg.dark_fraction = dark;
        let system = ChipSystem::paper_chip(0, &cfg).unwrap();
        let workload = WorkloadMix::generate(5, threads);
        (system, workload)
    }

    fn ctx(system: &ChipSystem) -> PolicyContext<'_> {
        PolicyContext::new(system, Years::new(1.0), Years::new(0.0))
    }

    #[test]
    fn maps_all_threads_within_budget() {
        let (system, workload) = setup(0.5, 24);
        let mut policy = HayatPolicy::default();
        let mapping = policy.map_threads(&ctx(&system), &workload);
        assert_eq!(mapping.active_cores(), 24);
        assert!(mapping.active_cores() <= system.budget().max_on());
    }

    #[test]
    fn respects_frequency_requirements() {
        let (system, workload) = setup(0.5, 16);
        let mut policy = HayatPolicy::default();
        let mapping = policy.map_threads(&ctx(&system), &workload);
        for (core, tid) in mapping.assignments() {
            let required = workload.thread(tid).min_frequency();
            assert!(
                system.aged_fmax(core) >= required,
                "core {core} too slow for {tid}"
            );
        }
    }

    #[test]
    fn budget_is_never_exceeded() {
        let (system, workload) = setup(0.5, 48); // more threads than 32-core budget
        let mut policy = HayatPolicy::default();
        let mapping = policy.map_threads(&ctx(&system), &workload);
        assert!(mapping.active_cores() <= 32);
    }

    #[test]
    fn avoids_unhealthy_cores_for_demanding_threads() {
        let (mut system, _) = setup(0.5, 4);
        // Cripple a fast core: its aged fmax falls below demanding threads.
        let fast = {
            let all = system.aged_fmax_all();
            let (idx, _) = all
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            hayat_floorplan::CoreId::new(idx)
        };
        system.health_mut().set(fast, Health::new(0.55));
        let workload = WorkloadMix::generate(5, 8);
        let mut policy = HayatPolicy::default();
        let mapping = policy.map_threads(&ctx(&system), &workload);
        for (core, tid) in mapping.assignments() {
            if core == fast {
                let required = workload.thread(tid).min_frequency();
                assert!(system.aged_fmax(fast) >= required);
            }
        }
    }

    #[test]
    fn preserves_the_fastest_cores_for_modest_threads() {
        // Eq. 9's frequency-matching term sends modest threads to
        // just-fast-enough cores, keeping the fastest cores dark.
        let (system, workload) = setup(0.5, 16);
        let mut policy = HayatPolicy::default();
        let mapping = policy.map_threads(&ctx(&system), &workload);
        let fastest = {
            let all = system.aged_fmax_all();
            let (idx, _) = all
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            hayat_floorplan::CoreId::new(idx)
        };
        // The fastest core's slack is large for every thread in a typical
        // mix, so its Eq. 9 weight is low and it should stay unmapped.
        assert!(
            mapping.is_free(fastest),
            "fastest core {fastest} should be preserved"
        );
    }

    #[test]
    fn weight_function_caps_and_orders() {
        let policy = HayatPolicy::default();
        let w_tight = policy.weight(
            0.6,
            1.0,
            Gigahertz::new(3.0),
            Gigahertz::new(2.99),
            1.0,
            0.99,
        );
        let w_loose = policy.weight(
            0.6,
            1.0,
            Gigahertz::new(4.0),
            Gigahertz::new(2.0),
            1.0,
            0.99,
        );
        assert!(w_tight > w_loose, "tight slack must out-weigh loose slack");
        // Cap: slack of zero takes w_max exactly (plus the health term).
        let w_cap = policy.weight(0.6, 1.0, Gigahertz::new(3.0), Gigahertz::new(3.0), 1.0, 1.0);
        assert!((w_cap - (10.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn min_slack_boundary_takes_cap_exactly() {
        let policy = HayatPolicy::default();
        // At the boundary the guard fires and the match term is w_max.
        let at = policy.weight(
            0.6,
            1.0,
            Gigahertz::new(2.0 + MIN_SLACK_GHZ),
            Gigahertz::new(2.0),
            1.0,
            1.0,
        );
        assert!((at - (10.0 + 1.0)).abs() < 1e-9);
        // Just above the boundary the dividing branch runs — and because
        // MIN_SLACK_GHZ sits far below α/w_max, it still saturates at w_max:
        // the guard value is behavior-preserving, not a tuning knob.
        let above = policy.weight(
            0.6,
            1.0,
            Gigahertz::new(2.0 + 2.0 * MIN_SLACK_GHZ),
            Gigahertz::new(2.0),
            1.0,
            1.0,
        );
        assert_eq!(at, above);
        // Only once slack exceeds α/w_max does the term drop below the cap.
        let past_saturation =
            policy.weight(0.6, 1.0, Gigahertz::new(2.1), Gigahertz::new(2.0), 1.0, 1.0);
        assert!(past_saturation < at);
    }

    #[test]
    fn dcm_candidate_evaluations_match_the_closed_form() {
        // Hoisting the leakage snapshot must not change how many candidates
        // the greedy DCM loop scores: sum_{k=0}^{n_on-1} (n - k) on the
        // exhaustive path. The tiled path may score fewer, but evaluated
        // plus pruned must land on the same closed form — the tiles hide
        // candidates, they never invent or lose any.
        let (system, workload) = setup(0.5, 16);
        let n = system.floorplan().core_count() as u64; // 64 in quick_demo
        let n_on = 16u64;
        let expected: u64 = (0..n_on).map(|k| n - k).sum();
        assert_eq!(expected, 904);

        let recorder = hayat_telemetry::MemoryRecorder::new();
        let mut exhaustive = HayatReference::new(SearchPath::Exhaustive, TablePath::Fast);
        exhaustive.map_threads(&ctx(&system).with_recorder(&recorder), &workload);
        let summary = recorder.summary();
        assert_eq!(
            summary.counter_total("policy.dcm.candidates_evaluated"),
            Some(expected)
        );
        assert_eq!(
            summary.counter_total("policy.dcm.candidates_pruned"),
            Some(0)
        );
        assert_eq!(summary.counter_total("policy.dcm.tiles_scanned"), Some(0));

        let recorder = hayat_telemetry::MemoryRecorder::new();
        let mut policy = HayatPolicy::default();
        policy.map_threads(&ctx(&system).with_recorder(&recorder), &workload);
        let summary = recorder.summary();
        let evaluated = summary
            .counter_total("policy.dcm.candidates_evaluated")
            .unwrap();
        let pruned = summary
            .counter_total("policy.dcm.candidates_pruned")
            .unwrap();
        assert_eq!(evaluated + pruned, expected);
        assert!(pruned > 0, "a 64-core DCM scan should prune something");
        assert!(summary.counter_total("policy.dcm.tiles_scanned").unwrap() > 0);
    }

    #[test]
    fn tiled_and_exhaustive_search_paths_produce_identical_mappings() {
        // The tentpole invariant: the tiled index is a pure pruning overlay.
        // Same DCM, same assignment, and the per-stage candidate accounting
        // must reconcile exactly (evaluated + pruned == oracle's evaluated).
        let (mut system, workload) = setup(0.5, 24);
        // Age the chip unevenly so the health term actually discriminates.
        for i in 0..system.floorplan().core_count() {
            let h = 0.90 + 0.002 * (i % 5) as f64;
            system
                .health_mut()
                .set(hayat_floorplan::CoreId::new(i), Health::new(h));
        }
        let tiled_rec = hayat_telemetry::MemoryRecorder::new();
        let ex_rec = hayat_telemetry::MemoryRecorder::new();
        let mut policy = HayatPolicy::default();
        let mut exhaustive = HayatReference::new(SearchPath::Exhaustive, TablePath::Fast);
        let m_tiled = policy.map_threads(&ctx(&system).with_recorder(&tiled_rec), &workload);
        let m_ex = exhaustive.map_threads(&ctx(&system).with_recorder(&ex_rec), &workload);
        assert_eq!(m_tiled, m_ex);

        let ts = tiled_rec.summary();
        let es = ex_rec.summary();
        for stage in ["policy.dcm", "policy.hayat"] {
            let evaluated = ts
                .counter_total(&format!("{stage}.candidates_evaluated"))
                .unwrap();
            let pruned = ts
                .counter_total(&format!("{stage}.candidates_pruned"))
                .unwrap();
            let oracle = es
                .counter_total(&format!("{stage}.candidates_evaluated"))
                .unwrap();
            assert_eq!(
                evaluated + pruned,
                oracle,
                "{stage}: tiled candidate accounting must reconcile"
            );
        }
    }

    #[test]
    fn fast_and_oracle_table_paths_produce_identical_mappings() {
        let (mut system, workload) = setup(0.5, 24);
        // Age the chip unevenly so the health term actually discriminates.
        for i in 0..system.floorplan().core_count() {
            let h = 0.90 + 0.002 * (i % 5) as f64;
            system
                .health_mut()
                .set(hayat_floorplan::CoreId::new(i), Health::new(h));
        }
        let fast_rec = hayat_telemetry::MemoryRecorder::new();
        let oracle_rec = hayat_telemetry::MemoryRecorder::new();
        let mut policy = HayatPolicy::default();
        let mut oracle = HayatReference::new(SearchPath::Tiled, TablePath::Oracle);
        let m_fast = policy.map_threads(&ctx(&system).with_recorder(&fast_rec), &workload);
        let m_oracle = oracle.map_threads(&ctx(&system).with_recorder(&oracle_rec), &workload);
        assert_eq!(m_fast, m_oracle);
        // Both paths evaluate the same advances; the oracle pays 67 table
        // lookups per advance where the fast path pays one.
        let fast_lookups = fast_rec
            .summary()
            .counter_total("policy.table_lookups")
            .unwrap();
        let oracle_lookups = oracle_rec
            .summary()
            .counter_total("policy.table_lookups")
            .unwrap();
        assert!(fast_lookups > 0);
        assert_eq!(
            oracle_lookups,
            fast_lookups * TablePath::Oracle.lookups_per_advance()
        );
    }

    #[test]
    fn negative_coefficients_fall_back_to_the_exhaustive_scans() {
        // The tiled bounds assume λ ≥ 0 (DCM) and β ≥ 0 (stage 2); a negative
        // coefficient must route that stage through its exhaustive scan and
        // still yield a feasible mapping within the dark budget.
        let (mut system, workload) = setup(0.5, 24);
        for i in 0..system.floorplan().core_count() {
            let h = 0.90 + 0.002 * (i % 5) as f64;
            system
                .health_mut()
                .set(hayat_floorplan::CoreId::new(i), Health::new(h));
        }
        let mut negative_lambda = HayatConfig::paper();
        negative_lambda.lambda_ghz_per_kelvin = -0.08;
        let mut negative_beta = HayatConfig::paper();
        negative_beta.beta_early = -1.0;
        negative_beta.beta_late = -0.3;
        for (config, counters) in [
            (
                negative_lambda,
                &["policy.dcm.tiles_scanned", "policy.dcm.candidates_pruned"][..],
            ),
            (negative_beta, &["policy.hayat.candidates_pruned"][..]),
        ] {
            let recorder = hayat_telemetry::MemoryRecorder::new();
            let mut policy = HayatPolicy::new(config);
            let mapping = policy.map_threads(&ctx(&system).with_recorder(&recorder), &workload);
            let summary = recorder.summary();
            for counter in counters {
                assert_eq!(summary.counter_total(counter), Some(0), "{counter}");
            }
            let mut exhaustive = HayatReference {
                policy,
                search: SearchPath::Exhaustive,
                table: TablePath::Fast,
            };
            assert_eq!(exhaustive.map_threads(&ctx(&system), &workload), mapping);
            assert!(mapping.active_cores() > 0);
            assert!(mapping.active_cores() <= system.budget().max_on());
            for (core, tid) in mapping.assignments() {
                assert!(system.aged_fmax(core) >= workload.thread(tid).min_frequency());
            }
        }
    }

    #[test]
    fn shared_scratch_reproduces_the_scratchless_decision() {
        let (system, workload) = setup(0.5, 16);
        let mut policy = HayatPolicy::default();
        let baseline = policy.map_threads(&ctx(&system), &workload);
        let scratch = std::cell::RefCell::new(crate::policy::PolicyScratch::new());
        let shared_ctx = ctx(&system).with_scratch(&scratch);
        // Twice through the same scratch: the second pass exercises the
        // recycled buffers and the mapping pool.
        let first = policy.map_threads(&shared_ctx, &workload);
        scratch.borrow_mut().mapping_pool.push(first.clone());
        let second = policy.map_threads(&shared_ctx, &workload);
        assert_eq!(baseline, first);
        assert_eq!(baseline, second);
    }

    #[test]
    fn phase_switch_selects_coefficients() {
        let cfg = HayatConfig::paper();
        assert_eq!(cfg.coefficients(1.0), (0.6, 1.0));
        assert_eq!(cfg.coefficients(0.90), (4.0, 0.3));
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let (system, workload) = setup(0.5, 16);
        let mut p1 = HayatPolicy::default();
        let mut p2 = HayatPolicy::default();
        assert_eq!(
            p1.map_threads(&ctx(&system), &workload),
            p2.map_threads(&ctx(&system), &workload)
        );
    }
}
