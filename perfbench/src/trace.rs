//! The benchmark's own telemetry sink: it keeps every span duration the
//! crates already emit (plus the ones the benchmark times around its own
//! calls) and every counter, so the report can give per-call medians, tail
//! percentiles and exact counts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hayat_telemetry::Recorder;

/// Span names the crates emit inside `engine.epoch` that have a layer of
/// their own; the rest of an epoch is the window's self time.
const DECISION_SUFFIX: &str = ".decision";
const THERMAL_STEP: &str = "thermal.transient.step";
const AGING_ADVANCE: &str = "engine.aging.advance";
const EPOCH: &str = "engine.epoch";
/// The executor's per-run span: system build + every epoch of the run.
const CHIP: &str = "campaign.chip";

#[derive(Default)]
struct State {
    spans: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, u64>,
    /// Decision + thermal + aging seconds since the last epoch span closed.
    inside_epoch: f64,
    /// Epoch seconds since the last `campaign.chip` span closed.
    inside_chip: f64,
}

/// Collects span samples and counters from one traced repetition.
#[derive(Default)]
pub struct LayerRecorder {
    state: Mutex<State>,
}

impl LayerRecorder {
    /// Every recorded duration of span `name`, in recording order.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.lock().spans.get(name).cloned().unwrap_or_default()
    }

    /// Sum of the durations of span `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.lock().spans.get(name).map_or(0.0, |s| s.iter().sum())
    }

    /// Number of recorded durations of span `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.lock().spans.get(name).map_or(0, Vec::len)
    }

    /// Total of counter `name` (0 if never incremented).
    pub fn count(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Every exact count of the repetition: the counters plus the number of
    /// samples of each span.
    pub fn exact_counts(&self) -> BTreeMap<String, u64> {
        let state = self.lock();
        let mut counts = state.counters.clone();
        for (name, samples) in &state.spans {
            counts.insert(format!("{name}#calls"), samples.len() as u64);
        }
        counts
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("recorder lock")
    }
}

impl Recorder for LayerRecorder {
    fn counter(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    fn gauge(&self, _name: &str, _value: f64) {}

    fn histogram(&self, _name: &str, _value: f64) {}

    fn span_seconds(&self, name: &str, seconds: f64) {
        let mut state = self.lock();
        let derived = if name == THERMAL_STEP
            || name == AGING_ADVANCE
            || (name.starts_with("policy.") && name.ends_with(DECISION_SUFFIX))
        {
            state.inside_epoch += seconds;
            None
        } else if name == EPOCH {
            let window_self = seconds - state.inside_epoch;
            state.inside_epoch = 0.0;
            state.inside_chip += seconds;
            Some(("engine.window_self", window_self))
        } else if name == CHIP {
            let build = seconds - state.inside_chip;
            state.inside_chip = 0.0;
            Some(("build.chip", build))
        } else {
            None
        };
        state
            .spans
            .entry(name.to_owned())
            .or_default()
            .push(seconds);
        if let Some((derived, value)) = derived {
            state
                .spans
                .entry(derived.to_owned())
                .or_default()
                .push(value);
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples beyond it,
/// as `(percentile, value)`. Below twenty samples that percentile would not
/// exceed the median, so the maximum is returned with percentile 100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 20 {
        return (100, sorted.last().copied().unwrap_or(0.0));
    }
    // Ten samples sit above index n - 11; the percentile that index reaches
    // is floor(100 * (n - 10) / n).
    let pct = (100 * (n - 10) / n) as u32;
    (pct, sorted[n - 11])
}
