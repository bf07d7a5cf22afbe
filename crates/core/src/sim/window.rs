//! The transient window of one epoch: per-step power from a cached per-core
//! load, and the worst/mean/peak statistics folded in place.

use crate::dtm::DtmController;
use crate::mapping::ThreadMapping;
use crate::system::ChipSystem;
use hayat_floorplan::CoreId;
use hayat_power::PowerState;
use hayat_thermal::TemperatureMap;
use hayat_units::{DutyCycle, Kelvin, Watts};
use hayat_workload::{ThreadId, WorkloadMix};

/// What an active core runs under the current mapping and DTM state: every
/// per-step quantity that depends on neither time nor temperature.
#[derive(Debug, Clone, Copy)]
struct ActiveLoad {
    thread: ThreadId,
    /// Dynamic power at the (possibly throttled) frequency, before the
    /// thread's phase factor.
    dynamic: Watts,
    /// Stress seconds one control period adds (period × duty).
    stress: f64,
    /// Instructions per second at the (possibly throttled) frequency.
    ips: f64,
}

/// Running statistics over one transient window, advanced one control
/// period at a time. An engine owns one and resets it every epoch, so no
/// step of the window allocates.
///
/// Between DTM state changes only the threads' phase factors and the
/// temperatures move, so the per-core load (throttled dynamic power, stress
/// and throughput per step) is cached and recomputed only when DTM reports
/// an event. Every value is computed by the same expression, in the same
/// order, as a recompute-every-step loop would, so the window's output is
/// bit-identical to it.
pub(crate) struct WindowAccum {
    /// Control periods in the window.
    steps: usize,
    window_seconds: f64,
    /// Current per-core temperatures, refreshed in place after every
    /// thermal step: what DTM checks and leakage is evaluated at.
    pub(crate) current: TemperatureMap,
    worst: Vec<Kelvin>,
    stress_seconds: Vec<f64>,
    temp_sum: f64,
    peak: f64,
    required_ips_per_step: f64,
    required_ips: f64,
    achieved_ips: f64,
    /// Per-core load under the current mapping and DTM state; `None` for a
    /// dark core. Recomputed before the next step when `loads_valid` is
    /// false.
    loads: Vec<Option<ActiveLoad>>,
    loads_valid: bool,
}

impl WindowAccum {
    /// An empty window for a chip whose cores sit at `core_temps`.
    pub(crate) fn new(core_temps: &[f64]) -> Self {
        let current = TemperatureMap::new(core_temps.iter().map(|&t| Kelvin::new(t)).collect());
        let n = current.len();
        WindowAccum {
            steps: 0,
            window_seconds: 0.0,
            worst: current.as_slice().to_vec(),
            current,
            stress_seconds: vec![0.0; n],
            temp_sum: 0.0,
            peak: 0.0,
            required_ips_per_step: 0.0,
            required_ips: 0.0,
            achieved_ips: 0.0,
            loads: vec![None; n],
            loads_valid: false,
        }
    }

    /// Resets the window for a new epoch of `steps` control periods
    /// spanning `window_seconds`, seeded from the chip's current core
    /// temperatures.
    pub(crate) fn begin(
        &mut self,
        steps: usize,
        window_seconds: f64,
        core_temps: &[f64],
        required_ips_per_step: f64,
    ) {
        assert_eq!(
            core_temps.len(),
            self.worst.len(),
            "one temperature per core"
        );
        let mut hottest = Kelvin::new(0.0);
        for (i, (worst, &raw)) in self.worst.iter_mut().zip(core_temps).enumerate() {
            let t = Kelvin::new(raw);
            self.current.set(CoreId::new(i), t);
            *worst = t;
            hottest = hottest.max(t);
        }
        self.steps = steps;
        self.window_seconds = window_seconds;
        self.stress_seconds.fill(0.0);
        self.temp_sum = 0.0;
        self.peak = hottest.value();
        self.required_ips_per_step = required_ips_per_step;
        self.required_ips = 0.0;
        self.achieved_ips = 0.0;
        self.loads_valid = false;
    }

    /// Marks the cached per-core load stale (DTM changed the mapping or a
    /// core's throttle level).
    pub(crate) fn invalidate_loads(&mut self) {
        self.loads_valid = false;
    }

    /// One control period's power vector into `power` (per core, at the
    /// current temperatures and the threads' phase at `now`), plus the
    /// period's stress and throughput accounting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_power(
        &mut self,
        now: f64,
        period: f64,
        system: &ChipSystem,
        mapping: &ThreadMapping,
        workload: &WorkloadMix,
        dtm: &DtmController,
        power: &mut Vec<Watts>,
    ) {
        if !self.loads_valid {
            for (i, load) in self.loads.iter_mut().enumerate() {
                let core = CoreId::new(i);
                *load = mapping.thread_on(core).map(|thread| {
                    let profile = workload.thread(thread);
                    let freq = profile.min_frequency().scaled(dtm.throttle_factor(core));
                    ActiveLoad {
                        thread,
                        dynamic: profile.dynamic_power(freq),
                        stress: period * profile.duty().value(),
                        ips: profile.ips(freq),
                    }
                });
            }
            self.loads_valid = true;
        }
        let model = system.power_model();
        let chip = system.chip();
        power.clear();
        power.extend(
            self.loads
                .iter()
                .zip(self.current.as_slice())
                .enumerate()
                .map(|(i, (load, &t))| {
                    let state = match load {
                        Some(load) => PowerState::Active {
                            dynamic: load
                                .dynamic
                                .scaled(workload.thread(load.thread).power_factor(now)),
                        },
                        None => PowerState::Dark,
                    };
                    model.core_power(state, chip.leakage_factor(CoreId::new(i)), t)
                }),
        );
        // Throttled cores run below the required frequency; unplaced
        // threads deliver nothing.
        self.required_ips += self.required_ips_per_step;
        for (stress, load) in self.stress_seconds.iter_mut().zip(&self.loads) {
            if let Some(load) = load {
                *stress += load.stress;
                self.achieved_ips += load.ips;
            }
        }
    }

    /// Folds the post-step core temperatures into the window in one pass:
    /// refreshes the current map, the per-core worst case, the running mean
    /// and the peak.
    pub(crate) fn absorb(&mut self, core_temps: &[f64]) {
        assert_eq!(
            core_temps.len(),
            self.worst.len(),
            "one temperature per core"
        );
        // `f64`'s `Sum` starts from -0.0; so does this fold.
        let mut sum = -0.0;
        let mut hottest = Kelvin::new(0.0);
        for (i, (worst, &raw)) in self.worst.iter_mut().zip(core_temps).enumerate() {
            let t = Kelvin::new(raw);
            self.current.set(CoreId::new(i), t);
            *worst = worst.max(t);
            sum += raw;
            hottest = hottest.max(t);
        }
        self.temp_sum += sum / core_temps.len() as f64;
        self.peak = self.peak.max(hottest.value());
    }

    /// Worst-case temperature of core `i` over the window.
    pub(crate) fn worst(&self, i: usize) -> Kelvin {
        self.worst[i]
    }

    /// Effective NBTI duty cycle of core `i` over the window.
    pub(crate) fn duty(&self, i: usize) -> DutyCycle {
        DutyCycle::clamped(self.stress_seconds[i] / self.window_seconds)
    }

    /// Time-averaged mean core temperature over the window, kelvin.
    pub(crate) fn avg_temp(&self) -> f64 {
        self.temp_sum / self.steps as f64
    }

    /// Hottest core temperature seen over the window, kelvin.
    pub(crate) const fn peak(&self) -> f64 {
        self.peak
    }

    /// Achieved over required throughput across all threads and steps.
    pub(crate) fn throughput_fraction(&self) -> f64 {
        if self.required_ips > 0.0 {
            (self.achieved_ips / self.required_ips).min(1.0)
        } else {
            1.0
        }
    }
}
