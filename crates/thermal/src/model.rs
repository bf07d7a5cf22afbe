//! The chip-invariant thermal model every simulator of a campaign shares.

use crate::config::ThermalConfig;
use crate::integrator::Integrator;
use crate::rc_model::RcNetwork;
use hayat_floorplan::Floorplan;
use hayat_linalg::BandedCholeskyFactor;
use hayat_units::Seconds;

/// Upper bound on the backward-Euler factorizations one stepper caches
/// beside its model's. Real workloads use one or two distinct step sizes
/// (the control period, plus possibly a settle window); the cap only
/// guards against a caller sweeping step sizes.
pub(crate) const MAX_CACHED_FACTORS: usize = 8;

/// One backward-Euler factorization, keyed by the exact bit pattern of the
/// step size it was assembled for.
#[derive(Debug, Clone)]
pub(crate) struct ImplicitFactor {
    /// `f64::to_bits` of the step size `h`.
    h_bits: u64,
    /// Banded Cholesky factor of `(C/h + G)` in layer-interleaved order.
    pub(crate) factor: BandedCholeskyFactor,
    /// `C_i/h` per node, banded order (precomputed rhs coefficients).
    pub(crate) c_over_h: Vec<f64>,
}

impl ImplicitFactor {
    fn assemble(model: &ThermalModel, h: f64) -> Self {
        let system = model.network.implicit_system(h);
        let factor = BandedCholeskyFactor::factorize(&system)
            .expect("backward-Euler system (C/h + G) is positive definite");
        let c_over_h = model
            .node_of_banded
            .iter()
            .map(|&node| model.network.capacity(node) / h)
            .collect();
        ImplicitFactor {
            h_bits: h.to_bits(),
            factor,
            c_over_h,
        }
    }
}

/// Everything about a chip's thermal behaviour that does not depend on the
/// chip: the [`RcNetwork`] with its steady-state factor, the banded node
/// permutation, the ambient right-hand side, the integrator, and — once
/// [`with_control_period`](Self::with_control_period) is applied — the
/// backward-Euler factor at the control period.
///
/// The chips of a campaign share one floorplan and package and differ only
/// in their variation profile, so a campaign builds one model and hands an
/// `Arc` of it to every chip's [`TransientSimulator`](crate::TransientSimulator);
/// a simulator then owns only its node temperatures, elapsed time and
/// scratch.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use hayat_floorplan::Floorplan;
/// use hayat_thermal::{Integrator, ThermalConfig, ThermalModel, TransientSimulator};
/// use hayat_units::{Seconds, Watts};
///
/// let fp = Floorplan::paper_8x8();
/// let model = Arc::new(
///     ThermalModel::new(&fp, &ThermalConfig::paper(), Integrator::BackwardEuler)
///         .with_control_period(Seconds::new(0.0066)),
/// );
/// let mut a = TransientSimulator::from_model(Arc::clone(&model));
/// let mut b = TransientSimulator::from_model(model);
/// a.step(Seconds::new(0.0066), &vec![Watts::new(4.0); 64]);
/// b.step(Seconds::new(0.0066), &vec![Watts::new(4.0); 64]);
/// assert_eq!(a.snapshot(), b.snapshot());
/// ```
#[derive(Debug)]
pub struct ThermalModel {
    network: RcNetwork,
    integrator: Integrator,
    /// RC node index per banded (layer-interleaved) position.
    node_of_banded: Vec<usize>,
    /// `G_amb·T_amb` per node, banded order (h-independent rhs part).
    ambient_rhs: Vec<f64>,
    /// The backward-Euler factor at the control period, if one was set.
    control: Option<ImplicitFactor>,
}

impl ThermalModel {
    /// Builds the RC network for `floorplan` under `config` (factorizing its
    /// steady-state system) for simulators stepping with `integrator`. No
    /// backward-Euler factor is prebuilt; simulators factor each step size
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ThermalConfig::assert_valid`]).
    #[must_use]
    pub fn new(floorplan: &Floorplan, config: &ThermalConfig, integrator: Integrator) -> Self {
        let network = RcNetwork::new(floorplan, config);
        let node_count = network.node_count();
        let mut node_of_banded = vec![0usize; node_count];
        for node in 0..node_count {
            node_of_banded[network.banded_index(node)] = node;
        }
        let ambient_rhs = node_of_banded
            .iter()
            .map(|&node| network.g_ambient(node) * network.ambient().value())
            .collect();
        ThermalModel {
            network,
            integrator,
            node_of_banded,
            ambient_rhs,
            control: None,
        }
    }

    /// Factorizes the backward-Euler system at the control period `dt` once,
    /// here, so no simulator sharing the model factors it again. Leaves a
    /// forward-Euler model (or a non-positive `dt`) unchanged.
    #[must_use]
    pub fn with_control_period(mut self, dt: Seconds) -> Self {
        if self.integrator.is_implicit() && dt.value() > 0.0 {
            self.control = Some(ImplicitFactor::assemble(&self, dt.value()));
        }
        self
    }

    /// The RC network (and its steady-state factor).
    #[must_use]
    pub const fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// The integration scheme simulators over this model step with.
    #[must_use]
    pub const fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// RC node index per banded position.
    pub(crate) fn node_of_banded(&self) -> &[usize] {
        &self.node_of_banded
    }

    /// `G_amb·T_amb` per node, banded order.
    pub(crate) fn ambient_rhs(&self) -> &[f64] {
        &self.ambient_rhs
    }
}

/// A stepper's bounded cache of backward-Euler factorizations for the step
/// sizes its model does not carry.
#[derive(Debug, Clone, Default)]
pub(crate) struct FactorCache {
    factors: Vec<ImplicitFactor>,
}

impl FactorCache {
    /// The factorization for step size `h`: the model's control-period
    /// factor when `h` matches it bit for bit, else this cache's entry,
    /// assembled on first use (FIFO-bounded by [`MAX_CACHED_FACTORS`]).
    pub(crate) fn get<'a>(&'a mut self, model: &'a ThermalModel, h: f64) -> &'a ImplicitFactor {
        let h_bits = h.to_bits();
        if let Some(control) = model.control.as_ref().filter(|f| f.h_bits == h_bits) {
            return control;
        }
        if let Some(i) = self.factors.iter().position(|f| f.h_bits == h_bits) {
            return &self.factors[i];
        }
        if self.factors.len() >= MAX_CACHED_FACTORS {
            self.factors.remove(0);
        }
        self.factors.push(ImplicitFactor::assemble(model, h));
        self.factors.last().expect("just pushed")
    }

    /// Number of cached factorizations (the model's is not counted).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.factors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_control_period_factor_is_served_from_the_model() {
        let fp = Floorplan::paper_8x8();
        let model = ThermalModel::new(&fp, &ThermalConfig::paper(), Integrator::BackwardEuler)
            .with_control_period(Seconds::new(0.0066));
        let mut cache = FactorCache::default();
        let _ = cache.get(&model, 0.0066);
        assert_eq!(cache.len(), 0, "the model already holds this factor");
        let _ = cache.get(&model, 0.05);
        assert_eq!(cache.len(), 1, "other step sizes are cached per stepper");
    }

    #[test]
    fn forward_euler_models_prebuild_no_factor() {
        let fp = Floorplan::grid(2, 2);
        let model = ThermalModel::new(&fp, &ThermalConfig::paper(), Integrator::ForwardEuler)
            .with_control_period(Seconds::new(0.0066));
        assert!(model.control.is_none());
    }
}
