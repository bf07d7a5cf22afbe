//! The equivalent RC network built from a floorplan.

use crate::config::ThermalConfig;
use hayat_floorplan::Floorplan;
use hayat_linalg::{BandedCholeskyFactor, BandedSpdMatrix};
use hayat_units::{Kelvin, Watts};

/// One edge of the conductance graph.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    /// Index of the neighbouring node.
    other: usize,
    /// Thermal conductance of the edge, W/K.
    g: f64,
}

/// The RC thermal network of one chip.
///
/// Node layout for an `N`-core chip (three laterally resolved layers, as in
/// HotSpot's block model):
///
/// * nodes `0..N` — silicon (one per core; power is injected here),
/// * nodes `N..2N` — heat-spreader cells (one per core),
/// * nodes `2N..3N` — heat-sink cells (one per core), each coupled to
///   ambient through its share of the chip-level sink resistance.
///
/// Resolving the sink laterally matters: a dense block of active cores
/// heats *its* half of the sink, which is exactly why contiguous Dark Core
/// Maps run hotter than spread ones (Section II).
///
/// The steady-state conductance system `G·T = P + G_amb·T_amb` is factorized
/// once at construction (banded Cholesky in the layer-interleaved ordering
/// the implicit stepper also uses; `G` is symmetric positive definite
/// because every node drains to ambient through the sink), so each
/// steady-state query is just two triangular solves. The transient
/// integrator reuses the same edge list for explicit time stepping.
///
/// # Example
///
/// ```
/// use hayat_floorplan::Floorplan;
/// use hayat_thermal::{RcNetwork, ThermalConfig};
///
/// let fp = Floorplan::paper_8x8();
/// let net = RcNetwork::new(&fp, &ThermalConfig::paper());
/// assert_eq!(net.node_count(), 3 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct RcNetwork {
    cores: usize,
    /// Adjacency list per node.
    edges: Vec<Vec<Edge>>,
    /// Conductance to ambient per node (non-zero only for the sink).
    g_ambient: Vec<f64>,
    /// Heat capacity per node, J/K.
    capacitance: Vec<f64>,
    ambient: Kelvin,
    /// Cached banded factorization of the conductance matrix, in the
    /// layer-interleaved node ordering; right-hand sides are permuted in
    /// and out per solve.
    factor: BandedCholeskyFactor,
}

impl RcNetwork {
    /// Builds the network for `floorplan` under `config` and factorizes the
    /// steady-state conductance system.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ThermalConfig::assert_valid`].
    #[must_use]
    pub fn new(floorplan: &Floorplan, config: &ThermalConfig) -> Self {
        config.assert_valid();
        let n = floorplan.core_count();
        let node_count = 3 * n;
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); node_count];
        let mut connect = |a: usize, b: usize, r: f64| {
            let g = 1.0 / r;
            edges[a].push(Edge { other: b, g });
            edges[b].push(Edge { other: a, g });
        };
        for core in floorplan.cores() {
            let i = core.index();
            // Vertical: silicon -> spreader -> sink cell.
            connect(i, n + i, config.r_si_spreader);
            connect(n + i, 2 * n + i, config.r_spreader_sink);
            // Lateral: connect to neighbours with a larger id only, so each
            // physical edge is added exactly once.
            for nb in floorplan.neighbors(core) {
                if nb.index() > i {
                    connect(i, nb.index(), config.r_si_lateral);
                    connect(n + i, n + nb.index(), config.r_spreader_lateral);
                    connect(2 * n + i, 2 * n + nb.index(), config.r_sink_lateral);
                }
            }
        }
        let mut g_ambient = vec![0.0; node_count];
        // The chip-level sink resistance is shared by all sink cells in
        // parallel: per-cell resistance = N * total.
        for cell in 0..n {
            g_ambient[2 * n + cell] = 1.0 / (config.r_sink_ambient * n as f64);
        }
        let mut capacitance = vec![config.c_silicon; n];
        capacitance.extend(std::iter::repeat_n(config.c_spreader, n));
        capacitance.extend(std::iter::repeat_n(config.c_sink / n as f64, n));

        // Factorize the conductance (weighted-Laplacian + ambient tie)
        // matrix: the implicit stepper's system without its `C/h` term.
        let factor = BandedCholeskyFactor::factorize(&banded_system(&edges, &g_ambient, |_| 0.0))
            .expect("conductance matrix is positive definite");

        RcNetwork {
            cores: n,
            edges,
            g_ambient,
            capacitance,
            ambient: config.ambient,
            factor,
        }
    }

    /// Number of cores the network models.
    #[must_use]
    pub const fn core_count(&self) -> usize {
        self.cores
    }

    /// Total number of RC nodes (`3·cores`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.edges.len()
    }

    /// The ambient temperature the sink is coupled to.
    #[must_use]
    pub const fn ambient(&self) -> Kelvin {
        self.ambient
    }

    /// Expands a per-core power vector into a per-node injection vector
    /// (power enters at the silicon nodes).
    ///
    /// # Panics
    ///
    /// Panics if `core_power.len() != core_count()`.
    #[must_use]
    pub fn injection(&self, core_power: &[Watts]) -> Vec<f64> {
        assert_eq!(
            core_power.len(),
            self.cores,
            "power vector must cover every core"
        );
        let mut p = vec![0.0; self.node_count()];
        for (i, w) in core_power.iter().enumerate() {
            p[i] = w.value();
        }
        p
    }

    /// Exact steady-state node temperatures for a per-node injection vector:
    /// solves `G·T = P + G_amb·T_amb` through the cached factorization.
    pub fn solve_steady(&self, injection: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.solve_steady_into(injection, &mut out);
        out
    }

    /// [`solve_steady`](Self::solve_steady) into a caller-owned buffer,
    /// which is cleared and refilled. Results are bit-identical to
    /// [`solve_steady`](Self::solve_steady).
    ///
    /// # Panics
    ///
    /// Panics if `injection.len() != node_count()`.
    pub fn solve_steady_into(&self, injection: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            injection.len(),
            self.node_count(),
            "injection must cover every RC node"
        );
        // Permute into banded order, solve, permute back.
        let nn = self.node_count();
        let mut x = vec![0.0; nn];
        for (node, &p) in injection.iter().enumerate() {
            x[self.banded_index(node)] = p + self.g_ambient[node] * self.ambient.value();
        }
        self.factor.solve_in_place(&mut x);
        out.clear();
        out.extend((0..nn).map(|node| x[self.banded_index(node)]));
    }

    /// Steady-state solve for [`SOLVE_MANY_LANES`] independent injection
    /// vectors in one pass over the factor: `injections` holds the
    /// per-node vectors concatenated (`injections[lane * node_count() +
    /// node]`), and `out` comes back in the same layout. Each lane's
    /// solution is bit-identical to a scalar
    /// [`solve_steady_into`](Self::solve_steady_into) call on that lane.
    ///
    /// # Panics
    ///
    /// Panics if `injections.len() != node_count() * SOLVE_MANY_LANES`.
    ///
    /// [`SOLVE_MANY_LANES`]: BandedCholeskyFactor::SOLVE_MANY_LANES
    pub(crate) fn solve_steady_many_into(&self, injections: &[f64], out: &mut Vec<f64>) {
        const LANES: usize = BandedCholeskyFactor::SOLVE_MANY_LANES;
        let nn = self.node_count();
        assert_eq!(
            injections.len(),
            nn * LANES,
            "injections must cover every RC node of every lane"
        );
        // Interleaved structure-of-arrays right-hand sides in banded node
        // order: x[banded_index(node) * LANES + lane].
        let mut x = vec![0.0; nn * LANES];
        for (lane, inj) in injections.chunks_exact(nn).enumerate() {
            for node in 0..nn {
                x[self.banded_index(node) * LANES + lane] =
                    inj[node] + self.g_ambient[node] * self.ambient.value();
            }
        }
        self.factor.solve_many_in_place(&mut x);
        out.clear();
        out.resize(nn * LANES, 0.0);
        for lane in 0..LANES {
            for node in 0..nn {
                out[lane * nn + node] = x[self.banded_index(node) * LANES + lane];
            }
        }
    }

    /// Conductance to ambient of node `i`, W/K (non-zero only for sink
    /// cells).
    pub(crate) fn g_ambient(&self, i: usize) -> f64 {
        self.g_ambient[i]
    }

    /// Banded (layer-interleaved) index of RC node `i`: node `layer·N +
    /// core` maps to `3·core + layer`, which keeps every coupling of the
    /// three stacked core meshes within `3·mesh-neighbour-stride` of the
    /// diagonal — the ordering that makes the backward-Euler system banded.
    pub(crate) fn banded_index(&self, node: usize) -> usize {
        banded_index(self.cores, node)
    }

    /// Assembles the backward-Euler system `(C/h + G)` of one implicit
    /// step of size `h`, in banded layer-interleaved ordering.
    ///
    /// # Panics
    ///
    /// Panics unless `h` is positive and finite.
    pub(crate) fn implicit_system(&self, h: f64) -> BandedSpdMatrix {
        assert!(h.is_finite() && h > 0.0, "step size must be positive");
        banded_system(&self.edges, &self.g_ambient, |i| self.capacitance[i] / h)
    }

    /// Net heat flow into node `i` at the given node temperatures, W.
    pub(crate) fn net_flow(&self, i: usize, temps: &[f64], injection: &[f64]) -> f64 {
        let mut flow = injection[i] + self.g_ambient[i] * (self.ambient.value() - temps[i]);
        for e in &self.edges[i] {
            flow += e.g * (temps[e.other] - temps[i]);
        }
        flow
    }

    /// Heat capacity of node `i`, J/K.
    pub(crate) fn capacity(&self, i: usize) -> f64 {
        self.capacitance[i]
    }

    /// The largest explicit-Euler step that keeps integration stable:
    /// `0.5 · min_i (C_i / ΣG_i)`.
    #[must_use]
    pub fn stable_step(&self) -> f64 {
        let mut min_tau = f64::MAX;
        for i in 0..self.node_count() {
            let g_total: f64 = self.edges[i].iter().map(|e| e.g).sum::<f64>() + self.g_ambient[i];
            if g_total > 0.0 {
                min_tau = min_tau.min(self.capacitance[i] / g_total);
            }
        }
        0.5 * min_tau
    }
}

/// [`RcNetwork::banded_index`] for a network of `cores` cores.
fn banded_index(cores: usize, node: usize) -> usize {
    (node % cores) * 3 + node / cores
}

/// Assembles `G + diag(extra_diag)` in banded layer-interleaved ordering:
/// the conductance matrix of the graph `edges` with its ambient ties
/// `g_ambient`, plus `extra_diag(node)` on each node's diagonal (`0` for
/// the steady state, `C/h` for one implicit step of size `h`).
fn banded_system(
    edges: &[Vec<Edge>],
    g_ambient: &[f64],
    extra_diag: impl Fn(usize) -> f64,
) -> BandedSpdMatrix {
    let cores = edges.len() / 3;
    let hb = edges
        .iter()
        .enumerate()
        .flat_map(|(i, es)| {
            es.iter()
                .map(move |e| banded_index(cores, i).abs_diff(banded_index(cores, e.other)))
        })
        .max()
        .unwrap_or(0);
    let mut m = BandedSpdMatrix::zeros(edges.len(), hb);
    for (i, node_edges) in edges.iter().enumerate() {
        let bi = banded_index(cores, i);
        let mut diag = g_ambient[i] + extra_diag(i);
        for e in node_edges {
            diag += e.g;
            let bj = banded_index(cores, e.other);
            if bj < bi {
                m.set(bi, bj, -e.g);
            }
        }
        m.set(bi, bi, diag);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat_floorplan::FloorplanBuilder;

    fn net() -> RcNetwork {
        RcNetwork::new(&Floorplan::paper_8x8(), &ThermalConfig::paper())
    }

    #[test]
    fn node_layout() {
        let n = net();
        assert_eq!(n.core_count(), 64);
        assert_eq!(n.node_count(), 192);
    }

    #[test]
    fn edge_conductances_are_symmetric() {
        let n = net();
        for i in 0..n.node_count() {
            for e in &n.edges[i] {
                let back = n.edges[e.other]
                    .iter()
                    .find(|b| b.other == i)
                    .expect("reverse edge exists");
                assert!((back.g - e.g).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn only_sink_cells_touch_ambient() {
        let n = net();
        for i in 0..128 {
            assert_eq!(n.g_ambient[i], 0.0, "node {i}");
        }
        // Per-cell ambient conductances sum to the chip-level value.
        let total: f64 = n.g_ambient[128..].iter().sum();
        assert!((total - 1.0 / ThermalConfig::paper().r_sink_ambient).abs() < 1e-9);
    }

    #[test]
    fn corner_core_has_fewer_lateral_edges() {
        let fp = Floorplan::paper_8x8();
        let n = RcNetwork::new(&fp, &ThermalConfig::paper());
        // Corner silicon node: 1 vertical + 2 lateral = 3 edges.
        assert_eq!(n.edges[0].len(), 3);
        // Interior silicon node (row 1, col 1 = core 9): 1 vertical + 4 lateral.
        assert_eq!(n.edges[9].len(), 5);
    }

    #[test]
    fn injection_places_power_on_silicon_nodes() {
        let n = net();
        let mut power = vec![Watts::new(0.0); 64];
        power[5] = Watts::new(7.5);
        let p = n.injection(&power);
        assert_eq!(p[5], 7.5);
        assert!(p[64..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stable_step_is_positive_and_small() {
        let dt = net().stable_step();
        assert!(dt > 0.0 && dt < 0.1, "dt = {dt}");
    }

    #[test]
    fn zero_power_equilibrium_is_ambient() {
        let n = net();
        let injection = vec![0.0; n.node_count()];
        let temps = n.solve_steady(&injection);
        for &t in &temps {
            assert!((t - n.ambient().value()).abs() < 1e-8, "t = {t}");
        }
    }

    #[test]
    fn net_flow_is_zero_at_equilibrium() {
        let fp = FloorplanBuilder::new(2, 2).build().unwrap();
        let n = RcNetwork::new(&fp, &ThermalConfig::paper());
        let power = vec![Watts::new(2.0); 4];
        let injection = n.injection(&power);
        let temps = n.solve_steady(&injection);
        for i in 0..n.node_count() {
            assert!(
                n.net_flow(i, &temps, &injection).abs() < 1e-8,
                "node {i} flow {}",
                n.net_flow(i, &temps, &injection)
            );
        }
    }

    #[test]
    #[should_panic(expected = "every core")]
    fn injection_checks_length() {
        let _ = net().injection(&[Watts::new(1.0)]);
    }

    #[test]
    fn solve_steady_into_is_bit_identical_and_reusable() {
        let n = net();
        let mut power = vec![Watts::new(0.019); 64];
        power[9] = Watts::new(7.0);
        let injection = n.injection(&power);
        let reference = n.solve_steady(&injection);
        let mut buf = vec![999.0; 7]; // wrong size and stale contents
        n.solve_steady_into(&injection, &mut buf);
        assert_eq!(buf, reference);
        // Reuse with a different load must fully overwrite the buffer.
        let idle = n.injection(&vec![Watts::new(0.0); 64]);
        n.solve_steady_into(&idle, &mut buf);
        assert_eq!(buf, n.solve_steady(&idle));
    }

    #[test]
    fn large_meshes_get_a_banded_steady_factor_that_satisfies_the_physics() {
        // 18×18 = 324 cores: the banded steady factor must construct and
        // its solution must carry zero net flow at every node — the
        // defining property of the steady state.
        let fp = Floorplan::grid(18, 18);
        let n = RcNetwork::new(&fp, &ThermalConfig::paper());
        let mut power = vec![Watts::new(0.019); 324];
        power[40] = Watts::new(7.0);
        power[200] = Watts::new(5.5);
        let injection = n.injection(&power);
        let temps = n.solve_steady(&injection);
        for i in 0..n.node_count() {
            assert!(
                n.net_flow(i, &temps, &injection).abs() < 1e-7,
                "node {i} flow {}",
                n.net_flow(i, &temps, &injection)
            );
        }
    }

    #[test]
    fn solve_steady_many_matches_scalar_lanes_bitwise() {
        // Each lane of the batched solve must reproduce the scalar solve
        // exactly.
        for fp in [Floorplan::paper_8x8(), Floorplan::grid(17, 16)] {
            let n = RcNetwork::new(&fp, &ThermalConfig::paper());
            let cores = n.core_count();
            let lanes = BandedCholeskyFactor::SOLVE_MANY_LANES;
            let mut injections = Vec::new();
            for lane in 0..lanes {
                let mut power = vec![Watts::new(0.019); cores];
                power[lane + 1] = Watts::new(4.0 + lane as f64);
                injections.extend(n.injection(&power));
            }
            let mut many = Vec::new();
            n.solve_steady_many_into(&injections, &mut many);
            let mut scalar = Vec::new();
            for lane in 0..lanes {
                let nn = n.node_count();
                n.solve_steady_into(&injections[lane * nn..(lane + 1) * nn], &mut scalar);
                assert_eq!(
                    &many[lane * nn..(lane + 1) * nn],
                    &scalar[..],
                    "lane {lane} drifted on {cores} cores"
                );
            }
        }
    }

    #[test]
    fn banded_index_is_a_permutation() {
        let n = net();
        let mut seen = vec![false; n.node_count()];
        for i in 0..n.node_count() {
            let b = n.banded_index(i);
            assert!(!seen[b], "banded index {b} hit twice");
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn implicit_system_bandwidth_is_three_times_the_mesh_stride() {
        // 8×8 mesh: column neighbours are 8 cores apart, so the interleaved
        // ordering puts every coupling within 3·8 = 24 of the diagonal.
        let m = net().implicit_system(0.0066);
        assert_eq!(m.n(), 192);
        assert_eq!(m.half_bandwidth(), 24);
    }

    #[test]
    fn implicit_system_diagonal_exceeds_conductance_by_c_over_h() {
        let n = net();
        let h = 0.01;
        let m = n.implicit_system(h);
        // Silicon node 0 (banded index 0): diag = ΣG + g_amb + C/h.
        let g_total: f64 = n.edges[0].iter().map(|e| e.g).sum();
        let expect = g_total + n.g_ambient(0) + n.capacity(0) / h;
        assert!((m.get(0, 0) - expect).abs() < 1e-12);
        // Off-diagonal: silicon 0 ↔ spreader 64 are banded 0 and 1.
        let g_vert = 1.0 / ThermalConfig::paper().r_si_spreader;
        assert!((m.get(1, 0) + g_vert).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn implicit_system_rejects_zero_step() {
        let _ = net().implicit_system(0.0);
    }
}
