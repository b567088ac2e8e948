//! γ-randomised simulation runs and throughput measurement.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rr_rrg::{EdgeId, NodeId, Rrg};

use crate::machine::{Capacity, Machine, MachineError, TelescopicSpec};

/// Parameters of a randomised machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Total simulated clock cycles.
    pub horizon: u64,
    /// Cycles discarded before measuring.
    pub warmup: u64,
    /// Guard-draw RNG seed.
    pub seed: u64,
    /// Channel capacity model.
    pub capacity: Capacity,
    /// Variable-latency units (empty = none).
    pub telescopic: Vec<TelescopicSpec>,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            horizon: 30_000,
            warmup: 3_000,
            seed: 0x5EED_CAFE,
            capacity: Capacity::Unbounded,
            telescopic: Vec::new(),
        }
    }
}

impl MachineParams {
    /// Quick low-accuracy parameters for property tests.
    pub fn fast(seed: u64) -> Self {
        MachineParams {
            horizon: 4_000,
            warmup: 500,
            seed,
            ..Self::default()
        }
    }
}

/// Result of a randomised run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Measured steady-state throughput (firings of node 0 per cycle over
    /// the measurement window — every node of a live system has the same
    /// rate).
    pub throughput: f64,
    /// Total firings per node over the whole horizon.
    pub firings: Vec<u64>,
    /// Highest token occupancy seen per channel.
    pub max_occupancy: Vec<u64>,
    /// Highest anti-token debt seen per channel.
    pub max_anti: Vec<u64>,
}

/// Runs the elastic machine for `params.horizon` cycles with γ-weighted
/// guard draws and measures the throughput.
///
/// # Errors
///
/// [`MachineError::CombinationalCycle`] for invalid configurations;
/// [`MachineError::Deadlock`] when the machine stops making progress (a
/// correct configuration of a live RRG cannot deadlock under unbounded
/// capacity, but bounded capacity can introduce structural deadlocks).
pub fn simulate(g: &Rrg, params: &MachineParams) -> Result<RunResult, MachineError> {
    let mut machine =
        Machine::with_telescopic(g, params.capacity, &params.telescopic, params.seed ^ 0x7E1E)?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut draw = move |g: &Rrg, v: NodeId| -> EdgeId {
        let ins = g.in_edges(v);
        let mut x: f64 = rng.random_range(0.0..1.0);
        for &e in ins {
            let p = g.edge(e).gamma().expect("early input without γ");
            if x < p {
                return e;
            }
            x -= p;
        }
        *ins.last().expect("early node with no inputs")
    };

    let mut warm_counts: Option<(u64, Vec<u64>)> = None;
    let graph = g.clone();
    for cycle in 0..params.horizon {
        let outcome = machine.step_with(|v| draw(&graph, v));
        if !outcome.live {
            return Err(MachineError::Deadlock { at_cycle: cycle });
        }
        if warm_counts.is_none() && machine.now() >= params.warmup {
            warm_counts = Some((machine.now(), machine.fired_total().to_vec()));
        }
    }
    let (warm_at, warm) = warm_counts.unwrap_or_else(|| (0, vec![0; machine.fired_total().len()]));
    let window = (machine.now() - warm_at) as f64;
    let throughput = (machine.fired_total()[0] - warm[0]) as f64 / window;
    Ok(RunResult {
        throughput,
        firings: machine.fired_total().to_vec(),
        max_occupancy: machine.max_occupancy().to_vec(),
        max_anti: machine.max_anti().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn figure_1a_runs_at_one() {
        let r = simulate(&figures::figure_1a(0.5), &MachineParams::default()).unwrap();
        assert!((r.throughput - 1.0).abs() < 0.01, "Θ = {}", r.throughput);
    }

    #[test]
    fn figure_1a_needs_minimal_capacity() {
        // A bubble-free ring at Θ = 1 works with real 2-slot EBs.
        let g = figures::figure_1a(0.5);
        let run = |capacity| {
            let params = MachineParams {
                capacity,
                ..MachineParams::fast(1)
            };
            simulate(&g, &params).unwrap().throughput
        };
        let unbounded = run(Capacity::Unbounded);
        let bounded = run(Capacity::PerBuffer(2));
        assert!((unbounded - 1.0).abs() < 0.05, "unbounded Θ = {unbounded}");
        assert!(
            bounded >= 0.98 * unbounded - 1e-9,
            "2-slot Θ = {bounded}, unbounded Θ = {unbounded}"
        );
    }

    #[test]
    fn figure_1b_matches_paper_markov_values() {
        let r05 = simulate(&figures::figure_1b(0.5), &MachineParams::default()).unwrap();
        assert!(
            (r05.throughput - 0.491).abs() < 0.015,
            "Θ(0.5) = {}",
            r05.throughput
        );
        let r09 = simulate(&figures::figure_1b(0.9), &MachineParams::default()).unwrap();
        assert!(
            (r09.throughput - 0.719).abs() < 0.015,
            "Θ(0.9) = {}",
            r09.throughput
        );
    }

    #[test]
    fn figure_2_matches_closed_form() {
        for &alpha in &[0.3, 0.5, 0.7, 0.9] {
            let r = simulate(&figures::figure_2(alpha), &MachineParams::default()).unwrap();
            let exact = figures::figure_2_throughput(alpha);
            assert!(
                (r.throughput - exact).abs() < 0.02,
                "α={alpha}: Θ = {} vs {exact}",
                r.throughput
            );
        }
    }

    #[test]
    fn bounded_capacity_never_beats_unbounded() {
        for &alpha in &[0.5, 0.9] {
            let g = figures::figure_1b(alpha);
            let unb = simulate(&g, &MachineParams::default()).unwrap();
            let bnd = simulate(
                &g,
                &MachineParams {
                    capacity: Capacity::PerBuffer(2),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                bnd.throughput <= unb.throughput + 0.01,
                "α={alpha}: bounded {} vs unbounded {}",
                bnd.throughput,
                unb.throughput
            );
        }
    }

    #[test]
    fn occupancy_tracking_reports_positive_values() {
        let r = simulate(&figures::figure_1b(0.9), &MachineParams::default()).unwrap();
        assert!(r.max_occupancy.iter().any(|&o| o > 0));
        assert!(
            r.max_anti.iter().any(|&a| a > 0),
            "α=0.9 should issue anti-tokens"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = figures::figure_1b(0.7);
        let a = simulate(&g, &MachineParams::default()).unwrap();
        let b = simulate(&g, &MachineParams::default()).unwrap();
        assert_eq!(a.firings, b.firings);
    }
}
