//! γ-randomised simulation runs and throughput measurement.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rr_rrg::{EdgeId, NodeId, Rrg};

use crate::machine::{Machine, MachineError};

/// Parameters of a randomised machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Total simulated clock cycles.
    pub horizon: u64,
    /// Cycles discarded before measuring.
    pub warmup: u64,
    /// Guard-draw RNG seed.
    pub seed: u64,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            horizon: 30_000,
            warmup: 3_000,
            seed: 0x5EED_CAFE,
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
/// [`MachineError::EmptyWindow`] unless `warmup < horizon`;
/// [`MachineError::CombinationalCycle`] for invalid configurations;
/// [`MachineError::Deadlock`] when the machine stops making progress (a
/// correct configuration of a live RRG cannot deadlock).
pub fn simulate(g: &Rrg, params: &MachineParams) -> Result<RunResult, MachineError> {
    let (horizon, warmup) = (params.horizon, params.warmup);
    if warmup >= horizon {
        return Err(MachineError::EmptyWindow { horizon, warmup });
    }
    let mut machine = Machine::new(g)?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut draw = move |v: NodeId| -> EdgeId {
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
    for cycle in 0..horizon {
        let outcome = machine.step_with(&mut draw);
        if !outcome.live {
            return Err(MachineError::Deadlock { at_cycle: cycle });
        }
        if warm_counts.is_none() && machine.now() >= warmup {
            warm_counts = Some((machine.now(), machine.fired_total().to_vec()));
        }
    }
    let (warm_at, warm) = warm_counts.expect("warmup < horizon opens the window");
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
    fn empty_window_rejected() {
        let g = figures::figure_1b(0.5);
        for (horizon, warmup) in [(0, 0), (100, 100), (100, 250)] {
            let params = MachineParams {
                horizon,
                warmup,
                ..MachineParams::default()
            };
            assert_eq!(
                simulate(&g, &params).err(),
                Some(MachineError::EmptyWindow { horizon, warmup })
            );
        }
    }

    #[test]
    fn figure_1a_runs_at_one() {
        let r = simulate(&figures::figure_1a(0.5), &MachineParams::default()).unwrap();
        assert!((r.throughput - 1.0).abs() < 0.01, "Θ = {}", r.throughput);
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
