//! One-worker identity of the worker loop. With `workers = 1` the single
//! worker runs on the calling thread, so it is the serial search. Every
//! way of asking for one worker replays the same trajectory bit-exact:
//! the default options, an explicit `workers = 1`, and `workers = 0`
//! (normalized to one worker by `SolverOptions::resolve`). The
//! multi-worker checks live in `search_gate.rs`.

mod common;

use common::ring_difference_milp;
use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{solve_with_stats, BranchBoundStats, SolverOptions, Status};

/// Bit-exact stats equality. `node_bounds` holds NaN for failed node
/// LPs, so the derived `PartialEq` (NaN ≠ NaN) cannot express
/// "identical trajectory"; those entries are compared bitwise instead.
fn assert_stats_identical(mut a: BranchBoundStats, mut b: BranchBoundStats) {
    let bits = |s: &mut BranchBoundStats| -> Vec<u64> {
        std::mem::take(&mut s.node_bounds)
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(
        bits(&mut a),
        bits(&mut b),
        "node-bound trajectories diverged"
    );
    assert_eq!(a, b);
}

/// The ring row of the `search_gate` golden table, replayed by the
/// default options, `workers = 1` and `workers = 0`.
#[test]
fn one_worker_matches_the_serial_goldens_bit_exact() {
    let m = ring_difference_milp(12, 6);
    let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    // nodes, pivots, warm solves, cold solves, incumbent trace
    assert_eq!(
        (
            stats.nodes,
            stats.simplex_iters,
            stats.warm_solves,
            stats.cold_solves,
            stats.incumbent_trace.clone()
        ),
        (175, 717, 174, 1, vec![(71, 50.0)]),
        "one-worker trajectory drifted from the golden"
    );
    for workers in [1usize, 0] {
        let opts = SolverOptions {
            workers,
            ..SolverOptions::default()
        };
        let (other, other_stats) = solve_with_stats(&m, &opts).unwrap();
        assert_eq!(
            other.objective.to_bits(),
            sol.objective.to_bits(),
            "workers = {workers}"
        );
        assert_stats_identical(other_stats, stats.clone());
    }
}

/// A truncated run on the 40-edge `MAX_THR` bench instance: `workers =
/// 1`, `workers = 0` and a repeat of the one-worker run stop at the same
/// node with the same incumbent, dual bound and per-node bound trace.
#[test]
fn one_worker_matches_serial_best_bound_truncated_runs() {
    let g = bench_instance(40);
    let run = |workers: usize| {
        let opts = CoreOptions {
            solver: SolverOptions {
                max_nodes: 40,
                workers,
                ..SolverOptions::default()
            },
            ..CoreOptions::default()
        };
        formulation::max_thr(&g, g.max_delay(), &opts).unwrap()
    };
    let one = run(1);
    assert!(
        one.stats.truncated,
        "completed in {} nodes",
        one.stats.nodes
    );
    assert!(!one.proven_optimal);
    // ξ = 3.0 is the proven optimum (the bench40 golden row): a truncated
    // run's incumbent cannot beat it, and its dual bound cannot pass it.
    assert!(one.objective >= 3.0 - 1e-6, "incumbent {}", one.objective);
    assert!(
        one.stats.dual_bound <= 3.0 + 1e-6,
        "dual {}",
        one.stats.dual_bound
    );
    for other in [run(0), run(1)] {
        assert_eq!(one.objective.to_bits(), other.objective.to_bits());
        assert_stats_identical(other.stats, one.stats.clone());
    }
}
