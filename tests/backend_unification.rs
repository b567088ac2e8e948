//! One LP backend for every request, the dense-tableau oracle included.
//! A `Kernel::DenseTableau` MILP request runs the production backend
//! and worker loop in the oracle configuration the kernel request
//! selects (one worker, dense LU, product-form updates, cold node
//! solves), then re-solves the incumbent's integer
//! assignment through the genuine dense tableau. Both golden instances
//! replay through that path bit-exact, reach the optimum of their
//! `search_gate` golden row, and never warm-start. The oracle's node
//! bounds come from cold two-phase solves, not from the warm long-step
//! dual path of the production search, so the shared optima check that
//! path independently.

mod common;

use common::ring_difference_milp;
use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{solve_with_stats, BranchBoundStats, Kernel, SolverOptions, Status};

/// The dense-tableau oracle request under a node cap, no wall clock.
fn oracle(max_nodes: usize) -> SolverOptions {
    SolverOptions {
        max_nodes,
        kernel: Kernel::DenseTableau,
        ..SolverOptions::default()
    }
}

/// Nodes, pivots, cold solves and incumbent trace: what a replay must
/// reproduce.
fn trajectory(s: &BranchBoundStats) -> (usize, usize, usize, Vec<(usize, f64)>) {
    (
        s.nodes,
        s.simplex_iters,
        s.cold_solves,
        s.incumbent_trace.clone(),
    )
}

#[test]
fn ring_milp_golden_replays_bit_exact_through_the_unified_backend() {
    let m = ring_difference_milp(12, 6);
    let (sol, s) = solve_with_stats(&m, &oracle(200_000)).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 50.0).abs() < 1e-9, "obj {}", sol.objective);
    assert!(!s.truncated);
    assert_eq!(
        s.warm_solves, 0,
        "the oracle configuration solves every node cold"
    );
    let (again, t) = solve_with_stats(&m, &oracle(200_000)).unwrap();
    assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
    assert_eq!(trajectory(&t), trajectory(&s), "oracle replay diverged");
}

/// bench20 `MAX_THR` at node cap 100: every node is a cold dense-LU
/// solve, so the cap keeps the run short. The warm-start hint already
/// holds the optimum.
#[test]
fn bench20_max_thr_golden_replays_bit_exact_through_the_unified_backend() {
    let g = bench_instance(20);
    let opts = CoreOptions {
        solver: oracle(100),
        ..CoreOptions::default()
    };
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    let again = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (out.objective - 6.497_501_818_546_008_5).abs() < 1e-8,
        "obj {}",
        out.objective
    );
    assert_eq!(out.proven_optimal, !out.stats.truncated);
    assert_eq!(
        out.stats.warm_solves, 0,
        "the oracle configuration solves every node cold"
    );
    assert_eq!(again.objective.to_bits(), out.objective.to_bits());
    assert_eq!(
        trajectory(&again.stats),
        trajectory(&out.stats),
        "oracle replay diverged"
    );
}
