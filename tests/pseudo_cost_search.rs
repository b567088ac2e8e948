//! Pseudo-cost search strength on default options. Pseudo-cost
//! branching with reliability probes, plus lazily separated cycle-sum
//! cuts, is the one branching rule; these pins restate the bench20, s27
//! and bench40 rows of the `search_gate` golden table as the
//! search-strength facts they stand for. The comparisons against
//! most-fractional branching that these tests once made went with that
//! rule.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::SolverOptions;
use rr_rrg::iscas::IscasProfile;

/// Default options under a node cap, no wall clock, one worker.
fn opts(max_nodes: usize) -> CoreOptions {
    CoreOptions {
        solver: SolverOptions {
            max_nodes,
            ..SolverOptions::default()
        },
        ..CoreOptions::default()
    }
}

/// bench20 `MAX_THR`: proven in 41 nodes with five cycle-sum cuts
/// activated, reliability probes and pseudo-cost updates at work, and a
/// dual bound that meets the incumbent.
#[test]
fn bench20_pseudo_cost_golden() {
    let g = bench_instance(20);
    let out = formulation::max_thr(&g, g.max_delay(), &opts(4000)).unwrap();
    assert!(out.proven_optimal && !out.stats.truncated);
    assert!(
        (out.objective - 6.497_501_818_546_008_5).abs() < 1e-8,
        "obj {}",
        out.objective
    );
    let s = &out.stats;
    // nodes, pivots, cuts activated
    assert_eq!(
        (s.nodes, s.simplex_iters, s.cuts_activated),
        (41, 813, 5),
        "golden drifted"
    );
    assert!(s.strong_branches > 0, "reliability probes never ran");
    assert!(s.pseudo_updates > 0, "pseudo-costs never learned");
    assert!(
        (s.dual_bound - out.objective).abs() <= 1e-8 * out.objective,
        "dual bound {} vs objective {}",
        s.dual_bound,
        out.objective
    );
}

/// s27 `MAX_THR`: no incumbent ever sits on the ξ = 4.0 plateau on which
/// the deleted most-fractional rule parked. The warm-start hint already
/// holds ξ = 3.0, and the search proves it optimal in 67 nodes.
#[test]
fn s27_pseudo_cost_escapes_the_most_fractional_plateau() {
    let g = IscasProfile::by_name("s27").unwrap().generate(2009);
    let out = formulation::max_thr(&g, g.max_delay(), &opts(2000)).unwrap();
    assert!(out.proven_optimal);
    assert!((out.objective - 3.0).abs() < 1e-6, "obj {}", out.objective);
    let s = &out.stats;
    assert_eq!(s.nodes, 67, "node-count golden drifted");
    assert!(s.cuts_activated > 0, "no cycle-sum cut ever fired");
    assert!(
        s.incumbent_trace.iter().all(|&(_, obj)| obj < 4.0 - 1e-6),
        "an incumbent sat on the plateau: trace {:?}",
        s.incumbent_trace
    );
}

/// bench40 `MAX_THR` under the cap-1000 budget: completes and proves
/// ξ = 3.0 in 144 nodes.
#[test]
fn bench40_pseudo_cost_completes_under_the_cap_1000_budget() {
    let g = bench_instance(40);
    let out = formulation::max_thr(&g, g.max_delay(), &opts(1000)).unwrap();
    assert!(out.proven_optimal && !out.stats.truncated);
    assert!((out.objective - 3.0).abs() < 1e-6, "obj {}", out.objective);
    assert_eq!(out.stats.nodes, 144, "node-count golden drifted");
}
