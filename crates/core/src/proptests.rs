//! Property tests of the MILP formulation on random graphs.
//!
//! The central one: for any fixed configuration, minimising `x` under the
//! *symbolic* throughput constraints (σ̂ absorption + chain reduction)
//! must reproduce the *direct* LP (4) bound computed on the instantiated
//! TGMG — this pins the correctness of both model reductions and of the
//! bilinear-term absorption at once.
//!
//! Another pins the path-row tightening: the model with big-M = τ (or
//! `MIN_CYC`'s ceiling) and forced buffers reaches the same optimum as
//! the loose model with big-M = τ*.
//!
//! A third checks that every `MAX_THR(τ)` row, the cycle-sum cuts
//! included, is valid: any legal configuration with cycle time τ
//! satisfies them all, at its own Θ_lp.

use proptest::prelude::*;

use rr_milp::SolverOptions;
use rr_rrg::config::retime_tokens;
use rr_rrg::generate::GeneratorParams;
use rr_rrg::Config;
use rr_tgmg::{lp_bound, TgmgSkeleton};

use crate::bounds::bounds_of;
use crate::formulation::{build, max_thr, min_cyc, min_x_for_buffers, solve, Problem};
use crate::CoreOptions;

fn tiny_graphs() -> impl Strategy<Value = (GeneratorParams, u64)> {
    (2usize..8, 0usize..3, 0usize..6, any::<u64>()).prop_map(|(ns, ne, extra, seed)| {
        let n = ns + ne;
        (
            GeneratorParams::paper_defaults(ns, ne, n + ne + extra),
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn absorbed_constraints_match_direct_lp_bound((p, seed) in tiny_graphs()) {
        let g = p.generate(seed);
        // Evaluate at the initial configuration *and* at a recycled one.
        let mut cfg = Config::initial(&g);
        for check in 0..2 {
            let x = min_x_for_buffers(&g, &cfg.buffers, &CoreOptions::fast()).unwrap();
            let t = TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);
            let direct = lp_bound::throughput_upper_bound(&t).unwrap();
            prop_assert!(
                (1.0 / x - direct).abs() < 1e-5,
                "check {check}: absorbed {} vs direct {direct}",
                1.0 / x
            );
            // Second round: add a bubble on the first edge.
            cfg.buffers[0] += 1;
        }
    }

    #[test]
    fn min_cyc_at_unit_throughput_equals_leiserson_saxe((p, seed) in tiny_graphs()) {
        let g = p.generate(seed);
        let ls = rr_retime::min_period_retiming(&g).unwrap();
        let out = min_cyc(&g, 1.0, &CoreOptions::fast()).unwrap();
        if out.proven_optimal {
            let tau = rr_rrg::cycle_time::cycle_time_with(&g, &out.config.buffers).unwrap();
            prop_assert!(
                (tau - ls.period).abs() < 1e-9,
                "MIN_CYC(1) = {tau} vs LS {}", ls.period
            );
        }
    }

    #[test]
    fn max_thr_at_initial_tau_reaches_unit_throughput((p, seed) in tiny_graphs()) {
        // The generator's initial configuration is bubble-free, so at its
        // own cycle time a Θ_lp = 1 configuration exists (itself).
        let g = p.generate(seed);
        let tau = rr_rrg::cycle_time::cycle_time(&g).unwrap();
        let out = max_thr(&g, tau, &CoreOptions::fast()).unwrap();
        prop_assert!(out.objective <= 1.0 + 1e-6, "x = {}", out.objective);
        // And the returned configuration meets the timing budget.
        let got = rr_rrg::cycle_time::cycle_time_with(&g, &out.config.buffers).unwrap();
        prop_assert!(got <= tau + 1e-9);
    }

    #[test]
    fn optimizer_configs_always_validate((p, seed) in tiny_graphs()) {
        let g = p.generate(seed);
        let out = max_thr(&g, g.max_delay(), &CoreOptions::fast()).unwrap();
        prop_assert!(out.config.validate(&g).is_ok());
        let out2 = min_cyc(&g, 1.6, &CoreOptions::fast()).unwrap();
        prop_assert!(out2.config.validate(&g).is_ok());
    }

    #[test]
    fn tightened_path_rows_keep_every_optimum((p, seed) in tiny_graphs()) {
        let g = p.generate(seed);
        let tau_star = bounds_of(&g).tau_star;
        // The exact default gap: a 2% gap would let two proven runs
        // stop at different incumbents.
        let mut opts = CoreOptions::fast();
        opts.solver.gap_tol = SolverOptions::default().gap_tol;
        let initial = rr_rrg::cycle_time::cycle_time(&g).unwrap();
        for tau in [g.max_delay(), initial] {
            let tight = max_thr(&g, tau, &opts).unwrap();
            let loose = solve(&g, Problem::MaxThr { tau }, tau_star, &opts).unwrap();
            if tight.proven_optimal && loose.proven_optimal {
                prop_assert!(
                    (tight.objective - loose.objective).abs() < 1e-6,
                    "MAX_THR({tau}): tight {} vs loose {}",
                    tight.objective,
                    loose.objective
                );
            }
        }
        for x in [1.0, 1.6] {
            let tight = min_cyc(&g, x, &opts).unwrap();
            let loose = solve(&g, Problem::MinCyc { x }, tau_star, &opts).unwrap();
            if tight.proven_optimal && loose.proven_optimal {
                prop_assert!(
                    (tight.objective - loose.objective).abs() < 1e-6,
                    "MIN_CYC({x}): tight {} vs loose {}",
                    tight.objective,
                    loose.objective
                );
            }
        }
    }
}

/// Node and edge counts `tiny_graphs()` never exceeds.
const TINY_NODES: usize = 9;
const TINY_EDGES: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A random legal configuration — a retiming with `r(n₀) = 0` and
    /// `|r| ≤ 2`, buffers `max(R0', 0)` plus random bubbles — pinned
    /// into `MAX_THR(τ)` at its own cycle time τ, with `MAX_THR`'s
    /// big-M `min(τ, τ*)`: the relaxation must be feasible and reach
    /// the configuration's own `x = 1/Θ_lp`. A cycle-sum cut whose rhs
    /// exceeded the buffers some legal configuration places on its
    /// cycle would make the pinned model infeasible.
    #[test]
    fn every_legal_configuration_satisfies_every_max_thr_row(
        (p, seed) in tiny_graphs(),
        shift in proptest::collection::vec(-2i64..=2, TINY_NODES),
        bubbles in proptest::collection::vec(0i64..=1, TINY_EDGES),
    ) {
        let g = p.generate(seed);
        let mut r = shift[..g.num_nodes()].to_vec();
        r[0] = 0;
        let tokens = retime_tokens(&g, &r);
        let buffers: Vec<i64> = tokens.iter().zip(&bubbles).map(|(&t, &b)| t.max(0) + b).collect();
        let tau = rr_rrg::cycle_time::cycle_time_with(&g, &buffers).unwrap();
        let t = TgmgSkeleton::of(&g).instantiate(&tokens, &buffers);
        let x = 1.0 / lp_bound::throughput_upper_bound(&t).unwrap();

        let big_m = tau.min(bounds_of(&g).tau_star);
        let mut built = build(&g, Problem::MaxThr { tau }, big_m);
        for (&v, &val) in built.r.iter().zip(&r) {
            built.model.fix_var(v, val as f64);
        }
        for (&v, &val) in built.buf.iter().zip(&buffers) {
            built.model.fix_var(v, val as f64);
        }
        let sol = built.model.solve_relaxation(&SolverOptions::default());
        prop_assert!(sol.is_ok(), "r {r:?} buffers {buffers:?} at tau {tau}: {sol:?}");
        let got = sol.unwrap().value(built.objective);
        prop_assert!((got - x).abs() < 1e-6, "x {got} vs 1/Θ_lp {x}");
    }
}
