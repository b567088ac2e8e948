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

use proptest::prelude::*;

use rr_milp::SolverOptions;
use rr_rrg::generate::GeneratorParams;
use rr_rrg::Config;
use rr_tgmg::{lp_bound, TgmgSkeleton};

use crate::bounds::bounds_of;
use crate::formulation::{max_thr, min_cyc, min_x_for_buffers, solve, Mode};
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
            let loose = solve(&g, Mode::Const(tau), Mode::Variable, tau_star, &opts).unwrap();
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
            let loose = solve(&g, Mode::Variable, Mode::Const(x), tau_star, &opts).unwrap();
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
