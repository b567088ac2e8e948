//! Cross-validation properties of the throughput machinery:
//!
//! * the LP bound really is an upper bound on the simulated throughput,
//! * for late-evaluation graphs the LP bound equals the exact minimum
//!   cycle ratio and the simulator converges to it,
//! * bubble-free graphs run at Θ = 1,
//! * the throttle keeps the early-evaluation bound at most 1,
//! * the event-driven simulator replays the full-scan reference exactly.

use proptest::prelude::*;
use rr_rrg::generate::GeneratorParams;
use rr_rrg::{Config, NodeKind, Rrg};

use crate::gmg::{Tgmg, TgmgEdge, TgmgNode};
use crate::late;
use crate::lp_bound::throughput_upper_bound;
use crate::sim::{full_scan, simulate, SimParams};
use crate::skeleton::tgmg_of;

fn small_params() -> impl Strategy<Value = (GeneratorParams, u64)> {
    (2usize..10, 0usize..3, 0usize..12, any::<u64>()).prop_map(|(ns, ne, extra, seed)| {
        let n = ns + ne;
        (
            GeneratorParams::paper_defaults(ns, ne, n + ne + extra),
            seed,
        )
    })
}

/// A generated graph under a random retiming in −2..=2 (anti-tokens
/// included) plus 0–2 bubbles per edge. A bare generated graph has no
/// bubble and runs at Θ = 1, which would leave the throughput checks
/// nothing to compare.
fn configured_graph() -> impl Strategy<Value = (Rrg, u64)> {
    (
        small_params(),
        prop::collection::vec(-2i64..=2, 12),
        prop::collection::vec(0i64..=2, 24),
    )
        .prop_map(|((p, seed), r, bubbles)| {
            let g = p.generate(seed);
            let r: Vec<i64> = (0..g.num_nodes()).map(|i| r[i % r.len()]).collect();
            let mut config = Config::from_retiming_with_buffers(&g, &r);
            for (i, b) in config.buffers.iter_mut().enumerate() {
                *b += bubbles[i % bubbles.len()];
            }
            let g = config
                .apply(&g)
                .expect("a retiming plus bubbles is a valid configuration");
            (g, seed)
        })
}

/// [`configured_graph`] as a TGMG.
fn configured_tgmg() -> impl Strategy<Value = (Tgmg, u64)> {
    configured_graph().prop_map(|(g, seed)| (tgmg_of(&g), seed))
}

/// An arbitrary TGMG: any edges, delays 0–2, markings −1…2 and early
/// nodes, so zero-delay cycles, deadlocks and backward zero-delay hops
/// all occur.
fn raw_tgmg() -> impl Strategy<Value = Tgmg> {
    (2usize..9)
        .prop_flat_map(|n| {
            (
                prop::collection::vec((0u64..3, any::<bool>()), n),
                prop::collection::vec(
                    (
                        any::<prop::sample::Index>(),
                        any::<prop::sample::Index>(),
                        -1i64..=2,
                        1u32..4,
                    ),
                    2 * n + 1,
                ),
            )
        })
        .prop_map(|(nodes, edges)| {
            let n = nodes.len();
            let edges: Vec<(usize, usize, i64, u32)> = edges
                .into_iter()
                .map(|(from, to, m, w)| (from.index(n), to.index(n), m, w))
                .collect();
            let weight_in =
                |v: usize| -> u32 { edges.iter().filter(|e| e.1 == v).map(|e| e.3).sum() };
            let early: Vec<bool> = (0..n).map(|v| nodes[v].1 && weight_in(v) > 0).collect();
            Tgmg::new(
                nodes
                    .iter()
                    .zip(&early)
                    .map(|(&(delay, _), &early)| TgmgNode {
                        kind: if early {
                            NodeKind::EarlyEval
                        } else {
                            NodeKind::Simple
                        },
                        delay: delay as f64,
                    })
                    .collect(),
                edges
                    .iter()
                    .map(|&(from, to, marking, w)| TgmgEdge {
                        from,
                        to,
                        marking,
                        gamma: early[to].then(|| f64::from(w) / f64::from(weight_in(to))),
                    })
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_driven_replays_full_scan((t, seed) in configured_tgmg()) {
        let params = SimParams::fast(seed);
        let got = simulate(&t, &params);
        prop_assert!(got.is_ok(), "{got:?}");
        prop_assert_eq!(got, full_scan::simulate(&t, &params));
    }

    #[test]
    fn event_driven_replays_full_scan_on_arbitrary_graphs(t in raw_tgmg(), seed in any::<u64>()) {
        let params = SimParams { horizon: 600, warmup: 100, seed };
        prop_assert_eq!(simulate(&t, &params), full_scan::simulate(&t, &params));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lp_bound_dominates_simulation((g, seed) in configured_graph()) {
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        let sim = simulate(&t, &SimParams::fast(seed)).unwrap().throughput;
        // Allow the short-horizon simulator a little measurement noise.
        prop_assert!(sim <= bound + 0.05, "sim {sim} exceeds bound {bound}");
        prop_assert!(bound <= 1.0 + 1e-6, "bound {bound} above 1");
    }

    #[test]
    fn late_eval_lp_equals_min_cycle_ratio((g, _seed) in configured_graph()) {
        let g = g.with_late_evaluation();
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        let mcr = late::exact_late_throughput(&g);
        prop_assert!((bound - mcr.min(2.0)).abs() < 1e-5,
            "LP {bound} vs MCR {mcr}");
    }

    #[test]
    fn late_eval_simulation_converges_to_mcr((g, seed) in configured_graph()) {
        let g = g.with_late_evaluation();
        let t = tgmg_of(&g);
        let mcr = late::exact_late_throughput(&g);
        let sim = simulate(
            &t,
            &SimParams {
                horizon: 12_000,
                warmup: 2_000,
                seed,
            },
        )
        .unwrap()
        .throughput;
        prop_assert!((sim - mcr).abs() < 0.05, "sim {sim} vs MCR {mcr}");
    }

    #[test]
    fn bubble_free_graphs_run_at_unit_rate((p, seed) in small_params()) {
        let g = p.generate(seed);
        // The generator only places tokens inside EBs (no bubbles), so the
        // initial configuration must run at Θ = 1 regardless of early
        // marking.
        let t = tgmg_of(&g);
        let bound = throughput_upper_bound(&t).unwrap();
        prop_assert!((bound - 1.0).abs() < 1e-6, "bound {bound}");
        let sim = simulate(&t, &SimParams::fast(seed)).unwrap().throughput;
        prop_assert!((sim - 1.0).abs() < 0.05, "sim {sim}");
    }
}
