//! The load-bearing cross-check of the whole reproduction: the
//! cycle-accurate elastic machine and the abstract TGMG simulator are
//! *independent implementations* of the same semantics, and Lemma 3.1
//! says their steady-state throughputs coincide. These tests enforce that
//! agreement on random graphs, plus machine-level invariants.

use proptest::prelude::*;
use rr_rrg::generate::GeneratorParams;
use rr_rrg::{Config, Rrg};
use rr_tgmg::sim::{simulate as tgmg_sim, SimParams};
use rr_tgmg::skeleton::tgmg_of;

use crate::run::{simulate, MachineParams};

fn small_params() -> impl Strategy<Value = (GeneratorParams, u64)> {
    (2usize..9, 0usize..3, 0usize..10, any::<u64>()).prop_map(|(ns, ne, extra, seed)| {
        let n = ns + ne;
        (
            GeneratorParams::paper_defaults(ns, ne, n + ne + extra),
            seed,
        )
    })
}

/// A generated graph under a random retiming in −2..=2 (anti-tokens
/// included) plus 0–2 bubbles per edge. A bare generated graph has no
/// bubble and runs at Θ = 1, which would leave nothing to compare.
fn configured_graphs() -> impl Strategy<Value = (Rrg, u64)> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn machine_agrees_with_tgmg_simulator((g, seed) in configured_graphs()) {
        let machine = simulate(
            &g,
            &MachineParams { horizon: 10_000, warmup: 2_000, seed },
        )
        .unwrap()
        .throughput;
        let tgmg = tgmg_sim(
            &tgmg_of(&g),
            &SimParams { horizon: 10_000, warmup: 2_000, seed: seed ^ 1 },
        )
        .unwrap()
        .throughput;
        prop_assert!(
            (machine - tgmg).abs() < 0.06,
            "machine {machine} vs tgmg {tgmg}"
        );
    }

    #[test]
    fn all_nodes_fire_at_the_same_rate((g, seed) in configured_graphs()) {
        let r = simulate(&g, &MachineParams { horizon: 8_000, warmup: 1_000, seed }).unwrap();
        let max = *r.firings.iter().max().unwrap() as f64;
        let min = *r.firings.iter().min().unwrap() as f64;
        prop_assert!(max - min <= 0.05 * max + 8.0, "firings spread: {:?}", r.firings);
    }

    #[test]
    fn throughput_in_unit_interval((g, seed) in configured_graphs()) {
        let th = simulate(&g, &MachineParams::fast(seed)).unwrap().throughput;
        prop_assert!(th > 0.0 && th <= 1.0 + 1e-9, "Θ = {th}");
    }
}
