//! The load-bearing cross-check of the whole reproduction: the
//! cycle-accurate elastic machine and the abstract TGMG simulator are
//! *independent implementations* of the same semantics, and Lemma 3.1
//! says their steady-state throughputs coincide. These tests enforce that
//! agreement on random graphs, plus machine-level invariants.

use proptest::prelude::*;
use rr_rrg::generate::GeneratorParams;
use rr_tgmg::sim::{simulate as tgmg_sim, SimParams};
use rr_tgmg::skeleton::tgmg_of;

use crate::machine::Capacity;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn machine_agrees_with_tgmg_simulator((p, seed) in small_params()) {
        let g = p.generate(seed);
        let machine = simulate(
            &g,
            &MachineParams { horizon: 10_000, warmup: 2_000, seed, capacity: Capacity::Unbounded, telescopic: Vec::new() },
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
    fn all_nodes_fire_at_the_same_rate((p, seed) in small_params()) {
        let g = p.generate(seed);
        let r = simulate(&g, &MachineParams { horizon: 8_000, warmup: 1_000, seed, capacity: Capacity::Unbounded, telescopic: Vec::new() }).unwrap();
        let max = *r.firings.iter().max().unwrap() as f64;
        let min = *r.firings.iter().min().unwrap() as f64;
        prop_assert!(max - min <= 0.05 * max + 8.0, "firings spread: {:?}", r.firings);
    }

    #[test]
    fn bounded_capacity_only_hurts((p, seed) in small_params()) {
        let g = p.generate(seed);
        let unb = simulate(&g, &MachineParams::fast(seed)).unwrap().throughput;
        let bnd = simulate(
            &g,
            &MachineParams { capacity: Capacity::PerBuffer(2), ..MachineParams::fast(seed) },
        );
        // Bounded runs may deadlock on wire-heavy graphs; when they finish
        // they must not beat the idealised machine.
        if let Ok(b) = bnd {
            prop_assert!(b.throughput <= unb + 0.05, "bounded {} > unbounded {unb}", b.throughput);
        }
    }

    #[test]
    fn generous_bounded_capacity_matches_unbounded((p, seed) in small_params()) {
        // With a huge per-buffer capacity the back-pressure never binds on
        // buffered channels; wire channels still couple firings, so only
        // graphs whose wires were already never-stalled are guaranteed to
        // match. We check the throughput is not *higher* and is within a
        // loose band.
        let g = p.generate(seed);
        let unb = simulate(&g, &MachineParams::fast(seed)).unwrap().throughput;
        if let Ok(b) = simulate(
            &g,
            &MachineParams { capacity: Capacity::PerBuffer(64), ..MachineParams::fast(seed) },
        ) {
            prop_assert!(b.throughput <= unb + 0.05);
        }
    }

    #[test]
    fn throughput_in_unit_interval((p, seed) in small_params()) {
        let g = p.generate(seed);
        let th = simulate(&g, &MachineParams::fast(seed)).unwrap().throughput;
        prop_assert!(th > 0.0 && th <= 1.0 + 1e-9, "Θ = {th}");
    }
}
