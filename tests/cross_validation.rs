//! Cross-crate validation on random workloads: the four throughput
//! estimators (LP bound, TGMG simulation, elastic machine, Markov chain)
//! must stay consistent, and optimizer outputs must verify against the
//! independent simulators.

use rr_core::{evaluate_config, formulation, CoreOptions};
use rr_elastic::{simulate as machine_sim, MachineParams};
use rr_markov::{exact_throughput_with, MarkovError};
use rr_rrg::generate::GeneratorParams;
use rr_rrg::{Config, Rrg};
use rr_tgmg::late::exact_late_throughput;
use rr_tgmg::lp_bound::throughput_upper_bound;
use rr_tgmg::skeleton::tgmg_of;

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random configuration of `g`: a retiming in −2..=2 (anti-tokens
/// included) plus 0–2 bubbles per edge. The generator's own graphs have
/// no bubble and run at Θ = 1, so a throughput check on them compares
/// nothing.
fn recycled(g: &Rrg, state: &mut u64) -> Config {
    let r: Vec<i64> = (0..g.num_nodes())
        .map(|_| (splitmix64(state) % 5) as i64 - 2)
        .collect();
    let mut config = Config::from_retiming_with_buffers(g, &r);
    for b in &mut config.buffers {
        *b += (splitmix64(state) % 3) as i64;
    }
    config
}

#[test]
fn markov_vs_machine_vs_lp_on_random_small_graphs() {
    let mut state = 0x5e_ed0f_c4a1_u64;
    let mut checked = 0;
    for seed in 0..12 {
        let g = GeneratorParams::paper_defaults(5, 1, 9).generate(seed);
        let g = recycled(&g, &mut state).apply(&g).unwrap();
        let markov = match exact_throughput_with(&g, 50_000) {
            Ok(markov) => markov,
            // State space too large for this draw — fine.
            Err(MarkovError::StateSpaceTooLarge { .. }) => continue,
            Err(e) => panic!("seed {seed}: {e}"),
        };
        let machine = machine_sim(
            &g,
            &MachineParams {
                horizon: 20_000,
                warmup: 4_000,
                ..Default::default()
            },
        )
        .unwrap()
        .throughput;
        assert!(
            (markov.throughput - machine).abs() < 0.02,
            "seed {seed}: markov {} vs machine {machine}",
            markov.throughput
        );
        let lp = throughput_upper_bound(&tgmg_of(&g)).unwrap();
        assert!(
            lp >= markov.throughput - 1e-9,
            "seed {seed}: LP bound {lp} below exact {}",
            markov.throughput
        );
        checked += 1;
    }
    assert!(checked > 0, "every drawn graph was skipped");
}

#[test]
fn optimizer_configs_verify_under_the_elastic_machine() {
    // MAX_THR output, evaluated by the *other* simulator: the measured
    // throughput must not exceed the MILP's claimed 1/x (it is an upper
    // bound) and should be within a sane distance.
    for seed in [1, 4] {
        let g = GeneratorParams::paper_defaults(8, 2, 16).generate(seed);
        let out = formulation::max_thr(&g, g.max_delay() * 1.5, &CoreOptions::fast()).unwrap();
        let applied = out.config.apply(&g).unwrap();
        let measured = machine_sim(&applied, &MachineParams::fast(seed))
            .unwrap()
            .throughput;
        let claimed = 1.0 / out.objective;
        assert!(
            measured <= claimed + 0.05,
            "seed {seed}: measured {measured} above claimed bound {claimed}"
        );
    }
}

#[test]
fn late_eval_evaluation_matches_min_cycle_ratio() {
    let mut state = 0x1a7e_e7a1_u64;
    for seed in 0..4 {
        let g = GeneratorParams::paper_defaults(7, 0, 12)
            .generate(seed)
            .with_late_evaluation();
        let config = recycled(&g, &mut state);
        let ev = evaluate_config(&g, &config, &CoreOptions::fast()).unwrap();
        let mcr = exact_late_throughput(&config.apply(&g).unwrap()).min(1.0);
        assert!(
            (ev.theta_lp - mcr).abs() < 1e-5,
            "seed {seed}: LP {} vs MCR {mcr}",
            ev.theta_lp
        );
    }
}

#[test]
fn config_round_trip_through_all_representations() {
    let g = GeneratorParams::paper_defaults(6, 2, 14).generate(9);
    let cfg = recycled(&g, &mut 9);
    // Config → applied graph → machine; Config → skeleton instantiation →
    // TGMG sim. Same physical system, same throughput.
    let applied = cfg.apply(&g).unwrap();
    let a = machine_sim(&applied, &MachineParams::fast(1))
        .unwrap()
        .throughput;
    let t = rr_tgmg::skeleton::TgmgSkeleton::of(&g).instantiate(&cfg.tokens, &cfg.buffers);
    let b = rr_tgmg::sim::simulate(&t, &rr_tgmg::sim::SimParams::fast(2))
        .unwrap()
        .throughput;
    assert!((a - b).abs() < 0.06, "machine {a} vs tgmg {b}");
}
