//! Regenerates the paper's motivating example: Figures 1(a), 1(b), 2 and
//! every §1.4 number — via four independent methods (exact Markov chain,
//! TGMG discrete-event simulation, cycle-accurate elastic machine, LP
//! bound), then lets the optimizer rediscover Figure 2 from Figure 1(a)
//! and compares it with the best that retiming alone reaches there.
//!
//! ```text
//! cargo run --release -p rr-bench --bin figures
//! ```

use rr_bench::HarnessArgs;
use rr_core::{algorithm, CoreOptions};
use rr_elastic::{simulate as machine_sim, MachineParams};
use rr_markov::exact_throughput;
use rr_retime::min_period_retiming;
use rr_rrg::{cycle_time, figures};
use rr_tgmg::{lp_bound, sim as tgmg_sim, skeleton::tgmg_of};

fn row(name: &str, g: &rr_rrg::Rrg) {
    let tau = cycle_time::cycle_time(g).expect("figure graphs have finite cycle time");
    let tgmg = tgmg_of(g);
    let markov = exact_throughput(g).expect("figure chains are small");
    let tsim = tgmg_sim::simulate(&tgmg, &tgmg_sim::SimParams::default())
        .expect("figure TGMGs simulate")
        .throughput;
    let msim = machine_sim(g, &MachineParams::default())
        .expect("figure machines simulate")
        .throughput;
    let lp = lp_bound::throughput_upper_bound(&tgmg).expect("LP bound solves");
    println!(
        "{name:<16} τ={tau:>4.1}  Θ_markov={:.4}  Θ_tgmg={:.4}  Θ_machine={:.4}  Θ_lp={:.4}  ξ={:.3}",
        markov.throughput,
        tsim,
        msim,
        lp.min(1.0),
        tau / markov.throughput,
    );
}

fn main() {
    let args = HarnessArgs::parse(std::env::args().skip(1));
    println!("== Motivating example (paper §1.4) ==");
    println!("paper: Θ(fig1b, α=0.5) = 0.491, Θ(fig1b, α=0.9) = 0.719, Θ(fig2) = 1/(3−2α)\n");

    for &alpha in &[0.5, 0.9] {
        println!("-- α = {alpha} --");
        row("figure 1(a)", &figures::figure_1a(alpha));
        row(
            "figure 1(b) late",
            &figures::figure_1b(alpha).with_late_evaluation(),
        );
        row("figure 1(b)", &figures::figure_1b(alpha));
        row("figure 2", &figures::figure_2(alpha));
        println!(
            "closed form    Θ(fig2) = 1/(3−2α) = {:.4}\n",
            figures::figure_2_throughput(alpha)
        );
    }

    println!("== Θ(α) series (Figures 1(b) / 2 as plots) ==");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "α", "fig1b_markov", "fig2_markov", "fig2_closed", "fig1b_late"
    );
    for i in 1..10 {
        let a = i as f64 / 10.0;
        let f1b = exact_throughput(&figures::figure_1b(a)).expect("small chain");
        let f2 = exact_throughput(&figures::figure_2(a)).expect("small chain");
        println!(
            "{a:>5.1} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            f1b.throughput,
            f2.throughput,
            figures::figure_2_throughput(a),
            1.0 / 3.0,
        );
    }
    println!();

    println!("== Optimizer rediscovery (MIN_EFF_CYC on figure 1(a), α = 0.9) ==");
    let opts = CoreOptions {
        solver: args.core_options().solver,
        ..CoreOptions::default()
    };
    let g = figures::figure_1a(0.9);
    let retimed = min_period_retiming(&g).expect("figure 1(a) retimes").period;
    println!("  Leiserson–Saxe retiming alone: τ = {retimed} (paper: 3 is minimal)");
    let out = algorithm::min_eff_cyc(&g, &opts).expect("sweep succeeds on the figure");
    for ev in &out.evaluations {
        println!(
            "  stored RC: τ={:>4.1}  Θ_lp={:.4}  Θ_sim={:.4}  ξ_lp={:.3}  ξ={:.3}",
            ev.tau, ev.theta_lp, ev.theta_sim, ev.xi_lp, ev.xi_sim
        );
    }
    let best = out.best_simulated().expect("nonempty sweep");
    println!(
        "best ξ = {:.3} (figure 2 achieves {:.3}); Δ to paper optimum: {:+.1}%",
        best.xi_sim,
        1.0 / figures::figure_2_throughput(0.9),
        (best.xi_sim - 1.0 / figures::figure_2_throughput(0.9))
            / (1.0 / figures::figure_2_throughput(0.9))
            * 100.0
    );
    let gain = (retimed - best.xi_sim) / retimed * 100.0;
    println!("improvement over best retiming: {gain:.1}% (paper: up to ~50% for such cases)");
}
