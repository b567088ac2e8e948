//! The traced stage driver: the calls `evaluate_config`, `min_eff_cyc`
//! and `evaluate_benchmark` make, in the same order and with the same
//! arguments, each wrapped in a span. The traced pass runs these instead
//! of the one-shot entry points; the tie-out in `main.rs` fails the run if
//! they stop reproducing the one-shot results exactly.

use std::collections::HashSet;

use rr_core::report::BenchmarkRow;
use rr_core::{
    max_thr, min_cyc, CoreOptions, MinEffCycOutcome, OptError, OptOutcome, RcEvaluation,
};
use rr_rrg::{cycle_time, Config, Rrg};
use rr_tgmg::{lp_bound, sim, TgmgSkeleton};

use crate::trace::Trace;

/// `evaluate_config`, split into its cycle-time, skeleton, LP-bound and
/// simulation calls.
pub fn evaluate(
    g: &Rrg,
    config: &Config,
    opts: &CoreOptions,
    tr: &mut Trace,
) -> Result<RcEvaluation, OptError> {
    tr.span("core.evaluate", |tr| {
        let tau = tr
            .span("rrg.cycle_time", |_| {
                cycle_time::cycle_time_with(g, &config.buffers)
            })
            .map_err(|e| OptError::Evaluation(e.to_string()))?;
        let tgmg = tr.span("tgmg.skeleton", |_| {
            TgmgSkeleton::of(g).instantiate(&config.tokens, &config.buffers)
        });
        let theta_lp = tr
            .span("tgmg.lp_bound", |_| lp_bound::throughput_upper_bound(&tgmg))
            .map_err(OptError::Solver)?
            .min(1.0);
        let run = tr
            .span("tgmg.sim", |_| sim::simulate(&tgmg, &opts.sim))
            .map_err(|e| OptError::Evaluation(e.to_string()))?;
        tr.count("tgmg.sim.cycles", run.cycles as f64);
        let theta_sim = run.throughput.min(1.0);
        Ok(RcEvaluation {
            config: config.clone(),
            tau,
            theta_lp,
            theta_sim,
            xi_lp: tau / theta_lp,
            xi_sim: tau / theta_sim,
            err_pct: (theta_lp - theta_sim) / theta_sim * 100.0,
            proven_optimal: true,
        })
    })
}

/// One `max_thr` / `min_cyc` call in span `name`, with its solve counters.
pub fn solve(
    tr: &mut Trace,
    name: &'static str,
    f: impl FnOnce() -> Result<OptOutcome, OptError>,
) -> Result<OptOutcome, OptError> {
    let out = tr.span(name, |_| f());
    if let Ok(o) = &out {
        tr.solve(&o.stats, o.proven_optimal);
    }
    out
}

/// `min_eff_cyc`'s classification of absorbed stage failures.
fn incident(stage: &str, e: &OptError) -> Option<String> {
    matches!(
        e,
        OptError::SolverLimit | OptError::Solver(_) | OptError::Evaluation(_)
    )
    .then(|| format!("{stage}: {e}"))
}

/// `min_eff_cyc`, stage by stage.
fn sweep(g: &Rrg, opts: &CoreOptions, tr: &mut Trace) -> Result<MinEffCycOutcome, OptError> {
    let mut evaluations: Vec<RcEvaluation> = Vec::new();
    let mut seen: HashSet<(Vec<i64>, Vec<i64>)> = HashSet::new();
    let mut all_proven = true;
    let mut incidents: Vec<String> = Vec::new();
    let mut push = |evals: &mut Vec<RcEvaluation>, ev: RcEvaluation| {
        let new = seen.insert((ev.config.tokens.clone(), ev.config.buffers.clone()));
        if new {
            evals.push(ev);
        }
        new
    };

    if let Ok(ls) = tr.span("retime.min_period", |_| rr_retime::min_period_retiming(g)) {
        let cfg = ls.config(g);
        if cfg.validate(g).is_ok() {
            match evaluate(g, &cfg, opts, tr) {
                Ok(ev) => {
                    push(&mut evaluations, ev);
                }
                Err(e) => match incident("evaluate(min-delay anchor)", &e) {
                    Some(msg) => incidents.push(msg),
                    None => return Err(e),
                },
            }
        }
    }

    let mut total_nodes = 0usize;
    let mut total_simplex_iters = 0usize;
    let mut outcome = match solve(tr, "core.max_thr", || max_thr(g, g.max_delay(), opts)) {
        Ok(o) => o,
        Err(e) => match incident("max_thr(beta_max)", &e) {
            Some(msg) => {
                incidents.push(msg);
                return Ok(MinEffCycOutcome {
                    evaluations,
                    all_proven_optimal: false,
                    total_nodes,
                    total_simplex_iters,
                    incidents,
                });
            }
            None => return Err(e),
        },
    };
    all_proven &= outcome.proven_optimal;
    total_nodes += outcome.stats.nodes;
    total_simplex_iters += outcome.stats.simplex_iters;
    let mut target = 0.0f64;
    let max_iters = (1.0 / opts.epsilon) as usize + 4;
    for _ in 0..max_iters {
        tr.count("core.sweep.steps", 1.0);
        let mut eval = match evaluate(g, &outcome.config, opts, tr) {
            Ok(ev) => ev,
            Err(e) => match incident("evaluate(RC)", &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        eval.proven_optimal = outcome.proven_optimal;
        let theta_lp = eval.theta_lp;
        if push(&mut evaluations, eval) {
            tr.count("core.sweep.distinct", 1.0);
        }
        if theta_lp >= 1.0 - 1e-9 || target >= 1.0 {
            break;
        }
        target = (target.max(theta_lp) + opts.epsilon).min(1.0);
        let mc = match solve(tr, "core.min_cyc", || min_cyc(g, 1.0 / target, opts)) {
            Ok(o) => o,
            Err(OptError::Infeasible) => break,
            Err(e) => match incident(&format!("min_cyc(1/{target:.4})"), &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        all_proven &= mc.proven_optimal;
        total_nodes += mc.stats.nodes;
        total_simplex_iters += mc.stats.simplex_iters;
        let tau = match tr.span("rrg.cycle_time", |_| {
            cycle_time::cycle_time_with(g, &mc.config.buffers)
        }) {
            Ok(tau) => tau,
            Err(e) => {
                incidents.push(format!("cycle_time(MIN_CYC config): {e}"));
                break;
            }
        };
        outcome = match solve(tr, "core.max_thr", || max_thr(g, tau, opts)) {
            Ok(o) => o,
            Err(e) => match incident(&format!("max_thr({tau:.4})"), &e) {
                Some(msg) => {
                    incidents.push(msg);
                    break;
                }
                None => return Err(e),
            },
        };
        all_proven &= outcome.proven_optimal;
        total_nodes += outcome.stats.nodes;
        total_simplex_iters += outcome.stats.simplex_iters;
    }

    Ok(MinEffCycOutcome {
        evaluations,
        all_proven_optimal: all_proven && incidents.is_empty(),
        total_nodes,
        total_simplex_iters,
        incidents,
    })
}

/// `evaluate_benchmark`, stage by stage: ξ*, the Leiserson–Saxe ξ_nee,
/// the sweep, and the Table-2 row.
pub fn benchmark(
    name: &str,
    g: &Rrg,
    opts: &CoreOptions,
    tr: &mut Trace,
) -> Result<(BenchmarkRow, MinEffCycOutcome), OptError> {
    let xi_star = tr
        .span("rrg.cycle_time", |_| cycle_time::cycle_time(g))
        .map_err(|e| OptError::Evaluation(e.to_string()))?;
    let xi_nee = tr
        .span("retime.min_period", |_| rr_retime::min_period_retiming(g))
        .map_err(|e| OptError::Evaluation(e.to_string()))?
        .period;
    let outcome = sweep(g, opts, tr)?;
    let empty = || OptError::Evaluation("sweep produced no configurations".into());
    let xi_lp_min = outcome.best_lp().ok_or_else(empty)?.xi_sim;
    let xi_sim_min = outcome.best_simulated().ok_or_else(empty)?.xi_sim;
    let avg_err_pct = outcome
        .evaluations
        .iter()
        .map(|e| e.err_pct.abs())
        .sum::<f64>()
        / outcome.evaluations.len() as f64;
    let row = BenchmarkRow {
        name: name.to_string(),
        n1: g.num_simple(),
        n2: g.num_early(),
        edges: g.num_edges(),
        xi_star,
        xi_nee,
        xi_lp_min,
        xi_sim_min,
        improvement_pct: (xi_nee - xi_sim_min) / xi_nee * 100.0,
        lp_picked_optimum: outcome.best_lp_index() == outcome.best_sim_index(),
        avg_err_pct,
        proven_optimal: outcome.all_proven_optimal,
        incidents: outcome.incidents.len(),
    };
    Ok((row, outcome))
}
