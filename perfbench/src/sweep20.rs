//! `sweep20`: `evaluate_benchmark` on all 18 Table-2 profiles scaled to
//! 20 edges. One op is one Table-2 row (the whole `MIN_EFF_CYC` sweep of
//! one circuit).

use rr_core::report::evaluate_benchmark;
use rr_core::CoreOptions;
use rr_rrg::cycle_time;
use rr_rrg::iscas::TABLE2;

use crate::bench::{generate, proof_status, ratio, shuffle, Circuit, Pass, Workload};
use crate::stages;
use crate::trace::Trace;

/// Edge cap of the reduced sweep.
const EDGE_CAP: usize = 20;

/// Allowed relative excess of ξ_sim_min over ξ_nee. The simulated Θ of
/// the Θ = 1 min-delay anchor can read a firing or two short of 1 over
/// the measurement window (about 4e-5 per firing at 27k cycles).
const XI_TOL: f64 = 1e-3;

pub struct Sweep20 {
    pub seed: u64,
    pub instance_seed: u64,
    pub opts: CoreOptions,
}

impl Workload for Sweep20 {
    type Inputs = Vec<Circuit>;

    fn options(&self) -> &CoreOptions {
        &self.opts
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("edge_cap", EDGE_CAP.to_string()),
            ("node_budget", self.opts.solver.max_nodes.to_string()),
            ("horizon", self.opts.sim.horizon.to_string()),
        ]
    }

    fn setup(&self, tr: &mut Trace) -> Vec<Circuit> {
        let mut circuits = generate(EDGE_CAP, self.instance_seed, tr);
        shuffle(&mut circuits, self.seed);
        circuits
    }

    fn pass(&self, circuits: &Vec<Circuit>, tr: &mut Trace, between: &mut dyn FnMut()) -> Pass {
        let mut pass = Pass::default();
        let mut status = vec![String::new(); TABLE2.len()];
        let mut improvements = Vec::new();
        for (i, name, g) in circuits {
            between();
            let t0 = std::time::Instant::now();
            let res = if tr.enabled() {
                tr.span("core.sweep", |tr| {
                    stages::benchmark(name, g, &self.opts, tr)
                })
            } else {
                evaluate_benchmark(name, g, &self.opts).map(|(row, t1)| (row, t1.outcome))
            };
            pass.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let (row, outcome) = match res {
                Ok(r) => r,
                Err(e) => {
                    pass.failed += 1;
                    status[*i] = format!("{name}=FAILED({e})");
                    continue;
                }
            };
            if !outcome.incidents.is_empty() {
                pass.failed += 1;
            }
            pass.proven += usize::from(row.proven_optimal);
            status[*i] = proof_status(name, row.proven_optimal);
            improvements.push(row.improvement_pct);
            pass.tie.nodes += outcome.total_nodes;
            pass.tie.pivots += outcome.total_simplex_iters;
            tr.span("bench.check", |_| {
                for ev in &outcome.evaluations {
                    pass.check(ev.config.validate(g).is_ok(), || {
                        format!("{name}: stored configuration fails Config::validate")
                    });
                    let tau = cycle_time::cycle_time_with(g, &ev.config.buffers).ok();
                    pass.check(tau == Some(ev.tau), || {
                        format!("{name}: stored tau {} recomputes as {tau:?}", ev.tau)
                    });
                }
                pass.check(row.xi_sim_min <= row.xi_nee * (1.0 + XI_TOL), || {
                    format!(
                        "{name}: xi_sim_min {} exceeds xi_nee {}",
                        row.xi_sim_min, row.xi_nee
                    )
                });
            });
            for ev in outcome.evaluations {
                pass.tie.values.push(ev.theta_lp.to_bits());
                pass.tie.values.push(ev.theta_sim.to_bits());
                pass.tie.configs.push(ev.config);
            }
        }
        pass.quality = vec![
            (
                "mean_improvement_pct",
                ratio(improvements.iter().sum(), improvements.len() as f64),
                "%",
            ),
            ("milp_nodes", pass.tie.nodes as f64, "count"),
            ("milp_pivots", pass.tie.pivots as f64, "count"),
        ];
        pass.status = status;
        pass
    }
}
