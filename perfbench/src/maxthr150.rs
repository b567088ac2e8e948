//! `maxthr150`: one `max_thr(g, β_max)` per Table-2 profile at the
//! default 150-edge cap under a 500-node budget — the first step of every
//! sweep at the default size. One op is one MILP.

use rr_core::{max_thr, CoreOptions};
use rr_rrg::cycle_time;
use rr_rrg::iscas::TABLE2;

use crate::bench::{generate, proof_status, ratio, shuffle, Circuit, Pass, Workload};
use crate::stages;
use crate::trace::Trace;

/// Edge cap of the solved circuits (the repo's default).
const EDGE_CAP: usize = 150;

pub struct MaxThr150 {
    pub seed: u64,
    pub instance_seed: u64,
    pub opts: CoreOptions,
}

impl Workload for MaxThr150 {
    type Inputs = Vec<Circuit>;

    fn options(&self) -> &CoreOptions {
        &self.opts
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("edge_cap", EDGE_CAP.to_string()),
            ("node_budget", self.opts.solver.max_nodes.to_string()),
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
        let mut gaps = Vec::new();
        for (i, name, g) in circuits {
            between();
            let tau = g.max_delay();
            let t0 = std::time::Instant::now();
            let res = if tr.enabled() {
                stages::solve(tr, "core.max_thr", || max_thr(g, tau, &self.opts))
            } else {
                max_thr(g, tau, &self.opts)
            };
            pass.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    pass.failed += 1;
                    status[*i] = format!("{name}=FAILED({e})");
                    continue;
                }
            };
            pass.proven += usize::from(out.proven_optimal);
            status[*i] = proof_status(name, out.proven_optimal);
            // MAX_THR minimises x = 1/Θ_lp, so the incumbent sits above
            // the dual bound.
            let (obj, bound) = (out.objective, out.stats.dual_bound);
            gaps.push(ratio(obj - bound, obj.abs()) * 100.0);
            tr.span("bench.check", |_| {
                pass.check(out.config.validate(g).is_ok(), || {
                    format!("{name}: incumbent fails Config::validate")
                });
                let ct = cycle_time::cycle_time_with(g, &out.config.buffers);
                pass.check(matches!(ct, Ok(t) if t <= tau + 1e-9), || {
                    format!("{name}: incumbent cycle time {ct:?} exceeds tau {tau}")
                });
                pass.check(obj >= bound - 1e-6 * obj.abs().max(1.0), || {
                    format!("{name}: incumbent {obj} below dual bound {bound}")
                });
            });
            pass.tie.nodes += out.stats.nodes;
            pass.tie.pivots += out.stats.simplex_iters;
            pass.tie.values.push(obj.to_bits());
            pass.tie.configs.push(out.config);
        }
        pass.quality = vec![
            (
                "mean_gap_pct",
                ratio(gaps.iter().sum(), gaps.len() as f64),
                "%",
            ),
            ("milp_nodes", pass.tie.nodes as f64, "count"),
            ("milp_pivots", pass.tie.pivots as f64, "count"),
        ];
        pass.status = status;
        pass
    }
}
