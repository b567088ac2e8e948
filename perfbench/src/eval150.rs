//! `eval150`: `evaluate_config` on 54 recycled configurations, plus the
//! exact Markov throughput where the chain is small. One op is one
//! configuration.
//!
//! For each Table-2 profile at the default 150-edge cap, the inputs start
//! from the min-delay retiming configuration and insert bubbles in the
//! middle of the critical path until the cycle time meets β_max, or ⅓ or
//! ⅔ of the way from β_max to the Leiserson–Saxe period.

use rr_core::{evaluate_config, CoreOptions};
use rr_markov::{exact_throughput, MarkovError, MarkovResult};
use rr_rrg::{cycle_time, Config, Rrg};

use crate::bench::{generate, ratio, shuffle, Pass, Workload};
use crate::stages;
use crate::trace::Trace;

/// Edge cap of the evaluated circuits (the repo's default).
const EDGE_CAP: usize = 150;

/// Circuits with at most this many edges also get the exact Markov
/// throughput; larger chains can take minutes to reach their refusal.
const MARKOV_MAX_EDGES: usize = 24;

/// Cycle-time targets, as fractions of the way from β_max to the
/// Leiserson–Saxe period.
const TARGETS: [f64; 3] = [0.0, 1.0 / 3.0, 2.0 / 3.0];

/// Allowed excess of Θ_sim over the LP upper bound Θ_lp.
const LP_TOL: f64 = 0.01;

/// Allowed |Θ_sim − Θ_exact|.
const EXACT_TOL: f64 = 0.02;

pub struct Eval150 {
    pub seed: u64,
    pub instance_seed: u64,
    pub opts: CoreOptions,
}

/// One op: a circuit's name, its index in `TABLE2`, and a configuration.
pub struct Op {
    pub circuit: usize,
    pub name: &'static str,
    pub config: Config,
}

/// The generated circuits and the seeded op order.
pub struct Inputs {
    pub circuits: Vec<Rrg>,
    pub ops: Vec<Op>,
}

/// Inserts single bubbles mid-critical-path until `τ ≤ target`.
fn recycle(g: &Rrg, mut config: Config, target: f64) -> Config {
    loop {
        let path = cycle_time::critical_path_with(g, &config.buffers)
            .expect("a retiming configuration has no combinational cycle");
        if path.delay <= target + 1e-9 {
            return config;
        }
        // τ > target ≥ β_max, so the path has at least two nodes.
        let mid = (path.nodes.len() - 2) / 2;
        let (u, v) = (path.nodes[mid], path.nodes[mid + 1]);
        let edge = g
            .out_edges(u)
            .iter()
            .copied()
            .find(|&e| g.edge(e).target() == v && config.buffers[e.index()] == 0)
            .expect("consecutive critical-path nodes share a bufferless edge");
        config.add_bubbles(edge, 1);
    }
}

impl Workload for Eval150 {
    type Inputs = Inputs;

    fn options(&self) -> &CoreOptions {
        &self.opts
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("edge_cap", EDGE_CAP.to_string()),
            ("horizon", self.opts.sim.horizon.to_string()),
            ("markov_max_edges", MARKOV_MAX_EDGES.to_string()),
        ]
    }

    fn setup(&self, tr: &mut Trace) -> Inputs {
        let mut circuits = Vec::new();
        let mut ops = Vec::new();
        for (i, name, g) in generate(EDGE_CAP, self.instance_seed, tr) {
            let ls = tr
                .span("retime.min_period", |_| rr_retime::min_period_retiming(&g))
                .expect("generated circuits are retimable");
            let base = ls.config(&g);
            let beta = g.max_delay();
            for frac in TARGETS {
                let target = beta + frac * (ls.period - beta);
                ops.push(Op {
                    circuit: i,
                    name,
                    config: recycle(&g, base.clone(), target),
                });
            }
            circuits.push(g);
        }
        shuffle(&mut ops, self.seed);
        Inputs { circuits, ops }
    }

    fn pass(&self, inputs: &Inputs, tr: &mut Trace, between: &mut dyn FnMut()) -> Pass {
        let mut pass = Pass::default();
        let (mut err_sum, mut exact_gap_max, mut states) = (0.0f64, 0.0f64, 0usize);
        let mut evaluated = 0usize;
        for op in &inputs.ops {
            between();
            let g = &inputs.circuits[op.circuit];
            let small = g.num_edges() <= MARKOV_MAX_EDGES;
            let t0 = std::time::Instant::now();
            let (ev, exact) = if tr.enabled() {
                let ev = stages::evaluate(g, &op.config, &self.opts, tr);
                let exact = small.then(|| {
                    tr.span("markov.exact", |tr| {
                        let m = markov(g, &op.config);
                        if let Ok(m) = &m {
                            tr.count("markov.exact.states", m.states as f64);
                        }
                        m
                    })
                });
                (ev, exact)
            } else {
                let ev = evaluate_config(g, &op.config, &self.opts);
                (ev, small.then(|| markov(g, &op.config)))
            };
            pass.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let exact = match exact.transpose() {
                Ok(x) => x,
                Err(_) => {
                    pass.failed += 1;
                    None
                }
            };
            let ev = match ev {
                Ok(ev) => ev,
                Err(_) => {
                    pass.failed += 1;
                    continue;
                }
            };
            evaluated += 1;
            err_sum += ev.err_pct;
            let name = op.name;
            tr.span("bench.check", |_| {
                pass.check(op.config.validate(g).is_ok(), || {
                    format!("{name}: configuration fails Config::validate")
                });
                let tau = cycle_time::cycle_time_with(g, &op.config.buffers).ok();
                pass.check(tau == Some(ev.tau), || {
                    format!("{name}: tau {} recomputes as {tau:?}", ev.tau)
                });
                pass.check(ev.theta_sim <= ev.theta_lp + LP_TOL, || {
                    format!(
                        "{name}: theta_sim {} above theta_lp {}",
                        ev.theta_sim, ev.theta_lp
                    )
                });
            });
            pass.tie.values.push(ev.theta_lp.to_bits());
            pass.tie.values.push(ev.theta_sim.to_bits());
            if let Some(m) = exact {
                let gap = (ev.theta_sim - m.throughput).abs();
                pass.check(gap <= EXACT_TOL, || {
                    format!(
                        "{name}: theta_sim {} vs exact {} (tolerance {EXACT_TOL})",
                        ev.theta_sim, m.throughput
                    )
                });
                exact_gap_max = exact_gap_max.max(gap);
                states += m.states;
                pass.proven += usize::from(m.exact);
                pass.tie.values.push(m.throughput.to_bits());
            }
            pass.tie.configs.push(op.config.clone());
        }
        pass.quality = vec![
            ("mean_err_pct", ratio(err_sum, evaluated as f64), "%"),
            ("max_exact_gap", exact_gap_max, "1/cycle"),
            ("markov_states", states as f64, "count"),
        ];
        pass
    }
}

/// Exact throughput of `config` applied to `g`.
fn markov(g: &Rrg, config: &Config) -> Result<MarkovResult, MarkovError> {
    let applied = config
        .apply(g)
        .expect("recycled configurations are valid graphs");
    exact_throughput(&applied)
}
