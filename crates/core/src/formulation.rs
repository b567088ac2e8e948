//! The `MIN_CYC(x)` / `MAX_THR(τ)` MILP formulations (§4).
//!
//! Both share one constraint body over the variables
//!
//! * `r(n)` — integer retiming vector (Definition 2.6), `r(n₀) = 0` fixed
//!   to break the uniform-shift symmetry,
//! * `R'(e)` — integer buffer counts with `R'(e) ≥ R0(e) + r(v) − r(u)`
//!   (Definition 2.7; bubbles are the slack of this inequality),
//! * continuous timing variables implementing Lemma 2.1 (path
//!   constraints), condensed to one arrival variable per node; the
//!   big-M of a path row is a bound on any departure time (τ for
//!   `MAX_THR(τ)`, a feasible τ ceiling for `MIN_CYC`), and an edge
//!   `u→v` with `β(u) + β(v)` above that bound must hold a buffer,
//! * continuous free potentials σ̂ implementing Lemma 3.2 (throughput
//!   constraints) via LP (4) over the shared TGMG skeleton, with the
//!   bilinear `x·r` products absorbed into σ̂ — the token coefficients
//!   that remain multiply the **original** `R0`, which is what makes the
//!   constraints linear for fixed `x` *or* fixed `τ`.
//!
//! `MIN_CYC` fixes `x` and minimises the cycle time `τ`; `MAX_THR` fixes
//! `τ` and minimises `x = 1/Θ_lp`.

use std::error::Error;
use std::fmt;

use rr_milp::{
    cmp, solve_with_stats_hinted, BranchBoundStats, LinExpr, Model, Sense, Solution, SolveError,
    Status, VarId,
};
use rr_rrg::{config::retime_tokens, Config, NodeKind, Rrg};
use rr_tgmg::{DelaySrc, MarkingSrc, TgmgSkeleton};

use crate::bounds::bounds_of;
use crate::CoreOptions;

/// Optimization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The MILP is infeasible (e.g. `MIN_CYC(1/Θ)` past the achievable
    /// throughput).
    Infeasible,
    /// Solver resource limits were hit before any feasible point.
    SolverLimit,
    /// Other solver failure.
    Solver(SolveError),
    /// The extracted configuration failed validation (indicates a
    /// formulation bug; surfaced rather than silently repaired).
    BadConfig(String),
    /// Evaluation of a configuration failed.
    Evaluation(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Infeasible => f.write_str("formulation is infeasible"),
            OptError::SolverLimit => f.write_str("solver limits reached without an incumbent"),
            OptError::Solver(e) => write!(f, "solver failure: {e}"),
            OptError::BadConfig(m) => write!(f, "extracted configuration invalid: {m}"),
            OptError::Evaluation(m) => write!(f, "evaluation failed: {m}"),
        }
    }
}

impl Error for OptError {}

impl From<SolveError> for OptError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Infeasible => OptError::Infeasible,
            SolveError::IterationLimit => OptError::SolverLimit,
            other => OptError::Solver(other),
        }
    }
}

/// Result of one MILP solve.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// The extracted retiming/recycling configuration.
    pub config: Config,
    /// Objective value (τ for `MIN_CYC`, x for `MAX_THR`).
    pub objective: f64,
    /// `true` when the solver proved optimality (vs returning the best
    /// incumbent at a limit, mirroring the paper's CPLEX timeouts).
    pub proven_optimal: bool,
    /// Branch & bound search statistics (nodes, simplex pivots,
    /// warm/cold solve split) — the perf telemetry the table binaries
    /// print and the benchmark reports.
    pub stats: BranchBoundStats,
}

impl OptOutcome {
    /// `true` when a node or time limit cut the search short, so the
    /// configuration is a `Status::Feasible` incumbent rather than a
    /// proven optimum — the explicit complement of
    /// [`OptOutcome::proven_optimal`] for report paths.
    pub fn truncated(&self) -> bool {
        !self.proven_optimal
    }
}

/// Whether a model parameter is an optimization variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Mode {
    /// The parameter is fixed to this value.
    Const(f64),
    /// The parameter is a decision variable (and the objective).
    Variable,
}

/// A built model with its variable handles.
pub(crate) struct Built {
    pub(crate) model: Model,
    pub(crate) r: Vec<VarId>,
    pub(crate) buf: Vec<VarId>,
    /// τ handle when variable.
    pub(crate) tau: Option<VarId>,
    /// x handle when variable.
    pub(crate) x: Option<VarId>,
}

/// Builds the shared constraint body. Exactly one of `tau`/`x` should be
/// [`Mode::Variable`]; that variable becomes the minimization objective.
///
/// `big_m` bounds every departure time `arr(u) + β(u)` of an admissible
/// configuration, and is the M of the path rows
/// `arr(v) ≥ arr(u) + β(u) − M·R'(e)`: the departure rows force
/// `arr(u) + β(u) ≤ τ` and `arr(v) ≥ 0`, so a buffered edge's row is
/// slack once `M ≥ τ`, and `M = τ*` (the total delay) suffices for any τ
/// because no combinational path is longer. A variable τ takes `big_m`
/// as its upper bound, so for `MIN_CYC` it must be the cycle time of a
/// configuration the model admits. The smaller M is, the less a
/// fractional buffer cuts a path in the LP relaxation.
///
/// With free buffers, `R'(e) ≥ 1` on every edge `u→v` with
/// `β(u) + β(v) > big_m`: `R'(e) = 0` puts both nodes on one
/// combinational path, which departs `v` no earlier than `β(u) + β(v)`.
///
/// `fix_buffers` freezes `R'` to a given assignment (used for the
/// fixed-configuration cross-check against the direct LP bound; the
/// retiming link is dropped since tokens influence nothing else).
///
/// Retiming cycle-sum cuts are added when τ is a constant and buffers
/// are free: any configuration with cycle time ≤ τ places at least
/// `⌈D(C)/τ⌉` buffers on every cycle `C` (delay sum `D(C)`), while the
/// LP relaxation only implies the token sum of the retiming link rows.
/// Each cut is an ordinary `Σ_{e∈C} R'(e) ≥ ⌈D(C)/τ⌉` row over a
/// fundamental cycle, added only where the ceiling exceeds the token
/// sum.
pub(crate) fn build(
    g: &Rrg,
    tau_mode: Mode,
    x_mode: Mode,
    big_m: f64,
    fix_buffers: Option<&[i64]>,
) -> Built {
    let bounds = bounds_of(g);
    let skeleton = TgmgSkeleton::of(g);
    let mut m = Model::new(Sense::Minimize);

    let (tau_var, tau_param): (Option<VarId>, LinExpr) = match tau_mode {
        Mode::Const(c) => (None, LinExpr::constant(c)),
        Mode::Variable => {
            let v = m.add_continuous("tau", g.max_delay(), big_m);
            (Some(v), LinExpr::var(v))
        }
    };
    let (x_var, x_scaled): (Option<VarId>, Box<dyn Fn(f64) -> LinExpr>) = match x_mode {
        Mode::Const(c) => (None, Box::new(move |k: f64| LinExpr::constant(k * c))),
        Mode::Variable => {
            let v = m.add_continuous("x", 1.0, bounds.max_x);
            (Some(v), Box::new(move |k: f64| LinExpr::term(v, k)))
        }
    };
    match (tau_var, x_var) {
        (Some(t), None) => m.set_objective(LinExpr::var(t)),
        (None, Some(x)) => m.set_objective(LinExpr::var(x)),
        _ => panic!("exactly one of tau/x must be the objective variable"),
    }

    // --- configuration variables ------------------------------------
    let r: Vec<VarId> = g
        .node_ids()
        .map(|n| {
            m.add_integer(
                format!("r_{}", n.index()),
                -(bounds.max_retiming as f64),
                bounds.max_retiming as f64,
            )
        })
        .collect();
    let buf: Vec<VarId> = g
        .edges()
        .map(|(id, e)| {
            let span = g.node(e.source()).delay() + g.node(e.target()).delay();
            let forced = fix_buffers.is_none() && span > big_m + 1e-9;
            let lower = if forced { 1.0 } else { 0.0 };
            m.add_integer(
                format!("R_{}", id.index()),
                lower,
                bounds.max_buffers as f64,
            )
        })
        .collect();

    // Branch on buffer counts before retiming values: for fixed buffers
    // the retiming subsystem is a network matrix whose relaxation is
    // already integral, so buf-first branching closes trees much faster.
    for &b in &buf {
        m.set_priority(b, 1);
    }

    if let Some(fixed) = fix_buffers {
        for (i, &b) in fixed.iter().enumerate() {
            m.fix_var(buf[i], b as f64);
        }
        for &rv in &r {
            m.fix_var(rv, 0.0);
        }
    } else {
        if !r.is_empty() {
            m.fix_var(r[0], 0.0); // break the uniform-shift symmetry
        }
        // R'(e) ≥ R0(e) + r(v) − r(u)  — Definition 2.7.
        for (id, e) in g.edges() {
            let expr =
                LinExpr::var(buf[id.index()]) - r[e.target().index()] + r[e.source().index()];
            m.add_constraint(expr, cmp::GE, e.tokens() as f64);
        }
    }

    // --- path constraints (Lemma 2.1, node-arrival form) -------------
    // With tout(e) = max(0, arr(u) + β(u) − M·R'(e)) eliminated, each
    // edge contributes a single row.
    let arr: Vec<VarId> = g
        .node_ids()
        .map(|n| m.add_continuous(format!("arr_{}", n.index()), 0.0, f64::INFINITY))
        .collect();
    for (id, e) in g.edges() {
        let u = e.source().index();
        let v = e.target().index();
        // arr(v) ≥ arr(u) + β(u) − M·R'(e)
        let expr = LinExpr::var(arr[v]) - arr[u] + LinExpr::term(buf[id.index()], big_m);
        m.add_constraint(expr, cmp::GE, g.node(e.source()).delay());
    }
    // departure(u) = arr(u) + β(u) ≤ τ for every node.
    for (id, node) in g.nodes() {
        let expr = LinExpr::var(arr[id.index()]) - tau_param.clone();
        m.add_constraint(expr, cmp::LE, -node.delay());
    }

    // --- throughput constraints (Lemma 3.2 via LP (4) on the reduced
    // skeleton; interior chain potentials are already eliminated) -------
    let reduced = skeleton.reduced();
    let sigma: Vec<VarId> = (0..reduced.nodes.len())
        .map(|i| m.add_free(format!("sig_{i}")))
        .collect();
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); reduced.nodes.len()];
    for (i, e) in reduced.edges.iter().enumerate() {
        pred[e.to].push(i);
    }
    // m̂(a) = x·Σm0 − Σ chain δ + σ̂(p) − σ̂(w); original tokens only —
    // the retiming terms are absorbed in σ̂.
    let marking_hat = |a: &rr_tgmg::skeleton::ReducedEdge, w: usize| -> LinExpr {
        let mut expr = LinExpr::new();
        for &src in &a.markings {
            expr += match src {
                MarkingSrc::Const(c) => x_scaled(c as f64),
                MarkingSrc::TokensOf(e) => x_scaled(g.edge(e).tokens() as f64),
            };
        }
        for &d in &a.chain_delays {
            expr -= match d {
                DelaySrc::Const(c) => LinExpr::constant(c),
                DelaySrc::BuffersOf(e) => LinExpr::var(buf[e.index()]),
            };
        }
        expr + sigma[a.from] - sigma[w]
    };
    for (w, node) in reduced.nodes.iter().enumerate() {
        match node.kind {
            NodeKind::Simple => {
                for &a in &pred[w] {
                    // δ(w) ≤ m̂(a)
                    let delta: LinExpr = match node.delay {
                        DelaySrc::Const(c) => LinExpr::constant(c),
                        DelaySrc::BuffersOf(e) => LinExpr::var(buf[e.index()]),
                    };
                    let expr = delta - marking_hat(&reduced.edges[a], w);
                    m.add_constraint(expr, cmp::LE, 0.0);
                }
            }
            NodeKind::EarlyEval => {
                // Σ γ(a)·m̂(a) ≥ δ(w) = 0.
                debug_assert!(matches!(node.delay, DelaySrc::Const(c) if c == 0.0));
                let mut expr = LinExpr::new();
                for &a in &pred[w] {
                    let edge = &reduced.edges[a];
                    let gam = edge.gamma.expect("early skeleton input without γ");
                    expr += gam * marking_hat(edge, w);
                }
                m.add_constraint(expr, cmp::GE, 0.0);
            }
        }
    }

    // --- cycle-sum cuts (MAX_THR only: τ constant, buffers free) ------
    if fix_buffers.is_none() {
        if let (Mode::Const(tau), _) = (tau_mode, x_mode) {
            if tau > 1e-12 {
                for cycle in rr_rrg::algo::fundamental_cycles(g, 2 * g.num_edges()) {
                    let delay: f64 = cycle
                        .iter()
                        .map(|&e| g.node(g.edge(e).source()).delay())
                        .sum();
                    let tokens: f64 = cycle.iter().map(|&e| g.edge(e).tokens() as f64).sum();
                    let need = (delay / tau - 1e-9).ceil();
                    if need <= tokens + 0.5 {
                        continue; // the LP-implied token sum already covers it
                    }
                    let mut expr = LinExpr::new();
                    for &e in &cycle {
                        expr += LinExpr::var(buf[e.index()]);
                    }
                    m.add_constraint(expr, cmp::GE, need);
                }
            }
        }
    }

    Built {
        model: m,
        r,
        buf,
        tau: tau_var,
        x: x_var,
    }
}

/// What the warm-start heuristic must preserve.
enum Repair {
    /// `MIN_CYC`: the configuration must reach Θ_lp ≥ 1/x (τ is free).
    Throughput { x: f64 },
    /// `MAX_THR`: the configuration must meet cycle time ≤ τ (Θ is free).
    Timing { tau: f64 },
}

/// Builds a warm-start hint from the LP relaxation: round the retiming,
/// derive legal buffers, then repair the violated side —
///
/// * throughput violations fall back to the bubble-free configuration of
///   the rounded retiming (Θ_lp = 1 by construction);
/// * timing violations are repaired greedily by dropping a bubble on the
///   middle of the critical path until τ is met.
///
/// Returns `(hint pairs, none-on-failure)`; failures only mean "no warm
/// start", never wrong answers (branch & bound verifies feasibility).
fn warm_start(g: &Rrg, built: &Built, repair: Repair, opts: &CoreOptions) -> Vec<(VarId, f64)> {
    // If the relaxation itself fails, fall back to the identity retiming
    // (the input graph's own configuration is always legal).
    let relax = built.model.solve_relaxation(&opts.solver).ok();
    let r: Vec<i64> = match &relax {
        Some(sol) => built
            .r
            .iter()
            .map(|&v| sol.value(v).round() as i64)
            .collect(),
        None => vec![0; built.r.len()],
    };
    let tokens = retime_tokens(g, &r);
    let mut buffers: Vec<i64> = built
        .buf
        .iter()
        .zip(&tokens)
        .map(|(&v, &t)| {
            let rounded = relax.as_ref().map_or(0, |s| s.value(v).round() as i64);
            rounded.max(t).max(0)
        })
        .collect();

    match repair {
        Repair::Throughput { x } => {
            if !reaches_throughput(g, &tokens, &buffers, x) {
                // Bubble-free fallback: every EB holds a token → Θ_lp = 1.
                buffers = tokens.iter().map(|&t| t.max(0)).collect();
            }
        }
        Repair::Timing { tau } => {
            let cap = 4 * g.num_edges() + 16;
            for _ in 0..cap {
                let Ok(cp) = rr_rrg::cycle_time::critical_path_with(g, &buffers) else {
                    return Vec::new();
                };
                if cp.delay <= tau + 1e-9 {
                    break;
                }
                // Cut the path in the middle: buffer the edge between the
                // two middle nodes.
                let mid = cp.nodes.len() / 2;
                let (a, b) = if mid + 1 < cp.nodes.len() {
                    (cp.nodes[mid], cp.nodes[mid + 1])
                } else if cp.nodes.len() >= 2 {
                    (cp.nodes[0], cp.nodes[1])
                } else {
                    return Vec::new(); // single-node path exceeding τ
                };
                let Some(&edge) = g
                    .out_edges(a)
                    .iter()
                    .find(|&&e| g.edge(e).target() == b && buffers[e.index()] == 0)
                else {
                    return Vec::new();
                };
                buffers[edge.index()] += 1;
            }
            if rr_rrg::cycle_time::cycle_time_with(g, &buffers)
                .map(|t| t > tau + 1e-9)
                .unwrap_or(true)
            {
                return Vec::new();
            }
        }
    }

    let mut hint: Vec<(VarId, f64)> = Vec::with_capacity(built.r.len() + built.buf.len());
    hint.extend(built.r.iter().zip(&r).map(|(&v, &val)| (v, val as f64)));
    hint.extend(
        built
            .buf
            .iter()
            .zip(&buffers)
            .map(|(&v, &val)| (v, val as f64)),
    );
    hint
}

/// `true` when the configuration's LP throughput bound Θ_lp reaches `1/x`.
fn reaches_throughput(g: &Rrg, tokens: &[i64], buffers: &[i64], x: f64) -> bool {
    let tgmg = TgmgSkeleton::of(g).instantiate(tokens, buffers);
    rr_tgmg::lp_bound::throughput_upper_bound(&tgmg).is_ok_and(|th| th + 1e-9 >= 1.0 / x)
}

/// Extracts the integer configuration from a solution.
fn extract(g: &Rrg, built: &Built, sol: &Solution) -> Result<Config, OptError> {
    let r: Vec<i64> = built.r.iter().map(|&v| sol.int_value(v)).collect();
    let buffers: Vec<i64> = built.buf.iter().map(|&v| sol.int_value(v)).collect();
    let tokens = retime_tokens(g, &r);
    let cfg = Config { tokens, buffers };
    cfg.validate(g)
        .map_err(|e| OptError::BadConfig(e.to_string()))?;
    Ok(cfg)
}

/// Builds, warm-starts and solves one `MIN_CYC` or `MAX_THR` model whose
/// path rows use `big_m` (see [`build`]).
pub(crate) fn solve(
    g: &Rrg,
    tau_mode: Mode,
    x_mode: Mode,
    big_m: f64,
    opts: &CoreOptions,
) -> Result<OptOutcome, OptError> {
    let built = build(g, tau_mode, x_mode, big_m, None);
    let repair = match (tau_mode, x_mode) {
        (Mode::Variable, Mode::Const(x)) => Repair::Throughput { x },
        (Mode::Const(tau), Mode::Variable) => Repair::Timing { tau },
        _ => unreachable!("build accepts exactly one objective variable"),
    };
    let hint = warm_start(g, &built, repair, opts);
    let (sol, stats) = solve_with_stats_hinted(&built.model, &opts.solver, &hint)?;
    let config = extract(g, &built, &sol)?;
    let objective = built.tau.or(built.x).expect("one objective variable");
    Ok(OptOutcome {
        config,
        objective: sol.value(objective),
        proven_optimal: sol.status == Status::Optimal,
        stats,
    })
}

/// `MIN_CYC(x)`'s τ ceiling: the cycle time of the min-delay retiming
/// configuration when the model admits it — it validates, fits the
/// variable boxes of [`bounds_of`] with `r(n₀) = 0`, and its Θ_lp
/// reaches `1/x` — and τ* otherwise.
///
/// The Θ_lp check matters on graphs with bubbles: Leiserson–Saxe counts
/// buffers, not tokens, as registers, so its period can fall below
/// `MIN_CYC(1)` (Figure 1(b): period 1, `MIN_CYC(1)` = 3).
fn min_cyc_ceiling(g: &Rrg, x: f64) -> f64 {
    let bounds = bounds_of(g);
    let Ok(ls) = rr_retime::min_period_retiming(g) else {
        return bounds.tau_star;
    };
    let cfg = ls.config(g);
    let r0 = ls.retiming[0]; // an empty graph is a `RetimeError`
    let admitted = cfg.validate(g).is_ok()
        && cfg.buffers.iter().all(|&b| b <= bounds.max_buffers)
        && ls
            .retiming
            .iter()
            .all(|&r| (r - r0).abs() <= bounds.max_retiming)
        && reaches_throughput(g, &cfg.tokens, &cfg.buffers, x);
    if !admitted {
        return bounds.tau_star;
    }
    rr_rrg::cycle_time::cycle_time_with(g, &cfg.buffers).unwrap_or(bounds.tau_star)
}

/// `MIN_CYC(x)`: the configuration of minimum cycle time among those with
/// LP throughput bound ≥ 1/x.
///
/// `MIN_CYC(1)` is a min-delay retiming (no recycling can occur at Θ = 1,
/// cross-checked against Leiserson–Saxe in the tests).
///
/// # Errors
///
/// [`OptError::Infeasible`] when no configuration reaches the requested
/// throughput; [`OptError::SolverLimit`] when the solver budget expires
/// without an incumbent.
///
/// # Panics
///
/// Panics if `x < 1` (throughput cannot exceed one token per cycle).
pub fn min_cyc(g: &Rrg, x: f64, opts: &CoreOptions) -> Result<OptOutcome, OptError> {
    assert!(x >= 1.0 - 1e-9, "x = 1/Θ must be at least 1");
    let ceiling = min_cyc_ceiling(g, x);
    solve(g, Mode::Variable, Mode::Const(x), ceiling, opts)
}

/// `MAX_THR(τ)`: the configuration with cycle time ≤ τ maximising the LP
/// throughput bound (the solver minimises `x = 1/Θ_lp`).
///
/// # Errors
///
/// See [`min_cyc`]; infeasible only if `τ < β_max`.
pub fn max_thr(g: &Rrg, tau: f64, opts: &CoreOptions) -> Result<OptOutcome, OptError> {
    let big_m = tau.min(bounds_of(g).tau_star);
    solve(g, Mode::Const(tau), Mode::Variable, big_m, opts)
}

/// Cross-check helper: minimises `x` for a **fixed** buffer assignment
/// with the symbolic throughput constraints. Must agree with the direct
/// LP (4) bound computed by `rr_tgmg::lp_bound` — the two code paths share
/// the skeleton but differ in the σ̂ absorption, so their agreement
/// validates the linearisation.
///
/// # Errors
///
/// See [`min_cyc`].
pub fn min_x_for_buffers(g: &Rrg, buffers: &[i64], opts: &CoreOptions) -> Result<f64, OptError> {
    // τ* (the sum of all delays) never restricts timing: any buffered
    // configuration meets it.
    let tau_star = bounds_of(g).tau_star;
    let built = build(
        g,
        Mode::Const(tau_star),
        Mode::Variable,
        tau_star,
        Some(buffers),
    );
    let sol = built.model.solve_with(&opts.solver)?;
    Ok(sol.value(built.x.expect("x is the objective")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::{cycle_time, figures};
    use rr_tgmg::{lp_bound, skeleton::TgmgSkeleton};

    #[test]
    fn fixed_config_x_matches_direct_lp_bound() {
        for g in [
            figures::figure_1a(0.5),
            figures::figure_1b(0.5),
            figures::figure_1b(0.9),
            figures::figure_2(0.7),
        ] {
            let buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
            let x = min_x_for_buffers(&g, &buffers, &CoreOptions::fast()).unwrap();
            let tokens: Vec<i64> = g.edges().map(|(_, e)| e.tokens()).collect();
            let t = TgmgSkeleton::of(&g).instantiate(&tokens, &buffers);
            let direct = lp_bound::throughput_upper_bound(&t).unwrap();
            assert!(
                (1.0 / x - direct).abs() < 1e-5,
                "absorbed {} vs direct {}",
                1.0 / x,
                direct
            );
        }
    }

    #[test]
    fn min_cyc_at_unit_throughput_matches_leiserson_saxe() {
        let g = figures::figure_1a(0.5);
        let out = min_cyc(&g, 1.0, &CoreOptions::fast()).unwrap();
        let ls = rr_retime::min_period_retiming(&g).unwrap();
        let tau = cycle_time::cycle_time_with(&g, &out.config.buffers).unwrap();
        assert_eq!(tau, ls.period, "MIN_CYC(1) must equal min-delay retiming");
    }

    /// Figure 1(b) carries bubbles, so its Leiserson–Saxe period (1)
    /// lies below `MIN_CYC(1)` = 3: a ceiling taken from the raw period
    /// would make the low-x models infeasible.
    #[test]
    fn min_cyc_ceiling_keeps_figure_1b_optima() {
        let g = figures::figure_1b(0.5);
        assert_eq!(rr_retime::min_period_retiming(&g).unwrap().period, 1.0);
        for (x, want) in [(1.0, 3.0), (1.2, 3.0), (1.5, 2.0), (2.0, 1.0), (3.0, 1.0)] {
            let out = min_cyc(&g, x, &CoreOptions::fast()).unwrap();
            assert!(out.proven_optimal, "MIN_CYC({x}) unproven");
            assert!(
                (out.objective - want).abs() < 1e-6,
                "MIN_CYC({x}) = {} instead of {want}",
                out.objective
            );
        }
    }

    #[test]
    fn max_thr_at_large_tau_reaches_unit_throughput() {
        let g = figures::figure_1a(0.5);
        let out = max_thr(&g, 10.0, &CoreOptions::fast()).unwrap();
        assert!(out.objective <= 1.0 + 1e-6, "x = {}", out.objective);
    }

    #[test]
    fn max_thr_at_unit_tau_discovers_figure_2_performance() {
        // At τ = 1 the best Θ_lp should be at least 1/(3−2α) (Figure 2 is
        // feasible at that cycle time).
        let alpha = 0.9;
        let g = figures::figure_1a(alpha);
        let out = max_thr(&g, 1.0, &CoreOptions::fast()).unwrap();
        let theta = 1.0 / out.objective;
        let fig2 = figures::figure_2_throughput(alpha);
        assert!(
            theta >= fig2 - 1e-6,
            "Θ_lp = {theta} below Figure 2's {fig2}"
        );
        // The returned configuration really has cycle time ≤ 1.
        let tau = cycle_time::cycle_time_with(&g, &out.config.buffers).unwrap();
        assert!(tau <= 1.0 + 1e-9);
    }

    #[test]
    fn min_cyc_infeasible_past_unit_throughput() {
        let g = figures::figure_1a(0.5);
        // Θ > 1 is impossible: x < 1 is rejected by assertion, so ask for
        // a throughput the graph cannot reach with any buffers: Θ = 1
        // needs zero bubbles; requesting τ < β_max via max_thr is the
        // infeasible direction instead.
        let err = max_thr(&g, 0.5, &CoreOptions::fast()).unwrap_err();
        assert_eq!(err, OptError::Infeasible);
    }
}
