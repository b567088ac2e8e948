//! Branch & bound: one depth-first loop on the calling thread over one
//! warm revised kernel. Every LP runs here, models whose rows all fold to
//! constants included: a MILP, a pure LP (a one-node search) and a MILP's
//! relaxation (integrality dropped, so the root is a leaf). Each gets the
//! node's residual trust gate, recovery ladder and the solve's one clock.
//!
//! # Architecture
//!
//! [`Search`] owns everything a solve touches: the standard form
//! ([`StandardForm`], built once), the revised kernel (sparse factors, fault
//! injector, recovery ladder), the branch tree, one LIFO stack of open
//! nodes, the pseudo-cost table, the incumbent and the stats. The crate
//! holds no lock, atomic or thread, so a seed and a node cap replay the
//! same trajectory bit for bit. Parallelism lives one level up, in
//! `rr_bench::parallel_map`, which runs one circuit per core.
//!
//! * **The loop** ([`Search::run`]). Each iteration pops a node, discards
//!   it unsolved if its bound cannot beat the incumbent, checks the
//!   budget (node cap, then the deadline), walks the kernel's boxes from
//!   the previously solved node to this one, solves the node LP, and
//!   either accepts an integral leaf or pushes the two children.
//! * **The branch tree**: an arena of one-bound-tightening [`TreeNode`]s.
//!   The kernel moves between nodes by walking the tree (undo up to the
//!   lowest common ancestor, re-apply down), so jumping anywhere in the
//!   tree costs only the path difference.
//! * **Node order**: depth-first. Each branching pushes the nearer side
//!   last, so the search dives toward it and weak LP bounds still reach
//!   integral leaves. Every open node carries an `Rc` of its parent's
//!   optimal basis, so a pop after a backtrack still warm-starts. On the
//!   repo benchmark a best-estimate queue never proved more than this
//!   order.
//! * **Warm starts** ([`Search::solve_node`]). Branching rewrites a
//!   column's `[lo, hi]` box in place, and bound changes leave reduced
//!   costs untouched, so any optimal basis anywhere in the tree is dual
//!   feasible for every node. A node is reoptimized by a bounded
//!   dual-simplex run from whatever basis the previous node left behind
//!   (typically a handful of pivots and no refactorization), falling
//!   back to its parent's basis, then to a cold two-phase solve and the
//!   per-node recovery ladder (rungs 3–6 of [`crate::recover`]).
//!   Shifted, mirrored and free (split-pair) integers all branch this
//!   way: a box translates to standard-form column bounds through
//!   [`ColMap::box_updates`].
//! * **The oracle** ([`Kernel::DenseTableau`]) runs the same loop, but
//!   every node LP, and the hint's pinned LP, is solved cold on the dense
//!   tableau ([`crate::simplex`]) over a standard form built from the
//!   model and the node's boxes, under the solve's one deadline; no box
//!   reaches the revised kernel, which solves nothing, and no
//!   strong-branch probe runs. A tableau point that violates a row is
//!   refused like a drifting revised bound ([`Search::solve_on_tableau`]).
//!   The ladder's rung 6 re-solves a failing production node the same
//!   way.
//! * **Branching** ([`Search::select_branch`]): pseudo-cost branching
//!   with reliability probes. Per variable and direction, the table holds
//!   the running mean of the observed LP bound degradation per unit of
//!   fractionality, learned from every solved child. Among the fractional
//!   candidates of the highest [`priority`](Model::set_priority) class,
//!   the most fractional whose history is not yet reliable
//!   ([`RELIABILITY`] observations per direction) are strong-branched:
//!   both children get a dual-simplex probe of at most
//!   [`STRONG_BRANCH_PIVOTS`] pivots, for at most
//!   [`STRONG_BRANCH_CANDIDATES`] candidates per node. The candidate
//!   maximizing `max(down·f⁻, ε) · max(up·f⁺, ε)` is branched (ties
//!   toward higher fractionality, then the lower [`VarId`]). A probe that
//!   proves a child infeasible biases selection toward the variable but
//!   never prunes, so an unverified probe cannot break correctness.
//! * **Incumbents** come from integral node relaxations and from the
//!   caller's warm-start hint, solved with the hinted integers pinned
//!   before the root. Under the oracle both are tableau solutions.
//! * **Bounds**: the gap test runs whenever an incumbent improves,
//!   against the minimum bound over the open stack, i.e. over every
//!   unexplored node, so a leaf of the first dive can already end the
//!   search. A node whose LP fails through the whole recovery ladder is
//!   dropped and the run marked truncated; its bound is kept, so the
//!   reported [`BranchBoundStats::dual_bound`] still covers its subtree.
//!   Node and wall-clock limits return the best incumbent with
//!   [`Status::Feasible`]; [`Status::Optimal`] means the search
//!   completed or closed the [`SolverOptions::gap_tol`] gap.

use std::rc::Rc;
use std::time::Instant;

use crate::branch_bound::BranchBoundStats;
use crate::expr::VarId;
use crate::factor::UpdateKind;
use crate::model::{Kernel, Model, Sense, SolverOptions, Variable, FEAS_TOL, INT_TOL};
use crate::recover::FaultInjector;
use crate::revised::{BasisState, Revised};
use crate::simplex;
use crate::solution::{Solution, SolveError, Status};
use crate::standard::{ColMap, StandardForm};

/// Reliability threshold of pseudo-cost branching: a variable direction
/// with fewer recorded observations than this is strong-branched instead
/// of trusted. Strong branching earns its keep: with it switched off
/// (threshold 0, pseudo-costs learned from node observations only),
/// `maxthr150` at seed 2009 proved 4 of 18 circuits instead of 8. That
/// predates the path rows' big-M = τ; the baseline now proves 11 of 18.
const RELIABILITY: u64 = 4;

/// Dual-simplex pivot budget of one strong-branch probe.
const STRONG_BRANCH_PIVOTS: usize = 100;

/// At most this many unreliable candidates are strong-branched per node
/// (the rest fall back to their pseudo-cost estimates).
const STRONG_BRANCH_CANDIDATES: usize = 8;

/// Outcome of one strong-branch child probe (see
/// [`Search::probe_branch`]). Probe results only *bias* branching: an
/// `Infeasible` verdict steers selection toward the variable but never
/// prunes.
#[derive(Debug, Clone, Copy)]
enum ProbeOutcome {
    /// No probe ran (cold oracle nodes, kernel not dual feasible, probe
    /// budget exhausted): use the estimate.
    Skipped,
    /// The child LP solved to optimality within the probe budget.
    Bound(f64),
    /// The child box is dual-simplex infeasible.
    Infeasible,
}

/// Pseudo-cost table: per variable × direction mean bound degradation
/// per unit of fractionality, learned from node solves and
/// strong-branch probes.
struct PseudoCosts {
    /// `cells[vi][dir]`, `dir` 0 = down (floor) and 1 = up (ceil).
    cells: Vec<[PseudoCell; 2]>,
    /// Global running mean — the initialization estimate for variables
    /// without observations of their own.
    global: PseudoCell,
}

#[derive(Default, Clone, Copy)]
struct PseudoCell {
    /// Sum of observed degradations.
    sum: f64,
    count: u64,
}

impl PseudoCell {
    fn add(&mut self, degrade: f64) {
        self.sum += degrade;
        self.count += 1;
    }
}

impl PseudoCosts {
    /// Records one observed degradation per unit fractionality.
    fn record(&mut self, vi: usize, up: bool, degrade_per_frac: f64) {
        self.cells[vi][up as usize].add(degrade_per_frac);
        self.global.add(degrade_per_frac);
    }

    /// Observation count of one direction (the reliability test).
    fn observations(&self, vi: usize, up: bool) -> u64 {
        self.cells[vi][up as usize].count
    }

    /// Mean observed degradation per unit fractionality; variables with
    /// no observations inherit the global mean (0 before any
    /// observation anywhere, which makes scoring fall back to pure
    /// fractionality ordering).
    fn estimate(&self, vi: usize, up: bool) -> f64 {
        let cell = &self.cells[vi][up as usize];
        let cell = if cell.count > 0 { cell } else { &self.global };
        if cell.count == 0 {
            return 0.0;
        }
        cell.sum / cell.count as f64
    }
}

/// One node of the branch tree: a single bound tightening of `vi` on top
/// of `parent`.
struct TreeNode {
    parent: usize,
    depth: usize,
    /// Model variable branched on (`usize::MAX` for the root).
    vi: usize,
    /// The tightened box of `vi` at this node.
    lo: f64,
    hi: f64,
    /// `vi`'s box at the parent (for the undo walk).
    parent_lo: f64,
    parent_hi: f64,
    /// `true` when this is the up (ceil) child of its branching.
    up: bool,
    /// Fractionality of the parent relaxation value toward this side
    /// (`val - ⌊val⌋` down, `⌈val⌉ - val` up); 0 at the root.
    frac: f64,
    /// Parent relaxation objective (model sense) — the baseline a
    /// pseudo-cost observation measures this node's bound degradation
    /// against. NaN at the root.
    parent_obj: f64,
}

/// An open (queued) node: arena index, parent LP bound, and the
/// parent's basis for warm-start handoff.
struct OpenNode {
    node: usize,
    /// Valid (parent) LP bound, signed (minimization form) — what
    /// pruning and discard tests compare against the incumbent.
    bound: f64,
    basis: Option<Rc<BasisState>>,
}

/// Minimum valid LP bound over `open` (`+∞` when empty).
fn min_bound(open: &[OpenNode]) -> f64 {
    open.iter().map(|o| o.bound).fold(f64::INFINITY, f64::min)
}

/// The whole search state of one solve.
struct Search<'m> {
    model: &'m Model,
    opts: &'m SolverOptions,
    /// [`Kernel::Revised`]: nodes dual-reoptimize from the previous
    /// basis. `false` under the [`Kernel::DenseTableau`] oracle request:
    /// every LP is solved cold on the tableau.
    warm: bool,
    /// The one wall-clock deadline of the whole solve.
    deadline: Option<Instant>,
    /// Pivots of every tableau solve (the oracle's LPs and rung 6).
    tableau_pivots: usize,
    form: StandardForm,
    /// Per model variable: the standard-form substitution of every
    /// branchable integer (shifted, mirrored, or split); `None` for
    /// continuous variables and integers fixed at the root.
    int_maps: Vec<Option<ColMap>>,
    kernel: Revised,
    int_vars: Vec<VarId>,
    sense_mul: f64,
    pseudo: PseudoCosts,
    /// The branch tree. Append-only, so arena indices are stable.
    arena: Vec<TreeNode>,
    /// Open nodes, popped last-in first-out (depth-first).
    stack: Vec<OpenNode>,
    /// Variable boxes of the node the kernel currently has applied.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Arena index of the node whose boxes the kernel has applied.
    cur: usize,
    best: Option<Solution>,
    /// Minimum signed bound over the nodes dropped because their LP
    /// failed (`+∞` when none was).
    lost: f64,
    /// Set when an incumbent closes the gap; the loop stops at its next
    /// pop.
    gap_closed: bool,
    stats: BranchBoundStats,
}

impl Search<'_> {
    fn signed(&self, obj: f64) -> f64 {
        self.sense_mul * obj
    }

    /// `true` once the solve's one wall-clock deadline has passed.
    fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// The signed incumbent objective (`+∞` without an incumbent).
    fn cutoff(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |b| self.signed(b.objective))
    }

    /// Offers `candidate` as an incumbent (must be integral to win). An
    /// improvement is traced at `node_idx` and runs the gap test.
    fn accept(&mut self, candidate: Solution, node_idx: usize) {
        let integral = self.int_vars.iter().all(|&v| {
            let x = candidate.value(v);
            (x - x.round()).abs() <= INT_TOL
        });
        if !integral || self.signed(candidate.objective) >= self.cutoff() - 1e-9 {
            return;
        }
        self.stats
            .incumbent_trace
            .push((node_idx, candidate.objective));
        let inc = self.signed(candidate.objective);
        self.best = Some(candidate);
        self.gap_closed = inc - min_bound(&self.stack) <= self.opts.gap_tol * inc.abs().max(1.0);
    }

    /// Pushes a model variable's box into the revised kernel: a no-op for
    /// variables without standard-form columns (fixed at the root), and
    /// under the oracle, whose tableau LPs read `lo`/`hi` directly.
    fn set_var_box(&mut self, vi: usize, lo: f64, hi: f64) {
        if !self.warm {
            return;
        }
        if let Some(map) = self.int_maps[vi] {
            for (col, l, u) in map.box_updates(lo, hi).into_iter().flatten() {
                self.kernel.set_col_bounds(col, l, u);
            }
        }
    }

    /// The solution at the model-space point `values` of an LP optimum.
    fn solution(&self, values: Vec<f64>) -> Solution {
        let objective = self.model.objective.eval(&values);
        Solution {
            values,
            objective,
            status: Status::Optimal,
        }
    }

    /// The solution at the kernel's current optimum.
    fn node_solution(&self) -> Solution {
        self.solution(self.form.recover(&self.kernel.values()))
    }

    /// Hint seeding, before the root: pin the hinted integers, solve from
    /// scratch, restore the root boxes, and offer the solution as the
    /// first incumbent (nothing when the pinned LP fails). A retryable
    /// failure of the cold solve walks the recovery ladder like a node's,
    /// but the hint is no node: it is not booked as a cold node solve.
    fn seed_hint(&mut self, hint: &[(VarId, f64)]) {
        let pins: Vec<(usize, f64)> = hint
            .iter()
            .filter(|&&(v, _)| self.model.vars[v.index()].integer)
            .map(|&(v, val)| {
                let vi = v.index();
                (vi, val.round().clamp(self.lo[vi], self.hi[vi]))
            })
            .collect();
        for &(vi, val) in &pins {
            (self.lo[vi], self.hi[vi]) = (val, val);
            self.set_var_box(vi, val, val);
        }
        // The hint becomes an incumbent, so it passes the same residual
        // trust gate as node bounds.
        let sol = if self.warm {
            self.solve_cold_recovering().ok()
        } else {
            self.solve_on_tableau().ok()
        };
        for &(vi, _) in &pins {
            let var = &self.model.vars[vi];
            (self.lo[vi], self.hi[vi]) = (var.lower, var.upper);
            self.set_var_box(vi, var.lower, var.upper);
        }
        if let Some(sol) = sol {
            self.accept(sol, 0);
        }
    }

    /// A two-phase solve of the current node from scratch on the revised
    /// kernel. A bound the residual trust gate refuses is a
    /// [`SolveError::Numerical`] failure.
    fn solve_cold(&mut self) -> Result<Solution, SolveError> {
        let mut budget = self.opts.max_pivots;
        self.kernel.solve_two_phase(&mut budget)?;
        if !self.kernel.verify_residual() {
            return Err(SolveError::Numerical("residual drift at node bound".into()));
        }
        Ok(self.node_solution())
    }

    /// Solves the current node's LP cold on the dense tableau: a standard
    /// form built from the model over the node's boxes, under the solve's
    /// deadline and a fresh pivot budget. Every pivot counts toward
    /// `simplex_iters`. The tableau clamps basic values at 0 and never
    /// re-checks them against the rows, so its point passes a trust gate
    /// of its own: a row violated beyond `1e3·FEAS_TOL` of the row's
    /// magnitude (the revised kernel's residual tolerance) is a
    /// [`SolveError::Numerical`] failure, never a bound.
    fn solve_on_tableau(&mut self) -> Result<Solution, SolveError> {
        let sf = StandardForm::build(self.model, Some((&self.lo, &self.hi)));
        let mut budget = self.opts.max_pivots;
        let y = simplex::solve(&sf, &mut budget, self.deadline);
        self.tableau_pivots += self.opts.max_pivots - budget;
        let values = sf.recover(&y?);
        if self.model.rows_violated(&values, 1e3 * FEAS_TOL) {
            return Err(SolveError::Numerical("tableau point violates a row".into()));
        }
        Ok(self.solution(values))
    }

    /// Dual-reoptimizes the kernel **in place** (no refactorization): any
    /// dual-feasible basis is a valid warm-start seed for any boxes, so the
    /// state the previous node left behind works directly. `Err` values
    /// are *soft* failures (fall back) except [`SolveError::Infeasible`],
    /// which is a genuine verdict.
    fn try_warm_in_place(&mut self) -> Result<(), SolveError> {
        // Bounded reoptimization: a healthy warm start takes a handful of
        // pivots; if the dual run exceeds this budget a cold solve is
        // cheaper than fighting degeneracy.
        let (m, n) = self.kernel.dims();
        let mut dual_budget = (1_000 + m + n / 4).min(self.opts.max_pivots);
        self.kernel.dual_reopt(&mut dual_budget)?;
        let mut budget = self.opts.max_pivots;
        self.kernel.primal_opt(&mut budget)?;
        if self.kernel.has_active_artificial(1e-6) {
            return Err(SolveError::Numerical("artificial reactivated".into()));
        }
        Ok(())
    }

    /// Solves the current node LP: in-place dual reoptimization when the
    /// kernel state allows it, else from the parent basis, else cold
    /// (always cold, on the tableau, under the oracle request).
    fn solve_node(&mut self, parent: Option<&BasisState>) -> Result<Solution, SolveError> {
        if !self.warm {
            self.stats.cold_solves += 1;
            return self.solve_on_tableau();
        }
        if let Some(parent_state) = parent {
            let outcome = if self.kernel.dual_ok() {
                self.try_warm_in_place()
            } else {
                Err(SolveError::Numerical("kernel not dual feasible".into()))
            };
            let outcome = match outcome {
                // Soft failure: retry from the parent's optimal basis.
                Err(e) if e != SolveError::Infeasible => self
                    .kernel
                    .install_basis(parent_state)
                    .and_then(|()| self.try_warm_in_place()),
                other => other,
            };
            match outcome {
                Ok(()) => {
                    // Residual trust gate: a bound computed on drifting
                    // factors must not prune — fall through to the cold
                    // path instead (the gate already healed the factors).
                    if self.kernel.verify_residual() {
                        self.stats.warm_solves += 1;
                        return Ok(self.node_solution());
                    }
                }
                Err(SolveError::Infeasible) => {
                    // A dual-simplex proof of infeasibility concluded
                    // the node — that is a successful warm solve.
                    self.stats.warm_solves += 1;
                    return Err(SolveError::Infeasible);
                }
                // Iteration limit, numerics, singular basis: retry cold.
                Err(_) => {}
            }
        }
        self.stats.cold_solves += 1;
        self.solve_cold_recovering()
    }

    /// [`Search::solve_cold`], with a retryable failure (budget,
    /// numerics, a refused bound) walked down the recovery ladder;
    /// genuine verdicts pass through.
    fn solve_cold_recovering(&mut self) -> Result<Solution, SolveError> {
        match self.solve_cold() {
            Err(first @ (SolveError::IterationLimit | SolveError::Numerical(_))) => {
                self.recover_node(first)
            }
            other => other,
        }
    }

    /// The per-node recovery ladder, rungs 3–6 of [`crate::recover`]:
    /// product-form switch → cold rebuild → Bland-only pricing → the
    /// node on the tableau. Entered after a cold solve failed with a
    /// retryable error (budget/numerics) or produced a bound the
    /// residual trust gate refused. Every rung is counted before its
    /// attempt and re-solves from scratch on a fresh pivot budget; the
    /// revised rungs must pass the trust gate, and
    /// `Infeasible`/`Unbounded` from a rung is a genuine verdict. On
    /// success (or a verdict) the original configuration is restored —
    /// the next node then cold-starts through the ordinary warm-fallback
    /// path. Total failure returns the error that started the ladder.
    fn recover_node(&mut self, first: SolveError) -> Result<Solution, SolveError> {
        for rung in 0..4u8 {
            // The ladder must not fight a spent wall clock: each failed
            // attempt would just re-pay the solve entry check.
            if self.out_of_time() {
                break;
            }
            let outcome = match rung {
                0 => {
                    self.kernel.recovery.product_form_switches += 1;
                    self.kernel.set_update_kind(UpdateKind::ProductForm);
                    self.solve_cold()
                }
                1 => {
                    self.kernel.recovery.cold_rebuilds += 1;
                    self.kernel = self.kernel.rebuilt(&self.form);
                    self.solve_cold()
                }
                2 => {
                    self.kernel.recovery.bland_restarts += 1;
                    self.kernel.set_force_bland(true);
                    self.solve_cold()
                }
                _ => {
                    self.kernel.recovery.dense_oracle_solves += 1;
                    self.solve_on_tableau()
                }
            };
            // Retryable failures (an untrustworthy bound included)
            // escalate to the next rung.
            if let Err(SolveError::IterationLimit | SolveError::Numerical(_)) = outcome {
                continue;
            }
            self.restore_kernel();
            return outcome;
        }
        // Exhausted (or out of time): leave a clean configuration behind
        // and report the failure that started the ladder.
        self.restore_kernel();
        Err(first)
    }

    /// Restores the pre-ladder configuration: Bland forcing off, a fresh
    /// kernel under the original options. The fresh kernel has no basis
    /// yet, so [`Search::run`] hands no snapshot to its children; the
    /// next node solve re-establishes one (warm from its parent's basis,
    /// or cold).
    fn restore_kernel(&mut self) {
        self.kernel.set_force_bland(false);
        self.kernel = self.kernel.rebuilt(&self.form);
    }

    /// Strong-branch probe: a bounded dual reoptimization of the child
    /// box `[lo, hi]` of `vi` from the current node optimum, restoring
    /// `vi`'s node box (but not the basis — any dual-feasible basis
    /// warm-starts any node) afterwards.
    fn probe_branch(&mut self, vi: usize, lo: f64, hi: f64) -> ProbeOutcome {
        if self.int_maps[vi].is_none() || !self.warm || !self.kernel.dual_ok() {
            return ProbeOutcome::Skipped;
        }
        self.set_var_box(vi, lo, hi);
        let mut budget = STRONG_BRANCH_PIVOTS;
        let out = match self.kernel.dual_reopt(&mut budget) {
            Ok(()) if !self.kernel.has_active_artificial(1e-6) => ProbeOutcome::Bound(
                self.model
                    .objective
                    .eval(&self.form.recover(&self.kernel.values())),
            ),
            Ok(()) => ProbeOutcome::Skipped,
            Err(SolveError::Infeasible) => ProbeOutcome::Infeasible,
            // Budget exhausted or numerics: no usable probe bound.
            Err(_) => ProbeOutcome::Skipped,
        };
        self.set_var_box(vi, self.lo[vi], self.hi[vi]);
        out
    }

    /// Pseudo-cost branching with reliability probes on the node
    /// relaxation `sol` (see the module docs). Returns `None` when the
    /// point is integral.
    fn select_branch(&mut self, sol: &Solution) -> Option<(VarId, f64)> {
        struct Cand {
            v: VarId,
            val: f64,
            frac: f64,
            fd: f64,
            fu: f64,
            /// Probed degradations (NaN = not probed → use the estimate).
            down: f64,
            up: f64,
        }
        let mut cands: Vec<Cand> = Vec::new();
        let mut top = i32::MIN;
        for &v in &self.int_vars {
            let val = sol.value(v);
            let frac = (val - val.round()).abs();
            if frac <= INT_TOL {
                continue;
            }
            let p = self.model.vars[v.index()].priority;
            if p > top {
                top = p;
                cands.clear();
            }
            if p == top {
                cands.push(Cand {
                    v,
                    val,
                    frac,
                    fd: val - val.floor(),
                    fu: val.ceil() - val,
                    down: f64::NAN,
                    up: f64::NAN,
                });
            }
        }
        if cands.len() <= 1 {
            return cands.first().map(|c| (c.v, c.val));
        }
        // Reliability rule: strong-branch the most fractional candidates
        // whose weaker direction has fewer than `RELIABILITY` observations.
        let mut unreliable: Vec<usize> = (0..cands.len())
            .filter(|&i| {
                let vi = cands[i].v.index();
                let seen = self
                    .pseudo
                    .observations(vi, false)
                    .min(self.pseudo.observations(vi, true));
                seen < RELIABILITY
            })
            .collect();
        unreliable.sort_by(|&a, &b| {
            cands[b]
                .frac
                .total_cmp(&cands[a].frac)
                .then(cands[a].v.index().cmp(&cands[b].v.index()))
        });
        unreliable.truncate(STRONG_BRANCH_CANDIDATES);
        let node_obj = self.signed(sol.objective);
        for i in unreliable {
            let Cand { v, val, fd, fu, .. } = cands[i];
            let vi = v.index();
            let (l, h) = (self.lo[vi], self.hi[vi]);
            let (floor, ceil) = (val.floor(), val.ceil());
            // An empty child box is an infeasible side by construction.
            let down = if l <= h.min(floor) {
                self.probe_branch(vi, l, h.min(floor))
            } else {
                ProbeOutcome::Infeasible
            };
            let up = if l.max(ceil) <= h {
                self.probe_branch(vi, l.max(ceil), h)
            } else {
                ProbeOutcome::Infeasible
            };
            let mut probed = false;
            for (out, is_up, f) in [(down, false, fd), (up, true, fu)] {
                let slot = if is_up {
                    &mut cands[i].up
                } else {
                    &mut cands[i].down
                };
                match out {
                    ProbeOutcome::Bound(obj) => {
                        probed = true;
                        let degrade = (self.sense_mul * obj - node_obj).max(0.0);
                        if f > INT_TOL {
                            self.pseudo.record(vi, is_up, degrade / f);
                            self.stats.pseudo_updates += 1;
                        }
                        *slot = degrade;
                    }
                    ProbeOutcome::Infeasible => {
                        probed = true;
                        *slot = f64::INFINITY;
                    }
                    ProbeOutcome::Skipped => {}
                }
            }
            if probed {
                self.stats.strong_branches += 1;
            }
        }
        // Product-rule scoring, probe results overriding estimates.
        let mut best_i = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, c) in cands.iter().enumerate() {
            let vi = c.v.index();
            let d = if c.down.is_nan() {
                self.pseudo.estimate(vi, false) * c.fd
            } else {
                c.down
            };
            let u = if c.up.is_nan() {
                self.pseudo.estimate(vi, true) * c.fu
            } else {
                c.up
            };
            let score = d.max(1e-6) * u.max(1e-6);
            let wins = score > best_score
                || (score == best_score && {
                    let b = &cands[best_i];
                    c.frac > b.frac || (c.frac == b.frac && c.v < b.v)
                });
            if wins {
                best_score = score;
                best_i = i;
            }
        }
        Some((cands[best_i].v, cands[best_i].val))
    }

    /// Pushes the children of branching the expanded node `t` on `var`
    /// at fractional `val` (node bound `bound`, model sense), nearer side
    /// on top so the LIFO stack pops it first. A child whose box would be
    /// empty is skipped.
    fn expand(
        &mut self,
        t: usize,
        (var, val): (VarId, f64),
        bound: f64,
        basis: Option<Rc<BasisState>>,
    ) {
        let vi = var.index();
        let (plo, phi) = (self.lo[vi], self.hi[vi]);
        let depth = self.arena[t].depth + 1;
        let (floor, ceil) = (val.floor(), val.ceil());
        let child = |up: bool, lo: f64, hi: f64, frac: f64| TreeNode {
            parent: t,
            depth,
            vi,
            lo,
            hi,
            parent_lo: plo,
            parent_hi: phi,
            up,
            frac,
            parent_obj: bound,
        };
        let down = (plo <= phi.min(floor)).then(|| child(false, plo, phi.min(floor), val - floor));
        let up = (plo.max(ceil) <= phi).then(|| child(true, plo.max(ceil), phi, ceil - val));
        let children = if val - floor <= ceil - val {
            [up, down]
        } else {
            [down, up]
        };
        for child in children.into_iter().flatten() {
            self.stack.push(OpenNode {
                node: self.arena.len(),
                bound: self.signed(bound),
                basis: basis.clone(),
            });
            self.arena.push(child);
        }
    }

    /// Runs the loop until the stack empties, the gap closes or the
    /// budget is spent, then reports the incumbent and the stats.
    fn run(mut self) -> Result<(Solution, BranchBoundStats), SolveError> {
        let mut ops: Vec<(usize, f64, f64)> = Vec::new();
        while let Some(open) = self.stack.pop() {
            if open.bound >= self.cutoff() - 1e-9 {
                continue; // cannot beat the incumbent: discarded unsolved
            }
            if self.gap_closed {
                self.stack.push(open);
                break;
            }
            if self.stats.nodes >= self.opts.max_nodes || self.out_of_time() {
                self.stats.truncated = true;
                self.stack.push(open);
                break;
            }
            self.stats.nodes += 1;
            self.stats.node_bounds.push(f64::NAN);
            let node_idx = self.stats.nodes - 1;
            ops.clear();
            let depth = path_ops(&self.arena, self.cur, open.node, &mut ops);
            for &(vi, lo, hi) in &ops {
                self.lo[vi] = lo;
                self.hi[vi] = hi;
                self.set_var_box(vi, lo, hi);
            }
            self.cur = open.node;
            let relax = match self.solve_node(open.basis.as_deref()) {
                Ok(sol) => sol,
                Err(SolveError::Infeasible) => continue, // bound slot stays NaN
                Err(SolveError::IterationLimit) | Err(SolveError::Numerical(_)) => {
                    // No usable bound for this subtree: drop it, keep its
                    // parent's bound for the dual bound, mark the run
                    // truncated.
                    self.stats.truncated = true;
                    self.lost = self.lost.min(open.bound);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let pruned = self.signed(relax.objective) >= self.cutoff() - 1e-9;
            // Children warm-start from this node's optimal basis —
            // snapshot before strong-branch probes perturb the kernel.
            // No snapshot under the cold oracle request, or right after a
            // ladder restore, whose fresh kernel has no basis yet.
            let (my_basis, branch) = if pruned {
                (None, None)
            } else {
                let my_basis = (self.warm && self.kernel.has_basis())
                    .then(|| Rc::new(self.kernel.basis_snapshot()));
                (my_basis, self.select_branch(&relax))
            };
            self.stats.node_bounds[node_idx] = relax.objective;
            if depth == 0 {
                self.stats.root_bound = relax.objective;
            }
            // Pseudo-cost observation: this node's bound degradation
            // against its parent per unit of branch fractionality.
            let nd = &self.arena[open.node];
            if nd.vi != usize::MAX && nd.frac > INT_TOL && nd.parent_obj.is_finite() {
                let degrade = (self.signed(relax.objective) - self.signed(nd.parent_obj)).max(0.0);
                self.pseudo.record(nd.vi, nd.up, degrade / nd.frac);
                self.stats.pseudo_updates += 1;
            }
            match branch {
                Some(bv) => self.expand(open.node, bv, relax.objective, my_basis),
                // Integral leaf: the relaxation point is the optimal
                // incumbent for this box.
                None if !pruned => self.accept(relax, node_idx + 1),
                None => {}
            }
        }
        // Kernel telemetry: a ladder rebuild carries every counter over,
        // so the final kernel holds the whole solve's.
        let k = &self.kernel;
        self.stats.simplex_iters = k.iters + self.tableau_pivots;
        self.stats.refactors = k.factor_stats.refactors;
        self.stats.ft_updates = k.factor_stats.ft_updates;
        self.stats.forced_refactors = k.recovery.forced_refactors;
        self.stats.peak_lu_nnz = k.factor_stats.peak_lu_nnz;
        self.stats.basis_rows = k.dims().0;
        self.stats.recovery = k.recovery().clone();
        self.stats.dual_pivots = k.pivot_stats.dual_pivots;
        self.stats.primal_pivots = k.pivot_stats.primal_pivots + self.tableau_pivots;
        self.stats.bound_flips = k.pivot_stats.bound_flips;
        // Proven dual bound: the unexplored nodes, the dropped ones and
        // the incumbent. A completed search has neither open nor dropped
        // nodes, so the bound collapses to the incumbent objective; a
        // lost or unsolved root leaves it at the signed infinity.
        let bound = min_bound(&self.stack).min(self.lost).min(self.cutoff());
        self.stats.dual_bound = self.sense_mul * bound;
        let truncated = self.stats.truncated;
        match self.best {
            Some(mut sol) => {
                sol.status = if truncated {
                    Status::Feasible
                } else {
                    Status::Optimal
                };
                Ok((sol, self.stats))
            }
            None if truncated => Err(SolveError::IterationLimit),
            None => Err(SolveError::Infeasible),
        }
    }
}

/// The branch-tree walk: collects the box mutations that move the
/// kernel from node `from` to node `t` into `ops` (in application
/// order: undo up to the lowest common ancestor, then re-apply down)
/// and returns `t`'s depth.
fn path_ops(arena: &[TreeNode], from: usize, t: usize, ops: &mut Vec<(usize, f64, f64)>) -> usize {
    let mut a = from;
    let mut b = t;
    let mut down: Vec<usize> = Vec::new();
    while arena[a].depth > arena[b].depth {
        ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
        a = arena[a].parent;
    }
    while arena[b].depth > arena[a].depth {
        down.push(b);
        b = arena[b].parent;
    }
    while a != b {
        ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
        a = arena[a].parent;
        down.push(b);
        b = arena[b].parent;
    }
    for &n in down.iter().rev() {
        ops.push((arena[n].vi, arena[n].lo, arena[n].hi));
    }
    arena[t].depth
}

/// Solves a model: builds the standard form once, seeds the warm-start
/// hint, and runs the loop. With `relaxation` set, integrality is
/// dropped: no column branches, so the root is a leaf. The entry point of
/// [`crate::branch_bound::solve_with_stats_hinted`] and
/// [`Model::solve_relaxation`].
pub(crate) fn search(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
    relaxation: bool,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    // One deadline for the whole solve, installed on the kernel:
    // recovery-ladder rebuilds share a single wall-clock budget instead
    // of each starting a fresh one.
    let deadline = opts.time_limit.map(|limit| Instant::now() + limit);
    let form = StandardForm::build(model, None);
    if form.proven_infeasible {
        // A constant row is violated: no point of any kind exists.
        return Err(SolveError::Infeasible);
    }
    let integer = |var: &Variable| var.integer && !relaxation;
    // Every non-fixed integer — shifted, mirrored, or free (split) —
    // branches through its standard-form substitution.
    let int_maps: Vec<Option<ColMap>> = model
        .vars
        .iter()
        .zip(&form.map)
        .map(|(var, &map)| match map {
            ColMap::Fixed { .. } => None,
            map => integer(var).then_some(map),
        })
        .collect();
    let injector = opts.faults.as_ref().map(FaultInjector::new);
    let kernel = Revised::new(&form, injector, deadline);
    let mut s = Search {
        model,
        opts,
        warm: opts.kernel == Kernel::Revised,
        deadline,
        tableau_pivots: 0,
        form,
        int_maps,
        kernel,
        int_vars: (0..model.vars.len())
            .filter(|&i| integer(&model.vars[i]))
            .map(VarId)
            .collect(),
        sense_mul: match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        },
        pseudo: PseudoCosts {
            cells: vec![Default::default(); model.vars.len()],
            global: PseudoCell::default(),
        },
        arena: vec![TreeNode {
            parent: usize::MAX,
            depth: 0,
            vi: usize::MAX,
            lo: 0.0,
            hi: 0.0,
            parent_lo: 0.0,
            parent_hi: 0.0,
            up: false,
            frac: 0.0,
            parent_obj: f64::NAN,
        }],
        stack: vec![OpenNode {
            node: 0,
            bound: f64::NEG_INFINITY,
            basis: None,
        }],
        lo: model.vars.iter().map(|v| v.lower).collect(),
        hi: model.vars.iter().map(|v| v.upper).collect(),
        cur: 0,
        best: None,
        lost: f64::INFINITY,
        gap_closed: false,
        stats: BranchBoundStats {
            root_bound: f64::NAN,
            ..BranchBoundStats::default()
        },
    };
    if !hint.is_empty() {
        s.seed_hint(hint);
    }
    s.run()
}
