//! Branch & bound for mixed-integer models: the entry points, the LP
//! backend, and the search data structures the depth-first loop in
//! [`crate::search`] runs on.
//!
//! # Architecture
//!
//! Every solve runs the same search loop (`search` module) on the
//! calling thread. This module supplies the pieces that loop is built
//! from:
//!
//! * **The branch tree** — an arena of one-bound-tightening
//!   [`TreeNode`]s. The search moves its kernel between nodes by walking
//!   the tree (undo up to the lowest common ancestor, re-apply down), so
//!   jumping anywhere in the tree costs only the path difference.
//!
//! * **Node ordering**: the open nodes form one LIFO stack of
//!   [`OpenNode`]s, and each branching pushes the nearer side last, so
//!   the search dives depth-first toward the nearer side and weak LP
//!   bounds still reach integral leaves. Entries whose bound cannot beat
//!   the incumbent are discarded unsolved. Every open node carries an
//!   `Rc` of its parent's optimal basis, so a pop after a backtrack
//!   still warm-starts.
//!
//! * **Branching** ([`select_branch_var`]): pseudo-cost branching with
//!   reliability probes, scored by the product rule over the
//!   [`PseudoCosts`] table.
//!
//! * **The LP backend** ([`WarmBackend`]) runs the revised kernel over a
//!   [`BoxedForm`] built once. Branching rewrites a column's `[lo, hi]`
//!   box in place, and since bound changes leave reduced costs
//!   untouched, *any* optimal basis anywhere in the tree is dual
//!   feasible for every node: nodes are reoptimized by a bounded
//!   dual-simplex run from whatever basis the previous node left behind,
//!   falling back to the parent snapshot, then to a cold two-phase solve
//!   (the [`Kernel::DenseTableau`] oracle request solves every node
//!   cold). Every variable shape branches natively: a box `[lo, hi]` on
//!   a shifted, mirrored, or free (split-pair) integer translates to
//!   standard-form column-bound updates via
//!   [`ColMap::box_updates`], so warm starts and pseudo-costs survive
//!   across nodes for all of them. The dense tableau is a kernel-level
//!   oracle only — rung 6 of the per-node recovery ladder, plus a
//!   whole-solve cross-validation pass when [`Kernel::DenseTableau`] is
//!   requested for a MILP (the search runs in the oracle configuration,
//!   then the incumbent's integer assignment is pinned and re-solved by
//!   the genuine dense tableau, which must reproduce the objective).
//!
//! Incumbents come from integral node relaxations and from the caller's
//! warm-start hint ([`solve_with_stats_hinted`]), which is seeded before
//! the first node. Node and wall-clock limits return the best incumbent
//! with [`Status::Feasible`] instead of failing; [`Status::Optimal`] is
//! reported only when the search genuinely completed (or closed the
//! [`SolverOptions::gap_tol`] gap against the open-node bound).

use std::rc::Rc;
use std::time::Instant;

use crate::expr::VarId;
use crate::factor::UpdateKind;
use crate::model::{Kernel, Model, Sense, SolverOptions, FEAS_TOL, INT_TOL};
use crate::recover::RecoveryStats;
use crate::revised::{BasisState, Revised};
use crate::solution::{Solution, SolveError, Status};
use crate::standard::{BoxedForm, ColMap};

/// Search statistics of the last branch-and-bound run (diagnostics and
/// perf telemetry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchBoundStats {
    /// LP relaxations solved (nodes explored).
    pub nodes: usize,
    /// Incumbents found.
    pub incumbents: usize,
    /// True when a limit (nodes or time) stopped the search.
    pub truncated: bool,
    /// Objective of the root LP relaxation (`NaN` when the root LP
    /// failed or was never solved).
    pub root_bound: f64,
    /// Total simplex pivots across every LP the search solved (node
    /// relaxations, warm reoptimizations, strong-branch probes, the hint
    /// re-solve).
    pub simplex_iters: usize,
    /// Node LPs successfully reoptimized from the parent basis.
    pub warm_solves: usize,
    /// Node LPs solved two-phase from scratch (root, fallbacks, and all
    /// nodes under the [`Kernel::DenseTableau`] oracle request).
    pub cold_solves: usize,
    /// Basis refactorizations across the whole search.
    pub refactors: usize,
    /// Successful Forrest–Tomlin factor updates (0 under the
    /// [`Kernel::DenseTableau`] oracle request, which runs the product
    /// form).
    pub ft_updates: usize,
    /// Refactorizations forced by a refused (unstable) Forrest–Tomlin
    /// update rather than the scheduled length/fill policy.
    pub forced_refactors: usize,
    /// Largest nonzero count the (updated) `U` factor reached — the fill
    /// price of absorbing pivots into the factors under Forrest–Tomlin;
    /// `m²` under the dense LU of the [`Kernel::DenseTableau`] request.
    pub peak_u_nnz: usize,
    /// Largest `nnz(L+U)` any basis snapshot reached — the actual fill of
    /// the sparse LU, `m²` under the dense LU of the
    /// [`Kernel::DenseTableau`] request.
    pub peak_lu_nnz: usize,
    /// Basis dimension (constraint rows) of the bounded-variable form
    /// (0 for rowless models, which solve in closed form).
    pub basis_rows: usize,
    /// Peak size of the open-node stack (queued but not yet expanded
    /// nodes).
    pub queue_peak: usize,
    /// Node count at the moment the first incumbent was accepted (0 =
    /// seeded by the warm-start hint, before any node was solved).
    /// Meaningful only when `incumbents > 0`.
    pub first_incumbent_node: usize,
    /// `(node index, objective)` at every incumbent acceptance, in
    /// order — the improvement trajectory of the search.
    pub incumbent_trace: Vec<(usize, f64)>,
    /// LP relaxation objective of every solved node, in solve order
    /// (`NaN` for nodes whose LP failed or proved infeasible). Length
    /// equals `nodes`; entries discarded unsolved do not appear.
    pub node_bounds: Vec<f64>,
    /// Candidates strong-branched by the reliability rule (each counts
    /// one probed candidate, i.e. up to two child dual-simplex probes).
    pub strong_branches: usize,
    /// Pseudo-cost observations recorded: node bound degradations plus
    /// strong-branch probe results.
    pub pseudo_updates: usize,
    /// Always 0: every row, the cycle-sum cuts of `MAX_THR` included,
    /// is an ordinary constraint, so the search adds no cut. The field
    /// stays because the `perfbench` reports read it.
    pub cuts_added: usize,
    /// Always 0: no row is activated during the search. The field stays
    /// because the `perfbench` reports read it.
    pub cuts_activated: usize,
    /// Tightest proven dual bound at termination, in the model's sense:
    /// the minimum bound over the open stack and over the nodes dropped
    /// after an LP failure, joined with the incumbent. Equals the
    /// incumbent objective when the search completed; the signed
    /// infinity when no finite bound was proven (a lost or unsolved
    /// root).
    pub dual_bound: f64,
    /// Numerical-event and recovery-ladder counters (see
    /// [`crate::recover`]).
    pub recovery: RecoveryStats,
    /// Basis-change pivots performed by the dual reoptimizer — the warm
    /// B&B hot path (a subset of `simplex_iters`).
    pub dual_pivots: usize,
    /// Basis-change pivots performed by the primal phases, including
    /// artificial drive-out swaps.
    pub primal_pivots: usize,
    /// Bound flips: primal entering columns whose span ran out before
    /// any basic variable blocked, plus the exhausted candidates every
    /// dual pivot's long-step ratio test flipped on its way to the
    /// entering column
    /// (`dual_pivots + primal_pivots + bound_flips = simplex_iters`).
    pub bound_flips: usize,
    /// Always 0: the kernel keeps no pricing weights to reset. The field
    /// stays because the `perfbench` reports read it.
    pub weight_resets: usize,
}

/// Outcome of one strong-branch child probe (see
/// [`WarmBackend::probe_branch`]). Probe results only *bias* branching —
/// an `Infeasible` verdict steers selection toward the variable but
/// never prunes, so an unverified probe cannot break correctness.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeOutcome {
    /// The backend could not probe (cold oracle nodes, kernel not dual
    /// feasible, probe budget exhausted): use the estimate.
    Skipped,
    /// The child LP solved to optimality within the probe budget.
    Bound(f64),
    /// The child box is dual-simplex infeasible.
    Infeasible,
}

/// Pseudo-cost table: per variable × direction mean bound degradation
/// per unit of fractionality, learned from node solves and
/// strong-branch probes.
pub(crate) struct PseudoCosts {
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
    pub(crate) fn new(nvars: usize) -> PseudoCosts {
        PseudoCosts {
            cells: vec![Default::default(); nvars],
            global: PseudoCell::default(),
        }
    }

    /// Records one observed degradation per unit fractionality.
    pub(crate) fn record(&mut self, vi: usize, up: bool, degrade_per_frac: f64) {
        self.cells[vi][up as usize].add(degrade_per_frac);
        self.global.add(degrade_per_frac);
    }

    /// Observation count of one direction (the reliability test).
    pub(crate) fn observations(&self, vi: usize, up: bool) -> u64 {
        self.cells[vi][up as usize].count
    }

    /// Mean observed degradation per unit fractionality; variables with
    /// no observations inherit the global mean (0 before any
    /// observation anywhere, which makes scoring fall back to pure
    /// fractionality ordering).
    pub(crate) fn estimate(&self, vi: usize, up: bool) -> f64 {
        let cell = &self.cells[vi][up as usize];
        let cell = if cell.count > 0 { cell } else { &self.global };
        if cell.count == 0 {
            return 0.0;
        }
        cell.sum / cell.count as f64
    }
}

// ---------------------------------------------------------------------------
// LP backend
// ---------------------------------------------------------------------------

/// Revised-kernel backend over a [`BoxedForm`] built once; branching
/// mutates column boxes in place and nodes dual-reoptimize from the
/// previous basis.
pub(crate) struct WarmBackend<'a> {
    pub(crate) model: &'a Model,
    pub(crate) form: BoxedForm,
    /// Per model variable: the standard-form substitution of every
    /// branchable integer (shifted, mirrored, or split); `None` for
    /// continuous variables and integers fixed at the root. Branch boxes
    /// translate through [`ColMap::box_updates`].
    pub(crate) int_maps: Vec<Option<ColMap>>,
    pub(crate) kernel: Revised,
}

impl WarmBackend<'_> {
    /// Dual-reoptimizes the kernel **in place** (no refactorization): any
    /// dual-feasible basis is a valid warm-start seed for any boxes, so the
    /// state the previous node left behind works directly. `Err` values
    /// are *soft* failures (fall back) except [`SolveError::Infeasible`],
    /// which is a genuine verdict.
    fn try_warm_in_place(&mut self, opts: &SolverOptions) -> Result<(), SolveError> {
        // Bounded reoptimization: a healthy warm start takes a handful of
        // pivots; if the dual run exceeds this budget a cold solve is
        // cheaper than fighting degeneracy.
        let (m, n) = self.kernel.dims();
        let mut dual_budget = (1_000 + m + n / 4).min(opts.max_pivots);
        self.kernel.dual_reopt(&mut dual_budget)?;
        let mut budget = opts.max_pivots;
        self.kernel.primal_opt(&mut budget)?;
        if self.kernel.has_active_artificial(1e-6) {
            return Err(SolveError::Numerical("artificial reactivated".into()));
        }
        Ok(())
    }

    /// Like [`WarmBackend::try_warm_in_place`] but re-installing an
    /// explicit (parent) basis first — the fallback when the in-place
    /// state is unusable.
    fn try_warm_install(
        &mut self,
        opts: &SolverOptions,
        state: &BasisState,
    ) -> Result<(), SolveError> {
        self.kernel.install_basis(state)?;
        self.try_warm_in_place(opts)
    }

    /// The solution at the kernel's current optimum.
    fn node_solution(&self) -> Solution {
        let values = self.form.sf.recover(&self.kernel.values());
        let objective = self.model.objective.eval(&values);
        Solution {
            values,
            objective,
            status: Status::Optimal,
        }
    }

    /// The per-node recovery ladder, rungs 3–6 of [`crate::recover`]:
    /// product-form switch → cold rebuild → Bland-only pricing →
    /// dense-oracle kernel. Entered after a cold solve failed with a
    /// retryable error (budget/numerics) or produced a bound the
    /// residual trust gate refused. Every rung is counted before its
    /// attempt, re-solves from scratch on a fresh pivot budget, and must
    /// itself pass the trust gate; `Infeasible`/`Unbounded` from a rung
    /// is a genuine verdict. On success (or a verdict) the original
    /// configuration is restored — the next node then cold-starts
    /// through the ordinary warm-fallback path. Total failure returns
    /// the error that started the ladder.
    fn recover_node(
        &mut self,
        opts: &SolverOptions,
        first: SolveError,
    ) -> Result<Solution, SolveError> {
        for rung in 0..4u8 {
            // The ladder must not fight a spent wall clock: each failed
            // attempt would just re-pay the solve entry check.
            if self.kernel.out_of_time() {
                break;
            }
            match rung {
                0 => {
                    self.kernel.recovery.product_form_switches += 1;
                    self.kernel.set_update_kind(UpdateKind::ProductForm);
                }
                1 => {
                    self.kernel.recovery.cold_rebuilds += 1;
                    self.kernel = self.kernel.rebuilt(&self.form, opts);
                }
                2 => {
                    self.kernel.recovery.bland_restarts += 1;
                    self.kernel.set_force_bland(true);
                }
                _ => {
                    self.kernel.recovery.dense_oracle_solves += 1;
                    let oracle = SolverOptions {
                        kernel: Kernel::DenseTableau,
                        ..opts.clone()
                    };
                    self.kernel = self.kernel.rebuilt(&self.form, &oracle);
                }
            }
            let mut budget = opts.max_pivots;
            match self.kernel.solve_two_phase(&mut budget) {
                Ok(()) => {
                    if self.kernel.verify_residual() {
                        // Extract before the restore discards the state.
                        let sol = self.node_solution();
                        self.restore_kernel(opts);
                        return Ok(sol);
                    }
                    // Untrustworthy bound: escalate to the next rung.
                }
                Err(e @ (SolveError::Infeasible | SolveError::Unbounded)) => {
                    self.restore_kernel(opts);
                    return Err(e);
                }
                Err(_) => {}
            }
        }
        // Exhausted (or out of time): leave a clean configuration behind
        // and report the failure that started the ladder.
        self.restore_kernel(opts);
        Err(first)
    }

    /// Restores the pre-ladder configuration: Bland forcing off, a fresh
    /// kernel under the original options. The fresh kernel has no basis
    /// yet — [`WarmBackend::snapshot`] guards against handing that state
    /// to children, and the next node solve re-establishes one (warm
    /// from its parent snapshot, or cold).
    fn restore_kernel(&mut self, opts: &SolverOptions) {
        self.kernel.set_force_bland(false);
        self.kernel = self.kernel.rebuilt(&self.form, opts);
    }

    /// Pushes a model variable's box into the LP (a no-op for variables
    /// without standard-form columns, i.e. fixed at the root).
    pub(crate) fn set_var_box(&mut self, vi: usize, lo: f64, hi: f64) {
        if let Some(map) = self.int_maps[vi] {
            for (col, l, u) in map.box_updates(lo, hi).into_iter().flatten() {
                self.kernel.set_col_bounds(col, l, u);
            }
        }
    }

    /// Solves the current node LP: in-place dual reoptimization when the
    /// kernel state allows it, else from the parent basis, else cold.
    pub(crate) fn solve_node(
        &mut self,
        opts: &SolverOptions,
        parent: Option<&BasisState>,
        stats: &mut BranchBoundStats,
    ) -> Result<Solution, SolveError> {
        if let Some(parent_state) = parent.filter(|_| opts.kernel.setup().warm) {
            let outcome = if self.kernel.dual_ok() {
                self.try_warm_in_place(opts)
            } else {
                Err(SolveError::Numerical("kernel not dual feasible".into()))
            };
            let outcome = match outcome {
                // Soft failure: retry from the parent's optimal basis.
                Err(e) if e != SolveError::Infeasible => self.try_warm_install(opts, parent_state),
                other => other,
            };
            match outcome {
                Ok(()) => {
                    // Residual trust gate: a bound computed on drifting
                    // factors must not prune — fall through to the cold
                    // path instead (the gate already healed the factors).
                    if self.kernel.verify_residual() {
                        stats.warm_solves += 1;
                        return Ok(self.node_solution());
                    }
                }
                Err(SolveError::Infeasible) => {
                    // A dual-simplex proof of infeasibility concluded
                    // the node — that is a successful warm solve.
                    stats.warm_solves += 1;
                    return Err(SolveError::Infeasible);
                }
                // Iteration limit, numerics, singular basis: retry cold.
                Err(_) => {}
            }
        }
        stats.cold_solves += 1;
        let mut budget = opts.max_pivots;
        match self.kernel.solve_two_phase(&mut budget) {
            Ok(()) => {
                if self.kernel.verify_residual() {
                    return Ok(self.node_solution());
                }
                self.recover_node(
                    opts,
                    SolveError::Numerical("residual drift at node bound".into()),
                )
            }
            // Genuine verdicts end the node; retryable failures (budget,
            // numerics) enter the recovery ladder.
            Err(e @ (SolveError::Infeasible | SolveError::Unbounded)) => Err(e),
            Err(first) => self.recover_node(opts, first),
        }
    }

    /// Warm-start state children should resume from (`None` for the
    /// cold oracle nodes or when the kernel has no basis).
    pub(crate) fn snapshot(&self, opts: &SolverOptions) -> Option<BasisState> {
        // Skipped entirely under the cold oracle request, which never
        // reads it; also skipped right after a ladder restore, whose
        // fresh kernel has no basis to hand to children yet.
        (opts.kernel.setup().warm && self.kernel.has_basis()).then(|| self.kernel.basis_snapshot())
    }

    /// Hint seeding: pin `pins`, solve from scratch, restore, and return
    /// the solution (`None` when the pinned LP fails).
    pub(crate) fn seed_hint(
        &mut self,
        opts: &SolverOptions,
        pins: &[(usize, f64)],
        restore: &[(usize, f64, f64)],
    ) -> Option<Solution> {
        for &(vi, val) in pins {
            self.set_var_box(vi, val, val);
        }
        let mut budget = opts.max_pivots;
        let sol = match self.kernel.solve_two_phase(&mut budget) {
            // The hint becomes an incumbent, so it passes the same
            // residual trust gate as node bounds.
            Ok(()) if self.kernel.verify_residual() => Some(self.node_solution()),
            _ => None,
        };
        for &(vi, l, h) in restore {
            self.set_var_box(vi, l, h);
        }
        sol
    }

    /// Folds this backend's kernel telemetry into `stats`
    /// **additively**: counters accumulate, peaks take the max, and the
    /// recovery ledger is absorbed rather than overwritten.
    pub(crate) fn finish(&self, stats: &mut BranchBoundStats) {
        stats.simplex_iters += self.kernel.iters;
        stats.refactors += self.kernel.factor_stats.refactors;
        stats.ft_updates += self.kernel.factor_stats.ft_updates;
        stats.forced_refactors += self.kernel.factor_stats.forced_refactors;
        stats.peak_lu_nnz = stats.peak_lu_nnz.max(self.kernel.factor_stats.peak_lu_nnz);
        stats.peak_u_nnz = stats.peak_u_nnz.max(self.kernel.factor_stats.peak_u_nnz);
        stats.basis_rows = self.kernel.dims().0;
        stats.recovery.absorb(self.kernel.recovery());
        stats.dual_pivots += self.kernel.pivot_stats.dual_pivots;
        stats.primal_pivots += self.kernel.pivot_stats.primal_pivots;
        stats.bound_flips += self.kernel.pivot_stats.bound_flips;
    }

    /// Strong-branch probe: a bounded dual reoptimization of the child
    /// box `[lo, hi]` of `vi` from the current node optimum, restoring
    /// the box `[restore_lo, restore_hi]` (but not the basis — any
    /// dual-feasible basis warm-starts any node) afterwards.
    pub(crate) fn probe_branch(
        &mut self,
        opts: &SolverOptions,
        vi: usize,
        lo: f64,
        hi: f64,
        restore_lo: f64,
        restore_hi: f64,
    ) -> ProbeOutcome {
        if self.int_maps[vi].is_none() || !opts.kernel.setup().warm || !self.kernel.dual_ok() {
            return ProbeOutcome::Skipped;
        }
        self.set_var_box(vi, lo, hi);
        let mut budget = STRONG_BRANCH_PIVOTS;
        let out = match self.kernel.dual_reopt(&mut budget) {
            Ok(()) if !self.kernel.has_active_artificial(1e-6) => ProbeOutcome::Bound(
                self.model
                    .objective
                    .eval(&self.form.sf.recover(&self.kernel.values())),
            ),
            Ok(()) => ProbeOutcome::Skipped,
            Err(SolveError::Infeasible) => ProbeOutcome::Infeasible,
            // Budget exhausted or numerics: no usable probe bound.
            Err(_) => ProbeOutcome::Skipped,
        };
        self.set_var_box(vi, restore_lo, restore_hi);
        out
    }
}

// ---------------------------------------------------------------------------
// Search core
// ---------------------------------------------------------------------------

/// One node of the branch tree: a single bound tightening of `vi` on top
/// of `parent`. Activating a node walks the tree from the previously
/// active one (undo to the lowest common ancestor, apply down).
pub(crate) struct TreeNode {
    pub(crate) parent: usize,
    pub(crate) depth: usize,
    /// Model variable branched on (`usize::MAX` for the root).
    pub(crate) vi: usize,
    /// The tightened box of `vi` at this node.
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    /// `vi`'s box at the parent (for the undo walk).
    pub(crate) parent_lo: f64,
    pub(crate) parent_hi: f64,
    /// `true` when this is the up (ceil) child of its branching.
    pub(crate) up: bool,
    /// Fractionality of the parent relaxation value toward this side
    /// (`val - ⌊val⌋` down, `⌈val⌉ - val` up); 0 at the root.
    pub(crate) frac: f64,
    /// Parent relaxation objective (model sense) — the baseline a
    /// pseudo-cost observation measures this node's bound degradation
    /// against. NaN at the root.
    pub(crate) parent_obj: f64,
}

impl TreeNode {
    /// The root sentinel (no parent, no tightening).
    pub(crate) fn root() -> TreeNode {
        TreeNode {
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
        }
    }
}

/// The two children of branching `vi` at fractional value `val` inside
/// the box `[plo, phi]`, returned `[far, near]` (the nearer branching
/// side last, so the LIFO stack pops it first). Children whose box
/// would be empty are `None`.
pub(crate) fn branch_children(
    parent: usize,
    depth: usize,
    vi: usize,
    val: f64,
    plo: f64,
    phi: f64,
    parent_obj: f64,
) -> [Option<TreeNode>; 2] {
    let floor = val.floor();
    let ceil = val.ceil();
    let down_first = val - floor <= ceil - val;
    let down_child = (plo <= phi.min(floor)).then(|| TreeNode {
        parent,
        depth,
        vi,
        lo: plo,
        hi: phi.min(floor),
        parent_lo: plo,
        parent_hi: phi,
        up: false,
        frac: val - floor,
        parent_obj,
    });
    let up_child = (plo.max(ceil) <= phi).then(|| TreeNode {
        parent,
        depth,
        vi,
        lo: plo.max(ceil),
        hi: phi,
        parent_lo: plo,
        parent_hi: phi,
        up: true,
        frac: ceil - val,
        parent_obj,
    });
    if down_first {
        [up_child, down_child]
    } else {
        [down_child, up_child]
    }
}

/// Reliability threshold of pseudo-cost branching: a variable direction
/// with fewer recorded observations than this is strong-branched instead
/// of trusted. Strong branching earns its keep: with it switched off
/// (threshold 0, pseudo-costs learned from node observations only),
/// `maxthr150` at seed 2009 proved 4 of 18 circuits instead of 8.
const RELIABILITY: u64 = 4;

/// Dual-simplex pivot budget of one strong-branch probe.
const STRONG_BRANCH_PIVOTS: usize = 100;

/// At most this many unreliable candidates are strong-branched per node
/// (the rest fall back to their pseudo-cost estimates).
const STRONG_BRANCH_CANDIDATES: usize = 8;

/// Pseudo-cost branching with reliability probes: among the fractional
/// candidates of the highest priority class, strong-branch (bounded
/// dual-simplex probe of both children) the most fractional candidates
/// whose pseudo-costs are not yet reliable, record the observed
/// degradations, and pick the candidate maximizing the product score
/// `max(down·f⁻, ε) · max(up·f⁺, ε)`. A probe that proves a child
/// infeasible scores `+∞` (branching there closes one side for free)
/// but never prunes. Ties break toward higher fractionality, then lower
/// `VarId`. Returns `None` when the point is integral.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_branch_var(
    backend: &mut WarmBackend,
    model: &Model,
    opts: &SolverOptions,
    int_vars: &[VarId],
    sol: &Solution,
    lo: &[f64],
    hi: &[f64],
    sense_mul: f64,
    pseudo: &mut PseudoCosts,
    stats: &mut BranchBoundStats,
) -> Option<(VarId, f64)> {
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
    for &v in int_vars {
        let val = sol.value(v);
        let frac = (val - val.round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        let p = model.var(v).priority();
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
    if cands.is_empty() {
        return None;
    }
    if cands.len() == 1 {
        return Some((cands[0].v, cands[0].val));
    }
    // Reliability rule: strong-branch the most fractional candidates
    // whose weaker direction has fewer than `RELIABILITY` observations.
    let mut unreliable: Vec<usize> = (0..cands.len())
        .filter(|&i| {
            let vi = cands[i].v.index();
            let seen = pseudo
                .observations(vi, false)
                .min(pseudo.observations(vi, true));
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
    for i in unreliable {
        let (vi, val, fd, fu) = {
            let c = &cands[i];
            (c.v.index(), c.val, c.fd, c.fu)
        };
        let (l, h) = (lo[vi], hi[vi]);
        let node_obj = sense_mul * sol.objective;
        let (floor, ceil) = (val.floor(), val.ceil());
        // An empty child box is an infeasible side by construction.
        let down = if l <= h.min(floor) {
            backend.probe_branch(opts, vi, l, h.min(floor), l, h)
        } else {
            ProbeOutcome::Infeasible
        };
        let up = if l.max(ceil) <= h {
            backend.probe_branch(opts, vi, l.max(ceil), h, l, h)
        } else {
            ProbeOutcome::Infeasible
        };
        let mut probed = false;
        for (out, is_up, f) in [(down, false, fd), (up, true, fu)] {
            match out {
                ProbeOutcome::Bound(obj) => {
                    probed = true;
                    let degrade = (sense_mul * obj - node_obj).max(0.0);
                    if f > INT_TOL {
                        pseudo.record(vi, is_up, degrade / f);
                        stats.pseudo_updates += 1;
                    }
                    let slot = if is_up {
                        &mut cands[i].up
                    } else {
                        &mut cands[i].down
                    };
                    *slot = degrade;
                }
                ProbeOutcome::Infeasible => {
                    probed = true;
                    let slot = if is_up {
                        &mut cands[i].up
                    } else {
                        &mut cands[i].down
                    };
                    *slot = f64::INFINITY;
                }
                ProbeOutcome::Skipped => {}
            }
        }
        if probed {
            stats.strong_branches += 1;
        }
    }
    // Product-rule scoring, probe results overriding estimates.
    let mut best_i = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, c) in cands.iter().enumerate() {
        let vi = c.v.index();
        let d = if c.down.is_nan() {
            pseudo.estimate(vi, false) * c.fd
        } else {
            c.down
        };
        let u = if c.up.is_nan() {
            pseudo.estimate(vi, true) * c.fu
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

/// An open (queued) node: arena index, parent LP bound, and the
/// parent's basis for warm-start handoff.
pub(crate) struct OpenNode {
    pub(crate) node: usize,
    /// Valid (parent) LP bound, signed (minimization form) — what
    /// pruning and discard tests compare against the incumbent.
    pub(crate) bound: f64,
    pub(crate) basis: Option<Rc<BasisState>>,
}

/// Minimum valid LP bound over `open` (`+∞` when empty).
pub(crate) fn min_bound(open: &[OpenNode]) -> f64 {
    open.iter().map(|o| o.bound).fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

pub(crate) fn finish(
    best: Option<Solution>,
    stats: BranchBoundStats,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let truncated = stats.truncated;
    match best {
        Some(mut sol) => {
            sol.status = if truncated {
                Status::Feasible
            } else {
                Status::Optimal
            };
            Ok((sol, stats))
        }
        None if truncated => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

/// Solves a mixed-integer model; see [`Model::solve_with`] and
/// [`Model::solve_with_hint`].
pub(crate) fn solve(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
) -> Result<Solution, SolveError> {
    let (sol, _stats) = solve_with_stats_hinted(model, opts, hint)?;
    Ok(sol)
}

/// Like [`Model::solve_with`] but also returns search statistics.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when no integral point exists,
/// [`SolveError::Unbounded`] when the relaxation is unbounded, and
/// [`SolveError::IterationLimit`] when limits stopped the search before any
/// incumbent was found.
pub fn solve_with_stats(
    model: &Model,
    opts: &SolverOptions,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    solve_with_stats_hinted(model, opts, &[])
}

/// [`solve_with_stats`] with a warm-start hint for the integer variables.
///
/// # Errors
///
/// See [`solve_with_stats`].
pub fn solve_with_stats_hinted(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
) -> Result<(Solution, BranchBoundStats), SolveError> {
    // One deadline for the whole solve, captured here and installed on
    // the kernel: recovery-ladder rebuilds share a single wall-clock
    // budget instead of each starting a fresh one.
    let deadline = opts.time_limit.map(|limit| Instant::now() + limit);
    let want_oracle = opts.kernel == Kernel::DenseTableau;
    let form = BoxedForm::build(model);
    if form.sf.proven_infeasible {
        // A constant row is violated: no point of any kind exists.
        return Err(SolveError::Infeasible);
    }
    // Every non-fixed integer — shifted, mirrored, or free (split) —
    // branches natively through its standard-form substitution.
    let int_maps: Vec<Option<ColMap>> = model
        .vars
        .iter()
        .enumerate()
        .map(|(vi, var)| {
            if !var.integer {
                return None;
            }
            match form.sf.map[vi] {
                ColMap::Fixed { .. } => None,
                map => Some(map),
            }
        })
        .collect();
    if form.sf.rows.is_empty() {
        // Every constraint was constant (and satisfied): the model
        // separates per variable and solves in closed form.
        let result = solve_rowless(model);
        if want_oracle {
            if let Ok((sol, _)) = &result {
                cross_validate_dense(model, opts, sol)?;
            }
        }
        return result;
    }
    let result = crate::search::search(model, opts, hint, form, int_maps, deadline);
    if want_oracle {
        if let Ok((sol, _)) = &result {
            cross_validate_dense(model, opts, sol)?;
        }
    }
    result
}

/// Closed-form solve of a rowless model (every constraint folded to a
/// satisfied constant): the objective separates per variable, so each
/// one independently takes the best value in its (integer-tightened)
/// box. Mirrors the rowless short-circuit of the standalone LP path but
/// over the integer lattice.
fn solve_rowless(model: &Model) -> Result<(Solution, BranchBoundStats), SolveError> {
    let sense_mul = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; model.vars.len()];
    for (v, c) in model.objective.iter() {
        cost[v.index()] += c * sense_mul;
    }
    let mut values = Vec::with_capacity(model.vars.len());
    for (vi, var) in model.vars.iter().enumerate() {
        let (mut l, mut u) = (var.lower, var.upper);
        if var.integer {
            if l.is_finite() {
                l = (l - INT_TOL).ceil();
            }
            if u.is_finite() {
                u = (u + INT_TOL).floor();
            }
            if l > u {
                // No integer fits the box (e.g. fixed at a fraction).
                return Err(SolveError::Infeasible);
            }
        }
        let c = cost[vi];
        let x = if c > FEAS_TOL {
            if !l.is_finite() {
                return Err(SolveError::Unbounded);
            }
            l
        } else if c < -FEAS_TOL {
            if !u.is_finite() {
                return Err(SolveError::Unbounded);
            }
            u
        } else if l.is_finite() {
            // Costless variables rest at a bound (matching the LP
            // relaxation's shifted/mirrored origin), at 0 when free.
            l
        } else if u.is_finite() {
            u
        } else {
            0.0
        };
        values.push(x);
    }
    let objective = model.objective.eval(&values);
    let sol = Solution {
        values,
        objective,
        status: Status::Optimal,
    };
    let stats = BranchBoundStats {
        nodes: 1,
        incumbents: 1,
        root_bound: objective,
        dual_bound: objective,
        cold_solves: 1,
        first_incumbent_node: 1,
        incumbent_trace: vec![(1, objective)],
        node_bounds: vec![objective],
        queue_peak: 1,
        ..BranchBoundStats::default()
    };
    Ok((sol, stats))
}

/// Whole-solve oracle cross-validation, armed when the caller requested
/// [`Kernel::DenseTableau`] for a MILP: the search itself ran on the
/// unified backend (in the oracle configuration the kernel request
/// selects); here the incumbent's integer assignment
/// is pinned on a model clone and re-solved by the genuine dense
/// tableau, which must reproduce the objective. The incumbent point is
/// feasible for the pinned model and every point of the pinned model
/// lies in the incumbent's node box, so the two objectives tie at an
/// exact optimum — any disagreement is a numerical verdict, not noise.
fn cross_validate_dense(
    model: &Model,
    opts: &SolverOptions,
    sol: &Solution,
) -> Result<(), SolveError> {
    let mut pinned = model.clone();
    for (v, var) in model.vars() {
        if var.is_integer() {
            let val = sol.value(v).round().clamp(var.lower(), var.upper());
            pinned.fix_var(v, val);
        }
    }
    let oracle = SolverOptions {
        kernel: Kernel::DenseTableau,
        ..opts.clone()
    };
    let check = match pinned.solve_relaxation(&oracle) {
        Ok(check) => check,
        Err(e) => {
            return Err(SolveError::Numerical(format!(
                "dense-oracle cross-validation failed on the pinned incumbent: {e:?}"
            )))
        }
    };
    let tol = 1e-6 * sol.objective.abs().max(1.0);
    if (check.objective - sol.objective).abs() > tol {
        return Err(SolveError::Numerical(format!(
            "dense-oracle cross-validation disagrees: search {} vs tableau {}",
            sol.objective, check.objective
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Model, Sense};
    use crate::LinExpr;

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary → a=0,b=1,c=1 (20)
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 1.0);
        let b = m.add_integer("b", 0.0, 1.0);
        let c = m.add_integer("c", 0.0, 1.0);
        m.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
        m.add_constraint(3.0 * a + 4.0 * b + 2.0 * c, cmp::LE, 6.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 20.0).abs() < 1e-6, "obj {}", sol.objective);
        assert_eq!(sol.int_value(a), 0);
        assert_eq!(sol.int_value(b), 1);
        assert_eq!(sol.int_value(c), 1);
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // LP optimum fractional; integer optimum differs from naive rounding.
        // max y s.t. -x + y <= 0.5, x + y <= 3.5, 0<=x<=3 int, y int
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 3.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.set_objective(LinExpr::var(y));
        m.add_constraint(-1.0 * x + y, cmp::LE, 0.5);
        m.add_constraint(x + y, cmp::LE, 3.5);
        let sol = m.solve().unwrap();
        // y <= min(x + 0.5, 3.5 - x); best integer: x=1,y=1 or x=2,y=1 → y=1
        assert_eq!(sol.int_value(y), 1);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + y s.t. x + y >= 3.3, x int >= 0, y cont >= 0 → x=0? no:
        // x=0 → y=3.3 cost 3.3; x=1 → y=2.3 cost 4.3. Optimal x=0.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(2.0 * x + y);
        m.add_constraint(x + y, cmp::GE, 3.3);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), 0);
        assert!((sol[y] - 3.3).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x == 3 has no integer solution.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(2.0 * x, cmp::EQ, 3.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn negative_integer_ranges() {
        // min x s.t. x >= -2.5, x integer in [-10, 10] → x = -2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", -10.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -2.5);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), -2);
    }

    #[test]
    fn node_limit_reports_feasible_or_limit() {
        // A model where optimality needs some search; a 1-node budget must
        // either produce an incumbent (Feasible) or IterationLimit.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
            .collect();
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj += ((i % 3 + 1) as f64) * v;
            row += ((i % 5 + 1) as f64) * v;
        }
        m.set_objective(obj);
        m.add_constraint(row, cmp::LE, 7.5);
        let opts = SolverOptions {
            max_nodes: 1,
            ..Default::default()
        };
        match m.solve_with(&opts) {
            Ok(sol) => assert_eq!(sol.status, Status::Feasible),
            Err(e) => assert_eq!(e, SolveError::IterationLimit),
        }
    }

    /// A node-cap-truncated search holding an incumbent must be
    /// distinguishable from a proven optimum everywhere: solution status,
    /// the `truncated` stats flag, and the incumbent trace.
    #[test]
    fn truncated_search_is_explicitly_feasible_not_optimal() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
            .collect();
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj += (100.0 + (i % 7) as f64 * 0.01) * v;
            row += (100.0 + (i % 5) as f64 * 0.013) * v;
        }
        m.set_objective(obj);
        m.add_constraint(row, cmp::LE, 500.37);
        // A hint guarantees an incumbent exists even at a tiny node cap.
        let hint: Vec<_> = vars.iter().map(|&v| (v, 0.0)).collect();
        let truncated_opts = SolverOptions {
            max_nodes: 2,
            gap_tol: 0.0,
            ..Default::default()
        };
        let (sol, stats) = solve_with_stats_hinted(&m, &truncated_opts, &hint).unwrap();
        assert_eq!(
            sol.status,
            Status::Feasible,
            "truncated search must not claim Optimal"
        );
        assert!(stats.truncated, "stats must record the truncation");
        // The same model run to completion is Optimal and not truncated.
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(!stats.truncated);
    }

    #[test]
    fn stats_reported() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_integer("a", 0.0, 5.0);
        let b = m.add_integer("b", 0.0, 5.0);
        m.set_objective(3.0 * a + 2.0 * b);
        m.add_constraint(2.0 * a + 3.0 * b, cmp::LE, 11.5);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert!(stats.nodes >= 1);
        assert!(!stats.truncated);
        assert!(stats.simplex_iters >= 1, "no pivots counted");
        assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
        // Root LP bound is at least as good as the integer optimum.
        assert!(stats.root_bound >= sol.objective - 1e-9);
        // New telemetry: every solved node logged a bound, the incumbent
        // trace ends at the returned objective, and the queue peaked.
        assert_eq!(stats.node_bounds.len(), stats.nodes);
        assert!(stats.queue_peak >= 1);
        assert_eq!(stats.incumbent_trace.len(), stats.incumbents);
        let (last_node, last_obj) = *stats.incumbent_trace.last().unwrap();
        assert!(last_node <= stats.nodes);
        assert!((last_obj - sol.objective).abs() < 1e-9);
        assert!(stats.first_incumbent_node <= stats.nodes);
    }

    #[test]
    fn assignment_lp_is_integral_and_fast() {
        // 3x3 assignment problem: totally unimodular, so the relaxation is
        // already integral and B&B should finish at the root.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut x = vec![];
        for i in 0..3 {
            let mut row = vec![];
            for j in 0..3 {
                row.push(m.add_integer(format!("x{i}{j}"), 0.0, 1.0));
            }
            x.push(row);
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj += cost[i][j] * x[i][j];
            }
        }
        m.set_objective(obj);
        for (i, row) in x.iter().enumerate() {
            let mut r = LinExpr::new();
            let mut c = LinExpr::new();
            for (j, &v) in row.iter().enumerate() {
                r += LinExpr::var(v);
                c += LinExpr::var(x[j][i]);
            }
            m.add_constraint(r, cmp::EQ, 1.0);
            m.add_constraint(c, cmp::EQ, 1.0);
        }
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        // Optimal assignment cost: 2 + 4 + 6 = 12 (several optima).
        assert!((sol.objective - 12.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!(stats.nodes <= 3, "took {} nodes", stats.nodes);
    }

    /// A multi-row knapsack family needing real search.
    fn multi_row_knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let n = 12;
        let mut obj = LinExpr::new();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 3.0))
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            obj += ((i % 5 + 2) as f64) * v;
        }
        m.set_objective(obj);
        for r in 0..5 {
            let mut row = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                row += (((i + r) % 3 + 1) as f64) * v;
            }
            m.add_constraint(row, cmp::LE, 17.5 + r as f64);
        }
        m
    }

    /// The production search (warm nodes) and the dense-tableau oracle
    /// request (cold nodes) agree on [`multi_row_knapsack`], and warm
    /// starts engage and save pivots.
    #[test]
    fn warm_cold_and_oracle_agree() {
        let m = multi_row_knapsack();
        let oracle = SolverOptions {
            kernel: Kernel::DenseTableau,
            ..Default::default()
        };
        let (s_warm, st_warm) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        let (s_oracle, st_oracle) = solve_with_stats(&m, &oracle).unwrap();
        assert!((s_warm.objective - s_oracle.objective).abs() < 1e-6);
        assert!(st_warm.warm_solves > 0, "no warm solves recorded");
        assert_eq!(st_oracle.warm_solves, 0, "oracle nodes must solve cold");
        assert!(
            st_warm.simplex_iters <= st_oracle.simplex_iters,
            "warm {} pivots vs cold {}",
            st_warm.simplex_iters,
            st_oracle.simplex_iters
        );
    }

    /// The production search and the dense-tableau request (which
    /// additionally cross-validates its incumbent against the tableau)
    /// complete on [`multi_row_knapsack`] and agree.
    #[test]
    fn node_orders_agree_across_kernels() {
        let m = multi_row_knapsack();
        let mut objectives = Vec::new();
        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let opts = SolverOptions {
                kernel,
                ..Default::default()
            };
            let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
            assert!(!stats.truncated, "{kernel:?} truncated");
            objectives.push((kernel, sol.objective));
        }
        let (_, reference) = objectives[0];
        for &(cfg, obj) in &objectives {
            assert!(
                (obj - reference).abs() < 1e-6,
                "{cfg:?}: {obj} vs reference {reference}"
            );
        }
    }

    /// An integer variable with *fractional* bounds must still get an
    /// integral value: clamping a rounded value into the box used to
    /// re-fractionalize the incumbent (x = 2.5 reported as an "optimal"
    /// integer).
    #[test]
    fn fractional_bounds_still_yield_integral_solutions() {
        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_integer("x", 0.0, 2.5);
            m.set_objective(LinExpr::var(x));
            m.add_constraint(LinExpr::var(x), cmp::LE, 10.0);
            let opts = SolverOptions {
                kernel,
                ..Default::default()
            };
            let sol = m.solve_with(&opts).unwrap();
            assert!(
                (sol[x] - 2.0).abs() < 1e-6,
                "{kernel:?}: expected x = 2, got {}",
                sol[x]
            );
        }
    }

    /// Free integers branch natively through their split-pair columns
    /// on the warm path — one cold root solve, every other node a warm
    /// reoptimization.
    #[test]
    fn free_integer_branches_on_the_warm_path() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, true);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -2.5);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.int_value(x), -2);
        assert_eq!(
            stats.cold_solves, 1,
            "warm path must engage (one cold root solve)"
        );
        assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
    }

    /// Mirrored integers (finite upper bound, lower −∞) branch through
    /// flipped column boxes; the answer must round toward the feasible
    /// side and stay on the warm path.
    #[test]
    fn mirrored_integer_branches_on_the_warm_path() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 3.5, true);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -10.0);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.cold_solves + stats.warm_solves, stats.nodes);
    }

    /// A rowless model (every constraint folds to a satisfied constant)
    /// solves in closed form, integer boxes respected.
    #[test]
    fn rowless_models_solve_in_closed_form() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", -4.6, 9.0);
        let y = m.add_integer("y", 1.2, 7.8);
        let z = m.add_continuous("z", 2.0, 5.0);
        m.set_objective(1.0 * x - 2.0 * y + 0.5 * z);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.int_value(x), -4);
        assert_eq!(sol.int_value(y), 7);
        assert!((sol[z] - 2.0).abs() < 1e-9);
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.cold_solves, 1);

        // An integer fixed at a fraction has no lattice point.
        let mut m = Model::new(Sense::Minimize);
        let w = m.add_integer("w", 2.5, 2.5);
        m.set_objective(LinExpr::var(w));
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);

        // A favorable unbounded direction is reported as such.
        let mut m = Model::new(Sense::Maximize);
        let f = m.add_var("f", f64::NEG_INFINITY, f64::INFINITY, true);
        m.set_objective(LinExpr::var(f));
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }
}
