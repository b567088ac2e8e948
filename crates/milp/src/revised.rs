//! Revised simplex kernel with **bounded variables**, on [`StandardForm`]:
//! the production engine of every LP, each run as a node of the `search`
//! loop (a pure LP is a one-node search), which hands the kernel the form,
//! the fault injector and the solve's one deadline ([`Revised::new`]).
//!
//! Where the dense oracle ([`crate::simplex`]) updates an `(m+1) × width`
//! tableau on every pivot, this kernel keeps the constraint matrix as
//! **sparse columns**, the basis as a sparse LU kept current across
//! pivots by Forrest–Tomlin updates (see [`crate::factor`]), and —
//! crucially — variable bounds on the *columns* (`l ≤ y ≤ u`) rather
//! than as extra rows. Nonbasic columns rest at either bound; the
//! entering step may terminate in a **bound flip** (no basis change at
//! all). Compared to the row-bounded layout this roughly halves the
//! basis dimension of the retiming MILPs, which every FTRAN/BTRAN and
//! refactorization pays for directly.
//!
//! Three entry points matter:
//!
//! * [`Revised::solve_two_phase`] — cold start: crash basis, phase 1 over
//!   signed artificials (dropped permanently once they leave the basis),
//!   phase 2 over the real costs. Dantzig pricing with a Bland fallback
//!   after a long degenerate run, mirroring the oracle.
//! * [`Revised::dual_reopt`] — warm start: from any **dual-feasible**
//!   basis (rc ≥ 0 at lower bounds, rc ≤ 0 at upper bounds — a property
//!   bound changes cannot disturb), dual simplex pivots repair
//!   the primal infeasibility introduced by branching. Because any
//!   optimal basis anywhere in the branch & bound tree is dual feasible
//!   for *every* node, the search runs as one continuous simplex process
//!   with in-place bound mutations and no per-node refactorization. The
//!   leaving row is the largest scale-eligible box violation; the
//!   entering column comes from the long-step (bound-flipping) ratio
//!   test over incrementally maintained reduced costs (see the
//!   crate-level "Pricing" docs).
//! * [`Revised::set_col_bounds`] — mutate a column's box in place (the
//!   only mutation: the right-hand side is fixed at construction);
//!   `x_B` is lazily resynced by one sparse FTRAN at the next pivot
//!   run.
//!
//! A dual pivot does only the work its result depends on; every
//! floating-point operation that feeds a decision keeps its operands and
//! their order, so trajectories replay bit for bit. The pivot row `α =
//! ρᵀA` is scattered over the rows with `ρ_r ≠ 0` ([`RowMajor::product`],
//! also the pricing passes' `yᵀA`) and everything downstream runs over
//! the columns it reaches; the long-step ratio test pops its candidates
//! off a heap ([`long_step`]); reduced costs are recomputed only after
//! something moved the basis or the factors; and the kernel owns its work buffers
//! ([`Work`]), so a pivot allocates nothing.

use crate::factor::{Eta, Factor, FactorConfig, UpdateKind};
use crate::model::{FEAS_TOL, PIVOT_TOL};
use crate::recover::{
    FaultInjector, FaultSite, NumericalEvent, RecoveryStats, RESIDUAL_CHECK_EVERY,
};
use crate::solution::SolveError;
use crate::standard::StandardForm;
use std::cmp::Ordering;
use std::time::Instant;

/// Drop tolerance for product-form eta entries: pivot-direction
/// components at or below this magnitude are sparsified away. A
/// *storage* threshold, deliberately far below
/// [`PIVOT_TOL`] so the dropped mass stays at round-off
/// level — not a pivot admissibility check.
const ETA_DROP_TOL: f64 = 1e-12;

/// Telemetry of the factorization layer, accumulated per kernel
/// instance (surfaced through
/// [`BranchBoundStats`](crate::BranchBoundStats) and perfbench's
/// `milp.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct FactorStats {
    /// Successful basis refactorizations.
    pub refactors: usize,
    /// Largest `nnz(L+U)` any snapshot reached.
    pub peak_lu_nnz: usize,
    /// Successful Forrest–Tomlin updates (0 under the product form).
    pub ft_updates: usize,
}

/// Pivot counters split by simplex direction (surfaced through
/// [`BranchBoundStats`](crate::BranchBoundStats) and perfbench's
/// `milp.*` counters). `dual_pivots + primal_pivots + bound_flips` equals
/// [`Revised::iters`] for any single kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PivotStats {
    /// Basis-change pivots performed by the dual reoptimizer.
    pub dual_pivots: usize,
    /// Basis-change pivots performed by the primal phases (including
    /// artificial drive-out swaps).
    pub primal_pivots: usize,
    /// Bound flips: primal entering columns whose span was exhausted
    /// before any basic variable blocked, plus the dual long-step
    /// ratio test's flipped candidates.
    pub bound_flips: usize,
}

/// Outcome of a pivoting phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// One candidate of the dual ratio test: a nonbasic column whose pivot
/// row entry moves the violated basic variable toward its bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand {
    /// Dual ratio `|rc_j|/|α_j|`.
    pub ratio: f64,
    /// Column index.
    pub j: usize,
    /// Movement direction of the column if it enters.
    pub sigma: f64,
    /// `|α_j|`.
    pub alpha: f64,
    /// Box span `u_j − l_j`.
    pub span: f64,
}

/// The ratio test's candidate order: ratio, then larger `|α|`, then
/// index. Total on the finite ratios the candidate scan produces (the
/// index alone separates any two candidates).
pub(crate) fn cand_order(a: &Cand, b: &Cand) -> Ordering {
    a.ratio
        .partial_cmp(&b.ratio)
        .unwrap_or(Ordering::Equal)
        .then(b.alpha.partial_cmp(&a.alpha).unwrap_or(Ordering::Equal))
        .then(a.j.cmp(&b.j))
}

/// Restores the min-heap property of `heap` (under [`cand_order`])
/// below position `i`.
fn sift_down(heap: &mut [Cand], mut i: usize) {
    loop {
        let mut min = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < heap.len() && cand_order(&heap[child], &heap[min]).is_lt() {
                min = child;
            }
        }
        if min == i {
            return;
        }
        heap.swap(i, min);
        i = min;
    }
}

/// Long-step ("bound-flip") selection over the dual ratio test's
/// candidates, consumed lazily as a min-heap under [`cand_order`], so
/// only the flipped prefix and the entering candidate are ever ordered.
/// Candidates in order: one whose box span the remaining violation
/// exhausts **flips bounds** (pushed onto `flips`) and the scan
/// continues with the violation reduced by `|α|·span`, so one dual
/// pivot crosses many breakpoints. The first candidate the remaining
/// violation does not exhaust enters; when every candidate is exhausted
/// but the violation left over is within `FEAS_TOL`, the last flipped
/// one enters instead. `None` — `flips` then holds nothing the caller
/// may commit — means the row stays violated by more than that even
/// with every candidate flipped: the dual ray is unbounded over the
/// boxes.
///
/// The entering candidate then yields to a later candidate of strictly
/// larger `|α|` whose ratio lies within `0.01·FEAS_TOL` of **its** own —
/// the window stays anchored there, not at a tie winner's larger ratio
/// (see the chained-tie regression test) — the earliest in order among
/// those of the largest `|α|`: one linear scan of what is left in the
/// heap. The pops replay a full sort of the candidates exactly.
pub(crate) fn long_step(
    heap: &mut Vec<Cand>,
    violation: f64,
    flips: &mut Vec<usize>,
) -> Option<Cand> {
    flips.clear();
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
    let mut remaining = violation;
    let mut last_flipped = None;
    let chosen = loop {
        if heap.is_empty() {
            // Every candidate flipped with only round-off left over:
            // that is no dual ray. The last flipped candidate enters.
            if remaining > FEAS_TOL {
                return None;
            }
            flips.pop();
            break last_flipped?;
        }
        let top = heap.swap_remove(0);
        sift_down(heap, 0);
        if top.span.is_finite() && remaining - top.alpha * top.span > 0.0 {
            remaining -= top.alpha * top.span;
            flips.push(top.j);
            last_flipped = Some(top);
        } else {
            break top;
        }
    };
    let limit = chosen.ratio + 0.01 * FEAS_TOL;
    let mut best: Option<&Cand> = None;
    for c in heap.iter().filter(|c| c.ratio < limit) {
        if best
            .is_none_or(|b| c.alpha > b.alpha || (c.alpha == b.alpha && cand_order(c, b).is_lt()))
        {
            best = Some(c);
        }
    }
    Some(match best {
        Some(&b) if b.alpha > chosen.alpha => b,
        _ => chosen,
    })
}

/// A row vector over the real columns held scattered: values in a dense
/// array that is `+0.0` off `touched`, and the columns written, each
/// once. [`SparseRow::reset`] restores the all-zero state in
/// `O(touched)`.
struct SparseRow {
    val: Vec<f64>,
    touched: Vec<usize>,
    seen: Vec<bool>,
}

impl SparseRow {
    fn new(n: usize) -> SparseRow {
        SparseRow {
            val: vec![0.0; n],
            touched: Vec::new(),
            seen: vec![false; n],
        }
    }

    fn reset(&mut self) {
        for &j in &self.touched {
            self.val[j] = 0.0;
            self.seen[j] = false;
        }
        self.touched.clear();
    }
}

/// Row-wise (CSR) copy of the constraint matrix, built once: products
/// `yᵀA` run over the rows with `y_r ≠ 0` only.
struct RowMajor {
    start: Vec<usize>,
    ent: Vec<(usize, f64)>,
}

impl RowMajor {
    /// Adds `yᵀA` into `out` (all-zero on entry): `y_r·a_rj` for the rows
    /// with `y_r ≠ 0`, in ascending row order. Each column gets the same
    /// products, added in the same order from `+0.0`, as a column-wise
    /// dot product over all rows: a zero `y_r` there only adds a signed
    /// zero, which cannot change a sum that started at `+0.0`. So the
    /// result is bit-identical, at the cost of the rows `y` reaches.
    fn product(&self, y: &[f64], out: &mut SparseRow) {
        for (r, &yr) in y.iter().enumerate() {
            if yr != 0.0 {
                for &(j, a) in &self.ent[self.start[r]..self.start[r + 1]] {
                    if !out.seen[j] {
                        out.seen[j] = true;
                        out.touched.push(j);
                    }
                    out.val[j] += a * yr;
                }
            }
        }
    }
}

/// The kernel's per-pivot work buffers: a pivot allocates nothing. Each
/// user (re)initializes what it reads, so no state passes between users.
struct Work {
    /// Direction `B⁻¹A_j` and its Forrest–Tomlin spike, lent out by
    /// [`Revised::direction`] and handed back after the pivot.
    dir: Vec<f64>,
    spike: Vec<f64>,
    /// `x_B` correction of [`Revised::sync_xb`].
    delta: Vec<f64>,
    /// `ρ = B⁻ᵀe_r` and the pivot row `α = ρᵀA` (basic entries zeroed).
    rho: Vec<f64>,
    alpha: SparseRow,
    /// Duals `y` and the product `yᵀA` of the pricing pass.
    y: Vec<f64>,
    ya: SparseRow,
    /// Dual ratio-test candidates and the long-step flips.
    cands: Vec<Cand>,
    flips: Vec<usize>,
}

/// A resumable basis description: which column is basic in each row and
/// which nonbasic columns rest at their upper bound.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BasisState {
    basis: Vec<usize>,
    at_upper: Vec<bool>,
}

/// The bounded-variable revised simplex kernel; see the module docs.
pub(crate) struct Revised {
    /// Constraint rows.
    m: usize,
    /// Real (structural + slack/surplus) columns.
    n: usize,
    /// Sparse columns of `A`: `cols[j]` = `(row, value)` entries.
    cols: Vec<Vec<(usize, f64)>>,
    /// The same matrix row-wise.
    rows: RowMajor,
    /// Right-hand side, fixed at construction.
    b: Vec<f64>,
    /// Phase-2 minimization costs, length `n`.
    cost: Vec<f64>,
    /// Column boxes (mutable across branch & bound nodes), length `n`.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Basic column of each row. Indices `>= n` are artificials: index
    /// `n + 2r` is the `+1` unit column of row `r`, `n + 2r + 1` the `-1`
    /// one (signed so a crash basis is feasible for either rhs sign);
    /// artificial boxes are `[0, ∞)`.
    basis: Vec<usize>,
    /// Membership flags, length `n + 2m`.
    in_basis: Vec<bool>,
    /// Nonbasic-at-upper flags for real columns, length `n`.
    at_upper: Vec<bool>,
    /// Values of the basic variables.
    xb: Vec<f64>,
    /// Rhs-space deltas accumulated since `xb` was last synced (`x_B`
    /// must be corrected by `B⁻¹·w` via one sparse FTRAN).
    pending: Vec<(usize, f64)>,
    factor: Option<Factor>,
    /// Update scheme + refactor policy for the next refactorization.
    fcfg: FactorConfig,
    /// `true` while the current basis is known dual feasible for the
    /// phase-2 costs — the precondition for warm-starting
    /// [`Revised::dual_reopt`] in place. Dual pivots preserve it; primal
    /// phase-1 pivots and interrupted primal runs clear it.
    dual_ok: bool,
    /// Simplex pivots (incl. bound flips) performed by this instance.
    pub iters: usize,
    /// Refactorization/fill telemetry.
    pub(crate) factor_stats: FactorStats,
    /// Event/rung ledger of the recovery ladder (see [`crate::recover`]).
    pub(crate) recovery: RecoveryStats,
    /// Deterministic fault injector, armed by `SolverOptions::faults`
    /// (`None` on clean runs — every site check is one cheap branch).
    injector: Option<FaultInjector>,
    /// The solve's one wall-clock deadline, enforced at pivot-loop
    /// checkpoints, not only at node boundaries.
    deadline: Option<Instant>,
    /// Node-ladder rung 5: price with Bland's rule from the first pivot
    /// instead of waiting for the degenerate-run trigger.
    force_bland: bool,
    /// Directional pivot counters.
    pub(crate) pivot_stats: PivotStats,
    /// Reduced costs of the real columns: the last pricing pass's, and
    /// the dual reoptimizer's incrementally updated ones while it runs.
    rc: Vec<f64>,
    /// `true` while `rc` holds the phase-2 reduced costs of the current
    /// basis and factors as [`Revised::compute_rc`] computed them (not
    /// incrementally updated), so recomputing them would give the same
    /// bits. Any pivot, refactorization, basis install or crash clears
    /// it; bound flips and box changes leave reduced costs alone.
    rc_fresh: bool,
    work: Work,
}

impl Revised {
    /// Builds the kernel over a standard form (no basis yet), with the
    /// solve's fault injector and its one wall-clock deadline.
    pub fn new(
        form: &StandardForm,
        injector: Option<FaultInjector>,
        deadline: Option<Instant>,
    ) -> Revised {
        let m = form.rows.len();
        let n = form.ncols;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut rows = RowMajor {
            start: vec![0],
            ent: Vec::new(),
        };
        for (r, row) in form.rows.iter().enumerate() {
            for &(c, v) in row {
                cols[c].push((r, v));
            }
            rows.ent.extend_from_slice(row);
            rows.start.push(rows.ent.len());
        }
        Revised {
            m,
            n,
            cols,
            rows,
            b: form.rhs.clone(),
            cost: form.cost.clone(),
            lower: vec![0.0; n],
            upper: form.col_upper.clone(),
            basis: vec![usize::MAX; m],
            in_basis: vec![false; n + 2 * m],
            at_upper: vec![false; n],
            xb: vec![0.0; m],
            pending: Vec::new(),
            factor: None,
            fcfg: FactorConfig::default(),
            dual_ok: false,
            iters: 0,
            factor_stats: FactorStats::default(),
            recovery: RecoveryStats::default(),
            injector,
            deadline,
            force_bland: false,
            pivot_stats: PivotStats::default(),
            rc: Vec::new(),
            rc_fresh: false,
            work: Work {
                dir: Vec::new(),
                spike: Vec::new(),
                delta: Vec::new(),
                rho: Vec::new(),
                alpha: SparseRow::new(n),
                y: Vec::new(),
                ya: SparseRow::new(n),
                cands: Vec::new(),
                flips: Vec::new(),
            },
        }
    }

    /// One opportunity at a fault-injection site; `true` when a plan is
    /// armed and fires now (counted, so injected runs can prove they
    /// actually injected something).
    fn inject(&mut self, site: FaultSite) -> bool {
        let fired = self.injector.as_mut().is_some_and(|inj| inj.fire(site));
        if fired {
            self.recovery.faults_injected += 1;
        }
        fired
    }

    /// `true` once the wall-clock budget is spent; the node recovery
    /// ladder stops escalating at this point.
    pub fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// `(rows, real columns)` of the LP.
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// `true` when the current basis is dual feasible and factorized, so
    /// [`Revised::dual_reopt`] may run in place.
    pub fn dual_ok(&self) -> bool {
        self.dual_ok && self.factor.is_some()
    }

    /// Rewrites a column's box `[l, u]` (branch & bound bound
    /// tightening). A nonbasic column keeps its lower/upper state, and
    /// the value shift is queued as a sparse `x_B` correction; a basic
    /// column that now violates its box is repaired by the next
    /// [`Revised::dual_reopt`]. Dual feasibility is unaffected.
    pub fn set_col_bounds(&mut self, j: usize, l: f64, u: f64) {
        debug_assert!(j < self.n && l <= u + 1e-9);
        if self.in_basis[j] {
            self.lower[j] = l;
            self.upper[j] = u;
            return;
        }
        let old = self.nb_value(j);
        self.lower[j] = l;
        self.upper[j] = u;
        if self.at_upper[j] && !u.is_finite() {
            self.at_upper[j] = false;
        }
        let new = self.nb_value(j);
        let dv = new - old;
        if dv != 0.0 && self.factor.is_some() {
            // x_B += B⁻¹·(−A_j·dv), queued sparsely.
            for &(r, a) in &self.cols[j] {
                self.pending.push((r, -a * dv));
            }
        }
    }

    /// Whether this kernel holds a solved basis at all. A freshly built
    /// kernel (e.g. right after a recovery-ladder rebuild) has every
    /// basis slot unassigned; snapshotting that state would hand
    /// children an uninstallable basis.
    pub fn has_basis(&self) -> bool {
        self.basis.first().is_none_or(|&j| j != usize::MAX)
    }

    /// The current basis/state, for warm-start snapshots.
    pub fn basis_snapshot(&self) -> BasisState {
        BasisState {
            basis: self.basis.clone(),
            at_upper: self.at_upper.clone(),
        }
    }

    /// **Per-row** magnitude scale of the right-hand side the basis must
    /// reproduce: for each row the largest of `|b_r|` and the resting
    /// nonbasic contributions `|a_rj·value_j|`, floored at a round-off
    /// allowance proportional to the *global* scale (pivoting mixes rows,
    /// so even a zero-rhs row carries noise at the global magnitude).
    /// Residual cutoffs (the phase-1 exit and the active-artificial
    /// check) are taken **relative to the violated row's own scale**: a
    /// uniformly tiny (say 1e-9-scaled) model does not mask genuine
    /// infeasibility under an absolute cutoff, a hugely scaled feasible
    /// one does not trip it on round-off, and — per-row, not a single
    /// global maximum — a unit-scale contradiction stays detectable next
    /// to a 1e6-scale row.
    fn row_scales(&self) -> Vec<f64> {
        let (_, mut s) = self.nonbasic_rhs();
        let global = s.iter().fold(0.0f64, |a, &v| a.max(v));
        let floor = (1e3 * f64::EPSILON * global).max(f64::MIN_POSITIVE);
        for sr in &mut s {
            *sr = sr.max(floor);
        }
        s
    }

    /// `true` when some basic artificial sits at a value that is
    /// non-zero **relative to its row's rhs scale** (`tol` is a relative
    /// tolerance) — the "solution" would violate a constraint and must
    /// not be trusted.
    pub fn has_active_artificial(&self, tol: f64) -> bool {
        // Warm nodes hold no basic artificial: skip the row scales.
        if self.basis.iter().all(|&j| j < self.n) {
            return false;
        }
        let scales = self.row_scales();
        (0..self.m).any(|r| self.basis[r] >= self.n && self.xb[r].abs() > tol * scales[r])
    }

    /// Primal solution over the real columns (basic values clamped into
    /// their boxes to shed round-off).
    pub fn values(&self) -> Vec<f64> {
        let mut x: Vec<f64> = (0..self.n).map(|j| self.nb_value(j)).collect();
        for r in 0..self.m {
            let j = self.basis[r];
            if j < self.n {
                x[j] = self.xb[r].clamp(self.lower[j], self.upper[j].max(self.lower[j]));
            }
        }
        x
    }

    // --- column access ---------------------------------------------------

    /// Resting value of a nonbasic real column.
    #[inline]
    fn nb_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.upper[j]
        } else {
            self.lower[j]
        }
    }

    /// Box of any column (artificials live in `[0, ∞)`).
    #[inline]
    fn box_of(&self, j: usize) -> (f64, f64) {
        if j < self.n {
            (self.lower[j], self.upper[j])
        } else {
            (0.0, f64::INFINITY)
        }
    }

    #[inline]
    fn for_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if j < self.n {
            for &(r, v) in &self.cols[j] {
                f(r, v);
            }
        } else {
            let k = j - self.n;
            f(k / 2, if k.is_multiple_of(2) { 1.0 } else { -1.0 });
        }
    }

    #[inline]
    fn cost_of(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            if j < self.n {
                0.0
            } else {
                1.0
            }
        } else if j < self.n {
            self.cost[j]
        } else {
            0.0
        }
    }

    // --- factorization ---------------------------------------------------

    /// Refactorizes the current basis; on failure the stale factorization
    /// is dropped so the kernel cannot be trusted until the next
    /// successful cold solve or install.
    fn refactor(&mut self) -> Result<(), SolveError> {
        self.rc_fresh = false;
        if self.inject(FaultSite::SingularRefactor) {
            self.recovery.record(NumericalEvent::SingularRefactor);
            self.factor = None;
            self.dual_ok = false;
            return Err(SolveError::Numerical("singular basis (injected)".into()));
        }
        let factor = Factor::refactor(self.m, &self.fcfg, |slot, out| {
            self.for_col(self.basis[slot], |r, v| out.push((r, v)));
        });
        match factor {
            Some(f) => {
                self.factor_stats.refactors += 1;
                self.factor_stats.peak_lu_nnz = self.factor_stats.peak_lu_nnz.max(f.lu_nnz());
                self.factor = Some(f);
                Ok(())
            }
            None => {
                self.recovery.record(NumericalEvent::SingularRefactor);
                self.factor = None;
                self.dual_ok = false;
                Err(SolveError::Numerical("singular basis".into()))
            }
        }
    }

    /// The right-hand side the basis must reproduce,
    /// `b − Σ_{nonbasic} A_j·value_j`, and per row the largest magnitude
    /// that entered it: `|b_r|` and the resting contributions
    /// `|a_rj·value_j|`. The crash basis, `x_B`, the row scales and the
    /// residual monitor all read this one definition.
    fn nonbasic_rhs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rhs = self.b.clone();
        let mut mag: Vec<f64> = self.b.iter().map(|b| b.abs()).collect();
        for j in 0..self.n {
            if !self.in_basis[j] {
                let v = self.nb_value(j);
                if v != 0.0 {
                    for &(r, a) in &self.cols[j] {
                        rhs[r] -= a * v;
                        mag[r] = mag[r].max((a * v).abs());
                    }
                }
            }
        }
        (rhs, mag)
    }

    /// Recomputes `x_B = B⁻¹·(b − Σ_{nonbasic} A_j·value_j)` from scratch.
    fn compute_xb(&mut self) {
        let (mut x, _) = self.nonbasic_rhs();
        self.factor.as_ref().expect("factorized").ftran(&mut x);
        self.xb = x;
        self.pending.clear();
    }

    /// Applies pending rhs/bound deltas to `x_B` via one sparse FTRAN.
    fn sync_xb(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let delta = &mut self.work.delta;
        delta.clear();
        delta.resize(self.m, 0.0);
        for &(row, d) in &self.pending {
            delta[row] += d;
        }
        self.pending.clear();
        self.factor.as_ref().expect("factorized").ftran(delta);
        for (x, d) in self.xb.iter_mut().zip(delta.iter()) {
            *x += d;
        }
    }

    // --- residual health monitor -----------------------------------------

    /// `true` when `‖B·x_B − b_eff‖∞` (with `b_eff` the rhs net of the
    /// resting nonbasic contributions) exceeds the monitor's tolerance
    /// on some row — relative to that row's own rhs scale, and NaN-safe
    /// (a NaN residual counts as drift). The tolerance is three decades
    /// above [`FEAS_TOL`], so round-off on healthy bases never trips it;
    /// only genuinely corrupted factors or basic values do.
    fn residual_drifting(&self) -> bool {
        debug_assert!(self.pending.is_empty(), "residual check on stale x_B");
        // Backward-error scale: the residual of a healthy basis is
        // round-off in the *summed terms*, so each row's scale is the
        // largest magnitude that entered its sum — `|b_r|`, the resting
        // nonbasic contributions, and the basic contributions (which
        // mostly cancel but dominate the round-off).
        let (mut r, mut mag) = self.nonbasic_rhs();
        for slot in 0..self.m {
            let xv = self.xb[slot];
            if xv != 0.0 {
                self.for_col(self.basis[slot], |row, a| {
                    r[row] -= a * xv;
                    mag[row] = mag[row].max((a * xv).abs());
                });
            }
        }
        // FTRAN mixes rows, so round-off lands on *every* row at the
        // global magnitude — the absolute floor must track the global
        // scale, not the row's own (near-empty rows would otherwise
        // flag their own round-off as drift).
        let global = mag.iter().fold(0.0f64, |acc, &v| acc.max(v));
        let floor = (1e3 * f64::EPSILON * global).max(f64::MIN_POSITIVE);
        let tol = 1e3 * FEAS_TOL;
        // Negated `<=` rather than `>` so a NaN residual (poisoned
        // arithmetic somewhere upstream) reads as drifting.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        r.iter()
            .zip(&mag)
            .any(|(&ri, &s)| !(ri.abs() <= (tol * s).max(floor)))
    }

    /// Pivot-loop health checkpoint, due every [`RESIDUAL_CHECK_EVERY`]
    /// pivots: the wall-clock deadline first (cheap), then — once any
    /// pivots have run — the residual health monitor. Drift forces a
    /// refactorization (ladder rung 2); drift that survives the fresh
    /// factorization means the basis state itself is corrupt, which
    /// escalates to the caller as a numerical error (next rung).
    fn checkpoint(&mut self, pivots_done: usize) -> Result<(), SolveError> {
        if !pivots_done.is_multiple_of(RESIDUAL_CHECK_EVERY) {
            return Ok(());
        }
        if self.inject(FaultSite::FakeTimeLimit) || self.out_of_time() {
            self.recovery.record(NumericalEvent::TimeBudget);
            return Err(SolveError::IterationLimit);
        }
        if pivots_done > 0 && self.residual_drifting() {
            self.forced_refactor(NumericalEvent::ResidualDrift)?;
            if self.residual_drifting() {
                self.dual_ok = false;
                return Err(SolveError::Numerical("persistent residual drift".into()));
            }
        }
        Ok(())
    }

    /// Trust gate for node bounds: `true` when the current basis state
    /// reproduces the effective right-hand side within the monitor's
    /// tolerance (trivially so without a factorization). On drift the
    /// kernel heals itself — refactorize, recompute `x_B` — but still
    /// answers `false`: the bound just computed must not be trusted, and
    /// the caller re-solves on the next ladder rung. Healthy calls are
    /// read-only, so clean-run trajectories are untouched.
    pub fn verify_residual(&mut self) -> bool {
        if self.factor.is_none() {
            return true;
        }
        self.sync_xb();
        if !self.residual_drifting() {
            return true;
        }
        // The answer is `false` whether or not the refactorization heals.
        let _ = self.forced_refactor(NumericalEvent::ResidualDrift);
        false
    }

    /// Ladder rung 2: records `ev`, counts a forced refactorization,
    /// refactorizes the current basis and recomputes `x_B` from scratch.
    fn forced_refactor(&mut self, ev: NumericalEvent) -> Result<(), SolveError> {
        self.recovery.record(ev);
        self.recovery.forced_refactors += 1;
        self.refactor()?;
        self.compute_xb();
        Ok(())
    }

    /// Installs an externally supplied basis state (e.g. a parent
    /// node's) and recomputes `x_B`. When the basis columns match the
    /// ones already factorized only the state and `x_B` are refreshed.
    ///
    /// # Errors
    ///
    /// [`SolveError::Numerical`] when the basis is singular.
    pub fn install_basis(&mut self, state: &BasisState) -> Result<(), SolveError> {
        assert_eq!(state.basis.len(), self.m, "basis size mismatch");
        self.rc_fresh = false;
        // Nonbasic columns pinned above their (branch-tightened) box
        // would corrupt x_B; clamp the resting side to the tighter bound.
        self.at_upper.copy_from_slice(&state.at_upper);
        for j in 0..self.n {
            if self.at_upper[j] && !self.upper[j].is_finite() {
                self.at_upper[j] = false;
            }
        }
        if self.factor.is_some() && self.basis == state.basis {
            self.compute_xb();
            return Ok(());
        }
        self.in_basis.iter_mut().for_each(|x| *x = false);
        self.basis.copy_from_slice(&state.basis);
        for &j in &state.basis {
            self.in_basis[j] = true;
        }
        // An arbitrary basis has unknown reduced costs until a pivot run
        // re-establishes them (the warm-start caller installs a parent
        // *optimal* basis and immediately dual-reoptimizes).
        self.dual_ok = false;
        self.refactor()?;
        self.compute_xb();
        Ok(())
    }

    /// Direction `d = B⁻¹ A_j`. Under Forrest–Tomlin the lower-solve
    /// intermediate (the FT spike of column `j`) is saved alongside, so
    /// a pivot on `j` updates the factors without repeating that solve.
    /// The buffers come from the kernel's work set; [`Revised::recycle`]
    /// hands them back.
    fn direction(&mut self, j: usize) -> (Vec<f64>, Option<Vec<f64>>) {
        let mut d = std::mem::take(&mut self.work.dir);
        d.clear();
        d.resize(self.m, 0.0);
        self.for_col(j, |r, v| d[r] = v);
        let factor = self.factor.as_ref().expect("factorized");
        match factor.update_kind() {
            UpdateKind::ForrestTomlin => {
                let mut spike = std::mem::take(&mut self.work.spike);
                factor.ftran_spiked(&mut d, &mut spike);
                (d, Some(spike))
            }
            UpdateKind::ProductForm => {
                factor.ftran(&mut d);
                (d, None)
            }
        }
    }

    /// Returns a direction (and its spike) to the work set.
    fn recycle(&mut self, d: Vec<f64>, spike: Option<Vec<f64>>) {
        self.work.dir = d;
        if let Some(spike) = spike {
            self.work.spike = spike;
        }
    }

    /// Reduced costs `c_j − yᵀA_j` of every real column into `rc`, basic
    /// entries exactly zero, under the duals `y = B⁻ᵀc_B` of the given
    /// phase: one BTRAN and one row-wise product, skipped when `rc`
    /// already holds the fresh phase-2 ones.
    fn compute_rc(&mut self, phase1: bool) {
        if !phase1 && self.rc_fresh {
            return;
        }
        let mut y = std::mem::take(&mut self.work.y);
        y.clear();
        y.extend(self.basis.iter().map(|&j| self.cost_of(j, phase1)));
        self.factor.as_ref().expect("factorized").btran(&mut y);
        self.work.ya.reset();
        self.rows.product(&y, &mut self.work.ya);
        self.work.y = y;
        let mut rc = std::mem::take(&mut self.rc);
        rc.clear();
        rc.extend((0..self.n).map(|j| {
            if self.in_basis[j] {
                0.0
            } else {
                self.cost_of(j, phase1) - self.work.ya.val[j]
            }
        }));
        self.rc = rc;
        self.rc_fresh = !phase1;
    }

    /// Row `r` of `B⁻¹A` over the real columns into the work set: `ρ =
    /// B⁻ᵀe_r`, then `α = ρᵀA` from `ρ`'s nonzeros, basic entries
    /// zeroed.
    fn pivot_row(&mut self, r: usize) {
        let rho = &mut self.work.rho;
        rho.clear();
        rho.resize(self.m, 0.0);
        rho[r] = 1.0;
        self.factor.as_ref().expect("factorized").btran(rho);
        self.scatter_alpha();
    }

    /// `α = ρᵀA` from the work set's `ρ`, basic entries zeroed.
    fn scatter_alpha(&mut self) {
        let w = &mut self.work;
        w.alpha.reset();
        self.rows.product(&w.rho, &mut w.alpha);
        for &j in &w.alpha.touched {
            if self.in_basis[j] {
                w.alpha.val[j] = 0.0;
            }
        }
    }

    /// Executes the basis change `basis[prow] := enter`: the entering
    /// column moves by `sigma·t` from its resting value, the leaving
    /// variable parks at its upper bound when `leave_to_upper`.
    #[allow(clippy::too_many_arguments)]
    fn pivot(
        &mut self,
        prow: usize,
        enter: usize,
        sigma: f64,
        t: f64,
        d: Vec<f64>,
        mut spike: Option<Vec<f64>>,
        leave_to_upper: bool,
    ) -> Result<(), SolveError> {
        debug_assert!(d[prow].abs() > PIVOT_TOL, "pivot below the pivot tolerance");
        self.rc_fresh = false;
        let enter_value = self.nb_value_any(enter) + sigma * t;
        for (x, &di) in self.xb.iter_mut().zip(d.iter()) {
            *x -= sigma * t * di;
        }
        self.xb[prow] = enter_value;
        let leaving = self.basis[prow];
        self.in_basis[leaving] = false;
        if leaving < self.n {
            self.at_upper[leaving] = leave_to_upper;
        }
        self.basis[prow] = enter;
        self.in_basis[enter] = true;
        self.iters += 1;
        let out = self.update_basis(prow, enter, &d, spike.as_deref_mut());
        self.recycle(d, spike);
        out
    }

    /// Absorbs the basis change at `prow` into the factorization:
    /// Forrest–Tomlin updates the sparse factors in place (falling back
    /// to a full refactorization when the update is refused as unstable
    /// — a **forced** refactor), the product form appends an eta built
    /// from the pivot direction `d`. Either way the scheduled
    /// length/fill refactor policy runs afterwards.
    fn update_basis(
        &mut self,
        prow: usize,
        enter: usize,
        d: &[f64],
        mut spike: Option<&mut [f64]>,
    ) -> Result<(), SolveError> {
        if self.fcfg.update == UpdateKind::ForrestTomlin {
            if let Some(spike) = spike.as_deref_mut() {
                if self.inject(FaultSite::PerturbFtSpike) {
                    Factor::poison_spike(spike);
                }
            }
            if self.inject(FaultSite::RefuseFtUpdate) {
                // Two refusals defeat the spiked attempt *and* the retry,
                // exercising the forced-refactor rung.
                self.factor.as_mut().expect("factorized").inject_refusals(2);
            }
        }
        match self.factor.as_ref().expect("factorized").update_kind() {
            UpdateKind::ProductForm => {
                let others: Vec<(usize, f64)> = d
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| i != prow && v.abs() > ETA_DROP_TOL)
                    .map(|(i, &v)| (i, v))
                    .collect();
                self.factor.as_mut().expect("factorized").push(Eta {
                    row: prow,
                    pivot: d[prow],
                    others,
                });
            }
            UpdateKind::ForrestTomlin => {
                // The spike saved by `direction(enter)`'s FTRAN; absent
                // only if a caller pivots without having priced a
                // direction, which none does.
                let first = match spike {
                    Some(spike) => self
                        .factor
                        .as_mut()
                        .expect("factorized")
                        .ft_update_spiked(prow, spike),
                    None => self.ft_update_from_column(prow, enter),
                };
                // Ladder rung 1: a refused spiked update may only mean
                // the saved spike was corrupted — recompute it from the
                // entering column before paying for a refactorization
                // (refusals commit nothing, so the factors are intact).
                let ok = first || self.ft_update_from_column(prow, enter);
                if ok {
                    self.factor_stats.ft_updates += 1;
                    // The snapshot itself grows under FT (spikes + row
                    // etas); peaks are tracked per update, not only at
                    // refactor time as in the product form.
                    let nnz = self.factor.as_ref().expect("factorized").current_nnz();
                    self.factor_stats.peak_lu_nnz = self.factor_stats.peak_lu_nnz.max(nnz);
                    if !first {
                        self.recovery.record(NumericalEvent::UnstableUpdate);
                        self.recovery.ft_retries += 1;
                    }
                } else {
                    // Ladder rung 2 — unstable update: refactorize the
                    // new basis instead.
                    return self.forced_refactor(NumericalEvent::UnstableUpdate);
                }
            }
        }
        let factor = self.factor.as_ref().expect("factorized");
        if factor.needs_refactor() {
            self.refactor()?;
            self.compute_xb();
        }
        Ok(())
    }

    /// Forrest–Tomlin update of basis slot `prow` from the entering
    /// column itself (its spike recomputed by the factor's lower solve).
    fn ft_update_from_column(&mut self, prow: usize, enter: usize) -> bool {
        let mut col: Vec<(usize, f64)> = Vec::new();
        self.for_col(enter, |r, v| col.push((r, v)));
        self.factor
            .as_mut()
            .expect("factorized")
            .ft_update(prow, &col)
    }

    /// Resting value of any nonbasic column (artificials rest at 0).
    #[inline]
    fn nb_value_any(&self, j: usize) -> f64 {
        if j < self.n {
            self.nb_value(j)
        } else {
            0.0
        }
    }

    // --- crash basis -----------------------------------------------------

    /// Chooses an initial basis: per row a singleton real column whose
    /// implied basic value lies inside its box (slack/surplus columns
    /// qualify by construction), otherwise a signed artificial.
    fn crash(&mut self) {
        self.dual_ok = false;
        self.rc_fresh = false;
        self.in_basis.iter_mut().for_each(|x| *x = false);
        // A cold solve starts from scratch: every column rests at its
        // lower bound (persisting upper-bound states would smuggle
        // warm-start information into the from-scratch baseline).
        self.at_upper.iter_mut().for_each(|x| *x = false);
        // Effective rhs with every real column resting at its current
        // bound value (no column is basic yet).
        let (beff, _) = self.nonbasic_rhs();
        // Singleton columns, highest index first (auxiliary columns are
        // appended last and carry zero cost — same preference the dense
        // oracle uses).
        let mut choice: Vec<Option<usize>> = vec![None; self.m];
        for j in 0..self.n {
            if let [(r, v)] = self.cols[j][..] {
                if v.abs() > 1e-9 {
                    // Entering the basis removes the column's own resting
                    // contribution from the effective rhs.
                    let basic_val = (beff[r] + v * self.nb_value(j)) / v;
                    if basic_val >= self.lower[j] - 1e-9 && basic_val <= self.upper[j] + 1e-9 {
                        // Ascending scan: the last qualifying column is
                        // the highest-index (auxiliary) one.
                        choice[r] = Some(j);
                    }
                }
            }
        }
        for r in 0..self.m {
            let j = match choice[r] {
                Some(j) => j,
                None => {
                    if beff[r] >= 0.0 {
                        self.n + 2 * r
                    } else {
                        self.n + 2 * r + 1
                    }
                }
            };
            self.basis[r] = j;
            self.in_basis[j] = true;
        }
    }

    // --- primal simplex --------------------------------------------------

    /// Entering column over the real nonbasic columns, by the reduced
    /// costs of the last [`Revised::compute_rc`]: Bland (first
    /// improving) when `bland`, otherwise Dantzig (largest dual
    /// violation). At the lower bound a negative reduced cost improves;
    /// at the upper bound a positive one does.
    fn price(&self, bland: bool) -> Option<usize> {
        let tol = FEAS_TOL;
        let mut best: Option<usize> = None;
        let mut best_score = 0.0f64;
        for j in 0..self.n {
            if self.in_basis[j] || self.upper[j] - self.lower[j] <= 0.0 {
                continue;
            }
            let rc = self.rc[j];
            let score = if self.at_upper[j] { rc } else { -rc };
            if score <= tol {
                continue;
            }
            if bland {
                return Some(j);
            }
            if score > best_score {
                best_score = score;
                best = Some(j);
            }
        }
        best
    }

    /// Bounded-variable ratio test for an entering column moving by
    /// `sigma·t`, `t ≥ 0`: the smallest `t` at which a basic variable
    /// hits a bound, capped by the entering column's own span (a bound
    /// flip). Returns `(t, blocking_row, leaving_to_upper)`; a `None`
    /// row at finite `t` is a flip, `t = ∞` means unbounded.
    ///
    /// Rows whose pivot element is at most [`PIVOT_TOL`] are ineligible,
    /// and rows whose ratio ties the minimum within `0.01·FEAS_TOL` are
    /// broken toward the larger pivot magnitude (Bland mode breaks ties —
    /// at the much tighter `1e-5·FEAS_TOL`, a pure float-noise window —
    /// toward the smaller column index, as its anti-cycling argument
    /// requires).
    fn ratio_test(&self, sigma: f64, d: &[f64], bland: bool) -> (f64, Option<usize>, bool) {
        let tol = PIVOT_TOL;
        let tie = 0.01 * FEAS_TOL;
        let bland_tie = 1e-5 * FEAS_TOL;
        let mut best_t = f64::INFINITY;
        let mut best_row: Option<usize> = None;
        let mut best_to_upper = false;
        let mut best_piv = 0.0f64;
        for (r, &dr) in d.iter().enumerate().take(self.m) {
            let delta = sigma * dr; // xb[r] decreases by delta·t
            let (lb, ub) = self.box_of(self.basis[r]);
            let (t_r, to_upper) = if delta > tol {
                (((self.xb[r] - lb).max(0.0)) / delta, false)
            } else if delta < -tol {
                if ub.is_finite() {
                    (((ub - self.xb[r]).max(0.0)) / -delta, true)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let better = if bland {
                t_r < best_t - bland_tie
                    || (t_r < best_t + bland_tie
                        && best_row.is_some_and(|br| self.basis[r] < self.basis[br]))
            } else {
                t_r < best_t - tie || (t_r < best_t + tie && delta.abs() > best_piv)
            };
            if better {
                // Anchor the tie window at the running *minimum* step: a
                // tie-break winner may carry a slightly larger `t_r`, and
                // adopting that as the new anchor would let a chain of
                // pairwise ties walk the accepted ratio arbitrarily far
                // above the true minimum (see the chained-tie regression
                // test). Returning the min also keeps every other row at
                // least as feasible as the winner's own step would.
                best_t = best_t.min(t_r);
                best_row = Some(r);
                best_to_upper = to_upper;
                best_piv = delta.abs();
            }
        }
        (best_t, best_row, best_to_upper)
    }

    /// Runs primal pivots for one phase until optimal/unbounded.
    fn run_primal(
        &mut self,
        phase1: bool,
        pivots_left: &mut usize,
    ) -> Result<PhaseEnd, SolveError> {
        self.sync_xb();
        self.dual_ok = false;
        let mut degenerate_run = 0usize;
        let switch_after = 4 * (self.m + self.n);
        let mut bland = self.force_bland;
        if self.inject(FaultSite::InjectCycling) {
            self.recovery.record(NumericalEvent::CyclingSuspected);
            bland = true;
        }
        let mut pivots_done = 0usize;
        loop {
            if *pivots_left == 0 {
                self.recovery.record(NumericalEvent::PivotBudget);
                return Err(SolveError::IterationLimit);
            }
            self.checkpoint(pivots_done)?;
            self.compute_rc(phase1);
            let Some(enter) = self.price(bland) else {
                if !phase1 {
                    // Phase-2 optimality: the basis is dual feasible.
                    self.dual_ok = true;
                    if self.inject(FaultSite::PoisonRatioTest) {
                        // Corrupt a basic value *after* the nominally
                        // optimal exit: only the residual trust gate can
                        // keep this out of a node bound.
                        if let Some(slot) = (0..self.m).find(|&r| self.basis[r] < self.n) {
                            self.xb[slot] += 1e6 * (1.0 + self.xb[slot].abs());
                        }
                    }
                }
                return Ok(PhaseEnd::Optimal);
            };
            let sigma = if self.at_upper[enter] { -1.0 } else { 1.0 };
            let (d, spike) = self.direction(enter);
            let (t_block, block, to_upper) = self.ratio_test(sigma, &d, bland);
            let span = self.upper[enter] - self.lower[enter];
            let t = t_block.min(span);
            if !t.is_finite() {
                return Ok(PhaseEnd::Unbounded);
            }
            if span <= t_block {
                // Bound flip: the entering column crosses to its other
                // bound before any basic variable blocks.
                for (x, &di) in self.xb.iter_mut().zip(d.iter()) {
                    *x -= sigma * span * di;
                }
                self.recycle(d, spike);
                self.at_upper[enter] = !self.at_upper[enter];
                self.iters += 1;
                self.pivot_stats.bound_flips += 1;
            } else {
                let Some(prow) = block else {
                    return Err(SolveError::Numerical(
                        "ratio test returned a finite blocking step without a row".into(),
                    ));
                };
                self.pivot(prow, enter, sigma, t, d, spike, to_upper)?;
                self.pivot_stats.primal_pivots += 1;
            }
            *pivots_left -= 1;
            pivots_done += 1;
            if t.abs() <= 1e-12 {
                degenerate_run += 1;
                if degenerate_run > switch_after && !bland {
                    self.recovery.record(NumericalEvent::CyclingSuspected);
                    bland = true;
                }
            } else {
                degenerate_run = 0;
                bland = self.force_bland;
            }
        }
    }

    /// Cold start: crash, phase 1, phase 2.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`],
    /// [`SolveError::IterationLimit`] or [`SolveError::Numerical`].
    pub fn solve_two_phase(&mut self, pivots_left: &mut usize) -> Result<(), SolveError> {
        if self.inject(FaultSite::FakeIterationLimit) {
            self.recovery.record(NumericalEvent::PivotBudget);
            return Err(SolveError::IterationLimit);
        }
        if self.out_of_time() {
            self.recovery.record(NumericalEvent::TimeBudget);
            return Err(SolveError::IterationLimit);
        }
        self.crash();
        self.refactor()?;
        self.compute_xb();

        if (0..self.m).any(|r| self.basis[r] >= self.n) {
            match self.run_primal(true, pivots_left)? {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded => {
                    return Err(SolveError::Numerical("phase-1 unbounded".into()));
                }
            }
            // Infeasibility is judged per row, relative to that row's
            // rhs/bound scale: a 1e-9-scaled model leaves a ~1e-9
            // residual when genuinely infeasible (far below any absolute
            // 1e-6 cutoff), a hugely scaled feasible one carries
            // round-off far above it, and a unit-scale contradiction is
            // not masked by an unrelated huge row.
            let scales = self.row_scales();
            let infeasible = (0..self.m)
                .any(|r| self.basis[r] >= self.n && self.xb[r].max(0.0) > 1e-6 * scales[r]);
            if infeasible {
                return Err(SolveError::Infeasible);
            }
            self.drive_out_artificials(pivots_left)?;
        }

        match self.run_primal(false, pivots_left)? {
            PhaseEnd::Optimal => Ok(()),
            PhaseEnd::Unbounded => Err(SolveError::Unbounded),
        }
    }

    /// Pivots zero-valued basic artificials out of the basis where a real
    /// column can replace them (rows that stay artificial are redundant).
    fn drive_out_artificials(&mut self, pivots_left: &mut usize) -> Result<(), SolveError> {
        for r in 0..self.m {
            if self.basis[r] < self.n {
                continue;
            }
            self.pivot_row(r);
            let alpha = &self.work.alpha;
            let enter = alpha
                .touched
                .iter()
                .copied()
                .filter(|&j| {
                    !self.in_basis[j] && self.upper[j] > self.lower[j] && alpha.val[j].abs() > 1e-7
                })
                .min();
            if let Some(enter) = enter {
                let (d, spike) = self.direction(enter);
                if d[r].abs() > PIVOT_TOL {
                    // Degenerate swap: the artificial sits at 0, so the
                    // entering column does not move (t = 0).
                    self.pivot(r, enter, 1.0, 0.0, d, spike, false)?;
                    self.pivot_stats.primal_pivots += 1;
                    *pivots_left = pivots_left.saturating_sub(1);
                } else {
                    self.recycle(d, spike);
                }
            }
        }
        Ok(())
    }

    // --- dual simplex ----------------------------------------------------

    /// Reoptimizes after rhs/bound changes from a dual-feasible basis:
    /// dual simplex pivots until every basic variable is inside its box.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when the dual is unbounded (the node LP
    /// has no feasible point), [`SolveError::IterationLimit`] when the
    /// budget runs out mid-repair (caller should fall back to a cold
    /// solve) and [`SolveError::Numerical`] on factorization trouble or
    /// when a violation within `FEAS_TOL` has no entering candidate.
    pub fn dual_reopt(&mut self, pivots_left: &mut usize) -> Result<(), SolveError> {
        self.sync_xb();
        // Dual pivots preserve dual feasibility, so the flag stays set
        // across every exit except numerical failure — including
        // Infeasible (dual unbounded) and IterationLimit, after which
        // the basis is still a valid warm-start seed.
        self.dual_ok = true;
        // Box violations are judged per row, relative to the row's own
        // rhs/bound scale — the same hygiene the phase-1 exit uses. The
        // noise floor tracks the *global* scale: FTRAN mixes rows, so
        // even a zero-scale row carries round-off at the global
        // magnitude, and an eligibility cut below that would pivot on
        // noise. The cutoffs depend on the row's basic variable, so
        // after a pivot only the pivot row's is refreshed.
        let scales = self.row_scales();
        let global = scales.iter().fold(0.0f64, |a, &v| a.max(v));
        let noise_floor = 1e3 * f64::EPSILON * global;
        let mut cuts: Vec<f64> = (0..self.m)
            .map(|r| self.leaving_cut(r, scales[r], noise_floor))
            .collect();
        // Incremental reduced costs: computed here unless the last
        // pricing pass left them fresh (nothing moved the basis or the
        // factors since), then updated per pivot from the pivot row the
        // ratio test computes anyway.
        self.compute_rc(false);
        let mut just_refactored = false;
        let mut pivots_done = 0usize;
        loop {
            // Checked before the violation scan: a checkpoint that heals
            // residual drift recomputes x_B, and the row selection below
            // must see the corrected values.
            self.checkpoint(pivots_done)?;
            let Some((prow, below, worst)) = self.dual_leaving_row(&cuts) else {
                return Ok(()); // primal feasible (and still dual feasible)
            };
            if *pivots_left == 0 {
                self.recovery.record(NumericalEvent::PivotBudget);
                return Err(SolveError::IterationLimit);
            }

            // Row prow of B⁻¹A from ρ's nonzeros: α_j = ρᵀA_j for every
            // nonbasic column it reaches, feeding both the long-step
            // ratio test and the incremental rc update.
            self.pivot_row(prow);
            let Some((enter, sigma)) = self.dual_ratio_test(below, worst) else {
                // A violation within FEAS_TOL that no candidate can
                // repair is round-off, not a proof: let the caller
                // re-solve from the parent basis or cold.
                if worst <= FEAS_TOL {
                    return Err(SolveError::Numerical(
                        "unrepairable round-off violation".into(),
                    ));
                }
                // Dual unbounded: the violated row cannot be repaired,
                // not even with every exhausted candidate flipped to its
                // other bound.
                return Err(SolveError::Infeasible);
            };
            // Long-step bound flips: each flipped candidate crosses to
            // its other bound (the coming dual step moves its reduced
            // cost across zero admissibly), eating `|α|·span` of the
            // violation while the scan continued past its breakpoint.
            if !self.work.flips.is_empty() {
                for &j in &self.work.flips {
                    let old = self.nb_value(j);
                    self.at_upper[j] = !self.at_upper[j];
                    let dv = self.nb_value(j) - old;
                    for &(r, a) in &self.cols[j] {
                        self.pending.push((r, -a * dv));
                    }
                    self.iters += 1;
                    self.pivot_stats.bound_flips += 1;
                    *pivots_left = pivots_left.saturating_sub(1);
                }
                self.sync_xb();
            }
            let (d, spike) = self.direction(enter);
            if d[prow].abs() <= PIVOT_TOL {
                self.recycle(d, spike);
                // Factorization drift: the FTRAN direction disagrees with
                // the BTRAN row. Refactorize, recompute x_B, and restart
                // the iteration — the corrected x_B may change which row
                // (if any) is violated, so the stale (prow, below, enter)
                // selection must not be pivoted on. (Applied long-step
                // flips are legitimate bound-state changes and stay.)
                if just_refactored {
                    self.dual_ok = false;
                    return Err(SolveError::Numerical("dual pivot vanished".into()));
                }
                self.refactor()?;
                self.compute_xb();
                self.compute_rc(false);
                just_refactored = true;
                continue;
            }
            just_refactored = false;
            let leaving = self.basis[prow];
            self.dual_pivot(prow, enter, sigma, below, d, spike)?;
            self.pivot_stats.dual_pivots += 1;
            // The dual step moved the duals by γ·ρ with γ = rc_q/α_q, so
            // every nonbasic reduced cost moves by −γ·α_j — the pivot
            // row already holds every nonzero α_j. The leaving variable
            // lands nonbasic at rc = −γ; the entering one becomes basic
            // at exactly 0.
            let alpha = &self.work.alpha;
            let gamma = self.rc[enter] / alpha.val[enter];
            if gamma != 0.0 {
                for &j in &alpha.touched {
                    if alpha.val[j] != 0.0 {
                        self.rc[j] -= gamma * alpha.val[j];
                    }
                }
            }
            if leaving < self.n {
                self.rc[leaving] = -gamma;
            }
            self.rc[enter] = 0.0;
            cuts[prow] = self.leaving_cut(prow, scales[prow], noise_floor);
            *pivots_left = pivots_left.saturating_sub(1);
            pivots_done += 1;
        }
    }

    /// Eligibility cutoff of row `r`'s box violation in the dual
    /// leaving-row scan: [`FEAS_TOL`] relative to the row's own scale
    /// (`row_scale` maxed with the basic variable's finite bound
    /// magnitudes), floored at the global round-off allowance
    /// `noise_floor`.
    fn leaving_cut(&self, r: usize, row_scale: f64, noise_floor: f64) -> f64 {
        let (lb, ub) = self.box_of(self.basis[r]);
        let mut scale = row_scale;
        if lb.is_finite() {
            scale = scale.max(lb.abs());
        }
        if ub.is_finite() {
            scale = scale.max(ub.abs());
        }
        (FEAS_TOL * scale).max(noise_floor)
    }

    /// Leaving-row selection of the dual simplex: the basic variable
    /// most out of its box. Violations are judged against each row's
    /// cutoff ([`Revised::leaving_cut`]), **relative to the row's own
    /// rhs/bound scale** — an absolute cutoff would both pivot on
    /// round-off next to a 1e6-scaled row and miss genuine violations
    /// on tiny-scaled ones (see the mixed-scale regression test). Among
    /// the eligible rows the largest raw violation wins. Returns
    /// `(row, violated_below, violation)`.
    fn dual_leaving_row(&self, cuts: &[f64]) -> Option<(usize, bool, f64)> {
        let mut prow: Option<(usize, bool, f64)> = None;
        let mut best = 0.0f64;
        for (r, &cut) in cuts.iter().enumerate() {
            let (lb, ub) = self.box_of(self.basis[r]);
            let under = lb - self.xb[r];
            let over = self.xb[r] - ub;
            let (viol, is_below) = if under >= over {
                (under, true)
            } else {
                (over, false)
            };
            if viol > cut && viol > best {
                best = viol;
                prow = Some((r, is_below, viol));
            }
        }
        prow
    }

    /// Dual ratio test on the pivot row in the work set: the nonbasic
    /// columns it reaches whose `α` moves the violated basic variable
    /// toward its bound are the candidates, at ratio `|rc|/|α|`, and
    /// [`long_step`] picks the entering one. Returns `(column,
    /// direction)`, with the candidates to bound-flip first left in
    /// `work.flips`; `None` when the dual ray is unbounded.
    fn dual_ratio_test(&mut self, below: bool, violation: f64) -> Option<(usize, f64)> {
        let w = &mut self.work;
        w.cands.clear();
        for &j in &w.alpha.touched {
            let span = self.upper[j] - self.lower[j];
            if self.in_basis[j] || span <= 0.0 {
                continue;
            }
            let alpha = w.alpha.val[j];
            if alpha.abs() <= PIVOT_TOL {
                continue;
            }
            let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
            let effect = -sigma * alpha;
            if (below && effect <= PIVOT_TOL) || (!below && effect >= -PIVOT_TOL) {
                continue;
            }
            let num = if self.at_upper[j] {
                (-self.rc[j]).max(0.0)
            } else {
                self.rc[j].max(0.0)
            };
            w.cands.push(Cand {
                ratio: num / alpha.abs(),
                j,
                sigma,
                alpha: alpha.abs(),
                span,
            });
        }
        long_step(&mut w.cands, violation, &mut w.flips).map(|c| (c.j, c.sigma))
    }

    /// One dual pivot: drive `xb[prow]` exactly onto its violated bound.
    fn dual_pivot(
        &mut self,
        prow: usize,
        enter: usize,
        sigma: f64,
        below: bool,
        d: Vec<f64>,
        spike: Option<Vec<f64>>,
    ) -> Result<(), SolveError> {
        let (lb, ub) = self.box_of(self.basis[prow]);
        let target = if below { lb } else { ub };
        // xb[prow] − sigma·t·d[prow] = target
        let t = (self.xb[prow] - target) / (sigma * d[prow]);
        self.pivot(prow, enter, sigma, t.max(0.0), d, spike, !below)
    }

    /// Primal phase-2 cleanup from the current (primal-feasible) basis.
    ///
    /// # Errors
    ///
    /// See [`Revised::solve_two_phase`].
    pub fn primal_opt(&mut self, pivots_left: &mut usize) -> Result<(), SolveError> {
        match self.run_primal(false, pivots_left)? {
            PhaseEnd::Optimal => Ok(()),
            PhaseEnd::Unbounded => Err(SolveError::Unbounded),
        }
    }

    // --- recovery-ladder controls ----------------------------------------

    /// Ladder rung 3: switch the update scheme the *next*
    /// refactorization resolves to (a following cold solve rebuilds the
    /// factors under it). The factors currently installed are untouched.
    pub fn set_update_kind(&mut self, kind: UpdateKind) {
        self.fcfg.update = kind;
    }

    /// Ladder rung 5: price with Bland's rule from the first pivot of
    /// every following run (`false` restores the automatic
    /// Dantzig-with-fallback policy).
    pub fn set_force_bland(&mut self, on: bool) {
        self.force_bland = on;
    }

    /// The recovery ledger accumulated by this kernel instance.
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Ladder rung 4, and the restore after any rung: a fresh kernel
    /// over the same form, back on Forrest–Tomlin updates, discarding
    /// every piece of possibly corrupted basis/factor state while
    /// carrying over what must survive the swap: the branch-tightened
    /// column boxes (the form only knows the root boxes), the
    /// accumulated telemetry, the fault injector and the original
    /// wall-clock deadline (a rebuild must not extend the time budget).
    pub fn rebuilt(&mut self, form: &StandardForm) -> Revised {
        let mut fresh = Revised::new(form, self.injector.take(), self.deadline);
        fresh.lower.copy_from_slice(&self.lower);
        fresh.upper.copy_from_slice(&self.upper);
        fresh.iters = self.iters;
        fresh.factor_stats = self.factor_stats;
        fresh.pivot_stats = self.pivot_stats;
        fresh.recovery = std::mem::take(&mut self.recovery);
        fresh.force_bland = self.force_bland;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Kernel, Model, Sense, SolverOptions};
    use crate::LinExpr;

    impl Revised {
        /// `A_jᵀy` column-wise: the reference [`RowMajor::product`] must
        /// reproduce bit for bit.
        pub(crate) fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
            let mut s = 0.0;
            self.for_col(j, |r, v| s += v * y[r]);
            s
        }

        /// The pivot row the dual simplex would price for `rho`, dense.
        pub(crate) fn alpha_of(&mut self, rho: &[f64]) -> Vec<f64> {
            self.work.rho = rho.to_vec();
            self.scatter_alpha();
            self.work.alpha.val.clone()
        }

        /// Whether column `j` is basic.
        pub(crate) fn is_basic(&self, j: usize) -> bool {
            self.in_basis[j]
        }
    }

    fn solve_model(m: &Model) -> Result<Vec<f64>, SolveError> {
        let sf = StandardForm::build(m, None);
        let mut k = Revised::new(&sf, None, None);
        k.solve_two_phase(&mut SolverOptions::default().max_pivots)?;
        Ok(sf.recover(&k.values()))
    }

    /// The deadline is enforced *inside* the kernel (solve entry and
    /// pivot-loop checkpoints), not only at node boundaries: an already
    /// expired deadline aborts before any pivot.
    #[test]
    fn zero_time_limit_aborts_inside_the_kernel() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        m.set_objective(3.0 * x + 5.0 * y);
        m.add_constraint(x + y, cmp::LE, 4.0);
        let sf = StandardForm::build(&m, None);
        let mut kernel = Revised::new(&sf, None, Some(Instant::now()));
        assert!(kernel.out_of_time());
        assert_eq!(
            kernel.recovery().time_budget,
            0,
            "the budget event is recorded by the solve path, not the probe"
        );
        assert_eq!(
            kernel.solve_two_phase(&mut 1_000),
            Err(SolveError::IterationLimit)
        );
        assert_eq!(kernel.iters, 0);
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(3.0 * x + 5.0 * y);
        m.add_constraint(LinExpr::var(x), cmp::LE, 4.0);
        m.add_constraint(2.0 * y, cmp::LE, 12.0);
        m.add_constraint(3.0 * x + 2.0 * y, cmp::LE, 18.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-7, "x = {}", v[0]);
        assert!((v[1] - 6.0).abs() < 1e-7, "y = {}", v[1]);
    }

    #[test]
    fn boxed_bounds_bind_without_rows() {
        // max x + y, x ∈ [0, 2.5], y ∈ [1, 3], x + y <= 4 → (2.5, 1.5) or
        // (1, 3): optimum value 4 with x at most 2.5 and y at least 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 2.5);
        let y = m.add_continuous(1.0, 3.0);
        m.set_objective(x + LinExpr::var(y));
        m.add_constraint(x + y, cmp::LE, 4.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] + v[1] - 4.0).abs() < 1e-7, "{v:?}");
        assert!(v[0] <= 2.5 + 1e-9 && v[1] >= 1.0 - 1e-9);
    }

    #[test]
    fn upper_bounded_objective_rests_at_upper() {
        // max 2x + y with x ∈ [0, 3], y ∈ [0, 5] and a slack row; both
        // variables should sit at their upper bounds (bound flips, no
        // pivots needed beyond the crash).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 3.0);
        let y = m.add_continuous(0.0, 5.0);
        m.set_objective(2.0 * x + y);
        m.add_constraint(x + y, cmp::LE, 100.0);
        let v = solve_model(&m).unwrap();
        assert!(
            (v[0] - 3.0).abs() < 1e-7 && (v[1] - 5.0).abs() < 1e-7,
            "{v:?}"
        );
    }

    #[test]
    fn equality_and_ge_rows_need_phase1() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.add_constraint(x + y, cmp::EQ, 4.0);
        m.add_constraint(x - y, cmp::GE, 1.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] + v[1] - 4.0).abs() < 1e-7);
        assert!(v[0] - v[1] >= 1.0 - 1e-7);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::var(x), cmp::LE, 1.0);
        m.add_constraint(LinExpr::var(x), cmp::GE, 2.0);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Infeasible);

        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(-1.0 * x, cmp::LE, 5.0);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3 (x >= 3): crash needs a signed artificial.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(-1.0 * x, cmp::LE, -3.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.add_constraint(x + y, cmp::LE, 1.0);
        m.add_constraint(x + 2.0 * y, cmp::LE, 1.0);
        m.add_constraint(2.0 * x + y, cmp::LE, 1.0);
        m.add_constraint(x - y, cmp::LE, 1.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] + v[1] - (2.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn dual_reopt_tracks_col_bound_tightening() {
        // max x + y s.t. x + y <= 6, x,y ∈ [0, 4] → obj 6. Tighten
        // x ∈ [0, 1] via the column box: dual reopt lands on obj 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 4.0);
        let y = m.add_continuous(0.0, 4.0);
        m.set_objective(x + LinExpr::var(y));
        m.add_constraint(x + y, cmp::LE, 6.0);
        let sf = StandardForm::build(&m, None);
        let opts = SolverOptions::default();
        let mut k = Revised::new(&sf, None, None);
        let mut budget = opts.max_pivots;
        k.solve_two_phase(&mut budget).unwrap();
        let v0 = sf.recover(&k.values());
        assert!((v0[0] + v0[1] - 6.0).abs() < 1e-7, "{v0:?}");
        assert!(k.dual_ok());

        // x's standard-form column is column 0 (shifted by lb 0).
        k.set_col_bounds(0, 0.0, 1.0);
        k.dual_reopt(&mut budget).unwrap();
        k.primal_opt(&mut budget).unwrap();
        let v1 = sf.recover(&k.values());
        assert!(v1[0] <= 1.0 + 1e-7, "x = {}", v1[0]);
        assert!((v1[0] + v1[1] - 5.0).abs() < 1e-6, "{v1:?}");
    }

    #[test]
    fn dual_reopt_detects_node_infeasibility() {
        // x <= 2 (row) with box raised to [3, 4] is infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 4.0);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::LE, 2.0);
        let sf = StandardForm::build(&m, None);
        let opts = SolverOptions::default();
        let mut k = Revised::new(&sf, None, None);
        let mut budget = opts.max_pivots;
        k.solve_two_phase(&mut budget).unwrap();
        k.set_col_bounds(0, 3.0, 4.0);
        assert_eq!(
            k.dual_reopt(&mut budget).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn snapshot_restores_across_perturbation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 4.0);
        let y = m.add_continuous(0.0, 4.0);
        m.set_objective(2.0 * x + LinExpr::var(y));
        m.add_constraint(x + y, cmp::LE, 5.0);
        let sf = StandardForm::build(&m, None);
        let opts = SolverOptions::default();
        let mut k = Revised::new(&sf, None, None);
        let mut budget = opts.max_pivots;
        k.solve_two_phase(&mut budget).unwrap();
        let snap = k.basis_snapshot();
        let obj0: f64 = {
            let v = sf.recover(&k.values());
            2.0 * v[0] + v[1]
        };
        // Perturb: pin x to 0, reoptimize, then restore.
        k.set_col_bounds(0, 0.0, 0.0);
        k.dual_reopt(&mut budget).unwrap();
        k.primal_opt(&mut budget).unwrap();
        k.set_col_bounds(0, 0.0, 4.0);
        k.install_basis(&snap).unwrap();
        k.dual_reopt(&mut budget).unwrap();
        k.primal_opt(&mut budget).unwrap();
        let v = sf.recover(&k.values());
        assert!((2.0 * v[0] + v[1] - obj0).abs() < 1e-6, "{v:?} vs {obj0}");
    }

    /// The production refactor policy (`FactorConfig::default`)
    /// reaches the kernel: its automatic length cap `max(64, 2m)` never
    /// binds on this small LP, so the solve takes only the crash
    /// refactor. (The `factor` tests drive non-default policies
    /// directly through `FactorConfig`.)
    #[test]
    fn solver_options_refactor_policy_reaches_the_kernel() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        let z = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(2.0 * x + 3.0 * y + z);
        m.add_constraint(x + y + z, cmp::GE, 6.0);
        m.add_constraint(x + 2.0 * y, cmp::GE, 4.0);
        m.add_constraint(y + 3.0 * z, cmp::GE, 5.0);
        let sf = StandardForm::build(&m, None);
        let opts = SolverOptions::default();
        let mut k = Revised::new(&sf, None, None);
        let mut budget = opts.max_pivots;
        k.solve_two_phase(&mut budget).unwrap();
        assert!(k.iters > 0);
        assert_eq!(
            k.factor_stats.refactors, 1,
            "only the crash refactor expected"
        );
    }

    /// A kernel whose `ratio_test` can be probed directly: two rows, two
    /// real columns, basis = the two structural columns, `xb` set by the
    /// test. (`ratio_test` reads only the basis, boxes and `xb`, so no
    /// factorization is needed.)
    fn ratio_probe(xb: [f64; 2]) -> Revised {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        m.add_constraint(LinExpr::var(x), cmp::EQ, 1.0);
        m.add_constraint(LinExpr::var(y), cmp::EQ, 1.0);
        let sf = StandardForm::build(&m, None);
        let mut k = Revised::new(&sf, None, None);
        k.basis[0] = 0;
        k.basis[1] = 1;
        k.in_basis[0] = true;
        k.in_basis[1] = true;
        k.xb = xb.to_vec();
        k
    }

    /// **Tolerance-hygiene regression**: the ratio test's tie window is
    /// `0.01·FEAS_TOL` = 1e-9 around the minimum ratio. Two rows with
    /// ratios 1.0 and 1.0 + 5e-10 fall inside it: they tie and the
    /// larger pivot wins (row 1). At 1.0 and 1.0 + 5e-9 they fall
    /// outside it, and the strictly smaller ratio wins (row 0).
    #[test]
    fn feas_tol_changes_the_blocking_row() {
        let d = [1.0, 2.0];
        let k = ratio_probe([1.0, 2.0 * (1.0 + 5e-10)]);
        let (t, row, _) = k.ratio_test(1.0, &d, false);
        assert_eq!(row, Some(1), "a tie must break to the larger pivot");
        assert!((t - 1.0).abs() < 1e-6);

        let k = ratio_probe([1.0, 2.0 * (1.0 + 5e-9)]);
        let (_, row, _) = k.ratio_test(1.0, &d, false);
        assert_eq!(
            row,
            Some(0),
            "outside the tie window the strictly smaller ratio must win"
        );
    }

    /// **Tolerance-hygiene regression**: rows whose pivot element is at
    /// most `PIVOT_TOL` = 1e-9 are ineligible, so a 1e-10 pivot row is
    /// skipped while a 1e-8 pivot row blocks.
    #[test]
    fn pivot_tol_gates_ratio_test_eligibility() {
        let k = ratio_probe([1e-12, 5.0]);
        let (_, row, _) = k.ratio_test(1.0, &[1e-10, 1.0], false);
        assert_eq!(row, Some(1), "sub-tolerance pivot row must be skipped");

        let (_, row, _) = k.ratio_test(1.0, &[1e-8, 1.0], false);
        assert_eq!(row, Some(0), "an above-tolerance pivot row must block");
    }

    /// **Scaled-model regression (ported from the PR 3 factor suite to
    /// the primal entry point)**: a 1e-9-scaled *infeasible* model —
    /// after the standard form's row equilibration a uniformly tiny
    /// model is exactly a tiny-**rhs** model — leaves a ~1e-9 phase-1
    /// residual, far below the old absolute `1e-6` cutoff, which
    /// silently accepted the garbage point as "feasible". The cutoff is
    /// relative to the rhs scale now.
    #[test]
    fn tiny_scaled_infeasibility_is_detected() {
        let s = 1e-9;
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(x + LinExpr::var(y));
        // Two parallel equalities 1e-9 apart: infeasible by exactly s.
        m.add_constraint(x + y, cmp::EQ, s);
        m.add_constraint(x + y, cmp::EQ, 2.0 * s);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Infeasible);
    }

    /// The relative cutoff is **per row**, not a single global maximum:
    /// a unit-scale contradiction (y constrained to both 1 and 2) next
    /// to an unrelated 1e6-scale row must still be detected — under a
    /// global scale the cutoff would balloon to `1e-6·1e6 = 1` and
    /// accept the 0.5-violating point as feasible.
    #[test]
    fn mixed_scale_infeasibility_is_not_masked_by_a_large_row() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.add_constraint(x + 0.5 * y, cmp::EQ, 1e6);
        m.add_constraint(x - y, cmp::EQ, 1.0);
        m.add_constraint(x - y, cmp::EQ, 2.0);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Infeasible);
    }

    /// The feasible side of the same regression: a well-conditioned
    /// model living entirely at rhs scale 1e-9 must solve to its (tiny)
    /// optimum — the relative cutoff must not misfire on round-off.
    #[test]
    fn tiny_scaled_feasible_model_solves() {
        let s = 1e-9;
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.add_constraint(x + y, cmp::EQ, 4.0 * s);
        m.add_constraint(x - y, cmp::GE, s);
        let v = solve_model(&m).unwrap();
        assert!((v[0] + v[1] - 4.0 * s).abs() < 1e-6 * s, "{v:?}");
        assert!(v[0] - v[1] >= s * (1.0 - 1e-6), "{v:?}");
    }

    /// The update scheme reaches the factorization: a fresh kernel runs
    /// Forrest–Tomlin updates (the eta file stays empty and updates are
    /// counted); switched to the product form by `set_update_kind`
    /// before its first solve (the ladder's rung-3 configuration), it
    /// runs no FT update at all. Same optimum.
    #[test]
    fn update_kind_reaches_the_kernel() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        let z = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(2.0 * x + 3.0 * y + z);
        m.add_constraint(x + y + z, cmp::GE, 6.0);
        m.add_constraint(x + 2.0 * y, cmp::GE, 4.0);
        m.add_constraint(y + 3.0 * z, cmp::GE, 5.0);
        let sf = StandardForm::build(&m, None);
        let run = |update: UpdateKind| {
            let opts = SolverOptions::default();
            let mut k = Revised::new(&sf, None, None);
            k.set_update_kind(update);
            let mut budget = opts.max_pivots;
            k.solve_two_phase(&mut budget).unwrap();
            let v = sf.recover(&k.values());
            (2.0 * v[0] + 3.0 * v[1] + v[2], k.factor_stats)
        };
        let (obj_ft, stats_ft) = run(UpdateKind::ForrestTomlin);
        let (obj_pf, stats_pf) = run(UpdateKind::ProductForm);
        assert!((obj_ft - obj_pf).abs() < 1e-9, "{obj_ft} vs {obj_pf}");
        assert!(stats_ft.ft_updates > 0, "FT mode never updated the factors");
        assert_eq!(stats_pf.ft_updates, 0, "product form ran FT updates");
    }

    /// N-row generalization of [`ratio_probe`]: row `r` holds structural
    /// column `r` basic at `xb[r]`, every box is `[0, 10]`.
    fn ratio_probe_n(xb: &[f64]) -> Revised {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..xb.len()).map(|_| m.add_continuous(0.0, 10.0)).collect();
        for &v in &vars {
            m.add_constraint(LinExpr::var(v), cmp::EQ, 1.0);
        }
        let sf = StandardForm::build(&m, None);
        let mut k = Revised::new(&sf, None, None);
        for r in 0..xb.len() {
            k.basis[r] = r;
            k.in_basis[r] = true;
        }
        k.xb = xb.to_vec();
        k
    }

    /// **Chained-tie anchor regression (primal)**: four rows whose ratios
    /// step by 0.9e-9 — each *pairwise* within the 1e-9 tie window of its
    /// neighbor, but rows 2 and 3 are *not* ties of the true minimum.
    /// The pre-fix code re-anchored the window at each tie winner's own
    /// (larger) ratio, so the chain walked it out to row 3; the anchor
    /// must stay at the running minimum, admitting only row 1.
    #[test]
    fn chained_near_ties_do_not_walk_the_primal_tie_window() {
        let d = [1.0, 2.0, 3.0, 4.0];
        let xb: Vec<f64> = d
            .iter()
            .enumerate()
            .map(|(i, &dr)| dr * (1.0 + i as f64 * 0.9e-9))
            .collect();
        let k = ratio_probe_n(&xb); // tie window 1e-9
        let (t, row, _) = k.ratio_test(1.0, &d, false);
        assert_eq!(
            row,
            Some(1),
            "tie window must stay anchored at the minimum ratio"
        );
        // The returned step is the running *minimum*, not the winner's
        // own slightly larger ratio.
        assert!((t - 1.0).abs() < 1e-12, "t = {t}");
    }

    /// A kernel whose dual ratio tests can be probed directly: one
    /// equality row `x/3 + 2y/3 + z = 1` (max coefficient 1.0, so row
    /// equilibration is the identity), all three structural columns
    /// nonbasic at lower bound, the artificial left basic. Costs are
    /// `alpha_j · (1 + j·0.9e-9)`, so with `ρ = e_0` the dual ratios
    /// `rc_j/|α_j|` step by 0.9e-9 with pivot magnitudes increasing.
    fn dual_tie_probe() -> Revised {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        let z = m.add_continuous(0.0, 10.0);
        let a = [1.0 / 3.0, 2.0 / 3.0, 1.0];
        m.set_objective(a[0] * x + (a[1] * (1.0 + 0.9e-9)) * y + (a[2] * (1.0 + 1.8e-9)) * z);
        m.add_constraint(a[0] * x + a[1] * y + a[2] * z, cmp::EQ, 1.0);
        let sf = StandardForm::build(&m, None);
        Revised::new(&sf, None, None)
    }

    /// Runs the dual ratio test of `k` on the pivot row `alphas` and the
    /// reduced costs `rc`: `(entering column, flipped columns)`.
    fn ratio_choice(
        k: &mut Revised,
        alphas: &[f64],
        rc: &[f64],
        below: bool,
        violation: f64,
    ) -> Option<(usize, Vec<usize>)> {
        let row = &mut k.work.alpha;
        row.reset();
        for (j, &a) in alphas.iter().enumerate() {
            row.val[j] = a;
            row.seen[j] = true;
            row.touched.push(j);
        }
        k.rc = rc.to_vec();
        k.dual_ratio_test(below, violation)
            .map(|(enter, _)| (enter, k.work.flips.clone()))
    }

    /// **Chained-tie anchor regression (dual)**: same construction as the
    /// primal test, driven through the long-step `dual_ratio_test`. The
    /// row violation (1.0) is below every candidate's `|α|·span`, so
    /// nothing flips and column 0 (the minimum ratio) is the scan's
    /// entering candidate. Column 1 ties it and out-pivots it; column 2
    /// is only a tie of the *winner*, not of the minimum, and must not
    /// enter — it would if the window were anchored at the pick.
    #[test]
    fn chained_near_ties_do_not_walk_the_dual_tie_window() {
        let mut k = dual_tie_probe();
        let rho = vec![1.0];
        // Sanity: equilibration left the row untouched.
        for (j, want) in [(0usize, 1.0 / 3.0), (1, 2.0 / 3.0), (2, 1.0)] {
            assert!(
                (k.col_dot(j, &rho) - want).abs() < 1e-15,
                "row was rescaled; rebuild the probe"
            );
        }
        // With zero duals every reduced cost is the column's own cost.
        let alphas: Vec<f64> = (0..3).map(|j| k.col_dot(j, &rho)).collect();
        let rc: Vec<f64> = (0..3).map(|j| k.cost_of(j, false)).collect();
        let (enter, flips) =
            ratio_choice(&mut k, &alphas, &rc, false, 1.0).expect("a candidate must be found");
        assert_eq!(
            enter, 1,
            "tie window must stay anchored at the minimum ratio"
        );
        assert!(flips.is_empty());
    }

    /// **Scale-hygiene regression for the dual leaving-row scan**: a
    /// basic variable 0.03 outside its bound on a 2e6-scale row is
    /// round-off, not infeasibility — while 0.01 outside a unit-scale
    /// box is genuine. Under the old absolute `FEAS_TOL` cut both rows
    /// were eligible and the larger raw violation (the noise) won.
    #[test]
    fn dual_leaving_row_judges_violations_relative_to_row_scale() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 2e6);
        let y = m.add_continuous(0.0, 1.0);
        m.add_constraint(LinExpr::var(x), cmp::EQ, 1e6);
        m.add_constraint(LinExpr::var(y), cmp::EQ, 0.5);
        let sf = StandardForm::build(&m, None);
        let mut k = Revised::new(&sf, None, None);
        k.basis[0] = 0;
        k.basis[1] = 1;
        k.in_basis[0] = true;
        k.in_basis[1] = true;
        k.xb = vec![2e6 + 0.03, 1.01];
        let scales = [2e6, 1.0];
        let noise_floor = 1e3 * f64::EPSILON * 2e6;
        let cuts: Vec<f64> = (0..2)
            .map(|r| k.leaving_cut(r, scales[r], noise_floor))
            .collect();
        let (row, below, viol) = k
            .dual_leaving_row(&cuts)
            .expect("the unit-scale violation must be seen");
        assert_eq!(row, 1, "round-off on the 2e6-scale row out-scored it");
        assert!(!below);
        assert!((viol - 0.01).abs() < 1e-12);
    }

    /// The long-step dual ratio test flips span-exhausted candidates and
    /// keeps scanning: with the row violated by 1.0, the best-ratio
    /// column (|α|·span = 0.6) cannot absorb the step alone, so it bound
    /// -flips and the next candidate enters. When *every* candidate is
    /// exhausted the dual ray is unbounded over the boxes: `None`, with
    /// no flips committed.
    #[test]
    fn long_step_dual_ratio_test_flips_exhausted_candidates() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 0.3);
        let y = m.add_continuous(0.0, 10.0);
        m.add_constraint(0.2 * x + 0.1 * y, cmp::EQ, 1.0);
        let sf = StandardForm::build(&m, None);
        let mut k = Revised::new(&sf, None, None);
        let alphas = [2.0, 1.0];
        let rc = [0.1, 0.2]; // ratios 0.05 and 0.2
        let (enter, flips) = ratio_choice(&mut k, &alphas, &rc, false, 1.0)
            .expect("the second candidate must absorb the step");
        assert_eq!(flips, vec![0], "best-ratio column must bound-flip");
        assert_eq!(enter, 1);
        // Violation beyond every candidate's combined reach: infeasible.
        assert!(
            ratio_choice(&mut k, &alphas, &rc, false, 20.0).is_none(),
            "an inexhaustible violation is a dual ray"
        );
    }

    /// **Round-off leftover regression**: when flipping every candidate
    /// leaves only round-off of the violation (here 1e-9 of 10.6), the
    /// row is repairable: the last candidate enters instead of flipping,
    /// so a feasible node LP is not declared infeasible. A leftover
    /// above `FEAS_TOL` is still a dual ray.
    #[test]
    fn dual_ratio_test_enters_the_last_candidate_on_a_round_off_leftover() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 0.3);
        let y = m.add_continuous(0.0, 10.0);
        m.add_constraint(0.2 * x + 0.1 * y, cmp::EQ, 1.0);
        let sf = StandardForm::build(&m, None);
        let mut k = Revised::new(&sf, None, None);
        let alphas = [2.0, 1.0]; // |α|·span: 0.6 and 10
        let rc = [0.1, 0.2];
        let (enter, flips) = ratio_choice(&mut k, &alphas, &rc, false, 10.6 + 1e-9)
            .expect("a round-off leftover is no dual ray");
        assert_eq!(flips, vec![0]);
        assert_eq!(enter, 1);
        assert!(
            ratio_choice(&mut k, &alphas, &rc, false, 10.6 + 1e-3).is_none(),
            "a leftover above FEAS_TOL is a dual ray"
        );
    }

    #[test]
    fn matches_dense_oracle_on_fixed_models() {
        // A couple of LPs solved by both kernels must agree to 1e-9.
        let build = |variant: usize| {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_continuous(0.0, 10.0);
            let y = m.add_continuous(-5.0, 5.0);
            let z = m.add_free();
            m.set_objective(3.0 * x - 2.0 * y + 0.5 * z);
            m.add_constraint(x + y + z, cmp::GE, 2.0);
            m.add_constraint(x - y, cmp::LE, 4.0);
            if variant == 1 {
                m.add_constraint(2.0 * x + z, cmp::EQ, 3.0);
            }
            m
        };
        for variant in 0..2 {
            let m = build(variant);
            let dense = {
                let o = SolverOptions {
                    kernel: Kernel::DenseTableau,
                    ..Default::default()
                };
                m.solve_with(&o).unwrap().objective
            };
            let revised = m.solve().unwrap().objective;
            assert!(
                (dense - revised).abs() < 1e-9,
                "variant {variant}: dense {dense} vs revised {revised}"
            );
        }
    }
}
