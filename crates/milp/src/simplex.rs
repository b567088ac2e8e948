//! Dense two-phase primal simplex on [`StandardForm`] — the crate's one
//! **cross-validation oracle** ([`crate::Kernel::DenseTableau`]).
//!
//! The production solve path is the revised simplex in
//! [`crate::revised`]. This tableau shares none of its code (no
//! factorization, pricing or ratio test), so it is the independent
//! answer every oracle LP gets: every node of an oracle search (a pure
//! LP is a one-node search) and the hint's pinned LP, and rung 6 of the
//! recovery ladder, which re-solves a failing production node here. It
//! is also the baseline the `milp_scaling` bench holds the revised
//! kernel's speedup against.
//!
//! The tableau keeps `y ≥ 0` alone, so it builds its own bound rows:
//! every finite column bound of the form becomes a `y + s = u` row after
//! the constraint rows, in column order, its slack numbered after the
//! constraint slacks.
//!
//! A classic full-tableau implementation:
//!
//! * **Phase 1** introduces artificial variables for rows without a natural
//!   identity column and minimizes their sum; a positive optimum proves
//!   infeasibility.
//! * **Phase 2** optimizes the real costs; a column with negative reduced
//!   cost and no positive tableau entry proves unboundedness.
//!
//! Anti-cycling: Dantzig pricing is used until a long run of degenerate
//! pivots is observed, after which the kernel switches to Bland's rule
//! (guaranteed finite). The ratio test breaks near-ties toward the largest
//! pivot magnitude for stability.

use std::time::Instant;

use crate::model::FEAS_TOL;
use crate::solution::SolveError;
use crate::standard::StandardForm;

/// Dense tableau: `m` constraint rows plus one objective row, `width`
/// columns (all variables, artificials, rhs).
struct Tableau {
    m: usize,
    width: usize,
    /// Row-major `(m + 1) * width`; the objective row is row `m`.
    data: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.width..(r + 1) * self.width]
    }
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.width..(r + 1) * self.width]
    }
    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.data[r * self.width + self.width - 1]
    }

    /// Performs the pivot on (`prow`, `pcol`), updating all rows including
    /// the objective row.
    fn pivot(&mut self, prow: usize, pcol: usize) {
        let width = self.width;
        let pval = self.data[prow * width + pcol];
        debug_assert!(pval.abs() > 1e-12, "pivot on a zero element");
        let inv = 1.0 / pval;
        {
            let r = self.row_mut(prow);
            for x in r.iter_mut() {
                *x *= inv;
            }
            r[pcol] = 1.0; // kill round-off on the pivot element
        }
        // Split the storage to get simultaneous access to the pivot row and
        // the row being eliminated.
        let (before, rest) = self.data.split_at_mut(prow * width);
        let (prow_slice, after) = rest.split_at_mut(width);
        let eliminate = |row: &mut [f64]| {
            let f = row[pcol];
            if f.abs() > 1e-12 {
                for (x, &p) in row.iter_mut().zip(prow_slice.iter()) {
                    *x -= f * p;
                }
                row[pcol] = 0.0;
            }
        };
        for row in before.chunks_exact_mut(width) {
            eliminate(row);
        }
        for row in after.chunks_exact_mut(width) {
            eliminate(row);
        }
        self.basis[prow] = pcol;
    }

    /// Entering column by Dantzig rule (most negative reduced cost) over
    /// `allowed` columns; `None` when optimal.
    fn price_dantzig(&self, ncols_allowed: usize, blocked: &[bool], tol: f64) -> Option<usize> {
        let obj = self.row(self.m);
        let mut best = None;
        let mut best_val = -tol;
        for (j, &rc) in obj.iter().enumerate().take(ncols_allowed) {
            if !blocked[j] && rc < best_val {
                best_val = rc;
                best = Some(j);
            }
        }
        best
    }

    /// Entering column by Bland's rule (smallest index with negative
    /// reduced cost).
    fn price_bland(&self, ncols_allowed: usize, blocked: &[bool], tol: f64) -> Option<usize> {
        let obj = self.row(self.m);
        (0..ncols_allowed).find(|&j| !blocked[j] && obj[j] < -tol)
    }

    /// Ratio test for the entering column; `None` means unbounded.
    ///
    /// `bland` switches to smallest-basis-index tie-breaking.
    fn ratio_test(&self, pcol: usize, bland: bool, tol: f64) -> Option<usize> {
        let mut best_row: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut best_piv = 0.0f64;
        for r in 0..self.m {
            let a = self.row(r)[pcol];
            if a > tol {
                let ratio = self.rhs(r) / a;
                let better = if bland {
                    ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && best_row.is_some_and(|br| self.basis[r] < self.basis[br]))
                } else {
                    // Prefer clearly smaller ratios; among near-ties pick the
                    // larger pivot element for numerical stability.
                    ratio < best_ratio - 1e-9 || (ratio < best_ratio + 1e-9 && a > best_piv)
                };
                if better {
                    best_ratio = ratio;
                    best_row = Some(r);
                    best_piv = a;
                }
            }
        }
        best_row
    }
}

/// Outcome of one phase of pivoting.
enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Pivot interval of the wall-clock check in [`run_phase`].
const TIME_CHECK_EVERY: usize = 128;

/// Runs pivots until optimality/unboundedness or a budget — pivots or
/// wall clock (checked every [`TIME_CHECK_EVERY`] pivots) — is spent.
fn run_phase(
    t: &mut Tableau,
    ncols_allowed: usize,
    blocked: &[bool],
    pivots_left: &mut usize,
    tol: f64,
    deadline: Option<Instant>,
) -> Result<PhaseEnd, SolveError> {
    // Degeneracy bookkeeping for the Bland switch.
    let mut degenerate_run = 0usize;
    let switch_after = 4 * (t.m + t.width);
    let mut bland = false;
    let mut pivots_done = 0usize;
    loop {
        if *pivots_left == 0 {
            return Err(SolveError::IterationLimit);
        }
        if pivots_done.is_multiple_of(TIME_CHECK_EVERY)
            && deadline.is_some_and(|dl| Instant::now() >= dl)
        {
            return Err(SolveError::IterationLimit);
        }
        let pcol = if bland {
            t.price_bland(ncols_allowed, blocked, tol)
        } else {
            t.price_dantzig(ncols_allowed, blocked, tol)
        };
        let Some(pcol) = pcol else {
            return Ok(PhaseEnd::Optimal);
        };
        let Some(prow) = t.ratio_test(pcol, bland, 1e-9) else {
            return Ok(PhaseEnd::Unbounded);
        };
        let before = t.rhs(t.m);
        t.pivot(prow, pcol);
        *pivots_left -= 1;
        pivots_done += 1;
        let after = t.rhs(t.m);
        if (after - before).abs() <= 1e-12 {
            degenerate_run += 1;
            if degenerate_run > switch_after {
                bland = true;
            }
        } else {
            degenerate_run = 0;
            bland = false;
        }
    }
}

/// Solves `min c·y, A·y = b, y >= 0` and returns the optimal `y`. Every
/// pivot is charged to `pivots_left`, also on failure; the wall clock is
/// checked against `deadline`, the caller's one deadline for its whole
/// solve.
///
/// # Errors
///
/// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
/// [`SolveError::IterationLimit`].
pub(crate) fn solve(
    sf: &StandardForm,
    pivots_left: &mut usize,
    deadline: Option<Instant>,
) -> Result<Vec<f64>, SolveError> {
    if sf.proven_infeasible {
        return Err(SolveError::Infeasible);
    }
    // The bound rows `y + s = u` (see the module docs).
    let (mut rows, mut rhs, mut n) = (sf.rows.clone(), sf.rhs.clone(), sf.ncols);
    for (col, &u) in sf.col_upper.iter().enumerate() {
        if u.is_finite() {
            rows.push(vec![(col, 1.0), (n, 1.0)]);
            rhs.push(u);
            n += 1;
        }
    }
    // Columns past the form's (bound-row slacks, artificials) cost 0.
    let cost = |j: usize| sf.cost.get(j).copied().unwrap_or(0.0);
    let m = rows.len();
    if m == 0 {
        // No rows: minimize over y >= 0 directly. Any negative cost makes
        // the problem unbounded; otherwise all-zero is optimal.
        if sf.cost.iter().any(|&c| c < -FEAS_TOL) {
            return Err(SolveError::Unbounded);
        }
        return Ok(vec![0.0; n]);
    }

    // --- Assemble tableau with artificials -----------------------------
    // Make rhs nonnegative by row negation, then give every row a basic
    // column: a +1 slack if one survived the sign flip, else an artificial.
    let mut need_artificial: Vec<bool> = vec![true; m];
    let negate: Vec<bool> = rhs.iter().map(|&b| b < 0.0).collect();
    // Identify usable basis columns: a column works for row `r` if it has
    // coefficient +1 there (after the sign flip) and appears in no other
    // row. Auxiliary slack/surplus columns satisfy the uniqueness test by
    // construction; unit structural columns are accepted too.
    let mut col_count = vec![0u32; n];
    for row in &rows {
        for &(c, _) in row {
            col_count[c] += 1;
        }
    }
    let mut slack_col: Vec<Option<usize>> = vec![None; m];
    for r in 0..m {
        for &(c, v) in &rows[r] {
            let eff = if negate[r] { -v } else { v };
            if eff == 1.0 && col_count[c] == 1 {
                // Prefer the highest index (the auxiliary column, if any),
                // whose cost is zero.
                match slack_col[r] {
                    Some(prev) if prev > c => {}
                    _ => slack_col[r] = Some(c),
                }
            }
        }
    }

    let mut nart = 0usize;
    for r in 0..m {
        if slack_col[r].is_some() {
            need_artificial[r] = false;
        } else {
            nart += 1;
        }
    }

    let width = n + nart + 1;
    let mut t = Tableau {
        m,
        width,
        data: vec![0.0; (m + 1) * width],
        basis: vec![usize::MAX; m],
    };
    let mut next_art = n;
    for r in 0..m {
        let sign = if negate[r] { -1.0 } else { 1.0 };
        {
            let row = t.row_mut(r);
            for &(c, v) in &rows[r] {
                row[c] = sign * v;
            }
            row[width - 1] = sign * rhs[r];
        }
        if need_artificial[r] {
            let a = next_art;
            next_art += 1;
            t.row_mut(r)[a] = 1.0;
            t.basis[r] = a;
        } else {
            // `need_artificial[r]` is cleared exactly when a slack column
            // was found, but a structured error beats a panic if that
            // bookkeeping ever drifts.
            let Some(c) = slack_col[r] else {
                return Err(SolveError::Numerical(format!(
                    "dense tableau row {r} has neither an artificial nor a slack column"
                )));
            };
            t.basis[r] = c;
        }
    }

    let tol = FEAS_TOL;
    let blocked_none = vec![false; width];

    // --- Phase 1 --------------------------------------------------------
    if nart > 0 {
        // Objective row: minimize sum of artificials. Reduced costs:
        // r_j = c1_j - sum over rows with artificial basis of a_ij.
        for j in 0..width {
            let mut z = 0.0;
            for r in 0..m {
                if t.basis[r] >= n {
                    z += t.row(r)[j];
                }
            }
            let c1 = if (n..n + nart).contains(&j) { 1.0 } else { 0.0 };
            t.row_mut(m)[j] = c1 - z;
        }
        // rhs of objective row: -(sum of b over artificial rows).
        let mut z = 0.0;
        for r in 0..m {
            if t.basis[r] >= n {
                z += t.rhs(r);
            }
        }
        t.row_mut(m)[width - 1] = -z;

        match run_phase(&mut t, width - 1, &blocked_none, pivots_left, tol, deadline)? {
            PhaseEnd::Optimal => {}
            PhaseEnd::Unbounded => {
                // Phase-1 objective is bounded below by 0; unbounded here
                // means numerical trouble.
                return Err(SolveError::Numerical("phase-1 unbounded".into()));
            }
        }
        let phase1_obj = -t.rhs(m);
        if phase1_obj > 1e-6 {
            return Err(SolveError::Infeasible);
        }
        // Drive leftover (zero-valued) artificials out of the basis.
        for r in 0..m {
            if t.basis[r] >= n {
                let pcol = (0..n).find(|&j| t.row(r)[j].abs() > 1e-7);
                if let Some(pcol) = pcol {
                    t.pivot(r, pcol);
                    *pivots_left = pivots_left.saturating_sub(1);
                }
                // If the row is all-zero over real columns it is redundant;
                // the artificial stays basic at value 0, which is harmless
                // as long as it never re-enters (blocked below).
            }
        }
    }

    // --- Phase 2 --------------------------------------------------------
    // Rebuild the objective row from the real costs.
    for j in 0..width {
        let mut z = 0.0;
        for r in 0..m {
            let cb = cost(t.basis[r]);
            if cb != 0.0 {
                z += cb * t.row(r)[j];
            }
        }
        t.row_mut(m)[j] = cost(j) - z;
    }
    {
        let mut z = 0.0;
        for r in 0..m {
            let cb = cost(t.basis[r]);
            if cb != 0.0 {
                z += cb * t.rhs(r);
            }
        }
        t.row_mut(m)[width - 1] = -z;
    }
    // Block artificial columns from re-entering.
    let mut blocked = vec![false; width];
    for b in blocked.iter_mut().take(n + nart).skip(n) {
        *b = true;
    }

    match run_phase(&mut t, width - 1, &blocked, pivots_left, tol, deadline)? {
        PhaseEnd::Optimal => {}
        PhaseEnd::Unbounded => return Err(SolveError::Unbounded),
    }

    // --- Extract --------------------------------------------------------
    let mut y = vec![0.0; sf.ncols];
    for r in 0..m {
        let b = t.basis[r];
        if b < sf.ncols {
            // Clamp tiny negatives produced by round-off.
            y[b] = t.rhs(r).max(0.0);
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Model, Sense, SolverOptions};
    use crate::LinExpr;

    fn solve_model(m: &Model) -> Result<Vec<f64>, SolveError> {
        let sf = StandardForm::build(m, None);
        let y = solve(&sf, &mut SolverOptions::default().max_pivots, None)?;
        Ok(sf.recover(&y))
    }

    /// `time_limit` is enforced inside the tableau pivot loop too: an
    /// already expired deadline aborts before the first pivot.
    #[test]
    fn zero_time_limit_aborts_inside_the_tableau_kernel() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        m.set_objective(3.0 * x + 5.0 * y);
        m.add_constraint(x + y, cmp::LE, 4.0);
        let sf = StandardForm::build(&m, None);
        assert_eq!(
            solve(&sf, &mut 1_000, Some(Instant::now())),
            Err(SolveError::IterationLimit)
        );
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
    fn equality_and_ge_rows_need_phase1() {
        // min x + y s.t. x + y = 4, x - y >= 1, x,y >= 0 → (2.5, 1.5).
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
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::var(x), cmp::LE, 1.0);
        m.add_constraint(LinExpr::var(x), cmp::GE, 2.0);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(-1.0 * x, cmp::LE, 5.0);
        assert_eq!(solve_model(&m).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3  (x >= 3).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        m.add_constraint(-1.0 * x, cmp::LE, -3.0);
        let v = solve_model(&m).unwrap();
        assert!((v[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn free_variables_can_go_negative() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_free();
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -7.5);
        let v = solve_model(&m).unwrap();
        assert!((v[0] + 7.5).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: redundant constraints through the optimum.
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
    fn no_rows_means_bounds_only() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(1.5, 10.0);
        m.set_objective(LinExpr::var(x));
        let sol = m.solve().unwrap();
        assert!((sol[x] - 1.5).abs() < 1e-9);
    }
}
