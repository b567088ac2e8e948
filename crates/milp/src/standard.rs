//! Conversion of a [`Model`] into simplex standard form.
//!
//! [`StandardForm::build`] produces the one lowered form every LP reads:
//! `min c·y, A·y = b, 0 ≤ y ≤ u` with per-column upper bounds and *no*
//! bound rows, over the model's own variable bounds or a branch & bound
//! node's boxes. This keeps the row count (and with it every
//! factorization and triangular solve) proportional to the real
//! constraints, and lets branch & bound tighten an integer variable by
//! mutating its column bounds in place. The dense tableau, which keeps
//! `y ≥ 0` alone, appends its own `y + s = u` rows ([`crate::simplex`]).
//!
//! The conversion handles the four bound shapes a model variable can have:
//!
//! | bounds            | substitution        |
//! |-------------------|---------------------|
//! | `l <= x <= u`     | `x = l + y`, column bound `y <= u - l` (`+∞` when `u` is infinite) |
//! | `x <= u` (free below) | `x = u - y`     |
//! | free              | `x = y⁺ - y⁻`       |
//! | `l == u`          | constant, no column |
//!
//! Inequality rows get slack/surplus columns here so the simplex kernels
//! only ever see equalities. Rows are equilibrated (scaled by their largest
//! coefficient) for numerical robustness: the retiming MILPs mix ±1
//! coefficients with `τ* ≈ Σβ` big-M terms.

use crate::model::{CmpOp, Model, Sense};

/// How an original model variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColMap {
    /// `x = lb + y[col]`
    Shifted { col: usize, lb: f64 },
    /// `x = ub - y[col]`
    Mirrored { col: usize, ub: f64 },
    /// `x = y[pos] - y[neg]`
    Split { pos: usize, neg: usize },
    /// `x` is fixed to a constant.
    Fixed { value: f64 },
}

impl ColMap {
    /// Translates a model-space box `[lo, hi]` on this variable into
    /// column-box updates `(col, l, u)` on the bounded-variable form —
    /// the dynamic counterpart of the build-time substitution, which is
    /// what lets branch & bound tighten *any* variable shape in place:
    ///
    /// * `Shifted`: `x = lb + y` ⇒ `y ∈ [lo − lb, hi − lb]`.
    /// * `Mirrored`: `x = ub − y` ⇒ the flipped box `y ∈ [ub − hi, ub − lo]`
    ///   (`ub` is finite by construction, so no `∞ − ∞` can occur; a
    ///   `lo = −∞` side simply leaves `y` unbounded above).
    /// * `Split`: `x = y⁺ − y⁻` with the box-consistency rule
    ///   `y⁺ ∈ [max(lo, 0), max(hi, 0)]`, `y⁻ ∈ [max(−hi, 0), max(−lo, 0)]`.
    ///   Exact in both directions: every `x ∈ [lo, hi]` is representable
    ///   and every in-box pair recovers an `x ∈ [lo, hi]` (when
    ///   `lo > 0` the negative column is pinned to 0, when `hi < 0` the
    ///   positive one — the pair can never stretch past the box).
    /// * `Fixed`: no columns, nothing to update.
    ///
    /// Because these are pure bound updates, they route through the same
    /// dual-feasibility-preserving [`crate::revised::Revised::set_col_bounds`]
    /// machinery as ordinary boxed integers: warm starts and pseudo-costs
    /// survive across nodes.
    pub(crate) fn box_updates(self, lo: f64, hi: f64) -> [Option<(usize, f64, f64)>; 2] {
        match self {
            ColMap::Shifted { col, lb } => [Some((col, lo - lb, hi - lb)), None],
            ColMap::Mirrored { col, ub } => [Some((col, ub - hi, ub - lo)), None],
            ColMap::Split { pos, neg } => [
                Some((pos, lo.max(0.0), hi.max(0.0))),
                Some((neg, (-hi).max(0.0), (-lo).max(0.0))),
            ],
            ColMap::Fixed { .. } => [None, None],
        }
    }
}

/// Kind of auxiliary column appended to a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowAux {
    /// `+1` slack (from `<=`).
    Slack(usize),
    /// `-1` surplus (from `>=`).
    Surplus(usize),
    /// Equality row, no auxiliary column.
    None,
}

/// A model in `min c·y, A·y = b, 0 ≤ y ≤ u` form (upper bounds may be
/// `+∞`; branch & bound later raises column lower bounds above 0 in
/// place).
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    /// Total number of columns (structural + slack/surplus).
    pub ncols: usize,
    /// Sparse rows over column indices (slack/surplus included).
    pub rows: Vec<Vec<(usize, f64)>>,
    pub rhs: Vec<f64>,
    /// Minimization costs, length `ncols`.
    pub cost: Vec<f64>,
    /// Per-column upper bound (`+∞` for unbounded, slack and surplus
    /// columns), length `ncols`.
    pub col_upper: Vec<f64>,
    /// Per-model-variable recovery mapping.
    pub map: Vec<ColMap>,
    /// Set when the conversion already proves infeasibility (e.g. a
    /// constant constraint that is violated).
    pub proven_infeasible: bool,
}

impl StandardForm {
    /// Builds the standard form of `model` (its LP relaxation:
    /// integrality is ignored here). `boxes = Some((lo, hi))` replaces
    /// every variable's bounds by `[lo[i], hi[i]]`: a branch & bound
    /// node's boxes, built straight from the model.
    pub fn build(model: &Model, boxes: Option<(&[f64], &[f64])>) -> StandardForm {
        let mut ncols = 0usize;
        let mut map = Vec::with_capacity(model.vars.len());
        let mut col_upper: Vec<f64> = Vec::new();

        for (i, var) in model.vars.iter().enumerate() {
            let (l, u) = boxes.map_or((var.lower, var.upper), |(lo, hi)| (lo[i], hi[i]));
            if l == u {
                map.push(ColMap::Fixed { value: l });
            } else if l.is_finite() {
                let col = ncols;
                ncols += 1;
                map.push(ColMap::Shifted { col, lb: l });
                col_upper.push(u - l); // `+∞` when `u` is
            } else if u.is_finite() {
                let col = ncols;
                ncols += 1;
                map.push(ColMap::Mirrored { col, ub: u });
                col_upper.push(f64::INFINITY);
            } else {
                let pos = ncols;
                let neg = ncols + 1;
                ncols += 2;
                map.push(ColMap::Split { pos, neg });
                col_upper.push(f64::INFINITY);
                col_upper.push(f64::INFINITY);
            }
            debug_assert_eq!(col_upper.len(), ncols);
        }

        // Objective in minimization form.
        let sense_mul = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        // The constant shift is dropped: solutions report the objective
        // from the model's own expression.
        let mut cost = vec![0.0; ncols];
        for (col, c) in lower_expr(&map, &model.objective).0 {
            cost[col] = sense_mul * c;
        }

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        let mut aux: Vec<RowAux> = Vec::new();
        let mut proven_infeasible = false;

        // Constraint rows.
        for cstr in &model.constraints {
            let (mut row, shift) = lower_expr(&map, &cstr.expr);
            let mut b = cstr.rhs - shift;
            if row.is_empty() {
                // Constant constraint: check it directly.
                let ok = match cstr.op {
                    CmpOp::Le => 0.0 <= b + 1e-9,
                    CmpOp::Ge => 0.0 >= b - 1e-9,
                    CmpOp::Eq => b.abs() <= 1e-9,
                };
                if !ok {
                    proven_infeasible = true;
                }
                continue;
            }
            // Equilibrate.
            let scale = row
                .iter()
                .map(|&(_, c)| c.abs())
                .fold(0.0f64, f64::max)
                .max(1e-12);
            for t in &mut row {
                t.1 /= scale;
            }
            b /= scale;
            rows.push(row);
            rhs.push(b);
            aux.push(match cstr.op {
                CmpOp::Le => RowAux::Slack(0),
                CmpOp::Ge => RowAux::Surplus(0),
                CmpOp::Eq => RowAux::None,
            });
        }

        // Assign slack/surplus columns (unbounded above).
        for (row, a) in rows.iter_mut().zip(aux.iter_mut()) {
            match a {
                RowAux::Slack(c) => {
                    *c = ncols;
                    row.push((ncols, 1.0));
                    ncols += 1;
                }
                RowAux::Surplus(c) => {
                    *c = ncols;
                    row.push((ncols, -1.0));
                    ncols += 1;
                }
                RowAux::None => {}
            }
        }
        cost.resize(ncols, 0.0);
        col_upper.resize(ncols, f64::INFINITY);

        StandardForm {
            ncols,
            rows,
            rhs,
            cost,
            col_upper,
            map,
            proven_infeasible,
        }
    }

    /// Maps a standard-form assignment `y` back to model-variable values.
    pub fn recover(&self, y: &[f64]) -> Vec<f64> {
        self.map
            .iter()
            .map(|m| match *m {
                ColMap::Shifted { col, lb } => lb + y[col],
                ColMap::Mirrored { col, ub } => ub - y[col],
                ColMap::Split { pos, neg } => y[pos] - y[neg],
                ColMap::Fixed { value } => value,
            })
            .collect()
    }
}

/// Lowers a model-space expression onto standard-form columns: returns
/// the merged sparse row plus the rhs shift induced by the variable
/// substitutions (`lowered rhs = model rhs - shift`).
fn lower_expr(map: &[ColMap], expr: &crate::expr::LinExpr) -> (Vec<(usize, f64)>, f64) {
    let mut row: Vec<(usize, f64)> = Vec::with_capacity(expr.terms.len() + 1);
    let mut shift = 0.0;
    for (v, c) in expr.iter() {
        match map[v.index()] {
            ColMap::Shifted { col, lb } => {
                row.push((col, c));
                shift += c * lb;
            }
            ColMap::Mirrored { col, ub } => {
                row.push((col, -c));
                shift += c * ub;
            }
            ColMap::Split { pos, neg } => {
                row.push((pos, c));
                row.push((neg, -c));
            }
            ColMap::Fixed { value } => shift += c * value,
        }
    }
    merge_row(&mut row);
    (row, shift)
}

/// Merges duplicate column indices in a sparse row.
fn merge_row(row: &mut Vec<(usize, f64)>) {
    if row.len() <= 1 {
        row.retain(|&(_, c)| c != 0.0);
        return;
    }
    row.sort_by_key(|&(c, _)| c);
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(row.len());
    for &(c, v) in row.iter() {
        match out.last_mut() {
            Some((lc, lv)) if *lc == c => *lv += v,
            _ => out.push((c, v)),
        }
    }
    out.retain(|&(_, v)| v.abs() > 0.0);
    *row = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Model, Sense};
    use crate::LinExpr;

    #[test]
    fn free_variables_split() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_free();
        m.set_objective(LinExpr::var(x));
        m.add_constraint(LinExpr::var(x), cmp::GE, -3.0);
        let sf = StandardForm::build(&m, None);
        assert!(matches!(sf.map[0], ColMap::Split { .. }));
        // x >= -3 plus split columns: one row, one surplus column.
        assert_eq!(sf.rows.len(), 1);
        assert_eq!(sf.ncols, 3);
    }

    #[test]
    fn fixed_variables_get_no_column() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(2.0, 2.0);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(x + y, cmp::EQ, 5.0);
        let sf = StandardForm::build(&m, None);
        assert!(matches!(sf.map[0], ColMap::Fixed { value } if value == 2.0));
        // Row becomes y = 3.
        assert_eq!(sf.rows.len(), 1);
        assert!((sf.rhs[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn violated_constant_row_is_proven_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(1.0, 1.0);
        m.add_constraint(LinExpr::var(x), cmp::GE, 2.0);
        let sf = StandardForm::build(&m, None);
        assert!(sf.proven_infeasible);
    }

    /// Node boxes replace the model's bounds: a pinned variable loses
    /// its column, a tightened one shifts by its new lower bound and
    /// carries its new span as its column bound.
    #[test]
    fn node_boxes_override_the_model_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer(0.0, 10.0);
        let y = m.add_var(f64::NEG_INFINITY, f64::INFINITY, true);
        m.add_constraint(x + y, cmp::GE, 1.0);
        let sf = StandardForm::build(&m, Some((&[4.0, 2.0], &[4.0, 7.0])));
        assert!(matches!(sf.map[x.index()], ColMap::Fixed { value } if value == 4.0));
        assert!(matches!(sf.map[y.index()], ColMap::Shifted { lb, .. } if lb == 2.0));
        // y ≥ 1 − 4 − 2 after the shift (a surplus row), and y ≤ 7 − 2.
        assert_eq!(sf.rows.len(), 1);
        assert!((sf.rhs[0] + 5.0).abs() < 1e-12);
        assert_eq!(sf.col_upper, [5.0, f64::INFINITY]);
        let vals = sf.recover(&[0.5, 0.0]);
        assert_eq!((vals[x.index()], vals[y.index()]), (4.0, 2.5));
    }

    #[test]
    fn box_updates_round_trip_through_every_map_shape() {
        // Shifted: x = -1 + y, box [0, 3] => y in [1, 4].
        let shifted = ColMap::Shifted { col: 0, lb: -1.0 };
        assert_eq!(shifted.box_updates(0.0, 3.0), [Some((0, 1.0, 4.0)), None]);

        // Mirrored: x = 7 - y, box [2, 5] => flipped box y in [2, 5].
        let mirrored = ColMap::Mirrored { col: 1, ub: 7.0 };
        assert_eq!(mirrored.box_updates(2.0, 5.0), [Some((1, 2.0, 5.0)), None]);
        // A half-open model box leaves y unbounded above, never NaN.
        let [Some((_, l, u)), None] = mirrored.box_updates(f64::NEG_INFINITY, 4.0) else {
            panic!("mirrored map must touch exactly one column");
        };
        assert_eq!((l, u), (3.0, f64::INFINITY));

        // Split: x = y+ - y-. Every box lands exactly: the off-sign
        // column is pinned to zero, so the pair cannot stretch past it.
        let split = ColMap::Split { pos: 2, neg: 3 };
        assert_eq!(
            split.box_updates(-5.0, -2.0),
            [Some((2, 0.0, 0.0)), Some((3, 2.0, 5.0))]
        );
        assert_eq!(
            split.box_updates(-1.0, 3.0),
            [Some((2, 0.0, 3.0)), Some((3, 0.0, 1.0))]
        );
        let updates = split.box_updates(f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(
            updates,
            [Some((2, 0.0, f64::INFINITY)), Some((3, 0.0, f64::INFINITY))]
        );
        // Per-column sanity across all shapes: l <= u always.
        for map in [shifted, mirrored, split, ColMap::Fixed { value: 9.0 }] {
            for (lo, hi) in [(-2.5, -2.5), (-2.5, 6.0), (0.0, 0.0), (3.0, 8.5)] {
                for upd in map.box_updates(lo, hi).into_iter().flatten() {
                    assert!(upd.1 <= upd.2 + 1e-12, "{map:?} {lo} {hi} -> {upd:?}");
                }
            }
        }
        assert_eq!(
            ColMap::Fixed { value: 9.0 }.box_updates(1.0, 2.0),
            [None, None]
        );
    }

    #[test]
    fn recover_round_trips_shifted_and_mirrored() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_continuous(-1.0, 4.0); // shifted
        let b = m.add_continuous(f64::NEG_INFINITY, 7.0); // mirrored
        let sf = StandardForm::build(&m, None);
        let vals = sf.recover(&[0.5, 2.0]);
        assert!((vals[a.index()] - (-0.5)).abs() < 1e-12);
        assert!((vals[b.index()] - 5.0).abs() < 1e-12);
    }
}
