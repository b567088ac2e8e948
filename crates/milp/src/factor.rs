//! Basis factorization for the revised simplex kernel.
//!
//! The basis matrix `B` is held as an **LU factorization of a snapshot
//! basis `B₀`**, kept current across pivots by one of two update schemes
//! ([`UpdateKind`]):
//!
//! * **Forrest–Tomlin** (the production default, sparse snapshot only) —
//!   the factors themselves are updated in place, so FTRAN/BTRAN keep
//!   their zero-skipping triangular solves against a *current* `U`. On
//!   the basis change "slot `p` leaves, column `a` enters":
//!   1. **Spike**: the entering column is run through `L` (and every row
//!      eta accumulated so far) to give `w = L̃⁻¹·P·a`, which replaces
//!      column `p` of `U`. Entries of `w` other than `w[p]` land above
//!      the diagonal once step 3 runs, so none of them need elimination.
//!   2. **Row eta**: row `p` of `U` (its entries right of the diagonal
//!      in pivot order) is eliminated against the *trailing* rows of `U`
//!      — one multiplier `μ_j = u_pj / u_jj` per nonzero, processed in
//!      pivot order so fill generated into row `p` is itself eliminated.
//!      The multipliers form a single row transformation `M` (stored; it
//!      becomes part of `L̃ = L·M₁⁻¹·…·M_k⁻¹`), and the new diagonal
//!      `u_pp' = w[p] − Σ μ_j·w[j]` absorbs the spike.
//!   3. **Permute to the end**: position `p` moves to the last place in
//!      the **pivot order** (a permutation layer over the stored factored
//!      indices — no data moves), restoring triangularity.
//!
//!   A near-zero new diagonal (relative to the spike's scale) or an
//!   exploding multiplier aborts the update *before any state mutates*
//!   and the caller falls back to a full refactorization (**forced
//!   refactor**) — the standard FT stability policy.
//! * **Product-form eta file** (the historical scheme, and the only one
//!   the dense oracle supports) — after `k` pivots,
//!   `B = B₀·E₁·…·E_k` where each `Eᵢ` is an identity matrix with one
//!   column replaced by the pivot direction `d = B⁻¹A_j`; FTRAN/BTRAN
//!   apply the LU triangles and then replay the whole file.
//!
//! Under either scheme, when the update state grows past
//! [`Factor::needs_refactor`] the current basis is refactorized from
//! scratch, which both caps the per-solve cost and flushes accumulated
//! round-off. The refactor policy ([`FactorConfig`], fixed for solves by
//! [`FactorConfig::resolve`]): refactorize when the update count is
//! *long* ([`FactorConfig::max_etas`] pivots absorbed) or the
//! accumulated update fill is *heavy* relative to the snapshot LU's own
//! nonzeros ([`FactorConfig::fill_growth`] — eta fill under the product
//! form; `U` growth plus row-eta fill under Forrest–Tomlin).
//!
//! Two snapshot factorizations implement the same contract, selected by
//! [`FactorKind`]:
//!
//! * [`SparseLu`] (the production default) — a **right-looking sparse LU
//!   with Markowitz pivot ordering and threshold partial pivoting**. The
//!   basis is assembled straight from the model's sparse columns (no
//!   dense `m×m` matrix is ever materialized); at every elimination step
//!   the pivot is chosen to minimize the Markowitz fill bound
//!   `(r_i − 1)·(c_j − 1)` over the active submatrix, restricted to
//!   entries within a threshold factor of their column's magnitude so
//!   stability is not sacrificed for sparsity. The factors `P·B·Q = L·U`
//!   (row *and* column permutations) store `O(nnz(L+U))`, and a refactor
//!   costs `O(fill)` instead of `O(m³)`.
//! * [`DenseLu`] — the original dense partial-pivoting LU, kept alive as
//!   the **cross-validation oracle**: an independent implementation whose
//!   FTRAN/BTRAN answers the property tests compare against, and the
//!   baseline the `milp_scaling` bench measures the sparse scheme's
//!   storage and speed wins over.
//!
//! Both store their triangles in **dual row/column-major layouts** so the
//! triangular solves stay column-oriented with zero skipping in both
//! directions (the simplex right-hand sides are extremely sparse — a
//! constraint column for FTRAN, a couple of objective entries for BTRAN —
//! so the solve cost tracks the fill-in of the solution, not `m²`):
//!
//! * `L x = b` / `U x = y` (FTRAN) walk *columns* of `L`/`U`;
//! * `Uᵀ z = c` / `Lᵀ w = z` (BTRAN) walk columns of the transposes,
//!   which are *rows* of `U`/`L`.
//!
//! Singularity tests are **relative to each basis column's scale** (the
//! largest input magnitude of that column), so a well-conditioned but
//! badly scaled basis (every entry ~1e-12) factors fine while a genuinely
//! rank-deficient one (duplicate columns cancelling to round-off) is
//! still rejected.
//!
//! Neither choice is a solver option: the kernel request derives both
//! (`Kernel::setup`). [`crate::Kernel::Revised`] runs the sparse LU with
//! Forrest–Tomlin updates; [`crate::Kernel::DenseTableau`] and the
//! recovery ladder's dense rung run the dense LU with the product form.

use crate::model::SolverOptions;

/// Which snapshot factorization backs the update scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactorKind {
    /// Sparse LU with Markowitz pivot ordering and threshold partial
    /// pivoting: `O(nnz(L+U))` storage and refactor cost proportional to
    /// fill. The production factorization.
    Sparse,
    /// Dense LU snapshot (`O(m²)` storage, `O(m³)` refactor), kept as
    /// the cross-validation oracle for the sparse scheme.
    Dense,
}

/// How the factorization absorbs a pivot (a one-column basis change)
/// between refactorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UpdateKind {
    /// Forrest–Tomlin: the leaving column of `U` is replaced by the
    /// entering column's spike, the spike row is eliminated with one row
    /// eta against `U`'s trailing submatrix, and the pivot is permuted
    /// to the end. The production scheme; sparse snapshot only.
    ForrestTomlin,
    /// Product-form eta file: every pivot appends one eta transformation
    /// that each subsequent FTRAN/BTRAN replays. The oracle's scheme and
    /// the recovery ladder's product-form rung.
    ProductForm,
}

/// Relative singularity threshold: a pivot candidate must exceed this
/// fraction of its column's input scale to count as nonzero.
const SINGULAR_REL: f64 = 1e-11;

/// Threshold partial pivoting factor: a Markowitz candidate is
/// admissible only when its magnitude is at least `PIVOT_THRESHOLD`
/// times the largest magnitude in its (active) column.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Pivot-search cap: once a candidate exists, at most this many further
/// columns (in increasing nonzero-count order) are examined.
const MARKOWITZ_SEARCH_COLS: usize = 8;

/// Forrest–Tomlin stability: the updated diagonal must exceed this
/// fraction of the spike's largest magnitude, or the update is refused
/// and the caller refactorizes (the new basis may be fine — the *update*
/// is what would be unstable).
const FT_DIAG_REL: f64 = 1e-9;

/// Forrest–Tomlin stability: a row-eta multiplier above this magnitude
/// signals an ill-scaled elimination; the update is refused.
const FT_MULT_MAX: f64 = 1e8;

/// Relative drop tolerance for spike entries and row-eta fill (matches
/// the cancellation drop the Markowitz factorization applies).
const FT_DROP_REL: f64 = 1e-14;

/// Resolved refactorization policy plus snapshot kind, derived from
/// [`SolverOptions`] by the kernel. The policy itself is fixed: the
/// automatic length cap and an 8× fill trigger (see
/// [`FactorConfig::resolve`]); the factor tests set both fields directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FactorConfig {
    /// Which snapshot factorization backs the update scheme.
    pub kind: FactorKind,
    /// Update scheme. Forrest–Tomlin is only available on the sparse
    /// snapshot; [`FactorKind::Dense`] always pairs with the product
    /// form.
    pub update: UpdateKind,
    /// Update count (etas or FT updates) that triggers a refactor; `0` =
    /// automatic (`max(64, 2m)`, see [`Factor::needs_refactor`]).
    pub max_etas: usize,
    /// Refactor when the accumulated update fill exceeds this multiple
    /// of the snapshot LU's nonzero count; non-finite or `<= 0` disables
    /// the fill trigger.
    pub fill_growth: f64,
}

impl FactorConfig {
    /// The snapshot kind and update scheme the kernel request selects,
    /// under the production refactor policy: the automatic length cap
    /// (`max_etas = 0`, i.e. `max(64, 2m)`) and a refactor once the
    /// update fill outgrows the snapshot LU eightfold (dense etas make
    /// FTRAN/BTRAN pay their fill on every solve, so a heavy file is
    /// flushed before the length cap).
    pub fn resolve(opts: &SolverOptions) -> FactorConfig {
        let setup = opts.kernel.setup();
        FactorConfig {
            kind: setup.factor,
            update: setup.update,
            max_etas: 0,
            fill_growth: 8.0,
        }
    }
}

impl Default for FactorConfig {
    fn default() -> Self {
        Self::resolve(&SolverOptions::default())
    }
}

// ---------------------------------------------------------------------------
// Dense LU (cross-validation oracle)
// ---------------------------------------------------------------------------

/// Dense LU factorization `P·B = L·U` with partial pivoting, stored in
/// both layouts (see the module docs). Kept as the oracle behind
/// [`FactorKind::Dense`].
pub(crate) struct DenseLu {
    m: usize,
    /// Row-major `m × m`; strict lower triangle holds `L` (unit
    /// diagonal implied), upper triangle holds `U`.
    lu: Vec<f64>,
    /// Column-major copy of the same factors.
    lu_col: Vec<f64>,
    /// `perm[i]` = original row index stored at factored row `i`.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factors a dense row-major matrix; `None` when numerically singular.
    ///
    /// Singularity is judged **relative to each column's input scale**:
    /// column `k` is declared dependent when its best pivot is below
    /// `SINGULAR_REL · max_i |B_ik|`, so uniformly tiny (but
    /// well-conditioned) bases are not misreported as singular.
    pub fn factor(mut a: Vec<f64>, m: usize) -> Option<DenseLu> {
        debug_assert_eq!(a.len(), m * m);
        // Per-column scale of the *input* matrix, before elimination
        // mixes columns.
        let mut scale = vec![0.0f64; m];
        for i in 0..m {
            for j in 0..m {
                scale[j] = scale[j].max(a[i * m + j].abs());
            }
        }
        let mut perm: Vec<usize> = (0..m).collect();
        for k in 0..m {
            // Partial pivot: largest magnitude in column k at/below row k.
            let mut p = k;
            let mut mx = a[k * m + k].abs();
            for i in k + 1..m {
                let v = a[i * m + k].abs();
                if v > mx {
                    mx = v;
                    p = i;
                }
            }
            if mx <= SINGULAR_REL * scale[k] {
                return None;
            }
            if p != k {
                for j in 0..m {
                    a.swap(k * m + j, p * m + j);
                }
                perm.swap(k, p);
            }
            let inv = 1.0 / a[k * m + k];
            for i in k + 1..m {
                let f = a[i * m + k] * inv;
                a[i * m + k] = f;
                if f != 0.0 {
                    let (top, bottom) = a.split_at_mut(i * m);
                    let arow = &mut bottom[..m];
                    let krow = &top[k * m..k * m + m];
                    for j in k + 1..m {
                        arow[j] -= f * krow[j];
                    }
                }
            }
        }
        let mut lu_col = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                lu_col[j * m + i] = a[i * m + j];
            }
        }
        Some(DenseLu {
            m,
            lu: a,
            lu_col,
            perm,
        })
    }

    /// Solves `B·x = rhs` in place (`rhs` becomes `x`). Column-oriented
    /// with zero skipping: cost scales with the fill-in of the solution,
    /// not with `m²`, when `rhs` is sparse.
    pub fn solve(&self, rhs: &mut [f64]) {
        let m = self.m;
        let mut x = vec![0.0; m];
        for i in 0..m {
            x[i] = rhs[self.perm[i]];
        }
        // L y = Pb (unit lower): walk columns of L (column-major).
        for j in 0..m {
            let xj = x[j];
            if xj != 0.0 {
                let col = &self.lu_col[j * m..(j + 1) * m];
                for i in j + 1..m {
                    x[i] -= col[i] * xj;
                }
            }
        }
        // U x = y: backward, columns of U (column-major).
        for j in (0..m).rev() {
            let xj = x[j] / self.lu_col[j * m + j];
            x[j] = xj;
            if xj != 0.0 {
                let col = &self.lu_col[j * m..j * m + j];
                for (i, &u) in col.iter().enumerate() {
                    if u != 0.0 {
                        x[i] -= u * xj;
                    }
                }
            }
        }
        rhs.copy_from_slice(&x);
    }

    /// Solves `Bᵀ·y = rhs` in place. Columns of `Uᵀ`/`Lᵀ` are rows of
    /// `U`/`L` — contiguous in the row-major copy — with zero skipping.
    pub fn solve_transpose(&self, rhs: &mut [f64]) {
        let m = self.m;
        // Uᵀ z = c (lower-triangular, forward over columns of Uᵀ).
        let mut z = rhs.to_vec();
        for j in 0..m {
            let zj = z[j] / self.lu[j * m + j];
            z[j] = zj;
            if zj != 0.0 {
                let row = &self.lu[j * m..(j + 1) * m];
                for i in j + 1..m {
                    if row[i] != 0.0 {
                        z[i] -= row[i] * zj;
                    }
                }
            }
        }
        // Lᵀ w = z (unit upper in transpose, backward over columns of Lᵀ).
        for j in (0..m).rev() {
            let zj = z[j];
            if zj != 0.0 {
                let row = &self.lu[j * m..j * m + j];
                for (i, &l) in row.iter().enumerate() {
                    if l != 0.0 {
                        z[i] -= l * zj;
                    }
                }
            }
        }
        // y = Pᵀ w.
        for i in 0..m {
            rhs[self.perm[i]] = z[i];
        }
    }

    /// Stored nonzeros: the dense scheme always pays `m²`.
    pub fn nnz(&self) -> usize {
        self.m * self.m
    }
}

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz ordering and threshold partial pivoting
// ---------------------------------------------------------------------------

/// One Forrest–Tomlin row transformation: after the `L` solve, row
/// `row`'s value is reduced by `Σ μ_j·x[j]` over `terms = (j, μ_j)` —
/// the elimination that restored `U`'s triangularity when `row`'s pivot
/// was permuted to the end.
struct RowEta {
    row: usize,
    terms: Vec<(usize, f64)>,
}

/// Sparse LU factorization `P·B·Q = L·U` (row *and* column permutations,
/// chosen per elimination step by the Markowitz rule). `L` is unit lower
/// triangular, `U` upper triangular; both are stored twice — by column
/// for FTRAN and by row for BTRAN — in *factored* coordinates.
///
/// Forrest–Tomlin updates ([`SparseLu::ft_update`]) mutate `U` in place
/// and accumulate [`RowEta`] transformations on the `L` side;
/// triangularity is then relative to the **pivot order** `porder` (a
/// permutation of the factored indices), which starts as the identity
/// and cycles one position to the end per update. `L` itself, the row
/// permutation `P` and the column permutation `Q` never change between
/// refactorizations.
pub(crate) struct SparseLu {
    m: usize,
    /// Column `k` of `L`: entries `(i, L[i][k])` with `i > k`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Row `k` of `L`: entries `(j, L[k][j])` with `j < k`.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Column `k` of `U` above the diagonal in pivot order: entries
    /// `(i, U[i][k])` with `ppos[i] < ppos[k]` (unsorted within a column).
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Row `k` of `U` past the diagonal in pivot order: entries
    /// `(j, U[k][j])` with `ppos[j] > ppos[k]` (unsorted within a row).
    u_rows: Vec<Vec<(usize, f64)>>,
    /// `U[k][k]` (pivot magnitudes are threshold-checked at selection).
    u_diag: Vec<f64>,
    /// `row_of[i]` = original row held at factored row `i` (`P`).
    row_of: Vec<usize>,
    /// `rowpos[r]` = factored row holding original row `r` (`P⁻¹`).
    rowpos: Vec<usize>,
    /// `col_of[k]` = original basis slot held at factored column `k` (`Q`).
    col_of: Vec<usize>,
    /// `colpos[s]` = factored column holding basis slot `s` (`Q⁻¹`).
    colpos: Vec<usize>,
    /// Pivot order: `porder[t]` = factored index eliminated at step `t`.
    porder: Vec<usize>,
    /// Inverse of `porder`.
    ppos: Vec<usize>,
    /// Forrest–Tomlin row transformations, in application order.
    row_etas: Vec<RowEta>,
}

impl SparseLu {
    /// Factors the basis given as sparse columns (`cols[j]` lists the
    /// `(row, value)` nonzeros of basis slot `j`, one entry per row);
    /// `None` when numerically singular. No dense `m×m` matrix is
    /// materialized at any point.
    pub fn factor(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<SparseLu> {
        debug_assert_eq!(cols.len(), m);
        // Active submatrix, row-wise; rows sorted by column index. The
        // rows are the source of truth; `col_rows` carries candidate row
        // lists per column (pruned lazily) and `col_count` exact active
        // nonzero counts.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        let mut col_scale = vec![0.0f64; m];
        for (j, cj) in cols.iter().enumerate() {
            for &(r, v) in cj {
                debug_assert!(r < m);
                if v != 0.0 {
                    rows[r].push((j, v));
                    col_rows[j].push(r);
                    col_count[j] += 1;
                    col_scale[j] = col_scale[j].max(v.abs());
                }
            }
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(c, _)| c);
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];

        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_rows_orig: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut row_of = Vec::with_capacity(m);
        let mut col_of = Vec::with_capacity(m);
        // l_cols holds original row ids until the permutation is known.
        let mut order: Vec<usize> = (0..m).collect();

        for _step in 0..m {
            // --- Markowitz pivot selection -----------------------------
            // Active columns in increasing nonzero-count order (kept
            // nearly sorted across steps, pruned and re-sorted in
            // place); a column with no (numerically live) entry proves
            // singularity, since fill can only appear in columns a pivot
            // row touches.
            order.retain(|&j| col_active[j]);
            order.sort_unstable_by_key(|&j| col_count[j]);
            let mut best: Option<(usize, usize, f64)> = None; // (row, col, value)
            let mut best_cost = usize::MAX;
            let mut examined = 0usize;
            for &j in &order {
                if col_count[j] == 0 {
                    return None; // structurally singular
                }
                // Prune stale candidates and gather live entries. The
                // candidate list may hold duplicates (an entry that
                // cancelled and was later refilled is pushed again), so
                // dedupe before gathering.
                col_rows[j].sort_unstable();
                col_rows[j].dedup();
                let mut live: Vec<(usize, f64)> = Vec::with_capacity(col_count[j]);
                col_rows[j].retain(|&r| {
                    if !row_active[r] {
                        return false;
                    }
                    match rows[r].binary_search_by_key(&j, |&(c, _)| c) {
                        Ok(pos) => {
                            live.push((r, rows[r][pos].1));
                            true
                        }
                        Err(_) => false,
                    }
                });
                debug_assert_eq!(live.len(), col_count[j]);
                let colmax = live.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
                if colmax <= SINGULAR_REL * col_scale[j] {
                    return None; // column cancelled to round-off
                }
                for &(r, v) in &live {
                    if v.abs() < PIVOT_THRESHOLD * colmax || v.abs() <= SINGULAR_REL * col_scale[j]
                    {
                        continue;
                    }
                    let cost = (rows[r].len() - 1) * (col_count[j] - 1);
                    let better = cost < best_cost
                        || (cost == best_cost && best.is_some_and(|(_, _, bv)| v.abs() > bv.abs()));
                    if better {
                        best_cost = cost;
                        best = Some((r, j, v));
                    }
                }
                if best.is_some() {
                    examined += 1;
                    if best_cost == 0 || examined > MARKOWITZ_SEARCH_COLS {
                        break;
                    }
                }
            }
            let (pr, pj, diag) = best?;

            // --- record the pivot row and column ------------------------
            row_active[pr] = false;
            col_active[pj] = false;
            row_of.push(pr);
            col_of.push(pj);
            u_diag.push(diag);
            // Leaving the active submatrix: every entry of the pivot row
            // drops out of its column's count.
            let pivot_row: Vec<(usize, f64)> =
                rows[pr].iter().copied().filter(|&(c, _)| c != pj).collect();
            for &(c, _) in &pivot_row {
                col_count[c] -= 1;
            }
            col_count[pj] = 0;
            u_rows_orig.push(pivot_row.clone());

            // --- eliminate the pivot column from the active rows --------
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            let targets: Vec<usize> = col_rows[pj]
                .iter()
                .copied()
                .filter(|&r| row_active[r])
                .collect();
            for r in targets {
                let Ok(pos) = rows[r].binary_search_by_key(&pj, |&(c, _)| c) else {
                    continue; // stale candidate
                };
                let mult = rows[r][pos].1 / diag;
                lcol.push((r, mult));
                // rows[r] := rows[r] − mult · pivot_row, dropping the pj
                // entry; sorted merge keeps the row ordered and updates
                // column counts (and candidate lists) for fill/cancel.
                let old = std::mem::take(&mut rows[r]);
                let mut merged = Vec::with_capacity(old.len() + pivot_row.len());
                let (mut a, mut b) = (0usize, 0usize);
                while a < old.len() || b < pivot_row.len() {
                    let ca = old.get(a).map(|&(c, _)| c);
                    let cb = pivot_row.get(b).map(|&(c, _)| c);
                    match (ca, cb) {
                        (Some(ca_), _) if ca_ == pj => {
                            a += 1; // the eliminated entry itself
                        }
                        (Some(ca_), Some(cb_)) if ca_ == cb_ => {
                            let update = mult * pivot_row[b].1;
                            let nv = old[a].1 - update;
                            // Cancellation drop: keep the entry unless it
                            // is negligible against what was subtracted.
                            if nv.abs() > 1e-14 * (old[a].1.abs() + update.abs()) {
                                merged.push((ca_, nv));
                            } else {
                                col_count[ca_] -= 1;
                            }
                            a += 1;
                            b += 1;
                        }
                        (Some(ca_), Some(cb_)) if ca_ < cb_ => {
                            merged.push(old[a]);
                            a += 1;
                        }
                        (Some(_), Some(cb_)) | (None, Some(cb_)) => {
                            // Fill-in at (r, cb_).
                            let nv = -mult * pivot_row[b].1;
                            if nv != 0.0 {
                                merged.push((cb_, nv));
                                col_count[cb_] += 1;
                                col_rows[cb_].push(r);
                            }
                            b += 1;
                        }
                        (Some(_), None) => {
                            merged.push(old[a]);
                            a += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
                rows[r] = merged;
            }
            l_cols.push(lcol);
        }

        // --- remap original row/col ids to factored positions -----------
        let mut rowpos = vec![0usize; m];
        let mut colpos = vec![0usize; m];
        for (k, &r) in row_of.iter().enumerate() {
            rowpos[r] = k;
        }
        for (k, &c) in col_of.iter().enumerate() {
            colpos[c] = k;
        }
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut u_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (k, lc) in l_cols.iter_mut().enumerate() {
            for e in lc.iter_mut() {
                e.0 = rowpos[e.0];
                debug_assert!(e.0 > k);
            }
            lc.sort_unstable_by_key(|&(i, _)| i);
            for &(i, v) in lc.iter() {
                l_rows[i].push((k, v));
            }
        }
        for (k, ur) in u_rows_orig.into_iter().enumerate() {
            for (c, v) in ur {
                let j = colpos[c];
                debug_assert!(j > k);
                u_rows[k].push((j, v));
                u_cols[j].push((k, v));
            }
            u_rows[k].sort_unstable_by_key(|&(j, _)| j);
        }
        for uc in &mut u_cols {
            uc.sort_unstable_by_key(|&(i, _)| i);
        }
        Some(SparseLu {
            m,
            l_cols,
            l_rows,
            u_cols,
            u_rows,
            u_diag,
            row_of,
            rowpos,
            col_of,
            colpos,
            porder: (0..m).collect(),
            ppos: (0..m).collect(),
            row_etas: Vec::new(),
        })
    }

    /// Applies `L̃⁻¹` (the static `L` followed by every accumulated
    /// Forrest–Tomlin row eta) to `z`, in factored row coordinates.
    fn lower_solve(&self, z: &mut [f64]) {
        // L z' = z (unit lower), forward over columns of L.
        for k in 0..self.m {
            let zk = z[k];
            if zk != 0.0 {
                for &(i, l) in &self.l_cols[k] {
                    z[i] -= l * zk;
                }
            }
        }
        // Row etas, in the order the updates accumulated them.
        for eta in &self.row_etas {
            let mut s = z[eta.row];
            for &(j, mu) in &eta.terms {
                s -= mu * z[j];
            }
            z[eta.row] = s;
        }
    }

    /// Solves `B·x = rhs` in place; column-oriented with zero skipping.
    pub fn solve(&self, rhs: &mut [f64]) {
        self.solve_spiked(rhs, None);
    }

    /// [`SparseLu::solve`], additionally copying out the intermediate
    /// `L̃⁻¹·P·rhs` (factored row coordinates) — when `rhs` is an
    /// entering basis column this is exactly the Forrest–Tomlin spike,
    /// so a subsequent [`SparseLu::ft_update_spiked`] gets it for free
    /// instead of re-running the lower solve.
    pub fn solve_spiked(&self, rhs: &mut [f64], spike: Option<&mut Vec<f64>>) {
        let m = self.m;
        let mut z = vec![0.0; m];
        for k in 0..m {
            z[k] = rhs[self.row_of[k]];
        }
        self.lower_solve(&mut z);
        if let Some(s) = spike {
            s.clear();
            s.extend_from_slice(&z);
        }
        // U x' = z', backward over columns of U in pivot order.
        for t in (0..m).rev() {
            let k = self.porder[t];
            let xk = z[k] / self.u_diag[k];
            z[k] = xk;
            if xk != 0.0 {
                for &(i, u) in &self.u_cols[k] {
                    z[i] -= u * xk;
                }
            }
        }
        // x = Q·x'.
        for k in 0..m {
            rhs[self.col_of[k]] = z[k];
        }
    }

    /// Solves `Bᵀ·y = rhs` in place; columns of `Uᵀ`/`Lᵀ` are the stored
    /// rows of `U`/`L`, again with zero skipping.
    pub fn solve_transpose(&self, rhs: &mut [f64]) {
        let m = self.m;
        let mut z = vec![0.0; m];
        for k in 0..m {
            z[k] = rhs[self.col_of[k]];
        }
        // Uᵀ z' = Qᵀ·rhs (lower triangular in pivot order), forward over
        // rows of U.
        for t in 0..m {
            let k = self.porder[t];
            let zk = z[k] / self.u_diag[k];
            z[k] = zk;
            if zk != 0.0 {
                for &(j, u) in &self.u_rows[k] {
                    z[j] -= u * zk;
                }
            }
        }
        // Transposed row etas, most recent first.
        for eta in self.row_etas.iter().rev() {
            let zr = z[eta.row];
            if zr != 0.0 {
                for &(j, mu) in &eta.terms {
                    z[j] -= mu * zr;
                }
            }
        }
        // Lᵀ w = z' (unit upper in transpose), backward over rows of L.
        for k in (0..m).rev() {
            let wk = z[k];
            if wk != 0.0 {
                for &(j, l) in &self.l_rows[k] {
                    z[j] -= l * wk;
                }
            }
        }
        // y = Pᵀ·w.
        for k in 0..m {
            rhs[self.row_of[k]] = z[k];
        }
    }

    /// Absorbs the basis change "slot `slot` leaves, column `col`
    /// enters" (entries in original row coordinates) into the factors by
    /// a Forrest–Tomlin update. Returns `false` — with **no state
    /// mutated** — when the update would be unstable (near-zero updated
    /// diagonal or exploding multiplier); the caller must then
    /// refactorize the new basis from scratch.
    pub fn ft_update(&mut self, slot: usize, col: &[(usize, f64)]) -> bool {
        // --- spike: w = L̃⁻¹·P·a ---------------------------------------
        let mut w = vec![0.0; self.m];
        for &(r, v) in col {
            w[self.rowpos[r]] = v;
        }
        self.lower_solve(&mut w);
        self.ft_apply(slot, w)
    }

    /// [`SparseLu::ft_update`] with the spike already in hand (the
    /// `L̃⁻¹·P·a` intermediate a [`SparseLu::solve_spiked`] FTRAN of the
    /// entering column saved), skipping the redundant lower solve.
    pub fn ft_update_spiked(&mut self, slot: usize, spike: Vec<f64>) -> bool {
        debug_assert_eq!(spike.len(), self.m);
        self.ft_apply(slot, spike)
    }

    /// The shared Forrest–Tomlin core: replace factored column
    /// `colpos[slot]` of `U` with the spike `w`, eliminate the pivot's
    /// row with one row eta, permute the pivot to the end. See
    /// [`SparseLu::ft_update`] for the refusal contract.
    fn ft_apply(&mut self, slot: usize, w: Vec<f64>) -> bool {
        let m = self.m;
        let p = self.colpos[slot];
        let spike_scale = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if spike_scale == 0.0 {
            return false; // a zero entering column cannot form a basis
        }

        // --- eliminate row p against U's trailing rows (scratch) -------
        // Work row = old row p of U; processing the trailing pivot
        // positions in order eliminates each entry and the fill it
        // spawns. Nothing is mutated yet: the multipliers and the final
        // diagonal are computed first so an unstable update can be
        // refused without corrupting the factors.
        let mut work = vec![0.0; m];
        for &(j, v) in &self.u_rows[p] {
            work[j] = v;
        }
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut diag = w[p];
        let row_scale = self.u_rows[p]
            .iter()
            .fold(spike_scale, |a, &(_, v)| a.max(v.abs()));
        for t in self.ppos[p] + 1..m {
            let j = self.porder[t];
            let v = work[j];
            if v == 0.0 {
                continue;
            }
            if v.abs() <= FT_DROP_REL * row_scale {
                work[j] = 0.0;
                continue;
            }
            let mu = v / self.u_diag[j];
            if mu.abs() > FT_MULT_MAX {
                return false; // ill-scaled elimination
            }
            terms.push((j, mu));
            work[j] = 0.0;
            // Fill spawned into row p lands strictly later in pivot
            // order (entries of u_rows[j] all do), so the scan
            // eliminates it in turn.
            for &(k, ujk) in &self.u_rows[j] {
                work[k] -= mu * ujk;
            }
            // Row j's entry in the spike column contributes to the new
            // diagonal (the spike is not inserted into U yet).
            diag -= mu * w[j];
        }
        if diag.abs() <= FT_DIAG_REL * spike_scale || !diag.is_finite() {
            return false; // unstable update: force a refactorization
        }

        // --- commit ----------------------------------------------------
        // Drop the old column p…
        let old_col = std::mem::take(&mut self.u_cols[p]);
        for (i, _) in old_col {
            let row = &mut self.u_rows[i];
            let pos = row
                .iter()
                .position(|&(j, _)| j == p)
                .expect("U row/col desync");
            row.swap_remove(pos);
        }
        // …and the old row p.
        let old_row = std::mem::take(&mut self.u_rows[p]);
        for (j, _) in old_row {
            let cl = &mut self.u_cols[j];
            let pos = cl
                .iter()
                .position(|&(i, _)| i == p)
                .expect("U row/col desync");
            cl.swap_remove(pos);
        }
        // Insert the spike as the new column p (every other row now
        // precedes p in pivot order, so all entries are above-diagonal).
        for (i, &wi) in w.iter().enumerate() {
            if i != p && wi.abs() > FT_DROP_REL * spike_scale {
                self.u_cols[p].push((i, wi));
                self.u_rows[i].push((p, wi));
            }
        }
        self.u_diag[p] = diag;
        if !terms.is_empty() {
            self.row_etas.push(RowEta { row: p, terms });
        }
        // Cycle p to the end of the pivot order.
        let start = self.ppos[p];
        for t in start + 1..m {
            let k = self.porder[t];
            self.porder[t - 1] = k;
            self.ppos[k] = t - 1;
        }
        self.porder[m - 1] = p;
        self.ppos[p] = m - 1;
        true
    }

    /// Stored nonzeros of the current `U` (diagonal counted once).
    pub fn u_nnz(&self) -> usize {
        self.m + self.u_cols.iter().map(Vec::len).sum::<usize>()
    }

    /// Stored nonzeros of `L̃ + U`: the static `L` (unit diagonal not
    /// counted), the accumulated Forrest–Tomlin row etas, and the
    /// current `U` (diagonal counted once).
    pub fn nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.row_etas.iter().map(|e| e.terms.len()).sum::<usize>()
            + self.u_nnz()
    }
}

// ---------------------------------------------------------------------------
// Snapshot + eta file
// ---------------------------------------------------------------------------

/// The snapshot factorization behind the eta file.
#[allow(clippy::large_enum_variant)] // one long-lived factor per kernel
enum Lu {
    Dense(DenseLu),
    Sparse(SparseLu),
}

impl Lu {
    fn solve(&self, rhs: &mut [f64]) {
        match self {
            Lu::Dense(lu) => lu.solve(rhs),
            Lu::Sparse(lu) => lu.solve(rhs),
        }
    }
    fn solve_transpose(&self, rhs: &mut [f64]) {
        match self {
            Lu::Dense(lu) => lu.solve_transpose(rhs),
            Lu::Sparse(lu) => lu.solve_transpose(rhs),
        }
    }
    fn nnz(&self) -> usize {
        match self {
            Lu::Dense(lu) => lu.nnz(),
            Lu::Sparse(lu) => lu.nnz(),
        }
    }
}

/// One product-form update: identity with column `row` replaced by the
/// pivot direction `d = B⁻¹A_enter`.
pub(crate) struct Eta {
    /// Pivot row (the basis slot that changed).
    pub row: usize,
    /// `d[row]` — the pivot element.
    pub pivot: f64,
    /// Nonzero `d[i]` for `i != row`.
    pub others: Vec<(usize, f64)>,
}

/// LU snapshot plus its pivot-update state (Forrest–Tomlin row etas
/// inside the sparse LU, or a product-form eta file); see the module
/// docs.
pub(crate) struct Factor {
    lu: Lu,
    /// Effective update scheme (Forrest–Tomlin only on the sparse LU).
    update: UpdateKind,
    /// Product-form eta file (always empty under Forrest–Tomlin).
    etas: Vec<Eta>,
    /// Pivots absorbed since the refactor (etas or FT updates).
    updates: usize,
    /// Accumulated product-form eta fill (`1 + others.len()` per eta).
    eta_nnz: usize,
    /// Nonzeros of the snapshot LU at refactor time.
    lu_nnz: usize,
    /// Resolved policy: refactor after this many absorbed pivots…
    max_etas: usize,
    /// …or at this much accumulated update fill.
    max_eta_fill: usize,
    /// Fault injection: refuse this many FT updates outright (as a
    /// near-singular pivot would), leaving the factors untouched.
    refuse_next: u8,
}

impl Factor {
    /// Factorizes the basis given by `col(slot, out)` — a callback that
    /// appends basis column `slot`'s sparse `(row, value)` entries to
    /// `out` (one entry per row). Returns `None` when the basis is
    /// singular. Only [`FactorKind::Dense`] materializes an `m×m`
    /// matrix; the sparse path assembles CSC directly.
    pub fn refactor<F>(m: usize, cfg: &FactorConfig, mut col: F) -> Option<Factor>
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..m {
            scratch.clear();
            col(j, &mut scratch);
            cols.push(scratch.clone());
        }
        let lu = match cfg.kind {
            FactorKind::Sparse => Lu::Sparse(SparseLu::factor(m, &cols)?),
            FactorKind::Dense => {
                let mut a = vec![0.0; m * m];
                for (j, cj) in cols.iter().enumerate() {
                    for &(i, v) in cj {
                        a[i * m + j] = v;
                    }
                }
                Lu::Dense(DenseLu::factor(a, m)?)
            }
        };
        let lu_nnz = lu.nnz();
        // `max(64, 2m)` keeps the amortized refactor cost per pivot at
        // `O(m²)` worst case while warm-started branch & bound (a handful
        // of pivots per node) stays refactor-free across many nodes; the
        // fill trigger refactors early when individual etas are dense
        // (applying the file would outweigh a sparse refactor).
        let max_etas = if cfg.max_etas == 0 {
            64.max(2 * m)
        } else {
            cfg.max_etas
        };
        let max_eta_fill = if cfg.fill_growth.is_finite() && cfg.fill_growth > 0.0 {
            ((cfg.fill_growth * lu_nnz.max(m).max(1) as f64) as usize).max(1)
        } else {
            usize::MAX
        };
        Some(Factor {
            lu,
            update: cfg.update,
            etas: Vec::new(),
            updates: 0,
            eta_nnz: 0,
            lu_nnz,
            max_etas,
            max_eta_fill,
            refuse_next: 0,
        })
    }

    /// Fault injection: the next `n` FT updates are refused as if their
    /// pivot were near-singular. Refusals happen before any state is
    /// committed, so the factors stay exactly as a genuine refusal
    /// leaves them — valid for the old basis.
    pub(crate) fn inject_refusals(&mut self, n: u8) {
        self.refuse_next = self.refuse_next.saturating_add(n);
    }

    /// Fault injection: corrupts a saved FT spike by zeroing it. A zero
    /// spike has zero scale, which [`ft_update_spiked`] refuses *before*
    /// committing anything — so the factors survive and the caller can
    /// heal by recomputing the spike from the entering column (ladder
    /// rung 1).
    ///
    /// [`ft_update_spiked`]: Factor::ft_update_spiked
    pub(crate) fn poison_spike(spike: &mut [f64]) {
        for v in spike.iter_mut() {
            *v = 0.0;
        }
    }

    /// `true` once absorbing more pivot updates is worse than
    /// refactorizing: too many pivots absorbed
    /// ([`FactorConfig::max_etas`]) or the accumulated update fill
    /// outgrew the snapshot LU itself ([`FactorConfig::fill_growth`] —
    /// eta fill under the product form, `U` growth plus row-eta fill
    /// under Forrest–Tomlin). Round-off accumulated by long update
    /// sequences is caught by the consumers (pivot-vanished checks,
    /// active-artificial checks) which force an early refactorization.
    pub fn needs_refactor(&self) -> bool {
        self.updates >= self.max_etas || self.update_fill() >= self.max_eta_fill
    }

    /// Fill accumulated by pivot updates since the refactor.
    fn update_fill(&self) -> usize {
        match self.update {
            UpdateKind::ProductForm => self.eta_nnz,
            // FT fill lives inside the sparse LU (spikes and row etas);
            // cancellation can also shrink U, hence the saturation.
            UpdateKind::ForrestTomlin => self.lu.nnz().saturating_sub(self.lu_nnz),
        }
    }

    /// Nonzeros of the snapshot `L + U` at refactor time (the dense
    /// oracle reports its full `m²` storage).
    pub fn lu_nnz(&self) -> usize {
        self.lu_nnz
    }

    /// Current stored nonzeros: the (possibly FT-updated) factors plus
    /// the product-form eta file.
    pub fn current_nnz(&self) -> usize {
        self.lu.nnz() + self.eta_nnz
    }

    /// Current nonzeros of `U` alone (the dense oracle, which keeps no
    /// separate update state, reports its full `m²` storage).
    pub fn u_nnz(&self) -> usize {
        match &self.lu {
            Lu::Dense(lu) => lu.nnz(),
            Lu::Sparse(lu) => lu.u_nnz(),
        }
    }

    /// The update scheme this factor actually runs (Forrest–Tomlin
    /// degrades to the product form on the dense snapshot).
    pub fn update_kind(&self) -> UpdateKind {
        self.update
    }

    /// Appends a product-form pivot update; the caller guarantees
    /// `|pivot|` is safely away from zero.
    pub fn push(&mut self, eta: Eta) {
        debug_assert!(eta.pivot.abs() > 1e-12);
        debug_assert!(
            self.update == UpdateKind::ProductForm,
            "eta pushed onto a Forrest–Tomlin factor"
        );
        self.eta_nnz += 1 + eta.others.len();
        self.updates += 1;
        self.etas.push(eta);
    }

    /// Absorbs a basis change by a Forrest–Tomlin update of the sparse
    /// factors (see [`SparseLu::ft_update`]). Returns `false` — factors
    /// untouched — when the update would be unstable; the caller must
    /// refactorize the new basis.
    pub fn ft_update(&mut self, slot: usize, col: &[(usize, f64)]) -> bool {
        debug_assert!(self.update == UpdateKind::ForrestTomlin);
        if self.refuse_next > 0 {
            self.refuse_next -= 1;
            return false;
        }
        let Lu::Sparse(lu) = &mut self.lu else {
            unreachable!("Forrest–Tomlin is resolved away for the dense snapshot")
        };
        if lu.ft_update(slot, col) {
            self.updates += 1;
            true
        } else {
            false
        }
    }

    /// Solves `B·x = rhs` in place (forward transformation).
    pub fn ftran(&self, x: &mut [f64]) {
        self.lu.solve(x);
        for eta in &self.etas {
            let xr = x[eta.row] / eta.pivot;
            x[eta.row] = xr;
            if xr != 0.0 {
                for &(i, d) in &eta.others {
                    x[i] -= d * xr;
                }
            }
        }
    }

    /// [`Factor::ftran`] under Forrest–Tomlin, additionally saving the
    /// `L̃⁻¹`-phase intermediate into `spike`: when `x` is an entering
    /// column, a following [`Factor::ft_update_spiked`] absorbs the
    /// pivot without re-running the lower solve.
    pub fn ftran_spiked(&self, x: &mut [f64], spike: &mut Vec<f64>) {
        debug_assert!(self.update == UpdateKind::ForrestTomlin && self.etas.is_empty());
        match &self.lu {
            Lu::Sparse(lu) => lu.solve_spiked(x, Some(spike)),
            Lu::Dense(_) => unreachable!("Forrest–Tomlin is resolved away for the dense snapshot"),
        }
    }

    /// [`Factor::ft_update`] with the spike saved by a prior
    /// [`Factor::ftran_spiked`] of the entering column.
    pub fn ft_update_spiked(&mut self, slot: usize, spike: Vec<f64>) -> bool {
        debug_assert!(self.update == UpdateKind::ForrestTomlin);
        if self.refuse_next > 0 {
            self.refuse_next -= 1;
            return false;
        }
        let Lu::Sparse(lu) = &mut self.lu else {
            unreachable!("Forrest–Tomlin is resolved away for the dense snapshot")
        };
        if lu.ft_update_spiked(slot, spike) {
            self.updates += 1;
            true
        } else {
            false
        }
    }

    /// Solves `Bᵀ·y = rhs` in place (backward transformation).
    pub fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = y[eta.row];
            for &(i, d) in &eta.others {
                s -= d * y[i];
            }
            y[eta.row] = s / eta.pivot;
        }
        self.lu.solve_transpose(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    /// Sparse columns of a dense row-major matrix.
    fn csc_of(a: &[f64], m: usize) -> Vec<Vec<(usize, f64)>> {
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i * m + j] != 0.0)
                    .map(|i| (i, a[i * m + j]))
                    .collect()
            })
            .collect()
    }

    /// `Factor` over a dense row-major matrix with the given kind, in
    /// the historical product-form update mode (the Forrest–Tomlin
    /// update path has its own suite below).
    fn factor_of(a: &[f64], m: usize, kind: FactorKind) -> Option<Factor> {
        let cols = csc_of(a, m);
        let cfg = FactorConfig {
            kind,
            update: UpdateKind::ProductForm,
            ..FactorConfig::default()
        };
        Factor::refactor(m, &cfg, |j, out| out.extend_from_slice(&cols[j]))
    }

    #[test]
    fn lu_solves_small_system() {
        // [[2,1],[1,3]] x = [5,10] → x = [1,3].
        let lu = DenseLu::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let mut x = vec![5.0, 10.0];
        lu.solve(&mut x);
        assert!(approx(&x, &[1.0, 3.0]), "{x:?}");
        let mut y = vec![4.0, 7.0];
        lu.solve_transpose(&mut y);
        // Check Bᵀy = rhs: Bᵀ = [[2,1],[1,3]].
        assert!((2.0 * y[0] + 1.0 * y[1] - 4.0).abs() < 1e-9);
        assert!((1.0 * y[0] + 3.0 * y[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_lu_solves_small_system() {
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let lu = SparseLu::factor(2, &csc_of(&a, 2)).unwrap();
        let mut x = vec![5.0, 10.0];
        lu.solve(&mut x);
        assert!(approx(&x, &[1.0, 3.0]), "{x:?}");
        let mut y = vec![4.0, 7.0];
        lu.solve_transpose(&mut y);
        assert!((2.0 * y[0] + 1.0 * y[1] - 4.0).abs() < 1e-9);
        assert!((1.0 * y[0] + 3.0 * y[1] - 7.0).abs() < 1e-9);
        assert!(lu.nnz() <= 4);
    }

    #[test]
    fn singular_matrix_is_rejected_by_both_kinds() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(DenseLu::factor(a.clone(), 2).is_none());
        assert!(SparseLu::factor(2, &csc_of(&a, 2)).is_none());
    }

    /// The degenerate-case suite: 1×1, permutation matrices, duplicate
    /// columns, structurally singular (empty column/row), and empty.
    #[test]
    fn degenerate_cases_match_across_kinds() {
        // 1×1.
        for kind in [FactorKind::Sparse, FactorKind::Dense] {
            let f = factor_of(&[4.0], 1, kind).unwrap();
            let mut x = vec![6.0];
            f.ftran(&mut x);
            assert!((x[0] - 1.5).abs() < 1e-12, "{kind:?}");
            let mut y = vec![8.0];
            f.btran(&mut y);
            assert!((y[0] - 2.0).abs() < 1e-12, "{kind:?}");
            assert!(factor_of(&[0.0], 1, kind).is_none(), "{kind:?}");
        }
        // A 4×4 permutation matrix: nnz(L+U) must stay at m.
        let p = vec![
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0,
        ];
        let sp = SparseLu::factor(4, &csc_of(&p, 4)).unwrap();
        assert_eq!(sp.nnz(), 4, "permutation factors with zero fill");
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        sp.solve(&mut x);
        // P x = b with P e.g. mapping col j → row i: x = Pᵀ b.
        for i in 0..4 {
            let got: f64 = (0..4).map(|j| p[i * 4 + j] * x[j]).sum();
            assert!((got - (i as f64 + 1.0)).abs() < 1e-12);
        }
        // Duplicate columns → singular under both kinds.
        let dup = vec![
            1.0, 2.0, 1.0, //
            0.5, -1.0, 0.5, //
            3.0, 0.25, 3.0,
        ];
        assert!(factor_of(&dup, 3, FactorKind::Sparse).is_none());
        assert!(factor_of(&dup, 3, FactorKind::Dense).is_none());
        // Structurally singular: an empty column.
        let hole = vec![
            1.0, 0.0, 2.0, //
            4.0, 0.0, 1.0, //
            0.0, 0.0, 3.0,
        ];
        assert!(factor_of(&hole, 3, FactorKind::Sparse).is_none());
        assert!(factor_of(&hole, 3, FactorKind::Dense).is_none());
        // Empty basis (m = 0) factors trivially.
        for kind in [FactorKind::Sparse, FactorKind::Dense] {
            let f = factor_of(&[], 0, kind).unwrap();
            f.ftran(&mut []);
            f.btran(&mut []);
        }
    }

    /// A well-conditioned basis scaled by 1e-9 must not be misreported
    /// as singular (the old absolute `1e-11` pivot cutoff did exactly
    /// that once entries dipped below it).
    #[test]
    fn tiny_but_well_conditioned_basis_factors() {
        let scale = 1e-9;
        // Entries of magnitude ~5e-12 < the old absolute 1e-11 cutoff.
        let a: Vec<f64> = [
            0.004, 0.001, 0.0, //
            0.001, 0.003, 0.001, //
            0.0, 0.001, 0.005,
        ]
        .iter()
        .map(|v| v * scale)
        .collect();
        let b = [1.0, -2.0, 0.5];
        for kind in [FactorKind::Sparse, FactorKind::Dense] {
            let f = factor_of(&a, 3, kind)
                .unwrap_or_else(|| panic!("{kind:?} misreported a scaled basis as singular"));
            let mut x = b.to_vec();
            f.ftran(&mut x);
            for i in 0..3 {
                let got: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
                assert!(
                    (got - b[i]).abs() < 1e-9 * scale.max(1.0).max((x[i]).abs() * 1e-16),
                    "{kind:?} row {i}: {got} vs {}",
                    b[i]
                );
            }
        }
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        // Start from B0 = I (3×3); replace column 1 with d = (0.5, 2.0, 0.25).
        for kind in [FactorKind::Sparse, FactorKind::Dense] {
            let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
            let mut f = factor_of(&eye, 3, kind).unwrap();
            f.push(Eta {
                row: 1,
                pivot: 2.0,
                others: vec![(0, 0.5), (2, 0.25)],
            });
            // New B = [e0, (0.5,2,0.25), e2]. Solve B x = (1, 4, 1):
            // x1 = 2, x0 = 1 - 0.5*2 = 0, x2 = 1 - 0.25*2 = 0.5.
            let mut x = vec![1.0, 4.0, 1.0];
            f.ftran(&mut x);
            assert!(approx(&x, &[0.0, 2.0, 0.5]), "{kind:?}: {x:?}");
            // Bᵀ y = (3, 6, 8): y0 = 3, y2 = 8, row1: 0.5·y0 + 2·y1 + 0.25·y2 = 6
            // → y1 = (6 − 1.5 − 2)/2 = 1.25.
            let mut y = vec![3.0, 6.0, 8.0];
            f.btran(&mut y);
            assert!(approx(&y, &[3.0, 1.25, 8.0]), "{kind:?}: {y:?}");
        }
    }

    #[test]
    fn permuted_lu_round_trips_both_directions() {
        // A fixed well-conditioned 4×4 with forced pivoting.
        let a = vec![
            0.0, 2.0, 1.0, 0.5, //
            1.0, 0.0, 0.0, 2.0, //
            4.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 3.0, 1.0,
        ];
        for kind in [FactorKind::Sparse, FactorKind::Dense] {
            let f = factor_of(&a, 4, kind).unwrap();
            let b = vec![1.0, -2.0, 0.5, 3.0];
            let mut x = b.clone();
            f.ftran(&mut x);
            for i in 0..4 {
                let got: f64 = (0..4).map(|j| a[i * 4 + j] * x[j]).sum();
                assert!(
                    (got - b[i]).abs() < 1e-9,
                    "{kind:?} row {i}: {got} vs {}",
                    b[i]
                );
            }
            // Sparse rhs through the transpose: Bᵀ y = e2.
            let mut y = vec![0.0, 0.0, 1.0, 0.0];
            f.btran(&mut y);
            for i in 0..4 {
                let got: f64 = (0..4).map(|j| a[j * 4 + i] * y[j]).sum();
                let want = if i == 2 { 1.0 } else { 0.0 };
                assert!(
                    (got - want).abs() < 1e-9,
                    "{kind:?} col {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn sparse_nnz_tracks_fill_not_dimension() {
        // A tridiagonal system: sparse LU fill stays O(m), the dense
        // oracle burns m² regardless.
        let m = 32;
        let mut a = vec![0.0; m * m];
        for i in 0..m {
            a[i * m + i] = 4.0;
            if i + 1 < m {
                a[i * m + i + 1] = -1.0;
                a[(i + 1) * m + i] = -1.0;
            }
        }
        let sparse = factor_of(&a, m, FactorKind::Sparse).unwrap();
        let dense = factor_of(&a, m, FactorKind::Dense).unwrap();
        assert!(
            sparse.lu_nnz() <= 3 * m,
            "fill {} on tridiagonal",
            sparse.lu_nnz()
        );
        assert_eq!(dense.lu_nnz(), m * m);
        // Same answers regardless of storage.
        let mut xs: Vec<f64> = (0..m).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut xd = xs.clone();
        sparse.ftran(&mut xs);
        dense.ftran(&mut xd);
        assert!(approx(&xs, &xd), "ftran diverges");
        let mut ys: Vec<f64> = (0..m).map(|i| ((i * 7) % 3) as f64).collect();
        let mut yd = ys.clone();
        sparse.btran(&mut ys);
        dense.btran(&mut yd);
        assert!(approx(&ys, &yd), "btran diverges");
    }

    /// `Factor` over a dense row-major matrix, sparse snapshot,
    /// Forrest–Tomlin updates.
    fn ft_factor_of(a: &[f64], m: usize) -> Option<Factor> {
        let cols = csc_of(a, m);
        let cfg = FactorConfig {
            kind: FactorKind::Sparse,
            update: UpdateKind::ForrestTomlin,
            ..FactorConfig::default()
        };
        Factor::refactor(m, &cfg, |j, out| out.extend_from_slice(&cols[j]))
    }

    /// Replaces column `slot` of the dense row-major mirror with `col`.
    fn replace_col(a: &mut [f64], m: usize, slot: usize, col: &[(usize, f64)]) {
        for i in 0..m {
            a[i * m + slot] = 0.0;
        }
        for &(r, v) in col {
            a[r * m + slot] = v;
        }
    }

    /// FTRAN/BTRAN of `f` agree with a fresh Markowitz refactorization
    /// of the dense mirror `a` on a couple of rhs vectors.
    fn assert_matches_fresh(f: &Factor, a: &[f64], m: usize, stage: &str) {
        let fresh = factor_of(a, m, FactorKind::Sparse)
            .unwrap_or_else(|| panic!("{stage}: fresh refactorization failed"));
        let rhs: Vec<f64> = (0..m).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let mut xu = rhs.clone();
        let mut xf = rhs.clone();
        f.ftran(&mut xu);
        fresh.ftran(&mut xf);
        assert!(approx(&xu, &xf), "{stage}: ftran diverged {xu:?} vs {xf:?}");
        let mut yu = rhs.clone();
        let mut yf = rhs;
        f.btran(&mut yu);
        fresh.btran(&mut yf);
        assert!(approx(&yu, &yf), "{stage}: btran diverged {yu:?} vs {yf:?}");
    }

    /// A Forrest–Tomlin update tracks a column replacement exactly: the
    /// same small system as the eta test, answered through updated
    /// factors instead of an eta file.
    #[test]
    fn ft_update_tracks_column_replacement() {
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let mut f = ft_factor_of(&eye, 3).unwrap();
        // Replace basis slot 1 with a = (0.5, 2.0, 0.25) (original rows).
        let col = vec![(0, 0.5), (1, 2.0), (2, 0.25)];
        assert!(f.ft_update(1, &col), "well-conditioned update refused");
        let mut x = vec![1.0, 4.0, 1.0];
        f.ftran(&mut x);
        assert!(approx(&x, &[0.0, 2.0, 0.5]), "{x:?}");
        let mut y = vec![3.0, 6.0, 8.0];
        f.btran(&mut y);
        assert!(approx(&y, &[3.0, 1.25, 8.0]), "{y:?}");
        // And against a fresh factorization of the replaced basis.
        let mut a = eye.to_vec();
        replace_col(&mut a, 3, 1, &col);
        assert_matches_fresh(&f, &a, 3, "identity column swap");
    }

    /// The FT degenerate suite: a 1×1 basis, a pivot already sitting in
    /// `U`'s last pivot position (no elimination work at all), and a
    /// near-singular spike, which must be *refused* — with the factors
    /// left intact — rather than absorbed.
    #[test]
    fn ft_degenerate_cases() {
        // m = 1: the update is a plain diagonal replacement.
        let mut f = ft_factor_of(&[4.0], 1).unwrap();
        assert!(f.ft_update(0, &[(0, 8.0)]));
        let mut x = vec![2.0];
        f.ftran(&mut x);
        assert!((x[0] - 0.25).abs() < 1e-12, "{x:?}");
        assert!(!f.ft_update(0, &[(0, 0.0)]), "zero column accepted");

        // Upper-triangular basis: slot 2 is eliminated last, so its
        // replacement needs no row eta and no permutation work.
        let tri = [
            2.0, 1.0, 1.0, //
            0.0, 3.0, 1.0, //
            0.0, 0.0, 4.0,
        ];
        let mut f = ft_factor_of(&tri, 3).unwrap();
        let col = vec![(0, 1.0), (1, 2.0), (2, 8.0)];
        assert!(f.ft_update(2, &col));
        let mut a = tri.to_vec();
        replace_col(&mut a, 3, 2, &col);
        assert_matches_fresh(&f, &a, 3, "last-position pivot");

        // Near-singular spike: replacing column 1 of the identity with a
        // column that is (numerically) a copy of column 0 drives the
        // updated diagonal to round-off → the update must refuse and
        // leave the factors answering for the *old* basis.
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let mut f = ft_factor_of(&eye, 3).unwrap();
        let bad = vec![(0, 1.0), (1, 1e-14), (2, 0.0)];
        assert!(!f.ft_update(1, &bad), "near-singular spike accepted");
        assert_matches_fresh(&f, &eye, 3, "refused update must not corrupt");
    }

    /// A chain of FT updates across several slots (forcing pivot-order
    /// cycling and row-eta accumulation) keeps agreeing with fresh
    /// factorizations of the mutated basis.
    #[test]
    fn ft_update_chain_matches_fresh_refactorization() {
        let m = 5;
        let mut a = vec![0.0f64; m * m];
        for i in 0..m {
            a[i * m + i] = 3.0 + i as f64;
            if i + 1 < m {
                a[i * m + i + 1] = -1.0;
                a[(i + 1) * m + i] = 0.5;
            }
        }
        let mut f = ft_factor_of(&a, m).unwrap();
        let replacements: Vec<(usize, Vec<(usize, f64)>)> = vec![
            (2, vec![(0, 1.0), (2, 4.0), (4, -0.5)]),
            (0, vec![(0, 2.5), (1, 1.0), (3, 0.25)]),
            (2, vec![(1, -1.0), (2, 5.0), (3, 1.0)]),
            (4, vec![(0, 0.5), (3, -0.75), (4, 6.0)]),
            (1, vec![(1, 3.5), (2, 0.5), (4, 1.0)]),
        ];
        for (step, (slot, col)) in replacements.into_iter().enumerate() {
            assert!(f.ft_update(slot, &col), "update {step} refused");
            replace_col(&mut a, m, slot, &col);
            assert_matches_fresh(&f, &a, m, &format!("after update {step}"));
        }
    }

    /// The refactor policy counts FT updates like it counts etas, and
    /// the fill trigger sees the updated factors' growth.
    #[test]
    fn ft_updates_count_toward_the_refactor_policy() {
        let eye = [1.0, 0.0, 0.0, 1.0];
        let cols = csc_of(&eye, 2);
        let mut f = Factor::refactor(
            2,
            &FactorConfig {
                kind: FactorKind::Sparse,
                update: UpdateKind::ForrestTomlin,
                max_etas: 2,
                fill_growth: f64::INFINITY,
            },
            |j, out| out.extend_from_slice(&cols[j]),
        )
        .unwrap();
        assert!(f.ft_update(0, &[(0, 2.0), (1, 0.5)]));
        assert!(!f.needs_refactor(), "fired below the configured length");
        assert!(f.ft_update(1, &[(0, 0.25), (1, 3.0)]));
        assert!(f.needs_refactor(), "did not fire at the configured length");
    }

    /// The refactor policy fires exactly at the configured eta-file
    /// length, and independently at the configured fill growth.
    #[test]
    fn refactor_policy_fires_at_configured_point() {
        let eye = [1.0, 0.0, 0.0, 1.0];
        let cols = csc_of(&eye, 2);
        let mk = |max_etas, fill_growth| {
            Factor::refactor(
                2,
                &FactorConfig {
                    kind: FactorKind::Sparse,
                    update: UpdateKind::ProductForm,
                    max_etas,
                    fill_growth,
                },
                |j, out| out.extend_from_slice(&cols[j]),
            )
            .unwrap()
        };
        let eta = || Eta {
            row: 0,
            pivot: 2.0,
            others: vec![(1, 0.5)],
        };
        // Length trigger: fires at exactly 3 etas.
        let mut f = mk(3, f64::INFINITY);
        f.push(eta());
        f.push(eta());
        assert!(!f.needs_refactor(), "fired below the configured length");
        f.push(eta());
        assert!(f.needs_refactor(), "did not fire at the configured length");
        // Fill trigger: lu_nnz = 2, growth 2.0 → fires once eta fill ≥ 4,
        // i.e. after two 2-entry etas, long before the length cap.
        let mut f = mk(1_000_000, 2.0);
        f.push(eta());
        assert!(!f.needs_refactor(), "fill trigger fired early");
        f.push(eta());
        assert!(f.needs_refactor(), "fill trigger never fired");
        // Disabled fill trigger (growth ≤ 0) never fires on fill.
        let mut f = mk(1_000_000, 0.0);
        for _ in 0..64 {
            f.push(eta());
        }
        assert!(!f.needs_refactor());
    }
}
