//! Property-based tests of the solver.
//!
//! Random LPs/MILPs are generated in a shape where feasibility is
//! guaranteed by construction (a known feasible point is planted), then the
//! solver's answers are checked against first principles:
//!
//! * returned points satisfy every bound and constraint,
//! * integer variables are integral,
//! * the objective is at least as good as the planted point,
//! * the MILP optimum never beats its own LP relaxation,
//! * and — the **kernel oracle** — the revised simplex
//!   ([`crate::Kernel::Revised`], warm-started and cold) and the dense
//!   tableau ([`crate::Kernel::DenseTableau`]) agree on objective values
//!   and feasibility verdicts, including on *unplanted* instances that
//!   may be infeasible.

use proptest::prelude::*;

use crate::factor::{Eta, Factor, FactorConfig, UpdateKind};
use crate::model::{cmp, Kernel, Model, Sense, SolverOptions};
use crate::solution::SolveError;
use crate::LinExpr;

/// A randomly generated model together with a feasible point.
#[derive(Debug, Clone)]
struct PlantedLp {
    nvars: usize,
    integers: Vec<bool>,
    point: Vec<f64>,
    /// Rows as (coeffs, op_is_le, slack).
    rows: Vec<(Vec<f64>, bool, f64)>,
    obj: Vec<f64>,
    maximize: bool,
}

impl PlantedLp {
    fn build(&self) -> (Model, Vec<crate::VarId>) {
        let sense = if self.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut m = Model::new(sense);
        let vars: Vec<_> = (0..self.nvars)
            .map(|i| m.add_var(0.0, 10.0, self.integers[i]))
            .collect();
        let mut obj = LinExpr::new();
        for (i, &c) in self.obj.iter().enumerate() {
            obj += c * vars[i];
        }
        m.set_objective(obj);
        for (coeffs, is_le, slack) in &self.rows {
            let mut e = LinExpr::new();
            let mut lhs_at_point = 0.0;
            for (i, &c) in coeffs.iter().enumerate() {
                e += c * vars[i];
                lhs_at_point += c * self.point[i];
            }
            // Choose rhs so the planted point is feasible with `slack` room.
            if *is_le {
                m.add_constraint(e, cmp::LE, lhs_at_point + slack);
            } else {
                m.add_constraint(e, cmp::GE, lhs_at_point - slack);
            }
        }
        (m, vars)
    }
}

fn planted_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = PlantedLp> {
    (2..=max_vars, 1..=max_rows, any::<bool>()).prop_flat_map(move |(nv, nr, maximize)| {
        let integers = proptest::collection::vec(any::<bool>(), nv);
        // Plant integer-valued points so they stay feasible when some
        // variables are declared integral.
        let point = proptest::collection::vec((0..=6i32).prop_map(|v| v as f64), nv);
        let row = (
            proptest::collection::vec(-5..=5i32, nv)
                .prop_map(|v| v.into_iter().map(|c| c as f64).collect::<Vec<_>>()),
            any::<bool>(),
            (0..=40i32).prop_map(|s| s as f64 / 4.0),
        );
        let rows = proptest::collection::vec(row, nr);
        let obj = proptest::collection::vec(-5..=5i32, nv)
            .prop_map(|v| v.into_iter().map(|c| c as f64).collect::<Vec<_>>());
        (integers, point, rows, obj).prop_map(move |(integers, point, rows, obj)| PlantedLp {
            nvars: nv,
            integers,
            point,
            rows,
            obj,
            maximize,
        })
    })
}

/// A planted MILP whose integer variables carry the bound shapes the
/// legacy backend used to own: negative boxes (shifted by a negative
/// finite lower bound), mirrored (upper bound only, lower −∞), and
/// fully free (split-pair columns). The planted integer point lives in
/// `[-6, 6]^n`; per-variable **anchor rows** `x_i ≥ p_i − 5` and
/// `x_i ≤ p_i + 5` — genuine constraint rows, not variable bounds —
/// keep every shape bounded without reintroducing the finite bounds the
/// shapes are meant to avoid.
#[derive(Debug, Clone)]
struct PlantedUnboxedMilp {
    nvars: usize,
    /// 0 = negative box, 1 = mirrored, 2 = free.
    shapes: Vec<u8>,
    point: Vec<f64>,
    rows: Vec<(Vec<f64>, bool, f64)>,
    obj: Vec<f64>,
    maximize: bool,
}

impl PlantedUnboxedMilp {
    fn build(&self) -> (Model, Vec<crate::VarId>) {
        let sense = if self.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut m = Model::new(sense);
        let vars: Vec<_> = (0..self.nvars)
            .map(|i| {
                let (lo, hi) = match self.shapes[i] {
                    0 => (-9.0, 9.0),
                    1 => (f64::NEG_INFINITY, 9.0),
                    _ => (f64::NEG_INFINITY, f64::INFINITY),
                };
                m.add_var(lo, hi, true)
            })
            .collect();
        let mut obj = LinExpr::new();
        for (i, &c) in self.obj.iter().enumerate() {
            obj += c * vars[i];
        }
        m.set_objective(obj);
        for (i, &v) in vars.iter().enumerate() {
            m.add_constraint(LinExpr::var(v), cmp::GE, self.point[i] - 5.0);
            m.add_constraint(LinExpr::var(v), cmp::LE, self.point[i] + 5.0);
        }
        for (coeffs, is_le, slack) in &self.rows {
            let mut e = LinExpr::new();
            let mut lhs_at_point = 0.0;
            for (i, &c) in coeffs.iter().enumerate() {
                e += c * vars[i];
                lhs_at_point += c * self.point[i];
            }
            if *is_le {
                m.add_constraint(e, cmp::LE, lhs_at_point + slack);
            } else {
                m.add_constraint(e, cmp::GE, lhs_at_point - slack);
            }
        }
        (m, vars)
    }
}

fn planted_unboxed_milp(
    max_vars: usize,
    max_rows: usize,
) -> impl Strategy<Value = PlantedUnboxedMilp> {
    (2..=max_vars, 1..=max_rows, any::<bool>()).prop_flat_map(move |(nv, nr, maximize)| {
        let shapes = proptest::collection::vec((0u32..3).prop_map(|s| s as u8), nv);
        let point = proptest::collection::vec((-6..=6i32).prop_map(|v| v as f64), nv);
        let row = (
            proptest::collection::vec(-4..=4i32, nv)
                .prop_map(|v| v.into_iter().map(|c| c as f64).collect::<Vec<_>>()),
            any::<bool>(),
            (0..=40i32).prop_map(|s| s as f64 / 4.0),
        );
        let rows = proptest::collection::vec(row, nr);
        let obj = proptest::collection::vec(-5..=5i32, nv)
            .prop_map(|v| v.into_iter().map(|c| c as f64).collect::<Vec<_>>());
        (shapes, point, rows, obj).prop_map(move |(shapes, point, rows, obj)| PlantedUnboxedMilp {
            nvars: nv,
            shapes,
            point,
            rows,
            obj,
            maximize,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Unboxed-integer oracle**: MILPs whose integers carry negative,
    /// mirrored, and fully free bound shapes — the class the deleted
    /// `LegacyBackend` used to own — must branch natively on the warm
    /// path and agree with the dense-tableau oracle request, with
    /// integral feasible points throughout.
    #[test]
    fn mirrored_and_free_integers_agree_with_dense_oracle(
        lp in planted_unboxed_milp(4, 3),
    ) {
        let (m, vars) = lp.build();
        let base = SolverOptions { max_nodes: 4_000, ..Default::default() };
        let (dense, dense_stats) = crate::solve_with_stats(
            &m,
            &SolverOptions { kernel: Kernel::DenseTableau, ..base.clone() },
        )
        .expect("planted MILP must be feasible");
        prop_assert!(m.max_violation(dense.values(), 1e-6) < 1e-5);
        let (sol, stats) = crate::solve_with_stats(&m, &base)
            .expect("planted MILP must be feasible");
        prop_assert!(m.max_violation(sol.values(), 1e-6) < 1e-5);
        for (i, &v) in vars.iter().enumerate() {
            let x = sol[v];
            prop_assert!(
                (x - x.round()).abs() < 1e-6,
                "x{i} = {x} not integral (shape {})",
                lp.shapes[i]
            );
        }
        if !stats.truncated && !dense_stats.truncated {
            prop_assert!(
                (sol.objective - dense.objective).abs() < 1e-7,
                "warm {} vs dense oracle {}",
                sol.objective,
                dense.objective
            );
        }
    }

    #[test]
    fn lp_solutions_are_feasible_and_beat_planted_point(lp in planted_lp(6, 5)) {
        let relaxed = PlantedLp {
            integers: vec![false; lp.nvars],
            ..lp.clone()
        };
        let (m, _vars) = relaxed.build();
        let sol = m.solve().expect("planted LP must be feasible");
        prop_assert!(m.max_violation(sol.values(), 1e-6) < 1e-5,
            "violation {}", m.max_violation(sol.values(), 1e-6));
        let planted_obj: f64 = lp.obj.iter().zip(&lp.point).map(|(c, x)| c * x).sum();
        if lp.maximize {
            prop_assert!(sol.objective >= planted_obj - 1e-6);
        } else {
            prop_assert!(sol.objective <= planted_obj + 1e-6);
        }
    }

    #[test]
    fn milp_solutions_are_integral_feasible_and_bounded_by_relaxation(lp in planted_lp(5, 4)) {
        let (m, vars) = lp.build();
        let opts = SolverOptions { max_nodes: 2_000, ..Default::default() };
        let sol = m.solve_with(&opts).expect("planted MILP must be feasible");
        prop_assert!(m.max_violation(sol.values(), 1e-6) < 1e-5);
        for (i, &v) in vars.iter().enumerate() {
            if lp.integers[i] {
                let x = sol[v];
                prop_assert!((x - x.round()).abs() < 1e-6, "x{i} = {x} not integral");
            }
        }
        // The MILP optimum can never beat the LP relaxation.
        let relax = m.solve_relaxation(&opts).unwrap();
        if lp.maximize {
            prop_assert!(sol.objective <= relax.objective + 1e-5);
        } else {
            prop_assert!(sol.objective >= relax.objective - 1e-5);
        }
    }

    /// Revised vs dense-tableau oracle on planted (feasible) LPs.
    #[test]
    fn kernels_agree_on_lp_objectives(lp in planted_lp(6, 5)) {
        let relaxed = PlantedLp {
            integers: vec![false; lp.nvars],
            ..lp.clone()
        };
        let (m, _vars) = relaxed.build();
        let revised = m.solve_with(&SolverOptions::default()).unwrap();
        let dense = m
            .solve_with(&SolverOptions { kernel: Kernel::DenseTableau, ..Default::default() })
            .unwrap();
        prop_assert!(
            (revised.objective - dense.objective).abs() < 1e-6,
            "revised {} vs dense {}",
            revised.objective,
            dense.objective
        );
    }

    /// Revised (warm B&B) vs the dense-tableau oracle request (every
    /// node LP solved cold on the tableau) on planted
    /// (feasible) MILPs: same optimum, and the returned points are
    /// feasible under either kernel.
    #[test]
    fn kernels_agree_on_milp_objectives(lp in planted_lp(5, 4)) {
        let (m, _vars) = lp.build();
        let base = SolverOptions { max_nodes: 2_000, ..Default::default() };
        let warm = m.solve_with(&base).unwrap();
        let dense = m
            .solve_with(&SolverOptions { kernel: Kernel::DenseTableau, ..base.clone() })
            .unwrap();
        prop_assert!(m.max_violation(warm.values(), 1e-6) < 1e-5);
        prop_assert!(m.max_violation(dense.values(), 1e-6) < 1e-5);
        prop_assert!(
            (warm.objective - dense.objective).abs() < 1e-6,
            "warm {} vs dense {}",
            warm.objective,
            dense.objective
        );
    }

    /// Unplanted instances may be infeasible; both kernels must return
    /// the *same verdict* (and the same objective when feasible). Bounded
    /// variables rule out unboundedness, so the only verdicts are
    /// Optimal and Infeasible.
    #[test]
    fn kernels_agree_on_feasibility_verdicts(
        nv in 2usize..5,
        nr in 1usize..5,
        coeffs in prop::collection::vec(-4i32..=4, 25),
        rhs in prop::collection::vec(-6i32..=6, 5),
        ops in prop::collection::vec(any::<bool>(), 5),
        ints in prop::collection::vec(any::<bool>(), 5),
        obj in prop::collection::vec(-3i32..=3, 5),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..nv)
            .map(|i| m.add_var(0.0, 4.0, ints[i]))
            .collect();
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e += (obj[i] as f64) * v;
        }
        m.set_objective(e);
        for r in 0..nr {
            let mut row = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                row += (coeffs[(r * nv + i) % coeffs.len()] as f64) * v;
            }
            // Mix of == (hard to satisfy, often infeasible) and >=.
            let op = if ops[r] { cmp::EQ } else { cmp::GE };
            m.add_constraint(row, op, rhs[r] as f64);
        }
        let revised = m.solve_with(&SolverOptions::default());
        let dense = m.solve_with(&SolverOptions {
            kernel: Kernel::DenseTableau,
            ..Default::default()
        });
        match (revised, dense) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "objectives diverge: revised {} vs dense {}",
                a.objective,
                b.objective
            ),
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => prop_assert!(
                false,
                "verdicts diverge: revised {:?} vs dense {:?}",
                a.map(|s| s.objective),
                b.map(|s| s.objective)
            ),
        }
    }

    /// **Factorization residuals**: random sparse nonsingular bases
    /// (planted diagonal dominance, then randomly row/column-permuted)
    /// factored by the Markowitz sparse LU; FTRAN and BTRAN answers must
    /// solve the basis itself, `‖B·x − b‖∞ < 1e-9` and
    /// `‖Bᵀ·y − b‖∞ < 1e-9` — at the snapshot and through a nonempty
    /// product-form eta file built from random pivot sequences, each
    /// pivot replacing one column of the dense mirror `B`.
    #[test]
    fn sparse_factor_matches_dense_oracle_through_eta_file(
        m in 1usize..9,
        entries in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), -1.0f64..1.0),
            24,
        ),
        rowp in prop::collection::vec(any::<prop::sample::Index>(), 9),
        colp in prop::collection::vec(any::<prop::sample::Index>(), 9),
        pivots in prop::collection::vec(
            (any::<prop::sample::Index>(), prop::collection::vec(-1.0f64..1.0, 9)),
            4,
        ),
        rhs_raw in prop::collection::vec(-2.0f64..2.0, 9),
        rhs_mask in prop::collection::vec(any::<bool>(), 9),
    ) {
        // Sparse-ish base matrix made nonsingular by strict diagonal
        // dominance, then permuted so the factorizations must pivot.
        let mut a = vec![0.0f64; m * m];
        for (ri, ci, v) in &entries {
            a[ri.index(m) * m + ci.index(m)] = *v;
        }
        for i in 0..m {
            let off: f64 = (0..m).filter(|&j| j != i).map(|j| a[i * m + j].abs()).sum();
            a[i * m + i] = off + 1.0;
        }
        let perm = |idx: &[prop::sample::Index]| {
            let mut p: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                p.swap(i, idx[i].index(i + 1));
            }
            p
        };
        let (rp, cp) = (perm(&rowp), perm(&colp));
        let mut b = vec![0.0f64; m * m];
        for i in 0..m {
            for j in 0..m {
                b[rp[i] * m + cp[j]] = a[i * m + j];
            }
        }
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| b[i * m + j] != 0.0)
                    .map(|i| (i, b[i * m + j]))
                    .collect()
            })
            .collect();
        let mut f = Factor::refactor(
            m,
            &FactorConfig {
                update: UpdateKind::ProductForm,
                max_etas: 0,
                fill_growth: 8.0,
            },
            |j, out| out.extend_from_slice(&cols[j]),
        )
        .expect("diagonally dominant basis is nonsingular");
        prop_assert!(f.lu_nnz() <= m * m, "sparse fill exceeds dense storage");

        // A sparse right-hand side (masked), checked in both directions
        // after every basis change.
        let rhs: Vec<f64> = (0..m)
            .map(|i| if rhs_mask[i] { rhs_raw[i] } else { 0.0 })
            .collect();
        let check = |f: &Factor, b: &[f64], stage: &str| {
            let mut x = rhs.clone();
            let mut y = rhs.clone();
            f.ftran(&mut x);
            f.btran(&mut y);
            for i in 0..m {
                let bx: f64 = (0..m).map(|j| b[i * m + j] * x[j]).sum();
                let by: f64 = (0..m).map(|j| b[j * m + i] * y[j]).sum();
                assert!((bx - rhs[i]).abs() < 1e-9, "{stage}: (B·x)[{i}] = {bx} vs {}", rhs[i]);
                assert!((by - rhs[i]).abs() < 1e-9, "{stage}: (Bᵀ·y)[{i}] = {by} vs {}", rhs[i]);
            }
        };
        check(&f, &b, "snapshot");

        // Random pivot sequence: replace basis slot r with a random
        // column whose direction d = B⁻¹a has a usable pivot; the factor
        // absorbs its eta and the dense mirror the column itself.
        for (slot, colvals) in &pivots {
            let r = slot.index(m);
            let mut d: Vec<f64> = colvals[..m].to_vec();
            f.ftran(&mut d);
            if d[r].abs() < 0.1 {
                continue; // replacement would make B near-singular
            }
            let others: Vec<(usize, f64)> = d
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() > 1e-12)
                .map(|(i, &v)| (i, v))
                .collect();
            f.push(Eta { row: r, pivot: d[r], others });
            for i in 0..m {
                b[i * m + r] = colvals[i];
            }
            check(&f, &b, "eta file");
        }
    }

    /// **Search oracle**: the production search and the
    /// `Kernel::DenseTableau` request (cold tableau nodes) run through
    /// the full branch & bound and must agree on the
    /// verdict and the objective.
    #[test]
    fn node_orders_and_factor_kinds_agree(lp in planted_lp(5, 4)) {
        let (m, _vars) = lp.build();
        let mut reference: Option<f64> = None;
        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let opts = SolverOptions {
                max_nodes: 4_000,
                kernel,
                ..Default::default()
            };
            let (sol, stats) =
                crate::solve_with_stats(&m, &opts).expect("planted MILP must be feasible");
            prop_assert!(m.max_violation(sol.values(), 1e-6) < 1e-5);
            // Truncated searches may legitimately hold different
            // incumbents; only completed runs must agree.
            if stats.truncated {
                continue;
            }
            match reference {
                None => reference = Some(sol.objective),
                Some(r) => prop_assert!(
                    (sol.objective - r).abs() < 1e-7,
                    "{kernel:?}: {} vs reference {}",
                    sol.objective,
                    r
                ),
            }
        }
    }

    /// **Replay oracle**: the search runs on the calling thread, so a
    /// repeated production solve replays the first one bit for bit
    /// (objective, nodes, pivots, node bounds), and a completed run
    /// agrees on the objective with the `Kernel::DenseTableau` request.
    #[test]
    fn node_orders_and_worker_counts_agree(lp in planted_lp(5, 4)) {
        let (m, _vars) = lp.build();
        let opts = SolverOptions {
            max_nodes: 4_000,
            ..Default::default()
        };
        let run = |opts: &SolverOptions| {
            crate::solve_with_stats(&m, opts).expect("planted MILP must be feasible")
        };
        let (sol, stats) = run(&opts);
        let (again, again_stats) = run(&opts);
        prop_assert!(m.max_violation(sol.values(), 1e-6) < 1e-5);
        let bits = |s: &crate::BranchBoundStats| -> Vec<u64> {
            s.node_bounds.iter().map(|x| x.to_bits()).collect()
        };
        prop_assert!(
            sol.objective.to_bits() == again.objective.to_bits()
                && (stats.nodes, stats.simplex_iters) == (again_stats.nodes, again_stats.simplex_iters)
                && bits(&stats) == bits(&again_stats),
            "repeat solve diverged: {} in {} nodes vs {} in {} nodes",
            sol.objective,
            stats.nodes,
            again.objective,
            again_stats.nodes
        );
        let (dense, dense_stats) = run(&SolverOptions {
            kernel: Kernel::DenseTableau,
            ..opts
        });
        if !stats.truncated && !dense_stats.truncated {
            prop_assert!(
                (sol.objective - dense.objective).abs() < 1e-7,
                "production {} vs dense oracle {}",
                sol.objective,
                dense.objective
            );
        }
    }

    /// **Forrest–Tomlin oracle**: random admissible pivot sequences
    /// (same planted-dominance basis family as the eta-file test) driven
    /// through `ft_update`; after every absorbed pivot the FT-updated
    /// FTRAN/BTRAN must agree within 1e-9 with a *fresh* Markowitz
    /// refactorization of the mutated basis, and with a product-form
    /// factor fed the equivalent eta.
    #[test]
    fn ft_updates_match_fresh_refactorization_and_eta_file(
        m in 1usize..9,
        entries in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), -1.0f64..1.0),
            24,
        ),
        rowp in prop::collection::vec(any::<prop::sample::Index>(), 9),
        colp in prop::collection::vec(any::<prop::sample::Index>(), 9),
        pivots in prop::collection::vec(
            (any::<prop::sample::Index>(), prop::collection::vec(-1.0f64..1.0, 9)),
            5,
        ),
        rhs_raw in prop::collection::vec(-2.0f64..2.0, 9),
        rhs_mask in prop::collection::vec(any::<bool>(), 9),
    ) {
        // Planted diagonally dominant basis, randomly permuted (see the
        // eta-file proptest above for the construction rationale).
        let mut a = vec![0.0f64; m * m];
        for (ri, ci, v) in &entries {
            a[ri.index(m) * m + ci.index(m)] = *v;
        }
        for i in 0..m {
            let off: f64 = (0..m).filter(|&j| j != i).map(|j| a[i * m + j].abs()).sum();
            a[i * m + i] = off + 1.0;
        }
        let perm = |idx: &[prop::sample::Index]| {
            let mut p: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                p.swap(i, idx[i].index(i + 1));
            }
            p
        };
        let (rp, cp) = (perm(&rowp), perm(&colp));
        let mut b = vec![0.0f64; m * m];
        for i in 0..m {
            for j in 0..m {
                b[rp[i] * m + cp[j]] = a[i * m + j];
            }
        }
        let csc = |b: &[f64]| -> Vec<Vec<(usize, f64)>> {
            (0..m)
                .map(|j| {
                    (0..m)
                        .filter(|&i| b[i * m + j] != 0.0)
                        .map(|i| (i, b[i * m + j]))
                        .collect()
                })
                .collect()
        };
        let mk = |b: &[f64], update: UpdateKind| {
            let cols = csc(b);
            Factor::refactor(
                m,
                &FactorConfig {
                    update,
                    max_etas: 1_000_000, // keep updates in play: no auto flush
                    fill_growth: 0.0,
                },
                |j, out| out.extend_from_slice(&cols[j]),
            )
            .expect("diagonally dominant basis is nonsingular")
        };
        let mut ft = mk(&b, UpdateKind::ForrestTomlin);
        let mut pf = mk(&b, UpdateKind::ProductForm);

        let rhs: Vec<f64> = (0..m)
            .map(|i| if rhs_mask[i] { rhs_raw[i] } else { 0.0 })
            .collect();
        let check = |ft: &Factor, pf: &Factor, fresh: &Factor, stage: &str| {
            for (label, other) in [("fresh refactorization", fresh), ("eta file", pf)] {
                let mut xu = rhs.clone();
                let mut xo = rhs.clone();
                ft.ftran(&mut xu);
                other.ftran(&mut xo);
                for i in 0..m {
                    assert!(
                        (xu[i] - xo[i]).abs() < 1e-9,
                        "{stage}: ftran[{i}] FT {} vs {label} {}",
                        xu[i],
                        xo[i]
                    );
                }
                let mut yu = rhs.clone();
                let mut yo = rhs.clone();
                ft.btran(&mut yu);
                other.btran(&mut yo);
                for i in 0..m {
                    assert!(
                        (yu[i] - yo[i]).abs() < 1e-9,
                        "{stage}: btran[{i}] FT {} vs {label} {}",
                        yu[i],
                        yo[i]
                    );
                }
            }
        };
        check(&ft, &pf, &mk(&b, UpdateKind::ForrestTomlin), "snapshot");

        // Random admissible pivot sequence: replace basis slot `slot`
        // with a random column whose direction has a usable pivot. The
        // FT factor absorbs the column, the product-form factor the
        // equivalent eta, and the fresh factorization sees the mutated
        // dense mirror.
        for (step, (slot, colvals)) in pivots.iter().enumerate() {
            let r = slot.index(m);
            let mut d: Vec<f64> = colvals[..m].to_vec();
            ft.ftran(&mut d);
            if d[r].abs() < 0.1 {
                continue; // replacement would make B near-singular
            }
            let col: Vec<(usize, f64)> = colvals[..m]
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect();
            prop_assert!(ft.ft_update(r, &col), "admissible update {step} refused");
            let others: Vec<(usize, f64)> = d
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() > 1e-12)
                .map(|(i, &v)| (i, v))
                .collect();
            pf.push(Eta { row: r, pivot: d[r], others });
            for i in 0..m {
                b[i * m + r] = 0.0;
            }
            for &(i, v) in &col {
                b[i * m + r] = v;
            }
            check(
                &ft,
                &pf,
                &mk(&b, UpdateKind::ForrestTomlin),
                &format!("after pivot {step}"),
            );
        }
    }

    /// The production configuration (sparse LU, Forrest–Tomlin), the
    /// same kernel forced onto the product-form update (the recovery
    /// ladder's rung-3 configuration, switched before the first solve),
    /// and the dense tableau of the `Kernel::DenseTableau` request must
    /// agree on the LP optimum of the root relaxation.
    #[test]
    fn factor_and_update_kinds_agree_on_milps(lp in planted_lp(5, 4)) {
        let relaxed = PlantedLp {
            integers: vec![false; lp.nvars],
            ..lp.clone()
        };
        let (m, _vars) = relaxed.build();
        let sf = crate::standard::StandardForm::build(&m, None);
        let objective = |v: &[f64]| -> f64 { lp.obj.iter().zip(v).map(|(c, x)| c * x).sum() };
        let solve = |update: UpdateKind| -> f64 {
            let opts = SolverOptions::default();
            let mut k = crate::revised::Revised::new(&sf, None, None);
            k.set_update_kind(update);
            let mut budget = opts.max_pivots;
            k.solve_two_phase(&mut budget).expect("planted LP must be feasible");
            objective(&sf.recover(&k.values()))
        };
        let tableau = {
            let mut budget = SolverOptions::default().max_pivots;
            let y = crate::simplex::solve(&sf, &mut budget, None)
                .expect("planted LP must be feasible");
            objective(&sf.recover(&y))
        };
        let reference = solve(UpdateKind::ForrestTomlin);
        for (label, obj) in [
            ("sparse/product form", solve(UpdateKind::ProductForm)),
            ("dense tableau", tableau),
        ] {
            prop_assert!(
                (obj - reference).abs() < 1e-6,
                "{label}: {obj} vs sparse/Forrest–Tomlin {reference}"
            );
        }
    }

    /// The production search and the `Kernel::DenseTableau` request
    /// (every node LP on the tableau), driven through the full branch &
    /// bound, must land on the same MILP optimum.
    #[test]
    fn factor_kinds_agree_on_milp_objectives(lp in planted_lp(5, 4)) {
        let (m, _vars) = lp.build();
        let base = SolverOptions { max_nodes: 2_000, ..Default::default() };
        let sparse = m.solve_with(&base).unwrap();
        let dense = m
            .solve_with(&SolverOptions { kernel: Kernel::DenseTableau, ..base.clone() })
            .unwrap();
        prop_assert!(
            (sparse.objective - dense.objective).abs() < 1e-7,
            "sparse-LU {} vs dense tableau {}",
            sparse.objective,
            dense.objective
        );
    }

    /// **Warm vs cold oracle for the dual reoptimizer**: the long-step
    /// ratio test steers by reduced costs maintained across pivots
    /// (`rc_j ← rc_j − γ·α_j`), never recomputed from the duals. A
    /// kernel warm-started by `dual_reopt` + `primal_opt` after a box
    /// tightening must agree with a fresh kernel's cold two-phase solve
    /// of the tightened LP on the optimum and on the feasibility verdict
    /// — drift in the maintained reduced costs would steer the ratio
    /// test to a dual-infeasible column and surface here as a diverging
    /// objective.
    #[test]
    fn dual_reopt_pricings_agree_after_box_tightening(
        lp in planted_lp(6, 5),
        col in any::<prop::sample::Index>(),
        frac in 0.0f64..1.0,
    ) {
        let relaxed = PlantedLp {
            integers: vec![false; lp.nvars],
            ..lp.clone()
        };
        let (m, _vars) = relaxed.build();
        let sf = crate::standard::StandardForm::build(&m, None);
        let j = col.index(lp.nvars);
        let opts = SolverOptions::default();
        let objective = |k: &crate::revised::Revised| -> f64 {
            let v = sf.recover(&k.values());
            lp.obj.iter().zip(&v).map(|(c, x)| c * x).sum()
        };
        // Variables are [0, 10] with zero lower bound, so standard-form
        // column j is variable j unshifted.
        let warm = || -> Result<f64, SolveError> {
            let mut k = crate::revised::Revised::new(&sf, None, None);
            let mut budget = opts.max_pivots;
            k.solve_two_phase(&mut budget)?;
            k.set_col_bounds(j, 0.0, 10.0 * frac);
            k.dual_reopt(&mut budget)?;
            k.primal_opt(&mut budget)?;
            Ok(objective(&k))
        };
        let cold = || -> Result<f64, SolveError> {
            let mut k = crate::revised::Revised::new(&sf, None, None);
            let mut budget = opts.max_pivots;
            k.set_col_bounds(j, 0.0, 10.0 * frac);
            k.solve_two_phase(&mut budget)?;
            Ok(objective(&k))
        };
        match (warm(), cold()) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a - b).abs() < 1e-6,
                "warm {a} vs cold {b} after tightening x{j} to [0, {}]",
                10.0 * frac
            ),
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => prop_assert!(
                false,
                "verdicts diverge: warm {a:?} vs cold {b:?}"
            ),
        }
    }

    /// **Self-healing oracle**: a fault-injected run must land on the
    /// same optimum and verdict as its clean twin on planted (feasible)
    /// MILPs, for arbitrary fault-plan seeds — the recovery ladder
    /// absorbs every injected failure and never prunes on a corrupted
    /// bound. The returned point must also stay genuinely feasible.
    #[test]
    fn faulted_solves_agree_with_clean_twins(lp in planted_lp(5, 4), seed in any::<u64>()) {
        let (m, _vars) = lp.build();
        let base = SolverOptions { max_nodes: 4_000, ..Default::default() };
        let (clean, clean_stats) =
            crate::solve_with_stats(&m, &base).expect("planted MILP must be feasible");
        let (faulted, faulted_stats) = crate::solve_with_stats(
            &m,
            &SolverOptions { faults: Some(crate::FaultPlan::seeded(seed)), ..base.clone() },
        )
        .expect("faulted twin must recover, not fail");
        prop_assert!(m.max_violation(faulted.values(), 1e-6) < 1e-5);
        if !clean_stats.truncated && !faulted_stats.truncated {
            prop_assert!(
                (clean.objective - faulted.objective).abs() < 1e-7,
                "seed {seed:#x}: clean {} vs faulted {} ({:?})",
                clean.objective,
                faulted.objective,
                faulted_stats.recovery
            );
            prop_assert_eq!(clean.status, faulted.status);
        }
    }
}

/// A random sparse model for the pivot-row check: `(variables, rows)`
/// with each row `(coefficients, sense 0/1/2 = ≤/≥/=, rhs)`. About 60%
/// of the coefficients are zero and the rest are multiples of 1/7, so
/// products and sums round.
fn sparse_model() -> impl Strategy<Value = (usize, Vec<(Vec<f64>, usize, f64)>)> {
    (2usize..=12, 1usize..=10).prop_flat_map(|(nv, nr)| {
        let coeff =
            (0u32..5, -50i32..=50).prop_map(|(k, c)| if k < 3 { 0.0 } else { f64::from(c) / 7.0 });
        let row = (
            proptest::collection::vec(coeff, nv),
            0usize..3,
            (-40i32..=40).prop_map(|k| f64::from(k) / 4.0),
        );
        proptest::collection::vec(row, nr).prop_map(move |rows| (nv, rows))
    })
}

/// `ρ` entries for the pivot-row check: signed zeros, subnormals whose
/// products underflow to signed zeros, unit entries that cancel exactly,
/// and ordinary magnitudes.
fn rho_pool() -> impl Strategy<Value = Vec<f64>> {
    let entry = (0u32..16, -1e3f64..1e3).prop_map(|(k, x)| match k {
        0..=3 => 0.0,
        4..=7 => -0.0,
        8 => 5e-324,
        9 => -5e-324,
        10 => 1.0,
        11 => -1.0,
        _ => x,
    });
    proptest::collection::vec(entry, 12)
}

/// The parent's dual ratio-test selection, kept as the reference the
/// lazy [`long_step`](crate::revised::long_step) must replay: a full
/// stable sort under the candidate order, then the same scan.
fn long_step_by_sort(
    mut cands: Vec<crate::revised::Cand>,
    violation: f64,
) -> Option<(usize, f64, Vec<usize>)> {
    use crate::model::FEAS_TOL;
    if cands.is_empty() {
        return None;
    }
    cands.sort_by(crate::revised::cand_order);
    let mut remaining = violation;
    let mut flips = Vec::new();
    let mut chosen = None;
    for (i, c) in cands.iter().enumerate() {
        if c.span.is_finite() && remaining - c.alpha * c.span > 0.0 {
            remaining -= c.alpha * c.span;
            flips.push(c.j);
        } else {
            chosen = Some(i);
            break;
        }
    }
    if chosen.is_none() && remaining <= FEAS_TOL {
        flips.pop();
        chosen = Some(cands.len() - 1);
    }
    let ci = chosen?;
    let mut pick = ci;
    for (k, c) in cands.iter().enumerate().skip(ci + 1) {
        if c.ratio >= cands[ci].ratio + 0.01 * FEAS_TOL {
            break;
        }
        if c.alpha > cands[pick].alpha {
            pick = k;
        }
    }
    Some((cands[pick].j, cands[pick].sigma, flips))
}

/// Dual ratio-test candidate sets: ratios on a few base values (exact
/// ties, `-0.0` beside `+0.0`) plus offsets inside and just outside the
/// `0.01·FEAS_TOL` = 1e-9 tie window, tied and near-tied `|α|`, finite
/// and infinite spans, and column indices in random order; and a
/// violation at a fraction of the candidates' combined finite reach
/// (exactly all of it half the time, the round-off leftover case), plus
/// a jitter around `FEAS_TOL`.
fn cand_set() -> impl Strategy<Value = (Vec<crate::revised::Cand>, f64)> {
    const RATIO: [f64; 5] = [-0.0, 0.0, 0.25, 1.0, 3.0];
    const OFFSET: [f64; 6] = [0.0, 3e-10, 9e-10, 1e-9, 1.5e-9, 1e-6];
    const ALPHA: [f64; 5] = [1e-3, 0.5, 1.0, 1.0 + 1e-12, 2.0];
    const SPAN: [f64; 5] = [0.1, 0.5, 1.0, 2.0, f64::INFINITY];
    const JITTER: [f64; 5] = [0.0, 1e-9, -1e-9, 5e-8, 2e-7];
    (0usize..24).prop_flat_map(|n| {
        let cand = (
            0usize..5,
            0usize..6,
            0usize..5,
            0usize..5,
            any::<bool>(),
            any::<u64>(),
        );
        (
            proptest::collection::vec(cand, n),
            (any::<bool>(), 0.0f64..1.5),
            0usize..5,
        )
            .prop_map(|(raw, (all, frac), jitter)| {
                // Column indices: the candidates' ranks under random keys.
                let mut order: Vec<usize> = (0..raw.len()).collect();
                order.sort_by_key(|&i| raw[i].5);
                let mut cands = vec![None; raw.len()];
                for (rank, &i) in order.iter().enumerate() {
                    let (r, o, a, s, up, _) = raw[i];
                    cands[i] = Some(crate::revised::Cand {
                        ratio: RATIO[r] + OFFSET[o],
                        j: 10 * rank,
                        sigma: if up { -1.0 } else { 1.0 },
                        alpha: ALPHA[a],
                        span: SPAN[s],
                    });
                }
                let cands: Vec<crate::revised::Cand> = cands.into_iter().flatten().collect();
                let reach: f64 = cands
                    .iter()
                    .filter(|c| c.span.is_finite())
                    .map(|c| c.alpha * c.span)
                    .sum();
                let frac = if all { 1.0 } else { frac };
                (cands, frac * reach + JITTER[jitter])
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// **Pivot-row equivalence**: the dual simplex's pivot row, computed
    /// row-wise from `ρ`'s nonzeros, equals the column-wise `ρᵀA_j` of
    /// every nonbasic column bit for bit — `ρ` carrying signed zeros
    /// and underflowing products included — and reads `+0.0` at every
    /// basic column.
    #[test]
    fn pivot_row_from_rho_nonzeros_matches_column_dots(
        (nv, rows) in sparse_model(),
        pool in rho_pool(),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..nv)
            .map(|_| m.add_continuous(0.0, 10.0))
            .collect();
        m.set_objective(vars.iter().map(|&v| LinExpr::var(v)).fold(LinExpr::new(), |a, b| a + b));
        for (coeffs, sense, rhs) in &rows {
            let mut e = LinExpr::new();
            for (&c, &v) in coeffs.iter().zip(&vars) {
                if c != 0.0 {
                    e += c * v;
                }
            }
            let op = [cmp::LE, cmp::GE, cmp::EQ][*sense];
            m.add_constraint(e, op, *rhs);
        }
        let sf = crate::standard::StandardForm::build(&m, None);
        let mut k = crate::revised::Revised::new(&sf, None, None);
        // Any basis will do: a failed solve still leaves one.
        let _ = k.solve_two_phase(&mut SolverOptions::default().max_pivots);
        let (rows_m, n) = k.dims();
        let rho: Vec<f64> = (0..rows_m).map(|r| pool[r % pool.len()]).collect();
        let alpha = k.alpha_of(&rho);
        for (j, a) in alpha.iter().enumerate().take(n) {
            let want = if k.is_basic(j) { 0.0 } else { k.col_dot(j, &rho) };
            prop_assert_eq!(a.to_bits(), want.to_bits(), "column {}: {} vs {}", j, a, want);
        }
    }

    /// **Lazy ratio-test equivalence**: popping the candidates off a
    /// heap and scanning the rest for the tie window picks the same
    /// entering column, direction and flip list as fully sorting them
    /// first, on exact ratio ties, near ties inside the window and
    /// long-step flip chains.
    #[test]
    fn lazy_long_step_matches_a_full_sort((cands, violation) in cand_set()) {
        let want = long_step_by_sort(cands.clone(), violation);
        let mut heap = cands;
        let mut flips = Vec::new();
        let got = crate::revised::long_step(&mut heap, violation, &mut flips)
            .map(|c| (c.j, c.sigma, flips));
        prop_assert_eq!(got, want);
    }
}
