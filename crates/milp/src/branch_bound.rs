//! The branch & bound entry points and their statistics. The search
//! itself, one depth-first loop over the warm revised kernel, lives in
//! the `search` module, whose docs describe its architecture.

use crate::expr::VarId;
use crate::model::{Model, SolverOptions};
use crate::recover::RecoveryStats;
use crate::solution::{Solution, SolveError};

/// Search statistics of the last branch-and-bound run (diagnostics and
/// perf telemetry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchBoundStats {
    /// LP relaxations solved (nodes explored).
    pub nodes: usize,
    /// True when a limit (nodes or time) stopped the search.
    pub truncated: bool,
    /// Objective of the root LP relaxation (`NaN` when the root LP
    /// failed or was never solved).
    pub root_bound: f64,
    /// Total simplex pivots across every LP the search solved (node
    /// relaxations, warm reoptimizations, strong-branch probes, the hint
    /// re-solve), tableau pivots included.
    pub simplex_iters: usize,
    /// Node LPs successfully reoptimized from the parent basis.
    pub warm_solves: usize,
    /// Node LPs solved two-phase from scratch (root, fallbacks, and all
    /// nodes under the
    /// [`Kernel::DenseTableau`](crate::Kernel::DenseTableau) oracle
    /// request, which solves them on the tableau).
    pub cold_solves: usize,
    /// Basis refactorizations across the whole search (0 under the
    /// oracle request, whose LPs factor no basis).
    pub refactors: usize,
    /// Successful Forrest–Tomlin factor updates (0 under the oracle
    /// request).
    pub ft_updates: usize,
    /// Refactorizations forced by a refused (unstable) Forrest–Tomlin
    /// update rather than the scheduled length/fill policy.
    pub forced_refactors: usize,
    /// Largest `nnz(L+U)` any basis snapshot reached — the actual fill of
    /// the sparse LU (0 under the oracle request).
    pub peak_lu_nnz: usize,
    /// Basis dimension (constraint rows) of the bounded-variable form:
    /// 0 when every constraint folded to a constant.
    pub basis_rows: usize,
    /// `(node index, objective)` at every incumbent acceptance, in
    /// order — the improvement trajectory of the search. Node index 0
    /// is the warm-start hint, accepted before any node was solved.
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
    /// artificial drive-out swaps and every tableau pivot.
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

/// [`solve_with_stats`] with a warm-start hint for the integer variables:
/// the hinted integers are pinned and the rest re-solved to form the
/// first incumbent (nothing when that LP is infeasible). Pairs for
/// non-integer variables are ignored.
///
/// # Errors
///
/// See [`solve_with_stats`].
pub fn solve_with_stats_hinted(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
) -> Result<(Solution, BranchBoundStats), SolveError> {
    crate::search::search(model, opts, hint, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{cmp, Kernel, Model, Sense};
    use crate::solution::Status;
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
        // Every solved node logged a bound, and the incumbent trace ends
        // at the returned objective.
        assert_eq!(stats.node_bounds.len(), stats.nodes);
        let (last_node, last_obj) = *stats.incumbent_trace.last().unwrap();
        assert!(last_node <= stats.nodes);
        assert!((last_obj - sol.objective).abs() < 1e-9);
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
    /// request (cold tableau nodes) agree on [`multi_row_knapsack`], and
    /// warm starts engage and save pivots.
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

    /// The production search and the dense-tableau request (every node
    /// LP solved on the tableau) complete on [`multi_row_knapsack`] and
    /// agree.
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
    /// solves through the ordinary search under both kernels, integer
    /// boxes respected, and its LP relaxation solves too. The name dates
    /// from the closed-form shortcut such models used to take.
    #[test]
    fn rowless_models_solve_in_closed_form() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", -4.6, 9.0);
        let y = m.add_integer("y", 1.2, 7.8);
        let z = m.add_continuous("z", 2.0, 5.0);
        m.set_objective(1.0 * x - 2.0 * y + 0.5 * z);
        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let opts = SolverOptions {
                kernel,
                ..Default::default()
            };
            let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kernel:?}");
            assert_eq!(sol.int_value(x), -4, "{kernel:?}");
            assert_eq!(sol.int_value(y), 7, "{kernel:?}");
            assert!((sol[z] - 2.0).abs() < 1e-9, "{kernel:?}");
            assert!((sol.objective + 17.0).abs() < 1e-9, "{kernel:?}");
            assert_eq!(stats.basis_rows, 0, "{kernel:?}");
            let relax = m.solve_relaxation(&opts).unwrap();
            assert!((relax.objective + 19.2).abs() < 1e-9, "{kernel:?}");
        }

        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            let opts = SolverOptions {
                kernel,
                ..Default::default()
            };
            // An integer fixed at a fraction has no lattice point.
            let mut m = Model::new(Sense::Minimize);
            let w = m.add_integer("w", 2.5, 2.5);
            m.set_objective(LinExpr::var(w));
            assert_eq!(m.solve_with(&opts).unwrap_err(), SolveError::Infeasible);

            // A favorable unbounded direction is reported as such, by
            // the search and by the relaxation.
            let mut m = Model::new(Sense::Maximize);
            let f = m.add_var("f", f64::NEG_INFINITY, f64::INFINITY, true);
            m.set_objective(LinExpr::var(f));
            assert_eq!(m.solve_with(&opts).unwrap_err(), SolveError::Unbounded);
            assert_eq!(
                m.solve_relaxation(&opts).unwrap_err(),
                SolveError::Unbounded
            );
        }
    }
}
