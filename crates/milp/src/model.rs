//! Model builder: variables, constraints, objective, solver entry points.

use std::fmt;
use std::time::Duration;

use crate::branch_bound;
use crate::expr::{LinExpr, VarId};
use crate::solution::{Solution, SolveError};

/// Optimization direction of the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
        })
    }
}

/// Short aliases so constraint sites read close to the paper's notation.
pub mod cmp {
    pub use super::CmpOp;
    /// `expr <= rhs`
    pub const LE: CmpOp = CmpOp::Le;
    /// `expr >= rhs`
    pub const GE: CmpOp = CmpOp::Ge;
    /// `expr == rhs`
    pub const EQ: CmpOp = CmpOp::Eq;
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) integer: bool,
    pub(crate) priority: i32,
}

impl Variable {
    /// Variable name as given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Lower bound (may be `-inf`).
    pub fn lower(&self) -> f64 {
        self.lower
    }
    /// Upper bound (may be `+inf`).
    pub fn upper(&self) -> f64 {
        self.upper
    }
    /// Whether the variable is required to be integral.
    pub fn is_integer(&self) -> bool {
        self.integer
    }
    /// Branching priority (higher branches first; default 0).
    pub fn priority(&self) -> i32 {
        self.priority
    }
}

/// A linear constraint `expr op rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) op: CmpOp,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// Left-hand-side expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }
    /// Comparison operator.
    pub fn op(&self) -> CmpOp {
        self.op
    }
    /// Right-hand-side constant.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Signed violation of the constraint under `values` (0 if satisfied).
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.expr.eval(values);
        match self.op {
            CmpOp::Le => (lhs - self.rhs).max(0.0),
            CmpOp::Ge => (self.rhs - lhs).max(0.0),
            CmpOp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// Which simplex kernel solves the LP relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Revised simplex: sparse columns, a sparse LU basis kept current by
    /// Forrest–Tomlin updates, dual-simplex warm starts in branch &
    /// bound. The production kernel.
    #[default]
    Revised,
    /// The dense full-tableau two-phase simplex, the cross-validation
    /// oracle (and the A/B baseline of the `milp_scaling` bench). It
    /// shares no factorization, pricing or ratio test with the revised
    /// kernel, and every LP of an oracle solve runs on it through the
    /// same depth-first search: every node (a pure LP is a one-node
    /// search) and the hint's pinned LP solve cold on the tableau over
    /// the node's boxes. No strong-branch probe runs, and no node is
    /// dual-reoptimized.
    DenseTableau,
}

/// Absolute integrality tolerance.
pub(crate) const INT_TOL: f64 = 1e-6;

/// Feasibility tolerance of the simplex: how large a reduced-cost or
/// bound violation must be to count as real. Also scales the ratio
/// test's tie-break windows (ties within `0.01·FEAS_TOL` of the minimum
/// ratio are broken toward the larger pivot).
pub(crate) const FEAS_TOL: f64 = 1e-7;

/// Minimum pivot magnitude the simplex accepts: ratio-test rows and
/// dual entering columns whose pivot element is at most this size are
/// skipped as numerically unusable.
pub(crate) const PIVOT_TOL: f64 = 1e-9;

/// Resource limits for the solver.
///
/// The defaults match what the reproduction harness needs; the paper used a
/// 20-minute CPLEX timeout, which callers can mirror with
/// [`SolverOptions::time_limit`]. The tolerances (`INT_TOL`, `FEAS_TOL`,
/// `PIVOT_TOL` above), the branching policy (`search`) and the
/// refactor policy (`factor`) are constants, not options.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum branch-and-bound nodes before returning the incumbent.
    pub max_nodes: usize,
    /// Wall-clock limit for the whole solve (LP phases included).
    pub time_limit: Option<Duration>,
    /// Maximum simplex iterations per LP solve.
    pub max_pivots: usize,
    /// Stop as soon as an incumbent is within `gap_tol` (relative) of the
    /// best LP bound.
    pub gap_tol: f64,
    /// LP kernel selection (see [`Kernel`]). It alone selects the
    /// engine: the revised kernel with warm nodes, or the tableau for
    /// every LP.
    pub kernel: Kernel,
    /// Deterministic fault-injection plan (see
    /// [`FaultPlan`](crate::FaultPlan) and the `recover` module docs).
    /// `None` — the default — injects nothing; the recovery ladder and
    /// residual health monitor stay armed either way.
    pub faults: Option<crate::FaultPlan>,
    /// Inert: the search never reads it, and every solve runs on the
    /// calling thread (see the crate-level "Concurrency model" docs).
    /// [`SolverOptions::resolve`] maps any value other than `1` to `1`.
    /// The field stays only because the `perfbench` reports print it
    /// and hash the options' `Debug` text; it goes in the next change
    /// to the benchmark.
    pub workers: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_nodes: 20_000,
            time_limit: None,
            // Degenerate phase-1 bases of the retiming MILPs can stall
            // the Dantzig/Bland alternation for a long time; give each LP
            // a generous pivot budget (pivots are cheap, restarts are
            // not).
            max_pivots: 2_000_000,
            gap_tol: 1e-9,
            kernel: Kernel::Revised,
            faults: None,
            workers: 1,
        }
    }
}

impl SolverOptions {
    /// The options as the engine runs them, plus one note per changed
    /// field: any `workers` other than `1` becomes `1`, because every
    /// solve runs on the calling thread. The solver itself never calls
    /// this; it stays, with [`SolverOptions::workers`], only because the
    /// `perfbench` reports print the resolved options.
    pub fn resolve(&self) -> (SolverOptions, Vec<String>) {
        let mut eff = self.clone();
        let mut notes = Vec::new();
        if eff.workers != 1 {
            notes.push(format!(
                "workers: {} -> 1 (every solve runs on the calling thread)",
                eff.workers
            ));
            eff.workers = 1;
        }
        (eff, notes)
    }
}

/// A mixed-integer linear program.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) objective: LinExpr,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            objective: LinExpr::new(),
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// `lower`/`upper` may be infinite. `integer` requests integrality
    /// (enforced by branch & bound in [`Model::solve`]).
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        integer: bool,
    ) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            lower,
            upper,
            integer,
            priority: 0,
        });
        id
    }

    /// Sets the branching priority of a variable (higher branches first).
    pub fn set_priority(&mut self, v: VarId, priority: i32) {
        self.vars[v.0].priority = priority;
    }

    /// Adds a continuous variable (shorthand for [`Model::add_var`]).
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, lower, upper, false)
    }

    /// Adds an integer variable (shorthand for [`Model::add_var`]).
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, lower, upper, true)
    }

    /// Adds a free continuous variable (`-inf, +inf`).
    pub fn add_free(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, false)
    }

    /// Sets the objective expression (its constant part is carried through
    /// to [`Solution::objective`]).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        let mut e = expr.into();
        e.compact();
        self.objective = e;
    }

    /// Adds the constraint `expr op rhs` and returns its row index.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: CmpOp, rhs: f64) -> usize {
        let mut e = expr.into();
        // Fold the expression constant into the right-hand side so the
        // standard-form conversion only sees homogeneous rows.
        let rhs = rhs - e.constant_part();
        e.constant = 0.0;
        e.compact();
        debug_assert!(
            e.iter().all(|(v, _)| v.index() < self.vars.len()),
            "constraint references a variable from another model"
        );
        self.constraints.push(Constraint { expr: e, op, rhs });
        self.constraints.len() - 1
    }

    /// Fixes a variable to a value by tightening both bounds.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn fix_var(&mut self, v: VarId, value: f64) {
        let var = &mut self.vars[v.0];
        var.lower = value;
        var.upper = value;
    }

    /// Variable metadata.
    pub fn var(&self, v: VarId) -> &Variable {
        &self.vars[v.0]
    }

    /// Iterates over all variables with their ids.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.vars.iter().enumerate().map(|(i, v)| (VarId(i), v))
    }

    /// Iterates over the constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Checks a candidate assignment against bounds, constraints and
    /// integrality, returning the largest violation found.
    pub fn max_violation(&self, values: &[f64], int_tol: f64) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, var) in self.vars.iter().enumerate() {
            worst = worst.max(var.lower - values[i]).max(values[i] - var.upper);
            if var.integer {
                worst = worst.max((values[i] - values[i].round()).abs() - int_tol);
            }
        }
        for c in &self.constraints {
            worst = worst.max(c.violation(values));
        }
        worst
    }

    /// `true` when `values` holds a non-finite entry or violates some
    /// row by more than `tol` times that row's magnitude: the largest of
    /// 1, its rhs, its constant and each of its `|coeff · value|` terms.
    pub(crate) fn rows_violated(&self, values: &[f64], tol: f64) -> bool {
        values.iter().any(|v| !v.is_finite())
            || self.constraints.iter().any(|c| {
                let scale = c.expr.terms.iter().fold(
                    c.rhs.abs().max(c.expr.constant.abs()).max(1.0),
                    |s, &(v, a)| s.max((a * values[v.index()]).abs()),
                );
                c.violation(values) > tol * scale
            })
    }

    /// Solves the model with default [`SolverOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] / [`SolveError::Unbounded`] for
    /// the corresponding model pathologies and
    /// [`SolveError::IterationLimit`] if the pivot budget is exhausted
    /// without a usable answer.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the model with explicit options, through the branch & bound
    /// search of [`crate::solve_with_stats`]; a pure LP is a one-node
    /// search, with the two consequences [`Model::solve_relaxation`]
    /// lists. The solution has status [`Optimal`](crate::Status::Optimal)
    /// when the search completed or closed the gap and
    /// [`Feasible`](crate::Status::Feasible) when a limit stopped it with
    /// an incumbent.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, opts: &SolverOptions) -> Result<Solution, SolveError> {
        branch_bound::solve_with_stats(self, opts).map(|(sol, _)| sol)
    }

    /// Solves the LP relaxation (integrality dropped) through the same
    /// search, whose root is then a leaf, so the LP gets a node's
    /// residual trust gate, recovery ladder and the solve's one deadline.
    /// Two consequences, shared by a pure LP under [`Model::solve_with`]:
    /// the LP counts as one node against [`SolverOptions::max_nodes`],
    /// and an LP that fails on every rung loses its root, so it reports
    /// [`SolveError::IterationLimit`] whatever the first failure was.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_relaxation(&self, opts: &SolverOptions) -> Result<Solution, SolveError> {
        crate::search::search(self, opts, &[], true).map(|(sol, _)| sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0, 10.0);
        m.set_objective(LinExpr::var(x) + 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        // x + 3 <= 5  →  x <= 2
        m.add_constraint(LinExpr::var(x) + 3.0, cmp::LE, 5.0);
        let sol = m.solve().unwrap();
        assert!((sol[x] - 2.0).abs() < 1e-7);
    }

    /// `SolverOptions::resolve` maps any `workers` other than 1 to 1
    /// with one note, under both kernels, and passes a default request
    /// through untouched.
    #[test]
    fn resolve_normalizes_unsupported_combinations_loudly() {
        let (eff, notes) = SolverOptions::default().resolve();
        assert!(notes.is_empty(), "defaults must pass through: {notes:?}");
        assert_eq!(eff.workers, 1);

        for kernel in [Kernel::Revised, Kernel::DenseTableau] {
            for workers in [0, 2, 4] {
                let (eff, notes) = SolverOptions {
                    kernel,
                    workers,
                    ..Default::default()
                }
                .resolve();
                assert_eq!(eff.kernel, kernel);
                assert_eq!(eff.workers, 1, "{kernel:?}/workers={workers}");
                assert_eq!(notes.len(), 1, "{notes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn rejects_crossed_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, false);
    }

    #[test]
    fn max_violation_detects_bound_and_row_violations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer("x", 0.0, 4.0);
        m.add_constraint(2.0 * x, cmp::LE, 3.0);
        // x = 2.5 violates integrality (0.5) and the row (2.0).
        let viol = m.max_violation(&[2.5], 1e-6);
        assert!(viol > 1.9, "violation was {viol}");
    }

    #[test]
    fn rows_violated_scales_with_the_row() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1e6);
        m.add_constraint(1.0 * x, cmp::LE, 1e5);
        // 1e-3 over a 1e5 row is round-off at a 1e-4 relative tolerance;
        // 1e2 over it, or a NaN, is not.
        assert!(!m.rows_violated(&[1e5 + 1e-3], 1e-4));
        assert!(m.rows_violated(&[1e5 + 1e2], 1e-4));
        assert!(m.rows_violated(&[f64::NAN], 1e-4));
    }

    #[test]
    fn fix_var_pins_value() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective(LinExpr::var(x));
        m.fix_var(x, 3.5);
        let sol = m.solve().unwrap();
        assert!((sol[x] - 3.5).abs() < 1e-7);
    }
}
