//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver.
//!
//! The DAC'09 paper "Retiming and recycling for elastic systems with early
//! evaluation" solves its `MIN_CYC` / `MAX_THR` formulations with CPLEX.
//! No external solver is available to this reproduction, so this crate
//! implements the required machinery from scratch:
//!
//! * a [`Model`] builder with bounded, continuous or integer
//!   [`variables`](Model::add_var) and linear [`constraints`](Model::add_constraint),
//! * two LP kernels selected by [`SolverOptions::kernel`] (see below),
//! * a **warm-started branch & bound** search that solves every LP and
//!   integer program (see [`solve_with_stats`]),
//! * time / node limits mirroring the 20-minute CPLEX timeout used in the
//!   paper ([`SolverOptions`]).
//!
//! # Kernel architecture
//!
//! The production kernel ([`Kernel::Revised`], the default) is a
//! **bounded-variable revised simplex**:
//!
//! * the constraint matrix is stored as **sparse columns**; variable
//!   bounds live on the columns (`l ≤ y ≤ u`, nonbasic columns rest at
//!   either bound, pricing may end in a bound *flip*), so the basis
//!   dimension is the number of genuine constraint rows — roughly half
//!   of what explicit bound rows would cost on the retiming MILPs;
//! * the basis is factorized as a **sparse LU with Forrest–Tomlin
//!   updates** (`factor` module): the snapshot is a Markowitz-ordered,
//!   threshold-pivoted sparse LU assembled straight from the sparse
//!   columns (`O(nnz(L+U))` storage), each pivot updates the factors in
//!   place — spike column, one row eta, pivot permuted to the end —
//!   FTRAN / BTRAN apply triangular solves that are column-oriented
//!   with zero skipping (cost tracks the fill-in of the sparse
//!   right-hand sides, not `m²`), and the update state is flushed by
//!   refactorization when it grows long (`max(64, 2m)` updates) or heavy
//!   (fill past 8× the snapshot LU's nonzeros), or eagerly when an
//!   unstable update is refused;
//! * pricing is **one rule** (see "Pricing" below): Dantzig with an
//!   automatic **Bland fallback** after a long degenerate run in the
//!   primal phases; the largest box violation and a long-step ratio
//!   test in the dual;
//! * a **dual simplex** reoptimizer repairs primal infeasibility after
//!   bound mutations from any dual-feasible basis.
//!
//! There is one LP path: every LP runs through the branch & bound search
//! (the `search` module). A pure LP is a one-node search, and
//! [`Model::solve_relaxation`] drops integrality, so its root is a leaf;
//! either way the LP gets a node's residual trust gate, recovery ladder
//! and the solve's one deadline. The kernel request, read in that one
//! place, alone selects this configuration; neither the update scheme
//! nor warm starts are separate options. The one other engine is the
//! dense tableau of the [`Kernel::DenseTableau`] oracle request (see
//! "Cross-validation oracle" below): it shares no factorization, pricing
//! or ratio test with the revised kernel.
//!
//! # Pricing
//!
//! Nearly every node LP of the warm branch & bound is a dual
//! reoptimization of a few pivots, so the kernel has one pricing rule,
//! built for that case:
//!
//! * the **dual reoptimizer** leaves on the row with the largest box
//!   violation, among the rows whose violation is eligible relative to
//!   their own rhs/bound scale. It enters by the **long-step
//!   (bound-flipping) ratio test**: candidates whose box span the dual
//!   step exhausts flip bounds and the scan continues, so one pivot
//!   crosses many breakpoints. The pivot row `α = ρᵀA` is computed from
//!   `ρ`'s nonzeros over a row-wise copy of the matrix, and the ratio
//!   test pops its candidates off a heap lazily, so only the flipped
//!   prefix and the entering candidate are ever ordered. Reduced costs
//!   are maintained incrementally (`rc_j ← rc_j − γ·α_j`, over the
//!   columns the pivot row reaches) instead of recomputing the duals
//!   every pivot;
//! * the **primal** phases price by Dantzig (the most violated reduced
//!   cost), falling back to Bland after a long degenerate run.
//!
//! The rule was chosen on the repo benchmark (`perfbench`: the reduced
//! Table-2 sweep and one 150-edge `MAX_THR` per circuit). Against it,
//! dual steepest edge with primal Devex pricing took fewer pivots but
//! cost about 20% more per sweep node and proved nothing more, and
//! Dantzig without the long step proved one `MAX_THR` fewer at 150
//! edges (7 of 18 against 8).
//!
//! Both shortcuts replay the full computations bit for bit: the row-wise
//! product adds the same products in the same order as a column-wise
//! dot product, and the heap pops the candidates in the order a full
//! sort puts them. The Forrest–Tomlin factors keep their row etas in one
//! flat file and their nonzero count current (see the `factor` module).
//!
//! Directional pivot counters ([`BranchBoundStats::dual_pivots`] /
//! [`BranchBoundStats::primal_pivots`] /
//! [`BranchBoundStats::bound_flips`]) make the split observable.
//!
//! # Failure taxonomy and recovery ladder
//!
//! Numerical failure handling is centralized in the [`recover`] module
//! rather than scattered per call site. Every failure is classified as a
//! [`NumericalEvent`] (unstable update, singular refactor, cycling
//! suspected, residual drift, pivot/time budget) and answered by one
//! escalation ladder: retry the Forrest–Tomlin update from the entering
//! column → forced refactorization → re-solve the node under the
//! product-form update → cold basis rebuild → Bland-only
//! pricing → the node on the tableau. A residual health
//! monitor recomputes `‖B·x_B − b_eff‖∞` every few pivots and before
//! any node bound is trusted, so a corrupted factorization can never
//! produce a wrong prune. Which events occurred and which rungs fired is
//! reported in [`BranchBoundStats::recovery`] ([`RecoveryStats`]), and a
//! seeded [`FaultPlan`] ([`SolverOptions::faults`], default off) can
//! inject each failure class deterministically — the fault-injection
//! tests assert that injected runs prove the same optima as their clean
//! twins. One wall-clock deadline is captured at solve
//! start and every ladder rebuild inherits it, so
//! [`SolverOptions::time_limit`] bounds the whole solve.
//!
//! # Branch & bound
//!
//! [`solve_with_stats`] runs one depth-first branch & bound loop on the
//! calling thread. It builds the LP once, mutates integer-column boxes
//! in place as it branches, and dual-reoptimizes each node from the
//! basis the previous node left behind: bound changes never disturb
//! reduced costs, so any optimal basis in the tree is dual feasible for
//! every node. The `search` module documents the whole design: the
//! branch tree, the node order, the warm-start fallbacks, pseudo-cost
//! branching with reliability probes, and the gap test and dual bound.
//!
//! # Cross-validation oracle
//!
//! The original dense full-tableau two-phase simplex is the crate's one
//! **cross-validation oracle** ([`Kernel::DenseTableau`]): an
//! independent implementation whose objectives and feasibility verdicts
//! the property tests and the search gate compare against on random
//! LPs/MILPs, the baseline the `milp_scaling` bench holds the revised
//! kernel's speedup against, and rung 6 of the per-node recovery ladder.
//! Every LP of an oracle solve runs on it, through the same depth-first
//! search: every node (a pure LP is a one-node search) and the hint's
//! pinned LP solve cold on the tableau over the node's boxes. Its
//! incumbents are therefore tableau solutions, and no revised kernel or
//! basis factorization solves anything under the oracle request.
//!
//! Numerics are deliberately tolerance-based (no exact arithmetic): the
//! retiming/recycling MILPs have at most a few thousand rows and very
//! well-conditioned {-1, 0, 1, τ*} coefficient structure.
//!
//! # Example
//!
//! ```
//! use rr_milp::{Model, Sense, cmp};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2.5, x,y >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(0.0, 2.5, false);
//! let y = m.add_var(0.0, f64::INFINITY, false);
//! m.set_objective(3.0 * x + 2.0 * y);
//! m.add_constraint(x + y, cmp::LE, 4.0);
//! let sol = m.solve()?;
//! assert!((sol.objective - 10.5).abs() < 1e-6);
//! assert!((sol[x] - 2.5).abs() < 1e-6);
//! # Ok::<(), rr_milp::SolveError>(())
//! ```

mod branch_bound;
mod expr;
mod factor;
mod model;
pub mod recover;
mod revised;
mod search;
mod simplex;
mod solution;
mod standard;

pub use branch_bound::{solve_with_stats, solve_with_stats_hinted, BranchBoundStats};
pub use expr::{LinExpr, VarId};
pub use model::{cmp, CmpOp, Kernel, Model, Sense, SolverOptions};
pub use recover::{FaultPlan, NumericalEvent, RecoveryStats};
pub use solution::{Solution, SolveError, Status};

#[cfg(test)]
mod proptests;
