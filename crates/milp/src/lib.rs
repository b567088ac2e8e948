//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver.
//!
//! The DAC'09 paper "Retiming and recycling for elastic systems with early
//! evaluation" solves its `MIN_CYC` / `MAX_THR` formulations with CPLEX.
//! No external solver is available to this reproduction, so this crate
//! implements the required machinery from scratch:
//!
//! * a [`Model`] builder with named, bounded, continuous or integer
//!   [`variables`](Model::add_var) and linear [`constraints`](Model::add_constraint),
//! * two LP kernels selected by [`SolverOptions::kernel`] (see below),
//! * a **warm-started branch & bound** search for integer programs (see
//!   [`solve_with_stats`]),
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
//! Branch & bound exploits that last point aggressively (**warm-start
//! policy**): bound changes never disturb reduced costs, so any
//! optimal basis anywhere in the tree is dual feasible for every node.
//! The search therefore builds the LP once, mutates integer-column boxes
//! in place as it branches, and dual-reoptimizes each node from whatever
//! basis the previous node left behind — typically a handful of pivots
//! and no refactorization. Warm-start misses fall back to a parent-basis
//! install, then a cold two-phase solve.
//!
//! The kernel request alone selects this configuration. The
//! [`Kernel::DenseTableau`] oracle request runs the same search with the
//! old dense LU, the product-form eta file and every node solved cold;
//! neither the factorization, the update scheme nor warm starts are
//! separate options.
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
//!   crosses many breakpoints. Reduced costs are maintained
//!   incrementally (`rc_j ← rc_j − γ·α_j`, from the ratio test's own
//!   column pass) instead of recomputing the duals every pivot;
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
//! pricing → dense-oracle kernel for that node. A residual health
//! monitor recomputes `‖B·x_B − b_eff‖∞` every few pivots and before
//! any node bound is trusted, so a corrupted factorization can never
//! produce a wrong prune. Which events occurred and which rungs fired is
//! reported in [`BranchBoundStats::recovery`] ([`RecoveryStats`]), and a
//! seeded [`FaultPlan`] ([`SolverOptions::faults`], default off) can
//! inject each failure class deterministically — the fault-injection
//! test and bench gates assert that injected runs prove the same optima
//! as their clean twins. One wall-clock deadline is captured at solve
//! start and every ladder rebuild inherits it, so
//! [`SolverOptions::time_limit`] bounds the whole solve.
//!
//! The search itself is one depth-first loop over **one LP backend**
//! — the warm revised kernel — popping one stack of open nodes, the
//! nearer branching side first, with the parent basis handed to every
//! open node so a backtrack still warm-starts. Depth-first is the only
//! order: on the repo benchmark a best-estimate queue never proved more
//! than it.
//! Incumbents come from integral node relaxations and from the caller's
//! warm-start hint. Every integer variable
//! shape branches natively: a node box on a shifted, mirrored
//! (upper-bounded, lower −∞), or fully free (split-pair) integer
//! translates to in-place column-bound updates on the bounded-variable
//! form, so warm starts and pseudo-costs survive across nodes for every
//! model; see the `branch_bound` module docs.
//!
//! # Branching and node scoring
//!
//! The search has one branching rule, **pseudo-cost branching with
//! reliability probes**. It maintains per-variable, per-direction
//! pseudo-costs — running means of the observed LP bound degradation
//! per unit of fractionality — learned from every expanded child. Until
//! a variable's history is *reliable* (4 observations per direction),
//! the most fractional unreliable candidates of the highest
//! [`priority`](Model::set_priority) class are **strong-branched**: both
//! children get a dual-simplex probe of at most 100 pivots (at most 8
//! candidates per node) and the observed degradations seed the table. The candidate maximizing
//! the product score `max(down·f⁻, ε) · max(up·f⁺, ε)` is branched (ties
//! toward higher fractionality, then the lower [`VarId`]); a probe that
//! proves a child infeasible biases selection toward the variable but
//! never prunes, so an unverified probe cannot break correctness.
//!
//! The gap test runs whenever an incumbent improves, against the
//! **minimum bound over the open stack**, i.e. over every unexplored
//! node, so a leaf of the first dive can already end the search. The
//! reported [`BranchBoundStats::dual_bound`] joins that minimum with the
//! incumbent and with the bounds of nodes dropped after an LP failure,
//! so it stays valid when the recovery ladder gives up on a node.
//!
//! # Concurrency model
//!
//! A solve runs on the calling thread: the `search` module owns the one
//! kernel, the branch tree, the open-node stack and the incumbent, and
//! the crate holds no lock, atomic or thread, so a seed and a node cap
//! replay the same trajectory bit for bit. Parallelism lives one level
//! up, in `rr_bench::parallel_map`, which runs one circuit per core.
//!
//! # Cross-validation oracle
//!
//! The original dense full-tableau two-phase simplex is retained as a
//! **kernel-level cross-validation oracle** ([`Kernel::DenseTableau`]):
//! an independent implementation whose objectives and feasibility
//! verdicts the property tests compare against on random LPs/MILPs, the
//! baseline the `milp_scaling` bench holds the revised kernel's speedup
//! against, and rung 6 of the per-node recovery ladder. It
//! is no longer a separate search backend: a MILP solved under
//! [`Kernel::DenseTableau`] runs the unified warm search in the oracle
//! configuration and then re-solves the incumbent's pinned integer
//! assignment on the genuine tableau, failing loudly on disagreement.
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
//! let x = m.add_var("x", 0.0, 2.5, false);
//! let y = m.add_var("y", 0.0, f64::INFINITY, false);
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
pub use model::{cmp, CmpOp, Constraint, Kernel, Model, Sense, SolverOptions, Variable};
pub use recover::{FaultPlan, NumericalEvent, RecoveryStats};
pub use solution::{Solution, SolveError, Status};

#[cfg(test)]
mod proptests;
