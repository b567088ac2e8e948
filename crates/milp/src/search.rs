//! The branch & bound search loop: one depth-first loop on the calling
//! thread over one warm revised backend. Every solve runs here.
//!
//! [`Search`] owns everything the loop touches: the [`WarmBackend`]
//! (kernel, sparse factors, fault injector, recovery ladder), the
//! branch-tree arena, one LIFO stack of [`OpenNode`]s, the incumbent and
//! the stats. Each iteration pops a node, discards it unsolved if its
//! bound cannot beat the incumbent, checks the budget (node cap, then
//! the deadline), walks the kernel's boxes from the previously solved
//! node to this one (undo to the lowest common ancestor, re-apply
//! down), solves the node LP, and either accepts an integral leaf or
//! pushes the two children, the nearer side on top so it is popped
//! first.
//!
//! Bounds: the gap test runs whenever an incumbent improves, against
//! the minimum bound over the open stack, i.e. over every unexplored
//! node. A node whose LP fails through the whole recovery ladder is
//! dropped and the run marked truncated; its bound is kept, so the
//! reported dual bound still covers its subtree.
//!
//! Every model runs here — shifted, mirrored, and free (split-pair)
//! integers all branch through the same in-place column-box updates.

use std::rc::Rc;
use std::time::Instant;

use crate::branch_bound::{
    branch_children, finish, min_bound, select_branch_var, BranchBoundStats, OpenNode, PseudoCosts,
    TreeNode, WarmBackend,
};
use crate::expr::VarId;
use crate::model::{Model, Sense, SolverOptions, INT_TOL};
use crate::revised::{BasisState, Revised};
use crate::solution::{Solution, SolveError};
use crate::standard::{BoxedForm, ColMap};

/// The whole search state of one solve.
struct Search<'m> {
    model: &'m Model,
    opts: &'m SolverOptions,
    int_vars: Vec<VarId>,
    sense_mul: f64,
    backend: WarmBackend<'m>,
    pseudo: PseudoCosts,
    /// The branch tree. Append-only, so arena indices are stable.
    arena: Vec<TreeNode>,
    /// Open nodes, popped last-in first-out (depth-first).
    stack: Vec<OpenNode>,
    /// Variable boxes of the node the kernel currently has applied.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Arena index of the node whose boxes the kernel has applied.
    cur: usize,
    best: Option<Solution>,
    /// Minimum signed bound over the nodes dropped because their LP
    /// failed (`+∞` when none was).
    lost: f64,
    /// Set when an incumbent closes the gap; the loop stops at its next
    /// pop.
    gap_closed: bool,
    stats: BranchBoundStats,
}

impl Search<'_> {
    fn signed(&self, obj: f64) -> f64 {
        self.sense_mul * obj
    }

    /// The signed incumbent objective (`+∞` without an incumbent).
    fn cutoff(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |b| self.signed(b.objective))
    }

    /// Offers `candidate` as an incumbent (must be integral to win). An
    /// improvement is traced at `node_idx` and runs the gap test.
    fn accept(&mut self, candidate: Solution, node_idx: usize) {
        let integral = self.int_vars.iter().all(|&v| {
            let x = candidate.value(v);
            (x - x.round()).abs() <= INT_TOL
        });
        if !integral || self.signed(candidate.objective) >= self.cutoff() - 1e-9 {
            return;
        }
        if self.stats.incumbents == 0 {
            self.stats.first_incumbent_node = node_idx;
        }
        self.stats.incumbents += 1;
        self.stats
            .incumbent_trace
            .push((node_idx, candidate.objective));
        let inc = self.signed(candidate.objective);
        self.best = Some(candidate);
        self.gap_closed = inc - min_bound(&self.stack) <= self.opts.gap_tol * inc.abs().max(1.0);
    }

    /// Pushes the children of the expanded node `t` onto the stack,
    /// nearer side on top.
    fn expand(
        &mut self,
        t: usize,
        (var, val): (VarId, f64),
        bound: f64,
        basis: Option<Rc<BasisState>>,
    ) {
        let vi = var.index();
        let depth = self.arena[t].depth + 1;
        let children = branch_children(t, depth, vi, val, self.lo[vi], self.hi[vi], bound);
        for child in children.into_iter().flatten() {
            self.stack.push(OpenNode {
                node: self.arena.len(),
                bound: self.signed(bound),
                basis: basis.clone(),
            });
            self.arena.push(child);
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.stack.len());
    }

    /// Runs the loop until the stack empties, the gap closes or the
    /// budget is spent, then reports the incumbent and the stats.
    fn run(mut self) -> Result<(Solution, BranchBoundStats), SolveError> {
        let mut ops: Vec<(usize, f64, f64)> = Vec::new();
        while let Some(open) = self.stack.pop() {
            if open.bound >= self.cutoff() - 1e-9 {
                continue; // cannot beat the incumbent: discarded unsolved
            }
            if self.gap_closed {
                self.stack.push(open);
                break;
            }
            if self.stats.nodes >= self.opts.max_nodes || self.backend.kernel.out_of_time() {
                self.stats.truncated = true;
                self.stack.push(open);
                break;
            }
            self.stats.nodes += 1;
            self.stats.node_bounds.push(f64::NAN);
            let node_idx = self.stats.nodes - 1;
            ops.clear();
            let depth = path_ops(&self.arena, self.cur, open.node, &mut ops);
            for &(vi, lo, hi) in &ops {
                self.lo[vi] = lo;
                self.hi[vi] = hi;
                self.backend.set_var_box(vi, lo, hi);
            }
            self.cur = open.node;
            let basis = open.basis.as_deref();
            let relax = match self.backend.solve_node(self.opts, basis, &mut self.stats) {
                Ok(sol) => sol,
                Err(SolveError::Infeasible) => continue, // bound slot stays NaN
                Err(SolveError::IterationLimit) | Err(SolveError::Numerical(_)) => {
                    // No usable bound for this subtree: drop it, keep its
                    // parent's bound for the dual bound, mark the run
                    // truncated.
                    self.stats.truncated = true;
                    self.lost = self.lost.min(open.bound);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let pruned = self.signed(relax.objective) >= self.cutoff() - 1e-9;
            // Children warm-start from this node's optimal basis —
            // snapshot before strong-branch probes perturb the kernel.
            let (my_basis, branch) = if pruned {
                (None, None)
            } else {
                let my_basis = self.backend.snapshot(self.opts).map(Rc::new);
                let branch = select_branch_var(
                    &mut self.backend,
                    self.model,
                    self.opts,
                    &self.int_vars,
                    &relax,
                    &self.lo,
                    &self.hi,
                    self.sense_mul,
                    &mut self.pseudo,
                    &mut self.stats,
                );
                (my_basis, branch)
            };
            self.stats.node_bounds[node_idx] = relax.objective;
            if depth == 0 {
                self.stats.root_bound = relax.objective;
            }
            // Pseudo-cost observation: this node's bound degradation
            // against its parent per unit of branch fractionality.
            let nd = &self.arena[open.node];
            if nd.vi != usize::MAX && nd.frac > INT_TOL && nd.parent_obj.is_finite() {
                let degrade = (self.signed(relax.objective) - self.signed(nd.parent_obj)).max(0.0);
                self.pseudo.record(nd.vi, nd.up, degrade / nd.frac);
                self.stats.pseudo_updates += 1;
            }
            match branch {
                Some(bv) => self.expand(open.node, bv, relax.objective, my_basis),
                // Integral leaf: the relaxation point is the optimal
                // incumbent for this box.
                None if !pruned => self.accept(relax, node_idx + 1),
                None => {}
            }
        }
        self.backend.finish(&mut self.stats);
        // Proven dual bound: the unexplored nodes, the dropped ones and
        // the incumbent. A completed search has neither open nor dropped
        // nodes, so the bound collapses to the incumbent objective; a
        // lost or unsolved root leaves it at the signed infinity.
        let bound = min_bound(&self.stack).min(self.lost).min(self.cutoff());
        self.stats.dual_bound = self.sense_mul * bound;
        finish(self.best, self.stats)
    }
}

/// The branch-tree walk: collects the box mutations that move the
/// kernel from node `from` to node `t` into `ops` (in application
/// order: undo up to the lowest common ancestor, then re-apply down)
/// and returns `t`'s depth.
fn path_ops(arena: &[TreeNode], from: usize, t: usize, ops: &mut Vec<(usize, f64, f64)>) -> usize {
    let mut a = from;
    let mut b = t;
    let mut down: Vec<usize> = Vec::new();
    while arena[a].depth > arena[b].depth {
        ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
        a = arena[a].parent;
    }
    while arena[b].depth > arena[a].depth {
        down.push(b);
        b = arena[b].parent;
    }
    while a != b {
        ops.push((arena[a].vi, arena[a].parent_lo, arena[a].parent_hi));
        a = arena[a].parent;
        down.push(b);
        b = arena[b].parent;
    }
    for &n in down.iter().rev() {
        ops.push((arena[n].vi, arena[n].lo, arena[n].hi));
    }
    arena[t].depth
}

/// The search entry point from
/// [`crate::branch_bound::solve_with_stats_hinted`]: every branch & bound
/// solve.
pub(crate) fn search(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
    form: BoxedForm,
    int_maps: Vec<Option<ColMap>>,
    deadline: Option<Instant>,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let mut kernel = Revised::new(&form, opts);
    kernel.set_deadline(deadline);
    let mut s = Search {
        model,
        opts,
        int_vars: model
            .vars()
            .filter(|(_, v)| v.is_integer())
            .map(|(id, _)| id)
            .collect(),
        sense_mul: match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        },
        backend: WarmBackend {
            model,
            form,
            int_maps,
            kernel,
        },
        pseudo: PseudoCosts::new(model.vars.len()),
        arena: vec![TreeNode::root()],
        stack: vec![OpenNode {
            node: 0,
            bound: f64::NEG_INFINITY,
            basis: None,
        }],
        lo: model.vars.iter().map(|v| v.lower).collect(),
        hi: model.vars.iter().map(|v| v.upper).collect(),
        cur: 0,
        best: None,
        lost: f64::INFINITY,
        gap_closed: false,
        stats: BranchBoundStats {
            root_bound: f64::NAN,
            queue_peak: 1,
            ..BranchBoundStats::default()
        },
    };
    // Hint seeding runs before the root (it may install the first
    // incumbent and tighten the cutoff).
    if !hint.is_empty() {
        let mut pins: Vec<(usize, f64)> = Vec::with_capacity(hint.len());
        let mut restore: Vec<(usize, f64, f64)> = Vec::with_capacity(hint.len());
        for &(v, val) in hint {
            let vi = v.index();
            if !model.var(v).is_integer() {
                continue;
            }
            let val = val.round().clamp(s.lo[vi], s.hi[vi]);
            pins.push((vi, val));
            restore.push((vi, s.lo[vi], s.hi[vi]));
        }
        if let Some(sol) = s.backend.seed_hint(opts, &pins, &restore) {
            s.accept(sol, 0);
        }
    }
    s.run()
}
