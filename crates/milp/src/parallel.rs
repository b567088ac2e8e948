//! The branch & bound search loop: work-stealing workers over the warm
//! revised backend. Every solve runs here; with
//! [`SolverOptions::workers`]` = 1` the one worker runs on the calling
//! thread and no thread is spawned.
//!
//! Layering (see also the crate-level "Concurrency model" docs):
//!
//! * **Shared frontier** — one LIFO stack of [`OpenNode`]s plus the
//!   branch-tree arena, the node/time budget, and the `node_bounds`
//!   telemetry, all behind a single `Mutex` with a `Condvar` for idle
//!   workers. The incumbent lives behind its *own* `Mutex`, with the
//!   pruning cutoff mirrored into an atomic (signed-objective bits) so
//!   the hot pruning path never takes a lock. The two locks are never
//!   held at once.
//!
//! * **Worker layer** — each worker owns a full [`WarmBackend`]: its own
//!   [`crate::revised::Revised`] kernel, sparse factors, fault injector,
//!   and recovery ladder, sharing only the read-only `Arc<BoxedForm>`.
//!   A worker claims one open node from the frontier and runs it as a
//!   bounded DFS **episode**: children bypass the queue onto a
//!   worker-local dive stack until the episode cap trips, whereupon the
//!   leftovers — each carrying its own bound and parent-basis `Arc` —
//!   are flushed back to the shared frontier for any worker to steal.
//!   Node boxes are re-derived per worker by an LCA walk of the shared
//!   branch tree, read under the lock but applied to the worker's
//!   private kernel.
//!
//! * **Merge layer** — every worker accumulates a private
//!   [`BranchBoundStats`]; at join they are folded additively (counters
//!   sum, peaks max, recovery ledgers absorb) into one stats struct, so
//!   `report.rs`, Table-1 rendering, and the benchmark's counters do not
//!   depend on the worker count.
//!
//! Termination: a worker that finds the frontier empty while
//! `outstanding == 0` (no episode still running that could flush more
//! work) declares the search done. Frontier and dive entries whose bound
//! cannot beat the cutoff are discarded unsolved — each discard is
//! individually sound (its bound alone proves the subtree useless), so
//! no global agreement is needed. The gap test runs whenever an
//! incumbent improves, against the open-node bound: the frontier joined
//! with each running episode's floor. A claim enters with its parent's
//! bound as the floor, raised to its own LP bound once that LP solves,
//! so the gap can close during the very first episode. Budget exhaustion
//! (shared node cap or the single shared deadline) marks the search
//! truncated and stops every worker at its next claim.
//!
//! Every model runs here — shifted, mirrored, and free (split-pair)
//! integers all branch through the same in-place column-box updates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::branch_bound::{
    branch_children, finish, min_bound, select_branch_var, BranchBoundStats, OpenNode, PseudoCosts,
    TreeNode, WarmBackend,
};
use crate::expr::VarId;
use crate::model::{Model, Sense, SolverOptions, INT_TOL};
use crate::revised::Revised;
use crate::solution::{Solution, SolveError};
use crate::standard::{BoxedForm, ColMap};

/// Search-wide state behind the frontier lock.
struct Shared {
    /// Open nodes, popped last-in first-out (depth-first).
    frontier: Vec<OpenNode>,
    /// The branch tree. Append-only; indices are stable, so workers can
    /// cache arena indices (`cur`) across lock drops.
    arena: Vec<TreeNode>,
    /// Episodes currently running — claims that have not yet returned.
    /// The frontier being empty proves nothing while this is non-zero:
    /// any running episode may still flush leftovers back.
    outstanding: usize,
    /// Nodes claimed so far (the shared node budget).
    nodes: usize,
    truncated: bool,
    done: bool,
    err: Option<SolveError>,
    root_bound: f64,
    root_solved: bool,
    queue_peak: usize,
    /// Slot per claimed node, indexed by claim order; written when the
    /// node's LP concludes (claim order ≠ completion order).
    node_bounds: Vec<f64>,
    /// Per worker: the signed bound of the node it claimed (`+∞` when
    /// idle), raised to the claim's own LP bound once that LP solves. A
    /// claim's bound lower-bounds every node its episode can produce, so
    /// `min(frontier, episode_floor)` is a valid global dual bound even
    /// while episodes are in flight.
    episode_floor: Vec<f64>,
}

/// Incumbent state, separate from [`Shared`] so accepting an incumbent
/// never blocks node claims. The pruning cutoff is mirrored into
/// [`Ctx::cutoff`] *while this lock is held*, so the atomic only ever
/// tightens and a racy read sees, at worst, a slightly stale (looser)
/// cutoff — which can only keep a node, never prune a good one.
struct Incumbent {
    best: Option<Solution>,
    incumbents: usize,
    first_incumbent_node: usize,
    incumbent_trace: Vec<(usize, f64)>,
}

/// Everything the workers share.
struct Ctx<'m> {
    model: &'m Model,
    opts: &'m SolverOptions,
    int_vars: Vec<VarId>,
    sense_mul: f64,
    /// The single wall-clock deadline, captured once at solve start.
    deadline: Option<Instant>,
    shared: Mutex<Shared>,
    idle: Condvar,
    incumbent: Mutex<Incumbent>,
    /// Bits of the signed incumbent objective (`+inf` = no incumbent).
    cutoff: AtomicU64,
    /// Shared pseudo-cost table: read lock-free (atomics) by every
    /// worker's branching selection; node-degradation observations are
    /// recorded under the existing shared (budget) lock at bound
    /// publication.
    pseudo: PseudoCosts,
    /// Global cut-activation flags, one per cut row. A worker that
    /// separates a cut publishes its flag; every other worker mirrors
    /// set flags into its private kernel before each node solve.
    cut_flags: Vec<AtomicBool>,
}

impl Ctx<'_> {
    fn signed(&self, obj: f64) -> f64 {
        self.sense_mul * obj
    }

    fn cutoff(&self) -> f64 {
        f64::from_bits(self.cutoff.load(AtomicOrdering::Acquire))
    }

    fn out_of_clock(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Offers `candidate` as an incumbent (must be integral to win) and
    /// returns whether it was installed. On improvement the atomic
    /// cutoff is tightened before the lock drops; the gap check runs
    /// afterwards (separate lock) and may end the whole search.
    fn accept(&self, candidate: Solution, node_idx: usize) -> bool {
        let integral = self.int_vars.iter().all(|&v| {
            let x = candidate.value(v);
            (x - x.round()).abs() <= INT_TOL
        });
        if !integral {
            return false;
        }
        let installed = {
            let mut inc = self.incumbent.lock().unwrap();
            let better = match &inc.best {
                None => true,
                Some(b) => self.signed(candidate.objective) < self.signed(b.objective) - 1e-9,
            };
            if better {
                if inc.incumbents == 0 {
                    inc.first_incumbent_node = node_idx;
                }
                inc.incumbents += 1;
                inc.incumbent_trace.push((node_idx, candidate.objective));
                self.cutoff.store(
                    self.signed(candidate.objective).to_bits(),
                    AtomicOrdering::Release,
                );
                inc.best = Some(candidate);
            }
            better
        };
        if installed && self.within_gap() {
            let mut sh = self.shared.lock().unwrap();
            sh.done = true;
            drop(sh);
            self.idle.notify_all();
        }
        installed
    }

    /// Gap termination test against the valid global dual bound: the
    /// frontier minimum joined with the in-flight episode floors.
    fn within_gap(&self) -> bool {
        let bound = {
            let sh = self.shared.lock().unwrap();
            if !sh.root_solved {
                return false;
            }
            sh.episode_floor
                .iter()
                .copied()
                .fold(min_bound(&sh.frontier), f64::min)
        };
        let inc = {
            let inc = self.incumbent.lock().unwrap();
            match &inc.best {
                Some(b) => self.signed(b.objective),
                None => return false,
            }
        };
        inc - bound <= self.opts.gap_tol * inc.abs().max(1.0)
    }
}

/// One worker: a private backend plus the locally tracked box state
/// (`lo`/`hi`/`cur`) that mirrors whatever tree node its kernel
/// currently has applied.
struct Worker<'c, 'm> {
    ctx: &'c Ctx<'m>,
    /// Index into [`Shared::episode_floor`].
    id: usize,
    backend: WarmBackend<'m>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Arena index of the node whose boxes this worker's kernel has
    /// applied.
    cur: usize,
    stats: BranchBoundStats,
    /// Shrinks with the worker count: episodes are also the unit of
    /// load balancing, so with more workers each claim hands work back
    /// to the frontier sooner.
    episode_cap: usize,
}

impl Worker<'_, '_> {
    /// Claims an open node, discarding prunable entries unsolved, or
    /// waits until one appears. `None` = the search is over.
    fn claim(&self) -> Option<OpenNode> {
        let ctx = self.ctx;
        let mut sh = ctx.shared.lock().unwrap();
        loop {
            if sh.done || sh.err.is_some() {
                return None;
            }
            let cutoff = ctx.cutoff();
            while let Some(o) = sh.frontier.pop() {
                if o.bound >= cutoff - 1e-9 {
                    // Its bound alone proves the subtree useless —
                    // individually sound, no global agreement needed.
                    continue;
                }
                sh.outstanding += 1;
                sh.episode_floor[self.id] = o.bound;
                return Some(o);
            }
            if sh.outstanding == 0 {
                // Nothing queued and nobody who could queue more.
                sh.done = true;
                drop(sh);
                ctx.idle.notify_all();
                return None;
            }
            sh = ctx.idle.wait(sh).unwrap();
        }
    }

    /// The branch-tree LCA walk, read-only: collects the box
    /// mutations that switch this worker from `self.cur` to `t` into
    /// `ops` (in application order) and returns `t`'s depth. Runs under
    /// the shared lock (the arena is append-only but `Vec` growth moves
    /// it); the collected ops are applied to the private kernel after
    /// the lock drops.
    fn path_ops(&self, arena: &[TreeNode], t: usize, ops: &mut Vec<(usize, f64, f64)>) -> usize {
        let mut a = self.cur;
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

    /// Queues the children of an expanded node onto the episode's dive
    /// stack, nearer side on top. Must be called with the shared lock
    /// held (arena append).
    fn expand(
        &self,
        sh: &mut Shared,
        t: usize,
        (var, val): (VarId, f64),
        bound: f64,
        basis: &Option<Arc<crate::revised::BasisState>>,
        dive: &mut Vec<OpenNode>,
    ) {
        let vi = var.index();
        let signed_bound = self.ctx.signed(bound);
        let depth = sh.arena[t].depth + 1;
        let children = branch_children(t, depth, vi, val, self.lo[vi], self.hi[vi], bound);
        for child in children.into_iter().flatten() {
            let idx = sh.arena.len();
            sh.arena.push(child);
            dive.push(OpenNode {
                node: idx,
                bound: signed_bound,
                basis: basis.clone(),
            });
        }
        // Telemetry approximation: the shared queue plus this worker's
        // dive (other workers' in-flight dives are not counted).
        let open_now = sh.frontier.len() + dive.len();
        sh.queue_peak = sh.queue_peak.max(open_now);
    }

    /// Runs one claimed node as a bounded DFS episode. Returns `false`
    /// when the worker should stop claiming (search done or hard error).
    ///
    /// The hot path costs exactly two shared-lock acquisitions per node:
    /// one to claim a budget unit and read the activation path, one to
    /// publish the bound and append the children.
    fn episode(&mut self, root: OpenNode) -> bool {
        let ctx = self.ctx;
        let mut dive: Vec<OpenNode> = vec![root];
        let mut ops: Vec<(usize, f64, f64)> = Vec::new();
        let mut solved = 0usize;
        while let Some(open) = dive.pop() {
            if open.bound >= ctx.cutoff() - 1e-9 {
                continue; // cannot beat the incumbent: discarded unsolved
            }
            // Lock 1: claim one unit of the shared node budget and read
            // the box mutations that move this kernel to the node. Early
            // exits flush the unexplored entries (their bounds included)
            // back to the frontier so the final dual bound stays valid.
            ops.clear();
            let (node_idx, depth) = {
                let mut sh = ctx.shared.lock().unwrap();
                if sh.done || sh.err.is_some() {
                    sh.frontier.push(open);
                    for e in dive.drain(..) {
                        sh.frontier.push(e);
                    }
                    return false;
                }
                if sh.nodes >= ctx.opts.max_nodes || ctx.out_of_clock() {
                    sh.truncated = true;
                    sh.done = true;
                    sh.frontier.push(open);
                    for e in dive.drain(..) {
                        sh.frontier.push(e);
                    }
                    drop(sh);
                    ctx.idle.notify_all();
                    return false;
                }
                sh.nodes += 1;
                sh.node_bounds.push(f64::NAN);
                let depth = self.path_ops(&sh.arena, open.node, &mut ops);
                (sh.nodes - 1, depth)
            };
            for &(vi, lo, hi) in &ops {
                self.lo[vi] = lo;
                self.hi[vi] = hi;
                self.backend.set_var_box(vi, lo, hi);
            }
            self.cur = open.node;
            // Mirror cut activations other workers published (an rhs
            // tighten preserves dual feasibility, so the warm start
            // survives).
            for (i, flag) in ctx.cut_flags.iter().enumerate() {
                if flag.load(AtomicOrdering::Relaxed) {
                    self.backend.apply_cut(i);
                }
            }
            let mut relax =
                match self
                    .backend
                    .solve_node(ctx.opts, open.basis.as_deref(), &mut self.stats)
                {
                    Ok(sol) => sol,
                    Err(SolveError::Infeasible) => continue, // bound slot stays NaN
                    Err(SolveError::IterationLimit) | Err(SolveError::Numerical(_)) => {
                        // No usable bound for this subtree: prune it, keep
                        // whatever incumbent exists, mark the run truncated.
                        let mut sh = ctx.shared.lock().unwrap();
                        sh.truncated = true;
                        continue;
                    }
                    Err(e) => {
                        let mut sh = ctx.shared.lock().unwrap();
                        if sh.err.is_none() {
                            sh.err = Some(e);
                        }
                        sh.done = true;
                        for e in dive.drain(..) {
                            sh.frontier.push(e);
                        }
                        drop(sh);
                        ctx.idle.notify_all();
                        return false;
                    }
                };
            // Lazy cut separation: activate violated cuts (publishing
            // each first activation globally) and re-solve until the
            // point is clean. The weaker pre-activation bound stays
            // valid, so a failed re-solve simply keeps it; Infeasible
            // closes the node (cuts hold for every integer point in this
            // box).
            let mut cut_closed = false;
            if !ctx.cut_flags.is_empty() {
                for _ in 0..8 {
                    if self.backend.separate_cuts(&relax) == 0 {
                        break;
                    }
                    for (i, flag) in ctx.cut_flags.iter().enumerate() {
                        if self.backend.active_cuts[i] && !flag.swap(true, AtomicOrdering::Relaxed)
                        {
                            // First activation anywhere: count it once.
                            self.stats.cuts_activated += 1;
                        }
                    }
                    match self
                        .backend
                        .solve_node(ctx.opts, open.basis.as_deref(), &mut self.stats)
                    {
                        Ok(sol) => relax = sol,
                        Err(SolveError::Infeasible) => {
                            cut_closed = true;
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
            solved += 1;
            let pruned = cut_closed || ctx.signed(relax.objective) >= ctx.cutoff() - 1e-9;
            // Children warm-start from this node's optimal basis —
            // snapshot before strong-branch probes perturb the kernel.
            // Branching selection is local work (probes run on this
            // worker's private kernel).
            let my_basis = if pruned {
                None
            } else {
                self.backend.snapshot(ctx.opts).map(Arc::new)
            };
            let branch = if pruned {
                None
            } else {
                select_branch_var(
                    &mut self.backend,
                    ctx.model,
                    ctx.opts,
                    &ctx.int_vars,
                    &relax,
                    &self.lo,
                    &self.hi,
                    ctx.sense_mul,
                    &ctx.pseudo,
                    &mut self.stats,
                )
            };
            // Lock 2: publish the bound, raise the episode floor to the
            // claim's own LP bound, record the pseudo-cost observation —
            // this node's bound degradation against its parent per unit
            // of branch fractionality (the shared table is updated under
            // the existing budget lock) — and append the children.
            {
                let mut sh = ctx.shared.lock().unwrap();
                sh.node_bounds[node_idx] = relax.objective;
                if depth == 0 {
                    sh.root_bound = relax.objective;
                    sh.root_solved = true;
                }
                if solved == 1 && !cut_closed {
                    // The claimed node's LP bound lower-bounds every node
                    // this episode can produce (its dive starts from it),
                    // so the gap test need not wait for the episode to end.
                    let floor = &mut sh.episode_floor[self.id];
                    *floor = floor.max(ctx.signed(relax.objective));
                }
                let nd = &sh.arena[open.node];
                if nd.vi != usize::MAX && nd.frac > INT_TOL && nd.parent_obj.is_finite() {
                    let degrade =
                        (ctx.signed(relax.objective) - ctx.signed(nd.parent_obj)).max(0.0);
                    ctx.pseudo.record(nd.vi, nd.up, degrade / nd.frac);
                    self.stats.pseudo_updates += 1;
                }
                if let Some(bv) = branch {
                    self.expand(
                        &mut sh,
                        open.node,
                        bv,
                        relax.objective,
                        &my_basis,
                        &mut dive,
                    );
                }
            }
            if branch.is_none() && !pruned {
                // Integral leaf: the relaxation point is the optimal
                // incumbent for this box.
                ctx.accept(relax, node_idx + 1);
                continue;
            }
            if solved >= self.episode_cap && !dive.is_empty() {
                // Episode over: hand the leftovers to the frontier so
                // idle workers can steal them.
                let mut sh = ctx.shared.lock().unwrap();
                for e in dive.drain(..) {
                    sh.frontier.push(e);
                }
                sh.queue_peak = sh.queue_peak.max(sh.frontier.len());
                drop(sh);
                ctx.idle.notify_all();
                return true;
            }
        }
        true
    }

    /// The worker main loop: claim, run the episode, retire the claim.
    /// Returns this worker's stats with its kernel telemetry folded in.
    fn run(mut self) -> BranchBoundStats {
        while let Some(open) = self.claim() {
            let keep_going = self.episode(open);
            let mut sh = self.ctx.shared.lock().unwrap();
            sh.outstanding -= 1;
            sh.episode_floor[self.id] = f64::INFINITY;
            if sh.outstanding == 0 && sh.frontier.is_empty() {
                sh.done = true;
            }
            drop(sh);
            self.ctx.idle.notify_all();
            if !keep_going {
                break;
            }
        }
        self.backend.finish(&mut self.stats);
        self.stats
    }
}

/// The search entry point from
/// [`crate::branch_bound::solve_with_stats_hinted`]: every branch & bound
/// solve, at any worker count.
pub(crate) fn search(
    model: &Model,
    opts: &SolverOptions,
    hint: &[(VarId, f64)],
    form: Arc<BoxedForm>,
    int_maps: Vec<Option<ColMap>>,
    deadline: Option<Instant>,
) -> Result<(Solution, BranchBoundStats), SolveError> {
    let workers = opts.workers;
    let int_vars: Vec<VarId> = model
        .vars()
        .filter(|(_, v)| v.is_integer())
        .map(|(id, _)| id)
        .collect();
    let int_count = int_vars.len();
    let arena = vec![TreeNode::root()];
    let frontier = vec![OpenNode {
        node: 0,
        bound: f64::NEG_INFINITY,
        basis: None,
    }];
    let ctx = Ctx {
        model,
        opts,
        int_vars,
        sense_mul: match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        },
        deadline,
        shared: Mutex::new(Shared {
            frontier,
            arena,
            outstanding: 0,
            nodes: 0,
            truncated: false,
            done: false,
            err: None,
            root_bound: 0.0,
            root_solved: false,
            queue_peak: 1,
            node_bounds: Vec::new(),
            episode_floor: vec![f64::INFINITY; workers],
        }),
        idle: Condvar::new(),
        incumbent: Mutex::new(Incumbent {
            best: None,
            incumbents: 0,
            first_incumbent_node: 0,
            incumbent_trace: Vec::new(),
        }),
        cutoff: AtomicU64::new(f64::INFINITY.to_bits()),
        pseudo: PseudoCosts::new(model.vars.len()),
        cut_flags: (0..form.cut_rows.len())
            .map(|_| AtomicBool::new(false))
            .collect(),
    };
    // Long enough for one episode to reach an integral leaf (about one
    // branching level per fractional integer), divided across the
    // workers so early episodes start feeding the frontier quickly.
    let episode_cap = (64.max(2 * int_count) / workers).max(8);
    let mut pool: Vec<Worker> = (0..workers)
        .map(|id| {
            let mut kernel = Revised::new(&form, opts);
            kernel.set_deadline(deadline);
            Worker {
                ctx: &ctx,
                id,
                backend: WarmBackend {
                    model,
                    form: Arc::clone(&form),
                    int_maps: int_maps.clone(),
                    kernel,
                    active_cuts: vec![false; form.cut_rows.len()],
                },
                lo: model.vars.iter().map(|v| v.lower).collect(),
                hi: model.vars.iter().map(|v| v.upper).collect(),
                cur: 0,
                stats: BranchBoundStats::default(),
                episode_cap,
            }
        })
        .collect();
    // Hint seeding runs on worker 0 before the search starts (it may
    // install the first incumbent and tighten the cutoff).
    if !hint.is_empty() {
        let w0 = &mut pool[0];
        let mut pins: Vec<(usize, f64)> = Vec::with_capacity(hint.len());
        let mut restore: Vec<(usize, f64, f64)> = Vec::with_capacity(hint.len());
        for &(v, val) in hint {
            let vi = v.index();
            if !model.var(v).is_integer() {
                continue;
            }
            let val = val.round().clamp(w0.lo[vi], w0.hi[vi]);
            pins.push((vi, val));
            restore.push((vi, w0.lo[vi], w0.hi[vi]));
        }
        if let Some(sol) = w0.backend.seed_hint(opts, &pins, &restore) {
            ctx.accept(sol, 0);
        }
    }
    let worker_stats: Vec<BranchBoundStats> = if workers == 1 {
        // One worker runs on the calling thread: no spawn, no join.
        pool.into_iter().map(Worker::run).collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = pool.into_iter().map(|w| s.spawn(move || w.run())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    // Merge layer: counters sum, peaks max, recovery ledgers absorb.
    let mut stats = BranchBoundStats::default();
    for w in &worker_stats {
        stats.simplex_iters += w.simplex_iters;
        stats.warm_solves += w.warm_solves;
        stats.cold_solves += w.cold_solves;
        stats.refactors += w.refactors;
        stats.ft_updates += w.ft_updates;
        stats.forced_refactors += w.forced_refactors;
        stats.peak_u_nnz = stats.peak_u_nnz.max(w.peak_u_nnz);
        stats.peak_lu_nnz = stats.peak_lu_nnz.max(w.peak_lu_nnz);
        stats.basis_rows = stats.basis_rows.max(w.basis_rows);
        stats.strong_branches += w.strong_branches;
        stats.pseudo_updates += w.pseudo_updates;
        stats.cuts_activated += w.cuts_activated;
        stats.recovery.absorb(&w.recovery);
        stats.dual_pivots += w.dual_pivots;
        stats.primal_pivots += w.primal_pivots;
        stats.bound_flips += w.bound_flips;
    }
    stats.cuts_added = form.cut_rows.len();
    let shared = ctx.shared.into_inner().unwrap();
    if let Some(e) = shared.err {
        return Err(e);
    }
    stats.nodes = shared.nodes;
    stats.truncated = shared.truncated;
    stats.root_bound = shared.root_bound;
    stats.queue_peak = shared.queue_peak;
    stats.node_bounds = shared.node_bounds;
    let inc = ctx.incumbent.into_inner().unwrap();
    stats.incumbents = inc.incumbents;
    stats.first_incumbent_node = inc.first_incumbent_node;
    stats.incumbent_trace = inc.incumbent_trace;
    // Proven dual bound: frontier leftovers (flushed back by every early
    // episode exit) joined with the incumbent; completed searches have an
    // empty frontier, so the bound collapses to the incumbent objective.
    let sense_mul = ctx.sense_mul;
    let open_min = min_bound(&shared.frontier);
    let inc_signed = inc
        .best
        .as_ref()
        .map_or(f64::INFINITY, |b| sense_mul * b.objective);
    let bound = open_min.min(inc_signed);
    stats.dual_bound = if bound.is_finite() {
        sense_mul * bound
    } else {
        shared.root_bound
    };
    finish(inc.best, stats)
}
