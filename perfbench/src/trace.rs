//! Spans and counters recorded by the benchmark around its own calls into
//! the crates. Nothing here reaches inside a crate: a layer's time is the
//! time spent in the public functions the benchmark called, and its self
//! time is that minus the spans opened inside it.
//!
//! An untraced run uses [`Trace::off`], whose spans only call through.

use std::collections::BTreeMap;
use std::time::Instant;

use rr_milp::BranchBoundStats;

/// Accumulated time of one span name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Wall time inside the span, children included.
    pub total_s: f64,
    /// Wall time inside the span minus its child spans.
    pub self_s: f64,
    /// Per-call durations in seconds, in call order.
    pub calls: Vec<f64>,
}

struct Open {
    start: Instant,
    child_s: f64,
}

/// Span and counter recorder for one traced pass.
#[derive(Default)]
pub struct Trace {
    on: bool,
    stack: Vec<Open>,
    /// Per-span-name totals.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Counters recorded at the same boundaries as the spans.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recorder whose spans cost nothing (the untraced run).
    pub fn off() -> Trace {
        Trace::default()
    }

    /// A recording tracer.
    pub fn on() -> Trace {
        Trace {
            on: true,
            ..Trace::default()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.stack.push(Open {
            start: Instant::now(),
            child_s: 0.0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack is balanced");
        let dur = open.start.elapsed().as_secs_f64();
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur;
        }
        let layer = self.layers.entry(name).or_default();
        layer.total_s += dur;
        layer.self_s += dur - open.child_s;
        layer.calls.push(dur);
        out
    }

    /// Adds `v` to counter `name` (recorded only when tracing).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Keeps the maximum of counter `name` and `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let c = self.counters.entry(name).or_default();
            *c = c.max(v);
        }
    }

    /// Records the search and kernel counters of one MILP solve.
    pub fn solve(&mut self, s: &BranchBoundStats, proven: bool) {
        let counters: [(&'static str, usize); 18] = [
            ("milp.solves", 1),
            ("milp.proven", usize::from(proven)),
            ("milp.nodes", s.nodes),
            ("milp.strong_branches", s.strong_branches),
            ("milp.cuts_activated", s.cuts_activated),
            ("milp.cuts_added", s.cuts_added),
            ("milp.pivots", s.simplex_iters),
            ("milp.dual_pivots", s.dual_pivots),
            ("milp.primal_pivots", s.primal_pivots),
            ("milp.bound_flips", s.bound_flips),
            ("milp.weight_resets", s.weight_resets),
            ("milp.refactors", s.refactors),
            ("milp.ft_updates", s.ft_updates),
            ("milp.forced_refactors", s.forced_refactors),
            ("milp.basis_rows_sum", s.basis_rows),
            ("milp.warm_solves", s.warm_solves),
            ("milp.cold_solves", s.cold_solves),
            ("milp.recovery_events", s.recovery.events_observed()),
        ];
        for (name, v) in counters {
            self.count(name, v as f64);
        }
        self.max("milp.peak_lu_nnz", s.peak_lu_nnz as f64);
    }

    /// Total time of span `name` (0 when it never ran).
    pub fn total(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.total_s)
    }

    /// Self time of span `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.self_s)
    }

    /// Number of calls of span `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.layers.get(name).map_or(0, |l| l.calls.len())
    }

    /// Counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span's self time: the traced wall time the spans
    /// account for.
    pub fn self_sum(&self) -> f64 {
        self.layers.values().map(|l| l.self_s).sum()
    }
}
