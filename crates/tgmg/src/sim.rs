//! Discrete-event simulation of TGMGs under infinite-server semantics
//! (Definition 3.2 plus the timing interpretation of Definition 3.3).
//!
//! This is the reproduction's stand-in for the paper's "intensive
//! simulations" of generated Verilog: by Lemma 3.1 the refined TGMG of an
//! RRG has exactly the RRG's throughput, so measuring the TGMG measures
//! the elastic system. (The independent cycle-accurate machine in
//! `rr-elastic` cross-checks this.)
//!
//! Semantics implemented here:
//!
//! * **Guard selection** — an early node draws one input edge with
//!   probability γ and *keeps that selection* until it fires (the select
//!   token persists until consumed). The paper's Markov values for
//!   Figure 1(b), Θ ≈ 0.491 at α = 0.5 and 0.719 at α = 0.9, pin down
//!   this policy.
//! * **Enabling** — simple nodes need positive marking on every input;
//!   early nodes only on the selected input.
//! * **Firing** — consumes one token from *every* input (non-selected
//!   inputs may go negative: anti-tokens), produces one token on every
//!   output after δ(n) time units. Multiple firings may overlap
//!   (infinite servers).
//!
//! Delays must be nonnegative integers (they are: buffer counts and the
//! unit throttle). Zero-delay cascades terminate because every cycle of a
//! valid configuration contains a positive-delay node (liveness gives each
//! RRG cycle a token, hence a buffer, hence an edge-delay ≥ 1).
//!
//! Θ is node 0's firing count from the first instant at or after the
//! warm-up, that instant's firings included, up to the horizon, divided
//! by the window's length in cycles.
//!
//! # Scheduling
//!
//! Time jumps from one completion instant to the next. At each instant
//! the firings follow a full scan: passes over the nodes in ascending
//! index, each node firing as often as it is enabled, until a pass fires
//! nothing. The simulator visits only candidates, kept in two bitsets for
//! this pass and the next. Completions at an instant make their targets
//! candidates of the first pass. A zero-delay firing of `u` makes a target
//! `x` a candidate of this pass when `x > u`, which the scan has yet to
//! reach, and of the next pass otherwise. The instant ends when the next
//! pass has no candidates. Every node is a candidate at cycle 0. Skipping
//! the other nodes is exact: a node whose inputs did not rise cannot have
//! become enabled, and scanning it has no side effect, because an early
//! node redraws its guard right after it fires. So every firing and every
//! guard draw happens in the full scan's order, and the RNG stream and the
//! result are the same bit for bit. The tests check this against a
//! full-scan reference.
//!
//! Pending completions sit in a calendar ring (Brown, "Calendar queues",
//! CACM 1988) of `max_delay + 1` buckets indexed by time modulo the ring
//! length. Every pending completion lies at most `max_delay` cycles ahead,
//! so a bucket holds a single instant. Completions at or past the horizon
//! are only counted, which also bounds the ring by the horizon. The count
//! of pending completions detects deadlock. Adjacency is flattened into
//! compressed sparse rows once per run, with each successor edge's target
//! stored beside it.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rr_rrg::NodeKind;

use crate::gmg::Tgmg;

#[cfg(test)]
pub(crate) mod full_scan;

/// Simulation horizon and measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Total simulated cycles.
    pub horizon: u64,
    /// Cycles discarded before measuring (steady-state warm-up); must be
    /// below `horizon`.
    pub warmup: u64,
    /// RNG seed for guard selection.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            horizon: 30_000,
            warmup: 3_000,
            seed: 0xE1A5_71C5,
        }
    }
}

impl SimParams {
    /// Quick, low-accuracy parameters for property tests.
    pub fn fast(seed: u64) -> Self {
        SimParams {
            horizon: 4_000,
            warmup: 500,
            seed,
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measured steady-state throughput of the reference node (node 0;
    /// all nodes of a live TGMG share the same rate).
    pub throughput: f64,
    /// Firings of every node over the whole horizon.
    pub firings: Vec<u64>,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Delays must be nonnegative integers.
    NonIntegerDelay { node: usize, delay: f64 },
    /// No node can ever fire again (dead marking).
    Deadlock { at_cycle: u64 },
    /// A zero-delay cascade did not terminate: the graph has a zero-delay
    /// cycle with positive marking (invalid configuration).
    ZeroDelayLivelock { at_cycle: u64 },
    /// The measurement window `[warmup, horizon)` is empty.
    EmptyWindow { horizon: u64, warmup: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonIntegerDelay { node, delay } => {
                write!(f, "node {node} has non-integer delay {delay}")
            }
            SimError::Deadlock { at_cycle } => write!(f, "deadlock at cycle {at_cycle}"),
            SimError::ZeroDelayLivelock { at_cycle } => {
                write!(f, "zero-delay livelock at cycle {at_cycle}")
            }
            SimError::EmptyWindow { horizon, warmup } => write!(
                f,
                "empty measurement window: warm-up {warmup} is not below horizon {horizon}"
            ),
        }
    }
}

impl Error for SimError {}

/// Runs the simulation and measures the steady-state throughput.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(t: &Tgmg, params: &SimParams) -> Result<SimResult, SimError> {
    let delays = checked_delays(t, params)?;
    let n = t.num_nodes();
    let pred = Csr::new(&t.pred, |e| e);
    let succ = Csr::new(&t.succ, |e| (e, t.edges[e].to));
    let early: Vec<bool> = t
        .nodes
        .iter()
        .map(|n| n.kind == NodeKind::EarlyEval)
        .collect();
    let limit = cascade_limit(t);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut marking: Vec<i64> = t.initial_marking();
    let mut firings: Vec<u64> = vec![0; n];
    // Pending guard selection per early node: the chosen *input edge*.
    let mut selection: Vec<Option<usize>> = vec![None; n];
    let max_delay = delays.iter().copied().max().unwrap_or(0);
    let mut calendar = Calendar::new(max_delay, params.horizon);
    let mut candidates = Candidates::new(n);
    let mut window = Window::default();
    for v in 0..n {
        candidates.mark(v);
    }

    let mut now: u64 = 0;
    loop {
        window.open(now, params.warmup, &firings);
        // Fire everything enabled at the current instant, cascading
        // through zero-delay completions.
        let mut cascade: u64 = 0;
        while let Some(v) = candidates.pop() {
            let ins = pred.row(v);
            loop {
                let enabled = if early[v] {
                    let sel = *selection[v].get_or_insert_with(|| draw_guard(t, v, &mut rng));
                    marking[sel] > 0
                } else {
                    !ins.is_empty() && ins.iter().all(|&e| marking[e] > 0)
                };
                if !enabled {
                    break;
                }
                // Fire v once.
                for &e in ins {
                    marking[e] -= 1;
                }
                if early[v] {
                    selection[v] = None;
                }
                firings[v] += 1;
                cascade += 1;
                if cascade > limit {
                    return Err(SimError::ZeroDelayLivelock { at_cycle: now });
                }
                if delays[v] == 0 {
                    for &(e, x) in succ.row(v) {
                        marking[e] += 1;
                        candidates.mark_after(x, v);
                    }
                } else {
                    // v may still be enabled for another concurrent
                    // firing; loop again.
                    calendar.push(now.saturating_add(delays[v]), v);
                }
            }
        }

        // Advance time to the next completion.
        let Some(next) = calendar.next_after(now) else {
            return Err(SimError::Deadlock { at_cycle: now });
        };
        if next >= params.horizon {
            break;
        }
        now = next;
        calendar.complete(now, |v| {
            for &(e, x) in succ.row(v) {
                marking[e] += 1;
                candidates.mark(x);
            }
        });
    }
    Ok(window.result(params, firings))
}

/// Checks the parameters and the delays, returning the delays as cycle
/// counts.
fn checked_delays(t: &Tgmg, params: &SimParams) -> Result<Vec<u64>, SimError> {
    if params.warmup >= params.horizon {
        return Err(SimError::EmptyWindow {
            horizon: params.horizon,
            warmup: params.warmup,
        });
    }
    t.nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.delay < 0.0 || n.delay.fract() != 0.0 {
                Err(SimError::NonIntegerDelay {
                    node: i,
                    delay: n.delay,
                })
            } else {
                Ok(n.delay as u64)
            }
        })
        .collect()
}

/// Upper bound on firings per instant: every firing consumes a token
/// from each input; total positive marking bounds the cascade.
fn cascade_limit(t: &Tgmg) -> u64 {
    1_000
        + 4 * t
            .edges
            .iter()
            .map(|e| e.marking.unsigned_abs())
            .sum::<u64>()
        + 4 * t.num_nodes() as u64
}

fn draw_guard(t: &Tgmg, v: usize, rng: &mut StdRng) -> usize {
    let mut x: f64 = rng.random_range(0.0..1.0);
    let ins = &t.pred[v];
    for &e in ins {
        let p = t.edges[e].gamma.expect("early input without γ");
        if x < p {
            return e;
        }
        x -= p;
    }
    *ins.last().expect("early node without inputs")
}

/// The measurement window: Θ counts node 0's firings from the first
/// instant at or after the warm-up, that instant included, to the
/// horizon.
#[derive(Default)]
struct Window {
    /// The window's first instant and node 0's firings before it.
    start: Option<(u64, u64)>,
}

impl Window {
    /// Opens the window at `now`, before the instant's firings, unless it
    /// is already open or `now` is still inside the warm-up.
    fn open(&mut self, now: u64, warmup: u64, firings: &[u64]) {
        if self.start.is_none() && now >= warmup {
            self.start = Some((now, firings.first().copied().unwrap_or(0)));
        }
    }

    fn result(self, params: &SimParams, firings: Vec<u64>) -> SimResult {
        // No instant fell in [warmup, horizon): node 0 did not fire there.
        let (from, before) = self.start.unwrap_or((params.warmup, firings[0]));
        let window = (params.horizon - from) as f64;
        SimResult {
            throughput: (firings[0] - before) as f64 / window,
            firings,
            cycles: params.horizon,
        }
    }
}

/// Adjacency lists flattened into one array (compressed sparse rows).
struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    fn new(lists: &[Vec<usize>], item: impl Fn(usize) -> T) -> Self {
        let mut start = Vec::with_capacity(lists.len() + 1);
        start.push(0);
        let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            items.extend(list.iter().map(|&e| item(e)));
            start.push(items.len());
        }
        Csr { start, items }
    }

    fn row(&self, v: usize) -> &[T] {
        &self.items[self.start[v]..self.start[v + 1]]
    }
}

/// The nodes to visit at the current instant: this pass's candidates,
/// popped in ascending index, and the next pass's.
struct Candidates {
    this: Vec<u64>,
    next: Vec<u64>,
    /// Word of `this` the pass has reached; lower words are empty.
    word: usize,
    next_empty: bool,
}

impl Candidates {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Candidates {
            this: vec![0; words],
            next: vec![0; words],
            word: 0,
            next_empty: true,
        }
    }

    /// Makes `x` a candidate of the first pass of the coming instant.
    fn mark(&mut self, x: usize) {
        self.this[x / 64] |= 1 << (x % 64);
    }

    /// Makes `x` a candidate after `u` fired and raised one of its
    /// inputs: in this pass if the scan has yet to reach `x`, else in
    /// the next.
    fn mark_after(&mut self, x: usize, u: usize) {
        if x > u {
            self.mark(x);
        } else {
            self.next[x / 64] |= 1 << (x % 64);
            self.next_empty = false;
        }
    }

    /// The lowest candidate of this pass, moving on to the next pass when
    /// this one is done. `None` ends the instant.
    fn pop(&mut self) -> Option<usize> {
        loop {
            while let Some(&bits) = self.this.get(self.word) {
                if bits != 0 {
                    self.this[self.word] = bits & (bits - 1);
                    return Some(self.word * 64 + bits.trailing_zeros() as usize);
                }
                self.word += 1;
            }
            self.word = 0;
            if self.next_empty {
                return None;
            }
            std::mem::swap(&mut self.this, &mut self.next);
            self.next_empty = true;
        }
    }
}

/// Pending completions in a ring of buckets, one instant each, indexed
/// by time modulo the ring length (a calendar queue whose year spans the
/// longest delay). Completions at or after the horizon are only counted:
/// the run stops before they happen.
struct Calendar {
    ring: Vec<Vec<usize>>,
    pending: usize,
    horizon: u64,
    max_delay: u64,
}

impl Calendar {
    fn new(max_delay: u64, horizon: u64) -> Self {
        // Stored completions lie in (now, min(now + max_delay, horizon − 1)].
        let len = max_delay.min(horizon - 1) as usize + 1;
        Calendar {
            ring: vec![Vec::new(); len],
            pending: 0,
            horizon,
            max_delay,
        }
    }

    fn slot(&self, time: u64) -> usize {
        (time % self.ring.len() as u64) as usize
    }

    fn push(&mut self, time: u64, v: usize) {
        self.pending += 1;
        if time < self.horizon {
            let slot = self.slot(time);
            self.ring[slot].push(v);
        }
    }

    /// The first completion instant after `now`, the horizon when every
    /// pending completion lies at or past it, or `None` when nothing is
    /// pending.
    fn next_after(&self, now: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let last = now.saturating_add(self.max_delay).min(self.horizon - 1);
        Some(
            (now + 1..=last)
                .find(|&time| !self.ring[self.slot(time)].is_empty())
                .unwrap_or(self.horizon),
        )
    }

    /// Removes the completions at `now`, passing each node to `f`.
    fn complete(&mut self, now: u64, f: impl FnMut(usize)) {
        let slot = self.slot(now);
        let done = &mut self.ring[slot];
        self.pending -= done.len();
        done.drain(..).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmg::{TgmgEdge, TgmgNode};
    use crate::skeleton::{tgmg_of, TgmgSkeleton};
    use rr_rrg::iscas::TABLE2;
    use rr_rrg::{cycle_time, figures, Config, Rrg};

    fn measure(g: &Rrg) -> f64 {
        simulate(&tgmg_of(g), &SimParams::default())
            .unwrap()
            .throughput
    }

    /// Simulates with both schedulers, asserting they agree.
    fn both(t: &Tgmg, params: &SimParams) -> Result<SimResult, SimError> {
        let got = simulate(t, params);
        assert_eq!(got, full_scan::simulate(t, params), "{params:?}");
        got
    }

    fn node(delay: f64) -> TgmgNode {
        TgmgNode {
            kind: NodeKind::Simple,
            delay,
        }
    }

    fn edge(from: usize, to: usize, marking: i64) -> TgmgEdge {
        TgmgEdge {
            from,
            to,
            marking,
            gamma: None,
        }
    }

    #[test]
    fn figure_1a_throughput_is_one() {
        assert_eq!(measure(&figures::figure_1a(0.5)), 1.0);
    }

    #[test]
    fn figure_1b_late_throughput_is_one_third() {
        let th = measure(&figures::figure_1b(0.5).with_late_evaluation());
        assert!((th - 1.0 / 3.0).abs() < 0.01, "Θ = {th}");
    }

    #[test]
    fn figure_1b_early_matches_paper_markov_values() {
        // Paper §1.4: Θ = 0.491 at α = 0.5 and 0.719 at α = 0.9.
        let th05 = measure(&figures::figure_1b(0.5));
        assert!((th05 - 0.491).abs() < 0.015, "Θ(0.5) = {th05}");
        let th09 = measure(&figures::figure_1b(0.9));
        assert!((th09 - 0.719).abs() < 0.015, "Θ(0.9) = {th09}");
    }

    #[test]
    fn figure_2_matches_closed_form() {
        for &alpha in &[0.3, 0.5, 0.7, 0.9] {
            let th = measure(&figures::figure_2(alpha));
            let exact = figures::figure_2_throughput(alpha);
            assert!(
                (th - exact).abs() < 0.02,
                "α={alpha}: Θ = {th}, closed form {exact}"
            );
        }
    }

    #[test]
    fn all_nodes_share_the_rate() {
        let t = tgmg_of(&figures::figure_2(0.7));
        let r = simulate(&t, &SimParams::default()).unwrap();
        // Compare original nodes' firing counts (within warm-up slack).
        let counts: Vec<u64> = (0..5).map(|i| r.firings[i]).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max - min < 0.05 * max, "{counts:?}");
    }

    #[test]
    fn deadlocked_graph_reports_deadlock() {
        // Two nodes in a token-free cycle.
        let t = Tgmg::new(
            vec![node(1.0), node(1.0)],
            vec![edge(0, 1, 0), edge(1, 0, 0)],
        );
        assert_eq!(
            both(&t, &SimParams::fast(1)),
            Err(SimError::Deadlock { at_cycle: 0 })
        );
    }

    #[test]
    fn deadlock_after_progress_drains_the_calendar() {
        // Node 0 never fires (its self-loop is empty) but left two tokens
        // on its way into the delay-1 chain 1 → 2, which fires twice per
        // stage and then runs dry once node 2's completions land.
        let t = Tgmg::new(
            vec![node(1.0), node(1.0), node(1.0)],
            vec![edge(0, 0, 0), edge(0, 1, 2), edge(1, 2, 0)],
        );
        assert_eq!(
            both(&t, &SimParams::fast(1)),
            Err(SimError::Deadlock { at_cycle: 2 })
        );
    }

    #[test]
    fn zero_delay_cycle_with_a_token_livelocks() {
        let t = Tgmg::new(
            vec![node(0.0), node(0.0)],
            vec![edge(0, 1, 1), edge(1, 0, 0)],
        );
        assert_eq!(
            both(&t, &SimParams::fast(1)),
            Err(SimError::ZeroDelayLivelock { at_cycle: 0 })
        );
    }

    #[test]
    fn empty_window_rejected() {
        let t = tgmg_of(&figures::figure_1a(0.5));
        for (horizon, warmup) in [(0, 0), (100, 100), (100, 250)] {
            let params = SimParams {
                horizon,
                warmup,
                ..SimParams::default()
            };
            assert_eq!(
                both(&t, &params),
                Err(SimError::EmptyWindow { horizon, warmup })
            );
        }
    }

    #[test]
    fn window_opens_at_the_first_instant_after_warm_up() {
        // One firing every 10 cycles, at 0, 10, …, 90.
        let t = Tgmg::new(vec![node(10.0)], vec![edge(0, 0, 1)]);
        let theta = |warmup| {
            let params = SimParams {
                horizon: 100,
                warmup,
                ..SimParams::default()
            };
            both(&t, &params).unwrap().throughput
        };
        assert_eq!(theta(85), 0.1);
        // The firing at 90 opens the window and counts.
        assert_eq!(theta(90), 0.1);
        // No instant in [95, 100).
        assert_eq!(theta(95), 0.0);
    }

    #[test]
    fn non_integer_delay_rejected() {
        let t = Tgmg::new(vec![node(0.5)], vec![edge(0, 0, 1)]);
        assert!(matches!(
            simulate(&t, &SimParams::fast(1)),
            Err(SimError::NonIntegerDelay { .. })
        ));
    }

    #[test]
    fn seeds_are_deterministic() {
        let t = tgmg_of(&figures::figure_1b(0.6));
        let a = simulate(&t, &SimParams::default()).unwrap();
        let b = simulate(&t, &SimParams::default()).unwrap();
        assert_eq!(a.firings, b.firings);
    }

    /// Inserts single bubbles mid-critical-path until `τ ≤ β_max`.
    fn recycled_to_beta_max(g: &Rrg, mut config: Config) -> Config {
        loop {
            let path = cycle_time::critical_path_with(g, &config.buffers).unwrap();
            if path.delay <= g.max_delay() + 1e-9 {
                return config;
            }
            let mid = (path.nodes.len() - 2) / 2;
            let (u, v) = (path.nodes[mid], path.nodes[mid + 1]);
            let edge = g
                .out_edges(u)
                .iter()
                .copied()
                .find(|&e| g.edge(e).target() == v && config.buffers[e.index()] == 0)
                .unwrap();
            config.add_bubbles(edge, 1);
        }
    }

    #[test]
    fn table2_configurations_match_the_full_scan() {
        for profile in TABLE2 {
            let g = profile.scaled(20).generate(2009);
            let retimed = rr_retime::min_period_retiming(&g).unwrap().config(&g);
            let recycled = recycled_to_beta_max(&g, retimed.clone());
            let skeleton = TgmgSkeleton::of(&g);
            for config in [retimed, recycled] {
                let t = skeleton.instantiate(&config.tokens, &config.buffers);
                both(&t, &SimParams::fast(7)).unwrap();
            }
        }
    }
}
