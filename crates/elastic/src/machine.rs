//! The synchronous elastic machine: state and one-cycle step function.
//!
//! ## Channel model
//!
//! Each RRG edge is a FIFO with **latency** `R(e)` (one cycle per elastic
//! buffer) plus an **anti-token counter**. Tokens are timestamps: a token
//! pushed at cycle `t` becomes visible at the consumer at `t + R(e)`.
//! Edges with `R(e) = 0` are combinational wires — a token produced this
//! cycle is consumable this cycle (nodes are evaluated in topological
//! order of the wire subgraph, which is acyclic for every valid
//! configuration). FIFOs never fill: this is the paper's big-enough-FIFO
//! assumption (footnote 1), under which Lemma 3.1 ties the machine to the
//! TGMG.
//!
//! ## Firing rules (one firing per node per clock)
//!
//! * a **simple** node fires when every input channel offers a token;
//! * an **early** node holds a pending guard selection (drawn from γ when
//!   the previous one is consumed) and fires when the *selected* channel
//!   offers a token; firing consumes the offered tokens of every input
//!   and increments the anti-token counter of inputs that offered none —
//!   passive anti-tokens that cancel the late token on arrival
//!   (Cortadella & Kishinevsky, DAC'07);
//! * anti-token counters cancel against the oldest queued token eagerly.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rr_rrg::{algo, EdgeId, NodeId, NodeKind, Rrg};

/// Machine construction failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration has a combinational cycle (wire cycle).
    CombinationalCycle { edge: EdgeId },
    /// No progress is possible any more (reported by the run loop).
    Deadlock { at_cycle: u64 },
    /// The measurement window `[warmup, horizon)` is empty.
    EmptyWindow { horizon: u64, warmup: u64 },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::CombinationalCycle { edge } => {
                write!(f, "combinational cycle through edge {edge}")
            }
            MachineError::Deadlock { at_cycle } => write!(f, "deadlock at cycle {at_cycle}"),
            MachineError::EmptyWindow { horizon, warmup } => write!(
                f,
                "empty measurement window: warm-up {warmup} is not below horizon {horizon}"
            ),
        }
    }
}

impl Error for MachineError {}

/// One channel's runtime state.
#[derive(Debug, Clone)]
struct Channel {
    /// Arrival cycle of each in-flight/stored token (monotone queue).
    queue: VecDeque<u64>,
    /// Passive anti-tokens waiting at the consumer side.
    anti: u64,
    latency: u64,
}

impl Channel {
    fn settle_anti(&mut self) {
        while self.anti > 0 && !self.queue.is_empty() {
            self.queue.pop_front();
            self.anti -= 1;
        }
    }

    /// Token consumable at cycle `now` (ignores same-cycle wire pushes —
    /// callers account for those via `wire_pending`).
    fn offers(&self, now: u64) -> bool {
        self.anti == 0 && self.queue.front().is_some_and(|&a| a <= now)
    }
}

/// What happened in one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// Which nodes fired this cycle.
    pub fired: Vec<bool>,
    /// `true` when the machine can still make progress (a node fired or a
    /// token is still in flight).
    pub live: bool,
}

/// A running elastic machine over an RRG configuration.
///
/// Use [`crate::simulate`] for γ-randomised runs; drive
/// [`Machine::step_with`] directly for deterministic exploration, and
/// [`Machine::canonical_state_into`] / [`Machine::load_state`] to save and
/// restore the state between steps. The machine borrows its graph.
#[derive(Debug, Clone)]
pub struct Machine<'g> {
    graph: &'g Rrg,
    wire_topo: Vec<NodeId>,
    early_nodes: Vec<NodeId>,
    channels: Vec<Channel>,
    /// Pending guard selection per node (an input-edge id), early only.
    selection: Vec<Option<EdgeId>>,
    /// Scratch: tokens produced on wires during firing-set computation.
    wire_pending: Vec<u64>,
    now: u64,
    fired_total: Vec<u64>,
    max_occupancy: Vec<u64>,
    max_anti: Vec<u64>,
}

impl<'g> Machine<'g> {
    /// Builds a machine for the graph's own configuration.
    ///
    /// # Errors
    ///
    /// [`MachineError::CombinationalCycle`] if the wire subgraph is cyclic.
    pub fn new(g: &'g Rrg) -> Result<Machine<'g>, MachineError> {
        let buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
        let wire_topo = algo::combinational_topo_order(g, &buffers)
            .map_err(|edge| MachineError::CombinationalCycle { edge })?;
        let channels: Vec<Channel> = g
            .edges()
            .map(|(_, e)| {
                let mut queue = VecDeque::new();
                let mut anti = 0;
                if e.tokens() >= 0 {
                    for _ in 0..e.tokens() {
                        queue.push_back(0); // resident tokens: ready at once
                    }
                } else {
                    anti = (-e.tokens()) as u64;
                }
                Channel {
                    queue,
                    anti,
                    latency: e.buffers() as u64,
                }
            })
            .collect();
        let n = g.num_nodes();
        let early_nodes = g
            .nodes()
            .filter(|(_, node)| node.is_early())
            .map(|(id, _)| id)
            .collect();
        Ok(Machine {
            graph: g,
            wire_topo,
            early_nodes,
            wire_pending: vec![0; g.num_edges()],
            channels,
            selection: vec![None; n],
            now: 0,
            fired_total: vec![0; n],
            max_occupancy: vec![0; g.num_edges()],
            max_anti: vec![0; g.num_edges()],
        })
    }

    /// Current cycle number.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total firings per node since construction.
    pub fn fired_total(&self) -> &[u64] {
        &self.fired_total
    }

    /// Highest token occupancy seen per channel (in-flight + stored).
    pub fn max_occupancy(&self) -> &[u64] {
        &self.max_occupancy
    }

    /// Highest anti-token debt seen per channel.
    pub fn max_anti(&self) -> &[u64] {
        &self.max_anti
    }

    /// Early nodes whose guard is currently undrawn, in id order; `draw`
    /// will be asked for exactly these on the next [`Machine::step_with`].
    pub fn undrawn_early_nodes(&self) -> Vec<NodeId> {
        self.early_nodes
            .iter()
            .copied()
            .filter(|id| self.selection[id.index()].is_none())
            .collect()
    }

    /// A canonical encoding of the machine state (queue ages, anti
    /// counters, pending selections). Two machines with equal encodings
    /// behave identically from here on — the key for `rr-markov`'s
    /// reachability analysis.
    pub fn canonical_state(&self) -> Vec<u64> {
        let mut s = Vec::new();
        self.canonical_state_into(&mut s);
        s
    }

    /// Writes the canonical encoding into `s` (cleared first): per
    /// channel its queue length, each token's remaining latency and its
    /// anti-token count, then each early node's pending selection
    /// (`u64::MAX` when undrawn). State-key interners probe millions of
    /// candidate successors; reusing one scratch buffer keeps the hot
    /// enumeration loop allocation-free.
    pub fn canonical_state_into(&self, s: &mut Vec<u64>) {
        s.clear();
        for ch in &self.channels {
            s.push(ch.queue.len() as u64);
            for &a in &ch.queue {
                s.push(a.saturating_sub(self.now));
            }
            s.push(ch.anti);
        }
        for &v in &self.early_nodes {
            s.push(match self.selection[v.index()] {
                None => u64::MAX,
                Some(e) => e.index() as u64,
            });
        }
    }

    /// Restores the state encoded by [`Machine::canonical_state_into`]:
    /// its inverse, with the key's latencies counted from the current
    /// cycle. The firing and occupancy counters keep running. `rr-markov`
    /// keeps only the keys of the reachable states and steps one machine
    /// from each in turn.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not the encoding of a state of a machine over
    /// the same graph.
    pub fn load_state(&mut self, key: &[u64]) {
        let mut words = key.iter().copied();
        let mut next = || words.next().expect("state key too short");
        for ch in &mut self.channels {
            let len = next();
            ch.queue.clear();
            for _ in 0..len {
                ch.queue.push_back(self.now + next());
            }
            ch.anti = next();
        }
        for &v in &self.early_nodes {
            self.selection[v.index()] = match next() {
                u64::MAX => None,
                e => Some(EdgeId(e as usize)),
            };
        }
        assert!(words.next().is_none(), "state key too long");
    }

    /// Executes one clock cycle with externally supplied guard draws.
    ///
    /// `draw(node)` is called once per early node whose pending selection
    /// is empty at the start of the cycle; it must return one of the
    /// node's input edges. Randomised callers pass a γ-weighted sampler;
    /// `rr-markov` enumerates every combination.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `draw` returns an edge that does not enter
    /// its node.
    pub fn step_with(&mut self, mut draw: impl FnMut(NodeId) -> EdgeId) -> StepOutcome {
        // Draw pending guards eagerly — distribution-equivalent to lazy
        // draws because selections are independent of this cycle's events.
        for i in 0..self.early_nodes.len() {
            let v = self.early_nodes[i];
            if self.selection[v.index()].is_none() {
                let e = draw(v);
                debug_assert_eq!(
                    self.graph.edge(e).target(),
                    v,
                    "guard edge must enter its node"
                );
                self.selection[v.index()] = Some(e);
            }
        }
        for ch in &mut self.channels {
            ch.settle_anti();
        }

        let fired = self.firing_set();

        // Apply: consume inputs and produce outputs in wire-topo order so
        // that same-cycle wire tokens exist before their consumer pops.
        for idx in 0..self.wire_topo.len() {
            let v = self.wire_topo[idx];
            if !fired[v.index()] {
                continue;
            }
            self.fired_total[v.index()] += 1;
            let is_early = self.graph.node(v).is_early();
            let sel = self.selection[v.index()];
            for &e in self.graph.in_edges(v) {
                let ch = &mut self.channels[e.index()];
                if ch.offers(self.now) {
                    ch.queue.pop_front();
                } else {
                    debug_assert!(
                        is_early && sel != Some(e),
                        "missing token on a required input"
                    );
                    ch.anti += 1;
                }
            }
            if is_early {
                self.selection[v.index()] = None;
            }
            for &e in self.graph.out_edges(v) {
                let ch = &mut self.channels[e.index()];
                let arrival = self.now + ch.latency;
                ch.queue.push_back(arrival);
                ch.settle_anti();
            }
        }

        for (i, ch) in self.channels.iter().enumerate() {
            self.max_occupancy[i] = self.max_occupancy[i].max(ch.queue.len() as u64);
            self.max_anti[i] = self.max_anti[i].max(ch.anti);
        }

        let any_fired = fired.iter().any(|&f| f);
        let tokens_in_flight = self
            .channels
            .iter()
            .any(|c| c.queue.front().is_some_and(|&a| a > self.now));
        self.now += 1;
        StepOutcome {
            fired,
            live: any_fired || tokens_in_flight,
        }
    }

    /// This cycle's firing set: one wire-topo pass.
    fn firing_set(&mut self) -> Vec<bool> {
        self.wire_pending.fill(0);
        let mut fired = vec![false; self.graph.num_nodes()];
        for idx in 0..self.wire_topo.len() {
            let v = self.wire_topo[idx];
            if self.inputs_ready(v) {
                fired[v.index()] = true;
                for &e in self.graph.out_edges(v) {
                    if self.channels[e.index()].latency == 0 {
                        self.wire_pending[e.index()] += 1;
                    }
                }
            }
        }
        fired
    }

    /// Readiness of `v`'s guard inputs, counting same-cycle wire tokens
    /// recorded in `wire_pending`.
    fn inputs_ready(&self, v: NodeId) -> bool {
        let check = |e: EdgeId| -> bool {
            let ch = &self.channels[e.index()];
            if ch.anti > 0 {
                // A wire produces at most one token per cycle; it can only
                // cancel debt, never satisfy the consumer as well.
                return false;
            }
            ch.offers(self.now) || (ch.latency == 0 && self.wire_pending[e.index()] > 0)
        };
        match self.graph.node(v).kind() {
            NodeKind::Simple => {
                !self.graph.in_edges(v).is_empty()
                    && self.graph.in_edges(v).iter().all(|&e| check(e))
            }
            NodeKind::EarlyEval => {
                let sel = self.selection[v.index()].expect("selection drawn at cycle start");
                check(sel)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn figure_1a_machine_runs_at_rate_one() {
        let g = figures::figure_1a(0.5);
        let mut m = Machine::new(&g).unwrap();
        let mux = g.node_by_name("m").unwrap();
        for _ in 0..100 {
            // Always select the (token-rich) top channel.
            m.step_with(|_| figures::edge::TOP);
        }
        let fired = m.fired_total()[mux.index()];
        assert!(fired >= 98, "mux fired {fired} times in 100 cycles");
    }

    #[test]
    fn anti_tokens_accumulate_and_cancel() {
        let g = figures::figure_1b(0.5);
        let mut m = Machine::new(&g).unwrap();
        for _ in 0..50 {
            m.step_with(|_| figures::edge::TOP);
        }
        let bottom = figures::edge::BOTTOM.index();
        assert!(m.max_anti()[bottom] > 0, "no anti-tokens were issued");
        // Debt stays bounded: every f firing feeds the bottom channel.
        let ch_anti = m.max_anti()[bottom];
        assert!(ch_anti <= 5, "debt exploded: {ch_anti}");
    }

    #[test]
    fn canonical_state_detects_periodicity() {
        // Figure 1(a) with a fixed guard is deterministic with period 1
        // once warmed up.
        let g = figures::figure_1a(0.5);
        let mut m = Machine::new(&g).unwrap();
        for _ in 0..10 {
            m.step_with(|_| figures::edge::TOP);
        }
        let s1 = m.canonical_state();
        m.step_with(|_| figures::edge::TOP);
        let s2 = m.canonical_state();
        assert_eq!(s1, s2, "steady state should be a fixed point");
    }

    #[test]
    fn undrawn_guards_are_reported_and_drawn_once() {
        let g = figures::figure_1b(0.5);
        let mut m = Machine::new(&g).unwrap();
        assert_eq!(m.undrawn_early_nodes().len(), 1);
        let mut draws = 0;
        m.step_with(|_| {
            draws += 1;
            figures::edge::TOP
        });
        assert_eq!(draws, 1);
        // Selection consumed on firing (top is full: the mux fires at
        // cycle 0) → undrawn again.
        assert_eq!(m.undrawn_early_nodes().len(), 1);
    }

    /// One machine, loaded in turn with the key of every state of another
    /// machine's run, replays each step: the same firings and the same
    /// successor key, through anti-token debt, in-flight tokens and
    /// pending guards. The loaded machine runs five cycles ahead, so the
    /// key's latencies must count from its own clock.
    #[test]
    fn loaded_key_replays_its_machine() {
        let g = figures::figure_1b_pipeline(&[3, 2], 0.6);
        let mut draws = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |v: NodeId| {
            draws = draws.rotate_left(7) ^ 0xD1B5_4A32_D192_ED03;
            let ins = g.in_edges(v);
            ins[draws as usize % ins.len()]
        };
        let mut original = Machine::new(&g).unwrap();
        let mut loaded = Machine::new(&g).unwrap();
        for _ in 0..5 {
            loaded.step_with(&mut draw);
        }
        let (mut debt, mut in_flight, mut pending) = (false, false, false);
        for cycle in 0..200 {
            let key = original.canonical_state();
            loaded.load_state(&key);
            assert_eq!(
                loaded.canonical_state(),
                key,
                "cycle {cycle}: load ≠ inverse"
            );
            debt |= original.channels.iter().any(|ch| ch.anti > 0);
            in_flight |= original
                .channels
                .iter()
                .any(|ch| ch.queue.iter().any(|&a| a > original.now));
            pending |= original.selection.iter().any(Option::is_some);
            let mut picks = Vec::new();
            let a = original.step_with(|v| {
                let e = draw(v);
                picks.push(e);
                e
            });
            let mut replay = picks.into_iter();
            let b = loaded.step_with(|_| replay.next().expect("same undrawn guards"));
            assert_eq!(a, b, "cycle {cycle}: firings differ");
            assert_eq!(
                loaded.canonical_state(),
                original.canonical_state(),
                "cycle {cycle}: successor keys differ"
            );
        }
        assert!(debt && in_flight && pending, "{debt} {in_flight} {pending}");
    }

    #[test]
    fn bounded_wires_force_joint_firing_at_full_rate() {
        use rr_rrg::RrgBuilder;
        // a → b over a wire; b → a with one buffered token. The cycle has
        // one token and one EB, so the rate is 1; the wire makes a and b
        // fire in the same cycles.
        let mut bld = RrgBuilder::new();
        let a = bld.add_simple("a", 1.0);
        let b = bld.add_simple("b", 1.0);
        bld.add_edge(a, b, 0, 0);
        bld.add_edge(b, a, 1, 1);
        let g = bld.build().unwrap();
        let mut m = Machine::new(&g).unwrap();
        for _ in 0..40 {
            m.step_with(|_| unreachable!("no early nodes"));
        }
        let fa = m.fired_total()[a.index()];
        let fb = m.fired_total()[b.index()];
        assert_eq!(fa, fb, "wire forces joint firing");
        assert!(fa >= 39, "cycle ratio 1/1 → rate 1, fired {fa}");
    }

    #[test]
    fn bounded_starved_buffer_halves_the_rate() {
        use rr_rrg::RrgBuilder;
        // Two-EB ring with one token: latency 2 per revolution → rate 1/2.
        let mut bld = RrgBuilder::new();
        let a = bld.add_simple("a", 1.0);
        let b = bld.add_simple("b", 1.0);
        bld.add_edge(a, b, 0, 1);
        bld.add_edge(b, a, 1, 1);
        let g = bld.build().unwrap();
        let mut m = Machine::new(&g).unwrap();
        for _ in 0..40 {
            m.step_with(|_| unreachable!("no early nodes"));
        }
        let fa = m.fired_total()[a.index()];
        assert!((19..=21).contains(&fa), "fired {fa}");
    }
}
