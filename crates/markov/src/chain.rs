//! Reachable-state enumeration into a compressed sparse row (CSR) chain.
//!
//! The chain of an elastic machine is extremely sparse: each state has one
//! successor per guard combination (a handful), while pipelined state
//! spaces run to 10⁴–10⁵ states. Per-state `Vec`s of transitions waste a
//! pointer-and-capacity header per state and scatter the rows over the
//! heap; the CSR layout below stores the whole transition structure in
//! four flat arrays, so the solve streams it cache-linearly.
//!
//! A state is its canonical key ([`Machine::canonical_state_into`]),
//! stored once. One machine explores them all: it loads a state's key
//! ([`Machine::load_state`]), steps one guard combination, encodes the
//! successor and interns it.

use std::collections::HashMap;
use std::rc::Rc;

use rr_elastic::{Machine, MachineError};
use rr_rrg::{EdgeId, NodeId, Rrg};

use crate::MarkovError;

/// The explicit chain in CSR form: state `s`'s transitions are the index
/// range `row_offsets[s]..row_offsets[s + 1]` of the parallel
/// `cols`/`probs`/`rewards` arrays (successor state, transition
/// probability, expected reward — 1.0 when the reference node fired).
#[derive(Debug, Clone)]
pub struct Chain {
    row_offsets: Vec<usize>,
    cols: Vec<u32>,
    probs: Vec<f64>,
    rewards: Vec<f64>,
}

impl Chain {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Successor states of `s`, in [`Chain::row`]'s order.
    pub fn succs(&self, s: usize) -> &[u32] {
        &self.cols[self.row_offsets[s]..self.row_offsets[s + 1]]
    }

    /// `(successor, probability, reward)` triples out of `s`.
    pub fn row(&self, s: usize) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        let r = self.row_offsets[s]..self.row_offsets[s + 1];
        r.map(move |i| (self.cols[i] as usize, self.probs[i], self.rewards[i]))
    }

    /// Expected one-step reward from `s`.
    pub fn expected_reward(&self, s: usize) -> f64 {
        let r = self.row_offsets[s]..self.row_offsets[s + 1];
        r.map(|i| self.probs[i] * self.rewards[i]).sum()
    }
}

/// Interns canonical state keys: each distinct key is stored once, shared
/// by the lookup map and the index-ordered list, and identified by its
/// dense state index. Lookups probe with a borrowed slice, so the
/// enumeration loop allocates only on first sight of a state.
#[derive(Default)]
struct StateInterner {
    index: HashMap<Rc<[u64]>, u32>,
    keys: Vec<Rc<[u64]>>,
    /// Total length of the interned keys.
    words: usize,
}

impl StateInterner {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns the state index for `key`, interning it when new; the
    /// second component is `true` on first sight.
    fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        if let Some(&i) = self.index.get(key) {
            return (i, false);
        }
        let i = u32::try_from(self.keys.len()).expect("state index fits u32");
        let key: Rc<[u64]> = key.into();
        self.words += key.len();
        self.index.insert(Rc::clone(&key), i);
        self.keys.push(key);
        (i, true)
    }
}

/// How far a row's outgoing probability mass may drift from 1 before the
/// chain is rejected as inconsistent ([`MarkovError::ProbabilityLeak`]).
///
/// Deliberately three decades stricter than the graph builder's
/// `rr_rrg::validate::GAMMA_TOL` (1e-6): the builder is lenient towards
/// hand-entered γs, but an *exact* solver must not silently absorb a
/// leak — a row mass of `1 − 5e-7` biases every stationary probability at
/// the same order, which is above the 1e-7 agreement this crate promises.
/// Callers with builder-valid-but-drifting γs should renormalise them;
/// masses within float rounding of 1 (≤ 1e-9, orders above the ~1e-15
/// accumulation error of well-formed draws) always pass.
pub const ROW_MASS_TOLERANCE: f64 = 1e-9;

/// Enumerates guard-choice combinations and successor states into a CSR
/// chain. State 0 is the machine's initial state; states are discovered
/// breadth-first, and every row's probability mass is validated against
/// [`ROW_MASS_TOLERANCE`] as it is emitted.
///
/// # Errors
///
/// [`MarkovError::StateSpaceTooLarge`] past `max_states` states, or once
/// the interned keys hold more than `2 · max_states` times the initial
/// key's length in words: a queue that grows without end lengthens the
/// keys with the exploration depth, so the state count alone does not
/// bound memory. [`MarkovError::ProbabilityLeak`] when a state's outgoing
/// probabilities do not sum to 1 (a machine or γ-assignment bug that
/// would silently skew the solve); [`MarkovError::Machine`] from machine
/// construction, and [`MachineError::Deadlock`] at cycle 0 for a graph
/// without nodes, which has no reference node to fire.
pub fn build_chain(g: &Rrg, max_states: usize) -> Result<Chain, MarkovError> {
    if g.num_nodes() == 0 {
        return Err(MachineError::Deadlock { at_cycle: 0 }.into());
    }
    let mut machine = Machine::new(g)?;
    let mut states = StateInterner::default();
    let mut key: Vec<u64> = Vec::new();
    machine.canonical_state_into(&mut key);
    states.intern(&key);
    let max_words = max_states.saturating_mul(2 * key.len());

    let mut row_offsets = vec![0usize];
    let mut cols: Vec<u32> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    let mut rewards: Vec<f64> = Vec::new();

    // States are indexed in discovery order, so scanning `s` upward visits
    // every state after it has been interned: the CSR rows are emitted in
    // order without a separate frontier or per-state buffers.
    let mut s = 0usize;
    while s < states.len() {
        let current = Rc::clone(&states.keys[s]);
        machine.load_state(&current);
        let combos = guard_combinations(g, &machine.undrawn_early_nodes());
        let mut row_mass = 0.0f64;
        for (choice, prob) in combos {
            machine.load_state(&current);
            let mut it = choice.iter();
            let outcome = machine.step_with(|v| {
                let &(node, edge) = it.next().expect("draw called more times than undrawn");
                debug_assert_eq!(node, v, "draw order mismatch");
                edge
            });
            let reward = f64::from(outcome.fired[0]);
            machine.canonical_state_into(&mut key);
            let (next, new) = states.intern(&key);
            if new && (states.len() > max_states || states.words > max_words) {
                return Err(MarkovError::StateSpaceTooLarge { limit: max_states });
            }
            cols.push(next);
            probs.push(prob);
            rewards.push(reward);
            row_mass += prob;
        }
        if (row_mass - 1.0).abs() > ROW_MASS_TOLERANCE {
            return Err(MarkovError::ProbabilityLeak {
                state: s,
                mass: row_mass,
            });
        }
        row_offsets.push(cols.len());
        s += 1;
    }
    Ok(Chain {
        row_offsets,
        cols,
        probs,
        rewards,
    })
}

/// One guard draw per undrawn early node, with the joint probability of
/// the combination.
type GuardCombo = (Vec<(NodeId, EdgeId)>, f64);

/// Cartesian product of guard choices for the undrawn early nodes, with
/// the probability of each combination. Each combination lists its nodes
/// in `undrawn`'s ascending id order, the order `step_with` draws them in.
fn guard_combinations(g: &Rrg, undrawn: &[NodeId]) -> Vec<GuardCombo> {
    let mut combos: Vec<GuardCombo> = vec![(Vec::new(), 1.0)];
    for &v in undrawn {
        let mut next = Vec::with_capacity(combos.len() * g.in_edges(v).len());
        for &e in g.in_edges(v) {
            let p = g
                .edge(e)
                .gamma()
                .expect("validated RRGs have γ on early inputs");
            for (combo, cp) in &combos {
                let mut c = combo.clone();
                c.push((v, e));
                next.push((c, cp * p));
            }
        }
        combos = next;
    }
    combos
}

#[cfg(test)]
impl Chain {
    /// A chain from explicit rows of `(successor, probability, reward)`.
    pub(crate) fn from_rows(rows: &[&[(u32, f64, f64)]]) -> Chain {
        let mut chain = Chain {
            row_offsets: vec![0],
            cols: Vec::new(),
            probs: Vec::new(),
            rewards: Vec::new(),
        };
        for row in rows {
            for &(t, p, r) in row.iter() {
                chain.cols.push(t);
                chain.probs.push(p);
                chain.rewards.push(r);
            }
            chain.row_offsets.push(chain.cols.len());
        }
        chain
    }
}
