//! Cycle-accurate simulation of synchronous elastic machines with early
//! evaluation and anti-token counterflow.
//!
//! This crate is the reproduction's stand-in for the paper's generated
//! Verilog controllers: where `rr-tgmg` simulates the *abstract* timed
//! guarded marked graph, this crate executes the elastic **machine** —
//! channels with elastic-buffer pipelines, one firing per node per clock,
//! join/fork behaviour, early-evaluation multiplexers that issue
//! anti-tokens on the channels they did not use, and (optionally) real
//! back-pressure from bounded buffer capacity.
//!
//! Lemma 3.1 of the paper says both views have the same steady-state
//! throughput under the big-enough-FIFO assumption (footnote 1); the test
//! suites of both crates enforce that agreement, and the bounded-capacity
//! mode quantifies what the assumption is worth (an ablation the paper
//! cites Lu & Koh for).
//!
//! The per-cycle step function is exposed deterministically
//! ([`Machine::step_with`]) so that `rr-markov` can enumerate the exact
//! reachable state space.
//!
//! # Example
//!
//! ```
//! use rr_elastic::{simulate, MachineParams};
//! use rr_rrg::figures;
//!
//! let rrg = figures::figure_2(0.9);
//! let run = simulate(&rrg, &MachineParams::default())?;
//! // Θ = 1/(3−2·0.9) = 5/6.
//! assert!((run.throughput - 5.0 / 6.0).abs() < 0.02);
//! # Ok::<(), rr_elastic::MachineError>(())
//! ```

mod machine;
mod run;

pub use machine::{Capacity, Machine, MachineError, StepOutcome, TelescopicSpec};
pub use run::{simulate, MachineParams, RunResult};

#[cfg(test)]
mod proptests;
