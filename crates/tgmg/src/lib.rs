//! Timed Guarded Marked Graphs (TGMGs) and the throughput machinery of §3.
//!
//! A TGMG (Júlvez/Cortadella/Kishinevsky, ICCAD'06; Definitions 3.1–3.4 of
//! the paper) is a marked graph whose *early-evaluation* nodes fire as soon
//! as one probabilistically-selected input ("guard") carries a token,
//! consuming one token from **every** input — possibly driving the
//! non-selected inputs negative, which is exactly the anti-token
//! counterflow of elastic systems.
//!
//! This crate implements:
//!
//! * the TGMG data model and firing semantics ([`gmg`]),
//! * the RRG → TGMG translation, i.e. the paper's **Procedure 1** (an edge
//!   with `R` buffers becomes a delay-`R` node) and **Procedure 2** (a
//!   unit-delay throttle per early node) — in a *skeleton* form that can be
//!   instantiated for any retiming/recycling configuration ([`skeleton`]),
//! * the **LP throughput upper bound** (4), `Θ_lp` ([`lp_bound`]),
//! * an event-driven **discrete-event simulator** measuring the actual
//!   steady-state throughput `Θ` ([`sim`]) — the stand-in for the paper's
//!   RTL simulations (Lemma 3.1 guarantees the refined TGMG has exactly
//!   the RRG's throughput). Each instant visits only the nodes whose
//!   inputs rose, in full-scan order, and pending completions sit in a
//!   calendar ring,
//! * the exact **late-evaluation throughput** (minimum cycle ratio) used
//!   for baselines and cross-checks ([`late`]).
//!
//! # Example
//!
//! ```
//! use rr_rrg::figures;
//! use rr_tgmg::{skeleton::TgmgSkeleton, lp_bound, sim};
//!
//! let rrg = figures::figure_2(0.9);
//! let tgmg = TgmgSkeleton::of(&rrg).instantiate_from(&rrg);
//! let bound = lp_bound::throughput_upper_bound(&tgmg)?;
//! let measured = sim::simulate(&tgmg, &sim::SimParams::default())?.throughput;
//! // Θ = 1/(3−2α) = 5/6; the LP bound is an upper bound on the measured Θ.
//! assert!(measured <= bound + 0.02);
//! assert!((measured - 5.0 / 6.0).abs() < 0.02);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod gmg;
pub mod late;
pub mod lp_bound;
pub mod sim;
pub mod skeleton;

pub use gmg::{Tgmg, TgmgEdge, TgmgNode};
pub use skeleton::{DelaySrc, MarkingSrc, NodeTag, TgmgSkeleton};

#[cfg(test)]
mod proptests;
