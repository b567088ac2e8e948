//! Failure taxonomy, recovery ledger and deterministic fault injection.
//!
//! # Failure taxonomy and recovery ladder
//!
//! Every numerical failure the MILP engine can hit is classified as a
//! [`NumericalEvent`] and answered by one **escalation ladder**, in
//! order of increasing cost:
//!
//! 1. **Retry the Forrest–Tomlin update** from the entering column
//!    (recomputing the spike) when the spiked update is refused — heals
//!    a corrupted spike without touching the factors.
//! 2. **Forced refactorization** of the current basis — the classic
//!    answer to a refused update or to residual drift.
//! 3. **Product-form switch** for the node: re-solve under the
//!    product-form eta file, the conservative update scheme.
//! 4. **Cold basis rebuild**: a fresh kernel over the same form (column
//!    boxes carried over), discarding every piece of possibly corrupted
//!    state.
//! 5. **Bland-only pricing** for the node: escapes cycling that the
//!    automatic Dantzig→Bland switch did not catch.
//! 6. **Dense-oracle kernel** for the node: the kernel rebuilt under the
//!    [`Kernel::DenseTableau`](crate::Kernel) request, i.e. the dense-LU
//!    snapshot with product-form updates — slowest, most robust.
//!
//! Rungs 1–2 act per pivot inside the revised kernel; rungs 3–6 act per
//! branch & bound node (see `WarmBackend::solve_node`). Which events
//! occurred and which rungs fired is recorded in [`RecoveryStats`],
//! surfaced as [`BranchBoundStats::recovery`](crate::BranchBoundStats).
//!
//! A **residual health monitor** backs the ladder: every
//! `RESIDUAL_CHECK_EVERY` pivots, and before any node bound is
//! trusted, the kernel checks `‖B·x_B − b_eff‖∞` against `1e3·FEAS_TOL`
//! times the per-row rhs scale; drift triggers a
//! refactorization and, if the state cannot be certified, the next
//! ladder rung. A corrupted factorization can therefore never produce a
//! wrong prune.
//!
//! # Fault injection
//!
//! [`FaultPlan`] (wired through `SolverOptions::faults`, default off and
//! compiled in always — no `cfg` forest) drives a deterministic
//! `FaultInjector`: per injection site, the first `skip` opportunities
//! pass clean, then the next `count` fire back-to-back. Consecutive
//! firing is what lets one seed walk the *entire* node ladder: a faked
//! iteration limit on a cold solve fails the product-form, rebuild and
//! Bland rungs too, leaving the dense oracle to complete the node. All
//! randomness comes from an inline SplitMix64 stream seeded by
//! [`FaultPlan::seed`], so every run of a plan is bit-reproducible.

/// Pivot interval of the in-loop residual health monitor.
pub(crate) const RESIDUAL_CHECK_EVERY: usize = 128;

/// Structured classification of a numerical failure (or a budget hit)
/// observed by the solver. Recording is one-way bookkeeping: reacting is
/// the recovery ladder's job (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericalEvent {
    /// A Forrest–Tomlin update was refused as unstable (or its spike was
    /// corrupted).
    UnstableUpdate,
    /// Refactorization found (or was injected to find) a singular basis.
    SingularRefactor,
    /// A long degenerate run tripped the Dantzig→Bland anti-cycling
    /// switch.
    CyclingSuspected,
    /// The residual health monitor found `‖B·x_B − b_eff‖∞` out of
    /// tolerance.
    ResidualDrift,
    /// The pivot budget ran out (genuine or injected).
    PivotBudget,
    /// The wall-clock budget ran out (genuine or injected).
    TimeBudget,
}

/// Counters of observed [`NumericalEvent`]s and of recovery-ladder rungs
/// fired, accumulated per kernel and surfaced through
/// [`BranchBoundStats::recovery`](crate::BranchBoundStats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// [`NumericalEvent::UnstableUpdate`] observations.
    pub unstable_updates: usize,
    /// [`NumericalEvent::SingularRefactor`] observations.
    pub singular_refactors: usize,
    /// [`NumericalEvent::CyclingSuspected`] observations.
    pub cycling_suspected: usize,
    /// [`NumericalEvent::ResidualDrift`] observations.
    pub residual_drift: usize,
    /// [`NumericalEvent::PivotBudget`] observations.
    pub pivot_budget: usize,
    /// [`NumericalEvent::TimeBudget`] observations.
    pub time_budget: usize,
    /// Rung 1: refused spiked FT updates healed by recomputing the spike
    /// from the entering column.
    pub ft_retries: usize,
    /// Rung 2: refactorizations forced by a refused update or by
    /// residual drift (scheduled policy refactors are not counted here).
    pub forced_refactors: usize,
    /// Rung 3: nodes re-solved under the product-form update scheme.
    pub product_form_switches: usize,
    /// Rung 4: nodes re-solved on a freshly rebuilt kernel.
    pub cold_rebuilds: usize,
    /// Rung 5: nodes re-solved under Bland-only pricing.
    pub bland_restarts: usize,
    /// Rung 6: nodes re-solved by the dense-oracle factorization.
    pub dense_oracle_solves: usize,
    /// Faults actually fired by the `FaultInjector` (0 on clean runs).
    pub faults_injected: usize,
}

impl RecoveryStats {
    /// Records one observed event.
    pub(crate) fn record(&mut self, ev: NumericalEvent) {
        match ev {
            NumericalEvent::UnstableUpdate => self.unstable_updates += 1,
            NumericalEvent::SingularRefactor => self.singular_refactors += 1,
            NumericalEvent::CyclingSuspected => self.cycling_suspected += 1,
            NumericalEvent::ResidualDrift => self.residual_drift += 1,
            NumericalEvent::PivotBudget => self.pivot_budget += 1,
            NumericalEvent::TimeBudget => self.time_budget += 1,
        }
    }

    /// Sum of all recovery-rung counters — `> 0` proves the ladder
    /// actually fired.
    pub fn rungs_fired(&self) -> usize {
        self.ft_retries
            + self.forced_refactors
            + self.product_form_switches
            + self.cold_rebuilds
            + self.bland_restarts
            + self.dense_oracle_solves
    }

    /// Sum of all event counters.
    pub fn events_observed(&self) -> usize {
        self.unstable_updates
            + self.singular_refactors
            + self.cycling_suspected
            + self.residual_drift
            + self.pivot_budget
            + self.time_budget
    }

    /// Accumulates `other` into `self` (used by test harnesses that
    /// union coverage across a suite of solves).
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.unstable_updates += other.unstable_updates;
        self.singular_refactors += other.singular_refactors;
        self.cycling_suspected += other.cycling_suspected;
        self.residual_drift += other.residual_drift;
        self.pivot_budget += other.pivot_budget;
        self.time_budget += other.time_budget;
        self.ft_retries += other.ft_retries;
        self.forced_refactors += other.forced_refactors;
        self.product_form_switches += other.product_form_switches;
        self.cold_rebuilds += other.cold_rebuilds;
        self.bland_restarts += other.bland_restarts;
        self.dense_oracle_solves += other.dense_oracle_solves;
        self.faults_injected += other.faults_injected;
    }
}

/// The injection sites of the revised kernel and its factorization
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSite {
    /// Corrupt the Forrest–Tomlin spike before the update (the update is
    /// refused; rung 1 recomputes the spike and heals).
    PerturbFtSpike,
    /// Force the factorization to refuse the next updates outright, as a
    /// near-singular pivot would (rung 2 refactorizes).
    RefuseFtUpdate,
    /// Make a refactorization report a singular basis.
    SingularRefactor,
    /// Corrupt the basic values accepted by the final ratio test — the
    /// residual monitor must catch this before the bound is trusted.
    PoisonRatioTest,
    /// Fake an exhausted pivot budget at a cold-solve entry.
    FakeIterationLimit,
    /// Pretend a degenerate run tripped the anti-cycling switch.
    InjectCycling,
    /// Fake an expired wall clock at a pivot-loop checkpoint.
    FakeTimeLimit,
}

const NUM_SITES: usize = 7;

/// A seeded, deterministic plan of faults to inject, carried by
/// `SolverOptions::faults` (default `None` — no injection, zero
/// overhead beyond one branch per site). Each field is the number of
/// times that site fires; *when* it fires is derived from [`seed`]
/// (see `FaultInjector`).
///
/// [`seed`]: FaultPlan::seed
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the SplitMix64 stream that spaces the injections.
    pub seed: u64,
    /// Fire count of `FaultSite::PerturbFtSpike`.
    pub perturb_ft_spike: u32,
    /// Fire count of `FaultSite::RefuseFtUpdate`.
    pub refuse_ft_update: u32,
    /// Fire count of `FaultSite::SingularRefactor`.
    pub singular_refactor: u32,
    /// Fire count of `FaultSite::PoisonRatioTest`.
    pub poison_ratio_test: u32,
    /// Fire count of `FaultSite::FakeIterationLimit`.
    pub fake_iteration_limit: u32,
    /// Fire count of `FaultSite::InjectCycling`.
    pub inject_cycling: u32,
    /// Fire count of `FaultSite::FakeTimeLimit`.
    pub fake_time_limit: u32,
}

impl FaultPlan {
    /// The reference plan of the fault-injection gates: every site
    /// armed, with fire counts chosen so a solve survives them all.
    /// `fake_iteration_limit` is 4 on purpose: fired back-to-back from
    /// the first cold solve, it fails the cold attempt **and** the
    /// product-form, rebuild and Bland rungs, so the dense-oracle rung
    /// must complete the node — one seed exercises the whole ladder
    /// while never exhausting it (the dense attempt always runs clean).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            perturb_ft_spike: 2,
            refuse_ft_update: 2,
            singular_refactor: 1,
            poison_ratio_test: 1,
            fake_iteration_limit: 4,
            inject_cycling: 1,
            fake_time_limit: 1,
        }
    }
}

/// SplitMix64 — the classic 64-bit mixer; inlined because the vendored
/// `rand` is a stub and determinism is the whole point here.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Per-site runtime state: pass `skip` opportunities clean, then fire
/// `remaining` times back-to-back, then stay dormant.
#[derive(Debug, Clone, Copy)]
struct SiteState {
    skip: u32,
    remaining: u32,
}

/// Runtime driver of a [`FaultPlan`]; owned by the revised kernel and
/// consulted (one cheap branch) at each injection site.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    sites: [SiteState; NUM_SITES],
}

impl FaultInjector {
    /// Builds the injector: fire counts from the plan, skips from the
    /// seed. Two sites keep a zero skip by construction:
    /// `FakeIterationLimit`, so its consecutive burst starts at the
    /// *first* cold solve (where the node ladder is guaranteed to wrap
    /// it), and `FakeTimeLimit`, whose opportunities (pivot-loop
    /// checkpoints) are plentiful on any instance.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut rng = SplitMix64(plan.seed);
        let skip_small = |rng: &mut SplitMix64| (rng.next() % 2) as u32;
        let sites = [
            // PerturbFtSpike: FT updates are a constant stream; a larger
            // skip moves the corruption past the root solve.
            SiteState {
                skip: 4 + (rng.next() % 4) as u32,
                remaining: plan.perturb_ft_spike,
            },
            // RefuseFtUpdate: offset further so it hits a different
            // pivot than the spike corruption.
            SiteState {
                skip: 9 + skip_small(&mut rng),
                remaining: plan.refuse_ft_update,
            },
            // SingularRefactor: past the refactors the node ladder
            // itself performs, so the dense rung is not sabotaged.
            SiteState {
                skip: 8 + skip_small(&mut rng),
                remaining: plan.singular_refactor,
            },
            // PoisonRatioTest: a later phase-2 optimum (a warm node).
            SiteState {
                skip: 3 + skip_small(&mut rng),
                remaining: plan.poison_ratio_test,
            },
            SiteState {
                skip: 0,
                remaining: plan.fake_iteration_limit,
            },
            // InjectCycling: a pivot run after the root ladder settles.
            SiteState {
                skip: 4 + skip_small(&mut rng),
                remaining: plan.inject_cycling,
            },
            SiteState {
                skip: 6,
                remaining: plan.fake_time_limit,
            },
        ];
        FaultInjector { sites }
    }

    /// One opportunity at `site`: `true` when the fault fires now.
    pub fn fire(&mut self, site: FaultSite) -> bool {
        let s = &mut self.sites[site as usize];
        if s.remaining == 0 {
            return false;
        }
        if s.skip > 0 {
            s.skip -= 1;
            return false;
        }
        s.remaining -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = FaultPlan::seeded(0xDEADBEEF);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for _ in 0..64 {
            for site in [
                FaultSite::PerturbFtSpike,
                FaultSite::RefuseFtUpdate,
                FaultSite::SingularRefactor,
                FaultSite::PoisonRatioTest,
                FaultSite::FakeIterationLimit,
                FaultSite::InjectCycling,
                FaultSite::FakeTimeLimit,
            ] {
                assert_eq!(a.fire(site), b.fire(site));
            }
        }
    }

    #[test]
    fn fake_iteration_limit_fires_consecutively_from_the_first_opportunity() {
        let plan = FaultPlan::seeded(7);
        let mut inj = FaultInjector::new(&plan);
        // Skip 0, count 4: the first four opportunities fire, then done.
        for i in 0..8 {
            assert_eq!(inj.fire(FaultSite::FakeIterationLimit), i < 4, "at {i}");
        }
    }

    #[test]
    fn sites_exhaust_after_their_fire_count() {
        let plan = FaultPlan::seeded(42);
        let mut inj = FaultInjector::new(&plan);
        let mut fired = 0u32;
        for _ in 0..1000 {
            if inj.fire(FaultSite::PerturbFtSpike) {
                fired += 1;
            }
        }
        assert_eq!(fired, plan.perturb_ft_spike);
    }

    #[test]
    fn recovery_stats_record_and_absorb() {
        let mut a = RecoveryStats::default();
        a.record(NumericalEvent::UnstableUpdate);
        a.record(NumericalEvent::TimeBudget);
        a.ft_retries += 1;
        let mut b = RecoveryStats::default();
        b.record(NumericalEvent::ResidualDrift);
        b.dense_oracle_solves += 2;
        b.absorb(&a);
        assert_eq!(b.unstable_updates, 1);
        assert_eq!(b.time_budget, 1);
        assert_eq!(b.residual_drift, 1);
        assert_eq!(b.events_observed(), 3);
        assert_eq!(b.rungs_fired(), 3);
    }

    #[test]
    fn a_disarmed_plan_never_fires() {
        let plan = FaultPlan {
            seed: 1,
            perturb_ft_spike: 0,
            refuse_ft_update: 0,
            singular_refactor: 0,
            poison_ratio_test: 0,
            fake_iteration_limit: 0,
            inject_cycling: 0,
            fake_time_limit: 0,
        };
        let mut inj = FaultInjector::new(&plan);
        for _ in 0..100 {
            assert!(!inj.fire(FaultSite::FakeIterationLimit));
            assert!(!inj.fire(FaultSite::PerturbFtSpike));
        }
    }
}
