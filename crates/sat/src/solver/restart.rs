//! Restart scheduling and phase management: the search-control half of
//! the solver's "when to give up on this trajectory" machinery.
//!
//! Two schedules drive restarts, one at a time:
//!
//! * the **Luby** schedule — classic reluctant doubling: the i-th run
//!   lasts `restart_base × luby(i)` conflicts. Blind to search quality,
//!   but its long tail of short runs is a robust default on small
//!   instances. It runs whenever adaptive restarts are inactive.
//! * **adaptive EMA restarts**, Glucose-style, from
//!   [`CdclConfig::ema_restarts_from`] session conflicts on. Two
//!   exponential moving averages of learnt-clause LBD are maintained:
//!   a *fast* one (α = 1/32, tracking the last few dozen conflicts)
//!   and a *slow* one (α = 1/4096, the long-run baseline). When the
//!   fast average exceeds [`EMA_RESTART_MARGIN`] × the slow one, recent
//!   conflicts are producing worse (higher-LBD) clauses than the run's
//!   norm — the trajectory has gone stale and a restart is triggered.
//!   Restarts are *blocked* (postponed by [`RestartSched::on_block`])
//!   when the assignment trail at the latest conflict is
//!   [`EMA_BLOCK_MARGIN`] × longer than its own moving average: an
//!   unusually deep trail suggests the search is closing in on a model
//!   that a restart would throw away (Glucose's trail-blocking rule).
//!
//! Like chronological backtracking ([`CdclConfig::chrono_from`]),
//! adaptive restarts are a *long-run* steering mechanism — small
//! lucky-trajectory instances (the majority gate solves in ~164
//! conflicts) finish before the default 2000-conflict gate and keep
//! their exact Luby trajectories. The simplification machinery follows
//! the same pattern behind [`CdclConfig::tiers_from`] and
//! [`CdclConfig::elim_from`], so the short runs also keep their exact
//! pre-simplification trajectories.
//!
//! [`RephaseSched`] drives target-phase rephasing: the solver snapshots
//! the polarities of the deepest trail seen (the *target phases*,
//! maintained by the solver proper) and, every
//! [`CdclConfig::rephase_interval`] conflicts (stretching with each
//! pass), resets the saved phases at a restart boundary — to the best
//! snapshot, to their inversion, or to random values, in a fixed
//! rotation. Long runs on the T-factory instances otherwise wedge into
//! one polarity basin for hundreds of thousands of conflicts.
//!
//! [`CdclConfig::ema_restarts_from`]: super::CdclConfig::ema_restarts_from
//! [`CdclConfig::chrono_from`]: super::CdclConfig::chrono_from
//! [`CdclConfig::tiers_from`]: super::CdclConfig::tiers_from
//! [`CdclConfig::elim_from`]: super::CdclConfig::elim_from
//! [`CdclConfig::rephase_interval`]: super::CdclConfig::rephase_interval

use super::{gate_open, CdclConfig};

/// The i-th element (0-based) of the Luby sequence (1, 1, 2, 1, 1, 2, 4, …).
pub(super) fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Smoothing factor of the fast (recent-window) LBD average.
pub(super) const EMA_FAST_ALPHA: f64 = 1.0 / 32.0;
/// Smoothing factor of the slow (long-run baseline) LBD and trail
/// averages.
pub(super) const EMA_SLOW_ALPHA: f64 = 1.0 / 4096.0;
/// EMA restart trigger: restart when the fast LBD average exceeds
/// this multiple of the slow one.
const EMA_RESTART_MARGIN: f64 = 1.25;
/// EMA restart blocking: postpone when the trail at the latest
/// conflict exceeds this multiple of the trail average.
const EMA_BLOCK_MARGIN: f64 = 1.4;

/// An exponential moving average primed by its first sample (so the
/// early average is not dragged toward an arbitrary zero init).
#[derive(Clone, Copy, Debug)]
pub(super) struct Ema {
    value: f64,
    alpha: f64,
    primed: bool,
}

impl Ema {
    pub(super) fn new(alpha: f64) -> Ema {
        Ema {
            value: 0.0,
            alpha,
            primed: false,
        }
    }

    pub(super) fn update(&mut self, x: f64) {
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
    }

    pub(super) fn get(&self) -> f64 {
        self.value
    }
}

/// What the scheduler wants at a quiescence point (no conflict from
/// propagation, before the next decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RestartDecision {
    /// Keep searching.
    Continue,
    /// Restart now (back to decision level 0).
    Restart,
    /// The LBD trigger fired but the trail is unusually deep: postpone
    /// (the caller counts it and calls [`RestartSched::on_block`]).
    Block,
}

/// Per-solve restart scheduler: EMAs, the conflicts-since-restart
/// counter, and the cached Luby budget.
#[derive(Clone, Debug)]
pub(super) struct RestartSched {
    fast_lbd: Ema,
    slow_lbd: Ema,
    trail_avg: Ema,
    /// Conflicts since the last restart (or blocked restart).
    conflicts_since: u64,
    /// Trail size at the most recent conflict — what blocking compares
    /// against the trail average.
    last_trail: usize,
    /// Cached `restart_base × luby(restarts)` for the current run.
    luby_budget: u64,
}

impl RestartSched {
    pub(super) fn new(config: &CdclConfig, restarts: u64) -> RestartSched {
        RestartSched {
            fast_lbd: Ema::new(EMA_FAST_ALPHA),
            slow_lbd: Ema::new(EMA_SLOW_ALPHA),
            trail_avg: Ema::new(EMA_SLOW_ALPHA),
            conflicts_since: 0,
            last_trail: 0,
            luby_budget: config.restart_base.saturating_mul(luby(restarts)),
        }
    }

    /// Feeds one analyzed conflict (its learnt LBD and the trail size
    /// at the conflict) into the averages.
    pub(super) fn on_conflict(&mut self, lbd: u32, trail: usize) {
        self.conflicts_since += 1;
        self.fast_lbd.update(lbd as f64);
        self.slow_lbd.update(lbd as f64);
        self.trail_avg.update(trail as f64);
        self.last_trail = trail;
    }

    /// The scheduling decision at a quiescence point. `total_conflicts`
    /// selects Luby-vs-EMA under [`CdclConfig::ema_restarts_from`];
    /// `restarts` is only read through the cached Luby budget.
    pub(super) fn decide(&self, config: &CdclConfig, total_conflicts: u64) -> RestartDecision {
        if !gate_open(config.ema_restarts_from, total_conflicts) {
            return if self.conflicts_since >= self.luby_budget {
                RestartDecision::Restart
            } else {
                RestartDecision::Continue
            };
        }
        if self.conflicts_since < config.ema_min_interval {
            return RestartDecision::Continue;
        }
        if self.fast_lbd.get() <= EMA_RESTART_MARGIN * self.slow_lbd.get() {
            return RestartDecision::Continue;
        }
        if (self.last_trail as f64) > EMA_BLOCK_MARGIN * self.trail_avg.get() {
            return RestartDecision::Block;
        }
        RestartDecision::Restart
    }

    /// Resets the run counter after a restart and re-caches the Luby
    /// budget for the next run.
    pub(super) fn on_restart(&mut self, config: &CdclConfig, restarts: u64) {
        self.conflicts_since = 0;
        self.luby_budget = config.restart_base.saturating_mul(luby(restarts));
    }

    /// Postpones a blocked restart: the trigger must accumulate another
    /// `ema_min_interval` conflicts before firing again (the EMA
    /// analogue of Glucose clearing its bounded LBD queue).
    pub(super) fn on_block(&mut self) {
        self.conflicts_since = 0;
    }
}

/// What a rephase pass resets the saved phases to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RephaseKind {
    /// Copy the target phases (deepest-trail snapshot).
    Best,
    /// Invert every saved phase.
    Invert,
    /// Randomize every saved phase.
    Random,
}

/// Rephasing schedule: fires every `rephase_interval × (passes + 1)`
/// conflicts (never when the interval is `None`), rotating Best →
/// Invert → Best → Random (the best snapshot is revisited twice per
/// cycle — it is the strongest signal, the other kinds exist to escape
/// it when it is wrong).
#[derive(Clone, Debug)]
pub(super) struct RephaseSched {
    /// Conflict count that triggers the next rephase.
    next: u64,
    /// Passes run so far — stretches the interval and selects the kind.
    passes: u64,
    /// Deepest trail seen since the last rephase; gates target-phase
    /// snapshots.
    pub(super) best_trail: usize,
}

impl RephaseSched {
    pub(super) fn new(config: &CdclConfig) -> RephaseSched {
        RephaseSched {
            next: config.rephase_interval.map_or(u64::MAX, |i| i.max(1)),
            passes: 0,
            best_trail: 0,
        }
    }

    /// Whether the trail at a conflict is deep enough (5% over the best
    /// so far) to re-snapshot the target phases. Keeps snapshot cost at
    /// O(log trail) copies per epoch instead of one per improvement.
    pub(super) fn improves(&self, trail: usize) -> bool {
        trail > self.best_trail + self.best_trail / 20
    }

    pub(super) fn record(&mut self, trail: usize) {
        self.best_trail = trail;
    }

    /// If the schedule has fired, returns the kind of this pass and
    /// advances the schedule (geometrically stretched, best-trail
    /// tracking re-armed).
    pub(super) fn fire(&mut self, config: &CdclConfig, conflicts: u64) -> Option<RephaseKind> {
        let interval = config.rephase_interval?.max(1);
        if conflicts < self.next {
            return None;
        }
        let kind = match self.passes % 4 {
            0 => RephaseKind::Best,
            1 => RephaseKind::Invert,
            2 => RephaseKind::Best,
            _ => RephaseKind::Random,
        };
        self.passes += 1;
        self.next = conflicts + interval.saturating_mul(self.passes + 1);
        self.best_trail = 0;
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
        // Power-of-two boundaries deep into the sequence.
        assert_eq!(luby(62), 32);
        assert_eq!(luby(63), 1);
    }

    #[test]
    fn ema_primes_on_first_sample_then_smooths() {
        let mut e = Ema::new(0.5);
        e.update(10.0);
        assert_eq!(e.get(), 10.0, "first sample primes the average");
        e.update(20.0);
        assert_eq!(e.get(), 15.0);
        e.update(15.0);
        assert_eq!(e.get(), 15.0, "at the mean the average is stationary");
    }

    fn ema_config() -> CdclConfig {
        CdclConfig {
            ema_restarts_from: Some(0),
            ema_min_interval: 4,
            ..CdclConfig::default()
        }
    }

    #[test]
    fn ema_trigger_fires_on_lbd_degradation() {
        let config = ema_config();
        let mut sched = RestartSched::new(&config, 0);
        // A long run of low-LBD conflicts: fast ≈ slow, no restart.
        for _ in 0..64 {
            sched.on_conflict(2, 10);
        }
        assert_eq!(sched.decide(&config, 64), RestartDecision::Continue);
        // LBD degrades sharply: the fast average outruns the slow one
        // past the 1.25× margin within a few conflicts.
        for _ in 0..16 {
            sched.on_conflict(30, 10);
        }
        assert_eq!(sched.decide(&config, 80), RestartDecision::Restart);
        // After the restart the counter must re-arm.
        sched.on_restart(&config, 1);
        assert_eq!(
            sched.decide(&config, 80),
            RestartDecision::Continue,
            "min-interval re-arms after restart"
        );
    }

    #[test]
    fn ema_min_interval_holds_trigger_back() {
        let config = ema_config();
        let mut sched = RestartSched::new(&config, 0);
        for _ in 0..64 {
            sched.on_conflict(2, 10);
        }
        sched.on_restart(&config, 1);
        // Degrading LBDs, but fewer than min_interval conflicts since
        // the restart.
        for _ in 0..3 {
            sched.on_conflict(40, 10);
        }
        assert_eq!(sched.decide(&config, 67), RestartDecision::Continue);
        sched.on_conflict(40, 10);
        assert_eq!(sched.decide(&config, 68), RestartDecision::Restart);
    }

    #[test]
    fn deep_trail_blocks_and_on_block_postpones() {
        let config = ema_config();
        let mut sched = RestartSched::new(&config, 0);
        for _ in 0..64 {
            sched.on_conflict(2, 100);
        }
        // Trigger condition satisfied, but the latest conflict sits on
        // a trail 1.4× deeper than the average: blocked.
        for _ in 0..16 {
            sched.on_conflict(30, 500);
        }
        assert_eq!(sched.decide(&config, 80), RestartDecision::Block);
        sched.on_block();
        assert_eq!(
            sched.decide(&config, 80),
            RestartDecision::Continue,
            "blocking postpones by the min interval"
        );
    }

    #[test]
    fn activation_gate_falls_back_to_luby() {
        let mut config = ema_config();
        config.ema_restarts_from = Some(1000);
        config.restart_base = 8;
        let mut sched = RestartSched::new(&config, 0);
        // A stable low-LBD prefix, then sharp degradation: the EMA
        // trigger condition holds, but below the activation gate the
        // Luby budget (8 × luby(0) = 8) rules.
        for _ in 0..4 {
            sched.on_conflict(2, 10);
        }
        for _ in 0..3 {
            sched.on_conflict(50, 10);
        }
        assert_eq!(sched.decide(&config, 7), RestartDecision::Continue);
        sched.on_conflict(50, 10);
        assert_eq!(sched.decide(&config, 8), RestartDecision::Restart);
        // Past the gate the same state consults the EMAs, which also
        // fire (fast has outrun slow well past the margin).
        assert_eq!(sched.decide(&config, 1000), RestartDecision::Restart);
    }

    #[test]
    fn rephase_schedule_rotates_and_stretches() {
        let config = CdclConfig {
            rephase_interval: Some(100),
            ..CdclConfig::default()
        };
        let mut sched = RephaseSched::new(&config);
        assert_eq!(sched.fire(&config, 99), None);
        assert_eq!(sched.fire(&config, 100), Some(RephaseKind::Best));
        // Next pass waits 2× the interval, then 3×, rotating kinds.
        assert_eq!(sched.fire(&config, 250), None);
        assert_eq!(sched.fire(&config, 300), Some(RephaseKind::Invert));
        assert_eq!(sched.fire(&config, 600), Some(RephaseKind::Best));
        assert_eq!(sched.fire(&config, 1000), Some(RephaseKind::Random));
        assert_eq!(sched.fire(&config, 1500), Some(RephaseKind::Best));
        // `None` switches rephasing off.
        let off = CdclConfig {
            rephase_interval: None,
            ..config
        };
        let mut sched = RephaseSched::new(&off);
        assert_eq!(sched.fire(&off, u64::MAX), None);
    }

    #[test]
    fn rephase_improvement_gate_requires_5_percent_growth() {
        let config = CdclConfig::default();
        let mut sched = RephaseSched::new(&config);
        assert!(sched.improves(1), "anything beats an empty best trail");
        sched.record(100);
        assert!(!sched.improves(100));
        assert!(!sched.improves(105));
        assert!(sched.improves(106));
    }
}
