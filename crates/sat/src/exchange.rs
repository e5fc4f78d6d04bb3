//! Deterministic bounded clause exchange between portfolio workers.
//!
//! The paper's seed portfolio (Sec. V-E, "random seed: more is
//! different") runs identical searches that never talk to each other.
//! This module is the HordeSat-style upgrade: each worker exports its
//! good learnt clauses (low LBD, short) to the other workers and
//! imports what they exported, so one worker's refutation work prunes
//! everyone else's search.
//!
//! Determinism is the design constraint: a sharing run must be
//! bit-reproducible, so that its counters can be recorded and gated
//! like a single solver's, even though the fleet runs a round's turns
//! on parallel threads. A *round gate* makes that possible (the
//! barrier-synchronised sharing of Hamadi, Jabbour, Piette & Sais,
//! "Deterministic parallel DPLL", JSAT 2011):
//!
//! * **rounds** — a connected solver counts its `solve_assuming`
//!   calls; call `r` is its round `r`, and every clause it exports
//!   during that call is published tagged with `r`;
//! * **gated drain** — [`ClauseExchange::drain`]`(worker, r)` hands
//!   out only clauses from rounds before `r`, ordered by (round,
//!   source, publish order), at most `capacity` per round (later ones
//!   are dropped, deterministically). Nothing is dropped at publish
//!   time, so concurrent publishers cannot race for space;
//! * **one import point** — the solver drains only at
//!   `solve_assuming` entry, at decision level 0 (see
//!   `import_shared_clauses` in the solver).
//!
//! When every running worker takes one turn per round, what a worker
//! imports at the start of round `r` is a pure function of the other
//! workers' turns before `r`: neither the order in which a round's
//! turns run nor their overlap changes it. A worker that stops taking
//! turns stops draining; its staging is cut back to the two newest
//! rounds as peers publish, so memory stays bounded.
//!
//! Every imported clause is re-verified by the importer with a
//! reverse-unit-propagation (RUP) test before it is attached, and
//! logged as a derived step, so `--certify` keeps working on
//! import-enabled sessions.
//!
//! That RUP re-check doubles as the exchange's *fault barrier*: a
//! worker publishing a corrupted clause — a flipped literal from a
//! buggy learner or a torn write, exercised deterministically by the
//! `corrupt-clause` injection of [`crate::FaultPlan`] — cannot poison
//! its peers. Whatever arrives is either RUP-derivable from the
//! importer's own database (hence a sound consequence no matter what
//! the exporter intended) or silently skipped; nothing unverified is
//! ever attached or logged.

use crate::types::Lit;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Admission limits for exporting a learnt clause to the exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShareLimits {
    /// Export only clauses with LBD at or below this (units always
    /// qualify — they are root facts).
    pub max_lbd: u32,
    /// Export only clauses at or below this many literals.
    pub max_len: usize,
}

impl Default for ShareLimits {
    fn default() -> ShareLimits {
        // HordeSat exports aggressively and filters at the receiver;
        // we filter at both ends. LBD ≤ 6 matches the solver's tier2
        // admission bound, so everything exported would be considered
        // worth keeping by the exporter itself.
        ShareLimits {
            max_lbd: 6,
            max_len: 30,
        }
    }
}

/// One clause in flight between workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedClause {
    /// Index of the exporting worker.
    pub source: usize,
    /// The exporter's round: the `solve_assuming` call that learnt it.
    pub round: u64,
    /// The clause literals (slot order as learnt; importers
    /// re-simplify against their own root state).
    pub lits: Vec<Lit>,
    /// The exporter's LBD for the clause (import keeps
    /// `min(lbd, len)`).
    pub lbd: u32,
}

/// The clauses staged for one receiver, by round, each round in
/// arrival order.
type Staging = BTreeMap<u64, Vec<SharedClause>>;

/// The exchange hub: one round-indexed staging area per worker.
///
/// Shared via `Arc` between the portfolio driver and every connected
/// solver. All methods take `&self`; the counters are atomics and each
/// staging area is mutex-guarded, so the hub is `Sync` without any
/// locking visible to callers. The staging areas are touched only at
/// import points and on export, far off the propagation hot path.
#[derive(Debug)]
pub struct ClauseExchange {
    staged: Vec<Mutex<Staging>>,
    capacity: usize,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl ClauseExchange {
    /// A hub for `workers` participants, each importing at most
    /// `capacity` clauses per round.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `capacity` is zero.
    pub fn new(workers: usize, capacity: usize) -> ClauseExchange {
        assert!(workers > 0, "exchange needs at least one worker");
        assert!(capacity > 0, "exchange needs a non-zero per-round capacity");
        ClauseExchange {
            staged: (0..workers).map(|_| Mutex::default()).collect(),
            capacity,
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Locks `worker`'s staging area. Every critical section leaves
    /// the map consistent, so a lock poisoned by a panicking worker is
    /// recovered as is.
    fn staging(&self, worker: usize) -> MutexGuard<'_, Staging> {
        self.staged[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of participating workers.
    pub fn num_workers(&self) -> usize {
        self.staged.len()
    }

    /// Stages a clause exported by `source` in its round `round` for
    /// every other worker, in ascending worker order. Nothing is
    /// dropped here; the receiver's [`drain`](Self::drain) applies the
    /// capacity. Staging older than `round - 1` is discarded (and
    /// counted as dropped): a receiver still taking turns has drained
    /// it already.
    pub fn publish(&self, source: usize, round: u64, lits: &[Lit], lbd: u32) {
        for worker in (0..self.staged.len()).filter(|&w| w != source) {
            let mut staging = self.staging(worker);
            while let Some(entry) = staging.first_entry() {
                if *entry.key() + 1 >= round {
                    break;
                }
                self.count_dropped(entry.remove().len());
            }
            staging.entry(round).or_default().push(SharedClause {
                source,
                round,
                lits: lits.to_vec(),
                lbd,
            });
        }
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes every clause staged for `worker` from rounds before
    /// `round`, ordered by (round, source, publish order). Each round
    /// keeps its first `capacity` clauses; the rest are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn drain(&self, worker: usize, round: u64) -> Vec<SharedClause> {
        let earlier = {
            let mut staging = self.staging(worker);
            let later = staging.split_off(&round);
            std::mem::replace(&mut *staging, later)
        };
        let mut out = Vec::new();
        for (_, mut clauses) in earlier {
            // Stable: one source's clauses keep their publish order.
            clauses.sort_by_key(|c| c.source);
            if clauses.len() > self.capacity {
                self.count_dropped(clauses.len() - self.capacity);
                clauses.truncate(self.capacity);
            }
            out.append(&mut clauses);
        }
        out
    }

    fn count_dropped(&self, copies: usize) {
        self.dropped.fetch_add(copies as u64, Ordering::Relaxed);
    }

    /// Clauses published so far (each counted once, not per fan-out).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Fan-out copies dropped: past a round's capacity at drain, or
    /// left undrained two rounds on.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    fn drained(hub: &ClauseExchange, worker: usize, round: u64) -> Vec<Vec<Lit>> {
        hub.drain(worker, round)
            .into_iter()
            .map(|c| c.lits)
            .collect()
    }

    #[test]
    fn publish_fans_out_to_all_but_source() {
        let hub = ClauseExchange::new(3, 8);
        hub.publish(1, 0, &lits(&[1, -2]), 2);
        assert_eq!(hub.drain(1, 1), vec![]);
        let got0 = hub.drain(0, 1);
        let got2 = hub.drain(2, 1);
        assert_eq!(got0, got2);
        assert_eq!(
            got0,
            vec![SharedClause {
                source: 1,
                round: 0,
                lits: lits(&[1, -2]),
                lbd: 2
            }]
        );
        assert_eq!(hub.published(), 1);
        assert_eq!(hub.dropped(), 0);
    }

    /// A drain hands out only earlier rounds, ordered by (round,
    /// source, publish order) whatever the arrival order, and each
    /// clause once.
    #[test]
    fn drain_preserves_arrival_order() {
        let hub = ClauseExchange::new(3, 8);
        hub.publish(2, 1, &lits(&[5]), 1);
        hub.publish(1, 1, &lits(&[3]), 1);
        hub.publish(2, 0, &lits(&[2]), 1);
        hub.publish(1, 1, &lits(&[4]), 1);
        hub.publish(1, 0, &lits(&[1]), 1);
        // Round 1's drain sees round 0 only; round 2's the rest of
        // round 1, never the round-2 clause being published alongside.
        assert_eq!(drained(&hub, 0, 1), vec![lits(&[1]), lits(&[2])]);
        assert_eq!(drained(&hub, 0, 1), Vec::<Vec<Lit>>::new());
        hub.publish(1, 2, &lits(&[6]), 1);
        assert_eq!(
            drained(&hub, 0, 2),
            vec![lits(&[3]), lits(&[4]), lits(&[5])]
        );
        assert_eq!(drained(&hub, 0, 3), vec![lits(&[6])]);
        // Worker 2 never drained: its round-0 copy from worker 1 went
        // when round 2 arrived.
        assert_eq!(hub.dropped(), 1);
    }

    /// Each receiver keeps at most `capacity` clauses per round, the
    /// first in (source, publish order); the cut happens at drain, so
    /// a later-arriving low source still wins its slot.
    #[test]
    fn full_inbox_drops_deterministically() {
        let hub = ClauseExchange::new(3, 2);
        hub.publish(2, 0, &lits(&[3]), 1);
        hub.publish(1, 0, &lits(&[1]), 1);
        hub.publish(1, 0, &lits(&[2]), 1);
        hub.publish(2, 1, &lits(&[4]), 1);
        hub.publish(1, 1, &lits(&[5]), 1);
        assert_eq!(hub.dropped(), 0, "publish never drops");
        assert_eq!(
            drained(&hub, 0, 2),
            vec![lits(&[1]), lits(&[2]), lits(&[5]), lits(&[4])]
        );
        assert_eq!(hub.dropped(), 1);
        // Worker 1 had one round-0 clause and one round-1 clause: no cut.
        assert_eq!(drained(&hub, 1, 2), vec![lits(&[3]), lits(&[4])]);
        assert_eq!(hub.dropped(), 1);
    }

    /// A worker that stops draining keeps at most two rounds staged:
    /// a round-`r` publish discards what is older than round `r - 1`.
    #[test]
    fn staging_is_bounded_to_two_rounds() {
        let hub = ClauseExchange::new(2, 8);
        for round in 0..5 {
            hub.publish(0, round, &lits(&[1]), 1);
            hub.publish(0, round, &lits(&[2]), 1);
        }
        assert_eq!(hub.dropped(), 6, "rounds 0..=2 discarded");
        let got: Vec<u64> = hub.drain(1, 5).iter().map(|c| c.round).collect();
        assert_eq!(got, vec![3, 3, 4, 4]);
    }

    #[test]
    fn publishes_from_many_threads_all_arrive() {
        let hub = ClauseExchange::new(5, 64);
        std::thread::scope(|scope| {
            for source in 0..4 {
                let hub = &hub;
                scope.spawn(move || {
                    for i in 0..16 {
                        hub.publish(source, 0, &lits(&[i + 1]), 1);
                    }
                });
            }
        });
        assert_eq!(hub.drain(4, 1).len(), 64);
        assert_eq!(hub.published(), 64);
        assert_eq!(hub.dropped(), 0);
    }

    /// Two rounds published concurrently by four threads drain in
    /// (round, source, publish order) with the per-round capacity cut,
    /// however the threads interleaved.
    #[test]
    fn concurrent_rounds_drain_in_source_order() {
        let clause = |round: u64, source: usize, i: usize| {
            (
                round,
                source,
                lits(&[(100 * round as usize + 20 * source + i + 1) as i64]),
            )
        };
        // Per round: sources 0 and 1 whole, the first 8 of source 2.
        let expect: Vec<_> = (0..2)
            .flat_map(|round| {
                (0..4)
                    .flat_map(move |source| (0..16).map(move |i| clause(round, source, i)))
                    .take(40)
            })
            .collect();
        for _ in 0..8 {
            let hub = ClauseExchange::new(5, 40);
            std::thread::scope(|scope| {
                for source in 0..4 {
                    let hub = &hub;
                    scope.spawn(move || {
                        for round in 0..2 {
                            for i in 0..16 {
                                hub.publish(source, round, &clause(round, source, i).2, 1);
                            }
                        }
                    });
                }
            });
            let got: Vec<_> = hub
                .drain(4, 2)
                .into_iter()
                .map(|c| (c.round, c.source, c.lits))
                .collect();
            assert_eq!(got, expect);
            assert_eq!(hub.dropped(), 2 * (64 - 40));
        }
    }

    #[test]
    fn a_crashed_worker_does_not_poison_its_inbox() {
        let hub = ClauseExchange::new(2, 4);
        std::thread::scope(|scope| {
            let crash = scope.spawn(|| {
                let _staging = hub.staging(1);
                panic!("worker crashed holding its inbox");
            });
            assert!(crash.join().is_err());
        });
        assert!(hub.staged[1].is_poisoned());
        hub.publish(0, 0, &lits(&[1]), 1);
        assert_eq!(hub.drain(1, 1).len(), 1);
    }

    #[test]
    fn default_limits_match_tier2_bound() {
        let limits = ShareLimits::default();
        assert_eq!(limits.max_lbd, 6);
        assert!(limits.max_len >= 2);
    }

    #[test]
    fn share_limits_are_value_types() {
        let a = ShareLimits {
            max_lbd: 3,
            max_len: 10,
        };
        assert_eq!(a, a);
        assert_ne!(a, ShareLimits::default());
    }
}
