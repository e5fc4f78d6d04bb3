//! Deterministic bounded clause exchange between portfolio workers.
//!
//! The paper's seed portfolio (Sec. V-E, "random seed: more is
//! different") runs identical searches that never talk to each other.
//! This module is the HordeSat-style upgrade: each worker exports its
//! good learnt clauses (low LBD, short) into the other workers'
//! bounded inboxes and imports whatever arrived, so one worker's
//! refutation work prunes everyone else's search.
//!
//! Determinism is the design constraint: a sharing run must be
//! bit-reproducible, so that its counters can be recorded and gated
//! like a single solver's. Three properties make it replayable:
//!
//! * **seed-ordered fan-out** — [`ClauseExchange::publish`] writes to
//!   the per-worker inboxes in ascending worker index, and a full inbox
//!   drops the clause for exactly that worker (bounded memory, no
//!   blocking, deterministic victim);
//! * **deterministic import points** — the solver drains its inbox only
//!   at restart boundaries and at `solve_assuming` entry, never
//!   mid-search (see `import_shared_clauses` in the solver);
//! * **lockstep scheduling** — the fleet driver behind
//!   `synth::optimize` runs sharing workers round-robin under fixed
//!   conflict quanta, one turn at a time, so inbox contents at every
//!   drain are a pure function of the seeds.
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
use std::collections::VecDeque;
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
    /// The clause literals (slot order as learnt; importers
    /// re-simplify against their own root state).
    pub lits: Vec<Lit>,
    /// The exporter's LBD for the clause (import keeps
    /// `min(lbd, len)`).
    pub lbd: u32,
}

/// The exchange hub: one bounded FIFO inbox per worker.
///
/// Shared via `Arc` between the portfolio driver and every connected
/// solver. All methods take `&self`; the counters are atomics and each
/// inbox is a mutex-guarded queue, so the hub is `Sync` without any
/// locking visible to callers. The inboxes are touched only at import
/// points and on export, far off the propagation hot path.
#[derive(Debug)]
pub struct ClauseExchange {
    inboxes: Vec<Mutex<VecDeque<SharedClause>>>,
    capacity: usize,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl ClauseExchange {
    /// A hub for `workers` participants whose inboxes hold at most
    /// `capacity` clauses each.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `capacity` is zero.
    pub fn new(workers: usize, capacity: usize) -> ClauseExchange {
        assert!(workers > 0, "exchange needs at least one worker");
        assert!(capacity > 0, "exchange inboxes need a non-zero capacity");
        ClauseExchange {
            inboxes: (0..workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(capacity)))
                .collect(),
            capacity,
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Locks `worker`'s inbox. Every critical section is a single
    /// queue operation, so a lock poisoned by a panicking worker still
    /// guards a consistent queue and is recovered as is.
    fn inbox(&self, worker: usize) -> MutexGuard<'_, VecDeque<SharedClause>> {
        self.inboxes[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of participating workers.
    pub fn num_workers(&self) -> usize {
        self.inboxes.len()
    }

    /// Fans a clause out to every worker except `source`, in ascending
    /// worker order. A full inbox drops the clause for that worker
    /// only. Returns how many inboxes accepted it.
    pub fn publish(&self, source: usize, lits: &[Lit], lbd: u32) -> usize {
        let mut accepted = 0;
        for worker in (0..self.inboxes.len()).filter(|&w| w != source) {
            let mut inbox = self.inbox(worker);
            if inbox.len() < self.capacity {
                inbox.push_back(SharedClause {
                    source,
                    lits: lits.to_vec(),
                    lbd,
                });
                accepted += 1;
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        accepted
    }

    /// Empties `worker`'s inbox, returning the clauses in arrival
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn drain(&self, worker: usize) -> Vec<SharedClause> {
        self.inbox(worker).drain(..).collect()
    }

    /// Clauses published so far (each counted once, not per fan-out).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Fan-out copies dropped because the receiving inbox was full.
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

    #[test]
    fn publish_fans_out_to_all_but_source() {
        let hub = ClauseExchange::new(3, 8);
        assert_eq!(hub.publish(1, &lits(&[1, -2]), 2), 2);
        assert_eq!(hub.drain(1), vec![]);
        let got0 = hub.drain(0);
        let got2 = hub.drain(2);
        assert_eq!(got0, got2);
        assert_eq!(got0.len(), 1);
        assert_eq!(got0[0].source, 1);
        assert_eq!(got0[0].lits, lits(&[1, -2]));
        assert_eq!(got0[0].lbd, 2);
        assert_eq!(hub.published(), 1);
        assert_eq!(hub.dropped(), 0);
    }

    #[test]
    fn drain_preserves_arrival_order() {
        let hub = ClauseExchange::new(2, 8);
        hub.publish(0, &lits(&[1]), 1);
        hub.publish(0, &lits(&[2]), 1);
        hub.publish(0, &lits(&[3]), 1);
        let got: Vec<Vec<Lit>> = hub.drain(1).into_iter().map(|c| c.lits).collect();
        assert_eq!(got, vec![lits(&[1]), lits(&[2]), lits(&[3])]);
        assert!(hub.drain(1).is_empty());
    }

    #[test]
    fn full_inbox_drops_deterministically() {
        let hub = ClauseExchange::new(2, 2);
        assert_eq!(hub.publish(0, &lits(&[1]), 1), 1);
        assert_eq!(hub.publish(0, &lits(&[2]), 1), 1);
        // Inbox 1 is full: the third publish is dropped for worker 1.
        assert_eq!(hub.publish(0, &lits(&[3]), 1), 0);
        assert_eq!(hub.dropped(), 1);
        let kept: Vec<Vec<Lit>> = hub.drain(1).into_iter().map(|c| c.lits).collect();
        assert_eq!(kept, vec![lits(&[1]), lits(&[2])]);
    }

    #[test]
    fn publishes_from_many_threads_all_arrive() {
        let hub = ClauseExchange::new(5, 64);
        std::thread::scope(|scope| {
            for source in 0..4 {
                let hub = &hub;
                scope.spawn(move || {
                    for i in 0..16 {
                        assert_eq!(hub.publish(source, &lits(&[i + 1]), 1), 4);
                    }
                });
            }
        });
        assert_eq!(hub.drain(4).len(), 64);
        assert_eq!(hub.published(), 64);
        assert_eq!(hub.dropped(), 0);
    }

    #[test]
    fn a_crashed_worker_does_not_poison_its_inbox() {
        let hub = ClauseExchange::new(2, 4);
        std::thread::scope(|scope| {
            let crash = scope.spawn(|| {
                let _inbox = hub.inbox(1);
                panic!("worker crashed holding its inbox");
            });
            assert!(crash.join().is_err());
        });
        assert!(hub.inboxes[1].is_poisoned());
        assert_eq!(hub.publish(0, &lits(&[1]), 1), 1);
        assert_eq!(hub.drain(1).len(), 1);
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
