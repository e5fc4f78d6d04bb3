//! Inprocessing: clause-database simplification between restarts.
//!
//! Industrial CDCL solvers interleave search with *inprocessing* —
//! cheap, budgeted simplification of the clause database that pays for
//! itself through faster propagation and shorter learnt clauses. This
//! module schedules the two passes, subsume → eliminate, plus the
//! machinery they share:
//!
//! * **Subsumption and self-subsuming resolution** ([`CdclSolver::subsume`]):
//!   a SatELite-style backward pass over an occurrence index
//!   ([`OccIndex`]). Each pass gives every live clause a dense id and
//!   a 64-bit *signature* (a Bloom filter of its variables, bit
//!   `var % 64`), kept in a plain `Vec<u64>` indexed by id; the
//!   occurrence lists are one CSR of ids. A clause `C` can only
//!   subsume `D` when `sig(C) & !sig(D) == 0`, which rejects almost all
//!   candidate pairs without touching their literals. A full check
//!   then either deletes `D` (`C ⊆ D`) or strengthens it (`C \ {l} ⊆ D`
//!   with `¬l ∈ D` resolves to `D \ {¬l}`). Strengthened clauses get
//!   the next ids, append to the index's tail lists and re-enter the
//!   queue — they are stronger subsumers than their originals.
//!
//! * **Bounded variable elimination** lives in the sibling `elim`
//!   module ([`CdclSolver::eliminate_vars`]) and runs on the same schedule
//!   from [`CdclConfig::elim_from`] session conflicts on.
//!
//! Both passes run at restart boundaries (decision level 0, no
//! assumptions applied), so every derived fact and rewritten clause is
//! a consequence of the added clauses alone — exactly the invariant the
//! incremental API needs. Deleted clauses are detached from the watch
//! lists immediately and reclaimed by the same compacting GC that
//! `reduce_db` uses ([`CdclSolver::collect_garbage`] compacts the arena in
//! place and rewrites ref lists, watchers and trail reasons to the new
//! offsets), so no tombstone ever survives into `propagate`. Clauses
//! that currently serve as the reason of a root-level trail literal
//! are locked and skipped. A learnt clause that subsumes an *original* clause is
//! promoted to original first — deleting the original in favor of a
//! deletable learnt would let `reduce_db` silently drop a constraint.

use super::*;

/// Outcome of matching a subsumer `C` against a candidate `D`.
enum SubMatch {
    /// `C` neither subsumes nor strengthens `D`.
    None,
    /// `C ⊆ D`: `D` is redundant.
    Subsumes,
    /// `C` resolves with `D` on exactly one flipped literal: `D` can
    /// drop the carried literal (the one that occurs in `D`).
    Strengthens(Lit),
}

/// With [`CdclConfig::subsumption_touched_only`]: every n-th
/// subsumption pass processes the full clause database.
const SUBSUMPTION_FULL_SWEEP_INTERVAL: u64 = 5;

/// Per-literal lists packed into one array (compressed sparse rows):
/// row `r` is `flat[starts[r]..starts[r + 1]]`. Both inprocessing
/// passes index their occurrence lists this way — one allocation
/// instead of one `Vec` per literal, and at eager pass cadence a
/// vec-of-vecs build was the dominant inprocessing wall cost.
pub(super) struct Csr {
    pub(super) starts: Vec<u32>,
    pub(super) flat: Vec<u32>,
}

impl Csr {
    /// Packs `(row, value)` entries, each row keeping iteration order:
    /// a counting pass, a prefix sum and a filling pass over `entries`.
    pub(super) fn build(rows: usize, entries: impl Iterator<Item = (usize, u32)> + Clone) -> Csr {
        let mut starts = vec![0u32; rows + 1];
        for (row, _) in entries.clone() {
            starts[row + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut flat = vec![0u32; starts[rows] as usize];
        let mut cursor: Vec<u32> = starts[..rows].to_vec();
        for (row, value) in entries {
            flat[cursor[row] as usize] = value;
            cursor[row] += 1;
        }
        Csr { starts, flat }
    }

    pub(super) fn row(&self, row: usize) -> &[u32] {
        &self.flat[self.starts[row] as usize..self.starts[row + 1] as usize]
    }
}

/// The subsumption pass's occurrence index, in the dense layout of
/// SatELite: every live clause gets a dense id (database order:
/// originals, then the learnt tiers), signatures live in a `Vec<u64>`
/// by id, and the per-literal occurrence lists are a [`Csr`] of ids.
/// Clauses attached mid-pass (strengthened replacements) get the next
/// ids and append to per-literal *tail* lists instead of the frozen
/// CSR. Entries are never removed: deleted clauses stay as tombstones
/// and are filtered on use.
pub(super) struct OccIndex {
    /// Id → clause.
    pub(super) refs: Vec<ClauseRef>,
    /// Id → 64-bit variable signature (bit `var % 64` per literal).
    pub(super) sigs: Vec<u64>,
    /// Row `code`: the ids of the clauses built into the index that
    /// contain literal `code`, ascending.
    pub(super) csr: Csr,
    /// Number of clauses built into the CSR: ids below it are CSR
    /// entries, ids from it on are tail entries.
    pub(super) csr_ids: usize,
    /// Per literal code, the ids of mid-pass replacements containing it.
    pub(super) tail: Vec<Vec<u32>>,
}

impl OccIndex {
    /// Indexes every live clause.
    pub(super) fn build(st: &CdclSolver) -> OccIndex {
        let n_lits = 2 * st.num_vars;
        let refs: Vec<ClauseRef> = st
            .clauses
            .iter()
            .chain(st.learnts.iter().flatten())
            .copied()
            .filter(|&c| !st.arena.is_deleted(c))
            .collect();
        let sigs = refs.iter().map(|&c| signature(st.arena.lits(c))).collect();
        let csr = Csr::build(
            n_lits,
            refs.iter()
                .zip(0..)
                .flat_map(|(&c, id)| st.arena.lits(c).map(move |l| (l.code(), id))),
        );
        OccIndex {
            csr_ids: refs.len(),
            refs,
            sigs,
            csr,
            tail: vec![Vec::new(); n_lits],
        }
    }

    /// The ids of `crefs` (live indexed clauses), in the given order:
    /// one sort of the (short) list, then one scan of the ids.
    fn ids_of(&self, crefs: &[ClauseRef]) -> Vec<u32> {
        let mut pending: Vec<(u32, usize)> = crefs.iter().map(|c| c.0).zip(0..).collect();
        pending.sort_unstable();
        let mut ids = vec![u32::MAX; crefs.len()];
        for (id, r) in self.refs.iter().map(|c| c.0).enumerate() {
            let lo = pending.partition_point(|&(c, _)| c < r);
            for &(_, pos) in pending[lo..].iter().take_while(|&&(c, _)| c == r) {
                ids[pos] = id as u32;
            }
        }
        debug_assert!(ids.iter().all(|&id| id != u32::MAX));
        ids
    }

    /// Number of index entries (CSR row plus tail) under a literal.
    pub(super) fn occ_len(&self, code: usize) -> usize {
        self.csr.row(code).len() + self.tail[code].len()
    }

    /// The `k`-th entry under a literal: the CSR row first, then the
    /// tail in insertion order.
    fn occ(&self, code: usize, k: usize) -> u32 {
        let row = self.csr.row(code);
        match row.get(k) {
            Some(&id) => id,
            None => self.tail[code][k - row.len()],
        }
    }

    /// Indexes a clause attached mid-pass, returning its id.
    fn push_tail(&mut self, c: ClauseRef, lits: &[Lit]) -> u32 {
        let id = self.refs.len() as u32;
        for &l in lits {
            self.tail[l.code()].push(id);
        }
        self.refs.push(c);
        self.sigs.push(signature(lits.iter().copied()));
        id
    }
}

/// A clause's 64-bit variable signature: bit `var % 64` per literal.
pub(super) fn signature(lits: impl IntoIterator<Item = Lit>) -> u64 {
    lits.into_iter()
        .fold(0, |sig, l| sig | 1u64 << (l.var().0 & 63))
}

impl CdclSolver {
    /// Runs one inprocessing pass (subsumption, then bounded variable
    /// elimination, then a compacting GC) if the conflict count has
    /// crossed the schedule. Called at restart boundaries only — the
    /// solver must sit at decision level 0.
    ///
    /// `deadline` is the wall-clock cutoff of the caller's [`Budget`]:
    /// it is re-checked at every pass boundary, so an out-of-time solve
    /// abandons the remaining passes instead of burning a full
    /// subsume/eliminate cycle after its result stopped mattering. Search-level determinism is unaffected — the checks
    /// only ever *skip* work on the way out of a run whose result is
    /// already discarded (no governor set, no behavior change).
    pub(super) fn maybe_inprocess(&mut self, deadline: Option<Instant>) {
        if !self.config.use_subsumption && self.config.elim_from.is_none() {
            return;
        }
        if self.stats.conflicts < self.next_inprocess {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut changed = false;
        if self.config.use_subsumption && !self.root_unsat && !governor_halt(deadline) {
            changed |= self.subsume();
            // Tombstones are legal here (the closing GC reclaims them);
            // the checkpoint still rejects them in watches and reasons.
            if !self.root_unsat {
                self.audit_checkpoint(AuditPoint::Inprocess);
            }
        }
        // Elimination runs right after subsumption, on the freshly
        // shrunk database. Below its activation gate the clause
        // database (and hence any conflict-identical record) stays
        // untouched by elimination.
        if gate_open(self.config.elim_from, self.stats.conflicts)
            && !self.root_unsat
            && !governor_halt(deadline)
        {
            changed |= self.eliminate_vars(deadline);
            if !self.root_unsat {
                self.audit_checkpoint(AuditPoint::Inprocess);
            }
        }
        // Reclaim everything the passes marked deleted. Safe even when
        // a root conflict was derived: locked clauses are never marked,
        // so every trail reason survives. A pass that touched nothing
        // skips the GC — walking a multi-megaword arena twice to
        // reclaim zero words is pure overhead.
        if changed {
            self.collect_garbage();
        }
        self.inprocess_passes += 1;
        // Geometric back-off: pass k waits k+1 base intervals, keeping
        // total inprocessing cost a bounded fraction of the search.
        self.next_inprocess = self.stats.conflicts
            + self
                .config
                .inprocess_interval
                .saturating_mul(self.inprocess_passes + 1);
    }

    /// Backward subsumption + self-subsuming resolution, bounded by
    /// [`CdclConfig::subsumption_check_budget`] literal comparisons.
    /// Returns whether any clause was deleted or rewritten.
    ///
    /// With [`CdclConfig::subsumption_touched_only`] the *subsumer
    /// queue* is restricted to clauses touched since the previous pass
    /// (learnt, strengthened, user-added) — steady-state
    /// passes stop re-matching the same quiesced database against
    /// itself, which was the dominant inprocessing overhead on the
    /// T-factory instances. The occurrence index still spans every
    /// live clause (anything may be subsumed *by* a touched clause),
    /// and every [`SUBSUMPTION_FULL_SWEEP_INTERVAL`]-th pass (including the first) sweeps the full database to pick up
    /// the old-subsumes-new direction touched-only passes cannot see.
    fn subsume(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let mut changed = false;
        let full_sweep = !self.config.subsumption_touched_only
            || self
                .subsumption_passes
                .is_multiple_of(SUBSUMPTION_FULL_SWEEP_INTERVAL);
        self.subsumption_passes += 1;
        // The touched list is consumed either way: a full sweep
        // supersedes it. Replacements attached mid-pass re-enter the
        // fresh list and seed the next pass. An empty queue returns
        // before the O(database) occurrence index is built (the pass
        // still counted toward the full-sweep cadence).
        let touched = std::mem::take(&mut self.touched);
        let touched = if full_sweep {
            None
        } else {
            let live: Vec<ClauseRef> = touched
                .into_iter()
                .filter(|&c| !self.arena.is_deleted(c))
                .collect();
            if live.is_empty() {
                return false;
            }
            Some(live)
        };
        // The occurrence index spans every live clause — anything may
        // be subsumed *by* a queued clause.
        let mut idx = OccIndex::build(self);
        let mut queue: Vec<u32> = match touched {
            None => (0..idx.refs.len() as u32).collect(),
            Some(touched) => idx.ids_of(&touched),
        };
        if self.audit_on {
            self.audit_occ_index(&idx, true);
        }
        // Short clauses are the strongest subsumers; try them first.
        queue.sort_by_key(|&c| self.arena.len(idx.refs[c as usize]));
        let mut budget = self.config.subsumption_check_budget as i64;
        let mut qi = 0;
        while qi < queue.len() && budget > 0 {
            let ci = queue[qi];
            let c = idx.refs[ci as usize];
            qi += 1;
            if self.arena.is_deleted(c) {
                continue;
            }
            let c_len = self.arena.len(c);
            let c_sig = idx.sigs[ci as usize];
            #[expect(clippy::expect_used, reason = "clauses have at least two literals")]
            let min_lit = (0..c_len)
                .map(|i| self.arena.lit(c, i))
                .min_by_key(|l| idx.occ_len(l.code()))
                .expect("clauses have at least two literals");
            // Clauses containing `min_lit` are subsumption (and
            // strengthening-elsewhere) candidates; clauses containing
            // `¬min_lit` can only be strengthened *at* `min_lit`.
            for probe in [min_lit, !min_lit] {
                // Snapshot the length: strengthened replacements append
                // to the tail lists mid-loop and get their own queue
                // turn.
                let n = idx.occ_len(probe.code());
                for k in 0..n {
                    let di = idx.occ(probe.code(), k);
                    let d = idx.refs[di as usize];
                    if di == ci || self.arena.is_deleted(d) || self.arena.is_deleted(c) {
                        continue;
                    }
                    let d_len = self.arena.len(d);
                    if d_len < c_len {
                        continue;
                    }
                    budget -= 1;
                    if c_sig & !idx.sigs[di as usize] != 0 {
                        continue;
                    }
                    budget -= (c_len + d_len) as i64;
                    match self.subsume_check(c, d) {
                        SubMatch::None => {}
                        SubMatch::Subsumes => {
                            if self.is_locked(d) {
                                continue;
                            }
                            if self.arena.is_learnt(c) && !self.arena.is_learnt(d) {
                                self.promote_to_original(c);
                            }
                            if !self.arena.is_learnt(d) {
                                self.elim_touch_clause(d);
                            }
                            self.proof_delete_cref(d);
                            self.arena.mark_deleted(d);
                            self.detach_clause(d);
                            self.stats.subsumed_clauses += 1;
                            changed = true;
                        }
                        SubMatch::Strengthens(rem) => {
                            if self.is_locked(d) {
                                continue;
                            }
                            let new_lits: Vec<Lit> = (0..d_len)
                                .map(|i| self.arena.lit(d, i))
                                .filter(|&l| l != rem)
                                .collect();
                            let learnt = self.arena.is_learnt(d);
                            let lbd = self.arena.lbd(d).min(new_lits.len() as u32);
                            if !learnt {
                                self.elim_touch_clause(d);
                            }
                            // The self-subsuming resolvent is RUP while
                            // both `c` and `d` are live: log it before
                            // the original's deletion.
                            self.proof_add_derived(&new_lits);
                            self.proof_delete_cref(d);
                            self.arena.mark_deleted(d);
                            self.detach_clause(d);
                            self.stats.strengthened_clauses += 1;
                            changed = true;
                            if new_lits.len() == 1 {
                                if !self.assert_root_unit(new_lits[0]) {
                                    return true;
                                }
                            } else {
                                let nd = self.attach_clause_quiet(&new_lits, learnt, lbd);
                                queue.push(idx.push_tail(nd, &new_lits));
                            }
                        }
                    }
                    if budget <= 0 {
                        break;
                    }
                }
                if budget <= 0 {
                    break;
                }
            }
        }
        if self.audit_on {
            self.audit_occ_index(&idx, false);
        }
        changed
    }

    /// Does `c` subsume `d`, possibly up to one flipped literal?
    /// Assumes `len(c) <= len(d)`; quadratic in the clause lengths (the
    /// signature filter keeps this off the common path).
    fn subsume_check(&self, c: ClauseRef, d: ClauseRef) -> SubMatch {
        let c_len = self.arena.len(c);
        let d_len = self.arena.len(d);
        let mut flipped: Option<Lit> = None;
        'subsumer: for i in 0..c_len {
            let l = self.arena.lit(c, i);
            for j in 0..d_len {
                let m = self.arena.lit(d, j);
                if m == l {
                    continue 'subsumer;
                }
                if m == !l && flipped.is_none() {
                    flipped = Some(m);
                    continue 'subsumer;
                }
            }
            return SubMatch::None;
        }
        match flipped {
            None => SubMatch::Subsumes,
            Some(m) => SubMatch::Strengthens(m),
        }
    }

    /// Moves a learnt clause into the original database (clears the
    /// learnt header bit and switches ref lists) so `reduce_db` can
    /// never delete it. Applied before a learnt clause is allowed to
    /// subsume an original one. The header tier bits name the owning
    /// ref list (an audited invariant), so no cross-tier search is
    /// needed.
    fn promote_to_original(&mut self, c: ClauseRef) {
        let tier = self.arena.tier(c);
        #[expect(clippy::expect_used, reason = "a promoted clause is in its tier list")]
        let pos = self.learnts[tier]
            .iter()
            .position(|&x| x == c)
            .expect("promoted clause is in its tier's learnt list");
        self.learnts[tier].swap_remove(pos);
        self.clauses.push(c);
        self.arena.data[c.0 as usize] &= !LEARNT_BIT;
        // A promoted clause is a brand-new resolution partner.
        self.elim_touch_clause(c);
    }

    /// Asserts a literal derived at the root and propagates it to
    /// fixpoint. Returns `false` (latching `root_unsat`) on
    /// contradiction.
    /// Callers log the unit clause itself (its derivation argument is
    /// theirs); this only logs the terminal empty clause when the unit
    /// contradicts the root state.
    pub(super) fn assert_root_unit(&mut self, l: Lit) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        match self.value(l) {
            1 => true,
            -1 => {
                self.root_unsat = true;
                self.proof_add_empty();
                false
            }
            _ => {
                self.enqueue(l, ClauseRef::NONE);
                if self.propagate().is_some() {
                    self.root_unsat = true;
                    self.proof_add_empty();
                    false
                } else {
                    true
                }
            }
        }
    }
}
