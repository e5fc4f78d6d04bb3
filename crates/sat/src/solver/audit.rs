//! Deep solver-state auditor.
//!
//! The differential torture matrix only sees final answers; this module
//! checks the *intermediate* state the relaxed out-of-order machinery
//! (PR 5) and arena-mutating inprocessing (PR 4) must preserve. It is
//! enabled by [`CdclConfig::audit`] or `LASSYNTH_AUDIT=1` in the
//! environment and costs one predictable branch per checkpoint when
//! off — the solver never reads any audit result, so search behaviour
//! (conflicts, decisions, learnt clauses) is bit-identical either way.
//!
//! Checkpoints fire after propagation, conflict analysis, every
//! backtrack in the search loop, garbage collection, each inprocessing
//! pass, and on every SAT answer. Each checkpoint audits:
//!
//! * **Arena liveness** — clause sizes tile the arena exactly, every
//!   `ClauseRef` held by the ref lists, the touched work list, the
//!   watcher lists, and the trail reasons points at a clause start,
//!   and every live arena clause sits in exactly one ref list (the
//!   invariant in-place GC relies on).
//! * **Watch lists** — every live non-unit clause is watched on exactly
//!   its first two literals, binary tags match clause length, binary
//!   blockers are the other watched literal, and long-clause blockers
//!   are literals of their clause.
//! * **Relaxed trail invariant** — the trail is a permutation of the
//!   assigned variables, `trail_lim` is monotone, every literal's
//!   recorded level is bounded by the level of the trail segment it
//!   sits in (out-of-order compaction must never leave a literal
//!   *above* its recorded level), and real decisions sit exactly at
//!   their level boundary.
//! * **Reason soundness** — each implied literal's reason clause
//!   contains it in a watched slot, every other literal is false,
//!   assigned *earlier* on the trail, and at a level no higher than the
//!   implication's — i.e. the reason is unit under the trail prefix at
//!   the recorded assertion level.
//! * **VSIDS heap shape** — the position index inverts the heap, the
//!   max-heap ordering holds, and every unassigned variable is present
//!   (so `decide` can never go blind). Eliminated variables are exempt:
//!   `decide` skips them whether or not they sit in the heap.
//! * **Elimination discipline** — the elimination stack carries exactly
//!   one frame per eliminated variable, eliminated variables are
//!   unassigned, reason-free, unfrozen, and appear in no live clause.
//! * **Model soundness** — on SAT, every non-eliminated variable is
//!   assigned and every original (and learnt) clause is satisfied. The
//!   *reconstructed* model (extended over the eliminated variables) is
//!   checked separately by `audit_reconstruction` against the clauses
//!   stored on the elimination stack.
//!
//! During an inprocessing pass clauses are marked deleted (and
//! detached) before the closing GC reclaims them, so the `Inprocess`
//! checkpoint tolerates tombstones in the ref lists — but still rejects
//! them in watch lists and trail reasons, where a tombstone would be a
//! live bug. The occurrence-index check (id ↔ clause mapping,
//! signatures, CSR rows and the tail of mid-pass replacements) is
//! called from `subsume` itself, right after the index is built and
//! again when the pass ends.

use super::inprocess::{signature, OccIndex};
use super::*;

/// Which search event triggered a checkpoint. Controls the tombstone
/// tolerance of the `Inprocess` point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum AuditPoint {
    /// Propagation reached a fixpoint or returned a conflict.
    Propagate,
    /// Conflict analysis produced a learnt clause (not yet attached).
    Analyze,
    /// A `cancel_until` in the search loop completed (including the
    /// repair and backjump paths, after their re-enqueue).
    Backtrack,
    /// A compacting GC pass rewrote every clause reference.
    Gc,
    /// An inprocessing pass (subsumption or variable elimination)
    /// finished, *before* the closing GC reclaims its tombstones.
    Inprocess,
    /// The solver is about to answer SAT.
    Sat,
}

/// Whether `LASSYNTH_AUDIT` requests auditing (any value but `0`).
pub(super) fn env_enabled() -> bool {
    std::env::var_os("LASSYNTH_AUDIT").is_some_and(|v| v != "0")
}

impl CdclSolver {
    /// The checkpoint hook: a single predictable branch when auditing
    /// is off.
    #[inline]
    pub(super) fn audit_checkpoint(&self, point: AuditPoint) {
        if self.audit_on {
            self.audit_now(point);
        }
    }

    /// Runs every audit check unconditionally (the mutation tests call
    /// this directly, bypassing the enable flag).
    #[cold]
    fn audit_now(&self, point: AuditPoint) {
        let allow_tombstones = point == AuditPoint::Inprocess;
        let starts = self.audit_arena(point);
        self.audit_refs(point, &starts, allow_tombstones);
        self.audit_watches(point, allow_tombstones);
        self.audit_trail(point);
        self.audit_reasons(point);
        self.audit_heap(point);
        self.audit_elim(point);
        self.audit_proof(point);
        if point == AuditPoint::Sat {
            self.audit_model(point);
        }
    }

    /// The clause-database checks alone (arena tiling, clause refs,
    /// watch lists), without the trail, heap, elimination and proof
    /// checks: the invariants a GC pass must leave intact. Debug builds
    /// run them after every GC whether or not the auditor is on.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn audit_clause_db(&self) {
        let starts = self.audit_arena(AuditPoint::Gc);
        self.audit_refs(AuditPoint::Gc, &starts, false);
        self.audit_watches(AuditPoint::Gc, false);
    }

    /// Proof-log integrity: every live clause in the database must also
    /// be live in the proof log, with at least the arena's multiplicity
    /// — otherwise a later deletion would emit a `d` step the checker
    /// rejects. The converse direction is intentionally loose: the log
    /// may keep extra clauses alive (a root-simplified original leaves
    /// its input form in the log; restored BVE resolvents stay). A
    /// frozen log (see [`ProofLog::is_frozen`]) stopped recording on
    /// purpose and mirrors nothing; `certify_unsat` rejects it.
    fn audit_proof(&self, point: AuditPoint) {
        let Some(proof) = self.proof.as_ref().filter(|p| !p.is_frozen()) else {
            return;
        };
        let live = proof.live_multiset();
        #[expect(clippy::disallowed_types, reason = "a cold audit helper")]
        let mut arena_counts: std::collections::HashMap<Vec<Lit>, i64> =
            std::collections::HashMap::new();
        for &c in self.clauses.iter().chain(self.learnts.iter().flatten()) {
            if self.arena.is_deleted(c) {
                continue;
            }
            let mut key: Vec<Lit> = (0..self.arena.len(c))
                .map(|i| self.arena.lit(c, i))
                .collect();
            key.sort_unstable();
            *arena_counts.entry(key).or_insert(0) += 1;
        }
        for (key, n) in arena_counts {
            let logged = live.get(&key).copied().unwrap_or(0);
            assert!(
                logged >= n,
                "audit({point:?}): clause {key:?} is live {n}× in the arena but \
                 only {logged}× in the proof log"
            );
        }
    }

    /// Walks the arena front to back, returning every valid clause
    /// start. Rejects misaligned tails.
    fn audit_arena(&self, point: AuditPoint) -> Vec<u32> {
        let mut starts = Vec::new();
        let mut off = 0usize;
        while off < self.arena.data.len() {
            let len = (self.arena.data[off] >> LEN_SHIFT) as usize;
            assert!(
                len >= 2,
                "audit({point:?}): stored clause of length {len} at arena word {off} \
                 (units live on the trail, never in the arena)"
            );
            starts.push(off as u32);
            off += HEADER_WORDS + len;
        }
        assert_eq!(
            off,
            self.arena.data.len(),
            "audit({point:?}): clause sizes do not tile the arena"
        );
        starts
    }

    /// Every `ClauseRef` the solver holds must point at a clause start;
    /// ref lists must agree with the learnt bit. Tombstones are allowed
    /// in ref lists only mid-inprocessing. Every live arena clause must
    /// sit in exactly one ref list: GC walks the arena, not the lists,
    /// so a live clause no list holds would never be reclaimed, and
    /// one listed twice would be rewritten twice.
    fn audit_refs(&self, point: AuditPoint, starts: &[u32], allow_tombstones: bool) {
        let valid = |c: ClauseRef| starts.binary_search(&c.0).is_ok();
        let mut listed = vec![0u32; starts.len()];
        for (what, refs, learnt, tier) in [
            ("original ref list", &self.clauses, false, None),
            (
                "core learnt list",
                &self.learnts[TIER_CORE],
                true,
                Some(TIER_CORE),
            ),
            (
                "tier2 learnt list",
                &self.learnts[TIER_TIER2],
                true,
                Some(TIER_TIER2),
            ),
            (
                "local learnt list",
                &self.learnts[TIER_LOCAL],
                true,
                Some(TIER_LOCAL),
            ),
        ] {
            for &c in refs {
                let slot = starts.binary_search(&c.0);
                assert!(
                    slot.is_ok(),
                    "audit({point:?}): dangling ClauseRef {} in {what}",
                    c.0
                );
                if let Ok(i) = slot {
                    listed[i] += 1;
                }
                if self.arena.is_deleted(c) {
                    assert!(
                        allow_tombstones,
                        "audit({point:?}): tombstone {} in {what} outside inprocessing",
                        c.0
                    );
                } else {
                    assert_eq!(
                        self.arena.is_learnt(c),
                        learnt,
                        "audit({point:?}): clause {} has the wrong learnt bit for {what}",
                        c.0
                    );
                    if let Some(t) = tier {
                        assert_eq!(
                            self.arena.tier(c),
                            t,
                            "audit({point:?}): clause {} has the wrong header tier for {what}",
                            c.0
                        );
                    }
                }
            }
        }
        for (&start, &n) in starts.iter().zip(&listed) {
            let c = ClauseRef(start);
            assert!(
                n == 1 || (n == 0 && self.arena.is_deleted(c)),
                "audit({point:?}): arena clause {start} is held by {n} ref lists \
                 (live clauses need exactly one)"
            );
        }
        for &c in &self.touched {
            assert!(
                valid(c),
                "audit({point:?}): dangling ClauseRef {} in touched list",
                c.0
            );
        }
        for list in &self.watches {
            for w in list {
                assert!(
                    valid(w.cref()),
                    "audit({point:?}): dangling ClauseRef {} in a watch list",
                    w.cref().0
                );
            }
        }
        for &l in &self.trail {
            let r = self.reason[l.var().index()];
            assert!(
                r == ClauseRef::NONE || valid(r),
                "audit({point:?}): dangling reason ClauseRef {} for {l}",
                r.0
            );
        }
    }

    /// Watch-list integrity: exactly the first two literals of every
    /// live attached clause are watched, tags and blockers agree.
    fn audit_watches(&self, point: AuditPoint, allow_tombstones: bool) {
        let mut watcher_count = 0usize;
        for (code, list) in self.watches.iter().enumerate() {
            let lit = Lit::from_code(code);
            for w in list {
                watcher_count += 1;
                let c = w.cref();
                assert!(
                    !self.arena.is_deleted(c),
                    "audit({point:?}): watcher of {lit} on deleted clause {}",
                    c.0
                );
                let len = self.arena.len(c);
                assert_eq!(
                    w.is_binary(),
                    len == 2,
                    "audit({point:?}): binary tag mismatch on clause {} (len {len})",
                    c.0
                );
                let (l0, l1) = (self.arena.lit(c, 0), self.arena.lit(c, 1));
                assert!(
                    l0 == lit || l1 == lit,
                    "audit({point:?}): {lit} watches clause {} but is not in slot 0/1",
                    c.0
                );
                if w.is_binary() {
                    let other = if l0 == lit { l1 } else { l0 };
                    assert_eq!(
                        w.blocker, other,
                        "audit({point:?}): binary blocker of clause {} is not the other literal",
                        c.0
                    );
                } else {
                    assert!(
                        (0..len).any(|k| self.arena.lit(c, k) == w.blocker),
                        "audit({point:?}): blocker {} not a literal of clause {}",
                        w.blocker,
                        c.0
                    );
                }
            }
        }
        let mut attached = 0usize;
        for &c in self.clauses.iter().chain(self.learnts.iter().flatten()) {
            if self.arena.is_deleted(c) {
                continue; // tombstone legality checked in audit_refs
            }
            attached += 1;
            for k in 0..2 {
                let l = self.arena.lit(c, k);
                assert!(
                    self.watches[l.code()].iter().any(|w| w.cref() == c),
                    "audit({point:?}): clause {} missing its watcher on {l}",
                    c.0
                );
            }
        }
        assert_eq!(
            watcher_count,
            2 * attached,
            "audit({point:?}): watcher count disagrees with attached clause count"
        );
        if !allow_tombstones {
            let live_words: usize = self
                .clauses
                .iter()
                .chain(self.learnts.iter().flatten())
                .map(|&c| HEADER_WORDS + self.arena.len(c))
                .sum();
            assert_eq!(
                self.arena.data.len(),
                live_words,
                "audit({point:?}): arena holds words beyond the live clauses"
            );
        }
    }

    /// The relaxed trail invariant: assignment-ordered, level-bounded.
    fn audit_trail(&self, point: AuditPoint) {
        assert!(
            self.qhead <= self.trail.len(),
            "audit({point:?}): propagation queue head past the trail"
        );
        // Note: `trail_lim.len()` is NOT bounded by `num_vars` —
        // satisfied (or repeated) assumptions open empty levels.
        let mut prev = 0usize;
        for (d, &lim) in self.trail_lim.iter().enumerate() {
            assert!(
                lim >= prev && lim <= self.trail.len(),
                "audit({point:?}): trail_lim[{d}] out of order"
            );
            prev = lim;
        }
        let assigned = self.lit_val.iter().step_by(2).filter(|&&v| v != 0).count();
        assert_eq!(
            assigned,
            self.trail.len(),
            "audit({point:?}): trail length disagrees with assigned-variable count"
        );
        let mut on_trail = vec![false; self.num_vars];
        let mut seg = 0usize; // level of the current trail segment
        for (i, &l) in self.trail.iter().enumerate() {
            while seg < self.trail_lim.len() && self.trail_lim[seg] <= i {
                seg += 1;
            }
            let v = l.var().index();
            assert!(
                !on_trail[v],
                "audit({point:?}): {} assigned twice on the trail",
                l.var()
            );
            on_trail[v] = true;
            assert_eq!(
                self.value(l),
                1,
                "audit({point:?}): trail literal {l} is not true"
            );
            let lv = self.level[v] as usize;
            assert!(
                lv <= seg,
                "audit({point:?}): {l} sits in trail segment {seg} above its recorded \
                 level {lv} — compaction left a literal above its level"
            );
            if self.reason[v] == ClauseRef::NONE && lv > 0 {
                assert_eq!(
                    self.trail_lim[lv - 1],
                    i,
                    "audit({point:?}): decision {l} of level {lv} is not at its level boundary"
                );
            }
        }
        for (v, &assigned) in on_trail.iter().enumerate() {
            if !assigned {
                assert_eq!(
                    self.lit_val[2 * v],
                    0,
                    "audit({point:?}): {} assigned but not on the trail",
                    Var(v as u32)
                );
                assert_eq!(
                    self.reason[v],
                    ClauseRef::NONE,
                    "audit({point:?}): unassigned {} retains a reason",
                    Var(v as u32)
                );
            }
        }
    }

    /// Reason soundness: each implied literal's reason is unit under
    /// the trail prefix at the recorded assertion level.
    fn audit_reasons(&self, point: AuditPoint) {
        let mut pos = vec![usize::MAX; self.num_vars];
        for (i, &l) in self.trail.iter().enumerate() {
            pos[l.var().index()] = i;
        }
        for &l in &self.trail {
            let v = l.var().index();
            let r = self.reason[v];
            if r == ClauseRef::NONE {
                continue;
            }
            assert!(
                !self.arena.is_deleted(r),
                "audit({point:?}): reason of {l} is a deleted clause"
            );
            assert!(
                self.arena.lit(r, 0) == l || self.arena.lit(r, 1) == l,
                "audit({point:?}): {l} is not in a watched slot of its reason clause"
            );
            for k in 0..self.arena.len(r) {
                let q = self.arena.lit(r, k);
                if q == l {
                    continue;
                }
                assert_ne!(
                    q.var(),
                    l.var(),
                    "audit({point:?}): reason of {l} contains both polarities of {}",
                    l.var()
                );
                let qv = q.var().index();
                assert_eq!(
                    self.value(q),
                    -1,
                    "audit({point:?}): reason of {l} is not unit — {q} is not false"
                );
                assert!(
                    pos[qv] < pos[v],
                    "audit({point:?}): reason literal {q} assigned after its implication {l}"
                );
                assert!(
                    self.level[qv] <= self.level[v],
                    "audit({point:?}): {l} asserts at level {} below reason literal {q} \
                     at level {}",
                    self.level[v],
                    self.level[qv]
                );
            }
        }
    }

    /// VSIDS heap shape: `pos` inverts `heap`, the max-heap ordering
    /// holds, and no unassigned variable is missing.
    fn audit_heap(&self, point: AuditPoint) {
        let o = &self.order;
        assert_eq!(
            o.pos.len(),
            self.num_vars,
            "audit({point:?}): heap position index has the wrong size"
        );
        let in_heap = o.pos.iter().filter(|&&p| p >= 0).count();
        assert_eq!(
            in_heap,
            o.heap.len(),
            "audit({point:?}): heap position index disagrees with heap size"
        );
        for (i, &v) in o.heap.iter().enumerate() {
            assert!(
                (v as usize) < self.num_vars,
                "audit({point:?}): heap holds unknown variable {v}"
            );
            assert_eq!(
                o.pos[v as usize], i as i64,
                "audit({point:?}): heap position of v{v} is stale"
            );
            if i > 0 {
                let parent = o.heap[(i - 1) / 2];
                assert!(
                    !o.better(v, parent),
                    "audit({point:?}): heap ordering violated at index {i}"
                );
            }
        }
        for v in 0..self.num_vars {
            if self.is_unassigned(v) && !self.eliminated[v] {
                assert!(
                    o.contains(v as u32),
                    "audit({point:?}): unassigned {} missing from the decision heap",
                    Var(v as u32)
                );
            }
        }
    }

    /// Variable-elimination discipline: one elimination-stack frame per
    /// eliminated variable, eliminated variables unassigned,
    /// reason-free, unfrozen, and absent from every live clause.
    fn audit_elim(&self, point: AuditPoint) {
        let eliminated = self.eliminated.iter().filter(|&&e| e).count();
        assert_eq!(
            self.elim_stack.len(),
            eliminated,
            "audit({point:?}): elimination stack does not carry one frame per eliminated variable"
        );
        for frame in &self.elim_stack {
            let v = frame.var.index();
            assert!(
                self.eliminated[v],
                "audit({point:?}): elimination stack frame for non-eliminated {}",
                frame.var
            );
            assert!(
                self.is_unassigned(v),
                "audit({point:?}): eliminated {} is assigned",
                frame.var
            );
            assert_eq!(
                self.reason[v],
                ClauseRef::NONE,
                "audit({point:?}): eliminated {} retains a reason",
                frame.var
            );
            assert!(
                !self.frozen[v],
                "audit({point:?}): frozen {} was eliminated",
                frame.var
            );
            assert!(
                frame.ends.windows(2).all(|w| w[0] < w[1])
                    && frame.ends.first().is_none_or(|&e| e > 0)
                    && frame.ends.last().map_or(0, |&e| e as usize) == frame.lits.len(),
                "audit({point:?}): elimination stack frame for {} does not tile its literals",
                frame.var
            );
            for lits in frame.clauses() {
                assert!(
                    lits.iter().any(|l| l.var() == frame.var),
                    "audit({point:?}): elimination stack frame for {} stores {lits:?} without it",
                    frame.var
                );
            }
        }
        for &c in self.clauses.iter().chain(self.learnts.iter().flatten()) {
            if self.arena.is_deleted(c) {
                continue;
            }
            for k in 0..self.arena.len(c) {
                let l = self.arena.lit(c, k);
                assert!(
                    !self.eliminated[l.var().index()],
                    "audit({point:?}): live clause {} mentions eliminated {}",
                    c.0,
                    l.var()
                );
            }
        }
    }

    /// On SAT: total assignment over the non-eliminated variables,
    /// every clause satisfied.
    fn audit_model(&self, point: AuditPoint) {
        for v in 0..self.num_vars {
            assert!(
                !self.is_unassigned(v) || self.eliminated[v],
                "audit({point:?}): SAT answer leaves {} unassigned",
                Var(v as u32)
            );
        }
        for (what, refs) in [
            ("original", &self.clauses),
            ("core learnt", &self.learnts[TIER_CORE]),
            ("tier2 learnt", &self.learnts[TIER_TIER2]),
            ("local learnt", &self.learnts[TIER_LOCAL]),
        ] {
            for &c in refs {
                let sat = (0..self.arena.len(c)).any(|k| self.value(self.arena.lit(c, k)) == 1);
                assert!(
                    sat,
                    "audit({point:?}): SAT model falsifies {what} clause {}",
                    c.0
                );
            }
        }
    }

    /// Occurrence-index agreement, called from `subsume` right after
    /// the index is built (`fresh`) and again when the pass ends:
    ///
    /// * id ↔ clause: the ids name distinct clauses, every live clause
    ///   of the database has one, and there is one signature per id;
    /// * CSR: the row starts are monotone and tile the flat array, CSR
    ///   rows hold ascending ids below `csr_ids` and tail lists hold
    ///   ascending ids from it on (the mid-pass replacements);
    /// * every entry's clause contains the literal it is filed under,
    ///   and every live indexed clause is filed under each of its
    ///   literals, with its current signature.
    ///
    /// A fresh index holds neither tombstones nor tail entries; by the
    /// end of the pass both are legal.
    pub(super) fn audit_occ_index(&self, idx: &OccIndex, fresh: bool) {
        let n_ids = idx.refs.len();
        assert_eq!(
            idx.sigs.len(),
            n_ids,
            "audit(occ-index): {n_ids} ids but {} signatures",
            idx.sigs.len()
        );
        let mut by_ref: Vec<(u32, usize)> = idx.refs.iter().map(|c| c.0).zip(0..).collect();
        by_ref.sort_unstable();
        for w in by_ref.windows(2) {
            assert_ne!(
                w[0].0, w[1].0,
                "audit(occ-index): ids {} and {} name the same clause {}",
                w[0].1, w[1].1, w[0].0
            );
        }
        let mut live = 0usize;
        for &c in self.clauses.iter().chain(self.learnts.iter().flatten()) {
            if self.arena.is_deleted(c) {
                continue;
            }
            live += 1;
            assert!(
                by_ref.binary_search_by_key(&c.0, |&(r, _)| r).is_ok(),
                "audit(occ-index): live clause {} has no id",
                c.0
            );
        }
        if fresh {
            assert_eq!(
                (idx.csr_ids, n_ids),
                (live, live),
                "audit(occ-index): fresh index covers a different clause set"
            );
        }
        let n_lits = 2 * self.num_vars;
        let (starts, flat) = (&idx.csr.starts, &idx.csr.flat);
        assert_eq!(starts.len(), n_lits + 1, "audit(occ-index): CSR row count");
        assert_eq!(
            starts[0], 0,
            "audit(occ-index): CSR starts at {}",
            starts[0]
        );
        assert_eq!(
            starts[n_lits] as usize,
            flat.len(),
            "audit(occ-index): CSR rows do not tile the flat array"
        );
        let mut hits = vec![0usize; n_ids];
        for code in 0..n_lits {
            let lit = Lit::from_code(code);
            let (lo, hi) = (starts[code], starts[code + 1]);
            assert!(
                lo <= hi,
                "audit(occ-index): CSR row of {lit} runs backwards"
            );
            let row = &flat[lo as usize..hi as usize];
            let tail = &idx.tail[code];
            assert!(
                !fresh || tail.is_empty(),
                "audit(occ-index): fresh index has tail entries under {lit}"
            );
            for (in_csr, ids) in [(true, row), (false, tail.as_slice())] {
                let list = if in_csr { "CSR row" } else { "tail" };
                for w in ids.windows(2) {
                    assert!(
                        w[0] < w[1],
                        "audit(occ-index): {list} of {lit} not strictly ascending"
                    );
                }
                for &id in ids {
                    let id = id as usize;
                    assert!(
                        id < n_ids && (id < idx.csr_ids) == in_csr,
                        "audit(occ-index): id {id} misfiled in the {list} of {lit}"
                    );
                    let c = idx.refs[id];
                    if self.arena.is_deleted(c) {
                        assert!(
                            !fresh,
                            "audit(occ-index): tombstone {} indexed under {lit}",
                            c.0
                        );
                        continue;
                    }
                    assert!(
                        (0..self.arena.len(c)).any(|k| self.arena.lit(c, k) == lit),
                        "audit(occ-index): clause {} indexed under {lit} it does not contain",
                        c.0
                    );
                    hits[id] += 1;
                }
            }
        }
        for (id, &c) in idx.refs.iter().enumerate() {
            if self.arena.is_deleted(c) {
                continue;
            }
            assert_eq!(
                idx.sigs[id],
                signature(self.arena.lits(c)),
                "audit(occ-index): stale signature for clause {}",
                c.0
            );
            assert_eq!(
                hits[id],
                self.arena.len(c),
                "audit(occ-index): live clause {} missing from an occurrence list",
                c.0
            );
        }
    }
}

/// Mutation tests: corrupt one invariant at a time and assert the
/// auditor catches that corruption class. A clean-state control runs
/// first in each so a pass can only come from the seeded fault.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cnf;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    /// A small audited state with a decision and three implications:
    /// deciding 1 propagates 2 (binary reason), then 3, then 4.
    fn audited_state() -> CdclSolver {
        let mut c = Cnf::new(0);
        c.add_clause([lit(-1), lit(2)]);
        c.add_clause([lit(-1), lit(-2), lit(3)]);
        c.add_clause([lit(-2), lit(-3), lit(4)]);
        c.add_clause([lit(-4), lit(5), lit(6)]);
        let config = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut st = crate::solver::tests::loaded(&c, config);
        st.trail_lim.push(st.trail.len());
        st.enqueue(lit(1), ClauseRef::NONE);
        assert!(st.propagate().is_none());
        assert_eq!(st.trail.len(), 4);
        st.audit_now(AuditPoint::Propagate); // control: clean state passes
        st
    }

    #[test]
    #[should_panic(expected = "watcher")]
    fn corrupted_watch_list_is_caught() {
        let mut st = audited_state();
        let victim = st
            .watches
            .iter()
            .position(|l| !l.is_empty())
            .expect("attached clauses have watchers");
        st.watches[victim].pop();
        st.audit_now(AuditPoint::Propagate);
    }

    #[test]
    #[should_panic(expected = "above its recorded level")]
    fn corrupted_trail_level_is_caught() {
        let mut st = audited_state();
        // Pretend the decision's first implication was assigned at a
        // level that does not exist: its segment (level 1) now sits
        // *below* the recorded level, the compaction bug class.
        let v = st.trail[1].var().index();
        st.level[v] = 7;
        st.audit_now(AuditPoint::Backtrack);
    }

    #[test]
    #[should_panic(expected = "reason")]
    fn corrupted_reason_ref_is_caught() {
        let mut st = audited_state();
        // Rewire an implication's reason to a clause that does not
        // contain it (the binary clause {¬1, 2} for implied literal 3).
        let v = lit(3).var().index();
        assert_ne!(st.reason[v], ClauseRef::NONE);
        st.reason[v] = st.clauses[0];
        st.audit_now(AuditPoint::Analyze);
    }

    #[test]
    #[should_panic(expected = "held by 0 ref lists")]
    fn unlisted_live_clause_is_caught() {
        let mut st = audited_state();
        // Drop a live clause from its ref list without marking it
        // deleted: GC walks the arena, so the clause would linger there
        // forever, unreclaimable and invisible to every list walk.
        let c = st.clauses[3];
        st.detach_clause(c);
        st.clauses.retain(|&x| x != c);
        st.audit_now(AuditPoint::Gc);
    }

    #[test]
    #[should_panic(expected = "elimination stack")]
    fn corrupted_elimination_stack_is_caught() {
        // (1 ∨ 2), (¬1 ∨ 3): variable 1 is eliminable, its frame keeps
        // both clauses and the database keeps the resolvent (2 ∨ 3).
        let mut c = Cnf::new(0);
        c.add_clause([lit(1), lit(2)]);
        c.add_clause([lit(-1), lit(3)]);
        let config = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut st = crate::solver::tests::loaded(&c, config);
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        st.collect_garbage();
        st.audit_now(AuditPoint::Gc); // control: eliminated-var invariants hold
                                      // Control: a model of the remaining formula (2 true satisfies
                                      // the resolvent) reconstructs and audits cleanly.
        let mut values = vec![false, true, false];
        st.reconstruct_model(&mut values);
        st.audit_reconstruction(&values);
        // Corrupt the flat frame so no single polarity of variable 1
        // can satisfy all stored clauses; the reconstruction audit
        // must name the elimination stack.
        st.elim_stack[0].lits = vec![lit(1), lit(-1)];
        st.elim_stack[0].ends = vec![1, 2];
        let mut values = vec![false, true, false];
        st.reconstruct_model(&mut values);
        st.audit_reconstruction(&values);
    }

    #[test]
    #[should_panic(expected = "does not tile its literals")]
    fn corrupted_elimination_frame_offsets_are_caught() {
        let mut c = Cnf::new(0);
        c.add_clause([lit(1), lit(2)]);
        c.add_clause([lit(-1), lit(3)]);
        let config = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut st = crate::solver::tests::loaded(&c, config);
        assert!(st.eliminate_vars(None));
        st.collect_garbage();
        st.audit_now(AuditPoint::Gc); // control
                                      // An end offset past the literal buffer: the frame's clauses
                                      // no longer tile it.
        st.elim_stack[0].ends[1] += 1;
        st.audit_now(AuditPoint::Gc);
    }

    #[test]
    #[should_panic(expected = "stale signature")]
    fn corrupted_occ_index_signature_is_caught() {
        let st = audited_state();
        let mut idx = OccIndex::build(&st);
        st.audit_occ_index(&idx, true); // control
        idx.sigs[2] ^= 1 << 40;
        st.audit_occ_index(&idx, true);
    }

    #[test]
    #[should_panic(expected = "does not contain")]
    fn corrupted_occ_index_row_is_caught() {
        let st = audited_state();
        let mut idx = OccIndex::build(&st);
        st.audit_occ_index(&idx, true); // control
                                        // The row of literal 5 holds only {¬4, 5, 6}; file {¬1, 2}
                                        // there instead.
        let code = lit(5).code();
        assert_eq!(idx.occ_len(code), 1);
        let slot = idx.csr.starts[code] as usize;
        idx.csr.flat[slot] = 0;
        st.audit_occ_index(&idx, true);
    }

    #[test]
    fn auditor_is_invisible_to_the_search() {
        // Identical configs except `audit` must produce identical
        // statistics: the auditor reads, never steers.
        let mut c = Cnf::new(0);
        for cl in [
            [lit(1), lit(2), lit(3)],
            [lit(-1), lit(-2), lit(3)],
            [lit(1), lit(-2), lit(-3)],
            [lit(-1), lit(2), lit(-3)],
        ] {
            c.add_clause(cl);
        }
        let quiet = CdclConfig::default();
        let loud = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut a = CdclSolver::with_config(quiet);
        let mut b = CdclSolver::with_config(loud);
        assert!(a.solve(&c).is_sat());
        assert!(b.solve(&c).is_sat());
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.decisions, b.stats.decisions);
        assert_eq!(a.stats.propagations, b.stats.propagations);
    }

    #[test]
    fn audited_solve_stays_correct_under_pressure() {
        // Drive a full audited search through restarts, GC and
        // inprocessing on a pigeonhole instance: every checkpoint must
        // hold on real (not hand-built) states.
        let holes = 4i64;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let mut c = Cnf::new(0);
        for i in 1..=holes + 1 {
            c.add_clause((1..=holes).map(|j| lit(p(i, j))));
        }
        for j in 1..=holes {
            for i in 1..=holes + 1 {
                for k in i + 1..=holes + 1 {
                    c.add_clause([lit(-p(i, j)), lit(-p(k, j))]);
                }
            }
        }
        let config = CdclConfig {
            audit: true,
            restart_base: 2,
            ema_restarts_from: None,
            max_learnts_floor: 4.0,
            inprocess_interval: 8,
            chrono_from: Some(0),
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        assert!(s.solve(&c).is_unsat());
        assert!(s.stats.conflicts > 0);
    }
}
