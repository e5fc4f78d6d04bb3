//! Bounded variable elimination.
//!
//! The second half of the SatELite preprocessing pair (subsumption and
//! self-subsuming resolution landed with `inprocess.rs`), run as
//! *inprocessing*: at restart boundaries, on the live clause database,
//! interleaved with search.
//!
//! A variable `v` is eliminated ([`CdclSolver::eliminate_vars`]) by
//! replacing every original clause containing `v` with the
//! non-tautological resolvents of the positive × negative occurrence
//! pairs (distribution). The pass is *bounded*: a variable is only
//! eliminated when the resolvent count exceeds the clause count it
//! replaces by at most [`ELIM_GROW`], both occurrence sides are small,
//! and every participating clause is short. Learnt clauses containing
//! `v` are consequences of the originals and are simply deleted. Pure
//! literals fall out as the zero-resolvent special case.
//!
//! Eliminating a variable changes the *model*, not just the search: the
//! deleted original clauses are pushed onto an **elimination stack**
//! ([`ElimFrame`]) and a SAT answer walks the stack backwards to extend
//! the assignment over the eliminated variables
//! ([`CdclSolver::reconstruct_model`]). The incremental API restores
//! eliminated variables on demand ([`CdclSolver::restore_var`]): a new
//! clause or assumption mentioning one pops stack frames LIFO — popping
//! in reverse elimination order guarantees a popped frame's clauses
//! never mention a variable that is still eliminated — and re-adds the
//! stored clauses. Frozen variables ([`CdclSolver::freeze`]) are never
//! eliminated in the first place; the synthesis layers freeze their
//! activation literals and assumption variables up front.
//!
//! The pass runs only at decision level 0 with no assumptions applied,
//! so everything it derives is a consequence of the added clauses
//! alone. `maybe_inprocess` schedules it right after subsumption from
//! [`CdclConfig::elim_from`] session conflicts on, mirroring
//! [`CdclConfig::chrono_from`]: below the gate the clause database
//! evolves exactly as it did before this module existed, keeping the
//! small benchmark records conflict-identical.

use super::inprocess::Csr;
use super::*;

/// Variable elimination only considers variables with at most this
/// many positive and this many negative occurrences.
const ELIM_OCCURRENCE_CAP: usize = 30;
/// Variable elimination skips variables occurring in any clause
/// longer than this (long resolvents are rarely worth the growth).
const ELIM_CLAUSE_SIZE_CAP: usize = 24;
/// Allowed clause-count growth per eliminated variable: a variable is
/// eliminated when its non-tautological resolvents number at most the
/// clauses they replace *plus this margin* (`0` is the classic
/// never-grow rule).
const ELIM_GROW: usize = 12;

/// One eliminated variable: the original clauses that mentioned it,
/// recorded in elimination order. [`CdclSolver::reconstruct_model`] walks
/// frames newest-first to complete a model; [`CdclSolver::restore_var`]
/// pops them (strictly LIFO) to reintroduce a variable the incremental
/// API needs back.
///
/// The clauses are stored flat — one literal buffer plus end offsets,
/// the layout of [`crate::proof::ProofLog`] — rather than one `Vec`
/// per clause, whose header and heap block would outweigh the few
/// literals of a typical stored clause.
#[derive(Clone, Debug)]
pub(super) struct ElimFrame {
    /// The eliminated variable.
    pub(super) var: Var,
    /// The literals of every original clause that contained
    /// [`ElimFrame::var`] when it was eliminated (both polarities),
    /// back to back.
    pub(super) lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of stored clause `i` in
    /// [`ElimFrame::lits`].
    pub(super) ends: Vec<u32>,
}

impl ElimFrame {
    /// The stored clauses, in elimination order.
    pub(super) fn clauses(&self) -> impl Iterator<Item = &[Lit]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end as usize];
            start = end as usize;
            clause
        })
    }
}

impl CdclSolver {
    /// Queues every variable of `c` for retry at the next BVE pass —
    /// called wherever an *original* clause is deleted, strengthened,
    /// or promoted, since that changes its variables' resolution
    /// partner sets. (Additions mark through `add_original_clause`.)
    pub(super) fn elim_touch_clause(&mut self, c: ClauseRef) {
        for i in 0..self.arena.len(c) {
            self.elim_dirty[self.arena.lit(c, i).var().index()] = true;
        }
    }

    /// Reintroduces an eliminated variable by popping elimination-stack
    /// frames LIFO until the variable's own frame has been replayed.
    /// LIFO order is what makes replay sound: a frame's stored clauses
    /// can only mention variables that were live when it was pushed,
    /// and every variable eliminated later sits above it on the stack.
    pub(super) fn restore_var(&mut self, v: usize) {
        while self.eliminated[v] {
            self.restore_last_eliminated();
            if self.root_unsat {
                return;
            }
        }
    }

    /// Pops the top elimination frame and re-adds its clauses. The
    /// added resolvents stay — they are consequences of the restored
    /// clauses, so the formula only tightens. A root contradiction
    /// while replaying latches `root_unsat`.
    fn restore_last_eliminated(&mut self) {
        #[expect(clippy::expect_used, reason = "callers check the stack is non-empty")]
        let frame = self
            .elim_stack
            .pop()
            .expect("restore_last_eliminated with an empty elimination stack");
        let v = frame.var.index();
        debug_assert!(self.eliminated[v]);
        self.eliminated[v] = false;
        // `eliminated_vars` reports the *net* count so `--stats` agrees
        // with the number of variables the search actually skips.
        self.stats.eliminated_vars = self.stats.eliminated_vars.saturating_sub(1);
        self.order.insert(v as u32);
        for lits in frame.clauses() {
            // A restored clause is not a consequence of the current
            // formula (BVE only preserves satisfiability), but it *is*
            // RAT on its literal over the frame variable: the frame's
            // occurrences were all proof-deleted at elimination time,
            // so positive-side clauses see no resolution partner, and
            // negative-side partners resolve into the still-live BVE
            // resolvents. DRAT pivots are positional — rotate the frame
            // literal to the front for the proof step only.
            if self.proof.is_some() {
                let mut rat = lits.to_vec();
                if let Some(i) = rat.iter().position(|l| l.var() == frame.var) {
                    rat.swap(0, i);
                }
                self.proof_add_derived(&rat);
            }
            if !self.add_original_clause(lits) {
                self.root_unsat = true;
                return;
            }
        }
    }

    /// One bounded-variable-elimination pass. Returns whether any
    /// clause was deleted (the caller then runs the compacting GC).
    ///
    /// The occurrence index is built once per pass; committing an
    /// elimination adds resolvents the index does not know about, so
    /// every variable of a resolvent is marked *dirty* and skipped for
    /// the remainder of the pass (its index entry is incomplete — a
    /// missed resolution partner would make elimination unsound).
    /// Deleted clauses, by contrast, stay harmlessly in the index as
    /// tombstones and are filtered on use.
    /// `deadline` is the governor's wall cutoff, polled every 1024
    /// variables: an out-of-time pass stops resolving and falls
    /// through to the closing GC with whatever it committed.
    pub(super) fn eliminate_vars(&mut self, deadline: Option<Instant>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.root_unsat || self.num_vars == 0 {
            return false;
        }
        // Candidate set first: only variables whose original
        // occurrences changed since their last attempt (see
        // `elim_dirty`) are retried, and the occurrence index is built
        // for *their* literals only — a quiesced database costs one
        // cheap scan, not a full index rebuild.
        let mut candidate = vec![false; self.num_vars];
        let mut any = false;
        for (v, cand) in candidate.iter_mut().enumerate() {
            if self.elim_dirty[v]
                && self.is_unassigned(v)
                && !self.frozen[v]
                && !self.assumed[v]
                && !self.eliminated[v]
            {
                *cand = true;
                any = true;
            }
        }
        if !any {
            return false;
        }
        // The occurrence lists of the candidates' literals, row `code`
        // holding the clauses containing literal `code` in database
        // order.
        let occs = Csr::build(
            2 * self.num_vars,
            self.clauses
                .iter()
                .chain(self.learnts.iter().flatten())
                .filter(|&&c| !self.arena.is_deleted(c))
                .flat_map(|&c| {
                    self.arena
                        .lits(c)
                        .filter(|l| candidate[l.var().index()])
                        .map(move |l| (l.code(), c.0))
                }),
        );
        // Within-pass staleness: committing an elimination adds
        // resolvents the occurrence index does not know about, so every
        // variable of a resolvent is skipped for the remainder of the
        // pass (a missed resolution partner would make elimination
        // unsound). Deleted clauses, by contrast, stay harmlessly in
        // the index as tombstones and are filtered on use. The
        // *cross-pass* work list is `self.elim_dirty`: variables whose
        // original occurrences are unchanged since their last attempt
        // are skipped outright.
        let mut index_stale = vec![false; self.num_vars];
        // Stamped marks over literal codes, shared by the tautology
        // check and resolvent construction (one stamp per positive
        // clause, never cleared).
        let mut mark = vec![0u32; 2 * self.num_vars];
        let mut stamp = 0u32;
        let mut budget = self.config.elim_check_budget as i64;
        let mut changed = false;
        for v in 0..self.num_vars {
            if budget <= 0 || self.root_unsat {
                break;
            }
            if v.is_multiple_of(1024) && governor_halt(deadline) {
                break;
            }
            if !candidate[v] || index_stale[v] || self.eliminated[v] || !self.is_unassigned(v) {
                continue;
            }
            let pos_lit = Lit::pos(Var(v as u32));
            let neg_lit = Lit::neg(Var(v as u32));
            // Resolution partners are the *original* clauses only;
            // learnt clauses are consequences and need no resolvents.
            let mut sides: [Vec<ClauseRef>; 2] = [Vec::new(), Vec::new()];
            let mut capped = false;
            for (side, lit) in [pos_lit, neg_lit].into_iter().enumerate() {
                for &c in occs.row(lit.code()) {
                    let c = ClauseRef(c);
                    budget -= 1;
                    if self.arena.is_deleted(c) || self.arena.is_learnt(c) {
                        continue;
                    }
                    if self.arena.len(c) > ELIM_CLAUSE_SIZE_CAP
                        || sides[side].len() >= ELIM_OCCURRENCE_CAP
                    {
                        capped = true;
                        break;
                    }
                    sides[side].push(c);
                }
                if capped {
                    break;
                }
            }
            if capped {
                // Conclusive: only a shrinking occurrence list can
                // change the verdict, and deletions re-mark the dirty
                // bit.
                self.elim_dirty[v] = false;
                continue;
            }
            let [pos, neg] = sides;
            // Never-grow rule: count the non-tautological resolvents
            // and give up on this variable as soon as they exceed the
            // clauses they would replace.
            let limit = pos.len() + neg.len() + ELIM_GROW;
            let mut count = 0usize;
            let mut grew = false;
            // `hot-path-alloc`: the resolve-and-check loop is quadratic
            // in the occurrence lists and runs over the whole variable
            // range; it touches only the preallocated stamp marks.
            #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
            'count: for &p in &pos {
                stamp += 1;
                let p_len = self.arena.len(p);
                for i in 0..p_len {
                    mark[self.arena.lit(p, i).code()] = stamp;
                }
                for &q in &neg {
                    let q_len = self.arena.len(q);
                    budget -= (p_len + q_len) as i64;
                    let mut taut = false;
                    for j in 0..q_len {
                        let l = self.arena.lit(q, j);
                        if l != neg_lit && mark[(!l).code()] == stamp {
                            taut = true;
                            break;
                        }
                    }
                    if !taut {
                        count += 1;
                        if count > limit {
                            grew = true;
                            break 'count;
                        }
                    }
                }
            }
            if grew {
                self.elim_dirty[v] = false;
                continue;
            }
            if budget <= 0 {
                // Inconclusive — the dirty bit stays set so the next
                // pass retries this variable with a fresh budget.
                continue;
            }
            self.elim_dirty[v] = false;
            // Commit. Record the frame first (reconstruction needs the
            // clauses exactly as they were), then delete every live
            // clause containing `v` — originals and learnts alike — and
            // only then add the resolvents, so no propagation can ever
            // assign the variable being eliminated.
            let mut resolvents: Vec<Vec<Lit>> = Vec::with_capacity(count);
            for &p in &pos {
                stamp += 1;
                let p_len = self.arena.len(p);
                for i in 0..p_len {
                    mark[self.arena.lit(p, i).code()] = stamp;
                }
                for &q in &neg {
                    let q_len = self.arena.len(q);
                    let mut taut = false;
                    for j in 0..q_len {
                        let l = self.arena.lit(q, j);
                        if l != neg_lit && mark[(!l).code()] == stamp {
                            taut = true;
                            break;
                        }
                    }
                    if taut {
                        continue;
                    }
                    let mut r: Vec<Lit> = Vec::with_capacity(p_len + q_len - 2);
                    for i in 0..p_len {
                        let l = self.arena.lit(p, i);
                        if l != pos_lit {
                            r.push(l);
                        }
                    }
                    for j in 0..q_len {
                        let l = self.arena.lit(q, j);
                        // The stamp marks double as the dedup filter.
                        if l != neg_lit && mark[l.code()] != stamp {
                            r.push(l);
                        }
                    }
                    resolvents.push(r);
                }
            }
            debug_assert_eq!(resolvents.len(), count);
            // Each resolvent is RUP while both of its parents are still
            // live, so the proof must see every resolvent *before* the
            // occurrence deletions below.
            if self.proof.is_some() {
                for r in &resolvents {
                    self.proof_add_derived(r);
                }
            }
            let stored = pos.iter().chain(&neg);
            let mut frame = ElimFrame {
                var: Var(v as u32),
                lits: Vec::with_capacity(stored.clone().map(|&c| self.arena.len(c)).sum()),
                ends: Vec::with_capacity(pos.len() + neg.len()),
            };
            for &c in stored {
                frame.lits.extend(self.arena.lits(c));
                frame.ends.push(frame.lits.len() as u32);
            }
            for lit in [pos_lit, neg_lit] {
                for &c in occs.row(lit.code()) {
                    let c = ClauseRef(c);
                    if self.arena.is_deleted(c) {
                        continue;
                    }
                    // A clause with an unassigned literal can never be
                    // the reason of a trail literal.
                    debug_assert!(!self.is_locked(c));
                    // The deletion shrinks every co-occurring
                    // variable's partner set — queue them for retry.
                    if !self.arena.is_learnt(c) {
                        self.elim_touch_clause(c);
                    }
                    self.proof_delete_cref(c);
                    self.arena.mark_deleted(c);
                    self.detach_clause(c);
                    changed = true;
                }
            }
            self.eliminated[v] = true;
            self.elim_stack.push(frame);
            self.stats.eliminated_vars += 1;
            self.stats.elim_resolvents += count as u64;
            for r in &resolvents {
                for &l in r {
                    index_stale[l.var().index()] = true;
                }
                // `add_original_clause` re-marks the resolvent's
                // variables in `elim_dirty` for the next pass.
                if !self.add_original_clause(r) {
                    self.root_unsat = true;
                    return changed;
                }
            }
        }
        changed
    }

    /// Completes a model over the eliminated variables, newest frame
    /// first. For each frame, any stored clause not already satisfied
    /// by the other variables forces the frame variable to the polarity
    /// it has in that clause. At most one polarity class of a frame can
    /// be otherwise-unsatisfied — two opposing unsatisfied clauses
    /// would have produced a falsified non-tautological resolvent, and
    /// all resolvents were added to (and satisfied by) the formula the
    /// model came from — so the first forced assignment settles the
    /// frame.
    pub(super) fn reconstruct_model(&self, values: &mut [bool]) {
        for frame in self.elim_stack.iter().rev() {
            let v = frame.var.index();
            for lits in frame.clauses() {
                let satisfied_without_v = lits
                    .iter()
                    .any(|&l| l.var().index() != v && (values[l.var().index()] ^ l.is_neg()));
                if !satisfied_without_v {
                    #[expect(clippy::expect_used, reason = "frames hold clauses of their variable")]
                    let own = lits
                        .iter()
                        .find(|l| l.var().index() == v)
                        .expect("elimination frames store clauses containing their variable");
                    values[v] = !own.is_neg();
                    break;
                }
            }
        }
    }

    /// Audit hook: asserts that the reconstructed model satisfies every
    /// clause stored on the elimination stack — the part of the
    /// original formula that no longer exists in the clause database
    /// and which `audit_model`'s live-clause check therefore cannot
    /// see.
    pub(super) fn audit_reconstruction(&self, values: &[bool]) {
        for (fi, frame) in self.elim_stack.iter().enumerate() {
            for lits in frame.clauses() {
                assert!(
                    lits.iter().any(|&l| values[l.var().index()] ^ l.is_neg()),
                    "audit: elimination stack frame {fi} (var {}) holds a clause the \
                     reconstructed model falsifies: {lits:?}",
                    frame.var
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Budget, Cnf};

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn state(clauses: &[&[i64]], config: CdclConfig) -> CdclSolver {
        let mut c = Cnf::new(0);
        for cl in clauses {
            c.add_clause(cl.iter().map(|&d| lit(d)));
        }
        crate::solver::tests::loaded(&c, config)
    }

    #[test]
    fn eliminates_a_variable_and_keeps_the_resolvent() {
        // Variable 1 resolves (1 2) × (-1 3) into (2 3); the two
        // originals land on the elimination stack.
        let mut st = state(&[&[1, 2], &[-1, 3]], CdclConfig::default());
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        assert_eq!(st.stats.eliminated_vars, 1);
        assert_eq!(st.stats.elim_resolvents, 1);
        assert_eq!(st.elim_stack.len(), 1);
        assert_eq!(st.elim_stack[0].var, Var(0));
        assert_eq!(st.elim_stack[0].clauses().count(), 2);
        let live: Vec<Vec<Lit>> = st
            .clauses
            .iter()
            .filter(|&&c| !st.arena.is_deleted(c))
            .map(|&c| (0..st.arena.len(c)).map(|i| st.arena.lit(c, i)).collect())
            .collect();
        assert_eq!(live, vec![vec![lit(2), lit(3)]]);
    }

    #[test]
    fn frozen_and_assumed_variables_are_never_eliminated() {
        let mut st = state(&[&[1, 2], &[-1, 3]], CdclConfig::default());
        st.frozen[0] = true;
        st.assumed[1] = true;
        st.frozen[2] = true;
        assert!(!st.eliminate_vars(None));
        assert!(!st.eliminated.iter().any(|&e| e));
        // Melting a variable makes it eliminable again.
        st.frozen[0] = false;
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        assert!(!st.eliminated[1]);
        assert!(!st.eliminated[2]);
    }

    #[test]
    fn tautological_resolvents_enable_pure_style_elimination() {
        // (1 2) × (-1 -2) is tautological: eliminating variable 1 adds
        // nothing, and variable 2 then goes out as a pure literal.
        let mut st = state(&[&[1, 2], &[-1, -2]], CdclConfig::default());
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        assert_eq!(st.stats.elim_resolvents, 0);
    }

    #[test]
    fn restore_var_replays_frames_lifo() {
        let mut st = state(&[&[1, 2], &[-1, 3]], CdclConfig::default());
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        st.restore_var(0);
        assert!(!st.eliminated[0]);
        assert!(st.elim_stack.is_empty());
        assert_eq!(st.stats.eliminated_vars, 0);
        assert!(!st.root_unsat);
        // The two original clauses are back among the live clauses.
        let live: Vec<Vec<Lit>> = st
            .clauses
            .iter()
            .filter(|&&c| !st.arena.is_deleted(c))
            .map(|&c| (0..st.arena.len(c)).map(|i| st.arena.lit(c, i)).collect())
            .collect();
        assert!(live.contains(&vec![lit(1), lit(2)]));
        assert!(live.contains(&vec![lit(-1), lit(3)]));
    }

    #[test]
    fn freeze_restores_an_already_eliminated_variable() {
        let mut st = state(&[&[1, 2], &[-1, 3]], CdclConfig::default());
        assert!(st.eliminate_vars(None));
        assert!(st.eliminated[0]);
        st.freeze(Var(0));
        assert!(!st.eliminated[0]);
        assert!(st.frozen[0]);
        // A frozen variable stays put through further passes.
        assert!(!st.eliminate_vars(None) || !st.eliminated[0]);
    }

    #[test]
    fn reconstruction_completes_the_model_over_eliminated_vars() {
        // Force variable 1 to matter: (1 2) and (-1 3) with 2 and 3
        // both false requires... no model; pick values satisfying the
        // resolvent only one way. With 2 false and 3 true, clause (1 2)
        // forces variable 1 true.
        let mut st = state(&[&[1, 2], &[-1, 3]], CdclConfig::default());
        assert!(st.eliminate_vars(None));
        let mut values = vec![false, false, true];
        st.reconstruct_model(&mut values);
        assert!(values[0], "clause (1 2) with 2 false forces 1 true");
        st.audit_reconstruction(&values);
        // And the opposite corner: 2 true, 3 false forces 1 false.
        let mut values = vec![true, true, false];
        st.reconstruct_model(&mut values);
        assert!(!values[0], "clause (-1 3) with 3 false forces 1 false");
        st.audit_reconstruction(&values);
    }

    /// Satisfiable pigeonhole (`n` into `n`): enough conflicts under
    /// aggressive schedules that inprocessing really fires.
    fn php_sat(n: i64) -> Cnf {
        let p = |i: i64, j: i64| (i - 1) * n + j;
        let mut c = Cnf::new(0);
        for i in 1..=n {
            c.add_clause((1..=n).map(|j| lit(p(i, j))));
        }
        for j in 1..=n {
            for a in 1..=n {
                for b in (a + 1)..=n {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        c
    }

    #[test]
    fn end_to_end_solve_with_elimination_reconstructs_valid_models() {
        // The returned model must satisfy the *original* clauses even
        // for variables BVE resolved away (reconstruction), with every
        // audit — including the reconstruction check — switched on.
        let c = php_sat(5);
        let config = CdclConfig {
            elim_from: Some(0),
            inprocess_interval: 0,
            restart_base: 1,
            audit: true,
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        let out = s.solve_with(&c, &[], &Budget::default());
        match out {
            SolveOutcome::Sat(model) => assert!(c.eval(&model), "reconstructed model is bogus"),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn incremental_clause_addition_reintroduces_eliminated_vars() {
        // Eliminate a variable, then add a clause that mentions it: the
        // addition must replay the elimination frame before attaching.
        let config = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(3)]);
        assert!(s.eliminate_vars(None));
        assert!(s.eliminated[0]);
        s.collect_garbage();
        s.add_clause([lit(1)]);
        assert!(!s.eliminated[0]);
        // With the frame replayed, (1) forces 3 through (-1 3).
        assert!(s.solve_assuming(&[lit(-3)], &Budget::default()).is_unsat());
        assert!(s.solve_assuming(&[], &Budget::default()).is_sat());
    }

    #[test]
    fn assumptions_on_eliminated_vars_restore_them() {
        let config = CdclConfig {
            audit: true,
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(3)]);
        assert!(s.eliminate_vars(None));
        assert!(s.eliminated[0]);
        s.collect_garbage();
        // Assuming the eliminated variable restores it; 1 ∧ ¬3 then
        // contradicts the replayed (-1 3).
        assert!(s
            .solve_assuming(&[lit(1), lit(-3)], &Budget::default())
            .is_unsat());
        assert!(!s.eliminated[0]);
        assert!(s.solve_assuming(&[lit(1)], &Budget::default()).is_sat());
    }

    /// The formula the test above eliminates variable 1 from keeps it
    /// once it is frozen.
    #[test]
    fn freeze_api_controls_eliminability() {
        let config = CdclConfig {
            elim_from: Some(0),
            inprocess_interval: 0,
            restart_base: 1,
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        s.freeze(Var(0)); // grows the variable space on demand
        for _ in 0..3 {
            s.new_var();
        }
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(3)]);
        s.eliminate_vars(None);
        assert!(!s.eliminated[0]);
        assert!(s.solve_assuming(&[], &Budget::default()).is_sat());
    }
}
