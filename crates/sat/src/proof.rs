//! DRAT proof logging and backward, core-marking checking.
//!
//! The solver (when proof logging is enabled) records every clause it
//! ever holds as one of three step kinds:
//!
//! * [`StepKind::AddInput`] — a clause the caller asserted
//!   (`add_clause`/`load_cnf`). Inputs are axioms: the checker admits
//!   them without justification.
//! * [`StepKind::AddDerived`] — a clause the solver claims follows
//!   from the clauses currently live: 1UIP learnts, strengthened
//!   replacements, BVE resolvents, eliminated-clause restorations, and
//!   the terminal empty clause (root UNSAT) or negated-assumption core
//!   (UNSAT under assumptions). The checker verifies one by RUP —
//!   assume the negation, unit-propagate, demand a conflict — falling
//!   back to RAT on the first literal (the `drat-trim` convention),
//!   which is what justifies re-adding clauses whose pivot variable
//!   was eliminated by BVE.
//! * [`StepKind::Delete`] — a clause removed from the live set
//!   (`reduce_db`, subsumption, strengthened originals,
//!   BVE occurrence deletion). Deletions matter for soundness of the
//!   RAT checks, so the in-tree checker applies them strictly: a
//!   deletion that names a clause not currently live is rejected.
//!
//! Checking runs backward, as `drat-trim` does: a forward replay with
//! no RUP work finds the certified target (the first root conflict, or
//! the final negated-assumption core), then a backward walk verifies
//! the lemmas conflict analysis marks, starting from the target.
//! [`certify_unsat`] thereby verifies exactly the refutation's
//! dependency cone; [`check`] pre-marks every lemma and verifies all of
//! them.
//!
//! The in-memory log is self-contained (inputs interleaved with
//! derivations, so an incremental session's growing formula is
//! captured exactly). For interop with external `drat-trim`, the
//! derivation/deletion steps alone serialize to standard text or
//! binary DRAT ([`ProofLog::write_drat`]) to be checked against a
//! DIMACS file holding the inputs.

#![deny(clippy::disallowed_types)]

use crate::{Cnf, Lit};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::io::{self, Write};

/// The role of one proof step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// Caller-asserted clause; admitted without checking.
    AddInput,
    /// Solver-derived clause; must pass RUP or first-literal RAT.
    AddDerived,
    /// Removal of a live clause.
    Delete,
}

/// An append-only clause-level proof trace.
///
/// Stored flat (one literal pool plus per-step bounds) so logging a
/// step is two `Vec` appends and no per-step allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofLog {
    kinds: Vec<StepKind>,
    /// `ends[i]` = one past the last literal of step `i` in `lits`.
    ends: Vec<u32>,
    lits: Vec<Lit>,
    /// A frozen log silently drops every later step — the
    /// truncated-proof fault (a crashed writer, a full disk). The
    /// checker must then reject the log for lacking a refutation;
    /// nothing downstream may trust a frozen log.
    frozen: bool,
}

impl ProofLog {
    /// An empty proof.
    pub fn new() -> ProofLog {
        ProofLog::default()
    }

    fn push(&mut self, kind: StepKind, lits: impl IntoIterator<Item = Lit>) {
        if self.frozen {
            return;
        }
        self.lits.extend(lits);
        self.ends.push(self.lits.len() as u32);
        self.kinds.push(kind);
    }

    /// Freezes the log: every later `add_input`/`add_derived`/`delete`
    /// is dropped, simulating a truncated proof. Irreversible.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the log was frozen (truncated) mid-run.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Records a caller-asserted clause.
    pub fn add_input(&mut self, lits: &[Lit]) {
        self.push(StepKind::AddInput, lits.iter().copied());
    }

    /// Records a solver-derived clause (RUP/RAT obligation).
    pub fn add_derived(&mut self, lits: &[Lit]) {
        self.push(StepKind::AddDerived, lits.iter().copied());
    }

    /// Records the removal of a live clause.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.push(StepKind::Delete, lits.iter().copied());
    }

    /// [`ProofLog::delete`] straight from an iterator, so the solver
    /// can log a clause from its arena words without collecting it.
    pub(crate) fn delete_iter(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.push(StepKind::Delete, lits);
    }

    /// Number of steps recorded.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the proof is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The `i`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn step(&self, i: usize) -> (StepKind, &[Lit]) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        let hi = self.ends[i] as usize;
        (self.kinds[i], &self.lits[lo..hi])
    }

    /// Iterates over `(kind, clause)` steps in order.
    pub fn iter(&self) -> impl Iterator<Item = (StepKind, &[Lit])> + '_ {
        (0..self.len()).map(move |i| self.step(i))
    }

    /// The multiset of clauses currently live in the proof, keyed by
    /// sorted literal list, with a (possibly zero or negative, if the
    /// log is inconsistent) occurrence count. Used by the audit layer
    /// to cross-check the solver's live arena against the log.
    #[expect(clippy::disallowed_types, reason = "a cold audit helper")]
    pub fn live_multiset(&self) -> std::collections::HashMap<Vec<Lit>, i64> {
        let mut live = std::collections::HashMap::new();
        for (kind, lits) in self.iter() {
            let mut key = lits.to_vec();
            key.sort_unstable();
            let delta = match kind {
                StepKind::AddInput | StepKind::AddDerived => 1,
                StepKind::Delete => -1,
            };
            *live.entry(key).or_insert(0) += delta;
        }
        live
    }

    /// Builds a self-contained log from a CNF (the inputs) followed by
    /// a DRAT proof in text or binary format (auto-detected).
    pub fn from_cnf_and_drat(cnf: &Cnf, drat: &[u8]) -> Result<ProofLog, ParseError> {
        let mut log = ProofLog::new();
        for clause in cnf.iter() {
            log.add_input(clause);
        }
        parse_drat(drat, &mut log)?;
        Ok(log)
    }

    /// Serializes the derivation and deletion steps (inputs belong to
    /// the DIMACS file, not the proof) as DRAT, binary or text.
    pub fn write_drat<W: Write>(&self, out: &mut W, binary: bool) -> io::Result<()> {
        for (kind, lits) in self.iter() {
            match kind {
                StepKind::AddInput => continue,
                StepKind::AddDerived => {
                    if binary {
                        out.write_all(b"a")?;
                    }
                }
                StepKind::Delete => {
                    if binary {
                        out.write_all(b"d")?;
                    } else {
                        out.write_all(b"d ")?;
                    }
                }
            }
            if binary {
                for &l in lits {
                    write_vbyte(out, binary_code(l))?;
                }
                out.write_all(&[0])?;
            } else {
                let mut line = String::new();
                for &l in lits {
                    line.push_str(&l.to_dimacs().to_string());
                    line.push(' ');
                }
                line.push_str("0\n");
                out.write_all(line.as_bytes())?;
            }
        }
        Ok(())
    }
}

/// Binary-DRAT literal code: `2|l|` for positive, `2|l|+1` for
/// negative, on the DIMACS numbering.
fn binary_code(l: Lit) -> u64 {
    let d = l.to_dimacs();
    (d.unsigned_abs() << 1) | u64::from(d < 0)
}

fn write_vbyte<W: Write>(out: &mut W, mut x: u64) -> io::Result<()> {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.write_all(&[byte])?;
            return Ok(());
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// A malformed DRAT file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed DRAT proof: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses a DRAT proof (text or binary, auto-detected) into `log`.
fn parse_drat(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    // Every binary DRAT clause ends in a 0x00 byte; text DRAT (comment
    // lines included) never contains one.
    if bytes.contains(&0) {
        parse_drat_binary(bytes, log)
    } else {
        parse_drat_text(bytes, log)
    }
}

fn parse_drat_text(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError(e.to_string()))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (delete, rest) = match line.strip_prefix('d') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_whitespace() {
            let d: i64 = tok
                .parse()
                .map_err(|_| ParseError(format!("line {}: bad literal {tok:?}", lineno + 1)))?;
            if d == 0 {
                terminated = true;
                break;
            }
            lits.push(Lit::from_dimacs(d));
        }
        if !terminated {
            return Err(ParseError(format!(
                "line {}: missing 0 terminator",
                lineno + 1
            )));
        }
        if delete {
            log.delete(&lits);
        } else {
            log.add_derived(&lits);
        }
    }
    Ok(())
}

fn parse_drat_binary(bytes: &[u8], log: &mut ProofLog) -> Result<(), ParseError> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let marker = bytes[pos];
        pos += 1;
        let delete = match marker {
            b'a' => false,
            b'd' => true,
            _ => {
                return Err(ParseError(format!(
                    "byte {}: expected 'a' or 'd' marker, got 0x{marker:02x}",
                    pos - 1
                )))
            }
        };
        let mut lits = Vec::new();
        loop {
            let (code, next) = read_vbyte(bytes, pos)?;
            pos = next;
            if code == 0 {
                break;
            }
            let var = code >> 1;
            if var == 0 || var > i64::MAX as u64 {
                return Err(ParseError(format!("byte {pos}: bad literal code {code}")));
            }
            let d = if code & 1 == 1 {
                -(var as i64)
            } else {
                var as i64
            };
            lits.push(Lit::from_dimacs(d));
        }
        if delete {
            log.delete(&lits);
        } else {
            log.add_derived(&lits);
        }
    }
    Ok(())
}

fn read_vbyte(bytes: &[u8], mut pos: usize) -> Result<(u64, usize), ParseError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return Err(ParseError("truncated variable-byte literal".into()));
        };
        pos += 1;
        if shift >= 63 {
            return Err(ParseError("variable-byte literal overflows u64".into()));
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((x, pos));
        }
        shift += 7;
    }
}

/// A proof step the checker rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// Index of the offending step, when attributable to one.
    pub step: Option<usize>,
    /// Human-readable rejection reason.
    pub reason: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(i) => write!(f, "proof rejected at step {i}: {}", self.reason),
            None => write!(f, "proof rejected: {}", self.reason),
        }
    }
}

impl std::error::Error for CheckError {}

/// Summary of a successful check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Steps replayed: every step under [`check`], up to the certified
    /// target under [`certify_unsat`].
    pub steps: usize,
    /// Lemmas verified: the refutation cone under [`certify_unsat`],
    /// every lemma under [`check`].
    pub derived_checked: usize,
    /// Whether an explicit empty clause was derived.
    pub derived_empty: bool,
    /// Whether unit propagation over the live clauses refuted the
    /// formula outright (every later derivation is then vacuous).
    pub root_conflict: bool,
}

impl CheckReport {
    /// Whether the checked proof establishes unsatisfiability of the
    /// accumulated input set (no assumptions involved).
    pub fn refuted(&self) -> bool {
        self.derived_empty || self.root_conflict
    }
}

/// Checks every lemma of a self-contained proof: inputs are admitted,
/// derived clauses must pass RUP or first-literal RAT against the
/// clauses live when they were derived, deletions must name a live
/// clause. Lemmas after the first root conflict are vacuous and go
/// unchecked; deletions are validated to the end of the log.
pub fn check(log: &ProofLog) -> Result<CheckReport, CheckError> {
    let mut checker = Checker::new(log);
    let replay = checker.replay(log, true)?;
    for i in 0..replay.end {
        if log.kinds[i] == StepKind::AddDerived {
            checker.mark(checker.step_clause[i]);
        }
    }
    checker.verify(log, &replay)
}

/// Certifies one UNSAT answer, drat-trim style: checks only the
/// lemmas the refutation depends on. The target is the first root
/// conflict (the empty clause) for a root-level UNSAT
/// (`failed_assumptions` empty, though a root conflict certifies any
/// assumption set), or else a final derived clause equal to the
/// negation of the failing assumption set. The target is located and
/// matched before any RUP work; the backward walk then verifies its
/// dependency cone.
pub fn certify_unsat(
    log: &ProofLog,
    failed_assumptions: &[Lit],
) -> Result<CheckReport, CheckError> {
    if log.is_frozen() {
        return Err(CheckError {
            step: None,
            reason: "proof log was truncated mid-run (frozen); later steps are missing".into(),
        });
    }
    let mut checker = Checker::new(log);
    let replay = checker.replay(log, false)?;
    if let Some(conflict) = replay.conflict {
        let root_len = checker.trail.len();
        checker.mark_cone(Conflict::Clause(conflict), root_len);
    } else if failed_assumptions.is_empty() {
        return Err(CheckError {
            step: None,
            reason: "proof never derives the empty clause".into(),
        });
    } else {
        let Some(target) = (0..log.len())
            .rev()
            .find(|&i| log.kinds[i] == StepKind::AddDerived)
        else {
            return Err(CheckError {
                step: None,
                reason: "no derived clause to certify the assumption core".into(),
            });
        };
        let mut want: Vec<Lit> = failed_assumptions.iter().map(|&a| !a).collect();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<Lit> = log.step(target).1.to_vec();
        got.sort_unstable();
        got.dedup();
        if got != want {
            return Err(CheckError {
                step: Some(target),
                reason: format!(
                    "final derived clause {got:?} does not match the negated \
                     assumption core {want:?}"
                ),
            });
        }
        checker.mark(checker.step_clause[target]);
    }
    checker.verify(log, &replay)
}

/// No clause: the reason of a literal a RUP check assumed, or an
/// empty bucket of the deletion index.
const NONE: u32 = u32::MAX;

/// Clause flag: in the live set at the checker's current step.
const LIVE: u8 = 1;
/// Clause flag: in the dependency cone of the certified target.
const MARKED: u8 = 2;
/// Clause flag: added by an `AddDerived` step (checked once marked).
const DERIVED: u8 = 4;

/// What a RUP check or the root propagation ran into.
#[derive(Clone, Copy)]
enum Conflict {
    /// A clause with every literal false.
    Clause(u32),
    /// A lemma literal already true, so assuming it false conflicts.
    True(Lit),
}

/// Where the forward replay stopped.
struct Replay {
    /// One past the last step applied to the clause database: the
    /// first root-conflict step, or the end of the log.
    end: usize,
    /// The clause root propagation falsified, if any.
    conflict: Option<u32>,
    /// Steps read, including those only validated after the conflict.
    steps: usize,
    derived_empty: bool,
}

/// Backward, core-marking DRAT checker (Wetzler, Heule & Hunt,
/// "DRAT-trim", SAT 2014).
///
/// [`Checker::replay`] applies the log forward with no RUP work:
/// inputs and lemmas are attached to a two-watched-literal database
/// and root-propagated, deletions detach the clause they name. It
/// records each step's clause id and root-trail length, and stops at
/// the first root conflict. [`Checker::verify`] then undoes the steps
/// in reverse — detaching additions, re-attaching deletions,
/// truncating the root trail — and RUP/RAT-checks each marked lemma
/// against exactly the clauses live when it was derived. Every
/// successful check marks its antecedents: the conflict clause, the
/// reasons of the literals it rests on (root units included) and any
/// RAT candidates. The walk thus verifies the dependency cone of what
/// was marked first.
///
/// Root assignments survive the deletion of their reason clause
/// (drat-trim semantics); the cone still reaches that reason.
struct Checker {
    /// Flat literal arena: clause `c` is `lits[starts[c]..starts[c + 1]]`,
    /// its first two literals watched when it has two or more.
    lits: Vec<Lit>,
    starts: Vec<u32>,
    /// `LIVE | MARKED | DERIVED` bits per clause.
    flags: Vec<u8>,
    /// Deletion lookup; only the replay consults it.
    index: ClauseIndex,
    /// Per applied step: the clause it added or deleted.
    step_clause: Vec<u32>,
    /// Per applied step: the root-trail length before it.
    trail_before: Vec<u32>,
    /// Assignment per literal code: 1 true, -1 false, 0 unassigned.
    val: Vec<i8>,
    /// Per variable: the clause that implied it (`NONE` when a RUP
    /// check assumed it).
    reason: Vec<u32>,
    /// Per variable: its trail position while assigned.
    pos: Vec<u32>,
    /// Per root-assigned variable: its reason cone is marked already.
    justified: Vec<bool>,
    /// Per variable: reached by the current cone marking (non-root).
    seen: Vec<bool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Clause ids watching each literal code.
    watches: Vec<Vec<u32>>,
    /// Marked lemmas not yet checked; the backward walk ends at zero.
    pending: usize,
    /// Cone-marking scratch: variables whose reasons are still to be
    /// marked, and the non-root variables to un-see afterwards.
    stack: Vec<u32>,
    touched: Vec<u32>,
    /// RAT scratch.
    resolvent: Vec<Lit>,
}

impl Checker {
    fn new(log: &ProofLog) -> Checker {
        let codes = log
            .lits
            .iter()
            .map(|l| (l.code() | 1) + 1)
            .max()
            .unwrap_or(0);
        let vars = codes / 2;
        let (mut clauses, mut arena) = (0usize, 0usize);
        for (kind, lits) in log.iter() {
            if kind != StepKind::Delete {
                clauses += 1;
                arena += lits.len();
            }
        }
        let mut starts = Vec::with_capacity(clauses + 1);
        starts.push(0);
        Checker {
            lits: Vec::with_capacity(arena),
            starts,
            flags: Vec::with_capacity(clauses),
            index: ClauseIndex::with_capacity(clauses),
            step_clause: Vec::with_capacity(log.len()),
            trail_before: Vec::with_capacity(log.len()),
            val: vec![0; codes],
            reason: vec![NONE; vars],
            pos: vec![0; vars],
            justified: vec![false; vars],
            seen: vec![false; vars],
            trail: Vec::with_capacity(vars),
            qhead: 0,
            watches: vec![Vec::new(); codes],
            pending: 0,
            stack: Vec::new(),
            touched: Vec::new(),
            resolvent: Vec::new(),
        }
    }

    fn span(&self, c: u32) -> (usize, usize) {
        let c = c as usize;
        (self.starts[c] as usize, self.starts[c + 1] as usize)
    }

    fn value(&self, l: Lit) -> i8 {
        self.val[l.code()]
    }

    fn assign(&mut self, l: Lit, reason: u32) {
        self.val[l.code()] = 1;
        self.val[(!l).code()] = -1;
        let v = l.var().index();
        self.reason[v] = reason;
        self.pos[v] = self.trail.len() as u32;
        self.trail.push(l);
    }

    /// Forward pass: applies every step up to the first root conflict
    /// without RUP work. With `validate_rest`, the steps after the
    /// conflict still have their deletions matched against the index.
    fn replay(&mut self, log: &ProofLog, validate_rest: bool) -> Result<Replay, CheckError> {
        let mut replay = Replay {
            end: log.len(),
            conflict: None,
            steps: 0,
            derived_empty: false,
        };
        for (i, (kind, lits)) in log.iter().enumerate() {
            let applied = replay.conflict.is_none();
            if !applied && !validate_rest {
                break;
            }
            replay.steps += 1;
            if applied {
                self.trail_before.push(self.trail.len() as u32);
            }
            let c = if kind == StepKind::Delete {
                let Some(c) = self.index.remove(&self.lits, &self.starts, lits) else {
                    return Err(CheckError {
                        step: Some(i),
                        reason: format!(
                            "deletion of clause {:?} not in the live set",
                            lits.iter().map(|l| l.to_dimacs()).collect::<Vec<_>>()
                        ),
                    });
                };
                if applied {
                    self.detach(c);
                }
                c
            } else {
                let derived = kind == StepKind::AddDerived;
                replay.derived_empty |= derived && lits.is_empty();
                let c = self.push_clause(lits, derived);
                if applied {
                    if let Some(conflict) = self.attach(c) {
                        replay.conflict = Some(conflict);
                        replay.end = i + 1;
                    }
                }
                c
            };
            if applied {
                self.step_clause.push(c);
            }
        }
        Ok(replay)
    }

    /// Backward pass: undoes the applied steps in reverse and checks
    /// each marked lemma, until no marked lemma is left unchecked.
    fn verify(&mut self, log: &ProofLog, replay: &Replay) -> Result<CheckReport, CheckError> {
        let mut report = CheckReport {
            steps: replay.steps,
            derived_checked: 0,
            derived_empty: replay.derived_empty,
            root_conflict: replay.conflict.is_some(),
        };
        for i in (0..replay.end).rev() {
            if self.pending == 0 {
                break;
            }
            let c = self.step_clause[i];
            let (kind, lits) = log.step(i);
            if kind == StepKind::Delete {
                // Live and not unit at that step: no propagation needed.
                self.link(c);
                continue;
            }
            self.detach(c);
            self.backtrack(self.trail_before[i] as usize);
            if self.flags[c as usize] & (MARKED | DERIVED) != MARKED | DERIVED {
                continue;
            }
            self.pending -= 1;
            report.derived_checked += 1;
            if !self.rup(lits) && !self.rat(lits) {
                return Err(CheckError {
                    step: Some(i),
                    reason: format!(
                        "derived clause {:?} is neither RUP nor RAT",
                        lits.iter().map(|l| l.to_dimacs()).collect::<Vec<_>>()
                    ),
                });
            }
        }
        Ok(report)
    }

    fn push_clause(&mut self, lits: &[Lit], derived: bool) -> u32 {
        let c = self.flags.len() as u32;
        self.lits.extend_from_slice(lits);
        self.starts.push(self.lits.len() as u32);
        self.flags.push(if derived { DERIVED } else { 0 });
        self.index.insert(c, lits);
        c
    }

    /// Makes `c` live: moves up to two non-false literals into the
    /// watched slots and watches them. Returns how many it found.
    ///
    /// With only one, the other watch is the false literal assigned
    /// last, so a truncation of the root trail that unassigns the first
    /// watch but not the second cannot happen while `c` is live: that
    /// would leave `c` unit at a step boundary, where the trail is a
    /// propagation fixpoint. A false watch thus always has a true
    /// partner, and [`Checker::backtrack`] never re-watches.
    fn link(&mut self, c: u32) -> usize {
        self.flags[c as usize] |= LIVE;
        let (lo, hi) = self.span(c);
        let mut found = 0usize;
        for i in lo..hi {
            if found == 2 {
                break;
            }
            if self.value(self.lits[i]) != -1 {
                self.lits.swap(lo + found, i);
                found += 1;
            }
        }
        if found == 1 && hi - lo >= 2 {
            let last = (lo + 1..hi)
                .max_by_key(|&k| self.pos[self.lits[k].var().index()])
                .unwrap_or(lo + 1);
            self.lits.swap(lo + 1, last);
        }
        if hi - lo >= 2 {
            self.watches[self.lits[lo].code()].push(c);
            self.watches[self.lits[lo + 1].code()].push(c);
        }
        found
    }

    /// Links a newly added clause and root-propagates the unit it may
    /// imply. Returns the falsified clause on a root conflict.
    fn attach(&mut self, c: u32) -> Option<u32> {
        match self.link(c) {
            0 => Some(c),
            1 => {
                let (lo, _) = self.span(c);
                let unit = self.lits[lo];
                if self.value(unit) == 1 {
                    return None;
                }
                self.assign(unit, c);
                self.propagate()
            }
            _ => None,
        }
    }

    fn detach(&mut self, c: u32) {
        self.flags[c as usize] &= !LIVE;
        let (lo, hi) = self.span(c);
        if hi - lo >= 2 {
            self.unwatch(self.lits[lo], c);
            self.unwatch(self.lits[lo + 1], c);
        }
    }

    fn unwatch(&mut self, l: Lit, c: u32) {
        let ws = &mut self.watches[l.code()];
        if let Some(p) = ws.iter().position(|&w| w == c) {
            ws.swap_remove(p);
        }
    }

    /// Truncates the root trail to `len`.
    fn backtrack(&mut self, len: usize) {
        for &l in &self.trail[len..] {
            self.val[l.code()] = 0;
            self.val[(!l).code()] = 0;
            self.justified[l.var().index()] = false;
        }
        self.trail.truncate(len);
        self.qhead = len;
    }

    /// Unit-propagates from `qhead`. Returns the falsified clause on a
    /// conflict.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let falsified = !self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[falsified.code()]);
            let mut keep = 0usize;
            let mut conflict = None;
            let mut i = 0usize;
            while i < ws.len() {
                let c = ws[i];
                i += 1;
                let (lo, hi) = self.span(c);
                // Normalize: watched slot 1 is the falsified literal.
                if self.lits[lo] == falsified {
                    self.lits.swap(lo, lo + 1);
                }
                let first = self.lits[lo];
                if self.value(first) == 1 {
                    ws[keep] = c;
                    keep += 1;
                    continue;
                }
                if let Some(k) = (lo + 2..hi).find(|&k| self.value(self.lits[k]) != -1) {
                    self.lits.swap(lo + 1, k);
                    self.watches[self.lits[lo + 1].code()].push(c);
                    continue;
                }
                ws[keep] = c;
                keep += 1;
                if self.value(first) == -1 {
                    conflict = Some(c);
                    break;
                }
                self.assign(first, c);
            }
            // Keep the watchers a conflict left unscanned.
            ws.copy_within(i.., keep);
            ws.truncate(keep + ws.len() - i);
            // Replacement watches never target the falsified literal,
            // so whatever landed here meanwhile is just appended.
            let added = std::mem::replace(&mut self.watches[falsified.code()], ws);
            self.watches[falsified.code()].extend(added);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Puts `c` in the cone; a derived clause becomes a pending check.
    fn mark(&mut self, c: u32) {
        let flags = &mut self.flags[c as usize];
        if *flags & MARKED == 0 {
            *flags |= MARKED;
            if *flags & DERIVED != 0 {
                self.pending += 1;
            }
        }
    }

    /// Queues variable `v` for cone marking unless already reached:
    /// per check for variables above the root trail (the first
    /// `root_len` literals), once per assignment for root ones.
    fn reach(&mut self, v: usize, root_len: usize) {
        if (self.pos[v] as usize) < root_len {
            if self.justified[v] {
                return;
            }
            self.justified[v] = true;
        } else {
            if self.seen[v] {
                return;
            }
            self.seen[v] = true;
            self.touched.push(v as u32);
        }
        self.stack.push(v as u32);
    }

    /// Marks the antecedents of `conflict`: the falsified clause and,
    /// transitively, the reason of every literal the conflict rests on,
    /// down to the reasons of root units. The first `root_len` trail
    /// literals are root assignments.
    fn mark_cone(&mut self, conflict: Conflict, root_len: usize) {
        match conflict {
            Conflict::Clause(c) => {
                self.mark(c);
                let (lo, hi) = self.span(c);
                for k in lo..hi {
                    self.reach(self.lits[k].var().index(), root_len);
                }
            }
            Conflict::True(l) => self.reach(l.var().index(), root_len),
        }
        #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
        while let Some(v) = self.stack.pop() {
            let r = self.reason[v as usize];
            if r == NONE {
                continue;
            }
            self.mark(r);
            let (lo, hi) = self.span(r);
            for k in lo..hi {
                self.reach(self.lits[k].var().index(), root_len);
            }
        }
        for &v in &self.touched {
            self.seen[v as usize] = false;
        }
        self.touched.clear();
    }

    /// Whether `clause` is RUP: assume every literal false, propagate,
    /// demand a conflict, whose cone is then marked. Leaves the root
    /// trail as it found it.
    fn rup(&mut self, clause: &[Lit]) -> bool {
        let root_len = self.trail.len();
        let mut conflict = None;
        for &l in clause {
            match self.value(l) {
                1 => {
                    conflict = Some(Conflict::True(l));
                    break;
                }
                -1 => {}
                _ => self.assign(!l, NONE),
            }
        }
        if conflict.is_none() {
            conflict = self.propagate().map(Conflict::Clause);
        }
        if let Some(conflict) = conflict {
            self.mark_cone(conflict, root_len);
        }
        for k in root_len..self.trail.len() {
            let l = self.trail[k];
            self.val[l.code()] = 0;
            self.val[(!l).code()] = 0;
        }
        self.trail.truncate(root_len);
        self.qhead = root_len;
        conflict.is_some()
    }

    /// Whether `clause` is RAT on its first literal: every resolvent
    /// with a live clause containing the negated pivot is RUP. Partners
    /// that also contain the pivot are skipped: flipping the pivot true
    /// keeps them satisfied, so they never constrain the step. The
    /// partners join the cone. Occurrences are found by scan: RAT steps
    /// are rare (only BVE restorations in solver-emitted proofs).
    fn rat(&mut self, clause: &[Lit]) -> bool {
        let Some(&pivot) = clause.first() else {
            return false;
        };
        let mut resolvent = std::mem::take(&mut self.resolvent);
        let mut ok = true;
        for c in 0..self.flags.len() as u32 {
            if self.flags[c as usize] & LIVE == 0 {
                continue;
            }
            let (lo, hi) = self.span(c);
            let partner = &self.lits[lo..hi];
            if !partner.contains(&!pivot) || partner.contains(&pivot) {
                continue;
            }
            resolvent.clear();
            resolvent.extend_from_slice(clause);
            resolvent.extend(partner.iter().copied().filter(|&l| l != !pivot));
            if !self.rup(&resolvent) {
                ok = false;
                break;
            }
            self.mark(c);
        }
        self.resolvent = resolvent;
        ok
    }
}

/// The deletion index: a chained hash table from an order-insensitive
/// hash of a clause's literals to clause ids, newest first. It holds
/// ids only; the literals stay in the checker's arena. The hash is
/// seeded per checker, so a crafted proof file cannot force collisions.
struct ClauseIndex {
    seed: u64,
    /// Bucket → newest clause id in it (`NONE` when empty).
    heads: Vec<u32>,
    /// Clause id → the next older clause id in its bucket.
    next: Vec<u32>,
    /// Clause id → its hash.
    hashes: Vec<u64>,
    /// Sorted-literal scratch for multiset comparison.
    want: Vec<Lit>,
    have: Vec<Lit>,
}

/// The splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ClauseIndex {
    fn with_capacity(clauses: usize) -> ClauseIndex {
        ClauseIndex {
            seed: RandomState::new().hash_one(0u64),
            heads: vec![NONE; clauses.next_power_of_two()],
            next: Vec::with_capacity(clauses),
            hashes: Vec::with_capacity(clauses),
            want: Vec::new(),
            have: Vec::new(),
        }
    }

    /// A multiset hash: the wrapping sum of per-literal mixes.
    fn hash(&self, lits: &[Lit]) -> u64 {
        let sum = lits.iter().fold(0u64, |h, l| {
            h.wrapping_add(mix(self.seed ^ l.code() as u64))
        });
        mix(sum ^ lits.len() as u64)
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Indexes clause `c`, which must be the next id.
    fn insert(&mut self, c: u32, lits: &[Lit]) {
        let hash = self.hash(lits);
        let b = self.bucket(hash);
        self.hashes.push(hash);
        self.next.push(self.heads[b]);
        self.heads[b] = c;
    }

    /// Unlinks and returns the newest indexed clause equal to `lits` as
    /// a multiset.
    fn remove(&mut self, arena: &[Lit], starts: &[u32], lits: &[Lit]) -> Option<u32> {
        let hash = self.hash(lits);
        let b = self.bucket(hash);
        self.want.clear();
        self.want.extend_from_slice(lits);
        self.want.sort_unstable();
        let (mut prev, mut c) = (NONE, self.heads[b]);
        while c != NONE {
            let (lo, hi) = (starts[c as usize] as usize, starts[c as usize + 1] as usize);
            if self.hashes[c as usize] == hash && hi - lo == lits.len() {
                self.have.clear();
                self.have.extend_from_slice(&arena[lo..hi]);
                self.have.sort_unstable();
                if self.have == self.want {
                    let after = self.next[c as usize];
                    if prev == NONE {
                        self.heads[b] = after;
                    } else {
                        self.next[prev as usize] = after;
                    }
                    return Some(c);
                }
            }
            prev = c;
            c = self.next[c as usize];
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn clause(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| lit(d)).collect()
    }

    /// The smallest UNSAT core: (a)(¬a) with an explicit refutation.
    #[test]
    fn accepts_trivial_refutation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1]));
        log.add_input(&clause(&[-1]));
        log.add_derived(&[]);
        let report = check(&log).expect("valid proof");
        assert!(report.derived_empty);
        assert!(report.root_conflict);
        assert!(report.refuted());
    }

    /// (a∨b)(a∨¬b)(¬a∨b)(¬a∨¬b): classic 2-variable refutation via
    /// the resolvents (a) and the empty clause.
    #[test]
    fn accepts_resolution_refutation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[1, -2]));
        log.add_input(&clause(&[-1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1]));
        log.add_derived(&[]);
        assert!(check(&log).expect("valid proof").refuted());
    }

    /// With (1 2) alone, (1) would be a *blocked* clause (no resolution
    /// partner on the pivot) and DRAT accepts it; (¬1 ¬2) provides the
    /// partner whose resolvent (1 ¬2) is not RUP, so both the RUP and
    /// the RAT check must fail.
    #[test]
    fn rejects_non_rup_derivation() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1])); // neither RUP nor RAT
        let err = check(&log).expect_err("must reject");
        assert_eq!(err.step, Some(2));
    }

    #[test]
    fn rejects_deleting_absent_clause() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.delete(&clause(&[1, 3]));
        let err = check(&log).expect_err("must reject");
        assert_eq!(err.step, Some(1));
    }

    /// Deletion is multiset-keyed, so literal order does not matter.
    #[test]
    fn deletion_is_order_insensitive() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2, -3]));
        log.delete(&clause(&[-3, 1, 2]));
        assert!(check(&log).is_ok());
    }

    /// RAT on the first literal: after deleting every clause that
    /// mentions x, re-adding (x∨a) is vacuously RAT on x even though
    /// it is not RUP — the BVE-restoration shape.
    #[test]
    fn accepts_vacuous_rat_readdition() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, 3]));
        log.add_input(&clause(&[2, 3, 4]));
        // BVE on x1: resolvent (2∨3) is RUP, then both occurrences go.
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        log.delete(&clause(&[-1, 3]));
        // Restore (1∨2): RAT on literal 1 with no ¬1 partner left.
        log.add_derived(&clause(&[1, 2]));
        assert!(check(&log).is_ok());
        // The same clause with the pivot second is not RAT (pivot 2
        // resolves against (2∨3∨4)... which still yields RUP checks
        // that pass here, so use a genuinely non-RAT pivot: ¬3).
        let mut bad = ProofLog::new();
        bad.add_input(&clause(&[1, 2]));
        bad.add_input(&clause(&[-1, 3]));
        bad.add_derived(&clause(&[-3, -1]));
        assert!(check(&bad).is_err());
    }

    #[test]
    fn certify_requires_matching_core() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[-1, -2]));
        // Probe assumptions a1, a2 fail; core clause is (¬1 ∨ ¬2).
        log.add_derived(&clause(&[-1, -2]));
        let failed = [Lit::pos(Var(0)), Lit::pos(Var(1))];
        assert!(certify_unsat(&log, &failed).is_ok());
        let wrong = [Lit::pos(Var(0))];
        assert!(certify_unsat(&log, &wrong).is_err());
        // Root-level certification needs the empty clause.
        assert!(certify_unsat(&log, &[]).is_err());
    }

    #[test]
    fn drat_text_round_trip() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(clause(&[1, 2]));
        cnf.add_clause(clause(&[-1, 3]));
        let mut log = ProofLog::from_cnf_and_drat(&cnf, b"").expect("inputs only");
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        let mut out = Vec::new();
        log.write_drat(&mut out, false).expect("write");
        assert_eq!(
            std::str::from_utf8(&out).expect("ascii"),
            "2 3 0\nd 1 2 0\n"
        );
        let back = ProofLog::from_cnf_and_drat(&cnf, &out).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn drat_binary_round_trip() {
        let mut cnf = Cnf::new(200);
        cnf.add_clause(clause(&[1, -200]));
        let mut log = ProofLog::from_cnf_and_drat(&cnf, b"").expect("inputs only");
        log.add_derived(&clause(&[63, -64, 129]));
        log.delete(&clause(&[1, -200]));
        log.add_derived(&[]);
        let mut out = Vec::new();
        log.write_drat(&mut out, true).expect("write");
        // Binary marker of the first step is 'a' followed by vbyte
        // literals; 63 → 126, -64 → 129 (two bytes).
        assert_eq!(out[0], b'a');
        let back = ProofLog::from_cnf_and_drat(&cnf, &out).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn live_multiset_tracks_deletions() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[2, 1]));
        log.add_input(&clause(&[1, 2]));
        log.delete(&clause(&[1, 2]));
        let live = log.live_multiset();
        assert_eq!(live.get(&clause(&[1, 2])).copied(), Some(1));
    }

    /// Text DRAT may carry comment lines; only a NUL byte marks binary.
    #[test]
    fn commented_text_drat_parses_as_text() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(clause(&[1]));
        cnf.add_clause(clause(&[-1]));
        let log = ProofLog::from_cnf_and_drat(&cnf, b"c produced by hand\n0\n")
            .expect("text DRAT with a comment line");
        assert_eq!(log.len(), 3);
        assert_eq!(log.step(2), (StepKind::AddDerived, &[][..]));
        assert!(check(&log).expect("valid proof").refuted());
    }

    /// Every live clause of length ≥ 2 is watched once per watched slot,
    /// nothing else is watched, and — away from a root conflict — a
    /// false watch has a true partner.
    fn audit_watches(ch: &Checker, conflict: bool) {
        let mut watched = 0;
        for (code, ws) in ch.watches.iter().enumerate() {
            for &c in ws {
                let (lo, hi) = ch.span(c);
                assert!(ch.flags[c as usize] & LIVE != 0, "dead clause {c} watched");
                assert!(hi - lo >= 2);
                assert!(ch.lits[lo].code() == code || ch.lits[lo + 1].code() == code);
                watched += 1;
            }
        }
        let mut live = 0;
        for c in 0..ch.flags.len() as u32 {
            let (lo, hi) = ch.span(c);
            if ch.flags[c as usize] & LIVE == 0 || hi - lo < 2 {
                continue;
            }
            live += 1;
            let (w0, w1) = (ch.lits[lo], ch.lits[lo + 1]);
            for w in [w0, w1] {
                let want = if w0 == w1 { 2 } else { 1 };
                let got = ch.watches[w.code()].iter().filter(|&&x| x == c).count();
                assert_eq!(got, want, "clause {c} watched {got} times by {w:?}");
            }
            for (a, b) in [(w0, w1), (w1, w0)] {
                let ok = conflict || ch.value(a) != -1 || ch.value(b) == 1;
                assert!(ok, "clause {c}: false watch");
            }
        }
        assert_eq!(watched, 2 * live);
    }

    /// A clause deleted and re-added with the same literals, several
    /// times and with a live duplicate, keeps exactly one watcher per
    /// watched slot through the replay and the backward walk.
    #[test]
    fn readded_clause_keeps_its_watchers() {
        let mut log = ProofLog::new();
        for c in [[1, 2], [-1, 2], [1, -2], [-1, -2]] {
            log.add_input(&clause(&c));
        }
        for _ in 0..3 {
            log.add_derived(&clause(&[2, 3]));
            log.delete(&clause(&[3, 2]));
        }
        log.add_derived(&clause(&[2, 3]));
        log.add_derived(&clause(&[3, 2]));
        log.delete(&clause(&[2, 3]));
        log.add_derived(&clause(&[2]));
        log.add_derived(&[]);

        let mut ch = Checker::new(&log);
        let replay = ch.replay(&log, true).expect("replays");
        audit_watches(&ch, true);
        assert_eq!(replay.end, log.len() - 1, "(2) refutes at the root");
        for i in 0..replay.end {
            if log.kinds[i] == StepKind::AddDerived {
                ch.mark(ch.step_clause[i]);
            }
        }
        let report = ch.verify(&log, &replay).expect("valid proof");
        audit_watches(&ch, false);
        assert_eq!(report.derived_checked, 6);
        assert_eq!(certify_unsat(&log, &[]).expect("valid").derived_checked, 1);
    }

    /// Root unit 1 is implied by lemma (1 2) under input (¬2); the lemma
    /// is then deleted but 1 stays on the root trail, and the core
    /// lemma (1 4) is RUP only through it. The deleted reason must
    /// enter the cone: unsupported, it is rejected.
    #[test]
    fn deleted_reason_of_a_root_unit_joins_the_cone() {
        let build = |support: &[[i64; 2]]| {
            let mut log = ProofLog::new();
            for c in support {
                log.add_input(&clause(c));
            }
            log.add_input(&clause(&[-2]));
            log.add_derived(&clause(&[1, 2]));
            log.delete(&clause(&[1, 2]));
            log.add_derived(&clause(&[1, 4]));
            log
        };
        let failed = [lit(-1), lit(-4)];
        let supported = build(&[[1, 3], [1, -3]]);
        let report = certify_unsat(&supported, &failed).expect("valid proof");
        assert_eq!(report.derived_checked, 2);
        // With only (¬1 5) beside it, (1 2) is neither RUP nor RAT.
        let unsupported = build(&[[-1, 5]]);
        let err = certify_unsat(&unsupported, &failed).expect_err("must reject");
        assert_eq!(err.step, Some(2));
    }

    /// Two probes of one session: the certified target is the final
    /// negated core, whose cone leaves the first probe's core out.
    #[test]
    fn assumption_core_target_in_a_multi_probe_log() {
        let build = |first_core: [i64; 2]| {
            let mut log = ProofLog::new();
            // Probe 1 assumes 1 and 2.
            log.add_input(&clause(&[-1, 3]));
            log.add_input(&clause(&[-3, -2]));
            log.add_derived(&clause(&first_core));
            // Probe 2 adds clauses and assumes 4 and 6.
            log.add_input(&clause(&[-4, 5]));
            log.add_input(&clause(&[-5, -6]));
            log.add_derived(&clause(&[-4, -6]));
            log
        };
        let log = build([-1, -2]);
        let report = certify_unsat(&log, &[lit(4), lit(6)]).expect("probe 2 core");
        assert_eq!(report.derived_checked, 1);
        assert_eq!(check(&log).expect("valid proof").derived_checked, 2);
        assert!(
            certify_unsat(&log, &[lit(1), lit(2)]).is_err(),
            "only the final core is certifiable"
        );
        // An unjustified first core lies outside probe 2's cone.
        let bogus = build([3, -2]);
        assert!(certify_unsat(&bogus, &[lit(4), lit(6)]).is_ok());
        assert_eq!(check(&bogus).expect_err("must reject").step, Some(2));
    }

    /// BVE on variable 1 replaces (1 2)(¬1 3) by the resolvent (2 3);
    /// restoring them, (¬1 3) is vacuously RAT and (1 2) is RAT with
    /// the restored (¬1 3) as its only candidate. The core lemma
    /// (1 2 7) conflicts on (1 2), so the cone holds the core, the
    /// restorations and the resolvent, but not the unrelated (6 2 9).
    #[test]
    fn rat_candidates_join_the_cone() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, 3]));
        log.add_input(&clause(&[2, 6]));
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        log.delete(&clause(&[-1, 3]));
        log.add_derived(&clause(&[-1, 3]));
        log.add_derived(&clause(&[1, 2]));
        log.add_derived(&clause(&[6, 2, 9]));
        log.add_derived(&clause(&[1, 2, 7]));
        let failed = [lit(-1), lit(-2), lit(-7)];
        let report = certify_unsat(&log, &failed).expect("valid proof");
        assert_eq!(report.derived_checked, 4);
        assert_eq!(check(&log).expect("valid proof").derived_checked, 5);

        // The candidate restored instead is the unjustified (¬1 8): with
        // (1 5) live its resolvent (¬1 8 5) is not RUP. Nothing but the
        // RAT check of (1 2) reaches it.
        let mut log = ProofLog::new();
        for c in [[1, 2], [-1, 3], [2, 6], [1, 5], [2, 8]] {
            log.add_input(&clause(&c));
        }
        log.add_derived(&clause(&[2, 3]));
        log.delete(&clause(&[1, 2]));
        log.delete(&clause(&[-1, 3]));
        log.add_derived(&clause(&[-1, 8]));
        log.add_derived(&clause(&[1, 2]));
        log.add_derived(&clause(&[1, 2, 7]));
        let err = certify_unsat(&log, &failed).expect_err("must reject");
        assert_eq!(err.step, Some(8));
    }

    /// A final clause that is not the negated core is rejected before
    /// any RUP work: the unjustified lemma before it is never reached.
    #[test]
    fn mismatched_core_is_rejected_before_checking() {
        let mut log = ProofLog::new();
        log.add_input(&clause(&[1, 2]));
        log.add_input(&clause(&[-1, -2]));
        log.add_derived(&clause(&[1])); // neither RUP nor RAT
        log.add_derived(&clause(&[-3, -4]));
        let err = certify_unsat(&log, &[lit(5)]).expect_err("must reject");
        assert_eq!(err.step, Some(3));
        assert!(err.reason.contains("does not match"), "{err}");
        assert_eq!(check(&log).expect_err("must reject").step, Some(2));
    }
}
