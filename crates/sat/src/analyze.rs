//! CNF structural analyzer — the encoder lint.
//!
//! The encoder (`synth::encode`) emits through a simplifying builder,
//! which makes a whole class of bugs *silent*: a variable whose every
//! clause simplified away solves as unconstrained garbage, a
//! contradictory pair of root units turns the instance trivially UNSAT
//! with no hint of why, and an activation literal that gates nothing
//! makes a depth probe equisatisfiable with the wrong depth. This
//! module flags those shapes statically, before any solving, as named
//! lints with counts — cheap (one pass over the formula plus a
//! union-find) and solver-independent.
//!
//! Driven by `lassynth lint-cnf`; `Encoding::lint` /
//! `LayeredEncoding::lint` in `synth::encode` are the library entry
//! points.

use crate::{Cnf, Lit, Var};
use std::collections::HashMap;
use std::fmt;

/// A variable that occurs in no clause: the solver may assign it
/// anything, which is almost always an encoder simplification bug.
pub const LINT_UNCONSTRAINED_VAR: &str = "unconstrained-var";
/// Two clauses with identical literal sets (after sorting).
pub const LINT_DUPLICATE_CLAUSE: &str = "duplicate-clause";
/// A clause containing a literal and its negation — always true,
/// pure encoder noise.
pub const LINT_TAUTOLOGICAL_CLAUSE: &str = "tautological-clause";
/// Unit clauses `(l)` and `(¬l)` both present — the instance is
/// trivially UNSAT before any search.
pub const LINT_CONTRADICTORY_UNITS: &str = "contradictory-root-units";
/// A clause with no literals — trivially UNSAT.
pub const LINT_EMPTY_CLAUSE: &str = "empty-clause";
/// An activation literal of a layered encoding that gates no payload
/// clause: assuming it can never change the instance.
pub const LINT_UNGATED_ACTIVATION: &str = "ungated-activation";

/// How many offending examples each lint records.
const MAX_EXAMPLES: usize = 4;

/// One named lint with its hit count and a few rendered examples.
#[derive(Clone, Debug)]
pub struct CnfLint {
    /// The lint's stable name (one of the `LINT_*` constants).
    pub rule: &'static str,
    /// Number of offending sites.
    pub count: usize,
    /// Up to [`MAX_EXAMPLES`] rendered offenders (variables, clause
    /// indices, …).
    pub examples: Vec<String>,
}

impl fmt::Display for CnfLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint {}: {}", self.rule, self.count)?;
        if !self.examples.is_empty() {
            let more = if self.count > self.examples.len() {
                ", …"
            } else {
                ""
            };
            write!(f, " ({}{})", self.examples.join(", "), more)?;
        }
        Ok(())
    }
}

/// The analyzer's verdict: size, connectivity, and the lints that fired.
#[derive(Clone, Debug)]
pub struct CnfReport {
    /// Variables in the formula.
    pub num_vars: usize,
    /// Clauses in the formula.
    pub num_clauses: usize,
    /// Variable-dependency connected components (variables co-occurring
    /// in a clause are connected; unconstrained variables are not
    /// counted). A synthesis instance should be dominated by one
    /// component — many small islands usually mean the functionality
    /// constraints never linked up with the structural ones.
    pub components: usize,
    /// Size (in variables) of the largest component.
    pub largest_component: usize,
    /// The lints that fired, in declaration order.
    pub lints: Vec<CnfLint>,
}

impl CnfReport {
    /// Whether no lint fired.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// The hit count of `rule` (0 when it did not fire).
    pub fn count(&self, rule: &str) -> usize {
        self.lints
            .iter()
            .find(|l| l.rule == rule)
            .map_or(0, |l| l.count)
    }

    /// Appends a lint if it has any hits (keeps reports example-bounded
    /// and free of zero-count noise).
    pub fn push(&mut self, lint: CnfLint) {
        if lint.count > 0 {
            self.lints.push(lint);
        }
    }
}

impl fmt::Display for CnfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cnf: {} vars, {} clauses, {} component{} (largest {})",
            self.num_vars,
            self.num_clauses,
            self.components,
            if self.components == 1 { "" } else { "s" },
            self.largest_component
        )?;
        if self.is_clean() {
            write!(f, "clean: no encoder lints fired")
        } else {
            let mut first = true;
            for l in &self.lints {
                if !first {
                    writeln!(f)?;
                }
                write!(f, "{l}")?;
                first = false;
            }
            Ok(())
        }
    }
}

/// Union-find over variable indices (path halving + union by size).
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            self.parent[v as usize] = self.parent[self.parent[v as usize] as usize];
            v = self.parent[v as usize];
        }
        v
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Analyzes a formula, returning every structural lint that fires.
pub fn analyze(cnf: &Cnf) -> CnfReport {
    let n = cnf.num_vars();
    let mut occurs = vec![false; n];
    let mut dsu = Dsu::new(n);
    let mut units: HashMap<usize, bool> = HashMap::new(); // var -> polarity seen
    let mut contradictory: Vec<String> = Vec::new();
    let mut contradictory_count = 0usize;
    let mut seen_clauses: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut dups = CnfLint {
        rule: LINT_DUPLICATE_CLAUSE,
        count: 0,
        examples: Vec::new(),
    };
    let mut tauts = CnfLint {
        rule: LINT_TAUTOLOGICAL_CLAUSE,
        count: 0,
        examples: Vec::new(),
    };
    let mut empties = CnfLint {
        rule: LINT_EMPTY_CLAUSE,
        count: 0,
        examples: Vec::new(),
    };
    for (idx, clause) in cnf.iter().enumerate() {
        if clause.is_empty() {
            empties.count += 1;
            if empties.examples.len() < MAX_EXAMPLES {
                empties.examples.push(format!("clause #{idx}"));
            }
            continue;
        }
        let first = clause[0].var();
        for &l in clause {
            occurs[l.var().index()] = true;
            dsu.union(first.0, l.var().0);
        }
        let mut key: Vec<usize> = clause.iter().map(|l| l.code()).collect();
        key.sort_unstable();
        key.dedup();
        if key.windows(2).any(|w| w[1] == w[0] | 1 && w[0] & 1 == 0) {
            tauts.count += 1;
            if tauts.examples.len() < MAX_EXAMPLES {
                tauts.examples.push(format!("clause #{idx}"));
            }
            // A tautology carries no constraint; keep it out of the
            // duplicate and unit bookkeeping.
            continue;
        }
        if let [code] = key[..] {
            let l = Lit::from_code(code);
            let v = l.var().index();
            match units.insert(v, l.is_neg()) {
                Some(prev) if prev != l.is_neg() => {
                    contradictory_count += 1;
                    if contradictory.len() < MAX_EXAMPLES {
                        contradictory.push(format!("{}", l.var()));
                    }
                }
                _ => {}
            }
        }
        if let Some(&prev) = seen_clauses.get(&key) {
            dups.count += 1;
            if dups.examples.len() < MAX_EXAMPLES {
                dups.examples.push(format!("clause #{idx} = #{prev}"));
            }
        } else {
            seen_clauses.insert(key, idx);
        }
    }
    let mut unconstrained = CnfLint {
        rule: LINT_UNCONSTRAINED_VAR,
        count: 0,
        examples: Vec::new(),
    };
    for (v, &occ) in occurs.iter().enumerate() {
        if !occ {
            unconstrained.count += 1;
            if unconstrained.examples.len() < MAX_EXAMPLES {
                unconstrained.examples.push(format!("{}", Var(v as u32)));
            }
        }
    }
    let mut component_size: HashMap<u32, usize> = HashMap::new();
    for v in 0..n as u32 {
        if occurs[v as usize] {
            *component_size.entry(dsu.find(v)).or_insert(0) += 1;
        }
    }
    let mut report = CnfReport {
        num_vars: n,
        num_clauses: cnf.num_clauses(),
        components: component_size.len(),
        largest_component: component_size.values().copied().max().unwrap_or(0),
        lints: Vec::new(),
    };
    report.push(unconstrained);
    report.push(dups);
    report.push(tauts);
    report.push(CnfLint {
        rule: LINT_CONTRADICTORY_UNITS,
        count: contradictory_count,
        examples: contradictory,
    });
    report.push(empties);
    report
}

/// The layered-encoding check: an activation literal must gate at least
/// one *payload* clause — one mentioning a non-activation variable.
/// Clauses built purely from activation literals (the upward-closed
/// deactivation chain `(act[m] ∨ ¬act[m+1])`) only order the layers;
/// an activation variable appearing in nothing else can be assumed
/// either way without changing the instance, so the depth it is
/// supposed to select collapses onto its neighbour. Returns the
/// (possibly zero-count) lint for [`CnfReport::push`].
pub fn ungated_activation(cnf: &Cnf, activation: &[Lit]) -> CnfLint {
    let n = cnf.num_vars();
    let mut is_activation = vec![false; n];
    for a in activation {
        is_activation[a.var().index()] = true;
    }
    let mut gates = vec![false; n];
    for clause in cnf.iter() {
        if clause.iter().all(|l| is_activation[l.var().index()]) {
            continue; // pure chain clause: orders layers, gates nothing
        }
        for &l in clause {
            gates[l.var().index()] = true;
        }
    }
    let mut lint = CnfLint {
        rule: LINT_UNGATED_ACTIVATION,
        count: 0,
        examples: Vec::new(),
    };
    for (i, a) in activation.iter().enumerate() {
        if !gates[a.var().index()] {
            lint.count += 1;
            if lint.examples.len() < MAX_EXAMPLES {
                lint.examples.push(format!("layer {i} ({})", a.var()));
            }
        }
    }
    lint
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut c = Cnf::new(0);
        for cl in clauses {
            c.add_clause(cl.iter().map(|&d| lit(d)));
        }
        c
    }

    #[test]
    fn clean_formula_reports_clean() {
        let r = analyze(&cnf(&[&[1, 2], &[-1, 3], &[-2, -3]]));
        assert!(r.is_clean(), "unexpected lints: {r}");
        assert_eq!(r.components, 1);
        assert_eq!(r.largest_component, 3);
    }

    #[test]
    fn unconstrained_variable_fires() {
        let mut c = cnf(&[&[1, 2]]);
        c.ensure_vars(5); // vars 2..=4 never occur
        let r = analyze(&c);
        assert_eq!(r.count(LINT_UNCONSTRAINED_VAR), 3);
    }

    #[test]
    fn duplicate_and_tautology_fire() {
        let r = analyze(&cnf(&[&[1, 2], &[2, 1], &[1, -1, 3]]));
        assert_eq!(r.count(LINT_DUPLICATE_CLAUSE), 1);
        assert_eq!(r.count(LINT_TAUTOLOGICAL_CLAUSE), 1);
    }

    #[test]
    fn contradictory_units_fire() {
        let r = analyze(&cnf(&[&[4], &[-4], &[1, 2]]));
        assert_eq!(r.count(LINT_CONTRADICTORY_UNITS), 1);
    }

    #[test]
    fn empty_clause_fires() {
        let mut c = cnf(&[&[1, 2]]);
        c.add_clause([]);
        assert_eq!(analyze(&c).count(LINT_EMPTY_CLAUSE), 1);
    }

    #[test]
    fn components_split() {
        let r = analyze(&cnf(&[&[1, 2], &[3, 4], &[-3, 4]]));
        assert_eq!(r.components, 2);
        assert_eq!(r.largest_component, 2);
    }

    #[test]
    fn ungated_activation_fires_only_for_chain_only_literals() {
        // act vars 5 and 6; var 6 gates a payload clause, var 5 only
        // appears in the chain clause (5 ∨ ¬6).
        let c = cnf(&[&[1, 2], &[5, -6], &[-6, 1]]);
        let lint = ungated_activation(&c, &[lit(5), lit(6)]);
        assert_eq!(lint.count, 1);
        assert!(lint.examples[0].contains("layer 0"));
    }

    #[test]
    fn report_renders_counts() {
        let r = analyze(&cnf(&[&[1, 2], &[2, 1]]));
        let text = format!("{r}");
        assert!(text.contains("duplicate-clause: 1"), "{text}");
    }
}
