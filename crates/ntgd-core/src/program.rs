//! Programs: finite sets of (disjunctive) normal TGDs.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::CoreResult;
use crate::rule::{Ndtgd, Ntgd};
use crate::schema::Schema;
use crate::symbol::Symbol;
use crate::term::Term;

/// A finite set `Σ` of NTGDs (class `TGD¬` in the paper).
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Ntgd>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Creates a program from rules, validating arity consistency of the
    /// induced schema.
    pub fn from_rules<I>(rules: I) -> CoreResult<Program>
    where
        I: IntoIterator<Item = Ntgd>,
    {
        let p = Program {
            rules: rules.into_iter().collect(),
        };
        p.schema()?;
        Ok(p)
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Ntgd) {
        self.rules.push(rule);
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Ntgd] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The schema `sch(Σ)`: predicates occurring in the program.
    pub fn schema(&self) -> CoreResult<Schema> {
        let mut s = Schema::new();
        for r in &self.rules {
            r.declare_into(&mut s)?;
        }
        Ok(s)
    }

    /// Returns `true` if no rule contains a negative literal.
    pub fn is_positive(&self) -> bool {
        self.rules.iter().all(Ntgd::is_positive)
    }

    /// The positive part `Σ⁺`: every rule with its negative literals dropped.
    pub fn positive_part(&self) -> Program {
        Program {
            rules: self.rules.iter().map(Ntgd::positive_part).collect(),
        }
    }

    /// All constants mentioned in rule bodies or heads.
    pub fn constants(&self) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            for l in r.body() {
                out.extend(l.atom().terms().filter(|t| t.is_constant()).copied());
            }
            for a in r.head() {
                out.extend(a.terms().filter(|t| t.is_constant()).copied());
            }
        }
        out
    }

    /// Predicates that occur in some rule head (the "intensional" candidates).
    pub fn head_predicates(&self) -> BTreeSet<Symbol> {
        self.rules
            .iter()
            .flat_map(|r| r.head().iter().map(|a| a.predicate()))
            .collect()
    }

    /// Predicates of the schema that never occur in a head: the *extensional*
    /// (database) schema `edb(Σ)` of Section 7.1.
    pub fn extensional_predicates(&self) -> BTreeSet<Symbol> {
        let heads = self.head_predicates();
        let mut out = BTreeSet::new();
        if let Ok(schema) = self.schema() {
            for (p, _) in schema.predicates() {
                if !heads.contains(&p) {
                    out.insert(p);
                }
            }
        }
        out
    }

    /// Maximum number of existential variables in any rule head.
    pub fn max_existential_arity(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.existential_variables().len())
            .max()
            .unwrap_or(0)
    }

    /// Converts the program into a disjunctive program with single-disjunct
    /// rules.
    pub fn to_disjunctive(&self) -> DisjunctiveProgram {
        DisjunctiveProgram {
            rules: self.rules.iter().map(Ntgd::to_ndtgd).collect(),
        }
    }

    /// Iterates over rules together with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Ntgd)> + '_ {
        self.rules.iter().enumerate()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Ntgd> for Program {
    fn from_iter<I: IntoIterator<Item = Ntgd>>(iter: I) -> Self {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

/// A finite set of NDTGDs (class `TGD¬,∨` in the paper, Section 6).
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct DisjunctiveProgram {
    rules: Vec<Ndtgd>,
}

impl DisjunctiveProgram {
    /// Creates an empty disjunctive program.
    pub fn new() -> DisjunctiveProgram {
        DisjunctiveProgram::default()
    }

    /// Creates a disjunctive program from rules.
    pub fn from_rules<I>(rules: I) -> CoreResult<DisjunctiveProgram>
    where
        I: IntoIterator<Item = Ndtgd>,
    {
        let p = DisjunctiveProgram {
            rules: rules.into_iter().collect(),
        };
        p.schema()?;
        Ok(p)
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Ndtgd) {
        self.rules.push(rule);
    }

    /// The rules.
    pub fn rules(&self) -> &[Ndtgd] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The schema of the program.
    pub fn schema(&self) -> CoreResult<Schema> {
        let mut s = Schema::new();
        for r in &self.rules {
            r.declare_into(&mut s)?;
        }
        Ok(s)
    }

    /// Maximum number of disjuncts over all rules (the `k` of Lemma 13).
    pub fn max_disjuncts(&self) -> usize {
        self.rules
            .iter()
            .map(Ndtgd::disjunct_count)
            .max()
            .unwrap_or(0)
    }

    /// Returns `Some(program)` if every rule is non-disjunctive.
    pub fn to_program(&self) -> Option<Program> {
        let mut rules = Vec::with_capacity(self.rules.len());
        for r in &self.rules {
            rules.push(r.to_ntgd()?);
        }
        Some(Program { rules })
    }

    /// The `Σ⁺,∧` program of Section 6 (used for disjunctive weak-acyclicity).
    pub fn positive_conjunctive_part(&self) -> Program {
        Program {
            rules: self
                .rules
                .iter()
                .map(Ndtgd::positive_conjunctive_part)
                .collect(),
        }
    }
}

impl fmt::Display for DisjunctiveProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Ndtgd> for DisjunctiveProgram {
    fn from_iter<I: IntoIterator<Item = Ndtgd>>(iter: I) -> Self {
        DisjunctiveProgram {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, neg, pos, var};

    /// The three rules of Example 1.
    pub(crate) fn example1() -> Program {
        Program::from_rules(vec![
            Ntgd::new(
                vec![pos("person", vec![var("X")])],
                vec![atom("hasFather", vec![var("X"), var("Y")])],
            )
            .unwrap(),
            Ntgd::new(
                vec![pos("hasFather", vec![var("X"), var("Y")])],
                vec![atom("sameAs", vec![var("Y"), var("Y")])],
            )
            .unwrap(),
            Ntgd::new(
                vec![
                    pos("hasFather", vec![var("X"), var("Y")]),
                    pos("hasFather", vec![var("X"), var("Z")]),
                    neg("sameAs", vec![var("Y"), var("Z")]),
                ],
                vec![atom("abnormal", vec![var("X")])],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn schema_collects_all_predicates() {
        let p = example1();
        let s = p.schema().unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.arity(Symbol::intern("hasFather")), Some(2));
        assert_eq!(s.max_arity(), 2);
    }

    #[test]
    fn positivity_and_positive_part() {
        let p = example1();
        assert!(!p.is_positive());
        let pp = p.positive_part();
        assert!(pp.is_positive());
        assert_eq!(pp.len(), 3);
        // The abnormal rule lost its negative literal but kept its two
        // positive ones.
        assert_eq!(pp.rules()[2].body().len(), 2);
    }

    #[test]
    fn extensional_predicates_are_those_never_derived() {
        let p = example1();
        let edb = p.extensional_predicates();
        assert!(edb.contains(&Symbol::intern("person")));
        assert!(!edb.contains(&Symbol::intern("hasFather")));
        assert!(!edb.contains(&Symbol::intern("abnormal")));
    }

    #[test]
    fn max_existential_arity() {
        let p = example1();
        assert_eq!(p.max_existential_arity(), 1);
        assert_eq!(Program::new().max_existential_arity(), 0);
    }

    #[test]
    fn arity_conflicts_detected_at_construction() {
        let result = Program::from_rules(vec![
            Ntgd::new(
                vec![pos("p", vec![var("X")])],
                vec![atom("q", vec![var("X")])],
            )
            .unwrap(),
            Ntgd::new(
                vec![pos("p", vec![var("X"), var("Y")])],
                vec![atom("q", vec![var("X")])],
            )
            .unwrap(),
        ]);
        assert!(result.is_err());
    }

    #[test]
    fn disjunctive_round_trip() {
        let p = example1();
        let d = p.to_disjunctive();
        assert_eq!(d.len(), 3);
        assert_eq!(d.max_disjuncts(), 1);
        let back = d.to_program().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn disjunctive_program_with_real_disjunction() {
        let d = DisjunctiveProgram::from_rules(vec![Ndtgd::new(
            vec![pos("node", vec![var("X")])],
            vec![
                vec![atom("red", vec![var("X")])],
                vec![atom("green", vec![var("X")])],
            ],
        )
        .unwrap()])
        .unwrap();
        assert_eq!(d.max_disjuncts(), 2);
        assert!(d.to_program().is_none());
        let pc = d.positive_conjunctive_part();
        assert_eq!(pc.rules()[0].head().len(), 2);
    }

    #[test]
    fn display_lists_rules_line_by_line() {
        let p = example1();
        let text = p.to_string();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("person(X) -> hasFather(X,Y)."));
    }
}
