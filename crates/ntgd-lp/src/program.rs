//! Ground normal logic programs.

use std::collections::BTreeSet;
use std::fmt;

use ntgd_core::{Atom, Term};

/// A ground normal rule `head ← body⁺, not body⁻`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GroundRule {
    /// The single head atom.
    pub head: Atom,
    /// Positive body atoms.
    pub body_pos: Vec<Atom>,
    /// Negated body atoms.
    pub body_neg: Vec<Atom>,
}

impl GroundRule {
    /// Creates a ground rule.
    pub fn new(head: Atom, body_pos: Vec<Atom>, body_neg: Vec<Atom>) -> GroundRule {
        GroundRule {
            head,
            body_pos,
            body_neg,
        }
    }

    /// Creates a fact (a rule with an empty body).
    pub fn fact(head: Atom) -> GroundRule {
        GroundRule::new(head, Vec::new(), Vec::new())
    }

    /// Returns `true` if the rule has no negative body atoms.
    pub fn is_positive(&self) -> bool {
        self.body_neg.is_empty()
    }
}

impl fmt::Display for GroundRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if self.body_pos.is_empty() && self.body_neg.is_empty() {
            return write!(f, ".");
        }
        write!(f, " <- ")?;
        let mut first = true;
        for a in &self.body_pos {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for a in &self.body_neg {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "not {a}")?;
            first = false;
        }
        write!(f, ".")
    }
}

/// A ground normal logic program together with its (relevant) Herbrand base.
#[derive(Clone, Debug, Default)]
pub struct GroundProgram {
    /// The ground rules (facts are rules with empty bodies).
    pub rules: Vec<GroundRule>,
    /// All ground atoms mentioned anywhere in the program (relevant Herbrand
    /// base).
    pub herbrand: BTreeSet<Atom>,
}

impl GroundProgram {
    /// Creates a ground program from rules, computing the Herbrand base.
    pub fn new(rules: Vec<GroundRule>) -> GroundProgram {
        let mut herbrand = BTreeSet::new();
        for r in &rules {
            herbrand.insert(r.head.clone());
            herbrand.extend(r.body_pos.iter().cloned());
            herbrand.extend(r.body_neg.iter().cloned());
        }
        GroundProgram { rules, herbrand }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The atoms that occur under negation.
    pub fn negated_atoms(&self) -> BTreeSet<Atom> {
        self.rules
            .iter()
            .flat_map(|r| r.body_neg.iter().cloned())
            .collect()
    }

    /// All ground terms of the relevant Herbrand base.
    pub fn herbrand_terms(&self) -> BTreeSet<Term> {
        self.herbrand
            .iter()
            .flat_map(|a| a.terms().copied().collect::<Vec<_>>())
            .collect()
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Least model of a set of positive ground rules (naive bottom-up fixpoint).
pub fn least_model<'a, I>(rules: I) -> BTreeSet<Atom>
where
    I: IntoIterator<Item = &'a GroundRule>,
    I::IntoIter: Clone,
{
    let rules = rules.into_iter();
    let mut model: BTreeSet<Atom> = BTreeSet::new();
    loop {
        let mut changed = false;
        for rule in rules.clone() {
            if model.contains(&rule.head) {
                continue;
            }
            if rule.body_pos.iter().all(|a| model.contains(a)) {
                model.insert(rule.head.clone());
                changed = true;
            }
        }
        if !changed {
            return model;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::{atom, cst};

    fn a(name: &str) -> Atom {
        atom(name, vec![cst("c")])
    }

    #[test]
    fn least_model_computes_closure() {
        let rules = [
            GroundRule::fact(a("p")),
            GroundRule::new(a("q"), vec![a("p")], vec![]),
            GroundRule::new(a("r"), vec![a("q"), a("p")], vec![]),
            GroundRule::new(a("s"), vec![a("t")], vec![]),
        ];
        let m = least_model(rules.iter());
        assert!(m.contains(&a("p")) && m.contains(&a("q")) && m.contains(&a("r")));
        assert!(!m.contains(&a("s")));
    }

    #[test]
    fn ground_program_collects_herbrand_base() {
        let gp = GroundProgram::new(vec![GroundRule::new(a("q"), vec![a("p")], vec![a("r")])]);
        assert_eq!(gp.herbrand.len(), 3);
        assert_eq!(gp.negated_atoms(), BTreeSet::from([a("r")]));
        assert_eq!(gp.herbrand_terms(), BTreeSet::from([cst("c")]));
        assert_eq!(gp.len(), 1);
    }

    #[test]
    fn display_renders_rules_and_facts() {
        let r = GroundRule::new(a("q"), vec![a("p")], vec![a("r")]);
        assert_eq!(r.to_string(), "q(c) <- p(c), not r(c).");
        assert_eq!(GroundRule::fact(a("p")).to_string(), "p(c).");
    }
}
