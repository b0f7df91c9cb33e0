//! Normal (disjunctive) tuple-generating dependencies.
//!
//! An NTGD (paper, Section 2) is a formula
//! `∀X∀Y (ϕ(X,Y) → ∃Z ψ(X,Z))` where the body `ϕ` is a conjunction of
//! literals and the head `ψ` is a conjunction of atoms.  A normal *disjunctive*
//! TGD (NDTGD, Section 6) instead has a head that is a disjunction of
//! conjunctions of atoms, each with its own existential variables.
//!
//! The quantifier structure is implicit in our representation: every variable
//! occurring in the body is universally quantified, and every head variable
//! that does not occur in the body is existentially quantified.

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{Atom, Literal};
use crate::error::{CoreError, CoreResult};
use crate::schema::Schema;
use crate::symbol::Symbol;

/// A normal tuple-generating dependency.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ntgd {
    body: Vec<Literal>,
    head: Vec<Atom>,
}

impl Ntgd {
    /// Creates and validates an NTGD.
    ///
    /// Validation enforces (i) a non-empty head and (ii) *safety*: every
    /// variable occurring in a negative body literal also occurs in a positive
    /// body literal.  Bodies may be empty (e.g. `→ ∃X zero(X)` from the 2-QBF
    /// encoding of Section 5.3) and rules may contain constants (an extension
    /// the paper explicitly allows).
    pub fn new(body: Vec<Literal>, head: Vec<Atom>) -> CoreResult<Ntgd> {
        let rule = Ntgd { body, head };
        rule.validate()?;
        Ok(rule)
    }

    fn validate(&self) -> CoreResult<()> {
        if self.head.is_empty() {
            return Err(CoreError::EmptyHead {
                rule: format!("{} -> .", render_body(&self.body)),
            });
        }
        let positive_vars = self.positive_body_variables();
        for lit in self.body.iter().filter(|l| l.is_negative()) {
            for v in lit.variables() {
                if !positive_vars.contains(&v) {
                    return Err(CoreError::UnsafeRule {
                        rule: self.to_string(),
                        variable: v.as_str().to_owned(),
                        reason: "occurs in a negative literal but in no positive body literal"
                            .to_owned(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The body `B(σ)`.
    pub fn body(&self) -> &[Literal] {
        &self.body
    }

    /// The positive body literals `B⁺(σ)` (as atoms).
    pub fn body_positive(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter(|l| l.is_positive())
            .map(|l| l.atom())
            .collect()
    }

    /// The negative body literals `B⁻(σ)` (as atoms).
    pub fn body_negative(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter(|l| l.is_negative())
            .map(|l| l.atom())
            .collect()
    }

    /// The head `H(σ)`.
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// Returns `true` if the rule has no negative body literal (i.e. it is a
    /// plain TGD).
    pub fn is_positive(&self) -> bool {
        self.body.iter().all(Literal::is_positive)
    }

    /// The *positive part* of the rule: drop every negative body literal.
    /// The set of positive parts of a program is the `Σ⁺` of the paper.
    pub fn positive_part(&self) -> Ntgd {
        Ntgd {
            body: self
                .body
                .iter()
                .filter(|l| l.is_positive())
                .cloned()
                .collect(),
            head: self.head.clone(),
        }
    }

    /// Variables occurring in positive body literals.
    pub fn positive_body_variables(&self) -> BTreeSet<Symbol> {
        self.body
            .iter()
            .filter(|l| l.is_positive())
            .flat_map(|l| l.variables().collect::<Vec<_>>())
            .collect()
    }

    /// All variables occurring in the body (the universally quantified ones).
    pub fn universal_variables(&self) -> BTreeSet<Symbol> {
        self.body
            .iter()
            .flat_map(|l| l.variables().collect::<Vec<_>>())
            .collect()
    }

    /// Variables occurring in the head.
    pub fn head_variables(&self) -> BTreeSet<Symbol> {
        self.head
            .iter()
            .flat_map(|a| a.variables().collect::<Vec<_>>())
            .collect()
    }

    /// The frontier: variables shared between body and head.
    pub fn frontier_variables(&self) -> BTreeSet<Symbol> {
        let body = self.universal_variables();
        self.head_variables()
            .into_iter()
            .filter(|v| body.contains(v))
            .collect()
    }

    /// The existentially quantified variables: head variables that do not
    /// occur in the body.
    pub fn existential_variables(&self) -> BTreeSet<Symbol> {
        let body = self.universal_variables();
        self.head_variables()
            .into_iter()
            .filter(|v| !body.contains(v))
            .collect()
    }

    /// Returns `true` if the head contains at least one existential variable.
    pub fn has_existential(&self) -> bool {
        !self.existential_variables().is_empty()
    }

    /// Registers the rule's predicates into a schema.
    pub fn declare_into(&self, schema: &mut Schema) -> CoreResult<()> {
        for l in &self.body {
            schema.declare_atom(l.atom())?;
        }
        for a in &self.head {
            schema.declare_atom(a)?;
        }
        Ok(())
    }

    /// Converts the rule to the equivalent single-disjunct NDTGD.
    pub fn to_ndtgd(&self) -> Ndtgd {
        Ndtgd {
            body: self.body.clone(),
            disjuncts: vec![self.head.clone()],
        }
    }
}

fn render_body(body: &[Literal]) -> String {
    if body.is_empty() {
        return String::new();
    }
    body.iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_atoms(atoms: &[Atom]) -> String {
    atoms
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Ntgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}.",
            render_body(&self.body),
            render_atoms(&self.head)
        )
    }
}

/// A normal *disjunctive* tuple-generating dependency (paper, Section 6):
/// `∀X∀Y (ϕ(X,Y) → ⋁ᵢ ∃Zᵢ ψᵢ(X,Zᵢ))`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ndtgd {
    body: Vec<Literal>,
    disjuncts: Vec<Vec<Atom>>,
}

impl Ndtgd {
    /// Creates and validates an NDTGD.  Requires at least one disjunct, each
    /// non-empty, and the same safety condition as [`Ntgd::new`].
    pub fn new(body: Vec<Literal>, disjuncts: Vec<Vec<Atom>>) -> CoreResult<Ndtgd> {
        if disjuncts.is_empty() || disjuncts.iter().any(Vec::is_empty) {
            return Err(CoreError::EmptyHead {
                rule: render_body(&body),
            });
        }
        // Safety is identical to the non-disjunctive case.
        let probe = Ntgd::new(body.clone(), disjuncts[0].clone())?;
        let _ = probe;
        Ok(Ndtgd { body, disjuncts })
    }

    /// The body.
    pub fn body(&self) -> &[Literal] {
        &self.body
    }

    /// The head disjuncts (each a conjunction of atoms).
    pub fn disjuncts(&self) -> &[Vec<Atom>] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn disjunct_count(&self) -> usize {
        self.disjuncts.len()
    }

    /// Returns `true` if the rule has exactly one disjunct (i.e. is an NTGD).
    pub fn is_non_disjunctive(&self) -> bool {
        self.disjuncts.len() == 1
    }

    /// Converts to an NTGD if non-disjunctive.
    pub fn to_ntgd(&self) -> Option<Ntgd> {
        if self.is_non_disjunctive() {
            Ntgd::new(self.body.clone(), self.disjuncts[0].clone()).ok()
        } else {
            None
        }
    }

    /// The positive body literals.
    pub fn body_positive(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter(|l| l.is_positive())
            .map(|l| l.atom())
            .collect()
    }

    /// The negative body literals.
    pub fn body_negative(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter(|l| l.is_negative())
            .map(|l| l.atom())
            .collect()
    }

    /// All body variables.
    pub fn universal_variables(&self) -> BTreeSet<Symbol> {
        self.body
            .iter()
            .flat_map(|l| l.variables().collect::<Vec<_>>())
            .collect()
    }

    /// Existential variables of a given disjunct.
    pub fn existential_variables_of(&self, disjunct: usize) -> BTreeSet<Symbol> {
        let body = self.universal_variables();
        self.disjuncts[disjunct]
            .iter()
            .flat_map(|a| a.variables().collect::<Vec<_>>())
            .filter(|v| !body.contains(v))
            .collect()
    }

    /// The `Σ⁺,∧` transformation of Section 6: drop negative literals and turn
    /// the disjunction into a conjunction, producing a single positive TGD.
    pub fn positive_conjunctive_part(&self) -> Ntgd {
        let body: Vec<Literal> = self
            .body
            .iter()
            .filter(|l| l.is_positive())
            .cloned()
            .collect();
        let head: Vec<Atom> = self.disjuncts.iter().flatten().cloned().collect();
        Ntgd { body, head }
    }

    /// Registers the rule's predicates into a schema.
    pub fn declare_into(&self, schema: &mut Schema) -> CoreResult<()> {
        for l in &self.body {
            schema.declare_atom(l.atom())?;
        }
        for d in &self.disjuncts {
            for a in d {
                schema.declare_atom(a)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Ndtgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let heads = self
            .disjuncts
            .iter()
            .map(|d| render_atoms(d))
            .collect::<Vec<_>>()
            .join(" | ");
        write!(f, "{} -> {}.", render_body(&self.body), heads)
    }
}

impl From<Ntgd> for Ndtgd {
    fn from(rule: Ntgd) -> Self {
        rule.to_ndtgd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, cst, neg, pos, var};

    /// `person(X) → ∃Y hasFather(X,Y)` from Example 1.
    fn father_rule() -> Ntgd {
        Ntgd::new(
            vec![pos("person", vec![var("X")])],
            vec![atom("hasFather", vec![var("X"), var("Y")])],
        )
        .unwrap()
    }

    /// The "abnormal" rule of Example 1.
    fn abnormal_rule() -> Ntgd {
        Ntgd::new(
            vec![
                pos("hasFather", vec![var("X"), var("Y")]),
                pos("hasFather", vec![var("X"), var("Z")]),
                neg("sameAs", vec![var("Y"), var("Z")]),
            ],
            vec![atom("abnormal", vec![var("X")])],
        )
        .unwrap()
    }

    #[test]
    fn variable_classification() {
        let r = father_rule();
        assert_eq!(
            r.universal_variables(),
            BTreeSet::from([Symbol::intern("X")])
        );
        assert_eq!(
            r.frontier_variables(),
            BTreeSet::from([Symbol::intern("X")])
        );
        assert_eq!(
            r.existential_variables(),
            BTreeSet::from([Symbol::intern("Y")])
        );
        assert!(r.has_existential());
        assert!(r.is_positive());

        let a = abnormal_rule();
        assert!(a.existential_variables().is_empty());
        assert!(!a.is_positive());
        assert_eq!(a.body_positive().len(), 2);
        assert_eq!(a.body_negative().len(), 1);
    }

    #[test]
    fn safety_is_enforced() {
        let err = Ntgd::new(
            vec![neg("q", vec![var("X")])],
            vec![atom("p", vec![var("X")])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsafeRule { .. }));
        // A negated 0-ary atom is safe even with an otherwise empty body.
        assert!(Ntgd::new(
            vec![neg("saturate", vec![])],
            vec![atom("saturate", vec![])]
        )
        .is_ok());
    }

    #[test]
    fn empty_heads_are_rejected_and_empty_bodies_allowed() {
        assert!(Ntgd::new(vec![pos("p", vec![var("X")])], vec![]).is_err());
        // `→ ∃X zero(X)` from the 2-QBF encoding.
        let r = Ntgd::new(vec![], vec![atom("zero", vec![var("X")])]).unwrap();
        assert_eq!(
            r.existential_variables(),
            BTreeSet::from([Symbol::intern("X")])
        );
    }

    #[test]
    fn positive_part_drops_negative_literals() {
        let a = abnormal_rule();
        let p = a.positive_part();
        assert!(p.is_positive());
        assert_eq!(p.body().len(), 2);
        assert_eq!(p.head(), a.head());
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(father_rule().to_string(), "person(X) -> hasFather(X,Y).");
        assert_eq!(
            abnormal_rule().to_string(),
            "hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X)."
        );
    }

    #[test]
    fn schema_declaration_collects_predicates() {
        let mut s = Schema::new();
        abnormal_rule().declare_into(&mut s).unwrap();
        assert_eq!(s.arity(Symbol::intern("hasFather")), Some(2));
        assert_eq!(s.arity(Symbol::intern("sameAs")), Some(2));
        assert_eq!(s.arity(Symbol::intern("abnormal")), Some(1));
    }

    #[test]
    fn ndtgd_construction_and_views() {
        // r(X) → p(X) ∨ ∃Y s(X,Y)
        let d = Ndtgd::new(
            vec![pos("r", vec![var("X")])],
            vec![
                vec![atom("p", vec![var("X")])],
                vec![atom("s", vec![var("X"), var("Y")])],
            ],
        )
        .unwrap();
        assert_eq!(d.disjunct_count(), 2);
        assert!(!d.is_non_disjunctive());
        assert!(d.to_ntgd().is_none());
        assert_eq!(
            d.existential_variables_of(1),
            BTreeSet::from([Symbol::intern("Y")])
        );
        assert!(d.existential_variables_of(0).is_empty());
        let pc = d.positive_conjunctive_part();
        assert_eq!(pc.head().len(), 2);
        assert_eq!(d.to_string(), "r(X) -> p(X) | s(X,Y).");
    }

    #[test]
    fn ndtgd_rejects_empty_disjuncts() {
        assert!(Ndtgd::new(vec![pos("r", vec![var("X")])], vec![]).is_err());
        assert!(Ndtgd::new(vec![pos("r", vec![var("X")])], vec![vec![]]).is_err());
    }

    #[test]
    fn ntgd_round_trips_through_ndtgd() {
        let r = abnormal_rule();
        let d = r.to_ndtgd();
        assert!(d.is_non_disjunctive());
        assert_eq!(d.to_ntgd().unwrap(), r);
    }

    #[test]
    fn constants_are_allowed_in_rules() {
        let r = Ntgd::new(
            vec![pos("p", vec![cst("a"), var("X")])],
            vec![atom("q", vec![cst("b")])],
        )
        .unwrap();
        assert!(r.universal_variables().contains(&Symbol::intern("X")));
        assert!(r.head_variables().is_empty());
    }
}
