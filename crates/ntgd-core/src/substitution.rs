//! Substitutions and homomorphisms.
//!
//! Following the paper (Section 2), a *homomorphism* from a set of literals `L`
//! to a set of literals `L'` is a mapping `h : C ∪ N ∪ V → C ∪ N ∪ V` that is
//! the identity on constants and maps every (positive or negative) literal of
//! `L` to a literal of `L'` of the same polarity.  [`Substitution`] represents
//! the finite, explicitly recorded part of such a mapping: variables and nulls
//! that are not recorded map to themselves.

use std::collections::BTreeMap;
use std::fmt;

use crate::atom::{Atom, Literal};
use crate::term::Term;

/// A finite mapping from variables/nulls to terms, identity on constants.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Substitution {
    map: BTreeMap<Term, Term>,
}

impl Substitution {
    /// The empty substitution (identity everywhere).
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Creates a substitution from explicit bindings.
    ///
    /// # Panics
    ///
    /// Panics if a binding key is a constant (constants must map to
    /// themselves).
    pub fn from_bindings<I>(bindings: I) -> Substitution
    where
        I: IntoIterator<Item = (Term, Term)>,
    {
        let mut s = Substitution::new();
        for (k, v) in bindings {
            s.bind(k, v);
        }
        s
    }

    /// Number of explicit bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no explicit binding is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the binding of `t`, if explicitly recorded.
    pub fn get(&self, t: &Term) -> Option<&Term> {
        self.map.get(t)
    }

    /// Records the binding `from ↦ to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is a constant.
    pub fn bind(&mut self, from: Term, to: Term) {
        assert!(
            !from.is_constant(),
            "constants must map to themselves in a homomorphism"
        );
        self.map.insert(from, to);
    }

    /// Tries to extend the substitution with `from ↦ to`.
    ///
    /// Returns `false` (leaving the substitution untouched) if `from` is a
    /// constant different from `to`, or if `from` is already bound to a
    /// different term.
    pub fn try_bind(&mut self, from: Term, to: Term) -> bool {
        if from.is_constant() {
            return from == to;
        }
        match self.map.get(&from) {
            Some(existing) => *existing == to,
            None => {
                self.map.insert(from, to);
                true
            }
        }
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        match t {
            Term::Const(_) => *t,
            _ => self.map.get(t).copied().unwrap_or(*t),
        }
    }

    /// Applies the substitution to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(
            atom.predicate(),
            atom.args().iter().map(|t| self.apply_term(t)).collect(),
        )
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, lit: &Literal) -> Literal {
        let atom = self.apply_atom(lit.atom());
        if lit.is_positive() {
            Literal::positive(atom)
        } else {
            Literal::negative(atom)
        }
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`.
    pub fn then(&self, other: &Substitution) -> Substitution {
        let mut out = Substitution::new();
        for (k, v) in &self.map {
            out.map.insert(*k, other.apply_term(v));
        }
        for (k, v) in &other.map {
            out.map.entry(*k).or_insert(*v);
        }
        out
    }

    /// Returns `true` if `self` agrees with `other` on every binding of
    /// `self` (i.e. `other` is an extension of `self`, written `other ⊇ self`
    /// in the paper).
    pub fn is_extended_by(&self, other: &Substitution) -> bool {
        self.map.iter().all(|(k, v)| other.apply_term(k) == *v)
    }

    /// Iterates over the explicit bindings in a deterministic order.
    pub fn bindings(&self) -> impl Iterator<Item = (&Term, &Term)> + '_ {
        self.map.iter()
    }

    /// Restricts the substitution to the given keys.
    pub fn restrict_to<'a, I>(&self, keys: I) -> Substitution
    where
        I: IntoIterator<Item = &'a Term>,
    {
        let mut out = Substitution::new();
        for k in keys {
            if let Some(v) = self.map.get(k) {
                out.map.insert(*k, *v);
            }
        }
        out
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} -> {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, cst, var};

    #[test]
    fn identity_on_constants() {
        let s = Substitution::new();
        assert_eq!(s.apply_term(&cst("a")), cst("a"));
        assert_eq!(s.apply_term(&var("X")), var("X"));
        assert_eq!(s.apply_term(&Term::null(1)), Term::null(1));
    }

    #[test]
    fn bind_and_apply() {
        let mut s = Substitution::new();
        s.bind(var("X"), cst("a"));
        s.bind(Term::null(0), cst("b"));
        let a = atom("p", vec![var("X"), Term::null(0), var("Y")]);
        assert_eq!(
            s.apply_atom(&a),
            atom("p", vec![cst("a"), cst("b"), var("Y")])
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "constants must map to themselves")]
    fn binding_a_constant_panics() {
        let mut s = Substitution::new();
        s.bind(cst("a"), cst("b"));
    }

    #[test]
    fn try_bind_respects_existing_bindings() {
        let mut s = Substitution::new();
        assert!(s.try_bind(var("X"), cst("a")));
        assert!(s.try_bind(var("X"), cst("a")));
        assert!(!s.try_bind(var("X"), cst("b")));
        assert!(s.try_bind(cst("c"), cst("c")));
        assert!(!s.try_bind(cst("c"), cst("d")));
    }

    #[test]
    fn composition_applies_left_then_right() {
        let mut s1 = Substitution::new();
        s1.bind(var("X"), var("Y"));
        let mut s2 = Substitution::new();
        s2.bind(var("Y"), cst("a"));
        let c = s1.then(&s2);
        assert_eq!(c.apply_term(&var("X")), cst("a"));
        assert_eq!(c.apply_term(&var("Y")), cst("a"));
    }

    #[test]
    fn extension_check() {
        let mut h = Substitution::new();
        h.bind(var("X"), cst("a"));
        let mut h2 = h.clone();
        h2.bind(var("Z"), cst("b"));
        assert!(h.is_extended_by(&h2));
        assert!(!h2.is_extended_by(&h));
        assert!(h.is_extended_by(&h));
    }

    #[test]
    fn restriction_keeps_only_requested_keys() {
        let mut s = Substitution::new();
        s.bind(var("X"), cst("a"));
        s.bind(var("Y"), cst("b"));
        let keys = [var("X")];
        let r = s.restrict_to(keys.iter());
        assert_eq!(r.len(), 1);
        assert_eq!(r.apply_term(&var("X")), cst("a"));
        assert_eq!(r.apply_term(&var("Y")), var("Y"));
    }

    #[test]
    fn apply_literal_preserves_polarity() {
        let mut s = Substitution::new();
        s.bind(var("X"), cst("a"));
        let l = Literal::negative(atom("p", vec![var("X")]));
        let applied = s.apply_literal(&l);
        assert!(applied.is_negative());
        assert_eq!(applied.atom(), &atom("p", vec![cst("a")]));
    }
}
