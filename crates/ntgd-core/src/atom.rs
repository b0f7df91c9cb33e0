//! Atoms and literals.

use std::fmt;

use crate::symbol::Symbol;
use crate::term::Term;

/// An atomic formula `p(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    predicate: Symbol,
    args: Vec<Term>,
}

impl Atom {
    /// Creates an atom from a predicate symbol and argument terms.
    pub fn new(predicate: Symbol, args: Vec<Term>) -> Atom {
        Atom { predicate, args }
    }

    /// Creates an atom, interning the predicate name.
    pub fn from_parts(predicate: &str, args: Vec<Term>) -> Atom {
        Atom::new(Symbol::intern(predicate), args)
    }

    /// The predicate symbol.
    pub fn predicate(&self) -> Symbol {
        self.predicate
    }

    /// The arity (number of arguments).
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The argument terms.
    pub fn args(&self) -> &[Term] {
        &self.args
    }

    /// Returns `true` if the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Returns `true` if the atom contains only constants.
    pub fn is_constant_only(&self) -> bool {
        self.args.iter().all(Term::is_constant)
    }

    /// Iterates over the variables of the atom (with repetitions).
    pub fn variables(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.args.iter().filter_map(Term::as_variable)
    }

    /// Iterates over all terms of the atom.
    pub fn terms(&self) -> impl Iterator<Item = &Term> + '_ {
        self.args.iter()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.predicate)?;
        if self.args.is_empty() {
            return Ok(());
        }
        write!(f, "(")?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A literal: an atom or its default negation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Literal {
    atom: Atom,
    positive: bool,
}

impl Literal {
    /// Wraps an atom as a positive literal.
    pub fn positive(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: true,
        }
    }

    /// Wraps an atom as a negative literal (`not p(t)`).
    pub fn negative(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: false,
        }
    }

    /// Returns `true` if the literal is positive.
    pub fn is_positive(&self) -> bool {
        self.positive
    }

    /// Returns `true` if the literal is negative.
    pub fn is_negative(&self) -> bool {
        !self.positive
    }

    /// The underlying atom.
    pub fn atom(&self) -> &Atom {
        &self.atom
    }

    /// The complementary literal.
    pub fn negated(&self) -> Literal {
        Literal {
            atom: self.atom.clone(),
            positive: !self.positive,
        }
    }

    /// Iterates over the variables of the literal.
    pub fn variables(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.atom.variables()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.atom)
        } else {
            write!(f, "not {}", self.atom)
        }
    }
}

impl From<Atom> for Literal {
    fn from(atom: Atom) -> Self {
        Literal::positive(atom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cst, var};

    fn p_ab() -> Atom {
        Atom::from_parts("p", vec![cst("a"), cst("b")])
    }

    #[test]
    fn atom_accessors() {
        let a = p_ab();
        assert_eq!(a.predicate(), Symbol::intern("p"));
        assert_eq!(a.arity(), 2);
        assert!(a.is_ground());
        assert!(a.is_constant_only());
        assert_eq!(a.to_string(), "p(a,b)");
    }

    #[test]
    fn zero_ary_atom_displays_without_parentheses() {
        let a = Atom::from_parts("error", vec![]);
        assert_eq!(a.to_string(), "error");
        assert_eq!(a.arity(), 0);
        assert!(a.is_ground());
    }

    #[test]
    fn atoms_with_variables_are_not_ground() {
        let a = Atom::from_parts("p", vec![var("X"), cst("b")]);
        assert!(!a.is_ground());
        assert!(!a.is_constant_only());
        assert_eq!(a.variables().collect::<Vec<_>>(), vec![Symbol::intern("X")]);
    }

    #[test]
    fn atoms_with_nulls_are_ground_but_not_constant_only() {
        let a = Atom::from_parts("p", vec![Term::null(0)]);
        assert!(a.is_ground());
        assert!(!a.is_constant_only());
    }

    #[test]
    fn literal_polarity_and_negation() {
        let l = Literal::positive(p_ab());
        assert!(l.is_positive());
        let n = l.negated();
        assert!(n.is_negative());
        assert_eq!(n.negated(), l);
        assert_eq!(n.to_string(), "not p(a,b)");
        assert_eq!(l.to_string(), "p(a,b)");
    }

    #[test]
    fn atom_equality_is_structural() {
        assert_eq!(p_ab(), p_ab());
        assert_ne!(p_ab(), Atom::from_parts("p", vec![cst("b"), cst("a")]));
        assert_ne!(p_ab(), Atom::from_parts("q", vec![cst("a"), cst("b")]));
    }
}
