//! # ntgd-core
//!
//! Logic substrate for *normal tuple-generating dependencies* (NTGDs), as defined
//! in "Stable Model Semantics for Tuple-Generating Dependencies Revisited"
//! (Alviano, Morak, Pieris — PODS 2017), Section 2.
//!
//! The crate provides:
//!
//! * interned [`Symbol`]s and the three kinds of [`Term`]s (constants, labelled
//!   nulls, variables);
//! * [`Atom`]s, [`Literal`]s, [`Schema`]s and [`Database`]s;
//! * (total) [`Interpretation`]s represented by their positive part plus domain;
//! * [`Substitution`]s / homomorphisms and a backtracking [`matcher`] that
//!   enumerates homomorphisms from conjunctions of literals into interpretations;
//! * [`Ntgd`] / [`Ndtgd`] rules, [`Program`]s and their safety validation;
//! * normal (Boolean) conjunctive queries ([`Query`]);
//! * a deterministic [`parallel`] layer (one persistent worker pool) used by
//!   the chase, grounding and stability fixpoints downstream;
//! * a zero-dependency observability layer ([`obs`]): process-wide
//!   counters, gauges, log-bucketed histograms, RAII span timers and a
//!   structured event log — write-only for the engine, so it never
//!   influences execution.
//!
//! Everything downstream — the chase, the LP approach, the new stable model
//! semantics — is built on these types.

pub mod atom;
pub mod database;
pub mod error;
pub mod interpretation;
pub mod matcher;
pub mod obs;
pub mod parallel;
pub mod program;
pub mod query;
pub mod rule;
pub mod ruleset;
pub mod schema;
pub mod substitution;
pub mod symbol;
pub mod term;

pub use atom::{Atom, Literal};
pub use database::Database;
pub use error::{CoreError, CoreResult};
pub use interpretation::{AtomId, IdProbe, Interpretation, InterpretationBase};
pub use matcher::{
    all_atom_homomorphisms_delta, all_homomorphisms, exists_homomorphism,
    for_each_homomorphism_delta, CompiledConjunction, SlotBinding,
};
pub use program::{DisjunctiveProgram, Program};
pub use query::Query;
pub use rule::{Ndtgd, Ntgd};
pub use ruleset::{
    CompiledDisjunctiveRule, CompiledDisjunctiveRuleSet, CompiledRule, CompiledRuleSet,
    HeadTemplate, RuleShape,
};
pub use schema::{Position, Schema};
pub use substitution::Substitution;
pub use symbol::Symbol;
pub use term::{NullFactory, NullId, Term};

/// Convenience constructor for a constant term from a string.
pub fn cst(name: &str) -> Term {
    Term::constant(name)
}

/// Convenience constructor for a variable term from a string.
pub fn var(name: &str) -> Term {
    Term::variable(name)
}

/// Convenience constructor for an atom from a predicate name and terms.
pub fn atom(pred: &str, args: Vec<Term>) -> Atom {
    Atom::new(Symbol::intern(pred), args)
}

/// Convenience constructor for a positive literal.
pub fn pos(pred: &str, args: Vec<Term>) -> Literal {
    Literal::positive(atom(pred, args))
}

/// Convenience constructor for a negative literal.
pub fn neg(pred: &str, args: Vec<Term>) -> Literal {
    Literal::negative(atom(pred, args))
}
