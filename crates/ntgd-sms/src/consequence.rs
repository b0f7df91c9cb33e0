//! The immediate consequence operator `T_{Σ,I}` (paper, Section 5.1).
//!
//! An atom `p(t̄) ∈ I⁺` is an *immediate consequence* for a set `S` of atoms
//! and `Σ` relative to `I` if some rule `σ` has a homomorphism `h` with
//! `h(B(σ)) ⊆ S ∪ I⁻` and `p(t̄) ∈ h(H(σ))`.  Lemma 7 states that every
//! stable model `M` satisfies `M⁺ = T^∞_{Σ,M}(D)` — it can be reconstructed
//! by "executing" the program using `M` as an oracle for negative literals —
//! and Lemma 8/Proposition 9 bound the number of iterations/atoms for
//! weakly-acyclic programs via the chase.
//!
//! The functions here make those statements executable; they are used by the
//! tests of this crate and by experiment E8.

use std::ops::ControlFlow;

use ntgd_core::{Atom, CompiledRuleSet, Database, Interpretation, Program, Substitution};

/// Derives every immediate consequence of the rules whose positive body maps
/// into `current` by a homomorphism using at least one atom at or after
/// `watermark` (`watermark == 0` means all homomorphisms), invoking `emit`
/// for each derived atom.
///
/// This is one round of [`immediate_consequence_closure`]: negative
/// literals are evaluated against the oracle `I`, and every head atom
/// instance belonging to `I⁺` (under some extension of the body
/// homomorphism over `dom(I)`) is an immediate consequence.  `plans` holds
/// the cached positive-body and per-head-atom plans of `program` (compiled
/// once per closure, executed every round); body homomorphisms stay borrowed
/// slot bindings and are only materialised for the head-extension probe.
fn derive_consequences<F: FnMut(Atom)>(
    program: &Program,
    plans: &CompiledRuleSet,
    oracle: &Interpretation,
    current: &Interpretation,
    watermark: usize,
    emit: &mut F,
) {
    let empty = Substitution::new();
    for (index, rule) in program.iter() {
        let rule_plans = plans.rule(index);
        rule_plans
            .body_positive()
            .for_each_delta(current, &empty, watermark, &mut |binding| {
                // Negative literals are evaluated against the oracle I.
                let negatives_ok = rule
                    .body_negative()
                    .iter()
                    .all(|a| oracle.satisfies_negation_of(&binding.apply_atom(a)));
                if !negatives_ok {
                    return ControlFlow::Continue(());
                }
                // Every head atom instance that belongs to I⁺ (under some
                // extension of h over dom(I)) is an immediate consequence.
                let h = binding.to_substitution();
                for (position, head_atom) in rule.head().iter().enumerate() {
                    rule_plans.head_atoms()[position].for_each(oracle, &h, &mut |ext| {
                        emit(ext.apply_atom(head_atom));
                        ControlFlow::Continue(())
                    });
                }
                ControlFlow::Continue(())
            });
    }
}

/// The least fixpoint `T^∞_{Σ,I}(D)`.
///
/// Computed semi-naively: after the first round, rule bodies are only
/// matched against homomorphisms using an atom derived in the previous round
/// (the negative literals and the head extension are evaluated against the
/// fixed oracle, so every homomorphism contributes in exactly one round).
/// Rule plans are compiled once for the whole fixpoint.
pub fn immediate_consequence_closure(
    database: &Database,
    program: &Program,
    oracle: &Interpretation,
) -> Interpretation {
    let mut current = database.to_interpretation();
    let plans = CompiledRuleSet::from_program(program, &current);
    let mut watermark = 0usize;
    loop {
        let next_watermark = current.len();
        let mut derived: Vec<Atom> = Vec::new();
        derive_consequences(program, &plans, oracle, &current, watermark, &mut |atom| {
            derived.push(atom);
        });
        let mut changed = false;
        for atom in derived {
            changed |= current.insert(atom);
        }
        if !changed {
            return current;
        }
        watermark = next_watermark;
    }
}

/// Checks the conclusion of Lemma 7 for a given interpretation: does
/// `M⁺ = T^∞_{Σ,M}(D)` hold?
///
/// Note that the converse fails in general (Section 5.1 gives the two-father
/// counterexample), so this is a *necessary* condition for stability only.
pub fn is_supported_by_operator(
    database: &Database,
    program: &Program,
    interpretation: &Interpretation,
) -> bool {
    let closure = immediate_consequence_closure(database, program, interpretation);
    closure.same_atoms_as(interpretation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::{atom, cst, Term};
    use ntgd_parser::{parse_database, parse_program};

    #[test]
    fn closure_reconstructs_the_positive_chase_with_an_oracle() {
        let db = parse_database("person(alice).").unwrap();
        let p = parse_program("person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y).")
            .unwrap();
        let m = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
            atom("sameAs", vec![cst("bob"), cst("bob")]),
        ]);
        assert!(is_supported_by_operator(&db, &p, &m));
    }

    #[test]
    fn unsupported_atoms_break_the_fixpoint_equation() {
        let db = parse_database("person(alice).").unwrap();
        let p = parse_program("person(X) -> hasFather(X, Y).").unwrap();
        let m = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
            atom("stranger", vec![cst("zed")]),
        ]);
        assert!(!is_supported_by_operator(&db, &p, &m));
    }

    #[test]
    fn negative_literals_consult_the_oracle() {
        let db = parse_database("p(a).").unwrap();
        let p = parse_program("p(X), not q(X) -> r(X).").unwrap();
        // Oracle where q(a) holds: r(a) is NOT derivable.
        let with_q =
            Interpretation::from_atoms(vec![atom("p", vec![cst("a")]), atom("q", vec![cst("a")])]);
        let closure = immediate_consequence_closure(&db, &p, &with_q);
        assert!(!closure.contains(&atom("r", vec![cst("a")])));
        // Oracle without q(a): r(a) is derivable.
        let without_q =
            Interpretation::from_atoms(vec![atom("p", vec![cst("a")]), atom("r", vec![cst("a")])]);
        let closure = immediate_consequence_closure(&db, &p, &without_q);
        assert!(closure.contains(&atom("r", vec![cst("a")])));
        assert!(is_supported_by_operator(&db, &p, &without_q));
    }

    #[test]
    fn section_5_1_counterexample_supported_but_not_stable() {
        // I⁺ = {s(a), p(a,b), p(a,c)} satisfies I⁺ = T∞(D) but is not a
        // stable model (checked in `stability`).
        let db = parse_database("s(a).").unwrap();
        let p = parse_program("s(X) -> p(X, Y).").unwrap();
        let i = Interpretation::from_atoms(vec![
            atom("s", vec![cst("a")]),
            atom("p", vec![cst("a"), cst("b")]),
            atom("p", vec![cst("a"), cst("c")]),
        ]);
        assert!(is_supported_by_operator(&db, &p, &i));
        assert!(!crate::stability::is_stable_model(&db, &p, &i));
    }

    #[test]
    fn closure_size_is_bounded_by_the_chase_bound() {
        // Proposition 9: |M⁺| is bounded by the (restricted-chase derived)
        // bound f(D,Σ).
        let db = parse_database("person(alice). person(bob).").unwrap();
        let p = parse_program("person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y).")
            .unwrap();
        let m = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("person", vec![cst("bob")]),
            atom("hasFather", vec![cst("alice"), Term::null(0)]),
            atom("hasFather", vec![cst("bob"), Term::null(1)]),
            atom("sameAs", vec![Term::null(0), Term::null(0)]),
            atom("sameAs", vec![Term::null(1), Term::null(1)]),
        ]);
        let chase = ntgd_chase::restricted_chase(&db, &p, &ntgd_chase::ChaseConfig::default());
        assert!(m.len() <= chase.instance.len());
        assert!(is_supported_by_operator(&db, &p, &m));
    }
}
