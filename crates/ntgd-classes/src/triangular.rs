//! Triangular guardedness (Asuncion & Zhang, see PAPERS.md).
//!
//! Frontier-guardedness asks for a *single* positive body atom covering the
//! whole frontier.  Triangular guardedness relaxes the single-guard
//! requirement to a pairwise one: every pair of distinct frontier variables
//! must co-occur in *some* positive body atom (each pair may pick a different
//! atom).  The frontier is then "triangulated" by body atoms rather than
//! guarded by one, which still bounds how frontier bindings can be assembled
//! during the chase and keeps reasoning decidable for the fragment.
//!
//! Every frontier-guarded rule is trivially triangularly guarded (the one
//! guard atom witnesses every pair), so the class sits strictly above
//! frontier-guardedness in the landscape; the transitivity rule
//! `e(X, Y), e(Y, Z) -> e(X, Z).` separates the two from full generality —
//! its frontier `{X, Z}` never co-occurs in a body atom, so it is in neither.

use ntgd_core::{Ntgd, Program, Symbol, Term};

/// Returns `true` if the two variables occur together in some positive body
/// atom of the rule.
fn some_atom_covers_pair(rule: &Ntgd, a: Symbol, b: Symbol) -> bool {
    rule.body_positive()
        .iter()
        .any(|atom| atom.args().contains(&Term::Var(a)) && atom.args().contains(&Term::Var(b)))
}

/// Returns `true` if every pair of distinct frontier variables of the rule
/// co-occurs in some positive body atom.  Rules with at most one frontier
/// variable are vacuously triangularly guarded.
pub fn is_triangularly_guarded_rule(rule: &Ntgd) -> bool {
    let frontier: Vec<Symbol> = rule.frontier_variables().into_iter().collect();
    frontier.iter().enumerate().all(|(i, &a)| {
        frontier[i + 1..]
            .iter()
            .all(|&b| some_atom_covers_pair(rule, a, b))
    })
}

/// Returns `true` if every rule of the program is triangularly guarded.
pub fn is_triangularly_guarded(program: &Program) -> bool {
    program.rules().iter().all(is_triangularly_guarded_rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::is_frontier_guarded;
    use ntgd_parser::{parse_program, parse_rule};

    #[test]
    fn pairwise_covered_frontier_is_triangularly_guarded() {
        // Frontier {X, Y, Z}: no single atom covers all three, but every pair
        // has a witness atom — the separating member of the class.
        let rule = parse_rule("r(X, Y), s(Y, Z), t(X, Z) -> u(X, Y, Z).").unwrap();
        assert!(is_triangularly_guarded_rule(&rule));
        let program = parse_program("r(X, Y), s(Y, Z), t(X, Z) -> u(X, Y, Z).").unwrap();
        assert!(is_triangularly_guarded(&program));
        assert!(!is_frontier_guarded(&program));
    }

    #[test]
    fn transitivity_is_not_triangularly_guarded() {
        // The frontier {X, Z} never co-occurs in a body atom.
        let rule = parse_rule("e(X, Y), e(Y, Z) -> e(X, Z).").unwrap();
        assert!(!is_triangularly_guarded_rule(&rule));
        assert!(!is_triangularly_guarded(
            &parse_program("e(X, Y), e(Y, Z) -> e(X, Z).").unwrap()
        ));
    }

    #[test]
    fn frontier_guarded_rules_are_triangularly_guarded() {
        for text in [
            "person(X) -> hasFather(X, Y).",
            "r(X, Y), s(Y, Z) -> t(X, W).",
            "e(X, Y) -> n(X).",
            "hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).",
        ] {
            let rule = parse_rule(text).unwrap();
            assert!(
                is_triangularly_guarded_rule(&rule),
                "frontier-guarded rule must be triangularly guarded: {text}"
            );
        }
    }

    #[test]
    fn small_frontiers_are_vacuously_triangular() {
        // Zero or one frontier variable: no pair to cover.
        assert!(is_triangularly_guarded_rule(
            &parse_rule("p(X), q(Y) -> r(W).").unwrap()
        ));
        assert!(is_triangularly_guarded_rule(
            &parse_rule("t(X, Y, Z) -> s(X, W).").unwrap()
        ));
    }

    #[test]
    fn empty_program_is_triangularly_guarded() {
        assert!(is_triangularly_guarded(&Program::new()));
    }
}
