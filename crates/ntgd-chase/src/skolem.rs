//! The Skolem (a.k.a. semi-oblivious) chase.
//!
//! The Skolem chase is the chase variant that mirrors Skolemization: for each
//! rule `σ` and each binding of its *frontier* variables, the existential
//! variables of `σ` receive a fixed witness (here: memoised labelled nulls,
//! playing the role of the Skolem terms `f_{σ,Z}(frontier)`), and the
//! corresponding head atoms are added exactly once.  It sits strictly between
//! the restricted chase (which skips triggers whose head is already
//! satisfied) and the oblivious chase (which distinguishes triggers by the
//! full body binding):
//!
//! `restricted ⊆ skolem ⊆ oblivious`   (as sets of atoms, up to the choice of
//! null names).
//!
//! The Skolem chase is the operational counterpart of the LP approach of
//! Section 3.1: its result coincides (up to renaming the memoised nulls into
//! Skolem terms) with the least model of the Skolemised positive program, so
//! the tests of this module double as a sanity check of `ntgd-lp`'s
//! Skolemizer.

use std::collections::{HashMap, VecDeque};

use ntgd_core::{CompiledRuleSet, Database, NullFactory, Program, Term};

use crate::restricted::{ChaseConfig, ChaseOutcome, ChaseResult};
use crate::trigger::triggers_from_compiled;

/// Memo key of a Skolem witness: rule index plus frontier binding.
type WitnessKey = (usize, Vec<(Term, Term)>);

/// Runs the Skolem (semi-oblivious) chase of `database` with the positive
/// part of `program`.
///
/// Like the restricted and oblivious variants, the worklist is extended
/// semi-naively: after an application only the triggers whose body uses a
/// newly derived atom are discovered ([`triggers_from_compiled`], over rule
/// plans compiled once per run).  Large rounds fan out over the persistent
/// worker pool with a deterministic merge, so the memoised witnesses (and
/// hence the null names) are identical at every thread count.
pub fn skolem_chase(database: &Database, program: &Program, config: &ChaseConfig) -> ChaseResult {
    let positive = program.positive_part();
    let mut instance = database.to_interpretation();
    let plans = CompiledRuleSet::from_program(&positive, &instance);
    let mut nulls = NullFactory::new();
    let mut steps = 0usize;
    // (rule, frontier binding) → the memoised witnesses for the rule's
    // existential variables, in `existential_variables()` order.
    let mut witnesses: HashMap<WitnessKey, Vec<Term>> = HashMap::new();
    let mut pending: VecDeque<_> = triggers_from_compiled(&plans, &instance, 0).into();

    loop {
        let Some(trigger) = pending.pop_front() else {
            return ChaseResult {
                instance,
                steps,
                nulls_created: nulls.issued(),
                outcome: ChaseOutcome::Terminated,
            };
        };
        let rule = &positive.rules()[trigger.rule_index];
        let frontier_key: Vec<(Term, Term)> = rule
            .frontier_variables()
            .into_iter()
            .map(|v| {
                let t = Term::Var(v);
                (t, trigger.homomorphism.apply_term(&t))
            })
            .collect();
        let key = (trigger.rule_index, frontier_key);
        let existentials: Vec<_> = rule.existential_variables().into_iter().collect();
        let witness_terms = witnesses
            .entry(key)
            .or_insert_with(|| existentials.iter().map(|_| nulls.fresh()).collect())
            .clone();

        let mut homomorphism = trigger.homomorphism.clone();
        for (variable, witness) in existentials.iter().zip(witness_terms) {
            homomorphism.bind(Term::Var(*variable), witness);
        }
        let watermark = instance.len();
        let mut new_atom = false;
        for atom in rule.head() {
            if instance.insert(homomorphism.apply_atom(atom)) {
                new_atom = true;
            }
        }
        if new_atom {
            steps += 1;
            if config.max_steps.is_some_and(|max| steps >= max) {
                return ChaseResult {
                    instance,
                    steps,
                    nulls_created: nulls.issued(),
                    outcome: ChaseOutcome::StepLimitReached,
                };
            }
            pending.extend(triggers_from_compiled(&plans, &instance, watermark));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::oblivious_chase;
    use crate::restricted::restricted_chase;
    use ntgd_parser::{parse_database, parse_program, parse_query};

    #[test]
    fn positive_datalog_programs_reach_the_least_model() {
        let db = parse_database("edge(a, b). edge(b, c). edge(c, d).").unwrap();
        let p = parse_program("edge(X, Y), edge(Y, Z) -> edge(X, Z).").unwrap();
        let result = skolem_chase(&db, &p, &ChaseConfig::default());
        assert!(result.terminated());
        assert_eq!(result.nulls_created, 0);
        // 3 base edges + 3 derived (a-c, b-d, a-d).
        assert_eq!(result.instance.len(), 6);
    }

    #[test]
    fn witnesses_are_memoised_per_frontier_binding() {
        // The same person triggers the father rule through two different
        // bodies (two `knows` partners), but the frontier is only X, so a
        // single null is invented.
        let db = parse_database("knows(alice, bo). knows(alice, carol).").unwrap();
        let p = parse_program("knows(X, Y) -> hasFather(X, Z).").unwrap();
        let result = skolem_chase(&db, &p, &ChaseConfig::default());
        assert!(result.terminated());
        assert_eq!(result.nulls_created, 1);
        let q = parse_query("?- hasFather(alice, Z).").unwrap();
        assert!(q.holds(&result.instance));
    }

    #[test]
    fn skolem_chase_sits_between_restricted_and_oblivious() {
        let db = parse_database("person(alice). hasFather(alice, bob).").unwrap();
        let p = parse_program("person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y).")
            .unwrap();
        let config = ChaseConfig::default();
        let restricted = restricted_chase(&db, &p, &config);
        let skolem = skolem_chase(&db, &p, &config);
        let oblivious = oblivious_chase(&db, &p, &config);
        // The restricted chase reuses bob as the witness and adds nothing for
        // the first rule; the Skolem chase always invents its Skolem witness;
        // the oblivious chase here happens to coincide with the Skolem chase
        // because frontier and universal variables agree for both rules.
        assert!(restricted.instance.len() <= skolem.instance.len());
        assert!(skolem.instance.len() <= oblivious.instance.len());
        assert_eq!(restricted.nulls_created, 0);
        assert_eq!(skolem.nulls_created, 1);
    }

    #[test]
    fn the_skolem_chase_of_a_weakly_acyclic_program_terminates() {
        let db = parse_database("emp(ann). emp(bo). dept(hr).").unwrap();
        let p = parse_program("emp(X) -> worksIn(X, D). worksIn(X, D) -> unit(D).").unwrap();
        let result = skolem_chase(&db, &p, &ChaseConfig::default());
        assert!(result.terminated());
        assert_eq!(result.nulls_created, 2);
        let q = parse_query("?- worksIn(ann, D), unit(D).").unwrap();
        assert!(q.holds(&result.instance));
    }

    #[test]
    fn non_terminating_programs_hit_the_step_limit() {
        let db = parse_database("person(alice).").unwrap();
        let p = parse_program("person(X) -> parent(X, Y), person(Y).").unwrap();
        let result = skolem_chase(&db, &p, &ChaseConfig::with_max_steps(25));
        assert_eq!(result.outcome, ChaseOutcome::StepLimitReached);
        assert!(result.steps >= 25);
    }

    #[test]
    fn negative_literals_are_ignored() {
        let db = parse_database("p(a).").unwrap();
        let p = parse_program("p(X), not q(X) -> r(X).").unwrap();
        let result = skolem_chase(&db, &p, &ChaseConfig::default());
        assert!(result.terminated());
        let q = parse_query("?- r(a).").unwrap();
        assert!(q.holds(&result.instance));
    }
}
