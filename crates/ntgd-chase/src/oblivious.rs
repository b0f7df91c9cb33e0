//! The oblivious (naive) chase.
//!
//! The oblivious chase applies *every* trigger exactly once, whether or not
//! its head is already satisfied.  It over-approximates the restricted chase
//! (its result is a superset up to homomorphic equivalence) and provides a
//! simple worst-case bound used in tests and benchmarks.

use std::collections::{HashSet, VecDeque};

use ntgd_core::{CompiledRuleSet, Database, NullFactory, Program, Term};

use crate::restricted::{ChaseConfig, ChaseOutcome, ChaseResult};
use crate::trigger::{apply_trigger, triggers_from_compiled};

/// Runs the oblivious chase of `database` with the positive part of `program`.
///
/// Each trigger — identified by its rule and the image of the rule's
/// universal variables — is applied at most once.  Like the restricted
/// chase, the worklist is extended semi-naively: after an application only
/// the triggers whose body uses a newly derived atom are discovered
/// ([`triggers_from_compiled`], over rule plans compiled once per run;
/// large rounds fan out over the persistent worker pool with a deterministic
/// merge, so the applied-trigger sequence is thread-count independent).
pub fn oblivious_chase(
    database: &Database,
    program: &Program,
    config: &ChaseConfig,
) -> ChaseResult {
    let positive = program.positive_part();
    let mut instance = database.to_interpretation();
    let plans = CompiledRuleSet::from_program(&positive, &instance);
    let mut nulls = NullFactory::new();
    let mut steps = 0usize;
    let mut applied: HashSet<(usize, Vec<(Term, Term)>)> = HashSet::new();
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
        if !applied.insert(trigger.key(&positive.rules()[trigger.rule_index])) {
            continue;
        }
        if config.max_steps.is_some_and(|max| steps >= max) {
            return ChaseResult {
                instance,
                steps,
                nulls_created: nulls.issued(),
                outcome: ChaseOutcome::StepLimitReached,
            };
        }
        let watermark = instance.len();
        apply_trigger(&trigger, &positive, &mut instance, &mut nulls);
        steps += 1;
        pending.extend(triggers_from_compiled(&plans, &instance, watermark));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::restricted_chase;
    use ntgd_parser::{parse_database, parse_program};

    #[test]
    fn oblivious_chase_applies_redundant_triggers() {
        let db = parse_database("person(alice). hasFather(alice, bob).").unwrap();
        let p = parse_program("person(X) -> hasFather(X, Y).").unwrap();
        let restricted = restricted_chase(&db, &p, &ChaseConfig::default());
        let oblivious = oblivious_chase(&db, &p, &ChaseConfig::default());
        // The restricted chase is satisfied with the existing father; the
        // oblivious chase still invents a fresh one.
        assert_eq!(restricted.nulls_created, 0);
        assert_eq!(oblivious.nulls_created, 1);
        assert_eq!(oblivious.instance.len(), 3);
        assert!(oblivious.terminated());
    }

    #[test]
    fn oblivious_chase_result_contains_restricted_chase_atom_count() {
        let db = parse_database("e(a,b). e(b,c).").unwrap();
        let p = parse_program("e(X,Y) -> n(X), n(Y). n(X) -> m(X, Z).").unwrap();
        let restricted = restricted_chase(&db, &p, &ChaseConfig::default());
        let oblivious = oblivious_chase(&db, &p, &ChaseConfig::default());
        assert!(oblivious.instance.len() >= restricted.instance.len());
        assert!(oblivious.terminated());
    }

    #[test]
    fn oblivious_chase_respects_step_limit() {
        let db = parse_database("person(adam).").unwrap();
        let p = parse_program("person(X) -> parent(X, Y), person(Y).").unwrap();
        let r = oblivious_chase(&db, &p, &ChaseConfig::with_max_steps(10));
        assert_eq!(r.outcome, ChaseOutcome::StepLimitReached);
    }

    #[test]
    fn triggers_are_not_reapplied() {
        // Without the `applied` memo the single rule would fire forever on a
        // datalog (null-free) program; with it, the chase terminates.
        let db = parse_database("e(a,b). e(b,a).").unwrap();
        let p = parse_program("e(X,Y) -> e(Y,X).").unwrap();
        let r = oblivious_chase(&db, &p, &ChaseConfig::default());
        assert!(r.terminated());
        assert_eq!(r.instance.len(), 2);
    }
}
