//! End-to-end query answering under the LP approach.

use std::collections::BTreeSet;

use ntgd_core::{CoreError, Database, Interpretation, Program, Query, Term};

use crate::ground::{ground_program, GroundingLimits, GroundingOutcome};
use crate::program::GroundProgram;
use crate::skolem::skolemize;
use crate::stable::{stable_models, StableEnumerationLimits};
use crate::wellfounded::{well_founded_model, WellFoundedModel};

/// Combined limits for the LP pipeline.
#[derive(Clone, Debug, Default)]
pub struct LpLimits {
    /// Limits for grounding.
    pub grounding: GroundingLimits,
    /// Limits for stable model enumeration.
    pub enumeration: StableEnumerationLimits,
}

/// Errors reported by the LP engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The relevant grounding was truncated; answers would be unreliable.
    GroundingIncomplete,
    /// Too many choice atoms for exhaustive stable-model enumeration.
    TooManyChoices(usize),
    /// A core validation error.
    Core(CoreError),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::GroundingIncomplete => {
                write!(f, "the relevant grounding exceeded the configured limits")
            }
            LpError::TooManyChoices(n) => write!(
                f,
                "stable-model enumeration would need to branch over {n} atoms"
            ),
            LpError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LpError {}

/// The answer of the LP engine to a Boolean query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpAnswer {
    /// Entailed by every stable model (cautious yes).
    Entailed,
    /// Not entailed (some stable model refutes it).
    NotEntailed,
    /// There is no stable model at all (everything is cautiously entailed).
    Inconsistent,
}

/// The LP-approach engine: Skolemize, ground, enumerate stable models, answer
/// queries.
pub struct LpEngine {
    ground: GroundProgram,
    models: Vec<Interpretation>,
    extra_domain: BTreeSet<Term>,
}

impl LpEngine {
    /// Builds the engine for a database and a program, computing all stable
    /// models eagerly.
    pub fn new(
        database: &Database,
        program: &Program,
        limits: &LpLimits,
    ) -> Result<LpEngine, LpError> {
        let skolem = skolemize(program);
        let (ground, outcome) = ground_program(database, &skolem, &limits.grounding);
        if outcome == GroundingOutcome::LimitReached {
            return Err(LpError::GroundingIncomplete);
        }
        let raw_models =
            stable_models(&ground, &limits.enumeration).map_err(LpError::TooManyChoices)?;
        // Negative query literals are evaluated against the Herbrand
        // universe, so register every ground term of the grounding plus the
        // database and program constants as domain elements of every model.
        let mut extra_domain: BTreeSet<Term> = ground.herbrand_terms();
        extra_domain.extend(database.domain());
        extra_domain.extend(program.constants());
        let models = raw_models
            .into_iter()
            .map(|atoms| {
                let mut i = Interpretation::from_atoms(atoms);
                for t in &extra_domain {
                    i.add_domain_element(*t);
                }
                i
            })
            .collect();
        Ok(LpEngine {
            ground,
            models,
            extra_domain,
        })
    }

    /// The relevant ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.ground
    }

    /// The stable models (as interpretations whose domain is the relevant
    /// Herbrand universe).
    pub fn models(&self) -> &[Interpretation] {
        &self.models
    }

    /// Returns `true` if at least one stable model exists.
    pub fn is_consistent(&self) -> bool {
        !self.models.is_empty()
    }

    /// The well-founded model of the ground program.
    pub fn well_founded(&self) -> WellFoundedModel {
        well_founded_model(&self.ground)
    }

    fn with_query_domain(&self, model: &Interpretation, query: &Query) -> Interpretation {
        let mut m = model.clone();
        for lit in query.literals() {
            for t in lit.atom().terms() {
                if t.is_constant() {
                    m.add_domain_element(*t);
                }
            }
        }
        m
    }

    /// Cautious entailment of a Boolean query: true in **every** stable model.
    pub fn entails_cautious(&self, query: &Query) -> LpAnswer {
        if self.models.is_empty() {
            return LpAnswer::Inconsistent;
        }
        if self
            .models
            .iter()
            .all(|m| query.holds(&self.with_query_domain(m, query)))
        {
            LpAnswer::Entailed
        } else {
            LpAnswer::NotEntailed
        }
    }

    /// Brave entailment of a Boolean query: true in **some** stable model.
    pub fn entails_brave(&self, query: &Query) -> bool {
        self.models
            .iter()
            .any(|m| query.holds(&self.with_query_domain(m, query)))
    }

    /// Certain answers of an n-ary query (intersection over all stable
    /// models); empty when inconsistent-with-no-models would make everything
    /// certain, the full signature cannot be enumerated, so this returns the
    /// intersection over the (non-empty) set of models and `None` when there
    /// is no model.
    pub fn certain_answers(&self, query: &Query) -> Option<BTreeSet<Vec<Term>>> {
        let mut iter = self.models.iter();
        let first = iter.next()?;
        let mut acc = query.answers(&self.with_query_domain(first, query));
        for m in iter {
            let answers = query.answers(&self.with_query_domain(m, query));
            acc = acc.intersection(&answers).cloned().collect();
        }
        Some(acc)
    }

    /// Possible (brave) answers of an n-ary query (union over stable models).
    pub fn possible_answers(&self, query: &Query) -> BTreeSet<Vec<Term>> {
        let mut acc = BTreeSet::new();
        for m in &self.models {
            acc.extend(query.answers(&self.with_query_domain(m, query)));
        }
        acc
    }

    /// The ground terms of the relevant Herbrand universe.
    pub fn herbrand_terms(&self) -> &BTreeSet<Term> {
        &self.extra_domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_parser::{parse_database, parse_program, parse_query};

    fn engine(db: &str, rules: &str) -> LpEngine {
        LpEngine::new(
            &parse_database(db).unwrap(),
            &parse_program(rules).unwrap(),
            &LpLimits::default(),
        )
        .unwrap()
    }

    const EXAMPLE1_RULES: &str = "person(X) -> hasFather(X, Y).\
         hasFather(X, Y) -> sameAs(Y, Y).\
         hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).";

    #[test]
    fn example1_queries_match_the_paper() {
        let e = engine("person(alice).", EXAMPLE1_RULES);
        assert!(e.is_consistent());
        assert_eq!(e.models().len(), 1);
        // ∃X person(X) ∧ ¬abnormal(X) is entailed.
        let q1 = parse_query("?- person(X), not abnormal(X).").unwrap();
        assert_eq!(e.entails_cautious(&q1), LpAnswer::Entailed);
        // ∃X person(X) ∧ abnormal(X) is refuted.
        let q2 = parse_query("?- person(X), abnormal(X).").unwrap();
        assert_eq!(e.entails_cautious(&q2), LpAnswer::NotEntailed);
        assert!(!e.entails_brave(&q2));
    }

    #[test]
    fn example2_lp_approach_entails_the_unintended_negative_query() {
        // The crux of the paper: under the LP approach,
        // ¬hasFather(alice, bob) is certain, because the Skolem witness is a
        // distinct object.  (The paper's new semantics will disagree.)
        let e = engine("person(alice).", EXAMPLE1_RULES);
        let q = parse_query("?- not hasFather(alice, bob).").unwrap();
        assert_eq!(e.entails_cautious(&q), LpAnswer::Entailed);
    }

    #[test]
    fn even_loop_cautious_and_brave_differ() {
        let e = engine("seed(x).", "seed(X), not b -> a. seed(X), not a -> b.");
        assert_eq!(e.models().len(), 2);
        let qa = parse_query("?- a.").unwrap();
        assert_eq!(e.entails_cautious(&qa), LpAnswer::NotEntailed);
        assert!(e.entails_brave(&qa));
    }

    #[test]
    fn inconsistent_programs_are_reported() {
        let e = engine("p(0).", "p(X), not t(X) -> r(X). r(X) -> t(X).");
        assert!(!e.is_consistent());
        let q = parse_query("?- r(0).").unwrap();
        assert_eq!(e.entails_cautious(&q), LpAnswer::Inconsistent);
        assert!(e.certain_answers(&q).is_none());
    }

    #[test]
    fn certain_and_possible_answers() {
        let e = engine(
            "person(alice). person(bob). rich(bob).",
            "person(X), not rich(X) -> modest(X).",
        );
        let q = parse_query("?(X) :- modest(X).").unwrap();
        let certain = e.certain_answers(&q).unwrap();
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&vec![ntgd_core::cst("alice")]));
        assert_eq!(e.possible_answers(&q).len(), 1);
    }

    #[test]
    fn grounding_limit_surfaces_as_an_error() {
        let result = LpEngine::new(
            &parse_database("person(adam).").unwrap(),
            &parse_program("person(X) -> parent(X, Y), person(Y).").unwrap(),
            &LpLimits {
                grounding: GroundingLimits {
                    max_atoms: 20,
                    max_rules: 100,
                },
                ..Default::default()
            },
        );
        assert_eq!(result.err(), Some(LpError::GroundingIncomplete));
    }

    #[test]
    fn well_founded_model_is_available() {
        let e = engine("seed(x).", "seed(X), not b -> a. seed(X), not a -> b.");
        let wfm = e.well_founded();
        assert!(!wfm.is_total());
        assert_eq!(wfm.undefined_atoms.len(), 2);
    }
}
