//! # ntgd-sms
//!
//! The paper's primary contribution: the **new stable model semantics for
//! normal (disjunctive) tuple-generating dependencies**, defined via the
//! second-order formula `SM[D,Σ]` (Definition 1), together with query
//! answering under it (Section 3.4) and the guess-and-check algorithm of
//! Section 5.
//!
//! The pipeline is:
//!
//! 1. [`universe`] — fix a finite candidate domain: the active domain of the
//!    database, the constants of the program and query, plus a budget of
//!    labelled nulls derived from the restricted chase of `Σ⁺` (Lemma 8 /
//!    Proposition 9 justify a polynomial bound for weakly-acyclic programs);
//! 2. [`grounding`] — ground every rule over that domain.  A rule
//!    `∀X∀Y(ϕ → ∃Z ψ)` becomes ground implications whose heads are
//!    *disjunctions of conjunctions*, one disjunct per instantiation of `Z`
//!    (NDTGDs additionally get one group of disjuncts per head disjunct);
//!    the grounding is restricted to the *possibly-true* atoms, which is
//!    sound by Lemma 7;
//! 3. [`engine`] — enumerate classical models of the ground program with the
//!    CDCL SAT solver, subject each candidate to the **stability check** of
//!    Section 5.2 (a second SAT call — the `W-Stability` coNP oracle), and
//!    answer cautious/brave queries by searching for stable counter-models /
//!    witnesses;
//! 4. [`stability`] — the stability check itself, exposed also as a direct
//!    `is_stable_model` API so that hand-built interpretations (e.g.
//!    Example 4 of the paper) can be verified against Definition 1;
//! 5. [`consequence`] — the immediate consequence operator `T_{Σ,I}` of
//!    Section 5.1, used to validate Lemma 7 and Proposition 9 empirically.
//!
//! The conceptual difference from the LP approach is visible in this crate's
//! tests: `{person(alice), hasFather(alice,bob), sameAs(bob,bob)}` *is* a
//! stable model under `SM[D,Σ]` (Example 4), so `¬hasFather(alice,bob)` is
//! not entailed — whereas the LP baseline in `ntgd-lp` entails it.

pub mod consequence;
pub mod engine;
pub mod grounding;
pub mod incremental;
pub mod stability;
pub mod universe;

pub use consequence::{immediate_consequence_closure, is_supported_by_operator};
pub use engine::{SmsAnswer, SmsEngine, SmsError, SmsOptions, SmsStatistics};
pub use grounding::{
    ground_sms, AtomTable, GroundSmsProgram, GroundSmsRule, GroundingError, GroundingLimits,
};
pub use incremental::{IncrementalSmsState, SmsReuseStats};
pub use stability::{is_stable_model, AtomSet};
pub use universe::{build_domain, Domain, NullBudget};
