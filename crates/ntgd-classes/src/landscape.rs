//! One-stop classification of a program against every class implemented in
//! this crate.
//!
//! The paper studies three decidability paradigms (weak-acyclicity, stickiness
//! and guardedness); this crate additionally implements the finer fragments
//! and acyclicity notions that the surrounding literature [2, 4, 7] uses.
//! [`classify`] runs every checker once and returns a [`ClassReport`], which
//! the experiments binary prints as a table and which tests use to verify the
//! known containments between classes.

use std::fmt;

use ntgd_core::Program;

use crate::fragments::{
    is_frontier_guarded, is_frontier_one, is_full, is_linear, is_weakly_frontier_guarded,
    is_weakly_guarded,
};
use crate::guardedness::is_guarded;
use crate::joint_acyclicity::is_jointly_acyclic;
use crate::mfa::is_model_faithful_acyclic;
use crate::rule_dependencies::is_agrd;
use crate::stickiness::is_sticky;
use crate::stratification::is_stratified;
use crate::triangular::is_triangularly_guarded;
use crate::weak_acyclicity::is_weakly_acyclic;

/// The membership of a program in every syntactic class implemented by this
/// crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassReport {
    /// Weak-acyclicity (the paper's `WATGD¬`).
    pub weakly_acyclic: bool,
    /// Joint acyclicity (Krötzsch & Rudolph).
    pub jointly_acyclic: bool,
    /// Model-faithful acyclicity (critical-instance Skolem chase).
    pub model_faithful_acyclic: bool,
    /// Acyclic graph of rule dependencies.
    pub agrd: bool,
    /// Stickiness (the paper's `STGD¬`).
    pub sticky: bool,
    /// Guardedness (the paper's `GTGD¬`).
    pub guarded: bool,
    /// Weak guardedness (guards only need to cover harmful variables).
    pub weakly_guarded: bool,
    /// Frontier-guardedness.
    pub frontier_guarded: bool,
    /// Weak frontier-guardedness.
    pub weakly_frontier_guarded: bool,
    /// Linearity (at most one positive body atom per rule).
    pub linear: bool,
    /// Frontier-1 (at most one frontier variable per rule).
    pub frontier_one: bool,
    /// Fullness (no existentially quantified variables).
    pub full: bool,
    /// Stratification of the negation (predicate dependency graph has no
    /// cycle through a negative edge).
    pub stratified: bool,
    /// Triangular guardedness (Asuncion & Zhang): every pair of frontier
    /// variables co-occurs in some positive body atom.
    pub triangularly_guarded: bool,
}

/// The coarse decidability verdict a [`ClassReport`] supports: what the class
/// membership guarantees about chase termination and reasoning.  A pure
/// function of the program text, so services can expose it in deterministic
/// transcripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassVerdict {
    /// Some membership guarantees the (restricted) chase terminates on every
    /// database: the chase may run without a step budget.
    Terminating,
    /// No termination guarantee, but some membership keeps reasoning
    /// decidable (guardedness/stickiness-style fragments).
    Decidable,
    /// The program sits in none of the implemented fragments: budgets stay on
    /// and callers deserve a warning.
    OutOfFragment,
}

impl ClassVerdict {
    /// The verdict as a stable lowercase label (used in STATS lines, obs
    /// counter names and log events).
    pub fn label(&self) -> &'static str {
        match self {
            ClassVerdict::Terminating => "terminating",
            ClassVerdict::Decidable => "decidable",
            ClassVerdict::OutOfFragment => "out-of-fragment",
        }
    }
}

impl fmt::Display for ClassVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl ClassReport {
    /// The classes the program belongs to, as short lowercase names.
    pub fn member_classes(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (name, member) in self.entries() {
            if member {
                out.push(name);
            }
        }
        out
    }

    /// `(class name, membership)` pairs in a fixed order.
    pub fn entries(&self) -> [(&'static str, bool); 14] {
        [
            ("weakly-acyclic", self.weakly_acyclic),
            ("jointly-acyclic", self.jointly_acyclic),
            ("mfa", self.model_faithful_acyclic),
            ("agrd", self.agrd),
            ("sticky", self.sticky),
            ("guarded", self.guarded),
            ("weakly-guarded", self.weakly_guarded),
            ("frontier-guarded", self.frontier_guarded),
            ("weakly-frontier-guarded", self.weakly_frontier_guarded),
            ("triangularly-guarded", self.triangularly_guarded),
            ("linear", self.linear),
            ("frontier-1", self.frontier_one),
            ("full", self.full),
            ("stratified", self.stratified),
        ]
    }

    /// Returns `true` if some membership guarantees that the (restricted)
    /// chase terminates on every database, so it may run without a step
    /// budget: the acyclicity notions, plus fullness (no existential ever
    /// fires, so the chase is plain Datalog saturation).
    pub fn chase_terminating(&self) -> bool {
        self.weakly_acyclic
            || self.jointly_acyclic
            || self.model_faithful_acyclic
            || self.agrd
            || self.full
    }

    /// Returns `true` if some membership keeps reasoning decidable even
    /// though the chase may not terminate (the guardedness/stickiness
    /// paradigms and their refinements).
    pub fn decidable(&self) -> bool {
        self.chase_terminating()
            || self.sticky
            || self.guarded
            || self.weakly_guarded
            || self.frontier_guarded
            || self.weakly_frontier_guarded
            || self.triangularly_guarded
            || self.linear
            || self.frontier_one
    }

    /// The coarse decidability verdict this report supports.
    pub fn verdict(&self) -> ClassVerdict {
        if self.chase_terminating() {
            ClassVerdict::Terminating
        } else if self.decidable() {
            ClassVerdict::Decidable
        } else {
            ClassVerdict::OutOfFragment
        }
    }

    /// Checks the containments that hold between the implemented classes;
    /// returns the name of the first violated containment, if any.  Useful in
    /// tests and as a sanity check in the experiments binary.
    pub fn violated_containment(&self) -> Option<&'static str> {
        let containments: [(&'static str, bool, bool); 8] = [
            (
                "weakly-acyclic ⊆ jointly-acyclic",
                self.weakly_acyclic,
                self.jointly_acyclic,
            ),
            (
                "jointly-acyclic ⊆ mfa",
                self.jointly_acyclic,
                self.model_faithful_acyclic,
            ),
            ("linear ⊆ guarded", self.linear, self.guarded),
            (
                "guarded ⊆ weakly-guarded",
                self.guarded,
                self.weakly_guarded,
            ),
            (
                "guarded ⊆ frontier-guarded",
                self.guarded,
                self.frontier_guarded,
            ),
            (
                "frontier-guarded ⊆ weakly-frontier-guarded",
                self.frontier_guarded,
                self.weakly_frontier_guarded,
            ),
            (
                "weakly-guarded ⊆ weakly-frontier-guarded",
                self.weakly_guarded,
                self.weakly_frontier_guarded,
            ),
            (
                "frontier-guarded ⊆ triangularly-guarded",
                self.frontier_guarded,
                self.triangularly_guarded,
            ),
        ];
        containments
            .into_iter()
            .find(|(_, sub, sup)| *sub && !*sup)
            .map(|(name, _, _)| name)
    }
}

impl fmt::Display for ClassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let members = self.member_classes();
        if members.is_empty() {
            write!(f, "(no class)")
        } else {
            write!(f, "{}", members.join(", "))
        }
    }
}

/// Runs every class checker of this crate on the program.
pub fn classify(program: &Program) -> ClassReport {
    ClassReport {
        weakly_acyclic: is_weakly_acyclic(program),
        jointly_acyclic: is_jointly_acyclic(program),
        model_faithful_acyclic: is_model_faithful_acyclic(program),
        agrd: is_agrd(program),
        sticky: is_sticky(program),
        guarded: is_guarded(program),
        weakly_guarded: is_weakly_guarded(program),
        frontier_guarded: is_frontier_guarded(program),
        weakly_frontier_guarded: is_weakly_frontier_guarded(program),
        linear: is_linear(program),
        frontier_one: is_frontier_one(program),
        full: is_full(program),
        stratified: is_stratified(program),
        triangularly_guarded: is_triangularly_guarded(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_parser::parse_program;

    const EXAMPLE1: &str = "person(X) -> hasFather(X, Y).\
         hasFather(X, Y) -> sameAs(Y, Y).\
         hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).";

    #[test]
    fn example1_classification_matches_the_paper() {
        let report = classify(&parse_program(EXAMPLE1).unwrap());
        assert!(report.weakly_acyclic);
        assert!(!report.guarded);
        assert!(!report.sticky);
        assert!(!report.full);
        assert!(report.stratified);
        assert_eq!(report.violated_containment(), None);
    }

    #[test]
    fn containments_hold_on_a_sample_of_programs() {
        let samples = [
            EXAMPLE1,
            "p(X) -> q(X, Y). q(X, Y) -> r(Y).",
            "e(X, Y), e(Y, Z) -> e(X, Z).",
            "person(X) -> parent(X, Y), person(Y).",
            "p(X), not q(X) -> r(X). r(X) -> q(X).",
            "t(X, Y, Z) -> s(Y, W). r(X, Y), p(Y, Z) -> t(X, Y, W).",
            "p(X) -> q(X, Y). q(X, Y), s(X) -> q(Z, X).",
            "node(X) -> colour(X, C). colour(X, C), colour(Y, C), edge(X, Y) -> clash.",
        ];
        for text in samples {
            let report = classify(&parse_program(text).unwrap());
            assert_eq!(
                report.violated_containment(),
                None,
                "containment violated for {text}: {report}"
            );
        }
    }

    #[test]
    fn linear_programs_are_guarded() {
        let report = classify(&parse_program("p(X) -> q(X, Y). q(X, Y) -> r(X).").unwrap());
        assert!(report.linear);
        assert!(report.guarded);
        assert!(report.frontier_guarded);
    }

    #[test]
    fn full_non_recursive_programs_sit_in_almost_every_class() {
        let report = classify(&parse_program("p(X) -> q(X). q(X), not r(X) -> s(X).").unwrap());
        assert!(report.full);
        assert!(report.weakly_acyclic);
        assert!(report.jointly_acyclic);
        assert!(report.model_faithful_acyclic);
        assert!(report.agrd);
        assert!(report.guarded);
        assert!(report.stratified);
        assert!(report.member_classes().len() >= 10);
    }

    #[test]
    fn verdicts_follow_the_membership_guarantees() {
        // Weakly acyclic: the chase terminates, no budget needed.
        let terminating = classify(&parse_program(EXAMPLE1).unwrap());
        assert_eq!(terminating.verdict(), ClassVerdict::Terminating);
        assert!(terminating.chase_terminating());

        // Guarded but with a non-terminating chase: decidable only.
        let decidable = classify(&parse_program("person(X) -> parent(X, Y), person(Y).").unwrap());
        assert!(!decidable.chase_terminating());
        assert!(decidable.decidable());
        assert_eq!(decidable.verdict(), ClassVerdict::Decidable);

        // Triangularly guarded alone (with a head cycle defeating the
        // acyclicity notions) still counts as decidable.
        let triangular = classify(
            &parse_program("r(X, Y), s(Y, Z), t(X, Z) -> u(X, Y, Z), r(Y, W), s(W, X).").unwrap(),
        );
        assert!(triangular.triangularly_guarded);
        assert!(!triangular.frontier_guarded);

        // Out of fragment: existential recursion with an unguardable join.
        let out =
            classify(&parse_program("e(X, Y), e(Y, Z) -> e(X, Z). e(X, Y) -> e(Y, W).").unwrap());
        assert_eq!(out.verdict(), ClassVerdict::OutOfFragment);
        assert_eq!(out.verdict().label(), "out-of-fragment");
        assert_eq!(ClassVerdict::Terminating.label(), "terminating");
        assert_eq!(ClassVerdict::Decidable.to_string(), "decidable");
    }

    #[test]
    fn display_lists_member_classes() {
        let report = classify(&parse_program("p(X) -> q(X).").unwrap());
        let text = format!("{report}");
        assert!(text.contains("weakly-acyclic"));
        assert!(text.contains("guarded"));
    }
}
