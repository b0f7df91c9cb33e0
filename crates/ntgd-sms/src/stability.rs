//! The stability check (paper, Section 5.2).
//!
//! A model `M` of `(D ∧ Σ)` is *stable* iff it satisfies
//! `¬∃s ((s < p) ∧ τ_{p▷s}(D) ∧ τ_{p▷s}(Σ))`: there must be **no** proper
//! subset `J ⊊ M⁺` with `D ⊆ J` that satisfies every rule when positive
//! literals are read over `J` and negative literals are read over `M`
//! (existential witnesses ranging over `dom(M)`).
//!
//! The check is coNP (`W-Stability` in the paper); we delegate the
//! complementary search for such a `J` to the CDCL SAT solver.
//!
//! Candidates and witnesses are [`AtomSet`]s: ascending atom ids plus a
//! membership mask over the grounding's atom table.  The per-grounding
//! lookups a check needs (which atoms are facts, which possibly-true atoms
//! mention a term) live in a [`GroundIndex`] that a CEGAR search builds once
//! and shares with all of its checks.

use std::collections::HashMap;
use std::ops::ControlFlow;

use ntgd_core::{
    parallel, CompiledDisjunctiveRuleSet, Database, DisjunctiveProgram, Interpretation, Program,
    Substitution, Term,
};
use ntgd_sat::{CnfBuilder, Lit, SolveResult};

use crate::grounding::{ground_sms, GroundSmsProgram, GroundingLimits};
use crate::universe::Domain;

/// Returns `true` if the interpretation is a classical model of the database
/// and the (disjunctive) program, in the homomorphism-based sense of the
/// paper.
///
/// Each rule's body and disjuncts are compiled once per call; every body
/// homomorphism then checks disjunct satisfaction through the cached plans
/// (the homomorphism is applied as slot presets, not recompiled).  On large
/// interpretations the per-rule checks — independent reads of the frozen
/// interpretation — run in parallel on the persistent worker pool.
pub fn is_classical_model(
    interpretation: &Interpretation,
    database: &Database,
    program: &DisjunctiveProgram,
) -> bool {
    if !database.facts().all(|f| interpretation.contains(f)) {
        return false;
    }
    let plans = CompiledDisjunctiveRuleSet::from_disjunctive(program, interpretation);
    let empty = Substitution::new();
    let rule_violated = |index: usize| -> bool {
        let rule_plans = plans.rule(index);
        let mut violated = false;
        rule_plans
            .body()
            .for_each(interpretation, &empty, &mut |binding| {
                let h = binding.to_substitution();
                let satisfied = rule_plans
                    .disjuncts()
                    .iter()
                    .any(|disjunct| disjunct.exists(interpretation, &h));
                if satisfied {
                    ControlFlow::Continue(())
                } else {
                    violated = true;
                    ControlFlow::Break(())
                }
            });
        violated
    };
    let threads = parallel::threads_for(interpretation.len());
    if threads <= 1 {
        // Inline path keeps the cross-rule early exit: stop at the first
        // violated rule instead of enumerating the remaining bodies.
        return !(0..plans.len()).any(rule_violated);
    }
    let rule_indices: Vec<usize> = (0..plans.len()).collect();
    let violations =
        parallel::par_map_with(&rule_indices, threads, |_, &index| rule_violated(index));
    !violations.into_iter().any(|violated| violated)
}

/// A set of ground atoms of one grounding: its ids in ascending order plus a
/// membership mask over the grounding's atom table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomSet {
    ids: Vec<usize>,
    mask: Vec<bool>,
}

impl AtomSet {
    /// The set of `ids` (ascending, distinct) over an atom table of
    /// `table_len` atoms.
    pub fn from_sorted(ids: Vec<usize>, table_len: usize) -> AtomSet {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        let mut mask = vec![false; table_len];
        for &id in &ids {
            mask[id] = true;
        }
        AtomSet { ids, mask }
    }

    /// Whether the atom `id` belongs to the set.
    pub fn contains(&self, id: usize) -> bool {
        self.mask[id]
    }

    /// The member ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }
}

/// Lookup tables over one grounding, built once per CEGAR search and shared
/// (read-only) by the generator encoding and every stability check.
#[derive(Clone, Debug)]
pub struct GroundIndex {
    /// The possibly-true atom ids, ascending.
    pub(crate) possibly_true: Vec<usize>,
    /// `is_fact[id]`: the atom is a database fact.
    pub(crate) is_fact: Vec<bool>,
    /// For each term, the possibly-true atoms it occurs in (ascending).
    term_atoms: HashMap<Term, Vec<usize>>,
}

impl GroundIndex {
    /// Indexes `ground`.
    pub fn new(ground: &GroundSmsProgram) -> GroundIndex {
        let mut is_fact = vec![false; ground.atoms.len()];
        for &f in &ground.facts {
            is_fact[f] = true;
        }
        let possibly_true: Vec<usize> = (0..ground.atoms.len())
            .filter(|&id| ground.possibly_true[id])
            .collect();
        let mut term_atoms: HashMap<Term, Vec<usize>> = HashMap::new();
        for &id in &possibly_true {
            for term in ground.atoms.atom(id).terms() {
                let atoms = term_atoms.entry(*term).or_default();
                if atoms.last() != Some(&id) {
                    atoms.push(id);
                }
            }
        }
        GroundIndex {
            possibly_true,
            is_fact,
            term_atoms,
        }
    }

    /// The possibly-true atoms `term` occurs in, ascending.
    pub(crate) fn atoms_with(&self, term: &Term) -> &[usize] {
        self.term_atoms.get(term).map_or(&[], Vec::as_slice)
    }
}

/// Checks stability of a candidate given an already-grounded program.
///
/// `candidate` is `M⁺`; it must be a subset of the possibly-true atoms of
/// the grounding.
pub fn is_stable_ground(ground: &GroundSmsProgram, candidate: &AtomSet) -> bool {
    find_instability_witness(ground, &GroundIndex::new(ground), candidate).is_none()
}

/// Searches for an *instability witness*: a proper subset `J ⊊ M⁺` containing
/// the database that satisfies every rule when negative literals are read
/// over `M` (the `∃s` of the stability subformula).  Returns `None` when the
/// candidate is stable.
///
/// `candidate` is `M⁺` (a subset of the possibly-true atoms) and `index` the
/// [`GroundIndex`] of `ground`.  SAT variables are created in ascending atom
/// id order and clauses are emitted in rule order, so concurrently running
/// checks — and reruns at different thread counts — build identical CNFs and
/// find identical witnesses.
pub fn find_instability_witness(
    ground: &GroundSmsProgram,
    index: &GroundIndex,
    candidate: &AtomSet,
) -> Option<AtomSet> {
    // (s < p) needs a non-database atom of M to drop.  If there is none,
    // M = D has no proper subset containing D, so M is stable (provided it
    // is a model, which callers check separately).
    if candidate.ids().iter().all(|&id| index.is_fact[id]) {
        return None;
    }
    let mut builder = CnfBuilder::new();
    let mut var_of: Vec<Option<Lit>> = vec![None; ground.atoms.len()];
    for &id in candidate.ids() {
        var_of[id] = Some(builder.new_var().positive());
    }
    let lit = |id: usize| var_of[id].expect("a candidate atom");
    // τ(D): the database is contained in J.
    for &f in &ground.facts {
        if let Some(l) = var_of[f] {
            builder.force(l);
        }
    }
    // (s < p): at least one non-database atom of M is missing from J.
    let strict: Vec<Lit> = candidate
        .ids()
        .iter()
        .filter(|&&id| !index.is_fact[id])
        .map(|&id| !lit(id))
        .collect();
    builder.clause(&strict);

    // τ(Σ): every rule instance that *fires with respect to M's negative
    // information* must be satisfied by J.
    let mut body: Vec<Lit> = Vec::new();
    for rule in &ground.rules {
        // The instance is relevant only if its positive body can lie in J ⊆ M.
        if !rule.body_pos.iter().all(|&id| candidate.contains(id)) {
            continue;
        }
        // Negative literals are evaluated over M (original predicates).
        if rule.body_neg.iter().any(|&id| candidate.contains(id)) {
            continue;
        }
        // Constants occurring only negatively must lie in dom(M).
        let in_dom_m = |t: &Term| index.atoms_with(t).iter().any(|&id| candidate.contains(id));
        if !rule.neg_domain_terms.iter().all(in_dom_m) {
            continue;
        }
        body.clear();
        body.extend(rule.body_pos.iter().map(|&id| lit(id)));
        // Existential witnesses range over dom(M): only disjuncts entirely
        // inside M can be used by J.
        let inside = rule
            .disjuncts
            .iter()
            .filter(|disjunct| disjunct.iter().all(|&id| candidate.contains(id)));
        builder.rule(
            &body,
            inside.map(|disjunct| disjunct.iter().map(|&id| lit(id))),
        );
    }

    // M is stable iff no such J exists.
    match builder.solve_unconstrained() {
        SolveResult::Sat(model) => {
            let witness: Vec<usize> = candidate
                .ids()
                .iter()
                .copied()
                .filter(|&id| model[lit(id).var().index()])
                .collect();
            Some(AtomSet::from_sorted(witness, ground.atoms.len()))
        }
        SolveResult::Unsat => None,
    }
}

/// Checks Definition 1 directly for an explicit interpretation: `I` is a
/// stable model of `(D, Σ)` iff it is a classical model of `D ∧ Σ` and
/// satisfies the stability condition.
///
/// The check grounds the program over `dom(I)` (plus the constants of `D` and
/// `Σ`), which is exact: both the minimality subformula and the model
/// relation only quantify over `dom(I)`.
pub fn is_stable_model(
    database: &Database,
    program: &Program,
    interpretation: &Interpretation,
) -> bool {
    is_stable_model_disjunctive(database, &program.to_disjunctive(), interpretation)
}

/// [`is_stable_model`] for disjunctive programs.
pub fn is_stable_model_disjunctive(
    database: &Database,
    program: &DisjunctiveProgram,
    interpretation: &Interpretation,
) -> bool {
    if !is_classical_model(interpretation, database, program) {
        return false;
    }
    // Ground over exactly dom(I) (every stable model is contained in the
    // possibly-true closure over its own domain; an interpretation with
    // unreachable atoms is rejected below).
    let domain = Domain::from_terms(interpretation.domain());
    let Ok(ground) = ground_sms(database, program, &domain, &GroundingLimits::default()) else {
        return false;
    };
    let mut candidate: Vec<usize> = Vec::new();
    for atom in interpretation.atoms() {
        match ground.atoms.id_of(atom) {
            Some(id) if ground.possibly_true[id] => candidate.push(id),
            // An atom that is not even possibly true (not derivable ignoring
            // negation) cannot belong to a stable model — dropping it yields a
            // smaller model of the reduct (Lemma 7).
            _ => return false,
        }
    }
    candidate.sort_unstable();
    is_stable_ground(
        &ground,
        &AtomSet::from_sorted(candidate, ground.atoms.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::{atom, cst, Term};
    use ntgd_parser::{parse_database, parse_program};

    /// Example 1's program.
    fn example1() -> (Database, Program) {
        (
            parse_database("person(alice).").unwrap(),
            parse_program(
                "person(X) -> hasFather(X, Y).\
                 hasFather(X, Y) -> sameAs(Y, Y).\
                 hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).",
            )
            .unwrap(),
        )
    }

    #[test]
    fn example4_the_bob_interpretation_is_a_stable_model() {
        // The paper's Example 4: I⁺ = {person(alice), hasFather(alice,bob),
        // sameAs(bob,bob)} is a stable model under the new semantics (but not
        // under the LP approach).
        let (db, p) = example1();
        let i = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
            atom("sameAs", vec![cst("bob"), cst("bob")]),
        ]);
        assert!(is_stable_model(&db, &p, &i));
    }

    #[test]
    fn the_null_witness_interpretation_is_also_stable() {
        let (db, p) = example1();
        let i = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), Term::null(0)]),
            atom("sameAs", vec![Term::null(0), Term::null(0)]),
        ]);
        assert!(is_stable_model(&db, &p, &i));
    }

    #[test]
    fn supersets_with_unsupported_atoms_are_not_stable() {
        let (db, p) = example1();
        // abnormal(alice) is not supported: the smaller model without it
        // satisfies the reduct.
        let i = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
            atom("sameAs", vec![cst("bob"), cst("bob")]),
            atom("abnormal", vec![cst("alice")]),
        ]);
        assert!(!is_stable_model(&db, &p, &i));
    }

    #[test]
    fn non_models_are_rejected() {
        let (db, p) = example1();
        // Missing the sameAs fact: not even a classical model.
        let i = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
        ]);
        assert!(!is_stable_model(&db, &p, &i));
        // Missing the database: rejected as well.
        let j = Interpretation::from_atoms(vec![atom("sameAs", vec![cst("bob"), cst("bob")])]);
        assert!(!is_stable_model(&db, &p, &j));
    }

    #[test]
    fn section_3_3_example_j_is_not_stable() {
        // D = {p(0)}, Σ = { p(X) ∧ ¬t(X) → r(X),  r(X) → t(X) }.
        // J = {p(0), t(0)} is a minimal model but NOT a stable model: the
        // content of t is fixed during the stability check, so {p(0)} ⊊ J
        // satisfies the transformed rules.
        let db = parse_database("p(0).").unwrap();
        let p = parse_program("p(X), not t(X) -> r(X). r(X) -> t(X).").unwrap();
        let j =
            Interpretation::from_atoms(vec![atom("p", vec![cst("0")]), atom("t", vec![cst("0")])]);
        assert!(is_classical_model(&j, &db, &p.to_disjunctive()));
        assert!(!is_stable_model(&db, &p, &j));
        // And indeed (D, Σ) has no stable model at all containing only these
        // atoms; the full candidate {p(0), r(0), t(0)} is not stable either.
        let k = Interpretation::from_atoms(vec![
            atom("p", vec![cst("0")]),
            atom("r", vec![cst("0")]),
            atom("t", vec![cst("0")]),
        ]);
        assert!(!is_stable_model(&db, &p, &k));
    }

    #[test]
    fn database_only_interpretations_are_stable_for_satisfied_programs() {
        let db = parse_database("p(a). q(a).").unwrap();
        let p = parse_program("p(X) -> q(X).").unwrap();
        let i = db.to_interpretation();
        assert!(is_stable_model(&db, &p, &i));
    }

    #[test]
    fn immediate_consequence_counterexample_from_section_5_1() {
        // D = {s(a)}, Σ = {s(X) → ∃Y p(X,Y)}: the interpretation with two
        // fathers {s(a), p(a,b), p(a,c)} reproduces itself under T but is NOT
        // stable (either single-father subset witnesses non-minimality).
        let db = parse_database("s(a).").unwrap();
        let p = parse_program("s(X) -> p(X, Y).").unwrap();
        let i = Interpretation::from_atoms(vec![
            atom("s", vec![cst("a")]),
            atom("p", vec![cst("a"), cst("b")]),
            atom("p", vec![cst("a"), cst("c")]),
        ]);
        assert!(!is_stable_model(&db, &p, &i));
        let single = Interpretation::from_atoms(vec![
            atom("s", vec![cst("a")]),
            atom("p", vec![cst("a"), cst("b")]),
        ]);
        assert!(is_stable_model(&db, &p, &single));
    }

    #[test]
    fn disjunctive_minimality_is_enforced() {
        // node(v) -> red(v) | green(v): taking both colours is not stable.
        let db = parse_database("node(v).").unwrap();
        let prog = ntgd_parser::parse_unit("node(X) -> red(X) | green(X).")
            .unwrap()
            .disjunctive_program()
            .unwrap();
        let both = Interpretation::from_atoms(vec![
            atom("node", vec![cst("v")]),
            atom("red", vec![cst("v")]),
            atom("green", vec![cst("v")]),
        ]);
        assert!(!is_stable_model_disjunctive(&db, &prog, &both));
        let red_only = Interpretation::from_atoms(vec![
            atom("node", vec![cst("v")]),
            atom("red", vec![cst("v")]),
        ]);
        assert!(is_stable_model_disjunctive(&db, &prog, &red_only));
    }
}
