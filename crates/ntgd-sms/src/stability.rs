//! The stability check (paper, Section 5.2).
//!
//! A model `M` of `(D ∧ Σ)` is *stable* iff it satisfies
//! `¬∃s ((s < p) ∧ τ_{p▷s}(D) ∧ τ_{p▷s}(Σ))`: there must be **no** proper
//! subset `J ⊊ M⁺` with `D ⊆ J` that satisfies every rule when positive
//! literals are read over `J` and negative literals are read over `M`
//! (existential witnesses ranging over `dom(M)`).
//!
//! The check is coNP (`W-Stability` in the paper); we delegate the
//! complementary search for such a `J` to the CDCL SAT solver.  When the
//! reduct of `M` is Horn (every rule instance that constrains `J` has at most
//! one disjunct inside `M`), its least model often proves stability in
//! linear time first, and the SAT call is skipped.
//!
//! Candidates and witnesses are [`AtomSet`]s: ascending atom ids plus a
//! membership mask over the grounding's atom table.  The per-grounding
//! lookups a check needs (which atoms are facts, which possibly-true atoms
//! mention a term) live in a [`GroundIndex`] that a CEGAR search builds once
//! and shares with all of its checks.

use std::collections::HashMap;
use std::ops::ControlFlow;

use ntgd_core::{
    obs, parallel, CompiledDisjunctiveRuleSet, Database, DisjunctiveProgram, Interpretation,
    Program, Substitution, Term,
};
use ntgd_sat::{CnfBuilder, Lit, SolveResult};

use crate::grounding::{ground_sms, GroundSmsProgram, GroundSmsRule, GroundingLimits};
use crate::universe::Domain;

/// One tick per stability check of a candidate.
static SMS_STABILITY_CHECKS: obs::Counter = obs::Counter::new("sms.stability_checks");
/// One tick per stability check the least-model pass decided without a SAT
/// call.
static SMS_STABILITY_LEAST_MODEL: obs::Counter = obs::Counter::new("sms.stability_least_model");

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
/// [`GroundIndex`] of `ground`.  The rule instances that constrain `J` are
/// collected once.  When every one of them has at most one disjunct inside
/// `M`, the reduct is Horn and a linear least-model pass decides the check
/// whenever it proves stability; otherwise the SAT search runs.  SAT
/// variables are created in ascending atom id order and clauses are emitted
/// in rule order, so concurrently running checks — and reruns at different
/// thread counts — build identical CNFs and find identical witnesses.
pub fn find_instability_witness(
    ground: &GroundSmsProgram,
    index: &GroundIndex,
    candidate: &AtomSet,
) -> Option<AtomSet> {
    SMS_STABILITY_CHECKS.incr();
    let relevant = relevant_instances(ground, index, candidate);
    if least_model(ground, candidate, &relevant).proves_stable() {
        SMS_STABILITY_LEAST_MODEL.incr();
        return None;
    }
    sat_instability_witness(ground, index, candidate, &relevant)
}

/// The rule instances that constrain `J ⊆ M` (in rule order): those that
/// *fire with respect to M's negative information*.
fn relevant_instances<'g>(
    ground: &'g GroundSmsProgram,
    index: &GroundIndex,
    candidate: &AtomSet,
) -> Vec<&'g GroundSmsRule> {
    // Constants occurring only negatively must lie in dom(M).
    let in_dom_m = |t: &Term| index.atoms_with(t).iter().any(|&id| candidate.contains(id));
    ground
        .rules
        .iter()
        .filter(|rule| {
            // The instance is relevant only if its positive body can lie in
            // J ⊆ M, and negative literals are evaluated over M (original
            // predicates).
            rule.body_pos.iter().all(|&id| candidate.contains(id))
                && !rule.body_neg.iter().any(|&id| candidate.contains(id))
                && rule.neg_domain_terms.iter().all(in_dom_m)
        })
        .collect()
}

/// The disjuncts of `rule` that lie entirely inside `M`: existential
/// witnesses range over dom(M), so only these can be used by `J`.
fn inside<'r>(
    rule: &'r GroundSmsRule,
    candidate: &'r AtomSet,
) -> impl Iterator<Item = &'r Vec<usize>> + 'r {
    rule.disjuncts
        .iter()
        .filter(|disjunct| disjunct.iter().all(|&id| candidate.contains(id)))
}

/// What the least-model pass learned about a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LeastModel {
    /// The reduct is Horn and its least model is `M⁺`: every `J` that
    /// satisfies it is `M⁺` itself, so `M` is stable.
    EqualsCandidate,
    /// The reduct is Horn and its least model fires an instance with no
    /// disjunct inside `M`: no `J` satisfies it at all, so `M` is stable.
    ViolatesConstraint,
    /// The reduct is Horn and its least model is a proper subset of `M⁺`:
    /// `M` is unstable, and the SAT search picks the witness.
    ProperSubset,
    /// Some relevant instance has two or more disjuncts inside `M`.
    NotHorn,
}

impl LeastModel {
    fn proves_stable(self) -> bool {
        matches!(
            self,
            LeastModel::EqualsCandidate | LeastModel::ViolatesConstraint
        )
    }
}

/// Computes the least model of `D ∩ M` under the relevant instances, read
/// as Horn rules, by counter-based unit propagation (linear in their size).
fn least_model(
    ground: &GroundSmsProgram,
    candidate: &AtomSet,
    relevant: &[&GroundSmsRule],
) -> LeastModel {
    // Each instance's head in the reduct: its one disjunct inside M, or
    // `None` for an instance that can only be violated.
    let mut heads: Vec<Option<&[usize]>> = Vec::with_capacity(relevant.len());
    for rule in relevant {
        let mut disjuncts = inside(rule, candidate);
        let head = disjuncts.next();
        if disjuncts.next().is_some() {
            return LeastModel::NotHorn;
        }
        heads.push(head.map(Vec::as_slice));
    }
    // Watch lists in one flat array: `watchers[start[id]..start[id + 1]]`
    // are the instances whose positive body mentions atom `id`, once per
    // occurrence.
    let atom_count = ground.atoms.len();
    let mut start = vec![0usize; atom_count + 1];
    for rule in relevant {
        for &id in &rule.body_pos {
            start[id + 1] += 1;
        }
    }
    for id in 0..atom_count {
        start[id + 1] += start[id];
    }
    let mut watchers = vec![0usize; start[atom_count]];
    let mut fill = start.clone();
    for (instance, rule) in relevant.iter().enumerate() {
        for &id in &rule.body_pos {
            watchers[fill[id]] = instance;
            fill[id] += 1;
        }
    }
    let mut missing: Vec<usize> = relevant.iter().map(|rule| rule.body_pos.len()).collect();
    let mut ready: Vec<usize> = (0..relevant.len())
        .filter(|&instance| missing[instance] == 0)
        .collect();
    let mut derived = vec![false; atom_count];
    let mut derived_count = 0;
    let mut queue: Vec<usize> = Vec::new();
    let mut derive = |id: usize, queue: &mut Vec<usize>| {
        if !derived[id] {
            derived[id] = true;
            derived_count += 1;
            queue.push(id);
        }
    };
    for &f in &ground.facts {
        if candidate.contains(f) {
            derive(f, &mut queue);
        }
    }
    loop {
        while let Some(instance) = ready.pop() {
            let Some(head) = heads[instance] else {
                return LeastModel::ViolatesConstraint;
            };
            for &id in head {
                derive(id, &mut queue);
            }
        }
        let Some(id) = queue.pop() else {
            break;
        };
        for &instance in &watchers[start[id]..start[id + 1]] {
            missing[instance] -= 1;
            if missing[instance] == 0 {
                ready.push(instance);
            }
        }
    }
    if derived_count == candidate.ids().len() {
        LeastModel::EqualsCandidate
    } else {
        LeastModel::ProperSubset
    }
}

/// The SAT search for an instability witness over the `relevant`
/// instances, which [`find_instability_witness`] falls back to when the
/// least-model pass cannot decide.
fn sat_instability_witness(
    ground: &GroundSmsProgram,
    index: &GroundIndex,
    candidate: &AtomSet,
    relevant: &[&GroundSmsRule],
) -> Option<AtomSet> {
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
    // (s < p): at least one non-database atom of M is missing from J.  The
    // clause is empty when M ⊆ D: no proper subset of M contains D.
    let strict: Vec<Lit> = candidate
        .ids()
        .iter()
        .filter(|&&id| !index.is_fact[id])
        .map(|&id| !lit(id))
        .collect();
    builder.clause(&strict);

    // τ(Σ): every relevant rule instance must be satisfied by J.
    let mut body: Vec<Lit> = Vec::new();
    for rule in relevant {
        body.clear();
        body.extend(rule.body_pos.iter().map(|&id| lit(id)));
        builder.rule(
            &body,
            inside(rule, candidate).map(|disjunct| disjunct.iter().map(|&id| lit(id))),
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
    use crate::grounding::AtomTable;
    use crate::universe::build_domain;
    use ntgd_core::{atom, cst, Atom, Term};
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

    /// Deterministic xorshift64* generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    /// A random ground program over atoms `p0(c0), p1(c1), p2(c2), p3(c0), …`:
    /// facts, negation (on possibly-true atoms and on the last atom, which is
    /// not possibly true), negated-only terms (`c3` occurs in no atom),
    /// zero-disjunct instances and multi-atom disjuncts.
    fn random_ground(rng: &mut Rng) -> GroundSmsProgram {
        let n = 4 + rng.below(6);
        let mut atoms = AtomTable::new();
        for i in 0..n {
            atoms.intern(atom(&format!("p{i}"), vec![cst(&format!("c{}", i % 3))]));
        }
        let mut possibly_true = vec![true; n];
        possibly_true[n - 1] = false;
        let true_atom = |rng: &mut Rng| rng.below(n - 1);
        let mut facts: Vec<usize> = (0..1 + rng.below(2)).map(|_| true_atom(rng)).collect();
        facts.sort_unstable();
        facts.dedup();
        let rules = (0..2 + rng.below(7))
            .map(|source_rule| {
                let body_pos = (0..rng.below(3)).map(|_| true_atom(rng)).collect();
                let body_neg = (0..rng.below(2)).map(|_| rng.below(n)).collect();
                let neg_domain_terms = if rng.chance(20) {
                    vec![cst(&format!("c{}", rng.below(4)))]
                } else {
                    Vec::new()
                };
                let disjuncts = (0..rng.below(4))
                    .map(|_| (0..1 + rng.below(2)).map(|_| true_atom(rng)).collect())
                    .collect();
                GroundSmsRule {
                    body_pos,
                    body_neg,
                    neg_domain_terms,
                    disjuncts,
                    source_rule,
                }
            })
            .collect();
        GroundSmsProgram {
            atoms,
            possibly_true,
            facts,
            rules,
            domain: Domain::from_terms((0..4).map(|c| cst(&format!("c{c}")))),
            closure: Interpretation::new(),
        }
    }

    /// The least-model verdict and both answers for one candidate.
    fn both_checks(
        ground: &GroundSmsProgram,
        candidate: &AtomSet,
    ) -> (LeastModel, Option<AtomSet>, Option<AtomSet>) {
        let index = GroundIndex::new(ground);
        let relevant = relevant_instances(ground, &index, candidate);
        (
            least_model(ground, candidate, &relevant),
            find_instability_witness(ground, &index, candidate),
            sat_instability_witness(ground, &index, candidate, &relevant),
        )
    }

    #[test]
    fn the_least_model_pass_agrees_with_sat_on_random_groundings() {
        let mut rng = Rng(0x5eed_57ab);
        let mut verdicts: HashMap<String, usize> = HashMap::new();
        for _ in 0..3_000 {
            let ground = random_ground(&mut rng);
            let n = ground.atoms.len();
            for _ in 0..6 {
                let members: Vec<usize> = (0..n - 1)
                    .filter(|&id| {
                        let percent = if ground.facts.contains(&id) { 90 } else { 50 };
                        rng.chance(percent)
                    })
                    .collect();
                let candidate = AtomSet::from_sorted(members, n);
                let (verdict, witness, sat) = both_checks(&ground, &candidate);
                assert_eq!(witness, sat, "{ground:?} with candidate {candidate:?}");
                if verdict.proves_stable() {
                    assert_eq!(sat, None, "{ground:?} with candidate {candidate:?}");
                }
                *verdicts.entry(format!("{verdict:?}")).or_default() += 1;
            }
        }
        // Every branch of the pass was exercised.
        assert_eq!(verdicts.len(), 4, "{verdicts:?}");
    }

    /// Grounds `database` and `rules` and checks the candidate `atoms`: the
    /// least-model verdict, and the answer both checks agree on.
    fn check(database: &str, rules: &str, atoms: &[Atom]) -> (LeastModel, Option<AtomSet>) {
        let db = parse_database(database).unwrap();
        let program = ntgd_parser::parse_unit(rules)
            .unwrap()
            .disjunctive_program()
            .unwrap();
        let domain = build_domain(&db, &program, None, crate::NullBudget::None);
        let ground = ground_sms(&db, &program, &domain, &GroundingLimits::default()).unwrap();
        let mut ids: Vec<usize> = atoms
            .iter()
            .map(|a| ground.atoms.id_of(a).expect("a ground atom"))
            .collect();
        ids.sort_unstable();
        let candidate = AtomSet::from_sorted(ids, ground.atoms.len());
        let (verdict, witness, sat) = both_checks(&ground, &candidate);
        assert_eq!(witness, sat);
        (verdict, witness)
    }

    #[test]
    fn a_least_model_equal_to_the_candidate_proves_stability() {
        let (verdict, witness) = check(
            "p(a).",
            "p(X) -> q(X). q(X), not r(X) -> s(X).",
            &[
                atom("p", vec![cst("a")]),
                atom("q", vec![cst("a")]),
                atom("s", vec![cst("a")]),
            ],
        );
        assert_eq!(verdict, LeastModel::EqualsCandidate);
        assert_eq!(witness, None);
    }

    #[test]
    fn a_firing_constraint_proves_stability() {
        // r(a) is left out of the candidate, so the instance p(a) -> r(a)
        // has no disjunct inside it: no J ⊆ M satisfies it.
        let (verdict, witness) = check(
            "p(a).",
            "p(X) -> q(X). p(X) -> r(X).",
            &[atom("p", vec![cst("a")]), atom("q", vec![cst("a")])],
        );
        assert_eq!(verdict, LeastModel::ViolatesConstraint);
        assert_eq!(witness, None);
    }

    #[test]
    fn a_smaller_least_model_falls_back_to_sat() {
        // Section 3.3's J = {p(0), t(0)}: t(0) blocks the first rule and r(0)
        // is false, so nothing derives t(0).
        let (verdict, witness) = check(
            "p(0).",
            "p(X), not t(X) -> r(X). r(X) -> t(X).",
            &[atom("p", vec![cst("0")]), atom("t", vec![cst("0")])],
        );
        assert_eq!(verdict, LeastModel::ProperSubset);
        assert!(witness.is_some());
    }

    #[test]
    fn a_disjunctive_reduct_falls_back_to_sat() {
        let (verdict, witness) = check(
            "node(v).",
            "node(X) -> red(X) | green(X).",
            &[
                atom("node", vec![cst("v")]),
                atom("red", vec![cst("v")]),
                atom("green", vec![cst("v")]),
            ],
        );
        assert_eq!(verdict, LeastModel::NotHorn);
        assert!(witness.is_some());
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
