//! The SMS query-answering engine: candidate generation + stability checking
//! (the guess-and-check algorithm of Section 5.3, made practical with a SAT
//! back-end).

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

use ntgd_core::{
    obs, parallel, Atom, CompiledConjunction, Database, DisjunctiveProgram, Interpretation,
    Program, Query, Substitution, Term,
};
use ntgd_sat::{CnfBuilder, Lit, SolveResult};

use crate::grounding::{ground_sms, GroundSmsProgram, GroundingError, GroundingLimits};
use crate::stability::{find_instability_witness, AtomSet, GroundIndex};
use crate::universe::{build_domain, NullBudget};

/// One tick per CEGAR guess-and-check pass: how many candidate batches a
/// search burned before converging (or exhausting the space).
static SMS_CEGAR_ITERATIONS: obs::Counter = obs::Counter::new("sms.cegar_iterations");

/// Options controlling the engine.
#[derive(Clone, Debug)]
pub struct SmsOptions {
    /// How many fresh nulls to include in the candidate domain.
    pub null_budget: NullBudget,
    /// Grounding limits.
    pub grounding: GroundingLimits,
    /// Maximum number of stable models returned by [`SmsEngine::stable_models`].
    pub max_models: usize,
    /// Maximum number of candidate models examined by one CEGAR search before
    /// giving up with [`SmsError::CandidateLimit`].
    pub max_candidates: usize,
}

impl Default for SmsOptions {
    fn default() -> Self {
        SmsOptions {
            null_budget: NullBudget::Auto,
            grounding: GroundingLimits::default(),
            max_models: 4_096,
            max_candidates: 100_000,
        }
    }
}

/// Errors reported by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmsError {
    /// Grounding exceeded its limits.
    Grounding(GroundingError),
    /// The CEGAR loop examined too many unstable candidates.
    CandidateLimit,
}

impl std::fmt::Display for SmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmsError::Grounding(e) => write!(f, "{e}"),
            SmsError::CandidateLimit => {
                write!(f, "candidate limit exceeded during the stable-model search")
            }
        }
    }
}

impl std::error::Error for SmsError {}

impl From<GroundingError> for SmsError {
    fn from(e: GroundingError) -> Self {
        SmsError::Grounding(e)
    }
}

/// Cautious-entailment answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmsAnswer {
    /// The query holds in every stable model.
    Entailed,
    /// Some stable model refutes the query.
    NotEntailed,
    /// There is no stable model at all (hence everything is cautiously
    /// entailed, vacuously).
    Inconsistent,
}

/// Search statistics of the most interesting kind for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmsStatistics {
    /// Classical-model candidates generated.
    pub candidates: usize,
    /// Candidates that passed the stability check.
    pub stable: usize,
    /// Possibly-true ground atoms (SAT variables of the generator).
    pub ground_atoms: usize,
    /// Ground rule instances.
    pub ground_rules: usize,
}

/// How a query constrains the candidate search.
enum QueryMode<'a> {
    /// No query constraint.
    Unconstrained,
    /// Candidates must satisfy the query (brave witness search).
    MustSatisfy(&'a Query),
    /// Candidates must refute the query (cautious counter-model search).
    MustRefute(&'a Query),
}

impl<'a> QueryMode<'a> {
    fn query(&self) -> Option<&'a Query> {
        match self {
            QueryMode::Unconstrained => None,
            QueryMode::MustSatisfy(q) | QueryMode::MustRefute(q) => Some(q),
        }
    }
}

/// The stable-model-semantics engine for a fixed (disjunctive) program.
///
/// The program is held behind an [`Arc`], so cloning the engine — or
/// constructing one per query from a shared program, as the `ntgd-server`
/// session does — never deep-copies the rules.
#[derive(Clone, Debug)]
pub struct SmsEngine {
    program: Arc<DisjunctiveProgram>,
    options: SmsOptions,
}

impl SmsEngine {
    /// Creates an engine for a non-disjunctive program.  The engine only
    /// reads the program, so a borrow suffices; the disjunctive form it
    /// answers over is built here.
    pub fn new(program: &Program) -> SmsEngine {
        SmsEngine {
            program: Arc::new(program.to_disjunctive()),
            options: SmsOptions::default(),
        }
    }

    /// Creates an engine for a disjunctive program.
    pub fn new_disjunctive(program: DisjunctiveProgram) -> SmsEngine {
        SmsEngine::new_shared(Arc::new(program))
    }

    /// Creates an engine over an already-shared disjunctive program without
    /// cloning it (long-lived callers keep the `Arc` and mint engines per
    /// request).
    pub fn new_shared(program: Arc<DisjunctiveProgram>) -> SmsEngine {
        SmsEngine {
            program,
            options: SmsOptions::default(),
        }
    }

    /// Replaces the engine options.
    pub fn with_options(mut self, options: SmsOptions) -> SmsEngine {
        self.options = options;
        self
    }

    /// Sets the null budget.
    pub fn with_null_budget(mut self, budget: NullBudget) -> SmsEngine {
        self.options.null_budget = budget;
        self
    }

    /// The program this engine answers queries for.
    pub fn program(&self) -> &DisjunctiveProgram {
        &self.program
    }

    /// The options in effect.
    pub fn options(&self) -> &SmsOptions {
        &self.options
    }

    /// Grounds `(database, Σ)` over the candidate domain (which also covers
    /// the constants of `query`, if any), as every search of this engine
    /// does.
    pub fn ground(
        &self,
        database: &Database,
        query: Option<&Query>,
    ) -> Result<GroundSmsProgram, SmsError> {
        let domain = build_domain(database, &self.program, query, self.options.null_budget);
        Ok(ground_sms(
            database,
            &self.program,
            &domain,
            &self.options.grounding,
        )?)
    }

    /// Enumerates stable models of `(database, Σ)` (up to `max_models`).
    pub fn stable_models(&self, database: &Database) -> Result<Vec<Interpretation>, SmsError> {
        self.stable_models_with_statistics(database)
            .map(|(models, _)| models)
    }

    /// Like [`SmsEngine::stable_models`] but also returns search statistics.
    pub fn stable_models_with_statistics(
        &self,
        database: &Database,
    ) -> Result<(Vec<Interpretation>, SmsStatistics), SmsError> {
        let ground = self.ground(database, None)?;
        let (models, stats) =
            self.search_ground(&ground, QueryMode::Unconstrained, self.options.max_models)?;
        let models = models
            .iter()
            .map(|model| interpretation_of(&ground, model))
            .collect();
        Ok((models, stats))
    }

    /// Returns `true` if at least one stable model exists.
    pub fn has_stable_model(&self, database: &Database) -> Result<bool, SmsError> {
        self.exists(database, QueryMode::Unconstrained)
    }

    /// Cautious entailment of a Boolean query: `(D,Σ) ⊨_SMS q` iff every
    /// stable model satisfies `q` (Section 3.4).
    pub fn entails_cautious(
        &self,
        database: &Database,
        query: &Query,
    ) -> Result<SmsAnswer, SmsError> {
        if self.exists(database, QueryMode::MustRefute(query))? {
            return Ok(SmsAnswer::NotEntailed);
        }
        if self.has_stable_model(database)? {
            Ok(SmsAnswer::Entailed)
        } else {
            Ok(SmsAnswer::Inconsistent)
        }
    }

    /// Brave entailment of a Boolean query: some stable model satisfies `q`.
    pub fn entails_brave(&self, database: &Database, query: &Query) -> Result<bool, SmsError> {
        self.exists(database, QueryMode::MustSatisfy(query))
    }

    /// Certain answers of an n-ary query (intersection over all stable
    /// models); `None` if there is no stable model.
    pub fn certain_answers(
        &self,
        database: &Database,
        query: &Query,
    ) -> Result<Option<BTreeSet<Vec<Term>>>, SmsError> {
        let models = self.stable_models(database)?;
        let mut iter = models.iter();
        let Some(first) = iter.next() else {
            return Ok(None);
        };
        let mut acc = query.answers(first);
        for m in iter {
            let answers = query.answers(m);
            acc = acc.intersection(&answers).cloned().collect();
        }
        Ok(Some(acc))
    }

    /// Possible (brave) answers of an n-ary query (union over stable models).
    pub fn possible_answers(
        &self,
        database: &Database,
        query: &Query,
    ) -> Result<BTreeSet<Vec<Term>>, SmsError> {
        let models = self.stable_models(database)?;
        let mut acc = BTreeSet::new();
        for m in &models {
            acc.extend(query.answers(m));
        }
        Ok(acc)
    }

    /// Checks whether an explicit interpretation is a stable model
    /// (Definition 1), delegating to [`crate::stability`].
    pub fn is_stable_model(&self, database: &Database, interpretation: &Interpretation) -> bool {
        crate::stability::is_stable_model_disjunctive(database, &self.program, interpretation)
    }

    /// Enumerates stable models over an **externally built** grounding
    /// (e.g. the cached, incrementally advanced grounding of
    /// [`crate::incremental::IncrementalSmsState`], or [`SmsEngine::ground`]),
    /// up to `max_models`.  Each model is returned as the set of its ground
    /// atom ids in `ground.atoms`.
    ///
    /// The caller is responsible for the grounding matching this engine's
    /// program; the CEGAR search only reads it.
    pub fn stable_model_ids_over(
        &self,
        ground: &GroundSmsProgram,
        max_models: usize,
    ) -> Result<Vec<AtomSet>, SmsError> {
        self.search_ground(ground, QueryMode::Unconstrained, max_models)
            .map(|(models, _)| models)
    }

    /// Whether some stable model passes the query constraint of `mode`.
    fn exists(&self, database: &Database, mode: QueryMode<'_>) -> Result<bool, SmsError> {
        let ground = self.ground(database, mode.query())?;
        Ok(!self.search_ground(&ground, mode, 1)?.0.is_empty())
    }

    /// The core CEGAR search over a grounding: enumerate classical models
    /// (restricted by the query mode), keeping the stable ones.
    fn search_ground(
        &self,
        ground: &GroundSmsProgram,
        mode: QueryMode<'_>,
        max_models: usize,
    ) -> Result<(Vec<AtomSet>, SmsStatistics), SmsError> {
        let mut stats = SmsStatistics {
            ground_atoms: ground.possibly_true_count(),
            ground_rules: ground.rules.len(),
            ..Default::default()
        };

        if max_models == 0 {
            return Ok((Vec::new(), stats));
        }

        let index = GroundIndex::new(ground);
        let atom_count = ground.atoms.len();
        let mut builder = CnfBuilder::new();
        let mut var_of: Vec<Option<Lit>> = vec![None; atom_count];
        for &id in &index.possibly_true {
            var_of[id] = Some(builder.new_var().positive());
        }
        let lit = |id: usize| var_of[id].expect("a possibly-true atom");
        // "Term occurs in the domain of the candidate" literals, created on
        // first use.
        let mut in_dom_lits: HashMap<Term, Lit> = HashMap::new();
        let mut in_dom = |builder: &mut CnfBuilder, term: &Term| -> Lit {
            *in_dom_lits.entry(*term).or_insert_with(|| {
                let containing: Vec<Lit> =
                    index.atoms_with(term).iter().map(|&id| lit(id)).collect();
                builder.or_lit(&containing)
            })
        };

        // D ⊆ I.
        for &f in &ground.facts {
            builder.force(lit(f));
        }
        // I ⊨ Σ (grounded).
        let mut antecedent: Vec<Lit> = Vec::new();
        for rule in &ground.rules {
            antecedent.clear();
            antecedent.extend(rule.body_pos.iter().map(|&id| lit(id)));
            // A negated atom outside the possibly-true closure is always
            // false: the literal is satisfied, nothing to add.
            antecedent.extend(
                rule.body_neg
                    .iter()
                    .filter_map(|&id| var_of[id].map(|l| !l)),
            );
            let mut impossible = false;
            for t in &rule.neg_domain_terms {
                if t.is_constant() || t.is_null() {
                    antecedent.push(in_dom(&mut builder, t));
                } else {
                    impossible = true;
                }
            }
            if impossible {
                continue;
            }
            let disjuncts = rule.disjuncts.iter();
            builder.rule(
                &antecedent,
                disjuncts.map(|disjunct| disjunct.iter().map(|&id| lit(id))),
            );
        }
        // Query constraint.
        match &mode {
            QueryMode::Unconstrained => {}
            QueryMode::MustRefute(q) => {
                for instance in query_instances(q, ground) {
                    // Forbid this satisfying instantiation: some positive atom
                    // false, some negated atom true, or some negated-only term
                    // outside the domain.
                    let mut clause: Vec<Lit> = Vec::new();
                    let mut always_violated = false;
                    for &id in &instance.positive {
                        match var_of[id] {
                            Some(lit) => clause.push(!lit),
                            None => always_violated = true,
                        }
                    }
                    for &id in &instance.negative {
                        if let Some(lit) = var_of[id] {
                            clause.push(lit);
                        }
                    }
                    for t in &instance.domain_terms {
                        clause.push(!in_dom(&mut builder, t));
                    }
                    if !always_violated {
                        builder.clause(&clause);
                    }
                }
            }
            QueryMode::MustSatisfy(q) => {
                let mut witnesses: Vec<Lit> = Vec::new();
                for instance in query_instances(q, ground) {
                    let mut conj: Vec<Lit> = Vec::new();
                    let mut impossible = false;
                    for &id in &instance.positive {
                        match var_of[id] {
                            Some(lit) => conj.push(lit),
                            None => impossible = true,
                        }
                    }
                    for &id in &instance.negative {
                        if let Some(lit) = var_of[id] {
                            conj.push(!lit);
                        }
                    }
                    for t in &instance.domain_terms {
                        let lit = in_dom(&mut builder, t);
                        conj.push(lit);
                    }
                    if !impossible {
                        let w = builder.and_lit(&conj);
                        witnesses.push(w);
                    }
                }
                if witnesses.is_empty() {
                    // The query can never be satisfied over the closure.
                    return Ok((Vec::new(), stats));
                }
                builder.at_least_one(&witnesses);
            }
        }

        // CEGAR: enumerate classical models; keep the stable ones; refute the
        // unstable ones with a witness-based refinement (every model that the
        // same witness would refute is excluded in one step).
        //
        // Candidates are collected in small batches and their (independent,
        // read-only) stability checks run concurrently on the persistent
        // worker pool; the batch size is a constant — NOT the thread count — and
        // results are consumed in collection order, so the candidate
        // sequence, every refinement, and the returned model list are
        // bit-identical at every thread count.
        let mut models: Vec<AtomSet> = Vec::new();
        let mut exhausted = false;
        // Clause scratch, reused by every candidate and refinement.
        let (mut blocking, mut outside, mut blockers) = (Vec::new(), Vec::new(), Vec::new());
        'search: while !exhausted {
            SMS_CEGAR_ITERATIONS.incr();
            let _iteration = obs::span("sms.cegar_iteration");
            // Collect up to CANDIDATE_BATCH distinct classical models.  The
            // per-candidate blocking clause (the sequential loop's "safety
            // net") is added at collection time, which both guarantees
            // progress and makes the batch candidates distinct; witness
            // refinements are deferred to the processing pass below.
            let remaining = max_models - models.len();
            let batch_target = CANDIDATE_BATCH.min(remaining);
            let mut batch: Vec<AtomSet> = Vec::new();
            while batch.len() < batch_target {
                if stats.candidates >= self.options.max_candidates {
                    return Err(SmsError::CandidateLimit);
                }
                let SolveResult::Sat(assignment) = builder.solve_unconstrained() else {
                    exhausted = true;
                    break;
                };
                stats.candidates += 1;
                let mut candidate: Vec<usize> = Vec::new();
                blocking.clear();
                for &id in &index.possibly_true {
                    let l = lit(id);
                    if assignment[l.var().index()] {
                        candidate.push(id);
                        blocking.push(!l);
                    } else {
                        blocking.push(l);
                    }
                }
                builder.clause(&blocking);
                batch.push(AtomSet::from_sorted(candidate, atom_count));
            }
            if batch.is_empty() {
                break;
            }
            // The coNP stability checks of the batch, in parallel: each is a
            // self-contained SAT search over the shared read-only grounding.
            // The worker count is gated by the grounding size (tiny programs
            // check inline); the batch *composition* above is not, so the
            // candidate sequence never depends on the gate.
            let check_threads = parallel::threads_for(stats.ground_atoms);
            let witnesses = parallel::par_map_with(&batch, check_threads, |_, candidate| {
                find_instability_witness(ground, &index, candidate)
            });
            for (candidate, witness) in batch.into_iter().zip(witnesses) {
                match witness {
                    None => {
                        stats.stable += 1;
                        models.push(candidate);
                        if models.len() >= max_models {
                            // The collection blocking clause already excludes
                            // this model from future batches.
                            break 'search;
                        }
                    }
                    Some(witness) => {
                        // Refinement: any candidate M′ with witness ⊊ M′ in
                        // which every rule instance that the witness fails to
                        // satisfy is blocked (some negated atom true, or a
                        // negated-only term outside the domain) is refuted by
                        // the same witness, so it can be excluded wholesale.
                        let mut refinement: Vec<Lit> =
                            witness.ids().iter().map(|&id| lit(id)).collect();
                        outside.clear();
                        outside.extend(
                            index
                                .possibly_true
                                .iter()
                                .filter(|&&id| !witness.contains(id))
                                .map(|&id| lit(id)),
                        );
                        let proper = builder.or_lit(&outside);
                        refinement.push(proper);
                        let mut refinement_applicable = true;
                        for rule in &ground.rules {
                            if !rule.body_pos.iter().all(|&id| witness.contains(id)) {
                                continue;
                            }
                            let satisfied = rule
                                .disjuncts
                                .iter()
                                .any(|conj| conj.iter().all(|&id| witness.contains(id)));
                            if satisfied {
                                continue;
                            }
                            // The instance must be blocked in M′ for the
                            // witness to refute it.
                            blockers.clear();
                            blockers.extend(rule.body_neg.iter().filter_map(|&id| var_of[id]));
                            for t in &rule.neg_domain_terms {
                                blockers.push(!in_dom(&mut builder, t));
                            }
                            if blockers.is_empty() {
                                refinement_applicable = false;
                                break;
                            }
                            let blocked = builder.or_lit(&blockers);
                            refinement.push(blocked);
                        }
                        if refinement_applicable {
                            let refuted = builder.and_lit(&refinement);
                            builder.force(!refuted);
                        }
                        // The per-candidate blocking clause added at
                        // collection time already guarantees progress.
                    }
                }
            }
        }
        Ok((models, stats))
    }
}

/// A stable model found over `ground` as an interpretation.
fn interpretation_of(ground: &GroundSmsProgram, model: &AtomSet) -> Interpretation {
    let mut interpretation =
        Interpretation::from_atoms(model.ids().iter().map(|&id| ground.atoms.atom(id).clone()));
    // Candidates are interpretations over the *candidate universe*, not
    // merely over the terms of their true atoms: re-register the universe so
    // negative literals over domain elements that happen to carry no atom in
    // this model evaluate correctly on the returned interpretation.
    for t in ground.domain.terms() {
        interpretation.add_domain_element(*t);
    }
    interpretation
}

/// Number of classical-model candidates one CEGAR iteration collects before
/// running their stability checks concurrently.  Deliberately a constant
/// rather than the worker count: the candidate sequence (and with it every
/// refinement and the returned model order) must not depend on how many
/// threads happen to be available.
///
/// The batch is speculative: witness refinements land only after the whole
/// batch is collected, so up to `CANDIDATE_BATCH - 1` candidates that a
/// refinement would have pruned may still be collected (counted against
/// `max_candidates`) and checked.  That bounded redundancy buys the
/// concurrency of the coNP checks; the per-candidate blocking clauses keep
/// progress and termination identical to the sequential loop.
const CANDIDATE_BATCH: usize = 8;

/// A ground instantiation of a query: atom ids of its positive and negative
/// literals, plus the terms that occur only negatively (and therefore need an
/// explicit domain-membership condition).
struct QueryInstance {
    positive: Vec<usize>,
    negative: Vec<usize>,
    domain_terms: Vec<Term>,
}

/// Enumerates the ground instantiations of a query whose positive literals
/// lie in the possibly-true closure.
fn query_instances(query: &Query, ground: &GroundSmsProgram) -> Vec<QueryInstance> {
    let positive_atoms: Vec<Atom> = query
        .literals()
        .iter()
        .filter(|l| l.is_positive())
        .map(|l| l.atom().clone())
        .collect();
    let negative_atoms: Vec<Atom> = query
        .literals()
        .iter()
        .filter(|l| l.is_negative())
        .map(|l| l.atom().clone())
        .collect();
    // One compiled plan per query evaluation; instantiations are read off
    // the borrowed slot binding without materialising substitutions.
    let plan = CompiledConjunction::compile_atoms(&positive_atoms, &ground.closure);
    let mut out = Vec::new();
    plan.for_each(&ground.closure, &Substitution::new(), &mut |binding| {
        let mut pos_ids = Vec::new();
        let mut pos_terms: BTreeSet<Term> = BTreeSet::new();
        let mut valid = true;
        for a in &positive_atoms {
            let g = binding.apply_atom(a);
            pos_terms.extend(g.terms().copied());
            match ground.atoms.id_of(&g) {
                Some(id) => pos_ids.push(id),
                None => {
                    valid = false;
                    break;
                }
            }
        }
        if !valid {
            return ControlFlow::Continue(());
        }
        let mut neg_ids = Vec::new();
        let mut domain_terms: BTreeSet<Term> = BTreeSet::new();
        for a in &negative_atoms {
            let g = binding.apply_atom(a);
            debug_assert!(g.is_ground(), "queries are safe");
            for t in g.terms() {
                if !pos_terms.contains(t) {
                    domain_terms.insert(*t);
                }
            }
            // The negated atom may or may not be in the closure; if it is not,
            // it can never be true, but its identifier may also be absent —
            // skip it in that case (the literal is then trivially false-atom).
            if let Some(id) = ground.atoms.id_of(&g) {
                neg_ids.push(id);
            }
        }
        out.push(QueryInstance {
            positive: pos_ids,
            negative: neg_ids,
            domain_terms: domain_terms.into_iter().collect(),
        });
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::cst;
    use ntgd_parser::{parse_database, parse_program, parse_query, parse_unit};

    const EXAMPLE1_RULES: &str = "person(X) -> hasFather(X, Y).\
         hasFather(X, Y) -> sameAs(Y, Y).\
         hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).";

    fn engine(rules: &str) -> SmsEngine {
        SmsEngine::new(&parse_program(rules).unwrap())
    }

    #[test]
    fn example1_positive_queries_behave_as_in_the_paper() {
        let db = parse_database("person(alice).").unwrap();
        let e = engine(EXAMPLE1_RULES);
        let q_normal = parse_query("?- person(X), not abnormal(X).").unwrap();
        assert_eq!(
            e.entails_cautious(&db, &q_normal).unwrap(),
            SmsAnswer::Entailed
        );
        let q_abnormal = parse_query("?- person(X), abnormal(X).").unwrap();
        assert_eq!(
            e.entails_cautious(&db, &q_abnormal).unwrap(),
            SmsAnswer::NotEntailed
        );
        assert!(!e.entails_brave(&db, &q_abnormal).unwrap());
    }

    #[test]
    fn example2_and_4_the_new_semantics_does_not_entail_the_negative_query() {
        // The heart of the paper: ¬hasFather(alice, bob) is NOT entailed
        // under the new semantics, because the interpretation of Example 4
        // (bob as the father) is a stable model.
        let db = parse_database("person(alice).").unwrap();
        let e = engine(EXAMPLE1_RULES);
        let q = parse_query("?- not hasFather(alice, bob).").unwrap();
        assert_eq!(e.entails_cautious(&db, &q).unwrap(), SmsAnswer::NotEntailed);
        // Under the paper's literal-in-I semantics, a *negative* literal only
        // holds in I when its terms belong to dom(I).  No stable model of this
        // program mentions bob without making him the father, so the query is
        // not even bravely entailed.
        assert!(!e.entails_brave(&db, &q).unwrap());
        // By contrast, ¬hasFather(alice, alice) is bravely entailed: the
        // stable model whose witness is the invented null mentions alice but
        // not hasFather(alice, alice).
        let q2 = parse_query("?- not hasFather(alice, alice).").unwrap();
        assert!(e.entails_brave(&db, &q2).unwrap());
    }

    #[test]
    fn example3_alice_is_never_abnormal() {
        // Under the new semantics ¬abnormal(alice) IS entailed (contrast with
        // the EFWFS discussion in Example 3).
        let db = parse_database("person(alice).").unwrap();
        let e = engine(EXAMPLE1_RULES);
        let q = parse_query("?- not abnormal(alice).").unwrap();
        assert_eq!(e.entails_cautious(&db, &q).unwrap(), SmsAnswer::Entailed);
    }

    #[test]
    fn stable_models_of_example1_include_constant_and_null_witnesses() {
        let db = parse_database("person(alice).").unwrap();
        let e = engine(EXAMPLE1_RULES);
        let models = e.stable_models(&db).unwrap();
        // Domain = {alice, _n0}; the father can be alice, or the null.
        assert_eq!(models.len(), 2);
        for m in &models {
            assert!(m.contains(&ntgd_core::atom("person", vec![cst("alice")])));
            assert!(!m.atoms().any(|a| a.predicate().as_str() == "abnormal"));
        }
    }

    #[test]
    fn programs_without_stable_models_are_reported_inconsistent() {
        let db = parse_database("p(0).").unwrap();
        let e = engine("p(X), not t(X) -> r(X). r(X) -> t(X).");
        assert!(!e.has_stable_model(&db).unwrap());
        let q = parse_query("?- r(0).").unwrap();
        assert_eq!(
            e.entails_cautious(&db, &q).unwrap(),
            SmsAnswer::Inconsistent
        );
    }

    #[test]
    fn even_loop_has_two_stable_models_and_brave_cautious_differ() {
        let db = parse_database("seed(x).").unwrap();
        let e = engine("seed(X), not b -> a. seed(X), not a -> b.");
        let models = e.stable_models(&db).unwrap();
        assert_eq!(models.len(), 2);
        let qa = parse_query("?- a.").unwrap();
        assert_eq!(
            e.entails_cautious(&db, &qa).unwrap(),
            SmsAnswer::NotEntailed
        );
        assert!(e.entails_brave(&db, &qa).unwrap());
    }

    #[test]
    fn certain_and_possible_answers() {
        let db = parse_database("person(alice). person(bob). rich(bob).").unwrap();
        let e = engine("person(X), not rich(X) -> modest(X).");
        let q = parse_query("?(X) :- modest(X).").unwrap();
        let certain = e.certain_answers(&db, &q).unwrap().unwrap();
        assert_eq!(certain, BTreeSet::from([vec![cst("alice")]]));
        assert_eq!(e.possible_answers(&db, &q).unwrap().len(), 1);
    }

    #[test]
    fn returned_models_preserve_the_candidate_universe() {
        // Regression test: the CEGAR loop used to rebuild stable models with
        // `Interpretation::from_atoms`, which dropped the candidate
        // universe's extra domain elements — a negative literal over a
        // domain element carrying no atom in the model was then wrongly
        // rejected by `satisfies_negation_of`.
        use ntgd_core::atom;
        let db = parse_database("p(a).").unwrap();
        let e = engine("p(X) -> r(X, Y).").with_null_budget(NullBudget::Exact(1));
        let models = e.stable_models(&db).unwrap();
        // The witness Y ranges over the universe {a, _n0}: two models.
        assert_eq!(models.len(), 2);
        let constant_witness = models
            .iter()
            .find(|m| m.contains(&atom("r", vec![cst("a"), cst("a")])))
            .expect("the model reusing the database constant exists");
        // Its domain strictly exceeds the terms of its atoms: the budget
        // null carries no atom here but belongs to the candidate universe…
        assert!(constant_witness.in_domain(&Term::Null(0)));
        // …so the negative literal ¬r(a, _n0) belongs to the model.
        assert!(
            constant_witness.satisfies_negation_of(&atom("r", vec![cst("a"), Term::Null(0)])),
            "negative literals over atom-free universe elements must hold"
        );
        // Preserving the universe keeps the model a stable model under the
        // direct Definition-1 check (which grounds over dom(I)).
        assert!(e.is_stable_model(&db, constant_witness));
    }

    #[test]
    fn existential_witnesses_may_reuse_database_constants() {
        // p(a), q(b).   p(X) -> r(X, Y).
        // Stable models can pick Y ∈ {a, b, null}: three stable models.
        let db = parse_database("p(a). q(b).").unwrap();
        let e = engine("p(X) -> r(X, Y).");
        let models = e.stable_models(&db).unwrap();
        assert_eq!(models.len(), 3);
    }

    #[test]
    fn disjunctive_programs_are_answered_directly() {
        let db = parse_database("node(v). node(w).").unwrap();
        let prog = parse_unit("node(X) -> red(X) | green(X).")
            .unwrap()
            .disjunctive_program()
            .unwrap();
        let e = SmsEngine::new_disjunctive(prog);
        let models = e.stable_models(&db).unwrap();
        // Each node independently red or green: 4 stable models.
        assert_eq!(models.len(), 4);
        let q = parse_query("?- red(v), green(v).").unwrap();
        assert!(!e.entails_brave(&db, &q).unwrap());
    }

    #[test]
    fn statistics_are_reported() {
        let db = parse_database("person(alice).").unwrap();
        let e = engine(EXAMPLE1_RULES);
        let (models, stats) = e.stable_models_with_statistics(&db).unwrap();
        assert_eq!(models.len(), stats.stable);
        assert!(stats.candidates >= stats.stable);
        assert!(stats.ground_atoms > 0);
        assert!(stats.ground_rules > 0);
    }

    #[test]
    fn theorem1_lp_and_sms_coincide_on_existential_free_programs() {
        // Theorem 1: on Skolemized (here: existential-free) programs the LP
        // approach and the new approach have the same stable models.
        let cases = [
            ("seed(x).", "seed(X), not b -> a. seed(X), not a -> b."),
            ("p(a). p(b). q(a).", "p(X), not q(X) -> r(X)."),
            ("p(0).", "p(X), not t(X) -> r(X). r(X) -> t(X)."),
            (
                "e(a,b). e(b,c).",
                "e(X,Y), e(Y,Z) -> e(X,Z). e(X,Y), not e(Y,X) -> oneway(X,Y).",
            ),
        ];
        for (db_text, rules) in cases {
            let db = parse_database(db_text).unwrap();
            let program = parse_program(rules).unwrap();
            let sms = SmsEngine::new(&program).with_null_budget(NullBudget::None);
            let mut sms_models: Vec<Vec<Atom>> = sms
                .stable_models(&db)
                .unwrap()
                .iter()
                .map(Interpretation::sorted_atoms)
                .collect();
            sms_models.sort();
            let lp = ntgd_lp::LpEngine::new(&db, &program, &ntgd_lp::LpLimits::default()).unwrap();
            let mut lp_models: Vec<Vec<Atom>> = lp
                .models()
                .iter()
                .map(Interpretation::sorted_atoms)
                .collect();
            lp_models.sort();
            assert_eq!(sms_models, lp_models, "mismatch for {rules}");
        }
    }
}
