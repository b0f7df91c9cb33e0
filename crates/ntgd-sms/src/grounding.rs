//! Grounding of `SM[D,Σ]` over a finite candidate domain.
//!
//! Every rule `∀X∀Y(ϕ(X,Y) → ⋁ᵢ ∃Zᵢ ψᵢ(X,Zᵢ))` is instantiated over the
//! candidate domain: the universal variables range over the domain (restricted
//! to instantiations whose positive body lies in the *possibly-true* closure —
//! sound by Lemma 7), and each head disjunct is expanded into one
//! conjunction per assignment of its existential variables to domain
//! elements.  The result is a set of ground implications
//!
//! ```text
//! body⁺ ∧ ¬body⁻ ∧ (negated constants are in the domain)  →  ⋁ (conjunctions)
//! ```
//!
//! which is exactly the propositional shape consumed by the SAT-based
//! generator and by the stability check.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use ntgd_core::{
    parallel, Atom, CompiledDisjunctiveRuleSet, Database, DisjunctiveProgram, Interpretation,
    Substitution, Term,
};

use crate::universe::Domain;

/// A dense table of ground atoms.
#[derive(Clone, Debug, Default)]
pub struct AtomTable {
    atoms: Vec<Atom>,
    index: HashMap<Atom, usize>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> AtomTable {
        AtomTable::default()
    }

    /// Interns an atom, returning its identifier.
    pub fn intern(&mut self, atom: Atom) -> usize {
        if let Some(&id) = self.index.get(&atom) {
            return id;
        }
        let id = self.atoms.len();
        self.index.insert(atom.clone(), id);
        self.atoms.push(atom);
        id
    }

    /// Identifier of an atom, if already interned.
    pub fn id_of(&self, atom: &Atom) -> Option<usize> {
        self.index.get(atom).copied()
    }

    /// The atom with the given identifier.
    pub fn atom(&self, id: usize) -> &Atom {
        &self.atoms[id]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over `(id, atom)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Atom)> + '_ {
        self.atoms.iter().enumerate()
    }

    /// Rolls the table back to its first `len` atoms, dropping the interned
    /// atoms (and their identifiers) with `id >= len`.
    ///
    /// Identifiers are dense and assigned in interning order, so — exactly
    /// like [`Interpretation::truncate`] — the atoms of an epoch occupy a
    /// suffix of the table and rollback costs `O(atoms removed)`.  Surviving
    /// identifiers are untouched.  A no-op if `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        while self.atoms.len() > len {
            let atom = self.atoms.pop().expect("table is non-empty");
            self.index.remove(&atom);
        }
    }
}

/// A ground SMS rule: implication with a disjunction-of-conjunctions head.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroundSmsRule {
    /// Positive body atom ids.
    pub body_pos: Vec<usize>,
    /// Negated body atom ids.
    pub body_neg: Vec<usize>,
    /// Ground terms occurring in the negated body but not in the positive
    /// body instance: the rule instance only "fires" if these are in the
    /// domain of the candidate interpretation (paper semantics of negative
    /// literals over total interpretations).
    pub neg_domain_terms: Vec<Term>,
    /// Head disjuncts, each a conjunction of atom ids.
    pub disjuncts: Vec<Vec<usize>>,
    /// The index of the originating rule in the input program.
    pub source_rule: usize,
}

/// Errors raised during grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundingError {
    /// The possibly-true closure or the rule instantiation exceeded the
    /// configured limits.
    TooLarge {
        /// Number of atoms produced so far.
        atoms: usize,
        /// Number of ground rules produced so far.
        rules: usize,
    },
}

impl std::fmt::Display for GroundingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundingError::TooLarge { atoms, rules } => write!(
                f,
                "grounding exceeded the configured limits ({atoms} atoms, {rules} rules)"
            ),
        }
    }
}

impl std::error::Error for GroundingError {}

/// Limits for the grounding step.
#[derive(Clone, Copy, Debug)]
pub struct GroundingLimits {
    /// Maximum number of possibly-true atoms.
    pub max_atoms: usize,
    /// Maximum number of ground rule instances.
    pub max_rules: usize,
}

impl Default for GroundingLimits {
    fn default() -> Self {
        GroundingLimits {
            max_atoms: 200_000,
            max_rules: 500_000,
        }
    }
}

/// The grounded `SM[D,Σ]` program.
#[derive(Clone, Debug)]
pub struct GroundSmsProgram {
    /// Table of all ground atoms referenced by the grounding.
    pub atoms: AtomTable,
    /// `possibly_true[id]` — whether the atom can occur in a stable model
    /// (atoms outside the closure are always false).
    pub possibly_true: Vec<bool>,
    /// Identifiers of the database facts.
    pub facts: Vec<usize>,
    /// The ground rules.
    pub rules: Vec<GroundSmsRule>,
    /// The candidate domain used for grounding.
    pub domain: Domain,
    /// The possibly-true closure as an interpretation (used to enumerate
    /// query instantiations).
    pub closure: Interpretation,
}

impl GroundSmsProgram {
    /// Number of possibly-true atoms (the SAT variables of the generator).
    pub fn possibly_true_count(&self) -> usize {
        self.possibly_true.iter().filter(|b| **b).count()
    }
}

/// Enumerates all assignments of `variables` to terms of `domain`, invoking
/// `visit` with each substitution extending `base`.
fn for_each_assignment<F>(
    variables: &[ntgd_core::Symbol],
    domain: &Domain,
    base: &Substitution,
    visit: &mut F,
) where
    F: FnMut(&Substitution),
{
    fn recurse<F>(
        variables: &[ntgd_core::Symbol],
        idx: usize,
        domain: &Domain,
        current: &mut Substitution,
        visit: &mut F,
    ) where
        F: FnMut(&Substitution),
    {
        if idx == variables.len() {
            visit(current);
            return;
        }
        for t in domain.terms() {
            let saved = current.clone();
            if current.try_bind(Term::Var(variables[idx]), *t) {
                recurse(variables, idx + 1, domain, current, visit);
            }
            *current = saved;
        }
    }
    let mut current = base.clone();
    recurse(variables, 0, domain, &mut current, visit);
}

/// The existential variables of every disjunct of a rule, hoisted out of the
/// per-homomorphism loops.
fn existentials_per_disjunct(rule: &ntgd_core::rule::Ndtgd) -> Vec<Vec<ntgd_core::Symbol>> {
    (0..rule.disjuncts().len())
        .map(|d| rule.existential_variables_of(d).into_iter().collect())
        .collect()
}

/// The per-disjunct existential variables of every rule of a program (the
/// shape consumed by the closure and instantiation passes).
pub(crate) fn existentials_for_program(
    program: &DisjunctiveProgram,
) -> Vec<Vec<Vec<ntgd_core::Symbol>>> {
    program
        .rules()
        .iter()
        .map(existentials_per_disjunct)
        .collect()
}

/// Computes the possibly-true closure: the least set of atoms over the domain
/// containing the database and closed under firing every rule (ignoring
/// negative literals) with every instantiation of its existential variables.
///
/// `plans` holds the cached rule plans shared with the instantiation phase of
/// [`ground_sms`]; every round executes them without recompiling.
///
/// Large rounds evaluate the rules in parallel on the persistent worker pool:
/// every worker matches against the frozen closure snapshot and emits
/// candidate atoms into a private buffer, and the buffers are merged into
/// one sorted addition set before insertion — the closure (arena order
/// included) is therefore identical at every thread count.
fn possibly_true_closure(
    database: &Database,
    program: &DisjunctiveProgram,
    plans: &CompiledDisjunctiveRuleSet,
    existentials_by_rule: &[Vec<Vec<ntgd_core::Symbol>>],
    domain: &Domain,
    limits: &GroundingLimits,
) -> Result<Interpretation, GroundingError> {
    let mut closure = database.to_interpretation();
    // Register every domain term so that matching can bind unsafe variables
    // if ever needed, and so `dom(I)` checks see the full candidate domain.
    for t in domain.terms() {
        closure.add_domain_element(*t);
    }
    advance_possibly_true_closure(
        &mut closure,
        program,
        plans,
        existentials_by_rule,
        domain,
        limits,
        0,
    )?;
    Ok(closure)
}

/// Runs the closure rounds of [`possibly_true_closure`] to fixpoint, starting
/// from the given arena watermark: with `watermark == 0` the first round is a
/// full match (the from-scratch build), with a positive watermark only
/// homomorphisms touching an atom inserted at or after it are matched — the
/// semi-naive *advance* used by [`crate::incremental::IncrementalSmsState`]
/// to push an already-closed state forward after new facts were inserted.
///
/// Sound for incremental callers because the pre-watermark state is a
/// fixpoint of the closure operator over the same domain: every homomorphism
/// not touching the suffix was already fired.
pub(crate) fn advance_possibly_true_closure(
    closure: &mut Interpretation,
    program: &DisjunctiveProgram,
    plans: &CompiledDisjunctiveRuleSet,
    existentials_by_rule: &[Vec<Vec<ntgd_core::Symbol>>],
    domain: &Domain,
    limits: &GroundingLimits,
    initial_watermark: usize,
) -> Result<(), GroundingError> {
    let empty = Substitution::new();
    // Semi-naive rounds: after the first round, rule bodies are only matched
    // against homomorphisms that use an atom derived in the previous round
    // (`watermark` is the closure size before that round's insertions).
    let mut watermark = initial_watermark;
    let rule_indices: Vec<usize> = (0..program.rules().len()).collect();
    loop {
        let next_watermark = closure.len();
        // One work item per rule; each worker reads the frozen closure and
        // collects its candidate additions locally.  Duplicates across
        // workers are fine — the merge below is a set union.
        let work = if watermark == 0 {
            closure.len().max(1)
        } else {
            closure.len().saturating_sub(watermark)
        };
        let threads = parallel::threads_for(work);
        let closure_ref = &*closure;
        let buckets: Vec<Vec<Atom>> =
            parallel::par_map_with(&rule_indices, threads, |_, &index| {
                let rule = &program.rules()[index];
                let existentials = &existentials_by_rule[index];
                let mut local: Vec<Atom> = Vec::new();
                plans.rule(index).body_positive().for_each_delta(
                    closure_ref,
                    &empty,
                    watermark,
                    &mut |binding| {
                        // Materialised lazily: disjuncts without existential
                        // variables instantiate straight off the slot binding.
                        let mut h: Option<Substitution> = None;
                        for (d, disjunct) in rule.disjuncts().iter().enumerate() {
                            let exist = &existentials[d];
                            if exist.is_empty() {
                                for atom in disjunct {
                                    let ground = binding.apply_atom(atom);
                                    if ground.is_ground() && !closure_ref.contains(&ground) {
                                        local.push(ground);
                                    }
                                }
                                continue;
                            }
                            let h = h.get_or_insert_with(|| binding.to_substitution());
                            for_each_assignment(exist, domain, h, &mut |assignment| {
                                for atom in disjunct {
                                    let ground = assignment.apply_atom(atom);
                                    if ground.is_ground() && !closure_ref.contains(&ground) {
                                        local.push(ground);
                                    }
                                }
                            });
                        }
                        ControlFlow::Continue(())
                    },
                );
                local
            });
        let additions: BTreeSet<Atom> = buckets.into_iter().flatten().collect();
        if additions.is_empty() {
            return Ok(());
        }
        for a in additions {
            closure.insert(a);
        }
        watermark = next_watermark;
        if closure.len() > limits.max_atoms {
            return Err(GroundingError::TooLarge {
                atoms: closure.len(),
                rules: 0,
            });
        }
    }
}

/// One rule instance collected by the parallel instantiation pass, before
/// the sequential intern: positive-body and head atoms are already resolved
/// to closure ids (the closure is interned up front and read-only), while
/// negated-body atoms — the only atoms that may be new to the table — stay
/// as atoms until the single-threaded intern pass assigns their ids.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PendingGroundRule {
    body_pos: Vec<usize>,
    body_neg: Vec<Atom>,
    neg_domain_terms: Vec<Term>,
    disjuncts: Vec<Vec<usize>>,
    source_rule: usize,
}

/// Pass 1 of the instantiation (parallel): per-rule buffers of ground rule
/// instances whose positive-body homomorphism touches a closure atom at or
/// after `watermark` (with `watermark == 0`: every homomorphism — the
/// from-scratch build).  Positive-body and head atoms are resolved against
/// the read-only `atoms` table, which must already contain the full closure.
///
/// `already_collected` seeds the cross-worker tally against `limits` (the
/// number of deduplicated instances a previous pass already produced), so an
/// incremental append stops collecting as soon as the *global* cap is
/// certain to be exceeded.
#[allow(clippy::too_many_arguments)] // crate-internal plumbing shared by the batch and incremental grounders
pub(crate) fn collect_pending(
    program: &DisjunctiveProgram,
    plans: &CompiledDisjunctiveRuleSet,
    existentials_by_rule: &[Vec<Vec<ntgd_core::Symbol>>],
    domain: &Domain,
    closure: &Interpretation,
    watermark: usize,
    atoms: &AtomTable,
    limits: &GroundingLimits,
    already_collected: usize,
) -> Vec<Vec<PendingGroundRule>> {
    let empty = Substitution::new();
    let rule_indices: Vec<usize> = (0..program.rules().len()).collect();
    let threads = parallel::threads_for(closure.len().saturating_sub(watermark).max(1));
    // Cross-worker tally of *deduplicated* instances collected so far.
    // Duplicates can only arise within one rule (`source_rule` is part of
    // rule identity), so this sum equals the global deduplicated count; once
    // it exceeds the cap the grounding is guaranteed to fail, and every
    // worker stops collecting — the limit bounds memory globally again, not
    // merely per rule.  Success-path results are untouched (workers only
    // stop when failure is certain), so determinism is preserved.
    let collected = std::sync::atomic::AtomicUsize::new(already_collected);
    let collected_ref = &collected;
    parallel::par_map_with(&rule_indices, threads, |_, &ridx| {
        let rule = &program.rules()[ridx];
        let body_atoms: Vec<Atom> = rule.body_positive().into_iter().cloned().collect();
        let neg_atoms: Vec<Atom> = rule.body_negative().into_iter().cloned().collect();
        let existentials = &existentials_by_rule[ridx];
        let mut local: Vec<PendingGroundRule> = Vec::new();
        let mut local_seen: BTreeSet<PendingGroundRule> = BTreeSet::new();
        plans.rule(ridx).body_positive().for_each_delta(
            closure,
            &empty,
            watermark,
            &mut |binding| {
                let body_pos: Vec<usize> = body_atoms
                    .iter()
                    .map(|a| {
                        atoms
                            .id_of(&binding.apply_atom(a))
                            .expect("positive body instances are in the closure")
                    })
                    .collect();
                let pos_terms: BTreeSet<Term> = body_atoms
                    .iter()
                    .flat_map(|a| binding.apply_atom(a).terms().copied().collect::<Vec<_>>())
                    .collect();
                let mut body_neg = Vec::new();
                let mut neg_domain_terms: BTreeSet<Term> = BTreeSet::new();
                for a in &neg_atoms {
                    let ground = binding.apply_atom(a);
                    debug_assert!(
                        ground.is_ground(),
                        "safety guarantees ground negative bodies"
                    );
                    for t in ground.terms() {
                        if !pos_terms.contains(t) {
                            neg_domain_terms.insert(*t);
                        }
                    }
                    body_neg.push(ground);
                }
                let mut disjuncts: Vec<Vec<usize>> = Vec::new();
                let mut h: Option<Substitution> = None;
                for (d, disjunct) in rule.disjuncts().iter().enumerate() {
                    let exist = &existentials[d];
                    if exist.is_empty() {
                        let conj: Vec<usize> = disjunct
                            .iter()
                            .map(|atom| {
                                atoms
                                    .id_of(&binding.apply_atom(atom))
                                    .expect("head instantiations are in the closure")
                            })
                            .collect();
                        disjuncts.push(conj);
                        continue;
                    }
                    let h = h.get_or_insert_with(|| binding.to_substitution());
                    for_each_assignment(exist, domain, h, &mut |assignment| {
                        let conj: Vec<usize> = disjunct
                            .iter()
                            .map(|atom| {
                                let ground = assignment.apply_atom(atom);
                                atoms
                                    .id_of(&ground)
                                    .expect("head instantiations are in the closure")
                            })
                            .collect();
                        disjuncts.push(conj);
                    });
                }
                disjuncts.sort();
                disjuncts.dedup();
                let pending = PendingGroundRule {
                    body_pos,
                    body_neg,
                    neg_domain_terms: neg_domain_terms.into_iter().collect(),
                    disjuncts,
                    source_rule: ridx,
                };
                if local_seen.insert(pending.clone()) {
                    local.push(pending);
                    collected_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if collected_ref.load(std::sync::atomic::Ordering::Relaxed) > limits.max_rules {
                    // Over the global limit: the sequential pass below is
                    // certain to report `TooLarge`, so stop paying for
                    // instances that can never be used.
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        local
    })
}

/// Pass 2 of the instantiation (sequential): interns negated-body atoms —
/// the only atoms that may be new to the table — walking the per-rule
/// buffers in rule order, deduplicates against `seen` (which persists across
/// incremental appends) and pushes the finalised rules.  Atoms newly added
/// to the table are flagged `false` in `possibly_true` (negated-body atoms
/// outside the closure are never possibly true).
pub(crate) fn intern_pending(
    buckets: Vec<Vec<PendingGroundRule>>,
    atoms: &mut AtomTable,
    possibly_true: &mut Vec<bool>,
    rules: &mut Vec<GroundSmsRule>,
    seen: &mut BTreeSet<GroundSmsRule>,
    limits: &GroundingLimits,
) -> Result<(), GroundingError> {
    debug_assert_eq!(atoms.len(), possibly_true.len());
    for bucket in buckets {
        for pending in bucket {
            let body_neg: Vec<usize> = pending
                .body_neg
                .into_iter()
                .map(|ground| {
                    let id = atoms.intern(ground);
                    if id == possibly_true.len() {
                        possibly_true.push(false);
                    }
                    id
                })
                .collect();
            let ground_rule = GroundSmsRule {
                body_pos: pending.body_pos,
                body_neg,
                neg_domain_terms: pending.neg_domain_terms,
                disjuncts: pending.disjuncts,
                source_rule: pending.source_rule,
            };
            if seen.insert(ground_rule.clone()) {
                rules.push(ground_rule);
            }
            if rules.len() > limits.max_rules {
                return Err(GroundingError::TooLarge {
                    atoms: atoms.len(),
                    rules: rules.len(),
                });
            }
        }
    }
    Ok(())
}

/// Grounds `SM[D,Σ]` over the given domain.  Every rule is compiled into its
/// plan form exactly once per call; the closure rounds and the instantiation
/// phase execute the cached plans.
///
/// The instantiation phase mirrors the closure's buffer-merge pattern: a
/// **parallel collect** (one work item per rule on the persistent pool, each
/// enumerating its rule's bindings over the frozen closure and resolving
/// closure ids read-only) followed by a **sequential intern** that walks the
/// per-rule buffers in rule order, assigns table ids to negated-body atoms
/// and applies the dedup/limit checks — the one remaining sequential
/// bottleneck, now reduced to hash-map insertions.  Because duplicate rule
/// instances can only arise within one rule (`source_rule` is part of rule
/// identity), per-rule deduplication inside the workers is exact, and the
/// merged stream — and hence every table id — is identical to the
/// single-threaded enumeration at every thread count.
pub fn ground_sms(
    database: &Database,
    program: &DisjunctiveProgram,
    domain: &Domain,
    limits: &GroundingLimits,
) -> Result<GroundSmsProgram, GroundingError> {
    let plans =
        CompiledDisjunctiveRuleSet::from_disjunctive(program, &database.to_interpretation());
    ground_sms_with_plans(database, program, &plans, domain, limits).map(|(ground, _)| ground)
}

/// [`ground_sms`] against an externally compiled (and therefore reusable)
/// rule-plan set; additionally returns the instance-dedup set so that
/// incremental callers can keep extending the grounding without
/// re-deduplicating from scratch.
pub(crate) fn ground_sms_with_plans(
    database: &Database,
    program: &DisjunctiveProgram,
    plans: &CompiledDisjunctiveRuleSet,
    domain: &Domain,
    limits: &GroundingLimits,
) -> Result<(GroundSmsProgram, BTreeSet<GroundSmsRule>), GroundingError> {
    let existentials_by_rule = existentials_for_program(program);
    let closure = possibly_true_closure(
        database,
        program,
        plans,
        &existentials_by_rule,
        domain,
        limits,
    )?;
    let mut atoms = AtomTable::new();
    // Intern the closure first so that possibly-true atoms occupy a prefix of
    // the table; `possibly_true` is then extended as negative-body atoms are
    // interned.
    for a in closure.sorted_atoms() {
        atoms.intern(a);
    }
    let mut possibly_true = vec![true; atoms.len()];

    // Pass 1 (parallel): per-rule instantiation buffers over the frozen
    // closure and the read-only prefix of the atom table.
    let buckets = collect_pending(
        program,
        plans,
        &existentials_by_rule,
        domain,
        &closure,
        0,
        &atoms,
        limits,
        0,
    );

    // Pass 2 (sequential): intern negated-body atoms and finalise, walking
    // the buffers in rule order — the same order, and therefore the same
    // table ids, as the previous single-threaded enumeration.
    let mut rules: Vec<GroundSmsRule> = Vec::new();
    let mut seen: BTreeSet<GroundSmsRule> = BTreeSet::new();
    intern_pending(
        buckets,
        &mut atoms,
        &mut possibly_true,
        &mut rules,
        &mut seen,
        limits,
    )?;

    let facts: Vec<usize> = database
        .facts()
        .map(|f| atoms.id_of(f).expect("database atoms are in the closure"))
        .collect();
    Ok((
        GroundSmsProgram {
            atoms,
            possibly_true,
            facts,
            rules,
            domain: domain.clone(),
            closure,
        },
        seen,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{build_domain, NullBudget};
    use ntgd_core::{atom, cst};
    use ntgd_parser::{parse_database, parse_unit};

    fn setup(db: &str, rules: &str, budget: NullBudget) -> GroundSmsProgram {
        let db = parse_database(db).unwrap();
        let prog = parse_unit(rules).unwrap().disjunctive_program().unwrap();
        let dom = build_domain(&db, &prog, None, budget);
        ground_sms(&db, &prog, &dom, &GroundingLimits::default()).unwrap()
    }

    #[test]
    fn existentials_expand_into_one_disjunct_per_domain_element() {
        let g = setup(
            "person(alice).",
            "person(X) -> hasFather(X, Y).",
            NullBudget::Auto,
        );
        // Domain = {alice, _n0}; one rule instance with two disjuncts.
        assert_eq!(g.domain.len(), 2);
        assert_eq!(g.rules.len(), 1);
        assert_eq!(g.rules[0].disjuncts.len(), 2);
        // Closure: person(alice), hasFather(alice, alice), hasFather(alice, _n0).
        assert_eq!(g.possibly_true_count(), 3);
        assert!(g
            .closure
            .contains(&atom("hasFather", vec![cst("alice"), cst("alice")])));
    }

    #[test]
    fn negative_body_atoms_are_interned_but_not_possibly_true() {
        let g = setup("p(a).", "p(X), not q(X) -> r(X).", NullBudget::None);
        let q_id = g.atoms.id_of(&atom("q", vec![cst("a")])).unwrap();
        assert!(!g.possibly_true[q_id]);
        let r_id = g.atoms.id_of(&atom("r", vec![cst("a")])).unwrap();
        assert!(g.possibly_true[r_id]);
        assert_eq!(g.rules.len(), 1);
        assert_eq!(g.rules[0].body_neg, vec![q_id]);
        assert!(g.rules[0].neg_domain_terms.is_empty());
    }

    #[test]
    fn constants_only_in_negative_literals_need_domain_guards() {
        let g = setup(
            "p(a).",
            "p(X), not q(X, special) -> r(X).",
            NullBudget::None,
        );
        assert_eq!(g.rules[0].neg_domain_terms, vec![cst("special")]);
    }

    #[test]
    fn disjunctive_heads_produce_multiple_disjunct_groups() {
        let g = setup(
            "node(v).",
            "node(X) -> red(X) | green(X).",
            NullBudget::None,
        );
        assert_eq!(g.rules.len(), 1);
        assert_eq!(g.rules[0].disjuncts.len(), 2);
        // Both colourings are possibly true.
        assert!(g.closure.contains(&atom("red", vec![cst("v")])));
        assert!(g.closure.contains(&atom("green", vec![cst("v")])));
    }

    #[test]
    fn rules_with_empty_bodies_fire_unconditionally() {
        let g = setup("dom(a).", "-> zero(X).", NullBudget::None);
        assert_eq!(g.rules.len(), 1);
        assert!(g.rules[0].body_pos.is_empty());
        // zero(t) for every domain element t is possibly true.
        assert!(g.closure.contains(&atom("zero", vec![cst("a")])));
    }

    #[test]
    fn grounding_respects_limits() {
        let db = parse_database("p(a). p(b). p(c). p(d).").unwrap();
        let prog = parse_unit("p(X), p(Y) -> q(X, Y, Z).")
            .unwrap()
            .disjunctive_program()
            .unwrap();
        let dom = build_domain(&db, &prog, None, NullBudget::Exact(4));
        let limits = GroundingLimits {
            max_atoms: 10,
            max_rules: 10,
        };
        assert!(ground_sms(&db, &prog, &dom, &limits).is_err());
    }

    #[test]
    fn atom_table_round_trips() {
        let mut t = AtomTable::new();
        let a = atom("p", vec![cst("a")]);
        let id = t.intern(a.clone());
        assert_eq!(t.intern(a.clone()), id);
        assert_eq!(t.id_of(&a), Some(id));
        assert_eq!(t.atom(id), &a);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn atom_table_truncate_drops_a_suffix_and_reuses_ids() {
        let mut t = AtomTable::new();
        let a = atom("p", vec![cst("a")]);
        let b = atom("p", vec![cst("b")]);
        let c = atom("q", vec![cst("c")]);
        assert_eq!(t.intern(a.clone()), 0);
        let watermark = t.len();
        assert_eq!(t.intern(b.clone()), 1);
        assert_eq!(t.intern(c.clone()), 2);
        t.truncate(watermark);
        assert_eq!(t.len(), 1);
        assert_eq!(t.id_of(&a), Some(0));
        assert_eq!(t.id_of(&b), None);
        assert_eq!(t.id_of(&c), None);
        // Re-interning after a truncate reuses the freed dense ids.
        assert_eq!(t.intern(c.clone()), 1);
        assert_eq!(t.atom(1), &c);
    }

    #[test]
    fn atom_table_truncate_edge_cases_mirror_the_arena() {
        let mut t = AtomTable::new();
        let a = atom("p", vec![cst("a")]);
        t.intern(a.clone());
        // Truncate past the end: a no-op.
        t.truncate(100);
        assert_eq!(t.len(), 1);
        // A no-op intern (already present) does not grow the table, so a
        // truncate to the same watermark keeps everything.
        let watermark = t.len();
        t.intern(a.clone());
        t.truncate(watermark);
        assert_eq!(t.id_of(&a), Some(0));
        // Double-truncate to the same mark is idempotent.
        t.intern(atom("q", vec![cst("b")]));
        t.truncate(watermark);
        t.truncate(watermark);
        assert_eq!(t.len(), 1);
        assert_eq!(t.id_of(&a), Some(0));
        // Truncate to zero empties the table and restarts ids at 0.
        t.truncate(0);
        assert!(t.is_empty());
        assert_eq!(t.id_of(&a), None);
        assert_eq!(t.intern(atom("r", vec![cst("z")])), 0);
    }

    #[test]
    fn facts_are_registered() {
        let g = setup("p(a). p(b).", "p(X) -> q(X).", NullBudget::None);
        assert_eq!(g.facts.len(), 2);
        for &f in &g.facts {
            assert!(g.possibly_true[f]);
        }
    }
}
