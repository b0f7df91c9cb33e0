//! A **resumable, incremental** chase for long-lived reasoning sessions.
//!
//! The batch chases of this crate ([`restricted_chase`], [`skolem_chase`],
//! [`oblivious_chase`]) build an instance, run to fixpoint and return it;
//! asserting one more fact means re-chasing from scratch.  A reasoning
//! *session* instead keeps the chase state alive between assertions:
//!
//! * [`IncrementalChase::assert_facts`] inserts a batch of new facts and
//!   **re-chases incrementally**: the new facts seed the semi-naive delta
//!   worklist (the trigger discovery of [`triggers_from_compiled`] with the
//!   pre-assert arena length as watermark), so only the delta neighbourhood
//!   is matched — never the whole instance, and never from scratch.  Because
//!   the pre-assert state is a fixpoint, delta triggers are exactly the new
//!   triggers.
//! * [`IncrementalChase::mark`] captures an [`EpochMark`] (arena watermark
//!   plus witness-memo length); [`IncrementalChase::retract_to`] rolls the
//!   session back to a mark in `O(atoms retracted)` by truncating the arena
//!   ([`Interpretation::truncate`]) and un-memoising the witnesses invented
//!   since — ids, indexes and memos of surviving epochs are untouched.
//!
//! A pending trigger is kept as its rule index and its positive-body slot
//! values, and applying it builds the head atoms from those values through
//! the rule's head template ([`ntgd_core::RuleShape`], computed once when
//! the rule is compiled).  Only a rule with existential variables builds a
//! witness key and consults the memo; an existential-free (Datalog) rule
//! never touches the memo, its rollback log or the null-owner map.
//!
//! # Which chase, and why the result is batching-invariant
//!
//! The incremental chase uses **Skolem (semi-oblivious) semantics** with
//! witnesses memoised per `(rule, frontier binding)` for the rules with
//! existential variables, like [`skolem_chase`].
//! This is a deliberate choice: the *restricted* chase is order-dependent —
//! whether a trigger is applied depends on which witnesses happen to exist
//! already, so chasing `D₁` to fixpoint before seeing `D₂` can produce a
//! different (non-isomorphic!) instance than chasing `D₁ ∪ D₂` outright,
//! which would make a session's answers depend on how its history was
//! batched.  The Skolem chase result is the least fixpoint of the
//! Skolemised positive program and therefore a function of the accumulated
//! fact **set** alone.
//!
//! On top of that, witnesses are named **canonically**: the null invented
//! for existential variable `i` of rule `r` under frontier binding `t̄` is
//! `_n<h>` where `h` is a 64-bit FNV-1a hash of `(r, i, t̄)` (nulls inside
//! `t̄` hash by their own canonical identifier, so naming is well-founded).
//! Unlike a sequential [`NullFactory`](ntgd_core::NullFactory), the name
//! does not depend on *when* the witness was first needed.  Together:
//!
//! > any split of a database into a sequence of `assert_facts` batches
//! > yields the **same set of atoms, null names included**, and hence
//! > identical query answers, as a from-scratch run that asserts everything
//! > in one batch
//!
//! — the equivalence property the `ntgd-server` session tests assert.  (The
//! arena *order* necessarily reflects the batching — an arena is append-only
//! — but for a fixed batch sequence it is bit-identical at every thread
//! count, per the `ntgd_core::parallel` determinism contract.)  Hash
//! collisions between distinct witness keys are detected and resolved by
//! deterministic re-salting; a collision would have to defeat a 64-bit hash
//! to perturb naming, which no realistic session size approaches.
//!
//! [`restricted_chase`]: crate::restricted::restricted_chase
//! [`triggers_from_compiled`]: crate::trigger::triggers_from_compiled
//! [`skolem_chase`]: crate::skolem::skolem_chase
//! [`oblivious_chase`]: crate::oblivious::oblivious_chase

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ntgd_core::{
    obs, Atom, CompiledRuleSet, Interpretation, InterpretationBase, NullId, Program, Term,
};

use crate::restricted::ChaseConfig;
use crate::trigger::{fan_out_triggers, TriggerSink};

/// Chase hot-loop telemetry, batched per worklist drain so the per-trigger
/// path stays atomic-free: round count, triggers applied, and how the
/// triggers of existential rules split between witness-memo hits (an
/// existing Skolem witness reused) and misses (fresh labelled nulls minted).
static CHASE_ROUNDS: obs::Counter = obs::Counter::new("chase.rounds");
static CHASE_TRIGGERS: obs::Counter = obs::Counter::new("chase.triggers");
static CHASE_MEMO_HITS: obs::Counter = obs::Counter::new("chase.witness_memo_hits");
static CHASE_MEMO_MISSES: obs::Counter = obs::Counter::new("chase.witness_memo_misses");

/// Locally accumulated [`drain`](IncrementalChase::drain) tallies, flushed
/// to the process-wide counters once per round.
#[derive(Default)]
struct DrainTallies {
    triggers: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// Memo key of a Skolem witness: rule index plus the values of the rule's
/// frontier variables (in `frontier_variables()` order).  Only rules with
/// existential variables have witnesses, so only their triggers build a key.
type WitnessKey = (usize, Vec<Term>);

/// The pending triggers of a drain, first in first out: each trigger's rule
/// index, and its positive-body slot values back to back (the rule's
/// `body_positive().slot_count()` of them per trigger).  A trigger costs no
/// allocation of its own.
#[derive(Debug, Default)]
struct SlotTriggers {
    rules: VecDeque<usize>,
    values: VecDeque<Term>,
}

impl TriggerSink for SlotTriggers {
    fn append(&mut self, other: Self) {
        self.rules.extend(other.rules);
        self.values.extend(other.values);
    }
}

/// Queues every trigger whose body image uses an atom inserted at or after
/// `watermark`, in the order of
/// [`triggers_from_compiled`](crate::trigger::triggers_from_compiled).
fn discover(
    plans: &CompiledRuleSet,
    instance: &Interpretation,
    watermark: usize,
    pending: &mut SlotTriggers,
) {
    fan_out_triggers(plans, instance, watermark, pending, |out, idx, binding| {
        out.rules.push_back(idx);
        out.values.extend(binding.slot_values());
    });
}

/// A rollback point of an [`IncrementalChase`]: everything needed to undo
/// the assertions made after it was taken (the arena length, the number of
/// memoised witness keys — one per `(rule, frontier)` of an existential
/// rule — and the step count).
///
/// Marks are plain data and only meaningful for the chase that issued them;
/// rolling back to a mark invalidates every mark taken later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochMark {
    /// Arena watermark: `instance.len()` when the mark was taken.
    arena_len: usize,
    /// Witness-memo watermark: number of memoised witness keys (existential
    /// rules only).
    witnesses: usize,
    /// Trigger applications performed so far.
    steps: usize,
}

impl EpochMark {
    /// The arena length captured by this mark.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// The number of memoised witness keys captured by this mark.  Only
    /// triggers of rules with existential variables memoise a key.
    pub fn witnesses(&self) -> usize {
        self.witnesses
    }

    /// The trigger applications performed when this mark was taken.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// Summary of one successful [`IncrementalChase::assert_facts`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AssertSummary {
    /// Facts from the batch that were actually new.
    pub added_facts: usize,
    /// Atoms derived by the incremental re-chase.
    pub derived: usize,
    /// Trigger applications performed by the re-chase.
    pub steps: usize,
}

/// The error of an [`IncrementalChase::assert_facts`] call whose re-chase
/// exceeded the configured step budget.  The assertion is rolled back
/// entirely (asserts are transactional), so the session stays at its last
/// fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepLimitExceeded {
    /// The per-assert step budget that was exhausted.
    pub max_steps: usize,
}

impl std::fmt::Display for StepLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "incremental re-chase exceeded {} steps; assertion rolled back",
            self.max_steps
        )
    }
}

impl std::error::Error for StepLimitExceeded {}

/// A frozen chase fixpoint, shareable between sessions through an [`Arc`]:
/// the chased instance (as an [`InterpretationBase`]), the compiled rule
/// plans, and the witness memo / null-owner maps accumulated up to the
/// freeze.  Produced by [`IncrementalChase::freeze`], consumed by
/// [`IncrementalChase::fork`], which layers a private overlay chase on top
/// in O(1).
#[derive(Debug)]
pub struct ChaseBase {
    /// The positive part of the loaded program.
    positive: Arc<Program>,
    /// Rule plans, compiled once when the base was first built.
    plans: Arc<CompiledRuleSet>,
    /// The frozen chased instance (a fixpoint).
    instance: Arc<InterpretationBase>,
    /// Witness memo at the freeze.
    witnesses: HashMap<WitnessKey, Vec<Term>>,
    /// Number of memoised witness keys at the freeze (the absolute witness
    /// watermark forked overlays count from).
    witness_count: usize,
    /// Null-owner map at the freeze.
    null_owner: HashMap<NullId, (WitnessKey, usize)>,
    /// Trigger applications performed up to the freeze.
    steps: usize,
}

impl ChaseBase {
    /// The frozen chased instance.
    pub fn instance(&self) -> &Arc<InterpretationBase> {
        &self.instance
    }

    /// The compiled rule plans shared by every fork.
    pub fn plans(&self) -> &Arc<CompiledRuleSet> {
        &self.plans
    }

    /// The positive program driving the chase.
    pub fn program(&self) -> &Arc<Program> {
        &self.positive
    }

    /// Trigger applications performed up to the freeze.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// A resumable Skolem chase whose worklists, witness memo and compiled rule
/// plans stay alive between fact assertions.  See the module documentation
/// for the semantics.
#[derive(Debug)]
pub struct IncrementalChase {
    /// The positive part of the loaded program (the chase of `Σ⁺`).
    positive: Arc<Program>,
    /// Rule plans, compiled once when the program is loaded (shared with
    /// the base and its other forks when forked).
    plans: Arc<CompiledRuleSet>,
    /// The shared frozen prefix of the chase, if this session was forked.
    base: Option<Arc<ChaseBase>>,
    /// The chased instance: asserted facts plus everything derived.  Holds
    /// the base's frozen arena as its base segment when forked.
    instance: Interpretation,
    /// `(rule, frontier)` → memoised witness terms, in
    /// `existential_variables()` order, for rules with existential variables
    /// only.  Overlay-local when forked; lookups chain to the base memo.
    witnesses: HashMap<WitnessKey, Vec<Term>>,
    /// Witness keys in creation order (the rollback log; overlay-local).
    witness_log: Vec<WitnessKey>,
    /// Canonical null id → owning `(key, existential index)`, for collision
    /// detection.  Overlay-local when forked.
    null_owner: HashMap<NullId, (WitnessKey, usize)>,
    /// Trigger applications performed over the session's lifetime (absolute:
    /// starts at the base's step count when forked).
    steps: usize,
    /// Per-assert chase configuration (step budget).
    config: ChaseConfig,
}

impl IncrementalChase {
    /// Creates a session chase for the positive part of `program` and runs
    /// the initial chase of the **empty** database (rules with empty bodies
    /// fire here), so the state is a fixpoint before the first assert.
    pub fn new(
        program: &Program,
        config: ChaseConfig,
    ) -> Result<IncrementalChase, StepLimitExceeded> {
        let positive = program.positive_part();
        let instance = Interpretation::new();
        let plans = CompiledRuleSet::from_program(&positive, &instance);
        let mut chase = IncrementalChase {
            positive: Arc::new(positive),
            plans: Arc::new(plans),
            base: None,
            instance,
            witnesses: HashMap::new(),
            witness_log: Vec::new(),
            null_owner: HashMap::new(),
            steps: 0,
            config,
        };
        let mut seed = SlotTriggers::default();
        discover(&chase.plans, &chase.instance, 0, &mut seed);
        chase.drain(seed)?;
        Ok(chase)
    }

    /// Freezes this chase into an immutable shareable [`ChaseBase`]: the
    /// instance arena, compiled plans, witness memo and null-owner map all
    /// move behind the `Arc` (no copy).  The chase must be at a fixpoint,
    /// which it always is outside `assert_facts`.
    ///
    /// # Panics
    ///
    /// Panics if this chase was forked: only a chase built from
    /// [`IncrementalChase::new`] can become a base (a fork's witness memo
    /// lives partly in the base it was forked from).
    pub fn freeze(self) -> Arc<ChaseBase> {
        let IncrementalChase {
            positive,
            plans,
            base,
            instance,
            witnesses,
            witness_log,
            null_owner,
            steps,
            config: _,
        } = self;
        assert!(
            base.is_none(),
            "IncrementalChase::freeze of a forked chase: only a privately built chase can be frozen"
        );
        Arc::new(ChaseBase {
            positive,
            plans,
            instance: instance.freeze(),
            witness_count: witness_log.len(),
            witnesses,
            null_owner,
            steps,
        })
    }

    /// Forks a frozen base in O(1): the new session shares the base's
    /// instance arena, plans and witness memo, and chases only its private
    /// fact delta on top.  Observationally identical to a from-scratch
    /// session that asserted the base's facts first.
    pub fn fork(base: &Arc<ChaseBase>, config: ChaseConfig) -> IncrementalChase {
        IncrementalChase {
            positive: Arc::clone(&base.positive),
            plans: Arc::clone(&base.plans),
            instance: Interpretation::fork(&base.instance),
            base: Some(Arc::clone(base)),
            witnesses: HashMap::new(),
            witness_log: Vec::new(),
            null_owner: HashMap::new(),
            steps: base.steps,
            config,
        }
    }

    /// The shared base this chase was forked from, if any.
    pub fn base(&self) -> Option<&Arc<ChaseBase>> {
        self.base.as_ref()
    }

    /// The chased instance (facts plus derived atoms), always at a fixpoint.
    pub fn instance(&self) -> &Interpretation {
        &self.instance
    }

    /// The atoms asserted or derived since a mark was taken (the arena
    /// suffix above the mark's watermark), in insertion order.  This is the
    /// session's chase *delta*: embedders that maintain derived state of
    /// their own (caches, materialised views, the incremental `MODELS`
    /// grounding of `ntgd-sms`) seed their semi-naive worklists from it
    /// instead of rescanning the instance.
    pub fn atoms_since<'a>(&'a self, mark: &EpochMark) -> impl Iterator<Item = &'a Atom> + 'a {
        self.instance.atoms_from(mark.arena_len)
    }

    /// The positive program driving the chase.
    pub fn program(&self) -> &Program {
        &self.positive
    }

    /// Trigger applications performed over the session's lifetime (rolled
    /// back by [`IncrementalChase::retract_to`]).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of live memoised witnesses (canonical nulls invented and not
    /// retracted), including those of the shared base when forked.
    pub fn nulls_created(&self) -> u64 {
        let overlay: u64 = self
            .witnesses
            .values()
            .map(|terms| terms.len() as u64)
            .sum();
        let base: u64 = self
            .base
            .as_ref()
            .map(|b| b.witnesses.values().map(|terms| terms.len() as u64).sum())
            .unwrap_or(0);
        base + overlay
    }

    /// Number of memoised witness keys frozen into the shared base (0 when
    /// not forked).
    fn base_witness_count(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.witness_count)
    }

    /// Captures a rollback point for [`IncrementalChase::retract_to`].
    pub fn mark(&self) -> EpochMark {
        EpochMark {
            arena_len: self.instance.len(),
            witnesses: self.base_witness_count() + self.witness_log.len(),
            steps: self.steps,
        }
    }

    /// Rolls the session back to a previously captured mark: the arena is
    /// truncated to the mark's watermark and the witnesses memoised since
    /// are forgotten, in time proportional to what is being retracted.
    ///
    /// # Panics
    ///
    /// Panics if the mark is from the future (e.g. from a later state that
    /// was itself rolled back and re-grown differently), or if it lies below
    /// the fork watermark of a forked session (the shared base is frozen).
    pub fn retract_to(&mut self, mark: &EpochMark) {
        let base_witnesses = self.base_witness_count();
        assert!(
            mark.witnesses >= base_witnesses
                && mark.steps >= self.base.as_ref().map_or(0, |b| b.steps),
            "epoch mark lies below the fork watermark of the shared base"
        );
        let overlay_witnesses = mark.witnesses - base_witnesses;
        assert!(
            mark.arena_len <= self.instance.len() && overlay_witnesses <= self.witness_log.len(),
            "epoch mark does not precede the current state"
        );
        self.instance.truncate(mark.arena_len);
        for key in self.witness_log.drain(overlay_witnesses..) {
            if let Some(terms) = self.witnesses.remove(&key) {
                for term in terms {
                    if let Term::Null(id) = term {
                        self.null_owner.remove(&id);
                    }
                }
            }
        }
        self.steps = mark.steps;
    }

    /// Asserts a batch of ground facts and re-chases incrementally: the new
    /// facts seed the semi-naive delta worklist, so matching cost is
    /// proportional to the delta neighbourhood, not the instance.
    ///
    /// The call is **transactional**: if the re-chase exceeds the configured
    /// per-assert step budget, the whole batch (facts and derivations) is
    /// rolled back and the session stays at its previous fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if a fact contains a variable.
    pub fn assert_facts<I>(&mut self, facts: I) -> Result<AssertSummary, StepLimitExceeded>
    where
        I: IntoIterator<Item = Atom>,
    {
        let mark = self.mark();
        let watermark = self.instance.len();
        let mut added_facts = 0usize;
        for fact in facts {
            if self.instance.insert(fact) {
                added_facts += 1;
            }
        }
        let mut pending = SlotTriggers::default();
        discover(&self.plans, &self.instance, watermark, &mut pending);
        if let Err(limit) = self.drain(pending) {
            self.retract_to(&mark);
            return Err(limit);
        }
        Ok(AssertSummary {
            added_facts,
            derived: self.instance.len() - watermark - added_facts,
            steps: self.steps - mark.steps,
        })
    }

    /// Runs the Skolem-chase worklist to fixpoint, bounded by the per-call
    /// step budget.  On `Err` the caller is responsible for rolling back.
    fn drain(&mut self, pending: SlotTriggers) -> Result<(), StepLimitExceeded> {
        let _round = obs::span("chase.round");
        CHASE_ROUNDS.incr();
        let mut tallies = DrainTallies::default();
        let result = self.drain_inner(pending, &mut tallies);
        CHASE_TRIGGERS.add(tallies.triggers);
        CHASE_MEMO_HITS.add(tallies.memo_hits);
        CHASE_MEMO_MISSES.add(tallies.memo_misses);
        result
    }

    /// Applies pending triggers until none is left.  Head atoms are built
    /// from the trigger's slot values through the rule's head template; only
    /// a rule with existential variables builds a witness key and consults
    /// the memo.
    fn drain_inner(
        &mut self,
        mut pending: SlotTriggers,
        tallies: &mut DrainTallies,
    ) -> Result<(), StepLimitExceeded> {
        let start = self.steps;
        let mut slots: Vec<Term> = Vec::new();
        let mut witnesses: Vec<Term> = Vec::new();
        let mut args: Vec<Term> = Vec::new();
        while let Some(rule_index) = pending.rules.pop_front() {
            tallies.triggers += 1;
            let rule = self.plans.rule(rule_index);
            let shape = rule.shape();
            slots.clear();
            slots.extend(pending.values.drain(..rule.body_positive().slot_count()));
            witnesses.clear();
            if !shape.existentials().is_empty() {
                let key: WitnessKey = (
                    rule_index,
                    shape.frontier().iter().map(|&slot| slots[slot]).collect(),
                );
                let memoised = self
                    .witnesses
                    .get(&key)
                    .or_else(|| self.base.as_ref().and_then(|b| b.witnesses.get(&key)));
                match memoised {
                    Some(terms) => {
                        tallies.memo_hits += 1;
                        witnesses.extend_from_slice(terms);
                    }
                    None => {
                        tallies.memo_misses += 1;
                        let base_owners = self.base.as_ref().map(|b| &b.null_owner);
                        let terms: Vec<Term> = (0..shape.existentials().len())
                            .map(|index| {
                                Term::Null(claim_null_id(
                                    base_owners,
                                    &mut self.null_owner,
                                    &key,
                                    index,
                                ))
                            })
                            .collect();
                        witnesses.extend_from_slice(&terms);
                        self.witness_log.push(key.clone());
                        self.witnesses.insert(key, terms);
                    }
                }
            }
            let head_watermark = self.instance.len();
            let mut new_atom = false;
            for template in shape.head() {
                template.ground_into(&slots, &witnesses, &mut args);
                if !self.instance.contains_parts(template.predicate(), &args) {
                    self.instance
                        .insert(Atom::new(template.predicate(), args.clone()));
                    new_atom = true;
                }
            }
            if new_atom {
                self.steps += 1;
                if let Some(max_steps) = self.config.max_steps {
                    if self.steps - start >= max_steps {
                        return Err(StepLimitExceeded { max_steps });
                    }
                }
                discover(&self.plans, &self.instance, head_watermark, &mut pending);
            }
        }
        Ok(())
    }
}

/// The canonical null id of `(key, existential index)`: a 64-bit FNV-1a
/// hash of the key's content, re-salted deterministically on (cosmically
/// unlikely) collision with a different live witness.  Ownership is checked
/// against the frozen base's map first (forked sessions must not re-claim a
/// base null for a different witness), then the overlay's.
fn claim_null_id(
    base_owners: Option<&HashMap<NullId, (WitnessKey, usize)>>,
    owners: &mut HashMap<NullId, (WitnessKey, usize)>,
    key: &WitnessKey,
    index: usize,
) -> NullId {
    let mut salt = 0u64;
    loop {
        let id = canonical_null_id(key, index, salt);
        let owner = owners
            .get(&id)
            .or_else(|| base_owners.and_then(|b| b.get(&id)));
        match owner {
            Some((owner_key, owner_index)) if owner_key == key && *owner_index == index => {
                return id;
            }
            Some(_) => salt += 1,
            None => {
                owners.insert(id, (key.clone(), index));
                return id;
            }
        }
    }
}

/// FNV-1a over the stable content of a witness key: rule index, existential
/// index, salt and the frontier terms (constants by name, nulls by their own
/// canonical id).
fn canonical_null_id(key: &WitnessKey, index: usize, salt: u64) -> NullId {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    for byte in (key.0 as u64)
        .to_le_bytes()
        .into_iter()
        .chain((index as u64).to_le_bytes())
        .chain(salt.to_le_bytes())
    {
        eat(byte);
    }
    for term in &key.1 {
        match term {
            Term::Const(symbol) => {
                eat(0x01);
                for byte in symbol.as_str().bytes() {
                    eat(byte);
                }
                eat(0x00);
            }
            Term::Null(id) => {
                eat(0x02);
                for byte in id.to_le_bytes() {
                    eat(byte);
                }
            }
            Term::Var(_) => unreachable!("frontier bindings are ground"),
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skolem::skolem_chase;
    use ntgd_core::{atom, cst};
    use ntgd_parser::{parse_database, parse_program, parse_query};

    fn facts(text: &str) -> Vec<Atom> {
        parse_database(text).unwrap().facts().cloned().collect()
    }

    #[test]
    fn incremental_chase_reaches_the_skolem_fixpoint() {
        let program =
            parse_program("person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y).")
                .unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::with_max_steps(50)).unwrap();
        let summary = chase.assert_facts(facts("person(alice).")).unwrap();
        assert_eq!(summary.added_facts, 1);
        assert_eq!(summary.derived, 2, "hasFather + sameAs");
        let query = parse_query("?- hasFather(alice, Y), sameAs(Y, Y).").unwrap();
        assert!(query.holds(chase.instance()));
    }

    #[test]
    fn diverging_asserts_are_rolled_back_transactionally() {
        let program = parse_program("person(X) -> parent(X, Y), person(Y).").unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::with_max_steps(25)).unwrap();
        let before = chase.mark();
        let err = chase.assert_facts(facts("person(adam).")).unwrap_err();
        assert_eq!(err.max_steps, 25);
        // The failed assert left no trace: facts, derivations and witnesses
        // are all rolled back.
        assert_eq!(chase.mark(), before);
        assert!(chase.instance().is_empty());
        assert_eq!(chase.nulls_created(), 0);
    }

    #[test]
    fn split_asserts_equal_the_single_batch_fixpoint() {
        let program = parse_program(
            "e(X, Y) -> n(X). e(X, Y) -> n(Y). n(X) -> l(X, Z). e(X, Y), e(Y, Z) -> e(X, Z).",
        )
        .unwrap();
        let config = ChaseConfig::default();
        let all = "e(a, b). e(b, c). e(c, d).";
        let mut single = IncrementalChase::new(&program, config.clone()).unwrap();
        single.assert_facts(facts(all)).unwrap();
        let mut split = IncrementalChase::new(&program, config.clone()).unwrap();
        split.assert_facts(facts("e(c, d).")).unwrap();
        split.assert_facts(facts("e(a, b).")).unwrap();
        split.assert_facts(facts("e(b, c).")).unwrap();
        // Same atom set — canonical null names included.
        assert_eq!(
            single.instance().sorted_atoms(),
            split.instance().sorted_atoms()
        );
        assert_eq!(single.nulls_created(), split.nulls_created());
    }

    #[test]
    fn incremental_chase_agrees_with_the_batch_skolem_chase() {
        let database = parse_database("emp(ann). emp(bo). dept(hr).").unwrap();
        let program = parse_program("emp(X) -> worksIn(X, D). worksIn(X, D) -> unit(D).").unwrap();
        let batch = skolem_chase(&database, &program, &ChaseConfig::default());
        let mut incremental = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        incremental.assert_facts(database.facts().cloned()).unwrap();
        // Same instance up to null renaming: sizes, witness counts and
        // null-free query answers coincide with the existing batch engine.
        assert_eq!(incremental.instance().len(), batch.instance.len());
        assert_eq!(incremental.nulls_created(), batch.nulls_created);
        let query = parse_query("?- worksIn(ann, D), unit(D).").unwrap();
        assert!(query.holds(incremental.instance()));
    }

    #[test]
    fn retract_to_restores_an_earlier_epoch_exactly() {
        let program = parse_program("p(X) -> q(X, Y). q(X, Y) -> r(Y).").unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        chase.assert_facts(facts("p(a).")).unwrap();
        let mark = chase.mark();
        let frozen: Vec<Atom> = chase.instance().atoms().cloned().collect();
        chase.assert_facts(facts("p(b). p(c).")).unwrap();
        assert!(chase.instance().len() > frozen.len());
        chase.retract_to(&mark);
        assert_eq!(
            chase.instance().atoms().cloned().collect::<Vec<_>>(),
            frozen
        );
        assert_eq!(chase.mark(), mark);
        // Re-growing after a retract reaches the same state as never having
        // retracted a sibling batch: canonical naming is history-free.
        let mut fresh = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        fresh.assert_facts(facts("p(a).")).unwrap();
        fresh.assert_facts(facts("p(d).")).unwrap();
        chase.assert_facts(facts("p(d).")).unwrap();
        assert_eq!(
            chase.instance().sorted_atoms(),
            fresh.instance().sorted_atoms()
        );
    }

    #[test]
    fn marks_expose_their_watermarks_and_deltas() {
        let program = parse_program("p(X) -> q(X, Y). q(X, Y) -> r(Y).").unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        chase.assert_facts(facts("p(a).")).unwrap();
        let mark = chase.mark();
        assert_eq!(mark.arena_len(), chase.instance().len());
        // One (rule, frontier) entry for the existential rule's trigger; the
        // existential-free rule `q(X, Y) -> r(Y)` memoises nothing.
        assert_eq!(mark.witnesses(), 1);
        assert_eq!(mark.steps(), chase.steps());
        assert_eq!(chase.atoms_since(&mark).count(), 0);
        chase.assert_facts(facts("p(b).")).unwrap();
        let delta: Vec<Atom> = chase.atoms_since(&mark).cloned().collect();
        assert_eq!(delta.len(), chase.instance().len() - mark.arena_len());
        assert!(delta.contains(&atom("p", vec![cst("b")])));
        // The delta is exactly the suffix the next epoch would retract.
        chase.retract_to(&mark);
        assert_eq!(chase.atoms_since(&mark).count(), 0);
    }

    #[test]
    fn datalog_sessions_leave_the_memo_empty_and_still_roll_back_exactly() {
        let program =
            parse_program("e(X, Y) -> p(X, Y). p(X, Y), e(Y, Z) -> p(X, Z). p(X, X) -> loop(X).")
                .unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        let mut marks = vec![chase.mark()];
        let mut arenas = vec![Vec::new()];
        for batch in [
            "e(a, b). e(b, c).",
            "e(c, a).",
            "e(c, d). e(d, e).",
            "e(e, a).",
        ] {
            chase.assert_facts(facts(batch)).unwrap();
            marks.push(chase.mark());
            arenas.push(chase.instance().atoms().cloned().collect::<Vec<_>>());
        }
        assert!(chase.steps() > 0);
        assert!(chase.instance().contains(&atom("loop", vec![cst("a")])));
        // No trigger of an existential-free rule touches the memo.
        assert!(chase.witnesses.is_empty());
        assert!(chase.witness_log.is_empty());
        assert!(chase.null_owner.is_empty());
        assert!(marks.iter().all(|mark| mark.witnesses() == 0));
        assert_eq!(chase.nulls_created(), 0);
        // Rolling back across several epochs restores each arena exactly,
        // and re-asserting the rolled-back batch regrows the same arena.
        for epoch in (0..marks.len() - 1).rev() {
            chase.retract_to(&marks[epoch]);
            assert_eq!(chase.mark(), marks[epoch]);
            assert_eq!(
                chase.instance().atoms().cloned().collect::<Vec<_>>(),
                arenas[epoch],
                "epoch {epoch}"
            );
        }
        chase.assert_facts(facts("e(a, b). e(b, c).")).unwrap();
        assert_eq!(
            chase.instance().atoms().cloned().collect::<Vec<_>>(),
            arenas[1]
        );
        assert_eq!(chase.mark(), marks[1]);
    }

    #[test]
    fn duplicate_facts_and_derived_facts_are_no_ops() {
        let program = parse_program("p(X) -> q(X).").unwrap();
        let mut chase = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        chase.assert_facts(facts("p(a).")).unwrap();
        let len = chase.instance().len();
        let summary = chase
            .assert_facts(vec![atom("p", vec![cst("a")]), atom("q", vec![cst("a")])])
            .unwrap();
        assert_eq!(summary.added_facts, 0);
        assert_eq!(summary.derived, 0);
        assert_eq!(chase.instance().len(), len);
    }

    #[test]
    fn empty_body_rules_fire_in_the_initial_chase() {
        let program = parse_program("-> axiom(c).").unwrap();
        let chase = IncrementalChase::new(&program, ChaseConfig::default()).unwrap();
        assert!(chase.instance().contains(&atom("axiom", vec![cst("c")])));
    }

    #[test]
    fn forked_chase_equals_a_from_scratch_session() {
        let program = parse_program(
            "e(X, Y) -> n(X). e(X, Y) -> n(Y). n(X) -> l(X, Z). e(X, Y), e(Y, Z) -> e(X, Z).",
        )
        .unwrap();
        let config = ChaseConfig::default();
        let mut builder = IncrementalChase::new(&program, config.clone()).unwrap();
        builder.assert_facts(facts("e(a, b). e(b, c).")).unwrap();
        let base = builder.freeze();
        // A fork that asserts a delta must match a private from-scratch
        // session asserting base facts then the delta — same atom set,
        // canonical null names included, and same counters.
        let mut fork = IncrementalChase::fork(&base, config.clone());
        fork.assert_facts(facts("e(c, d).")).unwrap();
        let mut private = IncrementalChase::new(&program, config.clone()).unwrap();
        private.assert_facts(facts("e(a, b). e(b, c).")).unwrap();
        private.assert_facts(facts("e(c, d).")).unwrap();
        assert_eq!(
            fork.instance().sorted_atoms(),
            private.instance().sorted_atoms()
        );
        assert_eq!(fork.nulls_created(), private.nulls_created());
        assert_eq!(fork.steps(), private.steps());
        assert_eq!(fork.instance().len(), private.instance().len());
        // The arena order is also identical: both chase the delta from the
        // same fixpoint with the same plans.
        assert_eq!(
            fork.instance().atoms().cloned().collect::<Vec<_>>(),
            private.instance().atoms().cloned().collect::<Vec<_>>()
        );
    }

    #[test]
    fn forks_share_the_base_and_stay_independent() {
        let program = parse_program("p(X) -> q(X, Y).").unwrap();
        let config = ChaseConfig::default();
        let mut builder = IncrementalChase::new(&program, config.clone()).unwrap();
        builder.assert_facts(facts("p(a).")).unwrap();
        let base = builder.freeze();
        let mut f1 = IncrementalChase::fork(&base, config.clone());
        let mut f2 = IncrementalChase::fork(&base, config.clone());
        assert!(f1.base().is_some());
        assert_eq!(f1.instance().base_len(), base.instance().len());
        f1.assert_facts(facts("p(b).")).unwrap();
        f2.assert_facts(facts("p(c).")).unwrap();
        assert!(f1.instance().contains(&atom("p", vec![cst("b")])));
        assert!(!f1.instance().contains(&atom("p", vec![cst("c")])));
        assert!(f2.instance().contains(&atom("p", vec![cst("c")])));
        // Both forks see the shared base atom and witness memo: asserting a
        // base fact again is a no-op.
        let summary = f1.assert_facts(facts("p(a).")).unwrap();
        assert_eq!(summary.added_facts, 0);
        assert_eq!(summary.derived, 0);
    }

    #[test]
    fn forked_retract_rolls_back_to_the_fork_watermark() {
        let program = parse_program("p(X) -> q(X, Y).").unwrap();
        let config = ChaseConfig::default();
        let mut builder = IncrementalChase::new(&program, config.clone()).unwrap();
        builder.assert_facts(facts("p(a).")).unwrap();
        let base = builder.freeze();
        let mut fork = IncrementalChase::fork(&base, config.clone());
        let fork_mark = fork.mark();
        assert_eq!(fork_mark.arena_len(), base.instance().len());
        fork.assert_facts(facts("p(b).")).unwrap();
        fork.retract_to(&fork_mark);
        assert_eq!(fork.mark(), fork_mark);
        assert_eq!(fork.instance().len(), base.instance().len());
        assert_eq!(fork.nulls_created(), 1, "base witnesses survive");
        // Transactional rollback of a diverging assert works on forks too.
        let diverging = parse_program("p(X) -> r(X, Y), p(Y).").unwrap();
        let mut seed = IncrementalChase::new(&diverging, ChaseConfig::with_max_steps(25)).unwrap();
        seed.assert_facts(facts("q(z).")).unwrap();
        let dbase = seed.freeze();
        let mut dfork = IncrementalChase::fork(&dbase, ChaseConfig::with_max_steps(25));
        let before = dfork.mark();
        dfork.assert_facts(facts("p(adam).")).unwrap_err();
        assert_eq!(dfork.mark(), before);
    }

    #[test]
    #[should_panic(expected = "below the fork watermark")]
    fn forked_retract_below_the_base_panics() {
        let program = parse_program("p(X) -> q(X, Y).").unwrap();
        let config = ChaseConfig::default();
        let mut builder = IncrementalChase::new(&program, config.clone()).unwrap();
        let early = builder.mark();
        builder.assert_facts(facts("p(a).")).unwrap();
        let base = builder.freeze();
        let mut fork = IncrementalChase::fork(&base, config);
        fork.retract_to(&early);
    }

    #[test]
    #[should_panic(expected = "freeze of a forked chase")]
    fn freezing_a_fork_panics() {
        let program = parse_program("p(X) -> q(X, Y).").unwrap();
        let config = ChaseConfig::default();
        let mut builder = IncrementalChase::new(&program, config.clone()).unwrap();
        builder.assert_facts(facts("p(a).")).unwrap();
        let base = builder.freeze();
        IncrementalChase::fork(&base, config).freeze();
    }

    #[test]
    fn canonical_null_ids_are_content_addressed() {
        let key: WitnessKey = (3, vec![cst("a"), Term::Null(7)]);
        assert_eq!(canonical_null_id(&key, 0, 0), canonical_null_id(&key, 0, 0));
        assert_ne!(canonical_null_id(&key, 0, 0), canonical_null_id(&key, 1, 0));
        assert_ne!(canonical_null_id(&key, 0, 0), canonical_null_id(&key, 0, 1));
        let other: WitnessKey = (3, vec![cst("a"), Term::Null(8)]);
        assert_ne!(
            canonical_null_id(&key, 0, 0),
            canonical_null_id(&other, 0, 0)
        );
    }
}
