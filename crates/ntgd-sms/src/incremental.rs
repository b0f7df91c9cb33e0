//! **Incremental `MODELS`**: a session-resident possibly-true closure and
//! grounding that survive across fact assertions and retractions.
//!
//! The batch pipeline rebuilds `SM[D,Σ]` from scratch for every request:
//! candidate domain, possibly-true closure, rule instantiation, then the
//! CEGAR search.  A long-lived reasoning session (see `ntgd-server`) asserts
//! small fact deltas between `MODELS` requests, so almost all of that work
//! is identical from request to request.  [`IncrementalSmsState`] keeps the
//! expensive middle of the pipeline alive:
//!
//! * the **possibly-true closure** is advanced semi-naively — the facts
//!   asserted since the last request seed the closure worklist at the
//!   pre-assert watermark (`advance_possibly_true_closure`), so matching
//!   cost is proportional to the delta neighbourhood, never the instance;
//! * the **grounding** appends only rule instances whose positive-body
//!   homomorphism touches a closure-new atom (`collect_pending` with the
//!   same watermark), executing the rule plans compiled once per program;
//! * the **atom table** is truncatable ([`crate::grounding::AtomTable::truncate`]), so
//!   `RETRACT-TO` rolls closure, table and rule list back to an earlier
//!   snapshot in `O(retracted)` — exactly like the arena epoch rollback of
//!   [`ntgd_core::Interpretation::truncate`].
//!
//! # Caching contract (what invalidates what)
//!
//! The cached state is a function of `(program, candidate domain, live fact
//! set)`.  Per request the state recomputes the candidate domain — exactly
//! [`build_domain`], so the grounding is semantically identical to the
//! from-scratch engine's and an *untruncated* model enumeration returns the
//! same set.  (The cached atom table orders delta atoms by arrival rather
//! than by the fresh build's sorted intern, so a `max_models`-truncated
//! enumeration may sample different members of that set than a from-scratch
//! run — on either path, capped listings are samples, not a canonical
//! prefix.)  Then:
//!
//! * **unchanged fact set** → the cached grounding is returned untouched
//!   (a *hit*);
//! * **new facts, same domain** → semi-naive closure advance + grounding
//!   append (a *reuse*): sound because the pre-assert state is a fixpoint of
//!   the closure operator over the same domain, so the delta worklist finds
//!   exactly the new derivations;
//! * **domain changed** (a new constant entered the active domain, or the
//!   `Auto` null budget moved) → full rebuild (a *rebuild*): a grown domain
//!   retroactively adds existential instantiations to *old* rule instances,
//!   which no append-only advance can express;
//! * **retraction** → truncate back to the newest snapshot at or below the
//!   target fact count (a *rollback*); retracting past the oldest snapshot
//!   drops the state entirely (an *invalidation*, the next request
//!   rebuilds).
//!
//! For programs whose positive part has no existential variables the `Auto`
//! null budget is provably zero, so the per-request domain recomputation
//! skips the restricted chase entirely; programs *with* existentials pay the
//! same `Auto`-budget chase as the from-scratch engine (the budget is
//! defined by a from-scratch restricted chase and is not incrementalisable
//! without changing answers).
//!
//! All counters and the cached state itself are deterministic across worker
//! counts: every parallel pass used here inherits the
//! ordered-merge contract of [`ntgd_core::parallel`].

use std::collections::BTreeSet;
use std::sync::Arc;

use ntgd_core::{obs, Atom, CompiledDisjunctiveRuleSet, Database, DisjunctiveProgram};

use crate::grounding::{
    advance_possibly_true_closure, collect_pending, existentials_for_program,
    ground_sms_with_plans, intern_pending, GroundSmsProgram, GroundSmsRule, GroundingError,
    GroundingLimits,
};
use crate::universe::{build_domain, NullBudget};

/// Process-wide closure-maintenance counters: cheap-path advances versus
/// full regroundings (the expensive path an operator wants to watch).
static SMS_CLOSURE_ADVANCES: obs::Counter = obs::Counter::new("sms.closure_advances");
static SMS_GROUNDINGS: obs::Counter = obs::Counter::new("sms.groundings");

/// Cumulative reuse counters of one [`IncrementalSmsState`].
///
/// Every counter is a pure function of the request history (never of thread
/// count or timing), so services can assert them in transcripts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmsReuseStats {
    /// Requests answered by building closure + grounding from scratch.
    pub rebuilds: u64,
    /// Requests answered by advancing the cached closure/grounding
    /// semi-naively from the fact delta.
    pub reuses: u64,
    /// Requests answered with the cached grounding untouched (no new facts).
    pub hits: u64,
    /// Retractions absorbed by truncating to an earlier snapshot.
    pub rollbacks: u64,
    /// Retractions below the oldest snapshot (state dropped; the next
    /// request rebuilds).
    pub invalidations: u64,
}

/// One rollback point of the cached state: everything needed to truncate
/// closure, atom table, `possibly_true` flags, rule list and fact ids back
/// to the grounding of an earlier fact prefix.
///
/// Deliberately a handful of watermarks, not copies of derivable data: the
/// candidate domain is invariant across the snapshots of one live state
/// (an advance requires domain equality; a domain change rebuilds and
/// resets the snapshot list), and the database-fact identifiers are
/// re-derived lazily after a rollback (`facts_stale`) — so a long session
/// retains O(1) memory per snapshot, not O(facts).
#[derive(Clone, Copy, Debug)]
struct SmsSnapshot {
    /// Number of session facts this snapshot grounds.
    facts: usize,
    /// Closure arena watermark.
    closure_len: usize,
    /// Atom-table watermark.
    atoms_len: usize,
    /// Ground-rule watermark.
    rules_len: usize,
    /// `flip_log` watermark (possibly-true flags flipped after this point
    /// are reset on rollback).
    flips: usize,
}

/// The live cached grounding plus the bookkeeping to advance and roll it
/// back.
struct LiveState {
    /// Rule plans, compiled once per rebuild and executed by every advance.
    plans: Arc<CompiledDisjunctiveRuleSet>,
    /// The maintained grounding (closure, atom table, flags, rules, facts).
    ground: GroundSmsProgram,
    /// Instance dedup across advances (duplicate instances can arise from
    /// distinct homomorphisms that agree on the instantiated rule).
    seen: BTreeSet<GroundSmsRule>,
    /// Atom ids whose `possibly_true` flag was flipped `false → true` by an
    /// advance (a negated-body atom that later entered the closure), in flip
    /// order — the rollback log for those flags.
    flip_log: Vec<usize>,
    /// Snapshots in fact-count order (always at least one: the rebuild).
    snapshots: Vec<SmsSnapshot>,
    /// How many facts of the session log this state has consumed.
    facts_consumed: usize,
    /// Set by a rollback: `ground.facts` lists ids for retracted facts and
    /// must be re-derived from the live fact log before the grounding is
    /// handed out (the ids themselves are stable — only the list is stale).
    facts_stale: bool,
}

/// Reusable SMS grounding state for one loaded program: see the module
/// documentation for the caching contract.
pub struct IncrementalSmsState {
    program: Arc<DisjunctiveProgram>,
    null_budget: NullBudget,
    limits: GroundingLimits,
    existentials_by_rule: Vec<Vec<Vec<ntgd_core::Symbol>>>,
    /// Whether any rule has an existential variable (when not, the `Auto`
    /// null budget is zero without running a chase).
    has_existentials: bool,
    live: Option<LiveState>,
    stats: SmsReuseStats,
}

impl IncrementalSmsState {
    /// Creates an empty state for a program; the first
    /// [`IncrementalSmsState::ensure_current`] call performs the initial
    /// (from-scratch) build.
    pub fn new(
        program: Arc<DisjunctiveProgram>,
        null_budget: NullBudget,
        limits: GroundingLimits,
    ) -> IncrementalSmsState {
        let existentials_by_rule = existentials_for_program(&program);
        let has_existentials = existentials_by_rule
            .iter()
            .flatten()
            .any(|exist| !exist.is_empty());
        IncrementalSmsState {
            program,
            null_budget,
            limits,
            existentials_by_rule,
            has_existentials,
            live: None,
            stats: SmsReuseStats::default(),
        }
    }

    /// The cumulative reuse counters.
    pub fn stats(&self) -> SmsReuseStats {
        self.stats
    }

    /// Current possibly-true closure size (0 before the first build).
    pub fn closure_atoms(&self) -> usize {
        self.live
            .as_ref()
            .map(|live| live.ground.closure.len())
            .unwrap_or(0)
    }

    /// Current number of cached ground rule instances.
    pub fn ground_rules(&self) -> usize {
        self.live
            .as_ref()
            .map(|live| live.ground.rules.len())
            .unwrap_or(0)
    }

    /// Brings the cached grounding up to date with the live fact log and
    /// returns it.  `facts` must be a deduplicated log that extends (or
    /// equals) the prefix this state has already consumed — retractions go
    /// through [`IncrementalSmsState::retract_to_facts`] first, which the
    /// session guarantees.
    ///
    /// On error the state is left at its previous snapshot (advances are
    /// transactional), except that a failed *rebuild* drops the state.
    ///
    /// # Panics
    ///
    /// Panics if a fact contains a variable or a labelled null (the session
    /// validates facts before accepting them, like
    /// [`Database::from_facts`]).
    pub fn ensure_current(&mut self, facts: &[Atom]) -> Result<&GroundSmsProgram, GroundingError> {
        if let Some(live) = self.live.as_mut() {
            if live.facts_consumed == facts.len() {
                if live.facts_stale {
                    Self::refresh_facts(live, facts);
                }
                self.stats.hits += 1;
                return Ok(&self.live.as_ref().expect("checked above").ground);
            }
        }
        let database =
            Database::from_facts(facts.iter().cloned()).expect("session facts are constant-only");
        let budget = match self.null_budget {
            // No existential variables anywhere: the restricted chase of the
            // positive part cannot invent a null, so the Auto budget is zero
            // — skip the per-request chase.
            NullBudget::Auto | NullBudget::AutoExact if !self.has_existentials => {
                NullBudget::Exact(0)
            }
            budget => budget,
        };
        let domain = build_domain(&database, &self.program, None, budget);
        if let Some(live) = self.live.as_mut() {
            if live.facts_consumed <= facts.len() && live.ground.domain == domain {
                let _advance = obs::span("sms.advance");
                SMS_CLOSURE_ADVANCES.incr();
                match Self::advance(
                    live,
                    &self.program,
                    &self.existentials_by_rule,
                    &self.limits,
                    facts,
                ) {
                    Ok(()) => {
                        self.stats.reuses += 1;
                        return Ok(&self.live.as_ref().expect("advanced above").ground);
                    }
                    Err(error) => return Err(error),
                }
            }
        }
        self.stats.rebuilds += 1;
        SMS_GROUNDINGS.incr();
        let _grounding = obs::span("sms.grounding");
        let plans = Arc::new(CompiledDisjunctiveRuleSet::from_disjunctive(
            &self.program,
            &database.to_interpretation(),
        ));
        let built = ground_sms_with_plans(&database, &self.program, &plans, &domain, &self.limits);
        let (ground, seen) = match built {
            Ok(result) => result,
            Err(error) => {
                // A failed rebuild leaves nothing to reuse: the old state
                // (if any) grounds a different domain or fact prefix.
                self.live = None;
                return Err(error);
            }
        };
        let snapshot = SmsSnapshot {
            facts: facts.len(),
            closure_len: ground.closure.len(),
            atoms_len: ground.atoms.len(),
            rules_len: ground.rules.len(),
            flips: 0,
        };
        self.live = Some(LiveState {
            plans,
            ground,
            seen,
            flip_log: Vec::new(),
            snapshots: vec![snapshot],
            facts_consumed: facts.len(),
            facts_stale: false,
        });
        Ok(&self.live.as_ref().expect("just built").ground)
    }

    /// Rolls the cached state back so it grounds at most the first `facts`
    /// session facts: truncates to the newest snapshot at or below that
    /// count (`O(atoms + rules retracted)`), or drops the state when no such
    /// snapshot survives.  A no-op when the state has not consumed past the
    /// target.
    pub fn retract_to_facts(&mut self, facts: usize) {
        let Some(live) = self.live.as_mut() else {
            return;
        };
        if live.facts_consumed <= facts {
            return;
        }
        while live.snapshots.last().is_some_and(|s| s.facts > facts) {
            live.snapshots.pop();
        }
        match live.snapshots.last() {
            None => {
                self.live = None;
                self.stats.invalidations += 1;
            }
            Some(&snapshot) => {
                Self::roll_back(live, &snapshot);
                self.stats.rollbacks += 1;
            }
        }
    }

    /// Advances a live state to cover `facts`: inserts the delta facts,
    /// closes semi-naively from the pre-assert watermark, interns the
    /// closure-new atoms and appends the rule instances their bindings
    /// enable.  Transactional: on error the state is truncated back to the
    /// pre-advance snapshot.
    fn advance(
        live: &mut LiveState,
        program: &DisjunctiveProgram,
        existentials_by_rule: &[Vec<Vec<ntgd_core::Symbol>>],
        limits: &GroundingLimits,
        facts: &[Atom],
    ) -> Result<(), GroundingError> {
        let before = SmsSnapshot {
            facts: live.facts_consumed,
            closure_len: live.ground.closure.len(),
            atoms_len: live.ground.atoms.len(),
            rules_len: live.ground.rules.len(),
            flips: live.flip_log.len(),
        };
        let closure_watermark = live.ground.closure.len();
        for fact in &facts[live.facts_consumed..] {
            live.ground.closure.insert(fact.clone());
        }
        let advanced = advance_possibly_true_closure(
            &mut live.ground.closure,
            program,
            &live.plans,
            existentials_by_rule,
            &live.ground.domain,
            limits,
            closure_watermark,
        )
        .and_then(|()| {
            // Intern the closure delta: brand-new atoms extend the table as
            // possibly true; atoms previously interned as negated-body atoms
            // flip to possibly true (logged for rollback).
            let new_atoms: Vec<Atom> = live
                .ground
                .closure
                .atoms_from(closure_watermark)
                .cloned()
                .collect();
            for atom in new_atoms {
                let id = live.ground.atoms.intern(atom);
                if id == live.ground.possibly_true.len() {
                    live.ground.possibly_true.push(true);
                } else if !live.ground.possibly_true[id] {
                    live.ground.possibly_true[id] = true;
                    live.flip_log.push(id);
                }
            }
            let buckets = collect_pending(
                program,
                &live.plans,
                existentials_by_rule,
                &live.ground.domain,
                &live.ground.closure,
                closure_watermark,
                &live.ground.atoms,
                limits,
                live.ground.rules.len(),
            );
            intern_pending(
                buckets,
                &mut live.ground.atoms,
                &mut live.ground.possibly_true,
                &mut live.ground.rules,
                &mut live.seen,
                limits,
            )
        });
        if let Err(error) = advanced {
            Self::roll_back(live, &before);
            return Err(error);
        }
        // Fact ids: append the delta (ids are stable and the log is
        // deduplicated); after a rollback the whole list is re-derived once.
        if live.facts_stale {
            Self::refresh_facts(live, facts);
        } else {
            let consumed = live.facts_consumed;
            for fact in &facts[consumed..] {
                live.ground.facts.push(
                    live.ground
                        .atoms
                        .id_of(fact)
                        .expect("asserted facts are in the closure"),
                );
            }
        }
        live.facts_consumed = facts.len();
        live.snapshots.push(SmsSnapshot {
            facts: facts.len(),
            closure_len: live.ground.closure.len(),
            atoms_len: live.ground.atoms.len(),
            rules_len: live.ground.rules.len(),
            flips: live.flip_log.len(),
        });
        Ok(())
    }

    /// Re-derives `ground.facts` from the live fact log (every live fact is
    /// in the closure, so its table id exists) and clears the stale flag.
    fn refresh_facts(live: &mut LiveState, facts: &[Atom]) {
        live.ground.facts = facts
            .iter()
            .map(|fact| {
                live.ground
                    .atoms
                    .id_of(fact)
                    .expect("live facts are in the closure")
            })
            .collect();
        live.facts_stale = false;
    }

    /// Truncates a live state to a snapshot, in time proportional to what is
    /// being retracted: flipped flags are reset from the flip log, the atom
    /// table and flag vector are truncated, rule instances are removed from
    /// the dedup set and the closure arena is rolled back.
    fn roll_back(live: &mut LiveState, snapshot: &SmsSnapshot) {
        for id in live.flip_log.drain(snapshot.flips..) {
            live.ground.possibly_true[id] = false;
        }
        live.ground.atoms.truncate(snapshot.atoms_len);
        live.ground.possibly_true.truncate(snapshot.atoms_len);
        live.ground.closure.truncate(snapshot.closure_len);
        for rule in &live.ground.rules[snapshot.rules_len..] {
            live.seen.remove(rule);
        }
        live.ground.rules.truncate(snapshot.rules_len);
        // The domain is invariant across the snapshots of one live state, so
        // nothing to restore there; the fact-id list is re-derived lazily.
        live.facts_stale = true;
        live.facts_consumed = snapshot.facts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SmsEngine, SmsOptions};
    use ntgd_core::Interpretation;
    use ntgd_parser::{parse_database, parse_unit};

    fn state(rules: &str) -> (Arc<DisjunctiveProgram>, IncrementalSmsState) {
        let program = Arc::new(parse_unit(rules).unwrap().disjunctive_program().unwrap());
        let state = IncrementalSmsState::new(
            Arc::clone(&program),
            NullBudget::Auto,
            GroundingLimits::default(),
        );
        (program, state)
    }

    fn facts(text: &str) -> Vec<Atom> {
        parse_database(text).unwrap().facts().cloned().collect()
    }

    /// Sorted model renderings via the incremental state.
    fn models_incremental(
        program: &Arc<DisjunctiveProgram>,
        state: &mut IncrementalSmsState,
        live: &[Atom],
    ) -> Vec<String> {
        let ground = state.ensure_current(live).unwrap();
        let engine = SmsEngine::new_shared(Arc::clone(program));
        let mut rendered: Vec<String> = engine
            .stable_model_ids_over(ground, 1024)
            .unwrap()
            .iter()
            .map(|model| {
                Interpretation::from_atoms(
                    model.ids().iter().map(|&id| ground.atoms.atom(id).clone()),
                )
                .to_string()
            })
            .collect();
        rendered.sort();
        rendered
    }

    /// Sorted model renderings via the from-scratch oracle.
    fn models_oracle(program: &Arc<DisjunctiveProgram>, live: &[Atom]) -> Vec<String> {
        let database = Database::from_facts(live.iter().cloned()).unwrap();
        let engine = SmsEngine::new_shared(Arc::clone(program)).with_options(SmsOptions {
            max_models: 1024,
            ..SmsOptions::default()
        });
        let mut rendered: Vec<String> = engine
            .stable_models(&database)
            .unwrap()
            .iter()
            .map(Interpretation::to_string)
            .collect();
        rendered.sort();
        rendered
    }

    #[test]
    fn advance_matches_the_oracle_when_the_domain_is_stable() {
        // All constants are introduced up front (the `seen` facts), so
        // asserting edges never changes the candidate domain and every
        // request after the first is a semi-naive advance.
        let (program, mut state) =
            state("e(X, Y), not blocked(X) -> r(X, Y). r(X, Y), e(Y, Z) -> r(X, Z).");
        let mut live = facts("seen(a). seen(b). seen(c). blocked(c).");
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        for batch in ["e(a, b).", "e(b, c).", "e(c, a)."] {
            live.extend(facts(batch));
            assert_eq!(
                models_incremental(&program, &mut state, &live),
                models_oracle(&program, &live)
            );
        }
        let stats = state.stats();
        assert_eq!(stats.rebuilds, 1, "only the initial build is from scratch");
        assert_eq!(stats.reuses, 3);
    }

    #[test]
    fn domain_growth_forces_a_rebuild_and_still_matches() {
        let (program, mut state) = state("p(X) -> q(X). q(X), not r(X) -> s(X).");
        let mut live = facts("p(a).");
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        live.extend(facts("p(b).")); // new constant: the domain grows
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        assert_eq!(state.stats().rebuilds, 2);
        assert_eq!(state.stats().reuses, 0);
    }

    #[test]
    fn existential_programs_follow_the_auto_budget() {
        // Asserting a person moves the Auto null budget, so the state must
        // rebuild — and agree with the oracle — at every step.
        let (program, mut state) = state("person(X) -> hasFather(X, Y).");
        let mut live = facts("person(alice).");
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        live.extend(facts("person(carol)."));
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
    }

    #[test]
    fn unchanged_facts_are_cache_hits() {
        let (program, mut state) = state("p(X), not q(X) -> r(X).");
        let live = facts("p(a). q(a).");
        let first = models_incremental(&program, &mut state, &live);
        let second = models_incremental(&program, &mut state, &live);
        assert_eq!(first, second);
        assert_eq!(state.stats().hits, 1);
        assert_eq!(state.stats().rebuilds, 1);
    }

    #[test]
    fn retract_truncates_to_a_snapshot_and_regrows_identically() {
        let (program, mut state) =
            state("e(X, Y) -> n(X). e(X, Y) -> n(Y). n(X), not sink(X) -> live(X).");
        let base = facts("seen(a). seen(b). seen(c). sink(c).");
        let mut live = base.clone();
        let base_models = models_incremental(&program, &mut state, &live);
        live.extend(facts("e(a, b)."));
        models_incremental(&program, &mut state, &live);
        live.extend(facts("e(b, c)."));
        let grown_models = models_incremental(&program, &mut state, &live);

        // Retract to the base prefix: the rollback truncates, never rebuilds.
        state.retract_to_facts(base.len());
        live.truncate(base.len());
        assert_eq!(models_incremental(&program, &mut state, &live), base_models);
        let stats = state.stats();
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.rebuilds, 1, "no re-ground after retract");

        // Re-growing the same facts reaches the same models again.
        live.extend(facts("e(a, b). e(b, c)."));
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            grown_models
        );
        assert_eq!(state.stats().rebuilds, 1);
    }

    #[test]
    fn retract_below_the_oldest_snapshot_invalidates() {
        let (program, mut state) = state("p(X), not q(X) -> r(X).");
        let live = facts("p(a). p(b).");
        models_incremental(&program, &mut state, &live);
        state.retract_to_facts(1);
        assert_eq!(state.stats().invalidations, 1);
        // The next request rebuilds from the shorter prefix and agrees.
        let shorter = facts("p(a).");
        assert_eq!(
            models_incremental(&program, &mut state, &shorter),
            models_oracle(&program, &shorter)
        );
        assert_eq!(state.stats().rebuilds, 2);
    }

    #[test]
    fn asserting_a_previously_negated_atom_flips_it_possibly_true() {
        // q(a) first enters the grounding as a negated-body atom (possibly
        // false); asserting it later must flip the flag — and retracting
        // must flip it back.
        let (program, mut state) = state("p(X), not q(X) -> r(X). seen(X) -> reach(X).");
        let mut live = facts("p(a). seen(a).");
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        let marker = live.len();
        live.extend(facts("q(a)."));
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        assert_eq!(state.stats().reuses, 1, "q(a) adds no domain term");
        state.retract_to_facts(marker);
        live.truncate(marker);
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
    }

    #[test]
    fn disjunctive_programs_advance_incrementally() {
        let (program, mut state) =
            state("node(X) -> red(X) | green(X). edge(X, Y), red(X), red(Y) -> clash.");
        let mut live = facts("seen(u). seen(v).");
        models_incremental(&program, &mut state, &live);
        live.extend(facts("node(u)."));
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        live.extend(facts("node(v). edge(u, v)."));
        assert_eq!(
            models_incremental(&program, &mut state, &live),
            models_oracle(&program, &live)
        );
        assert_eq!(state.stats().reuses, 2);
    }
}
