//! Triggers: a rule together with a homomorphism from its (positive) body.
//!
//! Chase worklists use the `*_compiled` variants together with a
//! [`CompiledRuleSet`] built once per run, so rule bodies and heads are
//! compiled and planned exactly once; the plain variants compile one-shot
//! plans per call and are kept for tests and callers outside fixpoint loops.

use ntgd_core::{
    matcher, parallel, Atom, CompiledRule, CompiledRuleSet, Interpretation, Ntgd, NullFactory,
    Program, SlotBinding, Substitution, Term,
};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of restricted-chase activity checks (head-satisfaction
/// probes), for tests asserting that the head-predicate deactivation index
/// actually skips re-checks.  The counter is global (like
/// `matcher::plan_compile_count`) so checks performed on pool workers stay
/// visible.
static ACTIVITY_CHECKS: AtomicU64 = AtomicU64::new(0);

/// The number of activity checks performed so far, process-wide.
pub fn activity_check_count() -> u64 {
    ACTIVITY_CHECKS.load(Ordering::Relaxed)
}

/// A trigger `(σ, h)`: rule index and a homomorphism from the positive body of
/// `σ` into the current instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// Index of the rule in the program.
    pub rule_index: usize,
    /// Homomorphism from the positive body into the instance, restricted to
    /// the rule's universal variables.
    pub homomorphism: Substitution,
}

impl Trigger {
    /// The image of the rule's negative body atoms under the trigger's
    /// homomorphism (ground atoms that must *not* appear in the final model
    /// for the trigger to be sound, in the sense of \[3\]).
    pub fn negative_images(&self, rule: &Ntgd) -> Vec<Atom> {
        rule.body_negative()
            .iter()
            .map(|a| self.homomorphism.apply_atom(a))
            .collect()
    }

    /// A canonical key identifying the trigger up to the frontier of the rule
    /// (used by the oblivious chase to apply each trigger at most once).
    pub fn key(&self, rule: &Ntgd) -> (usize, Vec<(Term, Term)>) {
        let frontier: Vec<(Term, Term)> = rule
            .universal_variables()
            .into_iter()
            .map(|v| {
                let t = Term::Var(v);
                (t, self.homomorphism.apply_term(&t))
            })
            .collect();
        (self.rule_index, frontier)
    }
}

/// All triggers of the program on the instance: homomorphisms from the
/// positive body of each rule into the instance (negative literals are
/// ignored — this is the chase of `Σ⁺`).
pub fn all_triggers(program: &Program, instance: &Interpretation) -> Vec<Trigger> {
    triggers_from(program, instance, 0)
}

/// The triggers whose body image uses at least one atom inserted at or after
/// `watermark` (an earlier value of [`Interpretation::len`]).
///
/// `triggers_from(p, i, 0)` is [`all_triggers`]; chase loops call this after
/// every trigger application with the pre-application length, so each round
/// only matches against the newly derived atoms (semi-naive evaluation).
/// Every trigger is discovered exactly once across rounds: in the round that
/// inserted the newest atom of its body image.
pub fn triggers_from(
    program: &Program,
    instance: &Interpretation,
    watermark: usize,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    for (idx, rule) in program.iter() {
        let body_atoms: Vec<Atom> = rule.body_positive().into_iter().cloned().collect();
        for h in matcher::all_atom_homomorphisms_delta(
            &body_atoms,
            instance,
            &Substitution::new(),
            watermark,
        ) {
            out.push(Trigger {
                rule_index: idx,
                homomorphism: h,
            });
        }
    }
    out
}

/// [`triggers_from`] over cached rule plans: the positive-body plan of each
/// rule is executed (never recompiled), and each resulting slot binding is
/// materialised into the stored trigger homomorphism.
///
/// When the round is large enough ([`parallel::MIN_POOLED_WORK`] instance
/// or delta atoms) the enumeration is fanned out over the persistent worker
/// pool as independent `(rule, delta-pivot)` work items, each matching
/// against the read-only `instance` snapshot and emitting into a per-item
/// buffer; the buffers are merged by rule index, then pivot, so the returned
/// trigger sequence is **identical at every thread count** (and identical to
/// the sequential enumeration) — chase worklists, and therefore null
/// invention, stay deterministic.
///
/// `plans` must be built from the same program whose rule indices the
/// triggers refer to.
pub fn triggers_from_compiled(
    plans: &CompiledRuleSet,
    instance: &Interpretation,
    watermark: usize,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    fan_out_triggers(plans, instance, watermark, &mut out, |out, idx, binding| {
        out.push(Trigger {
            rule_index: idx,
            homomorphism: binding.to_substitution(),
        });
    });
    out
}

/// A collection [`fan_out_triggers`] emits into.
pub(crate) trait TriggerSink: Default + Send {
    /// Appends `other`'s contents after this sink's.
    fn append(&mut self, other: Self);
}

impl TriggerSink for Vec<Trigger> {
    fn append(&mut self, mut other: Self) {
        Vec::append(self, &mut other);
    }
}

/// The one `(rule, delta-pivot)` fan-out behind every trigger discovery
/// variant: enumerates every positive-body binding of every rule against the
/// delta suffix and hands each to `emit(sink, rule index, binding)`, which
/// appends whatever its chase keeps of a trigger.
///
/// Work items are ordered by rule index then pivot.  With a zero watermark
/// the whole enumeration of a rule is attributed to pivot 0 (see
/// `CompiledConjunction::for_each_delta_pivot`), so one item per rule
/// suffices.  A round that stays on one thread emits straight into `out`;
/// a pooled round gives each item a sink of its own and appends them to
/// `out` in item order, so `out` receives the same sequence either way.
pub(crate) fn fan_out_triggers<S, F>(
    plans: &CompiledRuleSet,
    instance: &Interpretation,
    watermark: usize,
    out: &mut S,
    emit: F,
) where
    S: TriggerSink,
    F: Fn(&mut S, usize, &SlotBinding<'_>) + Sync,
{
    let pivots = |rule: &CompiledRule| {
        if watermark == 0 {
            1
        } else {
            rule.body_positive().positive_count()
        }
    };
    let work = if watermark == 0 {
        instance.len().max(1)
    } else {
        instance.len().saturating_sub(watermark)
    };
    let empty = Substitution::new();
    let run = |sink: &mut S, idx: usize, pivot: usize| {
        plans.rule(idx).body_positive().for_each_delta_pivot(
            instance,
            &empty,
            watermark,
            pivot,
            &mut |binding| {
                emit(sink, idx, binding);
                ControlFlow::Continue(())
            },
        );
    };
    let item_count: usize = plans.iter().map(|(_, rule)| pivots(rule)).sum();
    let threads = parallel::threads_for(work).min(item_count);
    if threads <= 1 {
        for (idx, rule) in plans.iter() {
            for pivot in 0..pivots(rule) {
                run(out, idx, pivot);
            }
        }
        return;
    }
    let items: Vec<(usize, usize)> = plans
        .iter()
        .flat_map(|(idx, rule)| (0..pivots(rule)).map(move |pivot| (idx, pivot)))
        .collect();
    let buckets = parallel::par_map_with(&items, threads, |_, &(idx, pivot)| {
        let mut sink = S::default();
        run(&mut sink, idx, pivot);
        sink
    });
    for bucket in buckets {
        out.append(bucket);
    }
}

/// [`triggers_from_compiled`] restricted to **active** triggers: each
/// discovered trigger's head-satisfaction check runs inside the same
/// (possibly pool-parallel) work item that produced it, so the restricted
/// chase can queue triggers pre-verified against the frozen snapshot and
/// skip the pop-time re-check whenever no head-relevant atom has arrived
/// since (see the deactivation index in
/// [`restricted_chase`](crate::restricted::restricted_chase)).
///
/// Because instances only grow during a chase run, head satisfaction is
/// monotone: a trigger found *inactive* here can never become active again
/// and is dropped for good.
pub fn active_triggers_from_compiled(
    plans: &CompiledRuleSet,
    instance: &Interpretation,
    watermark: usize,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    fan_out_triggers(plans, instance, watermark, &mut out, |out, idx, binding| {
        let homomorphism = binding.to_substitution();
        ACTIVITY_CHECKS.fetch_add(1, Ordering::Relaxed);
        if !plans.rule(idx).head().exists(instance, &homomorphism) {
            out.push(Trigger {
                rule_index: idx,
                homomorphism,
            });
        }
    });
    out
}

/// Returns `true` if the trigger is *active* in the restricted-chase sense:
/// there is no extension of its homomorphism mapping the head into the
/// instance.
pub fn is_active(trigger: &Trigger, program: &Program, instance: &Interpretation) -> bool {
    let rule = &program.rules()[trigger.rule_index];
    !matcher::exists_atom_homomorphism(rule.head(), instance, &trigger.homomorphism)
}

/// [`is_active`] over cached rule plans: the head plan is executed with the
/// trigger's (ground-valued) homomorphism applied as slot presets, with no
/// per-check compilation.
pub fn is_active_compiled(
    trigger: &Trigger,
    plans: &CompiledRuleSet,
    instance: &Interpretation,
) -> bool {
    ACTIVITY_CHECKS.fetch_add(1, Ordering::Relaxed);
    !plans
        .rule(trigger.rule_index)
        .head()
        .exists(instance, &trigger.homomorphism)
}

/// The active triggers of the program on the instance (restricted chase).
pub fn active_triggers(program: &Program, instance: &Interpretation) -> Vec<Trigger> {
    all_triggers(program, instance)
        .into_iter()
        .filter(|t| is_active(t, program, instance))
        .collect()
}

/// Applies a trigger: instantiate the head, mapping each existential variable
/// to a fresh labelled null, and insert the resulting atoms into the instance.
/// Returns the newly added atoms.
pub fn apply_trigger(
    trigger: &Trigger,
    program: &Program,
    instance: &mut Interpretation,
    nulls: &mut NullFactory,
) -> Vec<Atom> {
    let rule = &program.rules()[trigger.rule_index];
    let mut h = trigger.homomorphism.clone();
    for z in rule.existential_variables() {
        h.bind(Term::Var(z), nulls.fresh());
    }
    let mut added = Vec::new();
    for atom in rule.head() {
        let ground = h.apply_atom(atom);
        debug_assert!(ground.is_ground(), "head instantiation must be ground");
        if instance.insert(ground.clone()) {
            added.push(ground);
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntgd_core::{atom, cst, var};
    use ntgd_parser::parse_program;

    fn father_program() -> Program {
        parse_program("person(X) -> hasFather(X, Y). hasFather(X, Y) -> person(Y).").unwrap()
    }

    fn db_interp() -> Interpretation {
        Interpretation::from_atoms(vec![atom("person", vec![cst("alice")])])
    }

    #[test]
    fn triggers_are_found_for_matching_bodies() {
        let p = father_program();
        let i = db_interp();
        let ts = all_triggers(&p, &i);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].rule_index, 0);
        assert_eq!(ts[0].homomorphism.apply_term(&var("X")), cst("alice"));
    }

    #[test]
    fn active_triggers_exclude_satisfied_heads() {
        let p = father_program();
        let mut i = db_interp();
        assert_eq!(active_triggers(&p, &i).len(), 1);
        i.insert(atom("hasFather", vec![cst("alice"), cst("bob")]));
        // The head of rule 0 is now satisfiable (Y -> bob), so the trigger is
        // inactive; but rule 1 now has an active trigger for bob.
        let active = active_triggers(&p, &i);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].rule_index, 1);
    }

    #[test]
    fn applying_a_trigger_invents_fresh_nulls() {
        let p = father_program();
        let mut i = db_interp();
        let mut nulls = NullFactory::new();
        let ts = active_triggers(&p, &i);
        let added = apply_trigger(&ts[0], &p, &mut i, &mut nulls);
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].predicate().as_str(), "hasFather");
        assert!(added[0].args()[1].is_null());
        assert_eq!(nulls.issued(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn negative_images_ground_the_negated_atoms() {
        let p = parse_program("hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).")
            .unwrap();
        let i = Interpretation::from_atoms(vec![
            atom("hasFather", vec![cst("a"), cst("b")]),
            atom("hasFather", vec![cst("a"), cst("c")]),
        ]);
        let ts = all_triggers(&p, &i);
        assert_eq!(ts.len(), 4); // (Y,Z) ∈ {b,c}²
        for t in &ts {
            let negs = t.negative_images(&p.rules()[0]);
            assert_eq!(negs.len(), 1);
            assert!(negs[0].is_ground());
            assert_eq!(negs[0].predicate().as_str(), "sameAs");
        }
    }

    #[test]
    fn delta_triggers_cover_exactly_the_new_homomorphisms() {
        let p = parse_program("e(X,Y), e(Y,Z) -> path(X,Z).").unwrap();
        let mut i = Interpretation::from_atoms(vec![
            atom("e", vec![cst("a"), cst("b")]),
            atom("e", vec![cst("b"), cst("c")]),
        ]);
        let before = all_triggers(&p, &i);
        assert_eq!(before.len(), 1);
        let watermark = i.len();
        i.insert(atom("e", vec![cst("c"), cst("d")]));
        let delta = triggers_from(&p, &i, watermark);
        // Only the homomorphism through the new edge b->c->d.
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].homomorphism.apply_term(&var("X")), cst("b"));
        // Old + delta = full rematch.
        assert_eq!(all_triggers(&p, &i).len(), before.len() + delta.len());
        // A watermark at the current size yields nothing.
        assert!(triggers_from(&p, &i, i.len()).is_empty());
    }

    #[test]
    fn trigger_keys_identify_frontier_bindings() {
        let p = father_program();
        let i = db_interp();
        let ts = all_triggers(&p, &i);
        let k1 = ts[0].key(&p.rules()[0]);
        let k2 = ts[0].key(&p.rules()[0]);
        assert_eq!(k1, k2);
    }
}
