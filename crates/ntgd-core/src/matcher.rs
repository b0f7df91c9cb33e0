//! Homomorphism enumeration (conjunctive matching).
//!
//! The central evaluation primitive of the whole system: enumerate the
//! homomorphisms from a conjunction of literals into an interpretation.  A
//! homomorphism `h` satisfies
//!
//! * `h(a) ∈ I⁺` for every positive literal `a` of the conjunction, and
//! * `¬h(a) ∈ I` for every negative literal `¬a`, i.e. every term of `h(a)`
//!   belongs to `dom(I)` and `h(a) ∉ I⁺`.
//!
//! # The compile / cache / execute lifecycle
//!
//! Matching is split into a **compile-once** phase and a **per-call execute**
//! phase, so fixpoint loops (the chase, grounding, consequence operators) pay
//! the compilation and planning cost once per rule instead of once per round:
//!
//! 1. **Compilation** ([`CompiledConjunction::compile`],
//!    [`CompiledConjunction::compile_atoms`]) — every variable of the
//!    conjunction becomes a dense *slot* id, every ground term a *fixed*
//!    argument.  Compilation also runs the greedy selectivity planner to fix
//!    a join order for full enumeration **and one pre-planned order per delta
//!    pivot**, so delta rounds do zero planning.  Statistics come from the
//!    `stats` interpretation passed at compile time (typically the instance
//!    the plan will first run against); executing against a grown instance
//!    stays correct because candidate selection per step still probes the
//!    live indexes.
//! 2. **Caching** — [`CompiledRuleSet`](crate::ruleset::CompiledRuleSet) /
//!    [`CompiledDisjunctiveRuleSet`](crate::ruleset::CompiledDisjunctiveRuleSet)
//!    hold the compiled form of every rule of a program, keyed by rule index:
//!    body, positive body, head, and per-head-atom (or per-disjunct)
//!    conjunctions.  Consumers build the set once per run and reuse it every
//!    round; [`plan_compile_count`] exposes a process-wide counter so tests
//!    can assert that hot loops never recompile, even when executions run on
//!    [`crate::parallel`] pool workers.
//! 3. **Execution** ([`CompiledConjunction::for_each`],
//!    [`CompiledConjunction::for_each_delta`] and the `all*`/`exists`
//!    convenience wrappers) — candidates come from the most selective index
//!    probe of [`Interpretation`] (never from a full scan of a predicate's
//!    atoms when a bound position is available).  Bindings go through a
//!    trail/undo log, so backtracking costs O(bindings undone) instead of a
//!    substitution clone per candidate.
//! 4. **Negative literals** are verified at the leaves.  Variables that occur
//!    *only* in negative literals (unsafe conjunctions) are enumerated over
//!    `dom(I)`, which is materialised once per execution; safe rules and
//!    queries never hit that path.
//!
//! A cached plan is compiled against the *empty* substitution; at execution
//! time an arbitrary `initial` substitution is applied by pre-binding the
//! slots whose variable it maps to a ground term.  This is how one compiled
//! head plan serves every trigger-activity check: the trigger homomorphism
//! (always ground-valued) becomes a set of slot presets.  In the rare case
//! where `initial` maps a conjunction variable to a *non-ground* term (a
//! variable-to-variable chain), execution transparently falls back to a
//! one-shot recompile that bakes the substitution in, preserving the exact
//! semantics of the pre-cache engine.
//!
//! # `SlotBinding` borrowing rules
//!
//! Visitors receive a [`SlotBinding`] — a borrowed view of the matcher's
//! slot vector — instead of an owned [`Substitution`].  The view is valid
//! **only for the duration of the visit callback**: the engine reuses and
//! unwinds the underlying slots as soon as the callback returns, which is
//! exactly why enumeration costs no allocation per result.  Consumers may
//! look up variables ([`SlotBinding::value_of`]), apply the binding to terms
//! and atoms ([`SlotBinding::apply_term`], [`SlotBinding::apply_atom`]), and
//! must call [`SlotBinding::to_substitution`] to materialise an owned
//! substitution when the result is stored beyond the callback (chase
//! triggers, existential head instantiation, answer tuples).
//!
//! # Delta (semi-naive) matching
//!
//! [`for_each_homomorphism_delta`] and [`CompiledConjunction::for_each_delta`]
//! enumerate exactly the homomorphisms that use at least one atom inserted at
//! or after a *watermark* (an earlier value of [`Interpretation::len`]).
//! Fixpoint loops — the chase, the possibly-true closure of the grounder, the
//! immediate-consequence operator — use it to match each round only against
//! newly derived atoms instead of rematching the whole instance.
//!
//! The free functions ([`for_each_homomorphism`], [`all_homomorphisms`], …)
//! are retained as thin wrappers that compile a one-shot plan per call; hot
//! paths should compile once and reuse.  The naive scan-and-clone matcher the
//! engine replaced is retained in [`mod@reference`] as an executable
//! specification: property tests assert that both return identical
//! homomorphism sets, and the matcher benchmark measures the speedup against
//! it.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::atom::{Atom, Literal};
use crate::interpretation::{AtomId, IdProbe, Interpretation};
use crate::substitution::Substitution;
use crate::symbol::Symbol;
use crate::term::Term;

/// Number of conjunction compilations performed by the whole process; see
/// [`plan_compile_count`].
static PLAN_COMPILES: AtomicU64 = AtomicU64::new(0);

/// The number of conjunction compilations (plan constructions) performed by
/// the process so far.
///
/// Tests use the difference between two readings to assert that a chase or
/// grounding run compiles each rule's plan exactly once: after building the
/// rule set, the counter must not move while the fixpoint loop runs.  The
/// counter is process-wide (an atomic, not a thread-local) so compilations
/// performed on [`crate::parallel`] pool workers are visible to the thread
/// that owns the fixpoint — a thread-local counter would silently miss them
/// and vacuously pass the compile-exactly-once tests at thread counts above
/// one.  Tests sharing the process (cargo runs them concurrently) therefore
/// retry their measured window until no unrelated compilation interleaves;
/// a genuine recompile in the measured code fails every attempt.
pub fn plan_compile_count() -> u64 {
    PLAN_COMPILES.load(Ordering::Relaxed)
}

/// Enumerates every homomorphism from `literals` into `target` extending
/// `initial`, invoking `visit` for each; stops early if `visit` breaks.
///
/// Compiles a one-shot plan per call; hot loops should compile a
/// [`CompiledConjunction`] once and call [`CompiledConjunction::for_each`].
///
/// Returns `true` if the enumeration was stopped early by the visitor.
pub fn for_each_homomorphism<F>(
    literals: &[Literal],
    target: &Interpretation,
    initial: &Substitution,
    visit: &mut F,
) -> bool
where
    F: FnMut(&Substitution) -> ControlFlow<()>,
{
    let (positives, negatives) = split_literals(literals);
    let plan =
        CompiledConjunction::compile_with_initial(&positives, &negatives, initial, target, false);
    plan.for_each(target, initial, &mut |b| visit(&b.to_substitution()))
}

/// Enumerates every homomorphism from `literals` into `target` extending
/// `initial` that maps **at least one positive literal to an atom inserted at
/// or after `watermark`** (semi-naive delta matching).
///
/// With `watermark == 0` this is exactly [`for_each_homomorphism`].  With a
/// positive watermark a conjunction without positive literals has no delta
/// homomorphisms (it consumes no instance atoms).
///
/// Returns `true` if the enumeration was stopped early by the visitor.
pub fn for_each_homomorphism_delta<F>(
    literals: &[Literal],
    target: &Interpretation,
    initial: &Substitution,
    watermark: usize,
    visit: &mut F,
) -> bool
where
    F: FnMut(&Substitution) -> ControlFlow<()>,
{
    let (positives, negatives) = split_literals(literals);
    let plan =
        CompiledConjunction::compile_with_initial(&positives, &negatives, initial, target, true);
    plan.for_each_delta(target, initial, watermark, &mut |b| {
        visit(&b.to_substitution())
    })
}

/// All homomorphisms from `literals` into `target` extending `initial`.
pub fn all_homomorphisms(
    literals: &[Literal],
    target: &Interpretation,
    initial: &Substitution,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_homomorphism(literals, target, initial, &mut |s| {
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Returns `true` if at least one homomorphism from `literals` into `target`
/// extending `initial` exists.
pub fn exists_homomorphism(
    literals: &[Literal],
    target: &Interpretation,
    initial: &Substitution,
) -> bool {
    let (positives, negatives) = split_literals(literals);
    let plan =
        CompiledConjunction::compile_with_initial(&positives, &negatives, initial, target, false);
    plan.for_each(target, initial, &mut |_| ControlFlow::Break(()))
}

/// Enumerates the homomorphisms from a conjunction of *atoms* (all positive)
/// into the positive part of `target`, extending `initial`.
///
/// Returns `true` if the enumeration was stopped early by the visitor.
pub fn for_each_atom_homomorphism<F>(
    atoms: &[Atom],
    target: &Interpretation,
    initial: &Substitution,
    visit: &mut F,
) -> bool
where
    F: FnMut(&Substitution) -> ControlFlow<()>,
{
    let positives: Vec<&Atom> = atoms.iter().collect();
    let plan = CompiledConjunction::compile_with_initial(&positives, &[], initial, target, false);
    plan.for_each(target, initial, &mut |b| visit(&b.to_substitution()))
}

/// [`for_each_atom_homomorphism`] restricted to homomorphisms that use at
/// least one atom inserted at or after `watermark`.
pub fn for_each_atom_homomorphism_delta<F>(
    atoms: &[Atom],
    target: &Interpretation,
    initial: &Substitution,
    watermark: usize,
    visit: &mut F,
) -> bool
where
    F: FnMut(&Substitution) -> ControlFlow<()>,
{
    let positives: Vec<&Atom> = atoms.iter().collect();
    let plan = CompiledConjunction::compile_with_initial(&positives, &[], initial, target, true);
    plan.for_each_delta(target, initial, watermark, &mut |b| {
        visit(&b.to_substitution())
    })
}

/// All homomorphisms from a conjunction of *atoms* (all positive) into the
/// positive part of `target`, extending `initial`.  Used for checking head
/// satisfaction and for chase trigger matching.
pub fn all_atom_homomorphisms(
    atoms: &[Atom],
    target: &Interpretation,
    initial: &Substitution,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_atom_homomorphism(atoms, target, initial, &mut |s| {
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    out
}

/// All delta homomorphisms (at least one positive atom maps into the
/// watermark suffix) from a conjunction of atoms.
pub fn all_atom_homomorphisms_delta(
    atoms: &[Atom],
    target: &Interpretation,
    initial: &Substitution,
    watermark: usize,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for_each_atom_homomorphism_delta(atoms, target, initial, watermark, &mut |s| {
        out.push(s.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Returns `true` if the conjunction of atoms maps into `target⁺` by some
/// extension of `initial`.
pub fn exists_atom_homomorphism(
    atoms: &[Atom],
    target: &Interpretation,
    initial: &Substitution,
) -> bool {
    let positives: Vec<&Atom> = atoms.iter().collect();
    let plan = CompiledConjunction::compile_with_initial(&positives, &[], initial, target, false);
    plan.for_each(target, initial, &mut |_| ControlFlow::Break(()))
}

fn split_literals(literals: &[Literal]) -> (Vec<&Atom>, Vec<&Atom>) {
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    for literal in literals {
        if literal.is_positive() {
            positives.push(literal.atom());
        } else {
            negatives.push(literal.atom());
        }
    }
    (positives, negatives)
}

/// One compiled argument position: either a fixed term or a slot reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ArgSpec {
    /// A term that is fixed for the whole call: a constant, a null, or the
    /// (already resolved) image of a variable under the initial substitution.
    Fixed(Term),
    /// A variable, resolved to a dense slot id shared across the conjunction.
    Slot(usize),
}

/// A compiled atom pattern.
#[derive(Clone, Debug)]
struct Pattern {
    predicate: Symbol,
    args: Vec<ArgSpec>,
}

/// Which part of the arena a positive pattern may match (delta matching).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DeltaClass {
    /// The whole arena.
    All,
    /// Only atoms with id `< watermark`.
    Old,
    /// Only atoms with id `>= watermark`.
    Delta,
}

/// A borrowed view of the matcher's slot vector, handed to visitors instead
/// of an owned [`Substitution`].
///
/// The view is only valid inside the visit callback (the engine rewinds the
/// slots as soon as the callback returns); call [`SlotBinding::to_substitution`]
/// to keep a result.  See the module docs for the full borrowing rules.
pub struct SlotBinding<'e> {
    keys: &'e [Term],
    slots: &'e [Option<Term>],
    preset: &'e [bool],
    initial: &'e Substitution,
}

impl SlotBinding<'_> {
    /// The value bound to a conjunction variable, if any.
    pub fn value_of(&self, variable: &Term) -> Option<Term> {
        let slot = self.keys.iter().position(|k| k == variable)?;
        self.slots[slot]
    }

    /// Applies the binding (slot values first, then the initial
    /// substitution) to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        if t.is_constant() {
            return *t;
        }
        if let Some(slot) = self.keys.iter().position(|k| k == t) {
            if let Some(value) = self.slots[slot] {
                return value;
            }
        }
        self.initial.apply_term(t)
    }

    /// Applies the binding to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(
            atom.predicate(),
            atom.args().iter().map(|t| self.apply_term(t)).collect(),
        )
    }

    /// Materialises an owned substitution: the initial substitution extended
    /// with every non-preset slot binding.  Call only when the result is
    /// stored beyond the visit callback.
    pub fn to_substitution(&self) -> Substitution {
        let mut out = self.initial.clone();
        for (slot, value) in self.slots.iter().enumerate() {
            if self.preset.get(slot).copied().unwrap_or(false) {
                continue;
            }
            if let Some(value) = value {
                out.bind(self.keys[slot], *value);
            }
        }
        out
    }

    /// Copies out the slot values in slot order (see
    /// [`CompiledConjunction::slot_of`]).  Every slot is bound while a
    /// visitor runs, so this yields exactly
    /// [`CompiledConjunction::slot_count`] terms: the cheapest way to keep a
    /// binding beyond the callback when the keeper knows the slot layout.
    pub fn slot_values(&self) -> impl Iterator<Item = Term> + '_ {
        self.slots
            .iter()
            .map(|value| value.expect("every slot is bound while a visitor runs"))
    }
}

/// A conjunction compiled once into its slot/plan form, reusable across any
/// number of executions (and target instances).
///
/// Holds the compiled patterns, the dense slot table, the full-enumeration
/// join order and one pre-planned order per delta pivot, so neither full nor
/// delta executions ever plan again.  See the module docs for the
/// compile/cache/execute lifecycle.
#[derive(Clone, Debug)]
pub struct CompiledConjunction {
    positives: Vec<Pattern>,
    negatives: Vec<Pattern>,
    /// Slot id → key term (the resolved variable the slot stands for).
    slot_keys: Vec<Term>,
    /// Slot id → value baked in by a compile-time initial substitution
    /// (one-shot plans only; cached plans have no baked presets).
    compile_preset: Vec<Option<Term>>,
    /// `true` if the plan was compiled against a specific initial
    /// substitution (one-shot wrappers); execution then skips runtime slot
    /// presetting and trusts `compile_preset`.
    bakes_initial: bool,
    /// Join order for full enumeration: `full_order[step]` indexes `positives`.
    full_order: Vec<usize>,
    /// Pre-planned join order per delta pivot (pivot literal first).
    delta_orders: Vec<Vec<usize>>,
    /// Whether some slot occurs only in negative literals (unsafe
    /// conjunction), requiring `dom(I)` at execution time.
    needs_domain: bool,
}

// `Send + Sync` audit: a compiled plan is fully owned data (patterns, slot
// table, join orders) and all per-execution state lives in `Exec` on the
// executing thread's stack, so one cached plan may be executed concurrently
// by any number of `crate::parallel` pool workers.  The assertion turns that
// audit into a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledConjunction>();
    assert_send_sync::<SlotBinding<'_>>();
};

impl CompiledConjunction {
    /// Compiles a conjunction of literals (no initial substitution baked in;
    /// execution accepts any ground-valued initial substitution).
    ///
    /// `stats` provides the cardinalities used by the join planner —
    /// typically the instance the plan will first run against.
    pub fn compile(literals: &[Literal], stats: &Interpretation) -> CompiledConjunction {
        let (positives, negatives) = split_literals(literals);
        Self::compile_impl(
            &positives,
            &negatives,
            &Substitution::default(),
            stats,
            false,
            true,
        )
    }

    /// Compiles a conjunction of atoms (all positive).
    pub fn compile_atoms(atoms: &[Atom], stats: &Interpretation) -> CompiledConjunction {
        let positives: Vec<&Atom> = atoms.iter().collect();
        Self::compile_impl(
            &positives,
            &[],
            &Substitution::default(),
            stats,
            false,
            true,
        )
    }

    /// One-shot compilation with `initial` baked into the patterns (the
    /// pre-cache engine's semantics, kept for the free-function wrappers and
    /// for the non-ground-initial fallback).  `with_delta` controls whether
    /// per-pivot delta orders are planned: full-only one-shot calls skip
    /// them, so they pay for exactly one planner run like the old engine.
    fn compile_with_initial(
        positives: &[&Atom],
        negatives: &[&Atom],
        initial: &Substitution,
        stats: &Interpretation,
        with_delta: bool,
    ) -> CompiledConjunction {
        Self::compile_impl(positives, negatives, initial, stats, true, with_delta)
    }

    fn compile_impl(
        positives: &[&Atom],
        negatives: &[&Atom],
        initial: &Substitution,
        stats: &Interpretation,
        bakes_initial: bool,
        with_delta: bool,
    ) -> CompiledConjunction {
        PLAN_COMPILES.fetch_add(1, Ordering::Relaxed);
        let mut slot_keys: Vec<Term> = Vec::new();
        let mut compile_preset: Vec<Option<Term>> = Vec::new();
        let mut compile = |atom: &Atom| -> Pattern {
            let args = atom
                .args()
                .iter()
                .map(|t| {
                    // Resolve against the compile-time initial substitution
                    // once.  Ground results (and nulls, which the matcher
                    // never binds) are fixed; variables become slots.
                    let resolved = initial.apply_term(t);
                    if !resolved.is_variable() {
                        return ArgSpec::Fixed(resolved);
                    }
                    let slot = match slot_keys.iter().position(|k| *k == resolved) {
                        Some(slot) => slot,
                        None => {
                            slot_keys.push(resolved);
                            let value = initial.apply_term(&resolved);
                            compile_preset.push(if value != resolved { Some(value) } else { None });
                            slot_keys.len() - 1
                        }
                    };
                    ArgSpec::Slot(slot)
                })
                .collect();
            Pattern {
                predicate: atom.predicate(),
                args,
            }
        };
        let positives: Vec<Pattern> = positives.iter().map(|a| compile(a)).collect();
        let negatives: Vec<Pattern> = negatives.iter().map(|a| compile(a)).collect();

        // Unsafe variables (slots occurring only in negative literals) need
        // dom(I) at execution time.
        let positive_slots: BTreeSet<usize> = positives
            .iter()
            .flat_map(|p| p.args.iter())
            .filter_map(|a| match a {
                ArgSpec::Slot(s) => Some(*s),
                ArgSpec::Fixed(_) => None,
            })
            .collect();
        let needs_domain = negatives
            .iter()
            .flat_map(|p| p.args.iter())
            .any(|a| match a {
                ArgSpec::Slot(s) => !positive_slots.contains(s) && compile_preset[*s].is_none(),
                ArgSpec::Fixed(_) => false,
            });

        let preset: Vec<bool> = compile_preset.iter().map(Option::is_some).collect();
        let full_order = plan_impl(&positives, &preset, stats, None);
        let delta_orders: Vec<Vec<usize>> = if with_delta {
            (0..positives.len())
                .map(|pivot| plan_impl(&positives, &preset, stats, Some(pivot)))
                .collect()
        } else {
            Vec::new()
        };
        CompiledConjunction {
            positives,
            negatives,
            slot_keys,
            compile_preset,
            bakes_initial,
            full_order,
            delta_orders,
            needs_domain,
        }
    }

    /// Number of positive patterns (delta pivots).
    pub fn positive_count(&self) -> usize {
        self.positives.len()
    }

    /// Number of slots: the distinct variables of the conjunction.
    pub fn slot_count(&self) -> usize {
        self.slot_keys.len()
    }

    /// The slot a variable of the conjunction is bound in, if it occurs.
    pub fn slot_of(&self, variable: &Term) -> Option<usize> {
        self.slot_keys.iter().position(|key| key == variable)
    }

    /// Enumerates every homomorphism extending `initial`, invoking `visit`
    /// with a borrowed [`SlotBinding`] per result; stops early if `visit`
    /// breaks.  Returns `true` if stopped early.
    pub fn for_each<F>(
        &self,
        target: &Interpretation,
        initial: &Substitution,
        visit: &mut F,
    ) -> bool
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        self.run(target, initial, None, visit).is_break()
    }

    /// Delta variant of [`CompiledConjunction::for_each`]: only
    /// homomorphisms mapping at least one positive literal to an atom
    /// inserted at or after `watermark`.
    pub fn for_each_delta<F>(
        &self,
        target: &Interpretation,
        initial: &Substitution,
        watermark: usize,
        visit: &mut F,
    ) -> bool
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        self.run(target, initial, Some((watermark, None)), visit)
            .is_break()
    }

    /// The slice of [`CompiledConjunction::for_each_delta`] attributed to a
    /// single delta `pivot`: homomorphisms whose **first** positive literal
    /// mapped into the watermark suffix is literal `pivot`.
    ///
    /// Summed over `0..positive_count()` pivots this enumerates exactly the
    /// delta homomorphisms, each once; the [`crate::parallel`] layer uses it
    /// to split one rule's delta round into independent `(rule, pivot)` work
    /// items.  With `watermark == 0` the full enumeration is attributed to
    /// pivot `0` (other pivots yield nothing), keeping the sum property.
    ///
    /// Returns `true` if the enumeration was stopped early by the visitor.
    pub fn for_each_delta_pivot<F>(
        &self,
        target: &Interpretation,
        initial: &Substitution,
        watermark: usize,
        pivot: usize,
        visit: &mut F,
    ) -> bool
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        self.run(target, initial, Some((watermark, Some(pivot))), visit)
            .is_break()
    }

    /// All homomorphisms, materialised.
    pub fn all(&self, target: &Interpretation, initial: &Substitution) -> Vec<Substitution> {
        let mut out = Vec::new();
        self.for_each(target, initial, &mut |b| {
            out.push(b.to_substitution());
            ControlFlow::Continue(())
        });
        out
    }

    /// All delta homomorphisms, materialised.
    pub fn all_delta(
        &self,
        target: &Interpretation,
        initial: &Substitution,
        watermark: usize,
    ) -> Vec<Substitution> {
        let mut out = Vec::new();
        self.for_each_delta(target, initial, watermark, &mut |b| {
            out.push(b.to_substitution());
            ControlFlow::Continue(())
        });
        out
    }

    /// Returns `true` if at least one homomorphism extending `initial`
    /// exists.
    pub fn exists(&self, target: &Interpretation, initial: &Substitution) -> bool {
        self.for_each(target, initial, &mut |_| ControlFlow::Break(()))
    }

    /// Whether the predicate of positive literal `pivot` gained an atom at
    /// or after `watermark`; a pivot that did not matches nothing.
    fn pivot_has_delta(&self, target: &Interpretation, watermark: usize, pivot: usize) -> bool {
        let predicate = self.positives[pivot].predicate;
        !restrict(
            target.ids_with_predicate(predicate),
            DeltaClass::Delta,
            watermark,
        )
        .is_empty()
    }

    fn run<F>(
        &self,
        target: &Interpretation,
        initial: &Substitution,
        watermark: Option<(usize, Option<usize>)>,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if let Some((w, Some(pivot))) = watermark {
            // Skip an idle pivot before setting up an execution.
            if w > 0 && pivot < self.positives.len() && !self.pivot_has_delta(target, w, pivot) {
                return ControlFlow::Continue(());
            }
        }
        match Exec::new(self, target, initial) {
            Some(mut exec) => match watermark {
                None => exec.run_full(visit),
                Some((w, None)) => exec.run_delta(w, visit),
                Some((w, Some(pivot))) => exec.run_delta_pivot(w, pivot, visit),
            },
            None => {
                // `initial` maps some conjunction variable to a non-ground
                // term (a variable-to-variable chain): rebuild a one-shot
                // plan with the substitution baked in, which reproduces the
                // pre-cache engine's semantics exactly.  Cached plans are
                // compiled without an initial substitution, so their
                // patterns are a lossless rendering of the source atoms.
                let positive_atoms = reconstruct_atoms(&self.positives, &self.slot_keys);
                let negative_atoms = reconstruct_atoms(&self.negatives, &self.slot_keys);
                let positives: Vec<&Atom> = positive_atoms.iter().collect();
                let negatives: Vec<&Atom> = negative_atoms.iter().collect();
                let plan = CompiledConjunction::compile_with_initial(
                    &positives,
                    &negatives,
                    initial,
                    target,
                    watermark.is_some(),
                );
                let mut exec = Exec::new(&plan, target, initial)
                    .expect("plans with a baked initial substitution always execute");
                match watermark {
                    None => exec.run_full(visit),
                    Some((w, None)) => exec.run_delta(w, visit),
                    Some((w, Some(pivot))) => exec.run_delta_pivot(w, pivot, visit),
                }
            }
        }
    }
}

/// Renders compiled patterns back into atoms (slot keys restore the
/// variables).  Lossless for plans compiled without an initial substitution.
fn reconstruct_atoms(patterns: &[Pattern], slot_keys: &[Term]) -> Vec<Atom> {
    patterns
        .iter()
        .map(|p| {
            Atom::new(
                p.predicate,
                p.args
                    .iter()
                    .map(|a| match a {
                        ArgSpec::Fixed(t) => *t,
                        ArgSpec::Slot(s) => slot_keys[*s],
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Restricts an ascending id probe to a delta class at `watermark`.
fn restrict(ids: IdProbe<'_>, class: DeltaClass, watermark: usize) -> IdProbe<'_> {
    match class {
        DeltaClass::All => ids,
        DeltaClass::Old => ids.below(watermark),
        DeltaClass::Delta => ids.since(watermark),
    }
}

/// Per-execution state over a cached plan: slot values, trail, and the
/// (borrowed) join order currently in effect.
struct Exec<'c, 'i> {
    plan: &'c CompiledConjunction,
    target: &'i Interpretation,
    initial: &'i Substitution,
    /// Join order in effect: `order[step]` indexes `plan.positives`.
    order: &'c [usize],
    /// Delta pivot in effect (`None` for full enumeration).
    pivot: Option<usize>,
    watermark: usize,
    /// Slot id → current binding.
    slots: Vec<Option<Term>>,
    /// Slot id → `true` if the binding comes from the initial substitution
    /// (never undone, not re-emitted into materialised substitutions).
    /// Empty when no slot is preset, which is the common case.
    preset: Vec<bool>,
    /// Undo log of slot ids bound since the enclosing choice point.
    trail: Vec<usize>,
    /// `dom(I)` materialised once per execution, only for unsafe variables.
    domain: Vec<Term>,
    /// Scratch buffer for grounding negative literals.
    scratch: Vec<Term>,
}

impl<'c, 'i> Exec<'c, 'i> {
    /// Sets up an execution, pre-binding slots from `initial`.  Returns
    /// `None` when `initial` maps a slot variable to a non-ground term and
    /// the plan has no baked initial (the caller then falls back to a
    /// one-shot recompile).
    fn new(
        plan: &'c CompiledConjunction,
        target: &'i Interpretation,
        initial: &'i Substitution,
    ) -> Option<Exec<'c, 'i>> {
        let slot_count = plan.slot_keys.len();
        let mut slots: Vec<Option<Term>> = vec![None; slot_count];
        let mut preset: Vec<bool> = Vec::new();
        if plan.bakes_initial {
            for (slot, value) in plan.compile_preset.iter().enumerate() {
                if let Some(value) = value {
                    slots[slot] = Some(*value);
                    preset.resize(slot_count, false);
                    preset[slot] = true;
                }
            }
        } else if !initial.is_empty() {
            for (slot, key) in plan.slot_keys.iter().enumerate() {
                let value = initial.apply_term(key);
                if value != *key {
                    if !value.is_ground() {
                        return None;
                    }
                    slots[slot] = Some(value);
                    preset.resize(slot_count, false);
                    preset[slot] = true;
                }
            }
        }
        let domain: Vec<Term> = if plan.needs_domain {
            target.domain_iter().copied().collect()
        } else {
            Vec::new()
        };
        Some(Exec {
            plan,
            target,
            initial,
            order: &[],
            pivot: None,
            watermark: 0,
            slots,
            preset,
            trail: Vec::new(),
            domain,
            scratch: Vec::new(),
        })
    }

    /// Runs the unrestricted enumeration over the precomputed full order.
    fn run_full<F>(&mut self, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        self.order = &self.plan.full_order;
        self.pivot = None;
        self.match_positives(0, visit)
    }

    /// Runs the delta-restricted enumeration: each homomorphism must map at
    /// least one positive atom into the watermark suffix of the arena.
    ///
    /// Homomorphisms are partitioned by the *first* positive literal (in
    /// order of appearance) mapped to a delta atom: for pivot `k`, literals
    /// before `k` are restricted to old atoms, literal `k` to delta atoms,
    /// and later literals are unrestricted.  Each delta homomorphism is
    /// therefore enumerated exactly once.
    ///
    /// Each pivot runs over its precomputed plan (pivot literal first): the
    /// pivot's candidate list is the (typically tiny) watermark suffix, and
    /// the bindings it makes turn the remaining literals into index probes.
    /// Pivots whose predicate gained no atoms since the watermark are
    /// skipped outright — delta rounds perform zero planning.
    fn run_delta<F>(&mut self, watermark: usize, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if watermark == 0 {
            return self.run_full(visit);
        }
        if watermark >= self.target.len() {
            return ControlFlow::Continue(());
        }
        self.watermark = watermark;
        for pivot in 0..self.plan.positives.len() {
            self.run_pivot(pivot, visit)?;
        }
        ControlFlow::Continue(())
    }

    /// Runs a single pivot of the delta enumeration (the
    /// [`CompiledConjunction::for_each_delta_pivot`] entry point): the
    /// partition of the delta homomorphism space whose first
    /// suffix-mapped positive literal is `pivot`.
    fn run_delta_pivot<F>(
        &mut self,
        watermark: usize,
        pivot: usize,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if watermark == 0 {
            // The whole (unpartitioned) enumeration is attributed to pivot
            // 0 so that the union over pivots equals `run_delta`.
            return if pivot == 0 {
                self.run_full(visit)
            } else {
                ControlFlow::Continue(())
            };
        }
        if watermark >= self.target.len() || pivot >= self.plan.positives.len() {
            return ControlFlow::Continue(());
        }
        self.watermark = watermark;
        self.run_pivot(pivot, visit)
    }

    /// Shared pivot body of [`Exec::run_delta`] / [`Exec::run_delta_pivot`];
    /// assumes `self.watermark` is set and in range.
    fn run_pivot<F>(&mut self, pivot: usize, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if !self
            .plan
            .pivot_has_delta(self.target, self.watermark, pivot)
        {
            return ControlFlow::Continue(());
        }
        self.pivot = Some(pivot);
        // Plans compiled without delta orders (full-only one-shot
        // wrappers) fall back to the full order; the per-pattern delta
        // classes keep the enumeration correct either way.
        self.order = self
            .plan
            .delta_orders
            .get(pivot)
            .unwrap_or(&self.plan.full_order);
        self.match_positives(0, visit)
    }

    /// The delta class of one positive pattern under the current pivot.
    fn class_of(&self, pattern_index: usize) -> DeltaClass {
        match self.pivot {
            None => DeltaClass::All,
            Some(pivot) => match pattern_index.cmp(&pivot) {
                std::cmp::Ordering::Less => DeltaClass::Old,
                std::cmp::Ordering::Equal => DeltaClass::Delta,
                std::cmp::Ordering::Greater => DeltaClass::All,
            },
        }
    }

    /// The candidate id list for one positive pattern under the current
    /// bindings: the smallest index probe over its bound positions, or the
    /// predicate's id list when no position is bound.  Returns `None` when
    /// the pattern cannot match at all (a fixed argument is non-ground).
    fn candidates(&self, pattern: &Pattern) -> Option<IdProbe<'i>> {
        let mut best: Option<IdProbe<'i>> = None;
        for (position, spec) in pattern.args.iter().enumerate() {
            let bound = match spec {
                ArgSpec::Fixed(t) => Some(*t),
                ArgSpec::Slot(s) => self.slots[*s],
            };
            let Some(term) = bound else { continue };
            if !term.is_ground() {
                // A variable chained to another variable by the initial
                // substitution: no ground atom can ever match it.
                return None;
            }
            let probed = self.target.probe(pattern.predicate, position as u32, term);
            if best.is_none_or(|b| probed.len() < b.len()) {
                best = Some(probed);
            }
        }
        Some(best.unwrap_or_else(|| self.target.ids_with_predicate(pattern.predicate)))
    }

    fn match_positives<F>(&mut self, step: usize, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if step == self.order.len() {
            return self.check_negatives(0, visit);
        }
        let pattern_index = self.order[step];
        let Some(ids) = self.candidates(&self.plan.positives[pattern_index]) else {
            return ControlFlow::Continue(());
        };
        let ids = restrict(ids, self.class_of(pattern_index), self.watermark);
        let arity = self.plan.positives[pattern_index].args.len();
        // Two back-to-back slice loops (base segment, then overlay) keep
        // this innermost loop free of the chain iterator's per-element
        // branch; the concatenation is ascending, so the enumeration order
        // is identical to a single merged list.
        let (base_ids, overlay_ids) = ids.slices();
        for &id in base_ids {
            self.match_candidate(step, pattern_index, arity, id, visit)?;
        }
        for &id in overlay_ids {
            self.match_candidate(step, pattern_index, arity, id, visit)?;
        }
        ControlFlow::Continue(())
    }

    /// Tries one candidate atom against the pattern at `pattern_index`,
    /// recursing into the next join level on a match.  The innermost body of
    /// [`Exec::match_positives`].
    #[inline]
    fn match_candidate<F>(
        &mut self,
        step: usize,
        pattern_index: usize,
        arity: usize,
        id: AtomId,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        let candidate = self.target.atom(id);
        if candidate.arity() != arity {
            return ControlFlow::Continue(());
        }
        let mark = self.trail.len();
        let mut ok = true;
        for (position, value) in candidate.args().iter().enumerate() {
            // `candidate` borrows from the arena, never from `self`'s
            // mutable state, so reading args while binding slots is fine.
            let matched = match self.plan.positives[pattern_index].args[position] {
                ArgSpec::Fixed(t) => t == *value,
                ArgSpec::Slot(s) => match self.slots[s] {
                    Some(existing) => existing == *value,
                    None => {
                        self.slots[s] = Some(*value);
                        self.trail.push(s);
                        true
                    }
                },
            };
            if !matched {
                ok = false;
                break;
            }
        }
        if ok {
            self.match_positives(step + 1, visit)?;
        }
        self.undo_to(mark);
        ControlFlow::Continue(())
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let slot = self.trail.pop().expect("trail underflow");
            self.slots[slot] = None;
        }
    }

    /// Grounds the negative pattern at `index` into the scratch buffer;
    /// returns the list of still-unbound slots (distinct, in argument order).
    fn ground_negative(&mut self, index: usize) -> Vec<usize> {
        let pattern = &self.plan.negatives[index];
        self.scratch.clear();
        let mut unbound = Vec::new();
        for spec in &pattern.args {
            match spec {
                ArgSpec::Fixed(t) => self.scratch.push(*t),
                ArgSpec::Slot(s) => match self.slots[*s] {
                    Some(v) => self.scratch.push(v),
                    None => {
                        if !unbound.contains(s) {
                            unbound.push(*s);
                        }
                        self.scratch.push(self.plan.slot_keys[*s]);
                    }
                },
            }
        }
        unbound
    }

    fn check_negatives<F>(&mut self, index: usize, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if index == self.plan.negatives.len() {
            let binding = SlotBinding {
                keys: &self.plan.slot_keys,
                slots: &self.slots,
                preset: &self.preset,
                initial: self.initial,
            };
            return visit(&binding);
        }
        let unbound = self.ground_negative(index);
        if unbound.is_empty() {
            let predicate = self.plan.negatives[index].predicate;
            if self
                .target
                .satisfies_negation_of_parts(predicate, &self.scratch)
            {
                return self.check_negatives(index + 1, visit);
            }
            return ControlFlow::Continue(());
        }
        // Unsafe conjunction: enumerate the unbound slots over dom(I).
        self.enumerate_unbound(&unbound, 0, index, visit)
    }

    fn enumerate_unbound<F>(
        &mut self,
        vars: &[usize],
        vidx: usize,
        index: usize,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        if vidx == vars.len() {
            self.ground_negative(index);
            let predicate = self.plan.negatives[index].predicate;
            if self
                .target
                .satisfies_negation_of_parts(predicate, &self.scratch)
            {
                return self.check_negatives(index + 1, visit);
            }
            return ControlFlow::Continue(());
        }
        for value_index in 0..self.domain.len() {
            let value = self.domain[value_index];
            let slot = vars[vidx];
            self.slots[slot] = Some(value);
            self.trail.push(slot);
            let mark = self.trail.len() - 1;
            self.enumerate_unbound(vars, vidx + 1, index, visit)?;
            self.undo_to(mark);
        }
        ControlFlow::Continue(())
    }
}

fn plan_impl(
    positives: &[Pattern],
    preset: &[bool],
    target: &Interpretation,
    first: Option<usize>,
) -> Vec<usize> {
    let mut bound: BTreeSet<usize> = BTreeSet::new();
    for (slot, &is_preset) in preset.iter().enumerate() {
        if is_preset {
            bound.insert(slot);
        }
    }
    let mut remaining: Vec<usize> = (0..positives.len())
        .filter(|index| Some(*index) != first)
        .collect();
    let mut order = Vec::with_capacity(positives.len());
    if let Some(first) = first {
        for spec in &positives[first].args {
            if let ArgSpec::Slot(s) = spec {
                bound.insert(*s);
            }
        }
        order.push(first);
    }
    while !remaining.is_empty() {
        let mut best_at = 0;
        let mut best_score = usize::MAX;
        for (at, &index) in remaining.iter().enumerate() {
            let pattern = &positives[index];
            // A zero cardinality is clamped to 1: when planning against a
            // statistics snapshot that predates the instance (cached plans
            // compiled before the chase/closure derives anything), zero means
            // "unknown", and clamping lets the bound-position discount drive
            // the order (a structural, connectivity-first heuristic) instead
            // of degenerating every score to 0 and keeping the written order.
            let mut estimate = target.predicate_count(pattern.predicate).max(1);
            let mut bound_positions = 0usize;
            for (position, spec) in pattern.args.iter().enumerate() {
                match spec {
                    ArgSpec::Fixed(t) => {
                        bound_positions += 1;
                        if t.is_ground() {
                            let count = target.probe_count(pattern.predicate, position as u32, *t);
                            estimate = estimate.min(count);
                        } else {
                            estimate = 0;
                        }
                    }
                    ArgSpec::Slot(s) => {
                        if bound.contains(s) {
                            bound_positions += 1;
                        }
                    }
                }
            }
            // Scaled before the integer division so small estimates still
            // discriminate by how many positions are bound.
            let score = estimate.saturating_mul(16) / (1 + bound_positions);
            if score < best_score {
                best_score = score;
                best_at = at;
            }
        }
        let chosen = remaining.remove(best_at);
        for spec in &positives[chosen].args {
            if let ArgSpec::Slot(s) = spec {
                bound.insert(*s);
            }
        }
        order.push(chosen);
    }
    order
}

pub mod reference {
    //! The naive scan-and-clone matcher, retained as an executable
    //! specification of the homomorphism semantics.
    //!
    //! This is the implementation the indexed join engine replaced: it scans
    //! every atom of a literal's predicate and clones the substitution at
    //! every choice point.  It is kept for the equivalence property tests
    //! (`tests/property_based.rs`) and as the baseline of the matcher
    //! benchmark; production code must never call it.

    use super::*;

    /// Naive counterpart of [`super::for_each_homomorphism`].
    pub fn for_each_homomorphism<F>(
        literals: &[Literal],
        target: &Interpretation,
        initial: &Substitution,
        visit: &mut F,
    ) -> bool
    where
        F: FnMut(&Substitution) -> ControlFlow<()>,
    {
        let (positives, negatives) = split_literals(literals);
        let mut subst = initial.clone();
        match_positives(&positives, 0, target, &mut subst, &negatives, visit).is_break()
    }

    /// Naive counterpart of [`super::all_homomorphisms`].
    pub fn all_homomorphisms(
        literals: &[Literal],
        target: &Interpretation,
        initial: &Substitution,
    ) -> Vec<Substitution> {
        let mut out = Vec::new();
        for_each_homomorphism(literals, target, initial, &mut |s| {
            out.push(s.clone());
            ControlFlow::Continue(())
        });
        out
    }

    fn match_positives<F>(
        atoms: &[&Atom],
        idx: usize,
        target: &Interpretation,
        subst: &mut Substitution,
        negatives: &[&Atom],
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Substitution) -> ControlFlow<()>,
    {
        if idx == atoms.len() {
            return check_negatives(negatives, 0, target, subst, visit);
        }
        let pattern = atoms[idx];
        for candidate in target.atoms_with_predicate(pattern.predicate()) {
            if candidate.arity() != pattern.arity() {
                continue;
            }
            let saved = subst.clone();
            let mut ok = true;
            for (pat, val) in pattern.args().iter().zip(candidate.args()) {
                let current = subst.apply_term(pat);
                let bindable = match current {
                    Term::Var(_) => subst.try_bind(current, *val),
                    ground => ground == *val,
                };
                if !bindable {
                    ok = false;
                    break;
                }
            }
            if ok && match_positives(atoms, idx + 1, target, subst, negatives, visit).is_break() {
                return ControlFlow::Break(());
            }
            *subst = saved;
        }
        ControlFlow::Continue(())
    }

    fn check_negatives<F>(
        negatives: &[&Atom],
        idx: usize,
        target: &Interpretation,
        subst: &mut Substitution,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Substitution) -> ControlFlow<()>,
    {
        if idx == negatives.len() {
            return visit(subst);
        }
        let grounded = subst.apply_atom(negatives[idx]);
        let unbound: BTreeSet<Term> = grounded
            .args()
            .iter()
            .filter(|t| t.is_variable())
            .copied()
            .collect();
        if unbound.is_empty() {
            if target.satisfies_negation_of(&grounded) {
                return check_negatives(negatives, idx + 1, target, subst, visit);
            }
            return ControlFlow::Continue(());
        }
        // Unsafe conjunction: enumerate the unbound variables over dom(I).
        let domain: Vec<Term> = target.domain().into_iter().collect();
        enumerate_unbound(
            &unbound.into_iter().collect::<Vec<_>>(),
            0,
            &domain,
            negatives,
            idx,
            target,
            subst,
            visit,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_unbound<F>(
        vars: &[Term],
        vidx: usize,
        domain: &[Term],
        negatives: &[&Atom],
        idx: usize,
        target: &Interpretation,
        subst: &mut Substitution,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&Substitution) -> ControlFlow<()>,
    {
        if vidx == vars.len() {
            let grounded = subst.apply_atom(negatives[idx]);
            if target.satisfies_negation_of(&grounded) {
                return check_negatives(negatives, idx + 1, target, subst, visit);
            }
            return ControlFlow::Continue(());
        }
        for value in domain {
            let saved = subst.clone();
            if subst.try_bind(vars[vidx], *value)
                && enumerate_unbound(vars, vidx + 1, domain, negatives, idx, target, subst, visit)
                    .is_break()
            {
                return ControlFlow::Break(());
            }
            *subst = saved;
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, cst, neg, pos, var};

    fn interp() -> Interpretation {
        Interpretation::from_atoms(vec![
            atom("edge", vec![cst("a"), cst("b")]),
            atom("edge", vec![cst("b"), cst("c")]),
            atom("edge", vec![cst("c"), cst("a")]),
            atom("red", vec![cst("a")]),
        ])
    }

    #[test]
    fn single_atom_matching() {
        let hs = all_homomorphisms(
            &[pos("edge", vec![var("X"), var("Y")])],
            &interp(),
            &Substitution::new(),
        );
        assert_eq!(hs.len(), 3);
    }

    #[test]
    fn join_matching_chains_edges() {
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            pos("edge", vec![var("Y"), var("Z")]),
        ];
        let hs = all_homomorphisms(&body, &interp(), &Substitution::new());
        // a->b->c, b->c->a, c->a->b
        assert_eq!(hs.len(), 3);
        for h in &hs {
            assert_ne!(h.apply_term(&var("X")), h.apply_term(&var("Y")));
        }
    }

    #[test]
    fn constants_in_patterns_restrict_matches() {
        let body = vec![pos("edge", vec![cst("a"), var("Y")])];
        let hs = all_homomorphisms(&body, &interp(), &Substitution::new());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].apply_term(&var("Y")), cst("b"));
    }

    #[test]
    fn negative_literals_filter_matches() {
        // Vertices with an outgoing edge that are not red.
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            neg("red", vec![var("X")]),
        ];
        let hs = all_homomorphisms(&body, &interp(), &Substitution::new());
        assert_eq!(hs.len(), 2);
        for h in &hs {
            assert_ne!(h.apply_term(&var("X")), cst("a"));
        }
    }

    #[test]
    fn negative_literal_with_term_outside_domain_fails() {
        let body = vec![
            pos("red", vec![var("X")]),
            neg("edge", vec![var("X"), cst("zzz")]),
        ];
        // zzz is not in the domain, so ¬edge(a, zzz) is not in I.
        assert!(all_homomorphisms(&body, &interp(), &Substitution::new()).is_empty());
    }

    #[test]
    fn initial_substitution_is_respected() {
        let mut init = Substitution::new();
        init.bind(var("X"), cst("b"));
        let hs = all_homomorphisms(&[pos("edge", vec![var("X"), var("Y")])], &interp(), &init);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].apply_term(&var("Y")), cst("c"));
        assert_eq!(hs[0].apply_term(&var("X")), cst("b"));
    }

    #[test]
    fn exists_homomorphism_short_circuits() {
        assert!(exists_homomorphism(
            &[pos("edge", vec![var("X"), var("X")])],
            &Interpretation::from_atoms(vec![atom("edge", vec![cst("a"), cst("a")])]),
            &Substitution::new()
        ));
        assert!(!exists_homomorphism(
            &[pos("edge", vec![var("X"), var("X")])],
            &interp(),
            &Substitution::new()
        ));
    }

    #[test]
    fn empty_conjunction_has_exactly_the_initial_homomorphism() {
        let hs = all_homomorphisms(&[], &interp(), &Substitution::new());
        assert_eq!(hs.len(), 1);
        assert!(hs[0].is_empty());
    }

    #[test]
    fn unsafe_negative_variables_enumerate_the_domain() {
        // X occurs only negatively: all domain elements that are not red.
        let body = vec![neg("red", vec![var("X")])];
        let hs = all_homomorphisms(&body, &interp(), &Substitution::new());
        let values: BTreeSet<Term> = hs.iter().map(|h| h.apply_term(&var("X"))).collect();
        assert_eq!(values, BTreeSet::from([cst("b"), cst("c")]));
    }

    #[test]
    fn atom_homomorphisms_ignore_polarity_helpers() {
        let atoms = vec![atom("edge", vec![var("X"), var("Y")])];
        assert_eq!(
            all_atom_homomorphisms(&atoms, &interp(), &Substitution::new()).len(),
            3
        );
        assert!(exists_atom_homomorphism(
            &atoms,
            &interp(),
            &Substitution::new()
        ));
    }

    #[test]
    fn zero_ary_atoms_match_when_present() {
        let i = Interpretation::from_atoms(vec![atom("saturate", vec![])]);
        assert!(exists_homomorphism(
            &[pos("saturate", vec![])],
            &i,
            &Substitution::new()
        ));
        assert!(!exists_homomorphism(
            &[neg("saturate", vec![])],
            &i,
            &Substitution::new()
        ));
        let empty = Interpretation::new();
        assert!(empty.satisfies_negation_of(&atom("saturate", vec![])));
        assert!(exists_homomorphism(
            &[neg("saturate", vec![])],
            &empty,
            &Substitution::new()
        ));
    }

    #[test]
    fn repeated_variables_within_one_atom_constrain_matches() {
        let i = Interpretation::from_atoms(vec![
            atom("p", vec![cst("a"), cst("a"), cst("b")]),
            atom("p", vec![cst("a"), cst("b"), cst("b")]),
        ]);
        let hs = all_homomorphisms(
            &[pos("p", vec![var("X"), var("X"), var("Y")])],
            &i,
            &Substitution::new(),
        );
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].apply_term(&var("X")), cst("a"));
    }

    #[test]
    fn mixed_arities_under_one_predicate_do_not_confuse_the_index() {
        let i = Interpretation::from_atoms(vec![
            atom("p", vec![cst("a")]),
            atom("p", vec![cst("a"), cst("b")]),
        ]);
        let unary = all_homomorphisms(&[pos("p", vec![var("X")])], &i, &Substitution::new());
        assert_eq!(unary.len(), 1);
        let binary = all_homomorphisms(
            &[pos("p", vec![var("X"), var("Y")])],
            &i,
            &Substitution::new(),
        );
        assert_eq!(binary.len(), 1);
    }

    #[test]
    fn delta_matching_partitions_homomorphisms_by_watermark() {
        let mut i = Interpretation::from_atoms(vec![
            atom("edge", vec![cst("a"), cst("b")]),
            atom("edge", vec![cst("b"), cst("c")]),
        ]);
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            pos("edge", vec![var("Y"), var("Z")]),
        ];
        let before = all_homomorphisms(&body, &i, &Substitution::new());
        assert_eq!(before.len(), 1); // a->b->c
        let watermark = i.len();
        i.insert(atom("edge", vec![cst("c"), cst("a")]));
        let mut delta = Vec::new();
        for_each_homomorphism_delta(&body, &i, &Substitution::new(), watermark, &mut |s| {
            delta.push(s.clone());
            ControlFlow::Continue(())
        });
        // New homomorphisms: b->c->a and c->a->b, but not the old a->b->c.
        assert_eq!(delta.len(), 2);
        let full = all_homomorphisms(&body, &i, &Substitution::new());
        assert_eq!(full.len(), before.len() + delta.len());
        for s in &delta {
            assert!(full.contains(s));
            assert!(!before.contains(s));
        }
    }

    #[test]
    fn delta_pivots_partition_the_delta_enumeration() {
        // The union of the per-pivot slices, in pivot order, must equal the
        // one-call delta enumeration exactly (same homomorphisms, same
        // order) — this is what lets the parallel layer split one rule's
        // delta round into independent (rule, pivot) work items.
        let mut i = Interpretation::from_atoms(vec![
            atom("edge", vec![cst("a"), cst("b")]),
            atom("edge", vec![cst("b"), cst("c")]),
        ]);
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            pos("edge", vec![var("Y"), var("Z")]),
        ];
        let plan = CompiledConjunction::compile(&body, &i);
        let watermark = i.len();
        i.insert(atom("edge", vec![cst("c"), cst("a")]));
        i.insert(atom("edge", vec![cst("c"), cst("d")]));
        let empty = Substitution::new();
        for mark in [0, watermark] {
            let mut whole: Vec<String> = Vec::new();
            plan.for_each_delta(&i, &empty, mark, &mut |b| {
                whole.push(b.to_substitution().to_string());
                ControlFlow::Continue(())
            });
            let mut pieced: Vec<String> = Vec::new();
            for pivot in 0..plan.positive_count() {
                plan.for_each_delta_pivot(&i, &empty, mark, pivot, &mut |b| {
                    pieced.push(b.to_substitution().to_string());
                    ControlFlow::Continue(())
                });
            }
            assert_eq!(pieced, whole, "watermark {mark}");
        }
        // Early exit is propagated from a single pivot slice.
        assert!(
            plan.for_each_delta_pivot(&i, &empty, watermark, 0, &mut |_| {
                ControlFlow::Break(())
            })
        );
    }

    #[test]
    fn delta_with_zero_watermark_is_full_matching() {
        let i = interp();
        let body = vec![pos("edge", vec![var("X"), var("Y")])];
        let mut out = Vec::new();
        for_each_homomorphism_delta(&body, &i, &Substitution::new(), 0, &mut |s| {
            out.push(s.clone());
            ControlFlow::Continue(())
        });
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn delta_with_current_watermark_yields_nothing() {
        let i = interp();
        let body = vec![pos("edge", vec![var("X"), var("Y")])];
        assert!(!for_each_homomorphism_delta(
            &body,
            &i,
            &Substitution::new(),
            i.len(),
            &mut |_| ControlFlow::Break(())
        ));
        // And a conjunction without positive literals has no delta
        // homomorphisms either once the watermark is positive.
        assert!(!for_each_homomorphism_delta(
            &[neg("red", vec![var("X")])],
            &i,
            &Substitution::new(),
            1,
            &mut |_| ControlFlow::Break(())
        ));
    }

    #[test]
    fn reference_matcher_agrees_on_mixed_conjunctions() {
        let i = interp();
        let cases: Vec<Vec<Literal>> = vec![
            vec![pos("edge", vec![var("X"), var("Y")])],
            vec![
                pos("edge", vec![var("X"), var("Y")]),
                pos("edge", vec![var("Y"), var("Z")]),
            ],
            vec![
                pos("edge", vec![var("X"), var("Y")]),
                neg("red", vec![var("X")]),
            ],
            vec![neg("red", vec![var("X")])],
            vec![
                pos("red", vec![var("X")]),
                neg("edge", vec![var("X"), var("Z")]),
            ],
        ];
        for body in cases {
            let mut fast: Vec<String> = all_homomorphisms(&body, &i, &Substitution::new())
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut naive: Vec<String> =
                reference::all_homomorphisms(&body, &i, &Substitution::new())
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            fast.sort();
            naive.sort();
            assert_eq!(fast, naive, "mismatch on {body:?}");
        }
    }

    #[test]
    fn cached_plans_execute_with_ground_initial_substitutions() {
        // One compiled plan, many initial substitutions applied as slot
        // presets — the trigger-activity pattern.
        let i = interp();
        let plan = CompiledConjunction::compile(&[pos("edge", vec![var("X"), var("Y")])], &i);
        // The compile counter is process-wide, so concurrently running tests
        // may compile plans of their own inside the measured window; retry
        // until an interference-free window is observed.  A regression —
        // these executions themselves compiling — fails every attempt.
        let mut clean_window = false;
        for _ in 0..50 {
            let before = plan_compile_count();
            for (from, to) in [("a", "b"), ("b", "c"), ("c", "a")] {
                let mut init = Substitution::new();
                init.bind(var("X"), cst(from));
                let hs = plan.all(&i, &init);
                assert_eq!(hs.len(), 1);
                assert_eq!(hs[0].apply_term(&var("Y")), cst(to));
                assert_eq!(hs[0].apply_term(&var("X")), cst(from));
                assert!(plan.exists(&i, &init));
            }
            let mut unmatched = Substitution::new();
            unmatched.bind(var("X"), cst("zzz"));
            assert!(!plan.exists(&i, &unmatched));
            if plan_compile_count() == before {
                clean_window = true;
                break;
            }
        }
        assert!(clean_window, "executions must not compile");
    }

    #[test]
    fn cached_plans_fall_back_on_variable_chained_initials() {
        // An initial substitution mapping a conjunction variable to another
        // variable cannot be applied as slot presets; the cached plan must
        // transparently recompile and agree with the one-shot wrapper and
        // the reference matcher.
        let i = interp();
        let body = vec![pos("edge", vec![var("X"), var("Z")])];
        let mut init = Substitution::new();
        init.bind(var("X"), var("Y"));
        let plan = CompiledConjunction::compile(&body, &i);
        let mut cached: Vec<String> = plan.all(&i, &init).iter().map(|s| s.to_string()).collect();
        let mut one_shot: Vec<String> = all_homomorphisms(&body, &i, &init)
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut naive: Vec<String> = reference::all_homomorphisms(&body, &i, &init)
            .iter()
            .map(|s| s.to_string())
            .collect();
        cached.sort();
        one_shot.sort();
        naive.sort();
        assert_eq!(cached, one_shot);
        assert_eq!(cached, naive);
    }

    #[test]
    fn slot_bindings_expose_lookup_application_and_materialisation() {
        let i = interp();
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            neg("red", vec![var("X")]),
        ];
        let plan = CompiledConjunction::compile(&body, &i);
        let mut seen = 0usize;
        plan.for_each(&i, &Substitution::new(), &mut |binding| {
            seen += 1;
            let x = binding.value_of(&var("X")).expect("X is bound");
            assert_eq!(binding.apply_term(&var("X")), x);
            assert_eq!(binding.value_of(&var("W")), None);
            assert_eq!(binding.apply_term(&var("W")), var("W"));
            assert_eq!(binding.apply_term(&cst("a")), cst("a"));
            let grounded = binding.apply_atom(&atom("edge", vec![var("X"), var("Y")]));
            assert!(grounded.is_ground());
            let materialised = binding.to_substitution();
            assert_eq!(materialised.apply_term(&var("X")), x);
            assert_eq!(
                materialised.apply_term(&var("Y")),
                binding.apply_term(&var("Y"))
            );
            ControlFlow::Continue(())
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn cached_plans_stay_correct_on_grown_instances() {
        // Compiled against an empty instance (cold statistics), executed
        // against a grown one: results must match a freshly compiled plan.
        let cold = CompiledConjunction::compile(
            &[
                pos("edge", vec![var("X"), var("Y")]),
                pos("edge", vec![var("Y"), var("Z")]),
            ],
            &Interpretation::new(),
        );
        let i = interp();
        let mut from_cold: Vec<String> = cold
            .all(&i, &Substitution::new())
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut from_warm: Vec<String> = all_homomorphisms(
            &[
                pos("edge", vec![var("X"), var("Y")]),
                pos("edge", vec![var("Y"), var("Z")]),
            ],
            &i,
            &Substitution::new(),
        )
        .iter()
        .map(|s| s.to_string())
        .collect();
        from_cold.sort();
        from_warm.sort();
        assert_eq!(from_cold, from_warm);
    }

    #[test]
    fn planner_prefers_selective_constants() {
        // A large star relation plus a tiny selective one: the planner must
        // start from the selective pattern regardless of written order.
        let mut i = Interpretation::new();
        for k in 0..50 {
            i.insert(atom("edge", vec![cst("hub"), cst(&format!("v{k}"))]));
        }
        i.insert(atom("mark", vec![cst("v7")]));
        let body = vec![
            pos("edge", vec![var("X"), var("Y")]),
            pos("mark", vec![var("Y")]),
        ];
        let hs = all_homomorphisms(&body, &i, &Substitution::new());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].apply_term(&var("Y")), cst("v7"));
    }
}
