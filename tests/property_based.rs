//! Property-based tests over randomly generated programs, databases,
//! interpretations and conjunctions.
//!
//! The generators are driven by a small deterministic xorshift PRNG (the
//! build environment has no crates.io access, so `proptest` is not
//! available); every case is reproducible from its printed seed.
//!
//! The first group of properties is the correctness contract of the indexed
//! join engine: on randomized conjunctions and interpretations — including
//! negative literals, unsafe variables and initial substitutions — the
//! engine must return exactly the same homomorphism set as the retained
//! naive reference matcher (`stable_tgd::core::matcher::reference`), and
//! delta matching must partition the homomorphism space by watermark.

use std::ops::ControlFlow;

use stable_tgd::core::matcher::{self, reference};
use stable_tgd::core::{atom, Atom, Interpretation, Literal, Program, Query, Substitution, Term};
use stable_tgd::lp::{LpEngine, LpLimits};
use stable_tgd::parser::{parse_database, parse_program, parse_rule};
use stable_tgd::sms::{NullBudget, SmsEngine};

/// Deterministic xorshift64* generator for the property tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

// ---------------------------------------------------------------------------
// Matcher equivalence: indexed join engine vs naive reference matcher.
// ---------------------------------------------------------------------------

const PREDICATES: &[(&str, usize)] = &[("p", 2), ("q", 1), ("r", 3), ("e", 2)];
const VARIABLES: &[&str] = &["X", "Y", "Z", "W"];

fn random_ground_term(rng: &mut Rng) -> Term {
    if rng.chance(80) {
        stable_tgd::core::cst(&format!("c{}", rng.below(6)))
    } else {
        Term::null(rng.below(3) as u64)
    }
}

fn random_pattern_term(rng: &mut Rng) -> Term {
    if rng.chance(55) {
        stable_tgd::core::var(VARIABLES[rng.below(VARIABLES.len())])
    } else {
        random_ground_term(rng)
    }
}

fn random_interpretation(rng: &mut Rng, max_atoms: usize) -> Interpretation {
    let count = rng.below(max_atoms + 1);
    let mut interpretation = Interpretation::new();
    for _ in 0..count {
        let &(pred, arity) = rng.pick(PREDICATES);
        let args = (0..arity).map(|_| random_ground_term(rng)).collect();
        interpretation.insert(atom(pred, args));
    }
    interpretation
}

fn random_pattern_atom(rng: &mut Rng) -> Atom {
    let &(pred, arity) = rng.pick(PREDICATES);
    let args = (0..arity).map(|_| random_pattern_term(rng)).collect();
    atom(pred, args)
}

fn random_conjunction(rng: &mut Rng) -> Vec<Literal> {
    let positives = rng.below(4); // 0..=3 positive literals
    let negatives = rng.below(3); // 0..=2 negative literals
    let mut literals = Vec::new();
    for _ in 0..positives {
        literals.push(Literal::positive(random_pattern_atom(rng)));
    }
    for _ in 0..negatives {
        literals.push(Literal::negative(random_pattern_atom(rng)));
    }
    literals
}

fn random_initial(rng: &mut Rng) -> Substitution {
    let mut initial = Substitution::new();
    if rng.chance(30) {
        let variable = stable_tgd::core::var(VARIABLES[rng.below(VARIABLES.len())]);
        initial.bind(variable, random_ground_term(rng));
    }
    initial
}

fn rendered(homomorphisms: &[Substitution]) -> Vec<String> {
    let mut out: Vec<String> = homomorphisms.iter().map(Substitution::to_string).collect();
    out.sort();
    out
}

#[test]
fn indexed_matcher_equals_reference_on_random_conjunctions() {
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed);
        let interpretation = random_interpretation(&mut rng, 14);
        let conjunction = random_conjunction(&mut rng);
        let initial = random_initial(&mut rng);
        let fast = matcher::all_homomorphisms(&conjunction, &interpretation, &initial);
        let naive = reference::all_homomorphisms(&conjunction, &interpretation, &initial);
        assert_eq!(
            rendered(&fast),
            rendered(&naive),
            "seed {seed}: mismatch on {conjunction:?} over {interpretation}"
        );
    }
}

#[test]
fn indexed_matcher_equals_reference_on_unsafe_conjunctions() {
    // Force the unsafe path: negative-only conjunctions plus mixed ones whose
    // negative literals use variables that no positive literal binds.
    for seed in 0..150u64 {
        let mut rng = Rng::new(0xabcd ^ seed);
        let interpretation = random_interpretation(&mut rng, 8);
        let mut conjunction = Vec::new();
        if rng.chance(50) {
            conjunction.push(Literal::positive(random_pattern_atom(&mut rng)));
        }
        for _ in 0..=rng.below(2) {
            conjunction.push(Literal::negative(random_pattern_atom(&mut rng)));
        }
        let initial = random_initial(&mut rng);
        let fast = matcher::all_homomorphisms(&conjunction, &interpretation, &initial);
        let naive = reference::all_homomorphisms(&conjunction, &interpretation, &initial);
        assert_eq!(
            rendered(&fast),
            rendered(&naive),
            "seed {seed}: mismatch on {conjunction:?} over {interpretation}"
        );
    }
}

#[test]
fn exists_agrees_with_nonemptiness_of_the_reference_set() {
    for seed in 0..150u64 {
        let mut rng = Rng::new(0x5151 ^ seed);
        let interpretation = random_interpretation(&mut rng, 10);
        let conjunction = random_conjunction(&mut rng);
        let naive =
            reference::all_homomorphisms(&conjunction, &interpretation, &Substitution::new());
        let exists =
            matcher::exists_homomorphism(&conjunction, &interpretation, &Substitution::new());
        assert_eq!(exists, !naive.is_empty(), "seed {seed}");
    }
}

#[test]
fn delta_matching_partitions_the_homomorphism_space() {
    // For positive conjunctions: homomorphisms into the grown interpretation
    // are exactly the old homomorphisms plus the delta homomorphisms, with no
    // overlap and no duplicates.
    for seed in 0..200u64 {
        let mut rng = Rng::new(0xd17a ^ seed);
        let atoms: Vec<Atom> = {
            let i = random_interpretation(&mut rng, 14);
            i.atoms().cloned().collect()
        };
        let split = if atoms.is_empty() {
            0
        } else {
            rng.below(atoms.len() + 1)
        };
        let old = Interpretation::from_atoms(atoms[..split].iter().cloned());
        let full = Interpretation::from_atoms(atoms.iter().cloned());
        let watermark = old.len();

        let positives: Vec<Atom> = (0..rng.below(3) + 1)
            .map(|_| random_pattern_atom(&mut rng))
            .collect();
        let on_old = matcher::all_atom_homomorphisms(&positives, &old, &Substitution::new());
        let on_full = matcher::all_atom_homomorphisms(&positives, &full, &Substitution::new());
        let delta = matcher::all_atom_homomorphisms_delta(
            &positives,
            &full,
            &Substitution::new(),
            watermark,
        );

        let mut combined = rendered(&on_old);
        combined.extend(rendered(&delta));
        combined.sort();
        assert_eq!(
            combined,
            rendered(&on_full),
            "seed {seed}: delta decomposition failed for {positives:?}"
        );
        // Disjointness: nothing in the delta already matched the old part.
        for h in rendered(&delta) {
            assert!(
                !rendered(&on_old).contains(&h),
                "seed {seed}: duplicate homomorphism {h}"
            );
        }
    }
}

#[test]
fn cached_plan_enumeration_equals_reference() {
    // A plan compiled once (against unrelated, cold statistics) and executed
    // with per-call initial substitutions must enumerate exactly the
    // reference matcher's homomorphism set.
    for seed in 0..200u64 {
        let mut rng = Rng::new(0xcac4e ^ seed);
        let interpretation = random_interpretation(&mut rng, 14);
        let conjunction = random_conjunction(&mut rng);
        let initial = random_initial(&mut rng);
        let plan =
            stable_tgd::core::CompiledConjunction::compile(&conjunction, &Interpretation::new());
        let cached = plan.all(&interpretation, &initial);
        let naive = reference::all_homomorphisms(&conjunction, &interpretation, &initial);
        assert_eq!(
            rendered(&cached),
            rendered(&naive),
            "seed {seed}: cached plan mismatch on {conjunction:?} over {interpretation}"
        );
    }
}

#[test]
fn cached_plan_delta_enumeration_partitions_like_the_reference() {
    // One plan compiled against the old part of the instance serves both the
    // full and the delta enumeration on the grown instance; old + delta must
    // equal the reference matcher's full set, without duplicates.
    for seed in 0..200u64 {
        let mut rng = Rng::new(0xde17a ^ seed);
        let atoms: Vec<Atom> = {
            let i = random_interpretation(&mut rng, 14);
            i.atoms().cloned().collect()
        };
        let split = if atoms.is_empty() {
            0
        } else {
            rng.below(atoms.len() + 1)
        };
        let old = Interpretation::from_atoms(atoms[..split].iter().cloned());
        let full = Interpretation::from_atoms(atoms.iter().cloned());
        let watermark = old.len();

        let positives: Vec<Atom> = (0..rng.below(3) + 1)
            .map(|_| random_pattern_atom(&mut rng))
            .collect();
        let plan = stable_tgd::core::CompiledConjunction::compile_atoms(&positives, &old);
        let on_old = plan.all(&old, &Substitution::new());
        let delta = plan.all_delta(&full, &Substitution::new(), watermark);
        let literals: Vec<Literal> = positives.iter().cloned().map(Literal::positive).collect();
        let on_full_reference =
            reference::all_homomorphisms(&literals, &full, &Substitution::new());

        let mut combined = rendered(&on_old);
        combined.extend(rendered(&delta));
        combined.sort();
        assert_eq!(
            combined,
            rendered(&on_full_reference),
            "seed {seed}: cached delta decomposition failed for {positives:?}"
        );
        for h in rendered(&delta) {
            assert!(
                !rendered(&on_old).contains(&h),
                "seed {seed}: duplicate homomorphism {h}"
            );
        }
    }
}

#[test]
fn fixpoint_runs_compile_each_rule_plan_exactly_once() {
    // The compile-once contract on random existential programs: a chase run
    // compiles exactly one rule-set worth of plans, however many rounds it
    // takes.  The counter is process-wide (so compilations on parallel pool
    // workers are counted too); concurrently running tests may compile plans
    // of their own inside the measured window, so each seed retries until an
    // interference-free window is observed — a chase that genuinely
    // recompiles per round fails every attempt.
    use stable_tgd::core::matcher::plan_compile_count;
    use stable_tgd::core::CompiledRuleSet;
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xc0417 ^ seed);
        let (rules_text, db_text) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let positive = program.positive_part();
        let mut clean_window = false;
        for _ in 0..50 {
            let before_build = plan_compile_count();
            let _plans = CompiledRuleSet::from_program(&positive, &Interpretation::new());
            let per_build = plan_compile_count() - before_build;
            let before_run = plan_compile_count();
            let _ = stable_tgd::chase::restricted_chase(
                &database,
                &program,
                &stable_tgd::chase::ChaseConfig::with_max_steps(200),
            );
            if per_build > 0 && plan_compile_count() - before_run == per_build {
                clean_window = true;
                break;
            }
        }
        assert!(
            clean_window,
            "seed {seed}: chase recompiled rule plans ({rules_text})"
        );
    }
}

// ---------------------------------------------------------------------------
// Parallel determinism: every thread count produces bit-identical results.
// ---------------------------------------------------------------------------

/// Runs `f` at a fixed worker count and restores the default afterwards.
///
/// The override is process-global; because every parallel consumer is
/// deterministic, another test concurrently changing the override can only
/// change how fast this one runs, never what it computes — which is exactly
/// the property these tests assert.
fn at_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    stable_tgd::core::parallel::set_thread_override(Some(threads));
    let result = f();
    stable_tgd::core::parallel::set_thread_override(None);
    result
}

/// All three chase variants produce bit-identical instances — arena
/// insertion order, null names and step counts included — at thread counts
/// 1, 2 and 8 on random existential programs.
#[test]
fn parallel_chase_is_deterministic_across_thread_counts() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x9a117e1 ^ seed);
        let (rules_text, db_text) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let config = stable_tgd::chase::ChaseConfig::with_max_steps(300);
        let run = || {
            let restricted = stable_tgd::chase::restricted_chase(&database, &program, &config);
            let skolem = stable_tgd::chase::skolem_chase(&database, &program, &config);
            let oblivious = stable_tgd::chase::oblivious_chase(&database, &program, &config);
            (
                restricted.instance.atoms().cloned().collect::<Vec<Atom>>(),
                restricted.steps,
                skolem.instance.atoms().cloned().collect::<Vec<Atom>>(),
                skolem.nulls_created,
                oblivious.instance.atoms().cloned().collect::<Vec<Atom>>(),
            )
        };
        let sequential = at_thread_count(1, run);
        for threads in [2usize, 8] {
            let parallel_run = at_thread_count(threads, run);
            assert_eq!(
                parallel_run, sequential,
                "seed {seed}, {threads} threads: chase diverged ({rules_text})"
            );
        }
    }
}

/// SMS grounding + stable-model enumeration and the LP pipeline produce
/// identical model sets (and identical enumeration order) at thread counts
/// 1, 2 and 8 on random normal programs.
#[test]
fn parallel_grounding_and_model_enumeration_are_deterministic() {
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x9a12de7 ^ seed);
        let (rules_text, db_text) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let run = || {
            let sms = SmsEngine::new(&program).with_null_budget(NullBudget::None);
            let sms_models: Vec<Vec<Atom>> = sms
                .stable_models(&database)
                .unwrap()
                .iter()
                .map(Interpretation::sorted_atoms)
                .collect();
            let lp = LpEngine::new(&database, &program, &LpLimits::default()).unwrap();
            let lp_models: Vec<Vec<Atom>> = lp
                .models()
                .iter()
                .map(Interpretation::sorted_atoms)
                .collect();
            (sms_models, lp_models)
        };
        let sequential = at_thread_count(1, run);
        for threads in [2usize, 8] {
            let parallel_run = at_thread_count(threads, run);
            assert_eq!(
                parallel_run, sequential,
                "seed {seed}, {threads} threads: model enumeration diverged ({rules_text})"
            );
        }
    }
}

/// The small-delta path: rounds of a handful of work units dispatch to the
/// already-running pool workers instead of running sequentially — and must
/// still be bit-identical (arena order, null names, steps) to the one-thread
/// run.  Tiny databases keep every chase round's delta to a handful of atoms.
#[test]
fn small_delta_rounds_are_deterministic_across_thread_counts() {
    use stable_tgd::core::parallel;
    // Even 2-work-unit rounds fan out.
    const _: () = assert!(parallel::MIN_POOLED_WORK <= 2);
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x5de17a ^ seed);
        let (rules_text, _) = existential_program_and_database(&mut rng);
        // 1-2 facts: every semi-naive round is a small delta.
        let db_text = format!("p(c0, c1). q(c{}, c0).", rng.below(3));
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let config = stable_tgd::chase::ChaseConfig::with_max_steps(120);
        let run = || {
            let restricted = stable_tgd::chase::restricted_chase(&database, &program, &config);
            let skolem = stable_tgd::chase::skolem_chase(&database, &program, &config);
            (
                restricted.instance.atoms().cloned().collect::<Vec<Atom>>(),
                restricted.steps,
                skolem.instance.atoms().cloned().collect::<Vec<Atom>>(),
                skolem.nulls_created,
            )
        };
        let sequential = at_thread_count(1, run);
        for threads in [2usize, 8] {
            let pooled = at_thread_count(threads, run);
            assert_eq!(
                pooled, sequential,
                "seed {seed}, {threads} threads (pool): small-delta chase diverged ({rules_text})"
            );
        }
    }
}

/// The parallel trigger-discovery partition over `(rule, pivot)` work items
/// returns exactly the sequential trigger sequence on random programs, for
/// both seeded (watermark 0) and delta rounds.
#[test]
fn parallel_trigger_discovery_matches_sequential_order() {
    use stable_tgd::chase::triggers_from_compiled;
    use stable_tgd::core::CompiledRuleSet;
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x7419_9e75 ^ seed);
        let (rules_text, db_text) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap().positive_part();
        let database = parse_database(&db_text).unwrap();
        let chase = at_thread_count(1, || {
            stable_tgd::chase::restricted_chase(
                &database,
                &program,
                &stable_tgd::chase::ChaseConfig::with_max_steps(120),
            )
        });
        let instance = chase.instance;
        let plans = CompiledRuleSet::from_program(&program, &instance);
        for watermark in [0, instance.len() / 2, instance.len()] {
            let sequential =
                at_thread_count(1, || triggers_from_compiled(&plans, &instance, watermark));
            for threads in [2usize, 8] {
                let parallel_run = at_thread_count(threads, || {
                    triggers_from_compiled(&plans, &instance, watermark)
                });
                assert_eq!(
                    parallel_run, sequential,
                    "seed {seed}, {threads} threads, watermark {watermark}: triggers diverged"
                );
            }
        }
    }
}

#[test]
fn delta_visitors_can_stop_early() {
    let mut rng = Rng::new(99);
    let interpretation = random_interpretation(&mut rng, 12);
    let positives = vec![random_pattern_atom(&mut rng)];
    let mut seen = 0usize;
    matcher::for_each_atom_homomorphism_delta(
        &positives,
        &interpretation,
        &Substitution::new(),
        0,
        &mut |_| {
            seen += 1;
            ControlFlow::Break(())
        },
    );
    assert!(seen <= 1);
}

// ---------------------------------------------------------------------------
// Random existential-free normal programs (text generators as in the old
// proptest strategies).
// ---------------------------------------------------------------------------

/// A small existential-free normal program plus a database over unary
/// predicates, rendered as text.
fn program_and_database(rng: &mut Rng) -> (String, String) {
    let predicates = ["p", "q", "r", "s"];
    let mut rules = String::new();
    for _ in 0..rng.below(4) + 1 {
        let body = *rng.pick(&predicates);
        let negated = *rng.pick(&predicates);
        let head = *rng.pick(&predicates);
        if rng.chance(50) && body != negated {
            rules.push_str(&format!("{body}(X), not {negated}(X) -> {head}(X). "));
        } else {
            rules.push_str(&format!("{body}(X) -> {head}(X). "));
        }
    }
    let mut facts = String::new();
    for _ in 0..rng.below(3) + 1 {
        let pred = *rng.pick(&["p", "q"]);
        facts.push_str(&format!("{pred}(c{}). ", rng.below(3)));
    }
    (rules, facts)
}

/// A small rule set *with* existentially quantified variables over binary
/// predicates, rendered as text, plus a matching database.
fn existential_program_and_database(rng: &mut Rng) -> (String, String) {
    let predicates = ["p", "q", "r"];
    let mut rules = String::new();
    for _ in 0..rng.below(3) + 1 {
        let body = *rng.pick(&predicates);
        let extra = *rng.pick(&predicates);
        let head = *rng.pick(&predicates);
        match (rng.chance(50), rng.chance(50)) {
            (true, _) => rules.push_str(&format!("{body}(X, Y) -> {head}(Y, Z). ")),
            (false, true) => {
                rules.push_str(&format!("{body}(X, Y), {extra}(Y, W) -> {head}(X, W). "));
            }
            (false, false) => rules.push_str(&format!("{body}(X, Y) -> {head}(Y, X). ")),
        }
    }
    let mut facts = String::new();
    for _ in 0..rng.below(3) + 1 {
        let pred = *rng.pick(&["p", "q"]);
        facts.push_str(&format!("{pred}(c{}, c{}). ", rng.below(3), rng.below(3)));
    }
    (rules, facts)
}

/// Theorem 1: on existential-free programs the LP approach and the new SMS
/// semantics have identical stable model sets.
#[test]
fn lp_and_sms_coincide_on_existential_free_programs() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0x7ea1 ^ seed);
        let (rules_text, db_text) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let lp = LpEngine::new(&database, &program, &LpLimits::default()).unwrap();
        let mut lp_models: Vec<Vec<Atom>> = lp
            .models()
            .iter()
            .map(Interpretation::sorted_atoms)
            .collect();
        lp_models.sort();
        let sms = SmsEngine::new(&program).with_null_budget(NullBudget::None);
        let mut sms_models: Vec<Vec<Atom>> = sms
            .stable_models(&database)
            .unwrap()
            .iter()
            .map(Interpretation::sorted_atoms)
            .collect();
        sms_models.sort();
        assert_eq!(
            lp_models, sms_models,
            "seed {seed}: {rules_text} / {db_text}"
        );
    }
}

/// Every enumerated stable model passes the direct Definition-1 check and the
/// Lemma-7 support check.
#[test]
fn enumerated_models_are_stable_and_supported() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0x57ab ^ seed);
        let (rules_text, db_text) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let sms = SmsEngine::new(&program).with_null_budget(NullBudget::None);
        for model in sms.stable_models(&database).unwrap() {
            assert!(stable_tgd::sms::is_stable_model(
                &database, &program, &model
            ));
            assert!(stable_tgd::sms::is_supported_by_operator(
                &database, &program, &model
            ));
            assert!(database.facts().all(|f| model.contains(f)));
        }
    }
}

/// Printing a rule and re-parsing it is the identity.
#[test]
fn rule_display_round_trips() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xd15b ^ seed);
        let (rules_text, _) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        for rule in program.rules() {
            let reparsed = parse_rule(&rule.to_string()).unwrap();
            assert_eq!(rule, &reparsed);
        }
    }
}

/// The classifiers never panic and weak-acyclicity of an existential-free
/// program always holds.
#[test]
fn existential_free_programs_are_weakly_acyclic() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xacc1 ^ seed);
        let (rules_text, _) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        assert!(stable_tgd::classes::is_weakly_acyclic(&program));
        let _ = stable_tgd::classes::is_sticky(&program);
        let _ = stable_tgd::classes::is_guarded(&program);
    }
}

/// The known containments between the implemented classes (WA ⊆ JA ⊆ MFA,
/// linear ⊆ guarded ⊆ weakly-guarded, …) hold on random rule sets.
#[test]
fn class_containments_hold_on_random_programs() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xc095 ^ seed);
        let (rules_text, _) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let report = stable_tgd::classes::classify(&program);
        assert_eq!(
            report.violated_containment(),
            None,
            "seed {seed}: {rules_text}"
        );
    }
}

/// On chase-terminating programs the restricted, Skolem and oblivious chases
/// are ordered by size and have cores of equal size (they are
/// homomorphically equivalent universal models).
#[test]
fn chase_variants_are_ordered_and_homomorphically_equivalent() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xc4a5 ^ seed);
        let (rules_text, db_text) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let config = stable_tgd::chase::ChaseConfig::with_max_steps(300);
        let restricted = stable_tgd::chase::restricted_chase(&database, &program, &config);
        let skolem = stable_tgd::chase::skolem_chase(&database, &program, &config);
        let oblivious = stable_tgd::chase::oblivious_chase(&database, &program, &config);
        // Only compare fully terminated runs (the random program may be
        // non-terminating, in which case the step bound kicks in).
        if restricted.terminated() && skolem.terminated() && oblivious.terminated() {
            assert!(restricted.instance.len() <= skolem.instance.len());
            assert!(skolem.instance.len() <= oblivious.instance.len());
            if skolem.instance.len() <= 60 {
                let restricted_core = stable_tgd::chase::core_of(&restricted.instance);
                let skolem_core = stable_tgd::chase::core_of(&skolem.instance);
                assert_eq!(restricted_core.len(), skolem_core.len(), "seed {seed}");
            }
        }
    }
}

/// Min-fill and min-degree decompositions of the chase instance are valid
/// tree decompositions, and they never beat the exact treewidth.
#[test]
fn heuristic_decompositions_of_chase_instances_are_valid() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xdec0 ^ seed);
        let (rules_text, db_text) = existential_program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        let database = parse_database(&db_text).unwrap();
        let config = stable_tgd::chase::ChaseConfig::with_max_steps(60);
        let chase = stable_tgd::chase::restricted_chase(&database, &program, &config);
        let graph = stable_tgd::treewidth::GaifmanGraph::of_interpretation(&chase.instance);
        let min_fill = stable_tgd::treewidth::min_fill_decomposition(&graph);
        let min_degree = stable_tgd::treewidth::min_degree_decomposition(&graph);
        assert_eq!(min_fill.validate(&graph), Ok(()));
        assert_eq!(min_degree.validate(&graph), Ok(()));
        assert!(min_fill
            .validate_for_interpretation(&chase.instance)
            .is_ok());
        if graph.vertex_count() <= 14 {
            let exact = stable_tgd::treewidth::exact_treewidth(&graph);
            assert!(min_fill.width() >= exact);
            assert!(min_degree.width() >= exact);
        }
    }
}

/// The EFWFS of an existential-free, negation-free program entails every
/// atom of its unique (least) model that the LP engine entails.
#[test]
fn efwfs_and_lp_agree_on_positive_existential_free_programs() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xefef ^ seed);
        let (rules_text, db_text) = program_and_database(&mut rng);
        let program = parse_program(&rules_text).unwrap();
        // Keep only the negation-free rules: on these the least model is the
        // unique stable model and also the unique (two-valued) WFS model.
        let positive =
            Program::from_rules(program.rules().iter().filter(|r| r.is_positive()).cloned())
                .unwrap();
        let database = parse_database(&db_text).unwrap();
        let config = stable_tgd::lp::EfwfsConfig {
            fresh_constants: 0,
            unify_database_constants: false,
            ..stable_tgd::lp::EfwfsConfig::default()
        };
        let lp = LpEngine::new(&database, &positive, &LpLimits::default()).unwrap();
        if lp.models().len() != 1 {
            continue;
        }
        for atom in lp.models()[0].atoms() {
            let q = Query::boolean(vec![Literal::positive(atom.clone())]).unwrap();
            let outcome = stable_tgd::lp::efwfs_entails_cautious(&database, &positive, &q, &config);
            assert!(
                outcome.entailed,
                "seed {seed}: EFWFS does not entail {atom}"
            );
        }
    }
}
