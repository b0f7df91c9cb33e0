//! Criterion benchmark for the matcher hot path: the indexed join engine of
//! `ntgd_core::matcher` versus the retained naive reference matcher
//! (`ntgd_core::matcher::reference`) on chain joins, star joins and
//! negation-heavy conjunctions, plus the compiled-plan workloads of the plan
//! cache PR: compile-once-vs-compile-per-call on a multi-round chain-join
//! delta workload, and slot-view-vs-cloned-substitution enumeration.
//!
//! Besides the criterion-style report, the benchmark records the measured
//! medians and speedups in `BENCH_matcher.json` at the repository root, so
//! the before/after numbers of the matcher PRs stay reproducible with
//! `cargo bench --bench matcher` (the CI gate compares them against the
//! committed baseline with `cargo run -p ntgd-bench --bin bench_gate`).

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::Criterion;
use ntgd_chase::triggers_from_compiled;
use ntgd_core::matcher::{self, reference};
use ntgd_core::{
    atom, cst, parallel, var, Atom, CompiledConjunction, CompiledRuleSet, Interpretation, Literal,
    Substitution,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Workload {
    name: &'static str,
    interpretation: Interpretation,
    conjunction: Vec<Literal>,
}

/// A sparse random edge relation.
fn random_edges(rng: &mut StdRng, nodes: usize, edges: usize) -> Interpretation {
    let mut interpretation = Interpretation::new();
    while interpretation.len() < edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        interpretation.insert(atom(
            "e",
            vec![cst(&format!("n{a}")), cst(&format!("n{b}"))],
        ));
    }
    interpretation
}

fn workloads() -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(0x6a01);
    let mut out = Vec::new();

    // Chain join: e(X,Y), e(Y,Z), e(Z,W) over a sparse random graph.  The
    // indexed engine probes (e, 0, y) for the bound joint variables; the
    // reference matcher rescans all edges at every level.
    let chain = random_edges(&mut rng, 150, 450);
    out.push(Workload {
        name: "chain_join",
        interpretation: chain,
        conjunction: vec![
            Literal::positive(atom("e", vec![var("X"), var("Y")])),
            Literal::positive(atom("e", vec![var("Y"), var("Z")])),
            Literal::positive(atom("e", vec![var("Z"), var("W")])),
        ],
    });

    // Star join: a large spoke relation joined with a tiny selective one.
    // The planner must reorder to start from the selective predicate.
    let mut star = Interpretation::new();
    for spoke in 0..2_000 {
        star.insert(atom(
            "likes",
            vec![cst(&format!("u{}", spoke % 50)), cst(&format!("i{spoke}"))],
        ));
    }
    for marked in 0..5 {
        star.insert(atom("mark", vec![cst(&format!("i{}", marked * 311))]));
    }
    out.push(Workload {
        name: "star_join",
        interpretation: star,
        conjunction: vec![
            Literal::positive(atom("likes", vec![var("X"), var("Y")])),
            Literal::positive(atom("mark", vec![var("Y")])),
        ],
    });

    // Negation: a join filtered by two negative literals (safe: all
    // variables are bound positively).
    let mut negation = random_edges(&mut rng, 120, 360);
    for k in 0..60 {
        negation.insert(atom("blocked", vec![cst(&format!("n{}", k * 2))]));
    }
    out.push(Workload {
        name: "negation",
        interpretation: negation,
        conjunction: vec![
            Literal::positive(atom("e", vec![var("X"), var("Y")])),
            Literal::positive(atom("e", vec![var("Y"), var("Z")])),
            Literal::negative(atom("blocked", vec![var("X")])),
            Literal::negative(atom("e", vec![var("Z"), var("X")])),
        ],
    });

    out
}

fn count_indexed(workload: &Workload) -> usize {
    matcher::all_homomorphisms(
        &workload.conjunction,
        &workload.interpretation,
        &Substitution::new(),
    )
    .len()
}

fn count_reference(workload: &Workload) -> usize {
    reference::all_homomorphisms(
        &workload.conjunction,
        &workload.interpretation,
        &Substitution::new(),
    )
    .len()
}

/// Median wall-clock duration of `samples` runs of `routine`.
fn median_duration<F: FnMut() -> usize>(samples: usize, mut routine: F) -> Duration {
    std::hint::black_box(routine());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(routine());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn time_once<F: FnMut() -> usize>(mut routine: F) -> Duration {
    let start = Instant::now();
    std::hint::black_box(routine());
    start.elapsed()
}

fn median_of(times: &mut [Duration]) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// The multi-round chain-join delta workload of the plan-cache comparison: a
/// base graph, the atoms inserted one per round, and the chain body.
fn compile_cache_workload() -> (Interpretation, Vec<Atom>, Vec<Atom>) {
    let mut rng = StdRng::seed_from_u64(0x6a03);
    // Sparse: a chase round typically derives a handful of atoms, so the
    // delta neighbourhood (and thus the matching work per round) is tiny and
    // per-round compilation is the dominant avoidable cost.
    let base = random_edges(&mut rng, 2_000, 400);
    let extra: Vec<Atom> = (0..600)
        .map(|_| {
            let a = rng.gen_range(0..2_000);
            let b = rng.gen_range(0..2_000);
            atom("e", vec![cst(&format!("n{a}")), cst(&format!("n{b}"))])
        })
        .collect();
    let body = vec![
        atom("e", vec![var("X"), var("Y")]),
        atom("e", vec![var("Y"), var("Z")]),
        atom("e", vec![var("Z"), var("W")]),
        atom("e", vec![var("W"), var("V")]),
        atom("e", vec![var("V"), var("U")]),
    ];
    (base, extra, body)
}

/// Runs the multi-round workload: every round inserts one atom and
/// delta-matches the chain body against it.  With `cached` the plan is
/// compiled once before the rounds; otherwise every round compiles a
/// one-shot plan (the pre-cache behaviour of chase/grounding loops).
fn run_delta_rounds(cached: bool, base: &Interpretation, extra: &[Atom], body: &[Atom]) -> usize {
    let empty = Substitution::new();
    let mut interpretation = base.clone();
    let plan = CompiledConjunction::compile_atoms(body, &interpretation);
    let mut count = 0usize;
    for edge in extra {
        let watermark = interpretation.len();
        if !interpretation.insert(edge.clone()) {
            continue;
        }
        if cached {
            plan.for_each_delta(&interpretation, &empty, watermark, &mut |_| {
                count += 1;
                ControlFlow::Continue(())
            });
        } else {
            // Compile-per-call: what every fixpoint round paid before the
            // plan cache (identical execution path, fresh compilation).
            let one_shot = CompiledConjunction::compile_atoms(body, &interpretation);
            one_shot.for_each_delta(&interpretation, &empty, watermark, &mut |_| {
                count += 1;
                ControlFlow::Continue(())
            });
        }
    }
    count
}

/// The parallel-scaling workload: a multi-rule join program over a sparse
/// random graph, plus a watermark selecting a sizable delta suffix — the
/// shape of one semi-naive chase round whose `(rule, pivot)` work items the
/// persistent worker pool distributes.
fn parallel_scaling_workload() -> (ntgd_core::Program, Interpretation, usize) {
    let program = ntgd_parser::parse_program(
        "e(X, Y), e(Y, Z) -> chain2(X, Z).\
         e(X, Y), e(Y, Z), e(Z, W) -> chain3(X, W).\
         e(X, Y), e(X, Z) -> fanout(Y, Z).\
         e(X, Y), e(Z, Y) -> fanin(X, Z).\
         e(X, Y), e(Y, X) -> mutual(X).\
         e(X, Y), e(Y, Z), e(Z, X) -> triangle(X).\
         e(X, Y), e(Y, Z), e(X, Z) -> shortcut(X, Z).\
         e(X, Y) -> labelled(Y, L).",
    )
    .expect("parallel workload program parses");
    let mut rng = StdRng::seed_from_u64(0x6a05);
    let instance = random_edges(&mut rng, 220, 700);
    // The delta suffix: the last ~25% of the arena, as if one chase round
    // had just derived it.
    let delta_watermark = instance.len() - instance.len() / 4;
    (program, instance, delta_watermark)
}

/// One delta-matching round: how long it takes to find the homomorphisms
/// introduced by the newest atom versus a full rematch.
fn bench_delta(criterion: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x6a02);
    let mut interpretation = random_edges(&mut rng, 150, 450);
    let watermark = interpretation.len();
    interpretation.insert(atom("e", vec![cst("n3"), cst("n7")]));
    let body = vec![
        atom("e", vec![var("X"), var("Y")]),
        atom("e", vec![var("Y"), var("Z")]),
    ];
    criterion.bench_function("matcher/delta_round/delta", |b| {
        b.iter(|| {
            matcher::all_atom_homomorphisms_delta(
                &body,
                &interpretation,
                &Substitution::new(),
                watermark,
            )
            .len()
        })
    });
    criterion.bench_function("matcher/delta_round/full_rematch", |b| {
        b.iter(|| {
            matcher::all_atom_homomorphisms(&body, &interpretation, &Substitution::new()).len()
        })
    });
}

fn main() {
    let mut criterion = Criterion::default().sample_size(20);
    let mut rows: Vec<(String, u128, u128, f64, usize)> = Vec::new();

    for workload in workloads() {
        let indexed_count = count_indexed(&workload);
        let reference_count = count_reference(&workload);
        assert_eq!(
            indexed_count, reference_count,
            "engines disagree on {}",
            workload.name
        );

        criterion.bench_function(&format!("matcher/{}/indexed", workload.name), |b| {
            b.iter(|| count_indexed(&workload))
        });
        criterion.bench_function(&format!("matcher/{}/reference", workload.name), |b| {
            b.iter(|| count_reference(&workload))
        });

        let indexed = median_duration(20, || count_indexed(&workload));
        let naive = median_duration(20, || count_reference(&workload));
        let speedup = naive.as_secs_f64() / indexed.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/{}: indexed {indexed:?}, reference {naive:?}, speedup {speedup:.1}x, {indexed_count} homomorphisms",
            workload.name
        );
        rows.push((
            workload.name.to_owned(),
            indexed.as_nanos(),
            naive.as_nanos(),
            speedup,
            indexed_count,
        ));
    }

    // Compile-once vs compile-per-call on the multi-round chain-join delta
    // workload (the chase/grounding round pattern).
    {
        let (base, extra, body) = compile_cache_workload();
        let cached_count = run_delta_rounds(true, &base, &extra, &body);
        let per_call_count = run_delta_rounds(false, &base, &extra, &body);
        assert_eq!(cached_count, per_call_count, "plan cache changed results");
        criterion.bench_function("matcher/compile_cache/cached", |b| {
            b.iter(|| run_delta_rounds(true, &base, &extra, &body))
        });
        criterion.bench_function("matcher/compile_cache/per_call", |b| {
            b.iter(|| run_delta_rounds(false, &base, &extra, &body))
        });
        let cached = median_duration(20, || run_delta_rounds(true, &base, &extra, &body));
        let per_call = median_duration(20, || run_delta_rounds(false, &base, &extra, &body));
        let speedup = per_call.as_secs_f64() / cached.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/compile_cache: cached {cached:?}, per-call {per_call:?}, speedup {speedup:.1}x, {cached_count} homomorphisms"
        );
        rows.push((
            "compile_cache".to_owned(),
            cached.as_nanos(),
            per_call.as_nanos(),
            speedup,
            cached_count,
        ));
    }

    // Slot-view enumeration vs materialising a substitution per result, over
    // one cached plan (isolates the per-result clone the view removes).
    {
        let mut rng = StdRng::seed_from_u64(0x6a04);
        let interpretation = random_edges(&mut rng, 150, 450);
        let body = vec![
            atom("e", vec![var("X"), var("Y")]),
            atom("e", vec![var("Y"), var("Z")]),
            atom("e", vec![var("Z"), var("W")]),
        ];
        let empty = Substitution::new();
        let plan = CompiledConjunction::compile_atoms(&body, &interpretation);
        let x = var("X");
        let view_count = || {
            let mut count = 0usize;
            plan.for_each(&interpretation, &empty, &mut |binding| {
                if binding.value_of(&x).is_some() {
                    count += 1;
                }
                ControlFlow::Continue(())
            });
            count
        };
        let clone_count = || {
            let mut count = 0usize;
            plan.for_each(&interpretation, &empty, &mut |binding| {
                let substitution = binding.to_substitution();
                if !substitution.is_empty() {
                    count += 1;
                }
                ControlFlow::Continue(())
            });
            count
        };
        let homomorphisms = view_count();
        assert_eq!(homomorphisms, clone_count(), "slot view changed results");
        criterion.bench_function("matcher/slot_view/view", |b| b.iter(view_count));
        criterion.bench_function("matcher/slot_view/clone", |b| b.iter(clone_count));
        let view = median_duration(20, view_count);
        let cloned = median_duration(20, clone_count);
        let speedup = cloned.as_secs_f64() / view.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/slot_view: view {view:?}, clone {cloned:?}, speedup {speedup:.1}x, {homomorphisms} homomorphisms"
        );
        rows.push((
            "slot_view".to_owned(),
            view.as_nanos(),
            cloned.as_nanos(),
            speedup,
            homomorphisms,
        ));
    }

    // Parallel scaling: chase-round trigger discovery — the (rule, pivot)
    // work items of a semi-naive round — on one worker versus the machine's
    // full parallelism.  The sequential and parallel runs must produce the
    // identical trigger sequence (the deterministic-merge contract); on a
    // single-core machine the two paths coincide and the speedup is ~1.0x,
    // on an n-core machine the discovery round scales with n.
    {
        let (program, instance, delta_watermark) = parallel_scaling_workload();
        let positive = program.positive_part();
        let plans = CompiledRuleSet::from_program(&positive, &instance);
        let discover = |threads: Option<usize>| -> usize {
            parallel::set_thread_override(threads);
            let seeded = triggers_from_compiled(&plans, &instance, 0).len();
            let delta = triggers_from_compiled(&plans, &instance, delta_watermark).len();
            parallel::set_thread_override(None);
            seeded + delta
        };
        let sequential_triggers = {
            parallel::set_thread_override(Some(1));
            let t = triggers_from_compiled(&plans, &instance, 0);
            parallel::set_thread_override(None);
            t
        };
        let parallel_triggers = triggers_from_compiled(&plans, &instance, 0);
        assert_eq!(
            sequential_triggers, parallel_triggers,
            "parallel trigger discovery changed results"
        );
        let trigger_count = discover(Some(1));
        assert_eq!(trigger_count, discover(None), "parallel count diverged");
        criterion.bench_function("matcher/parallel_scaling/parallel", |b| {
            b.iter(|| discover(None))
        });
        criterion.bench_function("matcher/parallel_scaling/sequential", |b| {
            b.iter(|| discover(Some(1)))
        });
        let parallel_time = median_duration(20, || discover(None));
        let sequential_time = median_duration(20, || discover(Some(1)));
        let speedup =
            sequential_time.as_secs_f64() / parallel_time.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/parallel_scaling: parallel {parallel_time:?}, sequential {sequential_time:?}, speedup {speedup:.1}x, {trigger_count} triggers ({} workers)",
            parallel::num_threads()
        );
        rows.push((
            "parallel_scaling".to_owned(),
            parallel_time.as_nanos(),
            sequential_time.as_nanos(),
            speedup,
            trigger_count,
        ));
    }

    // Observability overhead: a long-lived reasoning session fed a stream
    // of small ASSERT deltas, once with the obs registry and span timers
    // recording (the default posture) and once with them forced off (the
    // NTGD_OBS=0 posture).  The instruments
    // sit on every chase round, pool batch and request, so this stream is
    // exactly where their cost would show; the gate keeps the overhead
    // within noise (speedup ≈ 1.0, disabled time / instrumented time).
    {
        let program = "e(X, Y), e(Y, Z) -> chain2(X, Z).\
             e(X, Y), e(Y, Z), e(Z, W) -> chain3(X, W).\
             e(X, Y), e(X, Z) -> fanout(Y, Z).\
             e(X, Y), e(Z, Y) -> fanin(X, Z).\
             e(X, Y), e(Y, X) -> mutual(X).\
             e(X, Y), e(Y, Z), e(Z, X) -> triangle(X).";
        let mut rng = StdRng::seed_from_u64(0x6a06);
        let batches: Vec<String> = (0..150)
            .map(|_| {
                let a = rng.gen_range(0..60);
                let b = rng.gen_range(0..60);
                format!("ASSERT e(v{a}, v{b}).")
            })
            .collect();
        let run_stream = |instrumented: bool| -> usize {
            ntgd_core::obs::set_enabled_override(Some(instrumented));
            let mut session = ntgd_server::Session::new(ntgd_server::SessionConfig::default());
            assert!(session.execute(&format!("LOAD {program}")).is_ok());
            for batch in &batches {
                assert!(session.execute(batch).is_ok());
            }
            let atoms = session.instance().expect("chased instance").len();
            ntgd_core::obs::set_enabled_override(None);
            atoms
        };
        let on_atoms = run_stream(true);
        let off_atoms = run_stream(false);
        assert_eq!(on_atoms, off_atoms, "observability changed session results");
        criterion.bench_function("matcher/obs_overhead/instrumented", |b| {
            b.iter(|| run_stream(true))
        });
        criterion.bench_function("matcher/obs_overhead/disabled", |b| {
            b.iter(|| run_stream(false))
        });
        // Interleave the two configurations sample-by-sample: the stream
        // takes tens of milliseconds, so back-to-back blocks of 20 would
        // measure machine drift as instrumentation overhead (or savings).
        let mut on_samples = Vec::with_capacity(20);
        let mut off_samples = Vec::with_capacity(20);
        for _ in 0..20 {
            on_samples.push(time_once(|| run_stream(true)));
            off_samples.push(time_once(|| run_stream(false)));
        }
        let instrumented = median_of(&mut on_samples);
        let disabled = median_of(&mut off_samples);
        let speedup = disabled.as_secs_f64() / instrumented.as_secs_f64().max(f64::MIN_POSITIVE);
        let overhead_pct = (1.0 / speedup.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
        println!(
            "matcher/obs_overhead: instrumented {instrumented:?}, disabled {disabled:?}, speedup {speedup:.2}x ({overhead_pct:+.1}% overhead), {on_atoms} atoms"
        );
        rows.push((
            "obs_overhead".to_owned(),
            instrumented.as_nanos(),
            disabled.as_nanos(),
            speedup,
            on_atoms,
        ));
    }

    // Incremental MODELS: a repeated ASSERT+MODELS stream through a session
    // — the workload `ntgd_sms::IncrementalSmsState` exists for.  Every
    // constant is declared up front (`dom` facts), so the candidate domain
    // never changes and each MODELS after the first advances the cached
    // possibly-true closure and grounding from the assert delta; the
    // from-scratch baseline (incremental_models = false, the differential
    // oracle path) rebuilds domain, closure and grounding per request.  The
    // two modes must produce bit-identical MODEL transcripts.
    {
        let mut load = String::from(
            "e(X, Y), e(Y, Z) -> path(X, Z).\
             path(X, Y), e(Y, Z) -> path3(X, Z).\
             e(X, Y), not hub(X) -> spoke(Y).\
             hub(v0).",
        );
        for c in 0..20 {
            load.push_str(&format!(" dom(v{c})."));
        }
        let mut rng = StdRng::seed_from_u64(0x6a07);
        let batches: Vec<String> = (0..30)
            .map(|_| {
                let a = rng.gen_range(0..20);
                let b = rng.gen_range(0..20);
                format!("ASSERT e(v{a}, v{b}).")
            })
            .collect();
        let run_stream = |incremental: bool| -> Vec<String> {
            let mut session = ntgd_server::Session::new(ntgd_server::SessionConfig {
                incremental_models: incremental,
                ..ntgd_server::SessionConfig::default()
            });
            assert!(session.execute(&format!("LOAD {load}")).is_ok());
            let mut transcript = Vec::new();
            for batch in &batches {
                assert!(session.execute(batch).is_ok());
                let models = session.execute("MODELS sms");
                assert!(models.is_ok());
                transcript.extend(models.lines);
            }
            transcript
        };
        let incremental_lines = run_stream(true);
        let scratch_lines = run_stream(false);
        // The terminators coincide too: the incremental state is consulted
        // below the per-generation render cache, so `cached=true` can only
        // appear for repeated identical requests, of which the stream has
        // none.
        assert_eq!(
            incremental_lines, scratch_lines,
            "incremental MODELS changed the transcript"
        );
        let model_lines = incremental_lines
            .iter()
            .filter(|l| l.starts_with("MODEL "))
            .count();
        criterion.bench_function("matcher/incremental_models/incremental", |b| {
            b.iter(|| run_stream(true))
        });
        criterion.bench_function("matcher/incremental_models/scratch", |b| {
            b.iter(|| run_stream(false))
        });
        let incremental_time = median_duration(10, || run_stream(true).len());
        let scratch_time = median_duration(10, || run_stream(false).len());
        let speedup =
            scratch_time.as_secs_f64() / incremental_time.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/incremental_models: incremental {incremental_time:?}, from-scratch {scratch_time:?}, speedup {speedup:.1}x, {model_lines} model lines over {} asserts",
            batches.len()
        );
        rows.push((
            "incremental_models".to_owned(),
            incremental_time.as_nanos(),
            scratch_time.as_nanos(),
            speedup,
            model_lines,
        ));
    }

    // Shared-base forking: N sessions load the same ontology.  With a
    // shared-base registry the first LOAD chases and freezes the base once
    // and every later LOAD forks it copy-on-write, chasing only its private
    // ASSERT delta on an overlay; privately, every session re-parses,
    // re-compiles and re-chases the whole ontology.  The two fleets must
    // produce bit-identical transcripts (the shared-base determinism
    // contract — STATS is not part of the stream, so the full line-for-line
    // transcript is compared).
    {
        const SESSIONS: usize = 8;
        let mut rng = StdRng::seed_from_u64(0x6a08);
        let mut load = String::from(
            "LOAD e(X, Y) -> n(X). e(X, Y) -> n(Y).\
             n(X) -> labelled(X, L).\
             e(X, Y), e(Y, Z) -> p2(X, Z).\
             p2(X, Y), e(Y, Z) -> p3(X, Z).\
             p3(X, Y), e(Y, Z) -> p4(X, Z).",
        );
        for _ in 0..300 {
            let a = rng.gen_range(0..80);
            let b = rng.gen_range(0..80);
            load.push_str(&format!(" e(v{a}, v{b})."));
        }
        let deltas: Vec<String> = (0..SESSIONS)
            .map(|s| format!("ASSERT e(w{s}, v{}).", s % 80))
            .collect();
        // incremental_models off on both sides: the fleets never call
        // MODELS, so neither should pay for (or skip) grounding state — the
        // comparison isolates chase sharing.
        let run_fleet = |forked: bool| -> (Vec<String>, usize) {
            let registry = forked.then(ntgd_server::BaseRegistry::new).map(Arc::new);
            let mut transcript = Vec::new();
            let mut atoms = 0usize;
            for delta in &deltas {
                let mut session = ntgd_server::Session::new(ntgd_server::SessionConfig {
                    incremental_models: false,
                    base_registry: registry.clone(),
                    ..ntgd_server::SessionConfig::default()
                });
                for command in [load.as_str(), delta.as_str(), "QUERY ?(X) :- n(X)."] {
                    let response = session.execute(command);
                    assert!(
                        response.is_ok(),
                        "fleet command failed: {:?}",
                        response.lines
                    );
                    transcript.extend(response.lines);
                }
                atoms = session.instance().expect("chased instance").len();
            }
            (transcript, atoms)
        };
        let (forked_transcript, forked_atoms) = run_fleet(true);
        let (private_transcript, private_atoms) = run_fleet(false);
        assert_eq!(
            forked_transcript, private_transcript,
            "shared-base forking changed session transcripts"
        );
        assert_eq!(forked_atoms, private_atoms);
        criterion.bench_function("matcher/shared_base_fork/forked", |b| {
            b.iter(|| run_fleet(true).1)
        });
        criterion.bench_function("matcher/shared_base_fork/private", |b| {
            b.iter(|| run_fleet(false).1)
        });
        let forked_time = median_duration(10, || run_fleet(true).1);
        let private_time = median_duration(10, || run_fleet(false).1);
        let speedup = private_time.as_secs_f64() / forked_time.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/shared_base_fork: forked {forked_time:?}, private {private_time:?}, speedup {speedup:.1}x, {forked_atoms} atoms over {SESSIONS} sessions"
        );
        rows.push((
            "shared_base_fork".to_owned(),
            forked_time.as_nanos(),
            private_time.as_nanos(),
            speedup,
            forked_atoms,
        ));
    }

    // The decidability front door: every LOAD classifies its program against
    // the landscape (`ntgd_classes::classify`) and the verdict decides the
    // chase/null budgets, but registry forks *inherit* the registered verdict
    // instead of reclassifying.  This row prices that design on the four
    // loadgen family templates (the shapes servebench loads): classify
    // once per family (the registry path) versus once per LOAD of an
    // 8-session fleet (the reclassify-every-time strawman).  All four
    // families must come back chase-terminating — the verdict that lifts the
    // step budget for every generated workload.
    {
        const FLEET: usize = 8;
        let families: [(&str, &str); 4] = [
            (
                "chain",
                "e(X, Y) -> p1(X, Y). p1(X, Y), e(Y, Z) -> p2(X, Z).\
                 p2(X, Y), e(Y, Z) -> p3(X, Z).",
            ),
            ("star", "r1(X, Y1), r2(X, Y2), r3(X, Y3) -> hub(X)."),
            (
                "existential",
                "node(X0) -> owns(X0, V), t1(V). t1(V) -> link1(V, W), t2(W).\
                 t2(V) -> link2(V, W), t3(W).",
            ),
            (
                "disjunctive",
                "node(X0) -> red(X0) | green(X0). node(X0) -> seen(X0).\
                 red(X) -> shade1a(X) | shade1b(X).",
            ),
        ];
        // Disjunctive payloads classify their positive-conjunctive
        // transform, exactly like the session's LOAD path.
        let programs: Vec<(&str, ntgd_core::Program)> = families
            .iter()
            .map(|(name, text)| {
                let unit = ntgd_parser::parse_unit(text).expect("family template parses");
                let program = match unit.program() {
                    Some(program) => program,
                    None => unit
                        .disjunctive_program()
                        .expect("family template is consistent")
                        .positive_conjunctive_part(),
                };
                (*name, program)
            })
            .collect();
        let classify_fleet = |per_load: bool| -> usize {
            let mut memberships = 0usize;
            for (name, program) in &programs {
                for _ in 0..if per_load { FLEET } else { 1 } {
                    let report = ntgd_classes::classify(std::hint::black_box(program));
                    assert_eq!(
                        report.verdict(),
                        ntgd_classes::ClassVerdict::Terminating,
                        "{name} family must be chase-terminating"
                    );
                    memberships += report.entries().iter().filter(|(_, m)| *m).count();
                }
            }
            memberships
        };
        let memberships = classify_fleet(false);
        criterion.bench_function("matcher/classes_landscape/inherited", |b| {
            b.iter(|| classify_fleet(false))
        });
        criterion.bench_function("matcher/classes_landscape/reclassified", |b| {
            b.iter(|| classify_fleet(true))
        });
        let inherited = median_duration(40, || classify_fleet(false));
        let reclassified = median_duration(40, || classify_fleet(true));
        let speedup = reclassified.as_secs_f64() / inherited.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "matcher/classes_landscape: classify-once {inherited:?}, per-LOAD {reclassified:?}, speedup {speedup:.1}x over a {FLEET}-session fleet, {memberships} memberships across {} families",
            families.len()
        );
        rows.push((
            "classes_landscape".to_owned(),
            inherited.as_nanos(),
            reclassified.as_nanos(),
            speedup,
            memberships,
        ));
    }

    bench_delta(&mut criterion);

    let mut json = String::from(
        "{\n  \"benchmark\": \"matcher hot path: indexed join engine, plan cache and slot views vs per-call compilation and the naive reference matcher\",\n  \"command\": \"cargo bench --bench matcher\",\n  \"workloads\": [\n",
    );
    for (i, (name, indexed_ns, reference_ns, speedup, homomorphisms)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"indexed_median_ns\": {indexed_ns}, \"reference_median_ns\": {reference_ns}, \"speedup\": {speedup:.1}, \"homomorphisms\": {homomorphisms}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matcher.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
}
