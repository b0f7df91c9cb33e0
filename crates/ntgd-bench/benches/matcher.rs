//! Does each optimised path still beat its reference path?
//!
//! Every row times an optimised path and the reference path it replaced, in
//! the same run on the same input, after asserting that the two compute the
//! same result.  The rows cover the indexed join engine of
//! `ntgd_core::matcher` against the naive reference matcher (chain joins,
//! star joins, negation), compiled plans against per-call compilation, slot
//! views against cloned substitutions, delta matching against a full
//! rematch and, through `ntgd_server::Session`, recording observability
//! against disabled observability, incremental MODELS against a fresh
//! `SmsEngine` per request, and shared-base forks against private loads.
//!
//! Each row states a floor for its speedup (reference time ÷ optimised
//! time) next to its code.  The floors sit at about half the lowest ratio
//! measured on a 2-vCPU machine, so they hold on any machine yet fail when
//! an optimisation is lost.  After all rows run, the bench prints one line
//! per row and exits 1 naming every row whose speedup is below its floor or
//! not finite; that exit status is the gate:
//!
//! ```text
//! cargo bench -p ntgd-bench --bench matcher
//! ```

use std::ops::ControlFlow;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntgd_bench::below_floor;
use ntgd_core::matcher::{self, reference};
use ntgd_core::{
    atom, cst, var, Atom, CompiledConjunction, Database, Interpretation, Literal, Substitution,
};
use ntgd_parser::parse_unit;
use ntgd_sms::SmsEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One measured row: an optimised path against its reference path.
struct Row {
    name: &'static str,
    /// Label and median time of the optimised path.
    optimised: (&'static str, Duration),
    /// Label and median time of the reference path.
    reference: (&'static str, Duration),
    /// The lowest acceptable `reference / optimised` ratio.
    floor: f64,
    /// What both paths computed.
    result: String,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference.1.as_secs_f64() / self.optimised.1.as_secs_f64()
    }
}

struct Workload {
    name: &'static str,
    interpretation: Interpretation,
    conjunction: Vec<Literal>,
    floor: f64,
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
        floor: 10.0,
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
        floor: 50.0,
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
        floor: 6.0,
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

/// Median wall-clock durations of `samples` runs of `optimised` and of
/// `reference`.  The two are interleaved sample by sample, each going first
/// in every other pair, so machine drift during the row lands on both sides
/// instead of showing up as a speedup (or a loss).
fn median_durations<A, B>(
    samples: usize,
    mut optimised: A,
    mut reference: B,
) -> (Duration, Duration)
where
    A: FnMut() -> usize,
    B: FnMut() -> usize,
{
    std::hint::black_box(optimised());
    std::hint::black_box(reference());
    let mut optimised_times = Vec::with_capacity(samples);
    let mut reference_times = Vec::with_capacity(samples);
    for sample in 0..samples {
        if sample % 2 == 0 {
            optimised_times.push(time_once(&mut optimised));
            reference_times.push(time_once(&mut reference));
        } else {
            reference_times.push(time_once(&mut reference));
            optimised_times.push(time_once(&mut optimised));
        }
    }
    (median(optimised_times), median(reference_times))
}

fn time_once<F: FnMut() -> usize>(mut routine: F) -> Duration {
    let start = Instant::now();
    std::hint::black_box(routine());
    start.elapsed()
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// The indexed join engine against the naive reference matcher.
fn join_rows() -> Vec<Row> {
    workloads()
        .into_iter()
        .map(|workload| {
            let homomorphisms = count_indexed(&workload);
            assert_eq!(
                homomorphisms,
                count_reference(&workload),
                "engines disagree on {}",
                workload.name
            );
            let (indexed, naive) = median_durations(
                20,
                || count_indexed(&workload),
                || count_reference(&workload),
            );
            Row {
                name: workload.name,
                optimised: ("indexed", indexed),
                reference: ("reference", naive),
                floor: workload.floor,
                result: format!("{homomorphisms} homomorphisms"),
            }
        })
        .collect()
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

/// Compile-once against compile-per-call on the multi-round chain-join delta
/// workload (the chase/grounding round pattern).
fn compile_cache_row() -> Row {
    let (base, extra, body) = compile_cache_workload();
    let homomorphisms = run_delta_rounds(true, &base, &extra, &body);
    assert_eq!(
        homomorphisms,
        run_delta_rounds(false, &base, &extra, &body),
        "plan cache changed results"
    );
    let (cached, per_call) = median_durations(
        20,
        || run_delta_rounds(true, &base, &extra, &body),
        || run_delta_rounds(false, &base, &extra, &body),
    );
    Row {
        name: "compile_cache",
        optimised: ("cached", cached),
        reference: ("per-call", per_call),
        floor: 1.5,
        result: format!("{homomorphisms} homomorphisms"),
    }
}

/// Slot-view enumeration against materialising a substitution per result,
/// over one cached plan (isolates the per-result clone the view removes).
fn slot_view_row() -> Row {
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
    let (view, cloned) = median_durations(40, view_count, clone_count);
    Row {
        name: "slot_view",
        optimised: ("view", view),
        reference: ("clone", cloned),
        floor: 1.5,
        result: format!("{homomorphisms} homomorphisms"),
    }
}

/// One delta-matching round: the homomorphisms introduced by the newest atom
/// against a full rematch.
fn delta_round_row() -> Row {
    let mut rng = StdRng::seed_from_u64(0x6a02);
    let before = random_edges(&mut rng, 150, 450);
    let mut interpretation = before.clone();
    let watermark = interpretation.len();
    assert!(interpretation.insert(atom("e", vec![cst("n3"), cst("n7")])));
    let body = vec![
        atom("e", vec![var("X"), var("Y")]),
        atom("e", vec![var("Y"), var("Z")]),
    ];
    let empty = Substitution::new();
    let delta =
        || matcher::all_atom_homomorphisms_delta(&body, &interpretation, &empty, watermark).len();
    let full = || matcher::all_atom_homomorphisms(&body, &interpretation, &empty).len();
    // The delta is exactly what the new atom adds to the full match.
    let added = delta();
    assert_eq!(
        added,
        full() - matcher::all_atom_homomorphisms(&body, &before, &empty).len(),
        "delta matching changed results"
    );
    let (delta, full) = median_durations(200, delta, full);
    Row {
        name: "delta_round",
        optimised: ("delta", delta),
        reference: ("full rematch", full),
        floor: 20.0,
        result: format!("{added} new homomorphisms"),
    }
}

/// Observability overhead: a long-lived reasoning session fed a stream of
/// small ASSERT deltas, once with the obs registry and span timers recording
/// (the default posture) and once with them forced off (the `NTGD_OBS=0`
/// posture).  The instruments sit on every chase round, pool batch and
/// request, so this stream is where their cost would show.  The "speedup" is
/// disabled time ÷ instrumented time, so the floor bounds the overhead.
fn obs_overhead_row() -> Row {
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
    let atoms = run_stream(true);
    assert_eq!(
        atoms,
        run_stream(false),
        "observability changed session results"
    );
    let (instrumented, disabled) = median_durations(40, || run_stream(true), || run_stream(false));
    Row {
        name: "obs_overhead",
        optimised: ("instrumented", instrumented),
        reference: ("disabled", disabled),
        floor: 0.9,
        result: format!("{atoms} atoms"),
    }
}

/// Incremental MODELS: a repeated ASSERT+MODELS stream through a session —
/// the workload `ntgd_sms::IncrementalSmsState` exists for.  Every constant
/// is declared up front (`dom` facts), so the candidate domain never changes
/// and each MODELS after the first advances the cached possibly-true closure
/// and grounding from the assert delta.  The reference is the from-scratch
/// computation of `tests/differential_oracle.rs`: after each ASSERT a fresh
/// `SmsEngine` enumerates the stable models of the session's fact log,
/// rebuilding domain, closure and grounding, each rendered `MODEL {m}`,
/// sorted.  The two must produce identical MODEL transcripts.
fn incremental_models_row() -> Row {
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
    let program = Arc::new(
        parse_unit(&load)
            .expect("the row's program parses")
            .disjunctive_program()
            .expect("the row's program is consistent"),
    );
    let run_stream = |incremental: bool| -> Vec<String> {
        let mut session = ntgd_server::Session::new(ntgd_server::SessionConfig::default());
        assert!(session.execute(&format!("LOAD {load}")).is_ok());
        let mut transcript = Vec::new();
        for batch in &batches {
            assert!(session.execute(batch).is_ok());
            if incremental {
                let mut models = session.execute("MODELS sms").lines;
                assert!(models.pop().is_some_and(|ok| ok.starts_with("OK models=")));
                transcript.extend(models);
            } else {
                let database = Database::from_facts(session.facts().iter().cloned())
                    .expect("session facts are ground");
                let models = SmsEngine::new_shared(Arc::clone(&program))
                    .stable_models(&database)
                    .expect("the oracle enumerates");
                let mut lines: Vec<String> = models.iter().map(|m| format!("MODEL {m}")).collect();
                lines.sort();
                transcript.extend(lines);
            }
        }
        transcript
    };
    let transcript = run_stream(true);
    assert_eq!(
        transcript,
        run_stream(false),
        "incremental MODELS changed the transcript"
    );
    let model_lines = transcript.len();
    let (incremental, scratch) =
        median_durations(10, || run_stream(true).len(), || run_stream(false).len());
    Row {
        name: "incremental_models",
        optimised: ("incremental", incremental),
        reference: ("from-scratch", scratch),
        floor: 1.5,
        result: format!("{model_lines} model lines over {} asserts", batches.len()),
    }
}

/// Shared-base forking: N sessions load the same ontology.  With a
/// shared-base registry the first LOAD chases and freezes the base once and
/// every later LOAD forks it copy-on-write, chasing only its private ASSERT
/// delta on an overlay; privately, every session re-parses, re-compiles and
/// re-chases the whole ontology.  The two fleets must produce identical
/// transcripts (STATS is not part of the stream, so the full line-for-line
/// transcript is compared).
fn shared_base_fork_row() -> Row {
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
    // The fleets never call MODELS, so neither side grounds (and the
    // registry shares no grounding anyway: every session grounds its own
    // on its first `MODELS sms`): the comparison isolates chase sharing.
    let run_fleet = |forked: bool| -> (Vec<String>, usize) {
        let registry = forked.then(ntgd_server::BaseRegistry::new).map(Arc::new);
        let mut transcript = Vec::new();
        let mut atoms = 0usize;
        for delta in &deltas {
            let mut session = ntgd_server::Session::new(ntgd_server::SessionConfig {
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
    let forked = run_fleet(true);
    let atoms = forked.1;
    assert_eq!(
        forked,
        run_fleet(false),
        "shared-base forking changed session transcripts"
    );
    let (forked, private) = median_durations(10, || run_fleet(true).1, || run_fleet(false).1);
    Row {
        name: "shared_base_fork",
        optimised: ("forked", forked),
        reference: ("private", private),
        floor: 4.0,
        result: format!("{atoms} atoms over {SESSIONS} sessions"),
    }
}

fn main() -> ExitCode {
    let mut rows = join_rows();
    rows.extend([
        compile_cache_row(),
        slot_view_row(),
        delta_round_row(),
        obs_overhead_row(),
        incremental_models_row(),
        shared_base_fork_row(),
    ]);
    let mut failed = Vec::new();
    for row in &rows {
        let speedup = row.speedup();
        let verdict = if below_floor(speedup, row.floor) {
            failed.push(row.name);
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "matcher/{}: {} {:?}, {} {:?}, speedup {speedup:.2}x, floor {:.1}x {verdict}, {}",
            row.name,
            row.optimised.0,
            row.optimised.1,
            row.reference.0,
            row.reference.1,
            row.floor,
            row.result
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("matcher: below floor: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
