//! PRNG property tests for the exactness of incremental sessions:
//!
//! * **Split-invariance** — any split of a database into a sequence of
//!   `ASSERT` batches yields the same instance (atom set and canonical null
//!   names included, compared in sorted order: the arena's *insertion*
//!   order by definition reflects the batching), the same query answers and
//!   the same stable-model sets as a from-scratch chase that asserts
//!   everything in one batch.
//! * **Thread-count determinism** — for a *fixed* batch sequence the arena
//!   is bit-identical (insertion order and null names included) at
//!   `NTGD_THREADS ∈ {1, 2, 8}`, including the small-delta rounds that the
//!   persistent pool parallelises.
//! * **Retract equivalence** — rolling an epoch back and growing again is
//!   indistinguishable from never having asserted the retracted batch.
//! * **Capped-`MODELS` transcript pin** — a seeded disjunctive stream of
//!   `ASSERT` / `RETRACT-TO` / `MODELS sms max=4` replies byte for byte as
//!   recorded.  Capped listings are samples chosen by the CEGAR search order,
//!   so the pin holds the search itself fixed, not just the model sets.  It
//!   runs in a fresh process (see the test).
//!
//! Every case is reproducible from its printed seed.

use ntgd_core::{parallel, Atom};
use ntgd_loadgen::{generate, Distribution, Family, Verb, WorkloadSpec};
use ntgd_server::{Session, SessionConfig};

/// Deterministic xorshift64* generator.
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
}

/// A random *stratified* existential program over binary predicates
/// `p0 < p1 < p2 < p3`: rule heads always live in a strictly higher stratum
/// than their bodies, so the position graph is acyclic and the Skolem chase
/// terminates on every database — which the equivalence properties need
/// (a rolled-back diverging batch would make the accumulated fact sets of
/// two splits differ trivially).
fn stratified_program(rng: &mut Rng) -> String {
    let mut rules = String::new();
    for _ in 0..rng.below(4) + 2 {
        let body = rng.below(3); // p0..p2 so a higher stratum exists
        let head = body + 1 + rng.below(3 - body);
        match rng.below(3) {
            0 => rules.push_str(&format!("p{body}(X, Y) -> p{head}(Y, Z). ")),
            1 => {
                let second = rng.below(head);
                rules.push_str(&format!(
                    "p{body}(X, Y), p{second}(Y, W) -> p{head}(X, W). "
                ));
            }
            _ => rules.push_str(&format!("p{body}(X, Y) -> p{head}(Y, X). ")),
        }
    }
    rules
}

/// Random `p0`/`p1` facts over a small constant pool, as one statement each.
fn random_facts(rng: &mut Rng) -> Vec<String> {
    let count = rng.below(6) + 2;
    (0..count)
        .map(|_| format!("p{}(c{}, c{}).", rng.below(2), rng.below(4), rng.below(4)))
        .collect()
}

/// Splits the fact statements into 1..=4 consecutive `ASSERT` batches.
fn random_split(rng: &mut Rng, facts: &[String]) -> Vec<String> {
    let batches = rng.below(4) + 1;
    let mut out: Vec<Vec<&str>> = vec![Vec::new(); batches];
    for fact in facts {
        out[rng.below(batches)].push(fact);
    }
    out.into_iter()
        .filter(|batch| !batch.is_empty())
        .map(|batch| batch.join(" "))
        .collect()
}

/// Runs a full session (LOAD, then the batches) at the given thread count
/// and returns the arena in insertion order.
fn run_session(program: &str, batches: &[String], threads: usize) -> Vec<Atom> {
    parallel::set_thread_override(Some(threads));
    let mut session = Session::new(SessionConfig::default());
    let loaded = session.execute(&format!("LOAD {program}"));
    assert!(loaded.is_ok(), "LOAD failed: {:?}", loaded.lines);
    for batch in batches {
        let asserted = session.execute(&format!("ASSERT {batch}"));
        assert!(asserted.is_ok(), "ASSERT failed: {:?}", asserted.lines);
    }
    let arena: Vec<Atom> = session
        .instance()
        .expect("normal program has a chased instance")
        .atoms()
        .cloned()
        .collect();
    parallel::set_thread_override(None);
    arena
}

fn sorted(mut atoms: Vec<Atom>) -> Vec<Atom> {
    atoms.sort();
    atoms
}

#[test]
fn any_split_of_a_database_reaches_the_from_scratch_instance() {
    for case in 0..25u64 {
        let seed = 0x5e55_0000 + case;
        let mut rng = Rng::new(seed);
        let program = stratified_program(&mut rng);
        let facts = random_facts(&mut rng);
        // From-scratch reference: everything in one batch, one thread.
        let reference = sorted(run_session(&program, &[facts.join(" ")], 1));
        for _ in 0..3 {
            let batches = random_split(&mut rng, &facts);
            for threads in [1, 2, 8] {
                let split = sorted(run_session(&program, &batches, threads));
                assert_eq!(
                    split, reference,
                    "seed {seed}: split {batches:?} at {threads} threads diverged \
                     from the from-scratch chase\nprogram: {program}"
                );
            }
        }
    }
}

#[test]
fn query_answers_are_split_invariant_over_the_protocol() {
    for case in 0..10u64 {
        let seed = 0xa05_0000 + case;
        let mut rng = Rng::new(seed);
        let program = stratified_program(&mut rng);
        let facts = random_facts(&mut rng);
        let queries = [
            "QUERY ?(X) :- p3(X, Y).",
            "QUERY ?(X, Y) :- p2(X, Y).",
            "QUERY ?- p1(c0, c1).",
        ];
        let mut reference: Option<Vec<Vec<String>>> = None;
        for _ in 0..3 {
            let batches = random_split(&mut rng, &facts);
            let mut session = Session::new(SessionConfig::default());
            assert!(session.execute(&format!("LOAD {program}")).is_ok());
            for batch in &batches {
                assert!(session.execute(&format!("ASSERT {batch}")).is_ok());
            }
            let answers: Vec<Vec<String>> = queries
                .iter()
                .map(|query| session.execute(query).lines)
                .collect();
            match &reference {
                None => reference = Some(answers),
                Some(expected) => assert_eq!(
                    &answers, expected,
                    "seed {seed}: query answers depend on the batching\nprogram: {program}"
                ),
            }
        }
    }
}

#[test]
fn fixed_batching_is_bit_identical_across_thread_counts() {
    for case in 0..15u64 {
        let seed = 0xb17_0000 + case;
        let mut rng = Rng::new(seed);
        let program = stratified_program(&mut rng);
        let facts = random_facts(&mut rng);
        // Single-fact batches: every round is a *small delta*, which the
        // persistent pool still fans out.
        let batches: Vec<String> = facts.clone();
        let reference = run_session(&program, &batches, 1);
        for threads in [2, 8] {
            let arena = run_session(&program, &batches, threads);
            assert_eq!(
                arena, reference,
                "seed {seed}: arena order diverged at {threads} threads\nprogram: {program}"
            );
        }
    }
}

#[test]
fn retract_and_regrow_equals_never_asserted() {
    for case in 0..15u64 {
        let seed = 0x4e7_0000 + case;
        let mut rng = Rng::new(seed);
        let program = stratified_program(&mut rng);
        let keep = random_facts(&mut rng).join(" ");
        let retracted = random_facts(&mut rng).join(" ");
        let regrow = random_facts(&mut rng).join(" ");

        let mut with_retract = Session::new(SessionConfig::default());
        assert!(with_retract.execute(&format!("LOAD {program}")).is_ok());
        assert!(with_retract.execute(&format!("ASSERT {keep}")).is_ok());
        assert!(with_retract.execute(&format!("ASSERT {retracted}")).is_ok());
        assert!(with_retract.execute("RETRACT-TO 1").is_ok());
        assert!(with_retract.execute(&format!("ASSERT {regrow}")).is_ok());

        let mut without = Session::new(SessionConfig::default());
        assert!(without.execute(&format!("LOAD {program}")).is_ok());
        assert!(without.execute(&format!("ASSERT {keep}")).is_ok());
        assert!(without.execute(&format!("ASSERT {regrow}")).is_ok());

        let left: Vec<Atom> = with_retract.instance().unwrap().atoms().cloned().collect();
        let right: Vec<Atom> = without.instance().unwrap().atoms().cloned().collect();
        assert_eq!(
            left, right,
            "seed {seed}: retract left a trace (arena order included)\nprogram: {program}"
        );
        assert_eq!(with_retract.facts(), without.facts(), "seed {seed}");
    }
}

#[test]
fn stable_model_sets_are_split_invariant() {
    // Normal programs with negation (no existentials, so SMS enumeration is
    // fast and total): the MODELS output of a session must not depend on
    // how its fact history was batched, at any thread count.
    for case in 0..10u64 {
        let seed = 0x5745_0000 + case;
        let mut rng = Rng::new(seed);
        let predicates = ["p", "q", "r", "s"];
        let mut rules = String::new();
        for _ in 0..rng.below(4) + 1 {
            let body = predicates[rng.below(4)];
            let negated = predicates[rng.below(4)];
            let head = predicates[rng.below(4)];
            if rng.chance(50) && body != negated {
                rules.push_str(&format!("{body}(X), not {negated}(X) -> {head}(X). "));
            } else {
                rules.push_str(&format!("{body}(X) -> {head}(X). "));
            }
        }
        let facts: Vec<String> = (0..rng.below(4) + 2)
            .map(|_| format!("{}(c{}).", predicates[rng.below(2)], rng.below(3)))
            .collect();
        let mut reference: Option<Vec<String>> = None;
        for threads in [1, 2, 8] {
            parallel::set_thread_override(Some(threads));
            let batches = random_split(&mut rng, &facts);
            let mut session = Session::new(SessionConfig::default());
            assert!(session.execute(&format!("LOAD {rules}")).is_ok());
            for batch in &batches {
                assert!(session.execute(&format!("ASSERT {batch}")).is_ok());
            }
            let models = session.execute("MODELS");
            assert!(models.is_ok(), "{:?}", models.lines);
            let lines = models.lines[..models.lines.len() - 1].to_vec();
            parallel::set_thread_override(None);
            match &reference {
                None => reference = Some(lines),
                Some(expected) => assert_eq!(
                    &lines, expected,
                    "seed {seed}: stable models depend on batching/threads\nrules: {rules}"
                ),
            }
        }
    }
}

/// 64-bit FNV-1a over every reply line of a session, newline-terminated.
fn transcript_hash(spec: &WorkloadSpec) -> (u64, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut capped = 0;
    let mut session = Session::new(SessionConfig::default());
    for op in &generate(spec).sessions[0] {
        let response = session.execute(&op.line);
        assert!(response.is_ok(), "{} failed: {:?}", op.line, response.lines);
        if op.verb == Verb::Models
            && response
                .lines
                .last()
                .is_some_and(|l| l.contains("models=4"))
        {
            capped += 1;
        }
        for line in &response.lines {
            for byte in line.bytes().chain([b'\n']) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (hash, capped)
}

/// The search order follows ground atom ids, and those follow the
/// process-wide symbol interning order — which the other tests of this
/// binary perturb, interning `c0`, `X`, … concurrently.  So unless this
/// process runs this test alone, the test reruns this binary filtered to
/// exactly itself.
#[test]
fn capped_models_transcripts_are_pinned() {
    const NAME: &str = "capped_models_transcripts_are_pinned";
    let args: Vec<String> = std::env::args().collect();
    if !(args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == NAME)) {
        let exe = std::env::current_exe().expect("test binary path");
        let run = std::process::Command::new(exe)
            .args([NAME, "--exact", "--test-threads=1"])
            .output()
            .expect("rerun the test binary");
        assert!(
            run.status.success(),
            "{}{}",
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        return;
    }
    let pinned = [
        (1u64, 0xc2a8_7495_8a14_cffdu64),
        (7919, 0x3140_4d7d_01ce_efdc),
    ];
    for (seed, expected) in pinned {
        let spec = WorkloadSpec {
            name: "capped-models".to_owned(),
            family: Family::Disjunctive,
            depth: 2,
            constants: 24,
            initial_facts: 8,
            distribution: Distribution::Zipf,
            sessions: 1,
            ops: 160,
            batch: 1,
            retract_rate: 0.15,
            query_rate: 0.0,
            models_rate: 0.4,
            models_max: 4,
            seed,
            ..WorkloadSpec::default()
        };
        let (hash, capped) = transcript_hash(&spec);
        assert!(capped > 0, "seed {seed}: no MODELS reply hit the cap");
        assert_eq!(
            hash, expected,
            "seed {seed}: capped MODELS transcript changed (got {hash:#x})"
        );
    }
}
