//! # ntgd-bench
//!
//! Experiment drivers for the `experiments` binary, which prints the rows
//! and wall time of every paper experiment E1–E14, and the floor check of
//! the matcher bench (`benches/matcher.rs`).
//!
//! Each `eN_*` function is pure computation over the library crates.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use ntgd_core::{atom, cst, Atom, Database, Interpretation, Program};
use ntgd_parser::{parse_database, parse_program, parse_query, parse_unit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether a measured `speedup` fails its `floor`.
///
/// NaN, infinite and non-positive speedups are measurement failures and
/// always fail: a NaN compares false against every threshold, so a plain
/// `speedup < floor` would pass it.
pub fn below_floor(speedup: f64, floor: f64) -> bool {
    !(speedup.is_finite() && speedup > 0.0 && speedup >= floor)
}

/// The program of Example 1 (used throughout the E1/E8 experiments).
pub fn example1_program() -> Program {
    parse_program(
        "person(X) -> hasFather(X, Y).\
         hasFather(X, Y) -> sameAs(Y, Y).\
         hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).",
    )
    .expect("Example 1 parses")
}

/// The database of Example 1.
pub fn example1_database() -> Database {
    parse_database("person(alice).").expect("Example 1 database parses")
}

/// One row of the E1 semantic-comparison table.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// The query text.
    pub query: String,
    /// Answer under the LP (Skolemization) approach.
    pub lp: String,
    /// Answer under the chase-based operational semantics of \[3\].
    pub operational: String,
    /// Answer under the paper's new SMS semantics.
    pub sms: String,
}

/// E1 — Examples 1–4: the three semantics on the person/hasFather program.
pub fn e1_semantics() -> Vec<E1Row> {
    let db = example1_database();
    let program = example1_program();
    let queries = [
        "?- person(X), not abnormal(X).",
        "?- person(X), abnormal(X).",
        "?- not hasFather(alice, bob).",
        "?- not abnormal(alice).",
    ];
    let lp = ntgd_lp::LpEngine::new(&db, &program, &ntgd_lp::LpLimits::default())
        .expect("Example 1 grounds");
    let operational_models = ntgd_chase::operational_stable_models(
        &db,
        &program,
        &ntgd_chase::OperationalConfig::default(),
    );
    let sms = ntgd_sms::SmsEngine::new(&program);
    let mut rows = Vec::new();
    for q_text in queries {
        let q = parse_query(q_text).expect("query parses");
        let lp_answer = match lp.entails_cautious(&q) {
            ntgd_lp::LpAnswer::Entailed => "entailed",
            ntgd_lp::LpAnswer::NotEntailed => "not entailed",
            ntgd_lp::LpAnswer::Inconsistent => "inconsistent",
        };
        let operational_answer = if operational_models.is_empty() {
            "inconsistent"
        } else if operational_models.iter().all(|m| {
            let mut m = m.clone();
            for lit in q.literals() {
                for t in lit.atom().terms().filter(|t| t.is_constant()) {
                    m.add_domain_element(*t);
                }
            }
            q.holds(&m)
        }) {
            "entailed"
        } else {
            "not entailed"
        };
        let sms_answer = match sms.entails_cautious(&db, &q).expect("SMS answers") {
            ntgd_sms::SmsAnswer::Entailed => "entailed",
            ntgd_sms::SmsAnswer::NotEntailed => "not entailed",
            ntgd_sms::SmsAnswer::Inconsistent => "inconsistent",
        };
        rows.push(E1Row {
            query: q_text.to_owned(),
            lp: lp_answer.to_owned(),
            operational: operational_answer.to_owned(),
            sms: sms_answer.to_owned(),
        });
    }
    rows
}

/// A random existential-free normal program over unary predicates, together
/// with a random database (used for E2).
pub fn random_normal_program(
    rng: &mut StdRng,
    rules: usize,
    constants: usize,
) -> (Database, Program) {
    let predicates = ["p", "q", "r", "s", "t"];
    let mut db_text = String::new();
    for c in 0..constants {
        let pred = predicates[rng.gen_range(0..2)];
        let _ = write!(db_text, "{pred}(c{c}). ");
    }
    let mut rules_text = String::new();
    for _ in 0..rules {
        let body_pred = predicates[rng.gen_range(0..predicates.len())];
        let neg_pred = predicates[rng.gen_range(0..predicates.len())];
        let head_pred = predicates[rng.gen_range(2..predicates.len())];
        if rng.gen_bool(0.5) {
            let _ = write!(
                rules_text,
                "{body_pred}(X), not {neg_pred}(X) -> {head_pred}(X). "
            );
        } else {
            let _ = write!(rules_text, "{body_pred}(X) -> {head_pred}(X). ");
        }
    }
    (
        parse_database(&db_text).expect("random database parses"),
        parse_program(&rules_text).expect("random program parses"),
    )
}

/// E2 — Theorem 1: number of random programs on which the LP and SMS stable
/// model sets coincide (should equal `samples`).
pub fn e2_theorem1(samples: usize, seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agreements = 0;
    for _ in 0..samples {
        let (db, program) = random_normal_program(&mut rng, 4, 3);
        let lp = ntgd_lp::LpEngine::new(&db, &program, &ntgd_lp::LpLimits::default())
            .expect("random program grounds");
        let mut lp_models: Vec<Vec<Atom>> = lp
            .models()
            .iter()
            .map(Interpretation::sorted_atoms)
            .collect();
        lp_models.sort();
        let sms = ntgd_sms::SmsEngine::new(&program).with_null_budget(ntgd_sms::NullBudget::None);
        let mut sms_models: Vec<Vec<Atom>> = sms
            .stable_models(&db)
            .expect("SMS enumerates")
            .iter()
            .map(Interpretation::sorted_atoms)
            .collect();
        sms_models.sort();
        if lp_models == sms_models {
            agreements += 1;
        }
    }
    (samples, agreements)
}

/// One row of the E3 class-checker table.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Name of the rule set.
    pub name: String,
    /// Weak acyclicity.
    pub weakly_acyclic: bool,
    /// Stickiness.
    pub sticky: bool,
    /// Guardedness.
    pub guarded: bool,
}

/// E3 — Definition 3 / Figure 1: classify the paper's rule sets.
pub fn e3_classes() -> Vec<E3Row> {
    let cases = [
        ("example1", "person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y). hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)."),
        ("figure1a-sticky", "t(X, Y, Z) -> s(Y, W). r(X, Y), p(Y, Z) -> t(X, Y, W)."),
        ("figure1a-nonsticky", "t(X, Y, Z) -> s(X, W). r(X, Y), p(Y, Z) -> t(X, Y, W)."),
        ("infinite-chain", "person(X) -> parent(X, Y), person(Y)."),
        ("transitive-closure", "e(X, Y), e(Y, Z) -> e(X, Z)."),
        ("cartesian-product", "p(X), s(Y) -> t(X, Y)."),
    ];
    cases
        .iter()
        .map(|(name, text)| {
            let program = parse_program(text).expect("case parses");
            E3Row {
                name: (*name).to_owned(),
                weakly_acyclic: ntgd_classes::is_weakly_acyclic(&program),
                sticky: ntgd_classes::is_sticky(&program),
                guarded: ntgd_classes::is_guarded(&program),
            }
        })
        .collect()
}

/// The weakly-acyclic "modest people" program used by E4.
pub fn e4_program() -> Program {
    parse_program(
        "person(X) -> friend(X, Y).\
         friend(X, Y), not rich(X) -> modest(X).\
         modest(X), rich(X) -> contradiction.",
    )
    .expect("E4 program parses")
}

/// A database with `n` persons (every third one rich) for E4/E8.
pub fn e4_database(n: usize) -> Database {
    let mut facts = Vec::new();
    for i in 0..n {
        facts.push(atom("person", vec![cst(&format!("p{i}"))]));
        if i % 3 == 0 {
            facts.push(atom("rich", vec![cst(&format!("p{i}"))]));
        }
    }
    Database::from_facts(facts).expect("E4 facts are ground")
}

/// E4 — Theorem 6 shape: SMS query answering time is dominated by the
/// guess-and-check machinery; the positive-TGD chase baseline stays
/// polynomial.  Returns (database size, SMS answer, chase instance size).
pub fn e4_data_complexity(n: usize) -> (usize, bool, usize) {
    let db = e4_database(n);
    let program = e4_program();
    let q = parse_query("?- modest(X).").expect("query parses");
    let sms = ntgd_sms::SmsEngine::new(&program);
    let answer = matches!(
        sms.entails_cautious(&db, &q).expect("SMS answers"),
        ntgd_sms::SmsAnswer::Entailed
    );
    let chase = ntgd_chase::restricted_chase(&db, &program, &ntgd_chase::ChaseConfig::default());
    (db.len(), answer, chase.instance.len())
}

/// E5 — 2-QBF via the Section 5.3 encoding.  Returns, per instance, whether
/// the SMS answer agreed with brute force.
pub fn e5_qbf(instances: usize, seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agreements = 0;
    for _ in 0..instances {
        let formula = ntgd_encodings::TwoQbf::random(&mut rng, 1, 1, 2);
        let via_sms = formula.solve_via_sms().expect("QBF encoding solves");
        if via_sms == formula.brute_force_satisfiable() {
            agreements += 1;
        }
    }
    (instances, agreements)
}

/// E6 — Lemma 13: answer a colouring query directly on the disjunctive
/// program and through the disjunction-free translation; returns the two
/// (equal) brave answers.
pub fn e6_disjunction() -> (bool, bool) {
    let unit = parse_unit(
        "node(X) -> red(X) | green(X).\
         edge(X, Y), red(X), red(Y) -> clash.\
         edge(X, Y), green(X), green(Y) -> clash.",
    )
    .expect("disjunctive program parses");
    let prog = unit.disjunctive_program().expect("consistent schema");
    let db = parse_database("node(a). node(b). edge(a,b).").expect("database parses");
    let q = parse_query("?- not clash.").expect("query parses");
    let direct = ntgd_sms::SmsEngine::new_disjunctive(prog.clone())
        .entails_brave(&db, &q)
        .expect("direct answering");
    let translated = ntgd_disjunction::eliminate_disjunction(&prog).expect("translation");
    let translated_answer = ntgd_sms::SmsEngine::new(&translated.program)
        .entails_brave(&translated.extend_database(&db), &q)
        .expect("translated answering");
    (direct, translated_answer)
}

/// E7 — Theorem 15: the disjunctive-Datalog translation is weakly acyclic and
/// preserves the brave answer on a small graph.
pub fn e7_datalog() -> (bool, bool, bool) {
    let program = parse_unit(
        "node(X) -> red(X) | green(X).\
         edge(X, Y), red(X), red(Y) -> clash.\
         edge(X, Y), green(X), green(Y) -> clash.\
         clash -> q.",
    )
    .expect("datalog program parses")
    .disjunctive_program()
    .expect("consistent schema");
    let dq = ntgd_disjunction::DatalogQuery::new(program, ntgd_core::Symbol::intern("q"))
        .expect("valid datalog query");
    let translated = ntgd_disjunction::datalog_to_watgd(&dq).expect("translation");
    let weakly_acyclic = ntgd_classes::is_weakly_acyclic(&translated.program);
    let db = parse_database("node(a). node(b). edge(a,b).").expect("database parses");
    let direct = ntgd_sms::SmsEngine::new_disjunctive(dq.program.clone())
        .entails_brave(&db, &parse_query("?- q.").expect("query"))
        .expect("direct answering");
    let translated_answer = ntgd_sms::SmsEngine::new(&translated.program)
        .entails_brave(&db, &parse_query("?- q_prime.").expect("query"))
        .expect("translated answering");
    (weakly_acyclic, direct, translated_answer)
}

/// E8 — Lemma 7 / Proposition 9: maximum stable model size vs. the chase
/// bound, for a growing database.  Returns (max |M⁺|, chase bound).
pub fn e8_bounds(n: usize) -> (usize, usize) {
    let db = e4_database(n);
    let program = e4_program();
    let engine = ntgd_sms::SmsEngine::new(&program);
    let models = engine.stable_models(&db).expect("models enumerate");
    let max_size = models.iter().map(Interpretation::len).max().unwrap_or(0);
    let chase = ntgd_chase::restricted_chase(&db, &program, &ntgd_chase::ChaseConfig::default());
    for m in &models {
        assert!(ntgd_sms::is_supported_by_operator(&db, &program, m));
    }
    (max_size, chase.instance.len())
}

/// E9 — applications: consistent query answering and robust colourability.
/// Returns (CQA declarative == brute force, robust colouring declarative ==
/// brute force).
pub fn e9_applications() -> (bool, bool) {
    let cqa = ntgd_encodings::CqaInstance::new(
        vec![
            atom("salary", vec![cst("alice"), cst("50")]),
            atom("salary", vec![cst("bob"), cst("60")]),
            atom("salary", vec![cst("bob"), cst("70")]),
        ],
        vec![(1, 2)],
    );
    let cqa_agrees = cqa.repairs_via_sms().expect("CQA repairs") == cqa.repairs_brute_force();
    let robust = ntgd_encodings::RobustColoringInstance {
        vertices: 3,
        certain_edges: vec![(0, 1), (1, 2)],
        uncertain_edges: vec![(2, 0)],
        colours: 2,
    };
    let robust_agrees = robust
        .robustly_colourable_via_sms()
        .expect("robust colouring")
        == robust.robustly_colourable_brute_force();
    (cqa_agrees, robust_agrees)
}

/// E10 — stability-check cost: build the Example-1 style model over `n`
/// persons and check its stability.  Returns the model size.
pub fn e10_stability(n: usize) -> usize {
    let db = e4_database(n);
    let program = e4_program();
    // Build the "canonical" stable model by hand: friend witnessed by a null,
    // every non-rich person modest.
    let mut atoms: BTreeSet<Atom> = db.facts().cloned().collect();
    for i in 0..n {
        let p = cst(&format!("p{i}"));
        atoms.insert(atom("friend", vec![p, ntgd_core::Term::Null(i as u64)]));
        if i % 3 != 0 {
            atoms.insert(atom("modest", vec![p]));
        }
    }
    let interpretation = Interpretation::from_atoms(atoms);
    assert!(ntgd_sms::is_stable_model(&db, &program, &interpretation));
    interpretation.len()
}

/// One row of the E11 EFWFS-replay table.
#[derive(Clone, Debug)]
pub struct E11Row {
    /// The query text.
    pub query: String,
    /// Cautious answer under the (bounded) equality-friendly WFS of \[21\].
    pub efwfs: String,
    /// Cautious answer under the paper's new SMS semantics.
    pub sms: String,
}

/// E11 — Examples 2 and 3: the equality-friendly well-founded semantics
/// versus the paper's new semantics on the person/hasFather program.
pub fn e11_efwfs() -> Vec<E11Row> {
    let db = example1_database();
    let program = example1_program();
    let sms = ntgd_sms::SmsEngine::new(&program);
    let config = ntgd_lp::EfwfsConfig::default();
    let queries = [
        "?- not hasFather(alice, bob).",
        "?- not abnormal(alice).",
        "?- hasFather(alice, Y), sameAs(Y, Y).",
    ];
    queries
        .iter()
        .map(|q_text| {
            let q = parse_query(q_text).expect("query parses");
            let efwfs = ntgd_lp::efwfs_entails_cautious(&db, &program, &q, &config);
            let sms_answer = match sms.entails_cautious(&db, &q).expect("SMS answers") {
                ntgd_sms::SmsAnswer::Entailed => "entailed",
                ntgd_sms::SmsAnswer::NotEntailed => "not entailed",
                ntgd_sms::SmsAnswer::Inconsistent => "inconsistent",
            };
            E11Row {
                query: (*q_text).to_owned(),
                efwfs: if efwfs.entailed {
                    "entailed".to_owned()
                } else {
                    "not entailed".to_owned()
                },
                sms: sms_answer.to_owned(),
            }
        })
        .collect()
}

/// One row of the E12 acyclicity/fragment landscape table.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Name of the rule set.
    pub name: String,
    /// The full class report.
    pub report: ntgd_classes::ClassReport,
}

/// E12 — the decidability landscape around the paper's three paradigms:
/// classify the paper's rule sets against every implemented class and check
/// the known containments.
pub fn e12_landscape() -> Vec<E12Row> {
    let cases = [
        ("example1", "person(X) -> hasFather(X, Y). hasFather(X, Y) -> sameAs(Y, Y). hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)."),
        ("figure1a-sticky", "t(X, Y, Z) -> s(Y, W). r(X, Y), p(Y, Z) -> t(X, Y, W)."),
        ("figure1a-nonsticky", "t(X, Y, Z) -> s(X, W). r(X, Y), p(Y, Z) -> t(X, Y, W)."),
        ("infinite-chain", "person(X) -> parent(X, Y), person(Y)."),
        ("transitive-closure", "e(X, Y), e(Y, Z) -> e(X, Z)."),
        ("cartesian-product", "p(X), s(Y) -> t(X, Y)."),
        ("ja-not-wa", "p(X) -> q(X, Y). q(X, Y), s(X) -> q(Z, X)."),
        ("terminating-not-wa", "p(X) -> q(X, Y). q(X, Y), q(Y, X) -> p(Y)."),
    ];
    cases
        .iter()
        .map(|(name, text)| {
            let program = parse_program(text).expect("case parses");
            let report = ntgd_classes::classify(&program);
            assert_eq!(
                report.violated_containment(),
                None,
                "containment violated for {name}"
            );
            E12Row {
                name: (*name).to_owned(),
                report,
            }
        })
        .collect()
}

/// E13 — the stable tree model property in action: treewidth of every stable
/// model of the E4 program (weakly acyclic ⇒ small constant treewidth) versus
/// the treewidth of an `n × n` grid interpretation (the gadget shape behind
/// Theorems 4/5, growing with `n`).  Returns
/// `(max stable-model treewidth, grid treewidth)`.
pub fn e13_treewidth(persons: usize, grid: usize) -> (usize, usize) {
    let db = e4_database(persons);
    let program = e4_program();
    let engine = ntgd_sms::SmsEngine::new(&program);
    let models = engine.stable_models(&db).expect("models enumerate");
    let max_model_width = models
        .iter()
        .map(|m| ntgd_treewidth::interpretation_treewidth(m, 18).0)
        .max()
        .unwrap_or(0);

    let mut grid_atoms = Vec::new();
    for r in 0..grid {
        for c in 0..grid {
            let name = |r: usize, c: usize| cst(&format!("g{r}_{c}"));
            if c + 1 < grid {
                grid_atoms.push(atom("edge", vec![name(r, c), name(r, c + 1)]));
            }
            if r + 1 < grid {
                grid_atoms.push(atom("edge", vec![name(r, c), name(r + 1, c)]));
            }
        }
    }
    let grid_interpretation = Interpretation::from_atoms(grid_atoms);
    let grid_width = ntgd_treewidth::interpretation_treewidth(&grid_interpretation, 16).0;
    (max_model_width, grid_width)
}

/// E14 — chase variants and cores: run the restricted, Skolem and oblivious
/// chases of the Example-1 program on a database with `n` persons and return
/// `(restricted, skolem, oblivious, core)` instance sizes.  All three chases
/// are homomorphically equivalent, so the core size is common to them.
pub fn e14_chase_variants(n: usize) -> (usize, usize, usize, usize) {
    let mut facts = Vec::new();
    for i in 0..n {
        facts.push(atom("person", vec![cst(&format!("p{i}"))]));
    }
    // One explicit father makes the Skolem/oblivious chases strictly larger
    // than the restricted chase.
    facts.push(atom("hasFather", vec![cst("p0"), cst("dad")]));
    let db = Database::from_facts(facts).expect("ground facts");
    let program = example1_program();
    let config = ntgd_chase::ChaseConfig::default();
    let restricted = ntgd_chase::restricted_chase(&db, &program, &config).instance;
    let skolem = ntgd_chase::skolem_chase(&db, &program, &config).instance;
    let oblivious = ntgd_chase::oblivious_chase(&db, &program, &config).instance;
    let core = ntgd_chase::core_of(&skolem);
    (restricted.len(), skolem.len(), oblivious.len(), core.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_floor_rejects_nan() {
        assert!(below_floor(f64::NAN, 1.5));
        assert!(below_floor(f64::NAN, 0.0));
    }

    #[test]
    fn below_floor_rejects_infinities() {
        assert!(below_floor(f64::INFINITY, 1.5));
        assert!(below_floor(f64::NEG_INFINITY, 1.5));
    }

    #[test]
    fn below_floor_rejects_zero_and_negative_speedups() {
        assert!(below_floor(0.0, 0.0));
        assert!(below_floor(-2.0, 1.5));
    }

    #[test]
    fn below_floor_compares_finite_speedups_with_the_floor() {
        assert!(below_floor(1.49, 1.5));
        assert!(!below_floor(1.5, 1.5));
        assert!(!below_floor(25.0, 10.0));
    }

    #[test]
    fn e1_rows_reproduce_the_papers_separation() {
        let rows = e1_semantics();
        assert_eq!(rows.len(), 4);
        // ¬hasFather(alice, bob): entailed by LP and the operational
        // semantics, NOT entailed by the new SMS semantics.
        let bob = rows.iter().find(|r| r.query.contains("bob")).unwrap();
        assert_eq!(bob.lp, "entailed");
        assert_eq!(bob.operational, "entailed");
        assert_eq!(bob.sms, "not entailed");
        // ¬abnormal(alice): entailed by all three.
        let abnormal = rows
            .iter()
            .find(|r| r.query.contains("not abnormal(alice)"))
            .unwrap();
        assert_eq!(abnormal.sms, "entailed");
    }

    #[test]
    fn e2_random_programs_always_agree() {
        let (samples, agreements) = e2_theorem1(5, 42);
        assert_eq!(samples, agreements);
    }

    #[test]
    fn e3_classifies_figure1() {
        let rows = e3_classes();
        let sticky = rows.iter().find(|r| r.name == "figure1a-sticky").unwrap();
        assert!(sticky.sticky);
        let nonsticky = rows
            .iter()
            .find(|r| r.name == "figure1a-nonsticky")
            .unwrap();
        assert!(!nonsticky.sticky);
        let chain = rows.iter().find(|r| r.name == "infinite-chain").unwrap();
        assert!(!chain.weakly_acyclic);
        assert!(chain.guarded);
    }

    #[test]
    fn e4_and_e8_small_sizes() {
        let (db_size, answer, chase_size) = e4_data_complexity(3);
        assert_eq!(db_size, 4);
        assert!(answer);
        assert!(chase_size >= db_size);
        let (max_model, bound) = e8_bounds(2);
        assert!(max_model <= bound + 2);
    }

    #[test]
    #[ignore = "expensive: full counter-model exhaustion; exercised by the experiments binary instead"]
    fn e6_and_e7_translations_agree() {
        let (direct, translated) = e6_disjunction();
        assert_eq!(direct, translated);
        let (wa, direct, translated) = e7_datalog();
        assert!(wa);
        assert_eq!(direct, translated);
    }

    #[test]
    fn e9_applications_agree() {
        let (cqa, robust) = e9_applications();
        assert!(cqa);
        assert!(robust);
    }

    #[test]
    fn e10_stability_scales_linearly_in_model_size() {
        assert!(e10_stability(3) >= 6);
    }

    #[test]
    fn e11_efwfs_shows_the_example3_shortcoming() {
        let rows = e11_efwfs();
        let bob = rows.iter().find(|r| r.query.contains("bob")).unwrap();
        // Example 2: both the EFWFS and the new semantics give the intended
        // answer (not entailed).
        assert_eq!(bob.efwfs, "not entailed");
        assert_eq!(bob.sms, "not entailed");
        // Example 3: the EFWFS fails to entail that alice is normal, the new
        // semantics entails it.
        let abnormal = rows
            .iter()
            .find(|r| r.query.contains("not abnormal"))
            .unwrap();
        assert_eq!(abnormal.efwfs, "not entailed");
        assert_eq!(abnormal.sms, "entailed");
    }

    #[test]
    fn e12_landscape_matches_the_basic_checkers() {
        let rows = e12_landscape();
        let example1 = rows.iter().find(|r| r.name == "example1").unwrap();
        assert!(example1.report.weakly_acyclic);
        assert!(!example1.report.guarded);
        let ja = rows.iter().find(|r| r.name == "ja-not-wa").unwrap();
        assert!(!ja.report.weakly_acyclic);
        assert!(ja.report.jointly_acyclic);
        let mfa = rows
            .iter()
            .find(|r| r.name == "terminating-not-wa")
            .unwrap();
        assert!(!mfa.report.weakly_acyclic);
        assert!(mfa.report.model_faithful_acyclic);
    }

    #[test]
    fn e13_stable_models_have_small_treewidth_while_grids_grow() {
        let (model_width, grid_width) = e13_treewidth(3, 3);
        assert!(model_width <= 2);
        assert_eq!(grid_width, 3);
    }

    #[test]
    fn e14_chase_variant_sizes_are_ordered_and_share_a_core() {
        let (restricted, skolem, oblivious, core) = e14_chase_variants(3);
        assert!(restricted <= skolem);
        assert!(skolem <= oblivious);
        assert!(core <= skolem);
        assert!(core <= restricted);
    }
}
