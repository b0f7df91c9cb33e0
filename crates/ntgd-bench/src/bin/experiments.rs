//! Prints the rows and the wall time of every paper experiment (E1–E14) to
//! stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run -p ntgd-bench --bin experiments [--eN ...]
//! ```
//!
//! Without arguments every experiment is run; with `--e1 --e5 ...` only the
//! selected ones.

use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its wall time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Prints the experiment selected by `key` under `title`, followed by the
/// wall time of the whole section.
fn section(args: &[String], key: &str, title: &str, body: impl FnOnce()) {
    if !args.is_empty() && !args.iter().any(|a| a == key) {
        return;
    }
    println!("== {title} ==");
    let ((), elapsed) = timed(body);
    println!("(wall time {elapsed:?})");
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    section(
        &args,
        "--e1",
        "E1: semantic comparison on Example 1 (person/hasFather)",
        || {
            println!(
                "{:<40} {:<15} {:<15} {:<15}",
                "query", "LP", "chase [3]", "new SMS"
            );
            for row in ntgd_bench::e1_semantics() {
                println!(
                    "{:<40} {:<15} {:<15} {:<15}",
                    row.query, row.lp, row.operational, row.sms
                );
            }
        },
    );

    section(
        &args,
        "--e2",
        "E2: Theorem 1 (LP = SO on Skolemized programs)",
        || {
            let (samples, agreements) = ntgd_bench::e2_theorem1(10, 42);
            println!(
                "random existential-free programs checked: {samples}, stable-model sets equal: {agreements}"
            );
        },
    );

    section(
        &args,
        "--e3",
        "E3: syntactic classes (Definition 3, Figure 1)",
        || {
            println!(
                "{:<22} {:<16} {:<10} {:<10}",
                "rule set", "weakly-acyclic", "sticky", "guarded"
            );
            for row in ntgd_bench::e3_classes() {
                println!(
                    "{:<22} {:<16} {:<10} {:<10}",
                    row.name, row.weakly_acyclic, row.sticky, row.guarded
                );
            }
        },
    );

    section(
        &args,
        "--e4",
        "E4: data complexity shape (Theorem 6)",
        || {
            println!(
                "{:<10} {:<18} {:<18} {:<14}",
                "|D|", "SMS-QAns time", "chase time", "chase size"
            );
            for n in [1usize, 2, 3, 4] {
                let ((db_size, _answer, chase_size), sms_time) =
                    timed(|| ntgd_bench::e4_data_complexity(n));
                let db = ntgd_bench::e4_database(n);
                let program = ntgd_bench::e4_program();
                let (_, chase_time) = timed(|| {
                    ntgd_chase::restricted_chase(&db, &program, &ntgd_chase::ChaseConfig::default())
                });
                println!(
                    "{:<10} {:<18} {:<18} {:<14}",
                    db_size,
                    format!("{sms_time:?}"),
                    format!("{chase_time:?}"),
                    chase_size
                );
            }
        },
    );

    section(
        &args,
        "--e5",
        "E5: 2-QBF via the Section 5.3 encoding",
        || {
            let (instances, agreements) = ntgd_bench::e5_qbf(5, 7);
            println!(
                "random 2-QBF instances: {instances}, SMS agrees with brute force: {agreements}"
            );
        },
    );

    section(
        &args,
        "--e6",
        "E6: disjunction elimination (Lemma 13 / Theorem 12)",
        || {
            let (direct, translated) = ntgd_bench::e6_disjunction();
            println!("brave answer direct: {direct}, via translation: {translated} (must agree)");
        },
    );

    section(
        &args,
        "--e7",
        "E7: disjunctive Datalog translation (Theorem 15/16)",
        || {
            let (weakly_acyclic, direct, translated) = ntgd_bench::e7_datalog();
            println!(
                "translated program weakly acyclic: {weakly_acyclic}; brave answer direct: {direct}, translated: {translated}"
            );
        },
    );

    section(
        &args,
        "--e8",
        "E8: model-size bound (Lemma 7 / Proposition 9)",
        || {
            println!("{:<10} {:<18} {:<18}", "|D|", "max |M+|", "chase bound");
            for n in [1usize, 2, 3] {
                let (max_model, bound) = ntgd_bench::e8_bounds(n);
                println!(
                    "{:<10} {:<18} {:<18}",
                    ntgd_bench::e4_database(n).len(),
                    max_model,
                    bound
                );
            }
        },
    );

    section(
        &args,
        "--e9",
        "E9: applications (CQA over subset repairs, robust colouring)",
        || {
            let (cqa, robust) = ntgd_bench::e9_applications();
            println!("CQA declarative == brute force: {cqa}");
            println!("robust colouring declarative == brute force: {robust}");
        },
    );

    section(
        &args,
        "--e10",
        "E10: W-Stability check cost (Section 5.2)",
        || {
            println!("{:<10} {:<12} {:<14}", "persons", "|M+|", "check time");
            for n in [2usize, 4, 6, 8] {
                let (size, elapsed) = timed(|| ntgd_bench::e10_stability(n));
                println!("{:<10} {:<12} {:<14}", n, size, format!("{elapsed:?}"));
            }
        },
    );

    section(
        &args,
        "--e11",
        "E11: equality-friendly WFS [21] vs the new SMS (Examples 2-3)",
        || {
            println!("{:<40} {:<15} {:<15}", "query", "EFWFS", "new SMS");
            for row in ntgd_bench::e11_efwfs() {
                println!("{:<40} {:<15} {:<15}", row.query, row.efwfs, row.sms);
            }
        },
    );

    section(
        &args,
        "--e12",
        "E12: decidability landscape (acyclicity notions and guardedness fragments)",
        || {
            println!(
                "{:<22} {:<6} {:<6} {:<6} {:<6} {:<8} {:<9} {:<9} {:<8}",
                "rule set", "WA", "JA", "MFA", "aGRD", "sticky", "guarded", "w-guard", "fr-guard"
            );
            for row in ntgd_bench::e12_landscape() {
                let r = row.report;
                println!(
                    "{:<22} {:<6} {:<6} {:<6} {:<6} {:<8} {:<9} {:<9} {:<8}",
                    row.name,
                    r.weakly_acyclic,
                    r.jointly_acyclic,
                    r.model_faithful_acyclic,
                    r.agrd,
                    r.sticky,
                    r.guarded,
                    r.weakly_guarded,
                    r.frontier_guarded
                );
            }
        },
    );

    section(
        &args,
        "--e13",
        "E13: stable tree model property (treewidth of models vs grid gadgets)",
        || {
            println!(
                "{:<10} {:<26} {:<10} {:<16}",
                "persons", "max stable-model width", "grid n", "grid treewidth"
            );
            for (persons, grid) in [(2usize, 2usize), (3, 3), (3, 4)] {
                let ((model_width, grid_width), elapsed) =
                    timed(|| ntgd_bench::e13_treewidth(persons, grid));
                println!(
                    "{:<10} {:<26} {:<10} {:<16} ({elapsed:?})",
                    persons, model_width, grid, grid_width
                );
            }
        },
    );

    section(
        &args,
        "--e14",
        "E14: chase variants and cores on the Example-1 program",
        || {
            println!(
                "{:<10} {:<12} {:<12} {:<12} {:<10}",
                "persons", "restricted", "skolem", "oblivious", "core"
            );
            for n in [2usize, 5, 10] {
                let (restricted, skolem, oblivious, core) = ntgd_bench::e14_chase_variants(n);
                println!(
                    "{:<10} {:<12} {:<12} {:<12} {:<10}",
                    n, restricted, skolem, oblivious, core
                );
            }
        },
    );
}
