//! One source of truth for the environment knobs: the table in
//! `docs/OPERATIONS.md` ("Environment variables") and the `NTGD_*` string
//! literals of the workspace's Rust sources (`crates/`, `src/`, `tests/`)
//! must name the same variables.  A knob added without a row, or a row left
//! behind by a deleted knob, fails the build.  Every row also carries a kind
//! (`operator`, `harness`, or `oracle: <test file>`), and an oracle row's
//! test file must exist and name the knob.  Every `NTGD_*` variable the CI
//! workflow sets must have a row, so CI cannot keep setting a deleted knob.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file below `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The `NTGD_*` names in `text` that `opener` immediately precedes and
/// one of `closers` immediately follows.
fn knob_names(text: &str, opener: &str, closers: &[char]) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(&format!("{opener}NTGD_")) {
        let after = &rest[start + opener.len()..];
        let len = after
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(after.len());
        if after[len..].starts_with(closers) && len > "NTGD_".len() {
            names.push(after[..len].to_owned());
        }
        rest = &after[len..];
    }
    names
}

/// The `NTGD_*` names that appear as whole string literals (`"NTGD_…"`).
fn knob_literals(source: &str) -> Vec<String> {
    knob_names(source, "\"", &['"'])
}

/// The knobs the sources read.
fn source_knobs() -> BTreeSet<String> {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    files
        .iter()
        .flat_map(|path| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            knob_literals(&text)
        })
        .collect()
}

/// `(variable, kind)` for every row of OPERATIONS.md's environment table.
fn documented_knobs() -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(repo_root().join("docs/OPERATIONS.md"))
        .expect("docs/OPERATIONS.md is readable");
    let (_, section) = doc
        .split_once("## Environment variables")
        .expect("OPERATIONS.md has an environment section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with("| `NTGD_"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`').to_owned(), cells[2].to_owned())
        })
        .collect()
}

#[test]
fn operations_table_lists_exactly_the_knobs_the_sources_read() {
    let documented: BTreeSet<String> = documented_knobs()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let read = source_knobs();
    let undocumented: Vec<&String> = read.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read by the sources but missing from docs/OPERATIONS.md: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "docs/OPERATIONS.md documents knobs no source reads: {stale:?}"
    );
}

#[test]
fn every_knob_row_has_a_kind_and_oracles_name_an_existing_test() {
    let rows = documented_knobs();
    assert!(!rows.is_empty(), "the environment table has rows");
    for (name, kind) in rows {
        if kind == "operator" || kind == "harness" {
            continue;
        }
        let test = kind
            .strip_prefix("oracle: [`")
            .and_then(|rest| rest.split_once('`'))
            .map(|(path, _)| path)
            .unwrap_or_else(|| panic!("{name}: unknown kind `{kind}`"));
        let text = std::fs::read_to_string(repo_root().join(test))
            .unwrap_or_else(|e| panic!("{name}: oracle test {test} is unreadable: {e}"));
        assert!(
            text.contains(&name),
            "{name}: oracle test {test} never names the knob it is said to exercise"
        );
    }
}

#[test]
fn every_knob_the_ci_workflow_sets_is_documented() {
    let workflow = std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml"))
        .expect(".github/workflows/ci.yml is readable");
    // YAML `env:` keys (`NTGD_X: …`) and shell assignments (`NTGD_X=…`).
    let set: BTreeSet<String> = [" ", "\t"]
        .iter()
        .flat_map(|opener| knob_names(&workflow, opener, &[':', '=']))
        .collect();
    assert!(!set.is_empty(), "the CI workflow sets some NTGD_* knob");
    let documented: BTreeSet<String> = documented_knobs()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let read = source_knobs();
    let stale: Vec<&String> = set
        .iter()
        .filter(|name| !documented.contains(*name) || !read.contains(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "the CI workflow sets knobs that are undocumented or that no source reads: {stale:?}"
    );
}
