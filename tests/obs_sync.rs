//! One source of truth for the metric names: the "Metric name inventory"
//! table in `docs/OPERATIONS.md` and the instruments the crates register
//! (`crates/*/src`) must name the same instruments, with the same kinds.
//! An instrument added without a row, or a row left behind by a deleted
//! instrument, fails the build.
//!
//! The sources are scanned for string literals: `Counter::new("…")`,
//! `Gauge::new("…")` and `span("…")`, plus the `verb_metrics!` macro's
//! per-verb families, which the table spells with a `<verb>` placeholder
//! (`server.requests.<verb>`).  In the table, the first cell of a row names
//! its instruments; the second cell gives their kind (`counter`, `gauge` or
//! `histogram`) and, after ` + `, each span the row covers as
//! ``span `name` ``.  Names under `obs.test.` belong to the `obs` unit tests
//! and are skipped.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// An instrument: its kind (`counter`, `gauge`, `histogram` or `span`) and
/// its dotted name.
type Instrument = (String, String);

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

/// The string literals that `call` (e.g. `Counter::new(`) immediately
/// precedes, where `call` does not continue an identifier on its left.
fn literal_arguments(text: &str, call: &str) -> Vec<String> {
    let opener = format!("{call}\"");
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(&opener) {
        let glued = rest[..start]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[start + opener.len()..];
        let end = after.find('"').expect("closed string literal");
        if !glued {
            names.push(after[..end].to_owned());
        }
        rest = &after[end..];
    }
    names
}

/// The instruments a `verb_metrics!` macro definition registers per verb:
/// each field of the macro body built as `concat!("prefix", $label)` is one
/// family `prefix<verb>`, of the kind its field names (`counter` or
/// `histogram`).
fn verb_families(text: &str) -> Vec<Instrument> {
    let Some((_, body)) = text.split_once("macro_rules! verb_metrics") else {
        return Vec::new();
    };
    let body = body.split("\n}\n").next().unwrap_or(body);
    body.lines()
        .filter_map(|line| {
            let (field, value) = line.trim().split_once(':')?;
            let (_, prefix) = value.split_once("concat!(\"")?;
            let (prefix, _) = prefix.split_once("\", $label)")?;
            Some((field.trim().to_owned(), format!("{prefix}<verb>")))
        })
        .collect()
}

/// Every instrument the crates register, outside the `obs` unit tests.
fn source_instruments() -> BTreeSet<Instrument> {
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates"), &mut files);
    let mut found = BTreeSet::new();
    for path in files
        .iter()
        .filter(|p| p.components().any(|c| c.as_os_str() == "src"))
    {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (kind, call) in [
            ("counter", "Counter::new("),
            ("gauge", "Gauge::new("),
            ("span", "span("),
        ] {
            for name in literal_arguments(&text, call) {
                found.insert((kind.to_owned(), name));
            }
        }
        if text.contains("verb_metrics!(\"") {
            found.extend(verb_families(&text));
        }
    }
    found.retain(|(_, name)| !name.starts_with("obs.test."));
    found
}

/// The backticked spans of a table cell.
fn backticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// Every instrument OPERATIONS.md's inventory table names.
fn documented_instruments() -> BTreeSet<Instrument> {
    let doc = std::fs::read_to_string(repo_root().join("docs/OPERATIONS.md"))
        .expect("docs/OPERATIONS.md is readable");
    let (_, section) = doc
        .split_once("### Metric name inventory")
        .expect("OPERATIONS.md has a metric name inventory");
    let section = section.split("\n#").next().unwrap_or(section);
    let mut documented = BTreeSet::new();
    for line in section.lines().filter(|line| line.starts_with("| `")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let mut parts = cells[2].split(" + ");
        let kind = parts.next().expect("a kind cell").trim();
        assert!(
            ["counter", "gauge", "histogram"].contains(&kind),
            "inventory row `{line}`: unknown kind `{kind}`"
        );
        for name in backticked(cells[1]) {
            documented.insert((kind.to_owned(), name));
        }
        for part in parts {
            let spans = backticked(part);
            assert!(
                part.trim().starts_with("span") && spans.len() == 1,
                "inventory row `{line}`: `{part}` must read span `<name>`"
            );
            documented.insert(("span".to_owned(), spans[0].clone()));
        }
    }
    documented
}

#[test]
fn the_metric_inventory_names_exactly_the_instruments_the_sources_register() {
    let registered = source_instruments();
    let documented = documented_instruments();
    assert!(
        registered.contains(&("counter".to_owned(), "server.requests.<verb>".to_owned())),
        "the scan finds the verb_metrics! families: {registered:?}"
    );
    let undocumented: Vec<&Instrument> = registered.difference(&documented).collect();
    let stale: Vec<&Instrument> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty(),
        "instruments registered by the sources but missing from docs/OPERATIONS.md: \
         {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "docs/OPERATIONS.md names instruments no source registers: {stale:?}"
    );
}
