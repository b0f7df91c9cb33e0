//! One source of truth for the verb summary: the served `HELP` output and
//! the block embedded in `docs/PROTOCOL.md` must be identical.  Both derive
//! from [`ntgd_server::HELP_LINES`] — the session maps over it at runtime,
//! the doc mirrors it between `<!-- HELP-BEGIN -->`/`<!-- HELP-END -->`
//! markers, and this test fails the build when either side drifts.
//!
//! The same holds for the `STATS` keys: every key plain `STATS` emits is
//! documented in one of PROTOCOL.md's `STATS` tables, and every row of the
//! "All-scope counters" table is emitted.

use std::collections::BTreeSet;

use ntgd_server::{Session, SessionConfig, HELP_LINES};

fn protocol_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/PROTOCOL.md is readable")
}

/// The lines inside PROTOCOL.md's HELP markers, code fence stripped.
fn documented_help() -> Vec<String> {
    let doc = protocol_doc();
    let (_, after) = doc
        .split_once("<!-- HELP-BEGIN -->")
        .expect("PROTOCOL.md has a <!-- HELP-BEGIN --> marker");
    let (block, _) = after
        .split_once("<!-- HELP-END -->")
        .expect("PROTOCOL.md has a <!-- HELP-END --> marker");
    block
        .lines()
        .map(str::trim_end)
        .filter(|line| !line.is_empty() && !line.starts_with("```"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn protocol_doc_embeds_help_lines_verbatim() {
    assert_eq!(
        documented_help(),
        HELP_LINES.to_vec(),
        "docs/PROTOCOL.md's HELP block diverged from protocol::HELP_LINES — \
         update whichever side is stale"
    );
}

#[test]
fn served_help_is_help_lines_plus_terminator() {
    let mut session = Session::new(SessionConfig::default());
    let response = session.execute("HELP");
    let (terminator, data) = response.lines.split_last().expect("nonempty response");
    // Data lines are wire-framed as `INFO <help line>` so they can never be
    // mistaken for a terminator; the payload itself is HELP_LINES verbatim.
    let served: Vec<&str> = data
        .iter()
        .map(|line| {
            line.strip_prefix("INFO ")
                .expect("HELP data lines are INFO-framed")
        })
        .collect();
    assert_eq!(served, HELP_LINES.to_vec());
    assert_eq!(terminator, "OK help");
}

/// The backticked names in the first cell of every table row, per `###`
/// subsection of PROTOCOL.md's "STATS scopes and counters" section.
fn documented_stats_tables() -> Vec<(String, Vec<String>)> {
    let doc = protocol_doc();
    let (_, section) = doc
        .split_once("## STATS scopes and counters")
        .expect("PROTOCOL.md has a STATS section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut tables: Vec<(String, Vec<String>)> = Vec::new();
    for line in section.lines() {
        if let Some(title) = line.strip_prefix("### ") {
            tables.push((title.to_owned(), Vec::new()));
        } else if line.starts_with("| `") {
            let first_cell = line.split('|').nth(1).unwrap_or_default();
            let (_, keys) = tables
                .last_mut()
                .expect("STATS tables sit under ### headings");
            keys.extend(first_cell.split('`').skip(1).step_by(2).map(str::to_owned));
        }
    }
    tables
}

/// The keys plain `STATS` emits once a normal program is loaded and its
/// stable models have been enumerated (so the chase and `sms` lines show).
fn emitted_stats_keys() -> BTreeSet<String> {
    let mut session = Session::new(SessionConfig::default());
    assert!(session.execute("LOAD e(X, Y) -> n(X). e(a, b).").is_ok());
    assert!(session.execute("MODELS").is_ok());
    let response = session.execute("STATS");
    assert!(response.is_ok());
    response
        .lines
        .iter()
        .filter_map(|line| line.strip_prefix("STAT "))
        .map(|line| line.split_once('=').expect("STAT key=value").0.to_owned())
        .collect()
}

#[test]
fn every_emitted_stats_key_is_documented() {
    let documented: BTreeSet<String> = documented_stats_tables()
        .into_iter()
        .flat_map(|(_, keys)| keys)
        .collect();
    let undocumented: Vec<String> = emitted_stats_keys()
        .into_iter()
        .filter(|key| !documented.contains(key))
        .collect();
    assert!(
        undocumented.is_empty(),
        "STATS emits keys no docs/PROTOCOL.md STATS table documents: {undocumented:?}"
    );
}

#[test]
fn every_all_scope_row_is_emitted() {
    let tables = documented_stats_tables();
    let keys_of = |prefix: &str| -> Vec<String> {
        tables
            .iter()
            .find(|(title, _)| title.starts_with(prefix))
            .unwrap_or_else(|| panic!("PROTOCOL.md has a `{prefix}` table"))
            .1
            .clone()
    };
    let emitted = emitted_stats_keys();
    let mut missing = Vec::new();
    for key in keys_of("All-scope counters") {
        // `sms_*` stands for the `STATS sms` table, inlined.
        let expanded = if key == "sms_*" {
            keys_of("`STATS sms`")
        } else {
            vec![key]
        };
        missing.extend(expanded.into_iter().filter(|key| !emitted.contains(key)));
    }
    assert!(
        missing.is_empty(),
        "docs/PROTOCOL.md documents all-scope STATS keys that STATS never emits: {missing:?}"
    );
}
