//! Markdown link checker for the committed documentation: every relative
//! link (and `#fragment` self-link) in `README.md` and `docs/*.md` must
//! resolve.  External `http(s)` links are out of scope — the build is
//! offline — as are bare-text file mentions; only `[text](target)` links
//! are checked.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files under the documentation contract.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "docs/ holds markdown");
    files.extend(entries);
    files
}

/// Extracts `[text](target)` targets, skipping fenced code blocks (where
/// brackets are code, not links).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else { break };
            targets.push(after[..close].to_owned());
            rest = &after[close + 1..];
        }
    }
    targets
}

/// GitHub-style slug of a heading line: lowercase, alphanumerics kept,
/// spaces/hyphens to hyphens, everything else dropped.
fn heading_slug(heading: &str) -> String {
    heading
        .trim_start_matches('#')
        .trim()
        .chars()
        .filter_map(|c| match c {
            'A'..='Z' => Some(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' => Some(c),
            ' ' | '-' => Some('-'),
            '_' => Some('_'),
            _ => None,
        })
        .collect()
}

fn heading_slugs(markdown: &str) -> Vec<String> {
    let mut in_fence = false;
    markdown
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                return false;
            }
            !in_fence && line.starts_with('#')
        })
        .map(heading_slug)
        .collect()
}

fn check_file(path: &Path, broken: &mut Vec<String>) {
    let markdown = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let dir = path.parent().expect("doc file has a parent");
    for target in link_targets(&markdown) {
        if target.starts_with("http://") || target.starts_with("https://") {
            continue;
        }
        let (file_part, fragment) = match target.split_once('#') {
            Some((file, frag)) => (file, Some(frag)),
            None => (target.as_str(), None),
        };
        let resolved_doc;
        let doc_for_fragment = if file_part.is_empty() {
            markdown.as_str()
        } else {
            let resolved = dir.join(file_part);
            if !resolved.exists() {
                broken.push(format!("{}: broken link {target}", path.display()));
                continue;
            }
            match fragment {
                None => continue,
                Some(_) => {
                    resolved_doc = std::fs::read_to_string(&resolved).unwrap_or_default();
                    resolved_doc.as_str()
                }
            }
        };
        if let Some(fragment) = fragment {
            if !heading_slugs(doc_for_fragment)
                .iter()
                .any(|s| s == fragment)
            {
                broken.push(format!(
                    "{}: link {target} points at a missing heading",
                    path.display()
                ));
            }
        }
    }
}

#[test]
fn every_relative_doc_link_resolves() {
    let mut broken = Vec::new();
    for file in doc_files() {
        check_file(&file, &mut broken);
    }
    assert!(
        broken.is_empty(),
        "broken documentation links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_doc_set_cross_references_itself() {
    // The docs and the README form one navigation graph: each doc is
    // reachable from the README (a regression here usually means a rename
    // broke the contract without updating the hub page).
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    for doc in ["docs/PROTOCOL.md", "docs/OPERATIONS.md"] {
        assert!(readme.contains(doc), "README.md no longer links {doc}");
    }
}
