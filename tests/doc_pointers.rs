//! Every `<file>.rs:<line>` pointer in ROADMAP.md, DESIGN.md and
//! EXPERIMENTS.md names exactly one source file under `crates/`, `src/`
//! or `tests/`, and that file is at least that long, so a deleted,
//! renamed or shrunk file leaves no pointer behind.

use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["ROADMAP.md", "DESIGN.md", "EXPERIMENTS.md"];
const TREES: [&str; 3] = ["crates", "src", "tests"];

/// The `.rs` files under `dir`, build directories skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `(path suffix, line)` pointer in `text`: a run of word
/// characters, `/`, `.` and `-` ending in `.rs`, then `:` and a number.
fn pointers(text: &str) -> Vec<(&str, usize)> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_/.-".contains(c);
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".rs:") {
        let start = text[..at].trim_end_matches(path_char).len();
        let after = &text[at + 4..];
        let digits = after.find(|c: char| !c.is_ascii_digit());
        let line = &after[..digits.unwrap_or(after.len())];
        if start < at && !line.is_empty() {
            out.push((&text[start..at + 3], line.parse().unwrap()));
        }
    }
    out
}

#[test]
fn every_source_pointer_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in TREES {
        rust_files(&root.join(tree), &mut files);
    }
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (suffix, line) in pointers(&text) {
            let hits: Vec<&PathBuf> = files.iter().filter(|f| f.ends_with(suffix)).collect();
            assert_eq!(hits.len(), 1, "{doc}: `{suffix}:{line}` names {hits:?}");
            let lines = std::fs::read_to_string(hits[0]).unwrap().lines().count();
            let file = hits[0].display();
            assert!(
                lines >= line,
                "{doc}: `{suffix}:{line}`, {file} has {lines} lines"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no pointer found: the scanner is broken");
}

#[test]
fn the_scanner_reads_bare_and_prefixed_pointers() {
    let text = "see `commit.rs:351` and (`cluster/src/lease.rs:25`), §`x.rs:`, a.rs:7–9";
    let want = [
        ("commit.rs", 351),
        ("cluster/src/lease.rs", 25),
        ("a.rs", 7),
    ];
    assert_eq!(pointers(text), want);
}
