//! The experiment table's entry names against the hand-kept lists that
//! run them: EXPERIMENTS.md's regeneration loop runs every entry, and
//! CI runs each entry exactly once, in its `experiments` matrix or in
//! its `figures` job's loop.

use std::path::Path;

use drtm_bench::experiment::EXPERIMENTS;

fn read(file: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).unwrap()
}

/// The words between `open` and the next `close` after `from`'s first
/// match in `text`: a shell loop's names, or a YAML list's items.
fn list<'t>(text: &'t str, from: &str, open: &str, close: &str) -> Vec<&'t str> {
    let at = text.find(from).unwrap_or_else(|| panic!("no {from:?}"));
    let start = at + text[at..].find(open).expect("the list opens") + open.len();
    let len = text[start..].find(close).expect("the list closes");
    let words = text[start..start + len].split(|c: char| c.is_whitespace() || ",\\".contains(c));
    words.filter(|w| !w.is_empty()).collect()
}

#[test]
fn every_entry_is_regenerated_by_the_docs_and_run_once_by_ci() {
    let docs = read("EXPERIMENTS.md");
    let regenerated = list(&docs, "export DRTM_GIT_REV", "for name in", "; do");
    let ci = read(".github/workflows/ci.yml");
    let matrix = list(&ci, "\n  experiments:\n", "name: [", "]");
    let figures = list(&ci, "\n  figures:\n", "for name in", "; do");
    for e in EXPERIMENTS {
        assert!(
            regenerated.contains(&e.name),
            "EXPERIMENTS.md's loop lacks {}",
            e.name
        );
        let runs = (matrix.iter().chain(&figures))
            .filter(|n| **n == e.name)
            .count();
        assert_eq!(runs, 1, "CI runs {} {runs} times", e.name);
    }
    for name in regenerated.iter().chain(&matrix).chain(&figures) {
        assert!(
            EXPERIMENTS.iter().any(|e| e.name == *name),
            "{name} is no entry"
        );
    }
}
