//! Crate-level tests: the label tables of `lib.rs`, and the tests that
//! hold the two metric tables — `registry`'s `shard!` rows and `expo`'s
//! `sections!` rows — against each other, against the naming rules and
//! against the output of the hand-written renderers they replaced.

use super::*;
use crate::expo::tests::sample;
use crate::expo::{render_json, render_prometheus, render_text, scalar, Get, Row, ROWS};

#[test]
fn phase_indices_are_dense_and_ordered() {
    for (i, p) in Phase::ALL.iter().enumerate() {
        assert_eq!(p.index(), i);
    }
    assert_eq!(Phase::COUNT, 8);
}

#[test]
fn phase_names_are_unique() {
    let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Phase::COUNT);
}

#[test]
fn label_tables_are_unique() {
    let mut r = ABORT_REASONS.to_vec();
    r.sort_unstable();
    r.dedup();
    assert_eq!(r.len(), ABORT_REASONS.len());
    let mut c = HTM_CLASSES.to_vec();
    c.sort_unstable();
    c.dedup();
    assert_eq!(c.len(), HTM_CLASSES.len());
}

#[test]
fn json_rendering_escapes_hostile_labels() {
    // The JSON twin of `prometheus_rendering_escapes_hostile_labels`.
    let mut s = sample();
    s.nic[0].verb = "rd\"ma\\verb";
    s.aborts[0].0 = "lock\"busy";
    s.phases[0].0 = "exe\ncute";
    let out = render_json(&s);
    crate::jsonlint::validate(&out).expect("hostile labels must still parse");
    assert!(out.contains("\"verb\":\"rd\\\"ma\\\\verb\""));
    assert!(out.contains("\"lock\\\"busy\":1") && out.contains("\"exe\\ncute\":{"));
}

/// Output of the hand-written renderers this table replaced (commit
/// 85bc85e), captured before the rewrite on `sample()` and on the
/// empty snapshot.
const PARENT: [[&str; 3]; 2] = [
    [
        include_str!("../testdata/sample.json"),
        include_str!("../testdata/sample.prom"),
        include_str!("../testdata/sample.txt"),
    ],
    [
        include_str!("../testdata/empty.json"),
        include_str!("../testdata/empty.prom"),
        include_str!("../testdata/empty.txt"),
    ],
];

#[test]
fn renderers_match_the_parents_output() {
    for (snap, [json, prom, text]) in [sample(), Snapshot::empty()].iter().zip(PARENT) {
        assert_eq!(render_json(snap), json, "JSON is byte-identical");
        assert_eq!(render_text(snap), text, "text is byte-identical");
        // Prometheus keeps every parent line; family order is the
        // table's, and the one addition is the series JSON always
        // had and Prometheus lacked.
        let ours = render_prometheus(snap);
        let ours: Vec<&str> = ours.lines().collect();
        for line in prom.lines() {
            assert!(ours.contains(&line), "parent line {line:?} is gone");
        }
        let added = ours.iter().filter(|l| !prom.lines().any(|p| p == **l));
        let added: Vec<_> = added.collect();
        let unparks = format!("drtm_contention_unpark_total {}", snap.contention.unparks);
        let want = ["# TYPE drtm_contention_unpark_total counter", &unparks];
        assert_eq!(added, want.iter().collect::<Vec<_>>());
    }
}

#[test]
fn every_shard_row_merges_and_renders() {
    use crate::registry::SCALARS;
    let r = Registry::new();
    let (a, b) = (r.shard(0), r.shard(1));
    // Distinct per row and per shard, so a crossed wire shows.
    let values = |i: usize| (1_000 + 10 * i as u64, 3 + i as u64);
    for (i, (_, _, counter, ..)) in SCALARS.iter().enumerate() {
        counter(&a).add(values(i).0);
        counter(&b).add(values(i).1);
    }
    let snap = r.scrape();
    let (json, prom) = (render_json(&snap), render_prometheus(&snap));
    for (i, &(name, slot, _, merged, max)) in SCALARS.iter().enumerate() {
        let (x, y) = values(i);
        let want = if max { x.max(y) } else { x + y };
        assert_eq!(merged(&snap), want, "{name} merged into {slot:?}");
        let (section, key) = match *slot {
            [key] => ("", key),
            [section, key] => (section, key),
            _ => panic!("{name}: slot {slot:?} is deeper than the JSON document"),
        };
        // The one recorded scalar exposed only through a derived
        // row: the depth sum is the numerator of `depth_avg`.
        if name == "reactor_depth_sum" {
            let avg = want as f64 / snap.pipeline.wakes as f64;
            assert_eq!(scalar(&snap, section, "depth_avg"), Some(avg));
            continue;
        }
        assert_eq!(scalar(&snap, section, key), Some(want as f64), "{name}");
        let row = ROWS.iter().find(|r| (r.section, r.key) == (section, key));
        let row = row.unwrap_or_else(|| panic!("{name} has no exposition row"));
        assert!(prom.contains(&format!("\n{} {want}\n", row.prom)), "{name}");
        assert!(
            json.contains(&format!("\"{key}\":{want},"))
                || json.contains(&format!("\"{key}\":{want}}}")),
            "{name}"
        );
    }
}

#[test]
fn table_follows_the_naming_rules() {
    let plain = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    for (i, row) in ROWS.iter().enumerate() {
        let Row {
            section,
            key,
            prom,
            get,
        } = row;
        assert!(prom.starts_with("drtm_") && plain(prom), "{prom}");
        // Keys are spliced into JSON unescaped: they must need none.
        assert!(
            plain(section) && plain(key) && !key.is_empty(),
            "{section}.{key}"
        );
        let counter = matches!(get, Get::Count(_) | Get::Counts(..));
        assert_eq!(
            prom.ends_with("_total"),
            counter,
            "{prom}: `_total` iff a counter"
        );
        if let Get::Hist(_) | Get::Hists(..) = get {
            assert!(prom.ends_with("_ns"), "{prom}: a summary carries its unit");
        }
        for other in &ROWS[..i] {
            assert_ne!(other.prom, *prom, "Prometheus names are unique");
            assert_ne!(
                (other.section, other.key),
                (*section, *key),
                "JSON paths are unique"
            );
        }
    }
}
