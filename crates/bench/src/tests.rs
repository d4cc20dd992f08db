//! Profile helpers, and the checked-in benchmark trajectory
//! (`BENCH_trajectory.json`, one row per PR and `perf/` workload), which
//! must stay readable against the frozen benchmark declaration it
//! quotes.

use super::*;

#[test]
fn scale_pick() {
    assert_eq!(Scale { full: true }.pick(1, 2), 1);
    assert_eq!(Scale { full: false }.pick(1, 2), 2);
}

#[test]
fn cfgs_are_consistent() {
    let s = Scale { full: false };
    let t = tpcc_cfg(s, 2, 3);
    assert_eq!(t.nodes, 2);
    assert_eq!(t.warehouses_per_node, 3);
    let b = sb_cfg(s, 4, 0.05);
    assert_eq!(b.nodes, 4);
    assert!((b.cross_prob - 0.05).abs() < 1e-12);
}

const TRAJECTORY: &str = include_str!("../../../BENCH_trajectory.json");
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// Every string value stored under `key` in the JSON text `doc`
/// (well-formedness is `jsonlint`'s job, not this scan's).
fn strings_under<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\":");
    let values = doc.split(needle.as_str()).skip(1);
    values
        .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
        .collect()
}

/// Checks a trajectory document against a benchmark declaration: both
/// parse, and every row names a workload and metrics the benchmark
/// declares. Returns the number of rows.
fn check(trajectory: &str, benchmark: &str) -> Result<usize, String> {
    drtm_obs::jsonlint::validate(trajectory)?;
    drtm_obs::jsonlint::validate(benchmark)?;
    // `name` covers workloads, end-to-end and per-layer metrics alike;
    // a workload is never a metric name nor the reverse, so split them
    // at the `end_to_end` key.
    let (workloads, metrics) = benchmark
        .split_once("\"end_to_end\"")
        .ok_or("benchmark declares no end_to_end metrics")?;
    let (workloads, metrics) = (
        strings_under(workloads, "name"),
        strings_under(metrics, "name"),
    );
    let rows = strings_under(trajectory, "workload");
    if let Some(w) = rows.iter().find(|w| !workloads.contains(w)) {
        return Err(format!("row names workload {w:?}, BENCHMARK.json has none"));
    }
    let mut named = strings_under(trajectory, "metric");
    named.extend(strings_under(trajectory, "claimed"));
    if let Some(m) = named.iter().find(|m| !metrics.contains(m)) {
        return Err(format!("row names metric {m:?}, BENCHMARK.json has none"));
    }
    Ok(rows.len())
}

#[test]
fn trajectory_rows_name_benchmark_workloads_and_metrics() {
    let rows = check(TRAJECTORY, BENCHMARK).expect("BENCH_trajectory.json");
    // PRs 18, 20, 21 and 22 on the five workloads each.
    assert!(rows >= 20, "{rows} rows");
    let unknown_workload = TRAJECTORY.replacen("\"ycsb-hot\"", "\"ycsb-warm\"", 1);
    assert!(check(&unknown_workload, BENCHMARK).is_err());
    let unknown_metric = TRAJECTORY.replacen("\"vtps\"", "\"vtpz\"", 1);
    assert!(check(&unknown_metric, BENCHMARK).is_err());
    assert!(check("{\"rows\": [", BENCHMARK).is_err(), "not JSON");
}

/// Arm labels, metric names and a NaN value come from the run, not from
/// the table: the artifact must parse whatever they hold.
#[test]
fn artifact_escapes_labels_and_nulls_a_nan() {
    use experiment::{Arm, Report};
    let mut arm = Arm::new("r\"8\\");
    arm.push("tab\there", "txn/s", f64::NAN);
    arm.push("vtps", "txn/s", 0.123456);
    let report = Report {
        name: "fake",
        about: "",
        size: 1,
        full: false,
        arms: vec![arm],
        checks: vec![(&experiment::find("pipeline").unwrap().checks[0], true)],
    };
    let json = report.to_json("{}");
    drtm_obs::jsonlint::validate(&json).expect("artifact parses");
    assert!(json.contains(r#"{"label":"r\"8\\","metrics":[{"name":"tab\there","#));
    assert!(json.contains(r#""value":null},{"name":"vtps","unit":"txn/s","value":0.1235}"#));
}

/// The catalogue reads recorded scalars and labelled families out of
/// the scrape by name, and still refuses a name it cannot find.
#[test]
fn catalogue_resolves_table_scalars_and_families() {
    let mut s = drtm_obs::Snapshot::empty();
    (s.committed, s.net.accepted, s.contention.parks) = (2_000, 7, 9);
    (s.pipeline.overlap_ns, s.aborts[0].1, s.htm[0].1) = (40, 30, 5);
    let names = [
        ("committed", "count", 2_000.0),
        ("net_accepted", "count", 7.0),
        ("parks", "count", 9.0),
        ("overlap_ns", "ns", 40.0),
        ("abort_lock_busy_per_ktxn", "count", 15.0),
        ("htm_conflict_per_ktxn", "count", 2.5),
    ];
    let mut arm = experiment::Arm::new("a");
    arm.scraped("x_", &s, &names.map(|n| n.0));
    let want = names.map(|(name, unit, v)| (format!("x_{name}"), unit, v));
    assert_eq!(arm.metrics, want);
    let unknown = std::panic::catch_unwind(move || arm.scraped("", &s, &["nosuch"]));
    assert!(unknown.is_err());
}
