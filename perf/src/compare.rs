//! `perf compare A.json B.json`: holds B against A with the bounds of
//! the end-to-end table, one row per (workload, metric).
//!
//! Either file is one workload's object (`perf/out/<workload>.json`)
//! or a set of them (`perf/out/all.json`).

use crate::json::{self, Value};
use crate::metrics::E2E;
use crate::stats::{median, verdict, Verdict};

fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs").and_then(|r| r.as_array()) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

fn values_of(run: &Value, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = run
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(|v| v.as_f64())
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Prints the table; `Ok(true)` when no row is `worse` or `unresolved`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let workload = |r: &Value| {
        r.get("workload")
            .and_then(|w| w.as_str())
            .map(str::to_string)
    };

    let mut clean = true;
    let mut rows = 0;
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    for base in runs(&a) {
        let Some(name) = workload(base) else {
            return Err(format!("{a_path}: a run without a workload name"));
        };
        let Some(new) = runs(&b)
            .into_iter()
            .find(|r| workload(r).as_deref() == Some(&name))
        else {
            println!("{name:<16} (not in {b_path})");
            continue;
        };
        for m in &E2E {
            let (Some(bv), Some(nv)) = (values_of(base, m.name), values_of(new, m.name)) else {
                continue;
            };
            let v = verdict(&bv, &nv, m.better, m.rel, m.abs_floor);
            clean &= v == Verdict::Ok;
            rows += 1;
            let (bm, nm) = (median(&bv), median(&nv));
            let change = if bm == 0.0 {
                format!("{:+.4}", nm - bm)
            } else {
                format!("{:+.2}%", (nm - bm) / bm.abs() * 100.0)
            };
            let bound = if m.rel > 0.0 {
                format!("{:.0}%", m.rel * 100.0)
            } else if m.abs_floor > 0.0 {
                format!("+{}", m.abs_floor)
            } else {
                "exact".to_string()
            };
            println!(
                "{name:<16} {:<13} {bm:>14.4} {nm:>14.4} {change:>9} {bound:>8}  {}",
                m.name,
                v.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(clean)
}
