//! Turning repetitions into what the harness prints and writes: the
//! `name value unit` lines, the stamped object under `perf/out/`, and
//! the one-line JSON the driver reads.

use std::fmt::Write as _;

use crate::metrics::{describe, unit_of, E2E, LAYERS};
use crate::spans::escape;
use crate::stats::{median, min_max};
use crate::workloads::{check, Check, RepOut, Spec};
use crate::{json, OUT_DIR};

/// One metric over the repetitions of one workload.
#[derive(Debug, Clone)]
pub struct Agg {
    pub name: &'static str,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

/// Everything one invocation measured on one workload.
pub struct Outcome {
    pub workload: String,
    traced: bool,
    stamp: String,
    pub metrics: Vec<Agg>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    pub fn from_reps(
        workload: &str,
        traced: bool,
        seed: u64,
        seconds: f64,
        spec: &Spec,
        reps: Vec<RepOut>,
        extra_setups: &[f64],
    ) -> Self {
        // Table order, so every file and every run lists alike.
        let names = E2E
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name));
        let mut metrics: Vec<Agg> = Vec::new();
        for name in names {
            let mut values: Vec<f64> = reps.iter().filter_map(|r| r.get(name)).collect();
            if name == "setup_s" {
                values.extend_from_slice(extra_setups);
            }
            if values.is_empty() || metrics.iter().any(|a| a.name == name) {
                continue;
            }
            let (min, max) = min_max(&values);
            metrics.push(Agg {
                name,
                median: median(&values),
                min,
                max,
                values,
            });
        }

        let mut checks: Vec<Check> = reps.iter().flat_map(|r| r.checks.clone()).collect();
        if spec.is_count_deterministic() && reps.len() > 1 {
            let counts: Vec<u64> = reps.iter().map(|r| r.committed).collect();
            checks.push(check(
                "committed count identical across repetitions",
                counts.windows(2).all(|w| w[0] == w[1]),
                format!("{counts:?}"),
            ));
        }
        let correct = checks.iter().all(|c| c.ok);
        let single = |name: &'static str, v: f64| Agg {
            name,
            median: v,
            min: v,
            max: v,
            values: vec![v],
        };
        metrics.push(single("peak_rss_mb", peak_rss_mb()));
        metrics.push(single("check_ok", f64::from(u8::from(correct))));

        Outcome {
            workload: workload.to_string(),
            traced,
            stamp: crate::stamp::stamp_json(seed, seconds, &spec.sizes_json()),
            metrics,
            checks,
            attempted: reps.iter().map(|r| r.attempted).sum(),
            failed: reps.iter().map(|r| r.failed).sum(),
            correct,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.median)
    }

    /// `name value unit` per metric (median; min and max beside it when
    /// there was more than one repetition), then the checks.
    pub fn print_human(&self) {
        println!("# {} ({}) {}", self.workload, self.mode(), self.stamp);
        for a in &self.metrics {
            let (unit, clock) = describe(a.name);
            let clock = clock.label();
            if a.values.len() > 1 {
                println!(
                    "{} {} {}  # {clock}, min {} max {} of {}",
                    a.name,
                    a.median,
                    unit,
                    a.min,
                    a.max,
                    a.values.len()
                );
            } else {
                println!("{} {} {unit}  # {clock}", a.name, a.median);
            }
        }
        for c in &self.checks {
            if !c.ok {
                println!("# CHECK FAILED: {} ({})", c.name, c.detail);
            }
        }
        println!(
            "# checks: {} of {} passed; attempted {} failed {}",
            self.checks.iter().filter(|c| c.ok).count(),
            self.checks.len(),
            self.attempted,
            self.failed
        );
    }

    /// The stamped object written to `perf/out/<workload>.json`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"stamp\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"metrics\":{{",
            escape(&self.workload),
            self.mode(),
            self.stamp,
            self.correct,
            self.attempted,
            self.failed
        );
        for (i, a) in self.metrics.iter().enumerate() {
            let values: Vec<String> = a.values.iter().map(|v| num(*v)).collect();
            write!(
                out,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"min\":{},\"max\":{},\"values\":[{}]}}",
                if i > 0 { "," } else { "" },
                a.name,
                num(a.median),
                unit_of(a.name),
                num(a.min),
                num(a.max),
                values.join(",")
            )
            .expect("write to String");
        }
        out.push_str("},\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                escape(&c.name),
                c.ok,
                escape(&c.detail)
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }

    fn mode(&self) -> &'static str {
        if self.traced {
            "trace"
        } else {
            "run"
        }
    }

    pub fn write(&self) {
        if let Err(e) = std::fs::write(out_file(&self.workload, self.traced), self.to_json()) {
            eprintln!("perf: cannot write the output object: {e}");
        }
    }

    /// The driver's line: every `end_to_end` metric of `BENCHMARK.json`
    /// untraced, every `per_layer` metric traced (0 where a layer does
    /// no work on this workload).
    pub fn driver_line(&self, traced: bool) -> String {
        let names: Vec<&'static str> = if traced {
            LAYERS.iter().map(|m| m.name).collect()
        } else {
            E2E.iter()
                .filter(|m| m.contract_bound.is_some())
                .map(|m| m.name)
                .collect()
        };
        let body: Vec<String> = names
            .iter()
            .map(|name| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    num(self.value(name).unwrap_or(0.0)),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Where one workload's stamped object goes (the directory is made).
pub fn out_file(workload: &str, traced: bool) -> String {
    let _ = std::fs::create_dir_all(OUT_DIR);
    let kind = if traced { ".trace" } else { "" };
    format!("{OUT_DIR}/{workload}{kind}.json")
}

/// Writes `body` to `perf/out/<file>`, creating the directory.
pub fn write_file(file: &str, body: &str) {
    let path = std::path::Path::new(OUT_DIR).join(file);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body));
    if let Err(e) = written {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
}

/// `BENCHMARK.json` in the working directory (the repo root) must list
/// exactly the workloads and metric tables of this harness.
pub fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| -> Result<Vec<&json::Value>, String> {
        Ok(doc
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .collect())
    };
    let text_of = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(|s| s.as_str())
            .unwrap_or("")
            .to_string()
    };

    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    if workloads != crate::workloads::NAMES {
        return Err(format!("BENCHMARK.json workloads {workloads:?}"));
    }
    if doc.get("run_seconds").and_then(|v| v.as_f64()) != Some(crate::workloads::REFERENCE_SECONDS)
    {
        return Err("BENCHMARK.json run_seconds differs from REFERENCE_SECONDS".into());
    }
    let listed: Vec<(String, String, String, Option<f64>)> = list("end_to_end")?
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(|b| b.as_f64()),
            )
        })
        .collect();
    let expected: Vec<_> = E2E
        .iter()
        .filter(|m| m.contract_bound.is_some())
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                m.contract_bound,
            )
        })
        .collect();
    if listed != expected {
        return Err(format!(
            "BENCHMARK.json end_to_end {listed:?} is not {expected:?}"
        ));
    }
    let listed: Vec<(String, String, String)> = list("per_layer")?
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let expected: Vec<_> = LAYERS
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect();
    if listed != expected {
        let odd = listed.iter().zip(&expected).find(|(a, b)| a != b);
        return Err(format!(
            "BENCHMARK.json per_layer differs from the table (first difference {odd:?}, {} vs {} entries)",
            listed.len(),
            expected.len()
        ));
    }
    Ok(())
}
