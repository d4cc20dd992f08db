//! `perf` — the repo's benchmark: one harness, five named workloads,
//! three clocks (virtual, host, served). See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! perf all|trace [--seed N] [--seconds S] [--smoke]                every workload, untraced or traced
//! perf selftest [--smoke]                                         arithmetic, trace writer, tables (+ a 1% run)
//! perf compare A.json B.json                                      hold B against A's bounds
//! ```

mod compare;
mod json;
mod kernels;
mod layers;
mod loadgen;
mod metrics;
mod report;
mod spans;
mod stamp;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::Outcome;
use spans::Recorder;
use workloads::{RepOut, EXTRA_SETUPS, NAMES, REFERENCE_SECONDS, REPS, WARMUP_SHARE};

/// Where output objects and traces go. Like `BENCHMARK.json`, it is
/// found from the repo root, which is where `run.sh` and the driver
/// run the harness from.
const OUT_DIR: &str = "perf/out";

/// Share of `REFERENCE_SECONDS` that `--smoke` runs at.
const SMOKE_SHARE: f64 = 0.01;

struct Args {
    command: String,
    files: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        files: Vec::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => args.command = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ if args.command.is_empty() => args.command = a,
            _ => args.files.push(a),
        }
    }
    if args.smoke {
        args.seconds = REFERENCE_SECONDS * SMOKE_SHARE;
    }
    if args.command.is_empty() {
        return Err("no command; see perf/README.md".into());
    }
    Ok(args)
}

/// One workload, untraced: a discarded warm-up, then `REPS` measured
/// repetitions in fresh clusters; every metric is their median.
fn run_untraced(name: &str, seed: u64, seconds: f64) -> Outcome {
    let spec =
        workloads::spec(name, seed, seconds).unwrap_or_else(|| panic!("no workload `{name}`"));
    let mut rec = Recorder::new(false, name);
    workloads::repetition(&spec.shrunk(WARMUP_SHARE), &mut rec, false);
    let reps: Vec<_> = (0..REPS)
        .map(|_| workloads::repetition(&spec, &mut rec, false))
        .collect();
    let extra_setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| workloads::setup_only(&spec))
        .collect();
    Outcome::from_reps(name, false, seed, seconds, &spec, reps, &extra_setups)
}

/// One workload, traced: warm-up, one untraced repetition (the base of
/// `obs.trace_overhead_share`), one repetition with the span recorder
/// on and the engine's head sampling set, then the kernel pass. Writes
/// both traces under `perf/out/`.
fn run_traced(name: &str, seed: u64, seconds: f64) -> Outcome {
    let spec =
        workloads::spec(name, seed, seconds).unwrap_or_else(|| panic!("no workload `{name}`"));
    let mut off = Recorder::new(false, name);
    workloads::repetition(&spec.shrunk(WARMUP_SHARE), &mut off, false);
    let untraced = workloads::repetition(&spec, &mut off, false);

    drtm_obs::trace::clear_all();
    drtm_obs::trace::set_sample_every(32);
    let mut rec = Recorder::new(true, name);
    let mut traced = workloads::repetition(&spec, &mut rec, true);
    let coverage = rec.top_level_coverage();

    let kernels = kernels::run_all(&mut rec, seconds / REFERENCE_SECONDS);
    traced.metrics.extend(kernels);
    let host_tps = |r: &RepOut| r.get("host_tps").unwrap_or(0.0);
    traced.metrics.push((
        "obs.trace_overhead_share",
        1.0 - host_tps(&traced) / host_tps(&untraced),
    ));
    traced.checks.push(workloads::check(
        "top-level spans cover the traced repetition",
        coverage >= 0.95,
        format!("{:.1}%", coverage * 100.0),
    ));
    traced.checks.extend(untraced.checks);

    report::write_file(&format!("trace-{name}.json"), &rec.chrome_json());
    report::write_file(
        &format!("trace-{name}-engine.json"),
        &drtm_obs::trace::export_chrome_json(),
    );
    println!(
        "# trace: {} spans, top-level coverage {:.1}%, perf/out/trace-{name}.json",
        rec.spans().len(),
        coverage * 100.0
    );
    Outcome::from_reps(name, true, seed, seconds, &spec, vec![traced], &[])
}

fn exit_for(all_ok: bool) -> ExitCode {
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: a correctness check failed");
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a process of its own (so `peak_rss_mb`
/// is that workload's and not the largest so far), and gathers the
/// objects they wrote into `perf/out/all.json` (`trace-all.json`).
fn run_each_in_own_process(traced: bool, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_ok = true;
    let mut objects = Vec::new();
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        all_ok &= status.success();
        let file = report::out_file(name, traced);
        objects.push(std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?);
    }
    report::write_file(
        if traced { "trace-all.json" } else { "all.json" },
        &format!("{{\"runs\":[{}]}}", objects.join(",")),
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    // Defaults must be the real defaults: no inherited engine toggle.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DRTM_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "selftest" => match selftest(args.smoke, args.seed, args.seconds) {
            Ok(()) => {
                println!("selftest ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf selftest: {e}");
                ExitCode::FAILURE
            }
        },
        "compare" => match args.files.as_slice() {
            [a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perf compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("perf compare takes two files");
                ExitCode::from(2)
            }
        },
        "all" | "trace" => {
            let traced = args.command == "trace" || args.trace;
            match run_each_in_own_process(traced, &args) {
                Ok(all_ok) => exit_for(all_ok),
                Err(e) => {
                    eprintln!("perf {}: {e}", args.command);
                    ExitCode::from(2)
                }
            }
        }
        name if NAMES.contains(&name) => {
            let outcome = if args.trace {
                run_traced(name, args.seed, args.seconds)
            } else {
                run_untraced(name, args.seed, args.seconds)
            };
            outcome.print_human();
            outcome.write();
            if !outcome.correct {
                return exit_for(false);
            }
            // The driver reads the last line of standard output.
            println!("{}", outcome.driver_line(args.trace));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("perf: no workload or command `{other}`; workloads are {NAMES:?}");
            ExitCode::from(2)
        }
    }
}

/// Arithmetic, trace writer and table checks; with `smoke`, also every
/// workload at 1% (untraced and traced), every metric name, and one
/// deliberately wrong expectation that must fail its run.
fn selftest(smoke: bool, seed: u64, seconds: f64) -> Result<(), String> {
    stats::selftest()?;
    spans::selftest()?;
    report::check_benchmark_json()?;
    if !smoke {
        return Ok(());
    }
    for name in NAMES {
        let run = run_untraced(name, seed, seconds);
        run.print_human();
        if !run.correct {
            return Err(format!("{name}: a check failed at smoke scale"));
        }
        for m in metrics::E2E.iter().filter(|m| m.contract_bound.is_some()) {
            match run.value(m.name) {
                Some(v) if v > 0.0 && v.is_finite() => {}
                other => return Err(format!("{name}: end-to-end `{}` is {other:?}", m.name)),
            }
        }
        let traced = run_traced(name, seed, seconds);
        if !traced.correct {
            return Err(format!("{name}: a check failed in the traced pass"));
        }
        let line = json::parse(&traced.driver_line(true))?;
        let printed = line
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("no metrics")?;
        for m in &metrics::LAYERS {
            if !printed.iter().any(|(k, _)| k == m.name) {
                return Err(format!("{name}: per-layer `{}` is missing", m.name));
            }
        }
    }
    // A wrong expectation must fail the run: the full SmallBank mix
    // deposits money, so asserting conservation over it cannot hold.
    let wrong = workloads::serve_spec(seed, seconds, false);
    let rep = workloads::repetition(&wrong, &mut Recorder::new(false, "wrong"), false);
    match rep.checks.iter().find(|c| !c.ok) {
        Some(c) => println!("# wrong expectation caught: {} ({})", c.name, c.detail),
        None => return Err("a non-zero-sum mix passed the conservation check".into()),
    }
    Ok(())
}
