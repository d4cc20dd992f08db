//! Free-form parameter sweep: run any (engine, workload, nodes, threads,
//! replicas, cross-probability) grid point from the command line.
//!
//! ```text
//! sweep [tpcc|smallbank|ycsb] [--engine drtm+r|drtm|calvin]
//!       [--nodes N] [--threads T] [--replicas R] [--cross P]
//!       [--txns N] [--routines R] [--full] [--msg-locking | --fuse]
//!       [--no-cache] [--raw]
//!       [--json FILE]
//! ```
//!
//! Prints the one-arm report of the experiment table's renderer (the
//! driver's end-to-end numbers, new-order rate, fallbacks, NIC bytes
//! per transaction and the pipeline / contention counters), so shell
//! loops can build arbitrary grids beyond the paper's figures. With
//! `--raw` only the aggregate throughput (txn/s, bare float) is printed
//! — the machine-comparable form the CI observability-overhead check
//! diffs between obs-enabled and obs-disabled builds (the gated A/Bs
//! live in `drtm_bench::experiment`). With `--json FILE` the same arm
//! is written in the table's artifact schema; its stamp carries the git
//! revision (`DRTM_GIT_REV` or `git rev-parse --short HEAD`) and the
//! workload and run configuration chosen here, so artifacts from
//! different PRs are directly comparable.

use drtm_bench::experiment::{closed_arm, Arm, Report};
use drtm_bench::{sb_cfg, stamp_json, tpcc_cfg, ycsb_cfg, Scale};
use drtm_core::cluster::MAX_REPLICAS;
use drtm_core::{EngineOpts, LockTransport};
use drtm_workloads::driver::{EngineKind, RunCfg};
use drtm_workloads::ycsb::YcsbMix;

/// The choices a `RunCfg` does not carry: the cross-machine
/// probability and the engine ablations. The `--json` stamp records
/// them as given.
#[derive(Debug, Default)]
struct Flags {
    cross: Option<f64>,
    locking: LockTransport,
    no_cache: bool,
}

/// Exits with a usage error.
fn bad(what: String) -> ! {
    eprintln!("{what}");
    std::process::exit(2)
}

fn main() {
    let mut workload = "tpcc".to_string();
    let mut run = RunCfg {
        txns_per_worker: 150,
        ..Default::default()
    };
    let (mut nodes, mut full, mut raw) = (2usize, false, false);
    let mut flags = Flags::default();
    // YCSB-only shape knobs.
    let (mut mix, mut theta, mut records) = (None, None::<f64>, None::<usize>);
    let mut json: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| bad(format!("{a} needs a value")))
        };
        let mut num = || value().parse().unwrap_or_else(|_| bad(format!("{a} N")));
        match a.as_str() {
            "tpcc" | "smallbank" | "ycsb" => workload = a.clone(),
            "--engine" => {
                run.engine = match value().as_str() {
                    "drtm+r" | "drtmr" => EngineKind::DrtmR,
                    "drtm" => EngineKind::Drtm,
                    "calvin" => EngineKind::Calvin,
                    other => bad(format!("unknown engine {other:?} (drtm+r|drtm|calvin)")),
                }
            }
            "--nodes" => nodes = num(),
            "--threads" => run.threads = num(),
            "--replicas" => run.replicas = num(),
            "--txns" => run.txns_per_worker = num(),
            "--routines" => run.routines = num(),
            "--records" => records = Some(num()),
            "--cross" => {
                flags.cross = Some(value().parse().unwrap_or_else(|_| bad("--cross P".into())))
            }
            "--theta" => theta = Some(value().parse().unwrap_or_else(|_| bad("--theta T".into()))),
            "--mix" => {
                mix = Some(match value().to_ascii_uppercase().as_str() {
                    "A" => YcsbMix::A,
                    "B" => YcsbMix::B,
                    "C" => YcsbMix::C,
                    "F" => YcsbMix::F,
                    other => bad(format!("unknown mix {other:?} (one of A, B, C, F)")),
                })
            }
            "--msg-locking" | "--fuse" if flags.locking != LockTransport::OneSided => {
                bad("--msg-locking and --fuse each pick the lock transport; give one".into())
            }
            "--msg-locking" => flags.locking = LockTransport::Messages,
            "--fuse" => flags.locking = LockTransport::Glob,
            "--no-cache" => flags.no_cache = true,
            "--raw" => raw = true,
            "--full" => full = true,
            "--json" => json = Some(value()),
            other => bad(format!("unknown argument {other:?}")),
        }
    }
    if run.replicas > MAX_REPLICAS {
        bad(format!("--replicas is at most {MAX_REPLICAS}"));
    }

    let scale = Scale { full };
    let scraped = [
        "nic_bytes_per_txn",
        "overlap_ns",
        "hiding_pct",
        "pessimistic",
        "parks",
        "grants",
    ];
    let tweak = |o: &mut EngineOpts| {
        o.locking = flags.locking;
        o.use_location_cache = !flags.no_cache;
    };
    let mut arm = Arm::new(workload.clone());
    let (m, cfg): (_, Box<dyn std::fmt::Debug>) = match workload.as_str() {
        "tpcc" => {
            let mut cfg = tpcc_cfg(scale, nodes, run.threads);
            cfg.cross_new_order = flags.cross.unwrap_or(cfg.cross_new_order);
            let m = closed_arm(&mut arm, "", &cfg, &run, tweak, &scraped);
            (m, Box::new(cfg))
        }
        "smallbank" => {
            let cfg = sb_cfg(scale, nodes, flags.cross.unwrap_or(0.01));
            let m = closed_arm(&mut arm, "", &cfg, &run, tweak, &scraped);
            (m, Box::new(cfg))
        }
        _ => {
            let mut cfg = ycsb_cfg(scale, nodes, flags.cross.unwrap_or(0.05));
            cfg.mix = mix.unwrap_or(cfg.mix);
            cfg.theta = theta.unwrap_or(cfg.theta);
            cfg.records = records.unwrap_or(cfg.records);
            let m = closed_arm(&mut arm, "", &cfg, &run, tweak, &scraped);
            (m, Box::new(cfg))
        }
    };
    if raw {
        println!("{:.0}", m.throughput);
        return;
    }
    arm.push("fallbacks", "txn", m.fallbacks as f64);
    let report = Report {
        name: "sweep",
        about: "one grid point chosen on the command line",
        size: run.txns_per_worker,
        full,
        arms: vec![arm],
        checks: Vec::new(),
    };
    println!("{}", report.render());
    if let Some(path) = &json {
        let json = report.to_json(&stamp_json(Some(&(cfg, &run, &flags))));
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}
