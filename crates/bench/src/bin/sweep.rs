//! Free-form parameter sweep: run any (engine, workload, nodes, threads,
//! replicas, cross-probability) grid point from the command line.
//!
//! ```text
//! sweep [tpcc|smallbank|ycsb] [--engine drtm+r|drtm|calvin|silo]
//!       [--nodes N] [--threads T] [--replicas R] [--cross P]
//!       [--txns N] [--routines R] [--full] [--msg-locking] [--no-cache]
//!       [--fuse] [--no-value-cache] [--raw]
//!       [--json FILE]
//! ```
//!
//! Prints one tab-separated result row (plus a header), so shell loops
//! can build arbitrary grids beyond the paper's figures. With `--raw`
//! only the aggregate throughput (txn/s, bare float) is printed — the
//! machine-comparable form the CI observability-overhead check diffs
//! between obs-enabled and obs-disabled builds (the gated A/Bs live in
//! `drtm_bench::experiment`). With `--json FILE`
//! a one-object summary (`workload`, `rev`, `routines`, `throughput`, `abort_rate`,
//! `p50`, `p99`, `nic_bytes_per_txn`, `pipeline`) is also written to
//! `FILE` for artifact upload; `rev` comes from `DRTM_GIT_REV` or
//! `git rev-parse --short HEAD`, so summaries from different PRs are
//! directly comparable.

use drtm_bench::{fmt_tps, sb_cfg, stamp, tpcc_cfg, ycsb_cfg, Scale};
use drtm_workloads::driver::{
    build_smallbank, build_tpcc, build_ycsb, run_smallbank_on, run_tpcc_on, run_ycsb_on,
    EngineKind, Measurement, RunCfg,
};

fn parse_engine(s: &str) -> EngineKind {
    match s {
        "drtm+r" | "drtmr" => EngineKind::DrtmR,
        "drtm" => EngineKind::Drtm,
        "calvin" => EngineKind::Calvin,
        "silo" => EngineKind::Silo,
        other => {
            eprintln!("unknown engine {other:?} (drtm+r|drtm|calvin|silo)");
            std::process::exit(2);
        }
    }
}

/// Serializes the run summary as one JSON object. Latencies are the
/// commit-count-weighted overall quantiles across the mix's transaction
/// types, in virtual microseconds; `nic_bytes_per_txn` divides every
/// NIC's wire bytes by committed transactions. The `rev` (kept for
/// artifact compatibility), shared `stamp` (git rev + UTC + full
/// `RunCfg`), and `pipeline` fields make the artifact self-describing
/// across PRs.
fn json_summary(
    workload: &str,
    m: &Measurement,
    nic_bytes: u64,
    run: &RunCfg,
    pipeline: &drtm_obs::PipelineStats,
    contention: &drtm_obs::ContentionStats,
) -> String {
    let attempts = (m.committed + m.aborted).max(1);
    let abort_rate = m.aborted as f64 / attempts as f64;
    let (mut p50, mut p99, mut n) = (0.0f64, 0.0f64, 0u64);
    for t in m.per_type.values() {
        p50 += t.p50_us * t.count as f64;
        p99 += t.p99_us * t.count as f64;
        n += t.count;
    }
    let c = n.max(1) as f64;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"rev\":\"{}\",\"routines\":{},",
            "\"stamp\":{},",
            "\"throughput\":{:.1},\"abort_rate\":{:.4},",
            "\"p50\":{:.2},\"p99\":{:.2},\"nic_bytes_per_txn\":{:.1},",
            "\"pipeline\":{{\"routines\":{},\"wait_ns\":{},\"overlap_ns\":{},",
            "\"hiding_ratio\":{:.4}}},",
            "\"contention\":{{\"policy\":\"{}\",\"pessimistic\":{},",
            "\"parks\":{},\"grants\":{}}}}}\n"
        ),
        workload,
        stamp::git_rev(),
        run.routines,
        stamp::stamp_json(Some(run)),
        m.throughput,
        abort_rate,
        p50 / c,
        p99 / c,
        nic_bytes as f64 / m.committed.max(1) as f64,
        pipeline.routines,
        pipeline.wait_ns,
        pipeline.overlap_ns,
        pipeline.hiding_ratio(),
        run.contention.label(),
        contention.pessimistic,
        contention.parks,
        contention.grants,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = "tpcc".to_string();
    let mut engine = EngineKind::DrtmR;
    let mut nodes = 2usize;
    let mut threads = 2usize;
    let mut replicas = 1usize;
    let mut cross: Option<f64> = None;
    let mut txns = 150usize;
    let mut routines = 1usize;
    let mut mix: Option<String> = None;
    let mut theta: Option<f64> = None;
    let mut records: Option<usize> = None;
    let mut msg_locking = false;
    let mut no_cache = false;
    let mut fuse = false;
    let mut no_value_cache = false;
    let mut raw = false;
    let mut json: Option<String> = None;

    let mut it = args.iter().peekable();
    let grab = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("missing argument value");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "tpcc" | "smallbank" | "ycsb" => workload = a.clone(),
            "--engine" => engine = parse_engine(&grab(&mut it)),
            "--nodes" => nodes = grab(&mut it).parse().expect("--nodes N"),
            "--threads" => threads = grab(&mut it).parse().expect("--threads T"),
            "--replicas" => replicas = grab(&mut it).parse().expect("--replicas R"),
            "--cross" => cross = Some(grab(&mut it).parse().expect("--cross P")),
            "--txns" => txns = grab(&mut it).parse().expect("--txns N"),
            "--routines" => routines = grab(&mut it).parse().expect("--routines R"),
            "--mix" => mix = Some(grab(&mut it)),
            "--theta" => theta = Some(grab(&mut it).parse().expect("--theta T")),
            "--records" => records = Some(grab(&mut it).parse().expect("--records N")),
            "--msg-locking" => msg_locking = true,
            "--no-cache" => no_cache = true,
            "--fuse" => fuse = true,
            "--no-value-cache" => no_value_cache = true,
            "--raw" => raw = true,
            "--json" => json = Some(grab(&mut it)),
            "--full" => {} // Handled by Scale::from_env.
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let scale = Scale::from_env();
    let run = RunCfg {
        engine,
        threads,
        replicas,
        txns_per_worker: txns,
        cross_override: if workload == "tpcc" { cross } else { None },
        msg_locking,
        no_location_cache: no_cache,
        fuse_lock_validate: fuse,
        routines,
        no_value_cache,
        ..Default::default()
    };

    if !raw {
        println!("workload\tengine\tnodes\tthreads\treplicas\tcross\tthroughput\tnew-order\taborts\tfallbacks");
    }
    let (m, no, cluster) = match workload.as_str() {
        "tpcc" => {
            let cfg = tpcc_cfg(scale, nodes, threads);
            let (cluster, calvin) = build_tpcc(&cfg, &run);
            let m = run_tpcc_on(&cfg, &run, &cluster, calvin.as_ref());
            let no = m.tps_of("new-order");
            (m, no, cluster)
        }
        "smallbank" => {
            let cfg = sb_cfg(scale, nodes, cross.unwrap_or(0.01));
            let (cluster, calvin) = build_smallbank(&cfg, &run);
            let m = run_smallbank_on(&cfg, &run, &cluster, calvin.as_ref());
            (m, 0.0, cluster)
        }
        _ => {
            // YCSB-only shape knobs (`--mix`, `--theta`, `--records`).
            let mut cfg = ycsb_cfg(scale, nodes, cross.unwrap_or(0.05));
            if let Some(m) = &mix {
                cfg.mix = match m.to_ascii_uppercase().as_str() {
                    "A" => drtm_workloads::ycsb::YcsbMix::A,
                    "B" => drtm_workloads::ycsb::YcsbMix::B,
                    "C" => drtm_workloads::ycsb::YcsbMix::C,
                    "F" => drtm_workloads::ycsb::YcsbMix::F,
                    other => {
                        eprintln!("unknown mix {other:?} (one of A, B, C, F)");
                        std::process::exit(2);
                    }
                };
            }
            if let Some(t) = theta {
                cfg.theta = t;
            }
            if let Some(r) = records {
                cfg.records = r;
            }
            let (cluster, calvin) = build_ycsb(&cfg, &run);
            let m = run_ycsb_on(&cfg, &run, &cluster, calvin.as_ref());
            (m, 0.0, cluster)
        }
    };
    if let Some(path) = &json {
        let snap = drtm_core::scrape_cluster(&cluster);
        let nic_bytes: u64 = snap.nic_bytes.iter().map(|&(_, b)| b).sum();
        std::fs::write(
            path,
            json_summary(
                &workload,
                &m,
                nic_bytes,
                &run,
                &snap.pipeline,
                &snap.contention,
            ),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    if raw {
        println!("{:.0}", m.throughput);
        return;
    }
    println!(
        "{workload}\t{engine:?}\t{nodes}\t{threads}\t{replicas}\t{}\t{}\t{}\t{}\t{}",
        cross.map_or("-".into(), |c| format!("{c}")),
        fmt_tps(m.throughput),
        if no > 0.0 { fmt_tps(no) } else { "-".into() },
        m.aborted,
        m.fallbacks,
    );
}
