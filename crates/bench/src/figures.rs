//! The paper's evaluation (§7) as run functions of
//! [`crate::experiment::EXPERIMENTS`]: Figures 10–20, Table 6, the
//! ablations and the YCSB grid.
//!
//! A figure's arms are its x-axis points (machines, threads, cross %,
//! lease length) and its metrics are its series, named as the paper
//! names them (`drtm+r`, `drtm+r=3`, `drtm`, `calvin`, `cross=1%`); a
//! replicated series carries the copy count actually configured. Each
//! entry's "paper shape" — what the curve should look like — is the
//! `about` line and the named checks of its table row; EXPERIMENTS.md
//! records paper vs. measured.

use std::fmt::Display;
use std::time::Duration;

use drtm_chaos::{run_smallbank_chaos, ChaosRunCfg, FaultPlan, RecoveryEvent, SupervisorCfg};
use drtm_core::cluster::{DrtmCluster, EngineOpts, LockTransport};
use drtm_core::scrape_cluster;
use drtm_workloads::driver::{self, run_tpcc, run_ycsb, EngineKind, Measurement, RunCfg};
use drtm_workloads::tpcc::{self, TpccCfg};
use drtm_workloads::ycsb::{YcsbCfg, YcsbMix};
use EngineKind::{Calvin, Drtm, DrtmR};

use crate::experiment::{closed_arm, Arm, Size};
use crate::{sb_cfg, tpcc_cfg};

type Arms = Result<Vec<Arm>, String>;

/// One arm per x-axis point, labelled by the point.
fn axis<T: Copy + Display>(xs: &[T], mut point: impl FnMut(T, &mut Arm)) -> Arms {
    let arm = |&x: &T| {
        let mut arm = Arm::new(x.to_string());
        point(x, &mut arm);
        arm
    };
    Ok(xs.iter().map(arm).collect())
}

/// One point of a TPC-C series: the run's new-order rate (the y-axis
/// of every TPC-C figure) under the series' name — the engine, and the
/// copies per record when there is more than one.
fn tpcc_point(arm: &mut Arm, run: &RunCfg, m: Measurement) -> Measurement {
    let engine = match run.engine {
        DrtmR => "drtm+r",
        Drtm => "drtm",
        Calvin => "calvin",
    };
    let series = match run.replicas {
        1 => engine.to_string(),
        copies => format!("{engine}={copies}"),
    };
    arm.push(series, "txn/s", m.tps_of("new-order"));
    m
}

/// Virtual delay the NIC budgets of `cluster` handed out — bytes and
/// verbs, every port — ns: how far past the link rate the offered load
/// went (0 while no NIC saturates).
fn nic_delay_ns(cluster: &DrtmCluster) -> f64 {
    let ports = (0..cluster.nodes()).map(|n| cluster.fabric.port(n));
    ports
        .map(|p| p.nic().delayed_ns() + p.nic_ops().delayed_ns())
        .sum::<u64>() as f64
}

/// Figure 10: machines sweep, one warehouse per worker thread.
pub fn fig10(size: Size) -> Arms {
    let scale = size.scale();
    let threads = scale.pick(8, 2);
    let machines: &[usize] = scale.pick(&[1, 2, 3, 4, 5, 6], &[1, 2, 3]);
    axis(machines, |n, arm| {
        let cfg = tpcc_cfg(scale, n, threads);
        let series = [(DrtmR, 1), (Drtm, 1), (Calvin, 1), (DrtmR, 3)];
        for (engine, replicas) in series.into_iter().filter(|s| s.1 <= n) {
            let run = size.run(engine, threads, replicas);
            tpcc_point(arm, &run, run_tpcc(&cfg, &run));
        }
    })
}

/// Figure 11: threads-per-machine sweep.
pub fn fig11(size: Size) -> Arms {
    let scale = size.scale();
    let nodes = scale.pick(6, 2);
    let threads: &[usize] = scale.pick(&[1, 2, 4, 8, 12, 16], &[1, 2, 4]);
    axis(threads, |t, arm| {
        let cfg = tpcc_cfg(scale, nodes, t);
        for (engine, replicas) in [(DrtmR, 1), (DrtmR, 3.min(nodes)), (Drtm, 1)] {
            let run = size.run(engine, t, replicas);
            tpcc_point(arm, &run, run_tpcc(&cfg, &run));
        }
    })
}

/// Figure 12: logical nodes of 4 workers, up to 4 to a machine.
/// Co-located nodes run the full RDMA protocol against each other and
/// share the machine's NIC: both of its budgets, bytes and verbs per
/// second, are divided by the co-location factor; `nic_delay_ns_per_txn`
/// says whether the shared budgets bind.
pub fn fig12(size: Size) -> Arms {
    let scale = size.scale();
    let logical: &[usize] = scale.pick(&[4, 8, 12, 16, 20, 24], &[2, 4, 6]);
    axis(logical, |n, arm| {
        let run = RunCfg {
            seed: 7,
            ..size.run(DrtmR, 4, 1)
        };
        let co = n.min(4) as f64;
        let (cluster, m) = driver::run(&tpcc_cfg(scale, n, 4), &run, |opts| {
            opts.cost.nic_bytes_per_sec /= co;
            opts.cost.nic_ops_per_sec /= co;
        });
        let delay = nic_delay_ns(&cluster) / m.committed.max(1) as f64;
        tpcc_point(arm, &run, m);
        arm.push("nic_delay_ns_per_txn", "ns", delay);
    })
}

/// Figures 13–16: SmallBank at 1 / 5 / 10 % cross-machine payments,
/// swept over machines or (`by_threads`) threads per machine. With
/// replication (Figures 15/16) each point also reports the NIC delay
/// per transaction over its three runs.
pub fn smallbank_fig(size: Size, by_threads: bool, replicas: usize) -> Arms {
    let scale = size.scale();
    let xs: &[usize] = match (by_threads, replicas) {
        (true, _) => scale.pick(&[1, 2, 4, 8, 12, 16], &[1, 2, 4]),
        (false, 1) => scale.pick(&[1, 2, 3, 4, 5, 6], &[1, 2, 3]),
        (false, _) => scale.pick(&[3, 4, 5, 6], &[3, 4]),
    };
    axis(xs, |x, arm| {
        let (nodes, threads) = match by_threads {
            true => (scale.pick(6, replicas.max(2)), x),
            false => (x, scale.pick(16, 2)),
        };
        let (mut delay, mut committed) = (0.0, 0);
        for cross in [1, 5, 10] {
            let cfg = sb_cfg(scale, nodes, f64::from(cross) / 100.0);
            let run = size.run(DrtmR, threads, replicas);
            let (cluster, m) = driver::run(&cfg, &run, |_| {});
            arm.push(format!("cross={cross}%"), "txn/s", m.throughput);
            delay += nic_delay_ns(&cluster);
            committed += m.committed;
        }
        if replicas > 1 {
            let per_txn = delay / committed.max(1) as f64;
            arm.push("nic_delay_ns_per_txn", "ns", per_txn);
        }
    })
}

/// Figure 17: cross-warehouse new-order probability sweep.
pub fn fig17(size: Size) -> Arms {
    let scale = size.scale();
    let (nodes, threads) = (scale.pick(6, 2), scale.pick(8, 2));
    let percents: &[u32] = scale.pick(&[1, 5, 10, 25, 50, 75, 100], &[1, 10, 50, 100]);
    axis(percents, |percent, arm| {
        let cfg = TpccCfg {
            cross_new_order: f64::from(percent) / 100.0,
            ..tpcc_cfg(scale, nodes, threads)
        };
        for (engine, replicas) in [(DrtmR, 1), (DrtmR, 3.min(nodes)), (Drtm, 1)] {
            let run = size.run(engine, threads, replicas);
            tpcc_point(arm, &run, run_tpcc(&cfg, &run));
        }
    })
}

/// Figure 18: high contention — every thread of a machine shares its
/// one warehouse.
pub fn fig18(size: Size) -> Arms {
    let scale = size.scale();
    let nodes = scale.pick(6, 2);
    let threads: &[usize] = scale.pick(&[1, 2, 4, 8, 10, 12, 16], &[1, 2, 4]);
    axis(threads, |t, arm| {
        let cfg = TpccCfg {
            warehouses_per_node: 1,
            ..tpcc_cfg(scale, nodes, t)
        };
        let [a, b] = [DrtmR, Drtm].map(|engine| {
            let run = size.run(engine, t, 1);
            tpcc_point(arm, &run, run_tpcc(&cfg, &run))
        });
        let aborts = a.aborted as f64 / a.committed.max(1) as f64;
        arm.push("drtm+r_aborts_per_commit", "ratio", aborts);
        let fallbacks = 100.0 * b.fallbacks as f64 / (b.committed + b.fallbacks).max(1) as f64;
        arm.push("drtm_fallback_pct", "%", fallbacks);
    })
}

/// Figure 19: database size (warehouses per machine) sweep.
pub fn fig19(size: Size) -> Arms {
    let scale = size.scale();
    let (nodes, threads) = (scale.pick(6, 2), scale.pick(8, 2));
    let warehouses: &[usize] = scale.pick(&[8, 16, 32, 48, 64], &[2, 4, 8]);
    axis(warehouses, |wh, arm| {
        let cfg = TpccCfg {
            nodes,
            warehouses_per_node: wh,
            customers: scale.pick(120, 32),
            items: scale.pick(2_000, 128),
            init_orders: scale.pick(10, 4),
            history_buckets: 1 << scale.pick(17, 13),
            ..Default::default()
        };
        for replicas in [1, 3.min(nodes)] {
            let run = size.run(DrtmR, threads, replicas);
            tpcc_point(arm, &run, run_tpcc(&cfg, &run));
        }
    })
}

/// YCSB A/B/C/F (zipfian 0.99, 5 % cross-machine) vs machines. Not a
/// paper figure: the neutral-ground grid of a transactional KV store.
pub fn ycsb(size: Size) -> Arms {
    let scale = size.scale();
    let run = RunCfg {
        threads: scale.pick(8, 2),
        txns_per_worker: size.n,
        ..Default::default()
    };
    let machines: &[usize] = scale.pick(&[1, 2, 4, 6], &[1, 2, 3]);
    axis(machines, |n, arm| {
        for mix in [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::F] {
            let cfg = YcsbCfg {
                nodes: n,
                records: scale.pick(100_000, 2_000),
                mix,
                ..Default::default()
            };
            arm.push(format!("{mix:?}"), "txn/s", run_ycsb(&cfg, &run).throughput);
        }
    })
}

/// Table 6: the cost of 3-way replication on the TPC-C standard mix —
/// throughput, per-type latency, per-commit-phase latency quantiles,
/// and what the backups hold when the run ends: image bytes per
/// backed-up record and redo bytes not yet folded in.
pub fn table6(size: Size) -> Arms {
    let scale = size.scale();
    let (nodes, threads) = (scale.pick(6, 3), scale.pick(8, 2));
    let cfg = tpcc_cfg(scale, nodes, threads);
    let phases = drtm_obs::Phase::ALL.map(|p| p.name());
    let quantiles = phases.map(|p| [format!("{p}_p50_us"), format!("{p}_p99_us")]);
    let quantiles: Vec<&str> = quantiles.iter().flatten().map(String::as_str).collect();
    let arms = [1, 3].map(|replicas| {
        let mut arm = Arm::new(format!("r{replicas}"));
        let run = size.run(DrtmR, threads, replicas);
        let (cluster, m) = driver::run(&cfg, &run, |_| {});
        arm.measured("", &m);
        arm.scraped("", &scrape_cluster(&cluster), &quantiles);
        let delay = nic_delay_ns(&cluster) / m.committed.max(1) as f64;
        arm.push("nic_delay_ns_per_txn", "ns", delay);
        let (records, image) = cluster.backups.footprint();
        arm.push("image_bytes_per_record", "B", image as f64 / records as f64);
        arm.push("unapplied_log_bytes", "B", cluster.logs.bytes() as f64);
        for t in tpcc::txns::TxnType::ALL {
            let Some(stats) = m.per_type.get(t.name()) else {
                continue;
            };
            let (name, t) = (t.name().replace('-', "_"), stats);
            for (stat, us) in [("mean", t.mean_us), ("p50", t.p50_us), ("p99", t.p99_us)] {
                arm.push(format!("{name}_{stat}_us"), "us", us);
            }
        }
        arm
    });
    Ok(arms.into())
}

/// The design decisions DESIGN.md calls out, one switched per arm, on
/// TPC-C with half the new-orders cross-warehouse so remote traffic
/// matters: the DrTM location cache (a remote lookup is a multi-READ
/// probe without it), the `IBV_ATOMIC_GLOB` fused lock+validate CAS
/// (§4.4 C.2 — one READ WR per remote read-set record in C.1's
/// doorbell, DESIGN.md §7), FaRM-style messaging for locks (round
/// trips, and the lock service's interrupts abort the host's HTM
/// regions), and the §6.4 pointer-swap local update.
pub fn ablations(size: Size) -> Arms {
    let scale = size.scale();
    let (nodes, threads) = (scale.pick(4, 2), scale.pick(4, 2));
    let cfg = TpccCfg {
        cross_new_order: 0.5,
        ..tpcc_cfg(scale, nodes, threads)
    };
    let run = size.run(DrtmR, threads, 1);
    let switched = |label, tweak: fn(&mut EngineOpts)| {
        let mut arm = Arm::new(label);
        closed_arm(&mut arm, "", &cfg, &run, tweak, &[]);
        arm
    };
    Ok(vec![
        switched("baseline", |_| {}),
        switched("no_location_cache", |o| o.use_location_cache = false),
        switched("glob", |o| o.locking = LockTransport::Glob),
        switched("msg_locking", |o| o.locking = LockTransport::Messages),
        switched("no_pointer_swap", |o| o.pointer_swap = false),
    ])
}

// ---- Figure 20: a machine failure under load ---------------------------

/// Zero-sum SmallBank payments (half of them cross-machine) on 3-way
/// replicated machines, `size.n` transactions per worker, under the
/// `drtm-chaos` supervisor with `lease_us` leases, all on the driver's
/// virtual clock. The last machine dies at C.5 — committed, every lock
/// still dangling — about 40 % into the run; the supervisor suspects it
/// when its lease drains and recovers it; then money and locks are
/// audited as a restart would.
///
/// Pushes the Figure 20 decomposition and the audit onto `arm` and
/// returns the timeline's three windows — before the crash, from the
/// crash until recovery finished (recovery takes no virtual time: until
/// the suspicion), from then until the last survivor ran out of work —
/// as (commits per virtual ms, length in virtual ms). Detection is
/// virtual time; configuration commit and rebuild are the recovery
/// pass's host time, which has no cost model.
fn failover(size: Size, lease_us: u64, arm: &mut Arm) -> [(f64, f64); 3] {
    let scale = size.scale();
    let cfg = ChaosRunCfg {
        nodes: scale.pick(6, 3),
        threads: scale.pick(4, 2),
        cross_prob: 0.5,
        txns_per_worker: size.n,
        supervisor: SupervisorCfg { lease_us },
        ..ChaosRunCfg::default()
    };
    let victim = cfg.nodes - 1;
    // The C.5 probe fires once per commit, remote writes or not.
    let hit = (size.n * cfg.threads * 2 / 5).max(1) as u64;
    let plan = FaultPlan::new(0xF1620 ^ lease_us).crash_at(victim, "C.5", hit);
    let out = run_smallbank_chaos(&cfg, plan);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let vms = |ns: u64| ns as f64 / 1e6;
    let event = out.events.first().filter(|e| e.dead == victim);
    let phase = |pick: fn(&RecoveryEvent) -> Duration| event.map_or(f64::NAN, |e| ms(pick(e)));
    let detect = phase(|e| e.detect.unwrap_or_default());
    let (config, rebuild) = (
        phase(|e| e.report.config_commit),
        phase(|e| e.report.rebuild),
    );
    let replayed = event.map_or(f64::NAN, |e| e.report.log_entries_replayed as f64);
    for (name, unit, value) in [
        ("lease_ms", "ms", lease_us as f64 / 1e3),
        ("detect_ms", "ms", detect),
        ("config_ms", "ms", config),
        ("rebuild_ms", "ms", rebuild),
        ("total_ms", "ms", detect + config + rebuild),
        ("replayed", "entry", replayed),
        ("recoveries", "event", out.events.len() as f64),
        ("audit_ok", "bool", f64::from(u8::from(out.audit_ok()))),
    ] {
        arm.push(name, unit, value);
    }

    let recovered = event.map(|e| e.suspected_at);
    let edges = [Some(out.started), out.crashed, recovered, out.finished];
    [0, 1, 2].map(|i| match (edges[i], edges[i + 1]) {
        (Some(from), Some(to)) if to > from => {
            let len = vms(to - from);
            (out.window_commits[i] as f64 / len, len)
        }
        _ => (f64::NAN, f64::NAN),
    })
}

/// Figure 20: the timeline's three windows as arms, the decomposition
/// on the outage, at the paper's 10 ms lease.
///
/// The default size keeps every window non-empty. A quick-shape slot
/// commits about r = 150 payments per virtual ms before the crash (905
/// a ms over six slots), the crash comes after 0.4 n of them, and the
/// suspicion at most a lease (10 ms) later. The survivors still have
/// work after it if their 0.6 n remaining payments outlast the lease
/// even at the full rate: 0.6 n > r x 10 ms, n > 2 500. At n = 4 000
/// they have 16 ms of work left, and more, since they all but stall
/// on the dead machine's dangling locks until the recovery sweeps
/// them.
pub fn recovery(size: Size) -> Arms {
    let mut outage = Arm::new("outage");
    let windows = failover(size, 10_000, &mut outage);
    let mut arms = vec![Arm::new("before"), outage, Arm::new("after")];
    for (arm, (rate, len)) in arms.iter_mut().zip(windows) {
        arm.push("commits_per_ms", "txn/ms", rate);
        arm.push("window_ms", "ms", len);
    }
    Ok(arms)
}

/// The Figure 20 decomposition swept over the paper's lease lengths
/// (ms): suspicion comes a lease after the dead machine's last grant, a
/// heartbeat at most before the crash; configuration commit and rebuild
/// do not depend on the lease. No window is read, so the size only has
/// to fire the crash: survivors that run out of work first leave the
/// supervisor to step virtual time on until the lease has drained.
pub fn lease(size: Size) -> Arms {
    axis(&[5, 10, 20, 50, 100], |lease_ms: u64, arm| {
        failover(size, lease_ms * 1_000, arm);
    })
}
