//! End-to-end chaos subsystem tests: injector determinism, crash-point
//! kills recovered purely through lease expiry, and invariant audits
//! under traffic faults.
//!
//! None of these tests calls `recover_node` — every recovery below is
//! triggered by the supervisor observing a genuinely expired lease.

use std::time::Duration;

use drtm_chaos::{
    run_smallbank_chaos, ChaosInjector, ChaosRunCfg, FaultPlan, NicFlap, Partition, SupervisorCfg,
};
use drtm_core::cluster::CrashPointHook;
use drtm_rdma::{FaultInjector, Verb};

/// The paper's 10 ms leases: the supervisor runs on the run's virtual
/// clock, so no host stall can get a healthy machine suspected.
fn test_supervisor() -> SupervisorCfg {
    SupervisorCfg { lease_us: 10_000 }
}

fn chatty_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_everywhere(40)
        .delay_everywhere(80, 5_000)
        .duplicate_everywhere(25, 256)
}

/// Drives every (src, dst, verb) stream `rounds` times in the given
/// nesting order, so per-stream sequences are identical regardless of
/// the interleaving across streams.
fn drive(
    inj: &ChaosInjector,
    nodes: usize,
    rounds: u64,
    verb_outer: bool,
) -> Vec<drtm_rdma::Fault> {
    let mut out = Vec::new();
    for i in 0..rounds {
        if verb_outer {
            for verb in Verb::ALL {
                for src in 0..nodes {
                    for dst in 0..nodes {
                        out.push(inj.on_verb(src, dst, verb, i * 1_000));
                    }
                }
            }
        } else {
            for src in 0..nodes {
                for dst in 0..nodes {
                    for verb in Verb::ALL {
                        out.push(inj.on_verb(src, dst, verb, i * 1_000));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn same_seed_and_plan_reproduce_same_decisions() {
    let plan = chatty_plan(0xFEED_FACE);
    let a = ChaosInjector::new(plan.clone(), 4);
    let b = ChaosInjector::new(plan.clone(), 4);
    let da = drive(&a, 4, 500, false);
    let db = drive(&b, 4, 500, false);
    assert_eq!(da, db, "same plan must reproduce identical decisions");
    assert!(
        a.faults_injected() > 0,
        "the plan must actually perturb something"
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.trace(), b.trace());
}

#[test]
fn fingerprint_is_interleaving_independent_but_seed_sensitive() {
    let plan = chatty_plan(0xABCD);
    let a = ChaosInjector::new(plan.clone(), 3);
    let b = ChaosInjector::new(plan.clone(), 3);
    // Same per-stream sequences, different global interleaving.
    drive(&a, 3, 400, false);
    drive(&b, 3, 400, true);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "digest must not depend on cross-stream ordering"
    );
    let c = ChaosInjector::new(chatty_plan(0xABCE), 3);
    drive(&c, 3, 400, false);
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "a different seed must produce a different schedule"
    );
}

#[test]
fn crash_spec_counts_passages_and_fires_once() {
    let plan = FaultPlan::new(7).crash_at(1, "C.4", 3);
    let inj = ChaosInjector::new(plan, 2);
    assert!(!inj.on_point(1, "C.4", 100), "passage 1 survives");
    assert!(!inj.on_point(0, "C.4", 200), "other nodes unaffected");
    assert!(!inj.on_point(1, "C.5", 300), "other points unaffected");
    assert!(!inj.on_point(1, "C.4", 400), "passage 2 survives");
    assert!(inj.on_point(1, "C.4", 500), "passage 3 fires");
    assert_eq!(inj.crashes_fired(), 1);
    assert_eq!(
        inj.crash_instant(1),
        Some(500),
        "stamped on the prober's clock"
    );
    assert!(inj.crash_instant(0).is_none());
}

/// A point no probe ever names (here `C.3`: C.3+C.4 are one HTM region)
/// is rejected when the plan is built, not silently never fired; every
/// name the stage table lists — and `R.3` — is accepted.
#[test]
#[should_panic(expected = "unknown crash point \"C.3\"; valid points: [\"C.1\", \"C.2\", \"C.4\"")]
fn misspelt_crash_point_is_rejected_at_plan_build() {
    let mut plan = FaultPlan::new(7);
    for (point, _) in drtm_chaos::CRASH_POINTS {
        plan = plan.crash_at(1, point, 1);
    }
    assert_eq!(plan.crashes.len(), 8);
    let _ = plan.crash_at(1, "C.3", 1);
}

#[test]
fn crash_at_c4_recovers_through_lease_expiry() {
    let cfg = ChaosRunCfg {
        supervisor: test_supervisor(),
        ..ChaosRunCfg::default()
    };
    // Kill machine 2 the 5th time one of its transactions finishes the
    // HTM apply (C.4): local writes are odd and nothing is logged.
    let plan = FaultPlan::new(42).crash_at(2, "C.4", 5);
    let out = run_smallbank_chaos(&cfg, plan);
    assert_eq!(out.crashes_fired, 1);
    assert!(
        out.crashed_workers >= 1,
        "a worker on the victim saw the crash"
    );
    assert!(out.committed > 0, "survivors kept committing");
    assert_eq!(out.events.len(), 1, "exactly one lease-driven recovery");
    let ev = &out.events[0];
    assert_eq!(ev.dead, 2);
    assert!(!ev.report.repeat);
    assert!(ev.report.new_home.is_some(), "shard re-homed to a survivor");
    let detect = ev.detect.expect("injector knows the crash instant");
    assert!(
        detect >= Duration::from_millis(1),
        "suspicion cannot precede the lease draining ({detect:?})"
    );
    assert!(
        out.audit_ok(),
        "money conserved and no stale locks: total {} vs {}, stale {}",
        out.final_total,
        out.initial_total,
        out.stale_locks
    );
}

#[test]
fn crashes_between_c4_and_c6_conserve_money() {
    // The acceptance window: the victim dies after its writes became
    // durable-or-applied but before unlocking — R.1 (logs durable,
    // nothing visible remotely), R.2 (local primaries even), C.5
    // (remote primaries written, all locks still dangling).
    for (point, seed) in [("R.1", 101u64), ("R.2", 202), ("C.5", 303)] {
        let cfg = ChaosRunCfg {
            cross_prob: 0.5,
            supervisor: test_supervisor(),
            ..ChaosRunCfg::default()
        };
        let plan = FaultPlan::new(seed).crash_at(1, point, 4);
        let out = run_smallbank_chaos(&cfg, plan);
        assert_eq!(out.crashes_fired, 1, "{point}: crash fired");
        assert_eq!(out.events.len(), 1, "{point}: one recovery");
        assert_eq!(out.events[0].dead, 1, "{point}");
        assert!(
            out.audit_ok(),
            "{point}: total {} vs {}, stale locks {}",
            out.final_total,
            out.initial_total,
            out.stale_locks
        );
    }
}

#[test]
fn delayed_verbs_with_routines_conserve() {
    // Multi-routine workers under heavy injected delays: batches posted
    // first can complete last, so the scheduler wakes routines out of
    // posting order. Conservation must not depend on wake order.
    for routines in [2usize, 4, 8] {
        let cfg = ChaosRunCfg {
            cross_prob: 0.5,
            supervisor: test_supervisor(),
            txns_per_worker: 120,
            routines,
            ..ChaosRunCfg::default()
        };
        let plan = FaultPlan::new(0x0DD + routines as u64).delay_everywhere(250, 50_000);
        let out = run_smallbank_chaos(&cfg, plan);
        assert!(out.committed > 0, "routines={routines}");
        assert!(out.faults_injected > 0, "routines={routines}: delays hit");
        assert_eq!(out.crashes_fired, 0, "routines={routines}");
        assert!(
            out.events.is_empty(),
            "routines={routines}: delays must not look like death"
        );
        assert!(
            out.audit_ok(),
            "routines={routines}: total {} vs {}, stale locks {}",
            out.final_total,
            out.initial_total,
            out.stale_locks
        );
    }
}

#[test]
fn crash_at_yield_boundary_with_routines_recovers() {
    // The victim dies at C.5 — a phase that ends at a yield point, so
    // sibling routines of the same pool are parked mid-transaction when
    // the machine vanishes. Recovery and the audit must still hold, and
    // the surviving pools must drain without deadlock.
    let cfg = ChaosRunCfg {
        cross_prob: 0.5,
        supervisor: test_supervisor(),
        txns_per_worker: 120,
        routines: 4,
        ..ChaosRunCfg::default()
    };
    let plan = FaultPlan::new(404)
        .delay_everywhere(120, 20_000)
        .crash_at(1, "C.5", 4);
    let out = run_smallbank_chaos(&cfg, plan);
    assert_eq!(out.crashes_fired, 1);
    assert_eq!(out.events.len(), 1, "one lease-driven recovery");
    assert_eq!(out.events[0].dead, 1);
    assert!(out.committed > 0, "survivors kept committing");
    assert!(
        out.audit_ok(),
        "total {} vs {}, stale locks {}",
        out.final_total,
        out.initial_total,
        out.stale_locks
    );
}

#[test]
fn crash_with_waiters_parked_on_victims_keys_recovers() {
    // Contention ladder under fire (DESIGN.md §15): a tiny hot account
    // set plus `escalate` guarantees routines escalate to rung 2 and
    // wait for locks' releases. The victim dies at C.5 with its write
    // locks still dangling, so any waiter on one of its keys sees no
    // release from it — the holder's C.6 never runs. The waiters must
    // drain through recovery's lock sweep or the `PARK_SPIN_CAP`
    // liveness bound, the pool must not deadlock, and the sweep must
    // still leave zero stale locks and conserved money.
    let cfg = ChaosRunCfg {
        accounts: 20,
        cross_prob: 0.5,
        supervisor: test_supervisor(),
        txns_per_worker: 120,
        routines: 4,
        contention: drtm_core::ContentionPolicy::Escalate,
        ..ChaosRunCfg::default()
    };
    let plan = FaultPlan::new(515)
        .delay_everywhere(120, 20_000)
        .crash_at(1, "C.5", 4);
    let out = run_smallbank_chaos(&cfg, plan);
    assert_eq!(out.crashes_fired, 1);
    assert_eq!(out.events.len(), 1, "one lease-driven recovery");
    assert_eq!(out.events[0].dead, 1);
    assert!(out.committed > 0, "survivors kept committing");
    assert!(
        out.audit_ok(),
        "total {} vs {}, stale locks {}",
        out.final_total,
        out.initial_total,
        out.stale_locks
    );
}

#[test]
fn crash_at_c5_splits_commits_into_the_timeline() {
    // Figure 20's run shape at test size: the last machine dies at C.5
    // 40 % into the run. Every commit lands in one of the three windows,
    // survivors commit before the crash and after the recovery, and the
    // timeline's virtual edges are in order. A slot commits about 150
    // payments a virtual ms, so the crash comes near 11 ms and the
    // survivors' remaining 2 400 outlast the 10 ms lease.
    let cfg = ChaosRunCfg {
        cross_prob: 0.5,
        supervisor: test_supervisor(),
        txns_per_worker: 4_000,
        ..ChaosRunCfg::default()
    };
    let victim = cfg.nodes - 1;
    let hit = (cfg.txns_per_worker * cfg.threads * 2 / 5) as u64;
    let out = run_smallbank_chaos(&cfg, FaultPlan::new(0xF20).crash_at(victim, "C.5", hit));
    assert_eq!(out.crashes_fired, 1);
    assert_eq!(out.events.len(), 1, "one lease-driven recovery");
    assert_eq!(out.events[0].dead, victim);
    assert_eq!(out.window_commits.iter().sum::<u64>(), out.committed);
    let [before, _, after] = out.window_commits;
    assert!(before > 0 && after > 0, "{:?}", out.window_commits);
    let crashed = out.crashed.expect("the crash instant is known");
    let finished = out.finished.expect("survivors ran out of work");
    assert!(out.started < crashed && crashed < out.events[0].suspected_at);
    assert!(out.events[0].suspected_at < finished);
    assert!(
        out.audit_ok(),
        "total {} vs {}, stale locks {}",
        out.final_total,
        out.initial_total,
        out.stale_locks
    );
}

/// A chaos failure replays from its seed: the supervisor, the crash
/// stamps and the workers all step on the driver's one virtual clock,
/// so two runs of one configuration and plan — a C.5 crash under drops
/// and delays, four routines a slot — agree in every count, in the
/// fault digest, in the money, and in each recovery's epoch, suspicion
/// time and detection latency.
#[test]
fn a_chaos_failure_replays_from_its_seed() {
    let cfg = ChaosRunCfg {
        cross_prob: 0.5,
        supervisor: test_supervisor(),
        txns_per_worker: 2_000,
        routines: 4,
        ..ChaosRunCfg::default()
    };
    let plan = FaultPlan::new(0x5EED)
        .drop_everywhere(20)
        .delay_everywhere(80, 10_000)
        .crash_at(1, "C.5", 1_200);
    let runs = [(); 2].map(|()| run_smallbank_chaos(&cfg, plan.clone()));
    let [a, b] = &runs;
    assert_eq!(a.crashes_fired, 1);
    assert_eq!(a.events.len(), 1, "one lease-driven recovery");
    assert!(a.faults_injected > 0 && a.window_commits.iter().all(|&w| w > 0));
    assert!(
        a.audit_ok(),
        "total {} vs {}",
        a.final_total,
        a.initial_total
    );
    let key = |o: &drtm_chaos::ChaosOutcome| {
        let events = o.events.iter();
        let events = events.map(|e| (e.dead, e.report.epoch, e.suspected_at, e.detect));
        (
            (o.committed, o.aborted, o.window_commits),
            (o.fingerprint, o.final_total),
            events.collect::<Vec<_>>(),
        )
    };
    assert_eq!(key(a), key(b));
}

#[test]
fn traffic_faults_alone_never_trigger_recovery() {
    let cfg = ChaosRunCfg {
        supervisor: test_supervisor(),
        txns_per_worker: 150,
        ..ChaosRunCfg::default()
    };
    let out = run_smallbank_chaos(&cfg, chatty_plan(0xD00D));
    assert!(out.faults_injected > 0, "plan perturbed traffic");
    assert!(out.committed > 0);
    assert_eq!(out.crashes_fired, 0);
    assert!(
        out.events.is_empty(),
        "drops/delays/dups must not look like machine death"
    );
    assert!(out.audit_ok());
}

#[test]
fn partition_and_nic_flap_windows_conserve() {
    let cfg = ChaosRunCfg {
        cross_prob: 0.4,
        supervisor: test_supervisor(),
        txns_per_worker: 150,
        ..ChaosRunCfg::default()
    };
    // Cut {0} | {1, 2} early in virtual time, then flap machine 1's
    // NIC. RC semantics: one-sided verbs stall and retransmit, SENDs
    // are lost (truncation lag only — redo appends survive, so no
    // committed update can disappear).
    let plan = FaultPlan::new(77)
        .partition(Partition {
            group: vec![0],
            from_ns: 0,
            until_ns: 3_000_000,
            stall_ns: 20_000,
        })
        .flap(NicFlap {
            node: 1,
            from_ns: 4_000_000,
            until_ns: 6_000_000,
            stall_ns: 15_000,
        });
    let out = run_smallbank_chaos(&cfg, plan);
    assert!(out.committed > 0);
    assert!(out.faults_injected > 0, "windows perturbed traffic");
    assert!(out.events.is_empty(), "no machine died");
    assert!(out.audit_ok());
}

#[test]
fn repeated_detection_of_same_death_recovers_once() {
    // Two crash specs on different machines: the supervisor must
    // recover each exactly once, never re-recover, and the audit must
    // hold across correlated failures (3-way replication keeps a copy
    // alive with two machines gone out of four).
    let cfg = ChaosRunCfg {
        nodes: 4,
        supervisor: test_supervisor(),
        txns_per_worker: 250,
        ..ChaosRunCfg::default()
    };
    let plan = FaultPlan::new(9)
        .crash_at(3, "C.4", 4)
        .crash_at(1, "C.5", 30);
    let out = run_smallbank_chaos(&cfg, plan);
    assert_eq!(out.crashes_fired, 2);
    assert_eq!(out.events.len(), 2, "one recovery per dead machine");
    let mut dead: Vec<_> = out.events.iter().map(|e| e.dead).collect();
    dead.sort_unstable();
    assert_eq!(dead, vec![1, 3]);
    assert!(out.events.iter().all(|e| !e.report.repeat));
    assert!(
        out.audit_ok(),
        "total {} vs {}, stale locks {}",
        out.final_total,
        out.initial_total,
        out.stale_locks
    );
}

#[test]
fn lease_driven_recovery_rehomes_a_survivors_remote_reads() {
    // A survivor that read a machine's records before the machine died
    // reads the same values after lease-driven recovery, through the
    // shard's new home: its location caches still name offsets on the
    // dead machine, and none of them may leak into the new shard map.
    use std::sync::Arc;

    use drtm_core::cluster::{DrtmCluster, EngineOpts};
    use drtm_store::TableSpec;

    const T: u32 = 0;
    let key = |shard: usize, k: u64| (shard as u64) << 32 | k;
    let val = |x: u64| {
        let mut v = vec![0u8; 16];
        v[..8].copy_from_slice(&x.to_le_bytes());
        v
    };
    let opts = EngineOpts::builder()
        .replicas(2)
        .region_size(2 << 20)
        .build();
    let cluster = DrtmCluster::new(3, &[TableSpec::hash(T, 1024, 16)], opts);
    for shard in 0..3usize {
        for k in 0..4u64 {
            cluster.seed_record(shard, T, key(shard, k), &val(100 + k));
        }
    }
    let injector = Arc::new(ChaosInjector::new(
        FaultPlan::new(11).crash_at(2, "C.4", 1),
        3,
    ));
    cluster.fabric.set_injector(Arc::clone(&injector) as _);
    cluster.set_crash_hook(Arc::clone(&injector) as _);
    let sup =
        drtm_chaos::Supervisor::start(&cluster, test_supervisor(), Some(Arc::clone(&injector)));

    // A survivor on machine 0 reads (and locates) records on machines 1
    // and 2.
    let mut w = cluster.worker(0, 5);
    for shard in [1usize, 2] {
        for k in 0..4u64 {
            assert_eq!(
                w.run_ro(|t| t.read(shard, T, key(shard, k))).unwrap(),
                val(100 + k)
            );
        }
    }

    // Machine 2 dies mid-commit (C.4) on its next local transaction.
    let mut victim = cluster.worker(2, 6);
    let _ = victim.run(|t| {
        let v = t.read(2, T, key(2, 0))?;
        t.write(2, T, key(2, 0), v)
    });
    assert_eq!(injector.crashes_fired(), 1);
    // Step the supervisor's virtual clock on until the victim's lease
    // has drained and it is recovered.
    let events = sup.finish();
    assert_eq!(
        events.len(),
        1,
        "supervisor must recover the victim through lease expiry"
    );
    assert_eq!(events[0].dead, 2);

    // The survivor's next transactions begin under the bumped epoch,
    // and the re-homed shard serves the seeded values.
    for k in 0..4u64 {
        assert_eq!(
            w.run_ro(|t| t.read(2, T, key(2, k))).unwrap(),
            val(100 + k),
            "post-recovery read through the new shard map"
        );
    }
    cluster.fabric.clear_injector();
    cluster.clear_crash_hook();
}
