//! Workload smoke tests: every engine runs both workloads correctly.

use crate::audit;
use crate::driver::{run_smallbank, run_tpcc, EngineKind, RunCfg};
use crate::smallbank::SbCfg;
use crate::tpcc::TpccCfg;

fn quick_tpcc(nodes: usize) -> TpccCfg {
    TpccCfg {
        nodes,
        warehouses_per_node: 1,
        customers: 32,
        items: 64,
        init_orders: 6,
        history_buckets: 1 << 12,
        ..Default::default()
    }
}

fn quick_run(engine: EngineKind, threads: usize, txns: usize) -> RunCfg {
    RunCfg {
        engine,
        threads,
        txns_per_worker: txns,
        ..Default::default()
    }
}

#[test]
fn tpcc_on_drtm_r_passes_audit() {
    let cfg = quick_tpcc(2);
    let run = quick_run(EngineKind::DrtmR, 2, 60);
    let (cluster, _) = crate::driver::build_tpcc(&cfg, &run);
    let m = crate::driver::run_tpcc_on(&cfg, &run, &cluster, None);
    assert!(m.committed > 0);
    assert!(m.throughput > 0.0);
    assert!(
        m.per_type.contains_key("new-order"),
        "mix must include new-orders"
    );
    let violations = audit::tpcc_audit(&cluster, &cfg);
    assert!(violations.is_empty(), "audit failed: {violations:?}");
}

/// Per-type aborts add up: on TPC-C at 8 routines a slot, where
/// sibling routines collide on their warehouse's district rows, the
/// failed attempts counted per type sum to the run's total, and the two
/// district writers, new-order and payment, both abort.
#[test]
fn tpcc_per_type_aborts_sum_to_the_total() {
    let cfg = quick_tpcc(2);
    let run = RunCfg {
        routines: 8,
        ..quick_run(EngineKind::DrtmR, 1, 400)
    };
    let m = crate::driver::run_tpcc(&cfg, &run);
    let per_type: u64 = m.per_type.values().map(|t| t.aborted).sum();
    assert_eq!(per_type, m.aborted, "{:?}", m.per_type);
    for name in ["new-order", "payment"] {
        assert!(
            m.per_type[name].aborted > 0,
            "{name}: {:?}",
            m.per_type[name]
        );
    }
}

#[test]
fn tpcc_on_drtm_r_with_replication_passes_audit() {
    let cfg = quick_tpcc(3);
    let run = RunCfg {
        replicas: 3,
        ..quick_run(EngineKind::DrtmR, 1, 40)
    };
    let (cluster, _) = crate::driver::build_tpcc(&cfg, &run);
    let m = crate::driver::run_tpcc_on(&cfg, &run, &cluster, None);
    assert!(m.committed > 0);
    let violations = audit::tpcc_audit(&cluster, &cfg);
    assert!(violations.is_empty(), "audit failed: {violations:?}");
}

#[test]
fn tpcc_on_drtm_baseline_passes_audit() {
    let cfg = quick_tpcc(2);
    let run = quick_run(EngineKind::Drtm, 1, 40);
    let (cluster, _) = crate::driver::build_tpcc(&cfg, &run);
    let m = crate::driver::run_tpcc_on(&cfg, &run, &cluster, None);
    assert!(m.committed > 0);
    let violations = audit::tpcc_audit(&cluster, &cfg);
    assert!(violations.is_empty(), "audit failed: {violations:?}");
}

#[test]
fn tpcc_on_calvin_passes_audit() {
    let cfg = quick_tpcc(2);
    let run = quick_run(EngineKind::Calvin, 1, 30);
    let (cluster, calvin) = crate::driver::build_tpcc(&cfg, &run);
    let m = crate::driver::run_tpcc_on(&cfg, &run, &cluster, calvin.as_ref());
    assert!(m.committed > 0);
    let violations = audit::tpcc_audit(&cluster, &cfg);
    assert!(violations.is_empty(), "audit failed: {violations:?}");
}

/// Every engine keeps one ledger: a baseline run's commits, aborts and
/// fallbacks reach the cluster's metrics registry exactly as the
/// driver counts them.
#[test]
fn baseline_runs_fill_the_metrics_registry() {
    let cfg = quick_tpcc(2);
    for engine in [EngineKind::Drtm, EngineKind::Calvin] {
        let run = quick_run(engine, 2, 40);
        let (cluster, calvin) = crate::driver::build_tpcc(&cfg, &run);
        let m = crate::driver::run_tpcc_on(&cfg, &run, &cluster, calvin.as_ref());
        let snap = drtm_core::obs_bridge::scrape_cluster(&cluster);
        assert!(m.committed > 0, "{engine:?}");
        assert_eq!(
            (snap.committed, snap.aborted, snap.fallbacks),
            (m.committed, m.aborted, m.fallbacks),
            "{engine:?}"
        );
    }
}

#[test]
fn smallbank_runs_on_all_distributed_engines() {
    let cfg = SbCfg {
        nodes: 2,
        accounts: 500,
        cross_prob: 0.2,
        ..Default::default()
    };
    for engine in [EngineKind::DrtmR, EngineKind::Drtm, EngineKind::Calvin] {
        let m = run_smallbank(&cfg, &quick_run(engine, 1, 50));
        assert!(m.committed > 0, "{engine:?} committed nothing");
    }
}

#[test]
fn smallbank_money_is_conserved_under_conserving_mix() {
    // Only send-payment conserves; force it by generating SP inputs
    // directly through the worker API.
    use crate::smallbank::{self, SbInput, SbTxn};
    use drtm_core::RoutinePool;
    let cfg = SbCfg {
        nodes: 2,
        accounts: 200,
        cross_prob: 0.3,
        ..Default::default()
    };
    let run = quick_run(EngineKind::DrtmR, 1, 0);
    let (cluster, _) = crate::driver::build_smallbank(&cfg, &run);
    let initial = audit::smallbank_total(&cluster, &cfg);
    assert_eq!(initial, smallbank::initial_total(&cfg));

    // One worker per machine, each a pool of one on the one loop.
    let pools = (0..2).map(|node| vec![cluster.worker(node, node as u64 + 77)]);
    RoutinePool::run_many(
        pools.collect(),
        |_| {},
        async |node, _, w| {
            let mut rng = drtm_base::SplitMix64::new(node as u64);
            for _ in 0..100 {
                let a = (node, cfg.pick_account(&mut rng, node));
                let second = cfg.pick_second_shard(&mut rng, node);
                let b = (second, cfg.pick_account(&mut rng, second));
                if b == a {
                    continue;
                }
                let inp = SbInput {
                    txn: SbTxn::SendPayment,
                    a,
                    b,
                    amount: rng.range(1, 50),
                };
                let _ = w
                    .run_async(async |t| smallbank::execute(t, &inp).await)
                    .await;
            }
        },
    );
    assert_eq!(
        audit::smallbank_total(&cluster, &cfg),
        initial,
        "money leaked"
    );
}

/// Delays every `k`-th one-sided verb so completions arrive out of
/// posting order and routines wake in a different order than they
/// yielded.
struct EveryKthDelay {
    k: u64,
    delay_ns: u64,
    seen: std::sync::atomic::AtomicU64,
}

impl drtm_rdma::FaultInjector for EveryKthDelay {
    fn on_verb(
        &self,
        _src: drtm_rdma::NodeId,
        _dst: drtm_rdma::NodeId,
        verb: drtm_rdma::Verb,
        _now: u64,
    ) -> drtm_rdma::Fault {
        if verb == drtm_rdma::Verb::Send {
            return drtm_rdma::Fault::NONE;
        }
        let n = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        drtm_rdma::Fault {
            delay_ns: if n.is_multiple_of(self.k) {
                self.delay_ns
            } else {
                0
            },
            ..drtm_rdma::Fault::NONE
        }
    }
}

/// SmallBank send-payments conserve money when every worker slot
/// multiplexes R ∈ {2, 4, 8} routines and the fabric delays verbs out
/// of order: serializability must not depend on routine wake order.
#[test]
fn smallbank_send_payments_conserve_with_routines() {
    use crate::smallbank::{self, SbInput, SbTxn};
    use drtm_core::RoutinePool;
    use std::sync::Arc;
    for routines in [2usize, 4, 8] {
        let cfg = SbCfg {
            nodes: 2,
            accounts: 120,
            cross_prob: 0.4,
            ..Default::default()
        };
        let run = RunCfg {
            routines,
            ..quick_run(EngineKind::DrtmR, 1, 0)
        };
        let (cluster, _) = crate::driver::build_smallbank(&cfg, &run);
        let initial = audit::smallbank_total(&cluster, &cfg);
        cluster.fabric.set_injector(Arc::new(EveryKthDelay {
            k: 4,
            delay_ns: 30_000,
            seen: std::sync::atomic::AtomicU64::new(0),
        }));
        let pools = (0..2usize).map(|node| {
            let worker = |id| cluster.worker(node, (node * 8 + id) as u64 + 77);
            (0..routines).map(worker).collect()
        });
        RoutinePool::run_many(
            pools.collect(),
            |_| {},
            async |node, id, w| {
                let mut rng = drtm_base::SplitMix64::new((node * 8 + id) as u64);
                for _ in 0..25 {
                    let a = (node, cfg.pick_account(&mut rng, node));
                    let second = cfg.pick_second_shard(&mut rng, node);
                    let b = (second, cfg.pick_account(&mut rng, second));
                    if b == a {
                        continue;
                    }
                    let inp = SbInput {
                        txn: SbTxn::SendPayment,
                        a,
                        b,
                        amount: rng.range(1, 50),
                    };
                    let _ = w
                        .run_async(async |t| smallbank::execute(t, &inp).await)
                        .await;
                }
            },
        );
        assert_eq!(
            audit::smallbank_total(&cluster, &cfg),
            initial,
            "money leaked at routines={routines}"
        );
    }
}

/// Stress, then audit: three machines, one worker slot each, eight
/// routines a slot, the `escalate` ladder on, and a zero-sum SmallBank
/// mix (send-payment, amalgamate, balance) whose accounts land on any
/// machine — half of the two-account transactions cross machines, and
/// where both accounts are remote and on different machines the commit
/// locks, writes and unlocks two machines in one park each. All slots
/// start from the drive loop's startup barrier. Afterwards the books
/// balance twice: money is conserved, and every attempt — each time a
/// body began — ended as exactly one of commit, abort or user abort.
#[test]
fn smallbank_zero_sum_stress_balances_money_and_attempts() {
    use crate::smallbank::{self, SbInput, SbTxn};
    use drtm_core::{ContentionPolicy, RoutinePool};
    use std::cell::Cell;
    let cfg = SbCfg {
        nodes: 3,
        accounts: 40,
        cross_prob: 0.5,
        ..Default::default()
    };
    let run = RunCfg {
        routines: 8,
        contention: ContentionPolicy::Escalate,
        ..quick_run(EngineKind::DrtmR, 1, 0)
    };
    let (cluster, _) = crate::driver::build_smallbank(&cfg, &run);
    let initial = audit::smallbank_total(&cluster, &cfg);
    let attempts = Cell::new(0u64);
    let pools = (0..cfg.nodes).map(|node| {
        let worker = |id| cluster.worker(node, (node * 8 + id) as u64 + 31);
        (0..run.routines).map(worker).collect()
    });
    let done = RoutinePool::run_many(
        pools.collect(),
        |_| {},
        async |node, id, w| {
            let mut rng = drtm_base::SplitMix64::new((node * 8 + id) as u64 + 5);
            let mut failed = 0u64;
            for _ in 0..40 {
                let first = rng.below(cfg.nodes as u64) as usize;
                let a = (first, cfg.pick_account(&mut rng, first));
                let second = cfg.pick_second_shard(&mut rng, first);
                let b = (second, cfg.pick_account(&mut rng, second));
                if b == a {
                    continue;
                }
                let txn =
                    [SbTxn::SendPayment, SbTxn::Amalgamate, SbTxn::Balance][rng.below(3) as usize];
                let inp = SbInput {
                    txn,
                    a,
                    b,
                    amount: rng.range(1, 50),
                };
                let body = async |t: &mut drtm_core::TxnCtx<'_>| {
                    attempts.set(attempts.get() + 1);
                    smallbank::execute(t, &inp).await
                };
                let out = match txn.read_only() {
                    true => w.run_ro_async(body).await,
                    false => w.run_async(body).await,
                };
                failed += u64::from(!matches!(out, Ok(()) | Err(drtm_core::TxnError::UserAbort)));
            }
            failed
        },
    );
    let ended = |w: &drtm_core::Worker| w.stats.committed + w.stats.aborted + w.stats.user_aborts;
    let (ended, failed) = (done.iter().flatten())
        .map(|(w, failed)| (ended(w), *failed))
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    assert_eq!(failed, 0, "every request commits or rolls itself back");
    assert_eq!(
        attempts.get(),
        ended,
        "attempts = commits + aborts + user aborts"
    );
    assert_eq!(
        audit::smallbank_total(&cluster, &cfg),
        initial,
        "money leaked"
    );
}

/// Send-payments between hot SmallBank accounts as a driver
/// [`Workload`](crate::driver::Workload) that watches its own bodies:
/// each attempt is counted with the thread it ran on, and each user
/// abort (insufficient funds) is counted too.
struct WatchedPayments<'a> {
    sb: &'a SbCfg,
    attempts: std::cell::Cell<u64>,
    user_aborts: std::cell::Cell<u64>,
    threads: std::cell::RefCell<std::collections::HashSet<std::thread::ThreadId>>,
}

impl crate::driver::Workload for WatchedPayments<'_> {
    const SLOT_SALT: u64 = 0x5107;
    const GEN_SALT: u64 = 0x9A7;
    type Gen = (drtm_base::SplitMix64, usize);
    type Input = crate::smallbank::SbInput;

    fn nodes(&self) -> usize {
        self.sb.nodes
    }
    fn schema(&self) -> Vec<drtm_store::TableSpec> {
        self.sb.schema()
    }
    fn region_size(&self, _run: &RunCfg) -> usize {
        self.sb.region_size()
    }
    fn load(&self, cluster: &drtm_core::DrtmCluster) {
        crate::smallbank::load(cluster, self.sb)
    }
    fn generator(
        &self,
        node: usize,
        _tid: usize,
        _id: usize,
        rng: drtm_base::SplitMix64,
    ) -> Self::Gen {
        (rng, node)
    }
    fn next(&self, (rng, node): &mut Self::Gen, _i: u64) -> (&'static str, bool, Self::Input) {
        let inp = crate::smallbank::SbInput {
            txn: crate::smallbank::SbTxn::SendPayment,
            ..crate::smallbank::gen(self.sb, rng, *node)
        };
        ("send-payment", false, inp)
    }
    async fn execute(
        &self,
        t: &mut dyn crate::engine::TxnApi,
        inp: &Self::Input,
    ) -> Result<(), drtm_core::TxnError> {
        self.attempts.set(self.attempts.get() + 1);
        self.threads
            .borrow_mut()
            .insert(std::thread::current().id());
        let out = crate::smallbank::execute(t, inp).await;
        if out == Err(drtm_core::TxnError::UserAbort) {
            self.user_aborts.set(self.user_aborts.get() + 1);
        }
        out
    }
}

/// Cross-slot lock waits resolve on one thread: hot-account SmallBank
/// send-payments on 2 machines x 2 worker slots of one routine each,
/// under `escalate`, so every lock wait (a rung-2 park) waits on a lock
/// another slot holds. Every body runs on the caller's thread — no slot
/// thread exists to hand the holder a core — yet the waits end: some
/// routine parks, every attempt ends as exactly one commit, abort or
/// user abort, and money is conserved.
#[test]
fn cross_slot_lock_waits_resolve_on_the_callers_thread() {
    use drtm_core::ContentionPolicy;
    let sb = SbCfg {
        nodes: 2,
        accounts: 16,
        hot_fraction: 0.25,
        hot_prob: 0.95,
        cross_prob: 0.5,
    };
    let wl = WatchedPayments {
        sb: &sb,
        attempts: Default::default(),
        user_aborts: Default::default(),
        threads: Default::default(),
    };
    let run = RunCfg {
        contention: ContentionPolicy::Escalate,
        ..quick_run(EngineKind::DrtmR, 2, 300)
    };
    let (cluster, m) = crate::driver::run(&wl, &run, |_| {});
    let snap = drtm_core::obs_bridge::scrape_cluster(&cluster);
    assert_eq!(*wl.threads.borrow(), [std::thread::current().id()].into());
    assert!(
        snap.contention.parks > 0,
        "no slot waited on another's lock"
    );
    assert_eq!(
        wl.attempts.get(),
        m.committed + m.aborted + wl.user_aborts.get(),
        "attempts = commits + aborts + user aborts"
    );
    assert_eq!(
        audit::smallbank_total(&cluster, &sb),
        crate::smallbank::initial_total(&sb),
        "money leaked"
    );
}

/// A closed-loop run is a pure function of its `RunCfg` and seed: two
/// runs of one configuration on fresh clusters of 2 machines x 2 worker
/// slots — slots that meet on each other's locks and NIC ledgers —
/// return the same measurement to the bit, on DrTM+R at 1 and 8
/// routines, on DrTM and on Calvin, for SmallBank and YCSB.
#[test]
fn same_seed_runs_repeat_to_the_bit() {
    use crate::driver::{run_ycsb, Measurement};
    use crate::ycsb::YcsbCfg;
    let digest = |m: &Measurement| {
        let mut types: Vec<_> = m.per_type.iter().collect();
        types.sort_by_key(|(name, _)| **name);
        let rows = types.iter().map(|(name, t)| {
            let bits = [t.tps, t.mean_us, t.p50_us, t.p99_us].map(f64::to_bits);
            format!("{name} {} {} {bits:x?}", t.count, t.aborted)
        });
        let (c, a, f, bits) = (m.committed, m.aborted, m.fallbacks, m.throughput.to_bits());
        format!(
            "{c} {a} {f} {bits:#x} {} | {}",
            m.stopped,
            rows.collect::<Vec<_>>().join(", ")
        )
    };
    let sb = SbCfg {
        nodes: 2,
        accounts: 64,
        cross_prob: 0.4,
        ..Default::default()
    };
    let ycsb = YcsbCfg {
        nodes: 2,
        records: 256,
        cross_prob: 0.5,
        ..Default::default()
    };
    let engines = [
        (EngineKind::DrtmR, 1),
        (EngineKind::DrtmR, 8),
        (EngineKind::Drtm, 1),
        (EngineKind::Calvin, 1),
    ];
    for (engine, routines) in engines {
        let run = RunCfg {
            routines,
            ..quick_run(engine, 2, 200)
        };
        let arm = format!("{engine:?} r{routines}");
        let twice = |f: &dyn Fn() -> Measurement| [f(), f()].map(|m| digest(&m));
        let [a, b] = twice(&|| run_smallbank(&sb, &run));
        assert_eq!(a, b, "{arm} smallbank");
        let [a, b] = twice(&|| run_ycsb(&ycsb, &run));
        assert_eq!(a, b, "{arm} ycsb");
    }
}

/// Pin: one routine charges what the blocking engine charged, at the
/// workload level too — a seeded SmallBank run ends at the virtual
/// clock, commit counts, NIC traffic and per-phase breakdown recorded
/// from a worker on the pre-reactor blocking wait path the commit
/// before that path was deleted, both on a worker outside any pool and
/// through a pool of one. (The core crate pins the same constants-style
/// identity on a synthetic verb mix; this covers the full workload
/// stack: generator, async transaction bodies, driver plumbing.)
///
/// Re-recorded once since, when C.2's header READs moved into C.1's
/// doorbell (DESIGN.md §7): the 25 commits that touch node 1 each lose
/// the validate round trip of 250 + 1 503 ns and nothing else moves —
/// validate 43 825 -> 0 ns (its wait 37 575 -> 0), clock 290 543 ->
/// 246 718, verb wait 176 013 -> 138 438, doorbells 132 -> 107 and
/// wakes 107 -> 82 (25 fewer each), verb counts and bytes as recorded.
///
/// And once more when C.6's unlock CASes moved into C.5's doorbell: the
/// same 25 commits each rang a doorbell of their own for them, 250 ns
/// of worker clock apiece — unlock 6 250 -> 0 ns, clock 246 718 ->
/// 240 468 = minus 25 x 250, doorbells 107 -> 82; update (41 400 ns,
/// wait 35 150), wakes, verb counts and bytes as recorded.
///
/// And once more when local reads became read groups: the 29
/// send-payments whose two accounts both live on node 0 read them with
/// one `read_many` whose local group of two is one HTM region, not two,
/// so each saves one `htm_begin_ns + htm_commit_ns` (20 + 20 ns) —
/// execute 103 468 -> 102 308 ns, clock 240 468 -> 239 308 = minus
/// 29 x 40; nothing else moves. The job counts those send-payments.
///
/// And once more when a write to a record the transaction read took the
/// read's location (DESIGN.md §4): each of the 54 committed
/// send-payments rewrites the two accounts it read, and neither write
/// pays its own `record_logic_ns` (180 ns) any more — execute 102 308 ->
/// 82 868 ns, clock 239 308 -> 219 868 = minus 54 x 2 x 180, and its
/// p99 bucket falls 8 192 -> 4 096. The location cache answered every
/// remote write's lookup before, so no verb, wait or other phase moves.
#[test]
fn smallbank_routines_one_pins_blocking_path() {
    use crate::smallbank::{self, SbInput, SbTxn};
    use drtm_core::{DrtmCluster, RoutinePool};
    use drtm_rdma::NicSnapshot;

    let cfg = SbCfg {
        nodes: 2,
        accounts: 120,
        cross_prob: 0.4,
        ..Default::default()
    };
    let run = quick_run(EngineKind::DrtmR, 1, 0);
    // Both arms run this exact seeded mix from node 0; it returns how
    // many of its transactions read two accounts on node 0.
    let job = async |w: &mut drtm_core::txn::Worker, cfg: &SbCfg| {
        let mut rng = drtm_base::SplitMix64::new(0x5b_0001);
        let mut local_pairs = 0u64;
        for _ in 0..60 {
            let a = (0usize, cfg.pick_account(&mut rng, 0));
            let second = cfg.pick_second_shard(&mut rng, 0);
            let b = (second, cfg.pick_account(&mut rng, second));
            if b == a {
                continue;
            }
            local_pairs += u64::from(second == 0);
            let inp = SbInput {
                txn: SbTxn::SendPayment,
                a,
                b,
                amount: rng.range(1, 50),
            };
            let _ = w
                .run_async(async |t| smallbank::execute(t, &inp).await)
                .await;
        }
        local_pairs
    };
    let check = |arm: &str, c: &DrtmCluster, w: &drtm_core::txn::Worker, local_pairs| {
        assert_eq!(local_pairs, 29, "{arm}: send-payments within node 0");
        let reads_written = 54 * 2 * 180;
        assert_eq!(
            w.clock.now(),
            240_468 - 29 * 40 - reads_written,
            "{arm}: virtual clock"
        );
        assert_eq!((w.stats.committed, w.stats.aborted), (54, 0), "{arm}");
        let nic = |node| c.fabric.port(node).stats().snapshot();
        assert_eq!(nic(0), NicSnapshot::default(), "{arm}: node 0 traffic");
        let expect = NicSnapshot {
            reads: 57,
            writes: 25,
            atomics: 50,
            sends: 0,
            doorbells: 82,
            bytes: 4248,
            saved: 25,
        };
        assert_eq!(nic(1), expect, "{arm}: node 1 traffic");
        let snap = c.obs.scrape();
        // `(count, sum, p50, p99)` per phase, in `Phase::ALL` order.
        let (phases, waits): (Vec<_>, Vec<_>) = (
            snap.phases
                .iter()
                .map(|(_, h)| (h.count, h.sum, h.p50, h.p99))
                .collect(),
            snap.phase_waits
                .iter()
                .map(|(_, h)| (h.count, h.sum, h.p50, h.p99))
                .collect(),
        );
        assert_eq!(
            phases,
            [
                (54, 103468 - 29 * 40 - reads_written, 988, 4096),
                (54, 61250, 1, 4096),
                (54, 0, 1, 2),
                (54, 4650, 96, 128),
                (54, 0, 1, 2),
                (54, 0, 1, 2),
                (54, 41400, 1, 2048),
                (54, 0, 1, 2),
            ],
            "{arm}: per-phase breakdown"
        );
        assert_eq!(
            waits,
            [
                (54, 48288, 1, 4096),
                (54, 55000, 1, 4096),
                (54, 0, 1, 2),
                (54, 0, 1, 2),
                (54, 0, 1, 2),
                (54, 0, 1, 2),
                (54, 35150, 1, 2048),
                (54, 0, 1, 2),
            ],
            "{arm}: per-phase verb waits"
        );
        assert_eq!(snap.pipeline.wait_ns, 138_438, "{arm}");
        // A single routine can never overlap its own waits.
        assert_eq!(snap.pipeline.overlap_ns, 0, "{arm}");
        assert_eq!((snap.pipeline.routines, snap.pipeline.wakes), (1, 82));
    };

    // A worker outside any pool: one poll drives the whole job.
    let (c, _) = crate::driver::build_smallbank(&cfg, &run);
    let mut w = c.worker(0, 7);
    let local_pairs = drtm_base::task::block_now(job(&mut w, &cfg));
    check("bare worker", &c, &w, local_pairs);

    // The same seed through a pool of one routine.
    let (c, _) = crate::driver::build_smallbank(&cfg, &run);
    let w = c.worker(0, 7);
    let (w, local_pairs) = RoutinePool::run(vec![w], async |_, w| job(w, &cfg).await).remove(0);
    check("pool of one", &c, &w, local_pairs);
}

/// The driver's routine-pool path on the full SmallBank mix: every
/// routine count commits work. That the multiplexed slots finish in
/// less virtual time than one routine is the `pipeline` experiment's
/// "SmallBank r8/r1 vtps >= 1.15" check, gated on a release build; a
/// ratio over debug OS-thread interleavings is not asserted here.
#[test]
fn smallbank_driver_commits_at_every_routine_count() {
    let cfg = SbCfg {
        nodes: 2,
        accounts: 400,
        cross_prob: 0.5,
        ..Default::default()
    };
    for routines in [1usize, 2, 4, 8] {
        let m = run_smallbank(
            &cfg,
            &RunCfg {
                routines,
                ..quick_run(EngineKind::DrtmR, 1, 120)
            },
        );
        assert!(m.committed > 0, "routines={routines} committed nothing");
    }
}

/// YCSB-B at 60% cross-node commits its whole budget at 1 and at 8
/// routines (a read-mostly mix never gives up on a transaction). The
/// gain and the abort rate are the `pipeline` experiment's "YCSB-B
/// r8/r1 vtps >= 1.25" and "YCSB-B r8 abort rate <= 5%" checks.
#[test]
fn ycsb_b_cross_node_commits_at_every_routine_count() {
    use crate::ycsb::{YcsbCfg, YcsbMix};
    let cfg = YcsbCfg {
        nodes: 2,
        records: 4000,
        theta: 0.6,
        cross_prob: 0.6,
        mix: YcsbMix::B,
        ..Default::default()
    };
    for routines in [1usize, 8] {
        let run = RunCfg {
            routines,
            ..quick_run(EngineKind::DrtmR, 1, 200)
        };
        let m = crate::driver::run_ycsb(&cfg, &run);
        assert_eq!(m.committed, 2 * 200, "routines={routines}");
    }
}

#[test]
fn tpcc_throughput_scales_with_machines() {
    // Weak-scaling sanity: 2 machines should deliver clearly more than
    // 1.2x one machine's virtual throughput at 1% cross-warehouse.
    let one = run_tpcc(&quick_tpcc(1), &quick_run(EngineKind::DrtmR, 2, 60));
    let two = run_tpcc(&quick_tpcc(2), &quick_run(EngineKind::DrtmR, 2, 60));
    assert!(
        two.throughput > one.throughput * 1.2,
        "no scaling: {} vs {}",
        one.throughput,
        two.throughput
    );
}

#[test]
fn replication_costs_throughput_but_not_everything() {
    let cfg = quick_tpcc(3);
    let plain = run_tpcc(&cfg, &quick_run(EngineKind::DrtmR, 1, 50));
    let repl = run_tpcc(
        &cfg,
        &RunCfg {
            replicas: 3,
            ..quick_run(EngineKind::DrtmR, 1, 50)
        },
    );
    assert!(
        repl.throughput < plain.throughput,
        "replication must cost something"
    );
    // The quick profile's tiny transactions exaggerate the replication
    // overhead relative to the paper's 41% ceiling; just bound it away
    // from zero.
    assert!(
        repl.throughput > plain.throughput * 0.10,
        "replication overhead implausibly high: {} vs {}",
        plain.throughput,
        repl.throughput
    );
}

#[test]
fn calvin_is_order_of_magnitude_slower() {
    let cfg = quick_tpcc(2);
    let d = run_tpcc(&cfg, &quick_run(EngineKind::DrtmR, 1, 40));
    let c = run_tpcc(&cfg, &quick_run(EngineKind::Calvin, 1, 40));
    assert!(
        d.throughput > 5.0 * c.throughput,
        "DrTM+R {} vs Calvin {}",
        d.throughput,
        c.throughput
    );
}

/// The closed-loop driver end to end on one machine, one worker slot,
/// 200 transactions: every workload on DrTM+R at 1 and 8 routines, on
/// DrTM and on Calvin. One thread and one machine leave nothing to host
/// scheduling, so each run repeats to the bit; the pins are the counts,
/// the aggregate throughput's bits and, per transaction type, its count
/// and p99's bits. They fail if a generator's RNG stream, a
/// transaction index, a seed derivation or the budget split moves.
#[test]
fn one_machine_driver_runs_are_pinned() {
    use crate::driver::{run_ycsb, Measurement};
    use crate::ycsb::YcsbCfg;

    let pin = |m: &Measurement| {
        let mut types: Vec<_> = m.per_type.iter().collect();
        types.sort_by_key(|(name, _)| **name);
        let types: Vec<String> = types
            .iter()
            .map(|(name, t)| format!("{name} {} {:#x}", t.count, t.p99_us.to_bits()))
            .collect();
        format!(
            "{} {} {} {:#x} | {}",
            m.committed,
            m.aborted,
            m.fallbacks,
            m.throughput.to_bits(),
            types.join(", ")
        )
    };
    let tpcc = quick_tpcc(1);
    let sb = SbCfg {
        accounts: 200,
        ..Default::default()
    };
    let ycsb = YcsbCfg {
        records: 500,
        ..Default::default()
    };
    let engines = [
        (EngineKind::DrtmR, 1),
        (EngineKind::DrtmR, 8),
        (EngineKind::Drtm, 1),
        (EngineKind::Calvin, 1),
    ];
    let mut got = Vec::new();
    for (engine, routines) in engines {
        let run = RunCfg {
            routines,
            ..quick_run(engine, 1, 200)
        };
        let arm = format!("{engine:?} r{routines}");
        got.push(format!("{arm} tpcc: {}", pin(&run_tpcc(&tpcc, &run))));
        got.push(format!(
            "{arm} smallbank: {}",
            pin(&run_smallbank(&sb, &run))
        ));
        got.push(format!("{arm} ycsb: {}", pin(&run_ycsb(&ycsb, &run))));
    }
    let want = [
        "DrtmR r1 tpcc: 198 0 0 0x40ffa9e0a3b6e55d | delivery 5 0x4050624dd2f1a9fc, new-order 93 0x4030624dd2f1a9fc, order-status 11 0x4020624dd2f1a9fc, payment 80 0x4010624dd2f1a9fc, stock-level 9 0x4050624dd2f1a9fc",
        "DrtmR r1 smallbank: 172 0 0 0x4127c82b02032a9c | amalgamate 26 0x4000624dd2f1a9fc, balance 36 0x4000624dd2f1a9fc, deposit-checking 24 0x3ff0624dd2f1a9fc, send-payment 33 0x4000624dd2f1a9fc, transact-savings 26 0x3ff0624dd2f1a9fc, write-check 27 0x4000624dd2f1a9fc",
        "DrtmR r1 ycsb: 200 0 0 0x4132201411f1021d | read 93 0x3ff0624dd2f1a9fc, update 107 0x3ff04dd2f1a9fbe7",
        "DrtmR r8 tpcc: 198 0 0 0x40fc269ff669382d | delivery 7 0x4050624dd2f1a9fc, new-order 95 0x4030624dd2f1a9fc, order-status 5 0x4010624dd2f1a9fc, payment 80 0x4010624dd2f1a9fc, stock-level 11 0x4050624dd2f1a9fc",
        "DrtmR r8 smallbank: 188 0 0 0x412a241b2d761223 | amalgamate 26 0x4000624dd2f1a9fc, balance 29 0x4000624dd2f1a9fc, deposit-checking 33 0x3ff0624dd2f1a9fc, send-payment 41 0x4000624dd2f1a9fc, transact-savings 30 0x3ff0624dd2f1a9fc, write-check 29 0x4000624dd2f1a9fc",
        "DrtmR r8 ycsb: 200 0 0 0x41320ec7f3e1b443 | read 100 0x3ff049ba5e353f7d, update 100 0x3ff049ba5e353f7d",
        "Drtm r1 tpcc: 198 0 0 0x40fec5b9981270f1 | delivery 5 0x4050624dd2f1a9fc, new-order 93 0x4030624dd2f1a9fc, order-status 11 0x4020624dd2f1a9fc, payment 80 0x4000624dd2f1a9fc, stock-level 9 0x4050624dd2f1a9fc",
        "Drtm r1 smallbank: 172 0 0 0x413065c69881f078 | amalgamate 26 0x4000624dd2f1a9fc, balance 36 0x3ff0624dd2f1a9fc, deposit-checking 24 0x3ff0624dd2f1a9fc, send-payment 33 0x3ff0624dd2f1a9fc, transact-savings 26 0x3ff0624dd2f1a9fc, write-check 27 0x3ff0624dd2f1a9fc",
        "Drtm r1 ycsb: 200 0 0 0x4137a83398ce633a | read 93 0x3ff0624dd2f1a9fc, update 107 0x3ff04dd2f1a9fbe7",
        "Calvin r1 tpcc: 198 0 0 0x40ce87e196cfb188 | delivery 5 0x4060624dd2f1a9fc, new-order 93 0x4060624dd2f1a9fc, order-status 11 0x4050624dd2f1a9fc, payment 80 0x4050624dd2f1a9fc, stock-level 9 0x4070624dd2f1a9fc",
        "Calvin r1 smallbank: 172 0 0 0x40cbeb55480b2b3f | amalgamate 26 0x4050624dd2f1a9fc, balance 36 0x4050624dd2f1a9fc, deposit-checking 24 0x4050624dd2f1a9fc, send-payment 33 0x4050624dd2f1a9fc, transact-savings 26 0x4050624dd2f1a9fc, write-check 27 0x4050624dd2f1a9fc",
        "Calvin r1 ycsb: 200 0 0 0x40d0428110cb3b3f | read 93 0x4050624dd2f1a9fc, update 107 0x40504ea7ef9db22d",
    ];
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
    assert_eq!(got.len(), want.len(), "{got:#?}");
}

/// Records every crash-point probe, in order, and kills nothing.
#[derive(Default)]
struct ProbeLog(std::sync::Mutex<Vec<(usize, &'static str)>>);

impl drtm_core::cluster::CrashPointHook for ProbeLog {
    fn on_point(&self, node: usize, point: &'static str, _now: u64) -> bool {
        self.0.lock().unwrap().push((node, point));
        false
    }
}

/// Truncation is a step of the driver's loop, not a thread: on a
/// replicated SmallBank run (3 machines, replicas 3) each routine takes
/// its machine's step after every transaction (the step's `R.3` probe
/// fires once per transaction and machine), every record's freshest
/// durable version is its primary's, and what is left in a backup's
/// logs was appended after that backup's last step. The bound: a
/// transaction logs at most `MAX_WRITES` entries to one backup
/// (amalgamate writes three records), and each appending transaction
/// passes its `R.1` probe after its appends, so a backup holds at most
/// `MAX_WRITES` entries per `R.1` probe fired after its last `R.3`.
#[test]
fn replicated_driver_run_truncates_as_it_goes() {
    use crate::smallbank::{T_CHECKING, T_SAVINGS};
    use drtm_cluster::LogEntry;
    use std::sync::Arc;

    const MAX_WRITES: usize = 3;
    let cfg = SbCfg {
        nodes: 3,
        accounts: 300,
        cross_prob: 0.3,
        ..Default::default()
    };
    let run = RunCfg {
        replicas: 3,
        routines: 2,
        ..quick_run(EngineKind::DrtmR, 1, 150)
    };
    let (cluster, _) = crate::driver::build_smallbank(&cfg, &run);
    let probes = Arc::new(ProbeLog::default());
    cluster.set_crash_hook(Arc::clone(&probes) as _);
    let m = crate::driver::run_smallbank_on(&cfg, &run, &cluster, None);
    cluster.clear_crash_hook();
    assert_eq!(m.stopped, 0);
    assert!(m.committed > 0);

    let probes = probes.0.lock().unwrap();
    let mut left = 0;
    for b in 0..cfg.nodes {
        let steps = probes.iter().filter(|&&p| p == (b, "R.3")).count();
        assert_eq!(steps, run.threads * run.txns_per_worker, "node {b}'s steps");
        let last = probes.iter().rposition(|&p| p == (b, "R.3")).unwrap();
        let later = probes[last..].iter().filter(|p| p.1 == "R.1").count();
        let entries: usize = (0..cfg.nodes).map(|p| cluster.logs.len(b, p)).sum();
        assert!(
            entries <= MAX_WRITES * later,
            "backup {b}: {entries} entries, {later} commits after its last step"
        );
        left += entries;
    }
    // Every SmallBank value is 40 bytes.
    let entry_bytes = LogEntry {
        table: 0,
        key: 0,
        seq: 0,
        value: [0u8; 40],
        delete: false,
    };
    assert_eq!(cluster.logs.bytes(), left * entry_bytes.wire_size());

    for p in 0..cfg.nodes {
        let store = &cluster.stores[p];
        for table in [T_SAVINGS, T_CHECKING] {
            for (key, off) in store.keys(table) {
                let rec = store.record(table, off as usize);
                let mut value = vec![0u8; rec.layout.value_len];
                rec.read_value_raw(&mut value);
                let durable = cluster.freshest_durable(p, table, key).expect("replicated");
                assert_eq!(
                    (durable.seq, durable.value, durable.deleted),
                    (rec.seq(), value, false),
                    "primary {p}, table {table}, key {key:#x}"
                );
            }
        }
    }
}

/// A machine voted out of the configuration while alive stops drawing:
/// its routines each meet at most one `Crashed` (at the commit walk's
/// fence) and stop, the driver counts its slots as stopped, the other
/// machines run their budgets out, and the money is all there. The load
/// is send-payments that stay on their machine, so no survivor touches
/// the removed machine's shard (nothing recovers it here).
#[test]
fn a_voted_out_machine_stops_its_driver_slots() {
    use crate::driver::{run_on, Workload};
    use crate::engine::TxnApi;
    use crate::smallbank::{self, SbInput, SbTxn};
    use drtm_base::SplitMix64;
    use drtm_core::cluster::{CrashPointHook, DrtmCluster};
    use drtm_core::txn::TxnError;
    use drtm_store::TableSpec;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Weak};

    const VICTIM: usize = 1;
    /// Removes `VICTIM` from the configuration at its `at`-th C.4.
    struct VoteOut {
        cluster: Weak<DrtmCluster>,
        at: usize,
        seen: AtomicUsize,
        removed: Arc<AtomicBool>,
    }
    impl CrashPointHook for VoteOut {
        fn on_point(&self, node: usize, point: &'static str, _now: u64) -> bool {
            if (node, point) == (VICTIM, "C.4")
                && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at
            {
                self.cluster.upgrade().unwrap().config.remove_member(VICTIM);
                self.removed.store(true, Ordering::SeqCst);
            }
            false
        }
    }
    /// Local send-payments, counting the victim's draws after removal.
    struct Payments<'a> {
        sb: &'a SbCfg,
        removed: &'a AtomicBool,
        late: &'a AtomicUsize,
    }
    impl Workload for Payments<'_> {
        const SLOT_SALT: u64 = 1;
        const GEN_SALT: u64 = 2;
        type Gen = (SplitMix64, usize);
        type Input = SbInput;
        fn nodes(&self) -> usize {
            self.sb.nodes
        }
        fn schema(&self) -> Vec<TableSpec> {
            self.sb.schema()
        }
        fn region_size(&self, _run: &RunCfg) -> usize {
            self.sb.region_size()
        }
        fn load(&self, cluster: &DrtmCluster) {
            smallbank::load(cluster, self.sb)
        }
        fn generator(&self, node: usize, _: usize, _: usize, rng: SplitMix64) -> Self::Gen {
            (rng, node)
        }
        fn next(&self, (rng, node): &mut Self::Gen, _: u64) -> (&'static str, bool, SbInput) {
            if *node == VICTIM && self.removed.load(Ordering::SeqCst) {
                self.late.fetch_add(1, Ordering::SeqCst);
            }
            let inp = SbInput {
                txn: SbTxn::SendPayment,
                ..smallbank::gen(self.sb, rng, *node)
            };
            ("send-payment", false, inp)
        }
        async fn execute(&self, t: &mut dyn TxnApi, inp: &SbInput) -> Result<(), TxnError> {
            smallbank::execute(t, inp).await
        }
    }

    let sb = SbCfg {
        nodes: 3,
        accounts: 200,
        cross_prob: 0.0,
        ..Default::default()
    };
    let run = RunCfg {
        routines: 4,
        ..quick_run(EngineKind::DrtmR, 2, 200)
    };
    let (removed, late) = (Arc::new(AtomicBool::new(false)), AtomicUsize::new(0));
    let wl = Payments {
        sb: &sb,
        removed: &removed,
        late: &late,
    };
    let (cluster, _) = crate::driver::build(&wl, &run, |_| {});
    cluster.set_crash_hook(Arc::new(VoteOut {
        cluster: Arc::downgrade(&cluster),
        at: 40,
        seen: AtomicUsize::new(0),
        removed: Arc::clone(&removed),
    }));
    let m = run_on(&wl, &run, &cluster, None);
    cluster.clear_crash_hook();

    assert!(removed.load(Ordering::SeqCst), "the victim was voted out");
    assert!(cluster.is_alive(VICTIM) && !cluster.is_member(VICTIM));
    assert_eq!(
        m.stopped, run.threads,
        "the victim's slots, and only they, stopped"
    );
    let late = late.load(Ordering::SeqCst);
    assert!(
        (1..=run.threads * run.routines).contains(&late),
        "{late} draws after the removal: at most one per routine"
    );
    assert!(m.committed > 0);
    assert_eq!(
        audit::smallbank_total(&cluster, &sb),
        smallbank::initial_total(&sb)
    );
}
