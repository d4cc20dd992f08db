//! Engine tests: protocol correctness, replication race, fallback,
//! recovery, and serializability under concurrency.

use std::sync::Arc;

use drtm_store::record::SEQ_OFF;
use drtm_store::TableSpec;

use crate::cluster::{DrtmCluster, EngineOpts};
use crate::txn::{AbortReason, TxnError};
use crate::{read_validates, recovery::recover_node};

const T_ACCT: u32 = 0;

fn schema() -> Vec<TableSpec> {
    vec![TableSpec::hash(T_ACCT, 4096, 16)]
}

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn num(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn cluster(n: usize, replicas: usize) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(replicas)
        .region_size(4 << 20)
        .build();
    let c = DrtmCluster::new(n, &schema(), opts);
    for shard in 0..n {
        for k in 0..64u64 {
            c.seed_record(shard, T_ACCT, (shard as u64) << 32 | k, &val(100));
        }
    }
    c
}

fn key(shard: usize, k: u64) -> u64 {
    (shard as u64) << 32 | k
}

#[test]
fn local_read_write_commit() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = t.read(0, T_ACCT, key(0, 1))?;
        assert_eq!(num(&v), 100);
        t.write(0, T_ACCT, key(0, 1), val(150))
    })
    .unwrap();
    let mut w2 = c.worker(0, 2);
    let v = w2.run_ro(|t| t.read(0, T_ACCT, key(0, 1))).unwrap();
    assert_eq!(num(&v), 150);
    assert_eq!(w.stats.committed, 1);
}

#[test]
fn remote_read_write_commit() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = t.read(1, T_ACCT, key(1, 3))?;
        assert_eq!(num(&v), 100);
        t.write(1, T_ACCT, key(1, 3), val(42))
    })
    .unwrap();
    // Visible both remotely and locally on the home machine.
    let mut w1 = c.worker(1, 2);
    let v = w1.run_ro(|t| t.read(1, T_ACCT, key(1, 3))).unwrap();
    assert_eq!(num(&v), 42);
    let mut w0 = c.worker(0, 3);
    let v = w0.run_ro(|t| t.read(1, T_ACCT, key(1, 3))).unwrap();
    assert_eq!(num(&v), 42);
}

#[test]
fn cross_shard_transfer_conserves_total() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let a = num(&t.read(0, T_ACCT, key(0, 0))?);
        let b = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(0, T_ACCT, key(0, 0), val(a - 30))?;
        t.write(1, T_ACCT, key(1, 0), val(b + 30))
    })
    .unwrap();
    let mut w2 = c.worker(1, 9);
    let total = w2
        .run_ro(|t| Ok(num(&t.read(0, T_ACCT, key(0, 0))?) + num(&t.read(1, T_ACCT, key(1, 0))?)))
        .unwrap();
    assert_eq!(total, 200);
}

#[test]
fn missing_key_is_not_found() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let r = w.run(|t| t.read(0, T_ACCT, key(0, 999)));
    assert_eq!(r.unwrap_err(), TxnError::NotFound);
    let r = w.run(|t| t.read(1, T_ACCT, key(1, 999)));
    assert_eq!(r.unwrap_err(), TxnError::NotFound);
}

#[test]
fn insert_then_read_and_delete() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        t.insert(1, T_ACCT, key(1, 777), val(7));
        Ok(())
    })
    .unwrap();
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 777))).unwrap();
    assert_eq!(num(&v), 7);
    w.run(|t| {
        t.delete(1, T_ACCT, key(1, 777));
        Ok(())
    })
    .unwrap();
    let r = w.run_ro(|t| t.read(1, T_ACCT, key(1, 777)));
    assert_eq!(r.unwrap_err(), TxnError::NotFound);
}

#[test]
fn write_write_conflict_one_winner_per_round() {
    // Two workers on different machines increment the same remote record
    // concurrently; the final value must equal the number of commits.
    let c = cluster(3, 1);
    let k = key(2, 5);
    let mut handles = Vec::new();
    for node in 0..2 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker(node, node as u64 + 10);
            for _ in 0..200 {
                w.run(|t| {
                    let v = num(&t.read(2, T_ACCT, k)?);
                    t.write(2, T_ACCT, k, val(v + 1))
                })
                .unwrap();
            }
            w.stats.committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 400);
    let mut w = c.worker(2, 99);
    let v = w.run_ro(|t| t.read(2, T_ACCT, k)).unwrap();
    assert_eq!(num(&v), 100 + 400);
}

#[test]
fn mixed_local_and_remote_contention_conserves_money() {
    // The classic bank test across 3 machines with all workers moving
    // money between random accounts; total must be conserved.
    let c = cluster(3, 1);
    let mut handles = Vec::new();
    for node in 0..3 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker(node, node as u64 + 1);
            let mut rng = drtm_base::SplitMix64::new(node as u64 * 7 + 1);
            for _ in 0..150 {
                let (s1, k1) = (rng.below(3) as usize, rng.below(8));
                let (s2, k2) = (rng.below(3) as usize, rng.below(8));
                if (s1, k1) == (s2, k2) {
                    continue;
                }
                let amt = rng.range(1, 5);
                let _ = w.run(|t| {
                    let a = num(&t.read(s1, T_ACCT, key(s1, k1))?);
                    let b = num(&t.read(s2, T_ACCT, key(s2, k2))?);
                    if a < amt {
                        return Err(TxnError::UserAbort);
                    }
                    t.write(s1, T_ACCT, key(s1, k1), val(a - amt))?;
                    t.write(s2, T_ACCT, key(s2, k2), val(b + amt))
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut w = c.worker(0, 123);
    let mut total = 0;
    for shard in 0..3 {
        for k in 0..8 {
            total += num(&w.run_ro(|t| t.read(shard, T_ACCT, key(shard, k))).unwrap());
        }
    }
    assert_eq!(total, 3 * 8 * 100);
}

#[test]
fn read_only_txn_sees_consistent_snapshot() {
    // A writer flips two records between (0, 100) and (100, 0); a
    // read-only transaction must never observe a mixed state.
    let c = cluster(2, 1);
    let ka = key(0, 60);
    let kb = key(1, 60);
    {
        let mut w = c.worker(0, 1);
        w.run(|t| {
            t.write(0, T_ACCT, ka, val(0))?;
            t.write(1, T_ACCT, kb, val(100))
        })
        .unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut w = c.worker(0, 2);
            let mut flip = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (a, b) = if flip { (0, 100) } else { (100, 0) };
                w.run(|t| {
                    t.write(0, T_ACCT, ka, val(a))?;
                    t.write(1, T_ACCT, kb, val(b))
                })
                .unwrap();
                flip = !flip;
                std::thread::yield_now();
            }
        })
    };
    let mut r = c.worker(1, 3);
    for _ in 0..200 {
        let sum = r
            .run_ro(|t| Ok(num(&t.read(0, T_ACCT, ka)?) + num(&t.read(1, T_ACCT, kb)?)))
            .unwrap();
        assert_eq!(sum, 100, "read-only txn observed a torn flip");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

// ---------------------------------------------------------------------
// Optimistic replication (§5.1).
// ---------------------------------------------------------------------

#[test]
fn replicated_commit_reaches_backup_logs() {
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = num(&t.read(0, T_ACCT, key(0, 1))?);
        t.write(0, T_ACCT, key(0, 1), val(v + 1))
    })
    .unwrap();
    // Both backups of node 0 hold the redo record.
    assert_eq!(c.logs.len(1, 0), 1);
    assert_eq!(c.logs.len(2, 0), 1);
    // Primary ended committable (even seq).
    let off = c.stores[0].get_loc(T_ACCT, key(0, 1)).unwrap() as usize;
    assert_eq!(c.stores[0].region.load64(off + SEQ_OFF) % 2, 0);
}

#[test]
fn uncommittable_record_blocks_dependent_commit() {
    // Hand-craft the §5.1 race: a record is left with an odd sequence
    // number (committed in HTM, not yet replicated). A transaction that
    // read it must fail validation; once the makeup step runs, a fresh
    // read/commit succeeds.
    let c = cluster(3, 3);
    let off = c.stores[0].get_loc(T_ACCT, key(0, 9)).unwrap() as usize;
    let rec = c.stores[0].record(T_ACCT, off);
    // Simulate C.4 without R.1/R.2: odd sequence number.
    rec.write_locked(&val(555), 3);

    let mut w = c.worker(0, 1);
    let r = w.run_once_for_test(|t| {
        let v = t.read(0, T_ACCT, key(0, 9))?; // Optimistic read allowed.
        assert_eq!(num(&v), 555);
        t.write(0, T_ACCT, key(0, 9), val(556))
    });
    assert!(
        matches!(r, Err(TxnError::Aborted(_))),
        "dependent txn must not commit before replication: {r:?}"
    );

    // Makeup: the original writer finishes replication.
    rec.set_seq(4);
    w.run(|t| {
        let v = num(&t.read(0, T_ACCT, key(0, 9))?);
        t.write(0, T_ACCT, key(0, 9), val(v + 1))
    })
    .unwrap();
}

#[test]
fn read_validation_accepts_replicated_successor() {
    // A transaction reads an odd (uncommittable) version; by commit time
    // the writer finished replication (seq became the even successor).
    // Table 4's condition accepts exactly that.
    assert!(read_validates(7, 8));
    let c = cluster(3, 3);
    let off = c.stores[0].get_loc(T_ACCT, key(0, 8)).unwrap() as usize;
    let rec = c.stores[0].record(T_ACCT, off);
    rec.write_locked(&val(300), 3); // Odd: mid-commit.

    let mut w = c.worker(0, 1);
    let mut txn = w.begin();
    let v = txn.read_local(T_ACCT, key(0, 8)).unwrap();
    assert_eq!(num(&v), 300);
    // The writer replicates before we commit.
    rec.set_seq(4);
    txn.commit().unwrap();
}

#[test]
fn aux_threads_apply_and_truncate() {
    let c = cluster(3, 2);
    let mut w = c.worker(0, 1);
    for i in 0..5 {
        w.run(|t| t.write(0, T_ACCT, key(0, 2), val(i + 1)))
            .unwrap();
    }
    assert_eq!(c.logs.len(1, 0), 5);
    let applied = c.truncate_step(1);
    assert_eq!(applied, 5);
    assert!(c.logs.is_empty(1, 0));
    let image = c.backups.image(1, 0);
    assert_eq!(num(image.get(T_ACCT, key(0, 2)).unwrap().value), 5);
}

/// Bumps the configuration epoch — as a recovery elsewhere commits —
/// at the next C.4 probe after it is armed: between a transaction's
/// local apply and its R.1.
struct ReconfigureAfterApply {
    cluster: Arc<DrtmCluster>,
    bystander: drtm_rdma::NodeId,
    armed: std::sync::atomic::AtomicBool,
}

impl crate::CrashPointHook for ReconfigureAfterApply {
    fn on_point(&self, _node: drtm_rdma::NodeId, point: &'static str) -> bool {
        let fire = point == "C.4" && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst);
        if fire && self.cluster.is_member(self.bystander) {
            self.cluster.config.remove_member(self.bystander);
        } else if fire {
            self.cluster.config.add_member(self.bystander);
        }
        false
    }
}

/// What a repair costs must not depend on how big the shard is: rolling
/// 1 000 records of a 100 000-record shard back (R.1 fenced after the
/// local apply) and healing 1 000 more forward (a newer durable version
/// in the image or still in the log) looks each record up and never
/// walks an image.
#[test]
fn repairing_1000_records_of_a_100k_shard_walks_no_image() {
    use drtm_cluster::LogEntryRef;
    const RECORDS: u64 = 100_000;
    let opts = EngineOpts::builder()
        .replicas(2)
        .region_size(16 << 20)
        .build();
    let schema = [TableSpec::hash(T_ACCT, 2 * RECORDS as usize, 16)];
    let c = DrtmCluster::new(3, &schema, opts);
    for k in 0..RECORDS {
        c.seed_record(0, T_ACCT, key(0, k), &val(100));
    }
    let record = |k: u64| {
        let off = c.stores[0].get_loc(T_ACCT, key(0, k)).unwrap() as usize;
        (off, c.stores[0].record(T_ACCT, off))
    };
    let value = |k: u64| {
        let mut v = [0u8; 16];
        record(k).1.read_value_raw(&mut v);
        num(&v)
    };

    // Roll back: 20 transactions of 50 local writes, each fenced.
    let hook = Arc::new(ReconfigureAfterApply {
        cluster: Arc::clone(&c),
        bystander: 2,
        armed: Default::default(),
    });
    c.set_crash_hook(hook.clone());
    let mut w = c.worker(0, 1);
    let picked = |i: u64| i * 97 % RECORDS;
    for txn in 0..20 {
        hook.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let fenced = w.run_once_for_test(|t| {
            (0..50).try_for_each(|i| t.write(0, T_ACCT, key(0, picked(txn * 50 + i)), val(7)))
        });
        assert_eq!(fenced, Err(TxnError::Aborted(AbortReason::Validation)));
    }
    c.clear_crash_hook();
    for i in 0..1000 {
        assert_eq!((value(picked(i)), record(picked(i)).1.seq()), (100, 2));
    }

    // Heal: the durable version is ahead of the primary, folded into
    // the image for every other record and still in the log for the rest.
    let nic = c.fabric.port(0).nic();
    for i in 1000..2000 {
        let e = LogEntryRef {
            table: T_ACCT,
            key: key(0, picked(i)),
            seq: 4,
            value: &val(i),
            delete: false,
        };
        if i % 2 == 0 {
            c.backups.apply(1, 0, e);
        } else {
            c.logs.post(0, &c.opts.cost, (nic, nic), 0, 0, 1, &[e]);
        }
        let (off, rec) = record(picked(i));
        // Every hundredth as the lock stealer of C.1 would: with the
        // offset and not the key.
        let known = (i % 100 != 0).then_some((T_ACCT, key(0, picked(i))));
        assert!(c.heal_record(0, off, known), "record {i}");
        assert_eq!((value(picked(i)), rec.seq()), (i, 4));
        assert!(!c.heal_record(0, off, known), "already current");
    }
    assert_eq!(c.backups.full_passes(), 0);
}

/// Past the linear-scan limit the local sets find repeated records
/// through their index: a second read returns the snapshot, a second
/// write replaces the buffer, own writes win, and neither set grows.
#[test]
fn large_local_sets_find_their_repeats() {
    let c = cluster(1, 1);
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    for round in 0..2 {
        for k in 0..40 {
            assert_eq!(num(&t.read_local(T_ACCT, key(0, k)).unwrap()), 100);
            // Someone else's commit must not show in a repeated read.
            let off = c.stores[0].get_loc(T_ACCT, key(0, k)).unwrap() as usize;
            c.stores[0].record(T_ACCT, off).write_locked(&val(5), 4);
        }
        assert_eq!(t.l_rs.len(), 40, "round {round}");
    }
    for round in 0..2 {
        for k in (0..40).rev() {
            t.write_local(T_ACCT, key(0, k), val(1000 * round + k))
                .unwrap();
        }
        assert_eq!(t.l_ws.len(), 40, "round {round}");
    }
    for k in 0..40 {
        assert_eq!(num(&t.read_local(T_ACCT, key(0, k)).unwrap()), 1000 + k);
        assert_eq!(num(&t.l_ws[39 - k as usize].buf), 1000 + k);
    }
    assert_eq!((t.l_rs.len(), t.l_ws.len()), (40, 40));
    assert!(t.commit().is_err(), "the read set went stale on purpose");
}

// ---------------------------------------------------------------------
// Fallback handler (§6.1).
// ---------------------------------------------------------------------

#[test]
fn fallback_commits_when_htm_always_fails() {
    // Force the HTM to be useless (100% spurious aborts): every commit
    // must go through the fallback handler and still be correct.
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .htm(drtm_htm::HtmConfig {
            spurious_abort_prob: 1.0,
            max_retries: 2,
            ..Default::default()
        })
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    c.seed_record(0, T_ACCT, key(0, 0), &val(10));
    let mut w = c.worker(0, 1);
    for _ in 0..5 {
        w.run(|t| {
            let v = num(&t.read(0, T_ACCT, key(0, 0))?);
            t.write(0, T_ACCT, key(0, 0), val(v + 1))
        })
        .unwrap();
    }
    assert_eq!(w.stats.fallbacks, 5);
    // A fallback commit is accounted like any other: every phase
    // histogram has one entry per commit, and the phases — abandoned
    // HTM attempt included — sum to the recorded latency. (Scraped
    // before the read-only check below: those record no phases.)
    let snap = c.obs.scrape();
    for (name, h) in &snap.phases {
        assert_eq!(h.count, 5, "phase {name}");
    }
    let phase_sum: u64 = snap.phases.iter().map(|(_, h)| h.sum).sum();
    assert_eq!(phase_sum, snap.latency.sum);
    let v = w.run_ro(|t| t.read(0, T_ACCT, key(0, 0))).unwrap();
    assert_eq!(num(&v), 15);
}

/// Records every crash-point probe the cluster fires; kills nobody.
struct ProbeLog(std::sync::Mutex<Vec<&'static str>>);

impl crate::CrashPointHook for ProbeLog {
    fn on_point(&self, _node: drtm_rdma::NodeId, point: &'static str) -> bool {
        self.0.lock().unwrap().push(point);
        false
    }
}

/// The fallback handler is the commit walk in another mode, not another
/// walk: after the abandoned HTM attempt's C.1 and C.2 it passes the
/// same seven probes, in the same order, as an HTM commit — replicated
/// or not.
#[test]
fn fallback_fires_the_same_seven_probes_as_an_htm_commit() {
    let seven = ["C.1", "C.2", "C.4", "R.1", "R.2", "C.5", "C.6"];
    for (replicas, htm_fails) in [(1, false), (1, true), (3, false), (3, true)] {
        let opts = EngineOpts::builder()
            .replicas(replicas)
            .region_size(4 << 20)
            .htm(drtm_htm::HtmConfig {
                spurious_abort_prob: if htm_fails { 1.0 } else { 0.0 },
                max_retries: 2,
                ..Default::default()
            })
            .build();
        let c = DrtmCluster::new(3, &schema(), opts);
        for shard in 0..2 {
            c.seed_record(shard, T_ACCT, key(shard, 0), &val(10));
        }
        let log = Arc::new(ProbeLog(Default::default()));
        c.set_crash_hook(log.clone());
        let mut w = c.worker(0, 1);
        w.run(|t| {
            let v = num(&t.read(1, T_ACCT, key(1, 0))?);
            t.write(0, T_ACCT, key(0, 0), val(v + 1))?;
            t.write(1, T_ACCT, key(1, 0), val(v - 1))
        })
        .unwrap();
        assert_eq!(w.stats.fallbacks, u64::from(htm_fails));
        let abandoned = if htm_fails { 2 } else { 0 };
        let seen = log.0.lock().unwrap();
        assert_eq!(seen[..abandoned], seven[..abandoned], "replicas {replicas}");
        assert_eq!(seen[abandoned..], seven, "replicas {replicas}");
    }
}

#[test]
fn fallback_under_concurrency_stays_serializable() {
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .htm(drtm_htm::HtmConfig {
            spurious_abort_prob: 0.5,
            max_retries: 1,
            ..Default::default()
        })
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    c.seed_record(0, T_ACCT, key(0, 0), &val(0));
    let mut handles = Vec::new();
    for tid in 0..3u64 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker((tid % 2) as usize, tid + 1);
            for _ in 0..100 {
                w.run(|t| {
                    let v = num(&t.read(0, T_ACCT, key(0, 0))?);
                    t.write(0, T_ACCT, key(0, 0), val(v + 1))
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut w = c.worker(0, 99);
    assert_eq!(
        num(&w.run_ro(|t| t.read(0, T_ACCT, key(0, 0))).unwrap()),
        300
    );
}

// ---------------------------------------------------------------------
// Recovery (§5.2).
// ---------------------------------------------------------------------

#[test]
fn recovery_restores_committed_data() {
    let c = cluster(3, 2);
    let mut w = c.worker(1, 1);
    w.run(|t| t.write(1, T_ACCT, key(1, 7), val(4242))).unwrap();

    c.crash(1);
    let report = recover_node(&c, 1);
    assert_eq!(report.new_home, Some(2));
    assert_eq!(report.epoch, 2);
    assert_eq!(report.records_recovered, 64);
    assert!(report.log_entries_replayed >= 1);

    // The committed write survives on the new home.
    let mut w0 = c.worker(0, 2);
    let v = w0.run_ro(|t| t.read(1, T_ACCT, key(1, 7))).unwrap();
    assert_eq!(num(&v), 4242);
    // And is writable again.
    w0.run(|t| t.write(1, T_ACCT, key(1, 7), val(1))).unwrap();
}

#[test]
fn unreplicated_odd_update_is_lost_but_never_observed_committed() {
    // A crash between C.4 (local HTM commit, odd seq) and R.1 (logging):
    // the update was never reported committed and recovery must surface
    // the *previous* value.
    let c = cluster(3, 2);
    let off = c.stores[1].get_loc(T_ACCT, key(1, 3)).unwrap() as usize;
    let rec = c.stores[1].record(T_ACCT, off);
    rec.write_locked(&val(666), 3); // Odd: unreplicated.

    c.crash(1);
    recover_node(&c, 1);
    let mut w = c.worker(0, 1);
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 3))).unwrap();
    assert_eq!(
        num(&v),
        100,
        "unreported update must roll back to the replicated value"
    );
}

#[test]
fn dangling_lock_released_passively() {
    // Node 1 "crashes" while holding a lock on node 2's record; a
    // survivor's transaction releases it and commits.
    let c = cluster(3, 1);
    let off = c.stores[2].get_loc(T_ACCT, key(2, 4)).unwrap() as usize;
    c.stores[2]
        .region
        .cas64(off, drtm_store::LOCK_FREE, drtm_store::lock_word(1))
        .unwrap();

    c.crash(1);
    c.config.remove_member(1);

    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
    w.run(|t| {
        let v = num(&t.read(2, T_ACCT, key(2, 4))?);
        t.write(2, T_ACCT, key(2, 4), val(v + 1))?;
        base.set(c.fabric.port(2).stats().snapshot());
        Ok(())
    })
    .unwrap();
    assert_eq!(c.stores[2].region.load64(off), drtm_store::LOCK_FREE);
    // The lost group CAS already named the owner, so the steal is the
    // very next CAS (lock, steal, unlock: no CAS spent on re-learning
    // the word), and the header read behind the lost CAS is not
    // trusted: the steal healed the record, so C.2 reads it again.
    let d = c.fabric.port(2).stats().snapshot().delta(&base.get());
    assert_eq!((d.atomics, d.reads), (3, 2), "{d:?}");
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
}

#[test]
fn lock_held_by_live_member_aborts_instead() {
    let c = cluster(3, 1);
    let off = c.stores[2].get_loc(T_ACCT, key(2, 4)).unwrap() as usize;
    c.stores[2]
        .region
        .cas64(off, drtm_store::LOCK_FREE, drtm_store::lock_word(1))
        .unwrap();
    let mut w = c.worker(0, 1);
    let r = w.run_once_for_test(|t| {
        let v = num(&t.read(2, T_ACCT, key(2, 4))?);
        t.write(2, T_ACCT, key(2, 4), val(v + 1))
    });
    assert_eq!(r.unwrap_err(), TxnError::Aborted(AbortReason::LockBusy));
    // The word the lost CAS returned names a live member: busy, with
    // no second CAS to find that out.
    assert_eq!(c.fabric.port(2).stats().atomics.get(), 1);
}

#[test]
fn writes_to_dead_node_are_fenced() {
    let c = cluster(3, 2);
    c.crash(1);
    c.config.remove_member(1);
    // A transaction explicitly targeting the dead machine's store is
    // fenced at C.1 (the shard map would normally reroute it).
    let mut w = c.worker(0, 1);
    let r = w.run_once_for_test(|t| {
        let v = num(&t.read_remote(1, T_ACCT, key(1, 0))?);
        t.write_remote(1, T_ACCT, key(1, 0), val(v + 1))
    });
    assert!(matches!(r, Err(TxnError::Aborted(_))));
}

#[test]
fn stale_location_cache_detected_via_incarnation() {
    // Worker 0 caches the location of a remote record; the record is
    // deleted and its block reused for a different key. The next cached
    // read must detect the incarnation change, invalidate, and re-probe
    // (returning NotFound for the deleted key).
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let k_old = key(1, 5);
    let v = w.run_ro(|t| t.read(1, T_ACCT, k_old)).unwrap();
    assert_eq!(num(&v), 100);

    // Host machine deletes the record and reuses the block.
    let mut host = c.worker(1, 2);
    host.run(|t| {
        t.delete(1, T_ACCT, k_old);
        Ok(())
    })
    .unwrap();
    host.run(|t| {
        t.insert(1, T_ACCT, key(1, 500), val(777));
        Ok(())
    })
    .unwrap();

    // The cached location now points at the new record; the incarnation
    // check fires and the lookup falls back to a fresh probe.
    let r = w.run_ro(|t| t.read(1, T_ACCT, k_old));
    assert_eq!(r.unwrap_err(), TxnError::NotFound);
    // And the new key reads correctly.
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 500))).unwrap();
    assert_eq!(num(&v), 777);
}

#[test]
fn incarnation_change_mid_txn_aborts() {
    // A transaction reads a record; the record is deleted (and the key
    // re-inserted onto a reused block) before commit. Validation must
    // fail with an incarnation mismatch rather than silently accepting
    // the new record.
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let k = key(0, 6);
    let mut txn = w.begin();
    let v = txn.read_local(T_ACCT, k).unwrap();
    assert_eq!(num(&v), 100);
    // Concurrent delete + reinsert on the home machine.
    c.stores[0].remove(T_ACCT, k);
    c.stores[0].insert(T_ACCT, k, &val(1), 2).unwrap();
    txn.write_local(T_ACCT, k, val(5)).unwrap();
    assert!(matches!(txn.commit(), Err(TxnError::Aborted(_))));
}

/// A write to a local record the transaction read takes the read's
/// location (DESIGN.md §4): on twin clusters, reading a record and
/// writing it back ends exactly one `record_logic_ns` below reading it
/// and blind-writing another record of the table, and commits the same
/// value.
#[test]
fn write_after_read_local_pays_no_second_lookup() {
    let run = |written: u64| {
        let c = cluster(2, 1);
        let mut w = c.worker(0, 1);
        w.run(|t| {
            let v = num(&t.read(0, T_ACCT, key(0, 1))?);
            t.write(0, T_ACCT, key(0, written), val(v + 50))
        })
        .unwrap();
        let ns = w.clock.now();
        let v = w.run_ro(|t| t.read(0, T_ACCT, key(0, written))).unwrap();
        (ns, num(&v), c.opts.cost.record_logic_ns)
    };
    let (rmw_ns, rmw, logic) = run(1);
    let (blind_ns, blind, _) = run(2);
    assert_eq!(blind_ns - rmw_ns, logic);
    assert_eq!((rmw, blind), (150, 150));
}

/// The remote twin, with the location cache off so every lookup is
/// probe READs: the write to the record just read posts no verb and
/// charges nothing, where a blind write pays the probe's round trip and
/// its `record_logic_ns`.
#[test]
fn write_after_read_remote_posts_no_probe() {
    use drtm_rdma::NicSnapshot;
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .use_location_cache(false)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for k in 0..8 {
        c.seed_record(1, T_ACCT, key(1, k), &val(100));
    }
    let cost = c.opts.cost.clone();
    let nic = || c.fabric.port(1).stats().snapshot();
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let v = num(&t.read_remote(1, T_ACCT, key(1, 3)).unwrap());
    let (ns, base) = (t.w.clock.now(), nic());
    t.write_remote(1, T_ACCT, key(1, 4), val(7)).unwrap();
    let (blind_ns, blind) = (t.w.clock.now() - ns, nic().delta(&base));
    let (ns, base) = (t.w.clock.now(), nic());
    t.write_remote(1, T_ACCT, key(1, 3), val(v + 1)).unwrap();
    let (rmw_ns, rmw) = (t.w.clock.now() - ns, nic().delta(&base));
    assert_eq!((rmw_ns, rmw), (0, NicSnapshot::default()));
    let probe = NicSnapshot {
        reads: 1,
        doorbells: 1,
        bytes: drtm_store::PROBE_LINE_BYTES as u64,
        ..NicSnapshot::default()
    };
    assert_eq!(blind, probe, "one probe line locates the blind write");
    let round_trip = cost.doorbell_ns + cost.rdma_read(drtm_store::PROBE_LINE_BYTES);
    assert_eq!(blind_ns, round_trip + cost.record_logic_ns);
    t.commit().unwrap();
    let mut got = |k| num(&w.run_ro(|t| t.read(1, T_ACCT, key(1, k))).unwrap());
    assert_eq!((got(3), got(4)), (101, 7));
}

/// The write at a reused location is safe because the read's
/// incarnation is validated before the write lands: C.3 in the HTM
/// region that applies C.4 for a local record, C.2 before C.5 for a
/// remote one. A record freed and reused between the read and the
/// commit (its incarnation bumped, as rollback and delete bump it)
/// aborts the commit, and its bytes are left as they were.
#[test]
fn write_after_read_of_a_reused_record_aborts_unwritten() {
    use drtm_store::record::INCARNATION_OFF;
    for shard in [0, 1] {
        let c = cluster(2, 1);
        let k = key(shard, 2);
        let store = &c.stores[shard];
        let off = store.get_loc(T_ACCT, k).unwrap() as usize;
        let image = || {
            let mut bytes = vec![0u8; store.table(T_ACCT).layout.size()];
            store.region.read_bytes_raw(off, &mut bytes);
            bytes
        };
        let mut w = c.worker(0, 1);
        let mut t = w.begin();
        let v = num(&t.read(shard, T_ACCT, k).unwrap());
        store.region.faa64(off + INCARNATION_OFF, 1);
        let reused = image();
        t.write(shard, T_ACCT, k, val(v + 1)).unwrap();
        let reason = AbortReason::Incarnation;
        assert_eq!(t.commit(), Err(TxnError::Aborted(reason)), "shard {shard}");
        assert_eq!(image(), reused, "shard {shard}: the record is not written");
    }
}

/// A repeated read is found in the read set by key, with no index walk:
/// a record unlinked from the index after the transaction read it reads
/// as the same snapshot (not `NotFound`), and the commit aborts on it.
#[test]
fn repeated_read_of_an_unlinked_record_keeps_its_snapshot() {
    let c = cluster(2, 1);
    let k = key(0, 6);
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let first = t.read_local(T_ACCT, k).unwrap();
    assert!(c.stores[0].remove(T_ACCT, k));
    assert_eq!(t.read_local(T_ACCT, k), Ok(first));
    assert_eq!(t.commit(), Err(TxnError::Aborted(AbortReason::Incarnation)));
}

/// `write_local` refuses a read-only transaction at the call, as every
/// other write does, not later at `commit_ro`'s set check.
#[test]
#[should_panic(expected = "read-only transactions cannot write")]
fn write_local_in_a_read_only_transaction_panics() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let mut t = w.begin_ro();
    let _ = t.write_local(T_ACCT, key(0, 1), val(5));
}

#[test]
fn read_only_txn_rejects_locked_remote_record() {
    // §4.5: read-only transactions check the lock to avoid reading a
    // possibly-uncommitted value; the read retries until unlock.
    let c = cluster(2, 1);
    let off = c.stores[1].get_loc(T_ACCT, key(1, 2)).unwrap() as usize;
    c.stores[1]
        .region
        .cas64(off, drtm_store::LOCK_FREE, drtm_store::lock_word(0))
        .unwrap();
    let mut w = c.worker(0, 1);
    let mut txn = w.begin_ro();
    let r = txn.read_remote(1, T_ACCT, key(1, 2));
    assert_eq!(
        r.unwrap_err(),
        TxnError::Aborted(AbortReason::RemoteInconsistent)
    );
    // Unlock; the next attempt succeeds.
    c.stores[1]
        .region
        .cas64(off, drtm_store::lock_word(0), drtm_store::LOCK_FREE)
        .unwrap();
    drop(txn);
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 2))).unwrap();
    assert_eq!(num(&v), 100);
}

#[test]
fn rw_txn_reads_through_remote_lock_optimistically() {
    // §4.4/§4.3: read-write transactions do NOT reject locked remote
    // records during execution (a committer read-locks records); OCC
    // validation decides at commit.
    let c = cluster(2, 1);
    let off = c.stores[1].get_loc(T_ACCT, key(1, 2)).unwrap() as usize;
    c.stores[1]
        .region
        .cas64(off, drtm_store::LOCK_FREE, drtm_store::lock_word(0))
        .unwrap();
    let mut w = c.worker(0, 1);
    let mut txn = w.begin();
    let v = txn.read_remote(1, T_ACCT, key(1, 2)).unwrap();
    assert_eq!(num(&v), 100, "optimistic read through the lock");
    drop(txn);
    c.stores[1]
        .region
        .cas64(off, drtm_store::lock_word(0), drtm_store::LOCK_FREE)
        .unwrap();
}

#[test]
fn msg_locking_mode_is_correct_and_interrupts_htm() {
    // The FaRM-messaging ablation must produce the same results; the
    // host's control line moves with every serviced lock message.
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .msg_locking(true)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    c.seed_record(1, T_ACCT, key(1, 0), &val(5));
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v * 3))
    })
    .unwrap();
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 0))).unwrap();
    assert_eq!(num(&v), 15);
    // Lock + unlock messages each interrupted machine 1.
    assert!(c.stores[1].region.load64(drtm_store::CONTROL_LINE_OFF) >= 2);
    // And no one-sided atomics were used.
    assert_eq!(c.fabric.port(1).stats().atomics.get(), 0);
}

/// The messaging ablation swaps the transport of lock, validate and
/// unlock only: a transaction writing k records on one remote node
/// still rings exactly one WRITE doorbell for C.5 (the A/B differs in
/// the one thing it measures), while every lock-service request is a
/// SEND that interrupts the host.
#[test]
fn msg_locking_keeps_c5_one_sided_and_batched() {
    let k = 3u64;
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .msg_locking(true)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for i in 0..k {
        c.seed_record(1, T_ACCT, key(1, i), &val(100));
    }
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
    w.run(|t| {
        // Zero-sum: record 0 pays one unit to each of the others.
        for i in 0..k {
            let v = num(&t.read(1, T_ACCT, key(1, i))?);
            let next = if i == 0 { v - (k - 1) } else { v + 1 };
            t.write(1, T_ACCT, key(1, i), val(next))?;
        }
        base.set(c.fabric.port(1).stats().snapshot());
        Ok(())
    })
    .unwrap();
    assert_eq!(w.stats.committed, 1);
    let d = c.fabric.port(1).stats().snapshot().delta(&base.get());
    assert_eq!(d.doorbells, 1, "C.5 alone rings a doorbell: {d:?}");
    assert_eq!(d.writes, k, "one C.5 line image per record: {d:?}");
    assert_eq!(d.atomics, 0, "no one-sided CAS: {d:?}");
    assert_eq!(d.reads, 0, "no one-sided header READ: {d:?}");
    // k locks, k validations (each record's read-set check and sequence
    // peek coalesce into one request) and k unlocks, one message each…
    assert_eq!(d.sends, 3 * k, "{d:?}");
    // …and each serviced request interrupted machine 1.
    assert_eq!(
        c.stores[1].region.load64(drtm_store::CONTROL_LINE_OFF),
        3 * k
    );
    let total: u64 = (0..k)
        .map(|i| num(&w.run_ro(|t| t.read(1, T_ACCT, key(1, i))).unwrap()))
        .sum();
    assert_eq!(total, k * 100, "transfers conserve");
}

/// A C.1 group whose *later* record cannot be locked aborts with every
/// lock it did win released and no verb beyond the group's own and the
/// two unlocks: under both lock transports when a live owner holds the
/// record (`LockBusy`, classified from the word the lost CAS returned),
/// and — one-sided only, messages are never dropped — when the injector
/// eats that record's CAS, which flushes the three header READs posted
/// behind it before they reach the wire (`Transport`).
#[test]
fn busy_lock_late_in_group_releases_the_locks_already_won() {
    for (msg_locking, dropped) in [(false, false), (true, false), (false, true)] {
        let arm = format!("msg_locking={msg_locking} dropped={dropped}");
        let opts = EngineOpts::builder()
            .region_size(4 << 20)
            .msg_locking(msg_locking)
            .build();
        let c = DrtmCluster::new(2, &schema(), opts);
        for i in 0..3u64 {
            c.seed_record(1, T_ACCT, key(1, i), &val(100));
        }
        // Locks are taken in offset order: block the last one.
        let mut offs: Vec<usize> = (0..3u64)
            .map(|i| c.stores[1].get_loc(T_ACCT, key(1, i)).unwrap() as usize)
            .collect();
        offs.sort_unstable();
        let region = &c.stores[1].region;
        let owner = drtm_store::lock_word(1);
        let (last, expect) = if dropped {
            c.fabric
                .set_injector(Arc::new(DropNth::new(drtm_rdma::Verb::Cas, 2)));
            let fault = TxnError::Transport(drtm_rdma::VerbError::Dropped);
            (drtm_store::LOCK_FREE, fault)
        } else {
            region.cas64(offs[2], drtm_store::LOCK_FREE, owner).unwrap();
            (owner, TxnError::Aborted(AbortReason::LockBusy))
        };
        let mut w = c.worker(0, 1);
        let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
        let r = w.run_once_for_test(|t| {
            for i in 0..3u64 {
                t.write(1, T_ACCT, key(1, i), val(7))?;
            }
            base.set(c.fabric.port(1).stats().snapshot());
            Ok(())
        });
        assert_eq!(r.unwrap_err(), expect, "{arm}");
        assert_eq!(region.load64(offs[0]), drtm_store::LOCK_FREE, "{arm}");
        assert_eq!(region.load64(offs[1]), drtm_store::LOCK_FREE, "{arm}");
        assert_eq!(region.load64(offs[2]), last, "{arm}: the holder's lock");
        // Three lock attempts, two unlocks; one-sided, the three header
        // READs rode the lock doorbell and landed unless flushed.
        let d = c.fabric.port(1).stats().snapshot().delta(&base.get());
        let verbs = (d.atomics, d.reads, d.sends, d.doorbells);
        let want = match (msg_locking, dropped) {
            (true, _) => (0, 0, 5, 0),
            (false, false) => (5, 3, 0, 2),
            (false, true) => (5, 0, 0, 2),
        };
        assert_eq!(verbs, want, "{arm}: {d:?}");
    }
}

#[test]
fn full_restart_scrub_repairs_inflight_state() {
    use crate::recovery::full_restart_scrub;
    let c = cluster(3, 3);
    // Commit some transactions so logs/images have content.
    let mut w = c.worker(0, 1);
    w.run(|t| t.write(0, T_ACCT, key(0, 1), val(42))).unwrap();

    // Forge a full-outage snapshot: a dangling lock, a logged-but-unmade-up
    // record (roll forward), and an unlogged odd record (roll back).
    let off_lock = c.stores[1].get_loc(T_ACCT, key(1, 0)).unwrap() as usize;
    c.stores[1]
        .region
        .cas64(off_lock, drtm_store::LOCK_FREE, drtm_store::lock_word(2))
        .unwrap();

    // Roll-forward case: value + log entry durable, makeup missing.
    let off_fwd = c.stores[1].get_loc(T_ACCT, key(1, 1)).unwrap() as usize;
    c.stores[1]
        .record(T_ACCT, off_fwd)
        .write_locked(&val(777), 3);
    for b in c.backups_of(1) {
        c.backups.apply(
            b,
            1,
            drtm_cluster::LogEntryRef {
                table: T_ACCT,
                key: key(1, 1),
                seq: 4,
                value: &val(777),
                delete: false,
            },
        );
    }

    // Roll-back case: odd update never logged.
    let off_back = c.stores[1].get_loc(T_ACCT, key(1, 2)).unwrap() as usize;
    c.stores[1]
        .record(T_ACCT, off_back)
        .write_locked(&val(666), 3);

    let (locks, fwd, back) = full_restart_scrub(&c);
    assert!(locks >= 1);
    assert!(fwd >= 1);
    assert!(back >= 1);

    // After the scrub the cluster serves transactions again with the
    // correct values.
    let mut w = c.worker(0, 9);
    assert_eq!(
        num(&w.run_ro(|t| t.read(1, T_ACCT, key(1, 1))).unwrap()),
        777
    );
    assert_eq!(
        num(&w.run_ro(|t| t.read(1, T_ACCT, key(1, 2))).unwrap()),
        100
    );
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v + 1))
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// GLOB-fusion ablation.
// ---------------------------------------------------------------------

#[test]
fn fused_lock_validate_produces_same_results() {
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .fuse_lock_validate(true)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    c.seed_record(1, T_ACCT, key(1, 0), &val(5));
    let mut w = c.worker(0, 1);
    let atomics_before = c.fabric.port(1).stats().reads.get();
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v * 2))
    })
    .unwrap();
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 0))).unwrap();
    assert_eq!(num(&v), 10);
    // The fused path must not have issued separate validation READs
    // beyond the data reads themselves.
    let _ = atomics_before;
}

/// Acceptance: the commit fan-out rings exactly two doorbells per
/// (txn, destination node) — one carrying C.1's CASes with C.2's header
/// READs behind them, one carrying C.5's WRITEs with C.6's unlock CASes
/// behind them (four, then three, before each pair shared one: each
/// time the count this test pinned dropped by exactly that doorbell,
/// the verbs it carried did not) — against node 1 no matter how many
/// records the txn touches there. A transaction writing two machines
/// posts both machines' images in one park and chains no unlock: no
/// queue pair orders one machine's unlock behind the other machine's
/// image, so both machines' unlocks follow C.5 as one unsignalled park,
/// a doorbell apiece.
#[test]
fn one_doorbell_per_destination_in_commit_fanout() {
    let k = 3u64;
    let d = {
        let opts = EngineOpts::builder().region_size(4 << 20).build();
        let c = DrtmCluster::new(2, &schema(), opts);
        for shard in 0..2 {
            for i in 0..8u64 {
                c.seed_record(shard, T_ACCT, key(shard, i), &val(100));
            }
        }
        let mut w = c.worker(0, 1);
        let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
        w.run(|t| {
            for i in 0..k {
                let v = t.read(1, T_ACCT, key(1, i))?;
                t.write(1, T_ACCT, key(1, i), val(num(&v) + 1))?;
            }
            // Snapshot after execute: the remaining delta against node 1
            // is exactly the commit fan-out (C.1 + C.2, C.5, C.6).
            base.set(c.fabric.port(1).stats().snapshot());
            Ok(())
        })
        .unwrap();
        assert_eq!(w.stats.committed, 1);
        c.fabric.port(1).stats().snapshot().delta(&base.get())
    };
    assert_eq!(d.atomics, 2 * k, "k lock + k unlock CAS: {d:?}");
    assert_eq!(d.writes, k, "one C.5 line image per record: {d:?}");
    // Every record is both read and written, so its C.2 validation and
    // its sequence peek coalesce into one header READ per record…
    assert_eq!(d.reads, k, "C.2 dedups r_rs ∩ r_ws headers: {d:?}");
    // …and the coalesced half is counted, not silently dropped.
    assert_eq!(d.saved, k, "one saved header READ per overlap: {d:?}");
    assert_eq!(
        d.doorbells, 2,
        "exactly one doorbell each for C.1 + C.2 and C.5 + C.6: {d:?}"
    );

    let c = cluster(3, 1);
    // Whether both machines' records were still locked whenever an
    // image was issued.
    let held = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let tap = {
        let (stores, held) = (c.stores.clone(), Arc::clone(&held));
        let off = |n: usize| stores[n].get_loc(T_ACCT, key(n, 1)).unwrap() as usize;
        let offs = [off(1), off(2)];
        Tap(move |_, verb| {
            if verb == drtm_rdma::Verb::Write {
                let locked =
                    |n: usize| stores[n].region.load64(offs[n - 1]) == drtm_store::lock_word(0);
                held.fetch_and(locked(1) && locked(2), std::sync::atomic::Ordering::SeqCst);
            }
            false
        })
    };
    c.fabric.set_injector(Arc::new(tap));
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new([drtm_rdma::NicSnapshot::default(); 3]);
    w.run(|t| {
        t.write(1, T_ACCT, key(1, 1), val(1))?;
        t.write(2, T_ACCT, key(2, 1), val(2))?;
        base.set(std::array::from_fn(|n| c.fabric.port(n).stats().snapshot()));
        Ok(())
    })
    .unwrap();
    assert!(
        held.load(std::sync::atomic::Ordering::SeqCst),
        "nothing is released before the transaction's last image"
    );
    let d: [u64; 3] = std::array::from_fn(|n| {
        let now = c.fabric.port(n).stats().snapshot();
        now.delta(&base.get()[n]).doorbells
    });
    assert_eq!(d, [0, 3, 3], "C.1 + C.2, C.5, C.6 on each written machine");

    // Replicated: R.1 rings one doorbell per remote backup *machine*.
    // Worker 0 writes primaries 0 (backups {1, 2}) and 1 (backups
    // {2, 0}): node 2 takes both logs behind one doorbell as two WRITEs,
    // node 1 takes one, and node 0's own log of primary 1 is a local
    // store — no doorbell, no verb.
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new([drtm_rdma::NicSnapshot::default(); 3]);
    w.run(|t| {
        t.write(0, T_ACCT, key(0, 1), val(1))?;
        t.write(1, T_ACCT, key(1, 1), val(2))?;
        base.set(std::array::from_fn(|n| c.fabric.port(n).stats().snapshot()));
        Ok(())
    })
    .unwrap();
    let d: [drtm_rdma::NicSnapshot; 3] =
        std::array::from_fn(|n| c.fabric.port(n).stats().snapshot().delta(&base.get()[n]));
    assert_eq!(d[0], drtm_rdma::NicSnapshot::default(), "loopback: {d:?}");
    assert_eq!(d[1].doorbells, 2 + 1, "C.1 + C.2, C.5 + C.6, R.1: {d:?}");
    assert_eq!(d[1].writes, 1 + 1, "C.5 image + one redo WRITE: {d:?}");
    assert_eq!(d[2].doorbells, 1, "two logs, one doorbell: {d:?}");
    assert_eq!(d[2].writes, 2, "one redo WRITE per log: {d:?}");
    let redo = 29 + 16; // `LogEntry::wire_size` of a 16-byte value.
    assert_eq!(d[2].bytes, 2 * redo, "redo bytes are counted: {d:?}");
    for (backup, primary) in [(1, 0), (2, 0), (2, 1), (0, 1)] {
        assert_eq!(c.logs.len(backup, primary), 1, "logs[{backup}][{primary}]");
    }
}

/// R.1's virtual cost is pinned: the redo WRITEs to a record's f backups
/// overlap, so the phase costs the doorbells (CPU, back to back) plus
/// *one* WRITE latency — the slowest ack, not the sum.
#[test]
fn r1_waits_for_the_slowest_ack_not_the_sum() {
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    w.run(|t| t.write(0, T_ACCT, key(0, 1), val(7))).unwrap();
    let snap = c.obs.scrape();
    let log = snap.phases.iter().find(|(n, _)| *n == "log").unwrap().1;
    assert_eq!(log.count, 1);
    let cost = drtm_base::CostModel::default();
    let write = cost.rdma_write(29 + 16);
    assert_eq!(log.sum, 2 * cost.doorbell_ns + write);
}

/// R.1 on a quiet NIC costs the same virtual time while another worker's
/// clock runs 2 ms ahead as with no other clock running: 400 one-record
/// commits on machine 0 (two redo WRITEs each, ~0.7 verbs/µs on its
/// port, an eighth of its verb rate) after a machine-1 worker already
/// committed at 2 ms into machine 0's log. Each R.1 costs the two
/// doorbells plus one WRITE latency, as in the test above.
#[test]
fn r1_on_a_quiet_nic_ignores_a_clock_running_ahead() {
    let log_sum = |c: &DrtmCluster| {
        c.obs
            .scrape()
            .phases
            .iter()
            .find(|(n, _)| *n == "log")
            .unwrap()
            .1
            .sum
    };
    let run = |ahead: bool| {
        let c = cluster(3, 3);
        if ahead {
            let mut w = c.worker(1, 2);
            w.clock.advance(2_000_000);
            w.run(|t| t.write(1, T_ACCT, key(1, 1), val(7))).unwrap();
        }
        let before = log_sum(&c);
        let mut w = c.worker(0, 1);
        for i in 0..400 {
            w.run(|t| t.write(0, T_ACCT, key(0, i % 64), val(i)))
                .unwrap();
        }
        (w.clock.now(), log_sum(&c) - before)
    };
    let (solo, behind) = (run(false), run(true));
    assert_eq!(behind, solo);
    assert!(
        solo.0 < 2_000_000,
        "the lagging clock stays behind: {}",
        solo.0
    );
    let cost = drtm_base::CostModel::default();
    assert_eq!(
        solo.1,
        400 * (2 * cost.doorbell_ns + cost.rdma_write(29 + 16))
    );
}

/// One-shot injector: drops the `n`-th verb of class `verb` issued from
/// node 0 toward node 1 (0-based), everything else passes untouched.
struct DropNth {
    verb: drtm_rdma::Verb,
    n: u64,
    seen: std::sync::atomic::AtomicU64,
}

impl DropNth {
    fn new(verb: drtm_rdma::Verb, n: u64) -> Self {
        Self {
            verb,
            n,
            seen: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl drtm_rdma::FaultInjector for DropNth {
    fn on_verb(
        &self,
        src: drtm_rdma::NodeId,
        dst: drtm_rdma::NodeId,
        verb: drtm_rdma::Verb,
        _now: u64,
    ) -> drtm_rdma::Fault {
        if src == 0 && dst == 1 && verb == self.verb {
            let seen = self.seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if seen == self.n {
                return drtm_rdma::Fault {
                    drop: true,
                    ..drtm_rdma::Fault::NONE
                };
            }
        }
        drtm_rdma::Fault::NONE
    }
}

/// Builds a 2-node unreplicated cluster and commits one txn that
/// read-modify-writes three records homed on node 1, so every commit
/// phase fans out a 3-WR doorbell batch toward node 1.
fn run_three_record_txn(injector: Arc<dyn drtm_rdma::FaultInjector>) -> (Arc<DrtmCluster>, u64) {
    let opts = EngineOpts::builder().region_size(4 << 20).build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for i in 0..8u64 {
        c.seed_record(1, T_ACCT, key(1, i), &val(100));
    }
    c.fabric.set_injector(injector);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        for i in 0..3u64 {
            let v = t.read(1, T_ACCT, key(1, i))?;
            t.write(1, T_ACCT, key(1, i), val(num(&v) + 1))?;
        }
        Ok(())
    })
    .unwrap();
    (c, w.stats.aborted)
}

/// Taps every verb issued toward a remote node: `f(dst, verb)` sees it
/// before it executes (a flushed WR never gets here) and says whether
/// to drop it.
struct Tap<F>(F);

impl<F> drtm_rdma::FaultInjector for Tap<F>
where
    F: Fn(drtm_rdma::NodeId, drtm_rdma::Verb) -> bool + Send + Sync,
{
    fn on_verb(
        &self,
        src: drtm_rdma::NodeId,
        dst: drtm_rdma::NodeId,
        verb: drtm_rdma::Verb,
        _now: u64,
    ) -> drtm_rdma::Fault {
        drtm_rdma::Fault {
            drop: src != dst && (self.0)(dst, verb),
            ..drtm_rdma::Fault::NONE
        }
    }
}

/// Every verb toward node 1 from C.5's first line image on, each with
/// how many of `offs`' records were still locked when it was issued.
type ImageLog = Arc<std::sync::Mutex<Vec<(drtm_rdma::Verb, usize)>>>;

/// A [`Tap`] that drops C.5's first line image — without replication
/// the first WRITE toward node 1 — and keeps an [`ImageLog`] from there.
fn drop_first_image(
    store: &Arc<drtm_store::Store>,
    offs: &[usize],
) -> (Arc<dyn drtm_rdma::FaultInjector>, ImageLog) {
    let log = ImageLog::default();
    let (store, offs, tapped) = (Arc::clone(store), offs.to_vec(), Arc::clone(&log));
    let tap = Tap(move |_, verb| {
        let mut log = tapped.lock().unwrap();
        let first_image = log.is_empty() && verb == drtm_rdma::Verb::Write;
        if first_image || !log.is_empty() {
            let locked = |&&off: &&usize| store.region.load64(off) != drtm_store::LOCK_FREE;
            log.push((verb, offs.iter().filter(locked).count()));
        }
        first_image
    });
    (Arc::new(tap), log)
}

/// Dropping the k-th CAS inside a C.1 doorbell batch aborts the attempt
/// cleanly: the lock the batch *did* win ahead of the dropped WR is
/// released (the retry could not lock it otherwise, since a worker
/// never steals from a live member, itself included), the CAS and the
/// header READs behind it are flushed, the abort is classified as a
/// transport fault, and the retry commits.
#[test]
fn dropped_wr_in_lock_batch_aborts_cleanly() {
    // The second CAS from node 0 to node 1 is the middle WR of the
    // first C.1 batch.
    let (c, aborted) = run_three_record_txn(Arc::new(DropNth::new(drtm_rdma::Verb::Cas, 1)));
    assert_eq!(aborted, 1, "exactly the one transport abort");
    let snap = crate::scrape_cluster(&c);
    let transport = snap
        .aborts
        .iter()
        .find(|(r, _)| *r == "transport")
        .map_or(0, |(_, n)| *n);
    assert_eq!(
        transport, 1,
        "taxonomy must say transport: {:?}",
        snap.aborts
    );
    let mut w = c.worker(1, 9);
    for i in 0..3u64 {
        let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, i))).unwrap();
        assert_eq!(num(&v), 101, "retry committed exactly once");
    }
}

/// Dropping the first line image of C.5's doorbell flushes everything
/// posted behind it — the other two images and the three unlock CASes
/// chained behind them — so no record is released over a torn or stale
/// image. The routine retransmits in post order through the blocking
/// wrappers, images first: the log is every verb the injector saw from
/// the drop on, with how many of the three records were still locked
/// when it was issued.
#[test]
fn dropped_update_wr_flushes_the_unlocks_behind_it() {
    use drtm_rdma::Verb::{Cas, Write};
    let c = cluster(2, 1);
    let store = Arc::clone(&c.stores[1]);
    let offs: Vec<usize> = (0..3u64)
        .map(|i| store.get_loc(T_ACCT, key(1, i)).unwrap() as usize)
        .collect();
    let seeded = store.region.load64(offs[0] + SEQ_OFF);
    let (tap, log) = drop_first_image(&store, &offs);
    c.fabric.set_injector(tap);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        for i in 0..3u64 {
            let v = t.read(1, T_ACCT, key(1, i))?;
            t.write(1, T_ACCT, key(1, i), val(num(&v) + 1))?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
    assert_eq!(
        *log.lock().unwrap(),
        [
            (Write, 3),
            (Write, 3),
            (Write, 3),
            (Write, 3),
            (Cas, 3),
            (Cas, 2),
            (Cas, 1)
        ],
        "the drop, then three images under all three locks, then the unlocks"
    );
    for &off in &offs {
        assert_eq!(store.region.load64(off), drtm_store::LOCK_FREE);
        assert_eq!(store.region.load64(off + SEQ_OFF), seeded + 2);
    }
    for i in 0..3u64 {
        let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, i))).unwrap();
        assert_eq!(num(&v), 101);
    }
}

/// Dropping an unsignalled unlock CAS chained behind C.5's images is
/// repaired by a blocking retransmit of that CAS — and of the unlocks
/// flushed behind it — and of nothing else: no image is written twice,
/// no dangling lock survives, so a second worker can immediately lock
/// the same records.
#[test]
fn dropped_unlock_wr_is_retransmitted() {
    use drtm_rdma::Verb::Cas;
    // CAS #0..2 toward node 1 are the C.1 locks; #3..5 the C.6 unlocks.
    for (nth, retransmitted) in [(5, vec![Cas]), (4, vec![Cas, Cas])] {
        // CASes seen so far, and every verb after the dropped one.
        let state = Arc::new(std::sync::Mutex::new((0, Vec::new())));
        let tap = {
            let state = Arc::clone(&state);
            Tap(move |_, verb| {
                let mut s = state.lock().unwrap();
                if s.0 > nth {
                    s.1.push(verb);
                    return false;
                }
                s.0 += u64::from(verb == Cas);
                s.0 > nth
            })
        };
        let (c, aborted) = run_three_record_txn(Arc::new(tap));
        assert_eq!(aborted, 0, "C.6 drops are repaired, not aborted");
        assert_eq!(state.lock().unwrap().1, retransmitted, "unlock #{nth}");
        c.fabric.clear_injector();
        let mut w = c.worker(0, 2);
        w.run(|t| {
            for i in 0..3u64 {
                let v = t.read(1, T_ACCT, key(1, i))?;
                t.write(1, T_ACCT, key(1, i), val(num(&v) + 1))?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(w.stats.aborted, 0, "no stale lock can remain");
    }
}

/// R = 2, one shared doorbell: routine 1's execution READ parks while
/// routine 0 — its C.1 batch landed — waits for the core, so when
/// routine 0 then parks its C.5 + C.6 chain the reactor rings both in
/// one doorbell, the READ ahead. Dropping that READ flushes the whole
/// chain behind it although it belongs to another transaction: routine
/// 0 wakes at the flush, retransmits image then unlock, and commits
/// exactly once; routine 1 retries its READ.
#[test]
fn dropped_sibling_read_flushes_a_whole_commit_chain() {
    use drtm_rdma::Verb::{Cas, Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    let c = cluster(2, 1);
    // Armed by routine 1 just before the READ to drop; every verb after
    // the drop is logged.
    let armed = Arc::new(AtomicBool::new(false));
    let after = Arc::new(std::sync::Mutex::new(None::<Vec<drtm_rdma::Verb>>));
    let tap = {
        let (armed, after) = (Arc::clone(&armed), Arc::clone(&after));
        Tap(move |_, verb| {
            let mut after = after.lock().unwrap();
            if let Some(log) = after.as_mut() {
                log.push(verb);
                return false;
            }
            let drop = verb == Read && armed.load(Ordering::SeqCst);
            if drop {
                *after = Some(Vec::new());
            }
            drop
        })
    };
    c.fabric.set_injector(Arc::new(tap));
    let mut workers: Vec<_> = (0..2).map(|id| c.worker(0, 70 + id)).collect();
    // Routine 1 starts late enough that its first READ is still in
    // flight when routine 0 parks C.1 (so that batch rings at once),
    // then computes across the instant C.1 lands.
    workers[1].clock.advance(1_500);
    let base = c.fabric.port(1).stats().snapshot();
    let done = crate::routine::RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            return w
                .run_async(async |t| {
                    let v = num(&t.read_async(1, T_ACCT, key(1, 0)).await?);
                    t.write_async(1, T_ACCT, key(1, 0), val(v + 1)).await
                })
                .await
                .map(|()| 0);
        }
        w.run_ro_async(async |t| {
            t.read_async(1, T_ACCT, key(1, 8)).await?;
            t.w.clock.advance(3_000);
            armed.store(true, Ordering::SeqCst);
            t.read_async(1, T_ACCT, key(1, 9)).await.map(|v| num(&v))
        })
        .await
    });
    let outcomes: Vec<_> = done.iter().map(|(w, r)| (*r, w.stats.aborted)).collect();
    assert_eq!(outcomes, [(Ok(0), 0), (Ok(100), 0)]);
    // Nothing behind the dropped READ — key 9's location probe, posted
    // like every other verb — reached the injector; then the image, the
    // unlock and the probe again (and routine 1's record READ and two
    // C.2 header READs).
    let after = after.lock().unwrap().clone().expect("a READ was dropped");
    assert_eq!(after, [Write, Cas, Read, Read, Read, Read]);
    // The flushed image and unlock never reached the wire: one WRITE
    // and one unlock CAS in all, both retransmits.
    let d = c.fabric.port(1).stats().snapshot().delta(&base);
    assert_eq!((d.writes, d.atomics), (1, 1 + 1), "{d:?}");
    c.fabric.clear_injector();
    let mut audit = c.worker(1, 9);
    let v = audit.run_ro(|t| t.read(1, T_ACCT, key(1, 0))).unwrap();
    assert_eq!(num(&v), 101, "committed exactly once");
}

/// Dropping a header READ chained behind C.1's CASes costs the commit
/// nothing but the round trip it was saving: the locks were won, so C.2
/// fetches that header — and the two flushed behind it — again and the
/// transaction commits on its first attempt.
#[test]
fn dropped_peek_read_is_retransmitted() {
    use std::sync::atomic::{AtomicBool, Ordering};
    /// Drops the first READ issued after it is armed.
    struct DropNextRead(AtomicBool);
    impl drtm_rdma::FaultInjector for DropNextRead {
        fn on_verb(
            &self,
            _src: drtm_rdma::NodeId,
            _dst: drtm_rdma::NodeId,
            verb: drtm_rdma::Verb,
            _now: u64,
        ) -> drtm_rdma::Fault {
            drtm_rdma::Fault {
                drop: verb == drtm_rdma::Verb::Read && self.0.swap(false, Ordering::SeqCst),
                ..drtm_rdma::Fault::NONE
            }
        }
    }
    let c = cluster(2, 1);
    let injector = Arc::new(DropNextRead(AtomicBool::new(false)));
    c.fabric.set_injector(injector.clone());
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
    w.run(|t| {
        for i in 0..3u64 {
            let v = t.read(1, T_ACCT, key(1, i))?;
            t.write(1, T_ACCT, key(1, i), val(num(&v) + 1))?;
        }
        // Execution is over: the next READ is C.1's first header peek.
        injector.0.store(true, Ordering::SeqCst);
        base.set(c.fabric.port(1).stats().snapshot());
        Ok(())
    })
    .unwrap();
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
    // The first peek is dropped on the wire and the other two never
    // reach it (flushed: not counted); all three are refetched, in a
    // doorbell of their own between C.1's and C.5 + C.6's.
    let d = c.fabric.port(1).stats().snapshot().delta(&base.get());
    assert_eq!((d.reads, d.doorbells), (1 + 3, 2 + 1), "{d:?}");
    for i in 0..3u64 {
        let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, i))).unwrap();
        assert_eq!(num(&v), 101);
    }
}

/// Snapshots a port's NIC counters at every crash-point probe; kills
/// nobody.
struct NicAtProbe {
    fabric: Arc<drtm_rdma::Fabric>,
    port: drtm_rdma::NodeId,
    log: std::sync::Mutex<Vec<(&'static str, drtm_rdma::NicSnapshot)>>,
}

impl crate::CrashPointHook for NicAtProbe {
    fn on_point(&self, _node: drtm_rdma::NodeId, point: &'static str) -> bool {
        let now = self.fabric.port(self.port).stats().snapshot();
        self.log.lock().unwrap().push((point, now));
        false
    }
}

/// NIC pin of one remote read-modify-write, stage by stage: C.1's
/// doorbell carries the lock CAS *and* the header READ C.2 validates, so
/// C.2 adds no verb and no virtual time; then one doorbell for C.5's
/// line image with C.6's unlock CAS behind it, so by the C.5 probe the
/// second atomic is on the wire and C.6 adds nothing.
#[test]
fn lock_and_validate_share_one_doorbell() {
    let c = cluster(2, 1);
    let probe = Arc::new(NicAtProbe {
        fabric: Arc::clone(&c.fabric),
        port: 1,
        log: Default::default(),
    });
    c.set_crash_hook(probe.clone());
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v + 1))?;
        base.set(c.fabric.port(1).stats().snapshot());
        Ok(())
    })
    .unwrap();
    // `(doorbells, atomics, reads, writes)` since execution ended.
    let log = probe.log.lock().unwrap();
    let seen: Vec<_> = log
        .iter()
        .map(|(point, nic)| {
            let d = nic.delta(&base.get());
            (*point, (d.doorbells, d.atomics, d.reads, d.writes))
        })
        .collect();
    assert_eq!(
        seen,
        [
            ("C.1", (1, 1, 1, 0)),
            ("C.2", (1, 1, 1, 0)),
            ("C.4", (1, 1, 1, 0)),
            ("R.1", (1, 1, 1, 0)),
            ("R.2", (1, 1, 1, 0)),
            ("C.5", (2, 2, 1, 1)),
            ("C.6", (2, 2, 1, 1)),
        ]
    );
    let snap = c.obs.scrape();
    let validate = snap
        .phases
        .iter()
        .find(|(n, _)| *n == "validate")
        .unwrap()
        .1;
    assert_eq!((validate.count, validate.sum), (1, 0));
}

/// Rung-2 wait mode: a lock lost in the group CAS and won later, after
/// its holder committed and released, is validated against a header
/// read *after* the win — the one the doorbell brought back predates the
/// holder's write — while the record whose CAS won outright costs no
/// second READ.
#[test]
fn lock_won_after_waiting_rereads_exactly_that_header() {
    use std::sync::atomic::{AtomicU64, Ordering};
    /// Plays the holder of the record at `off` finishing its commit
    /// just before the `n`-th CAS (0-based) toward node 1 executes:
    /// installs sequence number `seq`, frees the lock word.
    struct HolderCommitsBeforeNthCas {
        store: Arc<drtm_store::Store>,
        off: usize,
        seq: u64,
        n: u64,
        seen: AtomicU64,
    }
    impl drtm_rdma::FaultInjector for HolderCommitsBeforeNthCas {
        fn on_verb(
            &self,
            _src: drtm_rdma::NodeId,
            dst: drtm_rdma::NodeId,
            verb: drtm_rdma::Verb,
            _now: u64,
        ) -> drtm_rdma::Fault {
            if dst == 1
                && verb == drtm_rdma::Verb::Cas
                && self.seen.fetch_add(1, Ordering::SeqCst) == self.n
            {
                self.store.record(T_ACCT, self.off).set_seq(self.seq);
                let free = drtm_store::LOCK_FREE;
                self.store.region.store64_coherent(self.off, free);
            }
            drtm_rdma::Fault::NONE
        }
    }
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .contention(crate::ContentionPolicy::AlwaysPessimistic)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for i in 0..2u64 {
        c.seed_record(1, T_ACCT, key(1, i), &val(100));
    }
    let mut offs: Vec<usize> = (0..2u64)
        .map(|i| c.stores[1].get_loc(T_ACCT, key(1, i)).unwrap() as usize)
        .collect();
    offs.sort_unstable();
    let region = &c.stores[1].region;
    let seq = |off: usize| region.load64(off + SEQ_OFF);
    let seeded = seq(offs[1]);
    // A live member holds the second record: CAS 0 wins, CAS 1 loses,
    // CAS 2 is wait mode's retry — by then the holder has committed.
    let held = drtm_store::lock_word(1);
    region.cas64(offs[1], drtm_store::LOCK_FREE, held).unwrap();
    c.fabric.set_injector(Arc::new(HolderCommitsBeforeNthCas {
        store: Arc::clone(&c.stores[1]),
        off: offs[1],
        seq: seeded + 2,
        n: 2,
        seen: AtomicU64::new(0),
    }));
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
    w.run(|t| {
        for i in 0..2u64 {
            t.write(1, T_ACCT, key(1, i), val(7))?;
        }
        base.set(c.fabric.port(1).stats().snapshot());
        Ok(())
    })
    .unwrap();
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
    // Two lock CASes, the retry, two unlocks; two peeks and one re-read.
    let d = c.fabric.port(1).stats().snapshot().delta(&base.get());
    assert_eq!((d.atomics, d.reads), (2 + 1 + 2, 2 + 1), "{d:?}");
    // The write went in on top of the holder's version, not the seeded
    // one the stale peek saw.
    assert_eq!(seq(offs[0]), seeded + 2);
    assert_eq!(seq(offs[1]), seeded + 4);
}

/// The fallback handler locks its local records through loopback CAS
/// and validates them from memory: no header READ is chained behind
/// those CASes, while the remote group's peek rides as usual.
#[test]
fn fallback_locks_local_records_without_a_header_read() {
    let opts = EngineOpts::builder()
        .region_size(4 << 20)
        .htm(drtm_htm::HtmConfig {
            spurious_abort_prob: 1.0,
            max_retries: 2,
            ..Default::default()
        })
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for shard in 0..2 {
        c.seed_record(shard, T_ACCT, key(shard, 0), &val(10));
    }
    let mut w = c.worker(0, 1);
    let base = std::cell::Cell::new([drtm_rdma::NicSnapshot::default(); 2]);
    w.run(|t| {
        let v = num(&t.read(0, T_ACCT, key(0, 0))?);
        t.write(0, T_ACCT, key(0, 0), val(v + 1))?;
        t.write(1, T_ACCT, key(1, 0), val(v))?;
        base.set(std::array::from_fn(|n| c.fabric.port(n).stats().snapshot()));
        Ok(())
    })
    .unwrap();
    assert_eq!(w.stats.fallbacks, 1);
    let d: [drtm_rdma::NicSnapshot; 2] =
        std::array::from_fn(|n| c.fabric.port(n).stats().snapshot().delta(&base.get()[n]));
    // Loopback: lock + unlock of the one local record, in the locked
    // walk only. Remote: lock + peek + unlock in both walks.
    assert_eq!((d[0].atomics, d[0].reads), (2, 0), "{d:?}");
    assert_eq!((d[1].atomics, d[1].reads), (4, 2), "{d:?}");
}

/// A transaction larger than the send queue: every per-destination
/// group — C.1's CASes and header READs, C.5's line images with C.6's
/// unlocks behind them — is posted `sq_depth` WRs at a time instead of
/// overflowing the queue, with the verb counts of one unchunked batch.
#[test]
fn groups_larger_than_the_send_queue_are_chunked() {
    for (records, sq_depth) in [(130u64, drtm_rdma::DEFAULT_SQ_DEPTH), (5, 4)] {
        let opts = EngineOpts::builder().region_size(4 << 20).build();
        let c = DrtmCluster::with_fabric(2, &schema(), opts, |f| f.sq_depth(sq_depth));
        for i in 0..records {
            c.seed_record(1, T_ACCT, key(1, i), &val(100));
        }
        let mut w = c.worker(0, 1);
        let base = std::cell::Cell::new(drtm_rdma::NicSnapshot::default());
        w.run(|t| {
            for i in 0..records {
                t.write(1, T_ACCT, key(1, i), val(7))?;
            }
            base.set(c.fabric.port(1).stats().snapshot());
            Ok(())
        })
        .unwrap();
        assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
        let d = c.fabric.port(1).stats().snapshot().delta(&base.get());
        let verbs = (d.atomics, d.reads, d.writes, d.saved);
        assert_eq!(verbs, (2 * records, records, records, 0), "{d:?}");
        // 2k WRs of C.1 + C.2 and 2k of C.5 + C.6, each in chunks.
        let chunks = 2 * (2 * records).div_ceil(sq_depth as u64);
        assert_eq!(d.doorbells, chunks, "{d:?}");
        let v = w
            .run_ro(|t| t.read(1, T_ACCT, key(1, records - 1)))
            .unwrap();
        assert_eq!(num(&v), 7);
    }
}

/// A 130-record write at `sq_depth` 4 is 33 chunks of images, then the
/// unlocks in the last 32: no unlock is posted until every chunk of
/// images has been settled. The first image is dropped, which flushes
/// the three behind it; all four are retransmitted before the second
/// chunk is posted, and every WRITE — the injector logs each verb from
/// the drop on with how many of the records are still locked — finds
/// all 130 locks held.
#[test]
fn dropped_image_in_a_chunked_write_is_settled_before_any_unlock() {
    use drtm_rdma::Verb::{Cas, Write};
    let records = 130usize;
    let opts = EngineOpts::builder().region_size(4 << 20).build();
    let c = DrtmCluster::with_fabric(2, &schema(), opts, |f| f.sq_depth(4));
    for i in 0..records as u64 {
        c.seed_record(1, T_ACCT, key(1, i), &val(100));
    }
    let store = Arc::clone(&c.stores[1]);
    let offs: Vec<usize> = (0..records as u64)
        .map(|i| store.get_loc(T_ACCT, key(1, i)).unwrap() as usize)
        .collect();
    let (tap, log) = drop_first_image(&store, &offs);
    c.fabric.set_injector(tap);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        for i in 0..records as u64 {
            t.write(1, T_ACCT, key(1, i), val(7))?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
    // The drop, its chunk's four retransmits, the other 126 images;
    // then the unlocks, one fewer record locked at each.
    let want = (0..1 + 4 + 126)
        .map(|_| (Write, records))
        .chain((0..records).map(|i| (Cas, records - i)));
    assert_eq!(*log.lock().unwrap(), want.collect::<Vec<_>>());
}

/// Two written machines, both machines' images in one park, and the
/// first image toward the *first* machine dropped: its second image is
/// flushed behind it, machine 2's land untouched (another queue pair),
/// and the routine, woken at the latest horizon, retransmits machine
/// 1's two — from one rebuilt image list — before C.6 posts a single
/// unlock. The log is every verb the injector saw from the drop on:
/// destination, verb, and how many of the four records were still
/// locked. Every image is issued under all four locks; nothing dangles.
#[test]
fn dropped_image_on_the_first_of_two_written_machines_lands_before_any_unlock() {
    use drtm_rdma::Verb::{Cas, Write};
    let c = cluster(3, 1);
    let recs: Vec<(usize, usize)> = [(1, 0), (1, 1), (2, 0), (2, 1)]
        .into_iter()
        .map(|(n, i)| (n, c.stores[n].get_loc(T_ACCT, key(n, i)).unwrap() as usize))
        .collect();
    let seeded = c.stores[1].region.load64(recs[0].1 + SEQ_OFF);
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let tap = {
        let (stores, recs, log) = (c.stores.clone(), recs.clone(), Arc::clone(&log));
        Tap(move |dst, verb| {
            let mut log = log.lock().unwrap();
            let first_image = log.is_empty() && verb == Write;
            if first_image || !log.is_empty() {
                let locked = |&&(n, off): &&(usize, usize)| {
                    stores[n].region.load64(off) != drtm_store::LOCK_FREE
                };
                log.push((dst, verb, recs.iter().filter(locked).count()));
            }
            first_image
        })
    };
    c.fabric.set_injector(Arc::new(tap));
    let mut w = c.worker(0, 1);
    w.run(|t| {
        for n in [1, 2] {
            for i in 0..2u64 {
                let v = t.read(n, T_ACCT, key(n, i))?;
                t.write(n, T_ACCT, key(n, i), val(num(&v) + 1))?;
            }
        }
        Ok(())
    })
    .unwrap();
    assert_eq!((w.stats.committed, w.stats.aborted), (1, 0));
    assert_eq!(
        *log.lock().unwrap(),
        [
            (1, Write, 4), // dropped; the image behind it is flushed
            (2, Write, 4),
            (2, Write, 4),
            (1, Write, 4), // both retransmitted, in post order
            (1, Write, 4),
            (1, Cas, 4),
            (1, Cas, 3),
            (2, Cas, 2),
            (2, Cas, 1),
        ]
    );
    for &(n, off) in &recs {
        let region = &c.stores[n].region;
        assert_eq!(region.load64(off), drtm_store::LOCK_FREE);
        assert_eq!(region.load64(off + SEQ_OFF), seeded + 2);
    }
    c.fabric.clear_injector();
    for n in [1, 2] {
        for i in 0..2u64 {
            let v = w.run_ro(|t| t.read(n, T_ACCT, key(n, i))).unwrap();
            assert_eq!(num(&v), 101);
        }
    }
}

/// A shard re-homed *during* `read_many`'s parks — a recovery pass
/// running beside the transaction — must not split a key's read across
/// two machines: the offset the probe found and the bytes the READ
/// brought back belong to the machine they were posted to, and that is
/// the machine the read-set entry names (so that C.1 locks, C.2
/// validates and C.5 writes the record that was read, or is fenced from
/// a machine that left). The re-homing here happens inside the first
/// park, when the injector sees the probe.
#[test]
fn read_many_keeps_a_key_on_the_machine_its_verbs_went_to() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let c = cluster(3, 1);
    let rec_off = c.stores[1].get_loc(T_ACCT, key(1, 3)).unwrap() as usize;
    let moved = Arc::new(AtomicBool::new(false));
    let tap = {
        let (c, moved) = (Arc::clone(&c), Arc::clone(&moved));
        Tap(move |dst, verb| {
            if (dst, verb) == (1, drtm_rdma::Verb::Read) && !moved.swap(true, Ordering::SeqCst) {
                c.rehome(1, 2);
            }
            false
        })
    };
    c.fabric.set_injector(Arc::new(tap));
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let got = t.read_many(&[(0, T_ACCT, key(0, 3)), (1, T_ACCT, key(1, 3))]);
    c.fabric.clear_injector();
    assert!(moved.load(Ordering::SeqCst), "the shard moved mid-read");
    assert_eq!(c.home_of(1), 2);
    assert_eq!(got.map(|v| num(&v[1])), Ok(100));
    let read: Vec<_> = t.r_rs.iter().map(|e| (e.node, e.rec_off)).collect();
    assert_eq!(read, [(1, rec_off)]);
}

/// An ordered table of 3-line records (100-byte values), for the read
/// group tests.
const T_ORD: u32 = 1;

/// Two machines, keys 0..40 of [`T_ORD`] on machine 0, the HTM read
/// set capped at `max_read_lines`.
fn ordered_cluster(max_read_lines: usize) -> Arc<DrtmCluster> {
    let htm = drtm_htm::HtmConfig {
        max_read_lines,
        ..Default::default()
    };
    let opts = EngineOpts::builder().region_size(4 << 20).htm(htm).build();
    let schema = [
        TableSpec::hash(T_ACCT, 64, 16),
        TableSpec::ordered(T_ORD, 100),
    ];
    let c = DrtmCluster::new(2, &schema, opts);
    for k in 0..40u64 {
        c.seed_record(0, T_ORD, k, &[k as u8; 100]);
    }
    c
}

/// A scan reads its hits as one read group: the same values, the same
/// read set in scan order and the same commit as reading each hit by
/// itself — an own write and an earlier read among them — for one HTM
/// region's begin and commit instead of one per record fetched. With
/// the read capacity at 8 lines the 3-line records go two to a region:
/// the group splits instead of aborting.
#[test]
fn a_scan_is_one_read_group() {
    for max_read_lines in [4096, 8] {
        let run = |grouped: bool| {
            let c = ordered_cluster(max_read_lines);
            let mut w = c.worker(0, 1);
            let mut t = w.begin();
            t.write_local(T_ORD, 7, vec![0xee; 100]).unwrap();
            t.read_local(T_ORD, 12).unwrap();
            let before = t.w.clock.now();
            let got: Vec<(u64, Vec<u8>)> = if grouped {
                t.scan_local(T_ORD, 5, 30, usize::MAX).unwrap()
            } else {
                let hits = c.stores[0].scan(T_ORD, 5, 30, usize::MAX);
                let read = |(k, _)| (k, t.read_local(T_ORD, k).unwrap());
                hits.into_iter().map(read).collect()
            };
            let spent = t.w.clock.now() - before;
            let read_set: Vec<_> = (t.l_rs.iter())
                .map(|e| (e.table, e.rec_off, e.seq, e.incarnation, e.value.clone()))
                .collect();
            (got, read_set, t.commit(), spent)
        };
        let (seq, seq_reads, seq_commit, seq_ns) = run(false);
        let (group, group_reads, group_commit, group_ns) = run(true);
        assert_eq!(group, seq, "cap {max_read_lines}");
        assert_eq!(group_reads, seq_reads, "cap {max_read_lines}");
        assert_eq!((group_commit, seq_commit), (Ok(()), Ok(())));
        assert_eq!(group[2], (7, vec![0xee; 100]), "the own write");
        // 26 hits; 24 fetched, the own write and the earlier read served.
        let c = ordered_cluster(max_read_lines);
        let per_region = max_read_lines / c.stores[0].table(T_ORD).layout.lines();
        let (records, regions) = (24, 24u64.div_ceil(per_region.min(24) as u64));
        let cost = &c.opts.cost;
        assert_eq!(
            seq_ns - group_ns,
            (cost.htm_begin_ns + cost.htm_commit_ns) * (records - regions),
            "cap {max_read_lines}: {regions} regions"
        );
    }
}

/// A read group that finds a member locked by a committer drops its
/// region, backs off and retries the whole group: released by a sibling
/// routine that starts 100 µs later, it then reads every hit. A member
/// whose lock never frees aborts the read `LocalLockBusy`, and the
/// ladder's conflict site names that record.
#[test]
fn a_locked_group_member_backs_off_then_reads_or_aborts_on_it() {
    use drtm_store::{lock_word, LOCK_FREE};
    let c = ordered_cluster(4096);
    let off = c.stores[0].get_loc(T_ORD, 20).unwrap() as usize;
    let region = &c.stores[0].region;
    region.cas64(off, LOCK_FREE, lock_word(1)).unwrap();

    let mut w = c.worker(0, 1);
    let mut t = w.begin_ro();
    let busy = TxnError::Aborted(AbortReason::LocalLockBusy);
    assert_eq!(t.scan_local(T_ORD, 10, 30, usize::MAX), Err(busy));
    drop(t);
    let site = w.last_conflict.take().expect("the abort names its record");
    assert_eq!((site.table, site.key, site.addr), (T_ORD, 20, (0, off)));

    let workers = (0..2u64)
        .map(|id| {
            let mut w = c.worker(0, 5 + id);
            w.clock.advance(id * 100_000);
            w
        })
        .collect();
    let mut out = crate::routine::RoutinePool::run(workers, async |id, w| {
        if id == 1 {
            region.cas64(off, lock_word(1), LOCK_FREE).unwrap();
            return None;
        }
        let hits = w.run_ro_async(async |t| t.scan_local_async(T_ORD, 10, 30, 99).await);
        Some(hits.await)
    });
    let (w, hits) = out.remove(0);
    let hits = hits.unwrap().unwrap();
    assert_eq!(hits.len(), 21);
    assert!(hits.iter().all(|(k, v)| *v == [*k as u8; 100]));
    assert!(
        w.clock.now() > 100_000,
        "the read waited for the release: {}",
        w.clock.now()
    );
}

/// Waits for a committer on machine 0 that adds 1 to `key(0, 0)` —
/// written in HTM at C.4, never locked — and to `key(1, 0)`, locked at
/// C.1, to reach its C.5 WRITE toward machine 1, and holds it there.
/// The returned closure lets it finish and checks that it committed.
fn hold_committer_at_c5(c: &Arc<DrtmCluster>) -> impl FnOnce() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let first = AtomicBool::new(true);
    let tap = {
        let (held, release) = (Arc::clone(&held), Arc::clone(&release));
        Tap(move |dst, verb| {
            if (dst, verb) == (1, drtm_rdma::Verb::Write) && first.swap(false, Ordering::SeqCst) {
                held.wait();
                release.wait();
            }
            false
        })
    };
    c.fabric.set_injector(Arc::new(tap));
    let committer = {
        let c = Arc::clone(c);
        std::thread::spawn(move || {
            let mut w = c.worker(0, 1);
            w.run(|t| {
                for n in [0, 1] {
                    let v = t.read(n, T_ACCT, key(n, 0))?;
                    t.write(n, T_ACCT, key(n, 0), val(num(&v) + 1))?;
                }
                Ok(())
            })
        })
    };
    held.wait();
    let c = Arc::clone(c);
    move || {
        release.wait();
        assert_eq!(committer.join().unwrap(), Ok(()));
        c.fabric.clear_injector();
    }
}

/// ROADMAP 2(a): a read-only transaction reads `B` on machine 1 before
/// a committer locks it, then `A` on its own machine after the
/// committer's C.4 rewrote it, and validates while the committer is
/// held between C.4 and C.5 — `B` locked, still at its old sequence
/// number. Committing would publish `{A new, B old}`; the locked header
/// fails validation although `B` was read fresh, not from the cache.
#[test]
fn read_only_validation_rejects_a_remote_record_a_committer_holds() {
    let c = cluster(2, 1);
    let mut r = c.worker(0, 2);
    let mut t = r.begin_ro();
    assert_eq!(t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v)), Ok(100));
    let finish = hold_committer_at_c5(&c);
    let a = t.read(0, T_ACCT, key(0, 0)).map(|v| num(&v));
    let outcome = t.commit();
    finish();
    assert_eq!(a, Ok(101), "C.4 wrote the committer's local record");
    assert_eq!(outcome, Err(TxnError::Aborted(AbortReason::Validation)));
}

/// The mirror case: the reader runs on machine 1, so `B` is in its
/// *local* read set, locked by the remote committer, and `A` — local to
/// the committer, so never locked — is read over RDMA after C.4.
#[test]
fn read_only_validation_rejects_a_local_record_a_remote_committer_holds() {
    let c = cluster(2, 1);
    let mut r = c.worker(1, 2);
    let mut t = r.begin_ro();
    assert_eq!(t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v)), Ok(100));
    let finish = hold_committer_at_c5(&c);
    let a = t.read(0, T_ACCT, key(0, 0)).map(|v| num(&v));
    let outcome = t.commit();
    finish();
    assert_eq!(a, Ok(101), "C.4 wrote the committer's local record");
    assert_eq!(outcome, Err(TxnError::Aborted(AbortReason::Validation)));
}

/// The one-snapshot rule (DESIGN.md "Read-only txns"): a read-only
/// transaction whose one read saw its record unlocked at an even
/// sequence number serializes at that read, so its commit validates
/// nothing. A fresh remote read pays its record READ alone, and a local
/// read no header load at commit. Two reads still validate: the commit
/// posts both header READs behind one doorbell.
#[test]
fn one_record_read_only_commit_posts_no_validation() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let nic = || c.fabric.port(1).stats().snapshot();
    // Warms the location cache, so the measured read posts no probe.
    w.run_ro(|t| t.read(1, T_ACCT, key(1, 5))).unwrap();

    let base = nic();
    let mut t = w.begin_ro();
    assert_eq!(t.read(1, T_ACCT, key(1, 5)).map(|v| num(&v)), Ok(100));
    let at = t.w.clock.now();
    assert_eq!(t.commit(), Ok(()));
    assert_eq!(w.clock.now(), at, "a remote read: commit adds no time");
    let d = nic().delta(&base);
    assert_eq!((d.reads, d.doorbells), (1, 1), "the record READ: {d:?}");

    let mut t = w.begin_ro();
    assert_eq!(t.read(0, T_ACCT, key(0, 5)).map(|v| num(&v)), Ok(100));
    let at = t.w.clock.now();
    assert_eq!(t.commit(), Ok(()));
    assert_eq!(w.clock.now(), at, "a local read: no header load at commit");

    let mut t = w.begin_ro();
    t.read(1, T_ACCT, key(1, 5)).unwrap();
    t.read(1, T_ACCT, key(1, 6)).unwrap();
    let base = nic();
    assert_eq!(t.commit(), Ok(()));
    let d = nic().delta(&base);
    assert_eq!((d.reads, d.doorbells), (2, 1), "two header READs: {d:?}");
}

/// What the one-snapshot rule leaves to validation. A stale value-cache
/// hit — alone, or beside one fresh local read that is a snapshot of its
/// own — aborts `Validation` and drops its entry. A local record left
/// odd, as C.4 under replication leaves it, aborts while it stays odd
/// and, once its writer's makeup made it even, commits through the
/// validation pass's header load.
#[test]
fn one_snapshot_rule_still_validates_cached_and_odd_reads() {
    for beside in [false, true] {
        let c = cached_cluster(2, 1);
        let mut w = c.worker(0, 1);
        w.run_ro(|t| t.read(1, T_ACCT, key(1, 7))).unwrap();
        let mut home = c.worker(1, 2);
        home.run(|t| t.write(1, T_ACCT, key(1, 7), val(200)))
            .unwrap();
        let mut t = w.begin_ro();
        if beside {
            t.read(0, T_ACCT, key(0, 7)).unwrap();
        }
        assert_eq!(t.read(1, T_ACCT, key(1, 7)).map(|v| num(&v)), Ok(100));
        let validation = Err(TxnError::Aborted(AbortReason::Validation));
        assert_eq!(t.commit(), validation, "beside a fresh read: {beside}");
        assert_eq!(w.value_cache_len(1), 0, "failed validation invalidates");
    }

    let c = cluster(3, 3);
    let off = c.stores[0].get_loc(T_ACCT, key(0, 9)).unwrap() as usize;
    let rec = c.stores[0].record(T_ACCT, off);
    rec.write_locked(&val(555), 3);
    let mut w = c.worker(0, 1);
    for makeup in [false, true] {
        let mut t = w.begin_ro();
        assert_eq!(t.read(0, T_ACCT, key(0, 9)).map(|v| num(&v)), Ok(555));
        if makeup {
            rec.set_seq(4);
        }
        let at = t.w.clock.now();
        let outcome = t.commit();
        if makeup {
            assert_eq!(outcome, Ok(()));
            assert_eq!(w.clock.now() - at, c.opts.cost.mem_access_ns);
        } else {
            assert_eq!(outcome, Err(TxnError::Aborted(AbortReason::Validation)));
        }
    }
}

/// One-record reads around a committer held between C.4 and C.5: a
/// read of its local `A`, rewritten in HTM at C.4 and never locked,
/// commits 101 with no validation; a following read of `B`, locked
/// since C.1, retries the lock and aborts rather than return the old
/// 100; once the committer finishes, `B` reads 101.
#[test]
fn one_record_reads_see_a_held_committer_in_order() {
    let c = cluster(2, 1);
    let finish = hold_committer_at_c5(&c);
    let mut r = c.worker(0, 2);
    let mut t = r.begin_ro();
    assert_eq!(t.read(0, T_ACCT, key(0, 0)).map(|v| num(&v)), Ok(101));
    let at = t.w.clock.now();
    assert_eq!(t.commit(), Ok(()));
    assert_eq!(r.clock.now(), at, "no validation");

    let mut t = r.begin_ro();
    let b = t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v));
    drop(t);
    finish();
    let inconsistent = TxnError::Aborted(AbortReason::RemoteInconsistent);
    assert_eq!(b, Err(inconsistent), "a locked B is never read");
    let b = r.run_ro(|t| t.read(1, T_ACCT, key(1, 0))).map(|v| num(&v));
    assert_eq!(b, Ok(101));
}

/// One-record reads are linearizable. Writers on both machines
/// increment four counters, two homed on each, and publish each value
/// after its commit returns. Eight routines on machine 0 read one
/// counter per read-only transaction, local or remote, with the value
/// cache off and on. A read returns at least what was published before
/// it began, and at most what was published after it returned plus one
/// unpublished increment per writer; no routine sees a counter go back.
#[test]
fn one_record_reads_are_linearizable() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    const WRITERS: u64 = 2;
    const COUNTERS: [(usize, u64); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
    for cached in [false, true] {
        let opts = EngineOpts::builder()
            .region_size(4 << 20)
            .value_cache(cached)
            .read_mostly_tables(vec![T_ACCT])
            .build();
        let c = DrtmCluster::new(2, &schema(), opts);
        for (n, k) in COUNTERS {
            c.seed_record(n, T_ACCT, key(n, k), &val(0));
        }
        let published: Arc<Vec<AtomicU64>> =
            Arc::new(COUNTERS.iter().map(|_| AtomicU64::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|id| {
                let (c, published) = (Arc::clone(&c), Arc::clone(&published));
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut w = c.worker(id as usize, 100 + id);
                    let mut i = id as usize;
                    while !stop.load(SeqCst) {
                        let at = i % COUNTERS.len();
                        i += 1;
                        let (n, k) = COUNTERS[at];
                        let v = w.run(|t| {
                            let v = num(&t.read(n, T_ACCT, key(n, k))?) + 1;
                            t.write(n, T_ACCT, key(n, k), val(v))?;
                            Ok(v)
                        });
                        published[at].fetch_max(v.unwrap(), SeqCst);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let readers = (0..8).map(|id| c.worker(0, 10 + id)).collect();
        let out = crate::routine::RoutinePool::run(readers, async |id, w| {
            let mut seen = [0u64; COUNTERS.len()];
            for i in 0..150 {
                let at = (id + i) % COUNTERS.len();
                let (n, k) = COUNTERS[at];
                let floor_before = published[at].load(SeqCst);
                let read = w.run_ro_async(async |t| t.read_async(n, T_ACCT, key(n, k)).await);
                let v = num(&read.await.unwrap());
                let floor_after = published[at].load(SeqCst);
                if v < floor_before.max(seen[at]) || v > floor_after + WRITERS {
                    return Some((at, floor_before, seen[at], v, floor_after));
                }
                seen[at] = v;
            }
            None
        });
        stop.store(true, SeqCst);
        writers.into_iter().for_each(|h| h.join().unwrap());
        for (_, bad) in out {
            // (counter, floor before, last seen, read, floor after)
            assert_eq!(bad, None, "value cache on: {cached}");
        }
    }
}

/// Kills the probed machine at the `nth` passage of `point`.
struct CrashAtNth {
    point: &'static str,
    nth: usize,
    seen: std::sync::atomic::AtomicUsize,
}

impl crate::CrashPointHook for CrashAtNth {
    fn on_point(&self, _node: drtm_rdma::NodeId, point: &'static str) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        point == self.point && self.seen.fetch_add(1, SeqCst) + 1 == self.nth
    }
}

/// A machine dying at any [`crate::commit::STAGES`] probe of a
/// transaction that writes **two** remote machines (and itself) leaves
/// something recovery makes whole, under the HTM walk and under the
/// `Mode::Locked` fallback alike: all three records old before R.1's
/// logs are durable, all three new from there on — never a mix — with
/// no lock left on a survivor. With C.1, C.5 and C.6 each one park over
/// both machines there is no "between the machines" state any more: at
/// the C.1 probe both are locked, at the C.5 probe both are written.
#[test]
fn crash_at_every_stage_with_two_written_machines_is_atomic() {
    for locked in [false, true] {
        for stage in &crate::commit::STAGES {
            let opts = EngineOpts::builder()
                .replicas(3)
                .region_size(4 << 20)
                .htm(drtm_htm::HtmConfig {
                    spurious_abort_prob: if locked { 1.0 } else { 0.0 },
                    max_retries: 2,
                    ..Default::default()
                })
                .build();
            let c = DrtmCluster::new(4, &schema(), opts);
            for shard in 0..4 {
                c.seed_record(shard, T_ACCT, key(shard, 0), &val(100));
            }
            // The fallback re-enters the walk: its C.1 and C.2 are the
            // second passage of those probes.
            let reentered = locked && ["C.1", "C.2"].contains(&stage.probe);
            c.set_crash_hook(Arc::new(CrashAtNth {
                point: stage.probe,
                nth: if reentered { 2 } else { 1 },
                seen: Default::default(),
            }));
            let mut w = c.worker(0, 1);
            let died = w.run(|t| {
                let a = num(&t.read(0, T_ACCT, key(0, 0))?);
                let [b, d] = [1, 2].map(|n| t.read(n, T_ACCT, key(n, 0)));
                t.write(0, T_ACCT, key(0, 0), val(a - 2))?;
                t.write(1, T_ACCT, key(1, 0), val(num(&b?) + 1))?;
                t.write(2, T_ACCT, key(2, 0), val(num(&d?) + 1))
            });
            let arm = format!(
                "{} at {}",
                if locked { "locked" } else { "htm" },
                stage.probe
            );
            assert_eq!(died, Err(TxnError::Crashed), "{arm}");
            assert_eq!(w.stats.fallbacks, u64::from(locked), "{arm}");
            c.clear_crash_hook();
            c.crash(0);
            recover_node(&c, 0);
            let mut survivor = c.worker(3, 2);
            let got = [0, 1, 2].map(|n| {
                let v = survivor.run_ro(|t| t.read(n, T_ACCT, key(n, 0)));
                num(&v.unwrap_or_else(|e| panic!("{arm}: shard {n}: {e:?}")))
            });
            let durable = !["C.1", "C.2", "C.4"].contains(&stage.probe);
            let want = if durable { [98, 101, 101] } else { [100; 3] };
            assert_eq!(got, want, "{arm}");
            // Nothing dangles: every record can be locked and rewritten.
            survivor
                .run(|t| {
                    for n in [0, 1, 2] {
                        let v = num(&t.read(n, T_ACCT, key(n, 0))?);
                        t.write(n, T_ACCT, key(n, 0), val(v + 1))?;
                    }
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{arm}: {e:?}"));
            assert_eq!(survivor.stats.aborted, 0, "{arm}");
        }
    }
}

// ---------------------------------------------------------------------
// Read-mostly value cache (DESIGN.md §8).
// ---------------------------------------------------------------------

fn cached_cluster(n: usize, replicas: usize) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(replicas)
        .region_size(4 << 20)
        .read_mostly_tables(vec![T_ACCT])
        .build();
    let c = DrtmCluster::new(n, &schema(), opts);
    for shard in 0..n {
        for k in 0..64u64 {
            c.seed_record(shard, T_ACCT, key(shard, k), &val(100));
        }
    }
    c
}

/// NIC accounting: a cache hit issues no execution-phase READ at all,
/// and the C.2 validation that replaces it charges exactly
/// `HEADER_BYTES` — a partial cache line — instead of the record size.
#[test]
fn value_cache_hit_charges_one_header_line() {
    use drtm_store::HEADER_BYTES;
    let c = cached_cluster(2, 1);
    let layout = c.stores[0].table(T_ACCT).layout;
    assert!(HEADER_BYTES < layout.size(), "savings must be real");
    let mut w = c.worker(0, 1);

    // Miss: the full record travels (plus location probes).
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 5))).unwrap();
    assert_eq!(num(&v), 100);

    // Hit: the only verb of the whole transaction is one header READ.
    let base = c.fabric.port(1).stats().snapshot();
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 5))).unwrap();
    assert_eq!(num(&v), 100);
    let d = c.fabric.port(1).stats().snapshot().delta(&base);
    assert_eq!(d.reads, 1, "one C.2 header validation: {d:?}");
    assert_eq!(d.atomics, 0, "read-only commit takes no locks: {d:?}");
    assert_eq!(
        d.bytes, HEADER_BYTES as u64,
        "validation charges the header line, not the record: {d:?}"
    );

    let snap = c.obs.scrape();
    assert_eq!(snap.cache.hits, 1);
    assert_eq!(snap.cache.misses, 1);
    assert_eq!(snap.cache.bytes_saved, layout.size() as u64);
}

/// Serializability: a cached read of a record a remote writer has since
/// rewritten is always caught by the C.2 header validation — the stale
/// value is never committed — and the failure invalidates the entry so
/// the retry refetches.
#[test]
fn stale_cached_read_is_caught_at_validation() {
    let c = cached_cluster(2, 1);
    let mut w0 = c.worker(0, 1);
    let v = w0.run_ro(|t| t.read(1, T_ACCT, key(1, 7))).unwrap();
    assert_eq!(num(&v), 100);
    assert_eq!(w0.value_cache_len(1), 1);

    // The home node rewrites the record behind the cache's back.
    let mut w1 = c.worker(1, 2);
    w1.run(|t| t.write(1, T_ACCT, key(1, 7), val(200))).unwrap();

    // The stale hit is served during execution but cannot commit.
    let mut ctx = w0.begin_ro();
    let stale = ctx.read(1, T_ACCT, key(1, 7)).unwrap();
    assert_eq!(num(&stale), 100, "execution serves the cached value");
    assert!(matches!(
        ctx.commit(),
        Err(TxnError::Aborted(AbortReason::Validation))
    ));
    assert_eq!(w0.value_cache_len(1), 0, "failed validation invalidates");

    // The retry refetches the fresh value and re-caches it.
    let v = w0.run_ro(|t| t.read(1, T_ACCT, key(1, 7))).unwrap();
    assert_eq!(num(&v), 200);
    assert_eq!(w0.value_cache_len(1), 1);
    assert!(c.obs.scrape().cache.invalidations >= 1);
}

/// C.5 write-through: a transaction that rewrites a record it has
/// cached refreshes its own entry, so subsequent hits keep validating —
/// zero invalidations across a read-modify-write loop.
#[test]
fn write_through_keeps_own_cache_coherent() {
    let c = cached_cluster(2, 1);
    let mut w = c.worker(0, 1);
    for _ in 0..3 {
        w.run(|t| {
            let v = num(&t.read(1, T_ACCT, key(1, 9))?);
            t.write(1, T_ACCT, key(1, 9), val(v + 1))
        })
        .unwrap();
    }
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 9))).unwrap();
    assert_eq!(num(&v), 103);
    assert_eq!(w.stats.aborted, 0);
    let snap = c.obs.scrape();
    assert_eq!(snap.cache.invalidations, 0, "write-through, not refetch");
    assert!(snap.cache.hits >= 3, "later reads hit: {:?}", snap.cache);
}

/// Recovery invalidation: a machine death and the reconfiguration that
/// recovers it bump the configuration epoch; the next transaction prunes
/// every value-cache entry filled under the old membership — including
/// all of the dead node's — so re-homed shards never serve stale bytes.
#[test]
fn recovery_epoch_bump_drops_cached_entries() {
    let c = cached_cluster(3, 2);
    let mut w = c.worker(0, 1);
    w.run_ro(|t| {
        t.read(1, T_ACCT, key(1, 3))?;
        t.read(2, T_ACCT, key(2, 3))
    })
    .unwrap();
    assert_eq!(w.value_cache_len(1), 1);
    assert_eq!(w.value_cache_len(2), 1);

    c.crash(2);
    recover_node(&c, 2);

    // The next transaction begins under the new epoch and prunes.
    let v = w.run_ro(|t| t.read(1, T_ACCT, key(1, 3))).unwrap();
    assert_eq!(num(&v), 100);
    assert_eq!(w.value_cache_len(2), 0, "dead node's entries dropped");
    assert!(c.obs.scrape().cache.invalidations >= 2);
}

/// Runs `job` on a pool of four routines of machine 0 — one worker
/// thread, one shared cache set. Routine `id` starts at virtual time
/// `id` ms, far beyond any single transaction here, so the routines'
/// transactions run strictly in id order.
fn staggered_pool<T>(
    c: &Arc<DrtmCluster>,
    job: impl AsyncFn(usize, &mut crate::txn::Worker) -> T,
) -> Vec<T> {
    let workers = (0..4u64)
        .map(|id| {
            let mut w = c.worker(0, 30 + id);
            w.clock.advance(id * 1_000_000);
            w
        })
        .collect();
    let done = crate::routine::RoutinePool::run(workers, job);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One cache set per worker thread: what routine 0 fetched, routine 1
/// is served from — its whole transaction is the one C.2 header READ.
#[test]
fn sibling_routine_hits_what_another_routine_fetched() {
    use drtm_store::HEADER_BYTES;
    let c = cached_cluster(2, 1);
    let nic = || c.fabric.port(1).stats().snapshot();
    let deltas = staggered_pool(&c, async |id, w| {
        if id > 1 {
            return None;
        }
        let base = nic();
        let v = w.run_ro_async(async |t| t.read_async(1, T_ACCT, key(1, 5)).await);
        assert_eq!(num(&v.await.unwrap()), 100);
        Some(nic().delta(&base))
    });
    let miss = deltas[0].unwrap();
    assert!(miss.bytes > HEADER_BYTES as u64, "the record travels once");
    let hit = deltas[1].unwrap();
    assert_eq!((hit.reads, hit.atomics, hit.writes), (1, 0, 0), "{hit:?}");
    assert_eq!(hit.bytes, HEADER_BYTES as u64, "{hit:?}");
    let snap = c.obs.scrape();
    assert_eq!((snap.cache.hits, snap.cache.misses), (1, 1));
}

/// C.5 write-through warms siblings: routine 1 reads what routine 0
/// just rewrote from the refreshed entry and validates first time.
#[test]
fn write_through_warms_sibling_routines() {
    let c = cached_cluster(2, 1);
    let aborted = staggered_pool(&c, async |id, w| {
        match id {
            0 => w
                .run_async(async |t| {
                    let v = num(&t.read_async(1, T_ACCT, key(1, 9)).await?);
                    t.write_async(1, T_ACCT, key(1, 9), val(v + 1)).await
                })
                .await
                .unwrap(),
            1 => {
                let v = w.run_ro_async(async |t| t.read_async(1, T_ACCT, key(1, 9)).await);
                assert_eq!(num(&v.await.unwrap()), 101);
            }
            _ => {}
        }
        w.stats.aborted
    });
    assert_eq!(aborted, [0; 4]);
    let snap = c.obs.scrape();
    assert_eq!(snap.cache.invalidations, 0, "write-through, not refetch");
    assert_eq!((snap.cache.hits, snap.cache.misses), (1, 1));
}

/// A rewrite by the home node behind the pool's back: the first routine
/// to hit the stale entry aborts at C.2 and drops it — once, for the
/// whole thread — and the next routine refetches the fresh value.
#[test]
fn stale_shared_entry_aborts_once_and_the_next_routine_refetches() {
    let c = cached_cluster(2, 1);
    staggered_pool(&c, async |id, w| match id {
        0 => {
            let v = w.run_ro_async(async |t| t.read_async(1, T_ACCT, key(1, 7)).await);
            assert_eq!(num(&v.await.unwrap()), 100);
        }
        1 => {
            let mut home = c.worker(1, 2);
            home.run(|t| t.write(1, T_ACCT, key(1, 7), val(200)))
                .unwrap();
            let mut ctx = w.begin_ro();
            let stale = ctx.read_async(1, T_ACCT, key(1, 7)).await.unwrap();
            assert_eq!(num(&stale), 100, "execution serves the shared entry");
            assert_eq!(
                ctx.commit_async().await,
                Err(TxnError::Aborted(AbortReason::Validation))
            );
            assert_eq!(w.value_cache_len(1), 0, "failed validation invalidates");
        }
        _ => {
            let v = w.run_ro_async(async |t| t.read_async(1, T_ACCT, key(1, 7)).await);
            assert_eq!(num(&v.await.unwrap()), 200);
            assert_eq!(w.stats.aborted, 0);
        }
    });
    let snap = c.obs.scrape();
    assert_eq!(snap.cache.invalidations, 1);
    // Routine 0 missed, 1 hit stale, 2 refetched, 3 hit fresh.
    assert_eq!((snap.cache.hits, snap.cache.misses), (2, 2));
}

/// Recovery under a live pool: the first routine to begin under the new
/// epoch prunes the thread's set — both pre-crash entries, each counted
/// once — and its siblings find the epoch current and nothing to drop.
#[test]
fn epoch_prune_runs_once_per_cache_set() {
    let c = cached_cluster(3, 2);
    staggered_pool(&c, async |id, w| {
        if id == 0 {
            w.run_ro_async(async |t| {
                t.read_async(1, T_ACCT, key(1, 3)).await?;
                t.read_async(2, T_ACCT, key(2, 3)).await
            })
            .await
            .unwrap();
            assert_eq!((w.value_cache_len(1), w.value_cache_len(2)), (1, 1));
            return;
        }
        if id == 1 {
            c.crash(2);
            recover_node(&c, 2);
        }
        // Shard 2 is re-homed: every later routine reads it through the
        // new shard map and never from a pre-crash entry.
        let v = w.run_ro_async(async |t| t.read_async(2, T_ACCT, key(2, 3)).await);
        assert_eq!(num(&v.await.unwrap()), 100);
        assert_eq!(w.value_cache_len(2), 0, "dead node's entries dropped");
        assert_eq!(c.obs.scrape().cache.invalidations, 2);
    });
}

// ---------------------------------------------------------------------
// Routine scheduler (DESIGN.md §11)
// ---------------------------------------------------------------------

/// The workload both arms of the routines=1 identity test run: a mix of
/// local, remote and replicated read-modify-writes, plus a read-only
/// audit — every commit-path doorbell site fires at least once.
async fn identity_job(w: &mut crate::txn::Worker, txns: u64) {
    for i in 0..txns {
        let k = i % 4;
        w.run_async(async |t| {
            let a = num(&t.read_async(0, T_ACCT, key(0, k)).await?);
            let b = num(&t.read_async(1, T_ACCT, key(1, k)).await?);
            t.write_async(0, T_ACCT, key(0, k), val(a + 1)).await?;
            t.write_async(1, T_ACCT, key(1, k), val(b + 1)).await
        })
        .await
        .unwrap();
        w.run_ro_async(async |t| t.read_async(1, T_ACCT, key(1, k)).await)
            .await
            .unwrap();
    }
}

/// `(count, sum, p50, p99)` per phase, in [`drtm_obs::Phase::ALL`]
/// order — the digest the routines = 1 pins compare.
fn phase_digest(v: &[(&'static str, drtm_obs::HistSummary)]) -> Vec<(u64, u64, u64, u64)> {
    v.iter()
        .map(|(_, h)| (h.count, h.sum, h.p50, h.p99))
        .collect()
}

/// Pin: one routine charges what the blocking engine charged. The
/// constants were recorded from a worker on the pre-reactor blocking
/// wait path (a private CQ and one `Cq::poll` per doorbell) the commit
/// before that path was deleted; a worker outside any pool and a pool
/// of one must both still land on them — same final clock, commit
/// counts, per-verb NIC traffic and per-phase virtual-time breakdown.
///
/// Re-recorded once since, when C.2's header READs moved into C.1's
/// doorbell (DESIGN.md §7). Each of the 12 read-write commits used to
/// pay one validate round trip of `doorbell_ns + rdma_read(24)` =
/// 250 + 1 503 ns; the READ now issues 100 ns behind the CAS and lands
/// 597 ns before it, so the lock phase costs what it did and the whole
/// round trip is gone: validate 21 036 -> 0 ns (its wait 18 036 -> 0),
/// final clock 190 192 -> 169 156 = minus 21 036, verb wait 137 712 ->
/// 119 676 = minus 18 036, 12 fewer doorbells (100 -> 88) and 12 fewer
/// parks (wakes and depth 88 -> 76). Every verb count, byte and `saved`
/// and every other phase is what the blocking path recorded.
///
/// And once more when C.6's unlock CAS moved into C.5's doorbell
/// (unsignalled, behind the line image): each of the 12 read-write
/// commits used to ring a doorbell of its own for it, 250 ns of worker
/// clock and nothing else — unlock 3 000 -> 0 ns, final clock 169 156
/// -> 166 156 = minus 12 x 250, doorbells 88 -> 76. The update phase
/// still ends at the WRITE's horizon (19 836 ns, wait 16 836): the CAS
/// is posted behind the WRITE and nobody waits for it. Wakes, verb
/// waits, every verb count, byte and `saved` stand.
///
/// And once more when a write to a record the transaction read took the
/// read's location (DESIGN.md §4): each of the 12 read-write commits
/// rewrites one local and one remote record it read, and neither write
/// pays its own `record_logic_ns` (180 ns) any more — execute 37 984 ->
/// 33 664 ns, final clock 166 156 -> 161 836 = minus 12 x 2 x 180. Its
/// p50/p99 buckets fall with it (3 584 / 8 192 -> 3 072 / 4 096). The
/// location cache answered both lookups before, so no verb, wait or
/// other phase moves.
///
/// And once more when a read-only transaction built by one atomic read
/// of committed records stopped validating (DESIGN.md "Read-only
/// txns"): each of the 12 read-only commits reads one remote record
/// fresh, and loses its validation round trip of `doorbell_ns +
/// rdma_read(24)` = 250 + 1 503 ns — final clock 161 836 -> 140 800 =
/// minus 12 x 1 753, verb wait 119 676 -> 101 640 = minus 12 x 1 503,
/// 12 fewer READs (52 -> 40), doorbells (76 -> 64) and parks (wakes
/// and depth 76 -> 64), and 12 x 24 fewer bytes (3 388 -> 3 100). Both
/// phase digests stand: read-only commits enter no phase histogram.
#[test]
fn routines_one_matches_blocking_path_pins() {
    use drtm_rdma::NicSnapshot;
    let build = || {
        let opts = EngineOpts::builder()
            .replicas(2)
            .region_size(4 << 20)
            .build();
        let c = DrtmCluster::new(2, &schema(), opts);
        for shard in 0..2 {
            for k in 0..8u64 {
                c.seed_record(shard, T_ACCT, key(shard, k), &val(100));
            }
        }
        c
    };
    let check = |arm: &str, c: &DrtmCluster, w: &crate::txn::Worker| {
        assert_eq!(w.clock.now(), 140_800, "{arm}: virtual time");
        assert_eq!((w.stats.committed, w.stats.aborted), (24, 0), "{arm}");
        let nic = |node| c.fabric.port(node).stats().snapshot();
        assert_eq!(nic(0), NicSnapshot::default(), "{arm}: node 0 traffic");
        let expect = NicSnapshot {
            reads: 40,
            writes: 24,
            atomics: 24,
            sends: 0,
            doorbells: 64,
            bytes: 3100,
            saved: 12,
        };
        assert_eq!(nic(1), expect, "{arm}: node 1 traffic");
        let snap = c.obs.scrape();
        assert_eq!(
            phase_digest(&snap.phases),
            [
                (12, 33664, 3072, 4096),
                (12, 29400, 3072, 4096),
                (12, 0, 1, 2),
                (12, 840, 96, 128),
                (12, 19872, 1536, 2048),
                (12, 720, 48, 64),
                (12, 19836, 1536, 2048),
                (12, 0, 1, 2),
            ],
            "{arm}: per-phase breakdown"
        );
        assert_eq!(
            phase_digest(&snap.phase_waits),
            [
                (12, 24144, 1792, 4096),
                (12, 26400, 3072, 4096),
                (12, 0, 1, 2),
                (12, 0, 1, 2),
                (12, 16152, 1536, 2048),
                (12, 0, 1, 2),
                (12, 16836, 1536, 2048),
                (12, 0, 1, 2),
            ],
            "{arm}: per-phase verb waits"
        );
        assert_eq!(snap.pipeline.wait_ns, 101_640, "{arm}");
        // A single routine can never overlap its own waits, and is
        // resumed exactly at each wake horizon.
        assert_eq!(snap.pipeline.overlap_ns, 0, "{arm}");
        assert_eq!(snap.pipeline.routines, 1, "{arm}");
        assert_eq!(snap.pipeline.wakes, 64, "{arm}");
        assert_eq!(snap.pipeline.depth_sum, 64, "{arm}");
        assert_eq!(snap.pipeline.wake_lag_ns, 0, "{arm}");
    };

    // A worker outside any pool: every wait resolves inside its yield
    // point, so one poll drives the whole job.
    let c = build();
    let mut w = c.worker(0, 42);
    drtm_base::task::block_now(identity_job(&mut w, 12));
    check("bare worker", &c, &w);

    // The same worker seed driven through a pool of one.
    let c = build();
    let w = c.worker(0, 42);
    let mut out = crate::routine::RoutinePool::run(vec![w], async |_, w| identity_job(w, 12).await);
    check("pool of one", &c, &out.remove(0).0);
}

/// A bare worker under fault injection: sync `t.read`/`t.write` bodies
/// still finish in `block_now`'s single poll when the injector delays
/// one WR and drops another — the delayed completion is waited out
/// inline, the dropped one surfaces through its `WorkCompletion` and is
/// retried (execution READ) or aborts retriably (commit path) — and the
/// scrape shows the waits went through the worker's reactor of one.
#[test]
fn bare_worker_waits_inline_under_injected_delay_and_drop() {
    use drtm_rdma::{Fault, FaultInjector, NodeId, Verb};
    use std::sync::atomic::{AtomicU64, Ordering};
    /// Delays the 2nd one-sided WR it sees by 40 µs and drops the 5th.
    struct DelayThenDrop(AtomicU64);
    impl FaultInjector for DelayThenDrop {
        fn on_verb(&self, _src: NodeId, _dst: NodeId, verb: Verb, _now: u64) -> Fault {
            if verb == Verb::Send {
                return Fault::NONE;
            }
            match self.0.fetch_add(1, Ordering::Relaxed) {
                1 => Fault {
                    delay_ns: 40_000,
                    ..Fault::NONE
                },
                4 => Fault {
                    drop: true,
                    ..Fault::NONE
                },
                _ => Fault::NONE,
            }
        }
    }
    let opts = EngineOpts::builder().region_size(4 << 20).build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for k in 0..4u64 {
        c.seed_record(1, T_ACCT, key(1, k), &val(100));
    }
    c.fabric
        .set_injector(Arc::new(DelayThenDrop(AtomicU64::new(0))));
    let mut w = c.worker(0, 5);
    let mut outcomes = Vec::new();
    for k in 0..4u64 {
        // `Worker::run` is `block_now` over the async engine: a wait
        // that suspended would panic here.
        outcomes.push(w.run(|t| {
            let v = num(&t.read(1, T_ACCT, key(1, k))?);
            t.write(1, T_ACCT, key(1, k), val(v + 1))
        }));
    }
    for r in &outcomes {
        assert!(
            matches!(
                r,
                Ok(()) | Err(TxnError::Aborted(_)) | Err(TxnError::Transport(_))
            ),
            "commit or retriable abort, got {r:?}"
        );
    }
    assert!(outcomes.iter().any(|r| r.is_ok()), "{outcomes:?}");
    assert!(w.clock.now() >= 40_000, "the injected delay was waited out");
    let snap = c.obs.scrape();
    assert_eq!(snap.pipeline.routines, 1);
    assert!(snap.pipeline.wakes > 0);
    assert_eq!(snap.pipeline.overlap_ns, 0);
    // Nothing was lost to the drop: every key reads 100 or 101.
    c.fabric.clear_injector();
    for k in 0..4u64 {
        let v = num(&w.run_ro(|t| t.read(1, T_ACCT, key(1, k))).unwrap());
        assert_eq!(v, 100 + u64::from(outcomes[k as usize].is_ok()), "key {k}");
    }
}

/// Acceptance: with several routines in flight, verb waits genuinely
/// overlap — the pool finishes the same conflict-free cross-node work
/// in materially less virtual time than the routines would take
/// back-to-back, and the exposed latency-hiding ratio reflects it.
#[test]
fn routines_overlap_independent_verb_waits() {
    const R: usize = 4;
    const TXNS: u64 = 8;
    let build = || {
        let opts = EngineOpts::builder().region_size(4 << 20).build();
        let c = DrtmCluster::new(2, &schema(), opts);
        for shard in 0..2 {
            for k in 0..64u64 {
                c.seed_record(shard, T_ACCT, key(shard, k), &val(100));
            }
        }
        c
    };
    // Each routine owns a disjoint key range on the remote node, so no
    // aborts perturb the comparison.
    let job = async |id: usize, w: &mut crate::txn::Worker| {
        for i in 0..TXNS {
            let k = (id as u64) * 8 + (i % 8);
            w.run_async(async |t| {
                let v = num(&t.read_async(1, T_ACCT, key(1, k)).await?);
                t.write_async(1, T_ACCT, key(1, k), val(v + 1)).await
            })
            .await
            .unwrap();
        }
    };

    // Serial baseline: the same R jobs on R fresh workers, one after
    // another (sum of their virtual spans).
    let ca = build();
    let mut serial_ns = 0u64;
    for id in 0..R {
        let mut w = ca.worker(0, 7 + id as u64);
        drtm_base::task::block_now(job(id, &mut w));
        serial_ns += w.clock.now();
    }

    // Pipelined: the same jobs as one pool; wall-clock is the slowest
    // routine's clock.
    let cb = build();
    let workers: Vec<_> = (0..R).map(|id| cb.worker(0, 7 + id as u64)).collect();
    let done = crate::routine::RoutinePool::run(workers, async |id, w| job(id, w).await);
    let pipelined_ns = done.iter().map(|(w, _)| w.clock.now()).max().unwrap();

    assert!(
        (pipelined_ns as f64) < 0.75 * serial_ns as f64,
        "pipelining hid too little latency: {pipelined_ns} vs serial {serial_ns}"
    );
    let snap = cb.obs.scrape();
    assert_eq!(snap.committed, (R as u64) * TXNS);
    assert_eq!(snap.pipeline.routines, R as u64);
    assert!(snap.pipeline.wait_ns > 0);
    assert!(
        snap.pipeline.hiding_ratio() > 0.25,
        "expected real overlap, got {:?}",
        snap.pipeline
    );
    // The work itself still committed correctly.
    let mut audit = cb.worker(1, 99);
    for id in 0..R as u64 {
        for i in 0..8u64.min(TXNS) {
            let v = audit
                .run_ro(|t| t.read(1, T_ACCT, key(1, id * 8 + i)))
                .unwrap();
            assert_eq!(num(&v), 101, "routine {id} key {i}");
        }
    }
}

/// Conflicting routines of one pool stay live: every routine hammers
/// the *same* two records, so a routine parked while holding a lock (or
/// spinning on one) must hand the baton around for anyone to finish.
#[test]
fn conflicting_routines_make_progress() {
    let opts = EngineOpts::builder().region_size(4 << 20).build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for shard in 0..2 {
        c.seed_record(shard, T_ACCT, key(shard, 0), &val(1000));
    }
    let workers: Vec<_> = (0..4).map(|id| c.worker(0, 100 + id as u64)).collect();
    let done = crate::routine::RoutinePool::run(workers, async |_, w| {
        for _ in 0..6 {
            w.run_async(async |t| {
                let a = num(&t.read_async(0, T_ACCT, key(0, 0)).await?);
                let b = num(&t.read_async(1, T_ACCT, key(1, 0)).await?);
                t.write_async(0, T_ACCT, key(0, 0), val(a - 1)).await?;
                t.write_async(1, T_ACCT, key(1, 0), val(b + 1)).await
            })
            .await
            .unwrap();
        }
    });
    assert_eq!(done.len(), 4);
    let mut audit = c.worker(1, 99);
    let a = num(&audit.run_ro(|t| t.read(0, T_ACCT, key(0, 0))).unwrap());
    let b = num(&audit.run_ro(|t| t.read(1, T_ACCT, key(1, 0))).unwrap());
    assert_eq!(a, 1000 - 24);
    assert_eq!(b, 1000 + 24);
    assert_eq!(a + b, 2000, "transfers conserve under contention");
}

/// Schedule pin, R = 3, CPU-bound: routine 0 commits one remote
/// read-modify-write while routines 1 and 2 are execution-phase
/// stand-ins that burn 4 us of CPU after every remote READ — longer
/// than a verb round trip, so whenever a segment ends both other
/// routines' completions have already landed. (They post bare READs:
/// one park per read, where a transaction's first read of a key is two
/// — the location probe is a posted verb like any other.) `(wake, id)`
/// order would make routine 0 queue behind both siblings at its C.1
/// park (C.2's READ in the same doorbell), its locks held throughout;
/// the reactor instead resumes it at the first scheduling point after
/// its completions land. At its C.5 park the priority is over — the
/// unlock rides that doorbell, so nothing is held for the core any
/// more — and it takes its `(wake, id)` turn. The log is every resume
/// in grant order: the commit's stage probes (fired as routine 0 runs
/// on from the park) and `r<id>` for each READ a stand-in returns from.
#[test]
fn lock_holder_resumes_ahead_of_landed_execution_reads() {
    let c = cluster(2, 1);
    let log = Arc::new(ProbeLog(Default::default()));
    c.set_crash_hook(log.clone());
    let workers: Vec<_> = (0..3).map(|id| c.worker(0, 60 + id)).collect();
    let done = crate::routine::RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            return w
                .run_async(async |t| {
                    let v = num(&t.read_async(1, T_ACCT, key(1, 0)).await?);
                    t.write_async(1, T_ACCT, key(1, 0), val(v + 1)).await
                })
                .await;
        }
        for _ in 0..4 {
            let read = drtm_rdma::WorkRequest::Read { raddr: 0, len: 64 };
            w.ring(1, vec![read], 1).await;
            log.0.lock().unwrap().push(["", "r1", "r2"][id]);
            w.clock.advance(4_000);
        }
        Ok(())
    });
    assert!(done.iter().all(|(_, r)| r.is_ok()));
    // Routine 0's probe and record READ each wait out a sibling
    // segment, so its C.1 + C.2 batch parks at 16 678, as r2's second
    // segment begins, rings there and lands inside it. When that
    // segment ends (20 678) r1's third READ has landed too, and
    // earlier: under `(wake, id)` alone this reads r1 r2 r1 r2 r1 C.1 ..
    // R.2 r2 C.5 .. — a 4 us segment ahead of the holder. Instead the
    // holder is granted at 20 678 and runs C.1 to its C.5 post, r1
    // follows at 20 718, and the holder's C.5 batch, landed inside
    // r1's segment, takes its `(wake, id)` turn after it.
    assert_eq!(
        *log.0.lock().unwrap(),
        [
            "r1", "r2", "r1", "r2", "C.1", "C.2", "C.4", "R.1", "R.2", "r1", "C.5", "C.6", "r2",
            "r1", "r2"
        ]
    );
}

/// The shared admission queue is a one-member group: it sheds at the
/// high-water mark and counts it, pops FIFO, and drains after close.
#[test]
fn submit_queue_sheds_past_high_water() {
    use crate::routine::{Admission, QueueGroup};
    let q: QueueGroup<u64> = QueueGroup::new(1, 3, 3, 0);
    assert_eq!(q.submit(0, 1), Admission::Admitted);
    assert_eq!(q.submit(0, 2), Admission::Admitted);
    assert_eq!(q.submit(0, 3), Admission::Admitted);
    assert_eq!(q.submit(0, 4), Admission::Rejected, "queue full must shed");
    assert_eq!(q.depth(0), 3);
    assert_eq!(q.try_pop(0), Some(1));
    assert_eq!(q.delivered(0), 1, "pop counts as a delivery");
    assert_eq!(q.submit(0, 5), Admission::Admitted, "pop frees a slot");
    assert_eq!((q.accepted_total(), q.rejected_total()), (4, 1));
    q.close();
    assert_eq!(q.submit(0, 6), Admission::Rejected, "closed queue sheds");
    // The backlog still drains after close, then pops report done.
    assert_eq!(q.pop_blocking(0), Some(2));
    assert_eq!(q.pop_blocking(0), Some(3));
    assert_eq!(q.pop_blocking(0), Some(5));
    assert_eq!(q.pop_blocking(0), None);
    assert_eq!(q.wait_hist().count(), 4, "every delivery recorded a wait");
    assert_eq!(
        q.delivered(0),
        q.accepted(0),
        "every admitted item was delivered; a shed or closing pop must not count"
    );
    assert_eq!(q.steals_total(), 0, "one member: nothing to steal from");
}

/// Two-level shedding (DESIGN.md §16): a hot queue sheds at its own
/// high-water mark while siblings still admit, and the group cap sheds
/// on total backlog — each level counted separately.
#[test]
fn queue_group_sheds_two_level_and_counts_each() {
    use crate::routine::{Admission, QueueGroup};
    // 2 queues, per-queue high water 2, global cap 3, no reserve.
    let g: QueueGroup<u64> = QueueGroup::new(2, 2, 3, 0);
    assert_eq!(g.submit(0, 10), Admission::Admitted);
    assert_eq!(g.submit(0, 11), Admission::Admitted);
    assert_eq!(
        g.submit(0, 12),
        Admission::Rejected,
        "queue 0 at its high-water mark must shed"
    );
    assert_eq!((g.shed_queue(), g.shed_global()), (1, 0));
    assert_eq!(g.submit(1, 20), Admission::Admitted, "sibling still admits");
    assert_eq!(
        g.submit(1, 21),
        Admission::Rejected,
        "total backlog at the global cap must shed"
    );
    assert_eq!((g.shed_queue(), g.shed_global()), (1, 1));
    assert_eq!((g.accepted_total(), g.rejected_total()), (3, 2));
    assert_eq!((g.rejected(0), g.rejected(1)), (1, 1));
    g.close();
    assert_eq!(g.submit(0, 13), Admission::Rejected, "closed group sheds");
    assert_eq!(g.pop_blocking(0), Some(10));
    assert_eq!(g.pop_blocking(0), Some(11));
    assert_eq!(g.pop_blocking(1), Some(20));
    assert_eq!(g.pop_blocking(0), None, "closed and all queues drained");
    assert_eq!(g.pop_blocking(1), None);
    assert_eq!(g.wait_hist().count(), 3, "every delivery recorded a wait");
    for pool in 0..2 {
        assert_eq!(g.accepted(pool), g.delivered(pool));
    }
}

/// The steal protocol: an empty pool steals the *oldest* item from the
/// deepest sibling queue — per-queue FIFO order holds across home pops
/// and thefts — and never drains a sibling below the reserve.
#[test]
fn queue_group_steal_preserves_fifo_and_respects_reserve() {
    use crate::routine::{Admission, QueueGroup};
    let g: QueueGroup<u64> = QueueGroup::new(2, 16, 32, 1);
    for v in [10, 11, 12, 13] {
        assert_eq!(g.submit(0, v), Admission::Admitted);
    }
    // Pool 1 is empty: it steals queue 0's front, oldest first.
    assert_eq!(g.try_pop(1), Some(10), "steal takes the victim's front");
    assert_eq!(g.try_pop(1), Some(11));
    assert_eq!(g.try_pop(1), Some(12));
    assert_eq!(
        g.try_pop(1),
        None,
        "reserve floor: the last item stays for the home pool"
    );
    assert_eq!(g.depth(0), 1);
    assert_eq!(g.try_pop(0), Some(13), "home pop below the reserve is fine");
    assert_eq!(g.steals(1), 3);
    assert_eq!(g.steals(0), 0);
    assert_eq!(g.steals_total(), 3);
    // Deliveries are counted against the queue stolen *from*.
    assert_eq!(g.delivered(0), 4);
    assert_eq!(g.delivered(1), 0);
    assert_eq!(g.accepted(0), g.delivered(0));
}

/// Deepest-queue victim selection: a thief with several non-empty
/// siblings steals from the one with the most backlog.
#[test]
fn queue_group_steals_from_deepest_sibling() {
    use crate::routine::{Admission, QueueGroup};
    let g: QueueGroup<u64> = QueueGroup::new(3, 16, 64, 0);
    assert_eq!(g.submit(0, 1), Admission::Admitted);
    for v in [20, 21, 22] {
        assert_eq!(g.submit(1, v), Admission::Admitted);
    }
    assert_eq!(g.try_pop(2), Some(20), "queue 1 is deepest");
    assert_eq!(g.try_pop(2), Some(21), "still deepest (2 vs 1)");
    assert_eq!(g.depth(0), 1);
    assert_eq!(g.depth(1), 1);
}

/// Two serve pools over one [`QueueGroup`] with every submission homed
/// on pool 0: pool 1 lives entirely off steals, both retire when the
/// group closes, and the per-queue `accepted == delivered` conservation
/// invariant holds group-wide.
#[test]
fn serve_group_drains_skewed_load_via_steals() {
    use crate::routine::{Admission, QueueGroup, RoutinePool};
    let c = cluster(2, 1);
    let g: Arc<QueueGroup<u64>> = Arc::new(QueueGroup::new(2, 1024, 2048, 0));
    const SUBMITTED: u64 = 40;
    std::thread::scope(|scope| {
        let producer = {
            let g = Arc::clone(&g);
            scope.spawn(move || {
                for i in 0..SUBMITTED {
                    // Single-home-heavy: everything lands on queue 0.
                    assert_eq!(g.submit(0, i % 8), Admission::Admitted);
                    if i % 16 == 7 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                }
                g.close();
            })
        };
        let pools: Vec<_> = (0..2)
            .map(|pool| {
                let g = Arc::clone(&g);
                let c = &c;
                scope.spawn(move || {
                    let workers: Vec<_> = (0..2)
                        .map(|id| c.worker(pool, 700 + (pool * 10 + id) as u64))
                        .collect();
                    RoutinePool::serve_group(workers, &g, pool, async |_, w, k| {
                        w.run_async(async |t| {
                            let a = num(&t.read_async(0, T_ACCT, key(0, k)).await?);
                            let b = num(&t.read_async(1, T_ACCT, key(1, k)).await?);
                            t.write_async(0, T_ACCT, key(0, k), val(a - 1)).await?;
                            t.write_async(1, T_ACCT, key(1, k), val(b + 1)).await
                        })
                        .await
                        .unwrap();
                    })
                })
            })
            .collect();
        producer.join().unwrap();
        for p in pools {
            assert_eq!(p.join().unwrap().len(), 2);
        }
    });
    assert_eq!(g.accepted(0), SUBMITTED);
    assert_eq!(g.accepted(1), 0);
    for pool in 0..2 {
        assert_eq!(
            g.delivered(pool),
            g.accepted(pool),
            "queue {pool}: every admission reached a routine"
        );
    }
    assert!(
        g.steals(1) > 0,
        "pool 1 had no home work: it must have stolen"
    );
    assert_eq!(g.depth_total(), 0, "close drains every queue");
    let snap = c.obs.scrape();
    assert_eq!(snap.committed, SUBMITTED);
    let mut audit = c.worker(1, 999);
    let mut total = 0i64;
    for k in 0..8u64 {
        let a = num(&audit.run_ro(|t| t.read(0, T_ACCT, key(0, k))).unwrap());
        let b = num(&audit.run_ro(|t| t.read(1, T_ACCT, key(1, k))).unwrap());
        total += a as i64 + b as i64;
    }
    assert_eq!(total, 8 * 200, "stolen transfers conserve");
}

/// Two serving pools drain externally-submitted transactions from the
/// one shared member queue: routines park idle while it is empty
/// (host-time block, no virtual-time burn), re-join on arrival, and
/// retire cleanly when the queue closes. Every submitted transfer
/// commits exactly once, and sharing a queue is never counted a steal.
#[test]
fn serve_drains_external_submissions_and_stops_on_close() {
    use crate::routine::{Admission, QueueGroup, RoutinePool};
    let c = cluster(2, 1);
    let q: QueueGroup<u64> = QueueGroup::new(1, 1024, 1024, 0);
    const SUBMITTED: u64 = 40;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..SUBMITTED {
                assert_eq!(q.submit(0, i % 8), Admission::Admitted);
                if i % 16 == 7 {
                    // Let the pools empty the queue so the idle-park
                    // path (external block) actually exercises.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            q.close();
        });
        let pools: Vec<_> = (0..2)
            .map(|node| {
                let (c, q) = (&c, &q);
                scope.spawn(move || {
                    let workers: Vec<_> = (0..2)
                        .map(|id| c.worker(node, 500 + (node * 10 + id) as u64))
                        .collect();
                    RoutinePool::serve_group(workers, q, 0, async |_, w, k| {
                        w.run_async(async |t| {
                            let a = num(&t.read_async(0, T_ACCT, key(0, k)).await?);
                            let b = num(&t.read_async(1, T_ACCT, key(1, k)).await?);
                            t.write_async(0, T_ACCT, key(0, k), val(a - 1)).await?;
                            t.write_async(1, T_ACCT, key(1, k), val(b + 1)).await
                        })
                        .await
                        .unwrap();
                    })
                })
            })
            .collect();
        for p in pools {
            assert_eq!(p.join().unwrap().len(), 2);
        }
    });
    assert_eq!(q.accepted(0), SUBMITTED);
    assert_eq!(
        q.delivered(0),
        SUBMITTED,
        "every admission reached a routine"
    );
    assert_eq!(q.steals_total(), 0, "own-queue pops are not steals");
    assert_eq!(q.wait_hist().count(), SUBMITTED);
    assert_eq!(q.depth_total(), 0, "close drains the backlog");
    let snap = c.obs.scrape();
    assert_eq!(snap.committed, SUBMITTED);
    // Conservation: each key moved (submissions of that key) units.
    let mut audit = c.worker(1, 999);
    let mut total = 0i64;
    for k in 0..8u64 {
        let a = num(&audit.run_ro(|t| t.read(0, T_ACCT, key(0, k))).unwrap());
        let b = num(&audit.run_ro(|t| t.read(1, T_ACCT, key(1, k))).unwrap());
        total += a as i64 + b as i64;
    }
    assert_eq!(total, 8 * 200, "transfers conserve");
}

/// Starvation regression (DESIGN.md §15): one transaction that
/// read-modify-writes 16 hot keys across both shards races a storm of
/// single-key writers hammering the same keys. Under pure rung-1
/// backoff the large transaction can lose the backoff lottery
/// indefinitely — every retry finds some key re-locked by a small
/// writer. Under `escalate`, two consecutive aborts on the same key
/// force rung 2 (pessimistic C.1), which spins busy locks free instead
/// of re-rolling the whole transaction, so the 16-key transaction must
/// commit within a small bounded number of attempts no matter how fast
/// the storm re-locks.
#[test]
fn large_txn_commits_bounded_under_escalate() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let opts = EngineOpts::builder()
        .replicas(1)
        .region_size(4 << 20)
        .contention(crate::ContentionPolicy::Escalate)
        .build();
    let c = DrtmCluster::new(2, &schema(), opts);
    for shard in 0..2usize {
        for k in 0..8u64 {
            c.seed_record(shard, T_ACCT, key(shard, k), &val(100));
        }
    }
    let done = Arc::new(AtomicBool::new(false));
    // The storm: four writers, two homed on each machine, each
    // re-locking one of the 16 hot keys at a time as fast as it can.
    let mut storm = Vec::new();
    for node in 0..2usize {
        for t in 0..2usize {
            let c = Arc::clone(&c);
            let done = Arc::clone(&done);
            storm.push(std::thread::spawn(move || {
                let mut w = c.worker(node, 10 + (node * 2 + t) as u64);
                let mut i = (node * 2 + t) as u64;
                while !done.load(Ordering::Relaxed) {
                    let shard = (i % 2) as usize;
                    let k = key(shard, i % 8);
                    let _ = w.run(|t| {
                        let v = num(&t.read(shard, T_ACCT, k)?);
                        t.write(shard, T_ACCT, k, val(v + 1))
                    });
                    i = i.wrapping_add(3);
                }
            }));
        }
    }
    let mut w = c.worker(0, 1);
    let before = w.stats.aborted;
    w.run(|t| {
        for shard in 0..2usize {
            for k in 0..8u64 {
                let v = num(&t.read(shard, T_ACCT, key(shard, k))?);
                t.write(shard, T_ACCT, key(shard, k), val(v + 1))?;
            }
        }
        Ok(())
    })
    .expect("the 16-key transaction must commit");
    let attempts = w.stats.aborted - before + 1;
    done.store(true, Ordering::Relaxed);
    for h in storm {
        h.join().unwrap();
    }
    assert!(
        attempts <= 64,
        "escalation must bound the big transaction's attempts, took {attempts}"
    );
    let snap = crate::scrape_cluster(&c);
    assert!(
        snap.contention.pessimistic > 0 || attempts <= crate::contention::PESSIMISTIC_AFTER as u64,
        "a bounded win over the storm should have used rung 2: {snap:?}"
    );
}
