//! Optimistic replication (§5.1: R.1 and R.2), recovery (§5.2), crash
//! points and fences.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use drtm_cluster::LogEntryRef;
use drtm_store::record::SEQ_OFF;

use super::*;
use crate::commit::STAGES;
use crate::recovery::{full_restart_scrub, recover_node};
use crate::txn::AbortReason;

#[test]
fn replicated_commit_reaches_backup_logs() {
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    add_one(&mut w, &[(0, 1)], || {}).unwrap();
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
    let mut t = w.begin();
    let v = t.read(0, T_ACCT, key(0, 9)).unwrap(); // Optimistic read allowed.
    assert_eq!(num(&v), 555);
    t.write(0, T_ACCT, key(0, 9), val(556)).unwrap();
    let r = t.commit();
    assert!(
        matches!(r, Err(TxnError::Aborted(_))),
        "dependent txn must not commit before replication: {r:?}"
    );

    // Makeup: the original writer finishes replication.
    rec.set_seq(4);
    add_one(&mut w, &[(0, 9)], || {}).unwrap();
}

#[test]
fn read_validation_accepts_replicated_successor() {
    // A transaction reads an odd (uncommittable) version; by commit time
    // the writer finished replication (seq became the even successor).
    // Table 4's condition accepts exactly that.
    assert!(crate::read_validates(7, 8));
    let c = cluster(3, 3);
    let off = c.stores[0].get_loc(T_ACCT, key(0, 8)).unwrap() as usize;
    let rec = c.stores[0].record(T_ACCT, off);
    rec.write_locked(&val(300), 3); // Odd: mid-commit.

    let mut w = c.worker(0, 1);
    let mut txn = w.begin();
    let v = txn.read(0, T_ACCT, key(0, 8)).unwrap();
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

/// R.1 rings each backup's doorbell like `Qp::ring`: one doorbell charge
/// on the core, then WRITE `i` issues `i` pipeline slots past it. A
/// machine-0 transaction writing a record on machines 0 and 1 sends
/// machine 2, which backs both, two WRITEs on one doorbell; machine 1
/// gets one, and machine 0's own log of machine 1 is a local store. The
/// last ack is machine 2's second WRITE, two doorbells, one pipeline
/// slot and one WRITE latency in, and the core is busy for the two
/// doorbells and the one-line local store only: the pipeline slot is
/// NIC time, hideable like the WRITE latency.
#[test]
fn r1_pipelines_a_two_write_doorbell_like_qp_ring() {
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        t.write(0, T_ACCT, key(0, 1), val(7))?;
        t.write(1, T_ACCT, key(1, 1), val(7))
    })
    .unwrap();
    let logs = [(1, 0), (2, 0), (2, 1), (0, 1)];
    assert!(logs.iter().all(|&(b, p)| c.logs.len(b, p) == 1));
    let snap = c.obs.scrape();
    let phase =
        |v: &[(&str, drtm_obs::HistSummary)]| v.iter().find(|(n, _)| *n == "log").unwrap().1;
    let (log, wait) = (phase(&snap.phases), phase(&snap.phase_waits));
    assert_eq!(log.count, 1);
    let cost = drtm_base::CostModel::default();
    let write = cost.rdma_write(29 + 16);
    assert_eq!(
        log.sum,
        2 * cost.doorbell_ns + cost.verb_pipeline_ns + write
    );
    let cpu = 2 * cost.doorbell_ns + cost.mem_access_ns;
    assert_eq!(wait.sum, log.sum - cpu);
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
            w.clock.advance(2_000_000, Cause::RecordLogic);
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

/// What a repair costs must not depend on how big the shard is: rolling
/// 1 000 records of a 100 000-record shard back (R.1 fenced after the
/// local apply) and healing 1 000 more forward (a newer durable version
/// in the image or still in the log) looks each record up and never
/// walks an image.
#[test]
fn repairing_1000_records_of_a_100k_shard_walks_no_image() {
    const RECORDS: u64 = 100_000;
    let c = setup(3)
        .replicas(2)
        .opts(|o| o.region_size(16 << 20))
        .schema(&[TableSpec::hash(T_ACCT, 2 * RECORDS as usize, 16)])
        .seed(0..1, 0..RECORDS, 100)
        .build();
    let record = |k: u64| {
        let off = c.stores[0].get_loc(T_ACCT, key(0, k)).unwrap() as usize;
        (off, c.stores[0].record(T_ACCT, off))
    };
    let stored = |k: u64| {
        let mut v = [0u8; 16];
        record(k).1.read_value_raw(&mut v);
        num(&v)
    };

    // Roll back: 20 transactions of 50 local writes, each fenced. Armed
    // before each, the hook bumps the configuration epoch — as a
    // recovery elsewhere commits — at the next C.4 probe: between the
    // transaction's local apply and its R.1.
    let armed = Arc::new(AtomicBool::new(false));
    on_probe(&c, {
        let (cluster, armed) = (Arc::clone(&c), Arc::clone(&armed));
        move |_, point| {
            if point == "C.4" && armed.swap(false, SeqCst) {
                let bystander = 2;
                if cluster.is_member(bystander) {
                    cluster.config.remove_member(bystander);
                } else {
                    cluster.config.add_member(bystander);
                }
            }
            false
        }
    });
    let mut w = c.worker(0, 1);
    let picked = |i: u64| i * 97 % RECORDS;
    for txn in 0..20 {
        armed.store(true, SeqCst);
        let mut t = w.begin();
        for i in 0..50 {
            t.write(0, T_ACCT, key(0, picked(txn * 50 + i)), val(7))
                .unwrap();
        }
        assert_eq!(t.commit(), Err(TxnError::Aborted(AbortReason::Validation)));
    }
    c.clear_crash_hook();
    for i in 0..1000 {
        assert_eq!((stored(picked(i)), record(picked(i)).1.seq()), (100, 2));
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
        assert_eq!((stored(picked(i)), rec.seq()), (i, 4));
        assert!(!c.heal_record(0, off, known), "already current");
    }
    assert_eq!(c.backups.full_passes(), 0);
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
    assert_eq!(value(&c, 1, 7), 4242);
    // And is writable again.
    let mut w0 = c.worker(0, 2);
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
    assert_eq!(
        value(&c, 1, 3),
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
    let nic = Nic::new(&c);
    add_one(&mut w, &[(2, 4)], || nic.mark()).unwrap();
    assert_eq!(c.stores[2].region.load64(off), drtm_store::LOCK_FREE);
    // The lost group CAS already named the owner, so the steal is the
    // very next CAS (lock, steal, unlock: no CAS spent on re-learning
    // the word), and the header read behind the lost CAS is not
    // trusted: the steal healed the record, so C.2 reads it again.
    let d = nic.since(2);
    assert_eq!((d.atomics, d.reads), (3, 2), "{d:?}");
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
}

#[test]
fn writes_to_dead_node_are_fenced() {
    let c = cluster(3, 2);
    c.crash(1);
    c.config.remove_member(1);
    // A transaction on the dead machine's shard, which no recovery has
    // re-homed, is fenced at C.1.
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let v = num(&t.read(1, T_ACCT, key(1, 0)).unwrap());
    t.write(1, T_ACCT, key(1, 0), val(v + 1)).unwrap();
    assert!(matches!(t.commit(), Err(TxnError::Aborted(_))));
}

/// Machine 1 voted out of the configuration while alive — no crash —
/// runs `txn` on its own shard: the fence stops it as a departed machine
/// (§5.2), `Crashed`, and `key(1, 0)` still reads 100. Re-admitted, the
/// same worker commits again: the fence is not sticky.
fn voted_out_machine_stops(txn: impl Fn(&mut Worker) -> Result<u64, TxnError>) {
    let c = cluster(3, 2);
    c.config.remove_member(1);
    let mut w = c.worker(1, 7);
    assert_eq!(txn(&mut w), Err(TxnError::Crashed));
    assert_eq!(value(&c, 1, 0), 100);
    c.config.add_member(1);
    assert!(txn(&mut w).is_ok());
}

/// An all-local read-write transaction, committed in HTM with no verb.
#[test]
fn a_voted_out_machine_commits_no_local_write() {
    voted_out_machine_stops(|w| add_one(w, &[(1, 0)], || {}).map(|()| 0));
}

/// A local read-only transaction of two read groups: one HTM region,
/// one snapshot, so its commit runs no validation pass.
#[test]
fn a_voted_out_machine_commits_no_local_read_groups() {
    voted_out_machine_stops(|w| {
        w.run_ro(|t| Ok(num(&t.read(1, T_ACCT, key(1, 0))?) + num(&t.read(1, T_ACCT, key(1, 1))?)))
    });
}

/// A one-record read-only transaction.
#[test]
fn a_voted_out_machine_commits_no_one_record_read() {
    voted_out_machine_stops(|w| w.run_ro(|t| t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v))));
}

#[test]
fn full_restart_scrub_repairs_inflight_state() {
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
            LogEntryRef {
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
    assert_eq!(value(&c, 1, 1), 777);
    assert_eq!(value(&c, 1, 2), 100);
    add_one(&mut c.worker(0, 9), &[(1, 0)], || {}).unwrap();
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
        for stage in &STAGES {
            let c = setup(4)
                .replicas(3)
                .htm_fails(if locked { 1.0 } else { 0.0 }, 2)
                .seed(0..4, 0..1, 100)
                .build();
            // Kills the probed machine at the `nth` passage of the
            // stage's probe. The fallback re-enters the walk: its C.1
            // and C.2 are the second passage of those probes.
            let reentered = locked && ["C.1", "C.2"].contains(&stage.probe);
            let (point, nth, seen) = (stage.probe, 1 + usize::from(reentered), AtomicUsize::new(0));
            on_probe(&c, move |_, at| {
                at == point && seen.fetch_add(1, SeqCst) + 1 == nth
            });
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
            assert_eq!(w.obs.fallbacks.get(), u64::from(locked), "{arm}");
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
            add_one(&mut survivor, &[(0, 0), (1, 0), (2, 0)], || {})
                .unwrap_or_else(|e| panic!("{arm}: {e:?}"));
            assert_eq!(survivor.obs.aborted.get(), 0, "{arm}");
        }
    }
}
