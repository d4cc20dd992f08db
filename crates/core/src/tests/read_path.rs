//! The execution phase: local and remote reads and writes, location
//! caches and incarnations, one lookup per record, read groups.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm_rdma::{NicSnapshot, Verb};

use super::*;
use crate::txn::{AbortReason, TxnError};

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
    assert_eq!(value(&c, 0, 1), 150);
    assert_eq!(w.obs.committed.get(), 1);
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
    for node in [1, 0] {
        let v = c.worker(node, 2).run_ro(|t| t.read(1, T_ACCT, key(1, 3)));
        assert_eq!(num(&v.unwrap()), 42, "read from machine {node}");
    }
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
    assert_eq!(total(&c, 0..2, 0..1), 200);
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
    assert_eq!(value(&c, 1, 777), 7);
    w.run(|t| {
        t.delete(1, T_ACCT, key(1, 777));
        Ok(())
    })
    .unwrap();
    let r = w.run_ro(|t| t.read(1, T_ACCT, key(1, 777)));
    assert_eq!(r.unwrap_err(), TxnError::NotFound);
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
            assert_eq!(num(&t.read(0, T_ACCT, key(0, k)).unwrap()), 100);
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
        assert_eq!(num(&t.read(0, T_ACCT, key(0, k)).unwrap()), 1000 + k);
        assert_eq!(num(&t.l_ws[39 - k as usize].buf), 1000 + k);
    }
    assert_eq!((t.l_rs.len(), t.l_ws.len()), (40, 40));
    assert!(t.commit().is_err(), "the read set went stale on purpose");
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
    let v = txn.read(0, T_ACCT, k).unwrap();
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
        (
            w.clock.now(),
            value(&c, 0, written),
            c.opts.cost.record_logic_ns,
        )
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
    let c = setup(2)
        .opts(|o| o.use_location_cache(false))
        .seed(1..2, 0..8, 100)
        .build();
    let cost = c.opts.cost.clone();
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let v = num(&t.read(1, T_ACCT, key(1, 3)).unwrap());
    let (ns, nic) = (t.w.clock.now(), Nic::new(&c));
    t.write(1, T_ACCT, key(1, 4), val(7)).unwrap();
    let (blind_ns, blind) = (t.w.clock.now() - ns, nic.since(1));
    let ns = t.w.clock.now();
    nic.mark();
    t.write(1, T_ACCT, key(1, 3), val(v + 1)).unwrap();
    let (rmw_ns, rmw) = (t.w.clock.now() - ns, nic.since(1));
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
    assert_eq!((value(&c, 1, 3), value(&c, 1, 4)), (101, 7));
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
    let first = t.read(0, T_ACCT, k).unwrap();
    assert!(c.stores[0].remove(T_ACCT, k));
    assert_eq!(t.read(0, T_ACCT, k), Ok(first));
    assert_eq!(t.commit(), Err(TxnError::Aborted(AbortReason::Incarnation)));
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
    let v = txn.read(1, T_ACCT, key(1, 2)).unwrap();
    assert_eq!(num(&v), 100, "optimistic read through the lock");
    drop(txn);
    c.stores[1]
        .region
        .cas64(off, drtm_store::lock_word(0), drtm_store::LOCK_FREE)
        .unwrap();
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
    let c = cluster(3, 1);
    let rec_off = c.stores[1].get_loc(T_ACCT, key(1, 3)).unwrap() as usize;
    let moved = Arc::new(AtomicBool::new(false));
    on_verb(&c, {
        let (c, moved) = (Arc::clone(&c), Arc::clone(&moved));
        move |_, dst, verb| {
            if (dst, verb) == (1, Verb::Read) && !moved.swap(true, Ordering::SeqCst) {
                c.rehome(1, 2);
            }
            Fault::NONE
        }
    });
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let got = t.read_many(
        &[(0, T_ACCT, key(0, 3)), (1, T_ACCT, key(1, 3))],
        usize::MAX,
    );
    c.fabric.clear_injector();
    assert!(moved.load(Ordering::SeqCst), "the shard moved mid-read");
    assert_eq!(c.home_of(1), 2);
    assert_eq!(got.map(|v| num(&v[1])), Ok(100));
    let read: Vec<_> = t.r_rs.iter().map(|e| (e.node, e.rec_off)).collect();
    assert_eq!(read, [(1, rec_off)]);
}

/// Two machines, keys 0..40 of [`T_ORD`] on machine 0, the HTM read
/// set capped at `max_read_lines`.
fn ordered_cluster(max_read_lines: usize) -> Arc<DrtmCluster> {
    let htm = drtm_htm::HtmConfig {
        max_read_lines,
        ..Default::default()
    };
    let c = setup(2)
        .opts(|o| o.htm(htm))
        .schema(&[
            TableSpec::hash(T_ACCT, 64, 16),
            TableSpec::ordered(T_ORD, 100),
        ])
        .seed(0..0, 0..0, 0)
        .build();
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
            t.read(0, T_ORD, 12).unwrap();
            let before = t.w.clock.now();
            let got: Vec<(u64, Vec<u8>)> = if grouped {
                t.scan_local(T_ORD, 5, 30, usize::MAX, usize::MAX).unwrap()
            } else {
                let hits = c.stores[0].scan(T_ORD, 5, 30, usize::MAX);
                let read = |(k, _)| (k, t.read(0, T_ORD, k).unwrap());
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
    assert_eq!(
        t.scan_local(T_ORD, 10, 30, usize::MAX, usize::MAX),
        Err(busy)
    );
    drop(t);
    let site = w.last_conflict.take().expect("the abort names its record");
    assert_eq!((site.table, site.key), (T_ORD, 20));

    let workers = (0..2u64)
        .map(|id| {
            let mut w = c.worker(0, 5 + id);
            w.clock.advance(id * 100_000, Cause::RecordLogic);
            w
        })
        .collect();
    let mut out = crate::routine::RoutinePool::run(workers, async |id, w| {
        if id == 1 {
            region.cas64(off, lock_word(1), LOCK_FREE).unwrap();
            return None;
        }
        let hits = w.run_ro_async(async |t| t.scan_local(T_ORD, 10, 30, 99, usize::MAX).await);
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
