//! Read-only transactions (§4.5): snapshots, lock checks, validation
//! around a held committer, and the one-snapshot rule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use super::*;
use crate::commit::STAGES;
use crate::txn::AbortReason;

#[test]
fn read_only_txn_sees_consistent_snapshot() {
    // A writer flips two records between (0, 100) and (100, 0); a
    // read-only transaction must never observe a mixed state.
    let c = cluster(2, 1);
    let (ka, kb) = (key(0, 60), key(1, 60));
    let flip = |w: &mut Worker, a, b| {
        w.run(|t| {
            t.write(0, T_ACCT, ka, val(a))?;
            t.write(1, T_ACCT, kb, val(b))
        })
        .unwrap()
    };
    flip(&mut c.worker(0, 1), 0, 100);
    let stop = AtomicBool::new(false);
    let sums = threads(2, |id| {
        if id == 0 {
            let mut w = c.worker(0, 2);
            let mut flipped = false;
            while !stop.load(SeqCst) {
                let (a, b) = if flipped { (0, 100) } else { (100, 0) };
                flip(&mut w, a, b);
                flipped = !flipped;
                std::thread::yield_now();
            }
            return Vec::new();
        }
        let mut r = c.worker(1, 3);
        let sums = (0..200)
            .map(|_| r.run_ro(|t| Ok(num(&t.read(0, T_ACCT, ka)?) + num(&t.read(1, T_ACCT, kb)?))))
            .collect();
        stop.store(true, SeqCst);
        sums
    });
    for sum in &sums[1] {
        assert_eq!(*sum, Ok(100), "read-only txn observed a torn flip");
    }
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

/// A read-only transaction on machine `reader` reads `B` = `key(1, 0)`
/// before a committer locks it, then — while [`hold_at`] holds the
/// committer at `stage` — reads `A` = `key(0, 0)` and commits. The
/// committer rewrites `A` at C.4 and `B` at C.5, so from C.4 on `A`
/// reads new while `B` was read old: committing would publish
/// `{A new, B old}`. At every stage the reader aborts `Validation`:
/// `B` is locked from C.1 to C.5's image, and a new sequence number
/// from there on.
fn validate_around_a_held_committer(reader: usize) {
    for stage in &STAGES {
        let c = cluster(2, 1);
        let mut r = c.worker(reader, 2);
        let mut t = r.begin_ro();
        assert_eq!(t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v)), Ok(100));
        let (a, outcome) = hold_at(&c, stage, || {
            let a = t.read(0, T_ACCT, key(0, 0)).map(|v| num(&v));
            (a, t.commit())
        });
        let applied = !["C.1", "C.2"].contains(&stage.probe);
        let at = stage.probe;
        assert_eq!(a, Ok(if applied { 101 } else { 100 }), "A at {at}");
        assert_eq!(
            outcome,
            Err(TxnError::Aborted(AbortReason::Validation)),
            "at {at}"
        );
    }
}

/// ROADMAP 2(a): the reader runs on the committer's machine, so `B` is
/// a remote record the committer holds and `A` is read locally.
#[test]
fn read_only_validation_rejects_a_remote_record_a_committer_holds() {
    validate_around_a_held_committer(0);
}

/// The mirror case: the reader runs on machine 1, so `B` is in its
/// *local* read set, locked by the remote committer, and `A` — local to
/// the committer, so never locked — is read over RDMA.
#[test]
fn read_only_validation_rejects_a_local_record_a_remote_committer_holds() {
    validate_around_a_held_committer(1);
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
    // Warms the location cache, so the measured read posts no probe.
    w.run_ro(|t| t.read(1, T_ACCT, key(1, 5))).unwrap();

    let nic = Nic::new(&c);
    let mut t = w.begin_ro();
    assert_eq!(t.read(1, T_ACCT, key(1, 5)).map(|v| num(&v)), Ok(100));
    let at = t.w.clock.now();
    assert_eq!(t.commit(), Ok(()));
    assert_eq!(w.clock.now(), at, "a remote read: commit adds no time");
    let d = nic.since(1);
    assert_eq!((d.reads, d.doorbells), (1, 1), "the record READ: {d:?}");

    let mut t = w.begin_ro();
    assert_eq!(t.read(0, T_ACCT, key(0, 5)).map(|v| num(&v)), Ok(100));
    let at = t.w.clock.now();
    assert_eq!(t.commit(), Ok(()));
    assert_eq!(w.clock.now(), at, "a local read: no header load at commit");

    let mut t = w.begin_ro();
    t.read(1, T_ACCT, key(1, 5)).unwrap();
    t.read(1, T_ACCT, key(1, 6)).unwrap();
    nic.mark();
    assert_eq!(t.commit(), Ok(()));
    let d = nic.since(1);
    assert_eq!((d.reads, d.doorbells), (2, 1), "two header READs: {d:?}");
}

/// What the one-snapshot rule leaves to validation. Two snapshots — a
/// remote read, then a local one after the home machine rewrote the
/// remote record — abort `Validation`. A local record left odd, as C.4
/// under replication leaves it, aborts while it stays odd and, once its
/// writer's makeup made it even, commits through the validation pass's
/// header load.
#[test]
fn one_snapshot_rule_still_validates_two_snapshots_and_odd_reads() {
    let c = cluster(2, 1);
    let mut w = c.worker(0, 1);
    let mut home = c.worker(1, 2);
    let mut t = w.begin_ro();
    assert_eq!(t.read(1, T_ACCT, key(1, 7)).map(|v| num(&v)), Ok(100));
    home.run(|t| t.write(1, T_ACCT, key(1, 7), val(200)))
        .unwrap();
    assert_eq!(t.read(0, T_ACCT, key(0, 7)).map(|v| num(&v)), Ok(100));
    assert_eq!(t.commit(), Err(TxnError::Aborted(AbortReason::Validation)));

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

/// One-record reads around a committer held between C.4 and C.5 (at
/// the R.2 probe): a read of its local `A`, rewritten in HTM at C.4 and
/// never locked, commits 101 with no validation; a following read of
/// `B`, locked since C.1, retries the lock and aborts rather than
/// return the old 100; once the committer finishes, `B` reads 101.
#[test]
fn one_record_reads_see_a_held_committer_in_order() {
    let c = cluster(2, 1);
    let r2 = STAGES.iter().find(|s| s.probe == "R.2").unwrap();
    let mut r = c.worker(0, 2);
    let (a, unvalidated, b) = hold_at(&c, r2, || {
        let mut t = r.begin_ro();
        let a = t.read(0, T_ACCT, key(0, 0)).map(|v| num(&v));
        let at = t.w.clock.now();
        let outcome = t.commit();
        let unvalidated = outcome.map(|()| r.clock.now() == at);
        let mut t = r.begin_ro();
        (
            a,
            unvalidated,
            t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v)),
        )
    });
    assert_eq!(a, Ok(101));
    assert_eq!(unvalidated, Ok(true), "no validation");
    let inconsistent = TxnError::Aborted(AbortReason::RemoteInconsistent);
    assert_eq!(b, Err(inconsistent), "a locked B is never read");
    assert_eq!(value(&c, 1, 0), 101);
}

/// One-record reads are linearizable. Writers on both machines
/// increment four counters, two homed on each, and publish each value
/// after its commit returns. Eight routines on machine 0 read one
/// counter per read-only transaction, local or remote. A read returns
/// at least what was published before it began, and at most what was
/// published after it returned plus one unpublished increment per
/// writer; no routine sees a counter go back.
#[test]
fn one_record_reads_are_linearizable() {
    const WRITERS: usize = 2;
    const COUNTERS: [(usize, u64); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
    let c = setup(2).seed(0..2, 0..2, 0).build();
    let published: Vec<AtomicU64> = COUNTERS.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    // Threads 0 and 1 write; thread 2 runs the readers' pool.
    let out = threads(WRITERS + 1, |id| {
        if id < WRITERS {
            let mut w = c.worker(id, 100 + id as u64);
            let mut i = id;
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
            return Vec::new();
        }
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
                if v < floor_before.max(seen[at]) || v > floor_after + WRITERS as u64 {
                    return Some((at, floor_before, seen[at], v, floor_after));
                }
                seen[at] = v;
            }
            None
        });
        stop.store(true, SeqCst);
        out.into_iter().map(|(_, bad)| bad).collect()
    });
    for bad in &out[WRITERS] {
        // (counter, floor before, last seen, read, floor after)
        assert_eq!(*bad, None);
    }
}

/// Local read groups are one snapshot. Writers on both machines move 1
/// between two records of machine 0 in one transaction each — machine
/// 0's commits in HTM, machine 1's over RDMA (C.1–C.6). Eight routines
/// on machine 0 read the two records in two calls per read-only
/// transaction, yielding the thread between them so that writers
/// commit there; a transaction commits with no validation pass when
/// nothing moved between the calls. Every committed pair sums to the
/// constant, and some commits skipped the pass.
#[test]
fn local_read_groups_are_one_snapshot() {
    const WRITERS: usize = 2;
    const SUM: u64 = 2_000;
    let (x, y) = (key(0, 0), key(0, 1));
    let c = setup(2).seed(0..1, 0..2, SUM / 2).build();
    let (stop, moves) = (AtomicBool::new(false), AtomicU64::new(0));
    // Threads 0 and 1 write; thread 2 runs the readers' pool once both
    // have moved.
    let out = threads(WRITERS + 1, |id| {
        if id < WRITERS {
            let mut w = c.worker(id, 100 + id as u64);
            let mut flip = false;
            while !stop.load(SeqCst) {
                let (from, to) = if flip { (y, x) } else { (x, y) };
                flip = !flip;
                w.run(|t| {
                    let (f, g) = (num(&t.read(0, T_ACCT, from)?), num(&t.read(0, T_ACCT, to)?));
                    t.write(0, T_ACCT, from, val(f - 1))?;
                    t.write(0, T_ACCT, to, val(g + 1))
                })
                .unwrap();
                moves.fetch_add(1, SeqCst);
                std::thread::yield_now();
            }
            return (Vec::new(), 0);
        }
        while moves.load(SeqCst) < WRITERS as u64 {
            std::thread::yield_now();
        }
        let readers = (0..8).map(|id| c.worker(0, 10 + id)).collect();
        let out = crate::routine::RoutinePool::run(readers, async |_, w| {
            let (mut torn, mut unvalidated) = (Vec::new(), 0);
            for _ in 0..150 {
                let validations = w.obs.ro_validations.get();
                let read = w.run_ro_async(async |t| {
                    let f = num(&t.read_async(0, T_ACCT, x).await?);
                    std::thread::yield_now();
                    let g = num(&t.read_async(0, T_ACCT, y).await?);
                    Ok((f, g))
                });
                let (f, g) = read.await.unwrap();
                if f + g != SUM {
                    torn.push((f, g));
                }
                unvalidated += u32::from(w.obs.ro_validations.get() == validations);
            }
            (torn, unvalidated)
        });
        stop.store(true, SeqCst);
        let unvalidated = out.iter().map(|(_, (_, n))| n).sum();
        let torn = out.into_iter().flat_map(|(_, (torn, _))| torn).collect();
        (torn, unvalidated)
    });
    let (torn, unvalidated) = &out[WRITERS];
    assert_eq!(*torn, [], "torn pairs committed");
    assert!(*unvalidated > 0, "no commit skipped the validation pass");
    assert_eq!(value(&c, 0, 0) + value(&c, 0, 1), SUM);
}

/// Two machines: [`setup`]'s accounts, and keys 0..40 of [`T_ORD`] on
/// machine 0.
fn accounts_and_orders() -> Arc<DrtmCluster> {
    let schema = [
        TableSpec::hash(T_ACCT, 4096, 16),
        TableSpec::ordered(T_ORD, 100),
    ];
    let c = setup(2).schema(&schema).build();
    for k in 0..40u64 {
        c.seed_record(0, T_ORD, k, &[k as u8; 100]);
    }
    c
}

/// One HTM region (DESIGN.md "Read-only txns"): a read-only
/// transaction's local read groups — a point read, a scan, a
/// `read_many` — extend the region the first one opened, so it pays
/// one `htm_begin_ns + htm_commit_ns` in all, is one snapshot, and its
/// commit validates nothing and adds no time. A remote read in the
/// middle closes the region before its READ: three snapshots, and the
/// commit pays a header load per local record and one header-READ park.
#[test]
fn one_region_read_only_commit_posts_no_validation() {
    let c = accounts_and_orders();
    let cost = &c.opts.cost;
    let lines = |table| c.stores[0].table(table).layout.lines() as u64;
    let mut w = c.worker(0, 1);
    // Warms the location cache, so the remote read posts no probe.
    w.run_ro(|t| t.read(1, T_ACCT, key(1, 5))).unwrap();
    let nic = Nic::new(&c);
    for remote in [false, true] {
        let validations = w.obs.ro_validations.get();
        let mut t = w.begin_ro();
        let at = t.w.clock.now();
        assert_eq!(t.read(0, T_ACCT, key(0, 1)).map(|v| num(&v)), Ok(100));
        if remote {
            assert_eq!(t.read(1, T_ACCT, key(1, 5)).map(|v| num(&v)), Ok(100));
        }
        let scanned = t.scan_local(T_ORD, 5, 14, usize::MAX).unwrap();
        assert_eq!(scanned.len(), 10);
        let many = [(0, T_ACCT, key(0, 2)), (0, T_ACCT, key(0, 3))];
        assert_eq!(t.read_many(&many).map(|v| v.len()), Ok(2));
        let spent = t.w.clock.now() - at;
        let snapshots = t.snapshots;
        nic.mark();
        let at = t.w.clock.now();
        assert_eq!(t.commit(), Ok(()));
        let (commit_ns, d) = (w.clock.now() - at, nic.since(1));
        let validated = w.obs.ro_validations.get() - validations;
        if !remote {
            let pair = cost.htm_begin_ns + cost.htm_commit_ns;
            let records = 13 * cost.record_logic_ns;
            let read = (3 * lines(T_ACCT) + 10 * lines(T_ORD)) * cost.mem_access_ns;
            assert_eq!(spent, pair + records + read, "one region's charges");
            assert_eq!((snapshots, commit_ns, validated), (1, 0, 0));
            assert_eq!((d.reads, d.doorbells), (0, 0), "{d:?}");
        } else {
            assert_eq!((snapshots, validated), (3, 1));
            assert!(commit_ns > 13 * cost.mem_access_ns, "{commit_ns} ns");
            assert_eq!((d.reads, d.doorbells), (1, 1), "one header READ: {d:?}");
        }
    }
}

/// What closes a read-only transaction's region between two local
/// reads of `A` = `key(0, 1)` and `B` = `key(0, 2)`: a read capacity
/// that `B`'s group would pass, a remote read, and `B` found locked,
/// whose back-off lets a sibling routine free it. Each leaves two
/// regions (three snapshots with the remote READ), so the commit runs
/// the validation pass: it commits, and aborts `Validation` when `A`
/// was rewritten after its region closed.
#[test]
fn one_region_closes_at_capacity_a_back_off_and_a_verb() {
    use drtm_store::{lock_word, LOCK_FREE};
    let (a, b) = (key(0, 1), key(0, 2));
    for case in ["capacity", "remote", "locked"] {
        for rewrite in [false, true] {
            let one_line = drtm_htm::HtmConfig {
                max_read_lines: 1,
                ..Default::default()
            };
            let c = match case {
                "capacity" => setup(2).opts(|o| o.htm(one_line)).build(),
                _ => cluster(2, 1),
            };
            assert_eq!(c.stores[0].table(T_ACCT).layout.lines(), 1);
            let (snapshots, outcome, validated) = if case == "locked" {
                let off = c.stores[0].get_loc(T_ACCT, b).unwrap() as usize;
                let region = &c.stores[0].region;
                region.cas64(off, LOCK_FREE, lock_word(1)).unwrap();
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
                        if rewrite {
                            let write =
                                w.run_async(async |t| t.write_async(0, T_ACCT, a, val(7)).await);
                            write.await.unwrap();
                        }
                        return None;
                    }
                    let mut t = w.begin_ro();
                    t.read_async(0, T_ACCT, a).await.unwrap();
                    t.read_async(0, T_ACCT, b).await.unwrap();
                    let snapshots = t.snapshots;
                    Some((snapshots, t.commit_async().await))
                });
                let (w, out) = out.remove(0);
                let (snapshots, outcome) = out.unwrap();
                (snapshots, outcome, w.obs.ro_validations.get())
            } else {
                let mut w = c.worker(0, 1);
                let mut t = w.begin_ro();
                t.read(0, T_ACCT, a).unwrap();
                if case == "remote" {
                    t.read(1, T_ACCT, key(1, 1)).unwrap();
                }
                t.read(0, T_ACCT, b).unwrap();
                if rewrite {
                    let mut home = c.worker(0, 2);
                    home.run(|t| t.write(0, T_ACCT, a, val(7))).unwrap();
                }
                let snapshots = t.snapshots;
                let outcome = t.commit();
                (snapshots, outcome, w.obs.ro_validations.get())
            };
            let want = if case == "remote" { 3 } else { 2 };
            assert_eq!((snapshots, validated), (want, 1), "{case}");
            let stale = Err(TxnError::Aborted(AbortReason::Validation));
            assert_eq!(outcome, if rewrite { stale } else { Ok(()) }, "{case}");
        }
    }
}
