//! The commit walk (C.1–C.6) over its transports: locking and
//! validation, the §6.1 fallback, the messaging and GLOB ablations,
//! doorbell batching, and dropped work requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use drtm_rdma::Verb::{self, Cas, Read, Write};
use drtm_rdma::{NicSnapshot, NodeId};
use drtm_store::record::SEQ_OFF;
use drtm_store::{lock_word, LOCK_FREE};

use super::*;
use crate::cluster::LockTransport::{self, Messages, OneSided};
use crate::txn::AbortReason;

#[test]
fn write_write_conflict_one_winner_per_round() {
    // Two workers on different machines increment the same remote record
    // concurrently; the final value must equal the number of commits.
    let c = cluster(3, 1);
    let committed = threads(2, |node| {
        let mut w = c.worker(node, node as u64 + 10);
        for _ in 0..200 {
            add_one(&mut w, &[(2, 5)], || {}).unwrap();
        }
        w.obs.committed.get()
    });
    assert_eq!(committed.iter().sum::<u64>(), 400);
    assert_eq!(value(&c, 2, 5), 100 + 400);
}

#[test]
fn mixed_local_and_remote_contention_conserves_money() {
    // The classic bank test across 3 machines with all workers moving
    // money between random accounts; total must be conserved.
    let c = cluster(3, 1);
    threads(3, |node| {
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
    });
    assert_eq!(total(&c, 0..3, 0..8), 3 * 8 * 100);
}

#[test]
fn lock_held_by_live_member_aborts_instead() {
    let c = cluster(3, 1);
    let off = c.stores[2].get_loc(T_ACCT, key(2, 4)).unwrap() as usize;
    c.stores[2]
        .region
        .cas64(off, LOCK_FREE, lock_word(1))
        .unwrap();
    let nic = Nic::new(&c);
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let v = num(&t.read(2, T_ACCT, key(2, 4)).unwrap());
    t.write(2, T_ACCT, key(2, 4), val(v + 1)).unwrap();
    let r = t.commit();
    assert_eq!(r.unwrap_err(), TxnError::Aborted(AbortReason::LockBusy));
    // The word the lost CAS returned names a live member: busy, with
    // no second CAS to find that out.
    assert_eq!(nic.since(2).atomics, 1);
}

// ---------------------------------------------------------------------
// Fallback handler (§6.1).
// ---------------------------------------------------------------------

#[test]
fn fallback_commits_when_htm_always_fails() {
    // Force the HTM to be useless (100% spurious aborts): every commit
    // must go through the fallback handler and still be correct.
    let c = setup(2).htm_fails(1.0, 2).seed(0..1, 0..1, 10).build();
    let mut w = c.worker(0, 1);
    for _ in 0..5 {
        add_one(&mut w, &[(0, 0)], || {}).unwrap();
    }
    assert_eq!(w.obs.fallbacks.get(), 5);
    // A fallback commit is accounted like any other: every phase
    // histogram has one entry per commit, and the phases — abandoned
    // HTM attempt included — sum to the recorded latency. (Scraped
    // before the read-only check below, which adds read-only phases.)
    let snap = c.obs.scrape();
    for (name, h) in &snap.phases {
        assert_eq!(h.count, 5, "phase {name}");
    }
    let phase_sum: u64 = snap.phases.iter().map(|(_, h)| h.sum).sum();
    assert_eq!(phase_sum, snap.latency.sum);
    assert_eq!(value(&c, 0, 0), 15);
}

/// The fallback handler is the commit walk in another mode, not another
/// walk: after the abandoned HTM attempt's C.1 and C.2 it passes the
/// same seven probes, in the same order, as an HTM commit — replicated
/// or not.
#[test]
fn fallback_fires_the_same_seven_probes_as_an_htm_commit() {
    let seven = ["C.1", "C.2", "C.4", "R.1", "R.2", "C.5", "C.6"];
    for (replicas, htm_fails) in [(1, false), (1, true), (3, false), (3, true)] {
        let c = setup(3)
            .replicas(replicas)
            .htm_fails(if htm_fails { 1.0 } else { 0.0 }, 2)
            .seed(0..2, 0..1, 10)
            .build();
        let log = Arc::new(Mutex::new(Vec::new()));
        on_probe(&c, {
            let log = Arc::clone(&log);
            move |_, point| {
                log.lock().unwrap().push(point);
                false
            }
        });
        let mut w = c.worker(0, 1);
        w.run(|t| {
            let v = num(&t.read(1, T_ACCT, key(1, 0))?);
            t.write(0, T_ACCT, key(0, 0), val(v + 1))?;
            t.write(1, T_ACCT, key(1, 0), val(v - 1))
        })
        .unwrap();
        assert_eq!(w.obs.fallbacks.get(), u64::from(htm_fails));
        let abandoned = if htm_fails { 2 } else { 0 };
        let seen = log.lock().unwrap();
        assert_eq!(seen[..abandoned], seven[..abandoned], "replicas {replicas}");
        assert_eq!(seen[abandoned..], seven, "replicas {replicas}");
    }
}

#[test]
fn fallback_under_concurrency_stays_serializable() {
    let c = setup(2).htm_fails(0.5, 1).seed(0..1, 0..1, 0).build();
    threads(3, |tid| {
        let mut w = c.worker(tid % 2, tid as u64 + 1);
        for _ in 0..100 {
            add_one(&mut w, &[(0, 0)], || {}).unwrap();
        }
    });
    assert_eq!(value(&c, 0, 0), 300);
}

/// The fallback handler locks its local records through loopback CAS
/// and validates them from memory: no header READ is chained behind
/// those CASes, while the remote group's peek rides as usual.
#[test]
fn fallback_locks_local_records_without_a_header_read() {
    let c = setup(2).htm_fails(1.0, 2).seed(0..2, 0..1, 10).build();
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    w.run(|t| {
        let v = num(&t.read(0, T_ACCT, key(0, 0))?);
        t.write(0, T_ACCT, key(0, 0), val(v + 1))?;
        t.write(1, T_ACCT, key(1, 0), val(v))?;
        nic.mark();
        Ok(())
    })
    .unwrap();
    assert_eq!(w.obs.fallbacks.get(), 1);
    let d = [nic.since(0), nic.since(1)];
    // Loopback: lock + unlock of the one local record, in the locked
    // walk only. Remote: lock + peek + unlock in both walks.
    assert_eq!((d[0].atomics, d[0].reads), (2, 0), "{d:?}");
    assert_eq!((d[1].atomics, d[1].reads), (4, 2), "{d:?}");
}

// ---------------------------------------------------------------------
// Lock transports: the messaging and GLOB-fusion ablations.
// ---------------------------------------------------------------------

#[test]
fn msg_locking_mode_is_correct_and_interrupts_htm() {
    // The FaRM-messaging ablation must produce the same results; the
    // host's control line moves with every serviced lock message.
    let c = setup(2)
        .opts(|o| o.locking(LockTransport::Messages))
        .seed(1..2, 0..1, 5)
        .build();
    let nic = Nic::new(&c);
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v * 3))
    })
    .unwrap();
    assert_eq!(value(&c, 1, 0), 15);
    // Lock + unlock messages each interrupted machine 1.
    assert!(c.stores[1].region.load64(drtm_store::CONTROL_LINE_OFF) >= 2);
    // And no one-sided atomics were used.
    assert_eq!(nic.since(1).atomics, 0);
}

/// The messaging ablation swaps the transport of lock, validate and
/// unlock only: a transaction writing k records on one remote node
/// still rings exactly one WRITE doorbell for C.5 (the A/B differs in
/// the one thing it measures), while every lock-service request is a
/// SEND that interrupts the host.
#[test]
fn msg_locking_keeps_c5_one_sided_and_batched() {
    let k = 3u64;
    let c = setup(2)
        .opts(|o| o.locking(LockTransport::Messages))
        .seed(1..2, 0..k, 100)
        .build();
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    w.run(|t| {
        // Zero-sum: record 0 pays one unit to each of the others.
        for i in 0..k {
            let v = num(&t.read(1, T_ACCT, key(1, i))?);
            let next = if i == 0 { v - (k - 1) } else { v + 1 };
            t.write(1, T_ACCT, key(1, i), val(next))?;
        }
        nic.mark();
        Ok(())
    })
    .unwrap();
    assert_eq!(w.obs.committed.get(), 1);
    let d = nic.since(1);
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
    assert_eq!(total(&c, 1..2, 0..k), k * 100, "transfers conserve");
}

/// Drops the `n`-th (0-based) `verb` from machine 0 to machine 1.
fn drop_nth(c: &DrtmCluster, verb: Verb, n: u64) {
    let seen = AtomicU64::new(0);
    on_verb(c, move |src, dst, v| {
        drop_if((src, dst, v) == (0, 1, verb) && seen.fetch_add(1, Ordering::SeqCst) == n)
    });
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
    for (locking, dropped) in [(OneSided, false), (Messages, false), (OneSided, true)] {
        let arm = format!("{locking:?} dropped={dropped}");
        let c = setup(2)
            .opts(|o| o.locking(locking))
            .seed(1..2, 0..3, 100)
            .build();
        // Locks are taken in offset order: block the last one.
        let mut offs: Vec<usize> = (0..3u64)
            .map(|i| c.stores[1].get_loc(T_ACCT, key(1, i)).unwrap() as usize)
            .collect();
        offs.sort_unstable();
        let region = &c.stores[1].region;
        let owner = lock_word(1);
        let (last, expect) = if dropped {
            drop_nth(&c, Cas, 2);
            let fault = TxnError::Transport(drtm_rdma::VerbError::Dropped);
            (LOCK_FREE, fault)
        } else {
            region.cas64(offs[2], LOCK_FREE, owner).unwrap();
            (owner, TxnError::Aborted(AbortReason::LockBusy))
        };
        let mut w = c.worker(0, 1);
        let nic = Nic::new(&c);
        let mut t = w.begin();
        for i in 0..3u64 {
            t.write(1, T_ACCT, key(1, i), val(7)).unwrap();
        }
        nic.mark();
        assert_eq!(t.commit().unwrap_err(), expect, "{arm}");
        assert_eq!(region.load64(offs[0]), LOCK_FREE, "{arm}");
        assert_eq!(region.load64(offs[1]), LOCK_FREE, "{arm}");
        assert_eq!(region.load64(offs[2]), last, "{arm}: the holder's lock");
        // Three lock attempts, two unlocks; one-sided, the three header
        // READs rode the lock doorbell and landed unless flushed.
        let d = nic.since(1);
        let verbs = (d.atomics, d.reads, d.sends, d.doorbells);
        let want = match (locking, dropped) {
            (Messages, _) => (0, 0, 5, 0),
            (_, false) => (5, 3, 0, 2),
            (_, true) => (5, 0, 0, 2),
        };
        assert_eq!(verbs, want, "{arm}: {d:?}");
    }
}

#[test]
fn fused_lock_validate_produces_same_results() {
    let c = setup(2)
        .opts(|o| o.locking(LockTransport::Glob))
        .seed(1..2, 0..1, 5)
        .build();
    let mut w = c.worker(0, 1);
    w.run(|t| {
        let v = num(&t.read(1, T_ACCT, key(1, 0))?);
        t.write(1, T_ACCT, key(1, 0), val(v * 2))
    })
    .unwrap();
    assert_eq!(value(&c, 1, 0), 10);
}

// ---------------------------------------------------------------------
// Doorbell batching.
// ---------------------------------------------------------------------

/// Three records homed on machine 1: [`add_one`] on them commits one
/// transaction whose every commit phase fans out a 3-WR doorbell batch
/// toward machine 1.
const THREE: [(usize, u64); 3] = [(1, 0), (1, 1), (1, 2)];

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
    let k = THREE.len() as u64;
    let c = setup(2).seed(0..2, 0..8, 100).build();
    let mut w = c.worker(0, 1);
    // Marked after execute: the remaining delta against node 1 is
    // exactly the commit fan-out (C.1 + C.2, C.5, C.6).
    let nic = Nic::new(&c);
    add_one(&mut w, &THREE, || nic.mark()).unwrap();
    assert_eq!(w.obs.committed.get(), 1);
    let d = nic.since(1);
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
    let held = Arc::new(AtomicBool::new(true));
    on_verb(&c, {
        let (stores, held) = (c.stores.clone(), Arc::clone(&held));
        let off = |n: usize| stores[n].get_loc(T_ACCT, key(n, 1)).unwrap() as usize;
        let offs = [off(1), off(2)];
        move |_, _, verb| {
            if verb == Write {
                let locked = |n: usize| stores[n].region.load64(offs[n - 1]) == lock_word(0);
                held.fetch_and(locked(1) && locked(2), Ordering::SeqCst);
            }
            Fault::NONE
        }
    });
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    w.run(|t| {
        t.write(1, T_ACCT, key(1, 1), val(1))?;
        t.write(2, T_ACCT, key(2, 1), val(2))?;
        nic.mark();
        Ok(())
    })
    .unwrap();
    assert!(
        held.load(Ordering::SeqCst),
        "nothing is released before the transaction's last image"
    );
    let d: Vec<_> = (0..3).map(|n| nic.since(n).doorbells).collect();
    assert_eq!(d, [0, 3, 3], "C.1 + C.2, C.5, C.6 on each written machine");

    // Replicated: R.1 rings one doorbell per remote backup *machine*.
    // Worker 0 writes primaries 0 (backups {1, 2}) and 1 (backups
    // {2, 0}): node 2 takes both logs behind one doorbell as two WRITEs,
    // node 1 takes one, and node 0's own log of primary 1 is a local
    // store — no doorbell, no verb.
    let c = cluster(3, 3);
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    w.run(|t| {
        t.write(0, T_ACCT, key(0, 1), val(1))?;
        t.write(1, T_ACCT, key(1, 1), val(2))?;
        nic.mark();
        Ok(())
    })
    .unwrap();
    let d: Vec<_> = (0..3).map(|n| nic.since(n)).collect();
    assert_eq!(d[0], NicSnapshot::default(), "loopback: {d:?}");
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

/// NIC pin of one remote read-modify-write, stage by stage: C.1's
/// doorbell carries the lock CAS *and* the header READ C.2 validates, so
/// C.2 adds no verb and no virtual time; then one doorbell for C.5's
/// line image with C.6's unlock CAS behind it, so by the C.5 probe the
/// second atomic is on the wire and C.6 adds nothing.
#[test]
fn lock_and_validate_share_one_doorbell() {
    let c = cluster(2, 1);
    let log = Arc::new(Mutex::new(Vec::new()));
    on_probe(&c, {
        let (fabric, log) = (Arc::clone(&c.fabric), Arc::clone(&log));
        move |_, point| {
            log.lock()
                .unwrap()
                .push((point, fabric.port(1).stats().snapshot()));
            false
        }
    });
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    add_one(&mut w, &[(1, 0)], || nic.mark()).unwrap();
    // `(doorbells, atomics, reads, writes)` since execution ended.
    let seen: Vec<_> = (log.lock().unwrap().iter())
        .map(|(point, at)| {
            let d = at.delta(&nic.at(1));
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
    let c = setup(2)
        .opts(|o| o.contention(crate::ContentionPolicy::Escalate))
        .seed(1..2, 0..2, 100)
        .build();
    let mut offs: Vec<usize> = (0..2u64)
        .map(|i| c.stores[1].get_loc(T_ACCT, key(1, i)).unwrap() as usize)
        .collect();
    offs.sort_unstable();
    let region = &c.stores[1].region;
    let seq = |off: usize| region.load64(off + SEQ_OFF);
    let seeded = seq(offs[1]);
    // A live member holds the second record: CAS 0 wins, CAS 1 loses,
    // CAS 2 is wait mode's retry — by then the holder has committed.
    region.cas64(offs[1], LOCK_FREE, lock_word(1)).unwrap();
    on_verb(&c, {
        // Plays the holder finishing its commit just before the retry
        // executes: installs its sequence number, frees the lock word.
        let (store, off, seen) = (Arc::clone(&c.stores[1]), offs[1], AtomicU64::new(0));
        move |_, dst, verb| {
            if (dst, verb) == (1, Cas) && seen.fetch_add(1, Ordering::SeqCst) == 2 {
                store.record(T_ACCT, off).set_seq(seeded + 2);
                store.region.store64_coherent(off, LOCK_FREE);
            }
            Fault::NONE
        }
    });
    let mut w = c.worker(0, 1);
    // As if a conflict streak had armed rung 2 for this attempt.
    w.force_pessimistic = true;
    let nic = Nic::new(&c);
    w.run(|t| {
        for i in 0..2u64 {
            t.write(1, T_ACCT, key(1, i), val(7))?;
        }
        nic.mark();
        Ok(())
    })
    .unwrap();
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    // Two lock CASes, the retry, two unlocks; two peeks and one re-read.
    let d = nic.since(1);
    assert_eq!((d.atomics, d.reads), (2 + 1 + 2, 2 + 1), "{d:?}");
    // The write went in on top of the holder's version, not the seeded
    // one the stale peek saw.
    assert_eq!(seq(offs[0]), seeded + 2);
    assert_eq!(seq(offs[1]), seeded + 4);
}

/// A transaction larger than the send queue: every per-destination
/// group — C.1's CASes and header READs, C.5's line images with C.6's
/// unlocks behind them — is posted `sq_depth` WRs at a time instead of
/// overflowing the queue, with the verb counts of one unchunked batch.
#[test]
fn groups_larger_than_the_send_queue_are_chunked() {
    for (records, sq_depth) in [(130u64, drtm_rdma::DEFAULT_SQ_DEPTH), (5, 4)] {
        let c = setup(2)
            .sq_depth(sq_depth)
            .seed(1..2, 0..records, 100)
            .build();
        let mut w = c.worker(0, 1);
        let nic = Nic::new(&c);
        w.run(|t| {
            for i in 0..records {
                t.write(1, T_ACCT, key(1, i), val(7))?;
            }
            nic.mark();
            Ok(())
        })
        .unwrap();
        assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
        let d = nic.since(1);
        let verbs = (d.atomics, d.reads, d.writes, d.saved);
        assert_eq!(verbs, (2 * records, records, records, 0), "{d:?}");
        // 2k WRs of C.1 + C.2 and 2k of C.5 + C.6, each in chunks.
        let chunks = 2 * (2 * records).div_ceil(sq_depth as u64);
        assert_eq!(d.doorbells, chunks, "{d:?}");
        assert_eq!(value(&c, 1, records - 1), 7);
    }
}

// ---------------------------------------------------------------------
// Dropped work requests.
// ---------------------------------------------------------------------

/// Two machines with keys 0..8 of shard 1 seeded, `install` run on the
/// cluster, then one worker's [`add_one`] on [`THREE`]: the cluster
/// and the worker's abort count.
fn run_three_record_txn(install: impl FnOnce(&DrtmCluster)) -> (Arc<DrtmCluster>, u64) {
    let c = setup(2).seed(1..2, 0..8, 100).build();
    install(&c);
    let mut w = c.worker(0, 1);
    add_one(&mut w, &THREE, || {}).unwrap();
    (c, w.obs.aborted.get())
}

/// Every verb from C.5's first line image on, each with its destination
/// and how many of the `(machine, offset)` records were still locked
/// when it was issued.
type ImageLog = Arc<Mutex<Vec<(NodeId, Verb, usize)>>>;

/// Drops C.5's first line image — without replication the first WRITE
/// — and keeps an [`ImageLog`] of `recs` from there on.
fn drop_first_image(c: &DrtmCluster, recs: &[(usize, usize)]) -> ImageLog {
    let log = ImageLog::default();
    let (stores, recs, tapped) = (c.stores.clone(), recs.to_vec(), Arc::clone(&log));
    on_verb(c, move |_, dst, verb| {
        let mut log = tapped.lock().unwrap();
        let first_image = log.is_empty() && verb == Write;
        if first_image || !log.is_empty() {
            let locked = |&&(n, off): &&(usize, usize)| stores[n].region.load64(off) != LOCK_FREE;
            log.push((dst, verb, recs.iter().filter(locked).count()));
        }
        drop_if(first_image)
    });
    log
}

/// The `(machine, offset)` of `key(n, i)` for each of `keys`.
fn locate(c: &DrtmCluster, keys: &[(usize, u64)]) -> Vec<(usize, usize)> {
    let at = |&(n, i): &(usize, u64)| (n, c.stores[n].get_loc(T_ACCT, key(n, i)).unwrap() as usize);
    keys.iter().map(at).collect()
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
    let (c, aborted) = run_three_record_txn(|c| drop_nth(c, Cas, 1));
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
    for i in 0..3u64 {
        assert_eq!(value(&c, 1, i), 101, "retry committed exactly once");
    }
}

/// Dropping the first line image of C.5's doorbell flushes everything
/// posted behind it — the other two images and the three unlock CASes
/// chained behind them — so no record is released over a torn or stale
/// image. The routine re-posts them in post order through the reactor,
/// images first: the log is every verb the injector saw from the drop
/// on, with how many of the three records were still locked when it was
/// issued.
#[test]
fn dropped_update_wr_flushes_the_unlocks_behind_it() {
    let c = cluster(2, 1);
    let recs = locate(&c, &THREE);
    let region = &c.stores[1].region;
    let seeded = region.load64(recs[0].1 + SEQ_OFF);
    let log = drop_first_image(&c, &recs);
    let mut w = c.worker(0, 1);
    add_one(&mut w, &THREE, || {}).unwrap();
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    assert_eq!(
        *log.lock().unwrap(),
        [
            (1, Write, 3),
            (1, Write, 3),
            (1, Write, 3),
            (1, Write, 3),
            (1, Cas, 3),
            (1, Cas, 2),
            (1, Cas, 1)
        ],
        "the drop, then three images under all three locks, then the unlocks"
    );
    for &(_, off) in &recs {
        assert_eq!(region.load64(off), LOCK_FREE);
        assert_eq!(region.load64(off + SEQ_OFF), seeded + 2);
    }
    for i in 0..3u64 {
        assert_eq!(value(&c, 1, i), 101);
    }
}

/// Dropping an unsignalled unlock CAS chained behind C.5's images is
/// repaired by re-posting that CAS — and the unlocks flushed behind
/// it — and nothing else: no image is written twice,
/// no dangling lock survives, so a second worker can immediately lock
/// the same records.
#[test]
fn dropped_unlock_wr_is_retransmitted() {
    // CAS #0..2 toward node 1 are the C.1 locks; #3..5 the C.6 unlocks.
    for (nth, retransmitted) in [(5, vec![Cas]), (4, vec![Cas, Cas])] {
        // CASes seen so far, and every verb after the dropped one.
        let state = Arc::new(Mutex::new((0, Vec::new())));
        let (c, aborted) = run_three_record_txn(|c| {
            let state = Arc::clone(&state);
            on_verb(c, move |_, _, verb| {
                let mut s = state.lock().unwrap();
                if s.0 > nth {
                    s.1.push(verb);
                    return Fault::NONE;
                }
                s.0 += u64::from(verb == Cas);
                drop_if(s.0 > nth)
            })
        });
        assert_eq!(aborted, 0, "C.6 drops are repaired, not aborted");
        assert_eq!(state.lock().unwrap().1, retransmitted, "unlock #{nth}");
        c.fabric.clear_injector();
        let mut w = c.worker(0, 2);
        add_one(&mut w, &THREE, || {}).unwrap();
        assert_eq!(w.obs.aborted.get(), 0, "no stale lock can remain");
    }
}

/// Dropping a header READ chained behind C.1's CASes costs the commit
/// nothing but the round trip it was saving: the locks were won, so C.2
/// fetches that header — and the two flushed behind it — again and the
/// transaction commits on its first attempt.
#[test]
fn dropped_peek_read_is_retransmitted() {
    let c = cluster(2, 1);
    // Drops the first READ issued after it is armed.
    let armed = Arc::new(AtomicBool::new(false));
    on_verb(&c, {
        let armed = Arc::clone(&armed);
        move |_, _, verb| drop_if(verb == Read && armed.swap(false, Ordering::SeqCst))
    });
    let mut w = c.worker(0, 1);
    let nic = Nic::new(&c);
    add_one(&mut w, &THREE, || {
        // Execution is over: the next READ is C.1's first header peek.
        armed.store(true, Ordering::SeqCst);
        nic.mark();
    })
    .unwrap();
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    // The first peek is dropped on the wire and the other two never
    // reach it (flushed: not counted); all three are refetched, in a
    // doorbell of their own between C.1's and C.5 + C.6's.
    let d = nic.since(1);
    assert_eq!((d.reads, d.doorbells), (1 + 3, 2 + 1), "{d:?}");
    for i in 0..3u64 {
        assert_eq!(value(&c, 1, i), 101);
    }
}

/// A 130-record write at `sq_depth` 4 is 33 chunks of images, then the
/// unlocks in the last 32: no unlock is posted until every chunk of
/// images has been settled. The first image is dropped, which flushes
/// the three behind it; all four are re-posted before the second chunk
/// is posted, and every WRITE — the injector logs each verb from
/// the drop on with how many of the records are still locked — finds
/// all 130 locks held.
#[test]
fn dropped_image_in_a_chunked_write_is_settled_before_any_unlock() {
    let records = 130usize;
    let c = setup(2)
        .sq_depth(4)
        .seed(1..2, 0..records as u64, 100)
        .build();
    let keys: Vec<_> = (0..records as u64).map(|i| (1, i)).collect();
    let log = drop_first_image(&c, &locate(&c, &keys));
    let mut w = c.worker(0, 1);
    w.run(|t| {
        for i in 0..records as u64 {
            t.write(1, T_ACCT, key(1, i), val(7))?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    // The drop, its chunk's four re-posts, the other 126 images;
    // then the unlocks, one fewer record locked at each.
    let want = (0..1 + 4 + 126)
        .map(|_| (1, Write, records))
        .chain((0..records).map(|i| (1, Cas, records - i)));
    assert_eq!(*log.lock().unwrap(), want.collect::<Vec<_>>());
}

/// Two written machines, both machines' images in one park, and the
/// first image toward the *first* machine dropped: its second image is
/// flushed behind it, machine 2's land untouched (another queue pair),
/// and the routine, woken at the latest horizon, re-posts machine 1's
/// two before C.6 posts a single unlock. The log is every verb the injector saw from the drop on:
/// destination, verb, and how many of the four records were still
/// locked. Every image is issued under all four locks; nothing dangles.
#[test]
fn dropped_image_on_the_first_of_two_written_machines_lands_before_any_unlock() {
    let c = cluster(3, 1);
    let keys = [(1, 0), (1, 1), (2, 0), (2, 1)];
    let recs = locate(&c, &keys);
    let seeded = c.stores[1].region.load64(recs[0].1 + SEQ_OFF);
    let log = drop_first_image(&c, &recs);
    let mut w = c.worker(0, 1);
    add_one(&mut w, &keys, || {}).unwrap();
    assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    assert_eq!(
        *log.lock().unwrap(),
        [
            (1, Write, 4), // dropped; the image behind it is flushed
            (2, Write, 4),
            (2, Write, 4),
            (1, Write, 4), // both re-posted, in post order
            (1, Write, 4),
            (1, Cas, 4),
            (1, Cas, 3),
            (2, Cas, 2),
            (2, Cas, 1),
        ]
    );
    for &(n, off) in &recs {
        let region = &c.stores[n].region;
        assert_eq!(region.load64(off), LOCK_FREE);
        assert_eq!(region.load64(off + SEQ_OFF), seeded + 2);
    }
    c.fabric.clear_injector();
    for (n, i) in keys {
        assert_eq!(value(&c, n, i), 101);
    }
}
