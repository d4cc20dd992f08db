//! The history checker: on hand-built histories each anomaly is a
//! cycle naming its members and serializable histories pass; on the
//! engine, what a commit records.

use super::*;
use crate::commit::STAGES;
use crate::history::{check, Dep, Txn, Version, Violation};

/// Version `seq` of record `key` (table 0, machine 0, incarnation 1).
fn v(key: u64, seq: u64) -> Version {
    Version {
        node: 0,
        table: 0,
        key,
        rec_off: key as usize * 64,
        incarnation: 1,
        seq,
    }
}

/// A transaction of worker `worker` between stamps `begin` and `end`.
fn txn(worker: u64, (begin, end): (u64, u64), reads: &[Version], writes: &[Version]) -> Txn {
    Txn {
        worker,
        begin,
        end,
        reads: reads.to_vec(),
        writes: writes.to_vec(),
        ..Txn::default()
    }
}

/// The cycle's members and edges, in cycle order from the lowest
/// position.
fn cycle(history: &[Txn]) -> Vec<(usize, Dep)> {
    let found = check(history).expect_err("a cycle");
    let Violation::Cycle(members) = &found else {
        panic!("not a cycle: {found}");
    };
    let mut members: Vec<(usize, Dep)> = members.iter().map(|(n, dep)| (n.at, *dep)).collect();
    let first = members
        .iter()
        .enumerate()
        .min_by_key(|(_, m)| m.0)
        .unwrap()
        .0;
    members.rotate_left(first);
    members
}

/// Write skew: each reads both records and writes the one the other
/// did not; neither saw the other's write.
#[test]
fn write_skew_is_an_rw_rw_cycle() {
    let (x, y) = (1, 2);
    let history = [
        txn(1, (1, 3), &[v(x, 2), v(y, 2)], &[v(x, 4)]),
        txn(2, (2, 4), &[v(x, 2), v(y, 2)], &[v(y, 4)]),
    ];
    assert_eq!(cycle(&history), [(0, Dep::Rw), (1, Dep::Rw)]);
}

/// A lost update: both read version 2 and write on top of it; the
/// second install overwrote the first without reading it.
#[test]
fn a_lost_update_is_a_ww_rw_cycle() {
    let x = 1;
    let history = [
        txn(1, (1, 3), &[v(x, 2)], &[v(x, 4)]),
        txn(2, (2, 4), &[v(x, 2)], &[v(x, 6)]),
    ];
    assert_eq!(cycle(&history), [(0, Dep::Ww), (1, Dep::Rw)]);
}

/// A stale read: the reader began after the writer's commit returned,
/// and still read the version the writer overwrote.
#[test]
fn a_stale_read_after_a_returned_commit_is_an_rt_rw_cycle() {
    let x = 1;
    let history = [
        txn(1, (1, 2), &[], &[v(x, 4)]),
        txn(2, (3, 4), &[v(x, 2)], &[]),
    ];
    assert_eq!(cycle(&history), [(0, Dep::Rt), (1, Dep::Rw)]);
    // Begun before the write returned, the same read serializes first.
    let concurrent = [history[0].clone(), txn(2, (2, 4), &[v(x, 2)], &[])];
    let graph = check(&concurrent).unwrap();
    assert_eq!((graph.rw, graph.rt), (1, 0));
}

/// A replicated local write installs an odd sequence number and its
/// makeup the even successor: a read of either is a read of that one
/// install, which a later writer overwrites.
#[test]
fn an_odd_read_is_a_read_of_its_makeups_install() {
    let x = 1;
    let history = [
        txn(1, (1, 4), &[v(x, 2)], &[v(x, 3)]),
        txn(2, (2, 5), &[v(x, 3)], &[]),
        txn(3, (6, 7), &[v(x, 4)], &[]),
        txn(4, (8, 9), &[v(x, 4)], &[v(x, 6)]),
    ];
    let graph = check(&history).expect("serializable");
    assert_eq!((graph.ww, graph.wr, graph.rw), (1, 3, 2));
    assert_eq!((graph.wr_cross, graph.rw_cross), (3, 2));
}

/// Interleaved but serializable: a reader of the old version commits
/// after the writer began, and everything follows real time.
#[test]
fn a_serializable_interleaving_passes() {
    let (x, y) = (1, 2);
    let history = [
        txn(1, (1, 4), &[v(x, 2)], &[v(x, 4)]),
        txn(2, (2, 3), &[v(x, 2), v(y, 2)], &[]),
        txn(3, (5, 7), &[v(x, 4)], &[v(y, 4)]),
        txn(1, (6, 8), &[v(y, 2)], &[]),
    ];
    let graph = check(&history).expect("serializable");
    assert_eq!((graph.txns, graph.ww, graph.wr, graph.rw), (4, 0, 1, 3));
    // Txns 2 and 3 began after txns 0 and 1 returned.
    assert_eq!(graph.rt, 2);
}

/// A delete ends its incarnation: a read of the record's last version
/// serializes before the deleter, an insert starts a new incarnation.
#[test]
fn deletes_and_inserts_install_ended_and_new_incarnations() {
    let x = 1;
    let fresh = Version {
        incarnation: 2,
        ..v(x, 2)
    };
    let history = [
        txn(1, (1, 2), &[v(x, 2)], &[v(x, Version::ENDED)]),
        txn(2, (3, 4), &[v(x, 2)], &[]),
        txn(3, (5, 6), &[], &[fresh]),
        txn(4, (7, 8), &[fresh], &[]),
    ];
    assert_eq!(cycle(&history), [(0, Dep::Rt), (1, Dep::Rw)]);
    let graph = check(&[history[0].clone(), history[2].clone(), history[3].clone()]);
    assert_eq!(graph.map(|g| g.wr), Ok(1));
}

/// Two installs of one version, and a read of a version past a
/// recorded install that nobody installed, are not histories of this
/// engine.
#[test]
fn a_twice_installed_or_unwritten_version_is_reported() {
    let x = 1;
    let twice = [
        txn(1, (1, 2), &[], &[v(x, 4)]),
        txn(2, (3, 4), &[], &[v(x, 4)]),
    ];
    assert!(matches!(check(&twice), Err(Violation::TwoInstalls(..))));
    let unwritten = [
        txn(1, (1, 2), &[], &[v(x, 4)]),
        txn(2, (3, 4), &[v(x, 6)], &[]),
    ];
    assert!(matches!(check(&unwritten), Err(Violation::Unwritten(..))));
}

/// A read-only transaction on either machine reads `B` = `key(1, 0)`,
/// then — while [`hold_at`] holds a committer that rewrites `A` =
/// `key(0, 0)` at C.4 and `B` at C.5 at each stage in turn — reads `A`
/// and commits if it can. Committing `{A new, B old}` would be a cycle
/// (`A`'s wr edge in, `B`'s rw edge out); whatever the reader's
/// outcome, the recorded history is acyclic and holds the committer.
#[test]
fn readers_around_a_held_committer_record_serializable_histories() {
    for reader in [0, 1] {
        for stage in &STAGES {
            let c = cluster(2, 1);
            let history = c.record_history();
            let mut r = c.worker(reader, 2);
            let mut t = r.begin_ro();
            assert_eq!(t.read(1, T_ACCT, key(1, 0)).map(|v| num(&v)), Ok(100));
            let outcome = hold_at(&c, stage, || {
                let _ = t.read(0, T_ACCT, key(0, 0));
                t.commit()
            });
            let at = (reader, stage.probe);
            let graph = history.check().unwrap_or_else(|v| panic!("{at:?}: {v}"));
            assert_eq!(graph.txns, 1 + usize::from(outcome.is_ok()), "{at:?}");
        }
    }
}

/// A replicated commit records what it installed: its local write at
/// the odd sequence number C.4 applied, its remote write at the even
/// one C.5 wrote, an insert at a new incarnation and a delete as the
/// end of the deleted record's. A later reader of each written record
/// reads the version the makeup completed.
#[test]
fn a_commit_records_its_reads_and_installs() {
    let c = cluster(3, 3);
    let history = c.record_history();
    let mut w = c.worker(0, 1);
    let (a, b, new, gone) = (key(0, 1), key(1, 1), key(1, 900), key(0, 2));
    w.run(|t| {
        let x = num(&t.read(0, T_ACCT, a)?);
        t.write(0, T_ACCT, a, val(x + 1))?;
        t.write(1, T_ACCT, b, val(7))?;
        t.insert(1, T_ACCT, new, val(1));
        t.delete(0, T_ACCT, gone);
        Ok(())
    })
    .unwrap();
    w.run_ro(|t| {
        t.read(0, T_ACCT, a)?;
        t.read(1, T_ACCT, b)?;
        t.read(1, T_ACCT, new)
    })
    .unwrap();
    let txns = history.txns.lock().clone();
    let [writer, reader] = &txns[..] else {
        panic!("two commits: {txns:?}");
    };
    let seqs = |vs: &[Version]| vs.iter().map(|v| (v.key, v.seq)).collect::<Vec<_>>();
    assert_eq!(seqs(&writer.reads), [(a, 2)]);
    let ended = Version::ENDED;
    assert_eq!(
        seqs(&writer.writes),
        [(a, 3), (b, 4), (new, 2), (gone, ended)]
    );
    assert_eq!(seqs(&reader.reads), [(a, 4), (b, 4), (new, 2)]);
    let incarnation = |vs: &[Version], k| vs.iter().find(|v| v.key == k).unwrap().incarnation;
    assert_eq!(
        incarnation(&reader.reads, new),
        incarnation(&writer.writes, new)
    );
    assert!(writer.end < reader.begin && writer.vend_ns <= reader.vbegin_ns);
    let graph = history.check().unwrap();
    assert_eq!(
        (graph.txns, graph.ww, graph.wr, graph.rw, graph.rt),
        (2, 0, 3, 0, 1)
    );
}
