//! The baselines' tests: DrTM and Calvin over one fixture of two
//! machines and one table, and the oracle pass.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm_base::task::block_now;
use drtm_cluster::LogEntryRef;
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_core::txn::{AbortReason, TxnApi, TxnError};
use drtm_core::RoutinePool;
use drtm_rdma::{Fault, FaultInjector, NodeId, Verb};
use drtm_store::record::{lock_word, LOCK_FREE};
use drtm_store::TableSpec;

use crate::calvin::CalvinEngine;
use crate::drtm2pl;

/// Two machines, one table of 16-byte records; keys `shard << 32 | k`
/// for `k < 8` on each shard, every balance 100.
fn cluster() -> Arc<DrtmCluster> {
    let c = DrtmCluster::new(
        2,
        &[TableSpec::hash(0, 1024, 16)],
        EngineOpts::builder().region_size(1 << 20).build(),
    );
    for shard in 0..2 {
        for k in 0..8u64 {
            c.seed_record(shard, 0, (shard as u64) << 32 | k, &val(100));
        }
    }
    c
}

fn num(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

mod drtm {
    use super::*;

    #[test]
    fn local_and_remote_transfer() {
        let c = cluster();
        let mut w = c.worker(0, 1);
        block_now(drtm2pl::run(&mut w, async |t| {
            let a = num(&t.read(0, 0, 1).await?);
            let b = num(&t.read(1, 0, 1 << 32 | 1).await?);
            t.write(0, 0, 1, val(a - 10)).await?;
            t.write(1, 0, 1 << 32 | 1, val(b + 10)).await
        }))
        .unwrap();
        assert_eq!(w.obs.committed.get(), 1);
        // Check via a DrTM+R read-only transaction on the other machine.
        let mut v = c.worker(1, 9);
        let a = v.run_ro(|t| t.read(0, 0, 1)).unwrap();
        let b = v.run_ro(|t| t.read(1, 0, 1 << 32 | 1)).unwrap();
        assert_eq!(num(&a), 90);
        assert_eq!(num(&b), 110);
    }

    #[test]
    fn concurrent_increments_serialize() {
        let c = cluster();
        let mut handles = Vec::new();
        for nodeid in 0..2usize {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut w = c.worker(nodeid, nodeid as u64 + 5);
                for _ in 0..100 {
                    block_now(drtm2pl::run(&mut w, async |t| {
                        increment(t, 1, 1 << 32).await
                    }))
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut v = c.worker(1, 9);
        assert_eq!(num(&v.run_ro(|t| t.read(1, 0, 1 << 32)).unwrap()), 300);
    }

    /// Two routines of one pool on one OS thread increment one remote
    /// record: a lock holder stays parked across its round trips, so
    /// its sibling's CAS finds the word held and waits for its release
    /// instead of spinning the thread — one lost CAS per wait, and no
    /// wait runs out into a `LockBusy` abort.
    #[test]
    fn one_pool_runs_two_routines_on_one_thread() {
        let c = cluster();
        let key = 1 << 32 | 3;
        let before = c.fabric.port(1).stats().snapshot();
        let workers = (0..2).map(|id| c.worker(0, 11 + id)).collect();
        let done = RoutinePool::run(workers, async |_, w| {
            for _ in 0..100 {
                drtm2pl::run(w, async |t| increment(t, 1, key).await)
                    .await
                    .unwrap();
            }
            w.obs.committed.get()
        });
        assert_eq!(done.iter().map(|(_, n)| n).sum::<u64>(), 200);
        let mut v = c.worker(1, 9);
        assert_eq!(num(&v.run_ro(|t| t.read(1, 0, key)).unwrap()), 300);
        // Each of the 200 commits is one lock CAS and one unlock CAS;
        // every CAS beyond those found the word held by the sibling, and
        // a commit loses at most one before the release it waits for.
        let atomics = c.fabric.port(1).stats().snapshot().delta(&before).atomics;
        assert!(
            (401..=600).contains(&atomics),
            "lost lock CASes beyond one per commit, or none: {atomics}"
        );
        let aborts = drtm_core::scrape_cluster(&c).aborts;
        let busy = aborts
            .iter()
            .find(|(label, _)| *label == AbortReason::LockBusy.label());
        assert_eq!(busy.map(|(_, n)| *n), Some(0), "{aborts:?}");
    }

    /// A transfer between a local record and one remote record rings
    /// one doorbell per row at the remote machine: C.1's lock CAS, the
    /// READ under the lock, and C.5's image with C.6's unlock chained
    /// behind it — three, where a lock, two READs (one for the read
    /// set, one for the write set), a write-back and an unlock each
    /// rang their own.
    #[test]
    fn one_remote_record_rings_one_doorbell_per_row() {
        let c = cluster();
        let before = c.fabric.port(1).stats().snapshot();
        let mut w = c.worker(0, 1);
        block_now(drtm2pl::run(&mut w, async |t| {
            let a = num(&t.read(0, 0, 1).await?);
            let b = num(&t.read(1, 0, 1 << 32 | 1).await?);
            t.write(0, 0, 1, val(a - 10)).await?;
            t.write(1, 0, 1 << 32 | 1, val(b + 10)).await
        }))
        .unwrap();
        let d = c.fabric.port(1).stats().snapshot().delta(&before);
        let shape = (d.doorbells, d.atomics, d.reads, d.writes);
        assert_eq!(shape, (3, 2, 1, 1), "{d:?}");
    }

    /// Drops the first READ from machine 0 to machine 1.
    struct DropFirstRead(AtomicBool);

    impl FaultInjector for DropFirstRead {
        fn on_verb(&self, src: NodeId, dst: NodeId, verb: Verb, _now: u64) -> Fault {
            let first =
                (src, dst, verb) == (0, 1, Verb::Read) && !self.0.swap(true, Ordering::SeqCst);
            Fault {
                drop: first,
                ..Fault::NONE
            }
        }
    }

    /// A dropped READ under `lock_and_fetch`'s lock is re-posted, in a
    /// doorbell of its own, while the lock stays held: the transfer
    /// commits on its first attempt, on the value read the second time,
    /// and conserves money.
    #[test]
    fn dropped_record_read_under_the_lock_is_reposted() {
        let c = cluster();
        c.fabric
            .set_injector(Arc::new(DropFirstRead(AtomicBool::new(false))));
        let before = c.fabric.port(1).stats().snapshot();
        let mut w = c.worker(0, 1);
        block_now(drtm2pl::run(&mut w, async |t| {
            let a = num(&t.read(0, 0, 1).await?);
            let b = num(&t.read(1, 0, 1 << 32 | 1).await?);
            t.write(0, 0, 1, val(a - 10)).await?;
            t.write(1, 0, 1 << 32 | 1, val(b + 10)).await
        }))
        .unwrap();
        assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
        let d = c.fabric.port(1).stats().snapshot().delta(&before);
        let shape = (d.doorbells, d.atomics, d.reads, d.writes);
        assert_eq!(
            shape,
            (4, 2, 2, 1),
            "one more READ, in its own doorbell: {d:?}"
        );
        c.fabric.clear_injector();
        let mut v = c.worker(1, 9);
        let a = num(&v.run_ro(|t| t.read(0, 0, 1)).unwrap());
        let b = num(&v.run_ro(|t| t.read(1, 0, 1 << 32 | 1)).unwrap());
        assert_eq!((a, b), (90, 110), "money conserved");
    }

    /// A remote lock word owned by a machine outside the configuration
    /// is stolen, and its record rolled forward to its freshest durable
    /// version before the READ under the lock (§5.2): the increment
    /// lands on the healed value.
    #[test]
    fn steals_a_departed_owners_lock_and_heals_the_record() {
        let c = DrtmCluster::new(
            3,
            &[TableSpec::hash(0, 1024, 16)],
            EngineOpts::builder()
                .region_size(1 << 20)
                .replicas(2)
                .build(),
        );
        let key = 2 << 32 | 4;
        c.seed_record(2, 0, key, &val(100));
        let off = c.stores[2].get_loc(0, key).unwrap() as usize;
        // Machine 1 made an update to 500 durable on the record's
        // backups, then died holding its lock before writing it.
        let logged = LogEntryRef {
            table: 0,
            key,
            seq: 4,
            value: &val(500),
            delete: false,
        };
        for b in c.backups_of(2) {
            c.backups.apply(b, 2, logged);
        }
        let region = &c.stores[2].region;
        region.cas64(off, LOCK_FREE, lock_word(1)).unwrap();
        c.crash(1);
        c.config.remove_member(1);

        let mut w = c.worker(0, 1);
        block_now(drtm2pl::run(&mut w, async |t| increment(t, 2, key).await)).unwrap();
        let rec = c.stores[2].record(0, off);
        let mut v = [0u8; 16];
        rec.read_value_raw(&mut v);
        assert_eq!((num(&v), rec.seq(), rec.lock()), (501, 6, LOCK_FREE));
        assert_eq!((w.obs.committed.get(), w.obs.aborted.get()), (1, 0));
    }

    async fn increment(t: &mut dyn TxnApi, shard: usize, key: u64) -> Result<(), TxnError> {
        let v = num(&t.read(shard, 0, key).await?);
        t.write(shard, 0, key, val(v + 1)).await
    }

    /// The one HTM region reads, and charges `htm_per_line_ns +
    /// mem_access_ns` for, only the lines a read's head needs: the
    /// first 8 bytes of two local 2-line records cost two lines fewer
    /// than the whole records.
    #[test]
    fn region_charges_the_lines_a_head_reads() {
        let c = DrtmCluster::new(
            1,
            &[TableSpec::hash(0, 64, 64)],
            EngineOpts::builder().region_size(1 << 20).build(),
        );
        for k in 0..2u8 {
            c.seed_record(0, 0, k.into(), &[k; 64]);
        }
        let spent = [8, usize::MAX].map(|head| {
            let mut w = c.worker(0, 1);
            let read = async |t: &mut dyn TxnApi| t.read_many(&[(0, 0, 0), (0, 0, 1)], head).await;
            let got = block_now(drtm2pl::run(&mut w, read)).unwrap();
            assert_eq!(got[1], vec![1u8; head.min(64)]);
            w.clock.now()
        });
        let cost = &c.opts.cost;
        let line = cost.htm_per_line_ns + cost.mem_access_ns;
        assert_eq!(spent[1] - spent[0], 2 * line);
    }

    #[test]
    fn clock_advances_more_for_remote() {
        let c = cluster();
        let mut w = c.worker(0, 1);
        block_now(drtm2pl::run(&mut w, async |t| increment(t, 0, 2).await)).unwrap();
        let local_t = w.clock.now();
        block_now(drtm2pl::run(&mut w, async |t| {
            increment(t, 1, 1 << 32 | 2).await
        }))
        .unwrap();
        let remote_t = w.clock.now() - local_t;
        assert!(
            remote_t > local_t,
            "distributed txns must cost more: {local_t} vs {remote_t}"
        );
    }
}

mod calvin {
    use super::*;

    fn setup() -> (Arc<DrtmCluster>, Arc<CalvinEngine>) {
        let c = cluster();
        let e = CalvinEngine::new(Arc::clone(&c));
        (c, e)
    }

    async fn increment(t: &mut dyn TxnApi, key: u64) -> Result<(), TxnError> {
        let v = num(&t.read(0, 0, key).await?);
        t.write(0, 0, key, val(v + 1)).await
    }

    #[test]
    fn transfer_commits() {
        let (c, e) = setup();
        let mut w = c.worker(0, 1);
        block_now(e.run(&mut w, async |t| {
            let a = num(&t.read(0, 0, 1).await?);
            let b = num(&t.read(1, 0, 1 << 32 | 1).await?);
            t.write(0, 0, 1, val(a - 5)).await?;
            t.write(1, 0, 1 << 32 | 1, val(b + 5)).await
        }))
        .unwrap();
        let mut v = c.worker(0, 9);
        assert_eq!(num(&v.run_ro(|t| t.read(0, 0, 1)).unwrap()), 95);
        assert_eq!(num(&v.run_ro(|t| t.read(1, 0, 1 << 32 | 1)).unwrap()), 105);
    }

    #[test]
    fn calvin_is_much_slower_than_drtm_r() {
        let (c, e) = setup();
        // One remote transaction each.
        let mut cw = c.worker(0, 1);
        block_now(e.run(&mut cw, async |t| {
            let v = num(&t.read(1, 0, 1 << 32 | 2).await?);
            t.write(1, 0, 1 << 32 | 2, val(v + 1)).await
        }))
        .unwrap();
        let mut dw = c.worker(0, 2);
        dw.run(|t| {
            let v = num(&t.read(1, 0, 1 << 32 | 3)?);
            t.write(1, 0, 1 << 32 | 3, val(v + 1))
        })
        .unwrap();
        assert!(
            cw.clock.now() > 5 * dw.clock.now(),
            "Calvin {} vs DrTM+R {}",
            cw.clock.now(),
            dw.clock.now()
        );
    }

    #[test]
    fn concurrent_increments_serialize() {
        let (c, e) = setup();
        let mut handles = Vec::new();
        for id in 0..2u64 {
            let (c, e) = (Arc::clone(&c), Arc::clone(&e));
            handles.push(std::thread::spawn(move || {
                let mut w = c.worker(id as usize, id + 3);
                for _ in 0..100 {
                    block_now(e.run(&mut w, async |t| increment(t, 4).await)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut v = c.worker(0, 9);
        assert_eq!(num(&v.run_ro(|t| t.read(0, 0, 4)).unwrap()), 300);
    }

    /// Two routines of one pool on one OS thread increment one record:
    /// both finish, so a lock wait parks instead of spinning the thread.
    #[test]
    fn one_pool_runs_two_routines_on_one_thread() {
        let (c, e) = setup();
        let workers = (0..2).map(|id| c.worker(0, 11 + id)).collect();
        let done = RoutinePool::run(workers, async |_, w| {
            for _ in 0..100 {
                e.run(w, async |t| increment(t, 5).await).await.unwrap();
            }
            w.obs.committed.get()
        });
        assert_eq!(done.iter().map(|(_, n)| n).sum::<u64>(), 200);
        let mut v = c.worker(0, 9);
        assert_eq!(num(&v.run_ro(|t| t.read(0, 0, 5)).unwrap()), 300);
    }
}

mod oracle {
    use super::*;
    use crate::oracle::OracleCtx;

    fn cluster() -> Arc<DrtmCluster> {
        let c = DrtmCluster::new(
            2,
            &[TableSpec::hash(0, 256, 16)],
            EngineOpts::builder().region_size(1 << 20).build(),
        );
        c.seed_record(0, 0, 1, &[1u8; 16]);
        c.seed_record(1, 0, 2, &[2u8; 16]);
        c
    }

    #[test]
    fn oracle_collects_sets_without_charging() {
        let c = cluster();
        let mut o = OracleCtx::new(Arc::clone(&c), 0);
        let v = o.read(0, 0, 1, usize::MAX).unwrap();
        assert_eq!(v, vec![1u8; 16]);
        o.read(1, 0, 2, usize::MAX).unwrap();
        // Duplicate: deduped. Its value is cut to the head.
        assert_eq!(o.read(0, 0, 1, 8), Ok(vec![1u8; 8]));
        o.write(1, 0, 2).unwrap();
        o.insert(0, 0, 99, vec![9u8; 16]);
        assert_eq!(o.sets.reads.len(), 2);
        assert_eq!(o.sets.writes.len(), 1);
        assert_eq!(o.sets.inserts.len(), 1);
        // The written record was read: two records, not three.
        assert_eq!(o.sets.distinct_records(), 2);
    }

    #[test]
    fn oracle_not_found() {
        let c = cluster();
        let mut o = OracleCtx::new(c, 0);
        assert_eq!(
            o.read(0, 0, 777, usize::MAX).unwrap_err(),
            TxnError::NotFound
        );
    }
}
