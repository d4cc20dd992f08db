//! End-to-end checks of the optimistic replication protocol (§5.1)
//! through the facade crate.

use std::sync::Arc;

use drtm::core::cluster::{DrtmCluster, EngineOpts};
use drtm::core::txn::TxnError;
use drtm::htm::HtmConfig;
use drtm::store::record::SEQ_OFF;
use drtm::store::TableSpec;

const T: u32 = 0;

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn num(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

/// A 3-node, 3-replica cluster. With `htm_fails` every HTM region
/// aborts, so each read-write commit takes the fallback handler (§6.1).
fn build(htm_fails: bool) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(3)
        .region_size(2 << 20)
        .htm(HtmConfig {
            spurious_abort_prob: if htm_fails { 1.0 } else { 0.0 },
            ..Default::default()
        })
        .build();
    let c = DrtmCluster::new(3, &[TableSpec::hash(T, 1024, 16)], opts);
    for shard in 0..3 {
        for k in 0..8u64 {
            c.seed_record(shard, T, (shard as u64) << 32 | k, &val(100));
        }
    }
    c
}

/// Sequence numbers are even (committable) whenever no commit is in
/// flight, for local, remote, and fallback commit paths.
#[test]
fn quiescent_sequence_numbers_are_even() {
    for htm_fails in [false, true] {
        let c = build(htm_fails);
        let mut w = c.worker(0, 1);
        // Local write.
        w.run(|t| t.write(0, T, 1, val(1))).unwrap();
        // Remote write.
        w.run(|t| t.write(1, T, 1 << 32 | 1, val(2))).unwrap();
        assert_eq!(w.obs.fallbacks.get(), if htm_fails { 2 } else { 0 });
        for (node, key) in [(0usize, 1u64), (1, 1 << 32 | 1)] {
            let off = c.stores[node].get_loc(T, key).unwrap() as usize;
            let seq = c.stores[node].region.load64(off + SEQ_OFF);
            assert_eq!(seq % 2, 0, "node {node} seq {seq}");
            assert!(seq >= 4, "sequence advanced");
        }
    }
}

/// Every write of a committed transaction is logged on every backup of
/// its record's primary — including remote writes and inserts.
#[test]
fn all_writes_reach_all_backups() {
    for htm_fails in [false, true] {
        let c = build(htm_fails);
        let mut w = c.worker(0, 1);
        w.run(|t| {
            t.write(0, T, 0, val(7))?; // Local record: primary 0.
            t.write(2, T, 2 << 32, val(8))?; // Remote record: primary 2.
            t.insert(1, T, (1 << 32) | 99, val(9)); // Insert on primary 1.
            Ok(())
        })
        .unwrap();
        assert_eq!(w.obs.fallbacks.get(), u64::from(htm_fails));
        // Backups of 0 are {1, 2}; of 2 are {0, 1}; of 1 are {2, 0}.
        assert_eq!(c.logs.len(1, 0), 1);
        assert_eq!(c.logs.len(2, 0), 1);
        assert_eq!(c.logs.len(0, 2), 1);
        assert_eq!(c.logs.len(1, 2), 1);
        assert_eq!(c.logs.len(2, 1), 1);
        assert_eq!(c.logs.len(0, 1), 1);
    }
}

/// Auxiliary truncation keeps the logs bounded while preserving the
/// backup images' contents.
#[test]
fn truncation_preserves_backup_contents() {
    let c = build(false);
    let mut w = c.worker(0, 1);
    for i in 0..10u64 {
        w.run(|t| t.write(0, T, 2, val(i))).unwrap();
        if i % 3 == 0 {
            c.truncate_step(1);
            c.truncate_step(2);
        }
    }
    c.truncate_step(1);
    assert!(c.logs.is_empty(1, 0));
    let image = c.backups.image(1, 0);
    let rec = image.get(T, 2).unwrap();
    assert_eq!(num(rec.value), 9, "backup image reflects the last write");
}

/// The visibility/replication race, end to end with a real concurrent
/// writer: a reader that observed a pre-replication (odd) version can
/// only commit after the writer's makeup step.
#[test]
fn odd_version_gates_concurrent_committers() {
    let c = build(false);
    let off = c.stores[0].get_loc(T, 3).unwrap() as usize;
    let rec = c.stores[0].record(T, off);

    // Freeze the record mid-commit (odd), as a writer between C.4 and
    // R.2 would leave it.
    rec.write_locked(&val(555), 5);

    let mut w = c.worker(0, 2);
    // Optimistic read succeeds...
    let mut txn = w.begin();
    let v = txn.read(0, T, 3).unwrap();
    assert_eq!(num(&v), 555);
    // ...but committing against it fails while the version is odd.
    assert!(matches!(txn.commit(), Err(TxnError::Aborted(_))));

    // Writer finishes replication; the even successor validates.
    let mut txn = w.begin();
    let _ = txn.read(0, T, 3).unwrap();
    rec.set_seq(6);
    // The snapshot was taken at seq 5; (5+1)&!1 == 6 == current: valid.
    txn.commit()
        .expect("read of odd version commits once replicated");
}
