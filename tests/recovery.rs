//! End-to-end failure recovery: durability of committed transactions,
//! invisibility of unreplicated ones, recovery under load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm::core::cluster::{DrtmCluster, EngineOpts};
use drtm::core::recovery::recover_node;
use drtm::core::txn::TxnError;
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

fn key(shard: usize, k: u64) -> u64 {
    (shard as u64) << 32 | k
}

fn build(nodes: usize, keys: u64) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(3)
        .region_size(4 << 20)
        .build();
    let c = DrtmCluster::new(nodes, &[TableSpec::hash(T, 8192, 16)], opts);
    for shard in 0..nodes {
        for k in 0..keys {
            c.seed_record(shard, T, key(shard, k), &val(500));
        }
    }
    c
}

/// Every transaction reported committed before the crash is readable
/// after recovery, including transactions committed *remotely* against
/// the dead machine.
#[test]
fn committed_transactions_survive_crash() {
    let c = build(4, 8);
    // Commit from the victim itself and from a peer.
    let mut wv = c.worker(2, 1);
    wv.run(|t| t.write(2, T, key(2, 0), val(111))).unwrap();
    let mut wp = c.worker(0, 2);
    wp.run(|t| t.write(2, T, key(2, 1), val(222))).unwrap();

    c.crash(2);
    let report = recover_node(&c, 2);
    assert_eq!(report.new_home, Some(3));
    assert_eq!(report.records_recovered, 8);

    let mut w = c.worker(1, 3);
    assert_eq!(num(&w.run_ro(|t| t.read(2, T, key(2, 0))).unwrap()), 111);
    assert_eq!(num(&w.run_ro(|t| t.read(2, T, key(2, 1))).unwrap()), 222);
    // The recovered shard accepts writes again.
    w.run(|t| t.write(2, T, key(2, 0), val(112))).unwrap();
}

/// Recovery under continuous load from surviving machines: the cluster
/// keeps committing, and the global invariant holds afterwards.
#[test]
fn recovery_under_load_conserves_invariants() {
    let c = build(4, 8);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for node in [0usize, 1, 3] {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker(node, node as u64 + 11);
            let mut rng = drtm::base::SplitMix64::new(node as u64);
            let mut committed = 0;
            while !stop.load(Ordering::Relaxed) {
                let (s1, k1) = (rng.below(4) as usize, rng.below(8));
                let (s2, k2) = (rng.below(4) as usize, rng.below(8));
                if (s1, k1) == (s2, k2) {
                    continue;
                }
                let r = w.run(|t| {
                    let a = num(&t.read(s1, T, key(s1, k1))?);
                    let b = num(&t.read(s2, T, key(s2, k2))?);
                    if a < 5 {
                        return Err(TxnError::UserAbort);
                    }
                    t.write(s1, T, key(s1, k1), val(a - 5))?;
                    t.write(s2, T, key(s2, k2), val(b + 5))
                });
                if r.is_ok() {
                    committed += 1;
                }
            }
            committed
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(30));
    c.crash(2);
    let report = recover_node(&c, 2);
    assert!(report.new_home.is_some());
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "survivors must keep committing");

    let mut w = c.worker(0, 99);
    let mut total = 0;
    for shard in 0..4usize {
        for k in 0..8 {
            total += num(&w.run_ro(|t| t.read(shard, T, key(shard, k))).unwrap());
        }
    }
    assert_eq!(
        total,
        4 * 8 * 500,
        "zero-sum transfers must conserve the total"
    );
}

/// The §5.1 guarantee end to end: an update that reached the primary
/// (odd sequence number) but not the logs is rolled back by recovery —
/// and no transaction could have committed against it in the meantime.
#[test]
fn unreplicated_update_rolls_back_and_gated_readers_abort() {
    let c = build(3, 4);
    // Forge the crash window: committed-in-HTM but unlogged (odd seq).
    let off = c.stores[1].get_loc(T, key(1, 2)).unwrap() as usize;
    c.stores[1].record(T, off).write_locked(&val(9999), 3);

    // A reader sees the optimistic value but cannot commit against it.
    let mut w = c.worker(0, 1);
    let mut t = w.begin();
    let v = num(&t.read(1, T, key(1, 2)).unwrap());
    assert_eq!(v, 9999, "execution-phase reads are optimistic");
    t.write(1, T, key(1, 2), val(v + 1)).unwrap();
    assert!(matches!(t.commit(), Err(TxnError::Aborted(_))));

    c.crash(1);
    recover_node(&c, 1);
    let v = w.run_ro(|t| t.read(1, T, key(1, 2))).unwrap();
    assert_eq!(num(&v), 500, "the unlogged update must vanish");
}

/// Idempotence as a property: however many detectors race to recover
/// the same death — sequentially or concurrently — exactly one pass
/// does the work, the configuration epoch moves exactly once, and the
/// recovered data is identical to a single-pass recovery.
#[test]
fn recover_node_is_idempotent_under_racing_detectors() {
    for detectors in [2usize, 4, 8] {
        let c = build(4, 8);
        let mut w = c.worker(0, 5);
        w.run(|t| t.write(2, T, key(2, 3), val(4242))).unwrap();

        let epoch_before = c.config.epoch();
        c.crash(2);
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..detectors)
                .map(|_| s.spawn(|| recover_node(&c, 2)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let fresh: Vec<_> = reports.iter().filter(|r| !r.repeat).collect();
        assert_eq!(fresh.len(), 1, "exactly one pass does the work");
        assert!(fresh[0].new_home.is_some());
        assert_eq!(
            c.config.epoch(),
            epoch_before + 1,
            "the epoch moves exactly once no matter how many detectors race"
        );
        for r in &reports {
            assert_eq!(r.dead, 2);
            assert_eq!(r.epoch, epoch_before + 1, "repeats report the same epoch");
            if r.repeat {
                assert_eq!(r.records_recovered, 0, "repeats re-apply nothing");
                assert_eq!(r.log_entries_replayed, 0);
            }
        }
        // A later (sequential) repeat is also a no-op.
        let again = recover_node(&c, 2);
        assert!(again.repeat);
        assert_eq!(c.config.epoch(), epoch_before + 1);

        let mut w = c.worker(1, 7);
        assert_eq!(num(&w.run_ro(|t| t.read(2, T, key(2, 3))).unwrap()), 4242);
    }
}

/// After recovery the replica count is restored: a second failure of
/// the new home is also survivable.
#[test]
fn double_failure_with_rereplication() {
    let c = build(5, 4);
    let mut w = c.worker(0, 1);
    w.run(|t| t.write(2, T, key(2, 0), val(777))).unwrap();

    c.crash(2);
    let r1 = recover_node(&c, 2);
    let new_home = r1.new_home.unwrap();

    // Kill the machine that just took over.
    c.crash(new_home);
    let r2 = recover_node(&c, new_home);
    assert!(r2.new_home.is_some());

    let mut w = c.worker(0, 2);
    assert_eq!(num(&w.run_ro(|t| t.read(2, T, key(2, 0))).unwrap()), 777);
}
