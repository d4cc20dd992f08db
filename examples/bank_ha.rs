//! High availability demo: a replicated banking service survives a
//! machine failure without losing a committed transaction.
//!
//! Run with `cargo run --example bank_ha`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm::core::cluster::{DrtmCluster, EngineOpts};
use drtm::core::recovery::recover_node;
use drtm::store::TableSpec;

const ACCOUNTS: u32 = 0;
const PER_NODE: u64 = 50;

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

fn main() {
    // 3-way primary-backup replication: every record has f+1 = 3 copies
    // (one primary + redo logs/images on two backups).
    let opts = EngineOpts::builder().replicas(3).build();
    let cluster = DrtmCluster::new(4, &[TableSpec::hash(ACCOUNTS, 1 << 14, 16)], opts);
    for shard in 0..4 {
        for k in 0..PER_NODE {
            cluster.seed_record(shard, ACCOUNTS, key(shard, k), &val(1_000));
        }
    }
    let initial_total = 4 * PER_NODE * 1_000;

    // Background load: workers on every machine transfer money around,
    // and between two transfers apply + truncate their machine's
    // replication logs.
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for node in 0..4usize {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut w = cluster.worker(node, node as u64 + 7);
            let mut rng = drtm::base::SplitMix64::new(node as u64);
            let mut committed = 0u64;
            while !stop.load(Ordering::Relaxed) && cluster.is_alive(node) {
                let (s1, k1) = (rng.below(4) as usize, rng.below(PER_NODE));
                let (s2, k2) = (rng.below(4) as usize, rng.below(PER_NODE));
                if (s1, k1) == (s2, k2) {
                    continue;
                }
                let ok = w.run(|t| {
                    let a = num(&t.read(s1, ACCOUNTS, key(s1, k1))?);
                    let b = num(&t.read(s2, ACCOUNTS, key(s2, k2))?);
                    if a < 10 {
                        return Err(drtm::core::txn::TxnError::UserAbort);
                    }
                    t.write(s1, ACCOUNTS, key(s1, k1), val(a - 10))?;
                    t.write(s2, ACCOUNTS, key(s2, k2), val(b + 10))
                });
                if ok.is_ok() {
                    committed += 1;
                }
                cluster.truncate_step(node);
            }
            committed
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(100));

    // Machine 2 fails (fail-stop). Detect (lease) + reconfigure +
    // replay its redo logs on a surviving backup.
    println!("killing machine 2 ...");
    cluster.crash(2);
    let report = recover_node(&cluster, 2);
    println!(
        "recovered {} records onto machine {:?} (epoch {}, {} log entries replayed)",
        report.records_recovered, report.new_home, report.epoch, report.log_entries_replayed
    );

    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Audit: no committed money was lost — every account readable, the
    // total conserved (transfers are zero-sum).
    let mut auditor = cluster.worker(0, 999);
    let mut total = 0u64;
    for shard in 0..4usize {
        for k in 0..PER_NODE {
            total += num(&auditor
                .run_ro(|t| t.read(shard, ACCOUNTS, key(shard, k)))
                .expect("every account must survive the failure"));
        }
    }
    println!("committed {committed} transfers across the failure");
    println!("audit: total = {total} (expected {initial_total})");
    assert_eq!(total, initial_total, "money was lost or duplicated!");
    println!("OK: no committed transaction lost, no money leaked");
}
