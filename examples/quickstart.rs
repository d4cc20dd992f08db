//! Quickstart: build a 3-machine DrTM+R cluster, run local, remote, and
//! distributed transactions, and read the results back.
//!
//! Run with `cargo run --example quickstart`.

use drtm::core::cluster::{DrtmCluster, EngineOpts};
use drtm::store::TableSpec;

const ACCOUNTS: u32 = 0;

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn num(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn main() {
    // 1. Describe the schema: one unordered (hash) table of 16-byte
    //    values. Every machine instantiates the same schema, so remote
    //    machines can probe each other's tables with one-sided RDMA.
    let schema = vec![TableSpec::hash(ACCOUNTS, 4096, 16)];

    // 2. Build a 3-machine cluster (simulated HTM + RDMA substrate).
    let cluster = DrtmCluster::new(3, &schema, EngineOpts::default());

    // 3. Load data: accounts 0..10 on each machine, 100 coins each.
    for shard in 0..3 {
        for k in 0..10u64 {
            cluster.seed_record(shard, ACCOUNTS, (shard as u64) << 32 | k, &val(100));
        }
    }

    // 4. A worker thread on machine 0. Transactions are closures; the
    //    engine retries on OCC conflicts until they commit.
    let mut worker = cluster.worker(0, 42);

    // Local transaction: machine 0's own records (HTM-protected reads,
    // HTM commit).
    worker
        .run(|t| {
            let v = num(&t.read(0, ACCOUNTS, 3)?);
            t.write(0, ACCOUNTS, 3, val(v + 1))
        })
        .expect("local txn");

    // Distributed transaction: move 25 coins from machine 0 to machine 2
    // (one-sided RDMA reads, RDMA CAS locking, HTM local commit).
    worker
        .run(|t| {
            let here = num(&t.read(0, ACCOUNTS, 0)?);
            let there = num(&t.read(2, ACCOUNTS, 2 << 32)?);
            t.write(0, ACCOUNTS, 0, val(here - 25))?;
            t.write(2, ACCOUNTS, 2 << 32, val(there + 25))
        })
        .expect("distributed txn");

    // Read-only transaction (§4.5: validated without HTM or locks).
    let total = worker
        .run_ro(|t| {
            let a = num(&t.read(0, ACCOUNTS, 0)?);
            let b = num(&t.read(2, ACCOUNTS, 2 << 32)?);
            Ok(a + b)
        })
        .expect("read-only txn");
    assert_eq!(total, 200, "transfer conserved the total");

    println!("committed {} transactions", worker.obs.committed.get());
    println!("virtual time elapsed: {} us", worker.clock.now() / 1000);
    println!(
        "mean txn latency: {:.1} us",
        worker.obs.latency.mean() / 1000.0
    );
    println!("total of the two transfer accounts: {total} (conserved)");
}
