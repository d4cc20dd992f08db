//! Cross-crate serializability tests through the facade crate: invariant
//! preservation under concurrent distributed transactions.

use std::sync::Arc;

use drtm::core::cluster::{DrtmCluster, EngineOpts};
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

fn build(nodes: usize, replicas: usize, keys: u64) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(replicas)
        .region_size(4 << 20)
        .build();
    let c = DrtmCluster::new(nodes, &[TableSpec::hash(T, 8192, 16)], opts);
    for shard in 0..nodes {
        for k in 0..keys {
            c.seed_record(shard, T, key(shard, k), &val(1000));
        }
    }
    c
}

/// Zero-sum transfers across three machines conserve the global total,
/// with replication enabled and concurrent auxiliary truncation.
#[test]
fn replicated_bank_conserves_money() {
    let c = build(3, 3, 16);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let aux = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for n in 0..3 {
                    c.truncate_step(n);
                }
                std::thread::yield_now();
            }
        })
    };
    let mut handles = Vec::new();
    for node in 0..3usize {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker(node, node as u64 + 3);
            let mut rng = drtm::base::SplitMix64::new(node as u64 * 13 + 5);
            for _ in 0..120 {
                let (s1, k1) = (rng.below(3) as usize, rng.below(16));
                let (s2, k2) = (rng.below(3) as usize, rng.below(16));
                if (s1, k1) == (s2, k2) {
                    continue;
                }
                let _ = w.run(|t| {
                    let a = num(&t.read(s1, T, key(s1, k1))?);
                    let b = num(&t.read(s2, T, key(s2, k2))?);
                    if a < 7 {
                        return Err(TxnError::UserAbort);
                    }
                    t.write(s1, T, key(s1, k1), val(a - 7))?;
                    t.write(s2, T, key(s2, k2), val(b + 7))
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    aux.join().unwrap();

    let mut w = c.worker(0, 99);
    let mut total = 0;
    for shard in 0..3usize {
        for k in 0..16 {
            total += num(&w.run_ro(|t| t.read(shard, T, key(shard, k))).unwrap());
        }
    }
    assert_eq!(total, 3 * 16 * 1000);
}

/// Read-only snapshots never observe a half-applied distributed
/// transaction, even while writers continuously flip record pairs on
/// different machines.
#[test]
fn ro_snapshots_are_atomic_across_machines() {
    let c = build(2, 1, 4);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut w = c.worker(0, 1);
            let mut x = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                x += 1;
                w.run(|t| {
                    t.write(0, T, key(0, 0), val(1000 + x))?;
                    t.write(1, T, key(1, 0), val(1000 - x % 1000))
                })
                .unwrap();
                std::thread::yield_now();
            }
            x
        })
    };
    let mut r = c.worker(1, 2);
    for _ in 0..100 {
        let (a, b) = r
            .run_ro(|t| {
                Ok((
                    num(&t.read(0, T, key(0, 0))?),
                    num(&t.read(1, T, key(1, 0))?),
                ))
            })
            .unwrap();
        let x = a - 1000;
        assert_eq!(b, 1000 - x % 1000, "torn snapshot: a={a} b={b}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

/// Lost-update freedom: concurrent increments from every machine to a
/// single hot record all survive.
#[test]
fn no_lost_updates_on_hot_record() {
    let c = build(3, 1, 1);
    let mut handles = Vec::new();
    for node in 0..3usize {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut w = c.worker(node, node as u64);
            for _ in 0..150 {
                w.run(|t| {
                    let v = num(&t.read(1, T, key(1, 0))?);
                    t.write(1, T, key(1, 0), val(v + 1))
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut w = c.worker(0, 9);
    assert_eq!(
        num(&w.run_ro(|t| t.read(1, T, key(1, 0))).unwrap()),
        1000 + 450
    );
}

/// Inserts and deletes take effect atomically with the surrounding
/// transaction and are visible across machines.
#[test]
fn insert_delete_visibility_across_machines() {
    let c = build(2, 1, 4);
    let mut w0 = c.worker(0, 1);
    w0.run(|t| {
        let v = num(&t.read(1, T, key(1, 0))?);
        t.insert(1, T, key(1, 100), val(v));
        Ok(())
    })
    .unwrap();
    let mut w1 = c.worker(1, 2);
    assert_eq!(
        num(&w1.run_ro(|t| t.read(1, T, key(1, 100))).unwrap()),
        1000
    );
    w1.run(|t| {
        t.delete(1, T, key(1, 100));
        Ok(())
    })
    .unwrap();
    assert_eq!(
        w0.run_ro(|t| t.read(1, T, key(1, 100))).unwrap_err(),
        TxnError::NotFound
    );
}

/// Property: the completion interleavings of batched C.1 lock and C.6
/// unlock doorbells preserve serializability. Concurrent zero-sum
/// transfers debit two accounts and credit two others across three
/// machines — so commits routinely ring multi-WR lock, update and
/// unlock batches per destination — and the global total must be
/// conserved across seeds and replica counts.
#[test]
fn batched_fanout_interleavings_preserve_serializability() {
    for case in 0..3u64 {
        let opts = EngineOpts::builder()
            .replicas(1 + (case % 3) as usize)
            .region_size(4 << 20)
            .build();
        let c = DrtmCluster::new(3, &[TableSpec::hash(T, 8192, 16)], opts);
        for shard in 0..3usize {
            for k in 0..8u64 {
                c.seed_record(shard, T, key(shard, k), &val(1000));
            }
        }
        let mut handles = Vec::new();
        for node in 0..3usize {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut w = c.worker(node, case * 7 + node as u64 + 1);
                let mut rng = drtm::base::SplitMix64::new(case * 131 + node as u64);
                for _ in 0..60 {
                    // Four distinct accounts: two debited, two credited.
                    let mut picks: Vec<(usize, u64)> = Vec::new();
                    while picks.len() < 4 {
                        let p = (rng.below(3) as usize, rng.below(8));
                        if !picks.contains(&p) {
                            picks.push(p);
                        }
                    }
                    let _ = w.run(|t| {
                        let mut vals = Vec::new();
                        for &(s, k) in &picks {
                            vals.push(num(&t.read(s, T, key(s, k))?));
                        }
                        if vals[0] < 5 || vals[1] < 5 {
                            return Err(TxnError::UserAbort);
                        }
                        for (i, &(s, k)) in picks.iter().enumerate() {
                            let next = if i < 2 { vals[i] - 5 } else { vals[i] + 5 };
                            t.write(s, T, key(s, k), val(next))?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut w = c.worker(0, 99);
        let mut total = 0;
        for shard in 0..3usize {
            for k in 0..8u64 {
                total += num(&w.run_ro(|t| t.read(shard, T, key(shard, k))).unwrap());
            }
        }
        assert_eq!(total, 3 * 8 * 1000, "case={case}");
    }
}
