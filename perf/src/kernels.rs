//! The kernel pass: host time per call into each layer's public
//! functions, one kernel per per-layer `_ns`/`_us` metric. The calls
//! are the ones `crates/bench/benches/micro.rs` makes, plus the
//! insert, log, cache, generator, wire and scrape paths it leaves out.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm::base::{CostModel, LinkBudget, MemoryRegion, SplitMix64, VClock};
use drtm::cluster::{LogEntry, ReplLogStore};
use drtm::core::{scrape_cluster, DrtmCluster, EngineOpts};
use drtm::htm::{Htm, HtmConfig};
use drtm::net::proto::{self, Msg, Status};
use drtm::rdma::{Cq, Fabric, WorkRequest};
use drtm::store::record::{remote_read_consistent, RecordLayout, RecordRef};
use drtm::store::{BTree, CachedRecord, HashTable, TableSpec, ValueCache};
use drtm::workloads::driver::{build_ycsb, run_ycsb_on, EngineKind, RunCfg};
use drtm::workloads::smallbank::{self, SbCfg};
use drtm::workloads::tpcc::{txns, TpccCfg};
use drtm::workloads::ycsb::{self, YcsbCfg, YcsbMix, Zipf};

use crate::spans::Recorder;

/// Timed slices per kernel; the kernel's figure is their median.
const SLICES: usize = 3;

/// Host ns per call of `f`: doubles the batch until it fills
/// `slice / 8`, then times `SLICES` slices and takes the median.
fn ns_per_call<R>(slice: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 8u64;
    let per_call = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= slice / 8 || iters >= 1 << 26 {
            break dt.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    };
    let n = ((slice.as_nanos() as f64 / per_call.max(1.0)) as u64).clamp(8, 1 << 28);
    let slices: Vec<f64> = (0..SLICES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::stats::median(&slices)
}

/// Runs every kernel, each inside a `kernel:<metric>` span, and returns
/// `(metric, value)` pairs. `scale` shrinks the timed slices (smoke).
pub fn run_all(rec: &mut Recorder, scale: f64) -> Vec<(&'static str, f64)> {
    let slice = Duration::from_secs_f64((0.03 * scale).max(0.0005));
    let mut out = Vec::new();
    let mut kernel = |name: &'static str, per_us: bool, f: &mut dyn FnMut() -> f64| {
        let (ns, _) = rec.span(&format!("kernel:{name}"), |_| f());
        out.push((name, if per_us { ns / 1e3 } else { ns }));
    };

    // htm: one line, eight lines, and a stock-level-shaped read set.
    {
        let region = MemoryRegion::new(1 << 16);
        let htm = Htm::new(HtmConfig::default());
        let mut rng = SplitMix64::new(1);
        kernel("htm.rmw1_ns", false, &mut || {
            ns_per_call(slice, || {
                htm.run(&region, &mut rng, |t| {
                    let v = t.read_u64(0)?;
                    t.write_u64(0, v + 1)
                })
            })
        });
        kernel("htm.rmw8_ns", false, &mut || {
            ns_per_call(slice, || {
                htm.run(&region, &mut rng, |t| {
                    for i in 0..8 {
                        let v = t.read_u64(i * 64)?;
                        t.write_u64(i * 64, v + 1)?;
                    }
                    Ok(())
                })
            })
        });
        kernel("htm.read200_ns", false, &mut || {
            ns_per_call(slice, || {
                htm.run(&region, &mut rng, |t| {
                    let mut sum = 0u64;
                    for i in 0..200 {
                        sum = sum.wrapping_add(t.read_u64(i * 64)?);
                    }
                    Ok(sum)
                })
            })
        });
    }

    // rdma: single verbs, a posted batch, and the seqlock record read.
    {
        let regions = (0..2)
            .map(|_| Arc::new(MemoryRegion::new(1 << 16)))
            .collect();
        let fabric = Fabric::builder().regions(regions).build();
        let qp = fabric.qp(0, 1);
        let mut clock = VClock::new();
        let mut buf = [0u8; 64];
        kernel("rdma.read64_ns", false, &mut || {
            ns_per_call(slice, || qp.read(&mut clock, 0, &mut buf))
        });
        kernel("rdma.write64_ns", false, &mut || {
            ns_per_call(slice, || qp.write(&mut clock, 0, &[7u8; 64]))
        });
        kernel("rdma.cas_ns", false, &mut || {
            ns_per_call(slice, || qp.cas(&mut clock, 128, 0, 0))
        });
        let cq = Cq::new();
        kernel("rdma.batch8_ns", false, &mut || {
            ns_per_call(slice, || {
                for i in 0..8 {
                    qp.post(WorkRequest::Read {
                        raddr: 1024 + i * 64,
                        len: 64,
                    });
                }
                qp.doorbell(&mut clock, &cq);
                cq.poll(&mut clock)
            })
        });
        let layout = RecordLayout::new(100);
        RecordRef::new(fabric.port(1).region(), 4096, layout).init(&[1u8; 100], 2, 0);
        kernel("store.remote_read100_ns", false, &mut || {
            ns_per_call(slice, || {
                remote_read_consistent(&qp, &mut clock, 4096, layout, 3)
            })
        });
    }

    // store: hash table, B+-tree, value cache.
    {
        let region = MemoryRegion::new(1 << 20);
        let table = HashTable::new(0, 1 << 14);
        for k in 1..=4096u64 {
            table.insert(&region, k, k);
        }
        let mut k = 0u64;
        kernel("store.hash_get_ns", false, &mut || {
            ns_per_call(slice, || {
                k = k % 4096 + 1;
                table.get(&region, k)
            })
        });
        // Insert of an absent key, undone so the table keeps its load;
        // the keys cycle so the tombstones removal leaves stay bounded.
        let mut k = 0u64;
        kernel("store.hash_insert_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 4096;
                table.insert(&region, 1 << 32 | k, k);
                table.remove(&region, 1 << 32 | k)
            })
        });
        let tree = BTree::new();
        for k in 0..4096u64 {
            tree.insert(k * 2, k);
        }
        let mut k = 0u64;
        kernel("store.btree_get_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 4096;
                tree.get(k * 2)
            })
        });
        let mut k = 0u64;
        kernel("store.btree_insert_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 4096;
                tree.insert(k * 2 + 1, k);
                tree.remove(k * 2 + 1)
            })
        });
        kernel("store.btree_scan20_ns", false, &mut || {
            ns_per_call(slice, || tree.scan(200, 2000, 20))
        });
        let mut cache = ValueCache::new();
        let mut k = 0u64;
        kernel("store.cache_get_put_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 8192;
                if cache.get(0, k).is_none() {
                    cache.put(
                        0,
                        k,
                        CachedRecord {
                            rec_off: k * 128,
                            seq: 2,
                            incarnation: 0,
                            epoch: 0,
                            value: vec![1u8; 96],
                        },
                    );
                }
            })
        });
    }

    // cluster: one R.1 append of a SmallBank-sized record to a backup.
    {
        let log = ReplLogStore::new(2);
        let cost = CostModel::default();
        let nics = (LinkBudget::new(7e9), LinkBudget::new(7e9));
        let mut clock = VClock::new();
        let entries = [LogEntry {
            table: 0,
            key: 1,
            seq: 2,
            value: vec![1u8; 40],
            delete: false,
        }];
        let mut n = 0usize;
        kernel("cluster.log_append_ns", false, &mut || {
            ns_per_call(slice, || {
                log.append(&mut clock, &cost, (&nics.0, &nics.1), 0, 1, &entries);
                n += 1;
                // What the driver's truncation thread does, amortised.
                if n.is_multiple_of(4096) {
                    log.truncate(1, 0, 4096);
                }
            })
        });
    }

    // core: whole transactions through `Worker::run` / `run_ro`.
    {
        let seeded = |nodes: usize, replicas: usize| {
            let cluster = DrtmCluster::new(
                nodes,
                &[TableSpec::hash(0, 1 << 12, 16)],
                EngineOpts::builder()
                    .replicas(replicas)
                    .region_size(1 << 20)
                    .build(),
            );
            for shard in 0..nodes {
                for k in 0..256u64 {
                    cluster.seed_record(shard, 0, (shard as u64) << 32 | k, &[1u8; 16]);
                }
            }
            cluster
        };
        let cluster = seeded(2, 1);
        let mut w = cluster.worker(0, 1);
        let mut k = 0u64;
        kernel("core.txn_local_rw_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 256;
                w.run(|t| {
                    let v = t.read(0, 0, k)?;
                    t.write(0, 0, k, v)
                })
            })
        });
        kernel("core.txn_local_ro_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 256;
                w.run_ro(|t| t.read(0, 0, k))
            })
        });
        kernel("core.txn_remote_rw_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 256;
                w.run(|t| {
                    let v = t.read(1, 0, 1 << 32 | k)?;
                    t.write(1, 0, 1 << 32 | k, v)
                })
            })
        });
        kernel("obs.scrape_us", true, &mut || {
            ns_per_call(slice, || scrape_cluster(&cluster))
        });
        let snap = scrape_cluster(&cluster);
        kernel("obs.render_json_us", true, &mut || {
            ns_per_call(slice, || drtm_obs::expo::render_json(&snap))
        });

        let repl = seeded(3, 3);
        let mut w = repl.worker(0, 2);
        let mut n = 0usize;
        kernel("core.txn_repl_rw_ns", false, &mut || {
            ns_per_call(slice, || {
                k = (k + 1) % 256;
                n += 1;
                if n.is_multiple_of(4096) {
                    for node in 0..3 {
                        repl.truncate_step(node);
                    }
                }
                w.run(|t| {
                    let v = t.read(0, 0, k)?;
                    t.write(0, 0, k, v)
                })
            })
        });
    }

    // core: eight routines on one reactor, every read remote, through
    // the driver (the only public entry that multiplexes routines
    // without naming the engine's internal verb twins). Host ns per
    // transaction per worker thread, generator included.
    {
        let cfg = YcsbCfg {
            nodes: 2,
            records: 10_000,
            theta: 0.0,
            cross_prob: 1.0,
            mix: YcsbMix::C,
            ..Default::default()
        };
        let run = RunCfg {
            engine: EngineKind::DrtmR,
            threads: 1,
            replicas: 1,
            txns_per_worker: ((slice.as_secs_f64() * 3.0 * 400_000.0) as usize).max(64),
            seed: 1,
            routines: 8,
            ..Default::default()
        };
        let (cluster, _) = build_ycsb(&cfg, &run);
        kernel("core.routine_r8_remote_ro_ns", false, &mut || {
            let t0 = Instant::now();
            let m = run_ycsb_on(&cfg, &run, &cluster, None);
            t0.elapsed().as_nanos() as f64 * (cfg.nodes * run.threads) as f64
                / m.committed.max(1) as f64
        });
    }

    // workloads: the input generators the closed-loop drivers call.
    {
        let tpcc = TpccCfg {
            nodes: 2,
            customers: 3_000,
            items: 100_000,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(3);
        kernel("workloads.gen_tpcc_ns", false, &mut || {
            ns_per_call(slice, || txns::gen_new_order(&tpcc, &mut rng, 0, 0.01))
        });
        let sb = SbCfg {
            nodes: 3,
            ..Default::default()
        };
        kernel("workloads.gen_smallbank_ns", false, &mut || {
            ns_per_call(slice, || smallbank::gen(&sb, &mut rng, 0))
        });
        let y = YcsbCfg {
            nodes: 2,
            theta: 0.6,
            cross_prob: 0.6,
            mix: YcsbMix::B,
            ..Default::default()
        };
        let zipf = Zipf::new(y.records as u64, y.theta);
        kernel("workloads.gen_ycsb_ns", false, &mut || {
            ns_per_call(slice, || ycsb::gen(&y, &zipf, &mut rng, 0))
        });
    }

    // net: one request frame and one reply frame, written and read back.
    {
        let request = Msg::SmallBank {
            id: 7,
            txn: 0,
            a_shard: 0,
            a_key: 11,
            b_shard: 1,
            b_key: 1 << 32 | 12,
            amount: 5,
            sched_ns: 1_000,
        };
        let reply = Msg::Response {
            id: 7,
            status: Status::Committed,
            queue_us: 3,
        };
        let mut wire = Vec::with_capacity(256);
        kernel("net.proto_roundtrip_ns", false, &mut || {
            ns_per_call(slice, || {
                wire.clear();
                proto::write_msg(&mut wire, &request).expect("write to a Vec");
                proto::write_msg(&mut wire, &reply).expect("write to a Vec");
                let mut r = &wire[..];
                (proto::read_msg(&mut r), proto::read_msg(&mut r))
            })
        });
    }

    out
}
