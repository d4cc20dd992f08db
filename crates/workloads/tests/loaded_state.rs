//! The loaded state of each workload, pinned by digest.
//!
//! A cluster is loaded through `DrtmCluster::load_shards`: one job per
//! store and per primary's first backup image, on up to one thread per
//! machine, each writing its destination one record at a time in shard
//! order. The allocator picks each record's offset, the hash table its
//! slot, and the first backup image takes a copy of each record, which
//! its job then copies whole to the primary's other backups. These tests load TPC-C, SmallBank
//! and YCSB at small sizes and compare one digest of what that produced
//! with a recorded value, so a change to the install path that moves
//! one record, one slot, one sequence number or one incarnation shows
//! here. Every digest was recorded with the serial loader that walked
//! the shards one at a time on the calling thread; the two five-machine
//! ones put more machines than a 2-core host has cores under the
//! threads, and carry TPC-C's one random stream across four shard
//! boundaries.
//!
//! The digest covers every byte of every machine's region, every
//! table's `(key, record offset)` pairs (the ordered tables' index
//! lives outside the region), each allocator's high-water mark, and
//! every record of every backup image. It leaves out the regions'
//! per-line seqlock versions, which count writes rather than hold
//! data.

use std::sync::Arc;

use drtm_core::{DrtmCluster, EngineOpts};
use drtm_store::TableSpec;
use drtm_workloads::smallbank::{self, SbCfg};
use drtm_workloads::tpcc::{self, TpccCfg};
use drtm_workloads::ycsb::{self, YcsbCfg};

/// A 64-bit digest: each word is folded in and mixed (SplitMix64's
/// finaliser), so order matters and one changed bit changes the result.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

fn build(nodes: usize, replicas: usize, schema: &[TableSpec], region: usize) -> Arc<DrtmCluster> {
    let opts = EngineOpts::builder()
        .replicas(replicas)
        .region_size(region)
        .build();
    DrtmCluster::new(nodes, schema, opts)
}

/// The digest of everything a load left in `cluster`.
fn digest(cluster: &DrtmCluster) -> u64 {
    let mut d = Digest(0);
    let mut buf = vec![0u8; 1 << 16];
    for store in &cluster.stores {
        let region = &store.region;
        let mut off = 0;
        while off < region.size() {
            let len = buf.len().min(region.size() - off);
            region.read_bytes_raw(off, &mut buf[..len]);
            d.bytes(&buf[..len]);
            off += len;
        }
        d.word(store.alloc.used() as u64);
        for id in 0..store.table_count() as u32 {
            for (key, rec_off) in store.keys(id) {
                d.word(key);
                d.word(rec_off);
            }
        }
    }
    let n = cluster.nodes();
    for backup in 0..n {
        for primary in 0..n {
            let image = cluster.backups.image(backup, primary);
            for ((table, key), r) in image.iter() {
                d.word(u64::from(table));
                d.word(key);
                d.word(r.seq);
                d.word(u64::from(r.deleted));
                d.bytes(r.value);
            }
        }
    }
    d.0
}

#[test]
fn tpcc_loaded_state_is_pinned() {
    let cfg = TpccCfg {
        nodes: 2,
        customers: 60,
        items: 500,
        init_orders: 12,
        history_buckets: 1 << 10,
        ..Default::default()
    };
    let cluster = build(cfg.nodes, 2, &cfg.schema(), cfg.region_size(0));
    tpcc::load(&cluster, &cfg);
    assert_eq!(
        digest(&cluster),
        807195458285817014,
        "TPC-C, 2 machines, replicas 2"
    );
}

/// More machines than a 2-core host has cores, two warehouses each: the
/// one random stream crosses four shard boundaries.
#[test]
fn tpcc_loaded_state_on_five_machines_is_pinned() {
    let cfg = TpccCfg {
        nodes: 5,
        warehouses_per_node: 2,
        customers: 60,
        items: 500,
        init_orders: 12,
        history_buckets: 1 << 10,
        ..Default::default()
    };
    let cluster = build(cfg.nodes, 3, &cfg.schema(), cfg.region_size(0));
    tpcc::load(&cluster, &cfg);
    assert_eq!(
        digest(&cluster),
        4410667195517511739,
        "TPC-C, 5 machines x 2 warehouses, replicas 3"
    );
}

#[test]
fn smallbank_loaded_state_is_pinned() {
    let cfg = SbCfg {
        nodes: 3,
        accounts: 4000,
        ..Default::default()
    };
    let cluster = build(cfg.nodes, 3, &cfg.schema(), cfg.region_size());
    smallbank::load(&cluster, &cfg);
    assert_eq!(
        digest(&cluster),
        12723273449933071499,
        "SmallBank, 3 machines, replicas 3"
    );
}

#[test]
fn smallbank_loaded_state_on_five_machines_is_pinned() {
    let cfg = SbCfg {
        nodes: 5,
        accounts: 4000,
        ..Default::default()
    };
    let cluster = build(cfg.nodes, 3, &cfg.schema(), cfg.region_size());
    smallbank::load(&cluster, &cfg);
    assert_eq!(
        digest(&cluster),
        54776752845415390,
        "SmallBank, 5 machines, replicas 3"
    );
}

#[test]
fn ycsb_loaded_state_is_pinned() {
    let cfg = YcsbCfg {
        nodes: 2,
        records: 4000,
        value_len: 200,
        ..Default::default()
    };
    let cluster = build(cfg.nodes, 2, &cfg.schema(), cfg.region_size());
    ycsb::load(&cluster, &cfg);
    assert_eq!(
        digest(&cluster),
        16119268027518554430,
        "YCSB, 2 machines, replicas 2"
    );
}
