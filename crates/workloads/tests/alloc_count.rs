//! Heap allocations counted by a global allocator.
//!
//! The counter is per thread, so tests running beside each other do
//! not disturb one another: each test counts only what its own thread
//! allocates. Everything measured here runs on the calling thread.
//!
//! Pinned: loading a hash-table record (`seed_record`, replicas 3) and
//! a `Store::insert` into a hash table allocate nothing once warm, and
//! a committed replicated SmallBank send-payment allocates a fixed
//! count at steady state — the starting point of the allocation-free
//! steady state (ROADMAP item 2(c)).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use drtm_base::task::block_now;
use drtm_base::MemoryRegion;
use drtm_core::txn::TxnApi;
use drtm_core::{DrtmCluster, EngineOpts, Worker};
use drtm_store::{Store, TableSpec};
use drtm_workloads::smallbank::{self, SbCfg, SbInput, SbTxn, T_CHECKING};

/// The system allocator, counting each allocation (and reallocation)
/// made by the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread that is being torn down has no counter left; its
    // allocations are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result and the heap allocations this thread
/// made meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A SmallBank cluster: 3 machines, replicas 3, `accounts` per machine.
fn smallbank_cluster(accounts: usize) -> (SbCfg, Arc<DrtmCluster>) {
    let cfg = SbCfg {
        nodes: 3,
        accounts,
        ..Default::default()
    };
    let opts = EngineOpts::builder()
        .replicas(3)
        .region_size(cfg.region_size())
        .build();
    let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
    (cfg, cluster)
}

/// Loading a record allocates nothing: not the record image, not the
/// backup list, not the configuration read. The first record of each
/// backup image table pushes the handle of its first slab chunk
/// (warm-up); the chunks and the index are mappings, not heap, and the
/// first chunk holds the table's capacity, which the 1000 pinned here
/// stay inside.
#[test]
fn seed_record_of_a_hash_record_allocates_nothing() {
    let (cfg, cluster) = smallbank_cluster(2000);
    let v = [1u8; 40];
    for shard in 0..cfg.nodes {
        cluster.seed_record(shard, T_CHECKING, cfg.acct(shard, 0), &v);
    }
    for shard in 0..cfg.nodes {
        let ((), n) = counted(|| {
            for a in 1..=1000 {
                cluster.seed_record(shard, T_CHECKING, cfg.acct(shard, a), &v);
            }
        });
        assert_eq!(
            n, 0,
            "allocations over 1000 seed_record calls on shard {shard}"
        );
    }
    assert_eq!(cluster.backups.live_len(1, 0), 1001);
}

/// An insert into a hash table allocates nothing, into a fresh block
/// (the load, a commit-time insert) or into a freed one (recovery's
/// re-install, an insert after a delete).
#[test]
fn store_insert_into_a_hash_table_allocates_nothing() {
    let spec = [TableSpec::hash(0, 4096, 100)];
    let store = Store::new(Arc::new(MemoryRegion::new(4 << 20)), &spec);
    let v = [7u8; 100];
    store.insert(0, 0, &v, 2).unwrap();
    let ((), fresh) = counted(|| {
        for k in 1..=1000 {
            store.insert(0, k, &v, 2).unwrap();
        }
    });
    assert_eq!(fresh, 0, "allocations over 1000 inserts into fresh blocks");
    for k in 1..=100 {
        assert!(store.remove(0, k));
    }
    let used = store.alloc.used();
    let ((), reused) = counted(|| {
        for k in 2001..=2100 {
            store.insert(0, k, &v, 2).unwrap();
        }
    });
    assert_eq!(reused, 0, "allocations over 100 inserts into freed blocks");
    assert_eq!(store.alloc.used(), used, "the freed blocks were reused");
}

/// Heap allocations per committed replicated send-payment at steady
/// state, local (both accounts on the worker's machine) and distributed
/// (the second on another machine): a count to bring down, pinned so
/// that a change to it is deliberate.
#[test]
fn replicated_send_payment_allocations_are_pinned() {
    let (cfg, cluster) = smallbank_cluster(1000);
    smallbank::load(&cluster, &cfg);
    let mut worker = Worker::new(Arc::clone(&cluster), 0, 7);
    let send = |worker: &mut Worker, a: u64, b: (usize, u64)| {
        let inp = SbInput {
            txn: SbTxn::SendPayment,
            a: (0, cfg.acct(0, a)),
            b: (b.0, cfg.acct(b.0, b.1)),
            amount: 1,
        };
        let body = async |t: &mut dyn TxnApi| smallbank::execute(t, &inp).await;
        block_now(worker.run_async(body)).expect("send-payment commits");
    };
    for (label, shard, pinned) in [("local", 0, LOCAL), ("distributed", 1, DISTRIBUTED)] {
        let mut counts = Vec::new();
        for i in 0..1100u64 {
            let ((), n) = counted(|| send(&mut worker, i % 500, (shard, 500 + i % 500)));
            for node in 0..cfg.nodes {
                cluster.truncate_step(node);
            }
            // The first 100 warm the worker's buffers and the logs up.
            if i >= 100 {
                counts.push(n);
            }
        }
        let total: u64 = counts.iter().sum();
        counts.sort_unstable();
        let typical = counts[counts.len() / 2];
        assert_eq!(
            (typical, total),
            pinned,
            "{label} send-payment: (median per commit, total over 1000 commits)"
        );
    }
}

/// Allocations per committed local replicated send-payment: the median
/// commit's, and the total over 1000 commits (a few commits also grow
/// an amortised buffer).
const LOCAL: (u64, u64) = (31, 31026);
/// The same for a distributed replicated send-payment.
const DISTRIBUTED: (u64, u64) = (79, 84274);
