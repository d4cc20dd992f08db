//! The DrTM+R memory store layer (§6.3 of the paper).
//!
//! Provides a general key-value interface to the transaction layer, over a
//! per-node [`drtm_base::MemoryRegion`]:
//!
//! * [`record`] — the on-"memory" record format of Figure 3: a 64-bit lock
//!   (with the owner machine's id encoded, for dangling-lock recovery), a
//!   64-bit incarnation, a 64-bit sequence number, and a per-cache-line
//!   16-bit version trailer that makes multi-line one-sided RDMA READs
//!   consistency-checkable (FaRM-style).
//! * [`alloc`] — a bump allocator with size-class free lists; records are
//!   cache-line aligned so HTM false sharing between records never occurs.
//! * [`hashtable`] — the unordered store: an RDMA-friendly open-addressing
//!   hash table whose slots can be probed remotely with one-sided READs,
//!   plus a host-transparent location cache that short-circuits repeat
//!   lookups (from DrTM).
//! * [`btree`] — the ordered store: `std`'s B-tree map under a
//!   reader-writer lock, with range scans. DBX protects its B+-tree with
//!   HTM; the lock gives index operations the same abstract behaviour
//!   (each appears atomic to the others) — DESIGN.md §4 records this
//!   substitution. Ordered tables are only accessed locally, as in the
//!   paper's workloads.
//! * [`catalog`] — typed tables over the two stores. Every node creates
//!   the same schema in the same order, so table directories land at
//!   identical offsets on every node and remote nodes can probe a peer's
//!   hash tables without any metadata exchange.
//! * [`value_cache`] — a map of remote record snapshots that no engine
//!   path uses; it stays for the benchmark harness's store kernel.

#![deny(missing_docs)]

pub mod alloc;
pub mod btree;
pub mod catalog;
pub mod hashtable;
pub mod record;
pub mod value_cache;

pub use alloc::Allocator;
pub use btree::BTree;
pub use catalog::{Store, TableId, TableKind, TableSpec, CONTROL_LINE_OFF};
pub use hashtable::{HashTable, LocationCache, RemoteProbe, PROBE_LINE_BYTES};
pub use record::{lock_owner, lock_word, RecordLayout, RecordRef, HEADER_BYTES, LOCK_FREE};
pub use value_cache::{CachedRecord, ValueCache};
