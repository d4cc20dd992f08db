//! Typed tables over the memory store, with a deterministic layout.
//!
//! Every node in the cluster instantiates the same schema in the same
//! order, so each table's directory (the hash slot array) lands at the
//! *same region offset on every node*. A remote machine can therefore
//! probe a peer's unordered tables with one-sided RDMA READs using only
//! its own catalog — no metadata exchange, exactly like DrTM's
//! symmetric-layout stores.

use std::sync::Arc;

use drtm_base::MemoryRegion;

use crate::alloc::Allocator;
use crate::btree::BTree;
use crate::hashtable::{HashTable, RemoteProbe};
use crate::record::{RecordLayout, RecordRef};

/// Identifies a table within the schema.
pub type TableId = u32;

/// Which index structure backs a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Unordered store: RDMA-friendly hash table, remotely probeable.
    Hash {
        /// Number of slots (rounded up to a power of two).
        buckets: usize,
    },
    /// Ordered store: B+-tree, local access only (as in the paper's
    /// workloads).
    Ordered,
}

/// Static description of one table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table id; must equal the table's position in the schema.
    pub id: TableId,
    /// Index kind.
    pub kind: TableKind,
    /// Fixed value size in bytes.
    pub value_len: usize,
    /// Whether records of this table are only ever accessed by their
    /// home machine. Enables the §6.4 pointer-swap commit optimisation
    /// accounting in the transaction layer.
    pub local_only: bool,
}

impl TableSpec {
    /// Convenience constructor for an unordered table.
    pub fn hash(id: TableId, buckets: usize, value_len: usize) -> Self {
        Self {
            id,
            kind: TableKind::Hash { buckets },
            value_len,
            local_only: false,
        }
    }

    /// Convenience constructor for an ordered, local-only table.
    pub fn ordered(id: TableId, value_len: usize) -> Self {
        Self {
            id,
            kind: TableKind::Ordered,
            value_len,
            local_only: true,
        }
    }
}

enum Index {
    Hash(HashTable),
    Tree(BTree),
}

/// One instantiated table.
pub struct Table {
    /// The spec this table was created from.
    pub spec: TableSpec,
    /// Record geometry for this table's fixed value size.
    pub layout: RecordLayout,
    index: Index,
}

/// A node's instantiated schema: region + allocator + tables.
pub struct Store {
    /// The node's memory region (shared with HTM and registered for RDMA).
    pub region: Arc<MemoryRegion>,
    /// Record allocator (heap area after all table directories).
    pub alloc: Allocator,
    tables: Vec<Table>,
}

/// Bias applied to user keys before they enter a hash table, freeing the
/// reserved slot-marker values `0` and `u64::MAX`.
const KEY_BIAS: u64 = 1;

/// Byte offset of the per-node control line (reserved cache line 0).
///
/// Two-sided message handlers (the FaRM-style locking alternative that
/// the §4.4 ablation models) bump this word when they interrupt the
/// host CPU; HTM regions subscribed to it abort — reproducing "the
/// number of interrupts and context switches ... will unconditionally
/// abort the HTM transactions even without access conflicts".
pub const CONTROL_LINE_OFF: usize = 0;

impl Store {
    /// Instantiates `specs` over `region`.
    ///
    /// Directory placement is a pure function of the schema, so two nodes
    /// with the same schema agree on every offset.
    pub fn new(region: Arc<MemoryRegion>, specs: &[TableSpec]) -> Self {
        // Line 0 of every region is the node control line (see
        // `CONTROL_LINE_OFF`): messaging-mode lock services write it to
        // model the CPU interrupts that abort the host's HTM regions.
        let mut cursor = CONTROL_LINE_OFF + 64;
        let mut tables = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id as usize, i, "table ids must be dense and ordered");
            let index = match spec.kind {
                TableKind::Hash { buckets } => {
                    let n = buckets.next_power_of_two();
                    let off = cursor;
                    cursor += HashTable::bytes_for(n);
                    Index::Hash(HashTable::new(off, n))
                }
                TableKind::Ordered => Index::Tree(BTree::new()),
            };
            tables.push(Table {
                spec: spec.clone(),
                layout: RecordLayout::new(spec.value_len),
                index,
            });
        }
        assert!(
            cursor <= region.size(),
            "region too small for table directories"
        );
        let alloc = Allocator::new(cursor, region.size());
        Self {
            region,
            alloc,
            tables,
        }
    }

    /// The table with id `id`.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id as usize]
    }

    /// A [`RecordRef`] view of a record of table `id` at `rec_off`.
    pub fn record(&self, id: TableId, rec_off: usize) -> RecordRef<'_> {
        RecordRef::new(&self.region, rec_off, self.table(id).layout)
    }

    /// Local index lookup: `key -> record offset`.
    pub fn get_loc(&self, id: TableId, key: u64) -> Option<u64> {
        match &self.table(id).index {
            Index::Hash(h) => h.get(&self.region, key + KEY_BIAS),
            Index::Tree(t) => t.get(key),
        }
    }

    /// Starts a remote index lookup: one-sided probes of the *peer's*
    /// directory (whose offsets equal ours, by symmetric layout), which
    /// the caller READs and feeds to the returned [`RemoteProbe`].
    ///
    /// Does not consult the location cache — callers that use one check
    /// it first, comparing the cached incarnation against the record
    /// they then read *at read time* (a mismatch means the block was
    /// freed or reused: invalidate and re-probe). This layer cannot do
    /// that check because it never reads the record itself.
    ///
    /// # Panics
    ///
    /// Panics on ordered tables, which are local-only in this system.
    pub fn remote_probe(&self, id: TableId, key: u64) -> RemoteProbe {
        match &self.table(id).index {
            Index::Hash(h) => h.probe(key + KEY_BIAS),
            Index::Tree(_) => panic!("ordered tables are local-only"),
        }
    }

    /// Allocates and initialises a record, then publishes it in the
    /// index. Returns the record offset, or `None` if the key exists or
    /// space ran out.
    ///
    /// The record's incarnation is one above whatever the (possibly
    /// reused) block last held — inserts and deletes both increment it
    /// (§4.3), which is how in-flight transactions detect frees.
    pub fn insert(&self, id: TableId, key: u64, value: &[u8], seq: u64) -> Option<u64> {
        let t = self.table(id);
        assert_eq!(value.len(), t.spec.value_len, "value size mismatch");
        let off = self.alloc.alloc(t.layout.size())?;
        let rec = RecordRef::new(&self.region, off, t.layout);
        let incarnation = rec.incarnation() + 1;
        rec.init(value, seq, incarnation);
        let published = match &t.index {
            Index::Hash(h) => h.insert(&self.region, key + KEY_BIAS, off as u64),
            Index::Tree(tr) => tr.insert(key, off as u64).is_none(),
        };
        if !published {
            self.alloc.free(off, t.layout.size());
            return None;
        }
        Some(off as u64)
    }

    /// Unlinks `key` from the index, bumps the record's incarnation so
    /// concurrent readers notice the free, and recycles the block.
    pub fn remove(&self, id: TableId, key: u64) -> bool {
        let t = self.table(id);
        let off = match &t.index {
            Index::Hash(h) => h.remove(&self.region, key + KEY_BIAS),
            Index::Tree(tr) => tr.remove(key),
        };
        let Some(off) = off else { return false };
        let rec = RecordRef::new(&self.region, off as usize, t.layout);
        self.region
            .store64_coherent(rec.incarnation_off(), rec.incarnation() + 1);
        self.alloc.free(off as usize, t.layout.size());
        true
    }

    /// Every live `(key, record offset)` pair of a table (unordered for
    /// hash tables). Host-local; used by recovery and audits.
    pub fn keys(&self, id: TableId) -> Vec<(u64, u64)> {
        match &self.table(id).index {
            Index::Hash(h) => h
                .iter(&self.region)
                .into_iter()
                .map(|(k, off)| (k - KEY_BIAS, off))
                .collect(),
            Index::Tree(t) => t.scan(0, u64::MAX, usize::MAX),
        }
    }

    /// Number of tables in the schema.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Ordered-table range scan: up to `limit` `(key, record offset)`
    /// pairs with keys in `[lo, hi]`.
    pub fn scan(&self, id: TableId, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        match &self.table(id).index {
            Index::Tree(t) => t.scan(lo, hi, limit),
            Index::Hash(_) => panic!("scans need an ordered table"),
        }
    }

    /// The largest `(key, record offset)` with key in `[lo, hi]`.
    pub fn last_in_range(&self, id: TableId, lo: u64, hi: u64) -> Option<(u64, u64)> {
        match &self.table(id).index {
            Index::Tree(t) => t.last_in_range(lo, hi),
            Index::Hash(_) => panic!("scans need an ordered table"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_base::VClock;
    use drtm_rdma::Fabric;

    fn schema() -> Vec<TableSpec> {
        vec![
            TableSpec::hash(0, 1024, 40),
            TableSpec::hash(1, 256, 100),
            TableSpec::ordered(2, 64),
        ]
    }

    fn store() -> Store {
        Store::new(Arc::new(MemoryRegion::new(1 << 20)), &schema())
    }

    #[test]
    fn symmetric_layout_across_nodes() {
        let a = store();
        let b = store();
        for id in 0..2u32 {
            let (ha, hb) = match (&a.table(id).index, &b.table(id).index) {
                (Index::Hash(x), Index::Hash(y)) => (x, y),
                _ => unreachable!(),
            };
            assert_eq!(ha.slots_off, hb.slots_off);
            assert_eq!(ha.nslots, hb.nslots);
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let s = store();
        let off = s.insert(0, 7, &[9u8; 40], 0).unwrap();
        assert_eq!(s.get_loc(0, 7), Some(off));
        let rec = s.record(0, off as usize);
        let mut v = vec![0u8; 40];
        rec.read_value_raw(&mut v);
        assert_eq!(v, vec![9u8; 40]);
        assert_eq!(rec.incarnation(), 1, "first insert on fresh block");
    }

    #[test]
    fn key_zero_is_usable() {
        let s = store();
        assert!(s.insert(0, 0, &[1u8; 40], 0).is_some());
        assert!(s.get_loc(0, 0).is_some());
    }

    #[test]
    fn duplicate_insert_rejected_and_block_recycled() {
        let s = store();
        s.insert(0, 7, &[1u8; 40], 0).unwrap();
        let used = s.alloc.used();
        assert!(s.insert(0, 7, &[2u8; 40], 0).is_none());
        // The failed insert's block went back to the free list.
        let off = s.insert(0, 8, &[3u8; 40], 0).unwrap();
        assert!(s.alloc.used() == used || off as usize <= used);
    }

    #[test]
    fn remove_bumps_incarnation_and_recycles() {
        let s = store();
        let off = s.insert(0, 7, &[1u8; 40], 0).unwrap();
        assert!(s.remove(0, 7));
        assert!(!s.remove(0, 7));
        assert_eq!(s.get_loc(0, 7), None);
        // Same block comes back with a higher incarnation after re-insert.
        let off2 = s.insert(0, 8, &[2u8; 40], 0).unwrap();
        assert_eq!(off, off2, "free list reuses the block");
        assert_eq!(
            s.record(0, off2 as usize).incarnation(),
            3,
            "insert+delete+insert"
        );
    }

    #[test]
    fn ordered_table_scan() {
        let s = store();
        for k in 0..50u64 {
            s.insert(2, k, &[k as u8; 64], 0).unwrap();
        }
        let hits = s.scan(2, 10, 14, usize::MAX);
        assert_eq!(hits.len(), 5);
        assert_eq!(s.last_in_range(2, 0, 100).unwrap().0, 49);
    }

    #[test]
    fn remote_lookup_through_symmetric_catalog() {
        let regions: Vec<_> = (0..2)
            .map(|_| Arc::new(MemoryRegion::new(1 << 20)))
            .collect();
        let f = Fabric::builder().regions(regions.clone()).build();
        let local = Store::new(regions[0].clone(), &schema());
        let remote = Store::new(regions[1].clone(), &schema());

        let off = remote.insert(1, 42, &[7u8; 100], 4).unwrap();
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let got = local.remote_probe(1, 42).run_blocking(&qp, &mut clock);
        assert_eq!(got, Some(off));
        assert_eq!(
            local.remote_probe(1, 999).run_blocking(&qp, &mut clock),
            None
        );
    }

    #[test]
    #[should_panic(expected = "local-only")]
    fn remote_ordered_lookup_panics() {
        let regions: Vec<_> = (0..2)
            .map(|_| Arc::new(MemoryRegion::new(1 << 20)))
            .collect();
        let local = Store::new(regions[0].clone(), &schema());
        local.remote_probe(2, 1);
    }
}
