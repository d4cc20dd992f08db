//! A `(table, key) -> record` map of remote record snapshots.
//!
//! No engine path uses it: every remote read of the engine fetches the
//! record fresh from its home, and only record *locations* are cached
//! ([`crate::hashtable::LocationCache`], DESIGN.md §8). The type stays
//! because the benchmark harness's store kernel
//! (`perf/src/kernels.rs`, `store.cache_get_put_ns`) builds and times it.

/// One remote record snapshot: where it lives and what was read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRecord {
    /// Byte offset of the record on its home node.
    pub rec_off: u64,
    /// Sequence number the value is consistent with.
    pub seq: u64,
    /// Incarnation observed when the entry was filled.
    pub incarnation: u64,
    /// Configuration epoch the entry was filled under.
    pub epoch: u64,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// A map of `(table, key) -> record` for one remote node.
#[derive(Debug, Default)]
pub struct ValueCache {
    map: std::collections::HashMap<(u32, u64), CachedRecord>,
}

impl ValueCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a record.
    pub fn get(&self, table: u32, key: u64) -> Option<&CachedRecord> {
        self.map.get(&(table, key))
    }

    /// Deposits (or replaces) an entry.
    pub fn put(&mut self, table: u32, key: u64, rec: CachedRecord) {
        self.map.insert((table, key), rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get_returns_the_record() {
        let mut c = ValueCache::new();
        assert!(c.get(0, 42).is_none());
        let rec = CachedRecord {
            rec_off: 512,
            seq: 4,
            incarnation: 1,
            epoch: 0,
            value: vec![7u8; 16],
        };
        c.put(0, 42, rec.clone());
        assert_eq!(c.get(0, 42), Some(&rec));
        assert!(c.get(1, 42).is_none(), "tables are separate");
    }
}
