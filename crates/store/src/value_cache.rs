//! A client-side value cache for remote read-mostly records.
//!
//! DrTM's location cache ([`crate::hashtable::LocationCache`]) saves the
//! remote hash-table *probe*; this cache goes one step further for
//! read-mostly tables and saves the record READ itself. The first
//! consistent remote read of `(table, key)` deposits the record bytes
//! plus the `(seq, incarnation)` they were observed at; later reads are
//! served from the cache with **no execution-phase verb at all**, and the
//! commit protocol validates the entry with a header-only READ of
//! [`crate::record::HEADER_BYTES`] at C.2 — one partial cache line on the
//! wire instead of the whole record.
//!
//! Coherence rules (serializability is unchanged by construction):
//!
//! * **Seq validation at C.2** — a cached read enters the read set with
//!   the cached sequence number, so the ordinary validation condition
//!   (`(seen + 1) & !1 == cur`, Table 4) rejects any entry the home node
//!   has since rewritten. A failed validation invalidates the entry, and
//!   the retry refetches the record in full.
//! * **Incarnation check** — a cached entry whose record block was freed
//!   (and possibly reused) is caught by comparing the cached incarnation
//!   against the header READ, exactly like the location-cache rule.
//! * **Recovery invalidation** — entries are tagged with the
//!   configuration epoch they were filled under; a reconfiguration
//!   ([`ValueCache::retain_epoch`]) drops every entry of a dead node's
//!   cache wholesale, so re-homed shards can never serve a pre-crash
//!   value.
//! * **Write-through at C.5** — a committing transaction that updated a
//!   cached record refreshes the entry with the new value and (even)
//!   sequence number it just wrote, keeping its own cache warm.

/// One cached remote record: where it lives, what was read, and the
/// metadata the commit-phase validation checks it against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRecord {
    /// Byte offset of the record on its home node.
    pub rec_off: u64,
    /// Sequence number the cached value is consistent with.
    pub seq: u64,
    /// Incarnation observed when the entry was filled.
    pub incarnation: u64,
    /// Configuration epoch the entry was filled under.
    pub epoch: u64,
    /// The cached value bytes.
    pub value: Vec<u8>,
}

/// A per-client cache of `(table, key) -> record bytes` for one remote
/// node (the caller keeps one instance per peer, like its
/// [`crate::hashtable::LocationCache`]s).
///
/// Transparent to the host: the home node never invalidates it. The
/// caller detects staleness through the C.2 header validation and calls
/// [`ValueCache::invalidate`]; recovery drops whole epochs with
/// [`ValueCache::retain_epoch`].
#[derive(Debug, Default)]
pub struct ValueCache {
    map: std::collections::HashMap<(u32, u64), CachedRecord>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl ValueCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached record, counting a hit or a miss.
    pub fn get(&mut self, table: u32, key: u64) -> Option<&CachedRecord> {
        match self.map.get(&(table, key)) {
            Some(rec) => {
                self.hits += 1;
                Some(rec)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a lookup of `(table, key)` would hit, counting nothing.
    pub fn contains(&self, table: u32, key: u64) -> bool {
        self.map.contains_key(&(table, key))
    }

    /// Deposits (or refreshes) an entry from a consistent remote read or
    /// a write-through at C.5.
    pub fn put(&mut self, table: u32, key: u64, rec: CachedRecord) {
        self.map.insert((table, key), rec);
    }

    /// Refreshes the value and sequence number of an existing entry in
    /// place (the C.5 write-through), leaving location and incarnation
    /// untouched. A miss is ignored — there is nothing to keep coherent.
    pub fn refresh(&mut self, table: u32, key: u64, value: &[u8], seq: u64) {
        if let Some(rec) = self.map.get_mut(&(table, key)) {
            rec.value.clear();
            rec.value.extend_from_slice(value);
            rec.seq = seq;
        }
    }

    /// Drops a stale entry (C.2 validation or incarnation failure).
    /// Returns whether an entry was actually removed.
    pub fn invalidate(&mut self, table: u32, key: u64) -> bool {
        let removed = self.map.remove(&(table, key)).is_some();
        if removed {
            self.invalidations += 1;
        }
        removed
    }

    /// Drops every entry not filled under `epoch` (reconfiguration: the
    /// cluster membership changed, so cached values of re-homed shards
    /// must not survive). Returns how many entries were dropped.
    pub fn retain_epoch(&mut self, epoch: u64) -> u64 {
        let before = self.map.len();
        self.map.retain(|_, rec| rec.epoch == epoch);
        let dropped = (before - self.map.len()) as u64;
        self.invalidations += dropped;
        dropped
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, invalidations)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, epoch: u64) -> CachedRecord {
        CachedRecord {
            rec_off: 512,
            seq,
            incarnation: 1,
            epoch,
            value: vec![7u8; 16],
        }
    }

    #[test]
    fn hit_miss_and_invalidate_are_counted() {
        let mut c = ValueCache::new();
        assert!(c.get(0, 42).is_none());
        c.put(0, 42, rec(4, 0));
        assert_eq!(c.get(0, 42).unwrap().seq, 4);
        assert!(c.invalidate(0, 42));
        assert!(!c.invalidate(0, 42)); // Double invalidation is not counted twice.
        assert!(c.get(0, 42).is_none());
        assert_eq!(c.stats(), (1, 2, 1));
    }

    #[test]
    fn refresh_updates_value_and_seq_in_place() {
        let mut c = ValueCache::new();
        c.put(0, 42, rec(4, 0));
        c.refresh(0, 42, &[9u8; 16], 6);
        c.refresh(0, 99, &[1u8; 16], 2); // Miss: silently ignored.
        let got = c.get(0, 42).unwrap();
        assert_eq!(got.seq, 6);
        assert_eq!(got.value, vec![9u8; 16]);
        assert_eq!(got.incarnation, 1, "incarnation untouched");
        assert!(c.get(0, 99).is_none());
    }

    #[test]
    fn retain_epoch_drops_stale_configurations() {
        let mut c = ValueCache::new();
        c.put(0, 1, rec(2, 0));
        c.put(0, 2, rec(2, 0));
        c.put(0, 3, rec(2, 1));
        assert_eq!(c.retain_epoch(1), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(0, 3).is_some());
        assert_eq!(c.stats().2, 2, "epoch drops count as invalidations");
    }
}
