//! The RDMA-friendly unordered store (from DrTM, §6.3).
//!
//! An open-addressing hash table whose slot array lives *inside* the
//! node's memory region, so a remote machine can probe it with one-sided
//! RDMA READs and never involve the host CPU. Each slot is 16 bytes —
//! `(key, record offset)` — and four slots share a cache line, so one
//! RDMA READ fetches a whole probe window.
//!
//! Mutations (insert/delete) are host-local: the transaction layer ships
//! them to the owning machine (SEND/RECV verbs) exactly as the paper
//! does, so a per-table mutex on the host is a faithful concurrency
//! discipline. Slot publication is ordered so that remote probe reads
//! (which are line-atomic) always see either the old or the new slot.
//!
//! A per-client [`LocationCache`] memoises `key -> record offset`
//! mappings (DrTM's "location-based, host-transparent cache"); stale
//! entries are detected by the record-incarnation check in the commit
//! phase, whereupon the caller invalidates and re-probes.

use drtm_base::sync::Mutex;
use drtm_base::{MemoryRegion, VClock};
use drtm_rdma::Qp;

/// A slot key value meaning "never used".
const EMPTY: u64 = 0;
/// A slot key value meaning "deleted" (probe chains continue past it).
const TOMBSTONE: u64 = u64::MAX;

const SLOT_BYTES: usize = 16;

/// An open-addressing hash table in a [`MemoryRegion`].
///
/// Keys are arbitrary `u64` except `0` and `u64::MAX` (reserved as slot
/// markers); the catalog layer biases user keys to avoid them.
pub struct HashTable {
    /// Offset of the slot array within the region.
    pub slots_off: usize,
    /// Number of slots (power of two).
    pub nslots: usize,
    write_lock: Mutex<()>,
}

/// The hash of the unordered stores' integer keys: Fibonacci hashing
/// with an extra xor-shift; cheap and well spread.
pub fn mix(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h
}

impl HashTable {
    /// Creates a table over a pre-allocated slot array at `slots_off`.
    ///
    /// `nslots` must be a power of two; the array occupies
    /// `nslots * 16` bytes which the caller has already allocated.
    pub fn new(slots_off: usize, nslots: usize) -> Self {
        assert!(
            nslots.is_power_of_two(),
            "slot count must be a power of two"
        );
        assert_eq!(slots_off % 64, 0, "slot array must be line-aligned");
        Self {
            slots_off,
            nslots,
            write_lock: Mutex::new(()),
        }
    }

    /// Bytes of region space a table with `nslots` slots needs.
    pub fn bytes_for(nslots: usize) -> usize {
        nslots * SLOT_BYTES
    }

    #[inline]
    fn slot_off(&self, idx: usize) -> usize {
        self.slots_off + (idx & (self.nslots - 1)) * SLOT_BYTES
    }

    fn check_key(key: u64) {
        assert!(key != EMPTY && key != TOMBSTONE, "key {key:#x} is reserved");
    }

    /// Inserts `key -> rec_off`. Returns `false` if the key already
    /// exists or the table is full.
    ///
    /// Host-local only (the transaction layer ships remote inserts here).
    pub fn insert(&self, region: &MemoryRegion, key: u64, rec_off: u64) -> bool {
        Self::check_key(key);
        let _g = self.write_lock.lock();
        let free = self.free_slot(region, key);
        free.inspect(|&off| Self::publish(region, off, key, rec_off))
            .is_some()
    }

    /// [`Self::insert`] by the table's only writer before any reader:
    /// the initial load, one job per store (`drtm_core`'s `Seeder`).
    /// The same probe finds the slot, which is then written raw, offset
    /// first and key last ([`MemoryRegion::store64_raw`]): no table
    /// mutex, no line seqlock, no write count, as
    /// [`crate::RecordRef::init`] writes the record itself.
    pub fn seed(&self, region: &MemoryRegion, key: u64, rec_off: u64) -> bool {
        Self::check_key(key);
        let free = self.free_slot(region, key);
        free.inspect(|&off| {
            region.store64_raw(off + 8, rec_off);
            region.store64_raw(off, key);
        })
        .is_some()
    }

    /// The slot offset `key` is to take: the first tombstone of its
    /// probe chain, else the empty slot that ends it. `None` if the key
    /// is present or the table is full. The caller excludes other
    /// writers.
    fn free_slot(&self, region: &MemoryRegion, key: u64) -> Option<usize> {
        let start = mix(key) as usize;
        let mut free: Option<usize> = None;
        for i in 0..self.nslots {
            let off = self.slot_off(start + i);
            let k = region.load64(off);
            if k == key {
                return None;
            }
            if k == TOMBSTONE && free.is_none() {
                free = Some(off);
            }
            if k == EMPTY {
                return Some(free.unwrap_or(off));
            }
        }
        free
    }

    /// Fills the slot at `off` in one hold of its line's seqlock, offset
    /// first and key last: a remote line-atomic probe read sees either
    /// no slot or a complete slot, and so does a local [`Self::get`],
    /// which reads the key before the offset.
    fn publish(region: &MemoryRegion, off: usize, key: u64, rec_off: u64) {
        region.store_two64_coherent(off + 8, rec_off, off, key);
    }

    /// Removes `key`, returning the record offset it mapped to.
    pub fn remove(&self, region: &MemoryRegion, key: u64) -> Option<u64> {
        Self::check_key(key);
        let _g = self.write_lock.lock();
        let start = mix(key) as usize;
        for i in 0..self.nslots {
            let off = self.slot_off(start + i);
            match region.load64(off) {
                k if k == key => {
                    let rec = region.load64(off + 8);
                    region.store64_coherent(off, TOMBSTONE);
                    return Some(rec);
                }
                EMPTY => return None,
                _ => {}
            }
        }
        None
    }

    /// Host-local lookup.
    pub fn get(&self, region: &MemoryRegion, key: u64) -> Option<u64> {
        Self::check_key(key);
        let start = mix(key) as usize;
        for i in 0..self.nslots {
            let off = self.slot_off(start + i);
            match region.load64(off) {
                k if k == key => return Some(region.load64(off + 8)),
                EMPTY => return None,
                _ => {}
            }
        }
        None
    }

    /// Iterates every live `(key, record offset)` pair (host-local; used
    /// by recovery re-replication and consistency audits). Keys are
    /// returned with the reserved-value bias still applied by the caller.
    pub fn iter(&self, region: &MemoryRegion) -> Vec<(u64, u64)> {
        let _g = self.write_lock.lock();
        let mut out = Vec::new();
        for i in 0..self.nslots {
            let off = self.slot_off(i);
            let k = region.load64(off);
            if k != EMPTY && k != TOMBSTONE {
                out.push((k, region.load64(off + 8)));
            }
        }
        out
    }

    /// Starts a remote lookup of `key`: the sequence of line READs a
    /// client posts against the peer's copy of this table.
    pub fn probe(&self, key: u64) -> RemoteProbe {
        Self::check_key(key);
        RemoteProbe {
            key,
            slots_off: self.slots_off,
            nslots: self.nslots,
            start: mix(key) as usize,
            probed: 0,
        }
    }
}

/// Bytes one probe READ fetches: a cache line, four slots.
pub const PROBE_LINE_BYTES: usize = 64;

/// One remote lookup in flight (DrTM's clustered probing): the caller
/// READs [`PROBE_LINE_BYTES`] at [`line`](Self::line) — with whatever
/// verb discipline it likes, blocking or posted — and hands the bytes
/// to [`feed`](Self::feed) until that returns the answer. Most lookups
/// end in their first line.
#[derive(Debug, Clone)]
pub struct RemoteProbe {
    key: u64,
    slots_off: usize,
    nslots: usize,
    start: usize,
    /// Slots examined so far.
    probed: usize,
}

impl RemoteProbe {
    fn slot_off(&self) -> usize {
        self.slots_off + ((self.start + self.probed) & (self.nslots - 1)) * SLOT_BYTES
    }

    /// Remote byte offset of the line to READ next.
    pub fn line(&self) -> usize {
        self.slot_off() & !(PROBE_LINE_BYTES - 1)
    }

    /// Drives the lookup to its answer with blocking READs on `qp`, one
    /// per line (tests and reference use; the transaction layer posts
    /// its probes instead).
    pub fn run_blocking(mut self, qp: &Qp, clock: &mut VClock) -> Option<u64> {
        let mut buf = [0u8; PROBE_LINE_BYTES];
        loop {
            qp.read(clock, self.line(), &mut buf);
            if let Some(found) = self.feed(&buf) {
                return found;
            }
        }
    }

    /// Scans the bytes READ at [`line`](Self::line) from the current
    /// probe position on. `Some(answer)` ends the lookup — the record
    /// offset, or `None` for an absent key; `None` means the chain
    /// continues past this line: READ the new [`line`](Self::line).
    pub fn feed(&mut self, line: &[u8]) -> Option<Option<u64>> {
        let line_off = self.line();
        while self.probed < self.nslots {
            let off = self.slot_off();
            if off & !(PROBE_LINE_BYTES - 1) != line_off {
                return None;
            }
            let j = off - line_off;
            let k = u64::from_le_bytes(line[j..j + 8].try_into().unwrap());
            if k == self.key {
                let rec = u64::from_le_bytes(line[j + 8..j + 16].try_into().unwrap());
                return Some(Some(rec));
            }
            if k == EMPTY {
                return Some(None);
            }
            self.probed += 1;
        }
        Some(None)
    }
}

/// A client-side cache of `(table, key) -> record offset` per remote node.
///
/// Transparent to the host (never invalidated by it): the caller detects
/// staleness through the record incarnation check at commit and calls
/// [`LocationCache::invalidate`].
#[derive(Debug, Default)]
pub struct LocationCache {
    map: std::collections::HashMap<(u32, u64), (u64, u64)>,
    hits: u64,
    misses: u64,
}

impl LocationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached `(record offset, incarnation)`.
    ///
    /// The incarnation is the one observed when the entry was filled; a
    /// reader that finds the record's current incarnation differs knows
    /// the block was freed (and possibly reused for another key) and must
    /// [`LocationCache::invalidate`] + re-probe.
    pub fn get(&mut self, table: u32, key: u64) -> Option<(u64, u64)> {
        let r = self.map.get(&(table, key)).copied();
        if r.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        r
    }

    /// Records a location and the incarnation it was observed at.
    pub fn put(&mut self, table: u32, key: u64, rec_off: u64, incarnation: u64) {
        self.map.insert((table, key), (rec_off, incarnation));
    }

    /// Drops a stale location.
    pub fn invalidate(&mut self, table: u32, key: u64) {
        self.map.remove(&(table, key));
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_rdma::Fabric;
    use std::sync::Arc;

    fn setup(nslots: usize) -> (Arc<Fabric>, HashTable) {
        let regions = (0..2)
            .map(|_| Arc::new(MemoryRegion::new(HashTable::bytes_for(nslots) + 4096)))
            .collect();
        let f = Fabric::builder().regions(regions).build();
        (f, HashTable::new(0, nslots))
    }

    #[test]
    fn insert_get_remove() {
        let (f, t) = setup(64);
        let r = f.port(1).region();
        assert!(t.insert(r, 42, 1000));
        assert!(!t.insert(r, 42, 2000), "duplicate rejected");
        assert_eq!(t.get(r, 42), Some(1000));
        assert_eq!(t.get(r, 43), None);
        assert_eq!(t.remove(r, 42), Some(1000));
        assert_eq!(t.get(r, 42), None);
        assert_eq!(t.remove(r, 42), None);
    }

    #[test]
    fn tombstone_chain_continues() {
        let (f, t) = setup(64);
        let r = f.port(1).region();
        // Force a collision chain by filling adjacent probe positions.
        let keys: Vec<u64> = (1..=20).collect();
        for &k in &keys {
            assert!(t.insert(r, k, k * 10));
        }
        t.remove(r, keys[3]).unwrap();
        for &k in &keys {
            if k == keys[3] {
                assert_eq!(t.get(r, k), None);
            } else {
                assert_eq!(t.get(r, k), Some(k * 10), "key {k} lost after tombstone");
            }
        }
        // Tombstone is reused.
        assert!(t.insert(r, 999, 9));
        assert_eq!(t.get(r, 999), Some(9));
    }

    #[test]
    fn remote_lookup_matches_local() {
        let (f, t) = setup(256);
        let r = f.port(1).region();
        for k in 1..=100u64 {
            assert!(t.insert(r, k * 7, k));
        }
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        for k in 1..=100u64 {
            assert_eq!(
                t.probe(k * 7).run_blocking(&qp, &mut clock),
                Some(k),
                "key {}",
                k * 7
            );
        }
        assert_eq!(t.probe(5000).run_blocking(&qp, &mut clock), None);
        assert!(f.port(1).stats().reads.get() > 0);
    }

    #[test]
    fn table_full_behaviour() {
        let (f, t) = setup(4);
        let r = f.port(1).region();
        assert!(t.insert(r, 1, 1));
        assert!(t.insert(r, 2, 2));
        assert!(t.insert(r, 3, 3));
        assert!(t.insert(r, 4, 4));
        assert!(!t.insert(r, 5, 5), "full table rejects");
        assert_eq!(t.remove(r, 2), Some(2));
        assert!(t.insert(r, 5, 5), "tombstone reused when full");
        assert_eq!(t.get(r, 5), Some(5));
    }

    #[test]
    fn location_cache_tracks_hits() {
        let mut c = LocationCache::new();
        assert_eq!(c.get(1, 10), None);
        c.put(1, 10, 555, 3);
        assert_eq!(c.get(1, 10), Some((555, 3)));
        c.invalidate(1, 10);
        assert_eq!(c.get(1, 10), None);
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_keys_panic() {
        let (f, t) = setup(4);
        t.insert(f.port(1).region(), 0, 1);
    }

    #[test]
    fn iter_returns_live_entries() {
        let (f, t) = setup(64);
        let r = f.port(1).region();
        for k in 1..=10u64 {
            t.insert(r, k, k * 2);
        }
        t.remove(r, 3);
        let mut got = t.iter(r);
        got.sort_unstable();
        assert_eq!(got.len(), 9);
        assert!(!got.iter().any(|&(k, _)| k == 3));
        assert!(got.iter().all(|&(k, v)| v == k * 2));
    }

    /// Model check against a HashMap, through local and remote lookup
    /// paths, over randomized operation schedules.
    #[test]
    fn model_check() {
        use std::collections::HashMap;
        let mut rng = drtm_base::SplitMix64::new(0x5eed_0006);
        for _ in 0..48 {
            let n = 1 + rng.below(119) as usize;
            let (f, t) = setup(256);
            let r = f.port(1).region();
            let qp = f.qp(0, 1);
            let mut clock = drtm_base::VClock::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for _ in 0..n {
                let op = rng.below(3) as u8;
                let k = rng.range(1, 64);
                let v = rng.range(1, 1000);
                match op {
                    0 => {
                        let expect = !model.contains_key(&k);
                        assert_eq!(t.insert(r, k, v), expect);
                        model.entry(k).or_insert(v);
                    }
                    1 => {
                        assert_eq!(t.remove(r, k), model.remove(&k));
                    }
                    _ => {
                        assert_eq!(t.get(r, k), model.get(&k).copied());
                        assert_eq!(
                            t.probe(k).run_blocking(&qp, &mut clock),
                            model.get(&k).copied()
                        );
                    }
                }
            }
        }
    }
}
