//! Backup record images, maintained by each backup's truncation step.
//!
//! Each backup machine keeps, per primary it backs, a durable image of
//! that primary's records. Redo entries land in the backup's
//! non-volatile log ([`drtm_cluster::ReplLogStore`]) on the commit
//! critical path; the backup's worker loops later *apply* those entries
//! to the image and truncate the log, one
//! [`crate::cluster::DrtmCluster::truncate_step`] between two of their
//! transactions. The paper runs this on auxiliary threads so that it
//! "will not impact worker threads" (§5.1); here the step charges no
//! virtual time, which keeps it off the critical path all the same.
//! Recovery merges the image with any not-yet-applied log entries
//! ([`crate::cluster::DrtmCluster::freshest_durable`]).
//!
//! An image holds no heap object per record: per table a chunked byte
//! slab of fixed-stride slots and an open-addressing index of slot
//! numbers into it. A key keeps its slot for good — a delete
//! tombstones it in place — so applying an entry is a copy. The slab's
//! chunks are zeroed mappings advised for 2 MiB pages
//! ([`drtm_base::ZeroedBytes`]), each twice the one before, so a load
//! that fills a large image faults once per 2 MiB of slots, and a
//! dropped image unmaps them at once; so is the index. All backups of a primary start out with
//! the same image: a load fills one and copies it
//! ([`BackupStore::copy_image`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::MutexGuard;

use drtm_base::sync::Mutex;
use drtm_base::ZeroedBytes;
use drtm_cluster::LogEntryRef;
use drtm_rdma::NodeId;
use drtm_store::{hashtable::mix, TableKind, TableSpec};

/// One durable version of a record: an owned copy, or borrowed from
/// its image slot ([`BackupRecordRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupRecord<V = Vec<u8>> {
    /// Sequence number of the newest applied update.
    pub seq: u64,
    /// Value bytes (empty if deleted).
    pub value: V,
    /// Whether the newest update was a deletion.
    pub deleted: bool,
}

/// A record of a backup image, borrowed from its slot.
pub type BackupRecordRef<'a> = BackupRecord<&'a [u8]>;

/// Slot layout: `key u64 | seq u64 | deleted u8 | value[value_len]`.
const SEQ_AT: usize = 8;
const DELETED_AT: usize = 16;
const VALUE_AT: usize = 17;

/// One table of one image.
struct TableImage {
    /// Slot size: [`VALUE_AT`] + the table's `value_len`.
    stride: usize,
    /// `log2` of the slots of the first slab chunk and of the index's
    /// first length: a hash table's capacity, 16 for an ordered one.
    first: u32,
    /// Slab chunks, each a mapping twice the slots of the one before
    /// (the first holds `1 << first`). Chunks are never reallocated, so
    /// a slab grows without copying, and a chunk costs memory only
    /// where its slots are written.
    slab: Vec<ZeroedBytes>,
    slots: usize,
    /// Linear-probing table of `slot + 1` (0 = free), a power of two long.
    /// Past 3/4 full it doubles.
    index: Index,
}

/// An image table's index: `u32` entries in a zeroed mapping, none
/// before the table's first slot.
#[derive(Default)]
struct Index(Option<ZeroedBytes>);

impl Index {
    const ENTRY: usize = size_of::<u32>();

    fn zeroed(len: usize) -> Self {
        Self(Some(ZeroedBytes::new(len * Self::ENTRY)))
    }

    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |m| m.len() / Self::ENTRY)
    }

    fn get(&self, at: usize) -> Option<u32> {
        let entry = self.0.as_ref()?.get(at * Self::ENTRY..)?;
        Some(u32::from_le_bytes(entry[..Self::ENTRY].try_into().unwrap()))
    }

    fn set(&mut self, at: usize, entry: u32) {
        let map = self.0.as_mut().expect("an index to set");
        map[at * Self::ENTRY..][..Self::ENTRY].copy_from_slice(&entry.to_le_bytes());
    }

    fn copied(&self) -> Self {
        Self(self.0.as_ref().map(|m| {
            let mut copy = ZeroedBytes::new(m.len());
            copy.copy_from_slice(m);
            copy
        }))
    }

    /// The most memory the index holds: all its pages.
    fn footprint(&self) -> usize {
        self.0.as_ref().map_or(0, |m| m.resident(m.len()))
    }
}

impl TableImage {
    fn new(spec: &TableSpec) -> Self {
        let capacity = match spec.kind {
            TableKind::Hash { buckets } => buckets.next_power_of_two(),
            TableKind::Ordered => 0,
        };
        Self {
            stride: VALUE_AT + spec.value_len,
            first: capacity.max(16).ilog2(),
            slab: Vec::new(),
            slots: 0,
            index: Index::default(),
        }
    }

    /// The chunk that holds `slot` and the slot's byte offset in it.
    fn chunk_of(&self, slot: usize) -> (usize, usize) {
        let past = slot + (1 << self.first);
        let chunk = past.ilog2() - self.first;
        (
            chunk as usize,
            (past - (1 << (self.first + chunk))) * self.stride,
        )
    }

    fn slot(&self, slot: usize) -> &[u8] {
        let (chunk, at) = self.chunk_of(slot);
        &self.slab[chunk][at..][..self.stride]
    }

    fn slot_mut(&mut self, slot: usize) -> &mut [u8] {
        let (chunk, at) = self.chunk_of(slot);
        &mut self.slab[chunk][at..][..self.stride]
    }

    fn key_of(&self, slot: usize) -> u64 {
        u64::from_le_bytes(self.slot(slot)[..SEQ_AT].try_into().unwrap())
    }

    fn record(&self, slot: usize) -> BackupRecordRef<'_> {
        let s = self.slot(slot);
        let deleted = s[DELETED_AT] != 0;
        BackupRecord {
            seq: u64::from_le_bytes(s[SEQ_AT..DELETED_AT].try_into().unwrap()),
            value: if deleted { &[] } else { &s[VALUE_AT..] },
            deleted,
        }
    }

    /// Where `key` is in the index, or the free position it would take:
    /// `(position, slot)`. A `fresh` key is one the table does not hold:
    /// only the free position is looked for, and no slot is read.
    fn probe(&self, key: u64, fresh: bool) -> (usize, Option<usize>) {
        let mask = self.index.len().wrapping_sub(1);
        let mut at = mix(key) as usize & mask;
        while let Some(s) = self.index.get(at) {
            match s as usize {
                0 => break,
                s if !fresh && self.key_of(s - 1) == key => return (at, Some(s - 1)),
                _ => at = (at + 1) & mask,
            }
        }
        (at, None)
    }

    /// Installs `value` (`None` = a tombstone) as `key`'s newest version;
    /// a `fresh` key is known to be new ([`Self::probe`]). A new key takes
    /// the next slot and the free index position its probe found, unless
    /// the index grows first.
    fn put(&mut self, key: u64, seq: u64, value: Option<&[u8]>, fresh: bool) {
        let (at, found) = self.probe(key, fresh);
        let slot = found.unwrap_or_else(|| {
            let slot = self.slots;
            let (chunk, _) = self.chunk_of(slot);
            if chunk == self.slab.len() {
                let slots = 1 << (self.first as usize + chunk);
                self.slab.push(ZeroedBytes::new(slots * self.stride));
            }
            self.slot_mut(slot)[..SEQ_AT].copy_from_slice(&key.to_le_bytes());
            self.slots += 1;
            if self.slots * 4 > self.index.len() * 3 {
                // Double the index (or make the first one) and re-link.
                self.index = Index::zeroed((self.index.len() * 2).max(1 << self.first));
                (0..=slot).for_each(|s| self.link(s));
            } else {
                self.index.set(at, Self::entry(slot));
            }
            slot
        });
        let s = self.slot_mut(slot);
        s[SEQ_AT..DELETED_AT].copy_from_slice(&seq.to_le_bytes());
        s[DELETED_AT] = value.is_none() as u8;
        if let Some(v) = value {
            s[VALUE_AT..].copy_from_slice(v);
        }
    }

    fn link(&mut self, slot: usize) {
        let (at, _) = self.probe(self.key_of(slot), true);
        self.index.set(at, Self::entry(slot));
    }

    fn entry(slot: usize) -> u32 {
        u32::try_from(slot + 1).expect("image table over 4 G slots")
    }

    /// The bytes of chunk `chunk` that hold slots.
    fn used(&self, chunk: usize) -> usize {
        let before = ((1 << chunk) - 1) << self.first;
        (self.slots - before).min(1 << (self.first as usize + chunk)) * self.stride
    }

    /// A copy of this table, byte for byte: its own slab chunks of the
    /// same sizes with the used bytes copied, the same index and the
    /// same slot count.
    fn copied(&self) -> Self {
        let slab = self.slab.iter().enumerate().map(|(c, chunk)| {
            let mut copy = ZeroedBytes::new(chunk.len());
            let used = self.used(c);
            copy[..used].copy_from_slice(&chunk[..used]);
            copy
        });
        Self {
            stride: self.stride,
            first: self.first,
            slab: slab.collect(),
            slots: self.slots,
            index: self.index.copied(),
        }
    }

    /// The most memory the slab and the index hold: each chunk's used
    /// bytes in the pages they touch ([`ZeroedBytes::resident`]), and
    /// the whole index.
    fn footprint(&self) -> usize {
        let slab = self.slab.iter().enumerate();
        let chunks = slab.map(|(c, chunk)| chunk.resident(self.used(c)));
        chunks.sum::<usize>() + self.index.footprint()
    }
}

/// One locked image ([`BackupStore::image`]), and the store's count of
/// whole-image passes.
pub struct ImageGuard<'a>(MutexGuard<'a, Vec<TableImage>>, &'a AtomicUsize);

impl ImageGuard<'_> {
    /// The image's version of `(table, key)`, tombstones included.
    pub fn get(&self, table: u32, key: u64) -> Option<BackupRecordRef<'_>> {
        let t = &self.0[table as usize];
        t.probe(key, false).1.map(|slot| t.record(slot))
    }

    /// Installs `value` as `(table, key)`'s version at `seq`, bypassing
    /// the log: recovery's re-replication.
    pub fn put(&mut self, table: u32, key: u64, seq: u64, value: &[u8]) {
        self.0[table as usize].put(key, seq, Some(value), false);
    }

    /// [`Self::put`] of a key the image does not hold: the initial load
    /// ([`crate::cluster::Seeder`]). Its probe reads no slot. A key
    /// seeded twice panics in the store's seed of the same record
    /// ([`drtm_store::Store::seed`]), so no load that returns leaves two
    /// slots for one key.
    pub fn seed(&mut self, table: u32, key: u64, seq: u64, value: &[u8]) {
        let t = &mut self.0[table as usize];
        debug_assert!(t.probe(key, false).1.is_none(), "key {key} seeded twice");
        t.put(key, seq, Some(value), true);
    }

    /// A pass over the whole image (counted): every record, tombstones
    /// included, as `((table, key), record)`.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u64), BackupRecordRef<'_>)> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.iter().enumerate().flat_map(|(id, t)| {
            (0..t.slots).map(move |slot| ((id as u32, t.key_of(slot)), t.record(slot)))
        })
    }
}

/// All backup images of a cluster: `image[backup][primary]`.
pub struct BackupStore {
    images: Vec<Vec<Mutex<Vec<TableImage>>>>,
    full_passes: AtomicUsize,
}

impl BackupStore {
    /// Creates empty images of `schema` for an `n`-node cluster. An
    /// image allocates at its first record.
    pub fn new(n: usize, schema: &[TableSpec]) -> Self {
        let image = || Mutex::new(schema.iter().map(TableImage::new).collect());
        Self {
            images: (0..n).map(|_| (0..n).map(|_| image()).collect()).collect(),
            full_passes: AtomicUsize::new(0),
        }
    }

    /// Applies one redo entry (last-writer-wins in log order).
    ///
    /// Entries for the same key are appended to the log in commit order —
    /// the key's record is locked (by HTM or RDMA CAS) for the whole
    /// commit that logs it — so applying them in arrival order is
    /// correct. Sequence numbers are *not* compared across entries,
    /// because a delete + re-insert restarts the key's sequence.
    pub fn apply(&self, backup: NodeId, primary: NodeId, e: LogEntryRef<'_>) {
        let value = (!e.delete).then_some(e.value);
        self.images[backup][primary].lock()[e.table as usize].put(e.key, e.seq, value, false);
    }

    /// Locks `primary`'s image on `backup`: point lookups, installs
    /// ([`ImageGuard::put`]), and the whole-image pass of recovery's
    /// shard rebuild.
    pub fn image(&self, backup: NodeId, primary: NodeId) -> ImageGuard<'_> {
        ImageGuard(self.images[backup][primary].lock(), &self.full_passes)
    }

    /// Makes `to`'s image of `primary` a copy of `from`'s, byte for
    /// byte: slab chunks, index and slot count, replacing what `to` held.
    /// The initial load ([`crate::cluster::DrtmCluster::load_shards`])
    /// fills one backup's image and copies it to the others. Locks the
    /// source, then the destination.
    pub fn copy_image(&self, primary: NodeId, from: NodeId, to: NodeId) {
        assert_ne!(from, to, "an image is not copied onto itself");
        let src = self.images[from][primary].lock();
        let mut dst = self.images[to][primary].lock();
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = s.copied();
        }
    }

    /// How many whole-image passes ([`ImageGuard::iter`]) were made.
    pub fn full_passes(&self) -> usize {
        self.full_passes.load(Ordering::Relaxed)
    }

    /// Number of live (non-deleted) records in an image.
    pub fn live_len(&self, backup: NodeId, primary: NodeId) -> usize {
        let image = self.image(backup, primary);
        image.iter().filter(|(_, r)| !r.deleted).count()
    }

    /// Slots of all images (live records plus tombstones) and the most
    /// memory their slabs and indexes hold: the pages their slots touch
    /// and the indexes' pages.
    pub fn footprint(&self) -> (usize, usize) {
        let images = self.images.iter().flatten().map(|image| image.lock());
        images.fold((0, 0), |(slots, bytes), image| {
            let slots = slots + image.iter().map(|t| t.slots).sum::<usize>();
            (
                slots,
                bytes + image.iter().map(TableImage::footprint).sum::<usize>(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use drtm_base::SplitMix64;
    use drtm_cluster::LogEntry;

    use super::*;

    fn schema() -> Vec<TableSpec> {
        vec![
            TableSpec::hash(0, 64, 40),
            TableSpec::hash(1, 8, 1),
            TableSpec::ordered(2, 13),
        ]
    }

    fn owned(r: BackupRecordRef<'_>) -> BackupRecord {
        BackupRecord {
            seq: r.seq,
            value: r.value.to_vec(),
            deleted: r.deleted,
        }
    }

    trait View {
        fn view(&self) -> LogEntryRef<'_>;
    }

    impl View for LogEntry {
        fn view(&self) -> LogEntryRef<'_> {
            LogEntry {
                table: self.table,
                key: self.key,
                seq: self.seq,
                value: &self.value,
                delete: self.delete,
            }
        }
    }

    fn put(key: u64, seq: u64, v: u8) -> LogEntry {
        LogEntry {
            table: 1,
            key,
            seq,
            value: vec![v],
            delete: false,
        }
    }

    fn del(key: u64, seq: u64) -> LogEntry {
        LogEntry {
            delete: true,
            value: vec![],
            ..put(key, seq, 0)
        }
    }

    #[test]
    fn apply_is_last_writer_wins_in_log_order() {
        let b = BackupStore::new(2, &schema());
        b.apply(1, 0, put(7, 4, 1).view());
        b.apply(1, 0, put(7, 6, 9).view());
        let snap = b.image(1, 0);
        let all: Vec<_> = snap.iter().collect();
        assert_eq!(all.len(), 1);
        let want = BackupRecordRef {
            seq: 6,
            value: &[9],
            deleted: false,
        };
        assert_eq!(all[0], ((1, 7), want));
        drop(snap);
        assert_eq!(b.image(1, 0).get(1, 7), Some(want));
        assert_eq!(b.image(1, 0).get(0, 7), None, "another table");
        assert_eq!(b.image(0, 1).get(1, 7), None, "another image");
    }

    #[test]
    fn delete_then_reinsert_restarts_sequence() {
        let b = BackupStore::new(2, &schema());
        b.apply(1, 0, put(7, 8, 1).view());
        b.apply(1, 0, del(7, 10).view());
        // Re-insert starts at seq 2 again; log order must win.
        b.apply(1, 0, put(7, 2, 5).view());
        let want = BackupRecord {
            seq: 2,
            value: vec![5],
            deleted: false,
        };
        assert_eq!(b.image(1, 0).get(1, 7).map(owned), Some(want));
        assert_eq!(b.footprint().0, 1, "the key keeps its slot");
    }

    #[test]
    fn delete_entries_tombstone() {
        let b = BackupStore::new(2, &schema());
        b.apply(1, 0, put(7, 2, 1).view());
        b.apply(1, 0, del(7, 4).view());
        assert_eq!(b.live_len(1, 0), 0);
        let want = BackupRecordRef {
            seq: 4,
            value: &[],
            deleted: true,
        };
        assert_eq!(b.image(1, 0).get(1, 7), Some(want));
        // Re-insert after delete.
        b.apply(1, 0, put(7, 6, 2).view());
        assert_eq!(b.live_len(1, 0), 1);
    }

    #[test]
    fn seed_is_visible() {
        let b = BackupStore::new(3, &schema());
        b.image(2, 0).put(1, 100, 2, &[1]);
        assert_eq!(b.live_len(2, 0), 1);
        assert_eq!(b.live_len(2, 1), 0);
    }

    #[test]
    fn only_iteration_counts_as_a_full_pass() {
        let b = BackupStore::new(2, &schema());
        b.image(1, 0).put(1, 5, 2, &[1]);
        b.image(1, 0).get(1, 5).unwrap();
        assert_eq!((b.footprint().0, b.full_passes()), (1, 0));
        assert_eq!(b.image(1, 0).iter().count(), 1);
        assert_eq!(b.full_passes(), 1);
    }

    /// A copied image holds the source's records in the source's slot
    /// order, costs as much again, and then changes only by its own
    /// updates.
    #[test]
    fn a_copied_image_equals_its_source_and_then_diverges_alone() {
        let b = BackupStore::new(3, &schema());
        let mut rng = SplitMix64::new(0xC0B1);
        for i in 0..3_000u64 {
            let table = (i % 3) as u32;
            let len = schema()[table as usize].value_len;
            let value: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            b.image(1, 0)
                .put(table, 1 << 32 | rng.below(1_000), 2, &value);
        }
        b.apply(1, 0, del(7, 4).view());
        let (slots, bytes) = b.footprint();
        b.copy_image(0, 1, 2);
        let records = |node| -> Vec<_> {
            let image = b.image(node, 0);
            image.iter().map(|(k, r)| (k, owned(r))).collect()
        };
        let source = records(1);
        assert_eq!(records(2), source, "same records in the same order");
        assert!(
            source.iter().any(|(_, r)| r.deleted),
            "tombstones copied too"
        );
        assert_eq!(b.footprint(), (2 * slots, 2 * bytes));
        b.apply(1, 0, put(7, 6, 1).view());
        assert_eq!(records(2), source, "an update to the source stays in it");
        b.apply(2, 0, put(9, 2, 5).view());
        assert_eq!(
            b.image(1, 0).get(1, 9),
            None,
            "an insert into the copy stays in it"
        );
        assert_eq!(b.image(1, 0).get(1, 7).map(|r| r.seq), Some(6));
        assert_eq!(b.image(2, 0).get(1, 7).map(|r| r.deleted), Some(true));
    }

    /// The flat image against a map of owned records: 10 k seeded random
    /// seeds, updates, deletes and re-inserts over three tables of
    /// different value sizes (one past its reserved capacity, one
    /// growing from nothing).
    #[test]
    fn flat_image_matches_a_reference_map() {
        let schema = schema();
        let b = BackupStore::new(2, &schema);
        let mut model: HashMap<(u32, u64), BackupRecord> = HashMap::new();
        let mut rng = SplitMix64::new(0x1A6E);
        for step in 0..10_000u64 {
            let table = rng.below(3) as u32;
            // Shard-prefixed keys, a few hundred per table, so every
            // key is updated, deleted and re-inserted many times.
            let key = 1 << 32 | rng.below(300) << (table * 3);
            let len = schema[table as usize].value_len;
            let value: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let was = model.get(&(table, key));
            let rec = match rng.below(10) {
                0..=1 => {
                    b.image(1, 0).put(table, key, 2, &value);
                    BackupRecord {
                        seq: 2,
                        value,
                        deleted: false,
                    }
                }
                2..=3 => {
                    let seq = was.map_or(2, |r| r.seq + 2);
                    let e = LogEntry {
                        table,
                        key,
                        seq,
                        value: vec![],
                        delete: true,
                    };
                    b.apply(1, 0, e.view());
                    BackupRecord {
                        seq,
                        value: vec![],
                        deleted: true,
                    }
                }
                _ => {
                    // A write bumps the sequence; a re-insert restarts it.
                    let seq = was.filter(|r| !r.deleted).map_or(2, |r| r.seq + 2);
                    let e = LogEntry {
                        table,
                        key,
                        seq,
                        value: value.clone(),
                        delete: false,
                    };
                    b.apply(1, 0, e.view());
                    BackupRecord {
                        seq,
                        value,
                        deleted: false,
                    }
                }
            };
            model.insert((table, key), rec);
            if step % 500 != 499 {
                continue;
            }
            let image = b.image(1, 0);
            for (&(t, k), want) in &model {
                assert_eq!(image.get(t, k).map(owned).as_ref(), Some(want));
            }
            assert_eq!(image.get(table, key ^ 1 << 40), None);
            drop(image);
            let snap = b.image(1, 0);
            let got: HashMap<(u32, u64), BackupRecord> =
                snap.iter().map(|(k, r)| (k, owned(r))).collect();
            assert_eq!(snap.iter().count(), got.len(), "one slot per key");
            drop(snap);
            assert_eq!(got, model);
            let live = model.values().filter(|r| !r.deleted).count();
            assert_eq!(b.live_len(1, 0), live);
            assert_eq!(b.footprint().0, model.len());
        }
    }

    /// The point of the layout: no per-record heap object. (The map of
    /// owned records it replaced cost about 150 bytes for each.)
    #[test]
    fn hundred_thousand_records_fit_in_100_bytes_each() {
        let b = BackupStore::new(2, &[TableSpec::hash(0, 200_000, 40)]);
        for k in 0..100_000u64 {
            b.image(1, 0).put(0, 1 << 32 | k, 2, &[k as u8; 40]);
        }
        assert_eq!(b.footprint().0, 100_000);
        let per_record = b.footprint().1 as f64 / 100_000.0;
        assert!(per_record <= 100.0, "{per_record} bytes per record");
        let idle = BackupStore::new(3, &[TableSpec::hash(0, 200_000, 40)]);
        assert_eq!(
            idle.footprint(),
            (0, 0),
            "untouched images allocate nothing"
        );
    }
}
