//! The database record format (Figure 3 of the paper).
//!
//! Every record starts on a fresh cache line and carries:
//!
//! ```text
//! line 0: | lock u64 | incarnation u64 | seqnum u64 | 40B value ...
//! line k: | version u64 (low 16 bits) | 56B value ...          (k >= 1)
//! ```
//!
//! * **lock** — acquired and released *only* by RDMA CAS (the HCA
//!   atomicity discipline, §4.4/§6.2); local code merely reads it. The
//!   owning machine's id is encoded so that after a crash, survivors can
//!   recognise and release dangling locks (§5.2).
//! * **incarnation** — bumped by insert/delete; detects records that were
//!   freed (and possibly reused) between a transaction's execution and
//!   commit phases.
//! * **sequence number** — bumped on every update; drives OCC validation.
//!   Under optimistic replication (§5.1) an *odd* value marks the record
//!   committed-but-unreplicated ("uncommittable"), an *even* value fully
//!   replicated ("committable") — the seqlock-inspired trick.
//! * **per-line versions** — the low 16 bits of the sequence number,
//!   replicated at the head of every later line, let a one-sided RDMA READ
//!   detect that it observed a mix of two versions of a multi-line record
//!   (FaRM-style lock-free consistent reads).

use drtm_base::cacheline::CACHE_LINE;
use drtm_base::{MemoryRegion, VClock};
use drtm_htm::{AbortCode, HtmTxn};
use drtm_rdma::Qp;

/// Value of an unlocked record lock word.
pub const LOCK_FREE: u64 = 0;

/// Byte offset of the lock word within a record.
pub const LOCK_OFF: usize = 0;
/// Byte offset of the incarnation word within a record.
pub const INCARNATION_OFF: usize = 8;
/// Byte offset of the sequence-number word within a record.
pub const SEQ_OFF: usize = 16;
/// Bytes of the record header: lock word, incarnation and sequence
/// number, contiguous at the start of line 0.
///
/// A validation-only remote READ of this many bytes at the record base
/// observes everything C.2 needs — lock state, incarnation and current
/// sequence number — without re-fetching the value, which is what makes
/// header-only validation of cached read-mostly records cheap (one
/// partial cache line on the wire instead of [`RecordLayout::size`]).
pub const HEADER_BYTES: usize = 24;

/// Value bytes carried by the first line.
const FIRST_LINE_VALUE: usize = CACHE_LINE - 24;
/// Value bytes carried by each subsequent line (after its version slot).
const LATER_LINE_VALUE: usize = CACHE_LINE - 8;

/// Encodes a lock word naming `owner` (a machine id) as the holder.
///
/// The result is odd and non-zero, so it can never be confused with
/// [`LOCK_FREE`] or with a sequence number fragment.
#[inline]
pub fn lock_word(owner: usize) -> u64 {
    ((owner as u64 + 1) << 1) | 1
}

/// Decodes the owner machine id from a lock word, or `None` if free.
#[inline]
pub fn lock_owner(word: u64) -> Option<usize> {
    if word == LOCK_FREE {
        None
    } else {
        Some(((word >> 1) - 1) as usize)
    }
}

/// Geometry of a record holding `value_len` bytes of user value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLayout {
    /// Length of the user value in bytes.
    pub value_len: usize,
}

impl RecordLayout {
    /// Creates a layout for values of `value_len` bytes (must be > 0).
    pub fn new(value_len: usize) -> Self {
        assert!(value_len > 0, "records carry at least one value byte");
        Self { value_len }
    }

    /// Number of cache lines the record occupies.
    pub fn lines(&self) -> usize {
        self.lines_for(self.value_len)
    }

    /// Number of leading cache lines that hold the header and the first
    /// `head` value bytes (the whole record when `head >= value_len`).
    /// Line 0 always counts: it carries the lock word and the sequence
    /// number.
    pub fn lines_for(&self, head: usize) -> usize {
        let head = head.min(self.value_len);
        if head <= FIRST_LINE_VALUE {
            1
        } else {
            1 + (head - FIRST_LINE_VALUE).div_ceil(LATER_LINE_VALUE)
        }
    }

    /// Total size in bytes (whole cache lines).
    pub fn size(&self) -> usize {
        self.lines() * CACHE_LINE
    }

    /// Builds one write image per line: `(offset_in_record, bytes)`.
    ///
    /// Line 0's image starts at the sequence-number word (offset 16) so
    /// that the new sequence number and the first value chunk land in one
    /// line-atomic write; every later line's image starts at its version
    /// slot. Applying the images in *reverse* order (line 0 last) makes
    /// the update safe against concurrent version-matching readers.
    fn line_images(&self, value: &[u8], new_seq: u64) -> Vec<(usize, Vec<u8>)> {
        debug_assert_eq!(value.len(), self.value_len);
        self.chunks()
            .map(|(line, rec_off, vr)| {
                let slot = if line == 0 { new_seq } else { new_seq & 0xffff };
                let slot_off = if line == 0 {
                    SEQ_OFF
                } else {
                    line * CACHE_LINE
                };
                debug_assert_eq!(rec_off, slot_off + 8);
                let mut img = Vec::with_capacity(8 + vr.len());
                img.extend_from_slice(&slot.to_le_bytes());
                img.extend_from_slice(&value[vr]);
                (slot_off, img)
            })
            .collect()
    }

    /// Splits the value into `(line_index, offset_in_record, value_range)`
    /// chunks.
    fn chunks(&self) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> + '_ {
        let mut produced = 0usize;
        (0..self.lines()).map(move |line| {
            let (rec_off, cap) = if line == 0 {
                (24, FIRST_LINE_VALUE)
            } else {
                (line * CACHE_LINE + 8, LATER_LINE_VALUE)
            };
            let start = produced;
            let take = cap.min(self.value_len - produced);
            produced += take;
            (line, rec_off, start..start + take)
        })
    }
}

/// A record at byte offset `base` of a region, with layout `layout`.
///
/// This is a *view*: it holds no ownership and performs no caching.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    /// The region containing the record.
    pub region: &'a MemoryRegion,
    /// Byte offset of the record's first line.
    pub base: usize,
    /// Geometry.
    pub layout: RecordLayout,
}

impl<'a> RecordRef<'a> {
    /// Creates a view. `base` must be cache-line aligned.
    pub fn new(region: &'a MemoryRegion, base: usize, layout: RecordLayout) -> Self {
        debug_assert_eq!(base % CACHE_LINE, 0, "records start on a line");
        Self {
            region,
            base,
            layout,
        }
    }

    /// Absolute offset of the lock word.
    #[inline]
    pub fn lock_off(&self) -> usize {
        self.base + LOCK_OFF
    }

    /// Absolute offset of the incarnation word.
    #[inline]
    pub fn incarnation_off(&self) -> usize {
        self.base + INCARNATION_OFF
    }

    /// Absolute offset of the sequence-number word.
    #[inline]
    pub fn seq_off(&self) -> usize {
        self.base + SEQ_OFF
    }

    /// Plain (coherence-level) read of the lock word.
    #[inline]
    pub fn lock(&self) -> u64 {
        self.region.load64(self.lock_off())
    }

    /// Plain read of the sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.region.load64(self.seq_off())
    }

    /// Plain read of the incarnation.
    #[inline]
    pub fn incarnation(&self) -> u64 {
        self.region.load64(self.incarnation_off())
    }

    /// Initialises the record in place (loading phase; no concurrency).
    ///
    /// Each line is assembled on the stack and written whole: header
    /// or version slot, value bytes, and zeros after the value's end,
    /// so a reused block keeps none of its previous contents.
    pub fn init(&self, value: &[u8], seq: u64, incarnation: u64) {
        assert_eq!(value.len(), self.layout.value_len);
        for (line, rec_off, vr) in self.layout.chunks() {
            let mut img = [0u8; CACHE_LINE];
            if line == 0 {
                img[LOCK_OFF..LOCK_OFF + 8].copy_from_slice(&LOCK_FREE.to_le_bytes());
                img[INCARNATION_OFF..INCARNATION_OFF + 8]
                    .copy_from_slice(&incarnation.to_le_bytes());
                img[SEQ_OFF..SEQ_OFF + 8].copy_from_slice(&seq.to_le_bytes());
            } else {
                img[..8].copy_from_slice(&(seq & 0xffff).to_le_bytes());
            }
            let at = rec_off - line * CACHE_LINE;
            img[at..at + vr.len()].copy_from_slice(&value[vr]);
            self.region
                .write_bytes_raw(self.base + line * CACHE_LINE, &img);
        }
    }

    /// Reads the value without any consistency protocol (tests, recovery
    /// on a quiescent region).
    pub fn read_value_raw(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.layout.value_len);
        for (_, rec_off, vr) in self.layout.chunks() {
            let len = vr.len();
            self.region
                .read_bytes_raw(self.base + rec_off, &mut out[vr][..len]);
        }
    }

    /// Reads `(lock, incarnation, seq)` and the first `out.len()` value
    /// bytes inside an HTM transaction.
    ///
    /// This is the paper's `LOCAL_READ` (Figure 5): the HTM read set now
    /// covers the lines read — [`RecordLayout::lines_for`] `out.len()`,
    /// all of them for a whole value — so any concurrent local commit or
    /// remote RDMA write to them aborts the enclosing transaction. Every
    /// update rewrites line 0, so the header alone already conflicts
    /// with every writer. The *caller* decides what to do when
    /// `lock != 0` (read-write transactions abort; see §4.3). The lines
    /// are read in one transactional read.
    pub fn read_htm(
        &self,
        txn: &mut HtmTxn<'_>,
        out: &mut [u8],
    ) -> Result<(u64, u64, u64), AbortCode> {
        assert!(out.len() <= self.layout.value_len, "a prefix of the value");
        let lines = self.layout.lines_for(out.len());
        let mut img = vec![0u8; lines * CACHE_LINE];
        txn.read_bytes(self.base, &mut img)?;
        for (_, rec_off, vr) in self.layout.chunks().take(lines) {
            let vr = vr.start..vr.end.min(out.len());
            let len = vr.len();
            out[vr].copy_from_slice(&img[rec_off..rec_off + len]);
        }
        let word = |off: usize| u64::from_le_bytes(img[off..off + 8].try_into().expect("a word"));
        Ok((word(LOCK_OFF), word(INCARNATION_OFF), word(SEQ_OFF)))
    }

    /// Buffers a full value + per-line versions + sequence-number update
    /// into an HTM transaction (the paper's C.4: update of local
    /// write-set records inside HTM). It buffers the same line images
    /// that [`Self::write_locked`] and [`locked_write_wrs`] write.
    pub fn write_htm(
        &self,
        txn: &mut HtmTxn<'_>,
        value: &[u8],
        new_seq: u64,
    ) -> Result<(), AbortCode> {
        assert_eq!(value.len(), self.layout.value_len);
        for (off, img) in self.layout.line_images(value, new_seq) {
            txn.write_bytes(self.base + off, &img)?;
        }
        Ok(())
    }

    /// Writes value + versions + sequence number directly (coherent,
    /// line-at-a-time), for a writer that holds the record's *lock word*
    /// (fallback handler, recovery, log replay).
    ///
    /// Each line is updated by exactly one write that carries both the
    /// line's version slot and its value bytes, and line 0 (whose version
    /// slot *is* the sequence number) goes last — so a concurrent
    /// version-matching remote read can never accept a half-applied
    /// record, even for single-line records.
    pub fn write_locked(&self, value: &[u8], new_seq: u64) {
        assert_eq!(value.len(), self.layout.value_len);
        for (off, img) in self.layout.line_images(value, new_seq).into_iter().rev() {
            self.region.write_bytes_coherent(self.base + off, &img);
        }
    }

    /// Directly bumps the sequence number (the replication "makeup" step
    /// R.2, which flips a local primary from odd to even).
    pub fn set_seq(&self, new_seq: u64) {
        self.region.store64_coherent(self.seq_off(), new_seq);
    }
}

/// The header words of a record as observed by a one-sided READ of
/// [`HEADER_BYTES`] at the record base (the C.2 and read-only
/// validation wire format).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordHeader {
    /// Lock word as observed (read-only validation rejects a locked
    /// record; read-write validation ignores the lock — the validator
    /// itself holds it).
    pub lock: u64,
    /// Incarnation as observed.
    pub incarnation: u64,
    /// Current sequence number.
    pub seq: u64,
}

impl RecordHeader {
    /// Decodes a header from the first [`HEADER_BYTES`] bytes of a
    /// record image.
    ///
    /// # Panics
    ///
    /// Panics if `img` is shorter than [`HEADER_BYTES`].
    pub fn parse(img: &[u8]) -> Self {
        assert!(img.len() >= HEADER_BYTES, "header image too short");
        Self {
            lock: u64::from_le_bytes(img[LOCK_OFF..LOCK_OFF + 8].try_into().unwrap()),
            incarnation: u64::from_le_bytes(
                img[INCARNATION_OFF..INCARNATION_OFF + 8]
                    .try_into()
                    .unwrap(),
            ),
            seq: u64::from_le_bytes(img[SEQ_OFF..SEQ_OFF + 8].try_into().unwrap()),
        }
    }
}

/// Result of a consistent remote read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRecord {
    /// Lock word as observed (callers decide whether a locked record is
    /// acceptable; read-only transactions reject it, §4.5).
    pub lock: u64,
    /// Incarnation as observed.
    pub incarnation: u64,
    /// Sequence number the value is consistent with.
    pub seq: u64,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// Whether a line version and the sequence number belong to the same
/// record generation.
///
/// The optimistic-replication "makeup" step (R.2) bumps a record's
/// sequence number from odd (uncommittable) to even (committable)
/// *without rewriting the value lines*, so after R.2 the per-line
/// versions still carry the odd value while the header is even. Both
/// values round to the same even successor, and distinct generations
/// are always two apart, so comparing `(x + 1) & !1` in the 16-bit
/// version domain matches exactly the snapshots that are value-consistent.
#[inline]
fn same_generation(line_version: u64, seq: u64) -> bool {
    ((line_version & 0xffff) + 1) & 0xfffe == ((seq & 0xffff) + 1) & 0xfffe
}

/// Reads a record over RDMA with FaRM-style version matching (§4.3).
///
/// Issues one-sided READs of the whole record and accepts the result once
/// every later line's 16-bit version matches the sequence number's
/// generation (see `same_generation`); retries up to `max_retries`
/// times otherwise (the record was mid-update). Returns `None` if no
/// consistent snapshot was obtained.
///
/// Note this deliberately does **not** reject locked records — a record
/// is read-locked by a committing remote transaction even when only read
/// (§4.4 C.1), and rejecting it would be a spurious failure; the OCC
/// validation at commit provides correctness.
pub fn remote_read_consistent(
    qp: &Qp,
    clock: &mut VClock,
    base: usize,
    layout: RecordLayout,
    max_retries: usize,
) -> Option<RemoteRecord> {
    let mut img = vec![0u8; layout.size()];
    for _ in 0..=max_retries {
        qp.read(clock, base, &mut img);
        if let Some(rr) = parse_consistent(&img, layout) {
            return Some(rr);
        }
    }
    None
}

/// Decodes one full-record READ image into a [`RemoteRecord`], applying
/// the same FaRM-style version matching as [`remote_read_consistent`].
/// Returns `None` when the snapshot is torn (the record was mid-update
/// when the DMA engine walked it) — the caller re-issues the READ.
///
/// This is the parsing half of [`remote_read_consistent`], split out so
/// routine schedulers can issue the READ through the posted work-queue
/// path (post → shared doorbell flush → completion) and decode the
/// returned bytes without a blocking verb wrapper.
pub fn parse_consistent(img: &[u8], layout: RecordLayout) -> Option<RemoteRecord> {
    debug_assert_eq!(img.len(), layout.size());
    let seq = u64::from_le_bytes(img[SEQ_OFF..SEQ_OFF + 8].try_into().unwrap());
    let consistent = (1..layout.lines()).all(|line| {
        let off = line * CACHE_LINE;
        let v = u64::from_le_bytes(img[off..off + 8].try_into().unwrap());
        same_generation(v, seq)
    });
    if !consistent {
        return None;
    }
    let mut value = vec![0u8; layout.value_len];
    for (_, rec_off, vr) in layout.chunks() {
        let len = vr.len();
        value[vr].copy_from_slice(&img[rec_off..rec_off + len]);
    }
    Some(RemoteRecord {
        lock: u64::from_le_bytes(img[LOCK_OFF..LOCK_OFF + 8].try_into().unwrap()),
        incarnation: u64::from_le_bytes(
            img[INCARNATION_OFF..INCARNATION_OFF + 8]
                .try_into()
                .unwrap(),
        ),
        seq,
        value,
    })
}

/// The per-line WRITE descriptors of a locked record update (C.5's wire
/// format), as `(absolute offset, line image)` pairs in issue order:
/// later lines first and line 0 — which carries the sequence number —
/// last, so version matching never accepts a torn record.
///
/// Committers post these as `WorkRequest::Write`s and ring one doorbell
/// per destination; the lock and incarnation words are not touched.
pub fn locked_write_wrs(
    base: usize,
    layout: RecordLayout,
    value: &[u8],
    new_seq: u64,
) -> Vec<(usize, Vec<u8>)> {
    assert_eq!(value.len(), layout.value_len);
    layout
        .line_images(value, new_seq)
        .into_iter()
        .rev()
        .map(|(off, img)| (base + off, img))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_base::SplitMix64;
    use drtm_htm::HtmConfig;
    use drtm_rdma::{Cq, Fabric, WorkRequest, WrResult};
    use std::sync::Arc;

    #[test]
    fn lock_word_roundtrip() {
        assert_eq!(lock_owner(LOCK_FREE), None);
        for owner in [0usize, 1, 5, 1000] {
            let w = lock_word(owner);
            assert_ne!(w, LOCK_FREE);
            assert_eq!(w & 1, 1, "lock words are odd");
            assert_eq!(lock_owner(w), Some(owner));
        }
    }

    #[test]
    fn layout_geometry() {
        assert_eq!(RecordLayout::new(1).lines(), 1);
        assert_eq!(RecordLayout::new(40).lines(), 1);
        assert_eq!(RecordLayout::new(41).lines(), 2);
        assert_eq!(RecordLayout::new(40 + 56).lines(), 2);
        assert_eq!(RecordLayout::new(40 + 57).lines(), 3);
        assert_eq!(RecordLayout::new(96).size(), 128);
        assert_eq!(RecordLayout::new(100).size(), 192);
        let l = RecordLayout::new(100);
        let heads = [0, 8, 40, 41, 96, 97, 100, usize::MAX];
        let lines = heads.map(|h| l.lines_for(h));
        assert_eq!(lines, [1, 1, 1, 2, 2, 3, 3, 3]);
    }

    /// A read of the value's first `head` bytes reads, and tracks in the
    /// HTM read set, only the lines [`RecordLayout::lines_for`] names,
    /// and returns exactly those bytes of the value.
    #[test]
    fn htm_read_of_a_prefix_tracks_only_its_lines() {
        let region = MemoryRegion::new(4096);
        let layout = RecordLayout::new(150);
        let rec = RecordRef::new(&region, 256, layout);
        let value: Vec<u8> = (0..150u8).collect();
        rec.init(&value, 6, 1);
        let cfg = HtmConfig::default();
        for head in [0, 1, 8, 40, 41, 96, 97, 150] {
            let mut txn = HtmTxn::begin(&region, &cfg);
            let mut got = vec![0u8; head];
            let header = rec.read_htm(&mut txn, &mut got).unwrap();
            assert_eq!(header, (LOCK_FREE, 1, 6), "head {head}");
            assert_eq!(got, value[..head], "head {head}");
            assert_eq!(txn.read_lines(), layout.lines_for(head), "head {head}");
        }
    }

    #[test]
    fn chunks_cover_value_exactly() {
        for len in [1usize, 40, 41, 96, 97, 200, 1000] {
            let l = RecordLayout::new(len);
            let mut covered = 0;
            for (_, _, vr) in l.chunks() {
                assert_eq!(vr.start, covered);
                covered = vr.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn init_and_raw_roundtrip() {
        let region = MemoryRegion::new(4096);
        let layout = RecordLayout::new(150);
        let rec = RecordRef::new(&region, 256, layout);
        let value: Vec<u8> = (0..150u8).collect();
        rec.init(&value, 10, 3);
        assert_eq!(rec.lock(), LOCK_FREE);
        assert_eq!(rec.seq(), 10);
        assert_eq!(rec.incarnation(), 3);
        let mut out = vec![0u8; 150];
        rec.read_value_raw(&mut out);
        assert_eq!(out, value);
    }

    /// A reused block comes out of `init` byte for byte as a fresh one
    /// does: the lines' padding past the value is zeroed too.
    #[test]
    fn init_over_a_dirty_block_matches_a_fresh_one() {
        for len in [1usize, 40, 41, 100, 150] {
            let layout = RecordLayout::new(len);
            let value: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            let (fresh, dirty) = (MemoryRegion::new(1024), MemoryRegion::new(1024));
            dirty.write_bytes_raw(0, &[0xee; 1024]);
            for region in [&fresh, &dirty] {
                RecordRef::new(region, 128, layout).init(&value, 4, 2);
            }
            let (mut a, mut b) = (vec![0u8; layout.size()], vec![0u8; layout.size()]);
            fresh.read_bytes_raw(128, &mut a);
            dirty.read_bytes_raw(128, &mut b);
            assert_eq!(a, b, "value_len {len}");
        }
    }

    #[test]
    fn htm_read_write_roundtrip() {
        let region = MemoryRegion::new(4096);
        let layout = RecordLayout::new(100);
        let rec = RecordRef::new(&region, 0, layout);
        rec.init(&[7u8; 100], 2, 0);
        let cfg = HtmConfig::default();

        let mut txn = HtmTxn::begin(&region, &cfg);
        let mut val = vec![0u8; 100];
        let (lock, inc, seq) = rec.read_htm(&mut txn, &mut val).unwrap();
        assert_eq!((lock, inc, seq), (LOCK_FREE, 0, 2));
        assert_eq!(val, vec![7u8; 100]);
        rec.write_htm(&mut txn, &[9u8; 100], 4).unwrap();
        txn.commit().unwrap();

        assert_eq!(rec.seq(), 4);
        let mut out = vec![0u8; 100];
        rec.read_value_raw(&mut out);
        assert_eq!(out, vec![9u8; 100]);
        // Per-line version updated too.
        assert_eq!(region.load64(64) & 0xffff, 4);
    }

    /// C.4 and the fallback write one description of an update: twin
    /// records of 1 to 5 lines, one updated by a committed HTM write and
    /// the other by `write_locked`, hold the same bytes, and an HTM read
    /// returns the new value and sequence number.
    #[test]
    fn write_htm_and_write_locked_leave_the_same_bytes() {
        let mut rng = SplitMix64::new(0x5eed_0006);
        let cfg = HtmConfig::default();
        let bytes = |rng: &mut SplitMix64, n| (0..n).map(|_| rng.next_u64() as u8).collect();
        for case in 0..500 {
            let layout = RecordLayout::new(rng.range(1, 264) as usize);
            let [a, b] = [MemoryRegion::new(512), MemoryRegion::new(512)];
            let [ra, rb] = [&a, &b].map(|r| RecordRef::new(r, 64, layout));
            let old: Vec<u8> = bytes(&mut rng, layout.value_len);
            let (seq, inc) = (rng.next_u64() >> 1, rng.below(8));
            ra.init(&old, seq, inc);
            rb.init(&old, seq, inc);
            let new: Vec<u8> = bytes(&mut rng, layout.value_len);
            let new_seq = seq + 1 + rng.below(4);

            let mut txn = HtmTxn::begin(&a, &cfg);
            ra.write_htm(&mut txn, &new, new_seq).unwrap();
            assert_eq!(txn.write_lines(), layout.lines(), "case {case}");
            txn.commit().unwrap();
            rb.write_locked(&new, new_seq);

            let (mut x, mut y) = (vec![0u8; 512], vec![0u8; 512]);
            a.read_bytes_raw(0, &mut x);
            b.read_bytes_raw(0, &mut y);
            assert_eq!(x, y, "case {case}: {} lines", layout.lines());
            let mut txn = HtmTxn::begin(&a, &cfg);
            let mut got = vec![0u8; layout.value_len];
            let header = ra.read_htm(&mut txn, &mut got).unwrap();
            assert_eq!(header, (LOCK_FREE, inc, new_seq), "case {case}");
            assert_eq!(got, new, "case {case}");
        }
    }

    fn two_node_fabric() -> Arc<Fabric> {
        let regions = (0..2).map(|_| Arc::new(MemoryRegion::new(8192))).collect();
        Fabric::builder().regions(regions).build()
    }

    #[test]
    fn remote_consistent_read_quiescent() {
        let f = two_node_fabric();
        let layout = RecordLayout::new(180);
        let rec = RecordRef::new(f.port(1).region(), 512, layout);
        let value: Vec<u8> = (0..180).map(|i| (i * 3 % 256) as u8).collect();
        rec.init(&value, 6, 1);

        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let got = remote_read_consistent(&qp, &mut clock, 512, layout, 3).unwrap();
        assert_eq!(got.seq, 6);
        assert_eq!(got.incarnation, 1);
        assert_eq!(got.value, value);
    }

    #[test]
    fn remote_read_rejects_torn_record() {
        let f = two_node_fabric();
        let layout = RecordLayout::new(180);
        let region = f.port(1).region();
        let rec = RecordRef::new(region, 512, layout);
        rec.init(&[1u8; 180], 6, 0);
        // Hand-craft a torn state: bump one later line's version without
        // updating the seqnum (as if an update is mid-flight).
        region.store64_coherent(512 + 64, 8);

        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        assert!(remote_read_consistent(&qp, &mut clock, 512, layout, 2).is_none());
    }

    #[test]
    fn same_generation_accepts_makeup_parity_only() {
        // Same generation: version written odd, sequence made even (+1).
        assert!(same_generation(5, 5));
        assert!(same_generation(5, 6));
        // Different generations are two apart after rounding.
        assert!(!same_generation(5, 7));
        assert!(!same_generation(5, 4));
        assert!(!same_generation(4, 6));
        // 16-bit wraparound.
        assert!(same_generation(0xffff, 0x1_0000));
    }

    #[test]
    fn multi_line_record_readable_after_replication_makeup() {
        // Regression: C.4 writes a multi-line record with an odd sequence
        // number; R.2 flips only the header to even. The per-line
        // versions still carry the odd value — version matching must
        // accept the (value-identical) snapshot.
        let f = two_node_fabric();
        let layout = RecordLayout::new(64); // Two lines.
        let rec = RecordRef::new(f.port(1).region(), 512, layout);
        rec.init(&[1u8; 64], 2, 0);
        rec.write_locked(&[9u8; 64], 3); // C.4: odd.
        rec.set_seq(4); // R.2: even, value lines untouched.

        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let got = remote_read_consistent(&qp, &mut clock, 512, layout, 0)
            .expect("made-up record must be readable");
        assert_eq!(got.seq, 4);
        assert_eq!(got.value, vec![9u8; 64]);
    }

    #[test]
    fn header_read_observes_lock_incarnation_seq_in_one_line() {
        let f = two_node_fabric();
        let layout = RecordLayout::new(180);
        let region = f.port(1).region();
        let rec = RecordRef::new(region, 512, layout);
        rec.init(&[3u8; 180], 6, 2);
        region.store64_coherent(512 + LOCK_OFF, lock_word(1));

        // C.2's validation READ: the three header words live on one
        // cache line, so the READ is single-line atomic and needs no
        // version matching.
        let qp = f.qp(0, 1);
        let (cq, mut clock) = (Cq::new(), VClock::new());
        let before = f.port(1).stats().snapshot();
        qp.post(WorkRequest::Read {
            raddr: 512,
            len: HEADER_BYTES,
        });
        qp.doorbell(&mut clock, &cq);
        let Ok(WrResult::Read { data, versions }) = cq.poll(&mut clock).remove(0).result else {
            panic!("the READ lands");
        };
        assert_eq!(versions.len(), 1, "one line");
        let h = RecordHeader::parse(&data);
        assert_eq!(h.lock, lock_word(1));
        assert_eq!(h.incarnation, 2);
        assert_eq!(h.seq, 6);
        // The wire carries only the header, not the record.
        let d = f.port(1).stats().delta(&before);
        assert_eq!(d.reads, 1);
        assert_eq!(d.bytes, HEADER_BYTES as u64);
        assert!(HEADER_BYTES < layout.size());
    }

    #[test]
    fn remote_write_then_read() {
        let f = two_node_fabric();
        let layout = RecordLayout::new(120);
        let rec = RecordRef::new(f.port(1).region(), 1024, layout);
        rec.init(&[0u8; 120], 2, 0);

        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let newval: Vec<u8> = (0..120).map(|i| i as u8).collect();
        for (raddr, img) in locked_write_wrs(1024, layout, &newval, 4) {
            qp.write(&mut clock, raddr, &img);
        }
        let got = remote_read_consistent(&qp, &mut clock, 1024, layout, 3).unwrap();
        assert_eq!(got.seq, 4);
        assert_eq!(got.value, newval);
    }

    /// Concurrency: a writer repeatedly updates a 3-line record under its
    /// lock; a remote reader using version matching must never observe a
    /// mixed-generation value.
    #[test]
    fn version_matching_never_accepts_mixed_generations() {
        let f = two_node_fabric();
        let layout = RecordLayout::new(150);
        let region = Arc::clone(f.port(1).region());
        let rec_base = 2048;
        RecordRef::new(&region, rec_base, layout).init(&[0u8; 150], 0, 0);

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let rec = RecordRef::new(&region, rec_base, layout);
                let mut seq = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    seq += 2;
                    rec.write_locked(&[(seq % 251) as u8; 150], seq);
                    // Let the reader run between (not within) updates now
                    // and then; on a single-core host the reader otherwise
                    // only ever observes mid-write windows.
                    std::thread::yield_now();
                }
            })
        };

        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let mut accepted = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while accepted < 20 && std::time::Instant::now() < deadline {
            if let Some(r) = remote_read_consistent(&qp, &mut clock, rec_base, layout, 3) {
                assert!(
                    r.value.iter().all(|&b| b == (r.seq % 251) as u8),
                    "mixed-generation value escaped version matching (seq {})",
                    r.seq
                );
                accepted += 1;
            }
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        assert!(accepted > 0, "some reads must succeed");
    }
}
