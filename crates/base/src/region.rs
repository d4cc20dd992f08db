//! A shared memory segment with per-cache-line version words.
//!
//! [`MemoryRegion`] is the single source of truth that both simulated
//! hardware layers operate on. It reproduces the two coherence properties
//! the DrTM+R protocol depends on:
//!
//! 1. **Per-line atomicity.** Writes (local transactional commits, one-sided
//!    RDMA WRITEs, RDMA CAS) take a per-line seqlock, so a concurrent reader
//!    either sees the whole line before or after the write — never a torn
//!    line. Accesses spanning multiple lines are *not* atomic as a unit,
//!    exactly like real RDMA (see Figure 4 of the paper).
//! 2. **Coherence between RDMA and HTM.** Every write bumps the line's
//!    version word. The software HTM validates its read set against these
//!    version words at commit, so an RDMA write to a line that a local HTM
//!    transaction has read aborts that transaction — the software analogue
//!    of "an RDMA operation is cache coherent and unconditionally aborts a
//!    conflicting HTM transaction".
//!
//! Data is stored as a slice of `AtomicU64` words so racing access is
//! well-defined; all bulk copies use relaxed per-word operations ordered
//! by the acquire/release seqlock protocol on the version words.
//!
//! **Memory.** A region costs memory only where records live. Its words
//! and line versions are `Pages`: on Linux (x86-64 and AArch64) a
//! private anonymous mapping, whose pages the kernel supplies zeroed on
//! first touch and which is unmapped on drop; elsewhere a zeroed `Box`. `calloc` is not
//! enough: once a cluster is dropped, the allocator serves the next
//! one's regions from the freed heap (its mmap threshold rises past a
//! freed region, and freed backup images leave large free chunks), and
//! `calloc` must then write zeros over every page of the request, so a
//! second cluster in one process costs the whole of its regions however
//! few records it holds. The words sit on 2 MiB pages where the kernel
//! allows them: their mapping is advised `MADV_HUGEPAGE`, so a load
//! takes one page fault per 2 MiB it touches instead of 512, and random
//! record accesses miss the TLB less. Their resident memory is rounded
//! up to whole 2 MiB extents, one per extent touched. The line versions
//! are touched sparsely and stay on 4 KiB pages.
//!
//! The same mappings, viewed as bytes, are [`ZeroedBytes`], always
//! advised for 2 MiB pages: the slab chunks of the backup images
//! (`drtm_core::replication`), which a load fills one slot after the
//! next. The private `Mapping` under both views holds this module's
//! only `unsafe` code: the `mmap` that makes the mapping, the `madvise`
//! that hints it, the slices over it and the `munmap` that ends it.
//! Outside `drtm-base`, only tests hold `unsafe` code (CI checks it).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cacheline::{line_range, round_up_line, CACHE_LINE};

use pages::Pages;
pub use pages::ZeroedBytes;

const WORD: usize = 8;

/// A word-atomic shared memory segment with per-cache-line seqlock versions.
///
/// All offsets are byte offsets from the start of the region. Methods with
/// `_coherent` in the name participate in the per-line seqlock protocol and
/// are safe to race with each other; the `_raw` variants skip versioning and
/// are intended for single-threaded initialisation (e.g. workload loading).
///
/// # Examples
///
/// ```
/// use drtm_base::MemoryRegion;
///
/// let r = MemoryRegion::new(256);
/// r.write_bytes_coherent(0, b"hello");
/// let mut buf = [0u8; 5];
/// r.read_bytes_coherent(0, &mut buf);
/// assert_eq!(&buf, b"hello");
/// // Coherent writes bump the line version (HTM conflict detection).
/// assert_eq!(r.line_version(0), 2);
/// ```
pub struct MemoryRegion {
    /// Backing storage, one atomic word per 8 bytes.
    words: Pages,
    /// One seqlock word per cache line: odd while a writer holds the line,
    /// even (and monotonically increasing) otherwise.
    line_ver: Pages,
    /// Line writes begun so far, over the whole region (see
    /// [`Self::line_writes`]).
    writes: OwnLine,
    size: usize,
}

/// A counter on a cache line of its own: the writers that bump it do not
/// evict the region's read-mostly fields from every reader's cache.
#[repr(align(64))]
struct OwnLine(AtomicU64);

// Every machine's region is shared by the fabric and the workers
// (`Arc<MemoryRegion>`), whatever backs it.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<MemoryRegion>();
};

/// The extent a transparent huge page covers.
const HUGE_PAGE: usize = 2 << 20;

impl ZeroedBytes {
    /// The most memory that writing the first `touched` bytes makes
    /// resident: whole 2 MiB extents where the mapping spans one,
    /// whole 4 KiB pages elsewhere, and never more than the mapping.
    pub fn resident(&self, touched: usize) -> usize {
        let page = if self.len() >= HUGE_PAGE {
            HUGE_PAGE
        } else {
            4 << 10
        };
        touched.min(self.len()).next_multiple_of(page)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod pages {
    //! Zeroed memory in private anonymous mappings, over a minimal FFI
    //! onto libc's `mmap(2)` / `madvise(2)` / `munmap(2)` (the flag and
    //! advice values are Linux's on x86-64 and AArch64).

    use std::sync::atomic::AtomicU64;

    use super::HUGE_PAGE;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    /// `MAP_FAILED`, `(void *) -1`.
    const MAP_FAILED: usize = usize::MAX;
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn mmap(addr: usize, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> usize;
        fn madvise(addr: usize, len: usize, advice: i32) -> i32;
        fn munmap(addr: usize, len: usize) -> i32;
    }

    /// Zeroed bytes that cost memory only where they are written: the
    /// kernel supplies each page zeroed on first touch, and the mapping
    /// is unmapped on drop.
    struct Mapping {
        /// Address of the mapping (an integer, so the owners below are
        /// `Send + Sync` as the memory they view is).
        addr: usize,
        /// Bytes mapped.
        len: usize,
    }

    impl Mapping {
        /// Maps `len` (at least one) zeroed bytes. With `huge_pages` the
        /// mapping is advised for transparent huge pages, so the kernel
        /// may back each touched 2 MiB extent with one page (one fault,
        /// one TLB entry) instead of 512.
        fn zeroed(len: usize, huge_pages: bool) -> Self {
            assert!(len > 0, "a mapping holds at least one byte");
            let (prot, flags) = (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS);
            // SAFETY: a fresh anonymous mapping aliases nothing.
            let addr = unsafe { mmap(0, len, prot, flags, -1, 0) };
            if addr == MAP_FAILED {
                let layout = std::alloc::Layout::array::<u8>(len).expect("mapping size");
                std::alloc::handle_alloc_error(layout);
            }
            if huge_pages {
                // A hint: where the kernel refuses it (THP `never`, or
                // no THP at all) the mapping stays on base pages.
                // SAFETY: advice on this value's own fresh mapping.
                unsafe { madvise(addr, len, MADV_HUGEPAGE) };
            }
            Self { addr, len }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: the mapping is this value's own, and no borrow of
            // it outlives `&mut self` of its owner.
            unsafe { munmap(self.addr, self.len) };
        }
    }

    /// Zeroed words in a mapping of their own.
    pub(super) struct Pages(Mapping);

    impl Pages {
        /// Maps `words` (at least one) zeroed words, advised for huge
        /// pages with `huge_pages`.
        pub(super) fn zeroed(words: usize, huge_pages: bool) -> Self {
            Self(Mapping::zeroed(words * size_of::<AtomicU64>(), huge_pages))
        }
    }

    impl std::ops::Deref for Pages {
        type Target = [AtomicU64];

        #[inline]
        fn deref(&self) -> &[AtomicU64] {
            let words = self.0.len / size_of::<AtomicU64>();
            // SAFETY: `addr` is a live, page-aligned, readable and
            // writable mapping of `words` words until `drop`; its pages
            // start zeroed, and zero is a valid `AtomicU64`.
            unsafe { std::slice::from_raw_parts(self.0.addr as *const AtomicU64, words) }
        }
    }

    /// Zeroed bytes in a mapping of their own, advised for 2 MiB pages
    /// (see [`super::MemoryRegion`]'s module doc). A request of 2 MiB
    /// or more maps whole 2 MiB extents, which the kernel aligns, so
    /// every touched extent can be one huge page; the slice is the
    /// length asked for.
    pub struct ZeroedBytes {
        map: Mapping,
        len: usize,
    }

    impl ZeroedBytes {
        /// Maps `len` (at least one) zeroed bytes.
        pub fn new(len: usize) -> Self {
            let mapped = if len >= HUGE_PAGE {
                len.next_multiple_of(HUGE_PAGE)
            } else {
                len
            };
            Self {
                map: Mapping::zeroed(mapped, true),
                len,
            }
        }
    }

    impl std::ops::Deref for ZeroedBytes {
        type Target = [u8];

        #[inline]
        fn deref(&self) -> &[u8] {
            // SAFETY: a live, readable mapping of at least `len` bytes
            // until `drop`, written only through `&mut self`.
            unsafe { std::slice::from_raw_parts(self.map.addr as *const u8, self.len) }
        }
    }

    impl std::ops::DerefMut for ZeroedBytes {
        #[inline]
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as for `deref`, and `&mut self` makes this the
            // mapping's only borrow.
            unsafe { std::slice::from_raw_parts_mut(self.map.addr as *mut u8, self.len) }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod pages {
    //! Zeroed memory in zeroed `Box`es (no mapping is made here).

    use std::sync::atomic::AtomicU64;

    pub(super) struct Pages(Box<[AtomicU64]>);

    impl Pages {
        pub(super) fn zeroed(words: usize, _huge_pages: bool) -> Self {
            Self((0..words).map(|_| AtomicU64::new(0)).collect())
        }
    }

    impl std::ops::Deref for Pages {
        type Target = [AtomicU64];

        #[inline]
        fn deref(&self) -> &[AtomicU64] {
            &self.0
        }
    }

    /// Zeroed bytes in a zeroed `Box`.
    pub struct ZeroedBytes(Box<[u8]>);

    impl ZeroedBytes {
        /// Allocates `len` (at least one) zeroed bytes.
        pub fn new(len: usize) -> Self {
            assert!(len > 0, "a mapping holds at least one byte");
            Self(vec![0; len].into_boxed_slice())
        }
    }

    impl std::ops::Deref for ZeroedBytes {
        type Target = [u8];

        #[inline]
        fn deref(&self) -> &[u8] {
            &self.0
        }
    }

    impl std::ops::DerefMut for ZeroedBytes {
        #[inline]
        fn deref_mut(&mut self) -> &mut [u8] {
            &mut self.0
        }
    }
}

impl MemoryRegion {
    /// Creates a zeroed region of at least `size` bytes (rounded up to a
    /// whole number of cache lines).
    pub fn new(size: usize) -> Self {
        let size = round_up_line(size.max(CACHE_LINE));
        Self {
            words: Pages::zeroed(size / WORD, true),
            line_ver: Pages::zeroed(size / CACHE_LINE, false),
            writes: OwnLine(AtomicU64::new(0)),
            size,
        }
    }

    /// Total size of the region in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of cache lines in the region.
    #[inline]
    pub fn lines(&self) -> usize {
        self.line_ver.len()
    }

    /// Returns the current version word of cache line `line`.
    ///
    /// An odd value means a writer currently holds the line.
    #[inline]
    pub fn line_version(&self, line: usize) -> u64 {
        self.line_ver[line].load(Ordering::Acquire)
    }

    /// Spins until cache line `line` is unlocked and returns its (even)
    /// version.
    ///
    /// Yields to the OS scheduler periodically: on an oversubscribed (or
    /// single-core) host, the writer holding the line may be descheduled
    /// and pure spinning would burn whole timeslices.
    #[inline]
    pub fn line_version_stable(&self, line: usize) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.line_version(line);
            if v & 1 == 0 {
                return v;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Acquires the seqlock of `line` to write it, returning the
    /// pre-lock version; the write is counted ([`Self::line_writes`]).
    #[inline]
    fn lock_line(&self, line: usize) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.line_ver[line].load(Ordering::Relaxed);
            if v & 1 == 0
                && self.line_ver[line]
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                self.count_write();
                return v;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// How many line writes have begun in this region: a writer counts
    /// once it holds a line's seqlock, before it stores the line's new
    /// version (a write that then changes nothing — a failed CAS, an
    /// HTM commit that rolls back — has counted too). So a reader that
    /// observes a new version observes its count, and a reader that
    /// finds the count where it was knows no line it validated since has
    /// changed — the HTM's cheap opacity check.
    #[inline]
    pub fn line_writes(&self) -> u64 {
        self.writes.0.load(Ordering::SeqCst)
    }

    /// Counts a write whose seqlock was just taken. It follows the lock's
    /// atomic, so it finds the store buffer already drained and stalls on
    /// none of the writer's data stores.
    #[inline]
    fn count_write(&self) {
        self.writes.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Releases the seqlock of `line`, publishing a new even version.
    #[inline]
    fn unlock_line(&self, line: usize, pre: u64) {
        self.line_ver[line].store(pre + 2, Ordering::Release);
    }

    /// Loads the 8-byte word at byte offset `off` (must be 8-aligned).
    ///
    /// This models a single-word CPU load: always atomic, never torn, but
    /// not ordered with respect to other lines.
    #[inline]
    pub fn load64(&self, off: usize) -> u64 {
        debug_assert_eq!(off % WORD, 0, "unaligned 64-bit load at {off}");
        self.words[off / WORD].load(Ordering::Acquire)
    }

    /// Stores the 8-byte word at `off` coherently: the containing line's
    /// version is bumped so concurrent HTM readers of the line abort.
    pub fn store64_coherent(&self, off: usize, val: u64) {
        debug_assert_eq!(off % WORD, 0, "unaligned 64-bit store at {off}");
        let line = off / CACHE_LINE;
        let pre = self.lock_line(line);
        self.words[off / WORD].store(val, Ordering::Release);
        self.unlock_line(line, pre);
    }

    /// Stores `first` at `first_off`, then `second` at `second_off`,
    /// under one hold of their line's seqlock (one version bump): a
    /// seqlock reader sees neither or both, a plain [`Self::load64`]
    /// reader that finds `second` finds `first` too.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the two words are not on one line.
    pub fn store_two64_coherent(
        &self,
        first_off: usize,
        first: u64,
        second_off: usize,
        second: u64,
    ) {
        debug_assert_eq!(first_off % WORD, 0, "unaligned 64-bit store at {first_off}");
        debug_assert_eq!(
            second_off % WORD,
            0,
            "unaligned 64-bit store at {second_off}"
        );
        let line = first_off / CACHE_LINE;
        debug_assert_eq!(second_off / CACHE_LINE, line, "two words of one line");
        let pre = self.lock_line(line);
        self.words[first_off / WORD].store(first, Ordering::Release);
        self.words[second_off / WORD].store(second, Ordering::Release);
        self.unlock_line(line, pre);
    }

    /// Atomically compares-and-swaps the word at `off`.
    ///
    /// On success the containing line's version is bumped (a CAS is a write
    /// at the coherence level, so it must abort HTM readers of the line —
    /// this is how an RDMA CAS that locks a record aborts a local HTM
    /// transaction that has read the record's lock field). On failure the
    /// line is untouched and `Err(actual)` is returned.
    pub fn cas64(&self, off: usize, expect: u64, new: u64) -> Result<u64, u64> {
        debug_assert_eq!(off % WORD, 0, "unaligned CAS at {off}");
        let line = off / CACHE_LINE;
        let pre = self.lock_line(line);
        let res = self.words[off / WORD].compare_exchange(
            expect,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        match res {
            Ok(_) => self.unlock_line(line, pre),
            // A failed CAS wrote nothing, so the line's version must not
            // change (it would spuriously abort HTM readers).
            Err(_) => self.line_ver[line].store(pre, Ordering::Release),
        }
        res
    }

    /// Atomically fetches-and-adds `add` to the word at `off`, bumping the
    /// containing line's version. Returns the previous value.
    pub fn faa64(&self, off: usize, add: u64) -> u64 {
        debug_assert_eq!(off % WORD, 0, "unaligned FAA at {off}");
        let line = off / CACHE_LINE;
        let pre = self.lock_line(line);
        let old = self.words[off / WORD].fetch_add(add, Ordering::AcqRel);
        self.unlock_line(line, pre);
        old
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`, one cache
    /// line at a time.
    ///
    /// Each line is read under the seqlock retry protocol, so every *line*
    /// in the result is internally consistent, but lines may come from
    /// different versions — exactly the guarantee of a one-sided RDMA READ.
    /// Returns the (even) version each touched line was read at, in line
    /// order.
    pub fn read_bytes_coherent(&self, off: usize, buf: &mut [u8]) -> Vec<u64> {
        assert!(off + buf.len() <= self.size, "read past end of region");
        let mut versions = Vec::with_capacity(line_range(off, buf.len()).len());
        let mut cur = off;
        let end = off + buf.len();
        while cur < end {
            let line = cur / CACHE_LINE;
            let line_end = (line + 1) * CACHE_LINE;
            let chunk_end = end.min(line_end);
            let dst = &mut buf[cur - off..chunk_end - off];
            loop {
                let v1 = self.line_version_stable(line);
                self.copy_out(cur, dst);
                let v2 = self.line_version(line);
                if v1 == v2 {
                    versions.push(v1);
                    break;
                }
                std::hint::spin_loop();
            }
            cur = chunk_end;
        }
        versions
    }

    /// Writes `data` at `off`, one cache line at a time.
    ///
    /// Each line is written under its seqlock (bumping the version), so a
    /// concurrent per-line reader never sees a torn line, but a reader of
    /// the whole range may observe some lines updated and others not —
    /// exactly the semantics of a one-sided RDMA WRITE spanning lines.
    pub fn write_bytes_coherent(&self, off: usize, data: &[u8]) {
        assert!(off + data.len() <= self.size, "write past end of region");
        let mut cur = off;
        let end = off + data.len();
        while cur < end {
            let line = cur / CACHE_LINE;
            let line_end = (line + 1) * CACHE_LINE;
            let chunk_end = end.min(line_end);
            let pre = self.lock_line(line);
            self.copy_in(cur, &data[cur - off..chunk_end - off]);
            self.unlock_line(line, pre);
            cur = chunk_end;
        }
    }

    /// Writes `data` at `off` while already holding no line locks, without
    /// bumping versions. Only safe for single-threaded initialisation.
    pub fn write_bytes_raw(&self, off: usize, data: &[u8]) {
        assert!(off + data.len() <= self.size, "write past end of region");
        self.copy_in(off, data);
    }

    /// Stores the word at `off` (must be 8-aligned) without the seqlock
    /// protocol: no line lock, no version bump, no count. Release: a
    /// reader whose [`Self::load64`] finds the word finds every store
    /// made before it too. Only for a sole writer before any reader
    /// (a load).
    #[inline]
    pub fn store64_raw(&self, off: usize, val: u64) {
        debug_assert_eq!(off % WORD, 0, "unaligned 64-bit store at {off}");
        self.words[off / WORD].store(val, Ordering::Release);
    }

    /// Reads bytes without the seqlock protocol. Only meaningful when no
    /// concurrent writer exists (tests, post-mortem inspection).
    pub fn read_bytes_raw(&self, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= self.size, "read past end of region");
        self.copy_out(off, buf);
    }

    /// Relaxed per-word copy out of the region (no ordering of its own).
    fn copy_out(&self, off: usize, buf: &mut [u8]) {
        let mut i = 0;
        while i < buf.len() {
            let byte = off + i;
            let w = self.words[byte / WORD].load(Ordering::Relaxed);
            let in_word = byte % WORD;
            let take = (WORD - in_word).min(buf.len() - i);
            buf[i..i + take].copy_from_slice(&w.to_le_bytes()[in_word..in_word + take]);
            i += take;
        }
    }

    /// Relaxed per-word copy into the region, merging partial words.
    fn copy_in(&self, off: usize, data: &[u8]) {
        let mut i = 0;
        while i < data.len() {
            let byte = off + i;
            let in_word = byte % WORD;
            let take = (WORD - in_word).min(data.len() - i);
            let slot = &self.words[byte / WORD];
            if take == WORD {
                slot.store(
                    u64::from_le_bytes(data[i..i + 8].try_into().unwrap()),
                    Ordering::Relaxed,
                );
            } else {
                let mut bytes = slot.load(Ordering::Relaxed).to_le_bytes();
                bytes[in_word..in_word + take].copy_from_slice(&data[i..i + take]);
                slot.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            }
            i += take;
        }
    }

    /// Tries to acquire the seqlock of `line` without spinning.
    ///
    /// Returns the pre-lock version on success. The HTM commit owns its
    /// write set with it: RTM prefers aborting to blocking.
    #[inline]
    pub fn try_lock_line(&self, line: usize) -> Option<u64> {
        let v = self.line_ver[line].load(Ordering::Relaxed);
        if v & 1 != 0 {
            return None;
        }
        let locked =
            self.line_ver[line].compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed);
        locked.ok().inspect(|_| self.count_write())
    }

    /// Releases a line acquired with [`Self::try_lock_line`], bumping its
    /// version.
    #[inline]
    pub fn release_line(&self, line: usize, pre: u64) {
        self.unlock_line(line, pre);
    }

    /// Releases a line acquired with [`Self::try_lock_line`] *without*
    /// changing its version (the writer decided not to write).
    #[inline]
    pub fn release_line_clean(&self, line: usize, pre: u64) {
        self.line_ver[line].store(pre, Ordering::Release);
    }

    /// Copies bytes in while the caller already holds the line seqlocks
    /// (taken with [`Self::try_lock_line`]).
    #[inline]
    pub fn write_bytes_locked(&self, off: usize, data: &[u8]) {
        assert!(off + data.len() <= self.size, "write past end of region");
        self.copy_in(off, data);
    }
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("size", &self.size)
            .field("lines", &self.lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_raw() {
        let r = MemoryRegion::new(256);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        r.write_bytes_raw(3, &data);
        let mut out = [0u8; 9];
        r.read_bytes_raw(3, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn coherent_write_bumps_versions() {
        let r = MemoryRegion::new(256);
        assert_eq!(r.line_version(0), 0);
        r.write_bytes_coherent(0, &[0xab; 100]);
        assert_eq!(r.line_version(0), 2);
        assert_eq!(r.line_version(1), 2);
        assert_eq!(r.line_version(2), 0);
    }

    #[test]
    fn store64_and_load64() {
        let r = MemoryRegion::new(128);
        r.store64_coherent(8, 0xdead_beef);
        assert_eq!(r.load64(8), 0xdead_beef);
        assert_eq!(r.line_version(0), 2);
    }

    #[test]
    fn two_stores_under_one_hold_bump_the_version_once() {
        let r = MemoryRegion::new(128);
        r.store_two64_coherent(72, 5, 64, 9);
        assert_eq!((r.load64(64), r.load64(72)), (9, 5));
        assert_eq!(r.line_version(1), 2);
        assert_eq!(r.line_writes(), 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let r = MemoryRegion::new(128);
        r.store64_coherent(0, 5);
        let v0 = r.line_version(0);
        assert_eq!(r.cas64(0, 5, 9), Ok(5));
        assert_eq!(r.load64(0), 9);
        assert!(
            r.line_version(0) > v0,
            "successful CAS bumps the line version"
        );
        let v1 = r.line_version(0);
        assert_eq!(r.cas64(0, 5, 11), Err(9));
        assert_eq!(r.load64(0), 9);
        assert_eq!(r.line_version(0), v1, "failed CAS leaves the version alone");
    }

    #[test]
    fn faa_returns_previous() {
        let r = MemoryRegion::new(128);
        r.store64_coherent(16, 10);
        assert_eq!(r.faa64(16, 5), 10);
        assert_eq!(r.load64(16), 15);
    }

    #[test]
    fn read_returns_line_versions() {
        let r = MemoryRegion::new(256);
        r.write_bytes_coherent(0, &[1; 64]);
        r.write_bytes_coherent(64, &[2; 64]);
        r.write_bytes_coherent(64, &[3; 64]);
        let mut buf = [0u8; 128];
        let vers = r.read_bytes_coherent(0, &mut buf);
        assert_eq!(vers, vec![2, 4]);
        assert_eq!(buf[0], 1);
        assert_eq!(buf[64], 3);
    }

    #[test]
    fn try_lock_line_conflicts() {
        let r = MemoryRegion::new(64);
        let pre = r.try_lock_line(0).expect("free line locks");
        assert!(r.try_lock_line(0).is_none(), "locked line refuses");
        r.release_line(0, pre);
        assert_eq!(r.line_version(0), pre + 2);
        let pre2 = r.try_lock_line(0).unwrap();
        r.release_line_clean(0, pre2);
        assert_eq!(r.line_version(0), pre + 2);
    }

    #[test]
    fn line_writes_count_every_line_lock_taken() {
        let r = MemoryRegion::new(256);
        r.write_bytes_coherent(0, &[1; 100]); // two lines
        r.store64_coherent(128, 5);
        assert_eq!(r.line_writes(), 3);
        assert!(r.cas64(128, 9, 1).is_err());
        assert_eq!(r.line_writes(), 4, "counted before the compare");
        let pre = r.try_lock_line(3).unwrap();
        assert!(
            r.try_lock_line(3).is_none(),
            "a refused lock counts nothing"
        );
        r.release_line_clean(3, pre);
        assert_eq!(r.line_writes(), 5);
    }

    /// A region reads zero on every word and every line version, even
    /// when it takes memory that a larger, fully written region and heap
    /// churn gave back just before.
    #[test]
    fn a_region_after_a_dropped_one_reads_zero() {
        let big = MemoryRegion::new(4 << 20);
        big.write_bytes_coherent(0, &vec![0xa5; big.size()]);
        assert!((0..big.lines()).all(|l| big.line_version(l) == 2));
        drop(big);
        let churn: Vec<Vec<u8>> = (0..64).map(|i| vec![0x5a; 4096 << (i % 8)]).collect();
        drop(churn);
        let r = MemoryRegion::new(2 << 20);
        let mut buf = vec![0xff; r.size()];
        r.read_bytes_raw(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "a word reads nonzero");
        assert!((0..r.lines()).all(|l| r.line_version(l) == 0));
    }

    /// Zeroed bytes read zero, keep what is written, and bound their
    /// resident memory by the pages the written prefix touches.
    #[test]
    fn zeroed_bytes_start_zero_and_bound_their_pages() {
        for len in [2, 5000, 3 << 20] {
            let mut b = ZeroedBytes::new(len);
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&x| x == 0));
            b[len - 1] = 7;
            b[0] = 9;
            assert_eq!((b[0], b[len - 1]), (9, 7));
        }
        let small = ZeroedBytes::new(5000);
        assert_eq!([small.resident(0), small.resident(1)], [0, 4096]);
        assert_eq!(small.resident(5000), 8192);
        let big = ZeroedBytes::new(3 << 20);
        assert_eq!(big.resident(1), 2 << 20);
        assert_eq!(
            big.resident(3 << 20),
            4 << 20,
            "the mapping's whole last extent"
        );
    }

    /// Torn-line check: two threads hammer a single line with full-line
    /// writes of a repeated byte; readers must only ever observe a uniform
    /// line.
    #[test]
    fn seqlock_prevents_torn_lines() {
        let r = Arc::new(MemoryRegion::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for pat in [0x11u8, 0x22u8] {
            let r = r.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    r.write_bytes_coherent(0, &[pat; 64]);
                }
            }));
        }
        let mut buf = [0u8; 64];
        for _ in 0..2000 {
            r.read_bytes_coherent(0, &mut buf);
            assert!(
                buf.iter().all(|&b| b == buf[0]),
                "torn line observed: {:?}",
                &buf[..8]
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The words' mapping carries the huge-page advice: the kernel
    /// reports the mapping that holds a fresh region's words eligible
    /// for transparent huge pages (`THPeligible: 1` in its
    /// `/proc/self/smaps` entry). A kernel with them off has nothing to
    /// check.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn region_words_are_eligible_for_huge_pages() {
        let thp = "/sys/kernel/mm/transparent_hugepage/enabled";
        let mode = std::fs::read_to_string(thp).unwrap_or_default();
        if mode.is_empty() || mode.contains("[never]") {
            eprintln!("{thp} reads {:?}: no huge pages to check", mode.trim());
            return;
        }
        let r = MemoryRegion::new(8 << 20);
        let addr = r.words.as_ptr() as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let hex = |a| usize::from_str_radix(a, 16).ok();
        let (mut inside, mut eligible) = (false, None);
        for line in smaps.lines() {
            // An entry starts with its `lo-hi` range in hex; the fields
            // after it start with their names.
            let first = line.split_whitespace().next().unwrap_or("");
            let range = first
                .split_once('-')
                .and_then(|(lo, hi)| hex(lo).zip(hex(hi)));
            match range {
                Some((lo, hi)) => inside = (lo..hi).contains(&addr),
                None if inside => {
                    if let Some(v) = line.strip_prefix("THPeligible:") {
                        eligible = Some(v.trim().to_owned());
                    }
                }
                None => {}
            }
        }
        assert_eq!(
            eligible.as_deref(),
            Some("1"),
            "the mapping of the words at {addr:#x} (THP mode {:?})",
            mode.trim()
        );
    }
}
