//! Cache-line-aligned allocation inside a node's memory region.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use drtm_base::cacheline::{round_up_line, CACHE_LINE};
use drtm_base::sync::Mutex;

/// A bump allocator with per-size free lists over a byte range of a
/// [`drtm_base::MemoryRegion`].
///
/// Everything it hands out is cache-line aligned and a whole number of
/// cache lines long, so no two allocations ever share a line — records
/// therefore never abort each other's HTM transactions through false
/// sharing (the paper enforces the same alignment, §4.2).
///
/// Allocation is node-local (remote machines never allocate in a peer's
/// region), so plain process-level synchronisation is appropriate. A
/// size class that has never had a block freed is served by the bump
/// pointer alone, without the free-list lock: a cluster load, which
/// frees nothing, allocates with one atomic add per record.
#[derive(Debug)]
pub struct Allocator {
    next: AtomicUsize,
    end: usize,
    free: Mutex<HashMap<usize, Vec<usize>>>,
    /// One bit per size class that has had a block freed: bit `l - 1`
    /// for `l`-line blocks, the top bit shared by every class of 64
    /// lines or more. Set (Release) after the block is on its list and
    /// read (Acquire) before the list is, though the list's own lock
    /// orders them too.
    freed: AtomicU64,
}

/// The bit of [`Allocator::freed`] for `size`-byte (whole-line) blocks.
fn class_bit(size: usize) -> u64 {
    1 << ((size / CACHE_LINE).min(64) - 1)
}

impl Allocator {
    /// Creates an allocator over `[start, end)` (both rounded to lines).
    pub fn new(start: usize, end: usize) -> Self {
        let start = round_up_line(start);
        assert!(start <= end, "allocator range is inverted");
        Self {
            next: AtomicUsize::new(start),
            end,
            free: Mutex::new(HashMap::new()),
            freed: AtomicU64::new(0),
        }
    }

    /// Allocates `size` bytes (rounded up to whole cache lines).
    ///
    /// Returns the byte offset, or `None` when the region is exhausted.
    pub fn alloc(&self, size: usize) -> Option<usize> {
        self.take(size, false)
    }

    /// [`Self::alloc`] by the allocator's only user (a store's load,
    /// whose seeder is its only writer): the bump is a load and a store
    /// instead of an atomic add. On x86 an atomic add is a full barrier,
    /// which holds every allocation until the previous record's stores
    /// have left the store buffer.
    pub fn alloc_sole(&self, size: usize) -> Option<usize> {
        self.take(size, true)
    }

    fn take(&self, size: usize, sole: bool) -> Option<usize> {
        let size = round_up_line(size.max(1));
        if self.freed.load(Ordering::Acquire) & class_bit(size) != 0 {
            if let Some(off) = self.free.lock().get_mut(&size).and_then(Vec::pop) {
                return Some(off);
            }
        }
        let off = if sole {
            let off = self.next.load(Ordering::Relaxed);
            self.next.store(off + size, Ordering::Relaxed);
            off
        } else {
            self.next.fetch_add(size, Ordering::Relaxed)
        };
        if off + size > self.end {
            // Undo is unnecessary: the allocator is permanently full and
            // `next` only ever grows; leaving it past `end` is harmless.
            return None;
        }
        Some(off)
    }

    /// Returns an allocation of `size` bytes to the free list.
    ///
    /// The caller must pass the same `size` it allocated with (records of
    /// one table share a size class, so this is natural).
    pub fn free(&self, off: usize, size: usize) {
        let size = round_up_line(size.max(1));
        self.free.lock().entry(size).or_default().push(off);
        self.freed.fetch_or(class_bit(size), Ordering::Release);
    }

    /// Bytes handed out so far (high-water mark; ignores free lists).
    pub fn used(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let a = Allocator::new(10, 4096);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(1).unwrap();
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 128, "100B rounds to 2 lines");
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = Allocator::new(0, 128);
        assert!(a.alloc(64).is_some());
        assert!(a.alloc(64).is_some());
        assert!(a.alloc(64).is_none());
    }

    #[test]
    fn free_list_reuse() {
        let a = Allocator::new(0, 4096);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        assert_eq!(a.alloc(64).unwrap(), x);
    }

    #[test]
    fn classes_of_64_lines_and_more_share_a_bit() {
        let a = Allocator::new(0, 1 << 20);
        let big = a.alloc(100 * 64).unwrap();
        a.free(big, 100 * 64);
        let x = a.alloc(64 * 64).unwrap();
        assert_ne!(x, big, "a 64-line request must not reuse a 100-line block");
        assert_eq!(a.alloc(100 * 64).unwrap(), big);
    }

    #[test]
    fn free_lists_are_per_size_class() {
        let a = Allocator::new(0, 4096);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        let y = a.alloc(128).unwrap();
        assert_ne!(x, y, "a 2-line request must not reuse a 1-line block");
    }
}
