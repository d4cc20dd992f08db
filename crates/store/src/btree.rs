//! The ordered store: a `std` B-tree under a reader-writer lock.
//!
//! DBX protects its B+-tree operations with HTM transactions; the DrTM+R
//! paper reuses that tree for ordered tables (§6.3), which are only ever
//! accessed by the *local* machine in its workloads. Nothing remote reads
//! the index, so its node layout is free: this is
//! `std::collections::BTreeMap` behind a reader-writer lock. Readers take
//! the shared lock (an uncontended acquisition is a single atomic,
//! comparable to an empty HTM region), writers the exclusive lock. The
//! abstract behaviour — index operations appear atomic to each other — is
//! identical; DESIGN.md records the substitution, and the virtual-time
//! cost model charges tree walks independently of this choice.
//!
//! The tree maps `u64` keys to `u64` record offsets and supports the
//! range scans TPC-C needs (`order-status` reads a customer's last order;
//! `stock-level` walks recent order lines). Its memory follows its
//! entries: std's nodes are flat arrays, and a node that `delivery`'s
//! `NEW_ORDER` deletes empty is freed. (The hand-written B+-tree it
//! replaced kept two `Vec`s per node, half-full leaves under append-only
//! keys and every emptied leaf: about 64 bytes per entry.)

use std::collections::BTreeMap;

use drtm_base::sync::RwLock;

/// An ordered index mapping `u64` keys to record offsets.
///
/// A range `[lo, hi]` with `lo > hi` is empty.
///
/// # Examples
///
/// ```
/// use drtm_store::BTree;
///
/// let t = BTree::new();
/// for k in [5u64, 1, 9, 3] {
///     t.insert(k, k * 10);
/// }
/// assert_eq!(t.get(9), Some(90));
/// assert_eq!(t.scan(2, 6, usize::MAX), vec![(3, 30), (5, 50)]);
/// assert_eq!(t.last_in_range(0, 100), Some((9, 90)));
/// assert_eq!(t.last_in_range(6, 2), None);
/// ```
#[derive(Default)]
pub struct BTree {
    map: RwLock<BTreeMap<u64, u64>>,
}

impl BTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `key -> val`, returning the previous value if any.
    pub fn insert(&self, key: u64, val: u64) -> Option<u64> {
        self.map.write().insert(key, val)
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.read().get(&key).copied()
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.map.write().remove(&key)
    }

    /// Collects up to `limit` `(key, value)` pairs with keys in
    /// `[lo, hi]`, in ascending key order.
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let map = self.map.read();
        map.range(lo..=hi)
            .take(limit)
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// The largest `(key, value)` with key in `[lo, hi]`, if any: TPC-C
    /// `order-status` wants a customer's most recent order. One walk
    /// down the tree from the right end of the range.
    pub fn last_in_range(&self, lo: u64, hi: u64) -> Option<(u64, u64)> {
        if lo > hi {
            return None;
        }
        let map = self.map.read();
        map.range(lo..=hi).next_back().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove() {
        let t = BTree::new();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 55), Some(50));
        assert_eq!(t.get(5), Some(55));
        assert_eq!(t.remove(5), Some(55));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn many_inserts_split_correctly() {
        let t = BTree::new();
        for k in 0..10_000u64 {
            t.insert(k * 7 % 10_000, k);
        }
        for k in 0..10_000u64 {
            assert!(
                t.get(k * 7 % 10_000).is_some(),
                "lost key {}",
                k * 7 % 10_000
            );
        }
    }

    #[test]
    fn scan_ordered_and_bounded() {
        let t = BTree::new();
        for k in (0..100u64).rev() {
            t.insert(k, k * 2);
        }
        let got = t.scan(10, 20, usize::MAX);
        assert_eq!(got.len(), 11);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0], (10, 20));
        assert_eq!(got[10], (20, 40));
        assert_eq!(t.scan(10, 20, 3).len(), 3);
        assert!(t.scan(200, 300, usize::MAX).is_empty());
    }

    #[test]
    fn last_in_range() {
        let t = BTree::new();
        for k in [3u64, 7, 11, 19] {
            t.insert(k, k);
        }
        assert_eq!(t.last_in_range(0, 100), Some((19, 19)));
        assert_eq!(t.last_in_range(4, 12), Some((11, 11)));
        assert_eq!(t.last_in_range(20, 30), None);
    }

    #[test]
    fn concurrent_inserts_disjoint_ranges() {
        use std::sync::Arc;
        let t = Arc::new(BTree::new());
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..1000u64 {
                    t.insert(tid * 10_000 + k, k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for tid in 0..4u64 {
            for k in 0..1000u64 {
                assert_eq!(t.get(tid * 10_000 + k), Some(k));
            }
        }
    }

    /// Model check against a plain BTreeMap over randomized operation
    /// schedules: after every operation, `scan(lo, hi, limit)` and
    /// `last_in_range(lo, hi)` on random bounds, inverted ones included,
    /// against a filter over the model's entries.
    #[test]
    fn model_check() {
        let mut rng = drtm_base::SplitMix64::new(0x5eed_0005);
        for _ in 0..64 {
            let n = 1 + rng.below(299) as usize;
            let t = BTree::new();
            let mut m = BTreeMap::new();
            for _ in 0..n {
                let op = rng.below(3) as u8;
                let k = rng.below(500) + 1;
                let v = rng.next_u64();
                match op {
                    0 => assert_eq!(t.insert(k, v), m.insert(k, v)),
                    1 => assert_eq!(t.remove(k), m.remove(&k)),
                    _ => assert_eq!(t.get(k), m.get(&k).copied()),
                }
                // Random bounds over and just past the key space.
                let (lo, hi) = (rng.below(503), rng.below(503));
                let limit = [0, 1, 3, usize::MAX][rng.below(4) as usize];
                let within = m.iter().filter(|(&k, _)| lo <= k && k <= hi);
                let want: Vec<(u64, u64)> = within.map(|(&k, &v)| (k, v)).collect();
                let got = t.scan(lo, hi, limit);
                assert_eq!(
                    got,
                    want[..want.len().min(limit)],
                    "scan({lo}, {hi}, {limit})"
                );
                assert_eq!(
                    t.last_in_range(lo, hi),
                    want.last().copied(),
                    "[{lo}, {hi}]"
                );
            }
            // Full scan agrees with the model.
            let got = t.scan(0, u64::MAX, usize::MAX);
            let want: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want);
        }
    }
}
