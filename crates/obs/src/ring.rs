//! The bounded ring both the trace and the time-series history keep.

use std::collections::VecDeque;

use drtm_base::sync::Mutex;

/// A fixed-capacity ring of `T`s. The oldest entry is evicted on
/// overflow, and `dropped` counts how many were. Entries are pushed
/// whole under the ring's mutex, so a reader never sees a torn one.
#[derive(Debug)]
pub struct Ring<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    /// Creates a ring holding at most `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
                dropped: 0,
            }),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Pushes one entry, evicting the oldest if full.
    pub fn push(&self, entry: T) {
        let mut g = self.inner.lock();
        if g.buf.len() == self.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(entry);
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the buffered entries (oldest first) and the count of
    /// entries dropped so far. Does not clear the ring, so it is safe
    /// while the owner keeps pushing.
    pub fn snapshot(&self) -> (Vec<T>, u64) {
        let g = self.inner.lock();
        (g.buf.iter().copied().collect(), g.dropped)
    }

    /// Clears the ring and its drop counter.
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.buf.clear();
        g.dropped = 0;
    }
}
