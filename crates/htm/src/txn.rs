//! The RTM transaction engine: read/write tracking, commit, retry policy.

use std::cell::Cell;
use std::ops::Range;

use drtm_base::cacheline::{line_range, CACHE_LINE};
use drtm_base::Counter;
use drtm_base::{MemoryRegion, SplitMix64};

/// Why an HTM transaction aborted.
///
/// Mirrors the RTM abort status word: conflict, capacity, explicit
/// (`XABORT imm8`), and "other" (spurious) causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCode {
    /// Another writer touched a line in the read set, or a write-set line
    /// could not be owned at commit.
    Conflict,
    /// Read- or write-set capacity exceeded.
    Capacity,
    /// The transaction body executed `XABORT` with this immediate.
    Explicit(u8),
    /// A cause outside the transaction's control (interrupt, fault...).
    Spurious,
}

/// Tuning knobs for the simulated RTM implementation.
#[derive(Debug, Clone)]
pub struct HtmConfig {
    /// Maximum distinct cache lines in the write set. RTM buffers writes
    /// in the 32 KB L1 data cache: 512 lines.
    pub max_write_lines: usize,
    /// Maximum distinct cache lines in the read set. The read set is
    /// tracked in an implementation-specific structure larger than L1; we
    /// default to the L2-ish 4096 lines.
    pub max_read_lines: usize,
    /// Probability that a commit aborts spuriously, standing in for
    /// interrupts and other environmental aborts. RTM is best-effort, so
    /// a correct client must tolerate any positive value here.
    pub spurious_abort_prob: f64,
    /// Retries before [`Htm::run`] gives up and asks for the fallback
    /// handler.
    pub max_retries: usize,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            max_write_lines: 512,
            max_read_lines: 4096,
            spurious_abort_prob: 0.0,
            max_retries: 16,
        }
    }
}

/// Abort counters, kept per [`Htm`] engine instance.
#[derive(Debug, Default)]
pub struct HtmStats {
    /// Successful commits.
    pub commits: Counter,
    /// Aborts by cause.
    pub conflict_aborts: Counter,
    /// Capacity aborts.
    pub capacity_aborts: Counter,
    /// Explicit (`XABORT`) aborts.
    pub explicit_aborts: Counter,
    /// Spurious aborts.
    pub spurious_aborts: Counter,
    /// Executions that exhausted retries and fell back.
    pub fallbacks: Counter,
}

impl HtmStats {
    /// Total aborts of all causes.
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts.get()
            + self.capacity_aborts.get()
            + self.explicit_aborts.get()
            + self.spurious_aborts.get()
    }

    /// Abort counts by class, in the stable order the observability
    /// layer labels them (`conflict`, `capacity`, `explicit`,
    /// `spurious`, `fallback`).
    pub fn classes(&self) -> [u64; 5] {
        [
            self.conflict_aborts.get(),
            self.capacity_aborts.get(),
            self.explicit_aborts.get(),
            self.spurious_aborts.get(),
            self.fallbacks.get(),
        ]
    }

    /// Abort rate over all attempts (aborts / (aborts + commits)).
    pub fn abort_rate(&self) -> f64 {
        let a = self.total_aborts() as f64;
        let c = self.commits.get() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }

    fn note(&self, code: AbortCode) {
        match code {
            AbortCode::Conflict => self.conflict_aborts.inc(),
            AbortCode::Capacity => self.capacity_aborts.inc(),
            AbortCode::Explicit(_) => self.explicit_aborts.inc(),
            AbortCode::Spurious => self.spurious_aborts.inc(),
        }
    }
}

thread_local! {
    /// Nesting depth of live [`HtmTxn`]s on this thread. RTM supports
    /// flat nesting, so any positive depth means the thread is resident
    /// in a hardware transaction.
    static HTM_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Whether the calling thread is currently inside an HTM region (an
/// [`HtmTxn`] has begun and neither committed nor been dropped).
///
/// A context switch inside an RTM window aborts the transaction on real
/// hardware, so cooperative schedulers assert this is `false` at every
/// yield point: no HTM section may span a yield.
pub fn region_active() -> bool {
    HTM_DEPTH.with(|d| d.get() > 0)
}

/// Bit mask of the `len` bytes (1 to 64) at offset `at` of a line.
#[inline]
fn byte_mask(at: usize, len: usize) -> u64 {
    (u64::MAX >> (CACHE_LINE - len)) << at
}

/// One cache line of the write set, as RTM buffers it in L1: the line's
/// image and which of its bytes the transaction wrote.
struct WriteLine {
    line: usize,
    bytes: [u8; CACHE_LINE],
    /// Bit `i` set: byte `i` of `bytes` was written.
    mask: u64,
}

impl WriteLine {
    /// The maximal runs of written bytes, as offsets within the line.
    fn runs(&self) -> impl Iterator<Item = Range<usize>> {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let start = rest.trailing_zeros() as usize;
            let len = (rest >> start).trailing_ones() as usize;
            rest &= !byte_mask(start, len);
            Some(start..start + len)
        })
    }
}

/// An in-flight hardware transaction over one [`MemoryRegion`].
///
/// Created by [`Htm::run`] (which adds the retry/fallback policy) or
/// directly via [`HtmTxn::begin`] for single-shot use. All reads and
/// writes go through this handle; plain coherent writes to the region by
/// other threads conflict with it exactly as real RTM's cache coherence
/// would.
pub struct HtmTxn<'a> {
    region: &'a MemoryRegion,
    /// `(line, version observed at first read)`, sorted by line.
    read_set: Vec<(usize, u64)>,
    /// Buffered writes (invisible until commit), sorted by line.
    write_set: Vec<WriteLine>,
    /// The region's count of line writes when the whole read set last
    /// validated; while it stands, a read checks only its own lines.
    validated_at: u64,
    cfg: &'a HtmConfig,
}

impl<'a> HtmTxn<'a> {
    /// Starts a transaction (`XBEGIN`). The calling thread is resident in
    /// an HTM region ([`region_active`] returns `true`) until the handle
    /// commits or is dropped.
    pub fn begin(region: &'a MemoryRegion, cfg: &'a HtmConfig) -> Self {
        HTM_DEPTH.with(|d| d.set(d.get() + 1));
        Self {
            region,
            read_set: Vec::new(),
            write_set: Vec::new(),
            validated_at: region.line_writes(),
            cfg,
        }
    }

    /// Number of distinct cache lines in the read set so far.
    pub fn read_lines(&self) -> usize {
        self.read_set.len()
    }

    /// Number of distinct cache lines in the write set so far.
    pub fn write_lines(&self) -> usize {
        self.write_set.len()
    }

    /// Subscribes a line into the read set, returning its stable version.
    /// A line past every line read so far — each line of a record, and
    /// mostly each record of a read group — is appended; any other costs
    /// a binary search (and, when new, a shift of the lines after it).
    fn track_read(&mut self, line: usize) -> Result<u64, AbortCode> {
        let at = match self.read_set.last() {
            Some(&(last, _)) if last >= line => {
                match self.read_set.binary_search_by_key(&line, |e| e.0) {
                    Ok(i) => return Ok(self.read_set[i].1),
                    Err(i) => i,
                }
            }
            _ => self.read_set.len(),
        };
        if self.read_set.len() >= self.cfg.max_read_lines {
            return Err(AbortCode::Capacity);
        }
        let v = self.region.line_version_stable(line);
        self.read_set.insert(at, (line, v));
        Ok(v)
    }

    /// The version the read set pinned for `line`, if it was read.
    fn read_version(&self, line: usize) -> Option<u64> {
        let at = self.read_set.binary_search_by_key(&line, |e| e.0).ok()?;
        Some(self.read_set[at].1)
    }

    /// Opacity check after copying `lines`: they still hold the versions
    /// the read set pinned and — if any line of the region was written
    /// since the whole read set last validated — so does every other line
    /// read so far. A version only moves after its write is counted
    /// ([`MemoryRegion::line_writes`]), so an unmoved count proves the
    /// earlier lines unmoved without visiting them.
    fn validate_reads(&mut self, lines: std::ops::Range<usize>) -> Result<(), AbortCode> {
        let writes = self.region.line_writes();
        let moved = |&(line, ver): &(usize, u64)| self.region.line_version(line) != ver;
        let conflict = if writes == self.validated_at {
            // The lines just tracked: consecutive entries of the set.
            let first = self.read_set.partition_point(|e| e.0 < lines.start);
            self.read_set[first..first + lines.len()].iter().any(moved)
        } else {
            self.read_set.iter().any(moved)
        };
        if conflict {
            return Err(AbortCode::Conflict);
        }
        self.validated_at = writes;
        Ok(())
    }

    /// Transactionally reads `buf.len()` bytes at `off`.
    ///
    /// Own buffered writes are visible. On success the snapshot is
    /// consistent with *all* previous reads of this transaction (opacity);
    /// otherwise the conflict abort is returned and the transaction is
    /// dead (the caller must not commit it). Costs O(lines read) while no
    /// line of the region is written meanwhile.
    pub fn read_bytes(&mut self, off: usize, buf: &mut [u8]) -> Result<(), AbortCode> {
        let lines = line_range(off, buf.len());
        for line in lines.clone() {
            self.track_read(line)?;
        }
        // Snapshot the bytes, then confirm no tracked line moved while we
        // copied. `track_read` pinned each line's version at first read, so
        // a clean validation means the copy matches those versions and is
        // consistent with everything read so far (opacity). Any movement is
        // a conflict abort, as on hardware.
        self.region.read_bytes_raw(off, buf);
        self.validate_reads(lines)?;
        self.overlay_writes(off, buf);
        Ok(())
    }

    /// Read-own-writes: copies the written bytes of the buffered lines
    /// inside `[off, off + buf.len())` over `buf`.
    fn overlay_writes(&self, off: usize, buf: &mut [u8]) {
        let (lines, end) = (line_range(off, buf.len()), off + buf.len());
        let first = self.write_set.partition_point(|w| w.line < lines.start);
        let inside = self.write_set[first..].iter();
        for w in inside.take_while(|w| w.line < lines.end) {
            let base = w.line * CACHE_LINE;
            for run in w.runs() {
                let (lo, hi) = ((base + run.start).max(off), (base + run.end).min(end));
                if lo < hi {
                    buf[lo - off..hi - off].copy_from_slice(&w.bytes[lo - base..hi - base]);
                }
            }
        }
    }

    /// Transactionally reads the 8-byte word at `off` (8-aligned).
    pub fn read_u64(&mut self, off: usize) -> Result<u64, AbortCode> {
        let mut b = [0u8; 8];
        self.read_bytes(off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// The write-set entry of `line`, added when new. A line past every
    /// line written so far — each line of a record — is appended; any
    /// other costs a binary search (and, when new, a shift).
    fn write_line(&mut self, line: usize) -> Result<&mut WriteLine, AbortCode> {
        let at = match self.write_set.last() {
            Some(last) if last.line >= line => {
                match self.write_set.binary_search_by_key(&line, |w| w.line) {
                    Ok(i) => return Ok(&mut self.write_set[i]),
                    Err(i) => i,
                }
            }
            _ => self.write_set.len(),
        };
        if self.write_set.len() >= self.cfg.max_write_lines {
            return Err(AbortCode::Capacity);
        }
        let w = WriteLine {
            line,
            bytes: [0; CACHE_LINE],
            mask: 0,
        };
        self.write_set.insert(at, w);
        Ok(&mut self.write_set[at])
    }

    /// Buffers a transactional write of `data` at `off`, line by line.
    pub fn write_bytes(&mut self, off: usize, data: &[u8]) -> Result<(), AbortCode> {
        let end = off + data.len();
        for line in line_range(off, data.len()) {
            let base = line * CACHE_LINE;
            let (lo, hi) = (base.max(off), (base + CACHE_LINE).min(end));
            let w = self.write_line(line)?;
            w.bytes[lo - base..hi - base].copy_from_slice(&data[lo - off..hi - off]);
            w.mask |= byte_mask(lo - base, hi - lo);
        }
        Ok(())
    }

    /// Buffers a transactional write of the 8-byte word at `off`.
    pub fn write_u64(&mut self, off: usize, v: u64) -> Result<(), AbortCode> {
        self.write_bytes(off, &v.to_le_bytes())
    }

    /// Attempts to commit (`XEND`).
    ///
    /// Owns every write-set line (ascending order, try-lock — RTM prefers
    /// aborting to blocking), validates the read set, publishes the
    /// written bytes of each line, and releases the lines with bumped
    /// versions so concurrent readers and other transactions observe the
    /// commit atomically per line.
    pub fn commit(self) -> Result<(), AbortCode> {
        let region = self.region;
        // Pre-lock versions of the lines owned so far, in write-set order.
        let mut held: Vec<u64> = Vec::with_capacity(self.write_set.len());
        let rollback = |held: &[u64]| {
            for (w, &pre) in self.write_set.iter().zip(held) {
                region.release_line_clean(w.line, pre);
            }
        };
        for w in &self.write_set {
            let Some(pre) = region.try_lock_line(w.line) else {
                rollback(&held);
                return Err(AbortCode::Conflict);
            };
            held.push(pre);
            // A line also read must not have moved since it was read.
            if self.read_version(w.line).is_some_and(|seen| seen != pre) {
                rollback(&held);
                return Err(AbortCode::Conflict);
            }
        }
        // Validate the lines only read; written ones were checked above.
        let written = |line| {
            self.write_set
                .binary_search_by_key(&line, |w| w.line)
                .is_ok()
        };
        let moved =
            |&(line, ver): &(usize, u64)| !written(line) && region.line_version(line) != ver;
        if self.read_set.iter().any(moved) {
            rollback(&held);
            return Err(AbortCode::Conflict);
        }
        // Publish; the lines are locked, so per-line readers retry until
        // the release below makes the commit visible.
        for w in &self.write_set {
            let base = w.line * CACHE_LINE;
            for run in w.runs() {
                region.write_bytes_locked(base + run.start, &w.bytes[run]);
            }
        }
        for (w, pre) in self.write_set.iter().zip(held) {
            region.release_line(w.line, pre);
        }
        Ok(())
    }
}

#[cfg(test)]
impl HtmTxn<'_> {
    /// [`Self::read_bytes`] as it was before reads became O(lines read):
    /// every read re-validates the whole read set. The reference of the
    /// model test.
    pub(crate) fn read_bytes_validating_all(
        &mut self,
        off: usize,
        buf: &mut [u8],
    ) -> Result<(), AbortCode> {
        for line in line_range(off, buf.len()) {
            self.track_read(line)?;
        }
        self.region.read_bytes_raw(off, buf);
        for &(line, ver) in &self.read_set {
            if self.region.line_version(line) != ver {
                return Err(AbortCode::Conflict);
            }
        }
        self.overlay_writes(off, buf);
        Ok(())
    }
}

impl Drop for HtmTxn<'_> {
    /// Leaves the HTM region: both `XEND` (via [`HtmTxn::commit`], which
    /// consumes the handle) and every abort path end here, so
    /// [`region_active`] is exact whatever the outcome.
    fn drop(&mut self) {
        HTM_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Outcome of [`Htm::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome<R> {
    /// The body committed, after `retries` aborted attempts.
    Committed { value: R, retries: usize },
    /// Retries were exhausted; the caller must run its fallback handler.
    /// The last abort cause is reported.
    Fallback(AbortCode),
}

/// An RTM engine: configuration + statistics + the retry policy.
///
/// One engine is typically shared by all worker threads of a node.
///
/// # Examples
///
/// ```
/// use drtm_base::{MemoryRegion, SplitMix64};
/// use drtm_htm::{Htm, RunOutcome};
///
/// let region = MemoryRegion::new(4096);
/// let htm = Htm::default();
/// let mut rng = SplitMix64::new(1);
/// let out = htm.run(&region, &mut rng, |t| {
///     let v = t.read_u64(0)?;
///     t.write_u64(0, v + 1)?;
///     Ok(v)
/// });
/// assert!(matches!(out, RunOutcome::Committed { value: 0, .. }));
/// assert_eq!(region.load64(0), 1);
/// ```
#[derive(Debug, Default)]
pub struct Htm {
    /// Engine configuration.
    pub cfg: HtmConfig,
    /// Abort/commit counters.
    pub stats: HtmStats,
}

impl Htm {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: HtmConfig) -> Self {
        Self {
            cfg,
            stats: HtmStats::default(),
        }
    }

    /// Runs `body` as a hardware transaction with bounded retries.
    ///
    /// The body may return `Err(code)` to request an explicit abort
    /// (`XABORT`); conflicts and capacity aborts surface the same way. On
    /// exhausting [`HtmConfig::max_retries`], returns
    /// [`RunOutcome::Fallback`] — the caller owns the fallback path, as on
    /// real RTM. Randomised backoff between retries is charged to `rng`
    /// (virtual-time backoff is accounted by the caller via the retry
    /// count).
    pub fn run<R>(
        &self,
        region: &MemoryRegion,
        rng: &mut SplitMix64,
        mut body: impl FnMut(&mut HtmTxn<'_>) -> Result<R, AbortCode>,
    ) -> RunOutcome<R> {
        let mut last = AbortCode::Spurious;
        for attempt in 0..=self.cfg.max_retries {
            if self.cfg.spurious_abort_prob > 0.0 && rng.chance(self.cfg.spurious_abort_prob) {
                self.stats.note(AbortCode::Spurious);
                last = AbortCode::Spurious;
                continue;
            }
            let mut txn = HtmTxn::begin(region, &self.cfg);
            match body(&mut txn).and_then(|value| txn.commit().map(|()| value)) {
                Ok(value) => {
                    self.stats.commits.inc();
                    return RunOutcome::Committed {
                        value,
                        retries: attempt,
                    };
                }
                Err(code) => {
                    self.stats.note(code);
                    last = code;
                }
            }
            // Randomised spin backoff, bounded; keeps livelock at bay the
            // way the paper's "retry with a randomized interval" does. The
            // yield lets a conflicting (possibly descheduled) committer
            // finish on an oversubscribed host.
            let spins = rng.below(1 << (attempt.min(8) as u32 + 4));
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        self.stats.fallbacks.inc();
        RunOutcome::Fallback(last)
    }
}
