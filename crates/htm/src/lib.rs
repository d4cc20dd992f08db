//! A software simulation of Intel Restricted Transactional Memory (RTM).
//!
//! Stable Rust exposes no TSX intrinsics and the evaluation host has no
//! RTM-capable CPU, so this crate reproduces the *semantics* the DrTM+R
//! protocol depends on, over a [`drtm_base::MemoryRegion`]:
//!
//! * **Cache-line-granularity conflict tracking.** The read set is a set of
//!   `(line, version)` pairs; the write set buffers one 64-byte image per
//!   line with a mask of the bytes written, and publishes those bytes at
//!   commit under per-line seqlocks. Both sets are line-sorted arrays.
//!   Two transactions (or a
//!   transaction and any non-transactional coherent write, including a
//!   simulated RDMA op) conflict iff they touch the same cache line and at
//!   least one writes — matching RTM's coherence-based detection, including
//!   false conflicts from *false sharing* within a line.
//! * **Strong atomicity.** Buffered writes are invisible until commit, and
//!   any coherent write to a line in the read set changes that line's
//!   version word, aborting the transaction. This is the property that lets
//!   DrTM+R use one-sided RDMA ops to abort conflicting local transactions.
//! * **Capacity limits.** RTM tracks the write set in L1 (32 KB) and the
//!   read set in an implementation-defined structure; exceeding either
//!   budget raises a capacity abort, which is what forces DBX-style designs
//!   to keep only *metadata* inside the HTM region.
//! * **Best-effort progress.** Transactions may abort spuriously (with a
//!   configurable probability, standing in for interrupts/TLB events), so
//!   callers must provide a fallback path; [`Htm::run`] implements the
//!   bounded-retry policy and reports when the fallback handler must take
//!   over.
//! * **Opacity.** Every read checks the lines it copied, and re-validates
//!   the whole read set whenever any line of the region was written
//!   since the last full validation
//!   ([`drtm_base::MemoryRegion::line_writes`]), so a transaction never
//!   *acts on* an inconsistent snapshot — matching hardware, where a
//!   conflicting transaction is aborted before it can observe torn state
//!   — while a read costs O(lines read) when nothing moved.
//!
//! What is *not* modelled: eager asynchronous aborts (a doomed transaction
//! here keeps executing until its next read or its commit point — it can
//! never commit, so this is invisible to correctness), and timing (virtual
//! time is charged by the layers above, using the line counts this crate
//! exposes).
//!
//! # HTM regions and cooperative routine yields
//!
//! Real RTM aborts on *any* ring transition — a context switch inside an
//! `XBEGIN`/`XEND` window always kills the transaction. The routine
//! scheduler in `drtm-core` therefore must never suspend a routine while
//! it is resident in an HTM region: the C.3/C.4 commit step (and every
//! local HTM read) runs entirely between yields, with all remote verbs
//! issued either before `XBEGIN` or after `XEND`. This crate tracks
//! per-thread region residency ([`region_active`]) so yield points can
//! `debug_assert` the invariant instead of trusting the call graph.

mod txn;

pub use txn::{
    region_active,
    AbortCode,
    Htm,
    HtmConfig,
    HtmStats,
    HtmTxn,
    RunOutcome, //
};

#[cfg(test)]
mod tests;
