//! A simulation of one-sided RDMA verbs over in-process memory regions.
//!
//! No RDMA-capable NIC is available, so this crate reproduces the verb
//! semantics DrTM+R relies on (§2.1 of the paper), over the same
//! [`drtm_base::MemoryRegion`]s the software HTM runs on:
//!
//! * **READ** — copies remote bytes one cache line at a time; each line is
//!   internally consistent, but a read spanning lines is *not* atomic as a
//!   unit. The per-line versions observed are returned so upper layers can
//!   implement FaRM-style consistent reads.
//! * **WRITE** — applies remote bytes one cache line at a time, bumping each
//!   line's version word. Because the software HTM validates against those
//!   same version words, an RDMA WRITE *unconditionally aborts a conflicting
//!   HTM transaction on the target machine* — the cache-coherence property
//!   the whole DrTM line of work builds on.
//! * **CAS / FETCH_ADD** — word atomics against remote memory. The
//!   authors' NIC only provided `IBV_ATOMIC_HCA` (atomic among RDMA
//!   atomics but not against local CPU CAS), which is why the DrTM+R
//!   protocol only ever *reads* lock words locally and both acquires and
//!   releases them via RDMA CAS. The simulation physically provides
//!   global atomicity; the paper's `IBV_ATOMIC_GLOB` optimisation (fusing
//!   lock+validate into one CAS) is the engine's `LockTransport::Glob`
//!   ablation.
//! * **SEND** — two-sided messaging, used only where the paper uses it:
//!   shipping inserts/deletes to the host machine and control traffic.
//!   The caller applies the message's effect itself;
//!   [`Fabric::charge_message`] charges its wire and clock cost.
//!
//! The native interface is a posted work-queue model mirroring real
//! verbs: [`Qp::post`] enqueues [`WorkRequest`] descriptors,
//! [`Qp::doorbell`] flushes them as one batch — charging a single
//! doorbell latency plus per-WR pipelined occupancy — and [`Cq::poll`]
//! returns [`WorkCompletion`]s, each carrying either a [`WrResult`] or a
//! per-WR [`VerbError`]. There is one drop rule: a WR an injected fault
//! drops completes `Err(`[`VerbError::Dropped`]`)` with no effect, the
//! WRs posted behind it are flushed, like an RC QP entering its error
//! state, and its poster re-posts what failed. The blocking verbs
//! (`read`, `write`, `cas`, `fetch_add`) remain as thin wrappers running
//! one WR through post → doorbell → poll, re-posting it until it lands.
//!
//! Timing: every verb charges its caller's [`drtm_base::VClock`] a latency
//! from the [`drtm_base::CostModel`] and reserves wire bytes on both
//! endpoints' [`drtm_base::LinkBudget`]s, which is how the NIC-bandwidth
//! bottleneck of the paper's replication experiments emerges.

#![deny(missing_docs)]

mod fabric;

pub use fabric::{
    Cq,
    Fabric,
    FabricBuilder,
    Fault,
    FaultInjector,
    NicSnapshot,
    NicStats,
    NodeId,
    NodePort,
    PostedWr,
    Qp,
    Verb,
    VerbError,
    WorkCompletion,
    WorkRequest,
    WrResult,
    DEFAULT_SQ_DEPTH, //
};

#[cfg(test)]
mod tests;
