//! Comparison systems from the paper's evaluation (§7.1, Table 1).
//!
//! Two baselines run over the *same* simulated substrate (regions,
//! software HTM, RDMA fabric, virtual-time cost model) as DrTM+R, so the
//! comparisons measure protocol differences rather than simulator
//! differences:
//!
//! * [`drtm2pl`] — **DrTM** (SOSP'15): 2PL over RDMA + one big HTM region
//!   per transaction. Requires a-priori read/write sets; we model that
//!   knowledge with a zero-cost *oracle pass* (see [`oracle`]), which is
//!   deliberately generous to DrTM — the paper's own DrTM numbers include
//!   transaction-chopping machinery we do not charge for. Its large HTM
//!   working sets are what make it degrade past 8 threads (Figure 11) and
//!   under high contention (Figure 18). Its remote half is DrTM+R's
//!   commit walk: the walk's C.1 in wait mode with a READ of every
//!   record under its lock ([`TxnCtx::lock_and_fetch`]), then the walk's
//!   C.5 and C.6 ([`TxnCtx::write_back`]); only the region, the oracle
//!   glue and the retry loop are DrTM's own.
//! * [`calvin`] — **Calvin** (SIGMOD'12): deterministic transactions. A
//!   zero-cost oracle supplies the read/write sets (Calvin requires
//!   them), a sequencer stamps every transaction (IPoIB round trip — the
//!   released Calvin does not use RDMA), and a single per-machine lock
//!   manager serialises lock acquisition, which is the throughput ceiling
//!   the paper observes.
//!
//! Both run on DrTM+R's own [`Worker`](drtm_core::txn::Worker), which
//! supplies the clock, RNG, counters and verb path: each entry point
//! ([`drtm2pl::run`], [`CalvinEngine::run`]) is an `async fn` over
//! `&mut Worker` and a body over `&mut dyn` [`TxnApi`], the interface
//! DrTM+R's bodies take too. The body runs twice, first on the
//! [`OracleCtx`] dry run, then on the engine's execution context
//! ([`drtm2pl::ExecCtx`], [`calvin::CalvinCtx`]); all three implement
//! [`TxnApi`] and never suspend. The measurement driver runs an entry
//! point as routine 0 of a [`RoutinePool`](drtm_core::RoutinePool) of
//! one. DrTM's remote verbs park on the worker's verb path as the
//! walk's do, and every lock wait of either engine polls with
//! [`Worker::pause`], so the slots of a run — every one a pool on the
//! driver's one loop — contend for locks on one OS thread. Commits,
//! aborts and fallbacks go through the worker's ledger (`note_commit`,
//! `note_abort`, `note_fallback`), so the metrics registry sees a
//! baseline run as it sees a DrTM+R one.
//!
//! [`TxnApi`]: drtm_core::txn::TxnApi
//! [`TxnCtx::lock_and_fetch`]: drtm_core::txn::TxnCtx::lock_and_fetch
//! [`TxnCtx::write_back`]: drtm_core::txn::TxnCtx::write_back
//! [`Worker::pause`]: drtm_core::txn::Worker::pause

pub mod calvin;
pub mod drtm2pl;
pub mod oracle;
#[cfg(test)]
mod tests;

pub use calvin::CalvinEngine;
pub use oracle::{OracleCtx, RwSets};
