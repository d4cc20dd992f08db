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
//!   under high contention (Figure 18).
//! * [`calvin`] — **Calvin** (SIGMOD'12): deterministic transactions. A
//!   zero-cost oracle supplies the read/write sets (Calvin requires
//!   them), a sequencer stamps every transaction (IPoIB round trip — the
//!   released Calvin does not use RDMA), and a single per-machine lock
//!   manager serialises lock acquisition, which is the throughput ceiling
//!   the paper observes.

pub mod calvin;
pub mod drtm2pl;
pub mod oracle;

pub use calvin::{CalvinEngine, CalvinWorker};
pub use drtm2pl::DrtmWorker;
pub use oracle::{OracleCtx, RwSets};
