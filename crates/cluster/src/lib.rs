//! Cluster membership, failure detection, and replication-log transport.
//!
//! DrTM+R runs over a cluster whose membership is agreed through
//! ZooKeeper and whose failures are detected with FaRM-style leases
//! (§3, §5.2). This crate provides those mechanics for the in-process
//! simulated cluster:
//!
//! * [`config`] — an epoch-numbered configuration service (the ZooKeeper
//!   stand-in): a linearizable register holding the current membership;
//!   reconfiguration commits a new epoch that every survivor observes.
//! * [`lease`] — per-node leases. A node's workers renew its lease; when
//!   a lease expires the node is *suspected* and reconfiguration starts.
//!   The board keeps no clock of its own: every call takes the caller's
//!   virtual time, so a lease runs out at the same point of a simulated
//!   run whatever the host does meanwhile.
//! * [`log`] — the replication log transport. The paper writes redo
//!   records into battery-backed memory on each backup with one-sided
//!   RDMA WRITEs and lets auxiliary threads truncate them; here each
//!   backup's worker loops take that truncation step between their
//!   transactions (`drtm_core`'s `DrtmCluster::truncate_step`). Each
//!   backup holds a durable in-process queue per primary; appends charge
//!   the virtual-time NIC budgets of both endpoints exactly like an RDMA
//!   WRITE of the serialised entry, and the queue survives a simulated
//!   crash (crash = threads stop; memory — our "NVRAM" — persists).

pub mod config;
pub mod lease;
pub mod log;

pub use config::{ConfigService, Configuration};
pub use lease::LeaseBoard;
pub use log::{LogEntry, LogEntryRef, ReplLogStore};
