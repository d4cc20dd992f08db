//! `drtm-net` — the TCP serving front-end of the DrTM+R repro
//! (DESIGN.md §12).
//!
//! Everything upstream of this crate measures the engine closed-loop:
//! the bench driver generates its own transactions in-process, so the
//! repro can report peak throughput but nothing about behaviour *past
//! saturation* — the regime a real serving system lives in. This crate
//! adds the missing front door:
//!
//! * [`proto`] — a tiny length-prefixed binary protocol (request =
//!   SmallBank op or raw read/write txn; response = committed /
//!   aborted / rejected plus queue wait);
//! * [`server`] — a TCP server fronting the engine with a bounded
//!   admission queue ([`drtm_core::QueueGroup`]) feeding per-node
//!   routine pools on one engine loop, per-connection in-flight windows (backpressure via
//!   TCP flow control), and explicit load shedding past the queue's
//!   high-water mark;
//! * [`loadgen`] — an **open-loop** client: seeded Poisson arrivals at
//!   a configured offered rate, latency measured from the scheduled
//!   arrival time so server-imposed queueing is never coordinated away;
//! * [`route`] — the shard-affinity router (DESIGN.md §16): with
//!   `--route on` the server dispatches each request to the pool owning
//!   the majority of its shards (first-writer tiebreak), backed by
//!   per-pool queues with bounded work stealing, so single-home
//!   requests commit all-local in HTM with zero commit-path verbs.
//!
//! Serving counters (conns, accepted, rejected, in-flight, queue depth,
//! queue-wait histogram) surface through `drtm-obs` as the `net`
//! section of every exposition format; routing counters (local/remote
//! dispatch, steals, two-level sheds, per-pool depths) as the `route`
//! section.

#![deny(missing_docs)]

pub mod loadgen;
pub mod proto;
pub mod route;
pub mod server;

pub use loadgen::{run_client, scrape, ClientCfg, ClientReport, Schedule};
pub use proto::{Msg, RawOp, ScrapeFormat, Status, WireError, MAX_FRAME, PROTO_VERSION};
pub use server::{Drained, PoolRow, Server, ServerCfg};
