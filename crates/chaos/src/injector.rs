//! The deterministic chaos injector: interprets a [`FaultPlan`] as a
//! [`FaultInjector`] for the RDMA fabric and a [`CrashPointHook`] for
//! the commit/replication protocol probes.
//!
//! # Determinism
//!
//! Every probabilistic draw is a pure function of
//! `(plan.seed, rule index, traffic stream, issue counter)`, where a
//! *stream* is one `(src, dst, verb)` triple and the counter is that
//! stream's issue ordinal. The fabric guarantees `on_verb` is called
//! exactly once per verb in per-thread issue order, so the same plan
//! replayed over the same per-stream verb sequences reproduces the
//! same decisions — independent of wall-clock time, host scheduling of
//! *other* streams, or how often the trace is inspected. Windowed
//! faults (partitions, flaps) depend additionally on the issuing
//! worker's virtual clock, which is itself deterministic per worker.
//!
//! Crash points count passages per [`CrashSpec`] with an atomic
//! counter and fire on the configured ordinal, so "kill node 2 the 5th
//! time it completes C.4" means the same thing in every run.

use std::sync::atomic::{AtomicU64, Ordering};

use drtm_base::sync::Mutex;
use drtm_core::cluster::CrashPointHook;
use drtm_rdma::{Fault, FaultInjector, NodeId, Verb};

use crate::plan::{CrashSpec, FaultPlan};

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One recorded chaos decision (only perturbing decisions are kept —
/// clean passages are not traced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A verb was perturbed.
    Fault {
        /// Issuing node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Verb class.
        verb: Verb,
        /// Ordinal of this verb within its `(src, dst, verb)` stream.
        n: u64,
        /// The decision applied.
        fault: Fault,
    },
    /// A machine was killed at a protocol probe.
    Crash {
        /// The machine killed.
        node: NodeId,
        /// The probe that fired.
        point: &'static str,
        /// Which passage fired (1-based).
        hit: u64,
    },
}

impl ChaosEvent {
    fn hash(&self) -> u64 {
        match *self {
            ChaosEvent::Fault {
                src,
                dst,
                verb,
                n,
                fault,
            } => mix(0x1000_0000_0000_0000
                ^ ((src as u64) << 48)
                ^ ((dst as u64) << 32)
                ^ ((verb.index() as u64) << 28)
                ^ mix(n)
                ^ mix(fault.delay_ns ^ fault.extra_wire.rotate_left(17) ^ (fault.drop as u64))),
            ChaosEvent::Crash { node, point, hit } => {
                let mut p = 0u64;
                for b in point.bytes() {
                    p = p.wrapping_mul(31).wrapping_add(b as u64);
                }
                mix(0x2000_0000_0000_0000 ^ ((node as u64) << 40) ^ mix(p) ^ hit)
            }
        }
    }
}

/// Interprets a [`FaultPlan`] over a fabric of `nodes` machines.
///
/// Install on both substrates:
/// `cluster.fabric.set_injector(inj.clone())` for traffic faults and
/// `cluster.set_crash_hook(inj.clone())` for crash points.
pub struct ChaosInjector {
    plan: FaultPlan,
    nodes: usize,
    /// Per-(src, dst, verb) issue counters.
    streams: Vec<AtomicU64>,
    /// Per-[`CrashSpec`] passage counters.
    crash_hits: Vec<AtomicU64>,
    /// Virtual time (ns) each victim died at, on its probing worker's
    /// clock (for detection latency).
    crashed_at: Mutex<Vec<(NodeId, u64)>>,
    trace: Mutex<Vec<ChaosEvent>>,
}

impl ChaosInjector {
    /// Builds an injector for `plan` over a `nodes`-machine fabric.
    pub fn new(plan: FaultPlan, nodes: usize) -> Self {
        let streams = (0..nodes * nodes * Verb::ALL.len())
            .map(|_| AtomicU64::new(0))
            .collect();
        let crash_hits = plan.crashes.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            plan,
            nodes,
            streams,
            crash_hits,
            crashed_at: Mutex::new(Vec::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn stream_id(&self, src: NodeId, dst: NodeId, verb: Verb) -> usize {
        (src * self.nodes + dst) * Verb::ALL.len() + verb.index()
    }

    /// Distinct machines killed so far.
    pub fn crashes_fired(&self) -> usize {
        self.crashed_at.lock().len()
    }

    /// The virtual time (ns) `node` was killed at, if it was.
    pub fn crash_instant(&self, node: NodeId) -> Option<u64> {
        self.crashed_at
            .lock()
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, t)| t)
    }

    /// A copy of every perturbing decision taken so far.
    pub fn trace(&self) -> Vec<ChaosEvent> {
        self.trace.lock().clone()
    }

    /// Number of perturbing decisions taken so far.
    pub fn faults_injected(&self) -> usize {
        self.trace.lock().len()
    }

    /// Order-independent digest of the decision trace. Two runs of the
    /// same plan over the same per-stream verb sequences produce the
    /// same fingerprint even when threads interleave differently.
    pub fn fingerprint(&self) -> u64 {
        self.trace.lock().iter().fold(0u64, |acc, e| acc ^ e.hash())
    }
}

impl FaultInjector for ChaosInjector {
    fn on_verb(&self, src: NodeId, dst: NodeId, verb: Verb, now: u64) -> Fault {
        let n = self.streams[self.stream_id(src, dst, verb)].fetch_add(1, Ordering::Relaxed);
        let stream = self.stream_id(src, dst, verb) as u64;
        let mut fault = Fault::NONE;
        for (ridx, rule) in self.plan.rules.iter().enumerate() {
            if !rule.matches(src, dst, verb) {
                continue;
            }
            // One independent draw per (rule, stream, ordinal); the
            // three sub-probabilities use disjoint bit windows.
            let h = mix(self.plan.seed ^ mix(((ridx as u64) << 32) ^ stream) ^ mix(n));
            if rule.drop > 0 && (h % 1000) < rule.drop as u64 {
                fault.drop = true;
            }
            if rule.delay > 0 && ((h >> 20) % 1000) < rule.delay as u64 {
                fault.delay_ns += rule.delay_ns;
            }
            if rule.duplicate > 0 && ((h >> 40) % 1000) < rule.duplicate as u64 {
                fault.extra_wire += rule.dup_wire;
            }
        }
        for p in &self.plan.partitions {
            if p.cuts(src, dst, now) {
                fault.drop = true;
                fault.delay_ns += p.stall_ns;
            }
        }
        for f in &self.plan.flaps {
            if f.hits(src, dst, now) {
                fault.drop = true;
                fault.delay_ns += f.stall_ns;
            }
        }
        if fault.is_fault() {
            self.trace.lock().push(ChaosEvent::Fault {
                src,
                dst,
                verb,
                n,
                fault,
            });
            // Mirror the decision into the issuing thread's obs trace
            // ring so chrome://tracing shows perturbed verbs inline
            // with the txn/verb spans they disturbed.
            drtm_obs::trace::event(
                drtm_obs::EventKind::Mark,
                "chaos_fault",
                ((src as u64) << 32) | dst as u64,
                now,
            );
        }
        fault
    }
}

impl CrashPointHook for ChaosInjector {
    fn on_point(&self, node: NodeId, point: &'static str, now: u64) -> bool {
        for (i, spec) in self.plan.crashes.iter().enumerate() {
            let CrashSpec {
                node: n,
                point: p,
                hit,
            } = *spec;
            if n != node || p != point {
                continue;
            }
            let passage = self.crash_hits[i].fetch_add(1, Ordering::Relaxed) + 1;
            if passage == hit {
                self.crashed_at.lock().push((node, now));
                self.trace.lock().push(ChaosEvent::Crash {
                    node,
                    point,
                    hit: passage,
                });
                return true;
            }
        }
        false
    }
}
