//! In-server time-series ring of periodic telemetry samples.
//!
//! A live `drtm-server` runs a sampler thread that snapshots a handful
//! of cheap gauges/counters (queue depth, in-flight requests, the
//! cumulative accept/reject/complete counts, and the commit/abort mix)
//! every few milliseconds into a fixed-capacity [`TsRing`]. Like the
//! trace ring, overflow drops the *oldest* sample, so the ring always
//! holds the most recent window of server history; a `StatsRequest`
//! with the time-series format, or the final drain, renders it as one
//! JSON object via [`TsRing::render_json`] for plotting queue pressure
//! and abort mix over time next to the request trace.

use std::fmt::Write as _;

use crate::{json, Ring, ABORT_REASONS};

/// One periodic telemetry sample. Gauges are point-in-time; counters
/// are cumulative since server start, so deltas between consecutive
/// samples give rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TsSample {
    /// Wall-clock milliseconds since the trace epoch.
    pub wall_ms: u64,
    /// Submit-queue depth at sample time (gauge).
    pub queue_depth: u64,
    /// Requests admitted but not yet responded to (gauge).
    pub in_flight: u64,
    /// Requests admitted past the queue, cumulative.
    pub accepted: u64,
    /// Requests shed at admission, cumulative.
    pub rejected: u64,
    /// Responses sent, cumulative.
    pub completed: u64,
    /// Engine commits, cumulative.
    pub committed: u64,
    /// Engine aborts (all reasons), cumulative.
    pub aborted: u64,
    /// Cumulative aborts per reason, indexed like [`ABORT_REASONS`].
    pub abort_reasons: [u64; ABORT_REASONS.len()],
}

/// A fixed-capacity ring of [`TsSample`]s; oldest samples are evicted
/// on overflow, `dropped` counting how many.
pub type TsRing = Ring<TsSample>;

impl Ring<TsSample> {
    /// Renders the ring as one JSON object:
    /// `{"dropped":N,"series":[{...sample...},…]}`, each sample
    /// carrying its abort mix keyed by [`ABORT_REASONS`] label.
    pub fn render_json(&self) -> String {
        let (samples, dropped) = self.snapshot();
        let mut out = String::with_capacity(128 + samples.len() * 160);
        let _ = write!(out, "{{\"dropped\":{dropped},\"series\":");
        json::list(&mut out, "[]", &samples, |out, s| {
            let _ = write!(
                out,
                concat!(
                    "{{\"wall_ms\":{},\"queue_depth\":{},\"in_flight\":{},",
                    "\"accepted\":{},\"rejected\":{},\"completed\":{},",
                    "\"committed\":{},\"aborted\":{},\"abort_reasons\":"
                ),
                s.wall_ms,
                s.queue_depth,
                s.in_flight,
                s.accepted,
                s.rejected,
                s.completed,
                s.committed,
                s.aborted,
            );
            let mix = ABORT_REASONS.iter().zip(s.abort_reasons);
            json::list(out, "{}", mix, |out, (reason, n)| {
                json::string(out, reason);
                let _ = write!(out, ":{n}");
            });
            out.push('}');
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> TsSample {
        TsSample {
            wall_ms: t,
            queue_depth: t % 7,
            in_flight: t % 3,
            accepted: t * 10,
            rejected: t,
            completed: t * 9,
            committed: t * 8,
            aborted: t,
            abort_reasons: [t, 0, 0, 0, 0, 0, 0, 0],
        }
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let r = TsRing::new(4);
        for t in 0..10u64 {
            r.push(sample(t));
        }
        let (samples, dropped) = r.snapshot();
        assert_eq!(samples.len(), 4);
        assert_eq!(dropped, 6);
        let ts: Vec<u64> = samples.iter().map(|s| s.wall_ms).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn render_is_valid_json_with_abort_mix() {
        let r = TsRing::new(8);
        for t in 1..4u64 {
            r.push(sample(t));
        }
        let out = r.render_json();
        crate::jsonlint::validate(&out).expect("time-series export must be valid JSON");
        assert!(out.contains("\"dropped\":0"));
        assert!(out.contains("\"wall_ms\":1"));
        assert!(out.contains("\"lock_busy\":3"));
        assert!(out.contains("\"queue_depth\":"));
    }

    #[test]
    fn empty_ring_renders_empty_series() {
        let r = TsRing::new(2);
        let out = r.render_json();
        crate::jsonlint::validate(&out).unwrap();
        assert_eq!(out, "{\"dropped\":0,\"series\":[]}");
    }
}
