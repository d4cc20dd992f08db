//! Structured trace ring.
//!
//! Every thread that emits a trace event gets its own fixed-size ring
//! buffer (registered in a global table on first use), so recording is
//! a short mutex-free-of-contention push into thread-local storage.
//! When a ring is full the oldest event is dropped — never a torn or
//! partial record, because events are pushed whole under the ring's
//! mutex. [`export_chrome_json`] renders every ring as chrome://tracing
//! JSON, sorted so each thread's timestamps are non-decreasing.
//!
//! # Request-scoped spans and flows
//!
//! Beyond point-in-time instants, events carry a chrome [`EvPhase`]: a
//! request that was head-sampled (see [`trace_for`]) gets async span
//! begin/end pairs (`"ph":"b"/"e"`), per-phase complete events
//! (`"ph":"X"` with an explicit duration), and flow events
//! (`"ph":"s"/"t"/"f"`) that stitch the client-send, queue-wait,
//! routine, and commit-phase spans of one transaction into a single
//! causal arrow in the viewer — all bound by one non-zero trace id.
//! Dropping any individual record to ring wrap never corrupts the
//! export: every record renders as a self-contained JSON object, and a
//! viewer simply shows an unmatched end or flow step.
//!
//! Wall timestamps are relative to the *process* trace epoch, so spans
//! from different processes only align when client and server share a
//! process (the `drtm-shell` harnesses and tests); across real
//! processes the flow ids still link the spans logically.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use drtm_base::sync::Mutex;

use crate::{enabled, json, Ring};

/// Default per-thread ring capacity (events). At ~48 bytes per event
/// this bounds each thread to ~1.5 MiB of trace memory.
pub const DEFAULT_RING_CAP: usize = 1 << 15;

/// What happened. Categories group related kinds in trace viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction attempt started.
    TxnBegin,
    /// A transaction committed.
    TxnCommit,
    /// A transaction attempt aborted.
    TxnAbort,
    /// An RDMA verb was issued on a QP.
    VerbIssue,
    /// An RDMA verb completed.
    VerbComplete,
    /// A lease was renewed.
    LeaseRenew,
    /// A lease was revoked or observed expired.
    LeaseExpire,
    /// A chaos crash-point hook fired.
    CrashPoint,
    /// A recovery milestone (suspect, reconfig, replay, done).
    Recovery,
    /// A serving-tier event (accept, admit, reject, drain).
    Net,
    /// A commit-protocol phase span of a traced request (label is the
    /// `drtm_obs::Phase` name: execute, lock, … unlock).
    Phase,
    /// A contention-ladder event (pessimistic escalation, park, grant,
    /// park-timeout; DESIGN.md §15).
    Contention,
    /// Free-form marker.
    Mark,
}

impl EventKind {
    /// Stable label used as the chrome event name prefix.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxnBegin => "txn_begin",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::VerbIssue => "verb_issue",
            EventKind::VerbComplete => "verb_complete",
            EventKind::LeaseRenew => "lease_renew",
            EventKind::LeaseExpire => "lease_expire",
            EventKind::CrashPoint => "crash_point",
            EventKind::Recovery => "recovery",
            EventKind::Net => "net",
            EventKind::Phase => "phase",
            EventKind::Contention => "contention",
            EventKind::Mark => "mark",
        }
    }

    /// chrome://tracing category.
    pub fn cat(self) -> &'static str {
        match self {
            EventKind::TxnBegin | EventKind::TxnCommit | EventKind::TxnAbort | EventKind::Phase => {
                "txn"
            }
            EventKind::VerbIssue | EventKind::VerbComplete => "verb",
            EventKind::LeaseRenew | EventKind::LeaseExpire => "lease",
            EventKind::CrashPoint => "chaos",
            EventKind::Recovery => "recovery",
            EventKind::Net => "net",
            EventKind::Contention => "contention",
            EventKind::Mark => "mark",
        }
    }
}

/// chrome://tracing phase of a record: how the viewer renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvPhase {
    /// Thread-scoped instant (`"ph":"i"`).
    Instant,
    /// Async span begin (`"ph":"b"`), paired with an [`EvPhase::End`]
    /// carrying the same trace id and name.
    Begin,
    /// Async span end (`"ph":"e"`).
    End,
    /// Complete span (`"ph":"X"`): explicit start timestamp + duration.
    Complete,
    /// Flow arrow start (`"ph":"s"`), bound by trace id.
    FlowStart,
    /// Flow arrow step (`"ph":"t"`).
    FlowStep,
    /// Flow arrow end (`"ph":"f"`).
    FlowEnd,
}

impl EvPhase {
    /// The chrome://tracing `ph` letter.
    pub fn letter(self) -> char {
        match self {
            EvPhase::Instant => 'i',
            EvPhase::Begin => 'b',
            EvPhase::End => 'e',
            EvPhase::Complete => 'X',
            EvPhase::FlowStart => 's',
            EvPhase::FlowStep => 't',
            EvPhase::FlowEnd => 'f',
        }
    }
}

/// One trace record. `Copy` and fixed-size: pushing an event never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Static detail label (verb name, crash point, abort reason…).
    pub label: &'static str,
    /// How the record renders ([`EvPhase::Instant`] for plain events).
    pub ph: EvPhase,
    /// Trace id binding spans/flows of one request (0 = untraced).
    pub id: u64,
    /// Free numeric argument (txn id, node id, duration…).
    pub arg: u64,
    /// Doorbell batch the event belongs to (verb events; 0 = unbatched).
    /// Groups the WRs of one doorbell across issue/complete pairs.
    pub batch: u64,
    /// Wall-clock nanoseconds since the process trace epoch. For
    /// [`EvPhase::Complete`] this is the span *start*.
    pub wall_ns: u64,
    /// Span duration in wall ns ([`EvPhase::Complete`] only, else 0).
    pub dur_ns: u64,
    /// Emitting worker's virtual clock, ns (0 when not applicable).
    pub virt_ns: u64,
}

/// A fixed-capacity event ring. Oldest events are evicted on overflow;
/// `dropped` counts how many.
pub type TraceRing = Ring<TraceEvent>;

/// Process-wide trace epoch: all wall timestamps are relative to the
/// first event ever recorded, keeping exported numbers small.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn wall_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One registered per-thread trace stream: `(thread tag, ring)`.
type RingTable = Vec<(u64, Arc<TraceRing>)>;

/// Global table of per-thread rings, appended on each thread's first
/// event. Rings outlive their threads so a post-run export sees
/// everything.
static RINGS: OnceLock<Mutex<RingTable>> = OnceLock::new();
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

fn rings() -> &'static Mutex<RingTable> {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: (u64, Arc<TraceRing>) = {
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(TraceRing::new(DEFAULT_RING_CAP));
        rings().lock().push((tag, Arc::clone(&ring)));
        (tag, ring)
    };
}

/// Default head-sampling period: one request in this many is traced.
/// CI's `obs-overhead` job runs at this rate, but compares virtual-time
/// throughput, which recording cannot move: it checks that tracing
/// changes no virtual number, not what recording costs the host
/// (ROADMAP item 2).
pub const DEFAULT_SAMPLE_EVERY: u64 = 32;

/// Head-sampling period; 0 means "read `DRTM_TRACE_SAMPLE` on first
/// use" so processes can be tuned without a flag.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);

/// The current head-sampling period (requests per traced request).
/// Initialized from `DRTM_TRACE_SAMPLE` (≥1) on first call, defaulting
/// to [`DEFAULT_SAMPLE_EVERY`].
pub fn sample_every() -> u64 {
    let v = SAMPLE_EVERY.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let init = std::env::var("DRTM_TRACE_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_SAMPLE_EVERY);
    SAMPLE_EVERY.store(init, Ordering::Relaxed);
    init
}

/// Overrides the head-sampling period (clamped to ≥1). `1` traces
/// every request — useful for the single-request acceptance path.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

/// A request id's low `RUN_BITS` bits count the requests of one client
/// run from 0; the bits above tell the runs of one process apart, so
/// that two runs never share a trace id.
pub const RUN_BITS: u32 = 40;

/// Deterministic head-sampling decision for a request id. Pure in
/// (id, period), so the client that stamps the id and the server that
/// decodes it reach the same verdict with no extra wire bit. It reads
/// the count within the run ([`RUN_BITS`]), so every run's first
/// request is sampled, and one in `every` of the rest.
pub fn head_sample(id: u64) -> bool {
    let every = sample_every();
    every <= 1 || (id & ((1 << RUN_BITS) - 1)).is_multiple_of(every)
}

/// The trace id for a request id: `id + 1` when head-sampled (trace
/// ids are non-zero by construction), 0 (untraced) otherwise.
pub fn trace_for(id: u64) -> u64 {
    if head_sample(id) {
        id + 1
    } else {
        0
    }
}

/// Records one event into the calling thread's ring. A no-op when
/// recording is compiled out.
#[inline]
pub fn event(kind: EventKind, label: &'static str, arg: u64, virt_ns: u64) {
    instant(kind, label, arg, 0, 0, virt_ns);
}

/// Records one event carrying a doorbell batch id (verb events emitted
/// by the fabric's batched work-queue path). A no-op when recording is
/// disabled.
#[inline]
pub fn event_batch(kind: EventKind, label: &'static str, arg: u64, batch: u64, virt_ns: u64) {
    instant(kind, label, arg, batch, 0, virt_ns);
}

/// Records an instant event carrying a trace id, so per-request
/// instants (txn begin/commit/abort) join the request's span tree.
/// With `trace == 0` this is identical to [`event`].
#[inline]
pub fn event_id(kind: EventKind, label: &'static str, arg: u64, trace: u64, virt_ns: u64) {
    instant(kind, label, arg, 0, trace, virt_ns);
}

#[inline]
fn instant(kind: EventKind, label: &'static str, arg: u64, batch: u64, id: u64, virt_ns: u64) {
    if !enabled() {
        return;
    }
    push(TraceEvent {
        kind,
        label,
        ph: EvPhase::Instant,
        id,
        arg,
        batch,
        wall_ns: wall_ns(),
        dur_ns: 0,
        virt_ns,
    });
}

/// Opens an async span bound to `trace`. No-op when untraced
/// (`trace == 0`) or recording is disabled.
#[inline]
pub fn span_begin(kind: EventKind, label: &'static str, trace: u64, virt_ns: u64) {
    span_edge(kind, label, EvPhase::Begin, trace, virt_ns);
}

/// Closes the async span opened by [`span_begin`] with the same
/// (kind, label, trace). No-op when untraced or disabled.
#[inline]
pub fn span_end(kind: EventKind, label: &'static str, trace: u64, virt_ns: u64) {
    span_edge(kind, label, EvPhase::End, trace, virt_ns);
}

#[inline]
fn span_edge(kind: EventKind, label: &'static str, ph: EvPhase, trace: u64, virt_ns: u64) {
    if trace == 0 || !enabled() {
        return;
    }
    push(TraceEvent {
        kind,
        label,
        ph,
        id: trace,
        arg: 0,
        batch: 0,
        wall_ns: wall_ns(),
        dur_ns: 0,
        virt_ns,
    });
}

/// Records a complete span (`"ph":"X"`) with an explicit wall start
/// and duration — the commit path uses this for the C.1–C.6/R.1–R.2
/// phase spans, where the boundaries are known only after the fact.
/// No-op when untraced or disabled.
#[inline]
pub fn span_complete(
    kind: EventKind,
    label: &'static str,
    trace: u64,
    wall_start_ns: u64,
    dur_ns: u64,
    virt_ns: u64,
) {
    if trace == 0 || !enabled() {
        return;
    }
    push(TraceEvent {
        kind,
        label,
        ph: EvPhase::Complete,
        id: trace,
        arg: 0,
        batch: 0,
        wall_ns: wall_start_ns,
        dur_ns,
        virt_ns,
    });
}

/// Label shared by all flow records of a request: chrome binds flow
/// arrows by (category, name, id), so every s/t/f step must carry the
/// same name.
pub const FLOW_LABEL: &str = "req";

/// Starts the per-request flow arrow (client send).
#[inline]
pub fn flow_start(trace: u64, virt_ns: u64) {
    flow_edge(EvPhase::FlowStart, trace, virt_ns);
}

/// A flow step (admission, routine pickup, response).
#[inline]
pub fn flow_step(trace: u64, virt_ns: u64) {
    flow_edge(EvPhase::FlowStep, trace, virt_ns);
}

/// Ends the per-request flow arrow (client receive).
#[inline]
pub fn flow_end(trace: u64, virt_ns: u64) {
    flow_edge(EvPhase::FlowEnd, trace, virt_ns);
}

#[inline]
fn flow_edge(ph: EvPhase, trace: u64, virt_ns: u64) {
    span_edge(EventKind::Net, FLOW_LABEL, ph, trace, virt_ns);
}

#[inline]
fn push(ev: TraceEvent) {
    LOCAL.with(|(_, ring)| ring.push(ev));
}

/// Clears every registered ring (keeps the rings themselves).
pub fn clear_all() {
    for (_, ring) in rings().lock().iter() {
        ring.clear();
    }
}

/// Total events currently buffered across all threads.
pub fn buffered() -> usize {
    rings().lock().iter().map(|(_, r)| r.len()).sum()
}

fn write_event(out: &mut String, tid: u64, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    json::escape(out, ev.kind.name());
    if !ev.label.is_empty() {
        out.push(':');
        json::escape(out, ev.label);
    }
    out.push_str("\",\"cat\":");
    json::string(out, ev.kind.cat());
    let _ = write!(out, ",\"ph\":\"{}\"", ev.ph.letter());
    if ev.ph == EvPhase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if ev.ph == EvPhase::Complete {
        // chrome://tracing durations are microseconds, like ts.
        out.push_str(",\"dur\":");
        json::number(out, ev.dur_ns as f64 / 1_000.0, 3);
    }
    if ev.id != 0 {
        // Spans and flows bind by this id; instants merely carry it so
        // a request's whole record set greps by one value.
        let _ = write!(out, ",\"id\":\"{}\"", ev.id);
    }
    // chrome://tracing wants microseconds; keep ns precision with
    // three decimals.
    let _ = write!(out, ",\"pid\":1,\"tid\":{tid},\"ts\":");
    json::number(out, ev.wall_ns as f64 / 1_000.0, 3);
    let _ = write!(
        out,
        ",\"args\":{{\"virt_ns\":{},\"arg\":{},\"batch\":{}}}}}",
        ev.virt_ns, ev.arg, ev.batch
    );
}

/// Renders a set of (tid, events) streams as chrome://tracing JSON.
/// Each stream is sorted by wall time first, so per-thread timestamps
/// are non-decreasing in the output.
pub fn render_chrome_json(streams: &[(u64, Vec<TraceEvent>)]) -> String {
    render_chrome_json_meta(streams, None)
}

/// [`render_chrome_json`] with an optional pre-rendered JSON *object*
/// spliced in as a top-level `"meta"` key — the artifact stamp (git
/// rev, UTC timestamp, run config) produced by `drtm-bench`. The
/// caller guarantees `meta` is itself valid JSON; exports are still
/// checked by `jsonlint` before they are written.
pub fn render_chrome_json_meta(streams: &[(u64, Vec<TraceEvent>)], meta: Option<&str>) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",");
    if let Some(m) = meta {
        out.push_str("\"meta\":");
        out.push_str(m);
        out.push(',');
    }
    out.push_str("\"traceEvents\":[");
    let mut first = true;
    for (tid, events) in streams {
        let mut evs = events.clone();
        evs.sort_by_key(|e| e.wall_ns);
        for ev in &evs {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            write_event(&mut out, *tid, ev);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Exports every registered ring as chrome://tracing JSON.
pub fn export_chrome_json() -> String {
    render_chrome_json(&export_streams())
}

/// [`export_chrome_json`] with a top-level `"meta"` stamp object.
pub fn export_chrome_json_meta(meta: &str) -> String {
    render_chrome_json_meta(&export_streams(), Some(meta))
}

/// Snapshots every registered ring as `(thread tag, events)` streams —
/// the raw form of [`export_chrome_json`], for programmatic assertions.
pub fn export_streams() -> Vec<(u64, Vec<TraceEvent>)> {
    rings()
        .lock()
        .iter()
        .map(|(tag, ring)| (*tag, ring.snapshot().0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(wall_ns: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Mark,
            label: "t",
            ph: EvPhase::Instant,
            id: 0,
            arg,
            batch: 0,
            wall_ns,
            dur_ns: 0,
            virt_ns: 0,
        }
    }

    fn span(ph: EvPhase, id: u64, wall_ns: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Net,
            label: "queue",
            ph,
            id,
            arg: 0,
            batch: 0,
            wall_ns,
            dur_ns: if ph == EvPhase::Complete { 10 } else { 0 },
            virt_ns: 0,
        }
    }

    #[test]
    fn ring_wraps_dropping_oldest_never_torn() {
        // Satellite: overflow drops the *oldest* whole events; the
        // survivors are exactly the newest `cap` in order.
        let r = TraceRing::new(8);
        for i in 0..100u64 {
            r.push(ev(i, i));
        }
        let (evs, dropped) = r.snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(dropped, 92);
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraparound_under_concurrency_is_never_torn() {
        // Many writers hammer one small ring while a reader snapshots:
        // every observed event must be one that some writer pushed
        // (arg == wall_ns by construction — a torn record would break
        // that invariant), and the final drop count must reconcile.
        let r = Arc::new(TraceRing::new(16));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let v = w * 1_000_000 + i;
                        r.push(ev(v, v));
                    }
                })
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let (evs, _) = r.snapshot();
                    assert!(evs.len() <= 16);
                    for e in evs {
                        assert_eq!(e.arg, e.wall_ns, "torn event observed");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let (evs, dropped) = r.snapshot();
        assert_eq!(evs.len() as u64 + dropped, 4 * 5_000);
    }

    #[test]
    fn clear_resets_ring_and_drop_counter() {
        let r = TraceRing::new(2);
        for i in 0..5u64 {
            r.push(ev(i, i));
        }
        r.clear();
        let (evs, dropped) = r.snapshot();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_sorted_timestamps() {
        // Satellite (CI): the export parses as well-formed JSON and
        // per-thread timestamps are non-decreasing even when events
        // were recorded out of order.
        let events = vec![ev(3_000, 1), ev(1_000, 2), ev(2_000, 3)];
        let out = render_chrome_json(&[(7, events)]);
        crate::jsonlint::validate(&out).expect("export must be valid JSON");
        // Extract the ts values in output order.
        let ts: Vec<f64> = out
            .match_indices("\"ts\":")
            .map(|(i, _)| {
                let rest = &out[i + 5..];
                let end = rest.find(',').unwrap();
                rest[..end].parse::<f64>().unwrap()
            })
            .collect();
        assert_eq!(ts.len(), 3);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
        assert_eq!(ts, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn global_event_lands_in_this_threads_ring_and_exports() {
        // Run in a dedicated thread so other tests' events in this
        // thread's ring can't interfere with the count we assert on.
        std::thread::spawn(|| {
            event(EventKind::Mark, "export_probe", 42, 7);
            event(EventKind::CrashPoint, "C.1", 1, 8);
            let out = export_chrome_json();
            crate::jsonlint::validate(&out).unwrap();
            assert!(out.contains("mark:export_probe"));
            assert!(out.contains("crash_point:C.1"));
            assert!(out.contains("\"virt_ns\":7"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn labels_are_escaped() {
        let e = TraceEvent {
            kind: EventKind::Mark,
            label: "quote\"back\\slash",
            ph: EvPhase::Instant,
            id: 0,
            arg: 0,
            batch: 0,
            wall_ns: 1,
            virt_ns: 0,
            dur_ns: 0,
        };
        let out = render_chrome_json(&[(1, vec![e])]);
        crate::jsonlint::validate(&out).expect("escaped export must stay valid");
    }

    #[test]
    fn head_sampling_is_deterministic_and_covers_first_request() {
        set_sample_every(8);
        assert_eq!(sample_every(), 8);
        // Request id 0 (the single-request acceptance path) is always
        // sampled, and the decision is a pure function of the id.
        assert!(head_sample(0));
        assert!(!head_sample(1));
        assert!(head_sample(8));
        assert_eq!(trace_for(0), 1, "trace ids are non-zero");
        assert_eq!(trace_for(1), 0);
        assert_eq!(trace_for(8), 9);
        // A later run's requests sample as the first run's do.
        assert!(head_sample(3 << RUN_BITS) && !head_sample((3 << RUN_BITS) + 1));
        set_sample_every(1);
        assert!((0..10).all(head_sample), "period 1 traces everything");
        // Leave the period at the compile-time default for other tests.
        set_sample_every(DEFAULT_SAMPLE_EVERY);
    }

    #[test]
    fn span_flow_and_complete_records_render_valid_json() {
        let events = vec![
            span(EvPhase::Begin, 5, 100),
            span(EvPhase::FlowStart, 5, 110),
            span(EvPhase::FlowStep, 5, 150),
            span(EvPhase::Complete, 5, 160),
            span(EvPhase::FlowEnd, 5, 190),
            span(EvPhase::End, 5, 200),
        ];
        let out = render_chrome_json(&[(3, events)]);
        crate::jsonlint::validate(&out).expect("span export must be valid JSON");
        for ph in [
            "\"ph\":\"b\"",
            "\"ph\":\"e\"",
            "\"ph\":\"X\"",
            "\"ph\":\"s\"",
            "\"ph\":\"t\"",
            "\"ph\":\"f\"",
        ] {
            assert!(out.contains(ph), "missing {ph} in {out}");
        }
        assert!(out.contains("\"id\":\"5\""));
        assert!(out.contains("\"dur\":0.010"));
    }

    #[test]
    fn meta_stamp_splices_as_top_level_object() {
        let out = render_chrome_json_meta(&[(1, vec![ev(1, 1)])], Some("{\"git_rev\":\"abc\"}"));
        crate::jsonlint::validate(&out).expect("stamped export must be valid JSON");
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"meta\":{\"git_rev\":\"abc\"},"));
    }

    #[test]
    fn wrap_dropped_begin_span_still_exports_valid_json() {
        // Satellite: property-style sweep over ring capacities and
        // filler counts. The begin record of a span falls off the ring
        // to wrap while its end + flow records survive — the export
        // must still be valid chrome JSON (unmatched ends are a viewer
        // concern, never a corruption concern).
        for cap in [2usize, 3, 5, 8] {
            for filler in [0u64, 1, 4, 16, 64] {
                let r = TraceRing::new(cap);
                r.push(span(EvPhase::Begin, 9, 10));
                r.push(span(EvPhase::FlowStart, 9, 11));
                for i in 0..filler {
                    r.push(ev(20 + i, i));
                }
                r.push(span(EvPhase::FlowEnd, 9, 100 + filler));
                r.push(span(EvPhase::End, 9, 101 + filler));
                let (evs, dropped) = r.snapshot();
                let begin_survived = evs.iter().any(|e| e.ph == EvPhase::Begin);
                assert!(
                    filler + 4 <= cap as u64 || dropped > 0,
                    "cap {cap} filler {filler}: expected wrap"
                );
                // The end records were pushed last, so they always survive.
                assert!(evs.iter().any(|e| e.ph == EvPhase::End));
                assert!(evs.iter().any(|e| e.ph == EvPhase::FlowEnd));
                let out = render_chrome_json(&[(1, evs)]);
                crate::jsonlint::validate(&out).unwrap_or_else(|e| {
                    panic!("cap {cap} filler {filler} (begin_survived {begin_survived}): {e}")
                });
                assert!(out.contains("\"ph\":\"e\""));
            }
        }
    }
}
