//! Benchmark-owned spans around the calls the harness makes into each
//! layer, kept in memory and written as chrome-trace JSON when the
//! traced pass ends.
//!
//! The recorder always times (its durations are the harness's clock);
//! it only keeps spans when the traced pass switched it on.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: String,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, workload: &str) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, nested under whichever
    /// span is open. Returns `f`'s value and its duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                workload: self.workload.clone(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the wall time between the first span's start and the
    /// last span's end that top-level spans cover. 1 when nothing was
    /// recorded.
    pub fn top_level_coverage(&self) -> f64 {
        let top = self.spans.iter().filter(|s| s.parent.is_none());
        let (mut lo, mut hi, mut covered) = (u64::MAX, 0u64, 0u64);
        for s in top {
            lo = lo.min(s.start_ns);
            hi = hi.max(s.end_ns);
            covered += s.end_ns - s.start_ns;
        }
        if hi <= lo {
            1.0
        } else {
            covered as f64 / (hi - lo) as f64
        }
    }

    /// Renders the spans as chrome://tracing JSON: one complete event
    /// (`"ph":"X"`, µs) per span, parent and workload under `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", escape(&self.spans[p].name))
            });
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"parent_id\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}}}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                escape(&s.workload),
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out
}

/// Trace-writer checks shared by `perf selftest` and `cargo test`:
/// the export is valid JSON and every child lies inside its parent.
pub fn selftest() -> Result<(), String> {
    let mut rec = Recorder::new(true, "self\"test");
    let ((), outer_s) = rec.span("outer", |r| {
        r.span("first", |_| std::hint::black_box(1 + 1));
        r.span("second", |r| {
            r.span("leaf \\ \"quoted\"", |_| ());
        });
    });
    rec.span("sibling", |_| ());
    if outer_s <= 0.0 {
        return Err("a span has no duration".into());
    }

    let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
    if names != ["outer", "first", "second", "leaf \\ \"quoted\"", "sibling"] {
        return Err(format!("span order {names:?}"));
    }
    let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
    if parents != [None, Some(0), Some(0), Some(2), None] {
        return Err(format!("span parents {parents:?}"));
    }
    for s in rec.spans() {
        if let Some(p) = s.parent {
            let p = &rec.spans()[p];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.end_ns < s.start_ns {
                return Err(format!("span `{}` leaves its parent `{}`", s.name, p.name));
            }
        }
    }
    let cover = rec.top_level_coverage();
    if !(0.0..=1.0).contains(&cover) {
        return Err(format!("coverage {cover}"));
    }

    let json = rec.chrome_json();
    drtm_obs::jsonlint::validate(&json).map_err(|e| format!("chrome trace: {e}"))?;
    let parsed = crate::json::parse(&json)?;
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("no traceEvents array")?;
    if events.len() != 5 {
        return Err(format!("{} events for 5 spans", events.len()));
    }
    // The same nesting must survive the export.
    for e in events {
        let args = e.get("args").ok_or("event without args")?;
        let num = |k: &str| args.get(k).and_then(|v| v.as_f64());
        if let Some(pid) = num("parent_id") {
            let p = events[pid as usize]
                .get("args")
                .ok_or("parent without args")?;
            let pnum = |k: &str| p.get(k).and_then(|v| v.as_f64());
            if num("start_ns") < pnum("start_ns") || num("end_ns") > pnum("end_ns") {
                return Err("exported child leaves its parent".into());
            }
        }
    }
    let mut off = Recorder::new(false, "off");
    off.span("x", |_| ());
    if !off.spans().is_empty() {
        return Err("a recorder that is off kept a span".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn trace_writer() {
        super::selftest().unwrap();
    }
}
