//! Exposition: renders a [`Snapshot`] as Prometheus text, JSON, or a
//! human-readable table. The first two are loops over one table of
//! rows (DESIGN.md §6), so they cannot disagree about what exists; the
//! naming rules are the test `table_follows_the_naming_rules`.

use std::fmt::Write as _;

use crate::json;
use crate::registry::{HistSummary, Snapshot};

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and newline must be escaped inside the
/// quoted value or the series line is unparseable.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `label="value"`, the value escaped.
fn prom_label(label: &str, value: impl std::fmt::Display) -> String {
    format!("{label}=\"{}\"", prom_escape(&value.to_string()))
}

/// One series line, `name{labels} value`; no braces without labels.
fn prom_line(out: &mut String, name: &str, labels: &str, value: impl std::fmt::Display) {
    let _ = match labels {
        "" => writeln!(out, "{name} {value}"),
        _ => writeln!(out, "{name}{{{labels}}} {value}"),
    };
}

fn prom_summary(out: &mut String, name: &str, labels: &str, h: &HistSummary) {
    let comma = if labels.is_empty() { "" } else { "," };
    for (quantile, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
        let labels = format!("{labels}{comma}quantile=\"{quantile}\"");
        prom_line(out, name, &labels, v);
    }
    prom_line(out, &format!("{name}_sum"), labels, h.sum);
    prom_line(out, &format!("{name}_count"), labels, h.count);
}

/// How an exposition row reads its value out of a [`Snapshot`]. The
/// variant is also the row's Prometheus type and its JSON shape.
#[derive(Clone, Copy)]
pub(crate) enum Get {
    /// Monotone integer: a `counter`.
    Count(fn(&Snapshot) -> u64),
    /// Point-in-time integer: a `gauge`.
    Gauge(fn(&Snapshot) -> u64),
    /// Derived fraction or mean, four decimals: a `gauge`.
    Ratio(fn(&Snapshot) -> f64),
    /// Boolean: a 0/1 `gauge`, `true`/`false` in JSON.
    Flag(fn(&Snapshot) -> bool),
    /// One histogram: a `summary`, an object of its fields in JSON.
    Hist(fn(&Snapshot) -> &HistSummary),
    /// `counter` family under the named label; a JSON object by label.
    Counts(&'static str, fn(&Snapshot) -> &[(&'static str, u64)]),
    /// `summary` family under the named label; a JSON object by label.
    Hists(
        &'static str,
        fn(&Snapshot) -> &[(&'static str, HistSummary)],
    ),
    /// `gauge` family labelled by position; a JSON array.
    Gauges(&'static str, fn(&Snapshot) -> &[u64]),
}

/// One exposed metric: where it sits in the JSON document (`section`
/// is empty at the top level), its Prometheus series name, its getter.
pub(crate) struct Row {
    pub(crate) section: &'static str,
    pub(crate) key: &'static str,
    pub(crate) prom: &'static str,
    pub(crate) get: Get,
}

/// Declares [`ROWS`], one `section key prometheus-name Getter(..);` row
/// per metric, in JSON document order. The rows are a macro's own
/// syntax rather than struct literals or constructor calls because
/// rustfmt leaves a braced macro invocation alone: it expands the same
/// table written as expressions to five lines a row.
macro_rules! sections {
    ($($section:literal $key:literal $prom:literal $kind:ident($($get:tt)*);)*) => {
        /// Every metric of the Prometheus and JSON forms except the
        /// three per-node tails (`nic`, `nic_bytes`, `machines`).
        pub(crate) static ROWS: &[Row] = &[$(Row {
            section: $section,
            key: $key,
            prom: $prom,
            get: Get::$kind($($get)*),
        }),*];
    };
}

sections! {
    ""           "committed"      "drtm_txn_committed_total"          Count(|s| s.committed);
    ""           "aborted"        "drtm_txn_aborted_total"            Count(|s| s.aborted);
    ""           "fallbacks"      "drtm_txn_fallback_total"           Count(|s| s.fallbacks);
    ""           "user_aborts"    "drtm_txn_user_abort_total"         Count(|s| s.user_aborts);
    ""           "latency_ns"     "drtm_txn_latency_ns"               Hist(|s| &s.latency);
    ""           "phases_ns"      "drtm_commit_phase_ns"              Hists("phase", |s| &s.phases);
    ""           "phase_waits_ns" "drtm_commit_phase_wait_ns"         Hists("phase", |s| &s.phase_waits);
    "pipeline"   "routines"       "drtm_routines"                     Gauge(|s| s.pipeline.routines);
    "pipeline"   "wait_ns"        "drtm_verb_wait_ns_total"           Count(|s| s.pipeline.wait_ns);
    "pipeline"   "overlap_ns"     "drtm_verb_overlap_ns_total"        Count(|s| s.pipeline.overlap_ns);
    "pipeline"   "hiding_ratio"   "drtm_latency_hiding_ratio"         Ratio(|s| s.pipeline.hiding_ratio());
    "pipeline"   "wakes"          "drtm_reactor_wakes_total"          Count(|s| s.pipeline.wakes);
    "pipeline"   "depth_avg"      "drtm_reactor_depth_avg"            Ratio(|s| s.pipeline.avg_depth());
    "pipeline"   "wake_lag_ns"    "drtm_reactor_wake_lag_ns_total"    Count(|s| s.pipeline.wake_lag_ns);
    "contention" "pessimistic"    "drtm_contention_pessimistic_total" Count(|s| s.contention.pessimistic);
    "contention" "parks"          "drtm_contention_park_total"        Count(|s| s.contention.parks);
    "contention" "unparks"        "drtm_contention_unpark_total"      Count(|s| s.contention.unparks);
    "contention" "grants"         "drtm_contention_grant_total"       Count(|s| s.contention.grants);
    "contention" "waiters"        "drtm_contention_waiters"           Gauge(|s| s.contention.waiting());
    "contention" "parked_ns"      "drtm_contention_parked_ns"         Hist(|s| &s.contention.parked_ns);
    "net"        "conns_opened"   "drtm_net_conns_opened_total"       Count(|s| s.net.conns_opened);
    "net"        "conns_closed"   "drtm_net_conns_closed_total"       Count(|s| s.net.conns_closed);
    "net"        "accepted"       "drtm_net_accepted_total"           Count(|s| s.net.accepted);
    "net"        "rejected"       "drtm_net_rejected_total"           Count(|s| s.net.rejected);
    "net"        "completed"      "drtm_net_completed_total"          Count(|s| s.net.completed);
    "net"        "in_flight"      "drtm_net_in_flight"                Gauge(|s| s.net.in_flight);
    "net"        "queue_depth"    "drtm_net_queue_depth"              Gauge(|s| s.net.queue_depth);
    "net"        "queue_wait_ns"  "drtm_net_queue_wait_ns"            Hist(|s| &s.net.queue_wait_ns);
    "route"      "enabled"        "drtm_route_enabled"                Flag(|s| s.route.enabled);
    "route"      "local"          "drtm_route_local_total"            Count(|s| s.route.local);
    "route"      "remote"         "drtm_route_remote_total"           Count(|s| s.route.remote);
    "route"      "steals"         "drtm_route_steal_total"            Count(|s| s.route.steals);
    "route"      "shed_queue"     "drtm_route_shed_queue_total"       Count(|s| s.route.shed_queue);
    "route"      "shed_global"    "drtm_route_shed_global_total"      Count(|s| s.route.shed_global);
    "route"      "depths"         "drtm_route_queue_depth"            Gauges("pool", |s| &s.route.depths);
    ""           "aborts"         "drtm_txn_abort_total"              Counts("reason", |s| &s.aborts);
    ""           "htm_aborts"     "drtm_htm_abort_total"              Counts("class", |s| &s.htm);
    "cache"      "hits"           "drtm_cache_hit_total"              Count(|s| s.cache.hits);
    "cache"      "misses"         "drtm_cache_miss_total"             Count(|s| s.cache.misses);
    "cache"      "invalidations"  "drtm_cache_invalidation_total"     Count(|s| s.cache.invalidations);
    "cache"      "bytes_saved"    "drtm_cache_bytes_saved_total"      Count(|s| s.cache.bytes_saved);
}

/// Every single-valued row as `(section, key, value)`, flags as 0/1 —
/// the table as other crates may read it (the experiment catalogue
/// resolves recorded scalars by these names instead of listing them).
pub fn scalars(s: &Snapshot) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
    ROWS.iter().filter_map(move |row| {
        let value = match row.get {
            Get::Count(get) | Get::Gauge(get) => get(s) as f64,
            Get::Ratio(get) => get(s),
            Get::Flag(get) => f64::from(u8::from(get(s))),
            _ => return None,
        };
        Some((row.section, row.key, value))
    })
}

/// The single-valued row at `section` / `key` (`""` for the top level),
/// `None` when the table has no such row or it is a summary or family.
pub fn scalar(s: &Snapshot, section: &str, key: &str) -> Option<f64> {
    let mut rows = scalars(s);
    rows.find(|r| r.0 == section && r.1 == key).map(|r| r.2)
}

/// Prometheus-style text exposition: the table's rows in order, then
/// the per-node tails.
pub fn render_prometheus(s: &Snapshot) -> String {
    let mut out = String::with_capacity(8192);
    for &Row { prom, get, .. } in ROWS {
        let kind = match get {
            Get::Count(_) | Get::Counts(..) => "counter",
            Get::Gauge(_) | Get::Ratio(_) | Get::Flag(_) | Get::Gauges(..) => "gauge",
            Get::Hist(_) | Get::Hists(..) => "summary",
        };
        let _ = writeln!(out, "# TYPE {prom} {kind}");
        match get {
            Get::Count(get) | Get::Gauge(get) => prom_line(&mut out, prom, "", get(s)),
            Get::Ratio(get) => prom_line(&mut out, prom, "", format_args!("{:.4}", get(s))),
            Get::Flag(get) => prom_line(&mut out, prom, "", get(s) as u8),
            Get::Hist(get) => prom_summary(&mut out, prom, "", get(s)),
            Get::Counts(label, get) => {
                for (value, n) in get(s) {
                    prom_line(&mut out, prom, &prom_label(label, value), n);
                }
            }
            Get::Hists(label, get) => {
                for (value, h) in get(s) {
                    prom_summary(&mut out, prom, &prom_label(label, value), h);
                }
            }
            Get::Gauges(label, get) => {
                for (i, v) in get(s).iter().enumerate() {
                    prom_line(&mut out, prom, &prom_label(label, i), v);
                }
            }
        }
    }
    out.push_str("# TYPE drtm_nic_verbs_total counter\n");
    for row in &s.nic {
        let labels = [prom_label("node", row.node), prom_label("verb", row.verb)].join(",");
        prom_line(&mut out, "drtm_nic_verbs_total", &labels, row.count);
    }
    out.push_str("# TYPE drtm_nic_bytes_total counter\n");
    for (node, bytes) in &s.nic_bytes {
        prom_line(
            &mut out,
            "drtm_nic_bytes_total",
            &prom_label("node", node),
            bytes,
        );
    }
    out.push_str("# TYPE drtm_machine_committed_total counter\n");
    for m in &s.machines {
        let node = prom_label("node", m.node);
        prom_line(&mut out, "drtm_machine_committed_total", &node, m.committed);
    }
    out.push_str("# TYPE drtm_machine_alive gauge\n");
    for m in &s.machines {
        let node = prom_label("node", m.node);
        prom_line(&mut out, "drtm_machine_alive", &node, m.alive as u8);
    }
    out
}

fn json_summary(out: &mut String, h: &HistSummary) {
    let _ = write!(out, "{{\"count\":{},\"sum\":{},\"mean\":", h.count, h.sum);
    json::number(out, h.mean, 3);
    let _ = write!(
        out,
        ",\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
        h.p50, h.p99, h.p999, h.max
    );
}

/// JSON exposition (guaranteed to pass [`crate::jsonlint::validate`]):
/// the table's rows in order, each run of one section wrapped in an
/// object of that name, then the per-node tails.
pub fn render_json(s: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    let mut section = "";
    // Every member is written with a trailing comma; closing a section
    // trades its last one for the brace.
    let close = |out: &mut String, section: &str| {
        if !section.is_empty() {
            out.pop();
            out.push_str("},");
        }
    };
    for row in ROWS {
        if row.section != section {
            close(&mut out, section);
            section = row.section;
            if !section.is_empty() {
                out.extend(["\"", section, "\":{"]);
            }
        }
        out.extend(["\"", row.key, "\":"]);
        match row.get {
            Get::Count(get) | Get::Gauge(get) => {
                let _ = write!(out, "{}", get(s));
            }
            Get::Ratio(get) => json::number(&mut out, get(s), 4),
            Get::Flag(get) => {
                let _ = write!(out, "{}", get(s));
            }
            Get::Hist(get) => json_summary(&mut out, get(s)),
            Get::Counts(_, get) => json::list(&mut out, "{}", get(s), |out, (label, n)| {
                json::string(out, label);
                let _ = write!(out, ":{n}");
            }),
            Get::Hists(_, get) => json::list(&mut out, "{}", get(s), |out, (label, h)| {
                json::string(out, label);
                out.push(':');
                json_summary(out, h);
            }),
            Get::Gauges(_, get) => json::list(&mut out, "[]", get(s), |out, v| {
                let _ = write!(out, "{v}");
            }),
        }
        out.push(',');
    }
    close(&mut out, section);
    out.push_str("\"nic\":");
    json::list(&mut out, "[]", &s.nic, |out, row| {
        let _ = write!(out, "{{\"node\":{},\"verb\":", row.node);
        json::string(out, row.verb);
        let _ = write!(out, ",\"count\":{}}}", row.count);
    });
    out.push_str(",\"nic_bytes\":");
    json::list(&mut out, "[]", &s.nic_bytes, |out, (node, bytes)| {
        let _ = write!(out, "{{\"node\":{node},\"bytes\":{bytes}}}");
    });
    out.push_str(",\"machines\":");
    json::list(&mut out, "[]", &s.machines, |out, m| {
        let _ = write!(
            out,
            "{{\"node\":{},\"committed\":{},\"aborted\":{},\"fallbacks\":{},\"alive\":{}}}",
            m.node, m.committed, m.aborted, m.fallbacks, m.alive
        );
    });
    out.push('}');
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Human-readable table exposition (the default `drtm-shell stats`).
pub fn render_text(s: &Snapshot) -> String {
    let mut out = String::with_capacity(2048);
    let attempts = s.committed + s.aborted;
    let abort_rate = if attempts > 0 {
        s.aborted as f64 / attempts as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "txns: {} committed, {} aborted attempts ({:.1}% abort rate), {} fallback, {} user-abort",
        s.committed, s.aborted, abort_rate, s.fallbacks, s.user_aborts
    );
    let _ = writeln!(
        out,
        "latency (virtual): mean {:.1} us, p50 {:.1} us, p99 {:.1} us",
        s.latency.mean / 1_000.0,
        us(s.latency.p50),
        us(s.latency.p99)
    );
    let _ = writeln!(
        out,
        "\n{:<10} {:>10} {:>12} {:>12} {:>12}",
        "phase", "count", "mean us", "p50 us", "p99 us"
    );
    for (phase, h) in &s.phases {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12.2} {:>12.2} {:>12.2}",
            phase,
            h.count,
            h.mean / 1_000.0,
            us(h.p50),
            us(h.p99)
        );
    }
    out.push_str("\naborts by reason:");
    if s.aborted == 0 && s.aborts.iter().all(|(_, n)| *n == 0) {
        out.push_str(" none\n");
    } else {
        out.push('\n');
        for (reason, n) in &s.aborts {
            if *n > 0 {
                let _ = writeln!(out, "  {reason:<20} {n}");
            }
        }
    }
    out.push_str("htm aborts by class:");
    if s.htm.iter().all(|(_, n)| *n == 0) {
        out.push_str(" none\n");
    } else {
        out.push('\n');
        for (class, n) in &s.htm {
            if *n > 0 {
                let _ = writeln!(out, "  {class:<20} {n}");
            }
        }
    }
    let lookups = s.cache.hits + s.cache.misses;
    if lookups > 0 || s.cache.invalidations > 0 {
        let _ = writeln!(
            out,
            "value cache: {} hits, {} misses ({:.1}% hit rate), {} invalidated, {:.1} KB saved",
            s.cache.hits,
            s.cache.misses,
            s.cache.hit_rate() * 100.0,
            s.cache.invalidations,
            s.cache.bytes_saved as f64 / 1_024.0
        );
    }
    if s.pipeline.wait_ns > 0 || s.pipeline.routines > 1 {
        let _ = writeln!(
            out,
            "routines: {} in flight, verb wait {:.1} us total, {:.1} us overlapped ({:.1}% hidden)",
            s.pipeline.routines.max(1),
            us(s.pipeline.wait_ns),
            us(s.pipeline.overlap_ns),
            s.pipeline.hiding_ratio() * 100.0
        );
    }
    if s.pipeline.wakes > 0 {
        let _ = writeln!(
            out,
            "reactor: {} wakes, mean depth {:.1}, mean wake lag {:.1} us",
            s.pipeline.wakes,
            s.pipeline.avg_depth(),
            us(s.pipeline.wake_lag_ns) / s.pipeline.wakes as f64
        );
    }
    if s.contention.pessimistic + s.contention.parks + s.contention.grants > 0 {
        let _ = writeln!(
            out,
            "contention: {} pessimistic commits, {} parks ({} granted, {} waiting), parked mean {:.1} us",
            s.contention.pessimistic,
            s.contention.parks,
            s.contention.grants,
            s.contention.waiting(),
            s.contention.parked_ns.mean / 1_000.0
        );
    }
    if s.net.conns_opened > 0 || s.net.accepted + s.net.rejected > 0 {
        let _ = writeln!(
            out,
            "serving: {} conns ({} closed), {} accepted, {} rejected ({:.1}% shed), {} completed, {} in flight, queue depth {}",
            s.net.conns_opened,
            s.net.conns_closed,
            s.net.accepted,
            s.net.rejected,
            s.net.reject_rate() * 100.0,
            s.net.completed,
            s.net.in_flight,
            s.net.queue_depth
        );
        let _ = writeln!(
            out,
            "queue wait (host): mean {:.1} us, p50 {:.1} us, p99 {:.1} us",
            s.net.queue_wait_ns.mean / 1_000.0,
            us(s.net.queue_wait_ns.p50),
            us(s.net.queue_wait_ns.p99)
        );
    }
    if s.route.enabled {
        let _ = write!(
            out,
            "routing: {} local / {} remote ({:.1}% local), {} steals, shed {} queue + {} global, depths [",
            s.route.local,
            s.route.remote,
            s.route.local_rate() * 100.0,
            s.route.steals,
            s.route.shed_queue,
            s.route.shed_global
        );
        for (i, depth) in s.route.depths.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{depth}");
        }
        out.push_str("]\n");
    }
    if !s.nic.is_empty() {
        out.push_str("\nnic verbs (completed):\n");
        let mut nodes: Vec<usize> = s.nic.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            let _ = write!(out, "  node {node}:");
            for row in s.nic.iter().filter(|r| r.node == node) {
                let _ = write!(out, " {}={}", row.verb, row.count);
            }
            if let Some((_, bytes)) = s.nic_bytes.iter().find(|(n, _)| *n == node) {
                let _ = write!(out, " ({:.1} KB)", *bytes as f64 / 1_024.0);
            }
            out.push('\n');
        }
    }
    if !s.machines.is_empty() {
        out.push_str("\nmachines:\n");
        for m in &s.machines {
            let _ = writeln!(
                out,
                "  node {}: {} committed, {} aborted, {} fallback [{}]",
                m.node,
                m.committed,
                m.aborted,
                m.fallbacks,
                if m.alive { "alive" } else { "DOWN" }
            );
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::registry::{MachineRow, NicRow, Registry};
    use crate::Phase;

    /// A snapshot with something in every section (shared with the
    /// crate-level table tests).
    pub(crate) fn sample() -> Snapshot {
        let r = Registry::new();
        let sh = r.shard(0);
        for i in 0..100 {
            sh.note_commit(1_000 + i * 10);
            sh.note_phase(Phase::Lock, 200 + i);
            sh.note_phase(Phase::Execute, 500);
        }
        sh.note_abort(0);
        sh.note_abort(4);
        sh.note_fallback();
        sh.note_cache_hit(192);
        sh.note_cache_hit(192);
        sh.note_cache_miss();
        sh.note_cache_invalidations(1);
        sh.note_routines(4);
        sh.note_verb_wait(1_000, 750);
        sh.note_reactor(3, 100);
        sh.note_reactor(1, 50);
        sh.note_phase_wait(Phase::Lock, 150);
        sh.note_contention_pessimistic();
        sh.note_key_park();
        sh.note_key_park();
        sh.note_key_unpark(400);
        sh.note_key_grant();
        let mut s = r.scrape();
        s.htm[0].1 = 3;
        s.nic = vec![
            NicRow {
                node: 0,
                verb: "read",
                count: 12,
            },
            NicRow {
                node: 0,
                verb: "atomic",
                count: 7,
            },
        ];
        s.nic_bytes = vec![(0, 4_096)];
        s.machines.push(MachineRow {
            node: 1,
            committed: 0,
            aborted: 0,
            fallbacks: 0,
            alive: false,
        });
        s.net = crate::NetStats {
            conns_opened: 4,
            conns_closed: 1,
            accepted: 90,
            rejected: 10,
            completed: 88,
            in_flight: 2,
            queue_depth: 1,
            queue_wait_ns: HistSummary {
                count: 90,
                sum: 90_000,
                mean: 1_000.0,
                p50: 900,
                p99: 4_000,
                p999: 4_800,
                max: 5_000,
            },
        };
        s.route = crate::RouteStats {
            enabled: true,
            local: 70,
            remote: 20,
            steals: 5,
            shed_queue: 7,
            shed_global: 3,
            depths: vec![1, 0],
        };
        s
    }

    #[test]
    fn json_exposition_is_valid_json() {
        let out = render_json(&sample());
        crate::jsonlint::validate(&out).expect("stats json must parse");
        assert!(out.contains("\"lock_busy\":1"));
        assert!(out.contains("\"conflict\":3"));
        assert!(out.contains(
            "\"cache\":{\"hits\":2,\"misses\":1,\"invalidations\":1,\"bytes_saved\":384}"
        ));
        assert!(out.contains(
            "\"pipeline\":{\"routines\":4,\"wait_ns\":1000,\"overlap_ns\":750,\
             \"hiding_ratio\":0.7500,\"wakes\":2,\"depth_avg\":2.0000,\"wake_lag_ns\":150}"
        ));
        assert!(out.contains("\"phase_waits_ns\":{"));
        assert!(out.contains(
            "\"contention\":{\"pessimistic\":1,\"parks\":2,\"unparks\":1,\"grants\":1,\
             \"waiters\":1,\"parked_ns\":"
        ));
        assert!(out.contains(
            "\"net\":{\"conns_opened\":4,\"conns_closed\":1,\"accepted\":90,\"rejected\":10,\
             \"completed\":88,\"in_flight\":2,\"queue_depth\":1,\"queue_wait_ns\":"
        ));
        assert!(out.contains(
            "\"route\":{\"enabled\":true,\"local\":70,\"remote\":20,\"steals\":5,\
             \"shed_queue\":7,\"shed_global\":3,\"depths\":[1,0]}"
        ));
    }

    #[test]
    fn empty_snapshot_renders_everywhere() {
        let s = Snapshot::empty();
        crate::jsonlint::validate(&render_json(&s)).unwrap();
        let text = render_text(&s);
        assert!(text.contains("aborts by reason: none"));
        let prom = render_prometheus(&s);
        assert!(prom.contains("drtm_txn_committed_total 0"));
    }

    #[test]
    fn prometheus_exposition_has_labelled_series() {
        let out = render_prometheus(&sample());
        assert!(out.contains("drtm_txn_abort_total{reason=\"lock_busy\"} 1"));
        assert!(out.contains("drtm_txn_abort_total{reason=\"fallback\"} 1"));
        assert!(out.contains("drtm_htm_abort_total{class=\"conflict\"} 3"));
        assert!(out.contains("drtm_commit_phase_ns{phase=\"lock\",quantile=\"0.99\"}"));
        assert!(out.contains("drtm_commit_phase_ns_count{phase=\"lock\"} 100"));
        assert!(out.contains("drtm_nic_verbs_total{node=\"0\",verb=\"read\"} 12"));
        assert!(out.contains("drtm_machine_alive{node=\"1\"} 0"));
        assert!(out.contains("drtm_cache_hit_total 2"));
        assert!(out.contains("drtm_cache_bytes_saved_total 384"));
        assert!(out.contains("drtm_routines 4"));
        assert!(out.contains("drtm_verb_wait_ns_total 1000"));
        assert!(out.contains("drtm_verb_overlap_ns_total 750"));
        assert!(out.contains("drtm_latency_hiding_ratio 0.7500"));
        assert!(out.contains("drtm_reactor_wakes_total 2"));
        assert!(out.contains("drtm_reactor_depth_avg 2.0000"));
        assert!(out.contains("drtm_reactor_wake_lag_ns_total 150"));
        assert!(out.contains("drtm_contention_pessimistic_total 1"));
        assert!(out.contains("drtm_contention_park_total 2"));
        assert!(out.contains("drtm_contention_grant_total 1"));
        assert!(out.contains("drtm_contention_waiters 1"));
        assert!(out.contains("drtm_contention_parked_ns_count 1"));
        assert!(out.contains("drtm_commit_phase_wait_ns_count{phase=\"lock\"} 1"));
        assert!(out.contains("drtm_net_accepted_total 90"));
        assert!(out.contains("drtm_net_rejected_total 10"));
        assert!(out.contains("drtm_net_in_flight 2"));
        assert!(out.contains("drtm_net_queue_wait_ns{quantile=\"0.99\"} 4000"));
        assert!(out.contains("drtm_net_queue_wait_ns{quantile=\"0.999\"} 4800"));
        assert!(out.contains("drtm_route_enabled 1"));
        assert!(out.contains("drtm_route_local_total 70"));
        assert!(out.contains("drtm_route_remote_total 20"));
        assert!(out.contains("drtm_route_steal_total 5"));
        assert!(out.contains("drtm_route_shed_queue_total 7"));
        assert!(out.contains("drtm_route_shed_global_total 3"));
        assert!(out.contains("drtm_route_queue_depth{pool=\"0\"} 1"));
        assert!(out.contains("drtm_route_queue_depth{pool=\"1\"} 0"));
        assert!(out.contains("drtm_commit_phase_ns{phase=\"lock\",quantile=\"0.999\"}"));
    }

    #[test]
    fn json_summaries_carry_p999() {
        let out = render_json(&sample());
        assert!(out.contains("\"p999\":4800"));
        assert!(out.contains("\"p99\":4000"));
    }

    /// Reverses [`prom_escape`]: the round-trip oracle.
    fn prom_unescape(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        let mut it = v.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn prometheus_label_values_round_trip_through_escaping() {
        // Satellite: every stable label table entry, plus adversarial
        // values containing quotes/backslashes/newlines, must survive
        // escape → line render → extract → unescape unchanged.
        let adversarial = ["quo\"te", "back\\slash", "new\nline", "\\\"both\\\"", ""];
        for raw in crate::ABORT_REASONS
            .iter()
            .chain(crate::HTM_CLASSES.iter())
            .copied()
            .chain(adversarial)
        {
            let line = format!("drtm_txn_abort_total{{reason=\"{}\"}} 1", prom_escape(raw));
            // A parseable series line has exactly one unescaped quote
            // pair around the value and no raw newline inside it.
            let inner = line
                .strip_prefix("drtm_txn_abort_total{reason=\"")
                .and_then(|r| r.strip_suffix("\"} 1"))
                .unwrap_or_else(|| panic!("unparseable line {line:?}"));
            assert!(!inner.contains('\n'), "raw newline leaked: {line:?}");
            let mut quotes = 0;
            let mut prev_backslash = false;
            for c in inner.chars() {
                if c == '"' && !prev_backslash {
                    quotes += 1;
                }
                prev_backslash = c == '\\' && !prev_backslash;
            }
            assert_eq!(quotes, 0, "unescaped quote inside value: {line:?}");
            assert_eq!(prom_unescape(inner), raw, "round-trip broke for {raw:?}");
        }
    }

    #[test]
    fn prometheus_rendering_escapes_hostile_labels() {
        let mut s = sample();
        s.nic.push(crate::registry::NicRow {
            node: 3,
            verb: "rd\"ma\\verb",
            count: 1,
        });
        let out = render_prometheus(&s);
        assert!(out.contains("drtm_nic_verbs_total{node=\"3\",verb=\"rd\\\"ma\\\\verb\"} 1"));
    }

    #[test]
    fn text_exposition_has_phase_table_and_taxonomy() {
        let out = render_text(&sample());
        assert!(out.contains("100 committed"));
        assert!(out.contains("lock"));
        assert!(out.contains("p99 us"));
        assert!(out.contains("lock_busy"));
        assert!(out.contains("conflict"));
        assert!(out.contains("node 0: read=12"));
        assert!(out.contains("DOWN"));
        assert!(out.contains("value cache: 2 hits, 1 misses"));
        assert!(out.contains("routines: 4 in flight"));
        assert!(out.contains("75.0% hidden"));
        assert!(out.contains("reactor: 2 wakes, mean depth 2.0"));
        assert!(out.contains("contention: 1 pessimistic commits, 2 parks (1 granted, 1 waiting)"));
        assert!(out.contains("serving: 4 conns (1 closed), 90 accepted, 10 rejected"));
        assert!(out.contains("10.0% shed"));
        assert!(out.contains("routing: 70 local / 20 remote (77.8% local), 5 steals"));
        assert!(out.contains("shed 7 queue + 3 global, depths [1 0]"));
    }

    #[test]
    fn text_exposition_omits_cache_line_when_unused() {
        let out = render_text(&Snapshot::empty());
        assert!(!out.contains("value cache"));
        assert!(!out.contains("serving:"));
        assert!(!out.contains("contention:"));
        assert!(!out.contains("routing:"));
    }
}
