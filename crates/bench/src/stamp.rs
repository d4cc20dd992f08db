//! Artifact stamping: one shared helper every JSON artifact uses.
//!
//! Every machine-readable artifact the repo emits — `sweep --json`
//! summaries, experiment `BENCH_<name>.json` files, chrome://tracing
//! exports — must be self-describing across PRs and machines: which
//! revision produced it, when, and under what run configuration. This
//! module is the one place that stamp is built, so the fields never
//! drift between artifact kinds.

use drtm_obs::json;

/// The git revision being benchmarked: `DRTM_GIT_REV` if CI exported
/// it, else `git rev-parse --short HEAD`, else `"unknown"`. Stamped
/// into every artifact so `BENCH_*.json` files from different PRs stay
/// comparable.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("DRTM_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Current wall-clock time as an RFC 3339 UTC timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`), derived from the Unix epoch with the
/// civil-calendar algorithm — no chrono dependency.
pub fn utc_rfc3339() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (h, m, s) = (rem / 3_600, rem % 3_600 / 60, rem % 60);
    let (y, mo, d) = civil_from_days(days as i64);
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Days-since-1970-01-01 → (year, month, day), proleptic Gregorian
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let mo = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if mo <= 2 { y + 1 } else { y }, mo, d)
}

/// The artifact stamp: one JSON object with the git revision, the UTC
/// wall-clock timestamp, and — when the configuration was chosen on a
/// command line rather than written in the experiment table — that
/// configuration's `{:?}` as a string. Splice it into an artifact as a
/// `"stamp"` / `"meta"` member.
pub fn stamp_json(cfg: Option<&dyn std::fmt::Debug>) -> String {
    let mut out = String::from("{\"git_rev\":");
    json::string(&mut out, &git_rev());
    out.push_str(",\"utc\":");
    json::string(&mut out, &utc_rfc3339());
    out.push_str(",\"run_cfg\":");
    match cfg {
        Some(cfg) => json::string(&mut out, &format!("{cfg:?}")),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_epoch_and_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(19_783), (2024, 3, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn timestamp_shape_is_rfc3339() {
        let ts = utc_rfc3339();
        assert_eq!(ts.len(), 20, "{ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
    }

    #[test]
    fn stamp_is_valid_json_with_and_without_cfg() {
        let bare = stamp_json(None);
        drtm_obs::jsonlint::validate(&bare).expect("bare stamp parses");
        assert!(bare.contains("\"run_cfg\":null"));
        let run = drtm_workloads::driver::RunCfg::default();
        let full = stamp_json(Some(&("a \"quoted\" label", &run)));
        drtm_obs::jsonlint::validate(&full).expect("full stamp parses");
        assert!(full.contains("\"git_rev\":\""));
        assert!(full.contains("routines: 1") && full.contains("contention: Off"));
        // `{:?}` writes these two as `\u{7f}` and `\0`: Rust's escapes,
        // not JSON's. (A hostile `DRTM_GIT_REV` is `tests/stamp_env.rs`.)
        let odd = stamp_json(Some(&"del\u{7f}nul\0"));
        drtm_obs::jsonlint::validate(&odd).unwrap_or_else(|e| panic!("{odd}: {e}"));
    }
}
