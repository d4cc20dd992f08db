//! The stamp every output object carries: which commit, compiler and
//! host produced it, when, from which seed and at which sizes.

use std::process::Command;

use crate::spans::escape;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from the Unix epoch (Howard Hinnant's
/// `civil_from_days`; no date crate resolves offline).
fn utc_rfc3339(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// One JSON object: git rev, `rustc -V`, cores, seed, seconds, UTC and
/// the workload's sizes (`sizes_json` is already a JSON object).
pub fn stamp_json(seed: u64, seconds: f64, sizes_json: &str) -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"git_rev\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"seed\":{},\"seconds\":{},\
         \"utc\":\"{}\",\"sizes\":{}}}",
        escape(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        escape(&tool_line("rustc", &["-V"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        seed,
        seconds,
        utc_rfc3339(now),
        sizes_json,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_dates() {
        assert_eq!(utc_rfc3339(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_rfc3339(1_709_164_800), "2024-02-29T00:00:00Z");
        assert_eq!(utc_rfc3339(1_709_251_199), "2024-02-29T23:59:59Z");
    }

    #[test]
    fn stamp_is_json() {
        let s = stamp_json(7, 15.0, "{\"txns_per_worker\":10}");
        let v = crate::json::parse(&s).unwrap();
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(7.0));
        assert!(v.get("sizes").unwrap().get("txns_per_worker").is_some());
    }
}
