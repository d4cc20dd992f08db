//! The one place that knows how a string or a float becomes JSON.
//!
//! Every hand-built JSON document in the repo — the stats scrape, the
//! time-series and chrome://tracing exports, experiment artifacts and
//! their stamp, the client report — writes its strings and floats
//! through here, so a quote in a label or a NaN ratio cannot produce a
//! document [`crate::jsonlint::validate`] rejects. Integers and
//! booleans need no help: their `Display` is already JSON.

use std::fmt::Write as _;

/// Appends `s` escaped for the inside of a JSON string (no surrounding
/// quotes): quote, backslash and every control character below 0x20.
pub fn escape(out: &mut String, s: &str) {
    let mut rest = s;
    // Clean runs are copied whole; what is rewritten is one ASCII byte.
    while let Some(at) = rest.find(|c: char| matches!(c, '"' | '\\') || c < ' ') {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Appends `s` as a JSON string value or object key: quoted, escaped.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    escape(out, s);
    out.push('"');
}

/// Appends `v` as a JSON number with `places` decimals, or `null` when
/// it is not finite (JSON has no NaN or infinity).
pub fn number(out: &mut String, v: f64, places: usize) {
    if v.is_finite() {
        let _ = write!(out, "{v:.places$}");
    } else {
        out.push_str("null");
    }
}

/// Appends `items` comma-separated inside `brackets` (`"[]"` or
/// `"{}"`), each written by `each`.
pub fn list<T>(
    out: &mut String,
    brackets: &str,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push_str(&brackets[..1]);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push_str(&brackets[1..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        string(&mut out, "a\"b\\c\n\r\t\u{1}\u{7f}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\u{7f}é\"");
        crate::jsonlint::validate(&out).expect("escaped string parses");
    }

    #[test]
    fn numbers_are_fixed_point_or_null() {
        let mut out = String::new();
        for v in [0.75, 2.0, -1.5, f64::NAN, f64::INFINITY] {
            number(&mut out, v, 3);
            out.push(' ');
        }
        assert_eq!(out, "0.750 2.000 -1.500 null null ");
    }
}
