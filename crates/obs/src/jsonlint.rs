//! A minimal JSON well-formedness checker (RFC 8259 grammar, no value
//! materialization). The workspace has no JSON dependency, yet the
//! trace exporter and the `stats json` renderer hand-roll JSON — this
//! validator lets tests (and `drtm-shell trace`) prove the output
//! actually parses.

/// Validates that `s` is exactly one well-formed JSON value (plus
/// whitespace). Returns the byte offset and a message on failure.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("byte {}: {}", self.i, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn sequence(
        &mut self,
        (open, close): (u8, u8),
        item: fn(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(c) if c == close => return Ok(()),
                _ => {
                    self.i -= self.peek().is_some() as usize;
                    return Err(self.err(&format!("expected ',' or '{}'", close as char)));
                }
            }
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.sequence((b'{', b'}'), |p| {
            p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.value()
        })
    }

    fn array(&mut self) -> Result<(), String> {
        self.sequence((b'[', b']'), Self::value)
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            match self.bump() {
                                Some(c) if c.is_ascii_hexdigit() => {}
                                _ => return Err(self.err("bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(self.err("bad escape character")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {}
            }
        }
    }

    /// One or more digits.
    fn digits(&mut self, otherwise: &str) -> Result<(), String> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err(otherwise));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits("expected digit")?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits("expected digit after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits("expected digit in exponent")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "null",
            "true",
            "0",
            "-12.5e+3",
            "\"hi\\n\\u00e9\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            r#"{"a": 1, "b": [true, null], "c": {"d": "e"}}"#,
            "  { \"x\" : -0.5 }\n",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{'a':1}",
            "{} {}",
            "[1]]",
            "\"tab\tinside\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} wrongly accepted");
        }
    }
}
