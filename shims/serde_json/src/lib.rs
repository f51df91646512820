//! Offline stand-in for `serde_json`: `to_string` / `from_str` for the shim
//! serde. Covers the JSON-lines log format this workspace reads and writes —
//! objects, arrays, strings with escapes, integers kept exact (i64/u64),
//! floats rendered with Rust's shortest-round-trip `{}`. Values write their
//! JSON text directly (`Serialize::write_json`); parsing builds the shim's
//! `Content` tree and decodes from it.

use serde::__private::{Content, ContentDeserializer};

/// Error type (`std::error::Error + Send + Sync`, as `io::Error::other`
/// requires).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Serialization.

/// Serializes a value to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out).map_err(|e| Error(e.to_string()))?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing.

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect_literal("null").map(|()| Content::Null),
            Some(b't') => self.expect_literal("true").map(|()| Content::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole. None of them occurs inside a multi-byte UTF-8 scalar,
            // so the run ends on a char boundary of the source.
            let start = self.pos;
            let run = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            out.push_str(&self.src[start..self.pos]);
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect_literal("\\u")?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits = self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("bad number"))?;
        if !is_float {
            // Keep integers exact when they fit.
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Content::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>().map(Content::F64).map_err(|_| self.err("bad number"))
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

/// Parses a JSON string into a deserializable value.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T, Error> {
    let mut parser = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after JSON value"));
    }
    T::deserialize(ContentDeserializer::new(content)).map_err(|e| Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        name: String,
        count: u64,
        scale: f64,
        flags: Vec<bool>,
        note: Option<String>,
    }

    #[test]
    fn roundtrip_struct() {
        let r = Rec {
            name: "he said \"hi\"\n\ttab".into(),
            count: u64::MAX,
            scale: 0.1 + 0.2,
            flags: vec![true, false],
            note: None,
        };
        let s = super::to_string(&r).unwrap();
        let back: Rec = super::from_str(&s).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn floats_render_self_describing() {
        assert_eq!(super::to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(super::to_string(&-0.5f64).unwrap(), "-0.5");
        let v: f64 = super::from_str("1.0").unwrap();
        assert_eq!(v, 1.0);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let s: String = super::from_str(r#""aé\nA 😀""#).unwrap();
        assert_eq!(s, "aé\nA 😀");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(super::from_str::<u64>("12 34").is_err());
        assert!(super::from_str::<u64>("{").is_err());
        assert!(super::from_str::<Vec<u8>>("[1,2,").is_err());
        assert!(super::from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        for (input, msg) in [
            ("\"a\u{1}b\"", "raw control character in string at byte 2"),
            ("\"ab\ncd\"", "raw control character in string at byte 3"),
            ("\"a\\qb\"", "unknown escape at byte 4"),
            ("\"abc", "unterminated string at byte 4"),
            ("\"ab\\", "unterminated escape at byte 4"),
            ("\"\\u12\"", "truncated \\u escape at byte 3"),
            ("\"\\u12zz\"", "bad \\u escape at byte 3"),
            ("\"\\ud800x\"", "expected \\u at byte 7"),
            ("\"\\ud800\\u0041\"", "invalid low surrogate at byte 13"),
            ("{\"k\u{7}\":1}", "raw control character in string at byte 3"),
        ] {
            let err = super::from_str::<u64>(input).unwrap_err();
            assert_eq!(err.to_string(), msg, "input {input:?}");
        }
        let ok: String = super::from_str("\"é\\u00e9\\n😀\\\"\"").unwrap();
        assert_eq!(ok, "éé\n😀\"");
    }

    #[test]
    fn large_integers_stay_exact() {
        let v: u64 = super::from_str("18446744073709551615").unwrap();
        assert_eq!(v, u64::MAX);
        let w: i64 = super::from_str("-9223372036854775808").unwrap();
        assert_eq!(w, i64::MIN);
    }
}
