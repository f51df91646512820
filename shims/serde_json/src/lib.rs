//! Offline stand-in for `serde_json`: `to_string` / `from_str` for the shim
//! serde. Covers the JSON-lines log format this workspace reads and writes —
//! objects, arrays, strings with escapes, integers kept exact (i64/u64),
//! floats rendered with Rust's shortest-round-trip `{}`. Values write their
//! JSON text directly (`Serialize::write_json`) and read it back directly
//! through the shim's `Reader` (`Deserialize::deserialize`).

use serde::__private::Reader;

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

/// Serializes a value to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out).map_err(|e| Error(e.to_string()))?;
    Ok(out)
}

/// Parses a JSON string into a deserializable value. A syntax error
/// anywhere in `s` outranks a type error: failing input is checked again
/// as plain JSON, and its first syntax error, if any, is the one reported.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T, Error> {
    let mut reader = Reader::new(s);
    let value = T::deserialize(&mut reader).and_then(|v| reader.end().map(|()| v));
    value.map_err(|e| {
        let mut check = Reader::new(s);
        Error(check.skip().and_then(|()| check.end()).err().unwrap_or(e).to_string())
    })
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
