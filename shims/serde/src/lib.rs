//! Offline stand-in for `serde`.
//!
//! The real serde drives both directions through a visitor protocol; this
//! shim reads and writes JSON text directly, which is all the workspace needs
//! (every serialized type round-trips through JSON lines). The public surface
//! mirrors the fragments of serde's API the workspace spells out by hand:
//!
//! * `Serialize` / `Deserialize` traits plus the re-exported derives;
//! * `Serializer` with `serialize_f64` / `serialize_str` (the `finite_or_tag`
//!   codec);
//! * `ser::Error` with `custom`.
//!
//! Serialization has two paths. [`Serialize::write_json`] appends a value's
//! JSON text straight to a buffer: derived impls, primitives and std
//! containers write themselves, and `serde_json::to_string` takes this path.
//! [`Serialize::serialize`] lowers a value to its [`__private::Content`]
//! tree; it remains for hand-written impls (which `write_json` renders
//! through [`__private::JsonSerializer`]) and as the reference the direct
//! writer is tested against.
//!
//! Deserialization has one path: [`Deserialize::deserialize`] pulls its
//! value straight out of the JSON text through a [`__private::Reader`], in
//! one pass and without an intermediate tree. Primitives and std containers
//! read themselves, and the derive (see the sibling `serde_derive` shim)
//! generates a reader for every struct and enum.

// Derive-generated code refers to `serde::...`; alias self so the derives
// also work inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    /// Error constraint for serializers (mirror of `serde::ser::Error`).
    pub trait Error: Sized + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

/// A type that can be serialized.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;

    /// Appends this value's JSON text to `out` without building a content
    /// tree. The default hands `serialize` a [`__private::JsonSerializer`],
    /// which writes scalars directly (so floats and strings need no
    /// override) and renders any tree it is given.
    #[doc(hidden)]
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        self.serialize(__private::JsonSerializer(out))
    }
}

/// Data sink. Unlike upstream's 30-method protocol, the shim asks for the
/// three entry points the workspace uses; everything else routes through a
/// pre-built [`__private::Content`] tree.
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Accepts a fully built content tree (used by derived impls).
    fn serialize_content(self, content: __private::Content) -> Result<Self::Ok, Self::Error>;
}

/// A type that can be deserialized: it reads one JSON value from the
/// reader's cursor, leading whitespace included.
pub trait Deserialize<'de>: Sized {
    fn deserialize(reader: &mut __private::Reader<'de>) -> Result<Self, __private::ContentError>;
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and std containers.

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_content(__private::Content::I64(*self as i64))
            }
            fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
                __private::write_i64(out, *self as i64);
                Ok(())
            }
        }
    )*};
}
impl_serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_content(__private::Content::U64(*self as u64))
            }
            fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
                __private::write_u64(out, *self as u64);
                Ok(())
            }
        }
    )*};
}
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(__private::Content::Bool(*self))
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self as f64)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        (**self).write_json(out)
    }
}

fn seq_content<S: Serializer, T: Serialize>(items: &[T]) -> Result<__private::Content, S::Error> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(__private::to_content(item).map_err(<S::Error as ser::Error>::custom)?);
    }
    Ok(__private::Content::Seq(out))
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let c = seq_content::<S, T>(self)?;
        s.serialize_content(c)
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out)?;
        }
        out.push(']');
        Ok(())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        self.as_slice().write_json(out)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        self.as_slice().write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        (**self).write_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            None => s.serialize_content(__private::Content::Null),
            Some(v) => v.serialize(s),
        }
    }
    fn write_json(&self, out: &mut String) -> Result<(), __private::ContentError> {
        match self {
            None => {
                out.push_str("null");
                Ok(())
            }
            Some(v) => v.write_json(out),
        }
    }
}

// ---------------------------------------------------------------------------
// Support machinery used by the derive macros (name-mangled like upstream's
// `serde::__private`, and equally not a stable public API).

pub mod __private {
    use super::{ser, Deserialize, Serialize, Serializer};
    use std::borrow::Cow;

    /// JSON-shaped data model every serialized value lowers to.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Content {
        Null,
        Bool(bool),
        I64(i64),
        U64(u64),
        F64(f64),
        Str(String),
        Seq(Vec<Content>),
        Map(Vec<(String, Content)>),
    }

    /// Error shared by content construction and decoding.
    #[derive(Debug, Clone)]
    pub struct ContentError(String);

    impl ContentError {
        pub fn msg(m: &str) -> Self {
            ContentError(m.to_string())
        }
    }

    impl std::fmt::Display for ContentError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl ser::Error for ContentError {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            ContentError(msg.to_string())
        }
    }

    /// Serializer whose output *is* the content tree.
    pub struct ContentSerializer;

    impl Serializer for ContentSerializer {
        type Ok = Content;
        type Error = ContentError;

        fn serialize_f64(self, v: f64) -> Result<Content, ContentError> {
            Ok(Content::F64(v))
        }

        fn serialize_str(self, v: &str) -> Result<Content, ContentError> {
            Ok(Content::Str(v.to_string()))
        }

        fn serialize_content(self, content: Content) -> Result<Content, ContentError> {
            Ok(content)
        }
    }

    /// Lowers any serializable value to its content tree.
    pub fn to_content<T: Serialize + ?Sized>(v: &T) -> Result<Content, ContentError> {
        v.serialize(ContentSerializer)
    }

    // -- JSON text writers (the direct path) -------------------------------

    /// Serializer that appends JSON text: scalars are written directly, a
    /// pre-built content tree is rendered. Derived `write_json` impls hand
    /// it to `#[serde(with = "...")]` codecs.
    pub struct JsonSerializer<'a>(pub &'a mut String);

    impl Serializer for JsonSerializer<'_> {
        type Ok = ();
        type Error = ContentError;

        fn serialize_f64(self, v: f64) -> Result<(), ContentError> {
            write_f64(self.0, v);
            Ok(())
        }

        fn serialize_str(self, v: &str) -> Result<(), ContentError> {
            write_str(self.0, v);
            Ok(())
        }

        fn serialize_content(self, content: Content) -> Result<(), ContentError> {
            write_content(self.0, &content);
            Ok(())
        }
    }

    /// Escape of each byte inside a JSON string: 0 copies the byte, `u`
    /// writes `\u00XX`, anything else writes a backslash and that byte.
    const ESCAPE: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut b = 0;
        while b < 0x20 {
            t[b] = b'u';
            b += 1;
        }
        t[b'\n' as usize] = b'n';
        t[b'\r' as usize] = b'r';
        t[b'\t' as usize] = b't';
        t[b'"' as usize] = b'"';
        t[b'\\' as usize] = b'\\';
        t
    };

    /// Appends `s` as a JSON string literal. Each run of bytes that need no
    /// escape is copied whole: `"`, `\` and control bytes never occur
    /// inside a multi-byte UTF-8 scalar, so a run always ends on a char
    /// boundary.
    pub fn write_str(out: &mut String, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let esc = ESCAPE[b as usize];
            if esc == 0 {
                continue;
            }
            out.push_str(&s[run..i]);
            out.push('\\');
            out.push(esc as char);
            if esc == b'u' {
                out.push_str("00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xF) as usize] as char);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// Appends a float with Rust's shortest round-trip `{}` formatting,
    /// suffixed `.0` when that reads as an integer, so it parses back as a
    /// float. JSON has no NaN or Infinity; like upstream's `to_string` on a
    /// non-finite f64 inside a container, they fall back to `null`.
    pub fn write_f64(out: &mut String, v: f64) {
        use std::fmt::Write as _;
        if !v.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        write!(out, "{v}").expect("writing to a String cannot fail");
        if !out.as_bytes()[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            out.push_str(".0");
        }
    }

    /// Appends an unsigned integer in decimal.
    pub fn write_u64(out: &mut String, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
    }

    /// Appends a signed integer in decimal.
    pub fn write_i64(out: &mut String, v: i64) {
        if v < 0 {
            out.push('-');
        }
        write_u64(out, v.unsigned_abs());
    }

    /// Renders a content tree as JSON text.
    pub fn write_content(out: &mut String, c: &Content) {
        match c {
            Content::Null => out.push_str("null"),
            Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Content::I64(v) => write_i64(out, *v),
            Content::U64(v) => write_u64(out, *v),
            Content::F64(v) => write_f64(out, *v),
            Content::Str(s) => write_str(out, s),
            Content::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_content(out, item);
                }
                out.push(']');
            }
            Content::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    write_content(out, v);
                }
                out.push('}');
            }
        }
    }

    // -- The JSON reader (the one decoding path) ---------------------------

    /// A number as JSON text spells it: integers stay exact when they fit
    /// an `i64` (negative) or `u64`, anything else is a float.
    enum Number {
        I64(i64),
        U64(u64),
        F64(f64),
    }

    /// Pull reader over JSON text: each `Deserialize` impl reads its value
    /// at the cursor, in one pass and without building a tree. Values a
    /// reader does not want are skipped, and skipping checks them as
    /// strictly as reading does, so every byte of a document is checked.
    ///
    /// Syntax errors name their byte offset; type errors name what was
    /// expected and what kind of value was found.
    pub struct Reader<'de> {
        src: &'de str,
        bytes: &'de [u8],
        pos: usize,
    }

    impl<'de> Reader<'de> {
        pub fn new(src: &'de str) -> Self {
            Reader { src, bytes: src.as_bytes(), pos: 0 }
        }

        fn err(&self, msg: &str) -> ContentError {
            ContentError(format!("{msg} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        /// The first byte of the next value, past any whitespace.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        /// The type error for the value at the cursor: "expected `what`,
        /// found" its kind. A byte that starts no value is a syntax error.
        fn mismatch(&self, what: &str) -> ContentError {
            let kind = match self.bytes.get(self.pos) {
                Some(b'n') => "null",
                Some(b't' | b'f') => "bool",
                Some(b'"') => "string",
                Some(b'[') => "sequence",
                Some(b'{') => "map",
                Some(b'-' | b'0'..=b'9') => "number",
                _ => return self.err("expected a JSON value"),
            };
            ContentError(format!("expected {what}, found {kind}"))
        }

        fn literal(&mut self, lit: &str) -> Result<(), ContentError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected {lit}")))
            }
        }

        /// Reads a string, borrowed from the source unless it holds an
        /// escape.
        pub fn string(&mut self) -> Result<Cow<'de, str>, ContentError> {
            if self.peek() != Some(b'"') {
                return Err(self.mismatch("string"));
            }
            self.pos += 1;
            let src = self.src;
            let mut owned: Option<String> = None;
            loop {
                // Take the run up to the next quote, backslash or control
                // byte whole. None of them occurs inside a multi-byte UTF-8
                // scalar, so the run ends on a char boundary of the source.
                let start = self.pos;
                let run = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
                self.pos = run.map_or(self.bytes.len(), |n| start + n);
                let text = &src[start..self.pos];
                match self.bytes.get(self.pos).copied().ok_or_else(|| self.err("unterminated string"))? {
                    b'"' => {
                        self.pos += 1;
                        return Ok(match owned {
                            None => Cow::Borrowed(text),
                            Some(mut out) => {
                                out.push_str(text);
                                Cow::Owned(out)
                            }
                        });
                    }
                    b'\\' => {
                        let out = owned.get_or_insert_with(String::new);
                        out.push_str(text);
                        self.pos += 1;
                        let esc = self.bytes.get(self.pos).copied().ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        out.push(match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            b'u' => self.unicode_escape()?,
                            _ => return Err(self.err("unknown escape")),
                        });
                    }
                    _ => return Err(self.err("raw control character in string")),
                }
            }
        }

        /// The scalar of a `\u` escape whose `\u` was just read, with the
        /// low half of a surrogate pair.
        fn unicode_escape(&mut self) -> Result<char, ContentError> {
            let hi = self.hex4()?;
            let cp = if (0xD800..0xDC00).contains(&hi) {
                self.literal("\\u")?;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                hi
            };
            char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))
        }

        fn hex4(&mut self) -> Result<u32, ContentError> {
            let end = self.pos + 4;
            let digits = self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
            self.pos = end;
            Ok(v)
        }

        /// Reads a number; `what` names the expected value for the type
        /// error when the next value is not one.
        fn number(&mut self, what: &str) -> Result<Number, ContentError> {
            if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                return Err(self.mismatch(what));
            }
            let start = self.pos;
            self.pos += 1;
            let mut is_float = false;
            while let Some(&c) = self.bytes.get(self.pos) {
                match c {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = &self.src[start..self.pos];
            if !is_float {
                if text.starts_with('-') {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Number::I64(v));
                    }
                } else if let Ok(v) = text.parse::<u64>() {
                    return Ok(Number::U64(v));
                }
            }
            text.parse::<f64>().map(Number::F64).map_err(|_| self.err("bad number"))
        }

        /// Reads a sequence, calling `item` at each element's start.
        pub fn seq(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), ContentError>) -> Result<(), ContentError> {
            if self.peek() != Some(b'[') {
                return Err(self.mismatch("sequence"));
            }
            self.pos += 1;
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(());
            }
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or ] in array")),
                }
            }
        }

        /// Reads a map, calling `entry` with each key in document order and
        /// the cursor at its value, which `entry` reads or skips.
        pub fn map(&mut self, mut entry: impl FnMut(&mut Self, &str) -> Result<(), ContentError>) -> Result<(), ContentError> {
            if self.peek() != Some(b'{') {
                return Err(self.mismatch("map"));
            }
            self.pos += 1;
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(());
            }
            loop {
                let key = self.key()?;
                entry(self, &key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected , or } in object")),
                }
            }
        }

        /// A map key and its colon.
        fn key(&mut self) -> Result<Cow<'de, str>, ContentError> {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected '\"'"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            Ok(key)
        }

        /// Reads an externally tagged enum: a bare string is a tag alone, a
        /// map of one entry a tag with its payload. `variant` gets the tag
        /// and whether a payload follows, which it must read or skip.
        pub fn variant<T>(
            &mut self,
            variant: impl FnOnce(&mut Self, &str, bool) -> Result<T, ContentError>,
        ) -> Result<T, ContentError> {
            const WHAT: &str = "enum (string or 1-entry map)";
            let not_an_enum = || ContentError(format!("expected {WHAT}, found map"));
            match self.peek() {
                Some(b'"') => {
                    let tag = self.string()?;
                    variant(self, &tag, false)
                }
                Some(b'{') => {
                    self.pos += 1;
                    if self.peek() == Some(b'}') {
                        return Err(not_an_enum());
                    }
                    let tag = self.key()?;
                    let payload = self.pos;
                    let value = variant(self, &tag, true);
                    if value.is_err() {
                        // A map of more entries is no enum, whatever its
                        // first payload holds.
                        self.pos = payload;
                        self.skip()?;
                    }
                    match self.peek() {
                        Some(b'}') => {
                            self.pos += 1;
                            value
                        }
                        Some(b',') => Err(not_an_enum()),
                        _ => Err(self.err("expected , or } in object")),
                    }
                }
                _ => Err(self.mismatch(WHAT)),
            }
        }

        /// Skips the value at the cursor, checking it as strictly as
        /// reading it would.
        pub fn skip(&mut self) -> Result<(), ContentError> {
            match self.peek() {
                Some(b'n') => self.literal("null"),
                Some(b't') => self.literal("true"),
                Some(b'f') => self.literal("false"),
                Some(b'"') => self.string().map(drop),
                Some(b'[') => self.seq(Self::skip),
                Some(b'{') => self.map(|r, _| r.skip()),
                Some(b'-' | b'0'..=b'9') => self.number("number").map(drop),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        /// Checks that nothing but whitespace follows the value read.
        pub fn end(&mut self) -> Result<(), ContentError> {
            self.skip_ws();
            if self.pos != self.bytes.len() {
                return Err(self.err("trailing characters after JSON value"));
            }
            Ok(())
        }
    }

    // -- helpers the derive-generated code calls ---------------------------

    /// Reads a struct field's value, naming the field in its error.
    pub fn field<'de, T: Deserialize<'de>>(r: &mut Reader<'de>, name: &str) -> Result<T, ContentError> {
        T::deserialize(r).map_err(|e| ContentError(format!("field {name:?}: {e}")))
    }

    /// A struct field's value once its map is read: missing is an error.
    pub fn required<T>(value: Option<T>, name: &str) -> Result<T, ContentError> {
        value.ok_or_else(|| ContentError(format!("missing field {name:?}")))
    }

    /// Checks that a variant which carries a payload has one.
    pub fn payload(has_payload: bool, variant: &str) -> Result<(), ContentError> {
        if has_payload {
            Ok(())
        } else {
            Err(ContentError(format!("variant {variant} expects a payload")))
        }
    }

    /// Skips the payload a unit variant may carry.
    pub fn unit(r: &mut Reader<'_>, has_payload: bool) -> Result<(), ContentError> {
        if has_payload {
            r.skip()?;
        }
        Ok(())
    }

    // -- Deserialize impls for primitives and std containers ---------------

    macro_rules! impl_deserialize_int {
        ($($t:ty),*) => {$(
            impl<'de> Deserialize<'de> for $t {
                fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
                    let range = |v: &dyn std::fmt::Display| ContentError(format!("{v} out of range for {}", stringify!($t)));
                    match r.number(concat!("integer for ", stringify!($t)))? {
                        Number::I64(v) => <$t>::try_from(v).map_err(|_| range(&v)),
                        Number::U64(v) => <$t>::try_from(v).map_err(|_| range(&v)),
                        Number::F64(_) => Err(ContentError(format!("expected integer for {}, found number", stringify!($t)))),
                    }
                }
            }
        )*};
    }
    impl_deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<'de> Deserialize<'de> for bool {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            match r.peek() {
                Some(b't') => r.literal("true").map(|()| true),
                Some(b'f') => r.literal("false").map(|()| false),
                _ => Err(r.mismatch("bool")),
            }
        }
    }

    impl<'de> Deserialize<'de> for f64 {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            Ok(match r.number("number")? {
                Number::I64(v) => v as f64,
                Number::U64(v) => v as f64,
                Number::F64(v) => v,
            })
        }
    }

    impl<'de> Deserialize<'de> for f32 {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            f64::deserialize(r).map(|v| v as f32)
        }
    }

    impl<'de> Deserialize<'de> for String {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            r.string().map(Cow::into_owned)
        }
    }

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            let mut out = Vec::new();
            r.seq(|r| {
                out.push(T::deserialize(r)?);
                Ok(())
            })?;
            Ok(out)
        }
    }

    impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            // Every element is read before the length is checked.
            let mut items: [Option<T>; N] = std::array::from_fn(|_| None);
            let mut n = 0;
            r.seq(|r| {
                let item = T::deserialize(r)?;
                if let Some(slot) = items.get_mut(n) {
                    *slot = Some(item);
                }
                n += 1;
                Ok(())
            })?;
            if n != N {
                return Err(ContentError(format!("expected array of length {N}, found {n}")));
            }
            Ok(items.map(|item| item.expect("every slot is read")))
        }
    }

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            T::deserialize(r).map(Box::new)
        }
    }

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
        fn deserialize(r: &mut Reader<'de>) -> Result<Self, ContentError> {
            if r.peek() == Some(b'n') {
                return r.literal("null").map(|()| None);
            }
            T::deserialize(r).map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::__private::{to_content, write_content, write_str, Content, ContentError, Reader};
    use super::{Deserialize, Serialize};

    /// Reads a value back from its content tree, rendered as JSON text.
    fn read<T: for<'de> Deserialize<'de>>(c: &Content) -> Result<T, ContentError> {
        let mut text = String::new();
        write_content(&mut text, c);
        let mut reader = Reader::new(&text);
        T::deserialize(&mut reader).and_then(|v| reader.end().map(|()| v))
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: i64,
        y: Option<u16>,
        tags: Vec<String>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Circle { r: f64 },
        Pair(u8),
    }

    #[test]
    fn derived_struct_roundtrips_through_content() {
        let p = Point { x: -3, y: Some(7), tags: vec!["a".into(), "b".into()] };
        let c = to_content(&p).unwrap();
        let back: Point = read(&c).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn derived_enum_roundtrips_all_variant_shapes() {
        for v in [Shape::Dot, Shape::Circle { r: 2.5 }, Shape::Pair(9)] {
            let c = to_content(&v).unwrap();
            let back: Shape = read(&c).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn unit_variants_are_bare_strings() {
        assert_eq!(to_content(&Shape::Dot).unwrap(), Content::Str("Dot".into()));
    }

    #[test]
    fn option_none_is_null() {
        let p = Point { x: 0, y: None, tags: vec![] };
        let c = to_content(&p).unwrap();
        let Content::Map(m) = &c else { panic!("expected map") };
        assert_eq!(m.iter().find(|(k, _)| k == "y").unwrap().1, Content::Null);
        assert_eq!(read::<Point>(&c).unwrap(), p);
    }

    #[test]
    fn integer_range_errors_are_reported() {
        let c = Content::U64(70_000);
        assert!(read::<u16>(&c).is_err());
    }

    #[derive(Serialize)]
    struct Pair(i8, Option<bool>);

    #[derive(Serialize)]
    enum Wide {
        Two(u8, String),
        Empty {},
    }

    fn direct<T: Serialize>(v: &T) -> String {
        let mut out = String::new();
        v.write_json(&mut out).unwrap();
        out
    }

    fn tree<T: Serialize>(v: &T) -> String {
        let mut out = String::new();
        write_content(&mut out, &to_content(v).unwrap());
        out
    }

    #[test]
    fn direct_writer_matches_the_tree_for_every_shape() {
        let p = Point { x: i64::MIN, y: Some(u16::MAX), tags: vec!["q\"".into(), String::new()] };
        assert_eq!(direct(&p), tree(&p));
        assert_eq!(direct(&p), r#"{"x":-9223372036854775808,"y":65535,"tags":["q\"",""]}"#);
        for v in [Shape::Dot, Shape::Circle { r: -0.0 }, Shape::Circle { r: 1e300 }, Shape::Pair(0)] {
            assert_eq!(direct(&v), tree(&v));
        }
        assert_eq!(direct(&Pair(-1, None)), tree(&Pair(-1, None)));
        assert_eq!(direct(&Pair(-1, None)), "[-1,null]");
        for v in [Wide::Two(7, "t".into()), Wide::Empty {}] {
            assert_eq!(direct(&v), tree(&v));
        }
        assert_eq!(direct(&Wide::Empty {}), r#"{"Empty":{}}"#);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{8}é\u{7f}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\\u0008é\u{7f}\"");
    }
}
