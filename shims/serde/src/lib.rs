//! Offline stand-in for `serde`.
//!
//! The real serde drives serialization through a visitor protocol; this shim
//! collapses that to a JSON-shaped [`__private::Content`] tree, which is all
//! the workspace needs (every serialized type round-trips through JSON
//! lines). The public surface mirrors the fragments of serde's API the
//! workspace spells out by hand:
//!
//! * `Serialize` / `Deserialize` traits plus the re-exported derives;
//! * `Serializer` with `serialize_f64` / `serialize_str` (the `finite_or_tag`
//!   codec) and `Deserializer` with a `Content`-producing entry point;
//! * `ser::Error` / `de::Error` with `custom`.
//!
//! The derive macros (see the sibling `serde_derive` shim) generate
//! implementations of [`__private::FromContent`], the workhorse trait used
//! to decode nested fields, plus bridging `Deserialize` impls.
//!
//! Serialization has two paths. [`Serialize::write_json`] appends a value's
//! JSON text straight to a buffer: derived impls, primitives and std
//! containers write themselves, and `serde_json::to_string` takes this path.
//! [`Serialize::serialize`] lowers a value to its content tree; it remains
//! for hand-written impls (which `write_json` renders through
//! [`__private::JsonSerializer`]) and as the reference the direct writer is
//! tested against.

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

pub mod de {
    /// Error constraint for deserializers (mirror of `serde::de::Error`).
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

/// A type that can be deserialized.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Data source: yields the parsed content tree for `FromContent` decoding.
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    fn content(self) -> Result<__private::Content, Self::Error>;
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
    use super::{de, ser, Deserialize, Deserializer, Serialize, Serializer};

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

    impl Content {
        fn kind(&self) -> &'static str {
            match self {
                Content::Null => "null",
                Content::Bool(_) => "bool",
                Content::I64(_) | Content::U64(_) | Content::F64(_) => "number",
                Content::Str(_) => "string",
                Content::Seq(_) => "sequence",
                Content::Map(_) => "map",
            }
        }
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

    impl de::Error for ContentError {
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

    /// Deserializer reading back out of a content tree it owns.
    pub struct ContentDeserializer {
        content: Content,
    }

    impl ContentDeserializer {
        pub fn new(content: Content) -> Self {
            ContentDeserializer { content }
        }
    }

    impl<'de> Deserializer<'de> for ContentDeserializer {
        type Error = ContentError;

        fn content(self) -> Result<Content, ContentError> {
            Ok(self.content)
        }
    }

    /// Decoding out of a content tree; derived `Deserialize` impls are thin
    /// bridges over this (it is what nested-field decoding calls).
    pub trait FromContent: Sized {
        fn from_content(c: &Content) -> Result<Self, ContentError>;
    }

    // -- helpers the derive-generated code calls ---------------------------

    pub fn as_map(c: &Content) -> Result<&[(String, Content)], ContentError> {
        match c {
            Content::Map(m) => Ok(m),
            other => Err(ContentError(format!("expected map, found {}", other.kind()))),
        }
    }

    pub fn as_seq(c: &Content) -> Result<&[Content], ContentError> {
        match c {
            Content::Seq(s) => Ok(s),
            other => Err(ContentError(format!("expected sequence, found {}", other.kind()))),
        }
    }

    pub fn idx(seq: &[Content], i: usize) -> Result<&Content, ContentError> {
        seq.get(i).ok_or_else(|| ContentError(format!("sequence too short: no element {i}")))
    }

    pub fn field_content<'a>(m: &'a [(String, Content)], name: &str) -> Result<&'a Content, ContentError> {
        m.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| ContentError(format!("missing field {name:?}")))
    }

    pub fn field<T: FromContent>(m: &[(String, Content)], name: &str) -> Result<T, ContentError> {
        T::from_content(field_content(m, name)?).map_err(|e| ContentError(format!("field {name:?}: {e}")))
    }

    pub fn content_to<T: FromContent>(c: &Content) -> Result<T, ContentError> {
        T::from_content(c)
    }

    /// Splits an externally tagged enum value into `(variant_name, payload)`.
    /// A bare string is a unit variant; a one-entry map carries a payload.
    pub fn enum_parts(c: &Content) -> Result<(&str, Option<&Content>), ContentError> {
        match c {
            Content::Str(s) => Ok((s, None)),
            Content::Map(m) if m.len() == 1 => Ok((&m[0].0, Some(&m[0].1))),
            other => Err(ContentError(format!("expected enum (string or 1-entry map), found {}", other.kind()))),
        }
    }

    /// Payload of a non-unit variant (errors if the tag arrived bare).
    pub fn variant_inner<'a>(inner: Option<&'a Content>, name: &str) -> Result<&'a Content, ContentError> {
        inner.ok_or_else(|| ContentError(format!("variant {name} expects a payload")))
    }

    // -- FromContent impls for primitives and std containers ---------------

    macro_rules! impl_from_content_int {
        ($($t:ty),*) => {$(
            impl FromContent for $t {
                fn from_content(c: &Content) -> Result<Self, ContentError> {
                    match c {
                        Content::I64(v) => <$t>::try_from(*v)
                            .map_err(|_| ContentError(format!("{v} out of range for {}", stringify!($t)))),
                        Content::U64(v) => <$t>::try_from(*v)
                            .map_err(|_| ContentError(format!("{v} out of range for {}", stringify!($t)))),
                        other => Err(ContentError(format!(
                            "expected integer for {}, found {}", stringify!($t), other.kind()
                        ))),
                    }
                }
            }
        )*};
    }
    impl_from_content_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl FromContent for bool {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            match c {
                Content::Bool(b) => Ok(*b),
                other => Err(ContentError(format!("expected bool, found {}", other.kind()))),
            }
        }
    }

    impl FromContent for f64 {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            match c {
                Content::F64(v) => Ok(*v),
                Content::I64(v) => Ok(*v as f64),
                Content::U64(v) => Ok(*v as f64),
                other => Err(ContentError(format!("expected number, found {}", other.kind()))),
            }
        }
    }

    impl FromContent for f32 {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            f64::from_content(c).map(|v| v as f32)
        }
    }

    impl FromContent for String {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            match c {
                Content::Str(s) => Ok(s.clone()),
                other => Err(ContentError(format!("expected string, found {}", other.kind()))),
            }
        }
    }

    impl<T: FromContent> FromContent for Vec<T> {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            as_seq(c)?.iter().map(T::from_content).collect()
        }
    }

    impl<T: FromContent, const N: usize> FromContent for [T; N] {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            let v: Vec<T> = Vec::from_content(c)?;
            let n = v.len();
            v.try_into().map_err(|_| ContentError(format!("expected array of length {N}, found {n}")))
        }
    }

    impl<T: FromContent> FromContent for Box<T> {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            T::from_content(c).map(Box::new)
        }
    }

    impl<T: FromContent> FromContent for Option<T> {
        fn from_content(c: &Content) -> Result<Self, ContentError> {
            match c {
                Content::Null => Ok(None),
                other => T::from_content(other).map(Some),
            }
        }
    }

    // Bridging Deserialize impls so hand-written codecs (e.g. the untagged
    // `Raw` enum in finite_or_tag) can deserialize primitives directly.
    macro_rules! impl_deserialize_via_content {
        ($($t:ty),*) => {$(
            impl<'de> Deserialize<'de> for $t {
                fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                    let c = d.content()?;
                    <$t as FromContent>::from_content(&c).map_err(<D::Error as de::Error>::custom)
                }
            }
        )*};
    }
    impl_deserialize_via_content!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64, String);

    impl<'de, T: FromContent> Deserialize<'de> for Vec<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let c = d.content()?;
            Vec::from_content(&c).map_err(<D::Error as de::Error>::custom)
        }
    }

    impl<'de, T: FromContent> Deserialize<'de> for Option<T> {
        fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
            let c = d.content()?;
            Option::from_content(&c).map_err(<D::Error as de::Error>::custom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::__private::{to_content, write_content, write_str, Content, ContentDeserializer, FromContent};
    use super::{Deserialize, Serialize};

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
        let back = Point::deserialize(ContentDeserializer::new(c)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn derived_enum_roundtrips_all_variant_shapes() {
        for v in [Shape::Dot, Shape::Circle { r: 2.5 }, Shape::Pair(9)] {
            let c = to_content(&v).unwrap();
            let back = Shape::deserialize(ContentDeserializer::new(c)).unwrap();
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
        assert_eq!(Point::deserialize(ContentDeserializer::new(c)).unwrap(), p);
    }

    #[test]
    fn integer_range_errors_are_reported() {
        let c = Content::U64(70_000);
        assert!(u16::from_content(&c).is_err());
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
