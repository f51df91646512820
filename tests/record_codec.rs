//! Record codec pins.
//!
//! Records serialize straight to JSON text (`serde::Serialize::write_json`,
//! generated by the derive and written by hand for `DueKind`), and
//! `store::crc32` steps eight bytes at a time. Neither may change a byte the
//! journal, the result documents or any frame carries. These properties pin
//! both, and `store::crc32_combine`, which joins the per-shard digests of a
//! daemon campaign's `records_crc`, against references that build nothing
//! new:
//!
//! * the content tree each value lowers to, rendered by the renderer
//!   `serde_json::to_string` used before the direct writer (copied below);
//! * a bytewise table-driven CRC-32.

use bench::{spec_result, CampaignKind, SpecResult};
use phi_reliability::carolfi::record::{DiffSummary, DueKind, OutcomeRecord, TrialRecord};
use phi_reliability::carolfi::{FaultModel, InjectionDetail, Mismatch, VarClass};
use phi_reliability::store::{crc32, crc32_combine, crc32_update, encode_record, JournalEntry};
use proptest::prelude::*;
use proptest::TestRng;
use serde::__private::{to_content, Content};

// ---------------------------------------------------------------------------
// References.

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_into(out: &mut String, c: &Content) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::F64(v) if !v.is_finite() => out.push_str("null"),
        Content::F64(v) => {
            let s = v.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Content::Str(s) => escape_into(out, s),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(out, item);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                render_into(out, v);
            }
            out.push('}');
        }
    }
}

/// The tree reference: the value's content tree, rendered.
fn tree_json<T: serde::Serialize>(value: &T) -> String {
    let mut out = String::new();
    render_into(&mut out, &to_content(value).expect("content tree"));
    out
}

/// Bytewise table-driven CRC-32 (IEEE 802.3, reflected).
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| (0..8).fold(i, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 }))
        .collect();
    !bytes.iter().fold(!0u32, |c, &b| table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}

// ---------------------------------------------------------------------------
// Arbitrary records.

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Text mixing plain ASCII with everything the writer escapes or copies
/// through: quotes, backslashes, control characters and non-ASCII scalars.
fn text(rng: &mut TestRng) -> String {
    const PIECES: &[&str] = &[
        "a", "index out of bounds: the len is 3 but the index is 7", "\"", "\\", "\n", "\r", "\t", "\u{0}",
        "\u{8}", "\u{c}", "\u{1f}", "\u{7f}", "é", "Ω", "日本", "😀", "/", "{\"k\":[1]}", " ",
    ];
    (0..below(rng, 7)).map(|_| PIECES[below(rng, PIECES.len() as u64) as usize]).collect()
}

/// Floats from arbitrary bit patterns, weighted towards the special ones:
/// NaN payloads of either sign, signed zeros, subnormals and infinities.
fn float(rng: &mut TestRng) -> f64 {
    let bits = rng.next_u64();
    match below(rng, 8) {
        0 => f64::from_bits(bits | 0x7FF0_0000_0000_0001),
        1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        2 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][(bits % 4) as usize],
        3 => (bits % 1000) as f64 / 8.0,
        _ => f64::from_bits(bits),
    }
}

fn size(rng: &mut TestRng) -> usize {
    if rng.next_u64() & 1 == 0 {
        below(rng, 300) as usize
    } else {
        rng.next_u64() as usize
    }
}

fn some<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.next_u64() & 1 == 1).then(|| f(rng))
}

fn coord(rng: &mut TestRng) -> [usize; 3] {
    [size(rng), size(rng), size(rng)]
}

fn due_kind(rng: &mut TestRng) -> DueKind {
    match below(rng, 5) {
        0 => DueKind::Crash { message: text(rng) },
        1 => DueKind::Timeout,
        2 => DueKind::Signal { signo: rng.next_u64() as i32 },
        3 => DueKind::Killed,
        // A tag this build does not know (a known one would not decode as
        // Unknown).
        _ => DueKind::Unknown { raw: format!("Vaporized{}", text(rng)) },
    }
}

fn outcome(rng: &mut TestRng) -> OutcomeRecord {
    match below(rng, 4) {
        0 => OutcomeRecord::Masked,
        1 => OutcomeRecord::HardwareMasked,
        2 => {
            let sample: Vec<Mismatch> = (0..below(rng, 65))
                .map(|_| Mismatch { coord: coord(rng), expected: float(rng), got: float(rng), rel_err: float(rng) })
                .collect();
            OutcomeRecord::Sdc(DiffSummary {
                dims: coord(rng),
                wrong: size(rng),
                distinct: coord(rng),
                bbox_min: coord(rng),
                bbox_max: coord(rng),
                max_rel_err: float(rng),
                mean_rel_err: float(rng),
                nonfinite: size(rng),
                sample,
            })
        }
        _ => OutcomeRecord::Due(due_kind(rng)),
    }
}

const CLASSES: [VarClass; 9] = [
    VarClass::Matrix,
    VarClass::InputArray,
    VarClass::ControlVariable,
    VarClass::Constant,
    VarClass::SortState,
    VarClass::TreeState,
    VarClass::MeshOther,
    VarClass::Buffer,
    VarClass::Pointer,
];

fn injection(rng: &mut TestRng) -> InjectionDetail {
    InjectionDetail {
        var_name: text(rng),
        var_class: CLASSES[below(rng, CLASSES.len() as u64) as usize],
        frame: text(rng),
        thread: some(rng, |r| r.next_u64() as u16),
        decl: text(rng),
        elem_index: size(rng),
        bits: (0..below(rng, 5)).map(|_| rng.next_u64() as u32).collect(),
        mechanism: text(rng),
    }
}

/// Strategy for arbitrary trial records: every outcome and DUE variant,
/// `None` and `Some` for every optional field.
struct Records;

impl Strategy for Records {
    type Value = TrialRecord;

    fn pick(&self, rng: &mut TestRng) -> TrialRecord {
        TrialRecord {
            trial: size(rng),
            benchmark: text(rng),
            model: some(rng, |r| FaultModel::ALL[below(r, 4) as usize]),
            mechanism: text(rng),
            inject_step: size(rng),
            total_steps: size(rng),
            window: size(rng),
            n_windows: size(rng),
            injection: some(rng, injection),
            outcome: outcome(rng),
            executed_steps: size(rng),
        }
    }
}

/// Strategy for short record sequences.
struct RecordLists;

impl Strategy for RecordLists {
    type Value = Vec<TrialRecord>;

    fn pick(&self, rng: &mut TestRng) -> Vec<TrialRecord> {
        (0..below(rng, 12)).map(|_| Records.pick(rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// Properties.

proptest! {
    #[test]
    fn direct_writer_matches_the_tree_reference(record in Records) {
        prop_assert_eq!(serde_json::to_string(&record).unwrap(), tree_json(&record));
    }

    #[test]
    fn journal_lines_match_the_tree_codec(record in Records, shard in 0usize..64, seq: u64) {
        let payload = serde_json::to_string(&record).unwrap();
        let entry = JournalEntry::Trial { shard, seq, payload };
        let json = tree_json(&entry);
        let expected = format!("{:08x} ", crc32_bytewise(json.as_bytes())) + &json + "\n";
        prop_assert_eq!(encode_record(&entry).unwrap(), expected.into_bytes());
    }

    #[test]
    fn decoded_records_reencode_to_the_same_bytes(record in Records) {
        // Bytes, not values: NaN payloads canonicalize through finite_or_tag.
        let json = serde_json::to_string(&record).unwrap();
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn crc32_streams_over_any_split(data in prop::collection::vec(any::<u8>(), 0..300), cut: usize) {
        let (a, b) = data.split_at(cut % (data.len() + 1));
        prop_assert_eq!(crc32_update(crc32(a), b), crc32(&data));
        prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn crc32_combine_joins_any_split(data in prop::collection::vec(any::<u8>(), 0..300), cut: usize) {
        // Empty halves included: the cut ranges over 0..=len.
        let (a, b) = data.split_at(cut % (data.len() + 1));
        prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32_bytewise(&data));
    }

    #[test]
    fn records_crc_keeps_its_definition(records in RecordLists, beam: bool) {
        let kind = if beam { CampaignKind::Beam } else { CampaignKind::Inject };
        let doc: SpecResult = serde_json::from_str(&spec_result(kind, 1, "dgemm", 2017, 0.0, &records)).unwrap();
        let lines: String = records.iter().map(|r| serde_json::to_string(r).unwrap() + "\n").collect();
        prop_assert_eq!(doc.records_crc, crc32_bytewise(lines.as_bytes()));
    }
}

#[test]
fn slicing_by_8_matches_the_bytewise_table_at_every_length_and_offset() {
    let data: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
    for start in 0..data.len() {
        for end in start..=data.len() {
            assert_eq!(crc32(&data[start..end]), crc32_bytewise(&data[start..end]), "bytes {start}..{end}");
        }
    }
}

#[test]
fn every_outcome_and_due_variant_writes_like_the_tree() {
    let mismatch = Mismatch { coord: [1, 2, 0], expected: 1.5, got: f64::NAN, rel_err: f64::INFINITY };
    let sdc = DiffSummary::from_mismatches(&[mismatch], [4, 4, 1]);
    let dues = [
        DueKind::Crash { message: "attempt to add with overflow \"x\"\n".into() },
        DueKind::Timeout,
        DueKind::Signal { signo: -11 },
        DueKind::Killed,
        DueKind::Unknown { raw: "Evaporated".into() },
    ];
    let outcomes = [OutcomeRecord::Masked, OutcomeRecord::HardwareMasked, OutcomeRecord::Sdc(sdc)]
        .into_iter()
        .chain(dues.into_iter().map(OutcomeRecord::Due));
    for outcome in outcomes {
        assert_eq!(serde_json::to_string(&outcome).unwrap(), tree_json(&outcome));
    }
}

// ---------------------------------------------------------------------------
// Decoding pins: one input per row, with its value or its exact error.

use bench::{CampaignSpec, PlanSpec};
use phi_reliability::carolfi::record::finite_or_tag;
use phi_reliability::sdc_analysis::planner::{CiMethod, DEFAULT_BATCH};
use serde::Deserialize;
use std::fmt::Debug;

#[derive(Debug, PartialEq, Deserialize)]
struct Pin {
    a: u8,
    b: Option<bool>,
    c: Vec<u16>,
    d: String,
}

#[derive(Debug, PartialEq, Deserialize)]
enum Shape {
    Dot,
    Circle { r: f64 },
    Pair(u8),
}

#[derive(Debug, PartialEq, Deserialize)]
struct Wide {
    n: u64,
    i: i64,
    f: f64,
    s: [u16; 2],
}

#[derive(Debug, PartialEq, Deserialize)]
struct Tagged {
    #[serde(with = "finite_or_tag")]
    v: f64,
}

/// Decodes each row's input as `T` and compares the value, or the error's
/// exact text.
fn pin<T: for<'de> Deserialize<'de> + PartialEq + Debug>(rows: Vec<(&str, Result<T, &str>)>) {
    let mut wrong = Vec::new();
    for (input, expected) in rows {
        let got = serde_json::from_str::<T>(input).map_err(|e| e.to_string());
        if got != expected.map_err(str::to_string) {
            wrong.push(format!("input {input}\n  got {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

fn p(a: u8, b: Option<bool>, c: &[u16], d: &str) -> Pin {
    Pin { a, b, c: c.to_vec(), d: d.into() }
}

#[test]
fn decoding_keeps_its_values_and_errors() {
    pin(vec![
        (r#"{"a":1,"b":true,"c":[2,3],"d":"x"}"#, Ok(p(1, Some(true), &[2, 3], "x"))),
        // Unknown keys are skipped, however deep.
        (r#"{"zz":{"deep":[1,{"x":null}],"e":"\n"},"a":1,"b":null,"c":[],"d":"","y":-2.5e3}"#, Ok(p(1, None, &[], ""))),
        // Whitespace between any two tokens, and escaped keys.
        (" {\n\"\\u0061\" : 7 ,\t\"b\":false,\"c\" :[ 1 , 2 ],\"d\":\"\\u00e9\\\"\"}\r\n", Ok(p(7, Some(false), &[1, 2], "é\""))),
        // A repeated key keeps its first occurrence, even when a later copy
        // has the wrong type.
        (r#"{"a":1,"a":"bad","b":true,"b":3,"c":[2],"c":{},"d":"x","d":[]}"#, Ok(p(1, Some(true), &[2], "x"))),
        (r#"{"a":"bad","a":1,"b":null,"c":[],"d":""}"#, Err(r#"field "a": expected integer for u8, found string"#)),
        // A missing field is an error, an Option field included.
        (r#"{"a":1,"c":[],"d":""}"#, Err(r#"missing field "b""#)),
        (r#"{"a":1,"b":null,"c":[]}"#, Err(r#"missing field "d""#)),
        ("{}", Err(r#"missing field "a""#)),
        // Integer range, float and string mismatches.
        (r#"{"a":256,"b":null,"c":[],"d":""}"#, Err(r#"field "a": 256 out of range for u8"#)),
        (r#"{"a":-1,"b":null,"c":[],"d":""}"#, Err(r#"field "a": -1 out of range for u8"#)),
        (r#"{"a":1.0,"b":null,"c":[],"d":""}"#, Err(r#"field "a": expected integer for u8, found number"#)),
        (r#"{"a":1e2,"b":null,"c":[],"d":""}"#, Err(r#"field "a": expected integer for u8, found number"#)),
        (r#"{"a":1,"b":null,"c":[1,70000],"d":""}"#, Err(r#"field "c": 70000 out of range for u16"#)),
        (r#"{"a":1,"b":null,"c":[1,"2"],"d":""}"#, Err(r#"field "c": expected integer for u16, found string"#)),
        (r#"{"a":1,"b":0,"c":[],"d":""}"#, Err(r#"field "b": expected bool, found number"#)),
        (r#"{"a":1,"b":null,"c":{},"d":""}"#, Err(r#"field "c": expected sequence, found map"#)),
        (r#"{"a":1,"b":null,"c":[],"d":5}"#, Err(r#"field "d": expected string, found number"#)),
        (r#"{"a":1,"b":null,"c":[],"d":null}"#, Err(r#"field "d": expected string, found null"#)),
        (r#"{"a":true,"b":null,"c":[],"d":""}"#, Err(r#"field "a": expected integer for u8, found bool"#)),
        ("[1]", Err("expected map, found sequence")),
        ("\"a\"", Err("expected map, found string")),
        // Trailing characters.
        (r#"{"a":1,"b":null,"c":[],"d":""} x"#, Err("trailing characters after JSON value at byte 31")),
        (r#"{"a":1,"b":null,"c":[],"d":""}{}"#, Err("trailing characters after JSON value at byte 30")),
        // A syntax error wins over a type error, wherever it sits.
        (r#"{"a":"x","b":null,"c":[],"d":"\q"}"#, Err("unknown escape at byte 32")),
        (r#"{"a":300,"b":tru,"c":[],"d":""}"#, Err("expected true at byte 13")),
        (r#"{"a":300,"b":null,"c":[],"d":""} x"#, Err("trailing characters after JSON value at byte 33")),
        (r#"{"a":1,"b":null,"c":[1,],"d":""}"#, Err("expected a JSON value at byte 23")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":[1 2]}"#, Err("expected , or ] in array at byte 37")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":{"k" 1}}"#, Err("expected ':' at byte 39")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":{1:1}}"#, Err(r#"expected '"' at byte 35"#)),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":{"k":1 "l":2}}"#, Err("expected , or } in object at byte 41")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":-}"#, Err("bad number at byte 35")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":1.2.3}"#, Err("bad number at byte 39")),
        (r#"{"a":1,"b":null,"c":[],"d":"","e":+1}"#, Err("expected a JSON value at byte 34")),
        (r#"{"a":1,"b":null,"c":[],"d":"","a":nul}"#, Err("expected null at byte 34")),
        (r#"{"a":1,"b":null,"c":[],"d":"""#, Err("expected , or } in object at byte 29")),
        ("{\"a\":1,\"b\":null,\"c\":[],\"d\":\"", Err("unterminated string at byte 28")),
        ("", Err("expected a JSON value at byte 0")),
    ]);
    pin(vec![
        (r#"{"n":18446744073709551615,"i":-9223372036854775808,"f":1,"s":[1,2]}"#, Ok(Wide { n: u64::MAX, i: i64::MIN, f: 1.0, s: [1, 2] })),
        (r#"{"n":0,"i":0,"f":-5,"s":[0,0]}"#, Ok(Wide { n: 0, i: 0, f: -5.0, s: [0, 0] })),
        (r#"{"n":0,"i":0,"f":18446744073709551615,"s":[0,0]}"#, Ok(Wide { n: 0, i: 0, f: 18446744073709551615.0, s: [0, 0] })),
        (r#"{"n":18446744073709551616,"i":0,"f":0,"s":[0,0]}"#, Err(r#"field "n": expected integer for u64, found number"#)),
        (r#"{"n":-1,"i":0,"f":0,"s":[0,0]}"#, Err(r#"field "n": -1 out of range for u64"#)),
        (r#"{"n":0,"i":9223372036854775808,"f":0,"s":[0,0]}"#, Err(r#"field "i": 9223372036854775808 out of range for i64"#)),
        (r#"{"n":0,"i":-9223372036854775809,"f":0,"s":[0,0]}"#, Err(r#"field "i": expected integer for i64, found number"#)),
        (r#"{"n":0,"i":0,"f":"1","s":[0,0]}"#, Err(r#"field "f": expected number, found string"#)),
        (r#"{"n":0,"i":0,"f":0,"s":[0,0,0]}"#, Err(r#"field "s": expected array of length 2, found 3"#)),
        (r#"{"n":0,"i":0,"f":0,"s":[0]}"#, Err(r#"field "s": expected array of length 2, found 1"#)),
        (r#"{"n":0,"i":0,"f":0,"s":[0,-1,2]}"#, Err(r#"field "s": -1 out of range for u16"#)),
    ]);
    // An integer read as a float converts as an integer: `-0` is +0.0.
    let zero: Wide = serde_json::from_str(r#"{"n":0,"i":0,"f":-0,"s":[0,0]}"#).unwrap();
    assert_eq!(zero.f.to_bits(), 0.0f64.to_bits());
    let neg: Wide = serde_json::from_str(r#"{"n":0,"i":0,"f":-0.0,"s":[0,0]}"#).unwrap();
    assert_eq!(neg.f.to_bits(), (-0.0f64).to_bits());

    // Every enum shape.
    const NOT_AN_ENUM: &str = "expected enum (string or 1-entry map), found";
    pin(vec![
        ("\"Dot\"", Ok(Shape::Dot)),
        // A unit variant accepts and skips a payload.
        (r#"{"Dot":[1,{"k":2}]}"#, Ok(Shape::Dot)),
        (r#"{"Dot":null}"#, Ok(Shape::Dot)),
        (r#"{"Circle":{"r":2}}"#, Ok(Shape::Circle { r: 2.0 })),
        (r#"{"Circle":{"q":1,"r":0.5,"r":"x"}}"#, Ok(Shape::Circle { r: 0.5 })),
        (r#" { "Pair" : 7 } "#, Ok(Shape::Pair(7))),
        ("\"Circle\"", Err("variant Circle expects a payload")),
        ("\"Pair\"", Err("variant Pair expects a payload")),
        (r#"{"Pair":300}"#, Err("300 out of range for u8")),
        (r#"{"Circle":{}}"#, Err(r#"missing field "r""#)),
        (r#"{"Circle":[]}"#, Err("expected map, found sequence")),
        (r#"{"Circle":{"r":null}}"#, Err(r#"field "r": expected number, found null"#)),
        ("\"Square\"", Err("unknown variant Square of enum Shape")),
        (r#"{"Square":{"side":1}}"#, Err("unknown variant Square of enum Shape")),
        // A map with other than one entry is not an enum.
        ("{}", Err(&*format!("{NOT_AN_ENUM} map"))),
        (r#"{"Dot":null,"Pair":1}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        (r#"{"Pair":1,"Pair":2}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        (r#"{"Pair":"x","Dot":null}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        (r#"{"Square":1,"Dot":null}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        ("5", Err(&*format!("{NOT_AN_ENUM} number"))),
        ("null", Err(&*format!("{NOT_AN_ENUM} null"))),
        ("[\"Dot\"]", Err(&*format!("{NOT_AN_ENUM} sequence"))),
        (r#"{"Dot":null,"Pair":}"#, Err("expected a JSON value at byte 19")),
    ]);

    // DueKind: an unknown tag, bare or with a payload, decodes as Unknown.
    pin(vec![
        (r#"{"FutureKind":{"x":[1,2]}}"#, Ok(DueKind::Unknown { raw: "FutureKind".into() })),
        ("\"Evaporated\"", Ok(DueKind::Unknown { raw: "Evaporated".into() })),
        (r#"{"Crash":{"extra":[],"message":"m","message":1}}"#, Ok(DueKind::Crash { message: "m".into() })),
        (r#"{"Signal":{"signo":-6}}"#, Ok(DueKind::Signal { signo: -6 })),
        (r#"{"Killed":[1]}"#, Ok(DueKind::Killed)),
        ("\"Timeout\"", Ok(DueKind::Timeout)),
        (r#"{"Signal":{"signo":"x"}}"#, Err(r#"field "signo": expected integer for i32, found string"#)),
        (r#"{"Signal":{"signo":2147483648}}"#, Err(r#"field "signo": 2147483648 out of range for i32"#)),
        (r#"{"Crash":{}}"#, Err(r#"missing field "message""#)),
        (r#"{"Crash":"boom"}"#, Err("expected map, found string")),
        ("\"Crash\"", Err("variant Crash expects a payload")),
        ("\"Signal\"", Err("variant Signal expects a payload")),
        (r#"{"Timeout":null,"Killed":null}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        (r#"{"FutureKind":1,"Killed":null}"#, Err(&*format!("{NOT_AN_ENUM} map"))),
        ("7", Err(&*format!("{NOT_AN_ENUM} number"))),
    ]);

    // finite_or_tag. The rows marked CHANGED are the only ones whose text
    // differs from the tree decoder's, which named the untagged enum it
    // tried: "data matched no variant of untagged enum Raw".
    pin(vec![
        (r#"{"v":"inf"}"#, Ok(Tagged { v: f64::INFINITY })),
        (r#"{"v":"-inf"}"#, Ok(Tagged { v: f64::NEG_INFINITY })),
        (r#"{"v":1}"#, Ok(Tagged { v: 1.0 })),
        (r#"{"v":-2.5}"#, Ok(Tagged { v: -2.5 })),
        (r#"{"v":"zz"}"#, Err(r#"bad float tag "zz""#)),
        (r#"{}"#, Err(r#"missing field "v""#)),
        (r#"{"v":true}"#, Err("expected number, found bool")),       // CHANGED
        (r#"{"v":null}"#, Err("expected number, found null")),       // CHANGED
        (r#"{"v":[1.0]}"#, Err("expected number, found sequence")), // CHANGED
    ]);
    let nan: Tagged = serde_json::from_str(r#"{"v":"nan"}"#).unwrap();
    assert!(nan.v.is_nan());

    // A record: nested field errors name every enclosing field.
    let record = |outcome: &str| {
        format!(
            "{{\"trial\":0,\"benchmark\":\"nw\",\"model\":\"Single\",\"mechanism\":\"single\",\"inject_step\":1,\
             \"total_steps\":4,\"window\":0,\"n_windows\":4,\"injection\":null,\"outcome\":{outcome},\"executed_steps\":0}}"
        )
    };
    let sdc = |max: &str| {
        format!(
            "{{\"Sdc\":{{\"dims\":[4,4,1],\"wrong\":1,\"distinct\":[1,1,1],\"bbox_min\":[0,0,0],\"bbox_max\":[0,0,0],\
             \"max_rel_err\":{max},\"mean_rel_err\":0.5,\"nonfinite\":0,\"sample\":[]}}}}"
        )
    };
    for (input, expected) in [
        (record("\"Masked\""), Ok(())),
        (record(&sdc("\"inf\"")), Ok(())),
        (record(&sdc("2")), Ok(())),
        (record("{\"Due\":{\"Vaporized\":{\"depth\":[3]}}}"), Ok(())),
        (record("{\"Due\":\"Crash\"}"), Err(r#"field "outcome": variant Crash expects a payload"#)),
        (record("{\"Sdc\":{}}"), Err(r#"field "outcome": missing field "dims""#)),
        (record(&sdc("\"big\"")), Err(r#"field "outcome": bad float tag "big""#)),
        (record(&sdc("false")), Err(r#"field "outcome": expected number, found bool"#)), // CHANGED
        (record("\"Exploded\""), Err(r#"field "outcome": unknown variant Exploded of enum OutcomeRecord"#)),
        (record("\"Masked\"").replace("\"model\":\"Single\"", "\"model\":\"Triple\""), Err(r#"field "model": unknown variant Triple of enum FaultModel"#)),
        (record("\"Masked\"").replace(",\"executed_steps\":0", ""), Err(r#"missing field "executed_steps""#)),
    ] {
        let got = serde_json::from_str::<TrialRecord>(&input).map(drop).map_err(|e| e.to_string());
        assert_eq!(got, expected.map_err(str::to_string), "input {input}");
    }
}

#[test]
fn spec_decoding_keeps_v1_and_v2_tolerance() {
    const V1: &str = r#""kind":"inject","benchmark":"dgemm","trials":64,"seed":1,"size":"test","shards":2,"isolate":false,"models":["single"],"tolerance":0.5"#;
    let spec = |version: u32, plan: Option<PlanSpec>| CampaignSpec {
        kind: bench::CampaignKind::Inject,
        version,
        benchmark: "dgemm".into(),
        trials: 64,
        seed: 1,
        size: "test".into(),
        shards: 2,
        isolate: false,
        models: vec!["single".into()],
        tolerance: 0.5,
        plan,
    };
    let plan = |ci: f64, batch: usize, method: CiMethod| Some(PlanSpec { ci, batch, method });
    let doc = |extra: &str| format!("{{{V1}{extra}}}");
    pin(vec![
        // No `version` means 1; `plan` absent or null means None.
        (doc("").as_str(), Ok(spec(1, None))),
        (&doc(r#","plan":null"#), Ok(spec(1, None))),
        (&doc(r#","version":2,"plan":{"ci":0.1}"#), Ok(spec(2, plan(0.1, DEFAULT_BATCH, CiMethod::Wilson)))),
        (&doc(r#","version":2,"plan":{"ci":0.1,"batch":8,"method":"clopper-pearson","x":1}"#), Ok(spec(2, plan(0.1, 8, CiMethod::ClopperPearson)))),
        (&doc(r#","version":7,"future":{"k":[1]}"#), Ok(spec(7, None))),
        (&doc(r#","version":2,"version":"x""#), Ok(spec(2, None))),
        (&doc(r#","version":"2""#), Err(r#"field "version": expected integer for u32, found string"#)),
        (&doc(r#","version":-1"#), Err(r#"field "version": -1 out of range for u32"#)),
        (&doc(r#","plan":{"ci":"x"}"#), Err(r#"plan: field "ci": expected number, found string"#)),
        (&doc(r#","plan":{"batch":4}"#), Err(r#"plan: missing field "ci""#)),
        (&doc(r#","plan":[]"#), Err("plan: expected map, found sequence")),
        (&doc(r#","plan":{"ci":0.1,"batch":-1}"#), Err(r#"plan: field "batch": -1 out of range for usize"#)),
        (&doc(r#","plan":{"ci":0.1,"method":3}"#), Err(r#"plan: field "method": expected string, found number"#)),
        (&doc(r#","plan":{"ci":0.1,"method":"exact"}"#), Err(r#"plan.method: expected wilson or clopper-pearson, got "exact""#)),
        (&doc(r#","kind":"beam""#), Ok(spec(1, None))),
        (&doc("").replace(r#""seed":1,"#, ""), Err(r#"missing field "seed""#)),
        (&doc("").replace(r#""inject""#, "5"), Err(r#"field "kind": expected string, found number"#)),
        (&doc("").replace(r#""inject""#, r#""laser""#), Err(r#"field "kind": kind: expected "inject" or "beam", got "laser""#)),
        (&doc("").replace(r#"["single"]"#, "[1]"), Err(r#"field "models": expected string, found number"#)),
        (&doc("").replace("0.5", "\"0.5\""), Err(r#"field "tolerance": expected number, found string"#)),
        (&doc(r#","plan":{"ci":0.1,"method":"exact"}"#).replace("0.5", "0.5 x"), Err("expected , or } in object at byte 135")),
    ]);
}
