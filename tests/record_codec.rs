//! Record codec pins.
//!
//! Records serialize straight to JSON text (`serde::Serialize::write_json`,
//! generated by the derive and written by hand for `DueKind`), and
//! `store::crc32` steps eight bytes at a time. Neither may change a byte the
//! journal, the result documents or any frame carries. These properties pin
//! both against references that build nothing new:
//!
//! * the content tree each value lowers to, rendered by the renderer
//!   `serde_json::to_string` used before the direct writer (copied below);
//! * a bytewise table-driven CRC-32.

use bench::{spec_result, CampaignKind, SpecResult};
use phi_reliability::carolfi::record::{DiffSummary, DueKind, OutcomeRecord, TrialRecord};
use phi_reliability::carolfi::{FaultModel, InjectionDetail, Mismatch, VarClass};
use phi_reliability::store::{crc32, crc32_update, encode_record, JournalEntry};
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
