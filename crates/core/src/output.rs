//! Program outputs and bit-exact comparison against golden copies.
//!
//! Beam experiments and the injection campaign both classify a run by
//! comparing its output with a pre-computed, error-free *golden* output
//! (paper §4.1, §6): any bit mismatch is an SDC. The mismatch list keeps the
//! 3-D coordinates of every corrupted element so the spatial-pattern
//! classifier (paper §4.3) and the relative-error tolerance sweep (paper
//! §4.4) can run downstream.

use serde::{Deserialize, Serialize};

/// A program output: a dense grid of up to three dimensions.
///
/// 2-D outputs use `dims = [rows, cols, 1]`; 1-D outputs `[n, 1, 1]`.
/// `LavaMD` is the only paper benchmark with a genuinely 3-D output, which is
/// why it is the only one that can exhibit the *cubic* error pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Output {
    F64Grid { dims: [usize; 3], data: Vec<f64> },
    F32Grid { dims: [usize; 3], data: Vec<f32> },
    I32Grid { dims: [usize; 3], data: Vec<i32> },
}

/// One corrupted output element.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Mismatch {
    /// Element coordinates `[i, j, k]` (unused trailing dims are 0).
    pub coord: [usize; 3],
    /// Expected (golden) value, widened to f64.
    #[serde(with = "crate::record::finite_or_tag")]
    pub expected: f64,
    /// Observed value, widened to f64.
    #[serde(with = "crate::record::finite_or_tag")]
    pub got: f64,
    /// Relative error `|got - expected| / max(|expected|, eps)`.
    ///
    /// NaN/Inf observations are assigned `f64::INFINITY` so that no finite
    /// tolerance ever accepts them.
    #[serde(with = "crate::record::finite_or_tag")]
    pub rel_err: f64,
}

/// Bitwise equality: two mismatches are equal when they log identically.
/// NaN observations are common (corrupted floats), and derived `PartialEq`
/// would make such records unequal to themselves.
impl PartialEq for Mismatch {
    fn eq(&self, other: &Self) -> bool {
        self.coord == other.coord
            && self.expected.to_bits() == other.expected.to_bits()
            && self.got.to_bits() == other.got.to_bits()
            && self.rel_err.to_bits() == other.rel_err.to_bits()
    }
}

/// Denominator floor for relative error, so corrupted zeros still register.
const REL_ERR_EPS: f64 = 1e-30;

fn rel_err(expected: f64, got: f64) -> f64 {
    if got.is_nan() || got.is_infinite() {
        return f64::INFINITY;
    }
    if expected.to_bits() == got.to_bits() {
        return 0.0;
    }
    (got - expected).abs() / expected.abs().max(REL_ERR_EPS)
}

fn unflatten(idx: usize, dims: [usize; 3]) -> [usize; 3] {
    // Row-major: idx = (i * dims[1] + j) * dims[2] + k.
    let k = idx % dims[2];
    let j = (idx / dims[2]) % dims[1];
    let i = idx / (dims[1] * dims[2]);
    [i, j, k]
}

impl Output {
    /// Grid dimensions.
    pub fn dims(&self) -> [usize; 3] {
        match self {
            Output::F64Grid { dims, .. } | Output::F32Grid { dims, .. } | Output::I32Grid { dims, .. } => *dims,
        }
    }

    /// Number of non-degenerate dimensions (extent > 1).
    pub fn rank(&self) -> usize {
        self.dims().iter().filter(|&&d| d > 1).count()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        match self {
            Output::F64Grid { data, .. } => data.len(),
            Output::F32Grid { data, .. } => data.len(),
            Output::I32Grid { data, .. } => data.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bit-exact mismatch list against a golden output.
    ///
    /// Panics if the two outputs have different shapes or element types —
    /// that would be a harness bug, not a program outcome.
    pub fn mismatches(&self, golden: &Output) -> Vec<Mismatch> {
        assert_eq!(self.dims(), golden.dims(), "output shape changed between runs");
        let dims = self.dims();
        let mut out = Vec::new();
        match (self, golden) {
            (Output::F64Grid { data: a, .. }, Output::F64Grid { data: b, .. }) => {
                assert_eq!(a.len(), b.len());
                for (idx, (&got, &exp)) in a.iter().zip(b).enumerate() {
                    if got.to_bits() != exp.to_bits() {
                        out.push(Mismatch { coord: unflatten(idx, dims), expected: exp, got, rel_err: rel_err(exp, got) });
                    }
                }
            }
            (Output::F32Grid { data: a, .. }, Output::F32Grid { data: b, .. }) => {
                assert_eq!(a.len(), b.len());
                for (idx, (&got, &exp)) in a.iter().zip(b).enumerate() {
                    if got.to_bits() != exp.to_bits() {
                        out.push(Mismatch {
                            coord: unflatten(idx, dims),
                            expected: exp as f64,
                            got: got as f64,
                            rel_err: rel_err(exp as f64, got as f64),
                        });
                    }
                }
            }
            (Output::I32Grid { data: a, .. }, Output::I32Grid { data: b, .. }) => {
                assert_eq!(a.len(), b.len());
                for (idx, (&got, &exp)) in a.iter().zip(b).enumerate() {
                    if got != exp {
                        out.push(Mismatch {
                            coord: unflatten(idx, dims),
                            expected: exp as f64,
                            got: got as f64,
                            rel_err: rel_err(exp as f64, got as f64),
                        });
                    }
                }
            }
            _ => panic!("output element type changed between runs"),
        }
        out
    }

    /// True when the two outputs are bit-identical.
    pub fn matches(&self, golden: &Output) -> bool {
        self.mismatches(golden).is_empty()
    }

    /// Chunked bitwise equality fast path.
    ///
    /// Compares the raw data buffers as `u64` words (plus a byte tail), so
    /// the overwhelmingly common Masked trial never walks elements one by
    /// one. Agrees with [`Output::mismatches`] exactly: floats compare by
    /// bit pattern, so NaN payloads and `-0.0` vs `0.0` are mismatches here
    /// too. Returns `false` (rather than panicking) on shape or element-type
    /// differences — callers fall through to `mismatches`, which reports the
    /// harness bug.
    pub fn bits_equal(&self, golden: &Output) -> bool {
        if self.dims() != golden.dims() {
            return false;
        }
        match (self, golden) {
            (Output::F64Grid { data: a, .. }, Output::F64Grid { data: b, .. }) => {
                bytes_equal_wordwise(crate::bytesview::as_bytes(a), crate::bytesview::as_bytes(b))
            }
            (Output::F32Grid { data: a, .. }, Output::F32Grid { data: b, .. }) => {
                bytes_equal_wordwise(crate::bytesview::as_bytes(a), crate::bytesview::as_bytes(b))
            }
            (Output::I32Grid { data: a, .. }, Output::I32Grid { data: b, .. }) => {
                bytes_equal_wordwise(crate::bytesview::as_bytes(a), crate::bytesview::as_bytes(b))
            }
            _ => false,
        }
    }
}

/// Word-at-a-time byte equality: 8-byte `u64` chunks first, then the tail.
fn bytes_equal_wordwise(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (wa, wb) in ac.by_ref().zip(bc.by_ref()) {
        let wa = u64::from_ne_bytes(wa.try_into().unwrap());
        let wb = u64::from_ne_bytes(wb.try_into().unwrap());
        if wa != wb {
            return false;
        }
    }
    ac.remainder() == bc.remainder()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2(rows: usize, cols: usize, data: Vec<f64>) -> Output {
        Output::F64Grid { dims: [rows, cols, 1], data }
    }

    #[test]
    fn identical_outputs_have_no_mismatches() {
        let a = grid2(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(a.matches(&a.clone()));
    }

    #[test]
    fn single_element_mismatch_reports_coordinates() {
        let golden = grid2(2, 3, vec![1.0; 6]);
        let mut bad = golden.clone();
        if let Output::F64Grid { data, .. } = &mut bad {
            data[4] = 2.0; // row 1, col 1
        }
        let m = bad.mismatches(&golden);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].coord, [1, 1, 0]);
        assert_eq!(m[0].expected, 1.0);
        assert_eq!(m[0].got, 2.0);
        assert!((m[0].rel_err - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_counts_as_infinite_relative_error() {
        let golden = grid2(1, 1, vec![1.0]);
        let bad = grid2(1, 1, vec![f64::NAN]);
        let m = bad.mismatches(&golden);
        assert_eq!(m.len(), 1);
        assert!(m[0].rel_err.is_infinite());
    }

    #[test]
    fn negative_zero_is_a_bit_mismatch() {
        // The paper counts ANY bit mismatch as an SDC; -0.0 vs 0.0 differ in bits.
        let golden = grid2(1, 1, vec![0.0]);
        let bad = grid2(1, 1, vec![-0.0]);
        assert_eq!(bad.mismatches(&golden).len(), 1);
    }

    #[test]
    fn corrupted_zero_has_finite_but_huge_rel_err() {
        let golden = grid2(1, 1, vec![0.0]);
        let bad = grid2(1, 1, vec![1e-3]);
        let m = bad.mismatches(&golden);
        assert!(m[0].rel_err > 1e20);
    }

    #[test]
    fn three_d_coordinates_unflatten_row_major() {
        let dims = [2usize, 3, 4];
        let golden = Output::F32Grid { dims, data: vec![0.0; 24] };
        let mut bad = golden.clone();
        if let Output::F32Grid { data, .. } = &mut bad {
            let (i, j, k) = (1, 2, 3);
            data[(i * 3 + j) * 4 + k] = 1.0;
        }
        let m = bad.mismatches(&golden);
        assert_eq!(m[0].coord, [1, 2, 3]);
    }

    #[test]
    fn i32_grid_mismatch() {
        let golden = Output::I32Grid { dims: [2, 2, 1], data: vec![0, 1, 2, 3] };
        let bad = Output::I32Grid { dims: [2, 2, 1], data: vec![0, 1, 9, 3] };
        let m = bad.mismatches(&golden);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].coord, [1, 0, 0]);
        assert!((m[0].rel_err - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_mismatch_is_a_harness_bug() {
        let a = grid2(1, 2, vec![0.0; 2]);
        let b = grid2(2, 1, vec![0.0; 2]);
        let _ = a.mismatches(&b);
    }

    #[test]
    fn bits_equal_agrees_with_mismatches_on_tricky_bit_patterns() {
        // 17 elements: two u64 words of f32 data plus a 4-byte tail, so both
        // the word loop and the remainder path are exercised.
        let golden = Output::F32Grid { dims: [17, 1, 1], data: (0..17).map(|i| i as f32).collect() };
        assert!(golden.bits_equal(&golden.clone()));
        for idx in [0usize, 7, 16] {
            for bad_val in [f32::NAN, -0.0, f32::from_bits(0x7fc0_dead)] {
                let mut bad = golden.clone();
                if let Output::F32Grid { data, .. } = &mut bad {
                    data[idx] = bad_val;
                }
                let expect_equal = bad.mismatches(&golden).is_empty();
                assert_eq!(bad.bits_equal(&golden), expect_equal, "idx {idx} val {bad_val:?}");
            }
        }
        // Identical NaN payloads on both sides are bit-equal — and
        // mismatches() agrees, because it compares bits, not float ==.
        let nan = Output::F64Grid { dims: [3, 1, 1], data: vec![f64::from_bits(0x7ff8_0000_0000_beef); 3] };
        assert!(nan.bits_equal(&nan.clone()));
        assert!(nan.mismatches(&nan.clone()).is_empty());
    }

    #[test]
    fn bits_equal_is_false_across_shapes_and_types() {
        let a = grid2(1, 2, vec![0.0; 2]);
        let b = grid2(2, 1, vec![0.0; 2]);
        assert!(!a.bits_equal(&b), "reshape is never bit-equal");
        let f32v = Output::F32Grid { dims: [2, 1, 1], data: vec![0.0; 2] };
        let i32v = Output::I32Grid { dims: [2, 1, 1], data: vec![0; 2] };
        assert!(!f32v.bits_equal(&i32v), "type change is never bit-equal");
    }

    #[test]
    fn rank_counts_nontrivial_dims() {
        assert_eq!(grid2(4, 4, vec![0.0; 16]).rank(), 2);
        assert_eq!(grid2(4, 1, vec![0.0; 4]).rank(), 1);
        let cube = Output::F32Grid { dims: [2, 2, 2], data: vec![0.0; 8] };
        assert_eq!(cube.rank(), 3);
    }
}
