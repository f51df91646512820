//! Output quantisation matching Rodinia's text result files.
//!
//! The paper's harness "gathers results, comparing them with a pre-computed
//! golden output" (§4.1) — for the Rodinia benchmarks that ship file-based
//! outputs the comparison granularity is the printed representation
//! (`%g` ⇒ 6 significant decimal digits), so relative differences below
//! ~1e-6 never register as SDCs. These helpers reproduce that granularity.

/// Rounds to 6 significant decimal digits (the `%g` default).
///
/// Equal bit for bit to `sig_digits_f32(v, 6)` for every `f32`, without its
/// four libm calls (`log10f`, `floor`, `powi`, `round`; baseline x86-64 has
/// no SSE4.1 rounding instruction): the decade comes from the binary
/// exponent and [`DECADE_START`], the scale from [`SCALE`], and the rounding
/// from a truncate-and-compare that is exact below 2^53. The final division
/// is the formula's own, so the result rounds the same way.
pub fn sig6_f32(v: f32) -> f32 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let a = v.abs();
    let bits = a.to_bits();
    // floor(log2 a), subnormals included.
    let e2 = if bits >> 23 != 0 { (bits >> 23) as i32 - 127 } else { -118 - bits.leading_zeros() as i32 };
    // floor(e2 · log10 2) for every f32 exponent; `log10` reaches at most
    // one decade more within a binade.
    let k0 = (e2 * 1233) >> 12;
    let k = k0 + i32::from(a >= DECADE_START[(k0 - MIN_DECADE) as usize]);
    let scale = SCALE[(k - MIN_DECADE) as usize];
    // a·scale lies in [1e5, 1e6] give or take the thresholds' few ULPs, so
    // truncation is exact and `y - t` is the exact fraction: this is
    // `f64::round` (half away from zero) on a positive value.
    let y = a as f64 * scale;
    let t = y as i64 as f64;
    let r = if y - t >= 0.5 { t + 1.0 } else { t };
    // Every step of the formula is odd in `v`, so the sign goes back on last.
    ((r / scale) as f32).copysign(v)
}

/// The lowest decade a nonzero `f32` falls in: `f32::log10` of the smallest
/// subnormal floors to −45.
const MIN_DECADE: i32 = -45;

/// `DECADE_START[i]` is the smallest `f32` whose `log10().floor()` reaches
/// decade `k = i + MIN_DECADE + 1` (−44 to 38), and +∞ for decade 39, which
/// no `f32` reaches. The thresholds come from the platform's `log10f`, which
/// reaches a decade up to 70 ULPs below the power of ten itself;
/// `tables_rederive_from_log10_and_powi` derives them again.
#[rustfmt::skip]
const DECADE_START: [f32; 84] = [
    1.1e-44, 1.01e-43, 1e-42, 1.0001e-41, 1.00001e-40, 9.99996e-40, 9.999957e-39, 9.999956e-38,
    9.999956e-37, 9.9999564e-36, 9.999957e-35, 9.999956e-34, 9.999956e-33, 9.999979e-32, 9.999978e-31, 9.999978e-30,
    9.9999784e-29, 9.999978e-28, 9.999978e-27, 9.9999786e-26, 9.9999785e-25, 9.999979e-24, 9.999978e-23, 9.999978e-22,
    9.999979e-21, 9.9999784e-20, 9.999979e-19, 9.999978e-18, 9.9999783e-17, 9.999989e-16, 9.99999e-15, 9.9999897e-14,
    9.999989e-13, 9.999989e-12, 9.999989e-11, 9.99999e-10, 9.999989e-9, 9.999995e-8, 9.999995e-7, 9.999995e-6,
    9.999995e-5, 0.0009999998, 0.009999998, 0.09999999, 1.0, 10.0, 99.999985, 999.99963,
    9999.998, 99999.945, 999999.44, 9999995.0, 99999944.0, 999998850.0, 9999990000.0, 99999890000.0,
    999998900000.0, 9999989000000.0, 99999890000000.0, 999998900000000.0, 9999990000000000.0, 9.999978e16, 9.9999785e17, 9.999978e18,
    9.999978e19, 9.9999784e20, 9.999978e21, 9.999978e22, 9.9999785e23, 9.999979e24, 9.999978e25, 9.9999785e26,
    9.999978e27, 9.999978e28, 9.999978e29, 9.9999775e30, 9.999978e31, 9.999957e32, 9.9999565e33, 9.999957e34,
    9.999956e35, 9.9999556e36, 9.999956e37, f32::INFINITY,
];

/// `SCALE[i]` is `10f64.powi(5 - k)` for decade `k = i + MIN_DECADE` (−45 to
/// 38), as `powi` computes it at run time: by repeated multiplication, one
/// ULP off the nearest double for 15 of the 84 exponents.
#[rustfmt::skip]
const SCALE: [f64; 84] = [
    1e50, 1.0000000000000001e49, 1e48, 1e47, 1e46, 1.0000000000000001e45,
    1e44, 1e43, 1e42, 1e41, 1e40, 1.0000000000000001e39,
    1e38, 1.0000000000000001e37, 1e36, 1e35, 1.0000000000000001e34, 1.0000000000000001e33,
    1e32, 1e31, 1e30, 1e29, 1e28, 1e27,
    1e26, 1e25, 1e24, 1e23, 1e22, 1e21,
    1e20, 1e19, 1e18, 1e17, 1e16, 1000000000000000.0,
    100000000000000.0, 10000000000000.0, 1000000000000.0, 100000000000.0, 10000000000.0, 1000000000.0,
    100000000.0, 10000000.0, 1000000.0, 100000.0, 10000.0, 1000.0,
    100.0, 10.0, 1.0, 0.1, 0.01, 0.001,
    0.0001, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9,
    1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15,
    1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21,
    1e-22, 1.0000000000000001e-23, 1.0000000000000001e-24, 9.999999999999999e-26, 9.999999999999999e-27, 1e-27,
    1.0000000000000001e-28, 1.0000000000000001e-29, 9.999999999999999e-31, 1e-31, 9.999999999999999e-33, 9.999999999999999e-34,
];

/// Rounds to `d` significant decimal digits. The reference [`sig6_f32`] is
/// tested against.
pub fn sig_digits_f32(v: f32, d: i32) -> f32 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let exp = (v.abs().log10().floor()) as i32;
    let scale = 10f64.powi(d - 1 - exp);
    ((v as f64 * scale).round() / scale) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_digits_keep_the_leading_figures() {
        assert_eq!(sig6_f32(123.4567), 123.457);
        assert_eq!(sig6_f32(0.001234567), 0.00123457);
        assert_eq!(sig6_f32(-9876543.0), -9876540.0);
    }

    #[test]
    fn sub_precision_differences_collapse() {
        let a = 330.123_45_f32;
        let b = a + a * 1e-7;
        assert_eq!(sig6_f32(a), sig6_f32(b));
    }

    #[test]
    fn visible_differences_survive() {
        let a = 330.0_f32;
        let b = a * 1.001;
        assert_ne!(sig6_f32(a), sig6_f32(b));
    }

    #[test]
    fn zero_and_non_finite_pass_through() {
        assert_eq!(sig6_f32(0.0), 0.0);
        assert!(sig6_f32(f32::NAN).is_nan());
        assert_eq!(sig6_f32(f32::INFINITY), f32::INFINITY);
    }

    /// The smallest positive `f32` whose `log10().floor()` reaches `k`:
    /// a binary search over bit patterns, which order positive floats.
    fn decade_start(k: i32) -> f32 {
        let reaches = |bits: u32| f32::from_bits(bits).log10().floor() as i32 >= k;
        let (mut below, mut at) = (1u32, f32::MAX.to_bits());
        if !reaches(at) {
            return f32::INFINITY;
        }
        while at - below > 1 {
            let mid = below + (at - below) / 2;
            if reaches(mid) {
                at = mid;
            } else {
                below = mid;
            }
        }
        f32::from_bits(at)
    }

    #[test]
    fn tables_rederive_from_log10_and_powi() {
        for (i, &start) in DECADE_START.iter().enumerate() {
            let k = i as i32 + MIN_DECADE + 1;
            assert_eq!(start.to_bits(), decade_start(k).to_bits(), "decade {k}");
        }
        for (i, &scale) in SCALE.iter().enumerate() {
            let k = i as i32 + MIN_DECADE;
            // `black_box` keeps the exponent a run-time value, as it is in
            // the formula: a constant-folded `powi` rounds differently.
            let powi = 10f64.powi(std::hint::black_box(5 - k));
            assert_eq!(scale.to_bits(), powi.to_bits(), "decade {k}");
        }
        assert_eq!((f32::from_bits(1).log10().floor()) as i32, MIN_DECADE);
    }

    fn assert_matches_formula(bits: u32) {
        let v = f32::from_bits(bits);
        let (got, want) = (sig6_f32(v), sig_digits_f32(v, 6));
        assert_eq!(got.to_bits(), want.to_bits(), "{v:e} ({bits:#010x}): {got:e} vs {want:e}");
    }

    #[test]
    fn matches_the_formula_near_every_decade_threshold() {
        // `floor(log10)` can only flip within a few dozen ULPs of a power of
        // ten, so ±2^12 ULPs around each threshold, both signs, cover every
        // value whose decade is in doubt.
        for &start in &DECADE_START[..DECADE_START.len() - 1] {
            let at = start.to_bits();
            for b in at.saturating_sub(1 << 12)..=at + (1 << 12) {
                assert_matches_formula(b);
                assert_matches_formula(b | 0x8000_0000);
            }
        }
        for b in [0, 1, 2, 0x007f_ffff, 0x0080_0000, f32::MAX.to_bits(), f32::INFINITY.to_bits(), f32::NAN.to_bits()] {
            assert_matches_formula(b);
            assert_matches_formula(b | 0x8000_0000);
        }
    }

    #[test]
    fn matches_the_formula_on_a_strided_sweep() {
        // A prime stride visits every exponent and sign with varied mantissas.
        for b in (0..=u32::MAX).step_by(1_021) {
            assert_matches_formula(b);
        }
    }

    /// Every `f32` bit pattern; about 3 minutes in release:
    /// `cargo test --release -p kernels -- --ignored matches_the_formula_on_every_f32`.
    #[test]
    #[ignore]
    fn matches_the_formula_on_every_f32() {
        for b in 0..=u32::MAX {
            assert_matches_formula(b);
        }
    }

    #[test]
    fn quantisation_is_idempotent() {
        for v in [1.2345678f32, 0.000543219, 87654.32, -3.3333333] {
            let q = sig6_f32(v);
            assert_eq!(sig6_f32(q), q);
        }
    }
}
