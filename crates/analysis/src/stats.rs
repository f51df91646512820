//! Confidence intervals and small statistical helpers.
//!
//! The paper reports Normal 95 % confidence intervals below 10 % of the
//! estimated FIT values (§4.2) and sizes its injection campaigns so "the
//! worst case statistical error bars at 95 % confidence level [are] at most
//! 1.96 %" (§6). These helpers reproduce both calculations.

/// z-value of the two-sided 95 % normal interval.
pub const Z95: f64 = 1.959_963_984_540_054;

/// A symmetric-ish interval `[lo, hi]` around an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub estimate: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Wilson score interval for a binomial proportion at 95 % confidence.
///
/// Behaves sensibly at the extremes (k = 0 or k = n), unlike the plain
/// normal approximation.
pub fn wilson95(successes: usize, trials: usize) -> Interval {
    assert!(successes <= trials, "successes {successes} > trials {trials}");
    if trials == 0 {
        return Interval { estimate: 0.0, lo: 0.0, hi: 1.0 };
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = Z95 * Z95;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let margin = (Z95 / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Interval { estimate: p, lo: (centre - margin).max(0.0), hi: (centre + margin).min(1.0) }
}

/// Natural log of the gamma function (Lanczos approximation, |ε| < 2e-10
/// for x > 0 — Numerical-Recipes-style coefficients).
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut y = x;
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued fraction for the regularized incomplete beta (modified Lentz).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 3e-14 {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_bt.exp() * betacf(a, b, x) / a
    } else {
        1.0 - ln_bt.exp() * betacf(b, a, 1.0 - x) / b
    }
}

/// Inverse of `I_x(a, b)` in `x`, by bisection (monotone increasing).
fn beta_inv(a: f64, b: f64, target: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if beta_inc(a, b, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Clopper–Pearson ("exact") 95 % interval for a binomial proportion:
/// `lo = BetaInv(0.025; k, n−k+1)`, `hi = BetaInv(0.975; k+1, n−k)`, with
/// the closed forms `lo = 0` at k = 0 and `hi = 1` at k = n.
///
/// Guaranteed ≥ 95 % coverage for every true p — conservative where Wilson
/// is approximate — so the adaptive planner offers it as the cautious
/// stopping rule (`--ci-method clopper-pearson`): strata close a little
/// later, never on an interval that under-covers.
pub fn clopper_pearson95(successes: usize, trials: usize) -> Interval {
    assert!(successes <= trials, "successes {successes} > trials {trials}");
    if trials == 0 {
        return Interval { estimate: 0.0, lo: 0.0, hi: 1.0 };
    }
    const HALF_ALPHA: f64 = 0.025;
    let n = trials as f64;
    let k = successes as f64;
    let lo = if successes == 0 { 0.0 } else { beta_inv(k, n - k + 1.0, HALF_ALPHA) };
    let hi = if successes == trials { 1.0 } else { beta_inv(k + 1.0, n - k, 1.0 - HALF_ALPHA) };
    Interval { estimate: k / n, lo, hi }
}

/// Normal-approximation 95 % error bar for a binomial proportion — the
/// `1.96 · sqrt(p(1-p)/n)` the paper quotes. Returned as an absolute margin.
pub fn normal_margin95(p: f64, trials: usize) -> f64 {
    if trials == 0 {
        return f64::INFINITY;
    }
    Z95 * (p * (1.0 - p) / trials as f64).sqrt()
}

/// 95 % interval for a Poisson count (normal approximation on the count,
/// suitable for the ≥100-event samples the paper collects).
pub fn poisson95(count: usize) -> Interval {
    let k = count as f64;
    let margin = Z95 * k.sqrt();
    Interval { estimate: k, lo: (k - margin).max(0.0), hi: k + margin }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Number of injection trials needed so the worst-case (p = 0.5) normal 95 %
/// error bar is at most `margin` — the paper's 10 000-trial sizing rule.
pub fn trials_for_margin(margin: f64) -> usize {
    assert!(margin > 0.0);
    ((Z95 * 0.5 / margin).powi(2)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_rule_holds() {
        // "at least 10,000 faults … sufficient to guarantee the worst case
        // statistical error bars at 95% confidence level to be at most 1.96%"
        let margin = normal_margin95(0.5, 10_000);
        assert!(margin <= 0.0098 + 1e-12, "worst-case margin {margin}");
        assert!(trials_for_margin(0.0098) <= 10_000);
    }

    #[test]
    fn wilson_contains_the_estimate() {
        for (k, n) in [(0usize, 50usize), (1, 50), (25, 50), (49, 50), (50, 50)] {
            let iv = wilson95(k, n);
            assert!(iv.lo <= iv.estimate + 1e-12 && iv.estimate <= iv.hi + 1e-12, "{k}/{n}: {iv:?}");
            assert!(iv.lo >= 0.0 && iv.hi <= 1.0);
        }
    }

    #[test]
    fn wilson_bounds_match_published_reference_values() {
        // Reference values of the 95 % Wilson score interval (z = 1.95996…)
        // as tabulated in the standard literature (Wilson 1927; Brown, Cai
        // & DasGupta 2001, "Interval Estimation for a Binomial
        // Proportion"), at n = 10/100/1000 for p̂ = 0, 0.05 and 0.5. These
        // pins also freeze the planner's stopping rule: a stratum's target
        // width is measured on exactly these bounds.
        let cases: &[(usize, usize, f64, f64)] = &[
            // (successes, trials, lo, hi)
            (0, 10, 0.0, 0.277533),
            (0, 100, 0.0, 0.036993),
            (0, 1000, 0.0, 0.003827),
            (5, 100, 0.021544, 0.111750),
            (50, 1000, 0.038130, 0.065314),
            (5, 10, 0.236593, 0.763407),
            (50, 100, 0.403832, 0.596168),
            (500, 1000, 0.469070, 0.530930),
        ];
        for &(k, n, lo, hi) in cases {
            let iv = wilson95(k, n);
            assert!((iv.lo - lo).abs() < 1e-6, "wilson95({k}, {n}).lo = {}, reference {lo}", iv.lo);
            assert!((iv.hi - hi).abs() < 1e-6, "wilson95({k}, {n}).hi = {}, reference {hi}", iv.hi);
        }
    }

    #[test]
    fn clopper_pearson_bounds_match_published_reference_values() {
        // Reference values of the 95 % Clopper–Pearson exact interval
        // (Clopper & Pearson 1934; tabulated in Brown, Cai & DasGupta 2001
        // and every binomial-CI reference since), independently reproduced
        // from the defining binomial tail equations
        // P(X ≥ k | p = lo) = 0.025 and P(X ≤ k | p = hi) = 0.025.
        let cases: &[(usize, usize, f64, f64)] = &[
            // (successes, trials, lo, hi)
            (0, 10, 0.0, 0.308497),
            (1, 10, 0.002529, 0.445016),
            (5, 10, 0.187086, 0.812914),
            (10, 10, 0.691503, 1.0),
            (0, 100, 0.0, 0.036217),
            (5, 100, 0.016432, 0.112835),
            (50, 100, 0.398321, 0.601679),
            (1, 1000, 0.000025, 0.005559),
            (500, 1000, 0.468549, 0.531451),
        ];
        for &(k, n, lo, hi) in cases {
            let iv = clopper_pearson95(k, n);
            assert!((iv.lo - lo).abs() < 1e-5, "clopper_pearson95({k}, {n}).lo = {}, reference {lo}", iv.lo);
            assert!((iv.hi - hi).abs() < 1e-5, "clopper_pearson95({k}, {n}).hi = {}, reference {hi}", iv.hi);
        }
    }

    #[test]
    fn clopper_pearson_is_conservative_relative_to_wilson() {
        // On interior observations (0 < k < n) the exact interval is never
        // narrower than the score interval on the same data. (At k = 0 and
        // k = n the comparison legitimately flips — Wilson's boundary
        // correction overshoots the exact tail — which is why this loop
        // stays strictly interior.)
        for (k, n) in [(1usize, 10usize), (5, 10), (3, 25), (5, 100), (50, 100), (99, 100), (500, 1000)] {
            let cp = clopper_pearson95(k, n);
            let w = wilson95(k, n);
            assert!(cp.hi - cp.lo >= w.hi - w.lo - 1e-12, "{k}/{n}: CP {cp:?} narrower than Wilson {w:?}");
            assert!(cp.lo <= cp.estimate + 1e-12 && cp.estimate <= cp.hi + 1e-12, "{k}/{n}: {cp:?}");
            assert!(cp.lo >= 0.0 && cp.hi <= 1.0);
        }
        // k = 0 / k = n closed forms: hi = 1 − 0.025^(1/n) and its mirror.
        let iv = clopper_pearson95(0, 20);
        assert!((iv.hi - (1.0 - 0.025f64.powf(1.0 / 20.0))).abs() < 1e-9);
        assert_eq!(iv.lo, 0.0);
        let iv = clopper_pearson95(20, 20);
        assert!((iv.lo - 0.025f64.powf(1.0 / 20.0)).abs() < 1e-9);
        assert_eq!(iv.hi, 1.0);
        let iv = clopper_pearson95(0, 0);
        assert_eq!((iv.lo, iv.hi), (0.0, 1.0));
    }

    #[test]
    fn wilson_tightens_with_more_trials() {
        let a = wilson95(10, 100);
        let b = wilson95(100, 1000);
        assert!(b.half_width() < a.half_width());
    }

    #[test]
    fn poisson_interval_for_100_events_is_under_20_percent() {
        // The paper collects ≥100 SDC/DUE events so the FIT interval stays
        // below 10% of the value on each side (2·sqrt(100)/100 ≈ 20% total).
        let iv = poisson95(100);
        assert!((iv.hi - iv.estimate) / iv.estimate < 0.2);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        let iv = wilson95(0, 0);
        assert_eq!(iv.lo, 0.0);
        assert_eq!(iv.hi, 1.0);
    }

    #[test]
    fn mean_and_stddev_match_hand_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }
}
