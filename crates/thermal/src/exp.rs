//! A platform-independent exponential for RC decay factors.
//!
//! The standard library's float `exp` calls the platform's libm, whose
//! precision Rust documents as unspecified, so its bits may differ
//! between hosts and would leak into every fingerprint that folds a
//! decayed temperature. This is fdlibm's `e_exp.c` algorithm (argument
//! reduction by `ln 2`, then a degree-5 Remez polynomial) restricted to
//! the decay range and written with `+ − × ÷` only, so it returns the
//! same bits everywhere.

const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const INV_LN2: f64 = std::f64::consts::LOG2_E;
const P1: f64 = 0.166_666_666_666_666_02;
const P2: f64 = -0.002_777_777_777_701_559_3;
const P3: f64 = 6.613_756_321_437_934e-5;
const P4: f64 = -1.653_390_220_546_525_2e-6;
const P5: f64 = 4.138_136_797_057_238_5e-8;
/// Past `e^{−UNDERFLOW}` the result rounds to `+0.0`.
const UNDERFLOW: f64 = 745.133_219_101_941_1;

/// `e^{−x}` for `x ≥ 0`, within 1 ulp of the correctly rounded value:
/// exactly `1.0` at `x = 0`, `+0.0` once the result underflows.
///
/// # Examples
///
/// ```
/// use tadfa_thermal::exp_neg;
///
/// assert_eq!(exp_neg(0.0), 1.0);
/// assert!((exp_neg(1.0) - 0.367_879_441_171_442_3).abs() < 1e-16);
/// assert_eq!(exp_neg(800.0), 0.0);
/// ```
pub fn exp_neg(x: f64) -> f64 {
    debug_assert!(
        x >= 0.0 || x.is_nan(),
        "exp_neg takes a non-negative argument"
    );
    if x > UNDERFLOW {
        return 0.0;
    }
    let x = -x;
    if x > -3.725_290_298_461_914e-9 {
        // |x| < 2⁻²⁸: e^x rounds to 1 + x.
        return 1.0 + x;
    }
    // x = k·ln2 + r with |r| ≤ ln2/2; k·LN2_HI is exact.
    let (k, hi, lo) = if x < -0.5 * LN2_HI {
        let k = (INV_LN2 * x - 0.5) as i32;
        (k, x - k as f64 * LN2_HI, k as f64 * LN2_LO)
    } else {
        (0, x, 0.0)
    };
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Scale by 2^k; a subnormal result takes two steps so only the
    // last multiply rounds.
    if k >= -1021 {
        y * pow2(k)
    } else {
        y * pow2(k + 1000) * pow2(-1000)
    }
}

/// `2^k` for a normal exponent `-1022 ≤ k ≤ 1023`.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}
