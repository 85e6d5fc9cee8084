//! `exp_neg` against the platform libm: within one ulp across the whole
//! decay range, exact at the ends.

use tadfa_thermal::exp_neg;

/// Distance in units in the last place between two non-negative finite
/// doubles (consecutive bit patterns are consecutive values, subnormals
/// included).
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn within_one_ulp_of_libm_across_the_decay_range() {
    // A uniform grid over [0, 745] with a seeded jitter inside each
    // cell, so no point lands on a round number by construction.
    const N: u64 = 1_000_000;
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut exact = 0u64;
    for i in 0..N {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let jitter = (state >> 11) as f64 / (1u64 << 53) as f64;
        let x = 745.0 * (i as f64 + jitter) / N as f64;
        let (ours, libm) = (exp_neg(x), (-x).exp());
        let d = ulps(ours, libm);
        assert!(d <= 1, "x = {x:e}: {ours:e} vs {libm:e} ({d} ulps)");
        exact += u64::from(d == 0);
    }
    println!("exact at {exact} of {N} points");
}

#[test]
fn reduction_boundaries_and_tiny_arguments_stay_within_one_ulp() {
    let ln2 = std::f64::consts::LN_2;
    let mut xs = vec![
        0.5 * ln2,
        1.5 * ln2,
        ln2,
        3.725_290_298_461_914e-9,
        1e-12,
        f64::MIN_POSITIVE,
        708.0,
        708.4,
        709.0,
        744.0,
        745.0,
        745.13,
    ];
    for k in 1..=1074 {
        xs.push(k as f64 * ln2);
    }
    for x in xs {
        for x in [x, x.next_up(), x.next_down()] {
            if !(0.0..=745.13).contains(&x) {
                continue;
            }
            let (ours, libm) = (exp_neg(x), (-x).exp());
            assert!(ulps(ours, libm) <= 1, "x = {x:e}: {ours:e} vs {libm:e}");
        }
    }
}

#[test]
fn one_at_zero_and_zero_past_underflow() {
    assert_eq!(exp_neg(0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(exp_neg(-0.0).to_bits(), 1.0f64.to_bits());
    for x in [745.2, 746.0, 1e4, 1e300, f64::INFINITY] {
        assert_eq!(exp_neg(x).to_bits(), 0.0f64.to_bits(), "x = {x:e}");
    }
    // The smallest subnormal survives right up to the threshold.
    assert!(exp_neg(745.13) > 0.0);
}
