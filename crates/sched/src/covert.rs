//! The thermal covert-channel scenario family: a sender task stream
//! modulates heat on one core, a receiver decodes bits from a
//! neighbouring core's temperature trace.
//!
//! Masti et al. (PAPERS.md) demonstrate that on-die thermal coupling is
//! a communication channel between cores that share no architectural
//! state — and that its achievable bandwidth is a sharp function of
//! placement and DTM policy. That makes it the perfect end-to-end
//! validation workload for this repo's solver + scheduler + DTM stack:
//! the reported bandwidth/bit-error-rate *must* differ measurably
//! across (mapping × DTM) combinations, and every number is
//! deterministic and golden-gated like any other scenario.
//!
//! The encoding is classic on-off keying: bit `k` of the pattern owns
//! the window `[k·bit_period, (k+1)·bit_period)`; a `1` is transmitted
//! by running a hot task for the first `duty` fraction of the window, a
//! `0` by staying idle. The receiver samples its core's peak
//! temperature at each window's end (the sampling grid uses the same
//! `k·bit_period` float expressions as the sender's arrivals, so sender
//! and receiver agree on window edges bit-exactly) and thresholds at
//! the midpoint of the observed swing.

use crate::task::Task;
use tadfa_core::TadfaError;
use tadfa_workloads::{generate, GeneratorConfig};

/// Declarative covert-channel configuration — the `[covert]` section of
/// a scenario spec.
#[derive(Clone, Debug, PartialEq)]
pub struct CovertConfig {
    /// The transmitted bit string, e.g. `"101100101"`.
    pub pattern: String,
    /// Seconds per bit window.
    pub bit_period: f64,
    /// Fraction of the window the sender heats for a `1` bit, in
    /// `(0, 1]`.
    pub duty: f64,
    /// The core whose temperature trace the receiver reads.
    pub receiver_core: usize,
    /// Register-pressure knob of the generated sender kernel (hotter
    /// senders swing the channel harder).
    pub pressure: usize,
    /// Seed of the generated sender kernel.
    pub seed: u64,
}

impl Default for CovertConfig {
    fn default() -> CovertConfig {
        CovertConfig {
            pattern: "1011001110".to_string(),
            bit_period: 2e-3,
            duty: 0.5,
            receiver_core: 1,
            pressure: 10,
            seed: 7,
        }
    }
}

impl CovertConfig {
    /// Validates the configuration against a die of `cores` cores,
    /// error-first.
    ///
    /// # Errors
    ///
    /// [`TadfaError::InvalidConfig`] for an empty or non-binary
    /// pattern, a non-positive bit period, a duty outside `(0, 1]`, a
    /// receiver core off the die, or a zero pressure.
    pub fn validate(&self, cores: usize) -> Result<(), TadfaError> {
        if self.pattern.is_empty() || self.pattern.bytes().any(|b| b != b'0' && b != b'1') {
            return Err(TadfaError::InvalidConfig {
                param: "covert pattern",
                value: self.pattern.len() as f64,
                reason: "the pattern must be a non-empty string of '0'/'1' bits",
            });
        }
        if !(self.bit_period.is_finite() && self.bit_period > 0.0) {
            return Err(TadfaError::InvalidConfig {
                param: "covert bit_period",
                value: self.bit_period,
                reason: "bit period must be finite and positive",
            });
        }
        if !(self.duty.is_finite() && self.duty > 0.0 && self.duty <= 1.0) {
            return Err(TadfaError::InvalidConfig {
                param: "covert duty",
                value: self.duty,
                reason: "duty cycle must lie in (0, 1]",
            });
        }
        if self.receiver_core >= cores {
            return Err(TadfaError::InvalidConfig {
                param: "covert receiver_core",
                value: self.receiver_core as f64,
                reason: "receiver core is off the die",
            });
        }
        if self.pressure == 0 {
            return Err(TadfaError::InvalidConfig {
                param: "covert pressure",
                value: 0.0,
                reason: "the sender kernel needs at least one live accumulator",
            });
        }
        Ok(())
    }

    /// The receiver's observation grid: one sample at the end of each
    /// bit window. Uses the same `(k+1) · bit_period` expression the
    /// sender arrivals use, so window edges match bit-exactly.
    pub fn sample_times(&self) -> Vec<f64> {
        (0..self.pattern.len())
            .map(|k| (k as f64 + 1.0) * self.bit_period)
            .collect()
    }
}

/// Builds the sender task stream: one hot task per `1` bit, arriving at
/// its window start and occupying its core for `duty · bit_period`
/// seconds; `0` bits transmit by silence. Every sender runs the same
/// generated kernel, so the analysis phase answers repeats from the
/// solve cache.
pub fn covert_tasks(cfg: &CovertConfig) -> Vec<Task> {
    let func = generate(&GeneratorConfig {
        seed: cfg.seed,
        pressure: cfg.pressure,
        ..GeneratorConfig::default()
    });
    cfg.pattern
        .bytes()
        .enumerate()
        .filter(|&(_, b)| b == b'1')
        .map(|(k, _)| Task {
            name: format!("bit{k}"),
            func: func.clone(),
            arrival: k as f64 * cfg.bit_period,
            length: cfg.duty * cfg.bit_period,
        })
        .collect()
}

/// What the receiver recovered, for the report's `covert` block and the
/// fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct CovertSummary {
    /// Bits transmitted (pattern length).
    pub bits: usize,
    /// Decoded bits disagreeing with the pattern.
    pub errors: usize,
    /// `errors / bits`.
    pub ber: f64,
    /// The channel's raw signalling rate, `1 / bit_period`, bits/s.
    pub raw_bps: f64,
    /// Goodput: `raw_bps × (correct / bits)`, bits/s — the headline
    /// number that must differ across (mapping × DTM) combinations.
    pub bandwidth_bps: f64,
    /// The decision threshold, K (midpoint of the observed swing).
    pub threshold_k: f64,
    /// Peak-to-peak swing of the sampled trace, K.
    pub swing_k: f64,
    /// The decoded bit string.
    pub decoded: String,
}

/// Decodes the receiver's temperature samples against the transmitted
/// pattern: threshold at the midpoint of the observed swing, one
/// decision per bit window.
///
/// # Panics
///
/// Panics if `samples.len() != cfg.pattern.len()` (the simulator
/// produces exactly one sample per bit).
pub fn decode(cfg: &CovertConfig, samples: &[f64]) -> CovertSummary {
    assert_eq!(
        samples.len(),
        cfg.pattern.len(),
        "one sample per transmitted bit"
    );
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let threshold = (lo + hi) / 2.0;
    let mut decoded = String::with_capacity(samples.len());
    let mut errors = 0usize;
    for (&sample, sent) in samples.iter().zip(cfg.pattern.bytes()) {
        let bit = sample > threshold;
        decoded.push(if bit { '1' } else { '0' });
        if bit != (sent == b'1') {
            errors += 1;
        }
    }
    let bits = cfg.pattern.len();
    let ber = errors as f64 / bits as f64;
    let raw_bps = 1.0 / cfg.bit_period;
    CovertSummary {
        bits,
        errors,
        ber,
        raw_bps,
        bandwidth_bps: raw_bps * ((bits - errors) as f64 / bits as f64),
        threshold_k: threshold,
        swing_k: hi - lo,
        decoded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_is_error_first() {
        assert!(CovertConfig::default().validate(4).is_ok());
        let cases = [
            CovertConfig {
                pattern: String::new(),
                ..CovertConfig::default()
            },
            CovertConfig {
                pattern: "10x1".into(),
                ..CovertConfig::default()
            },
            CovertConfig {
                bit_period: 0.0,
                ..CovertConfig::default()
            },
            CovertConfig {
                duty: 1.5,
                ..CovertConfig::default()
            },
            CovertConfig {
                receiver_core: 9,
                ..CovertConfig::default()
            },
            CovertConfig {
                pressure: 0,
                ..CovertConfig::default()
            },
        ];
        for bad in cases {
            assert!(bad.validate(4).is_err(), "{bad:?} should be rejected");
        }
        // The receiver bound tracks the die size.
        assert!(CovertConfig::default().validate(1).is_err());
    }

    #[test]
    fn sender_tasks_cover_exactly_the_one_bits() {
        let cfg = CovertConfig {
            pattern: "1010".into(),
            bit_period: 1e-3,
            duty: 0.5,
            ..CovertConfig::default()
        };
        let tasks = covert_tasks(&cfg);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].name, "bit0");
        assert_eq!(tasks[0].arrival, 0.0);
        assert_eq!(tasks[1].name, "bit2");
        assert_eq!(tasks[1].arrival.to_bits(), (2.0 * 1e-3f64).to_bits());
        for t in &tasks {
            assert_eq!(t.length.to_bits(), (0.5 * 1e-3f64).to_bits());
        }
        // Sample grid: one per bit, at window ends, bit-stable.
        let grid = cfg.sample_times();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[3].to_bits(), (4.0f64 * 1e-3).to_bits());
    }

    #[test]
    fn decode_thresholds_at_the_swing_midpoint() {
        let cfg = CovertConfig {
            pattern: "1011".into(),
            bit_period: 1e-3,
            ..CovertConfig::default()
        };
        // Clean channel: highs for 1s, lows for 0s.
        let clean = decode(&cfg, &[310.0, 300.0, 310.0, 310.0]);
        assert_eq!(clean.errors, 0);
        assert_eq!(clean.ber, 0.0);
        assert_eq!(clean.decoded, "1011");
        assert_eq!(clean.raw_bps, 1000.0);
        assert_eq!(clean.bandwidth_bps, 1000.0);
        assert_eq!(clean.threshold_k, 305.0);
        assert_eq!(clean.swing_k, 10.0);

        // A flat trace has no swing: everything decodes to 0, so the
        // three 1-bits of the pattern are errors and goodput collapses.
        let flat = decode(&cfg, &[310.0, 310.0, 310.0, 310.0]);
        assert_eq!(flat.decoded, "0000");
        assert_eq!(flat.errors, 3);
        assert_eq!(flat.swing_k, 0.0);
        assert_eq!(flat.bandwidth_bps, 250.0);
    }
}
