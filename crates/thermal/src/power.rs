//! The power model: access energies and temperature-dependent leakage.
//!
//! This supplies the "technology coefficients of logic activity and peak
//! power" that the paper's transfer function links to instruction
//! execution (§4).

use crate::constants;
use crate::floorplan::RegisterFile;
use crate::state::ThermalState;
use serde::{Deserialize, Serialize};
use tadfa_ir::PReg;

/// Access energies and leakage coefficients of the register file.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct PowerModel {
    /// Energy per register read, J.
    pub read_energy: f64,
    /// Energy per register write, J.
    pub write_energy: f64,
    /// Leakage power per cell at [`PowerModel::reference_temp`], W.
    pub leakage_per_cell: f64,
    /// Fractional leakage increase per Kelvin above the reference.
    pub leakage_temp_coeff: f64,
    /// Reference temperature for the leakage linearisation, K.
    pub reference_temp: f64,
}

impl Default for PowerModel {
    fn default() -> PowerModel {
        PowerModel {
            read_energy: constants::DEFAULT_READ_ENERGY,
            write_energy: constants::DEFAULT_WRITE_ENERGY,
            leakage_per_cell: constants::DEFAULT_LEAKAGE_PER_CELL,
            leakage_temp_coeff: constants::DEFAULT_LEAKAGE_TEMP_COEFF,
            reference_temp: constants::DEFAULT_AMBIENT,
        }
    }
}

impl PowerModel {
    /// Dynamic power of `reads` reads and `writes` writes spread over
    /// `duration` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn access_power(&self, reads: usize, writes: usize, duration: f64) -> f64 {
        assert!(duration > 0.0, "duration must be positive");
        (reads as f64 * self.read_energy + writes as f64 * self.write_energy) / duration
    }

    /// Leakage power of one cell at temperature `t` (linearised
    /// exponential, clamped at zero).
    pub fn leakage_at(&self, t: f64) -> f64 {
        (self.leakage_per_cell * (1.0 + self.leakage_temp_coeff * (t - self.reference_temp)))
            .max(0.0)
    }

    /// This model's leakage coefficients in the compiled solver's
    /// kernel-ready form (see
    /// [`CompiledModel::step_sparse_into`](crate::solver::CompiledModel::step_sparse_into)).
    pub fn leakage_params(&self) -> crate::solver::LeakageParams {
        crate::solver::LeakageParams {
            per_cell: self.leakage_per_cell,
            temp_coeff: self.leakage_temp_coeff,
            reference_temp: self.reference_temp,
        }
    }

    /// Builds a per-cell power vector from per-register access counts
    /// over `duration` seconds.
    ///
    /// `read_counts`/`write_counts` are indexed by physical register.
    /// Cells hosting no counted register get zero dynamic power.
    ///
    /// # Panics
    ///
    /// Panics if the count slices are longer than the register file.
    pub fn power_vector(
        &self,
        rf: &RegisterFile,
        read_counts: &[u64],
        write_counts: &[u64],
        duration: f64,
    ) -> Vec<f64> {
        assert!(
            read_counts.len() <= rf.num_regs() && write_counts.len() <= rf.num_regs(),
            "more counts than registers"
        );
        let mut p = vec![0.0; rf.floorplan().num_cells()];
        for (r, &n) in read_counts.iter().enumerate() {
            p[rf.cell_of(PReg::new(r as u16))] += n as f64 * self.read_energy / duration;
        }
        for (r, &n) in write_counts.iter().enumerate() {
            p[rf.cell_of(PReg::new(r as u16))] += n as f64 * self.write_energy / duration;
        }
        p
    }

    /// Adds temperature-dependent leakage for every cell to a dynamic
    /// power vector.
    ///
    /// # Panics
    ///
    /// Panics if sizes mismatch.
    pub fn add_leakage(&self, power: &mut [f64], state: &ThermalState) {
        assert_eq!(power.len(), state.len(), "power/state size mismatch");
        // Paired iteration: no per-cell bounds checks in the DFA's
        // hottest O(cells) pass.
        for (p, &t) in power.iter_mut().zip(state.temps()) {
            *p += self.leakage_at(t);
        }
    }
}

/// Accumulates `src` into `dst` scaled by `scale` — the per-core-class
/// power deposit hook a heterogeneous die uses (big.LITTLE power
/// binning, DVFS power factors).
///
/// The `scale == 1.0` case adds `src` verbatim with **no multiply**, so
/// a homogeneous unscaled deposit is guaranteed bit-identical to plain
/// `dst[i] += src[i]` accumulation — the contract that keeps scenarios
/// without core classes or DVFS byte-identical to their pre-class
/// goldens.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn accumulate_scaled(dst: &mut [f64], src: &[f64], scale: f64) {
    assert_eq!(dst.len(), src.len(), "power vector size mismatch");
    if scale == 1.0 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    } else {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;

    #[test]
    fn access_power_scales_linearly() {
        let pm = PowerModel::default();
        let p1 = pm.access_power(1, 0, 1e-9);
        let p2 = pm.access_power(2, 0, 1e-9);
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
        // 0.9 pJ / 1 ns = 0.9 mW.
        assert!((p1 - 0.9e-3).abs() < 1e-9);
        // Writes cost more than reads.
        assert!(pm.access_power(0, 1, 1e-9) > p1);
    }

    #[test]
    fn leakage_grows_with_temperature_and_never_negative() {
        let pm = PowerModel::default();
        let base = pm.leakage_at(pm.reference_temp);
        assert!((base - pm.leakage_per_cell).abs() < 1e-18);
        assert!(pm.leakage_at(pm.reference_temp + 50.0) > base);
        // Far below reference: clamped at zero, not negative.
        assert!(pm.leakage_at(0.0) >= 0.0);
    }

    #[test]
    fn power_vector_places_energy_on_the_right_cells() {
        let rf = RegisterFile::new(Floorplan::grid(2, 2));
        let pm = PowerModel::default();
        let reads = [10, 0, 0, 0];
        let writes = [0, 0, 0, 5];
        let p = pm.power_vector(&rf, &reads, &writes, 1e-6);
        assert!(p[0] > 0.0);
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
        assert!(p[3] > 0.0);
        assert!((p[0] - 10.0 * pm.read_energy / 1e-6).abs() < 1e-15);
    }

    #[test]
    fn add_leakage_raises_every_cell() {
        let pm = PowerModel::default();
        let s = ThermalState::uniform(4, pm.reference_temp + 10.0);
        let mut p = vec![0.0; 4];
        pm.add_leakage(&mut p, &s);
        for &x in &p {
            assert!(x > pm.leakage_per_cell, "leakage above reference value");
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        PowerModel::default().access_power(1, 1, 0.0);
    }

    #[test]
    fn accumulate_scaled_unit_scale_is_bitwise_plain_add() {
        let src = [1e-3, 0.3e-3, 7.77e-5, 0.0];
        let mut scaled = [300.1, 299.9, 301.5, 300.0];
        let mut plain = scaled;
        accumulate_scaled(&mut scaled, &src, 1.0);
        for (p, &s) in plain.iter_mut().zip(&src) {
            *p += s;
        }
        let a: Vec<u64> = scaled.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = plain.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn accumulate_scaled_applies_the_factor() {
        let src = [2.0, 4.0];
        let mut dst = [1.0, 1.0];
        accumulate_scaled(&mut dst, &src, 0.5);
        assert_eq!(dst, [2.0, 3.0]);
    }
}
