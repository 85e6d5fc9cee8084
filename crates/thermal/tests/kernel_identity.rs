//! Property tests of each production solver against its readable
//! oracle in `ThermalModel`.
//!
//! * The compiled stencil kernel (see `tadfa_thermal::solver`) preserves
//!   the exact floating-point operation order of `ThermalModel::step`,
//!   so transient results must match **bit for bit** (`f64::to_bits`) —
//!   on degenerate shapes (1×1, 1×N, N×1), on random power vectors, and
//!   across sub-stepping regimes.
//! * The exact modal steady state (`ThermalModel::modal`) must land
//!   within 1e-9 K of `ThermalModel::steady_state_with` run to 1e-13 K,
//!   on the same shapes and on the scaled parameters of coarsened
//!   analysis grids.

use tadfa_thermal::{
    Floorplan, LeakageParams, PowerModel, RcParams, SteadyStateOptions, StepScratch, ThermalModel,
    ThermalState,
};

/// Deterministic xorshift64* generator — enough randomness for property
/// loops without a dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Degenerate shapes, odd row widths, and both lane passes of the
/// stencil: exactly 8 wide (the whole-grid `stencil_pass_w8`, single-
/// and multi-row), and every other width through the flat pass, which
/// cuts the row-major grid into 8-cell chunks. Besides the committed
/// 4×4 and 6×6 register files, widths 3, 5, 6 and 7 each get one shape
/// per chunk phase, in this order: fewer than 8 cells (one padded
/// chunk), a whole number of chunks, a padded last chunk, and a tall
/// grid whose chunks start mid-row at many column offsets.
const SHAPES: &[(usize, usize)] = &[
    (1, 1),
    (1, 2),
    (2, 1),
    (1, 9),
    (9, 1),
    (2, 2),
    (2, 5),
    (5, 2),
    (3, 3),
    (4, 7),
    (1, 8),
    (2, 8),
    (5, 8),
    (8, 8),
    (16, 8),
    (3, 11),
    (7, 13),
    (2, 16),
    (4, 4),
    (6, 6),
    (2, 3),
    (8, 3),
    (4, 3),
    (11, 3),
    (1, 5),
    (8, 5),
    (3, 5),
    (9, 5),
    (1, 6),
    (4, 6),
    (2, 6),
    (7, 6),
    (1, 7),
    (8, 7),
    (2, 7),
    (9, 7),
];

fn random_power(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.4 {
                0.0 // sparse, like real access maps
            } else {
                rng.next_f64() * 2e-3
            }
        })
        .collect()
}

fn bits(temps: &[f64]) -> Vec<u64> {
    temps.iter().map(|t| t.to_bits()).collect()
}

#[test]
fn transient_kernels_bit_identical_on_random_powers() {
    let mut rng = Rng(0x5eed_1234_dead_beef);
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let stencil = model.compile();
        for trial in 0..8 {
            let power = random_power(&mut rng, rows * cols);
            // dt spanning one sub-step up to heavy sub-stepping.
            let dt = 10f64.powf(-6.0 + 4.0 * rng.next_f64());

            let mut naive = model.ambient_state();
            let mut s_stencil = model.ambient_state();
            let mut scratch = StepScratch::new();
            for _ in 0..3 {
                model.step(&mut naive, &power, dt);
                stencil.step_into(&mut s_stencil, &power, dt, &mut scratch);
            }
            assert_eq!(
                bits(naive.temps()),
                bits(s_stencil.temps()),
                "stencil {rows}x{cols} trial {trial} dt {dt}"
            );
        }
    }
}

/// The default parameters, then those of an analysis grid coarsened by
/// `g` = 4, 16 and 64 physical cells per point (`C·g`, `R_v/g`).
fn coarsened_params() -> Vec<RcParams> {
    let base = RcParams::default();
    [1.0, 4.0, 16.0, 64.0]
        .into_iter()
        .map(|g| RcParams {
            cell_capacitance: base.cell_capacitance * g,
            vertical_resistance: base.vertical_resistance / g,
            ..base
        })
        .collect()
}

#[test]
fn modal_steady_state_matches_gauss_seidel_oracle() {
    let mut rng = Rng(0xabcd_ef01_2345_6789);
    let opts = SteadyStateOptions {
        tolerance: 1e-13,
        ..SteadyStateOptions::default()
    };
    for params in coarsened_params() {
        for &(rows, cols) in SHAPES {
            let model = ThermalModel::new(Floorplan::grid(rows, cols), params);
            let solver = model.modal();
            for trial in 0..2 {
                let power = random_power(&mut rng, rows * cols);
                let (oracle, stats) = model.steady_state_with(&power, &opts);
                assert!(stats.converged, "{rows}x{cols}: {stats:?}");
                let gap = solver.steady_state(&power).linf_distance(&oracle);
                assert!(
                    gap <= 1e-9,
                    "{rows}x{cols} R_v {} trial {trial}: modal is {gap:e} K from Gauss–Seidel",
                    params.vertical_resistance
                );
            }
        }
    }
}

#[test]
fn step_into_scratch_reuse_never_changes_bits() {
    // One scratch reused across every shape, interleaved — stale buffer
    // contents must never leak into results.
    let mut rng = Rng(42);
    let mut scratch = StepScratch::new();
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let solver = model.compile();
        let power = random_power(&mut rng, rows * cols);
        let mut fresh = model.ambient_state();
        let mut reused = model.ambient_state();
        solver.step_into(&mut fresh, &power, 5e-4, &mut StepScratch::new());
        solver.step_into(&mut reused, &power, 5e-4, &mut scratch);
        assert_eq!(bits(fresh.temps()), bits(reused.temps()), "{rows}x{cols}");
    }
}

#[test]
fn tracked_sparse_path_matches_untracked_plus_separate_linf() {
    // The DFA's fused change-tracking entry: one kernel pass that steps
    // AND folds the L∞ delta against `prev` must produce the same
    // temperature bits and the same delta bits as stepping untracked
    // and diffing afterwards (max is exactly associative, so fusing the
    // fold into the store loop cannot move a bit).
    let mut rng = Rng(0x7721_aa00_17de_c0de);
    let leak = LeakageParams {
        per_cell: 1e-4,
        temp_coeff: 0.01,
        reference_temp: 300.0,
    };
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let solver = model.compile();
        let n = rows * cols;
        let deposits: Vec<(u32, f64)> = (0..n.min(5))
            .map(|i| (((i * 7) % n) as u32, rng.next_f64() * 1e-3))
            .collect();
        let sched = solver.schedule(5e-4);

        for leak_opt in [None, Some(&leak)] {
            let mut tracked = model.ambient_state();
            let mut untracked = model.ambient_state();
            let mut scratch = StepScratch::new();
            let mut prev_tracked = vec![solver.ambient() - 1.0; n];
            let mut prev_untracked = prev_tracked.clone();

            let delta_tracked = solver.step_sparse_tracked_into(
                &mut tracked,
                &deposits,
                &sched,
                leak_opt,
                &mut scratch,
                &mut prev_tracked,
            );
            solver.step_sparse_into(&mut untracked, &deposits, &sched, leak_opt, &mut scratch);
            let delta_untracked =
                ThermalState::linf_update_slices(&mut prev_untracked, untracked.temps());

            assert_eq!(
                bits(tracked.temps()),
                bits(untracked.temps()),
                "temps {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
            assert_eq!(
                delta_tracked.to_bits(),
                delta_untracked.to_bits(),
                "delta {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
            assert_eq!(
                bits(&prev_tracked),
                bits(&prev_untracked),
                "prev {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
        }
    }
}

#[test]
fn nonuniform_rc_parameters_stay_bit_identical() {
    // Coarsened analysis grids scale capacitance and vertical
    // resistance; the kernels must agree there too.
    let params = RcParams {
        cell_capacitance: 4.0 * RcParams::default().cell_capacitance,
        vertical_resistance: RcParams::default().vertical_resistance / 4.0,
        ..RcParams::default()
    };
    let model = ThermalModel::new(Floorplan::grid(4, 4), params);
    let solver = model.compile();
    let mut power = vec![0.0; 16];
    power[5] = 3e-3;

    let mut naive = model.ambient_state();
    let mut fast = model.ambient_state();
    let mut scratch = StepScratch::new();
    for _ in 0..10 {
        model.step(&mut naive, &power, 1e-3);
        solver.step_into(&mut fast, &power, 1e-3, &mut scratch);
    }
    assert_eq!(bits(naive.temps()), bits(fast.temps()));
}

/// Powers at the edges of the format beside real watts: `+0.0`, `-0.0`,
/// the smallest subnormal, and a subnormal near the normal range.
fn edge_power(rng: &mut Rng, n: usize) -> Vec<f64> {
    let edges = [0.0, -0.0, f64::from_bits(1), f64::MIN_POSITIVE / 3.0];
    (0..n)
        .map(|_| match rng.next_u64() % 6 {
            k @ 0..=3 => edges[k as usize],
            _ => rng.next_f64() * 2e-3,
        })
        .collect()
}

#[test]
fn signed_zero_and_subnormal_powers_stay_bit_identical() {
    // The dense, leaky and tracked entries, on one sub-step and
    // sub-stepped, each against the naive step (plus leakage, plus a
    // separate L∞ fold). The sparse entries scatter their deposits into
    // zeros first, so the oracle does too.
    let mut rng = Rng(0x0b5e_55ed_5eed_0035);
    let pm = PowerModel::default();
    let leak = pm.leakage_params();
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let solver = model.compile();
        let n = rows * cols;
        let power = edge_power(&mut rng, n);
        let deposits: Vec<(u32, f64)> = (0..n)
            .filter(|&i| power[i].to_bits() != 0)
            .map(|i| (i as u32, power[i]))
            .collect();
        let mut scattered = vec![0.0; n];
        for &(p, w) in &deposits {
            scattered[p as usize] += w;
        }
        for dt in [3e-6, 5e-3] {
            let mut naive = model.ambient_state();
            let mut dense = model.ambient_state();
            let mut scratch = StepScratch::new();
            for _ in 0..3 {
                model.step(&mut naive, &power, dt);
                solver.step_into(&mut dense, &power, dt, &mut scratch);
            }
            assert_eq!(
                bits(naive.temps()),
                bits(dense.temps()),
                "dense {rows}x{cols} dt {dt}"
            );

            let sched = solver.schedule(dt);
            for leaky in [false, true] {
                let label = format!("{rows}x{cols} dt {dt} leaky {leaky}");
                let mut oracle = model.ambient_state();
                let mut tracked = model.ambient_state();
                let mut oracle_prev = vec![solver.ambient() - 1.0; n];
                let mut tracked_prev = oracle_prev.clone();
                for _ in 0..3 {
                    let mut p = scattered.clone();
                    if leaky {
                        pm.add_leakage(&mut p, &oracle);
                    }
                    model.step(&mut oracle, &p, dt);
                    let want = ThermalState::linf_update_slices(&mut oracle_prev, oracle.temps());
                    let got = solver.step_sparse_tracked_into(
                        &mut tracked,
                        &deposits,
                        &sched,
                        leaky.then_some(&leak),
                        &mut scratch,
                        &mut tracked_prev,
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "change {label}");
                }
                assert_eq!(bits(oracle.temps()), bits(tracked.temps()), "temps {label}");
                assert_eq!(bits(&oracle_prev), bits(&tracked_prev), "prev {label}");
            }
        }
    }
}
