//! Host-speed calibration.
//!
//! The 2-CPU hosts this benchmark runs on are shared: other tenants
//! slow both CPUs by up to about 2x for minutes at a time, which moves
//! every wall-clock figure far more than any change under test would.
//! So each run times a fixed kernel of the benchmark's own (a heat
//! stencil, the kind of arithmetic the die simulation does) at points
//! throughout the run, and reports its times and rates scaled to a host
//! on which that kernel takes [`REFERENCE_MS`]. The kernel is not the
//! program's code, so a change to the program cannot move it; a uniform
//! slowdown of the host moves both alike and cancels out.

use crate::stats;
use std::time::{Duration, Instant};

/// The kernel's time on an unloaded host of the kind the benchmark was
/// introduced on (2 CPUs, release build), ms.
pub const REFERENCE_MS: f64 = 0.75;

/// Kernel timings per calibration point (the median is kept).
const REPS: usize = 5;
/// Steps of one kernel timing.
const KERNEL_STEPS: u32 = 1000;

/// Side of the kernel's square grid.
const N: usize = 32;

/// One grid of the kernel, cache-line aligned so its speed does not
/// depend on where it happens to land in memory.
#[repr(C, align(64))]
struct Grid([f64; N * N]);

/// One timing of the kernel, ms: explicit steps of a 32x32 heat
/// stencil, the kind of arithmetic the die simulation does. It is never
/// inlined and touches only its own aligned grids, so its machine code
/// and memory layout do not change with how the rest of the benchmark
/// is compiled.
#[inline(never)]
fn kernel_ms() -> f64 {
    let mut grids = [Grid([300.0; N * N]), Grid([300.0; N * N])];
    grids[0].0[N * N / 2 + N / 2] = 400.0;
    let start = Instant::now();
    for step in 0..KERNEL_STEPS {
        let (a, b) = grids.split_at_mut(1);
        let (src, dst) = if step % 2 == 0 {
            (&a[0].0, &mut b[0].0)
        } else {
            (&b[0].0, &mut a[0].0)
        };
        for r in 1..N - 1 {
            for c in 1..N - 1 {
                let i = r * N + c;
                dst[i] = src[i]
                    + 0.2 * (src[i - 1] + src[i + 1] + src[i - N] + src[i + N] - 4.0 * src[i]);
            }
        }
        std::hint::black_box(&grids);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The host's slowness measured over a run: `(when, factor)` points,
/// where factor 2 means the kernel ran twice as slow as the reference.
#[derive(Debug, Default)]
pub struct Speed {
    points: Vec<(Instant, f64)>,
}

impl Speed {
    /// Times the kernel now and records the point.
    pub fn mark(&mut self) {
        let times: Vec<f64> = (0..REPS).map(|_| kernel_ms()).collect();
        self.points
            .push((Instant::now(), stats::median(&times) / REFERENCE_MS));
    }

    /// The factor at `t`: linear between the surrounding points, the
    /// nearest point outside them, 1 with no points.
    pub fn at(&self, t: Instant) -> f64 {
        let Some(&(first_t, first_f)) = self.points.first() else {
            return 1.0;
        };
        if t <= first_t {
            return first_f;
        }
        for w in self.points.windows(2) {
            let ((t0, f0), (t1, f1)) = (w[0], w[1]);
            if t <= t1 {
                let span = t1.duration_since(t0).as_secs_f64();
                let x = if span > 0.0 {
                    t.duration_since(t0).as_secs_f64() / span
                } else {
                    1.0
                };
                return f0 + x * (f1 - f0);
            }
        }
        self.points.last().expect("non-empty").1
    }

    /// A duration that started at `start`, scaled to the reference host.
    pub fn scale(&self, start: Instant, d: Duration) -> f64 {
        d.as_secs_f64() / self.at(start + d / 2)
    }

    /// The median factor over the run (reported beside the results).
    pub fn median(&self) -> f64 {
        stats::median(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_interpolate_between_points() {
        let t0 = Instant::now();
        let s = Speed {
            points: vec![(t0, 1.0), (t0 + Duration::from_secs(2), 3.0)],
        };
        assert_eq!(s.at(t0), 1.0);
        assert_eq!(s.at(t0 + Duration::from_secs(1)), 2.0);
        assert_eq!(s.at(t0 + Duration::from_secs(9)), 3.0);
        // One second of work centred where the host ran 2x slow counts
        // as half a second on the reference host.
        let half = s.scale(t0 + Duration::from_millis(500), Duration::from_secs(1));
        assert!((half - 0.5).abs() < 1e-9, "{half}");
        assert_eq!(Speed::default().at(t0), 1.0);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut s = Speed::default();
        s.mark();
        assert!(s.median() > 0.0);
    }
}
