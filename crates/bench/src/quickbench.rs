//! A minimal timing harness for the `benches/` binaries.
//!
//! The build container has no crates.io access, so criterion is
//! unavailable; this module supplies the subset the benches need —
//! warmup, repeated timed samples, and an aligned min/median/mean
//! report — behind a criterion-like API (`bench_function`, groups via
//! name prefixes). Swap back to criterion when a registry is reachable;
//! the bench sources only touch this façade.

use std::hint::black_box as std_black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value sink, re-exported for bench bodies.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One benchmark's collected samples.
#[derive(Clone, Debug)]
struct Record {
    name: String,
    samples: Vec<Duration>,
}

impl Record {
    fn summary(&self) -> Summary {
        let mut sorted = self.samples.clone();
        sorted.sort();
        let total: Duration = sorted.iter().sum();
        Summary {
            name: self.name.clone(),
            min_ns: sorted[0].as_nanos(),
            median_ns: sorted[sorted.len() / 2].as_nanos(),
            mean_ns: (total / sorted.len() as u32).as_nanos(),
            samples: sorted.len(),
        }
    }
}

/// One benchmark's summary statistics, nanosecond-denominated — the
/// machine-readable row of [`Harness::export_json_with_text`].
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark name.
    pub name: String,
    /// Fastest sample, ns.
    pub min_ns: u128,
    /// Median sample, ns.
    pub median_ns: u128,
    /// Mean sample, ns.
    pub mean_ns: u128,
    /// Samples collected.
    pub samples: usize,
}

// JSON escaping/number formatting comes from the workspace's single
// source of truth (`tadfa_sched::json`), so bench files and scenario
// reports can never drift byte-wise from each other.
use tadfa_sched::json::{escape as json_string, number as json_number};

/// A set of benchmarks sharing a report table.
#[derive(Debug)]
pub struct Harness {
    records: Vec<Record>,
    /// Timed samples collected per benchmark.
    pub sample_size: usize,
    /// Untimed warmup iterations per benchmark.
    pub warmup_iters: usize,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            records: Vec::new(),
            sample_size: 10,
            warmup_iters: 3,
        }
    }
}

impl Harness {
    /// A harness with the default sample and warmup counts.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Times `f` (`warmup_iters` untimed runs, then `sample_size` timed
    /// samples) and records it under `name`.
    pub fn bench_function<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup_iters {
            std_black_box(f());
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std_black_box(f());
            samples.push(start.elapsed());
        }
        self.records.push(Record {
            name: name.to_string(),
            samples,
        });
    }

    /// Records externally collected samples under `name` — for callers
    /// that need a sampling discipline `bench_function` cannot express
    /// (e.g. interleaved A/B pairs that cancel out frequency drift).
    pub fn record_samples(&mut self, name: &str, samples: Vec<Duration>) {
        assert!(!samples.is_empty(), "need at least one sample");
        self.records.push(Record {
            name: name.to_string(),
            samples,
        });
    }

    /// The mean duration recorded under `name`, if it was benched.
    pub fn mean_of(&self, name: &str) -> Option<Duration> {
        let r = self.records.iter().find(|r| r.name == name)?;
        let total: Duration = r.samples.iter().sum();
        Some(total / r.samples.len() as u32)
    }

    /// The summary (min/median/mean in ns, sample count) recorded under
    /// `name`, if it was benched.
    pub fn summary_of(&self, name: &str) -> Option<Summary> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .map(Record::summary)
    }

    /// Writes the machine-readable report: every benchmark's summary
    /// plus caller-supplied scalar `metrics` (speedups, throughputs)
    /// and string-valued `text_metrics` — identity digests and other
    /// non-numeric facts the perf-trend gate compares (e.g. the
    /// `suite_digest` fingerprint). This is the format of
    /// `BENCH_solver.json`. Text metrics are emitted after the scalar
    /// ones, inside the same `"metrics"` object.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing `path`.
    pub fn export_json_with_text(
        &self,
        path: &Path,
        metrics: &[(&str, f64)],
        text_metrics: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let mut out = std::fs::File::create(path)?;
        writeln!(out, "{{")?;
        writeln!(out, "  \"benches\": [")?;
        for (i, r) in self.records.iter().enumerate() {
            let s = r.summary();
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": {}, \"min_ns\": {}, \"median_ns\": {}, \
                 \"mean_ns\": {}, \"samples\": {}}}{comma}",
                json_string(&s.name),
                s.min_ns,
                s.median_ns,
                s.mean_ns,
                s.samples
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"metrics\": {{")?;
        let total = metrics.len() + text_metrics.len();
        for (i, (name, value)) in metrics.iter().enumerate() {
            let comma = if i + 1 < total { "," } else { "" };
            writeln!(
                out,
                "    {}: {}{comma}",
                json_string(name),
                json_number(*value)
            )?;
        }
        for (i, (name, value)) in text_metrics.iter().enumerate() {
            let comma = if metrics.len() + i + 1 < total {
                ","
            } else {
                ""
            };
            writeln!(
                out,
                "    {}: {}{comma}",
                json_string(name),
                json_string(value)
            )?;
        }
        writeln!(out, "  }}")?;
        writeln!(out, "}}")?;
        Ok(())
    }

    /// Prints the aligned report table for everything benched so far.
    pub fn report(&self) {
        let name_w = self
            .records
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max("name".len());
        println!(
            "{:<name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
            "name", "min", "median", "mean", "samples"
        );
        println!(
            "{}  {}  {}  {}  {}",
            "-".repeat(name_w),
            "-".repeat(12),
            "-".repeat(12),
            "-".repeat(12),
            "-".repeat(7)
        );
        for r in &self.records {
            let mut sorted = r.samples.clone();
            sorted.sort();
            let min = sorted[0];
            let median = sorted[sorted.len() / 2];
            let total: Duration = sorted.iter().sum();
            let mean = total / sorted.len() as u32;
            println!(
                "{:<name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
                r.name,
                fmt_duration(min),
                fmt_duration(median),
                fmt_duration(mean),
                sorted.len()
            );
        }
    }
}

/// Human-scale duration formatting (ns/µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut h = Harness::new();
        h.sample_size = 3;
        h.warmup_iters = 1;
        let mut count = 0u64;
        h.bench_function("spin", || {
            count += 1;
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(count, 4, "1 warmup + 3 samples");
        assert!(h.mean_of("spin").is_some());
        assert!(h.mean_of("missing").is_none());
        h.report(); // must not panic
    }

    #[test]
    fn export_json_is_machine_readable() {
        let mut h = Harness::new();
        h.sample_size = 2;
        h.warmup_iters = 0;
        h.bench_function("kernel/step \"x\"", || 1 + 1);
        let s = h.summary_of("kernel/step \"x\"").expect("benched");
        assert_eq!(s.samples, 2);
        assert!(s.min_ns <= s.median_ns, "{s:?}");
        // With 2 samples the median is the larger one, so it bounds the
        // mean from above — catches a mean divided by the wrong count.
        assert!(s.mean_ns <= s.median_ns, "{s:?}");

        let path = std::env::temp_dir().join("tadfa_quickbench_export_test.json");
        h.export_json_with_text(
            &path,
            &[("speedup", 3.5), ("bad", f64::NAN)],
            &[("digest", "0xabc")],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"kernel/step \\\"x\\\"\""), "{text}");
        assert!(text.contains("\"speedup\": 3.5"), "{text}");
        assert!(text.contains("\"bad\": null,"), "{text}");
        assert!(text.contains("\"digest\": \"0xabc\""), "{text}");
        assert!(
            !text.contains("\"0xabc\","),
            "text metrics close the object"
        );
        assert!(text.contains("\"min_ns\""), "{text}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert!(fmt_duration(Duration::from_nanos(12)).contains("ns"));
        assert!(fmt_duration(Duration::from_micros(12)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains(" s"));
    }
}
