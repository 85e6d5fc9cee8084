//! Robustness of the scenario spec reader against hostile bytes: every
//! truncation and every single-bit flip of each committed spec, and
//! seeded junk, must load through `load_spec` as a spec or a typed
//! `SpecError`, and must never panic.
//!
//! Inputs are written into a temp copy of `scenarios/`, so `files` and
//! `module` task paths resolve as they do for the committed specs.
//! (Seeded-loop style: the offline build has no proptest, so junk is
//! drawn from the workspace's deterministic `rand` stub.)

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tadfa::sched::load_spec;

/// A temp copy of the committed specs and the task files they name,
/// removed on drop (best-effort).
struct Scenarios {
    dir: PathBuf,
    /// Each committed spec's extension and bytes, in file-name order.
    specs: Vec<(String, Vec<u8>)>,
}

impl Scenarios {
    fn copy(tag: &str) -> Scenarios {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let dir = std::env::temp_dir().join(format!("tadfa-spec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("tasks")).expect("temp dir creatable");
        for entry in std::fs::read_dir(repo.join("tasks")).expect("scenarios/tasks exists") {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join("tasks").join(path.file_name().unwrap()))
                .expect("task file copies");
        }
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&repo)
            .expect("scenarios/ exists")
            .map(|e| e.unwrap().path())
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("toml" | "json")
                )
            })
            .collect();
        paths.sort();
        let specs = paths
            .iter()
            .map(|p| {
                let ext = p.extension().unwrap().to_str().unwrap().to_string();
                (ext, std::fs::read(p).expect("spec readable"))
            })
            .collect();
        Scenarios { dir, specs }
    }

    /// Loads `bytes` as a spec with extension `ext` from the temp copy:
    /// a spec or a `SpecError` either way, but a panic fails the test
    /// naming the input.
    fn load(&self, ext: &str, bytes: &[u8], what: &str) {
        let path = self.dir.join(format!("input.{ext}"));
        std::fs::write(&path, String::from_utf8_lossy(bytes).as_bytes()).expect("input writable");
        if catch_unwind(AssertUnwindSafe(|| load_spec(&path))).is_err() {
            panic!(
                "load_spec panicked on {what}:\n{}",
                String::from_utf8_lossy(bytes)
            );
        }
    }
}

impl Drop for Scenarios {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn every_truncation_loads_or_errs() {
    let s = Scenarios::copy("truncate");
    assert!(s.specs.len() >= 10, "found {} specs", s.specs.len());
    for (k, (ext, bytes)) in s.specs.iter().enumerate() {
        // Whole, every spec loads from the copy: its task files resolve.
        let path = s.dir.join(format!("whole.{ext}"));
        std::fs::write(&path, bytes).expect("input writable");
        load_spec(&path).unwrap_or_else(|e| panic!("committed spec {k}: {e}"));
        for cut in 0..bytes.len() {
            s.load(ext, &bytes[..cut], &format!("spec {k} cut at {cut}"));
        }
    }
}

#[test]
fn every_single_bit_flip_loads_or_errs() {
    let s = Scenarios::copy("flip");
    for (k, (ext, bytes)) in s.specs.iter().enumerate() {
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                s.load(ext, &flipped, &format!("spec {k}, byte {i} bit {bit}"));
                flipped[i] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn seeded_junk_loads_or_errs() {
    let s = Scenarios::copy("junk");
    let mut rng = StdRng::seed_from_u64(0x5BEC);
    for case in 0..2_000 {
        let (ext, bytes) = &s.specs[rng.gen_range(0..s.specs.len())];
        // Half the cases overwrite a run of a committed spec with junk,
        // so the junk reaches the section and value readers; the rest
        // are junk throughout.
        let input: Vec<u8> = if rng.gen_bool(0.5) {
            let mut input = bytes.clone();
            let at = rng.gen_range(0..input.len());
            let end = (at + rng.gen_range(1usize..16)).min(input.len());
            for b in &mut input[at..end] {
                *b = rng.next_u64() as u8;
            }
            input
        } else {
            let len = rng.gen_range(0usize..512);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        };
        s.load(ext, &input, &format!("junk case {case}"));
    }
}
