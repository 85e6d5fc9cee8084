//! The scenario spec set a run serves, and its `run-scenario` oracle.
//!
//! Seed 0 is exactly the committed `scenarios/` directory, checked
//! against `scenarios/golden/`. Any other seed copies the directory
//! into the work area and perturbs the spec generators' seeds
//! (`[tasks] seed`, `[covert] seed`) and the covert bit pattern; those
//! specs are checked against an offline `tadfa_sched::run_scenario`
//! computed before any timing starts.

use crate::stats::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tadfa_sched::{hex_fingerprint, load_spec_dir, run_scenario, ScenarioConfig};

/// A materialised spec set: where the server loads it from, the
/// resolved configurations, and the expected fingerprint per stem.
#[derive(Debug)]
pub struct SpecSet {
    pub dir: PathBuf,
    pub configs: Vec<(String, ScenarioConfig)>,
    pub expected: BTreeMap<String, String>,
}

impl SpecSet {
    pub fn stems(&self) -> Vec<String> {
        self.configs.iter().map(|(s, _)| s.clone()).collect()
    }
}

/// Builds the spec set for `seed` from the repository at `root`,
/// writing perturbed copies under `work` when the seed is not 0.
pub fn materialise(seed: u64, root: &Path, work: &Path) -> Result<SpecSet, String> {
    let src = root.join("scenarios");
    let src = src.as_path();
    if seed == 0 {
        let configs = load_spec_dir(src).map_err(|e| e.to_string())?;
        let mut expected = BTreeMap::new();
        for (stem, _) in &configs {
            let path = src.join("golden").join(format!("{stem}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
            let doc = tadfa_sched::json::parse(&text).map_err(|e| e.to_string())?;
            let fp = doc
                .get("fingerprint")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("golden {} has no fingerprint", path.display()))?;
            expected.insert(stem.clone(), fp.to_string());
        }
        return Ok(SpecSet {
            dir: src.to_path_buf(),
            configs,
            expected,
        });
    }

    let dir = work.join(format!("specs-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("tasks")).map_err(|e| e.to_string())?;
    let mut rng = Rng::stream(seed, 1);
    let mut names: Vec<PathBuf> = std::fs::read_dir(src)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    for path in names {
        let name = path.file_name().expect("dir entry has a name").to_owned();
        if path.is_dir() {
            if name == "tasks" {
                for entry in std::fs::read_dir(&path).map_err(|e| e.to_string())? {
                    let entry = entry.map_err(|e| e.to_string())?.path();
                    let target = dir.join("tasks").join(entry.file_name().expect("named"));
                    std::fs::copy(&entry, target).map_err(|e| e.to_string())?;
                }
            }
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let perturbed = match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => perturb_toml(&text, &mut rng),
            Some("json") => perturb_json(&text, &mut rng),
            _ => continue,
        };
        std::fs::write(dir.join(name), perturbed).map_err(|e| e.to_string())?;
    }
    let configs = load_spec_dir(&dir).map_err(|e| e.to_string())?;
    let mut expected = BTreeMap::new();
    for (stem, cfg) in &configs {
        let result = run_scenario(cfg).map_err(|e| format!("oracle for {stem}: {e}"))?;
        expected.insert(stem.clone(), hex_fingerprint(result.fingerprint()));
    }
    Ok(SpecSet {
        dir,
        configs,
        expected,
    })
}

/// The committed covert pattern with its bits shuffled: the same
/// length and number of `1` bits (sender tasks), so a perturbed channel
/// does the same amount of work in another order.
fn pattern(original: &str, rng: &mut Rng) -> String {
    let mut bits: Vec<char> = original.chars().collect();
    rng.shuffle(&mut bits);
    bits.into_iter().collect()
}

/// Rewrites `seed` in `[tasks]` and `[covert]` and shuffles `pattern`
/// in `[covert]`; every other line is kept byte for byte.
pub fn perturb_toml(text: &str, rng: &mut Rng) -> String {
    let mut section = String::new();
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('[') {
            section = trimmed.trim_end().to_string();
        }
        let key = trimmed.split('=').next().unwrap_or("").trim();
        let in_generator = section == "[tasks]" || section == "[covert]";
        if in_generator && key == "seed" && trimmed.contains('=') {
            out.push_str(&format!("seed = {}", rng.range(1, 999_999)));
        } else if section == "[covert]" && key == "pattern" && trimmed.contains('=') {
            let original = trimmed.split('"').nth(1).unwrap_or("");
            out.push_str(&format!("pattern = \"{}\"", pattern(original, rng)));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Rewrites the first `"seed"` inside the `"tasks"` object of a JSON
/// spec.
pub fn perturb_json(text: &str, rng: &mut Rng) -> String {
    let Some(tasks) = text.find("\"tasks\"") else {
        return text.to_string();
    };
    let object_end = text[tasks..].find('}').map_or(text.len(), |i| tasks + i);
    let Some(at) = text[tasks..object_end].find("\"seed\":").map(|i| tasks + i) else {
        return text.to_string();
    };
    let digits_start = at + "\"seed\":".len();
    let rest = &text[digits_start..];
    let skip = rest.len() - rest.trim_start().len();
    let digits = rest
        .trim_start()
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    let end = digits_start + skip + digits;
    format!(
        "{} {}{}",
        &text[..digits_start],
        rng.range(1, 999_999),
        &text[end..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_perturbation_touches_only_generator_seeds_and_pattern() {
        let spec = "name = \"x\"\n[tasks]\nseed = 42\ncount = 3\n[assignment]\nseed = 7\n\
                    [covert]\npattern = \"1011001110\"\nseed = 7\n";
        let out = perturb_toml(spec, &mut Rng::stream(5, 0));
        assert!(out.contains("[assignment]\nseed = 7\n"), "{out}");
        assert!(!out.contains("seed = 42"));
        let pattern = out
            .split("pattern = \"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap();
        let ones = |p: &str| p.bytes().filter(|&b| b == b'1').count();
        assert_eq!((pattern.len(), ones(pattern)), (10, ones("1011001110")));
        assert_eq!(out, perturb_toml(spec, &mut Rng::stream(5, 0)));
        assert_eq!(out.lines().count(), spec.lines().count());
    }

    #[test]
    fn json_perturbation_rewrites_the_task_seed() {
        let spec = "{\"tasks\": {\"count\": 12, \"seed\": 9, \"pressure\": 6},\n \
                    \"assignment\": {\"seed\": 1}}";
        let out = perturb_json(spec, &mut Rng::stream(3, 0));
        assert!(!out.contains("\"seed\": 9,"), "{out}");
        assert!(out.contains("\"assignment\": {\"seed\": 1}"));
        assert!(tadfa_sched::json::parse(&out).is_ok());
    }
}
