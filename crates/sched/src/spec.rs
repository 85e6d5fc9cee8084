//! Declarative scenario specs: the `tadfa` CLI's input format.
//!
//! A spec describes a whole multi-core scenario — die layout, task
//! set, mapping policy, DFA configuration — in TOML (the committed
//! `scenarios/*.toml` files) or JSON (same sections as an object of
//! objects). The build container has no crates.io access, so the TOML
//! reader here covers exactly the subset the specs use: `[section]`
//! headers, `key = value` pairs with string/number/boolean/array
//! values, and `#` comments.
//!
//! # Spec format
//!
//! ```toml
//! name = "quad-balanced"
//!
//! [floorplan]
//! cores = 4
//! rows = 8
//! cols = 8
//! coupling_resistance = 40.0   # K/W; omit for uncoupled cores
//! # core_classes = ["big", "big", "little", "little"]   # one class per
//! #                                # core; each needs a [class.<name>]
//!
//! [tasks]
//! source = "generated"         # generated | suite | files | module | covert
//! count = 12
//! seed = 42
//! pressure = 8                 # generated only
//! arrival_period = 0.0005      # seconds between arrivals
//! length = 0.001               # seconds each task occupies its core
//! arrivals = "bursty"          # uniform | bursty | diurnal
//! burst = 4                    # bursty only: tasks per group
//! burst_gap = 0.005            # bursty only: idle seconds between groups
//! # cycle = 0.01               # diurnal only: square-wave period
//! # sparse_factor = 5.0        # diurnal only: sparse-phase spacing ×
//! # files = ["tasks/kernel.tir"]   # files only; relative to the spec
//! # module = "tasks/prog.tir"      # module only; one task per function,
//! #                                # analyzed interprocedurally
//!
//! [schedule]
//! mapping = "thermal-balanced" # round-robin | coolest-core |
//!                              # thermal-balanced | static-shard |
//!                              # single-core
//! workers = 4
//!
//! [dtm]                        # optional: closed-loop thermal control
//! policy = "throttle"          # none | dvfs | throttle | migrate
//! epoch = 0.0002               # control period, seconds
//! cap = 315.0                  # temperature cap, K
//! hysteresis = 1.0             # release band below the cap, K
//! levels = [1.0, 0.75, 0.5]    # dvfs only: descending frequency ladder
//!
//! [assignment]
//! policy = "first-free"
//! seed = 0
//!
//! [dfa]
//! delta = 0.01
//! max_iterations = 1000
//! merge = "max"                # max | average
//! leakage = true
//! ```
//!
//! A covert-channel scenario replaces `[tasks]` generation with a
//! sender/receiver pair (and may add heterogeneous tiles):
//!
//! ```toml
//! name = "covert-demo"
//!
//! [floorplan]
//! cores = 2
//! rows = 4
//! cols = 4
//! coupling_resistance = 2.0
//! core_classes = ["big", "little"]
//!
//! [class.big]
//! power_scale = 1.0
//! speed_scale = 1.0
//!
//! [class.little]
//! power_scale = 0.6
//! speed_scale = 0.8
//!
//! [tasks]
//! source = "covert"            # sender stream comes from [covert]
//!
//! [covert]
//! pattern = "1011001110"       # transmitted bits
//! bit_period = 0.002           # seconds per bit window
//! duty = 0.5                   # heat fraction of a '1' window
//! receiver_core = 1            # whose temperature the receiver reads
//! pressure = 10                # sender kernel heat knob
//! seed = 7                     # sender kernel seed
//!
//! [schedule]
//! mapping = "single-core"      # pin the sender to core 0
//! ```
//!
//! Every key is optional except `[tasks] source` (and `files` when the
//! source is `files`); unknown sections or keys are errors, so a typo
//! cannot silently run a different scenario than the golden report was
//! recorded for. The full field-by-field reference lives in
//! `docs/SCENARIO_AUTHORING.md`, which is tested against
//! [`SPEC_FIELDS`].

use crate::covert::{covert_tasks, CovertConfig};
use crate::dtm::DtmConfig;
use crate::json::{self, JsonValue};
use crate::multicore::{CoreClass, MultiCoreFloorplan};
use crate::runner::ScenarioConfig;
use crate::task::{generated_tasks, suite_tasks, Task};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tadfa_core::{MergeRule, ThermalDfaConfig};
use tadfa_thermal::RcParams;
use tadfa_workloads::{bursty_arrivals, diurnal_arrivals};

/// Every section and key the spec reader accepts — the single source of
/// truth the field-by-field reference in `docs/SCENARIO_AUTHORING.md`
/// is tested against. The `""` section holds top-level keys;
/// `"class.<name>"` stands for the heterogeneous-tile sections, one per
/// class named by `[floorplan] core_classes`.
pub const SPEC_FIELDS: &[(&str, &[&str])] = &[
    ("", &["name"]),
    (
        "floorplan",
        &[
            "cores",
            "rows",
            "cols",
            "coupling_resistance",
            "core_classes",
        ],
    ),
    (
        "tasks",
        &[
            "source",
            "count",
            "seed",
            "pressure",
            "arrival_period",
            "length",
            "files",
            "module",
            "arrivals",
            "burst",
            "burst_gap",
            "cycle",
            "sparse_factor",
        ],
    ),
    ("schedule", &["mapping", "workers"]),
    ("assignment", &["policy", "seed"]),
    ("dfa", &["delta", "max_iterations", "merge", "leakage"]),
    ("dtm", &["policy", "epoch", "cap", "hysteresis", "levels"]),
    (
        "covert",
        &[
            "pattern",
            "bit_period",
            "duty",
            "receiver_core",
            "pressure",
            "seed",
        ],
    ),
    ("class.<name>", &["power_scale", "speed_scale"]),
];

fn allowed_keys(section: &str) -> &'static [&'static str] {
    let lookup = if section.starts_with("class.") {
        "class.<name>"
    } else {
        section
    };
    SPEC_FIELDS
        .iter()
        .find(|(name, _)| *name == lookup)
        .map(|(_, keys)| *keys)
        .expect("every parsed section is in SPEC_FIELDS")
}

/// A spec loading/validation failure, with context.
#[derive(Clone, PartialEq, Debug)]
pub struct SpecError {
    /// What went wrong, with enough context to fix the spec.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// One scalar (or array-of-scalar) spec value.
#[derive(Clone, PartialEq, Debug)]
enum SpecValue {
    Str(String),
    Num(f64),
    Bool(bool),
    List(Vec<SpecValue>),
}

/// Sections → keys → values. Top-level keys live in the `""` section.
type Sections = BTreeMap<String, BTreeMap<String, SpecValue>>;

/// Loads and validates a scenario spec from disk. The format is chosen
/// by extension (`.toml` or `.json`); task files referenced by the spec
/// are resolved relative to the spec's directory.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first I/O, syntax, or
/// validation problem.
pub fn load_spec(path: &Path) -> Result<ScenarioConfig, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let sections = match ext {
        "toml" => parse_toml(&text)?,
        "json" => json_sections(&text)?,
        other => {
            return Err(SpecError::new(format!(
                "unknown spec extension '.{other}' for {} (expected .toml or .json)",
                path.display()
            )))
        }
    };
    let default_name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    build_config(&sections, base, default_name)
}

/// Loads every scenario spec in a directory — the resolution step the
/// `tadfa` CLI, the `tadfa-serve` service, and the `tadfa-load` client
/// all share, so they can never disagree about what "the committed
/// scenarios" means.
///
/// Non-recursive: each `*.toml` / `*.json` file directly in `dir` is
/// loaded through [`load_spec`] (subdirectories such as `golden/` are
/// ignored). Entries come back sorted by file stem, which is also the
/// key golden reports are filed under (`golden/<stem>.json`).
///
/// # Errors
///
/// Returns a [`SpecError`] for an unreadable directory, an empty spec
/// set, two specs sharing a stem (`x.toml` + `x.json` — their golden
/// reports would collide), or the first spec that fails to load.
pub fn load_spec_dir(dir: &Path) -> Result<Vec<(String, ScenarioConfig)>, SpecError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| SpecError::new(format!("cannot read spec dir {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| SpecError::new(format!("cannot read spec dir {}: {e}", dir.display())))?
            .path();
        if path.is_file()
            && matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("toml") | Some("json")
            )
        {
            paths.push(path);
        }
    }
    let mut stemmed: Vec<(String, PathBuf)> = paths
        .into_iter()
        .map(|path| {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("scenario")
                .to_string();
            (stem, path)
        })
        .collect();
    // Sorted by stem, not path: "foo" < "foo-bar" even though the path
    // "foo-bar.toml" < "foo.json" (`-` sorts before `.`).
    stemmed.sort();
    let mut specs: Vec<(String, ScenarioConfig)> = Vec::with_capacity(stemmed.len());
    for (stem, path) in stemmed {
        if specs.iter().any(|(name, _)| *name == stem) {
            return Err(SpecError::new(format!(
                "duplicate scenario stem '{stem}' in {} (one golden slot per stem)",
                dir.display()
            )));
        }
        specs.push((stem, load_spec(&path)?));
    }
    if specs.is_empty() {
        return Err(SpecError::new(format!(
            "no *.toml / *.json scenario specs in {}",
            dir.display()
        )));
    }
    Ok(specs)
}

// ---------------------------------------------------------------- TOML

fn parse_toml(text: &str) -> Result<Sections, SpecError> {
    let mut sections: Sections = BTreeMap::new();
    let mut current = String::new();
    sections.entry(current.clone()).or_default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| SpecError::new(format!("line {}: {msg}", lineno + 1));
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated section header".to_string()))?
                .trim();
            if name.is_empty() {
                return Err(at("empty section name".to_string()));
            }
            current = name.to_string();
            if sections.contains_key(&current) && !current.is_empty() {
                return Err(at(format!("duplicate section [{current}]")));
            }
            sections.entry(current.clone()).or_default();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err(at("empty key".to_string()));
        }
        let value = parse_toml_value(value.trim()).map_err(|e| at(e.message))?;
        let section = sections.entry(current.clone()).or_default();
        if section.insert(key.clone(), value).is_some() {
            return Err(at(format!("duplicate key '{key}'")));
        }
    }
    Ok(sections)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str) -> Result<SpecValue, SpecError> {
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| SpecError::new(format!("unterminated string {text}")))?;
        if inner.contains('"') {
            return Err(SpecError::new(format!("embedded quote in {text}")));
        }
        return Ok(SpecValue::Str(inner.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| SpecError::new(format!("unterminated array {text}")))?
            .trim();
        let mut items = Vec::new();
        if !inner.is_empty() {
            for item in split_top_level(inner) {
                items.push(parse_toml_value(item.trim())?);
            }
        }
        return Ok(SpecValue::List(items));
    }
    match text {
        "true" => return Ok(SpecValue::Bool(true)),
        "false" => return Ok(SpecValue::Bool(false)),
        _ => {}
    }
    text.parse::<f64>()
        .map(SpecValue::Num)
        .map_err(|_| SpecError::new(format!("cannot parse value '{text}'")))
}

/// Splits an array body on commas outside strings (nested arrays are
/// not part of the spec subset).
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

// ---------------------------------------------------------------- JSON

fn json_sections(text: &str) -> Result<Sections, SpecError> {
    let doc = json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
    let members = doc
        .as_object()
        .ok_or_else(|| SpecError::new("JSON spec must be an object"))?;
    let mut sections: Sections = BTreeMap::new();
    sections.entry(String::new()).or_default();
    // Duplicates are rejected exactly as the TOML reader rejects them —
    // a stale copy-pasted section must not silently win.
    for (key, value) in members {
        match value {
            JsonValue::Obj(inner) => {
                if sections.contains_key(key) {
                    return Err(SpecError::new(format!("duplicate section \"{key}\"")));
                }
                let section = sections.entry(key.clone()).or_default();
                for (k, v) in inner {
                    if section.insert(k.clone(), json_scalar(v, k)?).is_some() {
                        return Err(SpecError::new(format!(
                            "duplicate key \"{k}\" in section \"{key}\""
                        )));
                    }
                }
            }
            other => {
                let top = sections.entry(String::new()).or_default();
                if top.insert(key.clone(), json_scalar(other, key)?).is_some() {
                    return Err(SpecError::new(format!("duplicate top-level key \"{key}\"")));
                }
            }
        }
    }
    Ok(sections)
}

fn json_scalar(v: &JsonValue, key: &str) -> Result<SpecValue, SpecError> {
    Ok(match v {
        JsonValue::Str(s) => SpecValue::Str(s.clone()),
        JsonValue::Num(n) => SpecValue::Num(*n),
        JsonValue::Bool(b) => SpecValue::Bool(*b),
        JsonValue::Arr(items) => SpecValue::List(
            items
                .iter()
                .map(|i| json_scalar(i, key))
                .collect::<Result<_, _>>()?,
        ),
        JsonValue::Null | JsonValue::Obj(_) => {
            return Err(SpecError::new(format!(
                "key '{key}': null / nested objects are not spec values"
            )))
        }
    })
}

// ----------------------------------------------------------- semantics

/// The most tasks a `[tasks] count` may ask for. Every committed spec
/// has at most 12; the cap stops a typo from building millions of
/// tasks before anything runs.
const MAX_TASKS: usize = 4096;

/// The highest generated-kernel `pressure`, in `[tasks]` and
/// `[covert]`. Committed specs use at most 10; the kernel grows with
/// it, so the cap bounds the work one spec can ask for.
const MAX_PRESSURE: usize = 1024;

/// The most cores a `[floorplan]` may tile. The die's modal factors
/// are dense `w × w` matrices, `w = cores · cols`, so their memory
/// grows with the square of the die's width; this cap and [`MAX_GRID`]
/// hold `w` to 2,048. Committed specs use at most 8 cores.
const MAX_CORES: usize = 32;

/// The most thermal-grid rows or columns per core. Committed specs use
/// at most 8 of each.
const MAX_GRID: usize = 64;

/// The most engine worker threads a spec's `[schedule] workers` or a
/// request's `workers` may ask for: an engine starts up to that many
/// scoped threads per call. Committed specs use at most 4.
pub const MAX_WORKERS: usize = 256;

/// Typed access with unknown-key rejection.
struct Section<'a> {
    name: &'a str,
    entries: Option<&'a BTreeMap<String, SpecValue>>,
}

impl Section<'_> {
    fn check_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        if let Some(entries) = self.entries {
            for key in entries.keys() {
                if !allowed.contains(&key.as_str()) {
                    return Err(SpecError::new(format!(
                        "unknown key '{key}' in [{}] (allowed: {})",
                        self.name,
                        allowed.join(", ")
                    )));
                }
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&SpecValue> {
        self.entries.and_then(|e| e.get(key))
    }

    fn str(&self, key: &str, default: &str) -> Result<String, SpecError> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(SpecValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(self.type_err(key, "a string", other)),
        }
    }

    fn num(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(SpecValue::Num(v)) => Ok(*v),
            Some(other) => Err(self.type_err(key, "a number", other)),
        }
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        let v = self.num(key, default as f64)?;
        if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
            return Err(SpecError::new(format!(
                "[{}] {key} = {v} must be a non-negative integer",
                self.name
            )));
        }
        Ok(v as usize)
    }

    /// [`usize`](Section::usize), rejecting values above `max`.
    fn usize_at_most(&self, key: &str, default: usize, max: usize) -> Result<usize, SpecError> {
        let v = self.usize(key, default)?;
        if v > max {
            return Err(SpecError::new(format!(
                "[{}] {key} = {v} exceeds the limit of {max}",
                self.name
            )));
        }
        Ok(v)
    }

    fn bool(&self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.get(key) {
            None => Ok(default),
            Some(SpecValue::Bool(b)) => Ok(*b),
            Some(other) => Err(self.type_err(key, "a boolean", other)),
        }
    }

    fn str_list(&self, key: &str) -> Result<Vec<String>, SpecError> {
        match self.get(key) {
            None => Ok(Vec::new()),
            Some(SpecValue::List(items)) => items
                .iter()
                .map(|i| match i {
                    SpecValue::Str(s) => Ok(s.clone()),
                    other => Err(self.type_err(key, "an array of strings", other)),
                })
                .collect(),
            Some(other) => Err(self.type_err(key, "an array of strings", other)),
        }
    }

    fn type_err(&self, key: &str, expected: &str, got: &SpecValue) -> SpecError {
        SpecError::new(format!(
            "[{}] {key} must be {expected}, got {got:?}",
            self.name
        ))
    }
}

fn build_config(
    sections: &Sections,
    base: &Path,
    default_name: &str,
) -> Result<ScenarioConfig, SpecError> {
    for name in sections.keys() {
        let known = [
            "",
            "floorplan",
            "tasks",
            "schedule",
            "assignment",
            "dfa",
            "dtm",
            "covert",
        ]
        .contains(&name.as_str());
        let class = name
            .strip_prefix("class.")
            .is_some_and(|class| !class.is_empty());
        if !known && !class {
            return Err(SpecError::new(format!("unknown section [{name}]")));
        }
    }
    let section = |name: &'static str| Section {
        name,
        entries: sections.get(name),
    };

    let top = Section {
        name: "top level",
        entries: sections.get(""),
    };
    top.check_keys(allowed_keys(""))?;
    let name = top.str("name", default_name)?;

    let fp = section("floorplan");
    fp.check_keys(allowed_keys("floorplan"))?;
    let cores = fp.usize_at_most("cores", 1, MAX_CORES)?;
    let rows = fp.usize_at_most("rows", 8, MAX_GRID)?;
    let cols = fp.usize_at_most("cols", 8, MAX_GRID)?;
    let coupling = match fp.get("coupling_resistance") {
        None => None,
        Some(SpecValue::Num(r)) => Some(*r),
        Some(other) => return Err(fp.type_err("coupling_resistance", "a number", other)),
    };
    let mut die = MultiCoreFloorplan::new(cores, rows, cols, RcParams::default(), coupling)
        .map_err(|e| SpecError::new(format!("[floorplan]: {e}")))?;

    // Heterogeneous tiles: `core_classes` names one class per core, each
    // defined by a `[class.<name>]` section. Every defined class must be
    // used and every used class defined, so a typo cannot silently run a
    // homogeneous die.
    let class_names = fp.str_list("core_classes")?;
    let defined: Vec<&str> = sections
        .keys()
        .filter_map(|s| s.strip_prefix("class."))
        .collect();
    if class_names.is_empty() {
        if let Some(stray) = defined.first() {
            return Err(SpecError::new(format!(
                "[class.{stray}] is defined but [floorplan] core_classes does not use it"
            )));
        }
    } else {
        if class_names.len() != cores {
            return Err(SpecError::new(format!(
                "[floorplan] core_classes names {} classes for {cores} cores (need one each)",
                class_names.len()
            )));
        }
        for stray in &defined {
            if !class_names.iter().any(|n| n == stray) {
                return Err(SpecError::new(format!(
                    "[class.{stray}] is defined but [floorplan] core_classes does not use it"
                )));
            }
        }
        let mut classes = Vec::with_capacity(class_names.len());
        for class in &class_names {
            let key = format!("class.{class}");
            let entries = sections.get(&key).ok_or_else(|| {
                SpecError::new(format!(
                    "core class '{class}' has no [class.{class}] section"
                ))
            })?;
            let sec = Section {
                name: "class",
                entries: Some(entries),
            };
            sec.check_keys(allowed_keys("class.<name>"))?;
            classes.push(CoreClass {
                name: class.clone(),
                power_scale: sec.num("power_scale", 1.0)?,
                speed_scale: sec.num("speed_scale", 1.0)?,
            });
        }
        die = die
            .with_core_classes(classes)
            .map_err(|e| SpecError::new(format!("[floorplan] core_classes: {e}")))?;
    }

    // The covert section parses before [tasks] because the "covert"
    // task source derives its whole stream from it.
    let covert_sec = section("covert");
    covert_sec.check_keys(allowed_keys("covert"))?;
    let covert: Option<CovertConfig> = if sections.contains_key("covert") {
        let d = CovertConfig::default();
        let cfg = CovertConfig {
            pattern: covert_sec.str("pattern", &d.pattern)?,
            bit_period: covert_sec.num("bit_period", d.bit_period)?,
            duty: covert_sec.num("duty", d.duty)?,
            receiver_core: covert_sec.usize("receiver_core", d.receiver_core)?,
            pressure: covert_sec.usize_at_most("pressure", d.pressure, MAX_PRESSURE)?,
            seed: covert_sec.usize("seed", d.seed as usize)? as u64,
        };
        cfg.validate(die.cores())
            .map_err(|e| SpecError::new(format!("[covert]: {e}")))?;
        Some(cfg)
    } else {
        None
    };

    let dtm_sec = section("dtm");
    dtm_sec.check_keys(allowed_keys("dtm"))?;
    let dtm: Option<DtmConfig> = if sections.contains_key("dtm") {
        let d = DtmConfig::default();
        let levels = match dtm_sec.get("levels") {
            None => d.levels.clone(),
            Some(SpecValue::List(items)) => items
                .iter()
                .map(|i| match i {
                    SpecValue::Num(v) => Ok(*v),
                    other => Err(dtm_sec.type_err("levels", "an array of numbers", other)),
                })
                .collect::<Result<_, _>>()?,
            Some(other) => return Err(dtm_sec.type_err("levels", "an array of numbers", other)),
        };
        let cfg = DtmConfig {
            policy: dtm_sec.str("policy", &d.policy)?,
            epoch: dtm_sec.num("epoch", d.epoch)?,
            cap: dtm_sec.num("cap", d.cap)?,
            hysteresis: dtm_sec.num("hysteresis", d.hysteresis)?,
            levels,
        };
        cfg.validate()
            .map_err(|e| SpecError::new(format!("[dtm]: {e}")))?;
        Some(cfg)
    } else {
        None
    };

    let tasks_sec = section("tasks");
    tasks_sec.check_keys(allowed_keys("tasks"))?;
    let source = tasks_sec.str("source", "")?;
    if source != "module" && tasks_sec.get("module").is_some() {
        return Err(SpecError::new(
            "[tasks] 'module' is only meaningful with source = \"module\"",
        ));
    }
    if source == "covert" {
        // The covert sender stream is derived entirely from [covert];
        // any other [tasks] key would silently be ignored.
        if let Some(entries) = sections.get("tasks") {
            if let Some(stray) = entries.keys().find(|k| *k != "source") {
                return Err(SpecError::new(format!(
                    "[tasks] '{stray}' has no effect with source = \"covert\" \
                     (the sender stream comes from [covert])"
                )));
            }
        }
        if covert.is_none() {
            return Err(SpecError::new(
                "[tasks] source = \"covert\" needs a [covert] section",
            ));
        }
    } else if covert.is_some() {
        return Err(SpecError::new(
            "[covert] requires [tasks] source = \"covert\" (the section defines the sender)",
        ));
    }
    let arrival_period = tasks_sec.num("arrival_period", 5e-4)?;
    let length = tasks_sec.num("length", 1e-3)?;
    let count = tasks_sec.usize_at_most("count", 8, MAX_TASKS)?;
    let mut module = None;
    let mut tasks: Vec<Task> = match source.as_str() {
        "generated" => {
            let seed = tasks_sec.usize("seed", 42)? as u64;
            let pressure = tasks_sec.usize_at_most("pressure", 8, MAX_PRESSURE)?;
            if pressure == 0 {
                return Err(SpecError::new("[tasks] pressure must be at least 1"));
            }
            generated_tasks(count, seed, pressure, arrival_period, length)
        }
        "suite" => suite_tasks(count, arrival_period, length),
        "files" => {
            let files = tasks_sec.str_list("files")?;
            if files.is_empty() {
                return Err(SpecError::new(
                    "[tasks] source = \"files\" needs a non-empty 'files' array",
                ));
            }
            let mut tasks = Vec::with_capacity(files.len());
            for (k, file) in files.iter().enumerate() {
                let path = base.join(file);
                let src = std::fs::read_to_string(&path).map_err(|e| {
                    SpecError::new(format!("cannot read task file {}: {e}", path.display()))
                })?;
                let func = tadfa_ir::parse_function(&src)
                    .map_err(|e| SpecError::new(format!("task file {}: {e}", path.display())))?;
                tasks.push(Task {
                    name: func.name().to_string(),
                    func,
                    arrival: k as f64 * arrival_period,
                    length,
                });
            }
            tasks
        }
        "module" => {
            let file = tasks_sec.str("module", "")?;
            if file.is_empty() {
                return Err(SpecError::new(
                    "[tasks] source = \"module\" needs a 'module' file path",
                ));
            }
            let path = base.join(&file);
            let src = std::fs::read_to_string(&path).map_err(|e| {
                SpecError::new(format!("cannot read module file {}: {e}", path.display()))
            })?;
            let parsed = tadfa_ir::parse_module(&src)
                .map_err(|e| SpecError::new(format!("module file {}: {e}", path.display())))?;
            // One task per function, in module order — the same order
            // the interprocedural analysis reports come back in.
            let tasks = parsed
                .functions()
                .iter()
                .enumerate()
                .map(|(k, func)| Task {
                    name: func.name().to_string(),
                    func: func.clone(),
                    arrival: k as f64 * arrival_period,
                    length,
                })
                .collect();
            module = Some(parsed);
            tasks
        }
        "covert" => covert_tasks(covert.as_ref().expect("checked above")),
        "" => {
            return Err(SpecError::new(
                "[tasks] source is required (generated | suite | files | module | covert)",
            ))
        }
        other => {
            return Err(SpecError::new(format!(
                "[tasks] unknown source '{other}' (generated | suite | files | module | covert)"
            )))
        }
    };

    // Arrival shape: the sources above lay tasks on the uniform
    // `k · arrival_period` ladder; "bursty" / "diurnal" re-time the same
    // task list with the tadfa_workloads generators. The covert source
    // owns its timing (bit windows), so a shape key is rejected there by
    // the only-source check above.
    let arrivals = tasks_sec.str("arrivals", "uniform")?;
    for (key, wants) in [
        ("burst", "bursty"),
        ("burst_gap", "bursty"),
        ("cycle", "diurnal"),
        ("sparse_factor", "diurnal"),
    ] {
        if arrivals != wants && tasks_sec.get(key).is_some() {
            return Err(SpecError::new(format!(
                "[tasks] '{key}' is only meaningful with arrivals = \"{wants}\""
            )));
        }
    }
    match arrivals.as_str() {
        "uniform" => {}
        "bursty" => {
            let burst = tasks_sec.usize("burst", 4)?;
            let gap = tasks_sec.num("burst_gap", 10.0 * arrival_period)?;
            if burst == 0 {
                return Err(SpecError::new("[tasks] burst must be at least 1"));
            }
            if !(arrival_period.is_finite()
                && arrival_period >= 0.0
                && gap.is_finite()
                && gap >= 0.0)
            {
                return Err(SpecError::new(
                    "[tasks] bursty arrivals need finite, non-negative arrival_period and burst_gap",
                ));
            }
            let times = bursty_arrivals(tasks.len(), burst, arrival_period, gap);
            for (t, at) in tasks.iter_mut().zip(times) {
                t.arrival = at;
            }
        }
        "diurnal" => {
            let cycle = tasks_sec.num("cycle", 20.0 * arrival_period)?;
            let sparse = tasks_sec.num("sparse_factor", 5.0)?;
            if !(arrival_period.is_finite()
                && arrival_period > 0.0
                && cycle.is_finite()
                && cycle > 0.0)
            {
                return Err(SpecError::new(
                    "[tasks] diurnal arrivals need finite, positive arrival_period and cycle",
                ));
            }
            if !(sparse.is_finite() && sparse >= 1.0) {
                return Err(SpecError::new(
                    "[tasks] sparse_factor must be finite and at least 1",
                ));
            }
            let times = diurnal_arrivals(tasks.len(), arrival_period, cycle, sparse);
            for (t, at) in tasks.iter_mut().zip(times) {
                t.arrival = at;
            }
        }
        other => {
            return Err(SpecError::new(format!(
                "[tasks] unknown arrivals shape '{other}' (uniform | bursty | diurnal)"
            )))
        }
    }

    let sched = section("schedule");
    sched.check_keys(allowed_keys("schedule"))?;
    let mapping = sched.str("mapping", "round-robin")?;
    let workers = sched.usize_at_most("workers", 4, MAX_WORKERS)?;

    let assign = section("assignment");
    assign.check_keys(allowed_keys("assignment"))?;
    let assignment_policy = assign.str("policy", "first-free")?;
    let assignment_seed = assign.usize("seed", 0)? as u64;

    let dfa_sec = section("dfa");
    dfa_sec.check_keys(allowed_keys("dfa"))?;
    let defaults = ThermalDfaConfig::default();
    let merge = match dfa_sec.str("merge", "max")?.as_str() {
        "max" => MergeRule::Max,
        "average" => MergeRule::Average,
        other => {
            return Err(SpecError::new(format!(
                "[dfa] unknown merge rule '{other}' (max | average)"
            )))
        }
    };
    let dfa = ThermalDfaConfig {
        delta: dfa_sec.num("delta", defaults.delta)?,
        max_iterations: dfa_sec.usize("max_iterations", defaults.max_iterations)?,
        merge,
        leakage_feedback: dfa_sec.bool("leakage", defaults.leakage_feedback)?,
        ..defaults
    };

    Ok(ScenarioConfig {
        name,
        die,
        tasks,
        mapping,
        assignment_policy,
        assignment_seed,
        dfa,
        workers,
        module,
        dtm,
        covert,
    })
}

/// Parses a TOML scenario spec from a string — the programmatic sibling
/// of [`load_spec`] and the entry the documentation tests use to keep
/// every example block in `docs/SCENARIO_AUTHORING.md` loadable.
/// Task files referenced by the spec resolve relative to the current
/// directory.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first syntax or validation
/// problem.
pub fn parse_spec_toml(text: &str, default_name: &str) -> Result<ScenarioConfig, SpecError> {
    build_config(&parse_toml(text)?, Path::new("."), default_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_to_config(toml: &str) -> Result<ScenarioConfig, SpecError> {
        build_config(&parse_toml(toml)?, Path::new("."), "unnamed")
    }

    const GOOD: &str = r#"
        name = "quad"  # a comment
        [floorplan]
        cores = 4
        rows = 6
        cols = 6
        coupling_resistance = 40.0
        [tasks]
        source = "generated"
        count = 6
        seed = 9
        arrival_period = 0.0005
        length = 0.001
        [schedule]
        mapping = "coolest-core"
        workers = 2
        [assignment]
        policy = "round-robin"
        seed = 3
        [dfa]
        delta = 0.05
        merge = "average"
        leakage = false
    "#;

    #[test]
    fn toml_spec_roundtrips_every_section() {
        let cfg = parse_to_config(GOOD).unwrap();
        assert_eq!(cfg.name, "quad");
        assert_eq!(cfg.die.cores(), 4);
        assert_eq!(cfg.die.rows(), 6);
        assert_eq!(cfg.die.coupling_resistance(), Some(40.0));
        assert_eq!(cfg.tasks.len(), 6);
        assert!((cfg.tasks[2].arrival - 1e-3).abs() < 1e-15);
        assert_eq!(cfg.mapping, "coolest-core");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.assignment_policy, "round-robin");
        assert_eq!(cfg.assignment_seed, 3);
        assert_eq!(cfg.dfa.delta, 0.05);
        assert_eq!(cfg.dfa.merge, MergeRule::Average);
        assert!(!cfg.dfa.leakage_feedback);
    }

    #[test]
    fn defaults_fill_every_optional_key() {
        let cfg = parse_to_config("[tasks]\nsource = \"suite\"\n").unwrap();
        assert_eq!(cfg.name, "unnamed");
        assert_eq!(cfg.die.cores(), 1);
        assert_eq!(cfg.die.rows(), 8);
        assert_eq!(cfg.die.coupling_resistance(), None);
        assert_eq!(cfg.tasks.len(), 8);
        assert_eq!(cfg.mapping, "round-robin");
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.assignment_policy, "first-free");
        assert_eq!(cfg.dfa.delta, ThermalDfaConfig::default().delta);
    }

    #[test]
    fn unknown_sections_keys_and_values_are_rejected() {
        assert!(parse_to_config("[bogus]\nx = 1\n").is_err());
        assert!(parse_to_config("[tasks]\nsource = \"suite\"\nbogus = 1\n").is_err());
        assert!(parse_to_config("[tasks]\nsource = \"nope\"\n").is_err());
        assert!(parse_to_config("[tasks]\n").is_err(), "source required");
        assert!(parse_to_config("[tasks]\nsource = \"files\"\n").is_err());
        assert!(parse_to_config("[tasks]\nsource = \"suite\"\ncount = 1.5\n").is_err());
        assert!(
            parse_to_config("[tasks]\nsource = \"generated\"\npressure = 0\n")
                .unwrap_err()
                .message
                .contains("pressure")
        );
        // Work caps: named key and limit, checked before any task is
        // built.
        let e = parse_to_config("[tasks]\nsource = \"suite\"\ncount = 1000000000\n").unwrap_err();
        assert!(
            e.message.contains("count") && e.message.contains("4096"),
            "{e:?}"
        );
        assert_eq!(
            parse_to_config("[tasks]\nsource = \"suite\"\ncount = 4096\n")
                .unwrap()
                .tasks
                .len(),
            4096
        );
        let e = parse_to_config("[tasks]\nsource = \"generated\"\npressure = 1025\n").unwrap_err();
        assert!(
            e.message.contains("pressure") && e.message.contains("1024"),
            "{e:?}"
        );
        for (section, key, value, limit) in [
            ("floorplan", "cores", 33, 32),
            ("floorplan", "cores", 4096, 32),
            ("floorplan", "rows", 65, 64),
            ("floorplan", "cols", 65, 64),
            ("schedule", "workers", 257, 256),
            ("schedule", "workers", 4096, 256),
        ] {
            let e = parse_to_config(&format!(
                "[{section}]\n{key} = {value}\n[tasks]\nsource = \"suite\"\n"
            ))
            .unwrap_err();
            assert!(
                e.message.contains(key) && e.message.contains(&limit.to_string()),
                "{e:?}"
            );
        }
        assert_eq!(
            parse_to_config("[schedule]\nworkers = 256\n[tasks]\nsource = \"suite\"\n")
                .unwrap()
                .workers,
            256
        );
        assert!(
            parse_to_config("[dfa]\nmerge = \"median\"\n[tasks]\nsource = \"suite\"\n").is_err()
        );
        assert!(
            parse_to_config("[dfa]\nsolver = \"fast\"\n[tasks]\nsource = \"suite\"\n")
                .unwrap_err()
                .message
                .contains("solver"),
            "the retired solver key is an unknown key"
        );
        assert!(parse_toml("key value\n").is_err());
        assert!(parse_toml("[unterminated\n").is_err());
        assert!(parse_toml("k = \"open\n").is_err());
        assert!(
            parse_toml("[a]\nx = 1\n[a]\ny = 2\n").is_err(),
            "duplicate section"
        );
        assert!(parse_toml("x = 1\nx = 2\n").is_err(), "duplicate key");
    }

    #[test]
    fn json_spec_parses_like_toml() {
        let json = r#"{
            "name": "duo",
            "floorplan": {"cores": 2, "rows": 4, "cols": 4},
            "tasks": {"source": "suite", "count": 3},
            "schedule": {"mapping": "static-shard", "workers": 1}
        }"#;
        let cfg = build_config(&json_sections(json).unwrap(), Path::new("."), "x").unwrap();
        assert_eq!(cfg.name, "duo");
        assert_eq!(cfg.die.cores(), 2);
        assert_eq!(cfg.tasks.len(), 3);
        assert_eq!(cfg.mapping, "static-shard");
        assert!(json_sections("[1, 2]").is_err(), "spec must be an object");
        assert!(json_sections(r#"{"tasks": {"source": null}}"#).is_err());
        // Duplicates are errors, exactly like the TOML path.
        assert!(
            json_sections(r#"{"schedule": {"mapping": "a"}, "schedule": {"mapping": "b"}}"#)
                .is_err(),
            "duplicate section"
        );
        assert!(
            json_sections(r#"{"schedule": {"mapping": "a", "mapping": "b"}}"#).is_err(),
            "duplicate key"
        );
        assert!(
            json_sections(r#"{"name": "x", "name": "y"}"#).is_err(),
            "duplicate top-level key"
        );
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(
            strip_comment(r##"key = "a#b" # real comment"##),
            r##"key = "a#b" "##
        );
        assert_eq!(strip_comment("plain"), "plain");
    }

    #[test]
    fn spec_dir_loads_sorted_and_rejects_collisions() {
        let dir = std::env::temp_dir().join(format!("tadfa_spec_dir_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("golden")).unwrap();
        std::fs::write(dir.join("b_two.toml"), "[tasks]\nsource = \"suite\"\n").unwrap();
        std::fs::write(
            dir.join("a_one.json"),
            r#"{"tasks": {"source": "suite", "count": 2}}"#,
        )
        .unwrap();
        // Subdirectories (the golden reports) are not specs.
        std::fs::write(dir.join("golden/a_one.json"), "{}").unwrap();
        // Non-spec files are ignored.
        std::fs::write(dir.join("README.md"), "notes").unwrap();
        // Stem order differs from path order here: the path
        // "b_two-x.json" sorts before "b_two.toml" ('-' < '.'), but the
        // stem "b_two" sorts before "b_two-x".
        std::fs::write(
            dir.join("b_two-x.json"),
            r#"{"tasks": {"source": "suite", "count": 1}}"#,
        )
        .unwrap();

        let specs = load_spec_dir(&dir).unwrap();
        let names: Vec<&str> = specs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_one", "b_two", "b_two-x"], "sorted by stem");
        assert_eq!(specs[0].1.tasks.len(), 2);

        // A stem collision would make two specs fight over one golden.
        std::fs::write(dir.join("a_one.toml"), "[tasks]\nsource = \"suite\"\n").unwrap();
        assert!(load_spec_dir(&dir).unwrap_err().message.contains("a_one"));

        // An empty directory is a configuration error, not an empty Ok,
        // and so is an unreadable one.
        let empty = dir.join("none");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(load_spec_dir(&empty).unwrap_err().message.contains("no "));
        assert!(load_spec_dir(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn module_tasks_load_in_module_order_and_keep_the_module() {
        let dir = std::env::temp_dir().join("tadfa_spec_module_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("prog.tir"),
            "func @leaf(%0) {\nblock0:\n  %1 = mul %0, %0\n  ret %1\n}\n\n\
             func @main(%0) {\nblock0:\n  %1 = call @leaf(%0)\n  ret %1\n}\n",
        )
        .unwrap();
        let toml = "[tasks]\nsource = \"module\"\nmodule = \"prog.tir\"\narrival_period = 0.001\n";
        let cfg = build_config(&parse_toml(toml).unwrap(), &dir, "x").unwrap();
        assert_eq!(cfg.tasks.len(), 2);
        assert_eq!(cfg.tasks[0].name, "leaf");
        assert_eq!(cfg.tasks[1].name, "main");
        assert!((cfg.tasks[1].arrival - 0.001).abs() < 1e-15);
        let module = cfg.module.as_ref().expect("module kept for analysis");
        assert_eq!(module.len(), 2);

        // A module source without a path, and a 'module' key on any
        // other source, are both spec errors.
        let missing = "[tasks]\nsource = \"module\"\n";
        assert!(build_config(&parse_toml(missing).unwrap(), &dir, "x").is_err());
        let stray = "[tasks]\nsource = \"suite\"\nmodule = \"prog.tir\"\n";
        assert!(build_config(&parse_toml(stray).unwrap(), &dir, "x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_tasks_load_through_the_ir_parser() {
        let dir = std::env::temp_dir().join("tadfa_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("t.tir"),
            "func @double(%0) {\nblock0:\n  %1 = add %0, %0\n  ret %1\n}\n",
        )
        .unwrap();
        let toml = "[tasks]\nsource = \"files\"\nfiles = [\"t.tir\"]\n";
        let cfg = build_config(&parse_toml(toml).unwrap(), &dir, "x").unwrap();
        assert_eq!(cfg.tasks.len(), 1);
        assert_eq!(cfg.tasks[0].name, "double");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn core_classes_build_heterogeneous_dies_and_reject_typos() {
        let good = "[floorplan]\ncores = 2\ncore_classes = [\"big\", \"little\"]\n\
                    [class.big]\npower_scale = 1.0\n\
                    [class.little]\npower_scale = 0.5\nspeed_scale = 0.7\n\
                    [tasks]\nsource = \"suite\"\n";
        let cfg = parse_to_config(good).unwrap();
        assert_eq!(cfg.die.power_scale(0), 1.0);
        assert_eq!(cfg.die.power_scale(1), 0.5);
        assert_eq!(cfg.die.speed_scale(1), 0.7);

        // Arity mismatch: one class name for two cores.
        let short = "[floorplan]\ncores = 2\ncore_classes = [\"big\"]\n\
                     [class.big]\n\n[tasks]\nsource = \"suite\"\n";
        assert!(parse_to_config(short)
            .unwrap_err()
            .message
            .contains("2 cores"));

        // Used but undefined class.
        let undefined = "[floorplan]\ncores = 1\ncore_classes = [\"big\"]\n\
                         [tasks]\nsource = \"suite\"\n";
        assert!(parse_to_config(undefined)
            .unwrap_err()
            .message
            .contains("no [class.big]"));

        // Defined but unused class.
        let unused = "[floorplan]\ncores = 1\n[class.ghost]\npower_scale = 2.0\n\
                      [tasks]\nsource = \"suite\"\n";
        assert!(parse_to_config(unused)
            .unwrap_err()
            .message
            .contains("does not use it"));

        // Unknown key inside a class section.
        let stray = "[floorplan]\ncores = 1\ncore_classes = [\"a\"]\n\
                     [class.a]\nvoltage = 1.1\n[tasks]\nsource = \"suite\"\n";
        assert!(parse_to_config(stray)
            .unwrap_err()
            .message
            .contains("voltage"));
    }

    #[test]
    fn dtm_section_parses_validates_and_rejects_strays() {
        let good = "[tasks]\nsource = \"suite\"\n\
                    [dtm]\npolicy = \"dvfs\"\nepoch = 0.0002\ncap = 320.0\n\
                    hysteresis = 0.5\nlevels = [1.0, 0.75, 0.5]\n";
        let cfg = parse_to_config(good).unwrap();
        let dtm = cfg.dtm.expect("[dtm] installs a controller");
        assert_eq!(dtm.policy, "dvfs");
        assert_eq!(dtm.cap, 320.0);
        assert_eq!(dtm.levels, vec![1.0, 0.75, 0.5]);

        // No [dtm] section ⇒ no controller at all (not a "none" one).
        assert!(parse_to_config("[tasks]\nsource = \"suite\"\n")
            .unwrap()
            .dtm
            .is_none());

        // Validation runs: an unknown policy is rejected at parse time.
        let bad_policy = "[tasks]\nsource = \"suite\"\n[dtm]\npolicy = \"clamp\"\n";
        assert!(parse_to_config(bad_policy).is_err());
        // Unknown keys are rejected like everywhere else.
        let stray = "[tasks]\nsource = \"suite\"\n[dtm]\nperiod = 0.1\n";
        assert!(parse_to_config(stray)
            .unwrap_err()
            .message
            .contains("period"));
        // levels must be numeric.
        let bad_levels = "[tasks]\nsource = \"suite\"\n[dtm]\nlevels = [\"hi\"]\n";
        assert!(parse_to_config(bad_levels).is_err());
    }

    #[test]
    fn covert_section_and_source_require_each_other() {
        let good = "[floorplan]\ncores = 2\ncols = 4\nrows = 4\n\
                    coupling_resistance = 2.0\n\
                    [tasks]\nsource = \"covert\"\n\
                    [covert]\npattern = \"101\"\nbit_period = 0.002\n\
                    receiver_core = 1\n";
        let cfg = parse_to_config(good).unwrap();
        let covert = cfg.covert.expect("[covert] kept for the runner");
        assert_eq!(covert.pattern, "101");
        assert_eq!(covert.receiver_core, 1);
        assert!(!cfg.tasks.is_empty(), "sender stream derived from [covert]");

        // source = "covert" without the section.
        let orphan_source = "[tasks]\nsource = \"covert\"\n";
        assert!(parse_to_config(orphan_source)
            .unwrap_err()
            .message
            .contains("[covert]"));

        // [covert] without the source (the die must be big enough for
        // the section itself to validate, or that error wins).
        let orphan_section = "[floorplan]\ncores = 2\n\
                              [tasks]\nsource = \"suite\"\n[covert]\npattern = \"1\"\n";
        assert!(parse_to_config(orphan_section)
            .unwrap_err()
            .message
            .contains("source = \"covert\""));

        // Any [tasks] key besides `source` is dead weight under covert.
        let stray = "[floorplan]\ncores = 2\n\
                     [tasks]\nsource = \"covert\"\ncount = 4\n\
                     [covert]\nreceiver_core = 1\n";
        assert!(parse_to_config(stray)
            .unwrap_err()
            .message
            .contains("count"));

        // Validation sees the die: receiver must be a real core.
        let off_die = "[tasks]\nsource = \"covert\"\n[covert]\nreceiver_core = 5\n";
        assert!(parse_to_config(off_die).is_err());

        // The sender kernel needs at least one live accumulator.
        let cold = "[floorplan]\ncores = 2\n\
                    [tasks]\nsource = \"covert\"\n[covert]\npressure = 0\n";
        assert!(parse_to_config(cold)
            .unwrap_err()
            .message
            .contains("pressure"));
        let scorching = "[floorplan]\ncores = 2\n\
                         [tasks]\nsource = \"covert\"\n[covert]\npressure = 5000\n";
        assert!(parse_to_config(scorching)
            .unwrap_err()
            .message
            .contains("1024"));
    }

    #[test]
    fn arrival_shapes_retime_tasks_and_gate_their_keys() {
        let bursty = "[tasks]\nsource = \"suite\"\ncount = 8\n\
                      arrival_period = 0.001\narrivals = \"bursty\"\n\
                      burst = 4\nburst_gap = 0.01\n";
        let cfg = parse_to_config(bursty).unwrap();
        // Group 0 at 0,1,2,3 ms; group 1 starts after the gap.
        assert!((cfg.tasks[3].arrival - 0.003).abs() < 1e-12);
        assert!(cfg.tasks[4].arrival > 0.01);

        let diurnal = "[tasks]\nsource = \"suite\"\ncount = 6\n\
                       arrival_period = 0.001\narrivals = \"diurnal\"\n\
                       cycle = 0.004\nsparse_factor = 4.0\n";
        let cfg = parse_to_config(diurnal).unwrap();
        let times: Vec<f64> = cfg.tasks.iter().map(|t| t.arrival).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]), "monotone arrivals");

        // Shape keys are gated to their shape.
        let wrong = "[tasks]\nsource = \"suite\"\nburst = 4\n";
        assert!(parse_to_config(wrong)
            .unwrap_err()
            .message
            .contains("bursty"));
        let wrong2 = "[tasks]\nsource = \"suite\"\narrivals = \"bursty\"\ncycle = 0.1\n";
        assert!(parse_to_config(wrong2)
            .unwrap_err()
            .message
            .contains("diurnal"));
        let unknown = "[tasks]\nsource = \"suite\"\narrivals = \"poisson\"\n";
        assert!(parse_to_config(unknown)
            .unwrap_err()
            .message
            .contains("poisson"));
        // Degenerate parameters are spec errors, not generator panics.
        let zero_burst = "[tasks]\nsource = \"suite\"\narrivals = \"bursty\"\nburst = 0\n";
        assert!(parse_to_config(zero_burst).is_err());
        let bad_sparse =
            "[tasks]\nsource = \"suite\"\narrivals = \"diurnal\"\nsparse_factor = 0.5\n";
        assert!(parse_to_config(bad_sparse).is_err());
    }

    #[test]
    fn spec_fields_table_matches_the_sections_the_builder_accepts() {
        // Every section named in SPEC_FIELDS resolves through
        // allowed_keys (the "" top level and the class.<name> pattern
        // included) — the table and the checker cannot drift apart.
        for (section, keys) in SPEC_FIELDS {
            let probe = if *section == "class.<name>" {
                "class.anything".to_string()
            } else {
                (*section).to_string()
            };
            assert_eq!(allowed_keys(&probe), *keys, "section [{section}]");
        }
    }
}
