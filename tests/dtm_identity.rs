//! The DTM identity property: configuring the `"none"` DTM policy must
//! be **bit-transparent** — every scheduling and thermal output of the
//! closed-loop simulator is bitwise identical to the open-loop path
//! with no DTM configured at all, across every mapping policy and
//! worker count.
//!
//! Only the `dtm` accounting block itself (policy name, epoch count)
//! may differ between the two reports; `"none"` installs no epoch grid,
//! so the discrete-event timeline is untouched. Any other policy — even
//! one whose cap is never reached — subdivides solver windows at epoch
//! boundaries and is *allowed* to change low-order bits (see
//! `docs/DETERMINISM.md`).
//!
//! The closed loop must also do its job: every committed spec with a
//! controller ends cooler, in both die peaks, than the same spec with
//! `none`.

use std::path::Path;
use tadfa::prelude::*;
use tadfa::sched::{
    load_spec, run_scenario, suite_tasks, DtmConfig, MultiCoreFloorplan, ScenarioConfig,
    ScenarioResult, MAPPING_POLICY_NAMES,
};

fn base_config(mapping: &str, workers: usize) -> ScenarioConfig {
    let die = MultiCoreFloorplan::new(4, 4, 4, RcParams::default(), Some(40.0)).unwrap();
    let mut cfg = ScenarioConfig::new("dtm-identity", die, suite_tasks(8, 4e-4, 1.2e-3), mapping);
    cfg.workers = workers;
    cfg
}

/// Asserts every non-DTM output of two results is bitwise identical.
fn assert_bit_identical(a: &ScenarioResult, b: &ScenarioResult, what: &str) {
    assert_eq!(a.assignments, b.assignments, "{what}: assignments");
    assert_eq!(a.migrations, b.migrations, "{what}: migrations");
    assert_eq!(a.tasks.len(), b.tasks.len(), "{what}: task count");
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(ta.name, tb.name, "{what}: task name");
        assert_eq!(ta.core, tb.core, "{what}: task core");
        for (fa, fb, field) in [
            (ta.arrival, tb.arrival, "arrival"),
            (ta.start, tb.start, "start"),
            (ta.length, tb.length, "length"),
            (ta.peak_temperature, tb.peak_temperature, "peak"),
            (ta.energy, tb.energy, "energy"),
        ] {
            assert_eq!(fa.to_bits(), fb.to_bits(), "{what}: task {field} bits");
        }
        assert_eq!(ta.fingerprint, tb.fingerprint, "{what}: task fingerprint");
    }
    for (ca, cb) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(ca.tasks, cb.tasks, "{what}: core task lists");
        assert_eq!(ca.busy.to_bits(), cb.busy.to_bits(), "{what}: core busy");
        assert_eq!(
            ca.energy.to_bits(),
            cb.energy.to_bits(),
            "{what}: core energy"
        );
    }
    assert_eq!(
        a.die.transient_peak.to_bits(),
        b.die.transient_peak.to_bits(),
        "{what}: transient peak"
    );
    assert_eq!(
        a.die.transient_peak_time.to_bits(),
        b.die.transient_peak_time.to_bits(),
        "{what}: transient peak time"
    );
    assert_eq!(
        a.die.steady_peak.to_bits(),
        b.die.steady_peak.to_bits(),
        "{what}: steady peak"
    );
    assert_eq!(a.die.steady_sweeps, b.die.steady_sweeps, "{what}: sweeps");
    assert_eq!(
        a.die.makespan.to_bits(),
        b.die.makespan.to_bits(),
        "{what}: makespan"
    );
}

/// `policy = "none"` reproduces the no-DTM path bit-for-bit under every
/// mapping policy and at 1 and 7 workers.
#[test]
fn none_policy_is_bit_identical_to_no_dtm_everywhere() {
    for mapping in MAPPING_POLICY_NAMES {
        for workers in [1, 7] {
            let open = run_scenario(&base_config(mapping, workers)).unwrap();
            assert!(open.dtm.is_none(), "no DTM configured");

            let mut cfg = base_config(mapping, workers);
            cfg.dtm = Some(DtmConfig {
                policy: "none".to_string(),
                ..DtmConfig::default()
            });
            let closed = run_scenario(&cfg).unwrap();
            let summary = closed.dtm.as_ref().expect("DTM summary present");
            assert_eq!(summary.policy, "none");
            assert_eq!(summary.epochs, 0, "'none' installs no epoch grid");
            assert_eq!(summary.level_changes + summary.throttle_events, 0);

            assert_bit_identical(&open, &closed, &format!("{mapping} w={workers}"));
        }
    }
}

/// Each committed controller lowers the die's transient and steady
/// peaks strictly below those of the same spec under `none`, and acts
/// at least once.
#[test]
fn every_committed_controller_cools_the_die() {
    for stem in [
        "covert_pinned_dvfs",
        "covert_pinned_throttle",
        "het_bursty_dvfs",
        "migrate_diurnal",
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(format!("{stem}.toml"));
        let cfg = load_spec(&path).unwrap();
        let controlled = run_scenario(&cfg).unwrap();
        let mut open = cfg.clone();
        open.dtm.as_mut().expect("spec has a controller").policy = "none".to_string();
        let uncontrolled = run_scenario(&open).unwrap();

        let (c, u) = (&controlled.die, &uncontrolled.die);
        assert!(
            c.transient_peak < u.transient_peak,
            "{stem}: transient peak {} K, {} K under none",
            c.transient_peak,
            u.transient_peak
        );
        assert!(
            c.steady_peak < u.steady_peak,
            "{stem}: steady peak {} K, {} K under none",
            c.steady_peak,
            u.steady_peak
        );
        let acted = controlled.dtm.as_ref().unwrap();
        assert!(
            acted.level_changes + acted.throttle_events + acted.migrations > 0,
            "{stem}: the controller never acted: {acted:?}"
        );
    }
}

/// An active policy whose epoch grid subdivides solver windows is *not*
/// required to be bit-identical even when its cap is unreachable: the
/// grid is consulted, the summary folds into the fingerprint, and
/// integration breakpoints move. Pin that down so nobody mistakes a
/// non-firing DVFS ladder for the identity policy.
#[test]
fn non_firing_dvfs_is_not_the_identity() {
    let open = run_scenario(&base_config("round-robin", 2)).unwrap();
    let mut cfg = base_config("round-robin", 2);
    cfg.dtm = Some(DtmConfig {
        policy: "dvfs".to_string(),
        cap: 1e6, // unreachable: the ladder never steps down
        ..DtmConfig::default()
    });
    let closed = run_scenario(&cfg).unwrap();
    let summary = closed.dtm.as_ref().unwrap();
    assert_eq!(summary.level_changes, 0, "cap unreachable — no actions");
    assert!(summary.epochs > 0, "epoch grid consulted");
    assert_ne!(
        open.fingerprint(),
        closed.fingerprint(),
        "a consulted epoch grid is observable in the fingerprint"
    );
    // The schedule itself is untouched when no action ever fires.
    assert_eq!(
        open.die.makespan.to_bits(),
        closed.die.makespan.to_bits(),
        "no speed changes — makespan identical"
    );
}
