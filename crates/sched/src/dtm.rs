//! Dynamic thermal management: closed-loop control of the die
//! simulation.
//!
//! Hung et al. (PAPERS.md) make the case that a thermal-aware scheduler
//! is only half the story — at runtime, per-core temperature feeds back
//! into *dynamic* decisions: frequency/voltage scaling, hard clock
//! gating under a temperature cap, and temperature-triggered task
//! migration. This module supplies that loop for the scenario runner:
//!
//! * [`DtmConfig`] — the declarative knobs a `[dtm]` spec section sets
//!   (policy name, control epoch, cap, hysteresis, DVFS ladder);
//! * [`DtmPolicy`] — the pluggable controller consulted at fixed
//!   control epochs with per-core sensor readings ([`DtmContext`]),
//!   returning [`DtmAction`]s;
//! * the built-in policies — `none` (identity), `dvfs`, `throttle`,
//!   `migrate` — registered in [`DTM_POLICY_INFO`];
//! * `simulate` (crate-internal) — the discrete-event closed-loop
//!   simulator the runner's phase 3 executes for **every** scenario,
//!   DTM or not.
//!
//! # Determinism contract
//!
//! The loop is a pure function of the scenario configuration: control
//! epochs sit on the fixed grid `k · epoch`, sensors read the solver
//! state (itself bit-deterministic), and every tie-break is by lowest
//! core index. There is no wall clock and no randomness, so scenarios
//! with DTM fingerprint byte-identically across runs and worker counts
//! exactly like the open-loop ones.
//!
//! # Bit-parity with the open-loop runner
//!
//! When no DTM policy intervenes (no `[dtm]` section, or the `none`
//! identity policy, on a homogeneous die), the event simulator
//! reproduces the pre-DTM open-loop runner **bit for bit**: the same
//! solver windows in the same order, power accumulated in task-index
//! order, segment durations computed as `work / speed` so a unit-speed
//! core yields the task length exactly, and unit scale factors taking
//! the verbatim-add path of [`tadfa_thermal::accumulate_scaled`].
//! `tests/dtm_identity.rs` enforces that claim. (The goldens no longer
//! predate this module: they were regenerated once when the exact
//! modal die solver replaced Euler stepping.)

use crate::multicore::MultiCoreFloorplan;
use crate::task::{Task, TaskMetrics};
use std::collections::VecDeque;
use tadfa_core::TadfaError;
use tadfa_thermal::{accumulate_scaled, ModalSolver};

/// Declarative DTM configuration — the `[dtm]` section of a scenario
/// spec.
#[derive(Clone, Debug, PartialEq)]
pub struct DtmConfig {
    /// Controller name (see [`DTM_POLICY_NAMES`]).
    pub policy: String,
    /// Control epoch, seconds: the fixed period at which the policy is
    /// consulted. Epoch boundaries subdivide solver windows, so any
    /// epoch-driven policy changes result bits even when it never acts
    /// (see `docs/DETERMINISM.md`); only `none` is bit-transparent.
    pub epoch: f64,
    /// Temperature cap, K: the threshold that triggers intervention.
    pub cap: f64,
    /// Release margin, K: interventions lift once the core cools
    /// strictly below `cap - hysteresis`, preventing control chatter.
    pub hysteresis: f64,
    /// DVFS frequency ladder, descending from `1.0` (nominal). A core
    /// at level `l` runs at speed `levels[l]` and deposits
    /// `levels[l]³ ×` power.
    pub levels: Vec<f64>,
}

impl Default for DtmConfig {
    fn default() -> DtmConfig {
        DtmConfig {
            policy: "none".to_string(),
            epoch: 2e-4,
            cap: 315.0,
            hysteresis: 1.0,
            levels: vec![1.0, 0.75, 0.5],
        }
    }
}

impl DtmConfig {
    /// Validates the configuration, error-first — called by
    /// `PreparedScenario::prepare` so a bad `[dtm]` section fails at
    /// load time.
    ///
    /// # Errors
    ///
    /// [`TadfaError::UnknownPolicy`] for an unregistered policy name;
    /// [`TadfaError::InvalidConfig`] for a non-positive epoch or cap, a
    /// negative hysteresis, or a ladder that is empty, does not start
    /// at `1.0`, or is not strictly descending through `(0, 1]`.
    pub fn validate(&self) -> Result<(), TadfaError> {
        if dtm_policy_from_config(self).is_none() {
            return Err(TadfaError::UnknownPolicy(self.policy.clone()));
        }
        if !(self.epoch.is_finite() && self.epoch > 0.0) {
            return Err(TadfaError::InvalidConfig {
                param: "dtm epoch",
                value: self.epoch,
                reason: "control epoch must be finite and positive",
            });
        }
        if !(self.cap.is_finite() && self.cap > 0.0) {
            return Err(TadfaError::InvalidConfig {
                param: "dtm cap",
                value: self.cap,
                reason: "temperature cap must be finite and positive",
            });
        }
        if !(self.hysteresis.is_finite() && self.hysteresis >= 0.0) {
            return Err(TadfaError::InvalidConfig {
                param: "dtm hysteresis",
                value: self.hysteresis,
                reason: "hysteresis must be finite and non-negative",
            });
        }
        if self.levels.first() != Some(&1.0) {
            return Err(TadfaError::InvalidConfig {
                param: "dtm levels",
                value: self.levels.first().copied().unwrap_or(f64::NAN),
                reason: "the DVFS ladder must start at the nominal level 1.0",
            });
        }
        for w in self.levels.windows(2) {
            if !(w[1].is_finite() && w[1] > 0.0 && w[1] < w[0]) {
                return Err(TadfaError::InvalidConfig {
                    param: "dtm levels",
                    value: w[1],
                    reason: "ladder levels must descend strictly through (0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Per-core sensor readings a policy consults at one control epoch.
#[derive(Debug)]
pub struct DtmContext<'a> {
    /// Simulation time of this epoch, seconds.
    pub time: f64,
    /// Hottest cell of each core's tile right now, K.
    pub core_peak: &'a [f64],
    /// Each core's current DVFS level (index into `levels`).
    pub core_level: &'a [usize],
    /// Whether each core is currently clock-gated.
    pub core_throttled: &'a [bool],
    /// Whether each core is currently executing a task.
    pub core_busy: &'a [bool],
    /// The configured DVFS ladder.
    pub levels: &'a [f64],
    /// The configured temperature cap, K.
    pub cap: f64,
    /// The configured release margin, K.
    pub hysteresis: f64,
}

/// One intervention a policy requests. Invalid actions (out-of-range
/// cores, migrating from an idle core, migrating onto a busy or
/// throttled core) are ignored by the simulator, so a policy cannot
/// corrupt the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DtmAction {
    /// Move `core` to DVFS ladder index `level` (clamped to the
    /// ladder).
    SetLevel {
        /// Target core.
        core: usize,
        /// New ladder index (0 = nominal).
        level: usize,
    },
    /// Clock-gate (`on = true`) or release (`on = false`) `core`. A
    /// gated core makes no progress and deposits no dynamic power.
    Throttle {
        /// Target core.
        core: usize,
        /// Gate or release.
        on: bool,
    },
    /// Move the task running on `from` onto the idle core `to`,
    /// continuing from its remaining work.
    Migrate {
        /// Source core (must be busy).
        from: usize,
        /// Destination core (must be idle and unthrottled).
        to: usize,
    },
}

/// A dynamic thermal management controller.
///
/// Contract (mirrors [`MappingPolicy`](crate::MappingPolicy)):
/// deterministic — a pure function of the [`DtmContext`] and its own
/// `reset` state, never of wall time — and consulted only on the fixed
/// epoch grid its [`period`](DtmPolicy::period) declares.
pub trait DtmPolicy: std::fmt::Debug {
    /// The policy's registry name.
    fn name(&self) -> &'static str;

    /// One-line human description, printed by `tadfa policies`.
    fn description(&self) -> &'static str;

    /// The control epoch, seconds — `None` for a policy that is never
    /// consulted (the identity policy), which therefore inserts no
    /// epoch boundaries into the solver window sequence.
    fn period(&self) -> Option<f64>;

    /// Restores the initial state for a die of `cores` cores.
    fn reset(&mut self, cores: usize);

    /// Decides this epoch's interventions.
    fn control(&mut self, ctx: &DtmContext<'_>) -> Vec<DtmAction>;
}

/// The identity policy: never consulted, never intervenes.
/// Byte-identical to running the scenario with no `[dtm]` section at
/// all — the property `tests/dtm_identity.rs` asserts.
#[derive(Debug, Default)]
pub struct NoDtm;

impl DtmPolicy for NoDtm {
    fn name(&self) -> &'static str {
        "none"
    }

    fn description(&self) -> &'static str {
        "identity controller; never intervenes (bit-identical to no DTM)"
    }

    fn period(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self, _cores: usize) {}

    fn control(&mut self, _ctx: &DtmContext<'_>) -> Vec<DtmAction> {
        Vec::new()
    }
}

/// Per-core DVFS ladder controller: a core at or above the cap steps
/// one level down (slower, cooler); a core strictly below
/// `cap - hysteresis` steps one level back up.
#[derive(Debug)]
pub struct DvfsLadder {
    epoch: f64,
    cap: f64,
    hysteresis: f64,
}

impl DtmPolicy for DvfsLadder {
    fn name(&self) -> &'static str {
        "dvfs"
    }

    fn description(&self) -> &'static str {
        "per-core DVFS ladder; steps down at the cap, back up below cap - hysteresis"
    }

    fn period(&self) -> Option<f64> {
        Some(self.epoch)
    }

    fn reset(&mut self, _cores: usize) {}

    fn control(&mut self, ctx: &DtmContext<'_>) -> Vec<DtmAction> {
        let mut actions = Vec::new();
        for (core, &peak) in ctx.core_peak.iter().enumerate() {
            let level = ctx.core_level[core];
            if peak >= self.cap && level + 1 < ctx.levels.len() {
                actions.push(DtmAction::SetLevel {
                    core,
                    level: level + 1,
                });
            } else if peak < self.cap - self.hysteresis && level > 0 {
                actions.push(DtmAction::SetLevel {
                    core,
                    level: level - 1,
                });
            }
        }
        actions
    }
}

/// Hard thermal throttling: a core at or above the cap is clock-gated
/// (its task pauses, depositing nothing) until it cools strictly below
/// `cap - hysteresis`.
#[derive(Debug)]
pub struct HardThrottle {
    epoch: f64,
    cap: f64,
    hysteresis: f64,
}

impl DtmPolicy for HardThrottle {
    fn name(&self) -> &'static str {
        "throttle"
    }

    fn description(&self) -> &'static str {
        "clock-gates a core at the cap until it cools below cap - hysteresis"
    }

    fn period(&self) -> Option<f64> {
        Some(self.epoch)
    }

    fn reset(&mut self, _cores: usize) {}

    fn control(&mut self, ctx: &DtmContext<'_>) -> Vec<DtmAction> {
        let mut actions = Vec::new();
        for (core, &peak) in ctx.core_peak.iter().enumerate() {
            if !ctx.core_throttled[core] && peak >= self.cap {
                actions.push(DtmAction::Throttle { core, on: true });
            } else if ctx.core_throttled[core] && peak < self.cap - self.hysteresis {
                actions.push(DtmAction::Throttle { core, on: false });
            }
        }
        actions
    }
}

/// Temperature-triggered migration: when the hottest busy core reaches
/// the cap, its running task moves to the coolest idle core — provided
/// that core is at least `hysteresis` kelvin cooler. Ties break toward
/// the lower core index (documented in `docs/DETERMINISM.md`). At most
/// one migration per epoch.
#[derive(Debug)]
pub struct MigrateHottest {
    epoch: f64,
    cap: f64,
    hysteresis: f64,
}

impl DtmPolicy for MigrateHottest {
    fn name(&self) -> &'static str {
        "migrate"
    }

    fn description(&self) -> &'static str {
        "moves the hottest core's task to the coolest idle core once the cap is hit"
    }

    fn period(&self) -> Option<f64> {
        Some(self.epoch)
    }

    fn reset(&mut self, _cores: usize) {}

    fn control(&mut self, ctx: &DtmContext<'_>) -> Vec<DtmAction> {
        // Hottest busy core at/above the cap; ties → lowest index
        // (strict > keeps the earlier candidate).
        let mut hot: Option<usize> = None;
        for (core, &peak) in ctx.core_peak.iter().enumerate() {
            if ctx.core_busy[core]
                && peak >= self.cap
                && hot.is_none_or(|h| peak > ctx.core_peak[h])
            {
                hot = Some(core);
            }
        }
        let Some(from) = hot else { return Vec::new() };
        // Coolest idle, unthrottled core; ties → lowest index.
        let mut cool: Option<usize> = None;
        for (core, &peak) in ctx.core_peak.iter().enumerate() {
            if !ctx.core_busy[core]
                && !ctx.core_throttled[core]
                && cool.is_none_or(|c| peak < ctx.core_peak[c])
            {
                cool = Some(core);
            }
        }
        match cool {
            Some(to) if ctx.core_peak[to] <= ctx.core_peak[from] - self.hysteresis => {
                vec![DtmAction::Migrate { from, to }]
            }
            _ => Vec::new(),
        }
    }
}

/// Instantiates a built-in DTM policy from a configuration.
pub fn dtm_policy_from_config(cfg: &DtmConfig) -> Option<Box<dyn DtmPolicy>> {
    Some(match cfg.policy.as_str() {
        "none" => Box::new(NoDtm),
        "dvfs" => Box::new(DvfsLadder {
            epoch: cfg.epoch,
            cap: cfg.cap,
            hysteresis: cfg.hysteresis,
        }),
        "throttle" => Box::new(HardThrottle {
            epoch: cfg.epoch,
            cap: cfg.cap,
            hysteresis: cfg.hysteresis,
        }),
        "migrate" => Box::new(MigrateHottest {
            epoch: cfg.epoch,
            cap: cfg.cap,
            hysteresis: cfg.hysteresis,
        }),
        _ => return None,
    })
}

/// The names accepted by [`dtm_policy_from_config`], in canonical
/// order.
pub const DTM_POLICY_NAMES: [&str; 4] = ["none", "dvfs", "throttle", "migrate"];

/// Name and one-line description of every built-in DTM policy — what
/// `tadfa policies` prints.
pub const DTM_POLICY_INFO: [(&str, &str); 4] = [
    (
        "none",
        "identity controller; never intervenes (bit-identical to no DTM)",
    ),
    (
        "dvfs",
        "per-core DVFS ladder; steps down at the cap, back up below cap - hysteresis",
    ),
    (
        "throttle",
        "clock-gates a core at the cap until it cools below cap - hysteresis",
    ),
    (
        "migrate",
        "moves the hottest core's task to the coolest idle core once the cap is hit",
    ),
];

/// What the closed loop did, for the report's `dtm` block and the
/// fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DtmSummary {
    /// The controller that ran.
    pub policy: String,
    /// Control epochs consulted.
    pub epochs: usize,
    /// DVFS level changes applied.
    pub level_changes: usize,
    /// Throttle engagements (gate-on transitions).
    pub throttle_events: usize,
    /// DTM-triggered task migrations (distinct from mapping-policy
    /// rebalance moves).
    pub migrations: usize,
}

// --------------------------------------------------------- simulator

/// Everything the closed-loop simulator reads. Built by the runner
/// after the mapping phase.
pub(crate) struct SimInput<'a> {
    pub die: &'a MultiCoreFloorplan,
    /// The die's modal factors, built once per prepared scenario.
    pub solver: &'a ModalSolver,
    pub tasks: &'a [Task],
    pub metrics: &'a [TaskMetrics],
    /// Task indices in arrival order (ties by index) — the queue
    /// discipline on every core.
    pub order: &'a [usize],
    /// Initial task → core mapping (post-rebalance).
    pub assignments: &'a [usize],
    pub dtm: Option<&'a DtmConfig>,
    /// Sorted observation grid for the covert-channel receiver (empty
    /// otherwise). Each time inserts a window boundary.
    pub sample_times: &'a [f64],
    /// Core whose tile peak the samples read.
    pub sample_core: usize,
}

/// Everything the simulator produces for the runner to assemble.
pub(crate) struct SimOutput {
    pub starts: Vec<f64>,
    pub final_core: Vec<usize>,
    /// Seconds each task held a core (execution + gated time).
    pub occupancy: Vec<f64>,
    pub makespan: f64,
    pub transient_peak: f64,
    pub transient_peak_time: f64,
    /// Time-averaged die power over the makespan, for the steady solve.
    pub avg_power: Vec<f64>,
    pub samples: Vec<f64>,
    pub dtm: Option<DtmSummary>,
}

/// Hard ceiling on simulation events: a runaway closed loop (e.g. a
/// microscopic epoch against a long makespan) fails cleanly instead of
/// spinning.
const EVENT_BUDGET: usize = 1_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum RunState {
    Waiting,
    Running,
    Done,
}

struct TaskSim {
    state: RunState,
    /// Remaining work in unit-speed seconds. Decremented only when a
    /// segment is interrupted, so an uninterrupted task completes with
    /// `work / speed` exactly equal to its length on a unit-speed core.
    work: f64,
    seg_start: f64,
    seg_speed: f64,
    seg_scale: f64,
    paused: bool,
    pause_start: f64,
    /// (core, power scale, duration) — the task's execution history,
    /// folded into the time-averaged power.
    segments: Vec<(usize, f64, f64)>,
    occupancy: f64,
    start: f64,
    core: usize,
    finish: f64,
}

struct CoreSim {
    queue: VecDeque<usize>,
    running: Option<usize>,
    finish_at: f64,
    level: usize,
    throttled: bool,
}

fn eff_speed(die: &MultiCoreFloorplan, core: usize, freq: f64) -> f64 {
    die.speed_scale(core) * freq
}

fn eff_scale(die: &MultiCoreFloorplan, core: usize, freq: f64) -> f64 {
    die.power_scale(core) * (freq * freq * freq)
}

/// Closes the running segment of task `t` at `now`, banking its work.
fn interrupt_segment(ts: &mut TaskSim, core: usize, now: f64) {
    let dur = now - ts.seg_start;
    if dur > 0.0 {
        ts.segments.push((core, ts.seg_scale, dur));
        ts.occupancy += dur;
        ts.work = (ts.work - dur * ts.seg_speed).max(0.0);
    }
    ts.seg_start = now;
}

/// Starts queued tasks on every idle, unthrottled core whose queue head
/// has arrived. Core order = index order (deterministic).
fn start_ready(
    now: f64,
    csim: &mut [CoreSim],
    tsim: &mut [TaskSim],
    tasks: &[Task],
    die: &MultiCoreFloorplan,
    dtm: Option<&DtmConfig>,
) {
    for (core, cs) in csim.iter_mut().enumerate() {
        if cs.throttled || cs.running.is_some() {
            continue;
        }
        let Some(&head) = cs.queue.front() else {
            continue;
        };
        if tasks[head].arrival > now {
            continue;
        }
        cs.queue.pop_front();
        let freq = dtm.map_or(1.0, |d| d.levels[cs.level]);
        let speed = eff_speed(die, core, freq);
        let ts = &mut tsim[head];
        ts.state = RunState::Running;
        ts.start = now;
        ts.core = core;
        ts.seg_start = now;
        ts.seg_speed = speed;
        ts.seg_scale = eff_scale(die, core, freq);
        cs.running = Some(head);
        cs.finish_at = now + ts.work / speed;
    }
}

/// The discrete-event closed-loop simulator — the runner's phase 3.
///
/// Events are task starts/finishes, control epochs, and covert sample
/// times; between consecutive events the die takes one exact modal
/// window under the piecewise-constant power of the running tasks. See the
/// module docs for the bit-parity contract with the open-loop runner.
pub(crate) fn simulate(input: &SimInput<'_>) -> Result<SimOutput, TadfaError> {
    let die = input.die;
    let cores_n = die.cores();
    let per = die.cells_per_core();
    let mut policy = match input.dtm {
        Some(cfg) => {
            let mut p = dtm_policy_from_config(cfg)
                .ok_or_else(|| TadfaError::UnknownPolicy(cfg.policy.clone()))?;
            p.reset(cores_n);
            Some(p)
        }
        None => None,
    };
    let period = policy.as_ref().and_then(|p| p.period());

    let mut tsim: Vec<TaskSim> = input
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| TaskSim {
            state: RunState::Waiting,
            work: t.length,
            seg_start: 0.0,
            seg_speed: 1.0,
            seg_scale: 1.0,
            paused: false,
            pause_start: 0.0,
            segments: Vec::new(),
            occupancy: 0.0,
            start: 0.0,
            core: input.assignments[i],
            finish: 0.0,
        })
        .collect();
    let mut csim: Vec<CoreSim> = (0..cores_n)
        .map(|_| CoreSim {
            queue: VecDeque::new(),
            running: None,
            finish_at: f64::INFINITY,
            level: 0,
            throttled: false,
        })
        .collect();
    for &t in input.order {
        csim[input.assignments[t]].queue.push_back(t);
    }

    let mut state = input.solver.ambient_state();
    let mut power = vec![0.0f64; die.num_cells()];
    let mut transient_peak = state.temps().peak();
    let mut transient_peak_time = 0.0;
    let mut samples: Vec<f64> = Vec::with_capacity(input.sample_times.len());
    let mut next_sample = 0usize;
    let mut epoch_idx: u64 = 1;
    let mut summary = input.dtm.map(|d| DtmSummary {
        policy: d.policy.clone(),
        epochs: 0,
        level_changes: 0,
        throttle_events: 0,
        migrations: 0,
    });
    let mut remaining = tsim.len();
    let mut now = 0.0f64;
    let mut events = 0usize;

    start_ready(now, &mut csim, &mut tsim, input.tasks, die, input.dtm);

    while remaining > 0 || next_sample < input.sample_times.len() {
        events += 1;
        if events > EVENT_BUDGET {
            return Err(TadfaError::InvalidConfig {
                param: "dtm epoch",
                value: input.dtm.map_or(0.0, |d| d.epoch),
                reason: "closed-loop simulation exceeded its event budget; \
                         raise the control epoch or shrink the scenario",
            });
        }

        // Next event: earliest finish, earliest waiting-head arrival on
        // an idle core, the next control epoch (while work remains),
        // the next covert sample.
        let mut next = f64::INFINITY;
        for cs in &csim {
            if cs.running.is_some() {
                next = next.min(cs.finish_at);
            } else if !cs.throttled {
                if let Some(&head) = cs.queue.front() {
                    next = next.min(input.tasks[head].arrival);
                }
            }
        }
        if remaining > 0 {
            if let Some(p) = period {
                next = next.min(epoch_idx as f64 * p);
            }
        }
        if next_sample < input.sample_times.len() {
            next = next.min(input.sample_times[next_sample]);
        }
        if !next.is_finite() {
            return Err(TadfaError::InvalidConfig {
                param: "dtm policy",
                value: 0.0,
                reason: "closed loop deadlocked: work remains but no event can fire \
                         (every busy core gated with no release epoch)",
            });
        }

        // One solver window under the running tasks' power, accumulated
        // in task-index order (the open-loop runner's order).
        if next > now {
            power.iter_mut().for_each(|p| *p = 0.0);
            for (i, ts) in tsim.iter().enumerate() {
                if ts.state == RunState::Running && !ts.paused {
                    let base = ts.core * per;
                    accumulate_scaled(
                        &mut power[base..base + per],
                        &input.metrics[i].power,
                        ts.seg_scale,
                    );
                }
            }
            input.solver.step(&mut state, &power, next - now);
            let peak = state.temps().peak();
            if peak > transient_peak {
                transient_peak = peak;
                transient_peak_time = next;
            }
        }
        now = next;

        // Covert samples due at this instant.
        while next_sample < input.sample_times.len() && input.sample_times[next_sample] <= now {
            samples.push(
                state
                    .temps()
                    .peak_in(input.sample_core * per, (input.sample_core + 1) * per),
            );
            next_sample += 1;
        }

        // Completions (core-index order).
        for (core, cs) in csim.iter_mut().enumerate() {
            let Some(t) = cs.running else { continue };
            if cs.finish_at > now {
                continue;
            }
            let ts = &mut tsim[t];
            let dur = ts.work / ts.seg_speed;
            ts.segments.push((core, ts.seg_scale, dur));
            ts.occupancy += dur;
            ts.work = 0.0;
            ts.state = RunState::Done;
            ts.finish = now;
            cs.running = None;
            cs.finish_at = f64::INFINITY;
            remaining -= 1;
        }

        // Freed cores pick up their queues.
        start_ready(now, &mut csim, &mut tsim, input.tasks, die, input.dtm);

        // Control epochs due at this instant.
        if let (Some(p), Some(pol)) = (period, policy.as_mut()) {
            while remaining > 0 && epoch_idx as f64 * p <= now {
                let epoch_time = epoch_idx as f64 * p;
                epoch_idx += 1;
                let core_peak: Vec<f64> = (0..cores_n)
                    .map(|c| state.temps().peak_in(c * per, (c + 1) * per))
                    .collect();
                let core_level: Vec<usize> = csim.iter().map(|c| c.level).collect();
                let core_throttled: Vec<bool> = csim.iter().map(|c| c.throttled).collect();
                let core_busy: Vec<bool> = csim.iter().map(|c| c.running.is_some()).collect();
                let dtm_cfg = input.dtm.expect("policy implies config");
                let actions = pol.control(&DtmContext {
                    time: epoch_time,
                    core_peak: &core_peak,
                    core_level: &core_level,
                    core_throttled: &core_throttled,
                    core_busy: &core_busy,
                    levels: &dtm_cfg.levels,
                    cap: dtm_cfg.cap,
                    hysteresis: dtm_cfg.hysteresis,
                });
                if let Some(sum) = summary.as_mut() {
                    sum.epochs += 1;
                }
                for action in actions {
                    apply_action(
                        action,
                        now,
                        &mut csim,
                        &mut tsim,
                        die,
                        dtm_cfg,
                        summary.as_mut().expect("dtm implies summary"),
                    );
                }
                // Released/freed cores may start queued work.
                start_ready(now, &mut csim, &mut tsim, input.tasks, die, input.dtm);
            }
        }
    }

    let makespan = tsim.iter().fold(0.0f64, |m, t| m.max(t.finish));
    let mut avg_power = vec![0.0f64; die.num_cells()];
    if makespan > 0.0 {
        for (i, ts) in tsim.iter().enumerate() {
            for &(core, scale, dur) in &ts.segments {
                let base = core * per;
                if scale == 1.0 {
                    // Verbatim expression of the open-loop runner: a
                    // full-length unit segment contributes
                    // `pw * length / makespan` bit for bit.
                    for (cell, &pw) in input.metrics[i].power.iter().enumerate() {
                        avg_power[base + cell] += pw * dur / makespan;
                    }
                } else {
                    for (cell, &pw) in input.metrics[i].power.iter().enumerate() {
                        avg_power[base + cell] += pw * scale * dur / makespan;
                    }
                }
            }
        }
    }

    Ok(SimOutput {
        starts: tsim.iter().map(|t| t.start).collect(),
        final_core: tsim.iter().map(|t| t.core).collect(),
        occupancy: tsim.iter().map(|t| t.occupancy).collect(),
        makespan,
        transient_peak,
        transient_peak_time,
        avg_power,
        samples,
        dtm: summary,
    })
}

fn apply_action(
    action: DtmAction,
    now: f64,
    csim: &mut [CoreSim],
    tsim: &mut [TaskSim],
    die: &MultiCoreFloorplan,
    cfg: &DtmConfig,
    summary: &mut DtmSummary,
) {
    let cores_n = csim.len();
    match action {
        DtmAction::SetLevel { core, level } => {
            if core >= cores_n {
                return;
            }
            let level = level.min(cfg.levels.len() - 1);
            if csim[core].level == level {
                return;
            }
            csim[core].level = level;
            summary.level_changes += 1;
            if let Some(t) = csim[core].running {
                let ts = &mut tsim[t];
                if !ts.paused {
                    interrupt_segment(ts, core, now);
                    let freq = cfg.levels[level];
                    ts.seg_speed = eff_speed(die, core, freq);
                    ts.seg_scale = eff_scale(die, core, freq);
                    csim[core].finish_at = now + ts.work / ts.seg_speed;
                }
            }
        }
        DtmAction::Throttle { core, on } => {
            if core >= cores_n || csim[core].throttled == on {
                return;
            }
            csim[core].throttled = on;
            if on {
                summary.throttle_events += 1;
                if let Some(t) = csim[core].running {
                    let ts = &mut tsim[t];
                    interrupt_segment(ts, core, now);
                    ts.paused = true;
                    ts.pause_start = now;
                    csim[core].finish_at = f64::INFINITY;
                }
            } else if let Some(t) = csim[core].running {
                let ts = &mut tsim[t];
                ts.paused = false;
                ts.occupancy += now - ts.pause_start;
                ts.seg_start = now;
                let freq = cfg.levels[csim[core].level];
                ts.seg_speed = eff_speed(die, core, freq);
                ts.seg_scale = eff_scale(die, core, freq);
                csim[core].finish_at = now + ts.work / ts.seg_speed;
            }
        }
        DtmAction::Migrate { from, to } => {
            if from >= cores_n || to >= cores_n || from == to {
                return;
            }
            if csim[to].running.is_some() || csim[to].throttled {
                return;
            }
            let Some(t) = csim[from].running else { return };
            if tsim[t].paused {
                return;
            }
            let ts = &mut tsim[t];
            interrupt_segment(ts, from, now);
            csim[from].running = None;
            csim[from].finish_at = f64::INFINITY;
            let freq = cfg.levels[csim[to].level];
            ts.core = to;
            ts.seg_speed = eff_speed(die, to, freq);
            ts.seg_scale = eff_scale(die, to, freq);
            ts.seg_start = now;
            csim[to].running = Some(t);
            csim[to].finish_at = now + ts.work / ts.seg_speed;
            summary.migrations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        peaks: &'a [f64],
        levels_state: &'a [usize],
        throttled: &'a [bool],
        busy: &'a [bool],
        ladder: &'a [f64],
    ) -> DtmContext<'a> {
        DtmContext {
            time: 1e-3,
            core_peak: peaks,
            core_level: levels_state,
            core_throttled: throttled,
            core_busy: busy,
            levels: ladder,
            cap: 315.0,
            hysteresis: 2.0,
        }
    }

    #[test]
    fn registry_covers_all_names_and_info_matches() {
        for (name, info) in DTM_POLICY_NAMES.iter().zip(DTM_POLICY_INFO) {
            let cfg = DtmConfig {
                policy: name.to_string(),
                ..DtmConfig::default()
            };
            let p = dtm_policy_from_config(&cfg).unwrap();
            assert_eq!(p.name(), *name);
            assert_eq!(info.0, *name);
            assert_eq!(p.description(), info.1);
        }
        let bogus = DtmConfig {
            policy: "bogus".to_string(),
            ..DtmConfig::default()
        };
        assert!(dtm_policy_from_config(&bogus).is_none());
    }

    #[test]
    fn config_validation_is_error_first() {
        assert!(DtmConfig::default().validate().is_ok());
        let cases = [
            DtmConfig {
                policy: "bogus".into(),
                ..DtmConfig::default()
            },
            DtmConfig {
                epoch: 0.0,
                ..DtmConfig::default()
            },
            DtmConfig {
                cap: f64::NAN,
                ..DtmConfig::default()
            },
            DtmConfig {
                hysteresis: -1.0,
                ..DtmConfig::default()
            },
            DtmConfig {
                levels: vec![],
                ..DtmConfig::default()
            },
            DtmConfig {
                levels: vec![0.9, 0.5],
                ..DtmConfig::default()
            },
            DtmConfig {
                levels: vec![1.0, 1.0],
                ..DtmConfig::default()
            },
            DtmConfig {
                levels: vec![1.0, 0.5, 0.7],
                ..DtmConfig::default()
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn identity_policy_is_never_consulted() {
        let mut p = NoDtm;
        assert_eq!(p.period(), None);
        let ladder = [1.0, 0.5];
        assert!(p
            .control(&ctx(
                &[400.0, 400.0],
                &[0, 0],
                &[false, false],
                &[true, true],
                &ladder,
            ))
            .is_empty());
    }

    #[test]
    fn dvfs_ladder_steps_down_at_cap_and_back_up_below_hysteresis() {
        let cfg = DtmConfig {
            policy: "dvfs".into(),
            ..DtmConfig::default()
        };
        let mut p = dtm_policy_from_config(&cfg).unwrap();
        let ladder = [1.0, 0.75, 0.5];
        // Hot core 0 steps down; cool core 1 (already down) steps up;
        // core 2 in the hysteresis band holds.
        let actions = p.control(&ctx(
            &[316.0, 312.0, 314.0],
            &[0, 1, 1],
            &[false; 3],
            &[true; 3],
            &ladder,
        ));
        assert_eq!(
            actions,
            vec![
                DtmAction::SetLevel { core: 0, level: 1 },
                DtmAction::SetLevel { core: 1, level: 0 },
            ]
        );
        // Bottom of the ladder: no further step down.
        let actions = p.control(&ctx(&[400.0], &[2], &[false], &[true], &ladder));
        assert!(actions.is_empty());
    }

    #[test]
    fn throttle_gates_at_cap_and_releases_with_hysteresis() {
        let cfg = DtmConfig {
            policy: "throttle".into(),
            ..DtmConfig::default()
        };
        let mut p = dtm_policy_from_config(&cfg).unwrap();
        let ladder = [1.0];
        let actions = p.control(&ctx(
            &[316.0, 314.0],
            &[0, 0],
            &[false, true],
            &[true, true],
            &ladder,
        ));
        // Core 0 gates; core 1 (gated, still above cap - hysteresis)
        // stays gated.
        assert_eq!(actions, vec![DtmAction::Throttle { core: 0, on: true }]);
        let actions = p.control(&ctx(&[312.9], &[0], &[true], &[true], &ladder));
        assert_eq!(actions, vec![DtmAction::Throttle { core: 0, on: false }]);
    }

    #[test]
    fn migrate_moves_hottest_to_coolest_idle_with_index_tie_breaks() {
        let cfg = DtmConfig {
            policy: "migrate".into(),
            ..DtmConfig::default()
        };
        let mut p = dtm_policy_from_config(&cfg).unwrap();
        let ladder = [1.0];
        // Core 1 hottest & busy; cores 2 and 3 idle and equally cool →
        // lower index 2 wins.
        let actions = p.control(&ctx(
            &[310.0, 320.0, 305.0, 305.0],
            &[0; 4],
            &[false; 4],
            &[true, true, false, false],
            &ladder,
        ));
        assert_eq!(actions, vec![DtmAction::Migrate { from: 1, to: 2 }]);
        // No idle target cooler by the hysteresis margin → no move.
        let actions = p.control(&ctx(
            &[320.0, 319.5],
            &[0, 0],
            &[false, false],
            &[true, false],
            &ladder,
        ));
        assert!(actions.is_empty());
        // Nothing over the cap → no move.
        let actions = p.control(&ctx(
            &[310.0, 300.0],
            &[0, 0],
            &[false, false],
            &[true, false],
            &ladder,
        ));
        assert!(actions.is_empty());
    }
}
