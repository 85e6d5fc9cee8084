//! Per-function thermal summaries — the unit of interprocedural
//! analysis.
//!
//! A [`ThermalSummary`] captures *what a function's execution does to
//! the RC model*: the ordered trace of sparse power deposits and step
//! schedules its instructions walk through, flattened over the
//! function's blocks in reverse post-order (each block contributing one
//! iteration). Applying the summary to a thermal state advances it
//! exactly as stepping through the function body would under the same
//! flattened order — for **any** entry state, because the trace replays
//! the same solver entry point ([`CompiledModel::step_sparse_into`])
//! the intraprocedural sweeps use, including fused leakage feedback.
//!
//! That exactness is what makes summaries compose: a callee's summary
//! is spliced verbatim into its callers' summaries (transitively), and
//! the thermal DFA replays it at every call site instead of re-walking
//! the callee's body. Summaries are content-keyed by the same
//! [`signature`](crate::ThermalDfa::signature) hash that keys whole
//! fixpoint solves, so the [`SolveCache`](crate::SolveCache) memoises
//! them across callers, analyses, and service requests: a hot callee's
//! trace is flattened once, no matter how many functions call it.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::{AnalysisGrid, ThermalDfaConfig};
use tadfa_ir::{Terminator, ALL_OPCODES};
use tadfa_thermal::{CompiledModel, LeakageParams, StepSchedule, StepScratch, ThermalState};

/// One RC step of a summary trace: a slice of the summary's deposit
/// table plus the precomputed sub-step schedule for its duration.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SummaryStep {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) sched: StepSchedule,
}

/// The summed watts of one step's deposits, or NaN if one is negative
/// (the kernels take only non-negative power).
pub(crate) fn deposit_watts(deposits: &[(u32, f64)]) -> f64 {
    deposits
        .iter()
        .map(|&(_, w)| if w >= 0.0 { w } else { f64::NAN })
        .sum()
}

/// The memoisable thermal effect of one function: an ordered, flattened
/// deposit trace that advances any entry state exactly as analysing the
/// function body (blocks once each, in reverse post-order) would.
///
/// Built by [`ThermalDfa::summarize`](crate::ThermalDfa::summarize);
/// applied at call sites by the module-level analysis entry points
/// ([`Session::analyze_module`](crate::Session::analyze_module),
/// [`Engine::analyze_module`](crate::engine::Engine::analyze_module)).
#[derive(Clone, Debug)]
pub struct ThermalSummary {
    steps: Vec<SummaryStep>,
    deposits: Vec<(u32, f64)>,
    leak: LeakageParams,
    leakage_feedback: bool,
    num_points: usize,
    signature: u128,
}

impl ThermalSummary {
    pub(crate) fn from_parts(
        steps: Vec<SummaryStep>,
        deposits: Vec<(u32, f64)>,
        leak: LeakageParams,
        leakage_feedback: bool,
        num_points: usize,
        signature: u128,
    ) -> ThermalSummary {
        ThermalSummary {
            steps,
            deposits,
            leak,
            leakage_feedback,
            num_points,
            signature,
        }
    }

    /// Number of analysis points the summary's deposits address — must
    /// match the caller's grid.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Number of RC steps replaying the summary advances the state by —
    /// one per instruction and terminator of the summarised function,
    /// plus every step of every (transitively) spliced callee.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of explicit-Euler sub-steps replaying the summary runs —
    /// the cost of one call site.
    pub fn num_substeps(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.sched.n_sub())).sum()
    }

    /// The content signature the summary was computed under — the same
    /// bit-exact power-profile hash that keys whole fixpoint solves
    /// ([`ThermalDfa::signature`](crate::ThermalDfa::signature)), so
    /// two functions with identical bodies share one cached summary.
    pub fn signature(&self) -> u128 {
        self.signature
    }

    /// Whether analysing on `grid` under `config` could have built this
    /// summary: its point count is the grid's, and every step runs one
    /// of the schedules an instruction or terminator gets there (one
    /// per latency: 1, 2, 3 and 12 cycles). The codec cannot check
    /// either, because both depend on the model. A decoded summary
    /// that fails asks for work no analysis does (one flipped bit of a
    /// sub-step count decodes to up to 2³² sub-steps per call site), so
    /// a cache warmed from disk drops it instead of preloading it.
    pub fn fits(&self, grid: &AnalysisGrid, config: &ThermalDfaConfig) -> bool {
        let compiled = grid.compiled();
        // Every terminator takes the same latency.
        let schedules: Vec<StepSchedule> = ALL_OPCODES
            .iter()
            .map(|op| op.latency())
            .chain([Terminator::Ret(None).latency()])
            .map(|latency| compiled.schedule(config.step_duration(latency)))
            .collect();
        let known = |s: &StepSchedule| {
            schedules
                .iter()
                .any(|k| k.n_sub() == s.n_sub() && k.sub_step().to_bits() == s.sub_step().to_bits())
        };
        self.num_points == grid.num_points() && self.steps.iter().all(|s| known(&s.sched))
    }

    /// The leakage model replaying applies, if any.
    pub(crate) fn leakage(&self) -> Option<LeakageParams> {
        self.leakage_feedback.then_some(self.leak)
    }

    /// Each step's schedule with its summed deposit watts (NaN if one
    /// is negative) — what the fixpoint's deferral guard bounds.
    pub(crate) fn steps(&self) -> impl Iterator<Item = (StepSchedule, f64)> + '_ {
        self.steps.iter().map(|s| {
            let deposits = &self.deposits[s.start as usize..s.end as usize];
            (s.sched, deposit_watts(deposits))
        })
    }

    /// Replays the trace on `state` — the call-site transfer function.
    pub(crate) fn apply(
        &self,
        state: &mut ThermalState,
        compiled: &CompiledModel,
        step: &mut StepScratch,
    ) {
        let leak = self.leakage_feedback.then_some(&self.leak);
        for s in &self.steps {
            let deposits = &self.deposits[s.start as usize..s.end as usize];
            compiled.step_sparse_into(state, deposits, &s.sched, leak, step);
        }
    }

    /// Appends this summary's trace to a caller's under-construction
    /// trace, rebasing deposit spans — how callee effects become part
    /// of caller summaries (transitive composition).
    pub(crate) fn splice_into(&self, steps: &mut Vec<SummaryStep>, deposits: &mut Vec<(u32, f64)>) {
        for s in &self.steps {
            let start = deposits.len() as u32;
            deposits.extend_from_slice(&self.deposits[s.start as usize..s.end as usize]);
            steps.push(SummaryStep {
                start,
                end: deposits.len() as u32,
                sched: s.sched,
            });
        }
    }

    /// Serialises the summary into the spill codec (exact `f64` bit
    /// patterns — see [`crate::codec`]). [`decode`](Self::decode)
    /// reconstructs a summary whose replay is bit-identical.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(crate::codec::CODEC_VERSION);
        w.put_u128(self.signature);
        w.put_u64(self.num_points as u64);
        w.put_u8(u8::from(self.leakage_feedback));
        w.put_f64(self.leak.per_cell);
        w.put_f64(self.leak.temp_coeff);
        w.put_f64(self.leak.reference_temp);
        w.put_u64(self.steps.len() as u64);
        for s in &self.steps {
            w.put_u32(s.start);
            w.put_u32(s.end);
            w.put_u32(s.sched.n_sub());
            w.put_f64(s.sched.sub_step());
        }
        w.put_u64(self.deposits.len() as u64);
        for &(idx, watts) in &self.deposits {
            w.put_u32(idx);
            w.put_f64(watts);
        }
        w.into_bytes()
    }

    /// Reconstructs a summary from [`encode`](Self::encode)d bytes.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, corrupted, or
    /// version-mismatched input — never panics, whatever the bytes.
    pub fn decode(bytes: &[u8]) -> Result<ThermalSummary, CodecError> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != crate::codec::CODEC_VERSION {
            return Err(CodecError::Version(version));
        }
        let signature = r.get_u128()?;
        let num_points = r.get_u64()? as usize;
        let leakage_feedback = match r.get_u8()? {
            0 => false,
            1 => true,
            t => return Err(CodecError::BadTag(t)),
        };
        let leak = LeakageParams {
            per_cell: r.get_f64()?,
            temp_coeff: r.get_f64()?,
            reference_temp: r.get_f64()?,
        };
        let n = r.get_u64()?;
        let n = r.checked_len(n, 20)?;
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let start = r.get_u32()?;
            let end = r.get_u32()?;
            if start > end {
                return Err(CodecError::BadLength(u64::from(start)));
            }
            let n_sub = r.get_u32()?;
            let sub_step = r.get_f64()?;
            steps.push(SummaryStep {
                start,
                end,
                sched: StepSchedule::from_raw(n_sub, sub_step),
            });
        }
        let n = r.get_u64()?;
        let n = r.checked_len(n, 12)?;
        let mut deposits = Vec::with_capacity(n);
        for _ in 0..n {
            let (point, watts) = (r.get_u32()?, r.get_f64()?);
            // Replaying steps the kernel, which indexes the grid by
            // point and takes only non-negative power.
            if point as usize >= num_points {
                return Err(CodecError::OutOfRange(u64::from(point)));
            }
            if watts.is_nan() || watts < 0.0 {
                return Err(CodecError::OutOfRange(watts.to_bits()));
            }
            deposits.push((point, watts));
        }
        // Every span must address real deposits, or replaying would
        // index out of bounds.
        if let Some(s) = steps.iter().find(|s| s.end as usize > deposits.len()) {
            return Err(CodecError::BadLength(u64::from(s.end)));
        }
        r.finish()?;
        Ok(ThermalSummary {
            steps,
            deposits,
            leak,
            leakage_feedback,
            num_points,
            signature,
        })
    }
}
