//! Predictive (pre-assignment) thermal analysis.
//!
//! "The more ambitious possibility that we propose in this paper, which
//! has never been considered before, would be to develop predictive
//! analyses that would be performed at earlier stages of compilation,
//! i.e., before register allocation and assignment" (§4).
//!
//! Before assignment the analysis cannot know which physical register a
//! variable will get, so it models the *assignment that is about to
//! happen*: a placement prior (a cheap rehearsal of the allocator under
//! the expected policy, or a uniform smear) converts loop-weighted access
//! frequencies into an expected per-cell power map, whose steady state is
//! the predicted thermal map. The prediction drives:
//!
//! * critical-variable identification *before* allocation (compare E7);
//! * the [`ColdestFirst`](tadfa_regalloc::ColdestFirst) policy, closing
//!   the loop from prediction back into assignment without any thermal
//!   simulation feedback.

use crate::error::TadfaError;
use serde::{Deserialize, Serialize};
use tadfa_dataflow::DefUse;
use tadfa_ir::{Cfg, DomTree, Function, LoopInfo, PReg, VReg};
use tadfa_regalloc::{
    allocate_linear_scan, AssignmentPolicy, Chessboard, FirstFree, RegAllocConfig, RoundRobin,
};
use tadfa_thermal::{PowerModel, RcParams, RegisterFile, ThermalModel, ThermalState};

/// The assumed future assignment behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PlacementPrior {
    /// Every variable's accesses smear uniformly over the whole file —
    /// the weakest, assumption-free prior.
    Uniform,
    /// Rehearse a linear scan with the ordered-first-free policy (the
    /// compiler default of §2).
    FirstFree,
    /// Rehearse with the chessboard policy.
    Chessboard,
    /// Rehearse with the round-robin policy.
    RoundRobin,
}

/// Configuration of the predictive analysis.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct PredictiveConfig {
    /// Placement prior.
    pub prior: PlacementPrior,
    /// Assumed iteration count per loop level for static frequency
    /// weighting.
    pub loop_base: f64,
    /// Seconds per cycle (for converting energy to power).
    pub seconds_per_cycle: f64,
}

impl Default for PredictiveConfig {
    fn default() -> PredictiveConfig {
        PredictiveConfig {
            prior: PlacementPrior::FirstFree,
            loop_base: 10.0,
            seconds_per_cycle: tadfa_thermal::constants::DEFAULT_SECONDS_PER_CYCLE,
        }
    }
}

impl PredictiveConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] on a non-positive loop base
    /// or cycle time.
    pub fn validate(&self) -> Result<(), TadfaError> {
        if self.loop_base <= 0.0 || self.loop_base.is_nan() {
            return Err(TadfaError::InvalidConfig {
                param: "loop_base",
                value: self.loop_base,
                reason: "must be positive",
            });
        }
        if self.seconds_per_cycle <= 0.0 || self.seconds_per_cycle.is_nan() {
            return Err(TadfaError::InvalidConfig {
                param: "seconds_per_cycle",
                value: self.seconds_per_cycle,
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// Output of the predictive analysis.
#[derive(Clone, Debug)]
pub struct PredictiveResult {
    /// Predicted steady-state thermal map over the physical floorplan,
    /// solved exactly through [`ThermalModel::modal`].
    pub expected_map: ThermalState,
    /// Guessed placement per virtual register (`None` = expected to live
    /// in memory or smeared by the uniform prior).
    pub placement: Vec<Option<PReg>>,
    /// Variables ranked by predicted heat exposure, hottest first.
    pub ranked: Vec<(VReg, f64)>,
    /// Ambient temperature of the model used.
    pub ambient: f64,
}

impl PredictiveResult {
    /// Per-cell heat scores (temperature rise over ambient) for driving
    /// [`tadfa_regalloc::ColdestFirst`].
    pub fn cell_scores(&self) -> Vec<f64> {
        self.expected_map
            .temps()
            .iter()
            .map(|t| (t - self.ambient).max(0.0))
            .collect()
    }

    /// The variables predicted to be involved in hot spots: those whose
    /// predicted heat exposure is within `fraction` of the hottest
    /// variable's exposure.
    pub fn predicted_critical(&self, fraction: f64) -> Vec<VReg> {
        let Some(&(_, top)) = self.ranked.first() else {
            return Vec::new();
        };
        if top <= 0.0 {
            return Vec::new();
        }
        self.ranked
            .iter()
            .take_while(|&&(_, e)| e >= fraction * top)
            .map(|&(v, _)| v)
            .collect()
    }
}

/// The pre-assignment predictive analysis.
#[derive(Debug)]
pub struct PredictiveDfa<'a> {
    func: &'a Function,
    rf: &'a RegisterFile,
    params: RcParams,
    power_model: PowerModel,
    config: PredictiveConfig,
}

impl<'a> PredictiveDfa<'a> {
    /// Creates the analysis for `func` targeting `rf`.
    pub fn new(
        func: &'a Function,
        rf: &'a RegisterFile,
        params: RcParams,
        power_model: PowerModel,
        config: PredictiveConfig,
    ) -> PredictiveDfa<'a> {
        PredictiveDfa {
            func,
            rf,
            params,
            power_model,
            config,
        }
    }

    /// Runs the prediction.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] on a degenerate
    /// configuration, or [`TadfaError::Alloc`] if the placement
    /// rehearsal cannot allocate (e.g. a register file smaller than 2).
    pub fn run(&self) -> Result<PredictiveResult, TadfaError> {
        self.config.validate()?;
        let func = self.func;
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let loops = LoopInfo::compute(func, &cfg, &dom);
        let du = DefUse::compute(func);

        let nv = func.num_vregs();
        // Loop-weighted read/write counts per vreg.
        let mut reads = vec![0.0f64; nv];
        let mut writes = vec![0.0f64; nv];
        for bb in func.block_ids() {
            let w = loops.frequency_weight(bb, self.config.loop_base);
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                for &u in inst.uses() {
                    reads[u.index()] += w;
                }
                if let Some(d) = inst.def() {
                    writes[d.index()] += w;
                }
            }
            if let Some(t) = func.terminator(bb) {
                for u in t.uses() {
                    reads[u.index()] += w;
                }
            }
        }
        let _ = du;

        // Estimated sustained runtime: loop-weighted cycle count.
        let mut cycles = 0.0f64;
        for bb in func.block_ids() {
            let w = loops.frequency_weight(bb, self.config.loop_base);
            for &id in func.block(bb).insts() {
                cycles += w * func.inst(id).op.latency() as f64;
            }
            if let Some(t) = func.terminator(bb) {
                cycles += w * t.latency() as f64;
            }
        }
        let duration = (cycles * self.config.seconds_per_cycle).max(1e-12);

        // Placement guess.
        let placement: Vec<Option<PReg>> = match self.config.prior {
            PlacementPrior::Uniform => vec![None; nv],
            prior => {
                let mut rehearsal = func.clone();
                let mut policy: Box<dyn AssignmentPolicy> = match prior {
                    PlacementPrior::FirstFree => Box::new(FirstFree),
                    PlacementPrior::Chessboard => Box::new(Chessboard::default()),
                    PlacementPrior::RoundRobin => Box::new(RoundRobin::default()),
                    PlacementPrior::Uniform => unreachable!(),
                };
                let alloc = allocate_linear_scan(
                    &mut rehearsal,
                    self.rf,
                    policy.as_mut(),
                    &RegAllocConfig::default(),
                )?;
                (0..nv)
                    .map(|i| alloc.assignment.preg_of(VReg::new(i as u32)))
                    .collect()
            }
        };

        // Expected power map.
        let fp = self.rf.floorplan();
        let n_cells = fp.num_cells();
        let mut power = vec![0.0f64; n_cells];
        let uniform_share = 1.0 / n_cells as f64;
        for i in 0..nv {
            let energy =
                reads[i] * self.power_model.read_energy + writes[i] * self.power_model.write_energy;
            if energy == 0.0 {
                continue;
            }
            match placement[i] {
                Some(p) => power[self.rf.cell_of(p)] += energy / duration,
                None => {
                    if self.config.prior == PlacementPrior::Uniform {
                        for c in power.iter_mut() {
                            *c += energy / duration * uniform_share;
                        }
                    }
                    // Rehearsal-spilled variables live in memory: no RF
                    // power.
                }
            }
        }

        let model = ThermalModel::try_new(fp.clone(), self.params)?;
        let expected_map = model.modal().steady_state(&power);
        let ambient = model.ambient();

        // Rank variables by predicted heat exposure: access energy ×
        // predicted rise of their cell (uniform prior: mean rise).
        let mean_rise = (expected_map.mean() - ambient).max(0.0);
        let mut ranked: Vec<(VReg, f64)> = (0..nv)
            .filter_map(|i| {
                let energy = reads[i] * self.power_model.read_energy
                    + writes[i] * self.power_model.write_energy;
                if energy == 0.0 {
                    return None;
                }
                let rise = match placement[i] {
                    Some(p) => (expected_map.get(self.rf.cell_of(p)) - ambient).max(0.0),
                    None => mean_rise,
                };
                Some((VReg::new(i as u32), energy * rise))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        Ok(PredictiveResult {
            expected_map,
            placement,
            ranked,
            ambient,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;
    use tadfa_thermal::Floorplan;

    fn loop_heavy_function() -> (Function, VReg, VReg) {
        let mut b = FunctionBuilder::new("lh");
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(500);
        let cold = b.iconst(7);
        let hot = b.add(cold, cold);
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let t = b.mul(hot, hot);
        b.mov_into(hot, t);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(hot));
        (b.finish(), hot, cold)
    }

    fn predict(prior: PlacementPrior) -> (PredictiveResult, VReg, VReg) {
        let (f, hot, cold) = loop_heavy_function();
        let rf = RegisterFile::new(Floorplan::grid(4, 4));
        let cfg = PredictiveConfig {
            prior,
            ..PredictiveConfig::default()
        };
        let r = PredictiveDfa::new(&f, &rf, RcParams::default(), PowerModel::default(), cfg)
            .run()
            .unwrap();
        (r, hot, cold)
    }

    #[test]
    fn loop_variable_ranked_hottest() {
        let (r, hot, cold) = predict(PlacementPrior::FirstFree);
        assert!(!r.ranked.is_empty());
        let pos = |v| r.ranked.iter().position(|&(x, _)| x == v);
        let ph = pos(hot).expect("hot variable has exposure");
        if let Some(pc) = pos(cold) {
            assert!(ph < pc, "loop variable above straight-line variable");
        }
    }

    #[test]
    fn first_free_prior_concentrates_heat() {
        let (ff, ..) = predict(PlacementPrior::FirstFree);
        let (uni, ..) = predict(PlacementPrior::Uniform);
        assert!(
            ff.expected_map.stddev() > uni.expected_map.stddev(),
            "first-free σ {} should exceed uniform σ {}",
            ff.expected_map.stddev(),
            uni.expected_map.stddev()
        );
        // Uniform prior heats every cell equally.
        assert!(uni.expected_map.stddev() < 1e-6);
    }

    #[test]
    fn chessboard_prior_spreads_more_than_first_free() {
        let (ff, ..) = predict(PlacementPrior::FirstFree);
        let (cb, ..) = predict(PlacementPrior::Chessboard);
        assert!(
            cb.expected_map.peak() <= ff.expected_map.peak() + 1e-9,
            "chessboard peak {} vs first-free {}",
            cb.expected_map.peak(),
            ff.expected_map.peak()
        );
    }

    #[test]
    fn predicted_critical_shrinks_with_fraction() {
        let (r, hot, _) = predict(PlacementPrior::FirstFree);
        let strict = r.predicted_critical(0.9);
        let lax = r.predicted_critical(0.01);
        assert!(lax.len() >= strict.len());
        assert!(strict.contains(&hot) || lax.contains(&hot));
    }

    #[test]
    fn cell_scores_are_nonnegative_and_sized() {
        let (r, ..) = predict(PlacementPrior::RoundRobin);
        let scores = r.cell_scores();
        assert_eq!(scores.len(), 16);
        assert!(scores.iter().all(|&s| s >= 0.0));
        assert!(scores.iter().any(|&s| s > 0.0), "something must heat up");
    }

    #[test]
    fn placement_covers_live_vregs_for_rehearsal_priors() {
        let (r, hot, _) = predict(PlacementPrior::FirstFree);
        assert!(r.placement[hot.index()].is_some(), "hot variable placed");
    }
}
