//! Linear-scan register allocation with policy-driven assignment.

use crate::assignment::{AllocStats, AllocationResult, Assignment, RegAllocError};
use crate::policy::{AssignmentPolicy, ChoiceContext};
use crate::spill::rewrite_spills;
use tadfa_dataflow::{LiveIntervals, Liveness};
use tadfa_ir::{Cfg, Function, PReg, VReg, Verifier};
use tadfa_thermal::RegisterFile;

/// Allocator configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RegAllocConfig {
    /// Maximum spill-and-retry rounds before giving up.
    pub max_rounds: usize,
}

impl Default for RegAllocConfig {
    fn default() -> RegAllocConfig {
        RegAllocConfig { max_rounds: 10 }
    }
}

/// Allocates registers for `func` with the classic linear-scan algorithm,
/// letting `policy` pick which free physical register each value gets.
///
/// Values that do not fit are spilled (furthest-end-first heuristic), the
/// function is rewritten with spill code, and allocation restarts — up to
/// [`RegAllocConfig::max_rounds`] times.
///
/// On success every live virtual register of the (possibly rewritten)
/// function has a physical register.
///
/// # Errors
///
/// * [`RegAllocError::TooFewRegisters`] for register files smaller than 2;
/// * [`RegAllocError::InvalidFunction`] if `func` fails verification;
/// * [`RegAllocError::DidNotTerminate`] if spilling keeps the pressure
///   above the file size for every round.
///
/// # Examples
///
/// ```
/// use tadfa_ir::FunctionBuilder;
/// use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
/// use tadfa_thermal::{Floorplan, RegisterFile};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// b.ret(Some(y));
/// let mut f = b.finish();
///
/// let rf = RegisterFile::new(Floorplan::grid(4, 4));
/// let result = allocate_linear_scan(
///     &mut f, &rf, &mut FirstFree, &RegAllocConfig::default())?;
/// assert!(result.assignment.preg_of(x).is_some());
/// # Ok::<(), tadfa_regalloc::RegAllocError>(())
/// ```
pub fn allocate_linear_scan(
    func: &mut Function,
    rf: &RegisterFile,
    policy: &mut dyn AssignmentPolicy,
    config: &RegAllocConfig,
) -> Result<AllocationResult, RegAllocError> {
    let k = rf.num_regs();
    if k < 2 {
        return Err(RegAllocError::TooFewRegisters { available: k });
    }
    if let Err(e) = Verifier::new(func).run() {
        return Err(RegAllocError::InvalidFunction(e.to_string()));
    }

    let mut stats = AllocStats::default();
    for round in 1..=config.max_rounds {
        stats.rounds = round;
        policy.reset();

        let cfg = Cfg::compute(func);
        let live = Liveness::compute(func, &cfg);
        let li = LiveIntervals::compute(func, &cfg, &live);
        let intervals = li.sorted_by_start();

        let mut assignment = Assignment::new(func.num_vregs(), k);
        let mut free: Vec<PReg> = (0..k).map(|i| PReg::new(i as u16)).collect();
        // (end, vreg, preg), kept sorted by end ascending.
        let mut active: Vec<(u32, VReg, PReg)> = Vec::new();
        let mut spilled: Vec<VReg> = Vec::new();

        for iv in &intervals {
            // Expire intervals that ended.
            while let Some(&(end, _, r)) = active.first() {
                if end <= iv.start {
                    active.remove(0);
                    let pos = free.binary_search(&r).unwrap_err();
                    free.insert(pos, r);
                    policy.on_release(r);
                } else {
                    break;
                }
            }

            if free.is_empty() {
                // Spill the interval with the furthest end (current
                // included).
                let (last_end, last_v, last_r) =
                    *active.last().expect("k >= 2 implies active non-empty");
                if last_end > iv.end {
                    // Steal the register from the furthest active value.
                    spilled.push(last_v);
                    active.pop();
                    assignment.assign(iv.vreg, last_r);
                    let pos = active
                        .binary_search_by_key(&(iv.end, iv.vreg), |&(e, v, _)| (e, v))
                        .unwrap_or_else(|p| p);
                    active.insert(pos, (iv.end, iv.vreg, last_r));
                } else {
                    spilled.push(iv.vreg);
                }
                continue;
            }

            let active_pregs: Vec<PReg> = active.iter().map(|&(_, _, r)| r).collect();
            let ctx = ChoiceContext {
                rf,
                vreg: iv.vreg,
                active: &active_pregs,
                point: iv.start,
            };
            let r = policy.choose(&free, &ctx);
            let pos = free
                .iter()
                .position(|&x| x == r)
                .expect("policy must choose from the free list");
            free.remove(pos);
            assignment.assign(iv.vreg, r);
            let pos = active
                .binary_search_by_key(&(iv.end, iv.vreg), |&(e, v, _)| (e, v))
                .unwrap_or_else(|p| p);
            active.insert(pos, (iv.end, iv.vreg, r));
        }

        if spilled.is_empty() {
            return Ok(AllocationResult { assignment, stats });
        }
        spilled.sort();
        spilled.dedup();
        stats.spilled += spilled.len();
        stats.spill_code_insts += rewrite_spills(func, &spilled);
    }

    Err(RegAllocError::DidNotTerminate {
        rounds: config.max_rounds,
    })
}

/// Checks that an assignment is interference-free: no two simultaneously
/// live virtual registers share a physical register. Returns the list of
/// violating pairs (empty = valid).
///
/// This is the allocator's own acceptance test, also used by the property
/// tests.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, PReg};
/// use tadfa_regalloc::{validate_assignment, Assignment};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// let z = b.add(y, x); // x live across y's definition
/// b.ret(Some(z));
/// let f = b.finish();
///
/// // x and y interfere, so they may not share a register...
/// let mut a = Assignment::new(f.num_vregs(), 4);
/// a.assign(x, PReg::new(0));
/// a.assign(y, PReg::new(0));
/// assert_eq!(validate_assignment(&f, &a), vec![(x, y)]);
///
/// // ...but y dies defining z, so those two may.
/// a.assign(x, PReg::new(1));
/// a.assign(z, PReg::new(0));
/// assert!(validate_assignment(&f, &a).is_empty());
/// ```
pub fn validate_assignment(func: &Function, assignment: &Assignment) -> Vec<(VReg, VReg)> {
    let cfg = Cfg::compute(func);
    let live = Liveness::compute(func, &cfg);
    let ig = crate::interference::InterferenceGraph::build(func, &live);
    let mut bad = Vec::new();
    for i in 0..func.num_vregs() {
        let a = VReg::new(i as u32);
        let Some(ra) = assignment.preg_of(a) else {
            continue;
        };
        for b in ig.neighbors(a) {
            if b.index() > i {
                if let Some(rb) = assignment.preg_of(b) {
                    if ra == rb {
                        bad.push((a, b));
                    }
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Chessboard, FirstFree, RandomPolicy, RoundRobin};
    use tadfa_ir::FunctionBuilder;
    use tadfa_thermal::Floorplan;

    fn rf(n_cells: usize) -> RegisterFile {
        let side = (n_cells as f64).sqrt() as usize;
        RegisterFile::new(Floorplan::grid(side, n_cells / side))
    }

    fn chain_function(len: usize) -> Function {
        // x0 = p; x_{i+1} = x_i + x_i — sequential, low pressure.
        let mut b = FunctionBuilder::new("chain");
        let mut v = b.param();
        for _ in 0..len {
            v = b.add(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    fn wide_function(width: usize) -> Function {
        // Compute `width` values from the param, then sum them all:
        // pressure ≈ width.
        let mut b = FunctionBuilder::new("wide");
        let p = b.param();
        let vals: Vec<_> = (0..width).map(|_| b.add(p, p)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add(acc, v);
        }
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn low_pressure_allocates_without_spills() {
        let mut f = chain_function(10);
        let rf = rf(16);
        let r =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        assert_eq!(r.stats.spilled, 0);
        assert_eq!(r.stats.rounds, 1);
        assert!(validate_assignment(&f, &r.assignment).is_empty());
    }

    #[test]
    fn first_free_concentrates_low_registers() {
        let mut f = chain_function(20);
        let rf = rf(16);
        let r =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        // Sequential chain: at most 2-3 registers ever needed, and
        // first-free keeps reusing the lowest ones.
        assert!(r.assignment.distinct_pregs_used() <= 3);
        let occ = r.assignment.occupancy();
        assert!(occ[0] > 0, "r0 heavily reused");
    }

    #[test]
    fn round_robin_spreads_across_the_file() {
        let mut f = chain_function(20);
        let rf = rf(16);
        let r = allocate_linear_scan(
            &mut f,
            &rf,
            &mut RoundRobin::default(),
            &RegAllocConfig::default(),
        )
        .unwrap();
        assert!(
            r.assignment.distinct_pregs_used() >= 10,
            "round robin touches many registers: {}",
            r.assignment.distinct_pregs_used()
        );
    }

    #[test]
    fn high_pressure_spills_and_still_validates() {
        let mut f = wide_function(24);
        let rf = rf(16);
        let r =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        assert!(
            r.stats.spilled > 0,
            "24 simultaneous values in 16 regs must spill"
        );
        assert!(r.stats.rounds > 1);
        assert!(r.stats.spill_code_insts > 0);
        assert!(validate_assignment(&f, &r.assignment).is_empty());
        assert!(tadfa_ir::Verifier::new(&f).run().is_ok());
    }

    #[test]
    fn all_policies_produce_valid_assignments() {
        let rf = rf(16);
        let policies: Vec<Box<dyn AssignmentPolicy>> = vec![
            Box::new(FirstFree),
            Box::new(RandomPolicy::new(7)),
            Box::new(Chessboard::default()),
            Box::new(RoundRobin::default()),
            Box::new(crate::policy::FarthestSpread),
            Box::new(crate::policy::ColdestFirst::uniform(16, 1.0)),
        ];
        for mut p in policies {
            let mut f = wide_function(12);
            let r =
                allocate_linear_scan(&mut f, &rf, p.as_mut(), &RegAllocConfig::default()).unwrap();
            assert!(
                validate_assignment(&f, &r.assignment).is_empty(),
                "policy {} produced conflicts",
                p.name()
            );
        }
    }

    #[test]
    fn chessboard_only_uses_black_cells_at_low_pressure() {
        let mut f = chain_function(12);
        let rf = rf(16);
        let r = allocate_linear_scan(
            &mut f,
            &rf,
            &mut Chessboard::default(),
            &RegAllocConfig::default(),
        )
        .unwrap();
        for (_, preg) in r.assignment.iter() {
            assert!(
                rf.floorplan().is_black(rf.cell_of(preg)),
                "{preg} is on a white cell at low pressure"
            );
        }
    }

    #[test]
    fn tiny_register_file_rejected() {
        let fp = Floorplan::grid(1, 1);
        let rf = RegisterFile::new(fp);
        let mut f = chain_function(2);
        let e = allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
            .unwrap_err();
        assert!(matches!(e, RegAllocError::TooFewRegisters { available: 1 }));
    }

    #[test]
    fn invalid_function_rejected() {
        let b = FunctionBuilder::new("open"); // unterminated block
        let mut f = b.finish();
        let rf = rf(16);
        let e = allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
            .unwrap_err();
        assert!(matches!(e, RegAllocError::InvalidFunction(_)));
    }

    #[test]
    fn loop_function_allocates() {
        let mut b = FunctionBuilder::new("l");
        let n = b.param();
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.iconst(0);
        let acc = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let acc2 = b.add(acc, i);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(acc, acc2);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut f = b.finish();
        let rf = rf(16);
        let r =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        assert!(validate_assignment(&f, &r.assignment).is_empty());
        // Loop-carried registers must be assigned.
        assert!(r.assignment.preg_of(i).is_some());
        assert!(r.assignment.preg_of(acc).is_some());
        assert!(r.assignment.preg_of(n).is_some());
    }
}
