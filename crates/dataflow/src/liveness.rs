//! Live-variable analysis.
//!
//! Liveness is the paper's own example of a "single bit per variable"
//! analysis (§3) and the foundation of interference-based register
//! allocation: two variables interfere exactly when one is live at the
//! other's definition (§2).

use crate::bitset::DenseBitSet;
use tadfa_ir::{BlockId, Cfg, Function, Inst, InstId, VReg};

/// Steps `live` backward over `bb`'s terminator: the registers it
/// reads become live.
fn add_terminator_uses(func: &Function, bb: BlockId, live: &mut DenseBitSet) {
    if let Some(t) = func.terminator(bb) {
        for u in t.uses() {
            live.insert(u.index());
        }
    }
}

/// Steps `live` backward over one instruction: its definition dies
/// and the registers it reads become live.
fn step_back(inst: &Inst, live: &mut DenseBitSet) {
    if let Some(d) = inst.def() {
        live.remove(d.index());
    }
    for &u in inst.uses() {
        live.insert(u.index());
    }
}

/// Result of live-variable analysis: live-in/live-out per block, with a
/// helper producing per-instruction live-out sets for interference
/// construction.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg};
/// use tadfa_dataflow::Liveness;
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// let z = b.add(y, x);
/// b.ret(Some(z));
/// let f = b.finish();
/// let cfg = Cfg::compute(&f);
/// let live = Liveness::compute(&f, &cfg);
/// // x is live into the entry block, z is not.
/// assert!(live.live_in(f.entry()).contains(x.index()));
/// assert!(!live.live_in(f.entry()).contains(z.index()));
/// ```
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<DenseBitSet>,
    live_out: Vec<DenseBitSet>,
    nvregs: usize,
}

impl Liveness {
    /// Runs the backward fixpoint and captures per-block sets.
    ///
    /// Each pass visits the reachable blocks in post-order, so a block
    /// follows its successors except across back edges, and reuses one
    /// scratch set throughout. A pass that changes no live-in set leaves
    /// every live-out set final too. Unreachable blocks keep empty sets.
    pub fn compute(func: &Function, cfg: &Cfg) -> Liveness {
        let nvregs = func.num_vregs();
        let mut live = DenseBitSet::new(nvregs);
        let mut live_in = vec![live.clone(); func.num_blocks()];
        let mut live_out = live_in.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo().iter().rev() {
                let out = &mut live_out[bb.index()];
                out.clear();
                for s in cfg.succs(bb) {
                    out.union_with(&live_in[s.index()]);
                }
                live.clear();
                live.union_with(out);
                add_terminator_uses(func, bb, &mut live);
                for &id in func.block(bb).insts().iter().rev() {
                    step_back(func.inst(id), &mut live);
                }
                if live != live_in[bb.index()] {
                    std::mem::swap(&mut live, &mut live_in[bb.index()]);
                    changed = true;
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            nvregs,
        }
    }

    /// Registers live on entry to `bb`.
    pub fn live_in(&self, bb: BlockId) -> &DenseBitSet {
        &self.live_in[bb.index()]
    }

    /// Registers live on exit from `bb`.
    pub fn live_out(&self, bb: BlockId) -> &DenseBitSet {
        &self.live_out[bb.index()]
    }

    /// Number of virtual registers the sets are over.
    pub fn num_vregs(&self) -> usize {
        self.nvregs
    }

    /// Whether `v` is live anywhere (in or out of any block, or used at
    /// all inside one).
    pub fn is_ever_live(&self, v: VReg) -> bool {
        self.live_in
            .iter()
            .chain(&self.live_out)
            .any(|s| s.contains(v.index()))
    }

    /// Live-out set after each instruction of `bb`, in block order.
    ///
    /// `result[i]` is the set of registers live immediately **after**
    /// `bb.insts()[i]` executes. Used to build interference graphs: a
    /// definition interferes with everything live after its instruction.
    pub fn per_inst_live_out(&self, func: &Function, bb: BlockId) -> Vec<(InstId, DenseBitSet)> {
        let insts = func.block(bb).insts();
        let mut out: Vec<(InstId, DenseBitSet)> = Vec::with_capacity(insts.len());
        let mut live = self.live_out[bb.index()].clone();
        add_terminator_uses(func, bb, &mut live);
        for &id in insts.iter().rev() {
            out.push((id, live.clone()));
            step_back(func.inst(id), &mut live);
        }
        out.reverse();
        out
    }

    /// Maximum number of simultaneously live registers over all program
    /// points — the function's register pressure. This is the quantity
    /// the paper's §2 caveat is about: chessboard assignment only works
    /// while pressure ≤ half the register file.
    pub fn max_pressure(&self, func: &Function) -> usize {
        let mut max = 0;
        for bb in func.block_ids() {
            max = max.max(self.live_in[bb.index()].count());
            let mut live = self.live_out[bb.index()].clone();
            add_terminator_uses(func, bb, &mut live);
            max = max.max(live.count());
            for &id in func.block(bb).insts().iter().rev() {
                step_back(func.inst(id), &mut live);
                max = max.max(live.count());
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;

    #[test]
    fn straightline_liveness() {
        let mut b = FunctionBuilder::new("s");
        let x = b.param();
        let y = b.add(x, x); // x dies here unless used later
        let z = b.add(y, y);
        b.ret(Some(z));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let entry = f.entry();
        assert!(live.live_in(entry).contains(x.index()));
        assert!(!live.live_in(entry).contains(y.index()));
        assert!(live.live_out(entry).is_empty()); // entry is the exit too
        assert!(live.is_ever_live(x));
        assert!(!live.is_ever_live(z) || !live.live_in(entry).contains(z.index()));
    }

    #[test]
    fn loop_carried_variable_is_live_around_the_loop() {
        let mut b = FunctionBuilder::new("l");
        let n = b.param();
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        // i is live around the back edge and out of the header.
        assert!(live.live_in(h).contains(i.index()));
        assert!(live.live_out(body).contains(i.index()));
        assert!(live.live_in(exit).contains(i.index()));
        // n is live inside the loop (used by the header compare).
        assert!(live.live_in(body).contains(n.index()));
    }

    #[test]
    fn per_inst_live_out_matches_manual_walk() {
        let mut b = FunctionBuilder::new("p");
        let x = b.param();
        let y = b.add(x, x);
        let z = b.add(y, x);
        b.ret(Some(z));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let per = live.per_inst_live_out(&f, f.entry());
        assert_eq!(per.len(), 2);
        // After `y = add x, x`: x (used by next) and y live.
        assert!(per[0].1.contains(x.index()));
        assert!(per[0].1.contains(y.index()));
        // After `z = add y, x`: only z (used by ret).
        assert!(per[1].1.contains(z.index()));
        assert!(!per[1].1.contains(x.index()));
    }

    #[test]
    fn pressure_counts_simultaneous_values() {
        // Three values all live at once before being consumed.
        let mut b = FunctionBuilder::new("pr");
        let a = b.param();
        let x = b.add(a, a);
        let y = b.add(a, a);
        let z = b.add(a, a);
        let s1 = b.add(x, y);
        let s2 = b.add(s1, z);
        b.ret(Some(s2));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        assert!(live.max_pressure(&f) >= 3, "x, y, z simultaneously live");
    }

    #[test]
    fn dead_code_is_not_live() {
        let mut b = FunctionBuilder::new("dc");
        let x = b.param();
        let dead = b.add(x, x); // never used
        let _ = dead;
        b.ret(Some(x));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        assert!(!live.is_ever_live(dead));
    }
}
