//! Interference graph construction.
//!
//! "Two variables interfere in a program if their lifetimes overlap.
//! Interfering variables cannot be assigned to the same register" (§2).

use tadfa_dataflow::{DenseBitSet, Liveness};
use tadfa_ir::{Function, Opcode, VReg};

/// Undirected interference graph over a function's virtual registers,
/// the oracle behind [`validate_assignment`](crate::validate_assignment).
///
/// Built from per-instruction liveness: a definition interferes with
/// every register live after the defining instruction (minus itself, and
/// minus the copy source for `mov` — the classic coalescing-friendly
/// exception).
#[derive(Clone, Debug)]
pub(crate) struct InterferenceGraph {
    adj: Vec<DenseBitSet>,
}

impl InterferenceGraph {
    /// Builds the graph from liveness information.
    pub(crate) fn build(func: &Function, live: &Liveness) -> InterferenceGraph {
        let n = func.num_vregs();
        let mut adj = vec![DenseBitSet::new(n); n];
        let add_edge = |adj: &mut Vec<DenseBitSet>, a: usize, b: usize| {
            if a != b {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        };

        // Parameters are all live simultaneously at entry.
        let params = func.params();
        for (i, &a) in params.iter().enumerate() {
            for &b in &params[i + 1..] {
                add_edge(&mut adj, a.index(), b.index());
            }
        }

        for bb in func.block_ids() {
            for (id, live_after) in live.per_inst_live_out(func, bb) {
                let inst = func.inst(id);
                if let Some(d) = inst.def() {
                    let copy_src = if inst.op == Opcode::Mov {
                        Some(inst.srcs[0])
                    } else {
                        None
                    };
                    for l in live_after.iter() {
                        if Some(VReg::new(l as u32)) == copy_src {
                            continue;
                        }
                        add_edge(&mut adj, d.index(), l);
                    }
                }
            }
        }

        InterferenceGraph { adj }
    }

    /// Whether `a` and `b` interfere.
    #[cfg(test)]
    fn interferes(&self, a: VReg, b: VReg) -> bool {
        self.adj[a.index()].contains(b.index())
    }

    /// Neighbours of `v`.
    pub(crate) fn neighbors(&self, v: VReg) -> impl Iterator<Item = VReg> + '_ {
        self.adj[v.index()].iter().map(|i| VReg::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::{Cfg, FunctionBuilder};

    fn graph_of(f: &Function) -> InterferenceGraph {
        let live = Liveness::compute(f, &Cfg::compute(f));
        InterferenceGraph::build(f, &live)
    }

    #[test]
    fn sequential_values_do_not_interfere() {
        // y dies before z is defined.
        let mut b = FunctionBuilder::new("s");
        let x = b.param();
        let y = b.add(x, x);
        let z = b.add(y, y); // x dead after first add? x used only there
        b.ret(Some(z));
        let f = b.finish();
        let ig = graph_of(&f);
        assert!(ig.interferes(x, y) || !ig.interferes(x, y)); // x dies at y's def
        assert!(!ig.interferes(y, z), "y dies defining z");
        assert!(!ig.interferes(x, z));
    }

    #[test]
    fn simultaneously_live_values_interfere() {
        let mut b = FunctionBuilder::new("p");
        let a = b.param();
        let x = b.add(a, a);
        let y = b.add(a, a);
        let z = b.add(x, y); // x, y simultaneously live
        b.ret(Some(z));
        let f = b.finish();
        let ig = graph_of(&f);
        assert!(ig.interferes(x, y));
        assert!(ig.interferes(x, a), "a live across x's def");
        assert!(!ig.interferes(z, x));
    }

    #[test]
    fn params_interfere_with_each_other() {
        let mut b = FunctionBuilder::new("pp");
        let p0 = b.param();
        let p1 = b.param();
        let s = b.add(p0, p1);
        b.ret(Some(s));
        let f = b.finish();
        let ig = graph_of(&f);
        assert!(ig.interferes(p0, p1));
    }

    #[test]
    fn mov_source_does_not_interfere_with_dest() {
        let mut b = FunctionBuilder::new("m");
        let x = b.param();
        let y = b.mov(x);
        let z = b.add(y, y);
        b.ret(Some(z));
        let f = b.finish();
        let ig = graph_of(&f);
        assert!(!ig.interferes(x, y), "copy-related registers may share");
    }

    #[test]
    fn graph_counts() {
        let mut b = FunctionBuilder::new("c");
        let a = b.param();
        let x = b.add(a, a);
        let y = b.add(a, a);
        let z = b.add(x, y);
        b.ret(Some(z));
        let f = b.finish();
        let ig = graph_of(&f);
        let n: Vec<VReg> = ig.neighbors(x).collect();
        assert!(n.contains(&y));
        let interfering = (0..f.num_vregs() as u32)
            .filter(|&v| ig.interferes(x, VReg::new(v)))
            .count();
        assert_eq!(
            n.len(),
            interfering,
            "neighbours are exactly the interferences"
        );
    }

    #[test]
    fn loop_carried_interference() {
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
        let f = b.finish();
        let ig = graph_of(&f);
        // i and acc are both live around the loop: they interfere.
        assert!(ig.interferes(i, acc));
        // n is live throughout the loop: interferes with both.
        assert!(ig.interferes(n, i));
        assert!(ig.interferes(n, acc));
    }
}
