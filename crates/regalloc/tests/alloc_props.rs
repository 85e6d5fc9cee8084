//! Property tests for the allocator: on randomly shaped functions,
//! every policy must produce interference-free assignments, the
//! liveness it reads must match a per-instruction oracle, and spill
//! rewriting must preserve structure.
//!
//! (Seeded-loop style: the offline build has no proptest, so cases are
//! drawn from the workspace's deterministic `rand` stub.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tadfa_dataflow::{DenseBitSet, Liveness};
use tadfa_ir::{Cfg, Function, FunctionBuilder, VReg, Verifier};
use tadfa_regalloc::{
    allocate_linear_scan, policy_by_name, validate_assignment, RegAllocConfig, POLICY_NAMES,
};
use tadfa_thermal::{Floorplan, RegisterFile};

/// A random function: `width` values computed from two params, folded
/// with optional loop and diamond segments.
fn build(width: usize, with_loop: bool, with_diamond: bool, ops: &[usize]) -> Function {
    let mut b = FunctionBuilder::new("prop");
    let x = b.param();
    let y = b.param();
    let mut vals = vec![x, y];
    for (i, &op) in ops.iter().enumerate().take(width) {
        let a = vals[i % vals.len()];
        let c = vals[(i * 3 + 1) % vals.len()];
        let v = match op % 5 {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.and(a, c),
            _ => b.xor(a, c),
        };
        vals.push(v);
    }
    let acc = vals[vals.len() - 1];

    if with_diamond {
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.cmplt(acc, x);
        b.branch(c, t, e);
        b.switch_to(t);
        let v1 = b.add(acc, x);
        b.mov_into(acc, v1);
        b.jump(j);
        b.switch_to(e);
        let v2 = b.sub(acc, y);
        b.mov_into(acc, v2);
        b.jump(j);
        b.switch_to(j);
    }

    if with_loop {
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(5);
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let done = b.cmpge(i, n);
        b.branch(done, exit, body);
        b.switch_to(body);
        let a2 = b.add(acc, i);
        b.mov_into(acc, a2);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
    }

    b.ret(Some(acc));
    b.finish()
}

fn arb_shape(rng: &mut StdRng) -> (usize, bool, bool, Vec<usize>) {
    (
        rng.gen_range(1usize..14),
        rng.gen_bool(0.5),
        rng.gen_bool(0.5),
        (0..14).map(|_| rng.gen_range(0usize..5)).collect(),
    )
}

/// Linear scan: every policy, every shape → verifier-clean function
/// and interference-free assignment.
#[test]
fn linear_scan_always_valid() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for case in 0..32 {
        let (w, l, d, ops) = arb_shape(&mut rng);
        let func = build(w, l, d, &ops);
        assert!(Verifier::new(&func).run().is_ok(), "case {case}");

        let rf = RegisterFile::new(Floorplan::grid(4, 4));
        let name = POLICY_NAMES[rng.gen_range(0usize..POLICY_NAMES.len())];
        let mut policy = policy_by_name(name, &rf, 3).expect("known policy");
        let mut f = func.clone();
        let alloc = allocate_linear_scan(&mut f, &rf, policy.as_mut(), &RegAllocConfig::default())
            .unwrap_or_else(|e| panic!("case {case} / {name}: {e}"));
        assert!(Verifier::new(&f).run().is_ok(), "case {case} / {name}");
        assert!(
            validate_assignment(&f, &alloc.assignment).is_empty(),
            "case {case} / {name}"
        );

        // Every referenced register got a physical home.
        for (_bb, id) in f.inst_ids_in_layout_order() {
            let inst = f.inst(id);
            for &u in inst.uses() {
                assert!(
                    alloc.assignment.preg_of(u).is_some(),
                    "case {case} / {name}: {u} unassigned"
                );
            }
            if let Some(dd) = inst.def() {
                assert!(
                    alloc.assignment.preg_of(dd).is_some(),
                    "case {case} / {name}"
                );
            }
        }
    }
}

/// The readable liveness oracle: one live set before each program
/// point of a block (its instructions, then its terminator), iterated
/// backward to a fixpoint over the reachable blocks. Returns each
/// block's `(live_in, live_after)`, where `live_after[i]` is the set
/// live right after instruction `i`. Unreachable blocks stay empty.
fn oracle_liveness(f: &Function, cfg: &Cfg) -> Vec<(BTreeSet<usize>, Vec<BTreeSet<usize>>)> {
    let mut before: Vec<Vec<BTreeSet<usize>>> = f
        .block_ids()
        .map(|bb| vec![BTreeSet::new(); f.block(bb).insts().len() + 1])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for bb in f.block_ids().filter(|&bb| cfg.is_reachable(bb)) {
            let insts = f.block(bb).insts();
            let mut live: BTreeSet<usize> = cfg
                .succs(bb)
                .iter()
                .flat_map(|s| before[s.index()][0].iter().copied())
                .collect();
            let term = f
                .terminator(bb)
                .expect("verified blocks end in a terminator");
            live.extend(term.uses().iter().map(|u| u.index()));
            for point in (0..=insts.len()).rev() {
                if point < insts.len() {
                    let inst = f.inst(insts[point]);
                    if let Some(d) = inst.def() {
                        live.remove(&d.index());
                    }
                    live.extend(inst.uses().iter().map(|u| u.index()));
                }
                if before[bb.index()][point] != live {
                    before[bb.index()][point] = live.clone();
                    changed = true;
                }
            }
        }
    }
    before
        .into_iter()
        .map(|mut points| {
            let live_in = points.remove(0);
            (live_in, points)
        })
        .collect()
}

/// Asserts that `Liveness::compute` matches the oracle bit for bit:
/// every block's live-in and live-out, and the set after each
/// instruction of a reachable block.
fn assert_liveness_matches_oracle(f: &Function, what: &str) {
    let bits = |set: &BTreeSet<usize>| {
        let mut s = DenseBitSet::new(f.num_vregs());
        s.extend(set.iter().copied());
        s
    };
    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);
    let oracle = oracle_liveness(f, &cfg);
    for bb in f.block_ids() {
        let (live_in, live_after) = &oracle[bb.index()];
        let mut live_out = BTreeSet::new();
        if cfg.is_reachable(bb) {
            for s in cfg.succs(bb) {
                live_out.extend(&oracle[s.index()].0);
            }
            let per_inst = live.per_inst_live_out(f, bb);
            assert_eq!(per_inst.len(), live_after.len(), "{what}: {bb}");
            for ((_, got), want) in per_inst.iter().zip(live_after) {
                assert_eq!(got, &bits(want), "{what}: after an instruction of {bb}");
            }
        }
        assert_eq!(live.live_in(bb), &bits(live_in), "{what}: live-in of {bb}");
        let want_out = bits(&live_out);
        assert_eq!(live.live_out(bb), &want_out, "{what}: live-out of {bb}");
    }
}

/// `Liveness::compute` against the oracle: the seeded shapes, the same
/// shapes after spill rewriting, and hand-built edge cases.
#[test]
fn liveness_matches_the_per_instruction_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC4);
    for case in 0..32 {
        let (w, l, d, ops) = arb_shape(&mut rng);
        let mut func = build(w, l, d, &ops);
        assert_liveness_matches_oracle(&func, &format!("case {case}"));
        let spilled: Vec<VReg> = (0..func.num_vregs())
            .step_by(3)
            .map(|v| VReg::new(v as u32))
            .collect();
        tadfa_regalloc::rewrite_spills(&mut func, &spilled);
        assert_liveness_matches_oracle(&func, &format!("case {case}, spilled"));
    }

    // A block no edge reaches: its uses must not leak into the live
    // sets, and its own sets stay empty.
    let mut b = FunctionBuilder::new("unreachable");
    let x = b.param();
    let y = b.add(x, x);
    let dead = b.new_block();
    let exit = b.new_block();
    b.jump(exit);
    b.switch_to(dead);
    let z = b.add(x, y);
    b.mov_into(y, z);
    b.jump(exit);
    b.switch_to(exit);
    b.ret(Some(y));
    assert_liveness_matches_oracle(&b.finish(), "unreachable block");

    // A loop with two entries (`entry` branches into both `a` and
    // `b`), plus a self-loop behind it.
    let mut b = FunctionBuilder::new("two_entries");
    let n = b.param();
    let c = b.param();
    let i = b.iconst(0);
    let acc = b.iconst(0);
    let la = b.new_block();
    let lb = b.new_block();
    let spin = b.new_block();
    let exit = b.new_block();
    b.branch(c, la, lb);
    b.switch_to(la);
    let acc2 = b.add(acc, i);
    b.mov_into(acc, acc2);
    b.jump(lb);
    b.switch_to(lb);
    let one = b.iconst(1);
    let i2 = b.add(i, one);
    b.mov_into(i, i2);
    let done = b.cmpge(i, n);
    b.branch(done, spin, la);
    b.switch_to(spin);
    let acc3 = b.sub(acc, one);
    b.mov_into(acc, acc3);
    let stop = b.cmplt(acc, n);
    b.branch(stop, exit, spin);
    b.switch_to(exit);
    b.ret(Some(acc));
    assert_liveness_matches_oracle(&b.finish(), "two-entry loop");
}

/// Spill rewriting on arbitrary live registers keeps the function
/// verifier-clean.
#[test]
fn spill_rewrite_keeps_functions_valid() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for case in 0..32 {
        let (w, l, d, ops) = arb_shape(&mut rng);
        let mut func = build(w, l, d, &ops);
        let which = rng.gen_range(0usize..4);
        let v = VReg::new((which % func.num_vregs().max(1)) as u32);
        tadfa_regalloc::rewrite_spills(&mut func, &[v]);
        assert!(Verifier::new(&func).run().is_ok(), "case {case}: {func}");
    }
}
