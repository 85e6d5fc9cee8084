//! Robustness of the spill codec against hostile bytes: every input to
//! `SpillEntry::from_bytes` (and through it `ThermalDfaResult::decode`
//! and `ThermalSummary::decode`) must return a typed `CodecError`, or
//! decode to a value whose re-encoding is byte-identical to the input
//! and which can be used — a result's peak read, a summary replayed at
//! a call site — and must never panic.
//!
//! (Seeded-loop style: the offline build has no proptest, so cases are
//! drawn from the workspace's deterministic `rand` stub.)

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use tadfa_core::codec::CODEC_VERSION;
use tadfa_core::{
    AnalysisGrid, SpillEntry, SpillValue, ThermalDfa, ThermalDfaConfig, ThermalSummary,
};
use tadfa_ir::{Function, FunctionBuilder};
use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
use tadfa_workloads::{fibonacci, generate_module, ModuleGeneratorConfig};

/// Full entries of every shape the codec writes: a converged result, a
/// capped one (with its residual), and summaries, one of which splices
/// a callee's trace.
fn entries() -> Vec<Vec<u8>> {
    let rf = RegisterFile::new(Floorplan::grid(4, 4));
    let grid = AnalysisGrid::full(&rf, RcParams::default());
    let analyse = |f: &Function, cfg, summaries: &HashMap<String, Arc<ThermalSummary>>| {
        let mut f = f.clone();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let dfa = ThermalDfa::with_summaries(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            cfg,
            summaries,
        )
        .unwrap();
        (dfa.signature(), dfa.run(), dfa.summarize())
    };
    let mut out = Vec::new();
    for (cfg, converges) in [
        (ThermalDfaConfig::default(), true),
        (ThermalDfaConfig::default().with_max_iterations(3), false),
    ] {
        let (key, result, _) = analyse(&fibonacci().func, cfg, &HashMap::new());
        assert_eq!(result.convergence.is_converged(), converges);
        out.push(SpillEntry {
            key,
            value: SpillValue::Result(Arc::new(result)),
        });
    }
    let module = generate_module(&ModuleGeneratorConfig {
        depth: 0,
        leaves: 1,
        exprs_per_function: 1,
        ..ModuleGeneratorConfig::default()
    });
    let mut summaries = HashMap::new();
    for f in module.functions() {
        let (key, _, summary) = analyse(f, ThermalDfaConfig::default(), &summaries);
        let summary = Arc::new(summary);
        summaries.insert(f.name().to_string(), Arc::clone(&summary));
        out.push(SpillEntry {
            key,
            value: SpillValue::Summary(summary),
        });
    }
    out.iter().map(SpillEntry::to_bytes).collect()
}

/// Sub-steps above which [`check`] does not replay a summary. A bit
/// flip in a step's sub-step count decodes to a well-formed trace of up
/// to 2³² sub-steps: replaying it takes longer, but walks the same
/// kernel path as a short count, so it cannot panic where a short one
/// does not.
const REPLAY_SUBSTEPS: u64 = 1 << 12;

/// Replays `summary` at the one call site of a caller on the 4×4 grid
/// the entries were analysed on.
fn replay(summary: &Arc<ThermalSummary>) {
    let rf = RegisterFile::new(Floorplan::grid(4, 4));
    let grid = AnalysisGrid::full(&rf, RcParams::default());
    let mut b = FunctionBuilder::new("caller");
    let x = b.param();
    let y = b.call("callee", &[x]);
    b.ret(Some(y));
    let mut f = b.finish();
    let alloc =
        allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
    let summaries = HashMap::from([("callee".to_string(), Arc::clone(summary))]);
    let dfa = ThermalDfa::with_summaries(
        &f,
        &alloc.assignment,
        &grid,
        PowerModel::default(),
        ThermalDfaConfig::default(),
        &summaries,
    )
    .expect("a 16-point summary fits the 4x4 grid");
    dfa.run();
}

/// The codec's contract on one input: a typed error, or a value that
/// re-encodes to exactly the input and can be used.
fn check(bytes: &[u8]) {
    if let Ok(entry) = SpillEntry::from_bytes(bytes) {
        assert_eq!(
            entry.to_bytes(),
            bytes,
            "a decoded entry re-encodes to its input"
        );
        match &entry.value {
            SpillValue::Result(result) => {
                result.peak_temperature();
            }
            SpillValue::Summary(summary) => {
                if summary.num_points() == 16 && summary.num_substeps() <= REPLAY_SUBSTEPS {
                    replay(summary);
                }
            }
        }
    }
}

#[test]
fn full_entries_round_trip() {
    for bytes in entries() {
        let entry = SpillEntry::from_bytes(&bytes).expect("a full entry decodes");
        if let SpillValue::Summary(summary) = &entry.value {
            assert!(
                summary.num_points() == 16 && summary.num_substeps() <= REPLAY_SUBSTEPS,
                "check replays every full summary"
            );
        }
        check(&bytes);
    }
}

#[test]
fn every_truncation_is_an_error() {
    for bytes in entries() {
        for cut in 0..bytes.len() {
            assert!(
                SpillEntry::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte entry decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_bit_flip_errs_or_round_trips() {
    for bytes in entries() {
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                check(&flipped);
                flipped[i] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn seeded_junk_errs_or_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..2_000 {
        let len = rng.gen_range(0usize..256);
        let mut junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the cases carry a valid kind and version byte, so the
        // junk reaches the payload decoders.
        if junk.len() > 17 && rng.gen_bool(0.5) {
            junk[0] = rng.gen_range(0u8..2);
            junk[17] = CODEC_VERSION;
        }
        check(&junk);
    }
}
