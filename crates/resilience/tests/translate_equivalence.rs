//! Superblock-translated dispatch must be observationally identical to the
//! per-instruction interpreter.
//!
//! The fast path elides work the quiet guard proves is a no-op — it must
//! never change a cycle count, a stat, a stall attribution, or a byte of
//! final memory. These tests pin that across the whole kernel catalog and
//! the scheme ladder, under random fault plans (where translation engages
//! only once every strike has resolved), and with snapshot capture enabled
//! at intervals that straddle superblock edges (which suppresses the fast
//! path entirely and must still agree with the untranslated run,
//! snapshots included).

use proptest::prelude::*;
use std::sync::Arc;
use turnpike_compiler::compile;
use turnpike_resilience::{RunSpec, Scheme};
use turnpike_sim::{Core, Fault, FaultKind, FaultPlan, RunOpts, SimOutcome, Translation};
use turnpike_workloads::{all_kernels, Scale};

/// Fault-free outcome of one compiled kernel, interpreter or superblocks.
fn golden(
    spec: &RunSpec,
    compiled: &turnpike_compiler::CompileOutput,
    translate: bool,
) -> SimOutcome {
    let mut cfg = spec.sim_config();
    cfg.translate = translate;
    let mut core = Core::new(&compiled.program, cfg);
    if translate {
        // Shared pre-decoded translation, as campaigns attach it.
        core.attach_translation(Arc::new(Translation::new(&compiled.program)));
    }
    core.run(RunOpts::default()).unwrap()
}

#[test]
fn translated_golden_path_matches_interpreter_over_catalog() {
    for k in all_kernels(Scale::Smoke) {
        for scheme in std::iter::once(Scheme::Baseline).chain(Scheme::LADDER.iter().copied()) {
            let spec = RunSpec::new(scheme);
            let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
            let interp = golden(&spec, &compiled, false);
            let fast = golden(&spec, &compiled, true);
            assert_eq!(
                interp, fast,
                "{}/{:?} {scheme}: translated golden run diverges",
                k.name, k.suite
            );
            assert!(interp.stats.insts > 0, "{} ran nothing", k.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strike runs: translation may only engage after the last fault has
    /// fired and resolved, and the handoff back and forth must not disturb
    /// the outcome — stats, stall cycles, recovery counts, final memory.
    #[test]
    fn translated_strike_runs_match_interpreter(
        kernel_idx in 0usize..36,
        scheme_idx in 0usize..8,
        strikes in prop::collection::vec(
            (1u64..30_000, 0u64..8, any::<bool>(), 0u8..24, 0u8..64),
            1..3,
        ),
    ) {
        let k = &all_kernels(Scale::Smoke)[kernel_idx];
        let scheme = Scheme::LADDER[scheme_idx % Scheme::LADDER.len()];
        let spec = RunSpec::new(scheme);
        let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
        let wcdl = spec.sim_config().wcdl;
        let plan = FaultPlan::new(
            strikes
                .iter()
                .map(|&(cycle, lat, parity, reg, bit)| Fault {
                    strike_cycle: cycle,
                    detect_latency: lat.min(wcdl),
                    kind: if parity {
                        FaultKind::RegisterParity { reg, bit }
                    } else {
                        FaultKind::Datapath { bit }
                    },
                })
                .collect(),
        );
        let run = |translate: bool| {
            let mut cfg = spec.sim_config();
            cfg.translate = translate;
            let mut core = Core::new(&compiled.program, cfg);
            if translate {
                core.attach_translation(Arc::new(Translation::new(&compiled.program)));
            }
            core.run(RunOpts { faults: &plan, ..RunOpts::default() }).unwrap()
        };
        prop_assert_eq!(run(false), run(true), "{} {}: strike run diverges", k.name, scheme);
    }

    /// Snapshot capture keeps the core non-quiet, so a translated config
    /// with an interval — including ones far shorter than a superblock, so
    /// capture points land mid-block — must take the interpreter path and
    /// reproduce the untranslated run exactly: same outcome, same snapshot
    /// cadence, same captured state.
    #[test]
    fn snapshot_intervals_straddling_blocks_are_unaffected(
        kernel_idx in 0usize..36,
        turnpike in any::<bool>(),
        interval in 1u64..400,
    ) {
        let k = &all_kernels(Scale::Smoke)[kernel_idx];
        let scheme = if turnpike { Scheme::Turnpike } else { Scheme::Baseline };
        let spec = RunSpec::new(scheme);
        let compiled = compile(&k.program, &spec.compiler_config()).unwrap();
        let run = |translate: bool| {
            let mut cfg = spec.sim_config();
            cfg.translate = translate;
            let mut core = Core::new(&compiled.program, cfg);
            if translate {
                core.attach_translation(Arc::new(Translation::new(&compiled.program)));
            }
            let mut snaps = Vec::new();
            let opts = RunOpts { snapshots: Some((interval, &mut snaps)), ..RunOpts::default() };
            let out = core.run(opts).unwrap();
            (out, snaps)
        };
        let (out_i, snaps_i) = run(false);
        let (out_t, snaps_t) = run(true);
        prop_assert_eq!(&out_i, &out_t, "{}: snapshot run outcome diverges", k.name);
        prop_assert_eq!(snaps_i.len(), snaps_t.len(), "{}: snapshot cadence diverges", k.name);
        for (a, b) in snaps_i.iter().zip(&snaps_t) {
            prop_assert_eq!(a.cycle(), b.cycle(), "{}: capture cycles diverge", k.name);
        }
        // Resuming from corresponding snapshots must agree too — the
        // captured states are behaviorally identical. First and last
        // bound the work; intermediate captures add nothing structural.
        for (a, b) in snaps_i.iter().zip(&snaps_t).take(1).chain(
            snaps_i.iter().zip(&snaps_t).last(),
        ) {
            let ra = Core::from_snapshot(&compiled.program, a).run(RunOpts::default()).unwrap();
            let rb = Core::from_snapshot(&compiled.program, b).run(RunOpts::default()).unwrap();
            prop_assert_eq!(ra, rb, "{}: resumed outcomes diverge", k.name);
        }
    }
}
