//! Mixed-mode campaigns: fault semantics at protection-mode boundaries.
//!
//! The adaptive rung leaves low-vulnerability regions unprotected: no
//! detection, no store gating, and the compiler sheds the checkpoints that
//! only fed their (never-taken) recoveries. These tests pin the fault-model
//! consequences: strikes inside unprotected regions are silently absorbed
//! (never detected, never recovered), strikes inside protected neighbors
//! keep the full detect-and-recover semantics even when the rollback spans
//! a mode boundary, and the campaign fast paths (snapshot forking,
//! early-exit replay) remain bit-identical under mixed modes.

use turnpike_compiler::{compile, ProtectionPolicy};
use turnpike_isa::ProtectionMode;
use turnpike_resilience::{fault_campaign_forked, CampaignConfig, RunSpec, Scheme, StrikeOutcome};
use turnpike_workloads::{kernel_by_name, Scale, Suite};

fn program(name: &str) -> turnpike_ir::Program {
    kernel_by_name(Suite::Cpu2006, name, Scale::Smoke)
        .expect("kernel is in the catalog")
        .program
}

fn config() -> CampaignConfig {
    CampaignConfig {
        runs: 12,
        seed: 0x0DE5,
        strikes_per_run: 1,
        ..Default::default()
    }
}

/// The adaptive pipeline must actually produce a mixed-mode machine on a
/// kernel with both hot store loops and cold glue regions — and shed
/// checkpoints relative to the uniform Turnpike lowering.
#[test]
fn adaptive_compile_mixes_modes_and_sheds_ckpts() {
    let prog = program("bwaves");
    let uniform = compile(&prog, &RunSpec::new(Scheme::Turnpike).compiler_config()).unwrap();
    let adaptive = compile(&prog, &RunSpec::new(Scheme::Adaptive).compiler_config()).unwrap();

    assert!(uniform.program.region_modes.is_empty());
    let modes = &adaptive.program.region_modes;
    assert!(
        modes.values().any(|&m| m == ProtectionMode::Unprotected),
        "no unprotected region on bwaves: {modes:?}"
    );
    let ckpts = |p: &turnpike_isa::MachProgram| {
        p.insts
            .iter()
            .filter(|i| matches!(i, turnpike_isa::MachInst::Ckpt { .. }))
            .count()
    };
    assert!(
        ckpts(&adaptive.program) < ckpts(&uniform.program),
        "adaptive shed no checkpoints ({} vs {})",
        ckpts(&adaptive.program),
        ckpts(&uniform.program)
    );
}

/// With every region unprotected, nothing detects and nothing recovers —
/// strikes are silently absorbed (or corrupt state; either way the
/// machinery must stay quiet).
#[test]
fn fully_unprotected_regions_never_detect_or_recover() {
    let prog = program("bwaves");
    let spec = RunSpec::new(Scheme::Turnpike)
        .with_policy(ProtectionPolicy::ForceUniform(ProtectionMode::Unprotected));
    let (report, records, _) = fault_campaign_forked(&prog, &spec, &config(), 2).unwrap();
    assert_eq!(report.runs, config().runs);
    assert_eq!(
        report.detections, 0,
        "unprotected region raised a detection"
    );
    assert_eq!(report.recoveries, 0, "unprotected region ran a recovery");
    assert!(records
        .iter()
        .all(|r| r.detections == 0 && r.outcome != StrikeOutcome::Recovered));
}

/// Under the adaptive rung, strikes that land in protected regions keep
/// full semantics: they are detected, they recover, and a recovery that
/// rolls back across an unprotected neighbor still reconverges with the
/// golden run — a detected strike must never end in SDC. Strikes absorbed
/// by unprotected regions may corrupt state (that is the coverage the
/// adaptive policy deliberately trades away); those runs must be accounted
/// as SDC or hangs, never laundered into clean outcomes.
#[test]
fn protected_regions_recover_across_mode_boundaries() {
    for name in ["zeusmp", "leslie3d", "gemsfdtd"] {
        let prog = program(name);
        let spec = RunSpec::new(Scheme::Adaptive);
        let (report, records, _) = fault_campaign_forked(&prog, &spec, &config(), 2).unwrap();
        assert!(report.detections > 0, "{name}: protected regions detect");
        assert!(report.recoveries > 0, "{name}: protected regions recover");
        assert!(
            records
                .iter()
                .filter(|r| r.detections > 0)
                .all(|r| r.outcome == StrikeOutcome::Recovered),
            "{name}: a detected strike ended in silent corruption"
        );
        let sdc_records = records
            .iter()
            .filter(|r| r.outcome == StrikeOutcome::Sdc)
            .count();
        assert_eq!(
            sdc_records, report.sdc,
            "{name}: SDC record attribution disagrees with the report"
        );
    }
}

/// A strike in an unprotected region can corrupt a loop register and hang
/// the program with nothing watching. The campaign watchdog must abort the
/// run, classify every strike of it as [`StrikeOutcome::Hang`], and keep
/// the hang out of the SDC tally — and the forked path must reach the same
/// verdict as from-scratch simulation (both clamp to the same absolute
/// cycle bound).
#[test]
fn watchdog_classifies_hung_runs_identically_on_both_paths() {
    let prog = program("milc");
    let cfg = CampaignConfig {
        runs: 24,
        ..config()
    };
    let spec = RunSpec::new(Scheme::Adaptive);
    let (fast_report, fast_records, _) = fault_campaign_forked(
        &prog,
        &spec.clone().with_snapshot_interval(Some(64)),
        &cfg,
        2,
    )
    .unwrap();
    let (scratch_report, scratch_records, _) = fault_campaign_forked(
        &prog,
        &spec.with_snapshot_interval(None),
        &CampaignConfig {
            early_exit: false,
            ..cfg
        },
        2,
    )
    .unwrap();
    assert!(
        fast_report.hangs > 0,
        "campaign produced no hang to classify"
    );
    let hangs = fast_records
        .iter()
        .filter(|r| r.outcome == StrikeOutcome::Hang)
        .count();
    assert_eq!(hangs, fast_report.hangs, "hang attribution disagrees");
    assert!(fast_records
        .iter()
        .filter(|r| r.outcome == StrikeOutcome::Hang)
        .all(|r| r.detections == 0 && r.recovery_cycles == 0));
    assert_eq!(fast_report, scratch_report, "hang verdicts diverge");
    assert_eq!(fast_records, scratch_records);
}

/// Snapshot forking and early-exit replay must stay bit-identical under
/// mixed modes: a fork resumed inside (or before) an unprotected region
/// reproduces the from-scratch run exactly, reports and records included.
#[test]
fn mixed_mode_fork_and_early_exit_replay_are_bit_identical() {
    let prog = program("zeusmp");
    let cfg_fast = CampaignConfig {
        early_exit: true,
        ..config()
    };
    let cfg_scratch = CampaignConfig {
        early_exit: false,
        ..config()
    };
    let spec = RunSpec::new(Scheme::Adaptive).with_histograms();
    let (fast_report, fast_records, fast_stats) = fault_campaign_forked(
        &prog,
        &spec.clone().with_snapshot_interval(Some(64)),
        &cfg_fast,
        2,
    )
    .unwrap();
    let (scratch_report, scratch_records, scratch_stats) =
        fault_campaign_forked(&prog, &spec.with_snapshot_interval(None), &cfg_scratch, 2).unwrap();

    assert_eq!(fast_report, scratch_report, "reports diverge");
    assert_eq!(fast_records, scratch_records, "records diverge");
    assert!(fast_stats.hits > 0, "fast path never forked");
    assert_eq!(scratch_stats.hits, 0, "scratch path forked");
}
