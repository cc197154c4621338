//! Cross-crate resilience invariants: zero SDC under fault injection, and
//! the performance orderings the paper's figures rest on.

use turnpike::resilience::{
    fault_campaign_forked, geomean, run_kernel, CampaignConfig, RunSpec, Scheme,
};
use turnpike::workloads::{all_kernels, Scale};

#[test]
fn turnpike_is_sdc_free_across_the_catalog() {
    // Every 3rd kernel to keep runtime sane; rotation covers all templates.
    for (i, k) in all_kernels(Scale::Smoke).iter().enumerate() {
        if i % 3 != 0 {
            continue;
        }
        let report = fault_campaign_forked(
            &k.program,
            &RunSpec::new(Scheme::Turnpike),
            &CampaignConfig {
                runs: 6,
                seed: 0xA11CE + i as u64,
                strikes_per_run: 1,
                ..Default::default()
            },
            1,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", k.name))
        .0;
        assert!(report.sdc_free(), "{}: {report:?}", k.name);
    }
}

#[test]
fn turnstile_is_sdc_free_across_the_catalog() {
    for (i, k) in all_kernels(Scale::Smoke).iter().enumerate() {
        if i % 4 != 0 {
            continue;
        }
        let report = fault_campaign_forked(
            &k.program,
            &RunSpec::new(Scheme::Turnstile),
            &CampaignConfig {
                runs: 5,
                seed: 0xBEE + i as u64,
                strikes_per_run: 1,
                ..Default::default()
            },
            1,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", k.name))
        .0;
        assert!(report.sdc_free(), "{}: {report:?}", k.name);
    }
}

#[test]
fn ladder_rungs_are_sdc_free_on_a_sample() {
    let kernels = all_kernels(Scale::Smoke);
    let k = &kernels[7]; // leslie3d: stencil with stores and pressure
    for scheme in Scheme::LADDER {
        let report = fault_campaign_forked(
            &k.program,
            &RunSpec::new(scheme),
            &CampaignConfig {
                runs: 5,
                seed: 77,
                strikes_per_run: 1,
                ..Default::default()
            },
            1,
        )
        .unwrap_or_else(|e| panic!("{scheme:?}: {e}"))
        .0;
        assert!(report.sdc_free(), "{scheme:?}: {report:?}");
    }
}

#[test]
fn bursts_of_strikes_recover() {
    let kernels = all_kernels(Scale::Smoke);
    let k = &kernels[1]; // bwaves: store-heavy
    let report = fault_campaign_forked(
        &k.program,
        &RunSpec::new(Scheme::Turnpike),
        &CampaignConfig {
            runs: 4,
            seed: 5,
            strikes_per_run: 4,
            ..Default::default()
        },
        1,
    )
    .unwrap()
    .0;
    assert!(report.sdc_free(), "{report:?}");
    assert!(report.recoveries > 0);
}

#[test]
fn turnpike_dominates_turnstile_in_geomean() {
    let kernels = all_kernels(Scale::Smoke);
    let mut ts = Vec::new();
    let mut tp = Vec::new();
    for k in &kernels {
        let base = run_kernel(&k.program, &RunSpec::new(Scheme::Baseline)).unwrap();
        let b = base.outcome.stats.cycles as f64;
        let t1 = run_kernel(&k.program, &RunSpec::new(Scheme::Turnstile)).unwrap();
        let t2 = run_kernel(&k.program, &RunSpec::new(Scheme::Turnpike)).unwrap();
        ts.push(t1.outcome.stats.cycles as f64 / b);
        tp.push(t2.outcome.stats.cycles as f64 / b);
    }
    let (g_ts, g_tp) = (geomean(&ts), geomean(&tp));
    assert!(g_tp < g_ts, "turnpike {g_tp:.3} vs turnstile {g_ts:.3}");
    assert!(g_ts > 1.05, "turnstile should cost >5%: {g_ts:.3}");
    assert!(g_tp < 1.15, "turnpike should stay light: {g_tp:.3}");
}

#[test]
fn overhead_grows_with_wcdl_for_turnstile() {
    let kernels = all_kernels(Scale::Smoke);
    let mut prev = 0.0;
    for wcdl in [10u64, 30, 50] {
        let mut xs = Vec::new();
        for k in kernels.iter().step_by(4) {
            let base = run_kernel(&k.program, &RunSpec::new(Scheme::Baseline)).unwrap();
            let t =
                run_kernel(&k.program, &RunSpec::new(Scheme::Turnstile).with_wcdl(wcdl)).unwrap();
            xs.push(t.outcome.stats.cycles as f64 / base.outcome.stats.cycles as f64);
        }
        let g = geomean(&xs);
        assert!(g > prev, "wcdl {wcdl}: {g:.3} !> {prev:.3}");
        prev = g;
    }
}

#[test]
fn turnpike_scales_with_wcdl_no_worse_than_turnstile() {
    let kernels = all_kernels(Scale::Smoke);
    let mut slopes = (Vec::new(), Vec::new());
    for k in kernels.iter().step_by(5) {
        let s10 = |s: Scheme| {
            run_kernel(&k.program, &RunSpec::new(s).with_wcdl(10))
                .unwrap()
                .outcome
                .stats
                .cycles as f64
        };
        let s50 = |s: Scheme| {
            run_kernel(&k.program, &RunSpec::new(s).with_wcdl(50))
                .unwrap()
                .outcome
                .stats
                .cycles as f64
        };
        slopes
            .0
            .push(s50(Scheme::Turnstile) / s10(Scheme::Turnstile));
        slopes.1.push(s50(Scheme::Turnpike) / s10(Scheme::Turnpike));
    }
    assert!(
        geomean(&slopes.1) <= geomean(&slopes.0) + 1e-9,
        "turnpike WCDL slope {:.3} vs turnstile {:.3}",
        geomean(&slopes.1),
        geomean(&slopes.0)
    );
}

#[test]
fn bigger_sb_helps_turnstile() {
    let kernels = all_kernels(Scale::Smoke);
    let mut small = Vec::new();
    let mut large = Vec::new();
    for k in kernels.iter().step_by(4) {
        let base = run_kernel(&k.program, &RunSpec::new(Scheme::Baseline)).unwrap();
        let b = base.outcome.stats.cycles as f64;
        let s4 = run_kernel(&k.program, &RunSpec::new(Scheme::Turnstile).with_sb(4)).unwrap();
        let s40 = run_kernel(&k.program, &RunSpec::new(Scheme::Turnstile).with_sb(40)).unwrap();
        small.push(s4.outcome.stats.cycles as f64 / b);
        large.push(s40.outcome.stats.cycles as f64 / b);
    }
    assert!(
        geomean(&large) < geomean(&small),
        "SB-40 {:.3} should beat SB-4 {:.3}",
        geomean(&large),
        geomean(&small)
    );
}

#[test]
fn fast_release_reduces_quarantine_traffic() {
    let kernels = all_kernels(Scale::Smoke);
    for k in kernels.iter().step_by(6) {
        let ts = run_kernel(&k.program, &RunSpec::new(Scheme::Turnstile)).unwrap();
        let fr = run_kernel(&k.program, &RunSpec::new(Scheme::FastRelease)).unwrap();
        assert!(
            fr.outcome.stats.quarantined <= ts.outcome.stats.quarantined,
            "{}: fast release must not quarantine more ({} vs {})",
            k.name,
            fr.outcome.stats.quarantined,
            ts.outcome.stats.quarantined
        );
    }
}
