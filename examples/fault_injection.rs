//! Fault injection: strike a Turnpike-protected kernel with particles and
//! show that every run recovers to the fault-free result (zero SDC), while
//! the unprotected baseline silently corrupts.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use turnpike::resilience::{fault_campaign_forked, CampaignConfig, RunSpec, Scheme};
use turnpike::workloads::{kernel_by_name, Scale, Suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = kernel_by_name(Suite::Cpu2006, "leslie3d", Scale::Smoke)
        .expect("leslie3d is in the catalog");
    println!("kernel: {} ({})", kernel.name, kernel.suite);

    let config = CampaignConfig {
        runs: 25,
        seed: 2021,
        strikes_per_run: 1,
        ..Default::default()
    };

    for scheme in [Scheme::Turnstile, Scheme::Turnpike] {
        let report = fault_campaign_forked(&kernel.program, &RunSpec::new(scheme), &config, 1)?.0;
        println!(
            "{:<10} runs={} detections={} recoveries={} SDC={} {}",
            scheme.label(),
            report.runs,
            report.detections,
            report.recoveries,
            report.sdc,
            if report.sdc_free() {
                "(zero silent corruption)"
            } else {
                "(!!)"
            }
        );
        assert!(report.sdc_free(), "resilient schemes must never show SDC");
    }

    // The baseline has no sensors and no recovery: strikes are free to
    // corrupt the output. (Some strikes still land in dead state.)
    let report =
        fault_campaign_forked(&kernel.program, &RunSpec::new(Scheme::Baseline), &config, 1)?.0;
    println!(
        "{:<10} runs={} SDC={} (no protection: corruption is possible)",
        Scheme::Baseline.label(),
        report.runs,
        report.sdc,
    );
    Ok(())
}
