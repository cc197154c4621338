//! Region lifecycle timeline: trace a faulted Turnpike run through the
//! Chrome trace-event exporter, print the resilience events around the
//! strike — region starts, fast releases, quarantines, the strike, its
//! detection, the recovery, and post-recovery verification — and write a
//! Perfetto-loadable timeline to `region_timeline.json`.
//!
//! ```sh
//! cargo run --example region_timeline
//! # then open region_timeline.json in https://ui.perfetto.dev
//! ```

use turnpike::compiler::{compile, CompilerConfig};
use turnpike::sim::{
    shared_sink, ChromeTrace, Core, Fault, FaultKind, FaultPlan, RunOpts, SimConfig, TraceEvent,
};
use turnpike::workloads::{kernel_by_name, Scale, Suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel =
        kernel_by_name(Suite::Cpu2006, "libquan", Scale::Smoke).expect("libquan is in the catalog");
    let compiled = compile(&kernel.program, &CompilerConfig::turnpike(4))?;

    // A datapath strike mid-run, detected by the sensors 7 cycles later.
    let plan = FaultPlan::new(vec![Fault {
        strike_cycle: 120,
        detect_latency: 7,
        kind: FaultKind::Datapath { bit: 21 },
    }]);
    let sink = shared_sink(ChromeTrace::new());
    let mut core = Core::new(&compiled.program, SimConfig::turnpike(4, 10));
    core.attach_sink(sink.clone());
    let outcome = core.run(RunOpts {
        faults: &plan,
        ..RunOpts::default()
    })?;
    let chrome = sink.borrow();

    println!(
        "kernel {}: {} cycles, {} recoveries, ret={:?}\n",
        kernel.name, outcome.stats.cycles, outcome.stats.recoveries, outcome.ret
    );

    // Print a window of events around the strike.
    let window = 110..190;
    println!("{:>7}  event", "cycle");
    let mut shown = 0;
    for ev in chrome.events() {
        let c = ev.cycle();
        if !window.contains(&c) {
            continue;
        }
        let line = match ev {
            TraceEvent::RegionStart { seq, .. } => format!("region {seq} starts"),
            TraceEvent::RegionVerified { seq, .. } => {
                format!("region {seq} VERIFIED (error-free for a full WCDL)")
            }
            TraceEvent::WarFreeRelease { addr, .. } => {
                format!("store to {addr:#x} fast-released (WAR-free)")
            }
            TraceEvent::ColoredRelease { reg, color, .. } => {
                format!("ckpt r{reg} fast-released to color {color}")
            }
            TraceEvent::Quarantined { seq, .. } => {
                format!("store quarantined in gated SB (region {seq})")
            }
            TraceEvent::SbRelease { seq, .. } => {
                format!("quarantined store drains to cache (region {seq})")
            }
            TraceEvent::SbOccupancy { entries, .. } => {
                format!("gated SB occupancy now {entries}")
            }
            TraceEvent::ClqCheck { addr, war_free, .. } => format!(
                "CLQ checks store to {addr:#x}: {}",
                if *war_free {
                    "WAR-free"
                } else {
                    "must quarantine"
                }
            ),
            TraceEvent::CacheWriteback { addr, .. } => {
                format!("released store writes back to cache at {addr:#x}")
            }
            TraceEvent::Stall { kind, cycles, .. } => {
                format!("pipeline stalls {cycles} cycles ({})", kind.name())
            }
            TraceEvent::Strike { .. } => ">>> PARTICLE STRIKE".to_string(),
            TraceEvent::Detection { .. } => ">>> sensors report the strike".to_string(),
            TraceEvent::Recovery {
                target_seq,
                resume_pc,
                ..
            } => format!(
                ">>> RECOVERY: squash unverified state, restore live-ins, \
                 re-execute region {target_seq} from pc {resume_pc}"
            ),
        };
        println!("{c:>7}  {line}");
        shown += 1;
        if shown > 40 {
            println!("    ... (truncated)");
            break;
        }
    }

    let out = "region_timeline.json";
    std::fs::write(out, chrome.render())?;
    println!(
        "\nwrote {out} ({} events) — load it in ui.perfetto.dev",
        chrome.events().len()
    );
    Ok(())
}
