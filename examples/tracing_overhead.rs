//! Tracing-overhead probe: wall-clock per fault-free run (EXPERIMENTS.md
//! "Tracing overhead"). Modes: default (no sink,
//! no histograms), `traced` (ring-buffer sink attached), `hist`
//! (histograms enabled, no sink).
use std::time::Instant;
use turnpike::compiler::{compile, CompilerConfig};
use turnpike::sim::{shared_sink, Core, RunOpts, SimConfig, Trace};
use turnpike::workloads::{kernel_by_name, Scale, Suite};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let mut total_ns = 0u128;
    let mut runs = 0u64;
    for name in ["bwaves", "hmmer", "leslie3d", "libquan"] {
        let k = kernel_by_name(Suite::Cpu2006, name, Scale::Smoke).unwrap();
        for (cc, mut sc) in [
            (CompilerConfig::turnpike(4), SimConfig::turnpike(4, 10)),
            (CompilerConfig::turnstile(4), SimConfig::turnstile(4, 10)),
        ] {
            if mode == "hist" {
                sc.histograms = true;
            }
            let compiled = compile(&k.program, &cc).unwrap();
            let one = |sc: SimConfig| {
                let mut core = Core::new(&compiled.program, sc);
                if mode == "traced" {
                    core.attach_sink(shared_sink(Trace::new(1 << 16)));
                }
                core.run(RunOpts::default()).unwrap();
            };
            for _ in 0..20 {
                one(sc.clone());
            }
            let t0 = Instant::now();
            const N: u64 = 300;
            for _ in 0..N {
                one(sc.clone());
            }
            total_ns += t0.elapsed().as_nanos();
            runs += N;
        }
    }
    println!("ns_per_run {}", total_ns / runs as u128);
}
