//! The single-process measurement subcommands: trace export, the
//! telemetry spine check, the design-space explorer and simulator
//! throughput.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::flags::{default_threads, Done, Fail, Flags};
use turnpike_bench::explore::{
    frontier_json, frontier_table, run_explore, ExploreConfig, JobRunner,
};
use turnpike_bench::{export_trace, json_string, Engine, TraceFormat};
use turnpike_metrics::RateEstimator;
use turnpike_resilience::{
    fault_campaign_shard_hooked, write_strike_records, CampaignConfig, CampaignHook,
    CampaignProgress, RunSpec, Scheme, StopRule,
};
use turnpike_sim::{Core, RunOpts, Translation};
use turnpike_workloads::{all_kernels, find_kernel, Kernel, Scale, Suite};

fn kernel(name: &str, scale: Scale) -> Result<Kernel, Fail> {
    find_kernel(name, scale).ok_or_else(|| Fail::args(format!("unknown kernel '{name}'")))
}

/// `reproduce trace <kernel>` — export one kernel's resilience-event
/// timeline under a scheme (default `turnpike`; see `Scheme::cli_name` for
/// the ladder names) as Chrome trace-event JSON — load it in
/// ui.perfetto.dev — or as raw JSONL. Resilient schemes get one
/// deterministic datapath strike at 25% of the fault-free cycle count, so
/// the export always shows a full strike→detection→recovery arc.
pub fn trace(f: &mut Flags) -> Done {
    let mut name: Option<&str> = None;
    let (mut scheme, mut scale, mut format) = (Scheme::Turnpike, Scale::Full, TraceFormat::Chrome);
    let mut out: Option<String> = None;
    while let Some(flag) = f.next() {
        match flag {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--scheme" => {
                let names: Vec<&str> = [Scheme::Baseline]
                    .iter()
                    .chain(Scheme::LADDER.iter())
                    .map(|s| s.cli_name())
                    .collect();
                scheme = f.parsed(&format!("one of: {}", names.join(" ")), Scheme::parse)?;
            }
            "--format" => format = f.parsed("'chrome' or 'jsonl'", TraceFormat::parse)?,
            "--out" => out = Some(f.value()?),
            k if name.is_none() && !k.starts_with('-') => name = Some(k),
            _ => return Err(f.unknown()),
        }
    }
    let name = name.ok_or_else(|| Fail::args("no kernel given"))?;
    let text = export_trace(&kernel(name, scale)?, &RunSpec::new(scheme), format)
        .map_err(|e| Fail::run(format!("{name}: {e}")))?;
    let Some(path) = out else {
        print!("{text}");
        return Ok(());
    };
    std::fs::write(&path, &text).map_err(|e| Fail::run(format!("write {path}: {e}")))?;
    eprintln!(
        "# wrote {path} ({} bytes, {name} scheme {}){}",
        text.len(),
        scheme.cli_name(),
        if format == TraceFormat::Chrome {
            " — load it in ui.perfetto.dev"
        } else {
            ""
        }
    );
    Ok(())
}

/// `reproduce telemetry` — measure the telemetry spine itself. Every
/// Fig-21 ladder rung's campaign runs twice, untelemetered and with
/// streaming progress snapshots; the two reports must be bit-identical
/// (that is the spine's core guarantee) and the wall-clock delta is
/// recorded as the `telemetry` block of `BENCH_reproduce.json`.
/// `--stop-ci W` additionally runs a `StopRule::CiWidth` campaign that
/// stops once the SDC-rate Wilson CI half-width reaches `W`; `--records
/// FILE` writes the Turnpike rung's strike records as JSONL,
/// reservoir-capped to `--max-records N`.
///
/// Stdout carries only the deterministic per-rung reports (plus the
/// deterministic `--stop-ci` outcome), so CI can byte-diff it across
/// thread counts; timing goes to stderr and the JSON block.
pub fn telemetry(f: &mut Flags) -> Done {
    let (mut scale, mut kernel_name) = (Scale::Full, "bwaves".to_string());
    let (mut runs, mut seed, mut threads) = (48usize, 7u64, default_threads());
    let (mut stop_ci, mut records_path, mut max_records) = (None, None, None);
    while let Some(flag) = f.next() {
        match flag {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--kernel" => kernel_name = f.value()?,
            "--runs" => runs = f.num(1, u64::MAX)?,
            "--seed" => seed = f.num(0, u64::MAX)?,
            "--threads" => threads = f.threads()?,
            "--stop-ci" => stop_ci = Some(f.float(0.0, 0.5)?),
            "--records" => records_path = Some(f.value()?),
            "--max-records" => max_records = Some(f.num(1, u64::MAX)?),
            _ => return Err(f.unknown()),
        }
    }
    let kernel = kernel(&kernel_name, scale)?;
    let config = CampaignConfig {
        runs,
        seed,
        strikes_per_run: 1,
        ..Default::default()
    };
    eprintln!(
        "# telemetry: {kernel_name}, {} ladder rungs x {runs} runs, seed {seed}, {threads} threads",
        Scheme::LADDER.len()
    );
    let campaign = |scheme: Scheme, config: &CampaignConfig, hook: CampaignHook| {
        fault_campaign_shard_hooked(
            &kernel.program,
            &RunSpec::new(scheme),
            config,
            threads,
            hook,
            0,
        )
        .map_err(|e| Fail::run(format!("{}: {e}", scheme.cli_name())))
    };
    let snapshots = AtomicUsize::new(0);
    let (mut wall_off_us, mut wall_on_us) = (0u128, 0u128);
    let mut rung_rows = String::new();
    let mut turnpike_records = Vec::new();
    let on_progress = |p: &CampaignProgress| {
        snapshots.fetch_add(1, Ordering::Relaxed);
        // Touch the full payload the way a renderer would, so the
        // measured overhead includes building every estimator field.
        std::hint::black_box((p.sdc_rate.wilson_bounds(), p.strikes_per_sec, p.eta_ms));
    };
    for scheme in Scheme::LADDER {
        let t0 = Instant::now();
        let (off_report, off_records, _) = campaign(scheme, &config, CampaignHook::default())?;
        wall_off_us += t0.elapsed().as_micros();
        let hook = CampaignHook {
            on_progress: Some(&on_progress),
            ..CampaignHook::default()
        };
        let t0 = Instant::now();
        let (on_report, _, _) = campaign(scheme, &config, hook)?;
        wall_on_us += t0.elapsed().as_micros();
        if off_report != on_report {
            return Err(Fail::run(format!(
                "{}: progress snapshots changed the report\n  off: {off_report:?}\n  on:  {on_report:?}",
                scheme.cli_name()
            )));
        }
        println!(
            "{:32} runs {:4}  sdc {:3}  recoveries {:6}  detections {:6}  post {:4}  hangs {:3}",
            scheme.cli_name(),
            off_report.runs,
            off_report.sdc,
            off_report.recoveries,
            off_report.detections,
            off_report.post_completion,
            off_report.hangs,
        );
        if !rung_rows.is_empty() {
            rung_rows.push_str(",\n");
        }
        rung_rows.push_str(&format!(
            "    {{\"scheme\": {}, \"runs\": {}, \"sdc\": {}, \"detections\": {}, \"hangs\": {}}}",
            json_string(scheme.cli_name()),
            off_report.runs,
            off_report.sdc,
            off_report.detections,
            off_report.hangs
        ));
        if scheme == Scheme::Turnpike {
            turnpike_records = off_records;
        }
    }
    let snapshots = snapshots.load(Ordering::Relaxed) / 2;
    let overhead_pct = if wall_off_us > 0 {
        (wall_on_us as f64 - wall_off_us as f64) * 100.0 / wall_off_us as f64
    } else {
        0.0
    };
    eprintln!(
        "# telemetry: untelemetered {} ms, with progress {} ms, overhead {overhead_pct:.2}% \
         ({snapshots} snapshots per pass)",
        wall_off_us / 1000,
        wall_on_us / 1000,
    );

    let mut stop_json = String::new();
    if let Some(half_width) = stop_ci {
        let stop_config = CampaignConfig {
            stop: StopRule::CiWidth {
                half_width,
                cap: runs,
            },
            ..config
        };
        let (report, _, _) = campaign(Scheme::Turnpike, &stop_config, CampaignHook::default())
            .map_err(|e| Fail::run(format!("stop-ci campaign: {}", e.msg)))?;
        let est = RateEstimator::from_counts(report.sdc as u64, report.runs as u64);
        println!(
            "stop-ci {half_width}: executed {}/{} runs, sdc-rate half-width {:.4}",
            report.runs,
            runs,
            est.half_width()
        );
        stop_json = format!(
            ",\n  \"stop_ci\": {{\"half_width\": {half_width}, \"cap\": {runs}, \
             \"executed\": {}, \"final_half_width\": {:.4}}}",
            report.runs,
            est.half_width()
        );
    }

    if let Some(path) = &records_path {
        write_strike_records(&turnpike_records, max_records, seed, path)
            .map_err(|e| Fail::run(format!("write {path}: {e}")))?;
        eprintln!(
            "# wrote {path}: {} strike records{}",
            turnpike_records
                .len()
                .min(max_records.unwrap_or(usize::MAX)),
            match max_records {
                Some(cap) => format!(" (reservoir cap {cap} of {})", turnpike_records.len()),
                None => String::new(),
            }
        );
    }

    crate::record(
        "telemetry",
        &format!(
            "{{\n  \"scale\": {},\n  \"kernel\": {},\n  \"runs\": {runs},\n  \"seed\": {seed},\n  \
             \"threads\": {threads},\n  \"wall_off_ms\": {},\n  \"wall_on_ms\": {},\n  \
             \"overhead_pct\": {overhead_pct:.2},\n  \"snapshots_per_pass\": {snapshots}{stop_json},\n  \
             \"rungs\": [\n{rung_rows}\n  ]\n}}",
            json_string(scale.name()),
            json_string(&kernel_name),
            wall_off_us / 1000,
            wall_on_us / 1000,
        ),
    );
    Ok(())
}

/// `reproduce explore` — sweep the cross-layer design space (scheme x WCDL
/// x SB size x CLQ x colors x cache geometry, one declarative grid shared
/// with the paper's sweeps) through the staged explorer: smoke-scale
/// screening of every canonical point, epsilon-dominance pruning, then
/// promotion at the requested scale with CI-width sequential stopping on
/// the fault-campaign cells.
///
/// The frontier table over (runtime overhead, hardware cost, SDC rate) goes
/// to stdout and the full frontier artifact to `--out` (default
/// `explore_frontier.json`); both are byte-identical at any `--threads`
/// count and between direct execution and a `--workers` fleet. Stage
/// progress — grid size, pruning counts, campaign rounds, store traffic —
/// goes to stderr, and the run records the `explore` block of
/// `BENCH_reproduce.json`. `--store DIR` memoizes every job's payload;
/// `--resume` re-runs a sweep against that store, so every
/// already-evaluated job is a store hit instead of a simulation.
pub fn explore(f: &mut Flags) -> Done {
    let mut cfg = ExploreConfig::full();
    let mut threads = default_threads();
    let mut workers: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut out_path = "explore_frontier.json".to_string();
    while let Some(flag) = f.next() {
        match flag {
            // A scale preset keeps any --seed/--epsilon given before it.
            "--smoke" | "--full" => {
                let preset = match flag {
                    "--smoke" => ExploreConfig::smoke(),
                    _ => ExploreConfig::full(),
                };
                cfg = ExploreConfig {
                    seed: cfg.seed,
                    epsilon: cfg.epsilon,
                    ..preset
                };
            }
            "--threads" => threads = f.threads()?,
            "--workers" => workers = f.value()?.split(',').map(str::to_string).collect(),
            "--store" => store_dir = Some(f.value()?),
            "--resume" => resume = true,
            "--seed" => cfg.seed = f.num(0, u64::MAX)?,
            "--epsilon" => cfg.epsilon = f.float(0.0, f64::INFINITY)?,
            "--out" => out_path = f.value()?,
            _ => return Err(f.unknown()),
        }
    }
    if resume && store_dir.is_none() {
        return Err(Fail::args(
            "--resume needs --store DIR (the store holds the artifacts a resumed sweep skips)",
        ));
    }
    if !workers.is_empty() && store_dir.is_some() {
        return Err(Fail::args(
            "--store is the direct path's; with --workers, give each worker its own (serve --store)",
        ));
    }
    let runner = if workers.is_empty() {
        // The executor's engine is serial: explore parallelism is
        // batch-level (whole jobs fan out over `--threads`), which keeps
        // every payload — including campaign payloads — independent of
        // the thread count by construction.
        let exec = crate::serve::executor(Engine::serial(), store_dir.as_deref());
        JobRunner::Direct { exec, threads }
    } else {
        JobRunner::Fleet {
            workers: workers.clone(),
        }
    };
    eprintln!(
        "# explore: {} scale, seed {:#x}, epsilon {}, {}",
        cfg.scale.name(),
        cfg.seed,
        cfg.epsilon,
        if workers.is_empty() {
            format!("{threads} threads")
        } else {
            format!("{} workers", workers.len())
        }
    );
    let t0 = Instant::now();
    let report = run_explore(&runner, &cfg, &mut |line| eprintln!("# explore: {line}"))
        .map_err(Fail::run)?;
    let wall_ms = t0.elapsed().as_millis();
    if resume {
        eprintln!(
            "# explore: resume: {} of {} jobs served from the store",
            report.counts.store_hits, report.counts.jobs
        );
    }

    println!("{}", frontier_table(&report));
    let artifact = frontier_json(&cfg, &report);
    std::fs::write(&out_path, &artifact)
        .map_err(|e| Fail::run(format!("write {out_path}: {e}")))?;
    eprintln!(
        "# explore: wrote {out_path} ({} bytes, {} promoted points, {} on the frontier) in {wall_ms} ms",
        artifact.len(),
        report.counts.promoted,
        report.counts.frontier
    );

    let c = report.counts;
    crate::record(
        "explore",
        &format!(
            "{{\n  \"scale\": {},\n  \"seed\": {},\n  \"epsilon\": {},\n  \"grid_raw\": {},\n  \
             \"grid_canonical\": {},\n  \"promoted\": {},\n  \"frontier\": {},\n  \"jobs\": {},\n  \
             \"store_hits\": {},\n  \"campaign_runs\": {},\n  \"threads\": {},\n  \"workers\": {},\n  \
             \"wall_ms\": {wall_ms}\n}}",
            json_string(cfg.scale.name()),
            cfg.seed,
            cfg.epsilon,
            c.raw,
            c.canonical,
            c.promoted,
            c.frontier,
            c.jobs,
            c.store_hits,
            c.campaign_runs,
            threads,
            workers.len(),
        ),
    );
    Ok(())
}

/// `reproduce sim-throughput [--smoke|--full] [--reps N]` — measure
/// fault-free ("golden path") simulator throughput over the whole kernel
/// catalog and record it as the `sim_throughput` block of
/// `BENCH_reproduce.json`.
///
/// Each kernel x scheme cell is timed twice — per-instruction interpreter
/// and superblock-translated dispatch — as wall-clock nanoseconds per
/// retired instruction, min over `--reps` runs (the minimum is the right
/// statistic for a throughput floor: noise on a quiet machine is strictly
/// additive). Cells run sequentially on one thread so measurements never
/// contend with each other.
pub fn sim_throughput(f: &mut Flags) -> Done {
    let (mut scale, mut reps) = (Scale::Full, 5usize);
    while let Some(flag) = f.next() {
        match flag {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--reps" => reps = f.num(1, u64::MAX)?,
            _ => return Err(f.unknown()),
        }
    }
    let suite_key = |s: Suite| match s {
        Suite::Cpu2006 => "cpu2006",
        Suite::Cpu2017 => "cpu2017",
        Suite::Splash3 => "splash3",
    };
    eprintln!(
        "# sim-throughput: {} scale, min of {reps} reps per cell",
        scale.name()
    );
    let mut rows = String::new();
    let (mut interp_ns, mut translated_ns, mut total_insts) = (0.0f64, 0.0f64, 0u64);
    for k in all_kernels(scale) {
        for scheme in [Scheme::Baseline, Scheme::Turnpike] {
            let spec = RunSpec::new(scheme);
            let compiled = turnpike_compiler::compile(&k.program, &spec.compiler_config())
                .map_err(|e| Fail::run(format!("compile {}: {e}", k.name)))?;
            let translation = Arc::new(Translation::new(&compiled.program));
            // best[0]: interpreter; best[1]: translated.
            let mut best = [f64::MAX; 2];
            let (mut insts, mut cycles) = (0u64, 0u64);
            for (slot, translate) in [(0, false), (1, true)] {
                for _ in 0..reps {
                    let mut cfg = spec.sim_config();
                    cfg.translate = translate;
                    let mut core = Core::new(&compiled.program, cfg);
                    if translate {
                        core.attach_translation(translation.clone());
                    }
                    let t0 = Instant::now();
                    let out = core
                        .run(RunOpts::default())
                        .map_err(|e| Fail::run(format!("run {}: {e}", k.name)))?;
                    let wall = t0.elapsed().as_nanos() as f64;
                    (insts, cycles) = (out.stats.insts, out.stats.cycles);
                    best[slot] = best[slot].min(wall);
                }
            }
            interp_ns += best[0];
            translated_ns += best[1];
            total_insts += insts;
            let (i_ns, t_ns) = (best[0] / insts as f64, best[1] / insts as f64);
            println!(
                "{:9} {:8} {:9} {:>8} insts  interp {:5.1} ns/inst  translated {:5.1} ns/inst",
                k.name,
                suite_key(k.suite),
                scheme.cli_name(),
                insts,
                i_ns,
                t_ns,
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"suite\": {}, \"kernel\": {}, \"scheme\": {}, \"insts\": {insts}, \
                 \"cycles\": {cycles}, \"interp_ns_per_inst\": {i_ns:.1}, \
                 \"translated_ns_per_inst\": {t_ns:.1}}}",
                json_string(suite_key(k.suite)),
                json_string(k.name),
                json_string(scheme.cli_name()),
            ));
        }
    }
    // The headline: wall time per retired instruction over every cell's
    // golden run, insts-weighted — the throughput a campaign's fault-free
    // path sees across the catalog, not a best-case cherry-pick.
    let golden = translated_ns / total_insts as f64;
    let interp = interp_ns / total_insts as f64;
    println!(
        "golden path: {golden:.1} ns/inst translated ({interp:.1} interpreted, {:.2}x)",
        interp / golden
    );
    crate::record(
        "sim_throughput",
        &format!(
            "{{\n  \"scale\": {},\n  \"reps\": {reps},\n  \
             \"golden_path_ns_per_inst\": {golden:.1},\n  \
             \"interp_ns_per_inst\": {interp:.1},\n  \"speedup\": {:.2},\n  \
             \"kernels\": [\n{rows}\n  ]\n}}",
            json_string(scale.name()),
            interp / golden,
        ),
    );
    Ok(())
}
