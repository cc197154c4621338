//! The default subcommand: regenerate figure targets and record their
//! perf blocks.

use std::time::Instant;

use crate::flags::{default_threads, Done, Fail, Flags};
use turnpike_bench::{
    fault_probe_metrics, hist_summary_json, json_string, target_by_name, Engine, Table, Target,
    TARGETS,
};
use turnpike_metrics::{Counter, Hist, MetricSet};
use turnpike_resilience::par_map;
use turnpike_workloads::Scale;

/// `reproduce <target> [--smoke|--full] [--json] [--threads N]
/// [--no-cache]`, or `reproduce --list`.
///
/// `--smoke` runs the reduced-size kernels (fast; used by CI); the default
/// is full evaluation scale. `--json` prints machine-readable tables.
/// `--no-cache` disables the engine's compile/run memoization (kept for
/// perf comparisons). The run records its perf block — target, scale,
/// threads, cache flag, total and per-figure wall-clock, cache and fork
/// counters, and p50/p99/max histograms of SB residency, verification,
/// detection and recovery latencies and compile/sim stage times — under the
/// target's key of `BENCH_reproduce.json`.
pub fn targets(f: &mut Flags) -> Done {
    let mut target: Option<&str> = None;
    let (mut scale, mut json, mut cache) = (Scale::Full, false, true);
    let mut threads = default_threads();
    while let Some(flag) = f.next() {
        match flag {
            "--list" => {
                print!("{}", crate::listing());
                return Ok(());
            }
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--no-cache" => cache = false,
            "--threads" => threads = f.threads()?,
            t if target.is_none() && !t.starts_with('-') => target = Some(t),
            _ => return Err(f.unknown()),
        }
    }
    let target = target.ok_or_else(|| Fail::args("no target given"))?;
    if target != "all" && target_by_name(target).is_none() {
        return Err(Fail::args(format!("unknown target '{target}'")));
    }
    let mut engine = Engine::new(threads);
    if !cache {
        engine = engine.without_cache();
    }
    let cache_name = if cache { "on" } else { "off" };
    // Run header on stderr (stdout is golden-diffed): the effective thread
    // count matters because --threads defaults to the machine's available
    // parallelism, so two hosts run the same command differently. Output is
    // byte-identical at any thread count; `--threads 1` additionally makes
    // the execution schedule itself deterministic.
    eprintln!(
        "# reproduce {target}: {threads} threads, {} scale, cache {cache_name}",
        scale.name()
    );
    let t0 = Instant::now();
    let tables = generate(target, scale, &engine);
    let wall_ms = t0.elapsed().as_millis();
    for f in &tables {
        if json {
            println!("{}", f.table.to_json());
        } else {
            println!("{}", f.table);
        }
    }
    for f in &tables {
        eprintln!("# {}: {} ms", f.table.id, f.wall_ms);
    }
    eprintln!(
        "# total: {wall_ms} ms ({threads} threads, cache {cache_name}, {} compiles, {} sims)",
        engine.compile_count(),
        engine.sim_count()
    );
    // The figure grid is fault-free, so the detection-latency and
    // recovery-penalty histograms need a small seeded strike campaign.
    let mut registry = engine.metrics();
    match fault_probe_metrics(threads) {
        Ok((probe, fork)) => {
            for key in [Hist::DetectLatency, Hist::RecoveryPenalty] {
                if let Some(h) = probe.hist(key) {
                    registry.merge_hist(key, h);
                }
            }
            // Fork accounting feeds the bench registry only — campaign
            // reports stay bit-identical with or without snapshots.
            registry.merge(&fork.to_metrics());
        }
        Err(e) => eprintln!("# warning: fault probe failed: {e}"),
    }
    let block = bench_json(target, scale, threads, cache, wall_ms, &tables, &registry);
    crate::record(target, &block);
    // The adaptive rung additionally records its per-kernel comparison
    // against the best uniform scheme (under the "adaptive" key, replacing
    // the generic perf block when the target itself was `adaptive`).
    if let Some(f) = tables.iter().find(|f| f.table.id == "adaptive") {
        crate::record("adaptive", &adaptive_block_json(&f.table, scale, f.wall_ms));
    }
    Ok(())
}

/// One generated figure: its table, wall-clock, and the run-cache traffic
/// attributed to it (see [`Engine::figure_scope`]).
struct FigureRun {
    table: Table,
    wall_ms: u128,
    run_hits: usize,
    run_misses: usize,
}

fn generate_one(t: &Target, scale: Scale, engine: &Engine) -> FigureRun {
    let scoped = engine.figure_scope();
    let t0 = Instant::now();
    let table = (t.generate)(&scoped, scale);
    scoped.note_figure();
    let (run_hits, run_misses) = scoped.figure_cache_stats();
    FigureRun {
        table,
        wall_ms: t0.elapsed().as_millis(),
        run_hits,
        run_misses,
    }
}

/// Generate the requested tables with per-figure wall-clock (`target` is a
/// registered name or `all`). For `all`, figures run concurrently (each
/// with a slice of the thread budget) while compiles and baseline runs
/// dedup through the shared caches; results are gathered in [`TARGETS`]
/// order so output is deterministic.
fn generate(target: &str, scale: Scale, engine: &Engine) -> Vec<FigureRun> {
    if let Some(t) = target_by_name(target) {
        return vec![generate_one(t, scale, engine)];
    }
    let outer = engine.threads().min(TARGETS.len());
    let inner = (engine.threads() / outer.max(1)).max(1);
    let per_figure = engine.with_threads(inner);
    par_map(&TARGETS, outer, |_, t| generate_one(t, scale, &per_figure))
}

/// Machine-readable perf record (hand-rolled JSON; see `table.rs`).
fn bench_json(
    target: &str,
    scale: Scale,
    threads: usize,
    cache: bool,
    wall_ms: u128,
    figures: &[FigureRun],
    registry: &MetricSet,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"target\": {},\n", json_string(target)));
    out.push_str(&format!("  \"scale\": {},\n", json_string(scale.name())));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"cache\": {cache},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    out.push_str(&format!(
        "  \"compile_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
        registry.counter(Counter::BenchCompileHits),
        registry.counter(Counter::BenchCompileMisses)
    ));
    out.push_str(&format!(
        "  \"run_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
        registry.counter(Counter::BenchRunHits),
        registry.counter(Counter::BenchRunMisses)
    ));
    out.push_str(&format!(
        "  \"fork\": {{\"hits\": {}, \"misses\": {}, \"prefix_cycles_saved\": {}, \
         \"replay_exits\": {}, \"replay_cycles_saved\": {}}},\n",
        registry.counter(Counter::CampaignForkHits),
        registry.counter(Counter::CampaignForkMisses),
        registry.counter(Counter::CampaignForkCyclesSaved),
        registry.counter(Counter::CampaignReplayExits),
        registry.counter(Counter::CampaignReplayCyclesSaved)
    ));
    out.push_str(&format!(
        "  \"histograms\": {},\n",
        hist_summary_json(registry, "  ")
    ));
    out.push_str("  \"figures\": [");
    for (i, f) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `cached` distinguishes a figure served from the run cache from one
        // that simulated: `wall_ms: 0` alone can't (static tables are also
        // instant). Hit/miss counts make partially-cached figures visible.
        out.push_str(&format!(
            "\n    {{\"id\": {}, \"wall_ms\": {}, \"cached\": {}, \
             \"run_cache\": {{\"hits\": {}, \"misses\": {}}}}}",
            json_string(&f.table.id),
            f.wall_ms,
            f.run_misses == 0 && f.run_hits > 0,
            f.run_hits,
            f.run_misses
        ));
    }
    if !figures.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// The `adaptive` block of `BENCH_reproduce.json`: per-kernel normalized
/// time of the adaptive rung against the best uniform scheme, plus the
/// figure's wall-clock (columns are pinned by the `adaptive` generator).
fn adaptive_block_json(table: &Table, scale: Scale, wall_ms: u128) -> String {
    let mut rows = String::new();
    for (label, v) in &table.rows {
        if label.starts_with("geomean") {
            continue;
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"kernel\": {}, \"adaptive\": {:.4}, \"best_uniform\": {:.4}, \
             \"ratio\": {:.4}, \"win\": {}}}",
            json_string(label),
            v[0],
            v[1],
            v[2],
            v[3] > 0.0,
        ));
    }
    let g = table.row("geomean.all").unwrap_or(&[0.0; 4]);
    format!(
        "{{\n  \"scale\": {},\n  \"wall_ms\": {wall_ms},\n  \
         \"geomean_ratio_vs_best_uniform\": {:.4},\n  \"win_rate\": {:.4},\n  \
         \"kernels\": [\n{rows}\n  ]\n}}",
        json_string(scale.name()),
        g[2],
        g[3],
    )
}
