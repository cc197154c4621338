//! The run loop and the metric set: set-up repeats, a checked warm-up,
//! the timed loop (interleaving traced iterations in a traced run), and
//! the derivation of every end-to-end and per-layer metric.

use std::time::Instant;

use turnpike_bench::TARGETS;

use crate::figures::{pass_metric, PASSES};
use crate::stats::{median, percentile, tail, tail_at, Percentile, Ratio, Tally};
use crate::trace::Tracer;
use crate::{Iter, Layer, Work, Workload};

/// Set-ups before every timed iteration (and before the warm-up);
/// `setup_s` is the median of all of them. A set-up takes well under a
/// millisecond, so a burst of a hundred samples caught one instant of the
/// host (run medians of the figures catalog build came out either ~0.08 or
/// ~0.12 ms); spreading the samples over the run averages like `wall_s`.
pub(crate) const SETUPS_PER_ITER: usize = 16;
/// Timed iterations per run at least (per kind in a traced run).
pub(crate) const MIN_ITERS: usize = 3;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("strikes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("compiles", "count"),
    ("sims", "count"),
    ("strike_runs", "count"),
];

/// Per-layer metrics: `(name, unit)`, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: &str, u: &'static str| v.push((n.to_string(), u));
    push("workloads.build_ms", "ms");
    push("compiler.calls", "count");
    push("compiler.busy_ms", "ms");
    for p in PASSES {
        push(&pass_metric(p), "ms");
    }
    push("sim.calls", "count");
    push("sim.busy_ms", "ms");
    push("sim.insts", "count");
    push("sim.ns_per_inst", "ns");
    push("resilience.campaign_busy_ms", "ms");
    push("resilience.strike_runs", "count");
    push("resilience.us_per_strike", "us");
    push("resilience.fork_hit_ratio", "ratio");
    push("resilience.prefix_cycles_saved", "cycles");
    push("resilience.replay_exit_ratio", "ratio");
    push("resilience.replay_cycles_saved", "cycles");
    push("bench.compile_cache_hit_ratio", "ratio");
    push("bench.compile_lookups", "count");
    push("bench.run_cache_hit_ratio", "ratio");
    push("bench.run_lookups", "count");
    for t in TARGETS.iter() {
        push(&format!("bench.figure_ms.{}", t.name), "ms");
    }
    push("explore.grid_ms", "ms");
    push("explore.pareto_ms", "ms");
    push("explore.canonical", "count");
    push("explore.promoted", "count");
    push("explore.prune_ratio", "ratio");
    push("explore.jobs", "count");
    push("explore.campaign_runs", "count");
    push("explore.frontier", "count");
    push("serve.queue_wait_p50_us", "us");
    push("serve.queue_wait_p99_us", "us");
    push("serve.job_p50_us", "us");
    push("serve.job_p99_us", "us");
    push("serve.wire_p50_us", "us");
    push("serve.busy_frac", "ratio");
    push("serve.jobs", "count");
    push("serve.rejected", "count");
    push("serve.failed", "count");
    push("serve.latency_p50_ms", "ms");
    push("serve.latency_p99_ms", "ms");
    push("trace.overhead_pct", "%");
    v
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`per_layer_names`].
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Evidence for the report: sample counts, ratio bases.
    pub note: String,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted / failed over the whole run, checks included.
    pub tally: Tally,
    /// What failed.
    pub failures: Vec<String>,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, spreads, ratios with bases.
    pub notes: Vec<String>,
    /// Chrome trace of the traced iterations.
    pub trace_json: Option<String>,
}

/// Harness settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics.
    pub trace: bool,
    /// Metadata recorded with the result and in the trace.
    pub metadata: Vec<(String, String)>,
}

/// Peak resident set of this process, MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub(crate) fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line, in clock ticks.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// One untimed teardown and one timed set-up.
fn set_up(
    w: &mut dyn Workload,
    setups: &mut Vec<f64>,
    catalog_ms: &mut Vec<f64>,
) -> Result<(), String> {
    w.teardown();
    let t0 = Instant::now();
    catalog_ms.push(w.setup()?);
    setups.push(t0.elapsed().as_secs_f64());
    Ok(())
}

/// Run `w`: [`SETUPS_PER_ITER`] set-ups before one checked warm-up and
/// before every timed iteration of the loop, which runs for
/// `opts.seconds`, then the workload's cross-checks.
///
/// # Errors
///
/// When the workload cannot prepare its references or set up.
pub fn run(w: &mut dyn Workload, opts: &Opts) -> Result<Outcome, String> {
    w.prepare()?;
    let (mut setups, mut catalog_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS_PER_ITER {
        set_up(w, &mut setups, &mut catalog_ms)?;
    }
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let fold = |it: &Iter, tally: &mut Tally, failures: &mut Vec<String>| {
        tally.absorb(it.tally);
        failures.extend(it.failures.iter().take(5).cloned());
    };

    let warm = w.iterate(&off);
    fold(&warm, &mut tally, &mut failures);
    let work = warm.work;
    let (mut plain, mut traced): (Vec<Iter>, Vec<Iter>) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let samples: usize = traced.iter().map(|i| i.latencies_ms.len()).sum();
        let enough = plain.len() >= MIN_ITERS
            && (!opts.trace || traced.len() >= MIN_ITERS && samples >= w.min_samples());
        if elapsed >= opts.seconds && (enough || elapsed >= 3.0 * opts.seconds) {
            break;
        }
        let trace_this = opts.trace && plain.len() > traced.len();
        for _ in 0..SETUPS_PER_ITER {
            set_up(w, &mut setups, &mut catalog_ms)?;
        }
        let cpu0 = cpu_seconds();
        let mut it = w.iterate(if trace_this { &on } else { &off });
        it.cpu_s = cpu_seconds() - cpu0;
        fold(&it, &mut tally, &mut failures);
        if it.work != work {
            tally.record(false);
            failures.push(format!("work counts {:?} differ from {work:?}", it.work));
        }
        if let Some((s, c)) = it.setup {
            setups.push(s);
            catalog_ms.push(c);
        }
        if trace_this {
            traced.push(it);
        } else {
            plain.push(it);
        }
    }
    let (t, f) = w.finish();
    tally.absorb(t);
    failures.extend(f);

    let mut notes = vec![format!(
        "{} timed iterations ({} traced) after 1 warm-up; {} set-ups",
        plain.len() + traced.len(),
        traced.len(),
        setups.len()
    )];
    notes.extend(w.notes());
    notes.push(format!(
        "set-up s: min {:.3e} median {:.3e} max {:.3e}",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setups),
        setups.iter().copied().fold(0.0, f64::max),
    ));
    let metrics = if opts.trace {
        per_layer(&plain, &traced, median(&catalog_ms), &mut notes)
    } else {
        end_to_end(&plain, &setups, work, &mut notes)
    };
    let failed_frac = tally.failed_frac();
    notes.push(format!("failed_frac {}", failed_frac.describe()));
    let trace_json = opts.trace.then(|| on.chrome_json(&opts.metadata));
    Ok(Outcome {
        correct: tally.failed == 0 && failures.is_empty(),
        tally,
        failures,
        metrics,
        notes,
        trace_json,
    })
}

fn metric(name: &str, value: f64, note: String) -> Metric {
    let unit = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer_names()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
        .expect("every reported metric is listed");
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

/// End-to-end metrics over the untraced timed iterations.
pub fn end_to_end(
    iters: &[Iter],
    setups: &[f64],
    work: Work,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    notes.push(format!(
        "wall_s per iteration: min {lo:.4} median {:.4} max {hi:.4}; cpu_s median {:.4}",
        median(&walls),
        median(&iters.iter().map(|i| i.cpu_s).collect::<Vec<_>>())
    ));
    // Rates are run totals over the timed seconds, and `wall_s` their
    // mean per iteration: a shared host's speed changes in phases of
    // seconds to minutes, and a median over ~10 iterations jumps between
    // the phases where the total weighs them by the time they lasted.
    let timed_s: f64 = walls.iter().sum::<f64>().max(1e-9);
    let total = |f: &dyn Fn(&Iter) -> u64| -> f64 { iters.iter().map(f).sum::<u64>() as f64 };
    let lat: Vec<f64> = iters.iter().flat_map(|i| i.latencies_ms.clone()).collect();
    if let (Some(p50), Some(t)) = (percentile(&lat, 0.5), tail(&lat)) {
        notes.push(format!(
            "latency p50 = {:.3} ms, {} = {:.3} ms over {} samples ({} beyond)",
            p50.value,
            t.name(),
            t.value,
            t.samples,
            t.beyond
        ));
    } else {
        notes.push(format!(
            "latency: {} samples, too few for a tail with 10 beyond",
            lat.len()
        ));
    }
    let n = iters.len();
    vec![
        metric(
            "setup_s",
            median(setups),
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "wall_s",
            timed_s / n.max(1) as f64,
            format!("mean of {n} iterations, {timed_s:.2} s timed"),
        ),
        metric(
            "jobs_per_s",
            total(&|i| i.jobs) / timed_s,
            format!("{} jobs / {timed_s:.2} s", total(&|i| i.jobs)),
        ),
        metric(
            "strikes_per_s",
            total(&|i| i.work.strike_runs) / timed_s,
            format!(
                "{} strike runs / {timed_s:.2} s",
                total(&|i| i.work.strike_runs)
            ),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "VmHWM".into()),
        metric("compiles", work.compiles as f64, "per iteration".into()),
        metric("sims", work.sims as f64, "per iteration".into()),
        metric(
            "strike_runs",
            work.strike_runs as f64,
            "per iteration".into(),
        ),
    ]
}

fn pct_note(p: Option<Percentile>) -> (f64, String) {
    match p {
        Some(p) => (
            p.value,
            format!(
                "{} over {} samples, {} beyond",
                p.name(),
                p.samples,
                p.beyond
            ),
        ),
        None => (0.0, "no qualifying samples".into()),
    }
}

fn ratio_metric(name: &str, r: Ratio) -> Metric {
    metric(name, r.value(), format!("{}/{}", r.num, r.base))
}

/// Per-layer metrics over the traced iterations; `plain` gives the
/// untraced wall time the tracing overhead is measured against.
pub fn per_layer(
    plain: &[Iter],
    traced: &[Iter],
    build_ms: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut l = Layer::default();
    for it in traced {
        l.absorb(&it.layer);
    }
    let n = traced.len().max(1) as f64;
    let per = |k: &str| l.sum(k) / n;
    let count = |k: &str| l.sum(k).round() as u64;
    let mut out = vec![metric(
        "workloads.build_ms",
        build_ms,
        "median catalog build".into(),
    )];
    for name in ["compiler.calls", "compiler.busy_ms"] {
        out.push(metric(
            name,
            per(name),
            format!("mean of {n} traced iterations"),
        ));
    }
    for p in PASSES {
        let name = pass_metric(p);
        out.push(metric(
            &name,
            per(&name),
            "ladder compiles, from PassRecord".into(),
        ));
    }
    out.push(metric("sim.calls", per("sim.calls"), String::new()));
    out.push(metric("sim.busy_ms", per("sim.busy_ms"), String::new()));
    out.push(metric(
        "sim.insts",
        per("sim.insts"),
        "golden-path probe".into(),
    ));
    let ns_per_inst = Ratio {
        num: count("sim.probe_ns"),
        base: count("sim.insts"),
    };
    out.push(ratio_metric("sim.ns_per_inst", ns_per_inst));
    let strikes = count("resilience.strike_runs");
    out.push(metric(
        "resilience.campaign_busy_ms",
        per("resilience.campaign_busy_ms"),
        String::new(),
    ));
    out.push(metric(
        "resilience.strike_runs",
        per("resilience.strike_runs"),
        String::new(),
    ));
    let us_per_strike = if strikes == 0 || l.sum("resilience.campaign_busy_ms") == 0.0 {
        0.0
    } else {
        l.sum("resilience.campaign_busy_ms") * 1e3 / strikes as f64
    };
    out.push(metric(
        "resilience.us_per_strike",
        us_per_strike,
        format!("over {strikes} strike runs"),
    ));
    // Fork accounting exists only where a campaign call returns `ForkStats`.
    let forked_base = if l.sums.contains_key("resilience.fork_hits") {
        strikes
    } else {
        0
    };
    out.push(ratio_metric(
        "resilience.fork_hit_ratio",
        Ratio {
            num: count("resilience.fork_hits"),
            base: forked_base,
        },
    ));
    out.push(metric(
        "resilience.prefix_cycles_saved",
        per("resilience.prefix_cycles_saved"),
        String::new(),
    ));
    out.push(ratio_metric(
        "resilience.replay_exit_ratio",
        Ratio {
            num: count("resilience.replay_exits"),
            base: forked_base,
        },
    ));
    out.push(metric(
        "resilience.replay_cycles_saved",
        per("resilience.replay_cycles_saved"),
        String::new(),
    ));
    for (kind, hits, misses) in [
        ("compile", "bench.compile_hits", "bench.compile_misses"),
        ("run", "bench.run_hits", "bench.run_misses"),
    ] {
        let r = Ratio {
            num: count(hits),
            base: count(hits) + count(misses),
        };
        out.push(ratio_metric(&format!("bench.{kind}_cache_hit_ratio"), r));
        out.push(metric(
            &format!("bench.{kind}_lookups"),
            r.base as f64 / n,
            String::new(),
        ));
    }
    for t in TARGETS.iter() {
        let name = format!("bench.figure_ms.{}", t.name);
        out.push(metric(&name, per(&name), "span self time".into()));
    }
    for name in [
        "explore.grid_ms",
        "explore.pareto_ms",
        "explore.canonical",
        "explore.promoted",
    ] {
        out.push(metric(name, per(name), String::new()));
    }
    let canonical = count("explore.canonical");
    out.push(ratio_metric(
        "explore.prune_ratio",
        Ratio {
            num: canonical - count("explore.promoted").min(canonical),
            base: canonical,
        },
    ));
    for name in ["explore.jobs", "explore.campaign_runs", "explore.frontier"] {
        out.push(metric(name, per(name), String::new()));
    }
    let q = |key: &str, q: f64| -> (f64, String) {
        match l.hists.get(key) {
            Some(h) if q <= 0.5 || (h.count() as f64 * (1.0 - q)) >= 10.0 => {
                (h.quantile(q), format!("histogram of {} samples", h.count()))
            }
            Some(h) => (0.0, format!("{} samples: fewer than 10 beyond", h.count())),
            None => (0.0, "not exercised".into()),
        }
    };
    for (name, key, quant) in [
        ("serve.queue_wait_p50_us", "serve.queue_us", 0.5),
        ("serve.queue_wait_p99_us", "serve.queue_us", 0.99),
        ("serve.job_p50_us", "serve.job_us", 0.5),
        ("serve.job_p99_us", "serve.job_us", 0.99),
    ] {
        let (v, note) = q(key, quant);
        out.push(metric(name, v, note));
    }
    let empty = Vec::new();
    let (wire, note) = pct_note(percentile(
        l.samples.get("serve.wire_us").unwrap_or(&empty),
        0.5,
    ));
    out.push(metric("serve.wire_p50_us", wire, note));
    let busy = l.sum("serve.busy_ms");
    let worker = l.sum("serve.worker_ms");
    out.push(metric(
        "serve.busy_frac",
        if worker > 0.0 { busy / worker } else { 0.0 },
        format!("{busy:.1} ms busy / {worker:.1} ms of worker time"),
    ));
    for name in ["serve.jobs", "serve.rejected", "serve.failed"] {
        out.push(metric(name, per(name), String::new()));
    }
    let latency = l.samples.get("serve.latency_ms").unwrap_or(&empty);
    let (p50, note) = pct_note(percentile(latency, 0.5));
    out.push(metric("serve.latency_p50_ms", p50, note));
    let (p99, note) = pct_note(tail_at(latency, 0.99));
    out.push(metric("serve.latency_p99_ms", p99, note));
    let untraced = median(&plain.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    let overhead = if untraced > 0.0 {
        (traced_wall - untraced) / untraced * 100.0
    } else {
        0.0
    };
    notes.push(format!(
        "tracing overhead: traced wall {traced_wall:.4} s vs untraced {untraced:.4} s (medians of {} and {})",
        traced.len(),
        plain.len()
    ));
    out.push(metric(
        "trace.overhead_pct",
        overhead,
        "traced vs untraced wall_s".into(),
    ));
    out
}
