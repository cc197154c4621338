//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce <target> [--smoke] [--json] [--threads N] [--no-cache]
//! reproduce trace <kernel> [--scheme S] [--smoke] [--format chrome|jsonl] [--out FILE]
//! reproduce serve [--addr A] [--workers N] [--queue N] [--store DIR] [--flight-dir DIR] ...
//! reproduce submit [--addr A | --direct] [--progress] [--kind K] [job fields] ...
//! reproduce loadgen [--addr A] [--clients N] [--jobs N] [job fields] ...
//! reproduce coordinate --workers A,B,... [--shards N] [--progress] [job fields]
//! reproduce fleet-bench [--runs N] [--shards N] [--jobs N] [--rate R]
//! reproduce watch [--addr A | --workers A,B,...] [--interval-ms N] [--once]
//! reproduce telemetry [--smoke] [--runs N] [--seed N] [--stop-ci W]
//!                     [--records FILE [--max-records N]]
//! reproduce explore [--smoke|--full] [--threads N] [--workers A,B,...]
//!                   [--store DIR [--resume]] [--seed N] [--epsilon X] [--out FILE]
//! reproduce sim-throughput [--smoke] [--reps N]
//! reproduce --list
//!
//! targets: fig4 fig14 fig15 fig18 fig19 fig20 fig21 fig22 fig23
//!          fig24 fig25 fig26 table1 ablation clq colors summary
//!          adaptive all
//! ```
//!
//! `--list` prints every target with the paper figure/table it reproduces.
//! `--smoke` runs the reduced-size kernels (fast; used by CI); the default
//! is full evaluation scale. `--json` prints machine-readable output.
//! `--threads N` caps the evaluation engine's worker threads and must be
//! at least 1 (default: all hardware threads); stdout is byte-identical at
//! any thread count. `--no-cache` disables the engine's compile/run
//! memoization (the seed harness's behavior, kept for perf comparisons).
//!
//! `serve` runs the batch job server (`turnpike-serve`): line-delimited
//! JSON over TCP, bounded queue with typed `overloaded` rejections,
//! worker pool over the shared evaluation engine, optional persistent
//! artifact store (`--store DIR`, shared with `submit --direct`), graceful
//! drain on a client `shutdown` request. The bound address is printed to
//! stdout. `submit` sends one compile/run/campaign/figure job (or
//! `--stats`/`--shutdown`) and prints the result payload to stdout —
//! byte-identical whether served or executed locally via `--direct`.
//! `loadgen` saturates a server with `--clients` concurrent connections,
//! proves exactly-once delivery by tag accounting, and records
//! throughput plus p50/p99/p99.9 latency into `BENCH_reproduce.json`.
//!
//! `submit --progress` renders a live progress bar for campaign jobs —
//! run counts, SDC rate with its Wilson interval, windowed strikes/sec,
//! and an ETA, rewritten in place on a TTY. `watch` polls a running
//! server's `stats` and `metrics` (Prometheus text exposition) and prints
//! a queue/outcome/campaign-counter snapshot every `--interval-ms`
//! (`--once` for a single snapshot). `serve --flight-dir DIR` enables the
//! per-job flight recorder: failed, deadline-canceled, or
//! quarantine-tripping jobs dump their lifecycle event ring as
//! `DIR/job-<id>.jsonl` evidence.
//!
//! `telemetry` measures the telemetry spine itself: every Fig-21 ladder
//! rung's smoke campaign runs once untelemetered and once with streaming
//! progress snapshots, asserts the two `CampaignReport`s are bit-identical
//! (stdout shows only the deterministic reports — diffable across thread
//! counts), and records the wall-clock overhead as the `telemetry` block
//! of `BENCH_reproduce.json`. `--stop-ci W` additionally runs a
//! `StopRule::CiWidth` campaign that stops once the SDC-rate Wilson CI
//! half-width reaches `W`; `--records FILE` writes the ladder's strike
//! records as JSONL, reservoir-capped to `--max-records N`.
//!
//! `explore` sweeps the cross-layer design space (scheme x WCDL x SB size
//! x CLQ x colors x cache geometry, one declarative grid shared with the
//! paper's sweeps) through the staged explorer: smoke-scale screening of
//! every canonical point, epsilon-dominance pruning, then full-scale
//! promotion with CI-width sequential stopping on the fault-campaign
//! cells. The Pareto frontier over (runtime overhead, hardware cost, SDC
//! rate) prints as a figure on stdout and lands as a JSON artifact
//! (`--out`); both are byte-identical at any `--threads` count and
//! between direct execution and a `--workers` fleet. `--store DIR`
//! memoizes every job's payload; `--resume` re-runs a sweep against that
//! store, skipping everything already evaluated. The run records the
//! `explore` block (grid/pruning/job counts) in `BENCH_reproduce.json`.
//!
//! `trace` exports one kernel's resilience-event timeline under a scheme
//! (default `turnpike`; see `Scheme::cli_name` for the ladder names) as
//! Chrome trace-event JSON — load it in ui.perfetto.dev — or as raw JSONL.
//! Resilient schemes get one deterministic datapath strike at 25% of the
//! fault-free cycle count, so the export always shows a full
//! strike→detection→recovery arc.
//!
//! `sim-throughput` measures fault-free simulator speed (wall-clock
//! nanoseconds per retired instruction, interpreter vs. superblock
//! dispatch) over the whole kernel catalog and records the
//! `sim_throughput` block.
//!
//! Every generating invocation also records its perf block — target, scale,
//! threads, cache flag, total plus per-figure wall-clock milliseconds, and
//! a histogram summary block (p50/p99/max of SB residency, verification
//! latency, detection latency, recovery penalty, and compile/sim stage
//! times) — so harness performance is tracked over time.
//! `BENCH_reproduce.json` is a single JSON object keyed by block name
//! (`"all"`, `"fig21"`, `"loadgen"`, `"sim_throughput"`, ...); each writer
//! merges its block and preserves the others (see `report.rs`). Timing goes
//! there and to stderr, never to stdout.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use turnpike_bench::{
    coordinate, export_trace, fault_probe_metrics, find_kernel, hist_summary_json, json_string,
    target_by_name, write_block, CoordinateConfig, Engine, EngineExecutor, Table, Target,
    TraceFormat, TARGETS,
};
use turnpike_metrics::{Hist, MetricSet};
use turnpike_resilience::{par_map, RunSpec, Scheme};
use turnpike_serve::{
    loadgen, loadgen_fleet, Arrival, Client, FleetLoadgenConfig, JobKind, JobRequest,
    LoadgenConfig, Outcome, Server, ServerConfig, Store,
};
use turnpike_sim::{Core, RunOpts, Translation};
use turnpike_workloads::{all_kernels, Scale, Suite};

/// The target list rendered from the registry, one aligned line per target.
fn target_listing() -> String {
    let width = TARGETS
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(0)
        .max("all".len());
    let mut out = String::new();
    for t in &TARGETS {
        out.push_str(&format!("  {:width$}  {}\n", t.name, t.paper_ref));
    }
    out.push_str(&format!(
        "  {:width$}  every target above, in that order\n",
        "all"
    ));
    out
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: reproduce <target> [--smoke] [--json] [--threads N] [--no-cache]\n\
         \x20      reproduce trace <kernel> [--scheme S] [--smoke] [--format chrome|jsonl] [--out FILE]\n\
         \x20      reproduce serve [--addr A] [--workers N] [--queue N] [--timeout-secs N]\n\
         \x20                      [--store DIR [--store-cap BYTES]] [--flight-dir DIR]\n\
         \x20                      [--threads N] [--trace-out FILE]\n\
         \x20      reproduce submit [--addr A | --direct [--store DIR] [--threads N]] [--progress]\n\
         \x20                       [--kind K] [--kernel K] [--scheme S] [--scale smoke|full]\n\
         \x20                       [--sb N] [--wcdl N] [--runs N] [--seed N] [--strikes N]\n\
         \x20                       [--clq C] [--colors N] [--geom G] [--target T] [--tag T]\n\
         \x20      reproduce submit [--addr A] --stats|--shutdown\n\
         \x20      reproduce loadgen [--addr A] [--clients N] [--jobs N] [--max-retries N] [job fields]\n\
         \x20      reproduce coordinate --workers A,B,... [--shards N] [--max-retries N]\n\
         \x20                           [--progress] [job fields]\n\
         \x20      reproduce fleet-bench [--runs N] [--shards N] [--jobs N] [--rate R] [--seed N]\n\
         \x20      reproduce watch [--addr A | --workers A,B,...] [--interval-ms N] [--once]\n\
         \x20      reproduce telemetry [--smoke] [--kernel K] [--runs N] [--seed N] [--threads N]\n\
         \x20                          [--stop-ci W] [--records FILE [--max-records N]]\n\
         \x20      reproduce explore [--smoke|--full] [--threads N] [--workers A,B,...]\n\
         \x20                        [--store DIR [--resume]] [--seed N] [--epsilon X] [--out FILE]\n\
         \x20      reproduce sim-throughput [--smoke] [--reps N]\n\
         \x20      reproduce --list\n\
         options:\n\
         \x20 --threads N      evaluation worker threads, N >= 1 (default: all hardware threads)\n\
         \x20 --progress       live progress bar (rate +/- Wilson CI, strikes/s, ETA) for campaigns\n\
         \x20 --flight-dir D   dump failed/deadlined/quarantined jobs' lifecycle rings to D\n\
         \x20 --max-records N  reservoir-cap strike-record JSONL output (default: unbounded)\n\
         targets:\n{}",
        target_listing()
    );
    ExitCode::from(2)
}

/// Parse the value of `--threads`: a positive thread count, with a clear
/// message on anything else (`0` silently meaning "default" was a trap).
fn parse_threads(v: Option<&String>) -> Result<usize, ExitCode> {
    match v.map(|s| s.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Ok(n),
        _ => {
            eprintln!(
                "reproduce: --threads must be an integer >= 1 \
                 (default: all hardware threads, {} here)",
                default_threads()
            );
            Err(ExitCode::from(2))
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `reproduce trace <kernel> [--scheme S] [--smoke|--full] [--format F]
/// [--out FILE]` — export one kernel's resilience-event timeline.
fn trace_main(args: &[String]) -> ExitCode {
    let mut kernel: Option<String> = None;
    let mut scheme = Scheme::Turnpike;
    let mut scale = Scale::Full;
    let mut format = TraceFormat::Chrome;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--scheme" => {
                let Some(s) = it.next().and_then(|v| Scheme::parse(v)) else {
                    eprintln!(
                        "reproduce trace: --scheme takes one of: {}",
                        [Scheme::Baseline]
                            .iter()
                            .chain(Scheme::LADDER.iter())
                            .map(|s| s.cli_name())
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    return ExitCode::from(2);
                };
                scheme = s;
            }
            "--format" => {
                let Some(f) = it.next().and_then(|v| TraceFormat::parse(v)) else {
                    eprintln!("reproduce trace: --format takes 'chrome' or 'jsonl'");
                    return ExitCode::from(2);
                };
                format = f;
            }
            "--out" => {
                let Some(f) = it.next() else {
                    return usage();
                };
                out = Some(f.clone());
            }
            k if kernel.is_none() && !k.starts_with('-') => kernel = Some(k.to_string()),
            _ => return usage(),
        }
    }
    let Some(name) = kernel else {
        return usage();
    };
    let Some(k) = find_kernel(&name, scale) else {
        eprintln!("reproduce trace: unknown kernel '{name}'");
        return ExitCode::from(2);
    };
    let text = match export_trace(&k, &RunSpec::new(scheme), format) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reproduce trace: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("reproduce trace: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "# wrote {path} ({} bytes, {} scheme {}){}",
                text.len(),
                name,
                scheme.cli_name(),
                if format == TraceFormat::Chrome {
                    " — load it in ui.perfetto.dev"
                } else {
                    ""
                }
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Default server address shared by `submit` and `loadgen` (`serve`
/// defaults to port 0 — OS-assigned — and prints the bound address).
const DEFAULT_ADDR: &str = "127.0.0.1:8642";

/// Consume one job-shaped flag into `req`. `Ok(true)` when `flag` was a
/// job field (its value consumed), `Ok(false)` when it belongs to the
/// caller, `Err` on a bad value.
fn job_flag(req: &mut JobRequest, flag: &str, value: Option<&String>) -> Result<bool, String> {
    let need = |v: Option<&String>| v.cloned().ok_or_else(|| format!("{flag} needs a value"));
    let need_u64 = |v: Option<&String>| {
        need(v)?
            .parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    match flag {
        "--kind" => {
            let v = need(value)?;
            req.kind = JobKind::parse(&v)
                .ok_or_else(|| format!("--kind takes compile|run|campaign|figure, got '{v}'"))?;
        }
        "--kernel" => req.kernel = need(value)?,
        "--scheme" => req.scheme = need(value)?,
        "--scale" => req.scale = need(value)?,
        "--sb" => {
            req.sb =
                u32::try_from(need_u64(value)?).map_err(|_| "--sb out of range".to_string())?;
        }
        "--wcdl" => req.wcdl = need_u64(value)?,
        "--runs" => req.runs = need_u64(value)?,
        "--seed" => req.seed = need_u64(value)?,
        "--strikes" => req.strikes = need_u64(value)?,
        "--target" => req.target = need(value)?,
        "--clq" => req.clq = need(value)?,
        "--colors" => {
            let v = need_u64(value)?;
            if v > 255 {
                return Err("--colors must be <= 255".to_string());
            }
            req.colors = v;
        }
        "--geom" => req.geom = need(value)?,
        "--tag" => req.tag = need(value)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parse a byte budget: a plain integer, optionally suffixed `k`/`m`/`g`
/// (binary multiples, case-insensitive).
fn parse_bytes(v: &str) -> Option<u64> {
    let (digits, unit) = match v.char_indices().last()? {
        (i, c) if c.is_ascii_alphabetic() => (&v[..i], c.to_ascii_lowercase()),
        _ => (v, ' '),
    };
    let n: u64 = digits.parse().ok()?;
    let shift = match unit {
        ' ' => 0,
        'k' => 10,
        'm' => 20,
        'g' => 30,
        _ => return None,
    };
    n.checked_shl(shift)
}

/// `reproduce serve` — run the job server until a client sends `shutdown`.
fn serve_main(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut threads = default_threads();
    let mut store: Option<String> = None;
    let mut store_cap: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => config.addr = v.clone(),
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.workers = n,
                _ => {
                    eprintln!("reproduce serve: --workers must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.queue_capacity = n,
                _ => {
                    eprintln!("reproduce serve: --queue must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--timeout-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.job_timeout = Duration::from_secs(n),
                _ => {
                    eprintln!("reproduce serve: --timeout-secs must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--store" => match it.next() {
                Some(v) => store = Some(v.clone()),
                None => return usage(),
            },
            "--store-cap" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) if n >= 1 => store_cap = Some(n),
                _ => {
                    eprintln!(
                        "reproduce serve: --store-cap takes a byte budget \
                         (plain bytes or k/m/g suffix), e.g. 256m"
                    );
                    return ExitCode::from(2);
                }
            },
            "--flight-dir" => match it.next() {
                Some(v) => config.flight_dir = Some(v.into()),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(v) => config.trace_path = Some(v.into()),
                None => return usage(),
            },
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(code) => return code,
            },
            _ => return usage(),
        }
    }
    if store_cap.is_some() && store.is_none() {
        eprintln!("reproduce serve: --store-cap requires --store DIR");
        return ExitCode::from(2);
    }
    let mut executor = EngineExecutor::new(Engine::new(threads));
    if let Some(dir) = &store {
        executor = executor.with_store(Store::open(dir));
    }
    if let Some(cap) = store_cap {
        executor = executor.with_store_cap(cap);
    }
    let server = match Server::start(config.clone(), std::sync::Arc::new(executor)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("reproduce serve: bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    // The bound address goes to stdout (and nothing else does) so scripts
    // using --addr 127.0.0.1:0 can discover the OS-assigned port.
    println!("serving {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "# serve: {} workers, queue {}, timeout {}s, {} engine threads, store {}, flight {}",
        config.workers,
        config.queue_capacity,
        config.job_timeout.as_secs(),
        threads,
        match (&store, store_cap) {
            (Some(dir), Some(cap)) => format!("{dir} (cap {cap} bytes)"),
            (Some(dir), None) => dir.clone(),
            (None, _) => "off".to_string(),
        },
        config
            .flight_dir
            .as_deref()
            .map_or("off", |p| p.to_str().unwrap_or("on")),
    );
    server.join();
    eprintln!("# serve: drained and shut down");
    ExitCode::SUCCESS
}

/// `reproduce submit` — send one job (or `--stats`/`--shutdown`) to a
/// server, or run it locally with `--direct` through the exact same
/// executor and artifact store.
fn submit_main(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut req = JobRequest::new(JobKind::Run);
    let mut direct = false;
    let mut store: Option<String> = None;
    let mut threads = default_threads();
    let mut stats = false;
    let mut shutdown = false;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return usage(),
            },
            "--direct" => direct = true,
            "--progress" => progress = true,
            "--store" => match it.next() {
                Some(v) => store = Some(v.clone()),
                None => return usage(),
            },
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(code) => return code,
            },
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            _ => {
                // Two-phase because job_flag consumes the value.
                let value = if flag.starts_with("--") {
                    it.clone().next()
                } else {
                    None
                };
                match job_flag(&mut req, flag, value) {
                    Ok(true) => {
                        it.next();
                    }
                    Ok(false) | Err(_) if flag == "--help" => return usage(),
                    Ok(false) => return usage(),
                    Err(e) => {
                        eprintln!("reproduce submit: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    if stats || shutdown {
        let mut client = match Client::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("reproduce submit: connect {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let done = if stats {
            client.stats().map(|body| println!("{body}"))
        } else {
            client
                .shutdown()
                .map(|()| eprintln!("# server is shutting down"))
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("reproduce submit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if direct {
        let mut executor = EngineExecutor::new(Engine::new(threads));
        if let Some(dir) = &store {
            executor = executor.with_store(Store::open(dir));
        }
        return match executor.execute_direct(&req) {
            Ok(out) => {
                println!("{}", out.result);
                eprintln!("# store: {}", out.store.name());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("reproduce submit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("reproduce submit: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // --progress rewrites one live line in place on a TTY (bare per-run
    // ticks included); piped stderr gets only the estimator-bearing
    // snapshots, one line each, so logs stay bounded.
    let tty = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let mut rendered_live = false;
    let on_progress = |done: u64, total: u64, stats: Option<&turnpike_serve::ProgressStats>| {
        if !progress {
            eprintln!("# progress: {done}/{total}");
            return;
        }
        let line = turnpike_bench::progress_line(done, total, stats);
        if tty {
            eprint!("\r\x1b[2K{line}");
            rendered_live = true;
        } else if stats.is_some() || done == total {
            eprintln!("# {line}");
        }
    };
    let outcome = client.submit_streaming(&req, on_progress);
    if rendered_live {
        eprintln!();
    }
    match outcome {
        Ok(Outcome::Done { job, store, result }) => {
            println!("{result}");
            eprintln!("# job {job} done, store: {store}");
            ExitCode::SUCCESS
        }
        Ok(Outcome::Overloaded { retry_after_ms }) => {
            eprintln!("reproduce submit: server overloaded, retry after {retry_after_ms} ms");
            ExitCode::from(3)
        }
        Ok(Outcome::ShuttingDown) => {
            eprintln!("reproduce submit: server is shutting down");
            ExitCode::FAILURE
        }
        Ok(Outcome::Error { job, message }) => {
            eprintln!("reproduce submit: job {job}: {message}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("reproduce submit: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `reproduce loadgen` — N concurrent clients against a server; prints the
/// report and records throughput/latency percentiles in
/// `BENCH_reproduce.json`. Fails if any job was lost or duplicated.
fn loadgen_main(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = LoadgenConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return usage(),
            },
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.clients = n,
                _ => {
                    eprintln!("reproduce loadgen: --clients must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.jobs_per_client = n,
                _ => {
                    eprintln!("reproduce loadgen: --jobs must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--max-retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_retries = n,
                None => {
                    eprintln!("reproduce loadgen: --max-retries must be an integer");
                    return ExitCode::from(2);
                }
            },
            _ => {
                let value = if flag.starts_with("--") {
                    it.clone().next()
                } else {
                    None
                };
                match job_flag(&mut cfg.request, flag, value) {
                    Ok(true) => {
                        it.next();
                    }
                    Ok(false) => return usage(),
                    Err(e) => {
                        eprintln!("reproduce loadgen: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    let sock_addr = match std::net::ToSocketAddrs::to_socket_addrs(&addr.as_str())
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(a) => a,
        None => {
            eprintln!("reproduce loadgen: bad address '{addr}'");
            return ExitCode::from(2);
        }
    };
    let report = match loadgen(sock_addr, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json();
    println!("{json}");
    eprintln!(
        "# loadgen: {} clients x {} jobs, {} completed, {} overloaded rejections, \
         {:.1} jobs/s, p50 {} us, p99 {} us",
        cfg.clients,
        cfg.jobs_per_client,
        report.completed,
        report.overloaded,
        report.throughput(),
        report.latency.quantile(0.50).round() as u64,
        report.latency.quantile(0.99).round() as u64,
    );
    let record = format!(
        "{{\n  \"target\": \"loadgen\",\n  \"addr\": {},\n  \"clients\": {},\n  \
         \"jobs_per_client\": {},\n  \"report\": {}\n}}",
        json_string(&addr),
        cfg.clients,
        cfg.jobs_per_client,
        json
    );
    if let Err(e) = write_block("BENCH_reproduce.json", "loadgen", &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    if report.lost > 0 || report.duplicated > 0 || report.errors > 0 {
        eprintln!(
            "reproduce loadgen: delivery violated exactly-once ({} lost, {} duplicated, {} errors)",
            report.lost, report.duplicated, report.errors
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `reproduce watch [--addr A] [--interval-ms N] [--once]` — poll a
/// running server's `stats` snapshot and `metrics` exposition, printing a
/// compact health summary per tick (see `watch.rs` for the renderer).
fn watch_main(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut workers: Option<String> = None;
    let mut interval_ms = 1000u64;
    let mut once = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return usage(),
            },
            "--workers" => match it.next() {
                Some(v) => workers = Some(v.clone()),
                None => return usage(),
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 50 => interval_ms = n,
                _ => {
                    eprintln!("reproduce watch: --interval-ms must be an integer >= 50");
                    return ExitCode::from(2);
                }
            },
            "--once" => once = true,
            _ => return usage(),
        }
    }
    // Fleet mode: one aggregated view over every worker per tick. A dead
    // worker is rendered as unreachable instead of failing the watch —
    // seeing the hole in the fleet is exactly what the operator wants.
    if let Some(list) = &workers {
        let addrs: Vec<String> = list.split(',').map(str::to_string).collect();
        loop {
            let snapshot: Vec<(String, Result<String, String>)> = addrs
                .iter()
                .map(|a| {
                    let stats = Client::connect(a)
                        .and_then(|mut c| c.stats())
                        .map_err(|e| e.to_string());
                    (a.clone(), stats)
                })
                .collect();
            print!("{}", turnpike_bench::render_fleet_watch(&snapshot));
            if once {
                return ExitCode::SUCCESS;
            }
            println!("---");
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
    loop {
        let snapshot = Client::connect(&addr).and_then(|mut c| {
            let stats = c.stats()?;
            let metrics = c.metrics()?;
            Ok(turnpike_bench::render_watch(&stats, &metrics))
        });
        match snapshot {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("reproduce watch: {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        println!("---");
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// `reproduce coordinate` — shard one campaign by run-index range across
/// a fleet of `reproduce serve` workers and print the merged payload,
/// byte-identical to running the same campaign in a single process. A
/// worker that dies mid-campaign has its shard re-dispatched to the
/// survivors; only a fleet-wide failure (or a deterministic job error)
/// fails the coordination.
fn coordinate_main(args: &[String]) -> ExitCode {
    let mut workers_arg: Option<String> = None;
    let mut cfg = CoordinateConfig::default();
    let mut progress = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--workers" => match it.next() {
                Some(v) => workers_arg = Some(v.clone()),
                None => return usage(),
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.shards = n,
                _ => {
                    eprintln!("reproduce coordinate: --shards must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--max-retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_retries = n,
                None => {
                    eprintln!("reproduce coordinate: --max-retries must be an integer");
                    return ExitCode::from(2);
                }
            },
            "--progress" => progress = true,
            _ => {
                let value = if flag.starts_with("--") {
                    it.clone().next()
                } else {
                    None
                };
                match job_flag(&mut cfg.request, flag, value) {
                    Ok(true) => {
                        it.next();
                    }
                    Ok(false) => return usage(),
                    Err(e) => {
                        eprintln!("reproduce coordinate: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    let Some(workers_arg) = workers_arg else {
        eprintln!("reproduce coordinate: --workers host:port[,host:port...] is required");
        return ExitCode::from(2);
    };
    let mut workers = Vec::new();
    for part in workers_arg.split(',') {
        match std::net::ToSocketAddrs::to_socket_addrs(&part)
            .ok()
            .and_then(|mut a| a.next())
        {
            Some(a) => workers.push(a),
            None => {
                eprintln!("reproduce coordinate: bad worker address '{part}'");
                return ExitCode::from(2);
            }
        }
    }
    // Live progress only on a TTY: worker threads report concurrently and
    // a log file full of interleaved bar rewrites helps nobody.
    let tty = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let on_progress = move |done: u64, total: u64| {
        if tty {
            eprint!(
                "\r\x1b[2K{}",
                turnpike_bench::progress_line(done, total, None)
            );
        }
    };
    let hook: Option<&(dyn Fn(u64, u64) + Sync)> = if progress { Some(&on_progress) } else { None };
    let report = match coordinate(&workers, &cfg, hook) {
        Ok(r) => r,
        Err(e) => {
            if progress && tty {
                eprintln!();
            }
            eprintln!("reproduce coordinate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if progress && tty {
        eprintln!();
    }
    // Stdout carries only the merged payload so scripts can byte-diff it
    // against `submit --direct` output.
    println!("{}", report.payload);
    eprintln!(
        "# coordinate: {} workers, {} shards ({} reassigned), {} runs in {} ms ({:.1} runs/s)",
        report.workers.len(),
        report.shards,
        report.reassigned,
        cfg.request.runs,
        report.wall_us / 1000,
        cfg.request.runs as f64 * 1.0e6 / report.wall_us.max(1) as f64,
    );
    for w in &report.workers {
        eprintln!(
            "#   {}  {} shards, {} runs{}",
            w.addr,
            w.shards_done,
            w.runs_done,
            if w.alive { "" } else { " (left the fleet)" }
        );
    }
    ExitCode::SUCCESS
}

/// `reproduce fleet-bench` — the distributed-execution benchmark behind
/// the `distributed` block of `BENCH_reproduce.json`.
///
/// Spins up in-process single-threaded workers so the measurement isolates
/// the *dispatch layer*: the same campaign is coordinated across 1 and
/// then 2 workers (the three payloads — direct, 1-worker, 2-worker — must
/// be byte-identical), and the wall-clock ratio is the fleet speedup. Then
/// an open-loop load generator (Poisson and bursty arrivals, seeded) drives
/// the 2-worker fleet and reports p50/p99/p99.9 latency measured from each
/// job's *scheduled* arrival — coordinated omission is counted, not hidden
/// — plus per-worker busy-time utilization.
fn fleet_bench_main(args: &[String]) -> ExitCode {
    let mut runs = 2048u64;
    let mut shards = 8usize;
    let mut jobs = 48usize;
    let mut rate = 60.0f64;
    let mut seed = 0xF1EE7u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => runs = n,
                _ => {
                    eprintln!("reproduce fleet-bench: --runs must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    eprintln!("reproduce fleet-bench: --shards must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("reproduce fleet-bench: --jobs must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--rate" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => rate = r,
                _ => {
                    eprintln!("reproduce fleet-bench: --rate must be a positive jobs/s");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("reproduce fleet-bench: --seed must be an integer");
                    return ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }

    // One engine thread per worker: fleet speedup must come from the
    // dispatch layer spreading shards, not from intra-worker parallelism.
    let start_worker = || {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        Server::start(config, Arc::new(EngineExecutor::new(Engine::new(1))))
    };
    let stop_worker = |server: Server| {
        if let Ok(mut c) = Client::connect(server.addr()) {
            let _ = c.shutdown();
        }
        server.join();
    };

    let mut campaign = JobRequest::new(JobKind::Campaign);
    campaign.runs = runs;
    let direct = match EngineExecutor::new(Engine::new(1)).execute_direct(&campaign) {
        Ok(out) => out.result,
        Err(e) => {
            eprintln!("reproduce fleet-bench: direct campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The same sharded campaign against fleets of 1 and 2 workers.
    let mut walls = Vec::new();
    let mut payloads = Vec::new();
    for fleet_size in [1usize, 2] {
        let servers: Vec<Server> = match (0..fleet_size).map(|_| start_worker()).collect() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("reproduce fleet-bench: worker start failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(Server::addr).collect();
        let cfg = CoordinateConfig {
            request: campaign.clone(),
            shards,
            ..CoordinateConfig::default()
        };
        let report = match coordinate(&addrs, &cfg, None) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("reproduce fleet-bench: coordinate ({fleet_size}w) failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "# fleet-bench: campaign {runs} runs x {shards} shards on {fleet_size} worker(s): {} ms",
            report.wall_us / 1000
        );
        walls.push(report.wall_us);
        payloads.push(report.payload);
        for s in servers {
            stop_worker(s);
        }
    }
    let identical = payloads.iter().all(|p| *p == direct);
    if !identical {
        eprintln!("reproduce fleet-bench: distributed payloads diverged from the direct run");
        return ExitCode::FAILURE;
    }
    let speedup = walls[0] as f64 / walls[1].max(1) as f64;
    // The speedup is only meaningful with a core per worker: the block
    // records the host's parallelism so a 1-CPU CI container's ~1.0x is
    // read as a machine limit, not a dispatch-layer regression.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "# fleet-bench: payloads byte-identical, 2-worker speedup {speedup:.2}x ({cpus} cpus)"
    );
    if cpus < 2 {
        eprintln!("# fleet-bench: single-CPU host; a 2-worker fleet cannot beat one worker here");
    }

    // Open-loop load across a 2-worker fleet, Poisson then bursty.
    let servers: Vec<Server> = match (0..2).map(|_| start_worker()).collect() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("reproduce fleet-bench: worker start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(Server::addr).collect();
    let mut fleet_reports = Vec::new();
    for arrival in [
        Arrival::Poisson { rate_per_s: rate },
        Arrival::Bursty {
            burst: 8,
            idle_ms: 100,
        },
    ] {
        let cfg = FleetLoadgenConfig {
            jobs,
            arrival,
            seed,
            request: JobRequest::new(JobKind::Run),
            max_retries: 1000,
        };
        match loadgen_fleet(&addrs, &cfg) {
            Ok(r) => {
                eprintln!(
                    "# fleet-bench: {} arrivals: {} jobs, {:.1} jobs/s, p99.9 {} us",
                    cfg.arrival.name(),
                    r.completed,
                    r.throughput(),
                    r.latency.quantile(0.999).round() as u64,
                );
                fleet_reports.push((cfg.arrival.name().to_string(), r.to_json()));
            }
            Err(e) => {
                eprintln!(
                    "reproduce fleet-bench: loadgen ({}) failed: {}",
                    cfg.arrival.name(),
                    e
                );
                return ExitCode::FAILURE;
            }
        }
    }
    for s in servers {
        stop_worker(s);
    }

    let mut record = format!(
        "{{\n  \"target\": \"fleet-bench\",\n  \"cpus\": {cpus},\n  \"campaign\": \
         {{\"runs\": {runs}, \"shards\": {shards}, \"wall_us_1w\": {}, \"wall_us_2w\": {}, \
         \"speedup_2w\": {speedup:.3}, \"identical\": {identical}}}",
        walls[0], walls[1]
    );
    for (name, json) in &fleet_reports {
        record.push_str(&format!(",\n  \"{name}\": {json}"));
    }
    record.push_str("\n}");
    if let Err(e) = write_block("BENCH_reproduce.json", "distributed", &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    ExitCode::SUCCESS
}

/// `reproduce telemetry` — measure the telemetry spine itself. Every
/// Fig-21 ladder rung's campaign runs twice, untelemetered and with
/// streaming progress snapshots; the two reports must be bit-identical
/// (that is the spine's core guarantee) and the wall-clock delta is
/// recorded as the `telemetry` block of `BENCH_reproduce.json`.
///
/// Stdout carries only the deterministic per-rung reports (plus the
/// deterministic `--stop-ci` outcome), so CI can byte-diff it across
/// thread counts; timing goes to stderr and the JSON block.
fn telemetry_main(args: &[String]) -> ExitCode {
    use turnpike_metrics::RateEstimator;
    use turnpike_resilience::{
        fault_campaign_shard_hooked, write_strike_records, CampaignConfig, CampaignHook,
        CampaignProgress, StopRule,
    };

    let mut scale = Scale::Full;
    let mut kernel_name = "bwaves".to_string();
    let mut runs = 48usize;
    let mut seed = 7u64;
    let mut threads = default_threads();
    let mut stop_ci: Option<f64> = None;
    let mut records_path: Option<String> = None;
    let mut max_records: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--kernel" => match it.next() {
                Some(v) => kernel_name = v.clone(),
                None => return usage(),
            },
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => runs = n,
                _ => {
                    eprintln!("reproduce telemetry: --runs must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("reproduce telemetry: --seed must be an integer");
                    return ExitCode::from(2);
                }
            },
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(code) => return code,
            },
            "--stop-ci" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(w) if w > 0.0 && w < 0.5 => stop_ci = Some(w),
                _ => {
                    eprintln!("reproduce telemetry: --stop-ci must be a half-width in (0, 0.5)");
                    return ExitCode::from(2);
                }
            },
            "--records" => match it.next() {
                Some(v) => records_path = Some(v.clone()),
                None => return usage(),
            },
            "--max-records" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => max_records = Some(n),
                _ => {
                    eprintln!("reproduce telemetry: --max-records must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }
    let Some(kernel) = find_kernel(&kernel_name, scale) else {
        eprintln!("reproduce telemetry: unknown kernel '{kernel_name}'");
        return ExitCode::from(2);
    };
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
    let snapshots = std::sync::atomic::AtomicUsize::new(0);
    let (mut wall_off_us, mut wall_on_us) = (0u128, 0u128);
    let mut rung_rows = String::new();
    let mut turnpike_records = Vec::new();
    for scheme in Scheme::LADDER {
        let spec = RunSpec::new(scheme);
        let t0 = Instant::now();
        let off = fault_campaign_shard_hooked(
            &kernel.program,
            &spec,
            &config,
            threads,
            CampaignHook::default(),
            0,
        );
        let off_us = t0.elapsed().as_micros();
        let on_progress = |p: &CampaignProgress| {
            snapshots.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Touch the full payload the way a renderer would, so the
            // measured overhead includes building every estimator field.
            std::hint::black_box((p.sdc_rate.wilson_bounds(), p.strikes_per_sec, p.eta_ms));
        };
        let hook = CampaignHook {
            on_progress: Some(&on_progress),
            ..CampaignHook::default()
        };
        let t0 = Instant::now();
        let on = fault_campaign_shard_hooked(&kernel.program, &spec, &config, threads, hook, 0);
        let on_us = t0.elapsed().as_micros();
        let ((off_report, off_records, _), (on_report, _, _)) = match (off, on) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("reproduce telemetry: {}: {e}", scheme.cli_name());
                return ExitCode::FAILURE;
            }
        };
        if off_report != on_report {
            eprintln!(
                "reproduce telemetry: {}: progress snapshots changed the report\n  off: {off_report:?}\n  on:  {on_report:?}",
                scheme.cli_name()
            );
            return ExitCode::FAILURE;
        }
        wall_off_us += off_us;
        wall_on_us += on_us;
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
    let snapshots = snapshots.load(std::sync::atomic::Ordering::Relaxed) / 2;
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
        let spec = RunSpec::new(Scheme::Turnpike);
        let report = match fault_campaign_shard_hooked(
            &kernel.program,
            &spec,
            &stop_config,
            threads,
            CampaignHook::default(),
            0,
        ) {
            Ok((r, _, _)) => r,
            Err(e) => {
                eprintln!("reproduce telemetry: stop-ci campaign: {e}");
                return ExitCode::FAILURE;
            }
        };
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
        match write_strike_records(&turnpike_records, max_records, seed, path) {
            Ok(()) => eprintln!(
                "# wrote {path}: {} strike records{}",
                turnpike_records
                    .len()
                    .min(max_records.unwrap_or(usize::MAX)),
                match max_records {
                    Some(cap) => format!(" (reservoir cap {cap} of {})", turnpike_records.len()),
                    None => String::new(),
                }
            ),
            Err(e) => {
                eprintln!("reproduce telemetry: write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let record = format!(
        "{{\n  \"scale\": {},\n  \"kernel\": {},\n  \"runs\": {runs},\n  \"seed\": {seed},\n  \
         \"threads\": {threads},\n  \"wall_off_ms\": {},\n  \"wall_on_ms\": {},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"snapshots_per_pass\": {snapshots}{stop_json},\n  \
         \"rungs\": [\n{rung_rows}\n  ]\n}}",
        json_string(match scale {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }),
        json_string(&kernel_name),
        wall_off_us / 1000,
        wall_on_us / 1000,
    );
    if let Err(e) = write_block("BENCH_reproduce.json", "telemetry", &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    ExitCode::SUCCESS
}

/// `reproduce explore [--smoke|--full] [--threads N] [--workers A,B,...]
/// [--store DIR] [--resume] [--seed N] [--epsilon X] [--out FILE]` — run
/// the staged cross-layer design-space exploration and emit the Pareto
/// frontier.
///
/// The frontier table goes to stdout (golden-diffable: byte-identical at
/// any `--threads` count and identical between direct execution and a
/// `--workers` fleet); the full frontier artifact goes to `--out`
/// (default `explore_frontier.json`); stage-by-stage progress — grid
/// size, pruning counts, campaign rounds, store traffic — goes to stderr;
/// and the run records the `explore` block of `BENCH_reproduce.json`.
/// `--resume` (requires `--store`) re-runs a sweep against its artifact
/// store so every already-evaluated job is a store hit instead of a
/// simulation; the stderr summary reports how many jobs were skipped.
fn explore_main(args: &[String]) -> ExitCode {
    use turnpike_bench::explore::{
        frontier_json, frontier_table, run_explore, ExploreConfig, JobRunner,
    };

    let mut cfg = ExploreConfig::full();
    let mut threads = default_threads();
    let mut workers: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut out_path = "explore_frontier.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg = ExploreConfig::smoke(),
            "--full" => cfg = ExploreConfig::full(),
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(code) => return code,
            },
            "--workers" => match it.next() {
                Some(v) => workers = v.split(',').map(str::to_string).collect(),
                None => return usage(),
            },
            "--store" => match it.next() {
                Some(v) => store_dir = Some(v.clone()),
                None => return usage(),
            },
            "--resume" => resume = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => {
                    eprintln!("reproduce explore: --seed must be an integer");
                    return ExitCode::from(2);
                }
            },
            "--epsilon" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(e) if e > 0.0 => cfg.epsilon = e,
                _ => {
                    eprintln!("reproduce explore: --epsilon must be a float > 0");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(v) => out_path = v.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if resume && store_dir.is_none() {
        eprintln!("reproduce explore: --resume needs --store DIR (the store holds the artifacts a resumed sweep skips)");
        return ExitCode::from(2);
    }
    if !workers.is_empty() && store_dir.is_some() {
        eprintln!("reproduce explore: --store is the direct path's; with --workers, give each worker its own (serve --store)");
        return ExitCode::from(2);
    }
    let runner = if workers.is_empty() {
        // The executor's engine is serial: explore parallelism is
        // batch-level (whole jobs fan out over `--threads`), which keeps
        // every payload — including campaign payloads — independent of
        // the thread count by construction.
        let mut exec = EngineExecutor::new(Engine::serial());
        if let Some(dir) = &store_dir {
            exec = exec.with_store(Store::open(dir));
        }
        JobRunner::Direct { exec, threads }
    } else {
        JobRunner::Fleet {
            workers: workers.clone(),
        }
    };
    eprintln!(
        "# explore: {} scale, seed {:#x}, epsilon {}, {}",
        cfg.scale_label(),
        cfg.seed,
        cfg.epsilon,
        if workers.is_empty() {
            format!("{threads} threads")
        } else {
            format!("{} workers", workers.len())
        }
    );
    let t0 = Instant::now();
    let report = match run_explore(&runner, &cfg, &mut |line| eprintln!("# explore: {line}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce explore: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = t0.elapsed().as_millis();
    if resume {
        eprintln!(
            "# explore: resume: {} of {} jobs served from the store",
            report.counts.store_hits, report.counts.jobs
        );
    }

    println!("{}", frontier_table(&report));
    let artifact = frontier_json(&cfg, &report);
    if let Err(e) = std::fs::write(&out_path, &artifact) {
        eprintln!("reproduce explore: write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "# explore: wrote {out_path} ({} bytes, {} promoted points, {} on the frontier) in {wall_ms} ms",
        artifact.len(),
        report.counts.promoted,
        report.counts.frontier
    );

    let c = report.counts;
    let record = format!(
        "{{\n  \"scale\": {},\n  \"seed\": {},\n  \"epsilon\": {},\n  \"grid_raw\": {},\n  \
         \"grid_canonical\": {},\n  \"promoted\": {},\n  \"frontier\": {},\n  \"jobs\": {},\n  \
         \"store_hits\": {},\n  \"campaign_runs\": {},\n  \"threads\": {},\n  \"workers\": {},\n  \
         \"wall_ms\": {wall_ms}\n}}",
        json_string(cfg.scale_label()),
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
    );
    if let Err(e) = write_block("BENCH_reproduce.json", "explore", &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    ExitCode::SUCCESS
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
fn sim_throughput_main(args: &[String]) -> ExitCode {
    let mut scale = Scale::Full;
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => {
                    eprintln!("reproduce sim-throughput: --reps must be an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }
    let scale_name = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
    let suite_key = |s: Suite| match s {
        Suite::Cpu2006 => "cpu2006",
        Suite::Cpu2017 => "cpu2017",
        Suite::Splash3 => "splash3",
    };
    eprintln!("# sim-throughput: {scale_name} scale, min of {reps} reps per cell");
    let mut rows = String::new();
    let (mut interp_ns, mut translated_ns, mut total_insts) = (0.0f64, 0.0f64, 0u64);
    for k in all_kernels(scale) {
        for scheme in [Scheme::Baseline, Scheme::Turnpike] {
            let spec = RunSpec::new(scheme);
            let compiled = match turnpike_compiler::compile(&k.program, &spec.compiler_config()) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("reproduce sim-throughput: compile {}: {e}", k.name);
                    return ExitCode::FAILURE;
                }
            };
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
                    let out = match core.run(RunOpts::default()) {
                        Ok(o) => o,
                        Err(e) => {
                            eprintln!("reproduce sim-throughput: run {}: {e}", k.name);
                            return ExitCode::FAILURE;
                        }
                    };
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
    let record = format!(
        "{{\n  \"scale\": {},\n  \"reps\": {reps},\n  \
         \"golden_path_ns_per_inst\": {golden:.1},\n  \
         \"interp_ns_per_inst\": {interp:.1},\n  \"speedup\": {:.2},\n  \
         \"kernels\": [\n{rows}\n  ]\n}}",
        json_string(scale_name),
        interp / golden,
    );
    if let Err(e) = write_block("BENCH_reproduce.json", "sim_throughput", &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    ExitCode::SUCCESS
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

/// Generate the requested tables with per-figure wall-clock. For `all`,
/// figures run concurrently (each with a slice of the thread budget) while
/// compiles and baseline runs dedup through the shared caches; results are
/// gathered in [`TARGETS`] order so output is deterministic.
fn generate(target: &str, scale: Scale, engine: &Engine) -> Option<Vec<FigureRun>> {
    if target != "all" {
        let t = target_by_name(target)?;
        return Some(vec![generate_one(t, scale, engine)]);
    }
    let outer = engine.threads().min(TARGETS.len());
    let inner = (engine.threads() / outer.max(1)).max(1);
    let per_figure = engine.with_threads(inner);
    Some(par_map(&TARGETS, outer, |_, t| {
        generate_one(t, scale, &per_figure)
    }))
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
    use turnpike_metrics::Counter;
    let scale_name = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"target\": {},\n", json_string(target)));
    out.push_str(&format!("  \"scale\": {},\n", json_string(scale_name)));
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => return trace_main(&args[1..]),
        Some("serve") => return serve_main(&args[1..]),
        Some("submit") => return submit_main(&args[1..]),
        Some("loadgen") => return loadgen_main(&args[1..]),
        Some("coordinate") => return coordinate_main(&args[1..]),
        Some("fleet-bench") => return fleet_bench_main(&args[1..]),
        Some("watch") => return watch_main(&args[1..]),
        Some("telemetry") => return telemetry_main(&args[1..]),
        Some("explore") => return explore_main(&args[1..]),
        Some("sim-throughput") => return sim_throughput_main(&args[1..]),
        _ => {}
    }
    let mut target: Option<String> = None;
    let mut scale = Scale::Full;
    let mut json = false;
    let mut cache = true;
    let mut threads = default_threads();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                print!("{}", target_listing());
                print!(
                    "subcommands:\n\
                     \x20 trace           export one kernel's resilience-event timeline\n\
                     \x20 serve           batch job server (--flight-dir DIR dumps failed-job evidence)\n\
                     \x20 submit          send one job (--progress: live rate/CI/ETA bar)\n\
                     \x20 loadgen         saturate a server; p50/p99/p99.9 client latency\n\
                     \x20 coordinate      shard a campaign across a worker fleet; merged payload\n\
                     \x20 fleet-bench     distributed speedup + open-loop fleet latency block\n\
                     \x20 watch           poll a server's stats + metrics exposition (--workers: fleet view)\n\
                     \x20 telemetry       measure progress-snapshot overhead (--max-records caps JSONL)\n\
                     \x20 explore         staged design-space exploration; Pareto frontier artifact\n\
                     \x20 sim-throughput  fault-free simulator speed\n"
                );
                return ExitCode::SUCCESS;
            }
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--json" => json = true,
            "--no-cache" => cache = false,
            "--threads" => match parse_threads(it.next()) {
                Ok(n) => threads = n,
                Err(code) => return code,
            },
            t if target.is_none() && !t.starts_with('-') => target = Some(t.to_string()),
            _ => return usage(),
        }
    }
    let Some(target) = target else {
        return usage();
    };
    if target != "all" && target_by_name(&target).is_none() {
        eprintln!("reproduce: unknown target '{target}'; known targets:");
        eprint!("{}", target_listing());
        return ExitCode::from(2);
    }
    let mut engine = Engine::new(threads);
    if !cache {
        engine = engine.without_cache();
    }
    // Run header on stderr (stdout is golden-diffed): the effective thread
    // count matters because --threads defaults to the machine's available
    // parallelism, so two hosts run the same command differently. Output is
    // byte-identical at any thread count; `--threads 1` additionally makes
    // the execution schedule itself deterministic.
    eprintln!(
        "# reproduce {target}: {threads} threads, {} scale, cache {}",
        match scale {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        },
        if cache { "on" } else { "off" },
    );
    let t0 = Instant::now();
    let Some(tables) = generate(&target, scale, &engine) else {
        return usage();
    };
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
        "# total: {wall_ms} ms ({} threads, cache {}, {} compiles, {} sims)",
        threads,
        if cache { "on" } else { "off" },
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
    let record = bench_json(&target, scale, threads, cache, wall_ms, &tables, &registry);
    if let Err(e) = write_block("BENCH_reproduce.json", &target, &record) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
    // The adaptive rung additionally records its per-kernel comparison
    // against the best uniform scheme (under the "adaptive" key, replacing
    // the generic perf block when the target itself was `adaptive`).
    if let Some(f) = tables.iter().find(|f| f.table.id == "adaptive") {
        let record = adaptive_block_json(&f.table, scale, f.wall_ms);
        if let Err(e) = write_block("BENCH_reproduce.json", "adaptive", &record) {
            eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
        }
    }
    ExitCode::SUCCESS
}

/// The `adaptive` block of `BENCH_reproduce.json`: per-kernel normalized
/// time of the adaptive rung against the best uniform scheme, plus the
/// figure's wall-clock (columns are pinned by the `adaptive` generator).
fn adaptive_block_json(table: &Table, scale: Scale, wall_ms: u128) -> String {
    let scale_name = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
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
        json_string(scale_name),
        g[2],
        g[3],
    )
}
