//! The networked subcommands: the job server, its client, the fleet
//! coordinator, the fleet benchmark and the health watch.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use crate::flags::{default_threads, Done, Fail, Flags, MAX_THREADS};
use turnpike_bench::{
    coordinate as coordinate_campaign, progress_line, render_fleet_watch, render_watch,
    CoordinateConfig, Engine, EngineExecutor,
};
use turnpike_serve::{
    loadgen_fleet, Arrival, Client, FleetLoadgenConfig, JobKind, JobRequest, Outcome, Server,
    ServerConfig, Store,
};

/// Default server address of `submit` and `watch` (`serve` defaults to
/// port 0 — OS-assigned — and prints the bound address).
const DEFAULT_ADDR: &str = "127.0.0.1:8642";

fn connect(addr: &str) -> Result<Client, Fail> {
    Client::connect(addr).map_err(|e| Fail::run(format!("connect {addr}: {e}")))
}

/// An executor over `engine`, sharing the artifact store at `store` if any.
pub fn executor(engine: Engine, store: Option<&str>) -> EngineExecutor {
    let exec = EngineExecutor::new(engine);
    match store {
        Some(dir) => exec.with_store(Store::open(dir)),
        None => exec,
    }
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

/// `reproduce serve` — run the batch job server (`turnpike-serve`) until a
/// client sends `shutdown`: line-delimited JSON over TCP, a bounded queue
/// with typed `overloaded` rejections, a worker pool over the shared
/// evaluation engine, an optional persistent artifact store (`--store DIR`,
/// shared with `submit --direct`), and graceful drain. `--flight-dir DIR`
/// enables the per-job flight recorder: failed, deadline-canceled, or
/// quarantine-tripping jobs dump their lifecycle event ring as
/// `DIR/job-<id>.jsonl`. The bound address is the only stdout line.
pub fn serve(f: &mut Flags) -> Done {
    let mut config = ServerConfig::default();
    let mut threads = default_threads();
    let (mut store, mut store_cap) = (None, None);
    while let Some(flag) = f.next() {
        match flag {
            "--addr" => config.addr = f.value()?,
            "--workers" => config.workers = f.num(1, MAX_THREADS)?,
            "--queue" => config.queue_capacity = f.num(1, u64::MAX)?,
            "--timeout-secs" => config.job_timeout = Duration::from_secs(f.num(1, u64::MAX)?),
            "--store" => store = Some(f.value()?),
            "--store-cap" => {
                let what = "a byte budget (plain bytes or k/m/g suffix), e.g. 256m";
                store_cap = Some(f.parsed(what, |v| parse_bytes(v).filter(|&n| n >= 1))?);
            }
            "--flight-dir" => config.flight_dir = Some(f.value()?.into()),
            "--trace-out" => config.trace_path = Some(f.value()?.into()),
            "--threads" => threads = f.threads()?,
            _ => return Err(f.unknown()),
        }
    }
    if store_cap.is_some() && store.is_none() {
        return Err(Fail::args("--store-cap requires --store DIR"));
    }
    let mut exec = executor(Engine::new(threads), store.as_deref());
    if let Some(cap) = store_cap {
        exec = exec.with_store_cap(cap);
    }
    let server = Server::start(config.clone(), Arc::new(exec))
        .map_err(|e| Fail::run(format!("bind {}: {e}", config.addr)))?;
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
    Ok(())
}

/// `reproduce submit` — send one compile/run/campaign/figure job (or
/// `--stats`/`--shutdown`) to a server and print the result payload on
/// stdout, or run it locally with `--direct` through the exact same
/// executor and artifact store: the payload is byte-identical either way.
/// `--progress` renders a live bar for campaign jobs — run counts, SDC
/// rate with its Wilson interval, windowed strikes/sec and an ETA.
pub fn submit(f: &mut Flags) -> Done {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut req = JobRequest::new(JobKind::Run);
    let (mut direct, mut progress, mut stats, mut shutdown) = (false, false, false, false);
    let mut store = None;
    let mut threads = default_threads();
    while let Some(flag) = f.next() {
        match flag {
            "--addr" => addr = f.value()?,
            "--direct" => direct = true,
            "--progress" => progress = true,
            "--store" => store = Some(f.value()?),
            "--threads" => threads = f.threads()?,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            _ if f.job(&mut req)? => {}
            _ => return Err(f.unknown()),
        }
    }
    if stats {
        println!("{}", connect(&addr)?.stats().map_err(Fail::run)?);
        return Ok(());
    }
    if shutdown {
        connect(&addr)?.shutdown().map_err(Fail::run)?;
        eprintln!("# server is shutting down");
        return Ok(());
    }
    if direct {
        let exec = executor(Engine::new(threads), store.as_deref());
        let out = exec.execute_direct(&req).map_err(Fail::run)?;
        println!("{}", out.result);
        eprintln!("# store: {}", out.store.name());
        return Ok(());
    }
    let mut client = connect(&addr)?;
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
        let line = progress_line(done, total, stats);
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
    match outcome.map_err(Fail::run)? {
        Outcome::Done { job, store, result } => {
            println!("{result}");
            eprintln!("# job {job} done, store: {store}");
            Ok(())
        }
        Outcome::Overloaded { retry_after_ms } => Err(Fail {
            code: 3,
            msg: format!("server overloaded, retry after {retry_after_ms} ms"),
        }),
        Outcome::ShuttingDown => Err(Fail::run("server is shutting down")),
        Outcome::Error { job, message } => Err(Fail::run(format!("job {job}: {message}"))),
    }
}

/// `reproduce watch` — poll a running server's `stats` snapshot and
/// `metrics` exposition every `--interval-ms`, printing a compact health
/// summary per tick (`--once` for one snapshot; see `watch.rs` for the
/// renderers). `--workers A,B,...` renders one aggregated fleet view per
/// tick instead.
pub fn watch(f: &mut Flags) -> Done {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut workers: Option<String> = None;
    let (mut interval_ms, mut once) = (1000, false);
    while let Some(flag) = f.next() {
        match flag {
            "--addr" => addr = f.value()?,
            "--workers" => workers = Some(f.value()?),
            "--interval-ms" => interval_ms = f.num(50, u64::MAX)?,
            "--once" => once = true,
            _ => return Err(f.unknown()),
        }
    }
    loop {
        let text = match &workers {
            // A dead worker is rendered as unreachable instead of failing
            // the watch — seeing the hole in the fleet is exactly what the
            // operator wants.
            Some(list) => {
                let snapshot: Vec<(String, Result<String, String>)> = list
                    .split(',')
                    .map(|a| {
                        let stats = Client::connect(a).and_then(|mut c| c.stats());
                        (a.to_string(), stats.map_err(|e| e.to_string()))
                    })
                    .collect();
                render_fleet_watch(&snapshot)
            }
            None => Client::connect(&addr)
                .and_then(|mut c| Ok(render_watch(&c.stats()?, &c.metrics()?)))
                .map_err(|e| Fail::run(format!("{addr}: {e}")))?,
        };
        print!("{text}");
        if once {
            return Ok(());
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
pub fn coordinate(f: &mut Flags) -> Done {
    let mut workers = None;
    let mut cfg = CoordinateConfig::default();
    let mut progress = false;
    while let Some(flag) = f.next() {
        match flag {
            "--workers" => workers = Some(f.value()?),
            "--shards" => cfg.shards = f.num(1, u64::MAX)?,
            "--max-retries" => cfg.max_retries = f.num(0, u64::MAX)?,
            "--progress" => progress = true,
            _ if f.job(&mut cfg.request)? => {}
            _ => return Err(f.unknown()),
        }
    }
    let workers =
        workers.ok_or_else(|| Fail::args("--workers host:port[,host:port...] is required"))?;
    let workers = workers
        .split(',')
        .map(|part| {
            let addr = std::net::ToSocketAddrs::to_socket_addrs(&part).ok();
            addr.and_then(|mut a| a.next())
                .ok_or_else(|| Fail::args(format!("bad worker address '{part}'")))
        })
        .collect::<Result<Vec<SocketAddr>, Fail>>()?;
    // Live progress only on a TTY: worker threads report concurrently and
    // a log file full of interleaved bar rewrites helps nobody.
    let live = progress && std::io::IsTerminal::is_terminal(&std::io::stderr());
    let on_progress =
        |done: u64, total: u64| eprint!("\r\x1b[2K{}", progress_line(done, total, None));
    let hook: Option<&(dyn Fn(u64, u64) + Sync)> = if live { Some(&on_progress) } else { None };
    let report = coordinate_campaign(&workers, &cfg, hook);
    if live {
        eprintln!();
    }
    let report = report.map_err(Fail::run)?;
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
    Ok(())
}

/// `reproduce fleet-bench` — the distributed-execution benchmark behind
/// the `distributed` block of `BENCH_reproduce.json`.
///
/// Spins up in-process single-threaded workers so the measurement isolates
/// the *dispatch layer*: the same campaign is coordinated across 1 and
/// then 2 workers (the three payloads — direct, 1-worker, 2-worker — must
/// be byte-identical), and the wall-clock ratio is the fleet speedup. Then
/// the open-loop load generator (Poisson and bursty arrivals, seeded,
/// one thread per job) drives the 2-worker fleet and reports
/// p50/p99/p99.9 latency measured from each job's *scheduled* arrival —
/// coordinated omission is counted, not hidden — plus per-worker busy-time
/// utilization.
pub fn fleet_bench(f: &mut Flags) -> Done {
    let (mut runs, mut shards, mut jobs) = (2048u64, 8usize, 48usize);
    let (mut rate, mut seed) = (60.0f64, 0xF1EE7u64);
    while let Some(flag) = f.next() {
        match flag {
            "--runs" => runs = f.num(1, u64::MAX)?,
            "--shards" => shards = f.num(1, u64::MAX)?,
            "--jobs" => jobs = f.num(1, MAX_THREADS)?,
            "--rate" => rate = f.float(0.0, f64::INFINITY)?,
            "--seed" => seed = f.num(0, u64::MAX)?,
            _ => return Err(f.unknown()),
        }
    }

    // One engine thread per worker: fleet speedup must come from the
    // dispatch layer spreading shards, not from intra-worker parallelism.
    let start_fleet = |size: usize| -> Result<Vec<Server>, Fail> {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        (0..size)
            .map(|_| {
                Server::start(
                    config.clone(),
                    Arc::new(EngineExecutor::new(Engine::new(1))),
                )
            })
            .collect::<std::io::Result<_>>()
            .map_err(|e| Fail::run(format!("worker start failed: {e}")))
    };
    let stop_fleet = |servers: Vec<Server>| {
        for server in servers {
            if let Ok(mut c) = Client::connect(server.addr()) {
                let _ = c.shutdown();
            }
            server.join();
        }
    };

    let mut campaign = JobRequest::new(JobKind::Campaign);
    campaign.runs = runs;
    let direct = EngineExecutor::new(Engine::new(1))
        .execute_direct(&campaign)
        .map_err(|e| Fail::run(format!("direct campaign failed: {e}")))?
        .result;

    // The same sharded campaign against fleets of 1 and 2 workers.
    let mut walls = Vec::new();
    for fleet_size in [1usize, 2] {
        let servers = start_fleet(fleet_size)?;
        let addrs: Vec<SocketAddr> = servers.iter().map(Server::addr).collect();
        let cfg = CoordinateConfig {
            request: campaign.clone(),
            shards,
            ..CoordinateConfig::default()
        };
        let report = coordinate_campaign(&addrs, &cfg, None)
            .map_err(|e| Fail::run(format!("coordinate ({fleet_size}w) failed: {e}")))?;
        eprintln!(
            "# fleet-bench: campaign {runs} runs x {shards} shards on {fleet_size} worker(s): {} ms",
            report.wall_us / 1000
        );
        stop_fleet(servers);
        if report.payload != direct {
            return Err(Fail::run(
                "distributed payloads diverged from the direct run",
            ));
        }
        walls.push(report.wall_us);
    }
    let speedup = walls[0] as f64 / walls[1].max(1) as f64;
    // The speedup is only meaningful with a core per worker: the block
    // records the host's parallelism so a 1-CPU CI container's ~1.0x is
    // read as a machine limit, not a dispatch-layer regression.
    let cpus = default_threads();
    eprintln!(
        "# fleet-bench: payloads byte-identical, 2-worker speedup {speedup:.2}x ({cpus} cpus)"
    );
    if cpus < 2 {
        eprintln!("# fleet-bench: single-CPU host; a 2-worker fleet cannot beat one worker here");
    }

    let mut block = format!(
        "{{\n  \"target\": \"fleet-bench\",\n  \"cpus\": {cpus},\n  \"campaign\": \
         {{\"runs\": {runs}, \"shards\": {shards}, \"wall_us_1w\": {}, \"wall_us_2w\": {}, \
         \"speedup_2w\": {speedup:.3}, \"identical\": true}}",
        walls[0], walls[1]
    );
    // Open-loop load across a 2-worker fleet, Poisson then bursty.
    let servers = start_fleet(2)?;
    let addrs: Vec<SocketAddr> = servers.iter().map(Server::addr).collect();
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
        let name = arrival.name();
        let r = loadgen_fleet(&addrs, &cfg)
            .map_err(|e| Fail::run(format!("loadgen ({name}) failed: {e}")))?;
        eprintln!(
            "# fleet-bench: {name} arrivals: {} jobs, {:.1} jobs/s, p99.9 {} us",
            r.completed,
            r.throughput(),
            r.latency.quantile(0.999).round() as u64,
        );
        block.push_str(&format!(",\n  \"{name}\": {}", r.to_json()));
    }
    stop_fleet(servers);
    block.push_str("\n}");
    crate::record("distributed", &block);
    Ok(())
}
