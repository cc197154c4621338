//! `served`: the explorer's fleet traffic through a local job server.
//!
//! A `turnpike-serve` server with one worker (memoizing `EngineExecutor`,
//! no artifact store) is the fleet of `run_explore` with
//! `JobRunner::Fleet` — the `explore --workers` client path — at smoke
//! scale. The fleet list names the server twice, so every explorer batch
//! opens two closed-loop connections and deals its jobs round-robin over
//! them. The job stream is therefore a real caller's, not a generated one.
//!
//! The connections pass through a line relay inside the benchmark. The
//! relay stamps each request line and its terminal reply line and keeps
//! both, so every job's latency is measured from send to reply and every
//! payload is checked against direct execution of the same request.
//!
//! After each run the explorer's pure layers (grid enumeration, the
//! exact Pareto pass) are called directly on the run's report and timed
//! outside `wall_s`.
//!
//! The server runs without an artifact store: every store write is
//! fsync'd, and on a shared virtual disk those syncs made the iteration
//! time swing by a factor of three — a disk benchmark, not a serve-tier
//! one.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use turnpike_bench::explore::{run_explore, ExploreConfig, ExploreReport, JobRunner};
use turnpike_bench::{CampaignTotals, Engine, EngineExecutor};
use turnpike_explore::{enumerate, exact_pareto_mask, Objectives};
use turnpike_metrics::{Counter, Hist};
use turnpike_resilience::EXPLORE_AXES;
use turnpike_serve::{Executor, Json, Request, Server, ServerConfig};
use turnpike_workloads::{all_kernels, Scale};

use crate::trace::Tracer;
use crate::{ms, Iter, Work, Workload};

/// The repository's smoke-scale frontier golden. The explorer's inputs
/// are the committed smoke grid and its campaign seed, and the golden is
/// defined at that seed, so the workload seed does not reach the explorer.
pub const GOLDEN: &str = include_str!("../../crates/bench/golden/explore_smoke.json");

/// Frontier ids of a rendered frontier artifact, in artifact order.
///
/// # Errors
///
/// When the artifact is not a frontier artifact.
pub fn frontier_ids(artifact: &str) -> Result<Vec<String>, String> {
    let v = Json::parse(artifact).map_err(|e| e.to_string())?;
    let points = v
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("artifact without points")?;
    Ok(points
        .iter()
        .filter(|p| p.get("frontier").and_then(Json::as_bool) == Some(true))
        .filter_map(|p| p.get("id").and_then(Json::as_str).map(str::to_string))
        .collect())
}

/// Frontier ids of an explorer report, in canonical point order.
pub fn frontier_of(report: &ExploreReport) -> Vec<String> {
    report
        .points
        .iter()
        .filter(|e| e.promoted.as_ref().is_some_and(|p| p.frontier))
        .map(|e| e.point.id())
        .collect()
}

/// The explorer's pure layers, called directly after a served run: grid
/// enumeration and the exact Pareto pass over the promoted objectives,
/// each checked against the explorer's own counts and frontier flags.
fn explore_layers(report: &ExploreReport, it: &mut Iter, tracer: &Tracer) {
    let span = tracer.open("grid enumerate", 0, 0);
    let t = Instant::now();
    let grid = enumerate(&EXPLORE_AXES);
    it.layer.add("explore.grid_ms", ms(t.elapsed()));
    tracer.close(span, vec![("canonical".into(), grid.points.len() as f64)]);
    let (objs, flags): (Vec<Objectives>, Vec<bool>) = report
        .points
        .iter()
        .filter_map(|e| e.promoted.as_ref().map(|p| (p.objectives, p.frontier)))
        .unzip();
    let span = tracer.open("pareto exact", 0, 0);
    let t = Instant::now();
    let mask = exact_pareto_mask(&objs);
    it.layer.add("explore.pareto_ms", ms(t.elapsed()));
    tracer.close(span, vec![("points".into(), objs.len() as f64)]);
    let c = report.counts;
    let result = if grid.points.len() != c.canonical || grid.raw != c.raw {
        Err("direct grid enumeration disagrees with the explorer's counts".into())
    } else if mask != flags {
        Err("exact Pareto pass disagrees with the explorer's frontier flags".into())
    } else {
        Ok(())
    };
    it.check(|| "explore layers".into(), result);
}

/// One request and its terminal reply, as the relay saw them.
struct Exchange {
    request: String,
    reply: String,
    latency_ms: f64,
}

/// A reply line that ends a request: anything but `accepted` and
/// `progress` events.
fn is_terminal(line: &str) -> bool {
    !(line.starts_with("{\"event\":\"accepted\"") || line.starts_with("{\"event\":\"progress\""))
}

/// Job id and raw result payload of a `done` line.
fn done_payload(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"event\":\"done\",\"job\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let job = rest[..digits].parse().ok()?;
    let store_at = line.find(",\"store\":\"")?;
    let marker = ",\"result\":";
    let at = line[store_at..].find(marker)? + store_at + marker.len();
    Some((job, line.get(at..line.len() - 1)?))
}

/// Hand the memory of a stopped server back to the OS. Each iteration's
/// server worker is a new thread, and glibc may give it a different malloc
/// arena than the last one's; without the trim the freed engine caches of
/// earlier servers stay resident, and peak RSS read 229 or 331 MB from run
/// to run depending on arena placement, not on the workload.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
        // OS; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The relay state shared by its connection threads.
struct Relay<'a> {
    upstream: SocketAddr,
    tracer: &'a Tracer,
    root: u64,
    next_job: AtomicU64,
    log: Mutex<Vec<Exchange>>,
    errors: Mutex<Vec<String>>,
}

impl Relay<'_> {
    /// Forward one client connection to the server, one request at a time
    /// (the explorer's clients wait for each reply before the next send).
    fn serve(&self, client: TcpStream) -> std::io::Result<()> {
        let upstream = TcpStream::connect(self.upstream)?;
        upstream.set_nodelay(true)?;
        client.set_nodelay(true)?;
        let mut from_client = BufReader::new(client.try_clone()?);
        let mut to_client = client;
        let mut from_server = BufReader::new(upstream.try_clone()?);
        let mut to_server = upstream;
        loop {
            let mut request = String::new();
            if from_client.read_line(&mut request)? == 0 {
                return Ok(());
            }
            let job = self.next_job.fetch_add(1, Ordering::Relaxed);
            let span = self.tracer.open("job", self.root, job);
            let t = Instant::now();
            to_server.write_all(request.as_bytes())?;
            loop {
                let mut reply = String::new();
                if from_server.read_line(&mut reply)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                let terminal = is_terminal(&reply);
                let latency_ms = ms(t.elapsed());
                to_client.write_all(reply.as_bytes())?;
                if terminal {
                    self.tracer.close(span, vec![]);
                    self.log.lock().unwrap().push(Exchange {
                        request: request.trim_end().to_string(),
                        reply: reply.trim_end().to_string(),
                        latency_ms,
                    });
                    break;
                }
            }
        }
    }
}

/// A running server with its executor and the relay's listener.
struct Live {
    server: Server,
    exec: Arc<EngineExecutor>,
    relay: TcpListener,
    trace_path: Option<PathBuf>,
}

/// The served workload.
pub struct Served {
    conns: usize,
    scratch: PathBuf,
    golden_ids: Vec<String>,
    /// Direct execution without memoization: the oracle for every
    /// request line seen, and no cache that grows the process's footprint.
    direct: EngineExecutor,
    oracle: BTreeMap<String, String>,
    live: Option<Live>,
    starts: u64,
    catalog_ms: f64,
    notes: Vec<String>,
}

impl Served {
    /// `conns` closed-loop connections per explorer batch (at most 2),
    /// scratch state under `scratch`.
    pub fn new(conns: usize, scratch: &Path) -> Served {
        Served {
            conns: conns.clamp(1, 2),
            scratch: scratch.to_path_buf(),
            golden_ids: Vec::new(),
            direct: EngineExecutor::new(Engine::serial().without_cache()),
            oracle: BTreeMap::new(),
            live: None,
            starts: 0,
            catalog_ms: 0.0,
            notes: Vec::new(),
        }
    }

    /// Catalog build, server start and relay bind.
    fn start(&mut self, traced: bool) -> Result<Live, String> {
        let t0 = Instant::now();
        all_kernels(Scale::Smoke);
        self.catalog_ms = ms(t0.elapsed());
        self.starts += 1;
        let trace_path = traced.then(|| self.scratch.join(format!("serve-{}.json", self.starts)));
        let exec = Arc::new(EngineExecutor::new(Engine::serial()));
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 16,
            job_timeout: Duration::from_secs(120),
            trace_path: trace_path.clone(),
            ..ServerConfig::default()
        };
        let server = Server::start(config, Arc::clone(&exec) as Arc<dyn Executor>)
            .map_err(|e| format!("server start: {e}"))?;
        let relay = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("relay bind: {e}"))?;
        Ok(Live {
            server,
            exec,
            relay,
            trace_path,
        })
    }

    /// Shut the server down; returns its job execution times (µs) by job
    /// id when it was tracing (the server writes its trace at shutdown).
    fn stop(live: Live) -> BTreeMap<u64, f64> {
        drop(live.relay);
        live.server.shutdown();
        drop(live.exec);
        release_freed_memory();
        let Some(path) = live.trace_path else {
            return BTreeMap::new();
        };
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_file(&path);
        let mut durs = BTreeMap::new();
        if let Ok(Json::Arr(events)) = Json::parse(&text) {
            for e in events {
                let job = e
                    .get("args")
                    .and_then(|a| a.get("job"))
                    .and_then(Json::as_u64);
                let dur = e.get("dur").and_then(Json::as_f64);
                if let (Some(job), Some(dur)) = (job, dur) {
                    durs.insert(job, dur);
                }
            }
        }
        durs
    }

    /// The payload direct execution gives for `request`.
    fn expected(&mut self, request: &str) -> Result<&str, String> {
        if !self.oracle.contains_key(request) {
            let req = match Request::parse(request)? {
                Request::Job(req) => req,
                _ => return Err("not a job request".into()),
            };
            let out = self.direct.execute_direct(&req)?;
            self.oracle.insert(request.to_string(), out.result);
        }
        Ok(&self.oracle[request])
    }
}

impl Workload for Served {
    fn prepare(&mut self) -> Result<(), String> {
        self.golden_ids = frontier_ids(GOLDEN)?;
        if self.golden_ids.is_empty() {
            return Err("golden frontier is empty".into());
        }
        Ok(())
    }

    fn setup(&mut self) -> Result<f64, String> {
        self.teardown();
        let live = self.start(false)?;
        self.live = Some(live);
        Ok(self.catalog_ms)
    }

    fn teardown(&mut self) {
        if let Some(old) = self.live.take() {
            Served::stop(old);
        }
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let mut it = Iter::default();
        // Every iteration gets a fresh server (its engine memoizes), so all
        // iterations do the same work; the last untraced set-up is reused.
        let stashed = if tracer.enabled() {
            None
        } else {
            self.live.take()
        };
        let live = match stashed {
            Some(l) => l,
            None => {
                if let Some(old) = self.live.take() {
                    Served::stop(old);
                }
                let t0 = Instant::now();
                match self.start(tracer.enabled()) {
                    Ok(l) => {
                        it.setup = Some((t0.elapsed().as_secs_f64(), self.catalog_ms));
                        l
                    }
                    Err(e) => {
                        it.check(|| "served setup".into(), Err(e));
                        return it;
                    }
                }
            }
        };
        let cfg = ExploreConfig::smoke();
        let relay_addr = match live.relay.local_addr() {
            Ok(a) => a,
            Err(e) => {
                it.check(|| "relay address".into(), Err(e.to_string()));
                return it;
            }
        };
        let runner = JobRunner::Fleet {
            workers: vec![relay_addr.to_string(); self.conns],
        };
        let root = tracer.open("served explore", 0, 0);
        let relay = Relay {
            upstream: live.server.addr(),
            tracer,
            root: root.id(),
            next_job: AtomicU64::new(1),
            log: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
        };
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let report = std::thread::scope(|s| {
            let (relay, stop, listener) = (&relay, &stop, &live.relay);
            let acceptor = s.spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match conn {
                        Ok(c) => {
                            s.spawn(move || {
                                if let Err(e) = relay.serve(c) {
                                    relay.errors.lock().unwrap().push(e.to_string());
                                }
                            });
                        }
                        Err(e) => relay.errors.lock().unwrap().push(e.to_string()),
                    }
                }
            });
            let report = run_explore(&runner, &cfg, &mut |_| {});
            stop.store(true, Ordering::Relaxed);
            // Wake the acceptor so it sees the stop flag.
            let _ = TcpStream::connect(relay_addr);
            let _ = acceptor.join();
            report
        });
        it.wall_s = t0.elapsed().as_secs_f64();
        tracer.close(root, vec![]);
        let m = live.server.metrics();
        let engine = live.exec.engine();
        let em = engine.metrics();
        let (compiles, sims) = (engine.compile_count() as u64, engine.sim_count() as u64);
        let durs = Served::stop(live);
        let exchanges = relay.log.into_inner().unwrap();
        for e in relay.errors.into_inner().unwrap() {
            it.check(|| "relay".into(), Err(e));
        }

        // The explorer's own outcome: its frontier must be the golden's.
        let jobs = match &report {
            Ok(r) => {
                let ids = frontier_of(r);
                it.check(
                    || "served explore frontier".into(),
                    if ids == self.golden_ids {
                        Ok(())
                    } else {
                        Err(format!("frontier {ids:?} differs from the golden"))
                    },
                );
                r.counts.jobs as u64
            }
            Err(e) => {
                it.check(|| "served explore".into(), Err(e.clone()));
                0
            }
        };

        // Every reply: a `done` with a fresh job id whose payload equals
        // direct execution. The relay pairs each request with exactly one
        // terminal reply; the server must have completed exactly those,
        // and the explorer must have issued exactly those.
        let mut job_ids = HashSet::new();
        let mut seen = HashSet::new();
        let mut repeats = 0usize;
        let mut strike_runs = 0u64;
        for (i, x) in exchanges.iter().enumerate() {
            it.latencies_ms.push(x.latency_ms);
            if !seen.insert(x.request.as_str()) {
                repeats += 1;
            }
            let result = match done_payload(&x.reply) {
                None => Err(format!("reply {}", x.reply)),
                Some((job, payload)) => {
                    if let Some(dur) = durs.get(&job) {
                        it.layer.sample("serve.wire_us", x.latency_ms * 1e3 - dur);
                    }
                    if !job_ids.insert(job) {
                        Err(format!("duplicate delivery (job {job})"))
                    } else {
                        match self.expected(&x.request) {
                            Ok(want) if want == payload => {
                                if x.request.contains("\"type\":\"campaign\"") {
                                    strike_runs +=
                                        CampaignTotals::from_payload(payload).map_or(0, |t| t.runs);
                                }
                                it.jobs += 1;
                                Ok(())
                            }
                            Ok(_) => Err("payload differs from direct execution".into()),
                            Err(e) => Err(format!("direct execution: {e}")),
                        }
                    }
                }
            };
            it.check(|| format!("job {i}"), result);
        }
        let completed = m.counter(Counter::ServeCompleted);
        let sent = exchanges.len() as u64;
        it.check(
            || "delivery accounting".into(),
            if completed == sent && jobs == sent {
                Ok(())
            } else {
                Err(format!(
                    "{sent} replies, {completed} completed, {jobs} explorer jobs"
                ))
            },
        );
        if self.notes.is_empty() && sent > 0 {
            self.notes.push(format!(
                "served stream: {sent} jobs over {} connections per batch, {repeats} ({:.1}%) repeat an earlier request",
                self.conns,
                repeats as f64 * 100.0 / sent as f64
            ));
        }
        it.work = Work {
            compiles,
            sims,
            strike_runs,
            explore_jobs: jobs,
        };

        if let Ok(r) = &report {
            explore_layers(r, &mut it, tracer);
        }
        let l = &mut it.layer;
        if let Ok(r) = &report {
            let c = r.counts;
            l.add("explore.canonical", c.canonical as f64);
            l.add("explore.promoted", c.promoted as f64);
            l.add("explore.jobs", c.jobs as f64);
            l.add("explore.campaign_runs", c.campaign_runs as f64);
            l.add("explore.frontier", c.frontier as f64);
        }
        for (key, h) in [
            ("serve.queue_us", Hist::ServeQueueMicros),
            ("serve.job_us", Hist::ServeJobMicros),
        ] {
            if let Some(h) = m.hist(h) {
                l.merge_hist(key, h);
            }
        }
        l.add("serve.rejected", m.counter(Counter::ServeRejected) as f64);
        l.add("serve.failed", m.counter(Counter::ServeFailed) as f64);
        l.add(
            "serve.busy_ms",
            m.counter(Counter::ServeBusyMicros) as f64 / 1e3,
        );
        l.add("serve.worker_ms", it.wall_s * 1e3);
        l.add("serve.jobs", sent as f64);
        l.add("compiler.calls", compiles as f64);
        l.add("sim.calls", sims as f64);
        l.add("resilience.strike_runs", strike_runs as f64);
        for (key, h) in [
            ("compiler.busy_ms", Hist::CompileMicros),
            ("sim.busy_ms", Hist::SimMicros),
        ] {
            l.add(key, em.hist(h).map_or(0.0, |h| h.sum() as f64 / 1e3));
        }
        for (key, c) in [
            ("bench.compile_hits", Counter::BenchCompileHits),
            ("bench.compile_misses", Counter::BenchCompileMisses),
            ("bench.run_hits", Counter::BenchRunHits),
            ("bench.run_misses", Counter::BenchRunMisses),
        ] {
            l.add(key, em.counter(c) as f64);
        }
        for x in &it.latencies_ms {
            l.sample("serve.latency_ms", *x);
        }
        it
    }

    fn min_samples(&self) -> usize {
        1000
    }

    fn notes(&self) -> Vec<String> {
        self.notes.clone()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            Served::stop(live);
        }
    }
}
