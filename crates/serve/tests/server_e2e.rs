//! End-to-end tests of the job server over real TCP with a mock executor:
//! job flow, admission control under saturation, per-job timeout
//! cancellation, graceful-shutdown draining, and the loadgen harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use turnpike_metrics::Counter;
use turnpike_serve::{
    loadgen, Client, ExecOutput, Executor, JobCtl, JobKind, JobRequest, LoadgenConfig, Outcome,
    Server, ServerConfig, StoreStatus,
};

/// Scriptable executor: renders a deterministic payload after an optional
/// gate/delay, streaming `progress` ticks for campaign jobs.
struct MockExec {
    /// While `Some`, execute() blocks until the gate opens (used to pin
    /// jobs in-flight so the queue can be saturated deterministically).
    gate: Option<Arc<(Mutex<bool>, Condvar)>>,
    /// Spin until canceled instead of finishing (timeout tests).
    hang_until_canceled: bool,
    executions: AtomicUsize,
}

impl MockExec {
    fn instant() -> MockExec {
        MockExec {
            gate: None,
            hang_until_canceled: false,
            executions: AtomicUsize::new(0),
        }
    }

    fn gated() -> (MockExec, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        (
            MockExec {
                gate: Some(Arc::clone(&gate)),
                hang_until_canceled: false,
                executions: AtomicUsize::new(0),
            },
            gate,
        )
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }
}

impl Executor for MockExec {
    fn execute(&self, req: &JobRequest, ctl: &JobCtl) -> Result<ExecOutput, String> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = &self.gate {
            let mut open = gate.0.lock().unwrap();
            while !*open {
                open = gate.1.wait(open).unwrap();
            }
        }
        if self.hang_until_canceled {
            while !ctl.is_canceled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            return Err("canceled by deadline".to_string());
        }
        if req.kernel == "no-such-kernel" {
            return Err(format!("unknown kernel '{}'", req.kernel));
        }
        if req.kind == JobKind::Campaign {
            for done in 1..=req.runs {
                if ctl.is_canceled() {
                    return Err("canceled mid-campaign".to_string());
                }
                ctl.progress(done, req.runs);
            }
        }
        Ok(ExecOutput {
            result: format!(
                "{{\"kind\":\"{}\",\"kernel\":\"{}\",\"seed\":{}}}",
                req.kind.name(),
                req.kernel,
                req.seed
            ),
            store: StoreStatus::Off,
            quarantined: 0,
        })
    }
}

fn start(config: ServerConfig, exec: MockExec) -> (Server, Arc<MockExec>) {
    let exec = Arc::new(exec);
    let server = Server::start(config, Arc::clone(&exec) as Arc<dyn Executor>).unwrap();
    (server, exec)
}

#[test]
fn submit_streams_progress_and_returns_the_executor_payload() {
    let (server, _exec) = start(ServerConfig::default(), MockExec::instant());
    let mut client = Client::connect(server.addr()).unwrap();
    let mut req = JobRequest::new(JobKind::Campaign);
    req.kernel = "hmmer".into();
    req.runs = 5;
    let mut ticks = Vec::new();
    let outcome = client
        .submit_with(&req, |done, total| ticks.push((done, total)))
        .unwrap();
    match outcome {
        Outcome::Done { store, result, .. } => {
            assert_eq!(store, "off");
            assert_eq!(
                result,
                "{\"kind\":\"campaign\",\"kernel\":\"hmmer\",\"seed\":61453}"
            );
        }
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(ticks, vec![(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]);

    // Executor failures surface as typed error events, connection stays up.
    let mut bad = JobRequest::new(JobKind::Run);
    bad.kernel = "no-such-kernel".into();
    match client.submit(&bad).unwrap() {
        Outcome::Error { message, .. } => assert!(message.contains("no-such-kernel")),
        other => panic!("expected error, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"completed\":1"), "{stats}");
    assert!(stats.contains("\"failed\":1"), "{stats}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_error_events_without_killing_the_connection() {
    let (server, _exec) = start(ServerConfig::default(), MockExec::instant());
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\":\"error\""), "{line}");
    // Same connection still serves valid requests.
    stream.write_all(b"{\"type\":\"stats\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\":\"stats\""), "{line}");
    server.shutdown();
}

#[test]
fn deeply_nested_line_gets_an_error_and_the_server_keeps_serving() {
    let (server, _exec) = start(ServerConfig::default(), MockExec::instant());
    use std::io::{BufRead, BufReader, Write};
    // A million brackets fit under the wire's line cap; unbounded recursive
    // descent over them overflows the stack and aborts the whole process.
    let mut hostile = "[".repeat(1_000_000).into_bytes();
    hostile.push(b'\n');
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&hostile).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\":\"error\""), "{line}");
    assert!(line.contains("nesting"), "{line}");
    // A normal job on a fresh connection still completes.
    let mut client = Client::connect(server.addr()).unwrap();
    let outcome = client.submit(&JobRequest::new(JobKind::Run)).unwrap();
    assert!(matches!(outcome, Outcome::Done { .. }), "{outcome:?}");
    server.shutdown();
}

/// Satellite: fill the queue past capacity, assert typed `overloaded`
/// rejections, then drain and check that every *accepted* job completes —
/// no loss, no duplicates.
#[test]
fn admission_control_sheds_load_then_drains_cleanly() {
    let (exec, gate) = MockExec::gated();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let (server, exec) = start(config, exec);
    let addr = server.addr();

    // One job occupies the worker (blocked on the gate), two fill the
    // queue; everything past that must be rejected with a retry hint.
    // Submissions are staggered (wait for each admission in the stats)
    // so none of the pinned jobs races another into a rejection.
    let mut probe = Client::connect(addr).unwrap();
    let wait_for = |probe: &mut Client, needle: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = probe.stats().unwrap();
            if stats.contains(needle) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never saw {needle}: {stats}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let mut submitters = Vec::new();
    for i in 0..3 {
        submitters.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut req = JobRequest::new(JobKind::Run);
            req.tag = format!("pinned-{i}");
            c.submit(&req).unwrap()
        }));
        wait_for(&mut probe, &format!("\"accepted\":{}", i + 1));
        if i == 0 {
            // The worker must pick up the first job (and park at the
            // gate) before the next two can both fit in the queue.
            wait_for(&mut probe, "\"queue_depth\":0");
        }
    }
    // Worker holds one job at the gate, the other two fill the queue.
    wait_for(&mut probe, "\"queue_depth\":2");

    let mut rejected = 0;
    for i in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        let mut req = JobRequest::new(JobKind::Run);
        req.tag = format!("reject-{i}");
        match c.submit(&req).unwrap() {
            Outcome::Overloaded { retry_after_ms } => {
                assert!(retry_after_ms > 0);
                rejected += 1;
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
    assert_eq!(rejected, 4);

    // Open the gate: all three accepted jobs must finish exactly once.
    MockExec::open(&gate);
    for s in submitters {
        match s.join().unwrap() {
            Outcome::Done { .. } => {}
            other => panic!("accepted job did not complete: {other:?}"),
        }
    }
    let stats = probe.stats().unwrap();
    assert!(stats.contains("\"accepted\":3"), "{stats}");
    assert!(stats.contains("\"rejected\":4"), "{stats}");
    assert!(stats.contains("\"completed\":3"), "{stats}");
    assert!(stats.contains("\"queue_peak\":2"), "{stats}");
    assert_eq!(
        exec.executions.load(Ordering::SeqCst),
        3,
        "no duplicated work"
    );
    let m = server.metrics();
    assert_eq!(m.counter(Counter::ServeAccepted), 3);
    assert_eq!(m.counter(Counter::ServeRejected), 4);
    server.shutdown();
}

#[test]
fn job_deadline_cancels_cooperatively_and_is_metered() {
    let exec = MockExec {
        gate: None,
        hang_until_canceled: true,
        executions: AtomicUsize::new(0),
    };
    let config = ServerConfig {
        job_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (server, _exec) = start(config, exec);
    let mut client = Client::connect(server.addr()).unwrap();
    match client.submit(&JobRequest::new(JobKind::Run)).unwrap() {
        Outcome::Error { message, .. } => assert!(message.contains("canceled"), "{message}"),
        other => panic!("expected cancellation error, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"canceled\":1"), "{stats}");
    assert!(stats.contains("\"failed\":0"), "{stats}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_queued_jobs() {
    let (exec, gate) = MockExec::gated();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    let (server, exec) = start(config, exec);
    let addr = server.addr();

    let submitters: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(&JobRequest::new(JobKind::Run)).unwrap()
            })
        })
        .collect();
    // Make sure all three are admitted before shutting down.
    let mut probe = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !probe.stats().unwrap().contains("\"accepted\":3") {
        assert!(std::time::Instant::now() < deadline, "jobs never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shutdown via the protocol; new submissions are turned away.
    let shutdown_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.shutdown().unwrap();
    });
    std::thread::sleep(Duration::from_millis(50));
    MockExec::open(&gate);
    for s in submitters {
        match s.join().unwrap() {
            Outcome::Done { .. } => {}
            other => panic!("in-flight job lost during shutdown: {other:?}"),
        }
    }
    shutdown_thread.join().unwrap();
    server.join();
    assert_eq!(exec.executions.load(Ordering::SeqCst), 3);
}

#[test]
fn loadgen_delivers_every_tagged_job_exactly_once() {
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 2, // small queue: saturation expected
        retry_after_ms: 5,
        ..ServerConfig::default()
    };
    let (server, exec) = start(config, MockExec::instant());
    let cfg = LoadgenConfig {
        clients: 8,
        jobs_per_client: 5,
        request: JobRequest::new(JobKind::Run),
        max_retries: 10_000,
    };
    let report = loadgen(server.addr(), &cfg).unwrap();
    assert_eq!(report.jobs, 40);
    assert_eq!(report.completed, 40);
    assert_eq!(report.errors, 0);
    assert_eq!(report.lost, 0, "lost jobs: {}", report.to_json());
    assert_eq!(report.duplicated, 0);
    assert_eq!(exec.executions.load(Ordering::SeqCst), 40);
    assert_eq!(report.latency.count(), 40);
    let json = report.to_json();
    assert!(json.contains("\"latency_p50_us\":"), "{json}");
    assert!(json.contains("\"latency_p99_us\":"), "{json}");
    server.shutdown();
}

#[test]
fn chrome_trace_spans_are_written_at_shutdown() {
    let dir = std::env::temp_dir().join(format!("turnpike-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace = dir.join("nested/serve_trace.json");
    let config = ServerConfig {
        trace_path: Some(trace.clone()),
        ..ServerConfig::default()
    };
    let (server, _exec) = start(config, MockExec::instant());
    let mut client = Client::connect(server.addr()).unwrap();
    let mut req = JobRequest::new(JobKind::Run);
    req.kernel = "mcf".into();
    client.submit(&req).unwrap();
    server.shutdown();
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.contains("\"name\":\"run mcf\""), "{body}");
    assert!(body.contains("\"ph\":\"X\""), "{body}");
    std::fs::remove_dir_all(&dir).unwrap();
}
