//! `perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|campaign|served --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Details, sample counts and ratio bases go to stderr.
//! Scratch state lives in `.bench_tmp/` under the working directory and is
//! removed before exit; `--trace-out FILE` writes the traced run's Chrome
//! trace.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use turnpike_bench::{json_number, json_string};
use turnpike_perfbench::campaign::Campaign;
use turnpike_perfbench::figures::Figures;
use turnpike_perfbench::harness::{run, Opts};
use turnpike_perfbench::served::Served;
use turnpike_perfbench::Workload;

/// Engine threads and client connections: at most two.
const MAX_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload figures|campaign|served --seed N \
         --seconds S --trace 0|1 [--trace-out FILE]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().ok()?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(v)),
            _ => return None,
        }
    }
    (!a.workload.is_empty()).then_some(a)
}

/// The commit of the checkout, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A scratch directory removed on drop (also when a workload panics).
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: &str) -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Figures run serially. With two threads they race on the shared
    // caches and redo and discard work nondeterministically (wall_s moved
    // ~10% run to run).
    let threads = match args.workload.as_str() {
        "figures" => 1,
        _ => nproc.min(MAX_THREADS),
    };
    let scratch = match Scratch::create(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "figures" => Box::new(Figures::new(threads)),
        "campaign" => Box::new(Campaign::new(args.seed, threads)),
        "served" => Box::new(Served::new(threads, &scratch.0)),
        _ => return usage(),
    };
    let metadata: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("threads".into(), threads.to_string()),
        ("commit".into(), commit()),
    ];
    let opts = Opts {
        seconds: args.seconds,
        trace: args.trace,
        metadata: metadata.clone(),
    };
    let result = run(workload.as_mut(), &opts);
    drop(workload);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(trace) = &outcome.trace_json {
        match &args.trace_out {
            Some(path) => match std::fs::write(path, trace) {
                Ok(()) => eprintln!("# trace: {} bytes -> {}", trace.len(), path.display()),
                Err(e) => eprintln!("# trace: could not write {}: {e}", path.display()),
            },
            None => eprintln!(
                "# trace: {} bytes (--trace-out FILE writes it)",
                trace.len()
            ),
        }
    }
    drop(scratch);

    let meta: Vec<String> = metadata.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("# perfbench {}", meta.join(" "));
    for note in &outcome.notes {
        eprintln!("# {note}");
    }
    for m in &outcome.metrics {
        eprintln!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for f in &outcome.failures {
        eprintln!("# FAILED: {f}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
