//! `reproduce` — regenerate the paper's tables and figures, and drive the
//! serve fleet, the telemetry spine and the design-space explorer.
//!
//! `reproduce --list` prints every figure target (with the paper figure or
//! table it reproduces) and every subcommand. Both the listing and the
//! usage are rendered from [`COMMANDS`], the one table that also drives
//! dispatch. Each subcommand's run function documents it.
//!
//! Conventions shared by every subcommand: stdout carries only
//! deterministic output (golden-diffed in CI) and is byte-identical at any
//! `--threads` count; timing goes to stderr and to a block of
//! `BENCH_reproduce.json`, a single JSON object keyed by block name that
//! each writer merges into (see `report.rs`). A bad command line (`reproduce
//! --help` included) prints a message naming the flag and the usage, and
//! exits 2.

mod figures;
mod flags;
mod measure;
mod serve;

use std::process::ExitCode;

use flags::{Done, Fail, Flags};
use turnpike_bench::{write_block, TARGETS};

/// One `reproduce` subcommand.
struct Command {
    /// The first argument that selects it. The first entry, `<target>`,
    /// is the default: any first argument naming no other subcommand.
    name: &'static str,
    /// Its arguments as `--help` prints them; each `\n` starts an aligned
    /// continuation line.
    synopsis: &'static str,
    /// One line for `--list`.
    about: &'static str,
    run: fn(&mut Flags) -> Done,
}

/// Every subcommand, in `--help` and `--list` order.
const COMMANDS: [Command; 10] = [
    Command {
        name: "<target>",
        synopsis: "[--smoke] [--json] [--threads N] [--no-cache]",
        about: "regenerate one figure target, or `all`",
        run: figures::targets,
    },
    Command {
        name: "trace",
        synopsis: "<kernel> [--scheme S] [--smoke] [--format chrome|jsonl] [--out FILE]",
        about: "export one kernel's resilience-event timeline",
        run: measure::trace,
    },
    Command {
        name: "serve",
        synopsis: "[--addr A] [--workers N] [--queue N] [--timeout-secs N]\n\
                   [--store DIR [--store-cap BYTES]] [--flight-dir DIR]\n\
                   [--threads N] [--trace-out FILE]",
        about: "batch job server (--flight-dir DIR dumps failed-job evidence)",
        run: serve::serve,
    },
    Command {
        name: "submit",
        synopsis: "[--addr A | --direct [--store DIR] [--threads N]] [--progress]\n\
                   [--kind K] [--kernel K] [--scheme S] [--scale smoke|full]\n\
                   [--sb N] [--wcdl N] [--runs N] [--seed N] [--strikes N]\n\
                   [--clq C] [--colors N] [--geom G] [--target T] [--tag T]\n\
                   | [--addr A] --stats|--shutdown",
        about: "send one job (--progress: live rate/CI/ETA bar)",
        run: serve::submit,
    },
    Command {
        name: "coordinate",
        synopsis: "--workers A,B,... [--shards N] [--max-retries N]\n\
                   [--progress] [job fields as for submit]",
        about: "shard a campaign across a worker fleet; merged payload",
        run: serve::coordinate,
    },
    Command {
        name: "fleet-bench",
        synopsis: "[--runs N] [--shards N] [--jobs N] [--rate R] [--seed N]",
        about: "distributed speedup + open-loop fleet latency block",
        run: serve::fleet_bench,
    },
    Command {
        name: "watch",
        synopsis: "[--addr A | --workers A,B,...] [--interval-ms N] [--once]",
        about: "poll a server's stats + metrics exposition (--workers: fleet view)",
        run: serve::watch,
    },
    Command {
        name: "telemetry",
        synopsis: "[--smoke] [--kernel K] [--runs N] [--seed N] [--threads N]\n\
                   [--stop-ci W] [--records FILE [--max-records N]]",
        about: "measure progress-snapshot overhead (--max-records caps JSONL)",
        run: measure::telemetry,
    },
    Command {
        name: "explore",
        synopsis: "[--smoke|--full] [--threads N] [--workers A,B,...]\n\
                   [--store DIR [--resume]] [--seed N] [--epsilon X] [--out FILE]",
        about: "staged design-space exploration; Pareto frontier artifact",
        run: measure::explore,
    },
    Command {
        name: "sim-throughput",
        synopsis: "[--smoke] [--reps N]",
        about: "fault-free simulator speed",
        run: measure::sim_throughput,
    },
];

const OPTIONS: &str = "options:
  --threads N      evaluation worker threads, 1..=1024 (default: all hardware threads)
  --progress       live progress bar (rate +/- Wilson CI, strikes/s, ETA) for campaigns
  --flight-dir D   dump failed/deadlined/quarantined jobs' lifecycle rings to D
  --max-records N  reservoir-cap strike-record JSONL output (default: unbounded)
";

/// `lead` then `reproduce <name>` and the synopsis, continuation lines
/// aligned under its first argument.
fn synopsis(c: &Command, lead: &str) -> String {
    let head = format!("{lead} reproduce {}", c.name);
    let mut out = String::new();
    for (i, line) in c.synopsis.lines().enumerate() {
        let lead = if i == 0 { head.as_str() } else { "" };
        out.push_str(&format!("{lead:w$} {line}\n", w = head.len()));
    }
    out
}

fn usage() -> String {
    let mut out = String::new();
    for (i, c) in COMMANDS.iter().enumerate() {
        out.push_str(&synopsis(c, if i == 0 { "usage:" } else { "      " }));
    }
    out.push_str("       reproduce --list\n");
    format!("{out}{OPTIONS}targets:\n{}", target_listing())
}

/// The target list rendered from the registry, one aligned line per target.
fn target_listing() -> String {
    let width = TARGETS.iter().map(|t| t.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for t in &TARGETS {
        out.push_str(&format!("  {:width$}  {}\n", t.name, t.paper_ref));
    }
    out + &format!("  {:width$}  every target above, in that order\n", "all")
}

/// `reproduce --list`: the targets, then every subcommand.
fn listing() -> String {
    let mut out = target_listing() + "subcommands:\n";
    for c in &COMMANDS[1..] {
        out.push_str(&format!("  {:16}{}\n", c.name, c.about));
    }
    out
}

/// Upsert `key`'s block of `BENCH_reproduce.json`; a write failure costs
/// only the record, so it is a warning.
fn record(key: &str, json: &str) {
    if let Err(e) = write_block("BENCH_reproduce.json", key, json) {
        eprintln!("# warning: could not write BENCH_reproduce.json: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map_or("", String::as_str);
    let (cmd, rest) = match COMMANDS[1..].iter().find(|c| c.name == first) {
        Some(c) => (c, &args[1..]),
        None => (&COMMANDS[0], &args[..]),
    };
    let Err(Fail { code, msg }) = (cmd.run)(&mut Flags::new(rest)) else {
        return ExitCode::SUCCESS;
    };
    if std::ptr::eq(cmd, &COMMANDS[0]) {
        eprintln!("reproduce: {msg}");
        if code == 2 {
            eprint!("{}", usage());
        }
    } else {
        eprintln!("reproduce {}: {msg}", cmd.name);
        if code == 2 {
            eprint!("{}", synopsis(cmd, "usage:"));
        }
    }
    ExitCode::from(code)
}
