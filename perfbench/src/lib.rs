//! Benchmark harness for the Turnpike reproduction.
//!
//! Three workloads call the library's public API and time those calls:
//! `figures` (the full paper figure set on a fresh memoizing engine),
//! `campaign` (snapshot-forked fault campaigns over the Fig-21 ladder)
//! and `served` (the staged design-space explorer at smoke scale, its
//! jobs through a local job server).
//! Every iteration's outputs are checked; see `README.md` in this
//! directory for the metric definitions and the layer map.

pub mod campaign;
pub mod figures;
pub mod harness;
pub mod served;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

use turnpike_metrics::Histogram;

use crate::stats::Tally;
use crate::trace::Tracer;

/// Exact work counts of one iteration. They carry no host noise, so they
/// must repeat exactly across iterations, runs and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Compilations performed.
    pub compiles: u64,
    /// Fault-free simulations performed (engine sims; the campaign
    /// workload's one golden run per call is a fixed count, see there).
    pub sims: u64,
    /// Injected strike runs.
    pub strike_runs: u64,
    /// Explorer jobs issued.
    pub explore_jobs: u64,
}

/// Per-layer raw readings of one iteration: additive sums, latency
/// histograms exported by the program, and raw samples.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Additive quantities by metric key.
    pub sums: BTreeMap<String, f64>,
    /// Histograms read from the program's registries.
    pub hists: BTreeMap<String, Histogram>,
    /// Raw samples (e.g. per-job wire time).
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Layer {
    /// Add `v` to the sum under `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_default() += v;
    }

    /// Merge a histogram under `key`.
    pub fn merge_hist(&mut self, key: &str, h: &Histogram) {
        self.hists.entry(key.to_string()).or_default().merge(h);
    }

    /// Append one raw sample under `key`.
    pub fn sample(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// Fold another iteration's readings in.
    pub fn absorb(&mut self, o: &Layer) {
        for (k, v) in &o.sums {
            self.add(k, *v);
        }
        for (k, h) in &o.hists {
            self.merge_hist(k, h);
        }
        for (k, xs) in &o.samples {
            self.samples.entry(k.clone()).or_default().extend(xs);
        }
    }

    /// The sum under `key`, 0 when never recorded.
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// Everything one iteration measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Iter {
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// Process CPU seconds over the whole iteration (set by the harness).
    pub cpu_s: f64,
    /// Ops attempted / failed (wrong outputs count as failed).
    pub tally: Tally,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// Completed unit requests (figure sets, campaign calls, explorer
    /// jobs, served jobs).
    pub jobs: u64,
    /// Per-request latency, ms (one sample per timed call).
    pub latencies_ms: Vec<f64>,
    /// Exact work counts.
    pub work: Work,
    /// Per-layer readings.
    pub layer: Layer,
    /// Set-up seconds this iteration paid itself (the served workload
    /// starts a fresh server per iteration), with its catalog-build ms.
    pub setup: Option<(f64, f64)>,
}

impl Iter {
    /// Record one checked op; `Err` carries the reason it failed.
    pub fn check(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.tally.record(result.is_ok());
        if let Err(e) = result {
            self.failures.push(format!("{}: {e}", what()));
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Untimed, once per run: build references and oracles.
    ///
    /// # Errors
    ///
    /// When a reference cannot be built or an anchor does not reproduce.
    fn prepare(&mut self) -> Result<(), String>;

    /// One set-up (the harness times the call and repeats it). Returns the
    /// kernel-catalog build time in ms.
    ///
    /// # Errors
    ///
    /// When the server, store or catalog cannot be brought up.
    fn setup(&mut self) -> Result<f64, String>;

    /// Untimed, before each set-up: release what the last
    /// set-up brought up (a running server), so `setup_s` times only the
    /// bring-up.
    fn teardown(&mut self) {}

    /// One timed iteration. Spans go to `tracer` (a disabled tracer costs
    /// one branch per span).
    fn iterate(&mut self, tracer: &Tracer) -> Iter;

    /// Untimed, once after the timed loop: seed-independent cross-checks.
    /// Returns a tally of checked ops with failure messages.
    fn finish(&mut self) -> (Tally, Vec<String>) {
        (Tally::default(), Vec::new())
    }

    /// Latency samples the per-layer tail needs before the loop may stop.
    fn min_samples(&self) -> usize {
        0
    }

    /// Facts about the run's inputs for the report (e.g. the measured
    /// repeat share of a served job stream).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
