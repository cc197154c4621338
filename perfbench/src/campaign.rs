//! `campaign`: full-scale fault campaigns over the Fig-21 ladder on two
//! kernels of different footprint, through `fault_campaign_forked` — the
//! snapshot-fork and early-exit path campaign jobs use.
//!
//! Strike runs dominate and each (kernel, scheme) compiles once, so this
//! workload bypasses compiler and memoization changes.

use std::time::Instant;

use turnpike_compiler::ProtectionPolicy;
use turnpike_resilience::{
    fault_campaign_forked, preset, CampaignConfig, CampaignReport, ForkStats, RunSpec,
    StrikeOutcome, StrikeRecord,
};
use turnpike_workloads::{all_kernels, Kernel, Scale};

use crate::figures::add_fork;
use crate::stats::Tally;
use crate::trace::Tracer;
use crate::{ms, Iter, SplitMix, Workload};

/// Kernels campaigned: a streaming FP kernel and a pointer-chasing one.
pub(crate) const KERNELS: [&str; 2] = ["bwaves", "mcf"];

/// Injected runs per (kernel, rung) call.
pub(crate) const RUNS: usize = 64;

/// Workload seed of the committed reference.
pub const REFERENCE_SEED: u64 = 0;
/// Full-scale reports at [`REFERENCE_SEED`] with the benchmark's run
/// count, recorded at the commit that introduced the benchmark (one line
/// per call, see [`render_reports`]).
pub const REFERENCE: &str = include_str!("../reference/campaign_seed0.txt");

/// One line per call: kernel, scheme, and every report total plus the
/// simulated cycle and instruction sums.
pub(crate) fn render_reports(
    calls: &[(String, String)],
    reports: &[(CampaignReport, ForkStats)],
) -> String {
    use turnpike_metrics::Counter;
    calls
        .iter()
        .zip(reports)
        .map(|((kernel, scheme), (r, _))| {
            format!(
                "{kernel} {scheme} runs={} sdc={} recoveries={} detections={} parity={} \
                 sensor={} post_completion={} hangs={} cycles={} insts={}\n",
                r.runs,
                r.sdc,
                r.recoveries,
                r.detections,
                r.parity_detections,
                r.sensor_detections,
                r.post_completion,
                r.hangs,
                r.metrics.counter(Counter::Cycles),
                r.metrics.counter(Counter::Insts),
            )
        })
        .collect()
}

/// The campaign workload.
pub struct Campaign {
    scale: Scale,
    seed: u64,
    threads: usize,
    config: CampaignConfig,
    /// One campaign seed per (kernel, rung) call, so strike positions are
    /// independent across calls.
    seeds: Vec<u64>,
    kernels: Vec<Kernel>,
    /// First iteration's reports, by (kernel, rung) in call order: later
    /// iterations must equal them, and `finish` cross-checks them against
    /// the from-scratch path.
    first: Option<Vec<(CampaignReport, ForkStats)>>,
}

impl Campaign {
    /// Full scale, [`RUNS`] injected runs per (kernel, rung); every call's
    /// strike plans derive from `seed`.
    pub fn new(seed: u64, threads: usize) -> Campaign {
        Campaign::at(Scale::Full, seed, RUNS, threads)
    }

    /// Any scale (tests use smoke scale).
    pub fn at(scale: Scale, seed: u64, runs: usize, threads: usize) -> Campaign {
        let mut rng = SplitMix::new(seed);
        Campaign {
            scale,
            seed,
            threads,
            config: CampaignConfig {
                runs,
                strikes_per_run: 1,
                early_exit: true,
                ..CampaignConfig::default()
            },
            seeds: (0..KERNELS.len() * preset::LADDER.len())
                .map(|_| rng.next_u64())
                .collect(),
            kernels: Vec::new(),
            first: None,
        }
    }

    /// The first iteration's reports, rendered with [`render_reports`].
    pub fn rendered(&self) -> Option<String> {
        let names: Vec<(String, String)> = self
            .calls()
            .iter()
            .map(|(k, spec, _)| (k.name.to_string(), spec.scheme.cli_name().to_string()))
            .collect();
        self.first.as_ref().map(|r| render_reports(&names, r))
    }

    /// Every call: kernel, spec and campaign config, in call order.
    fn calls(&self) -> Vec<(&Kernel, RunSpec, CampaignConfig)> {
        let specs = self.kernels.iter().flat_map(|k| {
            preset::LADDER
                .iter()
                .map(move |rung| (k, RunSpec::new(rung.scheme)))
        });
        specs
            .zip(&self.seeds)
            .map(|((k, spec), &seed)| {
                let config = CampaignConfig {
                    seed,
                    ..self.config.clone()
                };
                (k, spec, config)
            })
            .collect()
    }
}

/// Invariants of one campaign's outputs: zero SDC and zero hangs on a
/// uniformly protected resilient scheme, and per-strike outcome totals
/// that add up to the runs executed. The adaptive rung leaves low-score
/// regions unprotected by design, so strikes there may corrupt the output
/// (counted as SDC) or hang; its totals are still checked.
pub(crate) fn check_report(
    spec: &RunSpec,
    config: &CampaignConfig,
    report: &CampaignReport,
    records: &[StrikeRecord],
) -> Result<(), String> {
    if report.runs != config.runs {
        return Err(format!("{} runs, expected {}", report.runs, config.runs));
    }
    let uniform = !matches!(
        spec.compiler_config().policy,
        ProtectionPolicy::Adaptive { .. }
    );
    if spec.scheme.is_resilient() && uniform && (report.sdc != 0 || report.hangs != 0) {
        return Err(format!(
            "{} SDC and {} hangs on a uniformly protected scheme",
            report.sdc, report.hangs
        ));
    }
    let count = |o: StrikeOutcome| records.iter().filter(|r| r.outcome == o).count();
    let strikes = config.runs * config.strikes_per_run;
    let (rec, post, sdc, hang) = (
        count(StrikeOutcome::Recovered),
        count(StrikeOutcome::PostCompletion),
        count(StrikeOutcome::Sdc),
        count(StrikeOutcome::Hang),
    );
    if records.len() != strikes || rec + post + sdc + hang != strikes {
        return Err(format!(
            "outcomes {rec}+{post}+{sdc}+{hang} over {} records, expected {strikes}",
            records.len()
        ));
    }
    if post != report.post_completion
        || sdc != report.sdc * config.strikes_per_run
        || hang != report.hangs * config.strikes_per_run
    {
        return Err("strike records disagree with the report totals".into());
    }
    Ok(())
}

impl Workload for Campaign {
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let all = all_kernels(self.scale);
        let took = ms(t0.elapsed());
        self.kernels = KERNELS
            .iter()
            .map(|name| {
                all.iter()
                    .find(|k| k.name == *name)
                    .cloned()
                    .ok_or_else(|| format!("kernel {name} missing from the catalog"))
            })
            .collect::<Result<_, _>>()?;
        Ok(took)
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let mut it = Iter::default();
        let root = tracer.open("campaign ladder", 0, 0);
        let t0 = Instant::now();
        let mut outs = Vec::new();
        for (job, (kernel, spec, config)) in self.calls().into_iter().enumerate() {
            let name = format!("campaign {}/{}", kernel.name, spec.scheme.cli_name());
            let span = tracer.open(name.as_str(), root.id(), job as u64 + 1);
            let t = Instant::now();
            let out = fault_campaign_forked(&kernel.program, &spec, &config, self.threads);
            let took = ms(t.elapsed());
            let strikes = out.as_ref().map_or(0, |(r, _, _)| r.runs);
            tracer.close(span, vec![("strike_runs".into(), strikes as f64)]);
            it.latencies_ms.push(took);
            outs.push((name, spec, config, took, out));
        }
        it.wall_s = t0.elapsed().as_secs_f64();
        tracer.close(root, vec![]);

        let mut reports = Vec::with_capacity(outs.len());
        for (i, (name, spec, config, took, out)) in outs.into_iter().enumerate() {
            match out {
                Ok((report, records, fork)) => {
                    let mut result = check_report(&spec, &config, &report, &records);
                    let executed = (fork.hits + fork.misses) as u64;
                    if result.is_ok() && executed != report.runs as u64 {
                        result = Err(format!(
                            "{executed} strike runs forked or simulated, report counts {}",
                            report.runs
                        ));
                    }
                    if let Some(first) = &self.first {
                        if result.is_ok() && first[i] != (report.clone(), fork) {
                            result = Err("report differs from the first iteration's".into());
                        }
                    }
                    it.check(|| name, result);
                    it.work.strike_runs += executed;
                    add_fork(&mut it.layer, took, &fork);
                    reports.push((report, fork));
                }
                Err(e) => it.check(|| name, Err(e.to_string())),
            }
        }
        let calls = (self.kernels.len() * preset::LADDER.len()) as u64;
        it.jobs = calls;
        // `fault_campaign_forked` exports no compile or golden-run count:
        // it compiles once and runs the golden path once per call by
        // construction, so these two are fixed at the call count — a
        // constant, not a measurement.
        it.work.compiles = calls;
        it.work.sims = calls;
        it.layer.add("compiler.calls", calls as f64);
        it.layer.add("sim.calls", calls as f64);
        if self.first.is_none() && reports.len() == calls as usize {
            self.first = Some(reports);
        }
        it
    }

    /// Cross-check the first iteration's reports against the from-scratch
    /// path (no snapshots, early exit off): they must be identical. At the
    /// reference seed they must also equal the committed reference.
    fn finish(&mut self) -> (Tally, Vec<String>) {
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        if self.seed == REFERENCE_SEED && self.scale == Scale::Full {
            let ok = self.rendered().as_deref() == Some(REFERENCE);
            tally.record(ok);
            if !ok {
                failures.push("reports differ from the committed reference".into());
            }
        }
        let Some(first) = self.first.clone() else {
            tally.record(false);
            failures.push("no complete iteration to cross-check".into());
            return (tally, failures);
        };
        for ((kernel, spec, config), (want, _)) in self.calls().into_iter().zip(&first) {
            let spec = spec.with_snapshot_interval(None);
            let scratch = CampaignConfig {
                early_exit: false,
                ..config
            };
            let got = fault_campaign_forked(&kernel.program, &spec, &scratch, self.threads);
            let ok = match got {
                Ok((report, _, fork)) if report == *want && fork.hits == 0 => Ok(()),
                Ok(_) => Err("forked report differs from the from-scratch path".to_string()),
                Err(e) => Err(e.to_string()),
            };
            tally.record(ok.is_ok());
            if let Err(e) = ok {
                failures.push(format!(
                    "scratch cross-check {}/{}: {e}",
                    kernel.name,
                    spec.scheme.cli_name()
                ));
            }
        }
        (tally, failures)
    }
}
