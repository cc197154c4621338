//! `figures`: all 18 `figures::TARGETS` through one fresh memoizing
//! `Engine` per iteration, followed by the small strike probe that
//! `reproduce all` runs after the figures.
//!
//! Compiler, golden-path simulation and memoization do the work; strike
//! runs are almost absent, so a campaign-path change should not move it.
//! The figure set is the paper's, so the workload seed does not reach it.

use std::collections::BTreeMap;
use std::time::Instant;

use turnpike_bench::{fault_probe_metrics, Engine, TARGETS};
use turnpike_metrics::{Counter, Hist};
use turnpike_resilience::{par_map, preset, run_compiled, RunSpec, Scheme};
use turnpike_workloads::{all_kernels, Kernel, Scale};

use crate::trace::Tracer;
use crate::{ms, Iter, Layer, Work, Workload};

/// Full-scale tables, rendered like `reproduce all --json`, recorded at
/// the commit that introduced the benchmark.
pub(crate) const REFERENCE_FULL: &str = include_str!("../reference/figures_full.json");
/// The repository's smoke-scale golden for the same rendering.
pub const GOLDEN_SMOKE: &str = include_str!("../../crates/bench/golden/all_smoke.json");

/// Compiler passes whose time is reported, as named by `PassRecord` (every
/// pass the ladder compiles run).
pub(crate) const PASSES: [&str; 11] = [
    "baseline-size",
    "legalize",
    "licm",
    "livm+dce",
    "vulnerability",
    "partition",
    "checkpoint",
    "prune",
    "sched",
    "regalloc",
    "codegen",
];

/// Metric-name form of a pass name (`livm+dce` -> `livm_dce`).
pub(crate) fn pass_metric(pass: &str) -> String {
    format!(
        "compiler.pass.{}_ms",
        pass.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
    )
}

/// Render tables exactly as `reproduce all --json` prints them.
pub(crate) fn render(tables: &[turnpike_bench::Table]) -> String {
    tables.iter().map(|t| t.to_json() + "\n").collect()
}

/// The figures workload.
pub struct Figures {
    scale: Scale,
    threads: usize,
    reference: &'static str,
    kernels: Vec<Kernel>,
}

impl Figures {
    /// Full scale, checked against [`REFERENCE_FULL`].
    pub fn new(threads: usize) -> Figures {
        Figures::at(Scale::Full, REFERENCE_FULL, threads)
    }

    /// Any scale against any reference (tests use smoke scale).
    pub fn at(scale: Scale, reference: &'static str, threads: usize) -> Figures {
        Figures {
            scale,
            threads,
            reference,
            kernels: Vec::new(),
        }
    }

    /// Generate every target on a fresh engine, in `TARGETS` order over the
    /// thread budget as `reproduce all` does; returns the rendered set, the
    /// engine, and per-target ms by target index.
    fn generate(&self, tracer: &Tracer, parent: u64) -> (String, Engine, Vec<f64>) {
        let engine = Engine::new(self.threads);
        let outer = self.threads.min(TARGETS.len());
        let per_figure = engine.with_threads((self.threads / outer.max(1)).max(1));
        let runs = par_map(&TARGETS, outer, |i, target| {
            let span = tracer.open(format!("figure {}", target.name), parent, i as u64 + 1);
            let scoped = per_figure.figure_scope();
            let t0 = Instant::now();
            let table = (target.generate)(&scoped, self.scale);
            scoped.note_figure();
            let took = ms(t0.elapsed());
            let (hits, misses) = scoped.figure_cache_stats();
            tracer.close(
                span,
                vec![
                    ("run_hits".into(), hits as f64),
                    ("run_misses".into(), misses as f64),
                ],
            );
            (i, table, took)
        });
        let mut tables: Vec<Option<turnpike_bench::Table>> = vec![None; TARGETS.len()];
        let mut took = vec![0.0; TARGETS.len()];
        for (i, table, t) in runs {
            tables[i] = Some(table);
            took[i] = t;
        }
        let tables: Vec<_> = tables
            .into_iter()
            .map(|t| t.expect("every target"))
            .collect();
        (render(&tables), engine, took)
    }

    /// Traced-only probes of cached compiles and the golden path: pass
    /// timings from the `PassRecord`s of the ladder compiles (cache hits,
    /// no new compile), and one timed `run_compiled` per kernel under
    /// Turnpike for the simulator's ns/inst.
    fn probe(&self, engine: &Engine, layer: &mut Layer) {
        let mut pass_ns: BTreeMap<&str, u128> = BTreeMap::new();
        let schemes =
            std::iter::once(Scheme::Baseline).chain(preset::LADDER.iter().map(|r| r.scheme));
        for scheme in schemes {
            let cc = RunSpec::new(scheme).compiler_config();
            for k in &self.kernels {
                for rec in &engine.compile(k, &cc).passes {
                    *pass_ns.entry(rec.name).or_default() += rec.nanos;
                }
            }
        }
        for pass in PASSES {
            let ns = pass_ns.get(pass).copied().unwrap_or(0);
            layer.add(&pass_metric(pass), ns as f64 / 1e6);
        }
        let spec = RunSpec::new(Scheme::Turnpike);
        let (cc, sc) = (spec.compiler_config(), spec.sim_config());
        let (mut insts, mut ns) = (0u64, 0u128);
        for k in &self.kernels {
            let compiled = engine.compile(k, &cc);
            let t0 = Instant::now();
            if let Ok(r) = run_compiled(&compiled, &sc) {
                ns += t0.elapsed().as_nanos();
                insts += r.metrics.counter(Counter::Insts);
            }
        }
        layer.add("sim.insts", insts as f64);
        layer.add("sim.probe_ns", ns as f64);
    }
}

impl Workload for Figures {
    fn prepare(&mut self) -> Result<(), String> {
        if self.scale == Scale::Full {
            smoke_anchor(self.threads)?;
        }
        Ok(())
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        self.kernels = all_kernels(self.scale);
        Ok(ms(t0.elapsed()))
    }

    fn iterate(&mut self, tracer: &Tracer) -> Iter {
        let mut it = Iter::default();
        let root = tracer.open("figures all", 0, 0);
        let t0 = Instant::now();
        let (rendered, engine, took) = self.generate(tracer, root.id());
        let probe_span = tracer.open("fault probe", root.id(), 0);
        let t_probe = Instant::now();
        let probe = fault_probe_metrics(self.threads);
        let probe_ms = ms(t_probe.elapsed());
        it.wall_s = t0.elapsed().as_secs_f64();
        let m = engine.metrics();
        let hist_ms = |h: Hist| m.hist(h).map_or(0.0, |h| h.sum() as f64 / 1e3);
        let (compiles, sims) = (engine.compile_count() as u64, engine.sim_count() as u64);
        tracer.close(
            probe_span,
            vec![(
                "strike_runs".into(),
                probe.as_ref().map_or(0, |(_, f)| f.hits + f.misses) as f64,
            )],
        );
        tracer.close(
            root,
            vec![
                ("compiles".into(), compiles as f64),
                ("sims".into(), sims as f64),
            ],
        );

        for (i, target) in TARGETS.iter().enumerate() {
            it.layer
                .add(&format!("bench.figure_ms.{}", target.name), took[i]);
        }
        // One request is the whole set, as `reproduce all` serves it.
        it.jobs = 1;
        let got = rendered.as_bytes();
        let want = self.reference.as_bytes();
        it.check(
            || "figures".into(),
            if got == want {
                Ok(())
            } else {
                let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
                Err(format!(
                    "rendered tables differ from the reference at byte {at}"
                ))
            },
        );
        let fork = match probe {
            Ok((_, fork)) => {
                it.check(|| "fault probe".into(), Ok(()));
                fork
            }
            Err(e) => {
                it.check(|| "fault probe".into(), Err(e.to_string()));
                Default::default()
            }
        };
        let strikes = (fork.hits + fork.misses) as u64;
        it.work = Work {
            compiles,
            sims,
            strike_runs: strikes,
            explore_jobs: 0,
        };
        let l = &mut it.layer;
        l.add("compiler.calls", compiles as f64);
        l.add("compiler.busy_ms", hist_ms(Hist::CompileMicros));
        l.add("sim.calls", sims as f64);
        l.add("sim.busy_ms", hist_ms(Hist::SimMicros));
        l.add(
            "bench.compile_hits",
            m.counter(Counter::BenchCompileHits) as f64,
        );
        l.add(
            "bench.compile_misses",
            m.counter(Counter::BenchCompileMisses) as f64,
        );
        l.add("bench.run_hits", m.counter(Counter::BenchRunHits) as f64);
        l.add(
            "bench.run_misses",
            m.counter(Counter::BenchRunMisses) as f64,
        );
        add_fork(l, probe_ms, &fork);
        if tracer.enabled() {
            self.probe(&engine, l);
        }
        it
    }
}

/// Record one campaign's cost and fork accounting into `layer`.
pub(crate) fn add_fork(layer: &mut Layer, busy_ms: f64, fork: &turnpike_resilience::ForkStats) {
    layer.add("resilience.campaign_busy_ms", busy_ms);
    layer.add("resilience.strike_runs", (fork.hits + fork.misses) as f64);
    layer.add("resilience.fork_hits", fork.hits as f64);
    layer.add(
        "resilience.prefix_cycles_saved",
        fork.prefix_cycles_saved as f64,
    );
    layer.add("resilience.replay_exits", fork.replay_exits as f64);
    layer.add(
        "resilience.replay_cycles_saved",
        fork.replay_cycles_saved as f64,
    );
}

/// Smoke-scale anchor: the same code must reproduce the repository's
/// `all_smoke.json` golden byte for byte.
pub fn smoke_anchor(threads: usize) -> Result<(), String> {
    let mut f = Figures::at(Scale::Smoke, GOLDEN_SMOKE, threads);
    f.setup()?;
    let it = f.iterate(&Tracer::new(false));
    if it.failures.is_empty() {
        Ok(())
    } else {
        Err(it.failures.join("; "))
    }
}
