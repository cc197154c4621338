//! The benchmark's own checks: every workload's output oracles pass on
//! small inputs, and the exact work counts repeat exactly across
//! iterations and between one and two engine threads.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use turnpike_bench::explore::{run_explore, ExploreConfig, JobRunner};
use turnpike_bench::{Engine, EngineExecutor};
use turnpike_perfbench::campaign::{Campaign, REFERENCE, REFERENCE_SEED};
use turnpike_perfbench::figures::{smoke_anchor, Figures, GOLDEN_SMOKE};
use turnpike_perfbench::harness::{end_to_end, per_layer, per_layer_names, Metric, END_TO_END};
use turnpike_perfbench::served::{frontier_ids, frontier_of, Served, GOLDEN};
use turnpike_perfbench::trace::Tracer;
use turnpike_perfbench::{Iter, Work, Workload};
use turnpike_serve::Json;
use turnpike_workloads::Scale;

/// Prepare, set up, and run two checked iterations; returns the work
/// counts after asserting they repeat.
fn two_iterations(w: &mut dyn Workload) -> Work {
    w.prepare().expect("prepare");
    w.setup().expect("setup");
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let a: Iter = w.iterate(&off);
    let b: Iter = w.iterate(&on);
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert!(b.failures.is_empty(), "{:?}", b.failures);
    assert!(a.tally.attempted > 0 && a.tally.failed == 0);
    assert_eq!(a.work, b.work, "work counts differ between iterations");
    let (tally, failures) = w.finish();
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(tally.failed, 0);
    a.work
}

#[test]
fn figures_reproduce_the_smoke_golden_at_one_and_two_threads() {
    smoke_anchor(1).expect("1 thread");
    smoke_anchor(2).expect("2 threads");
    let one = two_iterations(&mut Figures::at(Scale::Smoke, GOLDEN_SMOKE, 1));
    let two = two_iterations(&mut Figures::at(Scale::Smoke, GOLDEN_SMOKE, 2));
    assert_eq!(one, two);
    assert_eq!((one.compiles, one.sims), (684, 1800));
}

#[test]
fn campaign_counts_and_reports_are_thread_invariant() {
    let mut one = Campaign::at(Scale::Smoke, 7, 16, 1);
    let mut two = Campaign::at(Scale::Smoke, 7, 16, 2);
    let w1 = two_iterations(&mut one);
    let w2 = two_iterations(&mut two);
    assert_eq!(w1, w2);
    assert_eq!(w1.strike_runs, 2 * 9 * 16);
    assert_eq!(one.rendered(), two.rendered());
}

#[test]
fn campaign_matches_the_committed_reference() {
    let mut c = Campaign::new(REFERENCE_SEED, 2);
    c.setup().expect("setup");
    let it = c.iterate(&Tracer::new(false));
    assert!(it.failures.is_empty(), "{:?}", it.failures);
    let got = c.rendered().expect("reports");
    assert_eq!(got, REFERENCE, "rendered reports:\n{got}");
    // The run's own cross-checks: from-scratch path and the reference.
    let (tally, failures) = c.finish();
    assert!(failures.is_empty() && tally.failed == 0, "{failures:?}");
}

#[test]
fn direct_explore_counts_are_thread_invariant() {
    // The served workload's explorer, run on the direct runner: the same
    // counts and the golden frontier at one and two batch threads.
    let golden = frontier_ids(GOLDEN).expect("golden");
    let counts: Vec<_> = [1, 2]
        .into_iter()
        .map(|threads| {
            let runner = JobRunner::Direct {
                exec: EngineExecutor::new(Engine::serial()),
                threads,
            };
            let report =
                run_explore(&runner, &ExploreConfig::smoke(), &mut |_| {}).expect("explore");
            assert_eq!(frontier_of(&report), golden);
            let c = report.counts;
            (c.canonical, c.promoted, c.frontier, c.jobs, c.campaign_runs)
        })
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0].3, 3984);
}

#[test]
fn served_payloads_equal_direct_execution_at_one_and_two_connections() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("served-test");
    let mut works = Vec::new();
    for conns in [1, 2] {
        let mut s = Served::new(conns, &dir.join(conns.to_string()));
        works.push(two_iterations(&mut s));
    }
    assert_eq!(works[0], works[1]);
    // The served stream is the explorer's: same jobs as the direct runner.
    assert_eq!(works[0].explore_jobs, 3984);
    assert!(works[0].strike_runs > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let v = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
    // Both reports emit exactly the listed metrics, in list order.
    let printed = |ms: Vec<Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    let mut notes = Vec::new();
    assert_eq!(
        printed(end_to_end(&[], &[], Work::default(), &mut notes)),
        e2e
    );
    assert_eq!(printed(per_layer(&[], &[], 0.0, &mut notes)), layers);
}
