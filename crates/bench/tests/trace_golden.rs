//! Golden trace diff: the JSONL event stream of the reference trace run
//! (bwaves, full Turnpike, smoke scale, the deterministic strike plan) must
//! stay byte-identical to `golden/trace_smoke.jsonl`. Regenerate after an
//! intentional schema or timing change with:
//!
//! ```sh
//! cargo run --release -p turnpike-bench --bin reproduce -- \
//!   trace bwaves --scheme turnpike --smoke --format jsonl \
//!   --out crates/bench/golden/trace_smoke.jsonl
//! ```

use turnpike_bench::{export_trace, TraceFormat};
use turnpike_resilience::{RunSpec, Scheme};
use turnpike_workloads::{find_kernel, Scale};

#[test]
fn jsonl_trace_matches_golden() {
    let kernel = find_kernel("bwaves", Scale::Smoke).expect("bwaves in catalog");
    let spec = RunSpec::new(Scheme::Turnpike);
    let got = export_trace(&kernel, &spec, TraceFormat::Jsonl).expect("trace run");
    let golden = include_str!("../golden/trace_smoke.jsonl");
    // Compare line counts first for a readable failure before the byte diff.
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "trace event count drifted from golden/trace_smoke.jsonl"
    );
    assert_eq!(
        got, golden,
        "trace stream drifted; see module docs to regen"
    );
}
