//! In-memory spans around the benchmark's own calls into the library,
//! written out as one Chrome-trace JSON (opens in Perfetto next to
//! `reproduce trace` output).
//!
//! A disabled [`Tracer`] costs one branch per span, so untraced iterations
//! run the exact same benchmark code as traced ones.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use turnpike_bench::{json_number, json_string};

use crate::stats::self_time;

/// One finished span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one job; 0 when not a job.
    pub job: u64,
    /// Span name, e.g. `figure fig19` or `campaign bwaves/turnpike`.
    pub name: String,
    /// Small per-thread number.
    pub tid: u64,
    /// Start, µs since epoch.
    pub start_us: u64,
    /// End, µs since epoch.
    pub end_us: u64,
    /// Counters read after the call returned.
    pub args: Vec<(String, f64)>,
}

/// An open span: close it with [`Tracer::close`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    job: u64,
    name: String,
    start_us: u64,
}

impl Open {
    /// This span's id, for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Span collector. `Sync`: worker threads record into the same tracer.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: Cell<u64> = const { Cell::new(0) });
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span under `parent` (0 for a root). `job` groups the spans
    /// of one request; pass 0 outside jobs.
    pub fn open(&self, name: impl Into<String>, parent: u64, job: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                job,
                name: String::new(),
                start_us: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name: name.into(),
            start_us: self.now_us(),
        }
    }

    /// Close `open`, attaching counters read after the call.
    pub fn close(&self, open: Open, args: Vec<(String, f64)>) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            job: open.job,
            name: open.name,
            tid: thread_number(),
            start_us: open.start_us,
            end_us: self.now_us().max(open.start_us),
            args,
        };
        self.spans.lock().expect("spans").push(span);
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("spans").clone()
    }

    /// Render all spans as a Chrome trace (`traceEvents` of complete
    /// events) with `metadata` key/value pairs (thread counts, commit...).
    pub fn chrome_json(&self, metadata: &[(String, String)]) -> String {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"job\":{},\"self_us\":{}",
                json_string(&s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.id,
                s.parent,
                s.job,
                selfs.get(&s.id).copied().unwrap_or(0),
            ));
            for (k, v) in &s.args {
                out.push_str(&format!(",{}:{}", json_string(k), json_number(*v)));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"metadata\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
        }
        out.push_str("}}\n");
        out
    }
}

/// Self time per span id: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time((s.start_us, s.end_us), kids))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: u64, end_us: u64, tid: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: format!("s{id}"),
            tid,
            start_us,
            end_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_with_children_on_two_threads() {
        // Root 0..100; two workers' children overlap on 30..40.
        let spans = vec![
            span(1, 0, 0, 100, 1),
            span(2, 1, 10, 40, 2),
            span(3, 1, 30, 70, 3),
            span(4, 2, 10, 20, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40); // 100 - |10..70|
        assert_eq!(st[&2], 20); // 30 - |10..20|
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let o = t.open("x", 0, 0);
        assert_eq!(o.id(), 0);
        t.close(o, vec![]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let t = Tracer::new(true);
        let root = t.open("iteration", 0, 0);
        let child = t.open("job \"a\"", root.id(), 7);
        let child_id = child.id();
        t.close(child, vec![("runs".to_string(), 16.0)]);
        let root_id = root.id();
        t.close(root, vec![]);
        let json = t.chrome_json(&[("threads".to_string(), "2".to_string())]);
        let v = turnpike_serve::Json::parse(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("id").and_then(|x| x.as_u64()), Some(child_id));
        assert_eq!(args.get("parent").and_then(|x| x.as_u64()), Some(root_id));
        assert_eq!(args.get("job").and_then(|x| x.as_u64()), Some(7));
    }
}
