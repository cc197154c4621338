//! Resilience event tracing.
//!
//! The simulator narrates the interesting *resilience* events of a run —
//! region lifecycle, store release decisions, SB occupancy, CLQ checks,
//! stalls, strikes, detections, recoveries — as a stream of
//! [`TraceEvent`]s pushed into a [`TraceSink`]. Three sinks ship with the
//! crate:
//!
//! * [`Trace`] — a bounded in-memory ring buffer (oldest events evicted
//!   past the cap) for tests and interactive inspection; attach one with
//!   [`Core::attach_sink`](crate::Core::attach_sink) via [`shared_sink`].
//! * [`JsonlSink`] — a streaming writer emitting one JSON object per
//!   event, for post-processing and golden-file diffs.
//! * [`ChromeTrace`] — an exporter rendering region lifecycles, SB
//!   occupancy, stalls, and strike→detection→recovery arcs in the Chrome
//!   trace-event format, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`.
//!
//! Attach any sink with [`Core::attach_sink`](crate::Core::attach_sink).
//! When no sink is attached the emission sites reduce to a branch on a
//! `None` option, so untraced runs pay (and produce) nothing.

use std::collections::VecDeque;
use std::rc::Rc;

/// Why the pipeline stalled (trace-visible mirror of the stall counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// No free slot in the gated store buffer.
    SbFull,
    /// Waiting on a register operand.
    DataHazard,
    /// Waiting on a register operand, and the consumer is a checkpoint.
    CkptHazard,
    /// Waiting for the single memory port.
    MemPort,
    /// Waiting for RBB room at a region boundary.
    RbbFull,
}

impl StallKind {
    /// Stable snake-case name (used in JSONL and Chrome trace output).
    pub fn name(self) -> &'static str {
        match self {
            StallKind::SbFull => "sb_full",
            StallKind::DataHazard => "data_hazard",
            StallKind::CkptHazard => "ckpt_hazard",
            StallKind::MemPort => "mem_port",
            StallKind::RbbFull => "rbb_full",
        }
    }
}

/// One traced event, stamped with the cycle it occurred at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A region boundary committed: instance `seq` begins.
    RegionStart {
        /// Cycle of the boundary commit.
        cycle: u64,
        /// Dynamic region sequence number.
        seq: u64,
    },
    /// A region instance passed its WCDL window error-free.
    RegionVerified {
        /// Cycle at which verification was processed.
        cycle: u64,
        /// Dynamic region sequence number.
        seq: u64,
    },
    /// A regular store bypassed verification via the WAR-free check.
    WarFreeRelease {
        /// Issue cycle.
        cycle: u64,
        /// Store address.
        addr: u64,
    },
    /// A checkpoint bypassed verification via hardware coloring.
    ColoredRelease {
        /// Issue cycle.
        cycle: u64,
        /// Checkpointed register.
        reg: u8,
        /// Assigned color.
        color: u8,
    },
    /// A store (regular or checkpoint fallback) entered the gated SB.
    Quarantined {
        /// Issue cycle.
        cycle: u64,
        /// Owning dynamic region.
        seq: u64,
    },
    /// A quarantined entry drained to cache after verification (or was
    /// force-drained at end of run / recovery settle).
    SbRelease {
        /// Release cycle.
        cycle: u64,
        /// Owning dynamic region.
        seq: u64,
    },
    /// A particle strike landed.
    Strike {
        /// Strike cycle.
        cycle: u64,
    },
    /// An error was detected (sensor or parity).
    Detection {
        /// Detection cycle.
        cycle: u64,
    },
    /// Recovery ran: unverified state squashed, `target` restarted.
    Recovery {
        /// Cycle recovery began.
        cycle: u64,
        /// Dynamic region instance re-executed.
        target_seq: u64,
        /// PC execution resumed from.
        resume_pc: u32,
    },
    /// Gated-SB occupancy sample, taken whenever occupancy changes.
    SbOccupancy {
        /// Sample cycle.
        cycle: u64,
        /// Entries currently quarantined.
        entries: u32,
        /// Region executing when the sample was taken.
        seq: u64,
    },
    /// A regular store consulted the committed load queue.
    ClqCheck {
        /// Check cycle.
        cycle: u64,
        /// Store address checked.
        addr: u64,
        /// Region issuing the store.
        seq: u64,
        /// `true` = hit (proven WAR-free, fast released); `false` = miss
        /// (quarantined).
        war_free: bool,
    },
    /// A verified SB entry drained into the data cache.
    CacheWriteback {
        /// Writeback cycle.
        cycle: u64,
        /// Written address.
        addr: u64,
        /// Region the store belonged to.
        seq: u64,
    },
    /// The pipeline stalled.
    Stall {
        /// Cycle the stall began.
        cycle: u64,
        /// PC of the stalled instruction.
        pc: u32,
        /// Region executing when the stall began.
        seq: u64,
        /// Stall reason.
        kind: StallKind,
        /// Stall length in cycles.
        cycles: u64,
    },
}

impl TraceEvent {
    /// The cycle stamp of the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::RegionStart { cycle, .. }
            | TraceEvent::RegionVerified { cycle, .. }
            | TraceEvent::WarFreeRelease { cycle, .. }
            | TraceEvent::ColoredRelease { cycle, .. }
            | TraceEvent::Quarantined { cycle, .. }
            | TraceEvent::SbRelease { cycle, .. }
            | TraceEvent::Strike { cycle }
            | TraceEvent::Detection { cycle }
            | TraceEvent::Recovery { cycle, .. }
            | TraceEvent::SbOccupancy { cycle, .. }
            | TraceEvent::ClqCheck { cycle, .. }
            | TraceEvent::CacheWriteback { cycle, .. }
            | TraceEvent::Stall { cycle, .. } => cycle,
        }
    }

    /// Stable snake-case kind name (the `"kind"` field of the JSONL
    /// schema).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RegionStart { .. } => "region_start",
            TraceEvent::RegionVerified { .. } => "region_verified",
            TraceEvent::WarFreeRelease { .. } => "war_free_release",
            TraceEvent::ColoredRelease { .. } => "colored_release",
            TraceEvent::Quarantined { .. } => "quarantined",
            TraceEvent::SbRelease { .. } => "sb_release",
            TraceEvent::Strike { .. } => "strike",
            TraceEvent::Detection { .. } => "detection",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::SbOccupancy { .. } => "sb_occupancy",
            TraceEvent::ClqCheck { .. } => "clq_check",
            TraceEvent::CacheWriteback { .. } => "cache_writeback",
            TraceEvent::Stall { .. } => "stall",
        }
    }

    /// One-line JSON object for the event (the JSONL record schema):
    /// always `cycle` first and `kind` second, then the variant's fields
    /// in declaration order. All values are numbers, booleans, or fixed
    /// enum names, so no string escaping is ever required.
    pub fn to_json(&self) -> String {
        let head = format!("{{\"cycle\":{},\"kind\":\"{}\"", self.cycle(), self.kind());
        let rest = match *self {
            TraceEvent::RegionStart { seq, .. } | TraceEvent::RegionVerified { seq, .. } => {
                format!(",\"seq\":{seq}")
            }
            TraceEvent::WarFreeRelease { addr, .. } => format!(",\"addr\":{addr}"),
            TraceEvent::ColoredRelease { reg, color, .. } => {
                format!(",\"reg\":{reg},\"color\":{color}")
            }
            TraceEvent::Quarantined { seq, .. } | TraceEvent::SbRelease { seq, .. } => {
                format!(",\"seq\":{seq}")
            }
            TraceEvent::Strike { .. } | TraceEvent::Detection { .. } => String::new(),
            TraceEvent::Recovery {
                target_seq,
                resume_pc,
                ..
            } => format!(",\"target_seq\":{target_seq},\"resume_pc\":{resume_pc}"),
            TraceEvent::SbOccupancy { entries, seq, .. } => {
                format!(",\"entries\":{entries},\"seq\":{seq}")
            }
            TraceEvent::ClqCheck {
                addr,
                seq,
                war_free,
                ..
            } => format!(",\"addr\":{addr},\"seq\":{seq},\"war_free\":{war_free}"),
            TraceEvent::CacheWriteback { addr, seq, .. } => {
                format!(",\"addr\":{addr},\"seq\":{seq}")
            }
            TraceEvent::Stall {
                pc,
                seq,
                kind,
                cycles,
                ..
            } => format!(
                ",\"pc\":{pc},\"seq\":{seq},\"stall\":\"{}\",\"cycles\":{cycles}",
                kind.name()
            ),
        };
        head + &rest + "}"
    }
}

/// A consumer of the simulator's resilience event stream.
///
/// The core holds at most one attached sink and forwards every emitted
/// [`TraceEvent`] to it, in emission order. Implementations must not
/// assume *global* cycle monotonicity: the event-skip simulator settles
/// future verification work before processing a strike that landed
/// earlier, so cycles are non-decreasing per event kind but may step
/// backwards across kinds.
pub trait TraceSink {
    /// Consume one event.
    fn record(&mut self, ev: &TraceEvent);
}

/// Box a sink into the reference-counted handle
/// [`Core::attach_sink`](crate::Core::attach_sink) accepts, retaining a
/// handle for reading the sink back after the run.
///
/// ```
/// # use turnpike_sim::{shared_sink, Trace};
/// let sink = shared_sink(Trace::new(1024));
/// // core.attach_sink(sink.clone());
/// // ... run ...
/// let trace = sink.borrow();
/// # assert_eq!(trace.len(), 0);
/// ```
pub fn shared_sink<S: TraceSink + 'static>(sink: S) -> Rc<std::cell::RefCell<S>> {
    Rc::new(std::cell::RefCell::new(sink))
}

/// A bounded in-memory recorder: a true ring buffer. When full, the
/// *oldest* event is evicted to admit the new one, so the trace always
/// holds the most recent `cap` events and `dropped` counts the evictions.
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    cap: usize,
    /// Oldest events evicted because the buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// A trace holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Trace {
            events: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record an event, evicting the oldest one if the buffer is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, selected by a predicate.
    pub fn filter<'a, P>(&'a self, pred: P) -> impl Iterator<Item = &'a TraceEvent>
    where
        P: Fn(&TraceEvent) -> bool + 'a,
    {
        self.events.iter().filter(move |e| pred(e))
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(65536)
    }
}

impl TraceSink for Trace {
    fn record(&mut self, ev: &TraceEvent) {
        self.push(*ev);
    }
}

/// A streaming sink writing one JSON object per event (JSON Lines).
///
/// Events are formatted with [`TraceEvent::to_json`] — a fixed,
/// diff-stable schema — and written eagerly, so arbitrarily long runs
/// trace in constant memory. Write errors set [`JsonlSink::errored`]
/// rather than panicking inside the simulator loop.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    w: W,
    /// Events successfully written.
    pub written: u64,
    /// Whether any write failed (output is truncated/unusable).
    pub errored: bool,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// A sink streaming to `w`.
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            written: 0,
            errored: false,
        }
    }

    /// Flush and recover the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.errored {
            return;
        }
        match writeln!(self.w, "{}", ev.to_json()) {
            Ok(()) => self.written += 1,
            Err(_) => self.errored = true,
        }
    }
}

// Chrome trace-event thread lanes, one per subsystem.
const TID_REGIONS: u32 = 0;
const TID_SB: u32 = 1;
const TID_STALLS: u32 = 2;
const TID_FAULTS: u32 = 3;
const TID_MEM: u32 = 4;

/// An exporter producing Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load).
///
/// The stream is buffered during the run and rendered on demand:
///
/// * **regions** lane — one complete (`"X"`) span per region instance,
///   from boundary commit to verification; spans cut short by a recovery
///   are closed at the recovery cycle and tagged `squashed`.
/// * **store buffer** lane — an occupancy counter track plus quarantine /
///   release instants.
/// * **stalls** lane — one span per pipeline stall, named by cause.
/// * **faults** lane — strike, detection, and recovery instants joined by
///   flow arrows (`"s"`/`"t"`/`"f"`), so the strike→detection→recovery
///   arc reads as one arrow chain on the timeline.
/// * **memory** lane — cache writebacks and fast releases.
///
/// One simulated cycle maps to one microsecond of trace time.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// An empty exporter.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// The buffered raw events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Render the buffered stream as a Chrome trace-event JSON document.
    pub fn render(&self) -> String {
        let mut out: Vec<String> = Vec::with_capacity(self.events.len() + 8);
        out.push(meta_json("process_name", None, "turnpike-sim"));
        for (tid, name) in [
            (TID_REGIONS, "regions"),
            (TID_SB, "store buffer"),
            (TID_STALLS, "stalls"),
            (TID_FAULTS, "faults"),
            (TID_MEM, "memory"),
        ] {
            out.push(meta_json("thread_name", Some(tid), name));
        }

        let max_cycle = self.events.iter().map(TraceEvent::cycle).max().unwrap_or(0);
        // Open region spans: (seq, start cycle), insertion-ordered.
        let mut open: Vec<(u64, u64)> = Vec::new();
        let mut flow = 0u64; // last strike's flow-arc id
        let mut flow_open = false;
        let (mut clq_hits, mut clq_misses) = (0u64, 0u64);
        for ev in &self.events {
            let c = ev.cycle();
            match *ev {
                TraceEvent::RegionStart { seq, .. } => open.push((seq, c)),
                TraceEvent::RegionVerified { seq, .. } => {
                    if let Some(i) = open.iter().position(|&(s, _)| s == seq) {
                        let (_, start) = open.remove(i);
                        out.push(span_json(
                            &format!("region {seq}"),
                            TID_REGIONS,
                            start,
                            c.saturating_sub(start),
                            &format!("\"seq\":{seq},\"state\":\"verified\""),
                        ));
                    }
                }
                TraceEvent::Recovery {
                    target_seq,
                    resume_pc,
                    ..
                } => {
                    // Every open (unverified) instance dies with the
                    // recovery; the target restarts from the recovery
                    // cycle.
                    for (seq, start) in open.drain(..) {
                        out.push(span_json(
                            &format!("region {seq}"),
                            TID_REGIONS,
                            start,
                            c.saturating_sub(start),
                            &format!("\"seq\":{seq},\"state\":\"squashed\""),
                        ));
                    }
                    open.push((target_seq, c));
                    out.push(span_json(
                        "recovery",
                        TID_FAULTS,
                        c,
                        1,
                        &format!("\"target_seq\":{target_seq},\"resume_pc\":{resume_pc}"),
                    ));
                    if flow_open {
                        out.push(flow_json("f", flow, c));
                        flow_open = false;
                    }
                }
                TraceEvent::Strike { .. } => {
                    flow += 1;
                    flow_open = true;
                    out.push(span_json("strike", TID_FAULTS, c, 1, ""));
                    out.push(flow_json("s", flow, c));
                }
                TraceEvent::Detection { .. } => {
                    out.push(span_json("detection", TID_FAULTS, c, 1, ""));
                    if flow_open {
                        out.push(flow_json("t", flow, c));
                    }
                }
                TraceEvent::SbOccupancy { entries, .. } => {
                    out.push(format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"tid\":{TID_SB},\"ts\":{c},\
                         \"name\":\"sb occupancy\",\"args\":{{\"entries\":{entries}}}}}"
                    ));
                }
                TraceEvent::Quarantined { seq, .. } => {
                    out.push(instant_json(
                        "quarantine",
                        TID_SB,
                        c,
                        &format!("\"seq\":{seq}"),
                    ));
                }
                TraceEvent::SbRelease { seq, .. } => {
                    out.push(instant_json(
                        "sb release",
                        TID_SB,
                        c,
                        &format!("\"seq\":{seq}"),
                    ));
                }
                TraceEvent::Stall {
                    pc, kind, cycles, ..
                } => {
                    out.push(span_json(
                        &format!("stall: {}", kind.name()),
                        TID_STALLS,
                        c,
                        cycles.max(1),
                        &format!("\"pc\":{pc},\"cycles\":{cycles}"),
                    ));
                }
                TraceEvent::ClqCheck { war_free, .. } => {
                    if war_free {
                        clq_hits += 1;
                    } else {
                        clq_misses += 1;
                    }
                    out.push(format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"tid\":{TID_MEM},\"ts\":{c},\
                         \"name\":\"clq\",\"args\":{{\"hits\":{clq_hits},\
                         \"misses\":{clq_misses}}}}}"
                    ));
                }
                TraceEvent::CacheWriteback { addr, seq, .. } => {
                    out.push(instant_json(
                        "writeback",
                        TID_MEM,
                        c,
                        &format!("\"addr\":{addr},\"seq\":{seq}"),
                    ));
                }
                TraceEvent::WarFreeRelease { addr, .. } => {
                    out.push(instant_json(
                        "war-free release",
                        TID_MEM,
                        c,
                        &format!("\"addr\":{addr}"),
                    ));
                }
                TraceEvent::ColoredRelease { reg, color, .. } => {
                    out.push(instant_json(
                        "colored release",
                        TID_MEM,
                        c,
                        &format!("\"reg\":{reg},\"color\":{color}"),
                    ));
                }
            }
        }
        // Regions still open at end of stream never verified in-window.
        for (seq, start) in open {
            out.push(span_json(
                &format!("region {seq}"),
                TID_REGIONS,
                start,
                max_cycle.saturating_sub(start).max(1),
                &format!("\"seq\":{seq},\"state\":\"unverified\""),
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
    }
}

impl TraceSink for ChromeTrace {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

fn meta_json(kind: &str, tid: Option<u32>, name: &str) -> String {
    let tid = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
    format!(
        "{{\"ph\":\"M\",\"pid\":0,{tid}\"name\":\"{kind}\",\
         \"args\":{{\"name\":\"{name}\"}}}}"
    )
}

fn span_json(name: &str, tid: u32, ts: u64, dur: u64, args: &str) -> String {
    format!(
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
         \"name\":\"{name}\",\"args\":{{{args}}}}}"
    )
}

fn instant_json(name: &str, tid: u32, ts: u64, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
         \"name\":\"{name}\",\"args\":{{{args}}}}}"
    )
}

fn flow_json(ph: &str, id: u64, ts: u64) -> String {
    let bind = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
    format!(
        "{{\"ph\":\"{ph}\",\"cat\":\"fault\",\"id\":{id},\"pid\":0,\
         \"tid\":{TID_FAULTS},\"ts\":{ts},\"name\":\"fault arc\"{bind}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_cap_drops_oldest() {
        let mut t = Trace::new(2);
        t.push(TraceEvent::Strike { cycle: 1 });
        t.push(TraceEvent::Detection { cycle: 2 });
        t.push(TraceEvent::Strike { cycle: 3 }); // evicts cycle 1
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 1);
        // Ring semantics: the *newest* events are retained.
        assert_eq!(t.events()[0].cycle(), 2);
        assert_eq!(t.events()[1].cycle(), 3);
        t.push(TraceEvent::Detection { cycle: 4 });
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events()[0].cycle(), 3);
    }

    #[test]
    fn filter_by_kind() {
        let mut t = Trace::default();
        t.push(TraceEvent::RegionStart { cycle: 5, seq: 1 });
        t.push(TraceEvent::Detection { cycle: 9 });
        t.push(TraceEvent::RegionStart { cycle: 12, seq: 2 });
        let starts: Vec<_> = t
            .filter(|e| matches!(e, TraceEvent::RegionStart { .. }))
            .collect();
        assert_eq!(starts.len(), 2);
    }

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RegionStart { cycle: 1, seq: 0 },
            TraceEvent::RegionVerified { cycle: 2, seq: 0 },
            TraceEvent::WarFreeRelease { cycle: 3, addr: 8 },
            TraceEvent::ColoredRelease {
                cycle: 4,
                reg: 1,
                color: 2,
            },
            TraceEvent::Quarantined { cycle: 5, seq: 0 },
            TraceEvent::SbRelease { cycle: 6, seq: 0 },
            TraceEvent::Strike { cycle: 7 },
            TraceEvent::Detection { cycle: 8 },
            TraceEvent::Recovery {
                cycle: 9,
                target_seq: 0,
                resume_pc: 0,
            },
            TraceEvent::SbOccupancy {
                cycle: 10,
                entries: 3,
                seq: 1,
            },
            TraceEvent::ClqCheck {
                cycle: 11,
                addr: 16,
                seq: 1,
                war_free: true,
            },
            TraceEvent::CacheWriteback {
                cycle: 12,
                addr: 24,
                seq: 1,
            },
            TraceEvent::Stall {
                cycle: 13,
                pc: 4,
                seq: 1,
                kind: StallKind::SbFull,
                cycles: 2,
            },
        ]
    }

    #[test]
    fn cycles_are_accessible_for_all_variants() {
        for (i, e) in all_variants().iter().enumerate() {
            assert_eq!(e.cycle(), i as u64 + 1);
        }
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let mut kinds = std::collections::HashSet::new();
        for e in all_variants() {
            let line = e.to_json();
            assert!(
                line.starts_with(&format!("{{\"cycle\":{}", e.cycle())),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{line}"
            );
            assert!(line.ends_with('}'), "{line}");
            assert!(kinds.insert(e.kind()), "duplicate kind {}", e.kind());
        }
        assert_eq!(
            TraceEvent::ClqCheck {
                cycle: 11,
                addr: 16,
                seq: 1,
                war_free: true
            }
            .to_json(),
            "{\"cycle\":11,\"kind\":\"clq_check\",\"addr\":16,\"seq\":1,\"war_free\":true}"
        );
    }

    #[test]
    fn jsonl_sink_streams_and_counts() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in all_variants() {
            sink.record(&e);
        }
        assert_eq!(sink.written, all_variants().len() as u64);
        assert!(!sink.errored);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), all_variants().len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn chrome_trace_renders_lifecycle_spans_and_arcs() {
        let mut ct = ChromeTrace::new();
        for e in [
            TraceEvent::RegionStart { cycle: 10, seq: 1 },
            TraceEvent::Strike { cycle: 15 },
            TraceEvent::Detection { cycle: 20 },
            TraceEvent::Recovery {
                cycle: 21,
                target_seq: 1,
                resume_pc: 3,
            },
            TraceEvent::RegionVerified { cycle: 40, seq: 1 },
            TraceEvent::SbOccupancy {
                cycle: 12,
                entries: 2,
                seq: 1,
            },
        ] {
            ct.record(&e);
        }
        let json = ct.render();
        assert!(json.starts_with("{\"traceEvents\":["));
        // Region 1 is squashed by the recovery, then reopens and verifies.
        assert!(json.contains("\"state\":\"squashed\""), "{json}");
        assert!(json.contains("\"state\":\"verified\""), "{json}");
        // The fault arc is a flow: start, step, finish.
        for ph in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
            assert!(json.contains(ph), "missing {ph}");
        }
        assert!(json.contains("sb occupancy"));
        // Every emitted object parses shallowly: balanced braces per line.
        for line in json.lines().filter(|l| l.contains("\"ph\"")) {
            let opens = line.matches('{').count();
            let closes = line.matches('}').count();
            assert_eq!(opens, closes, "{line}");
        }
    }
}
