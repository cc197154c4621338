//! The cycle-level dual-issue in-order core.
//!
//! Timing is event-skip: instructions are processed in program order, each
//! assigned the earliest issue cycle compatible with its hazards (operand
//! readiness, the single memory port, store-buffer capacity, RBB capacity,
//! and the dual-issue slot budget). Functional state updates at issue, which
//! is exact for an in-order machine without speculation: a taken branch
//! simply delays the next fetch by the redirect penalty.
//!
//! Resilience machinery wired into the issue loop:
//!
//! * every store either *fast-releases* (WAR-free via the CLQ, or a colored
//!   checkpoint) or allocates a gated-store-buffer entry quarantined until
//!   its region is verified (region end + WCDL with no detection);
//! * region boundaries allocate RBB instances; verification drains the SB at
//!   one entry per cycle and rotates checkpoint colors;
//! * injected faults corrupt register state; parity trips on first read,
//!   the acoustic sensor fires within WCDL regardless; recovery discards
//!   unverified SB entries and colors, runs the region's recovery block, and
//!   re-executes from the recovery PC.

use crate::cache::Hierarchy;
use crate::clq::{build_clq, Clq};
use crate::coloring::Coloring;
use crate::config::{ClqKind, SimConfig};
use crate::fault::{Fault, FaultKind, FaultPlan};
use crate::mem::PagedMem;
use crate::rbb::Rbb;
use crate::stats::{SimHists, SimStats};
use crate::store_buffer::{EntryKind, SbEntry, StoreBuffer};
use crate::trace::{StallKind, TraceEvent, TraceSink};
use crate::translate::{DAddr, DKind, DOperand, Translation};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use turnpike_isa::{
    MOperand, MachAddr, MachInst, MachProgram, PhysReg, ProtectionMode, RegionId, NUM_PHYS_REGS,
};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle limit was exceeded (livelock guard).
    CycleLimit(u64),
    /// PC ran outside the program.
    PcOutOfRange(u64),
    /// A store stalled forever on a full SB whose entries can never release
    /// (a region exceeded the SB size — the compiler must prevent this).
    StoreDeadlock {
        /// Cycle at which the deadlock was diagnosed.
        cycle: u64,
    },
    /// A fault's detection latency exceeds the configured WCDL.
    BadFaultPlan,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} exceeded"),
            SimError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range"),
            SimError::StoreDeadlock { cycle } => {
                write!(f, "store buffer deadlock at cycle {cycle}")
            }
            SimError::BadFaultPlan => write!(f, "fault detection latency exceeds WCDL"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Program return value.
    pub ret: Option<i64>,
    /// Final architectural data memory (SB fully drained).
    pub memory: BTreeMap<u64, i64>,
    /// Final checkpoint storage (colored slots included).
    pub ckpt_memory: BTreeMap<u64, i64>,
    /// Statistics.
    pub stats: SimStats,
    /// `Some(saved)` when the run exited early through [`ReplayGuide`]
    /// convergence, skipping `saved` simulated cycles. An early-exited
    /// outcome carries the golden run's return value, fully synthesized
    /// stats, and **empty** memory maps — the convergence proof already
    /// established that the final memories equal the golden run's, so they
    /// are not rematerialized.
    pub replay_saved: Option<u64>,
}

/// Divergence-bounded early-exit support for fault-campaign strike runs:
/// everything a run needs to recognize that its state has *reconverged*
/// with the fault-free golden run and stop simulating. Holds the golden
/// run's snapshots (the compare targets), its final stats (the synthesis
/// deltas), and its return value, plus a PC index over the snapshots so
/// the per-instruction candidate probe is one hash lookup.
///
/// Built once per campaign from the golden run's artifacts and shared
/// read-only across every strike run (it is `Sync`: all fields are
/// immutable borrows or plain data).
#[derive(Debug)]
pub struct ReplayGuide<'g> {
    snapshots: &'g [CoreSnapshot],
    golden_stats: &'g SimStats,
    golden_ret: Option<i64>,
    /// Snapshot indices by capture PC.
    by_pc: std::collections::HashMap<u64, Vec<u32>>,
}

impl<'g> ReplayGuide<'g> {
    /// Index `snapshots` (captured by the golden run through
    /// [`RunOpts::snapshots`]) for early-exit probing.
    /// `golden_stats`/`golden_ret` come from the same run's outcome.
    pub fn new(
        snapshots: &'g [CoreSnapshot],
        golden_stats: &'g SimStats,
        golden_ret: Option<i64>,
    ) -> Self {
        let mut by_pc: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        for (i, s) in snapshots.iter().enumerate() {
            by_pc.entry(s.pc).or_default().push(i as u32);
        }
        ReplayGuide {
            snapshots,
            golden_stats,
            golden_ret,
            by_pc,
        }
    }
}

/// The inputs of one [`Core::run`] besides the start state.
/// `RunOpts::default()` is a plain fault-free run.
#[derive(Debug)]
pub struct RunOpts<'o> {
    /// Strikes to inject, plus the plan's optional watchdog.
    pub faults: &'o FaultPlan,
    /// `Some((interval, out))` captures a [`CoreSnapshot`] roughly every
    /// `interval` cycles into `out`, replacing its contents. Capture
    /// happens at the top of the issue loop, so the event-skip clock may
    /// overshoot a capture point; past 128 live snapshots every other one
    /// is dropped and the interval doubles, deterministically. Intended
    /// for fault-free golden runs: campaigns fork each strike run from the
    /// latest snapshot strictly before its first strike.
    pub snapshots: Option<(u64, &'o mut Vec<CoreSnapshot>)>,
    /// Early-exit guide: once the strike run's detection window has
    /// closed, its state is probed against the guide's golden snapshots and
    /// the run stops at the first provable reconvergence (see
    /// [`SimOutcome::replay_saved`]).
    pub replay: Option<&'o ReplayGuide<'o>>,
}

static NO_FAULTS: FaultPlan = FaultPlan::none();

impl Default for RunOpts<'_> {
    fn default() -> Self {
        RunOpts {
            faults: &NO_FAULTS,
            snapshots: None,
            replay: None,
        }
    }
}

/// Failed deep compares (or synthesis refusals) a run tolerates before
/// dropping its [`ReplayGuide`] for good. Runs that never reconverge (true
/// SDCs, divergent control flow) stop paying the compare cost after this
/// many attempts and fall back to the superblock fast path.
const REPLAY_BUDGET: u32 = 64;

/// Resolved per-static-region protection switches, precomputed from the
/// program's [`MachProgram::region_modes`] metadata and the core config at
/// construction. Uniform programs (empty metadata) resolve every region to
/// exactly the config's own switches, so their behavior is bit-identical to
/// a core without this table. Derived state: never snapshotted, always
/// rebuilt from (program, config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModeFlags {
    /// Strikes landing while this region runs are detected (parity flags
    /// set, sensor detection scheduled). Unprotected regions silently
    /// absorb the corruption instead.
    detects: bool,
    /// Data stores quarantine in the gated SB until region verification.
    gate_stores: bool,
    /// Data stores may fast-release through the CLQ WAR check (requires
    /// the core's `war_free` hardware; Turnstile-mode regions force it off
    /// even when present).
    war_free: bool,
    /// Checkpoints may fast-release through coloring (same hardware note).
    coloring: bool,
    /// Sensor window the region's instances must wait out before
    /// verification (zero for unprotected regions).
    wcdl: u64,
}

impl ModeFlags {
    fn for_mode(mode: ProtectionMode, cfg: &SimConfig) -> ModeFlags {
        match mode {
            ProtectionMode::Turnpike => ModeFlags {
                detects: true,
                gate_stores: true,
                war_free: cfg.war_free,
                coloring: cfg.coloring,
                wcdl: cfg.wcdl,
            },
            ProtectionMode::Turnstile => ModeFlags {
                detects: true,
                gate_stores: true,
                war_free: false,
                coloring: false,
                wcdl: cfg.wcdl,
            },
            // Unprotected: no detection, no gating, zero window. Checkpoints
            // keep the protected path (colored or quarantined): a protected
            // *neighbor's* recovery reads the slots this region writes, so
            // they must never clobber verified slots out of turn. WAR-free
            // release stays available as the fallback when the immediate
            // path is blocked by an older unverified protected region —
            // gating harder than Turnpike would make "unprotected" slower.
            ProtectionMode::Unprotected => ModeFlags {
                detects: false,
                gate_stores: false,
                war_free: cfg.war_free,
                coloring: cfg.coloring,
                wcdl: 0,
            },
        }
    }
}

fn build_mode_flags(program: &MachProgram, cfg: &SimConfig) -> Vec<ModeFlags> {
    (0..program.num_regions())
        .map(|i| ModeFlags::for_mode(program.region_mode(RegionId(i)), cfg))
        .collect()
}

/// The simulated core.
pub struct Core<'a> {
    cfg: SimConfig,
    program: &'a MachProgram,
    regs: [i64; NUM_PHYS_REGS as usize],
    reg_ready: [u64; NUM_PHYS_REGS as usize],
    /// Parity-corrupted registers (strike while at rest).
    parity_bad: [bool; NUM_PHYS_REGS as usize],
    /// Taint from datapath corruption (wrong value, valid parity).
    tainted: [bool; NUM_PHYS_REGS as usize],
    memory: PagedMem,
    ckpt_memory: PagedMem,
    caches: Hierarchy,
    sb: StoreBuffer,
    rbb: Rbb,
    clq: Box<dyn Clq>,
    coloring: Coloring,
    stats: SimStats,
    faults: Vec<Fault>,
    next_fault: usize,
    /// Pending sensor detections as `(detect_cycle, strike_cycle)`, sorted
    /// by detection time (the strike cycle rides along for detection-latency
    /// accounting).
    pending_detect: Vec<(u64, u64)>,
    /// Most recent strike cycle (attribution for parity detections).
    last_strike: Option<u64>,
    pc: u64,
    /// Current issue cycle.
    cycle: u64,
    /// Issue slots left in `cycle`.
    slots_left: u32,
    /// Memory-port slots left in `cycle`.
    mem_left: u32,
    /// Earliest fetch time (branch redirects).
    fetch_ready: u64,
    /// A datapath strike waiting to corrupt the next register write, as
    /// `(bit, detectable)`. Strikes in unprotected regions corrupt the
    /// value without tainting it (no detection hardware there).
    pending_datapath: Option<(u8, bool)>,
    /// Per-static-region protection switches, indexed by region id.
    /// Derived from (program, cfg); rebuilt on resume, never snapshotted.
    mode_flags: Vec<ModeFlags>,
    /// Attached resilience-event consumer ([`Core::attach_sink`]); the
    /// shared handle lets the caller keep reading the sink after `run`
    /// consumes the core.
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Latency histograms ([`SimConfig::histograms`]); `None` keeps every
    /// recording site a single branch.
    hists: Option<Box<SimHists>>,
    /// Earliest cycle at which [`Core::settle`] can have any effect (the
    /// front RBB verification point or front SB release, whichever comes
    /// first). Settle calls below this are one compare; 0 forces the full
    /// path, which recomputes it. Derived state: mutation sites that end a
    /// region or rebuild the RBB/SB reset it to 0.
    settle_due: u64,
    /// Snapshot cadence in cycles; 0 disables capture (every run without
    /// [`RunOpts::snapshots`]). Doubles when thinning kicks in.
    snap_every: u64,
    /// Next cycle at or after which a snapshot is captured.
    next_snap: u64,
    /// Captured snapshots, in cycle order.
    snapshots: Vec<CoreSnapshot>,
    /// Pre-decoded superblocks for the fast dispatch path
    /// ([`SimConfig::translate`]). Built lazily on first entry into a quiet
    /// state, or shared across runs of one program via
    /// [`Core::attach_translation`] (fault campaigns translate once).
    translation: Option<Arc<Translation>>,
    /// Early-exit replay guide with its remaining deep-compare budget.
    /// While present, the superblock fast path is suppressed (convergence
    /// probes happen at the top of the per-instruction loop — the golden
    /// capture point); dropped permanently once the budget runs out.
    replay: Option<(&'a ReplayGuide<'a>, u32)>,
}

/// Full microarchitectural state of a [`Core`] at the top of an issue-loop
/// iteration, captured through [`RunOpts::snapshots`] and resumed by
/// [`Core::from_snapshot`].
///
/// Cloning is cheap: the functional memories share pages copy-on-write
/// ([`PagedMem`]), and everything else is flat data. Snapshots are
/// `Send + Sync`, so a fault campaign can fork many runs from one snapshot
/// across worker threads.
///
/// # Determinism contract
///
/// A snapshot taken during a fault-free run at cycle `C` lies on the
/// execution path of *any* fault plan whose earliest strike is strictly
/// after `C`: before the first strike `S`, no fault has fired, and the
/// detection bound `min(strike + latency) >= S > C` never clamps a
/// settle or redirects a stall, so the pre-strike state is identical to
/// the fault-free prefix. [`Core::run`] from [`Core::from_snapshot`] with
/// such a plan therefore reproduces the from-scratch faulty run
/// bit-for-bit — stats included, because the snapshot carries the prefix's
/// stats and histograms.
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    cfg: SimConfig,
    regs: [i64; NUM_PHYS_REGS as usize],
    reg_ready: [u64; NUM_PHYS_REGS as usize],
    parity_bad: [bool; NUM_PHYS_REGS as usize],
    tainted: [bool; NUM_PHYS_REGS as usize],
    memory: PagedMem,
    ckpt_memory: PagedMem,
    caches: Hierarchy,
    sb: StoreBuffer,
    rbb: Rbb,
    clq: Box<dyn Clq>,
    coloring: Coloring,
    stats: SimStats,
    pending_detect: Vec<(u64, u64)>,
    last_strike: Option<u64>,
    pc: u64,
    cycle: u64,
    slots_left: u32,
    mem_left: u32,
    fetch_ready: u64,
    pending_datapath: Option<(u8, bool)>,
    hists: Option<Box<SimHists>>,
}

impl CoreSnapshot {
    /// The issue cycle the snapshot was captured at. Fault campaigns fork a
    /// run from the latest snapshot whose cycle is strictly before the
    /// run's earliest strike.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl<'a> Core<'a> {
    /// Build a core around a program.
    pub fn new(program: &'a MachProgram, cfg: SimConfig) -> Self {
        let mut memory = PagedMem::new();
        for (i, w) in program.data.words.iter().enumerate() {
            memory.insert(program.data.base + i as u64 * 8, *w);
        }
        let mut regs = [0i64; NUM_PHYS_REGS as usize];
        let mut ckpt_memory = PagedMem::new();
        let mut coloring = Coloring::new(NUM_PHYS_REGS as usize, cfg.colors);
        for &(r, v) in &program.reg_init {
            regs[r.index()] = v;
            // The loader pre-verifies program inputs: color-0 slots hold
            // them and VC points there, so region-0 recovery works.
            ckpt_memory.insert(turnpike_ir::ckpt_slot_addr(r.raw(), 0), v);
            coloring.preverify(r.raw());
        }
        let caches = Hierarchy::new(&cfg);
        let sb = StoreBuffer::new(cfg.sb_size);
        let mode_flags = build_mode_flags(program, &cfg);
        let region0_wcdl = mode_flags.first().map_or(cfg.wcdl, |f| f.wcdl);
        let rbb = Rbb::new(cfg.rbb_size, region0_wcdl);
        let clq: Box<dyn Clq> = if cfg.war_free {
            build_clq(cfg.clq)
        } else {
            build_clq(ClqKind::Off)
        };
        let hists = cfg.histograms.then(Box::<SimHists>::default);
        // A fresh core enters the issue loop at the top of cycle 0 with the
        // full slot budget; a snapshot carries its own (the capture point
        // sits mid-cycle as far as slot accounting is concerned).
        let slots_left = cfg.issue_width;
        Core {
            cfg,
            program,
            regs,
            reg_ready: [0; NUM_PHYS_REGS as usize],
            parity_bad: [false; NUM_PHYS_REGS as usize],
            tainted: [false; NUM_PHYS_REGS as usize],
            memory,
            ckpt_memory,
            caches,
            sb,
            rbb,
            clq,
            coloring,
            stats: SimStats::default(),
            faults: Vec::new(),
            next_fault: 0,
            pending_detect: Vec::new(),
            last_strike: None,
            pc: 0,
            cycle: 0,
            slots_left,
            mem_left: 1,
            fetch_ready: 0,
            pending_datapath: None,
            mode_flags,
            sink: None,
            hists,
            settle_due: 0,
            snap_every: 0,
            next_snap: 0,
            snapshots: Vec::new(),
            translation: None,
            replay: None,
        }
    }

    /// Share a pre-built [`Translation`] of this core's program, so callers
    /// running one program many times (fault campaigns) pay the pre-decode
    /// cost once instead of once per run.
    ///
    /// # Panics
    ///
    /// Panics if `tr` was built from a program of a different length.
    pub fn attach_translation(&mut self, tr: Arc<Translation>) {
        assert_eq!(
            tr.len(),
            self.program.insts.len(),
            "translation does not match the program"
        );
        self.translation = Some(tr);
    }

    /// Attach a trace sink; every resilience event of the run is forwarded
    /// to it. The caller retains the other `Rc` handle and reads the sink
    /// back after the run (see [`shared_sink`](crate::shared_sink)).
    pub fn attach_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.sink = Some(sink);
    }

    /// Forward an event to the attached sink. The untraced path must cost
    /// one predictable branch per call site: the handle test is forced
    /// inline and the actual dispatch outlined as cold, so building the
    /// event sinks into the taken branch.
    #[inline(always)]
    fn emit(&mut self, ev: TraceEvent) {
        if self.sink.is_some() {
            self.emit_to_sink(ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_to_sink(&mut self, ev: TraceEvent) {
        if let Some(s) = &self.sink {
            s.borrow_mut().record(&ev);
        }
    }

    /// Validate and install a fault plan: every detection must land within
    /// the WCDL, and the plan's watchdog clamps the cycle limit, so forked
    /// and from-scratch runs abort a hang at the same absolute cycle.
    fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        if plan
            .faults()
            .iter()
            .any(|f| f.detect_latency > self.cfg.wcdl)
        {
            return Err(SimError::BadFaultPlan);
        }
        if let Some(w) = plan.watchdog() {
            self.cfg.cycle_limit = self.cfg.cycle_limit.min(w);
        }
        self.faults = plan.faults().to_vec();
        Ok(())
    }

    /// Rebuild the core `snap` captured, ready to continue `program`.
    ///
    /// Per the [`CoreSnapshot`] determinism contract, [`Core::run`] from
    /// here is bit-identical to running the same plan from scratch provided
    /// every strike cycle is strictly after `snap.cycle()` (debug-asserted).
    pub fn from_snapshot(program: &'a MachProgram, snap: &CoreSnapshot) -> Self {
        Core {
            cfg: snap.cfg.clone(),
            program,
            regs: snap.regs,
            reg_ready: snap.reg_ready,
            parity_bad: snap.parity_bad,
            tainted: snap.tainted,
            memory: snap.memory.clone(),
            ckpt_memory: snap.ckpt_memory.clone(),
            caches: snap.caches.clone(),
            sb: snap.sb.clone(),
            rbb: snap.rbb.clone(),
            clq: snap.clq.clone(),
            coloring: snap.coloring.clone(),
            stats: snap.stats.clone(),
            faults: Vec::new(),
            next_fault: 0,
            pending_detect: snap.pending_detect.clone(),
            last_strike: snap.last_strike,
            pc: snap.pc,
            cycle: snap.cycle,
            slots_left: snap.slots_left,
            mem_left: snap.mem_left,
            fetch_ready: snap.fetch_ready,
            pending_datapath: snap.pending_datapath,
            mode_flags: build_mode_flags(program, &snap.cfg),
            sink: None,
            hists: snap.hists.clone(),
            settle_due: 0,
            snap_every: 0,
            next_snap: 0,
            snapshots: Vec::new(),
            translation: None,
            replay: None,
        }
    }

    /// Run the program to completion from the core's current state — fresh
    /// ([`Core::new`]) or forked ([`Core::from_snapshot`]) — under `opts`.
    ///
    /// Snapshot capture is pure observation and the replay guide a pure
    /// acceleration: the outcome is bit-identical without them, except
    /// that an early-exited outcome reports [`SimOutcome::replay_saved`]
    /// and carries empty memory maps.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(mut self, opts: RunOpts<'a>) -> Result<SimOutcome, SimError> {
        let RunOpts {
            faults,
            snapshots,
            replay,
        } = opts;
        // A fresh core starts at cycle 0, where a strike may land at once;
        // snapshots are only ever captured at cycle 1 or later.
        debug_assert!(
            self.cycle == 0 || faults.faults().iter().all(|f| f.strike_cycle > self.cycle),
            "fork point must lie strictly before the first strike"
        );
        self.install_faults(faults)?;
        self.replay = replay.map(|g| (g, REPLAY_BUDGET));
        let Some((interval, out)) = snapshots else {
            return self.run_loop();
        };
        self.snap_every = interval.max(1);
        self.next_snap = self.cycle + self.snap_every;
        let outcome = self.run_loop();
        *out = std::mem::take(&mut self.snapshots);
        outcome
    }

    fn run_loop(&mut self) -> Result<SimOutcome, SimError> {
        loop {
            // Quiet state + translation enabled: dispatch pre-decoded
            // superblocks until the program returns. The fast path performs
            // the same per-instruction work as the interpreter below minus
            // the parts the quiet guard proves are no-ops, so results are
            // bit-identical (see `fast_path_quiet`).
            if self.cfg.translate && self.replay.is_none() && self.fast_path_quiet() {
                let tr = self.ensure_translation();
                if let Some(ret) = self.run_superblocks(&tr)? {
                    // Quiet implies no detection can land in the tail
                    // (`next_detection_bound` is infinite), so completion
                    // is certifiable immediately.
                    return self.finish(ret);
                }
                // Fast path bailed (PC out of range, or a state change that
                // ended quiescence): fall through to the interpreter.
            }
            // Early-exit replay probe: a quiet state (all strikes fired and
            // resolved) at a PC the golden run snapshotted may have
            // reconverged with the golden timeline. Probing happens here —
            // the top of the loop, before settle — because that is exactly
            // where the golden run captured its snapshots. While the guide
            // is held, superblock dispatch stays off (above) so every
            // golden capture point is actually visited.
            if self.replay.is_some() && self.fast_path_quiet() {
                if let Some(out) = self.try_replay_exit() {
                    return Ok(out);
                }
            }
            // Capture before any of the iteration's work so a resumed core
            // entering this loop replays the iteration identically.
            if self.snap_every != 0 && self.cycle >= self.next_snap {
                self.capture_snapshot();
            }
            if self.cycle > self.cfg.cycle_limit {
                return Err(SimError::CycleLimit(self.cfg.cycle_limit));
            }
            // Settle background machinery up to the current cycle.
            self.settle(self.cycle);
            // Fire strikes and detections that are due.
            self.process_faults();

            let inst = *self
                .program
                .insts
                .get(self.pc as usize)
                .ok_or(SimError::PcOutOfRange(self.pc))?;

            if let Some(ret) = self.step(inst)? {
                // Completion is only certifiable once the verification tail
                // is clean: a strike still in flight whose detection lands
                // within the tail invalidates the final regions, so recover
                // and re-execute instead of finishing.
                let tail = self.cycle + self.cfg.wcdl;
                if self.cfg.resilient && self.next_detection_bound() <= tail {
                    let bound = self.next_detection_bound();
                    self.cycle = self.cycle.max(bound);
                    self.process_faults();
                    continue;
                }
                return self.finish(ret);
            }
        }
    }

    /// Record the current state into the snapshot list and schedule the
    /// next capture. Bounds memory deterministically: past 128 snapshots,
    /// every other one is dropped and the cadence doubles.
    fn capture_snapshot(&mut self) {
        self.snapshots.push(CoreSnapshot {
            cfg: self.cfg.clone(),
            regs: self.regs,
            reg_ready: self.reg_ready,
            parity_bad: self.parity_bad,
            tainted: self.tainted,
            memory: self.memory.clone(),
            ckpt_memory: self.ckpt_memory.clone(),
            caches: self.caches.clone(),
            sb: self.sb.clone(),
            rbb: self.rbb.clone(),
            clq: self.clq.clone(),
            coloring: self.coloring.clone(),
            stats: self.stats.clone(),
            pending_detect: self.pending_detect.clone(),
            last_strike: self.last_strike,
            pc: self.pc,
            cycle: self.cycle,
            slots_left: self.slots_left,
            mem_left: self.mem_left,
            fetch_ready: self.fetch_ready,
            pending_datapath: self.pending_datapath,
            hists: self.hists.clone(),
        });
        const CAP: usize = 128;
        if self.snapshots.len() > CAP {
            let mut keep = false;
            self.snapshots.retain(|_| {
                keep = !keep;
                keep
            });
            self.snap_every *= 2;
        }
        self.next_snap = self.cycle + self.snap_every;
    }

    /// Whether the core is *quiet*: every piece of per-iteration work the
    /// interpreter loop performs besides issuing the instruction is provably
    /// a no-op — no snapshot capture is scheduled, no trace sink is
    /// attached, no strike or detection is pending or future, and no
    /// corruption flag is set. Quiet states admit the superblock fast path:
    ///
    /// * `process_faults` can fire nothing, so no recovery, parity trip, or
    ///   datapath corruption can occur mid-block;
    /// * `next_detection_bound` is infinite, so settles are never clamped
    ///   and the SB/RBB stall loops never take their detection escapes;
    /// * every access-time parity/taint check is false, and with no pending
    ///   datapath corruption, `define` can never set a flag — quiescence is
    ///   invariant until the run ends.
    fn fast_path_quiet(&self) -> bool {
        const NO_FLAGS: [bool; NUM_PHYS_REGS as usize] = [false; NUM_PHYS_REGS as usize];
        self.snap_every == 0
            && self.sink.is_none()
            && self.next_fault >= self.faults.len()
            && self.pending_detect.is_empty()
            && self.pending_datapath.is_none()
            && self.parity_bad == NO_FLAGS
            && self.tainted == NO_FLAGS
    }

    fn ensure_translation(&mut self) -> Arc<Translation> {
        self.translation
            .get_or_insert_with(|| Arc::new(Translation::new(self.program)))
            .clone()
    }

    /// Probe the replay guide's snapshots at the current PC for a provable
    /// reconvergence with the golden run; on success, return the fully
    /// synthesized outcome. Failed deep compares and synthesis refusals
    /// burn [`REPLAY_BUDGET`]; exhaustion drops the guide permanently.
    fn try_replay_exit(&mut self) -> Option<SimOutcome> {
        debug_assert!(self.fast_path_quiet());
        let (guide, _) = self.replay?;
        let cands = guide.by_pc.get(&self.pc)?;
        for &i in cands {
            let snap = &guide.snapshots[i as usize];
            if snap.cycle > self.cycle {
                continue;
            }
            // Cheap prefilter: almost every visit to a snapshotted PC is a
            // different loop iteration, and the register file says so.
            if self.regs != snap.regs
                || self.slots_left != snap.slots_left
                || self.mem_left != snap.mem_left
            {
                continue;
            }
            let dc = self.cycle - snap.cycle;
            if self.replay_converged(snap, dc) {
                if let Some(out) = self.synthesize_exit(guide, snap, dc) {
                    return Some(out);
                }
            }
            if let Some((_, budget)) = &mut self.replay {
                *budget -= 1;
                if *budget == 0 {
                    self.replay = None;
                    return None;
                }
            }
        }
        None
    }

    /// Whether the core's state at the top of the issue loop is *future-
    /// behavior equivalent* to the golden snapshot `snap`, with this run's
    /// clock ahead by `dc` cycles and its region sequence numbers ahead by
    /// some `ds >= 0`: from here on, both runs issue the same instructions
    /// with the same timing (shifted by `dc`), produce the same final
    /// memories, and accrue the same statistics deltas.
    ///
    /// Both sides are quiet (the caller guarantees it for this run and the
    /// golden run is fault-free), so the comparison is purely structural.
    /// Timestamps that only matter while they are in the future — register
    /// and fetch readiness — may instead be stale on both sides (a
    /// recovery rewound them); everything else must match under the shift.
    fn replay_converged(&self, snap: &CoreSnapshot, dc: u64) -> bool {
        // The campaign watchdog clamps a strike run's cycle limit below the
        // golden run's; the limit is not core state, and `synthesize_exit`
        // separately refuses any synthesized completion that would overrun
        // it (matching the from-scratch abort). Everything else must agree.
        debug_assert_eq!(
            SimConfig {
                cycle_limit: snap.cfg.cycle_limit,
                ..self.cfg.clone()
            },
            snap.cfg
        );
        const NO_FLAGS: [bool; NUM_PHYS_REGS as usize] = [false; NUM_PHYS_REGS as usize];
        if self.pc != snap.pc
            || !snap.pending_detect.is_empty()
            || snap.pending_datapath.is_some()
            || snap.parity_bad != NO_FLAGS
            || snap.tainted != NO_FLAGS
        {
            return false;
        }
        let Some(ds) = self.rbb.current_seq().checked_sub(snap.rbb.current_seq()) else {
            return false;
        };
        // A readiness time is either exactly shifted or already in the past
        // on both sides — a past time only ever participates in `max` and
        // `wait_until` computations it cannot win.
        let ready_equiv = |a: u64, b: u64| a == b + dc || (a <= self.cycle && b <= snap.cycle);
        if !ready_equiv(self.fetch_ready, snap.fetch_ready) {
            return false;
        }
        for r in 0..NUM_PHYS_REGS as usize {
            if !ready_equiv(self.reg_ready[r], snap.reg_ready[r]) {
                return false;
            }
        }
        if !self.rbb.replay_equivalent(&snap.rbb, dc, ds)
            || !self
                .sb
                .replay_equivalent(&snap.sb, dc, ds, self.cycle, snap.cycle)
            || !self.coloring.replay_equivalent(&snap.coloring, ds)
        {
            return false;
        }
        let (mut sig_a, mut sig_b) = (Vec::new(), Vec::new());
        self.clq.replay_signature(ds, &mut sig_a);
        snap.clq.replay_signature(0, &mut sig_b);
        if sig_a != sig_b {
            return false;
        }
        self.caches
            .replay_equivalent(&snap.caches, self.cycle, snap.cycle)
            && self.memory.content_eq(&snap.memory)
            && self.ckpt_memory.content_eq(&snap.ckpt_memory)
    }

    /// Build the final outcome for a run that reconverged with the golden
    /// snapshot `snap` while `dc` cycles ahead: every additive counter is
    /// `converged + (golden_final - golden_at_snapshot)`, cycle-valued
    /// results shift by `dc`, and peak/extreme statistics are synthesized
    /// only when provably exact — `None` refuses the exit (the run simply
    /// keeps simulating and the refusal counts against the probe budget).
    fn synthesize_exit(
        &mut self,
        guide: &ReplayGuide<'_>,
        snap: &CoreSnapshot,
        dc: u64,
    ) -> Option<SimOutcome> {
        let gf = guide.golden_stats;
        let gs = &snap.stats;
        // The true run's final clock; past the limit the real execution
        // would abort with `CycleLimit`, so let it.
        let cycles = gf.cycles + dc;
        if cycles > self.cfg.cycle_limit {
            return None;
        }
        // Peaks: a golden future that sets a new peak transfers exactly
        // (future occupancies are identical on both sides); otherwise the
        // converged value must already dominate the unknown golden-future
        // maximum's upper bound.
        fn peak(conv: u64, at_snap: u64, at_end: u64) -> Option<u64> {
            if at_end > at_snap {
                Some(conv.max(at_end))
            } else if conv >= at_snap {
                Some(conv)
            } else {
                None
            }
        }
        let sb_peak = peak(self.sb.peak as u64, snap.sb.peak as u64, gf.sb_peak as u64)?;
        let conv_clq = self.clq.stats();
        let snap_clq = snap.clq.stats();
        let clq_peak = peak(
            u64::from(conv_clq.peak_entries),
            u64::from(snap_clq.peak_entries),
            u64::from(gf.clq.peak_entries),
        )?;
        let hists = match (&self.hists, &snap.hists, &gf.hists) {
            (Some(conv), Some(at_snap), Some(at_end)) => Some(Box::new(SimHists {
                sb_residency: conv
                    .sb_residency
                    .extend_by_delta(&at_snap.sb_residency, &at_end.sb_residency)?,
                verify_latency: conv
                    .verify_latency
                    .extend_by_delta(&at_snap.verify_latency, &at_end.verify_latency)?,
                detect_latency: conv
                    .detect_latency
                    .extend_by_delta(&at_snap.detect_latency, &at_end.detect_latency)?,
                recovery_penalty: conv
                    .recovery_penalty
                    .extend_by_delta(&at_snap.recovery_penalty, &at_end.recovery_penalty)?,
            })),
            (None, None, None) => None,
            _ => return None, // histogram presence must agree (same config)
        };
        let rbb_insts_sum = self.rbb.insts_sum + (gf.rbb_insts_sum - snap.rbb.insts_sum);
        let rbb_completed = self.rbb.completed + (gf.rbb_completed - snap.rbb.completed);
        let avg_region_insts = if rbb_completed == 0 {
            0.0
        } else {
            rbb_insts_sum as f64 / rbb_completed as f64
        };
        let s = &self.stats;
        let (l1h, l1m, l2h, l2m) = self.caches.stats();
        let (g_l1h, g_l1m, g_l2h, g_l2m) = snap.caches.stats();
        let stats = SimStats {
            cycles,
            insts: s.insts + (gf.insts - gs.insts),
            stall_sb_full: s.stall_sb_full + (gf.stall_sb_full - gs.stall_sb_full),
            stall_data_hazard: s.stall_data_hazard + (gf.stall_data_hazard - gs.stall_data_hazard),
            stall_ckpt_hazard: s.stall_ckpt_hazard + (gf.stall_ckpt_hazard - gs.stall_ckpt_hazard),
            stall_mem_port: s.stall_mem_port + (gf.stall_mem_port - gs.stall_mem_port),
            stall_rbb_full: s.stall_rbb_full + (gf.stall_rbb_full - gs.stall_rbb_full),
            recovery_cycles: s.recovery_cycles + (gf.recovery_cycles - gs.recovery_cycles),
            loads: s.loads + (gf.loads - gs.loads),
            stores: s.stores + (gf.stores - gs.stores),
            ckpts: s.ckpts + (gf.ckpts - gs.ckpts),
            war_free_released: s.war_free_released + (gf.war_free_released - gs.war_free_released),
            colored_released: s.colored_released + (gf.colored_released - gs.colored_released),
            quarantined: s.quarantined + (gf.quarantined - gs.quarantined),
            sb_coalesced: self.sb.coalesced + (gf.sb_coalesced - snap.sb.coalesced),
            sb_discarded: self.sb.discarded + (gf.sb_discarded - snap.sb.discarded),
            boundaries: s.boundaries + (gf.boundaries - gs.boundaries),
            detections: s.detections + (gf.detections - gs.detections),
            parity_detections: s.parity_detections + (gf.parity_detections - gs.parity_detections),
            sensor_detections: s.sensor_detections + (gf.sensor_detections - gs.sensor_detections),
            recoveries: s.recoveries + (gf.recoveries - gs.recoveries),
            avg_region_insts,
            clq: crate::clq::ClqStats {
                stores_checked: conv_clq.stores_checked
                    + (gf.clq.stores_checked - snap_clq.stores_checked),
                war_free: conv_clq.war_free + (gf.clq.war_free - snap_clq.war_free),
                loads_recorded: conv_clq.loads_recorded
                    + (gf.clq.loads_recorded - snap_clq.loads_recorded),
                overflows: conv_clq.overflows + (gf.clq.overflows - snap_clq.overflows),
                occupancy_sum: conv_clq.occupancy_sum
                    + (gf.clq.occupancy_sum - snap_clq.occupancy_sum),
                occupancy_samples: conv_clq.occupancy_samples
                    + (gf.clq.occupancy_samples - snap_clq.occupancy_samples),
                peak_entries: clq_peak as u32,
            },
            cache: (
                l1h + (gf.cache.0 - g_l1h),
                l1m + (gf.cache.1 - g_l1m),
                l2h + (gf.cache.2 - g_l2h),
                l2m + (gf.cache.3 - g_l2m),
            ),
            sb_peak: sb_peak as usize,
            rbb_insts_sum,
            rbb_completed,
            hists,
        };
        Some(SimOutcome {
            ret: guide.golden_ret,
            memory: BTreeMap::new(),
            ckpt_memory: BTreeMap::new(),
            stats,
            replay_saved: Some(cycles - self.cycle),
        })
    }

    /// Execute pre-decoded superblocks until the program returns
    /// (`Ok(Some(ret))`) or the fast path must hand back to the interpreter
    /// (`Ok(None)`: the PC left the program, or — defensively — an issue
    /// helper reported a recovery redirect that cannot happen while quiet).
    ///
    /// Per instruction this performs exactly the interpreter's sequence —
    /// cycle-limit check, settle, fetch-redirect gate, operand wait, issue
    /// through the same helpers — with the fault, parity, taint, snapshot,
    /// and trace work elided per the [`Core::fast_path_quiet`] proof, so
    /// cycles, stats, and architectural state are bit-identical.
    fn run_superblocks(&mut self, tr: &Translation) -> Result<Option<Option<i64>>, SimError> {
        debug_assert!(self.cfg.translate && self.fast_path_quiet());
        'blocks: loop {
            let pc = self.pc as usize;
            let Some(&run) = tr.run_len.get(pc) else {
                return Ok(None); // out of range: the interpreter raises it
            };
            let n = (run as usize).max(1);
            for dop in &tr.ops[pc..pc + n] {
                if self.cycle > self.cfg.cycle_limit {
                    return Err(SimError::CycleLimit(self.cfg.cycle_limit));
                }
                self.settle(self.cycle);
                // Fetch redirect gate.
                self.wait_until(self.fetch_ready, StallCause::None);
                // Operand readiness over the pre-decoded source slots.
                let mut ready = 0u64;
                for &r in &dop.srcs[..dop.nsrcs as usize] {
                    ready = ready.max(self.reg_ready[r as usize]);
                }
                self.wait_until(
                    ready,
                    StallCause::Data {
                        is_ckpt: matches!(dop.kind, DKind::Ckpt { .. }),
                    },
                );
                match dop.kind {
                    DKind::Bin {
                        op,
                        dst,
                        lhs,
                        rhs,
                        lat,
                    } => {
                        self.take_slot(false);
                        let v = op.eval(self.regs[lhs as usize], self.dread(rhs));
                        self.define_quiet(dst, v, self.cycle + lat);
                    }
                    DKind::Cmp { op, dst, lhs, rhs } => {
                        self.take_slot(false);
                        let v = op.eval(self.regs[lhs as usize], self.dread(rhs));
                        self.define_quiet(dst, v, self.cycle + 1);
                    }
                    DKind::Mov { dst, src } => {
                        self.take_slot(false);
                        let v = self.dread(src);
                        self.define_quiet(dst, v, self.cycle + 1);
                    }
                    DKind::Load {
                        dst,
                        addr,
                        ckpt_slot,
                    } => {
                        if self.mem_left == 0 {
                            self.wait_until(self.cycle + 1, StallCause::MemPort);
                        }
                        self.take_slot(true);
                        let a = self.dresolve(addr);
                        let (value, latency) = if ckpt_slot {
                            // Only recovery blocks use this mode; L1 access.
                            (self.ckpt_memory.get(a).unwrap_or(0), self.cfg.l1_hit)
                        } else if let Some(v) = self.sb.forward(a) {
                            (v, 1) // store-to-load forwarding
                        } else {
                            let lat = self.caches.access(a, self.cycle);
                            (self.memory.get(a).unwrap_or(0), lat)
                        };
                        self.define_quiet(dst, value, self.cycle + latency);
                        self.stats.loads += 1;
                        if self.cfg.resilient && !ckpt_slot {
                            let seq = self.rbb.current_seq();
                            self.clq.record_load(a, seq);
                        }
                    }
                    DKind::Store { src, addr } => {
                        if self.mem_left == 0 {
                            self.wait_until(self.cycle + 1, StallCause::MemPort);
                        }
                        let a = self.dresolve(addr);
                        let value = self.dread(src);
                        self.stats.stores += 1;
                        if !self.do_store(a, value)? {
                            return Ok(None); // unreachable while quiet
                        }
                    }
                    DKind::Ckpt { reg } => {
                        if self.mem_left == 0 {
                            self.wait_until(self.cycle + 1, StallCause::MemPort);
                        }
                        let value = self.regs[reg as usize];
                        self.stats.ckpts += 1;
                        if !self.do_ckpt(reg, value)? {
                            return Ok(None); // unreachable while quiet
                        }
                    }
                    DKind::Boundary { id } => {
                        if self.cfg.resilient && !self.exec_boundary(id)? {
                            return Ok(None); // unreachable while quiet
                        }
                    }
                    DKind::Jump { target } => {
                        self.take_slot(false);
                        self.count_inst();
                        self.pc = u64::from(target);
                        self.fetch_ready = self.cycle + 1 + self.cfg.jump_penalty;
                        continue 'blocks;
                    }
                    DKind::BranchNz { cond, target } => {
                        self.take_slot(false);
                        self.count_inst();
                        if self.regs[cond as usize] != 0 {
                            self.pc = u64::from(target);
                            self.fetch_ready = self.cycle + 1 + self.cfg.branch_penalty;
                        } else {
                            self.pc += 1;
                        }
                        continue 'blocks;
                    }
                    DKind::Ret { value } => {
                        self.take_slot(false);
                        self.count_inst();
                        return Ok(Some(value.map(|v| self.dread(v))));
                    }
                    DKind::Nop => {
                        self.take_slot(false);
                    }
                }
                self.count_inst();
                self.pc += 1;
            }
        }
    }

    fn dread(&self, op: DOperand) -> i64 {
        match op {
            DOperand::Reg(r) => self.regs[r as usize],
            DOperand::Imm(v) => v,
        }
    }

    fn dresolve(&self, addr: DAddr) -> u64 {
        match addr {
            DAddr::RegOff(b, o) => self.regs[b as usize].wrapping_add(o) as u64,
            DAddr::Abs(a) => a,
            DAddr::Ckpt(r) => turnpike_ir::ckpt_slot_addr(r, self.coloring.verified_color(r)),
        }
    }

    /// [`Core::define`] specialized to the quiet fast path: no datapath
    /// corruption can be pending and no source is tainted, so the parity
    /// and taint flags — already false for every register — stay false.
    fn define_quiet(&mut self, dst: u8, value: i64, ready_at: u64) {
        debug_assert!(self.pending_datapath.is_none());
        self.regs[dst as usize] = value;
        self.reg_ready[dst as usize] = ready_at;
    }

    /// Earliest pending or future error-detection instant. Verification and
    /// drains must never settle past this bound: a region whose verification
    /// point lies at or after a detection is not error-free.
    fn next_detection_bound(&self) -> u64 {
        let pending = self.pending_detect.first().map(|&(d, _)| d);
        let future = self.faults[self.next_fault..]
            .iter()
            .map(|f| f.strike_cycle + f.detect_latency)
            .min();
        match (pending, future) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => u64::MAX,
        }
    }

    /// Lazy verification, SB drain, CLQ/coloring rotation up to `now`
    /// (clamped so no region verifies at or past a pending detection).
    ///
    /// Called several times per issued instruction, so the common "nothing
    /// can verify or drain yet" case is a single compare against the cached
    /// next event time; [`Core::settle_slow`] does the real work and
    /// refreshes the cache.
    #[inline]
    fn settle(&mut self, now: u64) {
        if now < self.settle_due {
            return;
        }
        self.settle_slow(now);
    }

    fn settle_slow(&mut self, now: u64) {
        if !self.cfg.resilient {
            // The baseline core has nothing to settle, ever.
            self.settle_due = u64::MAX;
            return;
        }
        let now = now.min(self.next_detection_bound());
        while let Some(inst) = self.rbb.verify_next(now) {
            let vt = inst.end_cycle.expect("ended") + inst.wcdl;
            self.sb.mark_verified(inst.seq, vt);
            self.clq.on_region_verified(inst.seq);
            self.coloring.on_region_verified(inst.seq);
            self.emit(TraceEvent::RegionVerified {
                cycle: vt,
                seq: inst.seq,
            });
            if let Some(h) = self.hists.as_mut() {
                h.verify_latency.record(vt.saturating_sub(inst.start_cycle));
            }
        }
        let mut emptied = false;
        while let Some(e) = self.sb.drain_next(now) {
            emptied = true;
            self.release_and_note(e, now);
        }
        if emptied {
            self.emit(TraceEvent::SbOccupancy {
                cycle: now,
                entries: self.sb.len() as u32,
                seq: self.rbb.current_seq(),
            });
        }
        // Nothing settles again until the front region's verification point
        // passes or the front SB entry's release time arrives. The detection
        // bound is deliberately not part of this: it only clamps, so when no
        // event is due, a settle call is a no-op at any bound.
        let verify_due = self.rbb.earliest_verify_time().map_or(u64::MAX, |v| v + 1);
        let drain_due = self.sb.earliest_release().unwrap_or(u64::MAX);
        self.settle_due = verify_due.min(drain_due);
    }

    /// Release one SB entry, narrating the release (SbRelease, plus a
    /// CacheWriteback for data stores) and recording its SB residency.
    fn release_and_note(&mut self, e: SbEntry, now: u64) {
        let rel = e.release_at.unwrap_or(now);
        self.emit(TraceEvent::SbRelease {
            cycle: rel,
            seq: e.region_seq,
        });
        if let EntryKind::Data { addr } = e.kind {
            self.emit(TraceEvent::CacheWriteback {
                cycle: rel,
                addr,
                seq: e.region_seq,
            });
        }
        if let Some(h) = self.hists.as_mut() {
            h.sb_residency.record(rel.saturating_sub(e.issued_at));
        }
        self.release_entry(e, now);
    }

    fn release_entry(&mut self, e: SbEntry, now: u64) {
        match e.kind {
            EntryKind::Data { addr } => {
                self.memory.insert(addr, e.value);
                self.caches.touch(addr, now);
            }
            EntryKind::CkptFallback { reg } => {
                let color = self.coloring.verified_color(reg);
                self.ckpt_memory
                    .insert(turnpike_ir::ckpt_slot_addr(reg, color), e.value);
            }
        }
    }

    /// Apply strikes up to the current cycle; fire pending detections.
    fn process_faults(&mut self) {
        while self.next_fault < self.faults.len()
            && self.faults[self.next_fault].strike_cycle <= self.cycle
        {
            let f = self.faults[self.next_fault];
            self.next_fault += 1;
            self.emit(TraceEvent::Strike {
                cycle: f.strike_cycle,
            });
            // A strike lands in whatever region is running. Unprotected
            // regions have no parity/sensor hardware: the bit still flips,
            // but nothing is flagged and no detection is scheduled.
            let detects = self.region_flags().detects;
            match f.kind {
                FaultKind::RegisterParity { reg, bit } => {
                    let r = (reg % NUM_PHYS_REGS) as usize;
                    self.regs[r] ^= 1i64 << (bit % 64);
                    if detects {
                        self.parity_bad[r] = true;
                    }
                }
                FaultKind::Datapath { bit } => {
                    // Corrupt the most recently produced value: model as
                    // flipping the destination of the *next* defining
                    // instruction (the one in flight). Recorded as a pending
                    // datapath corruption applied at the next def.
                    self.pending_datapath = Some((bit % 64, detects));
                }
            }
            self.last_strike = Some(f.strike_cycle);
            if detects {
                self.pending_detect
                    .push((f.strike_cycle + f.detect_latency, f.strike_cycle));
                self.pending_detect.sort_unstable();
            }
        }
        while let Some(&(d, s)) = self.pending_detect.first() {
            if d <= self.cycle {
                self.pending_detect.remove(0);
                self.stats.sensor_detections += 1;
                if let Some(h) = self.hists.as_mut() {
                    h.detect_latency.record(d.saturating_sub(s));
                }
                self.trigger_recovery(d, d.max(self.cycle));
            } else {
                break;
            }
        }
    }

    /// Parity/hardening detection: a corrupted register was accessed.
    fn access_check(&mut self, srcs: &[PhysReg]) -> bool {
        srcs.iter().any(|r| self.parity_bad[r.index()])
    }

    /// `detect_at` is the instant the error was detected (the sensor
    /// interrupt time); `now` is the issue cycle at which the core notices,
    /// which can be later when the event-skip clock leapt over `detect_at`.
    /// Regions are only error-free if verified strictly before `detect_at` —
    /// settling to `now` would wrongly verify the struck region (its
    /// detection bound was just popped from the pending list).
    fn trigger_recovery(&mut self, detect_at: u64, now: u64) {
        self.stats.detections += 1;
        if !self.cfg.resilient {
            // Unprotected baseline: the corruption stands (potential SDC).
            self.emit(TraceEvent::Detection { cycle: now });
            return;
        }
        self.stats.recoveries += 1;
        // Verification strictly before the detection instant; everything
        // else (including the struck region) is squashed below. Settle
        // first so the timeline narrates pre-detection verifications
        // before the detection itself.
        self.settle(detect_at);
        self.emit(TraceEvent::Detection { cycle: now });
        self.sb.discard_unverified();
        // Entries already verified but still draining hold values the
        // recovery block may need (e.g. a just-verified checkpoint);
        // release them now, as hardware would read them through the SB.
        let (scheduled, _) = self.sb.drain_all_scheduled();
        for e in scheduled {
            self.release_and_note(e, now);
        }
        let target = self.rbb.recover(now);
        self.coloring.on_squash(target.seq);
        self.clq.on_recovery();
        // Clear corruption flags: restored registers are rewritten; dead
        // ones are guaranteed to be written before read.
        self.parity_bad = [false; NUM_PHYS_REGS as usize];
        self.tainted = [false; NUM_PHYS_REGS as usize];
        self.pending_datapath = None;
        // Drop detections already satisfied by this recovery (all strikes
        // so far are cured by the rollback).
        self.pending_detect
            .retain(|&(d, _)| d > now + self.cfg.wcdl);
        // Recovery rebuilt the RBB and SB fronts.
        self.settle_due = 0;
        // Execute the recovery block functionally, charging its cycles.
        let mut cost = self.cfg.recovery_flush_cycles;
        if let Some(block) = self.program.recovery.get(&target.static_id) {
            for inst in &block.insts {
                cost += match *inst {
                    MachInst::Load { dst, addr } => {
                        let a = self.resolve_addr(addr);
                        self.regs[dst.index()] = self.read_mem_for_recovery(addr, a);
                        self.cfg.l1_hit
                    }
                    MachInst::Bin { op, dst, lhs, rhs } => {
                        self.regs[dst.index()] = op.eval(self.regs[lhs.index()], self.read_op(rhs));
                        1
                    }
                    MachInst::Cmp { op, dst, lhs, rhs } => {
                        self.regs[dst.index()] = op.eval(self.regs[lhs.index()], self.read_op(rhs));
                        1
                    }
                    MachInst::Mov { dst, src } => {
                        self.regs[dst.index()] = self.read_op(src);
                        1
                    }
                    _ => 1,
                };
            }
        }
        self.stats.recovery_cycles += cost;
        if let Some(h) = self.hists.as_mut() {
            h.recovery_penalty.record(cost);
        }
        self.cycle = now + cost;
        self.fetch_ready = self.cycle;
        self.slots_left = self.cfg.issue_width;
        self.mem_left = 1;
        self.reg_ready = [self.cycle; NUM_PHYS_REGS as usize];
        self.pc = target.entry_pc as u64;
        self.emit(TraceEvent::Recovery {
            cycle: now,
            target_seq: target.seq,
            resume_pc: target.entry_pc,
        });
    }

    fn read_mem_for_recovery(&self, addr: MachAddr, resolved: u64) -> i64 {
        match addr {
            MachAddr::CkptSlot(_) => self.ckpt_memory.get(resolved).unwrap_or(0),
            _ => self.memory.get(resolved).unwrap_or(0),
        }
    }

    fn read_op(&self, op: MOperand) -> i64 {
        match op {
            MOperand::Reg(r) => self.regs[r.index()],
            MOperand::Imm(v) => v,
        }
    }

    fn resolve_addr(&self, addr: MachAddr) -> u64 {
        match addr {
            MachAddr::RegOffset(b, o) => self.regs[b.index()].wrapping_add(o) as u64,
            MachAddr::Abs(a) => a,
            MachAddr::CkptSlot(r) => {
                turnpike_ir::ckpt_slot_addr(r.raw(), self.coloring.verified_color(r.raw()))
            }
        }
    }

    /// Advance the issue clock to at least `t`, accounting the stall to
    /// `account` when the wait exceeds the natural slot progression.
    fn wait_until(&mut self, t: u64, account: StallCause) {
        if t > self.cycle {
            let gap = t - self.cycle;
            let kind = match account {
                StallCause::None => None,
                StallCause::SbFull => {
                    self.stats.stall_sb_full += gap;
                    Some(StallKind::SbFull)
                }
                StallCause::Data { is_ckpt } => {
                    self.stats.stall_data_hazard += gap;
                    if is_ckpt {
                        self.stats.stall_ckpt_hazard += gap;
                    }
                    Some(if is_ckpt {
                        StallKind::CkptHazard
                    } else {
                        StallKind::DataHazard
                    })
                }
                StallCause::MemPort => {
                    self.stats.stall_mem_port += gap;
                    Some(StallKind::MemPort)
                }
                StallCause::RbbFull => {
                    self.stats.stall_rbb_full += gap;
                    Some(StallKind::RbbFull)
                }
            };
            if let Some(kind) = kind {
                self.emit(TraceEvent::Stall {
                    cycle: self.cycle,
                    pc: self.pc as u32,
                    seq: self.rbb.current_seq(),
                    kind,
                    cycles: gap,
                });
            }
            self.cycle = t;
            self.slots_left = self.cfg.issue_width;
            self.mem_left = 1;
            self.settle(self.cycle);
        }
    }

    /// Consume an issue slot (advancing the clock when the cycle is full).
    fn take_slot(&mut self, is_mem: bool) {
        if self.slots_left == 0 || (is_mem && self.mem_left == 0) {
            self.cycle += 1;
            self.slots_left = self.cfg.issue_width;
            self.mem_left = 1;
            self.settle(self.cycle);
        }
        self.slots_left -= 1;
        if is_mem {
            self.mem_left -= 1;
        }
    }

    /// Earliest cycle all of `srcs` are available.
    fn operands_ready(&self, srcs: &[PhysReg]) -> u64 {
        srcs.iter()
            .map(|r| self.reg_ready[r.index()])
            .max()
            .unwrap_or(0)
    }

    /// Protection switches for a static region, defaulting out-of-range ids
    /// (region 0 of a region-free program, the pseudo-boundary closing the
    /// final region) to the config's own switches.
    #[inline]
    fn flags_for(&self, id: RegionId) -> ModeFlags {
        self.mode_flags
            .get(id.index())
            .copied()
            .unwrap_or_else(|| ModeFlags::for_mode(ProtectionMode::Turnpike, &self.cfg))
    }

    /// Protection switches of the running region.
    #[inline]
    fn region_flags(&self) -> ModeFlags {
        self.flags_for(self.rbb.current().static_id)
    }

    fn define(&mut self, dst: PhysReg, value: i64, ready_at: u64, taint: bool) {
        let mut v = value;
        let mut t = taint;
        if let Some((bit, detectable)) = self.pending_datapath.take() {
            v ^= 1i64 << bit;
            t = t || detectable;
        }
        self.regs[dst.index()] = v;
        self.reg_ready[dst.index()] = ready_at;
        self.parity_bad[dst.index()] = false;
        self.tainted[dst.index()] = t;
    }

    fn srcs_tainted(&self, srcs: &[PhysReg]) -> bool {
        srcs.iter().any(|r| self.tainted[r.index()])
    }

    /// Issue one instruction; `Ok(Some(ret))` on program end.
    fn step(&mut self, inst: MachInst) -> Result<Option<Option<i64>>, SimError> {
        let srcs = inst.uses();
        // Fetch redirect gate.
        self.wait_until(self.fetch_ready, StallCause::None);
        // Parity check on register access (models per-register parity).
        // The unprotected baseline core has no parity or recovery.
        if self.cfg.resilient && self.access_check(&srcs) {
            self.note_parity_detection();
            self.trigger_recovery(self.cycle, self.cycle);
            return Ok(None);
        }
        // Hardened AGU / branch-path assumption: a datapath-corrupted value
        // feeding an address base or branch condition is caught immediately.
        let addr_base: Option<PhysReg> = match inst {
            MachInst::Store { addr, .. } | MachInst::Load { addr, .. } => addr.base(),
            MachInst::BranchNz { cond, .. } => Some(cond),
            _ => None,
        };
        if let Some(b) = addr_base {
            if self.cfg.resilient
                && self.tainted[b.index()]
                && matches!(inst, MachInst::Store { .. } | MachInst::BranchNz { .. })
            {
                self.note_parity_detection();
                self.trigger_recovery(self.cycle, self.cycle);
                return Ok(None);
            }
        }

        // Operand readiness.
        let ready = self.operands_ready(&srcs);
        self.wait_until(
            ready,
            StallCause::Data {
                is_ckpt: inst.is_ckpt(),
            },
        );

        let taint = self.srcs_tainted(&srcs);
        let mut next_pc = self.pc + 1;

        match inst {
            MachInst::Bin { op, dst, lhs, rhs } => {
                self.take_slot(false);
                let v = op.eval(self.regs[lhs.index()], self.read_op(rhs));
                self.define(dst, v, self.cycle + u64::from(inst.latency()), taint);
            }
            MachInst::Cmp { op, dst, lhs, rhs } => {
                self.take_slot(false);
                let v = op.eval(self.regs[lhs.index()], self.read_op(rhs));
                self.define(dst, v, self.cycle + 1, taint);
            }
            MachInst::Mov { dst, src } => {
                self.take_slot(false);
                let v = self.read_op(src);
                self.define(dst, v, self.cycle + 1, taint);
            }
            MachInst::Load { dst, addr } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                self.take_slot(true);
                let a = self.resolve_addr(addr);
                let (value, latency) = self.do_load(addr, a);
                self.define(dst, value, self.cycle + latency, taint);
                self.stats.loads += 1;
                if self.cfg.resilient && !matches!(addr, MachAddr::CkptSlot(_)) {
                    let seq = self.rbb.current_seq();
                    self.clq.record_load(a, seq);
                }
            }
            MachInst::Store { src, addr } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                let a = self.resolve_addr(addr);
                let value = self.read_op(src);
                self.stats.stores += 1;
                if !self.do_store(a, value)? {
                    return Ok(None); // abandoned: recovery redirected the PC
                }
            }
            MachInst::Ckpt { reg } => {
                if self.mem_left == 0 {
                    self.wait_until(self.cycle + 1, StallCause::MemPort);
                }
                let value = self.regs[reg.index()];
                self.stats.ckpts += 1;
                if !self.do_ckpt(reg.raw(), value)? {
                    return Ok(None); // abandoned: recovery redirected the PC
                }
            }
            MachInst::RegionBoundary { id } => {
                if self.cfg.resilient && !self.exec_boundary(id)? {
                    return Ok(None);
                }
            }
            MachInst::Jump { target } => {
                self.take_slot(false);
                next_pc = target as u64;
                self.fetch_ready = self.cycle + 1 + self.cfg.jump_penalty;
            }
            MachInst::BranchNz { cond, target } => {
                self.take_slot(false);
                if self.regs[cond.index()] != 0 {
                    next_pc = target as u64;
                    self.fetch_ready = self.cycle + 1 + self.cfg.branch_penalty;
                }
            }
            MachInst::Ret { value } => {
                self.take_slot(false);
                self.count_inst();
                return Ok(Some(value.map(|v| self.read_op(v))));
            }
            MachInst::Nop => {
                self.take_slot(false);
            }
        }
        self.count_inst();
        self.pc = next_pc;
        Ok(None)
    }

    /// Pass a region boundary (resilient cores only): allocate an RBB
    /// instance, stalling for room if needed. Returns `Ok(false)` when the
    /// stall ran into an error detection — the marker is abandoned and
    /// re-executed after recovery.
    fn exec_boundary(&mut self, id: turnpike_isa::RegionId) -> Result<bool, SimError> {
        if !self.rbb.has_room() {
            // Stall until the oldest region verifies.
            let t = self
                .rbb
                .earliest_verify_time()
                .map(|v| v + 1)
                .unwrap_or(self.cycle + 1)
                .max(self.cycle + 1);
            let bound = self.next_detection_bound();
            if bound <= t {
                self.wait_until(bound.max(self.cycle), StallCause::RbbFull);
                self.process_faults();
                return Ok(false);
            }
            self.wait_until(t, StallCause::RbbFull);
            self.settle(self.cycle);
            if !self.rbb.has_room() {
                return Err(SimError::StoreDeadlock { cycle: self.cycle });
            }
        }
        // Boundaries are PC markers, not executed operations:
        // the RBB allocates as the marker passes commit, without
        // consuming an issue slot (their cost is code size and
        // RBB occupancy).
        let prior_all_verified = self.rbb.unverified_count() <= 1;
        let wcdl = self.flags_for(id).wcdl;
        self.rbb
            .on_boundary(id, self.pc as u32 + 1, self.cycle, wcdl);
        // The ended region gives the RBB front a verification
        // point the cached settle time doesn't know about.
        self.settle_due = 0;
        let seq = self.rbb.current_seq();
        self.clq.on_region_start(seq, prior_all_verified);
        self.stats.boundaries += 1;
        self.emit(TraceEvent::RegionStart {
            cycle: self.cycle,
            seq,
        });
        Ok(true)
    }

    fn count_inst(&mut self) {
        self.stats.insts += 1;
        if self.cfg.resilient {
            self.rbb.count_inst();
        }
    }

    /// A parity/hardened-path check caught a corrupted value at access
    /// time. Detection latency is attributed to the most recent strike
    /// (exact for single-strike plans; an approximation when several
    /// strikes overlap one access window).
    fn note_parity_detection(&mut self) {
        self.stats.parity_detections += 1;
        if let Some(h) = self.hists.as_mut() {
            let lat = self.last_strike.map_or(0, |s| self.cycle.saturating_sub(s));
            h.detect_latency.record(lat);
        }
    }

    fn do_load(&mut self, addr: MachAddr, a: u64) -> (i64, u64) {
        if let MachAddr::CkptSlot(_) = addr {
            // Only recovery blocks use this mode; treat as L1 access.
            return (self.ckpt_memory.get(a).unwrap_or(0), self.cfg.l1_hit);
        }
        if let Some(v) = self.sb.forward(a) {
            (v, 1) // store-to-load forwarding
        } else {
            let lat = self.caches.access(a, self.cycle);
            (self.memory.get(a).unwrap_or(0), lat)
        }
    }

    fn do_store(&mut self, a: u64, value: i64) -> Result<bool, SimError> {
        if !self.cfg.resilient {
            self.take_slot(true);
            self.memory.insert(a, value);
            self.caches.touch(a, self.cycle);
            return Ok(true);
        }
        let seq = self.rbb.current_seq();
        let flags = self.region_flags();
        // Unprotected region: release straight to memory when provably
        // safe — every older region has verified (a verified region's
        // window already cleared every detection that could roll execution
        // back before this region, and strikes *inside* this region are
        // never detected, so no rollback can reach this store again) and
        // no older gated store to the same address would drain over it.
        // Otherwise fall through to the quarantine path; the region's
        // zero-length window releases the entry at region end anyway.
        if !flags.gate_stores && self.rbb.unverified_count() <= 1 && !self.sb.has_pending_data(a) {
            self.take_slot(true);
            self.memory.insert(a, value);
            self.caches.touch(a, self.cycle);
            return Ok(true);
        }
        // WAR-free fast release? Blocked when an older store to the same
        // address is still gated: releasing past it would reorder the
        // store stream (the gated entry drains over the newer value).
        if flags.war_free && !self.sb.has_pending_data(a) {
            let war_free = self.clq.check_war_free(a, seq);
            self.emit(TraceEvent::ClqCheck {
                cycle: self.cycle,
                addr: a,
                seq,
                war_free,
            });
            if war_free {
                self.take_slot(true);
                self.memory.insert(a, value);
                self.caches.touch(a, self.cycle);
                self.stats.war_free_released += 1;
                self.emit(TraceEvent::WarFreeRelease {
                    cycle: self.cycle,
                    addr: a,
                });
                return Ok(true);
            }
        }
        // Quarantine: may need to stall for a slot.
        let kind = EntryKind::Data { addr: a };
        self.quarantine(kind, value, seq)
    }

    fn do_ckpt(&mut self, reg: u8, value: i64) -> Result<bool, SimError> {
        if !self.cfg.resilient {
            self.take_slot(true);
            self.ckpt_memory
                .insert(turnpike_ir::ckpt_slot_addr(reg, 0), value);
            return Ok(true);
        }
        let seq = self.rbb.current_seq();
        // Checkpoints keep the protected path in every mode (coloring or
        // quarantine): releasing a checkpoint straight into the verified
        // slot would clobber the value a neighboring protected region's
        // recovery restores from (the unsafe-checkpoint problem).
        if self.region_flags().coloring {
            if let Some(color) = self.coloring.try_assign(reg, seq) {
                self.take_slot(true);
                self.ckpt_memory
                    .insert(turnpike_ir::ckpt_slot_addr(reg, color), value);
                self.stats.colored_released += 1;
                self.emit(TraceEvent::ColoredRelease {
                    cycle: self.cycle,
                    reg,
                    color,
                });
                return Ok(true);
            }
        }
        self.quarantine(EntryKind::CkptFallback { reg }, value, seq)
    }

    /// Quarantine a store, stalling for a slot. Returns `false` when the
    /// stall ran into an error detection: the instruction is abandoned and
    /// re-executed after recovery.
    fn quarantine(&mut self, kind: EntryKind, value: i64, seq: u64) -> Result<bool, SimError> {
        // Stall while the SB is full and the store cannot coalesce.
        let mut guard = 0;
        while self.sb.is_full() && !self.sb.can_coalesce(kind, seq) {
            let t = match self.sb.earliest_release() {
                Some(t) => t.max(self.cycle) + 1,
                None => {
                    // Oldest entry's region not yet verified: wait for its
                    // verification (it must have ended, else deadlock).
                    match self.rbb.earliest_verify_time() {
                        Some(v) => v.max(self.cycle) + 1,
                        None => return Err(SimError::StoreDeadlock { cycle: self.cycle }),
                    }
                }
            };
            let bound = self.next_detection_bound();
            if bound <= t {
                self.wait_until(bound.max(self.cycle), StallCause::SbFull);
                self.process_faults();
                return Ok(false);
            }
            self.wait_until(t, StallCause::SbFull);
            guard += 1;
            if guard > 1_000_000 {
                return Err(SimError::StoreDeadlock { cycle: self.cycle });
            }
        }
        self.take_slot(true);
        self.sb.push(kind, value, seq, self.cycle);
        self.stats.quarantined += 1;
        if self.sink.is_some() {
            self.emit_to_sink(TraceEvent::Quarantined {
                cycle: self.cycle,
                seq,
            });
            self.emit_to_sink(TraceEvent::SbOccupancy {
                cycle: self.cycle,
                entries: self.sb.len() as u32,
                seq,
            });
        }
        Ok(true)
    }

    fn finish(&mut self, ret: Option<i64>) -> Result<SimOutcome, SimError> {
        // Verification tail: the last region ends at program completion and
        // verifies WCDL later; everything drains.
        let mut end = self.cycle;
        if self.cfg.resilient {
            // Close the running region so it can verify, waiting out the
            // RBB if older regions are still in their WCDL windows.
            let mut t = self.cycle;
            while !self.rbb.has_room() {
                t = self
                    .rbb
                    .earliest_verify_time()
                    .map(|v| v + 1)
                    .unwrap_or(t + 1)
                    .max(t + 1);
                self.settle(t);
            }
            // The pseudo-boundary closing the final region is out of range
            // for the mode table, so the tail conservatively waits out the
            // config's full window (an upper bound on any region's WCDL).
            self.rbb.on_boundary(
                turnpike_isa::RegionId(u32::MAX),
                self.pc as u32,
                t,
                self.cfg.wcdl,
            );
            self.settle_due = 0;
            let tail = t + self.cfg.wcdl + 1;
            self.settle(tail + self.sb.len() as u64 + 2);
            let (rest, last) = self.sb.drain_all_scheduled();
            for e in rest {
                self.release_and_note(e, last);
            }
            end = end.max(tail).max(last);
            debug_assert!(self.sb.is_empty(), "all stores must drain at exit");
        }
        self.stats.cycles = end;
        self.stats.avg_region_insts = self.rbb.avg_region_insts();
        self.stats.clq = self.clq.stats();
        self.stats.cache = self.caches.stats();
        self.stats.sb_peak = self.sb.peak;
        self.stats.sb_coalesced = self.sb.coalesced;
        self.stats.sb_discarded = self.sb.discarded;
        self.stats.rbb_insts_sum = self.rbb.insts_sum;
        self.stats.rbb_completed = self.rbb.completed;
        self.stats.hists = self.hists.take();
        Ok(SimOutcome {
            ret,
            memory: self.memory.to_btree(),
            ckpt_memory: self.ckpt_memory.to_btree(),
            stats: std::mem::take(&mut self.stats),
            replay_saved: None,
        })
    }
}

/// Stall attribution for the accounting in [`SimStats`].
#[derive(Debug, Clone, Copy)]
enum StallCause {
    None,
    SbFull,
    Data { is_ckpt: bool },
    MemPort,
    RbbFull,
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnpike_ir::{BinOp, CmpOp, DataSegment};
    use turnpike_isa::{MachProgram, RegionId};

    fn r(i: u8) -> PhysReg {
        PhysReg::new(i).unwrap()
    }

    /// store-heavy loop: st to A[i], i++ until 8, with boundaries.
    fn store_loop(with_regions: bool) -> MachProgram {
        let mut insts = vec![MachInst::Mov {
            dst: r(1),
            src: MOperand::Imm(0),
        }];
        let loop_start = insts.len() as u32;
        if with_regions {
            insts.push(MachInst::RegionBoundary { id: RegionId(1) });
        }
        insts.extend([
            MachInst::Bin {
                op: BinOp::Shl,
                dst: r(2),
                lhs: r(1),
                rhs: MOperand::Imm(3),
            },
            MachInst::Bin {
                op: BinOp::Add,
                dst: r(2),
                lhs: r(2),
                rhs: MOperand::Reg(r(0)),
            },
            MachInst::Store {
                src: MOperand::Reg(r(1)),
                addr: MachAddr::RegOffset(r(2), 0),
            },
            MachInst::Bin {
                op: BinOp::Add,
                dst: r(1),
                lhs: r(1),
                rhs: MOperand::Imm(1),
            },
            MachInst::Ckpt { reg: r(1) },
            MachInst::Cmp {
                op: CmpOp::Lt,
                dst: r(3),
                lhs: r(1),
                rhs: MOperand::Imm(8),
            },
            MachInst::BranchNz {
                cond: r(3),
                target: loop_start,
            },
            MachInst::Ret {
                value: Some(MOperand::Reg(r(1))),
            },
        ]);
        let mut p = MachProgram::from_insts("loop", insts, DataSegment::zeroed(0x1000, 8));
        p.reg_init = vec![(r(0), 0x1000)];
        if with_regions {
            // Recovery metadata the compiler would emit: region 0 restores
            // the program input; region 1 additionally restores the
            // loop-carried counter.
            use turnpike_isa::RecoveryBlock;
            let load = |reg| MachInst::Load {
                dst: reg,
                addr: MachAddr::CkptSlot(reg),
            };
            p.recovery.insert(
                RegionId(0),
                RecoveryBlock {
                    insts: vec![load(r(0))],
                },
            );
            p.recovery.insert(
                RegionId(1),
                RecoveryBlock {
                    insts: vec![load(r(0)), load(r(1))],
                },
            );
        }
        p
    }

    #[test]
    fn baseline_runs_and_matches_functional_interp() {
        let p = store_loop(false);
        let golden = turnpike_isa::interp::run(&p, &Default::default()).unwrap();
        let out = Core::new(&p, SimConfig::baseline())
            .run(RunOpts::default())
            .unwrap();
        assert_eq!(out.ret, golden.ret);
        assert_eq!(out.memory, golden.memory);
        assert!(out.stats.cycles > 0);
        assert!(out.stats.ipc() > 0.1);
    }

    #[test]
    fn turnstile_matches_functionally_but_runs_slower() {
        let p = store_loop(true);
        let base = Core::new(&p, SimConfig::baseline())
            .run(RunOpts::default())
            .unwrap();
        let ts = Core::new(&p, SimConfig::turnstile(4, 30))
            .run(RunOpts::default())
            .unwrap();
        assert_eq!(ts.ret, base.ret);
        assert_eq!(ts.memory, base.memory);
        assert!(
            ts.stats.cycles > base.stats.cycles,
            "quarantine must cost cycles ({} vs {})",
            ts.stats.cycles,
            base.stats.cycles
        );
        assert!(ts.stats.quarantined > 0);
        assert!(ts.stats.boundaries > 0);
    }

    #[test]
    fn turnpike_bypasses_and_beats_turnstile() {
        let p = store_loop(true);
        let ts = Core::new(&p, SimConfig::turnstile(4, 30))
            .run(RunOpts::default())
            .unwrap();
        let tp = Core::new(&p, SimConfig::turnpike(4, 30))
            .run(RunOpts::default())
            .unwrap();
        assert_eq!(tp.ret, ts.ret);
        assert_eq!(tp.memory, ts.memory);
        assert!(
            tp.stats.war_free_released > 0,
            "stores to fresh addresses are WAR-free"
        );
        assert!(tp.stats.colored_released > 0, "ckpts take the colored path");
        assert!(
            tp.stats.cycles <= ts.stats.cycles,
            "turnpike must not be slower ({} vs {})",
            tp.stats.cycles,
            ts.stats.cycles
        );
    }

    #[test]
    fn wcdl_scaling_hurts_turnstile_more() {
        let p = store_loop(true);
        let t10 = Core::new(&p, SimConfig::turnstile(4, 10))
            .run(RunOpts::default())
            .unwrap();
        let t50 = Core::new(&p, SimConfig::turnstile(4, 50))
            .run(RunOpts::default())
            .unwrap();
        assert!(t50.stats.cycles > t10.stats.cycles);
        let p10 = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(RunOpts::default())
            .unwrap();
        let p50 = Core::new(&p, SimConfig::turnpike(4, 50))
            .run(RunOpts::default())
            .unwrap();
        let ts_growth = t50.stats.cycles as f64 / t10.stats.cycles as f64;
        let tp_growth = p50.stats.cycles as f64 / p10.stats.cycles as f64;
        assert!(
            tp_growth <= ts_growth + 1e-9,
            "turnpike should scale no worse with WCDL ({tp_growth} vs {ts_growth})"
        );
    }

    #[test]
    fn parity_fault_recovers_without_sdc() {
        let p = store_loop(true);
        let golden = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(RunOpts::default())
            .unwrap();
        for cycle in [3, 10, 25, 40] {
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: cycle,
                detect_latency: 5,
                kind: FaultKind::RegisterParity { reg: 1, bit: 3 },
            }]);
            let out = Core::new(&p, SimConfig::turnpike(4, 10))
                .run(RunOpts {
                    faults: &plan,
                    ..RunOpts::default()
                })
                .unwrap();
            assert_eq!(out.ret, golden.ret, "strike at {cycle}");
            assert_eq!(out.memory, golden.memory, "strike at {cycle}");
            assert!(out.stats.recoveries >= 1);
            assert!(out.stats.cycles >= golden.stats.cycles);
        }
    }

    #[test]
    fn datapath_fault_recovers_without_sdc() {
        let p = store_loop(true);
        let golden = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(RunOpts::default())
            .unwrap();
        for cycle in [2, 7, 19, 33] {
            let plan = FaultPlan::new(vec![Fault {
                strike_cycle: cycle,
                detect_latency: 9,
                kind: FaultKind::Datapath { bit: 17 },
            }]);
            let out = Core::new(&p, SimConfig::turnpike(4, 10))
                .run(RunOpts {
                    faults: &plan,
                    ..RunOpts::default()
                })
                .unwrap();
            assert_eq!(out.ret, golden.ret, "strike at {cycle}");
            assert_eq!(out.memory, golden.memory, "strike at {cycle}");
        }
    }

    #[test]
    fn unprotected_baseline_can_corrupt() {
        // The same fault on the baseline core is not recovered; it may (and
        // with this plan, does) produce a different result — the SDC that
        // the resilient configurations must never show.
        let p = store_loop(false);
        let golden = Core::new(&p, SimConfig::baseline())
            .run(RunOpts::default())
            .unwrap();
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: 4,
            detect_latency: 5,
            kind: FaultKind::RegisterParity { reg: 1, bit: 40 },
        }]);
        let out = Core::new(&p, SimConfig::baseline())
            .run(RunOpts {
                faults: &plan,
                ..RunOpts::default()
            })
            .unwrap();
        assert!(
            out.memory != golden.memory || out.ret != golden.ret,
            "baseline has no recovery: corruption must be visible"
        );
    }

    #[test]
    fn fault_beyond_wcdl_is_rejected() {
        let p = store_loop(true);
        let plan = FaultPlan::new(vec![Fault {
            strike_cycle: 1,
            detect_latency: 99,
            kind: FaultKind::Datapath { bit: 1 },
        }]);
        let err = Core::new(&p, SimConfig::turnpike(4, 10))
            .run(RunOpts {
                faults: &plan,
                ..RunOpts::default()
            })
            .unwrap_err();
        assert_eq!(err, SimError::BadFaultPlan);
    }

    #[test]
    fn store_to_load_forwarding_from_quarantine() {
        // A load of a quarantined (not yet released) address must see the
        // pending value.
        let insts = vec![
            MachInst::Mov {
                dst: r(1),
                src: MOperand::Imm(42),
            },
            MachInst::Store {
                src: MOperand::Reg(r(1)),
                addr: MachAddr::Abs(0x1000),
            },
            MachInst::Load {
                dst: r(2),
                addr: MachAddr::Abs(0x1000),
            },
            MachInst::Ret {
                value: Some(MOperand::Reg(r(2))),
            },
        ];
        let p = MachProgram::from_insts("fwd", insts, DataSegment::zeroed(0x1000, 1));
        // Turnstile: store sits in the SB; the load still returns 42.
        let out = Core::new(&p, SimConfig::turnstile(4, 50))
            .run(RunOpts::default())
            .unwrap();
        assert_eq!(out.ret, Some(42));
        assert_eq!(out.memory.get(&0x1000), Some(&42));
    }
}
