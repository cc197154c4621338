//! Property tests on the trace event stream: per-kind cycle monotonicity
//! and the quarantine/release/squash accounting identity, across random
//! hardware points and fault plans.

use proptest::prelude::*;
use turnpike_ir::{BinOp, CmpOp, DataSegment};
use turnpike_isa::{MOperand, MachAddr, MachInst, MachProgram, PhysReg, RecoveryBlock, RegionId};
use turnpike_sim::{Core, Fault, FaultKind, FaultPlan, SimConfig, TraceEvent};

mod common;
use common::run_traced;

fn r(i: u8) -> PhysReg {
    PhysReg::new(i).unwrap()
}

/// The trace_lifecycle store loop: six iterations, one region + one store +
/// one checkpoint each, with recovery metadata.
fn program() -> MachProgram {
    let insts = vec![
        MachInst::Mov {
            dst: r(1),
            src: MOperand::Imm(0),
        },
        MachInst::RegionBoundary { id: RegionId(1) },
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
            rhs: MOperand::Imm(6),
        },
        MachInst::BranchNz {
            cond: r(3),
            target: 1,
        },
        MachInst::Ret {
            value: Some(MOperand::Reg(r(1))),
        },
    ];
    let mut p = MachProgram::from_insts("prop-trace", insts, DataSegment::zeroed(0x1000, 6));
    p.reg_init = vec![(r(0), 0x1000)];
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
    p
}

proptest! {
    /// Within each event kind the cycle stamps are non-decreasing (the
    /// event-skip simulator interleaves kinds, so only per-kind clocks are
    /// monotone), and every quarantined store is either released or
    /// squashed by a recovery: releases = quarantines − coalesces − squash
    /// discards, exactly.
    #[test]
    fn stream_is_monotone_and_conserves_stores(
        turnpike_hw in any::<bool>(),
        sb_size in 2u32..8,
        wcdl in 5u64..40,
        strike_cycle in 1u64..200,
        detect_latency in 0u64..5,
        parity in any::<bool>(),
    ) {
        let p = program();
        let sc = if turnpike_hw {
            SimConfig::turnpike(sb_size, wcdl)
        } else {
            SimConfig::turnstile(sb_size, wcdl)
        };
        let kind = if parity {
            FaultKind::RegisterParity { reg: 1, bit: 2 }
        } else {
            FaultKind::Datapath { bit: 21 }
        };
        let plan = FaultPlan::new(vec![Fault { strike_cycle, detect_latency, kind }]);
        let (out, trace) = run_traced(Core::new(&p, sc), &plan, 1 << 16).unwrap();
        prop_assert_eq!(out.ret, Some(6), "resilient run must recover");
        prop_assert_eq!(trace.dropped, 0, "cap must not truncate this run");
        let evs = trace.events();

        // Per-kind cycle monotonicity.
        let mut last: std::collections::HashMap<&'static str, u64> =
            std::collections::HashMap::new();
        for e in &evs {
            let prev = last.insert(e.kind(), e.cycle()).unwrap_or(0);
            prop_assert!(
                e.cycle() >= prev,
                "{} stream went back in time: {} -> {}", e.kind(), prev, e.cycle()
            );
        }

        // Store conservation: every Quarantined event is matched by an
        // SbRelease unless a recovery squashed it (or it coalesced into an
        // already-counted entry).
        let count = |f: fn(&TraceEvent) -> bool| evs.iter().filter(|e| f(e)).count() as u64;
        let q = count(|e| matches!(e, TraceEvent::Quarantined { .. }));
        let rel = count(|e| matches!(e, TraceEvent::SbRelease { .. }));
        let recoveries = count(|e| matches!(e, TraceEvent::Recovery { .. }));
        let s = &out.stats;
        prop_assert_eq!(q, s.quarantined);
        prop_assert_eq!(
            rel,
            s.quarantined - s.sb_coalesced - s.sb_discarded,
            "release count must equal quarantines minus coalesces and squashes"
        );
        if s.sb_discarded > 0 {
            prop_assert!(recoveries > 0, "only recovery discards SB entries");
        }
        // Detections precede recoveries one-for-one in this single-strike
        // plan, and a strike inside the run always produces both.
        prop_assert_eq!(recoveries, s.recoveries);
        if recoveries > 0 {
            prop_assert!(s.detections >= recoveries);
        }
    }

    /// Fault-free runs drain every quarantined store: no coalescing losses
    /// beyond the counter, no discards, and SB occupancy samples never
    /// exceed the configured capacity.
    #[test]
    fn fault_free_stream_releases_everything(
        turnpike_hw in any::<bool>(),
        sb_size in 2u32..8,
        wcdl in 5u64..40,
    ) {
        let p = program();
        let sc = if turnpike_hw {
            SimConfig::turnpike(sb_size, wcdl)
        } else {
            SimConfig::turnstile(sb_size, wcdl)
        };
        let (out, trace) = run_traced(Core::new(&p, sc), &FaultPlan::none(), 1 << 16).unwrap();
        prop_assert_eq!(out.ret, Some(6));
        let evs = trace.events();
        let q = evs.iter().filter(|e| matches!(e, TraceEvent::Quarantined { .. })).count() as u64;
        let rel = evs.iter().filter(|e| matches!(e, TraceEvent::SbRelease { .. })).count() as u64;
        prop_assert_eq!(out.stats.sb_discarded, 0);
        prop_assert_eq!(rel, q - out.stats.sb_coalesced);
        for e in &evs {
            if let TraceEvent::SbOccupancy { entries, .. } = e {
                prop_assert!(*entries <= sb_size, "occupancy over capacity");
            }
        }
    }
}
