//! Fault model: particle-strike descriptions injected into a run.
//!
//! Following the paper's fault model (§5), soft errors corrupt register
//! state; the SB, RBB, CLQ, color maps, caches, and the AGU are hardened.
//! Two flavours are modeled:
//!
//! * [`FaultKind::RegisterParity`] — a bit flip in the architectural
//!   register file. Each register carries a parity bit, so the corruption is
//!   caught the first time the register is *read* (triggering recovery as if
//!   the sensors had fired); if never read, the sensor still reports the
//!   strike within WCDL.
//! * [`FaultKind::Datapath`] — a strike in the execution datapath that
//!   corrupts the result of the instruction in flight at the strike cycle.
//!   The value is written back with consistent parity, so only the acoustic
//!   sensor (within WCDL) catches it; meanwhile the wrong value may
//!   propagate, be stored, fast-released, or checkpointed. Per the paper's
//!   hardening assumptions, a corrupted value reaching a store *address* or
//!   a branch condition trips the hardened-AGU/parity path immediately.

/// What a strike corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip `bit` of architectural register `reg` while at rest.
    RegisterParity {
        /// Register index.
        reg: u8,
        /// Bit to flip (0..64).
        bit: u8,
    },
    /// Flip `bit` of the destination value of the instruction issuing at the
    /// strike cycle (no-op if that instruction writes no register).
    Datapath {
        /// Bit to flip (0..64).
        bit: u8,
    },
}

/// One particle strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Cycle at which the strike occurs.
    pub strike_cycle: u64,
    /// Sensor detection delay; detection fires at
    /// `strike_cycle + detect_latency`, which must be ≤ WCDL.
    pub detect_latency: u64,
    /// What is corrupted.
    pub kind: FaultKind,
}

/// A set of strikes for one run, sorted by strike cycle.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    watchdog: Option<u64>,
}

impl FaultPlan {
    /// No faults.
    pub const fn none() -> Self {
        FaultPlan {
            faults: Vec::new(),
            watchdog: None,
        }
    }

    /// Build from a list (sorted internally).
    pub fn new(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| f.strike_cycle);
        FaultPlan {
            faults,
            watchdog: None,
        }
    }

    /// Bound the injected run to `limit` cycles: the core clamps its cycle
    /// limit to the watchdog, so a strike that corrupts control flow into a
    /// non-terminating loop aborts with a cycle-limit error instead of
    /// simulating forever. Campaigns derive the bound from the fault-free
    /// run's length and classify the abort as a hang — the fault-injection
    /// analog of detection by timeout. A corruption no scheme machinery
    /// detects can hang the program only in runs that carry faults, so the
    /// watchdog lives on the plan, not the core config.
    #[must_use]
    pub fn with_watchdog(mut self, limit: u64) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// The watchdog cycle bound, if any.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// The strikes in cycle order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of strikes.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultPlan::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_cycle() {
        let p = FaultPlan::new(vec![
            Fault {
                strike_cycle: 90,
                detect_latency: 3,
                kind: FaultKind::Datapath { bit: 1 },
            },
            Fault {
                strike_cycle: 10,
                detect_latency: 5,
                kind: FaultKind::RegisterParity { reg: 2, bit: 7 },
            },
        ]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.faults()[0].strike_cycle, 10);
        assert_eq!(p.faults()[1].strike_cycle, 90);
    }

    #[test]
    fn from_iterator_and_none() {
        let p: FaultPlan = std::iter::empty().collect();
        assert!(p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
