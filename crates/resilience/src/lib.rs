//! End-to-end resilient execution for the Turnpike reproduction.
//!
//! Glues the workspace together: a [`Scheme`] names one point in the paper's
//! design space (Turnstile, the Figure-21 optimization ladder, full
//! Turnpike), [`run_kernel`] compiles an IR program under that scheme and
//! simulates it on the matching core configuration, and
//! [`fault_campaign_forked`] injects sensor-detected particle strikes and
//! audits the final architectural state against the IR interpreter's golden
//! run — any mismatch is a silent data corruption, which the resilient
//! schemes must never exhibit.
//!
//! # Example
//!
//! ```
//! use turnpike_resilience::{fault_campaign_forked, CampaignConfig, RunSpec, Scheme};
//! use turnpike_workloads::{kernel_by_name, Scale, Suite};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = kernel_by_name(Suite::Cpu2006, "bwaves", Scale::Smoke).unwrap();
//! let (report, _records, _fork) = fault_campaign_forked(
//!     &kernel.program,
//!     &RunSpec::new(Scheme::Turnpike),
//!     &CampaignConfig { runs: 3, seed: 7, strikes_per_run: 1, ..Default::default() },
//!     1,
//! )?;
//! assert!(report.sdc_free());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod driver;
pub mod par;
pub mod preset;
pub mod scheme;

pub use campaign::{
    fault_campaign_forked, fault_campaign_shard_hooked, write_strike_records, CampaignConfig,
    CampaignHook, CampaignProgress, CampaignReport, ForkStats, StopRule, StrikeOutcome,
    StrikeRecord, STOP_CHUNK,
};
pub use driver::{geomean, run_compiled, run_kernel, RunError, RunResult, RunSpec};
pub use par::par_map;
pub use preset::{
    cache_geom, AblationKnob, CacheGeom, ExploreAxes, LadderRung, ABLATION, CACHE_GEOMS,
    COLOR_POOLS, COLOR_WCDLS, EXPLORE_AXES, LADDER,
};
pub use scheme::Scheme;
