//! Synthetic evaluation kernels for the Turnpike reproduction.
//!
//! The paper evaluates on 36 benchmarks from SPEC CPU2006, SPEC CPU2017,
//! and SPLASH3, which cannot be redistributed. This crate supplies 36
//! synthetic stand-ins, one per benchmark name, each built from a small set
//! of [`templates`] and parameterized to exercise the behavioral axis that
//! makes the original program interesting for *this* paper:
//!
//! * store density and store-buffer pressure (streaming/stencil kernels);
//! * write-after-read patterns that defeat WAR-free fast release
//!   (read-modify-write tables);
//! * extra loop induction variables from strength-reduced addressing
//!   (LIVM targets);
//! * boundary-free reduction loops whose per-iteration checkpoints LICM can
//!   sink out (leela/exchange2-style);
//! * load-use chains that stall eager checkpoints (pointer chasing, mcf);
//! * register pressure that makes spill-store placement matter
//!   (gemsfdtd/lbm-style).
//!
//! Absolute cycle counts are not comparable to the paper's gem5 runs; the
//! per-mechanism *shapes* (who wins, what scales with WCDL and SB size) are.

pub mod catalog;
pub mod generator;
pub mod templates;

pub use catalog::{all_kernels, find_kernel, kernel_by_name, Kernel, KernelId, Scale, Suite};
pub use generator::{generate, GeneratorConfig};
