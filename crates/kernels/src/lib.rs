//! # entk-kernels — kernel plugins (paper §III-B, component 2)
//!
//! Kernel plugins abstract computational tasks — "an instantiation of a
//! specific science tool along with the required software environment" —
//! hiding tool- and resource-specific peculiarities. Each plugin provides a
//! platform-aware plan (runtime and staging volumes, for simulated
//! execution), a cheap model execution (semantic outputs in virtual time),
//! and a real execution (actual computation on the local host).
//!
//! A kernel's arguments are documented where they are declared: the `…Args`
//! struct next to each kernel in [`misc`], [`md`] and [`analysis`] lists its
//! keys, types and defaults, and refuses anything else (see [`plugin`]).
//!
//! Built-ins cover every kernel in the paper's evaluation: `misc.mkfile` /
//! `misc.ccount` (Fig. 3), `md.gromacs` + `ana.lsdmap` (Fig. 4),
//! `md.amber` + `md.exchange` (Figs. 5–6), `md.amber` + `ana.coco`
//! (Figs. 7–9), plus `misc.sleep` / `misc.stress` for calibration.

#![warn(missing_docs)]

pub mod analysis;
pub mod md;
pub mod misc;
pub mod plugin;
pub mod registry;

pub use analysis::{CocoKernel, LsdmapKernel, WhamKernel};
pub use md::{ExchangeKernel, MdKernel};
pub use misc::{CcountKernel, MkfileKernel, SleepKernel, StressKernel};
pub use plugin::{KernelCall, KernelError, KernelPlugin, UnitPlan};
pub use registry::KernelRegistry;
