//! CAD-engine substitute for the Xilinx Vivado tool.
//!
//! The PR-ESP paper's FPGA-flow contribution is *scheduling*: deciding how
//! to split a DPR design's place-and-route across parallel Vivado instances
//! so the total compilation time shrinks. Reproducing that without Vivado
//! requires a CAD engine whose runtimes behave like Vivado's — which is
//! precisely what the paper itself built ("an approximate model that
//! correlates the size of the design with the P&R runtime", Section I).
//!
//! This crate provides:
//!
//! * [`spec`] — DPR design specifications (static part + reconfigurable
//!   modules with resource footprints).
//! * `synth` (crate-private) — a synthesis engine with out-of-context
//!   (OoC) support and a linear-in-size runtime model; it reports a
//!   [`SynthReport`].
//! * [`place`] — an analytic region placer that actually assigns logic to
//!   fabric columns, verifies capacity, and produces the configuration-frame
//!   content that `presp-fpga` serializes into (partial) bitstreams.
//! * `model` (crate-private) — the empirical runtime model ([`Minutes`]
//!   as a function of design size and congestion), calibrated against
//!   the paper's Table III.
//! * `host` (crate-private) — the multi-core host machine running
//!   concurrent CAD instances with contention.
//! * [`flow`] — the serial / semi-parallel / fully-parallel P&R schedules
//!   and the monolithic (standard Xilinx DPR flow) baseline.
//!
//! # Example
//!
//! ```
//! use presp_cad::flow::{CadFlow, Strategy};
//! use presp_cad::spec::DprDesignSpec;
//! use presp_fpga::part::FpgaPart;
//! use presp_fpga::resources::Resources;
//!
//! let spec = DprDesignSpec::builder("demo", FpgaPart::Vc707)
//!     .static_part(Resources::luts(82_000))
//!     .reconfigurable("rt0", Resources::luts(36_000))
//!     .reconfigurable("rt1", Resources::luts(30_000))
//!     .build()?;
//! let flow = CadFlow::new();
//! let report = flow.run_pnr(&spec, Strategy::FullyParallel)?;
//! assert!(report.wall_minutes() > 0.0);
//! # Ok::<(), presp_cad::Error>(())
//! ```

#![warn(unreachable_pub)]

mod error;
pub mod flow;
mod host;
mod model;
pub mod place;
pub mod spec;
mod synth;

pub use error::Error;
pub use flow::{CadFlow, PnrReport, Strategy};
pub use model::Minutes;
pub use spec::DprDesignSpec;
pub use synth::{SynthCheckpoint, SynthReport};
