//! PR-ESP: an open-source platform for design and programming of partially
//! reconfigurable SoCs — the paper's primary contribution.
//!
//! The platform ties the substrates together into the fully automated flow
//! of Fig. 1:
//!
//! 1. **Parse** a [`design`] (tile grid + per-tile accelerator allocation),
//!    separating static from reconfigurable sources.
//! 2. **Synthesize** the static part and every reconfigurable tile in
//!    parallel, out-of-context (`presp-cad`).
//! 3. **Floorplan** the reconfigurable regions (`presp-floorplan`).
//! 4. **Choose the P&R parallelism** with the size-driven algorithm of
//!    Table I ([`strategy`]).
//! 5. **Place & route** under the chosen schedule and **generate full and
//!    partial bitstreams** ([`flow`]), compressed like the paper's pbs.
//! 6. **Deploy** ([`platform`]): boot the simulated SoC, register the pbs
//!    with the runtime manager, and hand back a programmable system.
//!
//! # Example
//!
//! ```
//! use presp_core::design::SocDesign;
//! use presp_core::flow::PrEspFlow;
//! use presp_core::strategy::SizeClass;
//!
//! // SoC_B of the paper (Table IV): WAMI accelerators {2, 3, 11, 1}.
//! let design = SocDesign::wami_table4("soc_b", &[2, 3, 11, 1])?;
//! let output = PrEspFlow::new().run(&design)?;
//! assert_eq!(output.class, SizeClass::Class1_1);           // γ < 1, κ ≫ α_av
//! assert!(output.report.total.value() > 0.0);              // simulated minutes
//! assert_eq!(output.partial_bitstreams.len(), 4);          // one pbs per accelerator
//! # Ok::<(), presp_core::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod design;
mod error;
pub mod flow;
pub mod platform;
pub mod strategy;

pub use design::SocDesign;
pub use error::Error;
pub use flow::{FlowOutput, PrEspFlow};
pub use strategy::{choose_strategy, classify, SizeClass};
