//! ESP-style tile-based SoC simulator with PR-ESP's DPR extensions.
//!
//! The architecture follows Section III of the paper:
//!
//! * a 2D-mesh, multi-plane, packet-switched NoC connecting a grid of tiles
//!   (`noc`, [`config`]);
//! * processor (Leon3), memory, auxiliary and shared-local-memory tiles form
//!   the **static part**; accelerators live either in static accelerator
//!   tiles or in **reconfigurable tiles** ([`tile`]);
//! * each reconfigurable tile wraps its accelerator in a common interface
//!   (load/store ports, memory-mapped registers, interrupt line) behind
//!   **decoupling logic** that detaches the wrapper from the NoC during
//!   reconfiguration;
//! * the auxiliary tile hosts the **DFX controller** and the ICAP: it
//!   fetches partial bitstreams from DRAM over the NoC, streams them through
//!   the ICAP, and raises an interrupt on completion
//!   ([`Soc::reconfigure_at`] models the controller's load transaction,
//!   and [`Soc::config_memory`] is the fabric behind the ICAP);
//! * a [`sim`]ulator advances virtual time (78 MHz SoC clock) through the
//!   shared `presp-events` kernel — every shared resource (NoC links, the
//!   DRAM channel, the ICAP, each tile) is a reservation
//!   [`presp_events::ResourceTimeline`] — accounts DMA transfers with
//!   link-level NoC contention, executes accelerator behaviors from
//!   `presp-accel` for real results, meters energy ([`EnergyReport`]), and can
//!   emit a structured trace of every operation
//!   ([`sim::Soc::attach_tracer`]).
//!
//! # Example
//!
//! ```
//! use presp_soc::config::SocConfig;
//! use presp_soc::sim::Soc;
//! use presp_accel::{AccelOp, AccelValue, AcceleratorKind};
//!
//! let config = SocConfig::grid_2x2_single(AcceleratorKind::Mac)?;
//! let mut soc = Soc::new(&config)?;
//! let tile = soc.accelerator_tiles()[0];
//! let run = soc.run_accelerator(tile, &AccelOp::Mac {
//!     a: vec![1.0, 2.0],
//!     b: vec![3.0, 4.0],
//! })?;
//! assert_eq!(run.value, AccelValue::Scalar(11.0));
//! # Ok::<(), presp_soc::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod config;
mod energy;
mod error;
mod noc;
pub mod sim;
pub mod tile;

pub use presp_events::json;

pub use config::{SocConfig, TileCoord};
pub use energy::EnergyReport;
pub use error::Error;
pub use sim::Soc;
