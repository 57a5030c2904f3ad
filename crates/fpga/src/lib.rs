//! FPGA device substrate for the PR-ESP platform.
//!
//! This crate models the parts of a Xilinx-style FPGA that the PR-ESP flow
//! interacts with when building partially reconfigurable SoCs:
//!
//! * [`resources`] — resource vectors (LUT/FF/BRAM/DSP) with saturating
//!   arithmetic, used everywhere utilization is tracked.
//! * [`part`] — the supported evaluation parts (VC707, VCU118, VCU128) and
//!   their headline capacities.
//! * [`fabric`] — a columnar fabric model: clock-region rows crossed with
//!   resource columns, the geometry that floorplanning operates on.
//! * [`pblock`] — rectangular placement constraints for reconfigurable
//!   partitions, with DPR legality checks.
//! * [`frame`] — configuration-frame addressing and per-column frame counts.
//! * [`bitstream`] — full/partial bitstream construction, including the
//!   multi-frame-write compression used by Vivado's compressed mode, and
//!   the bitstream CRC-32 ([`bitstream::CrcAccumulator`]).
//! * [`icap`] — an ICAPE2/ICAPE3-style configuration port that parses
//!   bitstreams into configuration memory and models reconfiguration latency.
//! * [`ecc`] — per-word SECDED check codes layered under the bitstream CRC,
//!   so in-fabric upsets (SEUs) are correctable by readback scrubbing.
//!
//! # Example
//!
//! ```
//! use presp_fpga::part::FpgaPart;
//! use presp_fpga::pblock::Pblock;
//!
//! let device = FpgaPart::Vc707.device();
//! let pblock = Pblock::new(4, 10, 0, 2)?;
//! let capacity = device.pblock_resources(&pblock)?;
//! assert!(capacity.lut > 0);
//! # Ok::<(), presp_fpga::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod bitstream;
pub mod config_memory;
mod crc;
pub mod ecc;
mod error;
pub mod fabric;
pub mod fault;
pub mod frame;
pub mod icap;
pub mod part;
pub mod pblock;
pub mod resources;

pub use error::Error;
pub use part::FpgaPart;
pub use pblock::Pblock;
pub use resources::Resources;
