//! The PR-ESP accelerator catalog.
//!
//! Every loosely-coupled accelerator used in the paper is described here:
//!
//! * the five characterization accelerators of Table II (MAC from the ESP
//!   *Vivado HLS* flow; Conv2d, GEMM, FFT and Sort from SystemC via
//!   *Cadence Stratus HLS*),
//! * the twelve WAMI-App accelerators of Fig. 3 (see [`presp_wami::graph`]),
//! * and the Leon3 CPU tile, which SoC_D and SOC_4 move into the
//!   reconfigurable region to shrink the static part.
//!
//! Each accelerator carries a resource profile ([`catalog`]), an
//! invocation-latency model ([`latency`]), a power model ([`power`]) and a
//! behavioral implementation ([`AccelOp`], [`AccelInstance`]) that
//! computes real results — the SoC simulator executes these behaviors so
//! full-system WAMI runs produce pixel-identical outputs to the software
//! reference.
//!
//! # Example
//!
//! ```
//! use presp_accel::catalog::AcceleratorKind;
//!
//! let conv = AcceleratorKind::Conv2d;
//! assert_eq!(conv.resources().lut, 36_741); // Table II
//! ```

#![warn(unreachable_pub)]

pub mod catalog;
mod error;
pub mod latency;
mod op;
pub mod power;

pub use catalog::AcceleratorKind;
pub use error::Error;
pub use op::{AccelInstance, AccelOp, AccelValue};
