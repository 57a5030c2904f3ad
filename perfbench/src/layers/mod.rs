//! One adapter per workspace crate: every call the benchmark makes into
//! the program goes through these modules, each wrapped in a span named
//! after the per-layer metric it feeds. A change to a crate's public API
//! touches the matching adapter, not the workloads.

pub mod accel;
pub mod cad;
pub mod core;
pub mod eval;
pub mod events;
pub mod floorplan;
pub mod fpga;
pub mod runtime;
pub mod soc;
pub mod wami;
