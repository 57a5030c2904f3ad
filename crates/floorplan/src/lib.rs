//! Automated DPR floorplanning for PR-ESP.
//!
//! The paper automates floorplanning by adapting FLORA (Seyoum et al., ACM
//! TECS 2019): given the post-synthesis resource requirement of every
//! reconfigurable tile, generate a placement rectangle (*pblock*) per tile
//! that
//!
//! 1. provides all required resources with a routing-slack margin,
//! 2. is vertically aligned to clock-region rows (a Xilinx DPR rule —
//!    guaranteed here by construction, see [`presp_fpga::pblock::Pblock`]),
//! 3. never covers the configuration column, and
//! 4. does not overlap any other reconfigurable pblock.
//!
//! [`Floorplanner`] implements a deterministic best-fit scan: requests are
//! placed in descending LUT order; for each request every legal rectangle is
//! enumerated (growing column spans over growing row spans) and the
//! candidate wasting the fewest LUTs wins.
//!
//! # Example
//!
//! ```
//! use presp_floorplan::{Floorplanner, RegionRequest};
//! use presp_fpga::part::FpgaPart;
//! use presp_fpga::resources::Resources;
//!
//! let device = FpgaPart::Vc707.device();
//! let requests = vec![
//!     RegionRequest::new("tile0", Resources::new(30_000, 40_000, 20, 30)),
//!     RegionRequest::new("tile1", Resources::new(12_000, 15_000, 8, 6)),
//! ];
//! let plan = Floorplanner::new(&device).floorplan(&requests)?;
//! assert_eq!(plan.pblocks().len(), 2);
//! # Ok::<(), presp_floorplan::Error>(())
//! ```

#![warn(unreachable_pub)]

mod error;
mod planner;
mod region;

pub use error::Error;
pub use planner::{Floorplan, Floorplanner, RegionRequest};
pub use region::{FitPolicy, FragmentationStats, RegionAllocator, RegionLease, RegionMove};
