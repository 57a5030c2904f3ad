//! `presp-soc`: SoC configuration and simulator construction.

use crate::spans::Spans;
use presp_fpga::fabric::Device;
pub use presp_soc::config::{SocConfig, TileCoord};
pub use presp_soc::sim::Soc;

/// The near-square `grid_reconf` SoC with `tiles` reconfigurable tiles.
pub fn grid(tiles: usize) -> SocConfig {
    SocConfig::grid_reconf("perfbench", tiles).expect("grid_reconf accepts any tile count >= 1")
}

/// Boots the simulator over `config` on the default part.
pub fn boot(spans: &mut Spans, config: &SocConfig) -> Soc {
    spans.time("soc.boot", 0, |_| {
        Soc::new(config).expect("grid SoCs are valid")
    })
}

/// Boots the simulator over `config` on `part` (the deployment path).
pub fn boot_on(spans: &mut Spans, config: &SocConfig, part: presp_fpga::FpgaPart) -> Soc {
    spans.time("soc.boot", 0, |_| {
        Soc::with_part(config, part).expect("paper designs are valid")
    })
}

pub fn device(soc: &Soc) -> Device {
    soc.part().device()
}

pub fn reconfigurable_tiles(config: &SocConfig) -> Vec<TileCoord> {
    config.reconfigurable_tiles()
}
