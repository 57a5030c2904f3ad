//! The DFX controller (DFXC) hosted in the auxiliary tile.
//!
//! The paper instantiates Xilinx's DFX controller IP plus the ICAP
//! primitive inside the auxiliary tile (Section III): software programs the
//! controller through memory-mapped registers (AXI-Lite bridged to the APB
//! bus), the controller fetches the partial bitstream from memory through
//! an AXI master (bridged to NoC packets), streams it into the ICAP, and
//! raises an interrupt on completion. This module models the controller's
//! load transaction over the ICAP; the NoC fetch and the interrupt are
//! accounted by the simulator.

use crate::error::Error;
use presp_fpga::bitstream::Bitstream;
use presp_fpga::fabric::Device;
use presp_fpga::icap::{Icap, IcapReport};

/// The DFX controller + ICAP pair.
#[derive(Debug, Clone)]
pub struct Dfxc {
    icap: Icap,
}

impl Dfxc {
    /// Creates a controller for `device`.
    pub(crate) fn new(device: &Device) -> Dfxc {
        Dfxc {
            icap: Icap::new(device),
        }
    }

    /// The configuration memory behind the ICAP.
    pub fn config_memory(&self) -> &presp_fpga::config_memory::ConfigMemory {
        self.icap.memory()
    }

    /// Mutable access to the configuration memory, for SEU injection,
    /// readback scrubbing and transactional rollback. Every mutation still
    /// goes through [`ConfigMemory`](presp_fpga::config_memory::ConfigMemory)'s
    /// own doorway methods.
    pub(crate) fn config_memory_mut(&mut self) -> &mut presp_fpga::config_memory::ConfigMemory {
        self.icap.memory_mut()
    }

    /// Frame addresses written by the most recent load (write order).
    pub(crate) fn last_written(&self) -> &[presp_fpga::frame::FrameAddress] {
        self.icap.last_written()
    }

    /// Streams a (fetched) bitstream through the ICAP as one transaction
    /// ([`Icap::load_or_rollback`]).
    ///
    /// # Errors
    ///
    /// Propagates ICAP errors (CRC mismatch, wrong IDCODE, malformed
    /// stream) with the number of frames the failed stream had changed;
    /// the fabric is rolled back to its pre-load state.
    pub(crate) fn load_or_rollback(
        &mut self,
        bitstream: &Bitstream,
    ) -> Result<IcapReport, (Error, usize)> {
        self.icap
            .load_or_rollback(bitstream)
            .map_err(|(e, dirty)| (Error::Fpga(e), dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
    use presp_fpga::frame::FrameAddress;
    use presp_fpga::part::FpgaPart;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn small_bitstream(d: &Device) -> Bitstream {
        let mut b = BitstreamBuilder::new(d, BitstreamKind::Partial);
        let words = d.part().family().frame_words();
        b.add_frame(FrameAddress::new(0, 1, 0), vec![0xAB; words])
            .unwrap();
        b.build(true)
    }

    #[test]
    fn successful_load_writes_frames() {
        let d = device();
        let mut dfxc = Dfxc::new(&d);
        let report = dfxc.load_or_rollback(&small_bitstream(&d)).unwrap();
        assert!(report.frames_written > 0);
    }

    #[test]
    fn failed_load_rolls_back() {
        let d = device();
        let mut dfxc = Dfxc::new(&d);
        let bs = small_bitstream(&d);
        let mut words = bs.words().to_vec();
        let n = words.len();
        words[n - 10] ^= 1; // corrupt payload → CRC failure
        let corrupted = bs.with_words(words);
        let (_, dirty) = dfxc.load_or_rollback(&corrupted).unwrap_err();
        assert_eq!(dirty, 1, "the corrupted frame landed before the CRC check");
        assert_eq!(dfxc.config_memory().configured_frames(), 0, "rolled back");
        // A good load recovers the controller.
        dfxc.load_or_rollback(&small_bitstream(&d)).unwrap();
        assert_eq!(dfxc.config_memory().configured_frames(), 1);
    }

    #[test]
    fn config_memory_reflects_loads() {
        let d = device();
        let mut dfxc = Dfxc::new(&d);
        assert_eq!(dfxc.config_memory().configured_frames(), 0);
        dfxc.load_or_rollback(&small_bitstream(&d)).unwrap();
        assert_eq!(dfxc.config_memory().configured_frames(), 1);
    }
}
