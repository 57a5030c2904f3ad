//! The DFX controller (DFXC) hosted in the auxiliary tile.
//!
//! The paper instantiates Xilinx's DFX controller IP plus the ICAP
//! primitive inside the auxiliary tile (Section III): software programs the
//! controller through memory-mapped registers (AXI-Lite bridged to the APB
//! bus), the controller fetches the partial bitstream from memory through
//! an AXI master (bridged to NoC packets), streams it into the ICAP, and
//! raises an interrupt on completion. This module models the controller's
//! state machine and the ICAP; the NoC fetch is accounted by the
//! simulator.

use crate::error::Error;
use presp_fpga::bitstream::Bitstream;
use presp_fpga::fabric::Device;
use presp_fpga::icap::{Icap, IcapReport};

/// DFXC status values (the subset of the IP's VSM states the software
/// stack cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfxcStatus {
    /// Ready for a trigger.
    Idle,
    /// A reconfiguration is in flight.
    Loading,
    /// Last reconfiguration completed successfully.
    Done,
    /// Last reconfiguration failed (CRC/IDCODE/format error).
    Error,
}

/// The DFX controller + ICAP pair.
#[derive(Debug, Clone)]
pub struct Dfxc {
    icap: Icap,
    status: DfxcStatus,
    completed: u64,
    failed: u64,
    busy_micros: f64,
}

impl Dfxc {
    /// Creates a controller for `device`.
    pub fn new(device: &Device) -> Dfxc {
        Dfxc {
            icap: Icap::new(device),
            status: DfxcStatus::Idle,
            completed: 0,
            failed: 0,
            busy_micros: 0.0,
        }
    }

    /// Current status register value.
    pub fn status(&self) -> DfxcStatus {
        self.status
    }

    /// Reconfigurations completed successfully.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Reconfigurations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Total ICAP streaming time of successful loads, microseconds —
    /// the controller's share of the shared-ICAP occupancy the simulator
    /// arbitrates.
    pub fn busy_micros(&self) -> f64 {
        self.busy_micros
    }

    /// The configuration memory behind the ICAP.
    pub fn config_memory(&self) -> &presp_fpga::config_memory::ConfigMemory {
        self.icap.memory()
    }

    /// Mutable access to the configuration memory, for SEU injection,
    /// readback scrubbing and transactional rollback. Every mutation still
    /// goes through [`ConfigMemory`](presp_fpga::config_memory::ConfigMemory)'s
    /// own doorway methods.
    pub fn config_memory_mut(&mut self) -> &mut presp_fpga::config_memory::ConfigMemory {
        self.icap.memory_mut()
    }

    /// Frame addresses written by the most recent load (write order).
    pub fn last_written(&self) -> &[presp_fpga::frame::FrameAddress] {
        self.icap.last_written()
    }

    /// Streams a (fetched) bitstream through the ICAP as one transaction
    /// ([`Icap::load_or_rollback`]).
    ///
    /// # Errors
    ///
    /// Propagates ICAP errors (CRC mismatch, wrong IDCODE, malformed
    /// stream) with the number of frames the failed stream had changed;
    /// the status register latches [`DfxcStatus::Error`] and the fabric is
    /// rolled back to its pre-load state.
    pub fn load_or_rollback(
        &mut self,
        bitstream: &Bitstream,
    ) -> Result<IcapReport, (Error, usize)> {
        self.status = DfxcStatus::Loading;
        match self.icap.load_or_rollback(bitstream) {
            Ok(report) => {
                self.status = DfxcStatus::Done;
                self.completed += 1;
                self.busy_micros += report.micros;
                Ok(report)
            }
            Err((e, dirty)) => {
                self.status = DfxcStatus::Error;
                self.failed += 1;
                Err((Error::Fpga(e), dirty))
            }
        }
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
    fn successful_load_reaches_done() {
        let d = device();
        let mut dfxc = Dfxc::new(&d);
        assert_eq!(dfxc.status(), DfxcStatus::Idle);
        let report = dfxc.load_or_rollback(&small_bitstream(&d)).unwrap();
        assert_eq!(dfxc.status(), DfxcStatus::Done);
        assert_eq!(dfxc.completed(), 1);
        assert!(report.frames_written > 0);
    }

    #[test]
    fn failed_load_latches_error() {
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
        assert_eq!(dfxc.status(), DfxcStatus::Error);
        assert_eq!(dfxc.failed(), 1);
        // A good load recovers the controller.
        dfxc.load_or_rollback(&small_bitstream(&d)).unwrap();
        assert_eq!(dfxc.status(), DfxcStatus::Done);
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
