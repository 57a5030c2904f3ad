//! The bitstream registry.
//!
//! Before an application starts, its partial bitstreams (mmapped in
//! user-space, copied into kernel memory on the real system) are registered
//! here, keyed by the tile they will be loaded into and the accelerator
//! they implement. One accelerator may be registered on several tiles — its
//! pbs differs per reconfigurable partition, which is why the key is the
//! pair.
//!
//! Two integrity rules guard the store, both at registration:
//!
//! * registering the same `(tile, accelerator)` pair twice is an error —
//!   a silent overwrite would let a stale or malicious stream shadow the
//!   deployed one;
//! * [`BitstreamRegistry::register`] verifies the bitstream's build-time
//!   integrity checksum and refuses a corrupt stream, so no corrupt
//!   stream is ever stored, let alone handed to the DFXC.
//!
//! The registry cannot change after a runtime boots over it, so a stream
//! is verified once, when it crosses into the store. Streams are stored
//! behind an [`Arc`]: a lookup is a map read that hands out a reference
//! count, not a copy of the stream. A load still guards itself with the
//! ICAP's in-stream CRC and its transactional rollback.

use crate::error::Error;
use crate::sync::Arc;
use presp_accel::catalog::AcceleratorKind;
use presp_fpga::bitstream::Bitstream;
use presp_soc::config::TileCoord;
use std::collections::BTreeMap;

/// The registry: `(tile, accelerator) → partial bitstream`.
#[derive(Debug, Clone, Default)]
pub struct BitstreamRegistry {
    entries: BTreeMap<(TileCoord, AcceleratorKind), Arc<Bitstream>>,
}

impl BitstreamRegistry {
    /// An empty registry.
    pub fn new() -> BitstreamRegistry {
        BitstreamRegistry::default()
    }

    /// Registers the bitstream loading `kind` into `tile`, after
    /// verifying its build-time integrity checksum. A refused stream
    /// leaves the registry unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyRegistered`] when the pair already holds a
    /// bitstream and [`Error::CorruptBitstream`] when the stream no
    /// longer matches the checksum computed when it was built.
    pub fn register(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        bitstream: Bitstream,
    ) -> Result<(), Error> {
        if self.entries.contains_key(&(tile, kind)) {
            return Err(Error::AlreadyRegistered { tile, kind });
        }
        if !bitstream.verify_integrity() {
            return Err(Error::CorruptBitstream { tile, kind });
        }
        self.entries.insert((tile, kind), Arc::new(bitstream));
        Ok(())
    }

    /// The bitstream registered for `(tile, kind)`: a shared reference to
    /// a stream verified when it was registered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BitstreamNotRegistered`] for unknown pairs.
    pub fn lookup(&self, tile: TileCoord, kind: AcceleratorKind) -> Result<Arc<Bitstream>, Error> {
        self.entries
            .get(&(tile, kind))
            .map(Arc::clone)
            .ok_or(Error::BitstreamNotRegistered { tile, kind })
    }

    /// Number of registered bitstreams.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of registered bitstreams (the DRAM the loader pins).
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(|b| b.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
    use presp_fpga::frame::FrameAddress;
    use presp_fpga::part::FpgaPart;

    fn bitstream(value: u32) -> Bitstream {
        let device = FpgaPart::Vc707.device();
        let mut b = BitstreamBuilder::new(&device, BitstreamKind::Partial);
        let words = device.part().family().frame_words();
        b.add_frame(FrameAddress::new(0, 1, 0), vec![value; words])
            .unwrap();
        b.build(true)
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = BitstreamRegistry::new();
        let tile = TileCoord::new(1, 0);
        assert!(matches!(
            reg.lookup(tile, AcceleratorKind::Mac),
            Err(Error::BitstreamNotRegistered { .. })
        ));
        reg.register(tile, AcceleratorKind::Mac, bitstream(1))
            .unwrap();
        assert!(reg.lookup(tile, AcceleratorKind::Mac).is_ok());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn same_kind_different_tiles_are_distinct() {
        let mut reg = BitstreamRegistry::new();
        reg.register(TileCoord::new(1, 0), AcceleratorKind::Mac, bitstream(1))
            .unwrap();
        reg.register(TileCoord::new(1, 1), AcceleratorKind::Mac, bitstream(2))
            .unwrap();
        assert_eq!(reg.len(), 2);
        assert_ne!(
            reg.lookup(TileCoord::new(1, 0), AcceleratorKind::Mac)
                .unwrap(),
            reg.lookup(TileCoord::new(1, 1), AcceleratorKind::Mac)
                .unwrap()
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        // Regression: `register` used to silently overwrite the existing
        // entry, letting a stale stream shadow the deployed one.
        let mut reg = BitstreamRegistry::new();
        let tile = TileCoord::new(0, 0);
        reg.register(tile, AcceleratorKind::Sort, bitstream(1))
            .unwrap();
        let err = reg.register(tile, AcceleratorKind::Sort, bitstream(2));
        assert!(matches!(err, Err(Error::AlreadyRegistered { .. })));
        assert_eq!(reg.len(), 1);
        // A second refused registration leaves the original stream in
        // place.
        let kept = reg.lookup(tile, AcceleratorKind::Sort).unwrap();
        let err = reg.register(tile, AcceleratorKind::Sort, bitstream(3));
        assert!(matches!(err, Err(Error::AlreadyRegistered { .. })));
        assert_eq!(reg.lookup(tile, AcceleratorKind::Sort).unwrap(), kept);
        assert_eq!(*kept, bitstream(1));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn register_refuses_a_corrupt_stream() {
        // The registry is the one integrity check before the ICAP, so a
        // corrupt stream must never enter it.
        use crate::manager::ReconfigManager;
        use presp_soc::config::SocConfig;
        use presp_soc::sim::{csr, Soc};
        let cfg = SocConfig::grid_3x3_reconf("corrupt", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let good = Bitstream::synthetic_partial(&soc.part().device(), 2..3, 4).unwrap();
        let mut words = good.words().to_vec();
        let idx = words.len() / 2;
        words[idx] ^= 0x40;
        let corrupted = good.with_words(words);
        let mut reg = BitstreamRegistry::new();
        reg.register(tile, AcceleratorKind::Sort, good.clone())
            .unwrap();
        let (len, bytes) = (reg.len(), reg.total_bytes());
        assert!(matches!(
            reg.register(tile, AcceleratorKind::Fft, corrupted.clone()),
            Err(Error::CorruptBitstream { .. })
        ));
        assert_eq!((reg.len(), reg.total_bytes()), (len, bytes));
        // A later request finds nothing to load and never touches the
        // tile.
        let mut mgr = ReconfigManager::new(soc, reg);
        assert!(matches!(
            mgr.request_reconfiguration(tile, AcceleratorKind::Fft),
            Err(Error::BitstreamNotRegistered { .. })
        ));
        assert_eq!(mgr.soc().csr_read(tile, csr::DECOUPLE).unwrap(), 0);
        assert!(mgr.driver_events(tile).is_empty());
        // The ICAP's in-stream CRC still refuses the stream on its own.
        let mut soc = mgr.into_soc();
        let t = soc.csr_write_at(tile, csr::DECOUPLE, 1, 0).unwrap();
        let raw = soc.reconfigure_at(tile, AcceleratorKind::Fft, &Arc::new(corrupted), t);
        assert!(matches!(
            raw,
            Err(presp_soc::Error::Fpga(
                presp_fpga::Error::CrcMismatch { .. }
                    | presp_fpga::Error::MalformedBitstream { .. }
            ))
        ));
    }

    #[test]
    fn total_bytes_sums_sizes() {
        let mut reg = BitstreamRegistry::new();
        assert_eq!(reg.total_bytes(), 0);
        assert!(reg.is_empty());
        reg.register(TileCoord::new(0, 0), AcceleratorKind::Fft, bitstream(3))
            .unwrap();
        assert!(reg.total_bytes() > 0);
    }
}
