//! The bitstream registry.
//!
//! Before an application starts, its partial bitstreams (mmapped in
//! user-space, copied into kernel memory on the real system) are registered
//! here, keyed by the tile they will be loaded into and the accelerator
//! they implement. One accelerator may be registered on several tiles — its
//! pbs differs per reconfigurable partition, which is why the key is the
//! pair.
//!
//! Two integrity rules guard the store:
//!
//! * registering the same `(tile, accelerator)` pair twice is an error —
//!   a silent overwrite would let a stale or malicious stream shadow the
//!   deployed one ([`BitstreamRegistry::replace`] is the explicit path);
//! * every [`BitstreamRegistry::lookup`] re-verifies the bitstream's
//!   build-time integrity checksum, so a stream corrupted after
//!   registration is caught *before* it is ever handed to the DFXC.
//!
//! Streams are stored behind an [`Arc`]: a verified lookup hands out a
//! reference count, not a copy of the stream.

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

    /// Registers the bitstream loading `kind` into `tile`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyRegistered`] when the pair already holds a
    /// bitstream; replacement must be explicit via
    /// [`BitstreamRegistry::replace`].
    pub fn register(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        bitstream: Bitstream,
    ) -> Result<(), Error> {
        if self.entries.contains_key(&(tile, kind)) {
            return Err(Error::AlreadyRegistered { tile, kind });
        }
        self.entries.insert((tile, kind), Arc::new(bitstream));
        Ok(())
    }

    /// Explicitly replaces the bitstream for `(tile, kind)`, returning the
    /// previous one (if any).
    pub fn replace(
        &mut self,
        tile: TileCoord,
        kind: AcceleratorKind,
        bitstream: Bitstream,
    ) -> Option<Arc<Bitstream>> {
        self.entries.insert((tile, kind), Arc::new(bitstream))
    }

    /// Looks up the bitstream for `(tile, kind)`, re-verifying its
    /// build-time integrity checksum.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BitstreamNotRegistered`] for unknown pairs and
    /// [`Error::CorruptBitstream`] when the stored stream no longer
    /// matches the checksum computed when it was built.
    pub fn lookup(&self, tile: TileCoord, kind: AcceleratorKind) -> Result<Arc<Bitstream>, Error> {
        let bitstream = self
            .entries
            .get(&(tile, kind))
            .ok_or(Error::BitstreamNotRegistered { tile, kind })?;
        if !bitstream.verify_integrity() {
            return Err(Error::CorruptBitstream { tile, kind });
        }
        Ok(Arc::clone(bitstream))
    }

    /// Accelerators registered for a tile.
    pub fn kinds_for_tile(&self, tile: TileCoord) -> Vec<AcceleratorKind> {
        self.entries
            .keys()
            .filter(|(t, _)| *t == tile)
            .map(|(_, k)| *k)
            .collect()
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
        // The original stream is untouched …
        let kept = reg.lookup(tile, AcceleratorKind::Sort).unwrap().clone();
        // … and explicit replacement still works.
        let old = reg.replace(tile, AcceleratorKind::Sort, bitstream(2));
        assert_eq!(old.as_ref(), Some(&kept));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn lookup_detects_storage_corruption() {
        // Regression: lookup never re-validated the stream, so a bitstream
        // corrupted after registration reached the ICAP unchecked.
        let mut reg = BitstreamRegistry::new();
        let tile = TileCoord::new(1, 1);
        let good = bitstream(7);
        let mut words = good.words().to_vec();
        let idx = words.len() / 2;
        words[idx] ^= 0x40;
        let corrupted = good.with_words(words);
        reg.register(tile, AcceleratorKind::Fft, corrupted).unwrap();
        assert!(matches!(
            reg.lookup(tile, AcceleratorKind::Fft),
            Err(Error::CorruptBitstream { .. })
        ));
        // A pristine stream on the same tile still verifies.
        reg.replace(tile, AcceleratorKind::Fft, good);
        assert!(reg.lookup(tile, AcceleratorKind::Fft).is_ok());
    }

    #[test]
    fn kinds_for_tile_lists_registrations() {
        let mut reg = BitstreamRegistry::new();
        let tile = TileCoord::new(2, 2);
        reg.register(tile, AcceleratorKind::Mac, bitstream(1))
            .unwrap();
        reg.register(tile, AcceleratorKind::Gemm, bitstream(2))
            .unwrap();
        let kinds = reg.kinds_for_tile(tile);
        assert_eq!(kinds.len(), 2);
        assert!(kinds.contains(&AcceleratorKind::Gemm));
        assert!(reg.kinds_for_tile(TileCoord::new(0, 0)).is_empty());
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
