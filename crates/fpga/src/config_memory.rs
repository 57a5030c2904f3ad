//! Device configuration memory: the frame-addressable state the ICAP writes.
//!
//! This module is the **ECC doorway**: every legitimate frame mutation goes
//! through [`ConfigMemory::write_frame`] (or [`ConfigMemory::restore`]),
//! which keeps the per-frame SECDED shadow in [`crate::ecc`] consistent
//! with the payload. The only path that bypasses the shadow on purpose is
//! [`ConfigMemory::corrupt_bit`] — the SEU backdoor, which models an
//! in-fabric upset precisely because it does *not* touch the check codes.
//! `presp-analyze` forbids direct `frames` map manipulation anywhere else in
//! the crate.

use crate::ecc::{scrub_frame_words, FrameEcc, FrameRepair};
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::FrameAddress;
use std::collections::BTreeMap;

/// One configuration frame's payload.
pub type Frame = Vec<u32>;

/// A bit-exact copy of a set of frames and their check codes, used both as
/// the per-tile golden store and as the pre-transaction image a failed
/// reconfiguration rolls back to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    frames: BTreeMap<FrameAddress, (Frame, FrameEcc)>,
    frame_words: usize,
}

impl RegionSnapshot {
    /// Addresses captured by this snapshot.
    pub fn addresses(&self) -> Vec<FrameAddress> {
        self.frames.keys().copied().collect()
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no frames are captured.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Returns a copy of this snapshot re-addressed `col_delta` columns
    /// away, payload and check codes bit-exact.
    ///
    /// This is the configuration-memory half of region relocation: restore
    /// the shifted snapshot and the ECC shadow at the destination is in the
    /// exact state it held at the source — an upset captured mid-move stays
    /// detectable instead of being silently re-encoded as truth.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] when a shifted address leaves the
    /// fabric or lands on a column of a different kind.
    pub fn shift_columns(&self, device: &Device, col_delta: i64) -> Result<RegionSnapshot, Error> {
        let mut frames = BTreeMap::new();
        for (addr, entry) in &self.frames {
            let col = addr.column as i64 + col_delta;
            if col < 0 || col as usize >= device.columns() {
                return Err(Error::BadFrameAddress {
                    detail: format!(
                        "shifted column {col} outside the fabric's {} columns",
                        device.columns()
                    ),
                });
            }
            let src_kind = device.column_kind(addr.column as usize);
            let dst_kind = device.column_kind(col as usize);
            if src_kind != dst_kind {
                return Err(Error::BadFrameAddress {
                    detail: format!(
                        "shift maps {src_kind:?} column {} onto {dst_kind:?} column {col}: \
                         frame geometry differs",
                        addr.column
                    ),
                });
            }
            let new = FrameAddress::new(addr.row, col as u32, addr.minor);
            device.validate_frame(new)?;
            frames.insert(new, entry.clone());
        }
        Ok(RegionSnapshot {
            frames,
            frame_words: self.frame_words,
        })
    }
}

/// The frame-addressable configuration memory of a device.
///
/// Frames that were never written read back as all-zero (the post-PROG state
/// of the real device). An erased frame implicitly carries an all-zero check
/// code, which is exactly `FrameEcc::encode(&zeros)` — the sparse map and the
/// ECC shadow agree by construction.
///
/// # Example
///
/// ```
/// use presp_fpga::config_memory::ConfigMemory;
/// use presp_fpga::frame::FrameAddress;
/// use presp_fpga::part::FpgaPart;
///
/// let device = FpgaPart::Vc707.device();
/// let mut mem = ConfigMemory::new(&device);
/// let addr = FrameAddress::new(0, 1, 0);
/// mem.write_frame(addr, vec![0xDEAD_BEEF; mem.frame_words()])?;
/// assert_eq!(mem.frame(addr)[0], 0xDEAD_BEEF);
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    device: Device,
    frame_words: usize,
    frames: BTreeMap<FrameAddress, Frame>,
    ecc: BTreeMap<FrameAddress, FrameEcc>,
}

impl ConfigMemory {
    /// Creates an all-zero configuration memory for `device`.
    pub fn new(device: &Device) -> ConfigMemory {
        ConfigMemory {
            device: device.clone(),
            frame_words: device.part().family().frame_words(),
            frames: BTreeMap::new(),
            ecc: BTreeMap::new(),
        }
    }

    /// Words per frame on this device.
    pub fn frame_words(&self) -> usize {
        self.frame_words
    }

    /// The device this memory belongs to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Writes one frame, refreshing its SECDED check codes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] if the address does not exist on the
    /// device or the payload length differs from the frame size.
    pub fn write_frame(&mut self, addr: FrameAddress, data: Frame) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if data.len() != self.frame_words {
            return Err(Error::BadFrameAddress {
                detail: format!(
                    "frame payload {} words, expected {}",
                    data.len(),
                    self.frame_words
                ),
            });
        }
        if data.iter().all(|&w| w == 0) {
            // All-zero equals the erased state; keep the map sparse. The
            // implicit check code of an erased frame is all-zero too.
            self.frames.remove(&addr);
            self.ecc.remove(&addr);
        } else {
            self.ecc.insert(addr, FrameEcc::encode(&data));
            self.frames.insert(addr, data);
        }
        Ok(())
    }

    /// Reads back one frame (all-zero if never written).
    pub fn frame(&self, addr: FrameAddress) -> Frame {
        self.frames
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| vec![0; self.frame_words])
    }

    /// The SECDED check codes currently shadowing `addr` (the implicit
    /// all-zero code for erased frames).
    pub fn frame_ecc(&self, addr: FrameAddress) -> FrameEcc {
        self.ecc
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| FrameEcc::erased(self.frame_words))
    }

    /// Returns `true` if the frame was written with non-zero content.
    pub fn is_configured(&self, addr: FrameAddress) -> bool {
        self.frames.contains_key(&addr)
    }

    /// Number of frames holding non-zero content.
    pub fn configured_frames(&self) -> usize {
        self.frames.len()
    }

    /// Addresses of every configured (non-erased) frame, in address order.
    pub fn configured_addresses(&self) -> Vec<FrameAddress> {
        self.frames.keys().copied().collect()
    }

    /// Flips one payload bit **without** updating the check codes: the SEU
    /// backdoor. The resulting frame/ECC disagreement is what readback
    /// scrubbing detects and repairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] for an invalid address or a
    /// word/bit index outside the frame.
    pub fn corrupt_bit(&mut self, addr: FrameAddress, word: usize, bit: u32) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if word >= self.frame_words || bit >= 32 {
            return Err(Error::BadFrameAddress {
                detail: format!("upset target word {word} bit {bit} outside frame"),
            });
        }
        let frame = self
            .frames
            .entry(addr)
            .or_insert_with(|| vec![0; self.frame_words]);
        frame[word] ^= 1 << bit;
        // Deliberately no ECC refresh: the shadow now disagrees with the
        // payload, exactly as a real upset leaves the fabric. An upset in a
        // previously-erased frame is covered by the implicit all-zero code.
        Ok(())
    }

    /// Reads back `addr` and repairs what SECDED can, in place.
    ///
    /// On a correctable upset the payload is restored and (for check-code
    /// upsets) the shadow re-encoded; an uncorrectable frame is left
    /// untouched so a golden restore can still be attempted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] for an invalid address.
    pub fn scrub_frame(&mut self, addr: FrameAddress) -> Result<FrameRepair, Error> {
        self.device.validate_frame(addr)?;
        let Some(frame) = self.frames.get_mut(&addr) else {
            // Erased frames are implicitly clean (zero payload, zero code).
            return Ok(FrameRepair::Clean);
        };
        let ecc = self
            .ecc
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| FrameEcc::erased(self.frame_words));
        let repair = scrub_frame_words(frame, &ecc);
        if matches!(repair, FrameRepair::Corrected { .. }) {
            // Re-latch both sides of the doorway: a repaired frame gets a
            // fresh code, and a frame repaired back to all-zero returns to
            // the sparse erased state.
            let data = frame.clone();
            self.write_frame(addr, data)?;
        }
        Ok(repair)
    }

    /// Captures a bit-exact snapshot (payload + check codes) of `addrs`.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address.
    pub fn snapshot<'a, I: IntoIterator<Item = &'a FrameAddress>>(
        &self,
        addrs: I,
    ) -> Result<RegionSnapshot, Error> {
        let mut frames = BTreeMap::new();
        for addr in addrs {
            self.device.validate_frame(*addr)?;
            frames.insert(*addr, (self.frame(*addr), self.frame_ecc(*addr)));
        }
        Ok(RegionSnapshot {
            frames,
            frame_words: self.frame_words,
        })
    }

    /// Restores every frame in `snap` bit-for-bit, check codes included.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address (only possible when the
    /// snapshot came from a different device geometry).
    pub fn restore(&mut self, snap: &RegionSnapshot) -> Result<(), Error> {
        for (addr, (data, ecc)) in &snap.frames {
            self.device.validate_frame(*addr)?;
            if data.iter().all(|&w| w == 0) {
                self.frames.remove(addr);
                self.ecc.remove(addr);
            } else {
                self.frames.insert(*addr, data.clone());
                self.ecc.insert(*addr, ecc.clone());
            }
        }
        Ok(())
    }

    /// Clears every frame in `addrs` back to the erased state.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address.
    pub fn clear_frames<'a, I: IntoIterator<Item = &'a FrameAddress>>(
        &mut self,
        addrs: I,
    ) -> Result<(), Error> {
        for addr in addrs {
            self.device.validate_frame(*addr)?;
            self.frames.remove(addr);
            self.ecc.remove(addr);
        }
        Ok(())
    }

    /// Addresses whose content differs between `self` and `other`.
    pub fn diff(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        let mut addrs: Vec<FrameAddress> = self
            .frames
            .keys()
            .chain(other.frames.keys())
            .copied()
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
            .into_iter()
            .filter(|a| self.frame(*a) != other.frame(*a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::FpgaPart;

    fn mem() -> ConfigMemory {
        ConfigMemory::new(&FpgaPart::Vc707.device())
    }

    #[test]
    fn unwritten_frames_read_zero() {
        let m = mem();
        let addr = FrameAddress::new(2, 3, 1);
        assert!(m.frame(addr).iter().all(|&w| w == 0));
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 2, 3);
        let data: Frame = (0..m.frame_words() as u32).collect();
        m.write_frame(addr, data.clone()).unwrap();
        assert_eq!(m.frame(addr), data);
        assert_eq!(m.configured_frames(), 1);
    }

    #[test]
    fn zero_write_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 2, 3);
        m.write_frame(addr, vec![7; m.frame_words()]).unwrap();
        m.write_frame(addr, vec![0; m.frame_words()]).unwrap();
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        assert!(m.write_frame(addr, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn invalid_address_is_rejected() {
        let mut m = mem();
        let words = m.frame_words();
        assert!(m
            .write_frame(FrameAddress::new(999, 0, 0), vec![1; words])
            .is_err());
    }

    #[test]
    fn diff_reports_changed_frames() {
        let mut a = mem();
        let mut b = mem();
        let f1 = FrameAddress::new(0, 1, 0);
        let f2 = FrameAddress::new(0, 1, 1);
        let words = a.frame_words();
        a.write_frame(f1, vec![1; words]).unwrap();
        b.write_frame(f1, vec![1; words]).unwrap();
        b.write_frame(f2, vec![2; words]).unwrap();
        assert_eq!(a.diff(&b), vec![f2]);
        assert_eq!(a.diff(&a), Vec::new());
    }

    #[test]
    fn clear_frames_restores_erased_state() {
        let mut m = mem();
        let addr = FrameAddress::new(3, 4, 2);
        m.write_frame(addr, vec![9; m.frame_words()]).unwrap();
        m.clear_frames(std::iter::once(&addr)).unwrap();
        assert_eq!(m.configured_frames(), 0);
    }

    #[test]
    fn corrupt_then_scrub_repairs_single_bit() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        let data: Frame = (1..=m.frame_words() as u32).collect();
        m.write_frame(addr, data.clone()).unwrap();
        m.corrupt_bit(addr, 4, 13).unwrap();
        assert_ne!(m.frame(addr), data);
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Corrected { words: vec![4] }
        );
        assert_eq!(m.frame(addr), data);
        assert_eq!(m.scrub_frame(addr).unwrap(), FrameRepair::Clean);
    }

    #[test]
    fn double_bit_upset_is_uncorrectable_and_untouched() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        m.write_frame(addr, vec![0xCAFE_F00D; m.frame_words()])
            .unwrap();
        m.corrupt_bit(addr, 2, 5).unwrap();
        m.corrupt_bit(addr, 2, 30).unwrap();
        let corrupted = m.frame(addr);
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Uncorrectable { word: 2 }
        );
        assert_eq!(m.frame(addr), corrupted, "uncorrectable frame left as-is");
    }

    #[test]
    fn upset_in_erased_frame_scrubs_back_to_erased() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 1, 1);
        m.corrupt_bit(addr, 0, 0).unwrap();
        assert!(m.is_configured(addr), "upset materializes the frame");
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Corrected { words: vec![0] }
        );
        assert!(
            !m.is_configured(addr),
            "repair returns to sparse erased state"
        );
    }

    #[test]
    fn snapshot_restore_is_bit_exact() {
        let mut m = mem();
        let a1 = FrameAddress::new(0, 1, 0);
        let a2 = FrameAddress::new(0, 1, 1);
        let words = m.frame_words();
        m.write_frame(a1, vec![3; words]).unwrap();
        m.write_frame(a2, vec![4; words]).unwrap();
        let snap = m.snapshot([a1, a2].iter()).unwrap();
        assert_eq!(snap.len(), 2);
        m.corrupt_bit(a1, 0, 7).unwrap();
        m.write_frame(a2, vec![9; words]).unwrap();
        m.restore(&snap).unwrap();
        assert_eq!(m.frame(a1), vec![3; words]);
        assert_eq!(m.frame(a2), vec![4; words]);
        assert_eq!(m.scrub_frame(a1).unwrap(), FrameRepair::Clean);
        assert_eq!(m.scrub_frame(a2).unwrap(), FrameRepair::Clean);
    }

    #[test]
    fn restoring_an_erased_snapshot_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(2, 2, 0);
        let snap = m.snapshot(std::iter::once(&addr)).unwrap();
        m.write_frame(addr, vec![5; m.frame_words()]).unwrap();
        m.restore(&snap).unwrap();
        assert!(!m.is_configured(addr));
    }
}
