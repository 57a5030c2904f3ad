//! The two-map configuration memory the slot store replaced, kept as the
//! reference model its differential test drives side by side with
//! [`ConfigMemory`](super::ConfigMemory): one `BTreeMap` of frame payloads,
//! one of check codes, and an undo log of owned displaced entries.

use super::{Frame, RegionSnapshot};
use crate::bitstream::{Bitstream, Command, CrcAccumulator, Step};
use crate::ecc::{scrub_frame_words, FrameEcc, FrameRepair};
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::FrameAddress;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// What one journaled write displaced: for each map, `None` when the write
/// left it as it was, else the entry it held before (`Some(None)`: absent).
#[derive(Debug, Clone)]
struct Undo {
    addr: FrameAddress,
    frame: Option<Option<Frame>>,
    ecc: Option<Option<FrameEcc>>,
}

/// Puts `new` at `addr` (removing the entry for `None`) and returns what
/// it displaced: `None` when the entry already held exactly `new`.
fn swap_entry<T: PartialEq>(
    map: &mut BTreeMap<FrameAddress, T>,
    addr: FrameAddress,
    new: Option<T>,
) -> Option<Option<T>> {
    match (map.entry(addr), new) {
        (Entry::Occupied(e), Some(v)) if *e.get() == v => None,
        (Entry::Occupied(mut e), Some(v)) => Some(Some(e.insert(v))),
        (Entry::Occupied(e), None) => Some(Some(e.remove())),
        (Entry::Vacant(e), Some(v)) => {
            e.insert(v);
            Some(None)
        }
        (Entry::Vacant(_), None) => None,
    }
}

/// The reference configuration memory.
#[derive(Debug, Clone)]
pub(super) struct TreeMemory {
    device: Device,
    frame_words: usize,
    frames: BTreeMap<FrameAddress, Frame>,
    ecc: BTreeMap<FrameAddress, FrameEcc>,
    journal: Option<Vec<Undo>>,
}

impl TreeMemory {
    pub(super) fn new(device: &Device) -> TreeMemory {
        TreeMemory {
            device: device.clone(),
            frame_words: device.part().family().frame_words(),
            frames: BTreeMap::new(),
            ecc: BTreeMap::new(),
            journal: None,
        }
    }

    pub(super) fn write_frame(&mut self, addr: FrameAddress, data: &[u32]) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if data.len() != self.frame_words {
            return Err(Error::BadFrameAddress {
                detail: "frame payload length".into(),
            });
        }
        if data.iter().all(|&w| w == 0) {
            self.put(addr, None, None);
        } else {
            self.put(addr, Some(data.to_vec()), Some(FrameEcc::encode(data)));
        }
        Ok(())
    }

    fn put(&mut self, addr: FrameAddress, frame: Option<Frame>, ecc: Option<FrameEcc>) {
        let frame = swap_entry(&mut self.frames, addr, frame);
        let ecc = swap_entry(&mut self.ecc, addr, ecc);
        if let Some(log) = &mut self.journal {
            if frame.is_some() || ecc.is_some() {
                log.push(Undo { addr, frame, ecc });
            }
        }
    }

    fn rollback_journal(&mut self) -> usize {
        let log = self.journal.take().unwrap_or_default();
        let touched: BTreeSet<FrameAddress> = log.iter().map(|u| u.addr).collect();
        let after: Vec<(FrameAddress, Frame)> =
            touched.into_iter().map(|a| (a, self.frame(a))).collect();
        for undo in log.into_iter().rev() {
            if let Some(frame) = undo.frame {
                swap_entry(&mut self.frames, undo.addr, frame);
            }
            if let Some(ecc) = undo.ecc {
                swap_entry(&mut self.ecc, undo.addr, ecc);
            }
        }
        after
            .into_iter()
            .filter(|(a, frame)| self.frame(*a) != *frame)
            .count()
    }

    /// The ICAP's transactional load as it ran over this store: the same
    /// packet walk, IDCODE and CRC checks, every frame written by copy
    /// and re-encoded, the journal unwound on error. Returns the frames
    /// written, or the error with the dirty count.
    pub(super) fn load_or_rollback(
        &mut self,
        bitstream: &Bitstream,
    ) -> Result<usize, (Error, usize)> {
        self.journal = Some(Vec::new());
        let idcode = self.device.part().idcode();
        let mut crc = CrcAccumulator::new();
        let mut written = 0usize;
        let walked = bitstream.walk(self.frame_words, |step| {
            match step {
                Step::Idcode(found) if found != idcode => {
                    return Err(Error::IdcodeMismatch {
                        found,
                        device: idcode,
                    })
                }
                Step::Command(Command::Rcrc) => crc = CrcAccumulator::new(),
                Step::Far { value, .. } => crc.update(value),
                Step::Frame(addr, data) | Step::Replay(addr, data) => {
                    if matches!(step, Step::Frame(..)) {
                        for &w in data {
                            crc.update(w);
                        }
                    }
                    self.write_frame(addr, data)?;
                    written += 1;
                }
                Step::Crc {
                    value: expected, ..
                } if crc.value() != expected => {
                    return Err(Error::CrcMismatch {
                        computed: crc.value(),
                        expected,
                    })
                }
                _ => {}
            }
            Ok(())
        });
        match walked {
            Ok(()) => {
                self.journal = None;
                Ok(written)
            }
            Err(e) => Err((e, self.rollback_journal())),
        }
    }

    pub(super) fn frame(&self, addr: FrameAddress) -> Frame {
        self.frames
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| vec![0; self.frame_words])
    }

    pub(super) fn frame_ecc(&self, addr: FrameAddress) -> FrameEcc {
        self.ecc
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| FrameEcc::erased(self.frame_words))
    }

    pub(super) fn is_configured(&self, addr: FrameAddress) -> bool {
        self.frames.contains_key(&addr)
    }

    pub(super) fn configured_frames(&self) -> usize {
        self.frames.len()
    }

    pub(super) fn configured_addresses(&self) -> Vec<FrameAddress> {
        self.frames.keys().copied().collect()
    }

    pub(super) fn corrupt_bit(
        &mut self,
        addr: FrameAddress,
        word: usize,
        bit: u32,
    ) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if word >= self.frame_words || bit >= 32 {
            return Err(Error::BadFrameAddress {
                detail: "upset target outside frame".into(),
            });
        }
        let frame = self
            .frames
            .entry(addr)
            .or_insert_with(|| vec![0; self.frame_words]);
        frame[word] ^= 1 << bit;
        Ok(())
    }

    pub(super) fn scrub_frame(&mut self, addr: FrameAddress) -> Result<FrameRepair, Error> {
        self.device.validate_frame(addr)?;
        let Some(frame) = self.frames.get_mut(&addr) else {
            return Ok(FrameRepair::Clean);
        };
        let repair = match self.ecc.get(&addr) {
            Some(ecc) => scrub_frame_words(frame, ecc),
            None => scrub_frame_words(frame, &FrameEcc::erased(self.frame_words)),
        };
        if matches!(repair, FrameRepair::Corrected { .. }) {
            let data = frame.clone();
            self.write_frame(addr, &data)?;
        }
        Ok(repair)
    }

    pub(super) fn snapshot(&self, addrs: &[FrameAddress]) -> Result<RegionSnapshot, Error> {
        let mut addresses = Vec::new();
        let mut frames = BTreeMap::new();
        for &addr in addrs {
            self.device.validate_frame(addr)?;
            addresses.push(addr);
            let erased = self
                .frames
                .get(&addr)
                .is_none_or(|f| f.iter().all(|&w| w == 0))
                && self.ecc.get(&addr).is_none_or(FrameEcc::is_erased);
            if !erased {
                frames.insert(addr, (self.frame(addr), self.frame_ecc(addr)));
            }
        }
        addresses.sort_unstable();
        addresses.dedup();
        Ok(RegionSnapshot {
            addresses,
            frames,
            frame_words: self.frame_words,
        })
    }

    pub(super) fn restore(&mut self, snap: &RegionSnapshot) -> Result<(), Error> {
        for addr in &snap.addresses {
            self.device.validate_frame(*addr)?;
            match snap.frames.get(addr) {
                Some((data, ecc)) if data.iter().any(|&w| w != 0) => {
                    self.put(*addr, Some(data.clone()), Some(ecc.clone()));
                }
                _ => self.put(*addr, None, None),
            }
        }
        Ok(())
    }

    pub(super) fn clear_frames(&mut self, addrs: &[FrameAddress]) -> Result<(), Error> {
        for addr in addrs {
            self.device.validate_frame(*addr)?;
            self.put(*addr, None, None);
        }
        Ok(())
    }
}
