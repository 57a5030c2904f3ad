//! Device configuration memory: the frame-addressable state the ICAP writes.
//!
//! This module is the **ECC doorway**: every legitimate frame mutation goes
//! through [`ConfigMemory::write_frame`] (or [`ConfigMemory::restore`]),
//! which keeps the per-frame SECDED shadow in [`crate::ecc`] consistent
//! with the payload. The only path that bypasses the shadow on purpose is
//! [`ConfigMemory::corrupt_bit`] — the SEU backdoor, which models an
//! in-fabric upset precisely because it does *not* touch the check codes.
//! `presp-analyze` forbids touching the slot store's slabs, per-slot flags,
//! free list and slot mutators anywhere else in the crate.
//!
//! The store is sparse and indexed by address: a frame that is not erased
//! owns a slot in one contiguous slab of words and a parallel slab of
//! check bytes, and one page of slot ids per (row, column), created on the
//! column's first non-erased write, maps an address to its slot in O(1).
//! An erased frame costs an index test, a written one a copy of its words
//! and of check codes encoded once per stream: the ICAP copies them from
//! the stream's own table ([`Bitstream`] caches one on its first good
//! load). Only the index is paged per column: frame data stays sparse,
//! since a region's columns hold mostly erased frames.
//!
//! ECC work is also done once per upset. Each slot carries one flag, "these
//! check codes were encoded from these words": a write or a scrub that
//! finds or makes the frame consistent sets it, and an upset, a snapshot
//! restore or a rollback (whose codes may carry an upset) clears it. A
//! scrub decodes only a frame whose flag is clear; every other frame is
//! clean at the cost of an index test.
//!
//! The doorway also keeps the **undo log** behind transactional
//! reconfiguration ([`crate::icap::Icap::load_or_rollback`]): while a load
//! is open, every write that changes a frame's payload, check codes or
//! presence appends what it displaced to one contiguous undo buffer, so a
//! failed load unwinds exactly the frames it touched and a successful one
//! costs nothing beyond its own writes.

use crate::bitstream::Bitstream;
use crate::ecc::{encode_into, encode_word, scrub_words, FrameEcc, FrameRepair};
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::{frames_per_column, FrameAddress};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One configuration frame's payload.
pub type Frame = Vec<u32>;

/// A bit-exact copy of a set of frames and their check codes: the source
/// image of a region move, the frames a [`GoldenImage`]'s stream did not
/// write, and what a golden image materialises to.
///
/// The snapshot is sparse: it keeps the sorted list of every captured
/// address, but payload and check codes only for frames that are not
/// erased (an erased frame is all-zero payload under an all-zero code).
/// That form is canonical — one fabric state has exactly one snapshot — so
/// equality, [`ConfigMemory::restore`] and [`RegionSnapshot::shift_columns`]
/// mean what they would over a dense copy of every frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    addresses: Vec<FrameAddress>,
    frames: BTreeMap<FrameAddress, (Frame, FrameEcc)>,
    frame_words: usize,
}

impl RegionSnapshot {
    /// Addresses captured by this snapshot, in address order.
    pub fn addresses(&self) -> &[FrameAddress] {
        &self.addresses
    }

    /// Number of captured frames, erased ones included.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// `true` when no frames are captured.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
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
        let shift = |a: FrameAddress| device.shift_frame(a, col_delta);
        // A uniform column shift keeps (row, column, minor) order.
        let addresses = self
            .addresses
            .iter()
            .map(|&a| shift(a))
            .collect::<Result<_, _>>()?;
        let frames = self
            .frames
            .iter()
            .map(|(&a, entry)| Ok((shift(a)?, entry.clone())))
            .collect::<Result<_, Error>>()?;
        Ok(RegionSnapshot {
            addresses,
            frames,
            frame_words: self.frame_words,
        })
    }

    /// A snapshot of no frames.
    fn empty(frame_words: usize) -> RegionSnapshot {
        RegionSnapshot {
            addresses: Vec::new(),
            frames: BTreeMap::new(),
            frame_words,
        }
    }
}

/// The addresses of sorted `a` that sorted `b` lacks, in order.
fn sorted_difference(a: &[FrameAddress], b: &[FrameAddress]) -> Vec<FrameAddress> {
    let mut rest = b;
    a.iter()
        .copied()
        .filter(|x| {
            let skip = rest.partition_point(|y| y < x);
            rest = &rest[skip..];
            rest.first() != Some(x)
        })
        .collect()
}

/// A region's golden (known-good, post-load) image, held by reference to
/// the stream that configured it.
///
/// Regions are disjoint per tile, so what a load leaves in its region is
/// the stream it wrote plus the region frames that stream did not write,
/// exactly as they were at load time (upsets included). The image keeps
/// those three facts and nothing else: the `Arc<Bitstream>` actually
/// streamed, the sorted region address set (the stream's own cached
/// [`Bitstream::frame_set`] whenever the stream covers the region, so a
/// covering load copies, looks up and sorts nothing), and a sparse copy of
/// only the uncovered frames. Frames are materialised on demand, by
/// [`GoldenImage::snapshot`] and [`ConfigMemory::restore_golden`].
#[derive(Debug, Clone)]
pub struct GoldenImage {
    stream: Arc<Bitstream>,
    region: Arc<[FrameAddress]>,
    uncovered: RegionSnapshot,
}

impl GoldenImage {
    /// The region's addresses, in address order.
    pub fn addresses(&self) -> &Arc<[FrameAddress]> {
        &self.region
    }

    /// Number of region frames, erased ones included.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// `true` when the region holds no frames.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// The stream whose load this image records.
    pub fn stream(&self) -> &Arc<Bitstream> {
        &self.stream
    }

    /// Materialises the image as a bit-exact snapshot of the region: the
    /// frames the stream wrote carry the check codes the load computed
    /// (the last write of a frame wins, an all-zero frame is erased), and
    /// every other region frame is the copy taken at load time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedBitstream`] only if the stream cannot be
    /// walked, which a stream that loaded never is.
    pub fn snapshot(&self) -> Result<RegionSnapshot, Error> {
        let mut written = BTreeMap::new();
        self.stream.for_each_frame_write(|addr, data| {
            written.insert(addr, data);
            Ok(())
        })?;
        let mut frames = self.uncovered.frames.clone();
        for (addr, data) in written {
            if data.iter().any(|&w| w != 0) {
                frames.insert(addr, (data.to_vec(), FrameEcc::encode(data)));
            }
        }
        Ok(RegionSnapshot {
            addresses: self.region.to_vec(),
            frames,
            frame_words: self.uncovered.frame_words,
        })
    }

    /// Returns this image re-addressed `col_delta` columns away: the
    /// stream is relocated and the region and uncovered frames shift
    /// with it, payload and check codes bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] when a shifted address leaves
    /// the fabric or lands on a column of a different kind.
    pub fn shift_columns(&self, device: &Device, col_delta: i64) -> Result<GoldenImage, Error> {
        let uncovered = self.uncovered.shift_columns(device, col_delta)?;
        let covered = Arc::ptr_eq(&self.region, self.stream.frame_set()?);
        let stream = Arc::new(self.stream.relocate(device, col_delta)?);
        let region = if covered {
            Arc::clone(stream.frame_set()?)
        } else {
            self.region
                .iter()
                .map(|&a| device.shift_frame(a, col_delta))
                .collect::<Result<_, _>>()?
        };
        Ok(GoldenImage {
            stream,
            region,
            uncovered,
        })
    }
}

/// Index-page entry of a frame that holds no slot (erased).
const ERASED: u32 = u32::MAX;

/// The check codes a slot write stores with its words.
#[derive(Debug, Clone, Copy)]
enum Codes<'a> {
    /// Encode them from the words.
    Encode,
    /// These, the words' encoding (a stream's cached codes).
    Encoded(&'a [u8]),
    /// These, as a snapshot or undo record holds them: an upset may have
    /// left them disagreeing with the words.
    Verbatim(&'a [u8]),
}

/// The undo log of an open transactional load: one record per write that
/// changed a frame, oldest first, with the displaced words and check codes
/// of every record whose frame held a slot packed end to end. Its buffers
/// are kept between loads, so journaling allocates only while a load
/// writes more than any load before it.
#[derive(Debug, Clone, Default)]
struct Journal {
    open: bool,
    /// `(address, held a slot)` per journaled write.
    entries: Vec<(FrameAddress, bool)>,
    /// The displaced words of the entries that held a slot, in order.
    words: Vec<u32>,
    /// Their check codes, parallel to `words`.
    checks: Vec<u8>,
}

impl Journal {
    /// Forgets every record, keeping the buffers.
    fn clear(&mut self) {
        self.open = false;
        self.entries.clear();
        self.words.clear();
        self.checks.clear();
    }
}

/// The frame-addressable configuration memory of a device.
///
/// Frames that were never written read back as all-zero (the post-PROG state
/// of the real device). An erased frame implicitly carries an all-zero check
/// code, which is exactly `FrameEcc::encode(&zeros)` — the sparse store and
/// the ECC shadow agree by construction.
///
/// Storage is a sparse slot store. Every frame that is not erased owns one
/// slot: `frame_words` words in one contiguous slab, as many check bytes
/// in a parallel slab and one "encoded from these words" flag, freed slots
/// being reused before the slabs grow. A frame address finds its slot in
/// O(1) through a page of slot ids per (row, column), allocated on the
/// column's first non-erased write, so an erased frame costs an index test
/// and a written one a copy (and an encode, unless the caller brings the
/// codes).
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
/// mem.write_frame(addr, &vec![0xDEAD_BEEF; mem.frame_words()])?;
/// assert_eq!(mem.frame(addr)[0], 0xDEAD_BEEF);
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    device: Device,
    frame_words: usize,
    /// One slot-id page per `row * columns + column`, one entry per minor
    /// frame ([`ERASED`]: no slot); `None` until the column's first slot.
    index: Vec<Option<Box<[u32]>>>,
    /// Slot `s` holds words `s * frame_words..(s + 1) * frame_words`.
    slot_words: Vec<u32>,
    /// Check codes, parallel to `slot_words`.
    slot_checks: Vec<u8>,
    /// Per slot: its check codes were encoded from its words (or a scrub
    /// found them consistent), so a scrub has nothing to decode. Every
    /// write sets or clears it; an upset clears it.
    slot_encoded: Vec<bool>,
    /// Slots holding no frame.
    free_slots: Vec<u32>,
    journal: Journal,
}

impl ConfigMemory {
    /// Creates an all-zero configuration memory for `device`.
    pub fn new(device: &Device) -> ConfigMemory {
        ConfigMemory {
            device: device.clone(),
            frame_words: device.part().family().frame_words(),
            index: vec![None; device.rows() * device.columns()],
            slot_words: Vec::new(),
            slot_checks: Vec::new(),
            slot_encoded: Vec::new(),
            free_slots: Vec::new(),
            journal: Journal::default(),
        }
    }

    /// Words per frame on this device.
    pub fn frame_words(&self) -> usize {
        self.frame_words
    }

    /// Writes one frame, refreshing its SECDED check codes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] if the address does not exist on the
    /// device or the payload length differs from the frame size.
    pub fn write_frame(&mut self, addr: FrameAddress, data: &[u32]) -> Result<(), Error> {
        self.check_write(addr, data)?;
        if data.iter().all(|&w| w == 0) {
            // All-zero equals the erased state; keep the store sparse. The
            // implicit check code of an erased frame is all-zero too.
            self.erase_slot(addr);
        } else {
            self.put_slot(addr, data, Codes::Encode);
        }
        Ok(())
    }

    /// [`ConfigMemory::write_frame`] with the caller's zero test and check
    /// codes: `checks` is `None` for an all-zero `data`, else
    /// `FrameEcc::encode(data)`. This is how the ICAP writes a frame from
    /// its stream's cached check codes, and replays its MFWR shadow frame,
    /// without rescanning and re-encoding it.
    pub(crate) fn write_encoded(
        &mut self,
        addr: FrameAddress,
        data: &[u32],
        checks: Option<&[u8]>,
    ) -> Result<(), Error> {
        self.check_write(addr, data)?;
        debug_assert_eq!(checks.is_none(), data.iter().all(|&w| w == 0));
        match checks {
            None => self.erase_slot(addr),
            Some(checks) => self.put_slot(addr, data, Codes::Encoded(checks)),
        }
        Ok(())
    }

    /// Refuses an address the device lacks or a payload of the wrong length.
    fn check_write(&self, addr: FrameAddress, data: &[u32]) -> Result<(), Error> {
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
        Ok(())
    }

    /// The slot holding `addr`, if the frame is not erased (`None` as well
    /// for an address the device lacks).
    fn slot(&self, addr: FrameAddress) -> Option<usize> {
        if addr.column as usize >= self.device.columns() {
            return None;
        }
        let page = self.index.get(self.page(addr))?.as_deref()?;
        match *page.get(addr.minor as usize)? {
            ERASED => None,
            slot => Some(slot as usize),
        }
    }

    /// Index of the page of a valid address's (row, column).
    fn page(&self, addr: FrameAddress) -> usize {
        addr.row as usize * self.device.columns() + addr.column as usize
    }

    /// The slab range of `slot`.
    fn span(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.frame_words..(slot + 1) * self.frame_words
    }

    /// Gives valid `addr`, which holds no slot, a slot with unspecified
    /// contents, creating its column's index page if needed.
    fn alloc_slot(&mut self, addr: FrameAddress) -> usize {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slot_words.len() / self.frame_words)
                    .expect("fewer slots than a device has frames");
                self.slot_words
                    .resize(self.slot_words.len() + self.frame_words, 0);
                self.slot_checks
                    .resize(self.slot_checks.len() + self.frame_words, 0);
                self.slot_encoded.push(false);
                slot
            }
        };
        let minors = frames_per_column(self.device.column_kind(addr.column as usize));
        let page = self.page(addr);
        self.index[page].get_or_insert_with(|| vec![ERASED; minors].into())[addr.minor as usize] =
            slot;
        slot as usize
    }

    /// Gives valid `addr` a slot holding `data` under `codes`, journaling
    /// what it displaces when a load is open.
    fn put_slot(&mut self, addr: FrameAddress, data: &[u32], codes: Codes<'_>) {
        let encoded = !matches!(codes, Codes::Verbatim(_));
        let slot = match self.slot(addr) {
            Some(slot) => {
                if self.journal.open {
                    let span = self.span(slot);
                    let old = &self.slot_checks[span.clone()];
                    let unchanged = self.slot_words[span] == *data
                        && match codes {
                            Codes::Encoded(checks) | Codes::Verbatim(checks) => old == checks,
                            Codes::Encode => {
                                old.iter().zip(data).all(|(&c, &w)| c == encode_word(w))
                            }
                        };
                    if unchanged {
                        self.slot_encoded[slot] |= encoded;
                        return;
                    }
                }
                self.record_undo(addr, Some(slot));
                slot
            }
            None => {
                self.record_undo(addr, None);
                self.alloc_slot(addr)
            }
        };
        let span = self.span(slot);
        self.slot_words[span.clone()].copy_from_slice(data);
        match codes {
            Codes::Encoded(checks) | Codes::Verbatim(checks) => {
                self.slot_checks[span].copy_from_slice(checks)
            }
            Codes::Encode => encode_into(data, &mut self.slot_checks[span]),
        }
        self.slot_encoded[slot] = encoded;
    }

    /// Returns valid `addr` to the erased state, journaling what it held
    /// when a load is open. An erased frame costs one index test.
    fn erase_slot(&mut self, addr: FrameAddress) {
        let Some(slot) = self.slot(addr) else {
            return;
        };
        self.record_undo(addr, Some(slot));
        let page = self.page(addr);
        if let Some(page) = &mut self.index[page] {
            page[addr.minor as usize] = ERASED;
        }
        self.free_slots.push(slot as u32);
    }

    /// Appends what `addr` holds before a write (the words and check
    /// codes of `slot`, or no slot) to the undo log, if a load is open.
    fn record_undo(&mut self, addr: FrameAddress, slot: Option<usize>) {
        if !self.journal.open {
            return;
        }
        self.journal.entries.push((addr, slot.is_some()));
        if let Some(slot) = slot {
            let span = self.span(slot);
            self.journal
                .words
                .extend_from_slice(&self.slot_words[span.clone()]);
            self.journal
                .checks
                .extend_from_slice(&self.slot_checks[span]);
        }
    }

    /// Opens the undo log of a transactional load.
    pub(crate) fn begin_journal(&mut self) {
        debug_assert!(!self.journal.open, "journal already open");
        self.journal.clear();
        self.journal.open = true;
    }

    /// Closes the undo log, keeping every write since it opened.
    pub(crate) fn commit_journal(&mut self) {
        self.journal.clear();
    }

    /// Closes the undo log and unwinds every write since it opened, newest
    /// first, leaving payload, check codes and presence exactly as they
    /// were; an unwound frame's next scrub decodes it. Returns how many
    /// frames the writes had left with a different payload (frames
    /// rewritten back to their old content do not count).
    pub(crate) fn rollback_journal(&mut self) -> usize {
        let mut log = std::mem::take(&mut self.journal);
        let touched: BTreeSet<FrameAddress> = log.entries.iter().map(|&(a, _)| a).collect();
        let after: Vec<(FrameAddress, Frame)> =
            touched.into_iter().map(|a| (a, self.frame(a))).collect();
        let mut end = log.words.len();
        for &(addr, held) in log.entries.iter().rev() {
            if held {
                let start = end - self.frame_words;
                let (words, checks) = (&log.words[start..end], &log.checks[start..end]);
                self.put_slot(addr, words, Codes::Verbatim(checks));
                end = start;
            } else {
                self.erase_slot(addr);
            }
        }
        log.clear();
        self.journal = log;
        after
            .into_iter()
            .filter(|(a, frame)| self.frame(*a) != *frame)
            .count()
    }

    /// Reads back one frame (all-zero if never written).
    pub fn frame(&self, addr: FrameAddress) -> Frame {
        match self.slot(addr) {
            Some(slot) => self.slot_words[self.span(slot)].to_vec(),
            None => vec![0; self.frame_words],
        }
    }

    /// The SECDED check codes currently shadowing `addr` (the implicit
    /// all-zero code for erased frames).
    #[cfg(test)]
    pub(crate) fn frame_ecc(&self, addr: FrameAddress) -> FrameEcc {
        match self.slot(addr) {
            Some(slot) => FrameEcc::from_checks(&self.slot_checks[self.span(slot)]),
            None => FrameEcc::erased(self.frame_words),
        }
    }

    /// Returns `true` if the frame holds a slot: it was written with
    /// non-zero content, or upset since it was last erased.
    pub fn is_configured(&self, addr: FrameAddress) -> bool {
        self.slot(addr).is_some()
    }

    /// Number of frames holding a slot.
    pub(crate) fn configured_frames(&self) -> usize {
        self.slot_words.len() / self.frame_words - self.free_slots.len()
    }

    /// Addresses of every configured frame, in address order.
    pub fn configured_addresses(&self) -> Vec<FrameAddress> {
        let columns = self.device.columns();
        let mut out = Vec::with_capacity(self.configured_frames());
        for (p, page) in self.index.iter().enumerate() {
            let Some(page) = page else { continue };
            let (row, column) = ((p / columns) as u32, (p % columns) as u32);
            out.extend(
                (0u32..)
                    .zip(page.iter())
                    .filter(|&(_, &slot)| slot != ERASED)
                    .map(|(minor, _)| FrameAddress::new(row, column, minor)),
            );
        }
        out
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
        let slot = match self.slot(addr) {
            Some(slot) => slot,
            None => {
                // An upset in an erased frame: all-zero payload under the
                // implicit all-zero code, now held in a slot.
                let slot = self.alloc_slot(addr);
                let span = self.span(slot);
                self.slot_words[span.clone()].fill(0);
                self.slot_checks[span].fill(0);
                slot
            }
        };
        self.slot_words[slot * self.frame_words + word] ^= 1 << bit;
        // Deliberately no ECC refresh: the shadow now disagrees with the
        // payload, exactly as a real upset leaves the fabric, and the next
        // scrub decodes the frame.
        self.slot_encoded[slot] = false;
        Ok(())
    }

    /// Reads back `addr` and repairs what SECDED can, in place.
    ///
    /// On a correctable upset the payload is restored and (for check-code
    /// upsets) the shadow re-encoded; an uncorrectable frame is left
    /// untouched so a golden restore can still be attempted. An erased
    /// frame, and one whose codes were encoded from its words with no
    /// upset since, is clean at the cost of an index test: only a frame an
    /// upset, a snapshot restore or a rollback can have reached is decoded.
    /// The readback's virtual time is the caller's and counts every frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] for an invalid address.
    pub fn scrub_frame(&mut self, addr: FrameAddress) -> Result<FrameRepair, Error> {
        self.device.validate_frame(addr)?;
        let Some(slot) = self.slot(addr).filter(|&slot| !self.slot_encoded[slot]) else {
            // Erased frames are implicitly clean (zero payload, zero code),
            // and so is a frame whose codes are its words' encoding.
            return Ok(FrameRepair::Clean);
        };
        // A load holds the memory for its whole walk, so no journal is
        // open here and the in-place repair needs no undo record.
        debug_assert!(!self.journal.open, "scrub inside a transactional load");
        let span = self.span(slot);
        let words = &mut self.slot_words[span.clone()];
        let repair = scrub_words(words, &self.slot_checks[span.clone()]);
        match repair {
            FrameRepair::Clean => self.slot_encoded[slot] = true,
            // Re-latch both sides of the doorway: a repaired frame gets a
            // fresh code, and a frame repaired back to all-zero returns to
            // the sparse erased state.
            FrameRepair::Corrected { .. } if words.iter().all(|&w| w == 0) => self.erase_slot(addr),
            FrameRepair::Corrected { .. } => {
                encode_into(words, &mut self.slot_checks[span]);
                self.slot_encoded[slot] = true;
            }
            FrameRepair::Uncorrectable { .. } => {}
        }
        Ok(repair)
    }

    /// Captures a bit-exact snapshot (payload + check codes) of `addrs`,
    /// copying only the frames that are not erased.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address.
    pub fn snapshot<'a, I: IntoIterator<Item = &'a FrameAddress>>(
        &self,
        addrs: I,
    ) -> Result<RegionSnapshot, Error> {
        let mut addresses = Vec::new();
        let mut frames = BTreeMap::new();
        for &addr in addrs {
            self.device.validate_frame(addr)?;
            addresses.push(addr);
            let Some(slot) = self.slot(addr) else {
                continue;
            };
            let span = self.span(slot);
            let (words, checks) = (&self.slot_words[span.clone()], &self.slot_checks[span]);
            if words.iter().any(|&w| w != 0) || checks.iter().any(|&c| c != 0) {
                frames.insert(addr, (words.to_vec(), FrameEcc::from_checks(checks)));
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

    /// Restores every frame in `snap` bit-for-bit, check codes included;
    /// captured frames the snapshot holds as erased are erased. The codes
    /// may carry an upset the snapshot captured, so the next scrub of a
    /// restored frame decodes it.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address (only possible when the
    /// snapshot came from a different device geometry).
    pub fn restore(&mut self, snap: &RegionSnapshot) -> Result<(), Error> {
        for &addr in &snap.addresses {
            self.device.validate_frame(addr)?;
            match snap.frames.get(&addr) {
                Some((data, ecc)) if data.iter().any(|&w| w != 0) => {
                    self.put_slot(addr, data, Codes::Verbatim(ecc.checks()));
                }
                _ => self.erase_slot(addr),
            }
        }
        Ok(())
    }

    /// Captures the golden image of a region right after `stream` loaded
    /// into it, `previous` being the region's image before the load. The
    /// region grows to the union of the previous region and the frames
    /// the stream wrote. When the stream covers the region this touches
    /// no frame; otherwise only the uncovered frames are copied.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream cannot be walked or an uncovered
    /// address is invalid.
    pub fn capture_golden(
        &self,
        stream: Arc<Bitstream>,
        previous: Option<&GoldenImage>,
    ) -> Result<GoldenImage, Error> {
        let old = previous.map(|g| &g.region);
        let set = Arc::clone(stream.frame_set_like(old)?);
        let covered = |region| GoldenImage {
            stream: Arc::clone(&stream),
            region,
            uncovered: RegionSnapshot::empty(self.frame_words),
        };
        let old = match old {
            Some(old) if !Arc::ptr_eq(old, &set) => old,
            _ => return Ok(covered(set)),
        };
        let missed = sorted_difference(old, &set);
        if missed.is_empty() {
            return Ok(covered(set));
        }
        let extra = sorted_difference(&set, old);
        let region = if extra.is_empty() {
            Arc::clone(old)
        } else {
            let mut union = old.to_vec();
            union.extend(extra);
            union.sort_unstable();
            Arc::from(union)
        };
        Ok(GoldenImage {
            uncovered: self.snapshot(missed.iter())?,
            stream,
            region,
        })
    }

    /// Restores a region from its golden image: the frames the stream
    /// wrote are replayed from the stream with fresh check codes, every
    /// other region frame is restored bit-for-bit from the image's copy.
    /// The result equals restoring [`GoldenImage::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns an error if the stream cannot be walked or an address is
    /// invalid on this device.
    pub fn restore_golden(&mut self, golden: &GoldenImage) -> Result<(), Error> {
        golden
            .stream
            .for_each_frame_write(|addr, data| self.write_frame(addr, data))?;
        self.restore(&golden.uncovered)
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
        for &addr in addrs {
            self.device.validate_frame(addr)?;
            self.erase_slot(addr);
        }
        Ok(())
    }

    /// Addresses whose content differs between `self` and `other`.
    pub fn diff(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        let mut addrs = self.configured_addresses();
        addrs.extend(other.configured_addresses());
        addrs.sort_unstable();
        addrs.dedup();
        addrs
            .into_iter()
            .filter(|a| self.frame(*a) != other.frame(*a))
            .collect()
    }
}

#[cfg(test)]
mod reference;

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
        m.write_frame(addr, &data).unwrap();
        assert_eq!(m.frame(addr), data);
        assert_eq!(m.configured_frames(), 1);
    }

    #[test]
    fn zero_write_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 2, 3);
        m.write_frame(addr, &vec![7; m.frame_words()]).unwrap();
        m.write_frame(addr, &vec![0; m.frame_words()]).unwrap();
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        assert!(m.write_frame(addr, &[1, 2, 3]).is_err());
    }

    #[test]
    fn invalid_address_is_rejected() {
        let mut m = mem();
        let words = m.frame_words();
        assert!(m
            .write_frame(FrameAddress::new(999, 0, 0), &vec![1; words])
            .is_err());
    }

    #[test]
    fn diff_reports_changed_frames() {
        let mut a = mem();
        let mut b = mem();
        let f1 = FrameAddress::new(0, 1, 0);
        let f2 = FrameAddress::new(0, 1, 1);
        let words = a.frame_words();
        a.write_frame(f1, &vec![1; words]).unwrap();
        b.write_frame(f1, &vec![1; words]).unwrap();
        b.write_frame(f2, &vec![2; words]).unwrap();
        assert_eq!(a.diff(&b), vec![f2]);
        assert_eq!(a.diff(&a), Vec::new());
    }

    #[test]
    fn clear_frames_restores_erased_state() {
        let mut m = mem();
        let addr = FrameAddress::new(3, 4, 2);
        m.write_frame(addr, &vec![9; m.frame_words()]).unwrap();
        m.clear_frames(std::iter::once(&addr)).unwrap();
        assert_eq!(m.configured_frames(), 0);
    }

    #[test]
    fn corrupt_then_scrub_repairs_single_bit() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        let data: Frame = (1..=m.frame_words() as u32).collect();
        m.write_frame(addr, &data).unwrap();
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
        m.write_frame(addr, &vec![0xCAFE_F00D; m.frame_words()])
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
        m.write_frame(a1, &vec![3; words]).unwrap();
        m.write_frame(a2, &vec![4; words]).unwrap();
        let snap = m.snapshot([a1, a2].iter()).unwrap();
        assert_eq!(snap.len(), 2);
        m.corrupt_bit(a1, 0, 7).unwrap();
        m.write_frame(a2, &vec![9; words]).unwrap();
        m.restore(&snap).unwrap();
        assert_eq!(m.frame(a1), vec![3; words]);
        assert_eq!(m.frame(a2), vec![4; words]);
        assert_eq!(m.scrub_frame(a1).unwrap(), FrameRepair::Clean);
        assert_eq!(m.scrub_frame(a2).unwrap(), FrameRepair::Clean);
    }

    #[test]
    fn sparse_snapshot_restores_a_mixed_region_bit_exact() {
        let mut m = mem();
        let words = m.frame_words();
        let region: Vec<FrameAddress> =
            (0..8).map(|minor| FrameAddress::new(1, 3, minor)).collect();
        // Configured, erased, upset-in-configured (ECC disagrees), upset
        // in an erased frame, and a frame upset back to an all-zero payload
        // under a non-zero code.
        m.write_frame(region[0], &vec![0x1111_0000; words]).unwrap();
        m.write_frame(region[2], &(1..=words as u32).collect::<Vec<_>>())
            .unwrap();
        m.corrupt_bit(region[2], 5, 9).unwrap();
        m.corrupt_bit(region[3], 0, 31).unwrap();
        let mut one = vec![0; words];
        one[7] = 1 << 4;
        m.write_frame(region[4], &one).unwrap();
        m.corrupt_bit(region[4], 7, 4).unwrap();
        let snap = m.snapshot(region.iter().rev()).unwrap();
        assert_eq!(snap.addresses(), region, "every address, in order");
        assert_eq!(snap.len(), region.len());
        let before: Vec<(Frame, FrameEcc)> = region
            .iter()
            .map(|&a| (m.frame(a), m.frame_ecc(a)))
            .collect();

        for &a in &region {
            m.write_frame(a, &vec![0xFFFF_0000 + a.minor; words])
                .unwrap();
        }
        m.restore(&snap).unwrap();
        for (i, &a) in region.iter().enumerate() {
            let (frame, ecc) = &before[i];
            assert_eq!(&m.frame(a), frame, "payload of {a:?}");
            if i == 4 {
                // An all-zero payload restores as erased, as it always has.
                assert!(!m.is_configured(a));
                assert!(m.frame_ecc(a).is_erased());
            } else {
                assert_eq!(&m.frame_ecc(a), ecc, "check codes of {a:?}");
            }
        }
        // The upsets survived the round trip, still detectable.
        assert!(matches!(
            m.scrub_frame(region[2]).unwrap(),
            FrameRepair::Corrected { .. }
        ));
        assert!(matches!(
            m.scrub_frame(region[3]).unwrap(),
            FrameRepair::Corrected { .. }
        ));
        // Canonical: an erased frame held as an explicit zero entry
        // snapshots exactly like one that was never written.
        let mut n = mem();
        let erased = [FrameAddress::new(1, 3, 1)];
        n.corrupt_bit(erased[0], 0, 0).unwrap();
        n.corrupt_bit(erased[0], 0, 0).unwrap();
        assert!(n.is_configured(erased[0]));
        assert_eq!(
            n.snapshot(erased.iter()).unwrap(),
            mem().snapshot(erased.iter()).unwrap()
        );
    }

    /// A stream over `minors` of row 0, column 2, frame `m` holding `m + base`.
    fn stream(m: &ConfigMemory, minors: std::ops::Range<u32>, base: u32) -> Arc<Bitstream> {
        use crate::bitstream::{BitstreamBuilder, BitstreamKind};
        let mut b = BitstreamBuilder::new(&m.device, BitstreamKind::Partial);
        for minor in minors {
            b.add_frame(
                FrameAddress::new(0, 2, minor),
                vec![minor + base; m.frame_words()],
            )
            .unwrap();
        }
        Arc::new(b.build(true))
    }

    fn load(icap: &mut crate::icap::Icap, bs: &Bitstream) {
        icap.load_or_rollback(bs).unwrap();
    }

    #[test]
    fn a_covering_load_shares_the_stream_frame_set_and_copies_nothing() {
        let mut icap = crate::icap::Icap::new(&FpgaPart::Vc707.device());
        let first = stream(icap.memory(), 0..6, 1);
        load(&mut icap, &first);
        let g1 = icap
            .memory()
            .capture_golden(Arc::clone(&first), None)
            .unwrap();
        assert!(Arc::ptr_eq(g1.addresses(), first.frame_set().unwrap()));
        assert!(g1.uncovered.is_empty());
        // A second stream over the same region adopts the region's set, so
        // every later load of it is a pointer comparison.
        let second = stream(icap.memory(), 0..6, 9);
        load(&mut icap, &second);
        let g2 = icap
            .memory()
            .capture_golden(Arc::clone(&second), Some(&g1))
            .unwrap();
        assert!(Arc::ptr_eq(g2.addresses(), g1.addresses()));
        assert!(Arc::ptr_eq(second.frame_set().unwrap(), g1.addresses()));
        assert!(g2.uncovered.is_empty());
        let region = g2.addresses().to_vec();
        assert_eq!(
            g2.snapshot().unwrap(),
            icap.memory().snapshot(region.iter()).unwrap()
        );
    }

    #[test]
    fn a_partial_load_copies_only_the_frames_it_did_not_write() {
        let mut icap = crate::icap::Icap::new(&FpgaPart::Vc707.device());
        let wide = stream(icap.memory(), 0..8, 1);
        load(&mut icap, &wide);
        let g1 = icap
            .memory()
            .capture_golden(Arc::clone(&wide), None)
            .unwrap();
        icap.memory_mut()
            .corrupt_bit(FrameAddress::new(0, 2, 7), 1, 2)
            .unwrap();
        let narrow = stream(icap.memory(), 2..5, 40);
        load(&mut icap, &narrow);
        let g2 = icap
            .memory()
            .capture_golden(Arc::clone(&narrow), Some(&g1))
            .unwrap();
        assert!(
            Arc::ptr_eq(g2.addresses(), g1.addresses()),
            "the region did not grow"
        );
        assert_eq!(g2.uncovered.len(), 5);
        let region = g2.addresses().to_vec();
        let live = icap.memory().snapshot(region.iter()).unwrap();
        assert_eq!(g2.snapshot().unwrap(), live);
        // A load that reaches past the region grows it to the union.
        let beyond = stream(icap.memory(), 6..10, 70);
        load(&mut icap, &beyond);
        let g3 = icap
            .memory()
            .capture_golden(Arc::clone(&beyond), Some(&g2))
            .unwrap();
        assert_eq!(g3.len(), 10);
        let region = g3.addresses().to_vec();
        let live = icap.memory().snapshot(region.iter()).unwrap();
        assert_eq!(g3.snapshot().unwrap(), live);
        // Restoring replays the stream and the copied frames.
        let words = icap.memory().frame_words();
        for minor in 0..10 {
            icap.memory_mut()
                .write_frame(FrameAddress::new(0, 2, minor), &vec![0xEE; words])
                .unwrap();
        }
        icap.memory_mut().restore_golden(&g3).unwrap();
        assert_eq!(icap.memory().snapshot(region.iter()).unwrap(), live);
    }

    #[test]
    fn restoring_an_erased_snapshot_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(2, 2, 0);
        let snap = m.snapshot(std::iter::once(&addr)).unwrap();
        m.write_frame(addr, &vec![5; m.frame_words()]).unwrap();
        m.restore(&snap).unwrap();
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn an_erased_frame_costs_an_index_test() {
        let mut m = mem();
        let words = m.frame_words();
        let erased = FrameAddress::new(3, 7, 2);
        let page = m.page(erased);
        m.begin_journal();
        m.write_frame(erased, &vec![0; words]).unwrap();
        assert_eq!(m.scrub_frame(erased).unwrap(), FrameRepair::Clean);
        assert!(
            m.journal.entries.is_empty(),
            "erased over erased journals nothing"
        );
        assert!(m.index[page].is_none(), "and creates no index page");
        assert!(
            m.slot_words.is_empty() && m.slot_checks.is_empty(),
            "nor a slot"
        );
        // Erasing a written frame journals it once and frees its slot for
        // the next write.
        m.write_frame(erased, &vec![1; words]).unwrap();
        m.write_frame(erased, &vec![0; words]).unwrap();
        assert_eq!(m.journal.entries, [(erased, false), (erased, true)]);
        m.commit_journal();
        let other = FrameAddress::new(3, 7, 3);
        m.write_frame(other, &vec![2; words]).unwrap();
        assert_eq!(m.slot_words.len(), words, "the freed slot is reused");
        assert_eq!(m.configured_addresses(), [other]);
    }

    /// One step of the differential test, over a small address universe
    /// so that writes, upsets, snapshots and loads keep colliding.
    #[derive(Debug, Clone)]
    enum Op {
        /// Writes value `v` (0: an all-zero frame) to every word, word `i`
        /// xor-ed with `i` when `ramp` is set.
        Write {
            a: usize,
            v: u32,
            ramp: bool,
        },
        Corrupt {
            a: usize,
            word: usize,
            bit: u32,
            second: Option<u32>,
        },
        Scrub {
            a: usize,
        },
        Snapshot {
            from: usize,
            len: usize,
        },
        /// Restores a snapshot taken earlier, then, when `scrub` is set,
        /// scrubs every address.
        Restore {
            which: usize,
            scrub: bool,
        },
        Clear {
            from: usize,
            len: usize,
        },
        /// A transactional load of `frames` (value 0: all-zero frames,
        /// replayed by MFWR when compressed), `fault` 0–1 intact, 2 a
        /// flipped payload word, 3 a flipped FAR column bit, 4 truncated.
        /// With `again`, the load instead re-streams the same value as an
        /// earlier load, so it reuses the check codes that load published.
        /// With `scrub`, every address is scrubbed after a rollback.
        Load {
            frames: Vec<(usize, u32)>,
            compressed: bool,
            fault: u32,
            pick: usize,
            again: Option<usize>,
            scrub: bool,
        },
    }

    /// Rows 0–1, columns 10–12, minors 0–5: valid on every column kind.
    fn universe() -> Vec<FrameAddress> {
        let mut out = Vec::new();
        for row in 0..2 {
            for column in 10..13 {
                for minor in 0..6 {
                    out.push(FrameAddress::new(row, column, minor));
                }
            }
        }
        out
    }

    /// A frame value: all-zero half the time, else one of a few shared
    /// values (so compressed streams replay them) or an arbitrary one.
    fn value(sel: u32, x: usize) -> u32 {
        match sel {
            0..=3 => 0,
            4 => 0x5A5A_0000,
            5 | 6 => 1 + (x % 3) as u32,
            _ => (x as u32).wrapping_mul(0x9E37_79B9),
        }
    }

    /// One drawn step: kind, address index, value selector, a free
    /// draw, a bit, a flag and the frames a load would write.
    type Drawn = (u32, usize, u32, usize, u32, bool, Vec<(usize, u32)>);

    /// Decodes one drawn tuple into a step.
    fn op_of((kind, a, sel, x, bit, flag, frames): Drawn) -> Op {
        let n = universe().len();
        match kind {
            0..=3 => Op::Write {
                a,
                v: value(sel, x),
                ramp: flag,
            },
            4..=6 => Op::Corrupt {
                a,
                word: x % 101,
                bit,
                second: flag.then_some((x >> 8) as u32 % 32),
            },
            7 | 8 => Op::Scrub { a },
            9 => Op::Snapshot {
                from: a,
                len: 1 + x % n,
            },
            10 => Op::Restore {
                which: x,
                scrub: flag,
            },
            11 => Op::Clear {
                from: a,
                len: 1 + x % 8,
            },
            _ => Op::Load {
                frames: frames
                    .into_iter()
                    .map(|(a, sel)| (a, value(sel, x)))
                    .collect(),
                compressed: flag,
                fault: bit % 5,
                pick: x,
                again: (sel >= 4).then_some(x >> 10),
                scrub: sel % 2 == 0,
            },
        }
    }

    fn stream_of(device: &Device, universe: &[FrameAddress], op: &Op) -> Bitstream {
        use crate::bitstream::{type1_write, BitstreamBuilder, BitstreamKind, ConfigReg};
        let Op::Load {
            frames,
            compressed,
            fault,
            pick,
            ..
        } = op
        else {
            unreachable!("only loads stream")
        };
        let words = device.part().family().frame_words();
        let mut builder = BitstreamBuilder::new(device, BitstreamKind::Partial);
        for &(a, v) in frames {
            builder.add_frame(universe[a], vec![v; words]).unwrap();
        }
        let built = builder.build(*compressed);
        let mut stream = built.words().to_vec();
        match fault {
            2 => {
                let at = stream.len() - 5;
                stream[at] ^= 1 << (pick % 32);
            }
            3 => {
                let fars: Vec<usize> = (0..stream.len() - 1)
                    .filter(|&i| stream[i] == type1_write(ConfigReg::Far, 1))
                    .map(|i| i + 1)
                    .collect();
                stream[fars[pick % fars.len()]] ^= 1 << (8 + pick % 6);
            }
            4 => stream.truncate(stream.len() - 1 - pick % (stream.len() - 1)),
            _ => {}
        }
        built.with_words(stream)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The slot store against the two-map store it replaced: after
        /// every step of a random sequence of writes (all-zero ones
        /// included), single and double upsets, scrubs, snapshots and
        /// restores, clears and transactional loads of intact and
        /// corrupted compressed or raw streams (new ones, and streams
        /// loaded before, whose published check codes are reused), both
        /// hold the same payload, check codes and presence at every
        /// address, list the same configured addresses in the same order,
        /// snapshot the same, and report the same outcomes and dirty
        /// counts, scrubs included: a sweep after a restore or a rollback
        /// of upset frames finds and repairs the same upsets in both.
        #[test]
        fn the_slot_store_matches_the_two_map_store(
            drawn in proptest::collection::vec(
                (
                    0u32..15,
                    0usize..36,
                    0u32..8,
                    0usize..1_000_000,
                    0u32..32,
                    proptest::bool::ANY,
                    proptest::collection::vec((0usize..36, 0u32..8), 1..14),
                ),
                1..24,
            ),
        ) {
            use proptest::prelude::*;
            let ops: Vec<Op> = drawn.into_iter().map(op_of).collect();
            let device = FpgaPart::Vc707.device();
            let universe = universe();
            let words = device.part().family().frame_words();
            let mut icap = crate::icap::Icap::new(&device);
            let mut tree = reference::TreeMemory::new(&device);
            let mut snaps: Vec<(RegionSnapshot, RegionSnapshot)> = Vec::new();
            let mut streams: Vec<Bitstream> = Vec::new();
            let sweep = |mem: &mut ConfigMemory, tree: &mut reference::TreeMemory| {
                for &a in &universe {
                    prop_assert_eq!(
                        mem.scrub_frame(a).unwrap(),
                        tree.scrub_frame(a).unwrap(),
                        "scrub of {:?}",
                        a
                    );
                }
                Ok(())
            };
            for op in &ops {
                let mem = icap.memory_mut();
                match op {
                    Op::Write { a, v, ramp } => {
                        let data: Frame = (0..words as u32)
                            .map(|i| if *ramp { v ^ i } else { *v })
                            .collect();
                        mem.write_frame(universe[*a], &data).unwrap();
                        tree.write_frame(universe[*a], &data).unwrap();
                    }
                    Op::Corrupt { a, word, bit, second } => {
                        for bit in std::iter::once(*bit).chain(second.filter(|b| b != bit)) {
                            mem.corrupt_bit(universe[*a], *word, bit).unwrap();
                            tree.corrupt_bit(universe[*a], *word, bit).unwrap();
                        }
                    }
                    Op::Scrub { a } => {
                        prop_assert_eq!(
                            mem.scrub_frame(universe[*a]).unwrap(),
                            tree.scrub_frame(universe[*a]).unwrap()
                        );
                    }
                    Op::Snapshot { from, len } => {
                        let region = &universe[*from..(*from + *len).min(universe.len())];
                        let got = mem.snapshot(region.iter().rev()).unwrap();
                        let want = tree.snapshot(region).unwrap();
                        prop_assert_eq!(&got, &want);
                        snaps.push((got, want));
                    }
                    Op::Restore { which, scrub } => {
                        if let Some((got, want)) = snaps.get(*which % snaps.len().max(1)) {
                            mem.restore(got).unwrap();
                            tree.restore(want).unwrap();
                            if *scrub {
                                sweep(mem, &mut tree)?;
                            }
                        }
                    }
                    Op::Clear { from, len } => {
                        let region = &universe[*from..(*from + *len).min(universe.len())];
                        mem.clear_frames(region.iter()).unwrap();
                        tree.clear_frames(region).unwrap();
                    }
                    Op::Load { again, scrub, .. } => {
                        let index = match again {
                            Some(which) if !streams.is_empty() => which % streams.len(),
                            _ => {
                                streams.push(stream_of(&device, &universe, op));
                                streams.len() - 1
                            }
                        };
                        let stream = &streams[index];
                        let got = icap.load_or_rollback(stream);
                        let want = tree.load_or_rollback(stream);
                        match (got, want) {
                            (Ok(report), Ok(written)) => {
                                prop_assert_eq!(report.frames_written, written);
                            }
                            (Err((_, dirty)), Err((_, want))) => {
                                prop_assert_eq!(dirty, want);
                                if *scrub {
                                    sweep(icap.memory_mut(), &mut tree)?;
                                }
                            }
                            (got, want) => prop_assert!(
                                false,
                                "outcomes differ: {:?} vs {:?}",
                                got.map(|r| r.frames_written),
                                want
                            ),
                        }
                    }
                }
                let mem = icap.memory();
                prop_assert_eq!(mem.configured_addresses(), tree.configured_addresses());
                prop_assert_eq!(mem.configured_frames(), tree.configured_frames());
                for &a in &universe {
                    prop_assert_eq!(mem.frame(a), tree.frame(a), "payload of {:?}", a);
                    prop_assert_eq!(mem.frame_ecc(a), tree.frame_ecc(a), "codes of {:?}", a);
                    prop_assert_eq!(mem.is_configured(a), tree.is_configured(a));
                }
                prop_assert_eq!(
                    mem.snapshot(universe.iter()).unwrap(),
                    tree.snapshot(&universe).unwrap()
                );
            }
        }
    }
}
