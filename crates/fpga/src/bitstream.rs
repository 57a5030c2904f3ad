//! Bitstream construction.
//!
//! The format is a faithful simplification of the Xilinx configuration packet
//! stream: a sync word, type-1 register-write packets, frame payload through
//! the FDRI register, optional multi-frame-write (MFW) compression, a final
//! CRC check and a desync. The [`crate::icap`] module loads exactly this
//! format through the packet state machine defined here, so everything that
//! flows to the device round-trips through the same packet layer the hardware
//! would see.

use crate::crc;
pub use crate::crc::CrcAccumulator;
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::FrameAddress;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Dummy pad word at the head of every bitstream.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;
/// Synchronization word.
pub const SYNC_WORD: u32 = 0xAA99_5566;

/// Configuration registers addressed by type-1 packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ConfigReg {
    /// CRC check register.
    Crc = 0,
    /// Frame address register.
    Far = 1,
    /// Frame data input register.
    Fdri = 2,
    /// Command register.
    Cmd = 4,
    /// Multi-frame write register.
    Mfwr = 10,
    /// Device IDCODE register.
    Idcode = 12,
}

impl ConfigReg {
    /// Decodes a register index.
    pub fn from_index(idx: u32) -> Option<ConfigReg> {
        Some(match idx {
            0 => ConfigReg::Crc,
            1 => ConfigReg::Far,
            2 => ConfigReg::Fdri,
            4 => ConfigReg::Cmd,
            10 => ConfigReg::Mfwr,
            12 => ConfigReg::Idcode,
            _ => return None,
        })
    }
}

/// Command-register opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Command {
    /// Write configuration data.
    Wcfg = 1,
    /// Multi-frame write mode.
    Mfw = 2,
    /// Reset CRC accumulator.
    Rcrc = 7,
    /// End of bitstream.
    Desync = 13,
}

impl Command {
    /// Decodes a command opcode.
    pub fn from_value(v: u32) -> Option<Command> {
        Some(match v {
            1 => Command::Wcfg,
            2 => Command::Mfw,
            7 => Command::Rcrc,
            13 => Command::Desync,
            _ => return None,
        })
    }
}

/// Encodes a type-1 write-packet header: `001 | op=10 | reg | count`.
pub fn type1_write(reg: ConfigReg, count: u32) -> u32 {
    assert!(
        count < (1 << 13),
        "type-1 payload too large; chunking required"
    );
    (0b001 << 29) | (0b10 << 27) | ((reg as u32) << 13) | count
}

/// Encodes a type-2 packet header (large FDRI payloads): `010 | op=10 | count`.
pub fn type2_write(count: u32) -> u32 {
    assert!(count < (1 << 27), "type-2 payload too large");
    (0b010 << 29) | (0b10 << 27) | count
}

/// Decoded packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketHeader {
    /// Type-1 write to a register with an inline word count.
    Type1Write {
        /// Destination register.
        reg: ConfigReg,
        /// Payload word count.
        count: u32,
    },
    /// Type-2 write (payload goes to the last addressed register).
    Type2Write {
        /// Payload word count.
        count: u32,
    },
    /// A NOP / padding word.
    Nop,
}

/// Decodes one packet-header word; [`Bitstream::walk`] is its only caller.
///
/// # Errors
///
/// Returns [`Error::MalformedBitstream`] for unknown packet types or
/// registers.
#[inline(always)]
fn decode_header(word: u32) -> Result<PacketHeader, Error> {
    let ty = word >> 29;
    match ty {
        0b001 => {
            let op = (word >> 27) & 0b11;
            if op == 0 {
                return Ok(PacketHeader::Nop);
            }
            if op != 0b10 {
                return Err(Error::MalformedBitstream {
                    detail: format!("unsupported op {op} in type-1 packet"),
                });
            }
            let reg_idx = (word >> 13) & 0x3FFF;
            let reg = ConfigReg::from_index(reg_idx).ok_or_else(|| Error::MalformedBitstream {
                detail: format!("unknown register index {reg_idx}"),
            })?;
            Ok(PacketHeader::Type1Write {
                reg,
                count: word & 0x1FFF,
            })
        }
        0b010 => Ok(PacketHeader::Type2Write {
            count: word & 0x07FF_FFFF,
        }),
        _ => Err(Error::MalformedBitstream {
            detail: format!("unknown packet type {ty}"),
        }),
    }
}

/// One effect of a configuration packet, as [`Bitstream::walk`] hands
/// it over in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step<'a> {
    /// An IDCODE register write.
    Idcode(u32),
    /// A command register write.
    Command(Command),
    /// A FAR write: the packed value and the stream index of the word
    /// that holds it.
    Far {
        /// The packed frame address.
        value: u32,
        /// Index of the payload word in [`Bitstream::words`].
        at: usize,
    },
    /// One frame of an FDRI burst, written at the address.
    Frame(FrameAddress, &'a [u32]),
    /// The latched last FDRI frame, replayed at the address by an MFWR.
    Replay(FrameAddress, &'a [u32]),
    /// The CRC check word and its stream index.
    Crc {
        /// The expected CRC value.
        value: u32,
        /// Index of the payload word in [`Bitstream::words`].
        at: usize,
    },
}

/// Extracts the single word of a one-word register write.
fn single(payload: &[u32]) -> Result<u32, Error> {
    if payload.len() != 1 {
        return Err(Error::MalformedBitstream {
            detail: format!(
                "expected 1-word register write, got {} words",
                payload.len()
            ),
        });
    }
    Ok(payload[0])
}

/// Hands an FDRI burst to `step` as whole frames starting at the current
/// FAR, auto-incrementing the minor address, and latches the last frame
/// into the multi-frame shadow register. Inlined into the walk, like
/// [`decode_header`]: a call per packet cost about as much again as the
/// walk's own work per frame.
#[inline(always)]
fn burst<'a>(
    payload: &'a [u32],
    frame_words: usize,
    far: &mut Option<FrameAddress>,
    shadow: &mut &'a [u32],
    step: &mut impl FnMut(Step<'a>) -> Result<(), Error>,
) -> Result<(), Error> {
    if !payload.len().is_multiple_of(frame_words) {
        return Err(Error::MalformedBitstream {
            detail: format!(
                "FDRI payload of {} words is not a multiple of the {frame_words}-word frame",
                payload.len()
            ),
        });
    }
    let mut addr = far.ok_or_else(|| Error::MalformedBitstream {
        detail: "FDRI with no FAR set".into(),
    })?;
    for chunk in payload.chunks(frame_words) {
        step(Step::Frame(addr, chunk))?;
        *shadow = chunk;
        addr = FrameAddress::new(addr.row, addr.column, addr.minor + 1);
    }
    *far = Some(addr);
    Ok(())
}

impl CrcAccumulator {
    /// Folds one step of [`Bitstream::walk`] into the in-stream CRC: an
    /// RCRC command resets it, a FAR value and an FDRI frame's words are
    /// folded in, and nothing else is covered (an MFWR replays a frame
    /// the CRC already holds).
    pub(crate) fn fold(&mut self, step: &Step<'_>) {
        match *step {
            Step::Command(Command::Rcrc) => *self = CrcAccumulator::new(),
            Step::Far { value, .. } => self.update(value),
            Step::Frame(_, data) => self.update_words(data),
            _ => {}
        }
    }
}

/// Whether a bitstream reconfigures the whole device or a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitstreamKind {
    /// Full-device bitstream.
    Full,
    /// Partial bitstream for one reconfigurable partition.
    Partial,
}

/// A built bitstream: the exact word stream an ICAP consumes.
///
/// Equality compares the stream and its metadata; the cached
/// [`Bitstream::frame_set`], relocation sites and FDRI check codes are
/// derived from them and do not take part.
#[derive(Debug, Clone)]
pub struct Bitstream {
    kind: BitstreamKind,
    idcode: u32,
    compressed: bool,
    words: Vec<u32>,
    frames: usize,
    integrity: u32,
    frame_words: usize,
    frame_set: OnceLock<Arc<[FrameAddress]>>,
    /// The words [`Bitstream::relocate`] rewrites, from one packet walk.
    sites: OnceLock<Arc<[Site]>>,
    /// The SECDED check code of every FDRI word, in walk order: published
    /// by the first load of the stream that succeeds.
    fdri_checks: OnceLock<Arc<[u8]>>,
}

/// A word that relocation rewrites, or the RCRC that restarts the
/// in-stream CRC, in stream order. `covered` counts the words the
/// in-stream CRC folds before the site since the last RCRC: FAR values
/// and FDRI frame words, as in `CrcAccumulator::fold`.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// An RCRC command.
    Rcrc,
    /// A FAR word at stream index `at`.
    Far { at: usize, covered: usize },
    /// A CRC check word at stream index `at`.
    Crc { at: usize, covered: usize },
}

impl PartialEq for Bitstream {
    fn eq(&self, other: &Bitstream) -> bool {
        self.kind == other.kind
            && self.idcode == other.idcode
            && self.compressed == other.compressed
            && self.words == other.words
            && self.frames == other.frames
            && self.integrity == other.integrity
            && self.frame_words == other.frame_words
    }
}

impl Eq for Bitstream {}

impl Bitstream {
    /// CRC-32 over the full word stream, computed once at build time.
    ///
    /// This is a storage-integrity check (does the stream the registry holds
    /// still match what the builder produced?), distinct from the in-stream
    /// CRC word the ICAP verifies during a load.
    fn stream_integrity(words: &[u32]) -> u32 {
        let mut crc = CrcAccumulator::new();
        crc.update_words(words);
        crc.value()
    }

    /// Kind of this bitstream.
    pub fn kind(&self) -> BitstreamKind {
        self.kind
    }

    /// Target-device IDCODE.
    pub fn idcode(&self) -> u32 {
        self.idcode
    }

    /// Whether multi-frame-write compression was used.
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    /// The raw configuration words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size in bytes (what gets stored in DRAM and streamed through the ICAP).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Number of distinct frames this bitstream configures.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// The build-time storage-integrity CRC over the word stream.
    pub fn integrity(&self) -> u32 {
        self.integrity
    }

    /// Recomputes the storage CRC and compares it to the build-time value.
    ///
    /// `false` means the stream was corrupted after the builder produced it
    /// (bit rot, a faulty copy, a tampered registry entry).
    pub fn verify_integrity(&self) -> bool {
        Bitstream::stream_integrity(&self.words) == self.integrity
    }

    /// Returns a copy of this bitstream with its word stream replaced.
    ///
    /// Intended for fault-injection testing (bit flips, truncation): the
    /// metadata — including the build-time integrity CRC — is kept while
    /// only the stream changes, so both the ICAP's in-stream checks and the
    /// registry's at-lookup [`Bitstream::verify_integrity`] can be exercised
    /// against corrupted copies. What is cached from the old words (frame
    /// set, relocation sites, FDRI check codes) is not carried over.
    pub fn with_words(&self, words: Vec<u32>) -> Bitstream {
        Bitstream {
            kind: self.kind,
            idcode: self.idcode,
            compressed: self.compressed,
            words,
            frames: self.frames,
            integrity: self.integrity,
            frame_words: self.frame_words,
            frame_set: OnceLock::new(),
            sites: OnceLock::new(),
            fdri_checks: OnceLock::new(),
        }
    }

    /// The check codes of this stream's FDRI words, one byte per word in
    /// walk order, once a load has published them: what lets every load
    /// after the first copy its frames' codes instead of encoding them.
    pub(crate) fn fdri_checks(&self) -> Option<&[u8]> {
        self.fdri_checks.get().map(|checks| &checks[..])
    }

    /// Caches `checks` as [`Bitstream::fdri_checks`], unless a load
    /// already did. Only a load that succeeded may publish: it walked
    /// every FDRI word, under the frame size of the stream's own part.
    pub(crate) fn publish_fdri_checks(&self, checks: Vec<u8>) {
        self.fdri_checks.get_or_init(|| checks.into());
    }

    /// The sorted, duplicate-free addresses of every frame this stream
    /// writes — the region a load of it configures. Computed by one walk
    /// over the packets on first use and cached with the stream, so every
    /// holder of the same `Arc<Bitstream>` shares one set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedBitstream`] for packet-layer violations
    /// the ICAP would also reject.
    pub fn frame_set(&self) -> Result<&Arc<[FrameAddress]>, Error> {
        self.frame_set_like(None)
    }

    /// [`Bitstream::frame_set`], adopting `like` as the cached set when
    /// it holds exactly the computed addresses: streams that configure
    /// the same region then share one allocation, and comparing them is
    /// a pointer comparison. An already cached set is returned as is.
    pub(crate) fn frame_set_like(
        &self,
        like: Option<&Arc<[FrameAddress]>>,
    ) -> Result<&Arc<[FrameAddress]>, Error> {
        if let Some(set) = self.frame_set.get() {
            return Ok(set);
        }
        let mut addrs = Vec::new();
        self.for_each_frame_write(|addr, _| {
            addrs.push(addr);
            Ok(())
        })?;
        addrs.sort_unstable();
        addrs.dedup();
        let set = match like {
            Some(like) if **like == *addrs => Arc::clone(like),
            _ => Arc::from(addrs),
        };
        Ok(self.frame_set.get_or_init(|| set))
    }

    /// Visits the frame writes of this stream in stream order: every
    /// [`Step::Frame`] and [`Step::Replay`] of [`Bitstream::walk`], so a
    /// frame written more than once is visited once per write and the
    /// last visit is the one that sticks. Nothing is checked beyond the
    /// packet structure; the ICAP checks the IDCODE and CRC words.
    ///
    /// # Errors
    ///
    /// Returns `write`'s error, or [`Error::MalformedBitstream`] when the
    /// packets cannot be walked.
    pub(crate) fn for_each_frame_write<'a>(
        &'a self,
        mut write: impl FnMut(FrameAddress, &'a [u32]) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.walk(self.frame_words, |step| match step {
            Step::Frame(addr, data) | Step::Replay(addr, data) => write(addr, data),
            _ => Ok(()),
        })
    }

    /// Runs the configuration logic's packet state machine over the
    /// stream with `frame_words`-word frames and hands each effect to
    /// `step`, in stream order, stopping at the first error. Words before
    /// the sync word (and after a DESYNC, until the next one) are skipped;
    /// an FDRI burst writes whole frames from the current FAR with the
    /// minor index auto-incrementing and latches its last frame; an MFWR
    /// replays that frame at the current FAR. This is the one packet
    /// decoder: [`crate::icap::Icap::load`] applies its steps to
    /// configuration memory, [`Bitstream::relocate`] rewrites the words
    /// its FAR and CRC steps point at, and a stream's frame set, column
    /// span and golden image are read from the same steps.
    ///
    /// # Errors
    ///
    /// Returns `step`'s error, or [`Error::MalformedBitstream`] for
    /// packet-layer violations: a truncated packet, a multi-word write to
    /// a one-word register, an unknown command, a frame write with no FAR
    /// or a partial frame, MFWR outside multi-frame-write mode or with an
    /// empty frame shadow, and a stream that never desyncs.
    pub(crate) fn walk<'a>(
        &'a self,
        frame_words: usize,
        mut step: impl FnMut(Step<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let words = &self.words[..];
        let mut synced = false;
        let mut desynced = false;
        let mut far: Option<FrameAddress> = None;
        // The multi-frame shadow register: the last FDRI frame, borrowed
        // from the stream.
        let mut shadow: &[u32] = &[];
        let mut multi_frame = false;
        let mut i = 0usize;
        while i < words.len() {
            let w = words[i];
            i += 1;
            if !synced {
                // Dummy/pad words before sync are skipped silently.
                synced = w == SYNC_WORD;
                continue;
            }
            let (reg, count) = match decode_header(w)? {
                PacketHeader::Nop => continue,
                // Large FDRI continuation.
                PacketHeader::Type2Write { count } => (None, count as usize),
                PacketHeader::Type1Write { reg, count } => (Some(reg), count as usize),
            };
            if i + count > words.len() {
                return Err(Error::MalformedBitstream {
                    detail: format!("truncated packet: wanted {count} payload words"),
                });
            }
            let at = i;
            let payload = &words[at..at + count];
            i += count;
            match reg {
                None => burst(payload, frame_words, &mut far, &mut shadow, &mut step)?,
                Some(ConfigReg::Idcode) => step(Step::Idcode(single(payload)?))?,
                Some(ConfigReg::Cmd) => {
                    let command = Command::from_value(single(payload)?).ok_or_else(|| {
                        Error::MalformedBitstream {
                            detail: "unknown command opcode".into(),
                        }
                    })?;
                    match command {
                        Command::Wcfg => multi_frame = false,
                        Command::Mfw => multi_frame = true,
                        Command::Desync => {
                            desynced = true;
                            synced = false;
                        }
                        Command::Rcrc => {}
                    }
                    step(Step::Command(command))?;
                }
                Some(ConfigReg::Far) => {
                    let value = single(payload)?;
                    far = Some(FrameAddress::unpack(value));
                    step(Step::Far { value, at })?;
                }
                // A zero-count FDRI write: the payload follows in a
                // type-2 packet.
                Some(ConfigReg::Fdri) if count == 0 => {}
                Some(ConfigReg::Fdri) => {
                    burst(payload, frame_words, &mut far, &mut shadow, &mut step)?
                }
                Some(ConfigReg::Mfwr) => {
                    if !multi_frame {
                        return Err(Error::MalformedBitstream {
                            detail: "MFWR outside multi-frame-write mode".into(),
                        });
                    }
                    let addr = far.ok_or_else(|| Error::MalformedBitstream {
                        detail: "MFWR with no FAR set".into(),
                    })?;
                    if shadow.len() != frame_words {
                        return Err(Error::MalformedBitstream {
                            detail: "MFWR with empty frame shadow register".into(),
                        });
                    }
                    step(Step::Replay(addr, shadow))?;
                }
                Some(ConfigReg::Crc) => step(Step::Crc {
                    value: single(payload)?,
                    at,
                })?,
            }
        }
        if !desynced {
            return Err(Error::MalformedBitstream {
                detail: "bitstream ended without DESYNC".into(),
            });
        }
        Ok(())
    }

    /// A synthetic compressed partial bitstream for tests, scenarios and
    /// benches: `frames` minor frames in row 0 of every column in
    /// `cols`, with frame `(col, minor)` holding the word `col + minor`
    /// throughout. The words set the compressed size, and so the virtual
    /// reconfiguration time, of every stream built this way.
    ///
    /// # Errors
    ///
    /// Returns an error if a frame address is invalid for `device`.
    pub fn synthetic_partial(
        device: &Device,
        cols: Range<u32>,
        frames: u32,
    ) -> Result<Bitstream, Error> {
        let mut builder = BitstreamBuilder::new(device, BitstreamKind::Partial);
        let mut frame = vec![0; device.part().family().frame_words()];
        for col in cols {
            for minor in 0..frames {
                frame.fill(col + minor);
                builder.add_frame(FrameAddress::new(0, col, minor), &frame)?;
            }
        }
        Ok(builder.build(true))
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} bitstream: {} frames, {} KB{}",
            self.kind,
            self.frames,
            self.size_bytes() / 1024,
            if self.compressed { " (compressed)" } else { "" }
        )
    }
}

impl Bitstream {
    /// The columns this stream writes, as the covering span (holes
    /// included): the base column and width a region lease must provide.
    /// Read from the cached [`Bitstream::frame_set`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedBitstream`] for packet-layer violations
    /// or a stream that writes no frames at all.
    pub fn column_span(&self) -> Result<Range<u32>, Error> {
        let set = self.frame_set()?;
        let mut columns = set.iter().map(|a| a.column);
        let first = columns.next().ok_or_else(|| Error::MalformedBitstream {
            detail: "bitstream writes no frames: nothing to place".into(),
        })?;
        let (lo, hi) = columns.fold((first, first), |(lo, hi), c| (lo.min(c), hi.max(c)));
        Ok(lo..hi + 1)
    }

    /// Rewrites the stream to target a region `col_delta` columns away,
    /// keeping the configured payload bit-identical.
    ///
    /// Every FAR word is moved by [`Device::shift_frame`]. Both CRCs are
    /// updated by what the moved addresses change, not re-folded over the
    /// frame data: CRC-32 is linear, so the change needs only the
    /// rewritten words and the distances between them. The CRC word takes
    /// the in-stream CRC's change and the storage-integrity CRC the change
    /// of every rewritten word, so a stream passes the ICAP's CRC check and
    /// [`Bitstream::verify_integrity`] after the move exactly when it
    /// passed them before. Raw and MFW-compressed streams relocate
    /// identically — which is what makes relocate-then-decompress equal
    /// decompress-then-relocate.
    ///
    /// The first relocation walks the packets to find the FAR and CRC
    /// words; the relocated stream has the same packets, so it inherits
    /// those sites and any published FDRI check codes (its FDRI words are
    /// the same), and a cached frame set carries over shifted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IdcodeMismatch`] when the stream targets another
    /// part, [`Error::BadFrameAddress`] when a rewritten address leaves the
    /// fabric or lands on a column of a different kind (the frame geometry
    /// would differ), and [`Error::MalformedBitstream`] for the
    /// packet-layer violations the ICAP refuses.
    pub fn relocate(&self, device: &Device, col_delta: i64) -> Result<Bitstream, Error> {
        if self.idcode != device.part().idcode() {
            return Err(Error::IdcodeMismatch {
                found: self.idcode,
                device: device.part().idcode(),
            });
        }
        let sites = self.relocation_sites()?;
        let mut words = self.words.clone();
        // The rewritten words as (position, XOR difference): among the
        // words the in-stream CRC covers since the last RCRC, and in the
        // stream for the storage CRC.
        let mut in_stream = Vec::with_capacity(sites.len());
        let mut storage = Vec::with_capacity(sites.len());
        for &site in sites.iter() {
            match site {
                Site::Rcrc => in_stream.clear(),
                Site::Far { at, covered } => {
                    let moved = device
                        .shift_frame(FrameAddress::unpack(words[at]), col_delta)?
                        .pack();
                    let diff = words[at] ^ moved;
                    in_stream.push((covered, diff));
                    storage.push((at, diff));
                    words[at] = moved;
                }
                Site::Crc { at, covered } => {
                    let diff = crc::rewrite_delta(covered, &in_stream);
                    storage.push((at, diff));
                    words[at] ^= diff;
                }
            }
        }
        let integrity = self.integrity ^ crc::rewrite_delta(words.len(), &storage);
        // A uniform column shift keeps (row, column, minor) order, so a
        // cached frame set carries over without a re-walk or a sort.
        let frame_set = OnceLock::new();
        if let Some(set) = self.frame_set.get() {
            let shifted = set
                .iter()
                .map(|&a| device.shift_frame(a, col_delta))
                .collect::<Result<_, _>>()?;
            let _ = frame_set.set(shifted);
        }
        Ok(Bitstream {
            kind: self.kind,
            idcode: self.idcode,
            compressed: self.compressed,
            words,
            frames: self.frames,
            integrity,
            frame_words: self.frame_words,
            frame_set,
            sites: OnceLock::from(Arc::clone(sites)),
            fdri_checks: self.fdri_checks.clone(),
        })
    }

    /// The words [`Bitstream::relocate`] rewrites, in stream order: read
    /// by one packet walk on first use and cached with the stream.
    fn relocation_sites(&self) -> Result<&Arc<[Site]>, Error> {
        if let Some(sites) = self.sites.get() {
            return Ok(sites);
        }
        let mut sites = Vec::new();
        let mut covered = 0;
        self.walk(self.frame_words, |step| {
            match step {
                Step::Command(Command::Rcrc) => {
                    sites.push(Site::Rcrc);
                    covered = 0;
                }
                Step::Far { at, .. } => {
                    sites.push(Site::Far { at, covered });
                    covered += 1;
                }
                Step::Frame(_, data) => covered += data.len(),
                Step::Crc { at, .. } => sites.push(Site::Crc { at, covered }),
                _ => {}
            }
            Ok(())
        })?;
        Ok(self.sites.get_or_init(|| sites.into()))
    }
}

/// Builds bitstreams from frame data.
///
/// Staging costs what the stream carries. A non-blank payload is copied
/// once into one contiguous word arena; a blank (all-zero) payload costs
/// one zero test and is recorded by its address alone. Adds are kept in
/// arrival order and emitted in address order: only when they did not
/// arrive strictly ascending does [`BitstreamBuilder::build`] sort them
/// (stably, so the last write to an address wins).
///
/// # Example
///
/// ```
/// use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
/// use presp_fpga::frame::FrameAddress;
/// use presp_fpga::part::FpgaPart;
///
/// let device = FpgaPart::Vc707.device();
/// let mut builder = BitstreamBuilder::new(&device, BitstreamKind::Partial);
/// let words = device.part().family().frame_words();
/// builder.add_frame(FrameAddress::new(0, 1, 0), vec![0x1234_5678; words])?;
/// let bs = builder.build(true);
/// assert!(bs.size_bytes() > 0);
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitstreamBuilder {
    device: Device,
    kind: BitstreamKind,
    frame_words: usize,
    /// Payloads of the staged non-blank frames, `frame_words` words each.
    arena: Vec<u32>,
    /// Every add in arrival order: the address and the index of its
    /// payload in `arena` (`None` for a blank frame).
    entries: Vec<Staged>,
    /// Whether `entries` is strictly ascending by address, so it is
    /// already the emit order with no address repeated.
    ascending: bool,
    /// One all-zero frame: the payload of every blank entry.
    blank: Vec<u32>,
}

/// One staged frame: its address and its arena payload, if not blank.
type Staged = (FrameAddress, Option<u32>);

/// Words before the frame data: dummy, sync, RCRC, IDCODE check, WCFG.
const HEADER_WORDS: usize = 8;
/// Words after the frame data: the CRC check and DESYNC.
const TRAILER_WORDS: usize = 4;

impl BitstreamBuilder {
    /// Creates a builder targeting `device`.
    pub fn new(device: &Device, kind: BitstreamKind) -> BitstreamBuilder {
        let frame_words = device.part().family().frame_words();
        BitstreamBuilder {
            device: device.clone(),
            kind,
            frame_words,
            arena: Vec::new(),
            entries: Vec::new(),
            ascending: true,
            blank: vec![0; frame_words],
        }
    }

    /// Adds (or replaces) the payload for one frame. The words are copied,
    /// so a caller can generate every frame into one reused buffer; an
    /// all-zero payload is staged as a blank frame and not copied.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is invalid for the device or the
    /// payload has the wrong length.
    pub fn add_frame(&mut self, addr: FrameAddress, data: impl AsRef<[u32]>) -> Result<(), Error> {
        let data = data.as_ref();
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
        let payload = if data == self.blank.as_slice() {
            None
        } else {
            let index = (self.arena.len() / self.frame_words) as u32;
            self.arena.extend_from_slice(data);
            Some(index)
        };
        self.ascending &= self.entries.last().is_none_or(|&(last, _)| last < addr);
        self.entries.push((addr, payload));
        Ok(())
    }

    /// Number of distinct frames staged so far.
    pub fn frame_count(&self) -> usize {
        self.staged().len()
    }

    /// The staged frames in address order, one per address, each holding
    /// its last write.
    fn staged(&self) -> Cow<'_, [Staged]> {
        if self.ascending {
            return Cow::Borrowed(&self.entries);
        }
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(addr, _)| addr);
        // The sort is stable, so of equal addresses the later one is the
        // later write: it overwrites the earlier before being removed.
        sorted.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                *earlier = *later;
            }
            same
        });
        Cow::Owned(sorted)
    }

    /// The words of a staged payload.
    fn payload(&self, index: Option<u32>) -> &[u32] {
        match index {
            Some(i) => &self.arena[i as usize * self.frame_words..][..self.frame_words],
            None => &self.blank,
        }
    }

    /// Serializes the staged frames into a bitstream.
    ///
    /// With `compressed = true` the builder groups identical frame payloads
    /// and emits each payload once through FDRI followed by FAR+MFWR writes
    /// for the remaining addresses — the multi-frame-write scheme behind
    /// Vivado's `BITSTREAM.GENERAL.COMPRESS` option.
    pub fn build(&self, compressed: bool) -> Bitstream {
        let staged = self.staged();
        let mut crc = CrcAccumulator::new();
        let words = if compressed {
            self.emit_compressed(&staged, &mut crc)
        } else {
            self.emit_linear(&staged, &mut crc)
        };
        let integrity = Bitstream::stream_integrity(&words);
        Bitstream {
            kind: self.kind,
            idcode: self.device.part().idcode(),
            compressed,
            words,
            frames: staged.len(),
            integrity,
            frame_words: self.frame_words,
            frame_set: OnceLock::new(),
            sites: OnceLock::new(),
            fdri_checks: OnceLock::new(),
        }
    }

    /// The output buffer, reserved for exactly `body` words of frame
    /// packets, holding the header.
    fn open(&self, body: usize) -> Vec<u32> {
        let mut words = Vec::with_capacity(HEADER_WORDS + body + TRAILER_WORDS);
        words.push(DUMMY_WORD);
        words.push(SYNC_WORD);
        words.push(type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Rcrc as u32);
        words.push(type1_write(ConfigReg::Idcode, 1));
        words.push(self.device.part().idcode());
        words.push(type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Wcfg as u32);
        words
    }

    /// Appends the CRC check and DESYNC; the reservation was exact.
    fn close(words: &mut Vec<u32>, crc: &CrcAccumulator) {
        words.push(type1_write(ConfigReg::Crc, 1));
        words.push(crc.value());
        words.push(type1_write(ConfigReg::Cmd, 1));
        words.push(Command::Desync as u32);
        debug_assert_eq!(words.len(), words.capacity(), "output reservation");
    }

    /// Emits frames in address order, merging contiguous runs into one FDRI
    /// burst per run.
    fn emit_linear(&self, staged: &[Staged], crc: &mut CrcAccumulator) -> Vec<u32> {
        // Runs of contiguous minors within one (row, column).
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (i, pair) in staged.windows(2).enumerate() {
            let (a, b) = (pair[0].0, pair[1].0);
            if b.row != a.row || b.column != a.column || b.minor != a.minor + 1 {
                runs.push(runs.last().map_or(0, |r| r.end)..i + 1);
            }
        }
        if !staged.is_empty() {
            runs.push(runs.last().map_or(0, |r| r.end)..staged.len());
        }
        let fdri_words = |len: usize| len * self.frame_words;
        let body: usize = runs
            .iter()
            .map(|r| 2 + if fdri_words(r.len()) < 1 << 13 { 1 } else { 2 })
            .sum::<usize>()
            + fdri_words(staged.len());

        let mut words = self.open(body);
        for run in runs {
            let far = staged[run.start].0.pack();
            words.push(type1_write(ConfigReg::Far, 1));
            words.push(far);
            crc.update(far);
            let payload_words = fdri_words(run.len());
            if payload_words < (1 << 13) {
                words.push(type1_write(ConfigReg::Fdri, payload_words as u32));
            } else {
                words.push(type1_write(ConfigReg::Fdri, 0));
                words.push(type2_write(payload_words as u32));
            }
            for &(_, index) in &staged[run] {
                let frame = self.payload(index);
                words.extend_from_slice(frame);
                crc.update_words(frame);
            }
        }
        BitstreamBuilder::close(&mut words, crc);
        words
    }

    /// Emits each distinct payload once, then multi-frame-writes it to every
    /// address that shares it.
    ///
    /// Groups follow the address order of their first frame, and each
    /// group's addresses stay in address order, so the words do not depend
    /// on the hash: every blank frame joins one group with no hashing, and
    /// only non-blank payloads go through a map keyed by their words (a
    /// match is an equal payload, not an equal hash).
    fn emit_compressed(&self, staged: &[Staged], crc: &mut CrcAccumulator) -> Vec<u32> {
        // Per group (in order of first address): its payload and size.
        let mut groups: Vec<(Option<u32>, usize)> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(staged.len());
        let mut blank_group = None;
        let mut by_payload: HashMap<&[u32], usize> = HashMap::new();
        for &(_, index) in staged {
            let g = match index {
                None => *blank_group.get_or_insert_with(|| {
                    groups.push((None, 0));
                    groups.len() - 1
                }),
                Some(_) => *by_payload.entry(self.payload(index)).or_insert_with(|| {
                    groups.push((index, 0));
                    groups.len() - 1
                }),
            };
            groups[g].1 += 1;
            group_of.push(g);
        }

        // Each group's members, contiguous and in address order.
        let mut start: Vec<usize> = Vec::with_capacity(groups.len() + 1);
        start.push(0);
        for &(_, len) in &groups {
            start.push(start[start.len() - 1] + len);
        }
        let mut next = start.clone();
        let mut members = vec![0usize; staged.len()];
        for (i, &g) in group_of.iter().enumerate() {
            members[next[g]] = i;
            next[g] += 1;
        }

        let body: usize = groups
            .iter()
            .map(|&(_, len)| {
                let replays = len - 1;
                // FAR, FDRI and the frame; then MFW, FAR+MFWR per replay, WCFG.
                3 + self.frame_words + if replays > 0 { 4 + 4 * replays } else { 0 }
            })
            .sum();
        let mut words = self.open(body);
        for (g, &(index, _)) in groups.iter().enumerate() {
            let addrs = &members[start[g]..start[g + 1]];
            let frame = self.payload(index);
            let far = staged[addrs[0]].0.pack();
            words.push(type1_write(ConfigReg::Far, 1));
            words.push(far);
            crc.update(far);
            words.push(type1_write(ConfigReg::Fdri, self.frame_words as u32));
            words.extend_from_slice(frame);
            crc.update_words(frame);
            if addrs.len() > 1 {
                // The frame now sits in the frame-data shadow register:
                // switch to MFW and replay it at each further address.
                words.push(type1_write(ConfigReg::Cmd, 1));
                words.push(Command::Mfw as u32);
                for &i in &addrs[1..] {
                    let far = staged[i].0.pack();
                    words.push(type1_write(ConfigReg::Far, 1));
                    words.push(far);
                    crc.update(far);
                    words.push(type1_write(ConfigReg::Mfwr, 1));
                    words.push(0);
                }
                words.push(type1_write(ConfigReg::Cmd, 1));
                words.push(Command::Wcfg as u32);
            }
        }
        BitstreamBuilder::close(&mut words, crc);
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_memory::Frame;
    use crate::part::FpgaPart;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn frame_of(device: &Device, value: u32) -> Frame {
        vec![value; device.part().family().frame_words()]
    }

    #[test]
    fn header_codec_roundtrip() {
        let h = type1_write(ConfigReg::Fdri, 101);
        assert_eq!(
            decode_header(h).unwrap(),
            PacketHeader::Type1Write {
                reg: ConfigReg::Fdri,
                count: 101
            }
        );
        let h2 = type2_write(123_456);
        assert_eq!(
            decode_header(h2).unwrap(),
            PacketHeader::Type2Write { count: 123_456 }
        );
    }

    #[test]
    fn dummy_word_is_not_a_valid_packet() {
        assert!(decode_header(DUMMY_WORD).is_err());
    }

    #[test]
    fn synthetic_partial_writes_col_plus_minor_into_every_frame() {
        let d = device();
        let bs = Bitstream::synthetic_partial(&d, 3..5, 2).unwrap();
        assert_eq!(bs.kind(), BitstreamKind::Partial);
        assert!(bs.compressed());
        assert_eq!(bs.frame_count(), 4);
        let mut icap = crate::icap::Icap::new(&d);
        icap.load(&bs).unwrap();
        let addresses: Vec<_> = [(3, 0), (3, 1), (4, 0), (4, 1)]
            .map(|(col, minor)| FrameAddress::new(0, col, minor))
            .into();
        assert_eq!(icap.memory().configured_addresses(), addresses);
        for addr in addresses {
            assert_eq!(
                icap.memory().frame(addr),
                frame_of(&d, addr.column + addr.minor),
                "{addr:?}"
            );
        }
        assert!(Bitstream::synthetic_partial(&d, 0..1, 1_000_000).is_err());
    }

    #[test]
    fn bitstream_starts_with_sync_sequence() {
        let d = device();
        let builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        let bs = builder.build(false);
        assert_eq!(bs.words()[0], DUMMY_WORD);
        assert_eq!(bs.words()[1], SYNC_WORD);
    }

    #[test]
    fn compression_shrinks_duplicate_frames() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        for minor in 0..36 {
            builder
                .add_frame(FrameAddress::new(0, 1, minor), frame_of(&d, 0xCAFE_F00D))
                .unwrap();
        }
        let raw = builder.build(false);
        let compressed = builder.build(true);
        assert!(compressed.size_bytes() < raw.size_bytes() / 4);
        assert_eq!(raw.frame_count(), 36);
        assert_eq!(compressed.frame_count(), 36);
    }

    #[test]
    fn compression_does_not_help_unique_frames() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        for minor in 0..8 {
            builder
                .add_frame(FrameAddress::new(0, 1, minor), frame_of(&d, 0x1000 + minor))
                .unwrap();
        }
        let raw = builder.build(false);
        let compressed = builder.build(true);
        // Unique frames gain nothing; per-frame FAR writes cost a little more.
        assert!(compressed.size_bytes() as f64 >= raw.size_bytes() as f64 * 0.95);
    }

    #[test]
    fn crc_changes_with_payload() {
        let mut a = CrcAccumulator::new();
        let mut b = CrcAccumulator::new();
        a.update(1);
        b.update(2);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn rejects_bad_frames() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        assert!(builder
            .add_frame(FrameAddress::new(999, 0, 0), frame_of(&d, 0))
            .is_err());
        assert!(builder
            .add_frame(FrameAddress::new(0, 1, 0), vec![0; 3])
            .is_err());
    }

    #[test]
    fn display_mentions_frame_count() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Full);
        builder
            .add_frame(FrameAddress::new(0, 1, 0), frame_of(&d, 5))
            .unwrap();
        let text = format!("{}", builder.build(false));
        assert!(text.contains("1 frames"));
    }

    /// Add-or-replace, emit in address order: adds in any order, with
    /// repeated addresses, build what ascending unique adds of each
    /// address's last payload build.
    mod staging {
        use super::*;

        /// Each address's last payload: blank, shared by several addresses
        /// (an MFWR group) or unique; contiguous runs and gaps both occur.
        fn last_writes(d: &Device) -> Vec<(FrameAddress, Frame)> {
            let mut out = Vec::new();
            for (row, col) in [(0, 1), (0, 2), (1, 2), (3, 7)] {
                for minor in [0, 1, 2, 3, 5, 8] {
                    let value = match minor % 3 {
                        0 => 0,
                        1 => 0xAB,
                        _ => row << 16 | col << 8 | minor,
                    };
                    out.push((FrameAddress::new(row, col, minor), frame_of(d, value)));
                }
            }
            out
        }

        /// A payload the last write replaces: non-blank over a blank last
        /// write and blank under a non-blank one, so the blank path must
        /// honour last-write-wins both ways.
        fn earlier_write(d: &Device, last: &[u32]) -> Frame {
            frame_of(d, if last[0] == 0 { 0xDEAD } else { 0 })
        }

        fn build(d: &Device, adds: &[(FrameAddress, Frame)]) -> BitstreamBuilder {
            let mut builder = BitstreamBuilder::new(d, BitstreamKind::Partial);
            for (addr, frame) in adds {
                builder.add_frame(*addr, frame).unwrap();
            }
            builder
        }

        fn assert_same_stream(d: &Device, adds: &[(FrameAddress, Frame)], label: &str) {
            let reference = build(d, &last_writes(d));
            let builder = build(d, adds);
            assert_eq!(builder.frame_count(), reference.frame_count(), "{label}");
            for compressed in [false, true] {
                let (want, got) = (reference.build(compressed), builder.build(compressed));
                assert_eq!(got.words(), want.words(), "{label} compressed={compressed}");
                assert_eq!(got.frame_count(), want.frame_count(), "{label}");
                assert!(got.verify_integrity(), "{label} compressed={compressed}");
            }
        }

        /// Fisher–Yates with an xorshift64 stream.
        fn shuffle<T>(items: &mut [T], mut state: u64) {
            for i in (1..items.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                items.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }

        #[test]
        fn shuffled_and_repeated_adds_build_the_ascending_stream() {
            let d = device();
            let last = last_writes(&d);
            for seed in 1..=8u64 {
                let mut shuffled = last.clone();
                shuffle(&mut shuffled, seed);
                assert_same_stream(&d, &shuffled, &format!("shuffled seed {seed}"));

                // Every address written twice: all earlier writes in one
                // order, then all last writes in another.
                let mut earlier: Vec<_> = last
                    .iter()
                    .map(|(addr, f)| (*addr, earlier_write(&d, f)))
                    .collect();
                shuffle(&mut earlier, seed * 31);
                earlier.extend(shuffled);
                assert_same_stream(&d, &earlier, &format!("repeated seed {seed}"));
            }
        }

        #[test]
        fn a_repeat_of_the_latest_address_replaces_it() {
            // Ascending except that each address is written twice in a
            // row, the second write replacing the first.
            let d = device();
            let twice: Vec<_> = last_writes(&d)
                .into_iter()
                .flat_map(|(addr, f)| [(addr, earlier_write(&d, &f)), (addr, f)])
                .collect();
            assert_same_stream(&d, &twice, "each address twice in a row");
        }

        #[test]
        fn blank_and_non_blank_writes_replace_each_other() {
            let d = device();
            let addr = FrameAddress::new(0, 1, 0);
            for (first, last) in [(7, 0), (0, 7)] {
                let twice = build(
                    &d,
                    &[(addr, frame_of(&d, first)), (addr, frame_of(&d, last))],
                );
                let once = build(&d, &[(addr, frame_of(&d, last))]);
                for compressed in [false, true] {
                    assert_eq!(
                        twice.build(compressed).words(),
                        once.build(compressed).words(),
                        "{first} then {last}, compressed={compressed}"
                    );
                }
            }
        }
    }

    /// Built streams against the bit-at-a-time CRC definition (the kernels
    /// themselves are tested in `crate::crc`).
    mod crc_kernel {
        use super::*;
        use crate::crc::tests::stream_bitwise;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whole built streams: the storage-integrity CRC and the
            /// in-stream CRC word both equal the bitwise definition.
            #[test]
            fn built_stream_crcs_match_the_bitwise_crc(
                values in proptest::collection::vec(0u32..u32::MAX, 1..6),
            ) {
                let d = device();
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                let far = FrameAddress::new(1, 2, 0);
                let mut covered = vec![far.pack()];
                for (minor, v) in values.iter().enumerate() {
                    let f = frame_of(&d, *v);
                    covered.extend_from_slice(&f);
                    builder.add_frame(FrameAddress::new(1, 2, minor as u32), f).unwrap();
                }
                for compressed in [false, true] {
                    let bs = builder.build(compressed);
                    prop_assert!(bs.verify_integrity());
                    prop_assert_eq!(bs.integrity(), stream_bitwise(bs.words()));
                }
                // Linear single-run layout: the in-stream CRC covers the FAR
                // value and every payload word, and sits three words from
                // the end ([CRC hdr, CRC, CMD hdr, DESYNC]).
                let linear = builder.build(false);
                let words = linear.words();
                prop_assert_eq!(words[words.len() - 3], stream_bitwise(&covered));
            }
        }
    }

    mod roundtrip {
        use super::*;
        use crate::icap::Icap;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Compress → decompress identity: streaming the MFW-compressed
            /// form through the ICAP configures the exact same fabric state
            /// as the linear form. The small value space forces duplicate
            /// payloads, so the MFW path is really exercised.
            #[test]
            fn compressed_and_raw_streams_configure_identical_fabric(
                values in proptest::collection::vec(0u32..4, 1..24),
                row in 0u32..7,
                col in 1u32..100,
            ) {
                let d = device();
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for (minor, v) in values.iter().enumerate() {
                    builder.add_frame(FrameAddress::new(row, col, minor as u32), frame_of(&d, *v)).unwrap();
                }
                let raw = builder.build(false);
                let compressed = builder.build(true);
                prop_assert_eq!(raw.frame_count(), values.len());
                prop_assert_eq!(compressed.frame_count(), values.len());
                let mut icap_raw = Icap::new(&d);
                let mut icap_cmp = Icap::new(&d);
                icap_raw.load(&raw).unwrap();
                icap_cmp.load(&compressed).unwrap();
                prop_assert!(icap_raw.memory().diff(icap_cmp.memory()).is_empty());
            }

            /// Any single-bit flip in a CRC-covered word — a frame payload
            /// word or the embedded CRC value itself — fails the load with
            /// a CRC mismatch; corruption is never silent.
            #[test]
            fn crc_detects_any_single_bit_flip_in_covered_words(
                n_frames in 1usize..8,
                pick in 0usize..1_000_000,
                bit in 0u32..32,
            ) {
                let d = device();
                let fw = d.part().family().frame_words();
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for minor in 0..n_frames {
                    builder.add_frame(
                        FrameAddress::new(1, 2, minor as u32),
                        frame_of(&d, 0xA5A5_0000 + minor as u32),
                    ).unwrap();
                }
                let bs = builder.build(false);
                // Linear single-run layout: 8 preamble words, FAR write (2),
                // FDRI header (1), payload, then [CRC hdr, CRC, CMD hdr,
                // DESYNC].
                let payload = n_frames * fw;
                prop_assert_eq!(bs.words().len(), 11 + payload + 4);
                let k = pick % (payload + 1);
                let index = if k == payload { bs.words().len() - 3 } else { 11 + k };
                let mut words = bs.words().to_vec();
                words[index] ^= 1 << bit;
                let mut icap = Icap::new(&d);
                let result = icap.load(&bs.with_words(words));
                prop_assert!(
                    matches!(result, Err(Error::CrcMismatch { .. })),
                    "flip at word {} bit {} was not detected: {:?}", index, bit, result
                );
            }

            /// Frame-count accounting survives the round trip: re-adding an
            /// address replaces its payload (no double count), and both
            /// serialized forms report exactly the staged frames.
            #[test]
            fn frame_count_accounts_distinct_addresses(
                seeds in proptest::collection::vec((0u32..7, 1u32..100, 0u32..28, 0u32..u32::MAX), 1..20),
            ) {
                let d = device();
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                let mut staged = std::collections::BTreeSet::new();
                for (row, col, minor, v) in seeds {
                    let addr = FrameAddress::new(row, col, minor);
                    if d.validate_frame(addr).is_ok() {
                        builder.add_frame(addr, frame_of(&d, v)).unwrap();
                        staged.insert(addr);
                    }
                }
                prop_assume!(!staged.is_empty());
                prop_assert_eq!(builder.frame_count(), staged.len());
                prop_assert_eq!(builder.build(false).frame_count(), staged.len());
                prop_assert_eq!(builder.build(true).frame_count(), staged.len());
            }
        }
    }

    mod relocation {
        use super::*;
        use crate::ecc::FrameRepair;
        use crate::fabric::ColumnKind;
        use crate::icap::Icap;
        use proptest::prelude::*;

        fn clb_columns(d: &Device) -> Vec<u32> {
            (0..d.columns())
                .filter(|&i| d.column_kind(i) == ColumnKind::Clb)
                .map(|i| i as u32)
                .collect()
        }

        #[test]
        fn column_span_is_the_covering_span() {
            let d = device();
            let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
            builder
                .add_frame(FrameAddress::new(2, 5, 3), frame_of(&d, 1))
                .unwrap();
            builder
                .add_frame(FrameAddress::new(1, 8, 0), frame_of(&d, 1))
                .unwrap();
            // Frame-set order is (row, column, minor): the span is read
            // over every column, not from the first and last address.
            builder
                .add_frame(FrameAddress::new(3, 6, 0), frame_of(&d, 2))
                .unwrap();
            assert_eq!(builder.build(false).column_span().unwrap(), 5..9);
            // Compression addresses the same columns through MFW replay.
            assert_eq!(builder.build(true).column_span().unwrap(), 5..9);
        }

        #[test]
        fn column_span_of_an_empty_stream_is_an_error() {
            let d = device();
            let bs = BitstreamBuilder::new(&d, BitstreamKind::Partial).build(false);
            assert!(matches!(
                bs.column_span(),
                Err(Error::MalformedBitstream { .. })
            ));
        }

        /// Streams the ICAP refuses are refused by relocation and
        /// placement too: one decoder, one verdict.
        #[test]
        fn relocation_and_placement_refuse_what_the_icap_refuses() {
            let d = device();
            let clbs = clb_columns(&d);
            let delta = i64::from(clbs[1]) - i64::from(clbs[0]);
            let far = FrameAddress::new(0, clbs[0], 0).pack();
            let frame = frame_of(&d, 7);
            let stream = |body: &[u32], desync: bool| {
                let mut words = vec![DUMMY_WORD, SYNC_WORD];
                words.extend_from_slice(body);
                if desync {
                    words.extend([type1_write(ConfigReg::Cmd, 1), Command::Desync as u32]);
                }
                BitstreamBuilder::new(&d, BitstreamKind::Partial)
                    .build(false)
                    .with_words(words)
            };
            let mut fdri = vec![type1_write(ConfigReg::Fdri, frame.len() as u32)];
            fdri.extend_from_slice(&frame);
            let mut written = vec![type1_write(ConfigReg::Far, 1), far];
            written.extend_from_slice(&fdri);
            let mut replayed = written.clone();
            replayed.extend([type1_write(ConfigReg::Mfwr, 1), 0]);
            let complete = stream(&written, true);
            let truncated = complete.with_words(complete.words()[..8].to_vec());
            let cases = [
                ("no DESYNC", stream(&written, false)),
                (
                    "MFWR outside multi-frame-write mode",
                    stream(&replayed, true),
                ),
                ("FDRI with no FAR set", stream(&fdri, true)),
                ("truncated packet", truncated),
            ];
            for (what, bs) in cases {
                assert!(
                    matches!(
                        Icap::new(&d).load(&bs),
                        Err(Error::MalformedBitstream { .. })
                    ),
                    "{what}: the ICAP must refuse it"
                );
                assert!(
                    matches!(
                        bs.relocate(&d, delta),
                        Err(Error::MalformedBitstream { .. })
                    ),
                    "{what}: relocated"
                );
                assert!(
                    matches!(bs.column_span(), Err(Error::MalformedBitstream { .. })),
                    "{what}: placed"
                );
            }
            // The well-formed stream they were cut from relocates and places.
            assert_eq!(complete.column_span().unwrap(), clbs[0]..clbs[0] + 1);
            assert!(complete.relocate(&d, delta).is_ok());
        }

        #[test]
        fn relocate_by_zero_is_the_identity() {
            let d = device();
            let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
            builder
                .add_frame(FrameAddress::new(0, 2, 0), frame_of(&d, 0xAB))
                .unwrap();
            let bs = builder.build(true);
            let moved = bs.relocate(&d, 0).unwrap();
            assert_eq!(moved.words(), bs.words());
            assert_eq!(moved.integrity(), bs.integrity());
        }

        #[test]
        fn relocate_rejects_leaving_the_fabric() {
            let d = device();
            let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
            builder
                .add_frame(FrameAddress::new(0, 2, 0), frame_of(&d, 1))
                .unwrap();
            let bs = builder.build(false);
            assert!(matches!(
                bs.relocate(&d, -3),
                Err(Error::BadFrameAddress { .. })
            ));
            assert!(matches!(
                bs.relocate(&d, d.columns() as i64),
                Err(Error::BadFrameAddress { .. })
            ));
        }

        #[test]
        fn relocate_rejects_a_column_kind_change() {
            let d = device();
            let clbs = clb_columns(&d);
            // Find a Clb column whose right neighbour is not Clb: shifting by
            // one maps Clb frame geometry onto a different column kind.
            let src = clbs
                .iter()
                .copied()
                .find(|&c| {
                    (c as usize + 1) < d.columns()
                        && d.column_kind(c as usize + 1) != ColumnKind::Clb
                })
                .expect("interleaved fabric has a Clb column with a non-Clb neighbour");
            let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
            builder
                .add_frame(FrameAddress::new(0, src, 0), frame_of(&d, 1))
                .unwrap();
            let err = builder.build(false).relocate(&d, 1).unwrap_err();
            assert!(matches!(err, Error::BadFrameAddress { .. }), "{err}");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Relocation commutes with decompression over random regions:
            /// relocating the MFW-compressed stream and then loading it
            /// configures the exact same fabric state as loading the raw
            /// relocated stream, and both match a stream built directly at
            /// the destination — the relocated streams *are* those builds,
            /// and relocating them back returns the originals. Frame counts
            /// and storage integrity survive the move.
            #[test]
            fn relocate_commutes_with_decompression(
                values in proptest::collection::vec(0u32..4, 1..16),
                row in 0u32..7,
                src_pick in 0usize..1000,
                dst_pick in 0usize..1000,
                width in 1u32..4,
            ) {
                let d = device();
                let clbs = clb_columns(&d);
                let src = clbs[src_pick % clbs.len()];
                let dst = clbs[dst_pick % clbs.len()];
                let delta = dst as i64 - src as i64;
                // Every column of the span must keep its kind at the
                // destination, or relocation (rightly) refuses.
                prop_assume!((0..width).all(|i| {
                    let s = src as usize + i as usize;
                    let t = (src as i64 + i as i64 + delta) as usize;
                    s < d.columns()
                        && t < d.columns()
                        && d.column_kind(s) == d.column_kind(t)
                        && d.column_kind(s).reconfigurable()
                }));
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                let mut shifted = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for (i, v) in values.iter().enumerate() {
                    let col = src + (i as u32 % width);
                    let minor = i as u32 / width;
                    builder
                        .add_frame(FrameAddress::new(row, col, minor), frame_of(&d, *v))
                        .unwrap();
                    shifted
                        .add_frame(
                            FrameAddress::new(row, (col as i64 + delta) as u32, minor),
                            frame_of(&d, *v),
                        )
                        .unwrap();
                }
                let raw = builder.build(false).relocate(&d, delta).unwrap();
                let compressed = builder.build(true).relocate(&d, delta).unwrap();
                for (moved, c) in [(&raw, false), (&compressed, true)] {
                    // Relocation is a build at the destination: words,
                    // integrity and frame count.
                    prop_assert_eq!(moved, &shifted.build(c));
                    // Moving back is the identity (round trip).
                    prop_assert_eq!(&moved.relocate(&d, -delta).unwrap(), &builder.build(c));
                }
                prop_assert_eq!(raw.frame_count(), values.len());
                prop_assert_eq!(compressed.frame_count(), values.len());
                prop_assert!(raw.verify_integrity());
                prop_assert!(compressed.verify_integrity());
                let mut icap_raw = Icap::new(&d);
                let mut icap_cmp = Icap::new(&d);
                let mut icap_direct = Icap::new(&d);
                icap_raw.load(&raw).unwrap();
                icap_cmp.load(&compressed).unwrap();
                icap_direct.load(&shifted.build(false)).unwrap();
                prop_assert!(icap_raw.memory().diff(icap_cmp.memory()).is_empty());
                prop_assert!(icap_raw.memory().diff(icap_direct.memory()).is_empty());
            }

            /// A stream's frame set is exactly what the ICAP writes when it
            /// loads the stream — raw or MFW-compressed, relocated with its
            /// set already cached or walked afresh.
            #[test]
            fn frame_set_is_what_the_icap_writes(
                values in proptest::collection::vec(0u32..4, 1..16),
                row in 0u32..7,
                width in 1u32..4,
                flags in 0u8..4,
                dst_pick in 0usize..1000,
            ) {
                let (compressed, cached) = (flags & 1 != 0, flags & 2 != 0);
                let d = device();
                let clbs = clb_columns(&d);
                let src = clbs[0];
                let dst = clbs[dst_pick % clbs.len()];
                let width = if (0..width).all(|i| d.column_kind((src + i) as usize) == ColumnKind::Clb
                    && d.column_kind((dst + i) as usize) == ColumnKind::Clb) { width } else { 1 };
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for (i, v) in values.iter().enumerate() {
                    let addr = FrameAddress::new(row, src + i as u32 % width, i as u32 / width);
                    builder.add_frame(addr, frame_of(&d, *v)).unwrap();
                }
                let bs = builder.build(compressed);
                let written = |bs: &Bitstream| {
                    let mut icap = Icap::new(&d);
                    icap.load(bs).unwrap();
                    let mut w = icap.last_written().to_vec();
                    w.sort_unstable();
                    w.dedup();
                    w
                };
                prop_assert_eq!(&**bs.frame_set().unwrap(), &written(&bs)[..]);
                let source = builder.build(compressed);
                if cached {
                    source.frame_set().unwrap();
                }
                let moved = source.relocate(&d, dst as i64 - src as i64).unwrap();
                prop_assert_eq!(&**moved.frame_set().unwrap(), &written(&moved)[..]);
            }

            /// The re-folded in-stream CRC still guards the moved stream:
            /// any single-bit flip in a covered word of the *relocated*
            /// bitstream fails the load with a CRC mismatch.
            #[test]
            fn crc_detects_any_single_bit_flip_after_relocation(
                n_frames in 1usize..8,
                pick in 0usize..1_000_000,
                bit in 0u32..32,
                dst_pick in 0usize..1000,
            ) {
                let d = device();
                let fw = d.part().family().frame_words();
                let clbs = clb_columns(&d);
                let src = clbs[0];
                let dst = clbs[dst_pick % clbs.len()];
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for minor in 0..n_frames {
                    builder.add_frame(
                        FrameAddress::new(1, src, minor as u32),
                        frame_of(&d, 0x5A5A_0000 + minor as u32),
                    ).unwrap();
                }
                let bs = builder.build(false).relocate(&d, dst as i64 - src as i64).unwrap();
                // Same linear single-run layout as the unmoved stream:
                // 8 preamble words, FAR write (2), FDRI header (1), payload,
                // then [CRC hdr, CRC, CMD hdr, DESYNC].
                let payload = n_frames * fw;
                prop_assert_eq!(bs.words().len(), 11 + payload + 4);
                let k = pick % (payload + 2);
                let index = match k {
                    k if k == payload => bs.words().len() - 3, // the CRC word
                    k if k == payload + 1 => 9,                // the rewritten FAR value
                    k => 11 + k,
                };
                let mut words = bs.words().to_vec();
                words[index] ^= 1 << bit;
                let mut icap = Icap::new(&d);
                let result = icap.load(&bs.with_words(words));
                prop_assert!(
                    matches!(result, Err(Error::CrcMismatch { .. }) | Err(Error::BadFrameAddress { .. })),
                    "flip at word {} bit {} was not detected: {:?}", index, bit, result
                );
            }

            /// The ECC shadow is in lockstep after a move: every frame a
            /// relocated stream wrote scrubs Clean, and the configured
            /// address count matches the frame accounting.
            #[test]
            fn ecc_scrubs_clean_after_relocated_load(
                values in proptest::collection::vec(0u32..64, 1..12),
                row in 0u32..7,
                dst_pick in 0usize..1000,
                compress in proptest::bool::ANY,
            ) {
                let d = device();
                let clbs = clb_columns(&d);
                let src = clbs[0];
                let dst = clbs[dst_pick % clbs.len()];
                let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
                for (minor, v) in values.iter().enumerate() {
                    builder
                        .add_frame(FrameAddress::new(row, src, minor as u32), frame_of(&d, *v))
                        .unwrap();
                }
                let moved = builder.build(compress).relocate(&d, dst as i64 - src as i64).unwrap();
                let mut icap = Icap::new(&d);
                let report = icap.load(&moved).unwrap();
                prop_assert_eq!(report.frames_written, values.len());
                let addrs = icap.last_written().to_vec();
                prop_assert_eq!(addrs.len(), values.len());
                for addr in addrs {
                    prop_assert_eq!(addr.column, dst);
                    prop_assert_eq!(
                        icap.memory_mut().scrub_frame(addr).unwrap(),
                        FrameRepair::Clean
                    );
                }
                // All-zero frames are stored as erased, so only non-zero
                // payloads count as configured.
                prop_assert_eq!(
                    icap.memory().configured_addresses().len(),
                    values.iter().filter(|&&v| v != 0).count()
                );
            }
        }
    }
}
