//! ICAP (internal configuration access port) model.
//!
//! The ICAP consumes the packet stream produced by
//! [`BitstreamBuilder`](crate::bitstream::BitstreamBuilder) one 32-bit word
//! per clock cycle and applies frame writes to a [`ConfigMemory`]. The word
//! count therefore *is* the reconfiguration latency — which is exactly why
//! the paper generates partial bitstreams in Vivado's compressed mode "to
//! reduce the memory access latency during reconfiguration" (Section VI).

use crate::bitstream::{Bitstream, CrcAccumulator, Step};
use crate::config_memory::ConfigMemory;
use crate::ecc::encode_into;
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::FrameAddress;

/// Nominal ICAP clock in MHz (both ICAPE2 and ICAPE3 are commonly run at
/// 100 MHz with a 32-bit data path).
pub const ICAP_CLOCK_MHZ: f64 = 100.0;

/// Outcome of streaming one bitstream through the ICAP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcapReport {
    /// Words consumed (one per ICAP clock cycle).
    pub words: usize,
    /// Frame writes applied to configuration memory, one per FDRI frame
    /// and per MFWR replay: a frame the stream writes twice counts twice.
    pub frames_written: usize,
    /// Reconfiguration latency in microseconds at [`ICAP_CLOCK_MHZ`].
    pub micros: f64,
}

impl IcapReport {
    /// Latency in ICAP clock cycles.
    pub fn cycles(&self) -> u64 {
        self.words as u64
    }
}

/// An ICAPE2/ICAPE3-style configuration port bound to a device's
/// configuration memory.
///
/// # Example
///
/// ```
/// use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
/// use presp_fpga::frame::FrameAddress;
/// use presp_fpga::icap::Icap;
/// use presp_fpga::part::FpgaPart;
///
/// let device = FpgaPart::Vc707.device();
/// let mut builder = BitstreamBuilder::new(&device, BitstreamKind::Partial);
/// let words = device.part().family().frame_words();
/// builder.add_frame(FrameAddress::new(0, 1, 0), vec![0xABCD_0123; words])?;
/// let bs = builder.build(true);
///
/// let mut icap = Icap::new(&device);
/// let report = icap.load(&bs)?;
/// assert_eq!(report.frames_written, 1);
/// assert_eq!(icap.memory().frame(FrameAddress::new(0, 1, 0))[0], 0xABCD_0123);
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Icap {
    device: Device,
    memory: ConfigMemory,
    frame_words: usize,
    last_written: Vec<FrameAddress>,
}

impl Icap {
    /// Creates an ICAP over a fresh (erased) configuration memory.
    pub fn new(device: &Device) -> Icap {
        Icap {
            device: device.clone(),
            memory: ConfigMemory::new(device),
            frame_words: device.part().family().frame_words(),
            last_written: Vec::new(),
        }
    }

    /// The configuration memory behind the port.
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Mutable access to the configuration memory — the hook SEU injection,
    /// readback scrubbing, and transactional rollback operate through. All
    /// mutation still funnels through [`ConfigMemory`]'s own doorway methods.
    pub fn memory_mut(&mut self) -> &mut ConfigMemory {
        &mut self.memory
    }

    /// Frame addresses written by the most recent [`Icap::load`] call, in
    /// write order (duplicates possible under multi-frame writes). This is
    /// what lets the runtime associate a tile with the region its partial
    /// bitstreams actually touch.
    pub fn last_written(&self) -> &[FrameAddress] {
        &self.last_written
    }

    /// Streams a bitstream through the port as one transaction: either
    /// every write lands, or none does.
    ///
    /// The configuration memory journals what each write displaces while
    /// the load runs (see [`ConfigMemory`]); on error it unwinds that
    /// journal, so the fabric is bit-identical — payload and check codes —
    /// to its state before the call. The cost is proportional to the
    /// frames the stream writes, not to the device.
    ///
    /// # Errors
    ///
    /// Returns the [`Icap::load`] error together with the number of frames
    /// whose payload the failed stream had changed before the rollback.
    pub fn load_or_rollback(
        &mut self,
        bitstream: &Bitstream,
    ) -> Result<IcapReport, (Error, usize)> {
        self.memory.begin_journal();
        match self.load(bitstream) {
            Ok(report) => {
                self.memory.commit_journal();
                Ok(report)
            }
            Err(e) => Err((e, self.memory.rollback_journal())),
        }
    }

    /// Streams a bitstream through the port, applying frame writes.
    ///
    /// Each frame is written with its SECDED check codes. The first load
    /// of a stream that succeeds encodes them and caches them with the
    /// stream; every later load of it copies them from there. The
    /// in-stream CRC is folded and checked on every load.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IdcodeMismatch`] when the bitstream targets another
    /// device, [`Error::CrcMismatch`] when the embedded CRC does not match
    /// the received payload, and [`Error::MalformedBitstream`] for packet
    /// layer violations. On error the configuration memory may be partially
    /// updated — exactly like real silicon, which is why the DFX controller
    /// resorts to loading a known-good bitstream after a failed transfer
    /// (and why the runtime loads through [`Icap::load_or_rollback`]).
    pub fn load(&mut self, bitstream: &Bitstream) -> Result<IcapReport, Error> {
        self.last_written.clear();
        let idcode = self.device.part().idcode();
        let (memory, last_written) = (&mut self.memory, &mut self.last_written);
        // The check codes of the stream's FDRI words: the table an earlier
        // load published, or `encoded`, filled by this walk and published
        // only if the load succeeds.
        let published = bitstream.fdri_checks();
        let mut encoded = Vec::new();
        // FDRI words walked so far, and where the last FDRI frame's codes
        // start in the table (`None`: it was all-zero). With the frame, that
        // is what an MFWR replay of it writes, with no rescan or encode.
        let mut fdri_words = 0usize;
        let mut latched: Option<usize> = None;
        let mut crc = CrcAccumulator::new();
        let mut frames_written = 0usize;
        bitstream.walk(self.frame_words, |step| {
            crc.fold(&step);
            match step {
                Step::Idcode(found) if found != idcode => {
                    return Err(Error::IdcodeMismatch {
                        found,
                        device: idcode,
                    })
                }
                Step::Idcode(_) | Step::Command(_) | Step::Far { .. } => {}
                Step::Frame(addr, data) | Step::Replay(addr, data) => {
                    if let Step::Frame(..) = step {
                        let at = fdri_words;
                        fdri_words += data.len();
                        latched = data.iter().any(|&w| w != 0).then_some(at);
                        if published.is_none() {
                            // An all-zero frame's code is all-zero.
                            encoded.resize(fdri_words, 0);
                            if latched.is_some() {
                                encode_into(data, &mut encoded[at..]);
                            }
                        }
                    }
                    let table = published.unwrap_or(&encoded);
                    let checks = latched.map(|at| &table[at..at + data.len()]);
                    memory.write_encoded(addr, data, checks)?;
                    last_written.push(addr);
                    frames_written += 1;
                }
                Step::Crc {
                    value: expected, ..
                } => {
                    let computed = crc.value();
                    if computed != expected {
                        return Err(Error::CrcMismatch { computed, expected });
                    }
                }
            }
            Ok(())
        })?;
        if published.is_none() {
            bitstream.publish_fdri_checks(encoded);
        }
        let words = bitstream.words().len();
        Ok(IcapReport {
            words,
            frames_written,
            micros: words as f64 / ICAP_CLOCK_MHZ,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{type1_write, BitstreamBuilder, BitstreamKind, ConfigReg};
    use crate::ecc::{FrameEcc, FrameRepair};
    use crate::part::FpgaPart;
    use proptest::prelude::*;

    fn device() -> Device {
        FpgaPart::Vc707.device()
    }

    fn frame(device: &Device, v: u32) -> Vec<u32> {
        vec![v; device.part().family().frame_words()]
    }

    #[test]
    fn raw_and_compressed_configure_identically() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        for minor in 0..36 {
            let v = if minor % 3 == 0 {
                0xAAAA_0000
            } else {
                0x5555_0000 + minor
            };
            builder
                .add_frame(FrameAddress::new(2, 5, minor), frame(&d, v))
                .unwrap();
        }
        let mut icap_raw = Icap::new(&d);
        let mut icap_cmp = Icap::new(&d);
        icap_raw.load(&builder.build(false)).unwrap();
        icap_cmp.load(&builder.build(true)).unwrap();
        assert!(icap_raw.memory().diff(icap_cmp.memory()).is_empty());
    }

    #[test]
    fn compressed_load_is_faster() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        for minor in 0..36 {
            builder
                .add_frame(FrameAddress::new(0, 2, minor), frame(&d, 0))
                .unwrap();
        }
        // Identical (here: blank) frames compress massively and load faster.
        let mut icap = Icap::new(&d);
        let raw = icap.load(&builder.build(false)).unwrap();
        let cmp = icap.load(&builder.build(true)).unwrap();
        assert!(cmp.micros < raw.micros / 4.0);
    }

    #[test]
    fn idcode_mismatch_is_rejected() {
        let d707 = device();
        let d118 = FpgaPart::Vcu118.device();
        let mut builder = BitstreamBuilder::new(&d118, BitstreamKind::Partial);
        builder
            .add_frame(FrameAddress::new(0, 1, 0), frame(&d118, 1))
            .unwrap();
        let bs = builder.build(false);
        let mut icap = Icap::new(&d707);
        assert!(matches!(icap.load(&bs), Err(Error::IdcodeMismatch { .. })));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        builder
            .add_frame(FrameAddress::new(0, 1, 0), frame(&d, 0x1234))
            .unwrap();
        let bs = builder.build(false);
        // Flip one payload bit (late in the stream, inside the frame data).
        let mut words = bs.words().to_vec();
        let idx = words.len() - 10;
        words[idx] ^= 1;
        let corrupted = bs.with_words(words);
        let mut icap = Icap::new(&d);
        assert!(matches!(
            icap.load(&corrupted),
            Err(Error::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_malformed() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        builder
            .add_frame(FrameAddress::new(0, 1, 0), frame(&d, 9))
            .unwrap();
        let bs = builder.build(false);
        let truncated = bs.with_words(bs.words()[..bs.words().len() / 2].to_vec());
        let mut icap = Icap::new(&d);
        assert!(icap.load(&truncated).is_err());
    }

    #[test]
    fn report_latency_matches_word_count() {
        let d = device();
        let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
        builder
            .add_frame(FrameAddress::new(1, 1, 1), frame(&d, 3))
            .unwrap();
        let bs = builder.build(false);
        let mut icap = Icap::new(&d);
        let report = icap.load(&bs).unwrap();
        assert_eq!(report.words, bs.words().len());
        assert!((report.micros - report.words as f64 / 100.0).abs() < 1e-9);
    }

    /// Reference rollback: clone the whole memory before the load, count
    /// the frames whose payload differs afterwards, and put the clone back
    /// on error.
    fn clone_and_diff_load(icap: &mut Icap, bs: &Bitstream) -> Result<IcapReport, (Error, usize)> {
        let pre_image = icap.memory().clone();
        icap.load(bs).map_err(|e| {
            let dirty = pre_image.diff(icap.memory()).len();
            *icap.memory_mut() = pre_image;
            (e, dirty)
        })
    }

    /// A compressed stream writing each `(address, frame)` pair; repeated
    /// payloads take the MFW path.
    fn compressed_stream(d: &Device, frames: Vec<(FrameAddress, Vec<u32>)>) -> Bitstream {
        let mut builder = BitstreamBuilder::new(d, BitstreamKind::Partial);
        for (addr, f) in frames {
            builder.add_frame(addr, f).unwrap();
        }
        builder.build(true)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Undo-log rollback leaves exactly the state, and reports exactly
        /// the dirty count, of the clone-and-diff reference — over pre-states
        /// with SEU-corrupted frames (payload and ECC disagree) and upsets
        /// in erased frames, streams that rewrite frames several times
        /// (concatenated compressed passes, MFW replays included) or
        /// rewrite an upset frame with its own payload (a code-only
        /// change), and corrupted words that may redirect a FAR outside
        /// the footprint.
        #[test]
        fn undo_log_rollback_matches_clone_and_diff(
            pre in proptest::collection::vec((0u32..3, 10u32..16, 0u32..6, 0u32..4), 0..24),
            upsets in proptest::collection::vec((0u32..3, 10u32..16, 0u32..6, 0u32..101, 0u32..32), 0..8),
            passes in proptest::collection::vec(
                proptest::collection::vec((0u32..3, 10u32..16, 0u32..6, 0u32..4), 1..12),
                1..4,
            ),
            echo_upsets in proptest::bool::ANY,
            corruption in 0u32..4,
            pick in 0usize..1_000_000,
            bit in 0u32..32,
        ) {
            let d = device();
            let valid = |(r, c, m): (u32, u32, u32)| {
                let a = FrameAddress::new(r, c, m);
                d.validate_frame(a).is_ok().then_some(a)
            };
            let mut icap = Icap::new(&d);
            for &(r, c, m, v) in &pre {
                if let Some(a) = valid((r, c, m)) {
                    icap.memory_mut().write_frame(a, &frame(&d, v)).unwrap();
                }
            }
            for &(r, c, m, word, b) in &upsets {
                if let Some(a) = valid((r, c, m)) {
                    let word = word as usize % icap.memory().frame_words();
                    icap.memory_mut().corrupt_bit(a, word, b).unwrap();
                }
            }
            let mut words = Vec::new();
            for (i, pass) in passes.iter().enumerate() {
                let mut frames: Vec<(FrameAddress, Vec<u32>)> = pass
                    .iter()
                    .filter_map(|&(r, c, m, v)| valid((r, c, m)).map(|a| (a, frame(&d, v))))
                    .collect();
                if i == 0 && echo_upsets {
                    // Rewrite upset frames with the payload they now hold:
                    // only their check codes change.
                    for &(r, c, m, _, _) in &upsets {
                        if let Some(a) = valid((r, c, m)) {
                            frames.push((a, icap.memory().frame(a)));
                        }
                    }
                }
                if !frames.is_empty() {
                    words.extend_from_slice(compressed_stream(&d, frames).words());
                }
            }
            prop_assume!(!words.is_empty());
            // 0: intact; 1: a flipped FAR column bit; 2: a flipped
            // last word before the final CRC; 3: a truncated stream.
            let fars: Vec<usize> = (0..words.len() - 1)
                .filter(|&i| words[i] == type1_write(ConfigReg::Far, 1))
                .map(|i| i + 1)
                .collect();
            match corruption {
                1 => words[fars[pick % fars.len()]] ^= 1 << (8 + bit % 6),
                2 => {
                    let at = words.len() - 5;
                    words[at] ^= 1 << bit;
                }
                3 => words.truncate(words.len() - 1 - pick % (words.len() - 1)),
                _ => {}
            }
            let stream = compressed_stream(&d, vec![(FrameAddress::new(0, 10, 0), frame(&d, 1))])
                .with_words(words);

            let mut reference = icap.clone();
            let expected = clone_and_diff_load(&mut reference, &stream);
            let before = icap.clone();
            let got = icap.load_or_rollback(&stream);
            prop_assert_eq!(got.is_ok(), expected.is_ok());
            if let (Err((_, dirty)), Err((_, want))) = (&got, &expected) {
                prop_assert_eq!(dirty, want);
                // The fabric is back where it started, map presence included.
                prop_assert_eq!(
                    icap.memory().configured_addresses(),
                    before.memory().configured_addresses()
                );
            }
            let mut touched: Vec<FrameAddress> = reference.last_written().to_vec();
            touched.extend(icap.last_written());
            touched.extend(before.memory().configured_addresses());
            for a in touched {
                prop_assert_eq!(icap.memory().frame(a), reference.memory().frame(a));
                prop_assert_eq!(icap.memory().frame_ecc(a), reference.memory().frame_ecc(a));
            }
        }
    }

    /// A compressed stream over rows 0–1, columns 10–12: ramps, a payload
    /// replayed by MFWR, and all-zero frames, some of them replayed.
    fn mixed_stream(d: &Device) -> Bitstream {
        let words = d.part().family().frame_words() as u32;
        let mut frames = Vec::new();
        for (i, (row, column, minor)) in (0..2)
            .flat_map(|r| (10..13).flat_map(move |c| (0..6).map(move |m| (r, c, m))))
            .enumerate()
        {
            let data: Vec<u32> = match i % 4 {
                0 => (0..words).map(|w| (w + 1) * (i as u32 + 7)).collect(),
                1 => vec![0x5A5A_0001; words as usize],
                _ => vec![0; words as usize],
            };
            frames.push((FrameAddress::new(row, column, minor), data));
        }
        compressed_stream(d, frames)
    }

    /// Every frame `icap` holds is its words under their own encoding:
    /// check codes and a scrub agree that nothing is upset.
    fn assert_freshly_encoded(icap: &mut Icap) {
        for a in icap.memory().configured_addresses() {
            let frame = icap.memory().frame(a);
            assert_eq!(
                icap.memory().frame_ecc(a),
                FrameEcc::encode(&frame),
                "{a:?}"
            );
            assert_eq!(
                icap.memory_mut().scrub_frame(a).unwrap(),
                FrameRepair::Clean
            );
        }
    }

    #[test]
    fn a_second_load_writes_what_a_fresh_encode_writes() {
        let d = device();
        let bs = mixed_stream(&d);
        let mut first = Icap::new(&d);
        first.load_or_rollback(&bs).unwrap();
        let table = bs.fdri_checks().expect("a load publishes").to_vec();
        // A stream's FDRI words and its published codes line up.
        let mut fdri = Vec::new();
        bs.walk(d.part().family().frame_words(), |step| {
            if let Step::Frame(_, data) = step {
                fdri.extend_from_slice(data);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(FrameEcc::encode(&fdri).checks(), &table[..]);
        // Reloads over an erased and over a differently configured fabric
        // read the table; a copy of the words encodes afresh.
        let mut again = Icap::new(&d);
        again.load_or_rollback(&bs).unwrap();
        let mut over = Icap::new(&d);
        over.load_or_rollback(&compressed_stream(
            &d,
            vec![(FrameAddress::new(0, 11, 2), frame(&d, 3))],
        ))
        .unwrap();
        over.load_or_rollback(&bs).unwrap();
        let mut fresh = Icap::new(&d);
        fresh
            .load_or_rollback(&bs.with_words(bs.words().to_vec()))
            .unwrap();
        for icap in [&mut first, &mut again, &mut over] {
            assert_eq!(icap.last_written(), fresh.last_written());
            for &a in fresh.last_written() {
                assert_eq!(icap.memory().frame(a), fresh.memory().frame(a));
                assert_eq!(icap.memory().frame_ecc(a), fresh.memory().frame_ecc(a));
            }
            assert_freshly_encoded(icap);
        }
        assert_eq!(bs.fdri_checks(), Some(&table[..]), "published once");
    }

    #[test]
    fn a_failed_load_and_a_copy_of_the_words_neither_publish_nor_read_the_table() {
        let d = device();
        let bs = mixed_stream(&d);
        // A failed load publishes nothing: neither one refused before its
        // first frame nor one that wrote every frame and then failed its
        // CRC check.
        let mut elsewhere = Icap::new(&FpgaPart::Vcu118.device());
        assert!(matches!(
            elsewhere.load_or_rollback(&bs),
            Err((Error::IdcodeMismatch { .. }, 0))
        ));
        assert!(bs.fdri_checks().is_none());
        let mut words = bs.words().to_vec();
        let crc_at = words.len() - 3;
        words[crc_at] ^= 1;
        let bad_crc = bs.with_words(words);
        let mut icap = Icap::new(&d);
        assert!(icap.load_or_rollback(&bad_crc).is_err());
        assert!(bad_crc.fdri_checks().is_none());
        // After a good load publishes, a copy of its words starts with no
        // table: a payload flipped in the copy gets its own codes, so the
        // upset is not hidden behind the clean stream's.
        icap.load_or_rollback(&bs).unwrap();
        assert!(bs.fdri_checks().is_some());
        let mut words = bs.words().to_vec();
        let payload_at = words.len() - 10;
        words[payload_at] ^= 1 << 7;
        let flipped = bs.with_words(words);
        assert!(flipped.fdri_checks().is_none());
        let mut raw = Icap::new(&d);
        assert!(matches!(raw.load(&flipped), Err(Error::CrcMismatch { .. })));
        assert!(flipped.fdri_checks().is_none());
        assert_ne!(
            raw.memory().snapshot(raw.last_written()).unwrap(),
            icap.memory().snapshot(raw.last_written()).unwrap(),
            "the flip reached the fabric"
        );
        assert_freshly_encoded(&mut raw);
    }

    #[test]
    fn a_relocated_stream_carries_a_table_a_fresh_encode_agrees_with() {
        let d = device();
        let bs = mixed_stream(&d);
        Icap::new(&d).load_or_rollback(&bs).unwrap();
        // The first column span beside the stream's of the same column kinds.
        let moved = (1..d.columns() as i64)
            .find_map(|delta| bs.relocate(&d, delta).ok())
            .expect("a like span exists");
        assert_eq!(moved.fdri_checks(), bs.fdri_checks(), "carried over");
        let mut icap = Icap::new(&d);
        icap.load_or_rollback(&moved).unwrap();
        let mut fresh = Icap::new(&d);
        fresh
            .load_or_rollback(&moved.with_words(moved.words().to_vec()))
            .unwrap();
        assert!(icap.memory().diff(fresh.memory()).is_empty());
        for &a in fresh.last_written() {
            assert_eq!(icap.memory().frame_ecc(a), fresh.memory().frame_ecc(a));
        }
        assert_freshly_encoded(&mut icap);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn load_restores_every_staged_frame(
            seeds in proptest::collection::vec((0u32..7, 1u32..140, 0u32..28, 0u32..u32::MAX), 1..20),
            compressed in proptest::bool::ANY,
        ) {
            let d = device();
            let mut builder = BitstreamBuilder::new(&d, BitstreamKind::Partial);
            let mut staged = std::collections::BTreeMap::new();
            for (row, col, minor, v) in seeds {
                let addr = FrameAddress::new(row, col, minor);
                if d.validate_frame(addr).is_ok() {
                    let f = frame(&d, v);
                    builder.add_frame(addr, &f).unwrap();
                    staged.insert(addr, f);
                }
            }
            let bs = builder.build(compressed);
            let mut icap = Icap::new(&d);
            let report = icap.load(&bs).unwrap();
            prop_assert_eq!(report.frames_written, staged.len());
            for (addr, f) in staged {
                prop_assert_eq!(icap.memory().frame(addr), f);
            }
        }
    }
}
