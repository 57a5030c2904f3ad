//! Frame-level SECDED error correction, layered under the bitstream CRC.
//!
//! Each 32-bit configuration word carries a 7-bit check code: a (38,32)
//! Hamming code (6 check bits) extended with an overall parity bit, the
//! classic SECDED construction real configuration memories use. Any
//! single flipped bit — data, check, or the parity bit itself — is
//! corrected in place; any double flip within one word is detected and
//! reported uncorrectable rather than miscorrected.
//!
//! The code is systematic over a virtual codeword: data bits occupy
//! positions 3..=38 skipping powers of two, check bit `c_i` sits at
//! position `2^i`, and the overall parity bit covers everything. A
//! zero word encodes to a zero check code, so an all-zero (erased)
//! frame with no stored ECC decodes clean — the sparse slot store of
//! [`crate::config_memory::ConfigMemory`] keeps no codes for erased
//! frames at no cost.

/// Number of Hamming check bits per 32-bit word.
const CHECK_BITS: u32 = 6;
/// Highest occupied codeword position (1-based): 32 data + 6 check = 38.
const CODE_TOP: u32 = 38;
/// Bit holding the overall (SECDED) parity inside the stored check byte.
const PARITY_BIT: u8 = 1 << 6;

/// Codeword position (1-based) of data bit `bit` (0-based LSB-first).
const fn data_position(bit: u32) -> u32 {
    // Positions 1, 2, 4, 8, 16, 32 are check bits; data fills the rest
    // in order.
    let mut pos = bit + 3; // positions 1 and 2 are always check bits
    if pos >= 4 {
        pos += 1;
    }
    if pos >= 8 {
        pos += 1;
    }
    if pos >= 16 {
        pos += 1;
    }
    if pos >= 32 {
        pos += 1;
    }
    pos
}

/// Data bit index for codeword position `pos`, or `None` for check positions.
fn position_data_bit(pos: u32) -> Option<u32> {
    if pos == 0 || pos > CODE_TOP || pos.is_power_of_two() {
        return None;
    }
    let skipped = pos.ilog2() + 1; // check positions below `pos`
    Some(pos - 1 - skipped)
}

/// Hamming check bits per byte lane: `CHECK_TABLES[k][b]` is the XOR of
/// the codeword positions of the set bits of byte `b` placed in lane `k`.
/// The code is linear over GF(2), so a word's checks are the XOR of its
/// four lanes' entries.
const CHECK_TABLES: [[u8; 256]; 4] = {
    let mut tables = [[0u8; 256]; 4];
    let mut lane = 0;
    while lane < 4 {
        let mut b = 0;
        while b < 256 {
            let mut checks = 0u32;
            let mut bit = 0;
            while bit < 8 {
                if b >> bit & 1 == 1 {
                    checks ^= data_position(8 * lane + bit) & 0x3F;
                }
                bit += 1;
            }
            tables[lane as usize][b as usize] = checks as u8;
            b += 1;
        }
        lane += 1;
    }
    tables
};

/// Hamming check bits (low 6 bits) for `word`.
fn hamming_checks(word: u32) -> u8 {
    CHECK_TABLES[0][(word & 0xFF) as usize]
        ^ CHECK_TABLES[1][((word >> 8) & 0xFF) as usize]
        ^ CHECK_TABLES[2][((word >> 16) & 0xFF) as usize]
        ^ CHECK_TABLES[3][(word >> 24) as usize]
}

/// Encodes one 32-bit word into its 7-bit SECDED check code.
pub(crate) fn encode_word(word: u32) -> u8 {
    let checks = hamming_checks(word);
    let overall = (word.count_ones() + u32::from(checks).count_ones()) & 1;
    checks | ((overall as u8) << CHECK_BITS)
}

/// Outcome of decoding one word against its stored check code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WordDecode {
    /// Word and code agree.
    Clean,
    /// A single data bit was flipped; `word` is the repaired value.
    CorrectedData { word: u32 },
    /// A single check-code bit was flipped; the data word is intact.
    CorrectedCheck,
    /// A double-bit (or worse) upset: detected, not correctable.
    Uncorrectable,
}

/// Decodes `word` against `stored`, classifying and correcting upsets.
pub(crate) fn decode_word(word: u32, stored: u8) -> WordDecode {
    let syndrome = u32::from(hamming_checks(word) ^ (stored & 0x3F));
    let computed_parity = (word.count_ones() + u32::from(stored & 0x3F).count_ones()) & 1;
    let stored_parity = u32::from(stored & PARITY_BIT != 0);
    let parity_mismatch = computed_parity != stored_parity;
    match (syndrome, parity_mismatch) {
        (0, false) => WordDecode::Clean,
        // Only the overall parity bit flipped: data and checks intact.
        (0, true) => WordDecode::CorrectedCheck,
        // Odd number of flips with a non-zero syndrome: a single-bit error
        // at codeword position `syndrome` (if that position exists).
        (s, true) => match position_data_bit(s) {
            Some(bit) => WordDecode::CorrectedData {
                word: word ^ (1 << bit),
            },
            // A check-bit position, or a position outside the codeword
            // (the latter cannot arise from a true single flip).
            None if s.is_power_of_two() && s <= CODE_TOP => WordDecode::CorrectedCheck,
            None => WordDecode::Uncorrectable,
        },
        // Even flip count but non-zero syndrome: the defining double-bit
        // signature of SECDED.
        (_, false) => WordDecode::Uncorrectable,
    }
}

/// Writes the check code of every word of `frame` into `checks`.
///
/// # Panics
///
/// Panics if `frame` and `checks` cover different word counts.
pub(crate) fn encode_into(frame: &[u32], checks: &mut [u8]) {
    assert_eq!(frame.len(), checks.len(), "one check byte per word");
    for (c, &w) in checks.iter_mut().zip(frame) {
        *c = encode_word(w);
    }
}

/// Per-frame check codes, one byte per frame word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameEcc {
    checks: Vec<u8>,
}

impl FrameEcc {
    /// Computes check codes for every word of `frame`.
    pub(crate) fn encode(frame: &[u32]) -> FrameEcc {
        FrameEcc {
            checks: frame.iter().map(|&w| encode_word(w)).collect(),
        }
    }

    /// Check codes held as raw bytes, one per word.
    pub(crate) fn from_checks(checks: &[u8]) -> FrameEcc {
        FrameEcc {
            checks: checks.to_vec(),
        }
    }

    /// The check bytes, one per word.
    pub(crate) fn checks(&self) -> &[u8] {
        &self.checks
    }

    /// An all-zero code vector: what an erased frame implicitly carries.
    #[cfg(test)]
    pub(crate) fn erased(frame_words: usize) -> FrameEcc {
        FrameEcc {
            checks: vec![0; frame_words],
        }
    }

    /// `true` when every check byte is zero (the code of an erased frame).
    #[cfg(test)]
    pub(crate) fn is_erased(&self) -> bool {
        self.checks.iter().all(|&c| c == 0)
    }

    /// The stored check byte for word `index`.
    pub fn check(&self, index: usize) -> u8 {
        self.checks[index]
    }

    /// Number of covered words.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// `true` when no words are covered.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }
}

/// Result of scrubbing one frame against its check codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRepair {
    /// Every word decoded clean.
    Clean,
    /// Single-bit upsets were corrected in place at these word indices
    /// (check-code-only flips are listed too: the stored code is stale).
    Corrected { words: Vec<usize> },
    /// At least one word holds a double-bit upset; `word` is the first.
    Uncorrectable { word: usize },
}

/// Decodes `frame` in place against `ecc`, correcting what SECDED can.
///
/// Correctable upsets are repaired directly in `frame`; the first
/// uncorrectable word aborts the pass (the frame cannot be trusted, so
/// partial repair is pointless).
///
/// # Panics
///
/// Panics if `frame` and `ecc` cover different word counts.
pub fn scrub_frame_words(frame: &mut [u32], ecc: &FrameEcc) -> FrameRepair {
    scrub_words(frame, &ecc.checks)
}

/// [`scrub_frame_words`] against raw check bytes, one per word.
pub(crate) fn scrub_words(frame: &mut [u32], checks: &[u8]) -> FrameRepair {
    assert_eq!(
        frame.len(),
        checks.len(),
        "frame and ECC word counts must match"
    );
    let mut corrected = Vec::new();
    for (index, (word, &check)) in frame.iter_mut().zip(checks).enumerate() {
        match decode_word(*word, check) {
            WordDecode::Clean => {}
            WordDecode::CorrectedData { word: fixed } => {
                *word = fixed;
                corrected.push(index);
            }
            WordDecode::CorrectedCheck => corrected.push(index),
            WordDecode::Uncorrectable => return FrameRepair::Uncorrectable { word: index },
        }
    }
    if corrected.is_empty() {
        FrameRepair::Clean
    } else {
        FrameRepair::Corrected { words: corrected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn encode_decode_is_identity_on_clean_frames(
            frame in proptest::collection::vec(0u32..u32::MAX, 1..40),
        ) {
            let ecc = FrameEcc::encode(&frame);
            for (i, &w) in frame.iter().enumerate() {
                prop_assert_eq!(decode_word(w, ecc.check(i)), WordDecode::Clean);
            }
            let mut scrubbed = frame.clone();
            prop_assert_eq!(scrub_frame_words(&mut scrubbed, &ecc), FrameRepair::Clean);
            prop_assert_eq!(scrubbed, frame);
        }

        #[test]
        fn any_single_bit_flip_is_corrected(
            frame in proptest::collection::vec(0u32..u32::MAX, 1..40),
            word_sel in 0usize..1000,
            bit in 0u32..32,
        ) {
            let ecc = FrameEcc::encode(&frame);
            let word = word_sel % frame.len();
            let mut upset = frame.clone();
            upset[word] ^= 1 << bit;
            prop_assert_eq!(
                scrub_frame_words(&mut upset, &ecc),
                FrameRepair::Corrected { words: vec![word] }
            );
            prop_assert_eq!(upset, frame);
        }

        #[test]
        fn any_double_bit_flip_is_detected_not_miscorrected(
            frame in proptest::collection::vec(0u32..u32::MAX, 1..40),
            word_sel in 0usize..1000,
            bit_a in 0u32..32,
            bit_b in 0u32..32,
        ) {
            prop_assume!(bit_a != bit_b);
            let ecc = FrameEcc::encode(&frame);
            let word = word_sel % frame.len();
            let mut upset = frame.clone();
            upset[word] ^= (1 << bit_a) | (1 << bit_b);
            let expected = upset.clone();
            prop_assert_eq!(
                scrub_frame_words(&mut upset, &ecc),
                FrameRepair::Uncorrectable { word }
            );
            prop_assert_eq!(upset, expected, "no miscorrection of a double flip");
        }
    }

    /// Reference Hamming checks: one position XOR per set data bit.
    fn hamming_checks_bitwise(word: u32) -> u8 {
        let mut checks = 0u8;
        for bit in 0..32 {
            if word >> bit & 1 == 1 {
                checks ^= (data_position(bit) & 0x3F) as u8;
            }
        }
        checks
    }

    #[test]
    fn every_byte_in_every_lane_matches_the_position_loop() {
        for lane in 0..4 {
            for byte in 0u32..256 {
                let word = byte << (8 * lane);
                assert_eq!(
                    hamming_checks(word),
                    hamming_checks_bitwise(word),
                    "lane {lane} byte {byte:#x}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_checks_match_the_position_loop(
            frame in proptest::collection::vec(0u32..u32::MAX, 1..64),
        ) {
            let ecc = FrameEcc::encode(&frame);
            for (i, &word) in frame.iter().enumerate() {
                let checks = hamming_checks_bitwise(word);
                prop_assert_eq!(hamming_checks(word), checks);
                let overall = (word.count_ones() + u32::from(checks).count_ones()) & 1;
                prop_assert_eq!(ecc.check(i), checks | ((overall as u8) << CHECK_BITS));
            }
        }
    }

    #[test]
    fn zero_encodes_to_zero() {
        assert_eq!(encode_word(0), 0);
        assert_eq!(decode_word(0, 0), WordDecode::Clean);
    }

    #[test]
    fn data_positions_are_a_bijection() {
        let mut seen = std::collections::BTreeSet::new();
        for bit in 0..32 {
            let pos = data_position(bit);
            assert!(!pos.is_power_of_two(), "bit {bit} landed on a check slot");
            assert!((3..=CODE_TOP).contains(&pos));
            assert!(seen.insert(pos), "position {pos} reused");
            assert_eq!(position_data_bit(pos), Some(bit));
        }
    }

    #[test]
    fn single_data_flip_is_corrected() {
        let word = 0xA5F0_3C96u32;
        let code = encode_word(word);
        for bit in 0..32 {
            let flipped = word ^ (1 << bit);
            assert_eq!(
                decode_word(flipped, code),
                WordDecode::CorrectedData { word },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn single_check_flip_leaves_data_intact() {
        let word = 0x0000_0001u32;
        let code = encode_word(word);
        for bit in 0..7 {
            let outcome = decode_word(word, code ^ (1 << bit));
            assert_eq!(outcome, WordDecode::CorrectedCheck, "check bit {bit}");
        }
    }

    #[test]
    fn double_data_flip_is_uncorrectable() {
        let word = 0x1234_5678u32;
        let code = encode_word(word);
        for a in 0..32 {
            for b in (a + 1)..32 {
                let flipped = word ^ (1 << a) ^ (1 << b);
                assert_eq!(
                    decode_word(flipped, code),
                    WordDecode::Uncorrectable,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn frame_scrub_repairs_in_place() {
        let clean: Vec<u32> = (0..12).map(|i| 0x9E37_79B9u32.wrapping_mul(i)).collect();
        let ecc = FrameEcc::encode(&clean);
        let mut frame = clean.clone();
        frame[3] ^= 1 << 17;
        frame[9] ^= 1 << 2;
        assert_eq!(
            scrub_frame_words(&mut frame, &ecc),
            FrameRepair::Corrected { words: vec![3, 9] }
        );
        assert_eq!(frame, clean);
        assert_eq!(scrub_frame_words(&mut frame, &ecc), FrameRepair::Clean);
    }

    #[test]
    fn frame_scrub_reports_first_uncorrectable() {
        let clean = vec![0xFFFF_0000u32; 8];
        let ecc = FrameEcc::encode(&clean);
        let mut frame = clean;
        frame[5] ^= (1 << 4) | (1 << 20);
        assert_eq!(
            scrub_frame_words(&mut frame, &ecc),
            FrameRepair::Uncorrectable { word: 5 }
        );
    }
}
