//! The bitstream CRC-32: the reflected 0xEDB88320 polynomial over
//! configuration words, least significant byte first.
//!
//! One register rule serves every site: the builder's emit and storage
//! passes, registry verification, the ICAP's in-stream check and
//! relocation. A run of words takes one of two kernels, both bit-identical
//! to 32 single-bit steps per word:
//!
//! * a carry-less-multiply fold (x86_64 with PCLMULQDQ and SSE4.1, runs of
//!   at least 16 words): four 128-bit lanes folded 64 bytes at a time,
//!   then folded into one lane, then reduced to 32 bits by a Barrett
//!   reduction. This is the scheme of Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction" (Intel, 2009), as zlib-ng and the Linux kernel use it;
//! * slicing-by-8 tables, for short runs, the words after the last whole
//!   16-byte block, and every other target or CPU.
//!
//! The CPU decides which kernel runs; nothing else selects it. All of the
//! crate's `unsafe` and `std::arch` use lives in this module.
//!
//! Relocation rewrites a few words of a stream and needs both its CRCs
//! again. [`rewrite_delta`] gives the change from the rewritten words
//! alone: the CRC is linear, so each rewritten word costs a carry-less
//! product by a power of x (PCLMULQDQ where the CPU has it, a
//! shift-and-add otherwise) instead of a pass over the stream.

/// Reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight polynomial steps, and
/// `CRC_TABLES[k][b]` the same byte followed by `k` zero bytes. CRC-32 is
/// linear over GF(2), so a word folds in as four independent lookups and
/// a pair of words as eight.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut step = 0;
        while step < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            step += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// Running CRC accumulator used by the builder, registry verification and
/// the ICAP.
///
/// A CRC-32 (reflected 0xEDB88320 polynomial). The in-stream CRC covers
/// what `CrcAccumulator::fold` folds: every FAR value and FDRI frame
/// word since the last RCRC — enough to catch the corruptions the tests
/// inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrcAccumulator(u32);

impl CrcAccumulator {
    /// Fresh accumulator (also the state after an RCRC command).
    pub fn new() -> CrcAccumulator {
        CrcAccumulator(0xFFFF_FFFF)
    }

    /// Folds one word into the accumulator (slicing-by-4, least
    /// significant byte first — the same register as 32 single-bit steps).
    pub fn update(&mut self, word: u32) {
        self.0 = slice_by_4(self.0, word);
    }

    /// Folds a run of words into the accumulator; the register equals
    /// [`Self::update`] applied to each word in turn. Long runs take the
    /// carry-less-multiply kernel where the CPU has it (module docs).
    pub(crate) fn update_words(&mut self, words: &[u32]) {
        #[cfg(target_arch = "x86_64")]
        if words.len() >= clmul::MIN_WORDS && clmul::available() {
            let (blocks, tail) = words.split_at(words.len() & !3);
            // SAFETY: `clmul::available` has just confirmed that this CPU
            // executes PCLMULQDQ and SSE4.1, and `blocks` is at least
            // `MIN_WORDS` words, a whole number of 16-byte blocks.
            self.0 = unsafe { clmul::update(self.0, blocks) };
            self.0 = slice_by_8(self.0, tail);
            return;
        }
        self.0 = slice_by_8(self.0, words);
    }

    /// Current CRC value.
    pub fn value(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// How rewriting some words of a run changes its CRC value, without
/// reading the words that stay: the XOR of the rewritten run's CRC value
/// and the original's.
///
/// The run is `len` words long; `changes` lists each rewritten word, in
/// ascending position, as its position and the XOR of its new and old
/// value.
///
/// CRC-32 is linear over GF(2): two runs of equal length have registers
/// that differ by the register of their XOR difference, folded from zero.
/// That difference run is zero but for the rewritten words, and `n` zero
/// words multiply a register by `x^(32n)` mod P. So each rewritten word
/// costs one carry-less multiply and one table round, whatever the gap
/// before it; consecutive gaps of one length reuse its power of x.
pub(crate) fn rewrite_delta(len: usize, changes: &[(usize, u32)]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `clmul::available` has just confirmed that this CPU
        // executes PCLMULQDQ and SSE4.1.
        return unsafe { clmul::rewrite_delta(len, changes) };
    }
    fold_changes(len, changes, clmul_32_portable)
}

/// [`rewrite_delta`] with `multiply` as the carry-less product. Inlined
/// into each caller, so the instruction's kernel runs the whole loop with
/// the instruction enabled.
///
/// Each change waits on its lane's last product, so the changes are dealt
/// round-robin to [`DELTA_LANES`] independent difference registers whose
/// products overlap; linearity sums the lanes at the end.
#[inline(always)]
fn fold_changes(len: usize, changes: &[(usize, u32)], multiply: impl Fn(u32, u32) -> u64) -> u32 {
    let mut lanes = [DeltaLane::default(); DELTA_LANES];
    let mut dealt = changes.chunks_exact(DELTA_LANES);
    for round in &mut dealt {
        for (lane, &(at, diff)) in lanes.iter_mut().zip(round) {
            lane.fold(at + 1, diff, &multiply);
        }
    }
    for (lane, &(at, diff)) in lanes.iter_mut().zip(dealt.remainder()) {
        lane.fold(at + 1, diff, &multiply);
    }
    lanes.iter_mut().fold(0, |sum, lane| {
        lane.fold(len, 0, &multiply);
        sum ^ lane.state
    })
}

/// Independent difference registers in [`fold_changes`]: enough to cover
/// one product's latency.
const DELTA_LANES: usize = 4;

/// One difference register of [`fold_changes`].
#[derive(Clone, Copy)]
struct DeltaLane {
    /// The register through the word before `next`.
    state: u32,
    /// The first word not yet folded.
    next: usize,
    /// The last distance, in words, and its `x^(32·distance)` mod P.
    power: (usize, u32),
}

impl Default for DeltaLane {
    fn default() -> DeltaLane {
        DeltaLane {
            state: 0,
            next: 0,
            power: (0, 1 << 31),
        }
    }
}

impl DeltaLane {
    /// Carries the register to word `end` and folds `diff` into the word
    /// before it: the register times `x^(32·words)` plus `diff` times
    /// x^32. Both x^32 factors (the word's and the remainder's) fold into
    /// the product's one reduction round (see [`mul_mod`]).
    #[inline(always)]
    fn fold(&mut self, end: usize, diff: u32, multiply: &impl Fn(u32, u32) -> u64) {
        let words = end - self.next;
        self.next = end;
        if self.state == 0 {
            self.state = slice_by_4(0, diff);
            return;
        }
        if self.power.0 != words {
            self.power = (words, x_pow_words(words));
        }
        let product = multiply(self.state, self.power.1) << 1;
        self.state = (product >> 32) as u32 ^ slice_by_4(product as u32, diff);
    }
}

/// `x^(32n)` mod P, reflected: the register that `n` zero words leave
/// from the register `1` (x^0). A table lookup for the low bits of `n`,
/// then one product per higher set bit.
fn x_pow_words(n: usize) -> u32 {
    let mut power = X_POW_WORDS[n % X_POW_WORDS.len()];
    let mut high = n >> SMALL_POWER_BITS;
    while high != 0 {
        let k = (high.trailing_zeros() + SMALL_POWER_BITS) as usize;
        power = mul_mod(power, X_POW_2K_WORDS[k]);
        high &= high - 1;
    }
    power
}

/// [`X_POW_WORDS`] covers `n` below `2^SMALL_POWER_BITS`.
const SMALL_POWER_BITS: u32 = 8;

/// `X_POW_WORDS[n]` is `x^(32n)` mod P, reflected.
const X_POW_WORDS: [u32; 1 << SMALL_POWER_BITS] = {
    let mut powers = [1 << 31; 1 << SMALL_POWER_BITS];
    let mut n = 1;
    while n < powers.len() {
        powers[n] = slice_by_4(powers[n - 1], 0);
        n += 1;
    }
    powers
};

/// `X_POW_2K_WORDS[k]` is `x^(32·2^k)` mod P, reflected: `x^32` squared
/// `k` times.
const X_POW_2K_WORDS: [u32; usize::BITS as usize] = {
    let mut powers = [X_POW_WORDS[1]; usize::BITS as usize];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = mul_mod_bitwise(powers[k - 1], powers[k - 1]);
        k += 1;
    }
    powers
};

/// The product of two reflected residues mod P by the definition: `b`
/// times each power of x that `a` holds, one multiply-by-x step at a time.
const fn mul_mod_bitwise(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        if a >> bit & 1 == 1 {
            product ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
    }
    product
}

/// The product of two reflected residues mod P.
///
/// The carry-less product, shifted left by one, holds the 63-degree
/// product reflected in 64 bits: x^0..x^31 in the high half, x^32..x^63
/// in the low half. The low half times x^32 is one table round from a
/// zero register, so the remainder is the high half plus that round.
fn mul_mod(a: u32, b: u32) -> u32 {
    let product = clmul_32(a, b) << 1;
    (product >> 32) as u32 ^ slice_by_4(product as u32, 0)
}

/// The carry-less product of two 32-bit values: one PCLMULQDQ where the
/// CPU has it, otherwise a shift-and-add per bit.
fn clmul_32(a: u32, b: u32) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `clmul::available` has just confirmed that this CPU
        // executes PCLMULQDQ and SSE4.1.
        return unsafe { clmul::multiply(a, b) };
    }
    clmul_32_portable(a, b)
}

/// [`clmul_32`] without the instruction.
fn clmul_32_portable(a: u32, b: u32) -> u64 {
    (0..32).fold(0u64, |product, bit| {
        product ^ ((u64::from(a) << bit) & u64::from((b >> bit) & 1).wrapping_neg())
    })
}

/// One word through the tables, least significant byte first.
const fn slice_by_4(state: u32, word: u32) -> u32 {
    let c = state ^ word;
    CRC_TABLES[3][(c & 0xFF) as usize]
        ^ CRC_TABLES[2][((c >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((c >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(c >> 24) as usize]
}

/// The portable kernel: two words per table round, an odd last word
/// through [`slice_by_4`].
fn slice_by_8(mut state: u32, words: &[u32]) -> u32 {
    let mut pairs = words.chunks_exact(2);
    for pair in &mut pairs {
        let (c, d) = (state ^ pair[0], pair[1]);
        state = CRC_TABLES[7][(c & 0xFF) as usize]
            ^ CRC_TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(c >> 24) as usize]
            ^ CRC_TABLES[3][(d & 0xFF) as usize]
            ^ CRC_TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(d >> 24) as usize];
    }
    if let [last] = pairs.remainder() {
        state = slice_by_4(state, *last);
    }
    state
}

/// The carry-less-multiply kernel (module docs).
///
/// The fold constants are powers of x modulo the polynomial, bit-reflected
/// and shifted left by one to suit PCLMULQDQ's reflected product:
/// `x^(4·128+32)` and `x^(4·128-32)` fold four lanes 64 bytes forward,
/// `x^(128+32)` and `x^(128-32)` fold one lane 16 bytes forward, and
/// `x^64` folds the last 64 bits to 32. The Barrett pair is the reflected
/// quotient `floor(x^64 / P)` and the 33-bit reflected polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// (high, low) qwords of the four-lane fold: `x^(4·128-32)`, `x^(4·128+32)`.
    pub(super) const FOLD_BY_4: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
    /// (high, low) qwords of the one-lane fold: `x^(128-32)`, `x^(128+32)`.
    pub(super) const FOLD_BY_1: (i64, i64) = (0x0_ccaa_009e, 0x1_7519_97d0);
    /// `x^64`: folds the low 32 of the last 96 bits onto the rest.
    pub(super) const FOLD_64_TO_32: i64 = 0x1_63cd_6124;
    /// (high, low): the Barrett quotient µ and the polynomial P.
    const BARRETT: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

    /// Shortest run, in words, that takes the carry-less-multiply kernel: the
    /// four 16-byte blocks its lanes start from. It already beats the tables
    /// there (16 words: 18 against 56 ns on a 2-vCPU Xeon); a 101-word frame
    /// takes it with one word left for the tables.
    pub(super) const MIN_WORDS: usize = 16;

    /// Whether this CPU executes the kernel's instructions. The standard
    /// library caches the CPUID probe, so this is a load and a bit test.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Loads four words as one 16-byte block.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(words: &[u32]) -> __m128i {
        let block = &words[..4];
        // SAFETY: `block` is four in-bounds words, 16 readable bytes, and
        // the unaligned load has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// [`super::rewrite_delta`] with PCLMULQDQ enabled throughout its loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn rewrite_delta(len: usize, changes: &[(usize, u32)]) -> u32 {
        super::fold_changes(len, changes, |a, b| multiply(a, b))
    }

    /// The carry-less product of two 32-bit values.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn multiply(a: u32, b: u32) -> u64 {
        let product = _mm_clmulepi64_si128(
            _mm_cvtsi32_si128(a as i32),
            _mm_cvtsi32_si128(b as i32),
            0x00,
        );
        _mm_cvtsi128_si64(product) as u64
    }

    /// Multiplies a lane's low and high qwords by `k`'s low and high
    /// constants and adds the products: the lane carried forward by the
    /// distance `k` encodes, ready to add to the block there.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(lane, k, 0x00),
            _mm_clmulepi64_si128(lane, k, 0x11),
        )
    }

    /// The CRC register after folding `words` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must execute PCLMULQDQ and SSE4.1 ([`available`]).
    ///
    /// # Panics
    ///
    /// If `words` is shorter than four 16-byte blocks or not a whole
    /// number of them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(state: u32, words: &[u32]) -> u32 {
        assert!(
            words.len() >= MIN_WORDS && words.len().is_multiple_of(4),
            "the kernel folds whole 16-byte blocks, at least four"
        );
        let (first, rest) = words.split_at(16);
        let mut lanes = [0, 4, 8, 12].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k = _mm_set_epi64x(FOLD_BY_4.0, FOLD_BY_4.1);
        let mut quads = rest.chunks_exact(16);
        for quad in &mut quads {
            for (lane, at) in lanes.iter_mut().zip([0, 4, 8, 12]) {
                *lane = _mm_xor_si128(fold(*lane, k), load(&quad[at..]));
            }
        }

        let k = _mm_set_epi64x(FOLD_BY_1.0, FOLD_BY_1.1);
        let mut acc = lanes[0];
        for lane in &lanes[1..] {
            acc = _mm_xor_si128(fold(acc, k), *lane);
        }
        for block in quads.remainder().chunks_exact(4) {
            acc = _mm_xor_si128(fold(acc, k), load(block));
        }

        // 128 → 64 bits (this appends the 32 zero bits of the CRC's
        // x^32 factor), then 64 → 32 through x^64.
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x10), _mm_srli_si128(acc, 8));
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k = _mm_set_epi64x(0, FOLD_64_TO_32);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k, 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett: q = (acc mod x^32) · µ, then acc - (q mod x^32) · P; the
        // remainder sits in the second 32-bit word.
        let k = _mm_set_epi64x(BARRETT.0, BARRETT.1);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, qp), 1) as u32
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference CRC-32 register update: 32 shift-xor steps per word.
    fn update_bitwise(state: u32, word: u32) -> u32 {
        let mut crc = state ^ word;
        for _ in 0..32 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
        crc
    }

    fn run_bitwise(state: u32, words: &[u32]) -> u32 {
        words.iter().fold(state, |crc, &w| update_bitwise(crc, w))
    }

    /// The CRC value of a whole stream by the bit-at-a-time definition.
    pub(crate) fn stream_bitwise(words: &[u32]) -> u32 {
        run_bitwise(0xFFFF_FFFF, words) ^ 0xFFFF_FFFF
    }

    /// Each arm of a run fold, by name: the dispatching entry point, the
    /// portable kernel called directly (so an x86_64 host tests it too),
    /// and the carry-less kernel called directly where the CPU has it.
    fn arms(state: u32, words: &[u32]) -> Vec<(&'static str, u32)> {
        let mut acc = CrcAccumulator(state);
        acc.update_words(words);
        let mut out = vec![
            ("update_words", acc.0),
            ("slice_by_8", slice_by_8(state, words)),
        ];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() && words.len() >= clmul::MIN_WORDS {
            let (blocks, tail) = words.split_at(words.len() & !3);
            // SAFETY: `available` confirmed PCLMULQDQ and SSE4.1, and
            // `blocks` is at least four whole 16-byte blocks.
            let state = unsafe { clmul::update(state, blocks) };
            out.push(("clmul", slice_by_8(state, tail)));
        }
        out
    }

    fn pseudo_random_words(n: usize) -> Vec<u32> {
        (1..=n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i << 7))
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_fold_constants_are_reflected_powers_of_x() {
        /// `x^n mod P`, bit-reflected and shifted left by one: in the
        /// reflected domain x^0 is bit 31 and a product with x is a right
        /// shift with reduction.
        fn reflected_power(n: u32) -> i64 {
            let r = (0..n).fold(1u32 << 31, |r, _| {
                (r >> 1) ^ (CRC_POLY & (r & 1).wrapping_neg())
            });
            i64::from(r) << 1
        }
        let pair = |hi, lo| (reflected_power(hi), reflected_power(lo));
        assert_eq!(clmul::FOLD_BY_4, pair(4 * 128 - 32, 4 * 128 + 32));
        assert_eq!(clmul::FOLD_BY_1, pair(128 - 32, 128 + 32));
        assert_eq!(clmul::FOLD_64_TO_32, reflected_power(64));
    }

    #[test]
    fn every_byte_in_every_lane_matches_the_bitwise_crc() {
        for state in [0, 0xFFFF_FFFF, 0x1234_5678] {
            for lane in 0..4 {
                for byte in 0u32..256 {
                    let word = byte << (8 * lane);
                    let mut acc = CrcAccumulator(state);
                    acc.update(word);
                    assert_eq!(
                        acc.0,
                        update_bitwise(state, word),
                        "state {state:#x} lane {lane} byte {byte:#x}"
                    );
                }
            }
        }
    }

    /// Every run length through the dispatch threshold and well past the
    /// four-lane loop, starting 0–3 words into the buffer so the 16-byte
    /// loads are unaligned in every way a `&[u32]` can be.
    #[test]
    fn every_arm_matches_the_bitwise_crc_at_every_length_and_offset() {
        let buffer = pseudo_random_words(260 + 3);
        for offset in 0..4 {
            for len in 0..=260 {
                let run = &buffer[offset..offset + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    let want = run_bitwise(state, run);
                    for (arm, got) in arms(state, run) {
                        assert_eq!(got, want, "{arm}: offset {offset} length {len}");
                    }
                }
            }
        }
    }

    /// Runs split on either side of the dispatch threshold, so one half
    /// takes one kernel and the other half the other, fold like one run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn split_runs_fold_like_one_across_the_threshold() {
        let words = pseudo_random_words(3 * clmul::MIN_WORDS);
        let mut whole = CrcAccumulator::new();
        whole.update_words(&words);
        assert_eq!(whole.value(), stream_bitwise(&words));
        for split in 0..=words.len() {
            let (a, b) = words.split_at(split);
            let mut acc = CrcAccumulator::new();
            acc.update_words(a);
            acc.update_words(b);
            assert_eq!(acc, whole, "split at {split}");
        }
    }

    #[test]
    fn powers_of_x_are_the_registers_zero_words_leave() {
        let zeros = [0u32; 5000];
        for n in (0..=300).chain([511, 512, 1023, 4113, 5000]) {
            assert_eq!(
                x_pow_words(n),
                run_bitwise(1 << 31, &zeros[..n]),
                "x^(32·{n})"
            );
        }
    }

    /// Each arm of [`rewrite_delta`]: the dispatching entry point and the
    /// portable product called directly, so an x86_64 host tests it too.
    fn delta_arms(len: usize, changes: &[(usize, u32)]) -> [(&'static str, u32); 2] {
        [
            ("rewrite_delta", rewrite_delta(len, changes)),
            ("portable", fold_changes(len, changes, clmul_32_portable)),
        ]
    }

    /// Rewrites `run` at `plan`'s positions (an unchanged value where it
    /// gives none) and checks every arm's delta against refolding it.
    fn check_rewrites(run: &[u32], plan: &[(usize, Option<u32>)]) {
        let mut rewritten = run.to_vec();
        let mut changes = Vec::new();
        for &(at, new) in plan {
            rewritten[at] = new.unwrap_or(run[at]);
            changes.push((at, run[at] ^ rewritten[at]));
        }
        let want = stream_bitwise(run) ^ stream_bitwise(&rewritten);
        for (arm, got) in delta_arms(run.len(), &changes) {
            assert_eq!(got, want, "{arm}: rewrites {plan:?}");
        }
    }

    /// The delta rewrites a run's CRC like folding the rewritten run
    /// again: at the run's start, at its end, in adjacent words, with
    /// repeated and changing gaps, and with words rewritten to
    /// themselves.
    #[test]
    fn a_delta_over_rewritten_words_matches_refolding_the_run() {
        let run = pseudo_random_words(400);
        let plans: [&[usize]; 7] = [
            &[],
            &[0],
            &[399],
            &[0, 1, 2, 399],
            &[5, 108, 211, 314],
            &[3, 4, 50, 51, 52, 390],
            &[7, 9, 200],
        ];
        for plan in plans {
            let plan: Vec<_> = plan
                .iter()
                .map(|&at| (at, (at != 9).then(|| run[at].rotate_left(7) ^ 0x5A5A_0001)))
                .collect();
            check_rewrites(&run, &plan);
        }
        check_rewrites(&[], &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The carry-less product, by instruction and without it, reduces
        /// to the product by definition.
        #[test]
        fn products_mod_p_match_the_bitwise_product(a in 0u32..u32::MAX, b in 0u32..u32::MAX) {
            prop_assert_eq!(clmul_32(a, b), clmul_32_portable(a, b));
            prop_assert_eq!(mul_mod(a, b), mul_mod_bitwise(a, b));
        }

        /// Random words of a random run rewritten, some to their own
        /// value: the delta equals the refolded run's difference.
        #[test]
        fn random_rewrites_match_refolding_the_run(
            words in proptest::collection::vec(0u32..u32::MAX, 1..300),
            rewrites in proptest::collection::vec((0usize..300, 0u32..u32::MAX), 0..12),
        ) {
            let mut plan: Vec<_> = rewrites
                .into_iter()
                .filter(|&(at, _)| at < words.len())
                .map(|(at, new)| (at, (new % 4 != 0).then_some(new)))
                .collect();
            plan.sort_unstable_by_key(|&(at, _)| at);
            plan.dedup_by_key(|&mut (at, _)| at);
            check_rewrites(&words, &plan);
        }

        #[test]
        fn word_sequences_match_the_bitwise_crc(
            state in 0u32..u32::MAX,
            words in proptest::collection::vec(0u32..u32::MAX, 0..64),
        ) {
            let mut acc = CrcAccumulator(state);
            let mut reference = state;
            for &w in &words {
                acc.update(w);
                reference = update_bitwise(reference, w);
                prop_assert_eq!(acc.0, reference);
            }
        }

        /// Random runs, short and long, through every arm, and split in
        /// two at a random point.
        #[test]
        fn word_runs_match_the_bitwise_crc(
            state in 0u32..u32::MAX,
            words in proptest::collection::vec(0u32..u32::MAX, 0..400),
            split in 0usize..400,
        ) {
            let reference = run_bitwise(state, &words);
            for (arm, got) in arms(state, &words) {
                prop_assert_eq!(got, reference, "{}", arm);
            }
            let (head, tail) = words.split_at(split.min(words.len()));
            let mut acc = CrcAccumulator(state);
            acc.update_words(head);
            acc.update_words(tail);
            prop_assert_eq!(acc.0, reference);
        }
    }
}
