//! Deterministic fault injection for the DPR stack.
//!
//! Real partial-reconfiguration deployments fail in a handful of
//! characteristic ways: a bitstream word is corrupted between DRAM and the
//! ICAP (caught by the embedded CRC), the DFX controller reports BUSY and
//! stalls the trigger, the software registry hands out a stale or missing
//! bitstream, and the decoupler acknowledges late. A [`FaultPlan`] scripts
//! all four from a single seed so every failure a test observes is exactly
//! reproducible: each hook draws from its own [`SplitMix64`] stream (so
//! faults on one hook never perturb another) and keeps a call counter, and
//! individual calls can be forced to fail regardless of the seeded rates.
//!
//! The plan is deliberately passive — it only *decides*; the SoC simulator
//! and the runtime manager own the hook points and apply the decisions
//! through the same machinery real faults would exercise (the corrupted
//! stream really flows through the ICAP and really fails its CRC check).

use std::collections::BTreeSet;

/// A small, fast, seedable generator (SplitMix64). Public so test
/// harnesses can derive schedules from the same primitive the plan uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }
}

/// Rates and magnitudes of the injected faults. All rates are
/// probabilities in `[0, 1]`; the default configuration injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability that an ICAP load sees one flipped bitstream word.
    pub icap_flip_rate: f64,
    /// Probability that the DFXC reports BUSY before accepting a trigger.
    pub dfxc_stall_rate: f64,
    /// Maximum BUSY stall, in SoC cycles (the draw is uniform in
    /// `[1, max]`).
    pub dfxc_stall_max_cycles: u64,
    /// Probability that a registry lookup returns a stale/missing entry.
    pub registry_miss_rate: f64,
    /// Probability that a decoupler CSR write acknowledges late.
    pub decoupler_delay_rate: f64,
    /// Maximum decoupler ack delay, in SoC cycles (uniform in `[1, max]`).
    pub decoupler_delay_max_cycles: u64,
    /// Mean configuration-memory upsets (SEUs) per million SoC cycles.
    /// Arrivals follow a Poisson process over virtual time: exponential
    /// inter-arrival gaps drawn from the plan's dedicated SEU stream.
    pub seu_per_mcycle: f64,
    /// Probability that an upset flips two bits of the same frame word
    /// (uncorrectable by SECDED) instead of one.
    pub seu_double_bit_rate: f64,
}

impl FaultConfig {
    /// A configuration injecting every fault class at `rate`, with small
    /// default magnitudes — the usual starting point for stress tests.
    pub fn uniform(rate: f64) -> FaultConfig {
        FaultConfig {
            icap_flip_rate: rate,
            dfxc_stall_rate: rate,
            dfxc_stall_max_cycles: 256,
            registry_miss_rate: rate,
            decoupler_delay_rate: rate,
            decoupler_delay_max_cycles: 64,
            seu_per_mcycle: 0.0,
            seu_double_bit_rate: 0.0,
        }
    }

    /// Enables the SEU arrival process on top of this configuration.
    pub fn with_seu(mut self, per_mcycle: f64, double_bit_rate: f64) -> FaultConfig {
        self.seu_per_mcycle = per_mcycle;
        self.seu_double_bit_rate = double_bit_rate;
        self
    }
}

/// One scripted bitstream corruption: flip `bit` of word `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcapFault {
    /// Word index into the bitstream's word vector.
    pub index: usize,
    /// Bit position, `0..32`.
    pub bit: u32,
}

impl IcapFault {
    /// Applies the flip to a copy of `words`.
    pub fn corrupt(&self, words: &[u32]) -> Vec<u32> {
        let mut out = words.to_vec();
        out[self.index] ^= 1 << self.bit;
        out
    }
}

/// Counts of faults actually injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectedFaults {
    /// ICAP loads handed a corrupted stream.
    pub icap_corruptions: u64,
    /// DFXC triggers stalled by BUSY.
    pub dfxc_stalls: u64,
    /// Total BUSY cycles added.
    pub dfxc_stall_cycles: u64,
    /// Registry lookups forced stale/missing.
    pub registry_misses: u64,
    /// Decoupler CSR writes acknowledged late.
    pub decoupler_delays: u64,
    /// Total decoupler delay cycles added.
    pub decoupler_delay_cycles: u64,
    /// Configuration-memory upsets delivered (single- and double-bit).
    pub seu_upsets: u64,
    /// The subset of upsets that were double-bit (uncorrectable).
    pub seu_double_bits: u64,
}

impl InjectedFaults {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.icap_corruptions
            + self.dfxc_stalls
            + self.registry_misses
            + self.decoupler_delays
            + self.seu_upsets
    }
}

/// One independently-seeded fault stream with a call counter and a set of
/// call indices forced to fire.
#[derive(Debug, Clone)]
struct Hook {
    rng: SplitMix64,
    calls: u64,
    forced: BTreeSet<u64>,
}

impl Hook {
    fn new(seed: u64) -> Hook {
        Hook {
            rng: SplitMix64::new(seed),
            calls: 0,
            forced: BTreeSet::new(),
        }
    }

    /// Advances the stream one call; returns whether this call faults.
    /// The random draw happens unconditionally so forcing call N does not
    /// shift the outcomes of calls N+1.. .
    fn fires(&mut self, rate: f64) -> bool {
        let n = self.calls;
        self.calls += 1;
        let seeded = self.rng.next_f64() < rate;
        self.forced.remove(&n) || seeded
    }
}

/// One configuration-memory upset decided by the plan.
///
/// The plan stays passive: it picks abstract selectors and the SoC
/// simulator maps them onto concrete frames (biased toward the frames of
/// active pblocks) and applies the flips through the config-memory SEU
/// backdoor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeuUpset {
    /// Virtual cycle the upset strikes at.
    pub cycle: u64,
    /// Whether two bits of the same word flip (uncorrectable by SECDED).
    pub double_bit: bool,
    /// Raw selector the consumer reduces modulo its candidate-frame count.
    pub frame_select: u64,
    /// Raw selector reduced modulo the frame word count.
    pub word_select: u64,
    /// First flipped bit, `0..32`.
    pub bit: u32,
    /// Second flipped bit (distinct from `bit`); only used when
    /// `double_bit` is set.
    pub second_bit: u32,
}

/// A seeded, scripted fault schedule for one SoC.
///
/// # Example
///
/// ```
/// use presp_fpga::fault::{FaultConfig, FaultPlan};
///
/// // Force the second ICAP load to corrupt, inject nothing else.
/// let mut plan = FaultPlan::new(7, FaultConfig::default());
/// plan.force_icap_fault(1);
/// assert!(plan.next_icap_fault(1000).is_none());
/// assert!(plan.next_icap_fault(1000).is_some());
/// assert_eq!(plan.injected().icap_corruptions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    icap: Hook,
    dfxc: Hook,
    registry: Hook,
    decoupler: Hook,
    seu_rng: SplitMix64,
    /// Next pending seeded SEU arrival, in (fractional) cycles. Scheduled
    /// lazily on the first drain so a zero-rate plan never draws.
    seu_next: Option<f64>,
    /// Forced upsets: `(cycle, double_bit)`, drained alongside the seeded
    /// stream but drawing selectors from their own generator so forcing
    /// never shifts seeded outcomes.
    seu_forced: Vec<(u64, bool)>,
    seu_forced_rng: SplitMix64,
    injected: InjectedFaults,
}

impl FaultPlan {
    /// A plan drawing from `seed` with the given rates.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            icap: Hook::new(seed ^ 0x1CAF_1CAF_1CAF_1CAF),
            dfxc: Hook::new(seed ^ 0xDF0C_DF0C_DF0C_DF0C),
            registry: Hook::new(seed ^ 0x4E61_4E61_4E61_4E61),
            decoupler: Hook::new(seed ^ 0xDECC_DECC_DECC_DECC),
            seu_rng: SplitMix64::new(seed ^ 0x05E0_05E0_05E0_05E0),
            seu_next: None,
            seu_forced: Vec::new(),
            seu_forced_rng: SplitMix64::new(seed ^ 0xF05E_F05E_F05E_F05E),
            injected: InjectedFaults::default(),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// Forces the `nth` ICAP load (0-based, counted from plan creation) to
    /// receive a corrupted stream.
    pub fn force_icap_fault(&mut self, nth: u64) {
        self.icap.forced.insert(nth);
    }

    /// Forces the `nth` registry lookup to return stale/missing.
    pub fn force_registry_miss(&mut self, nth: u64) {
        self.registry.forced.insert(nth);
    }

    /// Forces the `nth` DFXC trigger to stall.
    pub fn force_dfxc_stall(&mut self, nth: u64) {
        self.dfxc.forced.insert(nth);
    }

    /// Forces the `nth` decoupler CSR write to acknowledge late.
    pub fn force_decoupler_delay(&mut self, nth: u64) {
        self.decoupler.forced.insert(nth);
    }

    /// Schedules one upset at `cycle` regardless of the seeded rate. The
    /// upset's selectors come from a dedicated generator, so forcing never
    /// shifts the seeded SEU stream.
    pub fn force_seu(&mut self, cycle: u64, double_bit: bool) {
        self.seu_forced.push((cycle, double_bit));
        self.seu_forced.sort_unstable();
    }

    fn exponential_gap(&mut self) -> f64 {
        // Mean gap 1e6 / seu_per_mcycle cycles; the caller guards rate > 0.
        let lambda = self.config.seu_per_mcycle / 1_000_000.0;
        let u = self.seu_rng.next_f64();
        -(1.0 - u).ln() / lambda
    }

    fn draw_upset(cycle: u64, double_bit: bool, rng: &mut SplitMix64) -> SeuUpset {
        let frame_select = rng.next_u64();
        let word_select = rng.next_u64();
        let bit = (rng.next_u64() % 32) as u32;
        let mut second_bit = (rng.next_u64() % 31) as u32;
        if second_bit >= bit {
            second_bit += 1;
        }
        SeuUpset {
            cycle,
            double_bit,
            frame_select,
            word_select,
            bit,
            second_bit,
        }
    }

    /// SEU hook: drains every upset (forced and seeded) arriving at or
    /// before `upto_cycle`, in arrival order.
    ///
    /// Successive calls must pass non-decreasing cycles (the SoC's virtual
    /// clock guarantees this); a pending arrival beyond `upto_cycle` stays
    /// scheduled, so how the caller slices time never changes the stream.
    pub fn next_seu_upsets(&mut self, upto_cycle: u64) -> Vec<SeuUpset> {
        let mut upsets = Vec::new();
        while let Some(&(cycle, double_bit)) = self.seu_forced.first() {
            if cycle > upto_cycle {
                break;
            }
            self.seu_forced.remove(0);
            upsets.push(Self::draw_upset(
                cycle,
                double_bit,
                &mut self.seu_forced_rng,
            ));
        }
        if self.config.seu_per_mcycle > 0.0 {
            if self.seu_next.is_none() {
                let gap = self.exponential_gap();
                self.seu_next = Some(gap);
            }
            while self.seu_next.is_some_and(|t| t <= upto_cycle as f64) {
                let t = self.seu_next.unwrap_or_default();
                let double_bit = self.seu_rng.next_f64() < self.config.seu_double_bit_rate;
                upsets.push(Self::draw_upset(
                    t.max(0.0) as u64,
                    double_bit,
                    &mut self.seu_rng,
                ));
                let gap = self.exponential_gap();
                self.seu_next = Some(t + gap.max(1.0));
            }
        }
        upsets.sort_by_key(|u| u.cycle);
        for upset in &upsets {
            self.injected.seu_upsets += 1;
            if upset.double_bit {
                self.injected.seu_double_bits += 1;
            }
        }
        upsets
    }

    /// ICAP hook: decides whether the upcoming load of a `words`-word
    /// stream is corrupted, and where.
    ///
    /// The flip targets either the first frame-payload word (index 11 —
    /// the builder's 8-word preamble plus a FAR write and the FDRI header)
    /// or the embedded CRC value itself (`words - 3`); both are covered by
    /// the CRC check, so an injected fault is always *detected*, never
    /// silent. Streams too short to carry a frame corrupt the CRC word.
    pub fn next_icap_fault(&mut self, words: usize) -> Option<IcapFault> {
        if !self.icap.fires(self.config.icap_flip_rate) || words < 4 {
            return None;
        }
        let crc_index = words - 3;
        let index = if words > 16 && self.icap.rng.next_u64() & 1 == 0 {
            11
        } else {
            crc_index
        };
        let bit = (self.icap.rng.next_u64() % 32) as u32;
        self.injected.icap_corruptions += 1;
        Some(IcapFault { index, bit })
    }

    /// DFXC hook: cycles of BUSY stall before the upcoming trigger is
    /// accepted (0 = no stall).
    pub fn next_dfxc_stall(&mut self) -> u64 {
        if !self.dfxc.fires(self.config.dfxc_stall_rate) {
            return 0;
        }
        let max = self.config.dfxc_stall_max_cycles.max(1);
        let cycles = 1 + self.dfxc.rng.below(max);
        self.injected.dfxc_stalls += 1;
        self.injected.dfxc_stall_cycles += cycles;
        cycles
    }

    /// Registry hook: whether the upcoming lookup reads a stale/missing
    /// entry (a transient software-level failure; the caller retries).
    pub fn next_registry_miss(&mut self) -> bool {
        if !self.registry.fires(self.config.registry_miss_rate) {
            return false;
        }
        self.injected.registry_misses += 1;
        true
    }

    /// Decoupler hook: extra cycles before the upcoming decouple/re-couple
    /// CSR write acknowledges (0 = on time).
    pub fn next_decoupler_delay(&mut self) -> u64 {
        if !self.decoupler.fires(self.config.decoupler_delay_rate) {
            return 0;
        }
        let max = self.config.decoupler_delay_max_cycles.max(1);
        let cycles = 1 + self.decoupler.rng.below(max);
        self.injected.decoupler_delays += 1;
        self.injected.decoupler_delay_cycles += cycles;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let config = FaultConfig::uniform(0.3);
        let mut a = FaultPlan::new(42, config);
        let mut b = FaultPlan::new(42, config);
        for _ in 0..200 {
            assert_eq!(a.next_icap_fault(500), b.next_icap_fault(500));
            assert_eq!(a.next_dfxc_stall(), b.next_dfxc_stall());
            assert_eq!(a.next_registry_miss(), b.next_registry_miss());
            assert_eq!(a.next_decoupler_delay(), b.next_decoupler_delay());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(
            a.injected().total() > 0,
            "a 30% rate over 800 draws injects something"
        );
    }

    #[test]
    fn hooks_are_independent_streams() {
        // Draining one hook must not change another hook's outcomes.
        let config = FaultConfig::uniform(0.5);
        let mut interleaved = FaultPlan::new(9, config);
        let mut sequential = FaultPlan::new(9, config);
        let mut inter_stalls = Vec::new();
        for _ in 0..50 {
            interleaved.next_icap_fault(300);
            inter_stalls.push(interleaved.next_dfxc_stall());
            interleaved.next_registry_miss();
        }
        let seq_stalls: Vec<u64> = (0..50).map(|_| sequential.next_dfxc_stall()).collect();
        assert_eq!(inter_stalls, seq_stalls);
    }

    #[test]
    fn forcing_does_not_shift_later_outcomes() {
        let config = FaultConfig {
            icap_flip_rate: 0.2,
            ..FaultConfig::default()
        };
        let mut plain = FaultPlan::new(5, config);
        let mut forced = FaultPlan::new(5, config);
        forced.force_icap_fault(0);
        assert!(forced.next_icap_fault(200).is_some());
        plain.next_icap_fault(200);
        for _ in 0..100 {
            assert_eq!(plain.next_icap_fault(200), forced.next_icap_fault(200));
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut plan = FaultPlan::new(1, FaultConfig::default());
        for _ in 0..100 {
            assert!(plan.next_icap_fault(500).is_none());
            assert_eq!(plan.next_dfxc_stall(), 0);
            assert!(!plan.next_registry_miss());
            assert_eq!(plan.next_decoupler_delay(), 0);
        }
        assert_eq!(plan.injected().total(), 0);
    }

    #[test]
    fn seu_stream_is_seed_deterministic_and_slice_invariant() {
        let config = FaultConfig::default().with_seu(500.0, 0.25);
        let mut coarse = FaultPlan::new(11, config);
        let mut fine = FaultPlan::new(11, config);
        let all = coarse.next_seu_upsets(100_000);
        let mut sliced = Vec::new();
        for upto in (10_000..=100_000).step_by(10_000) {
            sliced.extend(fine.next_seu_upsets(upto));
        }
        assert_eq!(all, sliced, "time slicing must not change the stream");
        assert!(all.len() > 10, "~50 expected upsets over 100k cycles");
        assert!(all.iter().any(|u| u.double_bit));
        assert!(all.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert_eq!(coarse.injected().seu_upsets, all.len() as u64);
    }

    #[test]
    fn forcing_seu_does_not_shift_seeded_arrivals() {
        let config = FaultConfig::default().with_seu(200.0, 0.0);
        let mut plain = FaultPlan::new(21, config);
        let mut forced = FaultPlan::new(21, config);
        forced.force_seu(5_000, true);
        let seeded: Vec<SeuUpset> = plain.next_seu_upsets(200_000);
        let mixed: Vec<SeuUpset> = forced.next_seu_upsets(200_000);
        let forced_only: Vec<&SeuUpset> = mixed.iter().filter(|u| u.double_bit).collect();
        assert_eq!(forced_only.len(), 1);
        assert_eq!(forced_only[0].cycle, 5_000);
        assert_ne!(forced_only[0].bit, forced_only[0].second_bit);
        let seeded_in_mixed: Vec<SeuUpset> =
            mixed.iter().filter(|u| !u.double_bit).copied().collect();
        assert_eq!(seeded, seeded_in_mixed);
    }

    #[test]
    fn zero_seu_rate_draws_nothing() {
        let mut plan = FaultPlan::new(2, FaultConfig::uniform(0.4));
        assert!(plan.next_seu_upsets(1_000_000).is_empty());
        assert_eq!(plan.injected().seu_upsets, 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut plan = FaultPlan::new(3, FaultConfig::default());
        plan.force_icap_fault(0);
        let fault = plan.next_icap_fault(64).unwrap();
        let words: Vec<u32> = (0..64).collect();
        let corrupted = fault.corrupt(&words);
        let diffs: Vec<usize> = (0..64).filter(|&i| words[i] != corrupted[i]).collect();
        assert_eq!(diffs, vec![fault.index]);
        assert_eq!(
            (words[fault.index] ^ corrupted[fault.index]).count_ones(),
            1
        );
    }
}
