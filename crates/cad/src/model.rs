//! The empirical CAD runtime model.
//!
//! Mirrors the model the paper built from "an exhaustive characterization of
//! the Vivado tool" (Section IV): compile minutes as a function of design
//! size (kLUTs) and run structure. The constants below were fitted against
//! Table III (the four characterization SoCs on the VC707, Vivado 2019.2,
//! 16-core host); `EXPERIMENTS.md` records the model-vs-paper residuals.
//!
//! Fitted forms (sizes in kLUTs):
//!
//! * monolithic / serial full P&R: `C·L^P` (serial pays a checkpoint-
//!   stitching overhead on top) — fitted to SOC_1 (89 min @ 121.5k) and
//!   SOC_2 (181 min @ 203.8k), giving `P = 1.373`;
//! * static-only P&R: `C·S^P + K·S·B + stitch·n`, where `B` is the fabric
//!   blocked by reconfigurable pblocks — the `S·B` interaction captures the
//!   static router detouring around reserved regions and fits all four
//!   characterization SoCs within ~8 %;
//! * in-context RM run: `ctx(S) + Σ (fixed + slope·rm)` — the per-RM cost is
//!   close to linear in the paper's Ω data.

/// Monolithic P&R coefficient: `minutes = C · (kLUTs)^P`.
pub(crate) const BASE_COEFF: f64 = 0.10626;
/// Exponent of the size term (fitted on SOC_1/SOC_2 serial runs).
pub(crate) const BASE_EXP: f64 = 1.373;
/// Checkpoint-stitching overhead of the PR-ESP serial schedule relative to
/// a monolithic run (loading OoC checkpoints, per-RP constraint handling).
pub(crate) const SERIAL_DPR_OVERHEAD: f64 = 1.15;
/// Static-only interaction coefficient: minutes per (static kLUT × blocked
/// kLUT / 1000) — the static router detours around reserved pblocks.
pub(crate) const STATIC_BLOCKED_COEFF: f64 = 3.5e-3;
/// Per-reconfigurable-partition cost of stitching an empty placeholder
/// hard-macro into the static-only run, minutes.
pub(crate) const PLACEHOLDER_STITCH_MIN: f64 = 0.9;
/// Context-load cost of an in-context RM run: `CTX · (static kLUTs)^0.8`.
pub(crate) const CONTEXT_LOAD_COEFF: f64 = 0.46;
/// Exponent of the context-load term.
pub(crate) const CONTEXT_LOAD_EXP: f64 = 0.8;
/// Fixed per-RM cost inside an in-context run (checkpoint load, interface
/// routing, bitstream-region carving), minutes.
pub(crate) const RM_FIXED_MIN: f64 = 3.0;
/// Per-kLUT cost of placing an RM inside its pblock, minutes.
pub(crate) const RM_PER_KLUT_MIN: f64 = 0.55;
/// Effective fill of a reconfigurable pblock (the floorplanner provisions
/// 1/0.8 of the requirement), used to compute blocked fabric.
pub(crate) const PBLOCK_FILL: f64 = 0.8;
/// Synthesis: `S0 + S1 · kLUTs` for an OoC module run.
pub(crate) const SYNTH_BASE_MIN: f64 = 3.0;
/// Synthesis minutes per kLUT.
pub(crate) const SYNTH_PER_KLUT: f64 = 0.40;
/// Extra synthesis weight of the static part (NoC, sockets, memory
/// controllers synthesize slower than HLS datapaths).
pub(crate) const SYNTH_STATIC_FACTOR: f64 = 1.2;
/// Extra weight of a monolithic whole-SoC synthesis (cross-module
/// optimization over the full hierarchy).
pub(crate) const SYNTH_MONO_FACTOR: f64 = 1.0;

/// Simulated compile time in minutes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Minutes(pub f64);

impl Minutes {
    /// The underlying value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Minutes {
    type Output = Minutes;
    fn add(self, rhs: Minutes) -> Minutes {
        Minutes(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Minutes {
    fn sum<I: Iterator<Item = Minutes>>(iter: I) -> Minutes {
        Minutes(iter.map(|m| m.0).sum())
    }
}

impl std::fmt::Display for Minutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} min", self.0)
    }
}

/// Superlinear base P&R cost of placing `kluts` thousand LUTs.
pub(crate) fn base_pnr(kluts: f64) -> f64 {
    BASE_COEFF * kluts.max(0.0).powf(BASE_EXP)
}

/// Minutes for a monolithic P&R of the whole design (the standard Xilinx
/// DPR flow runs exactly one such instance).
pub(crate) fn monolithic_pnr(total_kluts: f64) -> Minutes {
    Minutes(base_pnr(total_kluts))
}

/// Minutes for PR-ESP's serial schedule: one instance, whole design, plus
/// checkpoint-stitching overhead.
pub(crate) fn serial_pnr(total_kluts: f64) -> Minutes {
    Minutes(base_pnr(total_kluts) * SERIAL_DPR_OVERHEAD)
}

/// Minutes for the static-only P&R with `n_partitions` placeholder
/// hard-macros, where the pblocks reserve `blocked_kluts` of fabric.
pub(crate) fn static_only_pnr(
    static_kluts: f64,
    blocked_kluts: f64,
    n_partitions: usize,
) -> Minutes {
    Minutes(
        base_pnr(static_kluts)
            + STATIC_BLOCKED_COEFF * static_kluts * blocked_kluts
            + PLACEHOLDER_STITCH_MIN * n_partitions as f64,
    )
}

/// Context-load minutes of an in-context RM instance (reading the routed
/// static design).
pub(crate) fn context_load(static_kluts: f64) -> Minutes {
    Minutes(CONTEXT_LOAD_COEFF * static_kluts.max(0.0).powf(CONTEXT_LOAD_EXP))
}

/// Minutes for placing one RM inside its pblock (excluding context load).
pub(crate) fn rm_pnr(rm_kluts: f64) -> Minutes {
    Minutes(RM_FIXED_MIN + RM_PER_KLUT_MIN * rm_kluts.max(0.0))
}

/// Minutes for one in-context instance placing a group of RMs.
pub(crate) fn rm_group_run(static_kluts: f64, rm_kluts: &[f64]) -> Minutes {
    Minutes(context_load(static_kluts).0 + rm_kluts.iter().map(|&l| rm_pnr(l).0).sum::<f64>())
}

/// Minutes for an OoC synthesis of one module.
pub(crate) fn ooc_synth(kluts: f64) -> Minutes {
    Minutes(SYNTH_BASE_MIN + SYNTH_PER_KLUT * kluts)
}

/// Minutes for synthesizing the static part (NoC-heavy).
pub(crate) fn static_synth(static_kluts: f64) -> Minutes {
    Minutes(SYNTH_BASE_MIN + SYNTH_PER_KLUT * SYNTH_STATIC_FACTOR * static_kluts)
}

/// Minutes for a monolithic whole-design synthesis.
pub(crate) fn monolithic_synth(total_kluts: f64) -> Minutes {
    Minutes(SYNTH_BASE_MIN + SYNTH_PER_KLUT * SYNTH_MONO_FACTOR * total_kluts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cost_is_superlinear() {
        assert!(base_pnr(200.0) > 2.0 * base_pnr(100.0));
        assert_eq!(base_pnr(0.0), 0.0);
    }

    #[test]
    fn serial_matches_soc1_and_soc2_calibration_points() {
        // Table III: SOC_1 serial = 89 min (121.5 kLUTs), SOC_2 = 181 min
        // (203.8 kLUTs). These are the fit's anchor points.
        let soc1 = serial_pnr(121.5);
        let soc2 = serial_pnr(203.8);
        assert!((soc1.0 - 89.0).abs() < 3.0, "SOC_1 serial = {soc1}");
        assert!((soc2.0 - 181.0).abs() < 5.0, "SOC_2 serial = {soc2}");
    }

    #[test]
    fn static_only_matches_characterization() {
        // Table III t_static under parallelism: SOC_1 = 75, SOC_2 = 94,
        // SOC_3 = 86, SOC_4 = 42 (blocked = Σrm / 0.8 fill).
        let soc1 = static_only_pnr(82.3, 39.2 / 0.8, 16);
        let soc2 = static_only_pnr(82.3, 121.5 / 0.8, 4);
        let soc3 = static_only_pnr(82.3, 87.8 / 0.8, 3);
        let soc4 = static_only_pnr(40.7, 163.0 / 0.8, 5);
        assert!((soc1.0 - 75.0).abs() < 10.0, "SOC_1 t_static = {soc1}");
        assert!((soc2.0 - 94.0).abs() < 10.0, "SOC_2 t_static = {soc2}");
        assert!((soc3.0 - 86.0).abs() < 10.0, "SOC_3 t_static = {soc3}");
        assert!((soc4.0 - 42.0).abs() < 10.0, "SOC_4 t_static = {soc4}");
    }

    #[test]
    fn serial_is_slower_than_monolithic() {
        let mono = monolithic_pnr(180.0);
        let serial = serial_pnr(180.0);
        assert!((serial.0 / mono.0 - SERIAL_DPR_OVERHEAD).abs() < 1e-12);
    }

    #[test]
    fn static_only_charges_for_placeholders() {
        let none = static_only_pnr(82.0, 150.0, 0);
        let four = static_only_pnr(82.0, 150.0, 4);
        assert!((four.0 - none.0 - 4.0 * PLACEHOLDER_STITCH_MIN).abs() < 1e-9);
    }

    #[test]
    fn blocked_fabric_raises_static_cost() {
        let open = static_only_pnr(82.0, 40.0, 4);
        let tight = static_only_pnr(82.0, 200.0, 4);
        assert!(tight.0 > open.0);
    }

    #[test]
    fn rm_group_is_load_plus_members() {
        let solo = rm_group_run(82.0, &[36.7]);
        let pair = rm_group_run(82.0, &[36.7, 20.5]);
        let expected = solo.0 + rm_pnr(20.5).0;
        assert!((pair.0 - expected).abs() < 1e-9);
    }

    #[test]
    fn in_context_mac_run_is_mostly_context_load() {
        // SOC_1's MACs are tiny; the in-context instance cost is dominated
        // by loading the 82k-LUT routed static design.
        let mac = rm_group_run(82.3, &[2.45]);
        let load = context_load(82.3);
        assert!(load.0 / mac.0 > 0.7, "load {load} of {mac}");
        assert!(mac.0 > 10.0 && mac.0 < 30.0, "MAC in-context = {mac}");
    }

    #[test]
    fn synthesis_is_linear() {
        let a = ooc_synth(10.0);
        let b = ooc_synth(20.0);
        let c = ooc_synth(30.0);
        assert!(((c.0 - b.0) - (b.0 - a.0)).abs() < 1e-9);
    }

    #[test]
    fn minutes_display_and_sum() {
        let total: Minutes = [Minutes(1.5), Minutes(2.5)].into_iter().sum();
        assert_eq!(total, Minutes(4.0));
        assert_eq!(format!("{total}"), "4.0 min");
    }
}
