//! The size-driven P&R parallelism algorithm (Section IV, Table I).
//!
//! A DPR design is classified from its size metrics `(κ, α_av, γ)` — Eq. (1)
//! of the paper — and the class selects the implementation strategy:
//!
//! |                | γ < 1      | γ ≈ 1           | γ > 1               |
//! |----------------|------------|-----------------|---------------------|
//! | κ ≈ α_av       | impossible | serial          | fully-parallel      |
//! | κ ≫ α_av       | serial     | semi-parallel   | semi/fully-parallel |
//! | κ ≪ α_av       | impossible | serial          | fully-parallel      |

use crate::error::Error;
use presp_cad::flow::Strategy;
use presp_cad::spec::DprDesignSpec;
use std::fmt;

/// γ is "≈ 1" within this band.
pub(crate) const GAMMA_BAND: (f64, f64) = (0.85, 1.15);
/// κ ≈ α_av when κ/α_av falls inside this band; above it κ ≫ α_av, below
/// it κ ≪ α_av.
pub(crate) const KAPPA_ALPHA_BAND: (f64, f64) = (0.4, 2.5);
/// τ used for semi-parallel schedules (the paper sets τ = 2 throughout its
/// evaluation).
pub(crate) const SEMI_PARALLEL_TAU: usize = 2;

/// The five size classes of Section IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// κ ≫ α_av, γ < 1: large static, small total reconfigurable area.
    Class1_1,
    /// κ ≫ α_av, γ > 1: large static exceeded by the reconfigurable total.
    Class1_2,
    /// κ ≫ α_av, γ ≈ 1: static ≈ reconfigurable total.
    Class1_3,
    /// κ ≈ α_av or κ ≪ α_av, γ > 1: small static, large reconfigurable
    /// modules.
    Class2_1,
    /// κ ≈ α_av or κ ≪ α_av, γ ≈ 1: a single reconfigurable module.
    Class2_2,
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SizeClass::Class1_1 => "1.1",
            SizeClass::Class1_2 => "1.2",
            SizeClass::Class1_3 => "1.3",
            SizeClass::Class2_1 => "2.1",
            SizeClass::Class2_2 => "2.2",
        };
        write!(f, "class {s}")
    }
}

/// Classifies a design from its `(κ, α_av, γ)` profile.
///
/// # Errors
///
/// Returns [`Error::ImpossibleProfile`] for the blank Table I cells (γ < 1
/// with κ not ≫ α_av) and [`Error::BadDesign`] for designs with no
/// reconfigurable modules.
pub fn classify(spec: &DprDesignSpec) -> Result<SizeClass, Error> {
    if spec.reconfigurable().is_empty() {
        return Err(Error::BadDesign {
            detail: "design has no reconfigurable modules".into(),
        });
    }
    let (kappa, alpha_av, gamma) = spec.size_metrics();
    let ratio = kappa / alpha_av;
    let static_dominates = ratio > KAPPA_ALPHA_BAND.1;
    let gamma_low = gamma < GAMMA_BAND.0;
    let gamma_high = gamma > GAMMA_BAND.1;

    if static_dominates {
        Ok(if gamma_low {
            SizeClass::Class1_1
        } else if gamma_high {
            SizeClass::Class1_2
        } else {
            SizeClass::Class1_3
        })
    } else {
        // κ ≈ α_av or κ ≪ α_av.
        if gamma_low {
            return Err(Error::ImpossibleProfile {
                kappa,
                alpha_av,
                gamma,
            });
        }
        Ok(if gamma_high {
            SizeClass::Class2_1
        } else {
            SizeClass::Class2_2
        })
    }
}

/// Applies Table I: picks the P&R strategy for a classified design.
///
/// For Class 1.2 the table allows semi- or fully-parallel; the paper's
/// evaluation (Table IV, SoC_A) shows fully-parallel winning, so that is
/// what the algorithm selects. Class 2.2 designs hold a single
/// reconfigurable module and "can only be implemented in a serial mode".
///
/// # Errors
///
/// Propagates classification errors.
pub fn choose_strategy(spec: &DprDesignSpec) -> Result<(SizeClass, Strategy), Error> {
    let class = classify(spec)?;
    let strategy = match class {
        SizeClass::Class1_1 => Strategy::Serial,
        SizeClass::Class1_2 => Strategy::FullyParallel,
        // For γ ≈ 1, κ/α_av ≈ N, so Class 1.3 (κ ≫ α_av) implies N ≥ 3 and
        // τ = 2 is always a genuine grouping.
        SizeClass::Class1_3 => Strategy::SemiParallel {
            tau: SEMI_PARALLEL_TAU,
        },
        SizeClass::Class2_1 => Strategy::FullyParallel,
        SizeClass::Class2_2 => Strategy::Serial,
    };
    Ok((class, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_cad::flow::Strategy; // disambiguate from proptest's Strategy trait
    use presp_fpga::part::FpgaPart;
    use presp_fpga::resources::Resources;
    use proptest::prelude::*;

    fn spec(static_luts: u64, rms: &[u64]) -> DprDesignSpec {
        let mut b =
            DprDesignSpec::builder("t", FpgaPart::Vc707).static_part(Resources::luts(static_luts));
        for (i, &l) in rms.iter().enumerate() {
            b = b.reconfigurable(format!("rm{i}"), Resources::luts(l));
        }
        b.build().unwrap()
    }

    #[test]
    fn characterization_socs_classify_as_in_the_paper() {
        // SOC_1: 16 MACs — Class 1.1 → serial.
        let soc1 = spec(82_267, &[2_450; 16]);
        assert_eq!(classify(&soc1).unwrap(), SizeClass::Class1_1);
        assert_eq!(choose_strategy(&soc1).unwrap().1, Strategy::Serial);

        // SOC_2: conv2d/gemm/fft/sort — Class 1.2 → fully-parallel.
        let soc2 = spec(82_267, &[36_741, 30_617, 33_690, 20_468]);
        assert_eq!(classify(&soc2).unwrap(), SizeClass::Class1_2);
        assert_eq!(choose_strategy(&soc2).unwrap().1, Strategy::FullyParallel);

        // SOC_3: conv2d/gemm/sort — Class 1.3 → semi-parallel (τ=2).
        let soc3 = spec(82_267, &[36_741, 30_617, 20_468]);
        assert_eq!(classify(&soc3).unwrap(), SizeClass::Class1_3);
        assert_eq!(
            choose_strategy(&soc3).unwrap().1,
            Strategy::SemiParallel { tau: 2 }
        );

        // SOC_4: CPU moved into the reconfigurable part — Class 2.1 →
        // fully-parallel.
        let soc4 = spec(40_723, &[36_741, 30_617, 33_690, 20_468, 41_544]);
        assert_eq!(classify(&soc4).unwrap(), SizeClass::Class2_1);
        assert_eq!(choose_strategy(&soc4).unwrap().1, Strategy::FullyParallel);
    }

    #[test]
    fn single_rm_design_is_class_2_2_serial() {
        let s = spec(30_000, &[31_000]);
        assert_eq!(classify(&s).unwrap(), SizeClass::Class2_2);
        assert_eq!(choose_strategy(&s).unwrap().1, Strategy::Serial);
    }

    #[test]
    fn impossible_profile_is_rejected() {
        // Small static with γ < 1 cannot be realized with equal-size RMs,
        // but a synthetic spec can state it; the classifier must reject it.
        let s = spec(50_000, &[20_000]);
        // γ = 0.4 < 0.85 and κ/α_av = 50/66 ≈ 0.76 (≈ band).
        assert!(matches!(classify(&s), Err(Error::ImpossibleProfile { .. })));
    }

    #[test]
    fn no_rms_is_a_bad_design() {
        let s = DprDesignSpec::builder("t", FpgaPart::Vc707)
            .static_part(Resources::luts(1_000))
            .build()
            .unwrap();
        assert!(matches!(classify(&s), Err(Error::BadDesign { .. })));
    }

    #[test]
    fn two_equal_rms_matching_the_static_are_class_2_2() {
        // For γ ≈ 1, κ/α_av ≈ N: with N = 2 the static cannot dominate the
        // average module, so the design lands in group 2 and runs serially.
        let s = spec(82_267, &[41_000, 40_000]);
        assert_eq!(classify(&s).unwrap(), SizeClass::Class2_2);
        assert_eq!(choose_strategy(&s).unwrap().1, Strategy::Serial);
    }

    #[test]
    fn class_1_3_needs_three_or_more_rms() {
        let s = spec(82_267, &[28_000, 27_000, 26_000]);
        assert_eq!(classify(&s).unwrap(), SizeClass::Class1_3);
        assert_eq!(
            choose_strategy(&s).unwrap().1,
            Strategy::SemiParallel { tau: 2 }
        );
    }

    // --- Table I band boundaries -----------------------------------------
    //
    // Both bands are inclusive: γ is "≈ 1" for γ ∈ [0.85, 1.15] exactly,
    // and the static part "dominates" only for κ/α_av strictly above 2.5.
    // With Eq. (1)'s metrics κ/α_av = N·S/ΣR and γ = ΣR/S, so boundary
    // values are pinned with integer LUT counts whose single-division
    // results round to the same doubles as the band literals.

    #[test]
    fn gamma_at_lower_band_edge_is_inside_the_band() {
        // γ = 85 000 / 100 000 rounds to the same double as the 0.85
        // literal, so `gamma < GAMMA_BAND.0` must be false: γ ≈ 1.
        let group2 = spec(100_000, &[85_000]);
        assert_eq!(classify(&group2).unwrap(), SizeClass::Class2_2);
        assert_eq!(choose_strategy(&group2).unwrap().1, Strategy::Serial);
        // Same γ with the static dominating (N = 4 → κ/α_av ≈ 4.7).
        let group1 = spec(100_000, &[21_250; 4]);
        assert_eq!(classify(&group1).unwrap(), SizeClass::Class1_3);
        assert_eq!(
            choose_strategy(&group1).unwrap().1,
            Strategy::SemiParallel { tau: 2 }
        );
    }

    #[test]
    fn gamma_at_upper_band_edge_is_inside_the_band() {
        // γ = 115 000 / 100 000 == the 1.15 literal: still ≈ 1.
        let group2 = spec(100_000, &[115_000]);
        assert_eq!(classify(&group2).unwrap(), SizeClass::Class2_2);
        let group1 = spec(100_000, &[28_750; 4]);
        assert_eq!(classify(&group1).unwrap(), SizeClass::Class1_3);
    }

    #[test]
    fn gamma_just_outside_the_band_changes_class() {
        // One LUT below the band: γ < 0.85.
        assert!(matches!(
            classify(&spec(100_000, &[84_999])),
            Err(Error::ImpossibleProfile { .. })
        ));
        assert_eq!(
            classify(&spec(100_000, &[21_249, 21_250, 21_250, 21_250])).unwrap(),
            SizeClass::Class1_1
        );
        // One LUT above the band: γ > 1.15.
        assert_eq!(
            classify(&spec(100_000, &[115_001])).unwrap(),
            SizeClass::Class2_1
        );
        assert_eq!(
            classify(&spec(100_000, &[28_751, 28_750, 28_750, 28_750])).unwrap(),
            SizeClass::Class1_2
        );
    }

    #[test]
    fn kappa_alpha_ratio_at_upper_band_edge_does_not_dominate() {
        // κ/α_av = 3·50 000 / 60 000 = 2.5 exactly: the band is inclusive,
        // so the static part does NOT dominate and (γ = 1.2 > 1.15) the
        // design is Class 2.1, not 1.2.
        let s = spec(50_000, &[20_000; 3]);
        assert_eq!(classify(&s).unwrap(), SizeClass::Class2_1);
        // One static LUT more tips the ratio above 2.5: Class 1.2.
        let s = spec(50_001, &[20_000; 3]);
        assert_eq!(classify(&s).unwrap(), SizeClass::Class1_2);
    }

    #[test]
    fn kappa_alpha_ratio_at_lower_band_edge_behaves_like_the_middle_band() {
        // κ/α_av = 10 000 / 25 000 = 0.4 exactly (N = 1): κ ≪ α_av and
        // κ ≈ α_av share a Table I row, so the inclusive lower edge must
        // classify identically to a mid-band profile with the same γ.
        let edge = spec(10_000, &[25_000]);
        let mid = spec(20_000, &[50_000]); // ratio 1.0, same γ = 2.5
        assert_eq!(classify(&edge).unwrap(), SizeClass::Class2_1);
        assert_eq!(classify(&edge).unwrap(), classify(&mid).unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn classifier_is_total_on_realizable_designs(
            static_luts in 20_000u64..120_000,
            rms in proptest::collection::vec(2_000u64..45_000, 1..8),
        ) {
            let total: u64 = static_luts + rms.iter().sum::<u64>();
            prop_assume!(total < 300_000);
            let s = spec(static_luts, &rms);
            match classify(&s) {
                Ok(_class) => {
                    // The chosen strategy must be executable.
                    let (_, strategy) = choose_strategy(&s).unwrap();
                    let tau = strategy.tau(rms.len());
                    prop_assert!(tau >= 1 && tau <= rms.len());
                }
                Err(Error::ImpossibleProfile { gamma, kappa, alpha_av }) => {
                    // Only the blank Table I cells may be rejected.
                    prop_assert!(gamma < GAMMA_BAND.0);
                    prop_assert!(kappa / alpha_av <= KAPPA_ALPHA_BAND.1);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
            }
        }
    }
}
