//! SoC designs: tile grids plus per-tile accelerator allocations.
//!
//! Includes constructors for every design evaluated in the paper: the four
//! Vivado-characterization SoCs (SOC_1–SOC_4, Table III), the four WAMI
//! parallelism-evaluation SoCs (SoC_A–SoC_D, Table IV) and the three
//! deployed WAMI systems (SoC_X–SoC_Z, Table VI).

use crate::error::Error;
use presp_accel::catalog::AcceleratorKind;
use presp_cad::spec::DprDesignSpec;
use presp_fpga::part::FpgaPart;
use presp_fpga::resources::Resources;
use presp_soc::config::{SocConfig, TileCoord};
use presp_soc::tile::TileKind;
use std::collections::BTreeMap;

/// A complete PR-ESP design: the SoC configuration plus, for every
/// reconfigurable tile, the set of accelerators that may be loaded into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocDesign {
    /// Design name.
    pub name: String,
    /// Target part.
    pub part: FpgaPart,
    /// The tile grid.
    pub config: SocConfig,
    /// Accelerators allocatable to each reconfigurable tile.
    pub tile_accels: BTreeMap<TileCoord, Vec<AcceleratorKind>>,
    /// Whether the CPU tile is moved into the reconfigurable part (the
    /// paper's SOC_4 / SoC_D trick to shrink the static region).
    pub cpu_reconfigurable: bool,
}

/// Canonical region name of a reconfigurable tile.
pub fn region_name(coord: TileCoord) -> String {
    format!("rt_r{}c{}", coord.row, coord.col)
}

/// The Table IV WAMI SoCs: each name with the Fig. 3 indices of the
/// accelerators in its four reconfigurable tiles.
pub const TABLE4_SOCS: [(&str, [usize; 4]); 4] = [
    ("soc_a", [4, 8, 10, 9]),
    ("soc_b", [2, 3, 11, 1]),
    ("soc_c", [7, 11, 8, 2]),
    ("soc_d", [4, 5, 9, 2]),
];

impl SocDesign {
    /// Every design the paper evaluates, in paper order: SOC_1–SOC_4
    /// (Table III), SoC_A–SoC_D (Table IV, from [`TABLE4_SOCS`]) and
    /// SoC_X–SoC_Z (Table VI).
    pub fn builtins() -> Vec<SocDesign> {
        let table4 = TABLE4_SOCS
            .iter()
            .map(|(name, indices)| SocDesign::wami_table4(*name, indices));
        [
            SocDesign::characterization_soc1(),
            SocDesign::characterization_soc2(),
            SocDesign::characterization_soc3(),
            SocDesign::characterization_soc4(),
        ]
        .into_iter()
        .chain(table4)
        .chain([
            SocDesign::wami_soc_x(),
            SocDesign::wami_soc_y(),
            SocDesign::wami_soc_z(),
        ])
        .map(|design| design.expect("built-in designs are valid"))
        .collect()
    }

    /// The built-in design called `name`, if there is one (see
    /// [`SocDesign::builtins`]).
    pub fn builtin(name: &str) -> Option<SocDesign> {
        SocDesign::builtins().into_iter().find(|d| d.name == name)
    }

    /// Builds a design over a 3×3 grid with one reconfigurable tile per
    /// accelerator set in `tile_accels` (row-major assignment).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDesign`] for empty allocations or more tiles
    /// than the grid holds, and SoC-configuration errors.
    pub fn grid_3x3(
        name: impl Into<String>,
        tile_accels: Vec<Vec<AcceleratorKind>>,
        cpu_reconfigurable: bool,
    ) -> Result<SocDesign, Error> {
        let name = name.into();
        if tile_accels.is_empty() || tile_accels.iter().any(|set| set.is_empty()) {
            return Err(Error::BadDesign {
                detail: "every reconfigurable tile needs ≥1 accelerator".into(),
            });
        }
        let config = SocConfig::grid_3x3_reconf(name.clone(), tile_accels.len())?;
        let coords = config.reconfigurable_tiles();
        let map = coords.into_iter().zip(tile_accels).collect();
        Ok(SocDesign {
            name,
            part: FpgaPart::Vc707,
            config,
            tile_accels: map,
            cpu_reconfigurable,
        })
    }

    /// SOC_1 of the characterization (Table III): a 4×5 grid with sixteen
    /// reconfigurable MAC tiles — Class 1.1.
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn characterization_soc1() -> Result<SocDesign, Error> {
        let mut tiles = vec![TileKind::Cpu, TileKind::Mem, TileKind::Aux, TileKind::Empty];
        tiles.extend(std::iter::repeat_n(TileKind::Reconfigurable, 16));
        let config = SocConfig::new("soc_1", 4, 5, tiles)?;
        let map = config
            .reconfigurable_tiles()
            .into_iter()
            .map(|c| (c, vec![AcceleratorKind::Mac]))
            .collect();
        Ok(SocDesign {
            name: "soc_1".into(),
            part: FpgaPart::Vc707,
            config,
            tile_accels: map,
            cpu_reconfigurable: false,
        })
    }

    /// SOC_2 (Class 1.2): Conv2d, GEMM, FFT and Sort in four
    /// reconfigurable tiles.
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn characterization_soc2() -> Result<SocDesign, Error> {
        SocDesign::grid_3x3(
            "soc_2",
            vec![
                vec![AcceleratorKind::Conv2d],
                vec![AcceleratorKind::Gemm],
                vec![AcceleratorKind::Fft],
                vec![AcceleratorKind::Sort],
            ],
            false,
        )
    }

    /// SOC_3 (Class 1.3): SOC_2 without the FFT.
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn characterization_soc3() -> Result<SocDesign, Error> {
        SocDesign::grid_3x3(
            "soc_3",
            vec![
                vec![AcceleratorKind::Conv2d],
                vec![AcceleratorKind::Gemm],
                vec![AcceleratorKind::Sort],
            ],
            false,
        )
    }

    /// SOC_4 (Class 2.1): SOC_2 with the CPU tile moved into the
    /// reconfigurable part to shrink the static region.
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn characterization_soc4() -> Result<SocDesign, Error> {
        SocDesign::grid_3x3(
            "soc_4",
            vec![
                vec![AcceleratorKind::Conv2d],
                vec![AcceleratorKind::Gemm],
                vec![AcceleratorKind::Fft],
                vec![AcceleratorKind::Sort],
            ],
            true,
        )
    }

    /// A Table IV WAMI SoC: four reconfigurable tiles, one WAMI accelerator
    /// each, selected by Fig. 3 indices (e.g. SoC_A = `&[4, 8, 10, 9]`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDesign`] for invalid kernel indices.
    pub fn wami_table4(name: impl Into<String>, indices: &[usize]) -> Result<SocDesign, Error> {
        let name = name.into();
        let cpu_reconfigurable = name.ends_with('d'); // SoC_D moves the CPU
        let mut sets = Vec::new();
        for &i in indices {
            let kind = AcceleratorKind::wami(i).ok_or_else(|| Error::BadDesign {
                detail: format!("bad WAMI kernel index {i}"),
            })?;
            sets.push(vec![kind]);
        }
        SocDesign::grid_3x3(name, sets, cpu_reconfigurable)
    }

    /// A Table VI deployment SoC: reconfigurable tiles hosting *sets* of
    /// WAMI accelerators (swapped at runtime), e.g. SoC_Y =
    /// `&[&[1, 3, 7, 12], &[2, 6, 8], &[4, 9, 10]]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDesign`] for invalid kernel indices.
    pub(crate) fn wami_table6(
        name: impl Into<String>,
        tiles: &[&[usize]],
    ) -> Result<SocDesign, Error> {
        let mut sets = Vec::new();
        for indices in tiles {
            let mut set = Vec::new();
            for &i in *indices {
                set.push(AcceleratorKind::wami(i).ok_or_else(|| Error::BadDesign {
                    detail: format!("bad WAMI kernel index {i}"),
                })?);
            }
            sets.push(set);
        }
        SocDesign::grid_3x3(name, sets, false)
    }

    /// SoC_X of Table VI (two reconfigurable tiles).
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn wami_soc_x() -> Result<SocDesign, Error> {
        SocDesign::wami_table6("soc_x", &[&[1, 4, 9, 10, 8], &[2, 3, 6, 7, 11]])
    }

    /// SoC_Y of Table VI (three reconfigurable tiles).
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn wami_soc_y() -> Result<SocDesign, Error> {
        SocDesign::wami_table6("soc_y", &[&[1, 3, 7, 12], &[2, 6, 8], &[4, 9, 10]])
    }

    /// SoC_Z of Table VI (four reconfigurable tiles).
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors the fallible constructors.
    pub fn wami_soc_z() -> Result<SocDesign, Error> {
        SocDesign::wami_table6(
            "soc_z",
            &[&[1, 6, 12], &[2, 5, 11], &[4, 10, 7], &[3, 8, 9]],
        )
    }

    /// Resource requirement of one reconfigurable region: the
    /// component-wise maximum over every accelerator it may host.
    pub(crate) fn region_requirement(&self, coord: TileCoord) -> Option<Resources> {
        let accels = self.tile_accels.get(&coord)?;
        Some(
            accels
                .iter()
                .fold(Resources::ZERO, |acc, kind| acc.max(&kind.resources())),
        )
    }

    /// Static-part resources (minus the CPU when it is reconfigurable).
    pub(crate) fn static_resources(&self) -> Resources {
        let mut r = self.config.static_resources();
        if self.cpu_reconfigurable {
            r = r.saturating_sub(&TileKind::Cpu.static_resources());
        }
        r
    }

    /// Derives the CAD design specification (static + one RM per region,
    /// plus the CPU as an extra RM when reconfigurable).
    ///
    /// # Errors
    ///
    /// Propagates spec-builder errors (e.g. device overflow).
    pub fn to_spec(&self) -> Result<DprDesignSpec, Error> {
        let mut b = DprDesignSpec::builder(self.name.clone(), self.part)
            .static_part(self.static_resources());
        for coord in self.tile_accels.keys() {
            let req = self
                .region_requirement(*coord)
                .expect("coord comes from the map");
            b = b.reconfigurable(region_name(*coord), req);
        }
        if self.cpu_reconfigurable {
            b = b.reconfigurable("rt_cpu", TileKind::Cpu.static_resources());
        }
        Ok(b.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{classify, SizeClass};

    #[test]
    fn characterization_specs_match_paper_metrics() {
        let soc2 = SocDesign::characterization_soc2()
            .unwrap()
            .to_spec()
            .unwrap();
        let (kappa, alpha, gamma) = soc2.size_metrics();
        assert!((kappa - 0.271).abs() < 0.005);
        assert!((alpha - 0.100).abs() < 0.005);
        assert!((gamma - 1.477).abs() < 0.01);
    }

    #[test]
    fn soc1_has_sixteen_mac_tiles() {
        let soc1 = SocDesign::characterization_soc1().unwrap();
        assert_eq!(soc1.tile_accels.len(), 16);
        let spec = soc1.to_spec().unwrap();
        assert_eq!(spec.reconfigurable().len(), 16);
        assert_eq!(classify(&spec).unwrap(), SizeClass::Class1_1);
    }

    #[test]
    fn soc4_moves_cpu_into_reconfigurable_part() {
        let soc4 = SocDesign::characterization_soc4().unwrap();
        let spec = soc4.to_spec().unwrap();
        assert_eq!(spec.reconfigurable().len(), 5);
        assert!(spec.rm("rt_cpu").is_some());
        assert_eq!(spec.static_resources().lut, 82_267 - 41_544);
        assert_eq!(classify(&spec).unwrap(), SizeClass::Class2_1);
    }

    #[test]
    fn table4_socs_classify_as_in_the_paper() {
        let expectations = [
            SizeClass::Class1_2,
            SizeClass::Class1_1,
            SizeClass::Class1_3,
            SizeClass::Class2_1,
        ];
        for ((name, indices), expected) in TABLE4_SOCS.iter().zip(expectations) {
            let spec = SocDesign::wami_table4(*name, indices)
                .unwrap()
                .to_spec()
                .unwrap();
            assert_eq!(classify(&spec).unwrap(), expected, "{name}");
        }
    }

    #[test]
    fn builtins_come_in_paper_order_and_resolve_by_name() {
        let names: Vec<String> = SocDesign::builtins().into_iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            [
                "soc_1", "soc_2", "soc_3", "soc_4", "soc_a", "soc_b", "soc_c", "soc_d", "soc_x",
                "soc_y", "soc_z"
            ]
        );
        for name in &names {
            assert_eq!(&SocDesign::builtin(name).unwrap().name, name);
        }
        assert!(SocDesign::builtin("soc_e").is_none());
    }

    #[test]
    fn table6_socs_have_expected_tile_counts() {
        assert_eq!(SocDesign::wami_soc_x().unwrap().tile_accels.len(), 2);
        assert_eq!(SocDesign::wami_soc_y().unwrap().tile_accels.len(), 3);
        assert_eq!(SocDesign::wami_soc_z().unwrap().tile_accels.len(), 4);
        // SoC_Z allocates all twelve kernels.
        let z = SocDesign::wami_soc_z().unwrap();
        let total: usize = z.tile_accels.values().map(|v| v.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn region_requirement_is_componentwise_max() {
        let x = SocDesign::wami_soc_x().unwrap();
        let rt1 = *x.tile_accels.keys().next().unwrap();
        let req = x.region_requirement(rt1).unwrap();
        // RT1 hosts {1, 4, 9, 10, 8}: warp (#4) dominates LUTs.
        assert_eq!(req.lut, AcceleratorKind::wami(4).unwrap().resources().lut);
        assert!(req.dsp >= AcceleratorKind::wami(4).unwrap().resources().dsp);
    }

    #[test]
    fn bad_designs_are_rejected() {
        assert!(matches!(
            SocDesign::grid_3x3("x", vec![], false),
            Err(Error::BadDesign { .. })
        ));
        assert!(matches!(
            SocDesign::wami_table4("x", &[0]),
            Err(Error::BadDesign { .. })
        ));
        assert!(matches!(
            SocDesign::wami_table4("x", &[13]),
            Err(Error::BadDesign { .. })
        ));
    }
}
