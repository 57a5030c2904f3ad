//! DPR design specifications consumed by the CAD flow.

use crate::error::Error;
use presp_fpga::part::FpgaPart;
use presp_fpga::resources::Resources;
use std::collections::BTreeSet;

/// One reconfigurable module (the contents of one reconfigurable tile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmSpec {
    /// Instance name (unique within a design).
    pub name: String,
    /// Post-synthesis resource footprint.
    pub resources: Resources,
}

/// A complete DPR design: the static part plus its reconfigurable modules.
///
/// Built with [`DprDesignSpec::builder`]; see the crate-level example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DprDesignSpec {
    name: String,
    part: FpgaPart,
    static_resources: Resources,
    reconfigurable: Vec<RmSpec>,
}

impl DprDesignSpec {
    /// Starts building a design spec.
    pub fn builder(name: impl Into<String>, part: FpgaPart) -> DprDesignSpecBuilder {
        DprDesignSpecBuilder {
            name: name.into(),
            part,
            static_resources: Resources::ZERO,
            reconfigurable: Vec::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resources of the static part (every non-reconfigurable tile, the NoC
    /// and the sockets).
    pub fn static_resources(&self) -> Resources {
        self.static_resources
    }

    /// The reconfigurable modules.
    pub fn reconfigurable(&self) -> &[RmSpec] {
        &self.reconfigurable
    }

    /// Looks up a reconfigurable module by name.
    pub fn rm(&self, name: &str) -> Option<&RmSpec> {
        self.reconfigurable.iter().find(|r| r.name == name)
    }

    /// Sum of all reconfigurable module resources.
    pub(crate) fn reconfigurable_total(&self) -> Resources {
        self.reconfigurable.iter().map(|r| r.resources).sum()
    }

    /// Total design resources (static + all reconfigurable modules).
    pub(crate) fn total_resources(&self) -> Resources {
        self.static_resources + self.reconfigurable_total()
    }

    /// The paper's Eq. (1) size metrics `(κ, α_av, γ)` against the part's
    /// nominal LUT capacity.
    ///
    /// `κ` is the static fraction of the device, `α_av` the average
    /// reconfigurable-module fraction, `γ` the reconfigurable-to-static
    /// ratio. Returns `(κ, 0, 0)` for a design with no reconfigurable
    /// modules.
    pub fn size_metrics(&self) -> (f64, f64, f64) {
        let lut_tot = self.part.nominal_capacity().lut as f64;
        let static_luts = self.static_resources.lut as f64;
        let kappa = static_luts / lut_tot;
        let n = self.reconfigurable.len();
        if n == 0 || static_luts == 0.0 {
            return (kappa, 0.0, 0.0);
        }
        let sum: u64 = self.reconfigurable.iter().map(|r| r.resources.lut).sum();
        let alpha_av = sum as f64 / (n as f64 * lut_tot);
        let gamma = sum as f64 / static_luts;
        (kappa, alpha_av, gamma)
    }
}

/// Builder for [`DprDesignSpec`].
#[derive(Debug, Clone)]
pub struct DprDesignSpecBuilder {
    name: String,
    part: FpgaPart,
    static_resources: Resources,
    reconfigurable: Vec<RmSpec>,
}

impl DprDesignSpecBuilder {
    /// Sets the static part's resources.
    pub fn static_part(mut self, resources: Resources) -> Self {
        self.static_resources = resources;
        self
    }

    /// Adds a reconfigurable module.
    pub fn reconfigurable(mut self, name: impl Into<String>, resources: Resources) -> Self {
        self.reconfigurable.push(RmSpec {
            name: name.into(),
            resources,
        });
        self
    }

    /// Finalizes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSpec`] for an empty name, a zero-LUT static part,
    /// duplicate module names or a zero-LUT module; and
    /// [`Error::DeviceOverflow`] when the total exceeds the part's nominal
    /// capacity.
    pub fn build(self) -> Result<DprDesignSpec, Error> {
        if self.name.is_empty() {
            return Err(Error::BadSpec {
                detail: "design name is empty".into(),
            });
        }
        if self.static_resources.lut == 0 {
            return Err(Error::BadSpec {
                detail: "static part has no logic".into(),
            });
        }
        let mut names = BTreeSet::new();
        for rm in &self.reconfigurable {
            if rm.resources.lut == 0 {
                return Err(Error::BadSpec {
                    detail: format!("module '{}' has no logic", rm.name),
                });
            }
            if !names.insert(&rm.name) {
                return Err(Error::BadSpec {
                    detail: format!("duplicate module name '{}'", rm.name),
                });
            }
        }
        let spec = DprDesignSpec {
            name: self.name,
            part: self.part,
            static_resources: self.static_resources,
            reconfigurable: self.reconfigurable,
        };
        let total = spec.total_resources();
        let cap = spec.part.nominal_capacity();
        if !total.fits_in(&cap) {
            return Err(Error::DeviceOverflow {
                detail: format!("need {total}, device has {cap}"),
            });
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DprDesignSpec {
        DprDesignSpec::builder("soc2", FpgaPart::Vc707)
            .static_part(Resources::luts(82_267))
            .reconfigurable("conv2d", Resources::luts(36_741))
            .reconfigurable("gemm", Resources::luts(30_617))
            .reconfigurable("fft", Resources::luts(33_690))
            .reconfigurable("sort", Resources::luts(20_468))
            .build()
            .unwrap()
    }

    #[test]
    fn soc2_metrics_match_table3() {
        // Table III reports SOC_2 as α_av = 10.1 %, κ = 27.2 %, γ = 1.47.
        let (kappa, alpha, gamma) = spec().size_metrics();
        assert!((kappa - 0.271).abs() < 0.005, "κ = {kappa}");
        assert!((alpha - 0.100).abs() < 0.005, "α_av = {alpha}");
        assert!((gamma - 1.477).abs() < 0.01, "γ = {gamma}");
    }

    #[test]
    fn totals_add_up() {
        let s = spec();
        assert_eq!(s.reconfigurable_total().lut, 121_516);
        assert_eq!(s.total_resources().lut, 121_516 + 82_267);
    }

    #[test]
    fn builder_rejects_empty_static() {
        let err = DprDesignSpec::builder("x", FpgaPart::Vc707).build();
        assert!(matches!(err, Err(Error::BadSpec { .. })));
    }

    #[test]
    fn builder_rejects_duplicates() {
        let err = DprDesignSpec::builder("x", FpgaPart::Vc707)
            .static_part(Resources::luts(1000))
            .reconfigurable("a", Resources::luts(10))
            .reconfigurable("a", Resources::luts(20))
            .build();
        assert!(matches!(err, Err(Error::BadSpec { .. })));
    }

    #[test]
    fn builder_rejects_device_overflow() {
        let err = DprDesignSpec::builder("x", FpgaPart::Vc707)
            .static_part(Resources::luts(300_000))
            .reconfigurable("a", Resources::luts(100_000))
            .build();
        assert!(matches!(err, Err(Error::DeviceOverflow { .. })));
    }

    #[test]
    fn metrics_with_no_rms() {
        let s = DprDesignSpec::builder("static-only", FpgaPart::Vc707)
            .static_part(Resources::luts(50_000))
            .build()
            .unwrap();
        let (kappa, alpha, gamma) = s.size_metrics();
        assert!(kappa > 0.0);
        assert_eq!((alpha, gamma), (0.0, 0.0));
    }
}
