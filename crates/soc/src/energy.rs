//! Energy metering.
//!
//! Accumulates Joules from explicitly-reported activity intervals (dynamic
//! energy of computing accelerators, DFXC/ICAP activity during
//! reconfiguration) plus time-proportional terms (per-tile leakage of every
//! provisioned fabric region and board-level base power). The Fig. 4
//! trade-off — fewer tiles: better J/frame, worse latency — falls out of
//! leakage and base power integrating over a longer frame time versus more
//! provisioned fabric leaking in parallel.

use presp_accel::power::{leakage_w, BASE_POWER_W, RECONFIG_POWER_W};
use presp_fpga::resources::Resources;

use presp_events::cycles_to_seconds;

/// An energy meter for one simulation.
#[derive(Debug, Clone, Default)]
pub(crate) struct EnergyMeter {
    dynamic_j: f64,
    reconfig_j: f64,
    provisioned: Resources,
}

/// A finalized energy report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Dynamic energy of accelerator/CPU activity, Joules.
    pub dynamic_j: f64,
    /// Energy spent streaming bitstreams through the ICAP, Joules.
    pub reconfig_j: f64,
    /// Leakage of all provisioned fabric over the run, Joules.
    pub leakage_j: f64,
    /// Board-level base energy over the run, Joules.
    pub base_j: f64,
    /// Wall-clock of the run, seconds.
    pub elapsed_s: f64,
}

impl EnergyReport {
    /// Total energy, Joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.reconfig_j + self.leakage_j + self.base_j
    }

    /// Average power over the run, Watts.
    pub fn average_w(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.total_j() / self.elapsed_s
        } else {
            0.0
        }
    }
}

impl EnergyMeter {
    /// A fresh meter.
    pub(crate) fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Registers fabric that is provisioned for the whole run (tiles,
    /// reconfigurable regions) and therefore leaks continuously.
    pub(crate) fn provision(&mut self, resources: Resources) {
        self.provisioned += resources;
    }

    /// Adds dynamic energy: `power_w` drawn for `cycles`.
    pub(crate) fn add_active(&mut self, power_w: f64, cycles: u64) {
        self.dynamic_j += power_w * cycles_to_seconds(cycles);
    }

    /// Adds reconfiguration energy for an ICAP transfer of `micros`.
    pub(crate) fn add_reconfiguration(&mut self, micros: f64) {
        self.reconfig_j += RECONFIG_POWER_W * micros * 1e-6;
    }

    /// Finalizes the meter over a run of `elapsed_cycles`.
    pub(crate) fn report(&self, elapsed_cycles: u64) -> EnergyReport {
        let elapsed_s = cycles_to_seconds(elapsed_cycles);
        EnergyReport {
            dynamic_j: self.dynamic_j,
            reconfig_j: self.reconfig_j,
            leakage_j: leakage_w(&self.provisioned) * elapsed_s,
            base_j: BASE_POWER_W * elapsed_s,
            elapsed_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion_uses_78mhz() {
        assert!((cycles_to_seconds(78_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_scales_with_time_and_area() {
        let mut meter = EnergyMeter::new();
        meter.provision(Resources::luts(100_000));
        let short = meter.report(78_000_000).leakage_j;
        let long = meter.report(156_000_000).leakage_j;
        assert!((long - 2.0 * short).abs() < 1e-9);
    }

    #[test]
    fn dynamic_energy_accumulates() {
        let mut meter = EnergyMeter::new();
        meter.add_active(1.0, 78_000_000); // 1 W for 1 s
        assert!((meter.report(0).dynamic_j - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let mut meter = EnergyMeter::new();
        meter.provision(Resources::luts(50_000));
        meter.add_active(0.5, 78_000_000);
        meter.add_reconfiguration(1000.0);
        let r = meter.report(78_000_000);
        let total = r.dynamic_j + r.reconfig_j + r.leakage_j + r.base_j;
        assert!((r.total_j() - total).abs() < 1e-12);
        assert!(r.average_w() > 0.0);
    }

    #[test]
    fn zero_elapsed_has_zero_average_power() {
        let meter = EnergyMeter::new();
        assert_eq!(meter.report(0).average_w(), 0.0);
    }
}
