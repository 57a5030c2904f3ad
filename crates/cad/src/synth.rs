//! Synthesis engine: out-of-context module synthesis and static-part
//! synthesis with black-box replacement.

use crate::error::Error;
use crate::host::concurrent_wall;
use crate::model::{monolithic_synth, ooc_synth, static_synth, Minutes};
use crate::spec::DprDesignSpec;
use presp_fpga::resources::Resources;

/// A synthesized netlist checkpoint (the analogue of a post-synth DCP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthCheckpoint {
    /// Module name.
    pub module: String,
    /// Post-synthesis resources.
    pub resources: Resources,
    /// Whether this was an out-of-context run.
    pub ooc: bool,
    /// Names of black-boxed reconfigurable modules (static checkpoint only).
    pub blackboxes: Vec<String>,
}

/// Result of the parallel synthesis stage (Fig. 1, first stage).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// The static checkpoint with black-boxed accelerators.
    pub static_checkpoint: SynthCheckpoint,
    /// One OoC checkpoint per reconfigurable module.
    pub rm_checkpoints: Vec<SynthCheckpoint>,
    /// Solo runtime of each synthesis job, `(module, minutes)`.
    pub job_minutes: Vec<(String, Minutes)>,
    /// Wall-clock of the stage (all jobs launched concurrently).
    pub wall: Minutes,
}

/// Runs PR-ESP's parallel synthesis: the static part and every
/// reconfigurable tile synthesize in separate concurrent instances, with the
/// reconfigurable accelerators inside the static part replaced by
/// auto-generated black-box wrappers.
///
/// # Errors
///
/// Returns [`Error::BadSpec`] if the spec has no reconfigurable modules and
/// an empty static part (cannot happen for specs built via the builder).
pub(crate) fn parallel_synthesis(spec: &DprDesignSpec) -> Result<SynthReport, Error> {
    let static_kluts = spec.static_resources().lut as f64 / 1000.0;
    if static_kluts <= 0.0 {
        return Err(Error::BadSpec {
            detail: "static part has no logic".into(),
        });
    }
    let static_checkpoint = SynthCheckpoint {
        module: format!("{}_static", spec.name()),
        resources: spec.static_resources(),
        ooc: false,
        blackboxes: spec
            .reconfigurable()
            .iter()
            .map(|r| r.name.clone())
            .collect(),
    };
    let mut job_minutes = vec![(static_checkpoint.module.clone(), static_synth(static_kluts))];
    let mut rm_checkpoints = Vec::new();
    for rm in spec.reconfigurable() {
        rm_checkpoints.push(SynthCheckpoint {
            module: rm.name.clone(),
            resources: rm.resources,
            ooc: true,
            blackboxes: Vec::new(),
        });
        job_minutes.push((rm.name.clone(), ooc_synth(rm.resources.lut as f64 / 1000.0)));
    }
    let jobs: Vec<Minutes> = job_minutes.iter().map(|(_, m)| *m).collect();
    let wall = concurrent_wall(&jobs);
    Ok(SynthReport {
        static_checkpoint,
        rm_checkpoints,
        job_minutes,
        wall,
    })
}

/// Runs the monolithic (single-instance, whole-design) synthesis the
/// standard Xilinx DPR flow uses; returns its runtime.
pub(crate) fn monolithic_synthesis(spec: &DprDesignSpec) -> Minutes {
    monolithic_synth(spec.total_resources().lut as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::part::FpgaPart;

    fn spec() -> DprDesignSpec {
        DprDesignSpec::builder("soc_a", FpgaPart::Vc707)
            .static_part(Resources::luts(85_000))
            .reconfigurable("warp", Resources::luts(34_000))
            .reconfigurable("sd_update", Resources::luts(24_000))
            .reconfigurable("delta_p", Resources::luts(27_000))
            .reconfigurable("matrix_invert", Resources::luts(21_500))
            .build()
            .unwrap()
    }

    #[test]
    fn every_rm_gets_an_ooc_checkpoint() {
        let report = parallel_synthesis(&spec()).unwrap();
        assert_eq!(report.rm_checkpoints.len(), 4);
        assert!(report.rm_checkpoints.iter().all(|c| c.ooc));
        assert!(!report.static_checkpoint.ooc);
    }

    #[test]
    fn static_checkpoint_blackboxes_every_rm() {
        let report = parallel_synthesis(&spec()).unwrap();
        assert_eq!(report.static_checkpoint.blackboxes.len(), 4);
        assert!(report
            .static_checkpoint
            .blackboxes
            .contains(&"warp".to_string()));
    }

    #[test]
    fn parallel_wall_beats_sum_of_jobs() {
        let report = parallel_synthesis(&spec()).unwrap();
        let sum: Minutes = report.job_minutes.iter().map(|(_, m)| *m).sum();
        assert!(report.wall.0 < sum.0);
        // Wall is at least the slowest job.
        let max = report
            .job_minutes
            .iter()
            .map(|(_, m)| m.0)
            .fold(0.0f64, f64::max);
        assert!(report.wall.0 >= max);
    }

    #[test]
    fn parallel_synthesis_beats_monolithic() {
        // Table V: PR-ESP synthesis (47–54 min) vs monolithic (60–91 min).
        let s = spec();
        let par = parallel_synthesis(&s).unwrap().wall;
        let mono = monolithic_synthesis(&s);
        assert!(par.0 < mono.0, "parallel {par} vs monolithic {mono}");
    }

    #[test]
    fn synthesis_minutes_are_in_paper_range() {
        // SoC_A-sized design: paper reports 47 (PR-ESP) and 91 (monolithic).
        let s = spec();
        let par = parallel_synthesis(&s).unwrap().wall;
        let mono = monolithic_synthesis(&s);
        assert!(par.0 > 30.0 && par.0 < 70.0, "parallel = {par}");
        assert!(mono.0 > 65.0 && mono.0 < 120.0, "monolithic = {mono}");
    }
}
