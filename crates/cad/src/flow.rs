//! P&R scheduling: serial, semi-parallel and fully-parallel implementations
//! plus the monolithic (standard Xilinx DPR flow) baseline.

use crate::error::Error;
use crate::host::concurrent_wall;
use crate::model::{rm_group_run, serial_pnr, static_only_pnr, Minutes, PBLOCK_FILL};
use crate::spec::DprDesignSpec;
use crate::synth::{monolithic_synthesis, parallel_synthesis, SynthReport};
use presp_events::trace::ClockDomain;
use presp_events::trace::FlowStageArgs;
use presp_events::{milliminutes, TraceEvent, Tracer};

/// A P&R implementation strategy (Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// τ = 1: a single instance implements the whole design.
    Serial,
    /// 1 < τ < N: the RMs are grouped into τ concurrent instances, after a
    /// static-only pre-route.
    SemiParallel {
        /// Number of concurrent instances.
        tau: usize,
    },
    /// τ = N: every RM gets its own concurrent instance, after a static-only
    /// pre-route.
    FullyParallel,
}

impl Strategy {
    /// Maps a raw τ onto the strategy for a design with `n` RMs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadParallelism`] when `tau` is zero or exceeds `n`.
    pub fn from_tau(tau: usize, n: usize) -> Result<Strategy, Error> {
        match tau {
            0 => Err(Error::BadParallelism { tau, modules: n }),
            1 => Ok(Strategy::Serial),
            t if t == n => Ok(Strategy::FullyParallel),
            t if t < n => Ok(Strategy::SemiParallel { tau: t }),
            _ => Err(Error::BadParallelism { tau, modules: n }),
        }
    }

    /// The τ this strategy uses on a design with `n` RMs.
    pub fn tau(&self, n: usize) -> usize {
        match self {
            Strategy::Serial => 1,
            Strategy::SemiParallel { tau } => *tau,
            Strategy::FullyParallel => n,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Serial => write!(f, "serial"),
            Strategy::SemiParallel { tau } => write!(f, "semi-parallel (τ={tau})"),
            Strategy::FullyParallel => write!(f, "fully-parallel"),
        }
    }
}

/// One concurrent in-context P&R instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRun {
    /// RM names implemented by this instance.
    pub modules: Vec<String>,
    /// Solo runtime of the instance (before host contention).
    pub solo: Minutes,
}

/// The result of one P&R schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PnrReport {
    /// Strategy executed.
    pub strategy: Strategy,
    /// Static-only pre-route time (`None` for serial).
    pub t_static: Option<Minutes>,
    /// Concurrent RM instances (empty for serial).
    pub groups: Vec<GroupRun>,
    /// `max{Ω_i}` after host contention (`None` for serial).
    pub max_omega: Option<Minutes>,
    /// Total wall-clock P&R time.
    pub wall: Minutes,
}

impl PnrReport {
    /// Total wall-clock minutes.
    pub fn wall_minutes(&self) -> f64 {
        self.wall.0
    }
}

/// A full-flow result: synthesis + P&R.
#[derive(Debug, Clone, PartialEq)]
pub struct FullFlowReport {
    /// Parallel synthesis stage.
    pub synth: SynthReport,
    /// P&R stage.
    pub pnr: PnrReport,
    /// End-to-end wall-clock.
    pub total: Minutes,
}

/// The monolithic baseline: single-instance synthesis + single-instance P&R
/// (the standard Xilinx DPR flow of Table V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonolithicReport {
    /// Whole-design synthesis time.
    pub synth: Minutes,
    /// Whole-design P&R time.
    pub pnr: Minutes,
    /// End-to-end wall-clock.
    pub total: Minutes,
}

/// The CAD flow engine: schedules P&R runs on the paper's 16-core
/// characterization host.
#[derive(Debug, Clone, Default)]
pub struct CadFlow;

impl CadFlow {
    /// A flow on the paper's 16-core characterization host.
    pub fn new() -> CadFlow {
        CadFlow
    }

    /// Runs the P&R stage of `spec` under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadParallelism`] for an unusable τ (e.g.
    /// semi-parallel on a single-RM design — the paper's Class 2.2, which
    /// "can only be implemented in a serial mode").
    pub fn run_pnr(&self, spec: &DprDesignSpec, strategy: Strategy) -> Result<PnrReport, Error> {
        let n = spec.reconfigurable().len();
        let static_kluts = spec.static_resources().lut as f64 / 1000.0;
        let total_kluts = spec.total_resources().lut as f64 / 1000.0;

        match strategy {
            Strategy::Serial => {
                let wall = serial_pnr(total_kluts);
                Ok(PnrReport {
                    strategy,
                    t_static: None,
                    groups: Vec::new(),
                    max_omega: None,
                    wall,
                })
            }
            Strategy::SemiParallel { tau } if tau < 2 || tau >= n => {
                Err(Error::BadParallelism { tau, modules: n })
            }
            Strategy::FullyParallel if n == 0 => Err(Error::BadParallelism { tau: 0, modules: 0 }),
            _ => {
                let tau = strategy.tau(n);
                // Pblocks block off requirement / fill of fabric.
                let blocked_kluts = spec.reconfigurable_total().lut as f64 / 1000.0 / PBLOCK_FILL;
                let t_static = static_only_pnr(static_kluts, blocked_kluts, n);
                let groups = lpt_groups(spec, tau);
                let runs: Vec<GroupRun> = groups
                    .into_iter()
                    .map(|members| {
                        let kluts: Vec<f64> = members
                            .iter()
                            .map(|m| {
                                spec.rm(m).expect("grouped from spec").resources.lut as f64 / 1000.0
                            })
                            .collect();
                        GroupRun {
                            modules: members,
                            solo: rm_group_run(static_kluts, &kluts),
                        }
                    })
                    .collect();
                let solos: Vec<Minutes> = runs.iter().map(|g| g.solo).collect();
                let max_omega = concurrent_wall(&solos);
                Ok(PnrReport {
                    strategy,
                    t_static: Some(t_static),
                    groups: runs,
                    max_omega: Some(max_omega),
                    wall: t_static + max_omega,
                })
            }
        }
    }

    /// Runs the complete PR-ESP flow (parallel synthesis + scheduled P&R).
    ///
    /// # Errors
    ///
    /// Propagates spec and parallelism errors.
    pub fn run_full_flow(
        &self,
        spec: &DprDesignSpec,
        strategy: Strategy,
    ) -> Result<FullFlowReport, Error> {
        self.run_full_flow_traced(spec, strategy, &mut Tracer::disabled())
    }

    /// Like [`CadFlow::run_full_flow`], emitting [`TraceEvent::FlowStage`]
    /// spans through `tracer`: synthesis from 0, P&R stages after it, all on
    /// the CAD milliminute timeline. Table V's PR-ESP column is the end of
    /// the last span.
    ///
    /// # Errors
    ///
    /// Same as [`CadFlow::run_full_flow`].
    pub fn run_full_flow_traced(
        &self,
        spec: &DprDesignSpec,
        strategy: Strategy,
        tracer: &mut Tracer,
    ) -> Result<FullFlowReport, Error> {
        let synth = parallel_synthesis(spec)?;
        let pnr = self.run_pnr(spec, strategy)?;
        let synth_mm = milliminutes(synth.wall.value());
        tracer.emit(ClockDomain::CadMilliMinutes, 0, synth_mm, || {
            TraceEvent::FlowStage {
                flow: Box::new(FlowStageArgs {
                    design: spec.name().to_string(),
                    stage: "synthesis".to_string(),
                    region: String::new(),
                }),
            }
        });
        trace_pnr(spec.name(), &pnr, synth_mm, tracer);
        let total = synth.wall + pnr.wall;
        Ok(FullFlowReport { synth, pnr, total })
    }

    /// Runs the monolithic baseline (standard Xilinx DPR flow, always a
    /// single Vivado instance).
    pub fn run_monolithic(&self, spec: &DprDesignSpec) -> MonolithicReport {
        self.run_monolithic_traced(spec, &mut Tracer::disabled())
    }

    /// Like [`CadFlow::run_monolithic`], emitting the baseline's two
    /// [`TraceEvent::FlowStage`] spans (`synthesis-monolithic`,
    /// `pnr-monolithic`) through `tracer` so Table V's comparison is
    /// derivable from one trace.
    pub fn run_monolithic_traced(
        &self,
        spec: &DprDesignSpec,
        tracer: &mut Tracer,
    ) -> MonolithicReport {
        let total_kluts = spec.total_resources().lut as f64 / 1000.0;
        let synth = monolithic_synthesis(spec);
        let pnr = crate::model::monolithic_pnr(total_kluts);
        let stage = |name: &str| TraceEvent::FlowStage {
            flow: Box::new(FlowStageArgs {
                design: spec.name().to_string(),
                stage: name.to_string(),
                region: String::new(),
            }),
        };
        tracer.emit(
            ClockDomain::CadMilliMinutes,
            0,
            milliminutes(synth.value()),
            || stage("synthesis-monolithic"),
        );
        tracer.emit(
            ClockDomain::CadMilliMinutes,
            milliminutes(synth.value()),
            milliminutes(pnr.value()),
            || stage("pnr-monolithic"),
        );
        MonolithicReport {
            synth,
            pnr,
            total: synth + pnr,
        }
    }
}

/// Emits one span per P&R scheduling step, starting at `at` milliminutes:
/// `pnr-serial` for the single-instance schedule, or `pnr-static` followed
/// by one `pnr-group` span per concurrent instance (tagged with its RM
/// group in `region`) and a `pnr-parallel` envelope covering the
/// host-contended `max{Ω_i}`.
fn trace_pnr(design: &str, report: &PnrReport, at: u64, tracer: &mut Tracer) {
    if !tracer.is_enabled() {
        return;
    }
    let stage = |name: &str, region: String| TraceEvent::FlowStage {
        flow: Box::new(FlowStageArgs {
            design: design.to_string(),
            stage: name.to_string(),
            region,
        }),
    };
    match report.t_static {
        None => {
            tracer.emit(
                ClockDomain::CadMilliMinutes,
                at,
                milliminutes(report.wall.value()),
                || stage("pnr-serial", String::new()),
            );
        }
        Some(t_static) => {
            tracer.emit(
                ClockDomain::CadMilliMinutes,
                at,
                milliminutes(t_static.value()),
                || stage("pnr-static", String::new()),
            );
            let groups_at = at + milliminutes(t_static.value());
            for group in &report.groups {
                tracer.emit(
                    ClockDomain::CadMilliMinutes,
                    groups_at,
                    milliminutes(group.solo.value()),
                    || stage("pnr-group", group.modules.join("+")),
                );
            }
            if let Some(max_omega) = report.max_omega {
                tracer.emit(
                    ClockDomain::CadMilliMinutes,
                    groups_at,
                    milliminutes(max_omega.value()),
                    || stage("pnr-parallel", String::new()),
                );
            }
        }
    }
}

/// Longest-processing-time grouping: RMs sorted by descending size, each
/// assigned to the least-loaded of `tau` groups. Returns the member names
/// per group (empty groups are dropped).
fn lpt_groups(spec: &DprDesignSpec, tau: usize) -> Vec<Vec<String>> {
    let mut rms: Vec<(&str, u64)> = spec
        .reconfigurable()
        .iter()
        .map(|r| (r.name.as_str(), r.resources.lut))
        .collect();
    rms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut groups: Vec<(u64, Vec<String>)> = vec![(0, Vec::new()); tau.max(1)];
    for (name, luts) in rms {
        let g = groups
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("tau >= 1");
        g.0 += luts;
        g.1.push(name.to_string());
    }
    groups
        .into_iter()
        .filter(|(_, m)| !m.is_empty())
        .map(|(_, m)| m)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use presp_fpga::part::FpgaPart;
    use presp_fpga::resources::Resources;

    /// SOC_2 of the characterization (Class 1.2).
    fn soc2() -> DprDesignSpec {
        DprDesignSpec::builder("soc2", FpgaPart::Vc707)
            .static_part(Resources::luts(82_267))
            .reconfigurable("conv2d", Resources::luts(36_741))
            .reconfigurable("gemm", Resources::luts(30_617))
            .reconfigurable("fft", Resources::luts(33_690))
            .reconfigurable("sort", Resources::luts(20_468))
            .build()
            .unwrap()
    }

    /// SOC_1 of the characterization (Class 1.1): sixteen small MACs.
    fn soc1() -> DprDesignSpec {
        let mut b =
            DprDesignSpec::builder("soc1", FpgaPart::Vc707).static_part(Resources::luts(82_267));
        for i in 0..16 {
            b = b.reconfigurable(format!("mac{i}"), Resources::luts(2_450));
        }
        b.build().unwrap()
    }

    #[test]
    fn strategy_from_tau() {
        assert_eq!(Strategy::from_tau(1, 4).unwrap(), Strategy::Serial);
        assert_eq!(
            Strategy::from_tau(2, 4).unwrap(),
            Strategy::SemiParallel { tau: 2 }
        );
        assert_eq!(Strategy::from_tau(4, 4).unwrap(), Strategy::FullyParallel);
        assert!(Strategy::from_tau(0, 4).is_err());
        assert!(Strategy::from_tau(5, 4).is_err());
    }

    #[test]
    fn serial_report_has_no_static_step() {
        let flow = CadFlow::new();
        let report = flow.run_pnr(&soc2(), Strategy::Serial).unwrap();
        assert!(report.t_static.is_none());
        assert!(report.groups.is_empty());
        assert!(report.wall.0 > 0.0);
    }

    #[test]
    fn fully_parallel_gives_one_group_per_rm() {
        let flow = CadFlow::new();
        let report = flow.run_pnr(&soc2(), Strategy::FullyParallel).unwrap();
        assert_eq!(report.groups.len(), 4);
        assert!(report.groups.iter().all(|g| g.modules.len() == 1));
        let wall = report.t_static.unwrap() + report.max_omega.unwrap();
        assert!((report.wall.0 - wall.0).abs() < 1e-9);
    }

    #[test]
    fn semi_parallel_balances_groups() {
        let flow = CadFlow::new();
        let report = flow
            .run_pnr(&soc2(), Strategy::SemiParallel { tau: 2 })
            .unwrap();
        assert_eq!(report.groups.len(), 2);
        let sizes: Vec<usize> = report.groups.iter().map(|g| g.modules.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn class_1_2_prefers_fully_parallel() {
        // The headline Table III result for SOC_2: τ=4 beats τ=2,3 and serial.
        let flow = CadFlow::new();
        let serial = flow.run_pnr(&soc2(), Strategy::Serial).unwrap().wall.0;
        let semi2 = flow
            .run_pnr(&soc2(), Strategy::SemiParallel { tau: 2 })
            .unwrap()
            .wall
            .0;
        let semi3 = flow
            .run_pnr(&soc2(), Strategy::SemiParallel { tau: 3 })
            .unwrap()
            .wall
            .0;
        let full = flow
            .run_pnr(&soc2(), Strategy::FullyParallel)
            .unwrap()
            .wall
            .0;
        assert!(
            full < semi3 && semi3 < semi2 && semi2 < serial,
            "full {full:.0}, semi3 {semi3:.0}, semi2 {semi2:.0}, serial {serial:.0}"
        );
    }

    #[test]
    fn class_1_1_prefers_serial() {
        // The paper's counter-intuitive SOC_1 result: serial beats every
        // parallel configuration for many-small-RM designs.
        let flow = CadFlow::new();
        let serial = flow.run_pnr(&soc1(), Strategy::Serial).unwrap().wall.0;
        for tau in [2usize, 4, 8, 16] {
            let strategy = Strategy::from_tau(tau, 16).unwrap();
            let t = flow.run_pnr(&soc1(), strategy).unwrap().wall.0;
            assert!(serial < t, "τ={tau}: serial {serial:.0} vs parallel {t:.0}");
        }
    }

    #[test]
    fn bad_parallelism_is_rejected() {
        let flow = CadFlow::new();
        assert!(flow
            .run_pnr(&soc2(), Strategy::SemiParallel { tau: 4 })
            .is_err());
        assert!(flow
            .run_pnr(&soc2(), Strategy::SemiParallel { tau: 1 })
            .is_err());
    }

    #[test]
    fn full_flow_totals_add_up() {
        let flow = CadFlow::new();
        let report = flow
            .run_full_flow(&soc2(), Strategy::FullyParallel)
            .unwrap();
        assert!((report.total.0 - report.synth.wall.0 - report.pnr.wall.0).abs() < 1e-9);
    }

    #[test]
    fn pr_esp_beats_monolithic_on_class_1_2() {
        // Table V: SoC_A (Class 1.2) improves by ~19 % over monolithic.
        let flow = CadFlow::new();
        let presp = flow
            .run_full_flow(&soc2(), Strategy::FullyParallel)
            .unwrap()
            .total
            .0;
        let mono = flow.run_monolithic(&soc2()).total.0;
        assert!(presp < mono, "PR-ESP {presp:.0} vs monolithic {mono:.0}");
    }

    #[test]
    fn monolithic_beats_pr_esp_serial_slightly_on_class_1_1() {
        // Table V: SoC_B (Class 1.1) is ~2.5 % slower in PR-ESP.
        let flow = CadFlow::new();
        let presp = flow
            .run_full_flow(&soc1(), Strategy::Serial)
            .unwrap()
            .total
            .0;
        let mono = flow.run_monolithic(&soc1()).total.0;
        assert!(
            presp > mono * 0.95 && presp < mono * 1.25,
            "PR-ESP serial {presp:.0} vs monolithic {mono:.0}"
        );
    }
}
