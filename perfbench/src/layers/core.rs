//! `presp-core`: designs, the PR-ESP flow and deployment.

use crate::spans::Spans;
pub use presp_core::{FlowOutput, SocDesign};
use presp_runtime::app::WamiApp;

/// The Fig. 4 deployments SoC_X, SoC_Y and SoC_Z.
pub fn fig4_designs() -> Vec<SocDesign> {
    vec![
        SocDesign::wami_soc_x().expect("SoC_X is valid"),
        SocDesign::wami_soc_y().expect("SoC_Y is valid"),
        SocDesign::wami_soc_z().expect("SoC_Z is valid"),
    ]
}

/// Runs the full PR-ESP flow (floorplan, strategy, CAD, bitstreams).
pub fn flow(spans: &mut Spans, design: &SocDesign, id: u64) -> FlowOutput {
    spans.time("core.flow", id, |_| {
        presp_core::PrEspFlow::new()
            .run(design)
            .expect("paper designs run through the flow")
    })
}

/// Boots the SoC, loads the registry and wires the WAMI application.
pub fn deploy(
    spans: &mut Spans,
    design: &SocDesign,
    output: &FlowOutput,
    lk_iterations: usize,
    id: u64,
) -> WamiApp {
    spans.time("runtime.deploy", id, |_| {
        presp_core::platform::deploy_wami(design, output, lk_iterations)
            .expect("flow outputs deploy")
    })
}

/// The design's CAD spec and the strategy the size-driven choice picks.
pub fn spec_and_strategy(design: &SocDesign) -> (presp_cad::DprDesignSpec, presp_cad::Strategy) {
    let spec = design.to_spec().expect("paper designs have specs");
    let (_, strategy) = presp_core::choose_strategy(&spec).expect("paper designs classify");
    (spec, strategy)
}
