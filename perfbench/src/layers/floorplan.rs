//! `presp-floorplan`: the reconfigurable-region floorplanner, probed on
//! the regions of the designs the evaluation uses.

use crate::spans::Spans;
use presp_cad::DprDesignSpec;
use presp_fpga::fabric::Device;

pub fn probe(spans: &mut Spans, device: &Device, spec: &DprDesignSpec, id: u64) {
    let requests: Vec<presp_floorplan::RegionRequest> = spec
        .reconfigurable()
        .iter()
        .map(|rm| presp_floorplan::RegionRequest::new(rm.name.clone(), rm.resources))
        .collect();
    let planner = presp_floorplan::Floorplanner::new(device);
    let plan = spans.time("floorplan.floorplan", id, |_| planner.floorplan(&requests));
    std::hint::black_box(plan.expect("paper designs floorplan"));
}
