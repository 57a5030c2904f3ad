//! `presp-cad`: the parallel-synthesis + scheduled-P&R model and the
//! monolithic baseline, probed on the designs the evaluation uses.

use crate::spans::Spans;
pub use presp_cad::{DprDesignSpec, Strategy};

pub fn probe(spans: &mut Spans, spec: &DprDesignSpec, strategy: Strategy, id: u64) {
    let flow = presp_cad::CadFlow::new();
    let full = spans.time("cad.full_flow", id, |_| flow.run_full_flow(spec, strategy));
    std::hint::black_box(full.expect("the chosen strategy is valid for its design"));
    let mono = spans.time("cad.monolithic", id, |_| flow.run_monolithic(spec));
    std::hint::black_box(mono);
}
