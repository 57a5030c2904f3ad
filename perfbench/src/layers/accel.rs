//! `presp-accel`: behavioural accelerator evaluation.

use crate::spans::Spans;
pub use presp_accel::{AccelOp, AccelValue, AcceleratorKind};

/// Evaluates `op` on a fresh accelerator instance of its kind — the same
/// pure function the runtime's prepare stage calls.
pub fn eval(spans: &mut Spans, op: &AccelOp, id: u64) -> AccelValue {
    spans.time("accel.eval", id, |_| {
        presp_accel::AccelInstance::new(op.kind())
            .execute(op)
            .expect("benchmark operations are well-formed")
    })
}
