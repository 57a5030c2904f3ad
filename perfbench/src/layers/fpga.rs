//! `presp-fpga`: partial bitstreams, the ICAP and configuration memory.
//!
//! The fpga layer only runs nested inside runtime commits and flow runs,
//! so its per-layer numbers come from a probe: the same bitstreams the
//! workload used, streamed through a fresh ICAP, integrity-checked and
//! scrubbed frame by frame.

use crate::spans::Spans;
pub use presp_fpga::bitstream::Bitstream;
use presp_fpga::bitstream::{BitstreamBuilder, BitstreamKind};
use presp_fpga::fabric::Device;
use presp_fpga::frame::{frames_per_column, FrameAddress};
use presp_fpga::icap::Icap;

/// Every configuration frame address of `device`, in address order.
pub fn frame_addresses(device: &Device) -> Vec<FrameAddress> {
    let mut out = Vec::with_capacity(device.total_frames());
    for row in 0..device.rows() {
        for col in 0..device.columns() {
            for minor in 0..frames_per_column(device.column_kind(col)) {
                out.push(FrameAddress::new(row as u32, col as u32, minor as u32));
            }
        }
    }
    out
}

pub fn frame_words(device: &Device) -> usize {
    device.part().family().frame_words()
}

/// A compressed partial bitstream writing `frames[i]` with `data[i]`.
pub fn build_partial(device: &Device, frames: &[FrameAddress], data: Vec<Vec<u32>>) -> Bitstream {
    let mut builder = BitstreamBuilder::new(device, BitstreamKind::Partial);
    for (addr, words) in frames.iter().zip(data) {
        builder
            .add_frame(*addr, words)
            .expect("addresses come from the device's own frame list");
    }
    builder.build(true)
}

/// Per-frame and per-KB costs measured by [`probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgaProbe {
    pub icap_load_us_per_frame: f64,
    pub scrub_us_per_frame: f64,
    pub verify_us_per_kb: f64,
}

/// Streams each bitstream through a fresh ICAP (ECC shadow included),
/// re-verifies its integrity and scrubs every frame it wrote.
pub fn probe<'a>(
    spans: &mut Spans,
    device: &Device,
    bitstreams: impl IntoIterator<Item = &'a Bitstream>,
) -> FpgaProbe {
    let (mut frames, mut kb) = (0usize, 0.0f64);
    let (mut load_ns, mut scrub_ns, mut verify_ns) = (0u64, 0u64, 0u64);
    for (i, bitstream) in bitstreams.into_iter().enumerate() {
        let id = i as u64;
        let (intact, ns) =
            timed(|| spans.time("fpga.verify", id, |_| bitstream.verify_integrity()));
        assert!(intact, "generated bitstreams verify");
        verify_ns += ns;
        kb += bitstream.size_bytes() as f64 / 1024.0;

        let mut icap = Icap::new(device);
        let (report, ns) = timed(|| spans.time("fpga.icap_load", id, |_| icap.load(bitstream)));
        report.expect("generated bitstreams load");
        load_ns += ns;

        let written = icap.last_written().to_vec();
        let ((), ns) = timed(|| {
            spans.time("fpga.scrub", id, |_| {
                for addr in &written {
                    icap.memory_mut()
                        .scrub_frame(*addr)
                        .expect("written frames are valid");
                }
            })
        });
        scrub_ns += ns;
        frames += written.len();
    }
    let per = |ns: u64, n: f64| if n > 0.0 { ns as f64 / 1e3 / n } else { 0.0 };
    FpgaProbe {
        icap_load_us_per_frame: per(load_ns, frames as f64),
        scrub_us_per_frame: per(scrub_ns, frames as f64),
        verify_us_per_kb: per(verify_ns, kb),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}
