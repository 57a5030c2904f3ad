//! Golden digests of every bitstream the flow generates: the partial and
//! the full streams of all built-in designs, with the flow compressing its
//! partials and without. Each line names the design, the flow mode, the
//! region and kind, and gives the frame count, `size_bytes` and an FNV-1a
//! digest of the stream's words, so any change to a single emitted word
//! shows up here. The flow's structured trace for the same runs is pinned
//! beside it, one `log_lines` block per design and mode. Regenerate
//! deliberately with `UPDATE_GOLDEN=1 cargo test --test golden_bitstreams`.

use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::events::trace::log_lines;
use presp::events::{MemorySink, Tracer};
use presp::fpga::bitstream::Bitstream;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn line(out: &mut String, design: &str, mode: &str, region: &str, kind: &str, bs: &Bitstream) {
    writeln!(
        out,
        "{design} {mode} {region} {kind} frames={} size_bytes={} fnv={:016x}",
        bs.frame_count(),
        bs.size_bytes(),
        fnv1a(bs.words())
    )
    .unwrap();
}

/// The two flow modes, by their golden-file name.
const MODES: [(&str, bool); 2] = [("compress", true), ("no-compress", false)];

/// Both flow modes of one design, one line per stream.
fn render(design: &SocDesign) -> String {
    let mut out = String::new();
    for (mode, compressed) in MODES {
        let flow = PrEspFlow::new()
            .with_compression(compressed)
            .run(design)
            .unwrap_or_else(|e| panic!("{} failed: {e}", design.name));
        for info in &flow.partial_bitstreams {
            line(
                &mut out,
                &design.name,
                mode,
                &info.region,
                info.kind.name(),
                &info.bitstream,
            );
        }
        line(
            &mut out,
            &design.name,
            mode,
            "static",
            "full",
            &flow.full_bitstream().unwrap(),
        );
    }
    out
}

/// Both flow modes of one design: a `## design mode` header, then the
/// traced flow's records as `log_lines`.
fn render_trace(design: &SocDesign) -> String {
    let mut out = String::new();
    for (mode, compressed) in MODES {
        let sink = MemorySink::shared();
        PrEspFlow::new()
            .with_compression(compressed)
            .run_traced(design, &mut Tracer::to_sink(sink.clone()))
            .unwrap_or_else(|e| panic!("{} failed: {e}", design.name));
        writeln!(out, "## {} {mode}", design.name).unwrap();
        out.push_str(&log_lines(&presp::events::sink::drain(&sink)));
    }
    out
}

/// Renders every built-in design, one thread per design: the flows are
/// independent, and one after another they are slow in the debug profile.
fn render_builtins(render: fn(&SocDesign) -> String) -> String {
    let designs = SocDesign::builtins();
    std::thread::scope(|s| {
        let runs: Vec<_> = designs.iter().map(|d| s.spawn(move || render(d))).collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    })
}

/// Compares `rendered` with `tests/golden/<file>`, or rewrites the file
/// under `UPDATE_GOLDEN`.
fn check_golden(file: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "{file} drifted from the golden output; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn every_flow_bitstream_matches_the_golden_digest() {
    check_golden("bitstreams.txt", &render_builtins(render));
}

#[test]
fn every_flow_trace_matches_the_golden_log() {
    check_golden("flow_trace.txt", &render_builtins(render_trace));
}
