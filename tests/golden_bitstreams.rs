//! Golden digests of every bitstream the flow generates: the partial and
//! the full streams of all built-in designs, with the flow compressing its
//! partials and without. Each line names the design, the flow mode, the
//! region and kind, and gives the frame count, `size_bytes` and an FNV-1a
//! digest of the stream's words, so any change to a single emitted word
//! shows up here. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test golden_bitstreams`.

use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
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

/// Both flow modes of one design, one line per stream.
fn render(design: &SocDesign) -> String {
    let mut out = String::new();
    for (mode, compressed) in [("compress", true), ("no-compress", false)] {
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
            &flow.full_bitstream,
        );
    }
    out
}

#[test]
fn every_flow_bitstream_matches_the_golden_digest() {
    // One thread per design: the flows are independent, and one after
    // another they take over a minute in the debug profile.
    let designs = SocDesign::builtins();
    let rendered: String = std::thread::scope(|s| {
        let runs: Vec<_> = designs.iter().map(|d| s.spawn(|| render(d))).collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bitstreams.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "bitstreams.txt drifted from the golden output; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
