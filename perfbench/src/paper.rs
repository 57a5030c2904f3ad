//! `paper_eval`: regenerates Tables II–VI and Fig. 3, then streams seeded
//! 64×64 frames through the deployed Fig. 4 SoCs X, Y and Z on the
//! sequential manager, each frame followed by a scrub sweep.

use crate::layers::eval::Fig4Outputs;
use crate::layers::runtime::{self, FrameReport, WamiApp};
use crate::layers::wami::{self, AffineParams, KernelProbe, ReferencePipeline};
use crate::layers::{accel, cad, core, eval, events, floorplan, fpga, soc};
use crate::params;
use crate::report::Report;
use crate::spans::{self, Spans};
use std::time::Instant;

/// Tables II–VI as `tests/golden_tables.rs` blessed them.
const GOLDEN_TABLES: &str = include_str!("../../tests/golden/tables_2_to_6.txt");

/// One SoC's flow output, ready to deploy.
struct Built {
    design: core::SocDesign,
    output: core::FlowOutput,
}

/// Every SoC deployed fresh and trained on the first frame of one stream.
struct Segment {
    apps: Vec<WamiApp>,
    scene: presp_wami::frames::SceneGenerator,
    reference: ReferencePipeline,
    template: wami::GrayImage,
}

fn check_frame(
    report: &mut Report,
    soc: &str,
    frame: u64,
    got: &FrameReport,
    want: &wami::Reference,
) {
    let registration_ok = match (&got.registration, &want.registration) {
        (None, None) => true,
        (Some(a), Some(b)) => a.p.iter().zip(&b.p).all(|(x, y)| (x - y).abs() < 1e-9),
        _ => false,
    };
    report.check(
        got.changed_pixels == want.changed_pixels && registration_ok && got.cpu_fallbacks == 0,
        || {
            format!(
                "{soc} frame {frame}: changed {} vs reference {}, registration {:?} vs {:?}, {} cpu fallbacks",
                got.changed_pixels, want.changed_pixels, got.registration, want.registration, got.cpu_fallbacks
            )
        },
    );
}

/// Runs the PR-ESP flow for SoC_X, SoC_Y and SoC_Z.
fn build(spans: &mut Spans, flow_ms: &mut Vec<f64>) -> Vec<Built> {
    core::fig4_designs()
        .into_iter()
        .enumerate()
        .map(|(i, design)| {
            let started = Instant::now();
            let output = core::flow(spans, &design, i as u64);
            flow_ms.push(started.elapsed().as_secs_f64() * 1e3);
            Built { design, output }
        })
        .collect()
}

/// Deploys every SoC and trains it on the first frame of the stream
/// `stream_seed` (the training frame fills the template and GMM model).
fn deploy_segment(
    spans: &mut Spans,
    report: &mut Report,
    built: &[Built],
    stream_seed: u64,
    deploy_ms: &mut Vec<f64>,
) -> Segment {
    let mut scene = wami::scene(params::FRAME_SIZE, stream_seed);
    let mut reference = ReferencePipeline::new(params::LK_ITERATIONS);
    let raw = scene.next_frame();
    let want = reference.process(&raw);
    let apps = built
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let started = Instant::now();
            let mut app =
                core::deploy(spans, &b.design, &b.output, params::LK_ITERATIONS, i as u64);
            deploy_ms.push(started.elapsed().as_secs_f64() * 1e3);
            match runtime::process_frame(spans, &mut app, &raw, 0) {
                Ok(got) => check_frame(report, &b.design.name, 0, &got, &want),
                Err(e) => report.check(false, || format!("{} training frame: {e}", b.design.name)),
            }
            if let Err(e) = runtime::scrub_sweep(spans, &mut app, 0) {
                report.check(false, || format!("{} training scrub: {e}", b.design.name));
            }
            app
        })
        .collect();
    Segment {
        apps,
        scene,
        reference,
        template: want.gray,
    }
}

/// Replays `experiments::fig4(6, 64, 2)` on fresh deployments of this
/// run's flow outputs and returns its simulated outputs.
fn fig4_replay(built: &[Built]) -> Vec<Fig4Outputs> {
    let mut quiet = Spans::new(false, Instant::now());
    built
        .iter()
        .map(|d| {
            let mut app = core::deploy(&mut quiet, &d.design, &d.output, params::LK_ITERATIONS, 0);
            let mut scene = wami::scene(params::FRAME_SIZE, 2023);
            let mut reports = Vec::new();
            for _ in 0..6 {
                let raw = scene.next_frame();
                reports.push(
                    runtime::process_frame(&mut quiet, &mut app, &raw, 0).expect("fig4 frames run"),
                );
                runtime::scrub_sweep(&mut quiet, &mut app, 0).expect("fig4 scrub sweeps");
            }
            let steady = &reports[1..];
            let n = steady.len() as f64;
            let cycles: u64 = steady.iter().map(FrameReport::latency).sum();
            let reconfigs: u64 = steady.iter().map(|r| r.reconfigurations).sum();
            let changed: usize = steady.iter().map(|r| r.changed_pixels).sum();
            Fig4Outputs {
                soc: d.design.name.clone(),
                ms_per_frame: events::cycles_to_micros(cycles) / 1000.0 / n,
                mj_per_frame: runtime::app_energy_j(&app) * 1000.0 / reports.len() as f64,
                reconfigs_per_frame: reconfigs as f64 / n,
                mean_changed_pixels: changed as f64 / n,
            }
        })
        .collect()
}

/// Runs one `paper_eval` pass for about `seconds` (never fewer than
/// `min_frames` steady frames and [`params::MIN_TABLE_PASSES`] table
/// regenerations).
pub fn run(seed: u64, seconds: f64, min_frames: usize, spans: &mut Spans, report: &mut Report) {
    // -- set-up, repeated; the last one is measured -------------------------
    let (mut setup_s, mut flow_ms, mut deploy_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..params::PAPER_SETUP_REPEATS {
        let started = Instant::now();
        let built = build(spans, &mut flow_ms);
        let segment = deploy_segment(spans, report, &built, seed, &mut deploy_ms);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((built, segment));
    }
    let (built, mut segment) = kept.expect("at least one set-up pass");
    let measure_started = Instant::now();

    // -- Tables II–VI + Fig. 3 ---------------------------------------------
    let tables_budget = seconds * 0.2;
    let mut tables_s = Vec::new();
    while tables_s.len() < params::MIN_TABLE_PASSES
        || measure_started.elapsed().as_secs_f64() < tables_budget
    {
        let id = tables_s.len() as u64;
        let started = Instant::now();
        let text = eval::tables(spans, id);
        let (kernels, sane) = eval::fig3(spans, id);
        tables_s.push(started.elapsed().as_secs_f64());
        report.check(text == GOLDEN_TABLES, || {
            "Tables II-VI differ from tests/golden/tables_2_to_6.txt".to_string()
        });
        report.check(kernels == 12 && sane, || {
            format!("Fig. 3 has {kernels} kernel rows")
        });
    }

    // -- steady frames, in segments of fresh deployments ----------------------
    // Each segment redeploys every SoC on a new seeded stream: frame time
    // differs between deployments, and no single one should set the run's.
    let (mut frame_ms, mut process_ms, mut sweep_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reconfigurations, mut counters) = (0u64, [0u64; 5]);
    let mut probe = KernelProbe::new();
    let mut round = 1u64;
    for index in 1u64.. {
        let before: Vec<_> = segment.apps.iter().map(runtime::app_counters).collect();
        for _ in 0..params::ROUNDS_PER_SEGMENT {
            let raw = segment.scene.next_frame();
            let want = segment.reference.process(&raw);
            let mut registration = AffineParams::identity();
            for (app, b) in segment.apps.iter_mut().zip(&built) {
                let started = Instant::now();
                let got = runtime::process_frame(spans, app, &raw, round);
                let processed = Instant::now();
                let swept = runtime::scrub_sweep(spans, app, round);
                let done = Instant::now();
                frame_ms.push(done.duration_since(started).as_secs_f64() * 1e3);
                process_ms.push(processed.duration_since(started).as_secs_f64() * 1e3);
                sweep_ms.push(done.duration_since(processed).as_secs_f64() * 1e3);
                match got {
                    Ok(got) => {
                        check_frame(report, &b.design.name, round, &got, &want);
                        reconfigurations += got.reconfigurations;
                        registration = got.registration.unwrap_or(registration);
                    }
                    Err(e) => {
                        report.check(false, || format!("{} frame {round}: {e}", b.design.name))
                    }
                }
                if let Err(e) = swept {
                    report.check(false, || format!("{} scrub {round}: {e}", b.design.name));
                }
            }
            if spans.enabled() {
                probe.run(spans, &raw, &segment.template, &registration, round);
                std::hint::black_box(accel::eval(
                    spans,
                    &accel::AccelOp::Debayer { raw: raw.clone() },
                    round,
                ));
            }
            segment.template = want.gray;
            round += 1;
        }
        for (app, (stats, cache)) in segment.apps.iter().zip(before) {
            let (s, c) = runtime::app_counters(app);
            counters[0] += (c.hits + c.misses) - (cache.hits + cache.misses);
            counters[1] += c.hits - cache.hits;
            counters[2] += c.evictions - cache.evictions;
            counters[3] += s.reconfig_requests - stats.reconfig_requests;
            counters[4] += s.reconfigurations - stats.reconfigurations;
        }
        if frame_ms.len() >= min_frames && measure_started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let stream = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        segment = deploy_segment(spans, report, &built, stream, &mut deploy_ms);
    }
    let [lookups, hits, evictions, requests, reconfigs] = counters;

    // -- Fig. 4 digest (outside the timed work) -----------------------------
    let replay = fig4_replay(&built);
    let digest = eval::fig4_digest(&replay);
    report.check(digest == params::FIG4_DIGEST, || {
        format!(
            "Fig. 4 digest {digest} != recorded {}: {replay:?}",
            params::FIG4_DIGEST
        )
    });

    // -- metrics ---------------------------------------------------------------
    let frames = frame_ms.len() as f64;
    let tables = spans::median(&tables_s);
    report.set("setup_s", spans::median(&setup_s));
    report.set("throughput_per_s", 1.0 / tables);
    report.set("latency_p50_ms", spans::median(&frame_ms));
    report.set("load.latency_p90_ms", percentile_f(&frame_ms, 90.0));
    report.note("tables_s", tables, "s");
    report.note("frame_ms_p50", spans::median(&frame_ms), "ms");
    report.note("frame_ms_p90", percentile_f(&frame_ms, 90.0), "ms");
    report.note("steady_frames", frames, "count");
    report.note("table_passes", tables_s.len() as f64, "count");

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.set("runtime.requests", requests as f64);
    report.set("runtime.cache_lookups", lookups as f64);
    report.set("runtime.cache_hit_ratio", ratio(hits, lookups));
    report.set("runtime.cache_evictions", evictions as f64);
    report.set(
        "runtime.reconfigurations_per_req",
        ratio(reconfigs, requests),
    );
    report.set("runtime.deploy_ms", spans::median(&deploy_ms));
    report.set(
        "runtime.reconfigurations_per_frame",
        reconfigurations as f64 / frames,
    );
    report.set("runtime.process_frame_ms", spans::median(&process_ms));
    report.set("runtime.scrub_sweep_ms", spans::median(&sweep_ms));
    report.set("core.flow_ms", spans::median(&flow_ms));
    report.set("eval.tables_s", tables);
    for (metric, span) in [
        ("eval.table2_ms", "eval.table2"),
        ("eval.table3_ms", "eval.table3"),
        ("eval.table4_ms", "eval.table4"),
        ("eval.table5_ms", "eval.table5"),
        ("eval.table6_ms", "eval.table6"),
        ("eval.fig3_ms", "eval.fig3"),
    ] {
        report.set(metric, spans.agg(span).median_ms());
    }
    report.set("trace.throughput_per_s", 1.0 / tables);
    report.set("trace.latency_p50_ms", spans::median(&frame_ms));

    if spans.enabled() {
        // Probes over the flow's inner layers on the evaluation's designs.
        let mut designs = eval::table4_designs();
        designs.extend(built.iter().map(|b| b.design.clone()));
        for (i, design) in designs.iter().enumerate() {
            let (spec, strategy) = core::spec_and_strategy(design);
            cad::probe(spans, &spec, strategy, i as u64);
            floorplan::probe(spans, &design.part.device(), &spec, i as u64);
            std::hint::black_box(soc::boot_on(spans, &design.config, design.part));
        }
        let mut fpga_probes = Vec::new();
        for (app, b) in segment.apps.iter_mut().zip(&built) {
            // Every loadable accelerator of a multi-kernel tile, twice
            // round, so each request swaps the tile's accelerator.
            let pairs: Vec<_> = b
                .design
                .tile_accels
                .iter()
                .filter(|(_, kinds)| kinds.len() > 1)
                .flat_map(|(tile, kinds)| kinds.iter().chain(kinds).map(|k| (*tile, *k)))
                .collect();
            if let Err(e) = runtime::reconfigure_probe(spans, app, &pairs) {
                report.check(false, || {
                    format!("{} reconfigure probe: {e}", b.design.name)
                });
            }
            fpga_probes.push(fpga::probe(
                spans,
                &b.design.part.device(),
                b.output.partial_bitstreams.iter().map(|p| &p.bitstream),
            ));
        }
        let mean = |f: fn(&fpga::FpgaProbe) -> f64| {
            fpga_probes.iter().map(f).sum::<f64>() / fpga_probes.len() as f64
        };
        report.set(
            "fpga.icap_load_us_per_frame",
            mean(|p| p.icap_load_us_per_frame),
        );
        report.set("fpga.scrub_us_per_frame", mean(|p| p.scrub_us_per_frame));
        report.set("fpga.verify_us_per_kb", mean(|p| p.verify_us_per_kb));
        for (metric, span) in [
            ("cad.full_flow_ms", "cad.full_flow"),
            ("cad.monolithic_ms", "cad.monolithic"),
            ("floorplan.floorplan_ms", "floorplan.floorplan"),
            ("soc.boot_ms", "soc.boot"),
            ("runtime.reconfigure_ms", "runtime.reconfigure"),
        ] {
            report.set(metric, spans.agg(span).median_ms());
        }
        for (metric, span) in [
            ("wami.debayer_us", "wami.debayer"),
            ("wami.grayscale_us", "wami.grayscale"),
            ("wami.gradient_us", "wami.gradient"),
            ("wami.warp_us", "wami.warp"),
            ("wami.steepest_descent_us", "wami.steepest_descent"),
            ("wami.hessian_us", "wami.hessian"),
            ("wami.sd_update_us", "wami.sd_update"),
            ("wami.change_detection_us", "wami.change_detection"),
        ] {
            report.set(metric, spans.agg(span).percentile_us(50.0));
        }
        let eval = spans.agg("accel.eval");
        report.set(
            "accel.eval_us_per_op",
            eval.total_ns as f64 / 1e3 / eval.count.max(1) as f64,
        );
    }
}

fn percentile_f(values: &[f64], p: f64) -> f64 {
    let ns: Vec<u64> = values.iter().map(|ms| (ms * 1e6) as u64).collect();
    spans::percentile(&ns, p) / 1e6
}
