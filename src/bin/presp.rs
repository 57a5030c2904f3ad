//! The PR-ESP command-line front-end — the analogue of the paper's "single
//! make target" that turns an SoC configuration into full and partial
//! bitstreams, plus the declarative scenario runner that does the same
//! for runtime experiments, the regenerator of every table and figure of
//! the paper's evaluation, and the floorplanning benchmark.
//!
//! ```text
//! presp designs [--json]               list the built-in paper designs
//! presp classify <design> [--json]     size metrics, class and strategy
//! presp flow <design> [--no-compress] [--json]  run the full flow
//! presp config <design>                dump the SoC configuration as JSON
//! presp test <path>... [--json] [--junit <file>] [--report <file>]
//!            [--trace-dir <dir>]       run declarative scenario files
//! presp repro <artifact> [--json]      regenerate one paper artifact
//! presp repro all                      Tables I–VI, Fig. 3 and Fig. 4, and
//!                                      write BENCH_tables.json, BENCH_wami.json
//! presp bench floorplan [--json]       time the allocator, relocation and
//!                                      repack on this host; check relocation
//! ```
//!
//! Exit codes: `0` success, `1` operational failure (unknown design,
//! failed flow, failed scenario assertion, failed relocation check), `2`
//! usage, load or write error. `--json` emits `presp_events::json` documents (pretty form,
//! snake_case keys).

use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::strategy::choose_strategy;
use presp::events::json::{int, num, obj, string, JsonValue};
use presp_bench::{export, floorplan, repro};
use presp_scenario::report::ReportEntry;
use presp_scenario::runner;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let designs: Vec<String> = SocDesign::builtins().into_iter().map(|d| d.name).collect();
    eprintln!("usage: presp <command> [args]");
    eprintln!("  designs [--json]                      list the built-in paper designs");
    eprintln!("  classify <design> [--json]            size metrics, class and strategy");
    eprintln!("  flow <design> [--no-compress] [--json]  run the full flow");
    eprintln!("  config <design>                       dump the SoC configuration as JSON");
    eprintln!("  test <path>... [--json] [--junit <file>] [--report <file>] [--trace-dir <dir>]");
    eprintln!("                                        run declarative scenario files");
    eprintln!("  repro <artifact> [--json]             regenerate one paper artifact");
    eprintln!("  repro all                             Tables I-VI, Fig. 3 and Fig. 4, and write");
    eprintln!("                                        BENCH_tables.json and BENCH_wami.json");
    eprintln!("  bench floorplan [--json]              time the allocator, relocation and repack");
    eprintln!("                                        on this host; exit 1 if relocation is slow");
    eprintln!("  designs: {}", designs.join(", "));
    eprintln!("  artifacts: table1..table6, fig3, fig4, ablations");
    ExitCode::from(2)
}

fn emit(doc: &JsonValue) {
    println!("{}", doc.pretty());
}

fn design_row(d: &SocDesign) -> JsonValue {
    let spec = d.to_spec().expect("built-ins are buildable");
    let (kappa, alpha, gamma) = spec.size_metrics();
    obj(vec![
        ("design", string(&d.name)),
        ("part", string(&d.part.to_string())),
        ("tiles", int((d.config.rows() * d.config.cols()) as u64)),
        (
            "reconfigurable_tiles",
            int(spec.reconfigurable().len() as u64),
        ),
        ("kappa_pct", num(kappa)),
        ("alpha_av_pct", num(alpha)),
        ("gamma", num(gamma)),
    ])
}

fn cmd_designs(json: bool) -> ExitCode {
    let designs = SocDesign::builtins();
    if json {
        emit(&JsonValue::Array(designs.iter().map(design_row).collect()));
        return ExitCode::SUCCESS;
    }
    for d in designs {
        let spec = d.to_spec().expect("built-ins are buildable");
        let (kappa, alpha, gamma) = spec.size_metrics();
        println!(
            "{:<6} {} tiles={} rms={} κ={:.3} α_av={:.3} γ={:.2}",
            d.name,
            d.part,
            d.config.rows() * d.config.cols(),
            spec.reconfigurable().len(),
            kappa,
            alpha,
            gamma
        );
    }
    ExitCode::SUCCESS
}

fn cmd_classify(design: &SocDesign, json: bool) -> ExitCode {
    let spec = design.to_spec().expect("built-ins are buildable");
    let (kappa, alpha, gamma) = spec.size_metrics();
    match choose_strategy(&spec) {
        Ok((class, strategy)) => {
            if json {
                emit(&obj(vec![
                    ("design", string(&design.name)),
                    ("kappa_pct", num(kappa)),
                    ("alpha_av_pct", num(alpha)),
                    ("gamma", num(gamma)),
                    ("class", string(&class.to_string())),
                    ("strategy", string(&strategy.to_string())),
                ]));
            } else {
                println!("κ = {kappa:.3}, α_av = {alpha:.3}, γ = {gamma:.2}");
                println!("{class} → {strategy}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("classification failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_flow(design: &SocDesign, compressed: bool, json: bool) -> ExitCode {
    let flow = PrEspFlow::new().with_compression(compressed);
    let built = flow.run(design).and_then(|out| {
        let full = out.full_bitstream()?;
        Ok((out, full))
    });
    match built {
        Ok((out, full)) => {
            if json {
                let pbs: Vec<JsonValue> = out
                    .partial_bitstreams
                    .iter()
                    .map(|info| {
                        obj(vec![
                            ("region", string(&info.region)),
                            ("kind", string(info.kind.name())),
                            ("size_bytes", int(info.bitstream.size_bytes() as u64)),
                        ])
                    })
                    .collect();
                emit(&obj(vec![
                    ("design", string(&design.name)),
                    ("class", string(&out.class.to_string())),
                    ("strategy", string(&out.strategy.to_string())),
                    ("synth_min", num(out.report.synth.wall.0)),
                    (
                        "t_static_min",
                        out.report
                            .pnr
                            .t_static
                            .map_or(JsonValue::Null, |t| num(t.0)),
                    ),
                    (
                        "max_omega_min",
                        out.report
                            .pnr
                            .max_omega
                            .map_or(JsonValue::Null, |o| num(o.0)),
                    ),
                    ("total_min", num(out.report.total.0)),
                    ("monolithic_total_min", num(out.monolithic.total.0)),
                    ("full_bitstream_bytes", int(full.size_bytes() as u64)),
                    ("partial_bitstreams", JsonValue::Array(pbs)),
                ]));
                return ExitCode::SUCCESS;
            }
            println!("design:     {}", design.name);
            println!("class:      {}", out.class);
            println!("strategy:   {}", out.strategy);
            println!("synthesis:  {}", out.report.synth.wall);
            if let Some(t) = out.report.pnr.t_static {
                println!("t_static:   {t}");
            }
            if let Some(o) = out.report.pnr.max_omega {
                println!("max Omega:  {o}");
            }
            println!(
                "total:      {}  (monolithic: {})",
                out.report.total, out.monolithic.total
            );
            println!("full bitstream: {} KB", full.size_bytes() / 1024);
            for info in &out.partial_bitstreams {
                println!(
                    "  pbs {:<10} {:<24} {:>6} KB",
                    info.region,
                    info.kind.name(),
                    info.bitstream.size_bytes() / 1024
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flow failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `presp test`: runs scenario files/directories, prints a verdict per
/// scenario (or the JSON report under `--json`), writes the requested
/// artifacts, and exits `0` (all passed), `1` (an assertion failed or a
/// file did not parse, printed as `LOAD FAIL`) or `2` (usage errors, a
/// missing path, or an artifact that could not be written).
fn cmd_test(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut json = false;
    let mut junit_path: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--junit" | "--report" | "--trace-dir" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} requires a path argument");
                    return usage();
                };
                let slot = match arg.as_str() {
                    "--junit" => &mut junit_path,
                    "--report" => &mut report_path,
                    _ => &mut trace_dir,
                };
                *slot = Some(PathBuf::from(value));
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}' for presp test");
                return usage();
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        eprintln!("presp test requires at least one scenario file or directory");
        return usage();
    }

    let outcome = match runner::run_paths(&paths) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, outcome.report_json()) {
            eprintln!("cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &junit_path {
        if let Err(e) = std::fs::write(path, outcome.junit_xml()) {
            eprintln!("cannot write JUnit XML {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = outcome.write_traces(dir) {
            eprintln!("cannot write traces under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    if json {
        print!("{}", outcome.report_json());
    } else {
        for entry in &outcome.entries {
            match entry {
                ReportEntry::LoadFailed { file, error } => {
                    println!("LOAD FAIL {file}: {error}");
                }
                ReportEntry::Ran { file, verdict } => {
                    let mark = if verdict.passed() { "pass" } else { "FAIL" };
                    println!(
                        "{mark} {name} ({file}, {runs} runs)",
                        name = verdict.spec.name,
                        runs = verdict.observations.runs.len()
                    );
                    for r in verdict.results.iter().filter(|r| !r.passed) {
                        println!(
                            "     {}: {} (replay seed {})",
                            r.check, r.detail, r.replay_seed
                        );
                    }
                }
            }
        }
        let total = outcome.entries.len();
        let passed = outcome.entries.iter().filter(|e| e.passed()).count();
        println!("{passed}/{total} scenarios passed");
    }
    if outcome.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `presp repro`: prints one artifact (its text table, or its JSON
/// document under `--json`), or under `all` prints Tables I–VI, Fig. 3 and
/// Fig. 4 and writes `BENCH_tables.json` and `BENCH_wami.json` to the
/// working directory. Exits `2` on a usage error or a failed write.
fn cmd_repro(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let names: Vec<&String> = args.iter().filter(|a| *a != "--json").collect();
    let [name] = names[..] else {
        eprintln!("presp repro takes one artifact");
        return usage();
    };
    if name == "all" {
        if json {
            eprintln!(
                "presp repro all always writes its JSON documents; --json is for one artifact"
            );
            return usage();
        }
        let evaluation = repro::evaluation();
        print!("{}", evaluation.text);
        for (path, doc) in &evaluation.documents {
            if let Err(e) = export::write_json(path, doc) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(out) = repro::artifact(name, json) else {
        eprintln!("unknown artifact '{name}'");
        return usage();
    };
    print!("{out}");
    ExitCode::SUCCESS
}

/// `presp bench floorplan`: runs the floorplanning cells once, prints
/// their text rendering (or the JSON document under `--json`) and exits
/// `1` when relocation's per-frame time exceeds
/// [`floorplan::RELOCATION_LIMIT`] verification passes. Writes no file.
fn cmd_bench(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let names: Vec<&String> = args.iter().filter(|a| *a != "--json").collect();
    if names[..] != ["floorplan"] {
        eprintln!("presp bench takes one benchmark: floorplan");
        return usage();
    }
    let report = floorplan::run(&floorplan::FULL);
    if json {
        emit(&report.json());
    } else {
        print!("{}", report.text());
    }
    if report.reloc.passes() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: relocation costs {:.2} verification passes per frame (limit {:.2})",
            report.reloc.ratio(),
            floorplan::RELOCATION_LIMIT
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let json = args.iter().any(|a| a == "--json");

    match command.as_str() {
        "designs" => cmd_designs(json),
        "test" => cmd_test(&args[1..]),
        "repro" => cmd_repro(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "classify" | "flow" | "config" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(design) = SocDesign::builtin(name) else {
                eprintln!("unknown design '{name}' — try `presp designs`");
                return ExitCode::FAILURE;
            };
            match command.as_str() {
                "config" => {
                    println!("{}", design.config.to_json());
                    ExitCode::SUCCESS
                }
                "classify" => cmd_classify(&design, json),
                _ => {
                    let compressed = !args.iter().any(|a| a == "--no-compress");
                    cmd_flow(&design, compressed, json)
                }
            }
        }
        _ => usage(),
    }
}
