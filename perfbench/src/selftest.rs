//! `--self-test`: every workload at a tiny length, traced and untraced,
//! plus a held-out seed, the Fig. 4 digest against the repository's own
//! `fig4(6, 64, 2)`, and the metric list against `BENCHMARK.json`.

use crate::layers::eval;
use crate::params;
use crate::report::{END_TO_END, PER_LAYER};
use crate::{run_workload, WORKLOADS};

/// A seed no tuning run used.
const HELD_OUT_SEED: u64 = 0x5eed_0ff5;

fn verdict(ok: bool, what: &str) -> bool {
    println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    ok
}

pub fn run() -> bool {
    let mut ok = true;

    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            let declared = text.matches("\"name\":").count();
            let expected = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
            let all_named = END_TO_END.iter().chain(PER_LAYER).all(|(name, unit)| {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                text.contains(&entry)
            });
            ok &= verdict(
                all_named && declared == expected,
                &format!(
                    "BENCHMARK.json declares the {expected} workloads and metrics the code emits"
                ),
            );
        }
        Err(e) => ok &= verdict(false, &format!("read BENCHMARK.json: {e}")),
    }

    let digest = eval::fig4_digest(&eval::fig4_reference(
        6,
        params::FRAME_SIZE,
        params::LK_ITERATIONS,
    ));
    ok &= verdict(
        digest == params::FIG4_DIGEST,
        &format!("recorded Fig. 4 digest equals experiments::fig4(6, 64, 2) ({digest})"),
    );

    for workload in WORKLOADS {
        for (seed, trace) in [(1, false), (1, true), (HELD_OUT_SEED, false)] {
            let (report, _) = run_workload(workload, seed, 1.0, trace, 3);
            let set = if trace { PER_LAYER } else { END_TO_END };
            let line = report.result_line(set);
            let what = format!(
                "{workload} seed {seed} trace {}: {} checks, {} failed{}",
                u8::from(trace),
                report.attempted,
                report.failed,
                line.as_ref()
                    .err()
                    .map_or(String::new(), |e| format!(", {e}"))
            );
            for failure in report.failures() {
                println!("     {failure}");
            }
            ok &= verdict(
                line.is_ok() && report.failed == 0 && report.attempted > 0,
                &what,
            );
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    ok
}
