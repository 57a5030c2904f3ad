//! Declarative runtime scenarios for PR-ESP.
//!
//! The paper's pitch is a single make target from configuration to
//! bitstreams; this crate extends the same philosophy to the *runtime*
//! side of the platform: every fault storm, SEU/scrub campaign,
//! coalescing probe and multi-worker determinism sweep becomes a JSON
//! data file instead of a bespoke Rust test or bench binary.
//!
//! * [`spec`] — the scenario language: a strict parser over the
//!   workspace's hand-rolled JSON module, with actionable rejection
//!   messages and an exact `parse(serialize(spec)) == spec` round-trip.
//! * [`engine`] — wires a spec into a live `Soc` + `ThreadedManager`,
//!   drives the declared workload (with any scrub sweeps and repack
//!   passes) deterministically under each seed, and evaluates the declared
//!   assertions against virtual-time observations only.
//! * [`report`] — the byte-deterministic JSON report.
//! * `junit` (crate-private) — JUnit XML for CI test surfaces, written
//!   by the runner.
//! * [`runner`] — files/directories in, artifacts out; the engine room
//!   of the `presp test` subcommand.
//!
//! # Example
//!
//! ```
//! use presp_scenario::{engine, spec::ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(r#"{
//!     "name": "doc_smoke",
//!     "fabric": {"soc_name": "doc-smoke", "reconf_tiles": 1},
//!     "catalog": ["mac"],
//!     "seeds": {"count": 1},
//!     "workload": {"kind": "blocking", "clients": 1, "ops_per_client": 2},
//!     "assertions": [{"check": "stats_consistent"},
//!                    {"check": "no_lost_requests"}]
//! }"#).unwrap();
//! let verdict = engine::run(&spec);
//! assert!(verdict.passed());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod engine;
mod junit;
pub mod report;
pub mod runner;
pub mod spec;
