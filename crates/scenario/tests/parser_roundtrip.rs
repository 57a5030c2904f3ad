//! Property tests for the scenario language.
//!
//! The contract under test is exact: `parse(serialize(spec)) == spec`
//! for every valid spec, and every malformed document is rejected with a
//! message that names the offending key and the accepted values. Specs
//! are generated over the full surface of the language — all five
//! workload kinds, every assertion shape, optional sections present and
//! absent — within the parser's own validity envelope.

use presp_events::TraceEvent;
use presp_floorplan::FitPolicy;
use presp_fpga::fault::FaultConfig;
use presp_runtime::manager::{OverloadPolicy, RecoveryPolicy};
use presp_runtime::supervisor::WorkerFaultConfig;
use presp_scenario::engine::STATS;
use presp_scenario::spec::{
    Assertion, CatalogKind, FabricSpec, RegionsSpec, ScenarioSpec, ScrubberSpec, SeedSpec,
    WorkloadSpec,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_of_serialize_is_identity(
        name_n in 0u64..1_000_000,
        with_description in proptest::bool::ANY,
        tiles in 2usize..7,
        catalog_sel in 0u64..3,
        seed_start in 0u64..100_000,
        seed_count in 1u64..50,
        workers_sel in 0u64..4,
        cache_capacity in 0usize..5,
        rate_n in 0u64..21,
        stall_max in 1u64..512,
        delay_max in 1u64..128,
        seu_n in 0u64..1000,
        dbl_n in 0u64..11,
        max_retries in 0u32..6,
        backoff in 1u64..256,
        multiplier in 1u64..5,
        quarantine_after in 1u32..5,
        cpu_fallback in proptest::bool::ANY,
        scrub_enabled in proptest::bool::ANY,
        sweep_every in 0u64..9,
        final_sweep in proptest::bool::ANY,
        workload_sel in 0u64..5,
        rounds in 1usize..1001,
        clients in 1usize..8,
        ops in 1usize..12,
        burst in 2usize..16,
        assertion_sel in 0u64..512,
        stat_sel in 0usize..1_000,
        event_sel in 0usize..1_000,
        bound in 0u64..1_000_000,
        supervised in proptest::bool::ANY,
        deadline in 0u64..100_000,
        queue_capacity in 0u64..16,
        shed_oldest in proptest::bool::ANY,
        breaker in proptest::bool::ANY,
        restart_budget in 0u32..8,
        wf_rate_n in 0u64..21,
        wf_stall_max in 0u64..200,
        wf_budget in 0u64..5,
        regions_sel in 0u64..4,
        win_lo in 1u32..5,
        win_width in 2u32..9,
    ) {
        // Coalesce-burst validity demands a single worker; every workload
        // but the blocking one gets a mac+sort catalog (the bursts need
        // mac, the region workloads both); the defrag probe
        // also needs seven tiles, and both region workloads need the region
        // allocator (the defrag probe with a window). Everything else roams
        // freely.
        let workers = if workload_sel == 1 {
            vec![1]
        } else {
            match workers_sel {
                0 => vec![1],
                1 => vec![2],
                2 => vec![1, 4],
                _ => vec![2, 3, 5],
            }
        };
        let catalog = if workload_sel != 0 {
            vec![CatalogKind::Mac, CatalogKind::Sort]
        } else {
            match catalog_sel {
                0 => vec![CatalogKind::Mac],
                1 => vec![CatalogKind::Sort],
                _ => vec![CatalogKind::Mac, CatalogKind::Sort],
            }
        };
        let workload = match workload_sel {
            0 => WorkloadSpec::Blocking { clients, ops_per_client: ops },
            1 => WorkloadSpec::CoalesceBurst { burst },
            2 => WorkloadSpec::OverloadBurst { burst },
            3 => WorkloadSpec::DefragProbe,
            _ => WorkloadSpec::FragmentChurn { rounds },
        };
        let tiles = if workload_sel == 3 { tiles + 5 } else { tiles };
        let regions_sel = match workload_sel {
            3 => 2 + regions_sel % 2,
            4 => 1 + regions_sel % 3,
            _ => regions_sel,
        };
        // Panic/hang injection is only valid under a supervised policy
        // (the parser rejects the combination otherwise).
        let worker_faults = if supervised {
            WorkerFaultConfig {
                panic_rate: wf_rate_n as f64 / 50.0,
                hang_rate: wf_rate_n as f64 / 80.0,
                stall_rate: wf_rate_n as f64 / 60.0,
                stall_max_micros: wf_stall_max,
                max_panics: wf_budget,
                max_hangs: wf_budget,
            }
        } else {
            WorkerFaultConfig {
                stall_rate: wf_rate_n as f64 / 60.0,
                stall_max_micros: wf_stall_max,
                ..WorkerFaultConfig::default()
            }
        };
        let scrubber = ScrubberSpec {
            enabled: scrub_enabled,
            sweep_every_ops: sweep_every,
            final_sweep,
        };
        // Defrag is only valid with regions enabled (the parser rejects
        // the combination otherwise).
        let regions = match regions_sel {
            0 => RegionsSpec::default(),
            1 => RegionsSpec { enabled: true, ..RegionsSpec::default() },
            2 => RegionsSpec {
                enabled: true,
                policy: FitPolicy::BestFit,
                window: Some((win_lo, win_lo + win_width)),
                defrag: false,
            },
            _ => RegionsSpec {
                enabled: true,
                policy: FitPolicy::FirstFit,
                window: Some((win_lo, win_lo + win_width)),
                defrag: true,
            },
        };

        let stat = STATS[stat_sel % STATS.len()].0.to_string();
        let mut assertions = vec![Assertion::StatsConsistent];
        if assertion_sel & 1 != 0 {
            assertions.push(Assertion::NoLostRequests);
        }
        if assertion_sel & 2 != 0 {
            assertions.push(Assertion::BitIdenticalOutputs);
        }
        if assertion_sel & 4 != 0 {
            assertions.push(Assertion::StatMin { stat: stat.clone(), value: bound });
        }
        if assertion_sel & 8 != 0 {
            assertions.push(Assertion::StatMax { stat: stat.clone(), value: bound });
        }
        if assertion_sel & 16 != 0 {
            let names = TraceEvent::NAMES;
            let present = names[event_sel % names.len()].to_string();
            let absent = names[event_sel / names.len() % names.len()].to_string();
            assertions.push(Assertion::TraceContains { event: present });
            assertions.push(Assertion::TraceAbsent { event: absent });
        }
        if assertion_sel & 32 != 0 {
            assertions.push(Assertion::MakespanMax { value: bound });
        }
        if assertion_sel & 64 != 0 {
            assertions.push(Assertion::DeadlineMissMax { value: bound });
        }
        if assertion_sel & 128 != 0 {
            assertions.push(Assertion::ShedRateMax { percent: bound % 101 });
        }
        if assertion_sel & 256 != 0 {
            assertions.push(Assertion::NoOrphanedTickets);
        }
        if workers.len() >= 2 {
            assertions.push(Assertion::OutcomeEqualityAcrossWorkers);
        }
        if scrub_enabled && final_sweep {
            assertions.push(Assertion::FinalScrubClean);
        }

        let spec = ScenarioSpec {
            name: format!("case_{name_n}"),
            description: if with_description {
                format!("generated case {name_n}")
            } else {
                String::new()
            },
            fabric: FabricSpec {
                soc_name: format!("soc-{name_n}"),
                reconf_tiles: tiles,
            },
            catalog,
            seeds: SeedSpec { start: seed_start, count: seed_count },
            workers,
            cache_capacity,
            faults: FaultConfig {
                icap_flip_rate: rate_n as f64 / 40.0,
                dfxc_stall_rate: rate_n as f64 / 80.0,
                dfxc_stall_max_cycles: stall_max,
                registry_miss_rate: rate_n as f64 / 60.0,
                decoupler_delay_rate: rate_n as f64 / 100.0,
                decoupler_delay_max_cycles: delay_max,
                seu_per_mcycle: seu_n as f64,
                seu_double_bit_rate: dbl_n as f64 / 10.0,
            },
            worker_faults,
            policy: RecoveryPolicy {
                max_retries,
                backoff_cycles: backoff,
                backoff_multiplier: multiplier,
                quarantine_after,
                cpu_fallback,
                deadline_cycles: deadline,
                queue_capacity,
                overload: if shed_oldest {
                    OverloadPolicy::ShedOldest
                } else {
                    OverloadPolicy::RejectNew
                },
                breaker,
                supervised,
                restart_budget,
            },
            scrubber,
            regions,
            workload,
            assertions,
        };

        let serialized = spec.serialize();
        let reparsed = ScenarioSpec::parse(&serialized);
        prop_assert!(
            reparsed.is_ok(),
            "serialized spec failed to reparse: {:?}\n{serialized}",
            reparsed.err()
        );
        prop_assert_eq!(reparsed.unwrap(), spec);
    }

    #[test]
    fn serialization_is_deterministic(
        name_n in 0u64..1_000_000,
        tiles in 1usize..7,
        seed_count in 1u64..100,
    ) {
        let spec = ScenarioSpec {
            name: format!("det_{name_n}"),
            description: String::new(),
            fabric: FabricSpec { soc_name: "det".to_string(), reconf_tiles: tiles },
            catalog: vec![CatalogKind::Mac],
            seeds: SeedSpec { start: 0, count: seed_count },
            workers: vec![1],
            cache_capacity: 0,
            faults: FaultConfig::default(),
            worker_faults: WorkerFaultConfig::default(),
            policy: RecoveryPolicy::default(),
            scrubber: ScrubberSpec::default(),
            regions: RegionsSpec::default(),
            workload: WorkloadSpec::Blocking { clients: 1, ops_per_client: 1 },
            assertions: vec![Assertion::StatsConsistent],
        };
        prop_assert_eq!(spec.serialize(), spec.serialize());
    }
}

/// Asserts that `input` is rejected and the message contains every
/// fragment — the "actionable message" contract.
fn assert_rejects(input: &str, fragments: &[&str]) {
    let err = ScenarioSpec::parse(input).expect_err("document must be rejected");
    for fragment in fragments {
        assert!(
            err.0.contains(fragment),
            "rejection message for {input:?} should mention {fragment:?}, got: {}",
            err.0
        );
    }
}

/// A minimal valid scenario document to mutate in rejection tests.
fn valid_doc() -> String {
    r#"{
        "name": "ok",
        "fabric": {"soc_name": "ok", "reconf_tiles": 1},
        "catalog": ["mac"],
        "seeds": {"count": 1},
        "workload": {"kind": "blocking", "clients": 1, "ops_per_client": 1},
        "assertions": [{"check": "stats_consistent"}]
    }"#
    .to_string()
}

#[test]
fn valid_doc_parses() {
    ScenarioSpec::parse(&valid_doc()).expect("baseline document must parse");
}

#[test]
fn rejects_unknown_top_level_key() {
    assert_rejects(
        &valid_doc().replace("\"name\"", "\"nam\""),
        &[
            "unknown key 'nam'",
            "top-level",
            "name, description, fabric",
        ],
    );
}

#[test]
fn rejects_bad_name_charset() {
    assert_rejects(
        &valid_doc().replace("\"ok\",", "\"has spaces\","),
        &["'name'", "[a-zA-Z0-9_]", "has spaces"],
    );
}

#[test]
fn rejects_unknown_catalog_kind() {
    assert_rejects(
        &valid_doc().replace("[\"mac\"]", "[\"fft\"]"),
        &["unknown accelerator kind 'fft'", "mac, sort"],
    );
}

#[test]
fn rejects_out_of_range_tiles() {
    assert_rejects(
        &valid_doc().replace("\"reconf_tiles\": 1", "\"reconf_tiles\": 65"),
        &["'fabric.reconf_tiles'", "between 1 and 64", "got 65"],
    );
}

#[test]
fn rejects_out_of_range_rate() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"faults\": {\"icap_flip_rate\": 1.5}, \"catalog\"",
    );
    assert_rejects(&doc, &["'icap_flip_rate'", "between 0 and 1", "1.5"]);
}

#[test]
fn rejects_unknown_check() {
    assert_rejects(
        &valid_doc().replace("stats_consistent", "stats_consistant"),
        &[
            "unknown check 'stats_consistant'",
            "assertions[0]",
            "stats_consistent",
        ],
    );
}

#[test]
fn rejects_unknown_stat_key() {
    let doc = valid_doc().replace(
        "{\"check\": \"stats_consistent\"}",
        "{\"check\": \"stat_min\", \"stat\": \"retrys\", \"value\": 1}",
    );
    assert_rejects(&doc, &["unknown stat 'retrys'", "retries"]);
}

#[test]
fn rejects_empty_assertions() {
    let doc = valid_doc().replace("[{\"check\": \"stats_consistent\"}]", "[]");
    assert_rejects(&doc, &["at least one check", "tests nothing"]);
}

#[test]
fn rejects_worker_equality_with_one_worker_count() {
    let doc = valid_doc().replace(
        "{\"check\": \"stats_consistent\"}",
        "{\"check\": \"outcome_equality_across_workers\"}",
    );
    assert_rejects(&doc, &["outcome_equality_across_workers", "at least two"]);
}

#[test]
fn rejects_final_scrub_clean_without_scrubber() {
    let doc = valid_doc().replace(
        "{\"check\": \"stats_consistent\"}",
        "{\"check\": \"final_scrub_clean\"}",
    );
    assert_rejects(&doc, &["final_scrub_clean", "final_sweep"]);
}

#[test]
fn rejects_coalesce_burst_with_multiple_workers() {
    let doc = valid_doc()
        .replace("[\"mac\"]", "[\"mac\", \"sort\"]")
        .replace("\"reconf_tiles\": 1", "\"reconf_tiles\": 2")
        .replace(
            "{\"kind\": \"blocking\", \"clients\": 1, \"ops_per_client\": 1}",
            "{\"kind\": \"coalesce_burst\", \"burst\": 4}",
        )
        .replace("\"seeds\"", "\"workers\": [2], \"seeds\"");
    assert_rejects(&doc, &["coalesce_burst", "\"workers\": [1]"]);
}

#[test]
fn rejects_unknown_worker_fault_key() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"worker_faults\": {\"panic_rat\": 0.1}, \"catalog\"",
    );
    assert_rejects(
        &doc,
        &["unknown key 'panic_rat'", "'worker_faults'", "panic_rate"],
    );
}

#[test]
fn rejects_panic_injection_without_supervision() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"worker_faults\": {\"panic_rate\": 0.5, \"max_panics\": 1}, \"catalog\"",
    );
    assert_rejects(&doc, &["supervised", "never healed"]);
}

#[test]
fn rejects_invalid_json_with_position() {
    assert_rejects("{\"name\": }", &["invalid JSON"]);
}

#[test]
fn rejects_defrag_without_regions() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"regions\": {\"defrag\": true}, \"catalog\"",
    );
    assert_rejects(&doc, &["defrag", "\"enabled\": true"]);
}

#[test]
fn rejects_unknown_fit_policy_token() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"regions\": {\"enabled\": true, \"policy\": \"worst_fit\"}, \"catalog\"",
    );
    assert_rejects(&doc, &["worst_fit", "first_fit, best_fit"]);
}

#[test]
fn rejects_degenerate_region_window() {
    let doc = valid_doc().replace(
        "\"catalog\"",
        "\"regions\": {\"enabled\": true, \"window\": [12, 1]}, \"catalog\"",
    );
    assert_rejects(&doc, &["'regions.window'", "lo < hi"]);
}

#[test]
fn rejects_defrag_probe_without_regions() {
    let doc = valid_doc()
        .replace("[\"mac\"]", "[\"mac\", \"sort\"]")
        .replace("\"reconf_tiles\": 1", "\"reconf_tiles\": 7")
        .replace(
            "{\"kind\": \"blocking\", \"clients\": 1, \"ops_per_client\": 1}",
            "{\"kind\": \"defrag_probe\"}",
        );
    assert_rejects(&doc, &["defrag_probe", "\"regions\": {\"enabled\": true}"]);
}

#[test]
fn rejects_defrag_probe_with_too_few_tiles() {
    let doc = valid_doc()
        .replace("[\"mac\"]", "[\"mac\", \"sort\"]")
        .replace(
            "\"catalog\"",
            "\"regions\": {\"enabled\": true, \"window\": [1, 12]}, \"catalog\"",
        )
        .replace(
            "{\"kind\": \"blocking\", \"clients\": 1, \"ops_per_client\": 1}",
            "{\"kind\": \"defrag_probe\"}",
        );
    assert_rejects(&doc, &["defrag_probe", "reconf_tiles", ">= 7"]);
}

#[test]
fn rejects_fragment_churn_without_regions() {
    let doc = valid_doc()
        .replace("[\"mac\"]", "[\"mac\", \"sort\"]")
        .replace(
            "{\"kind\": \"blocking\", \"clients\": 1, \"ops_per_client\": 1}",
            "{\"kind\": \"fragment_churn\", \"rounds\": 4}",
        );
    assert_rejects(
        &doc,
        &["fragment_churn", "\"regions\": {\"enabled\": true}"],
    );
}
