//! Online defragmentation on the threaded runtime.
//!
//! Under amorphous floorplanning, churn fragments the managed column
//! window: enough columns are free for an oversized request, but no
//! contiguous span is. Real PR platforms answer this with bitstream
//! relocation — reload an idle module a few frames over and coalesce the
//! holes. On the simulated stack a repack is a method of
//! [`ThreadedManager`] that runs on the calling thread, next to the
//! scrub passes of [`crate::scrubber`].
//!
//! A repack pass is transactional per move and quiescent as a whole:
//!
//! 1. It takes the commit-order **gate** mutex for the whole pass.
//!    Workers acquire the gate before their shard + core commit critical
//!    section, so holding it keeps every lease exactly where the
//!    compaction plan saw it — no move can race a reconfiguration.
//! 2. The plan is computed under the device-core lock (the allocator's
//!    greedy left-slide compaction), and each move's owner is resolved
//!    there too: the core is the one record of which tile holds which
//!    lease.
//! 3. Each move then takes only its owner's shard lock and the core
//!    lock — the same `tile_state` → `core` order every worker and every
//!    scrub pass use — and runs the protocol layer's `repack_move`, the
//!    step the sequential manager's `repack_at` runs too: quarantined
//!    owners are skipped, then allocator first (validated against every
//!    live lease), fabric second (decouple → frame move → recouple),
//!    allocator rolled back if the fabric refuses.
//!
//! Lock order invariant: `gate` → `core` for the plan, then `gate` →
//! `tile_state` → `core` per move.
//! Its counters — passes, moves, frames moved — are the ledger's
//! [`crate::manager::ManagerStats`] fields, updated by the protocol
//! layer under the `core` lock.

use crate::error::Error;
use crate::manager::RepackReport;
use crate::protocol;
use crate::scheduler::Shared;
use crate::sync::SyncFacade;
use crate::threaded::ThreadedManager;

impl<S: SyncFacade> ThreadedManager<S> {
    /// Runs one gate-quiesced repack pass on the calling thread and
    /// returns its report. On the fixed-socket path (regions never
    /// enabled), or with nothing to slide, the pass is idle and the
    /// report all zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ManagerStopped`] once shutdown has begun.
    ///
    /// # Example
    ///
    /// ```no_run
    /// # use presp_runtime::threaded::ThreadedManager;
    /// # use presp_runtime::registry::BitstreamRegistry;
    /// # use presp_soc::{config::SocConfig, sim::Soc};
    /// # use presp_floorplan::FitPolicy;
    /// # fn demo() -> Result<(), presp_runtime::Error> {
    /// let config = SocConfig::grid_3x3_reconf("demo", 1)?;
    /// let soc = Soc::new(&config)?;
    /// let manager = ThreadedManager::spawn(soc, BitstreamRegistry::new());
    /// manager.enable_regions(FitPolicy::FirstFit, None)?;
    /// let report = manager.repack_blocking()?;
    /// assert_eq!(report.skipped, 0);
    /// manager.shutdown();
    /// # Ok(()) }
    /// ```
    pub fn repack_blocking(&self) -> Result<RepackReport, Error> {
        if self.shared.is_stopping() {
            return Err(Error::ManagerStopped);
        }
        let result = if self.shared.mutants.defrag_gate_inversion {
            repack_inverted(&self.shared)
        } else {
            repack_pass(&self.shared)
        };
        // A pass moves idle horizons: wake any thread parked on a tile
        // completion so it re-checks.
        for shard in self.shared.shards.values() {
            S::notify_all(&shard.reconfig_done);
        }
        result
    }
}

/// The known-bad variant for checker validation: a shard probe *before*
/// the gate, inverting the workers' `gate` → `tile_state` commit order.
fn repack_inverted<S: SyncFacade>(shared: &Shared<S>) -> Result<RepackReport, Error> {
    // MUTANT: every tile_state taken first, gate second — the reverse of
    // every worker's gate → tile_state commit acquisition, so whichever
    // shard a worker commits on is already held when this thread blocks
    // on the gate.
    let probes: Vec<_> = shared
        .shards
        .values()
        .map(|shard| S::lock(&shard.state)) // presp-analyze: mutant
        .collect();
    let quiesce = S::lock(&shared.gate); // presp-analyze: mutant
    drop(quiesce);
    drop(probes);
    repack_pass(shared)
}

/// One gate-quiesced repack pass: plan and owners under `core`, then one
/// `tile_state` → `core` move at a time, all anchored at the pass's
/// starting horizon like the deterministic manager's `repack_at`, and
/// closed (counted and traced) under `core` before the gate opens.
fn repack_pass<S: SyncFacade>(shared: &Shared<S>) -> Result<RepackReport, Error> {
    // Quiesce commits: workers take the gate before their shard + core
    // critical section, so holding it pins every lease where the
    // compaction plan is about to observe it.
    let quiesced = S::lock(&shared.gate);
    let (at, plan) = {
        let core = S::lock(&shared.core);
        (core.soc().horizon(), core.plan_repack())
    };
    let mut report = RepackReport::default();
    for (mv, tile) in &plan {
        let Some(shard) = shared.shards.get(tile) else {
            report.skipped += 1;
            continue;
        };
        let mut state = S::lock(&shard.state);
        let mut core = S::lock(&shared.core);
        protocol::repack_move(&mut state, &mut core, mv, at, &mut report);
    }
    protocol::close_repack_pass(&mut S::lock(&shared.core), &report, at);
    drop(quiesced);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{ManagerStats, ReconfigManager};
    use crate::registry::BitstreamRegistry;
    use crate::scheduler::MutantConfig;
    use crate::threaded::RuntimeConfig;
    use presp_accel::catalog::AcceleratorKind;
    use presp_check::{CheckSync, Checker, Config, FailureKind};
    use presp_floorplan::{FitPolicy, FragmentationStats, RegionLease};
    use presp_fpga::bitstream::Bitstream;
    use presp_soc::config::{SocConfig, TileCoord};
    use presp_soc::sim::Soc;

    fn bitstream(soc: &Soc, col: u32, frames: u32) -> Bitstream {
        Bitstream::synthetic_partial(&soc.part().device(), col..col + 1, frames).unwrap()
    }

    /// The two region paths in one recipe: seven 1-column loads pack a
    /// column window, a swap opens non-adjacent holes, a 3-column request
    /// is refused, one repack pass heals the fragmentation and the retry
    /// is admitted and attributed to it. The sequential manager and the
    /// threaded one drive the same arc through the same protocol layer.
    trait RegionPath {
        fn load(&mut self, tile: TileCoord, kind: AcceleratorKind) -> Result<(), Error>;
        fn repack(&mut self) -> RepackReport;
        fn lease(&self, tile: TileCoord) -> Option<RegionLease>;
        fn fragmentation(&self) -> Option<FragmentationStats>;
        fn ledger(&self) -> (ManagerStats, u64);
    }

    impl RegionPath for ReconfigManager {
        fn load(&mut self, tile: TileCoord, kind: AcceleratorKind) -> Result<(), Error> {
            self.request_reconfiguration(tile, kind).map(drop)
        }
        fn repack(&mut self) -> RepackReport {
            self.repack_at(self.makespan()).unwrap()
        }
        fn lease(&self, tile: TileCoord) -> Option<RegionLease> {
            self.tile_lease(tile)
        }
        fn fragmentation(&self) -> Option<FragmentationStats> {
            ReconfigManager::fragmentation(self)
        }
        fn ledger(&self) -> (ManagerStats, u64) {
            (self.stats(), self.makespan())
        }
    }

    impl RegionPath for ThreadedManager {
        fn load(&mut self, tile: TileCoord, kind: AcceleratorKind) -> Result<(), Error> {
            self.reconfigure_blocking(tile, kind)
        }
        fn repack(&mut self) -> RepackReport {
            self.repack_blocking().unwrap()
        }
        fn lease(&self, tile: TileCoord) -> Option<RegionLease> {
            self.tile_lease(tile)
        }
        fn fragmentation(&self) -> Option<FragmentationStats> {
            ThreadedManager::fragmentation(self)
        }
        fn ledger(&self) -> (ManagerStats, u64) {
            (self.stats(), self.makespan())
        }
    }

    /// Everything the recipe leaves observable, compared whole across
    /// the two paths.
    #[derive(Debug, PartialEq)]
    struct RecipeOutcome {
        /// Fragmentation after the swap, the refusal, the repack and the
        /// admit.
        fragmentation: [Option<FragmentationStats>; 4],
        /// Every tile's lease after the refusal and after the admit.
        refused_leases: Vec<Option<RegionLease>>,
        admitted_leases: Vec<Option<RegionLease>>,
        repack: RepackReport,
        stats: ManagerStats,
        makespan: u64,
    }

    fn recipe_soc() -> (Soc, BitstreamRegistry, Vec<TileCoord>) {
        let cfg = SocConfig::grid_reconf("amorphous", 7).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for &tile in &tiles {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 1, 4))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Sort, bitstream(&soc, 3, 4))
                .unwrap();
            registry
                .register(
                    tile,
                    AcceleratorKind::Gemm,
                    Bitstream::synthetic_partial(&soc.part().device(), 7..10, 4).unwrap(),
                )
                .unwrap();
        }
        (soc, registry, tiles)
    }

    fn run_recipe(mgr: &mut impl RegionPath, tiles: &[TileCoord]) -> RecipeOutcome {
        let leases = |mgr: &dyn RegionPath| tiles.iter().map(|&t| mgr.lease(t)).collect();
        for &t in tiles {
            mgr.load(t, AcceleratorKind::Mac).unwrap();
        }
        mgr.load(tiles[5], AcceleratorKind::Sort).unwrap();
        let swapped = mgr.fragmentation();
        let err = mgr.load(tiles[1], AcceleratorKind::Gemm);
        assert!(
            matches!(err, Err(Error::RegionUnavailable { width: 3, .. })),
            "{err:?}"
        );
        let refused = mgr.fragmentation();
        let refused_leases = leases(mgr);
        let repack = mgr.repack();
        let repacked = mgr.fragmentation();
        mgr.load(tiles[1], AcceleratorKind::Gemm).unwrap();
        let (stats, makespan) = mgr.ledger();
        RecipeOutcome {
            fragmentation: [swapped, refused, repacked, mgr.fragmentation()],
            refused_leases,
            admitted_leases: leases(mgr),
            repack,
            stats,
            makespan,
        }
    }

    #[test]
    fn amorphous_recipe_agrees_across_managers() {
        use presp_fpga::fabric::ColumnKind::{Bram, Clb, Dsp};
        let (soc, registry, tiles) = recipe_soc();
        // The recipe is pinned to the Vc707 column interleave — assert
        // it so a fabric-model change fails loudly here.
        let d = soc.part().device();
        let expect = [Clb, Clb, Bram, Clb, Clb, Dsp, Clb, Clb, Clb, Clb, Clb];
        for (i, kind) in expect.iter().enumerate() {
            assert_eq!(d.column_kind(i + 1), *kind, "column {}", i + 1);
        }
        let mut mgr = ReconfigManager::new(soc, registry);
        mgr.enable_regions(FitPolicy::FirstFit, Some(1..12))
            .unwrap();
        let sequential = run_recipe(&mut mgr, &tiles);
        assert!(mgr.driver_services(tiles[1], AcceleratorKind::Gemm));

        // The pinned numbers. Seven 1-column loads pack the window's CLB
        // columns first-fit at bases 1, 2, 4, 5, 7, 8, 9 (3 and 6 are
        // BRAM/DSP); the swap moves the tile at 8 onto the BRAM column,
        // leaving free the DSP column 6, the vacated 8 and [10, 11].
        let bases = |leases: &[Option<RegionLease>]| -> Vec<u32> {
            leases.iter().map(|l| l.as_ref().unwrap().base).collect()
        };
        assert_eq!(bases(&sequential.refused_leases), [1, 2, 4, 5, 7, 3, 9]);
        let swapped = sequential.fragmentation[0].unwrap();
        assert_eq!((swapped.free_columns, swapped.largest_free_span), (4, 2));
        // The refusal changes nothing but the ledger; free columns exist
        // but no 3-wide CLB span.
        let refused = sequential.fragmentation[1].unwrap();
        assert_eq!(refused, swapped);
        assert!(refused.external_fragmentation() > 0.0);
        // One repack move (9 → 8) heals the fragmentation, and the retry
        // lands in the healed span, vacating column 2.
        assert_eq!(
            sequential.repack,
            RepackReport {
                moves: 1,
                skipped: 0,
                frames_moved: 4,
            }
        );
        assert_eq!(sequential.fragmentation[2].unwrap().largest_free_span, 3);
        assert_eq!(bases(&sequential.admitted_leases), [1, 9, 4, 5, 7, 3, 8]);
        assert_eq!(sequential.admitted_leases[1].as_ref().unwrap().width(), 3);
        // Left behind: the vacated column 2 and the DSP column 6.
        assert_eq!(sequential.fragmentation[3].unwrap().free_columns, 2);
        let stats = sequential.stats;
        assert_eq!((stats.oversized_rejected, stats.oversized_admitted), (1, 1));
        assert_eq!((stats.repack_admitted, stats.repack_passes), (1, 1));
        assert_eq!((stats.repack_moves, stats.frames_moved), (1, 4));
        assert!(stats.consistent());
        assert_eq!(sequential.makespan, 5736);

        // The threaded path, at one and at four workers, ends in the
        // same leases, fragmentation, report, ledger and makespan.
        for workers in [1, 4] {
            let (soc, registry, tiles) = recipe_soc();
            let config = RuntimeConfig {
                workers: Some(workers),
                ..RuntimeConfig::default()
            };
            let mut threaded = ThreadedManager::spawn_with(soc, registry, config);
            threaded
                .enable_regions(FitPolicy::FirstFit, Some(1..12))
                .unwrap();
            let outcome = run_recipe(&mut threaded, &tiles);
            threaded.shutdown();
            assert_eq!(outcome, sequential, "{workers} workers");
        }
    }

    #[test]
    fn repack_without_regions_is_an_idle_pass() {
        let cfg = SocConfig::grid_3x3_reconf("defrag_idle", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let mgr = ThreadedManager::spawn(soc, BitstreamRegistry::new());
        assert_eq!(mgr.stats().repack_passes, 0);
        let report = mgr.repack_blocking().unwrap();
        assert_eq!(report, RepackReport::default());
        let stats = mgr.stats();
        assert_eq!(
            (stats.repack_passes, stats.repack_moves, stats.frames_moved),
            (1, 0, 0)
        );
        mgr.shutdown();
    }

    #[test]
    fn repacking_under_reconfiguration_load_stays_consistent() {
        let cfg = SocConfig::grid_3x3_reconf("defrag_load", 2).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tiles = cfg.reconfigurable_tiles();
        let mut registry = BitstreamRegistry::new();
        for &tile in &tiles {
            registry
                .register(tile, AcceleratorKind::Mac, bitstream(&soc, 1, 2))
                .unwrap();
            registry
                .register(tile, AcceleratorKind::Sort, bitstream(&soc, 2, 2))
                .unwrap();
        }
        let mgr = ThreadedManager::spawn(soc, registry);
        mgr.enable_regions(FitPolicy::FirstFit, None).unwrap();
        let swapper = {
            let mgr = mgr.clone();
            let tiles = tiles.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    let kind = if i % 2 == 0 {
                        AcceleratorKind::Mac
                    } else {
                        AcceleratorKind::Sort
                    };
                    for &t in &tiles {
                        let _ = mgr.reconfigure_blocking(t, kind);
                    }
                }
            })
        };
        for _ in 0..10 {
            mgr.repack_blocking().unwrap();
        }
        swapper.join().unwrap();
        assert_eq!(mgr.stats().repack_passes, 10);
        assert!(mgr.stats().consistent());
        mgr.shutdown();
    }

    // ---- model-checked protocol (CheckSync) ---------------------------

    fn boot_checked(mutants: MutantConfig) -> (ThreadedManager<CheckSync>, TileCoord) {
        let cfg = SocConfig::grid_3x3_reconf("defrag_model", 1).unwrap();
        let soc = Soc::new(&cfg).unwrap();
        let tile = cfg.reconfigurable_tiles()[0];
        let mut registry = BitstreamRegistry::new();
        registry
            .register(tile, AcceleratorKind::Mac, bitstream(&soc, 2, 1))
            .unwrap();
        let mgr = ThreadedManager::<CheckSync>::spawn_with(
            soc,
            registry,
            RuntimeConfig {
                mutants,
                ..RuntimeConfig::default()
            },
        );
        (mgr, tile)
    }

    fn mutant_checker() -> Checker {
        Checker::new(Config {
            max_schedules: 5_000,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
    }

    fn gate_inversion_model() {
        let (mgr, tile) = boot_checked(MutantConfig {
            defrag_gate_inversion: true,
            ..MutantConfig::default()
        });
        // A worker commits under gate → tile_state while the mutant pass
        // probes tile_state → gate on the same shard.
        let submitter = mgr.clone();
        let s = presp_check::sync::spawn_named("reconf_caller", move || {
            let _ = submitter.reconfigure_blocking(tile, AcceleratorKind::Mac);
        });
        let repacker = mgr.clone();
        let d = presp_check::sync::spawn_named("defrag_caller", move || {
            let _ = repacker.repack_blocking();
        });
        d.join().unwrap();
        s.join().unwrap();
        mgr.shutdown();
    }

    #[test]
    fn checker_catches_defrag_gate_inversion_mutant() {
        let report = mutant_checker().explore(gate_inversion_model);
        let failure = report
            .failure
            .expect("the defrag gate-inversion mutant must deadlock some schedule");
        assert!(
            matches!(failure.kind, FailureKind::Deadlock { .. }),
            "expected deadlock, got: {failure}"
        );
        let replay = mutant_checker().replay(&failure.schedule, gate_inversion_model);
        assert!(
            matches!(
                replay.failure.as_ref().map(|f| &f.kind),
                Some(FailureKind::Deadlock { .. })
            ),
            "replay must reproduce the deadlock: {replay}"
        );
    }

    #[test]
    fn clean_defrag_protocol_explores_without_findings() {
        // Repack pass + scheduler, mutants off: a quick bounded sweep
        // here; the 10k-schedule sweep lives in the workspace-level
        // model_check suite.
        let report = Checker::new(Config {
            max_schedules: 500,
            preemption_bound: Some(2),
            max_steps: 20_000,
        })
        .explore(|| {
            let (mgr, tile) = boot_checked(MutantConfig::default());
            mgr.enable_regions(FitPolicy::FirstFit, None).unwrap();
            let submitter = mgr.clone();
            let s = presp_check::sync::spawn_named("reconf_caller", move || {
                let _ = submitter.reconfigure_blocking(tile, AcceleratorKind::Mac);
            });
            let repacker = mgr.clone();
            let d = presp_check::sync::spawn_named("defrag_caller", move || {
                let _ = repacker.repack_blocking();
            });
            let _snapshot = mgr.stats();
            d.join().unwrap();
            s.join().unwrap();
            mgr.shutdown();
        });
        assert!(report.ok(), "{report}");
    }
}
