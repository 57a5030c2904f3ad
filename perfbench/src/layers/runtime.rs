//! `presp-runtime`: the threaded scheduler behind its default constructor,
//! and the sequential `ReconfigManager` inside a deployed WAMI app.

use crate::spans::Spans;
use presp_accel::{AccelOp, AccelValue, AcceleratorKind};
use presp_fpga::bitstream::Bitstream;
pub use presp_runtime::app::{FrameReport, WamiApp};
use presp_runtime::cache::CacheStats;
use presp_runtime::manager::ManagerStats;
use presp_runtime::registry::BitstreamRegistry;
use presp_runtime::scheduler::{Pending, SchedulerStats};
use presp_runtime::sync::StdSync;
use presp_runtime::threaded::ThreadedManager;
pub use presp_runtime::{Error, ExecPath};
use presp_soc::config::TileCoord;
use presp_soc::sim::{AccelRun, Soc};

pub type Manager = ThreadedManager;

/// One request a client submits.
#[derive(Debug, Clone)]
pub enum Request {
    Reconfigure {
        tile: TileCoord,
        kind: AcceleratorKind,
    },
    Execute {
        tile: TileCoord,
        kind: AcceleratorKind,
        op: AccelOp,
    },
}

/// A submitted request's answer handle.
pub enum Ticket {
    Reconfigure(Pending<StdSync, ()>),
    Execute(Pending<StdSync, (AccelRun, ExecPath)>),
}

/// A request's answer (moved once, from the reply to its check, so the
/// large value variant stays unboxed).
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    Reconfigured,
    Value(AccelValue, ExecPath),
}

/// Registry holding `bitstream` for every `(tile, kind)`.
pub fn registry(entries: Vec<(TileCoord, AcceleratorKind, Bitstream)>) -> BitstreamRegistry {
    let mut registry = BitstreamRegistry::new();
    for (tile, kind, bitstream) in entries {
        registry
            .register(tile, kind, bitstream)
            .expect("one bitstream per (tile, kind)");
    }
    registry
}

/// Boots the runtime with its default constructor — what a user of the
/// shipped defaults gets (worker count, cache capacity, policy).
pub fn boot(spans: &mut Spans, soc: Soc, registry: BitstreamRegistry) -> Manager {
    spans.time("runtime.boot", 0, |_| ThreadedManager::spawn(soc, registry))
}

pub fn shutdown(spans: &mut Spans, manager: &Manager) {
    spans.time("runtime.shutdown", 0, |_| manager.shutdown());
}

pub fn attach_sink(manager: &Manager, sink: &presp_events::ShardedSink) {
    manager.attach_sharded_tracer(sink);
}

pub fn submit(spans: &mut Spans, manager: &Manager, request: Request, id: u64) -> Ticket {
    spans.time("runtime.submit", id, |_| match request {
        Request::Reconfigure { tile, kind } => {
            Ticket::Reconfigure(manager.submit_reconfigure(tile, kind))
        }
        Request::Execute { tile, kind, op } => {
            Ticket::Execute(manager.submit_execute(tile, kind, op))
        }
    })
}

/// Blocks until the request is answered.
pub fn wait(spans: &mut Spans, ticket: Ticket, id: u64) -> Result<Answer, Error> {
    spans.time("runtime.wait", id, |_| match ticket {
        Ticket::Reconfigure(p) => p.wait().map(|()| Answer::Reconfigured),
        Ticket::Execute(p) => p.wait().map(|(run, path)| Answer::Value(run.value, path)),
    })
}

/// The counters the threaded runtime exposes.
#[derive(Debug, Clone)]
pub struct Counters {
    pub stats: ManagerStats,
    pub sched: SchedulerStats,
    pub cache: CacheStats,
}

pub fn counters(manager: &Manager) -> Counters {
    Counters {
        stats: manager.stats(),
        sched: manager.scheduler_stats(),
        cache: manager.cache_stats(),
    }
}

/// One frame through the deployed application.
pub fn process_frame(
    spans: &mut Spans,
    app: &mut WamiApp,
    raw: &presp_wami::BayerImage,
    id: u64,
) -> Result<FrameReport, Error> {
    spans.time("runtime.process_frame", id, |_| app.process_frame(raw))
}

/// A readback-scrub sweep of every configured region at the current
/// makespan (the Fig. 4 per-frame protection pass). Returns the sweep's
/// virtual cycles and the cycles it waited on the ICAP.
pub fn scrub_sweep(spans: &mut Spans, app: &mut WamiApp, id: u64) -> Result<(u64, u64), Error> {
    spans.time("runtime.scrub_sweep", id, |_| {
        let manager = app.manager_mut();
        let at = manager.makespan();
        let reports = manager.scrub_all_at(at)?;
        Ok(reports.iter().fold((0, 0), |(c, w), (_, s)| {
            (c + (s.end - s.start), w + s.waited)
        }))
    })
}

/// Times one reconfiguration request of the app's sequential manager per
/// `(tile, kind)`, in order, each issued at the current makespan.
pub fn reconfigure_probe(
    spans: &mut Spans,
    app: &mut WamiApp,
    pairs: &[(TileCoord, AcceleratorKind)],
) -> Result<(), Error> {
    for (i, &(tile, kind)) in pairs.iter().enumerate() {
        let manager = app.manager_mut();
        let at = manager.makespan();
        spans.time("runtime.reconfigure", i as u64, |_| {
            manager.request_reconfiguration_at(tile, kind, at)
        })?;
    }
    Ok(())
}

/// Counters of the sequential manager inside a deployed app.
pub fn app_counters(app: &WamiApp) -> (ManagerStats, CacheStats) {
    let manager = app.manager();
    (manager.stats(), manager.bitstream_cache_stats())
}

/// Total energy the app's SoC consumed so far, in joules.
pub fn app_energy_j(app: &WamiApp) -> f64 {
    app.manager().soc().energy_report().total_j()
}
