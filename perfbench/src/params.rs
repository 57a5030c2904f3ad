//! Recorded workload parameters and reference values.

/// Reconfigurable tiles of the serving SoC.
pub const TILES: usize = 64;
/// Load-generating threads: one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;

/// The serving workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Serve {
    /// Frames per partial bitstream.
    pub frames_per_bitstream: usize,
    /// Outstanding requests each client keeps in the closed loop.
    pub window: usize,
    /// Closed-loop rounds; `throughput_per_s` and `latency_p50_ms` are
    /// medians over them.
    pub rounds: usize,
    /// Open-loop send rate: about a fifth of the closed-loop rate measured
    /// on the 2-core reference host when the benchmark was defined, so the
    /// open loop measures latency, not queueing, even while the shared
    /// host runs slow.
    pub open_rate_per_s: f64,
    /// Requests sent together at each open-loop due time.
    pub open_burst: usize,
    /// Send-time windows of the open loop; each open-loop latency figure
    /// is the median of the windows' percentiles.
    pub open_windows: usize,
    /// Set-up passes per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

pub const SERVE_CHURN: Serve = Serve {
    frames_per_bitstream: 32,
    window: 2,
    rounds: 30,
    open_rate_per_s: 300.0,
    open_burst: 3,
    open_windows: 12,
    setup_repeats: 5,
};

/// Fig. 4 setting: 64×64 frames, two Lucas-Kanade iterations.
pub const FRAME_SIZE: usize = 64;
pub const LK_ITERATIONS: usize = 2;
/// Steady frames a `paper_eval` run measures at least (over X, Y and Z).
pub const MIN_STEADY_FRAMES: usize = 102;
/// Frame rounds (one frame through each of X, Y and Z) per deployment
/// segment of `paper_eval`.
pub const ROUNDS_PER_SEGMENT: usize = 3;
/// Table regenerations a `paper_eval` run measures at least.
pub const MIN_TABLE_PASSES: usize = 3;
/// `paper_eval` set-up passes (flows, deploys, training frames) per run.
pub const PAPER_SETUP_REPEATS: usize = 3;

/// Digest of `experiments::fig4(6, 64, 2)`'s simulated outputs (ms/frame,
/// mJ/frame, reconfigurations/frame, changed pixels per SoC); every
/// `paper_eval` run replays that recipe and must reproduce it.
pub const FIG4_DIGEST: &str = "31c240eb724556e2";
