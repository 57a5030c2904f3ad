//! The multi-core host machine running CAD instances.
//!
//! The paper's characterization host is a 16-core Intel Core-i7 at 3.6 GHz
//! with 64 GB of DRAM. Vivado's P&R "uses a limited number of the cores"
//! (the paper cites RapidStream on this), so a few concurrent instances run
//! essentially unimpeded and contention sets in gradually — memory
//! bandwidth first, cores later.

use crate::model::Minutes;

/// Cores a single CAD instance grabs while running (Vivado's default
/// `maxThreads` era behaviour: a handful of threads spinning even when the
/// P&R algorithms are serial).
const CORES_PER_INSTANCE: usize = 8;

/// Cores of the characterization host.
const HOST_CORES: usize = 16;

/// Instances the host runs at full speed.
const FREE_SLOTS: usize = HOST_CORES / CORES_PER_INSTANCE;

/// Slowdown factor experienced by each of `k` concurrent instances.
///
/// Up to [`FREE_SLOTS`] instances run at full speed; each further
/// instance adds a mild memory/CPU contention penalty.
fn slowdown(k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k <= FREE_SLOTS {
        // Even co-resident instances share memory bandwidth a little.
        1.0 + 0.035 * (k.saturating_sub(1)) as f64
    } else {
        let base = 1.0 + 0.035 * (FREE_SLOTS - 1) as f64;
        base + 0.07 * (k - FREE_SLOTS) as f64
    }
}

/// Wall-clock minutes of launching `jobs` concurrently on the host, under
/// processor sharing: while `k` jobs are alive, each progresses at
/// `1 / slowdown(k)`; as short jobs drain, the survivors speed back up.
pub(crate) fn concurrent_wall(jobs: &[Minutes]) -> Minutes {
    let mut remaining: Vec<f64> = jobs.iter().map(|m| m.0.max(0.0)).collect();
    remaining.sort_by(|a, b| a.partial_cmp(b).expect("finite minutes"));
    let mut wall = 0.0;
    let mut done = 0.0;
    for (i, &r) in remaining.iter().enumerate() {
        let alive = remaining.len() - i;
        // Work left in this job beyond what already completed jobs did.
        let slice = r - done;
        if slice > 0.0 {
            wall += slice * slowdown(alive);
            done = r;
        }
    }
    Minutes(wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_instances_run_nearly_free() {
        assert!((slowdown(1) - 1.0).abs() < 1e-12);
        assert!(slowdown(2) < 1.1);
        assert!(slowdown(4) < 1.25);
    }

    #[test]
    fn contention_is_monotone() {
        for k in 1..20 {
            assert!(slowdown(k + 1) >= slowdown(k), "k = {k}");
        }
    }

    #[test]
    fn oversubscription_costs_visibly() {
        assert!(slowdown(16) > 1.5);
        assert!(slowdown(16) < 3.0);
    }

    #[test]
    fn concurrent_wall_is_between_max_and_fully_contended_max() {
        let jobs = vec![Minutes(10.0), Minutes(30.0), Minutes(20.0)];
        let wall = concurrent_wall(&jobs);
        assert!(wall.0 >= 30.0);
        assert!(wall.0 <= 30.0 * slowdown(3) + 1e-9);
    }

    #[test]
    fn short_jobs_barely_delay_a_long_job() {
        // Sixteen 4-minute jobs next to one 40-minute job: the long job runs
        // mostly alone after the burst drains.
        let mut jobs = vec![Minutes(4.0); 16];
        jobs.push(Minutes(40.0));
        let wall = concurrent_wall(&jobs);
        assert!(wall.0 < 50.0, "wall = {wall}");
        assert!(wall.0 > 40.0);
    }

    #[test]
    fn equal_jobs_pay_full_contention() {
        let jobs = vec![Minutes(10.0); 5];
        let wall = concurrent_wall(&jobs);
        assert!((wall.0 - 10.0 * slowdown(5)).abs() < 1e-9);
    }

    #[test]
    fn empty_job_list_takes_no_time() {
        assert_eq!(concurrent_wall(&[]), Minutes(0.0));
    }
}
