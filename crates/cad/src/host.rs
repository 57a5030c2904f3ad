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
pub(crate) const CORES_PER_INSTANCE: usize = 8;

/// A host machine with a fixed core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HostMachine {
    cores: usize,
}

impl Default for HostMachine {
    fn default() -> HostMachine {
        HostMachine { cores: 16 }
    }
}

impl HostMachine {
    /// Slowdown factor experienced by each of `k` concurrent instances.
    ///
    /// Up to `cores / CORES_PER_INSTANCE` instances run at full speed; each
    /// further instance adds a mild memory/CPU contention penalty.
    pub(crate) fn slowdown(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let free_slots = (self.cores / CORES_PER_INSTANCE).max(1);
        if k <= free_slots {
            // Even co-resident instances share memory bandwidth a little.
            1.0 + 0.035 * (k.saturating_sub(1)) as f64
        } else {
            let base = 1.0 + 0.035 * (free_slots - 1) as f64;
            base + 0.07 * (k - free_slots) as f64
        }
    }

    /// Wall-clock minutes of launching `jobs` concurrently, under
    /// processor sharing: while `k` jobs are alive, each progresses at
    /// `1 / slowdown(k)`; as short jobs drain, the survivors speed back up.
    pub(crate) fn concurrent_wall(&self, jobs: &[Minutes]) -> Minutes {
        let mut remaining: Vec<f64> = jobs.iter().map(|m| m.0.max(0.0)).collect();
        remaining.sort_by(|a, b| a.partial_cmp(b).expect("finite minutes"));
        let mut wall = 0.0;
        let mut done = 0.0;
        for (i, &r) in remaining.iter().enumerate() {
            let alive = remaining.len() - i;
            // Work left in this job beyond what already completed jobs did.
            let slice = r - done;
            if slice > 0.0 {
                wall += slice * self.slowdown(alive);
                done = r;
            }
        }
        Minutes(wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_instances_run_nearly_free() {
        let host = HostMachine::default();
        assert!((host.slowdown(1) - 1.0).abs() < 1e-12);
        assert!(host.slowdown(2) < 1.1);
        assert!(host.slowdown(4) < 1.25);
    }

    #[test]
    fn contention_is_monotone() {
        let host = HostMachine::default();
        for k in 1..20 {
            assert!(host.slowdown(k + 1) >= host.slowdown(k), "k = {k}");
        }
    }

    #[test]
    fn oversubscription_costs_visibly() {
        let host = HostMachine::default();
        assert!(host.slowdown(16) > 1.5);
        assert!(host.slowdown(16) < 3.0);
    }

    #[test]
    fn smaller_hosts_contend_sooner() {
        let small = HostMachine { cores: 4 };
        let big = HostMachine { cores: 32 };
        assert!(small.slowdown(4) > big.slowdown(4));
    }

    #[test]
    fn concurrent_wall_is_between_max_and_fully_contended_max() {
        let host = HostMachine::default();
        let jobs = vec![Minutes(10.0), Minutes(30.0), Minutes(20.0)];
        let wall = host.concurrent_wall(&jobs);
        assert!(wall.0 >= 30.0);
        assert!(wall.0 <= 30.0 * host.slowdown(3) + 1e-9);
    }

    #[test]
    fn short_jobs_barely_delay_a_long_job() {
        // Sixteen 4-minute jobs next to one 40-minute job: the long job runs
        // mostly alone after the burst drains.
        let host = HostMachine::default();
        let mut jobs = vec![Minutes(4.0); 16];
        jobs.push(Minutes(40.0));
        let wall = host.concurrent_wall(&jobs);
        assert!(wall.0 < 50.0, "wall = {wall}");
        assert!(wall.0 > 40.0);
    }

    #[test]
    fn equal_jobs_pay_full_contention() {
        let host = HostMachine::default();
        let jobs = vec![Minutes(10.0); 5];
        let wall = host.concurrent_wall(&jobs);
        assert!((wall.0 - 10.0 * host.slowdown(5)).abs() < 1e-9);
    }

    #[test]
    fn empty_job_list_takes_no_time() {
        let host = HostMachine::default();
        assert_eq!(host.concurrent_wall(&[]), Minutes::ZERO);
    }
}
