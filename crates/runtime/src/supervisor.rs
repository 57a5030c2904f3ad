//! Worker supervision: seeded software-fault plans and the counters the
//! watchdog publishes.
//!
//! PRs 1 and 4 harden the runtime against *fabric* misbehavior (ICAP
//! faults, SEUs); this module is the software-side analogue. A
//! [`WorkerFaultPlan`] decides, per admission ticket, whether the
//! claiming worker panics mid-prepare, parks in a hang before its commit
//! slot, or stalls like an overloaded host thread. The scheduler's
//! supervisor thread (see [`crate::scheduler`]) detects the resulting
//! dead or wedged tickets, returns the claimed-but-uncommitted job to
//! its tile queue under the *same* ticket, and respawns dead workers
//! within a bounded restart budget — so the commit-order gate stays
//! dense and the surviving workers' virtual-time outcomes are
//! byte-identical to a fault-free run (modulo the explicit
//! `sched.worker_died` / `sched.redispatch` trace records).
//!
//! Determinism contract: fault assignment is a pure function of
//! `(seed, ticket)`, with the `max_panics` / `max_hangs` budgets applied
//! in *ticket order* (not claim order, which is wall-clock dependent).
//! Re-deciding a ticket after its fault fired returns `None`, so a
//! redispatched job always makes progress on its second claim.

use presp_fpga::fault::SplitMix64;
use std::collections::BTreeMap;
// Not a protocol primitive: guards one-time installation of a global
// panic hook, immutable after init.
use std::sync::OnceLock; // presp-analyze: allow — init-once hook guard

/// Domain separator so a worker-fault plan seeded like a fabric fault
/// plan still draws an independent stream.
const WORKER_FAULT_SALT: u64 = 0x5EED_FA17_5EED_FA17;

/// One software fault injected at a worker's claim of one ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker panics mid-prepare, before touching any protocol lock;
    /// the claim guard heals the gate and the supervisor respawns it.
    Panic,
    /// The worker parks before its commit slot and stays wedged until
    /// the supervisor steals the claim (or shutdown releases it).
    Hang,
    /// The worker stalls for the given wall-clock microseconds during
    /// prepare — a slow host thread. The commit gate absorbs the delay;
    /// nothing needs healing.
    Stall {
        /// Stall length in microseconds.
        micros: u64,
    },
}

/// Rates and budgets of a seeded [`WorkerFaultPlan`]. All rates are
/// probabilities in `[0, 1]`; the default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerFaultConfig {
    /// Probability a ticket's claim panics mid-prepare.
    pub panic_rate: f64,
    /// Probability a ticket's claim hangs before its commit slot.
    pub hang_rate: f64,
    /// Probability a ticket's claim stalls during prepare.
    pub stall_rate: f64,
    /// Maximum stall, in microseconds (the draw is uniform in
    /// `[1, max]`; 0 disables stalls even when `stall_rate` is set).
    pub stall_max_micros: u64,
    /// At most this many tickets panic (applied in ticket order).
    pub max_panics: u64,
    /// At most this many tickets hang (applied in ticket order).
    pub max_hangs: u64,
}

/// Counters of faults a plan has actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedWorkerFaults {
    /// Worker panics fired.
    pub panics: u64,
    /// Worker hangs fired.
    pub hangs: u64,
    /// Worker stalls fired.
    pub stalls: u64,
}

/// A deterministic per-ticket software-fault schedule.
///
/// Built either from seeded rates ([`WorkerFaultPlan::seeded`]) or an
/// explicit script ([`WorkerFaultPlan::scripted`], used by the model
/// checker where every interleaving of one fixed fault is explored).
#[derive(Debug)]
pub struct WorkerFaultPlan {
    seed: u64,
    config: WorkerFaultConfig,
    /// Faults assigned and not yet fired, extended lazily in ticket
    /// order. A fault leaves the map when it fires, so a re-decide
    /// returns `None` and the redispatched claim proceeds.
    assigned: BTreeMap<u64, WorkerFault>,
    next_unassigned: u64,
    panics_assigned: u64,
    hangs_assigned: u64,
    injected: InjectedWorkerFaults,
}

impl WorkerFaultPlan {
    /// A plan drawing faults at the configured rates, keyed by `seed`.
    pub fn seeded(seed: u64, config: WorkerFaultConfig) -> WorkerFaultPlan {
        WorkerFaultPlan {
            seed,
            config,
            assigned: BTreeMap::new(),
            next_unassigned: 0,
            panics_assigned: 0,
            hangs_assigned: 0,
            injected: InjectedWorkerFaults::default(),
        }
    }

    /// A plan injecting exactly the listed `(ticket, fault)` pairs,
    /// ignoring rates and budgets. The default config draws nothing,
    /// so the script is the whole assignment.
    pub fn scripted(faults: &[(u64, WorkerFault)]) -> WorkerFaultPlan {
        let mut plan = WorkerFaultPlan::seeded(0, WorkerFaultConfig::default());
        plan.assigned = faults.iter().copied().collect();
        plan
    }

    /// The fault (if any) to fire for this claim of `ticket`. Fires at
    /// most once per ticket: the redispatched re-claim gets `None`.
    pub(crate) fn decide(&mut self, ticket: u64) -> Option<WorkerFault> {
        self.extend_to(ticket);
        let fault = self.assigned.remove(&ticket)?;
        match fault {
            WorkerFault::Panic => self.injected.panics += 1,
            WorkerFault::Hang => self.injected.hangs += 1,
            WorkerFault::Stall { .. } => self.injected.stalls += 1,
        }
        Some(fault)
    }

    /// Faults fired so far.
    pub(crate) fn injected(&self) -> InjectedWorkerFaults {
        self.injected
    }

    /// Assigns faults for every ticket up to and including `ticket`, in
    /// ticket order, so the panic/hang budgets never depend on the
    /// wall-clock order in which workers claim.
    fn extend_to(&mut self, ticket: u64) {
        while self.next_unassigned <= ticket {
            let t = self.next_unassigned;
            self.next_unassigned += 1;
            let Some(fault) = self.draw(t) else { continue };
            match fault {
                WorkerFault::Panic => {
                    if self.panics_assigned >= self.config.max_panics {
                        continue;
                    }
                    self.panics_assigned += 1;
                }
                WorkerFault::Hang => {
                    if self.hangs_assigned >= self.config.max_hangs {
                        continue;
                    }
                    self.hangs_assigned += 1;
                }
                WorkerFault::Stall { .. } => {}
            }
            self.assigned.insert(t, fault);
        }
    }

    /// The pure per-ticket draw, before budgets.
    fn draw(&self, ticket: u64) -> Option<WorkerFault> {
        let c = &self.config;
        let mut rng = SplitMix64::new(
            self.seed ^ WORKER_FAULT_SALT ^ ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let r = rng.next_f64();
        if r < c.panic_rate {
            Some(WorkerFault::Panic)
        } else if r < c.panic_rate + c.hang_rate {
            Some(WorkerFault::Hang)
        } else if r < c.panic_rate + c.hang_rate + c.stall_rate && c.stall_max_micros > 0 {
            Some(WorkerFault::Stall {
                micros: 1 + rng.below(c.stall_max_micros),
            })
        } else {
            None
        }
    }
}

/// Counters the supervisor publishes (see
/// [`crate::threaded::ThreadedManager::supervisor_stats`]): deaths,
/// respawns and redispatches observed, plus the injection counters of
/// the installed fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Workers that died (panicked) while holding a claim.
    pub worker_deaths: u64,
    /// Workers respawned out of the restart budget.
    pub worker_respawns: u64,
    /// Claims returned to their tile queue after their claimant died or
    /// wedged (same ticket, so commit order is preserved).
    pub redispatches: u64,
    /// Faults the installed [`WorkerFaultPlan`] has fired (all zero
    /// without a plan).
    pub injected: InjectedWorkerFaults,
}

/// Panic payload of an injected worker death; the quiet hook filters it
/// so 200-seed stress runs don't bury real failures in expected
/// backtraces.
pub(crate) struct InjectedWorkerPanic;

/// Installs (once) a panic hook that suppresses `InjectedWorkerPanic`
/// payloads and forwards everything else to the previous hook. Tests
/// that inject worker panics call this first.
pub fn install_quiet_panic_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedWorkerPanic>()
                .is_some()
            {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> WorkerFaultConfig {
        WorkerFaultConfig {
            panic_rate: 0.3,
            hang_rate: 0.3,
            stall_rate: 0.2,
            stall_max_micros: 50,
            max_panics: 3,
            max_hangs: 3,
        }
    }

    #[test]
    fn assignment_is_a_pure_function_of_seed_and_ticket() {
        let mut a = WorkerFaultPlan::seeded(7, crashy());
        let mut b = WorkerFaultPlan::seeded(7, crashy());
        // Claim order differs; assignments must not.
        let forward: Vec<_> = (0..64).map(|t| a.decide(t)).collect();
        let mut backward: Vec<_> = (0..64).rev().map(|t| b.decide(t)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn budgets_cap_in_ticket_order() {
        let mut plan = WorkerFaultPlan::seeded(11, crashy());
        let mut panics = 0;
        let mut hangs = 0;
        for t in 0..512 {
            match plan.decide(t) {
                Some(WorkerFault::Panic) => panics += 1,
                Some(WorkerFault::Hang) => hangs += 1,
                _ => {}
            }
        }
        assert!(panics <= 3 && hangs <= 3, "{panics} panics, {hangs} hangs");
        assert!(panics + hangs > 0, "rates this high must fire something");
    }

    #[test]
    fn a_fault_fires_once_per_ticket() {
        let mut plan = WorkerFaultPlan::scripted(&[(4, WorkerFault::Hang)]);
        assert_eq!(plan.decide(4), Some(WorkerFault::Hang));
        assert_eq!(plan.decide(4), None, "redispatched claim must proceed");
        assert_eq!(plan.decide(3), None);
        assert_eq!(plan.injected().hangs, 1);
    }

    #[test]
    fn zero_stall_bound_disables_stalls() {
        let mut plan = WorkerFaultPlan::seeded(
            3,
            WorkerFaultConfig {
                stall_rate: 1.0,
                stall_max_micros: 0,
                ..WorkerFaultConfig::default()
            },
        );
        assert!((0..32).all(|t| plan.decide(t).is_none()));
    }
}
