//! Deterministic fault injection for the sweep engine.
//!
//! A service-scale sweep (10⁴–10⁶ cells) *will* meet the occasional
//! configuration that panics or hangs the simulator. Those failures are rare
//! enough in the wild that untested recovery code is broken recovery code —
//! so this module makes them injectable on purpose: a [`FaultPlan`] names the
//! jobs the `bebop-bench` sweep engine must poison with a panic or stall
//! without progress, so its quarantine and watchdog paths run in tests.

use std::collections::BTreeSet;

/// A reproducible schedule of injected job faults: the sweep engine consults
/// it per job to poison specific cells with a panic or a stall.
///
/// # Example
///
/// ```
/// use bebop_trace::FaultPlan;
///
/// let plan = FaultPlan::default()
///     .with_panic_job(3) // job index 3 panics
///     .with_stall_job(5); // job index 5 stalls
/// assert!(plan.should_panic(3));
/// assert!(!plan.should_panic(2));
/// assert!(plan.should_stall(5));
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_jobs: BTreeSet<u64>,
    stall_jobs: BTreeSet<u64>,
}

impl FaultPlan {
    /// Marks job `index` as poisoned: the sweep engine panics inside that
    /// job's isolation boundary, which must quarantine the cell rather than
    /// abort the sweep.
    pub fn with_panic_job(mut self, index: u64) -> Self {
        self.panic_jobs.insert(index);
        self
    }

    /// Marks job `index` as stalled: the sweep engine spins that job without
    /// making progress, which must trip the watchdog and quarantine the cell
    /// as timed out rather than hang the sweep.
    pub fn with_stall_job(mut self, index: u64) -> Self {
        self.stall_jobs.insert(index);
        self
    }

    /// Whether job `index` is poisoned (see [`FaultPlan::with_panic_job`]).
    pub fn should_panic(&self, index: u64) -> bool {
        self.panic_jobs.contains(&index)
    }

    /// Whether job `index` is stalled (see [`FaultPlan::with_stall_job`]).
    pub fn should_stall(&self, index: u64) -> bool {
        self.stall_jobs.contains(&index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_jobs_are_exact_indices() {
        let plan = FaultPlan::default().with_panic_job(2).with_panic_job(7);
        let poisoned: Vec<u64> = (0..10).filter(|&j| plan.should_panic(j)).collect();
        assert_eq!(poisoned, vec![2, 7]);
    }

    #[test]
    fn stall_jobs_are_exact_indices() {
        let plan = FaultPlan::default().with_stall_job(4).with_panic_job(1);
        let stalled: Vec<u64> = (0..10).filter(|&j| plan.should_stall(j)).collect();
        assert_eq!(stalled, vec![4]);
        assert!(
            !plan.should_panic(4),
            "stall and panic sets are independent"
        );
    }
}
