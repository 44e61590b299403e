//! Work/depth (PRAM round) accounting.
//!
//! The paper states its guarantees in the classic work/depth model (§1): the *work*
//! of an algorithm is the total number of elementary operations, and the *depth* is
//! the longest chain of sequentially dependent operations.  With `p` processors an
//! algorithm with work `W` and depth `D` runs in `O(W/p + D)` time (Brent's theorem).
//!
//! Wall-clock time on a particular machine conflates both quantities (and constant
//! factors of the runtime), so the reproduction tracks `W` and `D` explicitly:
//! every parallel phase of the algorithm calls [`CostTracker::round`] once (that
//! phase contributes `O(1)` — or `O(log N)`, see [`CostTracker::rounds`] — to the
//! depth), and elementary operations call [`CostTracker::work`].
//!
//! The counters are atomics so that work performed inside rayon tasks can be
//! accounted for without synchronisation bottlenecks; the depth counter is only
//! bumped from the coordinating thread (one bump per parallel phase), matching the
//! structure of the algorithm where phases are globally synchronised.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of the work/depth counters at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// Total number of elementary operations counted so far.
    pub work: u64,
    /// Total number of parallel rounds (unit-depth phases) counted so far.
    pub depth: u64,
}

impl CostSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    #[must_use]
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
        }
    }
}

/// Accumulates work and depth counters for one algorithm instance.
///
/// The tracker is cheap enough to leave enabled in release builds: the work counter
/// is bumped in batches (callers count a whole slice worth of operations with a
/// single atomic add), and the depth counter is bumped once per parallel phase.
/// Both totals saturate at `u64::MAX` instead of wrapping (a restored engine state
/// can start them anywhere).
#[derive(Debug, Default)]
pub struct CostTracker {
    work: AtomicU64,
    depth: AtomicU64,
}

impl CostTracker {
    /// Creates a tracker with both counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `amount` units of work.
    #[inline]
    pub fn work(&self, amount: u64) {
        if amount > 0 {
            saturating_add(&self.work, amount);
        }
    }

    /// Records one parallel round (one unit of depth).
    #[inline]
    pub fn round(&self) {
        saturating_add(&self.depth, 1);
    }

    /// Records `amount` parallel rounds at once.
    ///
    /// Used for sub-procedures whose internal depth is a known function of the input
    /// size (for example a batch dictionary operation contributes `O(log N)` depth).
    #[inline]
    pub fn rounds(&self, amount: u64) {
        if amount > 0 {
            saturating_add(&self.depth, amount);
        }
    }

    /// Returns the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            work: self.work.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
        }
    }

    /// Total work recorded so far.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Total depth (rounds) recorded so far.
    #[must_use]
    pub fn total_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

/// Adds `amount` to `counter`, saturating at `u64::MAX`: one atomic add, and a
/// store only when the add wrapped.  A concurrent add that lands between the
/// two only adds to the wrapped value, which the store then overwrites.
#[inline]
fn saturating_add(counter: &AtomicU64, amount: u64) {
    let before = counter.fetch_add(amount, Ordering::Relaxed);
    if before.checked_add(amount).is_none() {
        counter.store(u64::MAX, Ordering::Relaxed);
    }
}

impl Clone for CostTracker {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        CostTracker {
            work: AtomicU64::new(snap.work),
            depth: AtomicU64::new(snap.depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let t = CostTracker::new();
        assert_eq!(t.snapshot(), CostSnapshot { work: 0, depth: 0 });
    }

    #[test]
    fn work_accumulates() {
        let t = CostTracker::new();
        t.work(3);
        t.work(0);
        t.work(7);
        assert_eq!(t.total_work(), 10);
        assert_eq!(t.total_depth(), 0);
    }

    #[test]
    fn rounds_accumulate() {
        let t = CostTracker::new();
        t.round();
        t.rounds(4);
        t.rounds(0);
        assert_eq!(t.total_depth(), 5);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let t = CostTracker::new();
        t.work(5);
        t.round();
        let a = t.snapshot();
        t.work(2);
        t.round();
        t.round();
        let b = t.snapshot();
        let d = b.since(&a);
        assert_eq!(d.work, 2);
        assert_eq!(d.depth, 2);
    }

    #[test]
    fn clone_preserves_counts() {
        let t = CostTracker::new();
        t.work(4);
        t.rounds(2);
        let c = t.clone();
        assert_eq!(c.total_work(), 4);
        assert_eq!(c.total_depth(), 2);
    }

    #[test]
    fn concurrent_work_is_summed() {
        use rayon::prelude::*;
        let t = CostTracker::new();
        (0..1000u64).into_par_iter().for_each(|_| t.work(1));
        assert_eq!(t.total_work(), 1000);
    }
}
