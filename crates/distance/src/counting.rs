//! Distance-call accounting.
//!
//! The paper's query-performance figures (8–11) report the **percentage of
//! distance computations** an index performs relative to the naive linear
//! scan. [`CallCounter`] is a cheap, cloneable counter shared between the
//! benchmark harness and whatever component evaluates distances (the index
//! layer's `CountingMetric` is the one charging point).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Monotone per-thread tally of distance evaluations recorded by *any*
    /// [`CallCounter`] on the current thread (see [`CallCounter::thread_total`]).
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };

    /// Monotone per-thread tally of dynamic-program cells evaluated by the
    /// distance kernels (see [`dp_cells_thread_total`]).
    static THREAD_DP_CELLS: Cell<u64> = const { Cell::new(0) };

    /// Monotone per-thread tally of distance evaluations resolved by a cheap
    /// lower bound alone (see [`lower_bound_prunes_thread_total`]).
    static THREAD_LB_PRUNES: Cell<u64> = const { Cell::new(0) };
}

/// `true` when `value` does **not** satisfy `value ≤ tau`: either it exceeds
/// the threshold or the comparison is undefined (NaN threshold). The kernels
/// prune on this predicate so that a NaN `tau` — for which `d ≤ tau` can
/// never hold — yields `None` rather than a bogus acceptance.
#[inline]
pub(crate) fn exceeds(value: f64, tau: f64) -> bool {
    !matches!(
        value.partial_cmp(&tau),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    )
}

/// Records `n` dynamic-program cell evaluations on the current thread's tally.
///
/// A cell counts when the program determined its value: the recurrence
/// cells a row-by-row kernel filled (elements processed, for the lockstep
/// distances), and `m` for each word step of Levenshtein's bit-vector
/// program over an `m`-element pattern — one step determines a whole column
/// of the table, band or not. A full program therefore counts `n·m` either
/// way. The distance kernels call this once per evaluation, so
/// `dp_cells_evaluated` statistics are deterministic
/// and bit-reproducible at every thread count when read as before/after
/// deltas of [`dp_cells_thread_total`] — the same attribution scheme as
/// [`CallCounter::thread_total`].
pub fn record_dp_cells(n: u64) {
    THREAD_DP_CELLS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Monotone tally of DP cells evaluated by distance kernels on the **current
/// thread**, ever. Read before/after a block of work to attribute cells to it
/// exactly (see [`record_dp_cells`]).
pub fn dp_cells_thread_total() -> u64 {
    THREAD_DP_CELLS.with(|c| c.get())
}

/// Records one distance evaluation that was resolved by a cheap lower bound
/// (or an equal-length requirement) without running the dynamic program.
pub fn record_lower_bound_prune() {
    THREAD_LB_PRUNES.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Monotone per-thread tally of lower-bound prunes (see
/// [`record_lower_bound_prune`]).
pub fn lower_bound_prunes_thread_total() -> u64 {
    THREAD_LB_PRUNES.with(|c| c.get())
}

/// A shared counter of dynamic-program cells, mirroring [`CallCounter`] for
/// the cell tallies: cloning yields a handle to the same underlying count.
///
/// Unlike [`record_dp_cells`] it has no thread-local component — it is an
/// aggregate sink the index layer's `CountingMetric` feeds with per-call
/// deltas, so a database can report how many cells its index spent overall
/// (e.g. during the build) alongside its distance-call count.
#[derive(Clone, Debug, Default)]
pub struct CellCounter {
    count: Arc<AtomicU64>,
}

impl CellCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        CellCounter::default()
    }

    /// Adds `n` cells.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.count.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current number of recorded cells.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

/// A shared counter of distance evaluations.
///
/// Cloning the counter yields a handle to the *same* underlying count, so the
/// harness can keep one handle while the index owns another.
#[derive(Clone, Debug, Default)]
pub struct CallCounter {
    count: Arc<AtomicU64>,
}

impl CallCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        CallCounter::default()
    }

    /// Records one distance evaluation.
    pub fn record(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
        THREAD_CALLS.with(|c| c.set(c.get().wrapping_add(1)));
    }

    /// Monotone tally of the distance evaluations recorded by *any* counter on
    /// the **current thread**, ever. Reading it before and after a block of
    /// work attributes distance calls to that block exactly, even while other
    /// threads drive the same shared counters concurrently — the shared
    /// [`CallCounter::get`] delta would interleave their work. The parallel
    /// batch engine relies on this for bit-identical per-query statistics at
    /// any thread count.
    pub fn thread_total() -> u64 {
        THREAD_CALLS.with(|c| c.get())
    }

    /// Current number of recorded evaluations.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_across_clones() {
        let c = CallCounter::new();
        let c2 = c.clone();
        c.record();
        c2.record();
        assert_eq!(c.get(), 2);
        assert_eq!(c2.get(), 2);
        assert_eq!(c.reset(), 2);
        assert_eq!(c2.get(), 0);
    }

    #[test]
    fn counter_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CallCounter>();
        assert_send_sync::<CellCounter>();
    }
}
