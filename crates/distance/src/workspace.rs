//! Reusable scratch buffers for the distance kernels.
//!
//! Every rolling-row dynamic program needs two rows of length `O(m)`. The
//! naive kernels allocated them on every call, which dominates the cost of
//! small window-vs-segment evaluations (the framework's hottest call site —
//! millions of calls per batch). [`DistanceWorkspace`] keeps one set of rows
//! per worker thread in a thread local, so the hot loop is allocation-free
//! after the first call on each thread: the batch engine's `ExecCtx` workers
//! (one query per worker) each warm their own workspace once and reuse it for
//! the rest of the batch.

use std::cell::Cell;

thread_local! {
    static WORKSPACE: Cell<Option<Box<DistanceWorkspace>>> = const { Cell::new(None) };
}

/// Per-thread scratch buffers shared by all distance kernels.
///
/// The buffers keep their capacity between calls; [`Self::f64_rows`] and
/// [`Self::u32_rows`] re-initialise length and contents, so a kernel never
/// observes another kernel's leftovers. The match-mask table is all zeros
/// between calls: the one kernel that writes it clears what it wrote.
#[derive(Debug)]
pub struct DistanceWorkspace {
    f64_a: Vec<f64>,
    f64_b: Vec<f64>,
    u32_a: Vec<u32>,
    u32_b: Vec<u32>,
    masks: [u64; 256],
}

impl Default for DistanceWorkspace {
    fn default() -> Self {
        DistanceWorkspace {
            f64_a: Vec::new(),
            f64_b: Vec::new(),
            u32_a: Vec::new(),
            u32_b: Vec::new(),
            masks: [0; 256],
        }
    }
}

impl DistanceWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        DistanceWorkspace::default()
    }

    /// Runs `f` with the current thread's workspace. A re-entrant call from
    /// within `f` (the kernels never nest) gets a fresh workspace.
    ///
    /// `#[inline]`, and the workspace taken out of the thread local and put
    /// back (one pointer each way) rather than borrowed inside
    /// `LocalKey::with`: both keep `f` — the kernel's dynamic program — in
    /// the kernel's own frame however the final crate is partitioned for code
    /// generation. Left out of line, `f` reloads its captured lengths and
    /// slices in the inner loop (Levenshtein: about a third slower).
    #[inline]
    pub fn with<R>(f: impl FnOnce(&mut DistanceWorkspace) -> R) -> R {
        let mut workspace = WORKSPACE.take().unwrap_or_default();
        let result = f(&mut workspace);
        WORKSPACE.set(Some(workspace));
        result
    }

    /// Two `f64` rows of length `len`, filled with `fill`.
    pub fn f64_rows(&mut self, len: usize, fill: f64) -> (&mut Vec<f64>, &mut Vec<f64>) {
        self.f64_a.clear();
        self.f64_a.resize(len, fill);
        self.f64_b.clear();
        self.f64_b.resize(len, fill);
        (&mut self.f64_a, &mut self.f64_b)
    }

    /// Two `u32` rows of length `len`, filled with `fill`.
    pub fn u32_rows(&mut self, len: usize, fill: u32) -> (&mut Vec<u32>, &mut Vec<u32>) {
        self.u32_a.clear();
        self.u32_a.resize(len, fill);
        self.u32_b.clear();
        self.u32_b.resize(len, fill);
        (&mut self.u32_a, &mut self.u32_b)
    }

    /// A 256-entry table of bit masks, one per
    /// [`small_code`](ssr_sequence::Element::small_code), all zeros on
    /// entry; the caller must leave it all zeros again.
    pub(crate) fn masks(&mut self) -> &mut [u64; 256] {
        &mut self.masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_reinitialised_between_uses() {
        DistanceWorkspace::with(|ws| {
            let (a, b) = ws.f64_rows(4, 1.5);
            a[0] = 9.0;
            b[3] = -2.0;
            assert_eq!(a.len(), 4);
        });
        DistanceWorkspace::with(|ws| {
            let (a, b) = ws.f64_rows(6, 0.0);
            assert!(a.iter().chain(b.iter()).all(|&v| v == 0.0));
            assert_eq!(a.len(), 6);
            assert_eq!(b.len(), 6);
        });
        DistanceWorkspace::with(|ws| {
            let (a, b) = ws.u32_rows(3, 7);
            assert_eq!(a, &vec![7, 7, 7]);
            assert_eq!(b, &vec![7, 7, 7]);
        });
    }
}
