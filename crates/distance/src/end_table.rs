//! End tables: the distances of every wanted pair of prefixes of two inputs
//! from one run of a measure's dynamic program
//! ([`SequenceDistance::end_table`](crate::SequenceDistance::end_table)).

/// Which prefix pairs an [end table](crate::SequenceDistance::end_table) over
/// `(a, b)` holds, and where: one slot per `(i, j)` with
/// `min_a ≤ i ≤ a.len()` and `min_b ≤ j ≤ b.len()`, row-major in `i`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EndSpec {
    /// Shortest prefix of `a` that has a row.
    pub min_a: usize,
    /// Shortest prefix of `b` that has a column.
    pub min_b: usize,
    /// Slots with `|i − j|` above this are never computed; they hold `∞`.
    pub max_len_diff: usize,
}

impl EndSpec {
    /// Number of slots of the table over inputs of these lengths.
    ///
    /// # Panics
    /// When a minimum prefix length exceeds its input's length.
    pub fn slots(&self, a_len: usize, b_len: usize) -> usize {
        assert!(
            self.min_a <= a_len && self.min_b <= b_len,
            "minimum prefix lengths ({}, {}) exceed the inputs ({a_len}, {b_len})",
            self.min_a,
            self.min_b
        );
        (a_len + 1 - self.min_a) * (b_len + 1 - self.min_b)
    }

    /// Index of the slot of prefix lengths `(i, j)` in a table whose second
    /// input has length `b_len`.
    pub fn slot(&self, b_len: usize, i: usize, j: usize) -> usize {
        (i - self.min_a) * (b_len + 1 - self.min_b) + (j - self.min_b)
    }
}

/// Row sink of the built-in end tables: the dynamic programs hand it each
/// row as they finish it, and it keeps the wanted cells that are within the
/// threshold. Everything it is never handed — rows after an abandon, cells
/// outside a band — stays at the `∞` the table starts from.
pub(crate) struct EndSink<'o> {
    out: &'o mut [f64],
    ends: EndSpec,
    b_len: usize,
    tau: f64,
}

impl<'o> EndSink<'o> {
    /// Starts a table over inputs of lengths `a_len` and `b_len`, every slot
    /// at `∞`.
    pub(crate) fn new(
        out: &'o mut [f64],
        ends: EndSpec,
        a_len: usize,
        b_len: usize,
        tau: f64,
    ) -> Self {
        assert_eq!(out.len(), ends.slots(a_len, b_len), "end table size");
        out.fill(f64::INFINITY);
        EndSink {
            out,
            ends,
            b_len,
            tau,
        }
    }

    /// Takes row `i` (the prefix `a[..i]`), of which the program filled the
    /// columns `filled` (prefix lengths of `b`); `cell(j)` reads one. A NaN
    /// threshold keeps nothing, as `d ≤ NaN` never holds.
    #[inline]
    pub(crate) fn row(
        &mut self,
        i: usize,
        filled: std::ops::RangeInclusive<usize>,
        cell: impl Fn(usize) -> f64,
    ) {
        if i < self.ends.min_a {
            return;
        }
        let reach = self.ends.max_len_diff;
        let lo = (*filled.start())
            .max(self.ends.min_b)
            .max(i.saturating_sub(reach));
        let hi = (*filled.end()).min(i.saturating_add(reach));
        for j in lo..=hi {
            let value = cell(j);
            if value <= self.tau {
                self.out[self.ends.slot(self.b_len, i, j)] = value;
            }
        }
    }
}
