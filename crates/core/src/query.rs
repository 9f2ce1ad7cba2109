//! Query execution: Type I (range), Type II (longest) and Type III (nearest).

use std::ops::Range;
use std::time::Instant;

use ssr_distance::{EndSpec, SequenceDistance};
use ssr_sequence::{Element, Sequence, SequenceId};

use crate::candidates::{build_candidates, Candidate, SegmentMatch};
use crate::database::SubsequenceDatabase;
use crate::expand::{pairs_within, ExpansionLimits};

/// A verified pair of similar subsequences.
#[derive(Clone, PartialEq, Debug)]
pub struct SubsequenceMatch {
    /// The database sequence containing the matched subsequence.
    pub sequence: SequenceId,
    /// Half-open element range of the database subsequence `SX`.
    pub db_range: Range<usize>,
    /// Half-open element range of the query subsequence `SQ`.
    pub query_range: Range<usize>,
    /// Verified distance `δ(SQ, SX)`.
    pub distance: f64,
}

impl SubsequenceMatch {
    /// Length of the database subsequence.
    pub fn db_len(&self) -> usize {
        self.db_range.end - self.db_range.start
    }

    /// Length of the query subsequence.
    pub fn query_len(&self) -> usize {
        self.query_range.end - self.query_range.start
    }
}

/// Accounting of the work a query performed, mirroring the quantities the
/// paper's evaluation reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueryStats {
    /// Number of query segments extracted (step 3).
    pub segments: usize,
    /// Distance evaluations performed inside the index (step 4). The index
    /// is probed per *family* — the segments that start at one query offset
    /// — so one evaluation is one visit of an index node for one family: a
    /// single end table that answers every segment of the family, or no
    /// program at all when a lower bound excludes them all.
    pub index_distance_calls: u64,
    /// Number of (segment, window) pairs returned by the range queries.
    pub segment_matches: usize,
    /// Number of distinct windows matched by at least one segment.
    pub unique_windows: usize,
    /// Number of windows that are part of a chain of length at least two.
    pub consecutive_windows: usize,
    /// Number of chained candidates generated (step 5).
    pub candidates: usize,
    /// Distance evaluations spent verifying candidate subsequence pairs.
    pub verification_calls: u64,
    /// Dynamic-program cells evaluated by the distance kernels across the
    /// whole query (index filtering **and** verification). Deterministic and
    /// bit-identical at every thread count, like the call counts: pruning
    /// (lower bounds, banded DP, early abandoning) shrinks this number while
    /// `index_distance_calls` / `verification_calls` stay exactly the same.
    pub dp_cells_evaluated: u64,
    /// Distance evaluations resolved by a cheap lower bound alone, without
    /// running any dynamic program: in step 4 one per family visit whose
    /// segments are *all* bounded out, in step 5b one per candidate pair.
    pub pruned_by_lower_bound: u64,
    /// Whether the verification budget (`max_verifications`) was exhausted.
    pub budget_exhausted: bool,
}

impl QueryStats {
    /// Accumulates another query's accounting into this one (used by the
    /// batch engine to report whole-batch totals).
    pub fn merge(&mut self, other: &QueryStats) {
        self.segments += other.segments;
        self.index_distance_calls += other.index_distance_calls;
        self.segment_matches += other.segment_matches;
        self.unique_windows += other.unique_windows;
        self.consecutive_windows += other.consecutive_windows;
        self.candidates += other.candidates;
        self.verification_calls += other.verification_calls;
        self.dp_cells_evaluated += other.dp_cells_evaluated;
        self.pruned_by_lower_bound += other.pruned_by_lower_bound;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

/// The result of a query together with its work accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct QueryOutcome<R> {
    /// The query's result.
    pub result: R,
    /// Work performed to produce it.
    pub stats: QueryStats,
}

/// Wall-clock nanoseconds spent in each stage of the five-step pipeline,
/// mirroring how the batch engine fans the stages out: query segmentation
/// (step 3), index filtering (step 4), candidate chaining (step 5a) and
/// expansion + verification (step 5b). Steps 1–2 are build-time and reported
/// separately by [`SubsequenceDatabase::build_distance_calls`].
///
/// [`SubsequenceDatabase::build_distance_calls`]: crate::SubsequenceDatabase::build_distance_calls
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StageTimings {
    /// Query segmentation (step 3).
    pub segment_ns: u64,
    /// Index range queries over the windows (step 4).
    pub filter_ns: u64,
    /// Candidate chaining (step 5a).
    pub chain_ns: u64,
    /// Expansion and verification (step 5b).
    pub verify_ns: u64,
}

impl StageTimings {
    /// Sum of all stage times.
    pub fn total_ns(&self) -> u64 {
        self.segment_ns + self.filter_ns + self.chain_ns + self.verify_ns
    }

    /// Accumulates another measurement into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        self.segment_ns += other.segment_ns;
        self.filter_ns += other.filter_ns;
        self.chain_ns += other.chain_ns;
        self.verify_ns += other.verify_ns;
    }
}

/// Per-query execution context threaded through the query internals: stage
/// timing accumulators plus an optional span trace. The plain
/// [`SubsequenceDatabase::query_type1`]-style entry points run with the
/// default context (timings discarded, no trace).
#[derive(Default)]
pub(crate) struct ExecCtx {
    /// Per-stage wall-clock accumulated so far.
    pub timings: StageTimings,
    /// Span trace of this query, when the engine runs with tracing (the
    /// slow-query log). `None` on the hot default path — every recording
    /// site is a single `Option` check then.
    pub trace: Option<ssr_obs::TraceBuf>,
}

impl ExecCtx {
    /// Attaches a span trace with the given (deterministic) trace id.
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace = Some(ssr_obs::TraceBuf::new(trace_id));
        self
    }

    /// Records a completed stage span when tracing is active.
    pub fn span(&mut self, name: &'static str, dur_ns: u64) {
        if let Some(trace) = self.trace.as_mut() {
            trace.record(name, dur_ns);
        }
    }

    /// Opens a nesting span when tracing is active; close with
    /// [`Self::span_end`]. Returns `usize::MAX` (ignored by `span_end`)
    /// when tracing is off.
    pub fn span_begin(&mut self, name: &'static str) -> usize {
        match self.trace.as_mut() {
            Some(trace) => trace.begin(name),
            None => usize::MAX,
        }
    }

    /// Closes a span opened by [`Self::span_begin`].
    pub fn span_end(&mut self, token: usize) {
        if let Some(trace) = self.trace.as_mut() {
            if token != usize::MAX {
                trace.end(token);
            }
        }
    }
}

/// Step 5b over one candidate list: verifies each expanded pair at most once
/// against the radius `epsilon`, charging `max_verifications`, and accounts
/// the stage's time, cells and prunes when finished. The expansion grids of
/// overlapping candidates repeat pairs; `seen` makes sure each is verified
/// (and charged) only once.
///
/// A pair's distance is not computed pair by pair. All pairs of a candidate
/// that start at the same `(qs, xs)` are prefixes of one another's inputs, so
/// one [`SequenceDistance::end_table`] from that start — run when the first
/// of them gets past the lower bounds — holds the distance of every one, and
/// the rest are reads.
struct Verifier<'a, E: Element, D: SequenceDistance<E>> {
    db: &'a SubsequenceDatabase<E, D>,
    query: &'a Sequence<E>,
    /// Prefix gap sums of the query, when the distance can exploit them.
    query_gap: Option<crate::database::GapPrefix>,
    epsilon: f64,
    seen: std::collections::HashSet<(SequenceId, usize, usize, usize, usize)>,
    budget: u64,
    calls: u64,
    /// Set once a new pair arrived with no budget left to verify it.
    exhausted: bool,
    started: Instant,
    cells_before: u64,
    prunes_before: u64,
    /// The candidate being expanded ([`Self::expand`]): its sequence, its
    /// limits and its end tables, which are dropped at the next candidate.
    sequence: SequenceId,
    db_elements: &'a [E],
    limits: ExpansionLimits,
    /// Where in `tables` the table of each start pair begins, row-major over
    /// `limits.query_start × limits.db_start`; [`NO_TABLE`] until computed.
    table_of_start: Vec<usize>,
    /// The tables computed for this candidate, back to back. Each has one
    /// slot per `limits.query_end × limits.db_end` end pair.
    tables: Vec<f64>,
}

/// [`Verifier::table_of_start`] of a start pair nothing has asked about yet.
const NO_TABLE: usize = usize::MAX;

impl<'a, E: Element + Send + Sync, D: SequenceDistance<E>> Verifier<'a, E, D> {
    fn start(db: &'a SubsequenceDatabase<E, D>, query: &'a Sequence<E>, epsilon: f64) -> Self {
        Verifier {
            db,
            query,
            // Computed once per pass, reused across every candidate pair;
            // the database-side tables were built at index time.
            query_gap: db
                .gap_prefixes
                .as_ref()
                .map(|_| crate::database::GapPrefix::build(query.elements())),
            epsilon,
            seen: Default::default(),
            budget: db.config().max_verifications as u64,
            calls: 0,
            exhausted: false,
            started: Instant::now(),
            cells_before: ssr_distance::dp_cells_thread_total(),
            prunes_before: ssr_distance::lower_bound_prunes_thread_total(),
            sequence: SequenceId(0),
            db_elements: &[],
            limits: ExpansionLimits::default(),
            table_of_start: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Makes `candidate` the one being verified and returns its pairs in
    /// verification order ([`enumerate_pairs`]); `None` when its sequence is
    /// no longer stored.
    ///
    /// [`enumerate_pairs`]: crate::expand::enumerate_pairs
    fn expand(
        &mut self,
        candidate: &Candidate,
    ) -> Option<impl Iterator<Item = (Range<usize>, Range<usize>)>> {
        let config = self.db.config();
        let db_seq = self.db.sequence(candidate.sequence)?;
        self.sequence = candidate.sequence;
        self.db_elements = db_seq.elements();
        self.limits = ExpansionLimits::new(candidate, config, self.query.len(), db_seq.len());
        self.tables.clear();
        self.table_of_start.clear();
        self.table_of_start.resize(
            self.limits.query_start.len() * self.limits.db_start.len(),
            NO_TABLE,
        );
        Some(pairs_within(
            self.limits.clone(),
            config.lambda,
            config.max_shift,
        ))
    }

    /// The pair — one of the current candidate's — as a match when it is new
    /// and verifies within `epsilon`. `None` for a repeated pair, a pair
    /// beyond the radius, or — with [`Self::exhausted`] set — a new pair the
    /// budget no longer covers.
    fn verify(&mut self, q_range: Range<usize>, x_range: Range<usize>) -> Option<SubsequenceMatch> {
        let key = (
            self.sequence,
            q_range.start,
            q_range.end,
            x_range.start,
            x_range.end,
        );
        if !self.seen.insert(key) {
            return None;
        }
        if self.budget == 0 {
            self.exhausted = true;
            return None;
        }
        self.budget -= 1;
        self.calls += 1;
        let distance = self.distance_within(&q_range, &x_range);
        (distance <= self.epsilon).then_some(SubsequenceMatch {
            sequence: self.sequence,
            db_range: x_range,
            query_range: q_range,
            distance,
        })
    }

    /// The distance of one pair of the current candidate if it is within
    /// `epsilon`, else `f64::INFINITY`. Runs the pruning cascade first: an
    /// exact length lower bound, then an exact gap-sum lower bound from the
    /// precomputed prefix tables (both `O(1)` per pair), against the
    /// threshold clamped to the measure's `max_distance` for this pair's
    /// lengths. A pair that survives is read from the end table of its start.
    fn distance_within(&mut self, q_range: &Range<usize>, x_range: &Range<usize>) -> f64 {
        let db = self.db;
        if ssr_distance::pruning_enabled() {
            let (q_len, x_len) = (q_range.len(), x_range.len());
            let tau = self.clamped_epsilon(q_len.max(x_len));
            let gap_sums = match (&self.query_gap, &db.gap_prefixes) {
                (Some(qg), Some(prefixes)) => qg.range_sum(q_range).zip(
                    prefixes
                        .get(self.sequence.0)
                        .and_then(|p| p.range_sum(x_range)),
                ),
                _ => None,
            };
            if db.bounded_out((q_len, x_len), gap_sums, tau) {
                ssr_distance::record_lower_bound_prune();
                return f64::INFINITY;
            }
        }
        self.table_read(q_range, x_range)
    }

    /// `epsilon` clamped to what the measure can reach on inputs of at most
    /// `len` elements: distances never exceed `max_distance(len)`, so a wider
    /// threshold cannot admit anything more (a prune against the clamped
    /// threshold implies a prune against the unclamped one), and short inputs
    /// never get pointlessly wide bands.
    fn clamped_epsilon(&self, len: usize) -> f64 {
        match self.db.distance.max_distance(len) {
            Some(bound) => self.epsilon.min(bound),
            None => self.epsilon,
        }
    }

    /// The pair's slot in the end table of its start pair, which is computed
    /// here if this is the first read from that start: one program from
    /// `(qs, xs)` to the farthest end points the candidate's limits allow.
    fn table_read(&mut self, q_range: &Range<usize>, x_range: &Range<usize>) -> f64 {
        let limits = &self.limits;
        let start = (q_range.start - limits.query_start.start) * limits.db_start.len()
            + (x_range.start - limits.db_start.start);
        let a = &self.query.elements()[q_range.start..limits.query_end.end - 1];
        let b = &self.db_elements[x_range.start..limits.db_end.end - 1];
        // Rows and columns are the end points of the limits, whatever the
        // start: the shortest wanted prefix ends at the first of them.
        let ends = EndSpec {
            min_a: limits.query_end.start - q_range.start,
            min_b: limits.db_end.start - x_range.start,
            max_len_diff: self.db.config().max_shift,
        };
        if self.table_of_start[start] == NO_TABLE {
            let begin = self.tables.len();
            self.tables
                .resize(begin + ends.slots(a.len(), b.len()), f64::INFINITY);
            let tau = self.clamped_epsilon(a.len().max(b.len()));
            self.db
                .distance
                .end_table(a, b, ends, tau, &mut self.tables[begin..]);
            self.table_of_start[start] = begin;
        }
        self.tables[self.table_of_start[start] + ends.slot(b.len(), q_range.len(), x_range.len())]
    }

    /// Adds the stage's work to `stats` and its wall-clock to `ctx`.
    fn finish(self, stats: &mut QueryStats, ctx: &mut ExecCtx) {
        stats.verification_calls += self.calls;
        stats.budget_exhausted |= self.exhausted;
        stats.dp_cells_evaluated += ssr_distance::dp_cells_thread_total() - self.cells_before;
        stats.pruned_by_lower_bound +=
            ssr_distance::lower_bound_prunes_thread_total() - self.prunes_before;
        let verify_ns = self.started.elapsed().as_nanos() as u64;
        ctx.timings.verify_ns += verify_ns;
        ctx.span("verify", verify_ns);
    }
}

impl<E: Element + Send + Sync, D: SequenceDistance<E>> SubsequenceDatabase<E, D> {
    /// **Type I — range query.** Returns all pairs of similar subsequences:
    /// `|SX| ≥ λ`, `|SQ| ≥ λ`, `||SX| − |SQ|| ≤ λ0` and `δ(SQ, SX) ≤ ε`.
    ///
    /// As the paper notes, consistency implies that a single long match
    /// induces very many overlapping result pairs, so the result is capped at
    /// `max_results` (longest query subsequences first) and verification stops
    /// once `max_verifications` distance evaluations have been spent.
    pub fn query_type1(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
    ) -> QueryOutcome<Vec<SubsequenceMatch>> {
        self.query_type1_ctx(query, epsilon, &mut ExecCtx::default())
    }

    pub(crate) fn query_type1_ctx(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
        ctx: &mut ExecCtx,
    ) -> QueryOutcome<Vec<SubsequenceMatch>> {
        let (matches, mut stats) = self.scan(query, epsilon, ctx);
        let result = self.range_pairs(query, &matches, epsilon, &mut stats, ctx);
        QueryOutcome { result, stats }
    }

    /// Steps 5a–5b of a range query over an already computed step-4 match
    /// list: chain, expand and verify at `epsilon`, longest first.
    fn range_pairs(
        &self,
        query: &Sequence<E>,
        matches: &[SegmentMatch],
        epsilon: f64,
        stats: &mut QueryStats,
        ctx: &mut ExecCtx,
    ) -> Vec<SubsequenceMatch> {
        let candidates = self.chain(matches, stats, ctx);
        let mut verifier = Verifier::start(self, query, epsilon);
        let mut results: Vec<SubsequenceMatch> = Vec::new();
        'outer: for candidate in &candidates {
            let Some(pairs) = verifier.expand(candidate) else {
                continue;
            };
            for (q_range, x_range) in pairs {
                let found = verifier.verify(q_range, x_range);
                if verifier.exhausted {
                    break 'outer;
                }
                if let Some(m) = found {
                    results.push(m);
                    if results.len() >= self.config().max_results {
                        break 'outer;
                    }
                }
            }
        }
        results.sort_by(|a, b| {
            b.query_len()
                .cmp(&a.query_len())
                .then(a.distance.total_cmp(&b.distance))
        });
        verifier.finish(stats, ctx);
        results
    }

    /// **Type II — longest similar subsequence.** Maximises `|SQ|` subject to
    /// the same constraints as Type I.
    ///
    /// Candidates are verified longest-chain first and, within a candidate,
    /// longest query subsequence first, so the first verified pair of a given
    /// length is returned as soon as no longer pair remains unexplored.
    pub fn query_type2(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
    ) -> QueryOutcome<Option<SubsequenceMatch>> {
        self.query_type2_ctx(query, epsilon, &mut ExecCtx::default())
    }

    pub(crate) fn query_type2_ctx(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
        ctx: &mut ExecCtx,
    ) -> QueryOutcome<Option<SubsequenceMatch>> {
        let (matches, mut stats) = self.scan(query, epsilon, ctx);
        let candidates = self.chain(&matches, &mut stats, ctx);
        let mut verifier = Verifier::start(self, query, epsilon);
        let mut best: Option<SubsequenceMatch> = None;
        'candidates: for candidate in &candidates {
            // A chain of k windows can support matches of length at most
            // (k + 2) * lambda / 2; skip candidates that cannot beat the best.
            if let Some(ref b) = best {
                let upper = (candidate.chain_len + 2) * self.config().window_len()
                    + self.config().max_shift;
                if upper <= b.query_len() {
                    continue;
                }
            }
            let Some(pairs) = verifier.expand(candidate) else {
                continue;
            };
            for (q_range, x_range) in pairs {
                if let Some(ref b) = best {
                    if q_range.end - q_range.start <= b.query_len() {
                        // Pairs come by decreasing |SQ|; nothing better
                        // remains within this candidate.
                        break;
                    }
                }
                if let Some(m) = verifier.verify(q_range, x_range) {
                    best = Some(m);
                }
                if verifier.exhausted {
                    break 'candidates;
                }
            }
        }
        verifier.finish(&mut stats, ctx);
        QueryOutcome {
            result: best,
            stats,
        }
    }

    /// **Type III — nearest pair.** Minimises `δ(SQ, SX)` subject to
    /// `|SX| ≥ λ`, `|SQ| ≥ λ` and `||SX| − |SQ|| ≤ λ0`.
    ///
    /// Step 4 runs **once**, at `epsilon_max`. Range search is monotone in
    /// the radius and the scan carries every match's exact distance, so the
    /// matches at any smaller `ε` are the scan filtered to `distance ≤ ε` and
    /// the smallest radius with a non-empty shortlist is the smallest match
    /// distance. The sweep starts there and grows `ε` by `epsilon_increment`
    /// until a pair verifies, each round chaining and verifying at its own
    /// `ε`. (The paper binary-searches `ε` over a black-box index and
    /// re-probes at every radius; reading the radius off one scan gives the
    /// same sweep without the extra probes.)
    ///
    /// # Panics
    /// When `epsilon_increment` is not positive.
    pub fn query_type3(
        &self,
        query: &Sequence<E>,
        epsilon_max: f64,
        epsilon_increment: f64,
    ) -> QueryOutcome<Option<SubsequenceMatch>> {
        self.query_type3_ctx(
            query,
            epsilon_max,
            epsilon_increment,
            &mut ExecCtx::default(),
        )
    }

    pub(crate) fn query_type3_ctx(
        &self,
        query: &Sequence<E>,
        epsilon_max: f64,
        epsilon_increment: f64,
        ctx: &mut ExecCtx,
    ) -> QueryOutcome<Option<SubsequenceMatch>> {
        assert!(
            epsilon_increment > 0.0,
            "epsilon_increment must be positive"
        );
        let (matches, mut stats) = self.scan(query, epsilon_max, ctx);
        let Some(nearest) = matches.iter().map(|m| m.distance).min_by(f64::total_cmp) else {
            return QueryOutcome {
                result: None,
                stats,
            };
        };
        // The funnel statistics (matches, windows, candidates) report the
        // last round; calls, cells and prunes accumulate over all of them.
        let mut epsilon = nearest.min(epsilon_max);
        loop {
            let round = ctx.span_begin("epsilon_round");
            let within: Vec<SegmentMatch> = matches
                .iter()
                .filter(|m| m.distance <= epsilon)
                .copied()
                .collect();
            let pairs = self.range_pairs(query, &within, epsilon, &mut stats, ctx);
            ctx.span_end(round);
            let result = pairs
                .into_iter()
                .min_by(|a, b| a.distance.total_cmp(&b.distance));
            if result.is_some() || epsilon >= epsilon_max {
                return QueryOutcome { result, stats };
            }
            epsilon = (epsilon + epsilon_increment).min(epsilon_max);
        }
    }

    /// Steps 3–4 shared by all query types: extract segments, run the range
    /// queries at `epsilon` and open the statistics with the probe's work.
    fn scan(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
        ctx: &mut ExecCtx,
    ) -> (Vec<SegmentMatch>, QueryStats) {
        let scan = self.matching_segments_ctx(query, epsilon, ctx);
        let stats = QueryStats {
            segments: ssr_sequence::segment_count(query.len(), self.config().segment_spec()),
            index_distance_calls: scan.distance_calls,
            dp_cells_evaluated: scan.dp_cells,
            pruned_by_lower_bound: scan.pruned_by_lower_bound,
            ..QueryStats::default()
        };
        (scan.matches, stats)
    }

    /// Step 5a shared by all query types: assemble chained candidates from a
    /// step-4 match list and record the funnel it produced.
    fn chain(
        &self,
        matches: &[SegmentMatch],
        stats: &mut QueryStats,
        ctx: &mut ExecCtx,
    ) -> Vec<Candidate> {
        let chain_started = Instant::now();
        let mut unique_windows: Vec<usize> = matches.iter().map(|m| m.window.0).collect();
        unique_windows.sort_unstable();
        unique_windows.dedup();
        let candidates =
            build_candidates(matches, self.config().window_len(), self.config().max_shift);
        let chain_ns = chain_started.elapsed().as_nanos() as u64;
        ctx.timings.chain_ns += chain_ns;
        ctx.span("chain", chain_ns);
        stats.segment_matches = matches.len();
        stats.unique_windows = unique_windows.len();
        stats.consecutive_windows = candidates
            .iter()
            .filter(|c| c.chain_len >= 2)
            .map(|c| c.chain_len)
            .sum();
        stats.candidates = candidates.len();
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FrameworkConfig, IndexBackend};
    use ssr_distance::Levenshtein;
    use ssr_sequence::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    /// A small database where the query's middle part occurs (slightly
    /// mutated) inside the first sequence.
    fn planted_db() -> SubsequenceDatabase<Symbol, Levenshtein> {
        let config = FrameworkConfig::new(8).with_max_shift(1);
        SubsequenceDatabase::builder(config, Levenshtein::new())
            .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
            .add_sequence(seq("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"))
            .build()
            .unwrap()
    }

    #[test]
    fn type2_finds_the_planted_subsequence() {
        let db = planted_db();
        // Query embeds ACDEFGHIKLMNPQRSTVWY (with one substitution) in noise.
        let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let outcome = db.query_type2(&query, 3.0);
        let m = outcome.result.expect("planted match must be found");
        assert_eq!(m.sequence, SequenceId(0));
        assert!(m.query_len() >= 8);
        assert!(m.distance <= 3.0);
        // The reported database range overlaps the planted region 8..28.
        assert!(m.db_range.start < 28 && m.db_range.end > 8);
        assert!(outcome.stats.segments > 0);
        assert!(outcome.stats.segment_matches > 0);
        assert!(outcome.stats.candidates > 0);
        assert!(outcome.stats.verification_calls > 0);
    }

    #[test]
    fn type1_returns_multiple_overlapping_pairs() {
        let db = planted_db();
        let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let outcome = db.query_type1(&query, 3.0);
        assert!(!outcome.result.is_empty());
        for m in &outcome.result {
            assert!(m.distance <= 3.0);
            assert!(m.query_len() >= 8);
            assert!(m.db_len() >= 8);
            assert!((m.query_len() as i64 - m.db_len() as i64).abs() <= 1);
        }
        // Longest results come first.
        for w in outcome.result.windows(2) {
            assert!(w[0].query_len() >= w[1].query_len());
        }
    }

    #[test]
    fn type2_returns_none_when_nothing_is_similar() {
        let db = planted_db();
        let query = seq("QQQQQQQQQQQQQQQQQQQQ");
        let outcome = db.query_type2(&query, 1.0);
        assert!(outcome.result.is_none());
    }

    #[test]
    fn type3_finds_the_minimal_distance_pair() {
        let db = planted_db();
        let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let outcome = db.query_type3(&query, 10.0, 1.0);
        let m = outcome.result.expect("nearest pair exists");
        assert_eq!(m.sequence, SequenceId(0));
        // An exact copy of the planted region exists, so the nearest distance
        // must be very small.
        assert!(m.distance <= 1.0, "distance {}", m.distance);
    }

    #[test]
    fn type3_returns_none_when_even_epsilon_max_fails() {
        let db = planted_db();
        let query = seq("QQQQQQQQQQQQQQQQQQQQ");
        let outcome = db.query_type3(&query, 0.5, 0.25);
        assert!(outcome.result.is_none());
    }

    #[test]
    fn linear_scan_backend_gives_same_type2_answer_as_reference_net() {
        let config = FrameworkConfig::new(8).with_max_shift(1);
        let sequences = [
            "MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM",
            "WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW",
        ];
        let mut builders = Vec::new();
        for backend in [IndexBackend::ReferenceNet, IndexBackend::LinearScan] {
            let mut b = SubsequenceDatabase::builder(
                config.clone().with_backend(backend),
                Levenshtein::new(),
            );
            for s in &sequences {
                b = b.add_sequence(seq(s));
            }
            builders.push(b.build().unwrap());
        }
        let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let a = builders[0].query_type2(&query, 3.0).result.unwrap();
        let b = builders[1].query_type2(&query, 3.0).result.unwrap();
        assert_eq!(a.query_len(), b.query_len());
        assert_eq!(a.sequence, b.sequence);
    }

    #[test]
    fn verification_budget_is_honoured() {
        let mut config = FrameworkConfig::new(8).with_max_shift(1);
        config.max_verifications = 5;
        let db = SubsequenceDatabase::builder(config, Levenshtein::new())
            .add_sequence(seq("MMMMMMMMACDEFGHIKLMNPQRSTVWYMMMMMMMM"))
            .build()
            .unwrap();
        let query = seq("YYYYACDEFGHIKLMNPQRSTVWYYYYY");
        let outcome = db.query_type1(&query, 3.0);
        assert!(outcome.stats.verification_calls <= 5);
    }
}
