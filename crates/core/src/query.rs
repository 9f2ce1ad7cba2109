//! Query execution: Type I (range), Type II (longest) and Type III (nearest).

use std::ops::Range;
use std::time::Instant;

use ssr_distance::{EndSpec, SequenceDistance};
use ssr_sequence::{Element, Sequence, SequenceId};

use crate::candidates::{build_regions, Region, SegmentMatch};
use crate::database::SubsequenceDatabase;
use crate::expand::{Expansion, Pair, DEAD, FRESH};

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
    /// Number of windows in the longest chains (of two or more) of the regions.
    pub consecutive_windows: usize,
    /// Number of candidate regions generated (step 5a).
    pub candidates: usize,
    /// Pairs asked about in step 5b: one per start pair opened (an end table
    /// computed, found dead or not) and one per pair read from a live table
    /// after that. The other pairs of a dead start pair are not counted.
    pub verification_calls: u64,
    /// Dynamic-program cells evaluated by the distance kernels across the
    /// whole query (index filtering **and** verification). Deterministic and
    /// bit-identical at every thread count, like the call counts: pruning
    /// (lower bounds, banded DP, early abandoning) shrinks this number while
    /// `index_distance_calls` / `verification_calls` stay exactly the same.
    pub dp_cells_evaluated: u64,
    /// Distance evaluations resolved by a cheap lower bound alone, without
    /// running any dynamic program: one per step-4 family visit whose segments
    /// are *all* bounded out. (Step 5b tries none before its tables.)
    pub pruned_by_lower_bound: u64,
    /// Whether a pair was asked about after `max_verifications` were spent.
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

/// Step 5b over one region list: answers every pair of a region once
/// against the radius `epsilon` and accounts the stage when finished.
///
/// All pairs of a region that start at the same `(qs, xs)` are prefixes of
/// one another's inputs, so one [`SequenceDistance::end_table`] from that
/// start to its farthest ends — run when the first of them is asked about —
/// holds every one's distance, and the rest are reads. A start pair whose
/// table holds nothing within `epsilon` (abandoned before the first wanted
/// row, typically) is marked dead and its remaining pairs are never visited.
///
/// **Budget rule.** One unit of `max_verifications`, and one
/// `verification_calls`, per pair *asked about*: the pair that opens a start
/// pair (found dead or not) and every pair read from a live table after it.
/// The other pairs of a dead start pair are never asked about: they are free.
struct Verifier<'a, E: Element, D: SequenceDistance<E>> {
    db: &'a SubsequenceDatabase<E, D>,
    query: &'a Sequence<E>,
    epsilon: f64,
    budget: u64,
    calls: u64,
    /// Set once a pair was asked about with no budget left to answer it.
    exhausted: bool,
    started: Instant,
    cells_before: u64,
    /// The `verify` span, and the time spent on tables — clocked only when
    /// the query is traced.
    span: usize,
    table_ns: Option<u64>,
    /// The live end tables of the region being verified, back to back, the
    /// wanted diagonals only: one row per `|SQ|` from `λ` up, `2λ0 + 1` slots
    /// per row (`|SX| − |SQ| = −λ0 ..= λ0`). Reserved once, a row per unit of
    /// the budget and at most 8 MiB, and never grown: address space, not
    /// memory — a page nothing is written to is never faulted in.
    tables: Vec<f64>,
    /// Where the kernel writes a whole (rectangular) table first.
    scratch: Vec<f64>,
}

impl<'a, E: Element + Send + Sync, D: SequenceDistance<E>> Verifier<'a, E, D> {
    fn start(
        db: &'a SubsequenceDatabase<E, D>,
        query: &'a Sequence<E>,
        epsilon: f64,
        ctx: &mut ExecCtx,
    ) -> Self {
        let span = ctx.span_begin("verify");
        let config = db.config();
        let arena = (config.max_verifications).saturating_mul(2 * config.max_shift + 1);
        Verifier {
            db,
            query,
            epsilon,
            budget: config.max_verifications as u64,
            calls: 0,
            exhausted: false,
            started: Instant::now(),
            cells_before: ssr_distance::dp_cells_thread_total(),
            span,
            table_ns: ctx.trace.is_some().then_some(0),
            tables: Vec::with_capacity(arena.min(1 << 20)),
            scratch: Vec::new(),
        }
    }

    /// Answers one pair of a painted region of `sequence`: the match when it
    /// verifies within `epsilon`. `None` also when the budget has run out
    /// ([`Self::exhausted`]).
    fn ask(
        &mut self,
        state: &mut u32,
        pair: Pair,
        sequence: SequenceId,
        db_elements: &[E],
    ) -> Option<SubsequenceMatch> {
        if self.budget == 0 {
            self.exhausted = true;
            return None;
        }
        self.budget -= 1;
        self.calls += 1;
        let distance = if *state == FRESH {
            let clock = self.table_ns.map(|_| Instant::now());
            let distance = self.open(state, db_elements, pair);
            if let (Some(total), Some(clock)) = (self.table_ns.as_mut(), clock) {
                *total += clock.elapsed().as_nanos() as u64;
            }
            distance
        } else {
            let config = self.db.config();
            let row = (pair.q_len - config.lambda.max(1)) * (2 * config.max_shift + 1);
            self.tables[*state as usize + row + (pair.x_len + config.max_shift - pair.q_len)]
        };
        (distance <= self.epsilon).then_some(SubsequenceMatch {
            sequence,
            db_range: pair.xs..pair.xs + pair.x_len,
            query_range: pair.qs..pair.qs + pair.q_len,
            distance,
        })
    }

    /// Opens the start pair of `pair` and returns `pair`'s distance (`∞`
    /// beyond `epsilon`): one program from `(qs, xs)` to its farthest ends.
    /// The wanted diagonals go to [`Self::tables`] and `state` says where —
    /// or [`DEAD`], when none holds a distance within `epsilon`. A table has
    /// a row per reachable `|SQ|`, so long true matches of a long query could
    /// want `live start pairs × |Q|` rows: one that does not fit the arena is
    /// not kept and its start pair stays [`FRESH`], to be opened again at its
    /// next pair — which costs time, never an answer. No lower bound is
    /// tried first: on equal lengths the length bound is zero, and the
    /// kernel's own band and abandon end a hopeless program within few rows.
    fn open(&mut self, state: &mut u32, db_elements: &[E], pair: Pair) -> f64 {
        let config = self.db.config();
        let (lambda, shift) = (config.lambda.max(1), config.max_shift);
        // No wanted slot lies more than λ0 off the diagonal.
        let a_len = (pair.query_last - pair.qs).min(pair.db_last - pair.xs + shift);
        let b_len = (pair.db_last - pair.xs).min(a_len + shift);
        let ends = EndSpec {
            min_a: lambda,
            min_b: lambda,
            max_len_diff: shift,
        };
        self.scratch.resize(ends.slots(a_len, b_len), f64::INFINITY);
        self.db.distance.end_table(
            &self.query.elements()[pair.qs..pair.qs + a_len],
            &db_elements[pair.xs..pair.xs + b_len],
            ends,
            self.epsilon,
            &mut self.scratch,
        );
        let (begin, width) = (self.tables.len(), 2 * shift + 1);
        let end = begin + (a_len + 1 - lambda) * width;
        let kept = end <= self.tables.capacity();
        if kept {
            self.tables.resize(end, f64::INFINITY);
        }
        let mut live = false;
        // The wanted slots: prefix lengths (i, j) of at least λ, within λ0.
        for i in lambda..=a_len {
            for j in lambda.max(i.saturating_sub(shift))..=b_len.min(i + shift) {
                let distance = self.scratch[ends.slot(b_len, i, j)];
                live |= distance <= self.epsilon;
                if kept {
                    self.tables[begin + (i - lambda) * width + (j + shift - i)] = distance;
                }
            }
        }
        if !live {
            self.tables.truncate(begin);
            *state = DEAD;
        } else if kept {
            *state = begin as u32;
        }
        self.scratch[ends.slot(b_len, pair.q_len, pair.x_len)]
    }

    /// Adds the stage's work to `stats` and its wall-clock to `ctx`; a traced
    /// query gets the split into table time and scan time (painting,
    /// enumeration, reads) as child spans.
    fn finish(self, stats: &mut QueryStats, ctx: &mut ExecCtx) {
        stats.verification_calls += self.calls;
        stats.budget_exhausted |= self.exhausted;
        stats.dp_cells_evaluated += ssr_distance::dp_cells_thread_total() - self.cells_before;
        let verify_ns = self.started.elapsed().as_nanos() as u64;
        ctx.timings.verify_ns += verify_ns;
        if let Some(table_ns) = self.table_ns {
            ctx.span("verify_tables", table_ns);
            ctx.span("verify_scan", verify_ns.saturating_sub(table_ns));
        }
        ctx.span_end(self.span);
    }
}

impl<E: Element + Send + Sync, D: SequenceDistance<E>> SubsequenceDatabase<E, D> {
    /// **Type I — range query.** Returns all pairs of similar subsequences:
    /// `|SX| ≥ λ`, `|SQ| ≥ λ`, `||SX| − |SQ|| ≤ λ0` and `δ(SQ, SX) ≤ ε`.
    ///
    /// As the paper notes, consistency implies that a single long match
    /// induces very many overlapping result pairs, so the result is capped at
    /// `max_results` (regions longest chain first, longest query subsequences
    /// first within one) and verification stops once `max_verifications`
    /// pairs have been asked about ([`QueryStats::verification_calls`]).
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
        let regions = self.chain(matches, stats, ctx);
        let mut verifier = Verifier::start(self, query, epsilon, ctx);
        let mut results: Vec<SubsequenceMatch> = Vec::new();
        let mut expansion = Expansion::default();
        // Region by region, each from its longest pairs down; the tables of
        // one region are dropped at the next.
        for region in &regions {
            let Some(stored) = self.sequence(region.sequence) else {
                continue;
            };
            expansion.paint(region, self.config(), (query.len(), stored.len()));
            verifier.tables.clear();
            let mut done = false;
            expansion.for_each_pair(|state, pair| {
                results.extend(verifier.ask(state, pair, region.sequence, stored.elements()));
                done = verifier.exhausted || results.len() >= self.config().max_results;
                done
            });
            if done {
                break;
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
    /// All regions are walked together, one `|SQ|` at a time from the longest
    /// any of them reaches (longest chain first within a length), so the
    /// first pair that verifies is the answer and nothing shorter is asked.
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
        let regions = self.chain(&matches, &mut stats, ctx);
        let mut verifier = Verifier::start(self, query, epsilon, ctx);
        let mut painted: Vec<_> = (regions.iter())
            .filter_map(|region| {
                let stored = self.sequence(region.sequence)?;
                let mut expansion = Expansion::default();
                expansion.paint(region, self.config(), (query.len(), stored.len()));
                Some((expansion, region.sequence, stored.elements()))
            })
            .collect();
        // Every region one length at a time, longest first: the first pair
        // that verifies is the answer, and no region is asked about a
        // shorter one.
        let longest = painted.iter().map(|p| p.0.longest()).max().unwrap_or(0);
        let mut best: Option<SubsequenceMatch> = None;
        'lengths: for q_len in (self.config().lambda..=longest).rev() {
            for (expansion, sequence, elements) in &mut painted {
                expansion.pairs_of_length(q_len, |state, pair| {
                    best = verifier.ask(state, pair, *sequence, elements);
                    best.is_some() || verifier.exhausted
                });
                if best.is_some() || verifier.exhausted {
                    break 'lengths;
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

    /// Step 5a shared by all query types: group a step-4 match list into
    /// regions and record the funnel it produced.
    fn chain(
        &self,
        matches: &[SegmentMatch],
        stats: &mut QueryStats,
        ctx: &mut ExecCtx,
    ) -> Vec<Region> {
        let chain_started = Instant::now();
        let mut unique_windows: Vec<usize> = matches.iter().map(|m| m.window.0).collect();
        unique_windows.sort_unstable();
        unique_windows.dedup();
        let regions = build_regions(matches, self.config().window_len(), self.config().max_shift);
        let chain_ns = chain_started.elapsed().as_nanos() as u64;
        ctx.timings.chain_ns += chain_ns;
        ctx.span("chain", chain_ns);
        stats.segment_matches = matches.len();
        stats.unique_windows = unique_windows.len();
        let chains = regions.iter().map(|r| r.chain_len).filter(|&k| k >= 2);
        stats.consecutive_windows = chains.sum();
        stats.candidates = regions.len();
        regions
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
