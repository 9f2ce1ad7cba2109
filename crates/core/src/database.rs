//! The indexed subsequence database (steps 1 and 2 of the framework).

use std::sync::Arc;
use std::time::Instant;

use ssr_distance::{CallCounter, EndSpec, SequenceDistance};
use ssr_index::{
    CountingMetric, CoverTree, FamilyScratch, LinearScan, MvReferenceIndex, RangeIndex,
    ReferenceNet, ReferenceNetConfig, SpaceStats, WindowSliceMetric,
};
use ssr_sequence::{
    Element, ElementArena, SegmentFamily, Sequence, SequenceDataset, SequenceId, SequenceView,
    Window, WindowId, WindowStore,
};

use crate::candidates::SegmentMatch;
use crate::config::{FrameworkConfig, FrameworkError, IndexBackend};

/// The metric the window index operates with: the user's sequence distance
/// over id-addressed window items, resolved to borrowed slices of the shared
/// element arena, and counted.
pub(crate) type WindowMetric<E, D> = CountingMetric<WindowSliceMetric<E, Arc<D>>>;

/// The four index backends over [`WindowId`] items. No backend owns a single
/// element: each stores one machine word per window and resolves it through
/// the [`WindowMetric`]'s shared [`WindowStore`] on every evaluation.
pub(crate) enum WindowIndex<E: Element, D: SequenceDistance<E>> {
    ReferenceNet(ReferenceNet<WindowId, WindowMetric<E, D>>),
    CoverTree(CoverTree<WindowId, WindowMetric<E, D>>),
    MvReference(MvReferenceIndex<WindowId, WindowMetric<E, D>>),
    LinearScan(LinearScan<WindowId, WindowMetric<E, D>>),
}

// Manual impl: a derive would demand `D: Clone`, but the metric only holds
// the distance behind an `Arc`, so cloning never needs to clone `D` itself.
impl<E: Element, D: SequenceDistance<E>> Clone for WindowIndex<E, D> {
    fn clone(&self) -> Self {
        match self {
            WindowIndex::ReferenceNet(idx) => WindowIndex::ReferenceNet(idx.clone()),
            WindowIndex::CoverTree(idx) => WindowIndex::CoverTree(idx.clone()),
            WindowIndex::MvReference(idx) => WindowIndex::MvReference(idx.clone()),
            WindowIndex::LinearScan(idx) => WindowIndex::LinearScan(idx.clone()),
        }
    }
}

impl<E: Element + Send + Sync, D: SequenceDistance<E>> WindowIndex<E, D> {
    /// One family range query on whichever backend this is. `eval` answers
    /// a visit — the lanes' distances to one stored window, see
    /// [`RangeIndex::family_query`] — and is charged to the index's counting
    /// metric as **one** distance call however many lanes it answers, with
    /// the DP cells it filled.
    fn family_query(
        &self,
        lanes: usize,
        radius: f64,
        mut eval: impl FnMut(WindowId, f64, &mut [f64]),
        scratch: &mut FamilyScratch,
    ) {
        // One probe shape for all four backends; a divergence here would
        // silently skew per-backend counts, so keep it in one place.
        macro_rules! probe {
            ($idx:expr) => {{
                let metric = $idx.metric();
                $idx.family_query(
                    lanes,
                    radius,
                    |item, tau, out| metric.charge(|| eval(*item, tau, out)),
                    scratch,
                )
            }};
        }
        match self {
            WindowIndex::ReferenceNet(idx) => probe!(idx),
            WindowIndex::CoverTree(idx) => probe!(idx),
            WindowIndex::MvReference(idx) => probe!(idx),
            WindowIndex::LinearScan(idx) => probe!(idx),
        }
    }

    fn space_stats(&self) -> SpaceStats {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.space_stats(),
            WindowIndex::CoverTree(idx) => idx.space_stats(),
            WindowIndex::MvReference(idx) => idx.space_stats(),
            WindowIndex::LinearScan(idx) => idx.space_stats(),
        }
    }

    /// Stable backend label for telemetry (the `backend` label of the
    /// `ssr_index_probe_depth` histogram).
    pub(crate) fn backend_name(&self) -> &'static str {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.backend_name(),
            WindowIndex::CoverTree(idx) => idx.backend_name(),
            WindowIndex::MvReference(idx) => idx.backend_name(),
            WindowIndex::LinearScan(idx) => idx.backend_name(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.len(),
            WindowIndex::CoverTree(idx) => idx.len(),
            WindowIndex::MvReference(idx) => idx.len(),
            WindowIndex::LinearScan(idx) => idx.len(),
        }
    }

    /// Stored item handles in id order (dead Reference-Net nodes included),
    /// for snapshot validation.
    pub(crate) fn stored_items(&self) -> &[WindowId] {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.items(),
            WindowIndex::CoverTree(idx) => idx.items(),
            WindowIndex::MvReference(idx) => idx.items(),
            WindowIndex::LinearScan(idx) => idx.items(),
        }
    }

    /// Redirects the index's counting metric onto fresh counters (replica
    /// cloning: each replica accounts on private atomics).
    fn set_counters(&mut self, counter: CallCounter, cells: ssr_distance::CellCounter) {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.metric_mut().set_counters(counter, cells),
            WindowIndex::CoverTree(idx) => idx.metric_mut().set_counters(counter, cells),
            WindowIndex::MvReference(idx) => idx.metric_mut().set_counters(counter, cells),
            WindowIndex::LinearScan(idx) => idx.metric_mut().set_counters(counter, cells),
        }
    }

    /// The window store: the metric's handle, the only one a database has.
    fn windows(&self) -> &WindowStore<E> {
        match self {
            WindowIndex::ReferenceNet(idx) => idx.metric().inner().windows(),
            WindowIndex::CoverTree(idx) => idx.metric().inner().windows(),
            WindowIndex::MvReference(idx) => idx.metric().inner().windows(),
            WindowIndex::LinearScan(idx) => idx.metric().inner().windows(),
        }
    }

    /// Appends one sequence: pushes it onto the store behind the metric
    /// ([`WindowSliceMetric::windows_mut`] — in place, or on a private copy
    /// while a replica shares the store) and inserts its windows' ids. The
    /// Reference Net, the cover tree and the scan insert through the same
    /// loop their bulk `extend` uses, at the cost of the new windows alone;
    /// the MV index **rebuilds its whole pivot table** in `extend` — that is
    /// the structure's algorithm (pivots are chosen over the final item
    /// set), not incremental maintenance. Either way the result is
    /// bit-identical to a from-scratch build over the grown id range.
    fn push_sequence(&mut self, elements: &[E], label: Option<String>) -> SequenceId {
        macro_rules! push {
            ($idx:expr) => {{
                let store = $idx.metric_mut().inner_mut().windows_mut();
                let old_len = store.len();
                let id = store.push_sequence(elements, label);
                let new_len = store.len();
                $idx.extend((old_len..new_len).map(WindowId));
                id
            }};
        }
        match self {
            WindowIndex::ReferenceNet(idx) => push!(idx),
            WindowIndex::CoverTree(idx) => push!(idx),
            WindowIndex::MvReference(idx) => push!(idx),
            WindowIndex::LinearScan(idx) => push!(idx),
        }
    }
}

/// The result of step 4 over one query: every (segment, window) pair within
/// radius `ε` — by segment length, then query offset, then window id — with
/// the distance evaluations the index spent producing them.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SegmentScan {
    /// The matched (query segment, database window) pairs.
    pub matches: Vec<SegmentMatch>,
    /// Distance evaluations performed inside the index to produce them: one
    /// per (family, visited index node) — the end table that answers every
    /// segment starting at one query offset against that node's window is
    /// one evaluation, as is a visit that a lower bound resolves.
    pub distance_calls: u64,
    /// Dynamic-program cells those evaluations actually filled, plus those
    /// of recomputing each match's distance. Each visited window's
    /// free-start column pass over the query counts here, charged to the
    /// visit that fills it. Thresholded kernels and the visits that column
    /// rules out cut this number without changing `distance_calls`.
    pub dp_cells: u64,
    /// Evaluations resolved by a cheap lower bound alone: family visits in
    /// which an `O(1)` bound (lengths, gap sums) put every segment beyond
    /// the node's threshold, so that no program ran. A visit the window's
    /// free-start column rules out is not counted here; its saving shows in
    /// `dp_cells` only.
    pub pruned_by_lower_bound: u64,
}

/// Prefix sums of a sequence's per-element ground distances to the gap
/// element, plus whether those sums are exact (integral, below 2⁵³ — the
/// precondition for pruning on a float comparison without ever misclassifying
/// a borderline pair). Gives the `O(1)`-per-range inputs of the ERP gap-sum
/// lower bound; built once per database sequence at build/load time and once
/// per query at query time, fixing the old wart where `erp_lower_bound`
/// rescanned both subsequences for every candidate pair.
#[derive(Clone)]
pub(crate) struct GapPrefix {
    prefix: Vec<f64>,
    exact: bool,
}

impl GapPrefix {
    /// Scans `elements` once, accumulating in element order. The exactness
    /// verdict comes from the same shared scan the ERP kernel uses
    /// (`ssr_distance::scan_gap_costs_with`), so kernel and cascade can
    /// never disagree on which pairs are prunable.
    pub(crate) fn build<E: Element>(elements: &[E]) -> GapPrefix {
        let mut prefix = Vec::with_capacity(elements.len() + 1);
        prefix.push(0.0);
        let scan = ssr_distance::scan_gap_costs_with(elements, |running| prefix.push(running));
        GapPrefix {
            prefix,
            exact: scan.integral,
        }
    }

    /// Gap sum of the half-open element range, or `None` when the sums are
    /// not exact (pruning on them could flip a borderline comparison).
    pub(crate) fn range_sum(&self, range: &std::ops::Range<usize>) -> Option<f64> {
        if !self.exact {
            return None;
        }
        Some(self.prefix[range.end] - self.prefix[range.start])
    }
}

impl SegmentScan {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Whether no segment matched any window.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }
}

/// Builder for a [`SubsequenceDatabase`].
pub struct DatabaseBuilder<E: Element, D: SequenceDistance<E>> {
    config: FrameworkConfig,
    distance: Arc<D>,
    arena: ElementArena<E>,
    build_threads: usize,
}

impl<E: Element + Send + Sync, D: SequenceDistance<E>> DatabaseBuilder<E, D> {
    /// Starts a builder with the given configuration and distance.
    pub fn new(config: FrameworkConfig, distance: D) -> Self {
        DatabaseBuilder {
            config,
            distance: Arc::new(distance),
            arena: ElementArena::default(),
            build_threads: 1,
        }
    }

    /// Number of worker threads used for the index build (step 2): the
    /// backends that support deterministic parallel construction (MV pivot
    /// tables, Reference Net child-distance fan-out) use this count. Window
    /// partitioning (step 1) needs no workers at all anymore — windows are
    /// `(sequence, start, len)` views derived from the arena's boundaries,
    /// so producing them copies nothing. `0` means one worker per available
    /// hardware thread; the default of `1` builds sequentially. The
    /// resulting database is identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.build_threads = crate::parallel::resolve_threads(threads);
        self
    }

    /// Adds one sequence to the database: its elements are copied to the
    /// tail of the builder's [`ElementArena`], the copy the built database
    /// keeps.
    pub fn add_sequence(mut self, sequence: Sequence<E>) -> Self {
        self.push(&sequence);
        self
    }

    /// Adds every sequence of a dataset to the database.
    pub fn add_dataset(mut self, dataset: &SequenceDataset<E>) -> Self {
        for (_, s) in dataset.iter() {
            self.push(s);
        }
        self
    }

    fn push(&mut self, sequence: &Sequence<E>) {
        self.arena
            .push_sequence(sequence.elements(), sequence.label().map(str::to_string));
    }

    /// Validates the configuration, derives the `λ/2` window views over the
    /// gathered [`ElementArena`] and builds the chosen metric index over
    /// their ids.
    pub fn build(self) -> Result<SubsequenceDatabase<E, D>, FrameworkError> {
        self.config.validate()?;
        self.config
            .validate_distance::<E, _>(self.distance.as_ref())?;
        // Step 1: the window views are derived from the arena's sequence
        // boundaries without touching a single element, so there is nothing
        // to parallelise here.
        let windows = Arc::new(WindowStore::partition(self.arena, self.config.window_len()));
        if windows.is_empty() {
            return Err(FrameworkError::EmptyDatabase);
        }
        let counter = CallCounter::new();
        let cell_counter = ssr_distance::CellCounter::new();
        let gap_prefixes = build_gap_prefixes(self.distance.as_ref(), windows.arena());
        let tombstones = vec![false; windows.arena().sequence_count()];
        let window_ids = (0..windows.len()).map(WindowId);
        // The metric takes the store: the database reads it back through
        // its index, so an unshared database holds exactly one handle.
        let metric = CountingMetric::new(
            WindowSliceMetric::new(Arc::clone(&self.distance), windows),
            counter.clone(),
        )
        .with_cell_counter(cell_counter.clone());
        // Step 2: the index stores one WindowId per window; every build-time
        // distance resolves both ids to arena slices through the metric.
        let index = match self.config.backend {
            IndexBackend::ReferenceNet => {
                let mut rn_config =
                    ReferenceNetConfig::with_epsilon_prime(self.config.epsilon_prime);
                if let Some(p) = self.config.max_parents {
                    rn_config = rn_config.with_max_parents(p);
                }
                let mut idx = ReferenceNet::with_config(metric, rn_config)
                    .with_build_threads(self.build_threads);
                idx.extend(window_ids);
                WindowIndex::ReferenceNet(idx)
            }
            IndexBackend::CoverTree => {
                let mut idx = CoverTree::with_epsilon_prime(metric, self.config.epsilon_prime);
                idx.extend(window_ids);
                WindowIndex::CoverTree(idx)
            }
            IndexBackend::MvReference { references } => {
                let mut idx = MvReferenceIndex::new(metric, references)
                    .with_build_threads(self.build_threads);
                idx.extend(window_ids);
                WindowIndex::MvReference(idx)
            }
            IndexBackend::LinearScan => {
                let mut idx = LinearScan::new(metric);
                idx.extend(window_ids);
                WindowIndex::LinearScan(idx)
            }
        };
        // Remember how much the build cost, then reset the shared counters so
        // that subsequent reads reflect query-time work only.
        let build_distance_calls = counter.reset();
        let build_dp_cells = cell_counter.reset();
        let probe_depth = probe_depth_histogram(index.backend_name());
        Ok(SubsequenceDatabase {
            probe_depth,
            index,
            counter,
            cell_counter,
            build_distance_calls,
            build_dp_cells,
            gap_prefixes,
            tombstones,
            config: self.config,
            distance: self.distance,
        })
    }
}

/// Per-sequence gap prefix tables for the verification cascade, built only
/// when the distance can prune on gap sums (ERP-style measures). The scans
/// run over the arena's borrowed sequence slices — the same elements the
/// kernels see — so cascade and kernel can never disagree.
pub(crate) fn build_gap_prefixes<E: Element, D: SequenceDistance<E>>(
    distance: &D,
    arena: &ElementArena<E>,
) -> Option<Arc<Vec<GapPrefix>>> {
    if !distance.uses_gap_sums() {
        return None;
    }
    Some(Arc::new(
        (0..arena.sequence_count())
            .map(|i| {
                GapPrefix::build(
                    arena
                        .sequence_slice(SequenceId(i))
                        .expect("sequence ids are dense"),
                )
            })
            .collect(),
    ))
}

/// A database of sequences prepared for subsequence retrieval: the sequences,
/// their fixed-length windows and a metric index over the windows.
///
/// The element arena behind the index metric's [`WindowStore`] is the single
/// resident copy of every sequence: [`Self::sequence`] and [`Self::windows`]
/// hand out views of it, and the database itself keeps no second handle on
/// the store (see [`WindowSliceMetric`]).
///
/// Fields are crate-visible so that [`crate::storage`] can snapshot a built
/// database and reassemble a loaded one without exposing setters.
pub struct SubsequenceDatabase<E: Element, D: SequenceDistance<E>> {
    pub(crate) config: FrameworkConfig,
    pub(crate) distance: Arc<D>,
    pub(crate) index: WindowIndex<E, D>,
    pub(crate) counter: CallCounter,
    pub(crate) cell_counter: ssr_distance::CellCounter,
    pub(crate) build_distance_calls: u64,
    pub(crate) build_dp_cells: u64,
    /// Per-sequence gap prefix tables for the verification lower-bound
    /// cascade; `None` when the distance cannot prune on gap sums. Shared
    /// with replicas, copy-on-write on append like the store.
    pub(crate) gap_prefixes: Option<Arc<Vec<GapPrefix>>>,
    /// One flag per stored sequence: `true` marks a removed sequence.
    /// Removal never unwinds the arena, the window views or the index items
    /// — those stay physically present so outstanding [`WindowId`]s keep
    /// resolving — it only flips this flag, and the query path filters
    /// matches from dead sequences before verification. [`crate::storage`]
    /// persists the set and a compaction folds it away by rebuilding.
    pub(crate) tombstones: Vec<bool>,
    /// Global telemetry histogram of distance evaluations per family probe
    /// (one index range query for all segments of one query offset),
    /// labelled by backend. A handle into [`ssr_obs::global`], resolved once
    /// at build/load time so the query path never touches the registry lock.
    pub(crate) probe_depth: ssr_obs::Histogram,
}

/// Resolves the shared probe-depth histogram for `backend` from the global
/// registry (registration is idempotent, so every database and replica of
/// the same backend feeds the same series).
pub(crate) fn probe_depth_histogram(backend: &'static str) -> ssr_obs::Histogram {
    ssr_obs::global().histogram_with(
        "ssr_index_probe_depth",
        "Distance evaluations per family probe: one index range query for all segments of one query offset.",
        Some(("backend", backend.to_string())),
    )
}

impl<E: Element + Send + Sync, D: SequenceDistance<E>> SubsequenceDatabase<E, D> {
    /// Starts a [`DatabaseBuilder`].
    pub fn builder(config: FrameworkConfig, distance: D) -> DatabaseBuilder<E, D> {
        DatabaseBuilder::new(config, distance)
    }

    /// The framework configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// The distance measure in use.
    pub fn distance(&self) -> &D {
        &self.distance
    }

    /// An owned copy of every stored sequence (tombstoned ones included, so
    /// ids line up), for callers that need a [`SequenceDataset`] — a
    /// brute-force oracle, query planting. The database keeps none.
    pub fn to_dataset(&self) -> SequenceDataset<E> {
        self.windows().arena().to_dataset()
    }

    /// Number of stored sequences, tombstoned ones included.
    pub fn sequence_count(&self) -> usize {
        self.tombstones.len()
    }

    /// The window store (provenance of every indexed window) and, through
    /// [`WindowStore::arena`], the one resident copy of every element.
    pub fn windows(&self) -> &WindowStore<E> {
        self.index.windows()
    }

    /// Number of indexed windows.
    pub fn window_count(&self) -> usize {
        self.index.len()
    }

    /// Space accounting of the underlying index (Figures 5–7), with the
    /// shared element arena's bytes attributed — the index only borrows the
    /// arena through its metric, so the framework layer, which owns it,
    /// fills in `arena_bytes`. All byte counters are computed from lengths,
    /// never allocator capacities, and are therefore identical on every
    /// machine (`tests/counters.rs` holds them exactly).
    pub fn index_space_stats(&self) -> SpaceStats {
        let mut stats = self.index.space_stats();
        stats.arena_bytes = self.windows().arena().resident_bytes();
        stats
    }

    /// Total deterministic resident bytes of the window/index layout: the
    /// shared element arena, the window store's view table and the index's
    /// per-item handles. The single definition of the footprint: the
    /// counters test holds it exactly and `ssr info` prints it from here, so
    /// the held and the printed figure cannot diverge.
    pub fn resident_window_bytes(&self) -> usize {
        let stats = self.index_space_stats();
        stats.arena_bytes + stats.item_bytes + self.windows().view_bytes()
    }

    /// Number of distance evaluations spent building the index.
    pub fn build_distance_calls(&self) -> u64 {
        self.build_distance_calls
    }

    /// Number of DP cells those build-time evaluations filled.
    pub fn build_dp_cells(&self) -> u64 {
        self.build_dp_cells
    }

    /// Shared counter of query-time distance evaluations made by the index.
    pub fn query_distance_counter(&self) -> &CallCounter {
        &self.counter
    }

    /// Shared counter of query-time DP cells evaluated inside the index
    /// (alongside [`Self::query_distance_counter`]; verification cells are
    /// attributed per query in [`crate::QueryStats::dp_cells_evaluated`]).
    pub fn query_dp_cell_counter(&self) -> &ssr_distance::CellCounter {
        &self.cell_counter
    }

    /// A read-only replica for concurrent serving: shares the window store
    /// (element arena, labels, view table), the distance and the gap-prefix
    /// tables with `self` (`Arc` clones — no element and no table is
    /// copied), duplicates only the index's machine-word item handles and
    /// navigation structure, and gives the replica private query counters so
    /// concurrent queries never contend on — or cross-attribute to — another
    /// replica's atomics.
    ///
    /// Replicas answer queries bit-identically to the original. Appending to
    /// either side while the other is alive is safe: the appending side
    /// copies the shared layers once ([`Self::append_sequence`]) and the
    /// other keeps reading what it had.
    pub fn clone_replica(&self) -> Self {
        let counter = CallCounter::new();
        let cell_counter = ssr_distance::CellCounter::new();
        let mut index = self.index.clone();
        index.set_counters(counter.clone(), cell_counter.clone());
        SubsequenceDatabase {
            config: self.config.clone(),
            distance: Arc::clone(&self.distance),
            index,
            counter,
            cell_counter,
            build_distance_calls: self.build_distance_calls,
            build_dp_cells: self.build_dp_cells,
            gap_prefixes: self.gap_prefixes.clone(),
            tombstones: self.tombstones.clone(),
            probe_depth: self.probe_depth.clone(),
        }
    }

    /// Appends one sequence to the database: its elements and window views
    /// go to the tail of the store (existing ranges and ids are untouched,
    /// so every outstanding window view keeps resolving to the same
    /// elements) and the new windows are inserted into the index in id
    /// order. Because the bulk build is itself an in-order insert loop
    /// (Reference Net, cover tree, linear scan) or a pure function of the
    /// final item set (MV pivot table, rebuilt whole), a database grown by
    /// appends answers queries bit-identically to one built from scratch
    /// over the same sequences.
    ///
    /// **Copy-on-write rule.** The store and the gap-prefix tables sit
    /// behind `Arc`s and are grown through `Arc::make_mut`: in place — the
    /// cost of the new sequence, whatever the database holds — when this
    /// database is their only owner, and on a private copy made once when a
    /// [`Self::clone_replica`] still reads them (the replica keeps its
    /// bounds, window count and answers; the next append is in place again).
    ///
    /// The incremental index work is folded into
    /// [`Self::build_distance_calls`] / [`Self::build_dp_cells`] so the
    /// query-time counters keep reading zero outside of queries.
    pub fn append_sequence(&mut self, sequence: Sequence<E>) -> SequenceId {
        if let Some(prefixes) = &mut self.gap_prefixes {
            Arc::make_mut(prefixes).push(GapPrefix::build(sequence.elements()));
        }
        let label = sequence.label().map(str::to_string);
        let id = self.index.push_sequence(sequence.elements(), label);
        self.tombstones.push(false);
        self.build_distance_calls += self.counter.reset();
        self.build_dp_cells += self.cell_counter.reset();
        id
    }

    /// Tombstones one sequence: its windows stay in the arena and the index
    /// (structural deletion would reshuffle every backend differently), but
    /// the query path drops their matches before verification and
    /// [`Self::sequence`] stops resolving the id. Returns `false` when the
    /// id is unknown or already removed. A snapshot written afterwards
    /// persists the tombstone; rebuilding from the live sequences (see the
    /// WAL layer's compaction) reclaims the space.
    pub fn remove_sequence(&mut self, id: SequenceId) -> bool {
        match self.tombstones.get_mut(id.0) {
            Some(dead) if !*dead => {
                *dead = true;
                true
            }
            _ => false,
        }
    }

    /// Whether `id` names a stored, non-tombstoned sequence.
    pub fn is_live(&self, id: SequenceId) -> bool {
        self.tombstones.get(id.0).is_some_and(|dead| !dead)
    }

    /// Number of live (non-tombstoned) sequences.
    pub fn live_sequence_count(&self) -> usize {
        self.tombstones.iter().filter(|dead| !**dead).count()
    }

    /// Ids of tombstoned sequences in increasing order (the snapshot layer
    /// persists exactly this set).
    pub fn tombstoned_sequences(&self) -> Vec<SequenceId> {
        self.tombstones
            .iter()
            .enumerate()
            .filter(|(_, dead)| **dead)
            .map(|(i, _)| SequenceId(i))
            .collect()
    }

    /// Steps 3–4: matches every query segment against the indexed windows
    /// within radius `epsilon`. The matches come by increasing segment
    /// length, then query offset, then window id.
    pub fn matching_segments(&self, query: &Sequence<E>, epsilon: f64) -> SegmentScan {
        self.matching_segments_ctx(query, epsilon, &mut crate::query::ExecCtx::default())
    }

    /// [`Self::matching_segments`] with stage timing attribution. Index
    /// distance calls are counted through [`CallCounter::thread_total`] so the
    /// attribution stays exact (and bit-identical to a sequential run) when
    /// several batch-engine workers query the shared index concurrently.
    ///
    /// The query is walked by offset, not by segment: the segments that
    /// start at one offset are prefixes of one another, one
    /// [`end table`](SequenceDistance::end_table) answers them all against
    /// a window, and so the index is asked once per offset for the whole
    /// [`SegmentFamily`] ([`RangeIndex::family_query`]). A window's
    /// [free-start column](SequenceDistance::free_start_column) over the
    /// whole query, computed on its first visit, is shared by every family
    /// that visits it later.
    pub(crate) fn matching_segments_ctx(
        &self,
        query: &Sequence<E>,
        epsilon: f64,
        ctx: &mut crate::query::ExecCtx,
    ) -> SegmentScan {
        let spec = self.config.segment_spec();
        let segment_started = Instant::now();
        // The families borrow the query, so step 3 copies nothing; what it
        // prepares once is the query side of the per-lane gap-sum bound and
        // the state every family query of this scan reuses.
        let query_gap = self
            .gap_prefixes
            .is_some()
            .then(|| GapPrefix::build(query.elements()));
        let mut scratch = FamilyScratch::default();
        let windows = self.windows();
        let mut columns = FreeStartColumns::new(query.elements(), windows.len());
        let mut per_lane = vec![Vec::new(); spec.length_count()];
        let segment_ns = segment_started.elapsed().as_nanos() as u64;
        ctx.timings.segment_ns += segment_ns;
        ctx.span("segment", segment_ns);
        let filter_started = Instant::now();
        let before = CallCounter::thread_total();
        let cells_before = ssr_distance::dp_cells_thread_total();
        let prunes_before = ssr_distance::lower_bound_prunes_thread_total();
        for family in ssr_sequence::segment_families(query.elements(), spec) {
            let probe_before = CallCounter::thread_total();
            self.index.family_query(
                family.lanes(),
                epsilon,
                |item, tau, out| {
                    self.probe_family(&family, query_gap.as_ref(), &mut columns, item, tau, out)
                },
                &mut scratch,
            );
            self.probe_depth
                .observe(CallCounter::thread_total() - probe_before);
            for &(lane, id) in scratch.hits() {
                let window_id = WindowId(id.0);
                let window = stored_window(windows, window_id);
                // Tombstone filter: windows of removed sequences stay in the
                // index (the probe above may still have spent distance calls
                // on them — inherent to tombstoning), but their matches are
                // dropped here, before the recompute and before verification
                // ever sees the candidate.
                if self.tombstones[window.sequence.0] {
                    continue;
                }
                let segment = family.segment(lane);
                let window_slice = window_slice(windows, &window);
                // The index certified d ≤ ε, so the thresholded recompute
                // always completes; the fallback covers the one legitimate
                // exception — bulk-accepted items whose triangle-inequality
                // certificate was rounded right at the radius boundary.
                let distance = self
                    .distance
                    .distance_within(segment, window_slice, epsilon)
                    .unwrap_or_else(|| self.distance.distance(segment, window_slice));
                per_lane[lane].push(SegmentMatch {
                    window: window_id,
                    sequence: window.sequence,
                    window_index: window.window_index(windows.window_len()),
                    db_start: window.start,
                    query_start: family.start,
                    query_len: segment.len(),
                    distance,
                });
            }
        }
        // Chaining breaks its ties by input order, so the order is part of
        // the contract: by segment length first, as when every segment was
        // probed on its own.
        let matches = per_lane.concat();
        let distance_calls = CallCounter::thread_total() - before;
        let dp_cells = ssr_distance::dp_cells_thread_total() - cells_before;
        let pruned_by_lower_bound = ssr_distance::lower_bound_prunes_thread_total() - prunes_before;
        let filter_ns = filter_started.elapsed().as_nanos() as u64;
        ctx.timings.filter_ns += filter_ns;
        ctx.span("filter", filter_ns);
        SegmentScan {
            matches,
            distance_calls,
            dp_cells,
            pruned_by_lower_bound,
        }
    }

    /// One visit of a family range query: the distance from each segment of
    /// `family` to the window `item` — exact when `≤ tau`, `∞` otherwise —
    /// into that lane's slot of `out`, all from one end table over the
    /// longest of them and the window.
    ///
    /// The bound a kernel tries before its program stays in front of the
    /// table, per lane and in `O(1)`: when a lower bound already puts every
    /// lane beyond `tau`, no program runs and the visit is tallied as one
    /// lower-bound prune. Past it, the window's free-start column over the
    /// whole query bounds every lane by its end: when it puts every lane
    /// beyond `tau`, no table runs either. That visit is not a lower-bound
    /// prune; its saving shows in the cells, as the column's pass is
    /// charged to the visit that fills it.
    fn probe_family(
        &self,
        family: &SegmentFamily<'_, E>,
        query_gap: Option<&GapPrefix>,
        columns: &mut FreeStartColumns<'_, E>,
        item: WindowId,
        tau: f64,
        out: &mut [f64],
    ) {
        let windows = self.windows();
        let window = stored_window(windows, item);
        let b = window_slice(windows, &window);
        let window_sum = self
            .gap_prefixes
            .as_ref()
            .and_then(|prefixes| prefixes[window.sequence.0].range_sum(&window.range(b.len())));
        let bounded = |lane: usize| {
            let q_range = family.start..family.start + family.min_len + lane;
            let sums = query_gap
                .and_then(|gap| gap.range_sum(&q_range))
                .zip(window_sum);
            self.bounded_out((q_range.len(), b.len()), sums, tau)
        };
        if (0..family.lanes()).all(bounded) {
            ssr_distance::record_lower_bound_prune();
            out.fill(f64::INFINITY);
            return;
        }
        let first_end = family.start + family.min_len;
        if let Some(column) = columns.column(&*self.distance, item, b) {
            // `>` rather than `!≤`: a NaN bound rules nothing out.
            if column[first_end..first_end + family.lanes()]
                .iter()
                .all(|&bound| bound > tau)
            {
                out.fill(f64::INFINITY);
                return;
            }
        }
        let ends = EndSpec {
            min_a: family.min_len,
            min_b: b.len(),
            max_len_diff: usize::MAX,
        };
        self.distance.end_table(family.longest, b, ends, tau, out);
    }

    /// The `O(1)` cascade in front of every dynamic program: whether an
    /// exact lower bound on the distance of two subsequences — from their
    /// lengths, and from their gap sums where the caller has both exactly —
    /// already exceeds `tau`. `partial_cmp` spelled out so a NaN threshold
    /// prunes rather than silently accepting.
    pub(crate) fn bounded_out(
        &self,
        (q_len, x_len): (usize, usize),
        gap_sums: Option<(f64, f64)>,
        tau: f64,
    ) -> bool {
        let mut lower = self.distance.length_lower_bound(q_len, x_len);
        if let Some((sum_q, sum_x)) = gap_sums {
            lower = lower.max(self.distance.gap_sum_lower_bound(sum_q, sum_x));
        }
        !matches!(
            lower.partial_cmp(&tau),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }

    /// Looks up a stored sequence: a view of its elements in the arena and
    /// its label. Tombstoned sequences are gone from this view: the id
    /// resolves to `None` exactly as an unknown id does.
    pub fn sequence(&self, id: SequenceId) -> Option<SequenceView<'_, E>> {
        if !self.is_live(id) {
            return None;
        }
        self.windows().arena().sequence(id)
    }
}

/// The free-start columns of one query: for each window visited, its
/// [`SequenceDistance::free_start_column`] over the whole query, computed on
/// the first visit by any family and read by every later one. Entry `e` of
/// a column bounds the distance of every segment that ends at `e`, whatever
/// its offset. Nothing per window is allocated until the measure answers
/// with a column, and a measure that gives none for one window is not asked
/// again in the query: every built-in decides by the window's length and
/// element type, which all windows share.
struct FreeStartColumns<'q, E> {
    /// The whole query: the text of every column.
    query: &'q [E],
    /// Windows in the store, the length of `slots` once it exists.
    window_count: usize,
    /// Per window id, the index of its column in `columns`, or
    /// [`FreeStartColumns::UNVISITED`]; empty until the first column.
    slots: Vec<u32>,
    /// The columns, `|Q| + 1` values each.
    columns: Vec<f64>,
    /// The measure gave no column: ask no more in this query.
    refused: bool,
}

impl<'q, E: Element> FreeStartColumns<'q, E> {
    const UNVISITED: u32 = u32::MAX;

    fn new(query: &'q [E], window_count: usize) -> Self {
        FreeStartColumns {
            query,
            window_count,
            slots: Vec::new(),
            columns: Vec::new(),
            refused: false,
        }
    }

    /// The column of window `id`, whose elements are `pattern`: from the
    /// cache, or computed into it now. `None` when the measure has none.
    fn column<D: SequenceDistance<E> + ?Sized>(
        &mut self,
        distance: &D,
        id: WindowId,
        pattern: &[E],
    ) -> Option<&[f64]> {
        if self.refused {
            return None;
        }
        let len = self.query.len() + 1;
        match self.slots.get(id.0) {
            Some(&slot) if slot != Self::UNVISITED => {
                return Some(&self.columns[slot as usize * len..][..len]);
            }
            _ => {}
        }
        let at = self.columns.len();
        self.columns.resize(at + len, 0.0);
        if !distance.free_start_column(self.query, pattern, &mut self.columns[at..]) {
            self.refused = true;
            return None;
        }
        if self.slots.is_empty() {
            self.slots = vec![Self::UNVISITED; self.window_count];
        }
        self.slots[id.0] = (at / len) as u32;
        Some(&self.columns[at..])
    }
}

fn stored_window<E: Element>(windows: &WindowStore<E>, id: WindowId) -> Window {
    windows.get(id).expect("index ids correspond to window ids")
}

fn window_slice<'a, E: Element>(windows: &'a WindowStore<E>, window: &Window) -> &'a [E] {
    windows
        .resolve(window)
        .expect("window views resolve against their own arena")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_distance::{Dtw, Levenshtein};
    use ssr_sequence::Symbol;

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    fn small_config() -> FrameworkConfig {
        FrameworkConfig::new(8).with_max_shift(1)
    }

    #[test]
    fn build_partitions_and_indexes_windows() {
        let db = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
            .add_sequence(seq("ACDEFGHI"))
            .build()
            .unwrap();
        // 20/4 + 8/4 = 5 + 2 windows of length lambda/2 = 4.
        assert_eq!(db.window_count(), 7);
        assert_eq!(db.windows().window_len(), 4);
        assert!(db.build_distance_calls() > 0);
        assert_eq!(db.query_distance_counter().get(), 0);
    }

    #[test]
    fn all_backends_build_and_answer_segment_queries() {
        for backend in [
            IndexBackend::ReferenceNet,
            IndexBackend::CoverTree,
            IndexBackend::MvReference { references: 3 },
            IndexBackend::LinearScan,
        ] {
            let db = SubsequenceDatabase::builder(
                small_config().with_backend(backend),
                Levenshtein::new(),
            )
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWYACDEFGHI"))
            .build()
            .unwrap();
            let scan = db.matching_segments(&seq("ACDEFGHI"), 1.0);
            assert!(
                !scan.is_empty(),
                "backend {backend} found no matching windows"
            );
            assert!(scan.matches.iter().all(|m| m.distance <= 1.0));
            if backend == IndexBackend::LinearScan {
                assert!(scan.distance_calls > 0);
            }
        }
    }

    #[test]
    fn empty_database_is_rejected() {
        let result = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("ACk"))
            .build();
        assert!(matches!(result, Err(FrameworkError::EmptyDatabase)));
    }

    #[test]
    fn non_metric_distance_requires_linear_scan() {
        let err = SubsequenceDatabase::<Symbol, _>::builder(small_config(), Dtw::new())
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
            .build();
        assert!(matches!(err, Err(FrameworkError::UnsupportedDistance(_))));

        let ok = SubsequenceDatabase::<Symbol, _>::builder(
            small_config().with_backend(IndexBackend::LinearScan),
            Dtw::new(),
        )
        .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
        .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn matching_segments_reports_provenance() {
        let db = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("AAAACCCCGGGGTTTT"))
            .build()
            .unwrap();
        let scan = db.matching_segments(&seq("CCCC"), 0.0);
        assert!(!scan.is_empty());
        let matches = &scan.matches;
        for m in matches {
            assert_eq!(m.sequence, SequenceId(0));
            let window = db.windows().get(m.window).unwrap();
            assert_eq!(window.start, m.db_start);
            assert_eq!(m.distance, 0.0);
        }
        // The exact-match window is the second one (elements 4..8).
        assert!(matches.iter().any(|m| m.db_start == 4));
    }

    #[test]
    fn append_matches_from_scratch_build_on_every_backend() {
        for backend in [
            IndexBackend::ReferenceNet,
            IndexBackend::CoverTree,
            IndexBackend::MvReference { references: 3 },
            IndexBackend::LinearScan,
        ] {
            let mut grown = SubsequenceDatabase::builder(
                small_config().with_backend(backend),
                Levenshtein::new(),
            )
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
            .build()
            .unwrap();
            let id = grown.append_sequence(seq("ACDEFGHI"));
            assert_eq!(id, SequenceId(1));
            assert_eq!(
                grown.query_distance_counter().get(),
                0,
                "append work must fold into build counters"
            );
            let scratch = SubsequenceDatabase::builder(
                small_config().with_backend(backend),
                Levenshtein::new(),
            )
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
            .add_sequence(seq("ACDEFGHI"))
            .build()
            .unwrap();
            assert_eq!(grown.window_count(), scratch.window_count());
            assert_eq!(grown.index.stored_items(), scratch.index.stored_items());
            let a = grown.matching_segments(&seq("ACDEFGHI"), 1.0);
            let b = scratch.matching_segments(&seq("ACDEFGHI"), 1.0);
            assert_eq!(a, b, "backend {backend} diverged after append");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn short_append_adds_no_windows_but_stays_queryable() {
        let mut db = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWY"))
            .build()
            .unwrap();
        let before = db.window_count();
        // Shorter than window_len = 4: no window fits, but the sequence is
        // stored and the database still answers queries.
        let id = db.append_sequence(seq("AC"));
        assert_eq!(db.window_count(), before);
        assert!(db.sequence(id).is_some());
        assert!(!db.matching_segments(&seq("ACDEFGHI"), 1.0).is_empty());
    }

    #[test]
    fn remove_tombstones_and_filters_matches() {
        let mut db = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("AAAACCCCGGGGTTTT"))
            .add_sequence(seq("CCCCAAAA"))
            .build()
            .unwrap();
        let windows_before = db.window_count();
        assert!(db.remove_sequence(SequenceId(0)));
        // Second removal and unknown ids are no-ops.
        assert!(!db.remove_sequence(SequenceId(0)));
        assert!(!db.remove_sequence(SequenceId(9)));
        assert!(!db.is_live(SequenceId(0)));
        assert!(db.sequence(SequenceId(0)).is_none());
        assert_eq!(db.live_sequence_count(), 1);
        assert_eq!(db.tombstoned_sequences(), vec![SequenceId(0)]);
        // Windows stay physically present; matches from the dead sequence
        // are filtered at query time.
        assert_eq!(db.window_count(), windows_before);
        let scan = db.matching_segments(&seq("CCCC"), 0.0);
        assert!(!scan.is_empty());
        assert!(scan.matches.iter().all(|m| m.sequence == SequenceId(1)));
    }

    #[test]
    fn index_space_stats_are_populated() {
        let db = SubsequenceDatabase::builder(small_config(), Levenshtein::new())
            .add_sequence(seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"))
            .build()
            .unwrap();
        let stats = db.index_space_stats();
        assert_eq!(stats.items, db.window_count());
        assert!(stats.entries >= stats.items - 1);
    }
}
