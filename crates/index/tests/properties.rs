//! Property tests: every index structure must answer range queries exactly
//! like a brute-force linear scan, for any metric, dataset and radius, and the
//! Reference Net must preserve its structural invariants — the per-node
//! reach bounds included — under arbitrary insert / delete interleavings and
//! across a snapshot round-trip. Thresholding, on probe or on insert, may
//! save DP cells but never changes a structure, an answer or a call count.
//! A family query answers every lane as the one-lane query would, and visits
//! no more nodes than those queries together.

use proptest::prelude::*;

use ssr_distance::{CallCounter, Levenshtein, SequenceDistance};
use ssr_index::{
    CountingMetric, CoverTree, FamilyScratch, FnMetric, ItemId, LinearScan, Metric,
    MvReferenceIndex, RangeIndex, ReferenceNet, ReferenceNetConfig, SequenceMetricAdapter,
};
use ssr_sequence::Symbol;
use ssr_storage::{DecodeWith, Encode, Reader, Writer};

fn scalar_metric() -> FnMetric<fn(&f64, &f64) -> f64> {
    FnMetric(|a: &f64, b: &f64| (a - b).abs())
}

fn sorted_ids(ids: Vec<ItemId>) -> Vec<usize> {
    let mut v: Vec<usize> = ids.into_iter().map(|i| i.0).collect();
    v.sort_unstable();
    v
}

fn encoded<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Lane `l` of the family asks for `queries[l]`. Every lane must get the
/// answer of its own one-lane query, and the family must visit at least the
/// nodes its hungriest lane visits alone and at most those all lanes visit
/// between them — each node once, never once per lane.
fn family_is_the_union_of_its_lanes<I: RangeIndex<f64>>(
    index: &I,
    counter: &CallCounter,
    queries: &[f64],
    radius: f64,
) -> Result<(), TestCaseError> {
    let mut alone = Vec::new();
    let mut calls_alone = Vec::new();
    for query in queries {
        counter.reset();
        alone.push(sorted_ids(index.range_query(query, radius)));
        calls_alone.push(counter.get());
    }
    let mut visits = 0u64;
    let mut scratch = FamilyScratch::default();
    index.family_query(
        queries.len(),
        radius,
        |item, tau, out| {
            visits += 1;
            for (slot, query) in out.iter_mut().zip(queries) {
                *slot = scalar_metric()
                    .dist_within(query, item, tau)
                    .unwrap_or(f64::INFINITY);
            }
        },
        &mut scratch,
    );
    prop_assert!(scratch.hits().is_sorted(), "hits come by lane, then by id");
    for (lane, expected) in alone.iter().enumerate() {
        let hits = scratch.hits().iter().filter(|hit| hit.0 == lane);
        let got: Vec<usize> = hits.map(|hit| hit.1 .0).collect();
        prop_assert_eq!(&got, expected, "lane {}", lane);
    }
    let most = calls_alone.iter().copied().max().unwrap_or(0);
    let total: u64 = calls_alone.iter().sum();
    prop_assert!(
        most <= visits && visits <= total,
        "{} visits for lanes that take {:?} alone",
        visits,
        calls_alone
    );
    Ok(())
}

type WindowFn = fn(&Vec<Symbol>, &Vec<Symbol>) -> f64;

/// Levenshtein over the threshold-aware sequence kernel (banded +
/// early-abandoning `dist_within`).
fn kernel_metric() -> SequenceMetricAdapter<Levenshtein> {
    SequenceMetricAdapter::new(Levenshtein::new())
}

/// The same distance as a plain closure, whose default `dist_within` runs the
/// full DP and compares afterwards.
fn full_dp_metric() -> FnMetric<WindowFn> {
    FnMetric(|a, b| SequenceDistance::<Symbol>::distance(&Levenshtein::new(), a, b))
}

fn symbol_window(len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..20).prop_map(|i| Symbol::from_char(b"ACDEFGHIKLMNPQRSTVWY"[i as usize] as char)),
        len..=len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reference_net_matches_linear_scan_on_scalars(
        values in prop::collection::vec(-100.0f64..100.0, 1..80),
        query in -120.0f64..120.0,
        radius in 0.0f64..60.0,
        epsilon_prime in prop::sample::select(vec![0.5f64, 1.0, 3.0]),
        cap in prop::option::of(1usize..4),
    ) {
        let mut config = ReferenceNetConfig::with_epsilon_prime(epsilon_prime);
        if let Some(c) = cap {
            config = config.with_max_parents(c);
        }
        let mut net = ReferenceNet::with_config(scalar_metric(), config);
        let mut scan = LinearScan::new(scalar_metric());
        for &v in &values {
            net.insert(v);
            scan.insert(v);
        }
        net.check_invariants().unwrap();
        prop_assert_eq!(
            sorted_ids(net.range_query(&query, radius)),
            sorted_ids(scan.range_query(&query, radius))
        );
    }

    #[test]
    fn cover_tree_matches_linear_scan_on_scalars(
        values in prop::collection::vec(-50.0f64..50.0, 1..80),
        query in -60.0f64..60.0,
        radius in 0.0f64..40.0,
    ) {
        let mut tree = CoverTree::new(scalar_metric());
        let mut scan = LinearScan::new(scalar_metric());
        for &v in &values {
            tree.insert(v);
            scan.insert(v);
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(
            sorted_ids(tree.range_query(&query, radius)),
            sorted_ids(scan.range_query(&query, radius))
        );
    }

    #[test]
    fn mv_reference_matches_linear_scan_on_scalars(
        values in prop::collection::vec(-50.0f64..50.0, 1..80),
        query in -60.0f64..60.0,
        radius in 0.0f64..40.0,
        k in 1usize..8,
    ) {
        let mut mv = MvReferenceIndex::new(scalar_metric(), k);
        mv.extend(values.iter().copied());
        let mut scan = LinearScan::new(scalar_metric());
        scan.extend(values.iter().copied());
        prop_assert_eq!(
            sorted_ids(mv.range_query(&query, radius)),
            sorted_ids(scan.range_query(&query, radius))
        );
    }

    #[test]
    fn family_queries_equal_their_one_lane_queries(
        values in prop::collection::vec(-50.0f64..50.0, 1..80),
        queries in prop::collection::vec(-60.0f64..60.0, 1..7),
        radius in 0.0f64..40.0,
        cap in prop::option::of(1usize..4),
        delete_every in 2usize..9,
        wide in any::<bool>(),
    ) {
        // A wide family has more lanes than one mask word holds.
        let lanes = if wide { 65 + queries.len() } else { queries.len() };
        let queries: Vec<f64> = queries.iter().copied().cycle().take(lanes).collect();
        let counter = CallCounter::new();
        let counted = || CountingMetric::new(scalar_metric(), counter.clone());

        let mut config = ReferenceNetConfig::default();
        if let Some(c) = cap {
            config = config.with_max_parents(c);
        }
        let mut net = ReferenceNet::with_config(counted(), config);
        net.extend(values.iter().copied());
        family_is_the_union_of_its_lanes(&net, &counter, &queries, radius)?;
        for i in (0..values.len()).step_by(delete_every) {
            net.delete(ItemId(i));
        }
        family_is_the_union_of_its_lanes(&net, &counter, &queries, radius)?;
        let loaded =
            ReferenceNet::<f64, _>::decode_with(&mut Reader::new(&encoded(&net)), counted())
                .unwrap();
        family_is_the_union_of_its_lanes(&loaded, &counter, &queries, radius)?;

        let mut tree = CoverTree::new(counted());
        tree.extend(values.iter().copied());
        family_is_the_union_of_its_lanes(&tree, &counter, &queries, radius)?;
        let loaded =
            CoverTree::<f64, _>::decode_with(&mut Reader::new(&encoded(&tree)), counted())
                .unwrap();
        family_is_the_union_of_its_lanes(&loaded, &counter, &queries, radius)?;

        let mut mv = MvReferenceIndex::new(counted(), 3);
        mv.extend(values.iter().copied());
        family_is_the_union_of_its_lanes(&mv, &counter, &queries, radius)?;
        let loaded =
            MvReferenceIndex::<f64, _>::decode_with(&mut Reader::new(&encoded(&mv)), counted())
                .unwrap();
        family_is_the_union_of_its_lanes(&loaded, &counter, &queries, radius)?;

        let mut scan = LinearScan::new(counted());
        scan.extend(values.iter().copied());
        family_is_the_union_of_its_lanes(&scan, &counter, &queries, radius)?;
    }

    #[test]
    fn all_indexes_agree_on_levenshtein_windows(
        windows in prop::collection::vec(symbol_window(8), 1..40),
        query in symbol_window(8),
        radius in 0.0f64..8.0,
    ) {
        let metric = || SequenceMetricAdapter::new(Levenshtein::new());
        let mut net = ReferenceNet::new(metric());
        let mut tree = CoverTree::new(metric());
        let mut mv = MvReferenceIndex::new(metric(), 4);
        let mut scan = LinearScan::new(metric());
        for w in &windows {
            net.insert(w.clone());
            tree.insert(w.clone());
            scan.insert(w.clone());
        }
        mv.extend(windows.iter().cloned());
        net.check_invariants().unwrap();
        let expected = sorted_ids(scan.range_query(&query, radius));
        prop_assert_eq!(sorted_ids(net.range_query(&query, radius)), expected.clone());
        prop_assert_eq!(sorted_ids(tree.range_query(&query, radius)), expected.clone());
        prop_assert_eq!(sorted_ids(mv.range_query(&query, radius)), expected);
    }

    #[test]
    fn threshold_path_preserves_results_and_distance_call_counts(
        windows in prop::collection::vec(symbol_window(8), 1..40),
        query in symbol_window(8),
        radius in 0.0f64..8.0,
    ) {
        // The same indexes built twice: once over the threshold-aware
        // sequence kernel, once over the full-DP closure metric. Results AND
        // per-query distance-call counts must agree exactly — pruning saves
        // DP cells, never calls or answers.
        macro_rules! compare {
            ($build:expr) => {{
                let kc = CallCounter::new();
                let fc = CallCounter::new();
                let with_kernel = $build(CountingMetric::new(kernel_metric(), kc.clone()));
                let with_full = $build(CountingMetric::new(full_dp_metric(), fc.clone()));
                kc.reset();
                fc.reset();
                let a = sorted_ids(with_kernel.range_query(&query, radius));
                let b = sorted_ids(with_full.range_query(&query, radius));
                prop_assert_eq!(a, b);
                prop_assert_eq!(kc.get(), fc.get(), "distance-call counts diverged");
            }};
        }
        compare!(|m| {
            let mut idx = ReferenceNet::new(m);
            idx.extend(windows.iter().cloned());
            idx
        });
        compare!(|m| {
            let mut idx = CoverTree::new(m);
            idx.extend(windows.iter().cloned());
            idx
        });
        compare!(|m| {
            let mut idx = MvReferenceIndex::new(m, 4);
            idx.extend(windows.iter().cloned());
            idx
        });
        compare!(|m| {
            let mut idx = LinearScan::new(m);
            idx.extend(windows.iter().cloned());
            idx
        });
    }

    #[test]
    fn reference_net_survives_insert_delete_interleavings(
        ops in prop::collection::vec((any::<bool>(), -30.0f64..30.0), 1..120),
        query in -40.0f64..40.0,
        radius in 0.0f64..20.0,
        cap in prop::option::of(1usize..4),
    ) {
        // `true` inserts the value, `false` deletes the oldest live item.
        let mut config = ReferenceNetConfig::default();
        if let Some(c) = cap {
            config = config.with_max_parents(c);
        }
        let mut net = ReferenceNet::with_config(scalar_metric(), config);
        let mut reference: Vec<(usize, f64, bool)> = Vec::new(); // (id, value, alive)
        for (insert, value) in ops {
            if insert || reference.iter().all(|&(_, _, alive)| !alive) {
                let id = net.insert(value);
                reference.push((id.0, value, true));
            } else {
                let entry = reference
                    .iter_mut()
                    .find(|(_, _, alive)| *alive)
                    .expect("checked above that a live item exists");
                entry.2 = false;
                let id = entry.0;
                prop_assert!(net.delete(ItemId(id)), "delete of live item must succeed");
            }
            // Includes: the reach kept up to date by this very operation is
            // the one a from-scratch pass computes, and it bounds every
            // derived reference.
            net.check_invariants().unwrap();
        }
        let expected: Vec<usize> = reference
            .iter()
            .filter(|&&(_, v, alive)| alive && (v - query).abs() <= radius)
            .map(|&(id, _, _)| id)
            .collect();
        prop_assert_eq!(sorted_ids(net.range_query(&query, radius)), expected.clone());

        // Reach is not in the snapshot: the loaded net derives it again.
        let bytes = encoded(&net);
        let loaded =
            ReferenceNet::<f64, _>::decode_with(&mut Reader::new(&bytes), scalar_metric()).unwrap();
        loaded.check_invariants().unwrap();
        prop_assert_eq!(sorted_ids(loaded.range_query(&query, radius)), expected);
        prop_assert_eq!(encoded(&loaded), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn insert_thresholding_is_invisible(
        // Random windows sit far apart, so the root's list is wide enough
        // (>= 64 pending children) for the parallel gather to engage.
        windows in prop::collection::vec(symbol_window(8), 100..220),
    ) {
        // The insert descent only keeps children within the level's radius
        // and cuts each distance call off there. Built over the thresholded
        // kernel or over the full DP, the structure and the number of build
        // calls must be the same.
        macro_rules! compare {
            ($build:expr) => {{
                let kc = CallCounter::new();
                let fc = CallCounter::new();
                let with_kernel = $build(CountingMetric::new(kernel_metric(), kc.clone()));
                let with_full = $build(CountingMetric::new(full_dp_metric(), fc.clone()));
                prop_assert_eq!(kc.get(), fc.get(), "build distance-call counts diverged");
                prop_assert_eq!(encoded(&with_kernel), encoded(&with_full));
                with_kernel.check_invariants().unwrap();
            }};
        }
        for threads in [1, 4] {
            compare!(|m| {
                let mut idx = ReferenceNet::new(m).with_build_threads(threads);
                idx.extend(windows.iter().cloned());
                idx
            });
        }
        compare!(|m| {
            let mut idx = CoverTree::new(m);
            idx.extend(windows.iter().cloned());
            idx
        });
    }
}

/// A 2-D point carrying its insertion index, which is its item id.
type Point = (usize, [f64; 2]);

type PlaneMetric = FnMetric<fn(&Point, &Point) -> f64>;

fn plane_metric() -> PlaneMetric {
    FnMetric(|a: &Point, b: &Point| (a.1[0] - b.1[0]).hypot(a.1[1] - b.1[1]))
}

/// `count` points, uniform in [0, 1000)², from a SplitMix64 stream.
fn uniform_points(count: usize, seed: u64) -> Vec<[f64; 2]> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| [1000.0 * unit(), 1000.0 * unit()])
        .collect()
}

/// A family query at a selective radius over 20 K points, whose lane `l`
/// asks for the query point moved `l` to the right, must touch no more
/// node slots than `C` times what it visits: the nodes it probes, the
/// children they have (the walk pushes to them), and its hits (a
/// reach-accept enumerates them). A walk that reads every node, or enters
/// a subtree every lane has excluded, touches thousands of times that.
fn walk_touches_what_it_visits<I: RangeIndex<Point>>(
    index: &I,
    list_len: impl Fn(ItemId) -> usize,
    scan: &LinearScan<Point, PlaneMetric>,
    queries: &[[f64; 2]],
) {
    // Every touched slot is the root, a child some visited node pushed to,
    // or a hit. A visited node that is not probed is a child of a probed
    // one, which has decided it for every lane, and its children are not
    // counted here; on these points the walks touch 0.14–0.39 of the bound.
    const C: usize = 1;
    const LANES: usize = 5;
    const RADIUS: f64 = 5.0;
    let lane_distances = |q: &[f64; 2], item: &Point, tau: f64, out: &mut [f64]| {
        for (lane, slot) in out.iter_mut().enumerate() {
            let at = (0, [q[0] + lane as f64, q[1]]);
            *slot = plane_metric()
                .dist_within(&at, item, tau)
                .unwrap_or(f64::INFINITY);
        }
    };
    let (mut scratch, mut expected) = (FamilyScratch::default(), FamilyScratch::default());
    for q in queries {
        let (mut calls, mut children) = (0, 0);
        let probe = |item: &Point, tau, out: &mut [f64]| {
            calls += 1;
            children += list_len(ItemId(item.0));
            lane_distances(q, item, tau, out);
        };
        index.family_query(LANES, RADIUS, probe, &mut scratch);
        scan.family_query(
            LANES,
            RADIUS,
            |item, tau, out| lane_distances(q, item, tau, out),
            &mut expected,
        );
        assert_eq!(scratch.hits(), expected.hits());
        let visited = calls + children + scratch.hits().len();
        assert!(
            scratch.touched() <= C * visited,
            "{} slots touched for {calls} probes, {children} children and {} hits",
            scratch.touched(),
            scratch.hits().len()
        );
    }
}

#[test]
fn tree_walks_touch_only_what_they_visit() {
    let points = uniform_points(20_000, 42);
    let items = || points.iter().copied().enumerate();
    let queries = uniform_points(20, 7);
    let mut scan = LinearScan::new(plane_metric());
    scan.extend(items());
    let mut net = ReferenceNet::new(plane_metric());
    net.extend(items());
    walk_touches_what_it_visits(&net, |id| net.list_len(id), &scan, &queries);
    let mut tree = CoverTree::new(plane_metric());
    tree.extend(items());
    walk_touches_what_it_visits(&tree, |id| tree.list_len(id), &scan, &queries);
}
