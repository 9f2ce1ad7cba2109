//! Index-level snapshot round-trips: a decoded index must answer range
//! queries with the same results AND the same number of metric evaluations
//! as the original, because the framework's per-query statistics (and the CI
//! perf gate built on them) depend on the exact structure, including the
//! order references are visited in.

use ssr_distance::CallCounter;
use ssr_index::metric::{CountingMetric, FnMetric};
use ssr_index::{CoverTree, LinearScan, MvReferenceIndex, RangeIndex, ReferenceNet};
use ssr_storage::{DecodeWith, Encode, Reader, Writer};

type ScalarMetric = CountingMetric<FnMetric<fn(&f64, &f64) -> f64>>;

fn scalar_distance(a: &f64, b: &f64) -> f64 {
    (a - b).abs()
}

fn counted_metric() -> (ScalarMetric, CallCounter) {
    let counter = CallCounter::new();
    let metric = CountingMetric::new(
        FnMetric(scalar_distance as fn(&f64, &f64) -> f64),
        counter.clone(),
    );
    (metric, counter)
}

fn values() -> Vec<f64> {
    (0..600).map(|i| ((i * 37) % 599) as f64 * 0.25).collect()
}

const QUERIES: [(f64, f64); 4] = [(10.0, 2.0), (75.5, 0.5), (0.0, 40.0), (149.0, 0.0)];

/// Runs the queries against `index`, returning (sorted ids, call count) per
/// query with the counter reset around each.
fn probe<I: RangeIndex<f64>>(index: &I, counter: &CallCounter) -> Vec<(Vec<usize>, u64)> {
    QUERIES
        .iter()
        .map(|&(q, r)| {
            counter.reset();
            let mut ids: Vec<usize> = index.range_query(&q, r).into_iter().map(|i| i.0).collect();
            ids.sort_unstable();
            (ids, counter.get())
        })
        .collect()
}

fn roundtrip_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

#[test]
fn reference_net_roundtrips_with_identical_query_behaviour() {
    let (metric, counter) = counted_metric();
    let mut net = ReferenceNet::new(metric);
    net.extend(values());
    // Deletions exercise dead nodes and re-attachment state in the snapshot.
    net.delete(ssr_index::ItemId(3));
    net.delete(ssr_index::ItemId(100));
    let before = probe(&net, &counter);

    let bytes = roundtrip_bytes(&net);
    let (metric2, counter2) = counted_metric();
    let loaded = ReferenceNet::<f64, _>::decode_with(&mut Reader::new(&bytes), metric2).unwrap();
    assert_eq!(loaded.len(), net.len());
    loaded.check_invariants().unwrap();
    assert_eq!(probe(&loaded, &counter2), before);
    assert_eq!(loaded.space_stats(), net.space_stats());
    assert!(loaded.space_stats().serialized_bytes > 0);
}

#[test]
fn cover_tree_roundtrips_with_identical_query_behaviour() {
    let (metric, counter) = counted_metric();
    let mut tree = CoverTree::new(metric);
    tree.extend(values());
    let before = probe(&tree, &counter);

    let bytes = roundtrip_bytes(&tree);
    let (metric2, counter2) = counted_metric();
    let loaded = CoverTree::<f64, _>::decode_with(&mut Reader::new(&bytes), metric2).unwrap();
    loaded.check_invariants().unwrap();
    assert_eq!(probe(&loaded, &counter2), before);
    assert_eq!(loaded.space_stats(), tree.space_stats());
}

#[test]
fn mv_reference_roundtrips_with_identical_query_behaviour() {
    let (metric, counter) = counted_metric();
    let mut idx = MvReferenceIndex::new(metric, 7);
    idx.extend(values());
    let before = probe(&idx, &counter);

    let bytes = roundtrip_bytes(&idx);
    let (metric2, counter2) = counted_metric();
    let loaded =
        MvReferenceIndex::<f64, _>::decode_with(&mut Reader::new(&bytes), metric2).unwrap();
    assert_eq!(probe(&loaded, &counter2), before);
    assert_eq!(loaded.space_stats(), idx.space_stats());
}

#[test]
fn linear_scan_roundtrips() {
    let (metric, counter) = counted_metric();
    let mut scan = LinearScan::new(metric);
    scan.extend(values());
    let before = probe(&scan, &counter);

    let bytes = roundtrip_bytes(&scan);
    let (metric2, counter2) = counted_metric();
    let loaded = LinearScan::<f64, _>::decode_with(&mut Reader::new(&bytes), metric2).unwrap();
    assert_eq!(probe(&loaded, &counter2), before);
    assert_eq!(loaded.space_stats().serialized_bytes, 0);
}

#[test]
fn structurally_invalid_payloads_yield_malformed_errors() {
    use ssr_storage::StorageError;

    // An MV index whose pivot table claims more rows than items.
    let mut w = Writer::new();
    vec![1.0f64, 2.0].encode(&mut w); // 2 items
    w.put_usize(1); // num_references
    w.put_usize(64); // selection_sample
    vec![0usize].encode(&mut w); // references
    vec![vec![0.0f64], vec![1.0], vec![2.0]].encode(&mut w); // 3 rows
    let (metric, _) = counted_metric();
    let err = MvReferenceIndex::<f64, _>::decode_with(&mut Reader::new(w.bytes()), metric)
        .err()
        .expect("mismatched table must be rejected");
    assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");

    // A reference net with an out-of-range root.
    let mut w = Writer::new();
    vec![1.0f64].encode(&mut w); // items
    w.put_f64(1.0); // epsilon_prime
    Option::<usize>::None.encode(&mut w); // max_parents
    w.put_usize(1); // one node
    w.put_i32(0);
    Vec::<usize>::new().encode(&mut w);
    Vec::<usize>::new().encode(&mut w);
    w.put_bool(true);
    vec![(0i32, vec![0usize])].encode(&mut w); // by_level
    Some(9usize).encode(&mut w); // root out of range
    w.put_usize(1); // live_count
    let (metric, _) = counted_metric();
    let err = ReferenceNet::<f64, _>::decode_with(&mut Reader::new(w.bytes()), metric)
        .err()
        .expect("out-of-range root must be rejected");
    assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");

    // A cover tree whose two nodes are each other's parent: bulk decisions
    // walk child lists down and reach maintenance walks parents up, so an
    // edge that does not descend a level must be refused, not followed.
    let mut w = Writer::new();
    vec![1.0f64, 2.0].encode(&mut w); // items
    w.put_f64(1.0); // epsilon_prime
    w.put_usize(2); // two nodes
    for other in [1usize, 0] {
        w.put_i32(1); // same level
        Some(other).encode(&mut w); // parent
        vec![other].encode(&mut w); // children
    }
    vec![(1i32, vec![0usize, 1])].encode(&mut w); // by_level
    Some(0usize).encode(&mut w); // root
    let (metric, _) = counted_metric();
    let err = CoverTree::<f64, _>::decode_with(&mut Reader::new(w.bytes()), metric)
        .err()
        .expect("a parent cycle must be rejected");
    assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");

    // The same cycle in a reference net.
    let mut w = Writer::new();
    vec![1.0f64, 2.0].encode(&mut w); // items
    w.put_f64(1.0); // epsilon_prime
    Option::<usize>::None.encode(&mut w); // max_parents
    w.put_usize(2); // two nodes
    for other in [1usize, 0] {
        w.put_i32(1); // same level
        vec![other].encode(&mut w); // parents
        vec![other].encode(&mut w); // children
        w.put_bool(true);
    }
    vec![(1i32, vec![0usize, 1])].encode(&mut w); // by_level
    Some(0usize).encode(&mut w); // root
    w.put_usize(2); // live_count
    let (metric, _) = counted_metric();
    let err = ReferenceNet::<f64, _>::decode_with(&mut Reader::new(w.bytes()), metric)
        .err()
        .expect("a parent cycle must be rejected");
    assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");

    // A query walks down from the root and visits a node once every
    // parent it counts has pushed to it. An edge its parent does not list
    // (or a listing the child does not count) would hide the node from
    // every query, so the snapshot is malformed. Root 0 at level 1, node 1
    // at level 0, the edge 0 -> 1 on one side only.
    for (parents_of_1, children_of_0) in [(vec![0usize], vec![]), (vec![], vec![1usize])] {
        let mut w = Writer::new();
        vec![1.0f64, 2.0].encode(&mut w); // items
        w.put_f64(1.0); // epsilon_prime
        Option::<usize>::None.encode(&mut w); // max_parents
        w.put_usize(2); // two nodes
        w.put_i32(1);
        Vec::<usize>::new().encode(&mut w);
        children_of_0.encode(&mut w);
        w.put_bool(true);
        w.put_i32(0);
        parents_of_1.encode(&mut w);
        Vec::<usize>::new().encode(&mut w);
        w.put_bool(true);
        vec![(0i32, vec![1usize]), (1, vec![0])].encode(&mut w); // by_level
        Some(0usize).encode(&mut w); // root
        w.put_usize(2); // live_count
        let (metric, _) = counted_metric();
        let err = ReferenceNet::<f64, _>::decode_with(&mut Reader::new(w.bytes()), metric)
            .err()
            .expect("a one-sided edge must be rejected");
        assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");
    }
}
