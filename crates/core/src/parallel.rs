//! Dependency-free worker-pool primitives built on [`std::thread::scope`].
//!
//! The build environment has no crates.io access, so instead of `rayon` the
//! batch engine fans work out with scoped threads: [`parallel_map`] applies a
//! function to every element of a slice using up to `threads` workers pulling
//! indices from a shared atomic cursor, and returns the results **in input
//! order** — `threads = 1` degenerates to a plain sequential loop, so results
//! are bit-identical at every thread count. [`ShardedMemo`] is a
//! mutex-sharded concurrent map: the query server's result cache.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "one worker per available
/// hardware thread", any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Applies `f` to every element of `items` on up to `threads` scoped workers
/// and returns the results in input order.
///
/// Scheduling is dynamic (workers claim the next unprocessed index from an
/// atomic cursor), so uneven per-item costs balance automatically. With
/// `threads <= 1` — or a single item — the function runs sequentially on the
/// calling thread; because `f` must be deterministic anyway, the output is
/// identical at every thread count, only the wall-clock changes.
///
/// Panics in `f` propagate to the caller once the scope joins.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected
                    .lock()
                    .expect("a worker panicked while collecting results")
                    .extend(local);
            });
        }
    });
    let mut results = collected
        .into_inner()
        .expect("a worker panicked while collecting results");
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A concurrent map sharded over `shards` mutexes, so that workers hitting
/// different keys rarely contend on the same lock.
///
/// Values are cloned out on lookup; keep them small (the result cache
/// stores `Arc`s).
///
/// Every shard also keeps hit/miss/eviction tallies on lock-free atomics
/// (recorded only while [`ssr_obs::enabled`] — the default), so the query
/// server's result cache can expose per-shard telemetry without touching
/// the shard locks at scrape time.
pub struct ShardedMemo<K, V> {
    hasher: RandomState,
    shards: Vec<Shard<K, V>>,
}

struct Shard<K, V> {
    map: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

/// One shard's cache accounting: lookup hits and misses, plus entries
/// dropped by [`ShardedMemo::insert_evicting`]'s coarse shard clear.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped when a full shard was cleared for a new insert.
    pub evicted: u64,
}

impl<K: Eq + Hash, V: Clone> ShardedMemo<K, V> {
    /// Creates a memo with the given number of shards (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedMemo {
            hasher: RandomState::new(),
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evicted: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Looks up a key, cloning the value out.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let value = shard
            .map
            .lock()
            .expect("memo shard poisoned")
            .get(key)
            .cloned();
        if ssr_obs::enabled() {
            let tally = if value.is_some() {
                &shard.hits
            } else {
                &shard.misses
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Inserts under a per-shard capacity (last writer wins): a full shard is
    /// emptied before the new entry goes in. The eviction is deliberately coarse — one
    /// `clear` instead of per-entry bookkeeping — which keeps the hot path
    /// at a single short critical section and bounds total entries at
    /// `shards × shard_capacity`. Replacing an existing key never evicts.
    pub fn insert_evicting(&self, key: K, value: V, shard_capacity: usize) {
        let shard = self.shard(&key);
        let mut map = shard.map.lock().expect("memo shard poisoned");
        if map.len() >= shard_capacity.max(1) && !map.contains_key(&key) {
            if ssr_obs::enabled() {
                shard.evicted.fetch_add(map.len() as u64, Ordering::Relaxed);
            }
            map.clear();
        }
        map.insert(key, value);
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Whether the memo holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard hit/miss/eviction tallies, in shard order. Lock-free: the
    /// counts are read from the shard atomics without taking any map lock.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evicted: s.evicted.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Folds over every resident entry (shard by shard, each under its own
    /// lock). The query server sizes its result cache with this.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            let map = shard.map.lock().expect("memo shard poisoned");
            for (k, v) in map.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn parallel_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_balances_uneven_work() {
        // Items with wildly different costs still come back in order.
        let items: Vec<usize> = (0..64).collect();
        let got = parallel_map(4, &items, |_, &x| {
            let mut acc = 0usize;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, &(x, _)) in got.iter().enumerate() {
            assert_eq!(i, x);
        }
    }

    #[test]
    fn sharded_memo_roundtrips_values() {
        let memo: ShardedMemo<(usize, usize), f64> = ShardedMemo::new(8);
        assert!(memo.is_empty());
        assert_eq!(memo.get(&(1, 2)), None);
        memo.insert_evicting((1, 2), 0.5, 8);
        memo.insert_evicting((3, 4), 1.5, 8);
        assert_eq!(memo.get(&(1, 2)), Some(0.5));
        assert_eq!(memo.get(&(3, 4)), Some(1.5));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn sharded_memo_is_safe_under_concurrent_writers() {
        let memo: ShardedMemo<usize, usize> = ShardedMemo::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..100 {
                        memo.insert_evicting(t * 1000 + i, i, 400);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 400);
        assert_eq!(memo.get(&2050), Some(50));
    }
}
