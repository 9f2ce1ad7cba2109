//! Workload definitions and seeded input generation.
//!
//! Every input — dataset, planted queries, the mutation stream and the
//! request schedule — is a pure function of the workload and `--seed`, built
//! from `ssr-datagen`; the program under test only ever sees the generated
//! values.

use ssr_datagen::{
    generate_proteins, generate_songs, generate_trajectories, plant_query, PitchMutator,
    PlantedQuery, PointMutator, ProteinConfig, QueryConfig, QueryMutator, SongsConfig,
    SymbolMutator, TrajConfig,
};
use ssr_distance::{DiscreteFrechet, Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Pitch, Point2D, Sequence, SequenceDataset, SequenceId, Symbol};
use ssr_storage::StorableElement;
#[cfg(test)]
use ssr_storage::{Encode, Writer};

/// Queries every request schedule draws its repeated ("hot") requests from;
/// small enough to sit in the server's 16×256-entry result cache.
pub const HOT_QUERIES: usize = 16;
/// Never-repeated ("cold") queries available to each of the two connections.
pub const COLD_PER_CONNECTION: usize = 200;
/// Closed-loop client connections of the served phase (`nproc` is 2).
pub const CONNECTIONS: usize = 2;
/// Planted queries generated per run.
pub const QUERY_COUNT: usize = HOT_QUERIES + CONNECTIONS * COLD_PER_CONNECTION;
/// Untimed `append_sequence` calls at the head of the mutation stream. With
/// the removals among them they warm the append path and leave the log that
/// every reopen replays.
pub const REPLAY_APPENDS: usize = 180;
/// Operations in that head: the appends and one removal per
/// [`APPENDS_PER_REMOVE`] of them.
pub const REPLAY_OPS: usize = REPLAY_APPENDS + REPLAY_APPENDS / APPENDS_PER_REMOVE;
/// Timed `append_sequence` calls that follow, a few every round: more than
/// the rounds of a run get through.
pub const TIMED_APPENDS: usize = 480;
const APPENDS: usize = REPLAY_APPENDS + TIMED_APPENDS;
/// One `remove_sequence` follows every this many appends (20 in total).
const APPENDS_PER_REMOVE: usize = 9;
/// The share of the corpus generated from `--seed` is one in this many.
const SEEDED_CORPUS_DIVISOR: usize = 8;
/// Windows in each appended sequence: enough index work per append that the
/// log's fsync, whose latency belongs to the disk and its other tenants, is
/// a small part of what `append_p50_ms` times.
const APPEND_WINDOWS: usize = 6;

/// The data family of a workload: element type, distance and generators.
pub trait Regime {
    type E: Element + StorableElement + Send + Sync + 'static;
    type D: SequenceDistance<Self::E> + Clone + Send + Sync + 'static;
    type M: QueryMutator<Self::E>;

    fn distance() -> Self::D;
    fn mutator(workload: &Workload) -> Self::M;
    /// About `windows` windows of length `window_len` (the caller trims).
    fn generate(windows: usize, window_len: usize, seed: u64) -> SequenceDataset<Self::E>;
}

/// PROTEINS strings under Levenshtein.
pub struct Proteins;
/// TRAJ 2-D trajectories under the discrete Fréchet distance.
pub struct Trajectories;
/// SONGS pitch series under ERP.
pub struct Songs;

impl Regime for Proteins {
    type E = Symbol;
    type D = Levenshtein;
    type M = SymbolMutator;

    fn distance() -> Levenshtein {
        Levenshtein::new()
    }
    fn mutator(_: &Workload) -> SymbolMutator {
        SymbolMutator
    }
    fn generate(windows: usize, window_len: usize, seed: u64) -> SequenceDataset<Symbol> {
        generate_proteins(&ProteinConfig::sized_for_windows(windows, window_len, seed))
    }
}

impl Regime for Trajectories {
    type E = Point2D;
    type D = DiscreteFrechet;
    type M = PointMutator;

    fn distance() -> DiscreteFrechet {
        DiscreteFrechet::new()
    }
    fn mutator(workload: &Workload) -> PointMutator {
        PointMutator {
            jitter: workload.jitter,
            ..PointMutator::default()
        }
    }
    fn generate(windows: usize, window_len: usize, seed: u64) -> SequenceDataset<Point2D> {
        generate_trajectories(&TrajConfig {
            // The default 80-unit lane is shorter than a trajectory travels,
            // so most vehicles end parked at a lane end and a few queries
            // planted there meet thousands of near-identical windows. A lane
            // longer than any trajectory keeps query cost homogeneous, which
            // is what lets a 20-second run repeat within its bounds.
            lane_length: 320.0,
            ..TrajConfig::sized_for_windows(windows, window_len, seed)
        })
    }
}

impl Regime for Songs {
    type E = Pitch;
    type D = Erp;
    type M = PitchMutator;

    fn distance() -> Erp {
        Erp::new()
    }
    fn mutator(_: &Workload) -> PitchMutator {
        PitchMutator
    }
    fn generate(windows: usize, window_len: usize, seed: u64) -> SequenceDataset<Pitch> {
        generate_songs(&SongsConfig::sized_for_windows(windows, window_len, seed))
    }
}

/// Which data family a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Proteins,
    Trajectories,
    Songs,
}

/// One workload: a data family plus the framework and traffic parameters.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, shown in `BENCHMARK.json`).
    pub why: &'static str,
    pub family: Family,
    /// Minimum subsequence length λ (windows are λ/2 long).
    pub lambda: usize,
    /// Maximum temporal shift λ0.
    pub max_shift: usize,
    /// Exact number of database windows.
    pub windows: usize,
    /// Seed of the part of the corpus that is the same for every `--seed`.
    pub corpus_seed: u64,
    /// Radius of Type I / II queries.
    pub epsilon: f64,
    /// Upper bound and step of the Type III sweep.
    pub epsilon_max: f64,
    pub epsilon_step: f64,
    /// Planted query shape: excised length, random context either side,
    /// share of planted positions perturbed.
    pub planted_len: usize,
    pub context_len: usize,
    pub perturbation: f64,
    /// Magnitude of the perturbation of trajectory points.
    pub jitter: f64,
    /// Share of served requests drawn from the [`HOT_QUERIES`] hot set; the
    /// rest are never repeated.
    pub hot_share: f64,
    /// Verification budget per query (`FrameworkConfig::max_verifications`).
    pub max_verifications: usize,
}

/// The framework's default verification budget.
const DEFAULT_VERIFICATIONS: usize = 200_000;
/// SONGS pitches live on twelve values, so a query planted in a flat stretch
/// of a song is within the radius of tens of thousands of subsequence pairs
/// and costs ten times the median; how many such queries a seed draws then
/// decides every tail and mean. A server bounds that tail with the
/// framework's own budget, and so does this workload: the budget counts
/// verifications, not time, so a faster kernel still shows.
const SONGS_VERIFICATIONS: usize = 20_000;

impl Workload {
    pub fn window_len(&self) -> usize {
        self.lambda / 2
    }
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "proteins-lev",
        why: "Wide Levenshtein radius on short protein windows: the index prunes almost nothing, so filtering (probe + string kernel) is ~3/4 of query time; all requests distinct, so the result cache is bypassed.",
        family: Family::Proteins,
        lambda: 40,
        max_shift: 2,
        windows: 240,
        corpus_seed: 101,
        epsilon: 4.0,
        epsilon_max: 8.0,
        epsilon_step: 1.0,
        planted_len: 44,
        context_len: 8,
        perturbation: 0.05,
        jitter: 0.0,
        hot_share: 0.0,
        max_verifications: DEFAULT_VERIFICATIONS,
    },
    Workload {
        name: "traj-dfd",
        why: "Selective Frechet radius on trajectories: the index skips ~6/7 of a scan, so expansion + verification with a float kernel is ~60% of query time; all requests distinct, so the cache is bypassed.",
        family: Family::Trajectories,
        lambda: 24,
        max_shift: 2,
        windows: 1000,
        corpus_seed: 102,
        epsilon: 4.0,
        epsilon_max: 8.0,
        epsilon_step: 1.0,
        planted_len: 40,
        context_len: 6,
        perturbation: 0.5,
        jitter: 0.3,
        hot_share: 0.0,
        max_verifications: DEFAULT_VERIFICATIONS,
    },
    Workload {
        name: "serve-traj",
        why: "The trajectory family at half the size, 80% of requests from 16 hot queries: the median request is wire + framing + a cache hit, only the tail reaches the engine.",
        family: Family::Trajectories,
        lambda: 24,
        max_shift: 2,
        windows: 500,
        corpus_seed: 103,
        epsilon: 4.0,
        epsilon_max: 8.0,
        epsilon_step: 1.0,
        planted_len: 40,
        context_len: 6,
        perturbation: 0.5,
        jitter: 0.3,
        hot_share: 0.8,
        max_verifications: DEFAULT_VERIFICATIONS,
    },
    Workload {
        name: "live-songs-erp",
        why: "12-value pitch series under ERP (its gap-sum bound prunes ~86% of calls), 80% hot requests: reads, appends, replay and compaction share one index and arena, so a probe gain that costs inserts shows.",
        family: Family::Songs,
        lambda: 24,
        max_shift: 2,
        windows: 800,
        corpus_seed: 104,
        epsilon: 8.0,
        epsilon_max: 8.0,
        epsilon_step: 1.0,
        planted_len: 40,
        context_len: 6,
        perturbation: 0.1,
        jitter: 0.0,
        hot_share: 0.8,
        max_verifications: SONGS_VERIFICATIONS,
    },
];

/// SplitMix64: derives sub-seeds and the request schedule from `--seed`
/// without pulling in a PRNG crate.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One step of the mutation stream.
#[derive(Clone, Debug)]
pub enum Mutation<E> {
    Append(Sequence<E>),
    Remove(SequenceId),
}

/// Everything one run feeds the program.
pub struct Inputs<E> {
    pub dataset: SequenceDataset<E>,
    pub queries: Vec<PlantedQuery<E>>,
    /// [`REPLAY_OPS`] untimed operations — [`REPLAY_APPENDS`] appends
    /// interleaved with 20 removals of earlier appends — then
    /// [`TIMED_APPENDS`] appends.
    pub mutations: Vec<Mutation<E>>,
    /// Per connection, the indices into `queries` it requests, in order.
    pub schedules: Vec<Vec<usize>>,
}

/// Keeps whole sequences until exactly `windows` windows are reached,
/// truncating the last one, so every seed yields the same database size.
fn trim_to_windows<E: Element>(
    generated: &SequenceDataset<E>,
    window_len: usize,
    windows: usize,
) -> SequenceDataset<E> {
    let mut dataset = SequenceDataset::new();
    let mut total = 0;
    for (_, sequence) in generated.iter() {
        let available = sequence.len() / window_len;
        if available == 0 {
            continue;
        }
        let take = available.min(windows - total);
        let elements = if take < available {
            sequence.elements()[..take * window_len].to_vec()
        } else {
            sequence.elements().to_vec()
        };
        dataset.push(match sequence.label() {
            Some(label) => Sequence::with_label(elements, label),
            None => Sequence::new(elements),
        });
        total += take;
        if total == windows {
            return dataset;
        }
    }
    panic!("generator produced {total} windows, fewer than the {windows} requested");
}

/// Exactly `windows` windows of the regime's data. The generators size only
/// approximately, so this asks for a margin and trims.
fn sized_corpus<R: Regime>(windows: usize, window_len: usize, seed: u64) -> SequenceDataset<R::E> {
    let generated = R::generate(windows * 5 / 4 + 4 * window_len, window_len, seed);
    trim_to_windows(&generated, window_len, windows)
}

/// Generates the inputs of `workload` for `seed`.
pub fn generate<R: Regime>(workload: &Workload, seed: u64) -> Inputs<R::E> {
    let mut mix = Mix::new(seed);
    let window_len = workload.window_len();
    // Seven eighths of the corpus belong to the workload, one eighth to the
    // seed. A few hundred windows are a small sample of a generator: drawn
    // afresh per seed, how many near-duplicate regions a corpus happens to
    // hold moved tails and throughputs by 15-25 % between seeds, more than
    // the bounds allow. Every seed still builds a different index over a
    // different arena, and draws all of its traffic.
    let seeded_windows = workload.windows / SEEDED_CORPUS_DIVISOR;
    let mut dataset = sized_corpus::<R>(
        workload.windows - seeded_windows,
        window_len,
        workload.corpus_seed,
    );
    for (_, sequence) in sized_corpus::<R>(seeded_windows, window_len, mix.next_u64()).iter() {
        dataset.push(sequence.clone());
    }

    let mutator = R::mutator(workload);
    let queries = (0..QUERY_COUNT)
        .map(|_| {
            let config = QueryConfig {
                planted_len: workload.planted_len,
                context_len: workload.context_len,
                perturbation_rate: workload.perturbation,
                seed: mix.next_u64(),
            };
            plant_query(&dataset, &mutator, &config).expect("a sequence long enough to plant from")
        })
        .collect();

    let append_len = APPEND_WINDOWS * window_len;
    // Appended sequences are `append_len`-element pieces of a second,
    // independently seeded generation.
    let fresh = R::generate(APPENDS * APPEND_WINDOWS * 3, window_len, mix.next_u64());
    let mut appended = fresh
        .iter()
        .flat_map(|(_, s)| s.elements().chunks_exact(append_len))
        .map(|piece| Sequence::new(piece.to_vec()));
    let mut mutations = Vec::with_capacity(REPLAY_OPS + TIMED_APPENDS);
    for i in 0..APPENDS {
        mutations.push(Mutation::Append(
            appended.next().expect("enough fresh sequences to append"),
        ));
        if i < REPLAY_APPENDS && (i + 1) % APPENDS_PER_REMOVE == 0 {
            // Remove the sequence appended half a period ago: the base data
            // the queries were planted from stays intact.
            let victim = dataset.len() + i - APPENDS_PER_REMOVE / 2;
            mutations.push(Mutation::Remove(SequenceId(victim)));
        }
    }

    let schedules = (0..CONNECTIONS)
        .map(|connection| {
            let mut schedule = Vec::new();
            let mut cold = 0;
            while cold < COLD_PER_CONNECTION {
                if mix.next_f64() < workload.hot_share {
                    schedule.push((mix.next_u64() % HOT_QUERIES as u64) as usize);
                } else {
                    schedule.push(HOT_QUERIES + cold * CONNECTIONS + connection);
                    cold += 1;
                }
            }
            schedule
        })
        .collect();

    Inputs {
        dataset,
        queries,
        mutations,
        schedules,
    }
}

#[cfg(test)]
impl<E: Element + Encode> Inputs<E> {
    /// Every generated value in one byte string, for the determinism tests.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for (_, sequence) in self.dataset.iter() {
            sequence.elements().to_vec().encode(&mut w);
        }
        for planted in &self.queries {
            planted.query.elements().to_vec().encode(&mut w);
            w.put_usize(planted.source.0);
            w.put_usize(planted.source_range.start);
            w.put_usize(planted.query_range.start);
        }
        for mutation in &self.mutations {
            match mutation {
                Mutation::Append(sequence) => sequence.elements().to_vec().encode(&mut w),
                Mutation::Remove(id) => w.put_usize(id.0),
            }
        }
        for schedule in &self.schedules {
            for &index in schedule {
                w.put_usize(index);
            }
        }
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_sequence::partition_windows_dataset;

    fn bytes(workload: &Workload, seed: u64) -> Vec<u8> {
        match workload.family {
            Family::Proteins => generate::<Proteins>(workload, seed).to_bytes(),
            Family::Trajectories => generate::<Trajectories>(workload, seed).to_bytes(),
            Family::Songs => generate::<Songs>(workload, seed).to_bytes(),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_does_not() {
        for workload in &WORKLOADS {
            let first = bytes(workload, 42);
            assert_eq!(first, bytes(workload, 42), "{}", workload.name);
            assert_ne!(first, bytes(workload, 7), "{}", workload.name);
        }
    }

    #[test]
    fn every_seed_yields_exactly_the_declared_window_count() {
        for seed in [1, 2, 3] {
            let workload = &WORKLOADS[2];
            let inputs = generate::<Trajectories>(workload, seed);
            let store = partition_windows_dataset(&inputs.dataset, workload.window_len());
            assert_eq!(store.len(), workload.windows);
        }
    }

    #[test]
    fn the_mutation_stream_removes_only_earlier_appends() {
        let workload = &WORKLOADS[3];
        let inputs = generate::<Songs>(workload, 42);
        let mut next_id = inputs.dataset.len();
        let mut removed = Vec::new();
        for mutation in &inputs.mutations {
            match mutation {
                Mutation::Append(sequence) => {
                    assert_eq!(sequence.len(), APPEND_WINDOWS * workload.window_len());
                    next_id += 1;
                }
                Mutation::Remove(id) => {
                    assert!(id.0 >= inputs.dataset.len() && id.0 < next_id);
                    assert!(!removed.contains(&id.0));
                    removed.push(id.0);
                }
            }
        }
        assert_eq!(next_id - inputs.dataset.len(), APPENDS);
        assert_eq!(removed.len(), 20);
        assert_eq!(inputs.mutations.len(), REPLAY_OPS + TIMED_APPENDS);
        let timed = &inputs.mutations[REPLAY_OPS..];
        assert!(timed.iter().all(|m| matches!(m, Mutation::Append(_))));
    }

    #[test]
    fn schedules_repeat_only_hot_queries() {
        for workload in &WORKLOADS {
            let inputs = match workload.family {
                Family::Songs => generate::<Songs>(workload, 9).schedules,
                Family::Proteins => generate::<Proteins>(workload, 9).schedules,
                Family::Trajectories => generate::<Trajectories>(workload, 9).schedules,
            };
            let mut cold: Vec<usize> = inputs
                .iter()
                .flatten()
                .copied()
                .filter(|&q| q >= HOT_QUERIES)
                .collect();
            let hot = inputs.iter().flatten().count() - cold.len();
            assert_eq!(cold.len(), CONNECTIONS * COLD_PER_CONNECTION);
            cold.sort_unstable();
            cold.dedup();
            assert_eq!(cold.len(), CONNECTIONS * COLD_PER_CONNECTION);
            assert!(cold.iter().all(|&q| q < QUERY_COUNT));
            assert_eq!(hot == 0, workload.hot_share == 0.0, "{}", workload.name);
        }
    }
}
