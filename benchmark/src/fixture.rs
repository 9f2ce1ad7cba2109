//! Set-up shared by the untraced and the traced run: generate the inputs,
//! build the database, put a replica behind a server and another under a
//! `LiveDatabase`. The whole of it is what `setup_s` times.

use std::path::Path;
use std::time::Instant;

use ssr_core::{
    brute, FrameworkConfig, IndexBackend, LiveDatabase, ServeConfig, Server, SubsequenceDatabase,
};
use ssr_datagen::{plant_query, QueryConfig};
use ssr_sequence::{Sequence, SequenceDataset};

use crate::check::{validate_match, Tally};
use crate::inputs::{generate, Inputs, Regime, Workload, CONNECTIONS};
use crate::stats::median;

/// Times the set-up this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;

pub type Db<R> = SubsequenceDatabase<<R as Regime>::E, <R as Regime>::D>;

/// A built system ready to be measured.
pub struct Fixture<R: Regime> {
    pub inputs: Inputs<R::E>,
    pub db: Db<R>,
    pub server: Server<R::E, R::D>,
    pub live: LiveDatabase<R::E, R::D>,
}

pub fn framework_config(workload: &Workload, backend: IndexBackend) -> FrameworkConfig {
    FrameworkConfig {
        max_verifications: workload.max_verifications,
        ..FrameworkConfig::new(workload.lambda)
            .with_max_shift(workload.max_shift)
            .with_backend(backend)
    }
}

pub fn build_database<R: Regime>(
    workload: &Workload,
    backend: IndexBackend,
    dataset: &SequenceDataset<R::E>,
) -> Db<R> {
    SubsequenceDatabase::builder(framework_config(workload, backend), R::distance())
        .add_dataset(dataset)
        .build()
        .expect("the workload's configuration is valid")
}

/// The server configuration of the served phase: two workers for the two
/// closed-loop connections, everything else the code's defaults (16×256
/// cache entries, queue depth 64).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: CONNECTIONS,
        ..ServeConfig::default()
    }
}

fn set_up_once<R: Regime>(workload: &Workload, seed: u64, snapshot: &Path) -> Fixture<R> {
    let inputs = generate::<R>(workload, seed);
    let db = build_database::<R>(workload, IndexBackend::ReferenceNet, &inputs.dataset);
    let server = Server::bind(db.clone_replica(), "127.0.0.1:0", serve_config())
        .expect("bind a loopback port");
    let live =
        LiveDatabase::create(snapshot, db.clone_replica()).expect("create the live database");
    Fixture {
        inputs,
        db,
        server,
        live,
    }
}

impl<R: Regime> Fixture<R> {
    /// Sets the system up [`SETUP_REPEATS`] times, keeps the last and
    /// returns it with the median set-up time in seconds.
    pub fn set_up(workload: &Workload, seed: u64, scratch: &Path) -> (Self, f64) {
        let snapshot = scratch.join("live.ssr");
        let mut seconds = Vec::with_capacity(SETUP_REPEATS);
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = kept.take() {
                Fixture::<R>::tear_down(previous);
            }
            let started = Instant::now();
            let fixture = set_up_once::<R>(workload, seed, &snapshot);
            seconds.push(started.elapsed().as_secs_f64());
            kept = Some(fixture);
        }
        (kept.expect("at least one set-up"), median(&seconds))
    }

    /// Stops the server and waits for its threads.
    pub fn tear_down(self) {
        self.server.shutdown();
    }
}

/// Brute-force spot check: on a database of three short sequences, the
/// framework's Type II answer is checked against the longest similar pair
/// found by evaluating every subsequence pair. The answer must be a valid
/// pair and no longer than the true longest one. An answer *shorter* than
/// that (or none) is reported on standard error and not failed: Type II
/// expands chained candidates within fixed limits and promises the longest
/// pair among those (on SONGS about one seed in twenty falls short).
pub fn brute_force_spot_check<R: Regime>(
    workload: &Workload,
    inputs: &Inputs<R::E>,
    seed: u64,
    tally: &mut Tally,
) {
    let keep = workload.planted_len + 2 * workload.window_len();
    let mut mini = SequenceDataset::new();
    for sequence in inputs
        .dataset
        .sequences()
        .iter()
        .filter(|s| s.len() >= keep)
        .take(3)
    {
        mini.push(Sequence::new(sequence.elements()[..keep].to_vec()));
    }
    let db = build_database::<R>(workload, IndexBackend::ReferenceNet, &mini);
    let config = QueryConfig {
        planted_len: workload.planted_len,
        context_len: 2,
        perturbation_rate: workload.perturbation,
        seed,
    };
    let planted =
        plant_query(&mini, &R::mutator(workload), &config).expect("mini sequences are long enough");
    let answer = db.query_type2(&planted.query, workload.epsilon);
    let truth = brute::longest_similar_pair(
        &planted.query,
        &mini,
        db.distance(),
        brute::BruteConstraints {
            lambda: workload.lambda,
            max_shift: workload.max_shift,
        },
        workload.epsilon,
    );
    let found_len = answer.result.as_ref().map(|m| m.query_len());
    let true_len = truth.as_ref().map(|m| m.query_len());
    let valid = answer.result.as_ref().map_or(Ok(()), |found| {
        validate_match(&db, &planted.query, found, workload.epsilon)
    });
    tally.record(valid.and_then(|()| {
        if found_len > true_len {
            Err(format!(
                "brute force finds a longest match of length {true_len:?}, the framework {found_len:?}"
            ))
        } else {
            Ok(())
        }
    }));
    if found_len < true_len {
        eprintln!(
            "# {}: spot check: the framework's longest match is {found_len:?} long, brute force finds {true_len:?}",
            workload.name
        );
    }
}
