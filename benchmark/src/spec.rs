//! The benchmark's declared surface: its workloads and every metric name,
//! unit, direction and regression bound. `BENCHMARK.json` at the repo root is
//! this module rendered by the `spec` subcommand; a unit test holds the two
//! equal and a run refuses to print a metric set that differs from it.

use crate::inputs::WORKLOADS;
use crate::json::Json;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the repo root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// The index backends compared in the `index.*` rows.
pub const BACKENDS: [&str; 4] = ["reference-net", "cover-tree", "mv-reference", "linear-scan"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is set on end-to-end metrics only.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// End-to-end metrics: `(name, unit, better, bound)`. Every timing carries
/// the widest bound the contract allows: the spread across ten seeds on the
/// shared machine this was sized on leaves no room for less (see README.md).
const END_TO_END: [(&str, &str, Better, f64); 10] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("type2_p50_ms", "ms", Better::Lower, 0.25),
    ("type1_p50_ms", "ms", Better::Lower, 0.25),
    ("type3_p50_ms", "ms", Better::Lower, 0.25),
    ("batch_qps", "1/s", Better::Higher, 0.25),
    ("bytes_per_window", "B", Better::Lower, 0.02),
    ("req_per_s", "1/s", Better::Higher, 0.25),
    ("append_p50_ms", "ms", Better::Lower, 0.25),
    ("reopen_ms", "ms", Better::Lower, 0.25),
    ("compact_ms", "ms", Better::Lower, 0.25),
];

/// Per-layer metrics outside the per-backend `index.*` block.
const PER_LAYER: [(&str, &str, Better); 53] = [
    ("distance.full_ns_per_cell", "ns", Better::Lower),
    ("distance.within_ns_per_call", "ns", Better::Lower),
    ("distance.within_cells_per_call", "count", Better::Lower),
    ("distance.within_accept_frac", "ratio", Better::Lower),
    ("distance.lb_prune_frac", "ratio", Better::Higher),
    ("query.segment_ms_per_query", "ms", Better::Lower),
    ("query.filter_ms_per_query", "ms", Better::Lower),
    ("query.chain_ms_per_query", "ms", Better::Lower),
    ("query.verify_ms_per_query", "ms", Better::Lower),
    ("query.attributed_frac", "ratio", Better::Higher),
    ("query.segments_per_query", "count", Better::Lower),
    ("query.index_calls_per_query", "count", Better::Lower),
    ("query.segment_matches_per_query", "count", Better::Lower),
    ("query.candidates_per_query", "count", Better::Lower),
    ("query.verifications_per_query", "count", Better::Lower),
    ("query.dp_cells_per_query", "count", Better::Lower),
    ("query.lb_prunes_per_query", "count", Better::Higher),
    ("query.results_per_verification", "ratio", Better::Higher),
    ("query.type3_probe_amplification", "ratio", Better::Lower),
    ("batch.speedup", "ratio", Better::Higher),
    ("batch.cpu_over_wall", "ratio", Better::Higher),
    ("batch.memo_entries", "count", Better::Lower),
    ("snapshot.encode_ms", "ms", Better::Lower),
    ("snapshot.write_ms", "ms", Better::Lower),
    ("snapshot.load_ms", "ms", Better::Lower),
    ("snapshot.bytes_per_window", "B", Better::Lower),
    ("snapshot.load_vs_build", "ratio", Better::Lower),
    ("wal.append_us", "us", Better::Lower),
    ("wal.bytes_per_user_byte", "ratio", Better::Lower),
    ("wal.replay_ms", "ms", Better::Lower),
    ("wal.replay_us_per_op", "us", Better::Lower),
    ("live.append_mem_us", "us", Better::Lower),
    ("live.append_calls_per_window", "count", Better::Lower),
    ("live.remove_us", "us", Better::Lower),
    ("wire.request_encode_ns", "ns", Better::Lower),
    ("wire.request_decode_ns", "ns", Better::Lower),
    ("wire.response_encode_ns", "ns", Better::Lower),
    ("wire.response_decode_ns", "ns", Better::Lower),
    ("wire.frame_ns", "ns", Better::Lower),
    ("wire.request_bytes", "B", Better::Lower),
    ("wire.response_bytes", "B", Better::Lower),
    ("serve.ping_us", "us", Better::Lower),
    ("serve.hit_us", "us", Better::Lower),
    ("serve.miss_ms", "ms", Better::Lower),
    ("serve.miss_overhead_us", "us", Better::Lower),
    ("serve.cache_hit_rate", "ratio", Better::Higher),
    ("serve.server_request_us_mean", "us", Better::Lower),
    ("serve.overload_rejections", "count", Better::Lower),
    ("client.wireclient_hit_us", "us", Better::Lower),
    ("cluster.hit_us", "us", Better::Lower),
    ("cluster.hop_overhead_us", "us", Better::Lower),
    ("obs.overhead_frac", "ratio", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

/// Per-backend rows of the `index.<backend>.*` block.
const INDEX_ROWS: [(&str, &str); 8] = [
    ("build_ms", "ms"),
    ("build_calls_per_window", "count"),
    ("probe_us", "us"),
    ("calls_per_probe", "count"),
    ("cells_per_probe", "count"),
    ("calls_vs_scan", "ratio"),
    ("time_vs_scan", "ratio"),
    ("bytes_per_window", "B"),
];

pub fn end_to_end() -> Vec<MetricSpec> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| MetricSpec {
            name: name.to_string(),
            unit,
            better,
            bound: Some(bound),
        })
        .collect()
}

pub fn per_layer() -> Vec<MetricSpec> {
    let index_rows = BACKENDS.iter().flat_map(|backend| {
        INDEX_ROWS.iter().map(move |&(row, unit)| MetricSpec {
            name: format!("index.{backend}.{row}"),
            unit,
            better: Better::Lower,
            bound: None,
        })
    });
    let other_rows = PER_LAYER.iter().map(|&(name, unit, better)| MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    });
    // Keep the layers in pipeline order: distance, index, query, …
    let (distance, rest): (Vec<_>, Vec<_>) =
        other_rows.partition(|m| m.name.starts_with("distance."));
    distance.into_iter().chain(index_rows).chain(rest).collect()
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Array(items.iter().map(|&s| Json::from(s)).collect());
    let metric = |m: &MetricSpec| {
        let mut members = vec![
            ("name".to_string(), Json::from(m.name.as_str())),
            ("unit".to_string(), Json::from(m.unit)),
            ("better".to_string(), Json::from(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            members.push(("bound".to_string(), Json::from(bound)));
        }
        Json::Object(members)
    };
    Json::object([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::object([("name", Json::from(w.name)), ("why", Json::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Array(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let metrics: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        assert_eq!(end_to_end().len(), 10);
        assert_eq!(per_layer().len(), 85);
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &metrics {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for m in end_to_end() {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for workload in &WORKLOADS {
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.why
            );
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
    }
}
