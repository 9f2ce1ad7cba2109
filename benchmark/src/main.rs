//! The repo's benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! ssr-benchmark --workload <name>|--all [--seed N] [--seconds S] [--trace [0|1]]
//! ssr-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ssr-benchmark spec
//! ```
//!
//! Run from the repo root. With `--trace 0` (the default) a run prints the
//! end-to-end metrics of one workload; with `--trace 1` it prints the
//! per-layer metrics and writes `benchmark/out/<workload>.trace.json`. The
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (`--all` prints one such line per
//! workload, each also naming its `workload`, `seed` and `trace`). The exit
//! code is non-zero when any operation or check failed.

mod check;
mod compare;
mod e2e;
mod fixture;
mod inputs;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use e2e::Report;
use inputs::{Family, Proteins, Songs, Trajectories, Workload, WORKLOADS};
use json::Json;
use spec::MetricSpec;

/// Where traces and scratch files go, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";

struct Options {
    workloads: Vec<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ssr-benchmark --workload <{}>|--all [--seed N] [--seconds S] [--trace [0|1]]\n       ssr-benchmark compare A.json B.json [--spec BENCHMARK.json]\n       ssr-benchmark spec",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        all: false,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let workload = WORKLOADS
                    .iter()
                    .find(|w| w.name == name.as_str())
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                options.workloads = vec![workload];
            }
            "--all" => {
                options.all = true;
                options.workloads = WORKLOADS.iter().collect();
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or a bare `--trace`.
                options.trace = match args.next_if(|next| matches!(next.as_str(), "0" | "1")) {
                    Some(flag) => flag == "1",
                    None => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".to_string());
    }
    Ok(options)
}

fn run_workload(workload: &Workload, options: &Options, scratch: &Path) -> Report {
    macro_rules! dispatch {
        ($regime:ty) => {
            if options.trace {
                layers::run::<$regime>(
                    workload,
                    options.seed,
                    options.seconds,
                    scratch,
                    Path::new(OUT_DIR),
                )
            } else {
                e2e::run::<$regime>(workload, options.seed, options.seconds, scratch)
            }
        };
    }
    match workload.family {
        Family::Proteins => dispatch!(Proteins),
        Family::Trajectories => dispatch!(Trajectories),
        Family::Songs => dispatch!(Songs),
    }
}

/// Renders a report as the result line, after checking that the metrics are
/// exactly the declared set, in declared order, and all finite.
fn result_line(report: &Report, declared: &[MetricSpec]) -> Result<Json, String> {
    let emitted: Vec<&str> = report
        .metrics
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    if emitted != expected {
        return Err(format!(
            "emitted metrics {emitted:?} differ from the declared {expected:?}"
        ));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for ((name, value), declared) in report.metrics.iter().zip(declared) {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.clone(),
            Json::object([
                ("value", Json::from(*value)),
                ("unit", Json::from(declared.unit)),
            ]),
        ));
    }
    Ok(Json::object([
        ("correct", Json::from(report.tally.failed == 0)),
        ("attempted", Json::from(report.tally.attempted)),
        ("failed", Json::from(report.tally.failed)),
        ("metrics", Json::Object(metrics)),
    ]))
}

fn benchmark(options: &Options) -> Result<bool, String> {
    // The scratch directory is private to this process and removed at exit,
    // so concurrent runs in one checkout do not collide.
    let scratch = PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let declared = if options.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut all_correct = true;
    let mut outcome = Ok(());
    for workload in &options.workloads {
        let report = run_workload(workload, options, &scratch);
        for failure in &report.tally.failures {
            eprintln!("# {}: FAILED: {failure}", workload.name);
        }
        all_correct &= report.tally.failed == 0;
        match result_line(&report, &declared) {
            Ok(Json::Object(mut members)) => {
                if options.all {
                    members.insert(0, ("workload".to_string(), Json::from(workload.name)));
                    members.insert(1, ("seed".to_string(), Json::from(options.seed)));
                    members.insert(
                        2,
                        ("trace".to_string(), Json::from(u64::from(options.trace))),
                    );
                }
                println!("{}", Json::Object(members));
            }
            Ok(_) => unreachable!("a result line is an object"),
            Err(why) => {
                outcome = Err(format!("{}: {why}", workload.name));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.map(|()| all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("spec") => {
            println!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("compare") => compare::run(&args[1..]),
        Some("-h" | "--help") | None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
        Some(_) => parse_options(&args).and_then(|options| benchmark(&options)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ssr-benchmark: {why}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let options =
            parse_options(&args("--workload traj-dfd --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(options.workloads.len(), 1);
        assert_eq!(options.workloads[0].name, "traj-dfd");
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (9, 3.0, true)
        );
        assert!(
            !parse_options(&args("--workload traj-dfd --trace 0"))
                .unwrap()
                .trace
        );
        assert!(
            parse_options(&args("--all --trace --seed 7"))
                .unwrap()
                .trace
        );
        assert_eq!(parse_options(&args("--all")).unwrap().workloads.len(), 4);
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "",
            "--workload nope",
            "--seed 1",
            "--all --seconds 0",
            "--all --bogus",
            "--all --seed",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_demands_exactly_the_declared_metrics() {
        let declared = spec::end_to_end();
        let mut report = Report {
            metrics: declared.iter().map(|m| (m.name.clone(), 1.5)).collect(),
            tally: check::Tally::default(),
        };
        report.tally.require(true, String::new);
        let line = result_line(&report, &declared).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_object().unwrap().len(),
            declared.len()
        );
        report.metrics.pop();
        assert!(result_line(&report, &declared).is_err());
    }
}
