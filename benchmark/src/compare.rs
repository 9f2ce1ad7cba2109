//! `compare A.json B.json`: applies each end-to-end metric's bound from
//! `BENCHMARK.json` to every (metric, workload) row of two result files.
//!
//! A result file holds the lines `--all` prints (one JSON object per
//! workload and run; several runs of one workload are pooled). `A` is the
//! base, `B` the candidate. A row is `regressed` when the candidate's median
//! is worse than the base's by more than the bound, `unresolved` when either
//! side's run-to-run spread (quartile distance over median) is wider than the
//! bound — unless every candidate run reads better than every base run — and
//! `ok` otherwise. Every ratio is printed beside its base.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::Better;
use crate::stats::{median, spread};

/// Values of one metric on one workload, one per run.
type Rows = BTreeMap<(String, String), Vec<f64>>;

struct Bound {
    better: Better,
    bound: f64,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

fn read_rows(path: &str) -> Result<(Rows, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Rows::new();
    let mut failed = 0;
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        if run.get("machine").is_some() {
            continue; // the line `run.sh` writes about the machine
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or_else(|| {
            format!(
                "{path}:{}: no `workload` (is this `--all` output?)",
                number + 1
            )
        })?;
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}:{}: no `metrics`", number + 1))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: metric {name} has no value", number + 1))?;
            rows.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((rows, failed))
}

fn read_bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `end_to_end`"))?;
    let mut bounds = BTreeMap::new();
    for metric in metrics {
        let field = |key: &str| {
            metric
                .get(key)
                .ok_or_else(|| format!("{path}: a metric lacks `{key}`"))
        };
        let name = field("name")?.as_str().unwrap_or_default().to_string();
        let better = match field("better")?.as_str() {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            other => return Err(format!("{path}: {name}: `better` is {other:?}")),
        };
        let bound = field("bound")?
            .as_f64()
            .ok_or_else(|| format!("{path}: {name}: `bound` is not a number"))?;
        bounds.insert(name, Bound { better, bound });
    }
    Ok(bounds)
}

/// Share of the base median by which the candidate median is worse
/// (negative when it is better).
fn worse_by(base: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    }
}

fn judge(base: &[f64], candidate: &[f64], bound: &Bound) -> Verdict {
    let regressed = worse_by(median(base), median(candidate), bound.better) > bound.bound;
    let wide = |runs: &[f64]| runs.len() >= 2 && spread(runs) > bound.bound;
    let every_run_better = base.iter().all(|&b| {
        candidate.iter().all(|&c| match bound.better {
            Better::Lower => c < b,
            Better::Higher => c > b,
        })
    });
    if (wide(base) || wide(candidate)) && !every_run_better {
        Verdict::Unresolved
    } else if regressed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn spread_text(runs: &[f64]) -> String {
    if runs.len() >= 2 {
        format!("{:.3}", spread(runs))
    } else {
        "-".to_string()
    }
}

/// Runs the subcommand. `Ok(true)` when no row regressed and no operation
/// failed in either file.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--spec" {
            spec_path = args.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [base_path, candidate_path] = files[..] else {
        return Err("compare needs exactly two result files".to_string());
    };
    let bounds = read_bounds(&spec_path)?;
    let (base, base_failed) = read_rows(base_path)?;
    let (candidate, candidate_failed) = read_rows(candidate_path)?;

    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "candidate", "ratio", "bound", "spreadA", "spreadB"
    );
    let mut verdicts = Vec::new();
    for ((workload, metric), base_runs) in &base {
        let Some(candidate_runs) = candidate.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<16} {metric:<34} missing from {candidate_path}");
            continue;
        };
        let (base_median, candidate_median) = (median(base_runs), median(candidate_runs));
        let (bound_text, verdict_text) = match bounds.get(metric) {
            Some(bound) => {
                let verdict = judge(base_runs, candidate_runs, bound);
                verdicts.push(verdict);
                (
                    format!("{:.2}", bound.bound),
                    format!("{verdict:?}").to_lowercase(),
                )
            }
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{workload:<16} {metric:<34} {base_median:>14.6} {candidate_median:>14.6} {:>8.4} {bound_text:>7} {:>8} {:>8}  {verdict_text}",
            candidate_median / base_median,
            spread_text(base_runs),
            spread_text(candidate_runs),
        );
    }
    let count = |v: Verdict| verdicts.iter().filter(|&&seen| seen == v).count();
    println!(
        "# bounded rows: {} ok, {} regressed, {} unresolved; failed operations: base {base_failed}, candidate {candidate_failed}",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
    );
    Ok(count(Verdict::Regressed) == 0 && base_failed == 0 && candidate_failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        assert_eq!(judge(&[10.0], &[10.9], &LOWER), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.1], &LOWER), Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[5.0], &LOWER), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[9.1], &HIGHER), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[8.9], &HIGHER), Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[20.0], &HIGHER), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.1, 10.2, 10.3], &LOWER),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[5.0, 6.0, 7.0, 7.5], &LOWER), Verdict::Ok);
        let steady = [10.0, 10.1, 10.2, 10.3];
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 12.2, 12.3], &LOWER),
            Verdict::Regressed
        );
    }
}
