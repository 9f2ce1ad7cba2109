//! Regenerates every figure of the paper's evaluation (Section 8) from the
//! synthetic datasets, printing each as an aligned text table.
//!
//! ```text
//! cargo run --release -p ssr-bench --bin figures -- <figure> [--scale small|medium|full]
//!
//! <figure> ∈ { fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12,
//!              ablation-nummax, ablation-eps, all }
//! ```
//!
//! Absolute values differ from the paper (synthetic data, different machine);
//! the shapes are what is comparable.

use ssr_bench::{
    build_index, distance_histogram, print_header, print_table, protein_windows, pruning_ratio,
    song_windows, traj_windows, IndexChoice, QuerySet, Scale, Table,
};
use ssr_core::{build_regions, FrameworkConfig, SubsequenceDatabase};
use ssr_datagen::{generate_proteins, ProteinConfig};
use ssr_distance::{DiscreteFrechet, Erp, Levenshtein, SequenceDistance};
use ssr_sequence::{Element, Sequence};

use ssr_bench::datasets::WINDOW_LEN;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure = "all".to_string();
    let mut scale = Scale::Small;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scale; expected small|medium|full");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [fig4..fig12|ablation-nummax|ablation-eps|all] \
                     [--scale small|medium|full]"
                );
                return;
            }
            other => figure = other.to_string(),
        }
        i += 1;
    }

    println!("# Subsequence-retrieval figure harness (scale: {scale:?})");
    let run = |name: &str| figure == "all" || figure == name;
    let mut ran_any = false;
    if run("fig4") {
        fig4(scale);
        ran_any = true;
    }
    if run("fig5") {
        fig5(scale);
        ran_any = true;
    }
    if run("fig6") {
        fig6(scale);
        ran_any = true;
    }
    if run("fig7") {
        fig7(scale);
        ran_any = true;
    }
    if run("fig8") {
        fig8(scale);
        ran_any = true;
    }
    if run("fig9") {
        fig9(scale);
        ran_any = true;
    }
    if run("fig10") {
        fig10(scale);
        ran_any = true;
    }
    if run("fig11") {
        fig11(scale);
        ran_any = true;
    }
    if run("fig12") {
        fig12(scale);
        ran_any = true;
    }
    if run("ablation-nummax") {
        ablation_nummax(scale);
        ran_any = true;
    }
    if run("ablation-eps") {
        ablation_eps(scale);
        ran_any = true;
    }
    if !ran_any {
        eprintln!(
            "unknown figure {figure:?}; expected fig4..fig12, ablation-nummax, ablation-eps or all"
        );
        std::process::exit(2);
    }
}

fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Figure 4: pairwise distance distributions per dataset and distance.
fn fig4(scale: Scale) {
    print_header(
        "Figure 4",
        "distance distributions for the three datasets and their distance functions",
    );
    let sample = 3_000.min(scale.protein_windows());
    let proteins = protein_windows(sample, 1);
    let songs = song_windows(sample, 2);
    let trajs = traj_windows(sample, 3);

    histogram_table("PROTEINS / Levenshtein", &proteins, &Levenshtein::new());
    histogram_table("SONGS / DFD", &songs, &DiscreteFrechet::new());
    histogram_table("SONGS / ERP", &songs, &Erp::new());
    histogram_table("TRAJ / DFD", &trajs, &DiscreteFrechet::new());
    histogram_table("TRAJ / ERP", &trajs, &Erp::new());
}

fn histogram_table<E, D>(name: &str, windows: &[Vec<E>], distance: &D)
where
    E: Element,
    D: SequenceDistance<E>,
{
    // First pass to find the sampled maximum so buckets cover the real range.
    const BUCKETS: usize = 12;
    const PAIRS: usize = 20_000;
    let mut max_seen = 0.0f64;
    // Sample a subset of pairs to estimate the maximum.
    let stride = (windows.len() / 60).max(1);
    for (i, a) in windows.iter().step_by(stride).enumerate() {
        for b in windows.iter().step_by(stride).skip(i + 1) {
            max_seen = max_seen.max(distance.distance(a, b));
        }
    }
    let max_value = if max_seen > 0.0 { max_seen } else { 1.0 };
    let hist = distance_histogram(windows, distance, max_value, BUCKETS, PAIRS);
    let mut table = Table::new(
        format!("{name} (sampled max distance {:.2})", max_value),
        &["distance bucket", "fraction of pairs"],
    );
    for (b, frac) in hist.iter().enumerate() {
        let lo = max_value * b as f64 / BUCKETS as f64;
        let hi = max_value * (b + 1) as f64 / BUCKETS as f64;
        table.push_row(vec![format!("{lo:.1} – {hi:.1}"), fmt(*frac)]);
    }
    print_table(&table);
}

/// Figure 5: space overhead of the Reference Net on PROTEINS / Levenshtein.
fn fig5(scale: Scale) {
    print_header(
        "Figure 5",
        "Reference Net space overhead on PROTEINS (Levenshtein), vs. number of windows",
    );
    let target = scale.protein_windows();
    let mut table = Table::new(
        "PROTEINS space overhead (epsilon' = 1)",
        &[
            "windows",
            "RN list entries (K)",
            "RN avg parents",
            "RN size (MiB)",
            "CT size (MiB)",
            "RN/CT entries",
        ],
    );
    for fraction in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let count = ((target as f64 * fraction) as usize).max(100);
        let windows = protein_windows(count, 1);
        let rn = build_index(IndexChoice::ReferenceNet, &windows, Levenshtein::new());
        let ct = build_index(IndexChoice::CoverTree, &windows, Levenshtein::new());
        let rn_stats = rn.space_stats();
        let ct_stats = ct.space_stats();
        table.push_row(vec![
            windows.len().to_string(),
            fmt(rn_stats.entries as f64 / 1000.0),
            fmt(rn_stats.avg_parents),
            fmt(rn_stats.estimated_mib()),
            fmt(ct_stats.estimated_mib()),
            fmt(rn_stats.entries as f64 / ct_stats.entries.max(1) as f64),
        ]);
    }
    print_table(&table);
}

/// Figure 6: space overhead on SONGS, comparing DFD, DFD-5 and ERP.
fn fig6(scale: Scale) {
    print_header(
        "Figure 6",
        "Reference Net space overhead on SONGS: DFD vs DFD-5 (nummax=5) vs ERP",
    );
    let target = scale.song_windows();
    let mut table = Table::new(
        "SONGS space overhead",
        &[
            "windows",
            "DFD entries",
            "DFD parents",
            "DFD MiB",
            "DFD-5 entries",
            "DFD-5 parents",
            "DFD-5 MiB",
            "ERP entries",
            "ERP parents",
            "ERP MiB",
        ],
    );
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let count = ((target as f64 * fraction) as usize).max(100);
        let windows = song_windows(count, 2);
        let dfd = build_index(IndexChoice::ReferenceNet, &windows, DiscreteFrechet::new());
        let dfd5 = build_index(
            IndexChoice::ReferenceNetCapped(5),
            &windows,
            DiscreteFrechet::new(),
        );
        let erp = build_index(IndexChoice::ReferenceNet, &windows, Erp::new());
        let (a, b, c) = (dfd.space_stats(), dfd5.space_stats(), erp.space_stats());
        table.push_row(vec![
            windows.len().to_string(),
            a.entries.to_string(),
            fmt(a.avg_parents),
            fmt(a.estimated_mib()),
            b.entries.to_string(),
            fmt(b.avg_parents),
            fmt(b.estimated_mib()),
            c.entries.to_string(),
            fmt(c.avg_parents),
            fmt(c.estimated_mib()),
        ]);
    }
    print_table(&table);
}

/// Figure 7: space overhead on TRAJ for DFD and ERP.
fn fig7(scale: Scale) {
    print_header(
        "Figure 7",
        "Reference Net space overhead on TRAJ: DFD vs ERP (wide distance distribution)",
    );
    let target = scale.traj_windows();
    let mut table = Table::new(
        "TRAJ space overhead",
        &[
            "windows",
            "DFD entries",
            "DFD parents",
            "DFD MiB",
            "ERP entries",
            "ERP parents",
            "ERP MiB",
            "CT entries",
        ],
    );
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let count = ((target as f64 * fraction) as usize).max(100);
        let windows = traj_windows(count, 3);
        let dfd = build_index(IndexChoice::ReferenceNet, &windows, DiscreteFrechet::new());
        let erp = build_index(IndexChoice::ReferenceNet, &windows, Erp::new());
        let ct = build_index(IndexChoice::CoverTree, &windows, Erp::new());
        let (a, b, c) = (dfd.space_stats(), erp.space_stats(), ct.space_stats());
        table.push_row(vec![
            windows.len().to_string(),
            a.entries.to_string(),
            fmt(a.avg_parents),
            fmt(a.estimated_mib()),
            b.entries.to_string(),
            fmt(b.avg_parents),
            fmt(b.estimated_mib()),
            c.entries.to_string(),
        ]);
    }
    print_table(&table);
}

/// Shared driver for the query-performance figures (8–11).
fn query_performance_figure<E, D>(
    title: &str,
    windows: Vec<Vec<E>>,
    query_pool: Vec<Vec<E>>,
    distance: D,
    choices: &[IndexChoice],
    radii: &[f64],
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E> + Clone,
{
    let queries = QuerySet::from_pool(&query_pool, 10);
    let mut handles = Vec::new();
    for &choice in choices {
        handles.push((choice, build_index(choice, &windows, distance.clone())));
    }
    let mut header: Vec<String> = vec!["range".to_string(), "avg results".to_string()];
    header.extend(choices.iter().map(|c| format!("{} %dist", c.label())));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!(
            "{title} ({} windows, {} queries)",
            windows.len(),
            queries.queries.len()
        ),
        &header_refs,
    );
    for &radius in radii {
        let mut row = vec![fmt(radius)];
        let mut results_cell = String::new();
        let mut ratios = Vec::new();
        for (_, handle) in &handles {
            let (ratio, avg_results) = pruning_ratio(handle, &queries, radius);
            if results_cell.is_empty() {
                results_cell = fmt(avg_results);
            }
            ratios.push(ratio);
        }
        row.push(results_cell);
        row.extend(ratios.iter().map(|r| fmt(r * 100.0)));
        table.push_row(row);
    }
    print_table(&table);
}

/// Figure 8: query performance on PROTEINS under Levenshtein.
fn fig8(scale: Scale) {
    print_header(
        "Figure 8",
        "percentage of distance computations vs naive scan, PROTEINS + Levenshtein",
    );
    let mut all = protein_windows(scale.protein_windows() + 400, 1);
    let pool = all.split_off(all.len().saturating_sub(400));
    let windows = all;
    query_performance_figure(
        "PROTEINS + Levenshtein",
        windows,
        pool,
        Levenshtein::new(),
        &[
            IndexChoice::ReferenceNet,
            IndexChoice::CoverTree,
            IndexChoice::MaxVariance(5),
            IndexChoice::MaxVariance(50),
        ],
        &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0],
    );
}

/// Figure 9: query performance on SONGS under the discrete Fréchet distance.
fn fig9(scale: Scale) {
    print_header(
        "Figure 9",
        "percentage of distance computations vs naive scan, SONGS + DFD",
    );
    let mut all = song_windows(scale.song_windows() + 400, 2);
    let pool = all.split_off(all.len().saturating_sub(400));
    let windows = all;
    query_performance_figure(
        "SONGS + DFD",
        windows,
        pool,
        DiscreteFrechet::new(),
        &[
            IndexChoice::ReferenceNet,
            IndexChoice::ReferenceNetCapped(5),
            IndexChoice::CoverTree,
            IndexChoice::MaxVariance(5),
        ],
        &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0],
    );
}

/// Radii derived from the sampled distance distribution (percentile values),
/// used for the TRAJ figures where distances are not integer-valued.
fn percentile_radii<E, D>(windows: &[Vec<E>], distance: &D) -> Vec<f64>
where
    E: Element,
    D: SequenceDistance<E>,
{
    let mut sample = Vec::new();
    let stride = (windows.len() / 80).max(1);
    for (i, a) in windows.iter().step_by(stride).enumerate() {
        for b in windows.iter().step_by(stride).skip(i + 1) {
            sample.push(distance.distance(a, b));
        }
    }
    sample.sort_by(f64::total_cmp);
    [0.01, 0.05, 0.10, 0.25, 0.50]
        .iter()
        .map(|p| sample[((sample.len() - 1) as f64 * p) as usize])
        .collect()
}

/// Figure 10: query performance on TRAJ under ERP.
fn fig10(scale: Scale) {
    print_header(
        "Figure 10",
        "percentage of distance computations vs naive scan, TRAJ + ERP \
         (radii at the 1/5/10/25/50th distance percentiles)",
    );
    let mut all = traj_windows(scale.traj_windows() + 400, 3);
    let pool = all.split_off(all.len().saturating_sub(400));
    let windows = all;
    let radii = percentile_radii(&windows, &Erp::new());
    query_performance_figure(
        "TRAJ + ERP",
        windows,
        pool,
        Erp::new(),
        &[
            IndexChoice::ReferenceNet,
            IndexChoice::CoverTree,
            IndexChoice::MaxVariance(20),
        ],
        &radii,
    );
}

/// Figure 11: query performance on TRAJ under the discrete Fréchet distance.
fn fig11(scale: Scale) {
    print_header(
        "Figure 11",
        "percentage of distance computations vs naive scan, TRAJ + DFD",
    );
    let mut all = traj_windows(scale.traj_windows() + 400, 3);
    let pool = all.split_off(all.len().saturating_sub(400));
    let windows = all;
    let radii = percentile_radii(&windows, &DiscreteFrechet::new());
    query_performance_figure(
        "TRAJ + DFD",
        windows,
        pool,
        DiscreteFrechet::new(),
        &[
            IndexChoice::ReferenceNet,
            IndexChoice::CoverTree,
            IndexChoice::MaxVariance(20),
        ],
        &radii,
    );
}

/// Figure 12: unique vs consecutive matching windows on PROTEINS as ε grows.
fn fig12(scale: Scale) {
    print_header(
        "Figure 12",
        "PROTEINS: unique matching windows and consecutive (>=2) matching windows vs epsilon",
    );
    let lambda = 2 * WINDOW_LEN;
    let target = scale.protein_windows().min(10_000);
    let proteins = generate_proteins(&ProteinConfig::sized_for_windows(target, WINDOW_LEN, 1));
    let config = FrameworkConfig::new(lambda).with_max_shift(2);
    let db = SubsequenceDatabase::builder(config.clone(), Levenshtein::new())
        .add_dataset(&proteins)
        .build()
        .expect("database builds");
    let total_windows = db.window_count();

    // "Random queries of size similar to the smallest proteins in the dataset":
    // independently generated protein sequences of ~60 residues.
    let query_source = generate_proteins(&ProteinConfig {
        num_sequences: 2,
        min_len: 60,
        max_len: 60,
        seed: 4242,
        ..Default::default()
    });
    let queries: Vec<Sequence<_>> = query_source.iter().map(|(_, s)| s.clone()).collect();

    let mut table = Table::new(
        format!("PROTEINS-{total_windows} window matches vs epsilon"),
        &[
            "epsilon",
            "% unique matching windows",
            "% windows in consecutive chains",
        ],
    );
    for epsilon in (2..=20).step_by(2) {
        let mut unique = 0usize;
        let mut consecutive = 0usize;
        for q in &queries {
            let scan = db.matching_segments(q, epsilon as f64);
            let matches = scan.matches;
            let mut windows_hit: Vec<usize> = matches.iter().map(|m| m.window.0).collect();
            windows_hit.sort_unstable();
            windows_hit.dedup();
            unique += windows_hit.len();
            let regions = build_regions(&matches, config.window_len(), config.max_shift);
            consecutive += regions
                .iter()
                .filter(|r| r.chain_len >= 2)
                .map(|r| r.chain_len)
                .sum::<usize>();
        }
        let denom = (queries.len() * total_windows) as f64;
        table.push_row(vec![
            epsilon.to_string(),
            fmt(unique as f64 / denom * 100.0),
            fmt((consecutive as f64 / denom * 100.0).min(100.0)),
        ]);
    }
    print_table(&table);
}

/// Ablation: effect of the `nummax` parent cap on space and pruning (SONGS + DFD).
fn ablation_nummax(scale: Scale) {
    print_header(
        "Ablation",
        "nummax parent cap: space vs pruning trade-off on SONGS + DFD",
    );
    let windows = song_windows(scale.song_windows(), 2);
    let pool = song_windows(200, 95);
    let queries = QuerySet::from_pool(&pool, 8);
    let mut table = Table::new(
        "nummax ablation (SONGS + DFD)",
        &[
            "nummax",
            "list entries",
            "avg parents",
            "MiB",
            "%dist @ r=1",
            "%dist @ r=2",
            "%dist @ r=3",
        ],
    );
    let choices = [
        (IndexChoice::ReferenceNetCapped(1), "1"),
        (IndexChoice::ReferenceNetCapped(2), "2"),
        (IndexChoice::ReferenceNetCapped(5), "5"),
        (IndexChoice::ReferenceNet, "unlimited"),
    ];
    for (choice, label) in choices {
        let handle = build_index(choice, &windows, DiscreteFrechet::new());
        let stats = handle.space_stats();
        let mut row = vec![
            label.to_string(),
            stats.entries.to_string(),
            fmt(stats.avg_parents),
            fmt(stats.estimated_mib()),
        ];
        for radius in [1.0, 2.0, 3.0] {
            let (ratio, _) = pruning_ratio(&handle, &queries, radius);
            row.push(fmt(ratio * 100.0));
        }
        table.push_row(row);
    }
    print_table(&table);
}

/// Ablation: effect of the base radius `ǫ'` on the Reference Net (PROTEINS).
fn ablation_eps(scale: Scale) {
    print_header(
        "Ablation",
        "base radius epsilon': hierarchy shape vs pruning on PROTEINS + Levenshtein",
    );
    let windows = protein_windows(scale.protein_windows().min(4_000), 1);
    let pool = protein_windows(200, 96);
    let queries = QuerySet::from_pool(&pool, 8);
    let mut table = Table::new(
        "epsilon' ablation (PROTEINS + Levenshtein)",
        &[
            "epsilon'",
            "levels",
            "list entries",
            "avg parents",
            "%dist @ r=2",
            "%dist @ r=4",
        ],
    );
    for eps in [0.5, 1.0, 2.0, 4.0] {
        use ssr_distance::CallCounter;
        use ssr_index::{
            CountingMetric, RangeIndex, ReferenceNet, ReferenceNetConfig, SequenceMetricAdapter,
        };
        let counter = CallCounter::new();
        let metric = CountingMetric::new(
            SequenceMetricAdapter::new(Levenshtein::new()),
            counter.clone(),
        );
        let mut idx =
            ReferenceNet::with_config(metric, ReferenceNetConfig::with_epsilon_prime(eps));
        idx.extend(windows.iter().cloned());
        let stats = idx.space_stats();
        let mut row = vec![
            fmt(eps),
            stats.levels.to_string(),
            stats.entries.to_string(),
            fmt(stats.avg_parents),
        ];
        for radius in [2.0, 4.0] {
            counter.reset();
            for q in &queries.queries {
                let _ = idx.range_query(q, radius);
            }
            let ratio =
                counter.reset() as f64 / (queries.queries.len() as f64 * windows.len() as f64);
            row.push(fmt(ratio * 100.0));
        }
        table.push_row(row);
    }
    print_table(&table);
}
