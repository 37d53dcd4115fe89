//! # dmt-bench
//!
//! The reproduction harness: shared plumbing for the binaries that regenerate
//! every table and figure of the paper's evaluation section (§VI).
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I (data set inventory) |
//! | `table2_to_6` | Tables II (F1), III (splits), IV (parameters), V (time) and VI (summary ranking) |
//! | `figure3` | Figure 3 — F1 and log #splits over time for the four known-drift streams |
//! | `figure4` | Figure 4 — avg F1 vs avg log #splits scatter |
//! | `ablations` | extension: DMT hyperparameter ablations (AIC threshold, candidate pool, learning rate) |
//!
//! All binaries accept `--scale <f64>` (stream-length scaling, default 0.02),
//! `--seed <u64>` and `--models all|standalone`. Results are printed as
//! aligned text tables and also written as JSON/CSV under `results/`.

#![warn(missing_docs)]

pub mod compare;

use std::collections::BTreeMap;

use dmt::eval::json::{self, FromJson, Json, JsonError, ToJson};
use dmt::eval::{mean, sliding_window, PrequentialConfig, PrequentialResult, PrequentialRun};
use dmt::prelude::*;
use dmt::stream::catalog;
use dmt::stream::generators::{AgrawalGenerator, RandomRbfGenerator, SeaGenerator};
use dmt::stream::transform::MinMaxNormalize;

/// Centralised seeding for the throughput suite (`bench_throughput` and the
/// CI bench-regression gate).
///
/// Every model row of one run must consume the *identical* instance sequence
/// — otherwise model-vs-model and run-vs-baseline comparisons measure stream
/// noise instead of model cost. Both seeds therefore live here instead of as
/// ad-hoc constants inside the binary: [`bench_seed::STREAM`] seeds the
/// generator rebuilt per (model, stream) cell and [`bench_seed::MODEL`] seeds
/// the model under test.
pub mod bench_seed {
    /// Seed of the synthetic stream generators; rebuilt with this exact seed
    /// for every model row so all rows see the same instances.
    pub const STREAM: u64 = 42;
    /// Seed of the model under test (random initial weights, ensembles).
    pub const MODEL: u64 = 1;
}

/// The streams of the throughput suite (`bench_throughput`), in run order.
pub const THROUGHPUT_STREAMS: [&str; 3] = ["SEA", "Agrawal", "RBF"];

/// One model row of the throughput suite.
///
/// The suite runs every stand-alone model of the paper plus a **pooled DMT
/// row**: the same Dynamic Model Tree with `Parallelism::Threads(n)`, so the
/// committed `BENCH_<n>.json` tracks the serial tree and the tree carrying a
/// worker pool side by side and `bench_compare` gates both. Learning is
/// serial in both rows; the pooled row chunks prediction batches of at least
/// `PREDICT_PARALLEL_THRESHOLD` rows over its pool, so at smaller batch sizes
/// it measures what the pool costs when idle. Parallelism is pinned
/// *explicitly* per row (serial for the standard rows), so a stray
/// `DMT_PARALLELISM` environment variable can never skew a blessed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThroughputModel {
    /// A stand-alone model of Table II (the DMT row pinned to serial).
    Standard(ModelKind),
    /// The Dynamic Model Tree with `Parallelism::Threads(n)`.
    DmtThreads(usize),
}

impl ThroughputModel {
    /// Display name used in the JSON rows (`"DMT (2T)"` for the pooled
    /// row).
    pub fn display_name(&self) -> String {
        match self {
            ThroughputModel::Standard(kind) => kind.display_name().to_string(),
            ThroughputModel::DmtThreads(n) => format!("DMT ({n}T)"),
        }
    }

    /// The worker count pinned for this row (1 for every serial row).
    /// Recorded per row in the bench JSON so `bench_compare` can tell when a
    /// row's parallelism exceeds the baseline machine's recorded core count
    /// — in which case a regression on that row is downgraded to a warning.
    pub fn pinned_workers(&self) -> usize {
        match self {
            ThroughputModel::Standard(_) => 1,
            ThroughputModel::DmtThreads(n) => *n,
        }
    }

    /// Build the configured classifier for `schema`.
    pub fn build(
        &self,
        schema: &dmt::stream::StreamSchema,
        seed: u64,
    ) -> Box<dyn OnlineClassifier> {
        use dmt::core::Parallelism;
        let parallelism = match self {
            ThroughputModel::Standard(ModelKind::Dmt) => Parallelism::Serial,
            ThroughputModel::DmtThreads(n) => Parallelism::Threads(*n),
            ThroughputModel::Standard(kind) => return build_model(*kind, schema, seed),
        };
        // One shared construction for both DMT rows, so a future bench-row
        // config tweak cannot silently diverge between serial and pooled.
        Box::new(DynamicModelTree::new(
            schema.clone(),
            DmtConfig {
                seed,
                parallelism,
                ..DmtConfig::default()
            },
        ))
    }
}

/// Build one model row of the accuracy suite (`bench_accuracy` and the CI
/// accuracy-regression gate).
///
/// Identical to [`build_model`] except that the DMT row is pinned to
/// `Parallelism::Serial` explicitly. Pooled prediction is bit-identical to
/// serial prediction, but pinning keeps the blessed `BENCH_ACC.json` independent of
/// any `DMT_PARALLELISM` environment variable on the blessing machine — the
/// same policy the throughput rows follow (see [`ThroughputModel::build`]).
pub fn accuracy_model(
    kind: ModelKind,
    schema: &dmt::stream::StreamSchema,
    seed: u64,
) -> Box<dyn OnlineClassifier> {
    use dmt::core::Parallelism;
    if kind == ModelKind::Dmt {
        return Box::new(DynamicModelTree::new(
            schema.clone(),
            DmtConfig {
                seed,
                parallelism: Parallelism::Serial,
                ..DmtConfig::default()
            },
        ));
    }
    build_model(kind, schema, seed)
}

/// The model rows of the throughput suite, in run order: every stand-alone
/// model plus the pooled DMT row (2 workers — the CI configuration).
pub fn throughput_models() -> Vec<ThroughputModel> {
    let mut models: Vec<ThroughputModel> = STANDALONE_MODELS
        .iter()
        .map(|&kind| ThroughputModel::Standard(kind))
        .collect();
    models.push(ThroughputModel::DmtThreads(2));
    models
}

/// Build one of the [`THROUGHPUT_STREAMS`] with the given seed. Numeric
/// features are normalised to [0, 1] like the catalog does, so the GLM-based
/// models run in their intended regime. Returns `None` for unknown names.
pub fn throughput_stream(name: &str, seed: u64) -> Option<Box<dyn DataStream>> {
    match name {
        "SEA" => Some(Box::new(MinMaxNormalize::with_ranges(
            SeaGenerator::new(0, 0.1, seed),
            vec![(0.0, 10.0); 3],
        ))),
        "Agrawal" => Some(Box::new(MinMaxNormalize::online(AgrawalGenerator::new(
            0, 0.05, seed,
        )))),
        "RBF" => Some(Box::new(RandomRbfGenerator::new(10, 4, 25, seed))),
        _ => None,
    }
}

/// Command-line options shared by the reproduction binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Stream-length scale factor relative to the published sizes.
    pub scale: f64,
    /// Random seed for streams and models.
    pub seed: u64,
    /// Which model rows to run.
    pub models: Vec<ModelKind>,
    /// Which data sets to run (names from Table I).
    pub datasets: Vec<String>,
    /// Optional cap on the number of prequential batches (smoke tests).
    pub max_batches: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: 0.02,
            seed: 42,
            models: ALL_MODELS.to_vec(),
            datasets: catalog::TABLE1.iter().map(|d| d.name.to_string()).collect(),
            max_batches: None,
        }
    }
}

impl HarnessOptions {
    /// Parse options from `std::env::args`-style strings.
    ///
    /// Supported flags: `--scale <f64>`, `--seed <u64>`,
    /// `--models all|standalone|dmt`, `--datasets <comma-separated names>`,
    /// `--max-batches <usize>`, `--quick` (scale 0.005, standalone models).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        options.scale = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        options.seed = v;
                        i += 1;
                    }
                }
                "--max-batches" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        options.max_batches = Some(v);
                        i += 1;
                    }
                }
                "--models" => {
                    if let Some(v) = args.get(i + 1) {
                        options.models = match v.as_str() {
                            "standalone" => STANDALONE_MODELS.to_vec(),
                            "dmt" => vec![ModelKind::Dmt],
                            _ => ALL_MODELS.to_vec(),
                        };
                        i += 1;
                    }
                }
                "--datasets" => {
                    if let Some(v) = args.get(i + 1) {
                        options.datasets = v.split(',').map(|s| s.trim().to_string()).collect();
                        i += 1;
                    }
                }
                "--quick" => {
                    options.scale = 0.005;
                    options.models = STANDALONE_MODELS.to_vec();
                }
                _ => {}
            }
            i += 1;
        }
        options
    }
}

/// One cell of the experiment grid: a model evaluated on one data set.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Model display name.
    pub model: String,
    /// Data set name.
    pub dataset: String,
    /// The full prequential result.
    pub result: PrequentialResult,
}

impl ToJson for GridCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("dataset".to_string(), self.dataset.to_json()),
            ("result".to_string(), self.result.to_json()),
        ])
    }
}

impl FromJson for GridCell {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            model: json::member(value, "model")?,
            dataset: json::member(value, "dataset")?,
            result: json::member(value, "result")?,
        })
    }
}

/// Run one model on one catalog data set.
pub fn run_cell(kind: ModelKind, dataset: &str, options: &HarnessOptions) -> Option<GridCell> {
    let mut stream = catalog::build_stream(dataset, options.scale, options.seed)?;
    let schema = stream.schema().clone();
    let mut model = build_model(kind, &schema, options.seed);
    let runner = PrequentialRun::new(PrequentialConfig {
        max_batches: options.max_batches,
        ..PrequentialConfig::default()
    });
    let result = runner.evaluate(model.as_mut(), &mut stream, None);
    Some(GridCell {
        model: kind.display_name().to_string(),
        dataset: dataset.to_string(),
        result,
    })
}

/// Run the full model × data-set grid described by `options`, printing a
/// progress line per cell.
pub fn run_grid(options: &HarnessOptions) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for dataset in &options.datasets {
        for &kind in &options.models {
            eprint!("  [{dataset} / {}] ...", kind.display_name());
            let start = std::time::Instant::now();
            if let Some(cell) = run_cell(kind, dataset, options) {
                eprintln!(" done in {:.1}s", start.elapsed().as_secs_f64());
                cells.push(cell);
            } else {
                eprintln!(" skipped (unknown dataset)");
            }
        }
    }
    cells
}

/// Pivot grid cells into `dataset -> model -> value` using an extractor.
pub fn pivot<F: Fn(&PrequentialResult) -> (f64, f64)>(
    cells: &[GridCell],
    extract: F,
) -> BTreeMap<String, BTreeMap<String, (f64, f64)>> {
    let mut table: BTreeMap<String, BTreeMap<String, (f64, f64)>> = BTreeMap::new();
    for cell in cells {
        table
            .entry(cell.dataset.clone())
            .or_default()
            .insert(cell.model.clone(), extract(&cell.result));
    }
    table
}

/// Render a paper-style table: one row per model, one column per data set,
/// plus a trailing `Mean` column, with `mean ± std` cells.
pub fn render_table(
    title: &str,
    cells: &[GridCell],
    models: &[ModelKind],
    datasets: &[String],
    decimals: usize,
    extract: impl Fn(&PrequentialResult) -> (f64, f64),
) -> String {
    let pivoted = pivot(cells, extract);
    let mut out = String::new();
    out.push_str(&format!("\n=== {title} ===\n"));
    // Header.
    out.push_str(&format!("{:<14}", "Model"));
    for dataset in datasets {
        out.push_str(&format!("{:>22}", truncate(dataset, 20)));
    }
    out.push_str(&format!("{:>22}\n", "Mean"));
    for kind in models {
        let model = kind.display_name();
        out.push_str(&format!("{model:<14}"));
        let mut means = Vec::new();
        for dataset in datasets {
            if let Some((m, s)) = pivoted.get(dataset).and_then(|row| row.get(model)) {
                out.push_str(&format!(
                    "{:>22}",
                    format!("{m:.decimals$} ± {s:.decimals$}")
                ));
                means.push(*m);
            } else {
                out.push_str(&format!("{:>22}", "-"));
            }
        }
        out.push_str(&format!("{:>22}\n", format!("{:.decimals$}", mean(&means))));
    }
    out
}

fn truncate(s: &str, len: usize) -> String {
    if s.chars().count() <= len {
        s.to_string()
    } else {
        s.chars().take(len).collect()
    }
}

/// Qualitative summary ranking used by Table VI: `++`, `+`, `-`, `--` per
/// category, where the best model gets `++`, the worst `--` and the rest
/// `+`/`-` depending on whether they beat the median.
pub fn rank_symbols(values: &[(String, f64)], higher_is_better: bool) -> BTreeMap<String, String> {
    let mut sorted: Vec<(String, f64)> = values.to_vec();
    sorted.sort_by(|a, b| {
        if higher_is_better {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
        } else {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
        }
    });
    let n = sorted.len();
    let mut out = BTreeMap::new();
    if n == 0 {
        return out;
    }
    let scores: Vec<f64> = sorted.iter().map(|(_, v)| *v).collect();
    let median = if n % 2 == 1 {
        scores[n / 2]
    } else {
        (scores[n / 2 - 1] + scores[n / 2]) / 2.0
    };
    for (rank, (name, value)) in sorted.iter().enumerate() {
        let symbol = if rank == 0 {
            "++"
        } else if rank + 1 == n {
            "--"
        } else {
            let better = if higher_is_better {
                *value >= median
            } else {
                *value <= median
            };
            if better {
                "+"
            } else {
                "-"
            }
        };
        out.insert(name.clone(), symbol.to_string());
    }
    out
}

/// Per-model aggregates over the grid (used by Tables V/VI and Figure 4).
#[derive(Debug, Clone)]
pub struct ModelAggregate {
    /// Model display name.
    pub model: String,
    /// Mean per-batch F1 over all data sets.
    pub mean_f1: f64,
    /// Mean per-batch F1 over the known-drift data sets only.
    pub mean_f1_drift: f64,
    /// Mean number of splits over all data sets.
    pub mean_splits: f64,
    /// Mean number of parameters over all data sets.
    pub mean_params: f64,
    /// Mean seconds per test/train iteration over all data sets.
    pub mean_seconds: f64,
}

impl ToJson for ModelAggregate {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("mean_f1".to_string(), self.mean_f1.to_json()),
            ("mean_f1_drift".to_string(), self.mean_f1_drift.to_json()),
            ("mean_splits".to_string(), self.mean_splits.to_json()),
            ("mean_params".to_string(), self.mean_params.to_json()),
            ("mean_seconds".to_string(), self.mean_seconds.to_json()),
        ])
    }
}

/// Aggregate grid cells per model.
pub fn aggregate(cells: &[GridCell], models: &[ModelKind]) -> Vec<ModelAggregate> {
    models
        .iter()
        .map(|kind| {
            let name = kind.display_name();
            let of_model: Vec<&GridCell> = cells.iter().filter(|c| c.model == name).collect();
            let drift_cells: Vec<&GridCell> = of_model
                .iter()
                .copied()
                .filter(|c| catalog::KNOWN_DRIFT_NAMES.contains(&c.dataset.as_str()))
                .collect();
            let avg = |cells: &[&GridCell], f: &dyn Fn(&PrequentialResult) -> f64| -> f64 {
                let values: Vec<f64> = cells.iter().map(|c| f(&c.result)).collect();
                mean(&values)
            };
            ModelAggregate {
                model: name.to_string(),
                mean_f1: avg(&of_model, &|r| r.f1_mean_std().0),
                mean_f1_drift: avg(&drift_cells, &|r| r.f1_mean_std().0),
                mean_splits: avg(&of_model, &|r| r.splits_mean_std().0),
                mean_params: avg(&of_model, &|r| r.params_mean_std().0),
                mean_seconds: avg(&of_model, &|r| r.time_mean_std().0),
            }
        })
        .collect()
}

/// Write a serialisable value as pretty JSON under `results/`.
pub fn write_json<T: ToJson + ?Sized>(filename: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{filename}");
    std::fs::write(&path, value.to_json().to_pretty_string())?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Write Figure-3-style CSV series: per batch, the sliding-window mean/std of
/// the F1 and of the log number of splits, one column group per model.
pub fn write_figure3_csv(
    filename: &str,
    dataset: &str,
    cells: &[GridCell],
    window: usize,
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let relevant: Vec<&GridCell> = cells.iter().filter(|c| c.dataset == dataset).collect();
    if relevant.is_empty() {
        return Ok(());
    }
    let mut header = vec!["time_step".to_string()];
    for cell in &relevant {
        header.push(format!("{}_f1_mean", cell.model));
        header.push(format!("{}_f1_std", cell.model));
        header.push(format!("{}_log_splits_mean", cell.model));
        header.push(format!("{}_log_splits_std", cell.model));
    }
    let length = relevant
        .iter()
        .map(|c| c.result.f1_per_batch.len())
        .min()
        .unwrap_or(0);
    let mut lines = vec![header.join(",")];
    let f1_windows: Vec<Vec<dmt::eval::trace::WindowPoint>> = relevant
        .iter()
        .map(|c| sliding_window(&c.result.f1_per_batch, window))
        .collect();
    let split_windows: Vec<Vec<dmt::eval::trace::WindowPoint>> = relevant
        .iter()
        .map(|c| {
            sliding_window(
                &dmt::eval::trace::log_counts(&c.result.splits_per_batch),
                window,
            )
        })
        .collect();
    for t in 0..length {
        let mut row = vec![format!("{}", t + 1)];
        for (f1w, sw) in f1_windows.iter().zip(split_windows.iter()) {
            row.push(format!("{:.4}", f1w[t].mean));
            row.push(format!("{:.4}", f1w[t].std));
            row.push(format!("{:.4}", sw[t].mean));
            row.push(format!("{:.4}", sw[t].std));
        }
        lines.push(row.join(","));
    }
    let path = format!("results/{filename}");
    std::fs::write(&path, lines.join("\n"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let options = HarnessOptions::parse(
            [
                "--scale",
                "0.5",
                "--seed",
                "7",
                "--models",
                "standalone",
                "--datasets",
                "SEA,Agrawal",
                "--max-batches",
                "3",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(options.scale, 0.5);
        assert_eq!(options.seed, 7);
        assert_eq!(options.models.len(), 6);
        assert_eq!(
            options.datasets,
            vec!["SEA".to_string(), "Agrawal".to_string()]
        );
        assert_eq!(options.max_batches, Some(3));
    }

    #[test]
    fn quick_flag_switches_to_smoke_configuration() {
        let options = HarnessOptions::parse(["--quick".to_string()]);
        assert_eq!(options.scale, 0.005);
        assert_eq!(options.models.len(), 6);
    }

    #[test]
    fn default_options_cover_all_models_and_datasets() {
        let options = HarnessOptions::default();
        assert_eq!(options.models.len(), 8);
        assert_eq!(options.datasets.len(), 13);
    }

    #[test]
    fn run_cell_produces_a_result() {
        let options = HarnessOptions {
            scale: 0.002,
            max_batches: Some(5),
            ..HarnessOptions::default()
        };
        let cell = run_cell(ModelKind::VfdtMc, "SEA", &options).unwrap();
        assert_eq!(cell.dataset, "SEA");
        assert_eq!(cell.result.num_batches(), 5);
        assert!(run_cell(ModelKind::VfdtMc, "Nope", &options).is_none());
    }

    #[test]
    fn throughput_streams_are_reproducible_per_seed() {
        for name in THROUGHPUT_STREAMS {
            let mut a = throughput_stream(name, bench_seed::STREAM).unwrap();
            let mut b = throughput_stream(name, bench_seed::STREAM).unwrap();
            let batch_a = a.next_batch(64).unwrap();
            let batch_b = b.next_batch(64).unwrap();
            assert_eq!(batch_a.ys, batch_b.ys, "{name}: labels diverge");
            for (ra, rb) in batch_a.xs.iter().zip(batch_b.xs.iter()) {
                for (va, vb) in ra.iter().zip(rb.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{name}: features diverge");
                }
            }
        }
        assert!(throughput_stream("Nope", 1).is_none());
    }

    #[test]
    fn rank_symbols_assign_extremes() {
        let values = vec![
            ("A".to_string(), 0.9),
            ("B".to_string(), 0.5),
            ("C".to_string(), 0.7),
            ("D".to_string(), 0.1),
        ];
        let ranks = rank_symbols(&values, true);
        assert_eq!(ranks["A"], "++");
        assert_eq!(ranks["D"], "--");
        assert_eq!(ranks["C"], "+");
        assert_eq!(ranks["B"], "-");
        // For "lower is better" the order flips.
        let ranks = rank_symbols(&values, false);
        assert_eq!(ranks["D"], "++");
        assert_eq!(ranks["A"], "--");
    }

    #[test]
    fn render_table_contains_all_models_and_datasets() {
        let options = HarnessOptions {
            scale: 0.002,
            max_batches: Some(3),
            models: vec![ModelKind::VfdtMc, ModelKind::Dmt],
            datasets: vec!["SEA".to_string()],
            ..HarnessOptions::default()
        };
        let cells = run_grid(&options);
        assert_eq!(cells.len(), 2);
        let table = render_table("Test", &cells, &options.models, &options.datasets, 2, |r| {
            r.f1_mean_std()
        });
        assert!(table.contains("DMT (ours)"));
        assert!(table.contains("VFDT (MC)"));
        assert!(table.contains("SEA"));
        let aggregates = aggregate(&cells, &options.models);
        assert_eq!(aggregates.len(), 2);
    }
}
