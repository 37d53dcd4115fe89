//! Named real-world-style workloads backed by synthesized CSV files.
//!
//! The paper's headline claims are made on real-world streams — electricity
//! pricing, forest covertype with high-cardinality factorised nominals,
//! strongly imbalanced event data — but those files are proprietary or hosted
//! on OpenML/UCI and unavailable in this offline reproduction. This module
//! closes the gap without a network or a registry: each workload is a
//! **deterministic zero-dependency dataset synthesis recipe** (pinned seed,
//! byte-stable output) that is generated *once* into a datasets directory and
//! then consumed through the same [`crate::realworld::load_csv`] file path a
//! user with the original data would take. The file round-trip is the point:
//! the CSV loader, schema overrides and drift compositions are exercised
//! end-to-end, exactly like a real deployment.
//!
//! Five workloads are exposed by name (see [`WORKLOADS`]):
//!
//! | name | stresses |
//! |---|---|
//! | `elec-like` | autocorrelated series, recurring abrupt level shifts |
//! | `forest-like` | 7 imbalanced classes, high-cardinality nominals (40/128) |
//! | `fraud-like` | 40:1 class imbalance, sparse rows (most cells zero) |
//! | `drift-cocktail` | abrupt **and** gradual drift composed on one stream |
//! | `memory-budget` | nominals of cardinality 64/256 + geometry redrawn every 3k — sustained allocation pressure |
//!
//! The drift cocktail composes two synthesized concept files with
//! [`crate::drift::AbruptDriftStream`] and [`crate::drift::GradualDriftStream`],
//! so its change-points are known exactly (see
//! [`WorkloadInfo::change_points`]) and CI can pin them.
//!
//! `bench_accuracy` runs every workload prequentially and the CI
//! `accuracy-regression` job gates the results against the blessed
//! `BENCH_ACC.json` — the quality counterpart of the `bench_compare`
//! throughput gate.

use std::f64::consts::TAU;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

use crate::drift::{AbruptDriftStream, GradualDriftStream};
use crate::realworld::{load_csv, CsvError};
use crate::schema::{FeatureSpec, StreamSchema};
use crate::stream::{DataStream, MaterializedStream};
use crate::transform::{BoxedStream, TakeStream};

/// Pinned synthesis seeds, one per dataset file. Changing any of these (or
/// any recipe) changes the datasets and therefore invalidates the blessed
/// `BENCH_ACC.json` — re-bless when you touch them.
mod seed {
    pub const ELEC: u64 = 0x0E1E_C201;
    pub const FOREST: u64 = 0xF0_7E57;
    pub const FRAUD: u64 = 0xF4_A9D0;
    pub const COCKTAIL_A: u64 = 0x00C0_C0A0;
    pub const COCKTAIL_B: u64 = 0x00C0_C0B0;
    /// Seed of the gradual-drift mixing RNG in the cocktail composition.
    pub const COCKTAIL_MIX: u64 = 0x00C0_C011;
    pub const MEMORY_BUDGET: u64 = 0x3E3_B4D6;
}

/// File stems of the synthesized datasets (`<stem>.csv` in the datasets
/// directory). The cocktail workload composes two concept files; the other
/// workloads map one-to-one.
pub const DATASET_FILES: [&str; 6] = [
    "elec_like",
    "forest_like",
    "fraud_like",
    "cocktail_a",
    "cocktail_b",
    "memory_budget",
];

/// Static description of one named workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Catalog name (`catalog::build_stream` and `bench_accuracy` use it).
    pub name: &'static str,
    /// One-line description of what the workload stresses.
    pub description: &'static str,
    /// Total number of instances the built stream emits.
    pub samples: u64,
    /// Number of feature columns.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Known concept change-points as `(instance index, kind)`; empty when
    /// the stream is stationary by construction.
    pub change_points: &'static [(u64, &'static str)],
}

/// Instance positions where the elec-like price regime shifts abruptly.
pub const ELEC_CHANGE_POINTS: [(u64, &str); 3] =
    [(5_000, "abrupt"), (10_000, "abrupt"), (15_000, "abrupt")];

/// Change-points of the drift cocktail: an abrupt concept switch, then a
/// gradual (sigmoid-weighted, width [`COCKTAIL_GRADUAL_WIDTH`]) transition
/// back to the first concept centred at the second position.
pub const COCKTAIL_CHANGE_POINTS: [(u64, &str); 2] = [(8_000, "abrupt"), (16_000, "gradual")];

/// Transition width of the cocktail's gradual drift, in instances.
pub const COCKTAIL_GRADUAL_WIDTH: u64 = 2_000;

/// Concept change-points of the memory-budget workload: the blob geometry is
/// redrawn every 3 000 instances, so the tree never converges and keeps
/// growing structure — the sustained memory pressure the workload is for.
pub const MEMORY_BUDGET_CHANGE_POINTS: [(u64, &str); 7] = [
    (3_000, "abrupt"),
    (6_000, "abrupt"),
    (9_000, "abrupt"),
    (12_000, "abrupt"),
    (15_000, "abrupt"),
    (18_000, "abrupt"),
    (21_000, "abrupt"),
];

/// The named workloads, in bench order.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "elec-like",
        description: "electricity-market style: autocorrelated price/demand series, \
                      daily cycle, three abrupt price-level regime shifts",
        samples: 20_000,
        features: 8,
        classes: 2,
        change_points: &ELEC_CHANGE_POINTS,
    },
    WorkloadInfo {
        name: "forest-like",
        description: "covertype style: 7 imbalanced classes, 10 numeric columns plus \
                      factorised nominals of cardinality 40 and 128",
        samples: 20_000,
        features: 12,
        classes: 7,
        change_points: &[],
    },
    WorkloadInfo {
        name: "fraud-like",
        description: "event-fraud style: 40:1 class imbalance, sparse rows with \
                      most feature cells zero",
        samples: 20_000,
        features: 16,
        classes: 2,
        change_points: &[],
    },
    WorkloadInfo {
        name: "drift-cocktail",
        description: "abrupt switch to an inverted concept at 8k, gradual return \
                      to the original centred at 16k (width 2k)",
        samples: 24_000,
        features: 8,
        classes: 2,
        change_points: &COCKTAIL_CHANGE_POINTS,
    },
    WorkloadInfo {
        name: "memory-budget",
        description: "memory-pressure stress: nominals of cardinality 64 and 256 \
                      plus a blob geometry redrawn every 3k instances, so candidate \
                      pools and tree structure grow without bound",
        samples: 24_000,
        features: 10,
        classes: 2,
        change_points: &MEMORY_BUDGET_CHANGE_POINTS,
    },
];

/// Look up a workload description by name.
pub fn workload_info(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The default datasets directory: `results/datasets/` of the workspace
/// checkout this crate was built from, overridable with the
/// `DMT_DATASETS_DIR` environment variable (set it when running binaries
/// outside the source tree).
pub fn default_datasets_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DMT_DATASETS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/datasets")
}

fn push_f64(out: &mut String, v: f64) {
    // Fixed precision keeps the files byte-stable and diff-friendly; six
    // decimals round-trip far below any model-relevant resolution.
    out.push_str(&format!("{v:.6}"));
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

/// Electricity-like recipe: two AR(1) series (price, demand) with a 48-step
/// daily cycle, a price-level regime that shifts abruptly at the
/// [`ELEC_CHANGE_POINTS`], and a label comparing the price against its
/// trailing daily mean (the classic ELEC2 "up/down" target), plus 5 % label
/// noise.
fn synthesize_elec_like() -> String {
    const N: usize = 20_000;
    const DAY: usize = 48;
    const LEVELS: [f64; 4] = [0.45, 0.60, 0.38, 0.55];
    let mut rng = StdRng::seed_from_u64(seed::ELEC);
    let mut out = String::with_capacity(N * 64);
    out.push_str("period,day,nswprice,nswdemand,vicprice,vicdemand,transfer,reserve,label\n");

    let mut price_ar = 0.0f64;
    let mut demand_ar = 0.0f64;
    let mut window = [0.0f64; DAY];
    let mut window_sum = 0.0f64;
    for t in 0..N {
        let level = LEVELS[(t / 5_000).min(LEVELS.len() - 1)];
        price_ar = 0.9 * price_ar + 0.2 * (rng.gen::<f64>() - 0.5);
        demand_ar = 0.85 * demand_ar + 0.25 * (rng.gen::<f64>() - 0.5);
        let phase = TAU * (t % DAY) as f64 / DAY as f64;
        let price = clamp01(level + 0.08 * phase.sin() + 0.15 * price_ar);
        let demand = clamp01(0.55 + 0.12 * (phase + 1.3).sin() + 0.18 * demand_ar);
        let vicprice = clamp01(0.75 * price + 0.1 * (rng.gen::<f64>() - 0.5));
        let vicdemand = clamp01(0.9 * demand + 0.12 * (rng.gen::<f64>() - 0.5));
        let transfer = clamp01(0.5 + 0.8 * (price - vicprice) + 0.05 * (rng.gen::<f64>() - 0.5));
        let reserve = clamp01(1.0 - demand + 0.1 * (rng.gen::<f64>() - 0.5));

        // Trailing daily mean of the price, excluding the current step
        // (`t` counts the prices already in the window).
        let mean = if t == 0 {
            level
        } else {
            window_sum / t.min(DAY) as f64
        };
        // The +0.01 margin biases towards "down", giving the ~58 % majority
        // the real ELEC2 data shows.
        let mut y = usize::from(price > mean + 0.01);
        if rng.gen_bool(0.05) {
            y = 1 - y;
        }
        let slot = t % DAY;
        if t >= DAY {
            window_sum -= window[slot];
        }
        window[slot] = price;
        window_sum += price;

        for v in [
            (t % DAY) as f64 / DAY as f64,
            ((t / DAY) % 7) as f64 / 7.0,
            price,
            demand,
            vicprice,
            vicdemand,
            transfer,
            reserve,
        ] {
            push_f64(&mut out, v);
            out.push(',');
        }
        out.push_str(&format!("{y}\n"));
    }
    out
}

/// Covertype-like recipe: per-class Gaussian centres over 10 numeric columns,
/// 7 classes with covertype-style imbalance, one informative nominal column
/// of cardinality 40 (soil type) and one weakly informative id-like column of
/// cardinality 128, so the tree's per-batch nominal dictionary and bucket
/// pass see an id-like column from a *file* workload too.
fn synthesize_forest_like() -> String {
    const N: usize = 20_000;
    const NUMERIC: usize = 10;
    const CLASSES: usize = 7;
    const PRIORS: [f64; CLASSES] = [0.488, 0.212, 0.15, 0.06, 0.04, 0.03, 0.02];
    let mut rng = StdRng::seed_from_u64(seed::FOREST);
    let noise = Normal::new(0.0, 0.09).expect("std > 0");
    let centers: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| (0..NUMERIC).map(|_| rng.gen_range(0.15..0.85)).collect())
        .collect();

    let mut out = String::with_capacity(N * 96);
    for i in 0..NUMERIC {
        out.push_str(&format!("n{i},"));
    }
    out.push_str("soil_type,region_id,label\n");
    for _ in 0..N {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut class = CLASSES - 1;
        for (c, &p) in PRIORS.iter().enumerate() {
            acc += p;
            if r < acc {
                class = c;
                break;
            }
        }
        for &center in &centers[class] {
            push_f64(&mut out, clamp01(center + noise.sample(&mut rng)));
            out.push(',');
        }
        let soil = (class * 6 + rng.gen_range(0..9usize)) % 40;
        let region = (class * 19 + rng.gen_range(0..64usize)) % 128;
        out.push_str(&format!("{soil},{region},{class}\n"));
    }
    out
}

/// Fraud-like recipe: 16 feature columns of which only four are non-zero per
/// row (sparse event data), a 2.5 % positive class, and positives marked by
/// high values on the two signal columns.
fn synthesize_fraud_like() -> String {
    const N: usize = 20_000;
    const FEATURES: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed::FRAUD);
    let background = Normal::new(0.3, 0.12).expect("std > 0");
    let signal = Normal::new(0.75, 0.1).expect("std > 0");
    let mut out = String::with_capacity(N * 80);
    for i in 0..FEATURES {
        out.push_str(&format!("f{i},"));
    }
    out.push_str("label\n");
    let mut row = [0.0f64; FEATURES];
    for _ in 0..N {
        row.fill(0.0);
        let y = usize::from(rng.gen_bool(0.025));
        if y == 1 {
            row[0] = clamp01(signal.sample(&mut rng).abs());
            row[1] = clamp01(signal.sample(&mut rng).abs());
            for _ in 0..2 {
                let i = rng.gen_range(2..FEATURES);
                row[i] = clamp01(background.sample(&mut rng).abs());
            }
        } else {
            for _ in 0..4 {
                let i = rng.gen_range(0..FEATURES);
                row[i] = clamp01(background.sample(&mut rng).abs());
            }
        }
        for &v in &row {
            push_f64(&mut out, v);
            out.push(',');
        }
        out.push_str(&format!("{y}\n"));
    }
    out
}

/// One cocktail concept: two Gaussian blobs over 8 features. Concept B swaps
/// the blob centres *and* inverts the class prior relative to concept A, so
/// both the decision boundary and the label distribution move at each
/// change-point — detectable by models and by the pinning tests alike.
fn synthesize_cocktail(file_seed: u64, positive_prior: f64, swap_centers: bool) -> String {
    const N: usize = 24_000;
    const FEATURES: usize = 8;
    // Both concept files share the blob geometry (drawn from a common pinned
    // seed) so the *only* differences between them are the centre swap and
    // the prior — exactly what a concept drift is.
    let mut geometry = StdRng::seed_from_u64(seed::COCKTAIL_A);
    let blob0: Vec<f64> = (0..FEATURES)
        .map(|_| geometry.gen_range(0.2..0.45))
        .collect();
    let blob1: Vec<f64> = (0..FEATURES)
        .map(|_| geometry.gen_range(0.55..0.8))
        .collect();
    let (center0, center1) = if swap_centers {
        (&blob1, &blob0)
    } else {
        (&blob0, &blob1)
    };

    let mut rng = StdRng::seed_from_u64(file_seed);
    let noise = Normal::new(0.0, 0.1).expect("std > 0");
    let mut out = String::with_capacity(N * 64);
    for i in 0..FEATURES {
        out.push_str(&format!("c{i},"));
    }
    out.push_str("label\n");
    for _ in 0..N {
        let y = usize::from(rng.gen_bool(positive_prior));
        let center = if y == 1 { center1 } else { center0 };
        for &c in center.iter() {
            push_f64(&mut out, clamp01(c + noise.sample(&mut rng)));
            out.push(',');
        }
        out.push_str(&format!("{y}\n"));
    }
    out
}

/// Memory-budget recipe: the adversarial workload for byte-budgeted trees.
/// Eight numeric columns follow two Gaussian blobs whose centres are redrawn
/// from a fresh phase seed every 3 000 instances
/// ([`MEMORY_BUDGET_CHANGE_POINTS`]), so no finished subtree stays correct
/// for long and the tree keeps replacing structure. Two nominal columns of
/// cardinality 64 (class-correlated, so the tree *wants* to split on it) and
/// 256 (id-like noise) blow up per-candidate bucket statistics — exactly the
/// allocation profile the degradation ladder must keep under a byte budget.
fn synthesize_memory_budget() -> String {
    const N: usize = 24_000;
    const NUMERIC: usize = 8;
    const PHASE_LEN: usize = 3_000;
    let mut rng = StdRng::seed_from_u64(seed::MEMORY_BUDGET);
    let noise = Normal::new(0.0, 0.1).expect("std > 0");
    let mut out = String::with_capacity(N * 72);
    for i in 0..NUMERIC {
        out.push_str(&format!("m{i},"));
    }
    out.push_str("device_id,session_id,label\n");

    let mut center0 = vec![0.0f64; NUMERIC];
    let mut center1 = vec![0.0f64; NUMERIC];
    for t in 0..N {
        if t % PHASE_LEN == 0 {
            // Redraw the blob geometry from a phase-derived pinned seed; the
            // per-row RNG keeps its own stream so adding phases never shifts
            // the noise of earlier rows.
            let phase = (t / PHASE_LEN) as u64;
            let mut geometry = StdRng::seed_from_u64(seed::MEMORY_BUDGET ^ (phase << 32));
            for c in center0.iter_mut() {
                *c = geometry.gen_range(0.1..0.9);
            }
            for c in center1.iter_mut() {
                *c = geometry.gen_range(0.1..0.9);
            }
        }
        let mut y = usize::from(rng.gen_bool(0.5));
        let center = if y == 1 { &center1 } else { &center0 };
        for &c in center.iter() {
            push_f64(&mut out, clamp01(c + noise.sample(&mut rng)));
            out.push(',');
        }
        let device = (y * 29 + rng.gen_range(0..37usize)) % 64;
        let session = rng.gen_range(0..256usize);
        if rng.gen_bool(0.05) {
            y = 1 - y;
        }
        out.push_str(&format!("{device},{session},{y}\n"));
    }
    out
}

/// Synthesize one dataset file by stem. Returns `None` for unknown stems.
///
/// The output is a complete CSV text (header included) and is **byte-stable**:
/// the same stem always produces the identical string, which is what lets the
/// files be generated on demand instead of committed, and lets CI trust the
/// blessed accuracy baseline.
pub fn synthesize_dataset(file: &str) -> Option<String> {
    match file {
        "elec_like" => Some(synthesize_elec_like()),
        "forest_like" => Some(synthesize_forest_like()),
        "fraud_like" => Some(synthesize_fraud_like()),
        "cocktail_a" => Some(synthesize_cocktail(seed::COCKTAIL_A, 0.3, false)),
        "cocktail_b" => Some(synthesize_cocktail(seed::COCKTAIL_B, 0.7, true)),
        "memory_budget" => Some(synthesize_memory_budget()),
        _ => None,
    }
}

/// Ensure `<dir>/<file>.csv` exists, synthesizing it if missing, and return
/// its path. Write-once: an existing file is reused as-is (delete it to
/// regenerate). The write is atomic (temp + rename), so concurrent callers —
/// parallel test binaries, racing CI steps — can never observe a half-written
/// dataset.
pub fn ensure_dataset(dir: &Path, file: &str) -> Result<PathBuf, CsvError> {
    let path = dir.join(format!("{file}.csv"));
    if path.exists() {
        return Ok(path);
    }
    let text = synthesize_dataset(file).ok_or_else(|| {
        CsvError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unknown dataset {file:?}"),
        ))
    })?;
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{file}.csv.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Ensure every dataset file exists in `dir` (used by `bench_accuracy` so the
/// synthesis cost is paid before any timing or evaluation starts).
pub fn ensure_all_datasets(dir: &Path) -> Result<(), CsvError> {
    for file in DATASET_FILES {
        ensure_dataset(dir, file)?;
    }
    Ok(())
}

fn load_dataset(dir: &Path, file: &str) -> Result<MaterializedStream, CsvError> {
    let path = ensure_dataset(dir, file)?;
    load_csv(path)
}

/// Build a named workload from `dir` (synthesizing its dataset files on
/// first use). Returns `Ok(None)` for unknown names.
///
/// Unlike the generator catalog there is no seed parameter: every workload is
/// pinned by construction — same name, same bytes, same stream.
pub fn build_workload(name: &str, dir: &Path) -> Result<Option<BoxedStream>, CsvError> {
    let stream: BoxedStream = match name {
        "elec-like" => {
            let s = load_dataset(dir, "elec_like")?;
            let schema = StreamSchema::new(
                "elec-like",
                s.schema().features.clone(),
                s.schema().num_classes,
            );
            Box::new(s.with_schema(schema))
        }
        "forest-like" => {
            let s = load_dataset(dir, "forest_like")?;
            let mut features = s.schema().features.clone();
            features[10] = FeatureSpec::nominal("soil_type", 40);
            features[11] = FeatureSpec::nominal("region_id", 128);
            let schema = StreamSchema::new("forest-like", features, 7);
            Box::new(s.with_schema(schema))
        }
        "fraud-like" => {
            let s = load_dataset(dir, "fraud_like")?;
            let schema = StreamSchema::new(
                "fraud-like",
                s.schema().features.clone(),
                s.schema().num_classes,
            );
            Box::new(s.with_schema(schema))
        }
        "drift-cocktail" => {
            let a1 = load_dataset(dir, "cocktail_a")?;
            let schema = StreamSchema::new(
                "drift-cocktail",
                a1.schema().features.clone(),
                a1.schema().num_classes,
            );
            let a1 = a1.with_schema(schema);
            let b = load_dataset(dir, "cocktail_b")?;
            let a2 = load_dataset(dir, "cocktail_a")?;
            let (abrupt_at, _) = COCKTAIL_CHANGE_POINTS[0];
            let (gradual_at, _) = COCKTAIL_CHANGE_POINTS[1];
            let abrupt = AbruptDriftStream::new(a1, b, abrupt_at);
            let gradual = GradualDriftStream::new(
                abrupt,
                a2,
                gradual_at,
                COCKTAIL_GRADUAL_WIDTH,
                seed::COCKTAIL_MIX,
            );
            Box::new(TakeStream::new(gradual, 24_000))
        }
        "memory-budget" => {
            let s = load_dataset(dir, "memory_budget")?;
            let mut features = s.schema().features.clone();
            features[8] = FeatureSpec::nominal("device_id", 64);
            features[9] = FeatureSpec::nominal("session_id", 256);
            let schema = StreamSchema::new("memory-budget", features, 2);
            Box::new(s.with_schema(schema))
        }
        _ => return Ok(None),
    };
    Ok(Some(stream))
}

/// [`build_workload`] against the [`default_datasets_dir`].
pub fn build_workload_default(name: &str) -> Result<Option<BoxedStream>, CsvError> {
    build_workload(name, &default_datasets_dir())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DataStream;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmt-workload-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn synthesis_is_byte_stable() {
        for file in DATASET_FILES {
            let a = synthesize_dataset(file).unwrap();
            let b = synthesize_dataset(file).unwrap();
            assert_eq!(a, b, "{file} must synthesize identically every time");
            assert!(
                a.len() > 100_000,
                "{file} looks truncated: {} bytes",
                a.len()
            );
        }
        assert!(synthesize_dataset("nope").is_none());
    }

    #[test]
    fn ensure_dataset_is_write_once() {
        let dir = temp_dir("once");
        let path = ensure_dataset(&dir, "fraud_like").unwrap();
        let original = fs::read_to_string(&path).unwrap();
        assert_eq!(original, synthesize_dataset("fraud_like").unwrap());
        // A second ensure reuses the file; even a modified file is not
        // clobbered (delete to regenerate).
        fs::write(&path, "f0,label\n0.5,1\n").unwrap();
        let again = ensure_dataset(&dir, "fraud_like").unwrap();
        assert_eq!(fs::read_to_string(again).unwrap(), "f0,label\n0.5,1\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_dataset_is_a_typed_error() {
        let dir = temp_dir("unknown");
        assert!(matches!(ensure_dataset(&dir, "nope"), Err(CsvError::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_workload_builds_and_matches_its_info() {
        let dir = temp_dir("build");
        for info in &WORKLOADS {
            let mut stream = build_workload(info.name, &dir).unwrap().unwrap();
            assert_eq!(stream.schema().name, info.name);
            assert_eq!(
                stream.schema().num_features(),
                info.features,
                "{}",
                info.name
            );
            assert_eq!(stream.schema().num_classes, info.classes, "{}", info.name);
            assert_eq!(stream.remaining_hint(), Some(info.samples), "{}", info.name);
            let mut count = 0u64;
            while let Some(inst) = stream.next_instance() {
                assert!(inst.y < info.classes);
                count += 1;
            }
            assert_eq!(count, info.samples, "{}", info.name);
        }
        assert!(build_workload("nope", &dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forest_like_declares_its_nominal_columns() {
        let dir = temp_dir("nominal");
        let stream = build_workload("forest-like", &dir).unwrap().unwrap();
        assert_eq!(stream.schema().nominal_indices(), vec![10, 11]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fraud_like_is_imbalanced_and_sparse() {
        let dir = temp_dir("fraud");
        let mut stream = build_workload("fraud-like", &dir).unwrap().unwrap();
        let mut positives = 0u64;
        let mut zero_cells = 0u64;
        let mut cells = 0u64;
        let mut n = 0u64;
        while let Some(inst) = stream.next_instance() {
            positives += inst.y as u64;
            zero_cells += inst.x.iter().filter(|&&v| v == 0.0).count() as u64;
            cells += inst.x.len() as u64;
            n += 1;
        }
        let positive_rate = positives as f64 / n as f64;
        assert!(
            (0.015..0.04).contains(&positive_rate),
            "positive rate {positive_rate}"
        );
        let zero_rate = zero_cells as f64 / cells as f64;
        assert!(zero_rate > 0.6, "rows should be mostly zeros: {zero_rate}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn elec_like_has_the_documented_majority_side() {
        let dir = temp_dir("elec");
        let mut stream = build_workload("elec-like", &dir).unwrap().unwrap();
        let mut downs = 0u64;
        let mut n = 0u64;
        while let Some(inst) = stream.next_instance() {
            downs += u64::from(inst.y == 0);
            n += 1;
        }
        let rate = downs as f64 / n as f64;
        assert!((0.5..0.7).contains(&rate), "majority rate {rate}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forest_like_majority_matches_covertype_imbalance() {
        let dir = temp_dir("forest");
        let mut stream = build_workload("forest-like", &dir).unwrap().unwrap();
        let mut majority = 0u64;
        let mut n = 0u64;
        let mut max_soil = 0.0f64;
        let mut distinct_regions = std::collections::BTreeSet::new();
        while let Some(inst) = stream.next_instance() {
            majority += u64::from(inst.y == 0);
            max_soil = max_soil.max(inst.x[10]);
            distinct_regions.insert(inst.x[11] as u64);
            n += 1;
        }
        let rate = majority as f64 / n as f64;
        assert!((0.45..0.53).contains(&rate), "majority rate {rate}");
        assert!(max_soil < 40.0, "soil codes stay under the cardinality");
        assert!(
            distinct_regions.len() > 100,
            "region_id must be high-cardinality: {}",
            distinct_regions.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_info_lookup_matches_the_table() {
        assert_eq!(workload_info("drift-cocktail").unwrap().samples, 24_000);
        assert!(workload_info("nope").is_none());
        assert_eq!(WORKLOADS.len(), 5);
    }

    #[test]
    fn memory_budget_has_high_cardinality_nominals_and_phase_churn() {
        let dir = temp_dir("membudget");
        let mut stream = build_workload("memory-budget", &dir).unwrap().unwrap();
        assert_eq!(stream.schema().nominal_indices(), vec![8, 9]);
        let mut distinct_sessions = std::collections::BTreeSet::new();
        let mut phase_means = Vec::new();
        let mut sum = 0.0f64;
        let mut n = 0u64;
        while let Some(inst) = stream.next_instance() {
            assert!(inst.x[8] < 64.0 && inst.x[9] < 256.0);
            distinct_sessions.insert(inst.x[9] as u64);
            sum += inst.x[0];
            n += 1;
            if n.is_multiple_of(3_000) {
                phase_means.push(sum / 3_000.0);
                sum = 0.0;
            }
        }
        assert_eq!(n, 24_000);
        assert!(
            distinct_sessions.len() > 200,
            "session_id must be high-cardinality: {}",
            distinct_sessions.len()
        );
        // The redrawn geometry must actually move the feature distribution
        // between phases (otherwise there is no sustained churn to stress).
        let moved = phase_means
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 0.02)
            .count();
        assert!(moved >= 4, "phases barely move: {phase_means:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
