//! Integration pins for memory accounting and the byte-budget degradation
//! ladder: a budgeted tree never exceeds its budget over a whole hostile
//! run (serial and pooled), keeps ≥ 95 % of the unbudgeted accuracy while
//! doing so, a budget that never binds is bit-identical to no budget at all,
//! and budget enforcement (compaction included) leaves snapshots byte-stable.
//! These back the CI `memory-discipline` job.

use std::path::{Path, PathBuf};

use dmt::core::{DmtConfig, DynamicModelTree, Parallelism};
use dmt::models::MemoryUsage;
use dmt::prelude::*;
use dmt::stream::workload;

/// Fresh per-test dataset directory (same convention as the workload pins).
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmt-memory-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Test-then-train one workload through a tree in batches of `batch`,
/// asserting `memory_bytes() <= budget` after every learned batch when a
/// budget is armed. Returns `(accuracy, final_memory_bytes)`.
fn soak(
    tree: &mut DynamicModelTree,
    workload_name: &str,
    dir: &Path,
    batch: usize,
) -> (f64, usize) {
    let mut stream = workload::build_workload(workload_name, dir)
        .expect("synthesize + load")
        .expect("known workload");
    let budget = tree.config().memory_budget_bytes;
    let mut correct = 0u64;
    let mut total = 0u64;
    let mut predictions = Vec::new();
    while let Some(b) = stream.next_batch(batch) {
        let rows = b.rows();
        predictions.clear();
        predictions.resize(rows.len(), 0);
        tree.predict_batch_into(&rows, &mut predictions);
        correct += predictions
            .iter()
            .zip(b.ys.iter())
            .filter(|(p, y)| p == y)
            .count() as u64;
        total += rows.len() as u64;
        tree.learn_batch(&rows, &b.ys);
        if let Some(budget) = budget {
            let bytes = tree.memory_bytes();
            assert!(
                bytes <= budget,
                "{workload_name}: {bytes} bytes over the {budget} budget after {total} instances \
                 (arena {}, leaves {}, frozen {})",
                tree.arena().memory_bytes(),
                tree.num_leaves(),
                tree.growth_frozen()
            );
        }
    }
    (correct as f64 / total as f64, tree.memory_bytes())
}

const SOAK_BUDGET: usize = 384 * 1024;

/// The tentpole acceptance pin: on the adversarial `memory-budget` workload
/// (high-cardinality nominals, geometry redrawn every 3k instances) a
/// budgeted tree stays under its byte budget for the *whole* run without
/// panicking, while an unbudgeted twin — fed the identical stream — grows
/// past the budget (proving the pressure is real) and scores at most
/// marginally better (the ladder costs ≤ 5 % accuracy).
#[test]
fn budget_soak_stays_bounded_on_the_memory_budget_workload() {
    let dir = scratch_dir("soak");
    let schema = workload::build_workload("memory-budget", &dir)
        .unwrap()
        .unwrap()
        .schema()
        .clone();
    let mut budgeted = DynamicModelTree::new(
        schema.clone(),
        DmtConfig {
            memory_budget_bytes: Some(SOAK_BUDGET),
            ..DmtConfig::default()
        },
    );
    let mut unbudgeted = DynamicModelTree::new(schema, DmtConfig::default());

    let (acc_budgeted, bytes_budgeted) = soak(&mut budgeted, "memory-budget", &dir, 64);
    let (acc_unbudgeted, bytes_unbudgeted) = soak(&mut unbudgeted, "memory-budget", &dir, 64);

    assert!(bytes_budgeted <= SOAK_BUDGET);
    assert!(
        bytes_unbudgeted > SOAK_BUDGET,
        "the workload must actually pressure the budget: unbudgeted tree \
         only reached {bytes_unbudgeted} bytes"
    );
    assert!(
        acc_budgeted >= 0.95 * acc_unbudgeted,
        "graceful degradation broke: budgeted {acc_budgeted:.4} vs \
         unbudgeted {acc_unbudgeted:.4}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same soak on a tree carrying a worker pool: the per-executor
/// prediction scratches of pool-chunked prediction are part of the accounted
/// (and therefore bounded) footprint.
#[test]
fn pooled_budget_soak_stays_bounded_on_the_drift_cocktail() {
    let dir = scratch_dir("pooled-soak");
    let schema = workload::build_workload("drift-cocktail", &dir)
        .unwrap()
        .unwrap()
        .schema()
        .clone();
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(SOAK_BUDGET),
            parallelism: Parallelism::Threads(2),
            ..DmtConfig::default()
        },
    );
    let (accuracy, bytes) = soak(&mut tree, "drift-cocktail", &dir, 64);
    assert!(bytes <= SOAK_BUDGET);
    assert!(accuracy > 0.5, "budgeted tree must still learn: {accuracy}");
    // Budget enforcement leaves the snapshot codec byte-stable: save → load
    // → save is the identity, and the restored twin predicts identically.
    let bytes = tree.to_snapshot_bytes();
    let restored = DynamicModelTree::from_snapshot_bytes(&bytes).expect("snapshot restores");
    assert_eq!(bytes, restored.to_snapshot_bytes());
    for probe in [[0.2f64; 8], [0.8f64; 8]] {
        let a = tree.predict_proba(&probe);
        let b = restored.predict_proba(&probe);
        for (va, vb) in a.iter().zip(b.iter()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget that never binds must change nothing: a tree armed with an
/// absurdly large budget learns and predicts bit-identically to a tree with
/// no budget at all — at the pinned batch sizes (scalar edge, astride the
/// 8-lane unroll, full multiple) and through both the serial and the pooled
/// update path.
#[test]
fn unbinding_budget_is_bit_identical_to_no_budget() {
    for &batch in &[1usize, 7, 64] {
        for workers in [Parallelism::Serial, Parallelism::Threads(2)] {
            let schema = StreamSchema::numeric("budget-identity", 3, 2);
            let mut with_budget = DynamicModelTree::new(
                schema.clone(),
                DmtConfig {
                    memory_budget_bytes: Some(1 << 40),
                    parallelism: workers,
                    ..DmtConfig::default()
                },
            );
            let mut without = DynamicModelTree::new(
                schema,
                DmtConfig {
                    memory_budget_bytes: None,
                    parallelism: workers,
                    ..DmtConfig::default()
                },
            );
            let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 42);
            for _ in 0..(2_000 / batch.max(1)).max(8) {
                let b = stream.next_batch(batch).expect("SEA is unbounded");
                let rows = b.rows();
                with_budget.learn_batch(&rows, &b.ys);
                without.learn_batch(&rows, &b.ys);
            }
            assert_eq!(with_budget.num_leaves(), without.num_leaves());
            assert_eq!(with_budget.observations(), without.observations());
            assert!(!with_budget.growth_frozen());
            let mut probe_stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 43);
            let probes = probe_stream.next_batch(200).unwrap();
            for row in probes.rows() {
                let a = with_budget.predict_proba(row);
                let b = without.predict_proba(row);
                for (va, vb) in a.iter().zip(b.iter()) {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "batch {batch}, {workers:?}: diverged"
                    );
                }
            }
        }
    }
}

/// Rung 4 (the hard floor): a budget below even a single leaf's footprint
/// (64 bytes buys one eight-slot `Vec<f64>` — less than the root model's
/// weights alone) collapses the tree to its root, freezes growth, and the
/// tree *still* learns and predicts without panicking — degraded, never dead.
#[test]
fn impossible_budget_freezes_growth_but_never_kills_the_tree() {
    let schema = StreamSchema::numeric("budget-floor", 3, 2);
    let mut tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            memory_budget_bytes: Some(64),
            ..DmtConfig::default()
        },
    );
    let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 7);
    for _ in 0..40 {
        let b = stream.next_batch(100).unwrap();
        let rows = b.rows();
        tree.learn_batch(&rows, &b.ys);
        assert_eq!(tree.num_leaves(), 1, "the floor keeps the tree merged");
        assert!(tree.growth_frozen(), "an impossible budget freezes growth");
    }
    assert_eq!(tree.observations(), 4_000);
    let proba = tree.predict_proba(&[0.5, 0.5, 0.5]);
    assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(proba.iter().all(|p| p.is_finite()));
}

/// The free-list canonicalisation satellite: after drift-driven prunes leave
/// holes in the arena, saving, restoring and re-saving a tree produces the
/// identical bytes — slot numbering and free-list order are part of the
/// canonical wire form, so snapshot diffing stays meaningful.
#[test]
fn pruned_trees_reserialize_to_identical_bytes() {
    let schema = StreamSchema::numeric("canonical", 3, 2);
    let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
    let mut stream = dmt::stream::generators::SeaGenerator::new(3, 0.1, 11);
    // Learn one concept, then flip every label so structural checks prune.
    for flip in [false, true, false, true] {
        for _ in 0..10 {
            let b = stream.next_batch(100).unwrap();
            let rows = b.rows();
            let ys: Vec<usize> = if flip {
                b.ys.iter().map(|&y| 1 - y).collect()
            } else {
                b.ys.clone()
            };
            tree.learn_batch(&rows, &ys);
        }
    }
    let first = tree.to_snapshot_bytes();
    let restored = DynamicModelTree::from_snapshot_bytes(&first).expect("snapshot restores");
    let second = restored.to_snapshot_bytes();
    assert_eq!(first, second, "re-serialisation must be the identity");
}
