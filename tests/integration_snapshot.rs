//! Crash-safety and fault-injection contracts of the snapshot subsystem:
//!
//! * save→load→predict/learn is **bit-identical** to the uninterrupted model,
//!   pinned at batch sizes 1/7/64 for both the serial and the pooled build,
//!   through streams that force splits, replacements *and* prunes, and
//!   save→load→save is the identity on bytes under every `DMT_PARALLELISM`
//!   value (snapshots do not store the host-local parallelism);
//! * the restored arena preserves the structural bookkeeping (slot count,
//!   free list, live count, `validate`) across random split/prune/drift
//!   histories (proptest);
//! * a fixed-seed corruption fuzz (byte flips, truncations, splices) over
//!   valid snapshots: every corrupted buffer loads as a typed `Err` — zero
//!   panics across the whole suite;
//! * hostile envelope variants map to their dedicated `SnapshotError`
//!   variants, and cross-model confusion (ensemble bytes into the tree
//!   loader and vice versa) is rejected;
//! * an injected job panic propagates out of `WorkerPool::run` but leaves
//!   the pool dispatchable and the tree learnable, valid and snapshottable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dmt::core::snapshot::{
    open_payload, seal_payload, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use dmt::core::{DmtConfig, DynamicModelTree, Parallelism, SnapshotError, WorkerPool};
use dmt::ensembles::{AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig};
use dmt::models::OnlineClassifier;
use dmt::stream::schema::StreamSchema;
use proptest::prelude::*;

/// The pinned batch sizes: the scalar edge case, a non-multiple of the
/// 8-lane kernel width, and a full window multiple.
const PINNED_BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// Fixed fuzz seed: the corruption suite is deterministic and reproducible.
const FUZZ_SEED: u64 = 0x1CDE_2022_0DD5_EED5;

/// Corruption attempts per fuzz mode (flip / truncate / splice).
const FUZZ_ITERATIONS: usize = 300;

/// Deterministic SplitMix64 — the fuzz suite must not depend on ambient
/// randomness, so it rolls its own generator from the fixed seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three-phase step stream of the parallel pins: phase 0 forces splits,
/// phase 1 forces replacements, phase 2 invites prunes.
fn step_batch(round: usize, phase: usize, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = ((i * 7 + round * 13) % 101) as f64 / 101.0;
            let u = ((i * 31 + round * 3) % 67) as f64 / 67.0;
            vec![t, u]
        })
        .collect();
    let ys: Vec<usize> = xs
        .iter()
        .map(|x| match phase {
            0 => usize::from(x[0] > 0.75),
            1 => usize::from(x[0] <= 0.4),
            _ => 1,
        })
        .collect();
    (xs, ys)
}

fn eager_config(parallelism: Parallelism) -> DmtConfig {
    DmtConfig {
        use_aic_threshold: false,
        min_observations_split: 40,
        parallelism,
        ..DmtConfig::default()
    }
}

/// Train a tree through all three concept phases so its snapshot carries
/// non-trivial structure: inner nodes, a populated free list and a decision
/// log with splits, replacements and prunes.
fn train_structured(parallelism: Parallelism, batch_size: usize) -> DynamicModelTree {
    let schema = StreamSchema::numeric("snapshot-pin", 2, 2);
    let mut tree = DynamicModelTree::new(schema, eager_config(parallelism));
    let phase_len = (2_000 / batch_size).max(60);
    for round in 0..3 * phase_len {
        let (xs, ys) = step_batch(round, round / phase_len, batch_size);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    tree
}

/// Assert two trees answer bit-identically over a probe sweep covering every
/// concept phase.
fn assert_predictions_bit_identical(a: &DynamicModelTree, b: &DynamicModelTree, context: &str) {
    for phase in 0..3 {
        let (xs, _) = step_batch(9_000 + phase, phase, 64);
        for x in &xs {
            assert_eq!(
                a.predict(x),
                b.predict(x),
                "{context}: predictions diverged"
            );
            for (pa, pb) in a.predict_proba(x).iter().zip(b.predict_proba(x).iter()) {
                assert_eq!(
                    pa.to_bits(),
                    pb.to_bits(),
                    "{context}: probabilities diverged"
                );
            }
        }
    }
}

#[test]
fn snapshot_round_trip_is_bit_identical_at_pinned_sizes() {
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        for &batch_size in &PINNED_BATCH_SIZES {
            let context = format!("{parallelism:?}, batch {batch_size}");
            let mut original = train_structured(parallelism, batch_size);
            assert!(
                original.num_inner_nodes() > 0,
                "{context}: the stream never split, the pin is vacuous"
            );
            let bytes = original.to_snapshot_bytes();
            let mut restored = DynamicModelTree::from_snapshot_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{context}: load failed: {e}"));

            // save → load → save is the identity on bytes whatever
            // `DMT_PARALLELISM` the restoring process runs under (the CI
            // cross-check does exactly that): worker threads are a host
            // property that snapshots do not store.
            assert_eq!(
                bytes,
                restored.to_snapshot_bytes(),
                "{context}: restore round trip rewrote the snapshot bytes"
            );

            // The restored tree answers identically...
            assert_eq!(restored.observations(), original.observations());
            assert_predictions_bit_identical(&original, &restored, &context);

            // ...and *continues learning* identically through another
            // split-heavy phase.
            for round in 0..120 {
                let (xs, ys) = step_batch(50_000 + round, round / 40, batch_size.max(16));
                let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
                original.learn_batch(&rows, &ys);
                restored.learn_batch(&rows, &ys);
            }
            restored.arena().validate(restored.root_id()).unwrap();
            assert_predictions_bit_identical(&original, &restored, &context);
            // After continued learning, re-serialising both must agree byte
            // for byte.
            assert_eq!(
                original.to_snapshot_bytes(),
                restored.to_snapshot_bytes(),
                "{context}: re-serialised snapshots diverged"
            );
        }
    }
}

#[test]
fn snapshot_preserves_arena_bookkeeping() {
    let tree = train_structured(Parallelism::Threads(2), 48);
    let bytes = tree.to_snapshot_bytes();
    let restored = DynamicModelTree::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(restored.arena().num_slots(), tree.arena().num_slots());
    assert_eq!(restored.arena().num_free(), tree.arena().num_free());
    assert_eq!(
        restored.arena().live_count(restored.root_id()),
        tree.arena().live_count(tree.root_id())
    );
    assert_eq!(restored.num_inner_nodes(), tree.num_inner_nodes());
    assert_eq!(restored.num_leaves(), tree.num_leaves());
    assert_eq!(restored.decision_log(), tree.decision_log());
    restored.arena().validate(restored.root_id()).unwrap();
}

#[test]
fn corrupted_snapshots_fail_typed_and_never_panic() {
    let tree = train_structured(Parallelism::Serial, 32);
    let valid = tree.to_snapshot_bytes();
    assert!(DynamicModelTree::from_snapshot_bytes(&valid).is_ok());
    let mut rng = SplitMix64(FUZZ_SEED);

    // A corrupted buffer must load as `Err` without panicking. `catch_unwind`
    // turns any panic into a counted failure with the reproducing iteration.
    let assert_rejected = |bytes: &[u8], mode: &str, iteration: usize| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            DynamicModelTree::from_snapshot_bytes(bytes).err()
        }));
        match outcome {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{mode} iteration {iteration} (seed {FUZZ_SEED:#x}): corrupted snapshot loaded as Ok"),
            Err(_) => panic!("{mode} iteration {iteration} (seed {FUZZ_SEED:#x}): load PANICKED on corrupted input"),
        }
    };

    // Byte flips: anywhere in the buffer, any single bit.
    for i in 0..FUZZ_ITERATIONS {
        let mut flipped = valid.clone();
        let pos = rng.below(flipped.len());
        flipped[pos] ^= 1 << rng.below(8);
        assert_rejected(&flipped, "byte-flip", i);
    }

    // Truncations: every prefix length class, including the empty buffer.
    for i in 0..FUZZ_ITERATIONS {
        let len = rng.below(valid.len());
        assert_rejected(&valid[..len], "truncate", i);
    }

    // Splices: remove a chunk, duplicate a chunk, or overwrite a region with
    // bytes from elsewhere in the snapshot. Identity edits (a splice that
    // reproduces the original buffer) are skipped — they are not corruption.
    for i in 0..FUZZ_ITERATIONS {
        let mut spliced = valid.clone();
        match i % 3 {
            0 => {
                let start = rng.below(spliced.len());
                let len = 1 + rng.below((spliced.len() - start).min(64));
                spliced.drain(start..start + len);
            }
            1 => {
                let start = rng.below(spliced.len());
                let len = 1 + rng.below((spliced.len() - start).min(64));
                let chunk: Vec<u8> = spliced[start..start + len].to_vec();
                let at = rng.below(spliced.len());
                spliced.splice(at..at, chunk);
            }
            _ => {
                let src = rng.below(spliced.len());
                let dst = rng.below(spliced.len());
                let len = 1 + rng.below((spliced.len() - src.max(dst)).min(32));
                let chunk: Vec<u8> = spliced[src..src + len].to_vec();
                spliced[dst..dst + len].copy_from_slice(&chunk);
            }
        }
        if spliced == valid {
            continue;
        }
        assert_rejected(&spliced, "splice", i);
    }
}

#[test]
fn hostile_envelopes_map_to_their_error_variants() {
    let tree = train_structured(Parallelism::Serial, 32);
    let valid = tree.to_snapshot_bytes();

    // Wrong magic: not a snapshot at all.
    let mut wrong_magic = valid.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        DynamicModelTree::from_snapshot_bytes(&wrong_magic),
        Err(SnapshotError::NotASnapshot)
    ));

    // Future version: skew, reported with both version numbers.
    let mut future = valid.clone();
    future[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match DynamicModelTree::from_snapshot_bytes(&future) {
        Err(SnapshotError::VersionSkew { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        Err(other) => panic!("expected VersionSkew, got {other:?}"),
        Ok(_) => panic!("a future version must not load"),
    }

    // Short header: truncation with the missing byte count.
    match DynamicModelTree::from_snapshot_bytes(&valid[..SNAPSHOT_HEADER_LEN - 1]) {
        Err(SnapshotError::Truncated { needed, available }) => {
            assert_eq!(needed, SNAPSHOT_HEADER_LEN);
            assert_eq!(available, SNAPSHOT_HEADER_LEN - 1);
        }
        Err(other) => panic!("expected Truncated, got {other:?}"),
        Ok(_) => panic!("a short header must not load"),
    }

    // Payload bit flip: checksum mismatch, header untouched.
    let mut flipped = valid.clone();
    let mid = SNAPSHOT_HEADER_LEN + (valid.len() - SNAPSHOT_HEADER_LEN) / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        DynamicModelTree::from_snapshot_bytes(&flipped),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Trailing garbage after the announced payload.
    let mut padded = valid.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        DynamicModelTree::from_snapshot_bytes(&padded),
        Err(SnapshotError::Invalid(_))
    ));

    // A checksum-valid envelope around a garbage payload fails in the
    // decoder, not with a panic.
    let garbage = seal_payload(&[0xAB; 64]);
    assert!(
        open_payload(&garbage).is_ok(),
        "the envelope itself is fine"
    );
    assert!(DynamicModelTree::from_snapshot_bytes(&garbage).is_err());

    // The magic constant is what the files actually start with.
    assert_eq!(&valid[..8], &SNAPSHOT_MAGIC);
}

#[test]
fn cross_model_snapshots_are_rejected() {
    // A checksum-valid snapshot of one model kind must not load as another.
    let schema = StreamSchema::numeric("cross", 2, 2);
    let tree = train_structured(Parallelism::Serial, 32);
    let tree_bytes = tree.to_snapshot_bytes();

    let mut bagging = LeveragingBagging::new(schema.clone(), LeveragingBaggingConfig::default());
    let mut forest = AdaptiveRandomForest::new(schema, ArfConfig::default());
    for round in 0..40 {
        let (xs, ys) = step_batch(round, 0, 32);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        bagging.learn_batch(&rows, &ys);
        forest.learn_batch(&rows, &ys);
    }

    assert!(LeveragingBagging::from_snapshot_bytes(&tree_bytes).is_err());
    assert!(AdaptiveRandomForest::from_snapshot_bytes(&tree_bytes).is_err());
    assert!(DynamicModelTree::from_snapshot_bytes(&bagging.to_snapshot_bytes()).is_err());
    assert!(DynamicModelTree::from_snapshot_bytes(&forest.to_snapshot_bytes()).is_err());
}

#[test]
fn worker_pool_survives_injected_job_panics() {
    let pool = WorkerPool::new(4);
    for round in 0..3 {
        // Inject: one item panics mid-job. The panic must reach the caller…
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..64).collect::<Vec<usize>>(), |_, item| {
                if item == 17 + round {
                    panic!("injected fault {round}");
                }
                item * 2
            })
        }));
        assert!(
            outcome.is_err(),
            "round {round}: the injected panic was swallowed"
        );

        // …and the pool must serve the very next dispatch, in order.
        let results = pool.run((0..64).collect::<Vec<usize>>(), |_, item| item * 3);
        assert_eq!(results, (0..64).map(|i| i * 3).collect::<Vec<usize>>());
    }
    assert_eq!(pool.executors(), 4);
}

#[test]
fn tree_stays_valid_and_snapshottable_after_a_pool_panic() {
    // Train a pooled tree, inject a panic through its own pool, then keep
    // learning and predicting with the same pool: the tree must stay
    // bit-identical to a serial twin and still snapshot/restore cleanly.
    let schema = StreamSchema::numeric("pool-fault", 2, 2);
    let mut pooled = DynamicModelTree::new(schema.clone(), eager_config(Parallelism::Threads(2)));
    let mut serial = DynamicModelTree::new(schema, eager_config(Parallelism::Serial));
    for round in 0..150 {
        let (xs, ys) = step_batch(round, round / 75, 48);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        pooled.learn_batch(&rows, &ys);
        serial.learn_batch(&rows, &ys);
    }
    let pool = std::sync::Arc::clone(pooled.worker_pool().expect("pooled tree created the pool"));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.run(vec![0usize; 16], |i, _| {
            if i % 5 == 3 {
                panic!("injected mid-training fault");
            }
        })
    }));
    assert!(outcome.is_err(), "the injected panic was swallowed");

    for round in 150..260 {
        let (xs, ys) = step_batch(round, 1, 48);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        pooled.learn_batch(&rows, &ys);
        serial.learn_batch(&rows, &ys);
    }
    pooled.arena().validate(pooled.root_id()).unwrap();
    assert_predictions_bit_identical(&pooled, &serial, "after pool panic");
    assert_eq!(pooled.to_snapshot_bytes(), serial.to_snapshot_bytes());

    let restored = DynamicModelTree::from_snapshot_bytes(&pooled.to_snapshot_bytes()).unwrap();
    assert_predictions_bit_identical(&pooled, &restored, "snapshot after pool panic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random split/prune/drift histories, serial and pooled: snapshotting at
    /// an arbitrary point preserves the arena bookkeeping and the learning
    /// trajectory bit for bit.
    #[test]
    fn snapshot_round_trips_across_random_histories(
        workers in 1usize..4,
        phases in proptest::collection::vec(0usize..3, 1..5),
        batch_size in 1usize..65,
    ) {
        let parallelism = if workers == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(workers)
        };
        let schema = StreamSchema::numeric("snapshot-prop", 2, 2);
        let mut tree = DynamicModelTree::new(schema, eager_config(parallelism));
        for (block, &phase) in phases.iter().enumerate() {
            let rounds = (600 / batch_size).max(30);
            for round in 0..rounds {
                let (xs, ys) = step_batch(block * 10_000 + round, phase, batch_size);
                let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
                tree.learn_batch(&rows, &ys);
            }
        }
        let bytes = tree.to_snapshot_bytes();
        let mut restored = DynamicModelTree::from_snapshot_bytes(&bytes).unwrap();

        prop_assert!(restored.arena().validate(restored.root_id()).is_ok());
        prop_assert_eq!(restored.arena().num_slots(), tree.arena().num_slots());
        prop_assert_eq!(restored.arena().num_free(), tree.arena().num_free());
        prop_assert_eq!(
            restored.arena().live_count(restored.root_id()),
            tree.arena().live_count(tree.root_id())
        );
        prop_assert_eq!(restored.observations(), tree.observations());

        // One more learning block on both: the trajectories stay identical.
        for round in 0..20 {
            let (xs, ys) = step_batch(90_000 + round, round % 3, batch_size);
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
            restored.learn_batch(&rows, &ys);
        }
        let (probe, _) = step_batch(99_999, 0, 32);
        for x in &probe {
            prop_assert_eq!(tree.predict(x), restored.predict(x));
            for (a, b) in tree.predict_proba(x).iter().zip(restored.predict_proba(x).iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        prop_assert_eq!(tree.to_snapshot_bytes(), restored.to_snapshot_bytes());
    }
}
