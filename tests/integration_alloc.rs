//! Enforces the allocation contract of the Dynamic Model Tree hot path: in
//! steady state (scratch buffers at their high-water mark, tree structure
//! stable), `learn_batch` performs no *per-instance* heap allocations — the
//! allocation count per batch is independent of the batch size — and
//! `predict_batch` allocates only its result vector.
//!
//! A counting global allocator makes this measurable. All measurements live
//! in a single `#[test]` so parallel test threads cannot pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dmt::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// side-effect-free atomic increment.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic, pre-materialised batch (built outside the measured
/// region) with a step-plus-plane concept that keeps the tree small.
fn make_batch(n: usize, offset: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = ((i + offset) % 997) as f64 / 997.0;
            let u = ((i * 31 + offset * 7) % 613) as f64 / 613.0;
            vec![t, u, (t + u) / 2.0]
        })
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[1] > 1.0)).collect();
    (xs, ys)
}

/// A deterministic batch generator: `(rows, offset) → (xs, ys)`.
type BatchFn = fn(usize, usize) -> (Vec<Vec<f64>>, Vec<usize>);

/// Values of the duplicate-heavy column of [`make_mixed_batch`]: repeated
/// values and both signed zeros.
const DUPLICATES: [f64; 8] = [-1.0, -0.5, -0.0, 0.0, 0.0, 0.25, 0.25, 1.0];

/// Schema of [`make_mixed_batch`]: numeric and nominal columns mixed, one
/// nominal column wider than 16 codes.
fn mixed_schema() -> StreamSchema {
    use dmt::stream::schema::FeatureSpec;
    StreamSchema::new(
        "alloc-mixed",
        vec![
            FeatureSpec::numeric("dup"),
            FeatureSpec::nominal("code", 24),
            FeatureSpec::numeric("t"),
            FeatureSpec::nominal("small", 3),
        ],
        2,
    )
}

/// A deterministic mixed-feature batch whose XOR concept (the continuous
/// column against the duplicate-heavy one) needs a tree of several levels,
/// so inner nodes keep partitioning the column segments; the nominal
/// columns are noise that every node still buckets.
fn make_mixed_batch(n: usize, offset: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let dup = DUPLICATES[(i * 5 + offset) % 8];
            let code = ((i * 7 + offset) % 24) as f64;
            let t = ((i + offset) % 997) as f64 / 997.0;
            vec![dup, code, t, (i % 3) as f64]
        })
        .collect();
    let ys: Vec<usize> = xs
        .iter()
        .map(|x| usize::from((x[2] > 0.5) != (x[0] > 0.1)))
        .collect();
    (xs, ys)
}

#[test]
fn steady_state_hot_path_is_allocation_free_per_instance() {
    // Both SGD traversals share the gather + batched-kernel plumbing; the
    // contract must hold for the batched default and the deterministic
    // reference alike. All measurements run inside this single #[test] —
    // concurrent test threads would pollute the global counter.
    for mode in [
        dmt::models::BatchMode::default(),
        dmt::models::BatchMode::Deterministic,
    ] {
        steady_state_measurement(mode);
    }
    mixed_stream_learn_measurement();
    parallel_learn_measurement();
    pooled_predict_measurement();
    ensemble_prediction_measurement();
    pooled_ensemble_learn_measurement();
}

/// A tree configured with `Parallelism::Threads(2)` learns serially but
/// carries a worker pool for chunked prediction: the allocation count per
/// batch must stay independent of the batch size, exactly like the serial
/// contract. (The pool's threads are spawned once, on the first batch that
/// leaves an inner root, not per batch.)
fn parallel_learn_measurement() {
    use dmt::core::Parallelism;
    let schema = StreamSchema::numeric("alloc-par", 3, 2);
    let config = DmtConfig {
        parallelism: Parallelism::Threads(2),
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);

    let (small_xs, small_ys) = make_batch(100, 0);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, large_ys) = make_batch(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for round in 0..200 {
        let (xs, ys) = make_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let structure_before = (tree.num_inner_nodes(), tree.num_leaves());

    const ROUNDS: u64 = 50;
    let before_small = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&small_rows, &small_ys);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&large_rows, &large_ys);
    }
    let large_allocs = allocations() - before_large;

    assert_eq!(
        structure_before,
        (tree.num_inner_nodes(), tree.num_leaves()),
        "tree restructured during the parallel measurement; lengthen the warm-up"
    );
    // 8× the instances must not mean more allocations.
    assert!(
        large_allocs < small_allocs + ROUNDS * 100,
        "parallel learn_batch allocations scale with the batch size: \
         {small_allocs} allocs for {ROUNDS}×100 instances vs \
         {large_allocs} allocs for {ROUNDS}×800 instances"
    );
}

/// The pool-chunked predict path: both measured batch sizes reach
/// `PREDICT_PARALLEL_THRESHOLD`, so every `predict_batch_into` call fans
/// contiguous row chunks out over the pool. Dispatch bookkeeping
/// (items/queue/result vectors) is a small constant per call; the per-chunk
/// scratches come from the tree's warmed scratch pool — so the allocation
/// count per call must stay independent of the batch size.
fn pooled_predict_measurement() {
    use dmt::core::{Parallelism, PREDICT_PARALLEL_THRESHOLD};
    let schema = StreamSchema::numeric("alloc-ppredict", 3, 2);
    let config = DmtConfig {
        parallelism: Parallelism::Threads(2),
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);

    let small = PREDICT_PARALLEL_THRESHOLD;
    let large = 4 * PREDICT_PARALLEL_THRESHOLD;
    let (small_xs, _) = make_batch(small, 3);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, _) = make_batch(large, 3);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for round in 0..60 {
        let (xs, ys) = make_batch(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let mut out = vec![0usize; large_rows.len()];
    // Warm the scratch pool up to the pool's concurrency (several pooled
    // predicts, so every executor has checked a scratch in and out at the
    // large-batch high-water mark).
    for _ in 0..8 {
        tree.predict_batch_into(&large_rows, &mut out);
        tree.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
    }

    const CALLS: u64 = 20;
    let before_small = allocations();
    for _ in 0..CALLS {
        tree.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..CALLS {
        tree.predict_batch_into(&large_rows, &mut out);
    }
    let large_allocs = allocations() - before_large;

    // 4× the rows must not mean more allocations — only the constant
    // dispatch bookkeeping per call (plus scratch-pool jitter when an
    // executor's first checkout of the measurement happens on a late-waking
    // thread).
    assert!(
        large_allocs <= small_allocs + CALLS * 4,
        "pooled predict_batch_into allocations scale with the batch size: \
         {small_allocs} allocs for {CALLS}×{small} rows vs \
         {large_allocs} allocs for {CALLS}×{large} rows"
    );
    // And the absolute per-call cost stays a small constant.
    assert!(
        large_allocs <= CALLS * 16,
        "unexpectedly many allocations per pooled predict call: {}",
        large_allocs as f64 / CALLS as f64
    );
}

/// Pooled ensemble member training adds only the per-batch dispatch
/// bookkeeping on top of the serial member-major loop: member work is
/// bit-identical (same trees, same RNG streams), so the allocation counts may
/// differ per *batch* (queue/result vectors) but never per instance or per
/// member beyond what the serial path does.
fn pooled_ensemble_learn_measurement() {
    use dmt::core::Parallelism;
    use dmt::ensembles::{
        AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig,
    };

    let schema = StreamSchema::numeric("alloc-pens", 3, 2);
    let serial_config = LeveragingBaggingConfig {
        parallelism: Parallelism::Serial,
        ..LeveragingBaggingConfig::default()
    };
    let pooled_config = LeveragingBaggingConfig {
        parallelism: Parallelism::Threads(2),
        ..LeveragingBaggingConfig::default()
    };
    let mut serial: Box<dyn OnlineClassifier> =
        Box::new(LeveragingBagging::new(schema.clone(), serial_config));
    let mut pooled: Box<dyn OnlineClassifier> =
        Box::new(LeveragingBagging::new(schema.clone(), pooled_config));
    measure_ensemble_learn_pair(&mut serial, &mut pooled);

    let serial_config = ArfConfig {
        parallelism: Parallelism::Serial,
        ..ArfConfig::default()
    };
    let pooled_config = ArfConfig {
        parallelism: Parallelism::Threads(2),
        ..ArfConfig::default()
    };
    let mut serial: Box<dyn OnlineClassifier> =
        Box::new(AdaptiveRandomForest::new(schema.clone(), serial_config));
    let mut pooled: Box<dyn OnlineClassifier> =
        Box::new(AdaptiveRandomForest::new(schema, pooled_config));
    measure_ensemble_learn_pair(&mut serial, &mut pooled);
}

fn measure_ensemble_learn_pair(
    serial: &mut Box<dyn OnlineClassifier>,
    pooled: &mut Box<dyn OnlineClassifier>,
) {
    // Warm both (grows trees, spawns the pool, sizes every reused buffer).
    for round in 0..10 {
        let (xs, ys) = make_batch(200, round * 200);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        serial.learn_batch(&rows, &ys);
        pooled.learn_batch(&rows, &ys);
    }

    const ROUNDS: u64 = 10;
    let (xs, ys) = make_batch(200, 1);
    let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();

    let before_serial = allocations();
    for _ in 0..ROUNDS {
        serial.learn_batch(&rows, &ys);
    }
    let serial_allocs = allocations() - before_serial;

    let before_pooled = allocations();
    for _ in 0..ROUNDS {
        pooled.learn_batch(&rows, &ys);
    }
    let pooled_allocs = allocations() - before_pooled;

    // The pooled path does the identical member work (bit-identical trees,
    // same RNG streams) plus a constant dispatch cost per batch.
    assert!(
        pooled_allocs <= serial_allocs + ROUNDS * 64,
        "{}: pooled ensemble learn allocates beyond dispatch bookkeeping: \
         serial {serial_allocs} vs pooled {pooled_allocs} allocs over {ROUNDS} batches",
        pooled.name()
    );
}

/// Ensemble batch prediction goes through the baseline trees'
/// `predict_proba_into`, so in steady state it allocates a handful of reused
/// buffers per *call* — never per member per row.
fn ensemble_prediction_measurement() {
    use dmt::baselines::VfdtConfig;
    use dmt::ensembles::{
        AdaptiveRandomForest, ArfConfig, LeveragingBagging, LeveragingBaggingConfig,
    };

    let schema = StreamSchema::numeric("alloc-ens", 3, 2);
    // NBA leaves exercise the Naive-Bayes `predict_proba_into` path too.
    let bagging_config = LeveragingBaggingConfig {
        base_config: VfdtConfig::naive_bayes_adaptive(),
        ..LeveragingBaggingConfig::default()
    };
    let mut models: Vec<Box<dyn OnlineClassifier>> = vec![
        Box::new(LeveragingBagging::new(schema.clone(), bagging_config)),
        Box::new(AdaptiveRandomForest::new(schema, ArfConfig::default())),
    ];
    let (train_xs, train_ys) = make_batch(2_000, 7);
    let train_rows: Vec<&[f64]> = train_xs.iter().map(|v| v.as_slice()).collect();
    let (small_xs, _) = make_batch(100, 3);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, _) = make_batch(800, 3);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    for model in models.iter_mut() {
        model.learn_batch(&train_rows, &train_ys);

        let mut out = vec![0usize; large_rows.len()];
        // Warm the projection buffers.
        model.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);

        const CALLS: u64 = 20;
        let before_small = allocations();
        for _ in 0..CALLS {
            model.predict_batch_into(&small_rows, &mut out[..small_rows.len()]);
        }
        let small_allocs = allocations() - before_small;

        let before_large = allocations();
        for _ in 0..CALLS {
            model.predict_batch_into(&large_rows, &mut out);
        }
        let large_allocs = allocations() - before_large;

        assert!(
            large_allocs <= small_allocs,
            "{}: predict_batch_into allocations scale with the batch size \
             ({small_allocs} for {CALLS}×100 rows vs {large_allocs} for {CALLS}×800 rows)",
            model.name()
        );
        // A handful of reused buffers per call (votes, probabilities,
        // projection) — not one vector per member per row.
        assert!(
            large_allocs <= CALLS * 8,
            "{}: unexpectedly many allocations per predict_batch_into call: {}",
            model.name(),
            large_allocs as f64 / CALLS as f64
        );
    }
}

/// The serial learn contract on the mixed numeric/nominal stream: a deep
/// tree whose inner nodes partition presorted and dictionary-coded column
/// segments every batch.
fn mixed_stream_learn_measurement() {
    let mut tree = DynamicModelTree::new(mixed_schema(), DmtConfig::default());
    learn_measurement(&mut tree, make_mixed_batch, 8);
    clone_measurement(&tree);
}

/// Every epoch publish clones the tree, so a clone may allocate only a small
/// constant per arena slot — the node model, its gradient window, its
/// candidate records and its candidate gradient matrix — however many
/// candidates each node stores, plus a fixed cost for the arena columns, the
/// schema and the decision log.
fn clone_measurement(tree: &DynamicModelTree) {
    let arena = tree.arena();
    let slots = arena.num_slots() as u64;
    let mut live = Vec::new();
    arena.preorder_ids(tree.root_id(), &mut live);
    let stored: usize = live
        .iter()
        .map(|&id| arena.stats(id).candidates.len())
        .sum();
    assert!(
        stored as u64 >= 4 * live.len() as u64,
        "the warmed tree stores only {stored} candidates over {} nodes",
        live.len()
    );

    let before = allocations();
    let clone = tree.clone();
    let clone_allocs = allocations() - before;
    drop(clone);
    assert!(
        clone_allocs <= 4 * slots + 32,
        "tree.clone() made {clone_allocs} allocations for {slots} arena slots \
         holding {stored} candidates"
    );
}

fn steady_state_measurement(batch_mode: dmt::models::BatchMode) {
    let schema = StreamSchema::numeric("alloc-probe", 3, 2);
    let config = DmtConfig {
        batch_mode,
        ..DmtConfig::default()
    };
    let mut tree = DynamicModelTree::new(schema, config);
    learn_measurement(&mut tree, make_batch, 1);
    let (large_xs, _) = make_batch(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    // predict_batch: exactly one allocation for the result vector (plus
    // nothing per instance). When the suite runs under DMT_PARALLELISM ≥ 2
    // (the CI pool legs), the 800-row batch crosses the parallel-predict
    // threshold and the pool dispatch adds its constant bookkeeping
    // (items/queue/result vectors) — still nothing per instance.
    let workers = dmt::core::Parallelism::from_env().workers() as u64;
    let predict_budget = if workers >= 2 { 2 + 8 + workers } else { 2 };
    // Warm the pooled scratches at this batch shape before measuring.
    let _ = tree.predict_batch(&large_rows);
    let before_predict = allocations();
    let predictions = tree.predict_batch(&large_rows);
    let predict_allocs = allocations() - before_predict;
    assert_eq!(predictions.len(), large_rows.len());
    assert!(
        predict_allocs <= predict_budget,
        "predict_batch should only allocate its result vector \
         (+ pool dispatch bookkeeping when threaded), got {predict_allocs} \
         (budget {predict_budget})"
    );

    // Single-instance predict is fully allocation-free.
    let before_single = allocations();
    let mut checksum = 0usize;
    for row in &large_rows {
        checksum += tree.predict(row);
    }
    let single_allocs = allocations() - before_single;
    assert!(checksum <= large_rows.len());
    assert_eq!(
        single_allocs, 0,
        "DynamicModelTree::predict must not allocate"
    );
}

/// The steady-state learn contract on `tree` fed the stream `make`: after a
/// warm-up that leaves a tree at least `min_depth` levels deep, learning
/// performs no per-instance allocation.
fn learn_measurement(tree: &mut DynamicModelTree, make: BatchFn, min_depth: usize) {
    // Pre-materialise all data so the measured region only runs the tree.
    let (small_xs, small_ys) = make(100, 0);
    let small_rows: Vec<&[f64]> = small_xs.iter().map(|v| v.as_slice()).collect();
    let (large_xs, large_ys) = make(800, 0);
    let large_rows: Vec<&[f64]> = large_xs.iter().map(|v| v.as_slice()).collect();

    // Warm-up: grow the scratch buffers to their high-water mark and let the
    // tree structure settle on this stationary concept.
    for round in 0..200 {
        let (xs, ys) = make(800, round * 800);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        tree.learn_batch(&rows, &ys);
    }
    let structure_before = (tree.num_inner_nodes(), tree.num_leaves());
    assert!(
        tree.depth() >= min_depth,
        "{}: warmed-up tree has depth {}, below {min_depth}",
        tree.schema().name,
        tree.depth()
    );

    // Measure: the same number of batches at 100 vs 800 instances. Repeated
    // identical batches propose no new candidates, so the remaining per-batch
    // allocations are only the proposal bookkeeping — independent of n.
    const ROUNDS: u64 = 50;
    let before_small = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&small_rows, &small_ys);
    }
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    for _ in 0..ROUNDS {
        tree.learn_batch(&large_rows, &large_ys);
    }
    let large_allocs = allocations() - before_large;

    let structure_after = (tree.num_inner_nodes(), tree.num_leaves());
    assert_eq!(
        structure_before, structure_after,
        "tree restructured during the measurement; rerun with a longer warm-up"
    );

    // 8× the instances must not mean more allocations. A per-instance
    // allocation anywhere in the loop would add at least
    // ROUNDS × (800 − 100) = 35 000 allocations to the large runs; the
    // remaining per-batch cost is candidate-proposal bookkeeping, which is
    // O(features × nodes) and merely jitters with the batch quantiles.
    let node_count = tree.num_inner_nodes() + tree.num_leaves();
    assert!(
        large_allocs < small_allocs + ROUNDS * 100,
        "learn_batch allocations scale with the batch size: \
         {small_allocs} allocs for {ROUNDS}×100 instances vs \
         {large_allocs} allocs for {ROUNDS}×800 instances \
         ({node_count} nodes)"
    );

    // And the absolute per-batch count stays small: proposal bookkeeping for
    // a handful of nodes, not thousands of per-instance buffers.
    let per_batch = large_allocs as f64 / ROUNDS as f64;
    assert!(
        per_batch <= 64.0 * node_count.max(1) as f64,
        "unexpectedly many allocations per learned batch: {per_batch:.1} \
         for a tree with {node_count} nodes"
    );
}
