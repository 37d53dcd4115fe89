//! The prequential workloads: test-then-train over a whole catalog stream on
//! a serial in-process tree, then a predict-only sweep over the same batches
//! on the final model, repeated with a fresh tree until the window is used.

use std::time::{Duration, Instant};

use dmt::core::{DmtConfig, DynamicModelTree, EpochCell, Parallelism};
use dmt::models::OnlineClassifier;

use crate::data::Rows;
use crate::report::Report;
use crate::stats::{self, median, relative_iqr};
use crate::trace::Spans;
use crate::E2e;

/// What the final tree must look like for the workload to still exercise
/// what it was chosen for.
pub enum Shape {
    /// The tree never splits (all learn time on one node).
    SingleLeaf,
    /// The tree reaches at least this depth.
    MinDepth(usize),
}

/// One prequential workload.
pub struct Spec {
    /// Catalog stream name.
    pub stream: &'static str,
    /// Catalog scale (1.0 = the paper's length).
    pub scale: f64,
    /// Rows per batch (0.1 % of the stream).
    pub batch: usize,
    /// Shape guard on the final tree.
    pub shape: Shape,
    /// Lowest prequential accuracy a working learner reaches on the stream.
    pub min_accuracy: f64,
}

/// The model every workload trains: seed 1 and explicitly serial, so
/// `DMT_PARALLELISM` cannot skew a run.
pub fn model_config() -> DmtConfig {
    DmtConfig {
        seed: 1,
        parallelism: Parallelism::Serial,
        ..DmtConfig::default()
    }
}

/// Facts about a final tree that must repeat exactly between passes.
#[derive(Debug, Clone, PartialEq)]
struct Final {
    correct: usize,
    sweep_correct: usize,
    splits: u64,
    leaves: u64,
    depth: usize,
    bytes: usize,
    candidates: usize,
    decisions: usize,
}

/// One pass over the stream.
struct Pass {
    traced: bool,
    loop_s: f64,
    sweep_s: f64,
    sweep_us: Vec<f64>,
    end: Final,
    batched_matches_per_row: bool,
    /// Σ leaf depth over the sweep's rows (traced passes only).
    descent_steps: Option<u64>,
}

/// Run the workload for `seconds` and fill `report`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, report: &mut Report) -> [E2e; 2] {
    // Set-up: generate the stream three times and keep the last copy; the
    // median set-up time is reported.
    let mut setups = Vec::new();
    let mut rows = None;
    for _ in 0..3 {
        drop(rows.take());
        let start = Instant::now();
        rows = Some(Rows::generate(spec.stream, spec.scale, seed, spec.batch));
        setups.push(start.elapsed().as_secs_f64());
    }
    let rows = rows.expect("three set-ups ran");
    let views = rows.views();
    report.set("setup_s", median(&setups));
    report.set("stream.generate_s", median(&setups));
    report.note("rows", rows.len());
    report.note("batch", rows.batch);

    let mut spans = Spans::default();
    let mut passes: Vec<Pass> = Vec::new();
    let window = Instant::now();
    loop {
        let traced = trace && passes.len() % 2 == 1;
        let pass = run_pass(&rows, &views, traced.then_some(&mut spans));
        passes.push(pass);
        let used = window.elapsed().as_secs_f64();
        let per_pass = used / passes.len() as f64;
        let enough = passes.len() >= if trace { 2 } else { 1 };
        if enough && used + per_pass > seconds {
            break;
        }
    }
    report.note("passes", passes.len());

    let first = passes[0].end.clone();
    for (i, pass) in passes.iter().enumerate() {
        let ops = 3 * views.len() as u64;
        report.ops(ops, 0);
        report.check(pass.end == first, || {
            format!("pass {i} ended as {:?}, pass 0 as {first:?}", pass.end)
        });
        report.check(pass.batched_matches_per_row, || {
            format!("pass {i}: batched predictions differ from per-row predictions")
        });
    }
    let accuracy = first.correct as f64 / rows.len() as f64;
    report.check(accuracy >= spec.min_accuracy, || {
        format!("accuracy {accuracy:.4} is below {}", spec.min_accuracy)
    });
    match spec.shape {
        Shape::SingleLeaf => report.check(first.leaves == 1, || {
            format!("expected a single leaf, got {} leaves", first.leaves)
        }),
        Shape::MinDepth(d) => report.check(first.depth >= d, || {
            format!("expected depth >= {d}, got {}", first.depth)
        }),
    }

    // Per-layer metrics, from the traced passes' spans.
    let traced_loop: f64 = passes.iter().filter(|p| p.traced).map(|p| p.loop_s).sum();
    if traced_loop > 0.0 {
        report.set(
            "tree.learn_share",
            spans.total("tree.learn_batch") / 1e6 / traced_loop,
        );
    }
    for (metric, span) in [
        ("tree.learn_batch_us", "tree.learn_batch"),
        ("tree.predict_batch_us", "tree.predict_batch"),
        ("epoch.publish_us", "epoch.publish"),
    ] {
        report.set(format!("{metric}.p50"), spans.p50(span));
        report.set(format!("{metric}.p99"), spans.p99(span));
    }
    report.set("epoch.pin_us.p50", spans.p50("epoch.pin"));
    report.set("node.candidates_stored", first.candidates as f64);
    report.set("tree.decisions", first.decisions as f64);
    report.set("arena.leaves", first.leaves as f64);
    report.set("arena.depth", first.depth as f64);
    if let Some(steps) = passes.iter().find_map(|p| p.descent_steps) {
        report.set("arena.descent_steps", steps as f64);
    }
    for (span, n, p) in spans.counts() {
        report.note(format!("samples.{span}"), format!("{n} (tail p{p})"));
    }

    let mut e2e = |traced: bool| {
        let mine: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
        let n = rows.len() as f64;
        let learn: Vec<f64> = mine.iter().map(|p| n / p.loop_s).collect();
        let predict: Vec<f64> = mine.iter().map(|p| n / p.sweep_s).collect();
        let per_call: Vec<f64> = mine
            .iter()
            .flat_map(|p| p.sweep_us.iter().copied())
            .collect();
        if !traced {
            let list: Vec<String> = learn.iter().map(|v| format!("{v:.0}")).collect();
            report.note("passes.learn_inst_per_s", list.join(" "));
            if let Some(spread) = relative_iqr(&learn) {
                report.note("passes.learn_inst_per_s.iqr_share", format!("{spread:.4}"));
            }
        }
        E2e {
            learn_inst_per_s: median(&learn),
            predict_inst_per_s: median(&predict),
            predict_p50_us: median(&per_call),
            predict_p99_us: stats::tail(&per_call, 99.0).1,
            accuracy,
            final_splits: first.splits as f64,
            model_bytes: first.bytes as f64,
        }
    };
    [e2e(false), e2e(true)]
}

fn run_pass(rows: &Rows, views: &[Vec<&[f64]>], mut spans: Option<&mut Spans>) -> Pass {
    let mut tree = DynamicModelTree::new(rows.schema.clone(), model_config());
    let mut preds = vec![0usize; rows.batch];
    let cell = spans.as_ref().map(|_| EpochCell::new(tree.clone()));
    let mut correct = 0;
    let mut probes = Duration::ZERO;
    let start = Instant::now();
    for (b, xs) in views.iter().enumerate() {
        let ys = rows.labels(b);
        let out = &mut preds[..xs.len()];
        match (spans.as_deref_mut(), &cell) {
            (Some(spans), Some(cell)) => {
                spans.time("tree.predict_test", || tree.predict_batch_into(xs, out));
                correct += hits(out, ys);
                spans.time("tree.learn_batch", || tree.learn_batch(xs, ys));
                // The epoch probes stand in for a serving plane; their time
                // is taken out of the loop time.
                let probe = Instant::now();
                spans.time("epoch.publish", || cell.publish(tree.clone()));
                spans.time("epoch.pin", || drop(cell.pin()));
                probes += probe.elapsed();
            }
            _ => {
                tree.predict_batch_into(xs, out);
                correct += hits(out, ys);
                tree.learn_batch(xs, ys);
            }
        }
    }
    let loop_s = (start.elapsed() - probes).as_secs_f64();

    let mut sweep_us = Vec::with_capacity(views.len());
    let mut sweep_correct = 0;
    for (b, xs) in views.iter().enumerate() {
        let out = &mut preds[..xs.len()];
        let t = Instant::now();
        tree.predict_batch_into(xs, out);
        let dt = t.elapsed();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("tree.predict_batch", dt);
        }
        sweep_us.push(dt.as_secs_f64() * 1e6);
        sweep_correct += hits(out, rows.labels(b));
    }
    let sweep_s = sweep_us.iter().sum::<f64>() / 1e6;

    // Outside any timing: the batched sweep must agree with per-row predict.
    let first = &views[0];
    tree.predict_batch_into(first, &mut preds[..first.len()]);
    let batched_matches_per_row = first.iter().zip(&preds).all(|(x, &p)| tree.predict(x) == p);

    let traced = spans.is_some();
    let descent_steps = traced.then(|| views.iter().flatten().map(|x| leaf_depth(&tree, x)).sum());
    Pass {
        traced,
        loop_s,
        sweep_s,
        sweep_us,
        end: Final {
            correct,
            sweep_correct,
            splits: tree.complexity().splits as u64,
            leaves: tree.num_leaves(),
            depth: tree.depth(),
            bytes: tree.memory_bytes(),
            candidates: candidates_stored(&tree),
            decisions: tree.decision_log().len(),
        },
        batched_matches_per_row,
        descent_steps,
    }
}

fn hits(preds: &[usize], ys: &[usize]) -> usize {
    preds.iter().zip(ys).filter(|(p, y)| p == y).count()
}

/// Split candidates stored over every live node.
pub fn candidates_stored(tree: &DynamicModelTree) -> usize {
    let mut ids = Vec::new();
    tree.arena().preorder_ids(tree.root_id(), &mut ids);
    ids.iter()
        .map(|&id| tree.arena().stats(id).candidates.len())
        .sum()
}

/// Depth of the leaf `x` reaches: the inner nodes its descent tests.
fn leaf_depth(tree: &DynamicModelTree, x: &[f64]) -> u64 {
    let arena = tree.arena();
    let mut id = tree.root_id();
    let mut depth = 0;
    while let Some((left, right)) = arena.children(id) {
        id = if arena.split_key(id).goes_left(x) {
            left
        } else {
            right
        };
        depth += 1;
    }
    depth
}
