//! Throughput tracking for the repository's perf trajectory: test-then-train
//! instances/sec of the DMT (serial *and* pooled — the `DMT (2T)` row runs
//! the identical model with `Parallelism::Threads(2)`, which learns serially
//! and chunks prediction batches of at least `PREDICT_PARALLEL_THRESHOLD`
//! rows over a 2-executor worker pool) and the stand-alone
//! baseline trees on the SEA, Agrawal and RBF generators, written to
//! `BENCH_<n>.json`.
//!
//! The protocol mirrors the paper's evaluation loop (predict a batch, then
//! learn it) but times nothing except the models: all stream batches are
//! materialised before the clock starts. Table V of the paper reports this
//! cost per iteration; here it is normalised to instances/sec so successive
//! PRs can be compared directly. A second, predict-only pass over the same
//! batches (model frozen at its final state, one reused predictions buffer)
//! isolates the descent/serving cost from training, so inference-path
//! regressions cannot hide behind learn-path wins.
//!
//! Streams and seeds come from the shared harness
//! ([`dmt_bench::throughput_stream`], [`dmt_bench::bench_seed`]): the stream
//! is rebuilt with the same seed for every model row, so all rows of one run
//! consume identical instance sequences. CI re-runs this binary on the same
//! pinned configuration and gates regressions with `bench_compare`.
//!
//! ```bash
//! cargo run -p dmt-bench --release --bin bench_throughput
//! cargo run -p dmt-bench --release --bin bench_throughput -- \
//!     --warmup 2000 --instances 40000 --batch 100 --out BENCH_4.json
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmt::eval::json::{Json, ToJson};
use dmt::prelude::*;
use dmt::zoo::ZooModel;
use dmt_bench::THROUGHPUT_STREAMS;
use dmt_bench::{bench_seed, throughput_models, throughput_stream, ThroughputModel};
use dmt_serve::{DmtServer, ServeClient, ServeConfig};

struct Options {
    warmup: usize,
    instances: usize,
    batch: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            warmup: 2_000,
            instances: 40_000,
            batch: 100,
            out: "BENCH_5.json".to_string(),
        }
    }
}

fn parse_options() -> Options {
    let mut options = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--warmup" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.warmup = v;
                    i += 1;
                }
            }
            "--instances" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.instances = v;
                    i += 1;
                }
            }
            "--batch" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    options.batch = v;
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = value {
                    options.out = v.clone();
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    options
}

struct CellResult {
    model: String,
    stream: String,
    /// Worker count pinned for this row (1 = serial). Lets `bench_compare`
    /// detect rows whose parallelism the baseline machine could not exercise.
    parallelism: u64,
    instances: u64,
    seconds: f64,
    instances_per_sec: f64,
    micros_per_batch: f64,
    predict_seconds: f64,
    predict_instances_per_sec: f64,
    final_splits: f64,
    final_params: f64,
    /// Resident heap bytes of the finished model (capacity-based accounting;
    /// informational in the timing file — the accuracy gate owns the ceiling).
    bytes_per_model: u64,
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".to_string(), self.model.to_json()),
            ("stream".to_string(), self.stream.to_json()),
            ("parallelism".to_string(), self.parallelism.to_json()),
            ("instances".to_string(), self.instances.to_json()),
            ("seconds".to_string(), self.seconds.to_json()),
            (
                "instances_per_sec".to_string(),
                self.instances_per_sec.to_json(),
            ),
            (
                "micros_per_batch".to_string(),
                self.micros_per_batch.to_json(),
            ),
            (
                "predict_seconds".to_string(),
                self.predict_seconds.to_json(),
            ),
            (
                "predict_instances_per_sec".to_string(),
                self.predict_instances_per_sec.to_json(),
            ),
            ("final_splits".to_string(), self.final_splits.to_json()),
            ("final_params".to_string(), self.final_params.to_json()),
            (
                "bytes_per_model".to_string(),
                self.bytes_per_model.to_json(),
            ),
        ])
    }
}

fn run_cell(kind: ThroughputModel, stream_name: &str, options: &Options) -> CellResult {
    let mut stream = throughput_stream(stream_name, bench_seed::STREAM)
        .unwrap_or_else(|| panic!("unknown bench stream {stream_name}"));
    let schema = stream.schema().clone();
    let mut model = kind.build(&schema, bench_seed::MODEL);

    // Materialise everything up front; only the model is timed.
    let warmup: Vec<Batch> = (0..options.warmup.div_ceil(options.batch))
        .filter_map(|_| stream.next_batch(options.batch))
        .collect();
    let timed: Vec<Batch> = (0..options.instances.div_ceil(options.batch))
        .filter_map(|_| stream.next_batch(options.batch))
        .collect();

    for batch in &warmup {
        let rows = batch.rows();
        model.learn_batch(&rows, &batch.ys);
    }

    let mut instances = 0u64;
    let mut batches = 0u64;
    let start = Instant::now();
    for batch in &timed {
        let rows = batch.rows();
        let predictions = model.predict_batch(&rows);
        std::hint::black_box(&predictions);
        model.learn_batch(&rows, &batch.ys);
        instances += rows.len() as u64;
        batches += 1;
    }
    let seconds = start.elapsed().as_secs_f64();

    // Predict-only passes over the same batches with the model frozen at its
    // final state, reusing one predictions buffer: isolates the serving-path
    // (descent + leaf kernel) cost from training. Prediction is an order of
    // magnitude faster than test-then-train, so the batches are swept
    // several times — a single sweep finishes in a few milliseconds, far too
    // short a window for a stable regression gate on a noisy machine.
    const PREDICT_SWEEPS: usize = 10;
    let mut predictions = vec![0usize; options.batch];
    let mut predict_instances = 0u64;
    let predict_start = Instant::now();
    for _ in 0..PREDICT_SWEEPS {
        for batch in &timed {
            let rows = batch.rows();
            predictions.clear();
            predictions.resize(rows.len(), 0);
            model.predict_batch_into(&rows, &mut predictions);
            std::hint::black_box(&predictions);
            predict_instances += rows.len() as u64;
        }
    }
    let predict_seconds = predict_start.elapsed().as_secs_f64();

    let complexity = model.complexity();
    let bytes_per_model = model.memory_bytes() as u64;
    CellResult {
        model: kind.display_name(),
        stream: stream_name.to_string(),
        parallelism: kind.pinned_workers() as u64,
        instances,
        seconds,
        instances_per_sec: instances as f64 / seconds,
        micros_per_batch: seconds * 1e6 / batches.max(1) as f64,
        predict_seconds,
        predict_instances_per_sec: predict_instances as f64 / predict_seconds,
        final_splits: complexity.splits,
        final_params: complexity.parameters,
        bytes_per_model,
    }
}

/// Predict requests per serve-latency phase.
const SERVE_REQUESTS: usize = 2_000;

/// One serve-latency measurement: a client firing predict RPCs at a
/// `dmt-serve` plane, per-request latency quantiles in microseconds.
struct ServeLatency {
    mode: String,
    stream: String,
    requests: u64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    instances_per_sec: f64,
}

impl ToJson for ServeLatency {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("mode".to_string(), self.mode.to_json()),
            ("stream".to_string(), self.stream.to_json()),
            ("requests".to_string(), self.requests.to_json()),
            ("p50_us".to_string(), self.p50_us.to_json()),
            ("p99_us".to_string(), self.p99_us.to_json()),
            ("max_us".to_string(), self.max_us.to_json()),
            (
                "instances_per_sec".to_string(),
                self.instances_per_sec.to_json(),
            ),
        ])
    }
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn serve_latency_cell(
    mode: &str,
    stream_name: &str,
    client: &mut ServeClient,
    batch: &Batch,
) -> ServeLatency {
    let rows = batch.rows();
    let mut latencies_us = Vec::with_capacity(SERVE_REQUESTS);
    let start = Instant::now();
    for _ in 0..SERVE_REQUESTS {
        let request_start = Instant::now();
        let (_, predictions) = client.predict("bench", &rows).expect("predict rpc");
        std::hint::black_box(&predictions);
        latencies_us.push(request_start.elapsed().as_secs_f64() * 1e6);
    }
    let seconds = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    ServeLatency {
        mode: mode.to_string(),
        stream: stream_name.to_string(),
        requests: SERVE_REQUESTS as u64,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        max_us: percentile(&latencies_us, 1.0),
        instances_per_sec: (SERVE_REQUESTS * rows.len()) as f64 / seconds,
    }
}

/// The serving-plane rows: per-request predict latency through `dmt-serve`
/// over TCP, first with the tenant idle, then with a second client running
/// `learn_batch` RPCs (splits included) the whole time. Because predictions
/// answer from pinned epoch snapshots and never take the writer lock, the
/// two latency distributions should be indistinguishable — the epoch
/// refactor's whole point, measured end to end.
fn run_serve_rows(options: &Options) -> Vec<ServeLatency> {
    let stream_name = THROUGHPUT_STREAMS[0];
    let mut stream =
        throughput_stream(stream_name, bench_seed::STREAM).expect("known bench stream");
    let schema = stream.schema().clone();
    let warmup: Vec<Batch> = (0..options.warmup.div_ceil(options.batch))
        .filter_map(|_| stream.next_batch(options.batch))
        .collect();
    let learn_feed: Vec<Batch> = (0..options.instances.div_ceil(options.batch))
        .filter_map(|_| stream.next_batch(options.batch))
        .collect();
    let probe = warmup.last().expect("warmup batches").clone();

    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    let tree = DynamicModelTree::new(
        schema,
        DmtConfig {
            seed: bench_seed::MODEL,
            parallelism: Parallelism::from_env(),
            ..DmtConfig::default()
        },
    );
    registry
        .register("bench", stream.schema().clone(), ZooModel::Dmt(tree))
        .expect("register bench tenant");
    let server = DmtServer::start(
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("start serve plane");
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    for batch in &warmup {
        client
            .learn("bench", &batch.rows(), &batch.ys)
            .expect("warmup learn rpc");
    }

    let idle = serve_latency_cell("predict-only", stream_name, &mut client, &probe);

    // Same measurement with a writer hammering learn RPCs concurrently.
    let stop = Arc::new(AtomicBool::new(false));
    let learner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut writer = ServeClient::connect(addr).expect("learner connect");
            loop {
                for batch in &learn_feed {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    writer
                        .learn("bench", &batch.rows(), &batch.ys)
                        .expect("learn rpc");
                }
            }
        })
    };
    let contended = serve_latency_cell("concurrent-learn", stream_name, &mut client, &probe);
    stop.store(true, Ordering::Relaxed);
    learner.join().expect("learner thread");

    vec![idle, contended]
}

fn main() {
    let options = parse_options();
    let mut results: Vec<CellResult> = Vec::new();

    println!(
        "{:<14}{:<10}{:>16}{:>16}{:>18}{:>12}{:>12}",
        "Model", "Stream", "inst/sec", "µs/batch", "predict inst/sec", "splits", "KiB"
    );
    for stream in THROUGHPUT_STREAMS {
        for &kind in &throughput_models() {
            let cell = run_cell(kind, stream, &options);
            println!(
                "{:<14}{:<10}{:>16.0}{:>16.1}{:>18.0}{:>12.1}{:>12.1}",
                cell.model,
                cell.stream,
                cell.instances_per_sec,
                cell.micros_per_batch,
                cell.predict_instances_per_sec,
                cell.final_splits,
                cell.bytes_per_model as f64 / 1024.0
            );
            results.push(cell);
        }
    }

    // Serving-plane latency: predict RPC quantiles with and without a
    // concurrent writer. Lives under its own JSON key so the blessed
    // `results` rows (and the `bench_compare` gate that walks them) are
    // untouched.
    let serve_rows = run_serve_rows(&options);
    println!(
        "\n{:<18}{:<10}{:>12}{:>12}{:>12}{:>16}",
        "Serve mode", "Stream", "p50 µs", "p99 µs", "max µs", "inst/sec"
    );
    for row in &serve_rows {
        println!(
            "{:<18}{:<10}{:>12.1}{:>12.1}{:>12.1}{:>16.0}",
            row.mode, row.stream, row.p50_us, row.p99_us, row.max_us, row.instances_per_sec
        );
    }

    let doc = Json::Obj(vec![
        ("bench".to_string(), "throughput_v2".to_json()),
        (
            "protocol".to_string(),
            "test-then-train; batches pre-materialised; wall clock covers predict_batch + learn_batch only; \
             predict_* fields re-run the batches predict-only on the final model"
                .to_json(),
        ),
        (
            "config".to_string(),
            Json::Obj(vec![
                ("warmup_instances".to_string(), options.warmup.to_json()),
                ("timed_instances".to_string(), options.instances.to_json()),
                ("batch_size".to_string(), options.batch.to_json()),
                // Core count of the machine this file was produced on. When
                // a file becomes a blessed baseline, `bench_compare` uses it
                // to downgrade (warn instead of fail) parallel rows whose
                // pinned workers the baseline machine could never run
                // concurrently — a 2T row blessed on one core records
                // dispatch overhead, not parallel throughput.
                (
                    "available_parallelism".to_string(),
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .to_json(),
                ),
            ]),
        ),
        ("results".to_string(), results.to_json()),
        ("serve".to_string(), serve_rows.to_json()),
    ]);
    std::fs::write(&options.out, doc.to_pretty_string()).expect("write bench output");
    eprintln!("wrote {}", options.out);
}
