//! The `serve-mixed` workload: an in-process `DmtServer` with two workers
//! serves one pre-trained DMT tenant to two closed-loop clients over TCP.
//! Client A sends 100-row `predict` RPCs, client B 100-row `learn` RPCs over
//! the rest of the stream; every learn publishes an epoch. At the end of the
//! stream client B swaps the tenant back to its warm-up checkpoint (a `swap`
//! RPC) and learns the rest again, so every cycle does the same work.
//!
//! In a traced run the window alternates plain and traced slices. In a
//! traced slice client A times its own encode, seal, wait, open and decode
//! steps, and between RPCs replays the server's steps for the same frame
//! bytes in-process on its own thread: `read_frame` → `Request::decode` →
//! `ModelRegistry::predict` → `Response::encode` → `write_frame`.

use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmt::core::DynamicModelTree;
use dmt::models::OnlineClassifier;
use dmt::registry::{ModelRegistry, RegistryConfig};
use dmt::zoo::ZooModel;
use dmt_serve::protocol::{read_frame, write_frame, FrameRead, Request, Response, WireMatrix};
use dmt_serve::{DmtServer, ServeClient, ServeConfig};

use crate::data::Rows;
use crate::frame::read_raw_frame;
use crate::prequential::{candidates_stored, model_config};
use crate::report::Report;
use crate::stats::{self, median};
use crate::trace::Spans;
use crate::E2e;

const TENANT: &str = "agrawal";
/// Rows per RPC.
const RPC_ROWS: usize = 100;
/// Pre-training through `ModelRegistry::learn` before the window opens.
const WARM_ROWS: usize = 200_000;
const WARM_BATCHES: usize = WARM_ROWS / RPC_ROWS;
/// Length of one plain or traced slice of a traced window.
const SLICE: Duration = Duration::from_millis(500);
/// Failure lines kept per client; the counts keep going.
const MAX_FAILURE_LINES: usize = 5;

/// Everything set-up builds; dropping it shuts the server down.
struct Plane {
    rows: Rows,
    registry: Arc<ModelRegistry>,
    server: DmtServer,
}

/// Where the run keeps its snapshot files, inside the benchmark's directory.
fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

/// The tenant's checkpoint right after warm-up.
fn warm_snapshot() -> PathBuf {
    run_dir().join(format!("serve-mixed-{}-warm.snap", std::process::id()))
}

fn set_up(seed: u64, mut spans: Option<&mut Spans>) -> (Plane, f64) {
    let start = Instant::now();
    let rows = Rows::generate("Agrawal", 1.0, seed, RPC_ROWS);
    let generate_s = start.elapsed().as_secs_f64();
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        parallelism: model_config().parallelism,
        ..RegistryConfig::default()
    }));
    let tree = DynamicModelTree::new(rows.schema.clone(), model_config());
    registry
        .register(TENANT, rows.schema.clone(), ZooModel::Dmt(tree))
        .expect("a fresh registry has no tenants");
    let views = rows.views();
    for (b, xs) in views.iter().enumerate().take(WARM_BATCHES) {
        let learn = || registry.learn(TENANT, xs, rows.labels(b));
        let learned = match spans.as_deref_mut() {
            Some(spans) => spans.time("registry.learn", learn),
            None => learn(),
        };
        learned.expect("warm-up batches are well-formed");
    }
    drop(views);
    std::fs::create_dir_all(run_dir()).expect("create the snapshot directory");
    registry
        .checkpoint(TENANT, warm_snapshot())
        .expect("checkpoint the warm-up model");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
    };
    let server = DmtServer::start(config, Arc::clone(&registry)).expect("bind a local port");
    let plane = Plane {
        rows,
        registry,
        server,
    };
    (plane, generate_s)
}

/// Per-slice-kind tallies of one client (index 0 plain, 1 traced).
#[derive(Default)]
struct Side {
    rows: [u64; 2],
    correct: [u64; 2],
    rpc_us: [Vec<f64>; 2],
    /// Rows learned in total, including replies that came after the window.
    all_rows: u64,
    sent: u64,
    failed: u64,
    failures: Vec<String>,
    spans: Spans,
    live_max: u64,
    /// Sizes of the last traced predict request and response frames.
    frame_bytes: [usize; 2],
}

impl Side {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_LINES {
            self.failures.push(what);
        }
    }
}

/// Shared clock of the window: which kind of slice an instant falls in.
struct Window {
    start: Instant,
    end: Instant,
    traced: bool,
}

impl Window {
    /// Kind of the `k`-th slice: odd slices of a traced window are traced.
    fn slice_kind(&self, k: u128) -> usize {
        usize::from(self.traced && k % 2 == 1)
    }

    fn kind(&self, at: Instant) -> usize {
        self.slice_kind((at - self.start).as_nanos() / SLICE.as_nanos())
    }

    /// Seconds of the window spent in slices of `kind`.
    fn seconds(&self, kind: usize) -> f64 {
        let (total, slice) = ((self.end - self.start).as_nanos(), SLICE.as_nanos());
        let nanos: u128 = (0..total.div_ceil(slice))
            .filter(|&k| self.slice_kind(k) == kind)
            .map(|k| slice.min(total - k * slice))
            .sum();
        nanos as f64 / 1e9
    }
}

/// Run the workload for `seconds` and fill `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> [E2e; 2] {
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut spans = Spans::default();
    let mut plane = None;
    for _ in 0..3 {
        drop(plane.take());
        let start = Instant::now();
        let (built, generate_s) = set_up(seed, trace.then_some(&mut spans));
        setups.push(start.elapsed().as_secs_f64());
        generates.push(generate_s);
        plane = Some(built);
    }
    let Plane {
        rows,
        registry,
        mut server,
    } = plane.expect("three set-ups ran");
    report.set("setup_s", median(&setups));
    report.set("stream.generate_s", median(&generates));
    let views = rows.views();
    let addr = server.local_addr();

    let learned_batches = AtomicUsize::new(0);
    let start = Instant::now();
    let window = Window {
        start,
        end: start + Duration::from_secs_f64(seconds),
        traced: trace,
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| predictor(addr, &rows, &views, &registry, &window, &learned_batches));
        let b = s.spawn(|| learner(addr, &rows, &views, &registry, &window, &learned_batches));
        (
            a.join().expect("client A does not panic"),
            b.join().expect("client B does not panic"),
        )
    });

    // Both connections are closed; check the tenant's final state.
    let tenant = registry.stats(TENANT).expect("the tenant is registered");
    let expected = WARM_ROWS as u64 + b.all_rows;
    report.check(tenant.observations == expected, || {
        format!(
            "tenant observed {} rows, warm-up plus learned is {expected}",
            tenant.observations
        )
    });
    // Registration publishes epoch 0 and every warm-up batch one more.
    let published = tenant.epoch.saturating_sub(WARM_BATCHES as u64);
    report.check(published > 0, || {
        "no epoch was published in the window".to_string()
    });
    let snapshot = final_model(&registry);
    let _ = std::fs::remove_file(warm_snapshot());
    let _ = std::fs::remove_dir(run_dir());
    report.check(snapshot.is_ok(), || {
        format!("checkpoint: {:?}", snapshot.as_ref().err())
    });
    let (splits, tree) = match snapshot {
        Ok(tree) => (tree.complexity().splits, Some(tree)),
        Err(_) => (0.0, None),
    };
    server.shutdown();

    for side in [&a, &b] {
        report.ops(side.sent, side.failed);
        report.failures.extend(side.failures.iter().cloned());
    }
    report.set("serve.predict_sent", a.sent as f64);
    report.set("serve.predict_failed", a.failed as f64);
    report.set("serve.learn_sent", b.sent as f64);
    report.set("serve.learn_failed", b.failed as f64);
    report.set("epoch.published", published as f64);
    report.set("epoch.live_max", b.live_max as f64);
    if let Some(tree) = &tree {
        report.set("node.candidates_stored", candidates_stored(tree) as f64);
        report.set("tree.decisions", tree.decision_log().len() as f64);
        report.set("arena.leaves", tree.num_leaves() as f64);
        report.set("arena.depth", tree.depth() as f64);
    }

    spans.absorb(a.spans);
    let steps = [
        "client.request_encode",
        "protocol.frame_seal",
        "client.response_open",
        "client.response_decode",
        "protocol.frame_open",
        "protocol.request_decode",
        "registry.predict",
        "protocol.response_encode",
        "server.response_seal",
    ];
    let in_process: f64 = steps.iter().map(|s| spans.p50(s)).sum();
    if trace {
        report.set("serve.transport_us.p50", median(&a.rpc_us[1]) - in_process);
    }
    for (metric, span) in [
        ("protocol.frame_open_us.p50", "protocol.frame_open"),
        ("protocol.frame_seal_us.p50", "protocol.frame_seal"),
        ("protocol.request_decode_us.p50", "protocol.request_decode"),
        (
            "protocol.response_encode_us.p50",
            "protocol.response_encode",
        ),
        ("registry.predict_us.p50", "registry.predict"),
        ("registry.learn_us.p50", "registry.learn"),
    ] {
        report.set(metric, spans.p50(span));
    }
    report.set("registry.predict_us.p99", spans.p99("registry.predict"));
    report.set("registry.learn_us.p99", spans.p99("registry.learn"));
    report.set("protocol.request_bytes", a.frame_bytes[0] as f64);
    report.set("protocol.response_bytes", a.frame_bytes[1] as f64);
    for (span, n, p) in spans.counts() {
        report.note(format!("samples.{span}"), format!("{n} (tail p{p})"));
    }
    report.note(
        "rpc.samples",
        format!("{} plain, {} traced", a.rpc_us[0].len(), a.rpc_us[1].len()),
    );

    let e2e = |kind: usize| {
        let secs = window.seconds(kind);
        let predicted = a.rows[kind] as f64;
        E2e {
            learn_inst_per_s: b.rows[kind] as f64 / secs,
            predict_inst_per_s: predicted / secs,
            predict_p50_us: median(&a.rpc_us[kind]),
            predict_p99_us: stats::tail(&a.rpc_us[kind], 99.0).1,
            accuracy: a.correct[kind] as f64 / predicted,
            final_splits: splits,
            model_bytes: tenant.memory_bytes as f64,
        }
    };
    [e2e(0), e2e(1)]
}

/// The rest-of-stream batch client B learns as its `k`-th learn.
fn rest_batch(rows: &Rows, k: usize) -> usize {
    WARM_BATCHES + k % (rows.batches() - WARM_BATCHES)
}

/// Client A: closed-loop predict RPCs on the batch client B learns next.
fn predictor(
    addr: SocketAddr,
    rows: &Rows,
    views: &[Vec<&[f64]>],
    registry: &ModelRegistry,
    window: &Window,
    learned: &AtomicUsize,
) -> Side {
    let mut side = Side::default();
    let connected = if window.traced {
        RawConnection::open(addr).map(Conn::Raw)
    } else {
        ServeClient::connect(addr).map(Conn::Client)
    };
    let mut conn = match connected {
        Ok(conn) => conn,
        Err(e) => {
            side.fail(format!("client A connect: {e}"));
            return side;
        }
    };
    let classes = rows.schema.num_classes;
    let mut last_epoch = 0;
    loop {
        let sent_at = Instant::now();
        if sent_at >= window.end {
            break;
        }
        let b = rest_batch(rows, learned.load(Ordering::Relaxed));
        let kind = window.kind(sent_at);
        side.sent += 1;
        let (reply, done) = match &mut conn {
            Conn::Client(client) => {
                let reply = client.predict(TENANT, &views[b]);
                (reply.map_err(|e| e.to_string()), Instant::now())
            }
            Conn::Raw(raw) if kind == 0 => {
                (raw.plain_predict(rows.flat(b), rows.cols()), Instant::now())
            }
            Conn::Raw(raw) => {
                let traced = raw.traced_predict(rows.flat(b), rows.cols(), &mut side.spans);
                let done = Instant::now();
                side.frame_bytes = [raw.request.len(), raw.response.len()];
                let replayed = replay(&raw.request, registry, &mut side.spans);
                (replayed.and(traced), done)
            }
        };
        let (epoch, predictions) = match reply {
            Ok(reply) => reply,
            Err(e) => {
                side.fail(format!("predict RPC: {e}"));
                continue;
            }
        };
        let ys = rows.labels(b);
        let well_formed = epoch.is_some_and(|e| e >= last_epoch)
            && predictions.len() == ys.len()
            && predictions.iter().all(|&p| (p as usize) < classes);
        if !well_formed {
            side.fail(format!(
                "predict reply: epoch {epoch:?} after {last_epoch}, {} predictions for {} rows",
                predictions.len(),
                ys.len()
            ));
            continue;
        }
        last_epoch = epoch.unwrap_or(last_epoch);
        if done <= window.end {
            side.rows[kind] += ys.len() as u64;
            side.correct[kind] += predictions
                .iter()
                .zip(ys)
                .filter(|(&p, &y)| p as usize == y)
                .count() as u64;
            side.rpc_us[kind].push((done - sent_at).as_secs_f64() * 1e6);
        }
    }
    side
}

/// Client B: closed-loop learn RPCs over the rest of the stream; at its end,
/// a `swap` RPC back to the warm-up checkpoint starts the next cycle.
fn learner(
    addr: SocketAddr,
    rows: &Rows,
    views: &[Vec<&[f64]>],
    registry: &ModelRegistry,
    window: &Window,
    learned: &AtomicUsize,
) -> Side {
    let mut side = Side::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            side.fail(format!("client B connect: {e}"));
            return side;
        }
    };
    let warm = warm_snapshot();
    let warm = warm.to_str().expect("the snapshot path is UTF-8");
    let rest = rows.batches() - WARM_BATCHES;
    let mut last_epoch = 0;
    let mut observed = WARM_ROWS as u64;
    let mut k = 0;
    loop {
        let sent_at = Instant::now();
        if sent_at >= window.end {
            break;
        }
        let b = rest_batch(rows, k);
        let ys = rows.labels(b);
        side.sent += 1;
        let reply = client.learn(TENANT, &views[b], ys);
        let done = Instant::now();
        match reply {
            Ok((Some(epoch), observations))
                if epoch > last_epoch && observations == observed + ys.len() as u64 =>
            {
                last_epoch = epoch;
                observed = observations;
                side.all_rows += ys.len() as u64;
                if done <= window.end {
                    side.rows[window.kind(done)] += ys.len() as u64;
                }
            }
            Ok((epoch, observations)) => side.fail(format!(
                "learn reply: epoch {epoch:?} after {last_epoch}, {observations} observations after {observed}"
            )),
            Err(e) => side.fail(format!("learn RPC: {e}")),
        }
        k += 1;
        if k % rest == 0 {
            side.sent += 1;
            match client.swap(TENANT, warm) {
                Ok(Some(epoch)) if epoch > last_epoch => last_epoch = epoch,
                Ok(epoch) => side.fail(format!("swap reply: epoch {epoch:?} after {last_epoch}")),
                Err(e) => side.fail(format!("swap RPC: {e}")),
            }
        }
        learned.store(k, Ordering::Relaxed);
        if window.traced && k % 8 == 0 {
            if let Ok(stats) = registry.stats(TENANT) {
                side.live_max = side.live_max.max(stats.live_epochs);
            }
        }
    }
    side
}

/// Read the served model back through a checkpoint (the only public path
/// to the tenant's tree), written inside the benchmark's directory.
fn final_model(registry: &ModelRegistry) -> Result<DynamicModelTree, String> {
    let path = run_dir().join(format!("serve-mixed-{}-final.snap", std::process::id()));
    let loaded = registry
        .checkpoint(TENANT, &path)
        .map_err(|e| e.to_string())
        .and_then(|()| DynamicModelTree::load_snapshot(&path).map_err(|e| e.to_string()));
    let _ = std::fs::remove_file(&path);
    loaded
}

/// Client A's one connection: the user-facing client in an untraced window,
/// a raw socket whose steps can be timed one by one in a traced window.
enum Conn {
    Client(ServeClient),
    Raw(RawConnection),
}

/// Client A's connection in a traced window: the steps `ServeClient` runs,
/// spelled out so each can be timed.
struct RawConnection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The last sealed request frame.
    request: Vec<u8>,
    /// The last response frame, as read off the socket.
    response: Vec<u8>,
}

type Reply = Result<(Option<u64>, Vec<u32>), String>;

impl RawConnection {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            request: Vec::new(),
            response: Vec::new(),
        })
    }

    fn request(flat: &[f64], cols: usize) -> Request {
        Request::Predict {
            tenant: TENANT.to_string(),
            features: WireMatrix {
                cols,
                data: flat.to_vec(),
            },
        }
    }

    /// What `ServeClient::request` does, untimed.
    fn plain_predict(&mut self, flat: &[f64], cols: usize) -> Reply {
        let payload = Self::request(flat, cols).encode();
        write_frame(&mut self.writer, &payload).map_err(|e| e.to_string())?;
        match read_frame(&mut self.reader) {
            Ok(FrameRead::Payload(p)) => predictions(Response::decode(&p)),
            Ok(FrameRead::Eof) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// The same RPC with every step timed.
    fn traced_predict(&mut self, flat: &[f64], cols: usize, spans: &mut Spans) -> Reply {
        let payload = spans.time("client.request_encode", || {
            Self::request(flat, cols).encode()
        });
        self.request.clear();
        spans
            .time("protocol.frame_seal", || {
                write_frame(&mut self.request, &payload)
            })
            .map_err(|e| e.to_string())?;
        self.writer
            .write_all(&self.request)
            .map_err(|e| e.to_string())?;
        spans
            .time("client.wait", || {
                read_raw_frame(&mut self.reader, &mut self.response)
            })
            .map_err(|e| e.to_string())?;
        let opened = spans.time("client.response_open", || {
            read_frame(&mut Cursor::new(&self.response))
        });
        match opened {
            Ok(FrameRead::Payload(p)) => {
                predictions(spans.time("client.response_decode", || Response::decode(&p)))
            }
            other => Err(format!("response frame: {other:?}")),
        }
    }
}

/// The server's per-request steps for one predict frame, in-process.
fn replay(sealed: &[u8], registry: &ModelRegistry, spans: &mut Spans) -> Result<(), String> {
    let payload = match spans.time("protocol.frame_open", || {
        read_frame(&mut Cursor::new(sealed))
    }) {
        Ok(FrameRead::Payload(p)) => p,
        other => return Err(format!("replayed request frame: {other:?}")),
    };
    let request = spans
        .time("protocol.request_decode", || Request::decode(&payload))
        .map_err(|e| e.to_string())?;
    let Request::Predict { tenant, features } = request else {
        return Err("replayed request is not a predict".to_string());
    };
    let rows = features.as_rows();
    let outcome = spans
        .time("registry.predict", || registry.predict(&tenant, &rows))
        .map_err(|e| e.to_string())?;
    let response = Response::Predictions {
        epoch: outcome.epoch,
        predictions: outcome.predictions.into_iter().map(|p| p as u32).collect(),
    };
    let encoded = spans.time("protocol.response_encode", || response.encode());
    spans
        .time("server.response_seal", || {
            write_frame(&mut Vec::new(), &encoded)
        })
        .map_err(|e| e.to_string())
}

fn predictions(response: Result<Response, dmt_serve::ServeError>) -> Reply {
    match response {
        Ok(Response::Predictions { epoch, predictions }) => Ok((epoch, predictions)),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(millis: u64, traced: bool) -> Window {
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_millis(millis),
            traced,
        }
    }

    #[test]
    fn slices_split_the_window_between_plain_and_traced() {
        let plain = window(1_300, false);
        assert_eq!((plain.seconds(0), plain.seconds(1)), (1.3, 0.0));
        // Slices: plain 0–0.5, traced 0.5–1.0, plain 1.0–1.3.
        let traced = window(1_300, true);
        assert!((traced.seconds(0) - 0.8).abs() < 1e-9);
        assert!((traced.seconds(1) - 0.5).abs() < 1e-9);
        assert_eq!(traced.kind(traced.start + Duration::from_millis(700)), 1);
        assert_eq!(traced.kind(traced.start + Duration::from_millis(1_200)), 0);
    }
}
