//! The serve-plane battery: concurrency stress, wire-protocol fuzz, and
//! typed-error pins for the epoch-snapshot serving plane.
//!
//! The three claims under test, end to end:
//!
//! 1. **Bit-identity under concurrency** — while a writer runs `learn_batch`
//!    (with splits, prunes and budget rungs firing), every concurrent
//!    prediction is bit-identical to *some* published epoch. Ground truth is
//!    a serial lockstep twin: the writer feeds the same batches to a private
//!    serial tree and records, per published epoch, what that epoch must
//!    answer on a fixed probe set.
//! 2. **Reclamation safety** — an epoch pinned by a reader is never freed,
//!    no matter how many epochs are published over it; once readers
//!    quiesce, exactly one (the current) epoch remains resident.
//! 3. **Hostility tolerance** — every corrupt frame, truncated body or
//!    garbage byte stream yields a typed error response, never a panic; the
//!    connection survives payload-level corruption and is cleanly closed
//!    (reconnect works) on header-level corruption.
//!
//! The fuzz half is deterministic: fixed seed, pinned iteration counts.
//! Run serial and with `DMT_PARALLELISM=2` / `=4` — the CI `serve-soak` job
//! does both.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dmt::registry::{ModelRegistry, RegistryConfig};
use dmt::zoo::{build_zoo_model, ModelKind, ZooModel};
use dmt_core::epoch::EpochCell;
use dmt_core::{DmtConfig, DynamicModelTree, Parallelism};
use dmt_models::OnlineClassifier;
use dmt_serve::protocol::{self, FrameIssue, FrameRead, Request, Response, WireMatrix};
use dmt_serve::{ClientError, DmtServer, ServeClient, ServeConfig, ServeError};
use dmt_stream::StreamSchema;

/// Fixed fuzz seed — same constant as the snapshot corruption suite, so one
/// seed reproduces the whole hostile-input surface.
const FUZZ_SEED: u64 = 0x1CDE_2022_0DD5_EED5;

/// Iterations per pure-decode fuzz mode (flip / truncate / splice).
const FUZZ_ITERATIONS: usize = 300;

/// Hostile frames pushed through a live connection.
const SOCKET_FUZZ_ITERATIONS: usize = 60;

/// Deterministic SplitMix64, same as the snapshot fuzz suite.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn serve_schema() -> StreamSchema {
    StreamSchema::numeric("serve-stress", 2, 2)
}

/// Split-eager config so the stress run exercises real structure churn.
fn eager_config() -> DmtConfig {
    DmtConfig {
        use_aic_threshold: false,
        min_observations_split: 40,
        parallelism: Parallelism::from_env(),
        ..DmtConfig::default()
    }
}

/// The serial lockstep-twin config: identical structure parameters, forced
/// serial. The standing bit-identity invariant (pooled == serial) makes the
/// twin valid ground truth for a pooled registry tenant.
fn twin_config(budget: Option<usize>) -> DmtConfig {
    DmtConfig {
        parallelism: Parallelism::Serial,
        memory_budget_bytes: budget,
        ..eager_config()
    }
}

/// Three-phase concept stream: phase 0 forces splits, phase 1 forces
/// replacements, phase 2 invites prunes.
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

fn rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
    xs.iter().map(|v| v.as_slice()).collect()
}

/// The fixed probe set every epoch is fingerprinted on.
fn probe_rows() -> Vec<Vec<f64>> {
    let mut probes = Vec::new();
    for phase in 0..3 {
        let (xs, _) = step_batch(9_000 + phase, phase, 16);
        probes.extend(xs);
    }
    probes
}

fn probe_predictions(tree: &DynamicModelTree, probes: &[Vec<f64>]) -> Vec<usize> {
    let probe_refs = rows(probes);
    let mut out = vec![0usize; probe_refs.len()];
    tree.try_predict_batch_into(&probe_refs, &mut out)
        .expect("probe predict");
    out
}

// ---------------------------------------------------------------------------
// 1. Epoch reclamation safety
// ---------------------------------------------------------------------------

/// A pinned epoch survives any amount of publish churn; dropping the pin
/// releases exactly that epoch.
#[test]
fn pinned_epoch_survives_publish_churn() {
    let probes = probe_rows();
    let mut tree = DynamicModelTree::new(serve_schema(), twin_config(None));
    let cell = EpochCell::new(tree.clone());

    // Advance a few epochs, then pin one and keep churning over it.
    for round in 0..3 {
        let (xs, ys) = step_batch(round, 0, 32);
        tree.learn_batch(&rows(&xs), &ys);
        cell.publish(tree.clone());
    }
    let pinned = cell.pin();
    let pinned_seq = pinned.seq();
    let expected = probe_predictions(&pinned, &probes);

    for round in 3..53 {
        let (xs, ys) = step_batch(round, round % 3, 32);
        tree.learn_batch(&rows(&xs), &ys);
        cell.publish(tree.clone());
        // The pinned snapshot is untouched by every publish.
        assert_eq!(probe_predictions(&pinned, &probes), expected);
        // Exactly two epochs are resident: the current one and the pin.
        assert_eq!(cell.live_epochs(), 2, "round {round}");
    }
    assert_eq!(pinned.seq(), pinned_seq);
    assert_eq!(cell.current_seq(), 53);

    drop(pinned);
    assert_eq!(cell.live_epochs(), 1, "only the current epoch survives");
}

// ---------------------------------------------------------------------------
// 2. In-process concurrency stress (registry level)
// ---------------------------------------------------------------------------

const STRESS_ROUNDS: usize = 150;
const STRESS_BATCH: usize = 32;
const STRESS_READERS: usize = 4;
const STRESS_READS: usize = 300;
/// Small enough that the unbudgeted replay proves real memory pressure.
const STRESS_FLEET_BUDGET: usize = 32 * 1024;

/// What one reader thread saw: `(epoch, predictions)` per read.
type ObservedReads = Vec<(u64, Vec<usize>)>;

/// Spawn `STRESS_READERS` threads that hammer `predict` on tenant `m` until
/// `stop` is set *and* each has done `STRESS_READS` reads, asserting epoch
/// monotonicity along the way; each returns its observed
/// `(epoch, predictions)` pairs.
fn spawn_registry_readers(
    registry: &Arc<ModelRegistry>,
    probes: &Arc<Vec<Vec<f64>>>,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<ObservedReads>> {
    (0..STRESS_READERS)
        .map(|_| {
            let registry = Arc::clone(registry);
            let probes = Arc::clone(probes);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let probe_refs = rows(&probes);
                let mut observed: Vec<(u64, Vec<usize>)> = Vec::with_capacity(STRESS_READS);
                let mut last_epoch = 0u64;
                let mut reads = 0;
                loop {
                    let outcome = registry.predict("m", &probe_refs).expect("predict");
                    let epoch = outcome.epoch.expect("DMT tenants serve epochs");
                    assert!(
                        epoch >= last_epoch,
                        "epochs must be monotonic per reader: {epoch} after {last_epoch}"
                    );
                    last_epoch = epoch;
                    observed.push((epoch, outcome.predictions));
                    reads += 1;
                    if reads >= STRESS_READS && stop.load(Ordering::Relaxed) {
                        return observed;
                    }
                }
            })
        })
        .collect()
}

/// Join the readers and check every observed `(epoch, predictions)` pair
/// against the per-epoch fingerprints; returns the total read count.
fn verify_observed(
    readers: Vec<std::thread::JoinHandle<ObservedReads>>,
    expected: &HashMap<u64, Vec<usize>>,
) -> usize {
    let mut total_reads = 0usize;
    for reader in readers {
        let observed = reader.join().expect("reader thread");
        total_reads += observed.len();
        for (epoch, predictions) in observed {
            let fingerprint = expected
                .get(&epoch)
                .unwrap_or_else(|| panic!("prediction reported unpublished epoch {epoch}"));
            assert_eq!(
                &predictions, fingerprint,
                "epoch {epoch}: prediction not bit-identical to the published snapshot"
            );
        }
    }
    total_reads
}

/// N reader threads hammer `predict` while one writer runs `learn_batch`
/// with splits and prunes firing. Every prediction must be bit-identical to
/// the lockstep twin's state at the epoch the prediction reports — i.e. to
/// *some* published epoch, never a torn hybrid. The twin is serial whatever
/// `DMT_PARALLELISM` says, so this also re-pins the pooled == serial
/// bit-identity invariant through the whole serving stack.
#[test]
fn concurrent_predicts_are_bit_identical_to_published_epochs() {
    let probes = Arc::new(probe_rows());
    let registry = registry_with_dmt_tenant(None);

    // epoch -> the probe predictions that epoch must answer.
    let expected: Arc<Mutex<HashMap<u64, Vec<usize>>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut twin = DynamicModelTree::new(serve_schema(), twin_config(None));
    expected
        .lock()
        .unwrap()
        .insert(0, probe_predictions(&twin, &probes));

    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_registry_readers(&registry, &probes, &stop);

    // The writer: learn, mirror into the serial twin, fingerprint the epoch.
    for round in 0..STRESS_ROUNDS {
        let (xs, ys) = step_batch(round, round / (STRESS_ROUNDS / 3), STRESS_BATCH);
        let xs = rows(&xs);
        let outcome = registry.learn("m", &xs, &ys).expect("learn");
        let epoch = outcome.epoch.expect("DMT learn publishes");
        assert_eq!(epoch, round as u64 + 1);
        twin.try_learn_batch(&xs, &ys).expect("twin learn");
        expected
            .lock()
            .unwrap()
            .insert(epoch, probe_predictions(&twin, &probes));
    }
    stop.store(true, Ordering::Relaxed);

    // Every observed (epoch, predictions) pair matches the twin's fingerprint
    // of that epoch: bit-identical to a published snapshot, never torn.
    let expected = expected.lock().unwrap();
    let total_reads = verify_observed(readers, &expected);
    // 1k+ mixed operations actually ran.
    assert!(total_reads + STRESS_ROUNDS >= 1_000, "{total_reads} reads");

    // Quiesced: exactly the current epoch is resident; stats line up.
    let stats = registry.stats("m").expect("stats");
    assert_eq!(stats.epoch, STRESS_ROUNDS as u64);
    assert_eq!(stats.live_epochs, 1, "a superseded epoch leaked");
    assert_eq!(stats.observations, (STRESS_ROUNDS * STRESS_BATCH) as u64);
    assert_eq!(stats.budget_bytes, None);
}

/// The same reader barrage with the fleet byte pool armed small enough that
/// the budget ladder's rungs fire mid-run. Ground truth here cannot be a
/// lockstep twin — budget enforcement keys off `memory_bytes()`, which
/// legitimately differs between pooled and serial trees (pool-chunked
/// prediction keeps one accounted scratch per executor) — so the writer fingerprints each epoch right after
/// publishing it: the writer is the sole learner, so the current epoch at
/// that instant *is* the one just published. Readers must observe exactly
/// those fingerprints, proving epoch snapshots stay immutable while the
/// writer degrades the live tree under memory pressure.
#[test]
fn budget_rungs_fire_under_concurrent_predict_load() {
    let probes = Arc::new(probe_rows());
    let registry = registry_with_dmt_tenant(Some(STRESS_FLEET_BUDGET));
    let probe_refs = rows(&probes);

    let expected: Arc<Mutex<HashMap<u64, Vec<usize>>>> = Arc::new(Mutex::new(HashMap::new()));
    let epoch0 = registry.predict("m", &probe_refs).expect("predict");
    assert_eq!(epoch0.epoch, Some(0));
    expected.lock().unwrap().insert(0, epoch0.predictions);

    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_registry_readers(&registry, &probes, &stop);

    for round in 0..STRESS_ROUNDS {
        let (xs, ys) = step_batch(round, round / (STRESS_ROUNDS / 3), STRESS_BATCH);
        let outcome = registry.learn("m", &rows(&xs), &ys).expect("learn");
        let epoch = outcome.epoch.expect("DMT learn publishes");
        let fingerprint = registry.predict("m", &probe_refs).expect("fingerprint");
        assert_eq!(
            fingerprint.epoch,
            Some(epoch),
            "sole learner: the current epoch right after learn is the published one"
        );
        expected
            .lock()
            .unwrap()
            .insert(epoch, fingerprint.predictions);
    }
    stop.store(true, Ordering::Relaxed);

    let expected = expected.lock().unwrap();
    verify_observed(readers, &expected);

    // The arbitrated share held: the writer ends under budget, quiesced.
    let stats = registry.stats("m").expect("stats");
    assert_eq!(stats.epoch, STRESS_ROUNDS as u64);
    assert_eq!(stats.live_epochs, 1);
    assert_eq!(stats.budget_bytes, Some(STRESS_FLEET_BUDGET as u64));
    assert!(
        stats.memory_bytes <= STRESS_FLEET_BUDGET as u64,
        "writer at {} bytes, budget {STRESS_FLEET_BUDGET}",
        stats.memory_bytes
    );

    // The budget rungs really fired: an unbudgeted (serial) replay of the
    // identical stream grows past the fleet share.
    let mut unbudgeted = DynamicModelTree::new(serve_schema(), twin_config(None));
    for round in 0..STRESS_ROUNDS {
        let (xs, ys) = step_batch(round, round / (STRESS_ROUNDS / 3), STRESS_BATCH);
        unbudgeted.learn_batch(&rows(&xs), &ys);
    }
    assert!(
        unbudgeted.memory_bytes() > STRESS_FLEET_BUDGET,
        "stream must pressure the budget (unbudgeted replay: {} bytes)",
        unbudgeted.memory_bytes()
    );
}

// ---------------------------------------------------------------------------
// 3. Socket-level concurrency stress
// ---------------------------------------------------------------------------

const SOCKET_ROUNDS: usize = 100;
const SOCKET_BATCH: usize = 24;
const SOCKET_READERS: usize = 3;
const SOCKET_READS: usize = 150;

fn start_server(registry: Arc<ModelRegistry>, threads: usize) -> DmtServer {
    DmtServer::start(
        ServeConfig {
            threads,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server start")
}

fn registry_with_dmt_tenant(fleet_budget: Option<usize>) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        fleet_budget_bytes: fleet_budget,
        ..RegistryConfig::default()
    }));
    let tree = DynamicModelTree::new(serve_schema(), eager_config());
    registry
        .register("m", serve_schema(), ZooModel::Dmt(tree))
        .expect("register");
    registry
}

/// The full plane over TCP: concurrent predict clients against a learning
/// writer client, every answered prediction bit-identical to its epoch.
#[test]
fn socket_clients_observe_only_published_epochs() {
    let probes = Arc::new(probe_rows());
    let registry = registry_with_dmt_tenant(None);
    let server = start_server(Arc::clone(&registry), SOCKET_READERS + 1);
    let addr = server.local_addr();

    let expected: Arc<Mutex<HashMap<u64, Vec<u32>>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut twin = DynamicModelTree::new(serve_schema(), twin_config(None));
    expected.lock().unwrap().insert(
        0,
        probe_predictions(&twin, &probes)
            .into_iter()
            .map(|p| p as u32)
            .collect(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..SOCKET_READERS)
        .map(|reader| {
            let probes = Arc::clone(&probes);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("reader connect");
                let probe_refs = rows(&probes);
                let mut observed = Vec::with_capacity(SOCKET_READS);
                let mut reads = 0;
                loop {
                    let (epoch, predictions) =
                        client.predict("m", &probe_refs).expect("predict rpc");
                    observed.push((epoch.expect("DMT epoch"), predictions));
                    reads += 1;
                    if reads % 50 == 0 {
                        // Interleave a stats call: a second op type on the
                        // same connection, mid-stress.
                        let stats = client.stats("m").expect("stats rpc");
                        assert_eq!(stats.name, "m");
                        assert_eq!(stats.kind, "DMT (ours)");
                    }
                    if reads >= SOCKET_READS && stop.load(Ordering::Relaxed) {
                        return (reader, observed);
                    }
                }
            })
        })
        .collect();

    // Writer client: learn over the wire, mirror into the serial twin.
    let mut writer = ServeClient::connect(addr).expect("writer connect");
    for round in 0..SOCKET_ROUNDS {
        let (xs, ys) = step_batch(round, round / (SOCKET_ROUNDS / 3), SOCKET_BATCH);
        let xs = rows(&xs);
        let (epoch, observations) = writer.learn("m", &xs, &ys).expect("learn rpc");
        let epoch = epoch.expect("DMT learn publishes");
        assert_eq!(epoch, round as u64 + 1);
        assert_eq!(observations, ((round + 1) * SOCKET_BATCH) as u64);
        twin.try_learn_batch(&xs, &ys).expect("twin learn");
        expected.lock().unwrap().insert(
            epoch,
            probe_predictions(&twin, &probes)
                .into_iter()
                .map(|p| p as u32)
                .collect(),
        );
    }
    stop.store(true, Ordering::Relaxed);

    let expected = expected.lock().unwrap();
    for reader in readers {
        let (id, observed) = reader.join().expect("reader thread");
        for (epoch, predictions) in observed {
            let fingerprint = expected
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader {id}: unpublished epoch {epoch}"));
            assert_eq!(
                &predictions, fingerprint,
                "reader {id}, epoch {epoch}: wire prediction diverged from the published snapshot"
            );
        }
    }

    let stats = writer.stats("m").expect("final stats");
    assert_eq!(stats.epoch, SOCKET_ROUNDS as u64);
    assert_eq!(stats.live_epochs, 1);
    assert_eq!(stats.observations, (SOCKET_ROUNDS * SOCKET_BATCH) as u64);
}

// ---------------------------------------------------------------------------
// 4. Wire-protocol fuzz: pure decode
// ---------------------------------------------------------------------------

/// A corpus of well-formed payloads to corrupt.
fn fuzz_corpus() -> Vec<Vec<u8>> {
    let probes = probe_rows();
    let features = WireMatrix::from_rows(&rows(&probes));
    vec![
        Request::Predict {
            tenant: "m".to_string(),
            features: features.clone(),
        }
        .encode(),
        Request::Learn {
            tenant: "m".to_string(),
            features,
            labels: vec![1; probes.len()],
        }
        .encode(),
        Request::Checkpoint {
            tenant: "m".to_string(),
            path: "/tmp/serve-fuzz.dmt".to_string(),
        }
        .encode(),
        Request::Swap {
            tenant: "tenant-with-a-longer-name".to_string(),
            path: "relative/path.dmt".to_string(),
        }
        .encode(),
        Request::Stats {
            tenant: "m".to_string(),
        }
        .encode(),
        Response::Predictions {
            epoch: Some(41),
            predictions: vec![0, 1, 1, 0, 1],
        }
        .encode(),
        Response::Learned {
            epoch: Some(42),
            observations: 131_072,
        }
        .encode(),
        Response::Stats(dmt_serve::WireStats {
            name: "m".to_string(),
            kind: "DMT (ours)".to_string(),
            epoch: 7,
            live_epochs: 2,
            memory_bytes: 48 * 1024,
            observations: 9_600,
            budget_bytes: Some(48 * 1024),
        })
        .encode(),
        Response::Error(ServeError::RejectedBatch("row 3 is not finite".to_string())).encode(),
    ]
}

fn corrupt(rng: &mut SplitMix64, mode: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match mode {
        // Bit flips (1-4 of them).
        0 => {
            for _ in 0..=rng.below(4) {
                if out.is_empty() {
                    break;
                }
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
        }
        // Truncation.
        1 => out.truncate(rng.below(out.len().max(1))),
        // Splice a window of seeded garbage (possibly extending the buffer).
        _ => {
            let start = rng.below(out.len().max(1));
            let len = rng.below(64) + 1;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let end = out.len().min(start + len);
            out.splice(start..end, garbage);
        }
    }
    out
}

/// No corrupted payload may panic the request or response decoder — every
/// outcome is `Ok` (the corruption survived decoding) or a typed error.
#[test]
fn decode_fuzz_never_panics() {
    let corpus = fuzz_corpus();
    let mut rng = SplitMix64(FUZZ_SEED);
    for mode in 0..3 {
        for iteration in 0..FUZZ_ITERATIONS {
            let base = &corpus[rng.below(corpus.len())];
            let hostile = corrupt(&mut rng, mode, base);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = Request::decode(&hostile);
                let _ = Response::decode(&hostile);
            }));
            assert!(
                outcome.is_ok(),
                "mode {mode} iteration {iteration} (seed {FUZZ_SEED:#x}): decode PANICKED"
            );
        }
    }
}

/// Same discipline for the framing layer: a corrupted *sealed* frame must
/// come back as a typed `FrameIssue` (header or payload class), never a
/// panic.
#[test]
fn frame_fuzz_never_panics() {
    let corpus = fuzz_corpus();
    let mut rng = SplitMix64(FUZZ_SEED ^ 0xF5A3);
    for mode in 0..3 {
        for iteration in 0..FUZZ_ITERATIONS {
            let payload = &corpus[rng.below(corpus.len())];
            let mut sealed = Vec::new();
            protocol::write_frame(&mut sealed, payload).expect("seal");
            let hostile = corrupt(&mut rng, mode, &sealed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut cursor = std::io::Cursor::new(&hostile);
                let _ = protocol::read_frame(&mut cursor);
            }));
            assert!(
                outcome.is_ok(),
                "mode {mode} iteration {iteration} (seed {FUZZ_SEED:#x}): read_frame PANICKED"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Socket-level fuzz: hostile frames against a live server
// ---------------------------------------------------------------------------

/// Push hostile bytes through real connections. Payload corruption gets a
/// typed error on a connection that stays usable; header corruption gets a
/// typed error and a clean close (reconnect works); the server survives all
/// of it and keeps serving.
#[test]
fn hostile_frames_yield_typed_errors_and_the_server_survives() {
    let registry = registry_with_dmt_tenant(None);
    let server = start_server(Arc::clone(&registry), 2);
    let addr = server.local_addr();
    let mut rng = SplitMix64(FUZZ_SEED ^ 0x50C4E7);

    let valid_request = Request::Stats {
        tenant: "m".to_string(),
    }
    .encode();
    let mut sealed = Vec::new();
    protocol::write_frame(&mut sealed, &valid_request).expect("seal");

    let mut client = ServeClient::connect(addr).expect("connect");
    for iteration in 0..SOCKET_FUZZ_ITERATIONS {
        match rng.below(5) {
            // Payload bit flip: typed error, connection survives.
            0 => {
                let mut hostile = sealed.clone();
                let i = 24 + rng.below(hostile.len() - 24);
                hostile[i] ^= 1 << rng.below(8);
                client.send_raw(&hostile).expect("send");
                match client.read_response() {
                    Ok(Response::Error(ServeError::BadFrame(_))) => {}
                    other => panic!("iteration {iteration}: expected BadFrame, got {other:?}"),
                }
                // Same connection still serves.
                let stats = client.stats("m").expect("connection must stay usable");
                assert_eq!(stats.name, "m");
            }
            // Magic/version flip: typed error, then the server closes.
            1 => {
                let mut hostile = sealed.clone();
                let i = rng.below(12);
                hostile[i] ^= 1 << rng.below(8);
                client.send_raw(&hostile).expect("send");
                match client.read_response() {
                    Ok(Response::Error(ServeError::BadHeader(_))) => {}
                    other => panic!("iteration {iteration}: expected BadHeader, got {other:?}"),
                }
                assert_connection_closed(&mut client, iteration);
                client = ServeClient::connect(addr).expect("reconnect");
            }
            // Forged oversize length: typed error, then close.
            2 => {
                let mut hostile = sealed.clone();
                hostile[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
                client.send_raw(&hostile).expect("send");
                match client.read_response() {
                    Ok(Response::Error(ServeError::BadHeader(_))) => {}
                    other => panic!("iteration {iteration}: expected BadHeader, got {other:?}"),
                }
                assert_connection_closed(&mut client, iteration);
                client = ServeClient::connect(addr).expect("reconnect");
            }
            // Truncation: a raw connection sends a prefix and hangs up; the
            // server must treat it as a dead peer, never panic.
            3 => {
                let cut = 1 + rng.below(sealed.len() - 1);
                let mut raw = TcpStream::connect(addr).expect("raw connect");
                raw.write_all(&sealed[..cut]).expect("send prefix");
                raw.shutdown(Shutdown::Write).expect("shutdown write");
                // The server either answers a typed header error (cut inside
                // the header) or silently drops the dead connection (cut
                // inside the payload) — both end in EOF, neither panics.
                match protocol::read_frame(&mut raw) {
                    Ok(FrameRead::Payload(payload)) => match Response::decode(&payload) {
                        Ok(Response::Error(e)) => assert!(
                            e.closes_connection(),
                            "iteration {iteration}: non-closing error {e:?} for truncation"
                        ),
                        other => panic!("iteration {iteration}: {other:?}"),
                    },
                    Ok(FrameRead::Eof) | Err(FrameIssue::Io(_)) => {}
                    Err(issue) => panic!("iteration {iteration}: {issue:?}"),
                }
            }
            // Pure seeded garbage: bad magic, typed error, close.
            _ => {
                let len = 8 + rng.below(56);
                let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let mut raw = TcpStream::connect(addr).expect("raw connect");
                raw.write_all(&garbage).expect("send garbage");
                raw.shutdown(Shutdown::Write).expect("shutdown write");
                match protocol::read_frame(&mut raw) {
                    Ok(FrameRead::Payload(payload)) => match Response::decode(&payload) {
                        Ok(Response::Error(ServeError::BadHeader(_))) => {}
                        other => panic!("iteration {iteration}: {other:?}"),
                    },
                    Ok(FrameRead::Eof) | Err(FrameIssue::Io(_)) => {}
                    Err(issue) => panic!("iteration {iteration}: {issue:?}"),
                }
            }
        }
    }

    // After the whole barrage the plane still learns and predicts.
    let (xs, ys) = step_batch(0, 0, 16);
    let (epoch, _) = client
        .learn("m", &rows(&xs), &ys)
        .expect("learn after fuzz");
    assert_eq!(epoch, Some(1));
    let (epoch, predictions) = client.predict("m", &rows(&xs)).expect("predict after fuzz");
    assert_eq!(epoch, Some(1));
    assert_eq!(predictions.len(), 16);
}

fn assert_connection_closed(client: &mut ServeClient, iteration: usize) {
    // The server half-closed after a header error; the next request must
    // fail with an I/O class error, not hang or panic.
    let probe = Request::Stats {
        tenant: "m".to_string(),
    };
    match client.request(&probe) {
        Err(ClientError::Io(_)) => {}
        Ok(other) => panic!("iteration {iteration}: connection should be closed, got {other:?}"),
        Err(_) => {}
    }
}

// ---------------------------------------------------------------------------
// 6. Checkpoint / swap over the wire
// ---------------------------------------------------------------------------

/// Checkpoint a learning DMT tenant over the wire, keep learning, then
/// hot-swap back: the tenant reverts to the checkpointed state bit-exactly
/// and republishes it as a fresh epoch.
#[test]
fn checkpoint_and_swap_round_trip_over_the_wire() {
    let probes = probe_rows();
    let registry = registry_with_dmt_tenant(None);
    let server = start_server(Arc::clone(&registry), 2);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let dir = std::env::temp_dir().join(format!("dmt-serve-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("m.dmt");
    let path_str = path.to_str().expect("utf-8 path").to_string();

    for round in 0..30 {
        let (xs, ys) = step_batch(round, 0, 24);
        client.learn("m", &rows(&xs), &ys).expect("learn");
    }
    client.checkpoint("m", &path_str).expect("checkpoint rpc");
    let (_, checkpointed_preds) = client.predict("m", &rows(&probes)).expect("predict");

    for round in 30..50 {
        let (xs, ys) = step_batch(round, 1, 24);
        client.learn("m", &rows(&xs), &ys).expect("learn");
    }

    let epoch = client.swap("m", &path_str).expect("swap rpc");
    assert_eq!(epoch, Some(51), "swap republishes as the next epoch");
    let (epoch, swapped_preds) = client.predict("m", &rows(&probes)).expect("predict");
    assert_eq!(epoch, Some(51));
    assert_eq!(
        swapped_preds, checkpointed_preds,
        "swap must restore the checkpointed state bit-exactly"
    );

    // Swapping from a missing path is a typed error, tenant unharmed.
    match client.swap("m", dir.join("missing.dmt").to_str().unwrap()) {
        Err(ClientError::Server(ServeError::Checkpoint(_))) => {}
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
    let stats = client.stats("m").expect("stats");
    assert_eq!(stats.epoch, 51);

    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite 4: tenants whose model kind has no snapshot codec answer
/// checkpoint *and* swap with the typed `CheckpointUnsupported` serve error
/// — never a panic, never a silent drop — and keep serving afterwards.
#[test]
fn unsupported_checkpoint_is_a_typed_wire_error() {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    let schema = serve_schema();
    registry
        .register(
            "hat",
            schema.clone(),
            build_zoo_model(ModelKind::HtAda, &schema, 1),
        )
        .expect("register");
    let server = start_server(Arc::clone(&registry), 2);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    match client.checkpoint("hat", "/tmp/hat.dmt") {
        Err(ClientError::Server(ServeError::CheckpointUnsupported(kind))) => {
            assert_eq!(kind, "HT-ADA");
        }
        other => panic!("expected CheckpointUnsupported, got {other:?}"),
    }
    match client.swap("hat", "/tmp/hat.dmt") {
        Err(ClientError::Server(ServeError::CheckpointUnsupported(_))) => {}
        other => panic!("expected CheckpointUnsupported, got {other:?}"),
    }

    // The tenant is unharmed: it still learns and predicts (under the writer
    // lock — no epochs for baselines).
    let (xs, ys) = step_batch(0, 0, 16);
    let (epoch, observations) = client.learn("hat", &rows(&xs), &ys).expect("learn");
    assert_eq!(epoch, None);
    assert_eq!(observations, 16);
    let (epoch, predictions) = client.predict("hat", &rows(&xs)).expect("predict");
    assert_eq!(epoch, None);
    assert_eq!(predictions.len(), 16);
    let stats = client.stats("hat").expect("stats");
    assert_eq!(stats.kind, "HT-ADA");
    assert_eq!(stats.live_epochs, 0);
}
