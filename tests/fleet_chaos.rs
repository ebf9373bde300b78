//! Chaos suite for the `tecopt-serve` fleet tier: shard kills and
//! restarts, failover, health-state recovery, cache replication, and
//! checkpointed sweep handoff (DESIGN.md §17).
//!
//! The invariants under test:
//!
//! - killing and restarting shards — one at a time and two at once —
//!   mid-sweep under load produces **zero process aborts**, **zero
//!   duplicate successful evaluations** of any request fingerprint
//!   (hedging off), and **typed errors only**;
//! - a replica-served answer is bit-identical to the locally evaluated
//!   one, and a poisoned replica is never served (fingerprint gate);
//! - a keyed designer sweep killed mid-flight on one shard resumes on
//!   its failover successor **bit-identically** via the shared
//!   checkpoint directory;
//! - the server's wire surface answers `ping` frames and ignores
//!   unknown `#` extension tags without dropping the connection
//!   (forward compatibility with newer peers).
//!
//! The heavyweight soak is `#[ignore]`d; the dedicated fleet chaos pass
//! in `scripts/check.sh` runs this suite with `--test-threads=1
//! --include-ignored`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tecopt::{
    score_candidates, CancelToken, CoolingSystem, CurrentSettings, OptError, PackageConfig,
    RunContext, TecParams, TileIndex,
};
use tecopt_faultinject::{ShardKill, SlowEvaluator};
use tecopt_serve::wire::{encode_repl, encode_request, request_fingerprint, ReplFrame};
use tecopt_serve::{
    Engine, EngineConfig, Evaluator, HealthPolicy, HealthState, Listener, LocalShard, RemoteShard,
    ReplEntry, Replicator, Request, RequestFrame, Response, Router, RouterConfig, ServeError,
    Server, ServerConfig, ShardHandle,
};
use tecopt_units::{Amperes, Celsius, Watts};

// ---------------------------------------------------------------------------
// Rig: killable local shards with per-fingerprint evaluation accounting
// ---------------------------------------------------------------------------

/// Counts *successful* evaluations per request fingerprint, shared across
/// every engine generation of every shard — the fleet-wide duplicate
/// detector.
type EvalCounts = Arc<Mutex<HashMap<u64, u64>>>;

struct CountingEval<E> {
    inner: E,
    counts: EvalCounts,
}

impl<E: Evaluator> Evaluator for CountingEval<E> {
    fn evaluate(&self, request: &Request, ctx: &RunContext) -> Result<Response, OptError> {
        let result = self.inner.evaluate(request, ctx);
        if result.is_ok() {
            *self
                .counts
                .lock()
                .unwrap()
                .entry(request_fingerprint(request))
                .or_insert(0) += 1;
        }
        result
    }
}

/// A cheap deterministic evaluator for steady requests.
struct EchoEval;

impl Evaluator for EchoEval {
    fn evaluate(&self, request: &Request, _ctx: &RunContext) -> Result<Response, OptError> {
        match request {
            Request::Steady { current } => Ok(Response::Steady {
                peak: Celsius(current.value() * 10.0),
                tec_power: Watts(current.value()),
            }),
            _ => Err(OptError::InvalidParameter(
                "echo evaluator only answers steady requests".into(),
            )),
        }
    }
}

type CountingEcho = CountingEval<SlowEvaluator<EchoEval>>;

/// One killable shard slot: the `ShardKill` wrapper stays on the ring
/// across restarts while the engine behind it is torn down and rebuilt.
struct ShardRig {
    name: String,
    kill: Arc<ShardKill>,
    counts: EvalCounts,
    eval_delay: Duration,
    engine: Mutex<Option<Arc<Engine<CountingEcho>>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Metric snapshots of every *retired* engine generation.
    retired: Mutex<Vec<tecopt_serve::MetricsSnapshot>>,
}

impl ShardRig {
    fn start(name: &str, counts: &EvalCounts, eval_delay: Duration) -> Arc<ShardRig> {
        let rig = Arc::new(ShardRig {
            name: name.to_string(),
            // Placeholder inner; replaced by the first `boot` below.
            kill: Arc::new(ShardKill::wrap(Arc::new(NullShard(name.to_string())))),
            counts: Arc::clone(counts),
            eval_delay,
            engine: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
        });
        rig.boot();
        rig
    }

    fn fresh_engine(&self) -> Arc<Engine<CountingEcho>> {
        Arc::new(Engine::new(
            CountingEval {
                inner: SlowEvaluator::new(EchoEval, self.eval_delay),
                counts: Arc::clone(&self.counts),
            },
            EngineConfig::default(),
        ))
    }

    /// Builds a fresh engine generation and swaps it into the kill shell.
    fn boot(&self) {
        let engine = self.fresh_engine();
        let mut workers = self.workers.lock().unwrap();
        for w in 0..2 {
            let e = Arc::clone(&engine);
            workers.push(std::thread::spawn(move || e.worker_loop(w)));
        }
        self.kill.restart_with(Arc::new(
            LocalShard::new(self.name.clone(), Arc::clone(&engine))
                .with_poll_interval(Duration::from_millis(1)),
        ));
        *self.engine.lock().unwrap() = Some(engine);
    }

    /// Kills the shard: refuse new work, cancel in-flight work, join the
    /// worker threads, retire the engine generation.
    fn crash(&self) {
        self.kill.kill();
        if let Some(engine) = self.engine.lock().unwrap().take() {
            engine.begin_drain();
            engine.cancel_outstanding();
            for w in self.workers.lock().unwrap().drain(..) {
                w.join().unwrap();
            }
            self.retired.lock().unwrap().push(engine.metrics());
        }
    }

    /// Engine metric snapshots across every generation, retired and live.
    fn all_metrics(&self) -> Vec<tecopt_serve::MetricsSnapshot> {
        let mut all = self.retired.lock().unwrap().clone();
        if let Some(engine) = self.engine.lock().unwrap().as_ref() {
            all.push(engine.metrics());
        }
        all
    }

    fn shutdown(&self) {
        self.crash();
    }
}

/// The placeholder behind a rig before its first boot; never routed to.
struct NullShard(String);

impl ShardHandle for NullShard {
    fn id(&self) -> &str {
        &self.0
    }
    fn submit(&self, _f: &RequestFrame, _c: &CancelToken) -> Result<Response, ServeError> {
        Err(ServeError::NoShards)
    }
    fn ping(&self, _t: Duration) -> Result<(), ServeError> {
        Err(ServeError::NoShards)
    }
    fn replicate(&self, _e: &ReplEntry) -> Result<(), ServeError> {
        Err(ServeError::NoShards)
    }
}

fn fleet_router(rigs: &[Arc<ShardRig>], config: RouterConfig) -> Router {
    Router::new(
        rigs.iter()
            .map(|r| Arc::clone(&r.kill) as Arc<dyn ShardHandle>)
            .collect(),
        config,
    )
}

fn quick_config() -> RouterConfig {
    RouterConfig {
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        health: HealthPolicy {
            ping_interval: Duration::from_millis(10),
            ping_timeout: Duration::from_millis(50),
            down_after: 3,
            up_after: 2,
        },
        ..RouterConfig::default()
    }
}

fn steady_frame(key: &str, current: f64) -> RequestFrame {
    RequestFrame {
        key: Some(key.to_string()),
        deadline_ms: None,
        request: Request::Steady {
            current: Amperes(current),
        },
    }
}

/// A key whose primary replica (in `router`'s ring) is shard `index`.
fn key_on_primary(router: &Router, index: usize) -> String {
    (0..4096)
        .map(|i| format!("pinned-{i}"))
        .find(|k| router.replica_order(k)[0] == index)
        .expect("some key lands on the requested shard")
}

// ---------------------------------------------------------------------------
// Routing, dedup, failover, health
// ---------------------------------------------------------------------------

#[test]
fn the_router_dedupes_repeat_keys_onto_one_evaluation() {
    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::ZERO))
        .collect();
    let router = fleet_router(&rigs, quick_config());
    let cancel = CancelToken::new();

    let first = router.submit(steady_frame("job-1", 2.0), &cancel).unwrap();
    let second = router.submit(steady_frame("job-1", 2.0), &cancel).unwrap();
    assert_eq!(first, second);
    let fp = request_fingerprint(&Request::Steady {
        current: Amperes(2.0),
    });
    assert_eq!(
        counts.lock().unwrap()[&fp],
        1,
        "one evaluation, two answers"
    );
    assert_eq!(router.metrics().routed, 2);
    for r in &rigs {
        r.shutdown();
    }
}

#[test]
fn a_killed_primary_fails_over_and_a_restarted_one_serves_again() {
    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::ZERO))
        .collect();
    let router = fleet_router(&rigs, quick_config());
    let cancel = CancelToken::new();
    let key = key_on_primary(&router, 0);

    rigs[0].crash();
    let r = router.submit(steady_frame(&key, 3.0), &cancel).unwrap();
    assert_eq!(
        r,
        Response::Steady {
            peak: Celsius(30.0),
            tec_power: Watts(3.0)
        }
    );
    assert!(router.metrics().failovers >= 1);

    // The restarted shard serves its own keys again (fresh cache, fresh
    // evaluation — a different key so dedup does not mask it). The
    // failover marked it Suspect, so `replica_order` demotes it until
    // two clean ping rounds restore it (hysteresis).
    rigs[0].boot();
    router.ping_all_once();
    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Healthy);
    let key2 = {
        let k = key_on_primary(&router, 0);
        format!("{k}-second")
    };
    let r2 = router.submit(steady_frame(&key2, 4.0), &cancel);
    assert!(r2.is_ok(), "restarted fleet refused work: {r2:?}");
    for r in &rigs {
        r.shutdown();
    }
}

#[test]
fn ping_rounds_walk_the_health_machine_down_and_back_up() {
    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::ZERO))
        .collect();
    let router = fleet_router(&rigs, quick_config());

    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Healthy);

    rigs[0].crash();
    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Suspect);
    router.ping_all_once();
    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Down);
    assert_eq!(router.health().state(1), HealthState::Healthy);

    // Hysteretic recovery: the restarted shard needs two clean rounds.
    rigs[0].boot();
    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Down);
    router.ping_all_once();
    assert_eq!(router.health().state(0), HealthState::Healthy);
    for r in &rigs {
        r.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

#[test]
fn replicated_results_survive_their_origin_shard() {
    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::ZERO))
        .collect();
    let router = fleet_router(&rigs, quick_config());
    let cancel = CancelToken::new();

    // Wire the replication fan-out between the live engines.
    let replicator = Arc::new(Replicator::new(
        rigs.iter()
            .map(|r| Arc::clone(&r.kill) as Arc<dyn ShardHandle>)
            .collect(),
        64,
    ));
    for r in &rigs {
        let engine = r.engine.lock().unwrap().as_ref().unwrap().clone();
        engine.set_replication_sink(replicator.sink_for(&r.name));
    }

    let key = key_on_primary(&router, 0);
    let first = router.submit(steady_frame(&key, 5.0), &cancel).unwrap();
    replicator.pump_once();
    assert!(replicator.stats().sent >= 2, "replicas reached the peers");

    // The origin dies; the same keyed request fails over and is served
    // from the replica — bit-identical, with no second evaluation.
    rigs[0].crash();
    let replayed = router.submit(steady_frame(&key, 5.0), &cancel).unwrap();
    assert_eq!(first, replayed);
    let fp = request_fingerprint(&Request::Steady {
        current: Amperes(5.0),
    });
    assert_eq!(
        counts.lock().unwrap()[&fp],
        1,
        "the replica answered; nothing re-evaluated"
    );
    for r in &rigs {
        r.shutdown();
    }
}

#[test]
fn a_poisoned_replica_is_refused_and_reevaluated_not_served() {
    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::ZERO))
        .collect();
    let router = fleet_router(&rigs, quick_config());
    let cancel = CancelToken::new();
    let key = key_on_primary(&router, 0);

    // Poison shard a's cache: an entry under the right key whose
    // fingerprint belongs to a *different* request (a corrupted or
    // malicious replica that slipped past transport checks).
    let wrong = Request::Steady {
        current: Amperes(99.0),
    };
    let engine = rigs[0].engine.lock().unwrap().as_ref().unwrap().clone();
    engine.insert_replicated(
        request_fingerprint(&wrong),
        &key,
        Response::Steady {
            peak: Celsius(-273.0),
            tec_power: Watts(-1.0),
        },
    );

    let r = router.submit(steady_frame(&key, 1.5), &cancel).unwrap();
    assert_eq!(
        r,
        Response::Steady {
            peak: Celsius(15.0),
            tec_power: Watts(1.5)
        },
        "the poisoned answer never surfaced"
    );
    assert_eq!(engine.metrics().replicated_rejects, 1);
    let fp = request_fingerprint(&Request::Steady {
        current: Amperes(1.5),
    });
    assert_eq!(
        counts.lock().unwrap()[&fp],
        1,
        "refusal forced a re-evaluation"
    );
    for r in &rigs {
        r.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Checkpointed sweep handoff
// ---------------------------------------------------------------------------

fn small_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
        powers,
    )
    .unwrap()
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tecopt-fleet-chaos-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_keyed_sweep_killed_mid_flight_resumes_bit_identically_on_its_successor() {
    let system = small_system();
    let candidates: Vec<Vec<TileIndex>> = (0..4)
        .map(|r| vec![TileIndex::new(r, 1), TileIndex::new(r, 2)])
        .collect();
    let reference = score_candidates(
        &system,
        &candidates,
        CurrentSettings::default(),
        &RunContext::unbounded(),
    )
    .unwrap();

    // Two shards over ONE checkpoint directory (shared storage hand-off).
    let ckpt = scratch_dir("sweep-handoff");
    let build_engine = |delay: Duration| {
        Arc::new(Engine::new(
            SlowEvaluator::new(
                tecopt_serve::TecEvaluator::new(system.clone(), CurrentSettings::default()),
                delay,
            ),
            EngineConfig {
                checkpoint_dir: Some(ckpt.clone()),
                ..EngineConfig::default()
            },
        ))
    };
    // The doomed primary is slow (so the kill lands mid-sweep); the
    // successor runs at full speed.
    let doomed = build_engine(Duration::from_millis(150));
    let successor = build_engine(Duration::ZERO);
    let mut workers = Vec::new();
    for engine in [&doomed, &successor] {
        let e = Arc::clone(engine);
        workers.push(std::thread::spawn(move || e.worker_loop(0)));
    }
    let kill_a = Arc::new(ShardKill::wrap(Arc::new(LocalShard::new(
        "doomed",
        Arc::clone(&doomed),
    ))));
    let shard_b: Arc<dyn ShardHandle> =
        Arc::new(LocalShard::new("successor", Arc::clone(&successor)));
    let router = Arc::new(Router::new(
        vec![Arc::clone(&kill_a) as Arc<dyn ShardHandle>, shard_b],
        quick_config(),
    ));
    let key = {
        // Whatever key routes to the doomed shard first.
        (0..4096)
            .map(|i| format!("sweep-{i}"))
            .find(|k| router.shards()[router.replica_order(k)[0]].id() == "doomed")
            .expect("some key lands on the doomed shard")
    };

    let frame = RequestFrame {
        key: Some(key.clone()),
        deadline_ms: None,
        request: Request::Designer {
            candidates: candidates.clone(),
        },
    };
    let submit_router = Arc::clone(&router);
    let submit_frame = frame.clone();
    let call = std::thread::spawn(move || submit_router.submit(submit_frame, &CancelToken::new()));
    // Let the sweep start on the doomed shard, then kill it mid-flight:
    // refuse new work, cancel the running sweep (it checkpoints its
    // completed probes), and let the router fail over under the SAME key.
    std::thread::sleep(Duration::from_millis(200));
    kill_a.kill();
    doomed.begin_drain();
    doomed.cancel_outstanding();

    let resumed = call.join().unwrap().expect("failover completes the sweep");
    match resumed {
        Response::Designer { scores } => {
            assert_eq!(scores.len(), reference.len());
            for (got, want) in scores.iter().zip(&reference) {
                assert_eq!(got.device_count, want.device_count);
                assert_eq!(
                    got.current.value().to_bits(),
                    want.current.value().to_bits()
                );
                assert_eq!(got.peak.value().to_bits(), want.peak.value().to_bits());
                assert_eq!(
                    got.tec_power.value().to_bits(),
                    want.tec_power.value().to_bits()
                );
            }
        }
        other => panic!("expected designer scores, got {other:?}"),
    }

    successor.begin_drain();
    successor.cancel_outstanding();
    for w in workers {
        w.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Wire surface: ping frames and extension-tag forward compatibility
// ---------------------------------------------------------------------------

/// Reads one `\n`-terminated line from a raw socket.
fn read_line(s: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => buf.push(byte[0]),
            Err(e) => panic!("read_line failed: {e}"),
        }
    }
    String::from_utf8(buf).unwrap()
}

struct ServerHarness {
    addr: String,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<tecopt_serve::ServerReport>,
}

impl ServerHarness {
    fn start<E: Evaluator + 'static>(eval: E) -> ServerHarness {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let engine = Arc::new(Engine::new(eval, EngineConfig::default()));
        let server = Arc::new(Server::new(
            listener,
            engine,
            ServerConfig {
                // One handler serves one connection at a time; a
                // RemoteShard alone holds up to three (submit/ping/repl).
                handlers: 4,
                eval_workers: 2,
                poll_interval: Duration::from_millis(5),
                drain_timeout: Duration::from_secs(10),
            },
        ));
        let shutdown = server.shutdown_token();
        let handle = std::thread::spawn(move || server.run());
        ServerHarness {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) -> tecopt_serve::ServerReport {
        self.shutdown.cancel();
        self.handle.join().expect("server thread never panics")
    }
}

#[test]
fn the_server_answers_ping_frames_before_admission() {
    let h = ServerHarness::start(EchoEval);
    let mut s = TcpStream::connect(&h.addr).unwrap();
    s.write_all(b"ping 00000000000000ab\n").unwrap();
    assert_eq!(read_line(&mut s), "pong 00000000000000ab");
    drop(s);
    let report = h.stop();
    assert_eq!(report.engine.submitted, 0, "pings never enter admission");
}

#[test]
fn unknown_extension_tags_are_ignored_and_the_connection_survives() {
    let h = ServerHarness::start(EchoEval);
    let mut s = TcpStream::connect(&h.addr).unwrap();
    // A newer peer's extension frame: no reply, no disconnect…
    s.write_all(b"#future-tag with fields an old server never saw\n")
        .unwrap();
    // …and a torn/malformed KNOWN extension frame: counted, not fatal.
    s.write_all(b"#repl deadbeef\n").unwrap();
    // The same connection still serves a real request afterwards.
    let frame = encode_request(&steady_frame("fc-1", 1.0));
    s.write_all(format!("{frame}\n").as_bytes()).unwrap();
    let reply = read_line(&mut s);
    assert!(reply.starts_with("ok fc-1 steady "), "got `{reply}`");
    drop(s);
    let report = h.stop();
    assert_eq!(report.decode_errors, 1, "only the malformed #repl counted");
    assert_eq!(report.engine.completed_ok, 1);
}

#[test]
fn replication_frames_file_entries_a_remote_shard_then_serves() {
    let h = ServerHarness::start(EchoEval);
    // Push a replica over the wire, exactly as a peer's Replicator would.
    let request = Request::Steady {
        current: Amperes(7.0),
    };
    let canned = Response::Steady {
        peak: Celsius(70.0),
        tec_power: Watts(7.0),
    };
    let shard = RemoteShard::new("srv", h.addr.clone()).with_io_slice(Duration::from_millis(5));
    shard
        .replicate(&ReplEntry {
            request_fp: request_fingerprint(&request),
            key: "repl-key".into(),
            response: canned.clone(),
        })
        .unwrap();
    // A ping round-trips through the same server.
    shard.ping(Duration::from_secs(2)).unwrap();
    // The matching keyed request is answered from the replica.
    let got = shard
        .submit(&steady_frame("repl-key", 7.0), &CancelToken::new())
        .unwrap();
    assert_eq!(got, canned);
    let report = h.stop();
    assert_eq!(report.engine.replicated_hits, 1);
    assert_eq!(report.engine.completed_ok, 0, "nothing was evaluated");
}

#[test]
fn torn_replication_frames_over_tcp_never_poison_the_receiver() {
    let h = ServerHarness::start(EchoEval);
    let request = Request::Steady {
        current: Amperes(2.5),
    };
    let frame = encode_repl(&ReplFrame {
        request_fp: request_fingerprint(&request),
        key: "torn".into(),
        response: Response::Steady {
            peak: Celsius(25.0),
            tec_power: Watts(2.5),
        },
    });
    // Corrupt the tail (body no longer matches its digest) and send it.
    let mut corrupted = frame.clone();
    corrupted.truncate(frame.len() - 3);
    corrupted.push_str("fff");
    let mut s = TcpStream::connect(&h.addr).unwrap();
    s.write_all(format!("{corrupted}\n").as_bytes()).unwrap();
    // The matching request must be EVALUATED (the corrupt replica was
    // refused), not served from a poisoned cache.
    let req_frame = encode_request(&steady_frame("torn", 2.5));
    s.write_all(format!("{req_frame}\n").as_bytes()).unwrap();
    let reply = read_line(&mut s);
    assert!(reply.starts_with("ok torn steady "), "got `{reply}`");
    drop(s);
    let report = h.stop();
    assert_eq!(report.engine.completed_ok, 1, "the request was evaluated");
    assert_eq!(report.engine.replicated_hits, 0);
    assert_eq!(report.decode_errors, 1);
}

// ---------------------------------------------------------------------------
// Soak: kill and restart every shard mid-sweep under load
// ---------------------------------------------------------------------------

#[test]
#[ignore = "multi-second soak; run via scripts/check.sh fleet chaos pass"]
fn soak_kill_and_restart_every_shard_under_load() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 24;

    let counts: EvalCounts = Arc::default();
    let rigs: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| ShardRig::start(n, &counts, Duration::from_millis(3)))
        .collect();
    // Hedging OFF: the zero-duplicate ledger below is exact.
    let router = Arc::new(fleet_router(
        &rigs,
        RouterConfig {
            max_attempts: 6,
            ..quick_config()
        },
    ));

    // Background health loop, as a deployment would run it.
    let health_router = Arc::clone(&router);
    let health_stop = CancelToken::new();
    let health_token = health_stop.clone();
    let health = std::thread::spawn(move || health_router.run_health_loop(&health_token));

    let ok = Arc::new(AtomicUsize::new(0));
    let typed_err = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|who| {
            let router = Arc::clone(&router);
            let ok = Arc::clone(&ok);
            let typed_err = Arc::clone(&typed_err);
            std::thread::spawn(move || {
                let cancel = CancelToken::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let key = format!("soak-{who}-{i}");
                    // Distinct current per key: distinct fingerprints, so
                    // the duplicate ledger is per-request.
                    let current = 0.5 + (who * REQUESTS_PER_CLIENT + i) as f64 * 0.001;
                    match router.submit(steady_frame(&key, current), &cancel) {
                        Ok(r) => {
                            assert_eq!(
                                r,
                                Response::Steady {
                                    peak: Celsius(current * 10.0),
                                    tec_power: Watts(current)
                                },
                                "a wrong answer is worse than any failure"
                            );
                            ok.fetch_add(1, Ordering::SeqCst);
                        }
                        // Every failure must be typed; the router's own
                        // taxonomy guarantees it, the ledger records it.
                        Err(
                            ServeError::FailoverExhausted { .. }
                            | ServeError::Overloaded { .. }
                            | ServeError::Disconnected { .. }
                            | ServeError::ShuttingDown
                            | ServeError::Eval(_),
                        ) => {
                            typed_err.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("unexpected error class: {other:?}"),
                    }
                }
            })
        })
        .collect();

    // The killer: every shard dies and comes back, one at a time, then
    // two at once — all while the clients are submitting.
    let t0 = Instant::now();
    for rig in &rigs {
        std::thread::sleep(Duration::from_millis(60));
        rig.crash();
        std::thread::sleep(Duration::from_millis(60));
        rig.boot();
    }
    std::thread::sleep(Duration::from_millis(40));
    rigs[0].crash();
    rigs[1].crash();
    std::thread::sleep(Duration::from_millis(80));
    rigs[0].boot();
    rigs[1].boot();

    for c in clients {
        c.join().expect("no client thread may panic");
    }
    health_stop.cancel();
    health.join().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(120), "soak wedged");

    // Every request resolved, and resolved typed.
    assert_eq!(
        ok.load(Ordering::SeqCst) + typed_err.load(Ordering::SeqCst),
        CLIENTS * REQUESTS_PER_CLIENT
    );
    assert!(
        ok.load(Ordering::SeqCst) > CLIENTS * REQUESTS_PER_CLIENT / 2,
        "a 1-of-3 / 2-of-3 outage must not fail most requests: {} ok",
        ok.load(Ordering::SeqCst)
    );

    // ZERO duplicate successful evaluations, fleet-wide, across every
    // engine generation: at-most-once per fingerprint.
    for (fp, n) in counts.lock().unwrap().iter() {
        assert!(*n <= 1, "fingerprint {fp:016x} evaluated {n} times");
    }

    // The engine accounting identity holds for every generation of every
    // shard: nothing was lost across kills and restarts.
    for rig in &rigs {
        for m in rig.all_metrics() {
            assert_eq!(
                m.submitted,
                m.completed_ok
                    + m.completed_err
                    + m.shed_overload
                    + m.shed_shutdown
                    + m.deduplicated,
                "metrics identity broken on {}: {m:?}",
                rig.name
            );
        }
    }
    for r in &rigs {
        r.shutdown();
    }
}
