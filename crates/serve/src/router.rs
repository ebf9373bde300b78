//! The fleet tier: a health-checked, failing-over router across engine
//! shards (DESIGN.md §17).
//!
//! A [`Router`] owns an ordered fleet of [`ShardHandle`]s — in-process
//! engines ([`LocalShard`]) and remote servers ([`RemoteShard`]) behind
//! one trait — and places every request by **consistent hashing** of its
//! idempotency key over a ring of virtual nodes. The ring gives each key
//! a stable *replica order*: the primary shard plus the fallbacks, the
//! same order on every router instance, so retries and failovers land
//! where the result (or its replica) already lives.
//!
//! Failure handling is layered:
//!
//! - a **health loop** pings every shard and runs each through the
//!   hysteretic `Healthy → Suspect → Down` machine of
//!   [`crate::health::HealthMonitor`]; routing prefers healthier
//!   replicas but never strikes a shard from the ring — a `Down` shard
//!   is still the last resort, because the alternative is refusing work;
//! - **failover**: a retryable failure (shed, disconnect, shutdown
//!   refusal) moves to the next replica after one capped, jittered
//!   backoff step (`util::backoff_duration`); a non-retryable
//!   error returns immediately; exhausting every attempt returns
//!   [`ServeError::FailoverExhausted`];
//! - **hedging** (opt-in): when the primary outlives a p99-derived
//!   delay, the same keyed request is also sent to the first fallback
//!   and the first success wins. The idempotency key makes the hedge
//!   safe — each shard evaluates a key at most once — though the two
//!   shards may each do the work once, which is the deliberate price of
//!   tail-latency cover.
//!
//! Every request is stamped with an idempotency key before the first
//! attempt (auto-generated when the caller supplied none), so any
//! combination of retries, failovers, and hedges is at-most-once **per
//! shard** and deduplicates against the replicated cache fleet-wide.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::client::{no_delay, read_line};
use crate::engine::{Engine, Evaluator};
use crate::error::ServeError;
use crate::health::{HealthMonitor, HealthPolicy, HealthState};
use crate::replicate::ReplEntry;
use crate::util::{backoff_duration, pause};
use crate::wire::{
    decode_response, encode_ping, encode_repl, encode_request, ReplFrame, RequestFrame, Response,
};
use tecopt::record::fingerprint;
use tecopt::CancelToken;

/// One shard of the fleet: something that can evaluate a request, answer
/// a liveness ping, and accept a replicated cache entry. In-process
/// engines and remote servers implement the same trait, so the router
/// never knows the difference.
pub trait ShardHandle: Send + Sync {
    /// Stable identifier; hashed onto the ring, used in logs and to keep
    /// replication from echoing back to its origin.
    fn id(&self) -> &str;

    /// Evaluates `frame` to completion, watching `cancel` while waiting.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; transport-level failures surface as
    /// [`ServeError::Disconnected`] so the router can fail over.
    fn submit(&self, frame: &RequestFrame, cancel: &CancelToken) -> Result<Response, ServeError>;

    /// Checks liveness, bounded by `timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] for an unreachable or unresponsive
    /// shard, [`ServeError::ShuttingDown`] for a draining one.
    fn ping(&self, timeout: Duration) -> Result<(), ServeError>;

    /// Offers one replicated cache entry, best-effort.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] when the entry could not be
    /// delivered; the caller drops it (loss is safe by fingerprinting).
    fn replicate(&self, entry: &ReplEntry) -> Result<(), ServeError>;
}

// ---------------------------------------------------------------------
// LocalShard: an in-process engine behind the shard trait.
// ---------------------------------------------------------------------

/// An in-process [`Engine`] exposed as a fleet shard.
pub struct LocalShard<E: Evaluator> {
    id: String,
    engine: Arc<Engine<E>>,
    poll_interval: Duration,
}

impl<E: Evaluator> LocalShard<E> {
    /// Wraps `engine` as the shard named `id`.
    pub fn new(id: impl Into<String>, engine: Arc<Engine<E>>) -> LocalShard<E> {
        LocalShard {
            id: id.into(),
            engine,
            poll_interval: Duration::from_millis(2),
        }
    }

    /// How often a blocked `submit` polls its cancel token.
    #[must_use]
    pub fn with_poll_interval(mut self, poll_interval: Duration) -> LocalShard<E> {
        self.poll_interval = poll_interval.max(Duration::from_micros(100));
        self
    }

    /// The wrapped engine (fleet assembly wires its replication sink).
    pub fn engine(&self) -> &Arc<Engine<E>> {
        &self.engine
    }
}

impl<E: Evaluator> ShardHandle for LocalShard<E> {
    fn id(&self) -> &str {
        &self.id
    }

    fn submit(&self, frame: &RequestFrame, cancel: &CancelToken) -> Result<Response, ServeError> {
        let ticket = self.engine.submit(frame.clone())?;
        let result = ticket.wait_polling(self.poll_interval, || {
            if cancel.is_cancelled() {
                Err(ServeError::Eval(tecopt::OptError::Cancelled {
                    completed: 0,
                }))
            } else {
                Ok(())
            }
        });
        if result.is_err() && cancel.is_cancelled() {
            // The *caller* walked away (hedge lost, or upstream cancel):
            // release our interest so the engine can cancel the run if
            // nobody else is joined on it.
            self.engine.abandon(&ticket, frame.key.as_deref());
        }
        result
    }

    fn ping(&self, _timeout: Duration) -> Result<(), ServeError> {
        if self.engine.draining() {
            Err(ServeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    fn replicate(&self, entry: &ReplEntry) -> Result<(), ServeError> {
        self.engine
            .insert_replicated(entry.request_fp, &entry.key, entry.response.clone());
        Ok(())
    }
}

// ---------------------------------------------------------------------
// RemoteShard: a server across a socket behind the shard trait.
// ---------------------------------------------------------------------

/// Where a remote shard listens.
#[derive(Debug, Clone)]
pub enum RemoteAddr {
    /// A TCP endpoint, e.g. `"127.0.0.1:7878"`.
    Tcp(String),
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A remote server behind the shard trait, speaking the line protocol.
///
/// Three independent connections — requests, pings, replication — so a
/// slow evaluation never starves the health check and a replication
/// burst never delays a request. Each connection lives in a
/// `Mutex<Option<Conn>>` slot and is **taken out** of the mutex for the
/// duration of any I/O: the lock only guards the handoff, never a
/// blocking read (the workspace flow lint enforces exactly this).
pub struct RemoteShard {
    id: String,
    addr: RemoteAddr,
    /// One read-timeout slice; cancellation and deadlines are checked
    /// between slices.
    io_slice: Duration,
    /// How long to wait for a response with no explicit deadline.
    response_timeout: Duration,
    conn: Mutex<Option<Conn>>,
    ping_conn: Mutex<Option<Conn>>,
    repl_conn: Mutex<Option<Conn>>,
    nonce: AtomicU64,
}

impl RemoteShard {
    /// A shard named `id` at `addr`.
    pub fn new(id: impl Into<String>, addr: RemoteAddr) -> RemoteShard {
        let id = id.into();
        RemoteShard {
            nonce: AtomicU64::new(fingerprint(&id) | 1),
            id,
            addr,
            io_slice: Duration::from_millis(20),
            response_timeout: Duration::from_secs(30),
            conn: Mutex::new(None),
            ping_conn: Mutex::new(None),
            repl_conn: Mutex::new(None),
        }
    }

    /// Replaces the no-deadline response wait.
    #[must_use]
    pub fn with_response_timeout(mut self, t: Duration) -> RemoteShard {
        self.response_timeout = t.max(Duration::from_millis(1));
        self
    }

    /// Replaces the per-read timeout slice (cancel-check granularity).
    #[must_use]
    pub fn with_io_slice(mut self, t: Duration) -> RemoteShard {
        self.io_slice = t.max(Duration::from_millis(1));
        self
    }

    fn connect(&self) -> Result<Conn, ServeError> {
        let refused = |e: io::Error| ServeError::Disconnected {
            detail: format!("connect to {}: {e}", self.id),
        };
        let RemoteAddr::Tcp(addr) = &self.addr;
        let stream = no_delay(TcpStream::connect(addr).map_err(refused)?);
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Takes the slot's connection out of its mutex (connecting afresh if
    /// empty) so all I/O runs with no lock held.
    fn checkout(&self, slot: &Mutex<Option<Conn>>) -> Result<Conn, ServeError> {
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let existing = guard.take();
        drop(guard);
        match existing {
            Some(conn) => Ok(conn),
            None => self.connect(),
        }
    }

    fn check_in(&self, slot: &Mutex<Option<Conn>>, conn: Conn) {
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(conn);
    }

    /// Reads one line, waking every `io_slice` to watch `cancel` and the
    /// overall `deadline`. On cancel/timeout the connection is dropped
    /// (a late reply would desynchronize the stream).
    fn read_line_by(
        &self,
        conn: &mut Conn,
        deadline: Instant,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<u8>, ServeError> {
        conn.stream
            .set_read_timeout(Some(self.io_slice))
            .map_err(|e| ServeError::Disconnected {
                detail: format!("set read timeout on {}: {e}", self.id),
            })?;
        loop {
            match read_line(&mut conn.stream, &mut conn.buf) {
                Ok(line) => return Ok(line),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        return Err(ServeError::Eval(tecopt::OptError::Cancelled {
                            completed: 0,
                        }));
                    }
                    if Instant::now() >= deadline {
                        return Err(ServeError::Disconnected {
                            detail: format!("timed out waiting for {}", self.id),
                        });
                    }
                }
                Err(e) => {
                    return Err(ServeError::Disconnected {
                        detail: format!("read from {}: {e}", self.id),
                    })
                }
            }
        }
    }
}

impl ShardHandle for RemoteShard {
    fn id(&self) -> &str {
        &self.id
    }

    fn submit(&self, frame: &RequestFrame, cancel: &CancelToken) -> Result<Response, ServeError> {
        let mut line = encode_request(frame);
        line.push('\n');
        // The server may legitimately take the whole request deadline;
        // grant it that plus slack, like the plain client does.
        let wait = frame
            .deadline_ms
            .map(|ms| Duration::from_millis(ms) + Duration::from_secs(5))
            .map_or(self.response_timeout, |d| d.max(self.response_timeout));
        let mut conn = self.checkout(&self.conn)?;
        let sent = conn.stream.write_all(line.as_bytes());
        if let Err(e) = sent {
            return Err(ServeError::Disconnected {
                detail: format!("write to {}: {e}", self.id),
            });
        }
        let deadline = Instant::now() + wait;
        let reply = self.read_line_by(&mut conn, deadline, Some(cancel))?;
        let text = std::str::from_utf8(&reply)
            .map_err(|_| ServeError::DecodeError("reply is not valid UTF-8".into()))?;
        let decoded = decode_response(text).map_err(|e| ServeError::DecodeError(e.to_string()))?;
        // A parsed reply — even a typed error — leaves the stream aligned.
        self.check_in(&self.conn, conn);
        match decoded.result {
            Ok(response) => Ok(response),
            Err((code, message)) => Err(ServeError::from_wire_code(&code, &message)),
        }
    }

    fn ping(&self, timeout: Duration) -> Result<(), ServeError> {
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let mut conn = self.checkout(&self.ping_conn)?;
        let line = format!("{}\n", encode_ping(nonce));
        if let Err(e) = conn.stream.write_all(line.as_bytes()) {
            return Err(ServeError::Disconnected {
                detail: format!("ping write to {}: {e}", self.id),
            });
        }
        let deadline = Instant::now() + timeout;
        loop {
            let reply = self.read_line_by(&mut conn, deadline, None)?;
            let text = std::str::from_utf8(&reply).unwrap_or("");
            match crate::wire::decode_pong(text) {
                Some(n) if n == nonce => {
                    self.check_in(&self.ping_conn, conn);
                    return Ok(());
                }
                // A stale pong from an earlier timed-out ping: keep
                // reading until ours (or the deadline) arrives.
                Some(_) => {}
                None => {
                    return Err(ServeError::Disconnected {
                        detail: format!("unexpected ping reply from {}", self.id),
                    })
                }
            }
        }
    }

    fn replicate(&self, entry: &ReplEntry) -> Result<(), ServeError> {
        let frame = ReplFrame {
            request_fp: entry.request_fp,
            key: entry.key.clone(),
            response: entry.response.clone(),
        };
        let mut line = encode_repl(&frame);
        line.push('\n');
        let mut conn = self.checkout(&self.repl_conn)?;
        match conn.stream.write_all(line.as_bytes()) {
            Ok(()) => {
                self.check_in(&self.repl_conn, conn);
                Ok(())
            }
            Err(e) => Err(ServeError::Disconnected {
                detail: format!("replicate to {}: {e}", self.id),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// The router.
// ---------------------------------------------------------------------

/// When to hedge a slow request onto the next replica.
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Never hedge sooner than this.
    pub floor: Duration,
    /// Hedge after `p99 × factor` once enough latencies are observed.
    pub p99_factor: f64,
    /// Observations required before the p99 estimate is trusted; below
    /// this the floor alone decides.
    pub min_observations: usize,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            floor: Duration::from_millis(10),
            p99_factor: 1.5,
            min_observations: 32,
        }
    }
}

/// Routing, retry, and health tunables of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the hash ring.
    pub virtual_nodes: usize,
    /// Most routed attempts per request (primary + failovers).
    pub max_attempts: usize,
    /// Backoff before the first failover; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Health-loop cadence and state-machine thresholds.
    pub health: HealthPolicy,
    /// Hedge slow requests onto the next replica; `None` disables.
    pub hedge: Option<HedgePolicy>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            virtual_nodes: 32,
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            health: HealthPolicy::default(),
            hedge: None,
        }
    }
}

/// Counters the router maintains; snapshot with [`Router::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterMetricsSnapshot {
    /// Requests routed (each counted once, however many attempts).
    pub routed: u64,
    /// Failover attempts beyond each request's first.
    pub failovers: u64,
    /// Hedge requests actually launched.
    pub hedges_launched: u64,
    /// Hedges whose result was the one returned.
    pub hedges_won: u64,
}

#[derive(Default)]
struct RouterMetrics {
    routed: AtomicU64,
    failovers: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

/// Sliding window of request latencies for the hedge-delay estimate.
struct LatencyWindow {
    samples: Mutex<Vec<u64>>, // microseconds, ring-buffered
    next: AtomicU64,
    capacity: usize,
}

impl LatencyWindow {
    fn new(capacity: usize) -> LatencyWindow {
        LatencyWindow {
            samples: Mutex::new(Vec::new()),
            next: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let mut samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        if samples.len() < self.capacity {
            samples.push(micros);
        } else {
            let slot = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.capacity;
            samples[slot] = micros;
        }
    }

    fn count(&self) -> usize {
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Nearest-rank p99 over the window, `None` while empty.
    fn p99(&self) -> Option<Duration> {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        drop(samples);
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        Some(Duration::from_micros(sorted[rank - 1]))
    }
}

/// Auto-stamped idempotency keys must be unique process-wide (same
/// argument as the client's `NEXT_AUTO_KEY`).
static NEXT_ROUTE_KEY: AtomicU64 = AtomicU64::new(0);

/// A ring position for `s`: the FNV fingerprint pushed through a
/// murmur-style finalizer. FNV-1a alone avalanches poorly on short
/// strings — similar ids and keys cluster in the high bits, which once
/// collapsed a 3-shard ring onto a single primary — so the placement
/// hash mixes before it places.
fn ring_point(s: &str) -> u64 {
    let mut z = fingerprint(s);
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    z
}

/// The fleet router: consistent-hash placement, health-aware replica
/// ordering, failover with capped jittered backoff, optional hedging.
pub struct Router {
    shards: Vec<Arc<dyn ShardHandle>>,
    /// `(point, shard index)` sorted by point.
    ring: Vec<(u64, usize)>,
    health: HealthMonitor,
    config: RouterConfig,
    latency: LatencyWindow,
    metrics: RouterMetrics,
    jitter: Mutex<u64>,
}

impl Router {
    /// A router over `shards` (the fleet may be empty; routing then
    /// fails with [`ServeError::NoShards`]).
    pub fn new(shards: Vec<Arc<dyn ShardHandle>>, config: RouterConfig) -> Router {
        let vnodes = config.virtual_nodes.max(1);
        let mut ring: Vec<(u64, usize)> = Vec::with_capacity(shards.len() * vnodes);
        for (index, shard) in shards.iter().enumerate() {
            for v in 0..vnodes {
                ring.push((ring_point(&format!("{}#{v}", shard.id())), index));
            }
        }
        ring.sort_unstable();
        Router {
            health: HealthMonitor::new(shards.len(), config.health),
            shards,
            ring,
            config,
            latency: LatencyWindow::new(256),
            metrics: RouterMetrics::default(),
            jitter: Mutex::new(
                u64::from(std::process::id())
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(0xb5),
            ),
        }
    }

    /// The fleet, in ring index order.
    pub fn shards(&self) -> &[Arc<dyn ShardHandle>] {
        &self.shards
    }

    /// The shared health monitor (request outcomes and the ping loop
    /// both feed it).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> RouterMetricsSnapshot {
        RouterMetricsSnapshot {
            routed: self.metrics.routed.load(Ordering::Relaxed),
            failovers: self.metrics.failovers.load(Ordering::Relaxed),
            hedges_launched: self.metrics.hedges_launched.load(Ordering::Relaxed),
            hedges_won: self.metrics.hedges_won.load(Ordering::Relaxed),
        }
    }

    /// The replica order for `key`: every shard exactly once, ring walk
    /// from the key's point, stably re-ranked `Healthy → Suspect → Down`.
    /// `Down` shards stay routable as the last resort.
    pub fn replica_order(&self, key: &str) -> Vec<usize> {
        let n = self.shards.len();
        if n == 0 {
            return Vec::new();
        }
        let start = ring_point(key);
        let pos = self.ring.partition_point(|&(p, _)| p < start);
        let mut seen = vec![false; n];
        let mut walk = Vec::with_capacity(n);
        for k in 0..self.ring.len() {
            let (_, index) = self.ring[(pos + k) % self.ring.len()];
            if !seen[index] {
                seen[index] = true;
                walk.push(index);
                if walk.len() == n {
                    break;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        for rank in [
            HealthState::Healthy,
            HealthState::Suspect,
            HealthState::Down,
        ] {
            order.extend(
                walk.iter()
                    .copied()
                    .filter(|&i| self.health.state(i) == rank),
            );
        }
        order
    }

    /// Pings every shard once and feeds the outcomes to the health
    /// machine. Exposed so tests (and the health loop) can drive rounds
    /// deterministically.
    pub fn ping_all_once(&self) {
        for (index, shard) in self.shards.iter().enumerate() {
            match shard.ping(self.config.health.ping_timeout) {
                Ok(()) => self.health.record_success(index),
                Err(_) => self.health.record_failure(index),
            }
        }
    }

    /// The health loop: ping rounds every `health.ping_interval` until
    /// `shutdown` is raised. Run it on a dedicated service worker.
    pub fn run_health_loop(&self, shutdown: &CancelToken) {
        while !shutdown.is_cancelled() {
            self.ping_all_once();
            pause(self.config.health.ping_interval);
        }
    }

    /// Routes `frame` across the fleet: consistent-hash placement,
    /// failover on retryable errors, optional hedging on the first
    /// attempt. An unkeyed frame is stamped with a process-unique key
    /// first — failover is only safe under an idempotency key.
    ///
    /// # Errors
    ///
    /// - [`ServeError::NoShards`] on an empty fleet.
    /// - The first non-retryable error, as-is.
    /// - [`ServeError::FailoverExhausted`] once every attempt failed
    ///   with a retryable error.
    pub fn submit(
        &self,
        mut frame: RequestFrame,
        cancel: &CancelToken,
    ) -> Result<Response, ServeError> {
        if self.shards.is_empty() {
            return Err(ServeError::NoShards);
        }
        if frame.key.is_none() {
            let n = NEXT_ROUTE_KEY.fetch_add(1, Ordering::Relaxed);
            frame.key = Some(format!("r{}-{n}", std::process::id()));
        }
        self.metrics.routed.fetch_add(1, Ordering::Relaxed);
        let key = frame.key.clone().unwrap_or_default();
        let order = self.replica_order(&key);
        let attempts = self.config.max_attempts.max(1);
        let mut last: Option<ServeError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                let step = {
                    let mut jitter = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                    backoff_duration(
                        self.config.base_backoff,
                        self.config.max_backoff,
                        attempt,
                        &mut jitter,
                    )
                };
                pause(step);
            }
            if cancel.is_cancelled() {
                return Err(ServeError::Eval(tecopt::OptError::Cancelled {
                    completed: 0,
                }));
            }
            let index = order[attempt % order.len()];
            let started = Instant::now();
            let outcome = if attempt == 0 {
                self.first_attempt(&frame, &order, cancel)
            } else {
                self.shards[index].submit(&frame, cancel)
            };
            match outcome {
                Ok(response) => {
                    self.latency.record(started.elapsed());
                    self.health.record_success(index);
                    return Ok(response);
                }
                Err(e) => {
                    if matches!(e, ServeError::Disconnected { .. }) {
                        self.health.record_failure(index);
                    }
                    // ShuttingDown is terminal for *one* shard but the
                    // fleet can still answer: treat it as fleet-retryable.
                    let fleet_retryable = e.is_retryable() || matches!(e, ServeError::ShuttingDown);
                    if !fleet_retryable {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(ServeError::FailoverExhausted {
            attempts,
            last: Box::new(last.unwrap_or(ServeError::NoShards)),
        })
    }

    /// The first routed attempt: hedged onto the next replica when the
    /// policy says so and a fallback exists, plain otherwise.
    fn first_attempt(
        &self,
        frame: &RequestFrame,
        order: &[usize],
        cancel: &CancelToken,
    ) -> Result<Response, ServeError> {
        let Some(policy) = self.config.hedge else {
            return self.shards[order[0]].submit(frame, cancel);
        };
        if order.len() < 2 {
            return self.shards[order[0]].submit(frame, cancel);
        }
        let delay = if self.latency.count() >= policy.min_observations.max(1) {
            self.latency
                .p99()
                .map_or(policy.floor, |p| p.mul_f64(policy.p99_factor.max(0.0)))
                .max(policy.floor)
        } else {
            policy.floor
        };
        let primary = Arc::clone(&self.shards[order[0]]);
        let fallback = Arc::clone(&self.shards[order[1]]);
        // Child tokens: the winner cancels the loser. The caller's token
        // is watched during the hedge delay and forwarded by raising
        // both children; after launch, cancellation lands at the next
        // poll of whichever branch is still running.
        let primary_token = CancelToken::new();
        let hedge_token = CancelToken::new();
        let primary_done = AtomicBool::new(false);
        let slice = Duration::from_millis(1);
        let (primary_result, hedge_result) = tecopt::parallel::join(
            || {
                let r = primary.submit(frame, &primary_token);
                primary_done.store(true, Ordering::Release);
                hedge_token.cancel();
                r
            },
            || {
                let start = Instant::now();
                while start.elapsed() < delay {
                    if primary_done.load(Ordering::Acquire) || hedge_token.is_cancelled() {
                        return None;
                    }
                    if cancel.is_cancelled() {
                        primary_token.cancel();
                        hedge_token.cancel();
                        return None;
                    }
                    pause(slice);
                }
                if primary_done.load(Ordering::Acquire) || hedge_token.is_cancelled() {
                    return None;
                }
                self.metrics.hedges_launched.fetch_add(1, Ordering::Relaxed);
                let r = fallback.submit(frame, &hedge_token);
                if r.is_ok() {
                    // The hedge won: unblock the (slower) primary.
                    primary_token.cancel();
                }
                Some(r)
            },
        );
        match (primary_result, hedge_result) {
            // Determinism + the shared idempotency key make the two Ok
            // responses identical, so ties go to the primary.
            (Ok(response), _) => Ok(response),
            (Err(_), Some(Ok(response))) => {
                self.metrics.hedges_won.fetch_add(1, Ordering::Relaxed);
                Ok(response)
            }
            // The primary's error is the representative one: the hedge
            // either never launched, was cancelled, or failed after it.
            (Err(e), _) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use tecopt_units::{Amperes, Celsius, Watts};

    /// A scriptable shard: answers, fails, or answers slowly.
    struct ScriptShard {
        name: String,
        calls: AtomicUsize,
        fail_with: Mutex<Option<ServeError>>,
        delay: Duration,
    }

    impl ScriptShard {
        fn named(name: &str) -> Arc<ScriptShard> {
            Arc::new(ScriptShard {
                name: name.to_string(),
                calls: AtomicUsize::new(0),
                fail_with: Mutex::new(None),
                delay: Duration::ZERO,
            })
        }

        fn failing(name: &str, e: ServeError) -> Arc<ScriptShard> {
            let s = ScriptShard::named(name);
            *s.fail_with.lock().unwrap() = Some(e);
            s
        }

        fn slow(name: &str, delay: Duration) -> Arc<ScriptShard> {
            Arc::new(ScriptShard {
                name: name.to_string(),
                calls: AtomicUsize::new(0),
                fail_with: Mutex::new(None),
                delay,
            })
        }

        fn answer() -> Response {
            Response::Steady {
                peak: Celsius(42.0),
                tec_power: Watts(1.0),
            }
        }
    }

    impl ShardHandle for ScriptShard {
        fn id(&self) -> &str {
            &self.name
        }

        fn submit(
            &self,
            _frame: &RequestFrame,
            cancel: &CancelToken,
        ) -> Result<Response, ServeError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(e) = self.fail_with.lock().unwrap().clone() {
                return Err(e);
            }
            let start = Instant::now();
            while start.elapsed() < self.delay {
                if cancel.is_cancelled() {
                    return Err(ServeError::Eval(tecopt::OptError::Cancelled {
                        completed: 0,
                    }));
                }
                pause(Duration::from_millis(1));
            }
            Ok(ScriptShard::answer())
        }

        fn ping(&self, _timeout: Duration) -> Result<(), ServeError> {
            match self.fail_with.lock().unwrap().clone() {
                Some(e) => Err(e),
                None => Ok(()),
            }
        }

        fn replicate(&self, _entry: &ReplEntry) -> Result<(), ServeError> {
            Ok(())
        }
    }

    fn fleet(shards: &[Arc<ScriptShard>]) -> Vec<Arc<dyn ShardHandle>> {
        shards
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ShardHandle>)
            .collect()
    }

    fn steady_frame(key: &str) -> RequestFrame {
        RequestFrame {
            key: Some(key.to_string()),
            deadline_ms: None,
            request: Request::Steady {
                current: Amperes(1.0),
            },
        }
    }

    fn quick_config() -> RouterConfig {
        RouterConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn an_empty_fleet_is_a_typed_configuration_error() {
        let router = Router::new(Vec::new(), RouterConfig::default());
        let e = router
            .submit(steady_frame("k"), &CancelToken::new())
            .unwrap_err();
        assert_eq!(e, ServeError::NoShards);
    }

    #[test]
    fn placement_is_deterministic_and_spreads_keys() {
        let shards = [
            ScriptShard::named("a"),
            ScriptShard::named("b"),
            ScriptShard::named("c"),
        ];
        let router = Router::new(fleet(&shards), RouterConfig::default());
        let mut primaries = HashSet::new();
        for i in 0..64 {
            let key = format!("key-{i}");
            let order = router.replica_order(&key);
            assert_eq!(order.len(), 3, "every shard appears exactly once");
            assert_eq!(order, router.replica_order(&key), "stable per key");
            primaries.insert(order[0]);
        }
        assert_eq!(
            primaries.len(),
            3,
            "64 keys must reach every shard as primary"
        );
    }

    #[test]
    fn failover_moves_to_the_next_replica_on_retryable_errors() {
        let shards = [
            ScriptShard::failing(
                "a",
                ServeError::Disconnected {
                    detail: "scripted".into(),
                },
            ),
            ScriptShard::failing(
                "b",
                ServeError::Disconnected {
                    detail: "scripted".into(),
                },
            ),
            ScriptShard::named("c"),
        ];
        let router = Router::new(fleet(&shards), quick_config());
        let r = router.submit(steady_frame("k"), &CancelToken::new());
        assert_eq!(r.unwrap(), ScriptShard::answer());
        let m = router.metrics();
        assert_eq!(m.routed, 1);
        assert!(m.failovers >= 1, "at least one failover happened");
        // The healthy shard answered exactly once; total calls equal
        // 1 + failovers.
        assert_eq!(shards[2].calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_non_retryable_error_returns_immediately_without_failover() {
        let shards = [
            ScriptShard::failing("a", ServeError::DecodeError("scripted".into())),
            ScriptShard::named("b"),
        ];
        let router = Router::new(fleet(&shards), quick_config());
        // Pick a key whose primary is the failing shard.
        let key = (0..128)
            .map(|i| format!("k{i}"))
            .find(|k| router.replica_order(k)[0] == 0)
            .expect("some key lands on shard a");
        let e = router.submit(steady_frame(&key), &CancelToken::new());
        assert_eq!(e.unwrap_err(), ServeError::DecodeError("scripted".into()));
        assert_eq!(shards[1].calls.load(Ordering::SeqCst), 0, "no failover");
    }

    #[test]
    fn exhausting_every_replica_is_a_typed_failover_error() {
        let shed = ServeError::Overloaded {
            depth: 1,
            capacity: 1,
        };
        let shards = [
            ScriptShard::failing("a", shed.clone()),
            ScriptShard::failing("b", shed.clone()),
        ];
        let router = Router::new(fleet(&shards), quick_config());
        match router.submit(steady_frame("k"), &CancelToken::new()) {
            Err(ServeError::FailoverExhausted { attempts, last }) => {
                assert_eq!(attempts, 4);
                assert_eq!(*last, shed);
            }
            other => panic!("expected FailoverExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_draining_shard_is_skipped_but_the_fleet_still_answers() {
        let shards = [
            ScriptShard::failing("a", ServeError::ShuttingDown),
            ScriptShard::named("b"),
        ];
        let router = Router::new(fleet(&shards), quick_config());
        let key = (0..128)
            .map(|i| format!("k{i}"))
            .find(|k| router.replica_order(k)[0] == 0)
            .expect("some key lands on shard a");
        assert_eq!(
            router
                .submit(steady_frame(&key), &CancelToken::new())
                .unwrap(),
            ScriptShard::answer()
        );
    }

    #[test]
    fn health_outcomes_rerank_the_replica_order() {
        let shards = [
            ScriptShard::named("a"),
            ScriptShard::named("b"),
            ScriptShard::named("c"),
        ];
        let router = Router::new(fleet(&shards), RouterConfig::default());
        let key = (0..128)
            .map(|i| format!("k{i}"))
            .find(|k| router.replica_order(k)[0] == 0)
            .expect("some key lands on shard a");
        // Ping rounds against a now-refusing shard a push it to Down...
        *shards[0].fail_with.lock().unwrap() = Some(ServeError::Disconnected {
            detail: "scripted".into(),
        });
        for _ in 0..3 {
            router.ping_all_once();
        }
        assert_eq!(router.health().state(0), HealthState::Down);
        // ...and the replica order demotes it to last resort.
        let order = router.replica_order(&key);
        assert_eq!(order[2], 0);
        assert_eq!(order.len(), 3, "down shards stay routable");
        // Recovery is hysteretic: one good round is not enough.
        *shards[0].fail_with.lock().unwrap() = None;
        router.ping_all_once();
        assert_eq!(router.health().state(0), HealthState::Down);
        router.ping_all_once();
        assert_eq!(router.health().state(0), HealthState::Healthy);
        assert_eq!(router.replica_order(&key)[0], 0);
    }

    #[test]
    fn a_hedge_covers_a_slow_primary_and_the_fastest_wins() {
        let shards = [
            ScriptShard::slow("a", Duration::from_millis(250)),
            ScriptShard::slow("b", Duration::from_millis(250)),
        ];
        let config = RouterConfig {
            hedge: Some(HedgePolicy {
                floor: Duration::from_millis(5),
                p99_factor: 1.5,
                min_observations: usize::MAX, // force the floor path
            }),
            ..quick_config()
        };
        let router = Router::new(fleet(&shards), config);
        let key = (0..128)
            .map(|i| format!("k{i}"))
            .find(|k| router.replica_order(k)[0] == 0)
            .expect("some key lands on shard a");
        // Both replicas are equally slow: the point here is only that
        // the delay expired, the hedge launched, and one answer won.
        let order = router.replica_order(&key);
        let t0 = Instant::now();
        let r = router.submit(steady_frame(&key), &CancelToken::new());
        assert_eq!(r.unwrap(), ScriptShard::answer());
        assert!(t0.elapsed() < Duration::from_secs(5));
        let m = router.metrics();
        assert_eq!(m.hedges_launched, 1, "the slow primary triggered a hedge");
        assert_eq!(
            shards[order[0]].calls.load(Ordering::SeqCst)
                + shards[order[1]].calls.load(Ordering::SeqCst),
            2,
            "both replicas were asked"
        );
    }

    #[test]
    fn a_won_hedge_returns_while_the_primary_is_still_stuck() {
        // Primary blocks ~10 s unless cancelled; hedge answers at once.
        let slow = ScriptShard::slow("slow", Duration::from_secs(10));
        let fast = ScriptShard::named("fast");
        let config = RouterConfig {
            hedge: Some(HedgePolicy {
                floor: Duration::from_millis(2),
                p99_factor: 1.0,
                min_observations: usize::MAX,
            }),
            ..quick_config()
        };
        // Find a key whose primary is the slow shard for *this* fleet.
        let router = Router::new(
            vec![
                Arc::clone(&slow) as Arc<dyn ShardHandle>,
                Arc::clone(&fast) as Arc<dyn ShardHandle>,
            ],
            config,
        );
        let key = (0..256)
            .map(|i| format!("k{i}"))
            .find(|k| {
                let order = router.replica_order(k);
                router.shards()[order[0]].id() == "slow"
            })
            .expect("some key lands on the slow shard");
        let t0 = Instant::now();
        let r = router.submit(steady_frame(&key), &CancelToken::new());
        assert_eq!(r.unwrap(), ScriptShard::answer());
        // The hedge's win cancelled the stuck primary: the call returns
        // in hedge time, not primary time.
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "returned in {:?}, primary would take 10 s",
            t0.elapsed()
        );
        let m = router.metrics();
        assert_eq!((m.hedges_launched, m.hedges_won), (1, 1));
    }

    #[test]
    fn unkeyed_frames_are_stamped_before_the_first_attempt() {
        // Failover without a key could double-evaluate; the router must
        // stamp one. Observable via process-unique auto keys: two
        // submits of the same unkeyed request both succeed (no dedupe
        // collision) and the scripted shard saw distinct keys.
        struct KeyRecorder {
            keys: Mutex<Vec<Option<String>>>,
        }
        impl ShardHandle for KeyRecorder {
            fn id(&self) -> &str {
                "rec"
            }
            fn submit(
                &self,
                frame: &RequestFrame,
                _cancel: &CancelToken,
            ) -> Result<Response, ServeError> {
                self.keys.lock().unwrap().push(frame.key.clone());
                Ok(ScriptShard::answer())
            }
            fn ping(&self, _t: Duration) -> Result<(), ServeError> {
                Ok(())
            }
            fn replicate(&self, _e: &ReplEntry) -> Result<(), ServeError> {
                Ok(())
            }
        }
        let rec = Arc::new(KeyRecorder {
            keys: Mutex::new(Vec::new()),
        });
        let router = Router::new(
            vec![Arc::clone(&rec) as Arc<dyn ShardHandle>],
            RouterConfig::default(),
        );
        let unkeyed = RequestFrame {
            key: None,
            deadline_ms: None,
            request: Request::Steady {
                current: Amperes(1.0),
            },
        };
        router.submit(unkeyed.clone(), &CancelToken::new()).unwrap();
        router.submit(unkeyed, &CancelToken::new()).unwrap();
        let keys = rec.keys.lock().unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys[0].is_some() && keys[1].is_some());
        assert_ne!(keys[0], keys[1], "auto keys are unique per request");
    }
}
