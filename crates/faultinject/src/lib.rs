//! Fault-injection helpers for the `tecopt` test suites.
//!
//! Robustness claims are only as good as the failures actually exercised.
//! This crate deterministically manufactures the pathological inputs the
//! hardened pipeline must survive — rank-deficient and near-singular
//! matrices, NaN poisoning, broken symmetry, lost definiteness — so the
//! integration tests can drive **every** public error variant of the
//! workspace instead of only the happy path. A second family of
//! injectors targets the `tecopt-serve` service layer: torn wire frames,
//! dribbling slow clients, scheduled mid-request panics, and artificially
//! slow evaluations for deadline and drain chaos.
//!
//! The perturbations operate on [`DenseMatrix`] (and plain slices) and are
//! intended for `#[cfg(test)]` / dev-dependency use; nothing here belongs in
//! a production call path.
//!
//! ```
//! use tecopt_faultinject as fi;
//! use tecopt_linalg::{Cholesky, DenseMatrix, LinalgError};
//!
//! let mut a = fi::spd_matrix(4, 7);
//! fi::break_definiteness(&mut a);
//! assert!(matches!(
//!     Cholesky::factor(&a),
//!     Err(LinalgError::NotPositiveDefinite { .. })
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use rand::{Rng, SeedableRng};
use tecopt_linalg::DenseMatrix;

/// A deterministic, well-conditioned symmetric positive-definite test
/// matrix: diagonally dominant with seeded off-diagonal couplings.
///
/// The structure mimics the thermal conductance matrices of the paper
/// (Stieltjes-like: positive diagonal, nonpositive off-diagonals).
pub fn spd_matrix(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for c in (r + 1)..n {
            let g = -rng.gen_range(0.0_f64..1.0);
            a[(r, c)] = g;
            a[(c, r)] = g;
        }
    }
    // Strict diagonal dominance (ground leg) guarantees positive
    // definiteness.
    for r in 0..n {
        let off: f64 = (0..n).filter(|&c| c != r).map(|c| a[(r, c)].abs()).sum();
        a[(r, r)] = off + 1.0 + rng.gen_range(0.0_f64..1.0);
    }
    a
}

/// Overwrites one entry with NaN. For a symmetric consumer, pass `row == col`
/// or poison both triangles yourself.
pub fn inject_nan(a: &mut DenseMatrix, row: usize, col: usize) {
    a[(row, col)] = f64::NAN;
}

/// Poisons one element of a vector with NaN.
pub fn inject_nan_slice(v: &mut [f64], index: usize) {
    v[index] = f64::NAN;
}

/// Makes the matrix exactly rank deficient by overwriting row and column
/// `dst` with copies of row and column `src` (symmetry is preserved when the
/// input is symmetric).
///
/// # Panics
///
/// Panics (test helper) if `src == dst` or either index is out of bounds.
pub fn make_rank_deficient(a: &mut DenseMatrix, src: usize, dst: usize) {
    assert!(src != dst, "duplicating a row onto itself is a no-op");
    let n = a.rows();
    for c in 0..n {
        let v = a[(src, c)];
        a[(dst, c)] = v;
    }
    for r in 0..n {
        let v = a[(r, src)];
        a[(r, dst)] = v;
    }
    a[(dst, dst)] = a[(src, src)];
}

/// Blends the matrix toward the rank-deficient copy produced by
/// [`make_rank_deficient`]: the result is `(1−t)·A + t·A_singular`, singular
/// at `t = 1` and increasingly ill-conditioned as `t → 1`.
pub fn make_near_singular(a: &mut DenseMatrix, src: usize, dst: usize, t: f64) {
    let mut singular = a.clone();
    make_rank_deficient(&mut singular, src, dst);
    let n = a.rows();
    for r in 0..n {
        for c in 0..n {
            a[(r, c)] = (1.0 - t) * a[(r, c)] + t * singular[(r, c)];
        }
    }
}

/// Destroys symmetry by adding `delta` to a single off-diagonal entry
/// (without touching its mirror).
///
/// # Panics
///
/// Panics (test helper) on matrices smaller than 2×2.
pub fn break_symmetry(a: &mut DenseMatrix, delta: f64) {
    assert!(a.rows() >= 2 && a.cols() >= 2, "need at least a 2x2 matrix");
    a[(0, 1)] += delta;
}

/// Destroys positive definiteness by negating the largest diagonal entry.
pub fn break_definiteness(a: &mut DenseMatrix) {
    let n = a.rows().min(a.cols());
    let mut k = 0;
    for r in 1..n {
        if a[(r, r)] > a[(k, k)] {
            k = r;
        }
    }
    a[(k, k)] = -a[(k, k)].abs().max(1.0);
}

/// A current just below the runaway threshold: `fraction` of the way from a
/// known-feasible value to a known-infeasible one. Convenience for driving
/// ill-conditioned (but still solvable) systems.
pub fn near_runaway_current(feasible: f64, infeasible: f64, fraction: f64) -> f64 {
    feasible + (infeasible - feasible) * fraction
}

// ---------------------------------------------------------------------
// Service-level chaos: wire and evaluator injectors for tecopt-serve
// ---------------------------------------------------------------------

/// A torn wire frame: the first `keep` bytes of the encoded request, with
/// no terminator — what a server sees when a client dies mid-frame. The
/// chaos suites write this and then drop the connection; the server must
/// answer with a typed decode/disconnect error and free the slot, never
/// hang a worker.
pub fn torn_frame(frame: &str, keep: usize) -> Vec<u8> {
    frame.as_bytes()[..keep.min(frame.len())].to_vec()
}

/// Writes `bytes` in `chunk`-sized dribbles, invoking `between` between
/// chunks — a slow-client injector. Tests pass a short sleep (or a
/// cancellation check) as `between`; keeping the pacing a callback keeps
/// this crate free of thread APIs.
///
/// # Errors
///
/// Whatever the underlying writer reports.
pub fn dribble<W: std::io::Write>(
    w: &mut W,
    bytes: &[u8],
    chunk: usize,
    mut between: impl FnMut(),
) -> std::io::Result<()> {
    let chunk = chunk.max(1);
    let mut first = true;
    for piece in bytes.chunks(chunk) {
        if !first {
            between();
        }
        first = false;
        w.write_all(piece)?;
        w.flush()?;
    }
    Ok(())
}

/// An evaluator wrapper that panics mid-request on a deterministic
/// schedule: every `period`-th call (1-based) dies before delegating.
/// Drives `tecopt-serve`'s per-request panic containment — the process
/// must never abort and the other `period − 1` calls must succeed.
pub struct MidRequestPanic<E> {
    inner: E,
    period: usize,
    calls: std::sync::atomic::AtomicUsize,
}

impl<E> MidRequestPanic<E> {
    /// Panics on calls `period`, `2·period`, … delegating otherwise.
    /// A `period` of 0 is clamped to 1 (every call panics).
    pub fn every(inner: E, period: usize) -> MidRequestPanic<E> {
        MidRequestPanic {
            inner,
            period: period.max(1),
            calls: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Calls observed so far.
    pub fn calls(&self) -> usize {
        self.calls.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl<E: tecopt_serve::Evaluator> tecopt_serve::Evaluator for MidRequestPanic<E> {
    fn evaluate(
        &self,
        request: &tecopt_serve::Request,
        ctx: &tecopt::RunContext,
    ) -> Result<tecopt_serve::Response, tecopt::OptError> {
        let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        if call.is_multiple_of(self.period) {
            panic!("injected mid-request panic (call {call})");
        }
        self.inner.evaluate(request, ctx)
    }
}

/// An evaluator wrapper that stretches every request to at least
/// `min_duration` by spinning at the supervision gate — so deadline
/// storms, load shedding, and drain windows have something slow to bite
/// on. The spin honors the request's context: a raised cancel token or an
/// expired deadline ends the wait with the matching typed error, exactly
/// like a long factorization hitting its gate.
pub struct SlowEvaluator<E> {
    inner: E,
    min_duration: std::time::Duration,
}

impl<E> SlowEvaluator<E> {
    /// Delays every evaluation by at least `min_duration`.
    pub fn new(inner: E, min_duration: std::time::Duration) -> SlowEvaluator<E> {
        SlowEvaluator {
            inner,
            min_duration,
        }
    }
}

impl<E: tecopt_serve::Evaluator> tecopt_serve::Evaluator for SlowEvaluator<E> {
    fn evaluate(
        &self,
        request: &tecopt_serve::Request,
        ctx: &tecopt::RunContext,
    ) -> Result<tecopt_serve::Response, tecopt::OptError> {
        if let Some(until) = std::time::Instant::now().checked_add(self.min_duration) {
            while std::time::Instant::now() < until {
                ctx.ensure_live()?;
                std::hint::spin_loop();
            }
        }
        self.inner.evaluate(request, ctx)
    }
}

// ---------------------------------------------------------------------
// Fleet chaos: shard and transport injectors for the router tier
// ---------------------------------------------------------------------

/// A killable shard: wraps any [`tecopt_serve::ShardHandle`] and, once
/// [`ShardKill::kill`]ed, refuses every operation with a typed
/// [`tecopt_serve::ServeError::Disconnected`] — exactly what a crashed
/// process looks like to the router. [`ShardKill::restart_with`] swaps in
/// a replacement handle (a freshly built engine), modeling a restart
/// under the same fleet slot and id.
pub struct ShardKill {
    inner: std::sync::Mutex<std::sync::Arc<dyn tecopt_serve::ShardHandle>>,
    killed: std::sync::atomic::AtomicBool,
    id: String,
}

impl ShardKill {
    /// Wraps `inner` as a killable shard (initially alive).
    pub fn wrap(inner: std::sync::Arc<dyn tecopt_serve::ShardHandle>) -> ShardKill {
        ShardKill {
            id: inner.id().to_string(),
            inner: std::sync::Mutex::new(inner),
            killed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Kills the shard: every subsequent operation is refused.
    pub fn kill(&self) {
        self.killed.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Revives the shard with its current inner handle.
    pub fn restart(&self) {
        self.killed
            .store(false, std::sync::atomic::Ordering::SeqCst);
    }

    /// Revives the shard with a replacement handle (a rebuilt engine).
    pub fn restart_with(&self, inner: std::sync::Arc<dyn tecopt_serve::ShardHandle>) {
        *self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = inner;
        self.restart();
    }

    /// `true` while the shard refuses operations.
    pub fn is_killed(&self) -> bool {
        self.killed.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn live(
        &self,
        op: &str,
    ) -> Result<std::sync::Arc<dyn tecopt_serve::ShardHandle>, tecopt_serve::ServeError> {
        if self.is_killed() {
            return Err(tecopt_serve::ServeError::Disconnected {
                detail: format!("{op} to {}: shard killed by fault injector", self.id),
            });
        }
        Ok(std::sync::Arc::clone(
            &self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        ))
    }
}

impl tecopt_serve::ShardHandle for ShardKill {
    fn id(&self) -> &str {
        &self.id
    }

    fn submit(
        &self,
        frame: &tecopt_serve::RequestFrame,
        cancel: &tecopt::CancelToken,
    ) -> Result<tecopt_serve::Response, tecopt_serve::ServeError> {
        self.live("submit")?.submit(frame, cancel)
    }

    fn ping(&self, timeout: std::time::Duration) -> Result<(), tecopt_serve::ServeError> {
        self.live("ping")?.ping(timeout)
    }

    fn replicate(&self, entry: &tecopt_serve::ReplEntry) -> Result<(), tecopt_serve::ServeError> {
        self.live("replicate")?.replicate(entry)
    }
}

/// An address every TCP connect refuses: binds an ephemeral port, reads
/// it back, and drops the listener. The OS keeps the port closed long
/// enough for a test's connection attempts to be refused instantly —
/// unlike a firewalled address, which would time out instead.
///
/// # Errors
///
/// Any socket-level failure binding the probe listener.
pub fn refused_tcp_addr() -> std::io::Result<String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    drop(listener);
    Ok(addr)
}

/// Blocks the calling thread for about `d` without the raw thread API
/// (condvar timeout; the workspace linter confines `std::thread` to the
/// sanctioned pool).
fn settle(d: std::time::Duration) {
    if d.is_zero() {
        return;
    }
    let gate = std::sync::Mutex::new(());
    let cv = std::sync::Condvar::new();
    let guard = gate
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = cv.wait_timeout(guard, d);
}

/// A listener that accepts only after a configured delay — the transport
/// picture of an overloaded accept loop. Drive [`SlowAccept::serve_one_pong`]
/// on one side of [`tecopt::parallel::join`] while the other side pings.
pub struct SlowAccept {
    listener: std::net::TcpListener,
    delay: std::time::Duration,
}

impl SlowAccept {
    /// Binds an ephemeral port that will accept after `delay`.
    ///
    /// # Errors
    ///
    /// Any socket-level failure from bind.
    pub fn bind(delay: std::time::Duration) -> std::io::Result<SlowAccept> {
        Ok(SlowAccept {
            listener: std::net::TcpListener::bind("127.0.0.1:0")?,
            delay,
        })
    }

    /// The bound address to point a shard or client at.
    ///
    /// # Errors
    ///
    /// Any socket-level failure reading the local address.
    pub fn addr(&self) -> std::io::Result<String> {
        Ok(self.listener.local_addr()?.to_string())
    }

    /// Sleeps the configured delay, accepts one connection, reads one
    /// line, and echoes a pong for it. Returns when the peer is served
    /// or gone.
    ///
    /// # Errors
    ///
    /// Any socket-level failure accepting or serving.
    pub fn serve_one_pong(&self) -> std::io::Result<()> {
        use std::io::{BufRead, BufReader, Write};
        settle(self.delay);
        let (stream, _) = self.listener.accept()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let mut stream = stream;
        if let Some(nonce) = line.trim_end().strip_prefix("ping ") {
            stream.write_all(format!("pong {nonce}\n").as_bytes())?;
        }
        Ok(())
    }
}

/// A black hole: accepts connections and then says nothing, forever (or
/// until dropped) — the transport picture of a hung process whose kernel
/// still completes the TCP handshake. Clients must convert the silence
/// into a typed timeout, never hang.
pub struct BlackHole {
    listener: std::net::TcpListener,
}

impl BlackHole {
    /// Binds an ephemeral black-hole port.
    ///
    /// # Errors
    ///
    /// Any socket-level failure from bind.
    pub fn bind() -> std::io::Result<BlackHole> {
        Ok(BlackHole {
            listener: std::net::TcpListener::bind("127.0.0.1:0")?,
        })
    }

    /// The bound address to point a shard or client at.
    ///
    /// # Errors
    ///
    /// Any socket-level failure reading the local address.
    pub fn addr(&self) -> std::io::Result<String> {
        Ok(self.listener.local_addr()?.to_string())
    }

    /// Accepts one connection and holds it open, silent, for `hold`.
    /// Everything the peer writes is swallowed unread.
    ///
    /// # Errors
    ///
    /// Any socket-level failure accepting.
    pub fn swallow_one(&self, hold: std::time::Duration) -> std::io::Result<()> {
        let (stream, _) = self.listener.accept()?;
        settle(hold);
        drop(stream);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durable-persist chaos: torn-write and disk-full injectors for the
// checkpoint/ledger writers
// ---------------------------------------------------------------------

/// A torn write: truncates the file at `path` to its first `keep` bytes —
/// exactly what a kill (or a lost page) mid-append leaves behind. The
/// checkpoint and ledger loaders must skip the torn tail and re-run only
/// the affected item, never refuse the whole file.
///
/// # Errors
///
/// Any filesystem failure opening or truncating the file.
pub fn tear_tail(path: &std::path::Path, keep: u64) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    file.sync_all()
}

/// A disk-full (or permission-lost) injector for the atomic
/// temp-file+rename protocol: occupies the writer's temp sibling
/// (`<final>.tmp`, the [`tecopt::record::temp_sibling`] convention)
/// with a directory, so creating the temp file fails with a typed I/O
/// error while the *final* path — and every record already persisted in
/// it — stays untouched. [`DiskFull::release`] (or drop) clears the
/// blockage.
#[derive(Debug)]
pub struct DiskFull {
    tmp: std::path::PathBuf,
}

impl DiskFull {
    /// Blocks atomic replacement of `final_path` until released.
    ///
    /// # Errors
    ///
    /// Any filesystem failure creating the blocking directory.
    pub fn at(final_path: &std::path::Path) -> std::io::Result<DiskFull> {
        let tmp = tecopt::record::temp_sibling(final_path);
        std::fs::create_dir_all(&tmp)?;
        Ok(DiskFull { tmp })
    }

    /// Clears the blockage, letting the next atomic write proceed.
    ///
    /// # Errors
    ///
    /// Any filesystem failure removing the blocking directory.
    pub fn release(self) -> std::io::Result<()> {
        let tmp = self.tmp.clone();
        std::mem::forget(self);
        std::fs::remove_dir_all(tmp)
    }
}

impl Drop for DiskFull {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

// ---------------------------------------------------------------------
// Transient-schedule chaos: workload injectors for the safety envelope
// ---------------------------------------------------------------------

/// Injects a power spike into a transient schedule: a new segment of
/// `duration` seconds, with `extra` watts added to every tile of the
/// preceding segment's power map, spliced in after segment
/// `after_segment`. Drives the safety envelope's trip path — a
/// temperature excursion mid-trace that a correct envelope must ride out
/// without ever issuing a solve at `i ≥ λ_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeTrace {
    /// Zero-based segment index the spike follows.
    pub after_segment: usize,
    /// Spike duration, seconds.
    pub duration: f64,
    /// Power added to every tile for the spike's duration.
    pub extra: tecopt_units::Watts,
}

impl SpikeTrace {
    /// Splices the spike segment into `schedule`.
    ///
    /// # Panics
    ///
    /// Panics (test helper) when `after_segment` is out of bounds.
    pub fn apply(&self, schedule: &mut Vec<(f64, Vec<tecopt_units::Watts>)>) {
        let (_, base) = &schedule[self.after_segment];
        let spiked: Vec<tecopt_units::Watts> = base
            .iter()
            .map(|p| tecopt_units::Watts(p.value() + self.extra.value()))
            .collect();
        schedule.insert(self.after_segment + 1, (self.duration, spiked));
    }
}

/// Poisons one tile power of one schedule segment with NaN. The hardened
/// playback loop must refuse the sample *before* the solver sees it —
/// [`OptError::NonFinitePower`](tecopt::OptError::NonFinitePower) naming
/// this exact segment boundary and tile, with the partial trace intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NanSample {
    /// Zero-based segment whose power map is poisoned.
    pub segment: usize,
    /// Zero-based tile index set to NaN.
    pub tile: usize,
}

impl NanSample {
    /// Applies the poisoning in place.
    ///
    /// # Panics
    ///
    /// Panics (test helper) when either index is out of bounds.
    pub fn apply(&self, schedule: &mut [(f64, Vec<tecopt_units::Watts>)]) {
        schedule[self.segment].1[self.tile] = tecopt_units::Watts(f64::NAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_linalg::{determinant, Cholesky, LinalgError, Lu};

    #[test]
    fn spd_matrix_is_positive_definite_and_deterministic() {
        let a = spd_matrix(6, 3);
        let b = spd_matrix(6, 3);
        assert_eq!(a, b);
        assert!(Cholesky::factor(&a).is_ok());
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn nan_injection_is_caught_by_ensure_finite() {
        let mut a = spd_matrix(4, 1);
        inject_nan(&mut a, 2, 2);
        assert!(matches!(
            a.ensure_finite(),
            Err(LinalgError::NonFiniteEntry { row: 2, col: 2 })
        ));
        let mut v = vec![1.0; 4];
        inject_nan_slice(&mut v, 3);
        assert!(v[3].is_nan());
    }

    #[test]
    fn rank_deficiency_reaches_singular() {
        let mut a = spd_matrix(5, 9);
        make_rank_deficient(&mut a, 1, 3);
        assert!(a.is_symmetric(0.0));
        assert_eq!(determinant(&a).unwrap(), 0.0);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn near_singular_degrades_conditioning_monotonically() {
        let base = spd_matrix(5, 11);
        let cond_at = |t: f64| {
            let mut a = base.clone();
            make_near_singular(&mut a, 0, 4, t);
            Cholesky::factor(&a).map(|c| c.condition_estimate())
        };
        let c0 = cond_at(0.0).unwrap();
        let c9 = cond_at(0.999_999).unwrap();
        assert!(
            c9 > 100.0 * c0,
            "conditioning did not degrade: {c0} vs {c9}"
        );
    }

    #[test]
    fn symmetry_and_definiteness_breakers_work() {
        let mut a = spd_matrix(4, 5);
        break_symmetry(&mut a, 0.5);
        assert!(!a.is_symmetric(1e-12));

        let mut b = spd_matrix(4, 5);
        break_definiteness(&mut b);
        assert!(matches!(
            Cholesky::factor(&b),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn near_runaway_interpolates() {
        let i = near_runaway_current(2.0, 4.0, 0.75);
        assert!((i - 3.5).abs() < 1e-12);
    }

    #[test]
    fn torn_frame_truncates_without_terminator() {
        let t = torn_frame("req - - steady 00\n", 9);
        assert_eq!(t, b"req - - s");
        assert!(!t.contains(&b'\n'));
        // keep beyond the frame is clamped, not a panic
        assert_eq!(torn_frame("ab", 10), b"ab");
    }

    #[test]
    fn dribble_writes_everything_in_order() {
        let mut out = Vec::new();
        let mut pauses = 0;
        dribble(&mut out, b"hello world", 3, || pauses += 1).unwrap();
        assert_eq!(out, b"hello world");
        assert_eq!(pauses, 3); // 4 chunks, a pause between each pair
        let mut out = Vec::new();
        dribble(&mut out, b"x", 0, || ()).unwrap(); // chunk 0 clamps to 1
        assert_eq!(out, b"x");
    }

    struct EchoEval;
    impl tecopt_serve::Evaluator for EchoEval {
        fn evaluate(
            &self,
            _request: &tecopt_serve::Request,
            _ctx: &tecopt::RunContext,
        ) -> Result<tecopt_serve::Response, tecopt::OptError> {
            Ok(tecopt_serve::Response::Steady {
                peak: tecopt_units::Celsius(1.0),
                tec_power: tecopt_units::Watts(1.0),
            })
        }
    }

    #[test]
    fn mid_request_panic_fires_on_schedule() {
        use tecopt_serve::Evaluator as _;
        let eval = MidRequestPanic::every(EchoEval, 3);
        let req = tecopt_serve::Request::Steady {
            current: tecopt_units::Amperes(1.0),
        };
        let ctx = tecopt::RunContext::unbounded();
        for call in 1..=6 {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eval.evaluate(&req, &ctx)
            }));
            assert_eq!(outcome.is_err(), call % 3 == 0, "call {call}");
        }
        assert_eq!(eval.calls(), 6);
    }

    struct AlwaysOkShard;
    impl tecopt_serve::ShardHandle for AlwaysOkShard {
        fn id(&self) -> &str {
            "ok-shard"
        }
        fn submit(
            &self,
            _frame: &tecopt_serve::RequestFrame,
            _cancel: &tecopt::CancelToken,
        ) -> Result<tecopt_serve::Response, tecopt_serve::ServeError> {
            Ok(tecopt_serve::Response::Steady {
                peak: tecopt_units::Celsius(1.0),
                tec_power: tecopt_units::Watts(1.0),
            })
        }
        fn ping(&self, _timeout: std::time::Duration) -> Result<(), tecopt_serve::ServeError> {
            Ok(())
        }
        fn replicate(
            &self,
            _entry: &tecopt_serve::ReplEntry,
        ) -> Result<(), tecopt_serve::ServeError> {
            Ok(())
        }
    }

    #[test]
    fn a_killed_shard_refuses_every_operation_with_a_typed_error() {
        use tecopt_serve::ShardHandle as _;
        let shard = ShardKill::wrap(std::sync::Arc::new(AlwaysOkShard));
        let frame = tecopt_serve::RequestFrame {
            key: Some("k".into()),
            deadline_ms: None,
            request: tecopt_serve::Request::Steady {
                current: tecopt_units::Amperes(1.0),
            },
        };
        let cancel = tecopt::CancelToken::new();
        assert!(shard.submit(&frame, &cancel).is_ok());
        shard.kill();
        let killed_err = |r: Result<(), tecopt_serve::ServeError>| match r {
            Err(tecopt_serve::ServeError::Disconnected { detail }) => {
                assert!(detail.contains("killed"), "{detail}");
            }
            other => panic!("expected Disconnected, got {other:?}"),
        };
        killed_err(shard.submit(&frame, &cancel).map(|_| ()));
        killed_err(shard.ping(std::time::Duration::from_millis(10)));
        killed_err(shard.replicate(&tecopt_serve::ReplEntry {
            request_fp: 1,
            key: "k".into(),
            response: tecopt_serve::Response::Steady {
                peak: tecopt_units::Celsius(1.0),
                tec_power: tecopt_units::Watts(1.0),
            },
        }));
        // A restart (possibly with a rebuilt engine) revives the slot.
        shard.restart_with(std::sync::Arc::new(AlwaysOkShard));
        assert!(!shard.is_killed());
        assert!(shard.submit(&frame, &cancel).is_ok());
    }

    #[test]
    fn a_refused_port_is_an_instant_typed_disconnect() {
        use tecopt_serve::ShardHandle as _;
        let addr = refused_tcp_addr().unwrap();
        let shard = tecopt_serve::RemoteShard::new("refused", tecopt_serve::RemoteAddr::Tcp(addr));
        let t0 = std::time::Instant::now();
        match shard.ping(std::time::Duration::from_millis(100)) {
            Err(tecopt_serve::ServeError::Disconnected { detail }) => {
                assert!(detail.contains("connect"), "{detail}");
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // Refused, not black-holed: no multi-second connect timeout.
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn a_slow_accept_loop_times_a_ping_out_as_disconnected() {
        use tecopt_serve::ShardHandle as _;
        let slow = SlowAccept::bind(std::time::Duration::from_millis(300)).unwrap();
        let shard = tecopt_serve::RemoteShard::new(
            "slow-accept",
            tecopt_serve::RemoteAddr::Tcp(slow.addr().unwrap()),
        )
        .with_io_slice(std::time::Duration::from_millis(5));
        let (served, pinged) = tecopt::parallel::join(
            || slow.serve_one_pong(),
            || shard.ping(std::time::Duration::from_millis(50)),
        );
        // The ping gave up long before the accept loop woke up…
        match pinged {
            Err(tecopt_serve::ServeError::Disconnected { detail }) => {
                assert!(detail.contains("timed out"), "{detail}");
            }
            other => panic!("expected timeout Disconnected, got {other:?}"),
        }
        // …and the late server still served the connection it finally
        // accepted (the injector never wedges the test harness).
        assert!(served.is_ok());
    }

    #[test]
    fn a_black_hole_is_a_typed_timeout_never_a_hang() {
        use tecopt_serve::ShardHandle as _;
        let hole = BlackHole::bind().unwrap();
        let shard = tecopt_serve::RemoteShard::new(
            "black-hole",
            tecopt_serve::RemoteAddr::Tcp(hole.addr().unwrap()),
        )
        .with_io_slice(std::time::Duration::from_millis(5));
        let (_held, pinged) = tecopt::parallel::join(
            || hole.swallow_one(std::time::Duration::from_millis(200)),
            || shard.ping(std::time::Duration::from_millis(50)),
        );
        match pinged {
            Err(tecopt_serve::ServeError::Disconnected { detail }) => {
                assert!(detail.contains("timed out"), "{detail}");
            }
            other => panic!("expected timeout Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn a_submit_into_a_black_hole_times_out_or_cancels_never_hangs() {
        use tecopt_serve::ShardHandle as _;
        let ms = std::time::Duration::from_millis;
        let hole = BlackHole::bind().unwrap();
        let shard = |timeout| {
            tecopt_serve::RemoteShard::new(
                "black-hole",
                tecopt_serve::RemoteAddr::Tcp(hole.addr().unwrap()),
            )
            .with_response_timeout(timeout)
            .with_io_slice(ms(5))
        };
        // No deadline on the frame: the response timeout bounds the wait.
        let frame = tecopt_serve::RequestFrame {
            key: Some("k".into()),
            deadline_ms: None,
            request: tecopt_serve::Request::Steady {
                current: tecopt_units::Amperes(1.0),
            },
        };

        let timed = shard(ms(50));
        let cancel = tecopt::CancelToken::new();
        let (_held, submitted) = tecopt::parallel::join(
            || hole.swallow_one(ms(200)),
            || timed.submit(&frame, &cancel),
        );
        match submitted {
            Err(tecopt_serve::ServeError::Disconnected { detail }) => {
                assert!(detail.contains("timed out"), "{detail}");
            }
            other => panic!("expected timeout Disconnected, got {other:?}"),
        }

        // A token raised mid-wait ends it long before the response timeout.
        let patient = shard(std::time::Duration::from_secs(30));
        let cancel = tecopt::CancelToken::new();
        let (_held, (_, (submitted, waited))) = tecopt::parallel::join(
            || hole.swallow_one(ms(200)),
            || {
                tecopt::parallel::join(
                    || {
                        settle(ms(30));
                        cancel.cancel();
                    },
                    || {
                        let t0 = std::time::Instant::now();
                        (patient.submit(&frame, &cancel), t0.elapsed())
                    },
                )
            },
        );
        match submitted {
            Err(tecopt_serve::ServeError::Eval(tecopt::OptError::Cancelled { .. })) => {}
            other => panic!("expected Eval(Cancelled), got {other:?}"),
        }
        assert!(waited < std::time::Duration::from_secs(5), "{waited:?}");
    }

    #[test]
    fn tear_tail_truncates_and_disk_full_blocks_only_the_temp_path() {
        let dir = std::env::temp_dir().join(format!("tecopt-fi-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.txt");

        std::fs::write(&path, "keep this\nlose this\n").unwrap();
        tear_tail(&path, 10).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep this\n");

        let blockage = DiskFull::at(&path).unwrap();
        let denied = tecopt::record::atomic_replace(&path, "replacement\n");
        assert!(denied.is_err());
        // The final path — and its surviving records — are untouched.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep this\n");
        blockage.release().unwrap();
        tecopt::record::atomic_replace(&path, "replacement\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replacement\n");
    }

    #[test]
    fn spike_trace_splices_an_elevated_segment() {
        use tecopt_units::Watts;
        let mut schedule = vec![
            (2.0, vec![Watts(0.1), Watts(0.2)]),
            (3.0, vec![Watts(0.3), Watts(0.4)]),
        ];
        SpikeTrace {
            after_segment: 0,
            duration: 0.5,
            extra: Watts(1.0),
        }
        .apply(&mut schedule);
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule[1].0, 0.5);
        assert_eq!(schedule[1].1, vec![Watts(1.1), Watts(1.2)]);
        // The surrounding segments are untouched.
        assert_eq!(schedule[0].1, vec![Watts(0.1), Watts(0.2)]);
        assert_eq!(schedule[2].1, vec![Watts(0.3), Watts(0.4)]);
    }

    #[test]
    fn nan_sample_poisons_exactly_one_tile() {
        use tecopt_units::Watts;
        let mut schedule = vec![(1.0, vec![Watts(0.1), Watts(0.2), Watts(0.3)])];
        NanSample {
            segment: 0,
            tile: 1,
        }
        .apply(&mut schedule);
        assert!(schedule[0].1[1].value().is_nan());
        assert_eq!(schedule[0].1[0], Watts(0.1));
        assert_eq!(schedule[0].1[2], Watts(0.3));
    }

    #[test]
    fn slow_evaluator_honors_cancellation() {
        use tecopt_serve::Evaluator as _;
        let eval = SlowEvaluator::new(EchoEval, std::time::Duration::from_secs(60));
        let req = tecopt_serve::Request::Steady {
            current: tecopt_units::Amperes(1.0),
        };
        let token = tecopt::CancelToken::new();
        token.cancel();
        let ctx = tecopt::RunContext::unbounded().cancel_token(token);
        // A raised token ends the 60 s spin immediately with a typed error.
        assert!(matches!(
            eval.evaluate(&req, &ctx),
            Err(tecopt::OptError::Cancelled { .. })
        ));
        // And an expired deadline does the same.
        let ctx = tecopt::RunContext::unbounded().deadline_in(std::time::Duration::ZERO);
        assert!(matches!(
            eval.evaluate(&req, &ctx),
            Err(tecopt::OptError::DeadlineExceeded { .. })
        ));
    }
}
