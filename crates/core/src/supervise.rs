//! Supervised execution for long-running design sweeps: cooperative
//! cancellation, deadlines/probe budgets, worker panic isolation, and
//! checkpoint/resume.
//!
//! The paper's heavy workloads — runaway sweeps (Sec. V.C.1), convexity
//! certificates (Sec. V.C.2) and designer alternative scoring (Sec. VI) —
//! are long chains of independent solver probes. A [`RunContext`] wraps
//! each such sweep so that:
//!
//! - a raised [`CancelToken`] stops the sweep at the next item boundary
//!   (and, on the sparse backend, at the next CG *iteration* boundary),
//!   returning [`OptError::Cancelled`];
//! - a wall-clock deadline or probe budget converts an overrun into
//!   [`OptError::DeadlineExceeded`] carrying the partial results;
//! - a panicking worker is contained at its item boundary
//!   ([`OptError::WorkerPanicked`]) instead of aborting the process, with
//!   the lowest-index failure winning deterministically;
//! - completed probe results can be appended to a checkpoint and resumed
//!   bit-identically: [`checkpointed_map`] writes one `item <index>`
//!   record per completed item through [`crate::record`] (which owns the
//!   header, checksums, torn-tail replay and atomic creation) and splices
//!   recorded items back in any order on resume.
//!
//! See `DESIGN.md` §12 for the model and the record format.

use crate::parallel::{par_map_init_isolated, ItemOutcome};
use crate::record::{
    fields, hex_f64, read, Count, Field, FieldError, FieldReader, FieldWriter, Group, Header, Hex,
    Opt, RecordFile, Taken,
};
use crate::runaway::SweepPoint;
use crate::{optimize_current, CertificateOutcome, CoolingSystem, CurrentSettings, OptError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tecopt_linalg::CancelToken;
use tecopt_thermal::TileIndex;
use tecopt_units::{Amperes, Celsius, Watts};

/// Kept at its historical path for callers that digest sweep parameters.
pub use crate::record::fingerprint;

/// Shared supervision state for one logical run (a sweep, a certificate, a
/// whole designer pipeline).
///
/// Cloning is cheap and clones share the cancellation flag and probe
/// counter, so one context can be handed to several stages. The default
/// context is [`RunContext::unbounded`]: no deadline, no budget, no
/// checkpoint, a fresh token — supervised entry points behave exactly like
/// their plain counterparts under it.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    token: CancelToken,
    deadline: Option<Instant>,
    probe_budget: Option<usize>,
    probes: Arc<AtomicUsize>,
    checkpoint: Option<PathBuf>,
}

impl RunContext {
    /// A context with no limits: never cancels, never expires.
    pub fn unbounded() -> RunContext {
        RunContext::default()
    }

    /// Uses `token` as the cancellation flag (e.g. one shared with a
    /// signal handler or another thread).
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> RunContext {
        self.token = token;
        self
    }

    /// Sets a wall-clock deadline `timeout` from now.
    ///
    /// A `timeout` so large that the deadline overflows the clock's
    /// representable range (e.g. `Duration::MAX`) is indistinguishable
    /// from "no deadline" and is treated as exactly that, instead of
    /// panicking inside `Instant` arithmetic.
    #[must_use]
    pub fn deadline_in(self, timeout: Duration) -> RunContext {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.deadline_at(deadline),
            None => self,
        }
    }

    /// Sets an absolute wall-clock deadline.
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> RunContext {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of probes (sweep items) admitted across the whole
    /// run. Admission is consumed at *claim* time, so a budget of `k`
    /// admits exactly the first `k` items of a sweep regardless of worker
    /// scheduling — which is what makes kill/resume tests deterministic.
    #[must_use]
    pub fn probe_budget(mut self, budget: usize) -> RunContext {
        self.probe_budget = Some(budget);
        self
    }

    /// Enables checkpointing to `path` for the sweeps that support it.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> RunContext {
        self.checkpoint = Some(path.into());
        self
    }

    /// The cancellation token of this run.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The checkpoint path, if checkpointing was requested.
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint.as_deref()
    }

    /// Wall-clock time left before the deadline: `None` when no deadline
    /// is set, saturating at [`Duration::ZERO`] once the deadline has
    /// passed (never a panic, even for a deadline set in the past).
    ///
    /// Services use this to derive a nested budget for downstream work —
    /// e.g. `tecopt-serve` maps a request's remaining time onto the
    /// per-request `RunContext` it hands the evaluator.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// A clone sharing this context's token, counter, deadline and budget
    /// but with no checkpoint path. Multi-sweep facades use it so two
    /// different sweep kinds never contend for one checkpoint file.
    pub(crate) fn without_checkpoint(&self) -> RunContext {
        let mut ctx = self.clone();
        ctx.checkpoint = None;
        ctx
    }

    /// Probe admissions recorded so far (diagnostic; may exceed the budget
    /// by denied attempts).
    pub fn probes_recorded(&self) -> usize {
        self.probes.load(Ordering::Relaxed)
    }

    /// The admission gate consumed before every item claim: `false` once
    /// the token is raised, the deadline has passed, or the budget is
    /// spent. Each `true` consumes one unit of the probe budget.
    ///
    /// Admission is consumed at claim time, so under a budget of `k` a
    /// sweep admits exactly its first `k` claims regardless of worker
    /// scheduling. External sweep engines (e.g. `tecopt-explore`) gate
    /// their own item claims on this to inherit the same kill/resume
    /// determinism; when the gate denies, report the reason via
    /// [`RunContext::interruption`].
    pub fn admit(&self) -> bool {
        if self.token.is_cancelled() {
            return false;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        match self.probe_budget {
            Some(budget) => self.probes.fetch_add(1, Ordering::Relaxed) < budget,
            None => {
                self.probes.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Why the gate is (or would be) closed, as a typed error — `None`
    /// while the run is still admissible.
    fn exhaustion(&self, completed: usize, total: usize) -> Option<OptError> {
        if self.token.is_cancelled() {
            return Some(OptError::Cancelled { completed });
        }
        let deadline_passed = self.deadline.is_some_and(|d| Instant::now() >= d);
        let budget_spent = self
            .probe_budget
            .is_some_and(|b| self.probes.load(Ordering::Relaxed) >= b);
        if deadline_passed || budget_spent {
            return Some(OptError::DeadlineExceeded {
                completed,
                remaining: total.saturating_sub(completed),
            });
        }
        None
    }

    /// The typed error describing why the admission gate stopped a sweep
    /// with `completed` of `total` items done — [`OptError::Cancelled`]
    /// for a raised token, otherwise [`OptError::DeadlineExceeded`] (a
    /// spent probe budget reports as a deadline, like the supervised
    /// sweeps). External sweep engines call this after [`RunContext::admit`]
    /// denies a claim.
    pub fn interruption(&self, completed: usize, total: usize) -> OptError {
        self.exhaustion(completed, total)
            .unwrap_or(OptError::DeadlineExceeded {
                completed,
                remaining: total.saturating_sub(completed),
            })
    }

    /// Per-probe gate for iterative optimizers (e.g. the multi-pin
    /// coordinate descent): consumes one admission like the sweep gate,
    /// but reports a denial as the matching typed error directly.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunContext::ensure_live`].
    pub fn admit_probe(&self) -> Result<(), OptError> {
        if self.admit() {
            return Ok(());
        }
        let completed = self.probes_recorded();
        Err(self
            .exhaustion(completed, completed)
            .unwrap_or(OptError::DeadlineExceeded {
                completed,
                remaining: 0,
            }))
    }

    /// Checks the context between pipeline stages, converting a raised
    /// token / expired deadline / spent budget into the matching typed
    /// error. Facades call this at stage boundaries; sweeps enforce the
    /// same conditions per item via the admission gate.
    ///
    /// # Errors
    ///
    /// - [`OptError::Cancelled`] once the token is raised.
    /// - [`OptError::DeadlineExceeded`] past the deadline or budget.
    pub fn ensure_live(&self) -> Result<(), OptError> {
        match self.exhaustion(self.probes_recorded(), self.probes_recorded()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A supervised sweep that stopped early: the typed error plus whatever
/// per-item results had already completed (`None` for items that failed,
/// panicked, or were never admitted).
#[derive(Debug, Clone)]
pub struct SweepFailure<R> {
    /// Why the sweep stopped — the same error a sequential loop would have
    /// reported first (lowest item index wins).
    pub error: OptError,
    /// Per-item results, item order preserved; `Some` for each item that
    /// completed.
    pub partial: Vec<Option<R>>,
}

impl<R> SweepFailure<R> {
    /// A failure before any item ran (validation, setup, checkpoint I/O).
    pub(crate) fn before_start(error: OptError, total: usize) -> SweepFailure<R> {
        let mut partial = Vec::with_capacity(total);
        partial.resize_with(total, || None);
        SweepFailure { error, partial }
    }

    /// Number of items that completed.
    pub fn completed(&self) -> usize {
        self.partial.iter().filter(|p| p.is_some()).count()
    }

    /// Discards the partial results, keeping the error.
    pub fn into_error(self) -> OptError {
        self.error
    }
}

impl<R> From<SweepFailure<R>> for OptError {
    fn from(f: SweepFailure<R>) -> OptError {
        f.error
    }
}

impl<R> core::fmt::Display for SweepFailure<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({} of {} items completed)",
            self.error,
            self.completed(),
            self.partial.len()
        )
    }
}

/// Rewrites kernel-level cancellation (which cannot know the sweep-level
/// count) with the true number of completed items.
fn normalize_error(error: OptError, completed: usize) -> OptError {
    match error {
        OptError::Cancelled { .. } => OptError::Cancelled { completed },
        other => other,
    }
}

/// Collapses isolated per-item outcomes into either the full result vector
/// or a [`SweepFailure`]. The lowest-index failure wins — `Err` results
/// and caught panics compete on equal footing by index, matching what a
/// sequential loop would have hit first.
fn resolve<R>(
    ctx: &RunContext,
    outcomes: Vec<ItemOutcome<Result<R, OptError>>>,
) -> Result<Vec<R>, SweepFailure<R>> {
    let total = outcomes.len();
    let mut partial: Vec<Option<R>> = Vec::with_capacity(total);
    let mut first_error: Option<OptError> = None;
    let mut skipped = 0usize;
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            ItemOutcome::Done(Ok(r)) => partial.push(Some(r)),
            ItemOutcome::Done(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
                partial.push(None);
            }
            ItemOutcome::Panicked { payload } => {
                if first_error.is_none() {
                    first_error = Some(OptError::WorkerPanicked { index, payload });
                }
                partial.push(None);
            }
            ItemOutcome::Skipped => {
                skipped += 1;
                partial.push(None);
            }
        }
    }
    let completed = partial.iter().filter(|p| p.is_some()).count();
    if let Some(error) = first_error {
        return Err(SweepFailure {
            error: normalize_error(error, completed),
            partial,
        });
    }
    if skipped > 0 {
        let error = ctx.interruption(completed, total);
        return Err(SweepFailure { error, partial });
    }
    Ok(partial.into_iter().flatten().collect())
}

/// Maps `f` over `items` under full supervision: panic isolation per item,
/// the context's admission gate before every claim, deterministic
/// first-error semantics, and partial results on failure.
///
/// This is the supervised counterpart of
/// [`par_map_init`](crate::parallel::par_map_init); with an unbounded
/// context and an error-free `f` the results are bit-identical to it.
///
/// # Errors
///
/// [`SweepFailure`] carrying the lowest-index item error (or
/// [`OptError::WorkerPanicked`] / [`OptError::Cancelled`] /
/// [`OptError::DeadlineExceeded`]) plus all completed results.
pub fn supervised_map<T, S, R, I, F>(
    ctx: &RunContext,
    items: Vec<T>,
    init: I,
    f: F,
) -> Result<Vec<R>, SweepFailure<R>>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> Result<R, OptError> + Sync,
{
    let outcomes = par_map_init_isolated(items, init, f, || ctx.admit());
    resolve(ctx, outcomes)
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// A sweep result that can round-trip through the text checkpoint format.
///
/// Encoding must be *bit-exact* for floating-point payloads (the
/// [`Hex`] field of [`crate::record`]), because resume correctness is
/// defined as bit-identity with the uninterrupted run.
pub trait Checkpointable: Sized {
    /// Stable record-kind tag written to (and checked against) the
    /// checkpoint header.
    const KIND: &'static str;
    /// Encodes the record as one line of space-separated fields (must not
    /// contain newlines).
    fn encode(&self) -> String;
    /// Decodes what [`Checkpointable::encode`] produced; `None` for
    /// malformed input (e.g. a torn final line after a crash).
    fn decode(fields: &str) -> Option<Self>;
}

/// Implements [`Checkpointable`] for a type with a [`Group`] field
/// table: its fields, space-separated.
macro_rules! checkpointable {
    ($ty:ty, $kind:literal) => {
        impl Checkpointable for $ty {
            const KIND: &'static str = $kind;
            fn encode(&self) -> String {
                fields(' ', |w| Group(' ').put(w, self))
            }
            fn decode(text: &str) -> Option<$ty> {
                read(text, ' ', $kind, |r| r.take(&Group(' '), $kind)).ok()
            }
        }
    };
}

/// [`supervised_map`] with checkpoint/resume: when the context carries a
/// checkpoint path, completed items are appended to the file as they
/// finish and previously recorded items are not re-run — their recorded
/// (bit-exact) results are spliced back in at their original indices.
///
/// `params_fingerprint` must digest every input that determines the
/// per-item results (system parameters, sweep settings, the item list);
/// a mismatch against an existing file is a typed error, never a silent
/// mixed resume.
///
/// # Errors
///
/// Same contract as [`supervised_map`], plus checkpoint I/O and
/// stale-header errors (reported as
/// [`OptError::InvalidParameter`] before any item runs).
pub fn checkpointed_map<T, S, R, I, F>(
    ctx: &RunContext,
    params_fingerprint: u64,
    items: Vec<T>,
    init: I,
    f: F,
) -> Result<Vec<R>, SweepFailure<R>>
where
    T: Send,
    R: Checkpointable + Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> Result<R, OptError> + Sync,
{
    let Some(path) = ctx.checkpoint_path() else {
        return supervised_map(ctx, items, init, f);
    };
    let total = items.len();
    let header = Header {
        noun: "checkpoint",
        kind: R::KIND,
        fingerprint: params_fingerprint,
        total,
    };
    let mut prefilled: Vec<Option<R>> = Vec::with_capacity(total);
    prefilled.resize_with(total, || None);
    // Item records are order-insensitive; an unreadable one re-runs.
    let file = RecordFile::open(path, &header, |rec| {
        let idx = rec.key.parse::<usize>().ok().filter(|i| *i < total);
        if let (Some(idx), "item") = (idx, rec.tag) {
            if let Some(record) = R::decode(rec.payload) {
                prefilled[idx] = Some(record);
            }
        }
    })
    .map_err(|e| SweepFailure::before_start(e, total))?;

    let missing: Vec<(usize, T)> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| prefilled[*i].is_none())
        .collect();
    let missing_indices: Vec<usize> = missing.iter().map(|(i, _)| *i).collect();
    let outcomes = par_map_init_isolated(
        missing,
        init,
        |state, (index, item)| {
            let record = f(state, item)?;
            file.append("item", &index.to_string(), &record.encode())?;
            Ok(record)
        },
        || ctx.admit(),
    );

    // Splice fresh outcomes back at their original indices; recorded items
    // count as completed.
    let mut full: Vec<ItemOutcome<Result<R, OptError>>> = prefilled
        .into_iter()
        .map(|p| match p {
            Some(record) => ItemOutcome::Done(Ok(record)),
            None => ItemOutcome::Skipped,
        })
        .collect();
    for (slot, outcome) in missing_indices.into_iter().zip(outcomes) {
        full[slot] = outcome;
    }
    resolve(ctx, full)
}

crate::field_table!(Group => SweepPoint {
    current: Hex,
    peak: Opt(Hex),
    tec_power: Opt(Hex),
});

checkpointable!(SweepPoint, "runaway-sweep");

impl Field<Option<CertificateOutcome>> for Group {
    fn put(&self, w: &mut FieldWriter<'_>, v: &Option<CertificateOutcome>) {
        w.group(self.0, |w| {
            match v {
                None => w.text("pass"),
                Some(CertificateOutcome::Certified) => w.text("certified"),
                Some(CertificateOutcome::Inconclusive {
                    tile,
                    interval,
                    lower_bound,
                }) => w
                    .text("inconclusive")
                    .put(&Count, tile)
                    .put(&Hex, &interval.0)
                    .put(&Hex, &interval.1)
                    .put(&Hex, lower_bound),
            };
        });
    }

    fn take(
        &self,
        r: &mut FieldReader<'_>,
        name: &'static str,
    ) -> Taken<Option<CertificateOutcome>> {
        r.group(name, self.0, |r| {
            Ok(match r.text(name)? {
                "pass" => None,
                "certified" => Some(CertificateOutcome::Certified),
                "inconclusive" => Some(CertificateOutcome::Inconclusive {
                    tile: r.take(&Count, "tile")?,
                    interval: (r.take(&Hex, "interval")?, r.take(&Hex, "interval")?),
                    lower_bound: r.take(&Hex, "lower bound")?,
                }),
                _ => return Err(FieldError::Malformed(name)),
            })
        })
    }
}

checkpointable!(Option<CertificateOutcome>, "convexity-subranges");

// ---------------------------------------------------------------------------
// Designer-alternative scoring (the checkpointed designer sweep)
// ---------------------------------------------------------------------------

/// The resumable record of one scored candidate deployment: the flat
/// figures of merit a design comparison needs, without the (unserializable)
/// solved system behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Devices in the candidate deployment.
    pub device_count: usize,
    /// Optimal shared supply current.
    pub current: Amperes,
    /// Peak silicon temperature at that current.
    pub peak: Celsius,
    /// Electrical power drawn by the TECs at that current.
    pub tec_power: Watts,
    /// Steady-state solves the current optimization spent.
    pub evaluations: usize,
}

crate::field_table!(Group => CandidateScore {
    device_count: Count,
    current: Hex,
    peak: Hex,
    tec_power: Hex,
    evaluations: Count,
});

checkpointable!(CandidateScore, "designer-candidates");

/// Scores candidate deployments (each with its own optimized current)
/// under supervision, checkpointing each completed candidate when the
/// context asks for it. This is the resumable form of the designer's
/// alternative-deployment sweep: equivalent figures of merit to
/// [`evaluate_deployments`](crate::evaluate_deployments), minus the
/// unserializable solved systems.
///
/// # Errors
///
/// [`SweepFailure`] with the lowest-index candidate error, a supervision
/// error, or a checkpoint error; partial scores ride along.
pub fn score_candidates(
    base: &CoolingSystem,
    candidates: &[Vec<TileIndex>],
    current: CurrentSettings,
    ctx: &RunContext,
) -> Result<Vec<CandidateScore>, SweepFailure<CandidateScore>> {
    let fp = {
        let mut digest = format!("{} {}", CandidateScore::KIND, base.digest());
        for tiles in candidates {
            digest.push(';');
            for t in tiles {
                digest.push_str(&format!(" {},{}", t.row, t.col));
            }
        }
        digest.push_str(&format!(
            " settings {} {} {} {} {:?}",
            hex_f64(current.tolerance),
            current.max_evaluations,
            hex_f64(current.ceiling_fraction),
            hex_f64(current.lambda_tolerance),
            current.method,
        ));
        fingerprint(&digest)
    };
    checkpointed_map(
        ctx,
        fp,
        candidates.to_vec(),
        || (),
        |(), tiles| {
            let system = base.with_tiles(&tiles)?;
            let optimum = optimize_current(&system, current)?;
            Ok(CandidateScore {
                device_count: system.device_count(),
                current: optimum.current(),
                peak: optimum.state().peak(),
                tec_power: optimum.state().tec_power(),
                evaluations: optimum.evaluations(),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_admits_everything() {
        let ctx = RunContext::unbounded();
        for _ in 0..100 {
            assert!(ctx.admit());
        }
        assert!(ctx.ensure_live().is_ok());
        assert_eq!(ctx.probes_recorded(), 100);
    }

    #[test]
    fn cancelled_context_denies_and_reports() {
        let ctx = RunContext::unbounded();
        ctx.token().cancel();
        assert!(!ctx.admit());
        assert_eq!(
            ctx.ensure_live().unwrap_err(),
            OptError::Cancelled { completed: 0 }
        );
    }

    #[test]
    fn budget_admits_exactly_its_size() {
        let ctx = RunContext::unbounded().probe_budget(3);
        assert!(ctx.admit());
        assert!(ctx.admit());
        assert!(ctx.admit());
        assert!(!ctx.admit());
        assert!(matches!(
            ctx.ensure_live(),
            Err(OptError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn expired_deadline_denies() {
        let ctx = RunContext::unbounded().deadline_in(Duration::from_secs(0));
        assert!(!ctx.admit());
        assert!(matches!(
            ctx.ensure_live(),
            Err(OptError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn overflowing_deadline_means_unbounded() {
        // `Instant::now() + Duration::MAX` panics; the builder must treat
        // an unrepresentable deadline as "no deadline" instead.
        let ctx = RunContext::unbounded().deadline_in(Duration::MAX);
        assert!(ctx.admit());
        assert!(ctx.ensure_live().is_ok());
        assert_eq!(ctx.remaining_time(), None);
    }

    #[test]
    fn remaining_time_saturates_at_zero() {
        // A deadline already in the past at admission: `remaining_time`
        // reports zero (never underflows or panics) and the gate denies.
        let now = Instant::now();
        let past = now.checked_sub(Duration::from_secs(5)).unwrap_or(now);
        let ctx = RunContext::unbounded().deadline_at(past);
        assert_eq!(ctx.remaining_time(), Some(Duration::ZERO));
        assert!(!ctx.admit());

        let ctx = RunContext::unbounded();
        assert_eq!(ctx.remaining_time(), None, "no deadline, no remaining");
        let ctx = ctx.deadline_in(Duration::from_secs(3600));
        let left = ctx.remaining_time().unwrap();
        assert!(left > Duration::from_secs(3500) && left <= Duration::from_secs(3600));
    }

    #[test]
    fn past_deadline_at_admission_skips_every_item() {
        // Zero remaining time at the first probe boundary: nothing runs,
        // and the typed error reports completed=0 / remaining=total.
        let now = Instant::now();
        let past = now.checked_sub(Duration::from_millis(1)).unwrap_or(now);
        let ctx = RunContext::unbounded().deadline_at(past);
        let failure = supervised_map(
            &ctx,
            (0..6usize).collect(),
            || (),
            |(), i| Ok::<usize, OptError>(i),
        )
        .unwrap_err();
        match failure.error {
            OptError::DeadlineExceeded {
                completed,
                remaining,
            } => {
                assert_eq!(completed, 0);
                assert_eq!(remaining, 6);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(failure.partial.iter().all(Option::is_none));
    }

    #[test]
    fn deadline_exactly_now_denies_at_probe_boundary() {
        // The boundary case: a deadline equal to "now" (zero remaining at
        // a probe boundary) must deny, not admit one more probe.
        let ctx = RunContext::unbounded().deadline_at(Instant::now());
        assert!(!ctx.admit());
        assert!(matches!(
            ctx.admit_probe(),
            Err(OptError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn supervised_map_matches_plain_map_when_unbounded() {
        let ctx = RunContext::unbounded();
        let out = supervised_map(
            &ctx,
            (0..64usize).collect(),
            || (),
            |(), i| Ok::<usize, OptError>(i * i),
        )
        .unwrap();
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn lowest_index_failure_wins_across_errors_and_panics() {
        // A panic at index 5 and errors at indices 2 and 9: index 2 wins,
        // exactly as a sequential loop would report — and the panic at 5
        // is still visible in the partials as an uncompleted item.
        let ctx = RunContext::unbounded();
        let failure = supervised_map(
            &ctx,
            (0..12usize).collect(),
            || (),
            |(), i| {
                assert!(i != 5, "worker blew up");
                if i == 2 || i == 9 {
                    return Err(OptError::NoDevicesDeployed);
                }
                Ok(i)
            },
        )
        .unwrap_err();
        assert_eq!(failure.error, OptError::NoDevicesDeployed);
        assert_eq!(failure.completed(), 9);
        assert!(failure.partial[2].is_none());
        assert!(failure.partial[5].is_none());
        assert!(failure.partial[9].is_none());
        assert_eq!(failure.partial[0], Some(0));
    }

    #[test]
    fn panic_is_reported_with_its_index() {
        let ctx = RunContext::unbounded();
        let failure = supervised_map(
            &ctx,
            (0..8usize).collect(),
            || (),
            |(), i| {
                assert!(i != 3, "boom");
                Ok::<usize, OptError>(i)
            },
        )
        .unwrap_err();
        match &failure.error {
            OptError::WorkerPanicked { index, payload } => {
                assert_eq!(*index, 3);
                assert!(payload.contains("boom"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(failure.completed(), 7);
    }

    #[test]
    fn budgeted_map_returns_prefix_partials() {
        let ctx = RunContext::unbounded().probe_budget(4);
        let failure = supervised_map(
            &ctx,
            (0..10usize).collect(),
            || (),
            |(), i| Ok::<usize, OptError>(i + 1),
        )
        .unwrap_err();
        match failure.error {
            OptError::DeadlineExceeded {
                completed,
                remaining,
            } => {
                assert_eq!(completed, 4);
                assert_eq!(remaining, 6);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        for (i, p) in failure.partial.iter().enumerate() {
            if i < 4 {
                assert_eq!(*p, Some(i + 1));
            } else {
                assert!(p.is_none());
            }
        }
    }

    #[test]
    fn cancelled_map_reports_cancellation() {
        let ctx = RunContext::unbounded();
        ctx.token().cancel();
        let failure = supervised_map(
            &ctx,
            (0..5usize).collect(),
            || (),
            |(), i| Ok::<usize, OptError>(i),
        )
        .unwrap_err();
        assert_eq!(failure.error, OptError::Cancelled { completed: 0 });
        assert_eq!(failure.completed(), 0);
    }

    #[test]
    fn candidate_score_round_trips() {
        let score = CandidateScore {
            device_count: 7,
            current: Amperes(3.25),
            peak: Celsius(81.123_456_789),
            tec_power: Watts(0.75),
            evaluations: 42,
        };
        let enc = score.encode();
        assert_eq!(CandidateScore::decode(&enc), Some(score));
        assert!(CandidateScore::decode("7 deadbeef").is_none());
        assert!(CandidateScore::decode("").is_none());
    }

    #[test]
    fn checkpointed_map_resumes_without_rerunning() {
        use std::sync::atomic::AtomicUsize;
        let dir = std::env::temp_dir().join("tecopt-supervise-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume-unit.ckpt");
        let _ = std::fs::remove_file(&path);

        let score = |i: usize| CandidateScore {
            device_count: i,
            current: Amperes(i as f64 * 0.5),
            peak: Celsius(80.0 - i as f64),
            tec_power: Watts(0.1 * i as f64),
            evaluations: i,
        };
        let runs = AtomicUsize::new(0);
        let fp = fingerprint("unit-test");

        // First attempt: budget of 3 admits items 0..3 only.
        let ctx = RunContext::unbounded().probe_budget(3).checkpoint(&path);
        let failure = checkpointed_map(
            &ctx,
            fp,
            (0..6usize).collect(),
            || (),
            |(), i| {
                runs.fetch_add(1, Ordering::Relaxed);
                Ok(score(i))
            },
        )
        .unwrap_err();
        assert_eq!(failure.completed(), 3);
        assert_eq!(runs.load(Ordering::Relaxed), 3);

        // Resume: the three recorded items are not re-run.
        let ctx = RunContext::unbounded().checkpoint(&path);
        let out = checkpointed_map(
            &ctx,
            fp,
            (0..6usize).collect(),
            || (),
            |(), i| {
                runs.fetch_add(1, Ordering::Relaxed);
                Ok(score(i))
            },
        )
        .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 6, "only items 3..6 re-ran");
        let expected: Vec<CandidateScore> = (0..6).map(score).collect();
        assert_eq!(out, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join("tecopt-supervise-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale-unit.ckpt");
        let _ = std::fs::remove_file(&path);

        let run = |fp: u64| {
            let ctx = RunContext::unbounded().checkpoint(&path);
            checkpointed_map(
                &ctx,
                fp,
                (0..2usize).collect(),
                || (),
                |(), i| {
                    Ok(CandidateScore {
                        device_count: i,
                        current: Amperes(0.0),
                        peak: Celsius(0.0),
                        tec_power: Watts(0.0),
                        evaluations: 0,
                    })
                },
            )
        };
        run(fingerprint("params A")).unwrap();
        let failure = run(fingerprint("params B")).unwrap_err();
        assert!(matches!(failure.error, OptError::InvalidParameter(_)));
        assert!(failure.error.to_string().contains("stale checkpoint"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_resume_against_another_device_is_refused_as_stale() {
        let dir = std::env::temp_dir().join("tecopt-supervise-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("score-device-unit.ckpt");
        let _ = std::fs::remove_file(&path);
        let config = crate::PackageConfig::hotspot41_like(4, 4).unwrap();
        let params = crate::TecParams::superlattice_thin_film();
        let system = |params: crate::TecParams| {
            CoolingSystem::new(&config, params, &[], vec![Watts(0.2); 16]).unwrap()
        };
        let candidates = vec![vec![TileIndex::new(1, 1)]];
        let ctx = RunContext::unbounded().checkpoint(&path);
        let settings = CurrentSettings::default();
        score_candidates(&system(params.clone()), &candidates, settings, &ctx).unwrap();
        let other = params.with_contact_scale(2.0).unwrap();
        let failure = score_candidates(&system(other), &candidates, settings, &ctx).unwrap_err();
        assert!(failure.error.to_string().contains("stale checkpoint"));
        // The same device resumes from the checkpoint.
        score_candidates(&system(params), &candidates, settings, &ctx).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
