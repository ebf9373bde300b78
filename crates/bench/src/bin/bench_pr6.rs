//! PR-6 acceptance benchmark: transient playback throughput and the cost
//! of the safety envelope.
//!
//! Three measurements on the 4x4 hotspot41-like system, all driving the
//! guarded implicit stepper through `run_schedule_supervised` with a
//! constant-current policy (one factorization key, the cache's best case
//! and the refactor path's representative worst case):
//!
//! - **reuse** — factorization caching on (the default): one sparse
//!   Cholesky factorization up front, two triangular solves per step after.
//! - **refactor** — caching off (`set_factorization_reuse(false)`), the
//!   equivalence oracle: the system matrix reassembled and refactored on
//!   the simulator's shared Cholesky pattern every step. The
//!   reuse/refactor steps/s ratio is the headline speedup and must be
//!   ≥ 5x.
//! - **enveloped** — caching on, the same policy wrapped in a
//!   `SafetyEnvelope`. The per-step clamp is a handful of comparisons
//!   against a triangular solve; its overhead must stay ≤ 2%.
//!
//! A sparse-Cholesky step costs a few microseconds, so a whole playback
//! lasts a fraction of a second while the wall clock of a shared machine
//! drifts by tens of percent over seconds: two identical configurations
//! timed as separate playbacks differ by up to ±20%. The reuse and
//! enveloped playbacks therefore advance side by side on two simulators,
//! in chunks of `STEPS / CHUNKS` steps through the same
//! `run_schedule_supervised` path, alternating which goes first and
//! which simulator serves which configuration. The
//! overhead is the median over chunks of the enveloped/reuse time ratio,
//! and the reuse rate is the whole reuse playback's steps per second.
//!
//! The speedup is estimated the same way: `PAIRS` pairs of one reuse and
//! one refactor playback, run back to back with the first of the pair
//! alternating, and the median of the per-pair steps/s ratios is held
//! against the gate, printed with the range of the ratios. A single
//! best-of-five refactor rate against a separate reuse playback read
//! 4.04–7.08x across runs of one build, a spread wider than the gate's
//! own margin. The reuse and refactor
//! trajectories must agree bit-exactly — the oracle property the unit
//! suite pins — and the solve-site guard is armed throughout, so the
//! timings include its per-step check. Emits JSON on stdout; the
//! committed copy lives at `BENCH_PR6.json`.

#![warn(clippy::unwrap_used)]

use std::time::Instant;

use tecopt::transient::{
    ConstantCurrent, TecController, TransientSample, TransientSimulator, TransientTrace,
};
use tecopt::{
    runaway_limit, CoolingSystem, EnvelopeSettings, EnvelopedController, OptError, PackageConfig,
    RunContext, SafetyEnvelope, TecParams, TileIndex,
};
use tecopt_units::{Amperes, Watts};

const DT: f64 = 0.5;
const STEPS: usize = 100_000;
/// The refactor oracle is an order of magnitude slower per step; a
/// shorter schedule keeps its wall time bounded without biasing the
/// steps/s ratio (both rates are normalized per step).
const REFACTOR_STEPS: usize = 1_000;
/// Reuse steps per speedup pair: long enough that the one factorization
/// up front is amortized like the full playback's.
const PAIR_REUSE_STEPS: usize = 10 * REFACTOR_STEPS;
/// Interleaved reuse/refactor pairs behind the speedup's median.
const PAIRS: usize = 15;
/// Interleaved chunks of the reuse/enveloped comparison.
const CHUNKS: usize = 200;

fn bench_system() -> Result<CoolingSystem, OptError> {
    let config = PackageConfig::hotspot41_like(4, 4)?;
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
        powers,
    )
}

fn schedule(steps: usize) -> Vec<(f64, Vec<Watts>)> {
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    vec![(steps as f64 * DT, powers)]
}

/// One timed playback on a fresh simulator: `(wall seconds, trace)`.
fn time_once(
    system: &CoolingSystem,
    guard: Amperes,
    steps: usize,
    reuse: bool,
    controller: &mut (dyn TecController + Send),
) -> Result<(f64, TransientTrace), String> {
    let sched = schedule(steps);
    let ctx = RunContext::unbounded();
    let mut sim = simulator(system, guard, reuse)?;
    let start = Instant::now();
    let trace = sim
        .run_schedule_supervised(&sched, controller, &ctx)
        .map_err(|f| format!("playback failed: {}", f.error))?;
    let elapsed = start.elapsed().as_secs_f64();
    if trace.samples().len() != steps {
        return Err(format!(
            "short trace: {} of {steps} steps",
            trace.samples().len()
        ));
    }
    Ok((elapsed, trace))
}

fn simulator(
    system: &CoolingSystem,
    guard: Amperes,
    reuse: bool,
) -> Result<TransientSimulator, String> {
    let mut sim = TransientSimulator::new(system.clone(), DT)
        .map_err(|e| format!("simulator setup failed: {e}"))?;
    sim.set_guard(guard)
        .map_err(|e| format!("guard setup failed: {e}"))?;
    sim.set_factorization_reuse(reuse);
    Ok(sim)
}

/// The reuse and enveloped playbacks of `STEPS` steps, interleaved chunk
/// by chunk (see the module docs): `(reuse seconds, enveloped seconds,
/// median enveloped/reuse chunk-time ratio, reuse samples, enveloped
/// samples)`.
type Interleaved = (f64, f64, f64, Vec<TransientSample>, Vec<TransientSample>);

fn interleaved_playbacks(
    system: &CoolingSystem,
    guard: Amperes,
    plain: &mut (dyn TecController + Send),
    enveloped: &mut (dyn TecController + Send),
) -> Result<Interleaved, String> {
    let chunk = schedule(STEPS / CHUNKS);
    let ctx = RunContext::unbounded();
    let mut sims = [
        simulator(system, guard, true)?,
        simulator(system, guard, true)?,
    ];
    let controllers: [&mut (dyn TecController + Send); 2] = [plain, enveloped];
    let mut samples: [Vec<TransientSample>; 2] = [Vec::new(), Vec::new()];
    let mut totals = [0.0_f64; 2];
    let mut ratios = Vec::with_capacity(CHUNKS);
    for c in 0..CHUNKS {
        let mut took = [0.0_f64; 2];
        // A clean command stream leaves both simulators in the same
        // state after every chunk, so they swap configurations each chunk
        // (cancelling any memory-layout bias between them) and the
        // configurations swap turns every other chunk.
        let order = if (c / 2) % 2 == 0 { [0, 1] } else { [1, 0] };
        for k in order {
            let start = Instant::now();
            let trace = sims[(k + c) % 2]
                .run_schedule_supervised(&chunk, &mut *controllers[k], &ctx)
                .map_err(|f| format!("playback failed: {}", f.error))?;
            took[k] = start.elapsed().as_secs_f64();
            samples[k].extend_from_slice(trace.samples());
        }
        totals[0] += took[0];
        totals[1] += took[1];
        ratios.push(took[1] / took[0]);
    }
    ratios.sort_by(f64::total_cmp);
    let [reuse, enveloped] = samples;
    Ok((totals[0], totals[1], median(&ratios), reuse, enveloped))
}

/// The reuse/refactor speedup over `PAIRS` interleaved pairs (see the
/// module docs): `(sorted per-pair steps/s ratios, median refactor
/// steps/s, the last refactor trace)`.
fn speedup_pairs(
    system: &CoolingSystem,
    guard: Amperes,
    current: Amperes,
) -> Result<(Vec<f64>, f64, TransientTrace), String> {
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut refactor_rates = Vec::with_capacity(PAIRS);
    let mut refactor_trace = TransientTrace::default();
    for pair in 0..PAIRS {
        let mut rates = [0.0_f64; 2];
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for k in order {
            let (steps, reuse) = [(PAIR_REUSE_STEPS, true), (REFACTOR_STEPS, false)][k];
            let (elapsed, trace) =
                time_once(system, guard, steps, reuse, &mut ConstantCurrent(current))?;
            rates[k] = steps as f64 / elapsed;
            if !reuse {
                refactor_trace = trace;
            }
        }
        ratios.push(rates[0] / rates[1]);
        refactor_rates.push(rates[1]);
    }
    ratios.sort_by(f64::total_cmp);
    refactor_rates.sort_by(f64::total_cmp);
    Ok((ratios, median(&refactor_rates), refactor_trace))
}

/// The median of a sorted, nonempty slice.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    0.5 * (sorted[(n - 1) / 2] + sorted[n / 2])
}

fn main() -> Result<(), String> {
    let system = bench_system().map_err(|e| format!("system setup failed: {e}"))?;
    let lambda = runaway_limit(&system, 1e-9)
        .map_err(|e| format!("runaway limit failed: {e}"))?
        .lambda();
    let safe = Amperes(lambda.value() * 0.4);

    // One untimed playback warms caches and clock scaling before the
    // timed measurements.
    time_once(&system, lambda, STEPS, true, &mut ConstantCurrent(safe))?;

    let mut enveloped = EnvelopedController::new(
        ConstantCurrent(safe),
        SafetyEnvelope::new(lambda, EnvelopeSettings::default())
            .map_err(|e| format!("envelope setup failed: {e}"))?,
    );
    let (reuse_s, envelope_s, envelope_ratio, reuse_trace, envelope_trace) =
        interleaved_playbacks(&system, lambda, &mut ConstantCurrent(safe), &mut enveloped)?;
    if reuse_trace.len() != STEPS {
        return Err(format!(
            "short trace: {} of {STEPS} steps",
            reuse_trace.len()
        ));
    }

    let (speedups, refactor_rate, refactor_trace) = speedup_pairs(&system, lambda, safe)?;

    // The cached path must be the oracle's trajectory, bit for bit, over
    // the oracle's (shorter) schedule prefix.
    for (a, b) in reuse_trace.iter().zip(refactor_trace.samples()) {
        if a.peak.value().to_bits() != b.peak.value().to_bits() {
            return Err(format!(
                "reuse/refactor divergence at t={}: {:?} vs {:?}",
                a.time, a.peak, b.peak
            ));
        }
    }
    // A clean command stream passes through the envelope unchanged.
    if envelope_trace != reuse_trace {
        return Err("envelope perturbed a clean command stream".into());
    }

    let reuse_rate = STEPS as f64 / reuse_s;
    let speedup = median(&speedups);
    let (lo, hi) = (speedups[0], speedups[PAIRS - 1]);
    let overhead_pct = (envelope_ratio - 1.0) * 100.0;

    eprintln!(
        "reuse={reuse_rate:.0} steps/s refactor={refactor_rate:.0} steps/s \
         speedup={speedup:.2}x (median of {PAIRS} pairs, range {lo:.2}-{hi:.2}x) \
         envelope_overhead={overhead_pct:.3}%"
    );
    if speedup < 5.0 {
        return Err(format!(
            "factorization reuse speedup {speedup:.2}x is below the 5x target"
        ));
    }
    if overhead_pct > 2.0 {
        return Err(format!(
            "envelope overhead {overhead_pct:.3}% exceeds the 2% target"
        ));
    }

    println!(
        "{{\n  \"bench\": \"bench_pr6\",\n  \"description\": \"transient playback throughput on a 4x4 hotspot41-like system: implicit steps at dt={DT} s under a constant-current policy with the solve-site guard armed; reuse = factorization cache on ({STEPS} steps), refactor = per-step reassembly and sparse refactorization oracle on the shared Cholesky pattern ({REFACTOR_STEPS} steps, bit-identical trajectory enforced), enveloped = reuse plus the SafetyEnvelope clamp; reuse and enveloped advance side by side in {CHUNKS} alternating chunks, their steps/s are whole-playback rates and the envelope overhead is the median chunk-time ratio; the speedup is the median steps/s ratio of {PAIRS} interleaved pairs of a {PAIR_REUSE_STEPS}-step reuse and a {REFACTOR_STEPS}-step refactor playback, and the refactor steps/s the median over those pairs\",\n  \"steps\": {STEPS},\n  \"refactor_steps\": {REFACTOR_STEPS},\n  \"dt_seconds\": {DT},\n  \"steps_per_second\": {{ \"reuse\": {reuse_rate:.0}, \"refactor\": {refactor_rate:.0}, \"enveloped\": {:.0} }},\n  \"factorization_reuse_speedup\": {speedup:.2},\n  \"factorization_reuse_speedup_range\": [{lo:.2}, {hi:.2}],\n  \"envelope_overhead_pct\": {overhead_pct:.3},\n  \"targets\": {{ \"min_speedup\": 5.0, \"max_envelope_overhead_pct\": 2.0 }}\n}}",
        STEPS as f64 / envelope_s,
    );
    Ok(())
}
