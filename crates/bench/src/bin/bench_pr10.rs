//! PR-10 acceptance benchmark: crash-safe exploration overhead and
//! parallel speedup for `tecopt-explore` (DESIGN.md §18).
//!
//! A 10k-candidate design grid is swept with a synthetic evaluator whose
//! cost is a fixed deterministic FP spin (~100µs), standing in for the
//! golden-section solve chain so the harness measures the *engine*, not
//! the physics. Three scenarios:
//!
//! - **serial** — a plain sequential loop over the enumerated candidates
//!   calling the evaluator directly: the no-engine baseline.
//! - **clean ledger sweep** — `explore_with` against a fresh durable
//!   ledger, uninterrupted. Gate: **speedup over serial ≥
//!   min(0.85 × workers, 8)** — the 8× target of the acceptance
//!   criteria binds on machines with enough cores to reach it.
//! - **killed at half + resume** — the same sweep killed by an admission
//!   budget at ~50% completion, then resumed from the ledger. Gates:
//!   **total wall time ≤ 1.02× the clean sweep** (resume overhead ≤ 2%)
//!   and **zero duplicated evaluations** (exactly one evaluator call per
//!   candidate across both halves, counted at the closure).
//!
//! The clean and killed sweeps run in `PAIRS` back-to-back pairs, the
//! first of each pair alternating, and the resume overhead held against
//! its gate is the median of the per-pair killed/clean wall-time ratios,
//! printed with their range. The best of two killed sweeps over the best
//! of two clean ones read 0.971–1.037 across runs of one build: a single
//! reading spreads wider than the 2% the gate allows. The speedup divides
//! the best of `REPS` serial loops by the best clean sweep of the first
//! `REPS` pairs, so both sides take the minimum over as many samples.
//!
//! Every scenario's Pareto front must be bit-identical. Emits JSON on
//! stdout; the committed copy lives at `BENCH_PR10.json`.

#![warn(clippy::unwrap_used)]

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tecopt::{CoolingSystem, OptError, PackageConfig, RunContext, TecParams, TileIndex};
use tecopt_explore::{
    Candidate, CandidateEval, CandidateFailure, DesignSpace, ExploreReport, ExploreSettings,
    Explorer, ParetoPoint, Placement,
};
use tecopt_units::{Amperes, Celsius, Watts};

/// 100 thickness scales x 25 contact scales x 4 placements.
const CANDIDATES: usize = 10_000;
/// Admission budget for the killed run: the kill lands at ~50%.
const KILL_AT: usize = CANDIDATES / 2;
/// Deterministic FP spin per evaluation (a few hundred us of
/// engine-independent work), so ledger and scheduling costs are measured
/// against a realistic per-candidate solve cost.
const SPIN_ITERS: u64 = 60_000;
/// Timed repetitions of the serial loop, and the pairs whose sweeps are
/// reported as `clean` and `killed`; the fastest of each is reported.
const REPS: usize = 2;
/// Interleaved clean / killed-and-resumed sweep pairs behind the resume
/// overhead's median. The median of 5 read 1.026, 1.005 and 1.008 in three
/// runs of one build: five pairs let noise alone cross the 2% gate.
const PAIRS: usize = 9;
const MAX_RESUME_OVERHEAD: f64 = 1.02;
/// The acceptance target: 8x parallel speedup, binding at >= 8 workers.
const SPEEDUP_TARGET: f64 = 8.0;

fn space() -> Result<DesignSpace, String> {
    DesignSpace::new(
        (0..100).map(|i| 0.5 + f64::from(i) * 0.015).collect(),
        (0..25).map(|i| 0.8 + f64::from(i) * 0.02).collect(),
        (0..4)
            .map(|c| Placement::Tiles(vec![TileIndex::new(0, c)]))
            .collect(),
        Celsius(85.0),
    )
    .map_err(|e| format!("design space rejected: {e}"))
}

/// The synthetic evaluation: a fixed-cost spin whose result is a pure
/// function of the candidate id, so every run — serial, parallel, or
/// stitched across a kill — must produce the same bits.
fn evaluate(cand: &Candidate) -> CandidateEval {
    let mut acc = cand.id as f64 / u64::MAX as f64 + 1.5;
    for i in 0..SPIN_ITERS {
        acc = (acc * 1.000_000_11 + i as f64 * 1e-12).fract() + 1.0;
    }
    black_box(acc);
    let frac = |shift: u32| ((cand.id >> shift) & 0xffff) as f64 / 65536.0;
    let peak = 55.0 + 35.0 * frac(7);
    CandidateEval {
        feasible: peak <= 85.0,
        devices: 1 + (cand.id % 5) as usize,
        current: Amperes(0.4 + frac(17)),
        peak: Celsius(peak),
        tec_power: Watts(0.1 + 4.0 * frac(31)),
        evaluations: 12,
    }
}

fn counted_eval(
    calls: &AtomicUsize,
) -> impl Fn(&Candidate) -> Result<CandidateEval, CandidateFailure> + Sync + '_ {
    move |cand| {
        calls.fetch_add(1, Ordering::Relaxed);
        Ok(evaluate(cand))
    }
}

fn front_bits(front: &[ParetoPoint]) -> Vec<[u64; 3]> {
    front
        .iter()
        .map(|p| {
            [
                p.id(),
                p.peak().value().to_bits(),
                p.tec_power().value().to_bits(),
            ]
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tecopt-bench-pr10-{}-{name}", std::process::id()))
}

fn interruption_ok(err: &OptError) -> bool {
    matches!(
        err,
        OptError::Cancelled { .. }
            | OptError::DeadlineExceeded { .. }
            | OptError::BudgetExhausted { .. }
    )
}

/// One clean ledger sweep against a fresh path. Returns the wall time
/// and the report.
fn clean_sweep(explorer: &Explorer, path: &PathBuf) -> Result<(Duration, ExploreReport), String> {
    let _ = std::fs::remove_file(path);
    let calls = AtomicUsize::new(0);
    let start = Instant::now();
    let report = explorer
        .explore_with(
            &RunContext::unbounded().checkpoint(path),
            counted_eval(&calls),
            |_| false,
        )
        .map_err(|e| format!("clean sweep failed: {e}"))?;
    let wall = start.elapsed();
    if calls.load(Ordering::Relaxed) != CANDIDATES {
        return Err(format!(
            "clean sweep made {} evaluator calls for {CANDIDATES} candidates",
            calls.load(Ordering::Relaxed)
        ));
    }
    Ok((wall, report))
}

/// Kill the sweep at ~50% with an admission budget, then resume from the
/// ledger. Returns total wall time across both halves, the final report,
/// and the total evaluator calls.
fn killed_sweep(
    explorer: &Explorer,
    path: &PathBuf,
) -> Result<(Duration, ExploreReport, usize), String> {
    let _ = std::fs::remove_file(path);
    let calls = AtomicUsize::new(0);
    let start = Instant::now();
    let killed = explorer.explore_with(
        &RunContext::unbounded()
            .probe_budget(KILL_AT)
            .checkpoint(path),
        counted_eval(&calls),
        |_| false,
    );
    match killed {
        Ok(_) => return Err("the admission budget never tripped".into()),
        Err(e) if interruption_ok(&e) => {}
        Err(e) => return Err(format!("killed half died with a non-interrupt: {e}")),
    }
    let report = explorer
        .explore_with(
            &RunContext::unbounded().checkpoint(path),
            counted_eval(&calls),
            |_| false,
        )
        .map_err(|e| format!("resume failed: {e}"))?;
    let wall = start.elapsed();
    if !report.resumed {
        return Err("the resumed sweep did not recover ledger state".into());
    }
    Ok((wall, report, calls.load(Ordering::Relaxed)))
}

/// The base package the space is bound to — the synthetic evaluator
/// never solves it, but the exploration identity (and so the ledger
/// fingerprint) digests it like any production sweep.
fn base_system() -> Result<CoolingSystem, String> {
    let config =
        PackageConfig::hotspot41_like(4, 4).map_err(|e| format!("package rejected: {e}"))?;
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[],
        vec![Watts(0.1); 16],
    )
    .map_err(|e| format!("system rejected: {e}"))
}

fn main() -> Result<(), String> {
    let space = space()?;
    if space.len() != CANDIDATES {
        return Err(format!(
            "grid is {} candidates, wanted {CANDIDATES}",
            space.len()
        ));
    }
    let explorer = Explorer::new(&base_system()?, space, ExploreSettings::default());
    let workers = tecopt::parallel::worker_count();

    // Baseline: a plain sequential loop, no engine, no ledger.
    let candidates = explorer.space().candidates();
    let mut serial = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for cand in &candidates {
            black_box(evaluate(cand));
        }
        serial = serial.min(start.elapsed());
    }

    // Clean ledger sweeps and killed-at-half + resume sweeps, in pairs.
    let clean_path = scratch("clean.ledger");
    let killed_path = scratch("killed.ledger");
    // The reference front; its sweep is not timed against the others.
    let (_, reference) = clean_sweep(&explorer, &clean_path)?;
    let mut clean = Duration::MAX;
    let mut killed = Duration::MAX;
    let mut duplicates = 0usize;
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let run_clean = || -> Result<Duration, String> {
            let (wall, report) = clean_sweep(&explorer, &clean_path)?;
            if front_bits(&report.front) != front_bits(&reference.front) {
                return Err("clean repetitions disagree on the front".into());
            }
            Ok(wall)
        };
        let run_killed = || -> Result<(Duration, usize), String> {
            let (wall, report, calls) = killed_sweep(&explorer, &killed_path)?;
            if front_bits(&report.front) != front_bits(&reference.front) {
                return Err("the stitched front is not bit-identical to the clean front".into());
            }
            Ok((wall, calls))
        };
        let (c, (k, calls)) = if pair % 2 == 0 {
            let c = run_clean()?;
            (c, run_killed()?)
        } else {
            let k = run_killed()?;
            (run_clean()?, k)
        };
        duplicates += calls.saturating_sub(CANDIDATES);
        if pair < REPS {
            clean = clean.min(c);
            killed = killed.min(k);
        }
        ratios.push(k.as_secs_f64() / c.as_secs_f64());
    }
    let _ = std::fs::remove_file(&clean_path);
    let _ = std::fs::remove_file(&killed_path);
    ratios.sort_by(f64::total_cmp);

    let speedup = serial.as_secs_f64() / clean.as_secs_f64();
    let required_speedup = (0.85 * workers as f64).min(SPEEDUP_TARGET);
    let overhead = 0.5 * (ratios[(PAIRS - 1) / 2] + ratios[PAIRS / 2]);
    let (lo, hi) = (ratios[0], ratios[PAIRS - 1]);

    eprintln!(
        "serial={}ms clean={}ms killed+resume={}ms workers={workers} \
         speedup={speedup:.2} (>= {required_speedup:.2}) overhead={overhead:.3} \
         (median of {PAIRS} pairs, range {lo:.3}-{hi:.3}) duplicates={duplicates}",
        serial.as_millis(),
        clean.as_millis(),
        killed.as_millis(),
    );
    if duplicates != 0 {
        return Err(format!(
            "{duplicates} duplicated evaluations across the kill"
        ));
    }
    if overhead > MAX_RESUME_OVERHEAD {
        return Err(format!(
            "killed+resume wall time is {overhead:.3}x the clean sweep, above the \
             {MAX_RESUME_OVERHEAD}x gate"
        ));
    }
    if speedup < required_speedup {
        return Err(format!(
            "parallel speedup is {speedup:.2}x serial, below the {required_speedup:.2}x \
             gate for {workers} workers"
        ));
    }

    println!(
        "{{\n  \"bench\": \"bench_pr10\",\n  \"description\": \"10k-candidate design grid \
swept by tecopt-explore with a deterministic fixed-cost synthetic evaluator; serial is a plain \
sequential loop, clean is an uninterrupted explore_with against a fresh durable ledger, \
killed_resume is the same sweep killed by an admission budget at 50% and resumed from the \
ledger; clean and killed_resume are the best of the first {REPS} of {PAIRS} interleaved pairs \
(as many samples as the serial loop) and the resume overhead is the median of the pairs' killed/clean ratios; fronts must be bit-identical across \
all scenarios\",\n  \
\"candidates\": {CANDIDATES},\n  \"spin_iters\": {SPIN_ITERS},\n  \
\"workers\": {workers},\n  \"serial_ms\": {},\n  \"clean_ledger_ms\": {},\n  \
\"killed_resume_ms\": {},\n  \"parallel_speedup\": {speedup:.3},\n  \
\"resume_overhead_ratio\": {overhead:.4},\n  \
\"resume_overhead_range\": [{lo:.4}, {hi:.4}],\n  \"duplicated_evaluations\": {duplicates},\n  \
\"front_points\": {},\n  \"targets\": {{ \"max_resume_overhead_ratio\": \
{MAX_RESUME_OVERHEAD}, \"min_speedup_this_machine\": {required_speedup:.2}, \
\"speedup_target_at_8_workers\": {SPEEDUP_TARGET} }}\n}}",
        serial.as_millis(),
        clean.as_millis(),
        killed.as_millis(),
        reference.front.len(),
    );
    Ok(())
}
