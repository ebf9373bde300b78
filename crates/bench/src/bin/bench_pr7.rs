//! PR-7 acceptance benchmark: greedy deployment through rank-k
//! factorization updates versus the PR-2 refactor-per-probe baseline.
//!
//! The measured workload is a full `greedy_deploy` on a 32x32
//! hotspot41-like package (≈2.3k thermal nodes) with
//! `FactorStrategy::RankKUpdate`: each placement evaluation performs one
//! dense `i = 0` Cholesky factorization and answers every line-search
//! solve with a rank-k Sherman–Morrison–Woodbury correction; its `λ_m`
//! search (shared with the default strategy) factors the Peltier-free
//! block once and answers every probe with a `k×k` Cholesky of the Schur
//! complement on the TEC terminal nodes.
//!
//! The baseline is the PR-2 path — a fresh dense factorization per probe.
//! Running it in full at this size takes minutes, so (as with the
//! `bench_pr6` refactor oracle) it is measured as a reduced slice: a few
//! real dense probe solves are wall-clocked, normalized per probe, and
//! multiplied by the exact probe count the refactor path would spend —
//! the per-placement `λ_m` bracket probes (the base factorization counted
//! as the `i = 0` probe) plus line-search evaluations,
//! re-counted with the fast optimizer on every greedy placement (both
//! strategies follow the same bracket and golden-section schedules).
//!
//! Two acceptance gates are enforced in-binary:
//!
//! - **speedup ≥ 5x** — fast greedy wall time versus the normalized
//!   refactor baseline;
//! - **peak drift ≤ 1e-8 °C** — every accepted greedy iteration is
//!   re-solved from scratch (fresh assembly, fresh dense factorization)
//!   at the *same* tiles and current, and the peaks must agree.
//!
//! Emits JSON on stdout; the committed copy lives at `BENCH_PR7.json`.

#![warn(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::time::Instant;

use tecopt::{
    greedy_deploy, optimize_current_with, runaway_limit, CoolingSystem, CurrentSettings,
    DeploySettings, FactorStrategy, OptError, PackageConfig, TecParams, TileIndex,
};
use tecopt_linalg::SolverBackend;
use tecopt_units::{Amperes, Celsius, Watts};

const GRID: usize = 32;
/// Dense probe solves wall-clocked for the per-probe baseline cost.
const BASELINE_PROBES: usize = 3;
/// Timed repetitions of the fast greedy deployment (best wall time wins).
const REPS: usize = 2;
const MIN_SPEEDUP: f64 = 5.0;
const MAX_PEAK_DRIFT: f64 = 1e-8;

fn bench_system() -> Result<CoolingSystem, OptError> {
    let config = PackageConfig::hotspot41_like(GRID, GRID)?;
    let mut powers = vec![Watts(0.05); GRID * GRID];
    // A few strong hotspots so the greedy loop deploys a handful of
    // devices instead of one or none.
    powers[8 * GRID + 8] = Watts(0.7);
    powers[20 * GRID + 20] = Watts(0.65);
    powers[10 * GRID + 22] = Watts(0.6);
    // The comparison under measurement is dense rank-k updates versus
    // dense refactorization (the PR-2 path); at this size Auto would
    // route both to the sparse CG backend and measure neither.
    CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers)
        .map(|s| s.with_backend(SolverBackend::DenseCholesky))
}

fn main() -> Result<(), String> {
    let base = bench_system().map_err(|e| format!("system setup failed: {e}"))?;
    let passive_peak = base
        .solve(Amperes(0.0))
        .map_err(|e| format!("passive solve failed: {e}"))?
        .peak();
    let limit = Celsius(passive_peak.value() - 1.0);
    let settings = DeploySettings::with_limit(limit).with_strategy(FactorStrategy::RankKUpdate);

    // One untimed deployment warms allocator and clock scaling.
    greedy_deploy(&base, settings).map_err(|e| format!("warm-up deploy failed: {e}"))?;

    let mut fast_s = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let out = greedy_deploy(&base, settings).map_err(|e| format!("fast deploy failed: {e}"))?;
        fast_s = fast_s.min(start.elapsed().as_secs_f64());
        outcome = Some(out);
    }
    let outcome = outcome.ok_or("no timed repetition ran")?;
    if !outcome.is_satisfied() {
        return Err(format!(
            "the {limit:?} limit should be achievable at this size"
        ));
    }
    let deployment = outcome.deployment();
    let iterations = deployment.iterations();
    if iterations.is_empty() {
        return Err("the workload must require at least one deployment iteration".into());
    }

    // Equivalence oracle: re-solve every accepted iteration from scratch
    // at matched tiles and current; fresh assembly, fresh factorization.
    let mut covered: BTreeSet<TileIndex> = BTreeSet::new();
    let mut max_drift = 0.0_f64;
    let mut placements: Vec<Vec<TileIndex>> = Vec::with_capacity(iterations.len());
    for it in iterations {
        covered.extend(it.added.iter().copied());
        let tiles: Vec<TileIndex> = covered.iter().copied().collect();
        let fresh = base
            .with_tiles(&tiles)
            .and_then(|s| s.solve(it.current))
            .map_err(|e| format!("oracle re-solve failed: {e}"))?;
        let drift = (fresh.peak().value() - it.peak.value()).abs();
        max_drift = max_drift.max(drift);
        if drift > MAX_PEAK_DRIFT {
            return Err(format!(
                "update/refactor peak drift {drift:.3e} °C at {} tiles exceeds {MAX_PEAK_DRIFT:.0e}",
                tiles.len()
            ));
        }
        placements.push(tiles);
    }

    // Probe ledger: what the refactor path would spend. The λ_m search
    // reports one probe per bracket step (the base factorization is the
    // i = 0 probe), which is the dense factorization count of the
    // refactor-per-probe search, and both strategies share the
    // golden-section schedule.
    let mut dense_probes = 0usize;
    for tiles in &placements {
        let system = base
            .with_tiles(tiles)
            .map_err(|e| format!("placement rebuild failed: {e}"))?;
        let opt = optimize_current_with(
            &system,
            CurrentSettings::default(),
            FactorStrategy::RankKUpdate,
        )
        .map_err(|e| format!("probe-count run failed: {e}"))?;
        dense_probes += opt.probes() + opt.evaluations();
    }

    // Per-probe dense cost: real from-scratch probe solves on the final
    // placement at distinct feasible currents (distinct keys defeat the
    // factorization cache, so each solve pays a full dense Cholesky).
    let final_system = base
        .with_tiles(placements.last().ok_or("no placements")?)
        .map_err(|e| format!("final rebuild failed: {e}"))?;
    let lim =
        runaway_limit(&final_system, 1e-9).map_err(|e| format!("runaway limit failed: {e}"))?;
    let feasible = lim.feasible().value();
    let start = Instant::now();
    for p in 0..BASELINE_PROBES {
        let i = Amperes(feasible * (0.3 + 0.2 * p as f64));
        final_system
            .solve(i)
            .map_err(|e| format!("baseline probe solve failed: {e}"))?;
    }
    let per_probe_s = start.elapsed().as_secs_f64() / BASELINE_PROBES as f64;
    let baseline_s = per_probe_s * dense_probes as f64;
    let speedup = baseline_s / fast_s;

    eprintln!(
        "grid={GRID}x{GRID} devices={} iterations={} fast={fast_s:.2}s \
         baseline={baseline_s:.1}s ({dense_probes} probes x {per_probe_s:.3}s) \
         speedup={speedup:.1}x max_drift={max_drift:.2e}",
        deployment.device_count(),
        iterations.len(),
    );
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "rank-k update speedup {speedup:.2}x is below the {MIN_SPEEDUP}x target"
        ));
    }

    println!(
        "{{\n  \"bench\": \"bench_pr7\",\n  \"description\": \"greedy TEC deployment on a {GRID}x{GRID} hotspot41-like package: FactorStrategy::RankKUpdate answers line-search solves with rank-k SMW corrections of one cached i=0 Cholesky factor and lambda probes with k x k Cholesky factorizations of the Schur complement on the TEC terminal nodes; baseline = the dense refactor-per-probe path, measured as {BASELINE_PROBES} real dense probe solves normalized per probe times the exact probe ledger; every accepted iteration re-solved from scratch at matched tiles and current must agree on the peak\",\n  \"grid\": {GRID},\n  \"devices\": {},\n  \"iterations\": {},\n  \"fast_deploy_seconds\": {fast_s:.3},\n  \"baseline_probe_count\": {dense_probes},\n  \"baseline_seconds_per_probe\": {per_probe_s:.4},\n  \"baseline_seconds\": {baseline_s:.2},\n  \"speedup\": {speedup:.2},\n  \"max_peak_drift_celsius\": {max_drift:.3e},\n  \"targets\": {{ \"min_speedup\": {MIN_SPEEDUP}, \"max_peak_drift_celsius\": {MAX_PEAK_DRIFT:.0e} }}\n}}",
        deployment.device_count(),
        iterations.len(),
    );
    Ok(())
}
