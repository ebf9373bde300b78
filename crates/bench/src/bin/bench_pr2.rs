//! PR-2 acceptance benchmark: the seed solve path (fresh `G - iD` stamping
//! plus a dense Cholesky factorization for every probe) against the
//! reused-workspace backend path (assemble once, shift the diagonal in
//! place, sparse CG past the `Auto` floor, candidates evaluated in
//! parallel) on designer-style candidate sweeps at 8x8 .. 32x32 grids.
//!
//! The timed workload is the fixed-current probe sweep of a candidate
//! evaluation — the `O(n^3)`-per-probe hot loop PR 2 rewired — with the
//! `lambda_m` bisection deliberately excluded so both paths solve exactly
//! the same systems. Emits JSON on stdout; the committed copy lives at
//! `BENCH_PR2.json` and the table in `EXPERIMENTS.md` summarizes it.

#![warn(clippy::unwrap_used)]

use std::time::Instant;

use tecopt::parallel::{par_map_init, worker_count};
use tecopt::{CoolingSystem, OptError, PackageConfig, TecParams, TileIndex};
use tecopt_linalg::{Cholesky, SolverBackend};
use tecopt_units::{Amperes, Watts};

/// Probe currents for every candidate: spans the low-current regime and the
/// paper's optimum neighbourhood without crossing runaway on any grid.
const PROBE_CURRENTS: [f64; 3] = [0.5, 1.0, 2.0];

fn base_system(rows: usize, cols: usize) -> Result<CoolingSystem, OptError> {
    let config = PackageConfig::hotspot41_like(rows, cols)?;
    let mut powers = vec![Watts(0.05); rows * cols];
    powers[cols + 1] = Watts(0.6);
    powers[rows * cols / 2] = Watts(0.4);
    CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers)
}

/// Designer-style candidate deployments: singles on the hotspot tiles plus
/// a couple of multi-TEC covers.
fn candidates(rows: usize, cols: usize) -> Vec<Vec<TileIndex>> {
    let center = TileIndex::new(rows / 2, cols / 2);
    vec![
        vec![TileIndex::new(1, 1)],
        vec![center],
        vec![TileIndex::new(rows - 2, cols - 2)],
        vec![TileIndex::new(1, 1), center],
    ]
}

/// The seed `CoolingSystem::solve` hot path before PR 2: every probe
/// restamps the dense system matrix and power vector from scratch and pays
/// a fresh `O(n^3)` Cholesky factorization.
fn seed_dense_sweep(base: &CoolingSystem, cands: &[Vec<TileIndex>]) -> Result<Vec<f64>, OptError> {
    let mut peaks = Vec::with_capacity(cands.len() * PROBE_CURRENTS.len());
    for tiles in cands {
        let sys = base.with_tiles(tiles)?;
        for &i in &PROBE_CURRENTS {
            let a = sys.stamped().system_matrix(Amperes(i))?;
            let p = sys.stamped().power_vector(sys.tile_powers(), Amperes(i))?;
            let theta = Cholesky::factor(&a)?.solve(&p)?;
            peaks.push(theta.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
    }
    Ok(peaks)
}

/// The PR-2 path: one workspace assembly per candidate, diagonal-shift
/// retargeting between probes, backend chosen by the `Auto` heuristic, and
/// candidates spread over worker threads exactly like the designer sweep.
fn cached_parallel_sweep(
    base: &CoolingSystem,
    cands: &[Vec<TileIndex>],
) -> Result<Vec<f64>, OptError> {
    let results: Vec<Result<Vec<f64>, OptError>> = par_map_init(
        cands.to_vec(),
        || (),
        |(), tiles| {
            let sys = base.with_tiles(&tiles)?;
            let mut solver = sys.solver()?;
            PROBE_CURRENTS
                .iter()
                .map(|&i| Ok(solver.solve(Amperes(i))?.peak().value()))
                .collect()
        },
    );
    let mut peaks = Vec::with_capacity(cands.len() * PROBE_CURRENTS.len());
    for r in results {
        peaks.extend(r?);
    }
    Ok(peaks)
}

/// Minimum wall-clock seconds over `reps` runs of `f`.
fn time_min<F: FnMut() -> Result<Vec<f64>, OptError>>(
    reps: usize,
    mut f: F,
) -> Result<(f64, Vec<f64>), OptError> {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        out = f()?;
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok((best, out))
}

/// Max relative node-temperature difference between a forced-dense and the
/// `Auto`-backend solve over every probe current on the first candidate.
fn dense_auto_agreement(base: &CoolingSystem, cands: &[Vec<TileIndex>]) -> Result<f64, OptError> {
    let auto = base.with_tiles(&cands[0])?;
    let dense = auto.clone().with_backend(SolverBackend::DenseCholesky);
    let mut worst: f64 = 0.0;
    for &i in &PROBE_CURRENTS {
        let a = auto.solve(Amperes(i))?;
        let d = dense.solve(Amperes(i))?;
        let scale = d
            .node_temperatures()
            .iter()
            .map(|t| t.value().abs())
            .fold(1.0, f64::max);
        for (x, y) in a.node_temperatures().iter().zip(d.node_temperatures()) {
            worst = worst.max((x.value() - y.value()).abs() / scale);
        }
    }
    Ok(worst)
}

fn run_grid(rows: usize, cols: usize, reps: usize) -> Result<String, OptError> {
    let base = base_system(rows, cols)?;
    let cands = candidates(rows, cols);
    let probe_count = cands.len() * PROBE_CURRENTS.len();
    let deployed = base.with_tiles(&cands[0])?;
    let n = deployed.stamped().model().node_count();
    let nnz = deployed.stamped().model().g_matrix().nnz();
    let method = format!("{:?}", deployed.solve(Amperes(1.0))?.solve_method());

    eprintln!("[{rows}x{cols}] n = {n}, nnz = {nnz}, auto backend = {method}");
    let (seed_s, seed_peaks) = time_min(reps, || seed_dense_sweep(&base, &cands))?;
    eprintln!("[{rows}x{cols}] seed dense sweep: {seed_s:.3} s");
    let (new_s, new_peaks) = time_min(reps, || cached_parallel_sweep(&base, &cands))?;
    eprintln!("[{rows}x{cols}] cached parallel sweep: {new_s:.3} s");
    assert_eq!(seed_peaks.len(), new_peaks.len());
    let agreement = dense_auto_agreement(&base, &cands)?;
    let speedup = seed_s / new_s;
    eprintln!("[{rows}x{cols}] speedup {speedup:.1}x, dense-vs-auto rel diff {agreement:.3e}");

    Ok(format!(
        "    {{\n      \"grid\": \"{rows}x{cols}\",\n      \"nodes\": {n},\n      \"nnz\": {nnz},\n      \"density\": {:.6},\n      \"auto_backend\": \"{method}\",\n      \"candidates\": {},\n      \"probes\": {probe_count},\n      \"seed_dense_seconds\": {seed_s:.6},\n      \"cached_parallel_seconds\": {new_s:.6},\n      \"speedup\": {speedup:.2},\n      \"max_rel_diff_dense_vs_auto\": {agreement:.3e}\n    }}",
        nnz as f64 / (n * n) as f64,
        cands.len(),
    ))
}

fn main() -> Result<(), OptError> {
    let threads = worker_count();
    let mut rows = Vec::new();
    for (r, c, reps) in [(8usize, 8usize, 5usize), (16, 16, 3), (32, 32, 1)] {
        rows.push(run_grid(r, c, reps)?);
    }
    println!(
        "{{\n  \"bench\": \"bench_pr2\",\n  \"description\": \"seed dense per-probe restamp+factor vs PR-2 cached-workspace backend path with parallel candidate evaluation; fixed probe currents {PROBE_CURRENTS:?}, lambda_m bisection excluded\",\n  \"worker_threads\": {threads},\n  \"grids\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );
    Ok(())
}
