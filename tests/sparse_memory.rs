//! Memory regression guard for the sparse solve path: at a 32×32-tile
//! package (n ≈ 2.3k nodes, where one dense `n×n` matrix of `f64` is
//! ≈ 40 MB) a system with a few TECs is solved at three currents, its
//! runaway limit is searched, and 20 transient steps are taken. The peak
//! resident set (`VmHWM` of `/proc/self/status`) may grow by no more than
//! [`GROWTH_BOUND_MB`]: one dense matrix anywhere on those paths breaks it.
//!
//! The test is alone in its binary so no other test's allocations count
//! against it. Where `/proc/self/status` does not exist it prints a note
//! and passes without measuring.

use tecopt::transient::TransientSimulator;
use tecopt::{runaway_limit, CoolingSystem, PackageConfig, TecParams, TileIndex};
use tecopt_units::{Amperes, Watts};

/// Growth of the peak resident set allowed over the whole scenario.
///
/// Measured on Linux x86-64: the scenario raises `VmHWM` by ≈ 5 MB (the
/// CSR `G`, the solver workspaces, the Cholesky factors and the transient
/// steppers are each well under 1 MB at this size), where the same
/// scenario with a dense workspace raised it by ≈ 147 MB. 12 MB leaves
/// room for allocator and platform variation and stays far under the
/// ≈ 40 MB of a single dense `n×n` matrix.
const GROWTH_BOUND_MB: f64 = 12.0;

/// `VmHWM` in MB, or `None` where `/proc/self/status` is not available.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
fn sparse_solve_paths_hold_no_dense_matrix() {
    let Some(before) = peak_rss_mb() else {
        println!("note: /proc/self/status is unavailable; peak-RSS guard skipped");
        return;
    };
    let config = PackageConfig::hotspot41_like(32, 32).unwrap();
    let n_tiles = config.grid().tile_count();
    let mut powers = vec![Watts(0.02); n_tiles];
    for k in [33, 34, 65, 66, 500, 501] {
        powers[k] = Watts(0.6);
    }
    let tiles: Vec<TileIndex> = [(1, 1), (1, 2), (2, 1), (2, 2), (15, 20), (15, 21)]
        .into_iter()
        .map(|(r, c)| TileIndex::new(r, c))
        .collect();
    let system = CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &tiles,
        powers.clone(),
    )
    .unwrap();
    let n = system.stamped().model().node_count();
    assert!(n > 2000, "n = {n}");

    let lim = runaway_limit(&system, 1e-9).unwrap();
    let lambda = lim.feasible().value();
    for fraction in [0.2, 0.5, 0.8] {
        let state = system.solve(Amperes(fraction * lambda)).unwrap();
        assert!(state.peak().value().is_finite());
    }
    let mut sim = TransientSimulator::new(system, 1e-3).unwrap();
    for step in 0..20 {
        let current = if step < 10 { 0.3 } else { 0.6 } * lambda;
        sim.step(&powers, Amperes(current)).unwrap();
    }

    let after = peak_rss_mb().expect("VmHWM readable twice");
    let dense_mb = (n * n * 8) as f64 / (1024.0 * 1024.0);
    println!("n = {n}: VmHWM {before:.1} -> {after:.1} MB; one dense n×n is {dense_mb:.1} MB");
    assert!(
        after - before < GROWTH_BOUND_MB,
        "peak RSS grew by {:.1} MB (bound {GROWTH_BOUND_MB} MB; one dense n×n is {dense_mb:.1} MB)",
        after - before
    );
}
