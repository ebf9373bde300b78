//! Cross-backend and parallel-determinism guarantees of the solver stack:
//! the CG backend and the `Auto` backend's sparse Cholesky must agree with
//! the dense Cholesky oracle on real paper systems to the documented 1e-8
//! relative tolerance, and every parallelized sweep must be bit-identical
//! to its sequential semantics.

use tecopt::runaway::sweep_fractions;
use tecopt::{
    certify_convexity, evaluate_deployments, optimize_current, ConvexitySettings, CoolingSystem,
    CurrentSettings, OptError, PackageConfig, TecParams, TileIndex,
};
use tecopt_linalg::{CgSettings, SolveMethod, SolverBackend};
use tecopt_units::{Amperes, Watts};

fn paper_system(rows: usize, cols: usize) -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(rows, cols).unwrap();
    let mut powers = vec![Watts(0.05); rows * cols];
    powers[cols + 1] = Watts(0.6);
    powers[rows * cols / 2] = Watts(0.4);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1)],
        powers,
    )
    .unwrap()
}

#[test]
fn sparse_backend_matches_dense_on_paper_systems() {
    for (rows, cols) in [(4, 4), (8, 8)] {
        let dense = paper_system(rows, cols).with_backend(SolverBackend::DenseCholesky);
        let sparse =
            paper_system(rows, cols).with_backend(SolverBackend::SparseCg(CgSettings::default()));
        for i in [0.0, 1.0, 2.5] {
            let a = dense.solve(Amperes(i)).unwrap();
            let b = sparse.solve(Amperes(i)).unwrap();
            let scale = a
                .node_temperatures()
                .iter()
                .map(|t| t.value().abs())
                .fold(1.0, f64::max);
            for (x, y) in a.node_temperatures().iter().zip(b.node_temperatures()) {
                assert!(
                    (x.value() - y.value()).abs() <= 1e-8 * scale,
                    "{rows}x{cols} at i={i}: dense {} vs sparse {}",
                    x.value(),
                    y.value()
                );
            }
            assert!((a.peak().value() - b.peak().value()).abs() <= 1e-8 * scale);
        }
    }
}

#[test]
fn auto_uses_the_sparse_cholesky_at_every_size() {
    // Auto has no size/density crossover: every grid, from 4x4 (n = 277)
    // to 32x32 (n = 2293), factors with the sparse Cholesky — a direct
    // method, not CG — and matches a forced dense Cholesky.
    for (rows, cols) in [(4, 4), (12, 12), (32, 32)] {
        let auto = paper_system(rows, cols);
        assert_eq!(auto.backend(), SolverBackend::Auto);
        let sparse_state = auto.solve(Amperes(1.0)).unwrap();
        assert_eq!(sparse_state.solve_method(), SolveMethod::Cholesky);
        let forced = paper_system(rows, cols).with_backend(SolverBackend::DenseCholesky);
        let dense_state = forced.solve(Amperes(1.0)).unwrap();
        let scale = dense_state
            .node_temperatures()
            .iter()
            .map(|t| t.value().abs())
            .fold(1.0, f64::max);
        for (x, y) in sparse_state
            .node_temperatures()
            .iter()
            .zip(dense_state.node_temperatures())
        {
            assert!(
                (x.value() - y.value()).abs() <= 1e-8 * scale,
                "{rows}x{cols}: auto {} vs dense {}",
                x.value(),
                y.value()
            );
        }
        assert!(
            (sparse_state.peak().value() - dense_state.peak().value()).abs() <= 1e-8 * scale,
            "{rows}x{cols}: auto {} vs dense {}",
            sparse_state.peak().value(),
            dense_state.peak().value()
        );
    }
}

#[test]
fn parallel_runaway_sweep_is_deterministic_and_matches_shared_solves() {
    let system = paper_system(4, 4);
    let fractions = [0.8, 0.05, 0.55, 0.3, 1.1, 0.95];
    let first = sweep_fractions(&system, &fractions, 1e-9).unwrap();
    let second = sweep_fractions(&system, &fractions, 1e-9).unwrap();
    assert_eq!(first.points, second.points, "sweep must be deterministic");
    for point in &first.points {
        match system.solve(point.current) {
            Ok(state) => {
                assert_eq!(point.peak.unwrap(), state.peak());
                assert_eq!(point.tec_power.unwrap(), state.tec_power());
            }
            Err(OptError::BeyondRunaway { .. }) => assert!(point.peak.is_none()),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}

#[test]
fn parallel_candidate_evaluation_is_deterministic() {
    let base = paper_system(4, 4).with_tiles(&[]).unwrap();
    let candidates: Vec<Vec<TileIndex>> = vec![
        vec![TileIndex::new(1, 1)],
        vec![TileIndex::new(2, 2)],
        vec![TileIndex::new(1, 1), TileIndex::new(2, 2)],
        vec![TileIndex::new(0, 0), TileIndex::new(3, 3)],
    ];
    let settings = CurrentSettings::default();
    let first = evaluate_deployments(&base, &candidates, settings).unwrap();
    let second = evaluate_deployments(&base, &candidates, settings).unwrap();
    for ((a, b), tiles) in first.iter().zip(&second).zip(&candidates) {
        assert_eq!(a.tiles(), &tiles[..]);
        assert_eq!(
            a.optimum().current().value(),
            b.optimum().current().value(),
            "evaluation of {tiles:?} must be bit-deterministic"
        );
        assert_eq!(
            a.optimum().state().peak().value(),
            b.optimum().state().peak().value()
        );
        let seq = optimize_current(&base.with_tiles(tiles).unwrap(), settings).unwrap();
        assert_eq!(
            a.optimum().state().peak().value(),
            seq.state().peak().value()
        );
    }
}

#[test]
fn parallel_convexity_certificate_is_deterministic() {
    let system = paper_system(4, 4);
    let settings = ConvexitySettings {
        subranges: 6,
        ..ConvexitySettings::default()
    };
    let first = certify_convexity(&system, settings).unwrap();
    let second = certify_convexity(&system, settings).unwrap();
    assert_eq!(first, second);
    assert!(first.is_certified());
    assert_eq!(first.probes, 6 * (settings.probes_per_subrange + 1));
}
