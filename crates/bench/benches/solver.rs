//! Criterion bench for the linear-algebra kernels that dominate every
//! experiment: sparse Cholesky factorization/solve at the compact-model
//! sizes, CG on the fine-grid systems, the backend comparison (sparse
//! Cholesky, the dense oracle and CG behind `FactoredSystem`, plus the
//! cached-workspace hot path) on real paper-scale compact models, and the
//! ordering / factor / solve split of the sparse Cholesky against the
//! dense kernel at 12×12, 32×32 and 64×64 tiles.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tecopt::{CoolingSystem, PackageConfig, TecParams, TileIndex};
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{
    conjugate_gradient, CgSettings, Cholesky, CholeskyPattern, CsrMatrix, DenseCholesky,
    FactoredSystem, ResolvedBackend, Triplet,
};
use tecopt_thermal::TileGrid;
use tecopt_units::{Amperes, Meters, Watts};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);
    for n in [128usize, 256, 512] {
        let a = random_stieltjes(
            StieltjesSampler {
                dim: n,
                density: 0.02,
                ..StieltjesSampler::default()
            },
            &mut seeded_rng(1),
        );
        group.bench_with_input(BenchmarkId::new("cholesky_factor", n), &n, |b, _| {
            b.iter(|| Cholesky::factor(&a).expect("spd"))
        });
        let chol = Cholesky::factor(&a).expect("spd");
        let rhs: Vec<f64> = (0..n).map(|k| (k as f64).sin()).collect();
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |b, _| {
            b.iter(|| chol.solve(&rhs).expect("solve"))
        });
    }
    // CG on a 2-D Laplacian of fine-grid scale.
    let side = 100usize;
    let idx = |i: usize, j: usize| i * side + j;
    let mut trips = Vec::new();
    for i in 0..side {
        for j in 0..side {
            trips.push(Triplet::new(idx(i, j), idx(i, j), 4.01));
            if i > 0 {
                trips.push(Triplet::new(idx(i, j), idx(i - 1, j), -1.0));
            }
            if i + 1 < side {
                trips.push(Triplet::new(idx(i, j), idx(i + 1, j), -1.0));
            }
            if j > 0 {
                trips.push(Triplet::new(idx(i, j), idx(i, j - 1), -1.0));
            }
            if j + 1 < side {
                trips.push(Triplet::new(idx(i, j), idx(i, j + 1), -1.0));
            }
        }
    }
    let sparse = CsrMatrix::from_triplets(side * side, side * side, &trips).expect("laplacian");
    let b = vec![1.0; side * side];
    group.bench_function("cg_laplacian_10k", |bch| {
        bch.iter(|| conjugate_gradient(&sparse, &b, CgSettings::default()).expect("cg"))
    });
    group.finish();
}

/// Paper-style compact model on an `rows x cols` grid with a hotspot power
/// map and one TEC deployed — the same family the backend-equivalence
/// tests exercise, at bench scale.
fn paper_grid_system(rows: usize, cols: usize) -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(rows, cols).expect("package");
    grid_system(&config)
}

/// [`paper_grid_system`] on an arbitrary package.
fn grid_system(config: &PackageConfig) -> CoolingSystem {
    let (rows, cols) = (config.grid().rows(), config.grid().cols());
    let mut powers = vec![Watts(0.05); rows * cols];
    powers[cols + 1] = Watts(0.6);
    powers[rows * cols / 2] = Watts(0.4);
    CoolingSystem::new(
        config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1)],
        powers,
    )
    .expect("system")
}

/// Backend comparison: factor-and-solve cost of the sparse Cholesky, the
/// dense oracle and Jacobi-CG on the stamped `G` of 8x8 .. 32x32 paper
/// grids, plus the end-to-end cached-workspace solve (`CoolingSystem::solve`
/// with the `Auto` backend, factorization reused across iterations).
fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend");
    group.sample_size(3);
    group.measurement_time(Duration::from_millis(200));
    for (rows, cols) in [(8usize, 8usize), (16, 16), (32, 32)] {
        let system = paper_grid_system(rows, cols);
        let g = system.stamped().model().g_matrix().clone();
        let n = g.rows();
        let label = format!("{rows}x{cols}_n{n}");
        let rhs: Vec<f64> = (0..n)
            .map(|k| 0.1 + (k as f64 * 0.13).sin().abs())
            .collect();
        group.bench_with_input(BenchmarkId::new("cholesky", &label), &n, |b, _| {
            b.iter(|| {
                FactoredSystem::factor(&g, ResolvedBackend::Cholesky)
                    .expect("pd")
                    .solve(&rhs)
                    .expect("solve")
            })
        });
        group.bench_with_input(BenchmarkId::new("dense_cholesky", &label), &n, |b, _| {
            b.iter(|| {
                FactoredSystem::factor(&g, ResolvedBackend::DenseCholesky)
                    .expect("pd")
                    .solve(&rhs)
                    .expect("solve")
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse_cg", &label), &n, |b, _| {
            b.iter(|| {
                FactoredSystem::factor(&g, ResolvedBackend::SparseCg(CgSettings::default()))
                    .expect("assemble")
                    .solve(&rhs)
                    .expect("solve")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("cached_workspace_solve", &label),
            &n,
            |b, _| b.iter(|| system.solve(Amperes(1.0)).expect("solve")),
        );
    }
    group.finish();
}

/// The sparse Cholesky split into its three costs — the minimum-degree
/// ordering with symbolic analysis (once per network), the numeric factor
/// on that pattern (once per current), and one solve (once per step) — next
/// to the dense kernel's factor and solve, on `G − i·D` of hotspot41-like
/// packages at the 12×12, 32×32 and 64×64 tile grids. The 64×64 grid uses
/// a 0.45-mm tile so its 28.8-mm die fits the 30-mm spreader; its dense
/// factorization (n ≈ 9k, minutes per factor) is left out.
fn bench_sparse_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_cholesky");
    group.sample_size(3);
    group.measurement_time(Duration::from_millis(200));
    for (side, pitch_mm) in [(12usize, 0.5), (32, 0.5), (64, 0.45)] {
        let grid = TileGrid::new(side, side, Meters::from_millimeters(pitch_mm)).expect("grid");
        let config = PackageConfig::builder(grid).build().expect("package");
        let system = grid_system(&config);
        let a = system
            .stamped()
            .system_matrix(Amperes(1.0))
            .expect("system matrix");
        let n = a.rows();
        let pattern = Arc::new(CholeskyPattern::analyse(&a).expect("square"));
        let label = format!("{side}x{side}_n{n}_nnzL{}", pattern.nnz_l());
        let rhs: Vec<f64> = (0..n).map(|k| 1.0 + (k % 7) as f64).collect();
        group.bench_with_input(BenchmarkId::new("ordering", &label), &n, |b, _| {
            b.iter(|| CholeskyPattern::analyse(&a).expect("square"))
        });
        group.bench_with_input(BenchmarkId::new("factor", &label), &n, |b, _| {
            b.iter(|| Cholesky::factor_with(&pattern, &a).expect("pd"))
        });
        let chol = Cholesky::factor_with(&pattern, &a).expect("pd");
        group.bench_with_input(BenchmarkId::new("solve", &label), &n, |b, _| {
            b.iter(|| chol.solve(&rhs).expect("solve"))
        });
        if side <= 32 {
            group.bench_with_input(BenchmarkId::new("dense_factor", &label), &n, |b, _| {
                b.iter(|| DenseCholesky::factor(&a).expect("pd"))
            });
            let dense = DenseCholesky::factor(&a).expect("pd");
            group.bench_with_input(BenchmarkId::new("dense_solve", &label), &n, |b, _| {
                b.iter(|| dense.solve(&rhs).expect("solve"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solver, bench_backends, bench_sparse_cholesky);
criterion_main!(benches);
