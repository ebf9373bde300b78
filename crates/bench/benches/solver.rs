//! Criterion bench for the linear-algebra kernels that dominate every
//! experiment: sparse Cholesky factorization/solve at the compact-model
//! sizes, CG on the fine-grid systems, the backend comparison (sparse
//! Cholesky, the dense oracle and CG behind `FactoredSystem`, plus the
//! cached-workspace hot path) on real paper-scale compact models, the
//! ordering / factor / solve split of the sparse Cholesky against the
//! dense kernel at 12×12, 32×32 and 64×64 tiles, and at the same sizes the
//! sparse path from assembly to factor (CSR stamping, workspace build, CSR
//! factor) against its dense oracles, and the per-current cost of the two
//! placement-factor plans (the `k×k` trailing block against the network's
//! numeric factor) at k = 8, 28 and 288 on the paper's 12×12 package.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tecopt::{CoolingSystem, PackageConfig, TecParams, TileIndex};
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{
    conjugate_gradient, CgSettings, Cholesky, CholeskyPattern, CsrMatrix, DenseCholesky,
    FactorPlan, FactoredSystem, ResolvedBackend, ShiftedCholesky, Triplet,
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
        let g = system.stamped().model().g_matrix().to_dense();
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

/// The hotspot41-like packages of the size sweeps: 12×12, 32×32 and 64×64
/// tiles. The 64×64 grid uses a 0.45-mm tile so its 28.8-mm die fits the
/// 30-mm spreader.
fn sweep_systems() -> Vec<(usize, CoolingSystem)> {
    [(12usize, 0.5), (32, 0.5), (64, 0.45)]
        .into_iter()
        .map(|(side, pitch_mm)| {
            let grid = TileGrid::new(side, side, Meters::from_millimeters(pitch_mm)).expect("grid");
            let config = PackageConfig::builder(grid).build().expect("package");
            (side, grid_system(&config))
        })
        .collect()
}

/// The sparse Cholesky split into its three costs — the minimum-degree
/// ordering with symbolic analysis (once per network), the numeric factor
/// on that pattern (once per current), and one solve (once per step) — next
/// to the dense kernel's factor and solve, on `G − i·D` of the
/// [`sweep_systems`]. The dense factorization at 64×64 (n ≈ 9k, minutes per
/// factor) is left out.
fn bench_sparse_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_cholesky");
    group.sample_size(3);
    group.measurement_time(Duration::from_millis(200));
    for (side, system) in sweep_systems() {
        let a = system
            .stamped()
            .sparse_system_matrix(Amperes(1.0))
            .expect("system matrix");
        let n = a.rows();
        let pattern = Arc::new(CholeskyPattern::analyse_csr(&a).expect("square"));
        let label = format!("{side}x{side}_n{n}_nnzL{}", pattern.nnz_l());
        let rhs: Vec<f64> = (0..n).map(|k| 1.0 + (k % 7) as f64).collect();
        group.bench_with_input(BenchmarkId::new("ordering", &label), &n, |b, _| {
            b.iter(|| CholeskyPattern::analyse_csr(&a).expect("square"))
        });
        group.bench_with_input(BenchmarkId::new("factor", &label), &n, |b, _| {
            b.iter(|| Cholesky::factor_csr_with(&pattern, &a).expect("pd"))
        });
        let chol = Cholesky::factor_csr_with(&pattern, &a).expect("pd");
        group.bench_with_input(BenchmarkId::new("solve", &label), &n, |b, _| {
            b.iter(|| chol.solve(&rhs).expect("solve"))
        });
        if side <= 32 {
            let dense = a.to_dense();
            group.bench_with_input(BenchmarkId::new("dense_factor", &label), &n, |b, _| {
                b.iter(|| DenseCholesky::factor(&dense).expect("pd"))
            });
            let dense = DenseCholesky::factor(&dense).expect("pd");
            group.bench_with_input(BenchmarkId::new("dense_solve", &label), &n, |b, _| {
                b.iter(|| dense.solve(&rhs).expect("solve"))
            });
        }
    }
    group.finish();
}

/// The path from stamps to factor, sparse against its dense oracles, on the
/// [`sweep_systems`]: CSR assembly of `G` against the dense-stamped
/// `assemble_dense`, the solver workspace build (a CSR copy of `G`), and
/// the CSR factor on the network's pattern against the dense `factor_with`
/// on the same pattern (which converts and checks `n²` entries). The dense
/// oracles are left out at 64×64, where one `n×n` matrix is ≈ 650 MB.
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    group.sample_size(3);
    group.measurement_time(Duration::from_millis(200));
    for (side, system) in sweep_systems() {
        let stamped = system.stamped();
        let network = stamped.model().network();
        let n = stamped.model().node_count();
        let label = format!("{side}x{side}_n{n}");
        group.bench_with_input(BenchmarkId::new("csr_assemble", &label), &n, |b, _| {
            b.iter(|| network.assemble())
        });
        group.bench_with_input(BenchmarkId::new("workspace_build", &label), &n, |b, _| {
            b.iter(|| {
                stamped
                    .solve_workspace(system.tile_powers())
                    .expect("workspace")
            })
        });
        let a = stamped
            .sparse_system_matrix(Amperes(1.0))
            .expect("system matrix");
        let pattern = stamped.model().cholesky_pattern().expect("pattern");
        group.bench_with_input(BenchmarkId::new("csr_factor", &label), &n, |b, _| {
            b.iter(|| Cholesky::factor_csr_with(pattern, &a).expect("pd"))
        });
        if side <= 32 {
            group.bench_with_input(BenchmarkId::new("dense_assemble", &label), &n, |b, _| {
                b.iter(|| network.assemble_dense())
            });
            let dense = a.to_dense();
            group.bench_with_input(BenchmarkId::new("dense_factor_with", &label), &n, |b, _| {
                b.iter(|| Cholesky::factor_with(pattern, &dense).expect("pd"))
            });
        }
    }
    group.finish();
}

/// The per-current cost of each placement-factor plan on the paper's 12×12
/// package with 4, 14 and 144 devices (k = 8, 28, 288): retargeting the
/// `k×k` trailing block and solving against a cached `y_A`, against a
/// numeric factor of the whole network on its pattern plus one solve. The
/// label names the plan the rule picks (`k³/3` against the flops of
/// `G_AA`'s factor), so the crossover shows between k = 28 and 288.
fn bench_placement_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_factor");
    group.sample_size(5);
    group.measurement_time(Duration::from_millis(300));
    let config = PackageConfig::hotspot41_like(12, 12).expect("package");
    let all: Vec<TileIndex> = config.grid().tiles().collect();
    for devices in [4usize, 14, 144] {
        let mut powers = vec![Watts(0.05); all.len()];
        powers[13] = Watts(0.6);
        let system = CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &all[..devices],
            powers,
        )
        .expect("system");
        let stamped = system.stamped();
        let g = stamped.model().g_matrix();
        let d = stamped.d_diagonal();
        let support: Vec<usize> = stamped
            .junctions()
            .iter()
            .flat_map(|&(cold, hot)| [cold, hot])
            .collect();
        let k = support.len();
        let network = || {
            Ok(Arc::clone(
                stamped.model().cholesky_pattern().expect("pattern"),
            ))
        };
        let rule = stamped.placement_factor().expect("placement factor").plan();
        let label = format!(
            "k{k}_rule_{}",
            if rule == FactorPlan::Network {
                "network"
            } else {
                "block"
            }
        );
        let block = Arc::new(
            ShiftedCholesky::with_plan(g, d, &support, FactorPlan::TrailingBlock { k }, network)
                .expect("trailing block"),
        );
        let whole = Arc::new(
            ShiftedCholesky::with_plan(g, d, &support, FactorPlan::Network, network)
                .expect("network"),
        );
        let i = 0.5 * block.pd_threshold(1e-6, 4096).expect("lambda_m").lower;
        let p = stamped
            .power_vector(system.tile_powers(), Amperes(i))
            .expect("power");
        let lead = block.leading_solve(&p).expect("leading solve");
        group.bench_with_input(BenchmarkId::new("trailing_block", &label), &k, |b, _| {
            b.iter(|| {
                block
                    .factor_at(i)
                    .expect("pd")
                    .solve_with(&lead, &p)
                    .expect("solve")
            })
        });
        group.bench_with_input(BenchmarkId::new("network", &label), &k, |b, _| {
            b.iter(|| whole.factor_at(i).expect("pd").solve(&p).expect("solve"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_backends,
    bench_sparse_cholesky,
    bench_assembly,
    bench_placement_factor
);
criterion_main!(benches);
