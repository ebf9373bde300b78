//! Criterion bench for the linear-algebra kernels that dominate every
//! experiment: sparse Cholesky factorization/solve at the compact-model
//! sizes, CG on the fine-grid systems, the backend comparison (sparse
//! Cholesky, the dense oracle and CG behind `FactoredSystem`, plus the
//! cached-workspace hot path) on real paper-scale compact models, the
//! ordering / factor / solve split of the sparse Cholesky against the
//! dense kernel at 12×12, 32×32 and 64×64 tiles with the analysis of a
//! placement's `G_AA` on the package order against minimum degree, and at
//! the same sizes the
//! sparse path from assembly to factor (placement build, grounding check,
//! CSR stamping, CSR factor) against its dense oracles, a placement's model
//! spliced into the package's passive network against its geometric build,
//! the passive start of a greedy deployment, and the per-current cost of the two
//! placement-factor plans (the `k×k` trailing block against the network's
//! numeric factor) at k = 8, 28 and 288 on the paper's 12×12 package, the
//! build of a placement factor on the package pattern against its
//! exact-pattern oracle at 12×12 and 32×32, and
//! one 4-device Alpha explorer candidate end to end on the placement
//! factor against the SMW rank-k update path.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tecopt::{
    optimize_current_with, CoolingSystem, CurrentSettings, FactorStrategy, PackageConfig,
    TecParams, TileIndex,
};
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{
    conjugate_gradient, CgSettings, Cholesky, CholeskyPattern, CsrMatrix, DenseCholesky,
    FactorPlan, FactoredSystem, LeadingBlockCache, ResolvedBackend, ShiftedCholesky, Triplet,
};
use tecopt_thermal::{CompactModel, TileGrid, TwoPortSpec};
use tecopt_units::{Amperes, Meters, Ohms, Watts, WattsPerKelvin};

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
/// ordering with symbolic analysis (once per package), the numeric factor
/// on that pattern (once per current), and one solve (once per step) — next
/// to the dense kernel's factor and solve, on `G − i·D` of the
/// [`sweep_systems`]. The dense factorization at 64×64 (n ≈ 9k, minutes per
/// factor) is left out. Then the placement's Peltier-free block `G_AA`
/// (one device, so `A` is all but two nodes): its analysis on the package
/// order restricted to `A` against a minimum-degree analysis of its own,
/// and the numeric factor on each; the labels carry each `nnz(L_AA)`.
fn bench_sparse_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_cholesky");
    // Runs drift with the host over minutes: 3 samples over 200 ms let
    // two back-to-back runs of one build differ by 70 %; 30 over 3 s
    // brought the 12×12 analysis within about 10 %, and more samples did
    // not help. Compare two builds in both orders.
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(3));
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

        let (g_aa, restricted) = peltier_free_block(&system);
        let amd = Arc::new(CholeskyPattern::analyse_csr(&g_aa).expect("square"));
        let ordered =
            Arc::new(CholeskyPattern::analyse_csr_ordered(&g_aa, &restricted).expect("order"));
        let label = format!(
            "{side}x{side}_nA{}_nnzL_restricted{}_amd{}",
            g_aa.rows(),
            ordered.nnz_l(),
            amd.nnz_l()
        );
        group.bench_with_input(BenchmarkId::new("g_aa_ordering_amd", &label), &n, |b, _| {
            b.iter(|| CholeskyPattern::analyse_csr(&g_aa).expect("square"))
        });
        group.bench_with_input(
            BenchmarkId::new("g_aa_ordering_restricted", &label),
            &n,
            |b, _| {
                b.iter(|| CholeskyPattern::analyse_csr_ordered(&g_aa, &restricted).expect("order"))
            },
        );
        for (name, pattern) in [
            ("g_aa_factor_amd", &amd),
            ("g_aa_factor_restricted", &ordered),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &label), &n, |b, _| {
                b.iter(|| Cholesky::factor_csr_with(pattern, &g_aa).expect("pd"))
            });
        }
    }
    group.finish();
}

/// `G_AA` of `system` (its nodes off the TEC terminals, ascending) and the
/// package order restricted to them, as `ShiftedCholesky::with_order`
/// derives it.
fn peltier_free_block(system: &CoolingSystem) -> (CsrMatrix, Vec<usize>) {
    let model = system.stamped().model();
    let g = model.g_matrix();
    let n = g.rows();
    let mut slot = vec![Some(0); n];
    for &(cold, hot) in system.stamped().junctions() {
        slot[cold] = None;
        slot[hot] = None;
    }
    let mut free = 0;
    for s in slot.iter_mut().flatten() {
        *s = free;
        free += 1;
    }
    let mut trips = Vec::new();
    for (r, slot_r) in slot.iter().enumerate() {
        let Some(a) = *slot_r else { continue };
        for t in g.row_ptr()[r]..g.row_ptr()[r + 1] {
            if let Some(b) = slot[g.col_indices()[t]] {
                trips.push(Triplet::new(a, b, g.values()[t]));
            }
        }
    }
    let g_aa = CsrMatrix::from_triplets(free, free, &trips).expect("G_AA");
    let restricted = model
        .network_order()
        .expect("package order")
        .into_iter()
        .filter_map(|node| slot[node])
        .collect();
    (g_aa, restricted)
}

/// The path from stamps to factor, sparse against its dense oracles, on the
/// [`sweep_systems`]: the whole set-up of a 4-device placement
/// (`placement_build`: `CoolingSystem::with_tiles`, i.e. the network, its
/// grounding check and its assembly), the grounding check on its own, CSR
/// assembly of `G` against the dense-stamped `assemble_dense`, and the CSR
/// factor on the network's pattern against the dense `factor_with` on the same pattern
/// (which converts and checks `n²` entries). The dense oracles are left
/// out at 64×64, where one `n×n` matrix is ≈ 650 MB. Then
/// `placement_build` of the Alpha chip's four hottest passive tiles, the
/// placement of [`bench_explore_candidate`]. Last, at the
/// [`bench_sparse_cholesky`] group's settings: the same 4-device
/// placement's model at 12×12 and 32×32, spliced into the package's
/// passive network (`placement_splice`, what `with_tiles` builds) against
/// the geometric oracle (`placement_geometry`), and `passive_start`: the
/// passive system of a solved 12×12 passive base built and solved at
/// `i = 0`, as every `greedy_deploy` call starts.
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    group.sample_size(3);
    group.measurement_time(Duration::from_millis(200));
    let mut corner_placements = Vec::new();
    for (side, system) in sweep_systems() {
        let stamped = system.stamped();
        let network = stamped.model().network();
        let n = stamped.model().node_count();
        let label = format!("{side}x{side}_n{n}");
        let far = side - 2;
        let corners = [(1, 1), (1, far), (far, 1), (far, far)].map(|(r, c)| TileIndex::new(r, c));
        group.bench_with_input(BenchmarkId::new("placement_build", &label), &n, |b, _| {
            b.iter(|| system.with_tiles(&corners).expect("placement"))
        });
        if side <= 32 {
            let spec = stamped.params().two_port_spec();
            let splices: Vec<(TileIndex, TwoPortSpec)> = corners.map(|t| (t, spec)).to_vec();
            corner_placements.push((label.clone(), stamped.model().config().clone(), splices));
        }
        group.bench_with_input(BenchmarkId::new("grounding_check", &label), &n, |b, _| {
            b.iter(|| network.validate_grounding().expect("grounded"))
        });
        group.bench_with_input(BenchmarkId::new("csr_assemble", &label), &n, |b, _| {
            b.iter(|| network.assemble())
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
    let (alpha, tiles) = alpha_hottest_four();
    group.bench_function(BenchmarkId::new("placement_build", "alpha_4dev"), |b| {
        b.iter(|| alpha.with_tiles(&tiles).expect("placement"))
    });
    // Tens of microseconds: 3 samples over 200 ms cannot resolve it.
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(3));
    for (label, config, splices) in &corner_placements {
        group.bench_function(BenchmarkId::new("placement_splice", label), |b| {
            b.iter(|| CompactModel::with_two_ports(config, splices).expect("splice"))
        });
        group.bench_function(BenchmarkId::new("placement_geometry", label), |b| {
            b.iter(|| CompactModel::from_geometry(config, splices).expect("geometry"))
        });
    }
    let base = paper_grid_system(12, 12).with_tiles(&[]).expect("passive");
    base.solve(Amperes(0.0)).expect("passive solve");
    group.bench_function(BenchmarkId::new("placement_build", "passive_start"), |b| {
        b.iter(|| {
            base.with_tiles(&[])
                .expect("passive")
                .solve(Amperes(0.0))
                .expect("solve")
        })
    });
    group.finish();
}

/// The passive Alpha system and its four hottest tiles, ascending: the
/// 4-device placement the explorer benches build.
fn alpha_hottest_four() -> (CoolingSystem, Vec<TileIndex>) {
    let base = tecopt_bench::alpha_system().expect("alpha");
    let passive = base.solve(Amperes(0.0)).expect("passive");
    let mut hottest: Vec<(f64, TileIndex)> = base
        .config()
        .grid()
        .tiles()
        .zip(passive.silicon_temperatures())
        .map(|(t, c)| (c.value(), t))
        .collect();
    hottest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tiles: Vec<TileIndex> = hottest.iter().take(4).map(|&(_, t)| t).collect();
    tiles.sort_unstable();
    (base, tiles)
}

/// The per-current cost of each placement-factor plan on the paper's 12×12
/// package with 4, 14 and 144 devices (k = 8, 28, 288): retargeting the
/// `k×k` trailing block and solving against a cached `y_A`, against a
/// numeric factor of the whole network on its pattern plus one solve. The
/// label names the plan the rule picks (`k³/3` against the flops of
/// `G_AA`'s factor on the package pattern), so the crossover shows between
/// k = 28 and 288. Then `build`: the build of a 4-device placement factor
/// at 12×12 and 32×32 on the package's passive pattern against the
/// exact-pattern oracle.
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
    // The build of a 4-device placement factor on the 12×12 and 32×32
    // packages: `G_AA` on the package's passive pattern, as
    // `StampedSystem::placement_factor` builds it, against its exact
    // pattern analysed on the restricted package order (the oracle).
    // Hundreds of microseconds: 3 samples over 200 ms cannot resolve it.
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(3));
    for (side, system) in sweep_systems().into_iter().filter(|(side, _)| *side <= 32) {
        let far = side - 2;
        let corners = [(1, 1), (1, far), (far, 1), (far, far)].map(|(r, c)| TileIndex::new(r, c));
        let placed = system.with_tiles(&corners).expect("placement");
        let stamped = placed.stamped();
        let model = stamped.model();
        let (g, d) = (model.g_matrix(), stamped.d_diagonal());
        let support: Vec<usize> = stamped
            .junctions()
            .iter()
            .flat_map(|&(cold, hot)| [cold, hot])
            .collect();
        let network = || Ok(Arc::clone(model.cholesky_pattern().expect("pattern")));
        let passive = model.passive_pattern().expect("passive pattern");
        let order = model.network_order().expect("package order");
        let label = format!("{side}x{side}_k{}", support.len());
        let package = format!("{label}_package_pattern");
        group.bench_with_input(BenchmarkId::new("build", package), &side, |b, _| {
            b.iter(|| {
                ShiftedCholesky::with_package_pattern(
                    g,
                    d,
                    &support,
                    passive,
                    &model.passive_nodes(),
                    None,
                    network,
                )
                .expect("package build")
            })
        });
        let exact = format!("{label}_exact_pattern");
        group.bench_with_input(BenchmarkId::new("build", exact), &side, |b, _| {
            b.iter(|| {
                ShiftedCholesky::with_order(g, d, &support, &order, None, network)
                    .expect("exact build")
            })
        });
    }
    group.finish();
}

/// One explorer candidate end to end on the Alpha chip: a 4-device mask
/// on the four hottest passive tiles, from `CoolingSystem::new` (assembly,
/// then the λ_m search and the golden-section current search inside
/// `optimize_current_with`) under the default `Refactor` strategy, which
/// runs on the placement factor, against the opt-in SMW `RankKUpdate`;
/// and `leading_block_hit`, the placement-factor candidate on a
/// `LeadingBlockCache` that already holds its leading block (another
/// thickness level of the same mask and contact in an explore sweep).
fn bench_explore_candidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_candidate");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(500));
    let (base, tiles) = alpha_hottest_four();
    for (name, strategy) in [
        ("placement_factor", FactorStrategy::Refactor),
        ("rank_k_update", FactorStrategy::RankKUpdate),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let system = CoolingSystem::new(
                    base.config(),
                    base.stamped().params().clone(),
                    &tiles,
                    base.tile_powers().to_vec(),
                )
                .expect("candidate");
                optimize_current_with(&system, CurrentSettings::default(), strategy)
                    .expect("optimum")
            })
        });
    }
    let cache = Arc::new(LeadingBlockCache::new());
    let candidate = |params: TecParams| {
        CoolingSystem::new(base.config(), params, &tiles, base.tile_powers().to_vec())
            .expect("candidate")
            .with_leading_cache(Arc::clone(&cache))
    };
    // Fill the cache at another thickness: G_AA and G_AB do not change.
    let p = base.stamped().params();
    let thicker = TecParams::new(
        p.seebeck(),
        Ohms(p.resistance().value() * 2.0),
        WattsPerKelvin(p.conductance().value() / 2.0),
        p.cold_contact(),
        p.hot_contact(),
        p.side(),
    )
    .expect("thicker");
    candidate(thicker)
        .stamped()
        .placement_factor()
        .expect("leading block");
    group.bench_function("leading_block_hit", |b| {
        b.iter(|| {
            let system = candidate(base.stamped().params().clone());
            optimize_current_with(
                &system,
                CurrentSettings::default(),
                FactorStrategy::Refactor,
            )
            .expect("optimum")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_backends,
    bench_sparse_cholesky,
    bench_assembly,
    bench_placement_factor,
    bench_explore_candidate
);
criterion_main!(benches);
