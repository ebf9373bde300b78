//! Criterion bench for experiment E7: the paper's runtime claim ("for all
//! benchmarks, the execution time of our algorithm is less than 3 minutes").
//! Benchmarks the end-to-end deployment + current setting of a
//! representative hypothetical chip and the building blocks that dominate it.

use criterion::{criterion_group, criterion_main, Criterion};
use tecopt::runaway::sweep_fractions;
use tecopt::{
    evaluate_deployments, greedy_deploy, optimize_current, CurrentSettings, DeploySettings,
    TileIndex,
};
use tecopt_bench::{hypothetical_systems, THETA_LIMIT};
use tecopt_linalg::Cholesky;
use tecopt_units::Amperes;

fn bench_runtime(c: &mut Criterion) {
    let systems = hypothetical_systems().expect("hypothetical systems");
    let (_, hc01) = &systems[0];
    let deployed = greedy_deploy(hc01, DeploySettings::with_limit(THETA_LIMIT))
        .expect("greedy")
        .deployment()
        .system()
        .clone();
    let g = deployed.stamped().model().g_matrix().clone();
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    group.bench_function("hc01_greedy_deploy_end_to_end", |b| {
        b.iter(|| greedy_deploy(hc01, DeploySettings::with_limit(THETA_LIMIT)).expect("greedy"))
    });
    group.bench_function("hc01_current_optimization_only", |b| {
        b.iter(|| optimize_current(&deployed, CurrentSettings::default()).expect("optimize"))
    });
    group.bench_function("steady_state_solve", |b| {
        b.iter(|| deployed.solve(Amperes(3.0)).expect("solve"))
    });
    group.bench_function("cholesky_factorization", |b| {
        b.iter(|| Cholesky::factor_csr(&g).expect("factor"))
    });
    group.finish();
}

/// PR-2 sweep benches: the parallelized fan-outs (candidate-deployment
/// evaluation, runaway fraction sweep) against their sequential
/// equivalents on the 12x12 HC01 system.
fn bench_parallel_sweeps(c: &mut Criterion) {
    let systems = hypothetical_systems().expect("hypothetical systems");
    let (_, hc01) = &systems[0];
    let candidates: Vec<Vec<TileIndex>> = vec![
        vec![TileIndex::new(5, 5)],
        vec![TileIndex::new(5, 6)],
        vec![TileIndex::new(6, 5)],
        vec![TileIndex::new(6, 6)],
        vec![TileIndex::new(5, 5), TileIndex::new(6, 6)],
        vec![TileIndex::new(5, 6), TileIndex::new(6, 5)],
    ];
    let deployed = hc01.with_tiles(&candidates[4]).expect("deploy");
    let fractions: Vec<f64> = (1..=24).map(|k| f64::from(k) / 20.0).collect();
    let mut group = c.benchmark_group("sweeps");
    group.sample_size(3);
    group.bench_function("hc01_candidate_eval_parallel", |b| {
        b.iter(|| {
            evaluate_deployments(hc01, &candidates, CurrentSettings::default()).expect("eval")
        })
    });
    group.bench_function("hc01_candidate_eval_sequential", |b| {
        b.iter(|| {
            candidates
                .iter()
                .map(|tiles| {
                    optimize_current(
                        &hc01.with_tiles(tiles).expect("deploy"),
                        CurrentSettings::default(),
                    )
                    .expect("optimize")
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("hc01_runaway_sweep_parallel", |b| {
        b.iter(|| sweep_fractions(&deployed, &fractions, 1e-9).expect("sweep"))
    });
    group.finish();
}

criterion_group!(benches, bench_runtime, bench_parallel_sweeps);
criterion_main!(benches);
