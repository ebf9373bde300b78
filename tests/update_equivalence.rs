//! Equivalence of the PR-7 rank-k update path against fresh factorization,
//! across the whole stack: random placement sequences must produce the
//! same temperatures (to solver accuracy) whether each current is solved
//! through a Sherman–Morrison–Woodbury correction of the cached `i = 0`
//! Cholesky factor or through a from-scratch refactorization, the
//! degraded-condition fallback must engage near runaway, and a raised
//! cancellation token must stop a supervised fast deployment cleanly. The
//! 12×12 cases run on the default `Auto` backend, which is the sparse
//! Cholesky at every size, so the update path is exercised there too.

use proptest::prelude::*;
use tecopt::{
    greedy_deploy_supervised, runaway_limit, CoolingSystem, DeploySettings, FactorStrategy,
    OptError, PackageConfig, RunContext, TecParams, TileIndex,
};
use tecopt_linalg::SolverBackend;
use tecopt_units::{Amperes, Celsius, Watts};

fn system(tiles: &[TileIndex], powers: &[f64]) -> CoolingSystem {
    grid_system(4, tiles, powers)
}

fn grid_system(side: usize, tiles: &[TileIndex], powers: &[f64]) -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(side, side).unwrap();
    let powers: Vec<Watts> = powers.iter().copied().map(Watts).collect();
    CoolingSystem::new(&config, TecParams::superlattice_thin_film(), tiles, powers).unwrap()
}

/// A 12×12 power map with three hotspots.
fn powers_12x12() -> Vec<f64> {
    let mut powers = vec![0.05; 144];
    powers[2 * 12 + 3] = 0.7;
    powers[6 * 12 + 8] = 0.55;
    powers[9 * 12 + 2] = 0.5;
    powers
}

fn power_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.02f64..0.6, 16)
}

/// A random sequence of growing placements, mirroring how greedy deploy
/// walks the placement lattice: each element is a set of covered tiles.
fn placement_sequence() -> impl Strategy<Value = Vec<Vec<TileIndex>>> {
    proptest::collection::vec(proptest::collection::btree_set(0usize..16, 1..6), 1..4).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| {
                    s.into_iter()
                        .map(|k| TileIndex::new(k / 4, k % 4))
                        .collect()
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any placement sequence and any feasible current, the rank-k
    /// update path and a fresh factorization agree on the peak to 1e-8 at
    /// matched currents.
    #[test]
    fn updated_and_fresh_peaks_agree(
        powers in power_vec(),
        placements in placement_sequence(),
        fractions in proptest::collection::vec(0.05f64..0.9, 2..5),
    ) {
        for tiles in &placements {
            let s = system(tiles, &powers);
            let lim = runaway_limit(&s, 1e-9).unwrap();
            let feasible = lim.feasible().value();
            let mut fast = s.solver().unwrap().with_strategy(FactorStrategy::RankKUpdate);
            for &f in &fractions {
                let i = Amperes(feasible * f);
                let updated = fast.solve(i).unwrap();
                let fresh = s.with_tiles(tiles).unwrap().solve(i).unwrap();
                let dp = (updated.peak().value() - fresh.peak().value()).abs();
                prop_assert!(
                    dp <= 1e-8,
                    "peak drift {dp} at i={i:?} on {tiles:?}"
                );
                for (a, b) in updated
                    .node_temperatures()
                    .iter()
                    .zip(fresh.node_temperatures())
                {
                    let d = (a.value() - b.value()).abs();
                    prop_assert!(d <= 1e-8 * b.value().abs().max(1.0));
                }
            }
            // After the first solve every further current reuses the i=0
            // base factor through an update (or a counted fallback).
            prop_assert!(
                fast.rank_k_updates() + fast.refactor_fallbacks() >= fractions.len() - 1,
                "updates {} + fallbacks {} vs {} solves",
                fast.rank_k_updates(),
                fast.refactor_fallbacks(),
                fractions.len(),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same agreement at 12×12 (n = 533) on the `Auto` backend.
    #[test]
    fn updated_and_fresh_peaks_agree_at_12x12_on_auto(
        cells in proptest::collection::btree_set(0usize..144, 1..5),
        fractions in proptest::collection::vec(0.05f64..0.9, 2..4),
    ) {
        let tiles: Vec<TileIndex> = cells.iter().map(|&k| TileIndex::new(k / 12, k % 12)).collect();
        let s = grid_system(12, &tiles, &powers_12x12());
        prop_assert_eq!(s.backend(), SolverBackend::Auto);
        let feasible = runaway_limit(&s, 1e-9).unwrap().feasible().value();
        let mut fast = s.solver().unwrap().with_strategy(FactorStrategy::RankKUpdate);
        for &f in &fractions {
            let i = Amperes(feasible * f);
            let updated = fast.solve(i).unwrap();
            let fresh = s.solve(i).unwrap();
            let dp = (updated.peak().value() - fresh.peak().value()).abs();
            prop_assert!(dp <= 1e-8, "peak drift {dp} at i={i:?} on {tiles:?}");
            for (a, b) in updated.node_temperatures().iter().zip(fresh.node_temperatures()) {
                prop_assert!((a.value() - b.value()).abs() <= 1e-8 * b.value().abs().max(1.0));
            }
        }
        prop_assert!(fast.rank_k_updates() >= fractions.len() - 1);
    }
}

/// Regression: on the `Auto` backend an SMW-updated factor and a fresh
/// sparse factor at one current must not share a cache slot. A plain
/// solve after a rank-k solve at the same current refactors and equals the
/// shared `Refactor` path bit for bit.
#[test]
fn auto_backend_plain_solve_after_an_update_equals_refactor() {
    let tiles = [TileIndex::new(2, 3), TileIndex::new(6, 8)];
    let s = grid_system(12, &tiles, &powers_12x12());
    assert_eq!(s.backend(), SolverBackend::Auto);
    let i = Amperes(runaway_limit(&s, 1e-9).unwrap().feasible().value() * 0.6);
    let reference = s.solve(i).unwrap();

    let mut fast = s
        .solver()
        .unwrap()
        .with_strategy(FactorStrategy::RankKUpdate);
    // The i = 0 base, then the update at i.
    fast.solve(Amperes(0.0)).unwrap();
    let updated = fast.solve(i).unwrap();
    assert!(fast.rank_k_updates() >= 1, "the update path must have run");
    assert!(updated
        .node_temperatures()
        .iter()
        .zip(reference.node_temperatures())
        .any(|(a, b)| a.value() != b.value()));

    let mut plain = fast.with_strategy(FactorStrategy::Refactor);
    let again = plain.solve(i).unwrap();
    for (a, b) in reference
        .node_temperatures()
        .iter()
        .zip(again.node_temperatures())
    {
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }
    assert_eq!(again.peak(), reference.peak());
}

#[test]
fn degraded_condition_falls_back_to_refactorization() {
    let powers = vec![0.08; 16];
    let tiles = [TileIndex::new(1, 1)];
    let s = system(&tiles, &powers);
    // At the feasible bracket edge of a near-machine-precision λ search the
    // system is catastrophically ill-conditioned: the update path must
    // detect it and refactor instead of returning a corrupted correction.
    let lim = runaway_limit(&s, 1e-13).unwrap();
    let mut fast = s
        .solver()
        .unwrap()
        .with_strategy(FactorStrategy::RankKUpdate);
    let warm = fast.solve(Amperes(lim.feasible().value() * 0.5)).unwrap();
    assert!(warm.peak().value().is_finite());
    let edge = fast.solve(lim.feasible()).unwrap();
    assert!(
        fast.refactor_fallbacks() >= 1,
        "the near-runaway solve must trip the condition fallback"
    );
    let fresh = s.solve(lim.feasible()).unwrap();
    assert_eq!(
        edge.peak().value(),
        fresh.peak().value(),
        "a fallback refactorization is bit-identical to the shared path"
    );
}

#[test]
fn cancellation_stops_a_supervised_fast_deployment() {
    let mut powers = vec![0.08; 16];
    powers[5] = 0.5;
    powers[10] = 0.45;
    let base = system(&[], &powers);
    let uncooled = base.solve(Amperes(0.0)).unwrap().peak();
    let settings = DeploySettings::with_limit(Celsius(uncooled.value() - 0.8))
        .with_strategy(FactorStrategy::RankKUpdate);
    let ctx = RunContext::unbounded();
    ctx.token().cancel();
    let failure = greedy_deploy_supervised(&base, settings, &ctx).unwrap_err();
    assert!(
        matches!(failure.error, OptError::Cancelled { .. }),
        "unexpected error {:?}",
        failure.error
    );
    assert!(failure.partial.is_none());
}
