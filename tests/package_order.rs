//! One minimum-degree ordering per package.
//!
//! The passive network's elimination order is computed once and kept in
//! the `PackageConfig`: every system built from clones of one
//! configuration, and every `with_tiles` result of those, reads the same
//! order. Passive networks are analysed on it, and each placement's
//! Peltier-free block on its restriction; a network with spliced devices
//! keeps a minimum-degree analysis of its own structure.

use std::sync::Arc;

use tecopt::{CoolingSystem, PackageConfig, TecParams, TileIndex};
use tecopt_linalg::CholeskyPattern;
use tecopt_power::WorkloadModel;
use tecopt_units::{Amperes, Watts};

fn alpha(config: &PackageConfig, tiles: &[TileIndex]) -> CoolingSystem {
    let powers: Vec<Watts> = WorkloadModel::alpha_spec2000_like()
        .unwrap()
        .worst_case_envelope(0.2)
        .unwrap()
        .rasterize(config.grid())
        .unwrap();
    CoolingSystem::new(config, TecParams::superlattice_thin_film(), tiles, powers).unwrap()
}

fn order_of(system: &CoolingSystem) -> Arc<[usize]> {
    Arc::clone(system.stamped().model().package_order().unwrap())
}

#[test]
fn clones_of_one_package_and_their_placements_share_one_order() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let passive = alpha(&config, &[]);
    // A placement built straight from a clone fills the slot first.
    let placed = alpha(&config.clone(), &[TileIndex::new(5, 5)]);
    let first = order_of(&placed);
    for system in [
        passive.clone(),
        passive.with_tiles(&[TileIndex::new(2, 3)]).unwrap(),
        placed.with_tiles(&[]).unwrap(),
        alpha(&config.clone().clone(), &[TileIndex::new(0, 0)]),
    ] {
        assert!(Arc::ptr_eq(&order_of(&system), &first));
    }
    // The passive network is analysed on the package order: the same
    // pattern as a minimum-degree analysis of its own G.
    let model = passive.stamped().model();
    let own = CholeskyPattern::analyse_csr(model.g_matrix()).unwrap();
    let pattern = model.cholesky_pattern().unwrap();
    assert_eq!(pattern.permutation(), own.permutation());
    assert_eq!(pattern.permutation(), &first[..]);
    assert_eq!(pattern.nnz_l(), own.nnz_l());

    // A separately built package has an order of its own, equal in value.
    let rebuilt = PackageConfig::hotspot41_like(12, 12).unwrap();
    let other = order_of(&alpha(&rebuilt, &[]));
    assert!(!Arc::ptr_eq(&other, &first));
    assert_eq!(other, first);
}

#[test]
fn package_equality_ignores_the_order_slot() {
    let filled = PackageConfig::hotspot41_like(12, 12).unwrap();
    order_of(&alpha(&filled, &[]));
    let empty = PackageConfig::hotspot41_like(12, 12).unwrap();
    assert_eq!(filled, empty);
    assert_eq!(filled.digest(), empty.digest());
}

#[test]
fn a_spliced_network_fills_the_passive_order_and_substitutes_each_pair_in_place() {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let tiles = [TileIndex::new(1, 2), TileIndex::new(3, 0)];
    let system = CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &tiles,
        vec![Watts(0.2); 16],
    )
    .unwrap();
    let model = system.stamped().model();
    // Filled from this spliced network's structure: the order of the
    // passive network itself.
    let passive =
        tecopt_thermal::CompactModel::new(&PackageConfig::hotspot41_like(4, 4).unwrap()).unwrap();
    assert_eq!(
        &model.package_order().unwrap()[..],
        passive.cholesky_pattern().unwrap().permutation()
    );
    let order = model.network_order().unwrap();
    let mut seen = vec![false; model.node_count()];
    for &node in &order {
        assert!(
            !std::mem::replace(&mut seen[node], true),
            "node {node} twice"
        );
    }
    assert!(seen.iter().all(|&s| s), "not a permutation");
    // Each cold node directly precedes its hot node.
    for &(cold, hot) in system.stamped().junctions() {
        let at = order.iter().position(|&v| v == cold).unwrap();
        assert_eq!(order[at + 1], hot);
    }
}

#[test]
fn spliced_networks_keep_their_own_minimum_degree_analysis() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let all: Vec<TileIndex> = config.grid().tiles().collect();
    let full = alpha(&config, &all);
    full.solve(Amperes(1.0)).unwrap();
    let model = full.stamped().model();
    let own = CholeskyPattern::analyse_csr(model.g_matrix()).unwrap();
    let pattern = model.cholesky_pattern().unwrap();
    assert_eq!(pattern.permutation(), own.permutation());
    assert_eq!(pattern.nnz_l(), own.nnz_l());
    // The package order with the pairs substituted in would fill more.
    let substituted =
        CholeskyPattern::analyse_csr_ordered(model.g_matrix(), &model.network_order().unwrap())
            .unwrap();
    assert!(substituted.nnz_l() > own.nnz_l());
}
