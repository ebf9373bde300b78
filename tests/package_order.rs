//! One passive system per package.
//!
//! The passive network's elimination order, its Cholesky pattern and its
//! placement factor are computed once and kept in the `PackageConfig`:
//! every system built from clones of one configuration, and every
//! `with_tiles` result of those, reads the same order, and every passive
//! one shares the same pattern and factor whatever its power map. The
//! first network of the package fills the pattern and its order, passive
//! or not. Each placement's Peltier-free block is factored on that
//! pattern, with no analysis of its own; a network with spliced devices
//! keeps a minimum-degree analysis of its own structure for its
//! whole-network factors.

use std::sync::Arc;

use tecopt::{
    evaluate_deployments, full_cover, greedy_deploy, CoolingSystem, CurrentSettings,
    DeploySettings, PackageConfig, TecParams, TileIndex,
};
use tecopt_linalg::{CholeskyPattern, ShiftedCholesky};
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_units::{Amperes, Celsius, Watts};

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

fn pattern_of(system: &CoolingSystem) -> Arc<CholeskyPattern> {
    Arc::clone(system.stamped().model().cholesky_pattern().unwrap())
}

#[test]
fn every_passive_system_of_one_package_shares_one_pattern() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let alpha_chip = alpha(&config, &[]);
    let first = pattern_of(&alpha_chip);
    let hc01 = &HypotheticalChip::standard_suite()[0];
    let other_chip = CoolingSystem::new(
        &config.clone(),
        TecParams::superlattice_thin_film(),
        &[],
        hc01.tile_powers(),
    )
    .unwrap();
    let placed = alpha(&config, &[TileIndex::new(5, 5), TileIndex::new(6, 6)]);
    for system in [
        other_chip,
        placed.with_tiles(&[]).unwrap(),
        alpha_chip.clone(),
    ] {
        assert!(Arc::ptr_eq(&pattern_of(&system), &first));
    }
    // The shared pattern is the minimum-degree analysis of the network.
    let own = CholeskyPattern::analyse_csr(alpha_chip.stamped().model().g_matrix()).unwrap();
    assert_eq!(format!("{own:?}"), format!("{first:?}"));

    // A separately built package analyses its own, equal field by field.
    let rebuilt = PackageConfig::hotspot41_like(12, 12).unwrap();
    let other = pattern_of(&alpha(&rebuilt, &[]));
    assert!(!Arc::ptr_eq(&other, &first));
    assert_eq!(format!("{other:?}"), format!("{first:?}"));
}

fn factor_of(system: &CoolingSystem) -> Arc<ShiftedCholesky> {
    Arc::clone(system.stamped().placement_factor().unwrap())
}

fn hc01(config: &PackageConfig, tiles: &[TileIndex]) -> CoolingSystem {
    let powers = HypotheticalChip::standard_suite()[0].tile_powers();
    CoolingSystem::new(config, TecParams::superlattice_thin_film(), tiles, powers).unwrap()
}

fn temperature_bits(system: &CoolingSystem) -> Vec<u64> {
    let state = system.solve(Amperes(0.0)).unwrap();
    state
        .node_temperatures()
        .iter()
        .map(|t| t.value().to_bits())
        .collect()
}

#[test]
fn every_passive_system_of_one_package_shares_one_placement_factor() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    // Another chip on the package factors the passive network first.
    let first = factor_of(&hc01(&config.clone(), &[]));
    let alpha_chip = alpha(&config, &[]);
    let placed = alpha(&config, &[TileIndex::new(5, 5)]);
    for system in [
        alpha_chip.clone(),
        alpha_chip.with_tiles(&[]).unwrap(),
        placed.with_tiles(&[]).unwrap(),
        alpha(&config.clone().clone(), &[]),
    ] {
        assert!(system.stamped().placement_plan().is_some());
        assert!(Arc::ptr_eq(&factor_of(&system), &first));
    }
    assert!(!Arc::ptr_eq(&factor_of(&placed), &first));

    // A separately built package factors its own, and a solve on the
    // shared factor is bit-identical to one on it.
    let rebuilt = alpha(&PackageConfig::hotspot41_like(12, 12).unwrap(), &[]);
    assert!(rebuilt.stamped().placement_plan().is_none());
    assert!(!Arc::ptr_eq(&factor_of(&rebuilt), &first));
    assert_eq!(temperature_bits(&alpha_chip), temperature_bits(&rebuilt));
}

#[test]
fn every_baseline_peak_is_the_peak_of_a_freshly_built_passive_system() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    // The package's passive factor comes from another chip.
    hc01(&config, &[]).solve(Amperes(0.0)).unwrap();
    let fresh = CoolingSystem::without_devices(
        &PackageConfig::hotspot41_like(12, 12).unwrap(),
        TecParams::superlattice_thin_film(),
        alpha(&config, &[]).tile_powers().to_vec(),
    )
    .unwrap();
    let expected = fresh.solve(Amperes(0.0)).unwrap().peak().value().to_bits();
    let limit = DeploySettings::with_limit(Celsius(90.0));
    let current = CurrentSettings::default();
    // A passive base and a base with devices of their own.
    for base in [alpha(&config, &[]), alpha(&config, &[TileIndex::new(0, 0)])] {
        let peaks = [
            greedy_deploy(&base, limit)
                .unwrap()
                .deployment()
                .baseline_peak(),
            full_cover(&base, current).unwrap().baseline_peak(),
            evaluate_deployments(&base, &[vec![TileIndex::new(5, 5)]], current).unwrap()[0]
                .baseline_peak(),
        ];
        for peak in peaks {
            assert_eq!(peak.value().to_bits(), expected);
        }
    }
}

#[test]
fn a_device_network_fills_the_package_pattern_on_the_passive_order() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let placed = alpha(&config, &[TileIndex::new(5, 5)]);
    placed.solve(Amperes(1.0)).unwrap();
    let slot = format!("{config:?}");
    assert!(
        slot.contains("PassiveSlot(order: filled, pattern: filled)"),
        "{slot}"
    );
    // The placement's factor filled the pattern from the package's passive
    // network, which its model was spliced from; a later passive network
    // takes that pattern.
    let filled = Arc::clone(placed.stamped().model().passive_pattern().unwrap());
    let passive = pattern_of(&placed.with_tiles(&[]).unwrap());
    assert!(Arc::ptr_eq(&passive, &filled));

    // It is a passive model's own minimum-degree analysis.
    let fresh = PackageConfig::hotspot41_like(12, 12).unwrap();
    let model = tecopt_thermal::CompactModel::new(&fresh).unwrap();
    let own = CholeskyPattern::analyse_csr(model.g_matrix()).unwrap();
    assert_eq!(format!("{passive:?}"), format!("{own:?}"));
}

const REFERENCE: &str = include_str!("../perfbench/reference/table1.tsv");

/// The deployed tiles of every Table-I reference row (its seventh field,
/// `row,col;…` or `-`).
fn table1_placements() -> Vec<Vec<TileIndex>> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| match line.split_whitespace().nth(6).unwrap() {
            "-" => Vec::new(),
            list => list
                .split(';')
                .map(|rc| {
                    let (r, c) = rc.split_once(',').unwrap();
                    TileIndex::new(r.parse().unwrap(), c.parse().unwrap())
                })
                .collect(),
        })
        .collect()
}

#[test]
fn every_table1_placement_factors_its_leading_block_on_the_package_pattern() {
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let placements = table1_placements();
    assert_eq!(placements.len(), 11);
    let mut placed = 0;
    for tiles in placements {
        let system = alpha(&config, &tiles);
        let family = factor_of(&system);
        let passive = system.stamped().model().passive_pattern().unwrap();
        let leading = family.leading_pattern().expect("a trailing-block plan");
        assert!(Arc::ptr_eq(leading, passive), "{tiles:?}");
        placed += usize::from(!tiles.is_empty());
    }
    assert!(placed > 0, "every reference row is passive");
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
