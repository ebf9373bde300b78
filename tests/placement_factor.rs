//! The placement factor against its oracles on every Table-I placement.
//!
//! A placement's steady solves and its `λ_m` search factor through one
//! `ShiftedCholesky`: `G_AA` once and the `k×k` trailing block per current
//! on the Table-I chips, the network's sparse factor under full cover.
//! Here each placement of `perfbench/reference/table1.tsv`, Alpha without
//! devices and Alpha under full cover are checked against the dense
//! oracles: temperatures against the `DenseCholesky` backend, the runaway
//! bracket against `generalized_pd_threshold_dense`, and the solve's
//! verdict on either side of the bracket.

use tecopt::{
    runaway_limit, CoolingSystem, CurrentSettings, FactorPlan, OptError, PackageConfig, TecParams,
    TileIndex,
};
use tecopt_linalg::eigen::{generalized_pd_threshold_dense, DEFAULT_PROBE_BUDGET};
use tecopt_linalg::SolverBackend;
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_units::{Amperes, Watts};

const REFERENCE: &str = include_str!("../perfbench/reference/table1.tsv");

fn package() -> PackageConfig {
    PackageConfig::hotspot41_like(12, 12).unwrap()
}

fn alpha_powers() -> Vec<Watts> {
    WorkloadModel::alpha_spec2000_like()
        .unwrap()
        .worst_case_envelope(0.2)
        .unwrap()
        .rasterize(package().grid())
        .unwrap()
}

fn powers_of(name: &str) -> Vec<Watts> {
    if name == "Alpha" {
        return alpha_powers();
    }
    HypotheticalChip::standard_suite()
        .into_iter()
        .find(|chip| chip.name() == name)
        .unwrap_or_else(|| panic!("no chip {name}"))
        .tile_powers()
}

/// `(name, tiles)` of every reference row.
fn placements() -> Vec<(String, Vec<TileIndex>)> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let tiles = match f[6] {
                "-" => Vec::new(),
                list => list
                    .split(';')
                    .map(|rc| {
                        let (r, c) = rc.split_once(',').unwrap();
                        TileIndex::new(r.parse().unwrap(), c.parse().unwrap())
                    })
                    .collect(),
            };
            (f[0].to_string(), tiles)
        })
        .collect()
}

fn system(name: &str, tiles: &[TileIndex]) -> CoolingSystem {
    CoolingSystem::new(
        &package(),
        TecParams::superlattice_thin_film(),
        tiles,
        powers_of(name),
    )
    .unwrap()
}

/// Temperatures at `current` against the dense oracle backend.
fn assert_matches_dense(name: &str, system: &CoolingSystem, current: Amperes) {
    let dense = system.clone().with_backend(SolverBackend::DenseCholesky);
    let a = system.solve(current).unwrap();
    let b = dense.solve(current).unwrap();
    for (k, (x, y)) in a
        .node_temperatures()
        .iter()
        .zip(b.node_temperatures())
        .enumerate()
    {
        let rel = (x.value() - y.value()).abs() / y.value().abs();
        assert!(
            rel <= 1e-9,
            "{name}: node {k} at {} A: {} vs dense {} (rel {rel:e})",
            current.value(),
            x.value(),
            y.value()
        );
    }
}

/// Every check of one placement that has devices; returns the plan.
fn check_placement(name: &str, system: &CoolingSystem) -> FactorPlan {
    let tol = CurrentSettings::default().lambda_tolerance;
    let lim = runaway_limit(system, tol).unwrap();
    let plan = system.factor_plan().expect("the search built the plan");
    let dense = generalized_pd_threshold_dense(
        &system.stamped().model().g_matrix().to_dense(),
        system.stamped().d_diagonal(),
        tol,
        DEFAULT_PROBE_BUDGET,
    )
    .unwrap();
    for (ours, theirs, edge) in [
        (lim.feasible().value(), dense.lower, "lower"),
        (lim.infeasible().value(), dense.upper, "upper"),
    ] {
        assert!(
            (ours - theirs).abs() <= tol * theirs,
            "{name}: {edge} edge {ours} vs dense {theirs}"
        );
    }
    assert!(
        system.solve(lim.feasible()).is_ok(),
        "{name}: feasible edge"
    );
    assert!(
        matches!(
            system.solve(lim.infeasible()),
            Err(OptError::BeyondRunaway { .. })
        ),
        "{name}: infeasible edge"
    );
    let lambda = lim.lambda().value();
    for f in [0.0, 0.5, 0.95] {
        assert_matches_dense(name, system, Amperes(f * lambda));
    }
    plan
}

#[test]
fn table1_placements_take_the_trailing_block_and_match_the_oracles() {
    let placements = placements();
    assert_eq!(placements.len(), 11);
    for (name, tiles) in &placements {
        let s = system(name, tiles);
        assert_eq!(s.factor_plan(), None, "{name}: nothing built yet");
        let k = 2 * tiles.len();
        if tiles.is_empty() {
            assert!(matches!(
                runaway_limit(&s, 1e-9),
                Err(OptError::NoDevicesDeployed)
            ));
            for i in [0.0, 1.0, 5.0] {
                assert_matches_dense(name, &s, Amperes(i));
            }
            assert_eq!(s.factor_plan(), Some(FactorPlan::TrailingBlock { k }));
        } else {
            let plan = check_placement(name, &s);
            assert_eq!(plan, FactorPlan::TrailingBlock { k }, "{name}");
        }
    }
}

#[test]
fn alpha_without_devices_is_one_leading_factor() {
    let s = system("Alpha", &[]);
    for i in [0.0, 2.0, 7.0] {
        assert_matches_dense("passive Alpha", &s, Amperes(i));
    }
    assert_eq!(s.factor_plan(), Some(FactorPlan::TrailingBlock { k: 0 }));
}

#[test]
fn full_cover_alpha_takes_the_network_plan() {
    let all: Vec<TileIndex> = package().grid().tiles().collect();
    let s = system("Alpha", &all);
    assert_eq!(check_placement("full-cover Alpha", &s), FactorPlan::Network);
}
