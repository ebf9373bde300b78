//! The `λ_m` search against its slow oracle on paper-scale systems.
//!
//! `runaway_limit` factors the Peltier-free block of `G` once and probes
//! the Schur complement on the TEC terminal nodes; the oracle
//! (`generalized_pd_threshold_dense`) factors all of `G − i·D` at every
//! probe. Both run the same bracket policy, so on these systems the
//! brackets and probe counts must agree bit for bit.

use tecopt::multipin::MultiPinSystem;
use tecopt::{runaway_limit, CoolingSystem, CurrentSettings, PackageConfig, TecParams, TileIndex};
use tecopt_linalg::eigen::{generalized_pd_threshold_dense, PdThreshold, DEFAULT_PROBE_BUDGET};
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_units::{Amperes, Watts};

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

fn hc02_powers() -> Vec<Watts> {
    HypotheticalChip::standard_suite()
        .into_iter()
        .find(|chip| chip.name() == "HC02")
        .unwrap()
        .tile_powers()
}

fn tiles(pairs: &[(usize, usize)]) -> Vec<TileIndex> {
    pairs.iter().map(|&(r, c)| TileIndex::new(r, c)).collect()
}

fn system(powers: Vec<Watts>, tiles: &[TileIndex]) -> CoolingSystem {
    CoolingSystem::new(
        &package(),
        TecParams::superlattice_thin_film(),
        tiles,
        powers,
    )
    .unwrap()
}

fn dense_oracle(system: &CoolingSystem, rel_tol: f64) -> PdThreshold {
    generalized_pd_threshold_dense(
        system.stamped().model().g_matrix(),
        system.stamped().d_diagonal(),
        rel_tol,
        DEFAULT_PROBE_BUDGET,
    )
    .unwrap()
}

fn assert_matches_oracle(name: &str, system: &CoolingSystem) {
    let tol = CurrentSettings::default().lambda_tolerance;
    let lim = runaway_limit(system, tol).unwrap();
    let dense = dense_oracle(system, tol);
    assert_eq!(
        lim.feasible().value().to_bits(),
        dense.lower.to_bits(),
        "{name}: lower {} vs dense {}",
        lim.feasible().value(),
        dense.lower
    );
    assert_eq!(
        lim.infeasible().value().to_bits(),
        dense.upper.to_bits(),
        "{name}: upper {} vs dense {}",
        lim.infeasible().value(),
        dense.upper
    );
    assert_eq!(lim.probes(), dense.probes, "{name}: probe count");
}

#[test]
fn alpha_table1_deployment_matches_the_dense_oracle() {
    let tiles = tiles(&[(10, 2), (10, 3), (10, 4), (10, 5)]);
    assert_matches_oracle("Alpha", &system(alpha_powers(), &tiles));
}

#[test]
fn hc02_table1_deployment_matches_the_dense_oracle() {
    let tiles = tiles(&[
        (0, 8),
        (1, 0),
        (1, 1),
        (1, 8),
        (1, 9),
        (2, 0),
        (2, 1),
        (2, 9),
        (3, 0),
        (3, 1),
        (3, 2),
        (3, 8),
        (3, 9),
        (4, 1),
    ]);
    assert_matches_oracle("HC02", &system(hc02_powers(), &tiles));
}

#[test]
fn full_cover_alpha_matches_the_dense_oracle() {
    let all: Vec<TileIndex> = package().grid().tiles().collect();
    assert_matches_oracle("full-cover Alpha", &system(alpha_powers(), &all));
}

#[test]
fn two_pin_axis_limits_match_the_dense_oracle() {
    let groups = vec![
        tiles(&[(10, 2), (10, 3)]),
        tiles(&[(10, 4), (10, 5), (3, 3)]),
    ];
    let params = TecParams::superlattice_thin_film();
    let alpha = params.seebeck().value();
    let mp = MultiPinSystem::new(&package(), params, &groups, alpha_powers()).unwrap();
    let stamped = mp.as_single_pin().stamped();
    let n = stamped.model().node_count();
    for (group, fixed) in [(0_usize, 1.5), (1, 2.5)] {
        // D of the searched group; devices are numbered group by group.
        let first = groups[..group].iter().map(Vec::len).sum::<usize>();
        let mut d = vec![0.0; n];
        for &(cold, hot) in &stamped.junctions()[first..first + groups[group].len()] {
            d[hot] = alpha;
            d[cold] = -alpha;
        }
        // G with the other pin held at its current.
        let mut currents = vec![Amperes(fixed); 2];
        currents[group] = Amperes(0.0);
        let g_fixed = mp.system_matrix(&currents).unwrap();
        let dense =
            generalized_pd_threshold_dense(&g_fixed, &d, 1e-9, DEFAULT_PROBE_BUDGET).unwrap();
        let limit = mp.axis_limit(&currents, group).unwrap();
        assert_eq!(
            limit.value().to_bits(),
            dense.lower.to_bits(),
            "group {group}: axis limit {} vs dense {}",
            limit.value(),
            dense.lower
        );
    }
}
