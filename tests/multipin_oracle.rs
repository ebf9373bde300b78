//! The multi-pin steady solve against its dense oracle at unequal pin
//! currents.
//!
//! `MultiPinSystem::solve` factors `G − Σ_g i_g·D_g` through the merged
//! placement's factor, each pin shifting only its own junction nodes. The
//! oracle factors the whole matrix densely (`DenseCholesky` on
//! `system_matrix`) against a power vector built here from the tile powers
//! and the `r·i_g²/2` Joule source on both nodes of every device of pin
//! `g`. Equal currents are the single-pin case and are checked in the
//! module's own tests; here the pins differ, including at 0.99 of one
//! pin's axis limit.

use tecopt::multipin::MultiPinSystem;
use tecopt::{PackageConfig, TecParams, TileIndex};
use tecopt_linalg::DenseCholesky;
use tecopt_power::WorkloadModel;
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

fn tiles(list: &[(usize, usize)]) -> Vec<TileIndex> {
    list.iter().map(|&(r, c)| TileIndex::new(r, c)).collect()
}

/// Node temperatures of the dense oracle at `currents`.
fn dense_oracle(mp: &MultiPinSystem, groups: &[Vec<TileIndex>], currents: &[Amperes]) -> Vec<f64> {
    let single = mp.as_single_pin();
    let stamped = single.stamped();
    let m = mp.system_matrix(currents).unwrap().to_dense();
    let mut p = stamped.model().power_vector(single.tile_powers()).unwrap();
    let r = stamped.params().resistance().value();
    // Devices are numbered group by group.
    let mut junctions = stamped.junctions().iter();
    for (group, i) in groups.iter().zip(currents) {
        for &(cold, hot) in junctions.by_ref().take(group.len()) {
            let joule = 0.5 * r * i.value() * i.value();
            p[cold] += joule;
            p[hot] += joule;
        }
    }
    DenseCholesky::factor(&m).unwrap().solve(&p).unwrap()
}

#[test]
fn unequal_pin_currents_match_the_dense_oracle() {
    let groups = vec![
        tiles(&[(10, 2), (10, 3)]),
        tiles(&[(10, 4), (10, 5), (3, 3)]),
    ];
    let mp = MultiPinSystem::new(
        &package(),
        TecParams::superlattice_thin_film(),
        &groups,
        alpha_powers(),
    )
    .unwrap();
    let (a, b) = (Amperes(1.5), Amperes(4.0));
    let edge = 0.99 * mp.axis_limit(&[Amperes(0.0), b], 0).unwrap().value();
    assert!(edge > b.value(), "axis limit {edge} A");
    let points = [
        [Amperes(0.0), Amperes(0.0)],
        [a, b],
        [b, a],
        [Amperes(edge), b],
    ];
    for currents in points {
        let state = mp.solve(&currents).unwrap();
        let oracle = dense_oracle(&mp, &groups, &currents);
        for (node, (t, o)) in state.node_temperatures().iter().zip(&oracle).enumerate() {
            let rel = (t.value() - o).abs() / o.abs();
            assert!(
                rel <= 1e-10,
                "currents {currents:?}, node {node}: {} vs dense {o} ({rel:e} relative)",
                t.value()
            );
        }
    }
}
