//! One network per package.
//!
//! The package's passive network is built from geometry once per built
//! `PackageConfig` and kept in it. Every passive model of the package
//! shares it and its `G`; every placement splices its two-ports into it.
//! Both must be the geometric build (`CompactModel::from_geometry`) bit
//! for bit, on the paper's own placements: the ten Table-I deployments and
//! full cover, on the Alpha package and on the package the HC chips share.

use tecopt::{CoolingSystem, PackageConfig, TecParams, TileIndex};
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_thermal::{CompactModel, TwoPortSpec};

/// Asserts two models are the same network bit for bit: `G` (row
/// pointers, columns, value bits), the stamps and ambient legs in order,
/// the node kinds, injection, capacitance and every node id list.
fn assert_same_model(model: &CompactModel, oracle: &CompactModel) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (g, h) = (model.g_matrix(), oracle.g_matrix());
    assert_eq!(g.row_ptr(), h.row_ptr());
    assert_eq!(g.col_indices(), h.col_indices());
    assert_eq!(bits(g.values()), bits(h.values()));
    let stamps = |m: &CompactModel| {
        let net = m.network();
        let edges: Vec<_> = net
            .conductances()
            .iter()
            .map(|&(a, b, g)| (a, b, g.to_bits()))
            .collect();
        let legs: Vec<_> = net
            .ambient_legs()
            .iter()
            .map(|&(k, g)| (k, g.to_bits()))
            .collect();
        (edges, legs, net.kinds().to_vec())
    };
    assert_eq!(stamps(model), stamps(oracle));
    assert_eq!(
        bits(model.ambient_injection()),
        bits(oracle.ambient_injection())
    );
    assert_eq!(
        bits(&model.capacitance_vector()),
        bits(&oracle.capacitance_vector())
    );
    assert_eq!(model.silicon_nodes(), oracle.silicon_nodes());
    assert_eq!(model.interfaces(), oracle.interfaces());
    assert_eq!(model.spreader_nodes(), oracle.spreader_nodes());
    assert_eq!(model.sink_nodes(), oracle.sink_nodes());
}

fn package() -> PackageConfig {
    PackageConfig::hotspot41_like(12, 12).unwrap()
}

fn alpha(config: &PackageConfig) -> CoolingSystem {
    let powers = WorkloadModel::alpha_spec2000_like()
        .unwrap()
        .worst_case_envelope(0.2)
        .unwrap()
        .rasterize(config.grid())
        .unwrap();
    CoolingSystem::without_devices(config, TecParams::superlattice_thin_film(), powers).unwrap()
}

/// HC01–HC10, all on one package.
fn hypothetical(config: &PackageConfig) -> Vec<(String, CoolingSystem)> {
    HypotheticalChip::standard_suite()
        .into_iter()
        .map(|chip| {
            let system = CoolingSystem::without_devices(
                config,
                TecParams::superlattice_thin_film(),
                chip.tile_powers(),
            )
            .unwrap();
            (chip.name().to_string(), system)
        })
        .collect()
}

const REFERENCE: &str = include_str!("../perfbench/reference/table1.tsv");

/// The deployed tiles of the Table-I reference row of `name` (its seventh
/// field, `row,col;…` or `-`).
fn table1_tiles(name: &str) -> Vec<TileIndex> {
    let line = REFERENCE
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap();
    match line.split_whitespace().nth(6).unwrap() {
        "-" => Vec::new(),
        list => list
            .split(';')
            .map(|rc| {
                let (r, c) = rc.split_once(',').unwrap();
                TileIndex::new(r.parse().unwrap(), c.parse().unwrap())
            })
            .collect(),
    }
}

/// The geometric build of `system`'s placement with `tiles` deployed.
fn oracle(system: &CoolingSystem, tiles: &[TileIndex]) -> CompactModel {
    let spec = system.stamped().params().two_port_spec();
    let splices: Vec<(TileIndex, TwoPortSpec)> = tiles.iter().map(|&t| (t, spec)).collect();
    CompactModel::from_geometry(system.stamped().model().config(), &splices).unwrap()
}

#[test]
fn every_table1_placement_and_full_cover_is_the_geometric_model() {
    let alpha_package = package();
    let hc_package = package();
    let mut chips = vec![("Alpha".to_string(), alpha(&alpha_package))];
    chips.extend(hypothetical(&hc_package));
    let all: Vec<TileIndex> = alpha_package.grid().tiles().collect();
    let mut placed = 0;
    for (name, base) in &chips {
        let tiles = table1_tiles(name);
        placed += usize::from(!tiles.is_empty());
        for tiles in [&tiles[..], &all[..], &[]] {
            let system = base.with_tiles(tiles).unwrap();
            assert_same_model(system.stamped().model(), &oracle(base, tiles));
        }
    }
    assert_eq!(placed, 10, "HC07 alone deploys nothing");
}

#[test]
fn every_passive_system_of_one_package_shares_one_g() {
    let config = package();
    let chips = hypothetical(&config);
    let first = chips[0].1.stamped().model().g_matrix();
    let placed = chips[3].1.with_tiles(&table1_tiles("HC04")).unwrap();
    assert!(!std::ptr::eq(placed.stamped().model().g_matrix(), first));
    let more = [
        placed.with_tiles(&[]).unwrap(),
        alpha(&config.clone()),
        chips[5].1.clone(),
    ];
    let passive = chips.iter().map(|(_, s)| s).chain(&more);
    for system in passive {
        assert!(std::ptr::eq(system.stamped().model().g_matrix(), first));
    }
    // A separately built package builds its own network, equal bit for bit.
    let other = alpha(&package());
    assert!(!std::ptr::eq(other.stamped().model().g_matrix(), first));
    assert_same_model(other.stamped().model(), chips[0].1.stamped().model());
}
