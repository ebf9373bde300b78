//! The sparse path from assembly to factor against its dense oracles on the
//! paper's eleven Table-I chips, each at its reference deployment (the
//! tiles of `perfbench/reference/table1.tsv`):
//!
//! - the CSR `G` equals the dense-stamped `G` bit for bit,
//! - the CSR and dense analyses give the same elimination order,
//! - steady temperatures at three currents equal the same placement
//!   factorization built on the dense-assembled `G` bit for bit, and a
//!   whole-network Cholesky of the dense-assembled `G − i·D` to rounding,
//! - the `runaway_limit` bracket equals the search run on the dense `G`.

use std::sync::Arc;
use tecopt::{runaway_limit, CoolingSystem, CurrentSettings, TileIndex};
use tecopt_bench::all_benchmarks;
use tecopt_linalg::eigen::generalized_pd_threshold;
use tecopt_linalg::{Cholesky, CholeskyPattern, CsrMatrix, ShiftedCholesky};
use tecopt_units::Amperes;

const REFERENCE: &str = include_str!("../../../perfbench/reference/table1.tsv");

/// The reference deployment of `name`: the last field of its row,
/// `row,col;row,col;…` (or `-` for none).
fn reference_tiles(name: &str) -> Vec<TileIndex> {
    let row = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.first() == Some(&name))
        .unwrap_or_else(|| panic!("{name} has no reference row"));
    let tiles = row.last().expect("tiles field");
    if *tiles == "-" {
        return Vec::new();
    }
    tiles
        .split(';')
        .map(|t| {
            let (r, c) = t.split_once(',').expect("row,col");
            TileIndex::new(r.parse().expect("row"), c.parse().expect("col"))
        })
        .collect()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn check_chip(name: &str, chip: &CoolingSystem) {
    let system = chip.with_tiles(&reference_tiles(name)).expect("deployment");
    let stamped = system.stamped();
    let model = stamped.model();
    let dense_g = model.network().assemble_dense();

    assert_eq!(
        bits(model.g_matrix().to_dense().as_slice()),
        bits(dense_g.as_slice()),
        "{name}: CSR G differs from the dense assembly"
    );
    assert_eq!(
        model.cholesky_pattern().expect("pattern").permutation(),
        CholeskyPattern::analyse(&dense_g)
            .expect("square")
            .permutation(),
        "{name}: CSR and dense analyses order differently"
    );

    let tol = CurrentSettings::default().lambda_tolerance;
    let currents = if system.device_count() == 0 {
        vec![0.0, 1.0, 2.0]
    } else {
        let lim = runaway_limit(&system, tol).expect("lambda_m");
        let dense =
            generalized_pd_threshold(&CsrMatrix::from_dense(&dense_g), stamped.d_diagonal(), tol)
                .expect("dense-G lambda_m");
        assert_eq!(
            (
                lim.feasible().value().to_bits(),
                lim.infeasible().value().to_bits()
            ),
            (dense.lower.to_bits(), dense.upper.to_bits()),
            "{name}: lambda_m bracket differs on the dense G"
        );
        assert_eq!(lim.probes(), dense.probes, "{name}: probe count");
        let lambda = lim.feasible().value();
        vec![0.0, 0.4 * lambda, 0.9 * lambda]
    };
    let dense_csr = CsrMatrix::from_dense(&dense_g);
    let support: Vec<usize> = stamped
        .junctions()
        .iter()
        .flat_map(|&(cold, hot)| [cold, hot])
        .collect();
    let family = Arc::new(
        ShiftedCholesky::new(&dense_csr, stamped.d_diagonal(), &support, || {
            Ok(Arc::new(CholeskyPattern::analyse(&dense_g)?))
        })
        .expect("placement factor of the dense G"),
    );
    for i in currents {
        let state = system.solve(Amperes(i)).expect("steady state");
        assert_eq!(system.factor_plan(), Some(family.plan()), "{name}: plan");
        let mut a = dense_g.clone();
        a.add_scaled_diagonal(stamped.d_diagonal(), -i)
            .expect("square");
        assert_eq!(a, stamped.system_matrix(Amperes(i)).expect("G - iD"));
        let p = stamped
            .power_vector(system.tile_powers(), Amperes(i))
            .expect("power");
        let oracle = family.factor_at(i).expect("pd").solve(&p).expect("solve");
        let theta: Vec<f64> = state
            .node_temperatures()
            .iter()
            .map(|t| t.value())
            .collect();
        assert_eq!(bits(&theta), bits(&oracle), "{name}: theta at {i} A");
        let network = Cholesky::factor(&a).expect("pd").solve(&p).expect("solve");
        for (x, y) in theta.iter().zip(&network) {
            assert!(
                (x - y).abs() <= 1e-12 * y.abs(),
                "{name}: theta at {i} A: {x} vs network factor {y}"
            );
        }
    }
}

#[test]
fn table1_chips_are_bit_identical_to_the_dense_assembled_path() {
    let chips = all_benchmarks().expect("benchmarks");
    assert_eq!(chips.len(), 11);
    for (name, chip) in &chips {
        check_chip(name, chip);
    }
}
