//! Property-based tests for the compact thermal model: the Lemma-1
//! structure and the physics invariants must hold for arbitrary package
//! geometries and power profiles, not just the defaults.

use proptest::prelude::*;
use tecopt_linalg::stieltjes::{check_stieltjes, is_irreducible};
use tecopt_thermal::{CompactModel, PackageConfig, TileGrid, TileIndex, TwoPortSpec};
use tecopt_units::{Celsius, KelvinPerWatt, Meters, Watts, WattsPerKelvin};

fn arbitrary_config() -> impl Strategy<Value = PackageConfig> {
    (
        2usize..6,    // rows
        2usize..6,    // cols
        0.3f64..0.8,  // tile mm
        0.05f64..0.3, // die thickness mm
        30f64..150.0, // tim thickness um
        0.2f64..1.0,  // convection K/W
        20f64..60.0,  // ambient C
        4usize..12,   // spreader cells
        6usize..14,   // sink cells
    )
        .prop_map(
            |(rows, cols, tile, die_t, tim_t, conv, amb, sp_cells, sink_cells)| {
                let grid = TileGrid::new(rows, cols, Meters::from_millimeters(tile)).unwrap();
                PackageConfig::builder(grid)
                    .die_thickness(Meters::from_millimeters(die_t))
                    .tim_thickness(Meters::from_micrometers(tim_t))
                    .convection_resistance(KelvinPerWatt(conv))
                    .ambient(Celsius(amb))
                    .spreader_cells(sp_cells)
                    .sink_cells(sink_cells)
                    .build()
                    .unwrap()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1: the assembled G of any valid package is an irreducible
    /// positive-definite Stieltjes matrix.
    #[test]
    fn assembled_g_satisfies_lemma1(config in arbitrary_config()) {
        let model = CompactModel::new(&config).unwrap();
        let g = model.g_matrix().to_dense();
        prop_assert_eq!(check_stieltjes(&g, 1e-9), Ok(()));
        prop_assert!(is_irreducible(&g));
    }

    /// The CSR assembly of G equals the dense-stamped oracle bit for bit,
    /// stores every diagonal, and stores no zero off the diagonal, for any
    /// package and any set of spliced tiles.
    #[test]
    fn csr_assembly_is_bit_identical_to_the_dense_oracle(
        config in arbitrary_config(),
        pick in proptest::collection::btree_set(0usize..36, 0..8),
    ) {
        let rows = config.grid().rows();
        let cols = config.grid().cols();
        let spec = TwoPortSpec {
            lower_contact: WattsPerKelvin(0.02),
            mid: WattsPerKelvin(0.04),
            upper_contact: WattsPerKelvin(0.02),
        };
        let splices: Vec<(TileIndex, TwoPortSpec)> = pick
            .into_iter()
            .map(|k| TileIndex::new((k / cols) % rows, k % cols))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|t| (t, spec))
            .collect();
        let model = CompactModel::with_two_ports(&config, &splices).unwrap();
        let g = model.g_matrix();
        let oracle = model.network().assemble_dense();
        let dense = g.to_dense();
        prop_assert_eq!(dense.rows(), oracle.rows());
        for (u, v) in dense.as_slice().iter().zip(oracle.as_slice()) {
            prop_assert_eq!(u.to_bits(), v.to_bits());
        }
        let n = model.node_count();
        for r in 0..n {
            prop_assert!(g.diagonal_offset(r).is_some());
        }
        let stored_zeros = (0..n)
            .flat_map(|r| (g.row_ptr()[r]..g.row_ptr()[r + 1]).map(move |t| (r, t)))
            .filter(|&(r, t)| g.col_indices()[t] != r && g.values()[t] == 0.0)
            .count();
        prop_assert_eq!(stored_zeros, 0);
    }

    /// Zero power leaves every node exactly at ambient.
    #[test]
    fn zero_power_is_ambient(config in arbitrary_config()) {
        let model = CompactModel::new(&config).unwrap();
        let temps = model
            .solve_passive(&vec![Watts(0.0); config.grid().tile_count()])
            .unwrap();
        let amb = config.ambient().to_kelvin().value();
        for t in &temps {
            prop_assert!((t.value() - amb).abs() < 1e-6);
        }
    }

    /// Energy balance: total dissipation equals total convection.
    #[test]
    fn energy_balance(config in arbitrary_config(), watts in 0.01f64..0.5) {
        let model = CompactModel::new(&config).unwrap();
        let n = config.grid().tile_count();
        let temps = model.solve_passive(&vec![Watts(watts); n]).unwrap();
        let amb = config.ambient().to_kelvin().value();
        let mut out = 0.0;
        for &(idx, g) in model.network().ambient_legs() {
            out += g * (temps[idx].value() - amb);
        }
        let total = watts * n as f64;
        prop_assert!((out - total).abs() < 1e-6 * total.max(1.0));
    }

    /// Splicing two-ports anywhere keeps the Lemma-1 structure.
    #[test]
    fn spliced_model_satisfies_lemma1(
        config in arbitrary_config(),
        pick in proptest::collection::btree_set(0usize..4, 1..3),
    ) {
        let rows = config.grid().rows();
        let cols = config.grid().cols();
        let spec = TwoPortSpec {
            lower_contact: WattsPerKelvin(0.02),
            mid: WattsPerKelvin(0.04),
            upper_contact: WattsPerKelvin(0.02),
        };
        let splices: Vec<(TileIndex, TwoPortSpec)> = pick
            .into_iter()
            .map(|k| (TileIndex::new(k % rows, k % cols), spec))
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        let model = CompactModel::with_two_ports(&config, &splices).unwrap();
        let g = model.g_matrix().to_dense();
        prop_assert_eq!(check_stieltjes(&g, 1e-9), Ok(()));
        prop_assert!(is_irreducible(&g));
        prop_assert_eq!(model.two_ports().len(), splices.len());
    }

    /// Reciprocity of the passive network: the response at tile j to power
    /// at tile i equals the response at i to power at j (G is symmetric).
    #[test]
    fn reciprocity(config in arbitrary_config()) {
        let model = CompactModel::new(&config).unwrap();
        let n = config.grid().tile_count();
        if n < 2 {
            return Ok(());
        }
        let mut p1 = vec![Watts(0.0); n];
        p1[0] = Watts(0.3);
        let mut p2 = vec![Watts(0.0); n];
        p2[n - 1] = Watts(0.3);
        let t1 = model.solve_passive(&p1).unwrap();
        let t2 = model.solve_passive(&p2).unwrap();
        let s1 = model.silicon_temperatures(&t1);
        let s2 = model.silicon_temperatures(&t2);
        prop_assert!((s1[n - 1].value() - s2[0].value()).abs() < 1e-8);
    }
}
