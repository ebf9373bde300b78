//! Property-based tests for the compact thermal model: the Lemma-1
//! structure and the physics invariants must hold for arbitrary package
//! geometries and power profiles, not just the defaults.

use proptest::prelude::*;
use tecopt_linalg::stieltjes::{check_stieltjes, is_irreducible};
use tecopt_thermal::{
    CompactModel, NodeId, NodeKind, PackageConfig, ThermalNetwork, TileGrid, TileIndex, TwoPortSpec,
};
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

/// A random network of 1–13 nodes with its conductance stamps as
/// `(a, b)` pairs: up to 24 stamps, a quarter of them followed by the same
/// pair reversed and a quarter by the same pair repeated, so that nodes
/// are often isolated and entries often summed; and zero to three ambient
/// legs, possibly on one node.
fn arbitrary_network() -> impl Strategy<Value = (ThermalNetwork, Vec<(usize, usize)>)> {
    (
        1usize..14,
        proptest::collection::vec((0usize..64, 0usize..64, 0.01f64..10.0, 0usize..4), 0..25),
        proptest::collection::vec((0usize..64, 0.01f64..10.0), 0..4),
    )
        .prop_map(|(n, stamps, legs)| {
            let mut net = ThermalNetwork::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|k| {
                    net.add_node(match k % 3 {
                        0 => NodeKind::Spreader(k),
                        1 => NodeKind::Sink(k),
                        _ => NodeKind::Silicon(TileIndex::new(k, 0)),
                    })
                })
                .collect();
            let mut edges = Vec::new();
            if n > 1 {
                for (a, offset, g, twin) in stamps {
                    let a = a % n;
                    let b = (a + 1 + offset % (n - 1)) % n;
                    let mut stamp = |a: usize, b: usize, g: f64| {
                        net.add_conductance(ids[a], ids[b], g);
                        edges.push((a, b));
                    };
                    stamp(a, b, g);
                    match twin {
                        0 => stamp(b, a, 0.3 * g + 0.7),
                        1 => stamp(a, b, 1.9 * g),
                        _ => {}
                    }
                }
            }
            for (k, g) in legs {
                net.add_ambient_conductance(ids[k % n], g);
            }
            (net, edges)
        })
}

/// The grounding check the union-find replaced, kept as its oracle: a
/// depth-first search from node 0 over one adjacency `Vec` per node. The
/// lowest-index node it does not reach, if any.
fn dfs_first_unreachable(n: usize, edges: &[(usize, usize)]) -> Option<usize> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen.iter().position(|&s| !s)
}

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

fn arbitrary_spec() -> impl Strategy<Value = TwoPortSpec> {
    (1e-3f64..1.0, 1e-3f64..1.0, 1e-3f64..1.0).prop_map(|(lower, mid, upper)| TwoPortSpec {
        lower_contact: WattsPerKelvin(lower),
        mid: WattsPerKelvin(mid),
        upper_contact: WattsPerKelvin(upper),
    })
}

/// A package with a tile set on it and one spec per tile. The tile set is
/// an arbitrary subset (possibly empty), the four corners, the first row
/// (an edge) or every tile, in ascending or descending order.
fn arbitrary_placement() -> impl Strategy<Value = (PackageConfig, Vec<(TileIndex, TwoPortSpec)>)> {
    (
        arbitrary_config(),
        0usize..4,
        proptest::collection::btree_set(0usize..36, 0..10),
        0usize..2,
        proptest::collection::vec(arbitrary_spec(), 36),
    )
        .prop_map(|(config, kind, pick, descending, specs)| {
            let (rows, cols) = (config.grid().rows(), config.grid().cols());
            let n = rows * cols;
            let mut linear: Vec<usize> = match kind {
                0 => pick.into_iter().map(|k| k % n).collect(),
                1 => vec![0, cols - 1, n - cols, n - 1],
                2 => (0..cols).collect(),
                _ => (0..n).collect(),
            };
            linear.sort_unstable();
            linear.dedup();
            if descending == 1 {
                linear.reverse();
            }
            let splices = linear
                .into_iter()
                .map(|k| TileIndex::new(k / cols, k % cols))
                .zip(specs)
                .collect();
            (config, splices)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass CSR assembly equals the dense `+=` oracle bit for bit
    /// on arbitrary stamp lists (isolated nodes, repeated and reversed
    /// pairs, any number of ambient legs), stores every diagonal, and
    /// stores exactly the off-diagonal positions some stamp touched.
    #[test]
    fn assembly_of_any_network_is_bit_identical_to_the_dense_oracle(
        (net, edges) in arbitrary_network(),
    ) {
        let n = net.node_count();
        let g = net.assemble();
        let oracle = net.assemble_dense();
        let dense = g.to_dense();
        for (u, v) in dense.as_slice().iter().zip(oracle.as_slice()) {
            prop_assert_eq!(u.to_bits(), v.to_bits());
        }
        let mut touched: Vec<(usize, usize)> = edges
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .chain((0..n).map(|k| (k, k)))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let stored: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| g.col_indices()[g.row_ptr()[r]..g.row_ptr()[r + 1]].iter().map(move |&c| (r, c)))
            .collect();
        prop_assert_eq!(stored, touched);
    }

    /// The union-find grounding check agrees with the per-node-`Vec` DFS
    /// it replaced, and its error names the node the DFS finds stranded.
    #[test]
    fn grounding_check_agrees_with_the_dfs_oracle((net, edges) in arbitrary_network()) {
        let stranded = dfs_first_unreachable(net.node_count(), &edges);
        prop_assert_eq!(net.is_connected(), stranded.is_none());
        let result = net.validate_grounding();
        match (net.ambient_legs().is_empty(), stranded) {
            (true, _) => prop_assert!(result.is_err()),
            (false, None) => prop_assert!(result.is_ok()),
            (false, Some(k)) => {
                let message = result.unwrap_err().to_string();
                let named = format!("node n{k} ({:?}) cannot reach node n0", net.kinds()[k]);
                prop_assert!(message.contains(&named), "{} lacks {}", message, named);
            }
        }
    }
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

    /// A placement spliced into the package's passive network is the
    /// geometric build bit for bit, for any package, tile set (edge,
    /// corner, full cover, none) and specs, whether the passive network
    /// is built by the placement itself or was built before; every passive
    /// model of the package shares one `G`.
    #[test]
    fn spliced_models_equal_the_geometric_oracle(
        (config, splices) in arbitrary_placement(),
        passive_first in 0usize..2,
    ) {
        let passive = (passive_first == 1).then(|| CompactModel::new(&config).unwrap());
        let model = CompactModel::with_two_ports(&config, &splices).unwrap();
        assert_same_model(&model, &CompactModel::from_geometry(&config, &splices).unwrap());
        let passive = passive.unwrap_or_else(|| CompactModel::new(&config.clone()).unwrap());
        assert_same_model(&passive, &CompactModel::from_geometry(&config, &[]).unwrap());
        let again = CompactModel::new(&config).unwrap();
        prop_assert!(std::ptr::eq(passive.g_matrix(), again.g_matrix()));
        prop_assert_eq!(splices.is_empty(), std::ptr::eq(model.g_matrix(), again.g_matrix()));
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
