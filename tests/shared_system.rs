//! The convenience solves on a shared `&CoolingSystem` — `solve`,
//! `h_column`, `h_columns`, `eta` and `eta_and_derivative` — build a
//! solver handle per call and take no lock, so calling them from many
//! threads at once, on one system and on its clones, must give the
//! sequential answers bit for bit.

use tecopt::parallel::{par_map_init, worker_count};
use tecopt::{
    eta, eta_and_derivative, h_column, h_columns, runaway_limit, CoolingSystem, PackageConfig,
    TecParams, TileIndex,
};
use tecopt_units::{Amperes, Watts};

fn paper_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(8, 8).unwrap();
    let mut powers = vec![Watts(0.05); 64];
    powers[9] = Watts(0.6);
    powers[32] = Watts(0.4);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(4, 0)],
        powers,
    )
    .unwrap()
}

fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Every figure the five convenience calls give at `current`, as bits.
fn probe(system: &CoolingSystem, current: f64) -> Vec<u64> {
    let i = Amperes(current);
    let junction = system.stamped().joule_nodes()[0];
    let state = system.solve(i).unwrap();
    let mut out: Vec<u64> = state
        .node_temperatures()
        .iter()
        .map(|t| t.value().to_bits())
        .collect();
    out.push(state.peak().value().to_bits());
    out.push(state.tec_power().value().to_bits());
    out.extend(bits(&h_column(system, i, junction).unwrap()));
    for column in h_columns(system, i, &[junction, 0]).unwrap() {
        out.extend(bits(&column));
    }
    out.extend(bits(&eta(system, i).unwrap()));
    let (e, ep) = eta_and_derivative(system, i).unwrap();
    out.extend(bits(&e).chain(bits(&ep)));
    out
}

#[test]
fn convenience_solves_from_many_threads_match_sequential_calls_bit_for_bit() {
    let reference = paper_system();
    let lam = runaway_limit(&reference, 1e-9).unwrap().lambda().value();
    let currents: Vec<f64> = [0.0, 0.3, 0.6, 0.9].iter().map(|f| f * lam).collect();
    let expected: Vec<Vec<u64>> = currents.iter().map(|&i| probe(&reference, i)).collect();

    // A system nothing has solved yet, and two clones of it: the threads
    // race to build its placement factor and its leading solve.
    let shared = paper_system();
    let clones = [shared.clone(), shared.clone()];
    let systems = [&shared, &clones[0], &clones[1]];
    let workers = worker_count().max(2);
    let items: Vec<(usize, usize)> = (0..4 * workers * currents.len())
        .map(|k| (k % systems.len(), k % currents.len()))
        .collect();
    let got = par_map_init(
        items.clone(),
        || (),
        |_, (s, c)| probe(systems[s], currents[c]),
    );
    for ((s, c), answer) in items.iter().zip(&got) {
        assert!(
            *answer == expected[*c],
            "system {s} at {} A differs from the sequential call",
            currents[*c]
        );
    }
}
