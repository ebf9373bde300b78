//! Oracle tests for the explorer's production evaluation (DESIGN.md §18).
//!
//! Every settled `done` record must equal what the public one-candidate
//! entry points give for that candidate:
//!
//! - a `Tiles` candidate, `optimize_current` on the candidate's own
//!   system, bit for bit;
//! - a `Greedy` candidate, `greedy_deploy` with default
//!   [`DeploySettings`], bit for bit;
//! - under a forced solver backend, the same calls on that backend (the
//!   explorer used to build every candidate on the default backend while
//!   its passive baseline kept the override);
//! - the opt-in [`FactorStrategy::RankKUpdate`] path, to 1e-9 relative,
//!   for as long as that path exists.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tecopt::{
    greedy_deploy, optimize_current, CoolingSystem, CurrentSettings, DeploySettings,
    FactorStrategy, PackageConfig, RunContext, TecParams, TileIndex,
};
use tecopt_explore::{
    Candidate, DesignSpace, EvalRecord, ExploreSettings, Explorer, Ledger, Placement,
};
use tecopt_linalg::SolverBackend;
use tecopt_units::{Amperes, Celsius, Watts};

fn base_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    powers[10] = Watts(0.4);
    CoolingSystem::new(&config, TecParams::superlattice_thin_film(), &[], powers).unwrap()
}

/// Thickness × contact levels over two fixed masks and a greedy
/// deployment, with the limit 2 °C under the passive peak so that every
/// candidate passes the first cut and greedy deploys devices.
fn space(system: &CoolingSystem) -> DesignSpace {
    let passive = system.solve(Amperes(0.0)).unwrap().peak().value();
    DesignSpace::new(
        vec![0.75, 1.0, 1.5],
        vec![0.9, 1.2],
        vec![
            Placement::Tiles(vec![TileIndex::new(1, 1)]),
            Placement::Tiles(vec![
                TileIndex::new(1, 1),
                TileIndex::new(2, 2),
                TileIndex::new(1, 2),
            ]),
            Placement::Greedy,
        ],
        Celsius(passive - 2.0),
    )
    .unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tecopt-explore-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `explorer` against a fresh ledger and returns its settled `done`
/// records, read back from the file.
fn settled(explorer: &Explorer, name: &str) -> BTreeMap<u64, EvalRecord> {
    let path = scratch(name);
    let _ = std::fs::remove_file(&path);
    let report = explorer
        .explore(&RunContext::unbounded().checkpoint(&path))
        .unwrap();
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.pruned, 0);
    let (_, state) = Ledger::open(&path, explorer.fingerprint(), explorer.space().len()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(state.done.len(), explorer.space().len());
    state.done
}

/// The record a direct evaluation of `cand` on `system`'s backend gives:
/// the one-candidate entry points with their default settings.
fn direct(system: &CoolingSystem, cand: &Candidate, theta: Celsius) -> EvalRecord {
    let backend = system.backend();
    let scaled = cand.scaled_params(system.stamped().params()).unwrap();
    let powers = system.tile_powers().to_vec();
    match &cand.placement {
        Placement::Tiles(tiles) => {
            let sys = CoolingSystem::new(system.config(), scaled, tiles, powers)
                .unwrap()
                .with_backend(backend);
            let opt = optimize_current(&sys, CurrentSettings::default()).unwrap();
            EvalRecord::Evaluated {
                id: cand.id,
                feasible: opt.state().peak().value() <= theta.value(),
                devices: tiles.len(),
                current: opt.current(),
                peak: opt.state().peak(),
                tec_power: opt.state().tec_power(),
                evaluations: opt.evaluations(),
            }
        }
        Placement::Greedy => {
            let base = CoolingSystem::new(system.config(), scaled, &[], powers)
                .unwrap()
                .with_backend(backend);
            let outcome = greedy_deploy(&base, DeploySettings::with_limit(theta)).unwrap();
            let d = outcome.deployment();
            assert!(d.device_count() > 0, "greedy deployed nothing");
            EvalRecord::Evaluated {
                id: cand.id,
                feasible: outcome.is_satisfied(),
                devices: d.device_count(),
                current: d.optimum().current(),
                peak: d.optimum().state().peak(),
                tec_power: d.optimum().state().tec_power(),
                evaluations: d.optimum().evaluations(),
            }
        }
    }
}

/// `(current, peak, tec_power)` bits of an evaluated record.
fn bits(rec: &EvalRecord) -> (u64, u64, u64) {
    match rec {
        EvalRecord::Evaluated {
            current,
            peak,
            tec_power,
            ..
        } => (
            current.value().to_bits(),
            peak.value().to_bits(),
            tec_power.value().to_bits(),
        ),
        EvalRecord::Pruned { id } => panic!("candidate {id:016x} was pruned"),
    }
}

fn assert_matches_direct(system: &CoolingSystem, explorer: &Explorer, name: &str) {
    let done = settled(explorer, name);
    let theta = explorer.space().theta_limit();
    for cand in explorer.space().candidates() {
        let expected = direct(system, &cand, theta);
        let got = &done[&cand.id];
        assert_eq!(
            bits(got),
            bits(&expected),
            "candidate {:016x} ({:?})",
            cand.id,
            cand.placement
        );
        assert_eq!(got, &expected);
    }
}

#[test]
fn default_records_equal_direct_placement_factor_evaluations_bit_for_bit() {
    let system = base_system();
    let explorer = Explorer::new(&system, space(&system), ExploreSettings::default());
    assert_eq!(explorer.space().len(), 18);
    assert_matches_direct(&system, &explorer, "default.ledger");
}

#[test]
fn a_forced_backend_reaches_every_candidate() {
    let system = base_system().with_backend(SolverBackend::DenseCholesky);
    let explorer = Explorer::new(&system, space(&system), ExploreSettings::default());
    assert_matches_direct(&system, &explorer, "dense.ledger");
}

#[test]
fn rank_k_records_agree_with_the_default_to_1e_9_relative() {
    let system = base_system();
    let refactor = Explorer::new(&system, space(&system), ExploreSettings::default());
    let rank_k = Explorer::new(
        &system,
        space(&system),
        ExploreSettings {
            strategy: FactorStrategy::RankKUpdate,
            ..ExploreSettings::default()
        },
    );
    let a = settled(&refactor, "refactor.ledger");
    let b = settled(&rank_k, "rank_k.ledger");
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    for (id, ra) in &a {
        let (
            EvalRecord::Evaluated {
                feasible: fa,
                devices: da,
                current: ca,
                peak: pa,
                tec_power: wa,
                ..
            },
            Some(EvalRecord::Evaluated {
                feasible: fb,
                devices: db,
                current: cb,
                peak: pb,
                tec_power: wb,
                ..
            }),
        ) = (ra, b.get(id))
        else {
            panic!("candidate {id:016x} not evaluated under both strategies");
        };
        assert_eq!((fa, da), (fb, db), "candidate {id:016x}");
        for (x, y) in [
            (ca.value(), cb.value()),
            (pa.value(), pb.value()),
            (wa.value(), wb.value()),
        ] {
            assert!(close(x, y), "candidate {id:016x}: {x} vs {y}");
        }
    }
}

/// The placements a sweep of `explorer` factors, as (tiles, contact
/// scale bits) with the number of placement factors each one asks for:
/// one for the explorer's passive system, one per `Tiles` candidate, and
/// per `Greedy` candidate one for its passive start and one per
/// iteration. A placement's `G_AA` and `G_AB` depend on its tiles and its
/// contacts, not on film thickness, so this pair names its leading block;
/// every passive network (no tiles, contact 0) shares one.
fn placements(
    system: &CoolingSystem,
    explorer: &Explorer,
) -> BTreeMap<(Vec<TileIndex>, u64), usize> {
    let theta = explorer.space().theta_limit();
    let mut uses = BTreeMap::new();
    *uses.entry((Vec::new(), 0)).or_default() += 1;
    for cand in explorer.space().candidates() {
        let contact = cand.contact_scale.to_bits();
        match &cand.placement {
            Placement::Tiles(tiles) => {
                let mut tiles = tiles.clone();
                tiles.sort_unstable();
                *uses.entry((tiles, contact)).or_default() += 1;
            }
            Placement::Greedy => {
                *uses.entry((Vec::new(), 0)).or_default() += 1;
                let scaled = cand.scaled_params(system.stamped().params()).unwrap();
                let base =
                    CoolingSystem::new(system.config(), scaled, &[], system.tile_powers().to_vec())
                        .unwrap();
                let outcome = greedy_deploy(&base, DeploySettings::with_limit(theta)).unwrap();
                let mut covered = Vec::new();
                for it in outcome.deployment().iterations() {
                    covered.extend(it.added.iter().copied());
                    covered.sort_unstable();
                    *uses.entry((covered.clone(), contact)).or_default() += 1;
                }
            }
        }
    }
    uses
}

#[test]
fn candidates_share_one_leading_block_per_distinct_passive_block() {
    let system = base_system();
    let explorer = Explorer::new(&system, space(&system), ExploreSettings::default());
    let uses = placements(&system, &explorer);
    let requested: usize = uses.values().sum();
    let workers = tecopt::parallel::worker_count();
    // The explorer's own passive block is built before any worker starts,
    // so every greedy candidate's passive start reuses it; any other block
    // is built at most once per worker that meets it first.
    let most: usize = uses
        .iter()
        .map(|((tiles, _), &n)| if tiles.is_empty() { 1 } else { n.min(workers) })
        .sum();

    let report = explorer.explore(&RunContext::unbounded()).unwrap();
    let (built, reused) = (report.leading_blocks_built, report.leading_blocks_reused);
    assert_eq!(built + reused, requested, "built {built}, reused {reused}");
    assert!(
        built >= uses.len(),
        "built {built} for {} blocks",
        uses.len()
    );
    assert!(
        built <= most,
        "built {built}, at most {most} at {workers} workers"
    );
    assert!(reused >= requested - most);

    // The greedy deployment itself, on a cache that holds the passive
    // block: it reuses that block for its start and builds one per
    // iteration.
    let cache = std::sync::Arc::new(tecopt_linalg::LeadingBlockCache::new());
    let passive = system
        .with_tiles(&[])
        .unwrap()
        .with_leading_cache(std::sync::Arc::clone(&cache));
    passive.solve(Amperes(0.0)).unwrap();
    let greedy = explorer
        .space()
        .candidates()
        .into_iter()
        .find(|c| c.placement == Placement::Greedy)
        .unwrap();
    let scaled = greedy.scaled_params(system.stamped().params()).unwrap();
    let base = CoolingSystem::new(system.config(), scaled, &[], system.tile_powers().to_vec())
        .unwrap()
        .with_leading_cache(std::sync::Arc::clone(&cache));
    let outcome = greedy_deploy(
        &base,
        DeploySettings::with_limit(explorer.space().theta_limit()),
    )
    .unwrap();
    let iterations = outcome.deployment().iterations().len();
    assert!(iterations > 0);
    assert_eq!((cache.built(), cache.reused()), (1 + iterations, 1));
}
