//! The paper's executable theory (`tecopt::theory`: Lemmas 1–3 and
//! Theorems 1–3) checked on the systems the paper's own pipeline produces:
//! every Table-I placement that greedy deployment makes (Alpha and
//! HC01–HC10, with the limit raised 1 °C at a time as the paper does) and
//! the full-cover Alpha system. A chip that needs no device gets the typed
//! `NoDevicesDeployed` error, never a panic.
//!
//! The same systems keep the first law: the heat leaving through the
//! ambient legs is the chip's power plus the devices' electrical input.

use tecopt::theory::{check_all, TheoryReport};
use tecopt::{
    full_cover, greedy_deploy, runaway_limit, CoolingSystem, CurrentSettings, DeploySettings,
    OptError, PackageConfig, TecParams,
};
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_units::{Amperes, Celsius};

fn package() -> PackageConfig {
    PackageConfig::hotspot41_like(12, 12).unwrap()
}

fn alpha_base() -> CoolingSystem {
    let config = package();
    let envelope = WorkloadModel::alpha_spec2000_like()
        .unwrap()
        .worst_case_envelope(0.2)
        .unwrap();
    let powers = envelope.rasterize(config.grid()).unwrap();
    CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers).unwrap()
}

/// Alpha, then HC01–HC10: the Table-I benchmarks in paper order.
fn table1_bases() -> Vec<(String, CoolingSystem)> {
    let config = package();
    let mut bases = vec![("Alpha".to_string(), alpha_base())];
    for chip in HypotheticalChip::standard_suite() {
        let system = CoolingSystem::without_devices(
            &config,
            TecParams::superlattice_thin_film(),
            chip.tile_powers(),
        )
        .unwrap();
        bases.push((chip.name().to_string(), system));
    }
    bases
}

/// The greedy placement of the Table-I pipeline: deploy at 85 °C and raise
/// the limit 1 °C at a time until the deployment is satisfied.
fn table1_placement(base: &CoolingSystem) -> CoolingSystem {
    let uncooled = base.solve(Amperes(0.0)).unwrap().peak();
    let mut limit = Celsius(85.0);
    let mut outcome = greedy_deploy(base, DeploySettings::with_limit(limit)).unwrap();
    while !outcome.is_satisfied() && limit.value() < uncooled.value() {
        limit = Celsius(limit.value() + 1.0);
        outcome = greedy_deploy(base, DeploySettings::with_limit(limit)).unwrap();
    }
    outcome.deployment().system().clone()
}

fn assert_every_claim_holds(name: &str, reports: &[TheoryReport]) {
    assert_eq!(reports.len(), 6, "{name}");
    for r in reports {
        assert!(r.holds, "{name}: {} refuted: {}", r.claim, r.detail);
        assert!(r.witnesses > 0, "{name}: {} examined nothing", r.claim);
    }
}

/// Heat through the ambient legs equals chip power plus `tec_power`
/// (Eq. 3) at 0.1, 0.5 and 0.9·λ_m. Summed over every node, `(G − i·D)·θ
/// = p` says the legs carry `Σp + i·Σ_k d_k·θ_k`, and the Peltier sum is
/// `α·i·Σ(θ_hot − θ_cold)`, the term `tec_power` adds to `r·i²`, only when
/// `D` is `+α` at every hot node and `−α` at every cold one: a sign fault
/// anywhere in `D` breaks the balance.
fn assert_first_law(name: &str, system: &CoolingSystem) {
    let lambda = runaway_limit(system, CurrentSettings::default().lambda_tolerance)
        .unwrap()
        .lambda()
        .value();
    let ambient = system.config().ambient().to_kelvin().value();
    let legs = system.stamped().model().network().ambient_legs();
    for fraction in [0.1, 0.5, 0.9] {
        let state = system.solve(Amperes(fraction * lambda)).unwrap();
        let temps = state.node_temperatures();
        let convected: f64 = legs
            .iter()
            .map(|&(node, g)| g * (temps[node].value() - ambient))
            .sum();
        let supplied = system.total_chip_power().value() + state.tec_power().value();
        let rel = (convected - supplied).abs() / supplied;
        assert!(
            rel <= 1e-10,
            "{name} at {fraction}·λ_m: convected {convected} W, supplied {supplied} W ({rel:e})"
        );
    }
}

#[test]
fn every_claim_holds_on_every_table1_placement() {
    let mut checked = Vec::new();
    let mut passive = Vec::new();
    for (name, base) in table1_bases() {
        let system = table1_placement(&base);
        match check_all(&system) {
            Ok(reports) => {
                assert_every_claim_holds(&name, &reports);
                assert_first_law(&name, &system);
                checked.push(name);
            }
            Err(OptError::NoDevicesDeployed) => {
                assert_eq!(system.device_count(), 0, "{name}");
                passive.push(name);
            }
            Err(e) => panic!("{name}: theory check failed: {e}"),
        }
    }
    // HC07's uncooled peak (84.1 °C) is under the limit: it deploys nothing.
    assert_eq!(passive, ["HC07"]);
    assert_eq!(checked.len(), 10, "{checked:?}");
}

#[test]
fn every_claim_holds_on_full_cover_alpha() {
    let base = alpha_base();
    let full = full_cover(&base, CurrentSettings::default()).unwrap();
    let system = full.system();
    assert_eq!(system.device_count(), 144);
    assert_every_claim_holds("full-cover Alpha", &check_all(system).unwrap());
    assert_first_law("full-cover Alpha", system);
}
