//! Exhaustive error-path coverage: every public error variant of the five
//! library crates (`tecopt-linalg`, `tecopt-thermal`, `tecopt-device`,
//! `tecopt-power`, `tecopt` core) is driven through public APIs, using the
//! `tecopt-faultinject` perturbation helpers for the matrix cases.
//!
//! The point is not to re-test each crate's internals — their unit tests do
//! that — but to prove the *reachability* claim of the hardened pipeline:
//! no declared failure mode is dead code, and every one surfaces as a typed
//! error instead of a panic or a hang.

use tecopt::{
    greedy_deploy, optimize_current, runaway_limit, CoolingSystem, CurrentSettings, DeploySettings,
    OptError, PackageConfig, TecParams, TileIndex,
};
use tecopt_device::{DeviceError, OperatingPoint, StampedSystem, TecArray};
use tecopt_faultinject as fi;
use tecopt_linalg::{
    conjugate_gradient, eigen, CgSettings, Cholesky, CsrMatrix, DenseMatrix, DiagonalUpdate,
    LinalgError, Lu, Triplet, UpdatableFactor,
};
use tecopt_power::hotspot_io::{parse_ptrace, to_ptrace};
use tecopt_power::{Floorplan, PowerError, PowerProfile, Unit};
use tecopt_thermal::transient::BackwardEuler;
use tecopt_thermal::{CompactModel, Rect, ThermalError, TwoPortSpec};
use tecopt_units::{Amperes, Celsius, Kelvin, Meters, VoltsPerKelvin, Watts, WattsPerKelvin};

// ---------------------------------------------------------------- linalg --

#[test]
fn every_linalg_error_variant_is_reachable() {
    // NotSquare: the Cholesky oracle refuses rectangular input.
    assert!(matches!(
        Cholesky::factor(&DenseMatrix::zeros(2, 3)),
        Err(LinalgError::NotSquare { rows: 2, cols: 3 })
    ));

    // DimensionMismatch: right-hand side shorter than the factored system.
    let chol = Cholesky::factor(&fi::spd_matrix(4, 1)).unwrap();
    assert!(matches!(
        chol.solve(&[1.0, 2.0]),
        Err(LinalgError::DimensionMismatch {
            expected: 4,
            actual: 2
        })
    ));

    // RaggedRows: constructor-level shape fault.
    assert!(matches!(
        DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]),
        Err(LinalgError::RaggedRows {
            row: 1,
            len: 1,
            expected: 2
        })
    ));

    // NotPositiveDefinite: lost definiteness (the runaway signature).
    let mut indefinite = fi::spd_matrix(5, 2);
    fi::break_definiteness(&mut indefinite);
    assert!(matches!(
        Cholesky::factor(&indefinite),
        Err(LinalgError::NotPositiveDefinite { .. })
    ));

    // Singular: exact rank deficiency defeats even pivoted LU.
    let mut deficient = fi::spd_matrix(5, 3);
    fi::make_rank_deficient(&mut deficient, 1, 3);
    assert!(matches!(
        Lu::factor(&deficient),
        Err(LinalgError::Singular { .. })
    ));

    // NoConvergence: a one-iteration cap cannot settle CG on a coupled
    // system.
    let a = CsrMatrix::from_dense(&fi::spd_matrix(6, 4));
    let cap = CgSettings {
        max_iterations: 1,
        ..CgSettings::default()
    };
    assert!(matches!(
        conjugate_gradient(&a, &[1.0; 6], cap),
        Err(LinalgError::NoConvergence { iterations: 1, .. })
    ));

    // NonFiniteEntry: NaN poisoning is caught by the finiteness screen.
    let mut poisoned = fi::spd_matrix(4, 5);
    fi::inject_nan(&mut poisoned, 2, 1);
    assert!(matches!(
        poisoned.ensure_finite(),
        Err(LinalgError::NonFiniteEntry { row: 2, col: 1 })
    ));

    // IllConditioned: an SMW update landing exactly on the definiteness
    // boundary (diag(4, 4) − 4·e₀e₀ᵀ) leaves a zero capacitance pivot, so
    // the update refuses to certify anything and asks for a refactor.
    let factor = UpdatableFactor::new(
        Cholesky::factor(&DenseMatrix::from_diagonal(&[4.0, 4.0])).unwrap(),
        &[0],
    )
    .unwrap();
    assert!(matches!(
        factor.apply(&DiagonalUpdate::new([(0, -4.0)]).unwrap()),
        Err(LinalgError::IllConditioned { estimate }) if estimate > 1e15
    ));

    // BudgetExhausted: a zero probe budget terminates the λ_m search
    // immediately instead of hanging.
    let g = fi::spd_matrix(3, 6);
    assert!(matches!(
        eigen::generalized_pd_threshold_budgeted(
            &CsrMatrix::from_dense(&g),
            &[1.0, 1.0, 1.0],
            1e-9,
            0
        ),
        Err(LinalgError::BudgetExhausted {
            spent: 0,
            budget: 0
        })
    ));

    // InvalidInput: out-of-bounds sparse triplet.
    assert!(matches!(
        CsrMatrix::from_triplets(2, 2, &[Triplet::new(5, 0, 1.0)]),
        Err(LinalgError::InvalidInput(_))
    ));
    // ... and a Jacobi preconditioner with a nonpositive diagonal.
    let csr = CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 0, -1.0), Triplet::new(1, 1, 1.0)])
        .unwrap();
    assert!(matches!(
        conjugate_gradient(&csr, &[1.0, 1.0], CgSettings::default()),
        Err(LinalgError::InvalidInput(_))
    ));
}

// --------------------------------------------------------------- thermal --

#[test]
fn every_thermal_error_variant_is_reachable() {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();

    // InvalidConfig: a two-port spec with a non-physical conductance.
    let bad_spec = TwoPortSpec {
        lower_contact: WattsPerKelvin(-1.0),
        mid: WattsPerKelvin(1.0),
        upper_contact: WattsPerKelvin(1.0),
    };
    assert!(matches!(
        bad_spec.validate(),
        Err(ThermalError::InvalidConfig(_))
    ));

    let good_spec = TwoPortSpec {
        lower_contact: WattsPerKelvin(1.0),
        mid: WattsPerKelvin(1.0),
        upper_contact: WattsPerKelvin(1.0),
    };

    // TileOutOfBounds: splicing a device outside the 4x4 grid.
    assert!(matches!(
        CompactModel::with_two_ports(&config, &[(TileIndex::new(9, 9), good_spec)]),
        Err(ThermalError::TileOutOfBounds {
            row: 9,
            col: 9,
            rows: 4,
            cols: 4
        })
    ));

    // DuplicateTwoPort: the same tile spliced twice.
    let t = TileIndex::new(1, 1);
    assert!(matches!(
        CompactModel::with_two_ports(&config, &[(t, good_spec), (t, good_spec)]),
        Err(ThermalError::DuplicateTwoPort { row: 1, col: 1 })
    ));

    // PowerLengthMismatch: 3 powers for a 16-tile die.
    let model = CompactModel::new(&config).unwrap();
    assert!(matches!(
        model.solve_passive(&[Watts(0.1); 3]),
        Err(ThermalError::PowerLengthMismatch {
            expected: 16,
            actual: 3
        })
    ));

    // Linalg: a wrong-length state vector surfaces the underlying kernel
    // error through the transient stepper.
    let stepper = BackwardEuler::new(model.g_matrix(), &model.capacitance_vector(), 1e-3).unwrap();
    let n = stepper.dim();
    assert!(matches!(
        stepper.step(&vec![300.0; n - 1], &vec![0.0; n]),
        Err(ThermalError::Linalg(LinalgError::DimensionMismatch { .. }))
    ));
}

// ---------------------------------------------------------------- device --

#[test]
fn every_device_error_variant_is_reachable() {
    let params = TecParams::superlattice_thin_film();
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();

    // InvalidParameter: a nonpositive physical constant (via the shared
    // validation layer).
    assert!(matches!(
        TecParams::new(
            tecopt_units::VoltsPerKelvin(-1e-4),
            params.resistance(),
            params.conductance(),
            params.cold_contact(),
            params.hot_contact(),
            params.side(),
        ),
        Err(DeviceError::InvalidParameter { .. })
    ));

    // EmptyArray: zero devices.
    assert!(matches!(
        TecArray::new(params.clone(), 0),
        Err(DeviceError::EmptyArray)
    ));

    // OperatingPointCount: 2 operating points for a 3-device chain.
    let array = TecArray::new(params.clone(), 3).unwrap();
    let op = OperatingPoint {
        current: Amperes(1.0),
        cold: Kelvin(350.0),
        hot: Kelvin(360.0),
    };
    assert!(matches!(
        array.input_power(&[op; 2]),
        Err(DeviceError::OperatingPointCount {
            expected: 3,
            actual: 2
        })
    ));

    // MixedCurrents: series devices must share one supply current.
    let mut ops = [op; 3];
    ops[1].current = Amperes(2.0);
    assert!(matches!(
        array.input_power(&ops),
        Err(DeviceError::MixedCurrents)
    ));

    // NegativeCurrent: the devices are polarized for cooling.
    let stamped = StampedSystem::new(&config, params.clone(), &[TileIndex::new(0, 0)]).unwrap();
    assert!(matches!(
        stamped.system_matrix(Amperes(-2.0)),
        Err(DeviceError::NegativeCurrent { value }) if value == -2.0
    ));

    // Thermal: a foreign tile propagates the thermal-layer fault.
    assert!(matches!(
        StampedSystem::new(&config, params, &[TileIndex::new(7, 0)]),
        Err(DeviceError::Thermal(ThermalError::TileOutOfBounds { .. }))
    ));
}

// ----------------------------------------------------------------- power --

#[test]
fn every_power_error_variant_is_reachable() {
    let mm = 1e-3;
    let half = Unit::new("half", Rect::new(0.0, 0.0, mm, mm));

    // UnitOutOfBounds: a unit leaving the die.
    let escape = Unit::new("escape", Rect::new(mm, 0.0, 3.0 * mm, mm));
    assert!(matches!(
        Floorplan::new("die", Meters(2.0 * mm), Meters(mm), vec![half.clone(), escape]),
        Err(PowerError::UnitOutOfBounds { unit }) if unit == "escape"
    ));

    // UnitsOverlap: two units on the same rectangle.
    let overlap = Unit::new("overlap", Rect::new(0.0, 0.0, mm, mm));
    assert!(matches!(
        Floorplan::new("die", Meters(mm), Meters(mm), vec![half.clone(), overlap]),
        Err(PowerError::UnitsOverlap { .. })
    ));

    // IncompleteCoverage: half the die left bare.
    assert!(matches!(
        Floorplan::new("die", Meters(2.0 * mm), Meters(mm), vec![half.clone()]),
        Err(PowerError::IncompleteCoverage { covered_fraction }) if covered_fraction < 0.75
    ));

    // DuplicateUnit: the same name twice.
    let twin = Unit::new("half", Rect::new(mm, 0.0, 2.0 * mm, mm));
    assert!(matches!(
        Floorplan::new("die", Meters(2.0 * mm), Meters(mm), vec![half.clone(), twin]),
        Err(PowerError::DuplicateUnit { unit }) if unit == "half"
    ));

    // A valid two-unit plan for the profile-level faults.
    let right = Unit::new("right", Rect::new(mm, 0.0, 2.0 * mm, mm));
    let plan = Floorplan::new("die", Meters(2.0 * mm), Meters(mm), vec![half, right]).unwrap();

    // UnknownUnit: lookup of a unit that does not exist.
    assert!(matches!(
        plan.unit("nonesuch"),
        Err(PowerError::UnknownUnit { unit }) if unit == "nonesuch"
    ));

    // InvalidPower: negative dissipation.
    assert!(matches!(
        PowerProfile::new(&plan, vec![Watts(1.0), Watts(-0.5)]),
        Err(PowerError::InvalidPower { value, .. }) if value == -0.5
    ));

    // ProfileMismatch: one power for two units.
    assert!(matches!(
        PowerProfile::new(&plan, vec![Watts(1.0)]),
        Err(PowerError::ProfileMismatch {
            expected: 2,
            actual: 1
        })
    ));

    // InvalidParameter: NaN in a HotSpot power trace, and an empty trace
    // export.
    let err = parse_ptrace(&plan, "half right\nnan 1.0\n").unwrap_err();
    assert!(matches!(err, PowerError::InvalidParameter(_)), "{err:?}");
    assert!(matches!(
        to_ptrace(&[]),
        Err(PowerError::InvalidParameter(_))
    ));
}

// ------------------------------------------------------------------ core --

fn small_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.4);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1)],
        powers,
    )
    .unwrap()
}

#[test]
fn every_opt_error_variant_is_reachable() {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let params = TecParams::superlattice_thin_film();

    // PowerLengthMismatch: 3 tile powers for a 16-tile grid.
    assert!(matches!(
        CoolingSystem::new(&config, params.clone(), &[], vec![Watts(0.1); 3]),
        Err(OptError::PowerLengthMismatch {
            expected: 16,
            actual: 3
        })
    ));

    // InvalidParameter: NaN-poisoned power vector rejected by the shared
    // validation layer at the construction boundary.
    let mut raw = vec![0.1; 16];
    fi::inject_nan_slice(&mut raw, 7);
    let poisoned: Vec<Watts> = raw.into_iter().map(Watts).collect();
    assert!(matches!(
        CoolingSystem::new(&config, params, &[], poisoned),
        Err(OptError::InvalidParameter(_))
    ));

    let system = small_system();

    // NoDevicesDeployed: the runaway limit of a passive package is infinite.
    let passive = system.with_tiles(&[]).unwrap();
    assert!(matches!(
        runaway_limit(&passive, 1e-9),
        Err(OptError::NoDevicesDeployed)
    ));

    // BeyondRunaway: far past λ_m the system matrix is indefinite.
    assert!(matches!(
        system.solve(Amperes(1e5)),
        Err(OptError::BeyondRunaway { current }) if current == 1e5
    ));

    // Device: a negative supply current surfaces the device-layer fault.
    assert!(matches!(
        system.solve(Amperes(-1.0)),
        Err(OptError::Device(DeviceError::NegativeCurrent { .. }))
    ));

    // Thermal: a wrong-length tile-power vector fed to the transient
    // simulator.
    let mut sim = tecopt::transient::TransientSimulator::new(system.clone(), 1e-3).unwrap();
    assert!(matches!(
        sim.step(&[Watts(0.1); 2], Amperes(1.0)),
        Err(OptError::Thermal(ThermalError::PowerLengthMismatch {
            expected: 16,
            actual: 2
        }))
    ));

    // Linalg: with a vanishing Seebeck coefficient the Peltier term cannot
    // drive the package into runaway below the λ_m search's 1e18 A
    // ceiling, so the bracket never closes.
    let thin = TecParams::superlattice_thin_film();
    let inert = TecParams::new(
        VoltsPerKelvin(1e-30),
        thin.resistance(),
        thin.conductance(),
        thin.cold_contact(),
        thin.hot_contact(),
        thin.side(),
    )
    .unwrap();
    let sealed = CoolingSystem::new(
        &config,
        inert,
        &[TileIndex::new(1, 1)],
        vec![Watts(0.1); 16],
    )
    .unwrap();
    assert!(matches!(
        runaway_limit(&sealed, 1e-9),
        Err(OptError::Linalg(LinalgError::NoConvergence { .. }))
    ));

    // BudgetExhausted: an adversarial tolerance below the bracket's
    // floating-point resolution exhausts the evaluation cap instead of
    // spinning forever.
    let settings = CurrentSettings {
        tolerance: 1e-18,
        max_evaluations: 40,
        ..CurrentSettings::default()
    };
    assert!(matches!(
        optimize_current(&system, settings),
        Err(OptError::BudgetExhausted { budget: 40, .. })
    ));

    // Infeasible: no deployment can reach a sub-ambient temperature limit;
    // the outcome-to-result conversion reports it as a typed error.
    let outcome = greedy_deploy(&system, DeploySettings::with_limit(Celsius(-100.0))).unwrap();
    assert!(matches!(
        outcome.into_result(),
        Err(OptError::Infeasible { best_peak_celsius }) if best_peak_celsius > -100.0
    ));
}

#[test]
fn runaway_sweep_rejects_nan_fractions_with_typed_error() {
    // Regression: a NaN fraction used to clear the finiteness guard's
    // negativity half (NaN < 0.0 is false) and then panic inside the
    // `sort_by(partial_cmp().expect())` call. It must surface as
    // InvalidParameter from the shared validation layer, like every other
    // poisoned input.
    let system = small_system();
    let mut fractions = vec![0.2, 0.5, 0.8];
    fi::inject_nan_slice(&mut fractions, 1);
    assert!(matches!(
        tecopt::runaway::sweep_fractions(&system, &fractions, 1e-9),
        Err(OptError::InvalidParameter(_))
    ));
    assert!(matches!(
        tecopt::runaway::sweep_fractions(&system, &[0.1, f64::INFINITY], 1e-9),
        Err(OptError::InvalidParameter(_))
    ));
}
