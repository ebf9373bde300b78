//! Chaos suite for the supervised sweep runtime: inject NaNs, lost
//! definiteness, worker panics, cancellations, deadlines and mid-sweep
//! kills, and verify that the supervisor always comes back with a typed
//! error carrying usable partial results — never a deadlock, never an
//! abort, and never a poisoned factorization cache (extending the stale-
//! cache guarantee of the solver-probe fix).
//!
//! The kill/resume tests share checkpoint files in a per-process temp
//! directory; the heavyweight 32×32 kill-at-every-probe-boundary sweep is
//! `#[ignore]`d so ordinary test passes stay fast — the dedicated chaos
//! pass in `scripts/check.sh` runs the suite with `--test-threads=1
//! --include-ignored`.

use std::path::PathBuf;
use tecopt::supervise::{supervised_map, RunContext};
use tecopt::{
    certify_convexity, certify_convexity_supervised, evaluate_deployments,
    evaluate_deployments_supervised, optimize_current, score_candidates, CancelToken,
    ConvexitySettings, CoolingSystem, CurrentSettings, OptError, PackageConfig, TecParams,
    TileIndex,
};
use tecopt_faultinject::{break_definiteness, inject_nan, spd_matrix};
use tecopt_linalg::{conjugate_gradient_cancellable, CgSettings, Cholesky, LinalgError};
use tecopt_units::{Amperes, Watts};

fn small_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
        powers,
    )
    .unwrap()
}

/// A fresh path in a per-process scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tecopt-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn state_bits(state: &tecopt::SolvedState) -> Vec<u64> {
    let mut bits: Vec<u64> = state
        .node_temperatures()
        .iter()
        .map(|k| k.value().to_bits())
        .collect();
    bits.push(state.peak().value().to_bits());
    bits.push(state.tec_power().value().to_bits());
    bits
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[test]
fn pre_cancelled_token_stops_a_sweep_before_any_probe() {
    let system = small_system();
    let ctx = RunContext::unbounded();
    ctx.token().cancel();
    let failure =
        tecopt::runaway::sweep_fractions_supervised(&system, &[0.1, 0.5, 0.9], 1e-9, &ctx)
            .unwrap_err();
    assert_eq!(failure.error, OptError::Cancelled { completed: 0 });
    assert_eq!(failure.completed(), 0);
    assert_eq!(failure.partial.len(), 3);
}

#[test]
fn cancelled_cg_kernel_reports_iterations_and_does_not_fall_back() {
    let a = tecopt_linalg::CsrMatrix::from_dense(&spd_matrix(24, 7));
    let b = vec![1.0; 24];
    let token = CancelToken::new();
    token.cancel();
    let err =
        conjugate_gradient_cancellable(&a, &b, CgSettings::default(), Some(&token)).unwrap_err();
    assert_eq!(err, LinalgError::Cancelled { iterations: 0 });
}

#[test]
fn cancellation_does_not_poison_the_factorization_cache() {
    // Cancel a supervised sweep on a shared system, then verify a clean
    // solve on that same system is bit-identical to a fresh system's.
    let system = small_system();
    let ctx = RunContext::unbounded();
    ctx.token().cancel();
    let _ = tecopt::runaway::sweep_fractions_supervised(&system, &[0.2, 0.4], 1e-9, &ctx);
    let after = system.solve(Amperes(2.0)).unwrap();
    let fresh = small_system().solve(Amperes(2.0)).unwrap();
    assert_eq!(state_bits(&after), state_bits(&fresh));
}

#[test]
fn cancelled_designer_pipeline_reports_a_typed_error() {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    let token = CancelToken::new();
    token.cancel();
    let err = tecopt::designer::CoolingDesigner::new(config, TecParams::superlattice_thin_film())
        .tile_powers(powers)
        .run_context(RunContext::unbounded().cancel_token(token))
        .design()
        .unwrap_err();
    assert!(matches!(err, OptError::Cancelled { .. }), "{err:?}");
}

// ---------------------------------------------------------------------------
// Deadlines and budgets
// ---------------------------------------------------------------------------

#[test]
fn expired_deadline_is_a_typed_error_with_empty_partials() {
    let system = small_system();
    let ctx = RunContext::unbounded().deadline_in(std::time::Duration::from_secs(0));
    let failure =
        tecopt::runaway::sweep_fractions_supervised(&system, &[0.1, 0.5, 0.9], 1e-9, &ctx)
            .unwrap_err();
    match &failure.error {
        OptError::DeadlineExceeded {
            completed,
            remaining,
        } => {
            assert_eq!(*completed, 0);
            assert_eq!(*remaining, 3);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn probe_budget_yields_a_usable_prefix_of_partials() {
    let system = small_system();
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8];
    let ctx = RunContext::unbounded().probe_budget(3);
    let failure =
        tecopt::runaway::sweep_fractions_supervised(&system, &fractions, 1e-9, &ctx).unwrap_err();
    match &failure.error {
        OptError::DeadlineExceeded {
            completed,
            remaining,
        } => {
            assert_eq!(*completed, 3);
            assert_eq!(*remaining, 2);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Budget admission happens at claim time, so exactly the first three
    // (sorted) fractions completed — and their values are bit-identical to
    // the same samples from an unsupervised run.
    let full = tecopt::runaway::sweep_fractions(&system, &fractions, 1e-9).unwrap();
    for (idx, partial) in failure.partial.iter().enumerate() {
        match partial {
            Some(point) => assert_eq!(point, &full.points[idx]),
            None => assert!(idx >= 3, "item {idx} should have completed"),
        }
    }
    assert_eq!(failure.completed(), 3);
}

#[test]
fn budgeted_multipin_descent_stops_at_a_probe_boundary() {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.6);
    powers[10] = Watts(0.25);
    let mp = tecopt::multipin::MultiPinSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[vec![TileIndex::new(1, 1)], vec![TileIndex::new(2, 2)]],
        powers,
    )
    .unwrap();
    let ctx = RunContext::unbounded().probe_budget(4);
    let err = mp.optimize_supervised(6, 1e-3, &ctx).unwrap_err();
    assert!(matches!(err, OptError::DeadlineExceeded { .. }), "{err:?}");
    // An unbounded context reproduces the plain optimizer bit-for-bit.
    let plain = mp.optimize(4, 1e-3).unwrap();
    let supervised = mp
        .optimize_supervised(4, 1e-3, &RunContext::unbounded())
        .unwrap();
    assert_eq!(
        plain.peak().value().to_bits(),
        supervised.peak().value().to_bits()
    );
    assert_eq!(plain.currents(), supervised.currents());
}

// ---------------------------------------------------------------------------
// Worker panics and injected numerical faults
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_mid_sweep_is_contained_with_lowest_index_reported() {
    let ctx = RunContext::unbounded();
    let failure = supervised_map(
        &ctx,
        (0..16usize).collect(),
        || (),
        |(), i| {
            assert!(i != 4 && i != 11, "injected worker panic at {i}");
            Ok::<usize, OptError>(i)
        },
    )
    .unwrap_err();
    match &failure.error {
        OptError::WorkerPanicked { index, payload } => {
            assert_eq!(*index, 4, "lowest panicking index wins");
            assert!(payload.contains("injected worker panic"));
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(failure.completed(), 14);
}

#[test]
fn nan_poisoned_probe_is_a_typed_error_with_partials() {
    // Each item factors its own matrix; item 2's is NaN-poisoned. The
    // supervisor must surface the kernel's typed error and keep the other
    // items' results.
    let ctx = RunContext::unbounded();
    let failure = supervised_map(
        &ctx,
        (0..6usize).collect(),
        || (),
        |(), i| {
            let mut a = spd_matrix(12, 100 + i as u64);
            if i == 2 {
                inject_nan(&mut a, 3, 3);
            }
            let chol = Cholesky::factor(&a)?;
            let x = chol.solve(&[1.0; 12])?;
            Ok::<f64, OptError>(x.iter().sum())
        },
    )
    .unwrap_err();
    assert!(
        matches!(failure.error, OptError::Linalg(_)),
        "{:?}",
        failure.error
    );
    assert_eq!(failure.completed(), 5);
    assert!(failure.partial[2].is_none());
}

#[test]
fn lost_definiteness_mid_sweep_is_a_typed_error_with_partials() {
    let ctx = RunContext::unbounded();
    let failure = supervised_map(
        &ctx,
        (0..6usize).collect(),
        || (),
        |(), i| {
            let mut a = spd_matrix(12, 200 + i as u64);
            if i == 3 {
                break_definiteness(&mut a);
            }
            let chol = Cholesky::factor(&a)?;
            let x = chol.solve(&[1.0; 12])?;
            Ok::<f64, OptError>(x.iter().sum())
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            failure.error,
            OptError::Linalg(LinalgError::NotPositiveDefinite { .. })
        ),
        "{:?}",
        failure.error
    );
    assert_eq!(failure.completed(), 5);
}

#[test]
fn failed_supervised_sweep_leaves_clean_solves_bit_identical() {
    // A panicking candidate inside a supervised deployment sweep must not
    // leave any residue in the base system's shared factorization cache.
    let system = small_system();
    let ctx = RunContext::unbounded();
    let candidates = vec![
        vec![TileIndex::new(1, 1)],
        vec![TileIndex::new(0, 0), TileIndex::new(0, 0)], // duplicate tile: typed error
        vec![TileIndex::new(2, 2)],
    ];
    let failure =
        evaluate_deployments_supervised(&system, &candidates, CurrentSettings::default(), &ctx)
            .unwrap_err();
    assert!(failure.completed() >= 1);
    let after = system.solve(Amperes(1.5)).unwrap();
    let fresh = small_system().solve(Amperes(1.5)).unwrap();
    assert_eq!(state_bits(&after), state_bits(&fresh));
}

// ---------------------------------------------------------------------------
// Supervised vs unsupervised equivalence
// ---------------------------------------------------------------------------

#[test]
fn supervised_sweep_is_bit_identical_to_unsupervised() {
    let system = small_system();
    let fractions = [0.9, 0.1, 0.5, 0.75, 1.05];
    let plain = tecopt::runaway::sweep_fractions(&system, &fractions, 1e-9).unwrap();
    let supervised = tecopt::runaway::sweep_fractions_supervised(
        &system,
        &fractions,
        1e-9,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(plain.points, supervised.points);
}

#[test]
fn supervised_certificate_matches_unsupervised() {
    let system = small_system();
    let settings = ConvexitySettings {
        subranges: 4,
        ..ConvexitySettings::default()
    };
    let plain = certify_convexity(&system, settings).unwrap();
    let supervised =
        certify_convexity_supervised(&system, settings, &RunContext::unbounded()).unwrap();
    assert_eq!(plain, supervised);
}

#[test]
fn score_candidates_matches_evaluate_deployments() {
    let system = small_system();
    let candidates = vec![
        vec![TileIndex::new(1, 1)],
        vec![TileIndex::new(1, 1), TileIndex::new(2, 2)],
    ];
    let settings = CurrentSettings::default();
    let deployments = evaluate_deployments(&system, &candidates, settings).unwrap();
    let scores =
        score_candidates(&system, &candidates, settings, &RunContext::unbounded()).unwrap();
    assert_eq!(scores.len(), deployments.len());
    for (score, dep) in scores.iter().zip(&deployments) {
        assert_eq!(score.device_count, dep.device_count());
        assert_eq!(
            score.current.value().to_bits(),
            dep.optimum().current().value().to_bits()
        );
        assert_eq!(
            score.peak.value().to_bits(),
            dep.optimum().state().peak().value().to_bits()
        );
        assert_eq!(
            score.tec_power.value().to_bits(),
            dep.optimum().state().tec_power().value().to_bits()
        );
        assert_eq!(score.evaluations, dep.optimum().evaluations());
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// The 32×32 designer-alternatives sweep used by the kill/resume tests:
/// a strong hotspot grid with four candidate prefix deployments.
fn designer_sweep_inputs() -> (CoolingSystem, Vec<Vec<TileIndex>>, CurrentSettings) {
    let config = PackageConfig::hotspot41_like(32, 32).unwrap();
    let mut powers = vec![Watts(0.02); 32 * 32];
    powers[10 * 32 + 10] = Watts(0.8);
    powers[20 * 32 + 21] = Watts(0.6);
    let base = CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers)
        .unwrap();
    let order = [
        TileIndex::new(10, 10),
        TileIndex::new(20, 21),
        TileIndex::new(10, 11),
        TileIndex::new(20, 22),
    ];
    let candidates: Vec<Vec<TileIndex>> = (1..=order.len()).map(|k| order[..k].to_vec()).collect();
    // Loose search settings keep each candidate's current optimization to a
    // handful of probes — the test exercises supervision, not accuracy. The
    // λ_m bisection (a dense Cholesky probe per step, ~n³ each at 32×32)
    // dominates per-candidate cost, so its tolerance is the loosest.
    let settings = CurrentSettings {
        tolerance: 5e-2,
        max_evaluations: 40,
        lambda_tolerance: 0.25,
        ..CurrentSettings::default()
    };
    (base, candidates, settings)
}

#[test]
#[ignore = "heavyweight 32x32 sweep; run via the scripts/check.sh chaos pass (--include-ignored)"]
fn killed_designer_sweep_resumes_bit_identically_at_every_probe_boundary() {
    let (base, candidates, settings) = designer_sweep_inputs();
    let total = candidates.len();
    let reference =
        score_candidates(&base, &candidates, settings, &RunContext::unbounded()).unwrap();
    let path = scratch("designer-kill-chain.ckpt");
    let _ = std::fs::remove_file(&path);

    // Kill before the very first probe: a zero budget admits nothing and
    // leaves a header-only checkpoint behind.
    let ctx = RunContext::unbounded().probe_budget(0).checkpoint(&path);
    let failure = score_candidates(&base, &candidates, settings, &ctx).unwrap_err();
    match &failure.error {
        OptError::DeadlineExceeded {
            completed,
            remaining,
        } => {
            assert_eq!(*completed, 0);
            assert_eq!(*remaining, total);
        }
        other => panic!("kill before start: expected DeadlineExceeded, got {other:?}"),
    }

    // Walk the sweep one probe boundary at a time: each iteration resumes
    // from the previous kill's checkpoint, completes exactly one more
    // probe, and is killed again at the next boundary. Every boundary in
    // 0..total is therefore both a kill point and a resume point, and each
    // candidate is optimized exactly once across the whole chain.
    for kill_at in 0..total {
        let ctx = RunContext::unbounded().probe_budget(1).checkpoint(&path);
        match score_candidates(&base, &candidates, settings, &ctx) {
            Err(failure) => {
                assert!(kill_at < total - 1, "final resume must complete");
                match &failure.error {
                    OptError::DeadlineExceeded {
                        completed,
                        remaining,
                    } => {
                        assert_eq!(*completed, kill_at + 1);
                        assert_eq!(*remaining, total - kill_at - 1);
                    }
                    other => {
                        panic!("kill at {kill_at}: expected DeadlineExceeded, got {other:?}")
                    }
                }
                // The recorded prefix is bit-identical to the
                // uninterrupted sweep's.
                for (i, slot) in failure.partial.iter().enumerate() {
                    if i <= kill_at {
                        assert_eq!(slot.as_ref(), Some(&reference[i]), "kill at {kill_at}");
                    } else {
                        assert!(slot.is_none(), "kill at {kill_at}");
                    }
                }
            }
            Ok(resumed) => {
                // The last boundary's single admitted probe finishes the
                // sweep: the chained result matches the uninterrupted run
                // exactly.
                assert_eq!(kill_at, total - 1, "completed early at {kill_at}");
                assert_eq!(resumed, reference);
            }
        }
    }

    // A final unbounded resume replays everything from the checkpoint
    // without re-running a single probe.
    let ctx = RunContext::unbounded().checkpoint(&path);
    let replayed = score_candidates(&base, &candidates, settings, &ctx).unwrap();
    assert_eq!(replayed, reference);
    assert_eq!(ctx.probes_recorded(), 0, "replay must not re-run probes");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_written_under_different_settings_is_rejected() {
    let system = small_system();
    let candidates = vec![vec![TileIndex::new(1, 1)]];
    let path = scratch("stale-settings.ckpt");
    let _ = std::fs::remove_file(&path);

    let ctx = RunContext::unbounded().checkpoint(&path);
    score_candidates(&system, &candidates, CurrentSettings::default(), &ctx).unwrap();

    let changed = CurrentSettings {
        tolerance: 1e-2,
        ..CurrentSettings::default()
    };
    let ctx = RunContext::unbounded().checkpoint(&path);
    let failure = score_candidates(&system, &candidates, changed, &ctx).unwrap_err();
    assert!(
        matches!(failure.error, OptError::InvalidParameter(_)),
        "{:?}",
        failure.error
    );
    assert!(failure.error.to_string().contains("stale checkpoint"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpointed_runaway_sweep_resumes_bit_identically() {
    let system = small_system();
    let fractions = [0.1, 0.3, 0.5, 0.7, 0.9, 1.05];
    let reference = tecopt::runaway::sweep_fractions(&system, &fractions, 1e-9).unwrap();

    let path = scratch("runaway-resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let ctx = RunContext::unbounded().probe_budget(2).checkpoint(&path);
    let failure =
        tecopt::runaway::sweep_fractions_supervised(&system, &fractions, 1e-9, &ctx).unwrap_err();
    assert_eq!(failure.completed(), 2);

    let ctx = RunContext::unbounded().checkpoint(&path);
    let resumed =
        tecopt::runaway::sweep_fractions_supervised(&system, &fractions, 1e-9, &ctx).unwrap();
    assert_eq!(resumed.points, reference.points);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpointed_certificate_resumes_to_the_same_verdict() {
    let system = small_system();
    let settings = ConvexitySettings {
        subranges: 6,
        ..ConvexitySettings::default()
    };
    let reference = certify_convexity(&system, settings).unwrap();

    let path = scratch("certificate-resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let ctx = RunContext::unbounded().probe_budget(3).checkpoint(&path);
    let failure = certify_convexity_supervised(&system, settings, &ctx).unwrap_err();
    assert_eq!(failure.completed(), 3);

    let ctx = RunContext::unbounded().checkpoint(&path);
    let resumed = certify_convexity_supervised(&system, settings, &ctx).unwrap();
    assert_eq!(resumed, reference);
    std::fs::remove_file(&path).unwrap();
}

/// `system` with every tile power doubled: λ_m does not depend on the
/// powers, so only a checkpoint bound to the whole system can tell the two
/// apart.
fn doubled_powers(system: &CoolingSystem) -> CoolingSystem {
    let mut doubled = system.clone();
    let powers = system.tile_powers().iter().map(|p| *p * 2.0).collect();
    doubled.set_tile_powers(powers).unwrap();
    doubled
}

fn assert_stale(error: &OptError) {
    assert!(
        matches!(error, OptError::InvalidParameter(msg) if msg.contains("stale checkpoint")),
        "expected a stale-checkpoint error, got {error:?}"
    );
}

#[test]
fn runaway_checkpoint_resumed_on_doubled_powers_is_stale() {
    let system = small_system();
    let fractions = [0.1, 0.3, 0.5, 0.7, 0.9, 1.05];
    let path = scratch("runaway-other-system.ckpt");
    let _ = std::fs::remove_file(&path);
    let ctx = RunContext::unbounded().probe_budget(2).checkpoint(&path);
    let failure =
        tecopt::runaway::sweep_fractions_supervised(&system, &fractions, 1e-9, &ctx).unwrap_err();
    assert_eq!(failure.completed(), 2);

    let ctx = RunContext::unbounded().checkpoint(&path);
    let failure = tecopt::runaway::sweep_fractions_supervised(
        &doubled_powers(&system),
        &fractions,
        1e-9,
        &ctx,
    )
    .unwrap_err();
    assert_stale(&failure.error);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn certificate_checkpoint_resumed_on_doubled_powers_is_stale() {
    let system = small_system();
    let settings = ConvexitySettings {
        subranges: 6,
        ..ConvexitySettings::default()
    };
    let path = scratch("certificate-other-system.ckpt");
    let _ = std::fs::remove_file(&path);
    let ctx = RunContext::unbounded().probe_budget(3).checkpoint(&path);
    let failure = certify_convexity_supervised(&system, settings, &ctx).unwrap_err();
    assert_eq!(failure.completed(), 3);

    let ctx = RunContext::unbounded().checkpoint(&path);
    let failure =
        certify_convexity_supervised(&doubled_powers(&system), settings, &ctx).unwrap_err();
    assert_stale(&failure.error);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn optimize_current_beyond_budget_still_restores_cache_consistency() {
    // Stack supervision on top of the PR 2 regression: exhaust a sweep's
    // budget mid-run against a system whose cache saw a failed probe, then
    // confirm optimize_current still works and clean solves stay exact.
    let system = small_system();
    let near = tecopt_faultinject::near_runaway_current(
        tecopt::runaway_limit(&system, 1e-9)
            .unwrap()
            .feasible()
            .value(),
        tecopt::runaway_limit(&system, 1e-9)
            .unwrap()
            .infeasible()
            .value(),
        0.999,
    );
    let _ = system.solve(Amperes(near * 2.0)); // likely BeyondRunaway; must not poison
    let ctx = RunContext::unbounded().probe_budget(1);
    let _ = tecopt::runaway::sweep_fractions_supervised(&system, &[0.2, 0.5, 0.8], 1e-9, &ctx);
    let optimum = optimize_current(&system, CurrentSettings::default()).unwrap();
    assert!(optimum.state().peak().value() > 0.0);
    let after = system.solve(Amperes(1.0)).unwrap();
    let fresh = small_system().solve(Amperes(1.0)).unwrap();
    assert_eq!(state_bits(&after), state_bits(&fresh));
}
