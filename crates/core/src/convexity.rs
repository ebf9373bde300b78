//! The convexity machinery of Sec. V.C.2: `h_kl(i)` curves (Fig. 6), the
//! `η(i)` sums of Eq. 10, and the sufficient-condition certificate of
//! Lemma 4 / Theorem 4.
//!
//! Everything here is built from *solves* rather than explicit inverses:
//! `η(i) = H·1_J` (one solve against the indicator of the Joule columns)
//! and `η′(i) = H·D·H·1_J` (two solves), so a certificate probe costs one
//! Cholesky factorization regardless of how many tiles are checked.

use crate::record::{fingerprint, hex_f64};
use crate::supervise::{checkpointed_map, Checkpointable, RunContext};
use crate::{runaway_limit, CoolingSystem, OptError, SteadySolver, SweepFailure};
use tecopt_units::Amperes;

/// One column of `H(i) = (G − i·D)⁻¹`: the temperature response of every
/// node to a unit power injected at node `l` (the physical reading of
/// `h_kl` given in the paper).
///
/// # Errors
///
/// - [`OptError::BeyondRunaway`] past the runaway limit.
/// - [`OptError::InvalidParameter`] for an out-of-range node index.
pub fn h_column(system: &CoolingSystem, current: Amperes, l: usize) -> Result<Vec<f64>, OptError> {
    let n = system.stamped().model().node_count();
    let mut e = vec![0.0; n];
    let Some(slot) = e.get_mut(l) else {
        return Err(OptError::InvalidParameter(format!(
            "node index {l} out of range for {n} nodes"
        )));
    };
    *slot = 1.0;
    system.solver()?.solve_rhs(current, &e)
}

/// Several columns of `H(i)` from one factorization: the batched form of
/// [`h_column`], solving every unit vector in `ls` against the same
/// factored `G − i·D` with a blocked multi-RHS substitution. Agrees with
/// per-column [`h_column`] solves to solver accuracy.
///
/// # Errors
///
/// Same failure modes as [`h_column`].
pub fn h_columns(
    system: &CoolingSystem,
    current: Amperes,
    ls: &[usize],
) -> Result<Vec<Vec<f64>>, OptError> {
    let n = system.stamped().model().node_count();
    let rhs: Vec<Vec<f64>> = ls
        .iter()
        .map(|&l| {
            let mut e = vec![0.0; n];
            let Some(slot) = e.get_mut(l) else {
                return Err(OptError::InvalidParameter(format!(
                    "node index {l} out of range for {n} nodes"
                )));
            };
            *slot = 1.0;
            Ok(e)
        })
        .collect::<Result<_, _>>()?;
    system.solver()?.solve_rhs_many(current, &rhs)
}

/// `η_k(i) = Σ_{l ∈ HOT∪CLD} h_kl(i)` for every node `k` (Eq. 10): the
/// temperature response to a unit of Joule heat spread over the device
/// junctions.
///
/// # Errors
///
/// Same failure modes as [`h_column`].
pub fn eta(system: &CoolingSystem, current: Amperes) -> Result<Vec<f64>, OptError> {
    eta_with(&mut system.solver()?, current)
}

/// The indicator vector `1_J` of the Joule (junction) nodes, with a typed
/// error instead of a panic if the stamped model ever hands out an index
/// beyond its own node count.
fn joule_indicator(n: usize, joule_nodes: &[usize]) -> Result<Vec<f64>, OptError> {
    let mut rhs = vec![0.0; n];
    for &j in joule_nodes {
        let slot = rhs.get_mut(j).ok_or_else(|| {
            OptError::InvalidParameter(format!("joule node index {j} out of range for {n} nodes"))
        })?;
        *slot = 1.0;
    }
    Ok(rhs)
}

/// `η(i)` together with its derivative `η′(i) = (H·D·H·1_J)_k` (from
/// `H′ = H·D·H`, the identity proved inside Theorem 3).
///
/// # Errors
///
/// Same failure modes as [`h_column`].
pub fn eta_and_derivative(
    system: &CoolingSystem,
    current: Amperes,
) -> Result<(Vec<f64>, Vec<f64>), OptError> {
    eta_and_derivative_with(&mut system.solver()?, current)
}

/// [`eta`] evaluated through a solver handle — the probe the parallel
/// certificate workers use.
fn eta_with(solver: &mut SteadySolver<'_>, current: Amperes) -> Result<Vec<f64>, OptError> {
    let stamped = solver.system().stamped();
    let rhs = joule_indicator(stamped.model().node_count(), stamped.joule_nodes())?;
    solver.solve_rhs(current, &rhs)
}

/// [`eta_and_derivative`] evaluated through a solver handle. The two
/// solves share one factorization (same current key).
fn eta_and_derivative_with(
    solver: &mut SteadySolver<'_>,
    current: Amperes,
) -> Result<(Vec<f64>, Vec<f64>), OptError> {
    let e = eta_with(solver, current)?;
    let d = solver.system().stamped().d_diagonal();
    let v: Vec<f64> = e.iter().zip(d).map(|(x, dk)| x * dk).collect();
    let ep = solver.solve_rhs(current, &v)?;
    Ok((e, ep))
}

/// Controls for [`certify_convexity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvexitySettings {
    /// Number of sub-ranges `m` the interval `[0, λ_m)` is split into
    /// (Theorem 4; more sub-ranges tighten the `η′(i_t)` lower bound at the
    /// cost of runtime).
    pub subranges: usize,
    /// Probe points per sub-range used to build certified tangent lower
    /// bounds on the Lemma-4 function.
    pub probes_per_subrange: usize,
    /// Numerical slack: the certificate accepts lower bounds above
    /// `−tolerance · scale`.
    pub tolerance: f64,
    /// Fraction of `λ_m` to certify up to (approaching 1 makes the last
    /// sub-range numerically wild since `η` diverges).
    pub ceiling_fraction: f64,
    /// Relative tolerance of the `λ_m` bisection.
    pub lambda_tolerance: f64,
}

impl Default for ConvexitySettings {
    fn default() -> ConvexitySettings {
        ConvexitySettings {
            subranges: 8,
            probes_per_subrange: 6,
            tolerance: 1e-9,
            ceiling_fraction: 0.99,
            lambda_tolerance: 1e-9,
        }
    }
}

/// Verdict of the convexity certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateOutcome {
    /// The sufficient condition held on every sub-range for every silicon
    /// tile: `θ_k(i)` is certified convex on the examined interval
    /// (assuming Conjecture 1, exactly as in the paper).
    Certified,
    /// The sufficient condition failed somewhere; convexity is *not*
    /// refuted (the condition is only sufficient), merely unproven.
    Inconclusive {
        /// Row-major linear tile index where the bound went negative.
        tile: usize,
        /// The sub-range on which it failed, in amperes.
        interval: (f64, f64),
        /// The certified lower bound that came out negative.
        lower_bound: f64,
    },
}

/// The certificate with its metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexityCertificate {
    /// Verdict.
    pub outcome: CertificateOutcome,
    /// Sub-ranges examined.
    pub subranges: usize,
    /// Factorizations performed.
    pub probes: usize,
    /// The runaway limit bounding the interval.
    pub lambda: Amperes,
}

impl ConvexityCertificate {
    /// `true` if the certificate confirmed convexity.
    pub fn is_certified(&self) -> bool {
        self.outcome == CertificateOutcome::Certified
    }
}

/// Runs the Lemma-4 / Theorem-4 sufficient condition for every silicon
/// tile: on each sub-range `[i_t, i_{t+1}]`, verify that
/// `η(i) + η′(i_t)·i ≥ 0` (the electrical resistance `r > 0` cancels).
///
/// The function is convex (η is convex under Conjecture 1 and the second
/// term is linear), so certified lower bounds are built from tangent lines
/// at the probe points; if every bound is nonnegative, `θ_k(i)` is convex
/// on `[0, ceiling_fraction·λ_m]` by Theorem 4.
///
/// A system with no deployed devices is trivially certified: `θ(i)` does
/// not depend on `i`.
///
/// # Errors
///
/// - [`OptError::InvalidParameter`] for zero sub-ranges/probes or an
///   out-of-range ceiling fraction.
pub fn certify_convexity(
    system: &CoolingSystem,
    settings: ConvexitySettings,
) -> Result<ConvexityCertificate, OptError> {
    certify_convexity_supervised(system, settings, &RunContext::unbounded())
        .map_err(SweepFailure::into_error)
}

/// [`certify_convexity`] under a [`RunContext`]: cancellation and deadline
/// checks between sub-ranges, per-sub-range panic isolation, and — when
/// the context carries a checkpoint path — resumable certificates.
///
/// # Errors
///
/// Same failure modes as [`certify_convexity`], wrapped in a
/// [`SweepFailure`] carrying the per-sub-range verdicts already computed,
/// plus the supervision errors ([`OptError::Cancelled`],
/// [`OptError::DeadlineExceeded`], [`OptError::WorkerPanicked`]).
pub fn certify_convexity_supervised(
    system: &CoolingSystem,
    settings: ConvexitySettings,
    ctx: &RunContext,
) -> Result<ConvexityCertificate, SweepFailure<Option<CertificateOutcome>>> {
    let fail = |e: OptError| SweepFailure::before_start(e, settings.subranges);
    if settings.subranges == 0 || settings.probes_per_subrange < 2 {
        return Err(fail(OptError::InvalidParameter(
            "need at least one subrange and two probes per subrange".into(),
        )));
    }
    if !(settings.ceiling_fraction > 0.0 && settings.ceiling_fraction < 1.0) {
        return Err(fail(OptError::InvalidParameter(format!(
            "ceiling fraction must be in (0, 1), got {}",
            settings.ceiling_fraction
        ))));
    }
    if system.device_count() == 0 {
        return Ok(ConvexityCertificate {
            outcome: CertificateOutcome::Certified,
            subranges: 0,
            probes: 0,
            lambda: Amperes(f64::INFINITY),
        });
    }
    let lim = runaway_limit(system, settings.lambda_tolerance).map_err(fail)?;
    let ceiling = lim
        .search_ceiling(settings.ceiling_fraction)
        .map_err(fail)?
        .value();
    let lambda = lim.lambda();

    let model = system.stamped().model();
    let silicon: Vec<usize> = model.silicon_nodes().iter().map(|id| id.index()).collect();

    // A checkpoint only resumes the certificate it was written by: digest
    // the interval ceiling (which reflects the system and λ_m) and every
    // setting that shapes the per-sub-range verdicts.
    let fp = {
        let digest = format!(
            "{} {} {} {} {} {}",
            <Option<CertificateOutcome>>::KIND,
            hex_f64(ceiling),
            settings.subranges,
            settings.probes_per_subrange,
            hex_f64(settings.tolerance),
            hex_f64(settings.lambda_tolerance),
        );
        fingerprint(&digest)
    };

    // Sub-ranges are independent (each freezes its own slope at `i_t`), so
    // they are checked in parallel, one solver handle per worker. Build
    // one prototype handle up front and clone it per worker: the clone is
    // infallible and carries the context's token, so a raised token also
    // stops the sparse backend mid-iteration.
    let proto = system
        .solver()
        .map_err(fail)?
        .with_cancel(ctx.token().clone());
    let q = settings.probes_per_subrange;
    let verdicts = checkpointed_map(
        ctx,
        fp,
        (0..settings.subranges).collect::<Vec<usize>>(),
        || proto.clone(),
        |solver, t| check_subrange(solver, t, ceiling, &silicon, settings),
    )?;
    // First failing sub-range wins, exactly as the sequential loop: report
    // the probe count it would have accumulated — (q+1) factorizations per
    // examined sub-range, failures included.
    for (t, verdict) in verdicts.into_iter().enumerate() {
        if let Some(outcome) = verdict {
            return Ok(ConvexityCertificate {
                outcome,
                subranges: settings.subranges,
                probes: (t + 1) * (q + 1),
                lambda,
            });
        }
    }
    Ok(ConvexityCertificate {
        outcome: CertificateOutcome::Certified,
        subranges: settings.subranges,
        probes: settings.subranges * (q + 1),
        lambda,
    })
}

/// Runs the Lemma-4 check on sub-range `t`, returning the failure verdict
/// if its certified lower bound goes negative anywhere.
fn check_subrange(
    solver: &mut SteadySolver<'_>,
    t: usize,
    ceiling: f64,
    silicon: &[usize],
    settings: ConvexitySettings,
) -> Result<Option<CertificateOutcome>, OptError> {
    let a = ceiling * t as f64 / settings.subranges as f64;
    let b = ceiling * (t + 1) as f64 / settings.subranges as f64;
    // eta'(i_t), the frozen slope of Lemma 4, gathered onto the tiles.
    let (_, etap_a) = eta_and_derivative_with(solver, Amperes(a))?;
    let etap_s = gather(&etap_a, silicon)?;
    // Probe the subrange; keep (f, f') at each probe for every tile.
    let q = settings.probes_per_subrange;
    let mut fvals: Vec<Vec<f64>> = Vec::with_capacity(q);
    let mut fslopes: Vec<Vec<f64>> = Vec::with_capacity(q);
    let mut points = Vec::with_capacity(q);
    for j in 0..q {
        let i = a + (b - a) * j as f64 / (q - 1) as f64;
        let (e, ep) = eta_and_derivative_with(solver, Amperes(i))?;
        let e_s = gather(&e, silicon)?;
        let ep_s = gather(&ep, silicon)?;
        let f: Vec<f64> = e_s.iter().zip(&etap_s).map(|(x, tp)| x + tp * i).collect();
        let fp: Vec<f64> = ep_s.iter().zip(&etap_s).map(|(x, tp)| x + tp).collect();
        fvals.push(f);
        fslopes.push(fp);
        points.push(i);
    }
    // Certified tangent lower bound on each probe gap, per tile.
    let scale: f64 = fvals
        .iter()
        .flat_map(|v| v.iter())
        .fold(0.0_f64, |m, &x| m.max(x.abs()));
    let slack = settings.tolerance * scale.max(1.0);
    for ((ps, fs), ss) in points
        .windows(2)
        .zip(fvals.windows(2))
        .zip(fslopes.windows(2))
    {
        let (&[pj, pj1], [f0s, f1s], [s0s, s1s]) = (ps, fs, ss) else {
            continue; // windows(2) always yields pairs
        };
        let per_tile = f0s.iter().zip(s0s).zip(f1s).zip(s1s).enumerate();
        for (tile_idx, (((&f0, &s0), &f1), &s1)) in per_tile {
            let lb = if s0 >= 0.0 {
                f0
            } else if s1 <= 0.0 {
                f1
            } else {
                // Tangent intersection of t0(i) = f0 + s0 (i - pj) and
                // t1(i) = f1 + s1 (i - pj1).
                let i_star = (f1 - f0 + s0 * pj - s1 * pj1) / (s0 - s1);
                let i_star = i_star.clamp(pj, pj1);
                f0 + s0 * (i_star - pj)
            };
            if lb < -slack {
                return Ok(Some(CertificateOutcome::Inconclusive {
                    tile: tile_idx,
                    interval: (pj, pj1),
                    lower_bound: lb,
                }));
            }
        }
    }
    Ok(None)
}

/// Gathers `values[k]` for every node in `nodes`, with a typed error for a
/// stale or corrupt node index instead of an indexing panic.
fn gather(values: &[f64], nodes: &[usize]) -> Result<Vec<f64>, OptError> {
    nodes
        .iter()
        .map(|&k| {
            values.get(k).copied().ok_or_else(|| {
                OptError::InvalidParameter(format!(
                    "silicon node index {k} out of range for {} solution entries",
                    values.len()
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_device::TecParams;
    use tecopt_thermal::{PackageConfig, TileIndex};
    use tecopt_units::Watts;

    fn system(tiles: &[TileIndex]) -> CoolingSystem {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.7);
        CoolingSystem::new(&config, TecParams::superlattice_thin_film(), tiles, powers).unwrap()
    }

    #[test]
    fn h_entries_are_nonnegative_and_diverge_near_runaway() {
        // Lemma 3 + Theorem 2 / Fig. 6.
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-11).unwrap();
        let lam = lim.feasible().value();
        let (cold, _hot) = s.stamped().junctions()[0];
        let h0 = h_column(&s, Amperes(0.0), cold).unwrap();
        assert!(h0.iter().all(|&x| x >= -1e-12));
        let hk = |f: f64| h_column(&s, Amperes(lam * f), cold).unwrap()[cold];
        let (a, b, c) = (hk(0.5), hk(0.9), hk(0.999));
        assert!(b > a, "h should increase towards runaway");
        assert!(c > 10.0 * b, "h should blow up near runaway: {c} vs {b}");
    }

    #[test]
    fn h_entry_is_convex_in_current() {
        // Theorem 3: midpoint below chord for sampled entries.
        let s = system(&[TileIndex::new(1, 1)]);
        let lim = runaway_limit(&s, 1e-9).unwrap();
        let lam = lim.feasible().value();
        let (cold, hot) = s.stamped().junctions()[0];
        let peak_node = s.stamped().model().silicon_nodes()[5].index();
        for &k in &[cold, hot, peak_node] {
            for (fa, fb) in [(0.0, 0.8), (0.2, 0.9), (0.5, 0.95)] {
                let ia = lam * fa;
                let ib = lam * fb;
                let im = 0.5 * (ia + ib);
                let h = |i: f64| h_column(&s, Amperes(i), cold).unwrap()[k];
                assert!(
                    h(im) <= 0.5 * (h(ia) + h(ib)) + 1e-9,
                    "h_({k},{cold}) violates midpoint convexity on [{ia}, {ib}]"
                );
            }
        }
    }

    #[test]
    fn batched_columns_match_per_column_solves() {
        let s = system(&[TileIndex::new(1, 1), TileIndex::new(2, 2)]);
        let (cold, hot) = s.stamped().junctions()[0];
        let peak_node = s.stamped().model().silicon_nodes()[5].index();
        let ls = [cold, hot, peak_node];
        for i in [0.0, 1.5, 3.0] {
            let batched = h_columns(&s, Amperes(i), &ls).unwrap();
            assert_eq!(batched.len(), ls.len());
            for (col, &l) in batched.iter().zip(&ls) {
                let single = h_column(&s, Amperes(i), l).unwrap();
                for (a, b) in col.iter().zip(&single) {
                    assert!(
                        (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                        "column {l} at i={i}: batched {a} vs single {b}"
                    );
                }
            }
        }
        assert!(matches!(
            h_columns(&s, Amperes(0.0), &[0, 10_000]),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn eta_derivative_matches_finite_differences() {
        let s = system(&[TileIndex::new(1, 1)]);
        let i = 2.0;
        let (_, ep) = eta_and_derivative(&s, Amperes(i)).unwrap();
        let h = 1e-5;
        let e_plus = eta(&s, Amperes(i + h)).unwrap();
        let e_minus = eta(&s, Amperes(i - h)).unwrap();
        for k in 0..ep.len() {
            let fd = (e_plus[k] - e_minus[k]) / (2.0 * h);
            // Central differences carry O(h^2) truncation plus cancellation
            // noise; 1e-4 relative is the meaningful agreement level.
            assert!(
                (ep[k] - fd).abs() <= 1e-4 * fd.abs().max(1e-9),
                "node {k}: analytic {} vs fd {fd}",
                ep[k]
            );
        }
    }

    #[test]
    fn certificate_confirms_single_device_system() {
        let s = system(&[TileIndex::new(1, 1)]);
        let cert = certify_convexity(&s, ConvexitySettings::default()).unwrap();
        assert!(cert.is_certified(), "{:?}", cert.outcome);
        assert!(cert.probes > 0);
    }

    #[test]
    fn certificate_confirms_multi_device_system() {
        let s = system(&[
            TileIndex::new(1, 1),
            TileIndex::new(1, 2),
            TileIndex::new(2, 1),
        ]);
        let cert = certify_convexity(&s, ConvexitySettings::default()).unwrap();
        assert!(cert.is_certified(), "{:?}", cert.outcome);
    }

    #[test]
    fn passive_system_trivially_certified() {
        let s = system(&[]);
        let cert = certify_convexity(&s, ConvexitySettings::default()).unwrap();
        assert!(cert.is_certified());
        assert_eq!(cert.probes, 0);
    }

    #[test]
    fn invalid_settings_rejected() {
        let s = system(&[TileIndex::new(1, 1)]);
        for bad in [
            ConvexitySettings {
                subranges: 0,
                ..ConvexitySettings::default()
            },
            ConvexitySettings {
                probes_per_subrange: 1,
                ..ConvexitySettings::default()
            },
            ConvexitySettings {
                ceiling_fraction: 1.2,
                ..ConvexitySettings::default()
            },
        ] {
            assert!(matches!(
                certify_convexity(&s, bad),
                Err(OptError::InvalidParameter(_))
            ));
        }
        assert!(matches!(
            h_column(&s, Amperes(0.0), 10_000),
            Err(OptError::InvalidParameter(_))
        ));
    }

    #[test]
    fn more_subranges_never_hurt() {
        // Theorem 4 discussion: finer splits tighten the frozen-slope bound.
        let s = system(&[TileIndex::new(1, 1)]);
        let coarse = certify_convexity(
            &s,
            ConvexitySettings {
                subranges: 1,
                ..ConvexitySettings::default()
            },
        )
        .unwrap();
        let fine = certify_convexity(
            &s,
            ConvexitySettings {
                subranges: 16,
                ..ConvexitySettings::default()
            },
        )
        .unwrap();
        if coarse.is_certified() {
            assert!(fine.is_certified(), "finer split lost a coarse certificate");
        }
        assert!(fine.probes > coarse.probes);
    }
}
