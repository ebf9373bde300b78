//! Executable statements of the paper's mathematical claims.
//!
//! The paper states Lemma 1–4 and Theorems 1–4 (proofs in its technical
//! report, which is not generally available). This module encodes each
//! claim as a *numerical check* against a concrete system, so the theory
//! chapter of the paper is testable against this implementation:
//!
//! | item | claim | checker |
//! |---|---|---|
//! | Lemma 1 | `G` is an irreducible positive-definite Stieltjes matrix | [`check_lemma1`] |
//! | Lemma 2 | `A = G − λ_m·D` is singular; its minors `A_kl` are not | [`check_lemma2`] |
//! | Lemma 3 | PD Stieltjes matrices have nonnegative inverses | [`check_lemma3`] |
//! | Theorem 1 | `G − i·D` is PD iff `i < λ_m` (on the sampled grid) | [`check_theorem1`] |
//! | Theorem 2 | every `h_kl(i) → +∞` as `i → λ_m⁻` | [`check_theorem2`] |
//! | Theorem 3 | every `h_kl(i)` is midpoint-convex on the sampled grid (every junction's columns) | [`check_theorem3`] |
//!
//! Each checker returns a [`TheoryReport`] with the witnesses it examined;
//! `Err` is reserved for malformed inputs, a *refuted* claim comes back as
//! `holds == false` with the counterexample location.

use crate::{runaway_limit, CoolingSystem, OptError};
use tecopt_linalg::stieltjes::{check_stieltjes, is_irreducible};
use tecopt_linalg::{log_abs_determinant, Cholesky};
use tecopt_units::Amperes;

/// Outcome of one theory check.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoryReport {
    /// Which claim was checked.
    pub claim: &'static str,
    /// Whether the claim held on every examined witness.
    pub holds: bool,
    /// Number of individual conditions examined.
    pub witnesses: usize,
    /// Human-readable detail (the counterexample when `holds` is false).
    pub detail: String,
}

impl TheoryReport {
    fn ok(claim: &'static str, witnesses: usize, detail: impl Into<String>) -> TheoryReport {
        TheoryReport {
            claim,
            holds: true,
            witnesses,
            detail: detail.into(),
        }
    }

    fn refuted(claim: &'static str, witnesses: usize, detail: impl Into<String>) -> TheoryReport {
        TheoryReport {
            claim,
            holds: false,
            witnesses,
            detail: detail.into(),
        }
    }
}

/// Lemma 1: the assembled `G` is an irreducible positive-definite Stieltjes
/// matrix.
///
/// # Errors
///
/// Never fails for a validly constructed system; the signature allows the
/// linear algebra to report breakage.
pub fn check_lemma1(system: &CoolingSystem) -> Result<TheoryReport, OptError> {
    let g = &system.stamped().model().g_matrix().to_dense();
    if let Err(v) = check_stieltjes(g, 1e-9) {
        return Ok(TheoryReport::refuted(
            "Lemma 1",
            1,
            format!("G violates the Stieltjes structure: {v:?}"),
        ));
    }
    if !is_irreducible(g) {
        return Ok(TheoryReport::refuted("Lemma 1", 2, "G is reducible"));
    }
    Ok(TheoryReport::ok(
        "Lemma 1",
        2,
        format!(
            "{}x{} G is an irreducible PD Stieltjes matrix",
            g.rows(),
            g.cols()
        ),
    ))
}

/// Lemma 2: at `λ_m`, `A = G − λ_m·D` is singular while the minors `A_kl`
/// are nonsingular (checked for a sample of `(k, l)` pairs).
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
pub fn check_lemma2(
    system: &CoolingSystem,
    pairs: &[(usize, usize)],
) -> Result<TheoryReport, OptError> {
    let lim = runaway_limit(system, 1e-12)?;
    let mut a = system.stamped().model().g_matrix().to_dense();
    let d = system.stamped().d_diagonal();
    a.add_scaled_diagonal(d, -lim.lambda().value())
        .map_err(tecopt_thermal::ThermalError::from)?;
    // Work in log space: raw determinants of hundreds of conductance
    // pivots underflow f64. Cramer's rule reads h_kl = det(A_kl)/det(A), so
    // Lemma 2 amounts to log|det(A)| - log|det(A_kl)| being very negative
    // relative to a per-dimension conductance scale.
    let (sign_a, log_a) = log_abs_determinant(&a)?;
    let g_scale: f64 = {
        let diag = a.diagonal();
        diag.iter().map(|x| x.abs()).sum::<f64>() / diag.len() as f64
    };
    let mut witnesses = 1;
    let mut min_gap = f64::INFINITY;
    for &(k, l) in pairs {
        if k >= a.rows() || l >= a.cols() {
            return Err(OptError::InvalidParameter(format!(
                "pair ({k}, {l}) out of range"
            )));
        }
        let (sign_kl, log_kl) = log_abs_determinant(&a.minor(k, l))?;
        witnesses += 1;
        if sign_kl == 0.0 {
            return Ok(TheoryReport::refuted(
                "Lemma 2",
                witnesses,
                format!("minor A_{k}{l} is singular"),
            ));
        }
        // det(A)/det(A_kl) has the dimension of one conductance; Lemma 2
        // needs it to vanish against the typical conductance scale.
        let gap = if sign_a == 0.0 {
            f64::NEG_INFINITY
        } else {
            log_a - log_kl - g_scale.ln()
        };
        min_gap = min_gap.min(-gap);
        if gap > (1e-5_f64).ln() {
            return Ok(TheoryReport::refuted(
                "Lemma 2",
                witnesses,
                format!(
                    "det(A)/det(A_{k}{l}) = exp({gap:.2}) x g_scale: A is not numerically singular"
                ),
            ));
        }
    }
    Ok(TheoryReport::ok(
        "Lemma 2",
        witnesses,
        format!("A singular relative to every sampled minor (smallest log-margin {min_gap:.1})"),
    ))
}

/// Lemma 3: the inverse of the (PD Stieltjes) system matrix has nonnegative
/// entries, at the sampled current.
///
/// # Errors
///
/// Propagates factorization failures past runaway.
pub fn check_lemma3(system: &CoolingSystem, current: Amperes) -> Result<TheoryReport, OptError> {
    let m = system.stamped().system_matrix(current)?;
    let h = Cholesky::factor(&m).map_err(OptError::from)?.inverse();
    let n = h.rows();
    let floor = -1e-10 * h.max_abs();
    for r in 0..n {
        for c in 0..n {
            if h[(r, c)] < floor {
                return Ok(TheoryReport::refuted(
                    "Lemma 3",
                    r * n + c + 1,
                    format!("H[{r}][{c}] = {} is negative", h[(r, c)]),
                ));
            }
        }
    }
    Ok(TheoryReport::ok(
        "Lemma 3",
        n * n,
        format!("all {} entries of H({current}) nonnegative", n * n),
    ))
}

/// Theorem 1: `G − i·D` is positive definite strictly below `λ_m` and not
/// positive definite strictly above, on a sampled grid of currents.
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
pub fn check_theorem1(system: &CoolingSystem, samples: usize) -> Result<TheoryReport, OptError> {
    if samples == 0 {
        return Err(OptError::InvalidParameter(
            "need at least one sample".into(),
        ));
    }
    let lim = runaway_limit(system, 1e-11)?;
    let lam = lim.lambda().value();
    let mut witnesses = 0;
    for k in 0..samples {
        let below = lam * (0.02 + 0.96 * k as f64 / samples as f64);
        let m = system.stamped().system_matrix(Amperes(below))?;
        witnesses += 1;
        if !Cholesky::is_positive_definite(&m) {
            return Ok(TheoryReport::refuted(
                "Theorem 1",
                witnesses,
                format!("G - iD lost definiteness at i = {below} < lambda_m = {lam}"),
            ));
        }
        let above = lam * (1.005 + k as f64 / samples as f64);
        let m = system.stamped().system_matrix(Amperes(above))?;
        witnesses += 1;
        if Cholesky::is_positive_definite(&m) {
            return Ok(TheoryReport::refuted(
                "Theorem 1",
                witnesses,
                format!("G - iD still definite at i = {above} > lambda_m = {lam}"),
            ));
        }
    }
    Ok(TheoryReport::ok(
        "Theorem 1",
        witnesses,
        format!("PD iff i < lambda_m = {lam:.4} A on {witnesses} samples"),
    ))
}

/// Theorem 2: sampled entries of `H(i)` grow without bound as `i → λ_m⁻`
/// (operationalized as: approaching `λ_m` a decade at a time, at
/// `(1 − 10⁻ʲ)·λ_m` for `j = 4, 5, 6`, the value exceeds the value at
/// `0.9·λ_m` by at least 100×). A simple pole grows 10× per decade, but
/// its share of `h_kl` at `0.9·λ_m` shrinks as more devices share the
/// critical mode: on the 144-device full cover of the Alpha chip the
/// first decade reaches only 74×, and the next 730×.
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
pub fn check_theorem2(system: &CoolingSystem) -> Result<TheoryReport, OptError> {
    let lim = runaway_limit(system, 1e-12)?;
    let lam = lim.feasible().value();
    let (cold, hot) = system.stamped().junctions()[0];
    let peak_node = system.stamped().model().silicon_nodes()[0].index();
    let mut witnesses = 0;
    for &k in &[cold, hot, peak_node] {
        let far = crate::h_column(system, Amperes(lam * 0.9), cold)?[k];
        let bound = 100.0 * far.max(1e-30);
        let mut near = f64::NAN;
        for closer in [0.9999, 0.99999, 0.999999] {
            near = crate::h_column(system, Amperes(lam * closer), cold)?[k];
            if near > bound {
                break;
            }
        }
        witnesses += 1;
        // NaN must count as "did not grow", so the comparison is kept in the
        // affirmative and negated as a bool.
        let grew = near > bound;
        if !grew {
            return Ok(TheoryReport::refuted(
                "Theorem 2",
                witnesses,
                format!("h_{k},{cold} grew only {far:e} -> {near:e} approaching lambda_m"),
            ));
        }
    }
    Ok(TheoryReport::ok(
        "Theorem 2",
        witnesses,
        "sampled h_kl entries diverge approaching lambda_m",
    ))
}

/// Theorem 3: sampled entries of `H(i)` are midpoint-convex across a grid
/// spanning `[0, 0.98·λ_m]`: every node's entry of the cold and the hot
/// column of every junction (`h_k,cold` and `h_k,hot`, the columns the
/// Peltier and Joule terms act through), each grid point's columns from
/// one factorization ([`crate::h_columns`]).
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
pub fn check_theorem3(system: &CoolingSystem, grid: usize) -> Result<TheoryReport, OptError> {
    if grid < 3 {
        return Err(OptError::InvalidParameter(
            "need a grid of at least 3".into(),
        ));
    }
    let lim = runaway_limit(system, 1e-11)?;
    let lam = lim.feasible().value();
    let columns: Vec<usize> = system
        .stamped()
        .junctions()
        .iter()
        .flat_map(|&(cold, hot)| [cold, hot])
        .collect();
    // The last three grid points' columns, oldest first.
    let mut window: Vec<Vec<Vec<f64>>> = Vec::with_capacity(3);
    let mut witnesses = 0;
    for k in 0..grid {
        let i = lam * 0.98 * k as f64 / (grid - 1) as f64;
        if window.len() == 3 {
            window.remove(0);
        }
        window.push(crate::h_columns(system, Amperes(i), &columns)?);
        let [first, middle, last] = &window[..] else {
            continue;
        };
        for (c, &l) in columns.iter().enumerate() {
            let triples = first[c].iter().zip(&middle[c]).zip(&last[c]);
            for (node, ((&lo, &mid), &hi)) in triples.enumerate() {
                witnesses += 1;
                let chord = 0.5 * (lo + hi);
                if mid > chord + 1e-7 * chord.abs().max(1.0) {
                    return Ok(TheoryReport::refuted(
                        "Theorem 3",
                        witnesses,
                        format!("h_{node},{l} violates midpoint convexity: {mid} > {chord}"),
                    ));
                }
            }
        }
    }
    Ok(TheoryReport::ok(
        "Theorem 3",
        witnesses,
        format!("midpoint convexity held at {witnesses} triples"),
    ))
}

/// Runs every checker on one system and returns all reports.
///
/// # Errors
///
/// - [`OptError::NoDevicesDeployed`] for a passive system.
pub fn check_all(system: &CoolingSystem) -> Result<Vec<TheoryReport>, OptError> {
    let pairs = [(0usize, 0usize), (1, 3), (5, 2)];
    Ok(vec![
        check_lemma1(system)?,
        check_lemma2(system, &pairs)?,
        check_lemma3(system, Amperes(0.0))?,
        check_theorem1(system, 8)?,
        check_theorem2(system)?,
        check_theorem3(system, 9)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackageConfig, TecParams, TileIndex};
    use tecopt_units::Watts;

    fn system() -> CoolingSystem {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let mut powers = vec![Watts(0.05); 16];
        powers[5] = Watts(0.6);
        CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
            powers,
        )
        .unwrap()
    }

    #[test]
    fn every_claim_holds_on_a_deployed_system() {
        let reports = check_all(&system()).unwrap();
        assert_eq!(reports.len(), 6);
        for r in &reports {
            assert!(r.holds, "{}: {}", r.claim, r.detail);
            assert!(r.witnesses > 0);
        }
    }

    #[test]
    fn lemma3_holds_at_operating_currents() {
        let s = system();
        for i in [0.0, 2.0, 5.0] {
            let r = check_lemma3(&s, Amperes(i)).unwrap();
            assert!(r.holds, "{}", r.detail);
        }
    }

    #[test]
    fn passive_system_is_rejected_where_lambda_is_needed() {
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let passive = CoolingSystem::without_devices(
            &config,
            TecParams::superlattice_thin_film(),
            vec![Watts(0.1); 16],
        )
        .unwrap();
        assert!(matches!(
            check_theorem1(&passive, 4),
            Err(OptError::NoDevicesDeployed)
        ));
        // Lemma 1 needs no devices.
        assert!(check_lemma1(&passive).unwrap().holds);
    }

    #[test]
    fn input_validation() {
        let s = system();
        assert!(check_theorem1(&s, 0).is_err());
        assert!(check_theorem3(&s, 2).is_err());
        assert!(check_lemma2(&s, &[(9999, 0)]).is_err());
    }
}
