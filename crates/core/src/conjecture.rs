//! Randomized verification of Conjecture 1 (experiment E6).
//!
//! Conjecture 1: for an `n×n` positive-definite Stieltjes matrix `S` with
//! `H = S⁻¹`, the matrix `DIAG(h_k)·H·DIAG(h_l)` is positive definite for
//! all row pairs `(k, l)`. The paper could not prove it but "randomly
//! generated millions of positive definite Stieltjes matrices and verified
//! this property in all cases"; this module reproduces that campaign with a
//! seeded generator.

use crate::OptError;
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{Cholesky, DenseCholesky, DenseMatrix};

/// Result of checking one matrix against Conjecture 1.
#[derive(Debug, Clone, PartialEq)]
pub enum ConjectureVerdict {
    /// Every examined `(k, l)` pair produced a positive-definite product.
    Holds {
        /// Pairs examined.
        pairs: usize,
    },
    /// A counterexample pair was found (this would *disprove* the
    /// conjecture — it never fires in practice).
    CounterExample {
        /// Row index `k`.
        k: usize,
        /// Row index `l`.
        l: usize,
    },
}

/// Checks Conjecture 1 on a single positive-definite Stieltjes matrix.
///
/// Positive definiteness of the (generally nonsymmetric) product `M =
/// DIAG(h_k)·H·DIAG(h_l)` in the quadratic-form sense of Definition 2 is
/// equivalent to positive definiteness of its symmetric part
/// `(M + Mᵀ)/2`, which is what the Cholesky oracle tests.
///
/// When `pairs` is `None` every `(k, l)` pair is examined; otherwise only
/// the listed ones.
///
/// # Errors
///
/// - [`OptError::InvalidParameter`] if `s` is not a PD Stieltjes matrix or
///   an index is out of range.
pub fn check_conjecture1(
    s: &DenseMatrix,
    pairs: Option<&[(usize, usize)]>,
) -> Result<ConjectureVerdict, OptError> {
    if let Err(v) = tecopt_linalg::stieltjes::check_stieltjes(s, 1e-9) {
        return Err(OptError::InvalidParameter(format!(
            "matrix is not a positive-definite Stieltjes matrix: {v:?}"
        )));
    }
    let n = s.rows();
    let h = Cholesky::factor(s).map_err(OptError::from)?.inverse();
    let rows: Vec<Vec<f64>> = (0..n).map(|k| h.row(k).to_vec()).collect();
    let mut examined = 0usize;
    let check_pair = |k: usize, l: usize| -> Result<bool, OptError> {
        if k >= n || l >= n {
            return Err(OptError::InvalidParameter(format!(
                "pair ({k}, {l}) out of range for n = {n}"
            )));
        }
        // M = DIAG(h_k) * H * DIAG(h_l); M[a][b] = h_k[a] * H[a][b] * h_l[b].
        let mut m = DenseMatrix::zeros(n, n);
        for a in 0..n {
            for b in 0..n {
                m[(a, b)] = rows[k][a] * h[(a, b)] * rows[l][b];
            }
        }
        let sym = m.symmetric_part();
        Ok(DenseCholesky::is_positive_definite(&sym))
    };
    match pairs {
        Some(list) => {
            for &(k, l) in list {
                examined += 1;
                if !check_pair(k, l)? {
                    return Ok(ConjectureVerdict::CounterExample { k, l });
                }
            }
        }
        None => {
            for k in 0..n {
                for l in 0..n {
                    examined += 1;
                    if !check_pair(k, l)? {
                        return Ok(ConjectureVerdict::CounterExample { k, l });
                    }
                }
            }
        }
    }
    Ok(ConjectureVerdict::Holds { pairs: examined })
}

/// Outcome of a randomized verification campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Matrices generated and checked.
    pub matrices: usize,
    /// Total `(k, l)` pairs examined.
    pub pairs: usize,
    /// The first counterexample found, if any.
    pub counterexample: Option<(usize, ConjectureVerdict)>,
}

impl CampaignReport {
    /// `true` if no counterexample was found.
    pub fn all_hold(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Runs a seeded randomized campaign: `matrices` random PD Stieltjes
/// matrices of dimension `dim`, each checked on every `(k, l)` pair.
///
/// # Errors
///
/// Returns [`OptError::InvalidParameter`] for zero matrices or dimension.
pub fn randomized_campaign(
    seed: u64,
    matrices: usize,
    dim: usize,
) -> Result<CampaignReport, OptError> {
    if matrices == 0 || dim == 0 {
        return Err(OptError::InvalidParameter(
            "campaign needs at least one matrix of positive dimension".into(),
        ));
    }
    let mut rng = seeded_rng(seed);
    let sampler = StieltjesSampler {
        dim,
        ..StieltjesSampler::default()
    };
    let mut pairs = 0usize;
    for idx in 0..matrices {
        let s = random_stieltjes(sampler, &mut rng);
        match check_conjecture1(&s, None)? {
            ConjectureVerdict::Holds { pairs: p } => pairs += p,
            verdict @ ConjectureVerdict::CounterExample { .. } => {
                return Ok(CampaignReport {
                    matrices: idx + 1,
                    pairs,
                    counterexample: Some((idx, verdict)),
                });
            }
        }
    }
    Ok(CampaignReport {
        matrices,
        pairs,
        counterexample: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_on_hand_checked_matrix() {
        let s = DenseMatrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        match check_conjecture1(&s, None).unwrap() {
            ConjectureVerdict::Holds { pairs } => assert_eq!(pairs, 4),
            other => panic!("conjecture should hold: {other:?}"),
        }
    }

    #[test]
    fn holds_on_random_campaign() {
        let report = randomized_campaign(2024, 40, 8).unwrap();
        assert!(report.all_hold(), "{:?}", report.counterexample);
        assert_eq!(report.matrices, 40);
        assert_eq!(report.pairs, 40 * 64);
    }

    #[test]
    fn holds_across_dimensions() {
        for dim in [2usize, 3, 5, 13] {
            let report = randomized_campaign(7 + dim as u64, 10, dim).unwrap();
            assert!(report.all_hold(), "dim {dim}: {:?}", report.counterexample);
        }
    }

    #[test]
    fn selected_pairs_only() {
        let s = DenseMatrix::from_rows(&[&[3.0, -1.0, 0.0], &[-1.0, 3.0, -1.0], &[0.0, -1.0, 3.0]])
            .unwrap();
        match check_conjecture1(&s, Some(&[(0, 2), (1, 1)])).unwrap() {
            ConjectureVerdict::Holds { pairs } => assert_eq!(pairs, 2),
            other => panic!("{other:?}"),
        }
        assert!(check_conjecture1(&s, Some(&[(0, 9)])).is_err());
    }

    #[test]
    fn non_stieltjes_input_rejected() {
        // Positive off-diagonal: not Stieltjes.
        let s = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(matches!(
            check_conjecture1(&s, None),
            Err(OptError::InvalidParameter(_))
        ));
        assert!(randomized_campaign(1, 0, 4).is_err());
        assert!(randomized_campaign(1, 4, 0).is_err());
    }

    #[test]
    fn conjecture_on_thermal_system_matrix() {
        // The matrices that actually arise in the optimizer: G - i*D of a
        // deployed system at a feasible current.
        use tecopt_device::TecParams;
        use tecopt_thermal::{PackageConfig, TileIndex};
        use tecopt_units::{Amperes, Watts};
        let config = PackageConfig::hotspot41_like(3, 3).unwrap();
        let system = crate::CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(1, 1)],
            vec![Watts(0.1); 9],
        )
        .unwrap();
        let m = system.stamped().system_matrix(Amperes(2.0)).unwrap();
        // Spot-check a handful of pairs (the full matrix is ~300x300).
        let pairs: Vec<(usize, usize)> = vec![(0, 0), (1, 5), (10, 3), (7, 7)];
        match check_conjecture1(&m, Some(&pairs)).unwrap() {
            ConjectureVerdict::Holds { .. } => {}
            other => panic!("conjecture failed on a system matrix: {other:?}"),
        }
    }
}
