//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use std::sync::Arc;
use tecopt_linalg::eigen::{
    generalized_pd_threshold, generalized_pd_threshold_dense, DEFAULT_PROBE_BUDGET,
};
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{
    conjugate_gradient, determinant, CgSettings, Cholesky, CholeskyPattern, CsrMatrix,
    DenseCholesky, DenseMatrix, FactorPlan, LeadingBlockCache, LinalgError, Lu, ShiftedCholesky,
    Triplet,
};

/// The nonzeros of `a` as triplets, row-major.
fn triplets_of(a: &DenseMatrix) -> Vec<Triplet> {
    (0..a.rows())
        .flat_map(|r| (0..a.cols()).map(move |c| (r, c)))
        .filter(|&(r, c)| a[(r, c)] != 0.0)
        .map(|(r, c)| Triplet::new(r, c, a[(r, c)]))
        .collect()
}

fn random_spd(seed: u64, dim: usize) -> DenseMatrix {
    // PD Stieltjes matrices are a convenient SPD family with exact
    // reproducibility.
    let mut rng = seeded_rng(seed);
    random_stieltjes(
        StieltjesSampler {
            dim,
            ..StieltjesSampler::default()
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_solves_to_machine_precision(seed in 0u64..5000, dim in 1usize..20) {
        let a = random_spd(seed, dim);
        let chol = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.37).sin()).collect();
        let x = chol.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8 * a.max_abs().max(1.0));
        }
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd(seed in 0u64..5000, dim in 1usize..16) {
        let a = random_spd(seed, dim);
        let lu = Lu::factor(&a).unwrap();
        let chol = Cholesky::factor(&a).unwrap();
        prop_assert!((lu.det().ln() - chol.log_det()).abs() < 1e-7);
        let b: Vec<f64> = (0..dim).map(|k| 1.0 + k as f64).collect();
        let x1 = lu.solve(&b).unwrap();
        let x2 = chol.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-7 * v.abs().max(1.0));
        }
    }

    #[test]
    fn inverse_reconstructs_identity(seed in 0u64..5000, dim in 1usize..12) {
        let a = random_spd(seed, dim);
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let id = a.mul_mat(&inv).unwrap();
        for r in 0..dim {
            for c in 0..dim {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((id[(r, c)] - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn determinant_of_minor_is_nonzero_at_singularity(seed in 0u64..1000) {
        // Lemma 2 of the paper: A = G - lambda_m D is singular but its
        // minors A_kl are not.
        let g = random_spd(seed, 5);
        let d = [1.0, -1.0, 0.0, 1.0, 0.0];
        let t = generalized_pd_threshold(&CsrMatrix::from_dense(&g), &d, 1e-12).unwrap();
        let mut a = g.clone();
        a.add_scaled_diagonal(&d, -t.estimate()).unwrap();
        let det_a = determinant(&a).unwrap();
        let det_minor = determinant(&a.minor(0, 0)).unwrap();
        // det(A) vanishes at lambda_m relative to a minor's scale.
        prop_assert!(det_a.abs() < 1e-6 * det_minor.abs().max(1e-12),
            "det(A) = {det_a}, det(A_00) = {det_minor}");
    }

    #[test]
    fn pd_threshold_brackets_are_tight_and_correct(seed in 0u64..2000, dim in 2usize..10) {
        let g = random_spd(seed, dim);
        let d: Vec<f64> = (0..dim).map(|k| if k % 2 == 0 { 1.0 } else { -0.5 }).collect();
        let t = generalized_pd_threshold(&CsrMatrix::from_dense(&g), &d, 1e-9).unwrap();
        let mut below = g.clone();
        below.add_scaled_diagonal(&d, -t.lower).unwrap();
        prop_assert!(Cholesky::is_positive_definite(&below));
        let mut above = g.clone();
        above.add_scaled_diagonal(&d, -t.upper).unwrap();
        prop_assert!(!Cholesky::is_positive_definite(&above));
        prop_assert!(t.width() <= 1e-8 * t.upper.max(1.0));
    }

    #[test]
    fn schur_threshold_matches_the_dense_oracle(
        seed in 0u64..2000,
        dim in 2usize..41,
        shape in 0usize..3,
        mask in proptest::collection::vec(0u8..2, 20),
        alpha in 0.05f64..2.0,
    ) {
        // TEC-shaped D: hot (+α) / cold (−α) terminal pairs, zero elsewhere.
        let g = random_spd(seed, dim);
        let mut d = vec![0.0; dim];
        match shape {
            // A single device.
            0 => {
                let hot = seed as usize % dim;
                let cold = (hot + 1 + (seed as usize / 7) % (dim - 1)) % dim;
                d[hot] = alpha;
                d[cold] = -alpha;
            }
            // Every node is a terminal: the Peltier-free block is empty.
            1 => {
                for (k, x) in d.iter_mut().enumerate() {
                    *x = if k % 2 == 0 { alpha } else { -alpha };
                }
            }
            // A random subset of devices at a rotated offset.
            _ => {
                for j in 0..dim / 2 {
                    if mask[j] == 1 || j == 0 {
                        let a = alpha * (1.0 + 0.1 * j as f64);
                        d[2 * j] = a;
                        d[2 * j + 1] = -a;
                    }
                }
                d.rotate_right(seed as usize % dim);
            }
        }
        let tol = 1e-9;
        let dense = generalized_pd_threshold_dense(&g, &d, tol, DEFAULT_PROBE_BUDGET).unwrap();
        let t = generalized_pd_threshold(&CsrMatrix::from_dense(&g), &d, tol).unwrap();
        prop_assert!((t.lower - dense.lower).abs() <= tol * dense.upper,
            "lower {} vs dense {}", t.lower, dense.lower);
        prop_assert!((t.upper - dense.upper).abs() <= tol * dense.upper,
            "upper {} vs dense {}", t.upper, dense.upper);
        let mut below = g.clone();
        below.add_scaled_diagonal(&d, -t.lower).unwrap();
        prop_assert!(Cholesky::is_positive_definite(&below));
        let mut above = g.clone();
        above.add_scaled_diagonal(&d, -t.upper).unwrap();
        prop_assert!(!Cholesky::is_positive_definite(&above));
    }

    #[test]
    fn csr_matvec_matches_dense(seed in 0u64..5000, dim in 1usize..15) {
        let a = random_spd(seed, dim);
        let mut trips = Vec::new();
        for r in 0..dim {
            for c in 0..dim {
                if a[(r, c)] != 0.0 {
                    trips.push(Triplet::new(r, c, a[(r, c)]));
                }
            }
        }
        let sparse = CsrMatrix::from_triplets(dim, dim, &trips).unwrap();
        let x: Vec<f64> = (0..dim).map(|k| (k as f64 - 1.5).cos()).collect();
        let yd = a.mul_vec(&x).unwrap();
        let ys = sparse.mul_vec(&x).unwrap();
        for (u, v) in yd.iter().zip(&ys) {
            prop_assert!((u - v).abs() < 1e-12 * u.abs().max(1.0));
        }
    }

    #[test]
    fn duplicate_triplets_accumulate(seed in 0u64..5000, dim in 1usize..12) {
        // CSR assembly must sum repeated (row, col) entries, so splitting
        // every dense value into several duplicate triplets reproduces the
        // original matrix exactly — both through `get` and `mul_vec`.
        let a = random_spd(seed, dim);
        let mut trips = Vec::new();
        for r in 0..dim {
            for c in 0..dim {
                let v = a[(r, c)];
                if v != 0.0 {
                    trips.push(Triplet::new(r, c, 0.25 * v));
                    trips.push(Triplet::new(r, c, 0.25 * v));
                    trips.push(Triplet::new(r, c, 0.5 * v));
                }
            }
        }
        let sparse = CsrMatrix::from_triplets(dim, dim, &trips).unwrap();
        for r in 0..dim {
            for c in 0..dim {
                let v = a[(r, c)];
                prop_assert!((sparse.get(r, c) - v).abs() <= 1e-12 * v.abs().max(1.0));
            }
        }
        let x: Vec<f64> = (0..dim).map(|k| (0.7 * k as f64).sin()).collect();
        let yd = a.mul_vec(&x).unwrap();
        let ys = sparse.mul_vec(&x).unwrap();
        for (u, v) in yd.iter().zip(&ys) {
            prop_assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0));
        }
    }

    #[test]
    fn backend_solves_agree_on_random_stieltjes(seed in 0u64..3000, dim in 2usize..24) {
        // The cross-backend contract: on any PD Stieltjes system, the
        // sparse CG backend and dense Cholesky agree to well under the
        // documented 1e-8 relative tolerance.
        use tecopt_linalg::{FactoredSystem, ResolvedBackend};
        let a = random_spd(seed, dim);
        let b: Vec<f64> = (0..dim).map(|k| 0.3 + (k as f64 * 0.29).cos()).collect();
        let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky)
            .unwrap()
            .solve(&b)
            .unwrap();
        let sparse = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .unwrap()
            .solve(&b)
            .unwrap();
        let scale: f64 = dense.x.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0);
        for (u, v) in dense.x.iter().zip(&sparse.x) {
            prop_assert!((u - v).abs() <= 1e-8 * scale, "dense {u} vs sparse {v}");
        }
    }

    #[test]
    fn set_diagonal_entry_round_trips_against_from_dense(
        seed in 0u64..3000,
        dim in 1usize..14,
        node_pick in 0usize..14,
        value in -3.0f64..3.0,
    ) {
        // Patch one diagonal entry of a CSR copy (including structurally
        // absent diagonals, the fill-in case) and compare against
        // re-compressing the patched dense matrix: every entry and a
        // mat-vec must agree exactly, and nnz parity must hold because
        // `from_dense` stores no zeros and the patch inserts none.
        let mut a = random_spd(seed, dim);
        let node = node_pick % dim;
        // Blow away the whole row/column crossing, so some cases exercise a
        // structurally absent diagonal after compression.
        if seed % 3 == 0 {
            for c in 0..dim {
                a[(node, c)] = 0.0;
                a[(c, node)] = 0.0;
            }
        }
        let mut sparse = CsrMatrix::from_dense(&a);
        sparse.set_diagonal_entry(node, value).unwrap();
        let mut dense_patched = a.clone();
        dense_patched[(node, node)] = value;
        let oracle = CsrMatrix::from_dense(&dense_patched);
        for r in 0..dim {
            for c in 0..dim {
                prop_assert_eq!(sparse.get(r, c), oracle.get(r, c), "entry ({}, {})", r, c);
            }
        }
        if value != 0.0 || a[(node, node)] != 0.0 {
            prop_assert_eq!(sparse.nnz(), oracle.nnz());
        }
        let x: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.53).sin() + 0.5).collect();
        let ys = sparse.mul_vec(&x).unwrap();
        let yo = oracle.mul_vec(&x).unwrap();
        for (u, v) in ys.iter().zip(&yo) {
            prop_assert_eq!(u, v);
        }
    }

    #[test]
    fn cg_agrees_with_cholesky(seed in 0u64..5000, dim in 2usize..15) {
        let a = random_spd(seed, dim);
        let mut trips = Vec::new();
        for r in 0..dim {
            for c in 0..dim {
                if a[(r, c)] != 0.0 {
                    trips.push(Triplet::new(r, c, a[(r, c)]));
                }
            }
        }
        let sparse = CsrMatrix::from_triplets(dim, dim, &trips).unwrap();
        let b: Vec<f64> = (0..dim).map(|k| 1.0 / (1.0 + k as f64)).collect();
        let direct = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let iterative = conjugate_gradient(&sparse, &b, CgSettings::default()).unwrap();
        for (u, v) in direct.iter().zip(&iterative.x) {
            prop_assert!((u - v).abs() < 1e-6 * u.abs().max(1.0));
        }
    }
}

// Robustness properties: the hardened entry points must be *total* — every
// input in these strategies, including degenerate and adversarial ones,
// produces either a solution or a typed error, never a panic or a hang.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_is_total_on_near_singular_blends(
        seed in 0u64..2000,
        dim in 2usize..10,
        t in 0.0f64..=1.0,
    ) {
        // Blend an SPD matrix toward an exactly rank-deficient copy; at
        // t = 1 it is singular, just below it is arbitrarily ill-conditioned.
        let base = random_spd(seed, dim);
        let mut sing = base.clone();
        for c in 0..dim {
            let v = sing[(0, c)];
            sing[(dim - 1, c)] = v;
        }
        for r in 0..dim {
            let v = sing[(r, 0)];
            sing[(r, dim - 1)] = v;
        }
        sing[(dim - 1, dim - 1)] = sing[(0, 0)];
        let mut a = DenseMatrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                a[(r, c)] = (1.0 - t) * base[(r, c)] + t * sing[(r, c)];
            }
        }
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.61).cos()).collect();
        match Cholesky::factor(&a).and_then(|chol| chol.solve(&b)) {
            Ok(x) => {
                // Accepted solutions must actually satisfy the system to a
                // relative residual of 1e-4.
                let r = a.mul_vec(&x).unwrap();
                let scale: f64 = b.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0)
                    + a.max_abs() * x.iter().map(|x| x.abs()).fold(0.0, f64::max);
                for (ri, bi) in r.iter().zip(&b) {
                    prop_assert!((ri - bi).abs() <= 1e-4 * scale);
                }
            }
            Err(e) => {
                // Degenerate inputs fail with the definiteness verdict only.
                prop_assert!(matches!(
                    e,
                    tecopt_linalg::LinalgError::NotPositiveDefinite { .. }
                ), "unexpected error {e:?}");
            }
        }
    }

    #[test]
    fn pd_threshold_terminates_for_any_tolerance(
        seed in 0u64..2000,
        dim in 2usize..8,
        log_tol in -320f64..0.0,
    ) {
        // Tolerances spanning all the way into the denormal range must
        // terminate within the probe budget — either with a bracket or
        // with a typed budget error.
        let g = random_spd(seed, dim);
        let d: Vec<f64> = (0..dim).map(|k| 0.1 + k as f64).collect();
        let tol = 10f64.powf(log_tol);
        match tecopt_linalg::eigen::generalized_pd_threshold_budgeted(&CsrMatrix::from_dense(&g), &d, tol, 512) {
            Ok(th) => prop_assert!(th.lower > 0.0 && th.lower <= th.upper),
            Err(tecopt_linalg::LinalgError::BudgetExhausted { spent, budget }) => {
                prop_assert!(spent == budget && budget == 512);
            }
            Err(tecopt_linalg::LinalgError::InvalidInput(_)) => {
                // tol rounded to 0.0 underflow is rejected up front.
                prop_assert!(tol == 0.0 || tol >= 1.0 || tol.is_nan());
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }
}

/// A random PD Stieltjes matrix of `dim` at `density`, or (by `shape`) the
/// fully dense and the diagonal extremes of the same family.
fn stieltjes_case(seed: u64, dim: usize, density: f64, shape: usize) -> DenseMatrix {
    if shape == 1 {
        let diag: Vec<f64> = (0..dim)
            .map(|k| 0.5 + ((seed as usize + 3 * k) % 13) as f64 * 0.37)
            .collect();
        return DenseMatrix::from_diagonal(&diag);
    }
    let density = if shape == 0 { 1.0 } else { density };
    random_stieltjes(
        StieltjesSampler {
            dim,
            density,
            ..StieltjesSampler::default()
        },
        &mut seeded_rng(seed),
    )
}

fn rel_err(x: &[f64], y: &[f64]) -> f64 {
    let num: f64 = x
        .iter()
        .zip(y)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let den: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    num / den
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The sparse factor against the dense oracle: solves, blocked solves
    /// and log-determinants agree to 1e-10 relative.
    #[test]
    fn sparse_cholesky_matches_the_dense_oracle(
        seed in 0u64..5000,
        dim in 1usize..151,
        density in 0.02f64..0.5,
        shape in 0usize..8,
    ) {
        let a = stieltjes_case(seed, dim, density, shape);
        let chol = Cholesky::factor(&a).unwrap();
        let dense = DenseCholesky::factor(&a).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..dim).map(|k| ((k + 5 * c) as f64 * 0.37).sin() + 0.5).collect())
            .collect();
        let many = chol.solve_many(&rhs).unwrap();
        for (b, x_many) in rhs.iter().zip(&many) {
            let x = chol.solve(b).unwrap();
            let x_dense = dense.solve(b).unwrap();
            prop_assert!(rel_err(&x, &x_dense) <= 1e-10, "solve rel err {}", rel_err(&x, &x_dense));
            prop_assert!(rel_err(x_many, &x_dense) <= 1e-10);
        }
        // Sparse unit-vector columns, whose blocks the forward sweep skips
        // wherever every column is still zero: alone and beside a dense
        // column, each bit-identical to its own solve.
        let unit = |j: usize| {
            let mut e = vec![0.0; dim];
            e[j % dim] = 1.0;
            e
        };
        let sparse: Vec<Vec<f64>> = [seed as usize, seed as usize / 7 + 1, dim - 1]
            .into_iter()
            .map(unit)
            .collect();
        let mixed: Vec<Vec<f64>> = sparse.iter().chain(&rhs[..1]).cloned().collect();
        for block in [&sparse, &mixed] {
            for (b, x_many) in block.iter().zip(&chol.solve_many(block).unwrap()) {
                prop_assert_eq!(bits(x_many), bits(&chol.solve(b).unwrap()));
                prop_assert!(rel_err(x_many, &dense.solve(b).unwrap()) <= 1e-10);
            }
        }
        let ld = dense.log_det();
        prop_assert!((chol.log_det() - ld).abs() <= 1e-10 * ld.abs().max(1.0),
            "log det {} vs {}", chol.log_det(), ld);
        prop_assert!(chol.pattern().nnz_l() <= dim * (dim + 1) / 2);
    }

    /// Definiteness verdicts on `G − s·I` agree with the dense oracle for
    /// every shift at least 1e-6 relative away from `λ_min(G)`.
    #[test]
    fn sparse_and_dense_pd_verdicts_agree_off_the_boundary(
        seed in 0u64..5000,
        dim in 1usize..151,
        density in 0.02f64..0.5,
        shape in 0usize..8,
        fraction in 0.0f64..2.0,
    ) {
        let g = stieltjes_case(seed, dim, density, shape);
        let ones = vec![1.0; dim];
        let lam = generalized_pd_threshold_dense(&g, &ones, 1e-12, DEFAULT_PROBE_BUDGET).unwrap();
        for s in [lam.lower * (1.0 - 1e-6), lam.upper * (1.0 + 1e-6), fraction * lam.estimate()] {
            if (s - lam.estimate()).abs() < 1e-6 * lam.estimate() {
                continue;
            }
            let mut shifted = g.clone();
            shifted.add_scaled_diagonal(&ones, -s).unwrap();
            let sparse = Cholesky::is_positive_definite(&shifted);
            prop_assert_eq!(sparse, DenseCholesky::is_positive_definite(&shifted));
            prop_assert_eq!(sparse, s < lam.estimate());
        }
    }

    /// Factorizations are deterministic, a shared pattern gives the very
    /// same factor, and a pattern never silently drops an entry.
    #[test]
    fn factorization_is_bit_identical_and_patterns_are_enforced(
        seed in 0u64..5000,
        dim in 1usize..151,
        density in 0.02f64..0.5,
        shape in 0usize..8,
    ) {
        let a = stieltjes_case(seed, dim, density, shape);
        let b: Vec<f64> = (0..dim).map(|k| 1.0 + (k % 7) as f64).collect();
        let first = Cholesky::factor(&a).unwrap();
        let again = Cholesky::factor(&a).unwrap();
        let pattern = Arc::new(CholeskyPattern::analyse(&a).unwrap());
        let reused = Cholesky::factor_with(&pattern, &a).unwrap();
        let x = bits(&first.solve(&b).unwrap());
        for other in [&again, &reused] {
            prop_assert_eq!(bits(&other.solve(&b).unwrap()), x.clone());
            prop_assert_eq!(other.log_det().to_bits(), first.log_det().to_bits());
            prop_assert_eq!(
                other.condition_estimate().to_bits(),
                first.condition_estimate().to_bits()
            );
        }
        prop_assert_eq!(pattern.permutation(), first.pattern().permutation());

        // The CSR path: the same analysis, and a factor bit-identical to
        // the dense `factor_with` on the shared pattern.
        let csr = CsrMatrix::from_dense(&a);
        let csr_pattern = Arc::new(CholeskyPattern::analyse_csr(&csr).unwrap());
        prop_assert_eq!(csr_pattern.permutation(), pattern.permutation());
        let on_csr = Cholesky::factor_csr_with(&pattern, &csr).unwrap();
        let fresh_csr = Cholesky::factor_csr(&csr).unwrap();
        for other in [&on_csr, &fresh_csr] {
            prop_assert_eq!(bits(&other.solve(&b).unwrap()), x.clone());
            prop_assert_eq!(other.log_det().to_bits(), reused.log_det().to_bits());
        }

        // The first structurally zero lower entry, if any, made nonzero.
        let hole = (1..dim).flat_map(|r| (0..r).map(move |c| (r, c))).find(|&(r, c)| a[(r, c)] == 0.0);
        if let Some((r, c)) = hole {
            let mut outside = a.clone();
            outside[(r, c)] = -1e-3;
            outside[(c, r)] = -1e-3;
            let got = Cholesky::factor_with(&pattern, &outside);
            prop_assert!(matches!(got, Err(LinalgError::InvalidInput(_))), "{got:?}");
            // The same extra entry in CSR, even stored as an explicit zero.
            let mut t = triplets_of(&a);
            t.push(Triplet::new(r, c, 0.0));
            t.push(Triplet::new(c, r, 0.0));
            let extra = CsrMatrix::from_triplets(dim, dim, &t).unwrap();
            let got = Cholesky::factor_csr_with(&pattern, &extra);
            prop_assert!(matches!(got, Err(LinalgError::InvalidInput(_))), "{got:?}");
        }
        // The first stored off-diagonal dropped from the CSR structure.
        let stored = (1..dim).flat_map(|r| (0..r).map(move |c| (r, c))).find(|&(r, c)| a[(r, c)] != 0.0);
        if let Some((r, c)) = stored {
            let t: Vec<Triplet> = triplets_of(&a)
                .into_iter()
                .filter(|e| (e.row, e.col) != (r, c) && (e.row, e.col) != (c, r))
                .collect();
            let missing = CsrMatrix::from_triplets(dim, dim, &t).unwrap();
            let got = Cholesky::factor_csr_with(&pattern, &missing);
            prop_assert!(matches!(got, Err(LinalgError::InvalidInput(_))), "{got:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shifted_cholesky_matches_the_dense_oracle(
        seed in 0u64..5000,
        dim in 1usize..30,
        k_pick in 0usize..1000,
        density in 0.05f64..0.9,
        alpha in 0.05f64..2.0,
    ) {
        // A random Stieltjes G and a random ±α D on k declared nodes, k
        // anywhere from 0 (passive) to n (G_AA empty).
        let g = stieltjes_case(seed, dim, density, 2);
        let k = k_pick % (dim + 1);
        let mut order: Vec<usize> = (0..dim).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..dim).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let support = &order[..k];
        let mut d = vec![0.0; dim];
        for (j, &b) in support.iter().enumerate() {
            let sign = if (seed as usize + j).is_multiple_of(3) { -1.0 } else { 1.0 };
            d[b] = sign * alpha * (1.0 + 0.1 * j as f64);
        }
        let csr = CsrMatrix::from_dense(&g);
        let network = || Ok(Arc::new(CholeskyPattern::analyse_csr(&csr)?));
        let rule = ShiftedCholesky::new(&csr, &d, support, network).unwrap();
        if let FactorPlan::TrailingBlock { k: planned } = rule.plan() {
            prop_assert_eq!(planned, k);
        }
        // The rule's plan, and both plans forced, on the same placement.
        let families = [
            rule,
            ShiftedCholesky::with_plan(&csr, &d, support, FactorPlan::TrailingBlock { k }, network)
                .unwrap(),
            ShiftedCholesky::with_plan(&csr, &d, support, FactorPlan::Network, network).unwrap(),
        ];

        // Currents either side of λ_m, when there is one.
        let lambda = if d.iter().any(|&x| x > 0.0) {
            generalized_pd_threshold_dense(&g, &d, 1e-12, DEFAULT_PROBE_BUDGET)
                .unwrap()
                .estimate()
        } else {
            1.0
        };
        let b: Vec<f64> = (0..dim).map(|j| 1.0 + (j as f64 * 0.61).cos()).collect();
        let shifted = |i: f64| {
            let mut m = g.clone();
            m.add_scaled_diagonal(&d, -i).unwrap();
            m
        };
        for family in families.map(Arc::new) {
            for f in [0.0, 0.5, 0.9, 0.999, 1.001, 1.5, 4.0] {
                let i = f * lambda;
                let dense = DenseCholesky::factor(&shifted(i));
                prop_assert_eq!(family.is_pd_at(i).unwrap(), dense.is_ok(),
                    "{:?} verdict at {} λ_m", family.plan(), f);
                if f > 0.95 {
                    continue;
                }
                let factor = family.factor_at(i).unwrap();
                let x = factor.solve(&b).unwrap();
                let oracle = dense.unwrap().solve(&b).unwrap();
                let scale = oracle.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
                for (u, v) in x.iter().zip(&oracle) {
                    prop_assert!((u - v).abs() <= 1e-10 * scale,
                        "{:?}: {} vs dense {} at {} λ_m", family.plan(), u, v, f);
                }
                let cols: Vec<Vec<f64>> = (0..3)
                    .map(|c| b.iter().map(|v| v * (c as f64 + 1.0) - c as f64).collect())
                    .collect();
                let many = factor.solve_many(&cols).unwrap();
                for (col, got) in cols.iter().zip(&many) {
                    prop_assert_eq!(&factor.solve(col).unwrap(), got);
                }
            }
        }

        // A D entry off the declared support is an error, not a wrong answer.
        if let Some(&off) = order.get(k) {
            let mut bad = d.clone();
            bad[off] = alpha;
            prop_assert!(matches!(
                ShiftedCholesky::new(&csr, &bad, support, || unreachable!()),
                Err(LinalgError::InvalidInput(_))
            ));
        }
    }
}

/// The nodes of `0..dim` split by a seeded shuffle: the first `k` are the
/// support, the rest (ascending) the free nodes.
fn random_support(seed: u64, dim: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..dim).collect();
    let mut state = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
    for i in (1..dim).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let support = order[..k].to_vec();
    let mut free = order[k..].to_vec();
    free.sort_unstable();
    (support, free)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restricted_order_bounds_the_fill_and_matches_minimum_degree(
        seed in 0u64..5000,
        dim in 2usize..40,
        k_pick in 0usize..1000,
        density in 0.05f64..0.6,
    ) {
        // A network, its minimum-degree order, and a random support whose
        // complement A is the Peltier-free block.
        let g = stieltjes_case(seed, dim, density, 2);
        let csr = CsrMatrix::from_dense(&g);
        let network = CholeskyPattern::analyse_csr(&csr).unwrap();
        let k = 1 + k_pick % (dim - 1);
        let (support, free) = random_support(seed, dim, k);
        let mut g_aa = DenseMatrix::zeros(free.len(), free.len());
        for (r, &a) in free.iter().enumerate() {
            for (c, &b) in free.iter().enumerate() {
                g_aa[(r, c)] = g[(a, b)];
            }
        }
        let aa = CsrMatrix::from_dense(&g_aa);
        let mut slot = vec![usize::MAX; dim];
        for (s, &a) in free.iter().enumerate() {
            slot[a] = s;
        }
        let restricted: Vec<usize> = network
            .permutation()
            .iter()
            .filter(|&&v| slot[v] != usize::MAX)
            .map(|&v| slot[v])
            .collect();

        // G_AA is an induced subgraph: eliminating it in the network's
        // order fills no more than the network's factor.
        let ordered = Arc::new(CholeskyPattern::analyse_csr_ordered(&aa, &restricted).unwrap());
        prop_assert!(ordered.nnz_l() <= network.nnz_l(),
            "nnz(L_AA) {} > nnz(L) {}", ordered.nnz_l(), network.nnz_l());

        // Solves on the restricted order agree with the minimum-degree
        // factor of G_AA, and so do the families built on either.
        let b: Vec<f64> = (0..free.len()).map(|j| 1.0 + (j as f64 * 0.43).sin()).collect();
        let on_order = Cholesky::factor_csr_with(&ordered, &aa).unwrap().solve(&b).unwrap();
        let amd = Cholesky::factor_csr(&aa).unwrap().solve(&b).unwrap();
        prop_assert!(rel_err(&on_order, &amd) <= 1e-10, "{}", rel_err(&on_order, &amd));

        let mut d = vec![0.0; dim];
        for (j, &s) in support.iter().enumerate() {
            d[s] = if j % 2 == 0 { 0.3 } else { -0.3 };
        }
        let pattern = || Ok(Arc::new(CholeskyPattern::analyse_csr(&csr)?));
        let with_order = Arc::new(
            ShiftedCholesky::with_order(&csr, &d, &support, network.permutation(), None, pattern)
                .unwrap(),
        );
        let fresh = Arc::new(ShiftedCholesky::new(&csr, &d, &support, pattern).unwrap());
        prop_assert_eq!(with_order.plan(), fresh.plan());
        let rhs: Vec<f64> = (0..dim).map(|j| 1.0 + (j as f64 * 0.61).cos()).collect();
        let lambda = if d.iter().any(|&x| x > 0.0) {
            generalized_pd_threshold_dense(&g, &d, 1e-12, DEFAULT_PROBE_BUDGET)
                .unwrap()
                .estimate()
        } else {
            1.0
        };
        for f in [0.0, 0.5, 0.9] {
            let i = f * lambda;
            let x = with_order.factor_at(i).unwrap().solve(&rhs).unwrap();
            let y = fresh.factor_at(i).unwrap().solve(&rhs).unwrap();
            prop_assert!(rel_err(&x, &y) <= 1e-10, "{} at {} λ_m", rel_err(&x, &y), f);
        }

        // An order that is not a permutation is refused, not restricted.
        let mut bad = network.permutation().to_vec();
        bad[0] = bad[dim - 1];
        prop_assert!(matches!(
            ShiftedCholesky::with_order(&csr, &d, &support, &bad, None, pattern),
            Err(LinalgError::InvalidInput(_))
        ));
    }

    #[test]
    fn arbitrary_orders_are_a_pattern_or_a_typed_error(
        seed in 0u64..5000,
        dim in 1usize..12,
        shuffled in 0usize..3,
        raw in proptest::collection::vec(0usize..14, 0..14),
    ) {
        let csr = CsrMatrix::from_dense(&stieltjes_case(seed, dim, 0.4, 2));
        // A third of the cases a true permutation, the rest arbitrary.
        let perm = if shuffled == 0 { random_support(seed, dim, dim).0 } else { raw };
        match CholeskyPattern::analyse_csr_ordered(&csr, &perm) {
            Ok(pattern) => {
                let mut sorted = perm.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..dim).collect::<Vec<_>>());
                prop_assert_eq!(pattern.permutation(), &perm[..]);
                Cholesky::factor_csr_with(&Arc::new(pattern), &csr).unwrap();
            }
            Err(e) => prop_assert!(matches!(e, LinalgError::InvalidInput(_)), "{e:?}"),
        }
    }
}

/// Asserts that `a` and `b` are the same family bit for bit at every
/// current of `shifts`: the same definiteness verdict, the same pivot
/// when not positive definite, and otherwise the same solves (plain and
/// through either family's leading solve) and condition estimates.
fn assert_same_family(a: &Arc<ShiftedCholesky>, b: &Arc<ShiftedCholesky>, shifts: &[f64]) {
    assert_eq!(a.plan(), b.plan());
    let n = a.factor_at(0.0).map(|f| f.dim()).unwrap_or(0);
    let rhs: Vec<f64> = (0..n).map(|j| 1.0 + (j as f64 * 0.37).sin()).collect();
    for &i in shifts {
        assert_eq!(
            a.is_pd_at(i).unwrap(),
            b.is_pd_at(i).unwrap(),
            "verdict at {i}"
        );
        match (a.factor_at(i), b.factor_at(i)) {
            (Ok(fa), Ok(fb)) => {
                let x = fa.solve(&rhs).unwrap();
                assert_eq!(bits(&x), bits(&fb.solve(&rhs).unwrap()), "solve at {i}");
                let (la, lb) = (
                    a.leading_solve(&rhs).unwrap(),
                    b.leading_solve(&rhs).unwrap(),
                );
                assert_eq!(bits(&fa.solve_with(&lb, &rhs).unwrap()), bits(&x));
                assert_eq!(bits(&fb.solve_with(&la, &rhs).unwrap()), bits(&x));
                assert_eq!(
                    fa.condition_estimate().to_bits(),
                    fb.condition_estimate().to_bits(),
                    "condition at {i}"
                );
            }
            (Err(ea), Err(eb)) => {
                assert!(
                    matches!(ea, LinalgError::NotPositiveDefinite { .. }),
                    "{ea:?}"
                );
                assert_eq!(ea, eb, "pivot at {i}");
            }
            (ra, rb) => panic!("at {i}: {:?} vs {:?}", ra.err(), rb.err()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A family built on a cached leading block is the fresh build, bit
    /// for bit, and the key misses on every change to its material.
    #[test]
    fn cached_leading_blocks_are_bit_identical_and_keyed_by_their_material(
        seed in 0u64..5000,
        k in 0usize..17,
        extra in 4usize..40,
        density in 0.1f64..0.8,
        alpha in 0.05f64..2.0,
    ) {
        let dim = k + extra;
        let g = stieltjes_case(seed, dim, density, 2);
        let (support, free) = random_support(seed, dim, k);
        let mut d = vec![0.0; dim];
        for (j, &b) in support.iter().enumerate() {
            d[b] = if j % 3 == 2 { -alpha } else { alpha * (1.0 + 0.1 * j as f64) };
        }
        let order = random_support(seed ^ 0x5555, dim, dim).0;
        let family = |g: &DenseMatrix, d: &[f64], support: &[usize], order: &[usize],
                      cache: Option<&LeadingBlockCache>| {
            let csr = CsrMatrix::from_dense(g);
            // The network's own pattern, in the same order, so an empty
            // support factors in the order the key names too.
            let network = || Ok(Arc::new(CholeskyPattern::analyse_csr_ordered(&csr, order)?));
            Arc::new(ShiftedCholesky::with_order(&csr, d, support, order, cache, network).unwrap())
        };
        // Currents up to and past λ_m (both families must then refuse with
        // the same pivot).
        let shifts = |g: &DenseMatrix, d: &[f64]| -> Vec<f64> {
            let lambda = if d.iter().any(|&x| x > 0.0) {
                generalized_pd_threshold_dense(g, d, 1e-12, DEFAULT_PROBE_BUDGET)
                    .unwrap()
                    .estimate()
            } else {
                1.0
            };
            [0.0, 0.3, 0.7, 0.95, 1.5].iter().map(|f| f * lambda).collect()
        };

        let cache = LeadingBlockCache::new();
        let first = family(&g, &d, &support, &order, Some(&cache));
        let stored = matches!(first.plan(), FactorPlan::TrailingBlock { .. });
        prop_assert_eq!(cache.built(), usize::from(stored));
        assert_same_family(&first, &family(&g, &d, &support, &order, None), &shifts(&g, &d));

        // Another G_BB and D over the same G_AA and G_AB: a hit (when the
        // rule stored a block), and still the fresh family.
        let mut thicker = g.clone();
        for &b in &support {
            thicker[(b, b)] *= 1.25;
        }
        let d2: Vec<f64> = d.iter().map(|v| 0.8 * v).collect();
        let hit = family(&thicker, &d2, &support, &order, Some(&cache));
        prop_assert_eq!(cache.reused(), usize::from(stored));
        let fresh = family(&thicker, &d2, &support, &order, None);
        assert_same_family(&hit, &fresh, &shifts(&thicker, &d2));
        if !stored {
            return Ok(());
        }

        // Each change to the key material misses.
        let mut misses = Vec::new();
        let mut aa = g.clone();
        aa[(free[0], free[0])] *= 1.01;
        misses.push(("a G_AA entry", aa, d.clone(), support.clone(), order.clone()));
        if let Some((a, b)) = free
            .iter()
            .flat_map(|&a| support.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| g[(a, b)] != 0.0)
        {
            let mut ab = g.clone();
            ab[(a, b)] *= 1.01;
            ab[(b, a)] *= 1.01;
            misses.push(("a G_AB entry", ab, d.clone(), support.clone(), order.clone()));
        }
        let mut moved = support.clone();
        match moved.first_mut() {
            Some(b) => *b = free[0],
            None => moved.push(free[0]),
        }
        let mut d_moved = vec![0.0; dim];
        for &b in &moved {
            d_moved[b] = alpha;
        }
        misses.push(("another support", g.clone(), d_moved, moved, order.clone()));
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        misses.push(("another order", g.clone(), d.clone(), support.clone(), reversed));
        for (what, g, d, support, order) in misses {
            let (built, reused) = (cache.built(), cache.reused());
            let got = family(&g, &d, &support, &order, Some(&cache));
            prop_assert_eq!(cache.reused(), reused, "{} hit", what);
            let fresh = family(&g, &d, &support, &order, None);
            prop_assert_eq!(
                cache.built(),
                built + usize::from(matches!(fresh.plan(), FactorPlan::TrailingBlock { .. })),
                "{}", what
            );
            assert_same_family(&got, &fresh, &shifts(&g, &d));
        }
    }
}

/// A package network for [`package_case`]: `dim` free nodes embedded at
/// random positions among `dim + slots` pattern nodes, the structure of
/// `G_AA` plus random extra entries (on the slot rows and between free
/// nodes) that the placement lacks.
struct PackageCase {
    /// The placed network: `G_AA` on the first `dim` nodes, then the
    /// support.
    g: DenseMatrix,
    d: Vec<f64>,
    support: Vec<usize>,
    /// Pattern node of each placed node (support entries unused).
    nodes: Vec<usize>,
    pattern: Arc<CholeskyPattern>,
}

fn package_case(seed: u64, dim: usize, k: usize, slots: usize, density: f64) -> PackageCase {
    let n = dim + k;
    let g = stieltjes_case(seed, n, density, 2);
    let support: Vec<usize> = (dim..n).collect();
    let mut d = vec![0.0; n];
    for (j, &b) in support.iter().enumerate() {
        d[b] = if j % 2 == 0 { 0.4 } else { -0.4 } * (1.0 + 0.1 * j as f64);
    }
    let m = dim + slots;
    let places = random_support(seed ^ 0xA5A5, m, m).0;
    let mut nodes: Vec<usize> = places[..dim].to_vec();
    nodes.extend(std::iter::repeat_n(places[dim % m.max(1)], k));
    // G_AA's structure at the pattern nodes, then extra entries: each
    // slot joined to a few pattern nodes, and a few free–free pairs.
    let mut t = Vec::new();
    for p in 0..m {
        t.push(Triplet::new(p, p, 1.0));
    }
    for r in 0..dim {
        for c in 0..dim {
            if r != c && g[(r, c)] != 0.0 {
                t.push(Triplet::new(nodes[r], nodes[c], 1.0));
            }
        }
    }
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound.max(1) as u64) as usize
    };
    let extra = |u: usize, v: usize, t: &mut Vec<Triplet>| {
        if u != v {
            t.push(Triplet::new(u, v, 1.0));
            t.push(Triplet::new(v, u, 1.0));
        }
    };
    for &slot in &places[dim..] {
        for _ in 0..3 {
            let other = next(m);
            extra(slot, other, &mut t);
        }
    }
    for _ in 0..dim / 4 {
        let (u, v) = (nodes[next(dim)], nodes[next(dim)]);
        extra(u, v, &mut t);
    }
    let structure = CsrMatrix::from_triplets(m, m, &t).unwrap();
    let pattern = Arc::new(CholeskyPattern::analyse_csr(&structure).unwrap());
    PackageCase {
        g,
        d,
        support,
        nodes,
        pattern,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `G_AA` factored on a package pattern that covers it with decoupled
    /// slots and extra stored zeros, against the exact-pattern build on
    /// the same elimination order and the dense oracle: solves agree to
    /// 1e-12 relative, and definiteness verdicts agree away from `λ_m`.
    #[test]
    fn package_pattern_builds_match_the_exact_pattern_and_dense_oracles(
        seed in 0u64..5000,
        dim in 1usize..36,
        k in 1usize..9,
        slots in 0usize..6,
        density in 0.05f64..0.6,
    ) {
        let case = package_case(seed, dim, k, slots, density);
        let (g, d, support) = (&case.g, &case.d, &case.support);
        let csr = CsrMatrix::from_dense(g);
        let network = || Ok(Arc::new(CholeskyPattern::analyse_csr(&csr)?));
        let package = Arc::new(
            ShiftedCholesky::with_package_pattern(
                &csr, d, support, &case.pattern, &case.nodes, None, network,
            )
            .unwrap(),
        );
        // The exact pattern of G_AA in the package's elimination order.
        let mut placed = vec![usize::MAX; case.pattern.permutation().len()];
        for a in 0..dim {
            placed[case.nodes[a]] = a;
        }
        let order: Vec<usize> = case
            .pattern
            .permutation()
            .iter()
            .filter(|&&p| placed[p] != usize::MAX)
            .map(|&p| placed[p])
            .chain(support.iter().copied())
            .collect();
        let exact = Arc::new(
            ShiftedCholesky::with_order(&csr, d, support, &order, None, network).unwrap(),
        );
        if let FactorPlan::TrailingBlock { .. } = package.plan() {
            prop_assert!(Arc::ptr_eq(package.leading_pattern().unwrap(), &case.pattern));
        }

        let lambda = generalized_pd_threshold_dense(g, d, 1e-12, DEFAULT_PROBE_BUDGET)
            .unwrap()
            .estimate();
        let shifted = |i: f64| {
            let mut m = g.clone();
            m.add_scaled_diagonal(d, -i).unwrap();
            m
        };
        let b: Vec<f64> = (0..dim + k).map(|j| 1.0 + (j as f64 * 0.61).cos()).collect();
        for f in [0.0, 0.5, 0.9, 1.1, 1.5, 4.0] {
            let i = f * lambda;
            let dense = DenseCholesky::factor(&shifted(i));
            prop_assert_eq!(package.is_pd_at(i).unwrap(), dense.is_ok(), "at {} λ_m", f);
            prop_assert_eq!(exact.is_pd_at(i).unwrap(), dense.is_ok(), "at {} λ_m", f);
            let Ok(dense) = dense else { continue };
            let x = package.factor_at(i).unwrap().solve(&b).unwrap();
            let y = exact.factor_at(i).unwrap().solve(&b).unwrap();
            let z = dense.solve(&b).unwrap();
            prop_assert!(rel_err(&x, &y) <= 1e-12, "vs exact: {} at {} λ_m", rel_err(&x, &y), f);
            prop_assert!(rel_err(&x, &z) <= 1e-12, "vs dense: {} at {} λ_m", rel_err(&x, &z), f);
        }
    }
}

#[test]
fn a_g_aa_entry_outside_the_package_pattern_is_a_typed_error() {
    // A chain 0 – 1 – 2 with node 3 on the support, joined to node 0.
    let mut g = DenseMatrix::identity(4);
    for (u, v) in [(0, 1), (1, 2), (0, 3)] {
        g[(u, v)] = -0.2;
        g[(v, u)] = -0.2;
    }
    let csr = CsrMatrix::from_dense(&g);
    let d = [0.0, 0.0, 0.0, 1.0];
    let network = || -> Result<Arc<CholeskyPattern>, LinalgError> { unreachable!() };
    let pattern_of = |pairs: &[(usize, usize)]| {
        let mut t: Vec<Triplet> = (0..4).map(|p| Triplet::new(p, p, 1.0)).collect();
        for &(u, v) in pairs {
            t.push(Triplet::new(u, v, 1.0));
            t.push(Triplet::new(v, u, 1.0));
        }
        Arc::new(
            CholeskyPattern::analyse_csr(&CsrMatrix::from_triplets(4, 4, &t).unwrap()).unwrap(),
        )
    };
    let build = |pattern: &Arc<CholeskyPattern>, nodes: &[usize]| {
        ShiftedCholesky::with_package_pattern(&csr, &d, &[3], pattern, nodes, None, network)
    };
    // Free nodes 0, 1, 2 at pattern nodes 3, 1, 0; pattern node 2 a slot.
    let nodes = [3, 1, 0, 2];
    let covering = pattern_of(&[(3, 1), (1, 0), (2, 3)]);
    assert!(build(&covering, &nodes).is_ok());
    // The pattern lacks G_AA's (1, 2) entry: refused, never dropped.
    let lacking = pattern_of(&[(3, 1), (2, 3)]);
    match build(&lacking, &nodes) {
        Err(LinalgError::InvalidInput(msg)) => assert!(msg.contains("(1, 2)"), "{msg}"),
        other => panic!("expected InvalidInput, got {other:?}"),
    }
    // Two free nodes on one pattern node, a node outside the pattern, and
    // a map of the wrong length are refused too.
    for bad in [&[3, 1, 1, 2][..], &[3, 1, 4, 2], &[3, 1, 0]] {
        assert!(
            matches!(build(&covering, bad), Err(LinalgError::InvalidInput(_))),
            "{bad:?}"
        );
    }
}
