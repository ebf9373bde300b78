//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use tecopt_linalg::eigen::{
    generalized_pd_threshold, generalized_pd_threshold_dense, DEFAULT_PROBE_BUDGET,
};
use tecopt_linalg::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};
use tecopt_linalg::{
    conjugate_gradient, determinant, CgSettings, Cholesky, CsrMatrix, DenseMatrix, Lu, Triplet,
};

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
        let t = generalized_pd_threshold(&g, &d, 1e-12).unwrap();
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
        let t = generalized_pd_threshold(&g, &d, 1e-9).unwrap();
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
        let t = generalized_pd_threshold(&g, &d, tol).unwrap();
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
    fn solve_robust_is_total_on_near_singular_blends(
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
        match tecopt_linalg::solve_robust(&a, &b, &tecopt_linalg::SolverPolicy::default()) {
            Ok(sol) => {
                // Accepted solutions must actually satisfy the system to the
                // policy's residual tolerance.
                let r = a.mul_vec(&sol.x).unwrap();
                let scale: f64 = b.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0)
                    + a.max_abs() * sol.x.iter().map(|x| x.abs()).fold(0.0, f64::max);
                for (ri, bi) in r.iter().zip(&b) {
                    prop_assert!((ri - bi).abs() <= 1e-4 * scale);
                }
            }
            Err(e) => {
                // Degenerate inputs fail with the documented variants only.
                prop_assert!(matches!(
                    e,
                    tecopt_linalg::LinalgError::NotPositiveDefinite { .. }
                        | tecopt_linalg::LinalgError::Singular { .. }
                        | tecopt_linalg::LinalgError::IllConditioned { .. }
                        | tecopt_linalg::LinalgError::NoConvergence { .. }
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
        match tecopt_linalg::eigen::generalized_pd_threshold_budgeted(&g, &d, tol, 512) {
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
