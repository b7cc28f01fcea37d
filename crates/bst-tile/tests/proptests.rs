//! Property tests for tilings, GEMM kernels and low-rank compression.

use bst_tile::gemm::{gemm_blocked, gemm_naive, gemm_simd_on, Isa};
use bst_tile::kernel::{select_heuristic, KernelKind};
use bst_tile::{Tile, Tiling};
use proptest::prelude::*;

/// `‖a − b‖_F` by element (works for any representation mix).
fn frob_diff(a: &Tile, b: &Tile) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let mut s = 0.0;
    for c in 0..a.cols() {
        for r in 0..a.rows() {
            let d = a.get(r, c) - b.get(r, c);
            s += d * d;
        }
    }
    s.sqrt()
}

/// Dimension generator biased to the adversarial edges of the kernels'
/// blocking parameters: degenerate (1..5), around the 8- and 16-row
/// micro-tiles (7..9, 15..17), around the cache block (63..66), and past
/// it (127..130).
fn ragged_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=5,
        7usize..=9,
        15usize..=17,
        63usize..=66,
        127usize..=130
    ]
}

/// Every SIMD tier this host can run, the scalar fallback included.
fn supported_tiers() -> impl Iterator<Item = Isa> {
    Isa::ALL.into_iter().filter(|isa| isa.supported())
}

proptest! {
    /// Every kernel variant — including each SIMD tier the host supports
    /// and whatever dispatch selects — matches `gemm_naive` on
    /// ragged/adversarial shapes and alphas including 0 and negative.
    #[test]
    fn all_kernel_variants_match_naive_on_ragged_shapes(
        m in ragged_dim(),
        n in ragged_dim(),
        k in ragged_dim(),
        alpha in prop_oneof![Just(0.0f64), Just(1.0f64), Just(-2.5f64)],
        seed in 0u64..1000,
    ) {
        let a = Tile::random(m, k, seed);
        let b = Tile::random(k, n, seed ^ 1);
        let c0 = Tile::random(m, n, seed ^ 2);
        let mut reference = c0.clone();
        gemm_naive(alpha, &a, &b, &mut reference);
        for kind in KernelKind::ALL {
            let mut c = c0.clone();
            kind.run(alpha, &a, &b, &mut c);
            prop_assert!(
                reference.max_abs_diff(&c) < 1e-10,
                "{} diverged from naive at {}x{}x{} alpha={}",
                kind.name(), m, n, k, alpha
            );
        }
        for isa in supported_tiers() {
            let mut c = c0.clone();
            gemm_simd_on(isa, alpha, &a, &b, &mut c);
            prop_assert!(
                reference.max_abs_diff(&c) < 1e-10,
                "{} tier diverged from naive at {}x{}x{} alpha={}",
                isa.name(), m, n, k, alpha
            );
        }
        // Dispatch never changes results either.
        let mut c = c0.clone();
        select_heuristic(m, n, k).run(alpha, &a, &b, &mut c);
        prop_assert!(reference.max_abs_diff(&c) < 1e-10);
    }

    /// All kernels agree with the naive reference for arbitrary shapes.
    #[test]
    fn kernels_agree(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        alpha in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let a = Tile::random(m, k, seed);
        let b = Tile::random(k, n, seed ^ 1);
        let c0 = Tile::random(m, n, seed ^ 2);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm_naive(alpha, &a, &b, &mut c1);
        gemm_blocked(alpha, &a, &b, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10);
        for isa in supported_tiers() {
            let mut c3 = c0.clone();
            gemm_simd_on(isa, alpha, &a, &b, &mut c3);
            prop_assert!(c1.max_abs_diff(&c3) < 1e-10, "{} tier", isa.name());
        }
    }

    /// GEMM is linear in alpha: C(2a) - C(a) == C(a) - C(0).
    #[test]
    fn gemm_linear_in_alpha(
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..16,
        seed in 0u64..1000,
    ) {
        let a = Tile::random(m, k, seed);
        let b = Tile::random(k, n, seed ^ 1);
        let mut c1 = Tile::zeros(m, n);
        let mut c2 = Tile::zeros(m, n);
        gemm_blocked(1.0, &a, &b, &mut c1);
        gemm_blocked(2.0, &a, &b, &mut c2);
        let mut twice = c1.clone();
        twice.add_assign(&c1);
        prop_assert!(twice.max_abs_diff(&c2) < 1e-9);
    }

    /// from_sizes preserves sizes; tile_of inverts offsets.
    #[test]
    fn tiling_roundtrip(sizes in prop::collection::vec(1u64..50, 1..30)) {
        let t = Tiling::from_sizes(&sizes);
        prop_assert_eq!(t.num_tiles(), sizes.len());
        prop_assert_eq!(t.extent(), sizes.iter().sum::<u64>());
        let got: Vec<u64> = t.sizes().collect();
        prop_assert_eq!(&got, &sizes);
        for ti in 0..t.num_tiles() {
            // First and last element of each tile map back to it.
            prop_assert_eq!(t.tile_of(t.offset(ti)), ti);
            prop_assert_eq!(t.tile_of(t.offset(ti) + t.size(ti) - 1), ti);
        }
    }

    /// Every element belongs to exactly one tile (tile_of is total and
    /// monotone).
    #[test]
    fn tile_of_monotone(sizes in prop::collection::vec(1u64..20, 1..15)) {
        let t = Tiling::from_sizes(&sizes);
        let mut last = 0usize;
        for e in 0..t.extent() {
            let ti = t.tile_of(e);
            prop_assert!(ti == last || ti == last + 1);
            prop_assert!(t.offset(ti) <= e && e < t.offset(ti) + t.size(ti));
            last = ti;
        }
    }

    /// Fusing multiplies extents and tile counts.
    #[test]
    fn fuse_properties(
        a in prop::collection::vec(1u64..10, 1..8),
        b in prop::collection::vec(1u64..10, 1..8),
    ) {
        let ta = Tiling::from_sizes(&a);
        let tb = Tiling::from_sizes(&b);
        let f = ta.fuse(&tb);
        prop_assert_eq!(f.extent(), ta.extent() * tb.extent());
        prop_assert_eq!(f.num_tiles(), ta.num_tiles() * tb.num_tiles());
    }

    /// random_in_range covers the extent with in-range tiles.
    #[test]
    fn random_tiling_in_range(extent in 100u64..5000, seed in 0u64..100) {
        let t = Tiling::random_in_range(extent, 10, 40, seed);
        prop_assert_eq!(t.extent(), extent);
        for s in t.sizes() {
            prop_assert!(s >= 5, "sliver {s}");
            prop_assert!(s <= 80, "giant {s}");
        }
    }

    /// Whenever compression succeeds, the reconstruction satisfies the
    /// truncation contract `‖T − U·Vᵀ‖_F ≤ tol·‖T‖_F` and the factors
    /// strictly beat dense storage.
    #[test]
    fn compression_roundtrip_respects_tolerance(
        rows in 16usize..48,
        cols in 16usize..48,
        seed in 0u64..500,
        decay in prop_oneof![Just(1.5f64), Just(2.0f64), Just(2.5f64)],
        tol in prop_oneof![Just(1e-2f64), Just(1e-3f64)],
    ) {
        let t = Tile::random_lowrank(rows, cols, seed, decay);
        if let Some(lr) = t.compressed(tol) {
            prop_assert!(!lr.is_dense());
            prop_assert!(lr.stored_bytes() < t.stored_bytes(), "unprofitable factors kept");
            let bound = tol * t.frobenius_norm() * (1.0 + 1e-12);
            let err = frob_diff(&t, &lr);
            prop_assert!(err <= bound, "residual {err:.3e} above bound {bound:.3e}");
        }
    }

    /// Rank-aware GEMM agrees with the dense reference for every operand
    /// representation mix, within the error the truncations themselves
    /// introduce.
    #[test]
    fn lowrank_gemm_agrees_with_dense(
        m in 16usize..40,
        k in 16usize..40,
        n in 16usize..40,
        seed in 0u64..200,
    ) {
        let tol = 1e-3;
        let a = Tile::random_lowrank(m, k, seed, 2.0);
        let b = Tile::random_lowrank(k, n, seed ^ 1, 2.0);
        let a_lr = a.compressed(tol).unwrap_or_else(|| a.clone());
        let b_lr = b.compressed(tol).unwrap_or_else(|| b.clone());
        let mut reference = Tile::zeros(m, n);
        gemm_naive(1.0, &a, &b, &mut reference);
        // Truncating each operand perturbs the product by at most
        // tol·(‖A‖‖B‖) per side (plus cross terms) — 3x covers it, 10x
        // leaves slack for accumulation order.
        let bound = 10.0 * tol * a.frobenius_norm() * b.frobenius_norm();
        for (lhs, rhs) in [(&a_lr, &b), (&a, &b_lr), (&a_lr, &b_lr)] {
            for kind in [KernelKind::Blocked, KernelKind::Simd] {
                let mut c = Tile::zeros(m, n);
                kind.run(1.0, lhs, rhs, &mut c);
                let err = frob_diff(&reference, &c);
                prop_assert!(err <= bound, "mixed-repr {} GEMM drifted {err:.3e} > {bound:.3e}", kind.name());
            }
        }
    }

    /// A tile that is *exactly* rank `r` is recovered with rank ≤ r and
    /// near-machine-precision reconstruction.
    #[test]
    fn exact_rank_is_recovered(
        rows in 20usize..48,
        cols in 20usize..48,
        r in 1usize..4,
        seed in 0u64..200,
    ) {
        // Sum of r outer products of random vectors.
        let mut t = Tile::zeros(rows, cols);
        for p in 0..r {
            let x = Tile::random(rows, 1, seed.wrapping_add(p as u64 * 2 + 1));
            let y = Tile::random(cols, 1, seed.wrapping_add(p as u64 * 2 + 2));
            for c in 0..cols {
                for rr in 0..rows {
                    *t.get_mut(rr, c) += x.get(rr, 0) * y.get(c, 0);
                }
            }
        }
        let lr = t.compressed(1e-10).expect("exact low rank must compress");
        prop_assert!(lr.rank().unwrap() <= r, "rank {:?} > true rank {r}", lr.rank());
        let err = frob_diff(&t, &lr);
        prop_assert!(err <= 1e-8 * t.frobenius_norm().max(1.0));
    }
}
