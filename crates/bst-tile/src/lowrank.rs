//! Rank-revealing tile compression and rank-aware GEMM routing.
//!
//! [`compress`] is the truncation kernel behind [`Tile::compressed`]: a
//! column-pivoted modified-Gram-Schmidt QR that stops once the residual
//! Frobenius norm drops to `tol · ‖T‖_F`, yielding `T ≈ U·Vᵀ` with
//! `U = Q` (`rows × r`) and `V` the pivot-ordered coefficient rows
//! (`cols × r`). Compression is attempted only when it pays: the factors
//! must occupy strictly fewer bytes than the dense buffer, else the tile
//! stays dense.
//!
//! [`gemm_lowrank`] decomposes a product with low-rank operands into dense
//! sub-GEMMs executed by the *selected* dense kernel (so
//! [`KernelKind`] dispatch still governs the
//! heavy inner products) plus small factor contractions:
//!
//! * `LR × dense` — `C += U_a · (V_aᵀ·B)`;
//! * `dense × LR` — `C += (A·U_b) · V_bᵀ`;
//! * `LR × LR` — the middle matrix `M = V_aᵀ·U_b` (`r_a × r_b`) is formed
//!   first and, when a tolerance is given, **re-compressed** (`M ≈ P·Qᵀ`),
//!   so the applied product `(U_a·P)·(V_b·Q)ᵀ` carries the smallest rank
//!   the tolerance admits.
//!
//! The accumulator `C` is always dense — partial products add, and sums of
//! low-rank terms grow rank without bound, so re-compression happens on
//! operands, never on accumulators.

use crate::kernel::KernelKind;
use crate::tile::Tile;

/// Rank-revealing truncation of a dense column-major `rows × cols` buffer
/// at relative Frobenius tolerance `tol`.
///
/// Returns `Some((u, v, rank))` with `‖T − U·Vᵀ‖_F ≤ tol·‖T‖_F` when the
/// truncation converges at a profitable rank (factor bytes strictly below
/// dense bytes); `None` when `tol <= 0.0` or the tile is effectively
/// full-rank at this tolerance. An exactly-zero tile truncates to rank 0.
///
/// The pivot rule is greedy on exact residual column norms (recomputed
/// during each deflation, so the stopping criterion never drifts): pick the
/// largest residual column, normalise it into `Q`, deflate every column by
/// its projection, repeat.
pub fn compress(rows: usize, cols: usize, data: &[f64], tol: f64) -> Option<(Vec<f64>, Vec<f64>, usize)> {
    assert_eq!(data.len(), rows * cols);
    if tol <= 0.0 {
        return None;
    }
    // Strictly fewer stored elements than dense, or compression is a loss.
    let max_profitable = (rows * cols).saturating_sub(1) / (rows + cols);
    let mut w = data.to_vec();
    let mut norms2: Vec<f64> = (0..cols)
        .map(|j| w[j * rows..(j + 1) * rows].iter().map(|x| x * x).sum())
        .collect();
    let total2: f64 = norms2.iter().sum();
    let thresh2 = tol * tol * total2;
    let mut u = Vec::new();
    let mut v = Vec::new();
    let mut rank = 0usize;
    let mut rem2 = total2;
    let mut q = vec![0.0; rows];
    while rem2 > thresh2 {
        if rank >= max_profitable {
            return None; // reaching tol would cost more than dense storage
        }
        let (jmax, &nm2) = norms2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("cols > 0");
        if nm2 <= 0.0 {
            break; // numerically exhausted: residual is zero columns
        }
        let inv = 1.0 / nm2.sqrt();
        for (qe, &we) in q.iter_mut().zip(&w[jmax * rows..(jmax + 1) * rows]) {
            *qe = we * inv;
        }
        rem2 = 0.0;
        for j in 0..cols {
            let col = &mut w[j * rows..(j + 1) * rows];
            let c: f64 = col.iter().zip(&q).map(|(x, qi)| x * qi).sum();
            let mut n2 = 0.0;
            for (x, &qi) in col.iter_mut().zip(&q) {
                *x -= c * qi;
                n2 += *x * *x;
            }
            norms2[j] = n2;
            rem2 += n2;
            v.push(c); // V column `rank` fills in j-order: column-major
        }
        u.extend_from_slice(&q);
        rank += 1;
    }
    Some((u, v, rank))
}

/// `W[r×n] = Vᵀ·B` where `v` is `k × r` column-major and `b` is a dense
/// `k × n` buffer — both sides are read as contiguous column dot products.
fn factor_t_times_dense(v: &[f64], r: usize, k: usize, b: &[f64], n: usize) -> Vec<f64> {
    let mut w = vec![0.0; r * n];
    for j in 0..n {
        let bj = &b[j * k..(j + 1) * k];
        let wj = &mut w[j * r..(j + 1) * r];
        for (p, we) in wj.iter_mut().enumerate() {
            let vp = &v[p * k..(p + 1) * k];
            *we = vp.iter().zip(bj).map(|(a, b)| a * b).sum();
        }
    }
    w
}

/// Transposes a `rows × r` column-major factor into an `r × rows`
/// column-major buffer (so `X·Vᵀ` runs through a plain dense kernel).
fn transpose_factor(v: &[f64], rows: usize, r: usize) -> Vec<f64> {
    let mut t = vec![0.0; r * rows];
    for p in 0..r {
        for j in 0..rows {
            t[j * r + p] = v[p * rows + j];
        }
    }
    t
}

/// `C ← alpha·A·B + C` where at least one operand is low-rank, decomposed
/// into dense sub-GEMMs run by `kind`. `tol > 0.0` enables re-compression
/// of the `LR × LR` middle matrix at that tolerance. A rank-0 operand
/// contributes nothing and returns immediately.
///
/// # Panics
/// Panics if `c` is not dense, or on inner-dimension mismatch.
pub fn gemm_lowrank(kind: KernelKind, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile, tol: f64) {
    assert!(c.is_dense(), "GEMM accumulators must be dense");
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let func = kind.func();
    match (a.factors(), b.factors()) {
        (Some((ua, va, ra)), None) => {
            if ra == 0 {
                return;
            }
            // C += U_a · (V_aᵀ·B)
            let w = factor_t_times_dense(va, ra, k, b.data(), n);
            let ua_t = Tile::from_data(m, ra, ua.to_vec());
            let w_t = Tile::from_data(ra, n, w);
            func(alpha, &ua_t, &w_t, c);
        }
        (None, Some((ub, vb, rb))) => {
            if rb == 0 {
                return;
            }
            // C += (A·U_b) · V_bᵀ
            let ub_t = Tile::from_data(k, rb, ub.to_vec());
            let mut w = Tile::zeros(m, rb);
            func(1.0, a, &ub_t, &mut w);
            let vbt = Tile::from_data(rb, n, transpose_factor(vb, n, rb));
            func(alpha, &w, &vbt, c);
        }
        (Some((ua, va, ra)), Some((ub, vb, rb))) => {
            if ra == 0 || rb == 0 {
                return;
            }
            // M = V_aᵀ·U_b (r_a × r_b), then re-compress when a tolerance
            // is given: M ≈ P·Qᵀ lets the applied rank drop below
            // min(r_a, r_b) when the factor products overlap weakly.
            let mid = factor_t_times_dense(va, ra, k, ub, rb);
            if let Some((p, q, rm)) = if tol > 0.0 { compress(ra, rb, &mid, tol) } else { None } {
                if rm == 0 {
                    return;
                }
                // U' = U_a·P (m × rm), V' = V_b·Q (n × rm); C += α·U'·V'ᵀ.
                let ua_t = Tile::from_data(m, ra, ua.to_vec());
                let p_t = Tile::from_data(ra, rm, p);
                let mut uprime = Tile::zeros(m, rm);
                func(1.0, &ua_t, &p_t, &mut uprime);
                let vb_t = Tile::from_data(n, rb, vb.to_vec());
                let q_t = Tile::from_data(rb, rm, q);
                let mut vprime = Tile::zeros(n, rm);
                func(1.0, &vb_t, &q_t, &mut vprime);
                let vpt = Tile::from_data(rm, n, transpose_factor(vprime.data(), n, rm));
                func(alpha, &uprime, &vpt, c);
            } else {
                // Exact path: C += α·(U_a·M)·V_bᵀ.
                let ua_t = Tile::from_data(m, ra, ua.to_vec());
                let mid_t = Tile::from_data(ra, rb, mid);
                let mut w = Tile::zeros(m, rb);
                func(1.0, &ua_t, &mid_t, &mut w);
                let vbt = Tile::from_data(rb, n, transpose_factor(vb, n, rb));
                func(alpha, &w, &vbt, c);
            }
        }
        (None, None) => func(alpha, a, b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn lr(t: &Tile, tol: f64) -> Tile {
        t.compressed(tol).expect("tile should compress")
    }

    #[test]
    fn compress_roundtrip_within_tol() {
        for &(m, n, seed, decay) in &[(16usize, 24usize, 1u64, 1.5), (30, 10, 2, 2.0), (12, 12, 3, 2.5)] {
            let t = Tile::random_lowrank(m, n, seed, decay);
            let tol = 1e-3;
            let c = lr(&t, tol);
            let err = c.max_abs_diff(&t);
            let rel = {
                let d = c.to_dense();
                let mut diff = d.clone();
                diff.scale(-1.0);
                diff.add_assign(&t);
                diff.frobenius_norm() / t.frobenius_norm()
            };
            assert!(rel <= tol, "relative error {rel} > {tol} ({m}x{n})");
            assert!(err.is_finite());
        }
    }

    #[test]
    fn exact_rank_recovers_rank() {
        // Rank-2 tile built explicitly: two outer products.
        let m = 12;
        let n = 9;
        let mut data = vec![0.0; m * n];
        for (p, scale) in [(1u64, 1.0), (2, 0.5)] {
            let x = Tile::random(m, 1, p);
            let y = Tile::random(n, 1, p ^ 0xF00);
            for c in 0..n {
                for r in 0..m {
                    data[c * m + r] += scale * x.get(r, 0) * y.get(c, 0);
                }
            }
        }
        let t = Tile::from_data(m, n, data);
        let c = lr(&t, 1e-10);
        assert_eq!(c.rank(), Some(2));
        assert!(c.max_abs_diff(&t) < 1e-9);
    }

    #[test]
    fn zero_tile_truncates_to_rank_zero() {
        let z = Tile::zeros(6, 7);
        let c = z.compressed(1e-8).expect("zero tile compresses");
        assert_eq!(c.rank(), Some(0));
        assert_eq!(c.stored_bytes(), 0);
    }

    #[test]
    fn full_rank_tile_stays_dense() {
        // A random tile is (numerically) full rank: at a tight tolerance
        // the factors would cost more than dense storage.
        assert!(Tile::random(16, 16, 5).compressed(1e-12).is_none());
    }

    #[test]
    fn lowrank_gemm_matches_dense_paths() {
        let m = 24;
        let k = 28;
        let n = 20;
        let tol = 1e-6;
        let a_d = Tile::random_lowrank(m, k, 21, 1.5);
        let b_d = Tile::random_lowrank(k, n, 22, 1.5);
        let a_l = lr(&a_d, tol);
        let b_l = lr(&b_d, tol);
        let mut c_ref = Tile::zeros(m, n);
        gemm_naive(1.5, &a_d, &b_d, &mut c_ref);
        for (a, b) in [(&a_l, &b_d), (&a_d, &b_l), (&a_l, &b_l)] {
            for kind in [KernelKind::Blocked, KernelKind::Simd] {
                let mut c = Tile::zeros(m, n);
                gemm_lowrank(kind, 1.5, a, b, &mut c, tol);
                let diff = c.max_abs_diff(&c_ref);
                assert!(diff < 1e-4, "diff {diff} for reprs ({}, {})", a.is_dense(), b.is_dense());
            }
            // The same decomposition through the SIMD kernel and through
            // the naive reference agree to rounding.
            let mut c_naive = Tile::zeros(m, n);
            let mut c_simd = Tile::zeros(m, n);
            gemm_lowrank(KernelKind::Naive, 1.5, a, b, &mut c_naive, 0.0);
            gemm_lowrank(KernelKind::Simd, 1.5, a, b, &mut c_simd, 0.0);
            assert!(c_simd.max_abs_diff(&c_naive) < 1e-10);
        }
    }

    #[test]
    fn rank_zero_operand_is_a_noop() {
        let z = Tile::from_factors(4, 5, vec![], vec![], 0);
        let b = Tile::random(5, 3, 1);
        let mut c = Tile::random(4, 3, 2);
        let before = c.clone();
        gemm_lowrank(KernelKind::Naive, 1.0, &z, &b, &mut c, 0.0);
        assert!(c.max_abs_diff(&before) == 0.0);
    }
}
