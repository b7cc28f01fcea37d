//! `C += A * B` kernels on dense tiles.
//!
//! Three implementations with identical semantics:
//!
//! * [`gemm_naive`] — triple loop, the correctness reference;
//! * [`gemm_blocked`] — cache-blocked scalar loop with a column-major
//!   friendly loop order: the comparison baseline, and the fallback tier of
//!   [`gemm_simd`];
//! * [`gemm_simd`] — one `std::arch` FMA micro-kernel family working on the
//!   column-major tiles in place, at the widest [`Isa`] tier the host
//!   supports (AVX-512F 16×4, AVX2 8×4, else scalar), chosen by run-time
//!   feature detection. This is the small-matrix-kernel design of DBCSR's
//!   libsmm/libxsmm backends: one register-blocked kernel, no variants to
//!   pick between.
//!
//! All kernels compute `C ← alpha * A * B + C` (no fused scaling of C; the
//! paper's contraction uses `beta = 1` accumulation). They differ only in
//! summation order, so their results agree to rounding, not bit for bit;
//! each one is deterministic on a given host.

use crate::tile::Tile;

/// Cache block edge for the blocked kernel, sized so three blocks fit in L1.
const BLOCK: usize = 64;

/// Returns the flop count of a GEMM of the given shape (2·m·n·k).
#[inline]
pub fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

fn check_shapes(c: &Tile, a: &Tile, b: &Tile) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C rows != A rows");
    assert_eq!(c.cols(), b.cols(), "C cols != B cols");
}

/// Reference triple-loop kernel: `C += alpha * A * B`.
pub fn gemm_naive(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    let (m, n, kk) = (a.rows(), b.cols(), a.cols());
    for j in 0..n {
        for l in 0..kk {
            let blj = alpha * b.get(l, j);
            if blj == 0.0 {
                continue;
            }
            for i in 0..m {
                *c.get_mut(i, j) += a.get(i, l) * blj;
            }
        }
    }
}

/// Cache-blocked kernel: `C += alpha * A * B`.
///
/// Operates on raw column-major slices to let the optimiser vectorise the
/// innermost (contiguous) loop over rows.
pub fn gemm_blocked(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    let (m, n, kk) = (a.rows(), b.cols(), a.cols());
    let (ad, bd) = (a.data(), b.data());
    let cd = c.data_mut();
    gemm_blocked_raw(alpha, m, n, kk, ad, bd, cd);
}

/// Blocked kernel on raw column-major buffers; `cd` has leading dimension `m`.
fn gemm_blocked_raw(alpha: f64, m: usize, n: usize, kk: usize, ad: &[f64], bd: &[f64], cd: &mut [f64]) {
    for jb in (0..n).step_by(BLOCK) {
        let jend = (jb + BLOCK).min(n);
        for lb in (0..kk).step_by(BLOCK) {
            let lend = (lb + BLOCK).min(kk);
            for j in jb..jend {
                let ccol = &mut cd[j * m..(j + 1) * m];
                for l in lb..lend {
                    let blj = alpha * bd[j * kk + l];
                    if blj == 0.0 {
                        continue;
                    }
                    let acol = &ad[l * m..(l + 1) * m];
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
        }
    }
}

/// Cache-block edges of the SIMD kernel over `k` and `j`: tiles up to 64 in
/// those dimensions run as one block. Past that, a 64-deep A micro-panel
/// (8 KiB at 16 rows) stays in L1 while it sweeps a 64 × 64 B block
/// (32 KiB).
const KC: usize = 64;
const NC: usize = 64;

/// Register micro-tile width in columns, shared by every vector tier.
const NR: usize = 4;

/// The instruction-set tier [`gemm_simd`] runs on, detected at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F: a 16 × 4 micro-tile, two zmm accumulators per column.
    Avx512,
    /// AVX2 + FMA: an 8 × 4 micro-tile, two ymm accumulators per column.
    Avx2,
    /// No vector FMA: the scalar [`gemm_blocked`] loop.
    Scalar,
}

impl Isa {
    /// Every tier, widest first.
    pub const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Scalar];

    /// The widest tier this host supports. The standard library caches the
    /// CPUID query, so this costs a few loads per call.
    pub fn detected() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Scalar)
    }

    /// Whether this host can run the tier.
    pub fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Isa::Scalar => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }
}

/// SIMD FMA kernel: `C += alpha * A * B` on the widest tier the host
/// supports ([`Isa::detected`]).
pub fn gemm_simd(alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    gemm_simd_on(Isa::detected(), alpha, a, b, c);
}

/// [`gemm_simd`] on an explicit tier, so tests can hold every tier the host
/// supports to the reference.
///
/// The register micro-kernel reads the column-major tiles in place: no
/// packing, ragged row tails use masked loads and stores, ragged column
/// tails a narrower micro-tile. `alpha` scales each micro-tile's
/// accumulators once, in the fused update of C.
///
/// # Panics
/// Panics on a shape mismatch, or if the host does not support `isa`.
pub fn gemm_simd_on(isa: Isa, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
    check_shapes(c, a, b);
    assert!(
        isa.supported(),
        "{} kernel on a host without it",
        isa.name()
    );
    if alpha == 0.0 {
        return;
    }
    let (m, n, kk) = (a.rows(), b.cols(), a.cols());
    let (ad, bd) = (a.data(), b.data());
    let cd = c.data_mut();
    match isa {
        // SAFETY: the assert above checked the host supports AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { x86::gemm_avx512(alpha, m, n, kk, ad, bd, cd) },
        // SAFETY: the assert above checked the host supports AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::gemm_avx2(alpha, m, n, kk, ad, bd, cd) },
        _ => gemm_blocked_raw(alpha, m, n, kk, ad, bd, cd),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX-512 and AVX2 micro-kernels and their cache-blocked drivers.

    use super::{KC, NC, NR};
    use std::arch::x86_64::*;

    /// The loop nest shared by both tiers: `j` and `k` in cache blocks,
    /// then `MR`-row by `NR`-column micro-tiles. `tile(rows, cols, kc,
    /// a, b, c)` gets the micro-tile's operand offsets into the column-major
    /// buffers; `rows ≤ MR` and `cols ≤ NR` are clipped at the edges.
    ///
    /// # Panics
    /// Panics unless the buffers hold `m × kk`, `kk × n` and `m × n`
    /// matrices, which is the bound every offset passed to `tile` obeys.
    #[inline(always)]
    fn drive<const MR: usize>(
        m: usize,
        n: usize,
        kk: usize,
        lens: (usize, usize, usize),
        mut tile: impl FnMut(usize, usize, usize, usize, usize, usize),
    ) {
        assert_eq!(
            lens,
            (m * kk, kk * n, m * n),
            "operand buffer length mismatch"
        );
        for jb in (0..n).step_by(NC) {
            let jend = (jb + NC).min(n);
            for lb in (0..kk).step_by(KC) {
                let kc = KC.min(kk - lb);
                for i0 in (0..m).step_by(MR) {
                    for j0 in (jb..jend).step_by(NR) {
                        let (rows, cols) = (MR.min(m - i0), NR.min(jend - j0));
                        tile(rows, cols, kc, lb * m + i0, j0 * kk + lb, j0 * m + i0);
                    }
                }
            }
        }
    }

    /// `C += alpha·A·B` with the 16 × 4 AVX-512F micro-kernel.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_avx512(
        alpha: f64,
        m: usize,
        n: usize,
        kk: usize,
        ad: &[f64],
        bd: &[f64],
        cd: &mut [f64],
    ) {
        let lens = (ad.len(), bd.len(), cd.len());
        let (ap, bp, cp) = (ad.as_ptr(), bd.as_ptr(), cd.as_mut_ptr());
        drive::<16>(m, n, kk, lens, |rows, cols, kc, ao, bo, co| {
            // SAFETY: `drive` checked the buffer lengths; the micro-tile at
            // these offsets covers rows `< m`, columns `< n` and depth
            // `< kk`, so each pointer addresses the in-bounds block
            // `tile16` reads or writes.
            unsafe {
                let (a, b, c) = (ap.add(ao), bp.add(bo), cp.add(co));
                match cols {
                    4 => tile16::<4>(alpha, rows, kc, a, m, b, kk, c),
                    3 => tile16::<3>(alpha, rows, kc, a, m, b, kk, c),
                    2 => tile16::<2>(alpha, rows, kc, a, m, b, kk, c),
                    _ => tile16::<1>(alpha, rows, kc, a, m, b, kk, c),
                }
            }
        });
    }

    /// `C[..rows, ..COLS] += alpha · A[..rows, ..kc] · B[..kc, ..COLS]`,
    /// sixteen rows as two zmm registers per column. Lanes at or past
    /// `rows` are masked off, so they are neither read nor written.
    ///
    /// # Safety
    /// The host supports AVX-512F. `rows ≤ 16`. For every column `l < kc`
    /// the `rows` elements at `a + l·lda` are readable; for every column
    /// `j < COLS` the `kc` elements at `b + j·ldb` are readable and the
    /// `rows` elements at `c + j·ldc` are writable (`ldc = lda`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile16<const COLS: usize>(
        alpha: f64,
        rows: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        c: *mut f64,
    ) {
        let lo = ((1u32 << rows.min(8)) - 1) as __mmask8;
        let hi = ((1u32 << rows.saturating_sub(8)) - 1) as __mmask8;
        let mut acc = [[_mm512_setzero_pd(); 2]; COLS];
        for l in 0..kc {
            // SAFETY (all raw accesses below): the caller's contract; the
            // upper half's pointer may lie past the allocation when
            // `rows ≤ 8`, hence `wrapping_add`, but then its mask is 0 and
            // the masked load touches no memory.
            let ap = unsafe { a.add(l * lda) };
            let a0 = unsafe { _mm512_maskz_loadu_pd(lo, ap) };
            let a1 = unsafe { _mm512_maskz_loadu_pd(hi, ap.wrapping_add(8)) };
            for (j, accj) in acc.iter_mut().enumerate() {
                let bv = _mm512_set1_pd(unsafe { *b.add(j * ldb + l) });
                accj[0] = _mm512_fmadd_pd(a0, bv, accj[0]);
                accj[1] = _mm512_fmadd_pd(a1, bv, accj[1]);
            }
        }
        let av = _mm512_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            // SAFETY: as above, with `c` in place of `a`.
            unsafe {
                let c0 = c.add(j * lda);
                let c1 = c0.wrapping_add(8);
                let v0 = _mm512_fmadd_pd(av, accj[0], _mm512_maskz_loadu_pd(lo, c0));
                let v1 = _mm512_fmadd_pd(av, accj[1], _mm512_maskz_loadu_pd(hi, c1));
                _mm512_mask_storeu_pd(c0, lo, v0);
                _mm512_mask_storeu_pd(c1, hi, v1);
            }
        }
    }

    /// `C += alpha·A·B` with the 8 × 4 AVX2 + FMA micro-kernel.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gemm_avx2(
        alpha: f64,
        m: usize,
        n: usize,
        kk: usize,
        ad: &[f64],
        bd: &[f64],
        cd: &mut [f64],
    ) {
        let lens = (ad.len(), bd.len(), cd.len());
        let (ap, bp, cp) = (ad.as_ptr(), bd.as_ptr(), cd.as_mut_ptr());
        drive::<8>(m, n, kk, lens, |rows, cols, kc, ao, bo, co| {
            // SAFETY: as in `gemm_avx512`, for the 8-row micro-tile.
            unsafe {
                let (a, b, c) = (ap.add(ao), bp.add(bo), cp.add(co));
                match (rows == 8, cols) {
                    (true, 4) => tile8::<4, true>(alpha, rows, kc, a, m, b, kk, c),
                    (true, 3) => tile8::<3, true>(alpha, rows, kc, a, m, b, kk, c),
                    (true, 2) => tile8::<2, true>(alpha, rows, kc, a, m, b, kk, c),
                    (true, _) => tile8::<1, true>(alpha, rows, kc, a, m, b, kk, c),
                    (false, 4) => tile8::<4, false>(alpha, rows, kc, a, m, b, kk, c),
                    (false, 3) => tile8::<3, false>(alpha, rows, kc, a, m, b, kk, c),
                    (false, 2) => tile8::<2, false>(alpha, rows, kc, a, m, b, kk, c),
                    (false, _) => tile8::<1, false>(alpha, rows, kc, a, m, b, kk, c),
                }
            }
        });
    }

    /// Loads four lanes at `p`: plain when `FULL`, else only the lanes whose
    /// `mask` sign bit is set (the others read as zero, touching no memory).
    ///
    /// # Safety
    /// AVX2; every selected lane of `p` is readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4<const FULL: bool>(p: *const f64, mask: __m256i) -> __m256d {
        // SAFETY: the caller's contract.
        unsafe {
            if FULL {
                _mm256_loadu_pd(p)
            } else {
                _mm256_maskload_pd(p, mask)
            }
        }
    }

    /// Stores the `mask`-selected lanes of `v` at `p` (all lanes when `FULL`).
    ///
    /// # Safety
    /// AVX2; every selected lane of `p` is writable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4<const FULL: bool>(p: *mut f64, mask: __m256i, v: __m256d) {
        // SAFETY: the caller's contract.
        unsafe {
            if FULL {
                _mm256_storeu_pd(p, v)
            } else {
                _mm256_maskstore_pd(p, mask, v)
            }
        }
    }

    /// The AVX2 counterpart of `tile16`: eight rows as two ymm registers
    /// per column. `FULL` means `rows == 8`, which drops the masks from the
    /// inner loop.
    ///
    /// # Safety
    /// As for `tile16`, with AVX2 + FMA and `rows ≤ 8`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile8<const COLS: usize, const FULL: bool>(
        alpha: f64,
        rows: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        c: *mut f64,
    ) {
        let r = _mm256_set1_epi64x(rows as i64);
        let lo = _mm256_cmpgt_epi64(r, _mm256_setr_epi64x(0, 1, 2, 3));
        let hi = _mm256_cmpgt_epi64(r, _mm256_setr_epi64x(4, 5, 6, 7));
        let mut acc = [[_mm256_setzero_pd(); 2]; COLS];
        for l in 0..kc {
            // SAFETY (all raw accesses below): the caller's contract; see
            // `tile16` for the upper half's `wrapping_add`.
            let ap = unsafe { a.add(l * lda) };
            let a0 = unsafe { load4::<FULL>(ap, lo) };
            let a1 = unsafe { load4::<FULL>(ap.wrapping_add(4), hi) };
            for (j, accj) in acc.iter_mut().enumerate() {
                let bv = _mm256_set1_pd(unsafe { *b.add(j * ldb + l) });
                accj[0] = _mm256_fmadd_pd(a0, bv, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, bv, accj[1]);
            }
        }
        let av = _mm256_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            // SAFETY: as above, with `c` in place of `a`.
            unsafe {
                let c0 = c.add(j * lda);
                let c1 = c0.wrapping_add(4);
                let v0 = _mm256_fmadd_pd(av, accj[0], load4::<FULL>(c0, lo));
                let v1 = _mm256_fmadd_pd(av, accj[1], load4::<FULL>(c1, hi));
                store4::<FULL>(c0, lo, v0);
                store4::<FULL>(c1, hi, v1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_ref(alpha: f64, a: &Tile, b: &Tile, c0: &Tile) -> Tile {
        let mut c = c0.clone();
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..a.cols() {
                    acc += a.get(i, l) * b.get(l, j);
                }
                *c.get_mut(i, j) += alpha * acc;
            }
        }
        c
    }

    #[test]
    fn naive_matches_reference_small() {
        let a = Tile::random(3, 4, 1);
        let b = Tile::random(4, 5, 2);
        let c0 = Tile::random(3, 5, 3);
        let expect = dense_ref(1.0, &a, &b, &c0);
        let mut c = c0.clone();
        gemm_naive(1.0, &a, &b, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (7, 9, 5), (64, 64, 64), (65, 130, 100)] {
            let a = Tile::random(m, k, 10);
            let b = Tile::random(k, n, 11);
            let c0 = Tile::random(m, n, 12);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm_naive(0.7, &a, &b, &mut c1);
            gemm_blocked(0.7, &a, &b, &mut c2);
            assert!(c1.max_abs_diff(&c2) < 1e-10, "mismatch at {m}x{n}x{k}");
        }
    }

    /// Dimensions at the micro-tile and cache-block edges: the 4-column,
    /// 8-row and 16-row register tiles and the 64-deep, 64-wide blocks.
    const EDGES: [usize; 19] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 66,
    ];

    #[test]
    fn every_supported_simd_tier_matches_naive_at_tile_edges() {
        let tiers: Vec<Isa> = Isa::ALL.into_iter().filter(|isa| isa.supported()).collect();
        assert!(tiers.contains(&Isa::Scalar));
        assert!(tiers.contains(&Isa::detected()));
        for m in EDGES {
            for n in EDGES {
                for k in EDGES {
                    let seed = (m * 10_000 + n * 100 + k) as u64;
                    let a = Tile::random(m, k, seed);
                    let b = Tile::random(k, n, seed ^ 1);
                    let c0 = Tile::random(m, n, seed ^ 2);
                    for alpha in [0.0, 1.0, -2.5] {
                        let mut expect = c0.clone();
                        gemm_naive(alpha, &a, &b, &mut expect);
                        for &isa in &tiers {
                            let mut c = c0.clone();
                            gemm_simd_on(isa, alpha, &a, &b, &mut c);
                            assert!(
                                c.max_abs_diff(&expect) < 1e-10,
                                "{} mismatch at {m}x{n}x{k} alpha={alpha}",
                                isa.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = Tile::from_data(1, 1, vec![2.0]);
        let b = Tile::from_data(1, 1, vec![3.0]);
        let mut c = Tile::from_data(1, 1, vec![10.0]);
        gemm_blocked(1.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 16.0);
        gemm_blocked(1.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 22.0);
    }

    #[test]
    fn alpha_scales_product_only() {
        let a = Tile::from_data(1, 1, vec![2.0]);
        let b = Tile::from_data(1, 1, vec![3.0]);
        let mut c = Tile::from_data(1, 1, vec![5.0]);
        gemm_naive(2.0, &a, &b, &mut c);
        assert_eq!(c.get(0, 0), 17.0);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Tile::zeros(2, 3);
        let b = Tile::zeros(4, 2);
        let mut c = Tile::zeros(2, 2);
        gemm_naive(1.0, &a, &b, &mut c);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
