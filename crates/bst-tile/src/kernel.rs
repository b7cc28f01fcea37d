//! GEMM kernel dispatch.
//!
//! Small-block GEMM throughput comes from one register-blocked small-matrix
//! kernel, not from a menu of variants picked per shape (DBCSR reaches the
//! same design in its libsmm/libxsmm backends). This module provides:
//!
//! * [`KernelKind`] — the kernels of [`crate::gemm`], with
//!   [`KernelKind::run`] dispatching to the implementation;
//! * [`select_heuristic`] — the executor's choice for a shape, which is
//!   always the SIMD family; its ISA tier is fixed per host, so the choice
//!   is a pure function of (shape, host ISA) and never of timing;
//! * [`measure_gflops`] — a kernel's measured rate on one shape.
//!
//! Every kernel has identical `C ← alpha·A·B + C` semantics, so dispatch is
//! a pure performance decision — the property tests in `tests/proptests.rs`
//! hold all of them to `gemm_naive` behaviour.

use crate::gemm::{gemm_blocked, gemm_flops, gemm_naive, gemm_simd};
use crate::tile::Tile;
use std::time::Instant;

/// The common signature of every tile GEMM kernel.
pub type GemmFn = fn(f64, &Tile, &Tile, &mut Tile);

/// One of the GEMM implementations in [`crate::gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Triple loop ([`gemm_naive`]) — the test reference.
    Naive,
    /// Cache-blocked scalar loop ([`gemm_blocked`]) — the comparison
    /// baseline and the SIMD family's fallback tier.
    Blocked,
    /// FMA micro-kernel family ([`gemm_simd`]) at the host's widest
    /// [`crate::gemm::Isa`] tier.
    Simd,
}

impl KernelKind {
    /// Every kernel, in a stable order (used by benches and reports).
    pub const ALL: [KernelKind; 3] = [KernelKind::Naive, KernelKind::Blocked, KernelKind::Simd];

    /// Stable display name (also the key used in `BENCH_kernels.json`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
            KernelKind::Simd => "simd",
        }
    }

    /// The implementing function.
    pub fn func(self) -> GemmFn {
        match self {
            KernelKind::Naive => gemm_naive,
            KernelKind::Blocked => gemm_blocked,
            KernelKind::Simd => gemm_simd,
        }
    }

    /// Runs `C ← alpha·A·B + C` with this kernel. Low-rank operands are
    /// routed through [`crate::lowrank::gemm_lowrank`], which decomposes
    /// the product into dense sub-GEMMs executed by this same kernel; the
    /// `LR × LR` middle matrix is applied exactly (no re-compression — use
    /// [`KernelKind::run_recompress`] to enable it).
    #[inline]
    pub fn run(self, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile) {
        self.run_recompress(alpha, a, b, c, 0.0);
    }

    /// [`KernelKind::run`] with an explicit re-compression tolerance for
    /// the `LR × LR` path: when both operands are low-rank and `tol > 0`,
    /// the middle matrix `V_aᵀ·U_b` is itself truncated at `tol`, so the
    /// applied rank can drop below `min(r_a, r_b)`. Dense×dense products
    /// are dispatched straight to the kernel function — with dense
    /// operands this is byte-identical to the pre-polymorphic path for
    /// every `tol`.
    #[inline]
    pub fn run_recompress(self, alpha: f64, a: &Tile, b: &Tile, c: &mut Tile, tol: f64) {
        if a.is_dense() && b.is_dense() {
            (self.func())(alpha, a, b, c);
        } else {
            crate::lowrank::gemm_lowrank(self, alpha, a, b, c, tol);
        }
    }

    /// Index of this kind in [`KernelKind::ALL`] (for counter arrays).
    pub fn index(self) -> usize {
        KernelKind::ALL.iter().position(|&k| k == self).unwrap()
    }
}

/// The kernel the executor runs on an `m × n × k` product: the SIMD
/// family, for every shape. Ragged and thin shapes need no scalar escape
/// hatch because the micro-kernel masks its row tails and narrows its
/// column tails. The function keeps the shape arguments so callers state
/// what they dispatch; the ISA tier underneath is detected once per host.
pub fn select_heuristic(_m: usize, _n: usize, _k: usize) -> KernelKind {
    KernelKind::Simd
}

/// Operand working set the timing ring is sized to exceed, so successive
/// iterations read mostly cache-cold tiles — the executor streams distinct
/// A/B tiles per Gemm, and a single-pair loop would overstate the rate.
const TIMING_RING_BYTES: usize = 4 << 20;

/// A ring of distinct `(a, b)` operand pairs for one shape, accumulating
/// into a single shared `c` — the executor's cache profile: every Gemm of a
/// block streams fresh A/B tiles but accumulates into a C tile that stays
/// resident across the block's whole k-loop.
struct TimingRing {
    sets: Vec<(Tile, Tile)>,
    c: Tile,
    next: usize,
}

impl TimingRing {
    fn new(m: usize, n: usize, k: usize) -> Self {
        let per_set = 8 * (m * k + k * n);
        let len = (TIMING_RING_BYTES / per_set.max(1)).clamp(1, 64);
        let sets = (0..len)
            .map(|i| {
                let seed = 0x5eed_0000 + i as u64;
                (Tile::random(m, k, seed), Tile::random(k, n, seed ^ 0xB))
            })
            .collect();
        Self {
            sets,
            c: Tile::zeros(m, n),
            next: 0,
        }
    }

    fn run(&mut self, kind: KernelKind) {
        let (a, b) = &self.sets[self.next];
        kind.run(1.0, a, b, &mut self.c);
        self.next = (self.next + 1) % self.sets.len();
    }
}

/// Times one `kernel(a, b) → c` call over a rotating operand ring,
/// adaptively repeating until the sample is long enough to trust; returns
/// seconds per call.
fn time_kernel(kind: KernelKind, ring: &mut TimingRing) -> f64 {
    ring.run(kind); // warm the instruction cache
    let mut iters: u32 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            ring.run(kind);
        }
        let dt = t0.elapsed();
        if dt.as_micros() >= 200 || iters >= 1 << 16 {
            return dt.as_secs_f64() / f64::from(iters);
        }
        iters *= 4;
    }
}

/// Measured flop rate of `kind` on an `m × n × k` product, in Gflop/s.
/// Operands rotate through a multi-megabyte ring so the rate reflects
/// streaming (cache-cold) tiles, like the executor's Gemm stream.
pub fn measure_gflops(kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
    let mut ring = TimingRing::new(m, n, k);
    let secs = time_kernel(kind, &mut ring);
    gemm_flops(m as u64, n as u64, k as u64) as f64 / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<_> = KernelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KernelKind::ALL.len());
        assert_eq!(KernelKind::Simd.name(), "simd");
    }

    #[test]
    fn index_roundtrips() {
        for (i, k) in KernelKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn heuristic_respects_shape() {
        // One kernel family for every shape, thin and ragged ones included.
        for &(m, n, k) in &[
            (512, 512, 512),
            (2, 200, 50),
            (200, 2, 50),
            (40, 40, 40),
            (5, 5, 16),
        ] {
            assert_eq!(select_heuristic(m, n, k), KernelKind::Simd);
        }
    }

    #[test]
    fn measure_gflops_is_positive() {
        assert!(measure_gflops(KernelKind::Blocked, 16, 16, 16) > 0.0);
        assert!(measure_gflops(KernelKind::Simd, 16, 16, 16) > 0.0);
    }
}
