#![warn(missing_docs)]

//! Irregular tilings and dense tiles — the lowest-level substrate of the
//! block-sparse contraction stack.
//!
//! The paper's matrices are *irregularly tiled*: the rows and columns of the
//! element-level matrix are partitioned into contiguous ranges of varying
//! length ("tiles" in one dimension, "blocks" when crossed with another
//! dimension). This crate provides:
//!
//! * [`Tiling`] — an irregular partition of `0..extent`, with O(1) size/offset
//!   queries and O(log n) coordinate lookup;
//! * [`Tile`] — a column-major `f64` block, stored dense or as a truncated
//!   low-rank factorization ([`Repr`]);
//! * [`lowrank`] — the pivoted-QR truncation kernel and the rank-aware
//!   GEMM routing behind [`kernel`] dispatch;
//! * [`gemm`] — `C += A * B` kernels used by the simulated GPU executors:
//!   the naive reference, a cache-blocked scalar loop, and one SIMD FMA
//!   micro-kernel family (AVX-512F or AVX2 by run-time detection, scalar
//!   fallback) that works on the column-major tiles in place;
//! * [`kernel`] — dispatch between the kernels ([`KernelKind`]); the
//!   executor's choice is a function of the shape and the host ISA only;
//! * [`pool`] — a recycling buffer arena ([`pool::TilePool`]) so hot-path
//!   tile allocations reuse freed buffers.
//!
//! Everything in this crate is deterministic; random builders take explicit
//! seeds. The one platform dependence is the SIMD kernel's ISA tier: two
//! hosts with different tiers sum in different orders and may differ in the
//! last bits (well within 1e-10), while runs on one host are bit-identical.

pub mod gemm;
pub mod kernel;
pub mod lowrank;
pub mod pool;
pub mod tile;
pub mod tiling;

pub use kernel::KernelKind;
pub use pool::TilePool;
pub use tile::{Repr, Tile};
pub use tiling::Tiling;
