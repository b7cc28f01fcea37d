//! Task-body handlers: what each [`Op`] does when its turn comes.
//!
//! [`HandlerEnv`] bundles the shared, read-mostly state of one execution —
//! problem, plan, stores, comm fabric, pools, kernel mode, fault plan,
//! counters — and exposes the single fallible entry point
//! [`HandlerEnv::handle`] that the engine drives for every task. Fault
//! injection happens **at handler entry**, before any side effect, so a
//! retried attempt re-runs from a clean slate and recovery is idempotent by
//! construction — except the `Send` site, which fires inside the
//! transport's send path (a dropped frame is a real network side effect);
//! the receiver's idempotent duplicate suppression keeps the retry safe.
//!
//! Ownership discipline: every handler reads tiles only from **its own
//! node's** store (`stores[w.node]`, with the reader declared — a
//! cross-node read panics in debug builds). Data crosses nodes exclusively
//! through [`CommFabric`]: `SendA` puts a tile on the wire, `RecvA` blocks
//! until the destination's progress thread deposited it, and `FlushBlock`
//! ships C partial sums to the reduction root instead of touching shared
//! memory.

use std::sync::atomic::{AtomicU64, Ordering};

use bst_runtime::comm::{CPart, CommFabric, LinkClass, SendError, TileMsg};
use bst_runtime::data::{BCacheKey, DataKey};
use bst_runtime::device::DeviceStats;
use bst_runtime::graph::{TaskError, WorkerId};
use bst_runtime::TileStore;
use bst_tile::kernel::{select_heuristic, KernelKind};
use bst_tile::pool::TilePool;
use parking_lot::Mutex;

use super::inspector::{block_b_tiles, block_c_tiles, owner_of, Lowered, Op};
use super::memory::Ctx;
use super::policies::KernelSelect;
use super::report::DeviceMemLog;
use super::BGen;
use crate::error::{ExecError, GenError};
use crate::fault::{FaultPlan, FaultSite};
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

/// Maps a reduction-path send failure to a task error. `reduce` carries no
/// drop injection, so the only possible failure is a dead wire peer —
/// fatal, recovered by the launcher's degraded re-plan.
fn wire_fatal(op: &Op, e: SendError) -> TaskError<ExecError> {
    match e {
        SendError::Wire(e) => TaskError::Fatal(ExecError::Wire {
            dst: e.dst,
            detail: op.detail(),
            reason: e.reason,
        }),
        SendError::Dropped => unreachable!("reduce frames are never drop-injected"),
    }
}

/// Atomic tallies the handlers bump while the engine runs.
#[derive(Default)]
pub(crate) struct Counters {
    pub a_net: AtomicU64,
    pub a_net_inter: AtomicU64,
    pub a_msgs: AtomicU64,
    pub a_fwd_msgs: AtomicU64,
    pub gemms: AtomicU64,
    pub bgens: AtomicU64,
    pub b_cache_hits: AtomicU64,
    pub b_cache_misses: AtomicU64,
    pub b_cache_saved: AtomicU64,
    pub injected_genb: AtomicU64,
    pub injected_alloc: AtomicU64,
    pub injected_send: AtomicU64,
    pub stalls: AtomicU64,
}

/// The shared environment of one execution's task handlers.
pub(crate) struct HandlerEnv<'a> {
    pub spec: &'a ProblemSpec,
    pub plan: &'a ExecutionPlan,
    pub low: &'a Lowered,
    pub b_gen: BGen<'a>,
    /// Persistent per-node B-tile caches (`None` on the one-shot paths).
    pub b_caches: Option<super::BCaches<'a>>,
    pub stores: &'a [TileStore],
    pub fabric: &'a CommFabric,
    pub pools: &'a [TilePool],
    pub kernel: KernelSelect,
    pub kernel_counts: Vec<AtomicU64>,
    pub fault: Option<FaultPlan>,
    /// `(p, q)` of the process grid (for `A` ownership).
    pub grid: (usize, usize),
    /// Low-rank truncation tolerance ([`ExecOptions::compress_tol`]):
    /// generated B tiles are compressed before caching/storing, and GEMMs
    /// re-compress LR×LR middle products at this tolerance. `0.0` keeps
    /// every path dense and bit-identical.
    ///
    /// [`ExecOptions::compress_tol`]: super::policies::ExecOptions::compress_tol
    pub compress_tol: f64,
    pub counters: Counters,
    /// Per-(node, gpu) device statistics, pushed at each device's last flush.
    pub dev_stats: Mutex<Vec<((usize, usize), DeviceStats)>>,
    /// Per-(node, gpu) occupancy samples (traced runs only).
    pub mem_log: Mutex<DeviceMemLog>,
}

impl HandlerEnv<'_> {
    /// Runs one task. This is the engine's only handler — every policy
    /// combination (traced or not, faulted or not) funnels through it.
    pub fn handle(
        &self,
        op: &Op,
        w: WorkerId,
        ctx: &mut Ctx,
        attempt: u32,
    ) -> Result<(), TaskError<ExecError>> {
        // ---- Fault injection, at handler entry (before any side effect,
        // so a retried attempt re-runs from a clean slate) ---------------
        if let Some(fp) = &self.fault {
            let key = FaultPlan::site_key(op, w);
            if attempt == 1 {
                if let Some(delay) = fp.stall(key) {
                    self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(delay);
                }
            }
            match op {
                Op::GenB { k, j } if fp.injects(FaultSite::GenB, key, attempt) => {
                    self.counters.injected_genb.fetch_add(1, Ordering::Relaxed);
                    return Err(TaskError::Transient(ExecError::Gen(GenError::Injected {
                        k: *k as usize,
                        j: *j as usize,
                        attempt,
                    })));
                }
                // Op::SendA's Send site is injected inside the send path
                // below — the drop happens on the wire, not at entry.
                Op::LoadBlock { .. } | Op::LoadA { .. }
                    if fp.injects(FaultSite::Alloc, key, attempt) =>
                {
                    self.counters.injected_alloc.fetch_add(1, Ordering::Relaxed);
                    return Err(TaskError::Transient(ExecError::Injected {
                        site: FaultSite::Alloc,
                        detail: op.detail(),
                        attempt,
                    }));
                }
                _ => {}
            }
        }
        let oom = |e: &dyn std::fmt::Display| {
            TaskError::Fatal(ExecError::DeviceOom {
                node: w.node,
                gpu: w.lane.saturating_sub(1),
                detail: op.detail(),
                reason: e.to_string(),
            })
        };
        let (spec, plan, c) = (self.spec, self.plan, &self.counters);
        match (op, ctx) {
            (Op::SendA { i, k, to }, Ctx::Cpu) => {
                let key = DataKey::A(*i, *k);
                let tile = self.stores[w.node].get(w.node, key);
                // Count the bytes that actually cross the wire: a low-rank
                // tile ships its factors, not the dense equivalent.
                let bytes = tile.stored_bytes();
                // The destination consumes the tile once per local device
                // load plus once per tree hop it forwards.
                let consumers = self.low.a_consumers(*to, (*i, *k));
                let drop_in_flight = self.fault.as_ref().is_some_and(|fp| {
                    fp.injects(FaultSite::Send, FaultPlan::site_key(op, w), attempt)
                });
                let msg = TileMsg {
                    key,
                    payload: tile,
                    epoch: attempt,
                    src: w.node,
                    consumers,
                };
                match self.fabric.send_tile(*to, msg, drop_in_flight) {
                    Ok(()) => {
                        c.a_net.fetch_add(bytes, Ordering::Relaxed);
                        if self.fabric.topology().link_class(w.node, *to) == LinkClass::Inter {
                            c.a_net_inter.fetch_add(bytes, Ordering::Relaxed);
                        }
                        c.a_msgs.fetch_add(1, Ordering::Relaxed);
                        let (p, q) = self.grid;
                        if w.node != owner_of(p, q, *i as usize, *k as usize) {
                            c.a_fwd_msgs.fetch_add(1, Ordering::Relaxed);
                        }
                        // Only a *delivered* send consumes the local copy:
                        // a dropped message leaves it for the retry.
                        self.stores[w.node].consume(w.node, key);
                        Ok(())
                    }
                    Err(SendError::Dropped) => {
                        self.counters.injected_send.fetch_add(1, Ordering::Relaxed);
                        Err(TaskError::Transient(ExecError::Injected {
                            site: FaultSite::Send,
                            detail: op.detail(),
                            attempt,
                        }))
                    }
                    // The peer process is gone: retrying into a dead socket
                    // cannot succeed — fail fast so the launcher can run the
                    // degraded re-plan.
                    Err(SendError::Wire(e)) => Err(TaskError::Fatal(ExecError::Wire {
                        dst: e.dst,
                        detail: op.detail(),
                        reason: e.reason,
                    })),
                }
            }
            (Op::RecvA { i, k, from: _ }, Ctx::Cpu) => {
                // The receive completes when this node's progress thread has
                // deposited the tile — "a tile is usable only after its
                // message arrived". Safe to block: the paired SendA task
                // finished only after the frame entered our inbox.
                self.fabric.wait_delivered(w.node, DataKey::A(*i, *k));
                Ok(())
            }
            (Op::GenB { k, j }, Ctx::Cpu) => {
                // Persistent-cache fast path: a resident tile short-circuits
                // generation entirely. The cached Arc carries the exact
                // bytes the original generation produced, so a warm run is
                // bit-identical to a cold one.
                let cache_key = self.b_caches.as_ref().map(|bc| {
                    (
                        &bc.caches[w.node],
                        BCacheKey { ident: bc.ident, k: *k, j: *j },
                    )
                });
                if let Some((cache, key)) = &cache_key {
                    if let Some(tile) = cache.get(*key) {
                        c.b_cache_hits.fetch_add(1, Ordering::Relaxed);
                        c.b_cache_saved.fetch_add(tile.stored_bytes(), Ordering::Relaxed);
                        self.stores[w.node].put(DataKey::B(*k, *j), tile, 1);
                        return Ok(());
                    }
                }
                let rows = spec.b.row_tiling().size(*k as usize) as usize;
                let cols = spec.b.col_tiling().size(*j as usize) as usize;
                let tile = (self.b_gen)(*k as usize, *j as usize, rows, cols, &self.pools[w.node])
                    .map_err(|e| {
                        if e.is_transient() {
                            TaskError::Transient(ExecError::Gen(e))
                        } else {
                            TaskError::Fatal(ExecError::Gen(e))
                        }
                    })?;
                if (tile.rows(), tile.cols()) != (rows, cols) {
                    return Err(TaskError::Fatal(ExecError::Gen(GenError::WrongShape {
                        k: *k as usize,
                        j: *j as usize,
                        got: (tile.rows(), tile.cols()),
                        want: (rows, cols),
                    })));
                }
                c.bgens.fetch_add(1, Ordering::Relaxed);
                // Rank-revealing truncation at generation time: everything
                // downstream (cache, store, device load, GEMM) sees the
                // compressed representation. `compressed` returns `None`
                // when the factors wouldn't beat dense bytes, so stored
                // sizes only ever shrink.
                let tile = if self.compress_tol > 0.0 {
                    match tile.compressed(self.compress_tol) {
                        Some(lr) => {
                            let lr = std::sync::Arc::new(lr);
                            self.pools[w.node].release_arc(tile);
                            lr
                        }
                        None => tile,
                    }
                } else {
                    tile
                };
                if let Some((cache, key)) = &cache_key {
                    c.b_cache_misses.fetch_add(1, Ordering::Relaxed);
                    cache.insert(*key, std::sync::Arc::clone(&tile));
                }
                self.stores[w.node].put(DataKey::B(*k, *j), tile, 1);
                Ok(())
            }
            (Op::LoadBlock { node, gpu, block }, Ctx::Gpu(mm)) => {
                let bp = &plan.nodes[*node].gpus[*gpu].blocks[*block];
                let row = plan.nodes[*node].grid_row;
                for (k, j) in block_b_tiles(spec, &bp.block) {
                    let key = DataKey::B(k as u32, j as u32);
                    let tile = self.stores[w.node].get(w.node, key);
                    mm.load_b((k as u32, j as u32), tile).map_err(|e| oom(&e))?;
                    self.stores[w.node].consume(w.node, key);
                }
                for (i, j) in block_c_tiles(spec, &bp.block, row, self.grid.0) {
                    let rows = spec.a.row_tiling().size(i) as usize;
                    let cols = spec.b.col_tiling().size(j) as usize;
                    mm.alloc_c(
                        (i as u32, j as u32),
                        self.pools[*node].zeroed(rows, cols),
                    )
                    .map_err(|e| oom(&e))?;
                }
                mm.sample_mem();
                Ok(())
            }
            (Op::LoadA { i, k }, Ctx::Gpu(mm)) => {
                let key = DataKey::A(*i, *k);
                let tile = self.stores[w.node].get(w.node, key);
                mm.load_a((*i, *k), tile).map_err(|e| oom(&e))?;
                self.stores[w.node].consume(w.node, key);
                mm.sample_mem();
                Ok(())
            }
            (Op::Gemm { i, k, j }, Ctx::Gpu(mm)) => {
                let (at, bt, ct) = mm.gemm_operands(*i, *k, *j);
                let kind = match self.kernel {
                    KernelSelect::Baseline => KernelKind::Blocked,
                    KernelSelect::Heuristic => select_heuristic(ct.rows(), ct.cols(), at.cols()),
                };
                kind.run_recompress(1.0, &at, &bt, ct, self.compress_tol);
                self.kernel_counts[kind.index()].fetch_add(1, Ordering::Relaxed);
                c.gemms.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            (
                Op::EvictChunk {
                    node, gpu, block, chunk,
                },
                Ctx::Gpu(mm),
            ) => {
                let bp = &plan.nodes[*node].gpus[*gpu].blocks[*block];
                for &t in &bp.chunks[*chunk].tiles {
                    // A later chunk may have re-loaded (refcounted) the
                    // tile already; the manager keeps it until the last
                    // reference drops.
                    mm.evict_a(t);
                }
                mm.sample_mem();
                Ok(())
            }
            (Op::FlushBlock { node, gpu, block }, Ctx::Gpu(mm)) => {
                let bp = &plan.nodes[*node].gpus[*gpu].blocks[*block];
                let row = plan.nodes[*node].grid_row;
                for (k, j) in block_b_tiles(spec, &bp.block) {
                    if let Some(arc) = mm.evict_b((k as u32, j as u32)) {
                        // This lane held the last reference (the store
                        // dropped its own at LoadBlock), so the buffer
                        // goes back to the node pool for the next
                        // GenB / C zero-fill of the same size.
                        self.pools[*node].release_arc(arc);
                    }
                }
                // Under tree collectives a flush deposits its partials
                // locally (loopback) — the node's ReduceC combines them and
                // sends one message per C key up the reduction tree. Under
                // unicast every partial ships straight to the root. Either
                // way the origin ordinal makes each combine's accumulation
                // order canonical, independent of delivery order.
                let dst = if self.low.reduce.is_some() {
                    w.node
                } else {
                    super::REDUCE_ROOT
                };
                for (i, j) in block_c_tiles(spec, &bp.block, row, self.grid.0) {
                    self.fabric
                        .reduce(
                            w.node,
                            dst,
                            CPart {
                                i,
                                j,
                                origin: (*node, *gpu, *block),
                                tile: mm.evict_c((i as u32, j as u32)),
                            },
                        )
                        .map_err(|e| wire_fatal(op, e))?;
                }
                mm.sample_mem();
                if *block + 1 == plan.nodes[*node].gpus[*gpu].blocks.len() {
                    self.dev_stats.lock().push(((*node, *gpu), mm.stats()));
                    if mm.traced() {
                        self.mem_log.lock().push(((*node, *gpu), mm.take_samples()));
                    }
                }
                Ok(())
            }
            (Op::ReduceC { node }, Ctx::Cpu) => {
                debug_assert_eq!(*node, w.node);
                let rn = &self.low.reduce.as_ref().expect("ReduceC lowered without a tree")
                    [w.node];
                // The expected count is structural (own flush partials plus
                // one combined partial per child key), so the taken set —
                // and with it the summation bracketing — is fixed by the
                // plan, not by delivery timing. Safe to block: children's
                // combines finished (DAG deps), so every expected frame is
                // at least in flight, and the progress threads drain
                // independently of this lane.
                let mut parts = self.fabric.take_reduced_at_least(w.node, rn.expected);
                parts.sort_by_key(|part| (part.i, part.j, part.origin));
                let mut combined: Vec<CPart> = Vec::with_capacity(rn.keys.len());
                for part in parts {
                    match combined.last_mut() {
                        // A run of equal (i, j) folds into its first (lowest
                        // origin) partial, which then carries the subtree's
                        // minimum origin upward.
                        Some(last) if (last.i, last.j) == (part.i, part.j) => {
                            last.tile.add_assign(&part.tile);
                        }
                        _ => combined.push(part),
                    }
                }
                debug_assert_eq!(
                    combined.len(),
                    rn.keys.len(),
                    "combined keys diverge from the lowering on node {}",
                    w.node
                );
                // Forward one partial per key up the tree; the root
                // re-deposits its fully-combined partials for the final
                // assembly to take.
                let dst = rn.parent.unwrap_or(w.node);
                for part in combined {
                    self.fabric
                        .reduce(w.node, dst, part)
                        .map_err(|e| wire_fatal(op, e))?;
                }
                Ok(())
            }
            (op, _) => unreachable!("op {op:?} on wrong lane"),
        }
    }
}
