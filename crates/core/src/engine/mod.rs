//! The execution engine: one policy-driven path from plan to result.
//!
//! Formerly a single 1,700-line `exec.rs` monolith, the engine is split by
//! responsibility:
//!
//! * [`inspector`] — **plan → DAG**: materialises the task graph with its
//!   dataflow and control-flow edges (the paper's §4 PTG). Data-free, so
//!   `bst-sim` replays the *same* lowering it can never drift from;
//! * [`policies`] — [`policies::ExecOptions`]: the composable
//!   knob surface (control edges, tracing, kernels, GenB fan-out, faults,
//!   retry);
//! * `memory` — the per-GPU `MemoryManager`: residency, eviction, OOM, and
//!   occupancy sampling behind one interface;
//! * `handlers` — the task bodies (`GenB`/`SendA`/`Gemm`/loads/evictions)
//!   plus kernel dispatch and fault injection;
//! * [`report`] — [`report::ExecReport`], recovery statistics,
//!   and the trace-invariant checker.
//!
//! The crate-private `run` function is the **only** execution path. Tracing
//! on/off, faults on/off, retry budgets — every combination is a policy
//! selection on the `bst-runtime` [`bst_runtime::engine::Engine`], not a
//! separate code path; `crate::exec::execute_numeric*` and the `crate::api`
//! entry points are thin wrappers over this function.

pub mod inspector;
pub mod policies;
pub mod report;

mod handlers;
mod memory;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bst_runtime::comm::{CommConfig, CommFabric};
use bst_runtime::device::NodeResidency;
use bst_runtime::engine::Engine;
use bst_runtime::graph::{FallibleRun, RunAbort, WorkerId};
use bst_runtime::trace::{aggregate_by_kind, TaskRecord, TraceClock};
use bst_runtime::TileStore;
use bst_sparse::BlockSparseMatrix;
use bst_tile::kernel::KernelKind;
use bst_tile::pool::TilePool;
use bst_tile::Tile;
use parking_lot::Mutex;

use crate::error::{ExecError, GenError};
use crate::fault::FaultPlan;
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

use handlers::{Counters, HandlerEnv};
use inspector::{owner_of, Op};
use memory::{Ctx, MemoryManager};
use policies::ExecOptions;
use report::{DeviceMemLog, ExecReport, ExecTraceData, RecoveryStats};

/// The node that accumulates C partial sums (flush handlers ship their
/// partials here over the fabric).
pub(crate) const REDUCE_ROOT: usize = 0;

/// Generator of `B` tiles:
/// `(tile_row k, tile_col j, rows, cols, node pool) -> Result<Arc<Tile>, GenError>`.
///
/// The generator receives the executing node's [`TilePool`] so it can build
/// the tile into a recycled buffer (`pool.random(rows, cols, seed)` /
/// `pool.take_with`); generators that don't care may ignore it and allocate
/// normally. A failure is reported as a [`GenError`] instead of a panic: the
/// executor retries the generating task when
/// [`GenError::is_transient`] holds (within
/// [`ExecOptions::retry`](policies::ExecOptions::retry)'s budget)
/// and aborts the execution with a typed error otherwise.
pub type BGen<'a> =
    &'a (dyn Fn(usize, usize, usize, usize, &TilePool) -> Result<Arc<Tile>, GenError> + Sync);

/// Persistent per-node B-tile caches handed in by a long-lived caller (the
/// contraction service). `ident` namespaces this request's operand inside
/// the shared caches, so two different B structures sharing a budget can
/// never alias each other's tiles.
pub(crate) struct BCaches<'a> {
    /// One cache per simulated node, indexed by node id.
    pub caches: &'a [Arc<bst_runtime::BTileCache>],
    /// Operand identity mixed into every cache key.
    pub ident: u64,
}

/// Executes `plan` numerically under `opts` — the single engine path every
/// public entry point funnels into.
///
/// With `remote: Some(link)`, the engine runs **SPMD over processes**: it
/// lowers the full plan, restricts the DAG to `link.rank`'s tasks, seeds
/// only that rank's A slice, and plugs `link.wire` into the fabric so
/// frames for other ranks leave the process (and inbound frames are pumped
/// back in). Every participating process must call with the same spec,
/// plan and options for the global DAG to be consistent.
pub(crate) fn run(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    a: &BlockSparseMatrix,
    b_gen: BGen<'_>,
    opts: ExecOptions,
    b_caches: Option<BCaches<'_>>,
    remote: Option<bst_runtime::comm::RemoteLink>,
) -> Result<(BlockSparseMatrix, ExecReport), ExecError> {
    // ---- Degraded re-planning on a permanent node loss -------------------
    // The dead node's B columns move to its surviving row peers; its host
    // memory (and therefore its A slice and SendA forwarding duties)
    // survives, only its generators and GPUs are written off.
    let replanned_storage;
    let (plan, replanned_columns, dead_nodes): (&ExecutionPlan, u64, Vec<usize>) =
        match opts.fault_plan.and_then(|f| f.dead_node) {
            Some(dead) => {
                let moved = plan
                    .nodes
                    .get(dead)
                    .map(|n| n.columns.len() as u64)
                    .unwrap_or(0);
                replanned_storage = ExecutionPlan::build_with(spec, plan.config, &[dead])
                    .map_err(ExecError::Replan)?;
                (&replanned_storage, moved, vec![dead])
            }
            None => (plan, 0, Vec::new()),
        };

    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    let g = plan.config.device.gpus_per_node;
    let n_nodes = p * q;

    // ---- Inspector: lower the plan to the task DAG -----------------------
    // Multi-process mode lowers the full plan (global broadcast trees and
    // reduction shapes), then keeps only this rank's tasks: the transport's
    // blocking waits replace the dropped cross-node edges.
    let low = inspector::lower(spec, plan, &opts);
    let low = match &remote {
        Some(link) => low.restrict(link.rank),
        None => low,
    };

    // ---- Pre-seed the owner stores with A --------------------------------
    // A worker process seeds only the slice its own rank owns; every other
    // tile reaches it as a BcastA frame over the wire.
    let stores: Vec<TileStore> = (0..n_nodes).map(TileStore::for_node).collect();
    for (&(i, k), tile) in a.iter_tile_arcs() {
        let t = (i as u32, k as u32);
        let owner = owner_of(p, q, i, k);
        if remote.as_ref().is_some_and(|link| owner != link.rank) {
            continue;
        }
        let consumers = low.a_consumers(owner, t);
        if consumers > 0 {
            // Share the matrix's own Arc — A tiles are immutable for the
            // whole execution, so seeding is reference counting, not a copy.
            // Under a compression tolerance, truncate here instead: every
            // downstream hop (BcastA wire bytes, device loads, GEMMs) then
            // carries the low-rank factors.
            let seeded = if opts.compress_tol > 0.0 {
                match tile.compressed(opts.compress_tol) {
                    Some(lr) => Arc::new(lr),
                    None => Arc::clone(tile),
                }
            } else {
                Arc::clone(tile)
            };
            stores[owner].put(bst_runtime::data::DataKey::A(t.0, t.1), seeded, consumers);
        }
    }

    // ---- Per-node buffer pools ---------------------------------------------
    let pools: Vec<TilePool> = (0..n_nodes).map(|_| TilePool::new()).collect();

    // ---- Execute ----------------------------------------------------------
    let registries: Vec<Arc<NodeResidency>> =
        (0..n_nodes).map(|_| Arc::new(NodeResidency::new())).collect();
    let clock = TraceClock::start();

    // The transport: per-node bounded inboxes, one progress thread per node
    // (spawned into the scope below), credit backpressure, optional link
    // shaping and delivery reordering.
    let fabric = CommFabric::with_remote(
        n_nodes,
        CommConfig {
            window: opts.comm_window.max(1),
            intra_window: opts.intra_window.max(1),
            node_size: opts.node_size.max(1),
            shaper: opts.link_shaper,
            intra_shaper: opts.intra_shaper,
            delivery: opts.delivery,
            clock: opts.tracing.then_some(clock),
        },
        remote.clone(),
    );

    let caching = b_caches.is_some();
    let env = HandlerEnv {
        spec,
        plan,
        low: &low,
        b_gen,
        b_caches,
        stores: &stores,
        fabric: &fabric,
        pools: &pools,
        kernel: opts.kernel,
        kernel_counts: KernelKind::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        fault: opts.fault_plan.filter(FaultPlan::is_active),
        grid: (p, q),
        compress_tol: opts.compress_tol,
        counters: Counters::default(),
        dev_stats: Mutex::new(Vec::new()),
        mem_log: Mutex::new(DeviceMemLog::new()),
    };

    let mk_ctx = |w: WorkerId| {
        if w.lane == 0 || w.lane > g {
            Ctx::Cpu // lane 0: SendA (+ legacy GenB); lanes > g: GenB workers
        } else {
            Ctx::Gpu(Box::new(MemoryManager::new(
                w.lane - 1,
                plan.config.device.gpu_mem_bytes,
                registries[w.node].clone(),
                opts.tracing.then_some(clock),
            )))
        }
    };
    let handler =
        |op: &Op, w: WorkerId, ctx: &mut Ctx, attempt: u32| env.handle(op, w, ctx, attempt);

    // The only branch on tracing is the policy selection — both arms reach
    // the identical Engine::run scheduler; the Recorder arm merely
    // monomorphizes event recording in.
    let engine = Engine::new().with_clock(clock).with_retry(opts.retry);
    // Progress threads live exactly as long as the engine run: spawned just
    // before it, shut down (completion control frames) right after — on the
    // success *and* the abort path, so in-flight frames always drain.
    let run: Result<FallibleRun, RunAbort<ExecError>> = std::thread::scope(|s| {
        fabric.start(s, &stores);
        // Multi-process mode: the pump thread feeds inbound wire frames
        // into the fabric's inboxes. It exits when the wire's inbound side
        // closes (below, after the local engine completed — or when the
        // remote side shut the connections down).
        if let Some(link) = &remote {
            let wire = Arc::clone(&link.wire);
            let pump_fabric = &fabric;
            s.spawn(move || {
                while let Some(frame) = wire.recv() {
                    pump_fabric.inject(frame);
                }
            });
        }
        let run = if opts.tracing {
            engine
                .tracing()
                .run(&low.graph, &low.workers, mk_ctx, handler)
        } else {
            engine.run(&low.graph, &low.workers, mk_ctx, handler)
        };
        fabric.shutdown();
        if let Some(link) = &remote {
            // Everything addressed to this rank has been consumed (the
            // engine completed); unblock the pump so the scope can join.
            link.wire.close_inbound();
        }
        run
    });
    let run = match run {
        Ok(run) => run,
        Err(abort) => {
            // The abort carries the first failing task; exhausted budgets
            // get the retry context attached, fatal errors pass through.
            let detail = low.graph.payload(abort.task).detail();
            return Err(if abort.budget_exhausted {
                ExecError::RetryExhausted {
                    detail,
                    attempts: abort.attempts,
                    cause: abort.error.to_string(),
                }
            } else {
                abort.error
            });
        }
    };

    // Label the raw trace with the ops' kinds, details and attempt counts.
    let (metrics, trace_data) = match &run.trace {
        Some(tr) => {
            let spans = tr.task_spans();
            let records: Vec<TaskRecord> = (0..low.graph.len())
                .map(|id| TaskRecord {
                    task: id,
                    kind: low.graph.payload(id).kind(),
                    detail: low.graph.payload(id).detail(),
                    worker: low.graph.worker(id),
                    span: spans.get(&id).copied().unwrap_or_default(),
                    attempts: run.attempts.get(id).copied().unwrap_or(1),
                })
                .collect();
            let metrics = aggregate_by_kind(&records);
            let mut mem_samples = env.mem_log.into_inner();
            mem_samples.sort_by_key(|(k, _)| *k);
            (
                metrics,
                Some(ExecTraceData {
                    records,
                    mem_samples,
                    comm_events: fabric.take_events(),
                    total_ns: tr.total_ns,
                }),
            )
        }
        None => (Vec::new(), None),
    };
    let c = &env.counters;
    let recovery = RecoveryStats {
        injected_genb: c.injected_genb.load(Ordering::Relaxed),
        injected_alloc: c.injected_alloc.load(Ordering::Relaxed),
        injected_send: c.injected_send.load(Ordering::Relaxed),
        stalls: c.stalls.load(Ordering::Relaxed),
        retried_tasks: run.retried_tasks(),
        retry_attempts: run.failed_attempts(),
        max_attempts: run.max_attempts(),
        replanned_columns,
        dead_nodes,
    };

    // ---- Assemble the result ----------------------------------------------
    // The C partials all arrived at the reduction root over the fabric.
    // Sorting by (i, j, origin) makes the floating-point accumulation order
    // canonical — the result is bit-identical however delivery interleaved.
    let mut out = BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    let mut parts = fabric.take_reduced(REDUCE_ROOT);
    parts.sort_by_key(|part| (part.i, part.j, part.origin));
    for part in &parts {
        out.accumulate_tile(part.i, part.j, &part.tile);
    }
    let mut devices = env.dev_stats.into_inner();
    devices.sort_by_key(|(k, _)| *k);
    let gemm_kernel_counts: Vec<(&'static str, u64)> = KernelKind::ALL
        .iter()
        .zip(&env.kernel_counts)
        .map(|(kind, n)| (kind.name(), n.load(Ordering::Relaxed)))
        .filter(|&(_, n)| n > 0)
        .collect();
    Ok((
        out,
        ExecReport {
            devices,
            a_network_bytes: c.a_net.load(Ordering::Relaxed),
            a_network_inter_bytes: c.a_net_inter.load(Ordering::Relaxed),
            a_messages: c.a_msgs.load(Ordering::Relaxed),
            a_forward_messages: c.a_fwd_msgs.load(Ordering::Relaxed),
            gemm_tasks: c.gemms.load(Ordering::Relaxed),
            b_tiles_generated: c.bgens.load(Ordering::Relaxed),
            gemm_kernel_counts,
            pool_stats: pools.iter().map(TilePool::stats).collect(),
            comm: fabric.node_stats(),
            host_peak_bytes: stores.iter().map(TileStore::peak_bytes).collect(),
            metrics,
            recovery,
            b_cache: caching.then(|| report::BCacheRunStats {
                hits: c.b_cache_hits.load(Ordering::Relaxed),
                misses: c.b_cache_misses.load(Ordering::Relaxed),
                bytes_saved: c.b_cache_saved.load(Ordering::Relaxed),
            }),
            trace: trace_data,
        },
    ))
}
