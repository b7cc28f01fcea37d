//! Execution policies: the option set a numeric run is configured with.
//!
//! [`ExecOptions`] is the single knob surface of the engine — control-flow
//! edges, tracing, kernel selection, GenB fan-out, fault injection and retry
//! policy all compose here and reach one execution path
//! (`crate::engine::run`), never separate entry points.

use crate::fault::{FaultPlan, RetryPolicy};
use bst_runtime::comm::{DeliveryPolicy, LinkShaper, DEFAULT_CREDIT_WINDOW};

/// Which communication primitives the lowering emits for A broadcasts and
/// C reductions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Collectives {
    /// Point-to-point baseline: the owner unicasts `A(i,k)` to every
    /// consumer in turn, and every `CPart` is shipped straight to the
    /// reduction root and summed there. Kept for byte-count comparison
    /// (`repro_comm`'s unicast leg).
    Unicast,
    /// Topology-aware trees (the default): A tiles travel hierarchical
    /// broadcast trees that cross the inter-node link at most
    /// `physical_nodes − 1` times, and C partials combine pairwise up the
    /// fixed reduction tree of [`bst_runtime::comm::Topology`] in canonical
    /// `(i, j, origin)` order.
    #[default]
    Tree,
}

/// How the executor picks a GEMM kernel for each `Gemm` task. Both modes
/// are timing-independent: the choice is a function of the tile shape and
/// the host's ISA, so repeated runs on one host are bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelSelect {
    /// Always the scalar `gemm_blocked` — kept as the comparison baseline
    /// for the traced perf reports.
    Baseline,
    /// [`bst_tile::kernel::select_heuristic`]: the SIMD FMA kernel family
    /// at the host's widest ISA tier. The default.
    #[default]
    Heuristic,
}

/// Which control-flow edges to emit when lowering the plan. Both default to
/// on — disabling either reproduces the failure mode the paper's §4 control
/// DAG exists to prevent (the scheduler "selecting a GEMM that is ready but
/// that requires to eject some data"): the device memory manager reports an
/// OOM instead of thrashing.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Chunk *n*'s loads wait for chunk *n−2*'s evict (§3.2.3 prefetch
    /// window).
    pub prefetch_window: bool,
    /// Block *b+1*'s transfer waits for block *b*'s flush (§3.2.2 blocking
    /// block transfers).
    pub block_serialization: bool,
    /// Record the full task life-cycle trace plus device-memory occupancy
    /// samples; populates [`ExecReport::metrics`] and [`ExecReport::trace`].
    /// Off by default — tracing costs a few `Vec` pushes per task.
    ///
    /// [`ExecReport::metrics`]: crate::engine::report::ExecReport::metrics
    /// [`ExecReport::trace`]: crate::engine::report::ExecReport::trace
    pub tracing: bool,
    /// GEMM kernel selection policy (see [`KernelSelect`]).
    pub kernel: KernelSelect,
    /// Dedicated `GenB` worker lanes per node. `0` keeps the legacy
    /// behaviour (generation serialised on the node's CPU lane, interleaved
    /// with `SendA`); `w > 0` fans `GenB` tasks round-robin across `w`
    /// extra lanes so generation overlaps with communication and compute.
    pub genb_workers: usize,
    /// Deterministic fault-injection schedule (see [`FaultPlan`]); `None`
    /// disables injection entirely (the default). Injected transient faults
    /// are recovered through [`ExecOptions::retry`]; a
    /// [`FaultPlan::dead_node`] triggers degraded re-planning before
    /// execution.
    pub fault_plan: Option<FaultPlan>,
    /// Per-task retry budget and exponential backoff applied to transient
    /// failures (injected or reported by the generator —
    /// see [`BGen`](crate::exec::BGen)).
    pub retry: RetryPolicy,
    /// Credit window of the **inter-node** transport: frames simultaneously
    /// in flight toward any one node over the NIC (see
    /// [`bst_runtime::comm::CommConfig::window`]).
    pub comm_window: usize,
    /// Credit window of the **intra-node** (and loopback) transport —
    /// independent of [`ExecOptions::comm_window`] so a saturated NIC
    /// window can't throttle same-physical-node traffic (see
    /// [`bst_runtime::comm::CommConfig::intra_window`]).
    pub intra_window: usize,
    /// Link cost model of the **inter-node** transport; [`LinkShaper::off`]
    /// (the default) delivers as fast as threads move messages, so numeric
    /// runs aren't slowed. Use [`LinkShaper::summit_nic`] for shaped traces.
    pub link_shaper: LinkShaper,
    /// Link cost model of the **intra-node** transport (ranks sharing a
    /// physical node). Only meaningful with [`ExecOptions::node_size`] > 1;
    /// [`LinkShaper::summit_intra`] for shaped traces.
    pub intra_shaper: LinkShaper,
    /// Engine nodes (ranks) per *physical* node of the modeled machine
    /// (see [`bst_runtime::comm::Topology`]). `1` — the default — makes
    /// every remote link inter-node, the flat legacy behaviour.
    pub node_size: usize,
    /// Communication primitives the lowering emits (see [`Collectives`]).
    pub collectives: Collectives,
    /// Delivery ordering of each node's progress thread; the seeded
    /// [`DeliveryPolicy::Reorder`] stressor must not change any numeric
    /// result.
    pub delivery: DeliveryPolicy,
    /// Relative Frobenius tolerance for low-rank tile compression
    /// (`‖T − U·Vᵀ‖_F ≤ tol·‖T‖_F`). When positive, A tiles are truncated
    /// as they seed the node stores and generated B tiles are truncated
    /// before caching/storing, so compressed representations flow through
    /// transport, caches and rank-aware GEMMs end to end. `0.0` (the
    /// default) disables compression entirely — the execution is
    /// bit-identical to the dense-only engine.
    pub compress_tol: f64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            prefetch_window: true,
            block_serialization: true,
            tracing: false,
            kernel: KernelSelect::default(),
            genb_workers: 2,
            fault_plan: None,
            retry: RetryPolicy::default(),
            comm_window: DEFAULT_CREDIT_WINDOW,
            intra_window: DEFAULT_CREDIT_WINDOW,
            link_shaper: LinkShaper::off(),
            intra_shaper: LinkShaper::off(),
            node_size: 1,
            collectives: Collectives::default(),
            delivery: DeliveryPolicy::InOrder,
            compress_tol: 0.0,
        }
    }
}

impl ExecOptions {
    /// Starts a fluent builder over the default options:
    /// `ExecOptions::builder().tracing(true).fault_plan(fp).build()`.
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder {
            opts: Self::default(),
        }
    }
}

/// Fluent builder for [`ExecOptions`] (see [`ExecOptions::builder`]); every
/// knob defaults to [`ExecOptions::default`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptionsBuilder {
    opts: ExecOptions,
}

impl ExecOptionsBuilder {
    /// Sets [`ExecOptions::prefetch_window`].
    pub fn prefetch_window(mut self, on: bool) -> Self {
        self.opts.prefetch_window = on;
        self
    }

    /// Sets [`ExecOptions::block_serialization`].
    pub fn block_serialization(mut self, on: bool) -> Self {
        self.opts.block_serialization = on;
        self
    }

    /// Sets [`ExecOptions::tracing`].
    pub fn tracing(mut self, on: bool) -> Self {
        self.opts.tracing = on;
        self
    }

    /// Sets [`ExecOptions::kernel`].
    pub fn kernel(mut self, kernel: KernelSelect) -> Self {
        self.opts.kernel = kernel;
        self
    }

    /// Sets [`ExecOptions::genb_workers`].
    pub fn genb_workers(mut self, workers: usize) -> Self {
        self.opts.genb_workers = workers;
        self
    }

    /// Enables fault injection with `plan` (see [`ExecOptions::fault_plan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.opts.fault_plan = Some(plan);
        self
    }

    /// Sets [`ExecOptions::retry`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// Sets [`ExecOptions::comm_window`] (clamped to ≥ 1).
    pub fn comm_window(mut self, window: usize) -> Self {
        self.opts.comm_window = window.max(1);
        self
    }

    /// Sets [`ExecOptions::intra_window`] (clamped to ≥ 1).
    pub fn intra_window(mut self, window: usize) -> Self {
        self.opts.intra_window = window.max(1);
        self
    }

    /// Sets [`ExecOptions::link_shaper`].
    pub fn link_shaper(mut self, shaper: LinkShaper) -> Self {
        self.opts.link_shaper = shaper;
        self
    }

    /// Sets [`ExecOptions::intra_shaper`].
    pub fn intra_shaper(mut self, shaper: LinkShaper) -> Self {
        self.opts.intra_shaper = shaper;
        self
    }

    /// Sets [`ExecOptions::node_size`] (clamped to ≥ 1).
    pub fn node_size(mut self, ranks_per_node: usize) -> Self {
        self.opts.node_size = ranks_per_node.max(1);
        self
    }

    /// Sets [`ExecOptions::collectives`].
    pub fn collectives(mut self, collectives: Collectives) -> Self {
        self.opts.collectives = collectives;
        self
    }

    /// Sets [`ExecOptions::delivery`].
    pub fn delivery(mut self, delivery: DeliveryPolicy) -> Self {
        self.opts.delivery = delivery;
        self
    }

    /// Sets [`ExecOptions::compress_tol`] (negative values clamp to 0.0,
    /// i.e. compression off).
    pub fn compress_tol(mut self, tol: f64) -> Self {
        self.opts.compress_tol = tol.max(0.0);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ExecOptions {
        self.opts
    }
}
