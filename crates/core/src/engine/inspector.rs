//! The inspector: lowering an [`ExecutionPlan`] to the task DAG the engine
//! executes (the paper's §4 PTG materialisation).
//!
//! [`lower`] is **data-free** — it reads only the plan and the problem's
//! structure (tilings + shapes), never tile values — so the same lowering
//! serves the numeric executor (`crate::engine::run`) and the `bst-sim`
//! discrete-event replay: both execute *structurally identical* DAGs, and
//! the trace invariants validate either.
//!
//! The DAG has two families of edges:
//!
//! * **dataflow** — `GenB → LoadBlock` (a block transfer needs its B tiles
//!   generated), `SendA → RecvA → LoadA` (each broadcast hop is a real
//!   send/receive pair over [`bst_runtime::comm`]: the send puts the
//!   message on the wire, the receive completes when the destination's
//!   progress thread has deposited it, and only then may a device transfer
//!   read the tile), `LoadA/LoadBlock → Gemm`, `Gemm(i,·,j) → Gemm(i,·,j)`
//!   (successive accumulations into one C tile are chained, fixing the
//!   floating-point order so delivery timing is numerically unobservable),
//!   `Gemm/LoadA → EvictChunk`, `EvictChunk/LoadBlock → FlushBlock`;
//! * **control flow** — `FlushBlock(b) → LoadBlock(b+1)` (§3.2.2 blocking
//!   block transfers) and `EvictChunk(n−1−depth) → LoadA(chunk n)` (§3.2.3
//!   prefetch window). Control edges never change the result — removing
//!   them only breaks the device-memory budget, which the memory manager
//!   reports as an OOM, exactly like the real GPU would.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bst_runtime::comm::Topology;
use bst_runtime::graph::{TaskGraph, TaskId, WorkerId};

use super::policies::{Collectives, ExecOptions};
use crate::partition::Block;
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;

/// The task vocabulary of the lowered DAG.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Send `A(i,k)` from its owner (this task's node) to `to`.
    SendA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
        /// Destination node.
        to: usize,
    },
    /// Receive `A(i,k)` on this task's node: complete when the message from
    /// `from` has been deposited into the node-private store.
    RecvA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
        /// Sending node.
        from: usize,
    },
    /// Generate `B(k,j)` on this node's CPU.
    GenB {
        /// B-tile row.
        k: u32,
        /// B-tile column.
        j: u32,
    },
    /// Load a block's B columns and allocate its C tiles on the device.
    LoadBlock {
        /// Owning node.
        node: usize,
        /// GPU index within the node.
        gpu: usize,
        /// Block index within the GPU's sequence.
        block: usize,
    },
    /// Transfer `A(i,k)` host→device for a chunk.
    LoadA {
        /// A-tile row.
        i: u32,
        /// A-tile column.
        k: u32,
    },
    /// `C_ij += A_ik · B_kj` on the device.
    Gemm {
        /// C/A-tile row.
        i: u32,
        /// Contraction tile index.
        k: u32,
        /// C/B-tile column.
        j: u32,
    },
    /// Free the A tiles of a chunk.
    EvictChunk {
        /// Owning node.
        node: usize,
        /// GPU index within the node.
        gpu: usize,
        /// Block index within the GPU's sequence.
        block: usize,
        /// Chunk index within the block.
        chunk: usize,
    },
    /// Write back and free the block's C tiles, free its B tiles.
    FlushBlock {
        /// Owning node.
        node: usize,
        /// GPU index within the node.
        gpu: usize,
        /// Block index within the GPU's sequence.
        block: usize,
    },
    /// Combine the C partials delivered to this node in canonical
    /// `(i, j, origin)` order and forward the combined partials one hop up
    /// the reduction tree (tree collectives only; the root re-deposits its
    /// combined partials for final assembly).
    ReduceC {
        /// The combining node.
        node: usize,
    },
}

impl Op {
    /// The per-kind aggregation label.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::SendA { .. } => "SendA",
            Op::RecvA { .. } => "RecvA",
            Op::GenB { .. } => "GenB",
            Op::LoadBlock { .. } => "LoadBlock",
            Op::LoadA { .. } => "LoadA",
            Op::Gemm { .. } => "Gemm",
            Op::EvictChunk { .. } => "EvictChunk",
            Op::FlushBlock { .. } => "FlushBlock",
            Op::ReduceC { .. } => "ReduceC",
        }
    }

    /// Compact instance label. Stable format — the trace-invariant tests
    /// parse these (`Gemm(i,k,j)`, `LoadA(i,k)`, `LoadBlock(b)`,
    /// `EvictChunk(b,c)`, `FlushBlock(b)`, `SendA(i,k->n)`,
    /// `RecvA(i,k<-n)`, `GenB(k,j)`, `ReduceC(n)`).
    pub fn detail(&self) -> String {
        match self {
            Op::SendA { i, k, to } => format!("SendA({i},{k}->{to})"),
            Op::RecvA { i, k, from } => format!("RecvA({i},{k}<-{from})"),
            Op::GenB { k, j } => format!("GenB({k},{j})"),
            Op::LoadBlock { block, .. } => format!("LoadBlock({block})"),
            Op::LoadA { i, k } => format!("LoadA({i},{k})"),
            Op::Gemm { i, k, j } => format!("Gemm({i},{k},{j})"),
            Op::EvictChunk { block, chunk, .. } => format!("EvictChunk({block},{chunk})"),
            Op::FlushBlock { block, .. } => format!("FlushBlock({block})"),
            Op::ReduceC { node } => format!("ReduceC({node})"),
        }
    }
}

/// The node owning `A(i,k)` under the 2D-cyclic distribution over a
/// `p × q` grid (row-major node numbering).
pub fn owner_of(p: usize, q: usize, i: usize, k: usize) -> usize {
    debug_assert!(p > 0 && q > 0);
    (i % p) * q + (k % q)
}

/// A node's CPU lane (lane 0: `SendA` hops, plus legacy serialised `GenB`).
pub fn cpu_lane(node: usize) -> WorkerId {
    WorkerId { node, lane: 0 }
}

/// A node's GPU executor lane (`1..=gpus_per_node`).
pub fn gpu_lane(node: usize, gpu: usize) -> WorkerId {
    WorkerId { node, lane: 1 + gpu }
}

/// A node's dedicated `GenB` worker lane; these sit above the GPU lanes
/// (`lane = 1 + gpus_per_node + worker`).
pub fn genb_lane(gpus_per_node: usize, node: usize, worker: usize) -> WorkerId {
    WorkerId {
        node,
        lane: 1 + gpus_per_node + worker,
    }
}

/// The `(k, j)` B tiles a block transfers, in the exact order the
/// `LoadBlock` / `FlushBlock` handlers (and the bst-sim replay) walk them.
pub fn block_b_tiles(spec: &ProblemSpec, block: &Block) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    for span in &block.spans {
        let j = span.col as usize;
        for k in spec.b.shape().nonzero_rows_in_col(j) {
            if span.contains(k) {
                tiles.push((k, j));
            }
        }
    }
    tiles
}

/// The `(i, j)` C tiles a block allocates and flushes for a node on grid
/// row `grid_row` of a `p`-row grid, in handler walk order.
pub fn block_c_tiles(
    spec: &ProblemSpec,
    block: &Block,
    grid_row: usize,
    p: usize,
) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    for j in block.distinct_columns() {
        for i in spec.c_col_support(j, grid_row, p) {
            tiles.push((i, j));
        }
    }
    tiles
}

/// An `A` tile viewed from a node: the key of the broadcast/consumption
/// maps in [`Lowered`].
pub type NodeTile = (usize, (u32, u32));

/// Broadcast fan-out: `(node, tile) → nodes that node forwards the tile
/// to` — a topology-aware tree under [`Collectives::Tree`], a one-level
/// star from the owner under [`Collectives::Unicast`].
pub type TreeChildren = Arc<HashMap<NodeTile, Vec<usize>>>;

/// One node's role in the fixed C-reduction tree
/// ([`Collectives::Tree`] lowering only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReduceNode {
    /// Parent one hop up the tree (`None` at the reduction root).
    pub parent: Option<usize>,
    /// C partials delivered into this node before its combine runs: its own
    /// flush partials plus one combined partial per key of each child.
    /// Structural — from the plan, never from delivery timing — which is
    /// what pins the summation bracketing.
    pub expected: usize,
    /// The distinct `(i, j)` keys this node's combined output carries
    /// (sorted): the union of its local C tiles and its children's keys.
    pub keys: Vec<(usize, usize)>,
}

/// The inspector's output: the task DAG plus the broadcast/consumption
/// bookkeeping the handlers (numeric or simulated) need to drive it.
pub struct Lowered {
    /// The task DAG (dataflow + control edges).
    pub graph: TaskGraph<Op>,
    /// Every worker lane tasks are pinned to: per node, the CPU lane, the
    /// GPU lanes, then the `GenB` worker lanes.
    pub workers: Vec<WorkerId>,
    /// `LoadA` count per `(node, A tile)` — the device-load consumer
    /// refcount of each tile on each node.
    pub a_loads: HashMap<NodeTile, usize>,
    /// `(owner, tile) → destination nodes` needing the tile remotely,
    /// ordered by key so every lowering emits its `SendA` tasks in the same
    /// order.
    pub sends: BTreeMap<NodeTile, Vec<usize>>,
    /// Broadcast trees: `(node, tile) → nodes this node forwards
    /// the tile to` (the A broadcast "happens in the background, at the
    /// tile granularity", §4).
    pub tree_children: TreeChildren,
    /// The node-aware topology the trees were routed over.
    pub topology: Topology,
    /// Per-node reduction-tree roles, indexed by node
    /// ([`Collectives::Tree`] only; `None` under [`Collectives::Unicast`],
    /// where every partial ships straight to the reduction root).
    pub reduce: Option<Vec<ReduceNode>>,
}

impl Lowered {
    /// Consumer refcount of `A` tile `t` on `node`: local device loads plus
    /// tree hops forwarded from there.
    pub fn a_consumers(&self, node: usize, t: (u32, u32)) -> usize {
        self.a_loads.get(&(node, t)).copied().unwrap_or(0)
            + self
                .tree_children
                .get(&(node, t))
                .map(|v| v.len())
                .unwrap_or(0)
    }

    /// The SPMD projection for multi-process execution: the sub-DAG of
    /// tasks pinned to node `rank`, with cross-node edges dropped.
    ///
    /// Every process lowers the *full* plan (so broadcast trees, consumer
    /// refcounts and reduction shapes are globally consistent), then keeps
    /// only its own node's tasks. The dropped edges are exactly the ones
    /// whose ordering the transport already enforces at runtime:
    /// `SendA → RecvA` (the `RecvA` body blocks in
    /// [`bst_runtime::comm::CommFabric::wait_delivered`] until the frame
    /// arrives over the wire) and child-combine → parent-`ReduceC` (the
    /// parent blocks in `take_reduced_at_least` for its structural count).
    /// Relative task order is preserved, so the `dep < task` lowering
    /// invariant keeps holding in the projection; the broadcast/consumption
    /// maps stay global — a forwarder still needs the full fan-out picture.
    pub fn restrict(&self, rank: usize) -> Lowered {
        // The blocking waiters (`RecvA` in `wait_delivered`, `ReduceC` in
        // `take_reduced_at_least`) move off the CPU lane onto a dedicated
        // wait lane. In-process, the DAG's cross-node edges guarantee their
        // frames are already in flight when they run; in the projection
        // those edges are gone, so every `RecvA` is ready at seed time —
        // and a blocking wait at the head of the shared CPU lane would
        // starve the `SendA` hops queued behind it (two ranks each blocked
        // ahead of the very send the other is waiting for). With lane 0
        // send-only, progress is inductive over the broadcast tree depth.
        let wait_lane = 1 + self
            .workers
            .iter()
            .filter(|w| w.node == rank)
            .map(|w| w.lane)
            .max()
            .unwrap_or(0);
        let mut graph: TaskGraph<Op> = TaskGraph::new();
        let mut remap: HashMap<TaskId, TaskId> = HashMap::new();
        for id in 0..self.graph.len() {
            let mut w = self.graph.worker(id);
            if w.node != rank {
                continue;
            }
            if matches!(self.graph.payload(id), Op::RecvA { .. } | Op::ReduceC { .. }) {
                w = WorkerId { node: rank, lane: wait_lane };
            }
            let new_id = graph.add_task(self.graph.payload(id).clone(), w);
            for &dep in self.graph.deps(id) {
                if let Some(&mapped) = remap.get(&dep) {
                    graph.add_dep(new_id, mapped);
                }
            }
            remap.insert(id, new_id);
        }
        let mut workers: Vec<WorkerId> =
            self.workers.iter().copied().filter(|w| w.node == rank).collect();
        workers.push(WorkerId { node: rank, lane: wait_lane });
        Lowered {
            graph,
            workers,
            a_loads: self.a_loads.clone(),
            sends: self.sends.clone(),
            tree_children: self.tree_children.clone(),
            topology: self.topology,
            reduce: self.reduce.clone(),
        }
    }
}

/// Lowers `plan` to the task DAG. Pure in `(spec structure, plan, opts)` —
/// no tile data is touched, so simulation and numeric execution share it.
pub fn lower(spec: &ProblemSpec, plan: &ExecutionPlan, opts: &ExecOptions) -> Lowered {
    let (p, q) = (plan.config.grid.p, plan.config.grid.q);
    let g = plan.config.device.gpus_per_node;
    let n_nodes = p * q;

    // ---- Pass 1: count LoadA tasks per (node, tile) ---------------------
    let mut a_loads: HashMap<(usize, (u32, u32)), usize> = HashMap::new();
    for (ni, node) in plan.nodes.iter().enumerate() {
        for gpu in &node.gpus {
            for bp in &gpu.blocks {
                for chunk in &bp.chunks {
                    for &t in &chunk.tiles {
                        *a_loads.entry((ni, t)).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    // sends[(owner, tile)] = destination nodes needing the tile remotely.
    // Keys are visited in sorted order (here and in every loop over
    // `sends`), so the lowering is a pure function of the plan: destination
    // lists, tree fan-outs and the `SendA` emission order never depend on
    // hash-map iteration order.
    let mut load_keys: Vec<NodeTile> = a_loads.keys().copied().collect();
    load_keys.sort_unstable();
    let mut sends: BTreeMap<NodeTile, Vec<usize>> = BTreeMap::new();
    for (ni, t) in load_keys {
        let owner = owner_of(p, q, t.0 as usize, t.1 as usize);
        if owner != ni {
            sends.entry((owner, t)).or_default().push(ni);
        }
    }
    // Broadcast shapes: under Tree collectives, a node-aware hierarchical
    // tree (binomial over physical-node leaders, binomial inside each node)
    // spreads the forwarding load and crosses the inter-node link the
    // minimum number of times; under Unicast, the owner sends to every
    // destination point-to-point (the comparison baseline).
    let topology = Topology::new(n_nodes, opts.node_size.max(1));
    let mut tree_children: HashMap<(usize, (u32, u32)), Vec<usize>> = HashMap::new();
    for (&(owner, t), dests) in &sends {
        match opts.collectives {
            Collectives::Unicast => {
                let mut sorted = dests.clone();
                sorted.sort_unstable();
                tree_children.insert((owner, t), sorted);
            }
            Collectives::Tree => {
                for (parent, child) in topology.bcast_children(owner, dests) {
                    tree_children.entry((parent, t)).or_default().push(child);
                }
            }
        }
    }
    let tree_children = Arc::new(tree_children);

    // ---- Pass 2: build the task graph ------------------------------------
    let mut graph: TaskGraph<Op> = TaskGraph::new();

    // GenB tasks, one per (node, B tile), dealt round-robin across the
    // node's GenB workers so generation overlaps.
    let mut genb_ids: HashMap<(usize, (u32, u32)), TaskId> = HashMap::new();
    let mut genb_rr = vec![0usize; n_nodes];
    for (ni, node) in plan.nodes.iter().enumerate() {
        for &j in &node.columns {
            for k in spec.b.shape().nonzero_rows_in_col(j) {
                let key = (ni, (k as u32, j as u32));
                if genb_ids.contains_key(&key) {
                    continue;
                }
                let worker = if opts.genb_workers == 0 {
                    cpu_lane(ni)
                } else {
                    let w = genb_rr[ni] % opts.genb_workers;
                    genb_rr[ni] += 1;
                    genb_lane(g, ni, w)
                };
                let id = graph.add_task(
                    Op::GenB {
                        k: k as u32,
                        j: j as u32,
                    },
                    worker,
                );
                genb_ids.insert(key, id);
            }
        }
    }

    // SendA/RecvA pairs (the background broadcast of A across grid rows),
    // following the binomial trees: each hop is a real message — the send
    // runs on the forwarding node's CPU lane and puts the tile on the wire,
    // the receive runs on the destination's CPU lane and completes when the
    // destination's progress thread deposited it. Each hop forwards from
    // the node that just *received* the tile.
    let mut recva_ids: HashMap<(usize, (u32, u32)), TaskId> = HashMap::new();
    for &(owner, t) in sends.keys() {
        // BFS over the tree so a hop's delivering recv exists before the
        // hops that forward from its destination.
        let mut frontier = vec![owner];
        while let Some(from) = frontier.pop() {
            let Some(children) = tree_children.get(&(from, t)) else {
                continue;
            };
            for &to in children {
                let send = graph.add_task(Op::SendA { i: t.0, k: t.1, to }, cpu_lane(from));
                if from != owner {
                    // A forwarding hop may read the tile only after its own
                    // node received it.
                    graph.add_dep(send, recva_ids[&(from, t)]);
                }
                let recv = graph.add_task(Op::RecvA { i: t.0, k: t.1, from }, cpu_lane(to));
                graph.add_dep(recv, send);
                recva_ids.insert((to, t), recv);
                frontier.push(to);
            }
        }
    }

    // Per-GPU block/chunk pipelines.
    let mut flush_ids: Vec<Vec<TaskId>> = vec![Vec::new(); n_nodes];
    for (ni, node) in plan.nodes.iter().enumerate() {
        for (gi, gpu) in node.gpus.iter().enumerate() {
            let lane = gpu_lane(ni, gi);
            let mut prev_flush: Option<TaskId> = None;
            // Last Gemm into each C tile: chaining them fixes the
            // floating-point accumulation order per tile, so the numeric
            // result is bit-identical however message delivery (and thus
            // ready order) interleaves.
            let mut last_gemm_on_c: HashMap<(u32, u32), TaskId> = HashMap::new();
            // Evict ids of the GPU-global chunk sequence (across blocks):
            // chunk n's loads wait on chunk n−2's evict — one chunk active,
            // one prefetching.
            let mut evict_ids: Vec<TaskId> = Vec::new();
            for (bi, bp) in gpu.blocks.iter().enumerate() {
                let load_block = graph.add_task(
                    Op::LoadBlock {
                        node: ni,
                        gpu: gi,
                        block: bi,
                    },
                    lane,
                );
                if let (Some(f), true) = (prev_flush, opts.block_serialization) {
                    graph.add_dep(load_block, f); // control: blocking block transfer
                }
                for (k, j) in block_b_tiles(spec, &bp.block) {
                    graph.add_dep(load_block, genb_ids[&(ni, (k as u32, j as u32))]);
                }
                let mut chunk_evicts = Vec::with_capacity(bp.chunks.len());
                for (ci, chunk) in bp.chunks.iter().enumerate() {
                    // Prefetch window: chunk n's transfers wait on the evict
                    // of chunk n - 1 - depth (depth chunks in flight beyond
                    // the one computing).
                    let window = plan.config.prefetch_depth + 1;
                    let window_dep = if evict_ids.len() >= window {
                        Some(evict_ids[evict_ids.len() - window])
                    } else {
                        None
                    };
                    let mut load_ids = BTreeMap::new();
                    for &t in &chunk.tiles {
                        let id = graph.add_task(Op::LoadA { i: t.0, k: t.1 }, lane);
                        if let (Some(wd), true) = (window_dep, opts.prefetch_window) {
                            graph.add_dep(id, wd); // control: prefetch window
                        }
                        if let Some(&recv) = recva_ids.get(&(ni, t)) {
                            graph.add_dep(id, recv); // dataflow: network arrival
                        }
                        load_ids.insert(t, id);
                    }
                    let mut gemm_ids = Vec::new();
                    ExecutionPlan::for_each_chunk_task(spec, &bp.block, chunk, |t| {
                        let id = graph.add_task(
                            Op::Gemm {
                                i: t.i,
                                k: t.k,
                                j: t.j,
                            },
                            lane,
                        );
                        graph.add_dep(id, load_ids[&(t.i, t.k)]);
                        graph.add_dep(id, load_block);
                        if let Some(&prev) = last_gemm_on_c.get(&(t.i, t.j)) {
                            graph.add_dep(id, prev); // determinism: C accumulation order
                        }
                        last_gemm_on_c.insert((t.i, t.j), id);
                        gemm_ids.push(id);
                    });
                    let evict = graph.add_task(
                        Op::EvictChunk {
                            node: ni,
                            gpu: gi,
                            block: bi,
                            chunk: ci,
                        },
                        lane,
                    );
                    for gid in gemm_ids {
                        graph.add_dep(evict, gid);
                    }
                    for lid in load_ids.values() {
                        graph.add_dep(evict, *lid);
                    }
                    evict_ids.push(evict);
                    chunk_evicts.push(evict);
                }
                let flush = graph.add_task(
                    Op::FlushBlock {
                        node: ni,
                        gpu: gi,
                        block: bi,
                    },
                    lane,
                );
                graph.add_dep(flush, load_block);
                for e in chunk_evicts {
                    graph.add_dep(flush, e);
                }
                flush_ids[ni].push(flush);
                prev_flush = Some(flush);
            }
        }
    }

    // ReduceC tasks (Tree collectives): one combine per node, walking the
    // fixed reduction tree of the topology. Children are lowered before
    // parents (reduction parents always have lower rank), and each combine
    // depends on its node's flushes plus its children's combines — so the
    // *set* of partials a combine waits for is structural, and the
    // summation bracketing is independent of delivery timing.
    let reduce = match opts.collectives {
        Collectives::Unicast => None,
        Collectives::Tree => {
            // Local partial counts and distinct local keys per node.
            let mut local_count = vec![0usize; n_nodes];
            let mut subtree_keys: Vec<BTreeSet<(usize, usize)>> =
                vec![BTreeSet::new(); n_nodes];
            for (ni, node) in plan.nodes.iter().enumerate() {
                for gpu in &node.gpus {
                    for bp in &gpu.blocks {
                        let tiles = block_c_tiles(spec, &bp.block, node.grid_row, p);
                        local_count[ni] += tiles.len();
                        subtree_keys[ni].extend(tiles);
                    }
                }
            }
            // Fold children into parents, highest rank first (every child's
            // rank exceeds its parent's), fixing expected counts and keys.
            let mut nodes: Vec<ReduceNode> = (0..n_nodes)
                .map(|ni| ReduceNode {
                    parent: topology.reduce_parent(ni),
                    expected: local_count[ni],
                    keys: Vec::new(),
                })
                .collect();
            for ni in (1..n_nodes).rev() {
                let parent = nodes[ni].parent.expect("non-root has a parent");
                nodes[parent].expected += subtree_keys[ni].len();
                let keys = std::mem::take(&mut subtree_keys[ni]);
                subtree_keys[parent].extend(keys.iter().copied());
                nodes[ni].keys = keys.into_iter().collect();
            }
            nodes[0].keys = std::mem::take(&mut subtree_keys[0]).into_iter().collect();

            let mut reduce_ids: Vec<Option<TaskId>> = vec![None; n_nodes];
            for ni in (0..n_nodes).rev() {
                let id = graph.add_task(Op::ReduceC { node: ni }, cpu_lane(ni));
                for &f in &flush_ids[ni] {
                    graph.add_dep(id, f);
                }
                for child in topology.reduce_children(ni) {
                    graph.add_dep(id, reduce_ids[child].expect("children lowered first"));
                }
                reduce_ids[ni] = Some(id);
            }
            Some(nodes)
        }
    };

    let mut workers: Vec<WorkerId> = Vec::new();
    for ni in 0..n_nodes {
        workers.push(cpu_lane(ni));
        for gi in 0..g {
            workers.push(gpu_lane(ni, gi));
        }
        for wi in 0..opts.genb_workers {
            workers.push(genb_lane(g, ni, wi));
        }
    }

    Lowered {
        graph,
        workers,
        a_loads,
        sends,
        tree_children,
        topology,
        reduce,
    }
}
