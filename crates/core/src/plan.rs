//! The inspector: building a complete [`ExecutionPlan`] and querying its
//! statistics.
//!
//! The plan is the exact analogue of the execution plan the paper's
//! inspection phase feeds to the generic PTG over PaRSEC: for every node,
//! the ordered blocks of each GPU; for every block, the ordered chunks of
//! `A` tiles; and (implicitly, re-enumerable on demand) the GEMM tasks of
//! every chunk. Data-flow edges follow from tile identities; control-flow
//! edges follow from the block/chunk ordering and the prefetch depth.

use crate::assign::{assign_columns_policy, column_weights};
use crate::chunk::{build_chunks, needed_tiles_per_row, Chunk};
use crate::config::{PlanError, PlannerConfig};
use crate::partition::{partition_spans_policy, split_column, Block, ColumnSpan};
use crate::spec::ProblemSpec;
use bst_tile::gemm::gemm_flops;
use std::collections::HashMap;

/// One tile-level GEMM task: `C_ij += A_ik · B_kj`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmTask {
    /// Tile row of `A`/`C`.
    pub i: u32,
    /// Inner tile index.
    pub k: u32,
    /// Tile column of `B`/`C`.
    pub j: u32,
}

/// A block together with its chunk schedule.
#[derive(Clone, Debug)]
pub struct BlockPlan {
    /// The columns and footprint of the block.
    pub block: Block,
    /// Chunk sequence streaming the needed `A` tiles.
    pub chunks: Vec<Chunk>,
}

/// The ordered blocks of one GPU.
#[derive(Clone, Debug, Default)]
pub struct GpuPlan {
    /// Blocks in execution order.
    pub blocks: Vec<BlockPlan>,
}

/// Everything one node executes.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Grid-row index (`0..p`) — selects the `A` slice `i ≡ grid_row (mod p)`.
    pub grid_row: usize,
    /// Grid-column index (`0..q`).
    pub grid_col: usize,
    /// All `B` tile columns assigned to this node.
    pub columns: Vec<usize>,
    /// Per-GPU block/chunk schedules.
    pub gpus: Vec<GpuPlan>,
}

/// The full inspector product for one contraction.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// The configuration the plan was built for.
    pub config: PlannerConfig,
    /// Node plans, row-major (`node = grid_row · q + grid_col`).
    pub nodes: Vec<NodePlan>,
    /// Flat indices of the nodes this plan treats as permanently failed
    /// (sorted). Empty for a healthy plan.
    pub dead_nodes: Vec<usize>,
}

impl ExecutionPlan {
    /// Builds the plan: column assignment, block partitioning and chunking
    /// for every node of the grid (§3.2.1–§3.2.3).
    ///
    /// Node plans are independent once the per-row column assignment is
    /// known, so they are built in parallel (rayon) — the inspection phase
    /// stays a negligible fraction of execution even at Summit scale
    /// (§3.2.4).
    pub fn build(spec: &ProblemSpec, config: PlannerConfig) -> Result<Self, PlanError> {
        Self::build_with(spec, config, &[])
    }

    /// Builds the plan with the nodes in `dead_nodes` (flat indices,
    /// `grid_row · q + grid_col`) treated as permanently failed: their `B`
    /// columns are re-assigned among the *surviving* nodes of the same grid
    /// row (graceful degradation after a node loss), and their plans come
    /// out empty. The grid shape is unchanged — a dead node's host memory
    /// is assumed to survive, so the `A` distribution and broadcast trees
    /// still include it; only its generators and GPUs are written off.
    ///
    /// Fails with [`PlanError::NoSurvivingNodes`] if a grid row loses all
    /// `q` of its nodes.
    pub fn build_with(
        spec: &ProblemSpec,
        config: PlannerConfig,
        dead_nodes: &[usize],
    ) -> Result<Self, PlanError> {
        use rayon::prelude::*;
        let (p, q) = (config.grid.p, config.grid.q);
        // (grid_row, grid_col, columns) descriptors, then parallel lowering.
        let mut descriptors = Vec::with_capacity(p * q);
        for row in 0..p {
            let alive: Vec<usize> = (0..q)
                .filter(|&c| !dead_nodes.contains(&(row * q + c)))
                .collect();
            if alive.is_empty() {
                return Err(PlanError::NoSurvivingNodes { row });
            }
            let weights = column_weights(spec, row, p);
            // Assign over the surviving slots only, then map each slot back
            // to its grid column; dead nodes get no columns.
            let (cols_per_slot, _) =
                assign_columns_policy(&weights, alive.len(), config.assign_policy);
            let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); q];
            for (slot, cols) in cols_per_slot.into_iter().enumerate() {
                per_col[alive[slot]] = cols;
            }
            for (col_idx, cols) in per_col.into_iter().enumerate() {
                descriptors.push((row, col_idx, cols));
            }
        }
        let nodes: Result<Vec<NodePlan>, PlanError> = descriptors
            .into_par_iter()
            .map(|(row, col_idx, cols)| Self::build_node(spec, &config, row, col_idx, cols))
            .collect();
        let mut dead: Vec<usize> = dead_nodes.to_vec();
        dead.sort_unstable();
        dead.dedup();
        Ok(Self {
            config,
            nodes: nodes?,
            dead_nodes: dead,
        })
    }

    /// Whether this plan was built around one or more dead nodes. Degraded
    /// plans must never be cached under the healthy structure key.
    pub fn is_degraded(&self) -> bool {
        !self.dead_nodes.is_empty()
    }

    /// Builds one node's plan (§3.2.2 + §3.2.3).
    fn build_node(
        spec: &ProblemSpec,
        config: &PlannerConfig,
        row: usize,
        col_idx: usize,
        cols: Vec<usize>,
    ) -> Result<NodePlan, PlanError> {
        let (p, g) = (config.grid.p, config.device.gpus_per_node);
        // Column spans: whole columns where they fit, k-segmented parts
        // where the densest columns exceed the block budget.
        let mut spans: Vec<ColumnSpan> = Vec::with_capacity(cols.len());
        let mut footprints: Vec<u64> = Vec::with_capacity(cols.len());
        for &j in &cols {
            let c_bytes = spec.c_col_bytes(j, row, p);
            let k_tiles: Vec<(usize, u64)> = spec
                .b
                .col_rows(j)
                .iter()
                .map(|&k| (k as usize, spec.b.tile_bytes(k as usize, j)))
                .collect();
            for (span, bytes) in
                split_column(j, spec.tile_inner(), &k_tiles, c_bytes, config.block_budget())?
            {
                spans.push(span);
                footprints.push(bytes);
            }
        }
        let partition =
            partition_spans_policy(&spans, &footprints, g, config.block_budget(), config.pack_policy);
        let mut gpus = Vec::with_capacity(g);
        for gpu_blocks in partition.gpus {
            let mut plan_blocks = Vec::with_capacity(gpu_blocks.len());
            for block in gpu_blocks {
                let rows = needed_tiles_per_row(spec, &block, row, p);
                let chunks = build_chunks(spec, &rows, config.chunk_budget())?;
                plan_blocks.push(BlockPlan { block, chunks });
            }
            gpus.push(GpuPlan {
                blocks: plan_blocks,
            });
        }
        Ok(NodePlan {
            grid_row: row,
            grid_col: col_idx,
            columns: cols,
            gpus,
        })
    }

    /// The plan of node `(grid_row, grid_col)`.
    pub fn node(&self, grid_row: usize, grid_col: usize) -> &NodePlan {
        &self.nodes[grid_row * self.config.grid.q + grid_col]
    }

    /// Enumerates the GEMM tasks of one chunk (within `block`), in load
    /// order of the `A` tiles. This re-derives tasks from structure instead
    /// of storing them, keeping plans small even for hundreds of millions of
    /// tasks.
    pub fn for_each_chunk_task(
        spec: &ProblemSpec,
        block: &Block,
        chunk: &Chunk,
        mut f: impl FnMut(GemmTask),
    ) {
        for &(i, k) in &chunk.tiles {
            for span in &block.spans {
                let j = span.col as usize;
                if span.contains(k as usize)
                    && spec.b.shape().is_nonzero(k as usize, j)
                    && spec.c_kept(i as usize, j)
                {
                    f(GemmTask { i, k, j: span.col });
                }
            }
        }
    }

    /// Enumerates every GEMM task of the plan, node by node.
    pub fn for_each_task(&self, spec: &ProblemSpec, mut f: impl FnMut(&NodePlan, usize, GemmTask)) {
        for node in &self.nodes {
            for (gi, gpu) in node.gpus.iter().enumerate() {
                for bp in &gpu.blocks {
                    for chunk in &bp.chunks {
                        Self::for_each_chunk_task(spec, &bp.block, chunk, |t| f(node, gi, t));
                    }
                }
            }
        }
    }

    /// The distribution of GEMM tile shapes this plan will execute:
    /// `((m, n, k), task_count)` entries, sorted by shape. Kernel
    /// benchmarks (`repro_kernels`, `perfbench`) measure the kernels on the
    /// shapes the instance actually runs, weighted by how often they occur.
    pub fn gemm_shape_histogram(&self, spec: &ProblemSpec) -> Vec<((usize, usize, usize), u64)> {
        let mut hist: HashMap<(usize, usize, usize), u64> = HashMap::new();
        self.for_each_task(spec, |_, _, t| {
            let m = spec.a.row_tiling().size(t.i as usize) as usize;
            let n = spec.b.col_tiling().size(t.j as usize) as usize;
            let k = spec.a.col_tiling().size(t.k as usize) as usize;
            *hist.entry((m, n, k)).or_insert(0) += 1;
        });
        let mut out: Vec<_> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Computes plan-level statistics (see [`PlanStats`]).
    pub fn stats(&self, spec: &ProblemSpec) -> PlanStats {
        let (p, q) = (self.config.grid.p, self.config.grid.q);
        let kt = spec.tile_inner();
        let mut stats = PlanStats::default();
        let mut node_flops: Vec<u128> = Vec::with_capacity(self.nodes.len());

        for node in &self.nodes {
            let mut flops: u128 = 0;
            let mut tasks: u64 = 0;
            // Union of A tiles this node needs.
            let mut needed = vec![false; spec.tile_rows() * kt];
            for gpu in &node.gpus {
                for bp in &gpu.blocks {
                    stats.num_blocks += 1;
                    stats.max_block_bytes = stats.max_block_bytes.max(bp.block.bytes);
                    stats.num_chunks += bp.chunks.len() as u64;
                    for chunk in &bp.chunks {
                        stats.a_h2d_bytes += chunk.bytes;
                        for &(i, k) in &chunk.tiles {
                            needed[i as usize * kt + k as usize] = true;
                        }
                        Self::for_each_chunk_task(spec, &bp.block, chunk, |t| {
                            tasks += 1;
                            flops += gemm_flops(
                                spec.a.row_tiling().size(t.i as usize),
                                spec.b.col_tiling().size(t.j as usize),
                                spec.a.col_tiling().size(t.k as usize),
                            ) as u128;
                        });
                    }
                    stats.bc_h2d_bytes += bp.block.bytes;
                }
            }
            // A tiles that must cross the network: needed but owned
            // elsewhere (A is 2D-cyclic: tile (i,k) lives on node
            // (i mod p, k mod q)).
            for i in (node.grid_row..spec.tile_rows()).step_by(p) {
                for k in 0..kt {
                    if needed[i * kt + k] && k % q != node.grid_col {
                        stats.a_network_bytes +=
                            spec.a.tile_area(i, k) * bst_sparse::structure::ELEM_BYTES;
                    }
                }
            }
            // C tiles produced here but owned elsewhere (C follows A's row
            // distribution and a 2D-cyclic column distribution).
            for &j in &node.columns {
                if j % q != node.grid_col {
                    stats.c_network_bytes += spec.c_col_bytes(j, node.grid_row, p);
                }
            }
            // B is generated on this node: its assigned columns.
            for &j in &node.columns {
                stats.b_generated_bytes += spec.b.col_bytes(j);
            }
            stats.total_tasks += tasks;
            stats.total_flops += flops;
            node_flops.push(flops);
        }

        let max = node_flops.iter().copied().max().unwrap_or(0);
        let mean = if node_flops.is_empty() {
            0.0
        } else {
            node_flops.iter().sum::<u128>() as f64 / node_flops.len() as f64
        };
        stats.load_imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        stats
    }
}

/// Aggregate statistics of a plan — the quantities the paper's §3.2.4
/// analysis bounds (inspection cost, communication volume) plus memory and
/// balance diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Total GEMM tasks across all nodes.
    pub total_tasks: u64,
    /// Total flops across all nodes.
    pub total_flops: u128,
    /// Number of blocks.
    pub num_blocks: u64,
    /// Number of chunks.
    pub num_chunks: u64,
    /// Largest block footprint (must be ≤ the block budget).
    pub max_block_bytes: u64,
    /// Bytes of `A` tiles crossing the node interconnect (broadcast traffic).
    pub a_network_bytes: u64,
    /// Bytes of produced `C` tiles returning to their owner nodes.
    pub c_network_bytes: u64,
    /// Bytes of `A` transferred host→device (counts chunk re-loads).
    pub a_h2d_bytes: u64,
    /// Bytes of `B`+`C` transferred host→device (each exactly once).
    pub bc_h2d_bytes: u64,
    /// Bytes of `B` generated on CPUs (counts per-grid-row replicas).
    pub b_generated_bytes: u64,
    /// Max node flops / mean node flops (1.0 = perfect balance).
    pub load_imbalance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, GridConfig};
    use bst_sparse::MatrixStructure;
    use bst_tile::Tiling;

    fn spec(m: u64, k: u64, n: u64, tile: u64) -> ProblemSpec {
        let a = MatrixStructure::dense(Tiling::uniform(m, tile), Tiling::uniform(k, tile));
        let b = MatrixStructure::dense(Tiling::uniform(k, tile), Tiling::uniform(n, tile));
        ProblemSpec::new(a, b, None)
    }

    fn config(p: usize, q: usize, g: usize, mem: u64) -> PlannerConfig {
        PlannerConfig::paper(
            GridConfig { p, q },
            DeviceConfig {
                gpus_per_node: g,
                gpu_mem_bytes: mem,
            },
        )
    }

    #[test]
    fn dense_plan_covers_all_tasks() {
        let s = spec(8, 12, 16, 2); // 4x6 A tiles, 6x8 B tiles
        let plan = ExecutionPlan::build(&s, config(2, 2, 2, 4096)).unwrap();
        let stats = plan.stats(&s);
        assert_eq!(stats.total_tasks, 4 * 6 * 8);
        assert_eq!(stats.total_flops, 2 * 8 * 12 * 16);
    }

    #[test]
    fn each_task_exactly_once() {
        let s = spec(8, 12, 16, 2);
        let plan = ExecutionPlan::build(&s, config(2, 2, 2, 4096)).unwrap();
        let mut seen = std::collections::HashSet::new();
        plan.for_each_task(&s, |node, _gpu, t| {
            assert!(seen.insert(t), "task {t:?} duplicated");
            assert_eq!(t.i as usize % 2, node.grid_row, "task outside slice");
        });
        assert_eq!(seen.len(), 4 * 6 * 8);
    }

    #[test]
    fn blocks_respect_budget_and_columns_partition() {
        let s = spec(8, 40, 60, 2);
        let cfg = config(1, 3, 2, 2000);
        let plan = ExecutionPlan::build(&s, cfg).unwrap();
        let mut col_seen = vec![false; s.tile_cols()];
        for node in &plan.nodes {
            for gpu in &node.gpus {
                for bp in &gpu.blocks {
                    assert!(bp.block.bytes <= cfg.block_budget());
                    for chunk in &bp.chunks {
                        assert!(chunk.bytes <= cfg.chunk_budget());
                    }
                }
            }
            for &j in &node.columns {
                assert!(!col_seen[j], "column {j} on two nodes");
                col_seen[j] = true;
            }
        }
        assert!(col_seen.iter().all(|&s| s), "column lost");
    }

    #[test]
    fn sparse_plan_skips_zero_pairs() {
        let mut s = spec(8, 12, 16, 2);
        s.a.shape_mut().zero_out(0, 0);
        s.b.shape_mut().zero_out(1, 3);
        let plan = ExecutionPlan::build(&s, config(1, 2, 1, 4096)).unwrap();
        let mut count = 0u64;
        plan.for_each_task(&s, |_, _, t| {
            assert!(s.a.shape().is_nonzero(t.i as usize, t.k as usize));
            assert!(s.b.shape().is_nonzero(t.k as usize, t.j as usize));
            count += 1;
        });
        // Dense 4*6*8 = 192, minus 8 (A(0,0) pairs with 8 B columns) minus 4
        // (B(1,3) pairs with 4 A rows).
        assert_eq!(count, 192 - 8 - 4);
    }

    #[test]
    fn c_screening_reduces_tasks() {
        let mut s = spec(8, 12, 16, 2);
        let mut cs = bst_sparse::SparseShape::dense(4, 8);
        cs.zero_out(2, 5);
        s.c_shape = Some(cs);
        let plan = ExecutionPlan::build(&s, config(1, 2, 1, 4096)).unwrap();
        let stats = plan.stats(&s);
        assert_eq!(stats.total_tasks, 192 - 6); // C(2,5) loses its 6 k-contributions
    }

    #[test]
    fn grid_rows_partition_a_rows() {
        let s = spec(8, 12, 16, 2);
        let plan = ExecutionPlan::build(&s, config(2, 1, 1, 1 << 20)).unwrap();
        // Node (0,·) must only touch even tile rows, node (1,·) odd ones.
        for node in &plan.nodes {
            for gpu in &node.gpus {
                for bp in &gpu.blocks {
                    for chunk in &bp.chunks {
                        for &(i, _) in &chunk.tiles {
                            assert_eq!(i as usize % 2, node.grid_row);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_has_no_network_traffic() {
        let s = spec(8, 12, 16, 2);
        let plan = ExecutionPlan::build(&s, config(1, 1, 2, 1 << 20)).unwrap();
        let stats = plan.stats(&s);
        assert_eq!(stats.a_network_bytes, 0);
        assert_eq!(stats.c_network_bytes, 0);
    }

    #[test]
    fn wider_grid_broadcasts_more_a() {
        let s = spec(8, 40, 60, 2);
        let st1 = ExecutionPlan::build(&s, config(1, 2, 1, 1 << 20))
            .unwrap()
            .stats(&s);
        let st2 = ExecutionPlan::build(&s, config(1, 4, 1, 1 << 20))
            .unwrap()
            .stats(&s);
        assert!(st2.a_network_bytes > st1.a_network_bytes);
    }

    #[test]
    fn more_grid_rows_cut_a_traffic_but_replicate_b() {
        let s = spec(16, 40, 60, 2);
        let flat = ExecutionPlan::build(&s, config(1, 4, 1, 1 << 20))
            .unwrap()
            .stats(&s);
        let tall = ExecutionPlan::build(&s, config(2, 2, 1, 1 << 20))
            .unwrap()
            .stats(&s);
        assert!(
            tall.a_network_bytes < flat.a_network_bytes,
            "p=2 should reduce A broadcast ({} !< {})",
            tall.a_network_bytes,
            flat.a_network_bytes
        );
        assert_eq!(tall.b_generated_bytes, 2 * flat.b_generated_bytes);
    }

    #[test]
    fn oversized_column_propagates_error() {
        let s = spec(8, 12, 16, 8); // single big tiles
        let err = ExecutionPlan::build(&s, config(1, 1, 1, 512)).unwrap_err();
        assert!(matches!(err, PlanError::ColumnTooLarge { .. }));
    }

    #[test]
    fn a_h2d_at_least_union_bytes() {
        let s = spec(8, 12, 16, 2);
        let plan = ExecutionPlan::build(&s, config(1, 1, 1, 1 << 20)).unwrap();
        let stats = plan.stats(&s);
        // Single node, single GPU, everything fits: A loaded exactly once.
        assert_eq!(stats.a_h2d_bytes, s.a.bytes());
        assert_eq!(stats.bc_h2d_bytes, s.b.bytes() + 8 * 16 * 8);
    }

    #[test]
    fn degraded_replan_moves_columns_to_row_peers() {
        let s = spec(8, 40, 60, 2);
        let cfg = config(2, 3, 2, 2000);
        let full = ExecutionPlan::build(&s, cfg).unwrap();
        // Kill node (0,1) = flat index 1.
        let degraded = ExecutionPlan::build_with(&s, cfg, &[1]).unwrap();
        let dead = degraded.node(0, 1);
        assert!(dead.columns.is_empty());
        assert!(dead.gpus.iter().all(|g| g.blocks.is_empty()));
        // Row 0 still covers every column, on the two survivors only.
        let mut col_seen = vec![false; s.tile_cols()];
        for c in 0..3 {
            for &j in &degraded.node(0, c).columns {
                assert!(!col_seen[j]);
                col_seen[j] = true;
            }
        }
        assert!(col_seen.iter().all(|&x| x), "row 0 lost a column");
        // Row 1 is untouched by a row-0 failure.
        for c in 0..3 {
            assert_eq!(degraded.node(1, c).columns, full.node(1, c).columns);
        }
        // The degraded plan still enumerates every task exactly once.
        let mut seen = std::collections::HashSet::new();
        degraded.for_each_task(&s, |_, _, t| assert!(seen.insert(t)));
        let mut full_seen = std::collections::HashSet::new();
        full.for_each_task(&s, |_, _, t| assert!(full_seen.insert(t)));
        assert_eq!(seen, full_seen);
    }

    #[test]
    fn degraded_replan_rejects_empty_row() {
        let s = spec(8, 12, 16, 2);
        let cfg = config(2, 2, 1, 1 << 20);
        let err = ExecutionPlan::build_with(&s, cfg, &[2, 3]).unwrap_err();
        assert_eq!(err, PlanError::NoSurvivingNodes { row: 1 });
    }

    #[test]
    fn load_imbalance_reasonable() {
        let s = spec(8, 40, 64, 2);
        let stats = ExecutionPlan::build(&s, config(1, 4, 1, 1 << 20))
            .unwrap()
            .stats(&s);
        assert!(stats.load_imbalance >= 1.0);
        assert!(stats.load_imbalance < 1.2, "imbalance {}", stats.load_imbalance);
    }
}
