//! End-to-end tests of the collective communication primitives: node-aware
//! broadcast trees for A tiles, the fixed-shape C reduction tree, the
//! unicast comparison baseline, and fault recovery through interior tree
//! hops — all over the real `bst-comm` transport.

use bst_contract::exec::execute_numeric_with;
use bst_contract::{
    validate_trace_invariants, Collectives, DeliveryPolicy, DeviceConfig, ExecOptions, ExecReport,
    ExecutionPlan, FaultPlan, GridConfig, LinkClass, LinkShaper, PlannerConfig, ProblemSpec,
};
use bst_contract::engine::inspector::{self, Lowered, Op};
use bst_runtime::data::DataKey;
use bst_runtime::graph::WorkerId;
use bst_runtime::trace::TracePhase;
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::BlockSparseMatrix;

const GPU_MEM: u64 = 1 << 21;

fn tiny_spec() -> ProblemSpec {
    let prob = generate(&SyntheticParams {
        m: 160,
        n: 1280,
        k: 1280,
        density: 0.6,
        tile_min: 8,
        tile_max: 24,
        seed: 42,
    });
    ProblemSpec::new(prob.a, prob.b, None)
}

fn config(nodes: usize) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig::from_nodes(nodes, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: GPU_MEM,
        },
    )
}

fn run_nodes(spec: &ProblemSpec, nodes: usize, opts: ExecOptions) -> (BlockSparseMatrix, ExecReport) {
    let plan = ExecutionPlan::build(spec, config(nodes)).expect("plan");
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b_gen = move |k: usize, j: usize, r: usize, c: usize, pool: &bst_tile::TilePool| {
        Ok(std::sync::Arc::new(pool.random(r, c, tile_seed(42 ^ 0xB, k, j))))
    };
    execute_numeric_with(spec, &plan, &a, &b_gen, opts).expect("execution")
}

fn reference(spec: &ProblemSpec) -> BlockSparseMatrix {
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), 42);
    let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, c| {
        bst_tile::Tile::random(r, c, tile_seed(42 ^ 0xB, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    c_ref
}

/// Tree reductions combine partials in canonical `(i, j, origin)` order up
/// a fixed-shape tree, so seeded delivery reordering — which scrambles the
/// arrival order of C partials at every combining node — must not change a
/// single bit, on multi-rank physical nodes included.
#[test]
fn tree_reduction_reorder_is_bit_identical() {
    let spec = tiny_spec();
    let base = ExecOptions::builder().node_size(2).build();
    let (c_fifo, _) = run_nodes(&spec, 8, base);
    let diff_ref = c_fifo.max_abs_diff(&reference(&spec));
    assert!(diff_ref <= 1e-10, "tree-collective run diverged from reference: {diff_ref:.3e}");
    let (c_reorder, _) = run_nodes(
        &spec,
        8,
        ExecOptions::builder()
            .node_size(2)
            .delivery(DeliveryPolicy::Reorder { seed: 0xD00D, window: 7 })
            .build(),
    );
    assert_eq!(
        c_fifo.max_abs_diff(&c_reorder),
        0.0,
        "delivery reorder changed the tree reduction's bits"
    );
}

/// The unicast baseline (star broadcast, every partial shipped straight to
/// the root) brackets the C summation differently, so it agrees with the
/// tree collectives only to FP-rebracketing noise — while moving at least
/// twice the inter-node A-tile bytes on 4-rank physical nodes.
#[test]
fn tree_halves_inter_node_a_bytes_vs_unicast() {
    let spec = tiny_spec();
    let (c_tree, tree_report) = run_nodes(&spec, 8, ExecOptions::builder().node_size(4).build());
    let (c_uni, uni_report) = run_nodes(
        &spec,
        8,
        ExecOptions::builder().node_size(4).collectives(Collectives::Unicast).build(),
    );
    let diff = c_tree.max_abs_diff(&c_uni);
    assert!(diff <= 1e-10, "tree vs unicast diff {diff:.3e}");
    let (tree_a, uni_a) = (tree_report.a_network_inter_bytes, uni_report.a_network_inter_bytes);
    assert!(uni_a > 0, "unicast baseline moved no inter-node A bytes");
    assert!(
        2 * tree_a <= uni_a,
        "broadcast trees saved too little: {tree_a} vs {uni_a} inter-node A bytes"
    );
    // Total inter-node traffic (A tiles + C partials) shrinks too.
    let inter = |r: &ExecReport| r.comm.iter().map(|s| s.inter_sent_bytes).sum::<u64>();
    assert!(
        inter(&tree_report) <= inter(&uni_report),
        "tree collectives moved more inter-node bytes overall"
    );
    // On a single-rank-per-node topology the tree degenerates gracefully:
    // same inter-node A bytes as unicast (every link is a NIC link, and
    // each destination still receives the tile exactly once).
    let (_, flat_tree) = run_nodes(&spec, 8, ExecOptions::default());
    let (_, flat_uni) = run_nodes(
        &spec,
        8,
        ExecOptions::builder().collectives(Collectives::Unicast).build(),
    );
    assert_eq!(flat_tree.a_network_inter_bytes, flat_uni.a_network_inter_bytes);
}

/// Lowering is a pure function of the plan: the same plan lowered twice
/// gives the same task sequence — payloads, lanes and dependency lists, the
/// `SendA` broadcast hops included — under both collective shapes.
#[test]
fn lowering_the_same_plan_twice_is_identical() {
    let spec = tiny_spec();
    let plan = ExecutionPlan::build(&spec, config(8)).expect("plan");
    let unicast = ExecOptions::builder()
        .collectives(Collectives::Unicast)
        .build();
    for opts in [ExecOptions::builder().node_size(4).build(), unicast] {
        let tasks = |low: &Lowered| -> Vec<(Op, WorkerId, Vec<usize>)> {
            let g = &low.graph;
            (0..g.len())
                .map(|id| (g.payload(id).clone(), g.worker(id), g.deps(id).to_vec()))
                .collect()
        };
        let first = tasks(&inspector::lower(&spec, &plan, &opts));
        let sends = first
            .iter()
            .filter(|t| matches!(t.0, Op::SendA { .. }))
            .count();
        assert!(sends > 1, "the plan broadcasts no A tiles");
        for _ in 0..3 {
            let again = tasks(&inspector::lower(&spec, &plan, &opts));
            assert!(again == first, "lowering order changed");
        }
    }
}

/// Frame drops on *interior* broadcast-tree hops — a forwarder, not the
/// owner, losing the frame — recover bit-identically: the retried hop
/// re-reads the forwarder's still-unconsumed copy and the epoch-tagged
/// re-delivery reconverges.
#[test]
fn drop_recovery_through_interior_tree_hop() {
    let spec = tiny_spec();
    let (c_clean, _) = run_nodes(&spec, 8, ExecOptions::default());
    let opts = ExecOptions::builder()
        .tracing(true)
        .fault_plan(FaultPlan {
            seed: 11,
            send_rate: 0.3,
            ..FaultPlan::default()
        })
        .build();
    let (c_faulted, report) = run_nodes(&spec, 8, opts);
    assert_eq!(
        c_faulted.max_abs_diff(&c_clean),
        0.0,
        "drop recovery through the broadcast tree is not bit-identical"
    );
    // On a 1×8 grid A(i,k) is owned by rank k mod 8; a Failed frame whose
    // src is any other rank died on an interior (forwarding) hop.
    let trace = report.trace.as_ref().expect("traced");
    let interior_drops = trace
        .comm_events
        .iter()
        .filter(|e| e.phase == TracePhase::Failed)
        .filter(|e| matches!(e.key, DataKey::A(_, k) if e.src != k as usize % 8))
        .count();
    assert!(
        interior_drops > 0,
        "30% send-drop rate never hit an interior tree hop"
    );
    let violations = validate_trace_invariants(&report, opts, GPU_MEM);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Per-link-class plumbing end to end: distinct intra/inter credit windows
/// reach the per-node stats, both link classes accumulate shaped busy
/// time, and the traced transport stream labels every event's class.
#[test]
fn link_classes_are_shaped_and_windowed_independently() {
    let spec = tiny_spec();
    let opts = ExecOptions::builder()
        .tracing(true)
        .node_size(4)
        .comm_window(5)
        .intra_window(11)
        .link_shaper(LinkShaper::summit_nic())
        .intra_shaper(LinkShaper::summit_intra())
        .build();
    let (_, report) = run_nodes(&spec, 8, opts);
    let inter_busy: u64 = report.comm.iter().map(|s| s.inter_busy_ns).sum();
    let intra_busy: u64 = report.comm.iter().map(|s| s.intra_busy_ns).sum();
    assert!(inter_busy > 0, "inter-node shaping accumulated no busy time");
    assert!(intra_busy > 0, "intra-node shaping accumulated no busy time");
    for s in &report.comm {
        assert_eq!(s.credit_window, 5);
        assert_eq!(s.intra_credit_window, 11);
        assert!(s.max_in_flight <= 5, "inter window violated: {}", s.max_in_flight);
        assert!(s.intra_max_in_flight <= 11, "intra window violated: {}", s.intra_max_in_flight);
    }
    let trace = report.trace.as_ref().expect("traced");
    let classes: std::collections::HashSet<_> =
        trace.comm_events.iter().map(|e| e.class).collect();
    assert!(classes.contains(&LinkClass::Inter), "no inter-node events on 8 ranks / 2 nodes");
    assert!(classes.contains(&LinkClass::Intra), "no intra-node events on 4-rank nodes");
    assert!(
        !classes.contains(&LinkClass::Loopback),
        "loopback frames must not be recorded as traffic"
    );
}
