//! Per-layer measurements taken from outside the program: planning and
//! lowering under spans, kernel and codec micro-measurements on a
//! workload's own data, the `SendA` order fingerprint of a lowering, and the
//! extraction of engine counters from an [`ExecReport`].

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bst_contract::engine::inspector::{self, Lowered, Op};
use bst_contract::{ExecOptions, ExecReport, ExecutionPlan, PlanStats, PlannerConfig, ProblemSpec};
use bst_net::codec::{decode, encode};
use bst_net::Msg;
use bst_runtime::comm::{CPart, TileMsg, WireFrame};
use bst_runtime::data::DataKey;
use bst_sparse::BlockSparseMatrix;
use bst_tile::kernel::{measure_gflops, select_heuristic};
use bst_tile::Tile;

use crate::measure::{median, Tracer};
use crate::report::{Report, TASK_KINDS};
use crate::LOWERINGS;

/// The plan and inspector layers of one workload: `ExecutionPlan::build`
/// timed once, then `inspector::lower` [`LOWERINGS`] times on its plan.
/// Returns `lower.s`, the median lowering time.
pub fn plan_and_lower(
    report: &mut Report,
    tracer: &mut Tracer,
    spec: &ProblemSpec,
    config: PlannerConfig,
) -> Result<f64, String> {
    tracer.next_op();
    let plan = tracer
        .span("ExecutionPlan::build", |_| {
            ExecutionPlan::build(spec, config)
        })
        .map_err(|e| e.to_string())?;
    report.layer("plan.s", tracer.median_s("ExecutionPlan::build"));
    plan_layers(report, &plan.stats(spec));
    let opts = ExecOptions::default();
    let mut orders = Vec::new();
    for _ in 0..LOWERINGS {
        tracer.next_op();
        let low = tracer.span("inspector::lower", |_| inspector::lower(spec, &plan, &opts));
        orders.push(senda_order(&low));
        report.layer("lower.tasks", low.graph.len() as f64);
    }
    let lower_s = tracer.median_s("inspector::lower");
    report.layer("lower.s", lower_s);
    report.layer("lower.sendA_order_variants", distinct(&orders) as f64);
    Ok(lower_s)
}

/// Plan-layer counts from [`ExecutionPlan::stats`].
fn plan_layers(report: &mut Report, stats: &PlanStats) {
    report.layer("plan.gemm_tasks", stats.total_tasks as f64);
    report.layer("plan.blocks", stats.num_blocks as f64);
    report.layer("plan.chunks", stats.num_chunks as f64);
    report.layer("plan.imbalance", stats.load_imbalance);
    report.layer("plan.a_h2d_bytes", stats.a_h2d_bytes as f64);
    report.layer("plan.b_gen_bytes", stats.b_generated_bytes as f64);
}

/// Per-kind task metrics of a traced report (`ExecOptions::tracing`), plus
/// the buffer-pool and transport counters every engine report carries.
pub fn engine_layers(report: &mut Report, exec: &ExecReport) {
    task_layers(report, exec);
    let (hits, misses) = exec
        .pool_stats
        .iter()
        .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
    report.layer("pool.hit_rate", ratio(hits, hits + misses));
    report.layer(
        "comm.bytes",
        exec.comm.iter().map(|c| c.sent_bytes).sum::<u64>() as f64,
    );
    report.layer(
        "comm.msgs",
        exec.comm.iter().map(|c| c.sent_msgs).sum::<u64>() as f64,
    );
    report.layer(
        "comm.inter_bytes",
        exec.comm.iter().map(|c| c.inter_sent_bytes).sum::<u64>() as f64,
    );
    report.layer("comm.a_bytes", exec.a_network_bytes as f64);
}

/// Per-kind task counts, handler time and ready-queue time of a traced
/// report. For a `replay_dag` report these are simulated seconds.
pub fn task_layers(report: &mut Report, exec: &ExecReport) {
    for kind in TASK_KINDS {
        let m = exec.metrics.iter().find(|m| m.kind == *kind);
        let (count, exec_ns, queue_ns) =
            m.map_or((0, 0, 0), |m| (m.count, m.total_exec_ns, m.total_queue_ns));
        report.layer(&format!("task.{kind}.count"), count as f64);
        report.layer(&format!("task.{kind}.exec_s"), exec_ns as f64 / 1e9);
        report.layer(&format!("task.{kind}.queue_s"), queue_ns as f64 / 1e9);
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fingerprint of the order in which `low` emits its `SendA` tasks. The
/// same plan lowered twice should give the same fingerprint; differing
/// ones expose iteration over unordered maps in the inspector.
fn senda_order(low: &Lowered) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    for id in 0..low.graph.len() {
        if let Op::SendA { i, k, to } = low.graph.payload(id) {
            (i, k, to).hash(&mut h);
        }
    }
    h.finish()
}

/// Number of distinct values in `xs`.
fn distinct(xs: &[u64]) -> usize {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Single-thread GF/s of the heuristic kernel choice over a workload's own
/// GEMM shape mix (`gemm_shape_histogram`). The mix is sampled at evenly
/// spaced ranks of the task count, so each shape appears in proportion to
/// how often the plan runs it. Samples of one shape share their operands,
/// which stay cache-resident as a chunk's tiles do on the engine's lanes;
/// the samples run back to back for about `budget_s` seconds.
pub fn kernel_gflops(hist: &[((usize, usize, usize), u64)], budget_s: f64) -> f64 {
    const SAMPLES: u64 = 128;
    let total: u64 = hist.iter().map(|h| h.1).sum();
    assert!(total > 0, "kernel mix of an empty plan");
    let mut shapes = Vec::with_capacity(SAMPLES as usize);
    let (mut idx, mut cum) = (0, hist[0].1);
    for s in 0..SAMPLES {
        let rank = (2 * s + 1) * total / (2 * SAMPLES);
        while cum <= rank {
            idx += 1;
            cum += hist[idx].1;
        }
        shapes.push(hist[idx].0);
    }
    let mut operands: BTreeMap<(usize, usize, usize), (Tile, Tile, Tile)> = BTreeMap::new();
    for (s, &(m, n, k)) in shapes.iter().enumerate() {
        let s = s as u64;
        operands.entry((m, n, k)).or_insert_with(|| {
            (
                Tile::random(m, k, 2 * s),
                Tile::random(k, n, 2 * s + 1),
                Tile::zeros(m, n),
            )
        });
    }
    let flops_per_pass: f64 = shapes
        .iter()
        .map(|&(m, n, k)| 2.0 * (m * n * k) as f64)
        .sum();
    let mut pass = || {
        for shape in &shapes {
            let (a, b, c) = operands
                .get_mut(shape)
                .expect("operands for every sampled shape");
            select_heuristic(shape.0, shape.1, shape.2).run(1.0, a, b, c);
        }
    };
    pass();
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed().as_secs_f64() < budget_s {
        pass();
        passes += 1;
    }
    std::hint::black_box(&operands);
    f64::from(passes) * flops_per_pass / t0.elapsed().as_secs_f64() / 1e9
}

/// Edge of the fixed reference shape for `kernel.ref_gflops`, the shape
/// class of the repository's kernel benchmark.
const REF_EDGE: usize = 112;

/// Single-thread GF/s of the heuristic kernel on the fixed
/// `REF_EDGE`³ shape: median of three measurements.
pub fn kernel_ref_gflops() -> f64 {
    let kind = select_heuristic(REF_EDGE, REF_EDGE, REF_EDGE);
    let rates: Vec<f64> = (0..3)
        .map(|_| measure_gflops(kind, REF_EDGE, REF_EDGE, REF_EDGE))
        .collect();
    median(&rates)
}

/// Codec throughput in MB/s over a workload's wire traffic: every A tile
/// as a broadcast frame and every C tile as a reduction partial, encoded
/// then decoded. Encoded bytes count once per direction. A decoded tile
/// that differs from its source in any bit is an error.
pub fn codec_mb_per_s(a: &BlockSparseMatrix, c: &BlockSparseMatrix) -> Result<f64, String> {
    let mut frames: Vec<Msg> = a
        .iter_tile_arcs()
        .map(|(&(i, k), t)| {
            Msg::Wire(WireFrame::Tile {
                dst: 1,
                msg: TileMsg {
                    key: DataKey::A(i as u32, k as u32),
                    payload: Arc::clone(t),
                    epoch: 1,
                    src: 0,
                    consumers: 1,
                },
            })
        })
        .collect();
    frames.extend(c.iter_tiles().map(|(&(i, j), t)| {
        Msg::Wire(WireFrame::Part {
            dst: 0,
            src: 1,
            part: CPart {
                i,
                j,
                origin: (1, 0, 0),
                tile: t.clone(),
            },
        })
    }));
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode).collect();
    let decoded = encoded
        .iter()
        .map(|buf| decode(buf).map(|(msg, _)| msg))
        .collect::<Result<Vec<Msg>, _>>()
        .map_err(|e| format!("codec round trip failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    for (sent, got) in frames.iter().zip(&decoded) {
        let bits = |t: &Tile| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        if bits(tile_of(sent)) != bits(tile_of(got)) {
            return Err("codec round trip changed a tile".into());
        }
    }
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    Ok(2.0 * bytes as f64 / secs / 1e6)
}

fn tile_of(msg: &Msg) -> &Tile {
    match msg {
        Msg::Wire(WireFrame::Tile { msg, .. }) => &msg.payload,
        Msg::Wire(WireFrame::Part { part, .. }) => &part.tile,
        Msg::Ctl(_) => unreachable!("only data frames are measured"),
    }
}
