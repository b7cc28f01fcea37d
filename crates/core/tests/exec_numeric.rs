//! End-to-end numeric-execution tests, exercised purely through the public
//! facade (`bst_contract::exec`). Formerly the unit-test module of the
//! `exec.rs` monolith; after the engine split they live here so they keep
//! gating the *public* surface, not the engine internals.

use std::sync::Arc;

use bst_contract::exec::{execute_numeric, execute_numeric_with};
use bst_contract::{
    DeviceConfig, ExecError, ExecOptions, ExecutionPlan, FaultPlan, GenError, GridConfig,
    KernelSelect, PlannerConfig, ProblemSpec, RetryPolicy,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_sparse::matrix::tile_seed;
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::pool::TilePool;
use bst_tile::Tiling;

fn cfg(p: usize, q: usize, g: usize, mem: u64) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig { p, q },
        DeviceConfig {
            gpus_per_node: g,
            gpu_mem_bytes: mem,
        },
    )
}

/// Runs the full pipeline and compares against the single-threaded
/// block-sparse reference.
fn check(spec: &ProblemSpec, config: PlannerConfig, seed: u64) {
    let plan = ExecutionPlan::build(spec, config).unwrap();
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), seed);
    let b = BlockSparseMatrix::random_from_structure(spec.b.clone(), seed ^ 0xB);
    let b_gen = |k: usize, j: usize, rows: usize, cols: usize, pool: &TilePool| {
        let t = pool.random(rows, cols, tile_seed(seed ^ 0xB, k, j));
        assert_eq!(b.tile(k, j).unwrap(), &t, "b_gen consistent with matrix");
        Ok(Arc::new(t))
    };
    let (c, report) = execute_numeric(spec, &plan, &a, &b_gen).expect("fault-free run");

    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&a, &b);
    let c_ref = if let Some(cs) = &spec.c_shape {
        let mut masked =
            BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
        for (&(i, j), t) in c_ref.iter_tiles() {
            if cs.is_nonzero(i, j) {
                masked.insert_tile(i, j, t.clone());
            }
        }
        masked
    } else {
        c_ref
    };
    assert!(
        c.max_abs_diff(&c_ref) < 1e-9,
        "distributed result disagrees with reference"
    );
    assert!(report.gemm_tasks > 0);
}

#[test]
fn dense_single_node_single_gpu() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 3), Tiling::uniform(10, 4));
    let b = MatrixStructure::dense(Tiling::uniform(10, 4), Tiling::uniform(12, 5));
    let spec = ProblemSpec::new(a, b, None);
    check(&spec, cfg(1, 1, 1, 1 << 20), 1);
}

#[test]
fn dense_grid_2x2_2gpus() {
    let a = MatrixStructure::dense(Tiling::uniform(12, 3), Tiling::uniform(16, 4));
    let b = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(20, 5));
    let spec = ProblemSpec::new(a, b, None);
    check(&spec, cfg(2, 2, 2, 1 << 20), 2);
}

#[test]
fn sparse_irregular_many_nodes() {
    let prob = generate(&SyntheticParams {
        m: 40,
        n: 120,
        k: 100,
        density: 0.5,
        tile_min: 5,
        tile_max: 17,
        seed: 7,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    check(&spec, cfg(2, 3, 2, 1 << 20), 3);
}

#[test]
fn screened_c_shape() {
    let prob = generate(&SyntheticParams {
        m: 30,
        n: 80,
        k: 60,
        density: 0.6,
        tile_min: 4,
        tile_max: 12,
        seed: 9,
    });
    let mut cs = prob.c.shape().clone();
    let mut removed = 0;
    'outer: for i in 0..cs.rows() {
        for j in 0..cs.cols() {
            if cs.is_nonzero(i, j) && (i + j) % 3 == 0 {
                cs.zero_out(i, j);
                removed += 1;
                if removed >= 5 {
                    break 'outer;
                }
            }
        }
    }
    let spec = ProblemSpec::new(prob.a, prob.b, Some(cs));
    check(&spec, cfg(1, 2, 2, 1 << 20), 11);
}

#[test]
fn tight_memory_forces_many_blocks_and_chunks() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    // One B column: 24x4 doubles = 768 B; C col: 16x4 = 512 B; total
    // 1280 ≤ block budget → mem ≥ 2560. Chunk budget 650 = 5 A tiles.
    let config = cfg(1, 1, 1, 2600);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let stats = plan.stats(&spec);
    assert!(stats.num_blocks >= 6, "expected many blocks, got {}", stats.num_blocks);
    assert!(stats.num_chunks > stats.num_blocks);
    // A must be re-transferred for every block.
    assert!(stats.a_h2d_bytes > spec.a.bytes());
    check(&spec, config, 5);
}

#[test]
fn p2_matches_p1() {
    let prob = generate(&SyntheticParams {
        m: 24,
        n: 60,
        k: 60,
        density: 0.7,
        tile_min: 4,
        tile_max: 10,
        seed: 13,
    });
    let spec = ProblemSpec::new(prob.a, prob.b, None);
    check(&spec, cfg(1, 4, 1, 1 << 20), 17);
    check(&spec, cfg(2, 2, 1, 1 << 20), 17);
    check(&spec, cfg(4, 1, 1, 1 << 20), 17);
}

/// Both control-edge families off, devices sized exactly for the
/// disciplined schedule: the scheduler races ahead and the memory
/// manager faults — the §4 justification for the control DAG. The OOM
/// surfaces as a typed [`ExecError::DeviceOom`] instead of a panic.
#[test]
fn removing_control_edges_causes_device_oom() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 1, 1, 2600);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 5);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(5 ^ 0xB, k, j))))
    };
    // Sanity: with the control edges the very same plan runs fine
    // (checked by `tight_memory_forces_many_blocks_and_chunks`).
    let err = execute_numeric_with(
        &spec,
        &plan,
        &am,
        &b_gen,
        ExecOptions::builder()
            .prefetch_window(false)
            .block_serialization(false)
            .build(),
    )
    .unwrap_err();
    assert!(
        matches!(err, ExecError::DeviceOom { node: 0, gpu: 0, .. }),
        "expected a typed device OOM, got {err}"
    );
}

#[test]
fn tracing_populates_metrics_and_trace() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 2, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute_numeric_with(
        &spec,
        &plan,
        &am,
        &b_gen,
        ExecOptions::builder().tracing(true).build(),
    )
    .unwrap();
    let trace = report.trace.as_ref().expect("trace requested");
    assert!(trace.total_ns > 0);
    // Every op kind that this dense 1x2 problem exercises shows up.
    let gemm = report.metrics.iter().find(|m| m.kind == "Gemm").unwrap();
    assert_eq!(gemm.count, report.gemm_tasks);
    let genb = report.metrics.iter().find(|m| m.kind == "GenB").unwrap();
    assert_eq!(genb.count, report.b_tiles_generated);
    // One record per task, each with a coherent span.
    assert_eq!(
        report.metrics.iter().map(|m| m.count).sum::<u64>(),
        trace.records.len() as u64
    );
    for r in &trace.records {
        assert!(r.span.ready_ns <= r.span.start_ns && r.span.start_ns <= r.span.end_ns);
    }
    // Device occupancy was sampled on every device and drains to zero.
    assert_eq!(trace.mem_samples.len(), report.devices.len());
    for ((_, _), samples) in &trace.mem_samples {
        assert!(!samples.is_empty());
        assert_eq!(samples.last().unwrap().1, 0, "all memory released");
    }
    // The exporters produce non-trivial output.
    let json = trace.chrome_trace_json();
    assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"C\""));
    let summary = report.text_summary(1 << 20);
    assert!(summary.contains("Gemm") && summary.contains("n0.g0"), "{summary}");
}

#[test]
fn untraced_report_has_no_trace() {
    let a = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let b = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute_numeric(&spec, &plan, &am, &b_gen).unwrap();
    assert!(report.trace.is_none());
    assert!(report.metrics.is_empty());
    assert!(!report.recovery.any(), "zero-fault run reported recovery");
}

#[test]
fn broadcast_tree_forwards_through_non_owners() {
    // A wide grid row (q = 4): every dense A tile is needed on three
    // remote nodes, so the binomial tree must route at least one hop
    // through a non-owner — and the result must stay exact.
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(16, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 4, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(2, k, j))))
    };
    let (c, report) = execute_numeric(&spec, &plan, &am, &b_gen).unwrap();
    assert!(
        report.a_forward_messages > 0,
        "expected tree forwarding ({} messages total)",
        report.a_messages
    );
    // Total messages = tree edges = number of (node, tile) deliveries.
    assert_eq!(
        report.a_messages,
        plan.stats(&spec).a_network_bytes / (2 * 2 * 8)
    );
    let bm = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
        bst_tile::Tile::random(r, cc, tile_seed(2, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-9);
}

#[test]
fn report_counts_network_and_gemms() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 2, 1, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let b_gen = |_k: usize, _j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, 0)))
    };
    let (_c, report) = execute_numeric(&spec, &plan, &am, &b_gen).unwrap();
    assert_eq!(report.gemm_tasks, 4 * 4 * 4);
    let expect_net = plan.stats(&spec).a_network_bytes;
    assert_eq!(report.a_network_bytes, expect_net);
    assert_eq!(report.b_tiles_generated, 16);
    assert_eq!(report.devices.len(), 2);
}

/// Both kernel-selection modes produce the same numbers (within fp
/// associativity), the report names the variants that ran, and the
/// per-node tile pools actually recycle buffers on a multi-block run.
#[test]
fn kernel_modes_agree_and_pools_recycle() {
    let a = MatrixStructure::dense(Tiling::uniform(16, 4), Tiling::uniform(24, 4));
    let b = MatrixStructure::dense(Tiling::uniform(24, 4), Tiling::uniform(24, 4));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(1, 1, 1, 2600); // tight: many blocks → pool reuse
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 5);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        Ok(Arc::new(pool.random(r, c, tile_seed(5 ^ 0xB, k, j))))
    };

    let run = |kernel: KernelSelect| {
        execute_numeric_with(
            &spec,
            &plan,
            &am,
            &b_gen,
            ExecOptions::builder().kernel(kernel).build(),
        )
        .unwrap()
    };
    let (c_base, r_base) = run(KernelSelect::Baseline);
    let (c_heur, r_heur) = run(KernelSelect::Heuristic);
    assert!(c_base.max_abs_diff(&c_heur) < 1e-10);
    // Selection is timing-independent: a second run is bit-identical.
    let (c_again, _) = run(KernelSelect::Heuristic);
    assert_eq!(c_heur.max_abs_diff(&c_again), 0.0);

    // Baseline pins every Gemm to the blocked kernel; the dispatcher
    // reports whatever it actually chose, totalling all Gemm tasks.
    assert_eq!(r_base.gemm_kernel_counts, vec![("blocked", r_base.gemm_tasks)]);
    assert_eq!(r_heur.gemm_kernel_counts, vec![("simd", r_heur.gemm_tasks)]);

    // The single node's pool saw reuse: later blocks' C zero-fills and
    // generated B tiles come from recycled buffers.
    assert_eq!(r_heur.pool_stats.len(), 1);
    let ps = &r_heur.pool_stats[0];
    assert!(ps.hits > 0, "no pool reuse on a multi-block run: {ps:?}");
    assert!(ps.released > 0, "flushed B buffers never returned: {ps:?}");
}

/// `ExecReport::max_concurrent_genb` measures real overlap from the trace:
/// the fan-out executor reaches > 1, the serialized one stays at 1.
#[test]
fn genb_fanout_overlaps_and_legacy_serializes() {
    let a = MatrixStructure::dense(Tiling::uniform(12, 3), Tiling::uniform(36, 3));
    let b = MatrixStructure::dense(Tiling::uniform(36, 3), Tiling::uniform(36, 3));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 3);
    // On a loaded (or single-core) machine two short GenB spans may never
    // be preempted mid-task, so force a rendezvous: the first generator
    // call spins until a second call is in flight. With real fan-out the
    // second worker arrives and both spans overlap; on the serialized
    // path the spin times out alone and no spans ever overlap.
    let entered = std::sync::atomic::AtomicUsize::new(0);
    let b_gen = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        use std::sync::atomic::Ordering;
        let t = pool.random(r, c, tile_seed(3 ^ 0xB, k, j));
        entered.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        while entered.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok(Arc::new(t))
    };
    let run = |genb_workers: usize| {
        execute_numeric_with(
            &spec,
            &plan,
            &am,
            &b_gen,
            ExecOptions::builder()
                .tracing(true)
                .genb_workers(genb_workers)
                .build(),
        )
        .unwrap()
        .1
    };
    assert!(run(4).max_concurrent_genb() > 1, "4 GenB workers never overlapped");
    assert_eq!(run(0).max_concurrent_genb(), 1, "legacy path must serialize");
}

/// A permanent generator failure aborts the run with the typed error;
/// a transient one is retried to success and counted in the report.
#[test]
fn generator_failures_abort_or_recover_by_transience() {
    let a = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let b = MatrixStructure::dense(Tiling::uniform(8, 2), Tiling::uniform(8, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);

    let permanent = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        if (k, j) == (1, 2) {
            Err(GenError::Failed {
                k,
                j,
                reason: "backend gone".into(),
                transient: false,
            })
        } else {
            Ok(Arc::new(pool.random(r, c, 0)))
        }
    };
    let err = execute_numeric(&spec, &plan, &am, &permanent).unwrap_err();
    assert_eq!(
        err,
        ExecError::Gen(GenError::Failed {
            k: 1,
            j: 2,
            reason: "backend gone".into(),
            transient: false,
        })
    );

    // Transient: every tile's first generation attempt fails.
    let tried = std::sync::Mutex::new(std::collections::HashSet::new());
    let flaky = |k: usize, j: usize, r: usize, c: usize, pool: &TilePool| {
        if tried.lock().unwrap().insert((k, j)) {
            Err(GenError::Failed {
                k,
                j,
                reason: "timeout".into(),
                transient: true,
            })
        } else {
            Ok(Arc::new(pool.random(r, c, tile_seed(7, k, j))))
        }
    };
    let (c, report) = execute_numeric(&spec, &plan, &am, &flaky).unwrap();
    assert_eq!(report.recovery.retried_tasks, report.b_tiles_generated);
    assert_eq!(report.recovery.max_attempts, 2);
    let bm = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, cc| {
        bst_tile::Tile::random(r, cc, tile_seed(7, k, j))
    });
    let mut c_ref =
        BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c_ref.gemm_acc_reference(&am, &bm);
    assert!(c.max_abs_diff(&c_ref) < 1e-9, "recovered result wrong");
}

/// A budget too small for the generator's failure streak surfaces as
/// `RetryExhausted` carrying the last cause.
#[test]
fn retry_budget_exhaustion_reports_exhausted() {
    let a = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let b = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(4, 2));
    let spec = ProblemSpec::new(a, b, None);
    let plan = ExecutionPlan::build(&spec, cfg(1, 1, 1, 1 << 20)).unwrap();
    let am = BlockSparseMatrix::random_from_structure(spec.a.clone(), 1);
    let always_fail = |k: usize, j: usize, _r: usize, _c: usize, _p: &TilePool| {
        Err(GenError::Failed {
            k,
            j,
            reason: "hard down".into(),
            transient: true,
        })
    };
    let err = execute_numeric_with(
        &spec,
        &plan,
        &am,
        &always_fail,
        ExecOptions::builder()
            .retry(RetryPolicy { budget: 2, backoff_base_us: 0, backoff_max_us: 0 })
            .build(),
    )
    .unwrap_err();
    match err {
        ExecError::RetryExhausted { detail, attempts, cause } => {
            assert!(detail.starts_with("GenB("), "{detail}");
            assert_eq!(attempts, 2);
            assert!(cause.contains("hard down"), "{cause}");
        }
        other => panic!("expected RetryExhausted, got {other}"),
    }
}

/// The fluent builder produces the same options as `Default` when
/// untouched and sets every knob it exposes. (The policy-combination
/// matrix lives in `tests/policy_matrix.rs`.)
#[test]
fn builder_matches_default_and_sets_knobs() {
    let d = ExecOptions::default();
    let b = ExecOptions::builder().build();
    assert_eq!(
        (b.prefetch_window, b.block_serialization, b.tracing, b.genb_workers),
        (d.prefetch_window, d.block_serialization, d.tracing, d.genb_workers)
    );
    assert_eq!(b.kernel, d.kernel);
    assert!(b.fault_plan.is_none());
    let fp = FaultPlan::transient(9, 0.05);
    let o = ExecOptions::builder()
        .prefetch_window(false)
        .block_serialization(false)
        .tracing(true)
        .kernel(KernelSelect::Baseline)
        .genb_workers(7)
        .fault_plan(fp)
        .retry(RetryPolicy { budget: 9, backoff_base_us: 1, backoff_max_us: 2 })
        .build();
    assert!(!o.prefetch_window && !o.block_serialization && o.tracing);
    assert_eq!(o.kernel, KernelSelect::Baseline);
    assert_eq!(o.genb_workers, 7);
    assert_eq!(o.fault_plan, Some(fp));
    assert_eq!(o.retry.budget, 9);
}

/// Runs one low-rank-friendly problem twice — dense and at `tol` — and
/// returns `(c_dense, c_lossy, dense_sent_bytes, lossy_sent_bytes)`.
fn lossy_pair(tol: f64) -> (BlockSparseMatrix, BlockSparseMatrix, u64, u64) {
    // Tiles with geometrically decaying spectra (σ_p = e^{-1.5 p}): rank ~9
    // reaches 1e-6, well under the 32×32 profitability ceiling of 15.
    let a = MatrixStructure::dense(Tiling::uniform(96, 32), Tiling::uniform(64, 32));
    let b = MatrixStructure::dense(Tiling::uniform(64, 32), Tiling::uniform(96, 32));
    let spec = ProblemSpec::new(a, b, None);
    let config = cfg(2, 2, 2, 1 << 20);
    let plan = ExecutionPlan::build(&spec, config).unwrap();
    let am = BlockSparseMatrix::from_structure(spec.a.clone(), |r, c, rows, cols| {
        bst_tile::Tile::random_lowrank(rows, cols, tile_seed(31, r, c), 1.5)
    });
    let b_gen = |k: usize, j: usize, rows: usize, cols: usize, _p: &TilePool| {
        Ok(Arc::new(bst_tile::Tile::random_lowrank(
            rows,
            cols,
            tile_seed(31 ^ 0xB, k, j),
            1.5,
        )))
    };
    let run = |tol: f64| {
        let opts = ExecOptions::builder().compress_tol(tol).build();
        execute_numeric_with(&spec, &plan, &am, &b_gen, opts).expect("run")
    };
    let (c_dense, rep_dense) = run(0.0);
    let (c_lossy, rep_lossy) = run(tol);
    let sent = |rep: &bst_contract::exec::ExecReport| {
        rep.comm.iter().map(|n| n.sent_bytes).sum::<u64>()
    };
    (c_dense, c_lossy, sent(&rep_dense), sent(&rep_lossy))
}

/// A positive tolerance keeps the result within a small multiple of the
/// requested accuracy while strictly shrinking the bytes on the wire.
#[test]
fn compression_tolerance_bounds_error_and_cuts_wire_bytes() {
    let tol = 1e-6;
    let (c_dense, c_lossy, dense_bytes, lossy_bytes) = lossy_pair(tol);
    assert!(
        lossy_bytes < dense_bytes,
        "compressed run must ship fewer bytes ({lossy_bytes} vs {dense_bytes})"
    );
    let diff = c_lossy.max_abs_diff(&c_dense);
    assert!(
        diff < 1e-3,
        "lossy result drifted too far from dense: {diff:.3e}"
    );
    assert!(diff > 0.0, "a 1e-6 truncation should not be exact");
}

/// `compress_tol == 0.0` takes the dense code path everywhere — results are
/// bit-identical to the default options, not merely close.
#[test]
fn zero_tolerance_is_bit_identical() {
    let (c_dense, c_zero, dense_bytes, zero_bytes) = lossy_pair(0.0);
    assert_eq!(dense_bytes, zero_bytes);
    assert_eq!(c_zero.max_abs_diff(&c_dense), 0.0);
}
