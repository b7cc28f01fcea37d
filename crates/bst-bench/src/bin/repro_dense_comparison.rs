//! Reproduces the paper's §5.1 comparison with its reference \[22\]:
//! "Comparing with the results that were obtained in \[22\] on the same
//! machine ... 80% to 90% of the GEMM-peak should be achievable. This
//! difference is due to the problem shape, which required a different
//! algorithm."
//!
//! Runs the dense-oriented *stationary-C* algorithm and the paper's
//! *stationary-B* algorithm on (a) the square dense 48k problem and (b) a
//! short-and-wide CCSD-shaped problem, showing the crossover that
//! motivated the paper's design.
//!
//! Usage: `repro_dense_comparison`

use bst_bench::synthetic_spec;
use bst_contract::stationary_c::StationaryCPlan;
use bst_contract::{DeviceConfig, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec};
use bst_sim::replay::simulate_best_p;
use bst_sim::stationary::simulate_stationary_c;
use bst_sim::{simulate, Platform};
use bst_sparse::generate::{generate, SyntheticParams};

fn stationary_c_best_p(
    spec: &ProblemSpec,
    platform: &Platform,
) -> (usize, bst_sim::stationary::StationaryCReport) {
    let mut best: Option<(usize, bst_sim::stationary::StationaryCReport)> = None;
    for p in 1..=platform.nodes {
        if !platform.nodes.is_multiple_of(p) {
            continue;
        }
        let config = PlannerConfig::paper(
            GridConfig::from_nodes(platform.nodes, p),
            DeviceConfig {
                gpus_per_node: platform.gpus_per_node,
                gpu_mem_bytes: platform.gpu_mem_bytes,
            },
        );
        if let Ok(plan) = StationaryCPlan::build(spec, config) {
            let blocks: usize = plan
                .nodes
                .iter()
                .flat_map(|n| n.iter())
                .map(|g| g.blocks.len())
                .sum();
            let r = simulate_stationary_c(spec, &plan, platform);
            eprintln!(
                "  [stationary-C] p={p}: {:.3} s, {:.1} Tflop/s, {blocks} blocks, {:.1} GB h2d",
                r.makespan_s,
                r.tflops(),
                r.h2d_bytes as f64 / 1e9
            );
            if best.as_ref().map(|(_, b)| r.makespan_s < b.makespan_s).unwrap_or(true) {
                best = Some((p, r));
            }
        }
    }
    best.expect("at least p = 1 plans")
}

fn main() {
    let platform = Platform::summit(16);
    let device = DeviceConfig {
        gpus_per_node: platform.gpus_per_node,
        gpu_mem_bytes: platform.gpu_mem_bytes,
    };

    println!("# [22] comparison — 16 nodes of Summit (aggregate GEMM peak ~672 Tflop/s)");
    println!("\n## (a) square dense M = N = K = 48k");
    // [22] picks its own uniform tiling for a dense problem; the paper's
    // Fig-2 benchmark uses the irregular tiling for the B-stationary run.
    let t = bst_tile::Tiling::uniform(48_000, 1_600);
    let square_uniform = ProblemSpec::new(
        bst_sparse::MatrixStructure::dense(t.clone(), t.clone()),
        bst_sparse::MatrixStructure::dense(t.clone(), t),
        None,
    );
    let square = synthetic_spec(48_000, 1.0, 42);
    let (pc, sc) = stationary_c_best_p(&square_uniform, &platform);
    let (pb, sb) = simulate_best_p(&square, &platform, device).unwrap();
    println!(
        "stationary-C (dense-oriented, [22], uniform tiles): {:.1} Tflop/s = {:.0}% of peak (p={pc}) — paper expects 80-90%",
        sc.tflops(),
        sc.tflops() / 672.0 * 100.0
    );
    println!(
        "stationary-B (the paper's, irregular tiles):        {:.1} Tflop/s = {:.0}% of peak (p={pb}) — paper measured 203 (30%)",
        sb.tflops(),
        sb.tflops() / 672.0 * 100.0
    );

    println!("\n## (b) network circulation on the CCSD shape (M = 26k, N = K = 640k, d = 0.25)");
    println!("# the paper's §3.1 rationale: \"to minimize network traffic, avoid circulating");
    println!("# the largest of the matrices, so B will be stationary\"");
    let prob = generate(&SyntheticParams {
        m: 26_000,
        n: 640_000,
        k: 640_000,
        density: 0.25,
        tile_min: 512,
        tile_max: 2048,
        seed: 42,
    });
    let wide = ProblemSpec::new(prob.a, prob.b, None);
    // Stationary-C on a square grid (what a dense 2-d algorithm uses): B
    // panels circulate along grid columns.
    let sc_plan = StationaryCPlan::build(
        &wide,
        PlannerConfig::paper(GridConfig::from_nodes(16, 4), device),
    )
    .unwrap();
    let mut sc_b_net = 0u64;
    let (p, q) = (4usize, 4usize);
    for (ni, gpu_plans) in sc_plan.nodes.iter().enumerate() {
        let pr = ni / q;
        let mut seen = std::collections::HashSet::new();
        for gp in gpu_plans {
            for block in &gp.blocks {
                for chunk in &block.k_chunks {
                    for &k in &chunk.ks {
                        for &j in &block.cols {
                            if wide.b.shape().is_nonzero(k as usize, j as usize)
                                && (k as usize) % p != pr
                                && seen.insert((k, j))
                            {
                                sc_b_net += wide.b.row_tiling().size(k as usize)
                                    * wide.b.col_tiling().size(j as usize)
                                    * 8;
                            }
                        }
                    }
                }
            }
        }
    }
    let config = PlannerConfig::paper(GridConfig::from_nodes(16, 1), device);
    let plan = ExecutionPlan::build(&wide, config).unwrap();
    let sb = simulate(&wide, &plan, &platform);
    println!(
        "stationary-C (4x4 grid): circulates {:.2} TB of B over the network",
        sc_b_net as f64 / 1e12
    );
    println!(
        "stationary-B (1x16 grid): circulates 0 B of B, {:.3} TB of A",
        sb.a_network_bytes as f64 / 1e12
    );
    println!("# B circulation exceeds A circulation by >10x — the paper's design rationale");
}
