//! Micro-benchmark of the tile GEMM kernel family on the shapes a real
//! plan executes, emitting `BENCH_kernels.json`.
//!
//! The paper's executor spends its GPU time in many small, irregular tile
//! GEMMs; §5 observes that their arithmetic intensity, not peak flops,
//! decides throughput. This binary grounds the kernel-dispatch layer
//! (`bst_tile::kernel`) in that regime:
//!
//! 1. builds a synthetic contraction and takes the *plan-derived* GEMM
//!    shape histogram (the exact `(m, n, k)` mix the executor would run);
//! 2. for the heaviest shapes, checks every kernel against `gemm_naive` to
//!    1e-10 (any divergence exits non-zero — this is the same bar as the
//!    property tests, but on the real shapes);
//! 3. measures each kernel's flop rate through the cache-cold operand ring
//!    of `measure_gflops`, and records the measured winner;
//! 4. writes everything as JSON, with the SIMD kernel's detected ISA tier,
//!    and re-parses the document with
//!    [`bst_bench::minijson`] — a malformed file also exits non-zero, so
//!    CI can gate on this binary end to end.
//!
//! Usage:
//! ```text
//! repro_kernels [--tiny] [--out BENCH_kernels.json]
//! ```

use bst_bench::{minijson, tiny_numeric_spec};
use bst_contract::{
    DeviceConfig, ExecutionPlan, GridConfig, PlannerConfig, ProblemSpec,
};
use bst_sparse::generate::{generate, SyntheticParams};
use bst_tile::gemm::{gemm_flops, gemm_naive, Isa};
use bst_tile::kernel::{measure_gflops, KernelKind};
use bst_tile::Tile;
use std::fmt::Write as _;

const USAGE: &str = "usage: repro_kernels [--tiny] [--out FILE]";

/// Shapes benchmarked in full (the heaviest by total flops).
const MAX_SHAPES: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut out_path = "results/BENCH_kernels.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--out" => {
                out_path = it.next().unwrap_or_else(|| panic!("--out needs a file path")).clone()
            }
            other => panic!("unknown argument {other}\n{USAGE}"),
        }
    }

    // The same problems the traced reproduction (`repro_trace --numeric`)
    // runs, so the shape mix matches the executor measurements.
    let (spec, gpu_mem): (ProblemSpec, u64) = if tiny {
        (tiny_numeric_spec(42), 1 << 21)
    } else {
        let prob = generate(&SyntheticParams {
            m: 400,
            n: 3200,
            k: 3200,
            density: 0.5,
            tile_min: 48,
            tile_max: 128,
            seed: 42,
        });
        (ProblemSpec::new(prob.a, prob.b, None), 1 << 23)
    };
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(2, 1),
        DeviceConfig {
            gpus_per_node: 2,
            gpu_mem_bytes: gpu_mem,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan must build");
    let hist = plan.gemm_shape_histogram(&spec);
    assert!(!hist.is_empty(), "plan has no GEMM tasks");

    // Heaviest shapes by total flops.
    let mut weighted: Vec<((usize, usize, usize), u64, u128)> = hist
        .iter()
        .map(|&((m, n, k), count)| {
            let fl = gemm_flops(m as u64, n as u64, k as u64) as u128 * count as u128;
            ((m, n, k), count, fl)
        })
        .collect();
    weighted.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    weighted.truncate(MAX_SHAPES);

    let isa = Isa::detected();
    println!(
        "# kernel micro-benchmark — {} distinct shapes in plan, benchmarking top {} (simd tier: {})",
        hist.len(),
        weighted.len(),
        isa.name()
    );

    let mut shapes_json = String::new();
    for (si, &((m, n, k), count, _)) in weighted.iter().enumerate() {
        // Correctness gate: every kernel must agree with the naive triple
        // loop on this exact shape.
        let a = Tile::random(m, k, 0xA0 + si as u64);
        let b = Tile::random(k, n, 0xB0 + si as u64);
        let c0 = Tile::random(m, n, 0xC0 + si as u64);
        let mut c_ref = c0.clone();
        gemm_naive(1.0, &a, &b, &mut c_ref);
        for kind in KernelKind::ALL {
            let mut c = c0.clone();
            kind.run(1.0, &a, &b, &mut c);
            let diff = c.max_abs_diff(&c_ref);
            if diff >= 1e-10 {
                eprintln!(
                    "error: kernel {} diverges from naive on {m}x{n}x{k}: max |Δ| = {diff:.3e}",
                    kind.name()
                );
                std::process::exit(1);
            }
        }

        // Flop rates through the cache-cold ring (the executor streams
        // distinct operand tiles, so a hot single-pair loop would lie).
        let rates: Vec<(KernelKind, f64)> = KernelKind::ALL
            .iter()
            .map(|&kind| (kind, measure_gflops(kind, m, n, k)))
            .collect();
        let winner = rates
            .iter()
            .cloned()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(kind, _)| kind)
            .expect("at least one kernel");

        let mut rate_strs = Vec::new();
        let mut rate_json = String::new();
        for (i, &(kind, g)) in rates.iter().enumerate() {
            rate_strs.push(format!("{}={:.2}", kind.name(), g));
            if i > 0 {
                rate_json.push_str(", ");
            }
            write!(rate_json, "\"{}\": {:.4}", kind.name(), g).unwrap();
        }
        println!(
            "  {m}x{n}x{k} (x{count}): {}  -> {}",
            rate_strs.join(" "),
            winner.name()
        );

        if si > 0 {
            shapes_json.push_str(",\n");
        }
        write!(
            shapes_json,
            "    {{\"m\": {m}, \"n\": {n}, \"k\": {k}, \"tasks\": {count}, \
             \"gflops\": {{{rate_json}}}, \"winner\": \"{}\"}}",
            winner.name()
        )
        .unwrap();
    }

    let json = format!(
        "{{\n  \"problem\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"tiny\": {tiny}}},\n  \
         \"simd_isa\": \"{}\",\n  \"shapes\": [\n{shapes_json}\n  ]\n}}\n",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
        isa.name(),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // Self-validation: the emitted document must re-parse, and must carry a
    // measured rate for every kernel of every shape.
    let doc = match minijson::parse(&json) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: emitted JSON does not parse: {e}");
            std::process::exit(1);
        }
    };
    let shapes = doc
        .get("shapes")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("error: emitted JSON has no shapes array");
            std::process::exit(1);
        });
    for s in shapes {
        let (m, n, k) = (
            s.get("m").and_then(|v| v.as_num()).unwrap() as usize,
            s.get("n").and_then(|v| v.as_num()).unwrap() as usize,
            s.get("k").and_then(|v| v.as_num()).unwrap() as usize,
        );
        for kind in KernelKind::ALL {
            let rate = s
                .get("gflops")
                .and_then(|g| g.get(kind.name()))
                .and_then(|v| v.as_num());
            match rate {
                Some(r) if r > 0.0 => {}
                _ => {
                    eprintln!(
                        "error: shape {m}x{n}x{k} lacks a positive rate for {}",
                        kind.name()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    println!(
        "# wrote {out_path}: {} shapes, all kernels verified against naive to 1e-10",
        shapes.len()
    );
}
