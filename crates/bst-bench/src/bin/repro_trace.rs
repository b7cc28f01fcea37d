//! Renders the execution profile behind the paper's §5.2 observation that
//! "the arithmetic intensity ... is too low to fully exploit the GPUs" and
//! "GPU I/O dominates the execution time".
//!
//! Two modes:
//!
//! * **Simulator** (default): an ASCII Gantt of the simulated GPUs (`#`
//!   compute, `-` host↔device transfer) for a reduced C65H132-style run,
//!   plus per-GPU compute utilisation.
//! * **Numeric** (`--numeric`): actually executes the contraction on the
//!   `bst-runtime` dataflow engine with tracing on, prints the per-kind /
//!   per-device text summary, and writes a `chrome://tracing` JSON profile.
//!   The emitted JSON is re-parsed and the executor-level trace invariants
//!   are checked; any violation exits non-zero, so CI can gate on it.
//!
//! A third mode smoke-tests the fault-injection subsystem: with
//! `--faults SEED` the same problem is executed twice — once fault-free,
//! once with ~8% transient GenB/alloc/transfer faults (plus lane stalls)
//! seeded from `SEED` — and the run exits non-zero unless the executor
//! recovered, the two results agree within 1e-10, and the faulted trace
//! still satisfies every invariant.
//!
//! Usage:
//! ```text
//! repro_trace [v1|v2|v3]                                        # simulator Gantt
//! repro_trace --numeric [--tiny] [--out FILE] [--faults SEED]   # traced numeric run
//! ```

use bst_bench::{check_chrome_trace, tiny_numeric_spec, traced_numeric_report, traced_numeric_run};
use bst_chem::{CcsdProblem, Molecule, ScreeningParams, TilingSpec};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecutionPlan, FaultPlan, GridConfig,
    PlannerConfig, ProblemSpec,
};
use bst_sim::replay::{simulate_traced, Trace};
use bst_sim::Platform;
use bst_sparse::generate::{generate, SyntheticParams};

const USAGE: &str = "usage: repro_trace [v1|v2|v3] | repro_trace --numeric \
[--tiny] [--nodes N] [--out FILE] [--faults SEED]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--numeric") {
        numeric_mode(&args);
    } else {
        let tiling = args.first().cloned().unwrap_or_else(|| "v1".to_string());
        simulator_mode(&tiling);
    }
}

/// The traced numeric run: execute, summarise, export, self-validate.
fn numeric_mode(args: &[String]) {
    let mut tiny = false;
    let mut nodes = 2usize;
    let mut out_path = "results/trace.json".to_string();
    let mut faults: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--numeric" => {}
            "--tiny" => tiny = true,
            "--nodes" => {
                let s = it.next().unwrap_or_else(|| panic!("--nodes needs a count"));
                nodes = s.parse().unwrap_or_else(|_| panic!("--nodes must be a usize, got {s}"));
                assert!(nodes >= 1, "--nodes must be >= 1");
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| panic!("--out needs a file path")).clone()
            }
            "--faults" => {
                let s = it.next().unwrap_or_else(|| panic!("--faults needs a seed"));
                faults = Some(s.parse().unwrap_or_else(|_| panic!("--faults seed must be a u64, got {s}")));
            }
            other => panic!("unknown argument {other}\n{USAGE}"),
        }
    }

    // --tiny: the CI-sized problem (sub-second). Default: a ~10x larger
    // synthetic contraction so the profile has visible phases.
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

    if let Some(seed) = faults {
        faults_mode(&spec, nodes, gpu_mem, seed, &out_path);
        return;
    }
    // Three legs. The Gemm comparison (baseline vs kernel leg) holds the
    // thread structure fixed — GenB serialized in both — so per-task spans
    // are not skewed by preemption from extra worker threads; the fan-out
    // effect is then shown separately as GenB span overlap.
    let baseline_opts = ExecOptions {
        kernel: bst_contract::KernelSelect::Baseline,
        genb_workers: 0,
        ..ExecOptions::default()
    };
    let kernel_opts = ExecOptions {
        kernel: bst_contract::KernelSelect::Heuristic,
        genb_workers: 0,
        ..ExecOptions::default()
    };
    let opts = ExecOptions {
        kernel: bst_contract::KernelSelect::Heuristic,
        ..ExecOptions::default()
    };
    // Interleave the two timing legs three times and score each leg by its
    // per-task best-of-3 Gemm time: the same deterministic task set runs in
    // every repetition, so taking each task's fastest span filters out the
    // preemption hits an oversubscribed host injects, and interleaving
    // cancels slow drift. (Totals of a single run swing by 2x on a busy
    // single-core box — per-task minima are stable.)
    let mut baseline: Option<bst_contract::ExecReport> = None;
    let mut kernel_leg: Option<bst_contract::ExecReport> = None;
    let mut baseline_best: std::collections::HashMap<String, u64> = Default::default();
    let mut kernel_best: std::collections::HashMap<String, u64> = Default::default();
    let fold_best = |best: &mut std::collections::HashMap<String, u64>,
                     r: &bst_contract::ExecReport| {
        for rec in &r.trace.as_ref().expect("traced").records {
            if rec.kind == "Gemm" {
                let ns = rec.span.end_ns - rec.span.start_ns;
                best.entry(rec.detail.clone())
                    .and_modify(|b| *b = (*b).min(ns))
                    .or_insert(ns);
            }
        }
    };
    for _ in 0..3 {
        let b = traced_numeric_report(&spec, nodes, 2, gpu_mem, 42, baseline_opts);
        fold_best(&mut baseline_best, &b);
        baseline = Some(b);
        let k = traced_numeric_report(&spec, nodes, 2, gpu_mem, 42, kernel_opts);
        fold_best(&mut kernel_best, &k);
        kernel_leg = Some(k);
    }
    let (baseline, kernel_leg) = (baseline.unwrap(), kernel_leg.unwrap());
    let gemm_best_ms =
        |best: &std::collections::HashMap<String, u64>| best.values().sum::<u64>() as f64 / 1e6;
    let (baseline_gemm_ms, kernel_gemm_ms) = (gemm_best_ms(&baseline_best), gemm_best_ms(&kernel_best));
    let report = traced_numeric_report(&spec, nodes, 2, gpu_mem, 42, opts);

    println!(
        "# traced numeric contraction — {}x{}x{} on {nodes} nodes x 2 GPUs ({} MiB each)",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
        gpu_mem >> 20
    );
    print!("{}", report.text_summary(gpu_mem));
    print_hot_path_comparison(baseline_gemm_ms, kernel_gemm_ms, &baseline, &kernel_leg, &report);

    let trace = report.trace.as_ref().expect("tracing was enabled");
    let json = trace.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write trace JSON");

    // Self-validation: the emitted document must re-parse as a Chrome
    // trace, and the schedule must satisfy the §3.2/§4 trace invariants.
    match check_chrome_trace(&json) {
        Ok(n) => println!("# wrote {out_path}: {n} events (open in chrome://tracing)"),
        Err(e) => {
            eprintln!("error: emitted trace does not validate: {e}");
            std::process::exit(1);
        }
    }
    let violations = validate_trace_invariants(&report, opts, gpu_mem);
    if !violations.is_empty() {
        eprintln!("error: trace invariants violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!("# trace invariants OK ({} task records)", trace.records.len());
}

/// The fault-injection smoke run: execute fault-free, re-execute with ~8%
/// transient faults on every injection site, and gate on recovery —
/// matching numbers (1e-10), intact trace invariants, populated recovery
/// counters. Exits non-zero on any violation so CI can run this directly.
fn faults_mode(spec: &ProblemSpec, nodes: usize, gpu_mem: u64, seed: u64, out_path: &str) {
    let clean_opts = ExecOptions::builder().tracing(true).build();
    let (c_clean, _) = traced_numeric_run(spec, nodes, 2, gpu_mem, 42, clean_opts);

    let plan = FaultPlan::transient(seed, 0.08);
    let opts = ExecOptions::builder().tracing(true).fault_plan(plan).build();
    let (c_faulted, report) = traced_numeric_run(spec, nodes, 2, gpu_mem, 42, opts);

    println!(
        "# fault-injection smoke — {}x{}x{} on {nodes} nodes x 2 GPUs, seed {seed}, 8% transient faults",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols()
    );
    print!("{}", report.text_summary(gpu_mem));

    let r = &report.recovery;
    if r.injected_genb + r.injected_alloc + r.injected_send == 0 {
        eprintln!("error: 8% fault rates injected nothing — injection sites are dead");
        std::process::exit(1);
    }
    let diff = c_faulted.max_abs_diff(&c_clean);
    if diff > 1e-10 {
        eprintln!("error: recovered result diverged from the fault-free run by {diff:.3e}");
        std::process::exit(1);
    }
    println!("# recovered result matches fault-free run (max |diff| = {diff:.3e})");

    let violations = validate_trace_invariants(&report, opts, gpu_mem);
    if !violations.is_empty() {
        eprintln!("error: trace invariants violated under faults:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    let trace = report.trace.as_ref().expect("tracing was enabled");
    let json = trace.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out_path, &json).expect("write trace JSON");
    match check_chrome_trace(&json) {
        Ok(n) => println!("# wrote {out_path}: {n} events (retried tasks carry an \"attempts\" arg)"),
        Err(e) => {
            eprintln!("error: emitted trace does not validate: {e}");
            std::process::exit(1);
        }
    }
    println!("# fault-injection smoke OK ({} task records)", trace.records.len());
}

/// Prints the baseline-vs-tuned hot-path deltas the PR-1 tracer measures:
/// per-kind Gemm time (kernel dispatch, at identical thread structure), the
/// kernel mix the dispatcher chose, GenB span overlap from the worker
/// fan-out, and tile-pool recycling.
fn print_hot_path_comparison(
    baseline_gemm_ms: f64,
    kernel_gemm_ms: f64,
    baseline: &bst_contract::ExecReport,
    kernel_leg: &bst_contract::ExecReport,
    tuned: &bst_contract::ExecReport,
) {
    println!("# hot path vs baseline (blocked kernel, serialized GenB):");
    println!(
        "#   Gemm time, per-task best of 3 (SIMD dispatch, same thread layout): {baseline_gemm_ms:.1} ms -> {kernel_gemm_ms:.1} ms ({:+.1}%)",
        (kernel_gemm_ms - baseline_gemm_ms) / baseline_gemm_ms * 100.0
    );
    let kernels: Vec<String> = kernel_leg
        .gemm_kernel_counts
        .iter()
        .map(|(name, n)| format!("{name}:{n}"))
        .collect();
    println!("#   kernel mix: {}", kernels.join(" "));
    println!(
        "#   GenB max concurrency per node: {} -> {} (workers fanned out)",
        baseline.max_concurrent_genb(),
        tuned.max_concurrent_genb()
    );
    let (hits, misses): (u64, u64) = tuned
        .pool_stats
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    println!(
        "#   tile-pool reuse: {hits} hits / {misses} misses ({:.0}% recycled)",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0
    );
}

/// The original simulator Gantt mode.
fn simulator_mode(tiling: &str) {
    let spec_t = match tiling {
        "v1" => TilingSpec::v1(),
        "v2" => TilingSpec::v2(),
        "v3" => TilingSpec::v3(),
        other => panic!("unknown tiling {other}\n{USAGE}"),
    };
    let molecule = Molecule::alkane(40);
    let spec_t = spec_t.scaled_for(&molecule);
    let problem = CcsdProblem::build(&molecule, spec_t, ScreeningParams::default(), 42);
    let spec = ProblemSpec::new(
        problem.t.clone(),
        problem.v.clone(),
        Some(problem.r.shape().clone()),
    );

    let platform = Platform::summit(2);
    let config = PlannerConfig::paper(
        GridConfig::from_nodes(2, 1),
        DeviceConfig {
            gpus_per_node: platform.gpus_per_node,
            gpu_mem_bytes: platform.gpu_mem_bytes,
        },
    );
    let plan = ExecutionPlan::build(&spec, config).expect("plan");
    let mut trace = Trace::default();
    let report = simulate_traced(&spec, &plan, &platform, Some(&mut trace));

    println!(
        "# GPU execution profile — {} tiling {tiling}, 2 nodes x 6 GPUs",
        molecule.formula()
    );
    println!(
        "# makespan {:.2} s, {:.1} Tflop/s total ({:.2} per GPU)",
        report.makespan_s,
        report.tflops(),
        report.tflops_per_gpu(platform.total_gpus())
    );
    println!("# '#' compute, '-' transfer; right column = compute utilisation");
    print!("{}", trace.gantt(report.makespan_s, 100));
    let mean_util: f64 = trace
        .gpus
        .iter()
        .map(|g| g.compute_utilization(report.makespan_s))
        .sum::<f64>()
        / trace.gpus.len() as f64;
    println!(
        "# mean compute utilisation: {:.0}% — the rest is GPU I/O and dependencies",
        mean_util * 100.0
    );
}
