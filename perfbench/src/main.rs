//! The repository's benchmark: closed-loop workloads over the bst
//! contraction stack, with end-to-end metrics from untraced ops and
//! per-layer metrics from a separate traced phase. See `README.md` beside
//! this package for the workloads, metrics and load model.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//! perfbench worker ...        (internal: a fleet worker process)
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`).

mod ccsd;
mod contract;
mod layers;
mod measure;
mod report;
mod sim;

use std::path::PathBuf;

use layers::{kernel_gflops, kernel_ref_gflops};
use measure::{median, tail, LoopStats, Tracer};
use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// `inspector::lower` calls per traced phase (median time, order variants).
pub const LOWERINGS: usize = 3;

/// k-means seed of the chemistry workloads' fixed structure: the one the
/// repository's paper-figure binaries use.
pub const STRUCTURE_SEED: u64 = 42;

/// A plan's GEMM shape distribution, `((m, n, k), count)`.
pub type ShapeMix = Vec<((usize, usize, usize), u64)>;

const WORKLOADS: &[&str] = &["contract-fine", "sim-c65h132"];

const USAGE: &str = "usage: perfbench --workload contract-fine|sim-c65h132 \
--seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Run the traced phase and print per-layer metrics.
    pub trace: bool,
    /// Shrink every input (for the benchmark's own test).
    pub tiny: bool,
    /// Where spans and fleet sockets go (relative to the working directory).
    pub out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--tiny" => args.tiny = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Records the end-to-end metrics of a timed loop with `flops` per op and
/// the given set-up durations. The rate is total flops over total timed
/// seconds and CPU time a mean per op; per-op wall time and memory are
/// medians over the timed ops.
pub fn end_to_end(report: &mut Report, stats: &LoopStats, flops: f64, setups: &[f64]) {
    let n = stats.op_s.len();
    let timed_s: f64 = stats.op_s.iter().sum();
    report.e2e("gflops", flops * n as f64 / timed_s / 1e9);
    let p50 = median(&stats.op_s);
    report.e2e("op_p50_s", p50);
    let (p, v) = tail(&stats.op_s);
    report.e2e("op_tail_s", v);
    report
        .notes
        .push(format!("op_tail_s is p{p} of {n} timed ops"));
    report
        .notes
        .push(format!("op seconds: {:?}", rounded(&stats.op_s)));
    // A mean: one op's CPU time is only resolved to a clock tick.
    report.e2e("cpu_s_per_op", stats.cpu_s / n as f64);
    report.e2e("peak_rss_mb", median(&stats.peak_rss_mb));
    report.e2e("setup_s", median(setups));
    report.notes.push(format!(
        "setup_s is the median of {} set-ups: {:?}",
        setups.len(),
        rounded(setups)
    ));
    report.absorb(stats);
}

/// `xs` rounded to 0.1 ms, for the human-readable notes.
fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mix = match args.workload.as_str() {
        "contract-fine" => Some(contract::contract_fine(args, &mut report, &mut tracer)?),
        "sim-c65h132" => {
            sim::sim_c65h132(args, &mut report, &mut tracer)?;
            None
        }
        other => unreachable!("workload {other} passed validation"),
    };

    // The kernel layer on this run's host: reported beside the engine
    // rate, never used to rescale it. The simulator runs no kernels, and
    // its paper-scale tiles would make the shape-mix measurement costly.
    tracer.next_op();
    let kernel_ref = tracer.span("KernelKind::run", |_| kernel_ref_gflops());
    report.layer("kernel.ref_gflops", kernel_ref);
    report.notes.push(format!(
        "kernel.ref_gflops {kernel_ref:.3} GF/s (single thread)"
    ));
    if let Some(mix) = mix {
        let kernel = tracer.span("KernelKind::run", |_| kernel_gflops(&mix, 0.5));
        report.layer("kernel.gflops", kernel);
        report.notes.push(format!(
            "kernel.gflops {kernel:.3} GF/s on this workload's shape mix (single thread)"
        ));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let gflops = report
            .e2e_value("gflops")
            .expect("gflops recorded by the workload");
        report.layer("engine.roofline_frac", gflops / (cores as f64 * kernel));
        report.notes.push(format!("available parallelism: {cores}"));
    }
    report.layer("error_rate", layers::ratio(report.failed, report.attempted));

    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        if let Err(e) = contract::worker(&argv) {
            eprintln!("perfbench worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    // Fleet sockets are created under the temp dir: keep them in the
    // output directory. Set before any thread exists.
    std::env::set_var("TMPDIR", &args.out_dir);
    match run(&args) {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("perfbench: FAILED: {e}");
            }
            print!("{}", report.text(args.trace));
            println!("{}", report.json_line(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
