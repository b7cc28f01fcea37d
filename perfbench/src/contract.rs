//! `contract-fine`: the one-shot synthetic contraction of `bst verify`.
//! Its traced phase also runs the job as a two-process `bst launch` fleet
//! over Unix-domain sockets, the benchmark's measurement of `bst-net`, and
//! the solver sweeps of [`crate::ccsd`] through a `ContractionService`.
//! The in-process run and the fleet build the structure exactly as the CLI
//! does, from its default seed, so both see identical inputs. The run seed
//! draws the values of A and B.
//!
//! The structure is fixed because its seed moves the tiling and sparsity,
//! and with them the flop count and the fleet launcher's memory: peak
//! memory split into two modes, 66 and 87 MB, by seed. A per-seed
//! structure would measure the inputs rather than the code.

use std::sync::Arc;

use bst_cli::{build_problem, launch_config, Cli};
use bst_contract::exec::{execute_numeric_distributed, execute_numeric_with};
use bst_contract::{
    DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, GenError, GridConfig, PlannerConfig,
    ProblemSpec,
};
use bst_net::{launch, worker_session, SocketWire, Transport, WorkerConfig};
use bst_sparse::matrix::{random_b_gen, tile_seed};
use bst_sparse::BlockSparseMatrix;
use bst_tile::Tile;

use crate::layers::{codec_mb_per_s, engine_layers, plan_and_lower};
use crate::measure::{closed_loop, cpu_seconds, median, timed, Tracer};
use crate::report::Report;
use crate::{end_to_end, Args, ShapeMix, SETUP_REPS, STRUCTURE_SEED};

/// The synthetic problem `MxNxK:density`: 10–40-edge tiles at full size.
fn problem(args: &Args) -> &'static str {
    if args.tiny {
        "100x800x800:0.6"
    } else {
        "400x3200x3200:0.6"
    }
}

/// The CLI invocation of this workload: 2 nodes × 2 GPUs, 16 GiB per GPU,
/// the structure drawn from [`STRUCTURE_SEED`] (the CLI's default seed).
fn cli(args: &Args, command: &str) -> Cli {
    let argv: Vec<String> = [
        command,
        "--synthetic",
        problem(args),
        "--nodes",
        "2",
        "--gpus",
        "2",
        "--seed",
        &STRUCTURE_SEED.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    bst_cli::parse(&argv).expect("the workload's command line parses")
}

/// The planner configuration `bst verify` and `bst launch` use.
fn config(cli: &Cli) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig::from_nodes(cli.opts.nodes, cli.p),
        DeviceConfig {
            gpus_per_node: cli.gpus,
            gpu_mem_bytes: 16 << 30,
        },
    )
}

/// The operands: the spec and A with values from `seed`, as `bst verify`
/// builds them.
fn inputs(cli: &Cli, seed: u64) -> Result<(ProblemSpec, BlockSparseMatrix), String> {
    let (spec, _) = build_problem(cli).map_err(|e| e.0)?;
    let a = BlockSparseMatrix::random_from_structure(spec.a.clone(), seed);
    Ok((spec, a))
}

/// One op of `contract-fine`: plan, then execute with B generated on demand
/// from `seed`, as `bst verify` derives it.
fn contract(
    cli: &Cli,
    seed: u64,
    spec: &ProblemSpec,
    a: &BlockSparseMatrix,
    opts: ExecOptions,
) -> Result<(BlockSparseMatrix, ExecReport), String> {
    let plan = ExecutionPlan::build(spec, config(cli)).map_err(|e| e.to_string())?;
    let b_gen = random_b_gen::<GenError>(seed ^ 0xB);
    execute_numeric_with(spec, &plan, a, &b_gen, opts).map_err(|e| e.to_string())
}

/// `C = A·B` by the repository's naive reference product, with B
/// materialised from the same tile seeds the engine's generator uses.
fn reference(seed: u64, spec: &ProblemSpec, a: &BlockSparseMatrix) -> BlockSparseMatrix {
    let seed = seed ^ 0xB;
    let b = BlockSparseMatrix::from_structure(spec.b.clone(), |k, j, r, c| {
        Tile::random(r, c, tile_seed(seed, k, j))
    });
    let mut c = BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
    c.gemm_acc_reference(a, &b);
    c
}

/// The `contract-fine` correctness rule: the first result within 1e-10 of
/// the reference, every later one bit-identical to the first.
struct FirstThenExact {
    reference: BlockSparseMatrix,
    first: Option<BlockSparseMatrix>,
}

impl FirstThenExact {
    fn check(&mut self, c: BlockSparseMatrix) -> Result<(), String> {
        match &self.first {
            None => {
                let d = c.max_abs_diff(&self.reference);
                if d > 1e-10 {
                    return Err(format!("first C differs from the reference by {d:e}"));
                }
                self.first = Some(c);
            }
            Some(first) => {
                let d = c.max_abs_diff(first);
                if d != 0.0 {
                    return Err(format!("C differs from the first run by {d:e}"));
                }
            }
        }
        Ok(())
    }
}

/// A traced engine run: spans around the call, the engine's per-kind
/// metrics, and the process CPU time it took.
fn traced_engine(
    report: &mut Report,
    tracer: &mut Tracer,
    cli: &Cli,
    seed: u64,
    spec: &ProblemSpec,
    a: &BlockSparseMatrix,
) -> Result<(BlockSparseMatrix, f64), String> {
    tracer.next_op();
    let cpu0 = cpu_seconds();
    let (out, wall) = timed(|| {
        tracer.span("op", |t| {
            let plan = t
                .span("ExecutionPlan::build", |_| {
                    ExecutionPlan::build(spec, config(cli))
                })
                .map_err(|e| e.to_string())?;
            let b_gen = random_b_gen::<GenError>(seed ^ 0xB);
            let opts = ExecOptions::builder().tracing(true).build();
            t.span("execute_numeric_with", |_| {
                execute_numeric_with(spec, &plan, a, &b_gen, opts).map_err(|e| e.to_string())
            })
        })
    });
    let cpu = cpu_seconds() - cpu0;
    let (c, exec) = out?;
    report.layer(
        "engine.s",
        *tracer
            .durations("execute_numeric_with")
            .last()
            .expect("span"),
    );
    report.layer("engine.cpu_s", cpu);
    engine_layers(report, &exec);
    Ok((c, wall))
}

/// `contract-fine`: per-task overhead, GenB and A-broadcast traffic.
pub fn contract_fine(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<ShapeMix, String> {
    let cli = cli(args, "verify");
    let opts = ExecOptions::default();
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut checker: Option<FirstThenExact> = None;
    let mut operands = None;
    for _ in 0..SETUP_REPS {
        let (ops, gen_s) = timed(|| inputs(&cli, args.seed));
        let (spec, a) = ops?;
        let checker = checker.get_or_insert_with(|| FirstThenExact {
            reference: reference(args.seed, &spec, &a),
            first: None,
        });
        let (warm, warm_s) = timed(|| contract(&cli, args.seed, &spec, &a, opts));
        report.record(warm.and_then(|(c, _)| checker.check(c)));
        gens.push(gen_s);
        setups.push(gen_s + warm_s);
        operands = Some((spec, a));
    }
    let (spec, a) = operands.expect("at least one set-up");
    let mut checker = checker.expect("reference computed in set-up");
    let plan = ExecutionPlan::build(&spec, config(&cli)).map_err(|e| e.to_string())?;
    let flops = plan.stats(&spec).total_flops as f64;

    let stats = closed_loop(
        args.seconds,
        |_| contract(&cli, args.seed, &spec, &a, opts),
        |_, (c, _)| checker.check(c),
    )?;
    end_to_end(report, &stats, flops, &setups);
    report.layer("gen.s", median(&gens));

    if args.trace {
        plan_and_lower(report, tracer, &spec, config(&cli))?;
        match traced_engine(report, tracer, &cli, args.seed, &spec, &a) {
            Ok((c, wall)) => {
                report.record(checker.check(c));
                report.layer("trace.overhead_frac", wall / median(&stats.op_s) - 1.0);
            }
            Err(e) => report.record(Err(e)),
        }
        fleet_layers(args, report, tracer, &mut checker, &a)?;
        crate::ccsd::service_layers(args, report, tracer)?;
    }
    Ok(plan.gemm_shape_histogram(&spec))
}

/// Job-text key carrying the run seed to the workers. The launcher's job
/// parser ignores keys it does not know.
const VALUES_SEED_KEY: &str = "values_seed=";

/// Re-entry point of the fleet's worker processes: `perfbench worker ...`
/// runs a `bst worker` session whose job draws A and B from the run seed.
pub fn worker(argv: &[String]) -> Result<(), String> {
    let cli = bst_cli::parse(argv).map_err(|e| e.0)?;
    let wcfg = WorkerConfig {
        rank: cli.rank,
        ranks: cli.ranks,
        connect: cli.connect.ok_or("worker needs --connect ADDR")?,
        transport: Transport::parse(&cli.transport)?,
        die_after_tile_sends: cli.die_after,
    };
    worker_session(&wcfg, |text, wire| worker_job(text, wcfg.rank, wire)).map_err(|e| e.to_string())
}

/// `bst_cli::net_run::worker_job` with the values drawn from the run seed
/// the launcher appended to the job text.
fn worker_job(
    text: &str,
    rank: usize,
    wire: Arc<SocketWire>,
) -> Result<Vec<(u32, u32, Tile)>, String> {
    let job = bst_cli::net_run::parse_job_config(text).map_err(|e| e.to_string())?;
    let seed: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix(VALUES_SEED_KEY))
        .ok_or("job text without a values seed")?
        .parse()
        .map_err(|_| "bad values seed")?;
    let (spec, a) = inputs(&job.cli, seed)?;
    let dead: Vec<usize> = job.dead_node.into_iter().collect();
    let plan =
        ExecutionPlan::build_with(&spec, config(&job.cli), &dead).map_err(|e| e.to_string())?;
    let b_gen = random_b_gen::<GenError>(seed ^ 0xB);
    let (c, _) =
        execute_numeric_distributed(&spec, &plan, &a, &b_gen, ExecOptions::default(), rank, wire)
            .map_err(|e| e.to_string())?;
    Ok(c.iter_tiles()
        .map(|(&(i, j), t)| (i as u32, j as u32, t.clone()))
        .collect())
}

/// The `bst-net` layer, measured in `contract-fine`'s traced phase: the
/// same job as a two-process `bst launch` fleet over Unix-domain sockets,
/// with this binary re-entering itself as the worker. The workers' job is
/// first run in process (generate, plan, execute) [`SETUP_REPS`] times;
/// every fleet result must equal that in-process channel-transport run bit
/// for bit.
fn fleet_layers(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    checker: &mut FirstThenExact,
    a: &BlockSparseMatrix,
) -> Result<(), String> {
    let cli = cli(args, "launch");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lc = launch_config(
        &cli,
        vec![exe.to_string_lossy().into_owned(), "worker".into()],
    )
    .map_err(|e| e.to_string())?;
    lc.config_text
        .push_str(&format!("\n{VALUES_SEED_KEY}{}", args.seed));
    // The launcher needs only the structure, to assemble rank 0's tiles.
    let (spec, _) = build_problem(&cli).map_err(|e| e.0)?;

    let mut inproc = Vec::new();
    let mut c_ref = None;
    for _ in 0..SETUP_REPS {
        tracer.next_op();
        let (out, secs) = timed(|| {
            tracer.span("inproc_job", |_| {
                let (spec, a) = inputs(&cli, args.seed)?;
                contract(&cli, args.seed, &spec, &a, ExecOptions::default())
            })
        });
        inproc.push(secs);
        report.record(out.and_then(|(c, _)| {
            c_ref.get_or_insert_with(|| c.clone());
            checker.check(c)
        }));
    }
    let c_ref = c_ref.ok_or("no in-process run to check the fleet against")?;

    let mut launches = Vec::new();
    for _ in 0..SETUP_REPS {
        tracer.next_op();
        let (out, secs) = timed(|| tracer.span("bst_net::launch", |_| launch(&lc)));
        launches.push(secs);
        let checked = out.map_err(|e| e.to_string()).and_then(|mut outcome| {
            let frames = outcome.stats.iter().map(|s| s.sent_msgs).sum::<u64>();
            report.layer("net.frames", frames as f64);
            report.layer("net.attempts", outcome.attempts as f64);
            let mut c =
                BlockSparseMatrix::zeros(spec.a.row_tiling().clone(), spec.b.col_tiling().clone());
            for (i, j, tile) in std::mem::take(&mut outcome.tiles) {
                c.insert_tile(i as usize, j as usize, tile);
            }
            let d = c.max_abs_diff(&c_ref);
            if d == 0.0 {
                Ok(())
            } else {
                Err(format!("fleet C differs from the in-process run by {d:e}"))
            }
        });
        report.record(checked);
    }
    let inproc_s = median(&inproc);
    report.layer("fleet.inproc_s", inproc_s);
    report.layer("fleet.overhead_s", median(&launches) - inproc_s);

    let codec = tracer.span("codec::encode+decode", |_| codec_mb_per_s(a, &c_ref));
    report.record(codec.as_ref().map(|_| ()).map_err(Clone::clone));
    report.layer("codec.mb_per_s", codec.unwrap_or(0.0));
    Ok(())
}
