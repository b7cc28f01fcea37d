//! `sim-c65h132`: the task-accurate simulator replaying the paper's
//! C65H132 contraction (tiling v2) on 16 Summit nodes. Single-threaded and
//! free of numeric work, so kernel and transport changes must leave it
//! unchanged.

use bst_chem::{CcsdProblem, Molecule, ScreeningParams, TilingSpec};
use bst_contract::{
    validate_trace_invariants, DeviceConfig, ExecOptions, ExecReport, ExecutionPlan, GridConfig,
    PlannerConfig, ProblemSpec,
};
use bst_sim::dag::{makespan_s, replay_dag};
use bst_sim::Platform;

use crate::layers::{plan_and_lower, task_layers};
use crate::measure::{closed_loop, median, timed, Tracer};
use crate::report::Report;
use crate::{end_to_end, Args, SETUP_REPS, STRUCTURE_SEED};

/// C65H132 with tiling v2 as the paper-figure binaries build it, or a
/// short alkane scaled the same way. The structure is fixed: its k-means
/// seed moves the tiling, and with it the work by up to ~40%, so a
/// per-seed structure would measure the inputs rather than the code. The
/// replay has no numeric data for the run seed to drive.
fn problem(args: &Args) -> ProblemSpec {
    let p = if args.tiny {
        let m = Molecule::alkane(8);
        CcsdProblem::build(
            &m,
            TilingSpec::v2().scaled_for(&m),
            ScreeningParams::default(),
            STRUCTURE_SEED,
        )
    } else {
        CcsdProblem::c65h132(TilingSpec::v2(), STRUCTURE_SEED)
    };
    ProblemSpec::new(p.t, p.v, Some(p.r.shape().clone()))
}

fn platform(args: &Args) -> Platform {
    Platform::summit(if args.tiny { 2 } else { 16 })
}

fn config(platform: &Platform) -> PlannerConfig {
    PlannerConfig::paper(
        GridConfig::from_nodes(platform.nodes, 1),
        DeviceConfig {
            gpus_per_node: platform.gpus_per_node,
            gpu_mem_bytes: platform.gpu_mem_bytes,
        },
    )
}

/// One op: plan, then replay the lowered DAG on the platform model.
fn replay(spec: &ProblemSpec, platform: &Platform) -> Result<(ExecutionPlan, ExecReport), String> {
    let plan = ExecutionPlan::build(spec, config(platform)).map_err(|e| e.to_string())?;
    let report = replay_dag(spec, &plan, platform, &ExecOptions::default());
    Ok((plan, report))
}

/// Every replay must run exactly the plan's GEMMs.
fn check_count(
    spec: &ProblemSpec,
    plan: &ExecutionPlan,
    report: &ExecReport,
) -> Result<(), String> {
    let planned = plan.stats(spec).total_tasks;
    if report.gemm_tasks == planned {
        Ok(())
    } else {
        Err(format!(
            "replay ran {} GEMMs, the plan has {planned}",
            report.gemm_tasks
        ))
    }
}

/// The traced replay must satisfy the schedule invariants. The checker
/// takes ~17 s on this DAG, so it runs on the traced phase's replay only.
fn check_trace(platform: &Platform, report: &ExecReport) -> Result<(), String> {
    let violations =
        validate_trace_invariants(report, ExecOptions::default(), platform.gpu_mem_bytes);
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "{} trace invariant violations, first: {v}",
            violations.len()
        )),
    }
}

/// `sim-c65h132`: plan + `replay_dag` on the paper's screened sparsity.
pub fn sim_c65h132(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let platform = platform(args);
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut makespans = Vec::new();
    let mut spec = None;
    for _ in 0..SETUP_REPS {
        let (s, gen_s) = timed(|| problem(args));
        let (warm, warm_s) = timed(|| replay(&s, &platform));
        report.record(warm.and_then(|(plan, r)| {
            makespans.push(makespan_s(&r));
            check_count(&s, &plan, &r)
        }));
        gens.push(gen_s);
        setups.push(gen_s + warm_s);
        spec = Some(s);
    }
    let spec = spec.expect("at least one set-up");
    let plan = ExecutionPlan::build(&spec, config(&platform)).map_err(|e| e.to_string())?;
    let flops = plan.stats(&spec).total_flops as f64;

    let stats = closed_loop(
        args.seconds,
        |_| replay(&spec, &platform),
        |_, (plan, r)| {
            makespans.push(makespan_s(&r));
            check_count(&spec, &plan, &r)
        },
    )?;
    end_to_end(report, &stats, flops, &setups);
    report.layer("gen.s", median(&gens));
    let mid = median(&makespans);
    report.layer("sim.makespan_s", mid);
    let (lo, hi) = makespans
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    report.layer("sim.makespan_spread", (hi - lo) / mid);
    report.notes.push(format!(
        "simulated makespan {lo:.4}..{hi:.4} s over {} replays of one plan",
        makespans.len()
    ));

    if args.trace {
        let opts = ExecOptions::default();
        let lower_s = plan_and_lower(report, tracer, &spec, config(&platform))?;

        tracer.next_op();
        let (out, wall) = timed(|| {
            tracer.span("op", |t| {
                let plan = t
                    .span("ExecutionPlan::build", |_| {
                        ExecutionPlan::build(&spec, config(&platform))
                    })
                    .map_err(|e| e.to_string())?;
                let r = t.span("replay_dag", |_| replay_dag(&spec, &plan, &platform, &opts));
                Ok::<_, String>((plan, r))
            })
        });
        match out {
            Ok((traced_plan, r)) => {
                let checked = check_count(&spec, &traced_plan, &r);
                report.record(checked.and_then(|()| check_trace(&platform, &r)));
                let replay_s = tracer.median_s("replay_dag");
                report.layer("replay.s", replay_s);
                report.layer("replay.self_s", replay_s - lower_s);
                report.layer("trace.overhead_frac", wall / median(&stats.op_s) - 1.0);
                task_layers(report, &r);
            }
            Err(e) => report.record(Err(e)),
        }
    }
    Ok(())
}
