//! Multi-process socket-transport reproduction: runs the same contraction
//! as a fleet of real OS processes over loopback sockets and emits a
//! gated `results/BENCH_net.json` (gates in `bst_bench::gates`).
//!
//! Four legs, each gated against an **in-process channel-transport
//! reference** computed with identical spec/plan/seeds:
//!
//! * **uds** — P workers over Unix-domain sockets: must be bit-identical
//!   (`max |diff| == 0.0`);
//! * **tcp** — the same fleet over loopback TCP: bit-identical;
//! * **reorder** — UDS with every worker's local delivery pipeline
//!   shuffling frames inside a window: bit-identical, proving the
//!   deterministic combine order absorbs network nondeterminism;
//! * **kill** — one worker is SIGKILLed after its first few data-frame
//!   sends; the launcher's heartbeat/EOF detection must catch it, respawn
//!   the fleet with the dead node written off, and the degraded re-plan
//!   must agree with the fault-free reference to 1e-10 (the accumulation
//!   order changes, so this leg is not bitwise).
//!
//! The binary re-executes **itself** as the worker processes: when the
//! first argument is `worker` it delegates straight to
//! [`bst_cli::run_worker`], so the fleet runs exactly the code path of
//! `bst worker` without needing the `bst` binary on disk.
//!
//! Usage:
//! ```text
//! repro_net [--tiny] [--out FILE]
//! repro_net worker --rank R --ranks N --connect ADDR ...   (internal)
//! ```

use bst_bench::gates;
use bst_cli::{launch_config, run_launch, NetRunReport};

const USAGE: &str = "usage: repro_net [--tiny] [--out FILE]";

/// One leg's launch parameters and gates.
struct Leg {
    name: &'static str,
    transport: &'static str,
    reorder: Option<u64>,
    /// `Some((rank, die_after_sends))` arms the crash drill.
    kill: Option<(usize, u64)>,
}

/// One leg's measured outcome, ready for the JSON emitter.
struct LegResult {
    name: &'static str,
    transport: &'static str,
    workers: usize,
    attempts: usize,
    max_diff: f64,
    recovered_dead: Option<usize>,
    sent_frames: u64,
    recv_frames: u64,
}

fn run_leg(leg: &Leg, workers: usize, problem: &str, exe: &str) -> LegResult {
    let mut args: Vec<String> = vec![
        "launch".into(),
        "--synthetic".into(),
        problem.into(),
        "-n".into(),
        workers.to_string(),
        "--transport".into(),
        leg.transport.into(),
    ];
    if let Some(seed) = leg.reorder {
        args.push("--reorder".into());
        args.push(seed.to_string());
    }
    if let Some((rank, after)) = leg.kill {
        args.push("--kill".into());
        args.push(rank.to_string());
        args.push("--die-after".into());
        args.push(after.to_string());
    }
    let cli = bst_cli::parse(&args).unwrap_or_else(|e| panic!("leg {}: {}", leg.name, e.0));
    let lc = launch_config(&cli, vec![exe.to_string(), "worker".into()])
        .unwrap_or_else(|e| panic!("leg {}: {e}", leg.name));
    let NetRunReport { max_diff, outcome, .. } =
        run_launch(&cli, &lc).unwrap_or_else(|e| panic!("leg {}: {e}", leg.name));
    LegResult {
        name: leg.name,
        transport: leg.transport,
        workers,
        attempts: outcome.attempts,
        max_diff,
        recovered_dead: outcome.recovered_dead,
        sent_frames: outcome.stats.iter().map(|s| s.sent_msgs).sum(),
        recv_frames: outcome.stats.iter().map(|s| s.recv_msgs).sum(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Worker re-entry: `repro_net worker --rank R ...` IS a `bst worker`.
    if args.first().map(String::as_str) == Some("worker") {
        let cli = bst_cli::parse(&args).unwrap_or_else(|e| {
            eprintln!("repro_net worker: {}", e.0);
            std::process::exit(2);
        });
        if let Err(e) = bst_cli::run_worker(&cli) {
            eprintln!("repro_net worker: {e}");
            std::process::exit(1);
        }
        return;
    }

    let mut tiny = false;
    let mut out_path = "results/BENCH_net.json".to_string();
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

    let workers = 4usize;
    let problem = if tiny { "64x320x320:0.6" } else { "100x800x800:0.6" };
    let exe = std::env::current_exe()
        .expect("own executable path")
        .to_string_lossy()
        .into_owned();

    println!("# multi-process socket transport — {workers} workers, problem {problem}");

    let legs = [
        Leg { name: "uds", transport: "uds", reorder: None, kill: None },
        Leg { name: "tcp", transport: "tcp", reorder: None, kill: None },
        Leg { name: "reorder", transport: "uds", reorder: Some(99), kill: None },
        Leg { name: "kill", transport: "uds", reorder: None, kill: Some((2, 3)) },
    ];
    let results: Vec<LegResult> =
        legs.iter().map(|leg| run_leg(leg, workers, problem, &exe)).collect();

    for r in &results {
        let recovered = match r.recovered_dead {
            Some(rank) => format!(", rank {rank} died and was written off"),
            None => String::new(),
        };
        println!(
            "# {}: {} workers over {}, {} attempt(s), {} frames sent / {} received, \
max |diff| = {:.3e}{recovered}",
            r.name, r.workers, r.transport, r.attempts, r.sent_frames, r.recv_frames, r.max_diff
        );
    }

    // Clean/reorder legs must be *bitwise* equal to the channel transport;
    // the kill leg runs a degraded re-plan (different accumulation order)
    // and must agree to 1e-10 after a detected death and one respawn.
    let leg = |name: &str| results.iter().find(|r| r.name == name).expect("leg ran");
    let bit_identity_max = ["uds", "tcp", "reorder"]
        .iter()
        .map(|n| leg(n).max_diff)
        .fold(0.0, f64::max);
    let kill = leg("kill");

    let legs_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"transport\": \"{}\", \"workers\": {}, \
\"attempts\": {}, \"max_diff\": {:e}, \"recovered_dead\": {}, \
\"sent_frames\": {}, \"recv_frames\": {}}}",
                r.name,
                r.transport,
                r.workers,
                r.attempts,
                r.max_diff,
                r.recovered_dead.map_or("null".into(), |d| d.to_string()),
                r.sent_frames,
                r.recv_frames
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"workers\": {workers},\n  \"problem\": \"{problem}\",\n  \
\"tiny\": {tiny},\n  \"legs\": [\n{}\n  ],\n  \
\"bit_identity_max_diff\": {bit_identity_max:e},\n  \
\"kill_max_diff\": {:e},\n  \"kill_recovered\": {},\n  \
\"kill_attempts\": {}\n}}\n",
        legs_json.join(",\n"),
        kill.max_diff,
        kill.recovered_dead.is_some(),
        kill.attempts,
    );
    gates::emit(&out_path, &json, "net");
}
