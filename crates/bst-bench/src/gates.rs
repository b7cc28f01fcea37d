//! The pass/fail gates of every `results/BENCH_<stem>.json` artifact, in
//! one place.
//!
//! Each `repro_<stem>` binary hands its document to [`emit`], which writes
//! it, re-parses it and runs [`check`]; the `results_valid` test runs the
//! same [`check`] over the committed artifacts and over the `_ci` copies CI
//! regenerates. A gate reads only the emitted document, so whatever the
//! binary accepted, the committed file and every later re-check accept too.
//!
//! Every failure names the field it concerns (`"a_inter_reduction: ..."`,
//! `"shapes[0].gflops.simd: ..."`). Gated floating-point fields are emitted
//! at full precision, so a gate on the document decides exactly what a
//! gate on the in-memory value would.

use crate::minijson::{self, Value};
use bst_tile::kernel::KernelKind;
use std::path::Path;

/// One artifact's gates: failures go to [`Gates`]; a missing field ends
/// the check as the `Err`.
type Gate = fn(&Value, &mut Gates) -> Result<(), String>;

/// Every gated artifact stem with its gates, one per `repro_<stem>` binary.
const GATES: [(&str, Gate); 6] = [
    ("comm", comm),
    ("service", service),
    ("einsum", einsum),
    ("lowrank", lowrank),
    ("kernels", kernels),
    ("net", net),
];

/// The artifact stems that have gates.
pub fn artifacts() -> impl Iterator<Item = &'static str> {
    GATES.iter().map(|&(stem, _)| stem)
}

/// The artifact stem of a `results/` file name: `BENCH_comm.json` and its
/// CI copy `BENCH_comm_ci.json` are both `comm`. `None` for anything that
/// is not a `BENCH_*.json` name.
pub fn stem(file_name: &str) -> Option<&str> {
    let s = file_name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    Some(s.strip_suffix("_ci").unwrap_or(s))
}

/// Runs the gates of `artifact` (a stem of [`artifacts`]) over `doc` and
/// returns every failure; empty means the document passes. An unknown
/// stem is itself a failure.
pub fn check(artifact: &str, doc: &Value) -> Vec<String> {
    let Some(&(_, gate)) = GATES.iter().find(|&&(stem, _)| stem == artifact) else {
        return vec![format!("no gates registered for artifact \"{artifact}\"")];
    };
    let mut g = Gates(Vec::new());
    if let Err(missing) = gate(doc, &mut g) {
        g.0.push(missing);
    }
    g.0
}

/// Writes `json` to `out_path` (creating its directory), re-parses the
/// file and runs the gates of `artifact`; prints every failure and exits
/// with status 1 if there is any.
pub fn emit(out_path: &str, json: &str, artifact: &str) {
    if let Some(dir) = Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out_path, json).expect("write BENCH JSON");
    let text = std::fs::read_to_string(out_path).expect("read back BENCH JSON");
    let errors = match minijson::parse(&text) {
        Ok(doc) => check(artifact, &doc),
        Err(e) => vec![format!("emitted JSON does not re-parse: {e}")],
    };
    if !errors.is_empty() {
        eprintln!("error: {out_path} fails the BENCH_{artifact} gates:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# wrote {out_path}: gates OK");
}

/// The failures of one document's gates.
struct Gates(Vec<String>);

impl Gates {
    /// Records `"{field}: {why}"` unless `ok`.
    fn require(&mut self, ok: bool, field: &str, why: String) {
        if !ok {
            self.0.push(format!("{field}: {why}"));
        }
    }
}

/// `v[key]`; a missing field fails the document.
fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{key}: missing"))
}

/// `v[key]` as a number.
fn num(v: &Value, key: &str) -> Result<f64, String> {
    get(v, key)?.as_num().ok_or_else(|| format!("{key}: not a number"))
}

/// `v[key]` as an array.
fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    get(v, key)?.as_arr().ok_or_else(|| format!("{key}: not an array"))
}

/// `v[key]` as a string.
fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    get(v, key)?.as_str().ok_or_else(|| format!("{key}: not a string"))
}

/// `BENCH_comm.json` (`repro_comm`): the message-passing transport's five
/// legs and the tree-vs-unicast sweep.
fn comm(d: &Value, g: &mut Gates) -> Result<(), String> {
    get(d, "problem")?;
    let nodes = num(d, "nodes")?;
    let node_size = num(d, "node_size")?;
    let (sent, recv) = (num(d, "bytes_moved")?, num(d, "recv_bytes")?);
    g.require(sent == recv, "bytes_moved", format!("{sent} B sent, {recv} B received"));
    let (msgs, recv_msgs) = (num(d, "messages")?, num(d, "recv_msgs")?);
    g.require(msgs == recv_msgs, "messages", format!("{msgs} sent, {recv_msgs} received"));
    let drops = num(d, "faulted_drops")?;
    if nodes > 1.0 {
        g.require(sent > 0.0, "bytes_moved", "no bytes crossed the fabric".into());
        g.require(drops > 0.0, "faulted_drops", "the faulted leg dropped no frames".into());
    }
    for key in ["reorder_max_diff", "shaped_max_diff", "faulted_max_diff"] {
        let diff = num(d, key)?;
        g.require(diff == 0.0, key, format!("{diff:e}, must be bit-identical"));
    }
    let unicast_diff = num(d, "unicast_max_diff")?;
    g.require(unicast_diff <= 1e-10, "unicast_max_diff", format!("{unicast_diff:e} > 1e-10"));
    let (inter, unicast_inter) = (num(d, "inter_bytes_moved")?, num(d, "unicast_inter_bytes")?);
    g.require(
        inter <= unicast_inter,
        "inter_bytes_moved",
        format!("tree moved {inter} inter-node B, more than unicast's {unicast_inter}"),
    );
    // The headline claim: on multi-rank physical nodes the broadcast trees
    // cut the A tiles' NIC traffic at least in half vs point-to-point.
    let reduction = num(d, "a_inter_reduction")?;
    let (a_inter, unicast_a_inter) = (num(d, "a_inter_bytes")?, num(d, "unicast_a_inter_bytes")?);
    if node_size > 1.0 && nodes >= 2.0 * node_size {
        g.require(
            reduction >= 2.0 && 2.0 * a_inter <= unicast_a_inter,
            "a_inter_reduction",
            format!("{reduction} ({a_inter} B tree vs {unicast_a_inter} B unicast), need >= 2"),
        );
    }
    for (rate, matched, peak) in
        [("effective_gbps", "matched_inter", 23.0), ("intra_gbps", "matched_intra", 50.0)]
    {
        let gbps = num(d, rate)?;
        if num(d, matched)? > 0.0 {
            g.require(
                0.0 < gbps && gbps <= peak + 1e-9,
                rate,
                format!("{gbps} GB/s outside (0, {peak}], shaping is miscalibrated"),
            );
        }
    }
    let overlap = num(d, "overlap_fraction")?;
    g.require((0.0..=1.0).contains(&overlap), "overlap_fraction", format!("{overlap} outside [0, 1]"));
    let rows = arr(d, "per_node")?.len();
    g.require(rows as f64 == nodes, "per_node", format!("{rows} rows for {nodes} nodes"));
    for (i, row) in arr(d, "sweep")?.iter().enumerate() {
        let (tree, unicast) = (num(row, "tree_inter_bytes")?, num(row, "unicast_inter_bytes")?);
        g.require(
            tree <= unicast,
            &format!("sweep[{i}].tree_inter_bytes"),
            format!("{tree} inter-node B, more than unicast's {unicast}"),
        );
    }
    Ok(())
}

/// `BENCH_service.json` (`repro_service`): the persistent service against
/// the one-shot API on a stationary-B sweep workload.
fn service(d: &Value, g: &mut Gates) -> Result<(), String> {
    for key in ["problem", "oneshot_b_gen_bytes", "service_b_gen_bytes", "service_requests_per_s"] {
        get(d, key)?;
    }
    let diff = num(d, "warm_vs_cold_max_diff")?;
    g.require(diff == 0.0, "warm_vs_cold_max_diff", format!("{diff:e}, must be bit-identical"));
    let reduction = num(d, "b_gen_reduction")?;
    g.require(reduction >= 5.0, "b_gen_reduction", format!("{reduction}, need >= 5"));
    let hits = num(d, "plan_hits")?;
    g.require(hits > 0.0, "plan_hits", "the plan cache never hit".into());
    let (sweeps, warm_hits) = (num(d, "sweeps")?, num(d, "warm_plan_hits")?);
    g.require(
        warm_hits == sweeps - 1.0,
        "warm_plan_hits",
        format!("{warm_hits} of {} warm sweeps hit the plan cache", sweeps - 1.0),
    );
    for key in ["trace_violations", "requests_failed"] {
        let n = num(d, key)?;
        g.require(n == 0.0, key, format!("{n}, must be 0"));
    }
    Ok(())
}

/// `BENCH_einsum.json` (`repro_einsum`): the ABCD term against
/// `contract_abcd` and the two-term chain against a dense reference.
fn einsum(d: &Value, g: &mut Gates) -> Result<(), String> {
    get(d, "tiny")?;
    let bit_diff = num(get(d, "abcd")?, "bit_diff")?;
    g.require(bit_diff == 0.0, "abcd.bit_diff", format!("{bit_diff:e}, must be bit-identical"));
    let chain = get(d, "chain")?;
    let max_diff = num(chain, "max_diff")?;
    g.require(max_diff <= 1e-10, "chain.max_diff", format!("{max_diff:e} > 1e-10"));
    let terms = num(chain, "terms")?;
    g.require(terms == 2.0, "chain.terms", format!("{terms}, expected 2"));
    Ok(())
}

/// `BENCH_lowrank.json` (`repro_lowrank`): low-rank tile compression and
/// the tol = 0 stressor legs.
fn lowrank(d: &Value, g: &mut Gates) -> Result<(), String> {
    for key in ["problem", "tolerance", "b_dense_bytes", "b_stored_bytes", "bytes_saved"] {
        get(d, key)?;
    }
    let ratio = num(d, "compression_ratio")?;
    g.require(ratio >= 2.0, "compression_ratio", format!("{ratio}, need >= 2"));
    let requested = num(d, "requested_relative_error")?;
    let worst = num(d, "worst_tile_relative_error")?;
    g.require(
        worst <= requested,
        "worst_tile_relative_error",
        format!("{worst:e} above the requested {requested:e}"),
    );
    let achieved = num(d, "achieved_relative_error")?;
    g.require(
        achieved <= 50.0 * requested,
        "achieved_relative_error",
        format!("{achieved:e} above 50 x {requested:e}"),
    );
    let (lossy, dense) = (num(d, "lossy_wire_bytes")?, num(d, "dense_wire_bytes")?);
    g.require(lossy < dense, "lossy_wire_bytes", format!("{lossy} B, dense shipped {dense} B"));
    let diff = num(d, "max_stressor_diff")?;
    g.require(diff == 0.0, "max_stressor_diff", format!("{diff:e}, must be bit-identical"));
    Ok(())
}

/// `BENCH_kernels.json` (`repro_kernels`): per-shape rates of every GEMM
/// kernel and their agreement with `gemm_naive`.
fn kernels(d: &Value, g: &mut Gates) -> Result<(), String> {
    let shapes = arr(d, "shapes")?;
    g.require(!shapes.is_empty(), "shapes", "no shapes benchmarked".into());
    for (i, s) in shapes.iter().enumerate() {
        for key in ["m", "n", "k"] {
            num(s, key)?;
        }
        let diff = num(s, "max_naive_diff")?;
        g.require(
            diff < 1e-10,
            &format!("shapes[{i}].max_naive_diff"),
            format!("{diff:e}, a kernel diverges from gemm_naive"),
        );
        let gflops = get(s, "gflops")?;
        let winner = text(s, "winner")?;
        g.require(
            gflops.get(winner).is_some(),
            &format!("shapes[{i}].winner"),
            format!("\"{winner}\" is not among the measured kernels"),
        );
        for kind in KernelKind::ALL {
            g.require(
                gflops.get(kind.name()).is_some(),
                &format!("shapes[{i}].gflops.{}", kind.name()),
                "missing".into(),
            );
        }
        if let Value::Obj(rates) = gflops {
            for (name, rate) in rates {
                g.require(
                    rate.as_num().is_some_and(|r| r > 0.0),
                    &format!("shapes[{i}].gflops.{name}"),
                    format!("{rate:?}, need a positive rate"),
                );
            }
        }
    }
    Ok(())
}

/// `BENCH_net.json` (`repro_net`): the multi-process socket fleets and the
/// kill-one-worker drill.
fn net(d: &Value, g: &mut Gates) -> Result<(), String> {
    for key in ["workers", "problem"] {
        get(d, key)?;
    }
    let bit = num(d, "bit_identity_max_diff")?;
    g.require(bit == 0.0, "bit_identity_max_diff", format!("{bit:e}, must be bit-identical"));
    let kill_diff = num(d, "kill_max_diff")?;
    g.require(kill_diff <= 1e-10, "kill_max_diff", format!("{kill_diff:e} > 1e-10"));
    let recovered = get(d, "kill_recovered")?.as_bool();
    g.require(recovered == Some(true), "kill_recovered", format!("{recovered:?}"));
    let attempts = num(d, "kill_attempts")?;
    g.require(attempts == 2.0, "kill_attempts", format!("{attempts}, expected 2"));
    let legs = arr(d, "legs")?;
    let mut names = legs.iter().map(|l| text(l, "name")).collect::<Result<Vec<_>, _>>()?;
    names.sort_unstable();
    g.require(
        names == ["kill", "reorder", "tcp", "uds"],
        "legs",
        format!("{names:?}, expected kill, reorder, tcp and uds"),
    );
    for leg in legs {
        let name = text(leg, "name")?;
        for key in ["sent_frames", "recv_frames"] {
            let frames = num(leg, key)?;
            g.require(frames > 0.0, &format!("legs[{name}].{key}"), "no frames moved".into());
        }
        if name == "kill" {
            let dead = get(leg, "recovered_dead")?.as_num();
            g.require(
                dead == Some(2.0),
                "legs[kill].recovered_dead",
                format!("{dead:?}, expected rank 2 written off"),
            );
        }
    }
    Ok(())
}
