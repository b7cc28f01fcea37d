//! Gate sweep over `results/`: every `BENCH_<stem>.json` — the committed
//! artifacts and the `BENCH_<stem>_ci.json` copies CI's smoke steps
//! regenerate — must re-parse and pass `bst_bench::gates::check`, the same
//! gates the emitting binary ran. A regressed or hand-edited artifact fails
//! `cargo test` instead of silently shipping.

use bst_bench::gates;
use bst_bench::minijson::{parse, Value};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: unreadable: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: does not parse: {e}", path.display()))
}

/// Sweeps every `BENCH_*.json` in `results/`. Unknown stems fail loudly:
/// adding a benchmark without registering its gates in `bst_bench::gates`
/// would otherwise reopen the silent-regression hole this test closes.
#[test]
fn every_committed_bench_artifact_passes_its_gates() {
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(results_dir()).expect("results/ directory") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(stem) = gates::stem(&name) else { continue };
        assert!(
            gates::artifacts().any(|s| s == stem),
            "{name}: benchmark artifact with no registered gates — add them to bst_bench::gates"
        );
        let doc = load(&path);
        let errors = gates::check(stem, &doc);
        assert!(errors.is_empty(), "{name} fails its gates:\n  {}", errors.join("\n  "));
        // The committed comm artifact and CI's copy are both the P=16,
        // node_size=4 configuration the headline numbers quote.
        if stem == "comm" {
            let field = |key: &str| doc.get(key).and_then(Value::as_num);
            assert_eq!(field("nodes"), Some(16.0), "{name}: wrong node count");
            assert_eq!(field("node_size"), Some(4.0), "{name}: wrong node size");
        }
        seen.push(name);
    }
    // The sweep must actually cover the committed set; an empty results/
    // would vacuously pass otherwise.
    for stem in gates::artifacts() {
        let required = format!("BENCH_{stem}.json");
        assert!(seen.contains(&required), "missing committed artifact {required}");
    }
}

/// `doc[path]`, descending through object keys and array indices.
fn at<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(doc, |v, key| match v {
        Value::Obj(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
        }
        Value::Arr(items) => &mut items[key.parse::<usize>().expect("array index")],
        other => panic!("cannot index {other:?} with {key}"),
    })
}

/// Every gate can fail: perturbing one gated field of each committed
/// artifact makes `check` reject the document with a failure naming that
/// field.
#[test]
fn each_gate_rejects_a_perturbed_artifact() {
    let cases: &[(&str, &[&str], Value, &str)] = &[
        ("comm", &["a_inter_reduction"], Value::Num(1.5), "a_inter_reduction"),
        ("comm", &["recv_msgs"], Value::Num(1.0), "messages"),
        ("comm", &["faulted_max_diff"], Value::Num(1e-3), "faulted_max_diff"),
        ("comm", &["effective_gbps"], Value::Num(30.0), "effective_gbps"),
        ("comm", &["sweep", "0", "tree_inter_bytes"], Value::Num(1e18), "sweep[0]"),
        ("service", &["b_gen_reduction"], Value::Num(4.9), "b_gen_reduction"),
        ("service", &["warm_plan_hits"], Value::Num(1.0), "warm_plan_hits"),
        ("service", &["requests_failed"], Value::Num(1.0), "requests_failed"),
        ("service", &["trace_violations"], Value::Num(1.0), "trace_violations"),
        ("einsum", &["abcd", "bit_diff"], Value::Num(1e-3), "bit_diff"),
        ("einsum", &["chain", "terms"], Value::Num(3.0), "terms"),
        ("lowrank", &["compression_ratio"], Value::Num(1.9), "compression_ratio"),
        ("lowrank", &["worst_tile_relative_error"], Value::Num(1.0), "worst_tile_relative_error"),
        ("lowrank", &["max_stressor_diff"], Value::Num(1e-12), "max_stressor_diff"),
        ("kernels", &["shapes", "0", "gflops", "simd"], Value::Num(0.0), "gflops.simd"),
        ("kernels", &["shapes", "0", "max_naive_diff"], Value::Num(1e-3), "max_naive_diff"),
        ("net", &["kill_attempts"], Value::Num(3.0), "kill_attempts"),
        ("net", &["legs", "3", "recovered_dead"], Value::Null, "recovered_dead"),
        ("net", &["legs", "1", "recv_frames"], Value::Num(0.0), "recv_frames"),
    ];
    for (stem, path, bad, field) in cases {
        let mut doc = load(&results_dir().join(format!("BENCH_{stem}.json")));
        assert_eq!(gates::check(stem, &doc), Vec::<String>::new(), "{stem}: committed doc fails");
        *at(&mut doc, path) = bad.clone();
        let errors = gates::check(stem, &doc);
        assert!(
            errors.iter().any(|e| e.contains(field)),
            "{stem}: setting {path:?} to {bad:?} gave {errors:?}, none naming {field}"
        );
    }

    // Removing a leg is a structural failure of its own.
    let mut net = load(&results_dir().join("BENCH_net.json"));
    if let Value::Arr(legs) = at(&mut net, &["legs"]) {
        legs.pop();
    }
    assert!(gates::check("net", &net).iter().any(|e| e.starts_with("legs:")));

    // A CI copy resolves to the same gate as the committed artifact.
    for stem in gates::artifacts() {
        assert_eq!(gates::stem(&format!("BENCH_{stem}_ci.json")), Some(stem));
        assert_eq!(gates::stem(&format!("BENCH_{stem}.json")), Some(stem));
    }
    assert_eq!(gates::stem("fig2.csv"), None);
    assert!(!gates::check("nonesuch", &Value::Null).is_empty());
}
