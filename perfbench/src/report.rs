//! The metric catalogue and the result of one run: every metric by name
//! with its unit, the op counts, and the final JSON line.

use crate::measure::LoopStats;

/// End-to-end metrics with their units, in print order. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("gflops", "GF/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Task kinds of the engine's lowered DAG, as `Op::kind` names them.
pub const TASK_KINDS: &[&str] = &[
    "Gemm",
    "GenB",
    "SendA",
    "RecvA",
    "LoadA",
    "LoadBlock",
    "FlushBlock",
    "EvictChunk",
    "ReduceC",
];

/// Per-layer metrics with their units, task-kind metrics excluded (see
/// [`per_layer_catalogue`]).
const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("gen.s", "s"),
    ("plan.s", "s"),
    ("plan.gemm_tasks", "count"),
    ("plan.blocks", "count"),
    ("plan.chunks", "count"),
    ("plan.imbalance", "ratio"),
    ("plan.a_h2d_bytes", "B"),
    ("plan.b_gen_bytes", "B"),
    ("lower.s", "s"),
    ("lower.tasks", "count"),
    ("lower.sendA_order_variants", "count"),
    ("engine.s", "s"),
    ("engine.cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("kernel.gflops", "GF/s"),
    ("kernel.ref_gflops", "GF/s"),
    ("engine.roofline_frac", "ratio"),
    ("pool.hit_rate", "ratio"),
    ("comm.bytes", "B"),
    ("comm.msgs", "count"),
    ("comm.inter_bytes", "B"),
    ("comm.a_bytes", "B"),
    ("service.plan_hit_rate", "ratio"),
    ("service.bcache_hit_rate", "ratio"),
    ("service.bytes_saved", "B"),
    ("service.cold_s", "s"),
    ("net.frames", "count"),
    ("net.attempts", "count"),
    ("codec.mb_per_s", "MB/s"),
    ("fleet.inproc_s", "s"),
    ("fleet.overhead_s", "s"),
    ("replay.s", "s"),
    ("replay.self_s", "s"),
    ("sim.makespan_s", "s"),
    ("sim.makespan_spread", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in TASK_KINDS {
        out.push((format!("task.{kind}.count"), "count"));
        out.push((format!("task.{kind}.exec_s"), "s"));
        out.push((format!("task.{kind}.queue_s"), "s"));
    }
    out
}

/// The metrics and op counts of one run.
#[derive(Default)]
pub struct Report {
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
    /// Ops attempted over the whole run: set-up, timed and traced ops.
    pub attempted: u64,
    /// Ops that returned an error or failed a correctness check.
    pub failed: u64,
    /// Failure messages, printed for diagnosis.
    pub errors: Vec<String>,
    /// Free-form lines printed before the metrics (sample counts, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.push((name.to_string(), value));
    }

    /// The end-to-end value recorded under `name`, if any.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            per_layer_catalogue().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.per_layer.push((name.to_string(), value));
    }

    /// Counts one checked op run outside the timed loop.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Folds a timed loop's op counts into the run's.
    pub fn absorb(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.errors.extend(stats.first_error.clone());
    }

    /// `(name, value, unit)` of the requested set in catalogue order. A
    /// per-layer metric the workload did not set belongs to a layer it
    /// bypasses and reads 0.
    pub fn metrics(&self, traced: bool) -> Vec<(String, f64, &'static str)> {
        let (catalogue, set): (Vec<(String, &'static str)>, _) = if traced {
            (per_layer_catalogue(), &self.per_layer)
        } else {
            (
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect(),
                &self.end_to_end,
            )
        };
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = set
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    }

    /// The human-readable lines: notes, the end-to-end metrics, and the
    /// per-layer metrics when traced.
    pub fn text(&self, traced: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        let mut sets = vec![false];
        if traced {
            sets.push(true);
        }
        for set in sets {
            for (name, value, unit) in self.metrics(set) {
                out.push_str(&format!("{name:<28} {value:>16.6} {unit}\n"));
            }
        }
        out
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn json_line(&self, traced: bool) -> String {
        let body: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number for `x`: Rust's shortest round-trip form, with
/// non-finite values (which JSON cannot carry) mapped to 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_layers_read_zero_and_json_has_every_metric() {
        let mut r = Report::default();
        r.layer("plan.s", 0.25);
        r.record(Ok(()));
        let line = r.json_line(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"plan.s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"replay.s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(r.metrics(true).len(), per_layer_catalogue().len());
    }
}
