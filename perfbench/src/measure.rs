//! Measurement plumbing shared by every workload: process CPU time and
//! peak memory read from `/proc`, the closed-loop driver, order statistics
//! and the benchmark's own span recorder.
//!
//! `/proc` is read directly because no `libc` crate is available offline.

use std::fmt::Write as _;
use std::time::Instant;

/// Clock ticks per second of the `/proc/self/stat` time fields, read from
/// the `AT_CLKTCK` entry of the process's auxiliary vector.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    if let Ok(raw) = std::fs::read("/proc/self/auxv") {
        for pair in raw.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte auxv key"));
            let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte auxv value"));
            if key == AT_CLKTCK && val > 0 {
                return val as f64;
            }
        }
    }
    100.0
}

/// User + system CPU seconds of this process plus its reaped children
/// (`utime + stime + cutime + cstime`). Children count once `wait`ed, so a
/// launched worker fleet is included after its launcher reaps it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Field 2 (the command name) may hold spaces; everything after its
    // closing parenthesis is space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("numeric stat time field"))
        .sum();
    ticks as f64 / clock_ticks_per_s()
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident size, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile of `xs` (nearest rank) that still has at
/// least ten samples above it, as `(percentile, value)`. With ten samples
/// or fewer no percentile qualifies and the minimum is returned as p0.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (0, v[0]);
    for p in 1..100u32 {
        // Nearest rank: the smallest index covering p% of the samples.
        let idx = ((p as usize * n).div_ceil(100)).max(1) - 1;
        if n - idx > 10 {
            best = (p, v[idx]);
        }
    }
    best
}

/// What one closed loop measured.
pub struct LoopStats {
    /// Wall seconds of each op, in order.
    pub op_s: Vec<f64>,
    /// CPU seconds inside the ops (process plus reaped children).
    pub cpu_s: f64,
    /// Peak resident MB of this process during each op.
    pub peak_rss_mb: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed their correctness check.
    pub failed: u64,
    /// The first failure's message, if any.
    pub first_error: Option<String>,
}

/// Runs `op` in a closed loop — one op in flight, the next issued when the
/// last returns, no think time — until `seconds` have elapsed. Only `op` is
/// timed; `check` validates each result afterwards, outside the timing. A
/// failed op still counts its time, so slow failures are not hidden.
pub fn closed_loop<T>(
    seconds: f64,
    mut op: impl FnMut(u64) -> Result<T, String>,
    mut check: impl FnMut(u64, T) -> Result<(), String>,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats {
        op_s: Vec::new(),
        cpu_s: 0.0,
        peak_rss_mb: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    let start = Instant::now();
    while stats.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let n = stats.attempted;
        reset_peak_rss()?;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = op(n);
        stats.op_s.push(t0.elapsed().as_secs_f64());
        stats.cpu_s += cpu_seconds() - cpu0;
        stats.peak_rss_mb.push(peak_rss_mb());
        stats.attempted += 1;
        if let Err(e) = out.and_then(|v| check(n, v)) {
            stats.failed += 1;
            stats.first_error.get_or_insert(e);
        }
    }
    Ok(stats)
}

/// Runs `f` and returns its value with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// One recorded span: a call into a layer, made by the benchmark.
pub struct Span {
    /// The layer entry point, e.g. `ExecutionPlan::build`.
    pub name: &'static str,
    /// Identifier shared by every span of one op.
    pub op: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder, written out once at the end of a run. Only the
/// traced phase records spans; the timed loop never touches it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op: spans recorded from here share a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Records `f` as a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let v = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        v
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Median duration of the spans named `name`, or 0 when none was taken.
    pub fn median_s(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let few: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&few), (0, 1.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (50, 10.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.to_json().contains("\"name\": \"inner\", \"op\": 1"));
    }
}
