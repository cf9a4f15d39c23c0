//! Metric names, the result line, and the exact-count ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with tracing off. One
/// name covers both workload shapes: a trial on the sweeps, a job on
/// `serve_open` (see `README.md` for the per-workload meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("sim_rounds", "rounds"),
    ("charged_rounds", "rounds"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with tracing on. A layer
/// a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trial.ms", "ms"),
    ("reference.ms", "ms"),
    ("reference.runs", "count"),
    ("plan.ms", "ms"),
    ("plan.carve_ms", "ms"),
    ("plan.share_ms", "ms"),
    ("plan.assemble_ms", "ms"),
    ("plan.draws_units_ms", "ms"),
    ("plan.delay_entries", "count"),
    ("plan.ns_per_delay_entry", "ns"),
    ("plan.predict_gap_rounds", "rounds"),
    ("plan.precompute_rounds", "rounds"),
    ("exec.ms", "ms"),
    ("exec.rounds_per_s", "1/s"),
    ("exec.delivered", "count"),
    ("exec.late", "count"),
    ("exec.max_arc_queue", "count"),
    ("shard.step_ms", "ms"),
    ("shard.drain_ms", "ms"),
    ("shard.wait_ms", "ms"),
    ("shard.cross_msgs", "count"),
    ("net.exec_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.frames", "count"),
    ("net.bytes", "B"),
    ("net.bytes_per_big_round", "B"),
    ("verify.ms", "ms"),
    ("verify.mismatches", "count"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.result_ms_p50", "ms"),
    ("serve.batch_k_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.max_jobs_per_s", "1/s"),
    ("gen.lag_ms_p99", "ms"),
    ("serve.replay.batch_ms", "ms"),
    ("serve.replay.reference_ms", "ms"),
    ("serve.replay.sweep_artifact_ms", "ms"),
    ("serve.replay.plan_ms", "ms"),
    ("serve.replay.exec_ms", "ms"),
    ("serve.replay.exec_fused_ms", "ms"),
    ("serve.replay.verify_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Trials or jobs attempted.
    pub attempted: u64,
    /// Of those, how many failed (verify mismatch, plan/exec error, round
    /// cap, rejection, timeout, or an output that does not re-derive).
    pub failed: u64,
    /// Human-readable reasons for failures and broken invariants.
    pub problems: Vec<String>,
    /// End-to-end values by name (tracing off).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (tracing on).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat between runs of one seed, in a fixed
    /// textual form.
    pub counts: Vec<(&'static str, String)>,
    /// Extra lines printed before the result line: the workload-specific
    /// names (`trials_per_s`, `job_ms_p99`, ...) for this workload.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failure with its reason (reasons are capped so a
    /// systematic failure does not flood the output).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a broken invariant that is not a per-item failure.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Whether the run saw no failure and no broken invariant.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Formats a metric value with all its digits (Rust's shortest exact
/// round-trip form); non-finite values, which JSON cannot carry, read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The contract's last stdout line: `correct`, `attempted`, `failed`, and
/// the end-to-end (or, traced, the per-layer) metrics with units.
///
/// # Panics
/// Panics if a workload forgot an end-to-end metric: every workload must
/// report all of them.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let (names, values) = if trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = match values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    )
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exact-count guard across runs: the counts of one `(binary,
/// workload, seed)` are written to `.bench_counts/` in the working
/// directory on first sight and compared on every later run. Keying by
/// the executable's hash means a rebuilt program starts a fresh record.
/// Returns a description of every count that changed.
pub fn check_ledger(workload: &str, seed: u64, counts: &[(&'static str, String)]) -> Vec<String> {
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|b| fnv1a(&b))
        .unwrap_or(0);
    let dir = std::path::Path::new(".bench_counts");
    let path = dir.join(format!("{workload}-{seed}-{exe_hash:016x}.txt"));
    let body: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let before: BTreeMap<&str, &str> =
                prev.lines().filter_map(|l| l.split_once(' ')).collect();
            counts
                .iter()
                .filter_map(|(k, v)| match before.get(k) {
                    Some(old) if old != v => Some(format!(
                        "count {k} was {old} on an earlier run of this seed, now {v}"
                    )),
                    _ => None,
                })
                .collect()
        }
        Err(_) => {
            let tmp = dir.join(format!(".{workload}-{seed}.tmp"));
            let _ = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&tmp, body))
                .and_then(|()| std::fs::rename(&tmp, &path));
            Vec::new()
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_in_order_with_units() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.end_to_end.insert(name, i as f64 + 0.5);
        }
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        // traced lines fill unloaded layers with 0
        let traced = result_line(&out, true);
        assert!(traced.contains("\"net.frames\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn failures_and_problems_make_the_run_incorrect() {
        let mut out = Outcome::default();
        assert!(out.correct());
        out.problem("counts moved".into());
        assert!(!out.correct());
        assert_eq!(out.failed, 0);
        out.fail("mismatch".into());
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
