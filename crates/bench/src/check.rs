//! Bench-regression gating: `reproduce <exp> --check`.
//!
//! A recorded experiment emits a `BENCH_<name>.json` summary (see
//! `EXPERIMENTS.md` §"Recorded baselines"). Only deterministic,
//! modelled-clock quantities are recorded — today the one
//! `launch_batching` count; host wall is `perf/`'s instrument:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "experiment": "launch_batching",
//!   "scale": 0.02,
//!   "primary_metric": "reduction_at_batch_8",
//!   "metrics": { "reduction_at_batch_8": 7.7117 },
//!   "tolerances": { "reduction_at_batch_8": { "rel": 0.001, "dir": "both" } },
//!   "byte_identical": true,
//!   "rows": [ ... ]
//! }
//! ```
//!
//! `check_experiment` reruns the experiment at the *baseline's* recorded
//! scale, compares every metric named in the baseline's `tolerances`
//! block against the fresh run, restores the committed baseline bytes
//! (a check must never rewrite the recorded numbers), and reports
//! pass/fail per metric. `dir` selects the failure direction: `"min"`
//! fails when the fresh value drops more than `rel` below baseline,
//! `"max"` the mirror image, `"both"` on any relative departure beyond
//! `rel` — what a deterministic count uses, so that a stale committed
//! file fails in either direction.

use gpu_sim::{parse_json, Json};

/// `BENCH_<name>.json`, relative to the working directory (the repo
/// root — both CI and the committed baselines live there).
pub fn bench_path(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// Serialize a recorded-experiment summary in the schema
/// [`check_experiment`] reads back, so writer and checker cannot drift
/// apart.
/// `metrics` are `(name, value)`; `tolerances` are `(name, rel, dir)`
/// and must reference metric names; `rows` are pre-rendered JSON
/// objects, one per line.
pub(crate) fn bench_json(
    experiment: &str,
    scale: f64,
    primary_metric: &str,
    metrics: &[(&str, f64)],
    tolerances: &[(&str, f64, &str)],
    byte_identical: bool,
    rows: &[String],
) -> String {
    assert!(
        metrics.iter().any(|(n, _)| *n == primary_metric),
        "primary metric {primary_metric:?} missing from metrics"
    );
    for (n, _, _) in tolerances {
        assert!(
            metrics.iter().any(|(m, _)| m == n),
            "tolerance {n:?} references no metric"
        );
    }
    let metric_lines: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("    \"{n}\": {v:.4}"))
        .collect();
    let tol_lines: Vec<String> = tolerances
        .iter()
        .map(|(n, rel, dir)| format!("    \"{n}\": {{\"rel\": {rel}, \"dir\": \"{dir}\"}}"))
        .collect();
    format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"{experiment}\",\n  \"scale\": {scale},\n  \
         \"primary_metric\": \"{primary_metric}\",\n  \"metrics\": {{\n{}\n  }},\n  \
         \"tolerances\": {{\n{}\n  }},\n  \"byte_identical\": {byte_identical},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        metric_lines.join(",\n"),
        tol_lines.join(",\n"),
        rows.join(",\n")
    )
}

/// One metric's comparison against baseline.
pub struct MetricCheck {
    /// Metric name (a key of the baseline's `metrics` object).
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Value from the fresh rerun.
    pub fresh: f64,
    /// Relative tolerance from the baseline's `tolerances` block.
    pub rel: f64,
    /// Failure direction: `min`, `max` or `both`.
    pub dir: String,
    /// Whether the fresh value is within tolerance.
    pub ok: bool,
}

fn metric_map(root: &Json) -> Result<Vec<(String, f64)>, String> {
    match root.get("metrics") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| {
                v.as_num()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("metric {k:?} is not a number"))
            })
            .collect(),
        _ => Err("missing \"metrics\" object".into()),
    }
}

/// Rerun `name` via `runner` at the committed baseline's scale and
/// compare. Returns the per-metric comparisons and the baseline scale;
/// the caller renders the report and decides the exit code. The
/// committed `BENCH_<name>.json` is restored byte-for-byte afterwards.
pub fn check_experiment(
    name: &str,
    runner: fn(f64) -> String,
) -> Result<(f64, Vec<MetricCheck>), String> {
    let path = bench_path(name);
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!("{path}: {e} — not a recorded experiment (no committed baseline to check against)")
    })?;
    let base = parse_json(&committed).map_err(|e| format!("{path}: invalid baseline: {e}"))?;
    if base.get("schema").and_then(Json::as_num) != Some(1.0) {
        return Err(format!(
            "{path}: unsupported or missing \"schema\" (expected 1)"
        ));
    }
    let scale = base
        .get("scale")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{path}: missing \"scale\""))?;
    let base_metrics = metric_map(&base).map_err(|e| format!("{path}: {e}"))?;
    let tolerances = match base.get("tolerances") {
        Some(Json::Obj(kv)) if !kv.is_empty() => kv,
        _ => return Err(format!("{path}: missing or empty \"tolerances\" block")),
    };

    // The rerun overwrites BENCH_<name>.json; whatever happens, the
    // committed baseline bytes go back before this function returns.
    let run = std::panic::catch_unwind(|| runner(scale));
    let fresh_text = std::fs::read_to_string(&path);
    std::fs::write(&path, &committed).map_err(|e| format!("{path}: restoring baseline: {e}"))?;
    if run.is_err() {
        return Err(format!(
            "{name}: rerun at scale {scale} panicked (an experiment-internal bar failed)"
        ));
    }
    let fresh_text = fresh_text.map_err(|e| format!("{path}: fresh summary unreadable: {e}"))?;
    let fresh = parse_json(&fresh_text).map_err(|e| format!("{path}: fresh summary: {e}"))?;
    let fresh_metrics = metric_map(&fresh).map_err(|e| format!("{path}: fresh summary: {e}"))?;

    let mut checks = Vec::new();
    for (metric, tol) in tolerances {
        let rel = tol
            .get("rel")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{path}: tolerance {metric:?} missing \"rel\""))?;
        let dir = tol
            .get("dir")
            .and_then(Json::as_str)
            .unwrap_or("both")
            .to_string();
        let baseline = base_metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{path}: tolerance {metric:?} references no metric"))?;
        let fresh_v = fresh_metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{name}: fresh run emitted no metric {metric:?}"))?;
        let ok = match dir.as_str() {
            "min" => fresh_v >= baseline * (1.0 - rel),
            "max" => fresh_v <= baseline * (1.0 + rel),
            "both" => (fresh_v - baseline).abs() <= baseline.abs() * rel,
            other => {
                return Err(format!(
                    "{path}: tolerance {metric:?}: unknown dir {other:?}"
                ))
            }
        };
        checks.push(MetricCheck {
            name: metric.clone(),
            baseline,
            fresh: fresh_v,
            rel,
            dir,
            ok,
        });
    }
    Ok((scale, checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_emits_the_shared_schema() {
        let s = bench_json(
            "demo",
            0.02,
            "speedup",
            &[("speedup", 2.5), ("aux", 1.0)],
            &[("speedup", 0.3, "min")],
            true,
            &["    {\"k\": 1}".into()],
        );
        let j = parse_json(&s).expect("self-parse");
        assert_eq!(j.get("schema").and_then(Json::as_num), Some(1.0));
        assert_eq!(j.get("experiment").and_then(Json::as_str), Some("demo"));
        assert_eq!(
            j.get("primary_metric").and_then(Json::as_str),
            Some("speedup")
        );
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("speedup"))
                .and_then(Json::as_num),
            Some(2.5)
        );
        let tol = j.get("tolerances").and_then(|t| t.get("speedup")).unwrap();
        assert_eq!(tol.get("rel").and_then(Json::as_num), Some(0.3));
        assert_eq!(tol.get("dir").and_then(Json::as_str), Some("min"));
        assert!(j.get("rows").is_some());
    }

    #[test]
    #[should_panic(expected = "references no metric")]
    fn bench_json_rejects_dangling_tolerance() {
        bench_json(
            "demo",
            0.02,
            "x",
            &[("x", 1.0)],
            &[("y", 0.1, "min")],
            true,
            &[],
        );
    }

    #[test]
    fn tolerance_directions() {
        // dir=min: only a drop beyond rel fails.
        for (fresh, ok) in [(2.5, true), (1.8, true), (1.74, false), (99.0, true)] {
            let within = fresh >= 2.5 * (1.0 - 0.3);
            assert_eq!(within, ok, "fresh {fresh}");
        }
    }
}
