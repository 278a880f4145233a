//! Turning an [`Outcome`] into the printed record and result line.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::calib::{self, Phase};
use crate::manifest;
use crate::pins;
use crate::provenance;
use crate::stats::{median, spread, tail};
use crate::workloads::{Metric, Outcome, Preset, RunArgs};

/// The end-to-end metrics of an untraced run, in catalogue order.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let (setup, ops) = (calib::slowdown(Phase::Setup), calib::slowdown(Phase::Ops));
    let value = |name: &str| match name {
        "setup_s" => median(&out.setup_s) / setup,
        "op_s" => median(&out.op_s) / ops,
        "work_per_s" => out.work / out.work_s.max(1e-9) * ops,
        "bound_ratio" => out.bound_ratio,
        "power_mw" => out.power_mw,
        "peak_rss_mb" => provenance::peak_rss_mb(),
        other => unreachable!("no end-to-end metric named {other}"),
    };
    manifest::end_to_end()
        .into_iter()
        .map(|d| Metric { value: value(&d.name), name: d.name, unit: d.unit })
        .collect()
}

/// Every per-layer metric of a traced run, in catalogue order; `0` where
/// the layer does not run on the workload.
pub fn per_layer(out: &Outcome) -> Vec<Metric> {
    manifest::per_layer()
        .into_iter()
        .map(|d| {
            let value = match d.name.as_str() {
                "check.failed_ratio" => out.checks.failed_ratio(),
                name => out.layers.get(name).copied().unwrap_or(0.0),
            };
            Metric { name: d.name, value, unit: d.unit }
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

/// A string-keyed map as a JSON object.
pub fn map_json<V: serde::Serialize>(map: &BTreeMap<String, V>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), json!(v))).collect())
}

/// The last line a run prints: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> Value {
    json!({
        "correct": out.checks.failed == 0 && out.checks.attempted > 0,
        "attempted": out.checks.attempted.max(1),
        "failed": out.checks.failed,
        "metrics": metrics_json(metrics),
    })
}

/// The full record printed before the result line: provenance, the
/// workload's named metrics, counts, timings and every problem found.
pub fn record(args: &RunArgs, out: &Outcome, metrics: &[Metric]) -> Value {
    json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": json!({
            "git_revision": provenance::git_revision(),
            "preset": args.preset.name(),
            "nproc": provenance::nproc(),
            "tracing": args.trace,
            "setups": out.setup_s.len(),
        }),
        "config": out.config,
        "calibration": json!({
            "nominal_s": calib::NOMINAL_S,
            "setup_samples_s": calib::samples(Phase::Setup),
            "ops_samples_s": calib::samples(Phase::Ops),
            "setup_slowdown": calib::slowdown(Phase::Setup),
            "ops_slowdown": calib::slowdown(Phase::Ops),
        }),
        "metrics": metrics_json(metrics),
        "named": metrics_json(&out.named),
        "failed_ratio": out.checks.failed_ratio(),
        "counts": map_json(&out.counts),
        "setup_s": json!({
            "samples": out.setup_s,
            "median": median(&out.setup_s),
            "spread": spread(&out.setup_s),
        }),
        "op_s": json!({
            "samples": out.op_s,
            "median": median(&out.op_s),
            "spread": spread(&out.op_s),
            "tail_percentile": tail(&out.op_s).0,
        }),
        "pinned": args.preset == Preset::Full
            && pins::lookup(args.workload.name(), args.seed).is_some(),
        "signature": map_json(&out.signature),
        "problems": out.checks.problems,
    })
}
