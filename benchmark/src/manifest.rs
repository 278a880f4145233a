//! The metric catalogue and the `BENCHMARK.json` it renders to.

use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::mul;
use serde_json::{json, Value};

use crate::workloads::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--locked",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name: name.to_owned(), unit, better, bound: Some(bound) }
}

fn layer(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.to_owned(), unit, better, bound: None }
}

/// End-to-end metrics, printed by every untraced run. One name covers
/// each workload's own operation: a synthesis pass (`synth_s`), a pass of
/// certificates (`prove_s`) or one job from submit to verified
/// (`job_s_p50`).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("op_s", "s", Lower, 0.25),
        e2e("work_per_s", "1/s", Higher, 0.25),
        e2e("bound_ratio", "x", Lower, 0.2),
        e2e("power_mw", "mW", Lower, 0.2),
        e2e("peak_rss_mb", "MB", Lower, 0.1),
    ]
}

/// Mode names the per-mode replay covers: the smartphone's and mul3's.
pub fn replayed_modes() -> Vec<String> {
    [smartphone(), mul(3)]
        .iter()
        .flat_map(|s| s.omsm().modes().map(|(_, m)| m.name().to_owned()).collect::<Vec<_>>())
        .collect()
}

/// Per-layer metrics, printed by every traced run (`0` where a layer
/// does not run on the workload).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        layer("analyze.s", "s", Lower),
        layer("ga.generations", "count", Lower),
        layer("ga.evaluations", "count", Lower),
        layer("ga.self_s", "s", Lower),
        layer("cache.hits", "count", Higher),
        layer("cache.misses", "count", Lower),
        layer("cache.hit_ratio", "ratio", Higher),
        layer("cache.evictions", "count", Lower),
        layer("fitness.calls", "count", Lower),
        layer("fitness.s", "s", Lower),
        layer("fitness.evals_per_s", "1/s", Higher),
        layer("alloc.calls", "count", Lower),
        layer("alloc.s", "s", Lower),
        layer("sched.calls", "count", Lower),
        layer("sched.s", "s", Lower),
        layer("sched.us_per_call", "us", Lower),
        layer("dvs.calls", "count", Lower),
        layer("dvs.s", "s", Lower),
        layer("dvs.iterations", "count", Lower),
        layer("dvs.iterations_per_call", "count", Lower),
        layer("power.calls", "count", Lower),
        layer("power.s", "s", Lower),
        layer("check.calls", "count", Lower),
        layer("check.s", "s", Lower),
        layer("check.failed_ratio", "ratio", Lower),
        layer("prove.leaves", "count", Lower),
        layer("prove.pruned_by_bound", "count", Higher),
        layer("prove.prune_ratio", "ratio", Higher),
        layer("prove.leaves_per_s", "1/s", Higher),
        layer("queue.wait_s_p50", "s", Lower),
        layer("queue.rejected", "count", Lower),
        layer("journal.writes", "count", Lower),
        layer("journal.write_s", "s", Lower),
        layer("journal.fsync_s", "s", Lower),
        layer("journal.bytes", "B", Lower),
        layer("checkpoint.bytes", "B", Lower),
        layer("serve.run_s", "s", Lower),
        layer("serve.overhead_ratio", "x", Lower),
        layer("trace.overhead_ratio", "x", Lower),
    ];
    for mode in replayed_modes() {
        defs.push(layer(&format!("sched.mode.{mode}.us_per_call"), "us", Lower));
        defs.push(layer(&format!("dvs.mode.{mode}.us_per_call"), "us", Lower));
    }
    defs
}

fn metric_json(def: &MetricDef) -> Value {
    match def.bound {
        Some(bound) => {
            json!({"name": def.name, "unit": def.unit, "better": def.better.name(), "bound": bound})
        }
        None => json!({"name": def.name, "unit": def.unit, "better": def.better.name()}),
    }
}

/// `BENCHMARK.json`, rendered with its keys in the documented order.
pub fn render() -> String {
    let list = |items: Vec<Value>| {
        let lines: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads =
        Workload::ALL.iter().map(|w| json!({"name": w.name(), "why": w.why()})).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json!(COMMAND),
        list(workloads),
        list(end_to_end().iter().map(metric_json).collect()),
        list(per_layer().iter().map(metric_json).collect()),
    )
}
