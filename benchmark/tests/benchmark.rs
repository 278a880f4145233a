//! The benchmark's own tests: the `BENCHMARK.json` schema, seed plumbing
//! and a smoke run of every workload.

use std::collections::BTreeSet;

use momsynth_benchmark::manifest::{self, Better};
use momsynth_benchmark::report;
use momsynth_benchmark::workloads::{self, Preset, RunArgs, Workload};
use serde_json::Value;

fn quick(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs { workload, seed, seconds: 0.0, trace, preset: Preset::Quick, repeat_setup: false }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn committed_manifest_is_current() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, manifest::render(), "regenerate with --write-manifest");
}

#[test]
fn manifest_meets_the_schema() {
    let text = manifest::render();
    assert!(text.len() <= 64 * 1024);
    let m: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        keys(&m),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let command = m.get("command").and_then(Value::as_array).expect("command list");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("string argument");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = m.get("paths").and_then(Value::as_array).expect("paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("string path");
        assert!(
            p.len() <= 200 && p.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
        );
    }
    let run_seconds = m.get("run_seconds").and_then(Value::as_u64).expect("whole seconds");
    assert!((1..=60).contains(&run_seconds));

    let mut names = BTreeSet::new();
    let workloads = m.get("workloads").and_then(Value::as_array).expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(is_name(w.get("name").and_then(Value::as_str).expect("name")));
    }
    let e2e = m.get("end_to_end").and_then(Value::as_array).expect("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    for metric in e2e {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e.iter().find(|x| x.get("name").and_then(Value::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest =
        e2e.iter().filter_map(|x| x.get("bound").and_then(Value::as_f64)).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    let layers = m.get("per_layer").and_then(Value::as_array).expect("per_layer");
    assert!((1..=128).contains(&layers.len()));
    for metric in layers {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
    }
    for metric in e2e.iter().chain(layers) {
        let name = metric.get("name").and_then(Value::as_str).expect("name");
        assert!(is_name(name), "{name}");
        assert!(names.insert(name.to_owned()), "{name} is used twice");
        assert!(is_unit(metric.get("unit").and_then(Value::as_str).expect("unit")));
        assert!(matches!(metric.get("better").and_then(Value::as_str), Some("lower" | "higher")));
    }
    assert!(manifest::per_layer()
        .iter()
        .all(|d| d.bound.is_none() && matches!(d.better, Better::Lower | Better::Higher)));
}

#[test]
fn seeds_change_inputs_and_repeat_counts() {
    let a = workloads::run(&quick(Workload::GaFixedMix, 3, false));
    let b = workloads::run(&quick(Workload::GaFixedMix, 3, false));
    let c = workloads::run(&quick(Workload::GaFixedMix, 4, false));
    assert!(!a.signature.is_empty());
    assert_eq!(a.signature, b.signature, "the same seed repeats every count and bit");
    assert_eq!(a.counts, b.counts);
    assert_ne!(a.signature, c.signature, "another seed gives other inputs");
    assert_ne!(a.config, c.config);
}

#[test]
fn smoke_every_workload() {
    let e2e_names: Vec<String> = manifest::end_to_end().into_iter().map(|d| d.name).collect();
    let layer_names: Vec<String> = manifest::per_layer().into_iter().map(|d| d.name).collect();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = workloads::run(&quick(workload, 1, trace));
            assert!(
                out.checks.problems.is_empty(),
                "{}: {:?}",
                workload.name(),
                out.checks.problems
            );
            let metrics = if trace { report::per_layer(&out) } else { report::end_to_end(&out) };
            let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(names, if trace { layer_names.clone() } else { e2e_names.clone() });
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            let get =
                |name: &str| metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
            if !trace {
                assert!(metrics.iter().all(|m| m.value > 0.0), "{}: {metrics:?}", workload.name());
            } else {
                match workload {
                    Workload::GaDvsSmartphone => assert!(get("dvs.calls") > 0.0),
                    Workload::GaFixedMix => assert_eq!(get("dvs.calls"), 0.0),
                    Workload::ProveDfs => assert!(get("prove.leaves") > 0.0),
                    Workload::ServeClosed => assert!(get("journal.writes") > 0.0),
                }
                // Only a GA pass turns on the program's own telemetry.
                let ga = matches!(workload, Workload::GaDvsSmartphone | Workload::GaFixedMix);
                assert_eq!(get("trace.overhead_ratio") > 0.0, ga);
                assert_eq!(out.counts.get("sched.calls").is_some_and(|&n| n > 0), ga);
            }
            let line = report::result_line(&out, &metrics);
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        }
    }
}
