//! `momsynth-benchmark`: runs one workload and prints its record and
//! result line, or writes `BENCHMARK.json` and the trajectory pins.
//!
//! ```text
//! momsynth-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! momsynth-benchmark --write-manifest [PATH]
//! momsynth-benchmark --write-pins --seeds FIRST-LAST [--workload NAME] [PATH]
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use momsynth_benchmark::workloads::{self, Preset, RunArgs, Workload};
use momsynth_benchmark::{manifest, pins, report};
use serde_json::{json, Value};

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: momsynth-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         momsynth-benchmark --write-manifest [PATH]\n       \
         momsynth-benchmark --write-pins --seeds FIRST-LAST [--workload NAME] [PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let path_after = |name: &str, default: &str| {
        flag(name).filter(|p| !p.starts_with("--")).cloned().unwrap_or_else(|| default.to_owned())
    };
    if args.iter().any(|a| a == "--write-manifest") {
        let path = path_after("--write-manifest", "BENCHMARK.json");
        return write(&path, &manifest::render());
    }
    if args.iter().any(|a| a == "--write-pins") {
        let Some((first, last)) = flag("--seeds").and_then(|s| s.split_once('-')) else {
            return usage("--write-pins needs --seeds FIRST-LAST");
        };
        let (Ok(first), Ok(last)) = (first.parse::<u64>(), last.parse::<u64>()) else {
            return usage("--seeds takes two whole numbers");
        };
        let path = args
            .last()
            .filter(|p| p.ends_with(".json"))
            .cloned()
            .unwrap_or_else(|| "benchmark/pins.json".to_owned());
        let only = flag("--workload").and_then(|w| Workload::parse(w));
        return write(&path, &pins_json(first..=last, only));
    }

    let Some(workload) = flag("--workload").and_then(|w| Workload::parse(w)) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return usage(&format!("--workload must be one of {}", names.join(", ")));
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = flag("--seconds").and_then(|s| s.parse::<f64>().ok()).filter(|s| *s >= 0.0)
    else {
        return usage("--seconds takes a non-negative number");
    };
    let trace = match flag("--trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let run = RunArgs { workload, seed, seconds, trace, preset: Preset::Full, repeat_setup: true };
    let out = workloads::run(&run);
    let metrics = if trace { report::per_layer(&out) } else { report::end_to_end(&out) };
    eprintln!(
        "# {} seed {} trace {} ({} operations)",
        workload.name(),
        seed,
        u8::from(trace),
        out.op_s.len()
    );
    for m in out.named.iter().chain(&metrics) {
        eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("{:<34} {:>16.6} ratio", "failed_ratio", out.checks.failed_ratio());
    for problem in &out.checks.problems {
        eprintln!("FAILED {problem}");
    }
    println!("{}", json!({ "record": report::record(&run, &out, &metrics) }));
    println!("{}", report::result_line(&out, &metrics));
    ExitCode::SUCCESS
}

fn write(path: &str, contents: &str) -> ExitCode {
    match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload's shortest full-preset run at every seed and renders
/// the signatures. With `only`, just that workload is re-pinned and the
/// shipped pins of the others are kept.
fn pins_json(seeds: std::ops::RangeInclusive<u64>, only: Option<Workload>) -> String {
    let mut all: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    if only.is_some() {
        for (workload, per_seed) in pins::load() {
            let per_seed = per_seed.iter().map(|(s, sig)| (s.clone(), report::map_json(sig)));
            all.insert(workload, per_seed.collect());
        }
    }
    for seed in seeds {
        for workload in Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
            let args = RunArgs {
                workload,
                seed,
                seconds: 0.0,
                trace: false,
                preset: Preset::Full,
                repeat_setup: false,
            };
            let out = workloads::run(&args);
            eprintln!(
                "pinned {} seed {seed}: {} problems",
                workload.name(),
                out.checks.problems.len()
            );
            all.entry(workload.name().to_owned())
                .or_default()
                .insert(seed.to_string(), report::map_json(&out.signature));
        }
    }
    let workloads = all.iter().map(|(w, seeds)| (w.clone(), report::map_json(seeds))).collect();
    let pins = json!({"preset": "full", "workloads": Value::Object(workloads)});
    let text = serde_json::to_string_pretty(&pins).expect("pins serialise");
    format!("{text}\n")
}
