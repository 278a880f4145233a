//! The four named workloads and what they share: run arguments, seed
//! derivation, the timed loop, correctness bookkeeping and the report.

use std::collections::BTreeMap;
use std::time::Instant;

use momsynth_core::SynthesisConfig;
use momsynth_model::System;
use serde_json::{json, Value};

use crate::pins::Signature;
use crate::stats::median;
use crate::trace::Tracer;

pub mod ga;
pub mod prove;
pub mod replay;
pub mod serve;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-config DVS synthesis of the smartphone at two threads.
    GaDvsSmartphone,
    /// Serial fixed-voltage synthesis of mul3, mul12 and the automotive ECU.
    GaFixedMix,
    /// Branch-and-bound certificates on the smartphone (DVS) and mul3.
    ProveDfs,
    /// Closed-loop quick jobs through an in-process job server.
    ServeClosed,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Self; 4] =
        [Self::GaDvsSmartphone, Self::GaFixedMix, Self::ProveDfs, Self::ServeClosed];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::GaDvsSmartphone => "ga_dvs_smartphone",
            Self::GaFixedMix => "ga_fixed_mix",
            Self::ProveDfs => "prove_dfs",
            Self::ServeClosed => "serve_closed",
        }
    }

    /// One line on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Self::GaDvsSmartphone => {
                "PV-DVS and list scheduling dominate; per-mode keys repeat; batch pricing runs on 2 threads"
            }
            Self::GaFixedMix => {
                "DVS does no work, so scheduling, allocation and GA overhead dominate; serial baseline"
            }
            Self::ProveDfs => {
                "serial depth-first search over the same fitness layers, leaves differing in one gene, bound pruning"
            }
            Self::ServeClosed => {
                "short jobs, so queue, journal fsyncs, checkpoints and verification weigh in latency and disk"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// GA preset of the synthesis runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `SynthesisConfig::fast_preset`, for smoke runs.
    Quick,
    /// `SynthesisConfig::new`, the measured configuration.
    Full,
}

impl Preset {
    /// `"quick"` or `"full"`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Full => "full",
        }
    }

    /// The synthesis configuration for `seed` under this preset.
    pub fn config(self, seed: u64, dvs: bool) -> SynthesisConfig {
        let cfg = match self {
            Self::Quick => SynthesisConfig::fast_preset(seed),
            Self::Full => SynthesisConfig::new(seed),
        };
        if dvs {
            cfg.with_dvs()
        } else {
            cfg
        }
    }
}

/// Arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
    /// GA preset.
    pub preset: Preset,
    /// Repeat the set-up to report a steady median ([`repeated_setup`]);
    /// off, it runs once.
    pub repeat_setup: bool,
}

/// SplitMix64 step: a well-mixed 64-bit value from `seed` and `salt`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for sampling inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = derive(self.0, 1);
        (self.0 % n as u64) as usize
    }
}

/// Builds one of the generator crate's systems.
pub type Generator = fn() -> System;

/// Round-trips a generated system through its JSON spec, as a user
/// loading a spec file would.
pub fn parse_spec(system: &System) -> System {
    let text = serde_json::to_string(system).expect("systems serialise");
    serde_json::from_str(&text).expect("a serialised system parses")
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

/// Correctness bookkeeping: every checked operation is one attempt, and
/// an attempt with any problem is one failure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
    /// Every problem found, labelled by operation.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records one operation and its problems.
    pub fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }

    /// Failed share of attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up times, one per repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed operation.
    pub op_s: Vec<f64>,
    /// Counted work completed in the timed phase (evaluations, leaves, jobs).
    pub work: f64,
    /// Wall time the counted work took.
    pub work_s: f64,
    /// Achieved cost ÷ lower bound (geometric mean over systems).
    pub bound_ratio: f64,
    /// Best Eq. 1 average power, mean over systems.
    pub power_mw: f64,
    /// The workload's metrics under the names the workload documents.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Exact work counts; they repeat for the same code and seed.
    pub counts: BTreeMap<String, u64>,
    /// What the pin for this workload and seed is checked against.
    pub signature: Signature,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Workload-specific configuration for the record.
    pub config: Value,
}

/// Runs `op` back to back, at least `min_ops` times, and then while
/// another operation of average length would end less than half an
/// operation past `seconds`. Returns each operation's wall time and output.
pub fn timed_loop<T>(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out: Vec<(f64, T)> = Vec::new();
    while out.len() < min_ops || {
        let mean_s = out.iter().map(|(t, _)| t).sum::<f64>() / out.len() as f64;
        start.elapsed().as_secs_f64() + mean_s / 2.0 < seconds
    } {
        crate::calib::point(crate::calib::Phase::Ops);
        let t = Instant::now();
        let value = op(out.len());
        out.push((t.elapsed().as_secs_f64(), value));
    }
    out
}

/// Set-up repeats in two windows of about this length: one before the
/// timed phase and one after it. On a shared host, contention slows the
/// CPU by up to 1.6x in phases that last from a fraction of a second to a
/// few seconds, so the median of a set-up of a few milliseconds repeats
/// between runs only when it samples two phases far apart.
pub const SETUP_WINDOW_S: f64 = 1.5;

/// Least time between calibration points in a set-up window.
const CALIBRATE_EVERY_S: f64 = 0.25;

/// Most set-up repetitions in one window.
pub const SETUP_MAX: usize = 5000;

/// Least set-up repetitions before the timed phase of a measured run,
/// unless one set-up outlasts the window.
pub const SETUP_MIN: usize = 3;

/// Runs `setup` at least `min` times (once, if it outlasts the window),
/// then while another set-up of median length would end less than half a
/// set-up past [`SETUP_WINDOW_S`], each time dropping the previous state
/// untimed. Calibrates the host speed every [`CALIBRATE_EVERY_S`]. Returns
/// the last state.
fn setup_window<T>(times_s: &mut Vec<f64>, min: usize, mut setup: impl FnMut() -> T) -> Option<T> {
    let start = Instant::now();
    let first = times_s.len();
    let mut state = None;
    let mut calibrated: Option<Instant> = None;
    loop {
        if calibrated.is_none_or(|c| c.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S) {
            crate::calib::point(crate::calib::Phase::Setup);
            calibrated = Some(Instant::now());
        }
        let n = times_s.len() - first;
        let half = if times_s.is_empty() { 0.0 } else { median(times_s) / 2.0 };
        let enough = n >= min || (n > 0 && 2.0 * half >= SETUP_WINDOW_S);
        if enough && (n >= SETUP_MAX || start.elapsed().as_secs_f64() + half >= SETUP_WINDOW_S) {
            return state;
        }
        drop(state.take());
        let t = Instant::now();
        let value = setup();
        times_s.push(t.elapsed().as_secs_f64());
        state = Some(value);
    }
}

/// Runs `setup` once, or, when `repeat`, for the first set-up window.
/// Returns each set-up's wall time and the last state.
pub fn repeated_setup<T>(repeat: bool, setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times_s = Vec::new();
    let state = setup_window(&mut times_s, if repeat { SETUP_MIN } else { 1 }, setup);
    (times_s, state.expect("at least one set-up"))
}

/// When `repeat`, runs the second set-up window after the timed phase and
/// appends its wall times. A set-up longer than the window is not repeated.
pub fn more_setups<T>(repeat: bool, times_s: &mut Vec<f64>, setup: impl FnMut() -> T) {
    if repeat {
        setup_window(times_s, 0, setup);
    }
}

/// Where a pass's signature differs from its variant's first pass.
pub fn repeat_problems(first: &Signature, pass: Signature) -> Vec<String> {
    pass.into_iter()
        .filter(|(key, value)| first.get(key) != Some(value))
        .map(|(key, value)| format!("{key} = {value} differs from the variant's first pass"))
        .collect()
}

/// Holds `signature` against the shipped pin for this workload and seed,
/// if one exists (full preset only), as one more checked operation.
pub fn check_pin(args: &RunArgs, checks: &mut Checks, signature: &Signature) {
    if args.preset != Preset::Full {
        return;
    }
    if let Some(pin) = crate::pins::lookup(args.workload.name(), args.seed) {
        checks.op("pin", crate::pins::compare(&pin, signature));
    }
}

/// Per-layer `<prefix>.calls`, `<prefix>.s` from the spans named `name`.
pub fn span_layer(
    layers: &mut BTreeMap<String, f64>,
    tracer: &Tracer,
    name: &str,
    prefix: &str,
    per: f64,
) {
    let (calls, seconds) = tracer.total(name);
    layers.insert(format!("{prefix}.calls"), calls as f64 / per);
    layers.insert(format!("{prefix}.s"), seconds / per);
}

/// The GA configuration fields the record carries.
pub fn config_json(cfg: &SynthesisConfig) -> Value {
    json!({
        "population": cfg.ga.population_size,
        "generations": cfg.ga.max_generations,
        "stagnation_limit": cfg.ga.stagnation_limit,
        "cache_capacity": cfg.cache_capacity,
        "threads": cfg.effective_threads(),
        "dvs": cfg.dvs.is_some(),
        "probability_aware": cfg.probability_aware,
    })
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Outcome {
    crate::calib::reset(if args.workload == Workload::GaDvsSmartphone { 2 } else { 1 });
    match args.workload {
        Workload::GaDvsSmartphone => ga::run(args, ga::Mix::Smartphone),
        Workload::GaFixedMix => ga::run(args, ga::Mix::Fixed),
        Workload::ProveDfs => prove::run(args),
        Workload::ServeClosed => serve::run(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_salted() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn timed_loop_runs_at_least_min_ops() {
        let ops = timed_loop(0.0, 3, |i| i);
        assert_eq!(ops.iter().map(|(_, i)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn checks_count_failed_operations() {
        let mut c = Checks::default();
        c.op("a", vec![]);
        c.op("b", vec!["x".into(), "y".into()]);
        assert_eq!((c.attempted, c.failed, c.problems.len()), (2, 1, 2));
        assert_eq!(c.failed_ratio(), 0.5);
    }
}
