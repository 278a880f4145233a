//! `ga_dvs_smartphone` and `ga_fixed_mix`: full GA synthesis passes over
//! a fixed list of systems through `Synthesizer::run`.

use std::collections::BTreeMap;

use momsynth_analyze::analyze_system;
use momsynth_core::{
    invariant_breach, GenomeLayout, SynthControl, SynthesisConfig, SynthesisResult, Synthesizer,
};
use momsynth_gen::automotive::automotive_ecu;
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::mul;
use momsynth_model::System;
use momsynth_telemetry::{MemorySink, Phase};
use serde_json::json;

use super::replay::{self, ReplayInput};
use super::{
    check_pin, config_json, derive, more_setups, parse_spec, repeat_problems, repeated_setup,
    span_layer, timed_loop, Generator, Metric, Outcome, RunArgs,
};
use crate::pins::{bits, Signature};
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;

/// Which system list a GA workload synthesises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The smartphone with DVS at two worker threads.
    Smartphone,
    /// mul3, mul12 and the automotive ECU at fixed voltage, serially.
    Fixed,
}

impl Mix {
    /// `(generator, dvs, replayed per mode)` for each system.
    fn systems(self) -> Vec<(Generator, bool, bool)> {
        match self {
            Self::Smartphone => vec![(smartphone, true, true)],
            Self::Fixed => {
                vec![
                    (|| mul(3), false, true),
                    (|| mul(12), false, false),
                    (automotive_ecu, false, false),
                ]
            }
        }
    }

    fn threads(self) -> usize {
        match self {
            Self::Smartphone => 2,
            Self::Fixed => 1,
        }
    }
}

/// GA seeds per system: pass `k` synthesises with seed variant `k % VARIANTS`,
/// so a run's passes average over several trajectories.
const VARIANTS: usize = 3;

/// A system ready to synthesise, with one configuration per seed variant.
struct Prepared {
    system: System,
    configs: Vec<SynthesisConfig>,
    layout: GenomeLayout,
    lower_bound_w: f64,
    replay: bool,
}

fn setup(args: &RunArgs, mix: Mix, tracer: &Tracer) -> Vec<Prepared> {
    mix.systems()
        .into_iter()
        .enumerate()
        .map(|(i, (make, dvs, replay))| {
            let system = parse_spec(&make());
            let analysis = tracer.span("analyze", || analyze_system(&system));
            let layout = GenomeLayout::with_domains(&system, analysis.capable_pes());
            let configs = (0..VARIANTS)
                .map(|v| {
                    let mut config =
                        args.preset.config(derive(args.seed, (100 * v + i) as u64), dvs);
                    config.threads = mix.threads();
                    // Every seed runs all generations: the work of a pass
                    // must not depend on where a trajectory happens to stall.
                    config.ga.stagnation_limit = config.ga.max_generations;
                    config
                })
                .collect();
            Prepared {
                lower_bound_w: analysis.power_lower_bound().value(),
                system,
                configs,
                layout,
                replay,
            }
        })
        .collect()
}

/// The deterministic outputs of pass `k`, keyed by seed variant and system.
fn signature(
    k: usize,
    prepared: &[Prepared],
    results: &[Result<SynthesisResult, String>],
) -> Signature {
    let mut sig = Signature::new();
    for (p, r) in prepared.iter().zip(results) {
        let name = format!("v{}.{}", k % VARIANTS, p.system.name());
        match r {
            Ok(r) => {
                sig.insert(format!("{name}.fitness_bits"), bits(r.best.fitness));
                sig.insert(format!("{name}.power_bits"), bits(r.best.power.average.value()));
                sig.insert(format!("{name}.evaluations"), r.evaluations.to_string());
                sig.insert(format!("{name}.generations"), r.generations.to_string());
                sig.insert(format!("{name}.cache_hits"), r.counters.cache_hits.to_string());
                sig.insert(format!("{name}.dvs_iterations"), r.counters.dvs_iterations.to_string());
            }
            Err(e) => {
                sig.insert(format!("{name}.error"), e.clone());
            }
        }
    }
    sig
}

/// Runs a GA workload.
pub fn run(args: &RunArgs, mix: Mix) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let (mut setup_s, prepared) = repeated_setup(args.repeat_setup, || setup(args, mix, &tracer));

    // Timed phase. A traced run alternates untraced and traced passes so
    // the tracing overhead is measured in the same process.
    let min_passes = if args.trace { 2 * VARIANTS } else { VARIANTS };
    let passes = timed_loop(args.seconds, min_passes, |k| {
        let traced = args.trace && (k / VARIANTS) % 2 == 1;
        prepared
            .iter()
            .map(|p| {
                let synthesizer = Synthesizer::new(&p.system, p.configs[k % VARIANTS].clone());
                let result = if traced {
                    let sink = MemorySink::new();
                    tracer.span("run", || {
                        synthesizer.run_controlled(SynthControl {
                            sink: Some(&sink),
                            ..Default::default()
                        })
                    })
                } else {
                    synthesizer.run()
                };
                result.map_err(|e| e.to_string())
            })
            .collect::<Vec<_>>()
    });
    more_setups(args.repeat_setup, &mut setup_s, || setup(args, mix, &tracer));

    let mut out = Outcome { setup_s, ..Outcome::default() };
    let mut first = Signature::new();
    for (k, (_, results)) in passes.iter().take(VARIANTS).enumerate() {
        first.extend(signature(k, &prepared, results));
    }
    for (k, (_, results)) in passes.iter().enumerate() {
        for (p, r) in prepared.iter().zip(results) {
            let mut problems = Vec::new();
            match r {
                Err(e) => problems.push(format!("synthesis failed: {e}")),
                Ok(r) => {
                    if let Some(report) =
                        tracer.span("check", || invariant_breach(&p.system, &r.best))
                    {
                        problems
                            .push(format!("momsynth-check rejects the best solution: {report}"));
                    }
                }
            }
            let pass = signature(k, std::slice::from_ref(p), std::slice::from_ref(r));
            problems.extend(repeat_problems(&first, pass));
            out.checks.op(&format!("pass {k} {}", p.system.name()), problems);
        }
    }
    check_pin(args, &mut out.checks, &first);
    out.signature = first;

    // Quality over one pass of every seed variant.
    let ok: Vec<(&Prepared, &SynthesisResult)> = passes
        .iter()
        .take(VARIANTS)
        .flat_map(|(_, rs)| {
            prepared.iter().zip(rs).filter_map(|(p, r)| Some((p, r.as_ref().ok()?)))
        })
        .collect();
    out.op_s = passes.iter().map(|(t, _)| *t).collect();
    out.work = passes
        .iter()
        .flat_map(|(_, rs)| rs.iter().filter_map(|r| r.as_ref().ok()))
        .map(|r| r.evaluations as f64)
        .sum();
    out.work_s = out.op_s.iter().sum();
    out.bound_ratio = geomean(
        &ok.iter().map(|(p, r)| r.best.power.average.value() / p.lower_bound_w).collect::<Vec<_>>(),
    );
    out.power_mw =
        mean(&ok.iter().map(|(_, r)| r.best.power.average.as_milli()).collect::<Vec<_>>());
    // Counts of the first pass (seed variant 0).
    let per_pass = |f: fn(&SynthesisResult) -> u64| {
        passes[0].1.iter().filter_map(|r| r.as_ref().ok()).map(f).sum::<u64>()
    };
    out.counts = BTreeMap::from([
        ("ga.evaluations".to_owned(), per_pass(|r| r.evaluations as u64)),
        ("dvs.iterations".to_owned(), per_pass(|r| r.counters.dvs_iterations)),
        ("cache.hits".to_owned(), per_pass(|r| r.counters.cache_hits)),
    ]);
    out.named = vec![Metric { name: "synth_s".into(), value: median(&out.op_s), unit: "s" }];
    out.config = json!({
        "systems": prepared.iter().map(|p| p.system.name()).collect::<Vec<_>>(),
        "ga": config_json(&prepared[0].configs[0]),
        "seeds": prepared
            .iter()
            .map(|p| p.configs.iter().map(|c| c.ga.seed).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    });

    if args.trace {
        layers(args, &mut out, &tracer, &prepared, &passes, mix.threads());
    }
    out
}

/// Per-layer metrics of the traced passes, per pass.
fn layers(
    args: &RunArgs,
    out: &mut Outcome,
    tracer: &Tracer,
    prepared: &[Prepared],
    passes: &[(f64, Vec<Result<SynthesisResult, String>>)],
    threads: usize,
) {
    let is_traced = |k: usize| (k / VARIANTS) % 2 == 1;
    // ListScheduling spans of a traced pass are an exact count: every
    // traced pass of a seed variant must repeat its first traced pass.
    let sched_calls = |rs: &[Result<SynthesisResult, String>]| -> u64 {
        rs.iter()
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| &r.phase_timings)
            .filter(|t| t.phase == Phase::ListScheduling)
            .map(|t| t.spans)
            .sum()
    };
    for (k, (_, rs)) in passes.iter().enumerate().filter(|(k, _)| is_traced(*k)) {
        let (got, first) = (sched_calls(rs), sched_calls(&passes[VARIANTS + k % VARIANTS].1));
        let problems = if got == first {
            Vec::new()
        } else {
            vec![format!("{got} scheduling calls, the variant's first traced pass made {first}")]
        };
        out.checks.op(&format!("pass {k} sched.calls"), problems);
    }
    out.counts.insert("sched.calls".into(), sched_calls(&passes[VARIANTS].1));
    let traced: Vec<&Vec<Result<SynthesisResult, String>>> =
        passes.iter().enumerate().filter(|(k, _)| is_traced(*k)).map(|(_, (_, r))| r).collect();
    let n = traced.len() as f64;
    let results: Vec<&SynthesisResult> =
        traced.iter().flat_map(|rs| rs.iter().filter_map(|r| r.as_ref().ok())).collect();
    let l = &mut out.layers;
    l.insert("analyze.s".into(), tracer.total("analyze").1 / out.setup_s.len() as f64);
    let sum = |f: &dyn Fn(&SynthesisResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>() / n;
    l.insert("ga.generations".into(), sum(&|r| r.generations as f64));
    l.insert("ga.evaluations".into(), sum(&|r| r.evaluations as f64));
    let phase = |p: Phase| -> (f64, f64) {
        let (spans, nanos) = results
            .iter()
            .flat_map(|r| r.phase_timings.iter().filter(|t| t.phase == p))
            .fold((0u64, 0u64), |(s, t), pt| (s + pt.spans, t + pt.nanos));
        (spans as f64 / n, nanos as f64 * 1e-9 / n)
    };
    let run_s = tracer.total("run").1 / n;
    let (fit_calls, fit_s) = phase(Phase::FitnessEval);
    fitness_layers(l, run_s, fit_calls, fit_s, threads);
    for (p, prefix) in [
        (Phase::CoreAllocation, "alloc"),
        (Phase::ListScheduling, "sched"),
        (Phase::VoltageScaling, "dvs"),
        (Phase::PowerPricing, "power"),
    ] {
        let (calls, s) = phase(p);
        l.insert(format!("{prefix}.calls"), calls);
        l.insert(format!("{prefix}.s"), s);
    }
    per_call(l);
    l.insert("dvs.iterations".into(), sum(&|r| r.counters.dvs_iterations as f64));
    per_call(l);
    cache_layers(
        l,
        sum(&|r| r.counters.cache_hits as f64),
        sum(&|r| r.counters.cache_misses as f64),
        sum(&|r| r.counters.cache_evictions as f64),
    );
    span_layer(l, tracer, "check", "check", passes.len() as f64);
    // The same seed variants, untraced then traced.
    let untraced_s: f64 = passes[..VARIANTS].iter().map(|(t, _)| t).sum();
    let traced_s: f64 = passes[VARIANTS..2 * VARIANTS].iter().map(|(t, _)| t).sum();
    l.insert("trace.overhead_ratio".into(), traced_s / untraced_s);

    let inputs: Vec<ReplayInput<'_>> = prepared
        .iter()
        .zip(&passes[0].1)
        .filter(|(p, _)| p.replay)
        .map(|(p, r)| ReplayInput {
            system: &p.system,
            layout: &p.layout,
            config: &p.configs[0],
            best: r.as_ref().ok().map(|r| p.layout.encode(&r.best.mapping)),
        })
        .collect();
    replay::run(tracer, &inputs, args.seed, &mut out.layers);
}

/// `fitness.*` and `ga.self_s` from the run span and the fitness fold.
///
/// Layer times are busy time summed over worker threads. `ga.self_s` is
/// the run span less the fitness fold spread over the worker threads:
/// the engine's own share of the wall time.
pub fn fitness_layers(
    l: &mut BTreeMap<String, f64>,
    run_s: f64,
    calls: f64,
    fit_s: f64,
    threads: usize,
) {
    l.insert("fitness.calls".into(), calls);
    l.insert("fitness.s".into(), fit_s);
    l.insert("fitness.evals_per_s".into(), if fit_s > 0.0 { calls / fit_s } else { 0.0 });
    l.insert("ga.self_s".into(), (run_s - fit_s / threads as f64).max(0.0));
}

/// `cache.*` from summed hit, miss and eviction counts.
pub fn cache_layers(l: &mut BTreeMap<String, f64>, hits: f64, misses: f64, evictions: f64) {
    l.insert("cache.hits".into(), hits);
    l.insert("cache.misses".into(), misses);
    l.insert("cache.evictions".into(), evictions);
    let probes = hits + misses;
    l.insert("cache.hit_ratio".into(), if probes > 0.0 { hits / probes } else { 0.0 });
}

/// Derived per-call figures of the scheduling and DVS layers.
pub fn per_call(l: &mut BTreeMap<String, f64>) {
    let get = |l: &BTreeMap<String, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
    let sched_calls = get(l, "sched.calls");
    let sched_us = if sched_calls > 0.0 { get(l, "sched.s") / sched_calls * 1e6 } else { 0.0 };
    l.insert("sched.us_per_call".into(), sched_us);
    let dvs_calls = get(l, "dvs.calls");
    let per = if dvs_calls > 0.0 { get(l, "dvs.iterations") / dvs_calls } else { 0.0 };
    l.insert("dvs.iterations_per_call".into(), per);
}
