//! `prove_dfs`: branch-and-bound optimality certificates under a fixed
//! leaf budget, seeded with an incumbent from a set-up GA run.

use std::collections::BTreeMap;

use momsynth_analyze::analyze_system;
use momsynth_core::{
    invariant_breach, prove, Certificate, GenomeLayout, ProveOptions, Solution, SynthesisConfig,
    Synthesizer,
};
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::mul;
use momsynth_model::System;
use serde_json::json;

use super::replay::{self, ReplayInput};
use super::{
    check_pin, derive, more_setups, parse_spec, repeat_problems, repeated_setup, span_layer,
    timed_loop, Generator, Metric, Outcome, Preset, RunArgs,
};
use crate::pins::{bits, Signature};
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;

/// Incumbents per system: pass `k` seeds the search with incumbent
/// variant `k % VARIANTS`, so a run's passes average over several
/// incumbents.
const VARIANTS: usize = 8;

/// A system with its prover configuration and one incumbent per variant.
struct Prepared {
    system: System,
    config: SynthesisConfig,
    layout: GenomeLayout,
    incumbents: Vec<Result<Solution, String>>,
    budget: u64,
}

/// `(generator, dvs, leaf budget at the full preset)` per system.
fn systems() -> [(Generator, bool, u64); 2] {
    [(smartphone, true, 1_000), (|| mul(3), false, 2_000)]
}

fn setup(args: &RunArgs, tracer: &Tracer) -> Vec<Prepared> {
    systems()
        .into_iter()
        .enumerate()
        .map(|(i, (make, dvs, budget))| {
            let system = parse_spec(&make());
            let analysis = tracer.span("analyze", || analyze_system(&system));
            let layout = GenomeLayout::with_domains(&system, analysis.capable_pes());
            // Each incumbent comes from a quick GA run; the certificate
            // prices leaves with the full configuration's evaluator.
            let incumbents = (0..VARIANTS)
                .map(|v| {
                    let seed = derive(args.seed, (100 * v + i) as u64);
                    Synthesizer::new(&system, Preset::Quick.config(seed, dvs))
                        .run()
                        .map(|r| r.best)
                        .map_err(|e| e.to_string())
                })
                .collect();
            let budget = match args.preset {
                Preset::Full => budget,
                Preset::Quick => budget / 20,
            };
            let config = Preset::Full.config(derive(args.seed, i as u64), dvs);
            Prepared { system, config, layout, incumbents, budget }
        })
        .collect()
}

/// The deterministic outputs of pass `k`, keyed by variant and system.
fn signature(k: usize, prepared: &[Prepared], certs: &[Result<Certificate, String>]) -> Signature {
    let mut sig = Signature::new();
    for (p, c) in prepared.iter().zip(certs) {
        let name = format!("v{}.{}", k % VARIANTS, p.system.name());
        if let Ok(inc) = &p.incumbents[k % VARIANTS] {
            sig.insert(format!("{name}.incumbent_bits"), bits(inc.fitness));
        }
        match c {
            Ok(c) => {
                sig.insert(format!("{name}.leaves"), c.explored.to_string());
                sig.insert(format!("{name}.pruned_by_bound"), c.pruned_by_bound.to_string());
                sig.insert(format!("{name}.lower_bound_bits"), bits(c.lower_bound));
                sig.insert(format!("{name}.best_bits"), bits(c.best_fitness.unwrap_or(f64::NAN)));
            }
            Err(e) => {
                sig.insert(format!("{name}.error"), e.clone());
            }
        }
    }
    sig
}

/// Every reason a certificate is not trustworthy.
fn certificate_problems(p: &Prepared, c: &Certificate, tracer: &Tracer) -> Vec<String> {
    let mut problems = Vec::new();
    let best = c.best_fitness.unwrap_or(f64::NAN);
    if !best.is_finite() {
        problems.push("certificate has no finite achievable fitness".into());
    }
    if !(c.lower_bound.is_finite() && c.lower_bound >= 0.0 && c.lower_bound <= best) {
        problems.push(format!("lower bound {} is not within [0, best {best}]", c.lower_bound));
    }
    if c.explored > c.max_evals {
        problems.push(format!("explored {} leaves over a budget of {}", c.explored, c.max_evals));
    }
    if let Some(solution) = &c.best {
        if let Some(report) = tracer.span("check", || invariant_breach(&p.system, solution)) {
            problems.push(format!("momsynth-check rejects the certificate's best: {report}"));
        }
    }
    problems
}

/// Runs `prove_dfs`.
pub fn run(args: &RunArgs) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let (mut setup_s, prepared) = repeated_setup(args.repeat_setup, || setup(args, &tracer));

    let passes = timed_loop(args.seconds, VARIANTS, |k| {
        prepared
            .iter()
            .map(|p| {
                let options = ProveOptions {
                    max_evals: p.budget,
                    incumbent: p.incumbents[k % VARIANTS].as_ref().ok().map(|s| s.fitness),
                    ..ProveOptions::default()
                };
                let certify = || prove(&p.system, &p.config, &options).map_err(|e| e.to_string());
                tracer.span("prove", certify)
            })
            .collect::<Vec<_>>()
    });
    more_setups(args.repeat_setup, &mut setup_s, || setup(args, &tracer));

    let mut out = Outcome { setup_s, ..Outcome::default() };
    for p in &prepared {
        for (v, incumbent) in p.incumbents.iter().enumerate() {
            let problems = match incumbent {
                Err(e) => vec![format!("incumbent synthesis failed: {e}")],
                Ok(s) => tracer
                    .span("check", || invariant_breach(&p.system, s))
                    .map(|r| vec![format!("momsynth-check rejects the incumbent: {r}")])
                    .unwrap_or_default(),
            };
            out.checks.op(&format!("incumbent v{v} {}", p.system.name()), problems);
        }
    }
    let mut first = Signature::new();
    for (k, (_, certs)) in passes.iter().take(VARIANTS).enumerate() {
        first.extend(signature(k, &prepared, certs));
    }
    for (k, (_, certs)) in passes.iter().enumerate() {
        for (p, c) in prepared.iter().zip(certs) {
            let mut problems = match c {
                Err(e) => vec![format!("prove failed: {e}")],
                Ok(c) => certificate_problems(p, c, &tracer),
            };
            let pass = signature(k, std::slice::from_ref(p), std::slice::from_ref(c));
            problems.extend(repeat_problems(&first, pass));
            out.checks.op(&format!("pass {k} {}", p.system.name()), problems);
        }
    }
    check_pin(args, &mut out.checks, &first);
    out.signature = first;

    // Quality over one pass of every variant.
    let certs: Vec<(&Solution, &Certificate)> = passes
        .iter()
        .take(VARIANTS)
        .enumerate()
        .flat_map(|(k, (_, cs))| {
            prepared.iter().zip(cs).filter_map(move |(p, c)| {
                Some((p.incumbents[k % VARIANTS].as_ref().ok()?, c.as_ref().ok()?))
            })
        })
        .collect();
    out.op_s = passes.iter().map(|(t, _)| *t).collect();
    let leaves = |certs: &[Result<Certificate, String>]| -> u64 {
        certs.iter().filter_map(|c| c.as_ref().ok()).map(|c| c.explored).sum()
    };
    out.work = passes.iter().map(|(_, c)| leaves(c) as f64).sum();
    out.work_s = out.op_s.iter().sum();
    out.bound_ratio = geomean(
        &certs
            .iter()
            .map(|(_, c)| c.best_fitness.unwrap_or(f64::NAN) / c.lower_bound)
            .collect::<Vec<_>>(),
    );
    // The best achievable solution: the search's own when it beat the
    // incumbent, the incumbent otherwise.
    out.power_mw = mean(
        &certs
            .iter()
            .map(|(inc, c)| c.best.as_ref().unwrap_or(inc).power.average.as_milli())
            .collect::<Vec<_>>(),
    );
    out.counts = BTreeMap::from([("prove.leaves".to_owned(), leaves(&passes[0].1))]);
    out.named = vec![
        Metric { name: "prove_s".into(), value: median(&out.op_s), unit: "s" },
        Metric { name: "certified_gap_ratio".into(), value: out.bound_ratio, unit: "x" },
    ];
    out.config = json!({
        "systems": prepared.iter().map(|p| p.system.name()).collect::<Vec<_>>(),
        "leaf_budgets": prepared.iter().map(|p| p.budget).collect::<Vec<_>>(),
        "incumbents": format!("{VARIANTS} quick GA runs per system, one per pass in turn"),
        "incumbent_fitness": prepared
            .iter()
            .map(|p| {
                p.incumbents.iter().map(|i| i.as_ref().ok().map(|s| s.fitness)).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
        "dvs": prepared.iter().map(|p| p.config.dvs.is_some()).collect::<Vec<_>>(),
    });

    if args.trace {
        let n = passes.len() as f64;
        let ok = || passes.iter().flat_map(|(_, cs)| cs.iter().filter_map(|c| c.as_ref().ok()));
        let leaves: f64 = ok().map(|c| c.explored as f64).sum::<f64>() / n;
        let pruned: f64 = ok().map(|c| c.pruned_by_bound as f64).sum::<f64>() / n;
        let prove_s = tracer.total("prove").1 / n;
        let l = &mut out.layers;
        l.insert("analyze.s".into(), tracer.total("analyze").1 / out.setup_s.len() as f64);
        l.insert("prove.leaves".into(), leaves);
        l.insert("prove.pruned_by_bound".into(), pruned);
        l.insert(
            "prove.prune_ratio".into(),
            if leaves + pruned > 0.0 { pruned / (leaves + pruned) } else { 0.0 },
        );
        l.insert("prove.leaves_per_s".into(), if prove_s > 0.0 { leaves / prove_s } else { 0.0 });
        span_layer(l, &tracer, "check", "check", passes.len() as f64);
        // `trace.overhead_ratio` stays 0: the prover takes no telemetry
        // sink, so a traced pass adds only the benchmark's own span.
        let inputs: Vec<ReplayInput<'_>> = prepared
            .iter()
            .map(|p| ReplayInput {
                system: &p.system,
                layout: &p.layout,
                config: &p.config,
                best: p.incumbents[0].as_ref().ok().map(|s| p.layout.encode(&s.mapping)),
            })
            .collect();
        replay::run(&tracer, &inputs, args.seed, &mut out.layers);
    }
    out
}
