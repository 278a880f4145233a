//! Per-mode replay: the inner loop of one fitness evaluation, driven
//! call by call through the public functions so each mode's scheduling
//! and PV-DVS cost is timed on its own.
//!
//! `GenomeLayout::decode` → `derive_allocation` → per mode
//! `schedule_mode_with` → `scale_mode_with`, over a seeded sample of
//! genomes plus the workload's best. Only the two per-mode calls are
//! timed.

use std::collections::BTreeMap;

use momsynth_core::{derive_allocation, DvsSynthesisOptions, Gene, GenomeLayout, SynthesisConfig};
use momsynth_dvs::{scale_mode_with, DvsScratch};
use momsynth_model::System;
use momsynth_sched::{schedule_mode_with, ListScratch};

use super::{derive, SeedRng};
use crate::trace::Tracer;

/// Random genomes replayed per system, besides the best one.
const SAMPLES: usize = 200;

/// One system to replay.
#[derive(Debug)]
pub struct ReplayInput<'a> {
    /// The system.
    pub system: &'a System,
    /// Its genome layout.
    pub layout: &'a GenomeLayout,
    /// Allocation and scheduler options come from here.
    pub config: &'a SynthesisConfig,
    /// The workload's best genome, when it has one.
    pub best: Option<Vec<Gene>>,
}

/// Replays every input when `tracer` is enabled and writes
/// `sched.mode.<mode>.us_per_call` and `dvs.mode.<mode>.us_per_call`.
/// PV-DVS runs with the synthesis-time options on every system, so a
/// fixed-voltage workload still shows what each mode's scaling costs.
pub fn run(
    tracer: &Tracer,
    inputs: &[ReplayInput<'_>],
    seed: u64,
    layers: &mut BTreeMap<String, f64>,
) {
    if !tracer.enabled() {
        return;
    }
    let dvs = DvsSynthesisOptions::default().eval;
    let mut sched_scratch = ListScratch::default();
    let mut dvs_scratch = DvsScratch::default();
    for (index, input) in inputs.iter().enumerate() {
        let system = input.system;
        let layout = input.layout;
        let mut rng = SeedRng::new(derive(seed, 1000 + index as u64));
        let mut genomes: Vec<Vec<Gene>> = (0..SAMPLES)
            .map(|_| {
                (0..layout.len()).map(|l| rng.below(layout.candidates(l).len()) as Gene).collect()
            })
            .collect();
        genomes.extend(input.best.clone());
        for genes in &genomes {
            let mapping = layout.decode(genes);
            let alloc = derive_allocation(system, &mapping, &input.config.alloc);
            for (mode, m) in system.omsm().modes() {
                let schedule = tracer.span(&format!("sched.mode.{}", m.name()), || {
                    schedule_mode_with(
                        system,
                        mode,
                        &mapping,
                        &alloc,
                        input.config.scheduler,
                        &mut sched_scratch,
                    )
                });
                let Ok(schedule) = schedule else { break };
                tracer.span(&format!("dvs.mode.{}", m.name()), || {
                    scale_mode_with(system, &schedule, &dvs, &mut dvs_scratch)
                });
            }
        }
        for (_, m) in system.omsm().modes() {
            for layer in ["sched", "dvs"] {
                let (calls, seconds) = tracer.total(&format!("{layer}.mode.{}", m.name()));
                let us = if calls > 0 { seconds / calls as f64 * 1e6 } else { 0.0 };
                layers.insert(format!("{layer}.mode.{}.us_per_call", m.name()), us);
            }
        }
    }
}
