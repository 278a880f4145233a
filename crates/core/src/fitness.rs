//! Candidate evaluation: schedules, voltage scaling, power and the
//! penalty fitness `F_M` (Fig. 4, lines 3–14).
//!
//! For a given multi-mode mapping the evaluator derives the core
//! allocation, schedules every mode, optionally applies PV-DVS, and
//! computes
//!
//! ```text
//! F_M = p̄ · tp · (1 + w_A · Σ_{π ∈ P_v} (a_U − a_max)/(a_max · 0.01))
//!           · Π_{T ∈ Θ_v} max(1, w_R · t_T/t_T^max)
//! ```
//!
//! where `p̄` is the average power under the *optimisation* weights (true
//! probabilities for the proposed flow, uniform weights for the
//! probability-neglecting baseline), `tp` the timing penalty, `P_v` the
//! PEs with area violations and `Θ_v` the transitions exceeding their
//! limits. The reported [`Solution::power`] always uses the true
//! probabilities.

use std::cell::{Cell, RefCell};

use momsynth_dvs::{scale_mode_owned, DvsOptions, DvsScratch, VoltageSchedule};
use momsynth_model::ids::PeId;
use momsynth_model::units::{Cells, Seconds, Watts};
use momsynth_model::System;
use momsynth_power::{power_report_with, ModeImplementation, PowerReport};
use momsynth_sched::{
    schedule_mode_with_analysis, CoreAllocation, ListScratch, SchedError, Schedule, SystemMapping,
    TimingAnalysis,
};
use momsynth_telemetry::{Phase, PhaseAccumulator, PhaseTiming};

use crate::alloc::{analyze_modes, derive_allocation_with};
use crate::config::SynthesisConfig;
use crate::transition::{transition_timings, TransitionTiming};

/// An area violation on one hardware PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaOverrun {
    /// The over-subscribed PE.
    pub pe: PeId,
    /// Cells required by the allocation.
    pub used: Cells,
    /// The PE's capacity.
    pub capacity: Cells,
}

/// A fully elaborated implementation candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The task mapping (`Mτ^O` for every mode).
    pub mapping: SystemMapping,
    /// The hardware core allocation.
    pub alloc: CoreAllocation,
    /// Per-mode schedules (voltage-stretched when DVS is enabled).
    pub schedules: Vec<Schedule>,
    /// Per-mode, per-task voltage schedules (`None` where unscaled).
    pub voltage_schedules: Vec<Vec<Option<VoltageSchedule>>>,
    /// Power report under the true mode execution probabilities.
    pub power: PowerReport,
    /// Total deadline/period lateness over all modes.
    pub total_lateness: Seconds,
    /// Hardware PEs whose area constraint is violated.
    pub area_overruns: Vec<AreaOverrun>,
    /// Reconfiguration timing of every mode transition.
    pub transitions: Vec<TransitionTiming>,
    /// The fitness `F_M` this candidate was judged by.
    pub fitness: f64,
}

impl Solution {
    /// `true` when the candidate satisfies all timing, area and
    /// transition-time constraints.
    pub fn is_feasible(&self) -> bool {
        self.total_lateness.value() <= 1e-12
            && self.area_overruns.is_empty()
            && self.transitions.iter().all(TransitionTiming::is_feasible)
    }

    /// Renders a complete human-readable implementation report: average
    /// power, per-mode mapping with shut-down state, hardware core
    /// allocation and transition timing.
    pub fn describe(&self, system: &System) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "implementation of `{}` — {:.6} mW average, {}",
            system.name(),
            self.power.average.as_milli(),
            if self.is_feasible() { "feasible" } else { "INFEASIBLE" }
        );
        for (mode, m) in system.omsm().modes() {
            let mp = &self.power.modes[mode.index()];
            let on: Vec<&str> =
                mp.active_pes.iter().map(|&pe| system.arch().pe(pe).name()).collect();
            let _ = writeln!(
                out,
                "  mode {:<16} Ψ={:<6.3} {:>10.4} mW   on: {}",
                m.name(),
                m.probability(),
                mp.total().as_milli(),
                on.join(", ")
            );
            let cores: Vec<String> = self
                .alloc
                .mode_cores(mode)
                .map(|((pe, ty), count)| {
                    format!(
                        "{}×{} on {}",
                        count,
                        system.tech().type_name(ty),
                        system.arch().pe(pe).name()
                    )
                })
                .collect();
            if !cores.is_empty() {
                let _ = writeln!(out, "    cores: {}", cores.join(", "));
            }
        }
        for t in &self.transitions {
            if t.time.value() > 0.0 || !t.is_feasible() {
                let _ = writeln!(
                    out,
                    "  transition {}: {:.3} ms / limit {:.3} ms{}",
                    t.transition,
                    t.time.as_millis(),
                    t.limit.as_millis(),
                    if t.is_feasible() { "" } else { "  VIOLATED" }
                );
            }
        }
        for a in &self.area_overruns {
            let _ = writeln!(
                out,
                "  AREA VIOLATION on {}: {} of {}",
                system.arch().pe(a.pe).name(),
                a.used,
                a.capacity
            );
        }
        out
    }
}

/// Reusable working memory for one evaluator: the per-mode timing
/// analyses and the list scheduler's and PV-DVS's per-call buffers. One
/// evaluation allocates these once and every later evaluation on the
/// same [`Evaluator`] reuses them, which removes the dominant allocation
/// churn from the GA's hot loop.
#[derive(Debug, Default)]
struct EvalScratch {
    /// Every mode's timing analysis under the mapping being evaluated,
    /// shared by core allocation and scheduling.
    analyses: Vec<TimingAnalysis>,
    sched: ListScratch,
    dvs: DvsScratch,
}

/// Evaluates mapping candidates for one system under one configuration.
///
/// Not `Sync` (scratch buffers, counters and timers use interior
/// mutability): parallel batch evaluation gives each worker thread its
/// own evaluator and folds the counters back together afterwards.
#[derive(Debug)]
pub struct Evaluator<'a> {
    system: &'a System,
    config: &'a SynthesisConfig,
    /// Mode weights used in the optimisation objective.
    weights: Vec<f64>,
    /// The true mode execution probabilities, which price the report.
    probabilities: Vec<f64>,
    /// Per-phase wall-clock accumulator (disabled unless a telemetry
    /// sink asks for traces).
    phases: PhaseAccumulator,
    /// Total PV-DVS inner-loop iterations across all evaluations.
    dvs_iterations: Cell<u64>,
    /// Scratch buffers reused across evaluations (`RefCell` because
    /// [`Evaluator::evaluate`] takes `&self`; evaluation never re-enters).
    scratch: RefCell<EvalScratch>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator; the optimisation weights are the true mode
    /// probabilities when `config.probability_aware`, uniform otherwise.
    pub fn new(system: &'a System, config: &'a SynthesisConfig) -> Self {
        let probabilities: Vec<f64> =
            system.omsm().modes().map(|(_, m)| m.probability()).collect();
        let weights = if config.probability_aware {
            probabilities.clone()
        } else {
            momsynth_power::uniform_weights(system)
        };
        Self {
            system,
            config,
            weights,
            probabilities,
            phases: PhaseAccumulator::disabled(),
            dvs_iterations: Cell::new(0),
            scratch: RefCell::new(EvalScratch::default()),
        }
    }

    /// The mode weights driving the optimisation objective.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Turns on per-phase wall-clock measurement for subsequent
    /// evaluations.
    pub fn enable_phase_timing(&mut self) {
        self.phases.enable();
    }

    /// Whether per-phase wall-clock measurement is on — mirrored onto
    /// per-worker evaluators so a parallel batch measures exactly the
    /// phases a serial run would.
    pub fn phase_timing_enabled(&self) -> bool {
        self.phases.enabled()
    }

    /// Accumulated per-phase timings (empty while timing is disabled).
    pub fn phase_timings(&self) -> Vec<PhaseTiming> {
        self.phases.timings()
    }

    /// Folds a worker evaluator's phase timings into this one after a
    /// parallel batch. No-op while timing is disabled.
    pub fn absorb_phase_timings(&self, timings: &[PhaseTiming]) {
        self.phases.absorb(timings);
    }

    /// Total PV-DVS inner-loop iterations performed so far. Counted
    /// deterministically — independent of whether phase timing is on.
    pub fn dvs_iterations(&self) -> u64 {
        self.dvs_iterations.get()
    }

    /// Adds a worker evaluator's PV-DVS iteration count to this one.
    pub fn add_dvs_iterations(&self, n: u64) {
        self.dvs_iterations.set(self.dvs_iterations.get() + n);
    }

    /// Fully evaluates a mapping. `dvs` selects the voltage-scaling
    /// resolution (coarse during search, fine for the final solution);
    /// `None` evaluates at fixed voltage.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's error when two communicating tasks are
    /// mapped to unconnected PEs — possible only on architectures whose
    /// communication graph is not complete.
    pub fn evaluate(
        &self,
        mapping: SystemMapping,
        dvs: Option<&DvsOptions>,
    ) -> Result<Solution, SchedError> {
        self.phases.measure(Phase::FitnessEval, || self.evaluate_inner(mapping, dvs))
    }

    fn evaluate_inner(
        &self,
        mapping: SystemMapping,
        dvs: Option<&DvsOptions>,
    ) -> Result<Solution, SchedError> {
        let system = self.system;
        // One borrow for the whole evaluation; never re-entered.
        let EvalScratch { analyses, sched, dvs: dvs_scratch } = &mut *self.scratch.borrow_mut();
        let alloc = self.phases.measure(Phase::CoreAllocation, || {
            analyze_modes(system, &mapping, analyses);
            derive_allocation_with(system, &mapping, &self.config.alloc, analyses)
        });

        let mut schedules = Vec::with_capacity(system.omsm().mode_count());
        let mut voltage_schedules = Vec::with_capacity(system.omsm().mode_count());
        // Energy factors of the voltage-scaled modes; empty at fixed voltage.
        let mut factors: Vec<Vec<f64>> = Vec::new();
        for (analysis, (_, m)) in analyses.iter().zip(system.omsm().modes()) {
            let schedule = self.phases.measure(Phase::ListScheduling, || {
                schedule_mode_with_analysis(
                    system,
                    &mapping,
                    &alloc,
                    analysis,
                    self.config.scheduler,
                    sched,
                )
            })?;
            match dvs {
                Some(options) => {
                    let scaled = self.phases.measure(Phase::VoltageScaling, || {
                        scale_mode_owned(system, schedule, options, dvs_scratch)
                    });
                    self.dvs_iterations
                        .set(self.dvs_iterations.get() + scaled.iterations() as u64);
                    let (schedule, voltages, task_factors) = scaled.into_parts();
                    factors.push(task_factors);
                    voltage_schedules.push(voltages);
                    schedules.push(schedule);
                }
                None => {
                    voltage_schedules.push(vec![None; m.graph().task_count()]);
                    schedules.push(schedule);
                }
            }
        }

        let _pricing = self.phases.measure_guard(Phase::PowerPricing);
        let implementations: Vec<ModeImplementation<'_>> = schedules
            .iter()
            .enumerate()
            .map(|(i, s)| match factors.get(i) {
                Some(f) => ModeImplementation::scaled(s, f),
                None => ModeImplementation::nominal(s),
            })
            .collect();
        let power = power_report_with(system, &implementations, &self.probabilities);
        let weighted: Watts = power
            .modes
            .iter()
            .zip(&self.weights)
            .map(|(m, &w)| m.total() * w)
            .sum();

        let mut total_lateness = Seconds::ZERO;
        let mut timing_penalty = 1.0;
        for s in &schedules {
            let graph = system.omsm().mode(s.mode()).graph();
            let lateness = s.total_lateness(graph);
            total_lateness += lateness;
            timing_penalty += self.config.weights.timing * (lateness / graph.period());
        }

        let mut area_overruns = Vec::new();
        let mut area_penalty = 1.0;
        for pe in system.arch().hardware_pes() {
            let info = system.arch().pe(pe);
            let capacity = info.area().expect("hardware PEs declare area");
            let used = if info.kind().is_reconfigurable() {
                system
                    .omsm()
                    .mode_ids()
                    .map(|m| alloc.mode_area(system, pe, m))
                    .max()
                    .unwrap_or(Cells::ZERO)
            } else {
                alloc.static_area(system, pe)
            };
            if used > capacity {
                area_overruns.push(AreaOverrun { pe, used, capacity });
                let overshoot_percent = (used.value() - capacity.value()) as f64
                    / (capacity.value().max(1) as f64 * 0.01);
                area_penalty += self.config.weights.area * overshoot_percent;
            }
        }

        let transitions = transition_timings(system, &alloc);
        let mut transition_penalty = 1.0;
        for t in &transitions {
            if !t.is_feasible() {
                transition_penalty *= (self.config.weights.transition * t.overrun()).max(1.0);
            }
        }

        let mut fitness = weighted.value() * timing_penalty * area_penalty * transition_penalty;
        let violated = total_lateness.value() > 1e-12
            || !area_overruns.is_empty()
            || transitions.iter().any(|t| !t.is_feasible());
        if violated {
            fitness *= self.config.weights.infeasibility_boost.max(1.0);
        }
        Ok(Solution {
            mapping,
            alloc,
            schedules,
            voltage_schedules,
            power,
            total_lateness,
            area_overruns,
            transitions,
            fitness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, TaskId};
    use momsynth_model::units::{Seconds, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };

    /// The testbed mirrors the paper's Example 1 flavour: one CPU, one
    /// small ASIC, two modes with very different probabilities.
    fn sys(asic_cells: u64, period_ms: f64) -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(
            Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)).with_dvs(
                DvsCapability::new(
                    Volts::new(3.3),
                    Volts::new(0.8),
                    vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
                ),
            ),
        );
        let hw = arch.add_pe(Pe::hardware(
            "hw",
            PeKind::Asic,
            Cells::new(asic_cells),
            Watts::from_milli(0.1),
        ));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.05),
        ))
        .unwrap();
        for ty in [ta, tb] {
            tech.set_impl(
                ty,
                cpu,
                Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)),
            );
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(
                    Seconds::from_millis(2.0),
                    Watts::from_milli(5.0),
                    Cells::new(240),
                ),
            );
        }
        let mk = |name: &str, ty| {
            let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(period_ms));
            let x = g.add_task("x", ty);
            let y = g.add_task("y", ty);
            g.add_comm(x, y, 10.0).unwrap();
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("rare", 0.1, mk("rare", ta));
        omsm.add_mode("common", 0.9, mk("common", tb));
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn all_cpu(system: &System) -> SystemMapping {
        SystemMapping::from_fn(system, |_| PeId::new(0))
    }

    #[test]
    fn feasible_software_solution_has_plain_power_fitness() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let sol = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(sol.is_feasible());
        // No penalties: fitness equals the weighted average power.
        assert!((sol.fitness - sol.power.average.value()).abs() < 1e-15);
        assert_eq!(sol.total_lateness, Seconds::ZERO);
        assert!(sol.area_overruns.is_empty());
    }

    #[test]
    fn probability_neglecting_weights_change_fitness_not_report() {
        let system = sys(600, 100.0);
        // Put the common mode on hardware so the modes differ in power.
        let mut mapping = all_cpu(&system);
        mapping.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        mapping.set(ModeId::new(1), TaskId::new(1), PeId::new(1));

        let aware_cfg = SynthesisConfig::new(0);
        let neglect_cfg = SynthesisConfig::new(0).probability_neglecting();
        let aware = Evaluator::new(&system, &aware_cfg)
            .evaluate(mapping.clone(), None)
            .unwrap();
        let neglect = Evaluator::new(&system, &neglect_cfg).evaluate(mapping, None).unwrap();
        // The reported power is identical (true probabilities)…
        assert_eq!(aware.power.average, neglect.power.average);
        // …but the fitness differs (uniform weights overweight the rare,
        // expensive mode).
        assert!(neglect.fitness > aware.fitness);
    }

    #[test]
    fn timing_violation_inflates_fitness() {
        // 30 ms period cannot hold two sequential 20 ms software tasks.
        let system = sys(600, 30.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let sol = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(!sol.is_feasible());
        assert!(sol.total_lateness.value() > 0.0);
        assert!(sol.fitness > sol.power.average.value() * 2.0);
    }

    #[test]
    fn area_violation_is_detected_and_penalised() {
        // ASIC of 300 cells cannot hold two 240-cell cores (types A and B).
        let system = sys(300, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(1));
        let sol = ev.evaluate(mapping, None).unwrap();
        assert_eq!(sol.area_overruns.len(), 1);
        assert_eq!(sol.area_overruns[0].used, Cells::new(480));
        assert!(!sol.is_feasible());
        let feasible = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(sol.fitness > feasible.fitness);
    }

    #[test]
    fn dvs_reduces_fitness_and_power() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0).with_dvs();
        let ev = Evaluator::new(&system, &config);
        let nominal = ev.evaluate(all_cpu(&system), None).unwrap();
        let scaled = ev
            .evaluate(all_cpu(&system), Some(&DvsOptions::fine()))
            .unwrap();
        assert!(scaled.power.average < nominal.power.average);
        assert!(scaled.is_feasible());
        // Voltage schedules are populated for scaled tasks.
        let vs = &scaled.voltage_schedules[0];
        assert!(vs.iter().any(Option::is_some));
        assert!(nominal.voltage_schedules[0].iter().all(Option::is_none));
    }

    #[test]
    fn describe_reports_modes_cores_and_feasibility() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let mut mapping = all_cpu(&system);
        mapping.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        let sol = ev.evaluate(mapping, None).unwrap();
        let text = sol.describe(&system);
        assert!(text.contains("feasible"));
        assert!(text.contains("rare"));
        assert!(text.contains("common"));
        assert!(text.contains("cores:"));
        assert!(text.contains("mW average"));

        // An infeasible solution is called out.
        let tight = sys(600, 30.0);
        let ev = Evaluator::new(&tight, &config);
        let sol = ev
            .evaluate(SystemMapping::from_fn(&tight, |_| PeId::new(0)), None)
            .unwrap();
        assert!(sol.describe(&tight).contains("INFEASIBLE"));
    }

    #[test]
    fn scratch_reuse_across_evaluations_is_transparent() {
        // One evaluator reused over alternating mappings must price each
        // exactly like a fresh evaluator: the scratch buffers carry no
        // state between evaluations.
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0).with_dvs();
        let shared = Evaluator::new(&system, &config);
        let mut hw = all_cpu(&system);
        hw.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        hw.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        for mapping in [all_cpu(&system), hw.clone(), all_cpu(&system), hw] {
            let fresh = Evaluator::new(&system, &config);
            let reused = shared.evaluate(mapping.clone(), Some(&DvsOptions::fine())).unwrap();
            let pristine = fresh.evaluate(mapping, Some(&DvsOptions::fine())).unwrap();
            assert_eq!(reused, pristine);
        }
    }

    #[test]
    fn shutdown_is_rewarded_for_rare_mode_hardware() {
        // With probabilities 0.1/0.9, keeping the common mode pure-software
        // lets the ASIC+bus power down 90% of the time; putting the *rare*
        // mode on HW instead keeps the expensive SW execution in the
        // common mode. The evaluator must price this correctly.
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        // Variant 1: common mode on HW (shuts CPU-heavy work down where it
        // matters most).
        let mut common_hw = all_cpu(&system);
        common_hw.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        common_hw.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        // Variant 2: rare mode on HW.
        let mut rare_hw = all_cpu(&system);
        rare_hw.set(ModeId::new(0), TaskId::new(0), PeId::new(1));
        rare_hw.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s1 = ev.evaluate(common_hw, None).unwrap();
        let s2 = ev.evaluate(rare_hw, None).unwrap();
        assert!(
            s1.power.average < s2.power.average,
            "common-mode HW {} should beat rare-mode HW {}",
            s1.power.average,
            s2.power.average
        );
    }
}
