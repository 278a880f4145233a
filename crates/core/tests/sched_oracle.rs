//! Differential test of the list scheduler, the mobility analysis and
//! core allocation against reference implementations: the scheduler that
//! keeps resource free times and sequences in `BTreeMap`s keyed by
//! `ResourceKey`, the analysis that estimates each comm's transfer time
//! in both passes, and the allocation that analyses every mode afresh.
//! The production code keeps flat resource slots, caches the comm
//! estimates and shares one analysis per mode between allocation and
//! scheduling; it must agree with the references bit for bit, errors
//! included, through every entry point.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth_core::{derive_allocation, AllocOptions, Evaluator, SynthesisConfig};
use momsynth_gen::automotive::automotive_ecu;
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::{generate, mul, GeneratorParams};
use momsynth_model::ids::{ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Seconds, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth_sched::{
    schedule_mode, schedule_mode_with, schedule_mode_with_analysis, ActivityId, CoreAllocation,
    ListScratch, Priority, ResourceKey, SchedError, Schedule, ScheduledComm, ScheduledTask,
    SchedulerOptions, SystemMapping, TimingAnalysis,
};

// ---- Reference analysis --------------------------------------------------

/// Execution times, ASAP and ALAP starts of one mode.
struct RefAnalysis {
    exec: Vec<Seconds>,
    asap: Vec<Seconds>,
    alap: Vec<Seconds>,
}

impl RefAnalysis {
    fn mobility(&self, task: TaskId) -> Seconds {
        self.alap[task.index()] - self.asap[task.index()]
    }
}

fn reference_analysis(system: &System, mode: ModeId, mapping: &SystemMapping) -> RefAnalysis {
    let graph = system.omsm().mode(mode).graph();
    let n = graph.task_count();

    let exec: Vec<Seconds> = graph
        .tasks()
        .map(|(task, t)| {
            let pe = mapping.pe_of(mode, task);
            system
                .tech()
                .impl_of(t.task_type(), pe)
                .map(|imp| imp.exec_time())
                .or_else(|| system.tech().fastest_exec_time(t.task_type()))
                .unwrap_or(Seconds::ZERO)
        })
        .collect();

    let comm_est = |comm: momsynth_model::ids::CommId| -> Seconds {
        let edge = graph.comm(comm);
        let src_pe = mapping.pe_of(mode, edge.src());
        let dst_pe = mapping.pe_of(mode, edge.dst());
        if src_pe == dst_pe {
            return Seconds::ZERO;
        }
        system
            .arch()
            .cls_between(src_pe, dst_pe)
            .map(|cl| system.arch().cl(cl).transfer_time(edge.data_units()))
            .fold(None, |best: Option<Seconds>, t| Some(best.map_or(t, |b| b.min(t))))
            .unwrap_or(Seconds::ZERO)
    };

    // Forward pass: earliest start ignoring resource contention.
    let mut asap = vec![Seconds::ZERO; n];
    for &t in graph.topological_order() {
        let mut start = Seconds::ZERO;
        for &(comm, pred) in graph.predecessors(t) {
            let arrival = asap[pred.index()] + exec[pred.index()] + comm_est(comm);
            start = start.max(arrival);
        }
        asap[t.index()] = start;
    }

    // Backward pass: latest start meeting min(θ, φ) everywhere.
    let mut alap_finish: Vec<Seconds> =
        graph.task_ids().map(|t| graph.effective_deadline(t)).collect();
    for &t in graph.topological_order().iter().rev() {
        let mut finish = graph.effective_deadline(t);
        for &(comm, succ) in graph.successors(t) {
            let succ_start = alap_finish[succ.index()] - exec[succ.index()];
            finish = finish.min(succ_start - comm_est(comm));
        }
        alap_finish[t.index()] = finish;
    }
    let alap = alap_finish.iter().zip(exec.iter()).map(|(&f, &e)| f - e).collect();
    RefAnalysis { exec, asap, alap }
}

/// Task ids by ascending mobility, ties broken by ASAP time and task id.
fn reference_priority_order(analysis: &RefAnalysis) -> Vec<TaskId> {
    let (asap, alap) = (&analysis.asap, &analysis.alap);
    let mut out: Vec<TaskId> = (0..asap.len()).map(TaskId::new).collect();
    out.sort_by(|&a, &b| {
        let mob = |t: TaskId| (alap[t.index()] - asap[t.index()]).value();
        mob(a)
            .total_cmp(&mob(b))
            .then(asap[a.index()].value().total_cmp(&asap[b.index()].value()))
            .then(a.index().cmp(&b.index()))
    });
    out
}

// ---- Reference scheduler -------------------------------------------------

fn reference_schedule(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    priority: Priority,
) -> Result<Schedule, SchedError> {
    let graph = system.omsm().mode(mode).graph();
    let n = graph.task_count();

    // Priority ranks: rank[task] = position in the chosen order.
    let order: Vec<TaskId> = match priority {
        Priority::Mobility => reference_priority_order(&reference_analysis(system, mode, mapping)),
        Priority::Fifo => graph.task_ids().collect(),
    };
    let mut rank = vec![0; n];
    for (pos, &t) in order.iter().enumerate() {
        rank[t.index()] = pos;
    }

    let mut scheduled: Vec<Option<ScheduledTask>> = vec![None; n];
    let mut comms: Vec<Option<ScheduledComm>> = vec![None; graph.comm_count()];
    let mut avail: BTreeMap<ResourceKey, Seconds> = BTreeMap::new();
    let mut sequences: BTreeMap<ResourceKey, Vec<ActivityId>> = BTreeMap::new();

    let mut pending_preds: Vec<usize> =
        graph.task_ids().map(|t| graph.predecessors(t).len()).collect();
    let mut ready: Vec<TaskId> =
        graph.task_ids().filter(|t| pending_preds[t.index()] == 0).collect();

    while let Some(pos) = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| rank[t.index()])
        .map(|(i, _)| i)
    {
        let task = ready.swap_remove(pos);
        let pe = mapping.pe_of(mode, task);
        let ty = graph.task(task).task_type();
        let imp = system
            .tech()
            .impl_of(ty, pe)
            .ok_or(SchedError::UnsupportedMapping { mode, task, pe })?;

        // Route incoming data, scheduling remote transfers on links.
        let mut est = Seconds::ZERO;
        for &(comm, pred) in graph.predecessors(task) {
            let pred_entry = scheduled[pred.index()]
                .expect("predecessor scheduled before successor became ready");
            let src_pe = pred_entry.pe;
            if src_pe == pe {
                est = est.max(pred_entry.finish());
                continue;
            }
            let edge = graph.comm(comm);
            // Pick the connecting link with the earliest transfer finish.
            let mut best: Option<(ResourceKey, ScheduledComm)> = None;
            for cl in system.arch().cls_between(src_pe, pe) {
                let key = ResourceKey::Link(cl);
                let link_free = avail.get(&key).copied().unwrap_or(Seconds::ZERO);
                let start = link_free.max(pred_entry.finish());
                let duration = system.arch().cl(cl).transfer_time(edge.data_units());
                let candidate = ScheduledComm { comm, cl, start, duration };
                let better = match &best {
                    None => true,
                    Some((_, b)) => candidate.finish() < b.finish(),
                };
                if better {
                    best = Some((key, candidate));
                }
            }
            let (key, entry) = best.ok_or(SchedError::NoRoute { mode, from: src_pe, to: pe })?;
            avail.insert(key, entry.finish());
            sequences.entry(key).or_default().push(ActivityId::Comm(comm));
            comms[comm.index()] = Some(entry);
            est = est.max(entry.finish());
        }

        // Pick the execution resource.
        let resource = if system.arch().pe(pe).kind().is_software() {
            ResourceKey::SwPe(pe)
        } else {
            let instances = alloc.instances(mode, pe, ty).max(1);
            (0..instances)
                .map(|i| ResourceKey::HwCore(pe, ty, i))
                .min_by(|a, b| {
                    let fa = avail.get(a).copied().unwrap_or(Seconds::ZERO);
                    let fb = avail.get(b).copied().unwrap_or(Seconds::ZERO);
                    fa.value().total_cmp(&fb.value())
                })
                .expect("at least one core instance")
        };
        let res_free = avail.get(&resource).copied().unwrap_or(Seconds::ZERO);
        let start = est.max(res_free);
        let entry = ScheduledTask { task, pe, resource, start, exec_time: imp.exec_time() };
        avail.insert(resource, entry.finish());
        sequences.entry(resource).or_default().push(ActivityId::Task(task));
        scheduled[task.index()] = Some(entry);

        for &(_, succ) in graph.successors(task) {
            pending_preds[succ.index()] -= 1;
            if pending_preds[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }

    let tasks: Vec<ScheduledTask> = scheduled
        .iter_mut()
        .map(|t| t.take().expect("acyclic graph schedules every task"))
        .collect();
    let sequences: Vec<(ResourceKey, Vec<ActivityId>)> = sequences.into_iter().collect();
    Ok(Schedule::from_parts(mode, tasks, comms, sequences))
}

// ---- Reference core allocation -------------------------------------------

fn reference_allocation(
    system: &System,
    mapping: &SystemMapping,
    options: &AllocOptions,
) -> CoreAllocation {
    let mut alloc = CoreAllocation::minimal(system, mapping);
    if !options.replicate {
        return alloc;
    }

    for (mode, m) in system.omsm().modes() {
        let graph = m.graph();
        let analysis = reference_analysis(system, mode, mapping);
        let threshold = graph.period() * options.mobility_threshold;

        type Window = (Seconds, Seconds);
        let mut groups: Vec<((PeId, TaskTypeId), Vec<Window>)> = Vec::new();
        for (task, t) in graph.tasks() {
            let pe = mapping.pe_of(mode, task);
            if !system.arch().pe(pe).kind().is_hardware() {
                continue;
            }
            if analysis.mobility(task) > threshold {
                continue;
            }
            let window = (
                analysis.asap[task.index()],
                analysis.asap[task.index()] + analysis.exec[task.index()],
            );
            let key = (pe, t.task_type());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, windows)) => windows.push(window),
                None => groups.push((key, vec![window])),
            }
        }

        for ((pe, ty), windows) in groups {
            let demand = peak_overlap(&windows);
            let current = alloc.instances(mode, pe, ty);
            let capacity = system.arch().pe(pe).area().expect("hardware PEs declare area");
            for want in (current + 1)..=demand {
                alloc.set_instances(mode, pe, ty, want);
                let used = if system.arch().pe(pe).kind().is_reconfigurable() {
                    alloc.mode_area(system, pe, mode)
                } else {
                    alloc.static_area(system, pe)
                };
                if used > capacity {
                    alloc.set_instances(mode, pe, ty, want - 1);
                    break;
                }
            }
        }
    }
    alloc
}

fn peak_overlap(windows: &[(Seconds, Seconds)]) -> usize {
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(windows.len() * 2);
    for &(start, end) in windows {
        events.push((start.value(), 1));
        events.push((end.value(), -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut open = 0i32;
    let mut peak = 0i32;
    for (_, delta) in events {
        open += delta;
        peak = peak.max(open);
    }
    peak.max(0) as usize
}

// ---- Comparison ----------------------------------------------------------

/// Bit-level rendering: `Debug` prints every float in its shortest
/// round-trip form, so equal strings mean equal bits.
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// What the checks exercised, so each test can assert its cases reach
/// the paths they are meant to.
#[derive(Debug, Default)]
struct Coverage {
    schedules: usize,
    unsupported: usize,
    no_route: usize,
    replicated: usize,
    /// Remote transfers that had more than one connecting link to choose from.
    multi_link_transfers: usize,
}

/// Compares analyses, allocations and schedules of every mode of
/// `mapping` with the references, through every entry point, both
/// priorities, the replicated allocation and that allocation with one
/// used core type zeroed. `scratch` is shared by the whole test.
fn check(system: &System, mapping: &SystemMapping, scratch: &mut ListScratch, what: &str) -> Coverage {
    let mut coverage = Coverage::default();

    for mode in system.omsm().mode_ids() {
        let expected = reference_analysis(system, mode, mapping);
        let got = TimingAnalysis::analyze(system, mode, mapping);
        for t in 0..expected.exec.len() {
            let t = TaskId::new(t);
            assert_eq!(
                bits(&(got.exec_time(t), got.asap(t), got.alap(t))),
                bits(&(expected.exec[t.index()], expected.asap[t.index()], expected.alap[t.index()])),
                "{what}, mode {mode}: analysis of task {t}"
            );
        }
        assert_eq!(got.priority_order(), reference_priority_order(&expected), "{what}, mode {mode}");
    }

    let replicated = AllocOptions::default();
    let minimal = AllocOptions { replicate: false, ..AllocOptions::default() };
    for options in [replicated, minimal] {
        assert_eq!(
            derive_allocation(system, mapping, &options),
            reference_allocation(system, mapping, &options),
            "{what}: allocation with {options:?}"
        );
    }
    let alloc = reference_allocation(system, mapping, &replicated);
    coverage.replicated = system
        .omsm()
        .mode_ids()
        .flat_map(|m| alloc.mode_cores(m).filter(|&(_, n)| n > 1).collect::<Vec<_>>())
        .count();
    // A used core type with zero instances takes the one-instance fallback.
    let mut zeroed = alloc.clone();
    if let Some((mode, (pe, ty))) = system
        .omsm()
        .mode_ids()
        .find_map(|m| alloc.mode_cores(m).next().map(|(key, _)| (m, key)))
    {
        zeroed.set_instances(mode, pe, ty, 0);
    }

    for (alloc_name, alloc) in [("replicated", &alloc), ("zeroed", &zeroed)] {
        for priority in [Priority::Mobility, Priority::Fifo] {
            let options = SchedulerOptions { priority };
            for mode in system.omsm().mode_ids() {
                let what = format!("{what}, {alloc_name} allocation, {priority:?}, mode {mode}");
                let expected = reference_schedule(system, mode, mapping, alloc, priority);
                let reused = schedule_mode_with(system, mode, mapping, alloc, options, scratch);
                assert_eq!(bits(&reused), bits(&expected), "{what}: reused scratch");
                let fresh = schedule_mode(system, mode, mapping, alloc, options);
                assert_eq!(bits(&fresh), bits(&expected), "{what}: fresh scratch");
                let analysis = TimingAnalysis::analyze(system, mode, mapping);
                let shared =
                    schedule_mode_with_analysis(system, mapping, alloc, &analysis, options, scratch);
                assert_eq!(bits(&shared), bits(&expected), "{what}: shared analysis");
                match &expected {
                    Ok(schedule) => {
                        coverage.schedules += 1;
                        coverage.multi_link_transfers += schedule
                            .remote_comms()
                            .filter(|c| {
                                let edge = system.omsm().mode(mode).graph().comm(c.comm);
                                let src = schedule.task(edge.src()).pe;
                                let dst = schedule.task(edge.dst()).pe;
                                system.arch().cls_between(src, dst).count() > 1
                            })
                            .count();
                    }
                    Err(SchedError::UnsupportedMapping { .. }) => coverage.unsupported += 1,
                    Err(SchedError::NoRoute { .. }) => coverage.no_route += 1,
                    Err(other) => panic!("{what}: unexpected error {other}"),
                }
            }
        }
    }

    // The evaluator shares one analysis per mode between allocation and
    // scheduling; its allocation and fixed-voltage schedules must match.
    for priority in [Priority::Mobility, Priority::Fifo] {
        let mut config = SynthesisConfig::new(0);
        config.scheduler.priority = priority;
        let expected: Result<Vec<Schedule>, SchedError> = system
            .omsm()
            .mode_ids()
            .map(|m| reference_schedule(system, m, mapping, &alloc, priority))
            .collect();
        let solution = Evaluator::new(system, &config).evaluate(mapping.clone(), None);
        match (solution, expected) {
            (Ok(solution), Ok(schedules)) => {
                assert_eq!(solution.alloc, alloc, "{what}: evaluator allocation");
                assert_eq!(bits(&solution.schedules), bits(&schedules), "{what}: evaluator");
            }
            (Err(got), Err(expected)) => assert_eq!(got, expected, "{what}: evaluator error"),
            (got, expected) => panic!("{what}: evaluator gave {got:?}, reference {expected:?}"),
        }
    }
    coverage
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.schedules += other.schedules;
        self.unsupported += other.unsupported;
        self.no_route += other.no_route;
        self.replicated += other.replicated;
        self.multi_link_transfers += other.multi_link_transfers;
    }
}

/// A random mapping over each task's candidate PEs; with probability
/// `stray` a task goes to any PE instead, which may lack an
/// implementation of its type.
fn random_mapping(system: &System, rng: &mut StdRng, stray: f64) -> SystemMapping {
    let pe_count = system.arch().pe_count();
    SystemMapping::from_fn(system, |id| {
        if rng.gen_bool(stray) {
            return PeId::new(rng.gen_range(0..pe_count));
        }
        let candidates = system.candidate_pes(id);
        candidates[rng.gen_range(0..candidates.len())]
    })
}

/// A system with two CPUs, an ASIC and an isolated DSP. Two equally fast
/// buses join `cpu0` and the ASIC, so transfers between them tie and the
/// first link must win; the DSP reaches only `cpu0`, so transfers between
/// it and the others have no route. Type `Z` has no hardware core, and
/// the tight periods make the allocator replicate cores.
fn twin_bus_system(rng: &mut StdRng) -> System {
    let ms = Seconds::from_millis;
    let mut tech = TechLibraryBuilder::new();
    let types = [tech.add_type("X"), tech.add_type("Y"), tech.add_type("Z")];
    let mut arch = ArchitectureBuilder::new();
    let cpu0 = arch.add_pe(Pe::software("cpu0", PeKind::Gpp, Watts::from_milli(1.0)));
    let cpu1 = arch.add_pe(Pe::software("cpu1", PeKind::Gpp, Watts::from_milli(1.0)));
    let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(2000), Watts::ZERO));
    let dsp = arch.add_pe(Pe::software("dsp", PeKind::Asip, Watts::ZERO));
    let bus = |name: &str, pes: Vec<PeId>| {
        Cl::bus(name, pes, Seconds::from_micros(10.0), Watts::from_milli(1.0), Watts::ZERO)
    };
    arch.add_cl(bus("bus_a", vec![cpu0, cpu1, hw])).unwrap();
    arch.add_cl(bus("bus_b", vec![cpu0, hw])).unwrap();
    arch.add_cl(bus("link_dsp", vec![cpu0, dsp])).unwrap();
    for (i, &ty) in types.iter().enumerate() {
        let sw = ms(4.0 + i as f64);
        for pe in [cpu0, cpu1, dsp] {
            tech.set_impl(ty, pe, Implementation::software(sw, Watts::from_milli(100.0)));
        }
        if i < 2 {
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(ms(1.0), Watts::from_milli(5.0), Cells::new(300)),
            );
        }
    }
    let mut omsm = OmsmBuilder::new();
    let modes = rng.gen_range(1..4);
    for m in 0..modes {
        let n = rng.gen_range(3..12);
        let mut g = TaskGraphBuilder::new(format!("m{m}"), ms(rng.gen_range(2.0..20.0)));
        let tasks: Vec<TaskId> =
            (0..n).map(|t| g.add_task(format!("t{t}"), types[rng.gen_range(0..3usize)])).collect();
        for (j, &dst) in tasks.iter().enumerate().skip(1) {
            for &src in &tasks[..j] {
                if rng.gen_bool(0.25) {
                    g.add_comm(src, dst, rng.gen_range(1.0..200.0)).unwrap();
                }
            }
        }
        omsm.add_mode(format!("m{m}"), 1.0 / modes as f64, g.build().unwrap());
    }
    System::new("twin_bus", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

#[test]
fn matches_reference_on_every_system_family() {
    let mut rng = StdRng::seed_from_u64(13);
    // One scratch across systems of different PE, link and type counts.
    let mut scratch = ListScratch::default();
    let mut coverage = Coverage::default();

    for case in 0..40 {
        let mut params = GeneratorParams::new("oracle", rng.gen_range(1..10_000));
        params.modes = rng.gen_range(1..4);
        let lo = rng.gen_range(4..16);
        params.tasks_per_mode = (lo, lo + 8);
        params.software_pes = rng.gen_range(1..3);
        params.hardware_pes = rng.gen_range(1..3);
        params.cls = rng.gen_range(1..3);
        params.slack_factor = rng.gen_range(0.6..2.5);
        let system = generate(&params);
        let mapping = random_mapping(&system, &mut rng, 0.02);
        coverage.add(check(&system, &mapping, &mut scratch, &format!("suite case {case}")));
    }
    for (name, system, cases) in [
        ("smartphone", smartphone(), 8),
        ("automotive", automotive_ecu(), 8),
        ("mul12", mul(12), 4),
    ] {
        for case in 0..cases {
            let mapping = random_mapping(&system, &mut rng, 0.01);
            coverage.add(check(&system, &mapping, &mut scratch, &format!("{name} case {case}")));
        }
    }
    for case in 0..40 {
        let system = twin_bus_system(&mut rng);
        // Half the tasks go to the ASIC where they can, so same-type
        // cores contend and the allocator replicates them.
        let asic = PeId::new(2);
        let mut mapping = random_mapping(&system, &mut rng, 0.15);
        for id in system.global_tasks() {
            if system.candidate_pes(id).contains(&asic) && rng.gen_bool(0.5) {
                mapping.set(id.mode, id.task, asic);
            }
        }
        coverage.add(check(&system, &mapping, &mut scratch, &format!("twin-bus case {case}")));
    }

    assert!(coverage.schedules > 100, "{coverage:?}");
    assert!(coverage.unsupported > 0, "{coverage:?}");
    assert!(coverage.no_route > 0, "{coverage:?}");
    assert!(coverage.replicated > 0, "{coverage:?}");
    assert!(coverage.multi_link_transfers > 0, "{coverage:?}");
}

