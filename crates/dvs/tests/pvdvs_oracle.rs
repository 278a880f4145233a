//! Differential test of the PV-DVS scaler against a reference
//! implementation: the straightforward scaler that rebuilds the
//! constraint graph into a `BTreeSet`, re-runs full forward and backward
//! passes and re-prices every unit on every greedy step, and fits voltage
//! schedules from a precomputed table of level times. The production
//! scaler keeps slack and gains incrementally; it must agree with the
//! reference bit for bit on every output and on the iteration count.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth_dvs::{
    scale_mode, scale_mode_owned, scale_mode_with, virtual_tasks, DvsOptions, DvsScratch,
    ScaledMode, VoltageModel, VoltageSegment,
};
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::{generate, GeneratorParams};
use momsynth_model::arch::DvsCapability;
use momsynth_model::ids::{ClId, CommId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Joules, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth_sched::{
    schedule_mode, ActivityId, CoreAllocation, ResourceKey, Schedule, ScheduledComm, ScheduledTask,
    SchedulerOptions, SystemMapping,
};

// ---- Reference scaler ----------------------------------------------------

/// The reference result: what `ScaledMode` exposes, with voltage schedules
/// as their segment lists.
#[derive(Debug)]
struct Reference {
    schedule: Schedule,
    task_voltages: Vec<Option<Vec<VoltageSegment>>>,
    task_energy_factors: Vec<f64>,
    iterations: usize,
}

/// Reference two-level fit over a precomputed table of level times.
fn fit(
    cap: &DvsCapability,
    model: &VoltageModel,
    t_min: Seconds,
    target: Seconds,
) -> Vec<VoltageSegment> {
    assert!(t_min.value() > 0.0, "nominal execution time must be positive");
    let levels = cap.levels();
    let times: Vec<Seconds> = levels.iter().map(|&v| t_min * model.stretch(v)).collect();
    let highest = levels.len() - 1;

    if target.value() <= times[highest].value() + 1e-15 {
        return vec![VoltageSegment {
            voltage: levels[highest],
            cycle_fraction: 1.0,
            duration: times[highest],
        }];
    }
    if target.value() >= times[0].value() - 1e-15 {
        return vec![VoltageSegment {
            voltage: levels[0],
            cycle_fraction: 1.0,
            duration: times[0],
        }];
    }
    let mut lo = highest;
    while lo > 0 && times[lo - 1].value() < target.value() {
        lo -= 1;
    }
    let lo = lo - 1;
    let hi = lo + 1;
    let (t_lo, t_hi) = (times[lo], times[hi]);
    let x = ((t_lo - target) / (t_lo - t_hi)).clamp(0.0, 1.0);
    let mut segments = Vec::with_capacity(2);
    if x > 1e-12 {
        segments.push(VoltageSegment {
            voltage: levels[hi],
            cycle_fraction: x,
            duration: t_hi * x,
        });
    }
    if 1.0 - x > 1e-12 {
        segments.push(VoltageSegment {
            voltage: levels[lo],
            cycle_fraction: 1.0 - x,
            duration: t_lo * (1.0 - x),
        });
    }
    segments
}

fn total_time(segments: &[VoltageSegment]) -> Seconds {
    segments.iter().map(|s| s.duration).sum()
}

fn energy_factor(segments: &[VoltageSegment], model: &VoltageModel) -> f64 {
    segments.iter().map(|s| s.cycle_fraction * model.energy_factor(s.voltage)).sum()
}

#[derive(Debug, Clone)]
struct GroupMember {
    task: TaskId,
    rel_start: Seconds,
    nominal: Seconds,
}

#[derive(Debug, Clone)]
enum UnitPayload {
    Task(TaskId),
    Comm(CommId),
    Group { members: Vec<GroupMember> },
}

#[derive(Debug, Clone)]
struct ScaleInfo {
    cap: DvsCapability,
    model: VoltageModel,
    energy: Joules,
    max_stretch: f64,
}

#[derive(Debug, Clone)]
struct Unit {
    payload: UnitPayload,
    deadline: Seconds,
    nominal: Seconds,
    dur: Seconds,
    scale: Option<ScaleInfo>,
}

fn reference(system: &System, schedule: &Schedule, options: &DvsOptions) -> Reference {
    reference_inner(system, schedule, options, options.scale_hw)
}

fn reference_inner(
    system: &System,
    schedule: &Schedule,
    options: &DvsOptions,
    allow_groups: bool,
) -> Reference {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let period = graph.period();
    let n = graph.task_count();

    let mut units: Vec<Unit> = Vec::new();
    let mut task_unit = vec![usize::MAX; n];
    let mut comm_unit: Vec<Option<usize>> = vec![None; graph.comm_count()];

    if allow_groups {
        for pe in system.arch().dvs_pes().collect::<Vec<_>>() {
            if !system.arch().pe(pe).kind().is_hardware() {
                continue;
            }
            let cap = system.arch().pe(pe).dvs().expect("dvs_pes yields DVS PEs").clone();
            let model = VoltageModel::from_capability(&cap);
            let max_stretch = model.max_stretch(cap.v_min());
            for group in virtual_tasks(system, schedule, pe) {
                let idx = units.len();
                let mut deadline = period;
                let members: Vec<GroupMember> = group
                    .members
                    .iter()
                    .map(|&t| {
                        deadline = deadline.min(graph.effective_deadline(t));
                        let e = schedule.task(t);
                        GroupMember {
                            task: t,
                            rel_start: e.start - group.start,
                            nominal: e.exec_time,
                        }
                    })
                    .collect();
                for m in &members {
                    task_unit[m.task.index()] = idx;
                }
                units.push(Unit {
                    payload: UnitPayload::Group { members },
                    deadline,
                    nominal: group.duration(),
                    dur: group.duration(),
                    scale: Some(ScaleInfo {
                        cap: cap.clone(),
                        model,
                        energy: group.energy,
                        max_stretch,
                    }),
                });
            }
        }
    }

    for entry in schedule.tasks() {
        let t = entry.task;
        if task_unit[t.index()] != usize::MAX {
            continue;
        }
        let pe_info = system.arch().pe(entry.pe);
        let scale = match pe_info.dvs() {
            Some(cap) if pe_info.kind().is_software() => {
                let model = VoltageModel::from_capability(cap);
                let energy = system
                    .tech()
                    .impl_of(graph.task(t).task_type(), entry.pe)
                    .expect("scheduled task has an implementation")
                    .energy();
                Some(ScaleInfo {
                    cap: cap.clone(),
                    model,
                    energy,
                    max_stretch: model.max_stretch(cap.v_min()),
                })
            }
            _ => None,
        };
        task_unit[t.index()] = units.len();
        units.push(Unit {
            payload: UnitPayload::Task(t),
            deadline: graph.effective_deadline(t),
            nominal: entry.exec_time,
            dur: entry.exec_time,
            scale,
        });
    }

    for entry in schedule.remote_comms() {
        comm_unit[entry.comm.index()] = Some(units.len());
        units.push(Unit {
            payload: UnitPayload::Comm(entry.comm),
            deadline: period,
            nominal: entry.duration,
            dur: entry.duration,
            scale: None,
        });
    }

    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (c, edge) in graph.comms() {
        let su = task_unit[edge.src().index()];
        let du = task_unit[edge.dst().index()];
        match comm_unit[c.index()] {
            Some(cu) => {
                if su != cu {
                    edges.insert((su, cu));
                }
                if cu != du {
                    edges.insert((cu, du));
                }
            }
            None => {
                if su != du {
                    edges.insert((su, du));
                }
            }
        }
    }
    let activity_unit = |act: ActivityId| match act {
        ActivityId::Task(t) => task_unit[t.index()],
        ActivityId::Comm(c) => comm_unit[c.index()].expect("sequenced comm is remote"),
    };
    for (_, acts) in schedule.sequences() {
        for pair in acts.windows(2) {
            let (ua, ub) = (activity_unit(pair[0]), activity_unit(pair[1]));
            if ua != ub {
                edges.insert((ua, ub));
            }
        }
    }

    let Some(topo) = topo_order(units.len(), &edges) else {
        assert!(allow_groups, "group-free unit graph must be acyclic");
        return reference_inner(system, schedule, options, false);
    };
    let mut succs = vec![Vec::new(); units.len()];
    let mut preds = vec![Vec::new(); units.len()];
    for &(a, b) in &edges {
        succs[a].push(b);
        preds[b].push(a);
    }
    let forward = |units: &[Unit]| {
        let mut es = vec![Seconds::ZERO; units.len()];
        let mut ef = vec![Seconds::ZERO; units.len()];
        for &u in &topo {
            let start = preds[u].iter().map(|&p| ef[p]).fold(Seconds::ZERO, Seconds::max);
            es[u] = start;
            ef[u] = start + units[u].dur;
        }
        (es, ef)
    };
    let backward = |units: &[Unit]| {
        let mut lf: Vec<Seconds> = units.iter().map(|u| u.deadline).collect();
        for &u in topo.iter().rev() {
            for &s in &succs[u] {
                lf[u] = lf[u].min(lf[s] - units[s].dur);
            }
        }
        lf
    };

    let quantum = period / options.quantum_divisor.max(1.0);
    let eps = period * 1e-9;
    let mut iterations = 0usize;
    while iterations < options.max_iterations {
        let (_, ef) = forward(&units);
        let lf = backward(&units);
        let mut best: Option<(usize, Seconds, f64)> = None;
        for (u, unit) in units.iter().enumerate() {
            let Some(scale) = &unit.scale else { continue };
            if unit.nominal.value() <= 0.0 {
                continue;
            }
            let slack = lf[u] - ef[u];
            let room = unit.nominal * scale.max_stretch - unit.dur;
            let delta = quantum.min(slack).min(room);
            if delta <= eps {
                continue;
            }
            let k_now = unit.dur / unit.nominal;
            let k_new = (unit.dur + delta) / unit.nominal;
            let e_now = scale.energy.value() * scale.model.energy_factor_for_stretch(k_now);
            let e_new = scale.energy.value() * scale.model.energy_factor_for_stretch(k_new);
            let gain = (e_now - e_new) / delta.value();
            if gain > 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((u, delta, gain));
            }
        }
        let Some((u, delta, _)) = best else { break };
        units[u].dur += delta;
        iterations += 1;
    }

    let mut task_voltages: Vec<Option<Vec<VoltageSegment>>> = vec![None; n];
    let mut task_factors = vec![1.0f64; n];
    let mut new_tasks: Vec<ScheduledTask> = schedule.tasks().cloned().collect();
    new_tasks.sort_by_key(|e| e.task);
    let mut new_comms: Vec<Option<ScheduledComm>> =
        graph.comm_ids().map(|c| schedule.comm(c).cloned()).collect();

    for unit in &mut units {
        let Some(scale) = &unit.scale else { continue };
        if unit.dur.value() <= unit.nominal.value() * (1.0 + 1e-12) {
            unit.dur = unit.nominal;
            continue;
        }
        unit.dur = total_time(&fit(&scale.cap, &scale.model, unit.nominal, unit.dur));
    }
    let (es, _) = forward(&units);

    for (u, unit) in units.iter().enumerate() {
        match &unit.payload {
            UnitPayload::Task(t) => {
                let entry = &mut new_tasks[t.index()];
                entry.start = es[u];
                if let Some(scale) = &unit.scale {
                    let vs = fit(&scale.cap, &scale.model, unit.nominal, unit.dur);
                    entry.exec_time = total_time(&vs);
                    task_factors[t.index()] = energy_factor(&vs, &scale.model);
                    task_voltages[t.index()] = Some(vs);
                }
            }
            UnitPayload::Comm(c) => {
                new_comms[c.index()].as_mut().expect("comm unit is remote").start = es[u];
            }
            UnitPayload::Group { members } => {
                let scale = unit.scale.as_ref().expect("groups are always scalable");
                let k = if unit.nominal.value() > 0.0 { unit.dur / unit.nominal } else { 1.0 };
                for m in members {
                    let entry = &mut new_tasks[m.task.index()];
                    entry.start = es[u] + m.rel_start * k;
                    let vs = fit(&scale.cap, &scale.model, m.nominal, m.nominal * k);
                    entry.exec_time = total_time(&vs);
                    task_factors[m.task.index()] = energy_factor(&vs, &scale.model);
                    task_voltages[m.task.index()] = Some(vs);
                }
            }
        }
    }

    Reference {
        schedule: Schedule::from_parts(
            schedule.mode(),
            new_tasks,
            new_comms,
            schedule.sequences().to_vec(),
        ),
        task_voltages,
        task_energy_factors: task_factors,
        iterations,
    }
}

fn topo_order(n: usize, edges: &BTreeSet<(usize, usize)>) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; n];
    let mut succs = vec![Vec::new(); n];
    for &(a, b) in edges {
        indegree[b] += 1;
        succs[a].push(b);
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &s in &succs[u] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    (queue.len() == n).then_some(queue)
}

// ---- Comparison ------------------------------------------------------------

/// Asserts bit-identical agreement. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal strings mean equal bits.
fn assert_matches(scaled: &ScaledMode, reference: &Reference, what: &str) {
    assert_eq!(scaled.iterations(), reference.iterations, "{what}: iterations");
    assert_eq!(
        format!("{:?}", scaled.schedule()),
        format!("{:?}", reference.schedule),
        "{what}: schedule"
    );
    let factors: Vec<u64> = scaled.energy_factors().iter().map(|f| f.to_bits()).collect();
    let expected: Vec<u64> = reference.task_energy_factors.iter().map(|f| f.to_bits()).collect();
    assert_eq!(factors, expected, "{what}: energy factors");
    for (t, expected) in reference.task_voltages.iter().enumerate() {
        let got = scaled.task_voltage(TaskId::new(t)).map(|v| v.segments());
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", expected.as_deref()),
            "{what}: voltage schedule of task {t}"
        );
    }
}

/// Scales every mode of `mapping` through all three entry points (one
/// scratch shared across the whole test) and compares each with the
/// reference. Returns the iterations performed.
fn check_system(
    system: &System,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    scratch: &mut DvsScratch,
    what: &str,
) -> usize {
    let options = [
        DvsOptions::default(),
        DvsOptions::fine(),
        DvsOptions { scale_hw: false, ..DvsOptions::default() },
    ];
    let mut iterations = 0;
    for mode in system.omsm().mode_ids() {
        let schedule = schedule_mode(system, mode, mapping, alloc, SchedulerOptions::default())
            .expect("generated architectures are fully connected");
        for (i, opts) in options.iter().enumerate() {
            let expected = reference(system, &schedule, opts);
            let what = format!("{what}, mode {mode}, options #{i}");
            let reused = scale_mode_with(system, &schedule, opts, scratch);
            assert_matches(&reused, &expected, &what);
            let owned = scale_mode_owned(system, schedule.clone(), opts, scratch);
            assert_eq!(owned, reused, "{what}: owned entry point");
            if i == 0 {
                assert_eq!(scale_mode(system, &schedule, opts), reused, "{what}: fresh scratch");
            }
            iterations += expected.iterations;
        }
    }
    iterations
}

/// A random mapping over each task's candidate PEs, with the minimal core
/// allocation plus random extra instances so hardware cores run in
/// parallel and merge into multi-member virtual tasks.
fn random_mapping(system: &System, rng: &mut StdRng) -> (SystemMapping, CoreAllocation) {
    let mapping = SystemMapping::from_fn(system, |id| {
        let candidates = system.candidate_pes(id);
        candidates[rng.gen_range(0..candidates.len())]
    });
    let mut alloc = CoreAllocation::minimal(system, &mapping);
    for (mode, m) in system.omsm().modes() {
        for (task, t) in m.graph().tasks() {
            let pe = mapping.pe_of(mode, task);
            if system.arch().pe(pe).kind().is_hardware() && rng.gen_bool(0.3) {
                alloc.ensure(mode, pe, t.task_type(), rng.gen_range(2..4));
            }
        }
    }
    (mapping, alloc)
}

#[test]
fn matches_reference_on_random_suite_systems() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut scratch = DvsScratch::default();
    let mut iterations = 0;
    for case in 0..60 {
        let mut params = GeneratorParams::new("oracle", rng.gen_range(1..10_000));
        params.modes = rng.gen_range(1..4);
        let lo = rng.gen_range(4..16);
        params.tasks_per_mode = (lo, lo + 8);
        params.hardware_pes = rng.gen_range(1..3);
        params.dvs_hardware_pes = rng.gen_range(0..=params.hardware_pes);
        params.slack_factor = rng.gen_range(0.9..2.5);
        let system = generate(&params);
        let (mapping, alloc) = random_mapping(&system, &mut rng);
        iterations +=
            check_system(&system, &mapping, &alloc, &mut scratch, &format!("suite case {case}"));
    }
    assert!(iterations > 0, "the cases must exercise the greedy loop");
}

#[test]
fn matches_reference_on_random_smartphone_genomes() {
    let system = smartphone();
    let mut rng = StdRng::seed_from_u64(7);
    let mut scratch = DvsScratch::default();
    let mut iterations = 0;
    for case in 0..10 {
        let (mapping, alloc) = random_mapping(&system, &mut rng);
        iterations += check_system(
            &system,
            &mapping,
            &alloc,
            &mut scratch,
            &format!("smartphone case {case}"),
        );
    }
    assert!(iterations > 0, "the cases must exercise the greedy loop");
}

// ---- Cycle fallback --------------------------------------------------------

/// A DVS CPU and a DVS ASIC with three cores on one bus. The schedule
/// chains `a` (core A) → `s` (CPU) → `b` (core B) through two bus
/// transfers, while `x` on core C overlaps both `a` and `b`. The overlap
/// merges `a`, `x` and `b` into one virtual task, so the unit graph has
/// the cycle group → transfer → `s` → transfer → group.
fn cyclic_case() -> (System, Schedule) {
    let rail = || {
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        )
    };
    let ms = Seconds::from_millis;
    let mut tech = TechLibraryBuilder::new();
    let ta = tech.add_type("A");
    let tb = tech.add_type("B");
    let tc = tech.add_type("C");
    let ts = tech.add_type("S");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(rail()));
    let hw = arch
        .add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(rail()));
    arch.add_cl(Cl::bus("bus", vec![cpu, hw], Seconds::from_micros(1.0), Watts::ZERO, Watts::ZERO))
        .unwrap();
    for (ty, t) in [(ta, 2.0), (tb, 2.0), (tc, 4.0)] {
        tech.set_impl(
            ty,
            hw,
            Implementation::hardware(ms(t), Watts::from_milli(10.0), Cells::new(100)),
        );
    }
    tech.set_impl(ts, cpu, Implementation::software(ms(1.0), Watts::from_milli(100.0)));
    let mut g = TaskGraphBuilder::new("m", ms(100.0));
    let a = g.add_task("a", ta);
    let s = g.add_task("s", ts);
    let b = g.add_task("b", tb);
    g.add_task("x", tc);
    g.add_comm(a, s, 1.0).unwrap();
    g.add_comm(s, b, 1.0).unwrap();
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    let system =
        System::new("cyclic", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();

    let core = |ty: TaskTypeId| ResourceKey::HwCore(hw, ty, 0);
    let task = |id: usize, pe: PeId, resource: ResourceKey, start: f64, exec: f64| ScheduledTask {
        task: TaskId::new(id),
        pe,
        resource,
        start: ms(start),
        exec_time: ms(exec),
    };
    let comm = |id: usize, start: f64| ScheduledComm {
        comm: CommId::new(id),
        cl: ClId::new(0),
        start: ms(start),
        duration: ms(0.5),
    };
    let schedule = Schedule::from_parts(
        ModeId::new(0),
        vec![
            task(0, hw, core(ta), 0.0, 2.0),
            task(1, cpu, ResourceKey::SwPe(cpu), 2.5, 1.0),
            task(2, hw, core(tb), 4.0, 2.0),
            task(3, hw, core(tc), 1.0, 4.0),
        ],
        vec![Some(comm(0, 2.0)), Some(comm(1, 3.5))],
        vec![
            (core(ta), vec![ActivityId::Task(TaskId::new(0))]),
            (ResourceKey::SwPe(cpu), vec![ActivityId::Task(TaskId::new(1))]),
            (core(tb), vec![ActivityId::Task(TaskId::new(2))]),
            (core(tc), vec![ActivityId::Task(TaskId::new(3))]),
            (
                ResourceKey::Link(ClId::new(0)),
                vec![ActivityId::Comm(CommId::new(0)), ActivityId::Comm(CommId::new(1))],
            ),
        ],
    );
    (system, schedule)
}

#[test]
fn merge_cycle_falls_back_to_group_free_scaling() {
    let (system, schedule) = cyclic_case();
    let groups = virtual_tasks(&system, &schedule, PeId::new(1));
    assert_eq!(groups.len(), 1, "a, x and b merge into one virtual task");
    assert_eq!(groups[0].members.len(), 3);

    let graph = system.omsm().mode(ModeId::new(0)).graph();
    for options in [DvsOptions::default(), DvsOptions::fine()] {
        let scaled = scale_mode(&system, &schedule, &options);
        assert_matches(&scaled, &reference(&system, &schedule, &options), "cyclic case");
        assert!(
            scaled.schedule().is_timing_feasible(graph),
            "{}",
            scaled.schedule().total_lateness(graph)
        );
        // The fallback scales the software task only: the hardware rail
        // stays nominal, which it would not with the group.
        assert!(scaled.energy_factor(TaskId::new(1)) < 1.0);
        for t in [0, 2, 3] {
            assert_eq!(scaled.energy_factor(TaskId::new(t)), 1.0, "task {t}");
            assert!(scaled.task_voltage(TaskId::new(t)).is_none());
        }
    }
}
