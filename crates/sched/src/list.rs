//! Mobility-driven list scheduling with on-line communication mapping.
//!
//! This is the inner loop of the paper's co-synthesis (Fig. 4, line 10),
//! equivalent in role to the LOPOCOS scheduling substrate of the paper's
//! reference \[12\]: given a task mapping and a hardware core allocation, construct a
//! static schedule `Sε^O` for one mode and simultaneously derive the
//! communication mapping `Mγ^O` by routing each inter-PE transfer over the
//! connecting link that lets it finish earliest.
//!
//! Resources are modelled as sequential servers: one per software PE, one
//! per allocated hardware core instance, one per link. Hardware tasks of
//! different cores run in parallel; tasks contending for the same core
//! instance sequentialise — the paper's hardware-sharing semantics.
//!
//! Each server is a slot in a flat vector: the PEs' slots come first, then
//! the links', then one block of core-instance slots per `(hardware PE,
//! type)`, appended the first time a task of that type runs there.

use std::cmp::Ordering;

use momsynth_model::ids::{ClId, ModeId, TaskId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::error::SchedError;
use crate::mapping::{CoreAllocation, SystemMapping};
use crate::mobility::TimingAnalysis;
use crate::schedule::{ActivityId, ResourceKey, Schedule, ScheduledComm, ScheduledTask};

/// The rule used to order ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Ascending mobility (the paper's choice): urgent tasks first.
    #[default]
    Mobility,
    /// Task-id order; the ablation baseline for design decision D5.
    Fifo,
}

/// Options controlling the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerOptions {
    /// Ready-list ordering rule.
    pub priority: Priority,
}

/// Reusable buffers for [`schedule_mode_with`] and
/// [`schedule_mode_with_analysis`]. One instance per evaluation worker
/// amortises the scheduler's per-call allocations (priority order, ranks,
/// ready list, dependency counters, resource slots and the mobility
/// analysis) across the thousands of schedule calls of a synthesis run.
/// Every table is cleared and sized on entry, so one instance may serve
/// systems of different shapes and reuse can never leak state between
/// calls.
#[derive(Debug, Default)]
pub struct ListScratch {
    /// The analysis [`schedule_mode_with`] computes for the mobility order.
    analysis: Option<TimingAnalysis>,
    buffers: Buffers,
}

/// The scheduler's working buffers apart from the analysis.
#[derive(Debug, Default)]
struct Buffers {
    order: Vec<TaskId>,
    rank: Vec<usize>,
    scheduled: Vec<Option<ScheduledTask>>,
    pending_preds: Vec<usize>,
    ready: Vec<TaskId>,
    slots: Vec<Slot>,
    /// `(first slot, instance count)` of each `(hardware PE, type)` core
    /// block, indexed `pe × type_count + type`; `None` until a task first
    /// uses the pair.
    hw_blocks: Vec<Option<(usize, usize)>>,
}

/// One sequential server.
#[derive(Debug)]
struct Slot {
    key: ResourceKey,
    /// When the server finishes its last activity so far.
    free: Seconds,
    /// Its activities in execution order.
    activities: Vec<ActivityId>,
}

impl Slot {
    fn new(key: ResourceKey) -> Self {
        Self { key, free: Seconds::ZERO, activities: Vec::new() }
    }
}

/// Schedules one mode of `system` under `mapping` and `alloc`.
///
/// Returns a [`Schedule`] with per-resource activity sequences; timing
/// feasibility is *not* enforced here — the caller inspects
/// [`Schedule::total_lateness`] and applies the paper's timing penalty.
///
/// Allocates fresh working buffers per call; the synthesis hot loop uses
/// [`schedule_mode_with_analysis`] with a reusable [`ListScratch`] instead.
///
/// # Errors
///
/// Returns [`SchedError::UnsupportedMapping`] if a task is mapped to a PE
/// lacking an implementation of its type, and [`SchedError::NoRoute`] if
/// two communicating tasks sit on PEs with no common link.
pub fn schedule_mode(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    options: SchedulerOptions,
) -> Result<Schedule, SchedError> {
    schedule_mode_with(system, mode, mapping, alloc, options, &mut ListScratch::default())
}

/// [`schedule_mode`] with caller-provided scratch buffers; produces the
/// identical schedule. Under [`Priority::Mobility`] it analyses the mode
/// into the analysis `scratch` holds.
///
/// # Errors
///
/// As [`schedule_mode`].
pub fn schedule_mode_with(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    options: SchedulerOptions,
    scratch: &mut ListScratch,
) -> Result<Schedule, SchedError> {
    let ListScratch { analysis, buffers } = scratch;
    let analysis = match options.priority {
        Priority::Fifo => None,
        Priority::Mobility => {
            match analysis {
                Some(a) => a.reanalyze(system, mode, mapping),
                None => *analysis = Some(TimingAnalysis::analyze(system, mode, mapping)),
            }
            analysis.as_ref()
        }
    };
    list_schedule(system, mode, mapping, alloc, analysis, buffers)
}

/// [`schedule_mode`] for the mode `analysis` covers, taking the priority
/// order from `analysis`, which must be the mode's analysis under
/// `mapping`. A caller that already analysed the mode, for core
/// allocation, saves the second analysis [`schedule_mode_with`] makes.
/// Produces the identical schedule.
///
/// # Errors
///
/// As [`schedule_mode`].
pub fn schedule_mode_with_analysis(
    system: &System,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    analysis: &TimingAnalysis,
    options: SchedulerOptions,
    scratch: &mut ListScratch,
) -> Result<Schedule, SchedError> {
    let priority = (options.priority == Priority::Mobility).then_some(analysis);
    list_schedule(system, analysis.mode(), mapping, alloc, priority, &mut scratch.buffers)
}

/// The list scheduler. Ready tasks are taken in the priority order of
/// `analysis`, or in task-id order when it is `None`.
fn list_schedule(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    analysis: Option<&TimingAnalysis>,
    buffers: &mut Buffers,
) -> Result<Schedule, SchedError> {
    let graph = system.omsm().mode(mode).graph();
    let arch = system.arch();
    let n = graph.task_count();
    let Buffers { order, rank, scheduled, pending_preds, ready, slots, hw_blocks } = buffers;

    // Priority ranks: rank[task] = position in the chosen order.
    match analysis {
        Some(analysis) => analysis.fill_priority_order(order),
        None => {
            order.clear();
            order.extend(graph.task_ids());
        }
    }
    rank.clear();
    rank.resize(n, 0);
    for (pos, &t) in order.iter().enumerate() {
        rank[t.index()] = pos;
    }

    scheduled.clear();
    scheduled.resize(n, None);
    // The comm entries escape into the returned `Schedule`, so they are
    // freshly allocated.
    let mut comms: Vec<Option<ScheduledComm>> = vec![None; graph.comm_count()];

    // Slot `pe` serves software PE `pe` (hardware PEs' slots stay unused),
    // slot `pe_count + cl` serves link `cl`.
    let pe_count = arch.pe_count();
    let type_count = system.tech().type_count();
    slots.clear();
    slots.extend(arch.pe_ids().map(|pe| Slot::new(ResourceKey::SwPe(pe))));
    slots.extend((0..arch.cl_count()).map(|cl| Slot::new(ResourceKey::Link(ClId::new(cl)))));
    hw_blocks.clear();
    hw_blocks.resize(pe_count * type_count, None);

    pending_preds.clear();
    pending_preds.extend(graph.task_ids().map(|t| graph.predecessors(t).len()));
    ready.clear();
    ready.extend(graph.task_ids().filter(|t| pending_preds[t.index()] == 0));

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
            // Pick the first connecting link with the earliest transfer
            // finish.
            let mut best: Option<ScheduledComm> = None;
            for cl in arch.cls_between(src_pe, pe) {
                let start = slots[pe_count + cl.index()].free.max(pred_entry.finish());
                let duration = arch.cl(cl).transfer_time(edge.data_units());
                let candidate = ScheduledComm { comm, cl, start, duration };
                if best.is_none_or(|b| candidate.finish() < b.finish()) {
                    best = Some(candidate);
                }
            }
            let entry = best.ok_or(SchedError::NoRoute { mode, from: src_pe, to: pe })?;
            let link = &mut slots[pe_count + entry.cl.index()];
            link.free = entry.finish();
            link.activities.push(ActivityId::Comm(comm));
            comms[comm.index()] = Some(entry);
            est = est.max(entry.finish());
        }

        // Pick the execution resource: the PE itself, or the first core
        // instance with the strictly smallest free time.
        let slot = if arch.pe(pe).kind().is_software() {
            pe.index()
        } else {
            let (first, count) = *hw_blocks[pe.index() * type_count + ty.index()]
                .get_or_insert_with(|| {
                    let instances = alloc.instances(mode, pe, ty).max(1);
                    let first = slots.len();
                    slots.extend(
                        (0..instances).map(|i| Slot::new(ResourceKey::HwCore(pe, ty, i))),
                    );
                    (first, instances)
                });
            (first + 1..first + count).fold(first, |best, s| {
                match slots[s].free.value().total_cmp(&slots[best].free.value()) {
                    Ordering::Less => s,
                    _ => best,
                }
            })
        };
        let server = &mut slots[slot];
        let start = est.max(server.free);
        let entry =
            ScheduledTask { task, pe, resource: server.key, start, exec_time: imp.exec_time() };
        server.free = entry.finish();
        server.activities.push(ActivityId::Task(task));
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
    // Resource keys order software PEs, then core instances, then links.
    let mut sequences: Vec<(ResourceKey, Vec<ActivityId>)> = slots
        .iter_mut()
        .filter(|slot| !slot.activities.is_empty())
        .map(|slot| (slot.key, std::mem::take(&mut slot.activities)))
        .collect();
    sequences.sort_unstable_by_key(|&(key, _)| key);
    Ok(Schedule::from_parts(mode, tasks, comms, sequences))
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// One CPU + one ASIC on a bus; types X (SW 10 ms / HW 1 ms) and
    /// Y (SW only, 5 ms). Mode 0: fork-join a->(l,r)->s with l,r of type X
    /// and a,s of type Y.
    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let ty = tech.add_type("Y");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(1.0)),
        );
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_micro(10.0),
                Cells::new(50),
            ),
        );
        tech.set_impl(
            ty,
            cpu,
            Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(1.0)),
        );

        let mut g = TaskGraphBuilder::new("fj", Seconds::from_millis(100.0));
        let a = g.add_task("a", ty);
        let l = g.add_task("l", tx);
        let r = g.add_task("r", tx);
        let s = g.add_task("s", ty);
        g.add_comm(a, l, 100.0).unwrap();
        g.add_comm(a, r, 100.0).unwrap();
        g.add_comm(l, s, 100.0).unwrap();
        g.add_comm(r, s, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("fj", 1.0, g.build().unwrap());
        System::new("tb", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn cpu_mapping(sys: &System) -> SystemMapping {
        SystemMapping::from_fn(sys, |_| PeId::new(0))
    }

    fn run(sys: &System, mapping: &SystemMapping) -> Schedule {
        let alloc = CoreAllocation::minimal(sys, mapping);
        schedule_mode(sys, ModeId::new(0), mapping, &alloc, SchedulerOptions::default()).unwrap()
    }

    #[test]
    fn software_tasks_sequentialise() {
        let sys = testbed();
        let s = run(&sys, &cpu_mapping(&sys));
        // a(5) then l(10), r(10) in some order, then s(5): makespan 30 ms.
        assert!((s.makespan().as_millis() - 30.0).abs() < 1e-9);
        assert_eq!(s.remote_comms().count(), 0);
        // All four tasks on the single software server, no overlap.
        let seq = s.sequences();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].0, ResourceKey::SwPe(PeId::new(0)));
        assert_eq!(seq[0].1.len(), 4);
        let mut last_finish = Seconds::ZERO;
        for act in &seq[0].1 {
            if let ActivityId::Task(t) = act {
                let e = s.task(*t);
                assert!(e.start + Seconds::new(1e-15) >= last_finish);
                last_finish = e.finish();
            }
        }
    }

    /// Two independent type-X tasks on the ASIC: parallel with two core
    /// instances, sequential with one.
    fn independent_pair_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(2.0),
                Watts::from_micro(10.0),
                Cells::new(50),
            ),
        );
        let mut g = TaskGraphBuilder::new("pair", Seconds::from_millis(100.0));
        g.add_task("p", tx);
        g.add_task("q", tx);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("pair", 1.0, g.build().unwrap());
        System::new("pair", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn hardware_cores_run_in_parallel_when_replicated() {
        let sys = independent_pair_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let mut alloc = CoreAllocation::minimal(&sys, &mapping);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        let s = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .unwrap();
        let p = s.task(TaskId::new(0));
        let q = s.task(TaskId::new(1));
        assert_ne!(p.resource, q.resource);
        assert_eq!(p.start, Seconds::ZERO);
        assert_eq!(q.start, Seconds::ZERO);
        assert!((s.makespan().as_millis() - 2.0).abs() < 1e-9);

        // With the minimal single-core allocation the pair sequentialises.
        let alloc1 = CoreAllocation::minimal(&sys, &mapping);
        let s1 = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc1,
            SchedulerOptions::default(),
        )
        .unwrap();
        assert!((s1.makespan().as_millis() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_core_contention_sequentialises() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        mapping.set(ModeId::new(0), TaskId::new(2), PeId::new(1));
        let s = run(&sys, &mapping); // minimal alloc: one core
        let l = s.task(TaskId::new(1));
        let r = s.task(TaskId::new(2));
        assert_eq!(l.resource, r.resource);
        let (first, second) = if l.start < r.start { (l, r) } else { (r, l) };
        assert!(second.start + Seconds::new(1e-15) >= first.finish());
    }

    #[test]
    fn remote_comm_is_routed_and_timed() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s = run(&sys, &mapping);
        // a finishes at 5 ms; a->l transfers 100 units at 10 us = 1 ms.
        let c = s.comm(momsynth_model::ids::CommId::new(0)).unwrap();
        assert!((c.start.as_millis() - 5.0).abs() < 1e-9);
        assert!((c.duration.as_millis() - 1.0).abs() < 1e-9);
        // l executes 6..7 on hw; l->s transfers back 7..8.
        let l = s.task(TaskId::new(1));
        assert!((l.start.as_millis() - 6.0).abs() < 1e-9);
        let back = s.comm(momsynth_model::ids::CommId::new(2)).unwrap();
        assert!((back.start.as_millis() - 7.0).abs() < 1e-9);
        // Local comms have no entries.
        assert!(s.comm(momsynth_model::ids::CommId::new(1)).is_none());
        assert_eq!(s.remote_comms().count(), 2);
    }

    #[test]
    fn bus_contention_serialises_transfers() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        mapping.set(ModeId::new(0), TaskId::new(2), PeId::new(1));
        let mut alloc = CoreAllocation::minimal(&sys, &mapping);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        let s = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .unwrap();
        // Both a->l and a->r become ready at 5 ms but share the bus.
        let c0 = s.comm(momsynth_model::ids::CommId::new(0)).unwrap();
        let c1 = s.comm(momsynth_model::ids::CommId::new(1)).unwrap();
        let (first, second) = if c0.start < c1.start { (c0, c1) } else { (c1, c0) };
        assert!(second.start + Seconds::new(1e-15) >= first.finish());
    }

    #[test]
    fn missing_implementation_is_reported() {
        let sys = testbed();
        // Task a has type Y with no HW implementation.
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(0), PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let err = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::UnsupportedMapping { .. }));
    }

    #[test]
    fn no_route_is_reported() {
        // Two CPUs without any link.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let c0 = arch.add_pe(Pe::software("c0", PeKind::Gpp, Watts::ZERO));
        let c1 = arch.add_pe(Pe::software("c1", PeKind::Gpp, Watts::ZERO));
        tech.set_impl(tx, c0, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        tech.set_impl(tx, c1, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        let mut g = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 1.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_vecs(vec![vec![c0, c1]]);
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let err = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::NoRoute { .. }));
    }

    #[test]
    fn scheduling_is_deterministic() {
        let sys = testbed();
        let mapping = cpu_mapping(&sys);
        let a = run(&sys, &mapping);
        let b = run(&sys, &mapping);
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_produces_identical_schedules() {
        let sys = testbed();
        let mut scratch = ListScratch::default();
        // Alternate between mappings so every buffer is refilled with
        // different contents; each result must match a fresh-buffer run.
        for hw_task in [1usize, 2, 1] {
            let mut mapping = cpu_mapping(&sys);
            mapping.set(ModeId::new(0), TaskId::new(hw_task), PeId::new(1));
            let alloc = CoreAllocation::minimal(&sys, &mapping);
            let reused = schedule_mode_with(
                &sys,
                ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions::default(),
                &mut scratch,
            )
            .unwrap();
            let fresh = schedule_mode(
                &sys,
                ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions::default(),
            )
            .unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn fifo_priority_is_supported() {
        let sys = testbed();
        let mapping = cpu_mapping(&sys);
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let s = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions { priority: Priority::Fifo },
        )
        .unwrap();
        // Same makespan on a single resource regardless of order.
        assert!((s.makespan().as_millis() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_rendering_mentions_resources_and_tasks() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s = run(&sys, &mapping);
        let gantt = s.to_gantt_string(&sys);
        assert!(gantt.contains("cpu"));
        assert!(gantt.contains("hw"));
        assert!(gantt.contains("bus"));
        assert!(gantt.contains("xfer"));
    }
}
