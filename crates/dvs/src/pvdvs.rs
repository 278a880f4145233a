//! PV-DVS: power-variation-driven voltage scaling on a static schedule.
//!
//! This is the voltage-scaling substrate of the paper's reference \[10\] extended, as in
//! the paper's Section 4.2, to hardware components: given a mode's static
//! [`Schedule`], the scaler distributes the schedule's slack over the
//! scalable activities, always giving the next time quantum to the
//! activity whose extension saves the most energy, then snaps each
//! extension to the PE's discrete supply levels.
//!
//! The constraint graph is rebuilt from the schedule itself: precedence
//! edges from the task graph (through remote communications where they
//! exist) plus resource-order edges from the per-resource sequences.
//! Activities on single-rail DVS hardware are first merged into virtual
//! tasks (see [`crate::hw_transform`]) so all cores scale together.

use std::ops::Range;

use momsynth_model::arch::DvsCapability;
use momsynth_model::ids::{CommId, PeId, TaskId};
use momsynth_model::units::{Joules, Seconds};
use momsynth_model::System;
use momsynth_sched::{ActivityId, Schedule};

use crate::hw_transform::{for_each_virtual_task, Execution};
use crate::voltage::VoltageModel;
use crate::vschedule::VoltageSchedule;

/// Options controlling the PV-DVS scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsOptions {
    /// Slack is distributed in quanta of `period / quantum_divisor`.
    /// Larger divisors approximate the continuous optimum more closely at
    /// higher cost; the synthesis loop uses a coarse divisor and re-scales
    /// the final solution finely.
    pub quantum_divisor: f64,
    /// Hard cap on greedy iterations (safety valve).
    pub max_iterations: usize,
    /// Scale single-rail hardware PEs through the virtual-task
    /// transformation (the paper's extension). Disable for the D3
    /// ablation, which scales software PEs only.
    pub scale_hw: bool,
}

impl Default for DvsOptions {
    fn default() -> Self {
        Self { quantum_divisor: 50.0, max_iterations: 20_000, scale_hw: true }
    }
}

impl DvsOptions {
    /// A fine-grained configuration for re-scaling a final solution.
    pub fn fine() -> Self {
        Self { quantum_divisor: 400.0, max_iterations: 200_000, scale_hw: true }
    }
}

/// The result of voltage-scaling one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledMode {
    schedule: Schedule,
    task_voltages: Vec<Option<VoltageSchedule>>,
    task_energy_factors: Vec<f64>,
    iterations: usize,
}

impl ScaledMode {
    /// The stretched schedule (same mapping and resource order, new start
    /// times and execution times).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The voltage schedule derived for `task`, or `None` if the task was
    /// not scaled.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn task_voltage(&self, task: TaskId) -> Option<&VoltageSchedule> {
        self.task_voltages[task.index()].as_ref()
    }

    /// The dynamic-energy factor of `task` relative to nominal execution
    /// (`1.0` for unscaled tasks).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn energy_factor(&self, task: TaskId) -> f64 {
        self.task_energy_factors[task.index()]
    }

    /// All per-task energy factors, indexed by task id.
    pub fn energy_factors(&self) -> &[f64] {
        &self.task_energy_factors
    }

    /// Splits the result into the stretched schedule, the per-task
    /// voltage schedules and the per-task energy factors (both indexed by
    /// task id), moving them out without copies.
    pub fn into_parts(self) -> (Schedule, Vec<Option<VoltageSchedule>>, Vec<f64>) {
        (self.schedule, self.task_voltages, self.task_energy_factors)
    }

    /// Number of greedy extension steps performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total nominal and scaled dynamic task energy of the mode — the
    /// before/after view of the scaling pass.
    ///
    /// # Panics
    ///
    /// Panics if `system` is not the system this mode was scaled for.
    pub fn energy_summary(&self, system: &System) -> EnergySummary {
        let graph = system.omsm().mode(self.schedule.mode()).graph();
        let mut nominal = momsynth_model::units::Joules::ZERO;
        let mut scaled = momsynth_model::units::Joules::ZERO;
        for entry in self.schedule.tasks() {
            let e = system
                .tech()
                .impl_of(graph.task(entry.task).task_type(), entry.pe)
                .expect("scheduled task has an implementation")
                .energy();
            nominal += e;
            scaled += e * self.task_energy_factors[entry.task.index()];
        }
        EnergySummary { nominal, scaled }
    }
}

/// Before/after dynamic task energy of a scaled mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySummary {
    /// Energy at nominal voltage.
    pub nominal: momsynth_model::units::Joules,
    /// Energy after voltage scaling.
    pub scaled: momsynth_model::units::Joules,
}

impl EnergySummary {
    /// Fraction of the nominal energy saved, in `[0, 1)`.
    pub fn saving(&self) -> f64 {
        if self.nominal.value() <= 0.0 {
            return 0.0;
        }
        1.0 - self.scaled / self.nominal
    }
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
    /// The group's members, a range of the scratch's `members` buffer.
    Group(Range<usize>),
}

/// A scalable unit's rail. The discrete levels stay in the system and are
/// looked up through `pe` only when the extension is snapped.
#[derive(Debug, Clone, Copy)]
struct ScaleInfo {
    pe: PeId,
    model: VoltageModel,
    energy: Joules,
    max_stretch: f64,
}

impl ScaleInfo {
    fn cap<'s>(&self, system: &'s System) -> &'s DvsCapability {
        system.arch().pe(self.pe).dvs().expect("scalable units sit on DVS PEs")
    }

    /// Dynamic energy of the unit stretched from `nominal` to `dur`, at the
    /// continuous voltage.
    fn energy_at(&self, nominal: Seconds, dur: Seconds) -> f64 {
        self.energy.value() * self.model.energy_factor_for_stretch(dur / nominal)
    }
}

#[derive(Debug, Clone)]
struct Unit {
    payload: UnitPayload,
    deadline: Seconds,
    nominal: Seconds,
    dur: Seconds,
    scale: Option<ScaleInfo>,
}

/// A scalable unit's last priced extension by `delta`. It stays valid
/// while the unit's duration and the offered `delta` are unchanged, since
/// the gain is a function of those two alone.
#[derive(Debug, Clone, Copy)]
struct Gain {
    delta: Seconds,
    gain: f64,
    e_new: f64,
}

/// The unit constraint graph in compressed sparse row form, with a
/// topological order and each unit's place in it.
#[derive(Debug, Default)]
struct UnitGraph {
    succ_start: Vec<usize>,
    succ: Vec<usize>,
    pred_start: Vec<usize>,
    pred: Vec<usize>,
    topo: Vec<usize>,
    pos: Vec<usize>,
    indegree: Vec<usize>,
}

impl UnitGraph {
    /// Rebuilds the graph over `n` units from `edges`, which it sorts and
    /// deduplicates. Returns `false` when the edges form a cycle.
    fn rebuild(&mut self, n: usize, edges: &mut Vec<(usize, usize)>) -> bool {
        edges.sort_unstable();
        edges.dedup();
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        self.pred_start.clear();
        self.pred_start.resize(n + 1, 0);
        for &(a, b) in edges.iter() {
            self.succ_start[a + 1] += 1;
            self.pred_start[b + 1] += 1;
        }
        for i in 0..n {
            self.succ_start[i + 1] += self.succ_start[i];
            self.pred_start[i + 1] += self.pred_start[i];
        }
        // Edges are sorted by source, so they already list each unit's
        // successors in ascending order; a counting sort by target does
        // the same for predecessors.
        self.succ.clear();
        self.succ.extend(edges.iter().map(|&(_, b)| b));
        self.pred.clear();
        self.pred.resize(edges.len(), 0);
        let next = &mut self.indegree;
        next.clear();
        next.extend_from_slice(&self.pred_start[..n]);
        for &(a, b) in edges.iter() {
            self.pred[next[b]] = a;
            next[b] += 1;
        }

        // Kahn's algorithm; the queue is the order.
        self.indegree.clear();
        self.indegree.extend(self.pred_start.windows(2).map(|w| w[1] - w[0]));
        self.topo.clear();
        self.topo.extend((0..n).filter(|&u| self.indegree[u] == 0));
        let mut head = 0;
        while head < self.topo.len() {
            let u = self.topo[head];
            head += 1;
            for i in self.succ_start[u]..self.succ_start[u + 1] {
                let s = self.succ[i];
                self.indegree[s] -= 1;
                if self.indegree[s] == 0 {
                    self.topo.push(s);
                }
            }
        }
        if self.topo.len() != n {
            return false;
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, &u) in self.topo.iter().enumerate() {
            self.pos[u] = i;
        }
        true
    }

    fn succs(&self, u: usize) -> &[usize] {
        &self.succ[self.succ_start[u]..self.succ_start[u + 1]]
    }

    fn preds(&self, u: usize) -> &[usize] {
        &self.pred[self.pred_start[u]..self.pred_start[u + 1]]
    }

    fn earliest_start(&self, ef: &[Seconds], u: usize) -> Seconds {
        self.preds(u).iter().map(|&p| ef[p]).fold(Seconds::ZERO, Seconds::max)
    }

    fn latest_finish(&self, units: &[Unit], lf: &[Seconds], u: usize) -> Seconds {
        self.succs(u).iter().fold(units[u].deadline, |acc, &s| acc.min(lf[s] - units[s].dur))
    }

    /// Re-runs the forward recurrence (earliest start and finish) on the
    /// order from position `from` on.
    fn forward_from(&self, units: &[Unit], from: usize, es: &mut [Seconds], ef: &mut [Seconds]) {
        for &u in &self.topo[from..] {
            es[u] = self.earliest_start(ef, u);
            ef[u] = es[u] + units[u].dur;
        }
    }

    /// Re-runs the backward recurrence (latest finish) on the order before
    /// position `to`, last unit first.
    fn backward_before(&self, units: &[Unit], to: usize, lf: &mut [Seconds]) {
        for &u in self.topo[..to].iter().rev() {
            lf[u] = self.latest_finish(units, lf, u);
        }
    }

    /// Brings `es`/`ef`/`lf` up to date after `units[u].dur` grew. Only
    /// `u` and its descendants, which all come after it in the order, can
    /// finish later, and only its ancestors, which all come before it, can
    /// have to finish earlier. Re-running a recurrence on a unit whose
    /// inputs did not change reproduces its value, and the recurrences use
    /// exact `max`/`min` and the same `start + dur`, so the result equals a
    /// full recomputation bit for bit. Per-unit dirty flags would skip the
    /// unchanged units, but on synthesis schedules, where most activity is
    /// chained through one processor, nearly every unit changes and the
    /// flag tests cost more than they save.
    fn propagate(
        &self,
        units: &[Unit],
        u: usize,
        es: &mut [Seconds],
        ef: &mut [Seconds],
        lf: &mut [Seconds],
    ) {
        self.forward_from(units, self.pos[u], es, ef);
        self.backward_before(units, self.pos[u], lf);
    }
}

/// Reusable working memory for [`scale_mode_with`] and
/// [`scale_mode_owned`]: the scaling units and their group members, the
/// constraint edges and the graph built from them, the slack vectors
/// (`es`/`ef`/`lf`) the greedy loop keeps up to date incrementally, and
/// each unit's current energy and cached extension gain. Once the
/// buffers have grown to the largest mode seen, a call allocates only the
/// voltage schedules it fits and its result. Every buffer is refilled on
/// entry, so reuse can never leak state between calls.
#[derive(Debug, Default)]
pub struct DvsScratch {
    units: Vec<Unit>,
    members: Vec<GroupMember>,
    executions: Vec<Execution>,
    task_unit: Vec<usize>,
    comm_unit: Vec<Option<usize>>,
    edges: Vec<(usize, usize)>,
    graph: UnitGraph,
    scalable: Vec<usize>,
    es: Vec<Seconds>,
    ef: Vec<Seconds>,
    lf: Vec<Seconds>,
    e_now: Vec<f64>,
    gains: Vec<Option<Gain>>,
}

/// Applies PV-DVS to one mode's schedule.
///
/// Tasks on DVS-enabled software PEs are scaled individually; tasks on
/// DVS-enabled hardware PEs are scaled together through the virtual-task
/// transformation (unless `options.scale_hw` is off). Remote
/// communications and tasks on fixed-voltage PEs keep their nominal
/// timing. The scaler never violates task deadlines or the mode's
/// hyper-period; on a schedule that already misses deadlines it simply
/// finds no slack and returns nominal timing.
///
/// Allocates fresh working buffers per call; the synthesis hot loop uses
/// [`scale_mode_owned`] with a reusable [`DvsScratch`] instead.
pub fn scale_mode(system: &System, schedule: &Schedule, options: &DvsOptions) -> ScaledMode {
    scale_mode_with(system, schedule, options, &mut DvsScratch::default())
}

/// [`scale_mode`] with caller-provided scratch buffers; produces the
/// identical scaling.
pub fn scale_mode_with(
    system: &System,
    schedule: &Schedule,
    options: &DvsOptions,
    scratch: &mut DvsScratch,
) -> ScaledMode {
    scale_mode_owned(system, schedule.clone(), options, scratch)
}

/// [`scale_mode_with`] on an owned schedule, which is retimed in place
/// and returned inside the [`ScaledMode`]; produces the identical scaling
/// without copying the schedule.
pub fn scale_mode_owned(
    system: &System,
    mut schedule: Schedule,
    options: &DvsOptions,
    scratch: &mut DvsScratch,
) -> ScaledMode {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let period = graph.period();
    let n = graph.task_count();

    // ---- Units and the constraint graph. Virtual-task merging can, in
    // rare interleavings, create cycles; fall back to group-free scaling
    // then.
    let mut allow_groups = options.scale_hw;
    while !build_graph(system, &schedule, allow_groups, scratch) {
        assert!(allow_groups, "group-free unit graph must be acyclic");
        allow_groups = false;
    }
    let DvsScratch { units, members, graph: g, scalable, es, ef, lf, e_now, gains, .. } = scratch;
    let units = units.as_mut_slice();

    // ---- Greedy slack distribution ---------------------------------------
    scalable.clear();
    scalable.extend(
        (0..units.len()).filter(|&u| units[u].scale.is_some() && units[u].nominal.value() > 0.0),
    );
    e_now.clear();
    e_now.resize(units.len(), 0.0);
    for &u in scalable.iter() {
        let unit = &units[u];
        e_now[u] = unit.scale.expect("scalable").energy_at(unit.nominal, unit.dur);
    }
    gains.clear();
    gains.resize(units.len(), None);
    for slots in [&mut *es, &mut *ef, &mut *lf] {
        slots.clear();
        slots.resize(units.len(), Seconds::ZERO);
    }
    g.forward_from(units, 0, es, ef);
    g.backward_before(units, units.len(), lf);

    let quantum = period / options.quantum_divisor.max(1.0);
    let eps = period * 1e-9;
    let mut iterations = 0usize;
    while iterations < options.max_iterations {
        // Scan in unit order; the strict `>` keeps the first best unit.
        let mut best: Option<(usize, Seconds, f64)> = None;
        for &u in scalable.iter() {
            let unit = &units[u];
            let scale = unit.scale.expect("scalable");
            let slack = lf[u] - ef[u];
            let room = unit.nominal * scale.max_stretch - unit.dur;
            let delta = quantum.min(slack).min(room);
            if delta <= eps {
                continue;
            }
            let gain = match gains[u] {
                Some(cached) if cached.delta == delta => cached.gain,
                _ => {
                    let e_new = scale.energy_at(unit.nominal, unit.dur + delta);
                    let gain = (e_now[u] - e_new) / delta.value();
                    gains[u] = Some(Gain { delta, gain, e_new });
                    gain
                }
            };
            if gain > 0.0 && best.is_none_or(|(_, _, b)| gain > b) {
                best = Some((u, delta, gain));
            }
        }
        let Some((u, delta, _)) = best else { break };
        units[u].dur += delta;
        // The chosen extension priced exactly the new duration's energy.
        e_now[u] = gains[u].take().expect("the chosen unit was priced").e_new;
        g.propagate(units, u, es, ef, lf);
        iterations += 1;
    }

    // ---- Snap to discrete levels and retime the schedule -----------------
    let mut task_voltages: Vec<Option<VoltageSchedule>> = vec![None; n];
    let mut task_factors = vec![1.0f64; n];

    // First pass: apply snapped durations so the final forward pass uses
    // realised (discrete) times.
    for unit in units.iter_mut() {
        let Some(scale) = &unit.scale else { continue };
        if unit.dur.value() <= unit.nominal.value() * (1.0 + 1e-12) {
            unit.dur = unit.nominal;
            continue;
        }
        let vs = VoltageSchedule::fit(scale.cap(system), &scale.model, unit.nominal, unit.dur);
        unit.dur = vs.total_time();
    }
    g.forward_from(units, 0, es, ef);

    // The second `fit` snaps the already-snapped duration again; its
    // result can differ from the first pass's, and that is the result the
    // scaler has always reported.
    for (u, unit) in units.iter().enumerate() {
        match &unit.payload {
            UnitPayload::Task(t) => {
                let entry = schedule.task_mut(*t);
                entry.start = es[u];
                if let Some(scale) = &unit.scale {
                    let vs = VoltageSchedule::fit(
                        scale.cap(system),
                        &scale.model,
                        unit.nominal,
                        unit.dur,
                    );
                    entry.exec_time = vs.total_time();
                    task_factors[t.index()] = vs.energy_factor(&scale.model);
                    task_voltages[t.index()] = Some(vs);
                }
            }
            UnitPayload::Comm(c) => {
                schedule.comm_mut(*c).expect("comm unit exists only for remote comms").start =
                    es[u];
            }
            UnitPayload::Group(range) => {
                let scale = unit.scale.as_ref().expect("groups are always scalable");
                let k = if unit.nominal.value() > 0.0 { unit.dur / unit.nominal } else { 1.0 };
                for m in &members[range.clone()] {
                    let entry = schedule.task_mut(m.task);
                    entry.start = es[u] + m.rel_start * k;
                    let vs = VoltageSchedule::fit(
                        scale.cap(system),
                        &scale.model,
                        m.nominal,
                        m.nominal * k,
                    );
                    entry.exec_time = vs.total_time();
                    task_factors[m.task.index()] = vs.energy_factor(&scale.model);
                    task_voltages[m.task.index()] = Some(vs);
                }
            }
        }
    }

    ScaledMode { schedule, task_voltages, task_energy_factors: task_factors, iterations }
}

/// Fills `scratch` with the scaling units of `schedule` (merging DVS
/// hardware activity into virtual tasks when `allow_groups`) and the
/// constraint graph over them: precedence edges from the task graph,
/// through remote communications where they exist, plus resource-order
/// edges from the per-resource sequences. Returns `false` when the graph
/// has a cycle.
fn build_graph(
    system: &System,
    schedule: &Schedule,
    allow_groups: bool,
    scratch: &mut DvsScratch,
) -> bool {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let period = graph.period();
    let DvsScratch { units, members, executions, task_unit, comm_unit, edges, .. } = scratch;
    units.clear();
    members.clear();
    task_unit.clear();
    task_unit.resize(graph.task_count(), usize::MAX);
    comm_unit.clear();
    comm_unit.resize(graph.comm_count(), None);

    if allow_groups {
        for pe in system.arch().dvs_pes() {
            let info = system.arch().pe(pe);
            if !info.kind().is_hardware() {
                continue;
            }
            let cap = info.dvs().expect("dvs_pes yields DVS PEs");
            let model = VoltageModel::from_capability(cap);
            let max_stretch = model.max_stretch(cap.v_min());
            for_each_virtual_task(system, schedule, pe, executions, |group, start, end, energy| {
                let idx = units.len();
                let first = members.len();
                let mut deadline = period;
                for e in group {
                    deadline = deadline.min(graph.effective_deadline(e.task));
                    task_unit[e.task.index()] = idx;
                    let entry = schedule.task(e.task);
                    members.push(GroupMember {
                        task: e.task,
                        rel_start: entry.start - start,
                        nominal: entry.exec_time,
                    });
                }
                units.push(Unit {
                    payload: UnitPayload::Group(first..members.len()),
                    deadline,
                    nominal: end - start,
                    dur: end - start,
                    scale: Some(ScaleInfo { pe, model, energy, max_stretch }),
                });
            });
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
                    pe: entry.pe,
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

    edges.clear();
    for (c, edge) in graph.comms() {
        let su = task_unit[edge.src().index()];
        let du = task_unit[edge.dst().index()];
        match comm_unit[c.index()] {
            Some(cu) => {
                if su != cu {
                    edges.push((su, cu));
                }
                if cu != du {
                    edges.push((cu, du));
                }
            }
            None => {
                if su != du {
                    edges.push((su, du));
                }
            }
        }
    }
    for (_, acts) in schedule.sequences() {
        for pair in acts.windows(2) {
            let ua = activity_unit(pair[0], task_unit, comm_unit);
            let ub = activity_unit(pair[1], task_unit, comm_unit);
            if ua != ub {
                edges.push((ua, ub));
            }
        }
    }
    scratch.graph.rebuild(scratch.units.len(), &mut scratch.edges)
}

fn activity_unit(
    act: ActivityId,
    task_unit: &[usize],
    comm_unit: &[Option<usize>],
) -> usize {
    match act {
        ActivityId::Task(t) => task_unit[t.index()],
        ActivityId::Comm(c) => {
            comm_unit[c.index()].expect("sequences only contain scheduled remote comms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, PeId};
    use momsynth_model::units::{Cells, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };
    use momsynth_sched::{
        schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping,
    };

    fn dvs_cap() -> DvsCapability {
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        )
    }

    /// One DVS CPU, one fixed CPU, chain of three 10 ms tasks, 100 ms period.
    fn sw_system(dvs_on_cpu: bool) -> momsynth_model::System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let mut cpu = Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1));
        if dvs_on_cpu {
            cpu = cpu.with_dvs(dvs_cap());
        }
        let cpu = arch.add_pe(cpu);
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("chain", Seconds::from_millis(100.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        let c = g.add_task("c", tx);
        g.add_comm(a, b, 0.0).unwrap();
        g.add_comm(b, c, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap()
    }

    fn schedule_of(sys: &momsynth_model::System) -> Schedule {
        let mapping = SystemMapping::from_fn(sys, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(sys, &mapping);
        schedule_mode(sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default()).unwrap()
    }

    #[test]
    fn slack_is_converted_into_energy_savings() {
        let sys = sw_system(true);
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert!(scaled.iterations() > 0);
        // 30 ms of work in a 100 ms period: substantial savings expected.
        for t in 0..3 {
            let f = scaled.energy_factor(TaskId::new(t));
            assert!(f < 0.9, "task {t} factor {f}");
            assert!(f > 0.0);
            assert!(scaled.task_voltage(TaskId::new(t)).is_some());
        }
        // The stretched schedule still meets the period.
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
        // And actually uses most of it.
        assert!(scaled.schedule().makespan().as_millis() > 60.0);
    }

    #[test]
    fn reused_scratch_produces_identical_scaling() {
        let mut scratch = DvsScratch::default();
        // Alternate between a DVS and a non-DVS system so every scratch
        // buffer is refilled with different shapes; each result must
        // match a fresh-buffer run.
        for dvs in [true, false, true] {
            let sys = sw_system(dvs);
            let schedule = schedule_of(&sys);
            let reused =
                scale_mode_with(&sys, &schedule, &DvsOptions::default(), &mut scratch);
            let fresh = scale_mode(&sys, &schedule, &DvsOptions::default());
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn no_dvs_pe_means_no_scaling() {
        let sys = sw_system(false);
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.iterations(), 0);
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0, 1.0]);
        assert_eq!(scaled.schedule(), &schedule);
    }

    #[test]
    fn zero_slack_schedule_is_untouched() {
        // Period exactly equals the critical path: nothing to exploit.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch
            .add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(10.0));
        g.add_task("a", tx);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.energy_factor(TaskId::new(0)), 1.0);
        assert_eq!(
            scaled.schedule().task(TaskId::new(0)).exec_time,
            Seconds::from_millis(10.0)
        );
    }

    #[test]
    fn deadlines_are_respected_after_scaling() {
        // Chain with a tight mid-deadline: only downstream slack is usable.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch
            .add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let a = g.add_task_with_deadline("a", tx, Seconds::from_millis(12.0));
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::fine());
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
        // Task a could stretch by at most 20%; task b by far more.
        let fa = scaled.energy_factor(TaskId::new(0));
        let fb = scaled.energy_factor(TaskId::new(1));
        assert!(fa > fb, "a={fa} b={fb}");
        let a_exec = scaled.schedule().task(TaskId::new(0)).exec_time;
        assert!(a_exec.as_millis() <= 12.0 + 1e-6);
    }

    /// DVS-enabled ASIC with two parallel tasks: the rail scales both
    /// together through the virtual-task transformation.
    fn hw_system() -> momsynth_model::System {
        let mut tech = TechLibraryBuilder::new();
        let t0 = tech.add_type("A");
        let t1 = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(
            Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(dvs_cap()),
        );
        arch.add_cl(Cl::bus(
            "bus",
            vec![PeId::new(0), hw],
            Seconds::from_micros(1.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            t0,
            hw,
            Implementation::hardware(
                Seconds::from_millis(4.0),
                Watts::from_milli(10.0),
                Cells::new(100),
            ),
        );
        tech.set_impl(
            t1,
            hw,
            Implementation::hardware(
                Seconds::from_millis(6.0),
                Watts::from_milli(20.0),
                Cells::new(100),
            ),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(60.0));
        g.add_task("p", t0);
        g.add_task("q", t1);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap()
    }

    #[test]
    fn hw_rail_scales_parallel_tasks_together() {
        let sys = hw_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let schedule =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::fine());
        // Both members of the overlap group stretch by the same factor.
        let k0 = scaled.schedule().task(TaskId::new(0)).exec_time
            / schedule.task(TaskId::new(0)).exec_time;
        let k1 = scaled.schedule().task(TaskId::new(1)).exec_time
            / schedule.task(TaskId::new(1)).exec_time;
        assert!(k0 > 1.5);
        assert!((k0 - k1).abs() < 1e-6, "k0={k0} k1={k1}");
        assert!((scaled.energy_factor(TaskId::new(0))
            - scaled.energy_factor(TaskId::new(1)))
        .abs()
            < 1e-9);
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
    }

    #[test]
    fn scale_hw_off_leaves_hardware_nominal() {
        let sys = hw_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let schedule =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let opts = DvsOptions { scale_hw: false, ..DvsOptions::default() };
        let scaled = scale_mode(&sys, &schedule, &opts);
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0]);
    }

    #[test]
    fn energy_summary_reports_savings() {
        let sys = sw_system(true);
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::fine());
        let summary = scaled.energy_summary(&sys);
        // Three 1 mWs tasks nominally.
        assert!((summary.nominal.as_milli_joules() - 3.0).abs() < 1e-9);
        assert!(summary.scaled < summary.nominal);
        assert!(summary.saving() > 0.2);
        // Unscaled mode: zero saving.
        let sys2 = sw_system(false);
        let schedule2 = schedule_of(&sys2);
        let unscaled = scale_mode(&sys2, &schedule2, &DvsOptions::default());
        assert_eq!(unscaled.energy_summary(&sys2).saving(), 0.0);
    }

    #[test]
    fn energy_is_monotone_in_quantum_resolution() {
        // Finer quanta should never produce (meaningfully) worse energy.
        let sys = sw_system(true);
        let schedule = schedule_of(&sys);
        let coarse = scale_mode(
            &sys,
            &schedule,
            &DvsOptions { quantum_divisor: 10.0, ..DvsOptions::default() },
        );
        let fine = scale_mode(&sys, &schedule, &DvsOptions::fine());
        let total = |s: &ScaledMode| -> f64 { s.energy_factors().iter().sum() };
        assert!(total(&fine) <= total(&coarse) + 1e-6);
    }

    #[test]
    fn infeasible_schedule_gains_nothing_but_does_not_panic() {
        // Period shorter than the chain: negative slack everywhere.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch
            .add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(15.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0]);
    }
}
