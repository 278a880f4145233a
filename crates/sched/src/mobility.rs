//! ASAP/ALAP timing analysis and task mobility.
//!
//! Mobility — the difference between a task's as-late-as-possible and
//! as-soon-as-possible start times — drives two things in the paper's flow
//! (Fig. 4, lines 4–5): the priority order of the list scheduler and the
//! decision to replicate hardware cores for parallel tasks with low
//! mobility.
//!
//! Execution times are taken from the technology library for the mapped
//! PE; inter-PE communication delays are estimated optimistically with the
//! fastest link connecting the two PEs (the scheduler makes the final
//! choice).

use momsynth_model::ids::{ModeId, TaskId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::mapping::SystemMapping;

/// The ASAP/ALAP start times of every task in one mode.
///
/// [`TimingAnalysis::reanalyze`] recomputes an analysis in place, reusing
/// its buffers, so one instance per mode serves every evaluation of a
/// synthesis run without allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    mode: ModeId,
    exec: Vec<Seconds>,
    /// Optimistic transfer time of every comm (zero when local), indexed
    /// by comm id; computed once and read by both passes.
    comm_est: Vec<Seconds>,
    asap: Vec<Seconds>,
    alap: Vec<Seconds>,
}

impl TimingAnalysis {
    /// Analyses `mode` of `system` under `mapping`.
    ///
    /// Tasks mapped to PEs without an implementation of their type are
    /// given the fastest available execution time of the type so that
    /// analysis stays total; such mappings are rejected later by
    /// [`SystemMapping::validate`] and the scheduler.
    pub fn analyze(system: &System, mode: ModeId, mapping: &SystemMapping) -> Self {
        let mut analysis = Self {
            mode,
            exec: Vec::new(),
            comm_est: Vec::new(),
            asap: Vec::new(),
            alap: Vec::new(),
        };
        analysis.reanalyze(system, mode, mapping);
        analysis
    }

    /// Replaces this analysis with that of `mode` under `mapping`, reusing
    /// the buffers. The result equals [`TimingAnalysis::analyze`]'s.
    pub fn reanalyze(&mut self, system: &System, mode: ModeId, mapping: &SystemMapping) {
        let graph = system.omsm().mode(mode).graph();
        let n = graph.task_count();
        self.mode = mode;

        self.exec.clear();
        self.exec.extend(graph.tasks().map(|(task, t)| {
            let pe = mapping.pe_of(mode, task);
            system
                .tech()
                .impl_of(t.task_type(), pe)
                .map(|imp| imp.exec_time())
                .or_else(|| system.tech().fastest_exec_time(t.task_type()))
                .unwrap_or(Seconds::ZERO)
        }));

        self.comm_est.clear();
        self.comm_est.extend(graph.comms().map(|(_, edge)| {
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
        }));

        let (exec, comm_est) = (&self.exec, &self.comm_est);

        // Forward pass: earliest start ignoring resource contention.
        let asap = &mut self.asap;
        asap.clear();
        asap.resize(n, Seconds::ZERO);
        for &t in graph.topological_order() {
            let mut start = Seconds::ZERO;
            for &(comm, pred) in graph.predecessors(t) {
                let arrival = asap[pred.index()] + exec[pred.index()] + comm_est[comm.index()];
                start = start.max(arrival);
            }
            asap[t.index()] = start;
        }

        // Backward pass: latest finish meeting min(θ, φ) everywhere, kept
        // as the latest start. A successor's latest start is its latest
        // finish minus its execution time, already stored in `alap`.
        let alap = &mut self.alap;
        alap.clear();
        alap.resize(n, Seconds::ZERO);
        for &t in graph.topological_order().iter().rev() {
            let mut finish = graph.effective_deadline(t);
            for &(comm, succ) in graph.successors(t) {
                finish = finish.min(alap[succ.index()] - comm_est[comm.index()]);
            }
            alap[t.index()] = finish - exec[t.index()];
        }
    }

    /// Returns the analysed mode.
    pub fn mode(&self) -> ModeId {
        self.mode
    }

    /// Returns the execution time assumed for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn exec_time(&self, task: TaskId) -> Seconds {
        self.exec[task.index()]
    }

    /// Returns the earliest possible start of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn asap(&self, task: TaskId) -> Seconds {
        self.asap[task.index()]
    }

    /// Returns the latest deadline-feasible start of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn alap(&self, task: TaskId) -> Seconds {
        self.alap[task.index()]
    }

    /// Returns the mobility `ALAP − ASAP` of `task`. Negative mobility
    /// means no resource-unconstrained schedule can meet the deadlines
    /// under this mapping.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn mobility(&self, task: TaskId) -> Seconds {
        self.alap[task.index()] - self.asap[task.index()]
    }

    /// Returns all tasks sorted by ascending mobility (most urgent first),
    /// ties broken by ASAP time and then task id — the list-scheduler
    /// priority order.
    pub fn priority_order(&self) -> Vec<TaskId> {
        let mut order = Vec::new();
        self.fill_priority_order(&mut order);
        order
    }

    /// Writes [`TimingAnalysis::priority_order`] into `out`, reusing its
    /// capacity.
    pub(crate) fn fill_priority_order(&self, out: &mut Vec<TaskId>) {
        let (asap, alap) = (&self.asap, &self.alap);
        out.clear();
        out.extend((0..asap.len()).map(TaskId::new));
        out.sort_by(|&a, &b| {
            let mob = |t: TaskId| (alap[t.index()] - asap[t.index()]).value();
            mob(a)
                .total_cmp(&mob(b))
                .then(asap[a.index()].value().total_cmp(&asap[b.index()].value()))
                .then(a.index().cmp(&b.index()))
        });
    }

    /// Returns `true` if the ASAP windows of two tasks overlap — a
    /// necessary condition for them to execute in parallel.
    pub fn windows_overlap(&self, a: TaskId, b: TaskId) -> bool {
        let (sa, fa) = (self.asap(a), self.asap(a) + self.exec_time(a));
        let (sb, fb) = (self.asap(b), self.asap(b) + self.exec_time(b));
        sa < fb && sb < fa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::PeId;
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// Fork-join: a -> (l, r) -> s, all on one CPU (type X, 10 ms each),
    /// period 100 ms.
    fn fork_join_system(period_ms: f64) -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
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

        let mut g = TaskGraphBuilder::new("fj", Seconds::from_millis(period_ms));
        let a = g.add_task("a", tx);
        let l = g.add_task("l", tx);
        let r = g.add_task("r", tx);
        let s = g.add_task("s", tx);
        g.add_comm(a, l, 100.0).unwrap();
        g.add_comm(a, r, 100.0).unwrap();
        g.add_comm(l, s, 100.0).unwrap();
        g.add_comm(r, s, 100.0).unwrap();

        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("fj", 1.0, g.build().unwrap());
        System::new("fj", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn all_cpu_mapping(system: &System) -> SystemMapping {
        SystemMapping::from_fn(system, |_| PeId::new(0))
    }

    #[test]
    fn asap_follows_precedence_same_pe() {
        let sys = fork_join_system(100.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // All on one PE: comm estimates are zero.
        assert_eq!(ta.asap(TaskId::new(0)), Seconds::ZERO);
        assert_eq!(ta.asap(TaskId::new(1)), Seconds::from_millis(10.0));
        assert_eq!(ta.asap(TaskId::new(2)), Seconds::from_millis(10.0));
        assert_eq!(ta.asap(TaskId::new(3)), Seconds::from_millis(20.0));
    }

    #[test]
    fn alap_backs_off_from_period() {
        let sys = fork_join_system(100.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // Sink must start by 90 ms; its predecessors by 80 ms; source by 70 ms.
        assert!((ta.alap(TaskId::new(3)).as_millis() - 90.0).abs() < 1e-9);
        assert!((ta.alap(TaskId::new(1)).as_millis() - 80.0).abs() < 1e-9);
        assert!((ta.alap(TaskId::new(0)).as_millis() - 70.0).abs() < 1e-9);
        // All tasks share the same 70 ms mobility on the critical path.
        assert!((ta.mobility(TaskId::new(0)).as_millis() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn tight_period_gives_zero_mobility() {
        let sys = fork_join_system(30.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        for t in 0..4 {
            assert!(ta.mobility(TaskId::new(t)).value().abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_period_gives_negative_mobility() {
        let sys = fork_join_system(20.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        assert!(ta.mobility(TaskId::new(0)).value() < 0.0);
    }

    #[test]
    fn cross_pe_comm_is_estimated() {
        let sys = fork_join_system(100.0);
        // Map task l to hardware: comms a->l and l->s become remote
        // (100 units at 10 us/unit = 1 ms each); l runs in 1 ms.
        let mut mapping = all_cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        assert!((ta.asap(TaskId::new(1)).as_millis() - 11.0).abs() < 1e-9);
        // Sink waits for r (slower path through cpu): max(11+1+1, 10+10) = 20.
        assert!((ta.asap(TaskId::new(3)).as_millis() - 20.0).abs() < 1e-9);
        assert_eq!(ta.exec_time(TaskId::new(1)), Seconds::from_millis(1.0));
    }

    #[test]
    fn priority_order_puts_critical_tasks_first() {
        let sys = fork_join_system(100.0);
        let mut mapping = all_cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        let order = ta.priority_order();
        assert_eq!(order.len(), 4);
        // The HW-mapped branch l finishes quickly, so it has more slack
        // than the r branch; r must come before l in priority order.
        let pos = |t: usize| order.iter().position(|&x| x == TaskId::new(t)).unwrap();
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn deadline_tightens_alap() {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::ZERO),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        let a = g.add_task_with_deadline("a", tx, Seconds::from_millis(15.0));
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_fn(&sys, |_| cpu);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        // a must start by 5 ms to meet its own 15 ms deadline.
        assert!((ta.alap(TaskId::new(0)).as_millis() - 5.0).abs() < 1e-9);
        assert_eq!(ta.asap(TaskId::new(0)), Seconds::ZERO);
        assert!((ta.mobility(TaskId::new(0)).as_millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_priority_order_matches_the_allocating_path() {
        let sys = fork_join_system(100.0);
        let mut reused = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // Reanalyse the same instance under different mappings: stale
        // buffer contents must not leak into later analyses.
        for hw_task in [1usize, 2] {
            let mut mapping = all_cpu_mapping(&sys);
            mapping.set(ModeId::new(0), TaskId::new(hw_task), PeId::new(1));
            reused.reanalyze(&sys, ModeId::new(0), &mapping);
            let fresh = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
            assert_eq!(reused.priority_order(), fresh.priority_order());
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn windows_overlap_detects_parallel_tasks() {
        let sys = fork_join_system(100.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // l and r have identical ASAP windows.
        assert!(ta.windows_overlap(TaskId::new(1), TaskId::new(2)));
        // a and s never overlap.
        assert!(!ta.windows_overlap(TaskId::new(0), TaskId::new(3)));
    }
}
