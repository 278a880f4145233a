//! Criterion timing of the scheduling substrate: mobility analysis, list
//! scheduling and core-allocation derivation on a mid-size benchmark.
//! The `reused_scratch` and `shared_analysis` cases measure the paths the
//! evaluator takes; the others allocate per call.

use criterion::{criterion_group, criterion_main, Criterion};
use momsynth_core::{derive_allocation, AllocOptions};
use momsynth_gen::suite::mul;
use momsynth_model::ids::ModeId;
use momsynth_sched::{
    schedule_mode, schedule_mode_with, schedule_mode_with_analysis, CoreAllocation, ListScratch,
    Priority, SchedulerOptions, SystemMapping, TimingAnalysis,
};

fn scheduling(c: &mut Criterion) {
    let system = mul(3);
    // Spread tasks over their first two candidates for realistic traffic.
    let mut flip = false;
    let mapping = SystemMapping::from_fn(&system, |id| {
        let candidates = system.candidate_pes(id);
        flip = !flip;
        candidates[usize::from(flip && candidates.len() > 1)]
    });
    let alloc = CoreAllocation::minimal(&system, &mapping);
    let mode = ModeId::new(0);

    let mut group = c.benchmark_group("scheduling_mul3");
    group.bench_function("timing_analysis", |b| {
        b.iter(|| TimingAnalysis::analyze(&system, mode, &mapping))
    });
    group.bench_function("list_schedule_mobility", |b| {
        b.iter(|| {
            schedule_mode(&system, mode, &mapping, &alloc, SchedulerOptions::default()).unwrap()
        })
    });
    let mut scratch = ListScratch::default();
    group.bench_function("list_schedule_mobility_reused_scratch", |b| {
        b.iter(|| {
            schedule_mode_with(
                &system,
                mode,
                &mapping,
                &alloc,
                SchedulerOptions::default(),
                &mut scratch,
            )
            .unwrap()
        })
    });
    let analysis = TimingAnalysis::analyze(&system, mode, &mapping);
    group.bench_function("list_schedule_mobility_shared_analysis", |b| {
        b.iter(|| {
            schedule_mode_with_analysis(
                &system,
                &mapping,
                &alloc,
                &analysis,
                SchedulerOptions::default(),
                &mut scratch,
            )
            .unwrap()
        })
    });
    group.bench_function("list_schedule_fifo", |b| {
        b.iter(|| {
            schedule_mode(
                &system,
                mode,
                &mapping,
                &alloc,
                SchedulerOptions { priority: Priority::Fifo },
            )
            .unwrap()
        })
    });
    group.bench_function("derive_allocation", |b| {
        b.iter(|| derive_allocation(&system, &mapping, &AllocOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, scheduling);
criterion_main!(benches);
