//! Host-speed calibration.
//!
//! A shared host runs the same code up to 1.5 times slower for seconds to
//! minutes at a time: other tenants contend for the physical cores, caches
//! and memory. Stolen time stays near zero in such phases and the
//! process's CPU time grows with its wall time, so neither shows the
//! slowdown. What does show it is a fixed reference kernel, owned by the
//! benchmark and untouched by any change to the program, timed at points
//! spread over the run: between the timed operations and through the
//! set-up windows. A run reports its end-to-end times divided by how much
//! slower than [`NOMINAL_S`] the kernel ran, so they read as seconds on a
//! host where the kernel takes [`NOMINAL_S`]. The raw wall times stay in
//! the record.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::mean;

/// The kernel's mean wall time on the reference host, a 2-vCPU x86-64 VM.
pub const NOMINAL_S: f64 = 0.0012;

/// Kernel samples each thread takes at a calibration point.
const SAMPLES_PER_POINT: usize = 10;

/// Words in the kernel's table: 32 KiB, the order of a synthesis run's hot
/// working set.
const TABLE_WORDS: usize = 1 << 13;

/// Where a calibration point sits in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// In a set-up window: scales `setup_s`.
    Setup,
    /// Between the workload's operations: scales `op_s` and `work_per_s`.
    Ops,
}

static SAMPLES: Mutex<Vec<(Phase, f64)>> = Mutex::new(Vec::new());

static THREADS: AtomicUsize = AtomicUsize::new(1);

/// One pass of the reference kernel over `table`: sorting, a priority
/// queue, random reads and writes of the table and a floating-point
/// recurrence, the kinds of work list scheduling and voltage scaling do.
/// Returns a checksum.
fn kernel(table: &mut [u32]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut checksum = 0u64;
    let mut acc = 1.0f64;
    for _ in 0..24 {
        let mut keys: Vec<f64> = (0..512).map(|_| (next() >> 11) as f64).collect();
        keys.sort_by(f64::total_cmp);
        let mut heap: BinaryHeap<u64> = (0..256).map(|_| next() >> 40).collect();
        for _ in 0..256 {
            let top = heap.pop().unwrap_or(0);
            heap.push(top ^ (next() >> 44));
        }
        for _ in 0..2048 {
            let r = next();
            let j = (r as usize) & mask;
            let v = table[j];
            if v & 1 == 0 {
                table[j] = v.wrapping_add(r as u32);
            } else {
                table[(j * 7 + 3) & mask] ^= v;
            }
            acc = acc * 0.999_9 + f64::from(v & 0xff) * 1e-6;
        }
        checksum = checksum.wrapping_add(keys[256].to_bits() ^ heap.peek().copied().unwrap_or(0));
    }
    checksum ^ acc.to_bits()
}

/// Drops every sample and calibrates on `threads` threads at once from
/// now on, to match a workload that computes on that many.
pub fn reset(threads: usize) {
    SAMPLES.lock().expect("calibration samples poisoned").clear();
    THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// Times the kernel a few times on each calibration thread and keeps the
/// samples under `phase`.
pub fn point(phase: Phase) {
    let sample = || {
        let mut table = vec![1u32; TABLE_WORDS];
        (0..SAMPLES_PER_POINT)
            .map(|_| {
                let t = Instant::now();
                black_box(kernel(&mut table));
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    };
    let threads = THREADS.load(Ordering::Relaxed);
    let samples: Vec<f64> = if threads == 1 {
        sample()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(sample)).collect();
            handles.into_iter().flat_map(|h| h.join().expect("calibration thread")).collect()
        })
    };
    let mut all = SAMPLES.lock().expect("calibration samples poisoned");
    all.extend(samples.into_iter().map(|s| (phase, s)));
}

/// The kernel samples taken under `phase` so far in this run.
pub fn samples(phase: Phase) -> Vec<f64> {
    let all = SAMPLES.lock().expect("calibration samples poisoned");
    all.iter().filter(|(p, _)| *p == phase).map(|(_, s)| *s).collect()
}

/// How many times slower than nominal the kernel ran in `phase`. A phase
/// without samples takes the other phase's.
pub fn slowdown(phase: Phase) -> f64 {
    let s = samples(phase);
    if s.is_empty() {
        scale(samples(match phase {
            Phase::Setup => Phase::Ops,
            Phase::Ops => Phase::Setup,
        }))
    } else {
        scale(s)
    }
}

/// The mean of `samples`, less the slowest tenth (samples the scheduler
/// preempted), over [`NOMINAL_S`]; `1.0` without samples. A mean, not a
/// median: the host switches between a fast and a slow state, and the
/// median of such samples jumps from one state to the other where the mean
/// moves with the share of each.
fn scale(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.truncate(samples.len() - samples.len() / 10);
    if samples.is_empty() {
        1.0
    } else {
        mean(&samples) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_drops_the_slowest_tenth_and_averages_the_rest() {
        assert_eq!(scale(Vec::new()), 1.0);
        let mut samples = vec![NOMINAL_S; 5];
        samples.extend([2.0 * NOMINAL_S; 4]);
        samples.push(100.0 * NOMINAL_S);
        let expected = (5.0 + 8.0) / 9.0;
        assert!((scale(samples) - expected).abs() < 1e-12);
    }
}
