//! `serve_closed`: an in-process job server with one worker, driven by
//! one client that keeps two quick jobs outstanding (closed loop: submit,
//! `wait_terminal`, `result`, submit the next).

use std::collections::{BTreeMap, VecDeque};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use momsynth_analyze::analyze_system;
use momsynth_check::StoredSolution;
use momsynth_core::{invariant_breach, SynthesisResult, Synthesizer};
use momsynth_gen::automotive::automotive_ecu;
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::suite::mul;
use momsynth_serve::{JobRecord, JobSpec, JobState, Server, ServerConfig};
use momsynth_telemetry::Event;
use serde_json::{json, Value};

use super::ga::{cache_layers, fitness_layers, per_call};
use super::{check_pin, derive, more_setups, repeated_setup, Generator, Metric, Outcome, RunArgs};
use crate::calib::{self, Phase};
use crate::pins::{bits, Signature};
use crate::provenance::{dir_bytes, filesystem_type};
use crate::stats::{geomean, mean, median, tail};
use crate::trace::Tracer;

/// Jobs the client keeps outstanding.
const OUTSTANDING: usize = 2;

/// Seeded variants of each job kind in the spec pool.
const VARIANTS: usize = 12;

/// Longest a job may take before it counts as not finished.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Tries at measuring a lone job's journal writes.
const ISOLATED_ATTEMPTS: usize = 10;

/// `(generator, dvs)` per job kind.
fn kinds() -> [(Generator, bool); 3] {
    [(smartphone, true), (|| mul(9), false), (automotive_ecu, false)]
}

/// Journal parent directory, inside the working directory.
const JOURNAL_PARENT: &str = ".bench_tmp";

/// A running server with its spec pool.
struct Prepared {
    /// Pool of job specs: kind `k`, variant `v` at `k * VARIANTS + v`.
    specs: Vec<JobSpec>,
    /// Analyzer lower bound p̄_LB per kind, in watts.
    lower_bounds: Vec<f64>,
    root: PathBuf,
    server: Option<Server>,
}

impl Prepared {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until the state is dropped")
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn setup(args: &RunArgs, tracer: &Tracer, index: usize) -> Prepared {
    let root = PathBuf::from(JOURNAL_PARENT).join(format!("serve-{}-{index}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut specs = Vec::new();
    let mut lower_bounds = Vec::new();
    for (k, (make, dvs)) in kinds().into_iter().enumerate() {
        for v in 0..VARIANTS {
            let mut spec = JobSpec::new(make());
            spec.seed = derive(args.seed, 100 + (k * VARIANTS + v) as u64);
            spec.quick = true;
            spec.dvs = dvs;
            spec.threads = 1;
            let text = serde_json::to_string(&spec).expect("specs serialise");
            specs.push(serde_json::from_str::<JobSpec>(&text).expect("a serialised spec parses"));
        }
        let system = &specs[k * VARIANTS].system;
        let analysis = tracer.span("analyze", || analyze_system(system));
        lower_bounds.push(analysis.power_lower_bound().value());
    }
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::new(root.clone()) })
        .unwrap_or_else(|e| panic!("cannot start the job server: {e}"));
    Prepared { specs, lower_bounds, root, server: Some(server) }
}

/// Pool index of the `j`-th job: each cycle of three jobs holds one job
/// of every kind in a seeded order; cycles alternate the variants.
fn job_spec_index(seed: u64, j: usize) -> usize {
    const ORDERS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let cycle = j / 3;
    let order = ORDERS[(derive(seed, 5000 + cycle as u64) % 6) as usize];
    order[j % 3] * VARIANTS + cycle % VARIANTS
}

/// One job's journey through the server.
struct JobRun {
    spec: usize,
    id: Result<String, String>,
    latency_s: Option<f64>,
    submitted_at_s: f64,
    done_at_s: f64,
    record: Option<JobRecord>,
    result: Option<Stored>,
}

/// Span totals of one job's trace file: `path → (nanos, spans)`.
fn job_spans(path: &std::path::Path) -> BTreeMap<String, (u64, u64)> {
    let mut spans = BTreeMap::new();
    for line in std::fs::read_to_string(path).unwrap_or_default().lines() {
        if let Ok(Event::Span(span)) = serde_json::from_str::<Event>(line) {
            let e = spans.entry(span.path).or_insert((0, 0));
            e.0 += span.nanos;
            e.1 += span.spans;
        }
    }
    spans
}

/// Identity of a file version: a durable write renames a fresh inode
/// into place, so inode and modification time change with every write.
fn version(path: &Path) -> Option<(u64, SystemTime)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.ino(), meta.modified().ok()?))
}

/// Journal writes of one job of `spec` run alone, read off the server's
/// journal-write histogram (so checkpoint writes, which the synthesis
/// core makes itself, are not among them).
///
/// The watchdog also rewrites `metrics/server.json` about once a second.
/// Each rewrite keeps the previous version as a `.bak` hard link, so a
/// window with at most one rewrite is told apart exactly and the rewrite
/// is subtracted; a window with more is run again.
fn isolated_writes(server: &Server, spec: &JobSpec) -> Result<u64, String> {
    let path = server.journal().server_metrics_path();
    let mut bak = path.clone().into_os_string();
    bak.push(".bak");
    let bak = PathBuf::from(bak);
    let writes = || {
        let sample = server.metrics_snapshot();
        sample.histogram_sample("momsynth_journal_write_seconds", &[]).map_or(0, |h| h.count)
    };
    // `server.json` and its `.bak`, read while no write completes.
    let reading = || loop {
        let count = writes();
        let versions = (version(&path), version(&bak));
        if writes() == count {
            return (versions, count);
        }
    };
    for _ in 0..ISOLATED_ATTEMPTS {
        let (before, writes_before) = reading();
        let id = server.submit(spec).map_err(|r| format!("rejected: {}", r.reason))?;
        let status =
            server.wait_terminal(&id, JOB_TIMEOUT).ok_or("did not reach a terminal state")?;
        if status.record.state != JobState::Verified {
            return Err(format!("ended {}", status.record.state));
        }
        let (after, writes_after) = reading();
        let rewrites = if after == before {
            0
        } else if after.1 == before.0 {
            1
        } else {
            continue;
        };
        return Ok(writes_after - writes_before - rewrites);
    }
    Err(format!("the server's own snapshot writes overlapped all {ISOLATED_ATTEMPTS} attempts"))
}

/// Runs `serve_closed`.
pub fn run(args: &RunArgs) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let mut index = 0;
    let mut make = || {
        index += 1;
        setup(args, &tracer, index)
    };
    let (mut setup_s, state) = repeated_setup(args.repeat_setup, &mut make);
    let server = state.server();

    // Closed loop.
    let start = Instant::now();
    let mut jobs: Vec<JobRun> = Vec::new();
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::new();
    let submit = |jobs: &mut Vec<JobRun>, outstanding: &mut VecDeque<(usize, Instant)>| {
        let j = jobs.len();
        let spec = job_spec_index(args.seed, j);
        let t0 = Instant::now();
        let submitted_at_s = start.elapsed().as_secs_f64();
        let id = server.submit(&state.specs[spec]).map_err(|r| format!("rejected: {}", r.reason));
        jobs.push(JobRun {
            spec,
            id,
            latency_s: None,
            submitted_at_s,
            done_at_s: 0.0,
            record: None,
            result: None,
        });
        outstanding.push_back((j, t0));
    };
    while outstanding.len() < OUTSTANDING {
        submit(&mut jobs, &mut outstanding);
    }
    while let Some((j, t0)) = outstanding.pop_front() {
        if let Ok(id) = jobs[j].id.clone() {
            if let Some(status) = server.wait_terminal(&id, JOB_TIMEOUT) {
                jobs[j].latency_s = Some(t0.elapsed().as_secs_f64());
                jobs[j].done_at_s = start.elapsed().as_secs_f64();
                let value = server.result(&id);
                jobs[j].result = value.map(|v| stored(&v, &state.specs[jobs[j].spec], &tracer));
                jobs[j].record = Some(status.record);
            }
        }
        if start.elapsed().as_secs_f64() < args.seconds {
            submit(&mut jobs, &mut outstanding);
            // The worker is busy with the queued jobs while the client
            // calibrates on the other core.
            calib::point(Phase::Ops);
        }
    }
    let window_s = jobs.iter().map(|j| j.done_at_s).fold(0.0, f64::max);
    more_setups(args.repeat_setup, &mut setup_s, &mut make);

    // Server-side observations, before the journal is removed.
    let snapshot = server.metrics_snapshot();
    let journal = server.journal().clone();
    let spans: Vec<BTreeMap<String, (u64, u64)>> = jobs
        .iter()
        .map(|j| j.id.as_ref().map(|id| job_spans(&journal.trace_path(id))).unwrap_or_default())
        .collect();
    let journal_bytes = dir_bytes(&state.root);
    let checkpoint_bytes = dir_bytes(&state.root.join("checkpoints"));
    let journal_fs = filesystem_type(&state.root);
    let isolated: Vec<Result<u64, String>> =
        (0..kinds().len()).map(|k| isolated_writes(server, &state.specs[k * VARIANTS])).collect();

    // Reference: every pool spec run directly, once.
    let direct: Vec<(f64, Result<SynthesisResult, String>)> = state
        .specs
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let r = Synthesizer::new(&spec.system, spec.config()).run().map_err(|e| e.to_string());
            (t.elapsed().as_secs_f64(), r)
        })
        .collect();

    let mut out = Outcome { setup_s, ..Outcome::default() };
    let mut sig = Signature::new();
    for (i, (spec, (_, r))) in state.specs.iter().zip(&direct).enumerate() {
        let label = format!("spec{i}.{}", spec.system.name());
        let problems = match r {
            Err(e) => vec![format!("direct synthesis failed: {e}")],
            Ok(r) => {
                sig.insert(format!("{label}.power_bits"), bits(r.best.power.average.as_milli()));
                sig.insert(format!("{label}.evaluations"), r.evaluations.to_string());
                tracer
                    .span("check", || invariant_breach(&spec.system, &r.best))
                    .map(|report| vec![format!("momsynth-check rejects the direct run: {report}")])
                    .unwrap_or_default()
            }
        };
        out.checks.op(&format!("direct {label}"), problems);
    }
    let mut writes = 0;
    for (k, w) in isolated.iter().enumerate() {
        let name = state.specs[k * VARIANTS].system.name();
        let problems = match w {
            Ok(w) => {
                sig.insert(format!("journal.writes.{name}"), w.to_string());
                writes += w;
                Vec::new()
            }
            Err(e) => vec![e.clone()],
        };
        out.checks.op(&format!("journal writes of a lone {name} job"), problems);
    }
    for (j, job) in jobs.iter().enumerate() {
        let spec = &state.specs[job.spec];
        let mut problems = Vec::new();
        match (&job.id, &job.record) {
            (Err(e), _) => problems.push(e.clone()),
            (Ok(_), None) => problems.push("did not reach a terminal state".into()),
            (Ok(_), Some(record)) if record.state != JobState::Verified => problems.push(format!(
                "ended {}: {}",
                record.state,
                record.error.clone().unwrap_or_default()
            )),
            (Ok(_), Some(_)) => match &job.result {
                None => problems.push("verified job has no result".into()),
                Some(value) => problems.extend(result_problems(value, &direct[job.spec].1)),
            },
        }
        out.checks.op(&format!("job {j} ({})", spec.system.name()), problems);
    }
    check_pin(args, &mut out.checks, &sig);
    out.signature = sig;

    let verified: Vec<(usize, &JobRun)> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.record.as_ref().is_some_and(|r| r.state == JobState::Verified))
        .collect();
    let latencies: Vec<f64> = jobs.iter().filter_map(|j| j.latency_s).collect();
    let completed = verified.len().max(1) as f64;
    out.op_s = latencies.clone();
    out.work = verified.len() as f64;
    out.work_s = window_s;
    let pool: Vec<(usize, &SynthesisResult)> = direct
        .iter()
        .enumerate()
        .filter_map(|(i, (_, r))| r.as_ref().ok().map(|r| (i, r)))
        .collect();
    out.bound_ratio = geomean(
        &pool
            .iter()
            .map(|(i, r)| r.best.power.average.value() / state.lower_bounds[i / VARIANTS])
            .collect::<Vec<_>>(),
    );
    out.power_mw =
        mean(&pool.iter().map(|(_, r)| r.best.power.average.as_milli()).collect::<Vec<_>>());
    // One lone job of each kind, so the count repeats whatever the
    // number of jobs the closed loop ran.
    out.counts = BTreeMap::from([("journal.writes".to_owned(), writes)]);
    let (pct, tail_s) = tail(&latencies);
    out.named = vec![
        Metric { name: "job_s_p50".into(), value: median(&latencies), unit: "s" },
        Metric { name: "job_s_tail".into(), value: tail_s, unit: "s" },
        Metric { name: "job_s_tail_percentile".into(), value: f64::from(pct), unit: "p" },
        Metric { name: "jobs_per_s".into(), value: out.work / window_s.max(1e-9), unit: "1/s" },
        Metric {
            name: "disk_mb_per_job".into(),
            value: journal_bytes as f64 / completed / 1_048_576.0,
            unit: "MB",
        },
        Metric { name: "jobs".into(), value: jobs.len() as f64, unit: "count" },
    ];
    out.config = json!({
        "workers": 1,
        "outstanding": OUTSTANDING,
        "job_preset": "quick",
        "job_threads": 1,
        "pool": state
            .specs
            .iter()
            .map(|s| json!({"system": s.system.name(), "dvs": s.dvs, "seed": s.seed}))
            .collect::<Vec<_>>(),
        "journal_fs": journal_fs,
    });

    if args.trace {
        let l = &mut out.layers;
        l.insert("analyze.s".into(), tracer.total("analyze").1 / out.setup_s.len() as f64);
        let hist = |name: &str| snapshot.histogram_sample(name, &[]).cloned();
        l.insert(
            "queue.wait_s_p50".into(),
            hist("momsynth_job_queue_wait_seconds").map_or(0.0, |h| h.quantile(0.5)),
        );
        l.insert(
            "queue.rejected".into(),
            snapshot.counter_value("momsynth_jobs_rejected_total", &[]).unwrap_or(0) as f64,
        );
        l.insert(
            "journal.writes".into(),
            hist("momsynth_journal_write_seconds").map_or(0.0, |h| h.count as f64) / completed,
        );
        l.insert(
            "journal.write_s".into(),
            hist("momsynth_journal_write_seconds").map_or(0.0, |h| h.sum) / completed,
        );
        l.insert(
            "journal.fsync_s".into(),
            hist("momsynth_journal_fsync_seconds").map_or(0.0, |h| h.sum) / completed,
        );
        l.insert("journal.bytes".into(), journal_bytes as f64 / completed);
        l.insert("checkpoint.bytes".into(), checkpoint_bytes as f64 / completed);
        let run_s: Vec<f64> = verified
            .iter()
            .filter_map(|(j, _)| spans[*j].get("run").map(|(ns, _)| *ns as f64 * 1e-9))
            .collect();
        l.insert("serve.run_s".into(), mean(&run_s));
        // A job's service time is what the client saw of it beyond its
        // predecessor: from the later of its submission and the previous
        // job's completion to its own completion.
        let mut service_s = 0.0;
        let mut direct_s = 0.0;
        for (j, job) in &verified {
            let previous_done = j.checked_sub(1).map_or(0.0, |p| jobs[p].done_at_s);
            service_s += job.done_at_s - job.submitted_at_s.max(previous_done);
            direct_s += direct[job.spec].0;
        }
        l.insert(
            "serve.overhead_ratio".into(),
            if direct_s > 0.0 { service_s / direct_s } else { 0.0 },
        );
        let span_sum = |path: &str| -> (f64, f64) {
            verified.iter().fold((0.0, 0.0), |(c, s), (j, _)| {
                let (ns, n) = spans[*j].get(path).copied().unwrap_or((0, 0));
                (c + n as f64 / completed, s + ns as f64 * 1e-9 / completed)
            })
        };
        let (fit_calls, fit_s) = span_sum("run;fitness_eval");
        fitness_layers(l, mean(&run_s), fit_calls, fit_s, 1);
        for (phase, prefix) in [
            ("core_allocation", "alloc"),
            ("list_scheduling", "sched"),
            ("voltage_scaling", "dvs"),
            ("power_pricing", "power"),
        ] {
            let (calls, s) = span_sum(&format!("run;fitness_eval;{phase}"));
            l.insert(format!("{prefix}.calls"), calls);
            l.insert(format!("{prefix}.s"), s);
        }
        let summary_sum = |f: &dyn Fn(&momsynth_telemetry::RunSummary) -> f64| {
            verified
                .iter()
                .filter_map(|(_, j)| j.record.as_ref()?.summary.as_ref().map(f))
                .sum::<f64>()
                / completed
        };
        l.insert("ga.generations".into(), summary_sum(&|s| s.generations as f64));
        l.insert("ga.evaluations".into(), summary_sum(&|s| s.evaluations as f64));
        l.insert("dvs.iterations".into(), summary_sum(&|s| s.counters.dvs_iterations as f64));
        per_call(l);
        cache_layers(
            l,
            summary_sum(&|s| s.counters.cache_hits as f64),
            summary_sum(&|s| s.counters.cache_misses as f64),
            summary_sum(&|s| s.counters.cache_evictions as f64),
        );
        let (calls, seconds) = tracer.total("check");
        l.insert("check.calls".into(), calls as f64 / completed);
        l.insert("check.s".into(), seconds / completed);
        // `trace.overhead_ratio` stays 0: every job carries the server's
        // own telemetry sinks, traced run or not.
    }
    drop(state);
    std::fs::remove_dir(JOURNAL_PARENT).ok();
    out
}

/// What the benchmark keeps of a stored result: it is re-proved by
/// `momsynth-check` as soon as it is fetched, so the run holds no result
/// documents and its memory does not grow with the number of jobs.
struct Stored {
    power_mw: f64,
    evaluations: Option<u64>,
    problems: Vec<String>,
}

fn stored(value: &Value, spec: &JobSpec, tracer: &Tracer) -> Stored {
    let problems = match StoredSolution::from_json(value) {
        Err(e) => vec![format!("result does not parse: {e}")],
        Ok(solution) => {
            let report = tracer.span("check", || solution.check(&spec.system));
            if report.is_clean() {
                Vec::new()
            } else {
                vec![format!("momsynth-check rejects the result: {report}")]
            }
        }
    };
    Stored {
        power_mw: value.get("average_power_mw").and_then(Value::as_f64).unwrap_or(f64::NAN),
        evaluations: value.get("evaluations").and_then(Value::as_u64),
        problems,
    }
}

/// Problems with a verified job's stored result: its re-proof, and any
/// difference from a direct run of the same spec.
fn result_problems(result: &Stored, direct: &Result<SynthesisResult, String>) -> Vec<String> {
    let mut problems = result.problems.clone();
    if let Ok(direct) = direct {
        let power = direct.best.power.average.as_milli();
        if bits(result.power_mw) != bits(power) {
            problems.push(format!(
                "power {} mW differs from a direct run's {power} mW",
                result.power_mw
            ));
        }
        if result.evaluations != Some(direct.evaluations as u64) {
            problems.push(format!(
                "{:?} evaluations, a direct run made {}",
                result.evaluations, direct.evaluations
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_holds_each_kind_once() {
        for seed in [0, 1, 99] {
            for cycle in 0..10 {
                let mut kinds: Vec<usize> =
                    (0..3).map(|p| job_spec_index(seed, cycle * 3 + p) / VARIANTS).collect();
                kinds.sort_unstable();
                assert_eq!(kinds, vec![0, 1, 2]);
            }
        }
    }

    #[test]
    fn job_order_depends_on_seed() {
        let order = |seed| (0..30).map(|j| job_spec_index(seed, j)).collect::<Vec<_>>();
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }
}
