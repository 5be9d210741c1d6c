//! The service workload: an open-loop job stream into `vibe-serve` from
//! one generator thread, at a low and a high fixed rate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vibe_core::driver::DriverParams;
use vibe_core::{restore_driver, Driver, DynPackage, PackageSpec, Snapshot};
use vibe_mesh::{Mesh, MeshParams};
use vibe_rt::RtSession;
use vibe_serve::{JobConfig, JobView, Service, ServiceConfig};

use crate::checks::{self, JobOutcome};
use crate::inputs::{job_stream, JobKind, Rng, Submission};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::Spans;

/// Offered rates in jobs per second, pinned from the measured capacity of
/// a 2-core Xeon VM: 45 to 55 submissions per second (a quarter of them
/// cache reads) before the backlog grows, depending on the load the VM's
/// neighbours put on its host. `hi` stays below the low end of that, so
/// the stream measures latency, not a backlog.
pub const RATE_LO: f64 = 15.0;
pub const RATE_HI: f64 = 30.0;
const RUNNERS: usize = 2;
const JOB_CYCLES: u64 = 8;
/// Each job runs as two budget slices: run, checkpoint, restore, run.
const BUDGET_CYCLES: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fresh jobs re-run directly through `vibe_rt::run_distributed` per run.
const REFERENCE_SAMPLE: usize = 3;
/// Fresh jobs whose slice lifecycle a traced run replays directly.
const LIFECYCLE_SAMPLE: usize = 5;
const WAIT: Duration = Duration::from_secs(120);

fn config(refine_tol: f64, cfl: f64) -> JobConfig {
    JobConfig {
        physics: "burgers".into(),
        dim: 2,
        mesh_cells: 64,
        block_cells: 8,
        levels: 3,
        cycles: JOB_CYCLES,
        refine_tol,
        cfl,
        nranks: 1,
        threads: 1,
        ..JobConfig::default()
    }
}

fn service() -> Service {
    Service::start(ServiceConfig {
        runners: RUNNERS,
        budget_cycles: BUDGET_CYCLES,
        ..ServiceConfig::default()
    })
}

/// One submission as the generator saw it.
struct Sent {
    id: u64,
    due: Instant,
    returned: Instant,
    submit_ns: u64,
    /// Index of the original fresh submission, for a repeat.
    repeat_of: Option<usize>,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    submit_us: Vec<f64>,
    completed_in_window: usize,
    /// Zone-cycles of the fresh jobs that completed inside the window.
    zone_cycles_in_window: u64,
    seconds: f64,
    generator_late_ms_max: f64,
    backlog_max: u64,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.completed_in_window as f64 / self.seconds
    }
}

/// Everything one pass of the stream through a fresh service measured.
struct Pass {
    phases: Vec<Phase>,
    views: Vec<JobView>,
    /// Per submission: the index of the fresh submission it repeats.
    repeat_of: Vec<Option<usize>>,
    configs: Vec<JobConfig>,
    stats: vibe_serve::ServiceStats,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Zone-cycles a finished job executed, from its per-cycle metrics rows
/// (2D blocks of 8x8 cells).
fn job_zone_cycles(svc: &Service, id: u64) -> u64 {
    let jsonl = svc.metrics_jsonl(id).unwrap_or_default();
    jsonl
        .lines()
        .filter_map(|l| {
            let rest = l.split("\"nblocks\":").nth(1)?;
            rest.split([',', '}']).next()?.trim().parse::<u64>().ok()
        })
        .sum::<u64>()
        * 64
}

/// Drives the whole stream through `svc`. With `traced`, the generator
/// also samples the service's backlog after every submission.
fn pass(svc: &Service, stream: &[Vec<Submission>], phase_s: f64, traced: bool) -> Pass {
    let mut configs: Vec<JobConfig> = Vec::new();
    let mut sent_all: Vec<Sent> = Vec::new();
    let mut phases = Vec::new();
    for subs in stream {
        let mut phase = Phase {
            seconds: phase_s,
            ..Phase::default()
        };
        let first = sent_all.len();
        let start = Instant::now();
        for s in subs {
            let cfg = match s.job {
                JobKind::Fresh { refine_tol, cfl } => config(refine_tol, cfl),
                JobKind::Repeat { of } => configs[of].clone(),
            };
            configs.push(cfg.clone());
            let due = start + Duration::from_secs_f64(s.due_s);
            sleep_until(due);
            let call = Instant::now();
            let (id, _, _) = svc.submit(s.tenant, cfg).expect("valid job");
            let returned = Instant::now();
            phase.generator_late_ms_max = phase
                .generator_late_ms_max
                .max(call.saturating_duration_since(due).as_secs_f64() * 1e3);
            if traced {
                phase.backlog_max = phase.backlog_max.max(svc.stats().active);
            }
            sent_all.push(Sent {
                id,
                due,
                returned,
                submit_ns: (returned - call).as_nanos() as u64,
                repeat_of: match s.job {
                    JobKind::Repeat { of } => Some(of),
                    JobKind::Fresh { .. } => None,
                },
            });
        }
        let window_end = start + Duration::from_secs_f64(phase_s);
        for s in &sent_all[first..] {
            // A failed job is reported by the checks below.
            let Ok(v) = svc.wait_done(s.id, WAIT) else {
                continue;
            };
            let turnaround = v.turnaround.unwrap_or_default();
            let done_at = s.returned + turnaround;
            phase.latency_ms.push((done_at - s.due).as_secs_f64() * 1e3);
            phase.turnaround_ms.push(turnaround.as_secs_f64() * 1e3);
            phase.submit_us.push(s.submit_ns as f64 / 1e3);
            if done_at <= window_end {
                phase.completed_in_window += 1;
                if !v.cached {
                    phase.zone_cycles_in_window += job_zone_cycles(svc, s.id);
                }
            }
        }
        phases.push(phase);
    }
    let views: Vec<JobView> = sent_all
        .iter()
        .map(|s| svc.job(s.id).expect("submitted job"))
        .collect();
    Pass {
        phases,
        views,
        repeat_of: sent_all.iter().map(|s| s.repeat_of).collect(),
        configs,
        stats: svc.stats(),
    }
}

/// The service's per-rank replica, rebuilt from the public API: the
/// registry-resolved package and its own initial condition.
fn replica(cfg: &JobConfig) -> Driver<DynPackage> {
    let mut d = Driver::new(mesh(cfg), package(cfg), params(cfg));
    d.initialize_package();
    d
}

fn package(cfg: &JobConfig) -> DynPackage {
    vibe_physics::resolve(
        &PackageSpec::named(&cfg.physics)
            .with_num_scalars(cfg.num_scalars)
            .with_tols(cfg.refine_tol, cfg.refine_tol * 0.25),
    )
    .expect("registered physics")
}

fn mesh(cfg: &JobConfig) -> Mesh {
    let nghost = package(cfg).nghost();
    Mesh::new(
        MeshParams::builder()
            .dim(cfg.dim)
            .mesh_cells(cfg.mesh_cells)
            .block_cells(cfg.block_cells)
            .max_levels(cfg.levels as u32)
            .nghost(nghost)
            .deref_gap(cfg.deref_gap)
            .build()
            .expect("valid job mesh"),
    )
    .expect("constructible job mesh")
}

fn params(cfg: &JobConfig) -> DriverParams {
    DriverParams {
        nranks: cfg.nranks,
        host_threads: cfg.threads,
        cfl: cfg.cfl,
        ..DriverParams::default()
    }
}

/// Every job reached `Done`, every repeat was a cache hit with the
/// original's fingerprint, and a seeded sample of fresh jobs matches an
/// uninterrupted direct run.
fn check_pass(p: &Pass, seed: u64, out: &mut Outcome) {
    // Submission indices of the fresh jobs.
    let mut fresh = Vec::new();
    for (i, (v, rep)) in p.views.iter().zip(&p.repeat_of).enumerate() {
        let original = rep.map(|of| p.views[of].result.map_or(0, |r| r.fingerprint));
        if original.is_none() {
            fresh.push(i);
        }
        out.attempted += 1;
        let r = checks::job(&JobOutcome {
            done: v.state == vibe_serve::JobState::Done,
            cached: v.cached,
            fingerprint: v.result.map(|r| r.fingerprint),
            original,
        });
        if let Err(why) = r {
            out.failed += 1;
            out.notes.push(format!("check job {}: FAILED: {why}", v.id));
        }
    }
    let mut rng = Rng::new(seed ^ 0xc0ff_ee00);
    for _ in 0..REFERENCE_SAMPLE.min(fresh.len()) {
        let i = fresh[rng.below(fresh.len())];
        let (v, cfg) = (&p.views[i], p.configs[i].clone());
        let direct = vibe_rt::run_distributed(cfg.nranks, cfg.cycles, move || replica(&cfg));
        out.check(
            &format!("job {} matches an uninterrupted direct run", v.id),
            checks::same_fingerprint(
                direct.fingerprint,
                v.result.map_or(0, |r| r.fingerprint),
                "sliced service job",
            ),
        );
    }
}

/// The stream for a run of `seconds`: half at each rate.
fn stream(seed: u64, seconds: f64) -> Vec<Vec<Submission>> {
    let half = seconds / 2.0;
    job_stream(seed, &[(RATE_LO, half), (RATE_HI, half)])
}

/// Stops services that have been idle since their last job. A runner
/// checks the shutdown flag and then waits without the flag being set
/// under the state lock, so stopping a service whose runners have not yet
/// reached their wait can hang; idle runners are already waiting.
fn shutdown(services: impl IntoIterator<Item = Service>) {
    for s in services {
        s.shutdown();
    }
}

/// Set-up: `Service::start` and two warm-up jobs, distinct from every
/// stream problem, so lazy set-up is done before the stream starts.
/// `Service::start` alone only spawns the runner threads: tens of
/// microseconds that vary by half from run to run on a shared VM.
fn start_warm() -> Service {
    let svc = service();
    for tol in [0.3, 0.31] {
        let (id, _, _) = svc.submit("warmup", config(tol, 0.3)).expect("warm-up job");
        let _ = svc.wait_done(id, WAIT);
    }
    svc
}

/// Plain run: [`SETUP_REPS`] set-ups, then the stream at the low and the
/// high rate for `seconds / 2` each through the last service set up.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let services: Vec<Service> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let s = start_warm();
            setups.push(t.elapsed().as_secs_f64());
            s
        })
        .collect();
    let svc = services.last().expect("a started service");
    let stream = stream(seed, seconds);
    let p = pass(svc, &stream, seconds / 2.0, false);
    check_pass(&p, seed, out);
    shutdown(services);
    let (lo, hi) = (&p.phases[0], &p.phases[1]);
    out.notes.push(format!(
        "jobs: lo {} at {RATE_LO}/s, hi {} at {RATE_HI}/s; p50 lo {:.2} ms, hi {:.2} ms; completed hi {:.2}/s",
        lo.latency_ms.len(),
        hi.latency_ms.len(),
        median(&lo.latency_ms),
        median(&hi.latency_ms),
        hi.jobs_per_s()
    ));
    // Zone-cycles the service delivered per second of the stream.
    let wall: f64 = p.phases.iter().map(|ph| ph.seconds).sum();
    let zc: u64 = p.phases.iter().map(|ph| ph.zone_cycles_in_window).sum();
    out.metric("fom_zcps", zc as f64 / wall, "zc/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("latency_ms_p50", median(&hi.latency_ms), "ms");
}

/// Traced run: the plain stream, then the same stream through a fresh
/// service with backlog sampling on, then a direct replay of sample jobs'
/// slice lifecycle through the public API with spans around each call.
pub fn run_traced(seed: u64, seconds: f64, out: &mut Outcome) {
    let stream = stream(seed, seconds);
    let services = [start_warm(), start_warm()];
    let plain = pass(&services[0], &stream, seconds / 2.0, false);
    let p = pass(&services[1], &stream, seconds / 2.0, true);
    check_pass(&p, seed, out);
    let (lo, hi) = (&p.phases[0], &p.phases[1]);

    let spans = lifecycle_probe(&p, out);
    shutdown(services);
    out.metric(
        "core.checkpoint_ms",
        spans.median_ms("RtSession::checkpoint"),
        "ms",
    );
    out.metric("core.restore_ms", spans.median_ms("restore_driver"), "ms");
    out.metric(
        "rt.session_setup_ms",
        spans.median_ms("RtSession::new"),
        "ms",
    );

    let all_submit: Vec<f64> = p
        .phases
        .iter()
        .flat_map(|ph| ph.submit_us.clone())
        .collect();
    let all_turn: Vec<f64> = p
        .phases
        .iter()
        .flat_map(|ph| ph.turnaround_ms.clone())
        .collect();
    out.metric("serve.submit_us_p50", median(&all_submit), "us");
    out.metric("serve.turnaround_ms_p50", median(&all_turn), "ms");
    out.metric("serve.turnaround_ms_p90", quantile(&all_turn, 0.9), "ms");
    let lookups = p.stats.cache_hits + p.stats.cache_misses;
    out.metric(
        "serve.cache_hit_ratio",
        p.stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    // Useful work: each distinct problem's cycles once; work done: every
    // cycle a runner executed.
    let executed: u64 = p.views.iter().map(|v| v.cycles_executed).sum();
    let mut keys: Vec<u64> = p.configs.iter().map(JobConfig::cache_key).collect();
    keys.sort_unstable();
    keys.dedup();
    out.metric(
        "serve.cycles_executed_ratio",
        (keys.len() as u64 * JOB_CYCLES) as f64 / executed.max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.backlog_max",
        p.phases.iter().map(|ph| ph.backlog_max).max().unwrap_or(0) as f64,
        "count",
    );
    out.metric(
        "serve.generator_late_ms_max",
        p.phases
            .iter()
            .map(|ph| ph.generator_late_ms_max)
            .fold(0.0, f64::max),
        "ms",
    );
    out.metric("serve.job_ms_p50.lo", median(&lo.latency_ms), "ms");
    out.metric("serve.job_ms_p90.lo", quantile(&lo.latency_ms, 0.9), "ms");
    out.metric("serve.job_ms_p50.hi", median(&hi.latency_ms), "ms");
    out.metric("serve.job_ms_p90.hi", quantile(&hi.latency_ms, 0.9), "ms");
    out.metric("serve.jobs_per_s.hi", hi.jobs_per_s(), "1/s");
    out.metric("serve.job_samples.lo", lo.latency_ms.len() as f64, "count");
    out.metric("serve.job_samples.hi", hi.latency_ms.len() as f64, "count");
    out.metric(
        "prof.trace_overhead_frac",
        median(&hi.latency_ms) / median(&plain.phases[1].latency_ms).max(f64::MIN_POSITIVE) - 1.0,
        "ratio",
    );
}

/// Replays sample fresh jobs' slice lifecycle directly: session start,
/// first slice, checkpoint, restore, second slice, finish — each call in
/// a span — and checks each replay against the service's result.
fn lifecycle_probe(p: &Pass, out: &mut Outcome) -> Spans {
    let mut spans = Spans::default();
    let fresh = p
        .views
        .iter()
        .zip(&p.repeat_of)
        .zip(&p.configs)
        .filter(|((v, rep), _)| !v.cached && rep.is_none())
        .take(LIFECYCLE_SAMPLE);
    for ((v, _), cfg) in fresh {
        let cfg = cfg.clone();
        let c1 = cfg.clone();
        let mut s = spans.time("RtSession::new", || {
            let mut s = RtSession::new(cfg.nranks, move || replica(&c1));
            s.run(0).expect("session start");
            s
        });
        spans.time("RtSession::run", || {
            s.run(BUDGET_CYCLES).expect("first slice")
        });
        let snap: Snapshot = spans.time("RtSession::checkpoint", || {
            s.checkpoint().expect("slice checkpoint")
        });
        drop(s);
        let restored = spans.time("restore_driver", || {
            restore_driver(&snap, package(&cfg), params(&cfg)).expect("restore checkpoint")
        });
        drop(restored);
        let snap = Arc::new(snap);
        let c2 = cfg.clone();
        let mut s = RtSession::new(cfg.nranks, move || {
            restore_driver(&snap, package(&c2), params(&c2)).expect("restore checkpoint")
        });
        spans.time("RtSession::run", || {
            s.run(cfg.cycles - BUDGET_CYCLES).expect("second slice")
        });
        let run = spans.time("RtSession::finish", || s.finish().expect("session finish"));
        out.check(
            &format!("job {} replayed through checkpoint and restore", v.id),
            checks::same_fingerprint(
                v.result.map_or(0, |r| r.fingerprint),
                run.fingerprint,
                "direct sliced replay",
            ),
        );
    }
    spans
}
