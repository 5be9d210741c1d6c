//! The AMR workloads: 3D Burgers with 4 scalars and seeded blobs, on one
//! process or on real rank shards.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vibe_burgers::{take_face_counts, BurgersPackage, BurgersParams};
use vibe_core::{fingerprint_slots, Driver, DriverParams};
use vibe_hwmodel::platform::evaluate;
use vibe_hwmodel::PlatformConfig;
use vibe_mesh::{Mesh, MeshParams};
use vibe_prof::{Attribution, CycleStats, MemSpace, ProfLevel, Recorder, StepFunction, TraceEvent};
use vibe_rt::{RtRun, RtSession};

use crate::checks;
use crate::inputs::{blob_centers, blob_ic, DEFAULT_SEED};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::trace::{fold_regions, Budget, RegionFold, Spans};

/// One AMR workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub mesh_cells: usize,
    pub block_cells: usize,
    pub levels: u32,
    /// Real rank shards (1 = the single-process driver).
    pub ranks: usize,
    /// Whether the default seed must reproduce the contract golden.
    pub golden: bool,
}

const NUM_SCALARS: usize = 4;
/// Set-up plus timed segments per run; `setup_s` is the median set-up.
const SEGMENTS: usize = 4;
/// Fewest timed cycles a segment runs, however long they take.
const MIN_TIMED_CYCLES: usize = 2;

type Replica = Driver<BurgersPackage>;

fn mesh_params(spec: &SimSpec) -> MeshParams {
    MeshParams::builder()
        .dim(3)
        .mesh_cells(spec.mesh_cells)
        .block_cells(spec.block_cells)
        .max_levels(spec.levels)
        .nghost(4)
        .build()
        .expect("valid workload mesh")
}

fn package() -> BurgersPackage {
    BurgersPackage::new(BurgersParams {
        num_scalars: NUM_SCALARS,
        refine_tol: 0.1,
        deref_tol: 0.025,
        ..BurgersParams::default()
    })
}

fn driver_params(ranks: usize, traced: bool) -> DriverParams {
    DriverParams {
        nranks: ranks,
        cfl: 0.3,
        host_threads: 1,
        prof_level: if traced {
            ProfLevel::Full
        } else {
            ProfLevel::Off
        },
        capture_spans: traced,
        // The archived event log grows every cycle; off, memory does not
        // depend on how many cycles a run fits in. The traced run keeps it
        // for the cross-rank wait attribution.
        capture_comm_events: traced,
        ..DriverParams::default()
    }
}

/// Per-rank set-up timings recorded inside the replica factory (the
/// factory runs on the rank threads).
type RankProbes = Arc<Mutex<Vec<(&'static str, u64)>>>;

fn timed_ns<R>(probes: &RankProbes, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    probes
        .lock()
        .unwrap()
        .push((name, t.elapsed().as_nanos() as u64));
    r
}

/// Builds and initializes one replica, timing each public call.
fn build_replica(spec: &SimSpec, seed: u64, traced: bool, probes: &RankProbes) -> Replica {
    let mesh =
        timed_ns(probes, "Mesh::new", || Mesh::new(mesh_params(spec))).expect("constructible mesh");
    let mut d = timed_ns(probes, "Driver::new", || {
        Driver::new(mesh, package(), driver_params(spec.ranks, traced))
    });
    timed_ns(probes, "Driver::initialize", || {
        d.initialize(blob_ic(blob_centers(seed)))
    });
    if traced {
        // The load balance of the initialized mesh, on a copy so the
        // replica is untouched.
        let mut m = d.mesh().clone();
        timed_ns(probes, "Mesh::load_balance", || m.load_balance(spec.ranks));
        probes
            .lock()
            .unwrap()
            .push(("level_boundaries", m.level_boundary_count() as u64));
    }
    d
}

/// The system under test: the single-process driver or a rank session.
enum Runner {
    Single(Box<Replica>),
    Ranks(RtSession<BurgersPackage>),
}

impl Runner {
    /// Advances one cycle; returns the block count after it.
    fn step(&mut self) -> usize {
        match self {
            Runner::Single(d) => d.step().nblocks,
            Runner::Ranks(s) => s.run(1).expect("rank session cycle")[0].nblocks,
        }
    }

    /// The state fingerprint at the current cycle boundary.
    fn fingerprint(&mut self) -> u64 {
        match self {
            Runner::Single(d) => fingerprint_slots(d.slots()),
            Runner::Ranks(s) => {
                checks::snapshot_fingerprint(&s.checkpoint().expect("rank session checkpoint"))
            }
        }
    }
}

/// Set-up: construction, initialization, and the first (warm-up) cycle,
/// which builds the exchange plan and buffer cache.
fn setup(
    spec: &SimSpec,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
    probes: &RankProbes,
) -> Runner {
    let mut runner = if spec.ranks == 1 {
        let d = build_replica(spec, seed, traced, probes);
        Runner::Single(Box::new(d))
    } else {
        let (spec2, p) = (*spec, Arc::clone(probes));
        spans.time("RtSession::new", || {
            let mut s = RtSession::new(spec.ranks, move || build_replica(&spec2, seed, traced, &p));
            // Zero cycles: returns once every rank has built its shard.
            s.run(0).expect("rank session start");
            Runner::Ranks(s)
        })
    };
    spans.time("warmup", || runner.step());
    runner
}

/// Timed cycles of one measurement.
#[derive(Debug, Default)]
struct Timed {
    wall_ns: Vec<u64>,
    cells: Vec<u64>,
    /// Fingerprint after [`checks::CHECK_CYCLE`], when asked for.
    check_fp: Option<u64>,
    /// Event-clock window of the timed cycles.
    start: Option<Instant>,
    end: Option<Instant>,
}

impl Timed {
    fn fom(&self) -> f64 {
        self.cells.iter().sum::<u64>() as f64 / (self.wall_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    fn extend(&mut self, o: Timed) {
        self.wall_ns.extend(o.wall_ns);
        self.cells.extend(o.cells);
        self.check_fp = self.check_fp.or(o.check_fp);
    }
}

/// When a timed phase stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// At the first cycle boundary after this many seconds, but not before
    /// [`MIN_TIMED_CYCLES`] cycles.
    Seconds(f64),
    /// After exactly this many cycles.
    Cycles(usize),
}

/// Runs timed cycles after the warm-up. With `fingerprint`, also runs up
/// to the check cycle and fingerprints there, outside the timing.
fn timed(runner: &mut Runner, spec: &SimSpec, until: Until, fingerprint: bool) -> Timed {
    let cells_per_block = (spec.block_cells as u64).pow(3);
    let mut t = Timed {
        start: Some(Instant::now()),
        ..Timed::default()
    };
    // The warm-up was cycle 1.
    let mut cycle = 1u64;
    let check_cycles = if fingerprint {
        (checks::CHECK_CYCLE - 1) as usize
    } else {
        0
    };
    let deadline = match until {
        Until::Seconds(s) => Some(Instant::now() + Duration::from_secs_f64(s)),
        Until::Cycles(_) => None,
    };
    loop {
        let n = t.wall_ns.len();
        let done = match until {
            Until::Cycles(c) => n >= c.max(check_cycles),
            Until::Seconds(_) => {
                n >= MIN_TIMED_CYCLES.max(check_cycles)
                    && deadline.is_some_and(|d| Instant::now() >= d)
            }
        };
        if done {
            break;
        }
        let start = Instant::now();
        let nblocks = runner.step();
        t.wall_ns.push(start.elapsed().as_nanos() as u64);
        t.cells.push(nblocks as u64 * cells_per_block);
        cycle += 1;
        if fingerprint && cycle == checks::CHECK_CYCLE {
            t.check_fp = Some(runner.fingerprint());
        }
    }
    t.end = Some(Instant::now());
    t
}

/// The single-process fingerprint after the check cycle, for the rank
/// equality check.
fn reference_fingerprint(spec: &SimSpec, seed: u64) -> u64 {
    let single = SimSpec { ranks: 1, ..*spec };
    let mut d = build_replica(&single, seed, false, &RankProbes::default());
    d.run_cycles(checks::CHECK_CYCLE);
    fingerprint_slots(d.slots())
}

fn check_fingerprints(out: &mut Outcome, spec: &SimSpec, seed: u64, fp: Option<u64>) {
    let Some(fp) = fp else {
        out.check("check-cycle fingerprint", Err("never reached".into()));
        return;
    };
    if spec.golden && seed == DEFAULT_SEED {
        out.check("golden d7a226efd9726631", checks::golden(fp));
    }
    if spec.ranks > 1 {
        let reference = reference_fingerprint(spec, seed);
        out.check(
            "rank shards match the single process",
            checks::same_fingerprint(reference, fp, &format!("{} ranks", spec.ranks)),
        );
    }
}

/// Plain run: [`SEGMENTS`] times a set-up and `seconds / SEGMENTS` of
/// timed cycles, then the checks.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, out: &mut Outcome) {
    let probes = RankProbes::default();
    let mut spans = Spans::default();
    let mut setups = Vec::new();
    let mut t = Timed::default();
    let mut peak_mb = 0.0;
    let mut warm_history: Option<Vec<(u64, Vec<f64>)>> = None;
    for seg in 0..SEGMENTS {
        let start = Instant::now();
        let mut runner = setup(spec, seed, false, &mut spans, &probes);
        setups.push(start.elapsed().as_secs_f64());
        if let Runner::Single(d) = &runner {
            let h = d.history().to_vec();
            if let Some(prev) = &warm_history {
                out.check(
                    "set-up is deterministic",
                    if *prev == h {
                        Ok(())
                    } else {
                        Err("history after the warm-up differs between set-ups".into())
                    },
                );
            }
            warm_history = Some(h);
        }
        let until = Until::Seconds(seconds / SEGMENTS as f64);
        t.extend(timed(&mut runner, spec, until, seg == 0));
        if let Runner::Single(d) = &runner {
            out.check("scalar mass conserved", checks::conserved(d.history(), 0));
        }
        if seg == 0 {
            // One set-up and run, as a user would see it. Later segments
            // repeat the measurement on an allocator that already holds
            // the freed state of earlier ones, and their extra resident
            // memory depends on how many cycles each segment fitted in.
            peak_mb = peak_rss_mb();
        }
    }
    check_fingerprints(out, spec, seed, t.check_fp);
    let cycle_ms: Vec<f64> = t.wall_ns.iter().map(|&n| n as f64 / 1e6).collect();
    out.notes.push(format!(
        "timed {} cycles ({:.0?} ms), blocks {}..{}, set-ups {:.3?} s",
        t.wall_ns.len(),
        cycle_ms,
        t.cells.iter().min().unwrap_or(&0) / (spec.block_cells as u64).pow(3),
        t.cells.iter().max().unwrap_or(&0) / (spec.block_cells as u64).pow(3),
        setups
    ));
    out.metric("fom_zcps", t.fom(), "zc/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_mb, "MB");
    out.metric("latency_ms_p50", median(&cycle_ms), "ms");
}

/// Sums `f` over the recorder's cycles after the warm-up, per cycle.
fn per_cycle(cycles: &[CycleStats], f: impl Fn(&CycleStats) -> u64) -> f64 {
    let timed: Vec<&CycleStats> = cycles.iter().filter(|c| c.cycle >= 1).collect();
    timed.iter().map(|c| f(c)).sum::<u64>() as f64 / timed.len().max(1) as f64
}

fn max_over_mean(v: &[u64]) -> f64 {
    let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    v.iter().copied().max().unwrap_or(0) as f64 / mean.max(f64::MIN_POSITIVE)
}

fn event_window(epoch: Instant, t: &Timed) -> (u64, u64) {
    let ns =
        |i: Option<Instant>| i.map_or(0, |i| i.saturating_duration_since(epoch).as_nanos() as u64);
    (ns(t.start), ns(t.end))
}

/// What the program recorded about a traced run.
struct Records {
    recorder: Recorder,
    /// Per rank: region events and the event-clock window of the timed
    /// cycles.
    traces: Vec<(Vec<TraceEvent>, u64, u64)>,
    rank_wall_ns: Vec<u64>,
    rank_blocks: Vec<u64>,
    attribution: Option<Attribution>,
    field_bytes: f64,
    history: Vec<(u64, Vec<f64>)>,
}

/// Takes the program's records out of a traced runner (finishing a rank
/// session).
fn records(runner: Runner, traced: &Timed) -> Records {
    match runner {
        Runner::Single(d) => {
            let (events, _) = d.recorder().wall().trace_events();
            let epoch = d.recorder().wall().epoch().expect("profiling on");
            let (lo, hi) = event_window(epoch, traced);
            Records {
                traces: vec![(events, lo, hi)],
                rank_wall_ns: vec![traced.wall_ns.iter().sum()],
                rank_blocks: vec![d.mesh().num_blocks() as u64],
                attribution: None,
                field_bytes: d.total_field_bytes() as f64,
                history: d.history().to_vec(),
                recorder: d.into_recorder(),
            }
        }
        Runner::Ranks(s) => {
            let run: RtRun = s.finish().expect("rank session finish");
            // Rank traces are rebased onto the process-wide span epoch.
            let (lo, hi) = event_window(vibe_prof::span_epoch(), traced);
            Records {
                traces: run
                    .rank_traces
                    .into_iter()
                    .map(|(_, evs)| (evs, lo, hi))
                    .collect(),
                rank_wall_ns: run.rank_wall_ns,
                rank_blocks: run.rank_blocks.iter().map(|&b| b as u64).collect(),
                attribution: run.attribution,
                field_bytes: run.recorder.mem_current(MemSpace::Kokkos) as f64,
                history: run.history,
                recorder: run.recorder,
            }
        }
    }
}

/// Traced run: the plain measurement for `seconds / 2`, then the same
/// cycles again with the program's full region profiling and span capture
/// on. Reports every per-layer metric and prints the reconciled budget.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: f64, out: &mut Outcome) {
    let probes = RankProbes::default();
    let mut plain_spans = Spans::default();
    let mut runner = setup(spec, seed, false, &mut plain_spans, &probes);
    let plain = timed(&mut runner, spec, Until::Seconds(seconds / 2.0), false);
    drop(runner);

    let probes = RankProbes::default();
    let mut spans = Spans::default();
    let mut runner = setup(spec, seed, true, &mut spans, &probes);
    // Discard the set-up's flux faces.
    take_face_counts();
    let traced = timed(&mut runner, spec, Until::Cycles(plain.wall_ns.len()), true);
    let (lanes, tails) = take_face_counts();
    let n = traced.wall_ns.len() as u64;

    let rec = records(runner, &traced);
    out.check("scalar mass conserved", checks::conserved(&rec.history, 0));
    check_fingerprints(out, spec, seed, traced.check_fp);

    let mut fold = RegionFold::default();
    for (events, lo, hi) in &rec.traces {
        fold.absorb(&fold_regions(events, *lo, *hi));
    }
    let nranks = rec.traces.len().max(1) as u64;
    let cycle_wall: u64 = traced.wall_ns.iter().sum();
    let modeled: BTreeMap<StepFunction, f64> = evaluate(
        &rec.recorder,
        &PlatformConfig::cpu_only(spec.ranks, spec.block_cells),
    )
    .per_function
    .iter()
    .map(|f| (f.func, f.total()))
    .collect();
    let budget = Budget {
        cycles: n * nranks,
        wall_ns: cycle_wall * nranks,
        fold,
        modeled_s: modeled,
    };
    out.notes.push(format!(
        "per-layer budget of {n} timed cycles ({nranks} rank(s); ms per cycle per rank):\n{}",
        budget.render()
    ));

    let cyc = rec.recorder.cycles();
    // Inclusive ms of a region per cycle per rank.
    let incl_ms = |name: &str| budget.per_cycle_ms(budget.fold.inclusive_ns(name));
    let cycle_ms: Vec<f64> = traced.wall_ns.iter().map(|&v| v as f64 / 1e6).collect();
    let plain_ns: u64 = plain.wall_ns.iter().sum();
    out.metric("core.cycle_ms_p50", median(&cycle_ms), "ms");
    out.metric("core.warmup_cycle_ms", spans.total_ms("warmup"), "ms");
    let probe_ms = |name: &str| -> f64 {
        let v: Vec<f64> = probes
            .lock()
            .unwrap()
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect();
        // Rank shards build their replicas concurrently: the slowest rank
        // is the set-up cost.
        v.iter().copied().fold(0.0, f64::max)
    };
    out.metric("core.init_ms", probe_ms("Driver::initialize"), "ms");
    out.metric(
        "core.alloc_ms",
        probe_ms("Mesh::new") + probe_ms("Driver::new"),
        "ms",
    );
    out.metric(
        "core.cycle_self_ms",
        budget.per_cycle_ms(budget.fold.self_of("Cycle")),
        "ms",
    );
    out.metric("core.update_ms", incl_ms("RK2Update"), "ms");
    let serial = |f: fn(&vibe_prof::recorder::SerialTotals) -> u64| {
        per_cycle(cyc, |c| c.serial.values().map(f).sum())
    };
    out.metric("core.block_loops", serial(|s| s.block_loop), "count");
    out.metric("core.string_lookups", serial(|s| s.string_lookups), "count");
    out.metric("core.allocations", serial(|s| s.allocations), "count");

    let faces = lanes + tails;
    let flux_ns = budget.fold.inclusive_ns("CalculateFluxes");
    out.metric("burgers.flux_ms", incl_ms("CalculateFluxes"), "ms");
    out.metric(
        "burgers.ns_per_face",
        flux_ns as f64 / faces.max(1) as f64,
        "ns",
    );
    out.metric("burgers.faces", faces as f64 / n.max(1) as f64, "count");
    out.metric(
        "burgers.vector_share",
        lanes as f64 / faces.max(1) as f64,
        "ratio",
    );
    let kernel = |f: fn(&vibe_prof::KernelTotals) -> u64| {
        per_cycle(cyc, |c| {
            c.kernels
                .iter()
                .filter(|((func, _), _)| *func == StepFunction::CalculateFluxes)
                .map(|(_, k)| f(k))
                .sum()
        })
    };
    out.metric("burgers.flops", kernel(|k| k.flops), "flop");
    out.metric("burgers.bytes", kernel(|k| k.bytes), "B");

    out.metric("field.ghost_fill_ms", incl_ms("GhostExchange"), "ms");
    out.metric(
        "field.ghost_fill_frac",
        budget.fold.inclusive_ns("GhostExchange") as f64 / budget.wall_ns.max(1) as f64,
        "ratio",
    );
    out.metric("field.fluxcorr_ms", incl_ms("FluxCorrection"), "ms");
    out.metric(
        "field.cells_communicated",
        per_cycle(cyc, CycleStats::cells_communicated),
        "count",
    );
    out.metric("field.host_copy_bytes", serial(|s| s.host_copy_bytes), "B");
    out.metric("field.bytes_mb", rec.field_bytes / 1e6, "MB");

    out.metric(
        "mesh.regrid_ms",
        incl_ms("Refinement::Tag")
            + incl_ms("UpdateMeshBlockTree")
            + incl_ms("RedistributeAndRefineMeshBlocks"),
        "ms",
    );
    out.metric("mesh.load_balance_ms", probe_ms("Mesh::load_balance"), "ms");
    out.metric(
        "mesh.blocks",
        (traced.cells.last().copied().unwrap_or(0) / (spec.block_cells as u64).pow(3)) as f64,
        "count",
    );
    // Level boundaries of the initialized mesh.
    out.metric(
        "mesh.level_boundaries",
        probes
            .lock()
            .unwrap()
            .iter()
            .find(|(n, _)| *n == "level_boundaries")
            .map_or(0.0, |(_, c)| *c as f64),
        "count",
    );
    out.metric("mesh.tree_ops", serial(|s| s.tree_ops), "count");

    let comm =
        |f: fn(&vibe_prof::CommTotals) -> u64| per_cycle(cyc, |c| c.comm.values().map(f).sum());
    out.metric(
        "comm.local_messages",
        comm(|c| c.p2p_local_messages),
        "count",
    );
    out.metric(
        "comm.remote_messages",
        comm(|c| c.p2p_remote_messages),
        "count",
    );
    out.metric("comm.remote_bytes", comm(|c| c.p2p_remote_bytes), "B");
    out.metric(
        "comm.collectives",
        comm(|c| c.collectives.values().map(|(n, _)| n).sum()),
        "count",
    );
    // Wait-state buckets over the whole session (warm-up included), per
    // cycle, from the slowest rank.
    let session_cycles = n + 1;
    let bucket = |f: fn(&vibe_prof::WaitBuckets) -> u64| {
        rec.attribution.as_ref().map_or(0.0, |a| {
            a.per_rank.iter().map(f).max().unwrap_or(0) as f64 / 1e6 / session_cycles as f64
        })
    };
    out.metric(
        "comm.pack_serialization_ms",
        bucket(|b| b.pack_serialization_ns),
        "ms",
    );
    out.metric("comm.late_sender_ms", bucket(|b| b.late_sender_ns), "ms");
    out.metric(
        "comm.collective_imbalance_ms",
        bucket(|b| b.collective_imbalance_ns),
        "ms",
    );

    out.metric(
        "rt.session_setup_ms",
        spans.total_ms("RtSession::new"),
        "ms",
    );
    out.metric(
        "rt.rank_wall_imbalance",
        max_over_mean(&rec.rank_wall_ns),
        "ratio",
    );
    out.metric(
        "rt.block_imbalance",
        max_over_mean(&rec.rank_blocks),
        "ratio",
    );
    out.metric(
        "budget.residual_ms",
        budget.residual_ns() as f64 / 1e6 / budget.cycles.max(1) as f64,
        "ms",
    );
    out.metric(
        "prof.trace_overhead_frac",
        cycle_wall as f64 / plain_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    out.notes.push(format!(
        "traced {n} cycles: plain {:.3} s, traced {:.3} s; plain FOM {:.4e} zc/s",
        plain_ns as f64 / 1e9,
        cycle_wall as f64 / 1e9,
        plain.fom()
    ));
}
