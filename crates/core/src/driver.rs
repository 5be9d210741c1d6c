//! The cycle engine: Parthenon's timestep loop, executed as a
//! dependency-driven task graph per cycle (see [`cycle_task_graph`]), over
//! the blocks of a contiguous range of virtual ranks.
//!
//! # One engine, any decomposition
//!
//! A [`Driver`] owns a contiguous range of virtual ranks and therefore —
//! load balancing assigns every rank a contiguous Morton run — a contiguous
//! gid run of dense block slots. The mesh itself (the block *tree*) is
//! replicated, as in Parthenon. Every task iterates the packs of its owned
//! ranks, posts receives for the boundaries whose receiver it owns, sends
//! the boundaries whose sender it owns with the virtual ranks of both ends
//! as `src`/`dst`, and joins the collectives of the AMR tail.
//!
//! * [`Driver::new`] owns every rank, `0..nranks`, and talks to itself over
//!   the in-process [`SharedTransport`](vibe_comm::SharedTransport): rank
//!   structure only decides whether a transfer is recorded as a local copy
//!   or a remote message.
//! * [`Driver::into_rank`] keeps one rank's slots and swaps in a wire
//!   [`Transport`]; `vibe-rt` runs one such engine per OS thread.
//!
//! A rank engine is born from a **full-replica initialization**: every rank
//! builds the same `Driver`, applies the same initial condition, and lets
//! the deterministic init sequence adapt the mesh — a bitwise-identical
//! mesh, block list, and timestep on every rank without any startup
//! communication (how a distributed AMR code replays a deterministic
//! problem generator instead of scattering from rank 0). Block data crosses
//! the transport only when a regrid moves a block out of the owned range.
//!
//! # Determinism
//!
//! The global solution fingerprint is bitwise identical for any
//! decomposition `(nranks, host_threads)` and for any split of the ranks
//! into engines, because:
//!
//! 1. **The executor's ready sweep is deterministic.** Tasks complete in
//!    insertion order once their dependencies resolve, so every engine
//!    issues its collectives in the same program order; the
//!    [`CollectiveHub`](vibe_comm::CollectiveHub) panics if ranks ever
//!    rendezvous under different labels.
//! 2. **Reductions are partition-independent.** The timestep AllReduce is a
//!    gather-then-fold (`f64::min`, exact in any order), and history rows
//!    are gathered with their gids and folded in global gid order.
//! 3. **The flag merge is order-free.** Refinement flags reconcile into a
//!    `BTreeMap` keyed by logical location, so the regrid decision never
//!    depends on gather order; the tree surgery and the derefinement gate
//!    replay identically on every engine.
//! 4. **Per-block work does not see the partition.** Ghost buffers, flux
//!    corrections, and migrated blocks carry exact copies of field data, and
//!    every block-local kernel produces the same bits whichever pack it
//!    runs in.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

use vibe_comm::{BoundaryKey, BufferCache, CacheConfig, Communicator, SendMeta, Transport};
use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::{apply_face_bc, BcKind, BlockData, PackStrategy, Side, VarId};
use vibe_mesh::refinement::RegridDecision;
use vibe_mesh::{
    enforce_proper_nesting, AmrFlag, CostModel, DerefGate, LogicalLocation, Mesh, RegridSource,
};
use vibe_prof::{MemSpace, ProfLevel, Recorder, RegionKey, SerialWork, StepFunction};

use crate::amr::{prolongate_to_child, restrict_to_parent};
use crate::block::{BlockInfo, BlockSlot};
use crate::boundary::{
    exchange_ghosts_with_plan, flux_corr_apply, flux_corr_poll, flux_corr_send,
    ghost_pack_and_send, ghost_poll, ghost_set_bounds, ExchangeConfig, ExchangePlan, FluxCorrState,
    GhostExchangeState, Ownership,
};
use crate::package::{FluxPhase, Package};
use crate::snapshot::Snapshot;
use crate::tasks::{TaskId, TaskKind, TaskList, TaskNode, TaskStatus};
use crate::update::{flux_divergence_update_costed, flux_divergence_update_with_ids};

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverParams {
    /// Virtual MPI ranks the mesh is decomposed over.
    pub nranks: usize,
    /// CFL safety factor for the timestep.
    pub cfl: f64,
    /// Variable-pack lookup strategy (string-keyed vs integer-cached —
    /// the §VIII-A ablation).
    pub pack_strategy: PackStrategy,
    /// Buffer-cache bookkeeping configuration.
    pub cache_config: CacheConfig,
    /// Cycles between history (e.g. total mass) reductions.
    pub history_every: u64,
    /// Restrict fine data before sending in ghost exchanges.
    pub restrict_on_send: bool,
    /// Per-block workload cost estimator for load balancing.
    pub cost_model: CostModel,
    /// Probe attempts a remote message needs before it is delivered
    /// (MPI progress-engine realism; 0 = instant).
    pub remote_delivery_polls: u32,
    /// Boundary condition at non-periodic physical domain faces.
    pub boundary_condition: BcKind,
    /// Host OS threads for per-block parallel stages (the CPU analogue of
    /// packed device launches, served by the persistent `vibe-exec` worker
    /// pool); 1 = the exact inline serial path.
    pub host_threads: usize,
    /// Measured-time (wall-clock) instrumentation level. `Off` (the
    /// default) pays no overhead; `Coarse`/`Full` wrap every driver stage
    /// in hierarchical region timers and sample pool utilization. The
    /// level never affects simulation results.
    pub prof_level: ProfLevel,
    /// Archive drained communication events for [`Driver::comm_events`]
    /// consumers (the timeline simulator). When `false` the per-cycle drain
    /// drops them, so long runs hold no event memory at all. Either way the
    /// communicator's *resident* log is emptied every cycle.
    pub capture_comm_events: bool,
    /// Emit a causal [`vibe_prof::TaskSpan`] per executed task (plus the
    /// wait probes that feed `vibe_prof::attribute_run`). Observational
    /// only: the solution is bitwise identical with capture on or off.
    pub capture_spans: bool,
    /// Feed *measured* per-block wall times (flux + RK update) into
    /// `Mesh::set_block_cost` before each cycle's load balance, instead of
    /// the modeled [`CostModel`] estimate. Changes only block *ownership*
    /// (never the numerics), so the solution fingerprint is unchanged.
    pub measured_costs: bool,
}

impl Default for DriverParams {
    fn default() -> Self {
        Self {
            nranks: 1,
            cfl: 0.4,
            pack_strategy: PackStrategy::StringKeyed,
            cache_config: CacheConfig::default(),
            history_every: 1,
            restrict_on_send: true,
            cost_model: CostModel::Uniform,
            remote_delivery_polls: 1,
            boundary_condition: BcKind::Outflow,
            host_threads: 1,
            prof_level: ProfLevel::Off,
            capture_comm_events: true,
            capture_spans: false,
            measured_costs: false,
        }
    }
}

/// Measured wall-clock breakdown of one cycle, all zeros when profiling is
/// off (so summaries stay comparable across runs that only differ in
/// instrumentation level being off).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleTiming {
    /// Inclusive wall time of the whole cycle (ns).
    pub wall_ns: u64,
    /// CalculateFluxes wall time (ns, both RK stages).
    pub flux_ns: u64,
    /// Ghost-exchange wall time (ns, all exchanges in the cycle).
    pub comm_ns: u64,
    /// RK2 weighted-sum + flux-divergence update wall time (ns).
    pub update_ns: u64,
    /// Tagging, tree update, regridding, and load balancing wall time (ns).
    pub amr_ns: u64,
    /// EstimateTimeStep wall time (ns).
    pub dt_ns: u64,
    /// Summed busy time of all pool participants (ns).
    pub pool_busy_ns: u64,
    /// Available pool thread-time (wall × participants, summed; ns).
    pub pool_thread_time_ns: u64,
    /// Pool load-imbalance factor (max/mean worker busy time; 0 when
    /// profiling is off, 1.0 is perfect balance).
    pub load_imbalance: f64,
    /// Wall time inside [`TaskKind::Compute`] task actions (ns).
    pub compute_task_ns: u64,
    /// Subset of `compute_task_ns` spent while comm traffic was
    /// outstanding — the measured comm/compute overlap.
    pub overlapped_compute_ns: u64,
}

/// Summary of one completed cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSummary {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// Simulation time after the cycle.
    pub time: f64,
    /// Timestep used.
    pub dt: f64,
    /// Blocks after regridding.
    pub nblocks: usize,
    /// Blocks refined this cycle.
    pub refined: usize,
    /// Parent regions derefined this cycle.
    pub derefined: usize,
    /// Measured per-stage wall times and pool utilization (all zeros when
    /// `DriverParams::prof_level` is `Off`).
    pub timing: CycleTiming,
}

/// Task names of one RK stage, indexed `[stage][slot]` in graph order:
/// PackSend, InteriorFlux, WaitUnpack, ExteriorFlux, FluxCorrSend,
/// FluxCorrApply, Update, FillDerived.
const STAGE_TASK_NAMES: [[&str; 8]; 2] = [
    [
        "Stage0::PackSend",
        "Stage0::InteriorFlux",
        "Stage0::WaitUnpack",
        "Stage0::ExteriorFlux",
        "Stage0::FluxCorrSend",
        "Stage0::FluxCorrApply",
        "Stage0::Update",
        "Stage0::FillDerived",
    ],
    [
        "Stage1::PackSend",
        "Stage1::InteriorFlux",
        "Stage1::WaitUnpack",
        "Stage1::ExteriorFlux",
        "Stage1::FluxCorrSend",
        "Stage1::FluxCorrApply",
        "Stage1::Update",
        "Stage1::FillDerived",
    ],
];

/// What one node of the cycle graph does; the engine's `run_task` dispatches
/// on it.
#[derive(Debug, Clone, Copy)]
enum CycleTask {
    SaveStage0,
    PackSend,
    Flux(FluxPhase),
    WaitUnpack,
    FluxCorrSend,
    FluxCorrApply,
    Update(usize),
    FillDerived,
    MassHistory,
    RefinementTag,
    TreeUpdate,
    Regrid,
    EstimateTimeStep,
}

/// A context the cycle task list runs against: the engine, or `()` for the
/// action-free export of [`cycle_task_graph`].
trait CycleContext {
    fn run_task(&mut self, name: &'static str, task: CycleTask) -> TaskStatus;
}

impl CycleContext for () {
    fn run_task(&mut self, _: &'static str, _: CycleTask) -> TaskStatus {
        unreachable!("the exported cycle graph is never executed")
    }
}

/// Builds the task list of one cycle — the only place its structure is
/// defined. Per RK stage, the ghost exchange is split so ghost-independent
/// interior flux work overlaps in-flight boundary traffic:
///
/// ```text
/// PackSend ──┬─> InteriorFlux ──┬─> ExteriorFlux ─> FluxCorrSend
///            └─> WaitUnpack ────┘       ─> FluxCorrApply ─> Update ─> FillDerived
/// ```
///
/// and the AMR tail (`MassHistory` ∥ `RefinementTag` → `TreeUpdate` →
/// `Regrid` → `EstimateTimeStep`) follows the second stage.
fn cycle_list<C: CycleContext>() -> TaskList<C> {
    use StepFunction::*;
    use TaskKind::{CommSend, CommWait, Compute, Serial};
    fn add<C: CycleContext>(
        list: &mut TaskList<C>,
        name: &'static str,
        kind: TaskKind,
        funcs: &[StepFunction],
        deps: &[TaskId],
        task: CycleTask,
    ) -> TaskId {
        list.add_task_meta(
            name,
            kind,
            funcs.iter().copied(),
            deps.iter().copied(),
            move |c: &mut C| c.run_task(name, task),
        )
    }
    let mut list = TaskList::new();
    let l = &mut list;
    let mut prev = add(l, "SaveStage0", Compute, &[], &[], CycleTask::SaveStage0);
    for (stage, names) in STAGE_TASK_NAMES.iter().enumerate() {
        let pack_send = add(
            l,
            names[0],
            CommSend,
            &[StartReceiveBoundBufs, SendBoundBufs, InitializeBufferCache],
            &[prev],
            CycleTask::PackSend,
        );
        let interior = add(
            l,
            names[1],
            Compute,
            &[CalculateFluxes],
            &[pack_send],
            CycleTask::Flux(FluxPhase::Interior),
        );
        let wait = add(
            l,
            names[2],
            CommWait,
            &[ReceiveBoundBufs, SetBounds],
            &[pack_send],
            CycleTask::WaitUnpack,
        );
        let exterior = add(
            l,
            names[3],
            Compute,
            &[CalculateFluxes],
            &[interior, wait],
            CycleTask::Flux(FluxPhase::Exterior),
        );
        let fc_send = add(
            l,
            names[4],
            CommSend,
            &[FluxCorrection],
            &[exterior],
            CycleTask::FluxCorrSend,
        );
        let fc_apply = add(
            l,
            names[5],
            CommWait,
            &[FluxCorrection],
            &[fc_send],
            CycleTask::FluxCorrApply,
        );
        let update = add(
            l,
            names[6],
            Compute,
            &[WeightedSumData, FluxDivergence],
            &[fc_apply],
            CycleTask::Update(stage),
        );
        prev = add(
            l,
            names[7],
            Compute,
            &[FillDerived],
            &[update],
            CycleTask::FillDerived,
        );
    }
    let history = add(
        l,
        "MassHistory",
        Compute,
        &[MassHistory],
        &[prev],
        CycleTask::MassHistory,
    );
    let tag = add(
        l,
        "RefinementTag",
        Compute,
        &[RefinementTag],
        &[prev],
        CycleTask::RefinementTag,
    );
    let tree = add(
        l,
        "TreeUpdate",
        Serial,
        &[UpdateMeshBlockTree],
        &[tag],
        CycleTask::TreeUpdate,
    );
    let regrid = add(
        l,
        "Regrid",
        Serial,
        &[RedistributeAndRefineMeshBlocks, RebuildBufferCache],
        &[tree, history],
        CycleTask::Regrid,
    );
    add(
        l,
        "EstimateTimeStep",
        Compute,
        &[EstimateTimeStep],
        &[regrid],
        CycleTask::EstimateTimeStep,
    );
    list
}

/// The dependency graph of one engine cycle — exactly the task list
/// [`Driver::step`] executes, exported action-free so consumers like the
/// timeline simulator replay the same schedule the engine ran.
pub fn cycle_task_graph() -> Vec<TaskNode> {
    cycle_list::<()>().graph()
}

/// Message-tag namespace for block-migration payloads (ghost boundaries
/// use the neighbor index, flux corrections 1000+; migration keys are
/// `BoundaryKey::new(old_gid, old_gid, MIGRATE_TAG)`).
const MIGRATE_TAG: u32 = 5000;

/// Everything a finished rank engine hands back to the `vibe-rt`
/// conductor.
#[derive(Debug)]
pub struct RankOutput {
    /// The engine's first owned rank (a rank engine owns exactly one).
    pub rank: usize,
    /// Owned block slots, ascending gid.
    pub slots: Vec<BlockSlot>,
    /// The engine's workload recorder.
    pub recorder: Recorder,
    /// The engine's archived communication events (rank-stamped, globally
    /// sequenced on the transport counter).
    pub events: Vec<vibe_comm::CommEvent>,
    /// History reductions as (cycle, values) — identical on every rank.
    pub history: Vec<(u64, Vec<f64>)>,
    /// Final simulation time.
    pub time: f64,
    /// Final timestep.
    pub dt: f64,
    /// Completed cycles.
    pub cycles: u64,
    /// Causal task spans (rank/cycle-stamped), empty unless
    /// [`DriverParams::capture_spans`] was on.
    pub spans: Vec<vibe_prof::TaskSpan>,
    /// Directly measured wait probes (collective blocking, migration
    /// stalls) accumulated over the run.
    pub probes: vibe_prof::WaitProbes,
}

/// Where [`Driver::initialize_impl`] gets its initial condition: the
/// package's own problem generator, or a caller-supplied fill.
enum IcSource<'a> {
    Package,
    Custom(&'a dyn Fn(&BlockInfo, &mut BlockData)),
}

/// The cycle engine: owns the replicated mesh, the block data of its
/// virtual ranks, communication state, and profiler, and advances the
/// simulation with the paper's timestep loop (`Step` →
/// `LoadBalancingAndAMR` → `EstimateTimeStep`), each cycle executed as the
/// dependency-driven task graph of [`cycle_task_graph`]. See the module
/// docs for ownership and the determinism argument.
#[derive(Debug)]
pub struct Driver<P: Package> {
    mesh: Mesh,
    /// Virtual ranks this engine runs: `0..nranks` unless built by
    /// [`Driver::into_rank`].
    ranks: Range<usize>,
    /// Slots of the owned ranks' blocks in ascending gid — a contiguous gid
    /// run.
    slots: Vec<BlockSlot>,
    package: P,
    params: DriverParams,
    comm: Communicator,
    cache: BufferCache,
    rec: Recorder,
    gate: DerefGate,
    time: f64,
    dt: f64,
    cycle: u64,
    history: Vec<(u64, Vec<f64>)>,
    /// Per-mesh-generation communication plan; `None` after a regrid that
    /// changed the mesh or the owned run, until the next
    /// [`Self::ensure_plan`].
    plan: Option<ExchangePlan>,
    /// Ghost-exchange traffic in flight between the PackSend and
    /// WaitUnpack tasks of the current stage.
    ghost_state: GhostExchangeState,
    /// Flux corrections in flight between FluxCorrSend and FluxCorrApply.
    fcorr_state: FluxCorrState,
    /// Timestep frozen at the start of the current cycle's task list.
    step_dt: f64,
    /// Refinement flags handed from the RefinementTag task to TreeUpdate.
    step_flags: BTreeMap<LogicalLocation, AmrFlag>,
    /// Regrid decision handed from TreeUpdate to Regrid.
    step_decision: Option<RegridDecision>,
    /// (refined, derefined) counts recorded by the Regrid task.
    step_counts: (usize, usize),
    /// Archived communication events, drained from the communicator at the
    /// end of every cycle so the mailbox's resident log stays O(one cycle)
    /// no matter how long the run is.
    comm_log: Vec<vibe_comm::CommEvent>,
    /// Causal task spans, rank/cycle-stamped, archived per cycle when
    /// [`DriverParams::capture_spans`] is on.
    span_log: Vec<vibe_prof::TaskSpan>,
    /// Accumulated wait probes (collective blocking, migration stalls).
    wait_probes: vibe_prof::WaitProbes,
    /// This cycle's measured per-gid cost ledger (ns), reset every cycle
    /// and consumed by the Regrid task when
    /// [`DriverParams::measured_costs`] is on; only owned gids are
    /// non-zero.
    block_cost_ns: Vec<u64>,
}

impl<P: Package> Driver<P> {
    /// Creates an engine that owns every virtual rank of `mesh` and runs
    /// them in this address space, with `package` physics.
    pub fn new(mesh: Mesh, package: P, params: DriverParams) -> Self {
        let mut mesh = mesh;
        mesh.load_balance(params.nranks);
        let mut comm = Communicator::new(params.nranks);
        comm.set_remote_delivery_delay(params.remote_delivery_polls);
        let mut driver = Self {
            ranks: 0..params.nranks,
            comm,
            cache: BufferCache::new(),
            rec: Recorder::with_prof_level(params.prof_level),
            gate: DerefGate::new(mesh.params().deref_gap()),
            time: 0.0,
            dt: 0.0,
            cycle: 0,
            history: Vec::new(),
            slots: Vec::new(),
            plan: None,
            ghost_state: GhostExchangeState::default(),
            fcorr_state: FluxCorrState::default(),
            step_dt: 0.0,
            step_flags: BTreeMap::new(),
            step_decision: None,
            step_counts: (0, 0),
            comm_log: Vec::new(),
            span_log: Vec::new(),
            wait_probes: vibe_prof::WaitProbes::default(),
            block_cost_ns: Vec::new(),
            mesh,
            package,
            params,
        };
        driver.slots = (0..driver.mesh.num_blocks())
            .map(|gid| driver.new_slot(gid))
            .collect();
        let bytes: usize = driver.slots.iter().map(BlockSlot::nbytes).sum();
        driver.rec.record_alloc(MemSpace::Kokkos, bytes as i64);
        driver
    }

    /// Turns a fully initialized replica into the engine of one virtual
    /// rank: keeps only the slots of `transport.rank()` and runs all
    /// communication over `transport` — the full-replica initialization
    /// described in the module docs. Initialization is not attributed to
    /// any cycle, so the recorder and event log start fresh; the clock,
    /// derefinement gate, and history carry over, so a replica restored
    /// from a checkpoint resumes with bitwise-identical regrid decisions.
    ///
    /// # Panics
    ///
    /// Panics if the replica was built with a different `nranks` than the
    /// transport, or if it was never initialized.
    pub fn into_rank(mut self, transport: Box<dyn Transport>) -> Self {
        let rank = transport.rank();
        assert_eq!(
            self.params.nranks,
            transport.nranks(),
            "replica rank count must match the transport"
        );
        assert!(self.dt > 0.0, "replica must be initialized first");
        let nblocks = self.slots.len();
        self.slots.retain(|s| s.info.rank == rank);
        if self.slots.len() != nblocks {
            // The owned run changed: rebuild the plan over the kept slots.
            self.plan = None;
        }
        self.ranks = rank..rank + 1;
        self.comm = Communicator::with_transport(self.params.nranks, transport);
        self.comm
            .set_remote_delivery_delay(self.params.remote_delivery_polls);
        self.rec = Recorder::with_prof_level(self.params.prof_level);
        let bytes: usize = self.slots.iter().map(BlockSlot::nbytes).sum();
        self.rec.record_alloc(MemSpace::Kokkos, bytes as i64);
        self.comm_log.clear();
        self.span_log.clear();
        self.wait_probes = vibe_prof::WaitProbes::default();
        self
    }

    fn new_slot(&self, gid: usize) -> BlockSlot {
        BlockSlot::new(BlockInfo::from_mesh(&self.mesh, gid), self.fresh_data())
    }

    /// A registered, zeroed block container for this problem.
    fn fresh_data(&self) -> BlockData {
        let mut data = BlockData::new(self.mesh.index_shape());
        data.set_pack_strategy(self.params.pack_strategy);
        self.package.register(&mut data);
        data
    }

    /// The (replicated) mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The physics package this driver evolves.
    pub fn package(&self) -> &P {
        &self.package
    }

    /// The owned block slots in gid order — every block, unless this is a
    /// rank engine built by [`Driver::into_rank`].
    pub fn slots(&self) -> &[BlockSlot] {
        &self.slots
    }

    /// Mutable owned block slots (initial conditions).
    pub fn slots_mut(&mut self) -> &mut [BlockSlot] {
        &mut self.slots
    }

    /// The workload recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The ordered communication event log (post/send/completion order with
    /// monotone sequence numbers) — the per-rank message streams the
    /// timeline simulator replays. Events are drained out of the
    /// communicator at the end of every cycle and archived here; empty when
    /// [`DriverParams::capture_comm_events`] is off.
    pub fn comm_events(&self) -> &[vibe_comm::CommEvent] {
        &self.comm_log
    }

    /// Number of events currently resident in the communicator's own log —
    /// bounded by one cycle's traffic because [`Driver::step`] drains it
    /// every cycle (the archive in [`Driver::comm_events`] is the consumer).
    pub fn resident_comm_events(&self) -> usize {
        self.comm.resident_events()
    }

    /// Drains the communicator's event log into the archive (or drops it
    /// when event capture is disabled).
    fn drain_comm_events(&mut self) {
        let events = self.comm.take_events();
        if self.params.capture_comm_events {
            self.comm_log.extend(events);
        }
    }

    /// Consumes the driver, returning the recorder.
    pub fn into_recorder(self) -> Recorder {
        self.rec
    }

    /// Archived causal task spans (stamped with the first owned rank and
    /// the cycle); empty unless [`DriverParams::capture_spans`] is on.
    pub fn task_spans(&self) -> &[vibe_prof::TaskSpan] {
        &self.span_log
    }

    /// Accumulated directly measured wait probes.
    pub fn wait_probes(&self) -> vibe_prof::WaitProbes {
        self.wait_probes
    }

    /// Last cycle's measured per-gid cost ledger (ns); empty unless
    /// [`DriverParams::measured_costs`] is on.
    pub fn block_costs_ns(&self) -> &[u64] {
        &self.block_cost_ns
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// History reductions recorded so far, as (cycle, values).
    pub fn history(&self) -> &[(u64, Vec<f64>)] {
        &self.history
    }

    /// Total live field bytes across the owned blocks.
    pub fn total_field_bytes(&self) -> usize {
        self.slots.iter().map(BlockSlot::nbytes).sum()
    }

    /// Blocks until every rank on the transport reaches this barrier (used
    /// by the `vibe-rt` conductor to bracket timed regions; immediate when
    /// this engine owns every rank).
    pub fn barrier(&mut self, label: &'static str) {
        self.comm.barrier(label);
    }

    /// Collectively assembles a full-run checkpoint at a cycle boundary:
    /// every engine contributes its owned blocks over an AllGather and
    /// returns the identical complete [`Snapshot`] — the replicated mesh
    /// tree and clock, the derefinement-gate and history continuation
    /// state, and the gathered per-block cell data. No ghost traffic is in
    /// flight between cycles, so the boundary state is exactly the
    /// restartable state. [`Driver::to_snapshot`] is the local case.
    ///
    /// Collective: every rank engine on the transport must call this at
    /// the same point of its cycle loop.
    ///
    /// # Panics
    ///
    /// Panics if a peer's payload is malformed or leaves a block uncovered
    /// (both indicate rank divergence, which the deterministic runtime
    /// rules out).
    pub fn checkpoint(&mut self) -> Snapshot {
        let payload = crate::snapshot::encode_rank_blocks(&self.slots);
        let parts = self
            .comm
            .all_gather_data(StepFunction::Other, payload, &mut self.rec);
        let nblocks = self.mesh.num_blocks();
        let mut block_vars = vec![Vec::new(); nblocks];
        for part in &parts {
            for (gid, vars) in crate::snapshot::decode_rank_blocks(part)
                .expect("malformed peer checkpoint payload")
            {
                assert!(gid < nblocks, "peer checkpoint refers to unknown gid {gid}");
                block_vars[gid] = vars;
            }
        }
        assert!(
            block_vars.iter().all(|v| !v.is_empty()),
            "checkpoint gather left a block uncovered"
        );
        self.assemble_snapshot(block_vars)
    }

    /// Finishes a rank engine, returning everything the `vibe-rt`
    /// conductor merges.
    pub fn finish(mut self) -> RankOutput {
        self.drain_comm_events();
        RankOutput {
            rank: self.ranks.start,
            slots: self.slots,
            recorder: self.rec,
            events: self.comm_log,
            history: self.history,
            time: self.time,
            dt: self.dt,
            cycles: self.cycle,
            spans: self.span_log,
            probes: self.wait_probes,
        }
    }

    /// Host execution context for per-block parallel stages.
    fn exec(&self) -> ExecCtx {
        ExecCtx::new(self.params.host_threads)
    }

    /// Whether other engines run some of the virtual ranks (so waits are
    /// on real peers, not on this engine's own progress).
    fn has_peers(&self) -> bool {
        self.ranks.len() < self.params.nranks
    }

    /// Gives peers the core while this engine waits on their messages.
    fn wait_for_peers(&self) {
        if self.has_peers() {
            std::thread::yield_now();
        }
    }

    /// Applies `ic` to every block and adapts the initial mesh to it:
    /// repeatedly tags, regrids, and re-applies `ic` until the hierarchy
    /// stabilizes (at most `max_levels` rounds), then performs the initial
    /// ghost exchange, derived fill, and timestep estimate.
    ///
    /// Work during initialization is not attributed to any cycle.
    pub fn initialize(&mut self, ic: impl Fn(&BlockInfo, &mut BlockData)) {
        self.initialize_impl(IcSource::Custom(&ic));
    }

    /// Like [`Self::initialize`], but fills the initial condition from the
    /// package's own problem generator
    /// ([`Package::initial_condition`](crate::Package::initial_condition))
    /// — the setup path for registry-resolved packages, where no caller
    /// knows the concrete physics.
    pub fn initialize_package(&mut self) {
        self.initialize_impl(IcSource::Package);
    }

    /// Applies the selected initial-condition source to every owned block.
    fn apply_ic(&mut self, ic: &IcSource<'_>) {
        // Disjoint field borrows: the package reads while the slots fill.
        let package = &self.package;
        match ic {
            IcSource::Package => {
                for slot in &mut self.slots {
                    package.initial_condition(&slot.info, &mut slot.data);
                }
            }
            IcSource::Custom(f) => {
                for slot in &mut self.slots {
                    f(&slot.info, &mut slot.data);
                }
            }
        }
    }

    fn initialize_impl(&mut self, ic: IcSource<'_>) {
        // Comm events during initialization carry a sentinel cycle so
        // consumers replaying per-cycle streams (vibe-sim) can drop them,
        // mirroring how recorded work here is not attributed to any cycle.
        self.comm.begin_cycle(u64::MAX);
        let wall = self.rec.wall().clone();
        if wall.enabled() {
            vibe_exec::stats_begin();
        }
        let init_guard = wall.region(RegionKey::Named("Initialize"));
        let rounds = self.mesh.params().max_levels();
        self.apply_ic(&ic);
        for _ in 0..rounds {
            self.exchange();
            let local = self.collect_tags();
            let flags = self.reconcile_flags(local);
            let decision = enforce_proper_nesting(self.mesh.tree(), &flags);
            if decision.is_empty() {
                break;
            }
            let old_ranks = self.block_ranks();
            let sources = self
                .mesh
                .regrid(&decision)
                .expect("valid regrid decision")
                .sources;
            self.redistribute(&old_ranks, &sources, true);
            self.apply_ic(&ic);
        }
        let old_ranks = self.block_ranks();
        self.mesh.load_balance(self.params.nranks);
        self.redistribute(&old_ranks, &unchanged_sources(old_ranks.len()), false);
        self.exchange();
        self.task_fill_derived();
        self.estimate_dt();
        drop(init_guard);
        if wall.enabled() {
            wall.record_pool_samples(&vibe_exec::stats_end());
        }
        self.drain_comm_events();
    }

    /// Advances `n` cycles, returning their summaries.
    pub fn run_cycles(&mut self, n: u64) -> Vec<CycleSummary> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Advances cycles until simulation time reaches `t_end` (bounded by
    /// `max_cycles` as a safety stop), returning the summaries.
    pub fn run_until(&mut self, t_end: f64, max_cycles: u64) -> Vec<CycleSummary> {
        let mut out = Vec::new();
        while self.time < t_end && (out.len() as u64) < max_cycles {
            out.push(self.step());
        }
        out
    }

    /// Advances one full cycle by executing the [`cycle_task_graph`]: RK2
    /// predictor + corrector with split ghost exchanges (interior flux work
    /// overlapping in-flight boundary traffic), then the AMR tail and the
    /// timestep estimate. The ready sweep is deterministic, so results are
    /// bitwise identical to a fully barriered stage sequence at any
    /// `host_threads`. CommWait tasks of a rank engine yield the OS thread
    /// while peer messages are in flight, so concurrent engines interleave
    /// without burning cores.
    pub fn step(&mut self) -> CycleSummary {
        assert!(self.dt > 0.0, "initialize() must run before step()");
        self.rec.begin_cycle(self.cycle);
        self.comm.begin_cycle(self.cycle);
        let wall = self.rec.wall().clone();
        if wall.enabled() {
            vibe_exec::stats_begin();
        }
        let cycle_guard = wall.region(RegionKey::Named("Cycle"));
        self.ensure_plan();
        if self.params.measured_costs {
            self.block_cost_ns.clear();
            self.block_cost_ns.resize(self.mesh.num_blocks(), 0);
        }
        let dt = self.dt;
        self.step_dt = dt;
        let mut list = cycle_list::<Self>();
        if self.has_peers() {
            // Real cross-thread waits can take arbitrarily many polls; the
            // default budget exists to catch single-process deadlocks.
            list.set_max_polls(usize::MAX / 2);
        }
        let capture = self.params.capture_spans;
        let mut cycle_spans: Vec<vibe_prof::TaskSpan> = Vec::new();
        let stats = list
            .execute_spanned(self, wall.enabled(), capture.then_some(&mut cycle_spans))
            .expect("cycle task graph completes");
        drop(cycle_guard);
        if wall.enabled() {
            wall.record_pool_samples(&vibe_exec::stats_end());
        }
        let blocked = self.comm.take_collective_block_ns();
        if capture {
            for s in &mut cycle_spans {
                s.rank = self.ranks.start;
                s.cycle = self.cycle;
            }
            self.span_log.append(&mut cycle_spans);
            self.wait_probes.collective_block_ns += blocked;
        }
        let (refined, derefined) = self.step_counts;
        let nblocks = self.mesh.num_blocks();
        let cell_updates = self.mesh.total_interior_cells();
        self.rec.end_cycle(
            nblocks as u64,
            refined as u64,
            derefined as u64,
            cell_updates,
        );
        self.time += dt;
        self.cycle += 1;
        self.drain_comm_events();
        let mut timing = self.last_cycle_timing();
        if wall.enabled() {
            timing.compute_task_ns = stats.compute_ns;
            timing.overlapped_compute_ns = stats.overlapped_compute_ns;
        }
        CycleSummary {
            cycle: self.cycle - 1,
            time: self.time,
            dt,
            nblocks,
            refined,
            derefined,
            timing,
        }
    }

    /// Copies cycle-start state of all two-stage variables (ids cached in
    /// the exchange plan).
    fn task_save_stage0(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region_hot(RegionKey::Named("SaveStage0"));
        let ids = self
            .plan
            .as_ref()
            .expect("plan built")
            .two_stage_ids
            .clone();
        let exec = self.exec();
        exec.for_each_block(&mut self.slots, |_, slot| {
            slot.save_stage0(&ids);
        });
    }

    /// PackSend task: posts receives, packs and ships every owned ghost
    /// buffer.
    fn task_ghost_pack_send(&mut self) {
        let cfg = self.exchange_config();
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        let plan = self.plan.as_ref().expect("plan built");
        let own = Ownership {
            mesh: &self.mesh,
            ranks: &self.ranks,
        };
        self.ghost_state = ghost_pack_and_send(
            plan,
            own,
            &self.slots,
            &mut self.comm,
            &mut self.cache,
            &cfg,
            exec,
            &mut self.rec,
        );
    }

    /// WaitUnpack task: polls for delivery; once everything arrived, unpacks
    /// into ghost zones and applies physical boundary conditions.
    fn task_ghost_wait_unpack(&mut self) -> TaskStatus {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        let plan = self.plan.as_ref().expect("plan built");
        if !ghost_poll(plan, &mut self.ghost_state, &mut self.comm, &mut self.rec) {
            self.wait_for_peers();
            return TaskStatus::Incomplete;
        }
        let state = std::mem::take(&mut self.ghost_state);
        let own = Ownership {
            mesh: &self.mesh,
            ranks: &self.ranks,
        };
        let exec = self.exec();
        ghost_set_bounds(
            plan,
            own,
            state,
            &mut self.slots,
            &mut self.comm,
            exec,
            &mut self.rec,
        );
        self.apply_physical_bcs();
        TaskStatus::Complete
    }

    /// Interior/exterior flux task: one phase of the split sweep. Under
    /// [`DriverParams::measured_costs`] the per-pack wall time is measured
    /// and amortized evenly over the pack's blocks into the cost ledger
    /// (the flux kernel runs whole packs, so per-block flux time is an
    /// amortized approximation; the RK update contributes exact per-block
    /// times).
    ///
    /// Kept out of line: the flux kernel is sensitive to its caller's stack
    /// layout, and inlined into the `run_task` dispatcher it measured about
    /// 25% slower on two rank engines (Mesh 64/B16/L2, 2-core Xeon VM).
    #[inline(never)]
    fn task_flux(&mut self, phase: FluxPhase) {
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::CalculateFluxes));
        let measured = self.params.measured_costs;
        let mut costed: Vec<(usize, u64)> = Vec::new();
        self.with_rank_packs(StepFunction::CalculateFluxes, |pkg, pack, rec| {
            let t0 = measured.then(std::time::Instant::now);
            pkg.calculate_fluxes_phase(pack, phase, exec, rec);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64 / pack.len().max(1) as u64;
                costed.extend(pack.iter().map(|s| (s.info.gid, ns)));
            }
        });
        for (gid, ns) in costed {
            self.block_cost_ns[gid] += ns;
        }
    }

    /// FluxCorrSend task: posts receives for owned coarse blocks, packs and
    /// sends the restricted fine face fluxes of owned fine blocks.
    fn task_fcorr_send(&mut self) {
        let exec = self.exec();
        let plan = self.plan.as_ref().expect("plan built");
        let own = Ownership {
            mesh: &self.mesh,
            ranks: &self.ranks,
        };
        self.fcorr_state =
            flux_corr_send(plan, own, &self.slots, &mut self.comm, exec, &mut self.rec);
    }

    /// FluxCorrApply task: polls for corrections, then overwrites coarse
    /// fluxes once everything arrived.
    fn task_fcorr_apply(&mut self) -> TaskStatus {
        let plan = self.plan.as_ref().expect("plan built");
        if !flux_corr_poll(plan, &mut self.fcorr_state, &mut self.comm, &mut self.rec) {
            self.wait_for_peers();
            return TaskStatus::Incomplete;
        }
        let state = std::mem::take(&mut self.fcorr_state);
        let exec = self.exec();
        flux_corr_apply(plan, &state, &mut self.slots, exec, &mut self.rec);
        TaskStatus::Complete
    }

    /// RK2 stage update (flux ids cached in the exchange plan).
    fn task_update(&mut self, stage: usize) {
        let (a0, b, c) = if stage == 0 {
            (0.0, 1.0, 1.0)
        } else {
            (0.5, 0.5, 0.5)
        };
        let dt = self.step_dt;
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("RK2Update"));
        let ids = &self.plan.as_ref().expect("plan built").flux_ids;
        let measured = self.params.measured_costs;
        let ledger = &mut self.block_cost_ns;
        let rec = &mut self.rec;
        for_rank_packs(&mut self.slots, |pack| {
            if measured {
                let mut cost = vec![0u64; pack.len()];
                flux_divergence_update_costed(pack, exec, a0, b, c, dt, ids, rec, &mut cost);
                for (slot, ns) in pack.iter().zip(cost) {
                    ledger[slot.info.gid] += ns;
                }
            } else {
                flux_divergence_update_with_ids(pack, exec, a0, b, c, dt, ids, rec);
            }
        });
    }

    /// FillDerived task (also the initializer's derived fill).
    fn task_fill_derived(&mut self) {
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::FillDerived));
        self.with_rank_packs(StepFunction::FillDerived, |pkg, pack, rec| {
            pkg.fill_derived(pack, exec, rec);
        });
    }

    /// MassHistory task: per-block contributions tagged with their gid,
    /// gathered from every rank and folded in *global gid order* — the
    /// reduction order is the same whatever the rank partition, so the
    /// history is bitwise identical at any decomposition. A no-op on cycles
    /// the `history_every` gate skips (the graph stays static, the work
    /// doesn't run).
    fn task_history(&mut self) {
        if self.params.history_every == 0 || !self.cycle.is_multiple_of(self.params.history_every) {
            return;
        }
        let exec = self.exec();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::MassHistory));
        let ncols = self.package.history_labels().len();
        // Payload: one (gid: u64 le, row: ncols × f64 le) entry per owned
        // block; an engine that owns nothing contributes an empty payload.
        let mut payload: Vec<u8> = Vec::new();
        self.with_rank_packs(StepFunction::MassHistory, |pkg, pack, rec| {
            let contrib = pkg.history_contributions(pack, exec, rec);
            for (slot, row) in pack.iter().zip(contrib) {
                payload.extend_from_slice(&(slot.info.gid as u64).to_le_bytes());
                for v in row {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
        });
        let parts = self
            .comm
            .all_gather_data(StepFunction::MassHistory, payload, &mut self.rec);
        let mut rows: Vec<(u64, &[u8])> = parts
            .iter()
            .flat_map(|part| part.chunks_exact(8 + 8 * ncols))
            .map(|e| (u64::from_le_bytes(e[..8].try_into().expect("gid")), &e[8..]))
            .collect();
        rows.sort_by_key(|&(gid, _)| gid);
        let mut values = vec![0.0; ncols];
        for (_, row) in rows {
            for (acc, x) in values.iter_mut().zip(row.chunks_exact(8)) {
                *acc += f64::from_le_bytes(x.try_into().expect("value"));
            }
        }
        self.history.push((self.cycle, values));
    }

    /// Tags the owned blocks, one pack per owned rank. Returns an ordered
    /// map so downstream regrid decisions never depend on hash iteration
    /// order; the cross-rank merge is [`Self::reconcile_flags`].
    fn collect_tags(&mut self) -> BTreeMap<LogicalLocation, AmrFlag> {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::RefinementTag));
        let exec = self.exec();
        let mut flags = BTreeMap::new();
        self.with_rank_packs(StepFunction::RefinementTag, |pkg, pack, rec| {
            rec.record_serial(
                StepFunction::RefinementTag,
                SerialWork::BlockLoop(pack.len() as u64),
            );
            let pack_flags = pkg.tag_refinement(pack, exec, rec);
            for (slot, f) in pack.iter().zip(pack_flags) {
                flags.insert(slot.info.loc, f);
            }
        });
        flags
    }

    /// Merges every rank's refinement flags with an AllGather into one
    /// ordered map (the merge is order-free).
    fn reconcile_flags(
        &mut self,
        local: BTreeMap<LogicalLocation, AmrFlag>,
    ) -> BTreeMap<LogicalLocation, AmrFlag> {
        let parts = self.comm.all_gather_data(
            StepFunction::UpdateMeshBlockTree,
            encode_flags(&local),
            &mut self.rec,
        );
        let mut flags = BTreeMap::new();
        for part in &parts {
            decode_flags_into(part, &mut flags);
        }
        flags
    }

    /// UpdateMeshBlockTree task: gather flags across ranks, reconcile into
    /// a regrid decision for the Regrid task — replicated tree surgery,
    /// identical on every engine.
    fn task_tree_update(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::UpdateMeshBlockTree));
        let local = std::mem::take(&mut self.step_flags);
        let flags = self.reconcile_flags(local);
        let mut decision = enforce_proper_nesting(self.mesh.tree(), &flags);
        decision.derefine_parents = self.gate.filter(decision.derefine_parents, self.cycle);
        self.rec.record_serial(
            StepFunction::UpdateMeshBlockTree,
            SerialWork::TreeOps(
                (decision.refine.len() + decision.derefine_parents.len() + 1) as u64,
            ),
        );
        self.rec.record_serial(
            StepFunction::UpdateMeshBlockTree,
            SerialWork::BlockLoop(self.mesh.num_blocks() as u64),
        );
        self.step_decision = Some(decision);
    }

    /// Regrid task: apply the decision, load-balance (every cycle, the
    /// paper's configuration) on modeled or measured per-block costs,
    /// migrate block data for the new ownership map, account list
    /// rebuilds, and rebuild the buffer cache when invalidated.
    fn task_regrid(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(
            StepFunction::RedistributeAndRefineMeshBlocks,
        ));
        let decision = self.step_decision.take().expect("tree update ran");
        self.step_counts = (decision.refine.len(), decision.derefine_parents.len());
        let structural = !decision.is_empty();
        if structural {
            for parent in &decision.derefine_parents {
                self.gate.record_derefine(parent, self.cycle);
            }
            for loc in &decision.refine {
                self.gate.record_refine(loc, self.cycle);
            }
        }
        let old_ranks = self.block_ranks();
        let sources = if structural {
            self.mesh
                .regrid(&decision)
                .expect("valid regrid decision")
                .sources
        } else {
            unchanged_sources(old_ranks.len())
        };
        if self.params.measured_costs && !self.block_cost_ns.is_empty() {
            // Each rank measured only its own blocks: gather the full
            // per-old-gid ledger so every engine applies identical weights
            // (the deterministic partition depends on it), then map it
            // through the regrid provenance onto new gids.
            let mut payload = Vec::new();
            for (gid, &ns) in self.block_cost_ns.iter().enumerate() {
                if ns > 0 {
                    payload.extend_from_slice(&(gid as u64).to_le_bytes());
                    payload.extend_from_slice(&ns.to_le_bytes());
                }
            }
            let parts = self.comm.all_gather_data(
                StepFunction::RedistributeAndRefineMeshBlocks,
                payload,
                &mut self.rec,
            );
            let mut full = vec![0u64; old_ranks.len()];
            for pair in parts.iter().flat_map(|p| p.chunks_exact(16)) {
                let gid = u64::from_le_bytes(pair[..8].try_into().expect("gid")) as usize;
                full[gid] = u64::from_le_bytes(pair[8..].try_into().expect("cost"));
            }
            for (gid, &ns) in map_block_costs(&full, &sources).iter().enumerate() {
                self.mesh.set_block_cost(gid, (ns as f64).max(1.0));
            }
        } else {
            self.params.cost_model.apply(&mut self.mesh);
        }
        self.mesh.load_balance(self.params.nranks);
        self.redistribute(&old_ranks, &sources, structural);
        // Per-cycle list rebuild, cost computation, ownership update, and
        // SetMeshBlockNeighbors — load balancing runs every cycle in the
        // paper's configuration, and this scalar block management (the
        // mesh-wide list rebuild, replicated on every rank as in Parthenon)
        // is the dominant serial cost of low-rank GPU runs (Fig. 11).
        self.rec.record_serial(
            StepFunction::RedistributeAndRefineMeshBlocks,
            SerialWork::BlockLoop(8 * self.mesh.num_blocks() as u64),
        );
        let boundary_count = self.boundary_count();
        self.rec.record_serial(
            StepFunction::RedistributeAndRefineMeshBlocks,
            SerialWork::BoundaryLoop(boundary_count),
        );
        // BuildTagMapAndBoundaryBuffers + SetMeshBlockNeighbors.
        if !self.cache.is_valid() {
            self.cache
                .rebuild(boundary_count, boundary_count * 96, &mut self.rec);
        }
        self.comm.mark_all_stale();
    }

    /// Block-neighbor boundaries over the whole mesh.
    fn boundary_count(&self) -> u64 {
        (0..self.mesh.num_blocks())
            .map(|g| self.mesh.neighbors(g).len() as u64)
            .sum()
    }

    /// Current rank of every block of the mesh, by gid.
    fn block_ranks(&self) -> Vec<usize> {
        self.mesh.blocks().iter().map(|b| b.rank()).collect()
    }

    /// Rebuilds the owned slots for the mesh's current blocks and
    /// ownership, given each block's rank before the change (`old_ranks`,
    /// by old gid) and where each new block's data comes from (`sources`).
    ///
    /// Every (old block, new rank) pair whose ranks differ is one migration
    /// message between virtual ranks. Its data crosses the transport only
    /// when it leaves or enters the owned range — all sends strictly before
    /// any blocking receive, see the deadlock-freedom argument in DESIGN.md
    /// — while a move between two owned ranks keeps the data in place and
    /// only records the message. New blocks are filled by prolongation or
    /// restriction in parallel.
    fn redistribute(&mut self, old_ranks: &[usize], sources: &[RegridSource], structural: bool) {
        let ranks = self.ranks.clone();
        let old_first = self.slots.first().map_or(0, |s| s.info.gid);
        let old_run = old_first..old_first + self.slots.len();
        let old_bytes: usize = self.slots.iter().map(BlockSlot::nbytes).sum();
        let func = StepFunction::RedistributeAndRefineMeshBlocks;

        // Which ranks need each old block under the new ownership map.
        let mut dests: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); old_ranks.len()];
        for (g, source) in sources.iter().enumerate() {
            let dst = self.mesh.block(g).rank();
            for &x in source_old_gids(source) {
                dests[x].insert(dst);
            }
        }
        // Ship owned old blocks to every other rank that needs them, in
        // (old gid, dst) order.
        for (x, ds) in dests.iter().enumerate() {
            let src = old_ranks[x];
            if !ranks.contains(&src) {
                continue;
            }
            for &dst in ds.iter().filter(|&&d| d != src) {
                let data = &self.slots[x - old_first].data;
                let cells = data.shape().interior_count() as u64;
                if ranks.contains(&dst) {
                    let len: usize = data.vars().iter().map(|v| v.data().as_slice().len()).sum();
                    self.rec.record_p2p(func, (len * 8) as u64, cells, false);
                } else {
                    let payload = serialize_block(data);
                    let key = BoundaryKey::new(x, x, MIGRATE_TAG);
                    let meta = SendMeta { src, dst, cells };
                    self.comm.send(key, payload, meta, func, &mut self.rec);
                }
            }
        }
        // Fetch the old blocks from other engines that owned new blocks are
        // built from. The loop blocks until every one lands — the
        // migration-stall wait state (probed, like collective blocking,
        // because it hides inside a task action the span layer counts as
        // busy).
        let mut pending: Vec<usize> = (0..old_ranks.len())
            .filter(|&x| {
                !ranks.contains(&old_ranks[x]) && dests[x].iter().any(|d| ranks.contains(d))
            })
            .collect();
        for &x in &pending {
            self.comm.start_receive(BoundaryKey::new(x, x, MIGRATE_TAG));
        }
        let mut payloads: HashMap<usize, Vec<f64>> = HashMap::new();
        let stall_t0 =
            (!pending.is_empty() && self.params.capture_spans).then(std::time::Instant::now);
        while !pending.is_empty() {
            let (comm, rec) = (&mut self.comm, &mut self.rec);
            pending.retain(
                |&x| match comm.try_receive(BoundaryKey::new(x, x, MIGRATE_TAG), rec) {
                    Some(buf) => {
                        payloads.insert(x, buf);
                        false
                    }
                    None => true,
                },
            );
            if !pending.is_empty() {
                std::thread::yield_now();
            }
        }
        if let Some(t0) = stall_t0 {
            self.wait_probes.migration_stall_ns += t0.elapsed().as_nanos() as u64;
        }
        let mut fetched: HashMap<usize, BlockData> = payloads
            .into_iter()
            .map(|(x, payload)| {
                let mut data = self.fresh_data();
                deserialize_into(&mut data, &payload);
                (x, data)
            })
            .collect();

        // Pass 1 (serial): the new owned run in ascending gid — reusing
        // owned unchanged slots, adopting fetched ones, allocating fresh
        // ones for refined/derefined blocks.
        let blocks = self.mesh.blocks();
        let new_first = blocks.partition_point(|b| b.rank() < ranks.start);
        let new_end = blocks.partition_point(|b| b.rank() < ranks.end);
        let mut old: Vec<Option<BlockSlot>> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(Some)
            .collect();
        let mut new_slots = Vec::with_capacity(new_end - new_first);
        let mut created = 0u64;
        let mut moved_cells: BTreeMap<usize, u64> = BTreeMap::new();
        for (g, source) in sources.iter().enumerate().take(new_end).skip(new_first) {
            let info = BlockInfo::from_mesh(&self.mesh, g);
            let slot = match source {
                RegridSource::Unchanged { old_gid } if old_run.contains(old_gid) => {
                    let mut s = old[old_gid - old_first]
                        .take()
                        .expect("unchanged block available");
                    s.info = info;
                    s
                }
                RegridSource::Unchanged { old_gid } => {
                    BlockSlot::new(info, fetched.remove(old_gid).expect("migrated block"))
                }
                RegridSource::Refined { .. } | RegridSource::Derefined { .. } => {
                    created += 1;
                    let s = self.new_slot(g);
                    *moved_cells.entry(info.rank).or_insert(0) +=
                        s.data.shape().interior_count() as u64;
                    s
                }
            };
            new_slots.push(slot);
        }
        // Pass 2 (parallel): fill new blocks by prolongation/restriction.
        // Refined parents and derefined children are never `Unchanged`, so
        // their old slots survive pass 1 and are read-shared here.
        if created > 0 {
            let (old, fetched) = (&old, &fetched);
            let source = |x: usize| -> &BlockData {
                if old_run.contains(&x) {
                    &old[x - old_first].as_ref().expect("source block").data
                } else {
                    &fetched[&x]
                }
            };
            self.exec()
                .for_each_block(&mut new_slots, |_, slot| match &sources[slot.info.gid] {
                    RegridSource::Unchanged { .. } => {}
                    RegridSource::Refined {
                        parent_old_gid,
                        child_index,
                    } => {
                        prolongate_to_child(source(*parent_old_gid), *child_index, &mut slot.data);
                    }
                    RegridSource::Derefined { child_old_gids } => {
                        let children: Vec<&BlockData> =
                            child_old_gids.iter().map(|&x| source(x)).collect();
                        restrict_to_parent(&children, &mut slot.data);
                    }
                });
        }
        drop(old);
        self.slots = new_slots;
        let new_bytes: usize = self.slots.iter().map(BlockSlot::nbytes).sum();
        self.rec
            .record_alloc(MemSpace::Kokkos, new_bytes as i64 - old_bytes as i64);
        if structural {
            // Data movement for new blocks plus neighbor/boundary rebuild
            // (BuildTagMapAndBoundaryBuffers + SetMeshBlockNeighbors) are
            // part of RedistributeAndRefineMeshBlocks.
            self.rec
                .record_serial(func, SerialWork::Allocations(created));
            if created > 0 {
                let per_block = self.slots.first().map_or(0, |s| s.nbytes() as u64);
                self.rec
                    .record_serial(func, SerialWork::HostCopyBytes(created * per_block));
            }
            let boundaries = self.boundary_count();
            self.rec
                .record_serial(func, SerialWork::BoundaryLoop(boundaries));
            let mut launcher = Launcher::new(&mut self.rec);
            for cells in moved_cells.values() {
                launcher.record_only(&catalog::PROLONG_RESTRICT_LOOP, *cells, 1.0);
            }
            self.cache.invalidate();
        }
        // New gids, neighbor lists, or owned run: the communication plan
        // (and its cached variable-id lookups) must be rebuilt.
        if structural || old_run != (new_first..new_end) {
            self.plan = None;
        }
    }

    /// Extracts the measured per-stage breakdown of the most recently
    /// archived cycle (all zeros when profiling is off).
    fn last_cycle_timing(&self) -> CycleTiming {
        self.rec
            .wall()
            .with_cycles(|cycles| {
                let Some(last) = cycles.last() else {
                    return CycleTiming::default();
                };
                let by_func = last.tree.by_step_function();
                let func_ns = |f: StepFunction| by_func.get(&f).map_or(0, |(ns, _)| *ns);
                let flat = last.tree.flatten();
                let named_ns = |name: &str| -> u64 {
                    flat.iter()
                        .filter(|r| matches!(r.key, RegionKey::Named(n) if n == name))
                        .map(|r| r.stats.total_ns)
                        .sum()
                };
                CycleTiming {
                    wall_ns: named_ns("Cycle"),
                    flux_ns: func_ns(StepFunction::CalculateFluxes),
                    comm_ns: named_ns("GhostExchange"),
                    update_ns: named_ns("RK2Update"),
                    amr_ns: func_ns(StepFunction::RefinementTag)
                        + func_ns(StepFunction::UpdateMeshBlockTree)
                        + func_ns(StepFunction::RedistributeAndRefineMeshBlocks),
                    dt_ns: func_ns(StepFunction::EstimateTimeStep),
                    pool_busy_ns: last.pool.busy_ns,
                    pool_thread_time_ns: last.pool.thread_time_ns,
                    load_imbalance: last.pool.load_imbalance(),
                    // Filled from the task executor's stats by step().
                    compute_task_ns: 0,
                    overlapped_compute_ns: 0,
                }
            })
            .unwrap_or_default()
    }

    /// The exchange configuration derived from the driver parameters.
    fn exchange_config(&self) -> ExchangeConfig {
        ExchangeConfig {
            cache_config: self.params.cache_config,
            restrict_on_send: self.params.restrict_on_send,
        }
    }

    /// Rebuilds the communication plan if the mesh generation or the owned
    /// run changed (plan invalidation happens in [`Self::redistribute`]).
    fn ensure_plan(&mut self) {
        if self.plan.is_none() {
            let cfg = self.exchange_config();
            self.plan = Some(ExchangePlan::build(
                &self.mesh,
                &mut self.slots,
                &cfg,
                &mut self.rec,
            ));
        }
    }

    /// One blocking ghost exchange over all FILL_GHOST variables, followed
    /// by physical boundary conditions at non-periodic domain faces (the
    /// initializer's path; cycles run the same phases as separate tasks).
    fn exchange(&mut self) {
        let cfg = self.exchange_config();
        let exec = self.exec();
        self.ensure_plan();
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Named("GhostExchange"));
        let own = Ownership {
            mesh: &self.mesh,
            ranks: &self.ranks,
        };
        exchange_ghosts_with_plan(
            self.plan.as_ref().expect("plan built"),
            own,
            &mut self.slots,
            &mut self.comm,
            &mut self.cache,
            &cfg,
            exec,
            &mut self.rec,
        );
        self.apply_physical_bcs();
    }

    /// Fills ghost zones at physical (non-periodic) domain faces.
    fn apply_physical_bcs(&mut self) {
        let periodic = self.mesh.params().region().periodic();
        let dim = self.mesh.params().dim();
        if periodic.iter().take(dim).all(|&p| p) {
            return;
        }
        let wall = self.rec.wall().clone();
        let _g = wall.region_hot(RegionKey::Named("PhysicalBCs"));
        let shape = self.mesh.index_shape();
        let kind = self.params.boundary_condition;
        let base_blocks = self.mesh.params().base_blocks();
        let ids = &self.plan.as_ref().expect("plan built").ghost_ids;
        let exec = self.exec();
        exec.for_each_block(&mut self.slots, |_, slot| {
            let loc = slot.info.loc;
            let level = loc.level();
            for d in 0..dim {
                if periodic[d] {
                    continue;
                }
                let extent = base_blocks[d] << level;
                let sides = [
                    (loc.lx_d(d) == 0, Side::Lower),
                    (loc.lx_d(d) == extent - 1, Side::Upper),
                ];
                for (at_edge, side) in sides {
                    if !at_edge {
                        continue;
                    }
                    for &id in ids {
                        let var = slot.data.var_mut(id);
                        let is_vector = var.ncomp() == 3;
                        apply_face_bc(var.data_mut(), &shape, d, side, kind, is_vector);
                    }
                }
            }
        });
    }

    /// Restores the simulation clock from a checkpoint (used by
    /// `snapshot::restore_driver`).
    pub(crate) fn restore_clock(&mut self, time: f64, dt: f64, cycle: u64) {
        self.time = time;
        self.dt = dt;
        self.cycle = cycle;
    }

    /// Restores checkpointed AMR continuation state: the derefinement gate
    /// (absolute-cycle keyed, so it must survive a checkpoint for resumed
    /// runs to make identical regrid decisions) and the history series
    /// accumulated before the checkpoint.
    pub(crate) fn restore_amr_state(&mut self, gate: DerefGate, history: Vec<(u64, Vec<f64>)>) {
        self.gate = gate;
        self.history = history;
    }

    /// The derefinement gate state (for checkpointing).
    pub(crate) fn gate(&self) -> &DerefGate {
        &self.gate
    }

    /// EstimateTimeStep: local minimum over the owned rank packs, then an
    /// AllReduce folded as `f64::min` in rank order with an infinity
    /// identity (an engine that owns nothing deposits infinity).
    fn estimate_dt(&mut self) {
        let wall = self.rec.wall().clone();
        let _g = wall.region(RegionKey::Step(StepFunction::EstimateTimeStep));
        let cfl = self.params.cfl;
        let exec = self.exec();
        let mut min_dt = f64::INFINITY;
        self.with_rank_packs(StepFunction::EstimateTimeStep, |pkg, pack, rec| {
            min_dt = min_dt.min(pkg.estimate_dt(pack, exec, rec));
        });
        let parts = self.comm.all_reduce_data(
            StepFunction::EstimateTimeStep,
            min_dt.to_le_bytes().to_vec(),
            8,
            &mut self.rec,
        );
        let global = parts
            .iter()
            .map(|p| f64::from_le_bytes(p.as_slice().try_into().expect("8-byte dt deposit")))
            .fold(f64::INFINITY, f64::min);
        self.dt = cfl * global;
    }

    /// Runs `f` once per owned rank over that rank's contiguous pack of
    /// blocks, then drains string-lookup counters into `func`'s serial
    /// profile.
    fn with_rank_packs(
        &mut self,
        func: StepFunction,
        mut f: impl FnMut(&P, &mut Vec<&mut BlockSlot>, &mut Recorder),
    ) {
        let package = &self.package;
        let rec = &mut self.rec;
        for_rank_packs(&mut self.slots, |pack| {
            f(package, pack, rec);
            for slot in pack.iter_mut() {
                let lookups = slot.data.take_string_lookups();
                if lookups > 0 {
                    rec.record_serial(func, SerialWork::StringLookups(lookups));
                }
            }
        });
    }
}

impl<P: Package> CycleContext for Driver<P> {
    fn run_task(&mut self, name: &'static str, task: CycleTask) -> TaskStatus {
        self.comm.set_task(Some(name));
        let status = match task {
            CycleTask::SaveStage0 => {
                self.task_save_stage0();
                TaskStatus::Complete
            }
            CycleTask::PackSend => {
                self.task_ghost_pack_send();
                TaskStatus::Complete
            }
            CycleTask::Flux(phase) => {
                self.task_flux(phase);
                TaskStatus::Complete
            }
            CycleTask::WaitUnpack => self.task_ghost_wait_unpack(),
            CycleTask::FluxCorrSend => {
                self.task_fcorr_send();
                TaskStatus::Complete
            }
            CycleTask::FluxCorrApply => self.task_fcorr_apply(),
            CycleTask::Update(stage) => {
                self.task_update(stage);
                TaskStatus::Complete
            }
            CycleTask::FillDerived => {
                self.task_fill_derived();
                TaskStatus::Complete
            }
            CycleTask::MassHistory => {
                self.task_history();
                TaskStatus::Complete
            }
            CycleTask::RefinementTag => {
                self.step_flags = self.collect_tags();
                TaskStatus::Complete
            }
            CycleTask::TreeUpdate => {
                self.task_tree_update();
                TaskStatus::Complete
            }
            CycleTask::Regrid => {
                self.task_regrid();
                TaskStatus::Complete
            }
            CycleTask::EstimateTimeStep => {
                self.estimate_dt();
                TaskStatus::Complete
            }
        };
        self.comm.set_task(None);
        status
    }
}

/// Runs `f` once per rank over that rank's contiguous pack of `slots`
/// (gid-ordered, so each rank's blocks are adjacent).
fn for_rank_packs(slots: &mut [BlockSlot], mut f: impl FnMut(&mut Vec<&mut BlockSlot>)) {
    let mut rest: &mut [BlockSlot] = slots;
    while !rest.is_empty() {
        let rank = rest[0].info.rank;
        let len = rest.iter().take_while(|s| s.info.rank == rank).count();
        let (head, tail) = rest.split_at_mut(len);
        let mut pack: Vec<&mut BlockSlot> = head.iter_mut().collect();
        f(&mut pack);
        rest = tail;
    }
}

/// Provenance of a mesh whose blocks did not change: every block is its
/// own source.
fn unchanged_sources(nblocks: usize) -> Vec<RegridSource> {
    (0..nblocks)
        .map(|old_gid| RegridSource::Unchanged { old_gid })
        .collect()
}

/// Maps a per-old-gid measured cost ledger through a regrid's provenance
/// records onto the new gid space: unchanged blocks keep their cost,
/// refined children inherit the parent's (every block has the same cell
/// count), derefined parents take the mean of their children.
fn map_block_costs(old_costs: &[u64], sources: &[RegridSource]) -> Vec<u64> {
    sources
        .iter()
        .map(|s| match s {
            RegridSource::Unchanged { old_gid } => old_costs[*old_gid],
            RegridSource::Refined { parent_old_gid, .. } => old_costs[*parent_old_gid],
            RegridSource::Derefined { child_old_gids } => {
                let sum: u64 = child_old_gids.iter().map(|&g| old_costs[g]).sum();
                sum / child_old_gids.len().max(1) as u64
            }
        })
        .collect()
}

/// The old gids a post-regrid block's data comes from.
fn source_old_gids(source: &RegridSource) -> &[usize] {
    match source {
        RegridSource::Unchanged { old_gid } => std::slice::from_ref(old_gid),
        RegridSource::Refined { parent_old_gid, .. } => std::slice::from_ref(parent_old_gid),
        RegridSource::Derefined { child_old_gids } => child_old_gids,
    }
}

/// Serializes every variable's full data array (ghosts included — the
/// prolongation stencil reads parent neighbor cells that reach into the
/// ghost layers) in registration order. Fluxes and stage-0 copies are dead
/// across the regrid point (SaveStage0 overwrites them next cycle) and are
/// not shipped.
fn serialize_block(data: &BlockData) -> Vec<f64> {
    let mut out = Vec::new();
    for var in data.vars() {
        out.extend_from_slice(var.data().as_slice());
    }
    out
}

/// Inverse of [`serialize_block`] into an identically registered container.
fn deserialize_into(data: &mut BlockData, payload: &[f64]) {
    let mut offset = 0usize;
    for i in 0..data.num_vars() {
        let dst = data.var_mut(VarId(i)).data_mut().as_mut_slice();
        dst.copy_from_slice(&payload[offset..offset + dst.len()]);
        offset += dst.len();
    }
    assert_eq!(offset, payload.len(), "payload matches registration");
}

/// Wire record: level (i32), lx1..lx3 (i64), flag (u8).
const FLAG_RECORD_BYTES: usize = 4 + 3 * 8 + 1;

/// Serializes refinement flags (all of them, `Same` included, so the merged
/// map equals a single-engine tag map).
fn encode_flags(flags: &BTreeMap<LogicalLocation, AmrFlag>) -> Vec<u8> {
    let mut out = Vec::with_capacity(flags.len() * FLAG_RECORD_BYTES);
    for (loc, flag) in flags {
        out.extend_from_slice(&loc.level().to_le_bytes());
        for d in 0..3 {
            out.extend_from_slice(&loc.lx_d(d).to_le_bytes());
        }
        out.push(match flag {
            AmrFlag::Derefine => 0,
            AmrFlag::Same => 1,
            AmrFlag::Refine => 2,
        });
    }
    out
}

/// Inverse of [`encode_flags`], merging into `flags`.
fn decode_flags_into(bytes: &[u8], flags: &mut BTreeMap<LogicalLocation, AmrFlag>) {
    assert!(
        bytes.len().is_multiple_of(FLAG_RECORD_BYTES),
        "flag payload framing"
    );
    for rec in bytes.chunks_exact(FLAG_RECORD_BYTES) {
        let level = i32::from_le_bytes(rec[0..4].try_into().expect("level bytes"));
        let lx1 = i64::from_le_bytes(rec[4..12].try_into().expect("lx1 bytes"));
        let lx2 = i64::from_le_bytes(rec[12..20].try_into().expect("lx2 bytes"));
        let lx3 = i64::from_le_bytes(rec[20..28].try_into().expect("lx3 bytes"));
        let flag = match rec[28] {
            0 => AmrFlag::Derefine,
            1 => AmrFlag::Same,
            2 => AmrFlag::Refine,
            other => panic!("unknown flag byte {other}"),
        };
        flags.insert(LogicalLocation::new(level, lx1, lx2, lx3), flag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_package::Advect;
    use vibe_mesh::MeshParams;

    fn mesh() -> Mesh {
        Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .nghost(2)
                .deref_gap(4)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn gaussian_ic(info: &BlockInfo, data: &mut BlockData) {
        let shape = *data.shape();
        let qid = data.id_of("q").unwrap();
        let geom = info.geom;
        let var = data.var_mut(qid);
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let c = geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        0,
                    );
                    let r2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2);
                    var.data_mut().set(0, k, j, i, (-r2 / 0.002).exp());
                }
            }
        }
    }

    fn driver(nranks: usize) -> Driver<Advect> {
        driver_with(DriverParams {
            nranks,
            cfl: 0.3,
            ..DriverParams::default()
        })
    }

    fn driver_with(params: DriverParams) -> Driver<Advect> {
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        d
    }

    #[test]
    fn initialization_adapts_mesh_to_feature() {
        let d = driver(1);
        // The sharp Gaussian must trigger refinement near the center.
        assert!(
            d.mesh().num_blocks() > 16,
            "refined blocks expected, got {}",
            d.mesh().num_blocks()
        );
        assert!(d.dt() > 0.0);
    }

    #[test]
    fn steps_advance_time_and_record_cycles() {
        let mut d = driver(2);
        let summaries = d.run_cycles(3);
        assert_eq!(summaries.len(), 3);
        assert!(d.time() > 0.0);
        assert_eq!(d.recorder().cycles().len(), 3);
        let t = d.recorder().totals();
        assert!(t.cell_updates > 0);
        assert!(t.cells_communicated() > 0);
        // Core kernels all present.
        let names: Vec<&str> = t.kernels.keys().map(|(_, n)| *n).collect();
        for want in [
            "CalculateFluxes",
            "WeightedSumData",
            "FluxDivergence",
            "SendBoundBufs",
            "SetBounds",
            "FirstDerivative",
            "Est.Time.Mesh",
        ] {
            assert!(names.contains(&want), "missing kernel {want}");
        }
    }

    #[test]
    fn mass_is_conserved_across_steps() {
        let mut d = driver(1);
        d.run_cycles(4);
        let hist = d.history();
        assert!(hist.len() >= 4);
        let first = hist.first().unwrap().1[0];
        let last = hist.last().unwrap().1[0];
        assert!(
            ((first - last) / first).abs() < 1e-8,
            "mass drifted: {first} -> {last}"
        );
    }

    #[test]
    fn advection_moves_the_peak() {
        let mut d = driver(1);
        let find_peak = |d: &Driver<Advect>| {
            let mut best = (0.0f64, [0.0f64; 3]);
            for slot in d.slots() {
                let shape = *slot.data.shape();
                let var = &slot.data.vars()[0];
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let v = var.data().get(0, 0, j, i);
                        if v > best.0 {
                            let c = slot.info.geom.cell_center(
                                i as i64 - shape.nghost_d(0) as i64,
                                j as i64 - shape.nghost_d(1) as i64,
                                0,
                            );
                            best = (v, c);
                        }
                    }
                }
            }
            best
        };
        let before = find_peak(&d);
        for _ in 0..6 {
            d.step();
        }
        let after = find_peak(&d);
        assert!(
            after.1[0] > before.1[0] + 1e-3,
            "peak moved +x: {:?} -> {:?} (t={})",
            before.1,
            after.1,
            d.time()
        );
    }

    #[test]
    fn rank_decomposition_generates_remote_traffic() {
        let mut d = driver(4);
        d.run_cycles(2);
        let t = d.recorder().totals();
        let send = &t.comm[&StepFunction::SendBoundBufs];
        assert!(send.p2p_remote_messages > 0);
        assert!(send.p2p_local_messages > 0);
    }

    #[test]
    fn more_ranks_more_remote_fewer_local() {
        let mut d1 = driver(1);
        d1.run_cycles(2);
        let mut d8 = driver(8);
        d8.run_cycles(2);
        let c1 = &d1.recorder().totals().comm[&StepFunction::SendBoundBufs];
        let c8 = &d8.recorder().totals().comm[&StepFunction::SendBoundBufs];
        assert_eq!(c1.p2p_remote_messages, 0, "single rank is all-local");
        assert!(c8.p2p_remote_messages > 0);
    }

    #[test]
    fn run_until_reaches_time_or_cap() {
        let mut d = driver(1);
        let s = d.run_until(1e9, 3);
        assert_eq!(s.len(), 3, "cycle cap respected");
        let t = d.time();
        let s2 = d.run_until(t + 1e-9, 100);
        assert_eq!(s2.len(), 1, "one step crosses the tiny horizon");
    }

    #[test]
    fn kokkos_memory_tracked() {
        let d = driver(1);
        let bytes = d.recorder().mem_current(MemSpace::Kokkos);
        assert!(bytes > 0);
        assert_eq!(bytes as usize, d.total_field_bytes());
    }

    #[test]
    fn profiling_records_stage_regions_and_cycle_timing() {
        let params = DriverParams {
            nranks: 2,
            cfl: 0.3,
            host_threads: 2,
            prof_level: ProfLevel::Full,
            ..DriverParams::default()
        };
        let pkg = Advect {
            refine_above: 0.2,
            deref_below: 0.02,
        };
        let mut d = Driver::new(mesh(), pkg, params);
        d.initialize(gaussian_ic);
        let summaries = d.run_cycles(2);
        let t = summaries[0].timing;
        assert!(t.wall_ns > 0, "cycle wall time measured");
        assert!(t.flux_ns > 0 && t.flux_ns < t.wall_ns);
        assert!(t.comm_ns > 0 && t.comm_ns < t.wall_ns);
        assert!(t.update_ns > 0 && t.dt_ns > 0);
        assert!(t.compute_task_ns > 0, "compute task time measured");
        assert!(
            t.overlapped_compute_ns > 0,
            "interior flux overlapped in-flight ghost traffic"
        );
        assert!(t.overlapped_compute_ns <= t.compute_task_ns);
        assert!(t.pool_busy_ns > 0 && t.pool_thread_time_ns >= t.pool_busy_ns);
        assert!(t.load_imbalance >= 1.0);
        d.recorder()
            .wall()
            .with_totals(|tree| {
                let paths: Vec<String> = tree.flatten().iter().map(|f| f.path.clone()).collect();
                for want in [
                    "Initialize",
                    "Cycle",
                    "Cycle/GhostExchange",
                    "Cycle/GhostExchange/SendBoundBufs",
                    "Cycle/GhostExchange/SetBounds",
                    "Cycle/CalculateFluxes",
                    "Cycle/FluxCorrection",
                    "Cycle/RK2Update/FluxDivergence",
                    "Cycle/Refinement::Tag",
                    "Cycle/EstimateTimeStep",
                ] {
                    assert!(
                        paths.iter().any(|p| p == want),
                        "missing region {want}, have {paths:?}"
                    );
                }
            })
            .unwrap();
        // Trace events were buffered for export.
        let (events, dropped) = d.recorder().wall().trace_events();
        assert!(!events.is_empty());
        assert_eq!(dropped, 0);
        // Per-cycle archives line up with the summaries.
        d.recorder()
            .wall()
            .with_cycles(|c| assert_eq!(c.len(), 2))
            .unwrap();
    }

    #[test]
    fn profiling_off_leaves_timing_zeroed() {
        let mut d = driver(1);
        let s = d.step();
        assert_eq!(s.timing, CycleTiming::default());
        assert!(!d.recorder().wall().enabled());
    }

    #[test]
    fn executed_graph_matches_exported_graph() {
        let graph = cycle_task_graph();
        assert_eq!(cycle_list::<Driver<Advect>>().graph(), graph);
        assert_eq!(graph.len(), 22);
        let order = crate::tasks::topo_order(&graph).expect("cycle graph is a DAG");
        assert_eq!(order.len(), graph.len());
        // Interior flux overlaps the in-flight exchange: it depends on
        // PackSend, not on WaitUnpack, and ExteriorFlux joins both.
        assert_eq!(graph[2].name, "Stage0::InteriorFlux");
        assert_eq!(graph[2].deps, [1]);
        assert_eq!(graph[4].deps, [2, 3]);
        assert_eq!(graph[20].name, "Regrid");
        assert_eq!(graph[20].deps, [19, 17]);
    }

    #[test]
    fn string_vs_cached_lookup_strategies() {
        let params_str = DriverParams {
            nranks: 1,
            pack_strategy: PackStrategy::StringKeyed,
            ..DriverParams::default()
        };
        let params_int = DriverParams {
            nranks: 1,
            pack_strategy: PackStrategy::IntegerCached,
            ..DriverParams::default()
        };
        let mut ds = Driver::new(mesh(), Advect::default(), params_str);
        ds.initialize(gaussian_ic);
        ds.run_cycles(2);
        let mut di = Driver::new(mesh(), Advect::default(), params_int);
        di.initialize(gaussian_ic);
        di.run_cycles(2);
        let lookups = |d: &Driver<Advect>| -> u64 {
            d.recorder()
                .totals()
                .serial
                .values()
                .map(|s| s.string_lookups)
                .sum()
        };
        assert!(
            lookups(&ds) > lookups(&di),
            "string-keyed strategy performs more lookups: {} vs {}",
            lookups(&ds),
            lookups(&di)
        );
    }

    /// Satellite regression: the communicator's event log is drained into
    /// the driver's archive every cycle, so the *resident* count never
    /// grows with run length — it is bounded by one cycle's traffic (zero
    /// between steps) no matter how many cycles run.
    #[test]
    fn resident_comm_events_stay_bounded_per_cycle() {
        let mut d = driver(2);
        assert_eq!(
            d.resident_comm_events(),
            0,
            "initialization traffic must already be drained"
        );
        let mut archived_last = d.comm_events().len();
        assert!(archived_last > 0, "initialization is archived");
        for _ in 0..6 {
            d.step();
            assert_eq!(
                d.resident_comm_events(),
                0,
                "every step must drain the communicator"
            );
            let archived = d.comm_events().len();
            assert!(archived > archived_last, "the archive is the consumer");
            archived_last = archived;
        }

        // With capture off, nothing accumulates anywhere.
        let params = DriverParams {
            nranks: 2,
            capture_comm_events: false,
            ..DriverParams::default()
        };
        let mut d = Driver::new(mesh(), Advect::default(), params);
        d.initialize(gaussian_ic);
        d.run_cycles(3);
        assert_eq!(d.resident_comm_events(), 0);
        assert!(d.comm_events().is_empty());
    }

    /// Span capture and the measured-cost load-balance feed are
    /// observational: the solution fingerprint and timestep sequence are
    /// bitwise identical with both on or both off.
    #[test]
    fn spans_and_measured_costs_do_not_perturb_solution() {
        let mut plain = driver(4);
        let mut instrumented = driver_with(DriverParams {
            nranks: 4,
            cfl: 0.3,
            capture_spans: true,
            measured_costs: true,
            ..DriverParams::default()
        });
        for _ in 0..5 {
            let a = plain.step();
            let b = instrumented.step();
            assert_eq!(a.dt.to_bits(), b.dt.to_bits());
            assert_eq!(a.nblocks, b.nblocks);
        }
        assert_eq!(
            crate::fingerprint_slots(plain.slots()),
            crate::fingerprint_slots(instrumented.slots()),
            "attribution instrumentation must not touch the numerics"
        );
        assert!(plain.task_spans().is_empty());
        assert!(plain.block_costs_ns().is_empty());

        // 22 labeled tasks per cycle, every span cycle-stamped on rank 0.
        assert_eq!(instrumented.task_spans().len(), 5 * 22);
        assert!(instrumented.task_spans().iter().all(|s| s.rank == 0));
        assert_eq!(
            instrumented
                .task_spans()
                .iter()
                .filter(|s| s.cycle == 3)
                .count(),
            22
        );
        // The measured ledger saw real flux/update work on every block.
        assert!(instrumented.block_costs_ns().iter().all(|&ns| ns > 0));
    }

    /// The regrid provenance mapping keeps the measured ledger aligned
    /// with the new gid space.
    #[test]
    fn map_block_costs_follows_regrid_provenance() {
        let old = [10u64, 20, 30, 40, 50];
        let sources = [
            RegridSource::Unchanged { old_gid: 2 },
            RegridSource::Refined {
                parent_old_gid: 4,
                child_index: 0,
            },
            RegridSource::Refined {
                parent_old_gid: 4,
                child_index: 1,
            },
            RegridSource::Derefined {
                child_old_gids: vec![0, 1, 2, 3],
            },
        ];
        assert_eq!(map_block_costs(&old, &sources), [30, 50, 50, 25]);
    }

    /// A rank engine on the degenerate single-rank shared transport must
    /// reproduce the driver bitwise, cycle for cycle.
    #[test]
    fn rank_engine_matches_driver_bitwise() {
        let mut whole = driver(1);
        let mut rank = driver(1).into_rank(Box::new(vibe_comm::SharedTransport::default()));
        for _ in 0..4 {
            let a = whole.step();
            let b = rank.step();
            assert_eq!(a.nblocks, b.nblocks);
            assert_eq!(a.refined, b.refined);
            assert_eq!(a.dt.to_bits(), b.dt.to_bits());
        }
        assert_eq!(rank.checkpoint(), whole.to_snapshot());
        let out = rank.finish();
        assert_eq!(
            crate::fingerprint_slots(whole.slots()),
            crate::fingerprint_slots(&out.slots)
        );
        assert_eq!(whole.history(), out.history.as_slice());
        assert_eq!(whole.dt().to_bits(), out.dt.to_bits());
    }

    /// Two replicas of the same problem produce bitwise-identical init
    /// state — the property full-replica rank initialization depends on.
    #[test]
    fn replica_initialization_is_bitwise_reproducible() {
        let a = driver(4);
        let b = driver(4);
        assert_eq!(
            crate::fingerprint_slots(a.slots()),
            crate::fingerprint_slots(b.slots())
        );
        assert_eq!(a.dt().to_bits(), b.dt().to_bits());
        assert_eq!(a.mesh().num_blocks(), b.mesh().num_blocks());
    }

    #[test]
    fn flag_roundtrip_preserves_map() {
        let mut flags = BTreeMap::new();
        flags.insert(LogicalLocation::new(0, 0, 1, 0), AmrFlag::Refine);
        flags.insert(LogicalLocation::new(2, 3, 2, 1), AmrFlag::Same);
        flags.insert(LogicalLocation::new(1, 1, 0, 0), AmrFlag::Derefine);
        let bytes = encode_flags(&flags);
        let mut back = BTreeMap::new();
        decode_flags_into(&bytes, &mut back);
        assert_eq!(flags, back);
    }

    #[test]
    fn block_payload_roundtrip() {
        let d = driver(1);
        let src = &d.slots()[0].data;
        let mut dst = d.fresh_data();
        deserialize_into(&mut dst, &serialize_block(src));
        assert_eq!(
            src.var(VarId(0)).data().as_slice(),
            dst.var(VarId(0)).data().as_slice()
        );
    }
}
