//! Ghost-cell communication: the StartReceiveBoundBufs → SendBoundBufs →
//! ReceiveBoundBufs → SetBounds cycle, plus fine-coarse flux correction.
//!
//! Every phase works on the blocks one engine holds (an [`Ownership`]): it
//! posts receives for the boundaries whose receiver it owns, packs and sends
//! the boundaries whose sender it owns — tagged with the virtual ranks on
//! both ends, so the communicator records a local copy or a remote message —
//! and unpacks into its own slots. An engine that owns every rank is both
//! ends of every exchange; a rank engine is one end and its peers the other.
//!
//! The exchange is split into phases so the driver's task graph can keep
//! interior compute running while messages are in flight:
//!
//! * [`ExchangePlan::build`] — per-mesh-generation boundary enumeration,
//!   buffer specs, and variable-id lookups;
//! * [`ghost_pack_and_send`] — post receives, pack, and ship every buffer;
//! * [`ghost_poll`] — one non-blocking delivery sweep over pending keys;
//! * [`ghost_set_bounds`] — unpack the delivered buffers into ghost zones;
//! * [`flux_corr_send`] / [`flux_corr_poll`] / [`flux_corr_apply`] — the
//!   same split for fine→coarse flux correction.
//!
//! [`exchange_ghosts`] and [`flux_correction`] run the phases back-to-back
//! for callers that do not overlap (initialization, tests).

use std::collections::BTreeMap;
use std::ops::Range;

use vibe_comm::{BoundaryKey, BufferCache, CacheConfig, Communicator, SendMeta};
use vibe_exec::{catalog, ExecCtx, Launcher};
use vibe_field::buffer::compute_buffer_spec_with;
use vibe_field::{
    apply_flux, flux_correction_spec, pack, pack_flux, unpack, BufferSpec, FluxCorrSpec, Metadata,
    VarId,
};
use vibe_mesh::Mesh;
use vibe_prof::{MemSpace, Recorder, RegionKey, SerialWork, StepFunction};

use crate::block::BlockSlot;

/// Configuration of the ghost exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeConfig {
    /// Buffer-cache bookkeeping configuration (sort+shuffle toggle).
    pub cache_config: CacheConfig,
    /// Restrict fine data before sending (Parthenon's optimization); when
    /// disabled, fine→coarse buffers grow by `2^dim` and the receiver
    /// averages (ablation of the §II-C behavior).
    pub restrict_on_send: bool,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        Self {
            cache_config: CacheConfig::default(),
            restrict_on_send: true,
        }
    }
}

/// The blocks one engine holds: a contiguous range of virtual ranks and —
/// load balancing gives every rank a contiguous Morton run — the dense,
/// gid-ordered slot run of their blocks. Block ranks are read live from the
/// (replicated) mesh, so plain load balancing keeps an [`ExchangePlan`]
/// valid.
#[derive(Debug, Clone, Copy)]
pub struct Ownership<'a> {
    /// The mesh whose block ranks decide who sends and who receives.
    pub mesh: &'a Mesh,
    /// The virtual ranks the engine runs.
    pub ranks: &'a Range<usize>,
}

impl Ownership<'_> {
    /// Rank owning block `gid`.
    pub fn rank_of(&self, gid: usize) -> usize {
        self.mesh.block(gid).rank()
    }

    /// Whether block `gid` lives on one of the engine's ranks.
    pub fn owns(&self, gid: usize) -> bool {
        self.ranks.contains(&self.rank_of(gid))
    }
}

/// Everything the communication phases need that only changes when the
/// mesh does: boundary enumeration, pack/unpack buffer specs, fine→coarse
/// flux-correction transfers, and the variable-id pack lookups — computed
/// once per mesh generation instead of once per cycle (the repeated
/// `pack_by_flag` lookups were a measurable serial hot path).
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    /// Ghost boundaries as (key, receiver gid, sender gid), in the fixed
    /// receiver-major enumeration order.
    keys: Vec<(BoundaryKey, usize, usize)>,
    /// Pack/unpack spec per ghost boundary (parallel to `keys`).
    specs: Vec<BufferSpec>,
    /// Ghost-boundary indices grouped by receiver gid.
    by_recv: Vec<Vec<usize>>,
    /// Fine→coarse flux-correction transfers (key, receiver, sender, spec).
    transfers: Vec<(BoundaryKey, usize, usize, FluxCorrSpec)>,
    /// Transfer indices grouped by receiver gid.
    fcorr_by_recv: Vec<Vec<usize>>,
    /// [`Metadata::FILL_GHOST`] variable ids (registration is identical on
    /// every block).
    pub ghost_ids: Vec<VarId>,
    /// [`Metadata::WITH_FLUXES`] variable ids.
    pub flux_ids: Vec<VarId>,
    /// [`Metadata::TWO_STAGE`] variable ids.
    pub two_stage_ids: Vec<VarId>,
}

impl ExchangePlan {
    /// Builds the plan for the current mesh generation over an engine's
    /// owned slots, performing (and recording) the per-block variable
    /// lookups that previously ran on every exchange. The boundary
    /// enumeration covers the whole mesh (every rank knows the replicated
    /// block tree); an engine that owns no block gets empty variable ids and
    /// never needs them.
    pub fn build(
        mesh: &Mesh,
        slots: &mut [BlockSlot],
        cfg: &ExchangeConfig,
        rec: &mut Recorder,
    ) -> Self {
        let shape = mesh.index_shape();
        let nblocks = mesh.num_blocks();
        let mut keys = Vec::new();
        let mut specs = Vec::new();
        let mut by_recv: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        let mut transfers = Vec::new();
        let mut fcorr_by_recv: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
        for r in 0..nblocks {
            for (t, nb) in mesh.neighbors(r).iter().enumerate() {
                let s = mesh.gid_at(&nb.loc).expect("neighbor is a leaf");
                by_recv[r].push(keys.len());
                keys.push((BoundaryKey::new(s, r, t as u32), r, s));
                specs.push(compute_buffer_spec_with(
                    &shape,
                    &mesh.block(r).loc(),
                    &nb.loc,
                    &nb.offset,
                    cfg.restrict_on_send,
                ));
                if nb.is_finer() && nb.offset.order() == 1 {
                    fcorr_by_recv[r].push(transfers.len());
                    transfers.push((
                        BoundaryKey::new(s, r, 1000 + t as u32),
                        r,
                        s,
                        flux_correction_spec(&shape, &mesh.block(r).loc(), &nb.loc, &nb.offset),
                    ));
                }
            }
        }
        // Variable selection per block (string-keyed or cached, per
        // container strategy), once per generation; drain the lookup
        // counters into the profile.
        let mut ghost_ids = Vec::new();
        for slot in slots.iter_mut() {
            ghost_ids = slot.data.pack_by_flag(Metadata::FILL_GHOST).ids().to_vec();
        }
        let (flux_ids, two_stage_ids) = match slots.first_mut() {
            Some(first) => (
                first
                    .data
                    .pack_by_flag(Metadata::WITH_FLUXES)
                    .ids()
                    .to_vec(),
                first.data.pack_by_flag(Metadata::TWO_STAGE).ids().to_vec(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        for slot in slots.iter_mut() {
            let lookups = slot.data.take_string_lookups();
            if lookups > 0 {
                rec.record_serial(
                    StepFunction::SendBoundBufs,
                    SerialWork::StringLookups(lookups),
                );
            }
        }
        Self {
            keys,
            specs,
            by_recv,
            transfers,
            fcorr_by_recv,
            ghost_ids,
            flux_ids,
            two_stage_ids,
        }
    }
}

/// Messages of one exchange round in flight: the indices (into the plan's
/// boundary or transfer list) still awaited, and the payloads delivered so
/// far, indexed the same way.
#[derive(Debug, Default)]
struct Inbound {
    pending: Vec<usize>,
    received: Vec<Option<Vec<f64>>>,
}

impl Inbound {
    fn new(pending: Vec<usize>, len: usize) -> Self {
        Self {
            pending,
            received: vec![None; len],
        }
    }

    /// One non-blocking delivery sweep; `true` once everything arrived.
    fn poll(
        &mut self,
        key: impl Fn(usize) -> BoundaryKey,
        comm: &mut Communicator,
        rec: &mut Recorder,
    ) -> bool {
        let received = &mut self.received;
        self.pending
            .retain(|&b| match comm.try_receive(key(b), rec) {
                Some(buf) => {
                    received[b] = Some(buf);
                    false
                }
                None => true,
            });
        self.pending.is_empty()
    }

    fn payload(&self, b: usize) -> &[f64] {
        self.received[b].as_deref().expect("message delivered")
    }
}

/// In-flight state of one ghost exchange between its pack/send and
/// wait/unpack phases.
#[derive(Debug, Default)]
pub struct GhostExchangeState {
    inbound: Inbound,
    /// Remote payload bytes currently held in MPI buffers.
    remote_bytes_live: i64,
}

/// Sends every message of one round whose sender block is owned: packs the
/// payloads in parallel (pure reads of the sender blocks), then ships them
/// serially in plan order with virtual-rank routing. Returns the packed
/// cells per sending rank and the bytes that left a rank.
#[allow(clippy::too_many_arguments)]
fn send_owned(
    own: Ownership<'_>,
    slots: &[BlockSlot],
    send: &[(BoundaryKey, usize, usize)],
    pack_one: impl Fn(usize, &BlockSlot, &mut Vec<f64>) -> u64 + Sync,
    func: StepFunction,
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> (BTreeMap<usize, u64>, i64) {
    let first = slots.first().map_or(0, |s| s.info.gid);
    let mut packed: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); send.len()];
    exec.for_each_block(&mut packed, |i, out| {
        let slot = &slots[send[i].2 - first];
        out.1 = pack_one(i, slot, &mut out.0);
    });
    let mut cells_per_rank: BTreeMap<usize, u64> = BTreeMap::new();
    let mut remote_bytes = 0i64;
    for (&(key, r, s), (buf, cells)) in send.iter().zip(packed) {
        let (src, dst) = (own.rank_of(s), own.rank_of(r));
        if src != dst {
            remote_bytes += (buf.len() * 8) as i64;
        }
        *cells_per_rank.entry(src).or_insert(0) += cells;
        comm.send(key, buf, SendMeta { src, dst, cells }, func, rec);
    }
    (cells_per_rank, remote_bytes)
}

/// Posts the receives for boundaries whose receiver is owned
/// (`StartReceiveBoundBufs`), then packs and streams every boundary whose
/// sender is owned (`SendBoundBufs`). Returns the in-flight state that
/// [`ghost_poll`] and [`ghost_set_bounds`] retire.
#[allow(clippy::too_many_arguments)]
pub fn ghost_pack_and_send(
    plan: &ExchangePlan,
    own: Ownership<'_>,
    slots: &[BlockSlot],
    comm: &mut Communicator,
    cache: &mut BufferCache,
    cfg: &ExchangeConfig,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> GhostExchangeState {
    let wall = rec.wall().clone();

    let recv: Vec<usize> = {
        let _g = wall.region_hot(RegionKey::Step(StepFunction::StartReceiveBoundBufs));
        let recv: Vec<usize> = (0..plan.keys.len())
            .filter(|&b| own.owns(plan.keys[b].1))
            .collect();
        for &b in &recv {
            comm.start_receive(plan.keys[b].0);
        }
        rec.record_serial(
            StepFunction::StartReceiveBoundBufs,
            SerialWork::BoundaryLoop(recv.len() as u64),
        );
        recv
    };

    let _send_guard = wall.region(RegionKey::Step(StepFunction::SendBoundBufs));
    cache.initialize(
        recv.iter().map(|&b| plan.keys[b].0).collect(),
        &cfg.cache_config,
        rec,
    );
    let send: Vec<usize> = (0..plan.keys.len())
        .filter(|&b| own.owns(plan.keys[b].2))
        .collect();
    rec.record_serial(
        StepFunction::SendBoundBufs,
        SerialWork::BoundaryLoop(send.len() as u64),
    );
    let send_keys: Vec<_> = send.iter().map(|&b| plan.keys[b]).collect();
    let (cells_per_rank, remote_bytes_live) = send_owned(
        own,
        slots,
        &send_keys,
        |i, slot, out| {
            let spec = &plan.specs[send[i]];
            let mut cells = 0;
            for &id in &plan.ghost_ids {
                let var = slot.data.var(id);
                pack(spec, var.data(), out);
                cells += spec.buffer_len(var.ncomp()) as u64;
            }
            cells
        },
        StepFunction::SendBoundBufs,
        comm,
        exec,
        rec,
    );
    rec.record_alloc(MemSpace::MpiBuffers, remote_bytes_live);
    let mut launcher = Launcher::new(rec);
    for cells in cells_per_rank.values() {
        launcher.record_only(&catalog::SEND_BOUND_BUFS, *cells, 1.0);
    }

    GhostExchangeState {
        inbound: Inbound::new(recv, plan.keys.len()),
        remote_bytes_live,
    }
}

/// One delivery sweep (`ReceiveBoundBufs`): probes every still-pending
/// boundary once, banking arrivals. Returns `true` once every message has
/// landed; remote messages may need several sweeps before the progress
/// engine delivers them.
pub fn ghost_poll(
    plan: &ExchangePlan,
    state: &mut GhostExchangeState,
    comm: &mut Communicator,
    rec: &mut Recorder,
) -> bool {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::ReceiveBoundBufs));
    state.inbound.poll(|b| plan.keys[b].0, comm, rec)
}

/// Unpacks every delivered buffer into its owned receiver's ghost zones
/// (`SetBounds`) and releases the exchange's MPI buffer memory. Blocks
/// unpack in parallel over *receivers*; each consumes its incoming buffers
/// in global key order, so results are identical to the serial sweep at
/// any thread count.
///
/// # Panics
///
/// Panics unless [`ghost_poll`] reported completion for `state`.
pub fn ghost_set_bounds(
    plan: &ExchangePlan,
    own: Ownership<'_>,
    state: GhostExchangeState,
    slots: &mut [BlockSlot],
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    assert!(state.inbound.pending.is_empty(), "every boundary delivered");
    let _set_guard = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::SetBounds));
    let mut cells_per_rank: BTreeMap<usize, u64> = BTreeMap::new();
    let mut boundaries = 0u64;
    for slot in slots.iter() {
        let r = slot.info.gid;
        for &b in &plan.by_recv[r] {
            boundaries += 1;
            let cells: u64 = plan
                .ghost_ids
                .iter()
                .map(|&id| plan.specs[b].buffer_len(slot.data.var(id).ncomp()) as u64)
                .sum();
            *cells_per_rank.entry(own.rank_of(r)).or_insert(0) += cells;
        }
    }
    let inbound = &state.inbound;
    exec.for_each_block(slots, |_, slot| {
        for &b in &plan.by_recv[slot.info.gid] {
            let spec = &plan.specs[b];
            let buf = inbound.payload(b);
            let mut offset = 0usize;
            for &id in &plan.ghost_ids {
                let var = slot.data.var_mut(id);
                let len = spec.buffer_len(var.data().ncomp());
                unpack(spec, &buf[offset..offset + len], var.data_mut());
                offset += len;
            }
        }
    });
    let mut launcher = Launcher::new(rec);
    for cells in cells_per_rank.values() {
        launcher.record_only(&catalog::SET_BOUNDS, *cells, 1.0);
    }
    rec.record_serial(
        StepFunction::SetBounds,
        SerialWork::BoundaryLoop(boundaries),
    );
    comm.mark_all_stale();
    rec.record_alloc(MemSpace::MpiBuffers, -state.remote_bytes_live);
}

/// Runs the pack/send → poll → set-bounds phases back-to-back with a
/// prebuilt plan. This is the non-overlapping path (initialization and
/// direct callers); the cycle path schedules the same phases as separate
/// tasks so interior compute proceeds while messages are in flight.
#[allow(clippy::too_many_arguments)]
pub fn exchange_ghosts_with_plan(
    plan: &ExchangePlan,
    own: Ownership<'_>,
    slots: &mut [BlockSlot],
    comm: &mut Communicator,
    cache: &mut BufferCache,
    cfg: &ExchangeConfig,
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    let mut state = ghost_pack_and_send(plan, own, slots, comm, cache, cfg, exec, rec);
    let mut sweeps = 0u32;
    while !ghost_poll(plan, &mut state, comm, rec) {
        sweeps += 1;
        assert!(sweeps < 10_000, "ghost messages never arrived");
    }
    ghost_set_bounds(plan, own, state, slots, comm, exec, rec);
}

/// Performs one full ghost-zone exchange of all [`Metadata::FILL_GHOST`]
/// variables across all block boundaries of `mesh`, whose every block is in
/// `slots` (gid order), building a one-shot [`ExchangePlan`].
///
/// Fine→coarse data is restricted on the sender; coarse→fine data ships at
/// coarse resolution and is prolongated during `SetBounds` — matching
/// Parthenon's communication volumes.
pub fn exchange_ghosts(
    mesh: &Mesh,
    slots: &mut [BlockSlot],
    comm: &mut Communicator,
    cache: &mut BufferCache,
    cfg: &ExchangeConfig,
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    let plan = ExchangePlan::build(mesh, slots, cfg, rec);
    let ranks = 0..mesh.nranks();
    let own = Ownership {
        mesh,
        ranks: &ranks,
    };
    exchange_ghosts_with_plan(&plan, own, slots, comm, cache, cfg, exec, rec);
}

/// In-flight state of one flux-correction round between its send and
/// apply phases.
#[derive(Debug, Default)]
pub struct FluxCorrState {
    inbound: Inbound,
}

/// Posts receives for the corrections owned coarse blocks consume, then
/// packs the restricted fine face fluxes owned fine blocks send (in
/// parallel, pure reads) and ships them serially in face order
/// (`FluxCorrection`).
pub fn flux_corr_send(
    plan: &ExchangePlan,
    own: Ownership<'_>,
    slots: &[BlockSlot],
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) -> FluxCorrState {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxCorrection));
    let recv: Vec<usize> = (0..plan.transfers.len())
        .filter(|&b| own.owns(plan.transfers[b].1))
        .collect();
    for &b in &recv {
        comm.start_receive(plan.transfers[b].0);
    }
    let send: Vec<usize> = (0..plan.transfers.len())
        .filter(|&b| own.owns(plan.transfers[b].2))
        .collect();
    let send_keys: Vec<_> = send
        .iter()
        .map(|&b| {
            let (key, r, s, _) = plan.transfers[b];
            (key, r, s)
        })
        .collect();
    send_owned(
        own,
        slots,
        &send_keys,
        |i, slot, out| {
            let spec = &plan.transfers[send[i]].3;
            let mut cells = 0;
            for &id in &plan.flux_ids {
                let var = slot.data.var(id);
                pack_flux(spec, var, out);
                cells += spec.buffer_len(var.ncomp()) as u64;
            }
            cells
        },
        StepFunction::FluxCorrection,
        comm,
        exec,
        rec,
    );
    rec.record_serial(
        StepFunction::FluxCorrection,
        SerialWork::BoundaryLoop(send.len() as u64),
    );
    FluxCorrState {
        inbound: Inbound::new(recv, plan.transfers.len()),
    }
}

/// One delivery sweep over pending flux-correction transfers. Returns
/// `true` once every correction has arrived.
pub fn flux_corr_poll(
    plan: &ExchangePlan,
    state: &mut FluxCorrState,
    comm: &mut Communicator,
    rec: &mut Recorder,
) -> bool {
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxCorrection));
    state.inbound.poll(|b| plan.transfers[b].0, comm, rec)
}

/// Overwrites owned coarse fluxes with the delivered restricted fine
/// fluxes, in parallel over receiver blocks, each applying its corrections
/// in face order.
///
/// # Panics
///
/// Panics unless [`flux_corr_poll`] reported completion for `state`.
pub fn flux_corr_apply(
    plan: &ExchangePlan,
    state: &FluxCorrState,
    slots: &mut [BlockSlot],
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    assert!(
        state.inbound.pending.is_empty(),
        "every flux correction delivered"
    );
    let _g = rec
        .wall()
        .clone()
        .region(RegionKey::Step(StepFunction::FluxCorrection));
    let inbound = &state.inbound;
    exec.for_each_block(slots, |_, slot| {
        for &b in &plan.fcorr_by_recv[slot.info.gid] {
            let spec = &plan.transfers[b].3;
            let buf = inbound.payload(b);
            let mut offset = 0usize;
            for &id in &plan.flux_ids {
                let var = slot.data.var_mut(id);
                let len = spec.buffer_len(var.ncomp());
                apply_flux(spec, &buf[offset..offset + len], var);
                offset += len;
            }
        }
    });
}

/// Fine→coarse flux correction across all level-boundary faces of `mesh`,
/// whose every block is in `slots` (gid order): restricted fine face
/// fluxes replace the coarse neighbor's fluxes before the flux divergence
/// (prevents conservation errors). Builds a one-shot [`ExchangePlan`] and
/// runs the send/poll/apply phases back-to-back.
pub fn flux_correction(
    mesh: &Mesh,
    slots: &mut [BlockSlot],
    comm: &mut Communicator,
    exec: ExecCtx,
    rec: &mut Recorder,
) {
    let plan = ExchangePlan::build(mesh, slots, &ExchangeConfig::default(), rec);
    let ranks = 0..mesh.nranks();
    let own = Ownership {
        mesh,
        ranks: &ranks,
    };
    let mut state = flux_corr_send(&plan, own, slots, comm, exec, rec);
    let mut sweeps = 0u32;
    while !flux_corr_poll(&plan, &mut state, comm, rec) {
        sweeps += 1;
        assert!(sweeps < 10_000, "flux corrections never arrived");
    }
    flux_corr_apply(&plan, &state, slots, exec, rec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockInfo, BlockSlot};
    use vibe_field::BlockData;
    use vibe_mesh::{enforce_proper_nesting, AmrFlag, MeshParams};

    fn build(mesh: &Mesh, ncomp: usize) -> Vec<BlockSlot> {
        (0..mesh.num_blocks())
            .map(|gid| {
                let mut data = BlockData::new(mesh.index_shape());
                data.add_variable(
                    "q",
                    ncomp,
                    Metadata::INDEPENDENT | Metadata::FILL_GHOST | Metadata::WITH_FLUXES,
                );
                BlockSlot::new(BlockInfo::from_mesh(mesh, gid), data)
            })
            .collect()
    }

    fn uniform_mesh() -> Mesh {
        Mesh::new(
            MeshParams::builder()
                .dim(2)
                .mesh_cells(32)
                .block_cells(8)
                .max_levels(2)
                .nghost(2)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// Fill every block's interior with a global linear function; after the
    /// exchange, ghost cells must continue the same function.
    #[test]
    fn ghost_exchange_reproduces_linear_field_same_level() {
        let mesh = uniform_mesh();
        let mut slots = build(&mesh, 1);
        for slot in &mut slots {
            let geom = slot.info.geom;
            let shape = *slot.data.shape();
            let qid = slot.data.id_of("q").unwrap();
            let var = slot.data.var_mut(qid);
            for k in 0..shape.entire_d(2) {
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        let c = geom.cell_center(
                            i as i64 - shape.nghost_d(0) as i64,
                            j as i64 - shape.nghost_d(1) as i64,
                            k as i64 - shape.nghost_d(2) as i64,
                        );
                        // Interior only; ghosts start poisoned.
                        let interior = (shape.nghost_d(0)..shape.nghost_d(0) + shape.ncells()[0])
                            .contains(&i)
                            && (shape.nghost_d(1)..shape.nghost_d(1) + shape.ncells()[1])
                                .contains(&j);
                        let v = 2.0 * c[0] + 3.0 * c[1];
                        var.data_mut()
                            .set(0, k, j, i, if interior { v } else { -999.0 });
                    }
                }
            }
        }
        let mut comm = Communicator::new(1);
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);

        // Check interior-adjacent ghost cells on an interior block (gid of
        // block at (1,1)): they must match the linear field (periodic wrap
        // introduces discontinuity only at domain edges).
        let gid = mesh
            .gid_at(&vibe_mesh::LogicalLocation::new(0, 1, 1, 0))
            .unwrap();
        let slot = &slots[gid];
        let shape = *slot.data.shape();
        let geom = slot.info.geom;
        let var = slot.data.vars().first().unwrap();
        for (i, j) in [(0usize, 4usize), (11, 4), (4, 0), (4, 11), (1, 1)] {
            let c = geom.cell_center(
                i as i64 - shape.nghost_d(0) as i64,
                j as i64 - shape.nghost_d(1) as i64,
                0,
            );
            let want = 2.0 * c[0] + 3.0 * c[1];
            let got = var.data().get(0, 0, j, i);
            assert!(
                (got - want).abs() < 1e-12,
                "ghost ({i},{j}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn exchange_records_workload() {
        let mesh = uniform_mesh();
        let mut slots = build(&mesh, 2);
        let mut comm = Communicator::new(4);
        // Re-rank the slots to the mesh's 4-rank balance.
        let mut mesh = mesh;
        mesh.load_balance(4);
        for (gid, slot) in slots.iter_mut().enumerate() {
            slot.info.rank = mesh.block(gid).rank();
        }
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(16, 0, 0, 0);
        let totals = rec.totals();
        // 16 blocks x 8 neighbors = 128 boundaries.
        let comm_t = &totals.comm[&StepFunction::SendBoundBufs];
        assert_eq!(comm_t.p2p_local_messages + comm_t.p2p_remote_messages, 128);
        assert!(comm_t.p2p_remote_messages > 0, "4 ranks => remote traffic");
        assert!(comm_t.cells_communicated > 0);
        // Pack/unpack kernels recorded per rank.
        let send_k = &totals.kernels[&(StepFunction::SendBoundBufs, "SendBoundBufs")];
        assert_eq!(send_k.launches, 4);
        let set_k = &totals.kernels[&(StepFunction::SetBounds, "SetBounds")];
        assert_eq!(set_k.launches, 4);
        // MPI buffer memory returns to zero after SetBounds.
        assert_eq!(rec.mem_current(MemSpace::MpiBuffers), 0);
        assert!(rec.mem_peak(MemSpace::MpiBuffers) > 0);
    }

    #[test]
    fn refined_mesh_exchange_constant_field_exact() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(5).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();
        let mut slots = build(&mesh, 1);
        for slot in &mut slots {
            let qid = slot.data.id_of("q").unwrap();
            slot.data.var_mut(qid).data_mut().fill(7.25);
        }
        let mut comm = Communicator::new(1);
        let mut cache = BufferCache::new();
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        exchange_ghosts(
            &mesh,
            &mut slots,
            &mut comm,
            &mut cache,
            &ExchangeConfig::default(),
            ExecCtx::serial(),
            &mut rec,
        );
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
        for slot in &slots {
            let var = &slot.data.vars()[0];
            for v in var.data().as_slice() {
                assert!((v - 7.25).abs() < 1e-13, "constant preserved everywhere");
            }
        }
    }

    #[test]
    fn flux_correction_overwrites_coarse_faces() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(0).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();
        let mut slots = build(&mesh, 1);
        // Fine blocks carry x-flux 2.0; coarse blocks 1.0.
        for slot in &mut slots {
            let level = slot.info.level;
            let qid = slot.data.id_of("q").unwrap();
            let fx = slot.data.var_mut(qid).flux_mut(0).unwrap();
            fx.fill(if level > 0 { 2.0 } else { 1.0 });
        }
        let mut comm = Communicator::new(1);
        let mut rec = Recorder::new();
        rec.begin_cycle(0);
        flux_correction(&mesh, &mut slots, &mut comm, ExecCtx::serial(), &mut rec);
        rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);

        // The coarse block at +x of the refined region must now carry the
        // restricted fine flux (2.0) on its low-x face.
        let coarse_gid = mesh
            .gid_at(&vibe_mesh::LogicalLocation::new(0, 1, 0, 0))
            .unwrap();
        let slot = &slots[coarse_gid];
        let shape = *slot.data.shape();
        let fx = slot.data.vars()[0].flux(0).unwrap();
        let g = shape.nghost();
        // Tangential cells j = g..g+8 on face i = g.
        let got = fx.get(0, 0, g + 1, g);
        assert!((got - 2.0).abs() < 1e-13, "corrected flux, got {got}");
        // An interior face is untouched.
        let interior = fx.get(0, 0, g + 1, g + 3);
        assert!((interior - 1.0).abs() < 1e-13);
        // Workload recorded under FluxCorrection.
        let c = &rec.totals().comm[&StepFunction::FluxCorrection];
        assert!(c.cells_communicated > 0);
    }

    #[test]
    fn disabling_restrict_on_send_inflates_fine_to_coarse_traffic() {
        let mut mesh = uniform_mesh();
        let loc = mesh.block(5).loc();
        let flags = [(loc, AmrFlag::Refine)].into_iter().collect();
        let d = enforce_proper_nesting(mesh.tree(), &flags);
        mesh.regrid(&d).unwrap();

        let cells = |restrict: bool| {
            let mut slots = build(&mesh, 1);
            for slot in &mut slots {
                let qid = slot.data.id_of("q").unwrap();
                slot.data.var_mut(qid).data_mut().fill(1.5);
            }
            let mut comm = Communicator::new(1);
            let mut cache = BufferCache::new();
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let cfg = ExchangeConfig {
                restrict_on_send: restrict,
                ..ExchangeConfig::default()
            };
            exchange_ghosts(
                &mesh,
                &mut slots,
                &mut comm,
                &mut cache,
                &cfg,
                ExecCtx::serial(),
                &mut rec,
            );
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
            // Constant field stays exact under receiver-side averaging too.
            for slot in &slots {
                for v in slot.data.vars()[0].data().as_slice() {
                    assert!((v - 1.5).abs() < 1e-13);
                }
            }
            rec.totals().comm[&StepFunction::SendBoundBufs].cells_communicated
        };
        let with = cells(true);
        let without = cells(false);
        assert!(
            without > with,
            "unrestricted sends move more cells: {without} vs {with}"
        );
    }

    /// The split phases driven separately must be indistinguishable from
    /// the one-shot exchange: same ghost values, same message totals.
    #[test]
    fn phased_exchange_matches_one_shot() {
        let mesh = uniform_mesh();
        let init = |slots: &mut Vec<BlockSlot>| {
            for slot in slots.iter_mut() {
                let qid = slot.data.id_of("q").unwrap();
                let shape = *slot.data.shape();
                let var = slot.data.var_mut(qid);
                for j in 0..shape.entire_d(1) {
                    for i in 0..shape.entire_d(0) {
                        var.data_mut()
                            .set(0, 0, j, i, (i as f64 * 1.7 + j as f64 * 0.3).sin());
                    }
                }
            }
        };
        let run = |phased: bool| {
            let mut slots = build(&mesh, 1);
            init(&mut slots);
            let mut comm = Communicator::new(2);
            comm.set_remote_delivery_delay(2);
            let mut cache = BufferCache::new();
            let mut rec = Recorder::new();
            rec.begin_cycle(0);
            let cfg = ExchangeConfig::default();
            let plan = ExchangePlan::build(&mesh, &mut slots, &cfg, &mut rec);
            let ranks = 0..1;
            let own = Ownership {
                mesh: &mesh,
                ranks: &ranks,
            };
            if phased {
                let mut state = ghost_pack_and_send(
                    &plan,
                    own,
                    &slots,
                    &mut comm,
                    &mut cache,
                    &cfg,
                    ExecCtx::serial(),
                    &mut rec,
                );
                while !ghost_poll(&plan, &mut state, &mut comm, &mut rec) {}
                ghost_set_bounds(
                    &plan,
                    own,
                    state,
                    &mut slots,
                    &mut comm,
                    ExecCtx::serial(),
                    &mut rec,
                );
            } else {
                exchange_ghosts_with_plan(
                    &plan,
                    own,
                    &mut slots,
                    &mut comm,
                    &mut cache,
                    &cfg,
                    ExecCtx::serial(),
                    &mut rec,
                );
            }
            rec.end_cycle(mesh.num_blocks() as u64, 0, 0, 0);
            let ghosts: Vec<f64> = slots
                .iter()
                .flat_map(|s| s.data.vars()[0].data().as_slice().to_vec())
                .collect();
            let t = rec.totals().comm[&StepFunction::SendBoundBufs].clone();
            (ghosts, t.p2p_local_messages + t.p2p_remote_messages)
        };
        let (a_ghosts, a_msgs) = run(true);
        let (b_ghosts, b_msgs) = run(false);
        assert_eq!(a_msgs, b_msgs);
        assert!(a_ghosts == b_ghosts, "bitwise identical ghost fill");
    }
}
