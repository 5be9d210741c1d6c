//! The package interface: physics plugged into the framework driver.

use vibe_exec::ExecCtx;
use vibe_field::BlockData;
use vibe_mesh::AmrFlag;
use vibe_prof::Recorder;

use crate::block::{BlockInfo, BlockSlot};

/// Which part of the flux sweep a [`Package::calculate_fluxes_phase`] call
/// covers. The task-graph driver computes `Interior` faces while ghost
/// messages are still in flight (they read no ghost cells) and the
/// ghost-dependent `Exterior` faces only after `SetBounds`; together the
/// two phases compute every face exactly once, bitwise identical to a
/// single full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluxPhase {
    /// Faces whose reconstruction stencils stay inside the interior.
    Interior,
    /// Faces whose stencils reach into the ghost layers.
    Exterior,
}

/// Refinement thresholds a package tags with, exposed through
/// [`Package::refinement_policy`] so tooling (CI gates, scenario tables)
/// can introspect the policy without running the tagging kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementPolicy {
    /// A block whose indicator exceeds this is tagged `Refine`.
    pub refine_tol: f64,
    /// A block whose indicator falls below this is tagged `Derefine`.
    pub deref_tol: f64,
}

impl Default for RefinementPolicy {
    fn default() -> Self {
        // Never refine, never derefine: a package that does not override
        // the policy hook reports a static-mesh policy.
        Self {
            refine_tol: f64::INFINITY,
            deref_tol: 0.0,
        }
    }
}

/// A physics package (Parthenon's `StateDescriptor`): registers variables
/// and provides the physics kernels. All kernel-style methods receive the
/// *pack* of blocks owned by one rank and must issue one recorded launch
/// per pack (mirroring Parthenon's packed launches).
///
/// Each kernel also receives the host execution context `exec`; blocks in
/// a pack are independent, so implementations should iterate the pack with
/// [`ExecCtx::for_each_block`] / [`ExecCtx::map_blocks`]. Reductions
/// (timestep minima, history sums) must fold per-block partials in pack
/// order so results are bitwise identical at every thread count.
///
/// Beyond the kernels, a package owns its *problem setup*: the ghost-layer
/// width its stencils need ([`Package::nghost`]), its advisory CFL factor
/// ([`Package::default_cfl`]), its canonical initial condition
/// ([`Package::initial_condition`]), its refinement thresholds
/// ([`Package::refinement_policy`]), and labels for its history columns
/// ([`Package::history_labels`]). These hooks let every layer — driver,
/// rank engines, the service, the benchmarks — construct a problem from
/// nothing but a package resolved by name from a
/// [`crate::registry::PackageRegistry`].
pub trait Package {
    /// Package name: the key a [`crate::registry::PackageRegistry`]
    /// resolves and the `physics=` field of canonical job configs.
    fn name(&self) -> &str;

    /// Registers this package's variables into a fresh block container.
    /// Called for every block at startup and for new blocks at regrid.
    fn register(&self, data: &mut BlockData);

    /// Ghost-layer width this package's stencils require; problem setup
    /// must build the mesh with at least this many ghost cells. The
    /// default (4) accommodates a WENO5 stencil radius of three plus the
    /// prolongation halo.
    fn nghost(&self) -> usize {
        4
    }

    /// Advisory CFL safety factor paired with [`Package::estimate_dt`]:
    /// problem setup multiplies the estimate by this when the caller does
    /// not pin an explicit CFL.
    fn default_cfl(&self) -> f64 {
        0.3
    }

    /// Fills one block's initial condition (Parthenon's problem
    /// generator). [`crate::Driver::initialize_package`] applies it to
    /// every block and re-applies it while the initial hierarchy adapts.
    /// The default leaves registered variables at zero.
    fn initial_condition(&self, _info: &BlockInfo, _data: &mut BlockData) {}

    /// Labels for the entries of [`Package::history`], in the same order;
    /// must have exactly as many entries as `history` returns values.
    fn history_labels(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// The refinement thresholds behind [`Package::tag_refinement`].
    fn refinement_policy(&self) -> RefinementPolicy {
        RefinementPolicy::default()
    }

    /// Computes face fluxes for all blocks in `pack` (reconstruction +
    /// Riemann solve), filling the flux arrays of flux-bearing variables.
    fn calculate_fluxes(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder);

    /// Computes one phase of the flux sweep, splitting the face range into
    /// ghost-independent interior faces and ghost-dependent exterior faces
    /// so the driver can overlap the interior work with in-flight boundary
    /// messages.
    ///
    /// The default keeps every package correct without opting in to
    /// overlap: the `Interior` phase does nothing and the `Exterior` phase
    /// (which runs only after ghosts are filled) performs the full sweep.
    /// Packages that override this must guarantee the `Interior` phase
    /// reads no ghost cells and that both phases together write each face
    /// exactly once.
    fn calculate_fluxes_phase(
        &self,
        pack: &mut [&mut BlockSlot],
        phase: FluxPhase,
        exec: ExecCtx,
        rec: &mut Recorder,
    ) {
        match phase {
            FluxPhase::Interior => {}
            FluxPhase::Exterior => self.calculate_fluxes(pack, exec, rec),
        }
    }

    /// Recomputes derived quantities from the evolved state.
    fn fill_derived(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder);

    /// Estimates the stable timestep over `pack`, returning the minimum.
    fn estimate_dt(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> f64;

    /// Tags each block in `pack` for refinement/derefinement. Returns one
    /// flag per block, in pack order.
    fn tag_refinement(
        &self,
        pack: &mut [&mut BlockSlot],
        exec: ExecCtx,
        rec: &mut Recorder,
    ) -> Vec<AmrFlag>;

    /// Computes per-block history contributions: one row — one value per
    /// registered history column — for each block in `pack`, in pack
    /// order. The caller folds rows in *global gid order*, so the
    /// reduction order (and therefore the bitwise result, floating-point
    /// addition being non-associative) is independent of how blocks are
    /// partitioned across ranks. Default: no rows (no histories).
    fn history_contributions(
        &self,
        _pack: &mut [&mut BlockSlot],
        _exec: ExecCtx,
        _rec: &mut Recorder,
    ) -> Vec<Vec<f64>> {
        Vec::new()
    }

    /// Computes history reductions (e.g. total scalar mass) over `pack`
    /// by folding the per-block contributions in pack order. Provided —
    /// packages implement [`Package::history_contributions`] and inherit
    /// a fixed-order fold.
    fn history(&self, pack: &mut [&mut BlockSlot], exec: ExecCtx, rec: &mut Recorder) -> Vec<f64> {
        let mut totals = vec![0.0; self.history_labels().len()];
        for row in self.history_contributions(pack, exec, rec) {
            for (acc, x) in totals.iter_mut().zip(row) {
                *acc += x;
            }
        }
        totals
    }
}
