//! Seeded workload inputs. Everything a run feeds the program is a pure
//! function of `--seed`: the blob centres of the AMR problems and the job
//! stream of the service workload.

use vibe_core::BlockInfo;
use vibe_field::BlockData;

/// The seed whose AMR input is exactly `vibe_burgers::ic::multi_blob(0.9,
/// 0.002, 3)`, the problem behind the contract fingerprint.
pub const DEFAULT_SEED: u64 = 0;

/// SplitMix64: a small, well-mixed generator with a fixed output sequence
/// for a given seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub const BLOB_AMPLITUDE: f64 = 0.9;
pub const BLOB_WIDTH: f64 = 0.002;
pub const BLOB_COUNT: usize = 3;
/// Root-block width of both AMR meshes (64/16 and 32/8 cells: four root
/// blocks per side of the unit cube).
const ROOT_BLOCK_WIDTH: f64 = 0.25;
/// Minimum periodic distance between blob centres. The blobs' cutoff
/// radius is 3·sqrt(width) ≈ 0.134, so blobs this far apart never touch.
const MIN_SEPARATION: f64 = 0.35;

/// `multi_blob`'s deterministic centres.
fn default_centers(count: usize) -> Vec<[f64; 3]> {
    (0..count)
        .map(|i| {
            let t = i as f64 + 1.0;
            [
                (t * 0.381_966_011).fract(),
                (t * 0.618_033_988).fract(),
                (t * 0.267_949_192).fract(),
            ]
        })
        .collect()
}

fn periodic_dist2(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    (0..3)
        .map(|d| {
            let mut dx = (a[d] - b[d]).abs();
            if dx > 0.5 {
                dx = 1.0 - dx;
            }
            dx * dx
        })
        .sum()
}

/// Blob centres for `seed`. The default seed gives `multi_blob`'s centres;
/// any other seed moves each blob by a seeded whole number of root blocks
/// per axis, keeping the blobs apart. Whole-block moves on the periodic
/// cube keep each blob's refinement footprint the same size, so seeds
/// change where the work is (block order, rank ownership, fingerprints)
/// without changing how much of it there is.
pub fn blob_centers(seed: u64) -> Vec<[f64; 3]> {
    let base = default_centers(BLOB_COUNT);
    if seed == DEFAULT_SEED {
        return base;
    }
    let mut rng = Rng::new(seed);
    let steps = (1.0 / ROOT_BLOCK_WIDTH) as usize;
    loop {
        let moved: Vec<[f64; 3]> = base
            .iter()
            .map(|c| {
                let mut m = *c;
                for x in &mut m {
                    *x = (*x + rng.below(steps) as f64 * ROOT_BLOCK_WIDTH).fract();
                }
                m
            })
            .collect();
        let apart = (0..moved.len()).all(|i| {
            (i + 1..moved.len())
                .all(|j| periodic_dist2(&moved[i], &moved[j]) >= MIN_SEPARATION * MIN_SEPARATION)
        });
        if apart {
            return moved;
        }
    }
}

/// The Burgers initial condition for blob `centers`: the same field as
/// `vibe_burgers::ic::multi_blob` (velocity and scalar "feature" from a
/// sum of periodic Gaussian blobs, scalars `1 + feature/(s+1)`), with the
/// centres as an input.
pub fn blob_ic(centers: Vec<[f64; 3]>) -> impl Fn(&BlockInfo, &mut BlockData) + Send + Sync {
    move |info, data| {
        let shape = *data.shape();
        let uid = data.id_of("u").expect("u registered");
        let qid = data.id_of("q").expect("q registered");
        let nscal = data.var(qid).ncomp();
        let (uvar, qvar) = data.pair_mut(uid, qid);
        let udata = uvar.data_mut();
        let qdata = qvar.data_mut();
        for k in 0..shape.entire_d(2) {
            for j in 0..shape.entire_d(1) {
                for i in 0..shape.entire_d(0) {
                    let pos = info.geom.cell_center(
                        i as i64 - shape.nghost_d(0) as i64,
                        j as i64 - shape.nghost_d(1) as i64,
                        k as i64 - shape.nghost_d(2) as i64,
                    );
                    let mut blob = 0.0;
                    for c in &centers {
                        let r2 = periodic_dist2(&pos, c);
                        if r2 < 9.0 * BLOB_WIDTH {
                            blob += (-r2 / BLOB_WIDTH).exp();
                        }
                    }
                    let a = BLOB_AMPLITUDE;
                    let u = [0.1 + a * blob, 0.1 - 0.6 * a * blob, 0.1 + 0.3 * a * blob];
                    for (c, &uc) in u.iter().enumerate() {
                        udata.set(c, k, j, i, uc);
                    }
                    for s in 0..nscal {
                        qdata.set(s, k, j, i, 1.0 + a * blob / (s + 1) as f64);
                    }
                }
            }
        }
    }
}

/// Tenants of the service workload.
pub const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// One submission of the service job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    pub tenant: &'static str,
    pub job: JobKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A new problem: the jittered refinement threshold and CFL factor.
    Fresh { refine_tol: f64, cfl: f64 },
    /// An identical resubmission of the fresh submission at this index of
    /// the whole stream (both phases), which by then has finished.
    Repeat { of: usize },
}

/// One submission in every run of this many repeats an earlier problem.
pub const REPEAT_ONE_IN: usize = 4;
/// A repeat names a fresh job due at least this long before it, so the
/// original has finished and the repeat is a cache read.
pub const REPEAT_LAG_S: f64 = 1.0;

/// The open-loop job stream: `phases` of `(rate per second, seconds)` at
/// evenly spaced due times. The seed picks each job's problem jitter, its
/// tenant, and which submissions repeat which earlier problem.
pub fn job_stream(seed: u64, phases: &[(f64, f64)]) -> Vec<Vec<Submission>> {
    let mut rng = Rng::new(seed ^ 0x5e4e_1ce5_0000_0001);
    let mut out: Vec<Vec<Submission>> = Vec::new();
    // (global index, absolute due time) of every fresh submission so far.
    let mut fresh: Vec<(usize, f64)> = Vec::new();
    let mut global = 0usize;
    let mut phase_start = 0.0;
    // Position of the repeat inside the current run of REPEAT_ONE_IN.
    let mut repeat_slot = 0;
    for &(rate, seconds) in phases {
        let n = (rate * seconds).floor() as usize;
        let mut subs = Vec::with_capacity(n);
        for i in 0..n {
            let due_s = i as f64 / rate;
            let abs_due = phase_start + due_s;
            let tenant = TENANTS[rng.below(TENANTS.len())];
            let eligible: Vec<usize> = fresh
                .iter()
                .filter(|(_, t)| *t + REPEAT_LAG_S <= abs_due)
                .map(|(g, _)| *g)
                .collect();
            if global.is_multiple_of(REPEAT_ONE_IN) {
                repeat_slot = rng.below(REPEAT_ONE_IN);
            }
            let repeat = global % REPEAT_ONE_IN == repeat_slot;
            let pick = rng.below(eligible.len().max(1));
            let (tol_u, cfl_u) = (rng.unit(), rng.unit());
            let job = if repeat && !eligible.is_empty() {
                JobKind::Repeat { of: eligible[pick] }
            } else {
                fresh.push((global, abs_due));
                JobKind::Fresh {
                    refine_tol: 0.19 + 0.02 * tol_u,
                    cfl: 0.28 + 0.04 * cfl_u,
                }
            };
            subs.push(Submission { due_s, tenant, job });
            global += 1;
        }
        phase_start += seconds;
        out.push(subs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_multi_blob_centres() {
        assert_eq!(blob_centers(DEFAULT_SEED), default_centers(3));
    }

    #[test]
    fn default_seed_initial_condition_is_multi_blob_bitwise() {
        use vibe_burgers::{ic, BurgersPackage, BurgersParams};
        use vibe_core::{fingerprint_slots, Driver, DriverParams};
        use vibe_mesh::{Mesh, MeshParams};
        let build = || {
            let mesh = Mesh::new(
                MeshParams::builder()
                    .dim(3)
                    .mesh_cells(16)
                    .block_cells(8)
                    .max_levels(2)
                    .nghost(4)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let pkg = BurgersPackage::new(BurgersParams {
                num_scalars: 4,
                ..BurgersParams::default()
            });
            Driver::new(mesh, pkg, DriverParams::default())
        };
        let mut ours = build();
        ours.initialize(blob_ic(blob_centers(DEFAULT_SEED)));
        let mut theirs = build();
        theirs.initialize(ic::multi_blob(BLOB_AMPLITUDE, BLOB_WIDTH, BLOB_COUNT));
        assert_eq!(
            fingerprint_slots(ours.slots()),
            fingerprint_slots(theirs.slots())
        );
        let mut moved = build();
        moved.initialize(blob_ic(blob_centers(1)));
        assert_ne!(
            fingerprint_slots(moved.slots()),
            fingerprint_slots(theirs.slots())
        );
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        for seed in [1u64, 7, 123_456_789] {
            assert_eq!(blob_centers(seed), blob_centers(seed));
            let phases = [(20.0, 3.0), (30.0, 3.0)];
            assert_eq!(job_stream(seed, &phases), job_stream(seed, &phases));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(blob_centers(1), blob_centers(2));
        let phases = [(20.0, 3.0)];
        assert_ne!(job_stream(1, &phases), job_stream(2, &phases));
    }

    #[test]
    fn seeded_centres_are_whole_block_moves_kept_apart() {
        let base = default_centers(3);
        for seed in 1..50u64 {
            let c = blob_centers(seed);
            for (m, b) in c.iter().zip(&base) {
                for d in 0..3 {
                    let shift = (m[d] - b[d]).rem_euclid(1.0) / ROOT_BLOCK_WIDTH;
                    assert!((shift - shift.round()).abs() < 1e-9, "seed {seed}");
                }
            }
            for i in 0..3 {
                for j in i + 1..3 {
                    assert!(periodic_dist2(&c[i], &c[j]) >= MIN_SEPARATION * MIN_SEPARATION);
                }
            }
        }
    }

    #[test]
    fn repeats_name_earlier_fresh_jobs_due_long_enough_before() {
        let phases = [(20.0, 4.0), (40.0, 4.0)];
        let stream = job_stream(9, &phases);
        let flat: Vec<(f64, &Submission)> = stream
            .iter()
            .enumerate()
            .flat_map(|(p, subs)| subs.iter().map(move |s| (p as f64 * 4.0 + s.due_s, s)))
            .collect();
        let mut repeats = 0;
        for (t, s) in &flat {
            if let JobKind::Repeat { of } = s.job {
                repeats += 1;
                let (t0, orig) = flat[of];
                assert!(matches!(orig.job, JobKind::Fresh { .. }));
                assert!(t0 + REPEAT_LAG_S <= *t);
            }
        }
        // Exactly one in four, except while no original is old enough.
        let early = flat.iter().filter(|(t, _)| *t < REPEAT_LAG_S).count();
        assert!(repeats >= (flat.len() - early) / REPEAT_ONE_IN - 1);
        assert!(repeats <= flat.len() / REPEAT_ONE_IN + 1);
    }
}
