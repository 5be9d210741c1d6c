//! Correctness checks. Each returns `Err(reason)` on a wrong result, and
//! every failure counts in the run's `failed` tally.

use vibe_core::Snapshot;

/// Burgers Mesh 64 / B16 / L2 at the default seed, state after cycle 3.
pub const GOLDEN_FINGERPRINT: u64 = 0xd7a2_26ef_d972_6631;
/// Cycle after which the golden (and the 1-rank vs 2-rank equality) is
/// checked.
pub const CHECK_CYCLE: u64 = 3;
/// Largest relative drift of a conserved history total over a run.
/// Fluxes are corrected at level boundaries and the cube is periodic, so
/// the scalar mass changes only by floating-point round-off.
pub const CONSERVATION_TOL: f64 = 1e-12;

pub fn golden(fingerprint: u64) -> Result<(), String> {
    if fingerprint == GOLDEN_FINGERPRINT {
        Ok(())
    } else {
        Err(format!(
            "fingerprint {fingerprint:016x} != golden {GOLDEN_FINGERPRINT:016x}"
        ))
    }
}

pub fn same_fingerprint(reference: u64, got: u64, what: &str) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!("{what}: {got:016x} != reference {reference:016x}"))
    }
}

/// Column `col` of the history (the package's `q_mass` is column 0) holds
/// to within [`CONSERVATION_TOL`] of its first value on every cycle.
pub fn conserved(history: &[(u64, Vec<f64>)], col: usize) -> Result<(), String> {
    let Some((_, first)) = history.first() else {
        return Err("no history recorded".into());
    };
    let m0 = first[col];
    let worst = history
        .iter()
        .map(|(_, v)| ((v[col] - m0) / m0).abs())
        .fold(0.0f64, f64::max);
    if worst.is_finite() && worst <= CONSERVATION_TOL {
        Ok(())
    } else {
        Err(format!(
            "conserved total drifted by {worst:.3e} (relative) over {} cycles",
            history.len()
        ))
    }
}

/// The program's state fingerprint (`vibe_core::fingerprint_slots`:
/// FNV-1a over every variable's f64 bits, in gid then registration order)
/// computed from a checkpoint, so a distributed run can be compared
/// without restoring it into a driver.
pub fn snapshot_fingerprint(snap: &Snapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for vars in &snap.block_vars {
        for (_, _, data) in vars {
            for &v in data {
                let bits = v.to_bits();
                for shift in (0..64).step_by(8) {
                    h ^= (bits >> shift) & 0xff;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// What the benchmark observed about one service job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub done: bool,
    pub cached: bool,
    pub fingerprint: Option<u64>,
    /// For a resubmission: the fingerprint of the job it repeats.
    pub original: Option<u64>,
}

/// A job reached `Done`; a resubmission was a cache hit with the
/// original's fingerprint.
pub fn job(j: &JobOutcome) -> Result<(), String> {
    if !j.done {
        return Err("job did not reach Done".into());
    }
    if let Some(orig) = j.original {
        if !j.cached {
            return Err("identical resubmission missed the result cache".into());
        }
        if j.fingerprint != Some(orig) {
            return Err(format!(
                "cached fingerprint {:?} != original {orig:016x}",
                j.fingerprint
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vibe_burgers::{BurgersPackage, BurgersParams};
    use vibe_core::{Driver, DriverParams};
    use vibe_mesh::{Mesh, MeshParams};

    fn small_driver() -> Driver<BurgersPackage> {
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
            num_scalars: 2,
            ..BurgersParams::default()
        });
        let mut d = Driver::new(
            mesh,
            pkg,
            DriverParams {
                cfl: 0.3,
                ..DriverParams::default()
            },
        );
        d.initialize(crate::inputs::blob_ic(crate::inputs::blob_centers(0)));
        d
    }

    #[test]
    fn golden_rejects_any_other_fingerprint() {
        assert!(golden(GOLDEN_FINGERPRINT).is_ok());
        assert!(golden(GOLDEN_FINGERPRINT ^ 1).is_err());
    }

    #[test]
    fn rank_equality_rejects_a_mismatch() {
        assert!(same_fingerprint(7, 7, "2 ranks").is_ok());
        assert!(same_fingerprint(7, 8, "2 ranks").is_err());
    }

    #[test]
    fn snapshot_fingerprint_matches_the_program_and_sees_one_flipped_bit() {
        let mut d = small_driver();
        d.run_cycles(1);
        let snap = d.to_snapshot();
        let fp = snapshot_fingerprint(&snap);
        assert_eq!(fp, vibe_core::fingerprint_slots(d.slots()));
        let mut bad = snap.clone();
        let v = &mut bad.block_vars[0][0].2[0];
        *v = f64::from_bits(v.to_bits() ^ 1);
        assert!(same_fingerprint(fp, snapshot_fingerprint(&bad), "corrupted").is_err());
    }

    #[test]
    fn conservation_holds_on_a_real_run_and_rejects_a_drift() {
        let mut d = small_driver();
        d.run_cycles(3);
        let hist = d.history().to_vec();
        conserved(&hist, 0).unwrap();
        let mut drifted = hist.clone();
        drifted.last_mut().unwrap().1[0] *= 1.0 + 1e-9;
        assert!(conserved(&drifted, 0).is_err());
        assert!(conserved(&[], 0).is_err());
    }

    #[test]
    fn job_check_rejects_unfinished_uncached_and_wrong_repeats() {
        let ok = JobOutcome {
            done: true,
            cached: false,
            fingerprint: Some(5),
            original: None,
        };
        assert!(job(&ok).is_ok());
        let repeat = JobOutcome {
            cached: true,
            original: Some(5),
            ..ok.clone()
        };
        assert!(job(&repeat).is_ok());
        assert!(job(&JobOutcome {
            done: false,
            ..ok.clone()
        })
        .is_err());
        assert!(job(&JobOutcome {
            cached: false,
            ..repeat.clone()
        })
        .is_err());
        assert!(job(&JobOutcome {
            fingerprint: Some(6),
            ..repeat
        })
        .is_err());
    }
}
