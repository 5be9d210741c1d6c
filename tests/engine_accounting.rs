//! Accounting invariant of the one cycle engine: the workload a
//! single-process `Driver` records and the merged recorder of the same
//! problem run on real rank threads (`vibe_rt::run_distributed`) are the
//! same numbers.
//!
//! At one rank the whole digest must match: kernels, point-to-point and
//! collective traffic, serial management work, and Kokkos memory. At more
//! ranks every rank replicates the mesh-wide serial bookkeeping and runs its
//! own collectives, so only the kernel and point-to-point totals — the work
//! the virtual ranks split between them — must sum to the driver's.
//!
//! Run with `--nocapture` to print the digests field by field.

use std::collections::BTreeMap;

use vibe_amr::prelude::*;
use vibe_amr::prof::MemSpace;

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

fn replica(nranks: usize) -> Driver<Advect> {
    let params = DriverParams {
        nranks,
        cfl: 0.3,
        measured_costs: false,
        ..DriverParams::default()
    };
    let pkg = Advect {
        recon: AdvectRecon::Upwind1,
        refine_above: 0.2,
        deref_below: 0.02,
        ..Advect::default()
    };
    let mut d = Driver::new(mesh(), pkg, params);
    d.initialize(gaussian_ic);
    d
}

/// Run lengths: 3 cycles, and 40, which carry the pulse far enough for
/// derefinements that migrate blocks between ranks.
const CYCLES: [u64; 2] = [3, 40];

/// Which part of a digest a field belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Kernel,
    P2p,
    Other,
}

/// The recorder's totals flattened into named counters.
fn digest(rec: &Recorder) -> BTreeMap<String, (Part, u64)> {
    let t = rec.totals();
    let mut d = BTreeMap::new();
    let mut put = |part: Part, name: String, v: u64| {
        d.insert(name, (part, v));
    };
    for ((func, name), k) in &t.kernels {
        let key = format!("kernel {}/{name}", func.name());
        put(Part::Kernel, format!("{key}.launches"), k.launches);
        put(Part::Kernel, format!("{key}.cells"), k.cells);
        put(Part::Kernel, format!("{key}.flops"), k.flops);
        put(Part::Kernel, format!("{key}.bytes"), k.bytes);
    }
    for (func, c) in &t.comm {
        let key = format!("comm {}", func.name());
        put(Part::P2p, format!("{key}.local_msgs"), c.p2p_local_messages);
        put(
            Part::P2p,
            format!("{key}.remote_msgs"),
            c.p2p_remote_messages,
        );
        put(Part::P2p, format!("{key}.local_bytes"), c.p2p_local_bytes);
        put(Part::P2p, format!("{key}.remote_bytes"), c.p2p_remote_bytes);
        put(Part::P2p, format!("{key}.cells"), c.cells_communicated);
        for (op, (count, bytes)) in &c.collectives {
            put(Part::Other, format!("{key}.{op:?}.count"), *count);
            put(Part::Other, format!("{key}.{op:?}.bytes"), *bytes);
        }
    }
    put(
        Part::P2p,
        "cells_communicated".to_string(),
        t.cells_communicated(),
    );
    for (func, s) in &t.serial {
        let key = format!("serial {}", func.name());
        put(Part::Other, format!("{key}.block_loop"), s.block_loop);
        put(Part::Other, format!("{key}.boundary_loop"), s.boundary_loop);
        put(Part::Other, format!("{key}.sorted_keys"), s.sorted_keys);
        put(
            Part::Other,
            format!("{key}.string_lookups"),
            s.string_lookups,
        );
        put(Part::Other, format!("{key}.allocations"), s.allocations);
        put(
            Part::Other,
            format!("{key}.host_copy_bytes"),
            s.host_copy_bytes,
        );
        put(Part::Other, format!("{key}.tree_ops"), s.tree_ops);
    }
    put(
        Part::Other,
        "mem Kokkos.current".to_string(),
        rec.mem_current(MemSpace::Kokkos) as u64,
    );
    d
}

/// Field-by-field differences between two digests over `parts`, as
/// printable lines (empty when they agree).
fn diff(
    a: &BTreeMap<String, (Part, u64)>,
    b: &BTreeMap<String, (Part, u64)>,
    parts: &[Part],
) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter_map(|k| {
            let (pa, va) = a.get(k).copied().unwrap_or((Part::Other, 0));
            let (pb, vb) = b.get(k).copied().unwrap_or((Part::Other, 0));
            let part = if a.contains_key(k) { pa } else { pb };
            (parts.contains(&part) && va != vb).then(|| format!("{k}: driver {va} vs ranks {vb}"))
        })
        .collect()
}

fn print(label: &str, d: &BTreeMap<String, (Part, u64)>) {
    println!("-- {label}");
    for (k, (_, v)) in d {
        println!("{k} = {v}");
    }
}

/// Digests of the driver and of the merged rank threads after `cycles`
/// cycles at `nranks` ranks.
type Digest = BTreeMap<String, (Part, u64)>;
fn digests(nranks: usize, cycles: u64) -> (Digest, Digest) {
    let mut d = replica(nranks);
    d.run_cycles(cycles);
    let run = run_distributed(nranks, cycles, || replica(nranks));
    (digest(d.recorder()), digest(&run.recorder))
}

#[test]
fn one_rank_digests_are_identical() {
    for cycles in CYCLES {
        let (driver, ranks) = digests(1, cycles);
        print(&format!("driver, 1 rank, {cycles} cycles"), &driver);
        let d = diff(&driver, &ranks, &[Part::Kernel, Part::P2p, Part::Other]);
        assert!(
            d.is_empty(),
            "1-rank digests differ after {cycles} cycles:\n{}",
            d.join("\n")
        );
    }
}

#[test]
fn kernel_and_p2p_totals_match_at_two_and_four_ranks() {
    for cycles in CYCLES {
        for nranks in [2usize, 4] {
            let (driver, ranks) = digests(nranks, cycles);
            print(
                &format!("driver, {nranks} virtual ranks, {cycles} cycles"),
                &driver,
            );
            let d = diff(&driver, &ranks, &[Part::Kernel, Part::P2p]);
            assert!(
                d.is_empty(),
                "{nranks}-rank kernel/p2p totals differ after {cycles} cycles:\n{}",
                d.join("\n")
            );
        }
    }
}
