//! CI gate for the rank-parallel runtime: runs the gate workload through
//! `vibe-rt` for every `(ranks, host_threads)` combination in the probe
//! matrix and fails unless every merged solution fingerprint is bitwise
//! identical to the single-process driver's.
//!
//! Usage: `rt_gate` — override the matrix with `VIBE_RT_RANKS=1,2,8` and
//! `VIBE_RT_THREADS=1,8` (those are the defaults).

use vibe_bench::{env_list, format_table, run_workload, run_workload_distributed, WorkloadSpec};

fn main() {
    let ranks = env_list("VIBE_RT_RANKS", &[1, 2, 8]);
    let threads = env_list("VIBE_RT_THREADS", &[1, 8]);
    let base = WorkloadSpec {
        mesh_cells: 16,
        block_cells: 8,
        levels: 2,
        cycles: 3,
        num_scalars: 1,
        ..WorkloadSpec::default()
    };
    let reference = run_workload(&base);
    eprintln!(
        "rt gate: reference fingerprint {:016x} ({} final blocks)",
        reference.state_fingerprint, reference.final_blocks
    );
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for &nranks in &ranks {
        for &host_threads in &threads {
            let spec = WorkloadSpec {
                nranks,
                host_threads,
                ..base
            };
            let run = run_workload_distributed(&spec);
            let ok = run.fingerprint == reference.state_fingerprint;
            failures += usize::from(!ok);
            rows.push(vec![
                nranks.to_string(),
                host_threads.to_string(),
                format!("{:.1}", run.elapsed_ns() as f64 / 1e6),
                run.dependency_edges.to_string(),
                format!("{:016x}", run.fingerprint),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "ranks",
                "threads",
                "wall(ms)",
                "p2p edges",
                "fingerprint",
                "gate"
            ],
            &rows
        )
    );
    if failures > 0 {
        eprintln!("ERROR: {failures} rank-parallel run(s) diverged from the driver");
        std::process::exit(1);
    }
    println!("rank-parallel fingerprint gate passed for ranks {ranks:?} x threads {threads:?}");
}
