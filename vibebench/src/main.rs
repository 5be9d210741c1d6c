//! The vibe-amr benchmark.
//!
//! `vibebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's inputs from the seed, measures for `--seconds`,
//! checks every result, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and the
//! reconciled per-layer budget. The lines before the result hold the host
//! record and what the run saw.

mod checks;
mod inputs;
mod report;
mod serve;
mod sim;
mod trace;

use report::Outcome;
use sim::SimSpec;

/// The end-to-end metrics, reported by every workload: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("fom_zcps", "zc/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
];

/// The per-layer metrics of a traced run: (name, unit). A workload where
/// a metric does not apply reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.cycle_ms_p50", "ms"),
    ("core.warmup_cycle_ms", "ms"),
    ("core.init_ms", "ms"),
    ("core.alloc_ms", "ms"),
    ("core.cycle_self_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.block_loops", "count"),
    ("core.string_lookups", "count"),
    ("core.allocations", "count"),
    ("burgers.flux_ms", "ms"),
    ("burgers.ns_per_face", "ns"),
    ("burgers.faces", "count"),
    ("burgers.vector_share", "ratio"),
    ("burgers.flops", "flop"),
    ("burgers.bytes", "B"),
    ("field.ghost_fill_ms", "ms"),
    ("field.ghost_fill_frac", "ratio"),
    ("field.fluxcorr_ms", "ms"),
    ("field.cells_communicated", "count"),
    ("field.host_copy_bytes", "B"),
    ("field.bytes_mb", "MB"),
    ("mesh.regrid_ms", "ms"),
    ("mesh.load_balance_ms", "ms"),
    ("mesh.blocks", "count"),
    ("mesh.level_boundaries", "count"),
    ("mesh.tree_ops", "count"),
    ("comm.local_messages", "count"),
    ("comm.remote_messages", "count"),
    ("comm.remote_bytes", "B"),
    ("comm.collectives", "count"),
    ("comm.pack_serialization_ms", "ms"),
    ("comm.late_sender_ms", "ms"),
    ("comm.collective_imbalance_ms", "ms"),
    ("rt.session_setup_ms", "ms"),
    ("rt.rank_wall_imbalance", "ratio"),
    ("rt.block_imbalance", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.turnaround_ms_p50", "ms"),
    ("serve.turnaround_ms_p90", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cycles_executed_ratio", "ratio"),
    ("serve.backlog_max", "count"),
    ("serve.generator_late_ms_max", "ms"),
    ("serve.job_ms_p50.lo", "ms"),
    ("serve.job_ms_p90.lo", "ms"),
    ("serve.job_ms_p50.hi", "ms"),
    ("serve.job_ms_p90.hi", "ms"),
    ("serve.jobs_per_s.hi", "1/s"),
    ("serve.job_samples.lo", "count"),
    ("serve.job_samples.hi", "count"),
    ("budget.residual_ms", "ms"),
    ("prof.trace_overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &["m64_b16_l2", "m32_b8_l3", "m64_b16_l2_r2", "serve_mix"];

fn sim_spec(workload: &str) -> Option<SimSpec> {
    let (mesh_cells, block_cells, levels, ranks) = match workload {
        "m64_b16_l2" => (64, 16, 2, 1),
        "m32_b8_l3" => (32, 8, 3, 1),
        "m64_b16_l2_r2" => (64, 16, 2, 2),
        _ => return None,
    };
    Some(SimSpec {
        mesh_cells,
        block_cells,
        levels,
        ranks,
        golden: mesh_cells == 64,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Orders the reported metrics as `list` and fills the ones the workload
/// does not produce with 0.
fn complete(out: &mut Outcome, list: &[(&str, &'static str)]) {
    let mut ordered = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(report::Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    out.metrics = ordered;
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vibebench: {e}");
            std::process::exit(2);
        }
    };
    let spec = sim_spec(&args.workload);
    let ranks = spec.map_or(1, |s| s.ranks);
    // serve_mix runs two runner threads plus the generator.
    let threads = if spec.is_some() { 1 } else { 2 };
    println!("host: {}", report::host_record(ranks, threads));
    let mut out = Outcome::default();
    match (spec, args.trace) {
        (Some(s), false) => sim::run(&s, args.seed, args.seconds, &mut out),
        (Some(s), true) => sim::run_traced(&s, args.seed, args.seconds, &mut out),
        (None, false) => serve::run(args.seed, args.seconds, &mut out),
        (None, true) => serve::run_traced(args.seed, args.seconds, &mut out),
    }
    complete(&mut out, if args.trace { PER_LAYER } else { END_TO_END });
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "failed_frac: {} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists agree with `BENCHMARK.json` at the repository root.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = vibe_serve::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(vibe_serve::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| match m.get(k) {
                            Some(vibe_serve::Json::Str(v)) => v.clone(),
                            _ => String::new(),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
