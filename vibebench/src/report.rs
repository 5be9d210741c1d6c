//! Result assembly: order statistics, the host record, and the one-line
//! JSON result the benchmark prints last.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics plus the correctness tally of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Correctness checks (or jobs) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Tallies one correctness check, noting a failure with its reason.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.notes.push(format!("check {name}: ok")),
            Err(why) => {
                self.failed += 1;
                self.notes.push(format!("check {name}: FAILED: {why}"));
            }
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each value printed with all its digits.
    pub fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite f64 in Rust's shortest round-trip form; non-finite values
/// (which no metric should produce) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The host a result was measured on, as one JSON object.
pub fn host_record(ranks: usize, threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustflags = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            s.lines()
                .map(str::trim)
                .find(|l| l.starts_with("rustflags"))
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into());
    let mut s = format!(
        "{{\"available_parallelism\": {cores}, \"cpu_model\": \"{}\", \"rustflags\": \"{}\", \"git_rev\": \"{}\", \"ranks\": {ranks}, \"threads_per_rank\": {threads}",
        escape(&cpu),
        escape(&rustflags),
        escape(&git_rev())
    );
    if ranks * threads > cores {
        s.push_str(", \"oversubscribed\": true");
    }
    s.push('}');
    s
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree without git metadata reports `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("fom_zcps", 1.25e6, "zc/s");
        o.check("x", Ok(()));
        o.check("y", Err("bad".into()));
        let line = o.result_json();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"fom_zcps\": {\"value\": 1250000.0, \"unit\": \"zc/s\"}}}"
        );
        vibe_prof::validate_json(&line).unwrap();
    }
}
