//! The benchmark's own spans around calls into the program, and the
//! per-layer budget folded from them and from the program's region trace.

use std::collections::BTreeMap;
use std::time::Instant;

use vibe_bench::format_table as table;
use vibe_prof::{StepFunction, TraceEvent};

use crate::report::median;

/// One timed call into the program's public API.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    dur_ns: u64,
}

/// Spans recorded by the benchmark, in call order.
#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.0.push(Span {
            name,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
        r
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Median duration of `name` in ms (0 when never recorded).
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Total duration of `name` in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }
}

/// Region totals folded from a region trace over a time window.
#[derive(Debug, Default, Clone)]
pub struct RegionFold {
    /// Inclusive ns per region name, counting only occurrences with no
    /// enclosing region of the same name.
    pub inclusive: BTreeMap<&'static str, u64>,
    /// Self ns per region name: its span minus the child spans it covers.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Entries per region name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Total ns of outermost regions (the part of the window any region
    /// covers).
    pub covered_ns: u64,
}

impl RegionFold {
    pub fn inclusive_ns(&self, name: &str) -> u64 {
        self.inclusive.get(name).copied().unwrap_or(0)
    }

    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Adds another fold (e.g. another rank's) into this one.
    pub fn absorb(&mut self, o: &RegionFold) {
        for (k, v) in &o.inclusive {
            *self.inclusive.entry(k).or_default() += v;
        }
        for (k, v) in &o.self_ns {
            *self.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in &o.calls {
            *self.calls.entry(k).or_default() += v;
        }
        self.covered_ns += o.covered_ns;
    }
}

/// Folds one thread's region events (category `region`; worker-pool
/// dispatch events are skipped) that lie inside `[lo_ns, hi_ns]` (event
/// clock) into inclusive and self times. Regions nest strictly on one
/// thread, so a stack over start-ordered events recovers the tree.
pub fn fold_regions(events: &[TraceEvent], lo_ns: u64, hi_ns: u64) -> RegionFold {
    let mut evs: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.cat == "region" && e.ts_ns >= lo_ns && e.ts_ns + e.dur_ns <= hi_ns)
        .collect();
    evs.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
    let mut fold = RegionFold::default();
    // (end ns, name) of the open regions, outermost first.
    let mut stack: Vec<(u64, &'static str)> = Vec::new();
    for e in evs {
        let end = e.ts_ns + e.dur_ns;
        while stack
            .last()
            .is_some_and(|&(open_end, _)| open_end <= e.ts_ns)
        {
            stack.pop();
        }
        match stack.last() {
            Some(&(_, parent)) => {
                let p = fold.self_ns.entry(parent).or_default();
                *p = p.saturating_sub(e.dur_ns);
            }
            None => fold.covered_ns += e.dur_ns,
        }
        if !stack.iter().any(|&(_, n)| n == e.name) {
            *fold.inclusive.entry(e.name).or_default() += e.dur_ns;
        }
        *fold.self_ns.entry(e.name).or_default() += e.dur_ns;
        *fold.calls.entry(e.name).or_default() += 1;
        stack.push((end, e.name));
    }
    fold
}

/// The program layer a region belongs to.
pub fn layer_of(region: &str) -> &'static str {
    match region {
        "CalculateFluxes" => "burgers",
        "GhostExchange"
        | "StartReceiveBoundBufs"
        | "SendBoundBufs"
        | "ReceiveBoundBufs"
        | "SetBounds"
        | "PhysicalBCs"
        | "FluxCorrection"
        | "InitializeBufferCache"
        | "RebuildBufferCache" => "field",
        "Refinement::Tag" | "UpdateMeshBlockTree" | "RedistributeAndRefineMeshBlocks" => "mesh",
        _ => "core",
    }
}

fn step_function(region: &str) -> Option<StepFunction> {
    StepFunction::all()
        .iter()
        .copied()
        .find(|f| f.name() == region)
}

/// The reconciled per-layer budget of the timed cycles: every region's
/// self time, the layers they add up to, and the residual between the
/// benchmark's cycle spans and the program's outermost regions.
#[derive(Debug)]
pub struct Budget {
    pub cycles: u64,
    /// Sum of the benchmark's cycle spans (per rank), ns.
    pub wall_ns: u64,
    pub fold: RegionFold,
    /// Modeled seconds per step function (hwmodel, same recorded
    /// workload).
    pub modeled_s: BTreeMap<StepFunction, f64>,
}

impl Budget {
    /// Cycle wall no region covers: the call into the program and the
    /// work it does outside its own regions.
    pub fn residual_ns(&self) -> i64 {
        self.wall_ns as i64 - self.fold.covered_ns as i64
    }

    pub fn per_cycle_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.cycles.max(1) as f64
    }

    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut m: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, ns) in &self.fold.self_ns {
            *m.entry(layer_of(name)).or_default() += ns;
        }
        m
    }

    /// The budget as text: region rows with measured and modeled shares,
    /// then layer rows that reconcile to the cycle wall.
    pub fn render(&self) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let modeled_total: f64 = self.modeled_s.values().sum();
        let step_self: u64 = self
            .fold
            .self_ns
            .iter()
            .filter(|(n, _)| step_function(n).is_some())
            .map(|(_, v)| v)
            .sum();
        let mut rows = Vec::new();
        for (name, &self_ns) in &self.fold.self_ns {
            let func = step_function(name);
            let (meas, model) = match func {
                Some(f) => (
                    format!("{:.1}%", 100.0 * self_ns as f64 / step_self.max(1) as f64),
                    format!(
                        "{:.1}%",
                        100.0 * self.modeled_s.get(&f).copied().unwrap_or(0.0)
                            / modeled_total.max(f64::MIN_POSITIVE)
                    ),
                ),
                None => ("-".into(), "-".into()),
            };
            rows.push(vec![
                layer_of(name).to_string(),
                name.to_string(),
                format!(
                    "{:.1}",
                    self.fold.calls.get(name).copied().unwrap_or(0) as f64
                        / self.cycles.max(1) as f64
                ),
                format!("{:.3}", self.per_cycle_ms(self.fold.inclusive_ns(name))),
                format!("{:.3}", self.per_cycle_ms(self_ns)),
                format!("{:.1}%", 100.0 * self_ns as f64 / wall),
                meas,
                model,
            ]);
        }
        let mut out = table(
            &[
                "layer",
                "region",
                "calls/cyc",
                "incl ms/cyc",
                "self ms/cyc",
                "self/wall",
                "step meas%",
                "hwmodel%",
            ],
            &rows,
        );
        let mut lrows = Vec::new();
        let mut sum = 0i64;
        for (layer, ns) in self.layer_self_ns() {
            sum += ns as i64;
            lrows.push(vec![
                layer.to_string(),
                format!("{:.3}", self.per_cycle_ms(ns)),
                format!("{:.1}%", 100.0 * ns as f64 / wall),
            ]);
        }
        let res = self.residual_ns();
        sum += res;
        lrows.push(vec![
            "residual".into(),
            format!("{:.3}", res as f64 / 1e6 / self.cycles.max(1) as f64),
            format!("{:.1}%", 100.0 * res as f64 / wall),
        ]);
        lrows.push(vec![
            "= cycle wall".into(),
            format!("{:.3}", sum as f64 / 1e6 / self.cycles.max(1) as f64),
            format!("{:.1}%", 100.0 * sum as f64 / wall),
        ]);
        out.push('\n');
        out.push_str(&table(&["layer", "self ms/cyc", "share"], &lrows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "region",
            ts_ns: ts,
            dur_ns: dur,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let evs = [
            ev("Cycle", 0, 100),
            ev("GhostExchange", 10, 30),
            ev("SetBounds", 15, 10),
            ev("GhostExchange", 20, 5),
            ev("CalculateFluxes", 50, 40),
            ev("Cycle", 200, 50),
            ev("Initialize", 1000, 10),
            TraceEvent {
                cat: "pool",
                ..ev("Stage0::InteriorFlux", 50, 40)
            },
        ];
        let f = fold_regions(&evs, 0, 500);
        assert_eq!(f.self_of("Cycle"), 100 - 30 - 40 + 50);
        assert_eq!(f.self_of("GhostExchange"), 30 - 10 + 5);
        assert_eq!(f.inclusive_ns("GhostExchange"), 30);
        assert_eq!(f.self_of("SetBounds"), 10 - 5);
        assert_eq!(f.covered_ns, 150);
        assert_eq!(f.self_of("Initialize"), 0);
        let total: u64 = f.self_ns.values().sum();
        assert_eq!(total, f.covered_ns);
    }

    #[test]
    fn layers_and_residual_reconcile_to_the_wall() {
        let evs = [ev("Cycle", 0, 90), ev("CalculateFluxes", 10, 40)];
        let b = Budget {
            cycles: 1,
            wall_ns: 100,
            fold: fold_regions(&evs, 0, 100),
            modeled_s: BTreeMap::new(),
        };
        let layers: u64 = b.layer_self_ns().values().sum();
        assert_eq!(layers as i64 + b.residual_ns(), 100);
        assert!(b.render().contains("residual"));
    }
}
