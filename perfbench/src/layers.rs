//! Per-layer metrics of one traced pass, derived from the engines' spans
//! and from the stats structs the session reports return.
//!
//! Layers are named after the crates and modules that do the work. Time
//! metrics are span self times (see [`crate::selftime`]) summed per layer;
//! counts come from span exit fields, trace counters and report stats.

use std::collections::BTreeMap;

use rfn_bdd::BddStats;
use rfn_core::prelude::*;
use rfn_trace::{Event, EventKind, Fields, Value};

use crate::selftime::span_times;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.jobs", "count"),
    ("session.groups", "count"),
    ("session.errors", "count"),
    ("session.self_s", "s"),
    ("session.race_self_s", "s"),
    ("session.race_wins.rfn", "count"),
    ("session.race_wins.plain", "count"),
    ("session.race_wins.bmc", "count"),
    ("rfn.iterations", "count"),
    ("rfn.abstract_registers", "count"),
    ("rfn.loop_self_s", "s"),
    ("coverage.unresolved", "count"),
    ("mc.reach_s", "s"),
    ("mc.reach_calls", "count"),
    ("mc.images", "count"),
    ("mc.image_nodes", "count"),
    ("mc.plain_s", "s"),
    ("mc.group_s", "s"),
    ("bdd.unique_probes", "count"),
    ("bdd.collisions_per_probe", "ratio"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_nodes_freed", "count"),
    ("bdd.peak_nodes", "count"),
    ("bdd.sift_runs", "count"),
    ("bdd.sift_s", "s"),
    ("hybrid.s", "s"),
    ("hybrid.calls", "count"),
    ("hybrid.min_cut_steps", "count"),
    ("hybrid.fallback_steps", "count"),
    ("sim.random_s", "s"),
    ("sim.patterns", "count"),
    ("sim.gate_evals", "count"),
    ("sim.hit_rate", "ratio"),
    ("sim.wins", "count"),
    ("atpg.concretize_s", "s"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("concretize.real_frac", "ratio"),
    ("refine.s", "s"),
    ("refine.calls", "count"),
    ("refine.added_per_candidate", "ratio"),
    ("sat.bmc_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.learned", "count"),
    ("sat.refinements", "count"),
    ("sat.frames_per_s", "1/s"),
    ("source.load_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The time metric a span's self time counts toward.
fn time_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "rfn" | "iteration" | "coverage" => "rfn.loop_self_s",
        "reach" | "reach_multi" => "mc.reach_s",
        "plain_mc" => "mc.plain_s",
        "plain_mc_group" => "mc.group_s",
        "hybrid" => "hybrid.s",
        "concretize" => "atpg.concretize_s",
        "sim.random" => "sim.random_s",
        "refine" => "refine.s",
        "bmc" | "bmc_group" => "sat.bmc_s",
        "race" => "session.race_self_s",
        _ => return None,
    })
}

fn field<'f>(fields: &'f Fields, key: &str) -> Option<&'f Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn count(fields: &Fields, key: &str) -> f64 {
    match field(fields, key) {
        Some(Value::U64(n)) => *n as f64,
        _ => 0.0,
    }
}

fn text<'f>(fields: &'f Fields, key: &str) -> Option<&'f str> {
    match field(fields, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accumulates one traced pass, job by job.
#[derive(Default)]
pub struct LayerPass {
    sums: BTreeMap<&'static str, f64>,
    bdd: BddStats,
    wall_s: f64,
    span_self_s: f64,
    sim_hits: f64,
    concretize_attempts: f64,
    concretize_real: f64,
    refine_added: f64,
    refine_candidates: f64,
    sat_frames: f64,
}

impl LayerPass {
    fn add(&mut self, metric: &'static str, x: f64) {
        *self.sums.entry(metric).or_default() += x;
    }

    /// Folds in one job: its `run` wall time, the events its session
    /// emitted, and its report (`None` when the run failed).
    pub fn add_job(&mut self, wall_s: f64, events: &[Event], report: Option<&SessionReport>) {
        self.wall_s += wall_s;
        self.add("session.jobs", 1.0);
        let spans = span_times(events);
        let roots_s: f64 = spans
            .iter()
            .filter(|s| s.root)
            .map(|s| s.elapsed_us as f64 / 1e6)
            .sum();
        self.add("session.self_s", (wall_s - roots_s).max(0.0));
        for span in &spans {
            let self_s = span.self_us as f64 / 1e6;
            self.span_self_s += self_s;
            if let Some(metric) = time_metric(&span.name) {
                self.add(metric, self_s);
            }
            let f = &span.fields;
            match span.name.as_str() {
                "reach" | "reach_multi" => self.add("mc.reach_calls", 1.0),
                "hybrid" => {
                    self.add("hybrid.calls", 1.0);
                    self.add("hybrid.min_cut_steps", count(f, "min_cut_steps"));
                    self.add("hybrid.fallback_steps", count(f, "fallback_steps"));
                }
                "sim.random" => {
                    self.add("sim.patterns", count(f, "patterns"));
                    self.add("sim.gate_evals", count(f, "gate_evals"));
                    self.sim_hits += count(f, "hits");
                }
                "concretize" => {
                    self.add("atpg.decisions", count(f, "atpg_decisions"));
                    self.add("atpg.backtracks", count(f, "atpg_backtracks"));
                    if let Some(outcome) = text(f, "outcome") {
                        self.concretize_attempts += 1.0;
                        if outcome == "falsified" {
                            self.concretize_real += 1.0;
                        }
                    }
                    if text(f, "engine") == Some("random") {
                        self.add("sim.wins", 1.0);
                    }
                }
                "refine" => {
                    self.add("refine.calls", 1.0);
                    self.refine_added += count(f, "added");
                    self.refine_candidates += count(f, "candidates");
                }
                "race" => match text(f, "winner") {
                    Some("rfn") => self.add("session.race_wins.rfn", 1.0),
                    Some("plain_mc") => self.add("session.race_wins.plain", 1.0),
                    Some("bmc") => self.add("session.race_wins.bmc", 1.0),
                    _ => {}
                },
                _ => {}
            }
        }
        for event in events {
            if let EventKind::Counter { name, value, .. } = &event.kind {
                if name == "reach.image_nodes" {
                    self.add("mc.images", 1.0);
                    self.add("mc.image_nodes", *value as f64);
                }
            }
        }
        match report {
            Some(report) => self.add_report(report),
            None => self.add("session.errors", 1.0),
        }
    }

    fn add_report(&mut self, report: &SessionReport) {
        self.add("session.groups", report.groups.len() as f64);
        // Members of a plain-MC or BMC group share one run, and each
        // member's report repeats the shared counters: count them once.
        for members in &report.groups {
            let first = &report.results[members[0]];
            if let Some(stats) = &first.stats {
                self.add("rfn.iterations", stats.iterations as f64);
                self.add("rfn.abstract_registers", stats.abstract_registers as f64);
                self.bdd.merge(&stats.bdd);
            }
            if let Some(plain) = &first.plain {
                self.bdd.merge(&plain.stats);
            }
            if let Some(bmc) = &first.bmc {
                let s = &bmc.stats.solver;
                self.add("sat.conflicts", s.conflicts as f64);
                self.add("sat.propagations", s.propagations as f64);
                self.add("sat.decisions", s.decisions as f64);
                self.add("sat.restarts", s.restarts as f64);
                self.add("sat.learned", s.learned as f64);
                self.add("sat.refinements", bmc.stats.refinements as f64);
                // The group's unrolling is as deep as its deepest member.
                let deepest = members
                    .iter()
                    .filter_map(|&m| report.results[m].bmc.as_ref())
                    .filter_map(|b| match &b.verdict {
                        BmcVerdict::Falsified { depth } | BmcVerdict::BoundedSafe { depth } => {
                            Some(*depth)
                        }
                        BmcVerdict::OutOfBudget { depth, .. } => *depth,
                    })
                    .max();
                self.sat_frames += deepest.map_or(0.0, |d| d as f64 + 1.0);
            }
        }
        for c in &report.coverage {
            self.add("rfn.iterations", c.iterations as f64);
            self.add("rfn.abstract_registers", c.abstract_registers as f64);
            self.add("coverage.unresolved", c.unresolved as f64);
            self.bdd.merge(&c.stats);
        }
    }

    /// Summed `run` wall time of the pass.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Self time of every span plus session time outside any span, as a
    /// share of the pass's wall time. Each instant of a job belongs to
    /// exactly one span's self time or to the session, so this is 1 up to
    /// overlapping race lanes, which count once per lane.
    pub fn attributed_frac(&self) -> f64 {
        let session = self.sums.get("session.self_s").copied().unwrap_or(0.0);
        ratio(self.span_self_s + session, self.wall_s)
    }

    /// The pass's metrics, keyed by [`PER_LAYER`] name (without the two
    /// that need more than one pass or the set-up: `source.load_s` and
    /// `trace.overhead_frac`).
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        m.remove("source.load_s");
        m.remove("trace.overhead_frac");
        for (name, value) in &self.sums {
            m.insert(name, *value);
        }
        let b = &self.bdd;
        m.insert("bdd.unique_probes", b.unique_probes as f64);
        m.insert(
            "bdd.collisions_per_probe",
            ratio(b.unique_collisions as f64, b.unique_probes as f64),
        );
        m.insert("bdd.cache_hit_rate", b.cache_hit_rate());
        m.insert("bdd.gc_runs", b.gc_runs as f64);
        m.insert("bdd.gc_nodes_freed", b.gc_nodes_freed as f64);
        m.insert("bdd.peak_nodes", b.peak_nodes as f64);
        m.insert("bdd.sift_runs", b.sift_runs as f64);
        m.insert("bdd.sift_s", b.sift_us as f64 / 1e6);
        let sum = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
        m.insert("sim.hit_rate", ratio(self.sim_hits, sum("sim.patterns")));
        m.insert(
            "concretize.real_frac",
            ratio(self.concretize_real, self.concretize_attempts),
        );
        m.insert(
            "refine.added_per_candidate",
            ratio(self.refine_added, self.refine_candidates),
        );
        m.insert("sat.frames_per_s", ratio(self.sat_frames, sum("sat.bmc_s")));
        m
    }
}

/// Self time per layer, for the human-readable breakdown: the layer name
/// and the time metrics it sums.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("session", &["session.self_s", "session.race_self_s"]),
    ("rfn", &["rfn.loop_self_s"]),
    ("mc", &["mc.reach_s", "mc.plain_s", "mc.group_s"]),
    ("hybrid", &["hybrid.s"]),
    ("sim", &["sim.random_s"]),
    ("atpg", &["atpg.concretize_s"]),
    ("refine", &["refine.s"]),
    ("sat", &["sat.bmc_s"]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_trace::{MemorySink, TraceCtx};
    use std::sync::Arc;

    #[test]
    fn span_fields_and_counters_land_in_their_layers() {
        let sink = Arc::new(MemorySink::new());
        let ctx = TraceCtx::new(sink.clone());
        {
            let _rfn = ctx.span("rfn");
            {
                let _reach = ctx.span("reach");
                ctx.counter("reach.image_nodes", 40);
                ctx.counter("reach.image_nodes", 60);
            }
            let mut refine = ctx.span("refine");
            refine.record("added", 2u64);
            refine.record("candidates", 8u64);
        }
        let events = sink.take();
        let mut pass = LayerPass::default();
        pass.add_job(1.0, &events, None);
        let m = pass.metrics();
        assert_eq!(m["mc.images"], 2.0);
        assert_eq!(m["mc.image_nodes"], 100.0);
        assert_eq!(m["mc.reach_calls"], 1.0);
        assert_eq!(m["refine.calls"], 1.0);
        assert_eq!(m["refine.added_per_candidate"], 0.25);
        assert_eq!(m["session.errors"], 1.0);
        // Every instant of the job is attributed exactly once.
        assert!((pass.attributed_frac() - 1.0).abs() < 1e-9);
        assert_eq!(m.len(), PER_LAYER.len() - 2);
    }
}
