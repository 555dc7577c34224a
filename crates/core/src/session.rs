//! The session API: one fluent entry point for the engine portfolio and
//! coverage runs.
//!
//! [`VerifySession`] unifies the ways the tool is driven — the
//! [`Engine`](crate::Engine) lanes selected by [`EngineKind`] (the RFN
//! abstraction-refinement loop, the plain symbolic model checker, SAT
//! bounded model checking, or a race of all three) and
//! unreachable-coverage-state analysis (Table 2) — behind one builder:
//!
//! ```
//! use rfn_core::prelude::*;
//! use rfn_netlist::{Netlist, Property};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut n = Netlist::new("demo");
//! # let flag = n.add_register("flag", Some(false));
//! # n.set_register_next(flag, flag)?;
//! # n.validate()?;
//! # let p = Property::never(&n, "flag_low", flag);
//! let report = VerifySession::new(&n)
//!     .property(&p)
//!     .threads(2)
//!     .run()?;
//! assert!(report.all_proved());
//! # Ok(())
//! # }
//! ```
//!
//! Every property (and coverage set) is an independent job with its own BDD
//! managers; jobs run on a work-stealing pool of [`VerifySession::threads`]
//! workers. When a trace sink is attached ([`VerifySession::trace`]), each
//! job buffers its events into a private [`MemorySink`] and the session
//! flushes the buffers **in job order** after all jobs finish — the merged
//! stream (modulo timestamps) is byte-identical at any thread count.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rfn_govern::Budget;
use rfn_mc::{verify_plain_group, GroupOptions, PlainOptions, PlainReport};
use rfn_netlist::{CoverageSet, Netlist, Property, PropertyGroups};
use rfn_trace::{merge_streams, Event, FanoutSink, MemorySink, StderrSink, TraceCtx, TraceSink};

use crate::engine::{bmc_verdict, build_engines, plain_verdict, run_engines};
use crate::{
    analyze_coverage, parallel_map, verify_bmc_group, BmcOptions, BmcReport, CoverageOptions,
    CoverageReport, DesignIdentity, EngineKind, RfnError, RfnOptions, RfnStats, Verdict,
};

/// Default Jaccard COI-overlap threshold for property grouping.
pub const DEFAULT_GROUP_THRESHOLD: f64 = 0.5;

/// The outcome of one property job.
#[derive(Clone, Debug)]
pub struct PropertyResult {
    /// The property that was verified.
    pub property: Property,
    /// The engine-independent verdict.
    pub verdict: Verdict,
    /// RFN run statistics, whenever the RFN lane ran.
    pub stats: Option<RfnStats>,
    /// The baseline report, whenever the plain-MC lane ran.
    pub plain: Option<PlainReport>,
    /// The bounded-model-checking report, whenever the BMC lane ran.
    pub bmc: Option<BmcReport>,
}

/// Everything a session run produced, in submission order.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// One result per property, in the order they were added.
    pub results: Vec<PropertyResult>,
    /// One report per coverage set, in the order they were added.
    pub coverage: Vec<CoverageReport>,
    /// The property groups the session scheduled, as indices into
    /// [`SessionReport::results`], in group order. Every property appears in
    /// exactly one group; with grouping disabled (or an engine lane that
    /// does not group) every group is a singleton.
    pub groups: Vec<Vec<usize>>,
}

impl SessionReport {
    /// Whether every property was proved (vacuously true with none).
    pub fn all_proved(&self) -> bool {
        self.results
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Proved))
    }

    /// The CLI's exit-code convention: `0` all proved, `1` some property
    /// falsified (outranks everything), `3` some property inconclusive.
    pub fn worst_exit_code(&self) -> u8 {
        let mut worst = 0u8;
        for r in &self.results {
            let code = match r.verdict {
                Verdict::Proved => 0,
                Verdict::Falsified { .. } => 1,
                Verdict::Inconclusive { .. } => 3,
            };
            worst = match (worst, code) {
                (1, _) | (_, 1) => 1,
                (3, _) | (_, 3) => 3,
                _ => code,
            };
        }
        worst
    }
}

/// Builder for a verification session over one netlist.
///
/// See the module-level docs above for an example and the event-determinism
/// contract.
#[derive(Clone)]
pub struct VerifySession<'n> {
    netlist: &'n Netlist,
    engine: EngineKind,
    properties: Vec<Property>,
    coverage_sets: Vec<CoverageSet>,
    options: RfnOptions,
    plain_options: PlainOptions,
    bmc_options: BmcOptions,
    coverage_options: CoverageOptions,
    budget: Option<Budget>,
    anchor_at_run: bool,
    threads: usize,
    grouping: bool,
    group_threshold: f64,
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for VerifySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifySession")
            .field("netlist", &self.netlist.name())
            .field("engine", &self.engine)
            .field("properties", &self.properties.len())
            .field("coverage_sets", &self.coverage_sets.len())
            .field("threads", &self.threads)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'n> VerifySession<'n> {
    /// Starts a session on the given design with default options: the RFN
    /// engine, one worker thread, no properties, no tracing.
    pub fn new(netlist: &'n Netlist) -> Self {
        VerifySession {
            netlist,
            engine: EngineKind::Rfn,
            properties: Vec::new(),
            coverage_sets: Vec::new(),
            options: RfnOptions::default(),
            plain_options: PlainOptions::default(),
            bmc_options: BmcOptions::default(),
            coverage_options: CoverageOptions::default(),
            budget: None,
            anchor_at_run: false,
            threads: 1,
            grouping: true,
            group_threshold: DEFAULT_GROUP_THRESHOLD,
            sink: None,
        }
    }

    /// Adds one property to the portfolio.
    #[must_use]
    pub fn property(mut self, property: &Property) -> Self {
        self.properties.push(property.clone());
        self
    }

    /// Adds several properties to the portfolio.
    #[must_use]
    pub fn properties(mut self, properties: impl IntoIterator<Item = Property>) -> Self {
        self.properties.extend(properties);
        self
    }

    /// Adds a coverage set; its analysis runs as one more portfolio job.
    #[must_use]
    pub fn coverage_set(mut self, set: &CoverageSet) -> Self {
        self.coverage_sets.push(set.clone());
        self
    }

    /// Selects the engine lane(s) for the property jobs (coverage jobs
    /// always use the RFN-style analysis).
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets one wall-clock budget **shared by every job** (RFN, plain and
    /// coverage): the clock starts when [`VerifySession::run`] is called and
    /// all jobs race the same deadline, regardless of when the pool gets to
    /// them. (Each job used to restart the clock for itself, so a portfolio
    /// could spend `jobs × limit` in total.)
    #[must_use]
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.budget = Some(
            self.budget
                .take()
                .unwrap_or_default()
                .with_wall_clock(limit),
        );
        self.anchor_at_run = true;
        self
    }

    /// Sets the shared resource budget of every job. The budget keeps its
    /// own anchor (its clock is **not** restarted at [`VerifySession::run`]);
    /// its cancellation token, ceilings and quotas are shared by all jobs.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self.anchor_at_run = false;
        self
    }

    /// Sets the checkpoint directory for the RFN jobs: each property
    /// snapshots its refinement loop to `<dir>/<property>.ckpt.json` after
    /// every completed iteration.
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.options.checkpoint_dir = Some(dir.into());
        self
    }

    /// When `true`, RFN jobs resume from their snapshots (if present) in the
    /// checkpoint directory instead of starting from scratch.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.options.resume = resume;
        self
    }

    /// Keys warm-start store entries and checkpoint design validation by the
    /// loaded design's canonical identity (a file content hash for designs
    /// loaded from `.aag`/`.aig`/`.cnf` files) instead of the netlist's
    /// structural hash. Drivers that load through
    /// [`DesignSource::load`](crate::DesignSource::load) should always pass
    /// the returned identity here, so a renamed file keeps its warm starts
    /// and checkpoints while a changed file never inherits stale ones.
    #[must_use]
    pub fn design_identity(mut self, identity: &DesignIdentity) -> Self {
        self.options.design_hash = Some(identity.hash);
        self
    }

    /// Sets the worker-thread count for the portfolio (default 1; results
    /// and the merged event stream do not depend on this).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables COI-overlap property grouping (default on).
    ///
    /// When on and the engine lane is [`EngineKind::PlainMc`] or
    /// [`EngineKind::Bmc`], properties whose register cones of influence
    /// overlap (Jaccard at least [`VerifySession::group_threshold`]) share
    /// one job: one model build, one reachability fixpoint (or one
    /// incremental SAT unrolling), one warm-start store entry. Verdicts and
    /// falsification depths are identical to ungrouped runs. Singleton
    /// groups run through the per-property engine lanes, whose plain-MC and
    /// BMC bodies are the group bodies on a group of one. The RFN and race
    /// lanes always run per property.
    #[must_use]
    pub fn grouping(mut self, grouping: bool) -> Self {
        self.grouping = grouping;
        self
    }

    /// Sets the Jaccard COI-overlap threshold for grouping (default
    /// [`DEFAULT_GROUP_THRESHOLD`]). Properties join a group when their
    /// register-COI Jaccard similarity with the group's leader reaches the
    /// threshold; above `1.0` every property is a singleton.
    #[must_use]
    pub fn group_threshold(mut self, threshold: f64) -> Self {
        self.group_threshold = threshold;
        self
    }

    /// Sets the stderr verbosity (routed through a [`StderrSink`], so the
    /// human log is the same event stream as the structured trace).
    #[must_use]
    pub fn verbosity(mut self, verbosity: u8) -> Self {
        self.options.verbosity = verbosity;
        self
    }

    /// Attaches a structured-event sink (e.g. a
    /// [`JsonlSink`](rfn_trace::JsonlSink) behind `--trace-out`). Events are
    /// buffered per job and flushed in job order after the run.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Replaces the RFN options wholesale (the builder's `time_limit` /
    /// `verbosity` apply on top if called afterwards).
    #[must_use]
    pub fn rfn_options(mut self, options: RfnOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the plain-MC options wholesale.
    #[must_use]
    pub fn plain_options(mut self, options: PlainOptions) -> Self {
        self.plain_options = options;
        self
    }

    /// Replaces the BMC options wholesale.
    #[must_use]
    pub fn bmc_options(mut self, options: BmcOptions) -> Self {
        self.bmc_options = options;
        self
    }

    /// Replaces the coverage options wholesale.
    #[must_use]
    pub fn coverage_options(mut self, options: CoverageOptions) -> Self {
        self.coverage_options = options;
        self
    }

    /// Runs every job and returns the collected report.
    ///
    /// # Errors
    ///
    /// Returns the first structural error in job order; capacity exhaustion
    /// is reported through verdicts, never as an `Err`.
    pub fn run(mut self) -> Result<SessionReport, RfnError> {
        // One budget for the whole portfolio: every job clones the same
        // deadline, ceilings and cancellation token.
        if let Some(budget) = self.budget.take() {
            let shared = if self.anchor_at_run {
                budget.restarted()
            } else {
                budget
            };
            self.options.common.budget = shared.clone();
            // Keep the plain engine's configured node ceiling; share the
            // deadline, memory ceiling and cancellation token.
            let plain_ceiling = self.plain_options.node_limit();
            self.plain_options = self
                .plain_options
                .with_budget(shared.clone().with_node_ceiling(plain_ceiling));
            self.bmc_options.common.budget = shared.clone();
            self.coverage_options.common.budget = shared;
        }
        let n_props = self.properties.len();
        let buffering = self.sink.is_some();

        // Group jobs: COI-overlap clusters for the lanes that can share a
        // model, singletons everywhere else. Clustering is deterministic,
        // so the job partition (and thus the merged event stream) does not
        // depend on the thread count.
        let use_groups = self.grouping
            && n_props > 1
            && matches!(self.engine, EngineKind::PlainMc | EngineKind::Bmc);
        let groups: Vec<(Vec<usize>, String)> = if use_groups {
            PropertyGroups::cluster(self.netlist, &self.properties, self.group_threshold)
                .groups()
                .iter()
                .map(|g| (g.members().to_vec(), g.key(&self.properties)))
                .collect()
        } else {
            (0..n_props)
                .map(|i| (vec![i], self.properties[i].name.clone()))
                .collect()
        };
        let n_groups = groups.len();
        let n_jobs = n_groups + self.coverage_sets.len();

        enum JobOut {
            Props(Vec<(usize, PropertyResult)>),
            Cov(Box<CoverageReport>),
        }

        let jobs: Vec<(Result<JobOut, RfnError>, Vec<Event>)> =
            parallel_map(n_jobs, self.threads, |i| {
                let mem = Arc::new(MemorySink::new());
                let ctx = self.job_ctx(&mem, buffering);
                let out = if i < n_groups {
                    let (members, key) = &groups[i];
                    if let [pi] = members[..] {
                        // Singletons run through the engine lanes (so the
                        // race and RFN lanes work), which run the plain-MC
                        // and BMC group bodies on a group of one.
                        self.run_property(&self.properties[pi], ctx)
                            .map(|r| JobOut::Props(vec![(pi, r)]))
                    } else {
                        self.run_group(members, key, ctx).map(JobOut::Props)
                    }
                } else {
                    let mut opts = self.coverage_options.clone();
                    opts.common.trace = ctx;
                    analyze_coverage(self.netlist, &self.coverage_sets[i - n_groups], &opts)
                        .map(|r| JobOut::Cov(Box::new(r)))
                };
                let events = if buffering { mem.take() } else { Vec::new() };
                (out, events)
            });

        // Flush buffered events in job order, so the merged stream is
        // independent of the thread count. Then surface the first error.
        let mut outs = Vec::with_capacity(n_jobs);
        let mut buffers = Vec::with_capacity(n_jobs);
        for (out, events) in jobs {
            outs.push(out);
            buffers.push(events);
        }
        if let Some(sink) = &self.sink {
            for event in merge_streams(buffers) {
                sink.emit(&event);
            }
        }

        // Scatter per-property results back into submission order.
        let mut slots: Vec<Option<PropertyResult>> = (0..n_props).map(|_| None).collect();
        let mut report = SessionReport {
            groups: groups.into_iter().map(|(members, _)| members).collect(),
            ..SessionReport::default()
        };
        for out in outs {
            match out? {
                JobOut::Props(results) => {
                    for (pi, r) in results {
                        slots[pi] = Some(r);
                    }
                }
                JobOut::Cov(r) => report.coverage.push(*r),
            }
        }
        report.results = slots
            .into_iter()
            .map(|s| s.expect("every property is in exactly one group"))
            .collect();
        Ok(report)
    }

    /// The event context for one job: a private memory buffer when a session
    /// sink is attached (fanned out to stderr when verbose), otherwise
    /// disabled — the engines then handle `verbosity` themselves.
    fn job_ctx(&self, mem: &Arc<MemorySink>, buffering: bool) -> TraceCtx {
        if !buffering {
            return TraceCtx::disabled();
        }
        if self.options.verbosity > 0 {
            TraceCtx::new(Arc::new(FanoutSink::new(vec![
                mem.clone() as Arc<dyn TraceSink>,
                Arc::new(StderrSink::new()),
            ])))
        } else {
            TraceCtx::new(mem.clone() as Arc<dyn TraceSink>)
        }
    }

    /// Runs one non-singleton group job: the group engines share a model,
    /// reached set or SAT unrolling across all members and return one
    /// per-property report each, which this maps onto the same
    /// [`PropertyResult`]s (and verdicts) the per-property lanes produce.
    fn run_group(
        &self,
        members: &[usize],
        key: &str,
        ctx: TraceCtx,
    ) -> Result<Vec<(usize, PropertyResult)>, RfnError> {
        let props: Vec<Property> = members
            .iter()
            .map(|&pi| self.properties[pi].clone())
            .collect();
        let results: Vec<PropertyResult> = match self.engine {
            EngineKind::PlainMc => {
                let mut plain = self.plain_options.clone();
                plain.common.trace = ctx;
                let mut opts = GroupOptions::default().with_plain(plain);
                if let Some(dir) = &self.options.order_cache_dir {
                    opts = opts.with_store_dir(dir.clone());
                }
                if let Some(hash) = self.options.design_hash {
                    opts = opts.with_design_hash(hash);
                }
                let reports = verify_plain_group(self.netlist, &props, key, &opts)?;
                props
                    .into_iter()
                    .zip(reports)
                    .map(|(property, report)| PropertyResult {
                        property,
                        verdict: plain_verdict(&report),
                        stats: None,
                        plain: Some(report),
                        bmc: None,
                    })
                    .collect()
            }
            EngineKind::Bmc => {
                let mut opts = self.bmc_options.clone();
                opts.common.trace = ctx;
                let reports = verify_bmc_group(self.netlist, &props, key, &opts)?;
                props
                    .into_iter()
                    .zip(reports)
                    .map(|(property, report)| PropertyResult {
                        property,
                        verdict: bmc_verdict(&report),
                        stats: None,
                        plain: None,
                        bmc: Some(report),
                    })
                    .collect()
            }
            EngineKind::Rfn | EngineKind::Race => {
                unreachable!("grouping only schedules the plain-MC and BMC lanes")
            }
        };
        Ok(members.iter().copied().zip(results).collect())
    }

    fn run_property(&self, property: &Property, ctx: TraceCtx) -> Result<PropertyResult, RfnError> {
        let mut lanes = build_engines(
            self.engine,
            self.netlist,
            property,
            &self.options,
            &self.plain_options,
            &self.bmc_options,
        );
        let outcome = run_engines(&mut lanes, &ctx)?;
        Ok(PropertyResult {
            property: property.clone(),
            verdict: outcome.verdict,
            stats: outcome.stats,
            plain: outcome.plain,
            bmc: outcome.bmc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;
    use rfn_trace::to_jsonl;

    fn two_property_design() -> (Netlist, Property, Property) {
        let mut n = Netlist::new("sess");
        // `safe` can never rise; `unsafe` latches once the counter fills.
        let safe = n.add_register("safe", Some(false));
        n.set_register_next(safe, safe).unwrap();
        let b = n.add_register("b", Some(false));
        let nb = n.add_gate("nb", GateOp::Not, &[b]);
        n.set_register_next(b, nb).unwrap();
        let w = n.add_register("w", Some(false));
        let wor = n.add_gate("wor", GateOp::Or, &[w, b]);
        n.set_register_next(w, wor).unwrap();
        n.validate().unwrap();
        let p_safe = Property::never(&n, "safe_low", safe);
        let p_unsafe = Property::never(&n, "w_low", w);
        (n, p_safe, p_unsafe)
    }

    #[test]
    fn session_runs_a_mixed_portfolio() {
        let (n, p_safe, p_unsafe) = two_property_design();
        let report = VerifySession::new(&n)
            .property(&p_safe)
            .property(&p_unsafe)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.results.len(), 2);
        assert!(matches!(report.results[0].verdict, Verdict::Proved));
        assert!(matches!(
            report.results[1].verdict,
            Verdict::Falsified { trace: Some(_), .. }
        ));
        assert_eq!(report.worst_exit_code(), 1);
        assert!(!report.all_proved());
    }

    #[test]
    fn plain_engine_reports_depths() {
        let (n, p_safe, p_unsafe) = two_property_design();
        let report = VerifySession::new(&n)
            .properties([p_safe, p_unsafe])
            .engine(EngineKind::PlainMc)
            .run()
            .unwrap();
        assert!(matches!(report.results[0].verdict, Verdict::Proved));
        assert!(matches!(
            report.results[1].verdict,
            Verdict::Falsified {
                trace: None,
                depth: 2
            }
        ));
        assert!(report.results[1].plain.is_some());
    }

    #[test]
    fn bmc_engine_agrees_with_plain_depths() {
        let (n, p_safe, p_unsafe) = two_property_design();
        let report = VerifySession::new(&n)
            .properties([p_safe, p_unsafe])
            .engine(EngineKind::Bmc)
            .run()
            .unwrap();
        // The safe property is only *bounded*-safe to BMC: inconclusive.
        assert!(matches!(
            report.results[0].verdict,
            Verdict::Inconclusive { .. }
        ));
        assert!(matches!(
            report.results[1].verdict,
            Verdict::Falsified {
                trace: Some(_),
                depth: 2
            }
        ));
        assert!(report.results[1].bmc.is_some());
    }

    #[test]
    fn race_takes_the_first_conclusive_lane() {
        let (n, p_safe, p_unsafe) = two_property_design();
        let report = VerifySession::new(&n)
            .properties([p_safe, p_unsafe])
            .engine(EngineKind::Race)
            .run()
            .unwrap();
        assert!(matches!(report.results[0].verdict, Verdict::Proved));
        assert!(matches!(
            report.results[1].verdict,
            Verdict::Falsified { .. }
        ));
        assert_eq!(report.worst_exit_code(), 1);
    }

    #[test]
    fn event_stream_is_identical_across_thread_counts() {
        let (n, p_safe, p_unsafe) = two_property_design();
        let run = |threads: usize| {
            let sink = Arc::new(MemorySink::new());
            VerifySession::new(&n)
                .property(&p_safe)
                .property(&p_unsafe)
                .threads(threads)
                .trace(sink.clone())
                .run()
                .unwrap();
            to_jsonl(&sink.take(), true)
        };
        let serial = run(1);
        assert!(serial.contains("\"name\":\"rfn\""));
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    /// A 2-bit saturating counter with detectors on values 1 and 2: both
    /// properties have the same register COI, so they group at any
    /// threshold up to 1.0.
    fn overlapping_design() -> (Netlist, Property, Property) {
        let mut n = Netlist::new("overlap");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let full = n.add_gate("full", GateOp::And, &[b0, b1]);
        let nb0 = n.add_gate("nb0", GateOp::Not, &[b0]);
        let t0 = n.add_gate("t0", GateOp::Or, &[nb0, full]);
        let inc1 = n.add_gate("inc1", GateOp::Xor, &[b1, b0]);
        let t1 = n.add_gate("t1", GateOp::Or, &[inc1, full]);
        n.set_register_next(b0, t0).unwrap();
        n.set_register_next(b1, t1).unwrap();
        let nb1 = n.add_gate("nb1", GateOp::Not, &[b1]);
        let at1 = n.add_gate("at1", GateOp::And, &[b0, nb1]);
        let at2 = n.add_gate("at2", GateOp::And, &[nb0, b1]);
        n.validate().unwrap();
        let p1 = Property::never(&n, "no_1", at1);
        let p2 = Property::never(&n, "no_2", at2);
        (n, p1, p2)
    }

    #[test]
    fn grouped_plain_session_matches_ungrouped_verdicts() {
        let (n, p1, p2) = overlapping_design();
        let grouped = VerifySession::new(&n)
            .properties([p1.clone(), p2.clone()])
            .engine(EngineKind::PlainMc)
            .run()
            .unwrap();
        assert_eq!(grouped.groups, vec![vec![0, 1]]);
        let ungrouped = VerifySession::new(&n)
            .properties([p1, p2])
            .engine(EngineKind::PlainMc)
            .grouping(false)
            .run()
            .unwrap();
        assert_eq!(ungrouped.groups, vec![vec![0], vec![1]]);
        for (g, u) in grouped.results.iter().zip(&ungrouped.results) {
            assert_eq!(format!("{:?}", g.verdict), format!("{:?}", u.verdict));
            assert!(g.plain.is_some());
        }
        assert!(matches!(
            grouped.results[0].verdict,
            Verdict::Falsified { depth: 1, .. }
        ));
        assert!(matches!(
            grouped.results[1].verdict,
            Verdict::Falsified { depth: 2, .. }
        ));
    }

    #[test]
    fn grouped_bmc_session_carries_traces() {
        let (n, p1, p2) = overlapping_design();
        let report = VerifySession::new(&n)
            .properties([p1, p2])
            .engine(EngineKind::Bmc)
            .run()
            .unwrap();
        assert_eq!(report.groups, vec![vec![0, 1]]);
        assert!(matches!(
            report.results[0].verdict,
            Verdict::Falsified {
                trace: Some(_),
                depth: 1
            }
        ));
        assert!(matches!(
            report.results[1].verdict,
            Verdict::Falsified {
                trace: Some(_),
                depth: 2
            }
        ));
        assert!(report.results.iter().all(|r| r.bmc.is_some()));
    }

    #[test]
    fn threshold_above_one_forces_singletons() {
        let (n, p1, p2) = overlapping_design();
        let report = VerifySession::new(&n)
            .properties([p1, p2])
            .engine(EngineKind::PlainMc)
            .group_threshold(1.1)
            .run()
            .unwrap();
        assert_eq!(report.groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn coverage_jobs_ride_in_the_same_session() {
        let (n, p_safe, _) = two_property_design();
        let b = n.find("b").unwrap();
        let w = n.find("w").unwrap();
        let set = CoverageSet::new("bw", [b, w]);
        let report = VerifySession::new(&n)
            .property(&p_safe)
            .coverage_set(&set)
            .run()
            .unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.coverage.len(), 1);
        assert_eq!(report.coverage[0].total_states, 4);
    }
}
