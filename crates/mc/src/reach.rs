//! Forward reachability with onion rings: the crate's one fixpoint loop,
//! which tests every ring against a slice of targets. [`forward_reach`]
//! runs it on one target and
//! [`forward_reach_multi`](crate::forward_reach_multi) on a whole group, so
//! a single property is a group of one.

use std::fmt;
use std::time::{Duration, Instant};

use rfn_bdd::{Bdd, BddError, BddStats, DoublingTrigger};
use rfn_govern::{Budget, Exhaustion, GovPhase};
use rfn_trace::{Span, TraceCtx};

use crate::{CommonOptions, McError, SymbolicModel};

/// How far a scheduled sift pass lets the table grow while it moves one
/// group (see [`BddManager::sift_with_roots`](rfn_bdd::BddManager::sift_with_roots)).
const SIFT_GROWTH_LIMIT: f64 = 1.5;

/// Configuration for [`forward_reach`].
#[derive(Clone, Debug)]
pub struct ReachOptions {
    /// Maximum image steps before giving up.
    pub max_steps: usize,
    /// Enable dynamic variable reordering between images: a sift pass runs
    /// whenever the live node count has doubled past the trigger floor (see
    /// [`DoublingTrigger`]).
    pub reorder: bool,
    /// The reorder trigger floor: no sift runs while the live node count is
    /// at or below it. Loops that run one fixpoint per iteration carry it
    /// across the run (see [`ReachOptions::back_off_reorder`]).
    pub reorder_threshold: usize,
    /// The budget and trace context shared with every other engine (see
    /// [`CommonOptions`]). The budget governs the fixpoint — wall-clock
    /// deadline (plus an optional
    /// [`GovPhase::Reach`](rfn_govern::GovPhase::Reach) quota),
    /// cancellation, node and memory ceilings — and is also installed on the
    /// model's BDD manager for the duration of the call, so exhaustion is
    /// detected *inside* long-running image operations, not just between
    /// steps.
    ///
    /// The legacy `time_limit` knob is a view over the budget: see
    /// [`ReachOptions::with_time_limit`] / [`ReachOptions::time_limit`].
    pub common: CommonOptions,
    /// Enable the kernel's automatic garbage collector for the duration of
    /// the fixpoint. Rings, the reached set, the targets and the model's
    /// persistent roots are protected; image intermediates become
    /// collectible as soon as each step completes.
    pub auto_gc: bool,
    /// Node-count threshold for clustering the transition partitions.
    /// Consumers pass this to [`ModelOptions`](crate::ModelOptions) when
    /// building the [`SymbolicModel`]; `0` keeps the linear per-register
    /// schedule.
    pub cluster_limit: usize,
    /// Initial variable-order strategy. Like
    /// [`cluster_limit`](ReachOptions::cluster_limit), this is consumed at
    /// model-construction time: consumers pass it to
    /// [`ModelOptions`](crate::ModelOptions) when building the
    /// [`SymbolicModel`] this fixpoint will run on.
    pub static_order: crate::StaticOrder,
    /// Minimize the frontier against the reached set (as don't-cares) with
    /// the sibling-substitution restrict operator before each image. The
    /// frontier may be replaced by any set between itself and `reached`,
    /// which leaves every ring and the verdict unchanged while shrinking the
    /// BDD fed to the image.
    pub frontier_simplify: bool,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_steps: usize::MAX,
            reorder: true,
            reorder_threshold: 20_000,
            common: CommonOptions::default(),
            auto_gc: true,
            cluster_limit: crate::DEFAULT_CLUSTER_LIMIT,
            static_order: crate::StaticOrder::Seed,
            frontier_simplify: true,
        }
    }
}

impl ReachOptions {
    /// Sets the maximum number of image steps.
    #[must_use]
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Enables or disables dynamic variable reordering.
    #[must_use]
    pub fn with_reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Sets the wall-clock budget for the fixpoint (a view over the shared
    /// budget: the deadline is re-anchored at this call).
    #[must_use]
    pub fn with_time_limit(mut self, limit: std::time::Duration) -> Self {
        self.common = self.common.with_time_limit(limit);
        self
    }

    /// Installs a shared resource budget (replacing any previous one).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.common = self.common.with_budget(budget);
        self
    }

    /// The wall-clock limit of the governing budget, if any (the legacy
    /// `time_limit` field as a view).
    pub fn time_limit(&self) -> Option<Duration> {
        self.common.time_limit()
    }

    /// Enables or disables the automatic garbage collector.
    #[must_use]
    pub fn with_auto_gc(mut self, auto_gc: bool) -> Self {
        self.auto_gc = auto_gc;
        self
    }

    /// Sets the transition-cluster node threshold (`0` disables clustering).
    #[must_use]
    pub fn with_cluster_limit(mut self, limit: usize) -> Self {
        self.cluster_limit = limit;
        self
    }

    /// Selects the initial variable-order strategy (see
    /// [`StaticOrder`](crate::StaticOrder)).
    #[must_use]
    pub fn with_static_order(mut self, order: crate::StaticOrder) -> Self {
        self.static_order = order;
        self
    }

    /// Enables or disables don't-care frontier minimization.
    #[must_use]
    pub fn with_frontier_simplify(mut self, simplify: bool) -> Self {
        self.frontier_simplify = simplify;
        self
    }

    /// Run-scoped reorder backoff for loops that run one fixpoint per
    /// iteration on a fresh manager (RFN, coverage): given the stats of the
    /// manager one fixpoint ran on, the trigger floor doubles once for each
    /// of its sift passes that failed [`rfn_bdd::sift_profitable`], so a
    /// run that stops gaining from reordering stops paying for it.
    pub fn back_off_reorder(&mut self, stats: &BddStats) {
        for _ in 0..stats.unprofitable_sifts {
            self.reorder_threshold = self.reorder_threshold.saturating_mul(2);
        }
    }

    /// Attaches a structured-event context; each `forward_reach` call wraps
    /// itself in a `reach` span carrying the verdict, step count, cluster
    /// count and BDD peak-node counter. Disabled by default.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.common = self.common.with_trace(trace);
        self
    }
}

/// How a reachability run ended for one target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReachVerdict {
    /// The fixpoint was reached without touching a target state: the
    /// unreachability property holds on this model.
    FixpointProved,
    /// A target state was reached; `step` is its BFS distance from the
    /// initial states.
    TargetHit {
        /// Number of image steps to the first target intersection.
        step: usize,
    },
    /// A resource limit (nodes, steps or time) was exceeded while the
    /// target was still pending.
    Aborted,
}

/// Why a reachability run gave up. Carried next to
/// [`ReachVerdict::Aborted`] in [`ReachResult::abort`] so callers can tell
/// a time-out from capacity exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbortReason {
    /// The wall-clock budget ran out.
    TimeLimit,
    /// The image-step cap was reached before the fixpoint.
    MaxSteps,
    /// The BDD manager's node limit (or the budget's node ceiling) was
    /// exceeded.
    NodeLimit,
    /// The governing budget's cancellation token was triggered.
    Cancelled,
    /// The governing budget's memory ceiling was exceeded.
    MemoryLimit,
    /// Another kernel error.
    Bdd,
}

impl AbortReason {
    /// Maps a kernel error onto the abort vocabulary, so callers that stop
    /// on a failed BDD operation name the budget that ran out.
    pub fn of(e: &BddError) -> AbortReason {
        match e {
            BddError::NodeLimit => AbortReason::NodeLimit,
            BddError::Cancelled => AbortReason::Cancelled,
            BddError::TimeLimit => AbortReason::TimeLimit,
            BddError::MemoryLimit => AbortReason::MemoryLimit,
            _ => AbortReason::Bdd,
        }
    }

    /// Maps a budget exhaustion report onto the abort vocabulary.
    pub fn of_exhaustion(e: Exhaustion) -> AbortReason {
        match e {
            Exhaustion::Cancelled => AbortReason::Cancelled,
            Exhaustion::TimeLimit => AbortReason::TimeLimit,
            Exhaustion::MemoryLimit => AbortReason::MemoryLimit,
            Exhaustion::NodeLimit => AbortReason::NodeLimit,
            _ => AbortReason::Bdd,
        }
    }

    /// Stable lowercase token used in trace records and CLI breakdowns.
    pub fn as_str(&self) -> &'static str {
        match self {
            AbortReason::TimeLimit => "time_limit",
            AbortReason::MaxSteps => "max_steps",
            AbortReason::NodeLimit => "node_limit",
            AbortReason::Cancelled => "cancelled",
            AbortReason::MemoryLimit => "memory_limit",
            AbortReason::Bdd => "bdd_error",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortReason::TimeLimit => "time limit",
            AbortReason::MaxSteps => "step limit",
            AbortReason::NodeLimit => "node limit",
            AbortReason::Cancelled => "cancelled",
            AbortReason::MemoryLimit => "memory limit",
            AbortReason::Bdd => "BDD error",
        })
    }
}

/// Result of [`forward_reach`].
#[derive(Clone, Debug)]
pub struct ReachResult {
    /// How the run ended.
    pub verdict: ReachVerdict,
    /// Why the run aborted; `None` unless the verdict is
    /// [`ReachVerdict::Aborted`].
    pub abort: Option<AbortReason>,
    /// Onion rings: `rings[k]` holds the states first reached after exactly
    /// `k` steps (`rings[0]` is the initial set). On
    /// [`ReachVerdict::TargetHit`] the last ring intersects the targets.
    pub rings: Vec<Bdd>,
    /// Union of all rings.
    pub reached: Bdd,
    /// Number of image computations performed.
    pub steps: usize,
    /// Peak live node count observed.
    pub peak_nodes: usize,
    /// Kernel performance counters of the manager at the end of the run
    /// (cumulative since the manager was created or its stats were reset).
    pub stats: BddStats,
}

/// Result of [`forward_reach_multi`](crate::forward_reach_multi): one entry
/// per input target, plus the shared fixpoint artifacts.
#[derive(Clone, Debug)]
pub struct MultiReachResult {
    /// Outcomes, indexed like the input target slice. A target the run
    /// never decided (it aborted while the target was pending) is
    /// [`ReachVerdict::Aborted`].
    pub verdicts: Vec<ReachVerdict>,
    /// Why the run aborted; `None` unless some verdict is
    /// [`ReachVerdict::Aborted`].
    pub abort: Option<AbortReason>,
    /// Onion rings shared by every target (`rings[0]` is the initial set).
    /// The sequence stops at the last ring the run needed: the ring that
    /// retired the final pending target, or the full fixpoint.
    pub rings: Vec<Bdd>,
    /// Union of all rings.
    pub reached: Bdd,
    /// Number of image computations performed.
    pub steps: usize,
    /// Peak live node count observed.
    pub peak_nodes: usize,
    /// Kernel performance counters of the manager at the end of the run.
    pub stats: BddStats,
}

/// Computes a forward fixpoint from the model's initial states, stopping
/// early if `targets` is reached (the on-the-fly check of the paper's Step
/// 2). This is [`forward_reach_multi`](crate::forward_reach_multi) on a
/// one-target slice, traced as a `reach` span.
///
/// `targets` may involve input variables (combinational watchdog outputs): a
/// ring "hits" if some state in it asserts the target under *some* input.
///
/// # Errors
///
/// Only internal errors are returned; resource exhaustion (including the BDD
/// manager's node limit) is reported as [`ReachVerdict::Aborted`], not as an
/// error, because the RFN loop treats it as an ordinary outcome.
pub fn forward_reach(
    model: &mut SymbolicModel<'_>,
    targets: Bdd,
    options: &ReachOptions,
) -> Result<ReachResult, McError> {
    forward_reach_warm(model, targets, options, &[])
}

/// [`forward_reach`] warm-started from a previously saved ring sequence
/// (see the [`store`](crate::store) module): instead of starting BFS at the
/// initial states, the loop adopts `saved_rings` as its onion rings —
/// `saved_rings[0]` must be the model's initial-state set — and resumes
/// image computation from the last ring. A complete saved fixpoint
/// re-proves in a single (empty) image; a partial one continues where it
/// stopped. Verdicts and reached sets are identical to a cold run's.
///
/// # Errors
///
/// Returns [`McError::Store`] if `saved_rings[0]` is not the model's
/// initial-state set — a stale or foreign warm-start must fail loudly, not
/// corrupt the fixpoint.
pub fn forward_reach_warm(
    model: &mut SymbolicModel<'_>,
    targets: Bdd,
    options: &ReachOptions,
    saved_rings: &[Bdd],
) -> Result<ReachResult, McError> {
    let mut span = options.common.trace.span("reach");
    let r = reach_targets(model, &[targets], options, saved_rings)?;
    let verdict = r.verdicts[0];
    span.record(
        "verdict",
        match verdict {
            ReachVerdict::FixpointProved => "fixpoint",
            ReachVerdict::TargetHit { .. } => "target_hit",
            ReachVerdict::Aborted => "aborted",
        },
    );
    if let ReachVerdict::TargetHit { step } = verdict {
        span.record("hit_step", step);
    }
    record_run(&mut span, model, &r, saved_rings.len(), options);
    Ok(ReachResult {
        verdict,
        abort: r.abort,
        rings: r.rings,
        reached: r.reached,
        steps: r.steps,
        peak_nodes: r.peak_nodes,
        stats: r.stats,
    })
}

/// Runs the fixpoint loop on `targets` under the run's protection
/// discipline. Everything held across kernel calls inside the loop —
/// targets, the model's transition partitions and signal cache, rings, the
/// reached set — is registered in the manager's protected root set so the
/// automatic collector cannot reclaim it. The log makes the protection
/// exactly reversible on every exit path, and the collector is switched off
/// again on return so callers may hold unprotected handles as before.
pub(crate) fn reach_targets(
    model: &mut SymbolicModel<'_>,
    targets: &[Bdd],
    options: &ReachOptions,
    saved_rings: &[Bdd],
) -> Result<MultiReachResult, McError> {
    // Install the governing budget on the kernel so exhaustion (cancel,
    // deadline, memory, node ceiling) is detected inside image operations.
    // The budget stays installed after the call: subsequent phases of the
    // same run (hybrid trace extraction) share it by design.
    model.manager().set_budget(options.common.budget.clone());
    let mut protect_log: Vec<Bdd> = model.persistent_roots();
    protect_log.extend(targets.iter().copied());
    for &b in &protect_log {
        model.manager().protect(b);
    }
    if options.auto_gc {
        model.manager().set_auto_gc(true);
    }
    let result = fixpoint_loop(model, targets, options, &mut protect_log, saved_rings);
    model.manager().set_auto_gc(false);
    for &b in &protect_log {
        model.manager().unprotect(b);
    }
    result.map(|mut r| {
        r.stats = model.manager_ref().stats();
        r
    })
}

/// Records the exit fields every reachability span shares, after the
/// span's own verdict fields, and the `bdd.peak_nodes` counter.
pub(crate) fn record_run(
    span: &mut Span,
    model: &SymbolicModel<'_>,
    r: &MultiReachResult,
    warm_rings: usize,
    options: &ReachOptions,
) {
    if let Some(reason) = r.abort {
        span.record("abort_reason", reason.as_str());
    }
    span.record("steps", r.steps);
    span.record("rings", r.rings.len());
    span.record("clusters", model.transition().num_clusters());
    span.record("peak_nodes", r.peak_nodes);
    // Sift bookkeeping and warm-start provenance appear only when the
    // feature actually ran, keeping legacy traces byte-identical.
    if r.stats.sift_runs > 0 {
        span.record("sift.runs", r.stats.sift_runs);
        span.record("sift.unprofitable", r.stats.unprofitable_sifts);
        span.record("sift.nodes_shrunk", r.stats.sift_nodes_shrunk);
    }
    if warm_rings > 0 {
        span.record("warm.rings", warm_rings);
    }
    record_budget(span, &options.common.budget, r.peak_nodes);
    options
        .common
        .trace
        .counter("bdd.peak_nodes", r.stats.peak_nodes as u64);
}

/// Records `budget.*` fields on an engine span: the wall-clock remaining
/// (only when a deadline is configured, keeping traces deterministic for
/// unbudgeted runs) and the node headroom left under the ceiling.
fn record_budget(span: &mut Span, budget: &Budget, peak_nodes: usize) {
    if let Some(remaining) = budget.remaining() {
        span.record("budget.remaining_ms", remaining.as_millis() as u64);
    }
    if budget.node_ceiling() != usize::MAX {
        span.record(
            "budget.node_headroom",
            budget.node_ceiling().saturating_sub(peak_nodes),
        );
    }
}

/// Book-keeping for the still-pending targets of one multi-target run.
struct Pending {
    verdicts: Vec<ReachVerdict>,
    open: Vec<usize>,
}

impl Pending {
    fn new(n: usize) -> Self {
        Pending {
            // Until decided otherwise every target counts as pending-abort;
            // hits and the final fixpoint overwrite this.
            verdicts: vec![ReachVerdict::Aborted; n],
            open: (0..n).collect(),
        }
    }

    /// Tests the ring against every pending target in index order, retiring
    /// hits at `step`. Returns `Err` on the first kernel error.
    fn check_ring(
        &mut self,
        model: &mut SymbolicModel<'_>,
        targets: &[Bdd],
        ring: Bdd,
        step: usize,
    ) -> Result<(), BddError> {
        let zero = model.manager_ref().zero();
        let mut still_open = Vec::with_capacity(self.open.len());
        for &t in &self.open {
            if model.manager().and(ring, targets[t])? != zero {
                self.verdicts[t] = ReachVerdict::TargetHit { step };
            } else {
                still_open.push(t);
            }
        }
        self.open = still_open;
        Ok(())
    }

    fn all_hit(&self) -> bool {
        // With zero targets there is nothing to hit: run to the fixpoint,
        // as a one-target run on the constant-false target does.
        !self.verdicts.is_empty() && self.open.is_empty()
    }

    fn prove_rest(&mut self) {
        for &t in &self.open {
            self.verdicts[t] = ReachVerdict::FixpointProved;
        }
        self.open.clear();
    }
}

/// The fixpoint proper, run by [`reach_targets`] with its protection log.
fn fixpoint_loop(
    model: &mut SymbolicModel<'_>,
    targets: &[Bdd],
    options: &ReachOptions,
    protect_log: &mut Vec<Bdd>,
    saved_rings: &[Bdd],
) -> Result<MultiReachResult, McError> {
    let deadline = options.common.budget.deadline_for(GovPhase::Reach);
    let mut trigger = options
        .reorder
        .then(|| DoublingTrigger::new(options.reorder_threshold));
    let mut pending = Pending::new(targets.len());
    let init = match model.init_states() {
        Ok(b) => b,
        Err(e) => return Ok(aborted(model, pending, vec![], 0, AbortReason::of(&e))),
    };
    if let Some(&first) = saved_rings.first() {
        // Canonicity makes this a handle comparison: a warm-start whose
        // ring 0 is not this model's initial-state set is stale or foreign
        // and must fail loudly instead of corrupting the fixpoint.
        if first != init {
            return Err(McError::Store(rfn_bdd::StoreError::Rebuild(
                "saved rings do not start at this model's initial states".to_owned(),
            )));
        }
    }
    model.manager().protect(init);
    protect_log.push(init);
    let mut rings = if saved_rings.is_empty() {
        vec![init]
    } else {
        saved_rings.to_vec()
    };
    // Protect every adopted ring *before* the first manager operation: the
    // or-chain below can trigger the automatic collector, whose root set is
    // the protected set plus that one call's operands — any ring not yet
    // protected at that moment would be reclaimed and its handle recycled.
    for &r in &rings[1..] {
        model.manager().protect(r);
        protect_log.push(r);
    }
    let mut reached = init;
    for &r in &rings[1..] {
        reached = match model.manager().or(reached, r) {
            Ok(b) => b,
            Err(e) => return Ok(aborted(model, pending, rings, 0, AbortReason::of(&e))),
        };
    }
    model.manager().protect(reached);
    protect_log.push(reached);
    let mut frontier = *rings.last().expect("at least the initial ring");
    let mut steps = rings.len() - 1;
    let mut peak = model.manager_ref().num_nodes();

    // Cold start: the classic step-0 check against every target. Warm
    // start: every adopted ring is re-checked in BFS order so retirement
    // depths are identical to a cold run's.
    for step in 0..rings.len() {
        if let Err(e) = pending.check_ring(model, targets, rings[step], step) {
            return Ok(aborted(model, pending, rings, steps, AbortReason::of(&e)));
        }
        if pending.all_hit() {
            rings.truncate(step + 1);
            let reached = match or_all(model, &rings) {
                Ok(b) => b,
                Err(e) => return Ok(aborted(model, pending, rings, step, AbortReason::of(&e))),
            };
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps: step,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
    }

    loop {
        if steps >= options.max_steps {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::MaxSteps,
            ));
        }
        if options.common.budget.is_cancelled() {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::Cancelled,
            ));
        }
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::TimeLimit,
                ));
            }
        }
        if let Err(e) = options
            .common
            .budget
            .check_memory(model.manager_ref().approx_bytes())
        {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::of_exhaustion(e),
            ));
        }
        // Minimize the frontier against the reached set before imaging: any
        // set between the frontier and `reached` yields the same new states,
        // so the restrict operator may fill `reached ∖ frontier` freely.
        // Keep the minimized version only when it is actually smaller.
        let src = if options.frontier_simplify {
            match simplify_frontier(model, frontier, reached) {
                Ok(f) => f,
                Err(e) => {
                    return Ok(aborted_with(
                        model,
                        pending,
                        rings,
                        reached,
                        steps,
                        peak,
                        AbortReason::of(&e),
                    ))
                }
            }
        } else {
            frontier
        };
        // `img` is held across the `not`, where it is not an operand, so it
        // needs transient protection from the collector.
        let step_result = model.post_image(src).and_then(|img| {
            model.manager().protect(img);
            let new = model
                .manager()
                .not(reached)
                .and_then(|nr| model.manager().and(img, nr));
            model.manager().unprotect(img);
            new
        });
        let new = match step_result {
            Ok(new) => new,
            Err(e) => {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::of(&e),
                ))
            }
        };
        steps += 1;
        options
            .common
            .trace
            .counter("reach.image_nodes", model.manager_ref().num_nodes() as u64);
        if new == model.manager_ref().zero() {
            pending.prove_rest();
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
        model.manager().protect(new);
        protect_log.push(new);
        reached = match model.manager().or(reached, new) {
            Ok(b) => b,
            Err(e) => {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::of(&e),
                ))
            }
        };
        model.manager().protect(reached);
        protect_log.push(reached);
        rings.push(new);
        peak = peak.max(model.manager_ref().num_nodes());
        if let Err(e) = pending.check_ring(model, targets, new, steps) {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::of(&e),
            ));
        }
        if pending.all_hit() {
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
        frontier = new;
        if let Some(trigger) = &mut trigger {
            let held = rings
                .iter()
                .chain(targets)
                .copied()
                .chain([reached, frontier]);
            reorder_step(model, trigger, held, options);
        }
    }
}

fn aborted(
    model: &SymbolicModel<'_>,
    pending: Pending,
    rings: Vec<Bdd>,
    steps: usize,
    reason: AbortReason,
) -> MultiReachResult {
    let zero = model.manager_ref().zero();
    MultiReachResult {
        verdicts: pending.verdicts,
        abort: Some(reason),
        reached: rings.first().copied().unwrap_or(zero),
        rings,
        steps,
        peak_nodes: model.manager_ref().num_nodes(),
        stats: BddStats::default(),
    }
}

#[allow(clippy::too_many_arguments)]
fn aborted_with(
    model: &SymbolicModel<'_>,
    pending: Pending,
    rings: Vec<Bdd>,
    reached: Bdd,
    steps: usize,
    peak: usize,
    reason: AbortReason,
) -> MultiReachResult {
    MultiReachResult {
        verdicts: pending.verdicts,
        abort: Some(reason),
        rings,
        reached,
        steps,
        peak_nodes: peak.max(model.manager_ref().num_nodes()),
        stats: BddStats::default(),
    }
}

/// The reorder step the reach loop runs after each image when
/// [`ReachOptions::reorder`] is set (see
/// [`BddManager::scheduled_sift`](rfn_bdd::BddManager::scheduled_sift)):
/// the trigger is asked at the allocated node count, and only if it says
/// yes does a collection with the model's roots plus `held` let it decide
/// at the live count. A pass that runs is traced as a `sift` point with the
/// live counts around it and the trigger floor.
fn reorder_step(
    model: &mut SymbolicModel<'_>,
    trigger: &mut DoublingTrigger,
    held: impl IntoIterator<Item = Bdd>,
    options: &ReachOptions,
) {
    let mut roots = model.persistent_roots();
    roots.extend(held);
    let Some((before, after)) = model
        .manager()
        .scheduled_sift(&roots, SIFT_GROWTH_LIMIT, trigger)
    else {
        return;
    };
    options.common.trace.point(
        "sift",
        vec![
            ("live_before".to_owned(), before.into()),
            ("live_after".to_owned(), after.into()),
            ("floor".to_owned(), options.reorder_threshold.into()),
        ],
    );
}

/// Union of a ring sequence (used when a warm-start scan truncates the
/// adopted rings at a target hit).
fn or_all(model: &mut SymbolicModel<'_>, rings: &[Bdd]) -> Result<Bdd, BddError> {
    let mut acc = model.manager_ref().zero();
    for &r in rings {
        acc = model.manager().or(acc, r)?;
    }
    Ok(acc)
}

/// Shrinks the frontier by treating already-reached states as don't-cares:
/// the care set is `frontier ∨ ¬reached`, so the restrict operator may map
/// `reached ∖ frontier` to anything. Because `frontier ⊆ reached`, the
/// result always lies between the frontier and the reached set, which makes
/// its image produce exactly the same new states. Returns the smaller of the
/// minimized and original frontiers.
fn simplify_frontier(
    model: &mut SymbolicModel<'_>,
    frontier: Bdd,
    reached: Bdd,
) -> Result<Bdd, BddError> {
    // `nr` is an operand of the `or` immediately after; no protection needed.
    let nr = model.manager().not(reached)?;
    let care = model.manager().or(frontier, nr)?;
    let min = model.manager().gc_restrict(frontier, care)?;
    if model.manager_ref().size(min) < model.manager_ref().size(frontier) {
        Ok(min)
    } else {
        Ok(frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use rfn_netlist::{Abstraction, Cube, GateOp, Netlist, SignalId};

    fn counter3() -> (Netlist, Vec<SignalId>) {
        // 3-bit counter that saturates at 5 (never reaches 6 or 7).
        let mut n = Netlist::new("sat5");
        let b: Vec<SignalId> = (0..3)
            .map(|k| n.add_register(&format!("b{k}"), Some(false)))
            .collect();
        // value == 5 detector (101).
        let nb1 = n.add_gate("nb1", GateOp::Not, &[b[1]]);
        let at5 = n.add_gate("at5", GateOp::And, &[b[0], nb1, b[2]]);
        let hold = n.add_gate("hold", GateOp::Not, &[at5]);
        // increment logic
        let i0 = n.add_gate("i0", GateOp::Xor, &[b[0], hold]);
        let c0 = n.add_gate("c0", GateOp::And, &[b[0], hold]);
        let i1 = n.add_gate("i1", GateOp::Xor, &[b[1], c0]);
        let c1 = n.add_gate("c1", GateOp::And, &[b[1], c0]);
        let i2 = n.add_gate("i2", GateOp::Xor, &[b[2], c1]);
        n.set_register_next(b[0], i0).unwrap();
        n.set_register_next(b[1], i1).unwrap();
        n.set_register_next(b[2], i2).unwrap();
        n.validate().unwrap();
        (n, b)
    }

    fn model(n: &Netlist) -> crate::SymbolicModel<'_> {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(n, [])
            .unwrap();
        crate::SymbolicModel::new(n, ModelSpec::from_view(&view)).unwrap()
    }

    #[test]
    fn fixpoint_proves_unreachable_state() {
        let (n, b) = counter3();
        let mut m = model(&n);
        // 7 (111) is unreachable: the counter saturates at 5.
        let c: Cube = [(b[0], true), (b[1], true), (b[2], true)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let r = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::FixpointProved);
        // Reached = {0..5}: 6 states. The manager holds 6 vars (3 cur/nxt
        // pairs); `reached` ranges over the 3 current-state vars only.
        let nv = m.manager_ref().num_vars();
        let total = m.manager().sat_count(r.reached, nv);
        assert_eq!(total / 8.0, 6.0);
    }

    #[test]
    fn target_hit_at_correct_depth() {
        let (n, b) = counter3();
        let mut m = model(&n);
        // 3 (011) is reached after exactly 3 steps.
        let c: Cube = [(b[0], true), (b[1], true), (b[2], false)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let r = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::TargetHit { step: 3 });
        assert_eq!(r.rings.len(), 4);
        // The last ring contains the target.
        let last = *r.rings.last().unwrap();
        let conj = m.manager().and(last, target).unwrap();
        assert_ne!(conj, m.manager_ref().zero());
    }

    #[test]
    fn rings_are_disjoint_and_cover_reached() {
        let (n, _) = counter3();
        let mut m = model(&n);
        let zero = m.manager_ref().zero();
        let r = forward_reach(&mut m, zero, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::FixpointProved);
        let mut union = m.manager_ref().zero();
        for (i, &ring) in r.rings.iter().enumerate() {
            for &other in &r.rings[i + 1..] {
                let inter = m.manager().and(ring, other).unwrap();
                assert_eq!(inter, m.manager_ref().zero(), "rings overlap");
            }
            union = m.manager().or(union, ring).unwrap();
        }
        assert_eq!(union, r.reached);
    }

    #[test]
    fn node_limit_aborts_cleanly() {
        let (n, b) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut mgr = rfn_bdd::BddManager::new();
        mgr.set_node_limit(16); // absurdly small
        let mut m = match crate::SymbolicModel::with_manager(&n, ModelSpec::from_view(&view), mgr) {
            Ok(m) => m,
            Err(McError::Bdd(_)) => return, // failed even earlier: fine
            Err(e) => panic!("unexpected error {e}"),
        };
        let c: Cube = [(b[0], true)].into_iter().collect();
        let target = match m.cube_to_bdd(&c) {
            Ok(t) => t,
            Err(_) => return,
        };
        let r = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::Aborted);
        assert_eq!(r.abort, Some(AbortReason::NodeLimit));
    }

    #[test]
    fn step_limit_aborts() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let c: Cube = [(b[0], true), (b[1], false), (b[2], true)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let opts = ReachOptions {
            max_steps: 2,
            ..ReachOptions::default()
        };
        let r = forward_reach(&mut m, target, &opts).unwrap();
        assert_eq!(r.verdict, ReachVerdict::Aborted);
        assert_eq!(r.abort, Some(AbortReason::MaxSteps));
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn time_limit_abort_reports_its_reason() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let c: Cube = [(b[0], true), (b[1], false), (b[2], true)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let opts = ReachOptions::default().with_time_limit(Duration::ZERO);
        let r = forward_reach(&mut m, target, &opts).unwrap();
        assert_eq!(r.verdict, ReachVerdict::Aborted);
        assert_eq!(r.abort, Some(AbortReason::TimeLimit));
    }

    /// Frontier minimization must be invisible in the result: same rings,
    /// same reached set, same verdict — only the image inputs change.
    #[test]
    fn frontier_simplification_preserves_rings_and_verdict() {
        let (n, b) = counter3();
        let mut m_on = model(&n);
        let mut m_off = model(&n);
        let c: Cube = [(b[0], true), (b[1], true), (b[2], true)]
            .into_iter()
            .collect();
        let t_on = m_on.cube_to_bdd(&c).unwrap();
        let t_off = m_off.cube_to_bdd(&c).unwrap();
        let on = forward_reach(&mut m_on, t_on, &ReachOptions::default()).unwrap();
        let off = forward_reach(
            &mut m_off,
            t_off,
            &ReachOptions::default().with_frontier_simplify(false),
        )
        .unwrap();
        assert_eq!(on.verdict, off.verdict);
        assert_eq!(on.steps, off.steps);
        assert_eq!(on.rings.len(), off.rings.len());
        // Both models allocate variables identically, so ring sat counts are
        // directly comparable across the two managers.
        let nv = m_on.manager_ref().num_vars();
        for (&ra, &rb) in on.rings.iter().zip(off.rings.iter()) {
            assert_eq!(
                m_on.manager().sat_count(ra, nv),
                m_off.manager().sat_count(rb, nv)
            );
        }
        assert!(
            m_on.manager_ref().stats().restrict_misses > 0,
            "restrict operator never ran"
        );
    }

    /// With a threshold of one node the collector fires at every public
    /// kernel operation; any handle the reach loop or the relational product
    /// fails to protect would be reclaimed and corrupt the result.
    #[test]
    fn aggressive_auto_gc_during_reach_is_sound() {
        let (n, b) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut mgr = rfn_bdd::BddManager::new();
        mgr.set_auto_gc_threshold(1);
        let mut m =
            crate::SymbolicModel::with_manager(&n, ModelSpec::from_view(&view), mgr).unwrap();
        let c: Cube = [(b[0], true), (b[1], true), (b[2], true)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let r = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::FixpointProved);
        assert!(r.stats.auto_gc_runs > 0, "collector never fired");
        let nv = m.manager_ref().num_vars();
        let total = m.manager().sat_count(r.reached, nv);
        assert_eq!(total / 8.0, 6.0);
    }

    /// Adopted warm-start rings must all be protected before the first
    /// manager operation of the adoption loop: the or-chain folding them
    /// into the reached set can trigger the collector, and any ring not yet
    /// protected at that moment would be reclaimed and its handle recycled.
    /// With a one-node threshold the collector fires on every call, so an
    /// unprotected tail ring cannot survive by luck.
    #[test]
    fn aggressive_auto_gc_during_warm_start_is_sound() {
        let (n, _) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let spec = ModelSpec::from_view(&view);

        // Partial cold run: enough rings that the adoption or-chain runs
        // several operations past the first collection.
        let mut m = crate::SymbolicModel::new(&n, spec.clone()).unwrap();
        let zero = m.manager_ref().zero();
        let partial =
            forward_reach(&mut m, zero, &ReachOptions::default().with_max_steps(4)).unwrap();
        assert_eq!(partial.verdict, ReachVerdict::Aborted);
        assert_eq!(partial.rings.len(), 5);
        let store = crate::store::snapshot_model(&m, "k", &partial.rings).unwrap();

        // Reference: the full cold fixpoint.
        let mut m_ref = crate::SymbolicModel::new(&n, spec.clone()).unwrap();
        let zero_ref = m_ref.manager_ref().zero();
        let full = forward_reach(&mut m_ref, zero_ref, &ReachOptions::default()).unwrap();
        assert_eq!(full.verdict, ReachVerdict::FixpointProved);

        // Warm-start under an eager collector.
        let mut mgr = rfn_bdd::BddManager::new();
        mgr.set_auto_gc_threshold(1);
        let mut m2 = crate::SymbolicModel::with_manager(&n, spec, mgr).unwrap();
        let adopted = crate::store::apply_store(&mut m2, &store, "k").unwrap();
        let zero2 = m2.manager_ref().zero();
        let warm = forward_reach_warm(&mut m2, zero2, &ReachOptions::default(), &adopted).unwrap();
        assert_eq!(warm.verdict, ReachVerdict::FixpointProved);
        assert!(warm.stats.auto_gc_runs > 0, "collector never fired");
        assert_eq!(warm.steps, full.steps);
        assert_eq!(warm.rings.len(), full.rings.len());
        let nv = m2.manager_ref().num_vars();
        for (&wr, &fr) in warm.rings.iter().zip(full.rings.iter()) {
            assert_eq!(
                m2.manager().sat_count(wr, nv),
                m_ref.manager().sat_count(fr, nv)
            );
        }
        // The surviving handles serialize into a structurally valid store:
        // rebuilding them in a fresh model must succeed.
        let store2 = crate::store::snapshot_model(&m2, "k", &warm.rings).unwrap();
        let mut m3 = crate::SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let rebuilt = crate::store::apply_store(&mut m3, &store2, "k").unwrap();
        assert_eq!(rebuilt.len(), warm.rings.len());
    }

    /// Disabling the knob must keep the collector off even with an eager
    /// threshold.
    #[test]
    fn auto_gc_knob_disables_collection() {
        let (n, _) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut mgr = rfn_bdd::BddManager::new();
        mgr.set_auto_gc_threshold(1);
        let mut m =
            crate::SymbolicModel::with_manager(&n, ModelSpec::from_view(&view), mgr).unwrap();
        let zero = m.manager_ref().zero();
        let opts = ReachOptions {
            auto_gc: false,
            ..ReachOptions::default()
        };
        let r = forward_reach(&mut m, zero, &opts).unwrap();
        assert_eq!(r.verdict, ReachVerdict::FixpointProved);
        assert_eq!(r.stats.auto_gc_runs, 0);
    }

    /// The reorder trigger counts live nodes, not garbage: a manager whose
    /// allocated count clears the floor only because of dead nodes collects
    /// once and does not sift.
    #[test]
    fn garbage_above_the_floor_does_not_trigger_a_sift() {
        let (n, _) = counter3();
        let mut m = model(&n);
        // Dead nodes: (x0∧y0) ∨ … ∨ (x7∧y7) under the order x0…x7 y0…y7
        // is exponential in 8, and every intermediate dies with it.
        let vars: Vec<_> = (0..16).map(|_| m.manager().new_var()).collect();
        let mut junk = m.manager_ref().zero();
        for i in 0..8 {
            let a = m.manager().var(vars[i]);
            let b = m.manager().var(vars[i + 8]);
            let ab = m.manager().and(a, b).unwrap();
            junk = m.manager().or(junk, ab).unwrap();
        }
        let _ = junk;
        let opts = ReachOptions {
            reorder_threshold: 400,
            ..ReachOptions::default()
        };
        assert!(m.manager_ref().num_nodes() > 2 * opts.reorder_threshold);
        let zero = m.manager_ref().zero();
        let r = forward_reach(&mut m, zero, &opts).unwrap();
        assert_eq!(r.verdict, ReachVerdict::FixpointProved);
        assert_eq!(r.stats.sift_runs, 0, "garbage triggered a sift");
        assert_eq!(r.stats.gc_runs, 1, "the trigger did not collect");
        assert!(m.manager_ref().num_nodes() < opts.reorder_threshold);
    }

    #[test]
    fn initial_target_hits_at_step_zero() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let c: Cube = [(b[0], false), (b[1], false), (b[2], false)]
            .into_iter()
            .collect();
        let target = m.cube_to_bdd(&c).unwrap();
        let r = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdict, ReachVerdict::TargetHit { step: 0 });
    }
}

#[cfg(test)]
mod comb_target_tests {
    use super::*;
    use crate::ModelSpec;
    use rfn_netlist::{Abstraction, GateOp, Netlist};

    /// Targets that depend on *input* variables: a state hits if some input
    /// valuation asserts the watched gate.
    #[test]
    fn combinational_targets_hit_under_some_input() {
        // r' = i ; watch = r AND j. State r=1 is target-hitting (choose j=1).
        let mut n = Netlist::new("c");
        let i = n.add_input("i");
        let j = n.add_input("j");
        let r = n.add_register("r", Some(false));
        n.set_register_next(r, i).unwrap();
        let watch = n.add_gate("watch", GateOp::And, &[r, j]);
        n.validate().unwrap();
        let view = Abstraction::from_registers([r]).view(&n, [watch]).unwrap();
        let mut m = crate::SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let target = m.signal_bdd(watch).unwrap();
        let res = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        // Reset state r=0 cannot assert watch; r=1 arrives after one step.
        assert_eq!(res.verdict, ReachVerdict::TargetHit { step: 1 });
    }

    /// With the gating register stuck low, the same combinational target is
    /// unreachable and the fixpoint proves it.
    #[test]
    fn combinational_targets_proved_unreachable() {
        let mut n = Netlist::new("c2");
        let j = n.add_input("j");
        let r = n.add_register("r", Some(false));
        n.set_register_next(r, r).unwrap(); // stuck at 0
        let watch = n.add_gate("watch", GateOp::And, &[r, j]);
        n.validate().unwrap();
        let view = Abstraction::from_registers([r]).view(&n, [watch]).unwrap();
        let mut m = crate::SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let target = m.signal_bdd(watch).unwrap();
        let res = forward_reach(&mut m, target, &ReachOptions::default()).unwrap();
        assert_eq!(res.verdict, ReachVerdict::FixpointProved);
    }
}
