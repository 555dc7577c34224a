//! The RFN abstraction-refinement loop.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfn_atpg::AtpgOptions;
use rfn_govern::{Budget, GovPhase};
use rfn_mc::{
    forward_reach, AbortReason, CommonOptions, ModelSpec, ReachOptions, ReachVerdict,
    SymbolicModel, VarKind,
};
use rfn_netlist::{Abstraction, Coi, Netlist, Property, SignalId, Trace};
use rfn_trace::{Span, StderrSink, TraceCtx};

use rfn_sim::RandomSimOptions;

use crate::concretize::{property_cube, replay_resets};
use crate::{
    refine, ConcretizeOptions, ConcretizeOutcome, ConcretizeStats, Concretizer, HybridEngine,
    HybridStats, LoopCheckpoint, Phase, RefineOptions, RfnError,
};

/// Configuration of the RFN loop.
#[derive(Clone, Debug)]
pub struct RfnOptions {
    /// Maximum refinement iterations.
    pub max_iterations: usize,
    /// The budget and trace context shared with every other engine (see
    /// [`CommonOptions`]). The budget governs the whole run — wall clock,
    /// per-phase quotas, node/memory ceilings, backtrack allowance and the
    /// cooperative cancellation token; every engine the loop drives polls
    /// this same budget at its natural checkpoints. The trace context
    /// carries the span hierarchy
    /// `rfn` → `iteration` → `reach`/`hybrid`/`concretize`/`refine`.
    pub common: CommonOptions,
    /// BDD node limit per iteration's symbolic model.
    pub mc_node_limit: usize,
    /// Reachability options (reordering, step limits).
    pub reach: ReachOptions,
    /// ATPG limits for Step 3 (guided search on the original design).
    pub concretize_atpg: AtpgOptions,
    /// Random-simulation engine for Step 3 — the cheap stage tried before
    /// the ATPG. `concretize_sim.batches = 0` disables it.
    pub concretize_sim: RandomSimOptions,
    /// ATPG limits for the hybrid engine's cube lifting.
    pub hybrid_atpg: AtpgOptions,
    /// Refinement (Step 4) configuration.
    pub refine: RefineOptions,
    /// How many distinct abstract error traces the hybrid engine produces
    /// per iteration; each guides its own Step 3 search before refinement
    /// falls back. 1 reproduces the paper's algorithm; larger values
    /// implement its first future-work extension (Section 5).
    pub max_abstract_traces: usize,
    /// 0 = silent; 1 = progress on stderr. When the shared trace context is
    /// disabled, a nonzero verbosity routes the run's event stream through a
    /// [`StderrSink`] — the human log and the structured events are the same
    /// stream, so they can never disagree. When the trace context is enabled
    /// it wins; compose a [`rfn_trace::FanoutSink`] to get both.
    pub verbosity: u8,
    /// Directory for refinement-loop checkpoints. When set, the loop writes
    /// a versioned snapshot (`<dir>/<property>.ckpt.json`) after every
    /// completed refinement iteration.
    pub checkpoint_dir: Option<PathBuf>,
    /// When `true` and a snapshot for this property exists in
    /// [`RfnOptions::checkpoint_dir`], the loop restores it — abstract
    /// register set, saved variable order, iteration counter, simulation
    /// seed — and continues from the last completed iteration.
    pub resume: bool,
    /// Directory for the persistent order cache. When set, the loop seeds
    /// its first iteration from a previously saved converged variable order
    /// for this `(design, property)` pair (keyed by
    /// [`Netlist::structural_hash`]) and writes the final order back on
    /// every conclusive verdict. A missing cache entry is a normal cold
    /// start; a corrupt or mismatched one is a hard error, never a silent
    /// cold start.
    pub order_cache_dir: Option<PathBuf>,
    /// Canonical design identity hash overriding
    /// [`Netlist::structural_hash`] as the key for order-cache stores and
    /// checkpoint validation. Set by [`crate::VerifySession`] from a
    /// [`crate::DesignIdentity`] (the content hash for file-loaded
    /// designs), so the same file keeps its warm starts regardless of how
    /// its netlist was named or renumbered in memory. `None` falls back to
    /// the structural hash.
    pub design_hash: Option<u64>,
}

impl Default for RfnOptions {
    fn default() -> Self {
        RfnOptions {
            max_iterations: 64,
            common: CommonOptions::default(),
            mc_node_limit: 4_000_000,
            reach: ReachOptions::default(),
            concretize_atpg: AtpgOptions::default(),
            concretize_sim: RandomSimOptions::default(),
            hybrid_atpg: AtpgOptions {
                max_backtracks: 10_000,
                ..AtpgOptions::default()
            },
            refine: RefineOptions::default(),
            max_abstract_traces: 1,
            verbosity: 0,
            checkpoint_dir: None,
            resume: false,
            order_cache_dir: None,
            design_hash: None,
        }
    }
}

impl RfnOptions {
    /// Sets the wall-clock budget for the whole run. The clock starts now:
    /// this is shorthand for re-anchoring the shared budget with a
    /// wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.common = self.common.with_time_limit(limit);
        self
    }

    /// Replaces the run's shared resource budget wholesale.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.common = self.common.with_budget(budget);
        self
    }

    /// Sets the checkpoint directory (see [`RfnOptions::checkpoint_dir`]).
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables or disables resuming from an existing snapshot (see
    /// [`RfnOptions::resume`]).
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the persistent order-cache directory (see
    /// [`RfnOptions::order_cache_dir`]).
    #[must_use]
    pub fn with_order_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.order_cache_dir = Some(dir.into());
        self
    }

    /// Sets the canonical design identity hash (see
    /// [`RfnOptions::design_hash`]).
    #[must_use]
    pub fn with_design_hash(mut self, hash: u64) -> Self {
        self.design_hash = Some(hash);
        self
    }

    /// Selects the initial variable-order strategy for every iteration's
    /// symbolic model (see [`rfn_mc::StaticOrder`]). A saved order — from a
    /// checkpoint, the order cache, or the previous iteration — still wins
    /// over the static arrangement.
    #[must_use]
    pub fn with_static_order(mut self, order: rfn_mc::StaticOrder) -> Self {
        self.reach.static_order = order;
        self
    }

    /// The wall-clock limit of the run's budget, if bounded.
    pub fn time_limit(&self) -> Option<Duration> {
        self.common.time_limit()
    }

    /// Sets the maximum number of refinement iterations.
    #[must_use]
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Sets the BDD node limit per iteration's symbolic model.
    #[must_use]
    pub fn with_mc_node_limit(mut self, nodes: usize) -> Self {
        self.mc_node_limit = nodes;
        self
    }

    /// Sets the transition-cluster node threshold for image computation
    /// (`0` keeps one partition per register).
    #[must_use]
    pub fn with_cluster_limit(mut self, limit: usize) -> Self {
        self.reach.cluster_limit = limit;
        self
    }

    /// Enables or disables don't-care frontier minimization in the forward
    /// fixpoint.
    #[must_use]
    pub fn with_frontier_simplify(mut self, simplify: bool) -> Self {
        self.reach.frontier_simplify = simplify;
        self
    }

    /// Sets how many abstract error traces the hybrid engine produces per
    /// iteration (1 = the paper's algorithm).
    #[must_use]
    pub fn with_max_abstract_traces(mut self, traces: usize) -> Self {
        self.max_abstract_traces = traces.max(1);
        self
    }

    /// Caps how many 64-pattern batches the random-simulation concretization
    /// engine tries per abstract trace (0 disables the engine); see
    /// [`RandomSimOptions::batches`] for when an attempt stops earlier.
    #[must_use]
    pub fn with_sim_batches(mut self, batches: usize) -> Self {
        self.concretize_sim.batches = batches;
        self
    }

    /// Seeds the random-simulation concretization engine. Runs are
    /// deterministic for a fixed seed regardless of thread count.
    #[must_use]
    pub fn with_sim_seed(mut self, seed: u64) -> Self {
        self.concretize_sim.seed = seed;
        self
    }

    /// Sets the stderr verbosity (see the field docs for how this interacts
    /// with the shared trace context).
    #[must_use]
    pub fn with_verbosity(mut self, verbosity: u8) -> Self {
        self.verbosity = verbosity;
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.common = self.common.with_trace(trace);
        self
    }
}

/// Statistics of one RFN run (the data behind a Table 1 row).
#[derive(Clone, Debug, Default)]
pub struct RfnStats {
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Registers in the final abstract model (Table 1, last column).
    pub abstract_registers: usize,
    /// Registers in the property's cone of influence (Table 1, column 2).
    pub coi_registers: usize,
    /// Gates in the property's cone of influence (Table 1, column 3).
    pub coi_gates: usize,
    /// Total wall-clock time (Table 1, column 4).
    pub elapsed: Duration,
    /// Length of the reported error trace, if falsified.
    pub trace_length: Option<usize>,
    /// Registers added per refinement round.
    pub refinement_sizes: Vec<usize>,
    /// Hybrid-engine statistics accumulated over all iterations.
    pub hybrid: HybridStats,
    /// Step-3 engine effort (random simulation and sequential ATPG)
    /// accumulated over all concretization attempts.
    pub concretize: ConcretizeStats,
    /// BDD kernel counters merged over every iteration's manager.
    pub bdd: rfn_bdd::BddStats,
}

/// How an RFN run ended.
#[derive(Clone, Debug)]
pub enum RfnOutcome {
    /// The property is true: a forward fixpoint on an over-approximating
    /// abstract model avoided every target state.
    Proved {
        /// Run statistics.
        stats: RfnStats,
    },
    /// The property is false; the trace is a validated counterexample on the
    /// original design.
    Falsified {
        /// The error trace (cube-level; unassigned inputs are don't-cares).
        trace: Trace,
        /// Run statistics.
        stats: RfnStats,
    },
    /// Limits were exhausted without a verdict.
    Inconclusive {
        /// Human-readable reason.
        reason: String,
        /// Run statistics.
        stats: RfnStats,
    },
}

impl RfnOutcome {
    /// The run statistics regardless of verdict.
    pub fn stats(&self) -> &RfnStats {
        match self {
            RfnOutcome::Proved { stats }
            | RfnOutcome::Falsified { stats, .. }
            | RfnOutcome::Inconclusive { stats, .. } => stats,
        }
    }

    /// Whether the property was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, RfnOutcome::Proved { .. })
    }

    /// Whether the property was falsified.
    pub fn is_falsified(&self) -> bool {
        matches!(self, RfnOutcome::Falsified { .. })
    }
}

/// The RFN verification tool: ties the four steps of the paper's loop
/// together. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Rfn<'n> {
    netlist: &'n Netlist,
    property: Property,
    options: RfnOptions,
}

impl<'n> Rfn<'n> {
    /// Creates a verifier for one property.
    ///
    /// # Errors
    ///
    /// Fails if the netlist does not validate or the property signal is out
    /// of range.
    pub fn new(
        netlist: &'n Netlist,
        property: &Property,
        options: RfnOptions,
    ) -> Result<Self, RfnError> {
        netlist.validate()?;
        if property.signal.index() >= netlist.num_signals() {
            return Err(RfnError::BadProperty(format!(
                "target signal {} out of range",
                property.signal
            )));
        }
        Ok(Rfn {
            netlist,
            property: property.clone(),
            options,
        })
    }

    /// Runs the abstraction-refinement loop to a verdict or resource
    /// exhaustion.
    ///
    /// # Errors
    ///
    /// Returns structural errors only; running out of capacity yields
    /// [`RfnOutcome::Inconclusive`].
    pub fn run(&self) -> Result<RfnOutcome, RfnError> {
        let ctx = self.effective_ctx();
        let mut root = ctx.span_with(
            "rfn",
            vec![("property".to_owned(), self.property.name.as_str().into())],
        );
        let result = self.run_inner(&ctx);
        if let Ok(outcome) = &result {
            record_outcome(&mut root, outcome);
        }
        result
    }

    /// The run's event context: an explicitly attached trace context wins;
    /// otherwise a nonzero verbosity gets a stderr-rendering context, and a
    /// silent run gets the free disabled context.
    fn effective_ctx(&self) -> TraceCtx {
        if self.options.common.trace.is_enabled() {
            self.options.common.trace.clone()
        } else if self.options.verbosity > 0 {
            TraceCtx::new(Arc::new(StderrSink::new()))
        } else {
            TraceCtx::disabled()
        }
    }

    fn run_inner(&self, ctx: &TraceCtx) -> Result<RfnOutcome, RfnError> {
        let start = Instant::now();
        let budget = &self.options.common.budget;
        let mut stats = RfnStats::default();
        let coi = Coi::of(self.netlist, [self.property.signal]);
        stats.coi_registers = coi.num_registers();
        stats.coi_gates = coi.num_gates();

        // Initial abstraction: the registers mentioned by the property (the
        // watchdog register); its transitive fanin comes in through the view.
        let mut abstraction = Abstraction::new();
        if self.netlist.is_register(self.property.signal) {
            abstraction.insert(self.property.signal);
        }
        // Saved BDD variable order across iterations (paper, end of §2.2).
        let mut saved_order: Vec<(SignalId, VarKind)> = Vec::new();
        let mut sim_seed = self.options.concretize_sim.seed;
        let mut start_iteration = 0;

        let ckpt_path = self
            .options
            .checkpoint_dir
            .as_ref()
            .map(|dir| LoopCheckpoint::path_for(dir, &self.property.name));
        if self.options.resume {
            if let Some(path) = ckpt_path.as_ref().filter(|p| p.exists()) {
                let ckpt = LoopCheckpoint::load(path).map_err(RfnError::Checkpoint)?;
                self.apply_checkpoint(&ckpt, &mut abstraction, &mut saved_order)?;
                start_iteration = ckpt.next_iteration;
                sim_seed = ckpt.sim_seed;
                stats.refinement_sizes = ckpt.refinement_sizes.clone();
                ctx.point(
                    "checkpoint.load",
                    vec![
                        ("property".to_owned(), self.property.name.as_str().into()),
                        ("next_iteration".to_owned(), ckpt.next_iteration.into()),
                        ("registers".to_owned(), abstraction.len().into()),
                    ],
                );
                self.log(
                    ctx,
                    &format!(
                        "resumed from checkpoint: iteration {}, {} registers",
                        ckpt.next_iteration,
                        abstraction.len()
                    ),
                );
            }
        }

        // Warm-start: seed the first iteration's variable order from the
        // persistent order cache. A checkpoint's saved order wins — it is
        // newer than anything the cache holds.
        if saved_order.is_empty() {
            if let Some(dir) = &self.options.order_cache_dir {
                let hash = self.design_key();
                if let Some(store) = rfn_mc::store::load_store(dir, hash, &self.property.name)
                    .map_err(|e| RfnError::at(Phase::Setup, e))?
                {
                    store
                        .validate(hash, &self.property.name)
                        .map_err(|e| RfnError::at(Phase::Setup, rfn_mc::McError::Store(e)))?;
                    let mut order = Vec::with_capacity(store.order.len());
                    for label in &store.order {
                        match rfn_mc::store::label_signal(self.netlist, label) {
                            Some(pair) => order.push(pair),
                            None => {
                                return Err(RfnError::Checkpoint(format!(
                                    "order cache names unknown label `{label}`"
                                )))
                            }
                        }
                    }
                    ctx.point(
                        "order_cache.load",
                        vec![
                            ("property".to_owned(), self.property.name.as_str().into()),
                            ("vars".to_owned(), order.len().into()),
                        ],
                    );
                    self.log(
                        ctx,
                        &format!(
                            "warm-started variable order from cache ({} vars)",
                            order.len()
                        ),
                    );
                    saved_order = order;
                }
            }
        }

        // One set of reach options for the whole run, so the reorder
        // trigger floor outlives each iteration's fresh manager and backs
        // off after unprofitable sifts (see `back_off_reorder`).
        let mut reach_opts = self.options.reach.clone();
        reach_opts.common.trace = ctx.clone();
        reach_opts.common.budget = budget.clone();
        let mut concretize_opts = ConcretizeOptions {
            atpg: self.options.concretize_atpg.clone(),
            sim: self.options.concretize_sim.clone(),
        };
        concretize_opts.atpg.trace = ctx.clone();
        concretize_opts.sim.trace = ctx.clone();
        concretize_opts.atpg.budget = budget.clone();
        concretize_opts.sim.budget = budget.clone();
        concretize_opts.sim.seed = sim_seed;
        let target = property_cube(&self.property);
        for iteration in start_iteration..self.options.max_iterations {
            stats.iterations = iteration + 1;
            stats.abstract_registers = abstraction.len();
            let _it_span = ctx.span_with(
                "iteration",
                vec![
                    ("n".to_owned(), iteration.into()),
                    ("abstract_registers".to_owned(), abstraction.len().into()),
                ],
            );
            if let Err(e) = budget.check() {
                return Ok(self.inconclusive(ctx, e.as_str(), stats, start));
            }
            // Step 1: the abstract model, in the previous iteration's
            // variable order. The shared budget governs the manager from
            // model construction on.
            let (view, built) = {
                let _model_span = ctx.span("model");
                let view = abstraction.view(self.netlist, [self.property.signal])?;
                let mut mgr = rfn_bdd::BddManager::new();
                mgr.set_node_limit(self.options.mc_node_limit);
                mgr.set_budget(budget.clone());
                let model_opts = rfn_mc::ModelOptions {
                    cluster_limit: self.options.reach.cluster_limit,
                    static_order: self.options.reach.static_order,
                };
                let built = SymbolicModel::with_options(
                    self.netlist,
                    ModelSpec::from_view(&view),
                    mgr,
                    model_opts,
                )
                .map(|mut model| {
                    self.restore_order(&mut model, &saved_order);
                    model
                });
                (view, built)
            };
            let exact = view.pseudo_inputs().is_empty();
            let mut model = match built {
                Ok(m) => m,
                Err(rfn_mc::McError::Bdd(e)) => {
                    return Ok(self.inconclusive(
                        ctx,
                        &format!(
                            "BDD {} while building the abstract model",
                            AbortReason::of(&e)
                        ),
                        stats,
                        start,
                    ))
                }
                Err(e) => return Err(e.into()),
            };

            // Step 2: prove or find an abstract error trace.
            let targets = {
                let sig = model.signal_bdd(self.property.signal)?;
                if self.property.value {
                    sig
                } else {
                    match model.manager().not(sig) {
                        Ok(b) => b,
                        Err(e) => {
                            return Ok(self.inconclusive(
                                ctx,
                                &format!("BDD {} on target construction", AbortReason::of(&e)),
                                stats,
                                start,
                            ))
                        }
                    }
                }
            };
            let reach = forward_reach(&mut model, targets, &reach_opts)
                .map_err(|e| RfnError::at(Phase::Reach, e))?;
            stats.bdd.merge(&reach.stats);
            reach_opts.back_off_reorder(&reach.stats);
            let hit_step = match reach.verdict {
                ReachVerdict::FixpointProved => {
                    self.log(
                        ctx,
                        &format!(
                            "proved with {} registers in the abstract model",
                            abstraction.len()
                        ),
                    );
                    self.save_order_cache(ctx, &self.save_order(&model));
                    stats.elapsed = start.elapsed();
                    return Ok(RfnOutcome::Proved { stats });
                }
                ReachVerdict::Aborted => {
                    let reason = reach
                        .abort
                        .map_or_else(|| "unknown".to_string(), |r| r.to_string());
                    return Ok(self.inconclusive(
                        ctx,
                        &format!("symbolic reachability out of capacity on the abstract model ({reason})"),
                        stats,
                        start,
                    ));
                }
                ReachVerdict::TargetHit { step } => step,
            };

            // Hybrid engine: reconstruct one or more abstract error traces,
            // every seed sharing the iteration's engine.
            let mut hybrid_atpg = self.options.hybrid_atpg.clone();
            hybrid_atpg.trace = ctx.clone();
            hybrid_atpg.budget = budget.clone();
            hybrid_atpg.phase = GovPhase::Hybrid;
            let traces: Vec<rfn_netlist::Trace> = {
                let mut hspan = ctx.span("hybrid");
                let reconstructed =
                    HybridEngine::new(self.netlist, &view, &mut model, &hybrid_atpg).and_then(
                        |engine| {
                            engine.traces(
                                &mut model,
                                &reach.rings,
                                hit_step,
                                targets,
                                self.options.max_abstract_traces.max(1),
                            )
                        },
                    );
                let (traces, round) = match reconstructed {
                    // Kernel errors are budget exhaustion (deadline, ceiling,
                    // cancellation): an ordinary outcome, as in reach.
                    Err(RfnError::Mc {
                        source: rfn_mc::McError::Bdd(e),
                        ..
                    }) => {
                        return Ok(self.inconclusive(
                            ctx,
                            &format!(
                                "hybrid trace reconstruction out of budget ({})",
                                AbortReason::of(&e)
                            ),
                            stats,
                            start,
                        ))
                    }
                    r => r?,
                };
                if traces.is_empty() {
                    return Ok(self.inconclusive(
                        ctx,
                        "hybrid engine failed to reconstruct an abstract error trace",
                        stats,
                        start,
                    ));
                }
                stats.hybrid.merge(&round);
                round.record(&mut hspan, &traces, hit_step);
                traces
            };
            self.log(
                ctx,
                &format!(
                    "{} abstract error trace(s) of {} cycles (hit at step {}) on {} registers",
                    traces.len(),
                    traces[0].num_cycles(),
                    hit_step,
                    abstraction.len()
                ),
            );
            // Save the variable order for the next iteration.
            saved_order = self.save_order(&model);
            drop(model);

            // Exact abstraction: the abstract traces are real (their inputs
            // are real primary inputs of the design).
            if exact {
                let trace = traces.into_iter().next().expect("non-empty");
                if crate::validate_trace(self.netlist, &self.property, &trace)? {
                    return Ok(self.falsified(ctx, &saved_order, trace, stats, start));
                }
                return Ok(self.inconclusive(
                    ctx,
                    "exact abstraction produced a non-replayable trace (internal inconsistency)",
                    stats,
                    start,
                ));
            }

            // Step 3: guided search on the original design, one corridor per
            // abstract trace (the future-work multi-trace extension when
            // `max_abstract_traces > 1`), every corridor sharing the
            // iteration's engines.
            let mut concretizer = Concretizer::new(self.netlist, concretize_opts.clone());
            for abstract_trace in &traces {
                let found = {
                    let mut cspan = ctx.span_with(
                        "concretize",
                        vec![("depth".to_owned(), abstract_trace.num_cycles().into())],
                    );
                    let (outcome, cstats) = concretizer.concretize(&target, abstract_trace)?;
                    stats.concretize.merge(&cstats);
                    cstats.record(&mut cspan, &outcome, budget);
                    match outcome {
                        ConcretizeOutcome::Falsified(t) => Some(t),
                        ConcretizeOutcome::Spurious | ConcretizeOutcome::Unknown => None,
                    }
                };
                if let Some(trace) = found {
                    self.log(
                        ctx,
                        &format!(
                            "falsified: {}-cycle error trace on the original design",
                            trace.num_cycles()
                        ),
                    );
                    return Ok(self.falsified(ctx, &saved_order, trace, stats, start));
                }
            }
            drop(concretizer);

            // Step 4: refine against the first (fattest-seed) trace.
            let mut refine_opts = self.options.refine.clone();
            refine_opts.atpg.trace = ctx.clone();
            refine_opts.atpg.budget = budget.clone();
            refine_opts.atpg.phase = GovPhase::Refine;
            let report = {
                let mut rspan = ctx.span("refine");
                let report = refine(
                    self.netlist,
                    &mut abstraction,
                    &self.property,
                    &traces[0],
                    &refine_opts,
                )?;
                rspan.record("added", report.added.len());
                rspan.record("candidates", report.candidates);
                rspan.record("conflicts", report.conflicts_found);
                rspan.record("checks", report.minimization_checks);
                rspan.record("frequency_fallback", report.used_frequency_fallback);
                report
            };
            self.log(
                ctx,
                &format!(
                    "refined: +{} registers ({} candidates, {} conflicts)",
                    report.added.len(),
                    report.candidates,
                    report.conflicts_found
                ),
            );
            if report.added.is_empty() {
                return Ok(self.inconclusive(
                    ctx,
                    "refinement found no crucial registers to add",
                    stats,
                    start,
                ));
            }
            stats.refinement_sizes.push(report.added.len());

            // Snapshot the loop state so a killed or exhausted run can
            // continue from here with `resume`.
            if let Some(path) = &ckpt_path {
                let ckpt = LoopCheckpoint {
                    schema: crate::CHECKPOINT_SCHEMA,
                    design: self.netlist.name().to_owned(),
                    design_hash: self.design_key(),
                    property_name: self.property.name.clone(),
                    property_signal: self.netlist.signal_name(self.property.signal).to_owned(),
                    property_value: self.property.value,
                    next_iteration: iteration + 1,
                    registers: abstraction.iter().map(|r| self.signal_ref(r)).collect(),
                    saved_order: saved_order
                        .iter()
                        .map(|&(s, kind)| (self.signal_ref(s), kind_name(kind).to_owned()))
                        .collect(),
                    refinement_sizes: stats.refinement_sizes.clone(),
                    elapsed_ms: start.elapsed().as_millis() as u64,
                    budget_remaining_ms: budget.remaining().map(|d| d.as_millis() as u64),
                    sim_seed,
                };
                ckpt.write_atomic(path).map_err(|e| {
                    RfnError::Checkpoint(format!("writing {}: {e}", path.display()))
                })?;
                ctx.point(
                    "checkpoint.write",
                    vec![
                        ("property".to_owned(), self.property.name.as_str().into()),
                        ("next_iteration".to_owned(), (iteration + 1).into()),
                        ("registers".to_owned(), abstraction.len().into()),
                    ],
                );
            }
        }
        Ok(self.inconclusive(ctx, "iteration limit exceeded", stats, start))
    }

    /// Restores abstraction and variable order from a snapshot, after
    /// validating that it belongs to this design and property.
    fn apply_checkpoint(
        &self,
        ckpt: &LoopCheckpoint,
        abstraction: &mut Abstraction,
        saved_order: &mut Vec<(SignalId, VarKind)>,
    ) -> Result<(), RfnError> {
        // Design identity is validated by canonical hash, not by name: the
        // hash is the content hash for file-loaded designs and the
        // structural hash otherwise, so a renamed file still resumes and a
        // changed one never does.
        if ckpt.design_hash != self.design_key() {
            return Err(RfnError::Checkpoint(format!(
                "snapshot was taken on design `{}` (identity {:016x}), \
                 not `{}` (identity {:016x})",
                ckpt.design,
                ckpt.design_hash,
                self.netlist.name(),
                self.design_key(),
            )));
        }
        let signal_name = self.netlist.signal_name(self.property.signal);
        if ckpt.property_name != self.property.name
            || ckpt.property_signal != signal_name
            || ckpt.property_value != self.property.value
        {
            return Err(RfnError::Checkpoint(format!(
                "snapshot is for property `{}` on `{}`={}, not `{}` on `{}`={}",
                ckpt.property_name,
                ckpt.property_signal,
                u8::from(ckpt.property_value),
                self.property.name,
                signal_name,
                u8::from(self.property.value),
            )));
        }
        let find = |name: &str| self.resolve_signal(name);
        for name in &ckpt.registers {
            abstraction.insert(find(name)?);
        }
        saved_order.clear();
        for (name, kind) in &ckpt.saved_order {
            let kind = match kind.as_str() {
                "current" => VarKind::Current,
                "next" => VarKind::Next,
                "input" => VarKind::Input,
                other => {
                    return Err(RfnError::Checkpoint(format!(
                        "snapshot has unknown variable kind `{other}`"
                    )))
                }
            };
            saved_order.push((find(name)?, kind));
        }
        Ok(())
    }

    /// The design identity hash keying order caches and checkpoints: the
    /// session-provided canonical identity when set, else the structural
    /// netlist hash.
    fn design_key(&self) -> u64 {
        self.options
            .design_hash
            .unwrap_or_else(|| self.netlist.structural_hash())
    }

    /// A stable textual reference for a signal: its name, or `#<index>` for
    /// anonymous nets (positions are deterministic for a given design
    /// generator, and snapshots are already design-checked before use).
    fn signal_ref(&self, s: SignalId) -> String {
        let name = self.netlist.signal_name(s);
        if name.is_empty() {
            format!("#{}", s.index())
        } else {
            name.to_owned()
        }
    }

    /// Resolves a [`Self::signal_ref`] back to a signal id.
    fn resolve_signal(&self, name: &str) -> Result<SignalId, RfnError> {
        if let Some(idx) = name.strip_prefix('#') {
            return idx
                .parse::<usize>()
                .ok()
                .and_then(|i| self.netlist.signals().nth(i))
                .ok_or_else(|| {
                    RfnError::Checkpoint(format!("snapshot names unknown signal `{name}`"))
                });
        }
        self.netlist
            .find(name)
            .ok_or_else(|| RfnError::Checkpoint(format!("snapshot names unknown signal `{name}`")))
    }

    /// Ends the run with a validated counterexample. The registers with
    /// unknown resets get the cycle-0 values the validating replay gave
    /// them, so the trace replays on its own.
    fn falsified(
        &self,
        ctx: &TraceCtx,
        saved_order: &[(SignalId, VarKind)],
        mut trace: Trace,
        mut stats: RfnStats,
        start: Instant,
    ) -> RfnOutcome {
        let resets = replay_resets(self.netlist, &trace.steps()[0].state);
        trace.steps_mut()[0]
            .state
            .merge(&resets)
            .expect("reset values agree with the state they were read from");
        self.save_order_cache(ctx, saved_order);
        stats.trace_length = Some(trace.num_cycles());
        stats.elapsed = start.elapsed();
        RfnOutcome::Falsified { trace, stats }
    }

    fn inconclusive(
        &self,
        ctx: &TraceCtx,
        reason: &str,
        mut stats: RfnStats,
        start: Instant,
    ) -> RfnOutcome {
        stats.elapsed = start.elapsed();
        self.log(ctx, &format!("inconclusive: {reason}"));
        RfnOutcome::Inconclusive {
            reason: reason.to_owned(),
            stats,
        }
    }

    /// Emits a human-readable progress message as a `log` point event. With
    /// `verbosity > 0` and no explicit trace context, these render on stderr
    /// through the [`StderrSink`]; in a JSONL trace they appear as `log`
    /// points inside the current span.
    fn log(&self, ctx: &TraceCtx, message: &str) {
        if ctx.is_enabled() {
            ctx.point(
                "log",
                vec![
                    ("property".to_owned(), self.property.name.as_str().into()),
                    ("msg".to_owned(), message.into()),
                ],
            );
        }
    }

    fn save_order(&self, model: &SymbolicModel<'_>) -> Vec<(SignalId, VarKind)> {
        model
            .manager_ref()
            .current_order()
            .into_iter()
            .map(|v| model.var_signal(v))
            .collect()
    }

    /// Writes a converged variable order to the persistent cache as an
    /// order-only store keyed by the design's structural hash and the
    /// property name. A cache write failure downgrades to a trace point —
    /// it must not destroy a conclusive verdict.
    fn save_order_cache(&self, ctx: &TraceCtx, order: &[(SignalId, VarKind)]) {
        let Some(dir) = &self.options.order_cache_dir else {
            return;
        };
        if order.is_empty() {
            return;
        }
        let labels = order
            .iter()
            .map(|&(s, kind)| rfn_mc::store::signal_label(self.netlist, s, kind))
            .collect();
        let store =
            rfn_bdd::BddStore::order_only(self.design_key(), self.property.name.clone(), labels);
        match rfn_mc::store::save_store(dir, &store) {
            Ok(_) => ctx.point(
                "order_cache.save",
                vec![
                    ("property".to_owned(), self.property.name.as_str().into()),
                    ("vars".to_owned(), store.order.len().into()),
                ],
            ),
            Err(e) => ctx.point(
                "order_cache.save_error",
                vec![
                    ("property".to_owned(), self.property.name.as_str().into()),
                    ("error".to_owned(), e.to_string().into()),
                ],
            ),
        }
    }

    /// Applies a variable order saved from the previous iteration: signals
    /// present in the new model keep their relative order, with each
    /// register's `(current, next)` pair kept together. New signals stay at
    /// the bottom.
    fn restore_order(&self, model: &mut SymbolicModel<'_>, saved: &[(SignalId, VarKind)]) {
        if saved.is_empty() {
            return;
        }
        let mut order = Vec::with_capacity(saved.len());
        for &(s, kind) in saved {
            let var = match kind {
                VarKind::Current => model.current_var(s),
                VarKind::Next => model.next_var(s),
                VarKind::Input => model.try_input_var(s),
            };
            if let Some(v) = var {
                order.push(v);
            }
        }
        model.manager().set_order(&order);
    }
}

fn kind_name(kind: VarKind) -> &'static str {
    match kind {
        VarKind::Current => "current",
        VarKind::Next => "next",
        VarKind::Input => "input",
    }
}

/// Records the verdict and the full [`RfnStats`] on the `rfn` root span's
/// exit event, so a JSONL event file alone reconstructs the stats exactly
/// (`elapsed` is the span's own `elapsed_us`; `refinement_sizes` is the
/// sequence of `added` fields on the per-iteration `refine` spans).
fn record_outcome(span: &mut Span, outcome: &RfnOutcome) {
    let (verdict, stats) = match outcome {
        RfnOutcome::Proved { stats } => ("proved", stats),
        RfnOutcome::Falsified { stats, .. } => ("falsified", stats),
        RfnOutcome::Inconclusive { stats, .. } => ("inconclusive", stats),
    };
    span.record("verdict", verdict);
    if let RfnOutcome::Inconclusive { reason, .. } = outcome {
        span.record("reason", reason.as_str());
    }
    span.record("iterations", stats.iterations);
    span.record("abstract_registers", stats.abstract_registers);
    span.record("coi_registers", stats.coi_registers);
    span.record("coi_gates", stats.coi_gates);
    if let Some(len) = stats.trace_length {
        span.record("trace_length", len);
    }
    span.record("hybrid.no_cut_steps", stats.hybrid.no_cut_steps);
    span.record("hybrid.min_cut_steps", stats.hybrid.min_cut_steps);
    span.record("hybrid.fallback_steps", stats.hybrid.fallback_steps);
    span.record("hybrid.abstract_inputs", stats.hybrid.abstract_inputs);
    span.record("hybrid.min_cut_inputs", stats.hybrid.min_cut_inputs);
    span.record("concretize.random_batches", stats.concretize.random_batches);
    span.record(
        "concretize.random_patterns",
        stats.concretize.random_patterns,
    );
    span.record("concretize.random_hits", stats.concretize.random_hits);
    span.record(
        "concretize.random_gate_evals",
        stats.concretize.random_gate_evals,
    );
    span.record(
        "concretize.random_falsified",
        stats.concretize.random_falsified,
    );
    span.record(
        "concretize.atpg_backtracks",
        stats.concretize.atpg_backtracks,
    );
    span.record("concretize.atpg_decisions", stats.concretize.atpg_decisions);
    span.record("bdd.unique_probes", stats.bdd.unique_probes);
    span.record("bdd.unique_collisions", stats.bdd.unique_collisions);
    span.record("bdd.ite_hits", stats.bdd.ite_hits);
    span.record("bdd.ite_misses", stats.bdd.ite_misses);
    span.record("bdd.exists_hits", stats.bdd.exists_hits);
    span.record("bdd.exists_misses", stats.bdd.exists_misses);
    span.record("bdd.and_exists_hits", stats.bdd.and_exists_hits);
    span.record("bdd.and_exists_misses", stats.bdd.and_exists_misses);
    span.record("bdd.constrain_hits", stats.bdd.constrain_hits);
    span.record("bdd.constrain_misses", stats.bdd.constrain_misses);
    span.record("bdd.restrict_hits", stats.bdd.restrict_hits);
    span.record("bdd.restrict_misses", stats.bdd.restrict_misses);
    span.record("bdd.gc_runs", stats.bdd.gc_runs);
    span.record("bdd.gc_nodes_freed", stats.bdd.gc_nodes_freed);
    span.record("bdd.auto_gc_runs", stats.bdd.auto_gc_runs);
    span.record("bdd.peak_nodes", stats.bdd.peak_nodes);
    span.record("bdd.sift_runs", stats.bdd.sift_runs);
    span.record("bdd.unprofitable_sifts", stats.bdd.unprofitable_sifts);
    span.record("bdd.sift_nodes_shrunk", stats.bdd.sift_nodes_shrunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// Big irrelevant periphery + small relevant core. The property needs
    /// only `gate`, `mode` and the watchdog; dozens of junk registers inflate
    /// the COI.
    fn layered_design(junk: usize) -> (Netlist, Property) {
        let mut n = Netlist::new("layered");
        let i = n.add_input("i");
        // Relevant core: mode sticks at 0; gate = mode & i; watchdog latches.
        let mode = n.add_register("mode", Some(false));
        n.set_register_next(mode, mode).unwrap();
        let gate = n.add_gate("gate", GateOp::And, &[mode, i]);
        let w = n.add_register("w", Some(false));
        let wor = n.add_gate("wor", GateOp::Or, &[w, gate]);
        n.set_register_next(w, wor).unwrap();
        // Junk: a shift chain also feeding the watchdog's COI via an AND with
        // constant 0 (inflates the COI without affecting behavior).
        let zero = n.add_const("zero", false);
        let mut prev = i;
        let mut last_junk = None;
        for k in 0..junk {
            let r = n.add_register(&format!("junk{k}"), Some(false));
            n.set_register_next(r, prev).unwrap();
            prev = r;
            last_junk = Some(r);
        }
        if let Some(lj) = last_junk {
            let masked = n.add_gate("masked", GateOp::And, &[lj, zero]);
            let wor2 = n.add_gate("wor2", GateOp::Or, &[wor, masked]);
            // Rewire: watchdog takes wor2 instead. (Build order trick: create
            // a second watchdog that is the actual property target.)
            let w2 = n.add_register("w2", Some(false));
            n.set_register_next(w2, wor2).unwrap();
            n.validate().unwrap();
            let p = Property::never(&n, "w2_low", w2);
            return (n, p);
        }
        n.validate().unwrap();
        let p = Property::never(&n, "w_low", w);
        (n, p)
    }

    #[test]
    fn proves_with_small_abstraction() {
        let (n, p) = layered_design(30);
        let outcome = Rfn::new(&n, &p, RfnOptions::default())
            .unwrap()
            .run()
            .unwrap();
        let RfnOutcome::Proved { stats } = outcome else {
            panic!("expected proof, got {outcome:?}");
        };
        // COI includes the junk chain, but the abstraction must stay small.
        assert!(stats.coi_registers > 30);
        assert!(
            stats.abstract_registers <= 4,
            "abstraction too big: {}",
            stats.abstract_registers
        );
    }

    /// Same design but the mode register can be armed by an input: the
    /// property is falsifiable.
    fn falsifiable_design() -> (Netlist, Property) {
        let mut n = Netlist::new("fd");
        let i = n.add_input("i");
        let arm = n.add_input("arm");
        let mode = n.add_register("mode", Some(false));
        let marm = n.add_gate("marm", GateOp::Or, &[mode, arm]);
        n.set_register_next(mode, marm).unwrap();
        let gate = n.add_gate("gate", GateOp::And, &[mode, i]);
        let w = n.add_register("w", Some(false));
        let wor = n.add_gate("wor", GateOp::Or, &[w, gate]);
        n.set_register_next(w, wor).unwrap();
        // Junk chain in the COI.
        let mut prev = i;
        for k in 0..20 {
            let r = n.add_register(&format!("junk{k}"), Some(false));
            n.set_register_next(r, prev).unwrap();
            prev = r;
        }
        n.validate().unwrap();
        let p = Property::never(&n, "w_low", w);
        (n, p)
    }

    #[test]
    fn falsifies_with_validated_trace() {
        let (n, p) = falsifiable_design();
        let outcome = Rfn::new(&n, &p, RfnOptions::default())
            .unwrap()
            .run()
            .unwrap();
        let RfnOutcome::Falsified { trace, stats } = outcome else {
            panic!("expected falsification, got {outcome:?}");
        };
        assert!(crate::validate_trace(&n, &p, &trace).unwrap());
        assert!(stats.trace_length.unwrap() >= 2);
    }

    /// A design whose first-iteration abstract trace has a *feasible*
    /// corridor: the pseudo-input register `d0` has an unknown reset, so the
    /// corridor's demand `d0 = 1` at cycle 0 is realizable and the random
    /// engine falsifies before the sequential ATPG ever runs — zero ATPG
    /// backtracks on the winning attempt.
    #[test]
    fn random_engine_concretizes_without_atpg_backtracks() {
        let mut n = Netlist::new("rnd");
        let i = n.add_input("i");
        let d0 = n.add_register("d0", None);
        n.set_register_next(d0, d0).unwrap();
        let gate = n.add_gate("gate", GateOp::And, &[d0, i]);
        let w = n.add_register("w", Some(false));
        let wor = n.add_gate("wor", GateOp::Or, &[w, gate]);
        n.set_register_next(w, wor).unwrap();
        // Junk chain to keep the COI big enough that the loop abstracts.
        let mut prev = i;
        for k in 0..20 {
            let r = n.add_register(&format!("junk{k}"), Some(false));
            n.set_register_next(r, prev).unwrap();
            prev = r;
        }
        n.validate().unwrap();
        let p = Property::never(&n, "w_low", w);
        let outcome = Rfn::new(&n, &p, RfnOptions::default())
            .unwrap()
            .run()
            .unwrap();
        let RfnOutcome::Falsified { trace, stats } = outcome else {
            panic!("expected falsification, got {outcome:?}");
        };
        assert!(crate::validate_trace(&n, &p, &trace).unwrap());
        assert!(stats.concretize.random_falsified);
        assert!(stats.concretize.random_hits > 0);
        assert_eq!(stats.concretize.atpg_backtracks, 0);
    }

    /// Disabling the random engine must not change the verdict — the ATPG
    /// stage picks up the slack.
    #[test]
    fn falsifies_with_random_engine_disabled() {
        let (n, p) = falsifiable_design();
        let opts = RfnOptions::default().with_sim_batches(0);
        let outcome = Rfn::new(&n, &p, opts).unwrap().run().unwrap();
        let RfnOutcome::Falsified { stats, .. } = outcome else {
            panic!("expected falsification, got {outcome:?}");
        };
        assert!(!stats.concretize.random_falsified);
        assert_eq!(stats.concretize.random_patterns, 0);
    }

    #[test]
    fn iteration_limit_reports_inconclusive() {
        let (n, p) = falsifiable_design();
        let opts = RfnOptions {
            max_iterations: 0,
            ..RfnOptions::default()
        };
        let outcome = Rfn::new(&n, &p, opts).unwrap().run().unwrap();
        assert!(matches!(outcome, RfnOutcome::Inconclusive { .. }));
    }

    #[test]
    fn bad_property_is_rejected() {
        let (n, _) = falsifiable_design();
        let bad = Property::never_value("bad", SignalId::from_index(10_000), true);
        assert!(matches!(
            Rfn::new(&n, &bad, RfnOptions::default()),
            Err(RfnError::BadProperty(_))
        ));
    }

    /// One traced `sift` point: the RFN iteration it ran in, the live node
    /// counts around the pass, and the trigger floor of that iteration.
    #[derive(Debug)]
    struct SiftPoint {
        iteration: u64,
        before: usize,
        after: usize,
        floor: usize,
    }

    fn sift_points(events: &[rfn_trace::Event]) -> Vec<SiftPoint> {
        use rfn_trace::{EventKind, Value};
        let field = |fields: &[(String, Value)], key: &str| -> u64 {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::U64(v))) => *v,
                other => panic!("field {key}: {other:?}"),
            }
        };
        let mut iteration = 0;
        let mut out = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::Enter { name, fields, .. } if name == "iteration" => {
                    iteration = field(fields, "n");
                }
                EventKind::Point { name, fields, .. } if name == "sift" => out.push(SiftPoint {
                    iteration,
                    before: field(fields, "live_before") as usize,
                    after: field(fields, "live_after") as usize,
                    floor: field(fields, "floor") as usize,
                }),
                _ => {}
            }
        }
        out
    }

    /// Run-scoped reorder backoff: every iteration builds a fresh manager
    /// and schedule, but an unprofitable sift pass doubles the trigger
    /// floor for the rest of the run, so no later iteration sifts at or
    /// below the doubled floor.
    #[test]
    fn unprofitable_sifts_raise_the_floor_for_later_iterations() {
        // The quick processor's `mutex` abstractions hold ~2,600 live nodes
        // from iteration 2 on; sifting them gains under 1/16, so with a
        // floor of 2,000 only the first such iteration may sift.
        let design = rfn_designs::processor_module(&rfn_designs::ProcessorParams {
            width: 16,
            regfile_words: 8,
            store_entries: 4,
            cache_lines: 4,
            pipe_stages: 2,
            multipliers: 2,
            stall_threshold: 27,
        });
        let property = design.property("mutex").unwrap();
        let sink = Arc::new(rfn_trace::MemorySink::new());
        let mut options = RfnOptions::default().with_trace(TraceCtx::new(sink.clone()));
        options.reach.reorder_threshold = 2_000;
        let outcome = Rfn::new(&design.netlist, property, options)
            .unwrap()
            .run()
            .unwrap();
        let RfnOutcome::Proved { stats } = outcome else {
            panic!("mutex must be proved, got {outcome:?}");
        };
        let sifts = sift_points(&sink.take());
        let mut raised: Option<(u64, usize)> = None;
        for s in &sifts {
            if let Some((first_iteration, floor)) = raised {
                if s.iteration >= first_iteration {
                    assert!(
                        s.floor >= floor && s.before > floor,
                        "iteration {} sifted at {} live nodes (floor {}) below the raised floor {floor}",
                        s.iteration,
                        s.before,
                        s.floor
                    );
                }
            }
            if raised.is_none() && !rfn_bdd::sift_profitable(s.before, s.after) {
                raised = Some((s.iteration + 1, 2 * s.floor));
            }
        }
        let (first_iteration, _) = raised.expect("no unprofitable sift: the test checks nothing");
        assert!(
            stats.iterations as u64 > first_iteration,
            "the run ended before the raised floor could apply"
        );
    }

    #[test]
    fn property_on_gate_signal_works() {
        // Target a combinational signal directly.
        let mut n = Netlist::new("g");
        let mode = n.add_register("mode", Some(false));
        n.set_register_next(mode, mode).unwrap();
        let i = n.add_input("i");
        let gate = n.add_gate("gate", GateOp::And, &[mode, i]);
        n.validate().unwrap();
        let p = Property::never(&n, "gate_low", gate);
        let outcome = Rfn::new(&n, &p, RfnOptions::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.is_proved(), "got {outcome:?}");
    }
}
