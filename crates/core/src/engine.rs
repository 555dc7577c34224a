//! The uniform engine abstraction behind the session portfolio.
//!
//! Every way the tool can decide a property — the RFN
//! abstraction-refinement loop, plain symbolic model checking, and
//! SAT-based bounded model checking — is wrapped in a lane type
//! implementing the [`Engine`] trait. The session picks lanes with
//! [`build_engines`] (the only place an [`EngineKind`] is matched on) and
//! drives them with [`run_engines`], which runs a single lane inline or
//! races several against each other on scoped threads.
//!
//! In a race every lane gets a **child** of its own cancellation token, so
//! the first lane to reach a conclusive verdict can cancel the others
//! without touching the portfolio-wide token shared by sibling property
//! jobs. Lane events are buffered per lane and absorbed into the job's
//! context in fixed lane order, keeping the merged stream deterministic in
//! everything but the cancellation cut-off points.

use std::sync::Arc;
use std::thread;

use rfn_govern::{Budget, CancelToken};
use rfn_mc::{verify_plain, PlainOptions, PlainReport, PlainVerdict};
use rfn_netlist::{Netlist, Property, Trace};
use rfn_trace::{Event, MemorySink, TraceCtx, TraceSink};

use crate::{
    verify_bmc, BmcOptions, BmcReport, BmcVerdict, Rfn, RfnError, RfnOptions, RfnOutcome, RfnStats,
};

/// Which engine lane(s) a session property job runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The RFN abstraction-refinement loop (the paper's tool).
    #[default]
    Rfn,
    /// Plain symbolic model checking on the whole cone of influence (the
    /// Table 1 baseline).
    PlainMc,
    /// SAT-based bounded model checking with UNSAT-core abstraction.
    Bmc,
    /// All three lanes raced against each other; the first conclusive
    /// verdict wins and cancels the rest.
    Race,
}

/// An engine-independent verdict for one property.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The property holds.
    Proved,
    /// The property fails at the given depth. RFN and BMC provide a
    /// validated counterexample trace; the plain engine reports the depth
    /// only.
    Falsified {
        /// The error trace, when the engine produces one.
        trace: Option<Trace>,
        /// Length of the shortest found error path, in cycles.
        depth: usize,
    },
    /// Limits were exhausted without a verdict.
    Inconclusive {
        /// Human-readable reason.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict decides the property (anything but
    /// [`Verdict::Inconclusive`]).
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, Verdict::Inconclusive { .. })
    }
}

/// What one engine lane produced: the uniform verdict plus whichever
/// engine-specific report the lane generates.
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// The engine-independent verdict.
    pub verdict: Verdict,
    /// RFN run statistics (RFN lane only).
    pub stats: Option<RfnStats>,
    /// The baseline report (plain-MC lane only).
    pub plain: Option<PlainReport>,
    /// The bounded-model-checking report (BMC lane only).
    pub bmc: Option<BmcReport>,
}

impl Default for Verdict {
    fn default() -> Self {
        Verdict::Inconclusive {
            reason: "engine did not run".to_owned(),
        }
    }
}

/// One verification lane: a property-deciding procedure the portfolio can
/// run or race uniformly, without knowing which engine it wraps.
///
/// The controller derives the budget it passes to [`Engine::run`] from
/// [`Engine::budget`]: unchanged when the lane runs alone, re-tokened with
/// a child cancellation token when lanes race (so a winner can cancel its
/// siblings without cancelling unrelated jobs that share the parent
/// token).
pub trait Engine: Send {
    /// Short lane name, used in trace events and inconclusive reasons.
    fn name(&self) -> &'static str;

    /// The lane's configured budget (deadline, ceilings, token).
    fn budget(&self) -> Budget;

    /// Runs the lane to a verdict under the given budget, emitting events
    /// into `ctx`.
    ///
    /// # Errors
    ///
    /// Structural errors only; capacity exhaustion is reported through
    /// [`Verdict::Inconclusive`].
    fn run(&mut self, budget: Budget, ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError>;
}

/// The RFN abstraction-refinement loop as a portfolio lane.
pub struct RfnEngine<'n> {
    netlist: &'n Netlist,
    property: Property,
    options: RfnOptions,
}

impl<'n> RfnEngine<'n> {
    /// Wraps an RFN run of `property` on `netlist` with the given options.
    pub fn new(netlist: &'n Netlist, property: &Property, options: RfnOptions) -> Self {
        RfnEngine {
            netlist,
            property: property.clone(),
            options,
        }
    }
}

impl Engine for RfnEngine<'_> {
    fn name(&self) -> &'static str {
        "rfn"
    }

    fn budget(&self) -> Budget {
        self.options.common.budget.clone()
    }

    fn run(&mut self, budget: Budget, ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
        let mut opts = self.options.clone();
        opts.common.budget = budget;
        opts.common.trace = ctx.clone();
        let outcome = Rfn::new(self.netlist, &self.property, opts)?.run()?;
        let (verdict, stats) = match outcome {
            RfnOutcome::Proved { stats } => (Verdict::Proved, stats),
            RfnOutcome::Falsified { trace, stats } => {
                let depth = trace.num_cycles();
                (
                    Verdict::Falsified {
                        trace: Some(trace),
                        depth,
                    },
                    stats,
                )
            }
            RfnOutcome::Inconclusive { reason, stats } => (Verdict::Inconclusive { reason }, stats),
        };
        Ok(EngineOutcome {
            verdict,
            stats: Some(stats),
            ..EngineOutcome::default()
        })
    }
}

/// Plain symbolic model checking as a portfolio lane.
pub struct PlainMcEngine<'n> {
    netlist: &'n Netlist,
    property: Property,
    options: PlainOptions,
}

impl<'n> PlainMcEngine<'n> {
    /// Wraps a plain-MC run of `property` on `netlist` with the given
    /// options.
    pub fn new(netlist: &'n Netlist, property: &Property, options: PlainOptions) -> Self {
        PlainMcEngine {
            netlist,
            property: property.clone(),
            options,
        }
    }
}

impl Engine for PlainMcEngine<'_> {
    fn name(&self) -> &'static str {
        "plain_mc"
    }

    fn budget(&self) -> Budget {
        self.options.common.budget.clone()
    }

    fn run(&mut self, budget: Budget, ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
        let mut opts = self.options.clone();
        opts.common.budget = budget;
        opts.common.trace = ctx.clone();
        let report = verify_plain(self.netlist, &self.property, &opts)?;
        Ok(EngineOutcome {
            verdict: plain_verdict(&report),
            plain: Some(report),
            ..EngineOutcome::default()
        })
    }
}

/// SAT-based bounded model checking as a portfolio lane.
pub struct BmcEngine<'n> {
    netlist: &'n Netlist,
    property: Property,
    options: BmcOptions,
}

impl<'n> BmcEngine<'n> {
    /// Wraps a BMC run of `property` on `netlist` with the given options.
    pub fn new(netlist: &'n Netlist, property: &Property, options: BmcOptions) -> Self {
        BmcEngine {
            netlist,
            property: property.clone(),
            options,
        }
    }
}

impl Engine for BmcEngine<'_> {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn budget(&self) -> Budget {
        self.options.common.budget.clone()
    }

    fn run(&mut self, budget: Budget, ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
        let mut opts = self.options.clone();
        opts.common.budget = budget;
        opts.common.trace = ctx.clone();
        let report = verify_bmc(self.netlist, &self.property, &opts)?;
        Ok(EngineOutcome {
            verdict: bmc_verdict(&report),
            bmc: Some(report),
            ..EngineOutcome::default()
        })
    }
}

/// The engine-independent verdict of a plain-MC report: running out of
/// capacity is inconclusive.
pub(crate) fn plain_verdict(report: &PlainReport) -> Verdict {
    match report.verdict {
        PlainVerdict::Proved => Verdict::Proved,
        PlainVerdict::Falsified { depth } => Verdict::Falsified { trace: None, depth },
        PlainVerdict::OutOfCapacity => Verdict::Inconclusive {
            reason: "plain model checking out of capacity".to_owned(),
        },
    }
}

/// The engine-independent verdict of a BMC report: a bounded-safe run
/// proves nothing, so it is inconclusive like an exhausted one.
pub(crate) fn bmc_verdict(report: &BmcReport) -> Verdict {
    match &report.verdict {
        BmcVerdict::Falsified { depth } => Verdict::Falsified {
            trace: report.trace.clone(),
            depth: *depth,
        },
        BmcVerdict::BoundedSafe { depth } => Verdict::Inconclusive {
            reason: format!("no counterexample up to bounded depth {depth}"),
        },
        BmcVerdict::OutOfBudget { depth, reason } => Verdict::Inconclusive {
            reason: match depth {
                Some(d) => format!("{reason} after completing depth {d}"),
                None => format!("{reason} before completing any depth"),
            },
        },
    }
}

/// Builds the lane set for an [`EngineKind`] — the single place engine
/// kinds are matched on; everything downstream handles lanes uniformly
/// through the [`Engine`] trait.
pub fn build_engines<'n>(
    kind: EngineKind,
    netlist: &'n Netlist,
    property: &Property,
    rfn: &RfnOptions,
    plain: &PlainOptions,
    bmc: &BmcOptions,
) -> Vec<Box<dyn Engine + 'n>> {
    let mut lanes: Vec<Box<dyn Engine + 'n>> = Vec::new();
    if matches!(kind, EngineKind::Rfn | EngineKind::Race) {
        lanes.push(Box::new(RfnEngine::new(netlist, property, rfn.clone())));
    }
    if matches!(kind, EngineKind::PlainMc | EngineKind::Race) {
        lanes.push(Box::new(PlainMcEngine::new(
            netlist,
            property,
            plain.clone(),
        )));
    }
    if matches!(kind, EngineKind::Bmc | EngineKind::Race) {
        lanes.push(Box::new(BmcEngine::new(netlist, property, bmc.clone())));
    }
    lanes
}

/// Runs a lane set to one outcome.
///
/// A single lane runs inline on the caller's context. Several lanes race
/// on scoped threads: each gets a child of its own token, the first
/// conclusive lane (in lane order) wins and cancels its siblings, and
/// per-lane event buffers are absorbed into `ctx` in lane order. The
/// winning verdict is combined with every lane's engine-specific report;
/// when no lane concludes, the reasons are joined into one.
///
/// # Errors
///
/// The first lane error in lane order, after all lanes have stopped. A
/// lane cancelled because another lane won may fail on its way out; such
/// an error is dropped in favour of the winning verdict.
pub fn run_engines(
    engines: &mut [Box<dyn Engine + '_>],
    ctx: &TraceCtx,
) -> Result<EngineOutcome, RfnError> {
    if engines.len() == 1 {
        let lane = &mut engines[0];
        let budget = lane.budget();
        return lane.run(budget, &mut ctx.clone());
    }

    let mut race_span = ctx.span_with(
        "race",
        vec![("lanes".to_owned(), (engines.len() as u64).into())],
    );
    let buffering = ctx.is_enabled();
    // One child token per lane: cancelling it stops that lane only, and
    // never propagates up into the shared portfolio token.
    let tokens: Vec<CancelToken> = engines
        .iter()
        .map(|lane| lane.budget().token().child())
        .collect();

    type LaneResult = (&'static str, Result<EngineOutcome, RfnError>, Vec<Event>);
    let results: Vec<LaneResult> = thread::scope(|scope| {
        let tokens = &tokens;
        let handles: Vec<_> = engines
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                scope.spawn(move || {
                    let mem = Arc::new(MemorySink::new());
                    let mut lane_ctx = if buffering {
                        TraceCtx::new(mem.clone() as Arc<dyn TraceSink>)
                    } else {
                        TraceCtx::disabled()
                    };
                    let budget = lane.budget().with_cancel_token(tokens[i].clone());
                    let name = lane.name();
                    let out = lane.run(budget, &mut lane_ctx);
                    if matches!(&out, Ok(o) if o.verdict.is_conclusive()) {
                        for (j, token) in tokens.iter().enumerate() {
                            if j != i {
                                token.cancel();
                            }
                        }
                    }
                    (name, out, mem.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine lane panicked"))
            .collect()
    });

    let mut winner: Option<(&'static str, Verdict)> = None;
    let mut reasons = Vec::new();
    let mut errors = Vec::new();
    let mut merged = EngineOutcome::default();
    for ((name, out, events), token) in results.into_iter().zip(&tokens) {
        ctx.absorb(events);
        match out {
            Err(e) => errors.push((token.is_cancelled(), e)),
            Ok(out) => {
                merged.stats = merged.stats.or(out.stats);
                merged.plain = merged.plain.or(out.plain);
                merged.bmc = merged.bmc.or(out.bmc);
                match out.verdict {
                    Verdict::Inconclusive { reason } => reasons.push(format!("{name}: {reason}")),
                    verdict => {
                        if winner.is_none() {
                            winner = Some((name, verdict));
                        }
                    }
                }
            }
        }
    }
    // A lane the winner cancelled may fail on its way out instead of
    // reporting an inconclusive verdict: that error echoes the win and must
    // not replace it.
    if let Some((_, e)) = errors
        .into_iter()
        .find(|(cancelled, _)| !(*cancelled && winner.is_some()))
    {
        return Err(e);
    }
    match winner {
        Some((name, verdict)) => {
            race_span.record("winner", name);
            merged.verdict = verdict;
        }
        None => {
            race_span.record("winner", "none");
            merged.verdict = Verdict::Inconclusive {
                reason: reasons.join("; "),
            };
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Concludes after a short delay and records when it did.
    struct Quick {
        budget: Budget,
        won_at: Arc<Mutex<Option<Instant>>>,
    }

    impl Engine for Quick {
        fn name(&self) -> &'static str {
            "quick"
        }
        fn budget(&self) -> Budget {
            self.budget.clone()
        }
        fn run(&mut self, _budget: Budget, _ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
            thread::sleep(Duration::from_millis(30));
            *self.won_at.lock().unwrap() = Some(Instant::now());
            Ok(EngineOutcome {
                verdict: Verdict::Proved,
                ..EngineOutcome::default()
            })
        }
    }

    /// Never concludes on its own: polls its budget every millisecond and
    /// yields only when cooperatively cancelled.
    struct Stubborn {
        budget: Budget,
    }

    impl Engine for Stubborn {
        fn name(&self) -> &'static str {
            "stubborn"
        }
        fn budget(&self) -> Budget {
            self.budget.clone()
        }
        fn run(&mut self, budget: Budget, _ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
            let start = Instant::now();
            while budget.check().is_ok() {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "lane was never cancelled"
                );
                thread::sleep(Duration::from_millis(1));
            }
            Ok(EngineOutcome {
                verdict: Verdict::Inconclusive {
                    reason: "cancelled".to_owned(),
                },
                ..EngineOutcome::default()
            })
        }
    }

    /// An inconclusive lane that stops immediately.
    struct GiveUp;

    impl Engine for GiveUp {
        fn name(&self) -> &'static str {
            "give_up"
        }
        fn budget(&self) -> Budget {
            Budget::unlimited()
        }
        fn run(&mut self, _budget: Budget, _ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
            Ok(EngineOutcome {
                verdict: Verdict::Inconclusive {
                    reason: "out of ideas".to_owned(),
                },
                ..EngineOutcome::default()
            })
        }
    }

    #[test]
    fn race_winner_cancels_losers_within_the_grace_period() {
        let shared = Budget::unlimited();
        let won_at = Arc::new(Mutex::new(None));
        let mut lanes: Vec<Box<dyn Engine>> = vec![
            Box::new(Quick {
                budget: shared.clone(),
                won_at: won_at.clone(),
            }),
            Box::new(Stubborn {
                budget: shared.clone(),
            }),
        ];
        let out = run_engines(&mut lanes, &TraceCtx::disabled()).unwrap();
        let done = Instant::now();
        assert!(matches!(out.verdict, Verdict::Proved));
        // The stubborn lane must have been cancelled within the 500 ms
        // grace window after the quick lane concluded.
        let won_at = won_at.lock().unwrap().expect("quick lane won");
        assert!(
            done.duration_since(won_at) < Duration::from_millis(500),
            "losers outlived the winner by {:?}",
            done.duration_since(won_at)
        );
        // Cancelling the losers' child tokens must not leak into the shared
        // parent budget.
        assert!(!shared.token().is_cancelled());
    }

    /// Fails with a kernel error once cancelled, as a lane caught inside a
    /// BDD operation would.
    struct FailsWhenCancelled {
        budget: Budget,
    }

    impl Engine for FailsWhenCancelled {
        fn name(&self) -> &'static str {
            "fails_when_cancelled"
        }
        fn budget(&self) -> Budget {
            self.budget.clone()
        }
        fn run(&mut self, budget: Budget, ctx: &mut TraceCtx) -> Result<EngineOutcome, RfnError> {
            Stubborn {
                budget: self.budget.clone(),
            }
            .run(budget, ctx)?;
            Err(RfnError::at(
                crate::Phase::Hybrid,
                rfn_mc::McError::Bdd(rfn_bdd::BddError::Cancelled),
            ))
        }
    }

    #[test]
    fn race_winner_is_not_replaced_by_a_cancelled_loser_error() {
        let shared = Budget::unlimited();
        let mut lanes: Vec<Box<dyn Engine>> = vec![
            Box::new(FailsWhenCancelled {
                budget: shared.clone(),
            }),
            Box::new(Quick {
                budget: shared,
                won_at: Arc::new(Mutex::new(None)),
            }),
        ];
        let out = run_engines(&mut lanes, &TraceCtx::disabled()).unwrap();
        assert!(matches!(out.verdict, Verdict::Proved));
    }

    #[test]
    fn race_with_no_conclusive_lane_joins_the_reasons() {
        let mut lanes: Vec<Box<dyn Engine>> = vec![Box::new(GiveUp), Box::new(GiveUp)];
        let out = run_engines(&mut lanes, &TraceCtx::disabled()).unwrap();
        let Verdict::Inconclusive { reason } = out.verdict else {
            panic!("expected inconclusive");
        };
        assert_eq!(reason, "give_up: out of ideas; give_up: out of ideas");
    }

    #[test]
    fn race_buffers_lane_events_in_lane_order() {
        let shared = Budget::unlimited();
        let won_at = Arc::new(Mutex::new(None));
        let mut lanes: Vec<Box<dyn Engine>> = vec![
            Box::new(Stubborn {
                budget: shared.clone(),
            }),
            Box::new(Quick {
                budget: shared,
                won_at,
            }),
        ];
        let sink = Arc::new(MemorySink::new());
        let ctx = TraceCtx::new(sink.clone() as Arc<dyn TraceSink>);
        let out = run_engines(&mut lanes, &ctx).unwrap();
        assert!(matches!(out.verdict, Verdict::Proved));
        // The race span is recorded with the winner's lane name.
        let events = sink.take();
        assert!(!events.is_empty());
    }
}
