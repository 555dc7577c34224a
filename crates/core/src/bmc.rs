//! SAT-based bounded model checking with UNSAT-core abstraction refinement.
//!
//! The third engine class of the portfolio, complementing the BDD-bound
//! formal lanes: the property's cone of influence is time-frame unrolled
//! into one incremental [`Solver`](rfn_sat::Solver) and the bad state is
//! checked at depth `k = 0, 1, 2, …`. Following the single-instance
//! incremental formulation of proof-based abstraction (Een, Mishchenko &
//! Amla, arXiv:1008.2021), every register's reset and transition clauses
//! are guarded by a per-register *activation literal*, so an abstraction —
//! a register subset — is selected per solver call purely through
//! assumptions:
//!
//! 1. solve depth `k` under the **abstract** model (only the refined
//!    registers activated; the rest are free cut points). UNSAT proves
//!    depth `k` safe outright, because freeing registers only adds
//!    behaviour.
//! 2. on abstract SAT, re-solve under the **concrete** model (every
//!    activation assumed). SAT yields a counterexample, which is replayed
//!    through [`validate_trace`] before being reported — a mismatch is an
//!    engine bug and fails loudly as [`Error::Witness`](crate::Error).
//!    UNSAT proves depth `k` safe, and the failed-assumption core names
//!    the activation literals — the registers — whose behaviour refuted
//!    the abstract counterexample; they join the abstraction before the
//!    loop advances to `k + 1`.
//!
//! The solver polls the shared [`Budget`] at propagation and restart
//! boundaries, so a portfolio controller can cancel the lane
//! cooperatively; the loop itself re-checks the budget (including an
//! optional [`GovPhase::Bmc`] quota) between depths.
//!
//! There is one loop, [`verify_bmc_group`]'s: it unrolls a group's union
//! cone of influence once and checks every pending member at each depth.
//! [`verify_bmc`] runs it on a group of one.

use std::time::{Duration, Instant};

use rfn_govern::{Budget, Exhaustion, GovPhase};
use rfn_mc::CommonOptions;
use rfn_netlist::{Coi, Netlist, Property, SignalId, Trace, TraceStep};
use rfn_sat::{Lit, SolveResult, Solver, SolverStats, Term, Unroller};
use rfn_trace::{Span, TraceCtx};

use crate::{validate_trace, Phase, RfnError};

/// Default depth bound of the BMC loop: 30× the deepest bundled bug
/// (the processor's ≈30-cycle stall violation), while keeping a
/// standalone run on a safe design down to seconds even under an
/// unlimited budget — solver effort per frame grows with the clause
/// database, so total work is superlinear in the bound. Raise it with
/// [`BmcOptions::with_max_depth`] for deeper hunts.
pub const DEFAULT_BMC_MAX_DEPTH: usize = 1 << 10;

/// Configuration for [`verify_bmc`].
#[derive(Clone, Debug)]
pub struct BmcOptions {
    /// The budget and trace context shared with every other engine (see
    /// [`CommonOptions`]). The solver polls the budget at propagation and
    /// restart boundaries; the depth loop additionally honours a
    /// [`GovPhase::Bmc`] quota. The trace context wraps each run in a
    /// `bmc` span with per-depth `bmc.frame` and per-refinement
    /// `bmc.refine` points.
    pub common: CommonOptions,
    /// Deepest time frame to check before giving up
    /// ([`DEFAULT_BMC_MAX_DEPTH`] by default).
    pub max_depth: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            common: CommonOptions::default(),
            max_depth: DEFAULT_BMC_MAX_DEPTH,
        }
    }
}

impl BmcOptions {
    /// Installs a shared resource budget (replacing any previous one).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.common = self.common.with_budget(budget);
        self
    }

    /// Sets the wall-clock limit (a view over the shared budget; the
    /// deadline is re-anchored at this call).
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.common = self.common.with_time_limit(limit);
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.common = self.common.with_trace(trace);
        self
    }

    /// Sets the depth bound.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }
}

/// How a BMC run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcVerdict {
    /// The property fails: a validated counterexample reaches the bad
    /// state at time frame `depth` (the trace has `depth + 1` cycles).
    Falsified {
        /// First failing time frame.
        depth: usize,
    },
    /// Every depth up to the configured bound is safe. This is *not* a
    /// proof of the property — only that no counterexample of length
    /// `max_depth` or shorter exists.
    BoundedSafe {
        /// Deepest frame proved free of counterexamples.
        depth: usize,
    },
    /// The budget ran out (or the lane was cancelled) before the bound.
    OutOfBudget {
        /// Deepest frame fully proved safe before exhaustion (`None` if
        /// not even frame 0 completed).
        depth: Option<usize>,
        /// Which resource was exhausted.
        reason: Exhaustion,
    },
}

/// Statistics of one BMC run.
#[derive(Clone, Debug, Default)]
pub struct BmcStats {
    /// Registers in the property's cone of influence.
    pub coi_registers: usize,
    /// Gates in the property's cone of influence.
    pub coi_gates: usize,
    /// Registers in the final abstraction (activated in abstract solves).
    pub abstract_registers: usize,
    /// UNSAT-core refinement rounds (rounds that grew the abstraction).
    pub refinements: usize,
    /// Solver variables allocated over the whole run.
    pub vars: usize,
    /// Clauses added over the whole run.
    pub clauses: usize,
    /// CDCL solver counters (conflicts, decisions, propagations, learned
    /// clauses, restarts) accumulated over every solve call.
    pub solver: SolverStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Report of a BMC run.
#[derive(Clone, Debug)]
pub struct BmcReport {
    /// How the run ended.
    pub verdict: BmcVerdict,
    /// The validated counterexample when the verdict is
    /// [`BmcVerdict::Falsified`] (`None` otherwise).
    pub trace: Option<Trace>,
    /// Run statistics.
    pub stats: BmcStats,
}

/// Runs SAT-based bounded model checking on the property's cone of
/// influence, refining a register-subset abstraction from UNSAT cores:
/// [`verify_bmc_group`]'s loop on a group of one, inside a `bmc` span.
///
/// # Errors
///
/// Returns structural netlist errors, [`RfnError::BadProperty`] if the
/// property's signal is not in the design, and
/// [`Error::Witness`](crate::Error::Witness) if a counterexample fails
/// concrete replay (an engine bug, reported loudly rather than folded
/// into the verdict).
pub fn verify_bmc(
    netlist: &Netlist,
    property: &Property,
    options: &BmcOptions,
) -> Result<BmcReport, RfnError> {
    let mut span = options.common.trace.span_with(
        "bmc",
        vec![("property".to_owned(), property.name.as_str().into())],
    );
    let [report] = bmc_reports(netlist, std::slice::from_ref(property), options)?
        .try_into()
        .expect("one report per property");
    record_report(&mut span, &report);
    Ok(report)
}

/// Records a report's verdict and statistics on its `bmc` span exit.
fn record_report(span: &mut Span, report: &BmcReport) {
    let (verdict, depth) = match &report.verdict {
        BmcVerdict::Falsified { depth } => ("falsified", Some(*depth)),
        BmcVerdict::BoundedSafe { depth } => ("bounded_safe", Some(*depth)),
        BmcVerdict::OutOfBudget { depth, reason } => {
            span.record("abort_reason", reason.as_str());
            ("out_of_budget", *depth)
        }
    };
    span.record("verdict", verdict);
    if let Some(depth) = depth {
        span.record("depth", depth);
    }
    span.record("coi_registers", report.stats.coi_registers);
    span.record("abstract_registers", report.stats.abstract_registers);
    span.record("refinements", report.stats.refinements);
    for (key, value) in solver_fields(report.stats.solver) {
        span.record(key, value);
    }
}

/// Runs the group BMC lane: one [`Unroller`] over the union cone of
/// influence of a property group and one incremental solver in which each
/// property's bad literal is a per-call assumption, so learned clauses and
/// frame clauses transfer across properties as well as depths.
///
/// At every depth each still-pending property is checked in index order;
/// falsified properties retire with a validated counterexample at that
/// depth (the shortest, since depths ascend and every pending property is
/// checked at every depth, whatever the group's size).
/// The register-subset abstraction and its UNSAT-core refinements are
/// shared by the whole group. Returns one [`BmcReport`] per property,
/// indexed like the input slice: COI sizes are each property's own, while
/// abstraction size, refinement count, solver counters and elapsed time
/// describe the shared run.
///
/// `key` names the group in the wrapping `bmc_group` trace span.
///
/// # Errors
///
/// As [`verify_bmc`]: structural errors, [`RfnError::BadProperty`], and
/// [`Error::Witness`](crate::Error::Witness) on failed concrete replay.
pub fn verify_bmc_group(
    netlist: &Netlist,
    properties: &[Property],
    key: &str,
    options: &BmcOptions,
) -> Result<Vec<BmcReport>, RfnError> {
    let mut span = options.common.trace.span_with(
        "bmc_group",
        vec![
            ("group".to_owned(), key.into()),
            ("members".to_owned(), properties.len().into()),
        ],
    );
    let result = bmc_reports(netlist, properties, options);
    if let Ok(reports) = &result {
        let falsified = reports
            .iter()
            .filter(|r| matches!(r.verdict, BmcVerdict::Falsified { .. }))
            .count();
        span.record("falsified", falsified);
        if let Some(r) = reports.first() {
            span.record("abstract_registers", r.stats.abstract_registers);
            span.record("refinements", r.stats.refinements);
            for (key, value) in solver_fields(r.stats.solver) {
                span.record(key, value);
            }
        }
        // Per-property spans carry the same fields as a `verify_bmc` run,
        // so downstream consumers keep one span per property whether or
        // not grouping is on.
        for (p, report) in properties.iter().zip(reports) {
            let mut ps = options
                .common
                .trace
                .span_with("bmc", vec![("property".to_owned(), p.name.as_str().into())]);
            record_report(&mut ps, report);
        }
    }
    result
}

/// The BMC loop: checks every pending member of `properties` at each depth
/// on one unrolling of their union cone of influence, and returns one
/// report per property.
fn bmc_reports(
    netlist: &Netlist,
    properties: &[Property],
    options: &BmcOptions,
) -> Result<Vec<BmcReport>, RfnError> {
    let start = Instant::now();
    for property in properties {
        if property.signal.index() >= netlist.num_signals() {
            return Err(RfnError::BadProperty(format!(
                "signal of property '{}' is not in design '{}'",
                property.name,
                netlist.name()
            )));
        }
    }
    let budget = &options.common.budget;
    let ctx = &options.common.trace;
    let mut solver = Solver::new();
    solver.set_budget(budget.clone());
    // One unrolling over the union COI: multi-root construction gives the
    // union for free, and every member's bad literal lives in the same
    // clause database.
    let mut unroller = Unroller::new(netlist, &mut solver, properties.iter().map(|p| p.signal))?;
    let registers: Vec<SignalId> = unroller.coi().registers().to_vec();
    // A singleton's own cone is the unrolled one.
    let member_cois: Vec<Coi> = match properties {
        [_] => vec![unroller.coi().clone()],
        _ => properties
            .iter()
            .map(|p| Coi::of(netlist, [p.signal]))
            .collect(),
    };
    // The shared abstraction: a register activated for one member stays
    // activated for all. Soundness is per-solve — freeing registers only
    // adds behaviour, and falsification is always decided by the concrete
    // solve — so sharing refinements never changes a verdict, it only
    // skips abstract counterexamples another member already refuted.
    let mut active = vec![false; netlist.num_signals()];
    let mut num_active = 0usize;
    let phase_deadline = budget.deadline_for(GovPhase::Bmc);
    let mut safe_depth: Vec<Option<usize>> = vec![None; properties.len()];
    let mut outcomes: Vec<Option<(BmcVerdict, Option<Trace>)>> = vec![None; properties.len()];
    let mut refinements = 0usize;

    'depths: for k in 0..=options.max_depth {
        let exhausted = match budget.check() {
            Err(reason) => Some(reason),
            Ok(()) if phase_deadline.is_some_and(|d| Instant::now() >= d) => {
                Some(Exhaustion::TimeLimit)
            }
            Ok(()) => None,
        };
        if let Some(reason) = exhausted {
            out_of_budget_rest(&mut outcomes, &safe_depth, reason);
            break 'depths;
        }
        unroller.ensure_frame(&mut solver, k);
        for pi in 0..properties.len() {
            if outcomes[pi].is_some() {
                continue;
            }
            let property = &properties[pi];
            let bad = match unroller.term(k, property.signal) {
                Term::Const(b) if b == property.value => None,
                Term::Const(_) => {
                    // The bad value is structurally impossible at this frame.
                    safe_depth[pi] = Some(k);
                    continue;
                }
                Term::Lit(l) => Some(if property.value { l } else { !l }),
            };
            // Abstract solve: only the refined registers are activated.
            let abstract_sat = if num_active == registers.len() && bad.is_some() {
                // Abstraction is complete: the concrete solve below is the
                // abstract solve.
                true
            } else {
                let mut assumptions: Vec<Lit> = registers
                    .iter()
                    .filter(|r| active[r.index()])
                    .map(|&r| unroller.activation(r))
                    .collect();
                assumptions.extend(bad);
                match solver.solve(&assumptions) {
                    SolveResult::Sat => true,
                    SolveResult::Unsat => false,
                    SolveResult::Unknown(reason) => {
                        out_of_budget_rest(&mut outcomes, &safe_depth, reason);
                        break 'depths;
                    }
                }
            };
            if abstract_sat {
                // Concrete solve: every register activated.
                let mut assumptions: Vec<Lit> = unroller.activations().collect();
                assumptions.extend(bad);
                match solver.solve(&assumptions) {
                    SolveResult::Sat => {
                        let trace = extract_trace(
                            &solver,
                            &unroller,
                            member_cois[pi].registers(),
                            member_cois[pi].inputs(),
                            k,
                        );
                        if !validate_trace(netlist, property, &trace)? {
                            return Err(RfnError::Witness {
                                phase: Phase::Concretize,
                                detail: format!(
                                    "BMC counterexample of property '{}' at depth {k} \
                                     failed concrete replay",
                                    property.name
                                ),
                            });
                        }
                        outcomes[pi] = Some((BmcVerdict::Falsified { depth: k }, Some(trace)));
                        continue;
                    }
                    SolveResult::Unsat => {
                        // The concrete model refutes the abstract
                        // counterexample at this depth, so depth k is safe;
                        // the failed assumptions name the registers to
                        // refine with.
                        let core_regs: Vec<SignalId> = registers
                            .iter()
                            .copied()
                            .filter(|&r| {
                                !active[r.index()]
                                    && solver.core().contains(&unroller.activation(r))
                            })
                            .collect();
                        if !core_regs.is_empty() {
                            refinements += 1;
                            ctx.point(
                                "bmc.refine",
                                vec![
                                    ("depth".to_owned(), k.into()),
                                    ("property".to_owned(), property.name.as_str().into()),
                                    ("core_registers".to_owned(), core_regs.len().into()),
                                    (
                                        "abstract_registers".to_owned(),
                                        (num_active + core_regs.len()).into(),
                                    ),
                                ],
                            );
                            for r in core_regs {
                                active[r.index()] = true;
                                num_active += 1;
                            }
                        }
                    }
                    SolveResult::Unknown(reason) => {
                        out_of_budget_rest(&mut outcomes, &safe_depth, reason);
                        break 'depths;
                    }
                }
            }
            safe_depth[pi] = Some(k);
        }
        emit_frame_point(ctx, k, &solver, num_active);
        if outcomes.iter().all(|o| o.is_some()) {
            break 'depths;
        }
    }

    let elapsed = start.elapsed();
    let solver_stats = solver.stats();
    let vars = solver.num_vars();
    let clauses = solver.num_clauses();
    Ok(outcomes
        .into_iter()
        .enumerate()
        .map(|(pi, o)| {
            let (verdict, trace) = o.unwrap_or((
                BmcVerdict::BoundedSafe {
                    depth: options.max_depth,
                },
                None,
            ));
            BmcReport {
                verdict,
                trace,
                stats: BmcStats {
                    coi_registers: member_cois[pi].num_registers(),
                    coi_gates: member_cois[pi].num_gates(),
                    abstract_registers: num_active,
                    refinements,
                    vars,
                    clauses,
                    solver: solver_stats,
                    elapsed,
                },
            }
        })
        .collect())
}

/// Marks every still-pending property out-of-budget with its own deepest
/// completed frame.
fn out_of_budget_rest(
    outcomes: &mut [Option<(BmcVerdict, Option<Trace>)>],
    safe_depth: &[Option<usize>],
    reason: Exhaustion,
) {
    for (pi, o) in outcomes.iter_mut().enumerate() {
        if o.is_none() {
            *o = Some((
                BmcVerdict::OutOfBudget {
                    depth: safe_depth[pi],
                    reason,
                },
                None,
            ));
        }
    }
}

/// The solver's five cumulative counters, in the order that `bmc` and
/// `bmc_group` exits and `bmc.frame` points carry them.
fn solver_fields(s: SolverStats) -> [(&'static str, u64); 5] {
    [
        ("conflicts", s.conflicts),
        ("propagations", s.propagations),
        ("decisions", s.decisions),
        ("learned", s.learned),
        ("restarts", s.restarts),
    ]
}

fn emit_frame_point(ctx: &TraceCtx, k: usize, solver: &Solver, num_active: usize) {
    if !ctx.is_enabled() {
        return;
    }
    let mut fields = vec![("depth".to_owned(), k.into())];
    fields.extend(solver_fields(solver.stats()).map(|(key, value)| (key.to_owned(), value.into())));
    // `abstract_registers` keeps its place after the first two counters;
    // the later three were added after it.
    fields.insert(3, ("abstract_registers".to_owned(), num_active.into()));
    ctx.point("bmc.frame", fields);
}

/// Reads a counterexample out of the solver model: one step per frame,
/// with the COI register values as the state cube and the COI input values
/// as the input cube. Unassigned variables (irrelevant to the conflict
/// set) default to `false`, matching `validate_trace`'s convention for
/// undriven inputs.
fn extract_trace(
    solver: &Solver,
    unroller: &Unroller<'_>,
    registers: &[SignalId],
    inputs: &[SignalId],
    depth: usize,
) -> Trace {
    let term_value = |t: usize, sig: SignalId| match unroller.term(t, sig) {
        Term::Const(b) => b,
        Term::Lit(l) => {
            let v = solver.value(l.var()).unwrap_or(false);
            if l.is_positive() {
                v
            } else {
                !v
            }
        }
    };
    let mut trace = Trace::new();
    for t in 0..=depth {
        let mut step = TraceStep::default();
        for &r in registers {
            let _ = step.state.insert(r, term_value(t, r));
        }
        for &i in inputs {
            let _ = step.inputs.insert(i, term_value(t, i));
        }
        trace.push(step);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// A wrapping 3-bit counter with a watchdog on value `target`.
    fn counter3(target: u8) -> (Netlist, Property) {
        let mut n = Netlist::new("counter3");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let b2 = n.add_register("b2", Some(false));
        let n0 = n.add_gate("n0", GateOp::Not, &[b0]);
        let n1 = n.add_gate("n1", GateOp::Xor, &[b1, b0]);
        let c01 = n.add_gate("c01", GateOp::And, &[b0, b1]);
        let n2 = n.add_gate("n2", GateOp::Xor, &[b2, c01]);
        n.set_register_next(b0, n0).unwrap();
        n.set_register_next(b1, n1).unwrap();
        n.set_register_next(b2, n2).unwrap();
        let bits = [b0, b1, b2];
        let fanins: Vec<_> = (0..3)
            .map(|i| {
                if target >> i & 1 == 1 {
                    bits[i]
                } else {
                    n.add_gate(&format!("inv{i}"), GateOp::Not, &[bits[i]])
                }
            })
            .collect();
        let bad = n.add_gate("bad", GateOp::And, &fanins);
        n.validate().unwrap();
        let p = Property::never(&n, "no_target", bad);
        (n, p)
    }

    #[test]
    fn finds_shortest_counterexample_with_validated_trace() {
        let (n, p) = counter3(5);
        let report = verify_bmc(&n, &p, &BmcOptions::default()).unwrap();
        assert_eq!(report.verdict, BmcVerdict::Falsified { depth: 5 });
        let trace = report.trace.expect("falsification carries a trace");
        assert_eq!(trace.num_cycles(), 6);
        assert_eq!(validate_trace(&n, &p, &trace), Ok(true));
    }

    #[test]
    fn safe_design_is_bounded_safe_with_small_abstraction() {
        // A saturating 2-bit counter plus a watchdog that never fires.
        let mut n = Netlist::new("safe");
        let flag = n.add_register("flag", Some(false));
        n.set_register_next(flag, flag).unwrap();
        n.validate().unwrap();
        let p = Property::never(&n, "flag_low", flag);
        let opts = BmcOptions::default().with_max_depth(32);
        let report = verify_bmc(&n, &p, &opts).unwrap();
        assert_eq!(report.verdict, BmcVerdict::BoundedSafe { depth: 32 });
        assert!(report.trace.is_none());
        assert_eq!(report.stats.coi_registers, 1);
    }

    #[test]
    fn refinement_grows_the_abstraction_from_cores() {
        let (n, p) = counter3(5);
        let report = verify_bmc(&n, &p, &BmcOptions::default()).unwrap();
        // The free-register abstraction hits the watchdog at frame 0, so at
        // least one refinement round must have fired before depth 5.
        assert!(report.stats.refinements > 0);
        assert!(report.stats.abstract_registers > 0);
        assert!(report.stats.abstract_registers <= report.stats.coi_registers);
    }

    #[test]
    fn cancelled_budget_reports_out_of_budget() {
        let (n, p) = counter3(5);
        let budget = Budget::unlimited();
        budget.cancel();
        let opts = BmcOptions::default().with_budget(budget);
        let report = verify_bmc(&n, &p, &opts).unwrap();
        assert!(matches!(
            report.verdict,
            BmcVerdict::OutOfBudget {
                reason: Exhaustion::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn depth_counts_match_the_plain_engine() {
        for target in 1..8u8 {
            let (n, p) = counter3(target);
            let report = verify_bmc(&n, &p, &BmcOptions::default()).unwrap();
            let plain = rfn_mc::verify_plain(&n, &p, &rfn_mc::PlainOptions::default()).unwrap();
            let rfn_mc::PlainVerdict::Falsified { depth } = plain.verdict else {
                panic!("plain engine must falsify target {target}");
            };
            assert_eq!(report.verdict, BmcVerdict::Falsified { depth });
        }
    }

    /// A wrapping 3-bit counter with one watchdog detector per requested
    /// value, plus a self-looping flag whose property is genuinely safe.
    fn counter3_multi(targets: &[u8]) -> (Netlist, Vec<Property>) {
        let mut n = Netlist::new("counter3_multi");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let b2 = n.add_register("b2", Some(false));
        let n0 = n.add_gate("n0", GateOp::Not, &[b0]);
        let n1 = n.add_gate("n1", GateOp::Xor, &[b1, b0]);
        let c01 = n.add_gate("c01", GateOp::And, &[b0, b1]);
        let n2 = n.add_gate("n2", GateOp::Xor, &[b2, c01]);
        n.set_register_next(b0, n0).unwrap();
        n.set_register_next(b1, n1).unwrap();
        n.set_register_next(b2, n2).unwrap();
        let bits = [b0, b1, b2];
        let mut properties = Vec::new();
        for &target in targets {
            let fanins: Vec<_> = (0..3)
                .map(|i| {
                    if target >> i & 1 == 1 {
                        bits[i]
                    } else {
                        n.add_gate(&format!("inv{target}_{i}"), GateOp::Not, &[bits[i]])
                    }
                })
                .collect();
            let bad = n.add_gate(&format!("bad{target}"), GateOp::And, &fanins);
            properties.push((format!("no_{target}"), bad));
        }
        let flag = n.add_register("flag", Some(false));
        n.set_register_next(flag, flag).unwrap();
        properties.push(("flag_low".to_owned(), flag));
        n.validate().unwrap();
        let properties = properties
            .into_iter()
            .map(|(name, signal)| Property::never(&n, &name, signal))
            .collect();
        (n, properties)
    }

    #[test]
    fn group_reports_match_dedicated_bmc_runs() {
        let (n, properties) = counter3_multi(&[2, 5, 7]);
        let opts = BmcOptions::default().with_max_depth(12);
        let reports = verify_bmc_group(&n, &properties, "g0", &opts).unwrap();
        assert_eq!(reports.len(), properties.len());
        for (p, report) in properties.iter().zip(&reports) {
            let solo = verify_bmc(&n, p, &opts).unwrap();
            assert_eq!(report.verdict, solo.verdict, "property {}", p.name);
            assert_eq!(
                report.stats.coi_registers, solo.stats.coi_registers,
                "property {}",
                p.name
            );
            assert_eq!(report.trace.is_some(), solo.trace.is_some());
        }
        // Counterexample depths are the counter values; traces replay.
        assert_eq!(reports[0].verdict, BmcVerdict::Falsified { depth: 2 });
        assert_eq!(reports[1].verdict, BmcVerdict::Falsified { depth: 5 });
        assert_eq!(reports[2].verdict, BmcVerdict::Falsified { depth: 7 });
        assert_eq!(reports[3].verdict, BmcVerdict::BoundedSafe { depth: 12 });
        for (p, report) in properties.iter().zip(&reports) {
            if let Some(trace) = &report.trace {
                assert_eq!(validate_trace(&n, p, trace), Ok(true));
            }
        }
    }

    #[test]
    fn group_shares_one_solver_across_members() {
        let (n, properties) = counter3_multi(&[6, 7]);
        let opts = BmcOptions::default().with_max_depth(8);
        let reports = verify_bmc_group(&n, &properties, "g0", &opts).unwrap();
        // Shared-run statistics are identical across members; the solo runs
        // together need more solver variables than the one shared unrolling
        // because each re-unrolls the counter up to its own depth.
        let shared_vars = reports[0].stats.vars;
        assert!(reports.iter().all(|r| r.stats.vars == shared_vars));
        let solo_vars: usize = properties
            .iter()
            .map(|p| verify_bmc(&n, p, &opts).unwrap().stats.vars)
            .sum();
        assert!(shared_vars < solo_vars);
    }

    /// Every `bmc.frame` point and every `bmc` and `bmc_group` exit
    /// carries all five solver counters after its older fields, and the
    /// exits carry the reports' values. Single and group runs trace alike:
    /// a frame point at every depth checked, also where the bad value is
    /// structurally impossible, and `bmc.refine` points with the same keys.
    #[test]
    fn trace_events_carry_every_solver_counter() {
        use rfn_trace::{Event, EventKind, MemorySink, Value};
        const COUNTERS: [&str; 5] = [
            "conflicts",
            "propagations",
            "decisions",
            "learned",
            "restarts",
        ];
        fn traced<T>(run: impl FnOnce(&BmcOptions) -> T) -> (T, Vec<Event>) {
            let sink = std::sync::Arc::new(MemorySink::new());
            let opts = BmcOptions::default()
                .with_max_depth(8)
                .with_trace(TraceCtx::new(sink.clone()));
            (run(&opts), sink.take())
        }
        let (n, p) = counter3(5);
        let (single, single_events) = traced(|opts| verify_bmc(&n, &p, opts).unwrap());
        let (gn, properties) = counter3_multi(&[2, 6]);
        let (group, group_events) =
            traced(|opts| verify_bmc_group(&gn, &properties, "g0", opts).unwrap());
        // A property over a constant net: its bad value is impossible at
        // every depth, so no depth needs a solve.
        let mut cn = Netlist::new("const");
        let low = cn.add_const("low", false);
        cn.validate().unwrap();
        let cp = Property::never(&cn, "low_stays_low", low);
        let (constant, constant_events) = traced(|opts| verify_bmc(&cn, &cp, opts).unwrap());
        assert_eq!(constant.verdict, BmcVerdict::BoundedSafe { depth: 8 });

        let frame_keys = ["depth", "conflicts", "propagations", "abstract_registers"];
        let frame_keys = [&frame_keys[..], &COUNTERS[2..]].concat();
        let refine_keys = ["depth", "property", "core_registers", "abstract_registers"];
        let exit_keys = [
            "verdict",
            "depth",
            "coi_registers",
            "abstract_registers",
            "refinements",
        ];
        let exit_keys = [&exit_keys[..], &COUNTERS].concat();
        let group_keys = ["falsified", "abstract_registers", "refinements"];
        let group_keys = [&group_keys[..], &COUNTERS].concat();
        let counters = |fields: &[(String, Value)]| -> Vec<u64> {
            fields[fields.len() - COUNTERS.len()..]
                .iter()
                .map(|(_, v)| match v {
                    Value::U64(x) => *x,
                    other => panic!("counter is not a u64: {other:?}"),
                })
                .collect()
        };
        // Frame points, refine points, `bmc` exits' and `bmc_group` exits'
        // counters of one run's events, checking every key list on the way.
        let tally = |events: Vec<Event>| {
            let (mut frames, mut refines) = (0, 0);
            let (mut bmc_exits, mut group_exits) = (Vec::new(), Vec::new());
            for e in events {
                let (EventKind::Point { name, fields, .. } | EventKind::Exit { name, fields, .. }) =
                    &e.kind
                else {
                    continue;
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                match name.as_str() {
                    "bmc.frame" => {
                        assert_eq!(keys, frame_keys);
                        frames += 1;
                    }
                    "bmc.refine" => {
                        assert_eq!(keys, refine_keys);
                        refines += 1;
                    }
                    "bmc" => {
                        assert_eq!(keys, exit_keys);
                        bmc_exits.push(counters(fields));
                    }
                    "bmc_group" => {
                        assert_eq!(keys, group_keys);
                        group_exits.push(counters(fields));
                    }
                    _ => {}
                }
            }
            (frames, refines, bmc_exits, group_exits)
        };
        let expected = |r: &BmcReport| {
            let s = r.stats.solver;
            vec![
                s.conflicts,
                s.propagations,
                s.decisions,
                s.learned,
                s.restarts,
            ]
        };

        // Depths 0..=5 of the single run, 0..=8 of the group run.
        let (frames, refines, bmc_exits, group_exits) = tally(single_events);
        assert_eq!((frames, group_exits.len()), (6, 0));
        assert!(refines > 0, "the single run never refined");
        assert_eq!(bmc_exits, [expected(&single)]);
        let (frames, refines, bmc_exits, group_exits) = tally(group_events);
        assert_eq!(frames, 9);
        assert!(refines > 0, "the group run never refined");
        let want: Vec<_> = group.iter().map(expected).collect();
        assert_eq!(bmc_exits, want);
        assert_eq!(group_exits, [expected(&group[0])]);
        assert!(want.iter().all(|c| c[0] > 0 && c[1] > 0 && c[2] > 0));
        // Depths 0..=8 of the constant property, none of them solved.
        let (frames, refines, bmc_exits, _) = tally(constant_events);
        assert_eq!((frames, refines), (9, 0));
        assert_eq!(bmc_exits, [expected(&constant)]);
    }

    #[test]
    fn group_cancelled_budget_marks_all_pending_members() {
        let (n, properties) = counter3_multi(&[5]);
        let budget = Budget::unlimited();
        budget.cancel();
        let opts = BmcOptions::default().with_budget(budget);
        let reports = verify_bmc_group(&n, &properties, "g0", &opts).unwrap();
        for report in &reports {
            assert!(matches!(
                report.verdict,
                BmcVerdict::OutOfBudget {
                    reason: Exhaustion::Cancelled,
                    ..
                }
            ));
        }
    }
}
