//! Unreachable-coverage-state analysis (Section 3, Table 2 of the paper),
//! plus the BFS abstraction baseline of Ho et al. (ICCAD 2000).
//!
//! A *coverage state* is one combination of values of a chosen set of
//! coverage signals (registers). The analysis classifies as many of the
//! `2^n` coverage states as possible:
//!
//! * states outside the projection of an abstract model's forward fixpoint
//!   are **unreachable on the original design** (the abstraction
//!   over-approximates, so the projection over-approximates the real
//!   reachable coverage states);
//! * states visited by a concrete trace (found through hybrid trace
//!   reconstruction + guided ATPG) are **reachable**;
//! * abstract traces that fail to concretize drive refinement, after which
//!   the loop repeats.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rfn_atpg::AtpgOptions;
use rfn_bdd::{Bdd, BddError};
use rfn_govern::{Budget, GovPhase};
use rfn_mc::{forward_reach, CommonOptions, ModelSpec, ReachOptions, ReachVerdict, SymbolicModel};
use rfn_netlist::{
    transitive_fanin, Abstraction, Coi, CoverageSet, Cube, Netlist, SignalId, Trace,
};
use rfn_sim::{RandomSimOptions, Simulator};
use rfn_trace::TraceCtx;

use crate::concretize::replay_resets;
use crate::{
    refine_with_roots, ConcretizeOptions, ConcretizeOutcome, Concretizer, HybridEngine, Phase,
    RefineOptions, RfnError,
};

/// Configuration for [`analyze_coverage`].
#[derive(Clone, Debug)]
pub struct CoverageOptions {
    /// The budget and trace context shared with every other engine (see
    /// [`CommonOptions`]). The budget governs the whole analysis — wall
    /// clock, phase quotas, ceilings and the cooperative cancellation token
    /// (the paper used 1,800 s per RFN experiment); the trace context wraps
    /// each `analyze_coverage` call in a `coverage` span with per-iteration
    /// child spans.
    pub common: CommonOptions,
    /// Maximum refinement iterations.
    pub max_iterations: usize,
    /// BDD node limit per iteration.
    pub mc_node_limit: usize,
    /// Reachability options.
    pub reach: ReachOptions,
    /// ATPG limits for concretization.
    pub concretize_atpg: AtpgOptions,
    /// Random-simulation engine tried before the concretization ATPG
    /// (`batches = 0` disables it). Random-found traces are sound here too:
    /// every hit is replayed concretely before being reported.
    pub concretize_sim: RandomSimOptions,
    /// ATPG limits for the hybrid engine.
    pub hybrid_atpg: AtpgOptions,
    /// Refinement configuration.
    pub refine: RefineOptions,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            common: CommonOptions::default(),
            max_iterations: 32,
            mc_node_limit: 4_000_000,
            reach: ReachOptions::default(),
            concretize_atpg: AtpgOptions {
                max_backtracks: 5_000,
                ..AtpgOptions::default()
            },
            concretize_sim: RandomSimOptions::default(),
            hybrid_atpg: AtpgOptions::default(),
            refine: RefineOptions::default(),
        }
    }
}

impl CoverageOptions {
    /// Sets the wall-clock budget for the analysis. The clock starts now:
    /// this is shorthand for re-anchoring the shared budget with a
    /// wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.common = self.common.with_time_limit(limit);
        self
    }

    /// Replaces the analysis' shared resource budget wholesale.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.common = self.common.with_budget(budget);
        self
    }

    /// The wall-clock limit of the analysis' budget, if bounded.
    pub fn time_limit(&self) -> Option<Duration> {
        self.common.time_limit()
    }

    /// Sets the maximum number of refinement iterations.
    #[must_use]
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Sets the BDD node limit per iteration.
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
    /// fixpoints.
    #[must_use]
    pub fn with_frontier_simplify(mut self, simplify: bool) -> Self {
        self.reach.frontier_simplify = simplify;
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.common = self.common.with_trace(trace);
        self
    }
}

/// Result of a coverage analysis (one Table 2 row).
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// Coverage-set name.
    pub name: String,
    /// Total coverage states (`2^n`).
    pub total_states: u64,
    /// States proven unreachable on the original design.
    pub unreachable: u64,
    /// States confirmed reachable by a concrete trace.
    pub reachable: u64,
    /// States left unclassified when the budget ran out.
    pub unresolved: u64,
    /// Registers in the final abstract model.
    pub abstract_registers: usize,
    /// Registers in the coverage signals' cone of influence.
    pub coi_registers: usize,
    /// Gates in the coverage signals' cone of influence.
    pub coi_gates: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// BDD kernel counters merged over every iteration's manager.
    pub stats: rfn_bdd::BddStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Unknown,
    Unreachable,
    Reachable,
}

/// Runs RFN-style unreachable-coverage-state analysis.
///
/// # Errors
///
/// Fails if a coverage signal is not a register, if the set has more than 24
/// signals (the explicit state classification would not fit in memory), or
/// on structural netlist errors.
pub fn analyze_coverage(
    netlist: &Netlist,
    set: &CoverageSet,
    options: &CoverageOptions,
) -> Result<CoverageReport, RfnError> {
    let ctx = options.common.trace.clone();
    let mut span = ctx.span_with(
        "coverage",
        vec![
            ("set".to_owned(), set.name.as_str().into()),
            ("signals".to_owned(), set.signals.len().into()),
        ],
    );
    let result = analyze_coverage_inner(netlist, set, options, &ctx)
        .map_err(|e| e.with_phase(Phase::Coverage));
    if let Ok(report) = &result {
        span.record("total_states", report.total_states);
        span.record("unreachable", report.unreachable);
        span.record("reachable", report.reachable);
        span.record("unresolved", report.unresolved);
        span.record("abstract_registers", report.abstract_registers);
        span.record("coi_registers", report.coi_registers);
        span.record("coi_gates", report.coi_gates);
        span.record("iterations", report.iterations);
    }
    result
}

fn analyze_coverage_inner(
    netlist: &Netlist,
    set: &CoverageSet,
    options: &CoverageOptions,
    ctx: &TraceCtx,
) -> Result<CoverageReport, RfnError> {
    let start = Instant::now();
    let budget = &options.common.budget;
    validate_coverage_set(netlist, set)?;
    let coi = Coi::of(netlist, set.signals.iter().copied());
    let n_sig = set.signals.len();
    let total = 1u64 << n_sig;
    let mut classes = vec![Class::Unknown; total as usize];
    let mut abstraction = Abstraction::from_registers(set.signals.iter().copied());
    let mut iterations = 0;
    let mut bdd_stats = rfn_bdd::BddStats::default();

    // The initial (reset) coverage state is reachable by definition when all
    // coverage registers have known resets.
    if let Some(bits) = reset_coverage_state(netlist, set) {
        classes[bits as usize] = Class::Reachable;
    }

    // One set of reach options for the whole analysis, so the reorder
    // trigger floor outlives each iteration's fresh manager (see
    // `ReachOptions::back_off_reorder`).
    let mut reach_opts = options.reach.clone();
    reach_opts.common.trace = ctx.clone();
    reach_opts.common.budget = budget.clone();
    let mut concretize_opts = ConcretizeOptions {
        atpg: options.concretize_atpg.clone(),
        sim: options.concretize_sim.clone(),
    };
    concretize_opts.atpg.trace = ctx.clone();
    concretize_opts.sim.trace = ctx.clone();
    concretize_opts.atpg.budget = budget.clone();
    concretize_opts.sim.budget = budget.clone();
    'outer: for _ in 0..options.max_iterations {
        iterations += 1;
        let _it_span = ctx.span_with(
            "iteration",
            vec![
                ("n".to_owned(), (iterations - 1).into()),
                ("abstract_registers".to_owned(), abstraction.len().into()),
            ],
        );
        if budget.check().is_err() {
            break;
        }
        let (view, built) = {
            let _model_span = ctx.span("model");
            let view = abstraction.view(netlist, set.signals.iter().copied())?;
            let mut mgr = rfn_bdd::BddManager::new();
            mgr.set_node_limit(options.mc_node_limit);
            mgr.set_budget(budget.clone());
            let model_opts = rfn_mc::ModelOptions {
                cluster_limit: options.reach.cluster_limit,
                static_order: options.reach.static_order,
            };
            let built =
                SymbolicModel::with_options(netlist, ModelSpec::from_view(&view), mgr, model_opts);
            (view, built)
        };
        let mut model = match built {
            Ok(m) => m,
            Err(rfn_mc::McError::Bdd(_)) => break,
            Err(e) => return Err(e.into()),
        };
        // Full fixpoint (no early target stop: the projection needs it all).
        let zero = model.manager_ref().zero();
        let reach = forward_reach(&mut model, zero, &reach_opts)?;
        bdd_stats.merge(&reach.stats);
        reach_opts.back_off_reorder(&reach.stats);
        if reach.verdict != ReachVerdict::FixpointProved {
            break; // out of capacity on this abstraction
        }
        // Project and classify the states still unknown: earlier
        // iterations' verdicts are final.
        let proj = model.project_to(reach.reached, &set.signals)?;
        let mut assignment = vec![false; model.manager_ref().num_vars()];
        let cov_vars: Vec<_> = set
            .signals
            .iter()
            .map(|&s| {
                model
                    .current_var(s)
                    .expect("coverage signals are in the model")
            })
            .collect();
        let mut frontier_unknown: Vec<u64> = Vec::new();
        for bits in 0..total {
            if classes[bits as usize] != Class::Unknown {
                continue;
            }
            for (k, &v) in cov_vars.iter().enumerate() {
                assignment[v.index()] = bits & (1 << k) != 0;
            }
            if model.manager_ref().eval(proj, &assignment) {
                frontier_unknown.push(bits);
            } else {
                classes[bits as usize] = Class::Unreachable;
            }
        }
        if frontier_unknown.is_empty() {
            break; // fully classified
        }

        // Work through the frontier on this fixpoint: every state either
        // gets concretized (and marked reachable, along with everything the
        // concrete replay visits) or triggers a refinement, after which the
        // fixpoint must be recomputed.
        let exact = view.pseudo_inputs().is_empty();
        let mut refined = false;
        let mut stuck = false;
        let mut hybrid_atpg = options.hybrid_atpg.clone();
        hybrid_atpg.trace = ctx.clone();
        hybrid_atpg.budget = budget.clone();
        hybrid_atpg.phase = GovPhase::Hybrid;
        // Built at the first frontier state that needs a trace, then shared
        // by the rest (see `HybridEngine` and `Concretizer` for why reuse
        // is exact).
        let mut engine: Option<HybridEngine<'_>> = None;
        let mut concretizer = Concretizer::new(netlist, concretize_opts.clone());
        for &bits in &frontier_unknown {
            if classes[bits as usize] != Class::Unknown {
                continue; // an earlier replay covered it
            }
            if budget.check().is_err() {
                break 'outer;
            }
            let target_cube = coverage_cube(set, bits);
            let target_bdd = model.cube_to_bdd(&target_cube)?;
            let Ok(hit_step) = first_ring(&mut model, &reach.rings, target_bdd) else {
                break 'outer;
            };
            let Some(step) = hit_step else {
                // In the projection but in no ring: cannot happen for a
                // completed fixpoint; bail defensively.
                stuck = true;
                break;
            };
            let abstract_trace = {
                let mut hspan = ctx.span("hybrid");
                let engine = match &mut engine {
                    Some(engine) => engine,
                    empty => {
                        empty.insert(HybridEngine::new(netlist, &view, &mut model, &hybrid_atpg)?)
                    }
                };
                let (traces, stats) =
                    engine.traces(&mut model, &reach.rings, step, target_bdd, 1)?;
                stats.record(&mut hspan, &traces, step);
                match traces.into_iter().next() {
                    Some(t) => t,
                    None => {
                        stuck = true;
                        break;
                    }
                }
            };

            let concrete = if exact {
                // The abstraction is the whole COI: abstract traces are real.
                Some(abstract_trace.clone())
            } else {
                let mut cspan = ctx.span_with(
                    "concretize",
                    vec![("depth".to_owned(), abstract_trace.num_cycles().into())],
                );
                let (outcome, cstats) = concretizer.concretize(&target_cube, &abstract_trace)?;
                cstats.record(&mut cspan, &outcome, budget);
                match outcome {
                    ConcretizeOutcome::Falsified(t) => Some(t),
                    ConcretizeOutcome::Spurious | ConcretizeOutcome::Unknown => None,
                }
            };
            match concrete {
                Some(trace) => {
                    // The trace was validated against `target_cube` (or the
                    // abstraction is exact), so `bits` is reachable — as is
                    // every coverage state the concrete replay visits.
                    let sim = concretizer.replay_simulator()?;
                    for visited in replay_coverage_states(sim, set, &trace) {
                        if classes[visited as usize] == Class::Unknown {
                            classes[visited as usize] = Class::Reachable;
                        }
                    }
                    if classes[bits as usize] == Class::Unknown {
                        classes[bits as usize] = Class::Reachable;
                    }
                }
                None => {
                    // Spurious: refine against the coverage roots and restart
                    // with a fixpoint on the refined abstraction.
                    let mut refine_opts = options.refine.clone();
                    refine_opts.atpg.trace = ctx.clone();
                    refine_opts.atpg.budget = budget.clone();
                    refine_opts.atpg.phase = GovPhase::Refine;
                    let report = {
                        let mut rspan = ctx.span("refine");
                        let report = refine_with_roots(
                            netlist,
                            &mut abstraction,
                            &set.signals,
                            &abstract_trace,
                            &refine_opts,
                        )?;
                        rspan.record("added", report.added.len());
                        rspan.record("candidates", report.candidates);
                        rspan.record("conflicts", report.conflicts_found);
                        report
                    };
                    refined = !report.added.is_empty();
                    stuck = !refined;
                    break;
                }
            }
        }
        drop(concretizer);
        drop(engine);
        drop(model);
        if stuck {
            break;
        }
        if !refined {
            // Every frontier state was classified; the next pass re-projects
            // and terminates (or finds newly classifiable states).
            continue;
        }
    }

    let unreachable = classes.iter().filter(|&&c| c == Class::Unreachable).count() as u64;
    let reachable = classes.iter().filter(|&&c| c == Class::Reachable).count() as u64;
    Ok(CoverageReport {
        name: set.name.clone(),
        total_states: total,
        unreachable,
        reachable,
        unresolved: total - unreachable - reachable,
        abstract_registers: abstraction.len(),
        coi_registers: coi.num_registers(),
        coi_gates: coi.num_gates(),
        iterations,
        elapsed: start.elapsed(),
        stats: bdd_stats,
    })
}

/// The BFS abstraction baseline: take the `k` registers closest to the
/// coverage signals (BFS over the register dependency graph, the method of
/// the paper's reference \[8\]), run one forward fixpoint, and classify
/// coverage states by projection.
///
/// # Errors
///
/// Same conditions as [`analyze_coverage`].
pub fn bfs_coverage(
    netlist: &Netlist,
    set: &CoverageSet,
    k: usize,
    node_limit: usize,
    reach: &ReachOptions,
) -> Result<CoverageReport, RfnError> {
    let start = Instant::now();
    validate_coverage_set(netlist, set)?;
    let coi = Coi::of(netlist, set.signals.iter().copied());
    let regs = closest_registers(netlist, &set.signals, k);
    let abstraction = Abstraction::from_registers(regs);
    let view = abstraction.view(netlist, set.signals.iter().copied())?;
    let total = 1u64 << set.signals.len();

    let mut mgr = rfn_bdd::BddManager::new();
    mgr.set_node_limit(node_limit);
    let mut unreachable = 0;
    let mut unresolved = total;
    let mut bdd_stats = rfn_bdd::BddStats::default();
    let model_opts = rfn_mc::ModelOptions {
        cluster_limit: reach.cluster_limit,
        static_order: reach.static_order,
    };
    match SymbolicModel::with_options(netlist, ModelSpec::from_view(&view), mgr, model_opts) {
        Ok(mut model) => {
            let zero = model.manager_ref().zero();
            let result = forward_reach(&mut model, zero, reach)?;
            bdd_stats = result.stats;
            if result.verdict == ReachVerdict::FixpointProved {
                let proj = model.project_to(result.reached, &set.signals)?;
                let mut assignment = vec![false; model.manager_ref().num_vars()];
                let cov_vars: Vec<_> = set
                    .signals
                    .iter()
                    .map(|&s| model.current_var(s).expect("coverage regs in model"))
                    .collect();
                for bits in 0..total {
                    for (j, &v) in cov_vars.iter().enumerate() {
                        assignment[v.index()] = bits & (1 << j) != 0;
                    }
                    if !model.manager_ref().eval(proj, &assignment) {
                        unreachable += 1;
                    }
                }
                unresolved = 0;
            }
        }
        Err(rfn_mc::McError::Bdd(_)) => {}
        Err(e) => return Err(e.into()),
    }
    Ok(CoverageReport {
        name: set.name.clone(),
        total_states: total,
        unreachable,
        reachable: 0,
        unresolved: unresolved.saturating_sub(unreachable),
        abstract_registers: abstraction.len(),
        coi_registers: coi.num_registers(),
        coi_gates: coi.num_gates(),
        iterations: 1,
        elapsed: start.elapsed(),
        stats: bdd_stats,
    })
}

/// The cube of coverage state `bits`: bit `k` is the value of signal `k`.
fn coverage_cube(set: &CoverageSet, bits: u64) -> Cube {
    set.signals
        .iter()
        .enumerate()
        .map(|(k, &s)| (s, bits & (1 << k) != 0))
        .collect()
}

/// The first onion ring that meets `target`.
fn first_ring(
    model: &mut SymbolicModel<'_>,
    rings: &[Bdd],
    target: Bdd,
) -> Result<Option<usize>, BddError> {
    for (j, &ring) in rings.iter().enumerate() {
        if model.manager().and(ring, target)? != model.manager_ref().zero() {
            return Ok(Some(j));
        }
    }
    Ok(None)
}

fn validate_coverage_set(netlist: &Netlist, set: &CoverageSet) -> Result<(), RfnError> {
    if set.signals.len() > 24 {
        return Err(RfnError::BadProperty(format!(
            "coverage set `{}` has {} signals; at most 24 are supported",
            set.name,
            set.signals.len()
        )));
    }
    for &s in &set.signals {
        if s.index() >= netlist.num_signals() || !netlist.is_register(s) {
            return Err(RfnError::BadProperty(format!(
                "coverage signal {s} is not a register of the design"
            )));
        }
    }
    Ok(())
}

fn reset_coverage_state(netlist: &Netlist, set: &CoverageSet) -> Option<u64> {
    let mut bits = 0u64;
    for (k, &s) in set.signals.iter().enumerate() {
        match netlist.register_init(s) {
            Some(true) => bits |= 1 << k,
            Some(false) => {}
            None => return None,
        }
    }
    Some(bits)
}

/// BFS over the register dependency graph: distance 0 = the coverage
/// signals; a register's next-state cone's register leaves are one hop away.
/// Returns the closest `k` registers (including the coverage signals).
fn closest_registers(netlist: &Netlist, seeds: &[SignalId], k: usize) -> Vec<SignalId> {
    let mut dist = vec![usize::MAX; netlist.num_signals()];
    let mut queue = VecDeque::new();
    for &s in seeds {
        dist[s.index()] = 0;
        queue.push_back(s);
    }
    let mut picked: Vec<SignalId> = Vec::new();
    while let Some(r) = queue.pop_front() {
        if picked.len() >= k {
            break;
        }
        picked.push(r);
        let cone = transitive_fanin(netlist, [netlist.register_next(r)]);
        for leaf in cone.register_leaves {
            if dist[leaf.index()] == usize::MAX {
                dist[leaf.index()] = dist[r.index()] + 1;
                queue.push_back(leaf);
            }
        }
    }
    picked
}

/// Replays a trace concretely on `sim` (unassigned inputs and unknown
/// resets low) and collects the coverage states visited at every cycle.
fn replay_coverage_states(sim: &mut Simulator<'_>, set: &CoverageSet, trace: &Trace) -> Vec<u64> {
    let netlist = sim.netlist();
    sim.reset();
    for (r, v) in replay_resets(netlist, &trace.steps()[0].state).iter() {
        sim.set(r, rfn_sim::Tv::from(v));
    }
    let mut out = Vec::new();
    let mut record = |sim: &Simulator| {
        let mut bits = 0u64;
        for (k, &s) in set.signals.iter().enumerate() {
            match sim.value(s).to_bool() {
                Some(true) => bits |= 1 << k,
                Some(false) => {}
                None => return, // unknown coverage value: skip this cycle
            }
        }
        out.push(bits);
    };
    record(sim);
    for step in trace.steps() {
        let mut inputs = Cube::new();
        for &pi in netlist.inputs() {
            let v = step.inputs.get(pi).unwrap_or(false);
            let _ = inputs.insert(pi, v);
        }
        sim.step(&inputs);
        record(sim);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// A 2-bit one-hot-ish machine: state (a,b) cycles 00 -> 01 -> 10 -> 00;
    /// state 11 is unreachable. A distant mode register gates nothing.
    fn rotator() -> (Netlist, CoverageSet) {
        let mut n = Netlist::new("rot");
        let a = n.add_register("a", Some(false));
        let b = n.add_register("b", Some(false));
        // next_a = b ; next_b = !(a | b)  -- cycles 00 -> 01 -> 10 -> 00
        let nor_ab = n.add_gate("nor_ab", GateOp::Nor, &[a, b]);
        n.set_register_next(a, b).unwrap();
        n.set_register_next(b, nor_ab).unwrap();
        n.validate().unwrap();
        let set = CoverageSet::new("rot", [a, b]);
        (n, set)
    }

    #[test]
    fn classifies_the_rotator_exactly() {
        let (n, set) = rotator();
        let rep = analyze_coverage(&n, &set, &CoverageOptions::default()).unwrap();
        assert_eq!(rep.total_states, 4);
        assert_eq!(rep.unreachable, 1, "state 11 is unreachable");
        assert_eq!(rep.reachable, 3);
        assert_eq!(rep.unresolved, 0);
    }

    #[test]
    fn bfs_matches_on_tiny_design() {
        let (n, set) = rotator();
        let rep = bfs_coverage(&n, &set, 60, 1 << 20, &ReachOptions::default()).unwrap();
        assert_eq!(rep.unreachable, 1);
        assert_eq!(rep.abstract_registers, 2);
    }

    /// The rotator plus a gating register far away: with the gate stuck low,
    /// state 10 also becomes unreachable, but only an abstraction containing
    /// the (distant) gate register can see that.
    fn gated_rotator() -> (Netlist, CoverageSet, SignalId) {
        gated_rotator_from(Some(false))
    }

    /// The gated rotator with the gate source `g0` reset to `g0_init`.
    fn gated_rotator_from(g0_init: Option<bool>) -> (Netlist, CoverageSet, SignalId) {
        let mut n = Netlist::new("grot");
        let a = n.add_register("a", Some(false));
        let b = n.add_register("b", Some(false));
        // gate chain: g0 sticks at its reset; g1 <- g0 (distance 2 from a).
        let g0 = n.add_register("g0", g0_init);
        n.set_register_next(g0, g0).unwrap();
        let g1 = n.add_register("g1", Some(false));
        n.set_register_next(g1, g0).unwrap();
        // next_a = b & g1 (never 1 in reality); next_b = !(a|b).
        let band = n.add_gate("band", GateOp::And, &[b, g1]);
        let nor_ab = n.add_gate("nor_ab", GateOp::Nor, &[a, b]);
        n.set_register_next(a, band).unwrap();
        n.set_register_next(b, nor_ab).unwrap();
        n.validate().unwrap();
        let set = CoverageSet::new("grot", [a, b]);
        (n, set, g1)
    }

    #[test]
    fn refinement_finds_distant_gating_registers() {
        let (n, set, g1) = gated_rotator();
        let rep = analyze_coverage(&n, &set, &CoverageOptions::default()).unwrap();
        // Real reachable states: 00 and 01 only (a can never rise).
        assert_eq!(rep.unreachable, 2, "10 and 11 are unreachable");
        assert_eq!(rep.reachable, 2);
        assert!(rep.abstract_registers >= 3, "refinement must add {g1:?}");
    }

    /// Coverage `concretize` exits carry the RFN loop's fields in the RFN
    /// loop's order, and every iteration times its set-up in a `model`
    /// span. The gated rotator's abstract traces are spurious; with an
    /// unknown reset on the gate's source they are real.
    #[test]
    fn coverage_spans_carry_the_rfn_fields() {
        use rfn_trace::{EventKind, MemorySink, Value};
        let mut outcomes = Vec::new();
        for g0_init in [Some(false), None] {
            let (n, set, _) = gated_rotator_from(g0_init);
            let sink = std::sync::Arc::new(MemorySink::new());
            let mut options = CoverageOptions::default();
            options.common.trace = TraceCtx::new(sink.clone());
            analyze_coverage(&n, &set, &options).unwrap();
            let events = sink.take();
            let exits = |span: &'static str| {
                events.iter().filter_map(move |e| match &e.kind {
                    EventKind::Exit { name, fields, .. } if name == span => Some(fields),
                    _ => None,
                })
            };
            assert_eq!(exits("model").count(), exits("iteration").count());
            for fields in exits("concretize") {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                let Some((_, Value::Str(outcome))) = fields.first() else {
                    panic!("concretize exit without an outcome: {fields:?}");
                };
                let mut want = vec!["outcome"];
                if outcome == "falsified" {
                    want.push("engine");
                }
                want.extend([
                    "random_patterns",
                    "random_hits",
                    "atpg_backtracks",
                    "atpg_decisions",
                ]);
                assert_eq!(keys, want);
                outcomes.push(outcome.clone());
            }
        }
        assert!(outcomes.iter().any(|o| o == "falsified"), "{outcomes:?}");
        assert!(outcomes.iter().any(|o| o == "spurious"), "{outcomes:?}");
    }

    #[test]
    fn bfs_with_tiny_k_misses_the_gate() {
        let (n, set, _) = gated_rotator();
        // k=2: only the coverage registers themselves; the projection thinks
        // 10 is reachable (g1 free), so only 11 is proven unreachable.
        let rep = bfs_coverage(&n, &set, 2, 1 << 20, &ReachOptions::default()).unwrap();
        assert_eq!(rep.unreachable, 1);
        // With k large enough, BFS also finds both.
        let rep2 = bfs_coverage(&n, &set, 4, 1 << 20, &ReachOptions::default()).unwrap();
        assert_eq!(rep2.unreachable, 2);
    }

    #[test]
    fn rejects_non_register_coverage_signals() {
        let mut n = Netlist::new("bad");
        let i = n.add_input("i");
        let r = n.add_register("r", Some(false));
        n.set_register_next(r, i).unwrap();
        n.validate().unwrap();
        let set = CoverageSet::new("bad", [i]);
        assert!(analyze_coverage(&n, &set, &CoverageOptions::default()).is_err());
    }

    /// One engine answering every frontier state of a coverage iteration
    /// returns the traces that a fresh engine per state returns. Quick-scale
    /// IU1, at its first abstraction (the coverage registers alone) and at
    /// its exact one (the whole cone of influence).
    #[test]
    fn one_engine_per_iteration_matches_a_fresh_engine_per_state() {
        let design = rfn_designs::integer_unit(&rfn_designs::IntegerUnitParams {
            stages: 5,
            counters_per_stage: 1,
            counter_width: 5,
            data_width: 4,
        });
        let n = &design.netlist;
        let set = &design.coverage_sets[0];
        assert_eq!(set.name, "IU1");
        let coi = Coi::of(n, set.signals.iter().copied());
        let atpg = AtpgOptions::default();
        for regs in [set.signals.clone(), coi.registers().to_vec()] {
            let view = Abstraction::from_registers(regs)
                .view(n, set.signals.iter().copied())
                .unwrap();
            let mut model = SymbolicModel::new(n, ModelSpec::from_view(&view)).unwrap();
            let zero = model.manager_ref().zero();
            let reach = forward_reach(&mut model, zero, &ReachOptions::default()).unwrap();
            assert_eq!(reach.verdict, ReachVerdict::FixpointProved);
            let shared = HybridEngine::new(n, &view, &mut model, &atpg).unwrap();
            let mut frontier = 0;
            for bits in 0..1u64 << set.signals.len() {
                let target = model.cube_to_bdd(&coverage_cube(set, bits)).unwrap();
                let Some(step) = first_ring(&mut model, &reach.rings, target).unwrap() else {
                    continue;
                };
                let reused = shared
                    .traces(&mut model, &reach.rings, step, target, 1)
                    .unwrap();
                let fresh = HybridEngine::new(n, &view, &mut model, &atpg)
                    .unwrap()
                    .traces(&mut model, &reach.rings, step, target, 1)
                    .unwrap();
                assert_eq!(reused, fresh, "coverage state {bits:#x}");
                assert_eq!(reused.0.len(), 1, "coverage state {bits:#x} has a trace");
                frontier += 1;
            }
            assert!(frontier > 1, "the fixpoint reaches several coverage states");
        }
    }

    #[test]
    fn closest_registers_orders_by_distance() {
        let (n, set, g1) = gated_rotator();
        let picked = closest_registers(&n, &set.signals, 3);
        assert_eq!(picked.len(), 3);
        assert!(picked.contains(&set.signals[0]));
        assert!(picked.contains(&set.signals[1]));
        // The third closest is g1 (distance 1 from a via band).
        assert!(picked.contains(&g1));
    }
}
