//! The hybrid BDD–ATPG engine: error-trace reconstruction on abstract models
//! (Section 2.2 of the paper).
//!
//! A freshly refined abstract model can have thousands of free inputs, which
//! makes plain pre-image computation hopeless. The hybrid engine instead:
//!
//! 1. computes the *min-cut design* `MC` of the abstract model `N` (few
//!    inputs),
//! 2. walks the onion rings backwards: from the fattest target cube `T`, it
//!    intersects `pre_MC(T)` (with the cut-signal inputs kept alive) with the
//!    previous ring,
//! 3. classifies each resulting cube: a *no-cut cube* mentions only registers
//!    and free inputs of `N` and extends the trace directly; a *min-cut
//!    cube* mentions internal cut signals and is lifted to a no-cut cube by
//!    combinational ATPG on `N`,
//! 4. repeats until the trace reaches the initial ring.
//!
//! If every candidate cube of a step fails (ATPG abort or ring mismatch), the
//! engine falls back to an exact pre-image on `N` for that step — slower but
//! always sound.
//!
//! Step 1 and the ATPG's set-up depend only on the abstraction, so a
//! [`HybridEngine`] does them once per fixpoint and then answers every
//! trace query on it.

use rfn_atpg::{AtpgOptions, CombinationalAtpg};
use rfn_bdd::{Bdd, VarId};
use rfn_mc::{McError, ModelSpec, SymbolicModel, TransitionRelation};
use rfn_netlist::{compute_min_cut, AbstractView, Netlist, Trace, TraceStep};
use rfn_trace::Span;

use crate::{Phase, RfnError};

/// Statistics from hybrid trace reconstruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Steps resolved directly by a no-cut cube of the min-cut pre-image.
    pub no_cut_steps: usize,
    /// Steps resolved by lifting a min-cut cube with combinational ATPG.
    pub min_cut_steps: usize,
    /// Steps that needed the exact pre-image fallback.
    pub fallback_steps: usize,
    /// Primary inputs of the abstract model.
    pub abstract_inputs: usize,
    /// Primary inputs of the min-cut design.
    pub min_cut_inputs: usize,
}

impl HybridStats {
    /// Accumulates another reconstruction's step counts; the input counts
    /// describe the abstraction and are taken from `other`.
    pub fn merge(&mut self, other: &HybridStats) {
        self.no_cut_steps += other.no_cut_steps;
        self.min_cut_steps += other.min_cut_steps;
        self.fallback_steps += other.fallback_steps;
        self.abstract_inputs = other.abstract_inputs;
        self.min_cut_inputs = other.min_cut_inputs;
    }

    /// Records one query's reconstruction on its `hybrid` span: trace count,
    /// the first trace's length, the hit step and the step classes. The RFN
    /// and coverage loops both report through here, so the breakdown and
    /// the benchmarks read the same fields from either.
    pub(crate) fn record(&self, span: &mut Span, traces: &[Trace], hit_step: usize) {
        span.record("traces", traces.len());
        span.record("cycles", traces.first().map_or(0, Trace::num_cycles));
        span.record("hit_step", hit_step);
        span.record("no_cut_steps", self.no_cut_steps);
        span.record("min_cut_steps", self.min_cut_steps);
        span.record("fallback_steps", self.fallback_steps);
        span.record("abstract_inputs", self.abstract_inputs);
        span.record("min_cut_inputs", self.min_cut_inputs);
    }
}

/// The hybrid engine of one abstraction: the min-cut design's transition
/// relation, the abstract model's own relation for the exact fallback, the
/// combinational ATPG over the abstract model, and the model's free-input
/// mask. All four depend only on the abstraction, so one engine answers
/// every trace query on an iteration's fixpoint: the RFN loop's
/// `max_abstract_traces` seeds and every frontier state of a coverage
/// iteration.
///
/// # Lifetime contract
///
/// The engine keeps BDD handles into the model's manager without
/// protecting them from garbage collection. Build it after the iteration's
/// fixpoint and drop it with the model: between the two, nothing may
/// collect or reorder that manager. The engine's own operations do
/// neither. Only the reach loop (behind `rfn_mc::forward_reach` and its
/// multi-target form) turns automatic collection on, and only its
/// `reorder_step` sifts. Because BDDs are canonical, an engine reused
/// across queries then returns the same pre-images, cubes and traces as a
/// fresh engine built for each query.
pub struct HybridEngine<'n> {
    min_cut: TransitionRelation,
    main: TransitionRelation,
    atpg: CombinationalAtpg<'n>,
    /// Free inputs of the abstract model, by signal index, for cube
    /// classification.
    is_free_input: Vec<bool>,
    abstract_inputs: usize,
    min_cut_inputs: usize,
}

impl<'n> HybridEngine<'n> {
    /// Builds the engine for `view`'s abstract model: computes the min-cut
    /// design and its transition relation in `model`'s variable space, and
    /// the combinational ATPG that lifts min-cut cubes.
    ///
    /// # Errors
    ///
    /// Returns [`Phase::Hybrid`]-stamped structural errors, and BDD
    /// capacity errors from building the min-cut relation.
    pub fn new(
        netlist: &'n Netlist,
        view: &AbstractView,
        model: &mut SymbolicModel<'_>,
        atpg_options: &AtpgOptions,
    ) -> Result<Self, RfnError> {
        let mincut = compute_min_cut(netlist, view);
        let min_cut = model
            .build_transition(&ModelSpec::from_min_cut(view, &mincut))
            .map_err(|e| RfnError::at(Phase::Hybrid, e))?;
        let atpg = CombinationalAtpg::over_view(netlist, view, atpg_options.clone())
            .map_err(|e| RfnError::at(Phase::Hybrid, e))?;
        let mut is_free_input = vec![false; netlist.num_signals()];
        for s in view.free_inputs() {
            is_free_input[s.index()] = true;
        }
        Ok(HybridEngine {
            min_cut,
            main: model.transition().clone(),
            atpg,
            is_free_input,
            abstract_inputs: mincut.original_input_count,
            min_cut_inputs: mincut.num_inputs(),
        })
    }

    /// Reconstructs up to `max_traces` *distinct* abstract error traces
    /// into `targets`, whose states first appear in `rings[hit_step]`.
    ///
    /// The first trace starts from the fattest cube of the target
    /// intersection (the paper's choice); further ones start from other
    /// path cubes. This implements the paper's first future-work item
    /// (Section 5): if the first trace's guidance turns out unsatisfiable
    /// on the original design, the next gives the sequential ATPG a
    /// genuinely different corridor before RFN falls back to refinement.
    ///
    /// Each trace runs from an initial state of the abstract model to a
    /// state satisfying `targets`; its state cubes range over the model's
    /// registers and its input cubes over the model's free inputs (true
    /// primary inputs and pseudo-inputs of the original design). The
    /// statistics sum over the returned traces.
    ///
    /// # Errors
    ///
    /// Returns [`Phase::Hybrid`]-stamped structural errors and BDD capacity
    /// errors outside the fallback path; a seed whose reconstruction fails
    /// just shortens the returned list (empty if none succeeds).
    pub fn traces(
        &self,
        model: &mut SymbolicModel<'_>,
        rings: &[Bdd],
        hit_step: usize,
        targets: Bdd,
        max_traces: usize,
    ) -> Result<(Vec<Trace>, HybridStats), RfnError> {
        self.traces_inner(model, rings, hit_step, targets, max_traces)
            .map_err(|e| e.with_phase(Phase::Hybrid))
    }

    fn traces_inner(
        &self,
        model: &mut SymbolicModel<'_>,
        rings: &[Bdd],
        k: usize,
        targets: Bdd,
        max_traces: usize,
    ) -> Result<(Vec<Trace>, HybridStats), RfnError> {
        // Seed cubes: the fattest one first (the paper's choice), then further
        // disjoint path cubes of the intersection for trace diversity.
        let hit = model
            .manager()
            .and(rings[k], targets)
            .map_err(McError::from)?;
        let mut seeds: Vec<Vec<(VarId, bool)>> = Vec::new();
        if let Some(c) = model.manager_ref().shortest_cube(hit) {
            seeds.push(c);
        }
        for cube in model.manager_ref().cubes(hit, max_traces.saturating_sub(1)) {
            if !seeds.contains(&cube) {
                seeds.push(cube);
            }
        }
        seeds.truncate(max_traces.max(1));
        let no_steps = HybridStats {
            abstract_inputs: self.abstract_inputs,
            min_cut_inputs: self.min_cut_inputs,
            ..HybridStats::default()
        };
        let mut traces: Vec<Trace> = Vec::new();
        let mut total = no_steps;
        for seed in seeds {
            let mut stats = no_steps;
            if let Some(t) = self.trace_from_seed(model, rings, k, &seed, &mut stats)? {
                if !traces.contains(&t) {
                    traces.push(t);
                    total.merge(&stats);
                }
            }
        }
        Ok((traces, total))
    }

    /// Walks the onion rings backwards from one seed cube in `rings[k]`.
    fn trace_from_seed(
        &self,
        model: &mut SymbolicModel<'_>,
        rings: &[Bdd],
        k: usize,
        seed_lits: &[(VarId, bool)],
        stats: &mut HybridStats,
    ) -> Result<Option<Trace>, RfnError> {
        let seed = model.cube_to_signals(seed_lits);
        debug_assert!(seed.next_state.is_empty());
        let mut trace = Trace::new();
        trace.push(TraceStep {
            state: seed.state.clone(),
            inputs: seed.inputs,
        });
        let mut t_cube = seed.state;
        for j in (1..=k).rev() {
            let t_bdd = model.cube_to_bdd(&t_cube)?;
            let Some(step) = self.step(model, rings[j - 1], t_bdd, stats) else {
                return Ok(None);
            };
            t_cube = step.state.clone();
            trace.push_front(step);
        }
        Ok(Some(trace))
    }

    /// Resolves one backward step: finds a (state, inputs) pair in
    /// `prev_ring` that transitions into the `t_bdd` region. BDD capacity
    /// errors make the step fail rather than the query.
    fn step(
        &self,
        model: &mut SymbolicModel<'_>,
        prev_ring: Bdd,
        t_bdd: Bdd,
        stats: &mut HybridStats,
    ) -> Option<TraceStep> {
        // Pre-image on the min-cut design, cut-signal inputs kept alive.
        let attempt = (|| -> Result<Option<TraceStep>, rfn_bdd::BddError> {
            let pre = model.pre_image_with_inputs(&self.min_cut, t_bdd)?;
            let r = model.manager().and(pre, prev_ring)?;
            if r == model.manager_ref().zero() {
                // MC over-approximates N, so this should not happen; treat as a
                // fallback trigger (can occur after a partial ATPG witness in the
                // previous step).
                return Ok(None);
            }
            // Candidate cubes: fattest first, then a few more paths.
            let mut candidates = Vec::new();
            if let Some(c) = model.manager_ref().shortest_cube(r) {
                candidates.push(c);
            }
            candidates.extend(model.manager_ref().cubes(r, 8));
            for lits in candidates {
                let sc = model.cube_to_signals(&lits);
                let min_cut_lits = sc.inputs.filter(|s| !self.is_free_input[s.index()]);
                if min_cut_lits.is_empty() {
                    stats.no_cut_steps += 1;
                    return Ok(Some(TraceStep {
                        state: sc.state,
                        inputs: sc.inputs,
                    }));
                }
                // Min-cut cube: lift with combinational ATPG on N. The target is
                // the full cube — state literals plus internal cut-signal values.
                let mut target = sc.state.clone();
                if target.merge(&sc.inputs).is_err() {
                    continue;
                }
                let outcome = self.atpg.justify_cube(&target);
                if let Some(witness) = outcome.trace() {
                    let wstep = &witness.steps()[0];
                    // The witness's state must stay inside the previous ring.
                    let wbdd = match model.cube_to_bdd(&wstep.state) {
                        Ok(b) => b,
                        Err(_) => continue,
                    };
                    let inter = model.manager().and(wbdd, prev_ring)?;
                    if inter == model.manager_ref().zero() {
                        continue;
                    }
                    stats.min_cut_steps += 1;
                    return Ok(Some(TraceStep {
                        state: wstep.state.clone(),
                        inputs: wstep.inputs.clone(),
                    }));
                }
            }
            Ok(None)
        })();

        // No lifted cube, or a node limit inside the hybrid path: fall back.
        if let Ok(Some(step)) = attempt {
            return Some(step);
        }

        // Exact fallback: pre-image on the full abstract model with inputs alive.
        stats.fallback_steps += 1;
        let exact = (|| -> Result<Option<TraceStep>, rfn_bdd::BddError> {
            let pre = model.pre_image_with_inputs(&self.main, t_bdd)?;
            let r = model.manager().and(pre, prev_ring)?;
            if r == model.manager_ref().zero() {
                return Ok(None);
            }
            let lits = model
                .manager_ref()
                .shortest_cube(r)
                .expect("non-zero BDD has a cube");
            let sc = model.cube_to_signals(&lits);
            debug_assert!(
                sc.inputs.iter().all(|(s, _)| self.is_free_input[s.index()]),
                "main transition pre-image can only mention free inputs"
            );
            Ok(Some(TraceStep {
                state: sc.state,
                inputs: sc.inputs,
            }))
        })();
        exact.unwrap_or(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_mc::{forward_reach, ReachOptions, ReachVerdict};
    use rfn_netlist::{Abstraction, GateOp, Netlist, SignalId};

    /// A funnel design: 6 inputs xor-reduce into a toggle register chain.
    /// reg0 toggles when the funnel is 1; reg1 latches reg0.
    fn funnel() -> (Netlist, SignalId, SignalId, Vec<SignalId>) {
        let mut n = Netlist::new("funnel");
        let inputs: Vec<_> = (0..6).map(|k| n.add_input(&format!("i{k}"))).collect();
        let fun = n.add_gate("fun", GateOp::Xor, &inputs);
        let r0 = n.add_register("r0", Some(false));
        let r1 = n.add_register("r1", Some(false));
        let t0 = n.add_gate("t0", GateOp::Xor, &[r0, fun]);
        n.set_register_next(r0, t0).unwrap();
        n.set_register_next(r1, r0).unwrap();
        n.validate().unwrap();
        (n, r0, r1, inputs)
    }

    /// Reaches `target_reg` on the abstraction `regs` and reconstructs one
    /// trace into it.
    fn reconstruct(n: &Netlist, regs: &[SignalId], target_reg: SignalId) -> (Trace, HybridStats) {
        let view = Abstraction::from_registers(regs.iter().copied())
            .view(n, [target_reg])
            .unwrap();
        let mut model = SymbolicModel::new(n, ModelSpec::from_view(&view)).unwrap();
        let targets = model.signal_bdd(target_reg).unwrap();
        let reach = forward_reach(&mut model, targets, &ReachOptions::default()).unwrap();
        let ReachVerdict::TargetHit { step } = reach.verdict else {
            panic!("target unreachable");
        };
        let engine = HybridEngine::new(n, &view, &mut model, &AtpgOptions::default()).unwrap();
        let (mut traces, stats) = engine
            .traces(&mut model, &reach.rings, step, targets, 1)
            .unwrap();
        (traces.pop().expect("hybrid failed"), stats)
    }

    #[test]
    fn trace_reaches_target_and_replays() {
        let (n, _, r1, _) = funnel();
        let (trace, stats) = reconstruct(&n, n.registers(), r1);
        // r1 = 1 needs r0 = 1 one cycle earlier: 3 states.
        assert_eq!(trace.num_cycles(), 3);
        assert_eq!(trace.last_state().unwrap().get(r1), Some(true));
        // Min-cut collapses 6 inputs into 1 cut signal.
        assert_eq!(stats.abstract_inputs, 6);
        assert_eq!(stats.min_cut_inputs, 1);
        // The trace must replay on the abstraction = whole design here.
        let mut sim = rfn_sim::Simulator::new(&n).unwrap();
        assert!(sim.replay(&trace));
    }

    #[test]
    fn min_cut_cubes_are_lifted_by_atpg() {
        let (n, r0, _, _) = funnel();
        let (trace, stats) = reconstruct(&n, n.registers(), r0);
        assert_eq!(trace.num_cycles(), 2);
        // The pre-image of r0=1 mentions the internal funnel signal, so the
        // step must be resolved through ATPG lifting (or a no-cut cube if the
        // cut input literal resolves directly; either way no fallback).
        assert_eq!(stats.fallback_steps, 0);
        assert!(stats.min_cut_steps + stats.no_cut_steps >= 1);
        // Inputs in the trace are real inputs of the design.
        for step in trace.steps() {
            for (s, _) in step.inputs.iter() {
                assert!(n.is_input(s), "trace input {} is not a PI", n.label(s));
            }
        }
    }

    #[test]
    fn trace_on_partial_abstraction_uses_pseudo_inputs() {
        let (n, r0, r1, _) = funnel();
        // Abstraction containing only r1: r0 is a pseudo-input.
        let (trace, _) = reconstruct(&n, &[r1], r1);
        // 2 cycles: pseudo-input r0=1 then r1=1.
        assert_eq!(trace.num_cycles(), 2);
        let first = &trace.steps()[0];
        assert_eq!(
            first.inputs.get(r0),
            Some(true),
            "pseudo-input drives the step"
        );
    }

    /// A 3-bit counter that advances while the xor of four inputs is 1,
    /// observed through a register outside the abstraction that gates
    /// the carry into the top bit: every counter value is a target of its
    /// own, reached at its own depth.
    fn gated_counter() -> (Netlist, Vec<SignalId>) {
        let mut n = Netlist::new("gated_counter");
        let inputs: Vec<_> = (0..4).map(|k| n.add_input(&format!("i{k}"))).collect();
        let en = n.add_gate("en", GateOp::Xor, &inputs);
        let bits: Vec<_> = (0..3)
            .map(|k| n.add_register(&format!("b{k}"), Some(false)))
            .collect();
        let gate = n.add_register("gate", Some(false));
        let ngate = n.add_gate("ngate", GateOp::Not, &[gate]);
        n.set_register_next(gate, ngate).unwrap();
        let c0 = n.add_gate("c0", GateOp::And, &[en, bits[0]]);
        let c1 = n.add_gate("c1", GateOp::And, &[c0, bits[1], gate]);
        let nb0 = n.add_gate("nb0", GateOp::Xor, &[bits[0], en]);
        let nb1 = n.add_gate("nb1", GateOp::Xor, &[bits[1], c0]);
        let nb2 = n.add_gate("nb2", GateOp::Xor, &[bits[2], c1]);
        for (b, next) in bits.iter().zip([nb0, nb1, nb2]) {
            n.set_register_next(*b, next).unwrap();
        }
        n.validate().unwrap();
        (n, bits)
    }

    /// One engine answering every reachable state of a fixpoint returns the
    /// traces that a fresh engine per state returns — the coverage loop's
    /// reuse is exact.
    #[test]
    fn one_engine_per_fixpoint_matches_a_fresh_engine_per_target() {
        let (n, bits) = gated_counter();
        let view = Abstraction::from_registers(bits.iter().copied())
            .view(&n, bits.iter().copied())
            .unwrap();
        assert!(!view.pseudo_inputs().is_empty(), "the gate stays abstract");
        let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view)).unwrap();
        let zero = model.manager_ref().zero();
        let reach = forward_reach(&mut model, zero, &ReachOptions::default()).unwrap();
        assert_eq!(reach.verdict, ReachVerdict::FixpointProved);
        let options = AtpgOptions::default();
        let shared = HybridEngine::new(&n, &view, &mut model, &options).unwrap();
        let mut queries = 0;
        for value in 0..8u32 {
            let cube = bits
                .iter()
                .enumerate()
                .map(|(k, &b)| (b, value & (1 << k) != 0))
                .collect();
            let target = model.cube_to_bdd(&cube).unwrap();
            let hit = reach.rings.iter().position(|&ring| {
                let inter = model.manager().and(ring, target).unwrap();
                inter != model.manager_ref().zero()
            });
            let Some(step) = hit else { continue };
            let reused = shared
                .traces(&mut model, &reach.rings, step, target, 2)
                .unwrap();
            let fresh = HybridEngine::new(&n, &view, &mut model, &options)
                .unwrap()
                .traces(&mut model, &reach.rings, step, target, 2)
                .unwrap();
            assert_eq!(reused, fresh, "counter value {value}");
            assert!(!reused.0.is_empty(), "counter value {value} has a trace");
            assert_eq!(reused.0[0].num_cycles(), step + 1);
            queries += 1;
        }
        assert_eq!(queries, 8, "every counter value is reachable");
    }
}
