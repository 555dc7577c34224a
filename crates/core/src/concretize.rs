//! Step 3: searching for an error trace on the original design, staging
//! engines cheap-to-expensive: guided random simulation first, trace-guided
//! sequential ATPG second.

use rfn_atpg::{AtpgOutcome, SequentialAtpg};
use rfn_govern::Budget;
use rfn_netlist::{Cube, Netlist, NetlistError, Property, Trace};
use rfn_sim::{random_concretize, PackedSim, RandomSimOptions, Simulator, Tv};
use rfn_trace::Span;

use crate::{Phase, RfnError};

/// Options for the staged concretization of Step 3.
#[derive(Clone, Debug, Default)]
pub struct ConcretizeOptions {
    /// Limits for the trace-guided sequential ATPG (the expensive stage).
    pub atpg: rfn_atpg::AtpgOptions,
    /// The random-simulation engine (the cheap stage, tried first);
    /// `sim.batches = 0` disables it.
    pub sim: RandomSimOptions,
}

/// Effort statistics of concretization attempts; accumulable across
/// attempts and iterations with [`ConcretizeStats::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConcretizeStats {
    /// 64-pattern batches the random engine simulated.
    pub random_batches: u64,
    /// Random patterns simulated (64 per batch).
    pub random_patterns: u64,
    /// Random patterns that landed in the target cube.
    pub random_hits: u64,
    /// Packed gate evaluations the random engine spent (64 lanes each).
    pub random_gate_evals: u64,
    /// Whether a falsification came from the random engine — the sequential
    /// ATPG was never entered for that abstract trace, i.e. the witness cost
    /// zero ATPG backtracks.
    pub random_falsified: bool,
    /// Sequential-ATPG backtracks spent.
    pub atpg_backtracks: u64,
    /// Sequential-ATPG decisions spent.
    pub atpg_decisions: u64,
}

impl ConcretizeStats {
    /// Accumulates another attempt's counters into this one.
    pub fn merge(&mut self, other: &ConcretizeStats) {
        self.random_batches += other.random_batches;
        self.random_patterns += other.random_patterns;
        self.random_hits += other.random_hits;
        self.random_gate_evals += other.random_gate_evals;
        self.random_falsified |= other.random_falsified;
        self.atpg_backtracks += other.atpg_backtracks;
        self.atpg_decisions += other.atpg_decisions;
    }

    /// Records one attempt on its `concretize` span: the outcome, the
    /// winning engine of a falsification, the effort counters, and the
    /// budget left where it is bounded (so unbudgeted runs keep a
    /// deterministic event stream). The RFN and coverage loops both report
    /// through here, so the breakdown and the benchmarks read the same
    /// fields from either.
    pub(crate) fn record(&self, span: &mut Span, outcome: &ConcretizeOutcome, budget: &Budget) {
        span.record(
            "outcome",
            match outcome {
                ConcretizeOutcome::Falsified(_) => "falsified",
                ConcretizeOutcome::Spurious => "spurious",
                ConcretizeOutcome::Unknown => "unknown",
            },
        );
        if matches!(outcome, ConcretizeOutcome::Falsified(_)) {
            span.record(
                "engine",
                if self.random_falsified {
                    "random"
                } else {
                    "atpg"
                },
            );
        }
        span.record("random_patterns", self.random_patterns);
        span.record("random_hits", self.random_hits);
        span.record("atpg_backtracks", self.atpg_backtracks);
        span.record("atpg_decisions", self.atpg_decisions);
        if let Some(remaining) = budget.remaining() {
            span.record("budget.remaining_ms", remaining.as_millis() as u64);
        }
        if let Some(backtracks) = budget.backtracks_remaining() {
            span.record("budget.backtracks_remaining", backtracks);
        }
    }
}

/// Result of a concretization attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConcretizeOutcome {
    /// A real error trace was found and validated by concrete simulation.
    Falsified(Trace),
    /// The guided search proved no error trace exists *under the guidance
    /// constraints at this depth* — the abstract trace is spurious.
    Spurious,
    /// The search aborted on a resource limit; the abstract trace's status is
    /// unknown (treated like spurious by the RFN loop, which then refines).
    Unknown,
}

/// The engines of Step 3 for one iteration: the packed simulator the
/// random stage and witness validation run on, the scalar simulator a
/// random hit is replayed on, and the sequential ATPG over the whole
/// design.
///
/// None of them depends on the abstraction or the attempt, so one engine
/// serves every attempt of an iteration: the RFN loop's abstract traces
/// and every frontier state of a coverage iteration. Each is built at its
/// first use, so an iteration whose random stage always wins never builds
/// the ATPG. Every attempt resets the simulators and starts a fresh ATPG
/// search, so a reused engine returns the same outcomes, traces and
/// statistics as a fresh engine per attempt.
///
/// The RFN loop builds it after dropping the iteration's symbolic model,
/// and both loops drop it with the iteration, so its whole-design tables
/// are never alive beside a later iteration's BDDs.
pub struct Concretizer<'n> {
    netlist: &'n Netlist,
    options: ConcretizeOptions,
    packed: Option<PackedSim<'n>>,
    replay: Option<Simulator<'n>>,
    atpg: Option<SequentialAtpg<'n>>,
}

impl<'n> Concretizer<'n> {
    /// An engine over `netlist` that builds nothing until its first
    /// attempt.
    pub fn new(netlist: &'n Netlist, options: ConcretizeOptions) -> Self {
        Concretizer {
            netlist,
            options,
            packed: None,
            replay: None,
            atpg: None,
        }
    }

    /// Tries to turn an abstract error trace into a real error trace of
    /// the original design that ends in `target` (the paper's Step 3; the
    /// RFN loop targets the property literal, the coverage analysis a
    /// coverage-state cube).
    ///
    /// The abstract trace provides both the search depth (the real
    /// shortest error trace can only be longer) and per-cycle constraint
    /// cubes that guide the engines — including the trace's pseudo-input
    /// assignments, which become register constraints on the original
    /// design.
    ///
    /// Engines run cheap to expensive: guided random simulation
    /// ([`rfn_sim::random_concretize`]) first; if it misses, trace-guided
    /// sequential ATPG.
    ///
    /// Every `Falsified` trace has been replayed with concrete simulation
    /// before being returned, so falsification is sound even though the
    /// search is heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`Phase::Concretize`]-stamped structural netlist errors.
    pub fn concretize(
        &mut self,
        target: &Cube,
        abstract_trace: &Trace,
    ) -> Result<(ConcretizeOutcome, ConcretizeStats), RfnError> {
        let mut stats = ConcretizeStats::default();
        if abstract_trace.is_empty() {
            return Ok((ConcretizeOutcome::Unknown, stats));
        }
        let depth = abstract_trace.num_cycles();
        // Guidance: each abstract step's state and input cubes merged. All
        // abstract-model signals are signals of the original design
        // (pseudo-input literals become register constraints).
        let mut guidance: Vec<Cube> = Vec::with_capacity(depth);
        for step in abstract_trace.steps() {
            let mut cube = step.state.clone();
            if cube.merge(&step.inputs).is_err() {
                // State and input cubes of a well-formed trace are
                // disjoint; a conflict means the trace is internally
                // inconsistent.
                return Ok((ConcretizeOutcome::Spurious, stats));
            }
            guidance.push(cube);
        }
        let netlist = self.netlist;

        // Stage 1: guided random simulation — a few thousand packed
        // patterns along the corridor cost a fraction of one ATPG search.
        if self.options.sim.batches > 0 {
            let sim = first_use(&mut self.packed, || PackedSim::new(netlist))?;
            let (found, rstats) =
                random_concretize(sim, &mut self.replay, target, &guidance, &self.options.sim)
                    .map_err(|e| RfnError::at(Phase::Concretize, e))?;
            stats.random_batches = rstats.batches;
            stats.random_patterns = rstats.patterns;
            stats.random_hits = rstats.hits;
            stats.random_gate_evals = rstats.gate_evals;
            if let Some(trace) = found {
                // The hitting lane was already replayed (and thereby
                // validated) on the scalar simulator during trace
                // reconstruction.
                stats.random_falsified = true;
                return Ok((ConcretizeOutcome::Falsified(trace), stats));
            }
        }

        // Stage 2: trace-guided sequential ATPG.
        let atpg = first_use(&mut self.atpg, || {
            SequentialAtpg::new(netlist, self.options.atpg.clone())
        })?;
        let (outcome, astats) = atpg.find_trace_with_stats(depth, target, &guidance);
        stats.atpg_backtracks = astats.backtracks;
        stats.atpg_decisions = astats.decisions;
        let outcome = match outcome {
            AtpgOutcome::Satisfiable(trace) => {
                let sim = first_use(&mut self.packed, || PackedSim::new(netlist))?;
                if replays_into(sim, target, &trace) {
                    ConcretizeOutcome::Falsified(trace)
                } else {
                    // An invalid witness indicates an engine bug; refuse to
                    // report a false falsification.
                    debug_assert!(false, "ATPG witness failed concrete validation");
                    ConcretizeOutcome::Unknown
                }
            }
            AtpgOutcome::Unsatisfiable => ConcretizeOutcome::Spurious,
            AtpgOutcome::Aborted => ConcretizeOutcome::Unknown,
        };
        Ok((outcome, stats))
    }

    /// The scalar simulator random hits are replayed on, built at its first
    /// use; the coverage analysis replays its concrete traces on it too.
    pub(crate) fn replay_simulator(&mut self) -> Result<&mut Simulator<'n>, RfnError> {
        let netlist = self.netlist;
        first_use(&mut self.replay, || Simulator::new(netlist))
    }
}

/// The engine in `slot`, built by `build` at its first use.
fn first_use<T>(
    slot: &mut Option<T>,
    build: impl FnOnce() -> Result<T, NetlistError>,
) -> Result<&mut T, RfnError> {
    match slot {
        Some(engine) => Ok(engine),
        empty => Ok(empty.insert(build().map_err(|e| RfnError::at(Phase::Concretize, e))?)),
    }
}

/// The cube a falsification of `property` must reach: its signal at its
/// failing value.
pub(crate) fn property_cube(property: &Property) -> Cube {
    [(property.signal, property.value)].into_iter().collect()
}

/// Validates an error-trace cube by concrete simulation: unassigned inputs
/// are driven low, the design starts from reset (a register with an
/// unknown reset takes the trace's cycle-0 value, or low where the trace
/// leaves it open), and the property signal must assert at the final cycle.
///
/// Runs on the packed kernel (values broadcast to all lanes, lane 0 read
/// back).
///
/// Returns `Ok(true)` if the trace is a genuine counterexample.
///
/// # Errors
///
/// Returns a [`crate::Phase::Concretize`]-stamped error if the netlist
/// fails validation — a malformed design must surface, not silently skip
/// the replay check.
pub fn validate_trace(
    netlist: &Netlist,
    property: &Property,
    trace: &Trace,
) -> Result<bool, RfnError> {
    validate_trace_cube(netlist, &property_cube(property), trace)
}

/// Like [`validate_trace`] for an arbitrary target cube: every literal of
/// `target` must hold at the trace's final cycle under concrete simulation.
///
/// # Errors
///
/// Returns a [`crate::Phase::Concretize`]-stamped error if the netlist
/// fails validation.
pub fn validate_trace_cube(
    netlist: &Netlist,
    target: &Cube,
    trace: &Trace,
) -> Result<bool, RfnError> {
    if trace.is_empty() {
        return Ok(false);
    }
    let mut sim = PackedSim::new(netlist).map_err(|e| RfnError::at(Phase::Concretize, e))?;
    Ok(replays_into(&mut sim, target, trace))
}

/// [`validate_trace_cube`] on the caller's packed simulator, which it
/// resets first.
fn replays_into(sim: &mut PackedSim<'_>, target: &Cube, trace: &Trace) -> bool {
    let netlist = sim.netlist();
    let Some(first) = trace.steps().first() else {
        return false;
    };
    sim.reset();
    for (r, v) in replay_resets(netlist, &first.state).iter() {
        sim.set_all(r, Tv::from(v));
    }
    for (i, step) in trace.steps().iter().enumerate() {
        // Drive every input: trace value if present, low otherwise.
        let mut inputs = Cube::new();
        for &pi in netlist.inputs() {
            let v = step.inputs.get(pi).unwrap_or(false);
            if inputs.insert(pi, v).is_err() {
                return false;
            }
        }
        if i + 1 < trace.num_cycles() {
            sim.step(&inputs);
        } else {
            sim.apply_cube(&inputs);
            sim.step_comb();
        }
    }
    target
        .iter()
        .all(|(s, v)| sim.lane(s, 0).to_bool() == Some(v))
}

/// The cycle-0 value a concrete replay gives every register whose reset is
/// unknown: the value `first_state` pins, or low where it pins none, just
/// as replay drives unpinned inputs low. Any value is a legal reset, while
/// leaving such a register at `X` can lose a real counterexample:
/// three-valued simulation cannot resolve reconvergent `X`, so an XNOR of
/// the register with itself stays `X` instead of 1.
pub(crate) fn replay_resets(netlist: &Netlist, first_state: &Cube) -> Cube {
    netlist
        .registers()
        .iter()
        .filter(|&&r| netlist.register_init(r).is_none())
        .map(|&r| (r, first_state.get(r).unwrap_or(false)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::{GateOp, SignalId, TraceStep};

    /// Design: watchdog fires 2 cycles after input `go` is held high while
    /// `arm` register (set by input `a`) is 1.
    fn design() -> (Netlist, Property, [SignalId; 4]) {
        let mut n = Netlist::new("d");
        let go = n.add_input("go");
        let a = n.add_input("a");
        let arm = n.add_register("arm", Some(false));
        n.set_register_next(arm, a).unwrap();
        let fire = n.add_gate("fire", GateOp::And, &[go, arm]);
        let w = n.add_register("w", Some(false));
        let wor = n.add_gate("wor", GateOp::Or, &[w, fire]);
        n.set_register_next(w, wor).unwrap();
        n.validate().unwrap();
        let p = Property::never(&n, "w_low", w);
        (n, p, [go, a, arm, w])
    }

    /// Abstract trace over N = {w} (arm is a pseudo-input): claims the
    /// watchdog fires with go=1, arm=1 at cycle 1.
    fn abstract_trace(go: SignalId, arm: SignalId, w: SignalId) -> Trace {
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(w, false)].into_iter().collect(),
            inputs: Cube::new(),
        });
        t.push(TraceStep {
            state: [(w, false)].into_iter().collect(),
            inputs: [(go, true), (arm, true)].into_iter().collect(),
        });
        t.push(TraceStep {
            state: [(w, true)].into_iter().collect(),
            inputs: Cube::new(),
        });
        t
    }

    /// Abstract trace claiming the watchdog fires at cycle 1 already:
    /// impossible, since arm resets to 0, so fire=0 in cycle 0.
    fn infeasible_trace(go: SignalId, arm: SignalId, w: SignalId) -> Trace {
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(w, false)].into_iter().collect(),
            inputs: [(go, true), (arm, true)].into_iter().collect(),
        });
        t.push(TraceStep {
            state: [(w, true)].into_iter().collect(),
            inputs: Cube::new(),
        });
        t
    }

    /// One attempt on a fresh engine.
    fn attempt(
        n: &Netlist,
        target: &Cube,
        t: &Trace,
        options: &ConcretizeOptions,
    ) -> (ConcretizeOutcome, ConcretizeStats) {
        Concretizer::new(n, options.clone())
            .concretize(target, t)
            .unwrap()
    }

    #[test]
    fn guided_search_finds_real_trace() {
        let (n, p, [go, _, arm, w]) = design();
        let t = abstract_trace(go, arm, w);
        match attempt(&n, &property_cube(&p), &t, &ConcretizeOptions::default()).0 {
            ConcretizeOutcome::Falsified(trace) => {
                assert_eq!(trace.num_cycles(), 3);
                assert!(validate_trace(&n, &p, &trace).unwrap());
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    /// The same corridor is cheap enough for the random engine alone: with
    /// the ATPG stage disabled down to zero backtracks it still falsifies,
    /// and the stats prove the witness cost no ATPG work.
    #[test]
    fn random_engine_falsifies_without_atpg() {
        let (n, p, [go, _, arm, w]) = design();
        let t = abstract_trace(go, arm, w);
        let options = ConcretizeOptions::default();
        let (outcome, stats) = attempt(&n, &property_cube(&p), &t, &options);
        assert!(matches!(outcome, ConcretizeOutcome::Falsified(_)));
        assert!(stats.random_falsified, "random stage should win here");
        assert_eq!(stats.atpg_backtracks, 0);
        assert_eq!(stats.atpg_decisions, 0);
        assert!(stats.random_hits > 0);
        assert!(stats.random_patterns > 0);
    }

    /// With the random stage disabled the ATPG stage still does the job.
    #[test]
    fn atpg_stage_works_with_random_disabled() {
        let (n, p, [go, _, arm, w]) = design();
        let t = abstract_trace(go, arm, w);
        let mut options = ConcretizeOptions::default();
        options.sim.batches = 0;
        let (outcome, stats) = attempt(&n, &property_cube(&p), &t, &options);
        assert!(matches!(outcome, ConcretizeOutcome::Falsified(_)));
        assert!(!stats.random_falsified);
        assert_eq!(stats.random_patterns, 0);
    }

    #[test]
    fn infeasible_guidance_is_spurious() {
        let (n, p, [go, _, arm, w]) = design();
        let t = infeasible_trace(go, arm, w);
        let (outcome, stats) = attempt(&n, &property_cube(&p), &t, &ConcretizeOptions::default());
        assert_eq!(outcome, ConcretizeOutcome::Spurious);
        // The corridor collapses at cycle 0 (arm resets low), so the
        // random stage gives up after one batch.
        assert_eq!(stats.random_batches, 1);
    }

    #[test]
    fn empty_trace_is_unknown() {
        let (n, p, _) = design();
        let (outcome, stats) = attempt(
            &n,
            &property_cube(&p),
            &Trace::new(),
            &ConcretizeOptions::default(),
        );
        assert_eq!(outcome, ConcretizeOutcome::Unknown);
        assert_eq!(stats, ConcretizeStats::default());
    }

    /// One engine serving a run of attempts answers each exactly as a
    /// fresh engine would: a random hit, a miss whose corridor collapses
    /// before the ATPG finds the trace, and a spurious trace, in an order
    /// that builds the packed simulator, the replay simulator and the ATPG
    /// at different attempts.
    #[test]
    fn one_engine_per_iteration_matches_a_fresh_engine_per_attempt() {
        // The watchdog plus a second one behind a 16-input key: a corridor
        // that needs `key` high at cycle 1 needs all 16 key inputs high at
        // cycle 0, which no lane of a 64-pattern batch draws.
        let (mut n, p, [go, _, arm, w]) = design();
        let keys: Vec<SignalId> = (0..16).map(|k| n.add_input(&format!("k{k}"))).collect();
        let all = n.add_gate("all", GateOp::And, &keys);
        let key = n.add_register("key", Some(false));
        n.set_register_next(key, all).unwrap();
        let open = n.add_gate("open", GateOp::And, &[go, key]);
        let v = n.add_register("v", Some(false));
        let vor = n.add_gate("vor", GateOp::Or, &[v, open]);
        n.set_register_next(v, vor).unwrap();
        n.validate().unwrap();
        let watchdog = property_cube(&p);
        let vault: Cube = [(v, true)].into_iter().collect();

        let attempts = [
            (&vault, infeasible_trace(go, key, v)),
            (&watchdog, abstract_trace(go, arm, w)),
            (&vault, abstract_trace(go, key, v)),
            (&watchdog, infeasible_trace(go, arm, w)),
            (&watchdog, abstract_trace(go, arm, w)),
            (&vault, abstract_trace(go, key, v)),
        ];
        let options = ConcretizeOptions::default();
        let mut shared = Concretizer::new(&n, options.clone());
        let mut outcomes = Vec::new();
        for (target, t) in &attempts {
            let reused = shared.concretize(target, t).unwrap();
            assert_eq!(reused, attempt(&n, target, t, &options));
            outcomes.push(reused);
        }
        // The spurious traces: both corridors collapse at cycle 0.
        for k in [0, 3] {
            assert_eq!(outcomes[k].0, ConcretizeOutcome::Spurious);
            assert_eq!(outcomes[k].1.random_batches, 1);
        }
        // The random hits.
        for k in [1, 4] {
            assert!(matches!(outcomes[k].0, ConcretizeOutcome::Falsified(_)));
            assert!(outcomes[k].1.random_falsified);
        }
        // The key corridor collapses in the first batch; the ATPG finds
        // the trace.
        for k in [2, 5] {
            let (outcome, stats) = &outcomes[k];
            let ConcretizeOutcome::Falsified(trace) = outcome else {
                panic!("expected falsification, got {outcome:?}");
            };
            assert!(validate_trace_cube(&n, &vault, trace).unwrap());
            assert!(!stats.random_falsified);
            assert_eq!(stats.random_batches, 1);
            assert!(stats.atpg_decisions > 0);
        }
    }

    #[test]
    fn validate_rejects_wrong_traces() {
        let (n, p, [_, _, _, w]) = design();
        // A trace that never asserts the watchdog.
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(w, false)].into_iter().collect(),
            inputs: Cube::new(),
        });
        assert!(!validate_trace(&n, &p, &t).unwrap());
        assert!(!validate_trace(&n, &p, &Trace::new()).unwrap());
    }

    #[test]
    fn validate_uses_unknown_resets_from_trace() {
        // Register with unknown reset: the trace may choose its value.
        let mut n = Netlist::new("x");
        let r = n.add_register("r", None);
        n.set_register_next(r, r).unwrap();
        n.validate().unwrap();
        let p = Property::never(&n, "r1", r);
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(r, true)].into_iter().collect(),
            inputs: Cube::new(),
        });
        assert!(validate_trace(&n, &p, &t).unwrap());
    }

    /// Satellite fix: a malformed netlist must surface as a
    /// `Phase::Concretize`-stamped error instead of silently reporting the
    /// trace as invalid.
    #[test]
    fn validate_propagates_netlist_errors() {
        // Register with no next-state function: fails validation.
        let mut n = Netlist::new("bad");
        let r = n.add_register("r", Some(false));
        let p = Property::never(&n, "p", r);
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(r, true)].into_iter().collect(),
            inputs: Cube::new(),
        });
        match validate_trace(&n, &p, &t) {
            Err(crate::Error::Netlist {
                phase: crate::Phase::Concretize,
                ..
            }) => {}
            other => panic!("expected Concretize-phase netlist error, got {other:?}"),
        }
    }
}
