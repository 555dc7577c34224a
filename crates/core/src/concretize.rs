//! Step 3: searching for an error trace on the original design, staging
//! engines cheap-to-expensive: guided random simulation first, trace-guided
//! sequential ATPG second.

use rfn_atpg::{AtpgOutcome, SequentialAtpg};
use rfn_netlist::{Cube, Netlist, Property, Trace};
use rfn_sim::{random_concretize, PackedSim, RandomSimOptions, Tv};

use crate::RfnError;

/// Options for the staged concretization of Step 3.
#[derive(Clone, Debug)]
pub struct ConcretizeOptions {
    /// Limits for the trace-guided sequential ATPG (the expensive stage).
    pub atpg: rfn_atpg::AtpgOptions,
    /// The random-simulation engine (the cheap stage, tried first);
    /// `sim.batches = 0` disables it.
    pub sim: RandomSimOptions,
    /// When the random stage misses, bias the ATPG's objective order
    /// fail-first by the stage's per-cycle survivor counts (frames where
    /// random patterns fell off the guidance corridor are attacked first).
    /// Ignored if `atpg.frame_priority` is already set by the caller.
    pub bias_frame_order: bool,
}

impl Default for ConcretizeOptions {
    fn default() -> Self {
        ConcretizeOptions {
            atpg: rfn_atpg::AtpgOptions::default(),
            sim: RandomSimOptions::default(),
            bias_frame_order: true,
        }
    }
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
}

/// Result of a concretization attempt.
#[derive(Clone, Debug)]
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

/// Tries to turn an abstract error trace into a real error trace of the
/// original design (the paper's Step 3).
///
/// The abstract trace provides both the search depth (the real shortest
/// error trace can only be longer) and per-cycle constraint cubes that guide
/// the engines — including the trace's pseudo-input assignments, which
/// become register constraints on the original design.
///
/// Engines run cheap to expensive: guided random simulation
/// ([`rfn_sim::random_concretize`]) first; if it misses, trace-guided
/// sequential ATPG with its objective order biased by the random stage's
/// per-cycle survivor counts.
///
/// Every `Falsified` trace has been replayed with concrete simulation before
/// being returned, so falsification is sound even though the search is
/// heuristic.
///
/// # Errors
///
/// Propagates structural netlist errors.
pub fn concretize(
    netlist: &Netlist,
    property: &Property,
    abstract_trace: &Trace,
    options: &ConcretizeOptions,
) -> Result<ConcretizeOutcome, RfnError> {
    concretize_with_stats(netlist, property, abstract_trace, options).map(|(o, _)| o)
}

/// Like [`concretize`], additionally returning the per-engine effort
/// statistics of the attempt.
///
/// # Errors
///
/// Propagates structural netlist errors.
pub fn concretize_with_stats(
    netlist: &Netlist,
    property: &Property,
    abstract_trace: &Trace,
    options: &ConcretizeOptions,
) -> Result<(ConcretizeOutcome, ConcretizeStats), RfnError> {
    let target: Cube = [(property.signal, property.value)].into_iter().collect();
    concretize_cube_with_stats(netlist, &target, abstract_trace, options)
}

/// Like [`concretize`], but with an arbitrary target cube checked at the
/// final cycle (the coverage-analysis mode targets coverage-state cubes).
///
/// # Errors
///
/// Propagates structural netlist errors.
pub fn concretize_cube(
    netlist: &Netlist,
    target: &Cube,
    abstract_trace: &Trace,
    options: &ConcretizeOptions,
) -> Result<ConcretizeOutcome, RfnError> {
    concretize_cube_with_stats(netlist, target, abstract_trace, options).map(|(o, _)| o)
}

/// Like [`concretize_cube`], additionally returning the per-engine effort
/// statistics of the attempt.
///
/// # Errors
///
/// Propagates structural netlist errors.
pub fn concretize_cube_with_stats(
    netlist: &Netlist,
    target: &Cube,
    abstract_trace: &Trace,
    options: &ConcretizeOptions,
) -> Result<(ConcretizeOutcome, ConcretizeStats), RfnError> {
    let mut stats = ConcretizeStats::default();
    if abstract_trace.is_empty() {
        return Ok((ConcretizeOutcome::Unknown, stats));
    }
    let depth = abstract_trace.num_cycles();
    // Guidance: each abstract step's state and input cubes merged. All
    // abstract-model signals are signals of the original design (pseudo-input
    // literals become register constraints).
    let mut guidance: Vec<Cube> = Vec::with_capacity(depth);
    for step in abstract_trace.steps() {
        let mut cube = step.state.clone();
        if cube.merge(&step.inputs).is_err() {
            // State and input cubes of a well-formed trace are disjoint; a
            // conflict means the trace is internally inconsistent.
            return Ok((ConcretizeOutcome::Spurious, stats));
        }
        guidance.push(cube);
    }

    // Stage 1: guided random simulation — a few thousand packed patterns
    // along the corridor cost a fraction of one ATPG search.
    let mut survivors = Vec::new();
    if options.sim.batches > 0 {
        let (found, rstats) = random_concretize(netlist, target, &guidance, &options.sim)
            .map_err(|e| RfnError::at(crate::Phase::Concretize, e))?;
        stats.random_batches = rstats.batches;
        stats.random_patterns = rstats.patterns;
        stats.random_hits = rstats.hits;
        stats.random_gate_evals = rstats.gate_evals;
        survivors = rstats.survivors;
        if let Some(trace) = found {
            // The hitting lane was already replayed (and thereby validated)
            // on the scalar reference simulator during trace reconstruction.
            stats.random_falsified = true;
            return Ok((ConcretizeOutcome::Falsified(trace), stats));
        }
    }

    // Stage 2: trace-guided sequential ATPG, attacking the frames with the
    // fewest random survivors — the hard frames — first.
    let mut atpg_options = options.atpg.clone();
    if options.bias_frame_order && atpg_options.frame_priority.is_empty() {
        atpg_options.frame_priority = survivors;
    }
    let atpg = SequentialAtpg::new(netlist, atpg_options)
        .map_err(|e| RfnError::at(crate::Phase::Concretize, e))?;
    let (outcome, astats) = atpg.find_trace_with_stats(depth, target, &guidance);
    stats.atpg_backtracks = astats.backtracks;
    stats.atpg_decisions = astats.decisions;
    let outcome = match outcome {
        AtpgOutcome::Satisfiable(trace) => {
            if validate_trace_cube(netlist, target, &trace)? {
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
    let target: Cube = [(property.signal, property.value)].into_iter().collect();
    validate_trace_cube(netlist, &target, trace)
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
    let mut sim = PackedSim::new(netlist).map_err(|e| RfnError::at(crate::Phase::Concretize, e))?;
    sim.reset();
    for (r, v) in replay_resets(netlist, &trace.steps()[0].state).iter() {
        sim.set_all(r, Tv::from(v));
    }
    for (i, step) in trace.steps().iter().enumerate() {
        // Drive every input: trace value if present, low otherwise.
        let mut inputs = Cube::new();
        for &pi in netlist.inputs() {
            let v = step.inputs.get(pi).unwrap_or(false);
            if inputs.insert(pi, v).is_err() {
                return Ok(false);
            }
        }
        if i + 1 < trace.num_cycles() {
            sim.step(&inputs);
        } else {
            sim.apply_cube(&inputs);
            sim.step_comb();
        }
    }
    Ok(target
        .iter()
        .all(|(s, v)| sim.lane(s, 0).to_bool() == Some(v)))
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

    #[test]
    fn guided_search_finds_real_trace() {
        let (n, p, [go, _, arm, w]) = design();
        let t = abstract_trace(go, arm, w);
        match concretize(&n, &p, &t, &ConcretizeOptions::default()).unwrap() {
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
        let (outcome, stats) = concretize_with_stats(&n, &p, &t, &options).unwrap();
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
        let (outcome, stats) = concretize_with_stats(&n, &p, &t, &options).unwrap();
        assert!(matches!(outcome, ConcretizeOutcome::Falsified(_)));
        assert!(!stats.random_falsified);
        assert_eq!(stats.random_patterns, 0);
    }

    #[test]
    fn infeasible_guidance_is_spurious() {
        let (n, p, [go, _, arm, w]) = design();
        // Claim the watchdog fires at cycle 1 already (impossible: arm resets
        // to 0, so fire=0 in cycle 0).
        let mut t = Trace::new();
        t.push(TraceStep {
            state: [(w, false)].into_iter().collect(),
            inputs: [(go, true), (arm, true)].into_iter().collect(),
        });
        t.push(TraceStep {
            state: [(w, true)].into_iter().collect(),
            inputs: Cube::new(),
        });
        let _ = arm;
        match concretize(&n, &p, &t, &ConcretizeOptions::default()).unwrap() {
            ConcretizeOutcome::Spurious => {}
            other => panic!("expected spurious, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_is_unknown() {
        let (n, p, _) = design();
        assert!(matches!(
            concretize(&n, &p, &Trace::new(), &ConcretizeOptions::default()).unwrap(),
            ConcretizeOutcome::Unknown
        ));
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
