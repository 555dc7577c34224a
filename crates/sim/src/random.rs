//! The random-simulation concretization engine.
//!
//! The cheapest engine in the concretization staging order: before paying
//! sequential-ATPG cost on an abstract error trace, replay the trace's
//! per-cycle cubes as *constraints* on the packed simulator and fill every
//! unconstrained input with 64-wide deterministic random vectors. Any lane
//! that lands in the target cube at the final cycle is a concrete
//! counterexample, recovered for a fraction of the ATPG cost. A batch
//! whose lanes all fall off the guidance corridor ends the attempt, so a
//! spurious trace costs one batch before the ATPG takes over.

use rfn_govern::Budget;
use rfn_netlist::{Cube, Netlist, NetlistError, SignalId, Trace, TraceStep};
use rfn_trace::TraceCtx;

use crate::packed::{PackedSim, PackedTv};
use crate::{Simulator, Tv};

/// A small deterministic xorshift64* pseudo-random generator.
///
/// Quality is ample for simulation vectors, and determinism is the point:
/// the same seed yields the same patterns on every run and at every
/// portfolio thread count, so verdicts and traces are reproducible.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator. A zero seed (the xorshift fixed point) is
    /// remapped to a fixed non-zero constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Options for [`random_concretize`].
#[derive(Clone, Debug)]
pub struct RandomSimOptions {
    /// Most 64-pattern batches one attempt simulates (0 disables the engine
    /// entirely). An attempt stops earlier on a hit, or after the first
    /// missing batch whose corridor collapsed (see [`random_concretize`]).
    pub batches: usize,
    /// Seed for the deterministic pattern generator.
    pub seed: u64,
    /// Shared resource budget, polled at every packed batch boundary: a
    /// cancelled or expired budget ends the attempt early with a miss.
    pub budget: Budget,
    /// Trace context the `sim.random` span is emitted into.
    pub trace: TraceCtx,
}

impl Default for RandomSimOptions {
    fn default() -> Self {
        RandomSimOptions {
            batches: 64,
            seed: 0x5EED_0001,
            budget: Budget::unlimited(),
            trace: TraceCtx::disabled(),
        }
    }
}

impl RandomSimOptions {
    /// Sets the batch cap.
    #[must_use]
    pub fn with_batches(mut self, batches: usize) -> Self {
        self.batches = batches;
        self
    }

    /// Sets the pattern-generator seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a shared resource budget (replacing any previous one).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }
}

/// Statistics of one [`random_concretize`] attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RandomSimStats {
    /// Batches actually simulated (stops early on a hit or a collapsed
    /// corridor).
    pub batches: u64,
    /// Patterns simulated (64 per batch).
    pub patterns: u64,
    /// Lanes that satisfied the target cube at the final cycle.
    pub hits: u64,
    /// Packed gate evaluations spent (each covers 64 lanes).
    pub gate_evals: u64,
}

/// Tries to concretize an abstract error trace by guided random simulation
/// on the caller's simulators.
///
/// `guidance` holds one cube per trace cycle (the abstract step's state and
/// input cubes merged). Primary-input literals are driven exactly;
/// register literals with an unknown reset value are forced at cycle 0 (any
/// concrete value is a legal reset); everything else unconstrained is filled
/// with fresh random words each batch. A lane whose final-cycle values
/// satisfy every literal of `target` is a concrete counterexample: the lane
/// is replayed on the scalar `replay` simulator to rebuild (and
/// independently validate) the full [`Trace`]. `replay` is built over
/// `sim`'s netlist at the first hit if the caller has none yet, and left in
/// place for the caller's next attempt.
///
/// Lanes are *not* required to stay inside the guidance corridor — any
/// pattern that reaches the target is a genuine counterexample. The
/// corridor decides when to give up instead: a missing batch in which no
/// lane kept to the guidance's register literals at some cycle ends the
/// attempt, because further batches draw from the same distribution and
/// the sequential ATPG, which reasons about the corridor, is the better
/// next step. Only a miss that kept some lane on the corridor to the last
/// cycle tries the next batch, up to `options.batches`.
///
/// Both simulators are reset before use, so an attempt's result does not
/// depend on earlier attempts on the same simulators.
///
/// Emits one `sim.random` span (fields: `batches`, `patterns`, `hits`,
/// `gate_evals`, `outcome`) into `options.trace`.
///
/// # Errors
///
/// Returns the underlying validation error if the scalar simulator cannot
/// be built over the netlist.
pub fn random_concretize<'n>(
    sim: &mut PackedSim<'n>,
    replay: &mut Option<Simulator<'n>>,
    target: &Cube,
    guidance: &[Cube],
    options: &RandomSimOptions,
) -> Result<(Option<Trace>, RandomSimStats), NetlistError> {
    let mut span = options.trace.span("sim.random");
    let evals_before = sim.counters().gate_evals;
    let (result, mut stats) = random_concretize_inner(sim, replay, target, guidance, options)?;
    stats.gate_evals = sim.counters().gate_evals - evals_before;
    if options.trace.is_enabled() {
        span.record("batches", stats.batches);
        span.record("patterns", stats.patterns);
        span.record("hits", stats.hits);
        span.record("gate_evals", stats.gate_evals);
        span.record("outcome", if result.is_some() { "hit" } else { "miss" });
    }
    Ok((result, stats))
}

fn random_concretize_inner<'n>(
    sim: &mut PackedSim<'n>,
    replay: &mut Option<Simulator<'n>>,
    target: &Cube,
    guidance: &[Cube],
    options: &RandomSimOptions,
) -> Result<(Option<Trace>, RandomSimStats), NetlistError> {
    let mut stats = RandomSimStats::default();
    let depth = guidance.len();
    if depth == 0 || options.batches == 0 || target.is_empty() {
        return Ok((None, stats));
    }
    let netlist = sim.netlist();
    let mut rng = XorShift64::new(options.seed);

    // Registers whose reset value is a free choice and unconstrained by the
    // guidance: randomized each batch alongside the free inputs.
    let free_init: Vec<SignalId> = netlist
        .registers()
        .iter()
        .copied()
        .filter(|&r| netlist.register_init(r).is_none() && guidance[0].get(r).is_none())
        .collect();

    for _ in 0..options.batches {
        // Batch boundaries are the packed engine's natural governance
        // checkpoint: an exhausted budget turns the attempt into a miss
        // (the concretization ladder then falls through to its next stage
        // or the loop reports the exhaustion).
        if options.budget.check().is_err() {
            break;
        }
        stats.batches += 1;
        stats.patterns += 64;
        sim.reset();
        // Guidance-pinned unknown resets take the abstract trace's word;
        // free unknown resets take a fresh random word (recorded for the
        // scalar replay of a hitting lane).
        for (r, v) in guidance[0].iter() {
            if netlist.is_register(r) && netlist.register_init(r).is_none() {
                sim.set(r, PackedTv::splat(Tv::from(v)));
            }
        }
        let mut init_words: Vec<(SignalId, u64)> = Vec::with_capacity(free_init.len());
        for &r in &free_init {
            let w = rng.next_u64();
            sim.set(r, PackedTv::from_bits(w));
            init_words.push((r, w));
        }
        // Lanes whose register values have contradicted no guidance literal
        // so far: the corridor.
        let mut alive = !0u64;
        let mut input_words: Vec<Vec<u64>> = Vec::with_capacity(depth);
        for (t, cube) in guidance.iter().enumerate() {
            for (s, v) in cube.iter() {
                if netlist.is_register(s) {
                    alive &= sim.value(s).mask_of(v) | !sim.value(s).known_mask();
                }
            }
            // Drive every primary input: pinned by guidance or random.
            let mut words = Vec::new();
            for &pi in netlist.inputs() {
                match cube.get(pi) {
                    Some(v) => sim.set(pi, PackedTv::splat(Tv::from(v))),
                    None => {
                        let w = rng.next_u64();
                        sim.set(pi, PackedTv::from_bits(w));
                        words.push(w);
                    }
                }
            }
            input_words.push(words);
            sim.step_comb();
            if t + 1 < depth {
                sim.latch();
            }
        }
        let mut hit = !0u64;
        for (s, v) in target.iter() {
            hit &= sim.value(s).mask_of(v);
        }
        if hit != 0 {
            stats.hits += u64::from(hit.count_ones());
            let lane = hit.trailing_zeros() as usize;
            let trace = rebuild_trace(
                netlist,
                replay,
                target,
                guidance,
                &init_words,
                &input_words,
                lane,
            )?;
            if trace.is_some() {
                return Ok((trace, stats));
            }
            // A packed/scalar disagreement would be a kernel bug; stay
            // sound and treat the batch as a miss.
            debug_assert!(false, "packed hit failed scalar replay");
        }
        if alive == 0 {
            // The corridor collapsed: stop drawing patterns.
            break;
        }
    }
    Ok((None, stats))
}

/// Replays one hitting lane on the scalar simulator, rebuilding the full
/// concrete trace (register state plus all input values per cycle). The
/// scalar replay doubles as an independent validation of the packed hit:
/// returns `None` if the target does not hold at the final cycle.
fn rebuild_trace<'n>(
    netlist: &'n Netlist,
    replay: &mut Option<Simulator<'n>>,
    target: &Cube,
    guidance: &[Cube],
    init_words: &[(SignalId, u64)],
    input_words: &[Vec<u64>],
    lane: usize,
) -> Result<Option<Trace>, NetlistError> {
    let bit = |w: u64| (w >> lane) & 1 == 1;
    let depth = guidance.len();
    let sim = match replay {
        Some(sim) => sim,
        empty => empty.insert(Simulator::new(netlist)?),
    };
    sim.reset();
    for (r, v) in guidance[0].iter() {
        if netlist.is_register(r) && netlist.register_init(r).is_none() {
            sim.set(r, Tv::from(v));
        }
    }
    for &(r, w) in init_words {
        sim.set(r, Tv::from(bit(w)));
    }
    let mut trace = Trace::new();
    for (t, cube) in guidance.iter().enumerate() {
        let state: Cube = netlist
            .registers()
            .iter()
            .filter_map(|&r| sim.value(r).to_bool().map(|v| (r, v)))
            .collect();
        let mut free = input_words[t].iter();
        let inputs: Cube = netlist
            .inputs()
            .iter()
            .map(|&pi| match cube.get(pi) {
                Some(v) => (pi, v),
                None => (pi, bit(*free.next().expect("one word per free input"))),
            })
            .collect();
        trace.push(TraceStep {
            state,
            inputs: inputs.clone(),
        });
        if t + 1 < depth {
            sim.step(&inputs);
        } else {
            sim.apply_cube(&inputs);
            sim.step_comb();
        }
    }
    let ok = target
        .iter()
        .all(|(s, v)| sim.value(s).to_bool() == Some(v));
    Ok(ok.then_some(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// The watchdog design from the concretization tests: `w` latches once
    /// input `go` is high while `arm` (set from input `a`) is high.
    fn watchdog() -> (Netlist, [SignalId; 4]) {
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
        (n, [go, a, arm, w])
    }

    /// One attempt on fresh simulators.
    fn attempt(
        n: &Netlist,
        target: &Cube,
        guidance: &[Cube],
        opts: &RandomSimOptions,
    ) -> (Option<Trace>, RandomSimStats) {
        let mut sim = PackedSim::new(n).unwrap();
        random_concretize(&mut sim, &mut None, target, guidance, opts).unwrap()
    }

    #[test]
    fn pinned_corridor_hits_immediately() {
        let (n, [go, _, arm, w]) = watchdog();
        // Guidance pins the whole corridor: arm=1 and go=1 at cycle 1.
        let guidance: Vec<Cube> = vec![
            [(w, false)].into_iter().collect(),
            [(w, false), (go, true), (arm, true)].into_iter().collect(),
            [(w, true)].into_iter().collect(),
        ];
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions::default();
        let (trace, stats) = attempt(&n, &target, &guidance, &opts);
        let trace = trace.expect("pinned corridor must concretize");
        assert_eq!(trace.num_cycles(), 3);
        assert_eq!(stats.batches, 1, "first batch should hit");
        assert!(stats.hits > 0);
        // The rebuilt trace replays on the scalar engine.
        let mut sim = Simulator::new(&n).unwrap();
        assert!(sim.replay(&trace));
        assert_eq!(sim.value(w), Tv::One);
    }

    #[test]
    fn unconstrained_inputs_get_explored() {
        let (n, [_, _, _, w]) = watchdog();
        // No input pins at all: the engine must find go=1/a=1 on its own.
        let guidance: Vec<Cube> = vec![Cube::new(), Cube::new(), Cube::new()];
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions::default();
        let (trace, stats) = attempt(&n, &target, &guidance, &opts);
        assert!(trace.is_some(), "64-wide random should hit w=1 in depth 3");
        assert!(stats.hits > 0);
    }

    /// A miss whose corridor never collapses tries every batch up to the
    /// cap: with no register literals in the guidance, every lane stays on
    /// the corridor.
    #[test]
    fn open_corridor_miss_runs_every_batch() {
        let (n, [go, _, _, w]) = watchdog();
        // go pinned low: `fire` can never pulse, so w stays 0.
        let guidance: Vec<Cube> = vec![
            [(go, false)].into_iter().collect(),
            [(go, false)].into_iter().collect(),
        ];
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions {
            batches: 4,
            ..RandomSimOptions::default()
        };
        let (trace, stats) = attempt(&n, &target, &guidance, &opts);
        assert!(trace.is_none());
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.patterns, 4 * 64);
        assert_eq!(stats.hits, 0);
        assert!(stats.gate_evals > 0);
    }

    /// A miss whose corridor collapses stops after one batch, however high
    /// the cap.
    #[test]
    fn collapsed_corridor_miss_stops_after_one_batch() {
        let (n, [_, a, arm, w]) = watchdog();
        // Guidance claims arm=1 at cycle 1, but `a` is pinned low, so no
        // lane can keep arm high: the corridor collapses at cycle 1.
        let guidance: Vec<Cube> = vec![
            [(a, false)].into_iter().collect(),
            [(arm, true), (a, false)].into_iter().collect(),
            [(w, true)].into_iter().collect(),
        ];
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions {
            batches: 4,
            ..RandomSimOptions::default()
        };
        let (trace, stats) = attempt(&n, &target, &guidance, &opts);
        assert!(trace.is_none());
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.patterns, 64);
        assert_eq!(stats.hits, 0);
    }

    /// Simulators shared across attempts give each attempt the result and
    /// the counters of fresh ones: a miss, a hit that builds the scalar
    /// replay simulator, and a hit that reuses it.
    #[test]
    fn reused_simulators_match_fresh_ones() {
        let (n, [go, a, arm, w]) = watchdog();
        let target: Cube = [(w, true)].into_iter().collect();
        let collapsed: Vec<Cube> = vec![
            [(a, false)].into_iter().collect(),
            [(arm, true), (a, false)].into_iter().collect(),
            [(w, true)].into_iter().collect(),
        ];
        let pinned: Vec<Cube> = vec![
            [(w, false)].into_iter().collect(),
            [(w, false), (go, true), (arm, true)].into_iter().collect(),
            [(w, true)].into_iter().collect(),
        ];
        let free: Vec<Cube> = vec![Cube::new(), Cube::new(), Cube::new()];
        let opts = RandomSimOptions::default();
        let mut sim = PackedSim::new(&n).unwrap();
        let mut replay = None;
        for guidance in [&collapsed, &pinned, &free] {
            let reused =
                random_concretize(&mut sim, &mut replay, &target, guidance, &opts).unwrap();
            let fresh = attempt(&n, &target, guidance, &opts);
            assert_eq!(reused.1, fresh.1);
            assert_eq!(
                reused.0.map(|t| format!("{t:?}")),
                fresh.0.map(|t| format!("{t:?}"))
            );
        }
        assert!(replay.is_some(), "the first hit built the replay simulator");
    }

    #[test]
    fn unknown_resets_follow_guidance_or_randomize() {
        // r has no reset value; guidance pins it high at cycle 0 and the
        // target requires it at cycle 0 (depth 1).
        let mut n = Netlist::new("x");
        let r = n.add_register("r", None);
        n.set_register_next(r, r).unwrap();
        n.validate().unwrap();
        let target: Cube = [(r, true)].into_iter().collect();
        let guidance: Vec<Cube> = vec![[(r, true)].into_iter().collect()];
        let opts = RandomSimOptions::default();
        let (trace, _) = attempt(&n, &target, &guidance, &opts);
        let trace = trace.expect("pinned unknown reset must hit");
        assert_eq!(trace.steps()[0].state.get(r), Some(true));
        // Unpinned: random reset words still find r=1 quickly.
        let (trace, _) = attempt(&n, &target, &[Cube::new()], &opts);
        assert!(trace.is_some());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let (n, [_, _, _, w]) = watchdog();
        let guidance: Vec<Cube> = vec![Cube::new(), Cube::new(), Cube::new()];
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions {
            seed: 42,
            ..RandomSimOptions::default()
        };
        let (t1, s1) = attempt(&n, &target, &guidance, &opts);
        let (t2, s2) = attempt(&n, &target, &guidance, &opts);
        assert_eq!(s1, s2);
        assert_eq!(
            t1.map(|t| format!("{t:?}")),
            t2.map(|t| format!("{t:?}")),
            "same seed must produce the identical trace"
        );
    }

    #[test]
    fn empty_guidance_or_zero_batches_is_a_cheap_miss() {
        let (n, [_, _, _, w]) = watchdog();
        let target: Cube = [(w, true)].into_iter().collect();
        let opts = RandomSimOptions::default();
        let (t, s) = attempt(&n, &target, &[], &opts);
        assert!(t.is_none());
        assert_eq!(s.patterns, 0);
        let zero = RandomSimOptions {
            batches: 0,
            ..RandomSimOptions::default()
        };
        let guidance: Vec<Cube> = vec![Cube::new()];
        let (t, s) = attempt(&n, &target, &guidance, &zero);
        assert!(t.is_none());
        assert_eq!(s.patterns, 0);
    }
}
