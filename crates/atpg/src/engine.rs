//! The PODEM-style justification engine over time-frame-expanded circuits.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rfn_govern::{Budget, GovPhase};
use rfn_netlist::{AbstractView, Cube, NetKind, Netlist, NetlistError, SignalId, Trace, TraceStep};
use rfn_sim::Tv;
use rfn_trace::TraceCtx;

use crate::scoap::Scoap;
use crate::scope::{Role, Scope};

/// Resource limits and search configuration for the ATPG engines.
///
/// The legacy `time_limit` knob is a view over the shared [`Budget`]: set
/// it with [`AtpgOptions::with_time_limit`] (or install a whole budget with
/// [`AtpgOptions::with_budget`]) and read it back through
/// [`AtpgOptions::time_limit`]. Besides the deadline, the budget supplies
/// cooperative cancellation (polled at every backtrack point and decision
/// batch) and an optional cross-call backtrack allowance drained by every
/// `justify` run sharing the budget.
#[derive(Clone, Debug)]
pub struct AtpgOptions {
    /// Maximum number of backtracks before aborting (per `justify` call; the
    /// budget's backtrack allowance additionally bounds the total across
    /// calls).
    pub max_backtracks: u64,
    /// Maximum number of decisions before aborting.
    pub max_decisions: u64,
    /// Shared resource budget: wall-clock deadline (with the quota of
    /// [`AtpgOptions::phase`]), cancellation and backtrack allowance.
    pub budget: Budget,
    /// Governance phase this engine invocation is charged to; selects which
    /// soft quota of the budget applies. Defaults to
    /// [`GovPhase::Concretize`] (sequential concretization); the hybrid
    /// engine's combinational calls use [`GovPhase::Hybrid`].
    pub phase: GovPhase,
    /// If `true`, initial register values are decision variables instead of
    /// being anchored to the reset state (used by combinational justification
    /// on abstract models).
    pub free_initial_state: bool,
    /// Structured-event context; every `justify` call emits one
    /// `atpg.justify` point event with its effort counters. Disabled by
    /// default (a single pointer check per call).
    pub trace: TraceCtx,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            max_backtracks: 50_000,
            max_decisions: 2_000_000,
            budget: Budget::unlimited(),
            phase: GovPhase::Concretize,
            free_initial_state: false,
            trace: TraceCtx::disabled(),
        }
    }
}

impl AtpgOptions {
    /// Sets the per-call backtrack cap.
    #[must_use]
    pub fn with_max_backtracks(mut self, backtracks: u64) -> Self {
        self.max_backtracks = backtracks;
        self
    }

    /// Sets the per-call decision cap.
    #[must_use]
    pub fn with_max_decisions(mut self, decisions: u64) -> Self {
        self.max_decisions = decisions;
        self
    }

    /// Sets the wall-clock limit (a view over [`AtpgOptions::budget`]; the
    /// deadline is re-anchored at this call).
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.budget = self.budget.restarted().with_wall_clock(limit);
        self
    }

    /// Installs a shared resource budget (replacing any previous one).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the governance phase this invocation is charged to.
    #[must_use]
    pub fn with_phase(mut self, phase: GovPhase) -> Self {
        self.phase = phase;
        self
    }

    /// Frees or anchors initial register values.
    #[must_use]
    pub fn with_free_initial_state(mut self, free: bool) -> Self {
        self.free_initial_state = free;
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// The wall-clock limit of the governing budget, if any (the legacy
    /// `time_limit` field as a view).
    pub fn time_limit(&self) -> Option<Duration> {
        self.budget.wall_clock()
    }
}

/// Outcome of a justification run: the paper's three-valued ATPG contract.
#[derive(Clone, Debug)]
pub enum AtpgOutcome {
    /// All constraint cubes are simultaneously satisfiable; the witness trace
    /// drives the design through them.
    Satisfiable(Trace),
    /// The constraints are definitely unsatisfiable at this depth.
    Unsatisfiable,
    /// A resource limit was exceeded before a definite answer.
    Aborted,
}

impl AtpgOutcome {
    /// Convenience accessor for the witness trace.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            AtpgOutcome::Satisfiable(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the outcome is [`AtpgOutcome::Satisfiable`].
    pub fn is_sat(&self) -> bool {
        matches!(self, AtpgOutcome::Satisfiable(_))
    }

    /// Whether the outcome is [`AtpgOutcome::Unsatisfiable`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, AtpgOutcome::Unsatisfiable)
    }
}

/// Counters describing the effort a justification run spent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Decisions made.
    pub decisions: u64,
    /// Backtracks performed.
    pub backtracks: u64,
    /// Value assignments propagated.
    pub implications: u64,
}

/// The generic justification engine over a [`Scope`].
///
/// Most callers use the [`SequentialAtpg`] or [`CombinationalAtpg`] wrappers;
/// the raw engine is exposed for the hybrid engine, which justifies cubes on
/// abstract-model scopes.
#[derive(Debug)]
pub struct AtpgEngine<'n> {
    scope: Scope<'n>,
    scoap: Scoap,
    options: AtpgOptions,
}

impl<'n> AtpgEngine<'n> {
    /// Creates an engine over an explicit scope.
    pub fn new(scope: Scope<'n>, options: AtpgOptions) -> Self {
        let scoap = Scoap::compute(&scope);
        AtpgEngine {
            scope,
            scoap,
            options,
        }
    }

    /// The engine's scope.
    pub fn scope(&self) -> &Scope<'n> {
        &self.scope
    }

    /// Justifies one constraint cube per cycle: `constraints[t]` must hold
    /// during cycle `t` (over register outputs = state at `t`, primary
    /// inputs = inputs applied at `t`, and any scope gate = combinational
    /// value at `t`). The search depth is `constraints.len()` cycles.
    ///
    /// Returns the outcome together with effort statistics.
    ///
    /// # Panics
    ///
    /// Panics if a constraint mentions a signal outside the scope.
    pub fn justify(&self, constraints: &[Cube]) -> (AtpgOutcome, AtpgStats) {
        let frames = constraints.len();
        if frames == 0 {
            return (AtpgOutcome::Satisfiable(Trace::new()), AtpgStats::default());
        }
        let mut search = Search::new(self, frames);
        let (outcome, stats) = match search.setup(constraints) {
            Ok(()) => (search.run(), search.stats),
            Err(Conflict) => (AtpgOutcome::Unsatisfiable, search.stats),
        };
        if self.options.trace.is_enabled() {
            let label = match &outcome {
                AtpgOutcome::Satisfiable(_) => "sat",
                AtpgOutcome::Unsatisfiable => "unsat",
                AtpgOutcome::Aborted => "aborted",
            };
            let mut fields = vec![
                ("frames".to_owned(), frames.into()),
                ("outcome".to_owned(), label.into()),
                ("decisions".to_owned(), stats.decisions.into()),
                ("backtracks".to_owned(), stats.backtracks.into()),
                ("implications".to_owned(), stats.implications.into()),
            ];
            // `budget.*` governance fields: only emitted when the relevant
            // dimension is bounded, so unbudgeted traces stay deterministic.
            if let Some(remaining) = self.options.budget.remaining() {
                fields.push((
                    "budget.remaining_ms".to_owned(),
                    (remaining.as_millis() as u64).into(),
                ));
            }
            if let Some(left) = self.options.budget.backtracks_remaining() {
                fields.push(("budget.backtracks_remaining".to_owned(), left.into()));
            }
            self.options.trace.point("atpg.justify", fields);
        }
        (outcome, stats)
    }
}

/// Sequential ATPG over a whole design: searches for a trace from the reset
/// state satisfying per-cycle constraint cubes (Step 3 of the RFN loop).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct SequentialAtpg<'n> {
    engine: AtpgEngine<'n>,
}

impl<'n> SequentialAtpg<'n> {
    /// Creates a sequential engine over the whole design.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn new(netlist: &'n Netlist, options: AtpgOptions) -> Result<Self, NetlistError> {
        Ok(SequentialAtpg {
            engine: AtpgEngine::new(Scope::whole_design(netlist)?, options),
        })
    }

    /// Creates a sequential engine over an abstract model (used by the greedy
    /// refinement minimizer to test trace satisfiability on candidate
    /// abstractions).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn over_view(
        netlist: &'n Netlist,
        view: &AbstractView,
        options: AtpgOptions,
    ) -> Result<Self, NetlistError> {
        Ok(SequentialAtpg {
            engine: AtpgEngine::new(Scope::abstract_model(netlist, view)?, options),
        })
    }

    /// Searches for a `depth`-cycle trace from reset that reaches `target`
    /// (a cube over scope signals, checked at the final cycle), under
    /// per-cycle `guidance` constraint cubes (`guidance[t]` applies at cycle
    /// `t`; missing cycles are unconstrained).
    ///
    /// This is the paper's trace-guided search: the abstract error trace's
    /// cubes become guidance, its length becomes `depth`.
    pub fn find_trace(&self, depth: usize, target: &Cube, guidance: &[Cube]) -> AtpgOutcome {
        self.find_trace_with_stats(depth, target, guidance).0
    }

    /// Like [`SequentialAtpg::find_trace`], additionally returning the
    /// search's effort counters (used by the RFN loop's concretization
    /// statistics).
    pub fn find_trace_with_stats(
        &self,
        depth: usize,
        target: &Cube,
        guidance: &[Cube],
    ) -> (AtpgOutcome, AtpgStats) {
        assert!(depth > 0, "find_trace needs at least one cycle");
        let mut constraints = vec![Cube::new(); depth];
        for (t, g) in guidance.iter().enumerate() {
            if t < depth {
                constraints[t] = g.clone();
            }
        }
        if constraints[depth - 1].merge(target).is_err() {
            return (AtpgOutcome::Unsatisfiable, AtpgStats::default());
        }
        self.engine.justify(&constraints)
    }

    /// Justifies arbitrary per-cycle constraints; see [`AtpgEngine::justify`].
    pub fn justify(&self, constraints: &[Cube]) -> (AtpgOutcome, AtpgStats) {
        self.engine.justify(constraints)
    }

    /// The underlying engine.
    pub fn engine(&self) -> &AtpgEngine<'n> {
        &self.engine
    }
}

/// Combinational ATPG: single-frame justification where registers are free
/// decision variables (used by the hybrid engine to lift min-cut cubes to
/// no-cut cubes on abstract models).
#[derive(Debug)]
pub struct CombinationalAtpg<'n> {
    engine: AtpgEngine<'n>,
}

impl<'n> CombinationalAtpg<'n> {
    /// Creates a combinational engine over the whole design.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn new(netlist: &'n Netlist, mut options: AtpgOptions) -> Result<Self, NetlistError> {
        options.free_initial_state = true;
        Ok(CombinationalAtpg {
            engine: AtpgEngine::new(Scope::whole_design(netlist)?, options),
        })
    }

    /// Creates a combinational engine over an abstract model: pseudo-inputs
    /// and register outputs are all decision variables.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn over_view(
        netlist: &'n Netlist,
        view: &AbstractView,
        mut options: AtpgOptions,
    ) -> Result<Self, NetlistError> {
        options.free_initial_state = true;
        Ok(CombinationalAtpg {
            engine: AtpgEngine::new(Scope::abstract_model(netlist, view)?, options),
        })
    }

    /// Justifies a single cube over scope signals. On success the witness
    /// trace has exactly one step whose `state`/`inputs` cubes give the
    /// register and input assignment found.
    pub fn justify_cube(&self, target: &Cube) -> AtpgOutcome {
        self.engine.justify(std::slice::from_ref(target)).0
    }

    /// The underlying engine.
    pub fn engine(&self) -> &AtpgEngine<'n> {
        &self.engine
    }
}

struct Conflict;

struct Decision {
    fs: u32,
    value: bool,
    flipped: bool,
    trail_mark: usize,
}

struct Search<'a, 'n> {
    eng: &'a AtpgEngine<'n>,
    frames: usize,
    width: usize,
    values: Vec<Tv>,
    trail: Vec<u32>,
    base_mark: usize,
    decisions: Vec<Decision>,
    objectives: HashMap<u32, bool>,
    objective_list: Vec<(u32, bool)>,
    satisfied: usize,
    stats: AtpgStats,
    deadline: Option<Instant>,
    /// Set when the shared budget is exhausted (cancellation or a drained
    /// backtrack allowance); the main loop reports `Aborted`.
    exhausted: bool,
}

impl<'a, 'n> Search<'a, 'n> {
    fn new(eng: &'a AtpgEngine<'n>, frames: usize) -> Self {
        let width = eng.scope.netlist().num_signals();
        Search {
            eng,
            frames,
            width,
            values: vec![Tv::X; frames * width],
            trail: Vec::new(),
            base_mark: 0,
            decisions: Vec::new(),
            objectives: HashMap::new(),
            objective_list: Vec::new(),
            satisfied: 0,
            stats: AtpgStats::default(),
            deadline: eng.options.budget.deadline_for(eng.options.phase),
            exhausted: false,
        }
    }

    #[inline]
    fn fs(&self, frame: usize, s: SignalId) -> u32 {
        (frame * self.width + s.index()) as u32
    }

    #[inline]
    fn split(&self, fs: u32) -> (usize, SignalId) {
        let fs = fs as usize;
        (fs / self.width, SignalId::from_index(fs % self.width))
    }

    fn setup(&mut self, constraints: &[Cube]) -> Result<(), Conflict> {
        let scope = &self.eng.scope;
        let netlist = scope.netlist();
        // Register the objectives first so setup propagation checks them.
        for (t, cube) in constraints.iter().enumerate() {
            for (s, v) in cube.iter() {
                assert!(
                    scope.contains(s),
                    "constraint on signal {} outside the ATPG scope",
                    netlist.label(s)
                );
                let fs = self.fs(t, s);
                match self.objectives.insert(fs, v) {
                    Some(prev) if prev != v => return Err(Conflict),
                    Some(_) => {}
                    None => self.objective_list.push((fs, v)),
                }
            }
        }
        self.objective_list.sort_unstable();
        // Constants hold at every frame.
        let mut queue: Vec<u32> = Vec::new();
        for s in netlist.signals() {
            if let Role::Const(v) = scope.role(s) {
                for t in 0..self.frames {
                    let fs = self.fs(t, s);
                    self.assign(fs, v, &mut queue)?;
                }
            }
        }
        // Anchor initial register values unless the state is free.
        if !self.eng.options.free_initial_state {
            for &r in scope.registers() {
                if let Some(init) = netlist.register_init(r) {
                    let fs = self.fs(0, r);
                    self.assign(fs, init, &mut queue)?;
                }
            }
        }
        self.propagate(&mut queue)?;
        self.base_mark = self.trail.len();
        Ok(())
    }

    /// Sets a value, recording it on the trail and checking objectives.
    fn assign(&mut self, fs: u32, v: bool, queue: &mut Vec<u32>) -> Result<(), Conflict> {
        match self.values[fs as usize] {
            Tv::X => {
                self.values[fs as usize] = Tv::from(v);
                self.trail.push(fs);
                self.stats.implications += 1;
                if let Some(&target) = self.objectives.get(&fs) {
                    if target == v {
                        self.satisfied += 1;
                    } else {
                        return Err(Conflict);
                    }
                }
                queue.push(fs);
                Ok(())
            }
            cur => {
                if cur == Tv::from(v) {
                    Ok(())
                } else {
                    Err(Conflict)
                }
            }
        }
    }

    /// Event-driven forward implication from the queued assignments.
    fn propagate(&mut self, queue: &mut Vec<u32>) -> Result<(), Conflict> {
        let scope = &self.eng.scope;
        while let Some(fs) = queue.pop() {
            let (frame, s) = self.split(fs);
            // Same-frame gate fanouts.
            for &g in scope.fanouts(s) {
                let gfs = self.fs(frame, g);
                if self.values[gfs as usize] != Tv::X {
                    continue;
                }
                let v = self.eval_gate(frame, g);
                if let Some(b) = v.to_bool() {
                    self.assign(gfs, b, queue)?;
                }
            }
            // Cross-frame register fanouts.
            if frame + 1 < self.frames {
                let v = self.values[fs as usize];
                if let Some(b) = v.to_bool() {
                    for &r in scope.reg_fanouts(s) {
                        let rfs = self.fs(frame + 1, r);
                        self.assign(rfs, b, queue)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval_gate(&self, frame: usize, g: SignalId) -> Tv {
        let netlist = self.eng.scope.netlist();
        let NetKind::Gate { op, fanins } = netlist.kind(g) else {
            unreachable!("eval_gate on non-gate");
        };
        let mut vals: [Tv; 8] = [Tv::X; 8];
        if fanins.len() <= 8 {
            for (k, f) in fanins.iter().enumerate() {
                vals[k] = self.values[self.fs(frame, *f) as usize];
            }
            Tv::eval_gate(*op, &vals[..fanins.len()])
        } else {
            let vals: Vec<Tv> = fanins
                .iter()
                .map(|f| self.values[self.fs(frame, *f) as usize])
                .collect();
            Tv::eval_gate(*op, &vals)
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let fs = self.trail.pop().expect("trail non-empty");
            if let Some(&target) = self.objectives.get(&fs) {
                if self.values[fs as usize] == Tv::from(target) {
                    self.satisfied -= 1;
                }
            }
            self.values[fs as usize] = Tv::X;
        }
    }

    fn run(&mut self) -> AtpgOutcome {
        loop {
            if self.satisfied == self.objective_list.len() {
                return AtpgOutcome::Satisfiable(self.extract_witness());
            }
            if self.exhausted
                || self.stats.decisions >= self.eng.options.max_decisions
                || self.stats.backtracks >= self.eng.options.max_backtracks
            {
                return AtpgOutcome::Aborted;
            }
            if self.eng.options.budget.is_cancelled() {
                return AtpgOutcome::Aborted;
            }
            if let Some(deadline) = self.deadline {
                if self.stats.decisions.is_multiple_of(64) && Instant::now() > deadline {
                    return AtpgOutcome::Aborted;
                }
            }
            // Pick the first unsatisfied objective and backtrace it.
            let (ofs, want) = match self
                .objective_list
                .iter()
                .find(|&&(fs, _)| self.values[fs as usize] == Tv::X)
            {
                Some(&(fs, w)) => (fs, w),
                None => {
                    // All objectives are binary, but not all satisfied:
                    // an objective conflicted during setup propagation —
                    // handled there — or this is unreachable.
                    unreachable!("binary unsatisfied objective escaped conflict detection")
                }
            };
            let (dfs, dval) = self.backtrace(ofs, want);
            self.stats.decisions += 1;
            let mark = self.trail.len();
            self.decisions.push(Decision {
                fs: dfs,
                value: dval,
                flipped: false,
                trail_mark: mark,
            });
            if self.decide_and_propagate() {
                continue;
            }
            if !self.backtrack() {
                return AtpgOutcome::Unsatisfiable;
            }
        }
    }

    /// Applies the top decision; returns `false` on conflict.
    fn decide_and_propagate(&mut self) -> bool {
        let d = self.decisions.last().expect("decision exists");
        let (fs, v) = (d.fs, d.value);
        let mut queue = Vec::new();
        if self.assign(fs, v, &mut queue).is_err() {
            return false;
        }
        self.propagate(&mut queue).is_ok()
    }

    /// Chronological backtracking; returns `false` when the search space is
    /// exhausted (UNSAT).
    fn backtrack(&mut self) -> bool {
        loop {
            self.stats.backtracks += 1;
            if self.stats.backtracks >= self.eng.options.max_backtracks {
                // Let the main loop report Aborted.
                return true;
            }
            // Backtrack points are the search's natural governance
            // checkpoints: poll cancellation and draw from the budget's
            // shared backtrack allowance.
            if self.eng.options.budget.is_cancelled()
                || self.eng.options.budget.charge_backtracks(1).is_err()
            {
                self.exhausted = true;
                return true;
            }
            let Some(d) = self.decisions.last_mut() else {
                return false;
            };
            let mark = d.trail_mark;
            let flipped = d.flipped;
            if flipped {
                self.undo_to(mark);
                self.decisions.pop();
                continue;
            }
            d.flipped = true;
            d.value = !d.value;
            self.undo_to(mark);
            if self.decide_and_propagate() {
                return true;
            }
        }
    }

    fn backtrace(&self, fs: u32, want: bool) -> (u32, bool) {
        let scope = &self.eng.scope;
        let netlist = scope.netlist();
        let scoap = &self.eng.scoap;
        let (mut frame, mut s) = self.split(fs);
        let mut want = want;
        loop {
            debug_assert_eq!(
                self.values[self.fs(frame, s) as usize],
                Tv::X,
                "backtrace walked onto an assigned signal"
            );
            match scope.role(s) {
                Role::Input => return (self.fs(frame, s), want),
                Role::Register => {
                    if frame == 0 {
                        // Free initial value (free mode or unknown reset).
                        return (self.fs(0, s), want);
                    }
                    frame -= 1;
                    s = netlist.register_next(s);
                }
                Role::Gate => {
                    let NetKind::Gate { op, fanins } = netlist.kind(s) else {
                        unreachable!()
                    };
                    let (next_s, next_want) = self.backtrace_gate(frame, *op, fanins, want, scoap);
                    s = next_s;
                    want = next_want;
                }
                Role::Const(_) | Role::Outside => {
                    unreachable!("backtrace reached a constant or out-of-scope signal")
                }
            }
        }
    }

    fn backtrace_gate(
        &self,
        frame: usize,
        op: rfn_netlist::GateOp,
        fanins: &[SignalId],
        want: bool,
        scoap: &Scoap,
    ) -> (SignalId, bool) {
        use rfn_netlist::GateOp::*;
        let val = |f: SignalId| self.values[self.fs(frame, f) as usize];
        let x_fanins = || fanins.iter().copied().filter(|&f| val(f) == Tv::X);
        match op {
            Buf => (fanins[0], want),
            Not => (fanins[0], !want),
            And | Nand | Or | Nor => {
                // Normalize to "all fanins must be `all_val`" vs "one fanin
                // must be `one_val`".
                let (and_like, inverted) = match op {
                    And => (true, false),
                    Nand => (true, true),
                    Or => (false, false),
                    Nor => (false, true),
                    _ => unreachable!(),
                };
                let eff_want = want ^ inverted;
                let need_all = if and_like { eff_want } else { !eff_want };
                if need_all {
                    // All fanins must take the non-controlling value: attack
                    // the hardest X fanin first.
                    let v = and_like; // non-controlling value
                    let f = x_fanins()
                        .max_by_key(|&f| scoap.cost(f, v))
                        .expect("X output has an X fanin");
                    (f, v)
                } else {
                    // One controlling fanin suffices: pick the easiest.
                    let v = !and_like;
                    let f = x_fanins()
                        .min_by_key(|&f| scoap.cost(f, v))
                        .expect("X output has an X fanin");
                    (f, v)
                }
            }
            Xor | Xnor => {
                let mut parity = want ^ matches!(op, Xnor);
                let mut unknowns = Vec::new();
                for &f in fanins {
                    match val(f).to_bool() {
                        Some(b) => parity ^= b,
                        None => unknowns.push(f),
                    }
                }
                // Assume the other unknowns resolve to 0 and drive the
                // easiest one to the needed parity.
                let f = *unknowns
                    .iter()
                    .min_by_key(|&&f| scoap.cost(f, parity).min(scoap.cost(f, !parity)))
                    .expect("X output has an X fanin");
                (f, parity)
            }
            Mux => {
                let (sel, d0, d1) = (fanins[0], fanins[1], fanins[2]);
                match val(sel).to_bool() {
                    Some(false) => (d0, want),
                    Some(true) => (d1, want),
                    None => {
                        // Steer the select toward a data input that already
                        // has the wanted value. When both data inputs are
                        // still X, justify the cheaper *data* branch first:
                        // if both branches end up agreeing (the common
                        // redundant-mux case), the output propagates without
                        // ever deciding the select, keeping irrelevant
                        // signals out of the witness.
                        if val(d0).to_bool() == Some(want) {
                            (sel, false)
                        } else if val(d1).to_bool() == Some(want) {
                            (sel, true)
                        } else if val(d0) == Tv::X && val(d1) != Tv::X {
                            (sel, false)
                        } else if val(d1) == Tv::X && val(d0) != Tv::X {
                            (sel, true)
                        } else if scoap.cost(d0, want) <= scoap.cost(d1, want) {
                            (d0, want)
                        } else {
                            (d1, want)
                        }
                    }
                }
            }
        }
    }

    fn extract_witness(&self) -> Trace {
        let scope = &self.eng.scope;
        let mut trace = Trace::new();
        for t in 0..self.frames {
            let mut state = Cube::new();
            for &r in scope.registers() {
                if let Some(v) = self.values[self.fs(t, r) as usize].to_bool() {
                    state.insert(r, v).expect("fresh cube cannot conflict");
                }
            }
            let mut inputs = Cube::new();
            for &i in scope.inputs() {
                if let Some(v) = self.values[self.fs(t, i) as usize].to_bool() {
                    inputs.insert(i, v).expect("fresh cube cannot conflict");
                }
            }
            trace.push(TraceStep { state, inputs });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// 2-bit counter.
    fn counter() -> (Netlist, SignalId, SignalId) {
        let mut n = Netlist::new("c");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let n0 = n.add_gate("n0", GateOp::Not, &[b0]);
        let n1 = n.add_gate("n1", GateOp::Xor, &[b0, b1]);
        n.set_register_next(b0, n0).unwrap();
        n.set_register_next(b1, n1).unwrap();
        n.validate().unwrap();
        (n, b0, b1)
    }

    #[test]
    fn combinational_justifies_and() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate("g", GateOp::And, &[a, b]);
        n.validate().unwrap();
        let atpg = CombinationalAtpg::new(&n, AtpgOptions::default()).unwrap();
        let out = atpg.justify_cube(&[(g, true)].into_iter().collect());
        let trace = out.trace().expect("satisfiable");
        assert_eq!(trace.steps()[0].inputs.get(a), Some(true));
        assert_eq!(trace.steps()[0].inputs.get(b), Some(true));
    }

    #[test]
    fn combinational_detects_unsat() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let na = n.add_gate("na", GateOp::Not, &[a]);
        let g = n.add_gate("g", GateOp::And, &[a, na]);
        n.validate().unwrap();
        let atpg = CombinationalAtpg::new(&n, AtpgOptions::default()).unwrap();
        let out = atpg.justify_cube(&[(g, true)].into_iter().collect());
        assert!(out.is_unsat());
    }

    #[test]
    fn sequential_reaches_counter_state() {
        let (n, b0, b1) = counter();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        // Counter reaches 3 (b1=1,b0=1) at cycle 3 (0-indexed state after 3 steps).
        let target: Cube = [(b0, true), (b1, true)].into_iter().collect();
        let out = atpg.find_trace(4, &target, &[]);
        let trace = out.trace().expect("reachable at depth 4");
        assert_eq!(trace.num_cycles(), 4);
        assert_eq!(trace.last_state().unwrap().get(b0), Some(true));
        assert_eq!(trace.last_state().unwrap().get(b1), Some(true));
    }

    #[test]
    fn sequential_depth_matters() {
        let (n, b0, b1) = counter();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        let target: Cube = [(b0, true), (b1, true)].into_iter().collect();
        // At depth 2 the counter has only reached 1: unsatisfiable.
        assert!(atpg.find_trace(2, &target, &[]).is_unsat());
    }

    #[test]
    fn witness_replays_on_simulator() {
        let mut n = Netlist::new("d");
        let i = n.add_input("i");
        let j = n.add_input("j");
        let r = n.add_register("r", Some(false));
        let s = n.add_register("s", Some(false));
        let and_ij = n.add_gate("and_ij", GateOp::And, &[i, j]);
        let or_rs = n.add_gate("or_rs", GateOp::Or, &[r, and_ij]);
        n.set_register_next(r, or_rs).unwrap();
        n.set_register_next(s, r).unwrap();
        n.validate().unwrap();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        let target: Cube = [(s, true)].into_iter().collect();
        let out = atpg.find_trace(3, &target, &[]);
        let trace = out.trace().expect("satisfiable");
        let mut sim = rfn_sim::Simulator::new(&n).unwrap();
        assert!(sim.replay(trace), "ATPG witness must replay concretely");
        assert_eq!(sim.value(s), rfn_sim::Tv::One);
    }

    #[test]
    fn guidance_constrains_the_path() {
        let (n, b0, b1) = counter();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        let target: Cube = [(b0, true), (b1, true)].into_iter().collect();
        // Guidance consistent with the counter sequence 0,1,2,3.
        let guidance = vec![
            [(b0, false), (b1, false)].into_iter().collect(),
            [(b0, true), (b1, false)].into_iter().collect(),
            [(b0, false), (b1, true)].into_iter().collect(),
        ];
        assert!(atpg.find_trace(4, &target, &guidance).is_sat());
        // Contradictory guidance makes it unsatisfiable.
        let bad = vec![
            [(b0, false), (b1, false)].into_iter().collect(),
            [(b0, false), (b1, true)].into_iter().collect(), // counter can't jump to 2
        ];
        assert!(atpg.find_trace(4, &target, &bad).is_unsat());
    }

    #[test]
    fn conflicting_target_is_unsat_immediately() {
        let (n, b0, _) = counter();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        let guidance: Vec<Cube> = vec![[(b0, true)].into_iter().collect()]; // reset has b0=0
        let target: Cube = Cube::new();
        assert!(atpg.find_trace(1, &target, &guidance).is_unsat());
    }

    #[test]
    fn abort_on_backtrack_limit() {
        // A hard function: parity chain equality needing search.
        let mut n = Netlist::new("hard");
        let bits: Vec<SignalId> = (0..18).map(|k| n.add_input(&format!("i{k}"))).collect();
        // Build a pseudo-random CNF-ish structure that forces backtracking:
        // target = AND of xors of overlapping triples, plus a contradiction.
        let mut ands = Vec::new();
        for w in bits.windows(3) {
            ands.push(n.add_gate("", GateOp::Xor, w));
        }
        // Add a term that contradicts the first xor being 1: its negation.
        let neg = n.add_gate("neg", GateOp::Not, &[ands[0]]);
        ands.push(neg);
        let all = n.add_gate("all", GateOp::And, &ands);
        n.validate().unwrap();
        let opts = AtpgOptions {
            max_backtracks: 3,
            ..AtpgOptions::default()
        };
        let atpg = CombinationalAtpg::new(&n, opts).unwrap();
        let out = atpg.justify_cube(&[(all, true)].into_iter().collect());
        // With 3 backtracks allowed, the definite UNSAT can't be proven.
        assert!(matches!(
            out,
            AtpgOutcome::Aborted | AtpgOutcome::Unsatisfiable
        ));
    }

    #[test]
    fn free_initial_state_ignores_reset() {
        let (n, b0, b1) = counter();
        // Combinational: both registers free, ask for state 3 directly.
        let atpg = CombinationalAtpg::new(&n, AtpgOptions::default()).unwrap();
        let out = atpg.justify_cube(&[(b0, true), (b1, true)].into_iter().collect());
        assert!(out.is_sat());
    }

    #[test]
    fn justify_on_abstract_view_uses_pseudo_inputs() {
        use rfn_netlist::Abstraction;
        // a' = a | b with b outside the abstraction: b is a decision var.
        let mut n = Netlist::new("d");
        let a = n.add_register("a", Some(false));
        let b = n.add_register("b", Some(false));
        let upd = n.add_gate("upd", GateOp::Or, &[a, b]);
        n.set_register_next(a, upd).unwrap();
        n.set_register_next(b, a).unwrap();
        n.validate().unwrap();
        let view = Abstraction::from_registers([a]).view(&n, []).unwrap();
        let atpg = SequentialAtpg::over_view(&n, &view, AtpgOptions::default()).unwrap();
        // In the abstraction, a can become 1 in one step by choosing b=1 —
        // impossible in the full design at that depth (b resets to 0).
        let target: Cube = [(a, true)].into_iter().collect();
        let out = atpg.find_trace(2, &target, &[]);
        assert!(out.is_sat());
        let full = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        assert!(full.find_trace(2, &target, &[]).is_unsat());
    }

    #[test]
    fn stats_are_populated() {
        let (n, b0, b1) = counter();
        let atpg = SequentialAtpg::new(&n, AtpgOptions::default()).unwrap();
        let target: Cube = [(b0, true), (b1, true)].into_iter().collect();
        let (out, stats) = atpg.justify(&{
            let mut cs = vec![Cube::new(); 4];
            cs[3] = target;
            cs
        });
        assert!(out.is_sat());
        assert!(stats.implications > 0);
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// A wide parity cone with a contradiction forces real search effort.
    fn hard_unsat() -> (Netlist, SignalId) {
        let mut n = Netlist::new("hard");
        let bits: Vec<SignalId> = (0..20).map(|k| n.add_input(&format!("i{k}"))).collect();
        let mut terms = Vec::new();
        for w in bits.windows(3) {
            terms.push(n.add_gate("", GateOp::Xor, w));
        }
        let neg = n.add_gate("neg", GateOp::Not, &[terms[0]]);
        terms.push(neg);
        let all = n.add_gate("all", GateOp::And, &terms);
        n.validate().unwrap();
        (n, all)
    }

    #[test]
    fn time_limit_aborts_search() {
        let (n, all) = hard_unsat();
        let opts = AtpgOptions::default().with_time_limit(std::time::Duration::ZERO);
        let atpg = CombinationalAtpg::new(&n, opts).unwrap();
        let out = atpg.justify_cube(&[(all, true)].into_iter().collect());
        assert!(matches!(out, AtpgOutcome::Aborted));
    }

    #[test]
    fn decision_limit_aborts_search() {
        let (n, all) = hard_unsat();
        let opts = AtpgOptions {
            max_decisions: 2,
            ..AtpgOptions::default()
        };
        let atpg = CombinationalAtpg::new(&n, opts).unwrap();
        let out = atpg.justify_cube(&[(all, true)].into_iter().collect());
        assert!(matches!(out, AtpgOutcome::Aborted));
    }

    #[test]
    fn zero_depth_is_trivially_satisfiable() {
        let (n, _) = hard_unsat();
        let atpg = CombinationalAtpg::new(&n, AtpgOptions::default()).unwrap();
        let (out, stats) = atpg.engine().justify(&[]);
        assert!(out.is_sat());
        assert_eq!(stats, AtpgStats::default());
    }
}
