//! A small CDCL SAT solver with assumptions, incremental solving and
//! UNSAT-core extraction.
//!
//! The design follows the classic MiniSat recipe, trimmed to what the BMC
//! engine needs:
//!
//! * **two-watched-literal** propagation with blocker literals,
//! * **first-UIP** conflict analysis and clause learning (no recursive
//!   minimization),
//! * **VSIDS-lite** branching: exponentially decayed variable activities in
//!   an indexed binary max-heap, with phase saving,
//! * **Luby restarts**,
//! * **assumptions**: [`Solver::solve`] takes a list of literals assumed
//!   true for this call only; on UNSAT the failing subset is available from
//!   [`Solver::core`],
//! * **incremental use**: clauses may be added between `solve` calls; the
//!   learnt-clause database is kept (never reduced — the BMC unrollings this
//!   solver serves stay small enough that reduction does not pay for
//!   itself).
//!
//! The solver cooperates with the shared [`Budget`]: it polls the
//! cancellation flag at every propagation boundary and the wall clock at
//! every restart and every 128th boundary, returning
//! [`SolveResult::Unknown`] when the budget runs out.
//!
//! # Memory layout
//!
//! BMC unrollings spend the solver's time in propagation, not in search:
//! perfbench's `bmc` pass makes 46.2 M propagations against 19,180
//! conflicts. The layout therefore serves propagation's memory traffic:
//!
//! * **One clause arena.** Every clause of two or more literals sits in
//!   one `Vec<Lit>`: a length word, then the literals. A clause reference
//!   is the offset of its length word, converted to `u32` with a check
//!   (`u32::MAX` stays reserved for "no reason"). Learnt clauses are
//!   appended and never deleted, so the arena needs no collector.
//! * **Watch lists compacted in place.** `propagate` walks a literal's
//!   watch list with a read index and a write index, and copies the
//!   unvisited tail down on a conflict, so propagating a literal
//!   allocates nothing.
//!
//! Neither changes the search. Watchers keep their order and their
//! 8-byte size, and clause literals keep the order that propagation and
//! conflict analysis read, so every conflict, decision, propagation,
//! restart, learnt clause, core and model equals what a heap allocation
//! per clause and a fresh watch list per propagated literal gave. Against
//! that layout a `bmc` pass takes about half the time and a quarter less
//! peak memory.
//!
//! Two further ideas were measured on prototypes and left out:
//!
//! * a **binary-clause fast path** (a watcher flag plus a lazy literal
//!   swap in analysis) gained nothing beyond noise on top of the two
//!   changes above;
//! * asserting each refined register's **activation literal as a unit
//!   clause** cut the grouped BMC synthetic from 2.9 s to 0.4 s, but it
//!   changes the search, and it slowed `error_flag` from 2.4 s to 3.5 s
//!   on the half-size processor and from 7 s to 24 s at paper size.

use std::ops::Range;

use rfn_govern::{Budget, Exhaustion};

use crate::lit::{Lit, Var};

const VAL_TRUE: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_UNDEF: u8 = 2;

const NO_REASON: u32 = u32::MAX;

const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;
const RESTART_BASE: u64 = 100;

/// Outcome of one [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The clauses are unsatisfiable under the given assumptions; the
    /// failing assumption subset is available from [`Solver::core`].
    Unsat,
    /// The [`Budget`] ran out before a verdict was reached.
    Unknown(Exhaustion),
}

/// Cumulative search statistics, across all `solve` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts hit.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Clauses learnt (excluding learnt units).
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
}

#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

// Watch lists are propagation's memory traffic; keep a watcher at 8 bytes.
const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

/// An incremental CDCL solver.
///
/// # Example
///
/// ```
/// use rfn_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// // Assumptions are per-call; the failing subset forms the core.
/// assert_eq!(s.solve(&[b.negative()]), SolveResult::Unsat);
/// assert_eq!(s.core(), &[b.negative()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// ```
pub struct Solver {
    /// Every clause of two or more literals, back to back: a length word,
    /// then the literals. A clause reference is the offset of its length
    /// word.
    arena: Vec<Lit>,
    num_clauses: usize,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<u8>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    seen: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    model: Vec<u8>,
    core: Vec<Lit>,
    budget: Budget,
    polls: u64,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with an unlimited budget.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            seen: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            model: Vec::new(),
            core: Vec::new(),
            budget: Budget::unlimited(),
            polls: 0,
            stats: SolverStats::default(),
        }
    }

    /// Replaces the governing budget (polled during search).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses held (problem clauses plus learnt clauses).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Whether the clause set is still possibly satisfiable (turns false
    /// once unconditional unsatisfiability is derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(VAL_UNDEF);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.seen.push(false);
        self.activity.push(0.0);
        self.heap_pos.push(-1);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    fn lit_value(&self, l: Lit) -> u8 {
        value_in(&self.assigns, l)
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Must be called outside `solve` (the solver is always at decision
    /// level zero between calls). The clause is simplified against the
    /// level-zero assignment: satisfied clauses are dropped, falsified
    /// literals removed, tautologies discarded. Deriving the empty clause
    /// makes the solver permanently UNSAT.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        if !self.ok {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        ls.sort_unstable();
        ls.dedup();
        // After sorting, the two polarities of a variable are adjacent.
        if ls.windows(2).any(|w| w[1] == !w[0]) {
            return; // tautology
        }
        let mut simplified = Vec::with_capacity(ls.len());
        for &l in &ls {
            match self.lit_value(l) {
                VAL_TRUE => return, // already satisfied at level 0
                VAL_FALSE => {}     // permanently false literal: drop
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(simplified[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let cr = self.alloc_clause(&simplified);
                self.attach(cr);
            }
        }
    }

    /// Solves under the given assumptions.
    ///
    /// Assumptions hold for this call only. On [`SolveResult::Sat`] the
    /// model is available from [`Solver::value`]; on [`SolveResult::Unsat`]
    /// with assumptions, [`Solver::core`] names a subset of the assumptions
    /// that is already inconsistent with the clauses (empty when the
    /// clauses are unconditionally unsatisfiable).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.core.clear();
        self.model.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Err(e) = self.budget.check() {
            return SolveResult::Unknown(e);
        }
        let mut curr_restarts = 0u64;
        loop {
            let nof_conflicts = luby(2.0, curr_restarts) * RESTART_BASE as f64;
            match self.search(nof_conflicts as u64, assumptions) {
                Some(result) => {
                    self.cancel_until(0);
                    return result;
                }
                None => {
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                    if let Err(e) = self.budget.check() {
                        self.cancel_until(0);
                        return SolveResult::Unknown(e);
                    }
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer.
    ///
    /// `None` before the first successful solve or after a failed one.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(&VAL_TRUE) => Some(true),
            Some(&VAL_FALSE) => Some(false),
            _ => None,
        }
    }

    /// The failed assumption subset from the last [`SolveResult::Unsat`]
    /// answer, in trail order.
    ///
    /// The conjunction of these literals is inconsistent with the clause
    /// set. Empty when the clauses are unsatisfiable without assumptions.
    pub fn core(&self) -> &[Lit] {
        &self.core
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert_eq!(self.assigns[v], VAL_UNDEF);
        self.assigns[v] = if l.is_positive() { VAL_TRUE } else { VAL_FALSE };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Appends a clause of two or more literals to the arena and returns
    /// its reference.
    fn alloc_clause(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2);
        // `NO_REASON` is `u32::MAX`, so it is no clause's offset.
        let cr = u32::try_from(self.arena.len())
            .ok()
            .filter(|&cr| cr != NO_REASON)
            .expect("clause arena exceeds u32 offsets");
        let len = u32::try_from(lits.len()).expect("clause length exceeds u32");
        self.arena.push(Lit(len));
        self.arena.extend_from_slice(lits);
        self.num_clauses += 1;
        cr
    }

    /// The arena indices of clause `cr`'s literals.
    #[inline]
    fn clause_lits(&self, cr: u32) -> Range<usize> {
        let start = cr as usize + 1;
        start..start + self.arena[cr as usize].0 as usize
    }

    fn attach(&mut self, cr: u32) {
        let c = &self.arena[self.clause_lits(cr)];
        debug_assert!(c.len() >= 2);
        let (w0, w1) = (c[0], c[1]);
        self.watches[(!w0).code()].push(Watcher {
            clause: cr,
            blocker: w1,
        });
        self.watches[(!w1).code()].push(Watcher {
            clause: cr,
            blocker: w0,
        });
    }

    /// Propagates all pending assignments; returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Compact p's watch list in place: watchers are read at `i` and
            // the retained ones written back at `j`, in order; relocated
            // ones move to another literal's list (never p's: a
            // replacement watch is not false).
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let mut w = ws[i];
                i += 1;
                if value_in(&self.assigns, w.blocker) == VAL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let range = self.clause_lits(w.clause);
                let c = &mut self.arena[range];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                if first != w.blocker && value_in(&self.assigns, first) == VAL_TRUE {
                    w.blocker = first;
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement =
                    (2..c.len()).find(|&k| value_in(&self.assigns, c[k]) != VAL_FALSE);
                if let Some(k) = replacement {
                    c.swap(1, k);
                    self.watches[(!c[1]).code()].push(Watcher {
                        clause: w.clause,
                        blocker: first,
                    });
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                ws[j] = w;
                j += 1;
                if value_in(&self.assigns, first) == VAL_FALSE {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    // Keep the watchers not yet visited.
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.enqueue(first, w.clause);
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0: asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            debug_assert_ne!(confl, NO_REASON);
            let lits = self.clause_lits(confl);
            // The implied literal of a reason clause is its first.
            for k in lits.start + usize::from(p.is_some())..lits.end {
                let q = self.arena[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_activity(q.var());
                    if self.level[v] as usize >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to expand: the most recent seen trail entry.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
        }
        learnt[0] = !p.expect("conflict analysis reached the first UIP");

        // Backtrack to the second-highest decision level in the clause and
        // place a literal of that level in the second watch position.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        (learnt, backtrack)
    }

    /// Computes the failed-assumption core for the falsified assumption `p`
    /// by walking the implication graph down to assumption decisions.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                // A decision inside the assumption prefix is an assumption.
                debug_assert!(self.level[v] > 0);
                self.core.push(l);
            } else {
                for k in self.clause_lits(r).skip(1) {
                    let q = self.arena[k];
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        self.core.reverse(); // trail order
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.assigns[v] = VAL_UNDEF;
            self.polarity[v] = l.is_positive(); // phase saving
            self.reason[v] = NO_REASON;
            self.heap_insert(l.var());
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level);
        self.qhead = lim;
    }

    /// Cheap cooperative budget poll: the cancellation flag every call, the
    /// wall clock every 128th.
    fn poll(&mut self) -> Result<(), Exhaustion> {
        self.polls = self.polls.wrapping_add(1);
        if self.polls & 0x7F == 0 {
            self.budget.check()
        } else if self.budget.is_cancelled() {
            Err(Exhaustion::Cancelled)
        } else {
            Ok(())
        }
    }

    fn search(&mut self, nof_conflicts: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.core.clear();
                    return Some(SolveResult::Unsat);
                }
                let (learnt, backtrack) = self.analyze(confl);
                self.cancel_until(backtrack);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, NO_REASON);
                } else {
                    let cr = self.alloc_clause(&learnt);
                    self.attach(cr);
                    self.stats.learned += 1;
                    self.enqueue(asserting, cr);
                }
                self.var_inc /= ACTIVITY_DECAY;
                continue;
            }
            // Propagation boundary: cooperative budget poll.
            if let Err(e) = self.poll() {
                return Some(SolveResult::Unknown(e));
            }
            if conflicts >= nof_conflicts {
                self.cancel_until(0);
                return None; // restart
            }
            // Re-establish assumptions, then branch.
            let mut next: Option<Lit> = None;
            while self.decision_level() < assumptions.len() {
                let p = assumptions[self.decision_level()];
                match self.lit_value(p) {
                    VAL_TRUE => self.trail_lim.push(self.trail.len()), // dummy level
                    VAL_FALSE => {
                        self.analyze_final(p);
                        return Some(SolveResult::Unsat);
                    }
                    _ => {
                        next = Some(p);
                        break;
                    }
                }
            }
            let decision = match next {
                Some(p) => p,
                None => match self.pick_branch() {
                    Some(v) => v.lit(self.polarity[v.index()]),
                    None => {
                        self.model = self.assigns.clone();
                        return Some(SolveResult::Sat);
                    }
                },
            };
            self.stats.decisions += 1;
            self.trail_lim.push(self.trail.len());
            self.enqueue(decision, NO_REASON);
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == VAL_UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
        let pos = self.heap_pos[v.index()];
        if pos >= 0 {
            self.heap_up(pos as usize);
        }
    }

    // --- indexed binary max-heap over variable activities ---

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.index()] >= 0 {
            return;
        }
        self.heap_pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v.0);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_down(0);
        }
        Some(Var(top))
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }
}

#[inline]
fn value_in(assigns: &[u8], l: Lit) -> u8 {
    let v = assigns[l.var().index()];
    if v == VAL_UNDEF {
        VAL_UNDEF
    } else {
        v ^ (l.0 & 1) as u8
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, … scaled by `y^k`.
fn luby(y: f64, mut x: u64) -> f64 {
    let (mut size, mut seq) = (1u64, 0i32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.powi(seq)
}
