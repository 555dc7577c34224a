//! The BDD manager: node store, unique table, ITE core and quantification.
//!
//! # Memory subsystem
//!
//! Hash-consing goes through a single open-addressing [`UniqueTable`]
//! (see [`crate::unique`]); per-variable node iteration — which reordering
//! needs — is served by intrusive doubly-linked lists threaded through the
//! node store (`var_head`/`link_prev`/`link_next`). Operation memos live in
//! fixed-size direct-mapped lossy caches (see [`crate::cache`]).
//!
//! # Automatic garbage collection
//!
//! Callers may [`protect`](BddManager::protect) long-lived roots and enable
//! [`set_auto_gc`](BddManager::set_auto_gc). Allocation then flags a pending
//! collection once the live-node count passes an adaptive threshold, and the
//! *next top-level operation* collects before it starts, using the protected
//! set plus that operation's own operands as roots. Collection never runs
//! inside a recursion, so intermediate results of an in-flight operation are
//! never reclaimed — but any unprotected handle that is neither an operand
//! of the current call may be invalidated, exactly as with an explicit
//! [`gc`](BddManager::gc).

use std::collections::HashMap;
use std::fmt;

use rfn_govern::{Budget, Exhaustion};

use crate::cache::{Cache2, Cache3};
use crate::stats::BddStats;
use crate::unique::{Probe, UniqueTable};

/// Identifier of a BDD variable.
///
/// Variables are created with [`BddManager::new_var`] /
/// [`BddManager::new_var_group`]; the identifier is stable for the lifetime
/// of the manager even when dynamic reordering changes the variable's level.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index of the variable (dense, creation order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable id from a raw index. Callers must ensure the index
    /// denotes a variable of the manager it is used with.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        VarId(index as u32)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Handle to a BDD node.
///
/// A `Bdd` is an index into its manager's node store. Handles are `Copy` and
/// compare by identity, which equals semantic equality thanks to
/// hash-consing: two handles from the same manager denote the same boolean
/// function if and only if they are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => f.write_str("⊥"),
            1 => f.write_str("⊤"),
            n => write!(f, "n{n}"),
        }
    }
}

/// Error raised by BDD operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The manager's live-node limit (or a governing budget's node ceiling)
    /// was exceeded.
    ///
    /// This is how the plain symbolic model checker "fails" on designs beyond
    /// its capacity, mirroring the memory limits of the paper's experiments.
    NodeLimit,
    /// The governing budget's [`CancelToken`](rfn_govern::CancelToken) was
    /// triggered; the in-flight operation unwound cooperatively.
    Cancelled,
    /// The governing budget's wall-clock deadline passed mid-operation.
    TimeLimit,
    /// The governing budget's memory ceiling was exceeded by the manager's
    /// approximate footprint (see [`BddManager::approx_bytes`]).
    MemoryLimit,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit => f.write_str("BDD node limit exceeded"),
            BddError::Cancelled => f.write_str("BDD operation cancelled"),
            BddError::TimeLimit => f.write_str("BDD time budget exceeded"),
            BddError::MemoryLimit => f.write_str("BDD memory budget exceeded"),
        }
    }
}

impl std::error::Error for BddError {}

/// Result type of fallible BDD operations.
pub type BddResult = Result<Bdd, BddError>;

pub(crate) const TERMINAL_VAR: u32 = u32::MAX;
const FALSE: u32 = 0;
const TRUE: u32 = 1;

/// Null link in the per-variable node lists.
const NIL: u32 = u32::MAX;

/// Default live-node threshold arming the first automatic collection.
const AUTO_GC_DEFAULT_THRESHOLD: usize = 1 << 16;

/// Default maximum slots per operation cache (entries, not bytes).
const DEFAULT_CACHE_SLOTS: usize = 1 << 20;

/// Smallest permitted non-zero cache capacity.
const MIN_CACHE_SLOTS: usize = 16;

/// Care-cache operator tag of [`BddManager::constrain`].
const CARE_OP_CONSTRAIN: u32 = 0;

/// Care-cache operator tag of [`BddManager::gc_restrict`].
const CARE_OP_RESTRICT: u32 = 1;

/// Allocations between two deadline/memory polls of the governing budget
/// (cancellation is polled on every allocation; it is one relaxed atomic
/// load). 64 allocations take microseconds, so a deadline overshoot is
/// bounded far below the 500 ms the RFN acceptance contract allows.
const BUDGET_POLL_INTERVAL: u32 = 64;

#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// The BDD manager: owns every node and provides all operations.
///
/// Operations that may allocate nodes return [`BddResult`] and fail with
/// [`BddError::NodeLimit`] once the live-node count passes the configured
/// limit (default: unlimited). See the [crate docs](crate) for an overview
/// and an example.
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    free: Vec<u32>,
    /// Hash-consing table over all variables.
    unique: UniqueTable,
    /// Intrusive per-variable node lists: `var_head[v]` starts the chain of
    /// live nodes labeled `v`, linked by `link_prev`/`link_next` (NIL-ended).
    var_head: Vec<u32>,
    link_prev: Vec<u32>,
    link_next: Vec<u32>,
    /// Live-node count per variable (the sifting candidate metric).
    var_count: Vec<usize>,
    pub(crate) var2level: Vec<u32>,
    pub(crate) level2var: Vec<u32>,
    /// Group id per variable; members of a group occupy adjacent levels and
    /// are sifted as a block.
    pub(crate) group: Vec<u32>,
    next_group: u32,
    ite_cache: Cache3,
    exists_cache: Cache2,
    and_exists_cache: Cache3,
    /// Shared memo of the care-set operators; the third key slot carries the
    /// operator tag ([`CARE_OP_CONSTRAIN`] / [`CARE_OP_RESTRICT`]).
    care_cache: Cache3,
    /// Reusable memo for `permute`/`restrict`, cleared per call (avoids a
    /// fresh allocation on every traversal).
    scratch_cache: HashMap<u32, u32>,
    node_limit: usize,
    /// Governing budget: ceilings, deadline and cancellation polled on the
    /// allocation path (see [`BddManager::set_budget`]).
    budget: Option<Budget>,
    /// Allocations since the last deadline/memory poll.
    budget_poll: u32,
    pub(crate) reorder_in_progress: bool,
    /// Protected root set: node index → protection count.
    protected: HashMap<u32, u32>,
    auto_gc_enabled: bool,
    /// Set by `mk` when the live count passes `gc_threshold`; consumed at
    /// the next top-level operation entry.
    gc_pending: bool,
    /// Current (adaptive) live-node threshold arming a collection.
    gc_threshold: usize,
    /// Configured lower bound for `gc_threshold`.
    gc_threshold_floor: usize,
    /// Reference counts that exist only during a sift pass (empty
    /// otherwise): per node, its parents plus one per sift root and per
    /// protected entry. Swaps maintain them and free nodes that drop to
    /// zero, so the unique table holds exactly the live nodes throughout.
    pub(crate) reorder_refs: Vec<u32>,
    /// `stats.unique_probes` when the last sift pass ended. The operation
    /// work done since then is what the next scheduled pass may spend.
    pub(crate) sift_mark: u64,
    pub(crate) stats: BddStats,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BddManager({} vars, {} live nodes)",
            self.num_vars(),
            self.num_nodes()
        )
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a manager with no variables and no node limit.
    pub fn new() -> Self {
        BddManager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            free: Vec::new(),
            unique: UniqueTable::new(),
            var_head: Vec::new(),
            link_prev: vec![NIL; 2],
            link_next: vec![NIL; 2],
            var_count: Vec::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            group: Vec::new(),
            next_group: 0,
            ite_cache: Cache3::new(DEFAULT_CACHE_SLOTS),
            exists_cache: Cache2::new(DEFAULT_CACHE_SLOTS),
            and_exists_cache: Cache3::new(DEFAULT_CACHE_SLOTS),
            care_cache: Cache3::new(DEFAULT_CACHE_SLOTS),
            scratch_cache: HashMap::new(),
            node_limit: usize::MAX,
            budget: None,
            budget_poll: 0,
            reorder_in_progress: false,
            protected: HashMap::new(),
            auto_gc_enabled: false,
            gc_pending: false,
            gc_threshold: AUTO_GC_DEFAULT_THRESHOLD,
            gc_threshold_floor: AUTO_GC_DEFAULT_THRESHOLD,
            reorder_refs: Vec::new(),
            sift_mark: 0,
            stats: BddStats::default(),
        }
    }

    /// Sets the live-node limit. Operations that would allocate past the
    /// limit fail with [`BddError::NodeLimit`].
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Installs a governing [`Budget`]. The allocation path then polls the
    /// budget's cancellation token on every unique-table insert and its
    /// wall-clock deadline and memory ceiling every few dozen inserts;
    /// the budget's node ceiling tightens the live-node limit. Exhaustion
    /// surfaces as [`BddError::Cancelled`], [`BddError::TimeLimit`],
    /// [`BddError::MemoryLimit`] or [`BddError::NodeLimit`] from whatever
    /// operation was in flight, leaving the manager fully consistent (the
    /// partially built operation result is simply unreferenced garbage).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = Some(budget);
    }

    /// Removes the governing budget installed by [`BddManager::set_budget`].
    pub fn clear_budget(&mut self) {
        self.budget = None;
    }

    /// The governing budget, if one is installed.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// Approximate resident bytes of the node store, unique table and
    /// operation caches. This is the footprint checked against a governing
    /// budget's memory ceiling; it is exact for the dominant arrays and
    /// ignores small fixed overheads.
    pub fn approx_bytes(&self) -> usize {
        // Node store: 12-byte nodes plus two 4-byte intrusive links each.
        let nodes = self.nodes.capacity() * (std::mem::size_of::<Node>() + 8);
        // Unique table: one u32 slot per entry (open addressing).
        let unique = self.unique.slot_count() * 4;
        // Operation caches: 16-byte 3-key entries, 12-byte 2-key entries.
        let caches = (self.ite_cache.slot_count()
            + self.and_exists_cache.slot_count()
            + self.care_cache.slot_count())
            * 16
            + self.exists_cache.slot_count() * 12;
        nodes + unique + caches
    }

    /// Number of distinct protected roots (see [`BddManager::protect`]).
    pub fn num_protected(&self) -> usize {
        self.protected.len()
    }

    /// Sets the maximum slot count of each operation cache (ITE, exists,
    /// and-exists). `0` disables memoization entirely — every operation is
    /// recomputed, which is only useful for testing; small non-zero values
    /// are rounded up to at least a small power of two. Resizing clears the
    /// caches, which is always sound (entries are memos).
    pub fn set_cache_capacity(&mut self, slots: usize) {
        let slots = if slots == 0 {
            0
        } else {
            slots.max(MIN_CACHE_SLOTS).next_power_of_two()
        };
        self.ite_cache.set_max_slots(slots);
        self.exists_cache.set_max_slots(slots);
        self.and_exists_cache.set_max_slots(slots);
        self.care_cache.set_max_slots(slots);
    }

    /// Snapshot of the kernel performance counters.
    pub fn stats(&self) -> BddStats {
        self.stats
    }

    /// Resets all performance counters (including the peak) to zero.
    pub fn reset_stats(&mut self) {
        self.stats = BddStats::default();
        self.sift_mark = 0;
    }

    /// The constant-false BDD.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd(FALSE)
    }

    /// The constant-true BDD.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd(TRUE)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var2level.len()
    }

    /// Number of live (allocated, non-freed) internal nodes, excluding the
    /// two terminals.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 2 - self.free.len()
    }

    /// Creates a fresh variable at the bottom of the current order, in its
    /// own singleton sifting group.
    pub fn new_var(&mut self) -> VarId {
        let vars = self.new_var_group(1);
        vars[0]
    }

    /// Creates `n` fresh variables at adjacent levels, registered as one
    /// sifting group (they stay adjacent under dynamic reordering).
    ///
    /// The model checker uses groups of two for each register's
    /// current/next-state variable pair so that renaming stays cheap and the
    /// interleaved order survives sifting.
    pub fn new_var_group(&mut self, n: usize) -> Vec<VarId> {
        let gid = self.next_group;
        self.next_group += 1;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let var = self.var2level.len() as u32;
            let level = var; // appended at the bottom
            self.var2level.push(level);
            self.level2var.push(var);
            self.group.push(gid);
            self.var_head.push(NIL);
            self.var_count.push(0);
            out.push(VarId(var));
        }
        out
    }

    /// The current level (root distance) of a variable.
    pub fn level_of(&self, v: VarId) -> usize {
        self.var2level[v.index()] as usize
    }

    /// The variable at a level.
    pub fn var_at_level(&self, level: usize) -> VarId {
        VarId(self.level2var[level])
    }

    #[inline]
    pub(crate) fn level(&self, n: u32) -> u32 {
        let var = self.nodes[n as usize].var;
        if var == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[var as usize]
        }
    }

    #[inline]
    fn lo(&self, n: u32) -> u32 {
        self.nodes[n as usize].lo
    }

    #[inline]
    fn hi(&self, n: u32) -> u32 {
        self.nodes[n as usize].hi
    }

    /// Links a live node into its variable's list.
    fn link_node(&mut self, idx: u32, var: u32) {
        let head = self.var_head[var as usize];
        self.link_prev[idx as usize] = NIL;
        self.link_next[idx as usize] = head;
        if head != NIL {
            self.link_prev[head as usize] = idx;
        }
        self.var_head[var as usize] = idx;
        self.var_count[var as usize] += 1;
    }

    /// Unlinks a node from its variable's list (`var` must be the node's
    /// current label).
    fn unlink_node(&mut self, idx: u32, var: u32) {
        let p = self.link_prev[idx as usize];
        let n = self.link_next[idx as usize];
        if p != NIL {
            self.link_next[p as usize] = n;
        } else {
            self.var_head[var as usize] = n;
        }
        if n != NIL {
            self.link_prev[n as usize] = p;
        }
        self.var_count[var as usize] -= 1;
    }

    /// Finds or creates the node `(var, lo, hi)`.
    pub(crate) fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        debug_assert!(
            self.level(lo) > self.var2level[var as usize]
                && self.level(hi) > self.var2level[var as usize],
            "mk: children must be below the node's level"
        );
        self.stats.unique_probes += 1;
        let slot =
            match self
                .unique
                .probe(var, lo, hi, &self.nodes, &mut self.stats.unique_collisions)
            {
                Probe::Found(n) => return Ok(n),
                Probe::Vacant(slot) => slot,
            };
        if !self.reorder_in_progress {
            let limit = match &self.budget {
                Some(b) => self.node_limit.min(b.node_ceiling()),
                None => self.node_limit,
            };
            if self.num_nodes() >= limit {
                return Err(BddError::NodeLimit);
            }
            if let Some(b) = &self.budget {
                if b.is_cancelled() {
                    return Err(BddError::Cancelled);
                }
                self.budget_poll = self.budget_poll.wrapping_add(1);
                if self.budget_poll.is_multiple_of(BUDGET_POLL_INTERVAL) {
                    if let Err(e) = b.check().and_then(|()| b.check_memory(self.approx_bytes())) {
                        return Err(match e {
                            Exhaustion::Cancelled => BddError::Cancelled,
                            Exhaustion::MemoryLimit => BddError::MemoryLimit,
                            _ => BddError::TimeLimit,
                        });
                    }
                }
            }
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node { var, lo, hi };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node { var, lo, hi });
            self.link_prev.push(NIL);
            self.link_next.push(NIL);
            idx
        };
        self.unique.insert(slot, idx);
        self.link_node(idx, var);
        let live = self.num_nodes();
        if live > self.stats.peak_nodes {
            self.stats.peak_nodes = live;
        }
        if self.auto_gc_enabled && live >= self.gc_threshold {
            self.gc_pending = true;
        }
        Ok(idx)
    }

    /// The BDD of a single positive literal.
    pub fn var(&mut self, v: VarId) -> Bdd {
        // One node at most — exempt from budget governance (see `var_cube`),
        // so a cancelled budget cannot turn this infallible helper into a
        // panic; the next governed operation still aborts promptly.
        let budget = self.budget.take();
        let n = self
            .mk(v.0, FALSE, TRUE)
            .expect("single literal never exceeds the node limit meaningfully");
        self.budget = budget;
        Bdd(n)
    }

    /// The BDD of a single negative literal.
    pub fn nvar(&mut self, v: VarId) -> Bdd {
        // See `var`: one node, exempt from the budget.
        let budget = self.budget.take();
        let n = self
            .mk(v.0, TRUE, FALSE)
            .expect("single literal never exceeds the node limit meaningfully");
        self.budget = budget;
        Bdd(n)
    }

    /// The literal `v` with the given polarity.
    pub fn literal(&mut self, v: VarId, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// If-then-else: `f ? g : h`. The core operation everything else derives
    /// from.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the result would exceed the
    /// manager's node limit.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, g.0, h.0]);
        self.ite_rec(f.0, g.0, h.0).map(Bdd)
    }

    fn ite_rec(&mut self, f: u32, g: u32, h: u32) -> Result<u32, BddError> {
        // Terminal and trivial cases.
        if f == TRUE {
            return Ok(g);
        }
        if f == FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }
        if let Some(r) = self.ite_cache.get(f, g, h) {
            self.stats.ite_hits += 1;
            return Ok(r);
        }
        self.stats.ite_misses += 1;
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let v = self.level2var[top as usize];
        let (f0, f1) = self.cofactor(f, top);
        let (g0, g1) = self.cofactor(g, top);
        let (h0, h1) = self.cofactor(h, top);
        let lo = self.ite_rec(f0, g0, h0)?;
        let hi = self.ite_rec(f1, g1, h1)?;
        let r = self.mk(v, lo, hi)?;
        self.ite_cache.put(f, g, h, r);
        Ok(r)
    }

    #[inline]
    fn cofactor(&self, n: u32, level: u32) -> (u32, u32) {
        if self.level(n) == level {
            (self.lo(n), self.hi(n))
        } else {
            (n, n)
        }
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> BddResult {
        self.ite(f, self.zero(), self.one())
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> BddResult {
        self.ite(f, g, self.zero())
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> BddResult {
        self.ite(f, self.one(), g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> BddResult {
        // One auto-GC decision for the whole derived operation, so `f` stays
        // alive across the internal negation.
        self.maybe_auto_gc(&[f.0, g.0]);
        let ng = self.ite_rec(g.0, FALSE, TRUE)?;
        self.ite_rec(f.0, ng, g.0).map(Bdd)
    }

    /// Equivalence (exclusive nor).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, g.0]);
        let ng = self.ite_rec(g.0, FALSE, TRUE)?;
        self.ite_rec(f.0, g.0, ng).map(Bdd)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> BddResult {
        self.ite(f, g, self.one())
    }

    /// Conjunction of many operands (n-ary and).
    pub fn and_many(&mut self, fs: impl IntoIterator<Item = Bdd>) -> BddResult {
        let fs: Vec<Bdd> = fs.into_iter().collect();
        // Operands not yet consumed must survive any auto-GC triggered by an
        // earlier step of the fold.
        for &f in &fs {
            self.protect(f);
        }
        let mut result = Ok(self.one());
        for &f in &fs {
            let acc = match result {
                Ok(acc) => acc,
                Err(_) => break,
            };
            result = self.and(acc, f);
            if result == Ok(self.zero()) {
                break;
            }
        }
        for &f in &fs {
            self.unprotect(f);
        }
        result
    }

    /// Disjunction of many operands (n-ary or).
    pub fn or_many(&mut self, fs: impl IntoIterator<Item = Bdd>) -> BddResult {
        let fs: Vec<Bdd> = fs.into_iter().collect();
        for &f in &fs {
            self.protect(f);
        }
        let mut result = Ok(self.zero());
        for &f in &fs {
            let acc = match result {
                Ok(acc) => acc,
                Err(_) => break,
            };
            result = self.or(acc, f);
            if result == Ok(self.one()) {
                break;
            }
        }
        for &f in &fs {
            self.unprotect(f);
        }
        result
    }

    /// Builds the positive cube `v₁ ∧ v₂ ∧ …` used to denote a set of
    /// variables for quantification.
    pub fn var_cube(&mut self, vars: impl IntoIterator<Item = VarId>) -> Bdd {
        let mut vs: Vec<VarId> = vars.into_iter().collect();
        // Build bottom-up (deepest level first) so each mk is O(1).
        vs.sort_by_key(|v| std::cmp::Reverse(self.var2level[v.index()]));
        // Cube construction allocates at most one node per variable — too
        // small to be a useful cancellation point, and callers treat it as
        // infallible. Suspend budget governance for its duration; the next
        // governed operation still aborts promptly.
        let budget = self.budget.take();
        let mut acc = TRUE;
        for v in vs {
            acc = self
                .mk(v.0, FALSE, acc)
                .expect("cube construction allocates at most one node per var");
        }
        self.budget = budget;
        Bdd(acc)
    }

    /// Builds the cube (conjunction of literals) for an assignment.
    pub fn cube(&mut self, lits: impl IntoIterator<Item = (VarId, bool)>) -> Bdd {
        let mut ls: Vec<(VarId, bool)> = lits.into_iter().collect();
        ls.sort_by_key(|(v, _)| std::cmp::Reverse(self.var2level[v.index()]));
        // See `var_cube`: one node per literal, exempt from the budget.
        let budget = self.budget.take();
        let mut acc = TRUE;
        for (v, pos) in ls {
            acc = if pos {
                self.mk(v.0, FALSE, acc)
            } else {
                self.mk(v.0, acc, FALSE)
            }
            .expect("cube construction allocates at most one node per literal");
        }
        self.budget = budget;
        Bdd(acc)
    }

    /// Existential quantification `∃ vars . f`, where `vars` is a positive
    /// cube from [`BddManager::var_cube`].
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] like every allocating operation.
    pub fn exists(&mut self, f: Bdd, vars: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, vars.0]);
        self.exists_rec(f.0, vars.0).map(Bdd)
    }

    /// Existential quantification of a single variable.
    pub fn exists_one(&mut self, f: Bdd, v: VarId) -> BddResult {
        let cube = self.var_cube([v]);
        self.exists(f, cube)
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&mut self, f: Bdd, vars: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, vars.0]);
        let nf = self.ite_rec(f.0, FALSE, TRUE)?;
        let e = self.exists_rec(nf, vars.0)?;
        self.ite_rec(e, FALSE, TRUE).map(Bdd)
    }

    fn exists_rec(&mut self, f: u32, mut cube: u32) -> Result<u32, BddError> {
        // Skip cube variables above f's top level: they don't occur in f.
        while cube != TRUE && self.level(cube) < self.level(f) {
            cube = self.hi(cube);
        }
        if f <= TRUE || cube == TRUE {
            return Ok(f);
        }
        if let Some(r) = self.exists_cache.get(f, cube) {
            self.stats.exists_hits += 1;
            return Ok(r);
        }
        self.stats.exists_misses += 1;
        let flevel = self.level(f);
        let r = if self.level(cube) == flevel {
            let lo = self.exists_rec(self.lo(f), self.hi(cube))?;
            if lo == TRUE {
                TRUE
            } else {
                let hi = self.exists_rec(self.hi(f), self.hi(cube))?;
                self.ite_rec(lo, TRUE, hi)? // or(lo, hi)
            }
        } else {
            let v = self.level2var[flevel as usize];
            let lo = self.exists_rec(self.lo(f), cube)?;
            let hi = self.exists_rec(self.hi(f), cube)?;
            self.mk(v, lo, hi)?
        };
        self.exists_cache.put(f, cube, r);
        Ok(r)
    }

    /// The relational product `∃ vars . f ∧ g`, fused so the conjunction is
    /// never fully built. This is the workhorse of image computation.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] like every allocating operation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, g.0, vars.0]);
        self.and_exists_rec(f.0, g.0, vars.0).map(Bdd)
    }

    fn and_exists_rec(&mut self, f: u32, g: u32, mut cube: u32) -> Result<u32, BddError> {
        if f == FALSE || g == FALSE {
            return Ok(FALSE);
        }
        if f == TRUE && g == TRUE {
            return Ok(TRUE);
        }
        let top = self.level(f).min(self.level(g));
        while cube != TRUE && self.level(cube) < top {
            cube = self.hi(cube);
        }
        if cube == TRUE {
            return self.ite_rec(f, g, FALSE); // plain and
        }
        // Normalize operand order for better cache hits (and is commutative).
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.and_exists_cache.get(f, g, cube) {
            self.stats.and_exists_hits += 1;
            return Ok(r);
        }
        self.stats.and_exists_misses += 1;
        let (f0, f1) = self.cofactor(f, top);
        let (g0, g1) = self.cofactor(g, top);
        let r = if self.level(cube) == top {
            let lo = self.and_exists_rec(f0, g0, self.hi(cube))?;
            if lo == TRUE {
                TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, self.hi(cube))?;
                self.ite_rec(lo, TRUE, hi)?
            }
        } else {
            let v = self.level2var[top as usize];
            let lo = self.and_exists_rec(f0, g0, cube)?;
            let hi = self.and_exists_rec(f1, g1, cube)?;
            self.mk(v, lo, hi)?
        };
        self.and_exists_cache.put(f, g, cube, r);
        Ok(r)
    }

    /// Renames variables according to `map` (pairs `from → to`). Variables
    /// not mentioned are left alone. The mapping must be injective on the
    /// support of `f`, but need not preserve the variable order.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] like every allocating operation.
    pub fn permute(&mut self, f: Bdd, map: &[(VarId, VarId)]) -> BddResult {
        self.maybe_auto_gc(&[f.0]);
        let mut table = vec![u32::MAX; self.num_vars()];
        for (from, to) in map {
            table[from.index()] = to.0;
        }
        let mut cache = std::mem::take(&mut self.scratch_cache);
        cache.clear();
        let r = self.permute_rec(f.0, &table, &mut cache);
        self.scratch_cache = cache;
        r.map(Bdd)
    }

    fn permute_rec(
        &mut self,
        f: u32,
        table: &[u32],
        cache: &mut HashMap<u32, u32>,
    ) -> Result<u32, BddError> {
        if f <= TRUE {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f) {
            return Ok(r);
        }
        let node = self.nodes[f as usize];
        let lo = self.permute_rec(node.lo, table, cache)?;
        let hi = self.permute_rec(node.hi, table, cache)?;
        let newvar = if table[node.var as usize] != u32::MAX {
            table[node.var as usize]
        } else {
            node.var
        };
        // The new variable may sit below parts of lo/hi, so rebuild with ite
        // instead of mk when the order is violated.
        let vlevel = self.var2level[newvar as usize];
        let r = if self.level(lo) > vlevel && self.level(hi) > vlevel {
            self.mk(newvar, lo, hi)?
        } else {
            let vb = self.mk(newvar, FALSE, TRUE)?;
            self.ite_rec(vb, hi, lo)?
        };
        cache.insert(f, r);
        Ok(r)
    }

    /// Restricts `f` by the assignment `lits` (cofactoring each listed
    /// variable to the given constant).
    pub fn restrict(&mut self, f: Bdd, lits: &[(VarId, bool)]) -> BddResult {
        self.maybe_auto_gc(&[f.0]);
        let mut table = vec![u8::MAX; self.num_vars()];
        for (v, b) in lits {
            table[v.index()] = u8::from(*b);
        }
        let mut cache = std::mem::take(&mut self.scratch_cache);
        cache.clear();
        let r = self.restrict_rec(f.0, &table, &mut cache);
        self.scratch_cache = cache;
        r.map(Bdd)
    }

    fn restrict_rec(
        &mut self,
        f: u32,
        table: &[u8],
        cache: &mut HashMap<u32, u32>,
    ) -> Result<u32, BddError> {
        if f <= TRUE {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f) {
            return Ok(r);
        }
        let node = self.nodes[f as usize];
        let r = match table[node.var as usize] {
            0 => self.restrict_rec(node.lo, table, cache)?,
            1 => self.restrict_rec(node.hi, table, cache)?,
            _ => {
                let lo = self.restrict_rec(node.lo, table, cache)?;
                let hi = self.restrict_rec(node.hi, table, cache)?;
                self.mk(node.var, lo, hi)?
            }
        };
        cache.insert(f, r);
        Ok(r)
    }

    /// Coudert–Madre generalized cofactor `f ⇓ c`: a function that agrees
    /// with `f` everywhere `c` holds, chosen so that BDD paths leaving `c`
    /// are redirected to their nearest sibling inside it. The defining law
    /// is `f ∧ c == constrain(f, c) ∧ c`; outside the care set the result is
    /// arbitrary (and its support may even grow beyond `f`'s — use
    /// [`BddManager::gc_restrict`] when support containment matters).
    /// `constrain(f, 0)` is defined as `0`.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] like every allocating operation.
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, c.0]);
        self.constrain_rec(f.0, c.0).map(Bdd)
    }

    fn constrain_rec(&mut self, f: u32, c: u32) -> Result<u32, BddError> {
        if c == FALSE {
            return Ok(FALSE);
        }
        if c == TRUE || f <= TRUE {
            return Ok(f);
        }
        if f == c {
            return Ok(TRUE);
        }
        if let Some(r) = self.care_cache.get(f, c, CARE_OP_CONSTRAIN) {
            self.stats.constrain_hits += 1;
            return Ok(r);
        }
        self.stats.constrain_misses += 1;
        let top = self.level(f).min(self.level(c));
        let (f0, f1) = self.cofactor(f, top);
        let (c0, c1) = self.cofactor(c, top);
        let r = if c0 == FALSE {
            // The care set forces the variable to 1: descend both sides.
            self.constrain_rec(f1, c1)?
        } else if c1 == FALSE {
            self.constrain_rec(f0, c0)?
        } else {
            let v = self.level2var[top as usize];
            let lo = self.constrain_rec(f0, c0)?;
            let hi = self.constrain_rec(f1, c1)?;
            self.mk(v, lo, hi)?
        };
        self.care_cache.put(f, c, CARE_OP_CONSTRAIN, r);
        Ok(r)
    }

    /// Coudert–Madre sibling-substitution restrict: like
    /// [`BddManager::constrain`] it satisfies `f ∧ c == gc_restrict(f, c) ∧
    /// c`, but care-set variables that do not occur in `f` are quantified
    /// out of `c` first, so the result's support is always a subset of
    /// `f`'s. This is the don't-care minimization operator the reachability
    /// loop uses to shrink frontiers against the reached set.
    /// `gc_restrict(f, 0)` is defined as `0`.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] like every allocating operation.
    pub fn gc_restrict(&mut self, f: Bdd, c: Bdd) -> BddResult {
        self.maybe_auto_gc(&[f.0, c.0]);
        self.gc_restrict_rec(f.0, c.0).map(Bdd)
    }

    fn gc_restrict_rec(&mut self, f: u32, c: u32) -> Result<u32, BddError> {
        if c == FALSE {
            return Ok(FALSE);
        }
        if c == TRUE || f <= TRUE {
            return Ok(f);
        }
        if f == c {
            return Ok(TRUE);
        }
        if let Some(r) = self.care_cache.get(f, c, CARE_OP_RESTRICT) {
            self.stats.restrict_hits += 1;
            return Ok(r);
        }
        self.stats.restrict_misses += 1;
        let flevel = self.level(f);
        let clevel = self.level(c);
        let r = if clevel < flevel {
            // The care set's top variable does not occur in f: existentially
            // quantify it out of c instead of letting it into the result.
            let c0 = self.lo(c);
            let c1 = self.hi(c);
            let c2 = self.ite_rec(c0, TRUE, c1)?; // or(c0, c1)
            self.gc_restrict_rec(f, c2)?
        } else {
            let (f0, f1) = (self.lo(f), self.hi(f));
            let (c0, c1) = self.cofactor(c, flevel);
            if c0 == FALSE {
                self.gc_restrict_rec(f1, c1)?
            } else if c1 == FALSE {
                self.gc_restrict_rec(f0, c0)?
            } else {
                let v = self.level2var[flevel as usize];
                let lo = self.gc_restrict_rec(f0, c0)?;
                let hi = self.gc_restrict_rec(f1, c1)?;
                self.mk(v, lo, hi)?
            }
        };
        self.care_cache.put(f, c, CARE_OP_RESTRICT, r);
        Ok(r)
    }

    /// Marks `f` as a garbage-collection root. Protection is counted: a node
    /// protected twice needs two [`unprotect`](BddManager::unprotect) calls.
    /// Protected nodes (and everything below them) survive both explicit
    /// [`gc`](BddManager::gc) and automatic collection.
    pub fn protect(&mut self, f: Bdd) {
        *self.protected.entry(f.0).or_insert(0) += 1;
    }

    /// Removes one protection count from `f` (no-op if unprotected).
    pub fn unprotect(&mut self, f: Bdd) {
        if let Some(c) = self.protected.get_mut(&f.0) {
            *c -= 1;
            if *c == 0 {
                self.protected.remove(&f.0);
            }
        }
    }

    /// Enables or disables automatic garbage collection.
    ///
    /// While enabled, any handle that is neither protected nor an operand of
    /// the current top-level operation may be invalidated whenever an
    /// operation runs — callers opt in per phase and must protect what they
    /// hold across operations.
    pub fn set_auto_gc(&mut self, enabled: bool) {
        self.auto_gc_enabled = enabled;
        if !enabled {
            self.gc_pending = false;
        }
    }

    /// Sets the live-node count that arms the first automatic collection.
    /// The effective threshold adapts upward when collections reclaim less
    /// than a quarter of the store, and re-anchors at twice the live size
    /// after a productive collection (never below this floor).
    pub fn set_auto_gc_threshold(&mut self, nodes: usize) {
        self.gc_threshold_floor = nodes.max(1);
        self.gc_threshold = self.gc_threshold_floor;
    }

    /// Runs a pending automatic collection at a top-level operation entry.
    /// `operands` are the live inputs of that operation; together with the
    /// protected set they form the root set. Never called from recursion, so
    /// in-flight intermediate results cannot be reclaimed.
    fn maybe_auto_gc(&mut self, operands: &[u32]) {
        if !self.auto_gc_enabled || !self.gc_pending || self.reorder_in_progress {
            return;
        }
        self.gc_pending = false;
        let live_before = self.num_nodes();
        let roots: Vec<Bdd> = operands.iter().map(|&n| Bdd(n)).collect();
        let freed = self.gc(&roots); // gc() adds the protected set itself
        self.stats.auto_gc_runs += 1;
        if freed * 4 < live_before {
            // Mostly-live store: re-marking this often does not pay off.
            self.gc_threshold = self.gc_threshold.saturating_mul(2);
        } else {
            self.gc_threshold = (self.num_nodes() * 2).max(self.gc_threshold_floor);
        }
    }

    /// Garbage-collects every node not reachable from `roots` or the
    /// protected set. Returns the number of freed nodes. All operation
    /// caches are cleared; handles to collected nodes become invalid.
    pub fn gc(&mut self, roots: &[Bdd]) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[FALSE as usize] = true;
        marked[TRUE as usize] = true;
        let mut stack: Vec<u32> = roots
            .iter()
            .map(|b| b.0)
            .chain(self.protected.keys().copied())
            .collect();
        while let Some(n) = stack.pop() {
            if marked[n as usize] {
                continue;
            }
            marked[n as usize] = true;
            let node = self.nodes[n as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        // Nodes already freed must stay freed (and not be double-freed).
        let mut already_free = vec![false; self.nodes.len()];
        for &f in &self.free {
            already_free[f as usize] = true;
        }
        let mut freed = 0;
        for idx in 2..self.nodes.len() as u32 {
            if marked[idx as usize] || already_free[idx as usize] {
                continue;
            }
            let var = self.nodes[idx as usize].var;
            self.unlink_node(idx, var);
            self.free.push(idx);
            freed += 1;
        }
        if freed > 0 {
            // One rebuild pass beats shifting clusters once per dead entry.
            let end = self.nodes.len() as u32;
            self.unique.rebuild(
                (2..end).filter(|&i| marked[i as usize] && !already_free[i as usize]),
                &self.nodes,
            );
        }
        self.clear_caches();
        self.stats.gc_runs += 1;
        self.stats.gc_nodes_freed += freed as u64;
        freed
    }

    /// Structural invariant check for tests: the variable levels form a
    /// permutation, and the unique table holds exactly the allocated nodes,
    /// each non-redundant, ordered above its children, pointing at no freed
    /// node, listed under its own variable and findable under its own key.
    /// Returns a description of the first violation.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (l, &v) in self.level2var.iter().enumerate() {
            if self.var2level[v as usize] as usize != l {
                return Err(format!("level {l} holds v{v}, whose level is not {l}"));
            }
        }
        let mut is_free = vec![false; self.nodes.len()];
        for &f in &self.free {
            is_free[f as usize] = true;
        }
        let mut listed = 0usize;
        for (v, &head) in self.var_head.iter().enumerate() {
            let mut count = 0usize;
            let mut cur = head;
            while cur != NIL {
                let n = self.nodes[cur as usize];
                if n.var as usize != v || is_free[cur as usize] {
                    return Err(format!(
                        "node {cur} is listed under v{v} but is not a v{v} node"
                    ));
                }
                if n.lo == n.hi {
                    return Err(format!("redundant node {cur}: lo == hi == {}", n.lo));
                }
                if is_free[n.lo as usize] || is_free[n.hi as usize] {
                    return Err(format!("node {cur} points at a freed node"));
                }
                let level = self.var2level[v];
                if self.level(n.lo) <= level || self.level(n.hi) <= level {
                    return Err(format!("node {cur} violates the variable order"));
                }
                if self.unique.find(n.var, n.lo, n.hi, &self.nodes) != Some(cur) {
                    return Err(format!("node {cur} is not findable under its own key"));
                }
                count += 1;
                cur = self.link_next[cur as usize];
            }
            if count != self.var_count[v] {
                return Err(format!(
                    "v{v} lists {count} nodes but counts {}",
                    self.var_count[v]
                ));
            }
            listed += count;
        }
        if listed != self.num_nodes() {
            return Err(format!(
                "{} allocated nodes but {listed} listed",
                self.num_nodes()
            ));
        }
        if self.unique.len() != listed {
            return Err(format!(
                "unique table holds {} entries for {listed} nodes",
                self.unique.len()
            ));
        }
        Ok(())
    }

    /// Clears all memoization caches (needed after garbage collection; cheap
    /// otherwise).
    pub fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.exists_cache.clear();
        self.and_exists_cache.clear();
        self.care_cache.clear();
    }

    /// Number of internal nodes reachable from `f` (the usual BDD size
    /// metric).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            count += 1;
            let node = self.nodes[n as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// The set of variables occurring in `f`, in ascending id order.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n as usize];
            vars.insert(VarId(node.var));
            stack.push(node.lo);
            stack.push(node.hi);
        }
        vars.into_iter().collect()
    }

    /// The variable and cofactors of an internal node (`None` for the
    /// terminals). Together with [`BddManager::make_node`] this supports
    /// structural transfer of BDDs between managers, as the
    /// [`store`](crate::store) does.
    pub fn node_info(&self, f: Bdd) -> Option<(VarId, Bdd, Bdd)> {
        let n = self.nodes[f.0 as usize];
        (n.var != TERMINAL_VAR).then_some((VarId(n.var), Bdd(n.lo), Bdd(n.hi)))
    }

    /// Finds or creates the internal node `v ? hi : lo` from existing
    /// handles (hash-consed: returns the canonical node, or `lo` when
    /// `lo == hi`). `lo` and `hi` must already be ordered strictly below
    /// `v`'s level — guaranteed when copying a BDD bottom-up from a manager
    /// with the same variable order. Unlike the boolean operations this
    /// never triggers the automatic collector, so a multi-call import cannot
    /// have its earlier nodes reclaimed mid-copy.
    pub fn make_node(&mut self, v: VarId, lo: Bdd, hi: Bdd) -> BddResult {
        self.mk(v.0, lo.0, hi.0).map(Bdd)
    }

    /// Low child accessor used by the analysis module.
    pub(crate) fn node(&self, n: u32) -> Node {
        self.nodes[n as usize]
    }

    // ----- reorder support (see crate::reorder) ---------------------------

    /// Total unique-table entries: the sifting size metric, O(1).
    pub(crate) fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Live nodes currently labeled `var`, O(1).
    pub(crate) fn var_len(&self, var: u32) -> usize {
        self.var_count[var as usize]
    }

    /// The nodes labeled `x` with at least one child labeled `y` — exactly
    /// the nodes an adjacent-level swap of `x` above `y` must rewrite.
    pub(crate) fn var_nodes_depending_on(&self, x: u32, y: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.var_head[x as usize];
        while cur != NIL {
            let n = self.nodes[cur as usize];
            if self.nodes[n.lo as usize].var == y || self.nodes[n.hi as usize].var == y {
                out.push(cur);
            }
            cur = self.link_next[cur as usize];
        }
        out
    }

    /// Removes a node's unique-table entry (the node stays allocated).
    pub(crate) fn unique_remove_node(&mut self, idx: u32) {
        let n = self.nodes[idx as usize];
        let removed = self.unique.remove(n.var, n.lo, n.hi, &self.nodes);
        debug_assert!(removed, "node missing from the unique table");
    }

    /// Relabels a node in place (reordering) and re-registers it under the
    /// new key. The old key must already be removed via
    /// [`Self::unique_remove_node`].
    pub(crate) fn relabel_node(&mut self, idx: u32, var: u32, lo: u32, hi: u32) {
        let old_var = self.nodes[idx as usize].var;
        self.unlink_node(idx, old_var);
        self.nodes[idx as usize] = Node { var, lo, hi };
        self.link_node(idx, var);
        self.stats.unique_probes += 1;
        match self
            .unique
            .probe(var, lo, hi, &self.nodes, &mut self.stats.unique_collisions)
        {
            Probe::Vacant(slot) => self.unique.insert(slot, idx),
            Probe::Found(_) => unreachable!("swap collided in the unique table"),
        }
    }

    /// Starts reorder-scoped reference counting. The store must hold no
    /// garbage (collect with the same `roots` first): every node then counts
    /// its parents, plus one per entry of `roots` and per protected node.
    pub(crate) fn start_reorder_refs(&mut self, roots: &[Bdd]) {
        let mut refs = vec![0u32; self.nodes.len()];
        for &head in &self.var_head {
            let mut cur = head;
            while cur != NIL {
                let n = self.nodes[cur as usize];
                refs[n.lo as usize] += 1;
                refs[n.hi as usize] += 1;
                cur = self.link_next[cur as usize];
            }
        }
        for n in roots
            .iter()
            .map(|b| b.0)
            .chain(self.protected.keys().copied())
        {
            refs[n as usize] += 1;
        }
        self.reorder_refs = refs;
    }

    /// Takes one reference to `n` while reference counting is active;
    /// sizes the counts for nodes allocated since it started.
    pub(crate) fn take_ref(&mut self, n: u32) {
        if self.reorder_refs.len() < self.nodes.len() {
            self.reorder_refs.resize(self.nodes.len(), 0);
        }
        self.reorder_refs[n as usize] += 1;
    }

    /// Whether `n` has no references yet: true exactly for a node `mk` just
    /// allocated while reference counting is active.
    pub(crate) fn is_unreferenced(&self, n: u32) -> bool {
        n > TRUE && self.reorder_refs.get(n as usize).is_none_or(|&r| r == 0)
    }

    /// Drops one reference from each node in `released` and frees every
    /// node whose count reaches zero, cascading to its children. Callers
    /// must take all new references before releasing, so no freed node can
    /// be needed again.
    pub(crate) fn release_refs(&mut self, released: &[u32]) {
        let mut dead = Vec::new();
        for &n in released {
            self.drop_ref(n, &mut dead);
        }
        while let Some(d) = dead.pop() {
            let node = self.nodes[d as usize];
            self.unique_remove_node(d);
            self.unlink_node(d, node.var);
            self.free.push(d);
            self.drop_ref(node.lo, &mut dead);
            self.drop_ref(node.hi, &mut dead);
        }
    }

    fn drop_ref(&mut self, n: u32, dead: &mut Vec<u32>) {
        if n > TRUE {
            let r = &mut self.reorder_refs[n as usize];
            *r -= 1;
            if *r == 0 {
                dead.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let (fa, fb, fc) = (m.var(a), m.var(b), m.var(c));
        (m, fa, fb, fc)
    }

    #[test]
    fn hash_consing_gives_identity() {
        let (mut m, a, b, _) = setup3();
        let ab1 = m.and(a, b).unwrap();
        let ab2 = m.and(b, a).unwrap();
        assert_eq!(ab1, ab2);
        let or1 = m.or(a, b).unwrap();
        let nor = m.not(or1).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let and_n = m.and(na, nb).unwrap();
        assert_eq!(nor, and_n); // De Morgan, structurally
    }

    #[test]
    fn terminal_laws() {
        let (mut m, a, _, _) = setup3();
        let one = m.one();
        let zero = m.zero();
        assert_eq!(m.and(a, one).unwrap(), a);
        assert_eq!(m.and(a, zero).unwrap(), zero);
        assert_eq!(m.or(a, zero).unwrap(), a);
        assert_eq!(m.or(a, one).unwrap(), one);
        let na = m.not(a).unwrap();
        assert_eq!(m.and(a, na).unwrap(), zero);
        assert_eq!(m.or(a, na).unwrap(), one);
        let nna = m.not(na).unwrap();
        assert_eq!(nna, a);
    }

    #[test]
    fn xor_and_xnor() {
        let (mut m, a, b, _) = setup3();
        let x = m.xor(a, b).unwrap();
        let xn = m.xnor(a, b).unwrap();
        let nx = m.not(x).unwrap();
        assert_eq!(xn, nx);
        let self_xor = m.xor(a, a).unwrap();
        assert_eq!(self_xor, m.zero());
    }

    #[test]
    fn exists_removes_variable() {
        let (mut m, a, b, _) = setup3();
        let ab = m.and(a, b).unwrap();
        let vb = VarId(1);
        let e = m.exists_one(ab, vb).unwrap();
        assert_eq!(e, a);
        // ∃a,b. a∧b = true
        let cube = m.var_cube([VarId(0), VarId(1)]);
        let e2 = m.exists(ab, cube).unwrap();
        assert_eq!(e2, m.one());
    }

    #[test]
    fn forall_is_dual() {
        let (mut m, a, b, _) = setup3();
        let ab = m.or(a, b).unwrap();
        let cube_b = m.var_cube([VarId(1)]);
        let f = m.forall(ab, cube_b).unwrap();
        // ∀b. a∨b = a
        assert_eq!(f, a);
        let cube_ab = m.var_cube([VarId(0), VarId(1)]);
        let g = m.forall(ab, cube_ab).unwrap();
        assert_eq!(g, m.zero());
    }

    #[test]
    fn and_exists_matches_two_step() {
        let (mut m, a, b, c) = setup3();
        let f = m.or(a, b).unwrap();
        let g = m.or(b, c).unwrap();
        let cube = m.var_cube([VarId(1)]);
        let fused = m.and_exists(f, g, cube).unwrap();
        let conj = m.and(f, g).unwrap();
        let two_step = m.exists(conj, cube).unwrap();
        assert_eq!(fused, two_step);
    }

    #[test]
    fn permute_renames() {
        let (mut m, a, b, c) = setup3();
        let f = m.and(a, b).unwrap();
        // rename b -> c
        let g = m.permute(f, &[(VarId(1), VarId(2))]).unwrap();
        let expected = m.and(a, c).unwrap();
        assert_eq!(g, expected);
    }

    #[test]
    fn permute_swap_violating_order() {
        let (mut m, a, _, c) = setup3();
        // f depends on a (level 0) and c (level 2); swap them.
        let nc = m.not(c).unwrap();
        let f = m.and(a, nc).unwrap();
        let g = m
            .permute(f, &[(VarId(0), VarId(2)), (VarId(2), VarId(0))])
            .unwrap();
        let na = m.not(a).unwrap();
        let expected = m.and(c, na).unwrap();
        assert_eq!(g, expected);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, a, b, _) = setup3();
        let f = m.xor(a, b).unwrap();
        let r1 = m.restrict(f, &[(VarId(0), true)]).unwrap();
        let nb = m.not(b).unwrap();
        assert_eq!(r1, nb);
        let r0 = m.restrict(f, &[(VarId(0), false)]).unwrap();
        assert_eq!(r0, b);
    }

    #[test]
    fn cube_builds_conjunction() {
        let (mut m, a, b, _) = setup3();
        let cube = m.cube([(VarId(0), true), (VarId(1), false)]);
        let nb = m.not(b).unwrap();
        let expected = m.and(a, nb).unwrap();
        assert_eq!(cube, expected);
    }

    #[test]
    fn constrain_agrees_on_the_care_set() {
        let (mut m, a, b, c) = setup3();
        let f = m.xor(a, b).unwrap();
        let care = m.and(b, c).unwrap();
        let g = m.constrain(f, care).unwrap();
        // f ∧ care == g ∧ care.
        let lhs = m.and(f, care).unwrap();
        let rhs = m.and(g, care).unwrap();
        assert_eq!(lhs, rhs);
        // Identity on the full care set, zero on the empty one.
        assert_eq!(m.constrain(f, m.one()).unwrap(), f);
        assert_eq!(m.constrain(f, m.zero()).unwrap(), m.zero());
        // Constraining f by itself collapses to true.
        assert_eq!(m.constrain(f, f).unwrap(), m.one());
    }

    #[test]
    fn gc_restrict_keeps_support_within_f() {
        let (mut m, a, b, c) = setup3();
        let f = m.or(a, b).unwrap();
        // The care set mentions c, which f does not.
        let nc = m.not(c).unwrap();
        let care = m.and(b, nc).unwrap();
        let g = m.gc_restrict(f, care).unwrap();
        let lhs = m.and(f, care).unwrap();
        let rhs = m.and(g, care).unwrap();
        assert_eq!(lhs, rhs);
        let fsup = m.support(f);
        for v in m.support(g) {
            assert!(fsup.contains(&v), "support gained {v}");
        }
        assert_eq!(m.gc_restrict(f, m.one()).unwrap(), f);
    }

    #[test]
    fn care_ops_populate_their_cache_counters() {
        let (mut m, a, b, c) = setup3();
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap();
        let care = m.or(a, b).unwrap();
        let before = m.stats();
        let g1 = m.constrain(f, care).unwrap();
        let mid = m.stats();
        assert!(mid.constrain_misses > before.constrain_misses);
        let g2 = m.constrain(f, care).unwrap();
        assert_eq!(g1, g2);
        let after = m.stats();
        assert!(after.constrain_hits > mid.constrain_hits);
        let r1 = m.gc_restrict(f, care).unwrap();
        let r2 = m.gc_restrict(f, care).unwrap();
        assert_eq!(r1, r2);
        assert!(m.stats().restrict_hits > 0);
        assert!(m.stats().restrict_misses > 0);
    }

    #[test]
    fn node_limit_trips() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..16).map(|_| m.new_var()).collect();
        m.set_node_limit(8);
        // Parity of 16 vars needs ~31 nodes: must exceed the limit.
        let mut acc = m.zero();
        let mut failed = false;
        for v in vars {
            let lit = m.var(v);
            match m.xor(acc, lit) {
                Ok(r) => acc = r,
                Err(BddError::NodeLimit) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("expected NodeLimit, got {e}"),
            }
        }
        assert!(failed);
    }

    #[test]
    fn gc_frees_garbage_and_keeps_roots() {
        let (mut m, a, b, c) = setup3();
        let keep = m.and(a, b).unwrap();
        let junk = m.xor(b, c).unwrap();
        let _ = junk;
        let before = m.num_nodes();
        let freed = m.gc(&[keep]);
        assert!(freed > 0);
        assert_eq!(m.num_nodes(), before - freed);
        // keep still works after gc
        let again = m.and(a, b).unwrap();
        assert_eq!(again, keep);
    }

    #[test]
    fn size_and_support() {
        let (mut m, a, b, c) = setup3();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        assert_eq!(m.support(f), vec![VarId(0), VarId(1), VarId(2)]);
        assert!(m.size(f) >= 3);
        assert_eq!(m.size(m.one()), 0);
    }

    #[test]
    fn var_cube_orders_any_input() {
        let mut m = BddManager::new();
        let vs: Vec<_> = (0..5).map(|_| m.new_var()).collect();
        let c1 = m.var_cube([vs[3], vs[0], vs[4]]);
        let c2 = m.var_cube([vs[4], vs[3], vs[0]]);
        assert_eq!(c1, c2);
    }

    #[test]
    fn stats_count_probes_and_cache_traffic() {
        let (mut m, a, b, _) = setup3();
        let base = m.stats();
        assert!(base.unique_probes > 0, "literal creation probes the table");
        let x = m.xor(a, b).unwrap();
        let s1 = m.stats();
        assert!(s1.ite_misses > base.ite_misses);
        // Repeating the identical operation is answered from the cache.
        let x2 = m.xor(a, b).unwrap();
        assert_eq!(x, x2);
        let s2 = m.stats();
        assert!(s2.ite_hits > s1.ite_hits);
        assert_eq!(s2.ite_misses, s1.ite_misses);
        assert!(s2.peak_nodes >= m.num_nodes());
        m.reset_stats();
        assert_eq!(m.stats(), BddStats::default());
    }

    #[test]
    fn disabled_cache_still_computes_correctly() {
        let mut m = BddManager::new();
        m.set_cache_capacity(0);
        let a = m.new_var();
        let b = m.new_var();
        let (fa, fb) = (m.var(a), m.var(b));
        let x1 = m.xor(fa, fb).unwrap();
        let x2 = m.xor(fa, fb).unwrap();
        assert_eq!(x1, x2);
        let s = m.stats();
        assert_eq!(s.ite_hits, 0, "disabled cache can never hit");
        assert!(s.ite_misses > 0);
    }
}

#[cfg(test)]
mod gc_reuse_tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused() {
        let mut m = BddManager::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let (fa, fb, fc) = (m.var(a), m.var(b), m.var(c));
        let junk1 = m.and(fa, fb).unwrap();
        let junk2 = m.xor(fb, fc).unwrap();
        let _ = (junk1, junk2);
        let before_len = m.nodes.len();
        let freed = m.gc(&[fa, fb, fc]);
        assert!(freed >= 2);
        // New allocations fill the free list before growing the store.
        let again = m.and(fa, fc).unwrap();
        let _ = again;
        assert_eq!(m.nodes.len(), before_len, "store grew despite free slots");
    }

    #[test]
    fn gc_with_duplicate_roots_is_safe() {
        let mut m = BddManager::new();
        let a = m.new_var();
        let fa = m.var(a);
        let na = m.not(fa).unwrap();
        let freed_first = m.gc(&[fa, fa, na, na]);
        assert_eq!(freed_first, 0);
        // Double gc must not double-free.
        let freed_second = m.gc(&[fa]);
        assert_eq!(freed_second, 1); // na is garbage now
        let freed_third = m.gc(&[fa]);
        assert_eq!(freed_third, 0);
    }

    #[test]
    fn set_order_ignores_unknown_vars() {
        let mut m = BddManager::new();
        let a = m.new_var();
        let b = m.new_var();
        // An order listing a var the manager doesn't have is tolerated.
        m.set_order(&[VarId::from_index(99), b, a]);
        assert_eq!(m.current_order(), vec![b, a]);
    }
}

#[cfg(test)]
mod auto_gc_tests {
    use super::*;

    /// Evaluates `f` under an assignment indexed by variable id.
    fn eval(m: &BddManager, f: Bdd, asg: &[bool]) -> bool {
        let mut n = f.0;
        loop {
            if n == FALSE {
                return false;
            }
            if n == TRUE {
                return true;
            }
            let node = m.nodes[n as usize];
            n = if asg[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
        }
    }

    #[test]
    fn protected_roots_survive_auto_gc() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..8).map(|_| m.new_var()).collect();
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let keep = m.and(lits[0], lits[1]).unwrap();
        m.protect(keep);
        // The literals are held across operations too, so they are part of
        // the caller's live set and must be protected like any other root.
        for &l in &lits {
            m.protect(l);
        }
        m.set_auto_gc_threshold(16);
        m.set_auto_gc(true);
        // Churn out garbage until automatic collections must have run. Each
        // round's conjunction chain dies at the next round; only the final
        // `junk` value is an operand (and thus a root) of the next op.
        for round in 0..64 {
            let mut junk = m.zero();
            for (i, &l) in lits.iter().enumerate() {
                let shifted = lits[(i + round) % lits.len()];
                // `junk` is held across the `and` without being one of its
                // operands, so it needs transient protection.
                m.protect(junk);
                let t = m.and(l, shifted).unwrap();
                m.unprotect(junk);
                junk = m.or(junk, t).unwrap();
            }
            let _ = junk;
        }
        let s = m.stats();
        assert!(s.auto_gc_runs > 0, "auto-GC never triggered");
        assert!(s.gc_nodes_freed > 0, "auto-GC reclaimed nothing");
        // The protected root still denotes l0 ∧ l1.
        let mut asg = vec![false; 8];
        assert!(!eval(&m, keep, &asg));
        asg[0] = true;
        asg[1] = true;
        assert!(eval(&m, keep, &asg));
        asg[1] = false;
        assert!(!eval(&m, keep, &asg));
        // And hash-consing still finds it (handles stayed valid).
        let again = m.and(lits[0], lits[1]).unwrap();
        assert_eq!(again, keep);
    }

    #[test]
    fn dead_nodes_are_reclaimed_by_the_trigger() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..10).map(|_| m.new_var()).collect();
        m.set_auto_gc_threshold(32);
        m.set_auto_gc(true);
        for _ in 0..200 {
            // Every iteration's parity chain becomes garbage immediately.
            let mut acc = m.zero();
            for &v in &vars {
                let l = m.var(v);
                acc = m.xor(acc, l).unwrap();
            }
            let _ = acc;
        }
        let s = m.stats();
        assert!(s.auto_gc_runs > 0);
        // The store stayed bounded instead of accumulating 200 chains.
        assert!(
            m.num_nodes() < 200 * 10,
            "auto-GC failed to bound the store: {} nodes",
            m.num_nodes()
        );
    }

    #[test]
    fn unprotect_makes_roots_collectible_again() {
        let mut m = BddManager::new();
        let a = m.new_var();
        let b = m.new_var();
        let (fa, fb) = (m.var(a), m.var(b));
        let f = m.and(fa, fb).unwrap();
        m.protect(f);
        m.protect(f); // counted twice
        assert_eq!(m.gc(&[fa, fb]), 0);
        m.unprotect(f);
        assert_eq!(m.gc(&[fa, fb]), 0, "still protected once");
        m.unprotect(f);
        assert_eq!(m.gc(&[fa, fb]), 1, "f is garbage after full unprotect");
    }

    #[test]
    fn operands_survive_auto_gc_in_derived_ops() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..6).map(|_| m.new_var()).collect();
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        m.set_auto_gc_threshold(4); // collect as aggressively as possible
        m.set_auto_gc(true);
        // and_many / or_many internally protect pending operands; the result
        // must match the auto-GC-free computation. `all` is held across the
        // or_many call, so the caller protects it.
        let all = m.and_many(lits.iter().copied()).unwrap();
        m.protect(all);
        let any = m.or_many(lits.iter().copied()).unwrap();
        m.protect(any);
        let mut m2 = BddManager::new();
        let vars2: Vec<_> = (0..6).map(|_| m2.new_var()).collect();
        let lits2: Vec<Bdd> = vars2.iter().map(|&v| m2.var(v)).collect();
        let all2 = m2.and_many(lits2.iter().copied()).unwrap();
        let any2 = m2.or_many(lits2.iter().copied()).unwrap();
        assert_eq!(m.size(all), m2.size(all2));
        assert_eq!(m.size(any), m2.size(any2));
    }
}
