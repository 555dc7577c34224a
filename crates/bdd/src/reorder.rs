//! Dynamic variable reordering by group sifting.
//!
//! Reordering happens *in place*: an adjacent-level swap rewrites the nodes
//! labeled with the upper variable and relabels them with the lower one,
//! preserving the boolean function denoted by every node index. External
//! [`Bdd`](crate::Bdd) handles therefore stay valid across reordering, and
//! operation caches remain sound (they are keyed on node identities whose
//! semantics do not change; a sift pass, which also frees nodes, opens with
//! a collection that empties them, and swaps never add entries).
//!
//! Variables created together with
//! [`BddManager::new_var_group`](crate::BddManager::new_var_group) always
//! occupy adjacent levels and move as one block, which keeps current/next
//! state variable pairs interleaved — the property the model checker's
//! renaming step relies on.
//!
//! The size metric sifting minimizes is the number of unique-table entries,
//! and it is exact: a pass opens with one collection against its roots,
//! then keeps reference counts for the duration of the pass (CUDD-style:
//! parents, plus one per root and per protected node). Each swap counts the
//! nodes it creates, releases the children it stops using and frees every
//! node that drops to zero, so the table holds exactly the live nodes after
//! every swap and a group's walk sees the true size at each position.

use std::time::Instant;

use crate::manager::BddManager;
use crate::{Bdd, VarId};

/// Groups whose unique tables hold at most this many nodes are not sifted.
pub const SIFT_MIN_GROUP_SIZE: usize = 4;
/// At most this many groups are sifted per pass (largest first).
pub const SIFT_MAX_GROUPS: usize = 128;
/// Unique-table probes a scheduled sift pass may always spend (a few
/// milliseconds of swaps), so passes on small tables run in full. Above
/// this, a pass may spend what the operations since the previous pass did.
pub const SIFT_MIN_ALLOWANCE: u64 = 1 << 20;

/// The one profitability rule for sift passes: a pass pays when it shrinks
/// the live node count by at least 1/16 (~6%). Unprofitable passes are
/// what [`BddStats::unprofitable_sifts`](crate::BddStats::unprofitable_sifts)
/// counts and what makes the model checker's run-scoped trigger floor
/// double.
pub fn sift_profitable(before: usize, after: usize) -> bool {
    after < before && (before - after) * 16 >= before
}

/// Decides *when* a scheduled sift pass runs.
///
/// [`BddManager::scheduled_sift`] asks [`should_sift`](DvoSchedule::should_sift)
/// first with the allocated node count, which includes garbage, and — only
/// if that says yes — again with the live count after a collection. When a
/// sift runs, the outcome goes back through
/// [`record_sift`](DvoSchedule::record_sift). The model checker's trigger is
/// [`DoublingTrigger`]; other implementations let tests force a pass.
pub trait DvoSchedule {
    /// Whether a sift pass should run now, given a node count of the
    /// manager. Must not change the schedule's state: it is asked twice per
    /// checkpoint.
    fn should_sift(&mut self, live_nodes: usize) -> bool;

    /// Records the outcome of a sift pass this schedule triggered:
    /// live node counts immediately before and after the pass.
    fn record_sift(&mut self, before: usize, after: usize);
}

/// The reorder trigger the model checker polls after each image: sift when
/// live nodes exceed a threshold, which starts at the trigger floor. After
/// each pass the threshold becomes twice the post-sift size, and it never
/// shrinks. Build a fresh one per fixpoint.
#[derive(Clone, Copy, Debug)]
pub struct DoublingTrigger {
    threshold: usize,
}

impl DoublingTrigger {
    /// A trigger that first fires once live nodes exceed `floor`.
    pub fn new(floor: usize) -> Self {
        DoublingTrigger { threshold: floor }
    }
}

impl DvoSchedule for DoublingTrigger {
    fn should_sift(&mut self, live_nodes: usize) -> bool {
        live_nodes > self.threshold
    }
    fn record_sift(&mut self, _before: usize, after: usize) {
        self.threshold = (after * 2).max(self.threshold);
    }
}

impl BddManager {
    /// Swaps the variables at levels `l` and `l + 1`, preserving the function
    /// of every node index.
    ///
    /// # Panics
    ///
    /// Panics if `l + 1` is not a valid level.
    pub(crate) fn swap_adjacent_levels(&mut self, l: usize) {
        let x = self.level2var[l];
        let y = self.level2var[l + 1];
        // Collect the x-labeled nodes that depend on y (via x's node list).
        // Everything else is untouched by the swap.
        let affected = self.var_nodes_depending_on(x, y);
        // Remove them from the unique table first so rebuilt (x, …) nodes can
        // never alias a node that is about to be relabeled.
        for &idx in &affected {
            self.unique_remove_node(idx);
        }
        // While a sift pass counts references, the old children are released
        // only after every new reference is taken, so a node can reach zero
        // once at most and nothing freed is needed again.
        let counting = !self.reorder_refs.is_empty();
        let mut released = Vec::new();
        for &idx in &affected {
            let n = self.nodes[idx as usize];
            let (lo0, lo1) = if self.nodes[n.lo as usize].var == y {
                (self.nodes[n.lo as usize].lo, self.nodes[n.lo as usize].hi)
            } else {
                (n.lo, n.lo)
            };
            let (hi0, hi1) = if self.nodes[n.hi as usize].var == y {
                (self.nodes[n.hi as usize].lo, self.nodes[n.hi as usize].hi)
            } else {
                (n.hi, n.hi)
            };
            let new_lo = self.swap_mk(x, lo0, hi0);
            let new_hi = self.swap_mk(x, lo1, hi1);
            debug_assert_ne!(new_lo, new_hi, "swap produced a redundant node");
            self.relabel_node(idx, y, new_lo, new_hi);
            if counting {
                self.take_ref(new_lo);
                self.take_ref(new_hi);
                released.extend([n.lo, n.hi]);
            }
        }
        self.level2var[l] = y;
        self.level2var[l + 1] = x;
        self.var2level[x as usize] = (l + 1) as u32;
        self.var2level[y as usize] = l as u32;
        if counting {
            self.release_refs(&released);
        }
    }

    /// `mk` for a swap. While references are counted, a node it allocates
    /// takes a reference to each of its children.
    fn swap_mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        let r = self
            .mk(var, lo, hi)
            .expect("reorder bypasses the node limit");
        if !self.reorder_refs.is_empty() && self.is_unreferenced(r) {
            self.take_ref(lo);
            self.take_ref(hi);
        }
        r
    }

    /// Unique-table entries: the size metric sifting minimizes, O(1). Exact
    /// (live nodes only) inside a sift pass.
    fn table_size(&self) -> usize {
        self.unique_len()
    }

    /// The maximal blocks of adjacent levels whose variables share a sifting
    /// group, as `(group_id, start_level, len)`, top to bottom.
    fn blocks(&self) -> Vec<(u32, usize, usize)> {
        let mut out: Vec<(u32, usize, usize)> = Vec::new();
        for l in 0..self.level2var.len() {
            let gid = self.group[self.level2var[l] as usize];
            match out.last_mut() {
                Some((g, _, len)) if *g == gid => *len += 1,
                _ => out.push((gid, l, 1)),
            }
        }
        out
    }

    /// Moves the block starting at level `s` (length `a`) below the block
    /// that follows it (length `b`).
    fn swap_blocks_down(&mut self, s: usize, a: usize, b: usize) {
        for i in (0..a).rev() {
            for l in s + i..s + i + b {
                self.swap_adjacent_levels(l);
            }
        }
    }

    /// Sifts variable groups to locally optimal positions, largest groups
    /// first (Rudell's sifting, on groups). Every node not reachable from
    /// `roots` or the protected set is collected first, so handles outside
    /// both become invalid. Groups whose unique tables hold at most
    /// [`SIFT_MIN_GROUP_SIZE`] nodes are skipped — on models with thousands
    /// of near-empty input variables they cannot shrink anything, and
    /// visiting them would dominate the runtime.
    ///
    /// `growth_limit` bounds the intermediate blow-up: a group's exploration
    /// is cut short once the table grows past `growth_limit` times its size
    /// at the start of that group's sift (1.2 – 2.0 are typical values).
    pub fn sift_with_roots(&mut self, roots: &[Bdd], growth_limit: f64) {
        self.gc(roots);
        self.sift_collected(roots, growth_limit, u64::MAX);
    }

    /// One scheduled reorder step, as the model checker runs it after each
    /// image: when `dvo` asks for a sift at the allocated node count, collect
    /// with `roots` and ask again with the live count; sift (as
    /// [`BddManager::sift_with_roots`]) only if the schedule still says yes,
    /// and report the outcome back to it. Returns the live node counts
    /// before and after the pass, or `None` when no pass ran. Costs at most
    /// one collection when the schedule declines.
    ///
    /// A scheduled pass is also bounded in work: it may spend at most as
    /// many unique-table probes as the operations since the previous pass
    /// did (since the manager started, for the first), or
    /// `SIFT_MIN_ALLOWANCE` (2^20) if that is more, plus the walk that
    /// parks the group in flight. Sifting then costs about as much as the
    /// work it is meant to speed up, at most. On a
    /// multi-million-node table one full pass walks every group past every
    /// level; without the bound, a fixpoint whose images are cheap spends
    /// nearly all its time sifting.
    pub fn scheduled_sift(
        &mut self,
        roots: &[Bdd],
        growth_limit: f64,
        dvo: &mut dyn DvoSchedule,
    ) -> Option<(usize, usize)> {
        if !dvo.should_sift(self.num_nodes()) {
            return None;
        }
        self.gc(roots);
        if !dvo.should_sift(self.num_nodes()) {
            return None;
        }
        let (before, after) = self.sift_collected(roots, growth_limit, self.sift_allowance());
        dvo.record_sift(before, after);
        Some((before, after))
    }

    /// The unique-table probes the next scheduled pass may spend: those of
    /// the operations since the previous pass, and at least
    /// [`SIFT_MIN_ALLOWANCE`].
    fn sift_allowance(&self) -> u64 {
        let earned = self.stats.unique_probes.saturating_sub(self.sift_mark);
        earned.max(SIFT_MIN_ALLOWANCE)
    }

    /// Whether a sift pass must stop improving the order: the governing
    /// budget ran out, or the unique-table probe count reached `stop_at`
    /// (the pass spent its work allowance). Sifting stops at the next
    /// consistent point (a parked group) — the order is valid at every such
    /// point, so stopping early costs quality, not correctness — and the
    /// next governed operation reports any budget exhaustion.
    fn sift_must_stop(&self, stop_at: u64) -> bool {
        self.stats.unique_probes >= stop_at || self.budget().is_some_and(|b| b.check().is_err())
    }

    /// The sift pass proper, on a store just collected with `roots`: counts
    /// references, sifts the candidate groups until the pass has spent
    /// `allowance` unique-table probes, and books the pass into
    /// [`BddStats`](crate::BddStats). Returns the live node counts before
    /// and after. The opening collection emptied the operation caches and
    /// swaps never fill them, so no memo can name a node freed here.
    fn sift_collected(
        &mut self,
        roots: &[Bdd],
        growth_limit: f64,
        allowance: u64,
    ) -> (usize, usize) {
        let was = self.reorder_in_progress;
        self.reorder_in_progress = true;
        let t0 = Instant::now();
        let stop_at = self.stats.unique_probes.saturating_add(allowance);
        self.start_reorder_refs(roots);
        let before = self.table_size();
        for gid in self.sift_candidates() {
            if self.sift_must_stop(stop_at) {
                break;
            }
            self.sift_group(gid, growth_limit, stop_at);
        }
        self.sift_mark = self.stats.unique_probes;
        self.reorder_refs = Vec::new();
        let after = self.table_size();
        self.stats.sift_runs += 1;
        self.stats.sift_nodes_shrunk += before.saturating_sub(after) as u64;
        if !sift_profitable(before, after) {
            self.stats.unprofitable_sifts += 1;
        }
        self.stats.sift_us += t0.elapsed().as_micros() as u64;
        self.reorder_in_progress = was;
        (before, after)
    }

    /// Groups worth sifting, largest first. On small managers every group
    /// is considered; on managers with many variables (abstract models can
    /// have thousands of near-empty input variables) only groups holding
    /// more than [`SIFT_MIN_GROUP_SIZE`] nodes are visited, capped at
    /// [`SIFT_MAX_GROUPS`].
    fn sift_candidates(&self) -> Vec<u32> {
        let blocks = self.blocks();
        let threshold = if blocks.len() <= 64 {
            0
        } else {
            SIFT_MIN_GROUP_SIZE
        };
        let mut group_sizes: Vec<(u32, usize)> = Vec::new();
        for (gid, s, len) in blocks {
            let size: usize = (s..s + len).map(|l| self.var_len(self.level2var[l])).sum();
            if size > threshold {
                group_sizes.push((gid, size));
            }
        }
        group_sizes.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
        group_sizes.truncate(SIFT_MAX_GROUPS);
        group_sizes.into_iter().map(|(gid, _)| gid).collect()
    }

    /// Moves one group down/up through the order and parks it at the best
    /// position seen. The block layout is tracked incrementally: only the
    /// sifted group moves, so a snapshot of `(group, len)` pairs plus the
    /// group's index stays valid throughout — no per-move rescans.
    fn sift_group(&mut self, gid: u32, growth_limit: f64, stop_at: u64) {
        let start_size = self.table_size().max(1);
        let limit = ((start_size as f64) * growth_limit) as usize + 64;
        // Snapshot of the block order as (group, len); `pos` tracks the
        // sifted group; `start_of` computes a block's start level on demand.
        let mut order: Vec<(u32, usize)> = self
            .blocks()
            .into_iter()
            .map(|(g, _, len)| (g, len))
            .collect();
        let start_pos = order
            .iter()
            .position(|&(g, _)| g == gid)
            .expect("group exists");
        let nblocks = order.len();
        let mut pos = start_pos;
        // Start level of the sifted block, maintained incrementally.
        let mut cur_start: usize = order[..pos].iter().map(|&(_, len)| len).sum();
        let mut best = (start_size, start_pos);

        // Explore the shorter side first (plain Rudell heuristic).
        let down_first = start_pos >= nblocks / 2;
        'explore: for phase in 0..2 {
            let go_down = down_first == (phase == 0);
            loop {
                // Block swaps are the unit of work here; polling the budget
                // and the allowance per swap keeps even a single huge
                // group's sift from overshooting either. Parking below still
                // runs, so the group always lands on the best position seen.
                if self.sift_must_stop(stop_at) {
                    break 'explore;
                }
                if go_down {
                    if pos + 1 >= nblocks {
                        break;
                    }
                    let (_, a) = order[pos];
                    let (_, b) = order[pos + 1];
                    self.swap_blocks_down(cur_start, a, b);
                    order.swap(pos, pos + 1);
                    pos += 1;
                    cur_start += b;
                    let sz = self.table_size();
                    if sz < best.0 {
                        best = (sz, pos);
                    }
                    if sz > limit {
                        break;
                    }
                } else {
                    if pos == 0 {
                        break;
                    }
                    let (_, b) = order[pos - 1];
                    let (_, a) = order[pos];
                    self.swap_blocks_down(cur_start - b, b, a);
                    order.swap(pos - 1, pos);
                    pos -= 1;
                    cur_start -= b;
                    let sz = self.table_size();
                    if sz <= best.0 {
                        best = (sz, pos);
                    }
                    if sz > limit {
                        break;
                    }
                }
            }
        }
        // Return to the best position seen.
        while pos < best.1 {
            let (_, a) = order[pos];
            let (_, b) = order[pos + 1];
            self.swap_blocks_down(cur_start, a, b);
            order.swap(pos, pos + 1);
            pos += 1;
            cur_start += b;
        }
        while pos > best.1 {
            let (_, b) = order[pos - 1];
            let (_, a) = order[pos];
            self.swap_blocks_down(cur_start - b, b, a);
            order.swap(pos - 1, pos);
            pos -= 1;
            cur_start -= b;
        }
    }

    /// The current variable order, top level first.
    pub fn current_order(&self) -> Vec<VarId> {
        self.level2var.iter().map(|&v| VarId(v)).collect()
    }

    /// Rearranges the variable order to match `order` (top level first) by
    /// adjacent swaps. Variables missing from `order` keep their relative
    /// order below the listed ones. Group adjacency is *not* enforced here;
    /// pass orders that keep groups contiguous (e.g. one produced by
    /// [`BddManager::current_order`] on a compatibly-grouped manager).
    /// The swaps are reordering work, so they earn the next scheduled sift
    /// pass no allowance.
    pub fn set_order(&mut self, order: &[VarId]) {
        let was = self.reorder_in_progress;
        self.reorder_in_progress = true;
        let probes = self.stats.unique_probes;
        let mut target = 0usize;
        for &v in order {
            if v.index() >= self.num_vars() {
                continue;
            }
            let mut cur = self.var2level[v.index()] as usize;
            while cur > target {
                self.swap_adjacent_levels(cur - 1);
                cur -= 1;
            }
            target += 1;
        }
        self.sift_mark += self.stats.unique_probes - probes;
        self.reorder_in_progress = was;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Bdd, BddManager, DoublingTrigger, DvoSchedule, VarId};

    /// Builds the classic order-sensitive function
    /// f = (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ (x4 ∧ x5) under a deliberately bad
    /// interleaving x0 x2 x4 x1 x3 x5.
    fn order_sensitive() -> (BddManager, Bdd, Vec<VarId>) {
        let mut m = BddManager::new();
        let v: Vec<VarId> = (0..6).map(|_| m.new_var()).collect();
        // Creation order is the level order; pair (v[0],v[3]), (v[1],v[4]),
        // (v[2],v[5]) so partners are far apart.
        let mut f = m.zero();
        for i in 0..3 {
            let a = m.var(v[i]);
            let b = m.var(v[i + 3]);
            let ab = m.and(a, b).unwrap();
            f = m.or(f, ab).unwrap();
        }
        (m, f, v)
    }

    fn eval_all(m: &BddManager, f: Bdd, nvars: usize) -> Vec<bool> {
        (0..1u32 << nvars)
            .map(|bits| {
                let asg: Vec<bool> = (0..nvars).map(|i| bits & (1 << i) != 0).collect();
                m.eval(f, &asg)
            })
            .collect()
    }

    #[test]
    fn single_swap_preserves_semantics() {
        let (mut m, f, _) = order_sensitive();
        let before = eval_all(&m, f, 6);
        m.reorder_in_progress = true;
        m.swap_adjacent_levels(2);
        m.reorder_in_progress = false;
        assert_eq!(eval_all(&m, f, 6), before);
        m.reorder_in_progress = true;
        m.swap_adjacent_levels(0);
        m.swap_adjacent_levels(4);
        m.reorder_in_progress = false;
        assert_eq!(eval_all(&m, f, 6), before);
    }

    #[test]
    fn sifting_shrinks_order_sensitive_function() {
        let (mut m, f, _) = order_sensitive();
        let before_size = m.size(f);
        let before_sem = eval_all(&m, f, 6);
        m.sift_with_roots(&[f], 2.0);
        assert_eq!(eval_all(&m, f, 6), before_sem, "sift changed semantics");
        let after_size = m.size(f);
        assert!(
            after_size < before_size,
            "sift did not shrink: {before_size} -> {after_size}"
        );
        // Sifting is a local heuristic; a second pass converges to the
        // optimum (6 internal nodes) for this function.
        m.sift_with_roots(&[f], 2.0);
        assert_eq!(eval_all(&m, f, 6), before_sem);
        assert_eq!(m.size(f), 6);
    }

    #[test]
    fn set_order_reaches_requested_order() {
        let (mut m, f, v) = order_sensitive();
        let before_sem = eval_all(&m, f, 6);
        let want = vec![v[0], v[3], v[1], v[4], v[2], v[5]];
        m.set_order(&want);
        assert_eq!(m.current_order(), want);
        assert_eq!(eval_all(&m, f, 6), before_sem);
        assert_eq!(m.size(f), 6);
    }

    #[test]
    fn groups_stay_adjacent_under_sifting() {
        let mut m = BddManager::new();
        let g1 = m.new_var_group(2);
        let g2 = m.new_var_group(2);
        let g3 = m.new_var_group(2);
        let all = [g1.clone(), g2.clone(), g3.clone()];
        // Build something order-sensitive across the groups.
        let mut f = m.zero();
        for (a, b) in [(g1[0], g3[1]), (g2[0], g3[0]), (g1[1], g2[1])] {
            let ba = m.var(a);
            let bb = m.var(b);
            let ab = m.and(ba, bb).unwrap();
            f = m.or(f, ab).unwrap();
        }
        let before = eval_all(&m, f, 6);
        m.sift_with_roots(&[f], 2.0);
        assert_eq!(eval_all(&m, f, 6), before);
        // Each group's two variables must sit on adjacent levels.
        for g in &all {
            let l0 = m.level_of(g[0]);
            let l1 = m.level_of(g[1]);
            assert_eq!(l0.abs_diff(l1), 1, "group split apart by sifting");
        }
    }

    #[test]
    fn handles_survive_reordering() {
        let (mut m, f, v) = order_sensitive();
        let a = m.var(v[0]);
        let g = m.and(f, a).unwrap();
        let before_f = eval_all(&m, f, 6);
        let before_g = eval_all(&m, g, 6);
        m.sift_with_roots(&[f, g], 2.0);
        assert_eq!(eval_all(&m, f, 6), before_f);
        assert_eq!(eval_all(&m, g, 6), before_g);
        // Operations keep working after the sift.
        let h = m.or(f, g).unwrap();
        assert_eq!(h, f); // g ⊆ f, so f ∨ g = f
    }

    #[test]
    fn sift_on_empty_manager_is_a_noop() {
        let mut m = BddManager::new();
        m.sift_with_roots(&[], 2.0);
        let _ = m.new_var();
        m.sift_with_roots(&[], 2.0);
        assert_eq!(m.num_vars(), 1);
    }

    /// With reorder-scoped reference counts every swap frees what it
    /// orphans: after each one the table holds exactly the nodes reachable
    /// from the roots and the protected set.
    #[test]
    fn every_counted_swap_leaves_only_live_nodes() {
        let (mut m, f, v) = order_sensitive();
        let a = m.var(v[1]);
        let kept = m.xor(f, a).unwrap();
        m.protect(kept);
        let junk = m.and(f, a).unwrap();
        let _ = junk;
        let sem_f = eval_all(&m, f, 6);
        let sem_kept = eval_all(&m, kept, 6);
        m.gc(&[f]);
        m.reorder_in_progress = true;
        m.start_reorder_refs(&[f]);
        for round in 0..3 {
            for l in 0..5 {
                m.swap_adjacent_levels((l + round) % 5);
                let live: std::collections::HashSet<u32> =
                    reachable(&m, &[f, kept]).into_iter().collect();
                assert_eq!(m.unique_len(), live.len(), "garbage survived a swap");
                m.check_consistency().unwrap();
            }
        }
        m.reorder_refs = Vec::new();
        m.reorder_in_progress = false;
        assert_eq!(eval_all(&m, f, 6), sem_f);
        assert_eq!(eval_all(&m, kept, 6), sem_kept);
    }

    /// Internal nodes reachable from `roots`.
    fn reachable(m: &BddManager, roots: &[Bdd]) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<u32> = roots.iter().map(|b| b.0).collect();
        while let Some(n) = stack.pop() {
            if n > 1 && seen.insert(n) {
                let node = m.node(n);
                stack.extend([node.lo, node.hi]);
            }
        }
        seen.into_iter().collect()
    }

    #[test]
    fn profitability_is_a_sixteenth_of_the_live_count() {
        assert!(super::sift_profitable(16, 15));
        assert!(super::sift_profitable(1600, 1500));
        assert!(!super::sift_profitable(1600, 1501));
        assert!(!super::sift_profitable(16, 16));
        assert!(!super::sift_profitable(0, 0));
    }

    /// The schedule is asked first with the allocated count; when that
    /// includes garbage, a collection decides with the live count and no
    /// pass runs unless the live count still clears the trigger.
    #[test]
    fn scheduled_sift_rechecks_the_live_count() {
        let (mut m, f, v) = order_sensitive();
        // Garbage: many conjunctions nobody keeps.
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (m.var(v[i]), m.nvar(v[j]));
                let ab = m.xor(a, b).unwrap();
                let _ = m.and(f, ab).unwrap();
            }
        }
        let allocated = m.num_nodes();
        let live = m.size(f);
        assert!(
            allocated > live + 4,
            "test needs garbage above the live count"
        );
        let mut dvo = DoublingTrigger::new(live + 1);
        let gc_runs = m.stats().gc_runs;
        assert_eq!(m.scheduled_sift(&[f], 2.0, &mut dvo), None);
        assert_eq!(m.stats().sift_runs, 0);
        assert_eq!(m.stats().gc_runs, gc_runs + 1);
        assert_eq!(m.num_nodes(), live);

        let mut eager = DoublingTrigger::new(1);
        let (before, after) = m.scheduled_sift(&[f], 2.0, &mut eager).unwrap();
        assert_eq!(before, live);
        assert_eq!(after, m.size(f));
        assert_eq!(m.stats().sift_runs, 1);
        // Doubling moved its trigger to twice the post-sift size.
        assert!(!eager.should_sift(2 * after));
    }

    struct Always;

    impl DvoSchedule for Always {
        fn should_sift(&mut self, _live_nodes: usize) -> bool {
            true
        }
        fn record_sift(&mut self, _before: usize, _after: usize) {}
    }

    /// A scheduled pass may spend the unique-table probes of the operations
    /// since the previous pass (at least `SIFT_MIN_ALLOWANCE`); `set_order`
    /// earns nothing, and a pass with no allowance leaves the order alone.
    #[test]
    fn scheduled_sift_spends_only_the_work_since_the_last_pass() {
        let (mut m, f, v) = order_sensitive();
        let sem = eval_all(&m, f, 6);
        m.scheduled_sift(&[f], 2.0, &mut Always).unwrap();
        assert_eq!(m.sift_allowance(), super::SIFT_MIN_ALLOWANCE);
        let mut reversed = v.clone();
        reversed.reverse();
        m.set_order(&reversed);
        assert_eq!(m.sift_allowance(), super::SIFT_MIN_ALLOWANCE);
        // Enough uncached work to earn more than the minimum.
        let start = m.stats().unique_probes;
        m.set_cache_capacity(0);
        let a = m.var(v[0]);
        while m.stats().unique_probes - start <= super::SIFT_MIN_ALLOWANCE {
            let _ = m.xor(f, a).unwrap();
        }
        assert_eq!(m.sift_allowance(), m.stats().unique_probes - start);

        m.gc(&[f]);
        let order = m.current_order();
        let probes = m.stats().unique_probes;
        let (before, after) = m.sift_collected(&[f], 2.0, 0);
        assert_eq!(
            m.stats().unique_probes,
            probes,
            "a pass with no allowance swapped"
        );
        assert_eq!(m.current_order(), order);
        assert_eq!(before, after);
        assert_eq!(eval_all(&m, f, 6), sem);
    }
}
