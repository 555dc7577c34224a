//! Kernel performance counters.

use std::fmt;

/// Performance counters maintained by a [`BddManager`](crate::BddManager).
///
/// Counters accumulate from manager creation (or the last
/// [`reset_stats`](crate::BddManager::reset_stats)) and are cheap enough to
/// keep always-on: every field is a plain integer bumped on an already-taken
/// branch. Higher layers snapshot them per phase (`ReachResult`,
/// `PlainReport`, `RfnStats`) and the bench bins print them per property.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Unique-table lookups (one per `mk` that reaches the table).
    pub unique_probes: u64,
    /// Extra slot inspections beyond the home slot during unique-table
    /// lookups (linear-probing displacement).
    pub unique_collisions: u64,
    /// ITE cache hits.
    pub ite_hits: u64,
    /// ITE cache misses.
    pub ite_misses: u64,
    /// Exists cache hits.
    pub exists_hits: u64,
    /// Exists cache misses.
    pub exists_misses: u64,
    /// And-exists (relational product) cache hits.
    pub and_exists_hits: u64,
    /// And-exists (relational product) cache misses.
    pub and_exists_misses: u64,
    /// Generalized-cofactor (`constrain`) cache hits.
    pub constrain_hits: u64,
    /// Generalized-cofactor (`constrain`) cache misses.
    pub constrain_misses: u64,
    /// Care-set restrict (`gc_restrict`) cache hits.
    pub restrict_hits: u64,
    /// Care-set restrict (`gc_restrict`) cache misses.
    pub restrict_misses: u64,
    /// Garbage collections run (manual and automatic).
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub gc_nodes_freed: u64,
    /// Automatic collections triggered by the dead-node heuristic.
    pub auto_gc_runs: u64,
    /// High-water mark of live nodes.
    pub peak_nodes: usize,
    /// Sift passes run ([`sift_with_roots`](crate::BddManager::sift_with_roots)
    /// calls and passes [`scheduled_sift`](crate::BddManager::scheduled_sift)
    /// ran).
    pub sift_runs: u64,
    /// Total live nodes removed by sift passes (summed `before - after`
    /// over passes that shrank the table).
    pub sift_nodes_shrunk: u64,
    /// Sift passes that failed [`sift_profitable`](crate::sift_profitable)
    /// (the model checker's run-scoped trigger floor keys off this).
    pub unprofitable_sifts: u64,
    /// Total wall-clock microseconds spent inside sift passes.
    pub sift_us: u64,
}

impl BddStats {
    /// Accumulates another snapshot into `self`: counters add up, the peak
    /// takes the maximum. Used when one verification run spans several
    /// managers (e.g. one per refinement iteration).
    pub fn merge(&mut self, other: &BddStats) {
        self.unique_probes += other.unique_probes;
        self.unique_collisions += other.unique_collisions;
        self.ite_hits += other.ite_hits;
        self.ite_misses += other.ite_misses;
        self.exists_hits += other.exists_hits;
        self.exists_misses += other.exists_misses;
        self.and_exists_hits += other.and_exists_hits;
        self.and_exists_misses += other.and_exists_misses;
        self.constrain_hits += other.constrain_hits;
        self.constrain_misses += other.constrain_misses;
        self.restrict_hits += other.restrict_hits;
        self.restrict_misses += other.restrict_misses;
        self.gc_runs += other.gc_runs;
        self.gc_nodes_freed += other.gc_nodes_freed;
        self.auto_gc_runs += other.auto_gc_runs;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        self.sift_runs += other.sift_runs;
        self.sift_nodes_shrunk += other.sift_nodes_shrunk;
        self.unprofitable_sifts += other.unprofitable_sifts;
        self.sift_us += other.sift_us;
    }

    /// Combined hit rate over all operation caches, in `[0, 1]`.
    /// Returns 0 when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.ite_hits
            + self.exists_hits
            + self.and_exists_hits
            + self.constrain_hits
            + self.restrict_hits;
        let total = hits
            + self.ite_misses
            + self.exists_misses
            + self.and_exists_misses
            + self.constrain_misses
            + self.restrict_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Hit rate of the care-set operator cache (`constrain` +
    /// `gc_restrict`), in `[0, 1]`. Returns 0 when no lookups happened.
    pub fn restrict_hit_rate(&self) -> f64 {
        let hits = self.constrain_hits + self.restrict_hits;
        let total = hits + self.constrain_misses + self.restrict_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl fmt::Display for BddStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probes {} (coll {:.2}/probe), cache hit {:.1}% (ite {}/{}, ex {}/{}, andex {}/{}, care {}/{}), gc {} ({} auto, {} freed), peak {}",
            self.unique_probes,
            if self.unique_probes == 0 {
                0.0
            } else {
                self.unique_collisions as f64 / self.unique_probes as f64
            },
            100.0 * self.cache_hit_rate(),
            self.ite_hits,
            self.ite_misses,
            self.exists_hits,
            self.exists_misses,
            self.and_exists_hits,
            self.and_exists_misses,
            self.constrain_hits + self.restrict_hits,
            self.constrain_misses + self.restrict_misses,
            self.gc_runs,
            self.auto_gc_runs,
            self.gc_nodes_freed,
            self.peak_nodes,
        )?;
        // Sift counters: only reordering runs print them, so reorder-free
        // output stays byte-identical.
        if self.sift_runs > 0 {
            write!(
                f,
                ", sifts {} ({} unprofitable, {} shrunk, {:.1} ms)",
                self.sift_runs,
                self.unprofitable_sifts,
                self.sift_nodes_shrunk,
                self.sift_us as f64 / 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_peak() {
        let mut a = BddStats {
            unique_probes: 10,
            ite_hits: 3,
            ite_misses: 7,
            peak_nodes: 100,
            ..BddStats::default()
        };
        let b = BddStats {
            unique_probes: 5,
            ite_hits: 1,
            gc_runs: 2,
            peak_nodes: 50,
            ..BddStats::default()
        };
        a.merge(&b);
        assert_eq!(a.unique_probes, 15);
        assert_eq!(a.ite_hits, 4);
        assert_eq!(a.gc_runs, 2);
        assert_eq!(a.peak_nodes, 100);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        assert_eq!(BddStats::default().cache_hit_rate(), 0.0);
        let s = BddStats {
            ite_hits: 3,
            ite_misses: 1,
            ..BddStats::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-9);
    }
}
