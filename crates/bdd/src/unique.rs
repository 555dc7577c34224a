//! The hash-consing unique table: one open-addressing array for all
//! variables.
//!
//! The seed kernel kept a `HashMap<(u32, u32), u32>` per variable, paying
//! SipHash plus tuple-key hashing on the hottest path in the whole checker
//! (`mk` runs once per node visit of every apply operation). This table
//! replaces all of them with a single power-of-two slot array:
//!
//! * each slot holds a node index (`u32`), or [`EMPTY`];
//! * the key — the `(var, lo, hi)` triple — is *not* stored; it lives in the
//!   node store itself, so a probe compares against `nodes[slot]`;
//! * the probe sequence is linear, starting from a multiplicative
//!   (Fibonacci) hash of the packed triple;
//! * deletion (needed by reordering, which relabels nodes in place) uses
//!   backward-shift compaction, so there are no tombstones and load stays
//!   exact;
//! * after garbage collection the manager rebuilds the table from the live
//!   nodes instead of deleting one entry at a time.
//!
//! The table grows at ¾ load, keeping expected probe lengths short.

use crate::manager::Node;

/// Sentinel for a vacant slot. Node indices are far below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Initial slot count (power of two).
const INITIAL_SLOTS: usize = 1 << 12;

/// Outcome of a probe: the node was found, or it belongs in `slot`.
pub(crate) enum Probe {
    Found(u32),
    Vacant(usize),
}

pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    len: usize,
}

#[inline]
fn hash(var: u32, lo: u32, hi: u32) -> u64 {
    let k = (u64::from(lo) | (u64::from(hi) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    k ^ u64::from(var).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

impl UniqueTable {
    pub(crate) fn new() -> Self {
        UniqueTable {
            slots: vec![EMPTY; INITIAL_SLOTS],
            len: 0,
        }
    }

    /// Number of stored nodes. This is the sifting size metric, O(1).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Current allocated slot count (for memory accounting).
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn index(&self, var: u32, lo: u32, hi: u32) -> usize {
        (hash(var, lo, hi) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Looks up `(var, lo, hi)`, growing first if an insert would pass ¾
    /// load so the returned vacant slot stays valid for [`Self::insert`].
    /// `collisions` counts inspected slots beyond the home slot.
    pub(crate) fn probe(
        &mut self,
        var: u32,
        lo: u32,
        hi: u32,
        nodes: &[Node],
        collisions: &mut u64,
    ) -> Probe {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(nodes);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.index(var, lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Probe::Vacant(i);
            }
            let n = &nodes[s as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Probe::Found(s);
            }
            *collisions += 1;
            i = (i + 1) & mask;
        }
    }

    /// Looks up `(var, lo, hi)` without growing or counting collisions.
    pub(crate) fn find(&self, var: u32, lo: u32, hi: u32, nodes: &[Node]) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.index(var, lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            let n = &nodes[s as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Fills a vacant slot returned by [`Self::probe`]. No table mutation may
    /// happen between the probe and the insert.
    #[inline]
    pub(crate) fn insert(&mut self, slot: usize, idx: u32) {
        debug_assert_eq!(self.slots[slot], EMPTY);
        self.slots[slot] = idx;
        self.len += 1;
    }

    /// Removes `(var, lo, hi)` using backward-shift compaction. Returns
    /// whether the key was present.
    pub(crate) fn remove(&mut self, var: u32, lo: u32, hi: u32, nodes: &[Node]) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.index(var, lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return false;
            }
            let n = &nodes[s as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                break;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = EMPTY;
        self.len -= 1;
        // Backward shift: walk the cluster after `i`; any element whose home
        // slot does not lie in the open interval `(i, j]` (cyclically) would
        // become unreachable through the hole, so move it into the hole and
        // continue from its old position.
        let mut j = (i + 1) & mask;
        while self.slots[j] != EMPTY {
            let s = self.slots[j];
            let n = &nodes[s as usize];
            let home = self.index(n.var, n.lo, n.hi);
            let dist_home = j.wrapping_sub(home) & mask;
            let dist_hole = j.wrapping_sub(i) & mask;
            if dist_home >= dist_hole {
                self.slots[i] = s;
                self.slots[j] = EMPTY;
                i = j;
            }
            j = (j + 1) & mask;
        }
        true
    }

    /// Clears the table and re-inserts the given live nodes, resizing to fit
    /// them at ≤ ½ load. Used after garbage collection, where deleting dead
    /// entries one by one would shift the same clusters repeatedly.
    pub(crate) fn rebuild(&mut self, live: impl Iterator<Item = u32>, nodes: &[Node]) {
        self.len = 0;
        for s in &mut self.slots {
            *s = EMPTY;
        }
        for idx in live {
            let n = &nodes[idx as usize];
            // Probe without the growth check: rebuild() sizes up front.
            let mask = self.slots.len() - 1;
            let mut i = self.index(n.var, n.lo, n.hi);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx;
            self.len += 1;
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow(nodes);
            }
        }
    }

    fn grow(&mut self, nodes: &[Node]) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; doubled]);
        let mask = self.slots.len() - 1;
        for idx in old {
            if idx == EMPTY {
                continue;
            }
            let n = &nodes[idx as usize];
            let mut i = self.index(n.var, n.lo, n.hi);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_must_insert(t: &mut UniqueTable, nodes: &[Node], idx: u32) {
        let n = nodes[idx as usize];
        let mut c = 0;
        match t.probe(n.var, n.lo, n.hi, nodes, &mut c) {
            Probe::Vacant(slot) => t.insert(slot, idx),
            Probe::Found(_) => panic!("unexpected duplicate"),
        }
    }

    fn find(t: &mut UniqueTable, nodes: &[Node], var: u32, lo: u32, hi: u32) -> Option<u32> {
        let mut c = 0;
        match t.probe(var, lo, hi, nodes, &mut c) {
            Probe::Found(i) => Some(i),
            Probe::Vacant(_) => None,
        }
    }

    /// Builds a node store with `n` distinct dummy triples.
    fn store(n: u32) -> Vec<Node> {
        (0..n)
            .map(|i| Node {
                var: i % 7,
                lo: i,
                hi: i.wrapping_add(1),
            })
            .collect()
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let nodes = store(10_000);
        let mut t = UniqueTable::new();
        for i in 0..nodes.len() as u32 {
            probe_must_insert(&mut t, &nodes, i);
        }
        assert_eq!(t.len(), nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(find(&mut t, &nodes, n.var, n.lo, n.hi), Some(i as u32));
        }
        // Remove every third entry; the rest must stay findable (this is what
        // exercises backward-shift correctness).
        for (i, n) in nodes.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(n.var, n.lo, n.hi, &nodes));
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            let got = find(&mut t, &nodes, n.var, n.lo, n.hi);
            if i % 3 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(i as u32));
            }
        }
    }

    #[test]
    fn remove_absent_is_false() {
        let nodes = store(4);
        let mut t = UniqueTable::new();
        probe_must_insert(&mut t, &nodes, 0);
        assert!(!t.remove(99, 99, 99, &nodes));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rebuild_keeps_exactly_the_live_set() {
        let nodes = store(1000);
        let mut t = UniqueTable::new();
        for i in 0..nodes.len() as u32 {
            probe_must_insert(&mut t, &nodes, i);
        }
        t.rebuild((0..nodes.len() as u32).filter(|i| i % 2 == 0), &nodes);
        assert_eq!(t.len(), 500);
        for (i, n) in nodes.iter().enumerate() {
            let got = find(&mut t, &nodes, n.var, n.lo, n.hi);
            assert_eq!(got.is_some(), i % 2 == 0);
        }
    }
}
