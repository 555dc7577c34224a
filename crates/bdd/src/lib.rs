//! A reduced ordered binary decision diagram (ROBDD) package for the RFN
//! verification tool.
//!
//! This crate plays the role CUDD played in the original DAC 2001 prototype:
//! it supplies every symbolic operation the model-checking and hybrid engines
//! need. It provides:
//!
//! * a hash-consed node store behind a single open-addressing unique table
//!   with multiplicative hashing ([`BddManager`], [`Bdd`]),
//! * the ITE core plus derived boolean connectives, memoized in fixed-size
//!   direct-mapped lossy caches (CUDD-style; see [`BddManager::set_cache_capacity`]),
//! * existential/universal quantification and the fused
//!   [`BddManager::and_exists`] relational product used by image computation,
//! * variable renaming by arbitrary permutation ([`BddManager::permute`]),
//! * cube analysis: [`BddManager::pick_cube`] (one satisfying assignment) and
//!   [`BddManager::shortest_cube`] — the paper's *fattest cube*, the
//!   satisfying cube with the fewest assignments,
//! * satisfying-assignment counting and evaluation,
//! * mark-and-sweep garbage collection with explicit roots, a protected
//!   root set ([`BddManager::protect`]) and an opt-in automatic collector
//!   ([`BddManager::set_auto_gc`]),
//! * kernel performance counters ([`BddStats`]),
//! * **dynamic variable reordering by group sifting**: in-place adjacent
//!   level swaps that preserve node identity, so every externally held
//!   [`Bdd`] handle stays valid across reordering. Current/next-state
//!   variable pairs are kept adjacent by registering them as a group,
//! * **scheduled reordering** ([`BddManager::scheduled_sift`]): the model
//!   checker sifts when the live node count doubles past a floor
//!   ([`DoublingTrigger`]), with per-pass profitability in [`BddStats`], and
//! * a **persistent order/BDD store** ([`store`]): a versioned DDDMP-style
//!   text format that saves a converged variable order and named root BDDs
//!   (e.g. reached-set rings) so repeat runs warm-start.
//!
//! Handles are plain indices: a [`Bdd`] is only meaningful together with the
//! manager that created it, and survives both reordering (node identity is
//! preserved) and garbage collection (as long as it was reachable from the
//! roots passed to [`BddManager::gc`]).
//!
//! # Example
//!
//! ```
//! use rfn_bdd::BddManager;
//!
//! # fn main() -> Result<(), rfn_bdd::BddError> {
//! let mut m = BddManager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let fx = m.var(x);
//! let fy = m.var(y);
//! let conj = m.and(fx, fy)?;
//! let quantified = m.exists_one(conj, y)?; // ∃y. x ∧ y  =  x
//! assert_eq!(quantified, fx);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cache;
mod manager;
mod reorder;
mod stats;
pub mod store;
mod unique;

pub use manager::{Bdd, BddError, BddManager, BddResult, VarId};
pub use reorder::{
    sift_profitable, DoublingTrigger, DvoSchedule, SIFT_MAX_GROUPS, SIFT_MIN_GROUP_SIZE,
};
pub use stats::BddStats;
pub use store::{BddStore, StoreBuilder, StoreError, STORE_SCHEMA};
