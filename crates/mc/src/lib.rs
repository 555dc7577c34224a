//! BDD-based symbolic model checking for the RFN verification tool.
//!
//! This crate implements the *formal engine* of the paper: symbolic forward
//! reachability (post-image fixpoints with onion rings), pre-image
//! computation — including the variant that keeps input variables alive,
//! which the hybrid BDD–ATPG engine needs for its min-cut pre-images — and
//! the plain symbolic model checker with cone-of-influence reduction that
//! serves as the Table 1 baseline.
//!
//! The central type is [`SymbolicModel`]: a BDD encoding of a [`ModelSpec`]
//! (registers + free inputs + gates, extracted from an abstract model or a
//! min-cut design). Several transition relations can share one model's
//! variable space, which is how the hybrid engine intersects onion rings of
//! the abstract model with pre-images computed on the min-cut design.
//!
//! # Example
//!
//! Prove that a self-looping flag never rises:
//!
//! ```
//! use rfn_netlist::{Netlist, GateOp, Abstraction, Property};
//! use rfn_mc::{SymbolicModel, ModelSpec, forward_reach, ReachOptions, ReachVerdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut n = Netlist::new("d");
//! let flag = n.add_register("flag", Some(false));
//! n.set_register_next(flag, flag)?; // once low, always low
//! n.validate()?;
//!
//! let view = Abstraction::from_registers([flag]).view(&n, [])?;
//! let mut model = SymbolicModel::new(&n, ModelSpec::from_view(&view))?;
//! let target = model.signal_bdd(flag)?; // states with flag == 1
//! let result = forward_reach(&mut model, target, &ReachOptions::default())?;
//! assert_eq!(result.verdict, ReachVerdict::FixpointProved);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod group;
mod model;
mod multi;
mod options;
mod plain;
mod reach;
pub mod store;

pub use error::McError;
pub use group::{verify_plain_group, GroupOptions};
pub use model::{
    ModelOptions, ModelSpec, StateCube, StaticOrder, SymbolicModel, TransitionRelation, VarKind,
    DEFAULT_CLUSTER_LIMIT,
};
pub use multi::{forward_reach_multi, forward_reach_multi_warm};
pub use options::CommonOptions;
pub use plain::{verify_plain, PlainOptions, PlainReport, PlainVerdict};
pub use reach::{
    forward_reach, forward_reach_warm, AbortReason, MultiReachResult, ReachOptions, ReachResult,
    ReachVerdict,
};
pub use rfn_bdd::{BddStats, StoreError};
