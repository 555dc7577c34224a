//! Structured observability for the RFN verification tool: hierarchical
//! spans, monotonic counters and pluggable event sinks.
//!
//! The RFN loop alternates five engines (abstraction, BDD reachability,
//! hybrid BDD–ATPG trace reconstruction, sequential-ATPG concretization,
//! 3-valued-simulation refinement); knowing *where the time goes* across
//! those engines is exactly what the paper's Tables 1–2 report. This crate
//! is the zero-dependency layer the engines emit into:
//!
//! * [`TraceCtx`] — a cheap, clonable handle threaded through every engine.
//!   A disabled context (the default) reduces each emission to one `Option`
//!   check.
//! * [`Span`] — an RAII guard for a phase (`iteration`, `reach`, `hybrid`,
//!   `concretize`, `refine`, …); dropping it emits the exit event with the
//!   elapsed wall-clock time and any recorded fields.
//! * [`TraceSink`] — where events go: [`NullSink`], human-readable
//!   [`StderrSink`], buffering [`MemorySink`], streaming [`JsonlSink`], or a
//!   [`FanoutSink`] combination.
//! * [`TimeBreakdown`] — aggregates an event stream into the per-phase time
//!   table the CLI and bench binaries print.
//!
//! # Span hierarchy
//!
//! The engines emit the following hierarchy (see `DESIGN.md` §8 for where
//! each Table 1 column is sourced):
//!
//! ```text
//! rfn                      one property verification job
//! └─ iteration             one abstraction-refinement round
//!    ├─ model              abstract view and BDD model set-up (Step 1)
//!    ├─ reach              BDD forward fixpoint (Step 2)
//!    ├─ hybrid             hybrid BDD–ATPG trace reconstruction (Step 2)
//!    ├─ concretize         staged search on the original design (Step 3)
//!    │  └─ sim.random      guided random simulation (the cheap first stage)
//!    └─ refine             crucial-register identification (Step 4)
//! coverage                 one coverage-analysis job (same children per iteration)
//! plain_mc                 the Table 1 baseline (reach only)
//! ```
//!
//! The `sim.random` exit carries the random concretization engine's effort
//! counters (`batches`, `patterns`, `hits`, `gate_evals`) and its
//! `outcome` (`"hit"` / `"miss"`); the enclosing `concretize` exit adds the
//! attempt's `random_patterns`, `random_hits`, `atpg_backtracks`,
//! `atpg_decisions`, and — when falsified — the winning `engine`
//! (`"random"` / `"atpg"`). The `sim.conflicts` point event reports the
//! packed kernel's work counters (`gate_evals`, `gates_skipped`) alongside
//! the conflict counts.
//!
//! # JSONL schema
//!
//! [`JsonlSink`] (and [`Event::to_jsonl`]) serialize one event per line.
//! Every line carries `seq` (dense per-context sequence number), `t_us`
//! (microseconds since the context was created) and `ev` (the kind):
//!
//! ```text
//! {"seq":0,"t_us":12,"ev":"enter","id":1,"parent":0,"name":"rfn","fields":{"property":"w_low"}}
//! {"seq":1,"t_us":34,"ev":"counter","span":1,"name":"coi.registers","value":21}
//! {"seq":2,"t_us":56,"ev":"point","span":1,"name":"atpg.justify","fields":{"outcome":"sat"}}
//! {"seq":3,"t_us":78,"ev":"exit","id":1,"elapsed_us":66,"name":"rfn","fields":{"verdict":"proved"}}
//! ```
//!
//! * `enter` — `id` is the new span (ids start at 1), `parent` is the
//!   enclosing span or `0` for a root span.
//! * `exit` — `elapsed_us` is the span's inclusive wall-clock time; `fields`
//!   holds the statistics recorded during the span.
//! * `point` / `counter` — instantaneous observations attributed to the
//!   innermost open span (`span`, `0` if none).
//!
//! Field values are JSON numbers, booleans or strings. The schema is pinned
//! by a golden test in `rfn-core`; timestamps (`t_us`, `elapsed_us`) are the
//! only non-deterministic parts, and [`Event::to_jsonl_normalized`] zeroes
//! them so streams can be compared across runs and thread counts.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rfn_trace::{MemorySink, TimeBreakdown, TraceCtx};
//!
//! let sink = Arc::new(MemorySink::new());
//! let ctx = TraceCtx::new(sink.clone());
//! {
//!     let mut span = ctx.span("reach");
//!     ctx.counter("bdd.peak_nodes", 1234);
//!     span.record("steps", 17u64);
//! }
//! let events = sink.take();
//! assert_eq!(events.len(), 3); // enter, counter, exit
//! assert_eq!(TimeBreakdown::from_events(&events).rows()[0].name, "reach");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod breakdown;
mod ctx;
mod event;
mod sink;

pub use breakdown::{BreakdownRow, TimeBreakdown};
pub use ctx::{Span, TraceCtx};
pub use event::{merge_streams, to_jsonl, Event, EventKind, Fields, Value};
pub use sink::{FanoutSink, JsonlSink, MemorySink, NullSink, StderrSink, TraceSink};
