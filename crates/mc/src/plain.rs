//! Plain symbolic model checking with cone-of-influence reduction: the
//! baseline RFN is compared against in Table 1 of the paper.
//!
//! This module holds the options, verdicts and reports, and the
//! one-property entry point [`verify_plain`]. The model checker's body is
//! the group body in `group.rs`: a single property is a group of one.

use std::time::Duration;

use rfn_bdd::BddStats;
use rfn_govern::Budget;
use rfn_netlist::{Netlist, Property};
use rfn_trace::{Span, TraceCtx};

use crate::group::plain_reports;
use crate::{CommonOptions, McError, ReachOptions};

/// Default live-node ceiling of the plain engine; exceeding it is the
/// baseline's failure mode in Table 1.
const DEFAULT_PLAIN_NODE_CEILING: usize = 2_000_000;

/// Configuration for the plain symbolic model checker.
///
/// The legacy `node_limit` / `time_limit` fields are now views over the
/// shared [`Budget`]: use [`PlainOptions::with_node_limit`] /
/// [`PlainOptions::with_time_limit`] (or install a whole budget with
/// [`PlainOptions::with_budget`]) and read them back through
/// [`PlainOptions::node_limit`] / [`PlainOptions::time_limit`].
#[derive(Clone, Debug)]
pub struct PlainOptions {
    /// The budget and trace context shared with every other engine (see
    /// [`CommonOptions`]). The budget's node ceiling is the baseline's
    /// failure mode; the trace context wraps each `verify_plain` call in a
    /// `plain_mc` span and is forwarded to the inner reachability fixpoint.
    pub common: CommonOptions,
    /// Reachability options (reordering etc.). Its own budget and trace are
    /// overwritten with [`PlainOptions::common`]'s for the run.
    pub reach: ReachOptions,
}

impl Default for PlainOptions {
    fn default() -> Self {
        PlainOptions {
            common: CommonOptions::default()
                .with_budget(Budget::unlimited().with_node_ceiling(DEFAULT_PLAIN_NODE_CEILING)),
            reach: ReachOptions::default(),
        }
    }
}

impl PlainOptions {
    /// Sets the BDD node ceiling (a view over the shared budget).
    #[must_use]
    pub fn with_node_limit(mut self, nodes: usize) -> Self {
        self.common.budget = self.common.budget.clone().with_node_ceiling(nodes);
        self
    }

    /// Sets the wall-clock limit (a view over the shared budget; the
    /// deadline is re-anchored at this call).
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.common = self.common.with_time_limit(limit);
        self
    }

    /// Installs a shared resource budget (replacing any previous one,
    /// including the default node ceiling).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.common = self.common.with_budget(budget);
        self
    }

    /// Replaces the inner reachability options.
    #[must_use]
    pub fn with_reach(mut self, reach: ReachOptions) -> Self {
        self.reach = reach;
        self
    }

    /// Attaches a structured-event context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.common = self.common.with_trace(trace);
        self
    }

    /// The BDD node ceiling (the legacy `node_limit` field as a view).
    pub fn node_limit(&self) -> usize {
        self.common.budget.node_ceiling()
    }

    /// The wall-clock limit, if any (the legacy `time_limit` field as a
    /// view).
    pub fn time_limit(&self) -> Option<Duration> {
        self.common.time_limit()
    }
}

/// How the plain model checker ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlainVerdict {
    /// The property holds (fixpoint without hitting targets).
    Proved,
    /// The property fails; a target state was reached at this depth.
    Falsified {
        /// BFS depth of the first target state.
        depth: usize,
    },
    /// The node, time or step limit was exceeded: the design is beyond the
    /// plain engine's capacity.
    OutOfCapacity,
}

/// Report of a plain model-checking run (one Table 1 baseline row).
#[derive(Clone, Debug)]
pub struct PlainReport {
    /// Final verdict.
    pub verdict: PlainVerdict,
    /// Why the run aborted when the verdict is
    /// [`PlainVerdict::OutOfCapacity`] (`None` otherwise).
    pub abort: Option<crate::AbortReason>,
    /// Registers in the property's cone of influence.
    pub coi_registers: usize,
    /// Gates in the property's cone of influence.
    pub coi_gates: usize,
    /// Image steps completed before the verdict.
    pub steps: usize,
    /// Peak live BDD nodes.
    pub peak_nodes: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// BDD kernel performance counters of the run.
    pub stats: BddStats,
}

/// Runs BDD-based symbolic model checking on the *whole cone of influence*
/// of the property — no abstraction. On large designs this is expected to
/// exhaust its node limit; that expected failure is what Table 1's
/// comparison demonstrates. The property runs through the group body of
/// [`verify_plain_group`](crate::verify_plain_group) as a group of one,
/// without a warm-start store, inside a `plain_mc` span.
///
/// # Errors
///
/// Returns internal errors only; capacity exhaustion is reported in the
/// verdict.
pub fn verify_plain(
    netlist: &Netlist,
    property: &Property,
    options: &PlainOptions,
) -> Result<PlainReport, McError> {
    let mut span = options.common.trace.span_with(
        "plain_mc",
        vec![("property".to_owned(), property.name.as_str().into())],
    );
    let [report] = plain_reports(
        netlist,
        std::slice::from_ref(property),
        "",
        options,
        None,
        None,
    )?
    .try_into()
    .expect("one report per property");
    record_report(&mut span, &report);
    Ok(report)
}

/// Records a report's verdict and sizes on its `plain_mc` span exit.
pub(crate) fn record_report(span: &mut Span, report: &PlainReport) {
    let verdict = match report.verdict {
        PlainVerdict::Proved => "proved",
        PlainVerdict::Falsified { .. } => "falsified",
        PlainVerdict::OutOfCapacity => "out_of_capacity",
    };
    span.record("verdict", verdict);
    if let PlainVerdict::Falsified { depth } = report.verdict {
        span.record("depth", depth);
    }
    if let Some(reason) = report.abort {
        span.record("abort_reason", reason.as_str());
    }
    span.record("coi_registers", report.coi_registers);
    span.record("coi_gates", report.coi_gates);
    span.record("steps", report.steps);
    span.record("peak_nodes", report.peak_nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfn_netlist::GateOp;

    /// Saturating 2-bit counter; watchdog fires on (never-reached) overflow.
    fn safe_design() -> (Netlist, Property) {
        let mut n = Netlist::new("safe");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let full = n.add_gate("full", GateOp::And, &[b0, b1]);
        let nfull = n.add_gate("nfull", GateOp::Not, &[full]);
        let t0 = n.add_gate("t0", GateOp::Xor, &[b0, nfull]);
        let carry = n.add_gate("carry", GateOp::And, &[b0, nfull]);
        let t1 = n.add_gate("t1", GateOp::Xor, &[b1, carry]);
        n.set_register_next(b0, t0).unwrap();
        n.set_register_next(b1, t1).unwrap();
        // Watchdog: fires if the counter wraps to 00 after having been 11 —
        // never happens because it saturates... it holds at 11.
        let w = n.add_register("watchdog", Some(false));
        let nb0 = n.add_gate("nb0", GateOp::Not, &[b0]);
        let nb1 = n.add_gate("nb1", GateOp::Not, &[b1]);
        let wrapped = n.add_gate("wrapped", GateOp::And, &[full, nb0, nb1]);
        let hmm = n.add_gate("worwrap", GateOp::Or, &[w, wrapped]);
        n.set_register_next(w, hmm).unwrap();
        n.validate().unwrap();
        let p = Property::never(&n, "no_wrap", w);
        (n, p)
    }

    /// Counter without saturation: the watchdog eventually fires.
    fn unsafe_design() -> (Netlist, Property) {
        let mut n = Netlist::new("unsafe");
        let b0 = n.add_register("b0", Some(false));
        let b1 = n.add_register("b1", Some(false));
        let t0 = n.add_gate("t0", GateOp::Not, &[b0]);
        let t1 = n.add_gate("t1", GateOp::Xor, &[b0, b1]);
        n.set_register_next(b0, t0).unwrap();
        n.set_register_next(b1, t1).unwrap();
        let w = n.add_register("watchdog", Some(false));
        let full = n.add_gate("full", GateOp::And, &[b0, b1]);
        let worfull = n.add_gate("worfull", GateOp::Or, &[w, full]);
        n.set_register_next(w, worfull).unwrap();
        n.validate().unwrap();
        let p = Property::never(&n, "no_full", w);
        (n, p)
    }

    #[test]
    fn proves_safe_design() {
        let (n, p) = safe_design();
        let r = verify_plain(&n, &p, &PlainOptions::default()).unwrap();
        assert_eq!(r.verdict, PlainVerdict::Proved);
        assert_eq!(r.coi_registers, 3);
        assert!(r.coi_gates > 0);
    }

    #[test]
    fn falsifies_unsafe_design() {
        let (n, p) = unsafe_design();
        let r = verify_plain(&n, &p, &PlainOptions::default()).unwrap();
        // Counter reaches 3 after 3 steps; watchdog latches 1 one step later.
        assert_eq!(r.verdict, PlainVerdict::Falsified { depth: 4 });
    }

    #[test]
    fn node_limit_reports_out_of_capacity() {
        let (n, p) = safe_design();
        let opts = PlainOptions::default().with_node_limit(4);
        let r = verify_plain(&n, &p, &opts).unwrap();
        assert_eq!(r.verdict, PlainVerdict::OutOfCapacity);
    }

    #[test]
    fn coi_excludes_unrelated_logic() {
        let (mut n, _) = safe_design();
        // Unrelated register block.
        let i = n.add_input("i");
        let junk = n.add_register("junk", Some(false));
        n.set_register_next(junk, i).unwrap();
        n.validate().unwrap();
        let w = n.find("watchdog").unwrap();
        let p = Property::never(&n, "no_wrap", w);
        let r = verify_plain(&n, &p, &PlainOptions::default()).unwrap();
        assert_eq!(r.coi_registers, 3); // junk not in the COI
        assert_eq!(r.verdict, PlainVerdict::Proved);
    }
}
