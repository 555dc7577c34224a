//! Group verification for the plain symbolic model checker: one shared
//! model, reached set and warm-start store entry per COI cluster.
//!
//! [`verify_plain_group`] builds *one* symbolic model over the union cone of
//! influence of a property group, turns every member into a target BDD, and
//! discharges all of them with a single [`forward_reach_multi_warm`]
//! fixpoint. The group pays for one model build, one cluster schedule, one
//! FORCE order and — when a store directory is configured — one warm-start
//! store entry instead of one per property. The same body decides a single
//! property: [`verify_plain`](crate::verify_plain) runs it as a group of
//! one, without a store.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rfn_bdd::Bdd;
use rfn_netlist::{Abstraction, Coi, Netlist, Property};

use crate::plain::record_report;
use crate::{
    forward_reach_multi_warm, McError, ModelSpec, PlainOptions, PlainReport, PlainVerdict,
    ReachVerdict, SymbolicModel,
};

/// Configuration for [`verify_plain_group`].
#[derive(Clone, Debug, Default)]
pub struct GroupOptions {
    /// Options for the underlying plain model checker (budget, trace,
    /// reachability knobs). The trace context also wraps the group run in a
    /// `plain_mc_group` span.
    pub plain: PlainOptions,
    /// Directory of the warm-start store. When set, the group loads the
    /// entry keyed by `(design hash, group key)` before the fixpoint and
    /// saves its variable order and rings back after a conclusive run — one
    /// entry per *group*, not per property.
    pub store_dir: Option<PathBuf>,
    /// Canonical design identity used to key the warm-start store. Defaults
    /// to the netlist's structural hash; callers loading designs from files
    /// (via `DesignSource`) pass the content hash instead, so a renamed
    /// file keeps its warm start and a changed file never steals one.
    pub design_hash: Option<u64>,
}

impl GroupOptions {
    /// Uses the given plain-engine options.
    #[must_use]
    pub fn with_plain(mut self, plain: PlainOptions) -> Self {
        self.plain = plain;
        self
    }

    /// Enables the per-group warm-start store under `dir`.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Keys the warm-start store by an explicit canonical design hash
    /// instead of the netlist's structural hash.
    #[must_use]
    pub fn with_design_hash(mut self, hash: u64) -> Self {
        self.design_hash = Some(hash);
        self
    }
}

/// Verifies a group of properties against one shared model and fixpoint.
///
/// `key` names the group's warm-start store entry (ignored unless
/// [`GroupOptions::store_dir`] is set); use
/// [`PropertyGroup::key`](rfn_netlist::PropertyGroup::key) for a
/// deterministic name. Returns one [`PlainReport`] per property, indexed
/// like the input slice: COI sizes are each property's own, while steps,
/// peak nodes, elapsed time and kernel stats describe the shared run.
///
/// # Errors
///
/// Internal errors only; capacity exhaustion is reported per property as
/// [`PlainVerdict::OutOfCapacity`]. A corrupt or mismatched store entry is
/// an error ([`McError::Store`]) — a warm start must never silently degrade
/// the run — while a missing entry is an ordinary cold start.
pub fn verify_plain_group(
    netlist: &Netlist,
    properties: &[Property],
    key: &str,
    options: &GroupOptions,
) -> Result<Vec<PlainReport>, McError> {
    let mut span = options.plain.common.trace.span_with(
        "plain_mc_group",
        vec![
            ("group".to_owned(), key.into()),
            ("members".to_owned(), properties.len().into()),
        ],
    );
    let result = plain_reports(
        netlist,
        properties,
        key,
        &options.plain,
        options.store_dir.as_deref(),
        options.design_hash,
    );
    if let Ok(reports) = &result {
        let falsified = reports
            .iter()
            .filter(|r| matches!(r.verdict, PlainVerdict::Falsified { .. }))
            .count();
        let proved = reports
            .iter()
            .filter(|r| matches!(r.verdict, PlainVerdict::Proved))
            .count();
        span.record("falsified", falsified);
        span.record("proved", proved);
        if let Some(r) = reports.first() {
            span.record("steps", r.steps);
            span.record("peak_nodes", r.peak_nodes);
        }
        // Per-property spans carry the same fields as a `verify_plain`
        // run, so downstream consumers keep one span per property whether
        // or not grouping is on.
        for (p, report) in properties.iter().zip(reports) {
            let mut ps = options.plain.common.trace.span_with(
                "plain_mc",
                vec![("property".to_owned(), p.name.as_str().into())],
            );
            record_report(&mut ps, report);
        }
    }
    result
}

/// The plain model checker's one body: decides `properties` on one model
/// over their union cone of influence with one fixpoint, and returns one
/// report per property. With `store_dir` set it warm-starts from, and saves
/// back to, the store entry `key` of the design identified by `design_hash`
/// (the netlist's structural hash when `None`).
pub(crate) fn plain_reports(
    netlist: &Netlist,
    properties: &[Property],
    key: &str,
    options: &PlainOptions,
    store_dir: Option<&Path>,
    design_hash: Option<u64>,
) -> Result<Vec<PlainReport>, McError> {
    let start = Instant::now();
    // Per-property COIs feed the reports; the union COI sizes the shared
    // model. A singleton's union cone is its own.
    let member_cois: Vec<Coi> = properties
        .iter()
        .map(|p| Coi::of(netlist, [p.signal]))
        .collect();
    let union_coi = match &member_cois[..] {
        [only] => only.clone(),
        _ => Coi::of(netlist, properties.iter().map(|p| p.signal)),
    };
    let out_of_capacity = |reason, stats: rfn_bdd::BddStats, elapsed| -> Vec<PlainReport> {
        member_cois
            .iter()
            .map(|coi| PlainReport {
                verdict: PlainVerdict::OutOfCapacity,
                abort: Some(reason),
                coi_registers: coi.num_registers(),
                coi_gates: coi.num_gates(),
                steps: 0,
                peak_nodes: options.node_limit(),
                elapsed,
                stats,
            })
            .collect()
    };

    let abstraction = Abstraction::from_registers(union_coi.registers().iter().copied());
    let view = abstraction.view(netlist, properties.iter().map(|p| p.signal))?;
    let mut mgr = rfn_bdd::BddManager::new();
    // The budget's node ceiling is the baseline's capacity bound; install
    // the budget itself so the model build is governed too.
    mgr.set_budget(options.common.budget.clone());
    let mut reach_opts = options.reach.clone();
    reach_opts.common = options.common.clone();
    let model_opts = crate::ModelOptions {
        cluster_limit: reach_opts.cluster_limit,
        static_order: reach_opts.static_order,
    };
    let build = SymbolicModel::with_options(netlist, ModelSpec::from_view(&view), mgr, model_opts);
    let mut model = match build {
        Ok(m) => m,
        Err(McError::Bdd(e)) => {
            return Ok(out_of_capacity(
                crate::AbortReason::of(&e),
                rfn_bdd::BddStats::default(),
                start.elapsed(),
            ));
        }
        Err(e) => return Err(e),
    };
    let targets = (|| -> Result<Vec<Bdd>, McError> {
        let mut ts = Vec::with_capacity(properties.len());
        for p in properties {
            let sig = model.signal_bdd(p.signal)?;
            let t = if p.value {
                sig
            } else {
                model.manager().not(sig)?
            };
            // Targets must survive until the fixpoint protects them; the
            // next signal_bdd call can collect unprotected intermediates.
            model.manager().protect(t);
            ts.push(t);
        }
        for &t in &ts {
            model.manager().unprotect(t);
        }
        Ok(ts)
    })();
    let targets = match targets {
        Ok(t) => t,
        Err(McError::Bdd(e)) => {
            return Ok(out_of_capacity(
                crate::AbortReason::of(&e),
                model.manager_ref().stats(),
                start.elapsed(),
            ));
        }
        Err(e) => return Err(e),
    };

    // Warm start: one store entry per group, keyed by the design hash, which
    // only a store reads. A missing entry is a cold start; a corrupt or
    // foreign one fails loudly.
    let store = store_dir.map(|dir| {
        let hash = design_hash.unwrap_or_else(|| netlist.structural_hash());
        (dir, hash)
    });
    let saved = match store {
        Some((dir, hash)) => match crate::store::load_store(dir, hash, key)? {
            Some(entry) => crate::store::apply_store_as(&mut model, &entry, key, hash)?,
            None => Vec::new(),
        },
        None => Vec::new(),
    };

    let result = forward_reach_multi_warm(&mut model, &targets, &reach_opts, &saved)?;

    // Persist the group's order and rings for the next run, but only after
    // a conclusive fixpoint: an aborted run's rings may be truncated by the
    // failure and a save error must never destroy the verdicts.
    if let Some((dir, hash)) = store {
        if result.abort.is_none() {
            match crate::store::snapshot_model(&model, key, &result.rings)
                .map(|mut entry| {
                    entry.design_hash = hash;
                    entry
                })
                .and_then(|entry| crate::store::save_store(dir, &entry))
            {
                Ok(_) => {}
                Err(_) => options.common.trace.counter("group.store_save_error", 1),
            }
        }
    }

    let elapsed = start.elapsed();
    Ok(result
        .verdicts
        .iter()
        .zip(&member_cois)
        .map(|(&verdict, coi)| {
            let (verdict, abort) = match verdict {
                ReachVerdict::FixpointProved => (PlainVerdict::Proved, None),
                ReachVerdict::TargetHit { step } => (PlainVerdict::Falsified { depth: step }, None),
                ReachVerdict::Aborted => (PlainVerdict::OutOfCapacity, result.abort),
            };
            PlainReport {
                verdict,
                abort,
                coi_registers: coi.num_registers(),
                coi_gates: coi.num_gates(),
                steps: result.steps,
                peak_nodes: result.peak_nodes,
                elapsed,
                stats: result.stats,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_plain;
    use rfn_netlist::{GateOp, PropertyGroups};

    /// Two independent saturating 2-bit counters, three properties each:
    /// one falsifiable shallow, one falsifiable deeper, one safe.
    fn two_counters() -> (Netlist, Vec<Property>) {
        let mut n = Netlist::new("two_counters");
        let mut props = Vec::new();
        for c in 0..2 {
            let b0 = n.add_register(&format!("c{c}_b0"), Some(false));
            let b1 = n.add_register(&format!("c{c}_b1"), Some(false));
            let full = n.add_gate(&format!("c{c}_full"), GateOp::And, &[b0, b1]);
            let nfull = n.add_gate(&format!("c{c}_nfull"), GateOp::Not, &[full]);
            let t0 = n.add_gate(&format!("c{c}_t0"), GateOp::Xor, &[b0, nfull]);
            let carry = n.add_gate(&format!("c{c}_carry"), GateOp::And, &[b0, nfull]);
            let t1 = n.add_gate(&format!("c{c}_t1"), GateOp::Xor, &[b1, carry]);
            n.set_register_next(b0, t0).unwrap();
            n.set_register_next(b1, t1).unwrap();
            // value == 2 detector (b0=0, b1=1): first true at depth 2.
            let nb0 = n.add_gate(&format!("c{c}_nb0"), GateOp::Not, &[b0]);
            let at2 = n.add_gate(&format!("c{c}_at2"), GateOp::And, &[nb0, b1]);
            // Watchdog latches if the saturating counter ever wraps from 11
            // to 00 — structurally impossible, so the property is safe.
            let nb1 = n.add_gate(&format!("c{c}_nb1"), GateOp::Not, &[b1]);
            let wrapped = n.add_gate(&format!("c{c}_wrapped"), GateOp::And, &[full, nb0, nb1]);
            let w = n.add_register(&format!("c{c}_w"), Some(false));
            let worwrap = n.add_gate(&format!("c{c}_worwrap"), GateOp::Or, &[w, wrapped]);
            n.set_register_next(w, worwrap).unwrap();
            props.push(Property::never(&n, format!("c{c}_b0_high"), b0)); // depth 1
            props.push(Property::never(&n, format!("c{c}_at2"), at2)); // depth 2
            props.push(Property::never(&n, format!("c{c}_no_wrap"), w)); // safe
        }
        n.validate().unwrap();
        (n, props)
    }

    #[test]
    fn group_reports_match_dedicated_runs() {
        let (n, props) = two_counters();
        let opts = GroupOptions::default();
        let reports = verify_plain_group(&n, &props, "all", &opts).unwrap();
        assert_eq!(reports.len(), props.len());
        for (p, grouped) in props.iter().zip(&reports) {
            let solo = verify_plain(&n, p, &PlainOptions::default()).unwrap();
            assert_eq!(grouped.verdict, solo.verdict, "property {}", p.name);
            assert_eq!(grouped.coi_registers, solo.coi_registers);
            assert_eq!(grouped.coi_gates, solo.coi_gates);
        }
    }

    #[test]
    fn clustered_groups_match_dedicated_runs() {
        let (n, props) = two_counters();
        let groups = PropertyGroups::cluster(&n, &props, 0.5);
        assert_eq!(groups.len(), 2, "two independent counters, two clusters");
        assert_eq!(groups.num_non_singleton(), 2);
        for g in groups.groups() {
            let members: Vec<Property> = g.members().iter().map(|&i| props[i].clone()).collect();
            let key = g.key(&props);
            let reports = verify_plain_group(&n, &members, &key, &GroupOptions::default()).unwrap();
            for (p, grouped) in members.iter().zip(&reports) {
                let solo = verify_plain(&n, p, &PlainOptions::default()).unwrap();
                assert_eq!(grouped.verdict, solo.verdict, "property {}", p.name);
            }
        }
    }

    #[test]
    fn store_round_trip_is_one_entry_per_group() {
        let (n, props) = two_counters();
        let dir = std::env::temp_dir().join(format!("rfn-mc-group-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = GroupOptions::default().with_store_dir(&dir);
        let cold = verify_plain_group(&n, &props, "all", &opts).unwrap();
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1, "one store entry for the whole group");
        let warm = verify_plain_group(&n, &props, "all", &opts).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.verdict, w.verdict);
            assert_eq!(c.steps, w.steps);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_limit_reports_out_of_capacity_for_all_members() {
        let (n, props) = two_counters();
        let opts = GroupOptions::default().with_plain(PlainOptions::default().with_node_limit(4));
        let reports = verify_plain_group(&n, &props, "all", &opts).unwrap();
        for r in &reports {
            assert_eq!(r.verdict, PlainVerdict::OutOfCapacity);
            assert!(r.abort.is_some());
        }
    }
}
