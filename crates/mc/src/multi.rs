//! Multi-target forward reachability: one fixpoint discharging a whole
//! group of properties.
//!
//! [`forward_reach_multi`] generalizes [`forward_reach`](crate::forward_reach)
//! from one target set to many. The onion rings of a BFS fixpoint do not
//! depend on the targets — targets only decide *when to stop* — so a single
//! ring sequence can be tested against every still-pending target: targets
//! that intersect a ring retire with that ring's BFS depth (identical to the
//! depth a dedicated single-target run would report), and one fixpoint proves
//! every survivor at once. The group pays for one model build, one cluster
//! schedule, one variable order and one reached set instead of one per
//! property.

use std::time::Instant;

use rfn_bdd::{Bdd, BddError, BddStats, DoublingTrigger};
use rfn_govern::GovPhase;

use crate::reach::{or_all, record_budget, reorder_step, simplify_frontier};
use crate::{AbortReason, McError, ReachOptions, ReachVerdict, SymbolicModel};

/// Per-target outcome of a [`forward_reach_multi`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetVerdict {
    /// The fixpoint completed without touching this target.
    Proved,
    /// The target intersects ring `step` (its BFS distance from the initial
    /// states — identical to the depth of a dedicated single-target run).
    Hit {
        /// BFS depth of the first intersecting ring.
        step: usize,
    },
    /// The run aborted while this target was still pending; see
    /// [`MultiReachResult::abort`].
    Aborted,
}

impl TargetVerdict {
    /// Projects the per-target outcome onto the single-target vocabulary.
    pub fn as_reach_verdict(self) -> ReachVerdict {
        match self {
            TargetVerdict::Proved => ReachVerdict::FixpointProved,
            TargetVerdict::Hit { step } => ReachVerdict::TargetHit { step },
            TargetVerdict::Aborted => ReachVerdict::Aborted,
        }
    }
}

/// Result of [`forward_reach_multi`]: one entry per input target, plus the
/// shared fixpoint artifacts.
#[derive(Clone, Debug)]
pub struct MultiReachResult {
    /// Outcomes, indexed like the input target slice.
    pub verdicts: Vec<TargetVerdict>,
    /// Why the run aborted; `None` unless some verdict is
    /// [`TargetVerdict::Aborted`].
    pub abort: Option<AbortReason>,
    /// Onion rings shared by every target (`rings[0]` is the initial set).
    /// The sequence stops at the last ring the run needed: the ring that
    /// retired the final pending target, or the full fixpoint.
    pub rings: Vec<Bdd>,
    /// Union of all rings.
    pub reached: Bdd,
    /// Number of image computations performed.
    pub steps: usize,
    /// Peak live node count observed.
    pub peak_nodes: usize,
    /// Kernel performance counters of the manager at the end of the run.
    pub stats: BddStats,
}

/// Computes one forward fixpoint from the model's initial states, testing
/// every still-pending target against each ring and retiring hits with their
/// BFS depth. Rings are exact distance strata, so per-target depths match
/// dedicated single-target runs exactly.
///
/// The loop exits as soon as every target has been hit; otherwise it runs to
/// the fixpoint (proving the survivors) or a resource abort (marking the
/// still-pending targets [`TargetVerdict::Aborted`] while already-hit targets
/// keep their depths).
///
/// # Errors
///
/// Only internal errors are returned; resource exhaustion is reported via
/// [`TargetVerdict::Aborted`], mirroring [`forward_reach`](crate::forward_reach).
pub fn forward_reach_multi(
    model: &mut SymbolicModel<'_>,
    targets: &[Bdd],
    options: &ReachOptions,
) -> Result<MultiReachResult, McError> {
    forward_reach_multi_warm(model, targets, options, &[])
}

/// [`forward_reach_multi`] warm-started from a previously saved ring
/// sequence (one store entry per *group*; see the [`store`](crate::store)
/// module). Adopted rings are re-checked against every target in BFS order,
/// so hit depths are identical to a cold run's.
///
/// # Errors
///
/// Returns [`McError::Store`] if `saved_rings[0]` is not the model's
/// initial-state set.
pub fn forward_reach_multi_warm(
    model: &mut SymbolicModel<'_>,
    targets: &[Bdd],
    options: &ReachOptions,
    saved_rings: &[Bdd],
) -> Result<MultiReachResult, McError> {
    // Protection discipline mirrors `forward_reach_warm`: every handle held
    // across kernel calls is registered in the protected root set through a
    // log that makes the protection exactly reversible on every exit path.
    let mut span = options.common.trace.span("reach_multi");
    span.record("targets", targets.len());
    model.manager().set_budget(options.common.budget.clone());
    let mut protect_log: Vec<Bdd> = model.persistent_roots();
    protect_log.extend(targets.iter().copied());
    for &b in &protect_log {
        model.manager().protect(b);
    }
    if options.auto_gc {
        model.manager().set_auto_gc(true);
    }
    let result = multi_loop(model, targets, options, &mut protect_log, saved_rings);
    model.manager().set_auto_gc(false);
    for &b in &protect_log {
        model.manager().unprotect(b);
    }
    let result = result.map(|mut r| {
        r.stats = model.manager_ref().stats();
        r
    });
    if let Ok(r) = &result {
        let hits = r
            .verdicts
            .iter()
            .filter(|v| matches!(v, TargetVerdict::Hit { .. }))
            .count();
        let proved = r
            .verdicts
            .iter()
            .filter(|v| matches!(v, TargetVerdict::Proved))
            .count();
        span.record("hits", hits);
        span.record("proved", proved);
        if let Some(reason) = r.abort {
            span.record("abort_reason", reason.as_str());
        }
        span.record("steps", r.steps);
        span.record("rings", r.rings.len());
        span.record("clusters", model.transition().num_clusters());
        span.record("peak_nodes", r.peak_nodes);
        if r.stats.sift_runs > 0 {
            span.record("sift.runs", r.stats.sift_runs);
            span.record("sift.unprofitable", r.stats.unprofitable_sifts);
            span.record("sift.nodes_shrunk", r.stats.sift_nodes_shrunk);
        }
        if !saved_rings.is_empty() {
            span.record("warm.rings", saved_rings.len());
        }
        record_budget(&mut span, &options.common.budget, r.peak_nodes);
        options
            .common
            .trace
            .counter("bdd.peak_nodes", r.stats.peak_nodes as u64);
    }
    result
}

/// Book-keeping for the still-pending targets of one multi-target run.
struct Pending {
    verdicts: Vec<TargetVerdict>,
    open: Vec<usize>,
}

impl Pending {
    fn new(n: usize) -> Self {
        Pending {
            // Until decided otherwise every target counts as pending-abort;
            // hits and the final fixpoint overwrite this.
            verdicts: vec![TargetVerdict::Aborted; n],
            open: (0..n).collect(),
        }
    }

    /// Tests the ring against every pending target in index order, retiring
    /// hits at `step`. Returns `Err` on the first kernel error.
    fn check_ring(
        &mut self,
        model: &mut SymbolicModel<'_>,
        targets: &[Bdd],
        ring: Bdd,
        step: usize,
    ) -> Result<(), BddError> {
        let zero = model.manager_ref().zero();
        let mut still_open = Vec::with_capacity(self.open.len());
        for &t in &self.open {
            if model.manager().and(ring, targets[t])? != zero {
                self.verdicts[t] = TargetVerdict::Hit { step };
            } else {
                still_open.push(t);
            }
        }
        self.open = still_open;
        Ok(())
    }

    fn all_hit(&self) -> bool {
        // With zero targets there is nothing to hit: run to the fixpoint,
        // mirroring a single-target run on the constant-false target.
        !self.verdicts.is_empty() && self.open.is_empty()
    }

    fn prove_rest(&mut self) {
        for &t in &self.open {
            self.verdicts[t] = TargetVerdict::Proved;
        }
        self.open.clear();
    }
}

fn multi_loop(
    model: &mut SymbolicModel<'_>,
    targets: &[Bdd],
    options: &ReachOptions,
    protect_log: &mut Vec<Bdd>,
    saved_rings: &[Bdd],
) -> Result<MultiReachResult, McError> {
    let deadline = options.common.budget.deadline_for(GovPhase::Reach);
    let mut trigger = options
        .reorder
        .then(|| DoublingTrigger::new(options.reorder_threshold));
    let mut pending = Pending::new(targets.len());
    let init = match model.init_states() {
        Ok(b) => b,
        Err(e) => return Ok(aborted(model, pending, vec![], 0, AbortReason::of(&e))),
    };
    if let Some(&first) = saved_rings.first() {
        if first != init {
            return Err(McError::Store(rfn_bdd::StoreError::Rebuild(
                "saved rings do not start at this model's initial states".to_owned(),
            )));
        }
    }
    model.manager().protect(init);
    protect_log.push(init);
    let mut rings = if saved_rings.is_empty() {
        vec![init]
    } else {
        saved_rings.to_vec()
    };
    for &r in &rings[1..] {
        model.manager().protect(r);
        protect_log.push(r);
    }
    let mut reached = init;
    for &r in &rings[1..] {
        reached = match model.manager().or(reached, r) {
            Ok(b) => b,
            Err(e) => return Ok(aborted(model, pending, rings, 0, AbortReason::of(&e))),
        };
    }
    model.manager().protect(reached);
    protect_log.push(reached);
    let mut frontier = *rings.last().expect("at least the initial ring");
    let mut steps = rings.len() - 1;
    let mut peak = model.manager_ref().num_nodes();

    // Cold start: the classic step-0 check against every target. Warm
    // start: every adopted ring is re-checked in BFS order so retirement
    // depths are identical to a cold run's.
    for step in 0..rings.len() {
        if let Err(e) = pending.check_ring(model, targets, rings[step], step) {
            return Ok(aborted(model, pending, rings, steps, AbortReason::of(&e)));
        }
        if pending.all_hit() {
            rings.truncate(step + 1);
            let reached = match or_all(model, &rings) {
                Ok(b) => b,
                Err(e) => return Ok(aborted(model, pending, rings, step, AbortReason::of(&e))),
            };
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps: step,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
    }

    loop {
        if steps >= options.max_steps {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::MaxSteps,
            ));
        }
        if options.common.budget.is_cancelled() {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::Cancelled,
            ));
        }
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::TimeLimit,
                ));
            }
        }
        if let Err(e) = options
            .common
            .budget
            .check_memory(model.manager_ref().approx_bytes())
        {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::of_exhaustion(e),
            ));
        }
        let src = if options.frontier_simplify {
            match simplify_frontier(model, frontier, reached) {
                Ok(f) => f,
                Err(e) => {
                    return Ok(aborted_with(
                        model,
                        pending,
                        rings,
                        reached,
                        steps,
                        peak,
                        AbortReason::of(&e),
                    ))
                }
            }
        } else {
            frontier
        };
        let step_result = model.post_image(src).and_then(|img| {
            model.manager().protect(img);
            let new = model
                .manager()
                .not(reached)
                .and_then(|nr| model.manager().and(img, nr));
            model.manager().unprotect(img);
            new
        });
        let new = match step_result {
            Ok(new) => new,
            Err(e) => {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::of(&e),
                ))
            }
        };
        steps += 1;
        options
            .common
            .trace
            .counter("reach.image_nodes", model.manager_ref().num_nodes() as u64);
        if new == model.manager_ref().zero() {
            pending.prove_rest();
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
        model.manager().protect(new);
        protect_log.push(new);
        reached = match model.manager().or(reached, new) {
            Ok(b) => b,
            Err(e) => {
                return Ok(aborted_with(
                    model,
                    pending,
                    rings,
                    reached,
                    steps,
                    peak,
                    AbortReason::of(&e),
                ))
            }
        };
        model.manager().protect(reached);
        protect_log.push(reached);
        rings.push(new);
        peak = peak.max(model.manager_ref().num_nodes());
        if let Err(e) = pending.check_ring(model, targets, new, steps) {
            return Ok(aborted_with(
                model,
                pending,
                rings,
                reached,
                steps,
                peak,
                AbortReason::of(&e),
            ));
        }
        if pending.all_hit() {
            return Ok(MultiReachResult {
                verdicts: pending.verdicts,
                abort: None,
                rings,
                reached,
                steps,
                peak_nodes: peak,
                stats: BddStats::default(),
            });
        }
        frontier = new;
        if let Some(trigger) = &mut trigger {
            let held = rings
                .iter()
                .chain(targets)
                .copied()
                .chain([reached, frontier]);
            reorder_step(model, trigger, held, options);
        }
    }
}

fn aborted(
    model: &SymbolicModel<'_>,
    pending: Pending,
    rings: Vec<Bdd>,
    steps: usize,
    reason: AbortReason,
) -> MultiReachResult {
    let zero = model.manager_ref().zero();
    MultiReachResult {
        verdicts: pending.verdicts,
        abort: Some(reason),
        reached: rings.first().copied().unwrap_or(zero),
        rings,
        steps,
        peak_nodes: model.manager_ref().num_nodes(),
        stats: BddStats::default(),
    }
}

#[allow(clippy::too_many_arguments)]
fn aborted_with(
    model: &SymbolicModel<'_>,
    pending: Pending,
    rings: Vec<Bdd>,
    reached: Bdd,
    steps: usize,
    peak: usize,
    reason: AbortReason,
) -> MultiReachResult {
    MultiReachResult {
        verdicts: pending.verdicts,
        abort: Some(reason),
        rings,
        reached,
        steps,
        peak_nodes: peak.max(model.manager_ref().num_nodes()),
        stats: BddStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{forward_reach, ModelSpec, ReachOptions};
    use rfn_netlist::{Abstraction, Cube, GateOp, Netlist, SignalId};

    /// 3-bit counter saturating at 5 (shared with the reach tests).
    fn counter3() -> (Netlist, Vec<SignalId>) {
        let mut n = Netlist::new("sat5");
        let b: Vec<SignalId> = (0..3)
            .map(|k| n.add_register(&format!("b{k}"), Some(false)))
            .collect();
        let nb1 = n.add_gate("nb1", GateOp::Not, &[b[1]]);
        let at5 = n.add_gate("at5", GateOp::And, &[b[0], nb1, b[2]]);
        let hold = n.add_gate("hold", GateOp::Not, &[at5]);
        let i0 = n.add_gate("i0", GateOp::Xor, &[b[0], hold]);
        let c0 = n.add_gate("c0", GateOp::And, &[b[0], hold]);
        let i1 = n.add_gate("i1", GateOp::Xor, &[b[1], c0]);
        let c1 = n.add_gate("c1", GateOp::And, &[b[1], c0]);
        let i2 = n.add_gate("i2", GateOp::Xor, &[b[2], c1]);
        n.set_register_next(b[0], i0).unwrap();
        n.set_register_next(b[1], i1).unwrap();
        n.set_register_next(b[2], i2).unwrap();
        n.validate().unwrap();
        (n, b)
    }

    fn model(n: &Netlist) -> crate::SymbolicModel<'_> {
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(n, [])
            .unwrap();
        crate::SymbolicModel::new(n, ModelSpec::from_view(&view)).unwrap()
    }

    fn value_cube(b: &[SignalId], v: usize) -> Cube {
        b.iter()
            .enumerate()
            .map(|(k, &s)| (s, v >> k & 1 != 0))
            .collect()
    }

    /// One multi-target run reports, for every counter value, exactly the
    /// verdict and depth a dedicated single-target run reports.
    #[test]
    fn multi_matches_single_target_runs() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let targets: Vec<Bdd> = (0..8)
            .map(|v| m.cube_to_bdd(&value_cube(&b, v)).unwrap())
            .collect();
        let multi = forward_reach_multi(&mut m, &targets, &ReachOptions::default()).unwrap();
        for v in 0..8 {
            let mut m1 = model(&n);
            let t = m1.cube_to_bdd(&value_cube(&b, v)).unwrap();
            let single = forward_reach(&mut m1, t, &ReachOptions::default()).unwrap();
            assert_eq!(
                multi.verdicts[v].as_reach_verdict(),
                single.verdict,
                "counter value {v}"
            );
        }
        // Values 0..=5 are hit at their own depth; 6 and 7 are proved.
        for v in 0..6 {
            assert_eq!(multi.verdicts[v], TargetVerdict::Hit { step: v });
        }
        assert_eq!(multi.verdicts[6], TargetVerdict::Proved);
        assert_eq!(multi.verdicts[7], TargetVerdict::Proved);
    }

    /// When every target is eventually hit, the loop stops at the last hit
    /// instead of running to the fixpoint.
    #[test]
    fn all_hit_stops_early() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let targets = vec![
            m.cube_to_bdd(&value_cube(&b, 0)).unwrap(),
            m.cube_to_bdd(&value_cube(&b, 2)).unwrap(),
        ];
        let r = forward_reach_multi(&mut m, &targets, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdicts[0], TargetVerdict::Hit { step: 0 });
        assert_eq!(r.verdicts[1], TargetVerdict::Hit { step: 2 });
        assert_eq!(r.steps, 2);
        assert_eq!(r.rings.len(), 3);
        assert!(r.abort.is_none());
    }

    /// Aborts keep already-retired hits and mark only pending targets.
    #[test]
    fn abort_preserves_earlier_hits() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let targets = vec![
            m.cube_to_bdd(&value_cube(&b, 1)).unwrap(),
            m.cube_to_bdd(&value_cube(&b, 7)).unwrap(), // unreachable
        ];
        let opts = ReachOptions::default().with_max_steps(3);
        let r = forward_reach_multi(&mut m, &targets, &opts).unwrap();
        assert_eq!(r.verdicts[0], TargetVerdict::Hit { step: 1 });
        assert_eq!(r.verdicts[1], TargetVerdict::Aborted);
        assert_eq!(r.abort, Some(AbortReason::MaxSteps));
    }

    /// Warm-started multi-target runs re-check adopted rings in BFS order,
    /// so depths match a cold run even when the hit lies inside the warm
    /// prefix.
    #[test]
    fn warm_start_rechecks_adopted_rings() {
        let (n, b) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let spec = ModelSpec::from_view(&view);

        let mut m = crate::SymbolicModel::new(&n, spec.clone()).unwrap();
        let zero = m.manager_ref().zero();
        let partial =
            forward_reach(&mut m, zero, &ReachOptions::default().with_max_steps(4)).unwrap();
        assert_eq!(partial.rings.len(), 5);
        let store = crate::store::snapshot_model(&m, "g", &partial.rings).unwrap();

        let mut m2 = crate::SymbolicModel::new(&n, spec).unwrap();
        let adopted = crate::store::apply_store(&mut m2, &store, "g").unwrap();
        let targets = vec![
            m2.cube_to_bdd(&value_cube(&b, 2)).unwrap(), // inside warm prefix
            m2.cube_to_bdd(&value_cube(&b, 5)).unwrap(), // beyond it
            m2.cube_to_bdd(&value_cube(&b, 6)).unwrap(), // unreachable
        ];
        let r = forward_reach_multi_warm(&mut m2, &targets, &ReachOptions::default(), &adopted)
            .unwrap();
        assert_eq!(r.verdicts[0], TargetVerdict::Hit { step: 2 });
        assert_eq!(r.verdicts[1], TargetVerdict::Hit { step: 5 });
        assert_eq!(r.verdicts[2], TargetVerdict::Proved);
    }

    /// A stale warm start (wrong initial ring) must fail loudly.
    #[test]
    fn stale_warm_start_is_rejected() {
        let (n, b) = counter3();
        let mut m = model(&n);
        let bogus = m.cube_to_bdd(&value_cube(&b, 3)).unwrap();
        let t = m.cube_to_bdd(&value_cube(&b, 7)).unwrap();
        let err = forward_reach_multi_warm(&mut m, &[t], &ReachOptions::default(), &[bogus]);
        assert!(matches!(err, Err(McError::Store(_))));
    }

    /// Zero targets degenerate to a plain fixpoint with no verdicts.
    #[test]
    fn no_targets_runs_to_fixpoint() {
        let (n, _) = counter3();
        let mut m = model(&n);
        let r = forward_reach_multi(&mut m, &[], &ReachOptions::default()).unwrap();
        assert!(r.verdicts.is_empty());
        assert!(r.abort.is_none());
        assert_eq!(r.rings.len(), 6); // values 0..=5
    }

    /// The eager collector fires on every kernel call; any unprotected
    /// handle in the multi-target loop would be reclaimed and corrupt the
    /// verdicts.
    #[test]
    fn aggressive_auto_gc_is_sound() {
        let (n, b) = counter3();
        let view = Abstraction::from_registers(n.registers().to_vec())
            .view(&n, [])
            .unwrap();
        let mut mgr = rfn_bdd::BddManager::new();
        mgr.set_auto_gc_threshold(1);
        let mut m =
            crate::SymbolicModel::with_manager(&n, ModelSpec::from_view(&view), mgr).unwrap();
        let targets = vec![
            m.cube_to_bdd(&value_cube(&b, 4)).unwrap(),
            m.cube_to_bdd(&value_cube(&b, 7)).unwrap(),
        ];
        let r = forward_reach_multi(&mut m, &targets, &ReachOptions::default()).unwrap();
        assert_eq!(r.verdicts[0], TargetVerdict::Hit { step: 4 });
        assert_eq!(r.verdicts[1], TargetVerdict::Proved);
        assert!(r.stats.auto_gc_runs > 0, "collector never fired");
    }
}
