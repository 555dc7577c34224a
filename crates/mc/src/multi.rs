//! Multi-target forward reachability: one fixpoint discharging a whole
//! group of properties.
//!
//! [`forward_reach_multi`] tests every ring of one forward fixpoint against
//! a whole group of target sets. The onion rings of a BFS fixpoint do not
//! depend on the targets — targets only decide *when to stop* — so a single
//! ring sequence can be tested against every still-pending target: targets
//! that intersect a ring retire with that ring's BFS depth, and one fixpoint
//! proves every survivor at once. The group pays for one model build, one
//! cluster schedule, one variable order and one reached set instead of one
//! per property.
//!
//! The loop is the one in `reach.rs`, which
//! [`forward_reach`](crate::forward_reach) runs on a one-target slice; this
//! module adds the group entry points and their `reach_multi` span.

use rfn_bdd::Bdd;

use crate::reach::{reach_targets, record_run};
use crate::{McError, MultiReachResult, ReachOptions, ReachVerdict, SymbolicModel};

/// Computes one forward fixpoint from the model's initial states, testing
/// every still-pending target against each ring and retiring hits with their
/// BFS depth. Rings are exact distance strata, so a target's depth does not
/// depend on which other targets share the run.
///
/// The loop exits as soon as every target has been hit; otherwise it runs to
/// the fixpoint (proving the survivors) or a resource abort (marking the
/// still-pending targets [`ReachVerdict::Aborted`] while already-hit targets
/// keep their depths).
///
/// # Errors
///
/// Only internal errors are returned; resource exhaustion is reported via
/// [`ReachVerdict::Aborted`], as in [`forward_reach`](crate::forward_reach).
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
    let mut span = options.common.trace.span("reach_multi");
    span.record("targets", targets.len());
    let r = reach_targets(model, targets, options, saved_rings)?;
    let hits = r
        .verdicts
        .iter()
        .filter(|v| matches!(v, ReachVerdict::TargetHit { .. }))
        .count();
    let proved = r
        .verdicts
        .iter()
        .filter(|v| matches!(v, ReachVerdict::FixpointProved))
        .count();
    span.record("hits", hits);
    span.record("proved", proved);
    record_run(&mut span, model, &r, saved_rings.len(), options);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{forward_reach, AbortReason, ModelSpec, ReachOptions};
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

    /// One run over all eight counter values reports, for every value, the
    /// verdict and depth a one-target run reports.
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
            assert_eq!(multi.verdicts[v], single.verdict, "counter value {v}");
        }
        // Values 0..=5 are hit at their own depth; 6 and 7 are proved.
        for v in 0..6 {
            assert_eq!(multi.verdicts[v], ReachVerdict::TargetHit { step: v });
        }
        assert_eq!(multi.verdicts[6], ReachVerdict::FixpointProved);
        assert_eq!(multi.verdicts[7], ReachVerdict::FixpointProved);
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
        assert_eq!(r.verdicts[0], ReachVerdict::TargetHit { step: 0 });
        assert_eq!(r.verdicts[1], ReachVerdict::TargetHit { step: 2 });
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
        assert_eq!(r.verdicts[0], ReachVerdict::TargetHit { step: 1 });
        assert_eq!(r.verdicts[1], ReachVerdict::Aborted);
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
        assert_eq!(r.verdicts[0], ReachVerdict::TargetHit { step: 2 });
        assert_eq!(r.verdicts[1], ReachVerdict::TargetHit { step: 5 });
        assert_eq!(r.verdicts[2], ReachVerdict::FixpointProved);
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
        assert_eq!(r.verdicts[0], ReachVerdict::TargetHit { step: 4 });
        assert_eq!(r.verdicts[1], ReachVerdict::FixpointProved);
        assert!(r.stats.auto_gc_runs > 0, "collector never fired");
    }
}
