//! Property-based soundness tests: the full RFN loop against the exact
//! plain symbolic model checker on random sequential designs.
//!
//! This is the repository's strongest correctness check — every engine
//! (netlist, BDD, simulation, ATPG, model checking, hybrid trace
//! reconstruction, refinement) participates in every case.

use proptest::prelude::*;
use rfn::core::{validate_trace, Rfn, RfnOptions, RfnOutcome};
use rfn::designs::fuzz_design;
use rfn::mc::{verify_plain, PlainOptions, PlainVerdict};
use rfn::netlist::{GateOp, Netlist, Property, SignalId};

/// Random layered sequential netlist with a sticky watchdog register
/// observing a random internal signal.
fn arb_design(
    n_inputs: usize,
    n_regs: usize,
    n_gates: usize,
) -> impl Strategy<Value = (Netlist, Property)> {
    let ops = prop::sample::select(vec![
        GateOp::And,
        GateOp::Or,
        GateOp::Xor,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Not,
        GateOp::Mux,
    ]);
    let gates = prop::collection::vec((ops, any::<u32>(), any::<u32>(), any::<u32>()), n_gates);
    let nexts = prop::collection::vec(any::<u32>(), n_regs);
    (gates, nexts, any::<u32>()).prop_map(move |(gates, nexts, watch_pick)| {
        let mut n = Netlist::new("arb");
        let mut pool: Vec<SignalId> = Vec::new();
        for k in 0..n_inputs {
            pool.push(n.add_input(&format!("i{k}")));
        }
        let mut regs = Vec::new();
        for k in 0..n_regs {
            let r = n.add_register(&format!("r{k}"), Some(k % 2 == 0));
            pool.push(r);
            regs.push(r);
        }
        for (k, (op, a, b, c)) in gates.into_iter().enumerate() {
            let fa = pool[a as usize % pool.len()];
            let fb = pool[b as usize % pool.len()];
            let fc = pool[c as usize % pool.len()];
            let fanins: Vec<SignalId> = match op {
                GateOp::Not => vec![fa],
                GateOp::Mux => vec![fa, fb, fc],
                _ => vec![fa, fb],
            };
            pool.push(n.add_gate(&format!("g{k}"), op, &fanins));
        }
        for (k, nx) in nexts.into_iter().enumerate() {
            n.set_register_next(regs[k], pool[nx as usize % pool.len()])
                .unwrap();
        }
        // Sticky watchdog on a random signal.
        let watch = pool[watch_pick as usize % pool.len()];
        let w = n.add_register("w", Some(false));
        let w_next = n.add_gate("w_next", GateOp::Or, &[w, watch]);
        n.set_register_next(w, w_next).unwrap();
        let p = Property::never(&n, "w_low", w);
        (n, p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RFN's verdict always agrees with exact symbolic model checking, and
    /// every falsification trace replays concretely.
    #[test]
    fn rfn_agrees_with_exact_model_checking(
        (n, p) in arb_design(2, 5, 16),
    ) {
        let rfn_outcome = Rfn::new(&n, &p, RfnOptions::default())
            .expect("valid")
            .run()
            .expect("structural soundness");
        let plain = verify_plain(&n, &p, &PlainOptions::default()).expect("plain runs");
        match (&rfn_outcome, plain.verdict) {
            (RfnOutcome::Proved { .. }, PlainVerdict::Proved) => {}
            (RfnOutcome::Falsified { trace, .. }, PlainVerdict::Falsified { depth }) => {
                prop_assert!(validate_trace(&n, &p, trace).unwrap(), "trace does not replay");
                prop_assert!(trace.num_cycles() > depth);
            }
            (rfn_outcome, plain) => {
                prop_assert!(
                    false,
                    "verdicts disagree: RFN {rfn_outcome:?} vs plain {plain:?}"
                );
            }
        }
    }

    /// The final abstraction never exceeds the property's cone of influence.
    #[test]
    fn abstraction_stays_within_coi(
        (n, p) in arb_design(2, 6, 14),
    ) {
        let outcome = Rfn::new(&n, &p, RfnOptions::default())
            .expect("valid")
            .run()
            .expect("runs");
        let stats = outcome.stats();
        prop_assert!(stats.abstract_registers <= stats.coi_registers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The multi-trace extension (paper Section 5 future work) never changes
    /// a verdict: with several abstract traces guiding Step 3, RFN still
    /// agrees with exact model checking.
    #[test]
    fn multi_trace_guidance_preserves_verdicts(
        (n, p) in arb_design(2, 5, 14),
    ) {
        let options = RfnOptions {
            max_abstract_traces: 3,
            ..RfnOptions::default()
        };
        let outcome = Rfn::new(&n, &p, options)
            .expect("valid")
            .run()
            .expect("runs");
        let plain = verify_plain(&n, &p, &PlainOptions::default()).expect("plain runs");
        match (&outcome, plain.verdict) {
            (RfnOutcome::Proved { .. }, PlainVerdict::Proved) => {}
            (RfnOutcome::Falsified { trace, .. }, PlainVerdict::Falsified { .. }) => {
                prop_assert!(validate_trace(&n, &p, trace).unwrap());
            }
            (o, v) => {
                prop_assert!(false, "multi-trace verdict mismatch: {o:?} vs {v:?}");
            }
        }
    }
}

/// Fuzz designs whose shortest counterexamples need registers with unknown
/// resets that reconverge (in `fuzz:68`, `r3` feeds `Xnor(g0, g0, in1)`):
/// three-valued replay with those registers at `X` cannot confirm the
/// violation, so RFN used to give up on an exact abstraction. It must
/// falsify at plain MC's depth, with a trace that pins every unknown reset.
#[test]
fn unknown_resets_keep_counterexamples_at_the_plain_depth() {
    for (seed, name) in [(68, "p2"), (2_001_533, "p0_wd"), (2_002_196, "p0_wd")] {
        let design = fuzz_design(seed);
        let n = &design.netlist;
        let p = design
            .properties
            .iter()
            .find(|p| p.name == name)
            .expect("the fuzz design carries the property");
        let plain = verify_plain(n, p, &PlainOptions::default()).expect("plain runs");
        let PlainVerdict::Falsified { depth } = plain.verdict else {
            panic!("fuzz:{seed} `{name}`: plain MC says {:?}", plain.verdict);
        };
        let outcome = Rfn::new(n, p, RfnOptions::default())
            .expect("valid")
            .run()
            .expect("runs");
        let RfnOutcome::Falsified { trace, .. } = outcome else {
            panic!("fuzz:{seed} `{name}`: RFN says {outcome:?}");
        };
        assert_eq!(trace.num_cycles() - 1, depth, "fuzz:{seed} `{name}`");
        assert!(validate_trace(n, p, &trace).unwrap());
        for &r in n.registers() {
            if n.register_init(r).is_none() {
                assert!(
                    trace.steps()[0].state.get(r).is_some(),
                    "fuzz:{seed} `{name}`: reset of `{}` left open",
                    n.label(r)
                );
            }
        }
    }
}
