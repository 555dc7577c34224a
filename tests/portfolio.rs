//! Parallel property portfolio: results must be deterministic — identical
//! verdicts, iteration counts and abstractions at any worker count, in input
//! order.

use rfn::core::{parallel_map, EngineKind, Rfn, RfnOptions, RfnOutcome, VerifySession};
use rfn::designs::small::{
    round_robin_arbiter, saturating_counter, traffic_light, wrapping_counter,
};
use rfn::designs::{fuzz_design, Design};
use rfn::netlist::Property;

/// The semantic content of an outcome, with wall-clock measurements removed.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Proved {
        iterations: usize,
        abstract_registers: usize,
    },
    Falsified {
        iterations: usize,
        trace_cycles: usize,
    },
    Inconclusive {
        reason: String,
    },
}

fn verdict(outcome: &RfnOutcome) -> Verdict {
    match outcome {
        RfnOutcome::Proved { stats } => Verdict::Proved {
            iterations: stats.iterations,
            abstract_registers: stats.abstract_registers,
        },
        RfnOutcome::Falsified { trace, stats } => Verdict::Falsified {
            iterations: stats.iterations,
            trace_cycles: trace.num_cycles(),
        },
        RfnOutcome::Inconclusive { reason, .. } => Verdict::Inconclusive {
            reason: reason.clone(),
        },
    }
}

fn run_portfolio(cases: &[(&Design, &Property)], threads: usize) -> Vec<Verdict> {
    parallel_map(cases.len(), threads, |i| {
        let (design, property) = cases[i];
        let outcome = Rfn::new(&design.netlist, property, RfnOptions::default())
            .expect("valid property")
            .run()
            .expect("structural soundness");
        verdict(&outcome)
    })
}

#[test]
fn portfolio_results_are_deterministic_across_thread_counts() {
    let designs = [
        traffic_light(),
        saturating_counter(6),
        wrapping_counter(5, 19),
        round_robin_arbiter(4),
    ];
    let cases: Vec<(&Design, &Property)> = designs
        .iter()
        .flat_map(|d| d.properties.iter().map(move |p| (d, p)))
        .collect();
    assert!(cases.len() >= 4, "expected several portfolio jobs");

    let serial = run_portfolio(&cases, 1);
    for threads in [2, 4, 8] {
        let parallel = run_portfolio(&cases, threads);
        assert_eq!(
            serial, parallel,
            "portfolio verdicts changed at {threads} threads"
        );
    }
    // At least one property of the pedagogical designs is falsifiable and one
    // provable, so the determinism check is not vacuous.
    assert!(serial.iter().any(|v| matches!(v, Verdict::Proved { .. })));
    assert!(serial
        .iter()
        .any(|v| matches!(v, Verdict::Falsified { .. })));
}

/// A race returns its winner's verdict even when a losing lane fails on
/// its way out after the winner cancelled it (an RFN lane stopped during
/// hybrid trace reconstruction surfaces the cancelled BDD operation as an
/// error).
#[test]
fn race_never_errors_on_fuzz_designs() {
    let errors: Vec<String> = parallel_map(500, 2, |seed| {
        let design = fuzz_design(seed as u64);
        VerifySession::new(&design.netlist)
            .engine(EngineKind::Race)
            .properties(design.properties.iter().cloned())
            .threads(1)
            .run()
            .err()
            .map(|e| format!("seed {seed}: {e}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        errors.is_empty(),
        "{} of 500 race sessions failed, e.g. {:?}",
        errors.len(),
        errors.first()
    );
}
