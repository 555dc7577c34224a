//! Integration tests for multi-property group scheduling: the merged
//! event stream stays byte-identical at any thread count with grouping
//! on, grouped sessions agree verdict-for-verdict (and depth-for-depth)
//! with ungrouped ones on randomized designs, and the grouped plain-MC and
//! BMC lanes agree with each other.

use std::sync::Arc;

use proptest::prelude::*;
use rfn_core::{BmcVerdict, EngineKind, PlainVerdict, PropertyResult, Verdict, VerifySession};
use rfn_netlist::{GateOp, Netlist, Property, SignalId};
use rfn_trace::{to_jsonl, MemorySink};

/// Two independent saturating 2-bit counters, three properties each
/// (shallow detector, deeper detector, safe watchdog): the clustering
/// forms two non-singleton groups, so a multi-threaded session schedules
/// real group jobs concurrently.
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
        let nb0 = n.add_gate(&format!("c{c}_nb0"), GateOp::Not, &[b0]);
        let at2 = n.add_gate(&format!("c{c}_at2"), GateOp::And, &[nb0, b1]);
        let nb1 = n.add_gate(&format!("c{c}_nb1"), GateOp::Not, &[b1]);
        let wrapped = n.add_gate(&format!("c{c}_wrapped"), GateOp::And, &[full, nb0, nb1]);
        let w = n.add_register(&format!("c{c}_w"), Some(false));
        let worwrap = n.add_gate(&format!("c{c}_worwrap"), GateOp::Or, &[w, wrapped]);
        n.set_register_next(w, worwrap).unwrap();
        props.push(Property::never(&n, format!("c{c}_b0_high"), b0));
        props.push(Property::never(&n, format!("c{c}_at2"), at2));
        props.push(Property::never(&n, format!("c{c}_no_wrap"), w));
    }
    n.validate().unwrap();
    (n, props)
}

/// Runs a grouped session at the given thread count and returns its merged
/// JSONL event stream (timestamps stripped).
fn grouped_jsonl(engine: EngineKind, threads: usize) -> String {
    let (n, props) = two_counters();
    let sink = Arc::new(MemorySink::new());
    let report = VerifySession::new(&n)
        .properties(props)
        .engine(engine)
        .threads(threads)
        .trace(sink.clone())
        .run()
        .unwrap();
    assert_eq!(
        report.groups.iter().filter(|g| g.len() > 1).count(),
        2,
        "both counters must cluster"
    );
    to_jsonl(&sink.take(), true)
}

#[test]
fn grouped_plain_stream_is_identical_across_thread_counts() {
    let serial = grouped_jsonl(EngineKind::PlainMc, 1);
    assert!(serial.contains("\"name\":\"plain_mc_group\""));
    assert!(serial.contains("\"name\":\"plain_mc\""));
    assert_eq!(serial, grouped_jsonl(EngineKind::PlainMc, 2));
    assert_eq!(serial, grouped_jsonl(EngineKind::PlainMc, 4));
}

#[test]
fn grouped_bmc_stream_is_identical_across_thread_counts() {
    let serial = grouped_jsonl(EngineKind::Bmc, 1);
    assert!(serial.contains("\"name\":\"bmc_group\""));
    assert!(serial.contains("\"name\":\"bmc\""));
    assert_eq!(serial, grouped_jsonl(EngineKind::Bmc, 2));
    assert_eq!(serial, grouped_jsonl(EngineKind::Bmc, 4));
}

/// A random layered sequential netlist (same shape as the rfn-netlist
/// proptests) plus `n_props` properties over randomly chosen nets:
/// property COIs overlap arbitrarily, so the clustering exercises
/// singleton and non-singleton groups alike.
fn arb_design(
    n_inputs: usize,
    n_regs: usize,
    n_gates: usize,
    n_props: usize,
) -> impl Strategy<Value = (Netlist, Vec<Property>)> {
    let ops = prop::sample::select(vec![
        GateOp::And,
        GateOp::Or,
        GateOp::Xor,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Not,
    ]);
    let gates = prop::collection::vec((ops, any::<u32>(), any::<u32>()), n_gates);
    let nexts = prop::collection::vec(any::<u32>(), n_regs);
    let picks = prop::collection::vec(any::<u32>(), n_props);
    (gates, nexts, picks).prop_map(move |(gates, nexts, picks)| {
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
        for (k, (op, a, b)) in gates.into_iter().enumerate() {
            let fa = pool[a as usize % pool.len()];
            let fb = pool[b as usize % pool.len()];
            let fanins: Vec<SignalId> = if matches!(op, GateOp::Not) {
                vec![fa]
            } else {
                vec![fa, fb]
            };
            pool.push(n.add_gate(&format!("g{k}"), op, &fanins));
        }
        for (k, nx) in nexts.into_iter().enumerate() {
            n.set_register_next(regs[k], pool[nx as usize % pool.len()])
                .unwrap();
        }
        let props = picks
            .into_iter()
            .enumerate()
            .map(|(k, pick)| Property::never(&n, format!("p{k}"), pool[pick as usize % pool.len()]))
            .collect();
        (n, props)
    })
}

/// Verdict fingerprint that ignores trace contents: two SAT runs may find
/// different (equally valid) counterexample assignments, but the verdict
/// kind and depth must match exactly.
fn fingerprint(v: &Verdict) -> String {
    match v {
        Verdict::Proved => "proved".to_owned(),
        Verdict::Falsified { depth, .. } => format!("falsified@{depth}"),
        Verdict::Inconclusive { reason } => format!("inconclusive: {reason}"),
    }
}

fn session_results(
    netlist: &Netlist,
    props: &[Property],
    engine: EngineKind,
    grouping: bool,
) -> Vec<PropertyResult> {
    VerifySession::new(netlist)
        .properties(props.iter().cloned())
        .engine(engine)
        .grouping(grouping)
        .threads(1)
        .run()
        .unwrap()
        .results
}

fn session_fingerprints(
    netlist: &Netlist,
    props: &[Property],
    engine: EngineKind,
    grouping: bool,
) -> Vec<String> {
    session_results(netlist, props, engine, grouping)
        .iter()
        .map(|r| fingerprint(&r.verdict))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grouped plain-MC sessions agree verdict-for-verdict (including
    /// falsification depths) with ungrouped ones on random designs.
    #[test]
    fn grouped_plain_matches_ungrouped((n, props) in arb_design(3, 4, 10, 4)) {
        let grouped = session_fingerprints(&n, &props, EngineKind::PlainMc, true);
        let ungrouped = session_fingerprints(&n, &props, EngineKind::PlainMc, false);
        prop_assert_eq!(grouped, ungrouped);
    }

    /// The same parity for the group BMC lane (one shared unroller and
    /// incremental solver vs. one per property). Per property, grouped BMC
    /// also agrees with grouped plain MC, an engine that shares no code
    /// with it: the same falsification depth, and bounded safety exactly
    /// where plain MC proves the property.
    #[test]
    fn grouped_bmc_matches_ungrouped((n, props) in arb_design(3, 4, 10, 4)) {
        let grouped = session_results(&n, &props, EngineKind::Bmc, true);
        let ungrouped = session_fingerprints(&n, &props, EngineKind::Bmc, false);
        let fingerprints: Vec<String> = grouped.iter().map(|r| fingerprint(&r.verdict)).collect();
        prop_assert_eq!(fingerprints, ungrouped);
        let plain = session_results(&n, &props, EngineKind::PlainMc, true);
        for (p, b) in plain.iter().zip(&grouped) {
            let plain = &p.plain.as_ref().expect("plain report").verdict;
            let bmc = &b.bmc.as_ref().expect("BMC report").verdict;
            match *plain {
                PlainVerdict::Proved => prop_assert!(
                    matches!(bmc, BmcVerdict::BoundedSafe { .. }),
                    "{}: plain proved, BMC {:?}",
                    p.property.name,
                    bmc
                ),
                PlainVerdict::Falsified { depth } => {
                    prop_assert_eq!(bmc, &BmcVerdict::Falsified { depth }, "{}", &p.property.name)
                }
                PlainVerdict::OutOfCapacity => {
                    prop_assert!(false, "{}: plain MC out of capacity", p.property.name)
                }
            }
        }
    }
}
