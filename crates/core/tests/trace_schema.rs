//! Pins the structured-event JSONL schema and its determinism guarantees.
//!
//! Three contracts are enforced here:
//!
//! 1. **Golden schema** — the normalized JSONL stream of a fixed two-property
//!    session is byte-identical to `golden/trace_demo.jsonl`. Changing event
//!    names, field names or serialization is a schema change and must update
//!    the golden file (and the schema docs in `rfn_trace`) deliberately.
//! 2. **Thread-count determinism** — the same session traced at `--threads`
//!    1, 2 and 4 produces the identical normalized stream.
//! 3. **Reconstructibility** — the `rfn` root span's exit event carries every
//!    `RfnStats` field (and the per-round refinement sizes are recoverable
//!    from the `refine` span exits), so a `--trace-out` file alone can
//!    rebuild a Table 1 row and the per-phase breakdown exactly.

use std::sync::Arc;

use rfn_core::prelude::*;
use rfn_netlist::GateOp;
use rfn_trace::{to_jsonl, Event, EventKind, Value};

/// The fixed demo design: `safe` can never rise (proved in one iteration);
/// `w` latches once the toggle register `b` rises (falsified at depth 2,
/// ATPG-concretized); `wr` latches the unknown-reset register `d`
/// (falsified via the random-simulation engine — `d = 1` at cycle 0 is a
/// legal reset, so the corridor is hittable by the cheap stage).
fn demo_design() -> (Netlist, [Property; 3]) {
    let mut n = Netlist::new("demo");
    let safe = n.add_register("safe", Some(false));
    n.set_register_next(safe, safe).unwrap();
    let b = n.add_register("b", Some(false));
    let nb = n.add_gate("nb", GateOp::Not, &[b]);
    n.set_register_next(b, nb).unwrap();
    let w = n.add_register("w", Some(false));
    let wor = n.add_gate("wor", GateOp::Or, &[w, b]);
    n.set_register_next(w, wor).unwrap();
    let d = n.add_register("d", None);
    n.set_register_next(d, d).unwrap();
    let wr = n.add_register("wr", Some(false));
    let wror = n.add_gate("wror", GateOp::Or, &[wr, d]);
    n.set_register_next(wr, wror).unwrap();
    n.validate().unwrap();
    let p_safe = Property::never(&n, "safe_low", safe);
    let p_unsafe = Property::never(&n, "w_low", w);
    let p_random = Property::never(&n, "wr_low", wr);
    (n, [p_safe, p_unsafe, p_random])
}

fn run_traced(threads: usize) -> (SessionReport, Vec<Event>) {
    let (n, props) = demo_design();
    let sink = Arc::new(MemorySink::new());
    let report = VerifySession::new(&n)
        .property(&props[0])
        .property(&props[1])
        .property(&props[2])
        .threads(threads)
        .trace(sink.clone())
        .run()
        .unwrap();
    (report, sink.take())
}

#[test]
fn golden_jsonl_schema() {
    let (_, events) = run_traced(1);
    let got = to_jsonl(&events, true);
    // `GOLDEN_REGEN=1 cargo test -p rfn-core --test trace_schema golden`
    // rewrites the golden file after a deliberate schema change.
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_demo.jsonl");
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = include_str!("golden/trace_demo.jsonl");
    assert_eq!(
        got, want,
        "normalized JSONL stream diverged from the golden schema; \
         if the change is intentional, regenerate tests/golden/trace_demo.jsonl \
         and update the schema docs in rfn_trace"
    );
}

#[test]
fn stream_is_deterministic_across_thread_counts() {
    let (_, serial) = run_traced(1);
    let serial = to_jsonl(&serial, true);
    for threads in [2, 4] {
        let (_, events) = run_traced(threads);
        assert_eq!(
            serial,
            to_jsonl(&events, true),
            "event stream differs at {threads} threads"
        );
    }
}

/// Looks up an exit-event field as a u64 (also accepting span names).
fn exit_field(events: &[Event], span_name: &str, key: &str, nth: usize) -> Option<u64> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == span_name => Some(fields),
            _ => None,
        })
        .nth(nth)
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map(|(_, v)| match v {
            Value::U64(n) => *n,
            other => panic!("field {key} is not a u64: {other:?}"),
        })
}

#[test]
fn events_reconstruct_rfn_stats_exactly() {
    let (report, events) = run_traced(1);

    // The falsified property is the second job, so its `rfn` root is the
    // second `rfn` exit in the merged stream.
    let stats = report.results[1].stats.as_ref().unwrap();
    let field = |key: &str| exit_field(&events, "rfn", key, 1);
    assert_eq!(field("iterations"), Some(stats.iterations as u64));
    assert_eq!(
        field("abstract_registers"),
        Some(stats.abstract_registers as u64)
    );
    assert_eq!(field("coi_registers"), Some(stats.coi_registers as u64));
    assert_eq!(field("coi_gates"), Some(stats.coi_gates as u64));
    assert_eq!(field("trace_length"), stats.trace_length.map(|l| l as u64));
    assert_eq!(
        field("hybrid.no_cut_steps"),
        Some(stats.hybrid.no_cut_steps as u64)
    );
    assert_eq!(
        field("hybrid.min_cut_steps"),
        Some(stats.hybrid.min_cut_steps as u64)
    );
    assert_eq!(field("bdd.unique_probes"), Some(stats.bdd.unique_probes));
    assert_eq!(field("bdd.ite_misses"), Some(stats.bdd.ite_misses));
    assert_eq!(field("bdd.peak_nodes"), Some(stats.bdd.peak_nodes as u64));

    // Per-round refinement sizes are the `added` fields of the `refine`
    // exits, in order.
    let added: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == "refine" => fields
                .iter()
                .find(|(k, _)| k == "added")
                .map(|(_, v)| match v {
                    Value::U64(n) => *n,
                    other => panic!("added is not a u64: {other:?}"),
                }),
            _ => None,
        })
        .collect();
    let both_jobs: Vec<u64> = report
        .results
        .iter()
        .flat_map(|r| r.stats.as_ref().unwrap().refinement_sizes.iter())
        .map(|&n| n as u64)
        .collect();
    assert_eq!(added, both_jobs);

    // The breakdown table the CLI prints is recoverable from the stream and
    // covers the whole span hierarchy.
    let table = TimeBreakdown::from_events(&events);
    let names: Vec<&str> = table.rows().iter().map(|r| r.name.as_str()).collect();
    for phase in ["rfn", "iteration", "model", "reach"] {
        assert!(names.contains(&phase), "breakdown misses phase {phase}");
    }
}

#[test]
fn verdicts_are_recorded_on_the_roots() {
    let (_, events) = run_traced(1);
    let verdicts: Vec<String> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == "rfn" => fields
                .iter()
                .find(|(k, _)| k == "verdict")
                .map(|(_, v)| match v {
                    Value::Str(s) => s.clone(),
                    other => panic!("verdict is not a string: {other:?}"),
                }),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts, ["proved", "falsified", "falsified"]);
}

/// Finds the `nth` exit event of the named span and returns its fields.
fn exit_fields<'e>(
    events: &'e [Event],
    span_name: &str,
    nth: usize,
) -> Option<&'e Vec<(String, Value)>> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == span_name => Some(fields),
            _ => None,
        })
        .nth(nth)
}

/// The `sim.random` span carries the engine's effort counters, and a
/// random-engine falsification is visible end-to-end: the `concretize` span
/// names the winning engine, and the `rfn` root carries the accumulated
/// `concretize.*` stats including the zero-ATPG-backtrack witness.
#[test]
fn random_engine_spans_carry_counters() {
    let (report, events) = run_traced(1);

    // Every concretize attempt opens one sim.random child (batches > 0).
    let sim_exits: Vec<&Vec<(String, Value)>> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == "sim.random" => Some(fields),
            _ => None,
        })
        .collect();
    assert!(!sim_exits.is_empty(), "no sim.random span in the stream");
    for fields in &sim_exits {
        for key in ["batches", "patterns", "hits", "gate_evals", "outcome"] {
            assert!(
                fields.iter().any(|(k, _)| k == key),
                "sim.random exit misses field {key}"
            );
        }
    }
    // The wr job's engine hit: outcome "hit" with hits >= 1.
    let hit = sim_exits
        .iter()
        .find(|f| {
            f.iter()
                .any(|(k, v)| k == "outcome" && matches!(v, Value::Str(s) if s == "hit"))
        })
        .expect("the wr property must be falsified by the random engine");
    let hits = hit
        .iter()
        .find(|(k, _)| k == "hits")
        .map(|(_, v)| match v {
            Value::U64(n) => *n,
            other => panic!("hits is not a u64: {other:?}"),
        })
        .unwrap();
    assert!(hits >= 1);

    // Its concretize parent names the winning engine.
    let conc = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Exit { name, fields, .. } if name == "concretize" => Some(fields),
            _ => None,
        })
        .find(|f| {
            f.iter()
                .any(|(k, v)| k == "engine" && matches!(v, Value::Str(s) if s == "random"))
        })
        .expect("no concretize span won by the random engine");
    assert!(conc
        .iter()
        .any(|(k, v)| k == "atpg_backtracks" && matches!(v, Value::U64(0))));

    // The wr job's rfn root reconstructs its ConcretizeStats exactly,
    // showing the zero-backtrack falsification.
    let stats = report.results[2].stats.as_ref().unwrap();
    assert!(stats.concretize.random_falsified);
    assert_eq!(stats.concretize.atpg_backtracks, 0);
    let root = exit_fields(&events, "rfn", 2).unwrap();
    let root_u64 = |key: &str| {
        root.iter().find(|(k, _)| k == key).map(|(_, v)| match v {
            Value::U64(n) => *n,
            other => panic!("field {key} is not a u64: {other:?}"),
        })
    };
    assert_eq!(
        root_u64("concretize.random_batches"),
        Some(stats.concretize.random_batches)
    );
    assert_eq!(
        root_u64("concretize.random_patterns"),
        Some(stats.concretize.random_patterns)
    );
    assert_eq!(
        root_u64("concretize.random_hits"),
        Some(stats.concretize.random_hits)
    );
    assert_eq!(root_u64("concretize.atpg_backtracks"), Some(0));
    assert!(root
        .iter()
        .any(|(k, v)| k == "concretize.random_falsified" && matches!(v, Value::Bool(true))));
}
