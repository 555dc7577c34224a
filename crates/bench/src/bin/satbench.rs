//! SAT bounded-model-checking benchmark: unrolling throughput and solver
//! effort per design, plus the bug race against the BDD engine.
//!
//! ```text
//! cargo run -p rfn-bench --bin satbench --release [-- --quick] [--smoke]
//! ```
//!
//! Two sections:
//!
//! 1. **Depth sweep** — `verify_bmc` on one property per bundled design
//!    (safe and falsifiable), reporting the depth reached, frames per
//!    second, solver conflicts/propagations and the UNSAT-core abstraction
//!    size against the full cone of influence. Falsifiable properties must
//!    be falsified (their counterexamples are replayed concretely inside
//!    `verify_bmc`); any miss exits nonzero — this is the CI smoke gate.
//! 2. **Bug race** — wall-clock of SAT BMC vs. the BDD-based RFN loop on
//!    the processor's `error_flag` bug (the paper's ≈30-cycle violation):
//!    the depth of the deepest bug each engine can afford is the practical
//!    trade-off the portfolio's `race` mode exploits.
//!
//! Results are written to `BENCH_sat.json` (hand-rolled JSON, no
//! dependencies; a `--smoke` run writes `target/bench-smoke/BENCH_sat.json`
//! instead). `--smoke` shrinks depth bounds and time limits for CI;
//! `--quick` selects the scaled-down designs (paper-sized otherwise).
//! `--design <spec>` (repeatable) replaces the builtin depth-sweep list
//! with designs loaded through `DesignSource` — any spec form works — and
//! sweeps every property each design carries.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rfn_bench::Scale;
use rfn_core::{verify_bmc, BmcOptions, BmcVerdict, Rfn, RfnOptions, RfnOutcome};
use rfn_designs::{fifo_controller, processor_module, FifoParams};
use rfn_netlist::{Netlist, Property};

struct Row {
    design: String,
    property: String,
    verdict: &'static str,
    depth: usize,
    frames_per_sec: f64,
    conflicts: u64,
    propagations: u64,
    refinements: usize,
    abstract_registers: usize,
    coi_registers: usize,
    elapsed: Duration,
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (max_depth, limit) = if smoke {
        (64, Duration::from_secs(5))
    } else {
        (256, Duration::from_secs(60))
    };
    println!("satbench: SAT bounded model checking (scale: {scale:?}, smoke: {smoke})");
    println!();

    let fifo = fifo_controller(&scale.fifo());
    let fifo_bug = fifo_controller(&FifoParams {
        inject_half_flag_bug: true,
        ..scale.fifo()
    });
    let processor = processor_module(&scale.processor());

    // `--design <spec>` (repeatable) swaps in DesignSource-loaded designs;
    // their bug expectations are unknown, so only verdict plumbing is gated.
    let design_specs: Vec<String> = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2)
            .filter(|w| w[0] == "--design")
            .map(|w| w[1].clone())
            .collect()
    };
    let mut loaded_designs = Vec::new();
    for spec in &design_specs {
        match rfn_bench::common::load_source(spec) {
            Ok(l) => loaded_designs.push(l),
            Err(e) => {
                eprintln!("satbench: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Section 1: depth sweep. `expect_bug` is the smoke gate: those
    // properties must be falsified within the depth bound.
    let cases: Vec<(String, &Netlist, &Property, bool)> = if loaded_designs.is_empty() {
        vec![
            (
                "fifo".to_owned(),
                &fifo.netlist,
                fifo.property("psh_full").expect("bundled"),
                false,
            ),
            (
                "fifo_bug".to_owned(),
                &fifo_bug.netlist,
                fifo_bug.property("psh_hf").expect("bundled"),
                true,
            ),
            (
                "processor".to_owned(),
                &processor.netlist,
                processor.property("error_flag").expect("bundled"),
                true,
            ),
        ]
    } else {
        loaded_designs
            .iter()
            .flat_map(|l| {
                l.design.properties.iter().map(|p| {
                    (
                        l.design.netlist.name().to_owned(),
                        &l.design.netlist,
                        p,
                        false,
                    )
                })
            })
            .collect()
    };
    let mut rows = Vec::new();
    for (design, netlist, property, expect_bug) in cases {
        let options = BmcOptions::default()
            .with_max_depth(max_depth)
            .with_time_limit(limit);
        let start = Instant::now();
        let report = match verify_bmc(netlist, property, &options) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("satbench: {design}/{}: {e}", property.name);
                return ExitCode::from(1);
            }
        };
        let elapsed = start.elapsed();
        let (verdict, depth) = match report.verdict {
            BmcVerdict::Falsified { depth } => ("falsified", depth),
            BmcVerdict::BoundedSafe { depth } => ("bounded_safe", depth),
            BmcVerdict::OutOfBudget { depth, .. } => ("out_of_budget", depth.unwrap_or(0)),
        };
        if expect_bug && verdict != "falsified" {
            eprintln!(
                "satbench: {design}/{}: expected a counterexample, got {verdict} at depth {depth}",
                property.name
            );
            return ExitCode::from(1);
        }
        let frames = (depth + 1) as f64 / elapsed.as_secs_f64().max(1e-9);
        let row = Row {
            design,
            property: property.name.clone(),
            verdict,
            depth,
            frames_per_sec: frames,
            conflicts: report.stats.solver.conflicts,
            propagations: report.stats.solver.propagations,
            refinements: report.stats.refinements,
            abstract_registers: report.stats.abstract_registers,
            coi_registers: report.stats.coi_registers,
            elapsed,
        };
        println!(
            "{:<10} {:<11} {:>12} depth {:>4}  {:>7.1} frames/s  {:>8} conflicts  \
             abstraction {}/{} regs",
            row.design,
            row.property,
            row.verdict,
            row.depth,
            row.frames_per_sec,
            row.conflicts,
            row.abstract_registers,
            row.coi_registers
        );
        rows.push(row);
    }
    println!();

    // Section 2: the bug race. The same falsifiable property, SAT vs. BDD.
    let error_flag = processor.property("error_flag").expect("bundled");
    let start = Instant::now();
    let bmc_report = verify_bmc(
        &processor.netlist,
        error_flag,
        &BmcOptions::default()
            .with_max_depth(max_depth)
            .with_time_limit(limit),
    )
    .expect("bmc counterexample replays");
    let bmc_elapsed = start.elapsed();
    let bmc_depth = match bmc_report.verdict {
        BmcVerdict::Falsified { depth } => depth,
        other => {
            eprintln!("satbench: bug race: BMC did not falsify ({other:?})");
            return ExitCode::from(1);
        }
    };
    let start = Instant::now();
    let rfn_outcome = Rfn::new(
        &processor.netlist,
        error_flag,
        RfnOptions::default().with_time_limit(limit.max(Duration::from_secs(30))),
    )
    .expect("valid property")
    .run()
    .expect("structural soundness");
    let rfn_elapsed = start.elapsed();
    let rfn_verdict = match &rfn_outcome {
        RfnOutcome::Proved { .. } => "proved",
        RfnOutcome::Falsified { .. } => "falsified",
        RfnOutcome::Inconclusive { .. } => "inconclusive",
    };
    println!(
        "bug race on processor/error_flag: BMC {bmc_elapsed:.2?} (depth {bmc_depth}) vs \
         RFN {rfn_elapsed:.2?} ({rfn_verdict})"
    );

    let json = render_json(
        &rows,
        bmc_depth,
        bmc_elapsed,
        rfn_verdict,
        rfn_elapsed,
        smoke,
    );
    match rfn_bench::write_bench_json("BENCH_sat.json", &json, smoke) {
        Ok(path) => {
            println!();
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("satbench: writing BENCH_sat.json: {e}");
            ExitCode::from(1)
        }
    }
}

fn render_json(
    rows: &[Row],
    bmc_depth: usize,
    bmc_elapsed: Duration,
    rfn_verdict: &str,
    rfn_elapsed: Duration,
    smoke: bool,
) -> String {
    let mut s = String::from("{\n  \"bench\": \"sat\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"depth_sweep\": [\n");
    for (k, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"design\": \"{}\", \"property\": \"{}\", \"verdict\": \"{}\", \
             \"depth\": {}, \"frames_per_sec\": {:.1}, \"conflicts\": {}, \
             \"propagations\": {}, \"refinements\": {}, \"abstract_registers\": {}, \
             \"coi_registers\": {}, \"elapsed_ms\": {}}}",
            r.design,
            r.property,
            r.verdict,
            r.depth,
            r.frames_per_sec,
            r.conflicts,
            r.propagations,
            r.refinements,
            r.abstract_registers,
            r.coi_registers,
            r.elapsed.as_millis()
        );
        s.push_str(if k + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"bug_race\": {{\"design\": \"processor\", \"property\": \"error_flag\", \
         \"bmc_depth\": {bmc_depth}, \"bmc_ms\": {}, \"rfn_verdict\": \"{rfn_verdict}\", \
         \"rfn_ms\": {}}}",
        bmc_elapsed.as_millis(),
        rfn_elapsed.as_millis()
    );
    s.push_str("}\n");
    s
}
