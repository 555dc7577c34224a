//! Resource-governance smoke benchmark: budget exhaustion latency and
//! checkpoint/resume on the processor design.
//!
//! ```text
//! cargo run -p rfn-bench --bin govbench --release [-- --quick] [--smoke]
//!           [--budget-ms <n>]
//! ```
//!
//! Three phases, each a CI gate (any violation exits nonzero):
//!
//! 1. **Exhaustion latency** — verify `error_flag` under a 2-second wall
//!    clock (`--budget-ms` overrides). The run must come back as a
//!    *structured* `Inconclusive` naming the time limit, and must return
//!    within budget + 500 ms: that bound is exactly the cooperative
//!    cancellation promise the engines make (budget polls at BDD
//!    allocations, fixpoint steps, ATPG backtracks and simulation batches).
//! 2. **Checkpoint/resume** — interrupt the same verification with a budget
//!    chosen to exhaust mid-loop while snapshotting after every refinement,
//!    then `resume` from the snapshot with the budget lifted. The resumed
//!    run must reach the conclusive verdict (`error_flag` is falsifiable at
//!    every scale) instead of starting over.
//! 3. **Mid-run cancellation** — the same verification, cancelled from a
//!    sidecar thread shortly after it starts. The run must come back as a
//!    structured `Inconclusive` naming the cancellation within the same
//!    500 ms grace the deadline gets. This is the only gate on cancelling a
//!    run that is already under way; the tests cancel before the run
//!    starts.
//!
//! `--smoke` runs phase 1 against the paper-sized processor (where two
//! seconds can never complete the proof, so exhaustion is guaranteed) but
//! phase 2 against the quick design so CI finishes in seconds; without it,
//! phase 2 resumes the paper-sized run itself to completion. `--quick`
//! shrinks phase 1's design too — useful on slow machines, paired with a
//! small `--budget-ms`. Phase 3 runs the quick design under either flag.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rfn_core::prelude::*;
use rfn_designs::{processor_module, Design, ProcessorParams};

/// The grace the acceptance gate allows past the deadline: engines poll the
/// budget cooperatively, so a bounded overshoot is expected; an unbounded
/// one means some engine loop lost its poll.
const GRACE: Duration = Duration::from_millis(500);

fn quick_processor() -> Design {
    processor_module(&ProcessorParams {
        width: 16,
        regfile_words: 8,
        store_entries: 4,
        cache_lines: 4,
        pipe_stages: 2,
        multipliers: 2,
        stall_threshold: 27,
    })
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget_ms = std::env::args()
        .skip_while(|a| a != "--budget-ms")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000u64);
    println!("govbench: resource governance (quick: {quick}, smoke: {smoke})");
    println!();

    let mut failures = 0usize;

    // Phase 1: a budget-limited run must give up promptly and structurally.
    let design = if quick {
        quick_processor()
    } else {
        processor_module(&ProcessorParams::default())
    };
    let budget = Duration::from_millis(budget_ms);
    println!(
        "phase 1: error_flag on {} ({} registers) under a {budget_ms}ms budget",
        design.netlist.name(),
        design.netlist.num_registers()
    );
    let dir = std::env::temp_dir().join(format!("rfn-govbench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let property = design.property("error_flag").expect("property exists");
    let start = Instant::now();
    let outcome = Rfn::new(
        &design.netlist,
        property,
        RfnOptions::default()
            .with_checkpoint_dir(&dir)
            .with_time_limit(budget),
    )
    .expect("valid property")
    .run()
    .expect("structural soundness");
    let wall = start.elapsed();
    match &outcome {
        RfnOutcome::Inconclusive { reason, .. } => {
            println!("  inconclusive after {}ms: {reason}", wall.as_millis());
            if !reason.contains("time limit") {
                println!("  FAIL: reason does not name the time limit");
                failures += 1;
            }
            if wall > budget + GRACE {
                println!(
                    "  FAIL: returned {}ms past the deadline (allowed: {}ms)",
                    (wall - budget).as_millis(),
                    GRACE.as_millis()
                );
                failures += 1;
            }
        }
        other => {
            // Only possible when the budget outlasts the whole verification
            // (tiny design + generous budget): not a governance failure, but
            // the latency gate did not actually run.
            println!(
                "  note: run finished conclusively in {}ms — budget never hit \
                 (use a smaller --budget-ms)",
                wall.as_millis()
            );
            let _ = other;
        }
    }
    println!();

    // Phase 2: interrupt, then resume to the conclusive verdict.
    let (p2_design, p2_budget) = if smoke && !quick {
        (quick_processor(), Duration::from_millis(300))
    } else {
        (design, budget)
    };
    let p2_dir = std::env::temp_dir().join(format!("rfn-govbench-r-{}", std::process::id()));
    std::fs::remove_dir_all(&p2_dir).ok();
    let property = p2_design.property("error_flag").expect("property exists");
    println!(
        "phase 2: interrupt error_flag on {} at {}ms, then resume",
        p2_design.netlist.name(),
        p2_budget.as_millis()
    );
    let interrupted = Rfn::new(
        &p2_design.netlist,
        property,
        RfnOptions::default()
            .with_checkpoint_dir(&p2_dir)
            .with_time_limit(p2_budget),
    )
    .expect("valid property")
    .run()
    .expect("structural soundness");
    if let RfnOutcome::Inconclusive { reason, stats } = &interrupted {
        println!(
            "  interrupted after {} iteration(s): {reason}",
            stats.iterations
        );
    } else {
        println!("  note: interruption budget outlasted the run");
    }
    let start = Instant::now();
    let resumed = Rfn::new(
        &p2_design.netlist,
        property,
        RfnOptions::default()
            .with_budget(Budget::unlimited())
            .with_checkpoint_dir(&p2_dir)
            .with_resume(true),
    )
    .expect("valid property")
    .run()
    .expect("structural soundness");
    match &resumed {
        RfnOutcome::Falsified { trace, stats } => println!(
            "  resumed to falsification: {} cycles, {} total iteration(s), {}ms",
            trace.num_cycles(),
            stats.iterations,
            start.elapsed().as_millis()
        ),
        RfnOutcome::Proved { .. } => {
            println!("  FAIL: resumed run proved error_flag (expected falsified)");
            failures += 1;
        }
        RfnOutcome::Inconclusive { reason, .. } => {
            println!("  FAIL: resumed run inconclusive: {reason}");
            failures += 1;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&p2_dir).ok();
    println!();

    // Phase 3: a cancel from another thread must unwind a running
    // verification as promptly as a deadline does.
    let p3_design = if quick || smoke {
        quick_processor()
    } else {
        processor_module(&ProcessorParams::default())
    };
    let property = p3_design.property("error_flag").expect("property exists");
    let cancel_after = Duration::from_millis(250);
    println!(
        "phase 3: cancel error_flag on {}, {}ms in",
        p3_design.netlist.name(),
        cancel_after.as_millis()
    );
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(cancel_after);
            token.cancel();
        })
    };
    let start = Instant::now();
    let outcome = Rfn::new(
        &p3_design.netlist,
        property,
        RfnOptions::default().with_budget(Budget::unlimited().with_cancel_token(token)),
    )
    .expect("valid property")
    .run()
    .expect("structural soundness");
    let wall = start.elapsed();
    canceller.join().expect("canceller thread");
    match &outcome {
        RfnOutcome::Inconclusive { reason, .. } => {
            println!("  inconclusive after {}ms: {reason}", wall.as_millis());
            if !reason.contains("cancelled") {
                println!("  FAIL: reason does not name the cancellation");
                failures += 1;
            }
            if wall > cancel_after + GRACE {
                println!(
                    "  FAIL: returned {}ms past the cancel (allowed: {}ms)",
                    (wall - cancel_after).as_millis(),
                    GRACE.as_millis()
                );
                failures += 1;
            }
        }
        _ => {
            // The quick design can occasionally finish in under the cancel
            // delay on a fast machine; that leaves the gate unexercised but
            // is not a governance failure.
            println!(
                "  note: run finished conclusively in {}ms — cancel never fired",
                wall.as_millis()
            );
        }
    }

    println!();
    if failures == 0 {
        println!("govbench: all governance gates passed");
        ExitCode::SUCCESS
    } else {
        println!("govbench: {failures} gate(s) FAILED");
        ExitCode::FAILURE
    }
}
