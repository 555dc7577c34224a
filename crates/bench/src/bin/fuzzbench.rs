//! Differential fuzzing harness: every seeded random design through three
//! independent engines, failing loudly on any disagreement.
//!
//! ```text
//! cargo run -p rfn-bench --bin fuzzbench --release [-- --quick]
//!     [--seeds <n>] [--start <seed>] [--emit-dir <dir>] [--time-limit <s>]
//! ```
//!
//! For each seed, `rfn_designs::fuzz_design(seed)` generates a small random
//! sequential design with 1–3 properties, and every property is verified
//! three ways under one per-property budget:
//!
//! 1. **RFN** — the abstraction-refinement loop (BDD reachability + hybrid
//!    trace reconstruction + concrete replay),
//! 2. **plain MC** — whole-COI BDD forward reachability, and
//! 3. **BMC** — incremental SAT unrolling with concrete counterexample
//!    replay.
//!
//! The engines share no model-building or search code, so agreement is real
//! evidence. The harness cross-checks every conclusive pair:
//!
//! - `Proved` against `Falsified` is a disagreement;
//! - two falsifications must report the **same minimal depth** (the RFN
//!   trace's cycle count minus one, the plain engine's BFS hit step, and
//!   BMC's first SAT frame are all minimal, so any difference is a bug);
//! - a falsification at depth `d` contradicts a BMC `BoundedSafe` bound
//!   `>= d`.
//!
//! An inconclusive outcome never contradicts another engine, but it is not
//! free either: the harness prints each engine's inconclusive count, and an
//! RFN inconclusive on a property plain MC decided fails the run unless
//! RFN's reason is budget exhaustion (plain MC works on the whole cone of
//! influence, so RFN's exact abstraction can always decide it too).
//! On a failure the harness shrinks the design with
//! [`rfn_designs::shrink_design`] while the failure persists, prints
//! the seed and the shrunken statistics, and — with `--emit-dir` — writes
//! the repro as an `.aag` file that `rfn verify <file> --engine race`
//! replays directly. The exit code is nonzero if any seed failed.
//!
//! `--quick` runs the 500-seed CI leg; the default sweep is 2000 seeds.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Duration;

use rfn_core::{
    verify_bmc, verify_plain, BmcOptions, BmcVerdict, PlainOptions, PlainVerdict, Rfn, RfnOptions,
    RfnOutcome,
};
use rfn_designs::{fuzz_design, shrink_design, Design};
use rfn_netlist::{write_aiger_ascii, Property};

/// What one engine concluded about one property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Proved safe at every depth.
    Safe,
    /// Falsified, with the minimal counterexample depth (violating cycle
    /// index).
    Falsified(usize),
    /// No counterexample up to the given depth (BMC's bounded verdict).
    BoundedSafe(usize),
    /// No verdict; never contradicts another engine.
    Unknown,
}

impl Outcome {
    fn decided(self) -> bool {
        matches!(self, Outcome::Safe | Outcome::Falsified(_))
    }

    fn describe(self) -> String {
        match self {
            Outcome::Safe => "proved".to_owned(),
            Outcome::Falsified(d) => format!("falsified at depth {d}"),
            Outcome::BoundedSafe(d) => format!("bounded-safe to depth {d}"),
            Outcome::Unknown => "inconclusive".to_owned(),
        }
    }
}

/// Whether two engine outcomes can both be correct.
fn consistent(a: Outcome, b: Outcome) -> bool {
    use Outcome::*;
    match (a, b) {
        (Unknown, _) | (_, Unknown) => true,
        (Safe, Safe) => true,
        (Falsified(x), Falsified(y)) => x == y,
        (Safe, Falsified(_)) | (Falsified(_), Safe) => false,
        // A bounded-safe sweep to depth b rules out counterexamples at
        // depths 0..=b only.
        (BoundedSafe(b), Falsified(d)) | (Falsified(d), BoundedSafe(b)) => d > b,
        (BoundedSafe(_), _) | (_, BoundedSafe(_)) => true,
    }
}

/// BMC depth bound: the fuzzer caps designs at 8 registers, so every
/// reachable state is reachable within 2^8 steps; 300 frames make BMC's
/// bounded verdict decisive against any falsification the other engines
/// can produce.
const BMC_DEPTH: usize = 300;

/// Whether an RFN inconclusive reason is budget exhaustion (wall clock,
/// node or memory ceiling, backtrack allowance, iteration limit,
/// cancellation) rather than an engine giving up.
fn budget_exhausted(reason: &str) -> bool {
    ["limit", "budget", "capacity", "cancelled", "exhausted"]
        .iter()
        .any(|word| reason.contains(word))
}

/// RFN's outcome, with its reason when inconclusive.
fn run_rfn(design: &Design, p: &Property, limit: Duration) -> (Outcome, Option<String>) {
    let opts = RfnOptions::default().with_time_limit(limit);
    let run = Rfn::new(&design.netlist, p, opts).and_then(|rfn| rfn.run());
    match run {
        Ok(RfnOutcome::Proved { .. }) => (Outcome::Safe, None),
        // The trace is a validated concrete counterexample whose last cycle
        // is the violation: depth = cycles - 1.
        Ok(RfnOutcome::Falsified { trace, .. }) => {
            (Outcome::Falsified(trace.num_cycles() - 1), None)
        }
        Ok(RfnOutcome::Inconclusive { reason, .. }) => (Outcome::Unknown, Some(reason)),
        Err(e) => panic!("rfn engine error (a bug, not a verdict): {e}"),
    }
}

fn run_plain(design: &Design, p: &Property, limit: Duration) -> Outcome {
    let opts = PlainOptions::default().with_time_limit(limit);
    match verify_plain(&design.netlist, p, &opts) {
        Ok(r) => match r.verdict {
            PlainVerdict::Proved => Outcome::Safe,
            PlainVerdict::Falsified { depth } => Outcome::Falsified(depth),
            PlainVerdict::OutOfCapacity => Outcome::Unknown,
        },
        Err(e) => panic!("plain engine error (a bug, not a verdict): {e}"),
    }
}

fn run_bmc(design: &Design, p: &Property, limit: Duration) -> Outcome {
    let opts = BmcOptions::default()
        .with_max_depth(BMC_DEPTH)
        .with_time_limit(limit);
    match verify_bmc(&design.netlist, p, &opts) {
        Ok(r) => match r.verdict {
            BmcVerdict::Falsified { depth } => Outcome::Falsified(depth),
            BmcVerdict::BoundedSafe { depth } => Outcome::BoundedSafe(depth),
            BmcVerdict::OutOfBudget { .. } => Outcome::Unknown,
        },
        Err(e) => panic!("bmc engine error (a bug, not a verdict): {e}"),
    }
}

/// The engines, in the order of [`check_property`]'s outcomes.
const ENGINES: [&str; 3] = ["rfn", "plain", "bmc"];

/// Runs all three engines on one property. Returns their outcomes, and an
/// error naming the first inconsistent pair or an RFN inconclusive that
/// is not budget exhaustion on a property plain MC decided.
fn check_property(
    design: &Design,
    prop_index: usize,
    limit: Duration,
) -> ([Outcome; 3], Result<(), String>) {
    let p = &design.properties[prop_index];
    let (rfn, rfn_reason) = run_rfn(design, p, limit);
    let outcomes = [rfn, run_plain(design, p, limit), run_bmc(design, p, limit)];
    let named: Vec<_> = ENGINES.iter().zip(outcomes).collect();
    for (i, &(an, a)) in named.iter().enumerate() {
        for &(bn, b) in &named[i + 1..] {
            if !consistent(a, b) {
                let msg = format!(
                    "property `{}`: {an} {} vs {bn} {}",
                    p.name,
                    a.describe(),
                    b.describe()
                );
                return (outcomes, Err(msg));
            }
        }
    }
    if let Some(reason) = rfn_reason.filter(|r| !budget_exhausted(r) && outcomes[1].decided()) {
        let msg = format!(
            "property `{}`: rfn inconclusive ({reason}) vs plain {}",
            p.name,
            outcomes[1].describe()
        );
        return (outcomes, Err(msg));
    }
    (outcomes, Ok(()))
}

fn usize_flag(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn string_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = usize_flag(&args, "--seeds").unwrap_or(if quick { 500 } else { 2000 });
    let start = usize_flag(&args, "--start").unwrap_or(0) as u64;
    let emit_dir = string_flag(&args, "--emit-dir");
    let limit = Duration::from_secs(usize_flag(&args, "--time-limit").unwrap_or(10) as u64);
    println!("fuzzbench: differential engine fuzzing, {seeds} seeds from {start}");

    let mut failing_seeds: BTreeSet<u64> = BTreeSet::new();
    let mut properties_checked = 0usize;
    let mut inconclusive = [0usize; 3];
    let inconclusive_counts = |counts: &[usize; 3]| {
        let per_engine: Vec<String> = ENGINES
            .iter()
            .zip(counts)
            .map(|(engine, n)| format!("{engine} {n}"))
            .collect();
        format!("inconclusive: {}", per_engine.join(", "))
    };
    for seed in start..start + seeds as u64 {
        let design = fuzz_design(seed);
        for prop_index in 0..design.properties.len() {
            properties_checked += 1;
            let (outcomes, checked) = check_property(&design, prop_index, limit);
            for (count, outcome) in inconclusive.iter_mut().zip(outcomes) {
                *count += usize::from(outcome == Outcome::Unknown);
            }
            let Err(msg) = checked else {
                continue;
            };
            failing_seeds.insert(seed);
            eprintln!("fuzzbench: FAILURE at seed {seed}: {msg}");
            // Shrink while the failure persists, then report (and
            // optionally dump) the minimal repro.
            let shrunk = shrink_design(&design, prop_index, |candidate| {
                check_property(candidate, 0, limit).1.is_err()
            });
            eprintln!(
                "fuzzbench: seed {seed} shrunk to {} inputs, {} registers, {} gates \
                 (property `{}`)",
                shrunk.netlist.inputs().len(),
                shrunk.netlist.num_registers(),
                shrunk.netlist.num_gates(),
                shrunk.properties[0].name
            );
            if let Some(dir) = &emit_dir {
                let dir = std::path::Path::new(dir);
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("fuzzbench: creating {}: {e}", dir.display());
                } else {
                    let path = dir.join(format!("seed{seed}_{}.aag", shrunk.properties[0].name));
                    match write_aiger_ascii(&shrunk.netlist, &shrunk.properties) {
                        Ok(bytes) => match std::fs::write(&path, bytes) {
                            Ok(()) => eprintln!("fuzzbench: repro written to {}", path.display()),
                            Err(e) => eprintln!("fuzzbench: writing {}: {e}", path.display()),
                        },
                        Err(e) => eprintln!("fuzzbench: serializing repro: {e}"),
                    }
                }
            }
        }
        if (seed + 1 - start).is_multiple_of(100) {
            println!(
                "fuzzbench: {}/{seeds} seeds, {properties_checked} properties, {} failing seeds, {}",
                seed + 1 - start,
                failing_seeds.len(),
                inconclusive_counts(&inconclusive)
            );
        }
    }

    if failing_seeds.is_empty() {
        println!(
            "fuzzbench: OK — {seeds} seeds, {properties_checked} properties, all engines agree, {}",
            inconclusive_counts(&inconclusive)
        );
        ExitCode::SUCCESS
    } else {
        let listed: Vec<String> = failing_seeds.iter().map(|s| s.to_string()).collect();
        eprintln!(
            "fuzzbench: FAILED — {} failing seed(s): {}; {}",
            failing_seeds.len(),
            listed.join(", "),
            inconclusive_counts(&inconclusive)
        );
        ExitCode::from(1)
    }
}
