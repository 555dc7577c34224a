//! The `rfn` command-line tool: verify properties and analyze coverage on
//! designs from any supported input form.
//!
//! ```text
//! rfn info <design>
//! rfn verify <design> [--watch <signal>[=0|1]] [--watch ...] [--name <p>]
//!            [--engine <rfn|plain|bmc|race>]
//!            [--time-limit <s>] [--threads <n>] [--sim-batches <n>]
//!            [--sim-seed <n>] [--cluster-limit <nodes>]
//!            [--static-order <seed|force>]
//!            [--order-cache-dir <dir>] [--group-threshold <t>] [--no-group]
//!            [--checkpoint-dir <dir>] [--resume]
//!            [--no-frontier-simplify] [--trace-out <file>] [--breakdown] [-v]
//! rfn coverage <design> --signals <a,b,c> [--bfs <k>] [--time-limit <s>]
//!              [--sim-batches <n>] [--sim-seed <n>] [--cluster-limit <nodes>]
//!              [--static-order <seed|force>] [--no-frontier-simplify]
//!              [--trace-out <file>] [--breakdown]
//! ```
//!
//! `<design>` is a [`DesignSource`] spec, resolved uniformly for every
//! subcommand: `builtin:<name>` (or a bare builtin name like `fifo`) for a
//! bundled generator, `fuzz:<seed>` for a seeded random design, a
//! `.aag`/`.aig` path for an AIGER file, a `.cnf` path for a DIMACS CNF
//! formula, and any other path for the line-oriented text netlist format.
//! When the input carries its own properties (AIGER bad literals, the
//! DIMACS satisfiability property, builtin/fuzz properties), `verify` runs
//! them without any `--watch`; `--watch` flags replace them.
//!
//! Warm-start order caches and checkpoints are keyed by the design's
//! canonical identity — the file content hash for file-backed designs — so
//! renaming a file keeps its warm starts while editing it invalidates them.
//!
//! `--engine` picks the verification lane: `rfn` (the default
//! abstraction-refinement loop), `plain` (whole-COI symbolic model
//! checking), `bmc` (SAT-based bounded model checking with UNSAT-core
//! abstraction), or `race` (all three race under the shared budget; the
//! first conclusive lane wins and cancels the others).
//!
//! `--cluster-limit` bounds the node count of each clustered transition
//! partition used by image computation (0 keeps one partition per register);
//! `--no-frontier-simplify` disables don't-care frontier minimization.
//!
//! `--static-order` picks the initial BDD variable order: `seed` interleaves
//! register current/next pairs in declaration order (the default), `force`
//! runs the FORCE center-of-gravity pre-ordering pass over the netlist
//! topology before any BDD is built. Verdicts and reached-state sets are
//! identical under either order; only node counts and wall-clock change.
//!
//! `--order-cache-dir <dir>` persists the converged variable order per
//! (design, property) after a conclusive verdict and warm-starts repeat runs
//! from it; the cache is keyed by a structural hash of the netlist, so a
//! changed design never silently reuses a stale order.
//!
//! `--sim-batches` caps how many 64-pattern batches the random-simulation
//! concretization engine tries before falling back to sequential ATPG (0
//! disables the engine); an attempt stops after the first missing batch
//! whose patterns all fell off the abstract trace's corridor, so the cap
//! binds only while some pattern keeps to it. `--sim-seed` makes its
//! pseudo-random patterns reproducible (results are deterministic per seed
//! regardless of `--threads`).
//!
//! `--watch` may be repeated: the properties form a portfolio verified in
//! parallel (one BDD manager per property, `--threads` workers) with results
//! printed in command-line order. The exit code is the worst verdict: any
//! falsification wins over any inconclusive result.
//!
//! With the `plain` and `bmc` engines, properties whose register cones of
//! influence overlap are *grouped*: each group shares one model build and
//! one reachability fixpoint (or one incremental SAT unrolling), which is
//! faster while producing verdicts and depths identical to ungrouped runs.
//! `--group-threshold <t>` sets the Jaccard COI-overlap needed to join a
//! group (default 0.5); `--no-group` disables grouping entirely.
//!
//! `--time-limit` is one budget *shared by the whole portfolio* — all
//! properties race the same deadline. `--checkpoint-dir` makes each RFN job
//! snapshot its refinement loop after every iteration; `--resume` continues
//! from those snapshots, so a killed or budget-exhausted run picks up where
//! it stopped and reaches the same verdict the uninterrupted run would have.
//!
//! `--trace-out <file>` streams the run's structured events as JSONL (schema:
//! `rfn_trace` crate docs); `--breakdown` prints a per-phase time table after
//! the results. Both observe the *same* event stream the engines emit — the
//! table is computed from the events, so it can never disagree with the file.
//!
//! Any argument a subcommand does not know is a usage error (exit 2).
//!
//! Text netlists use the line-oriented format of
//! [`rfn_netlist::parse_netlist`](rfn::netlist::parse_netlist); see
//! `examples/custom_design.rs` for a complete design.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rfn::core::prelude::*;
use rfn::mc::ReachOptions;
use rfn::netlist::{Coi, SignalId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rfn: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  rfn info <design>
  rfn verify <design> [--watch <signal>[=0|1]] [--watch ...] [--name <p>]
             [--engine <rfn|plain|bmc|race>]
             [--time-limit <s>] [--threads <n>] [--sim-batches <n>]
             [--sim-seed <n>] [--cluster-limit <nodes>]
             [--static-order <seed|force>]
             [--order-cache-dir <dir>] [--group-threshold <t>] [--no-group]
             [--checkpoint-dir <dir>] [--resume]
             [--no-frontier-simplify] [--trace-out <file>] [--breakdown] [-v]
  rfn coverage <design> --signals <a,b,c> [--bfs <k>] [--time-limit <s>]
               [--sim-batches <n>] [--sim-seed <n>] [--cluster-limit <nodes>]
               [--static-order <seed|force>] [--no-frontier-simplify]
               [--trace-out <file>] [--breakdown]

`<design>` is a design spec: builtin:<name> (fifo, integer_unit, usb,
processor; bare names work too), fuzz:<seed> (seeded random design),
<path>.aag/.aig (AIGER), <path>.cnf (DIMACS CNF), or any other path (text
netlist). Inputs that carry their own properties (AIGER bad literals,
DIMACS, builtin, fuzz) verify without --watch; --watch replaces them.
`--watch` may repeat; the portfolio runs in parallel on --threads workers.
`--engine` picks the lane: rfn (default), plain (whole-COI symbolic MC),
bmc (SAT bounded model checking), or race (all three; first conclusive
lane wins and cancels the rest).
`--sim-batches`/`--sim-seed` configure the random-simulation concretization
engine (64 patterns per batch; --sim-batches is a cap, default 64: a miss
whose patterns all left the abstract trace's corridor stops early; 0
disables the engine).
`--cluster-limit` bounds the clustered transition partitions of image
computation (0 = one partition per register); `--no-frontier-simplify`
turns off don't-care frontier minimization.
`--static-order` picks the initial BDD variable order (seed = declaration
order, force = FORCE topological pre-ordering);
`--order-cache-dir` warm-starts repeat runs from the converged order saved
per (design, property). Verdicts are identical under every ordering knob.
With --engine plain/bmc, properties with overlapping register COIs share
one model and fixpoint (or SAT unrolling) per group; `--group-threshold`
sets the Jaccard overlap to join a group (default 0.5), `--no-group`
disables grouping. Verdicts and depths match ungrouped runs exactly.
`--time-limit` is one budget shared by the whole portfolio (all properties
race the same deadline). `--checkpoint-dir` snapshots each RFN job's
refinement loop after every iteration; `--resume` continues from the
snapshots.
`--trace-out` writes the structured event stream as JSONL; `--breakdown`
prints a per-phase time table.
exit codes: 0 all properties proved / analysis done, 1 some property
            falsified, 3 some property inconclusive (falsified wins)";

/// The flags of `verify`, each with whether it takes a value.
const VERIFY_FLAGS: &[(&str, bool)] = &[
    ("--watch", true),
    ("--name", true),
    ("--engine", true),
    ("--time-limit", true),
    ("--threads", true),
    ("--sim-batches", true),
    ("--sim-seed", true),
    ("--cluster-limit", true),
    ("--static-order", true),
    ("--order-cache-dir", true),
    ("--group-threshold", true),
    ("--no-group", false),
    ("--checkpoint-dir", true),
    ("--resume", false),
    ("--no-frontier-simplify", false),
    ("--trace-out", true),
    ("--breakdown", false),
    ("-v", false),
];

/// The flags of `coverage`, each with whether it takes a value.
const COVERAGE_FLAGS: &[(&str, bool)] = &[
    ("--signals", true),
    ("--bfs", true),
    ("--time-limit", true),
    ("--sim-batches", true),
    ("--sim-seed", true),
    ("--cluster-limit", true),
    ("--static-order", true),
    ("--no-frontier-simplify", false),
    ("--trace-out", true),
    ("--breakdown", false),
];

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let flags = match cmd.as_str() {
        "info" => &[],
        "verify" => VERIFY_FLAGS,
        "coverage" => COVERAGE_FLAGS,
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    let spec = it.next().ok_or("missing design spec")?;
    let rest: Vec<&String> = it.collect();
    check_flags(cmd, flags, &rest)?;
    let loaded = DesignSource::parse(spec)
        .and_then(|source| source.load())
        .map_err(|e| e.to_string())?;
    match cmd.as_str() {
        "info" => {
            info(&loaded);
            Ok(ExitCode::SUCCESS)
        }
        "verify" => verify(&loaded, &rest),
        _ => coverage(&loaded.design.netlist, &rest),
    }
}

/// Rejects every argument that is not one of `flags`, and a value flag
/// with no value after it, so a typo cannot silently drop a setting.
fn check_flags(cmd: &str, flags: &[(&str, bool)], rest: &[&String]) -> Result<(), String> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match flags.iter().find(|(flag, _)| flag == arg) {
            None => return Err(format!("unknown argument `{arg}` for `{cmd}`")),
            Some((flag, true)) if args.next().is_none() => {
                return Err(format!("{flag} needs a value"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn info(loaded: &LoadedDesign) {
    let n = &loaded.design.netlist;
    println!("source: {} ({})", loaded.source, loaded.identity.canonical);
    println!("{n}");
    for (name, sig) in n.outputs() {
        let coi = Coi::of(n, [*sig]);
        println!(
            "  output {name}: COI {} registers, {} gates",
            coi.num_registers(),
            coi.num_gates()
        );
    }
    for p in &loaded.design.properties {
        let coi = Coi::of(n, [p.signal]);
        println!(
            "  property {}: never {}={} | COI {} registers, {} gates",
            p.name,
            n.signal_name(p.signal),
            u8::from(p.value),
            coi.num_registers(),
            coi.num_gates()
        );
    }
}

fn lookup(n: &Netlist, name: &str) -> Result<SignalId, String> {
    n.find(name)
        .ok_or_else(|| format!("no signal named `{name}` in the design"))
}

fn flag_value<'a>(rest: &'a [&String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

/// All values of a repeatable flag, in command-line order.
fn flag_values<'a>(rest: &'a [&String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i].as_str() == flag {
            if let Some(v) = rest.get(i + 1) {
                out.push(v.as_str());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn thread_count(rest: &[&String]) -> Result<usize, String> {
    match flag_value(rest, "--threads") {
        None => Ok(default_threads()),
        Some(s) => s
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("bad --threads `{s}`")),
    }
}

/// Parses `--sim-batches` / `--sim-seed` into `(batches, seed)` overrides.
fn sim_flags(rest: &[&String]) -> Result<(Option<usize>, Option<u64>), String> {
    let batches = match flag_value(rest, "--sim-batches") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|_| format!("bad --sim-batches `{s}`"))?,
        ),
    };
    let seed = match flag_value(rest, "--sim-seed") {
        None => None,
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| format!("bad --sim-seed `{s}`"))?,
        ),
    };
    Ok((batches, seed))
}

/// Parses `--cluster-limit` / `--no-frontier-simplify` into overrides.
fn image_flags(rest: &[&String]) -> Result<(Option<usize>, bool), String> {
    let cluster_limit = match flag_value(rest, "--cluster-limit") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|_| format!("bad --cluster-limit `{s}`"))?,
        ),
    };
    let frontier_simplify = !rest.iter().any(|a| a.as_str() == "--no-frontier-simplify");
    Ok((cluster_limit, frontier_simplify))
}

/// Parses `--static-order` into an ordering override.
fn static_order_flag(rest: &[&String]) -> Result<Option<rfn::mc::StaticOrder>, String> {
    flag_value(rest, "--static-order")
        .map(|s| rfn::mc::StaticOrder::parse(s).map_err(|e| format!("bad --static-order: {e}")))
        .transpose()
}

/// Parses `--engine` into the session's lane selection.
fn engine_kind(rest: &[&String]) -> Result<EngineKind, String> {
    match flag_value(rest, "--engine") {
        None | Some("rfn") => Ok(EngineKind::Rfn),
        Some("plain") => Ok(EngineKind::PlainMc),
        Some("bmc") => Ok(EngineKind::Bmc),
        Some("race") => Ok(EngineKind::Race),
        Some(other) => Err(format!("bad --engine `{other}` (rfn|plain|bmc|race)")),
    }
}

fn time_limit(rest: &[&String]) -> Result<Option<Duration>, String> {
    match flag_value(rest, "--time-limit") {
        None => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(|v| Some(Duration::from_secs(v)))
            .map_err(|_| format!("bad --time-limit `{s}`")),
    }
}

/// The CLI's observability trio: the sink to hand to the session (JSONL file
/// and/or an in-memory buffer for the breakdown table), the buffer itself,
/// and the JSONL sink so it can be flushed after the run.
struct Observers {
    sink: Option<Arc<dyn TraceSink>>,
    memory: Option<Arc<MemorySink>>,
    jsonl: Option<Arc<JsonlSink>>,
}

/// Builds the session sink from `--trace-out` / `--breakdown`.
fn observers(rest: &[&String]) -> Result<Observers, String> {
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    let jsonl = match flag_value(rest, "--trace-out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            let sink = Arc::new(JsonlSink::new(Box::new(std::io::BufWriter::new(file))));
            sinks.push(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let memory = if rest.iter().any(|a| a.as_str() == "--breakdown") {
        let sink = Arc::new(MemorySink::new());
        sinks.push(sink.clone());
        Some(sink)
    } else {
        None
    };
    let sink = match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(Arc::new(FanoutSink::new(sinks)) as Arc<dyn TraceSink>),
    };
    Ok(Observers {
        sink,
        memory,
        jsonl,
    })
}

/// Flushes the JSONL file and prints the breakdown table, if requested.
fn finish_observers(obs: &Observers) -> Result<(), String> {
    if let Some(jsonl) = &obs.jsonl {
        jsonl.flush();
    }
    if let Some(memory) = &obs.memory {
        let table = TimeBreakdown::from_events(&memory.take()).render();
        if table.is_empty() {
            println!("\nno spans recorded");
        } else {
            let mut stdout = std::io::stdout().lock();
            let _ = write!(stdout, "\n{table}");
        }
    }
    Ok(())
}

fn verify(loaded: &LoadedDesign, rest: &[&String]) -> Result<ExitCode, String> {
    let n = &loaded.design.netlist;
    let watches = flag_values(rest, "--watch");
    // Explicit `--watch` flags replace whatever the input format carries;
    // without them the design's own properties (AIGER bad literals, the
    // DIMACS `sat` property, builtin/fuzz properties) form the portfolio.
    let properties = if watches.is_empty() {
        if loaded.design.properties.is_empty() {
            return Err(format!(
                "design `{}` carries no properties; verify needs --watch <signal>[=0|1]",
                loaded.source
            ));
        }
        loaded.design.properties.clone()
    } else {
        let mut properties = Vec::with_capacity(watches.len());
        for watch in &watches {
            let (sig_name, value) = match watch.split_once('=') {
                Some((s, "0")) => (s, false),
                Some((s, "1")) => (s, true),
                Some((_, v)) => return Err(format!("bad watch value `{v}` (use 0 or 1)")),
                None => (*watch, true),
            };
            let signal = lookup(n, sig_name)?;
            // `--name` renames a single property; portfolios use signal names.
            let name = if watches.len() == 1 {
                flag_value(rest, "--name").unwrap_or(sig_name).to_owned()
            } else {
                sig_name.to_owned()
            };
            properties.push(Property::never_value(name, signal, value));
        }
        properties
    };
    let obs = observers(rest)?;
    // Each property is an independent job with its own BDD managers; the
    // session runs the portfolio in parallel and reports in command-line
    // order, with the event streams merged deterministically.
    let (sim_batches, sim_seed) = sim_flags(rest)?;
    let (cluster_limit, frontier_simplify) = image_flags(rest)?;
    let mut rfn_opts = RfnOptions::default().with_frontier_simplify(frontier_simplify);
    if let Some(batches) = sim_batches {
        rfn_opts = rfn_opts.with_sim_batches(batches);
    }
    if let Some(seed) = sim_seed {
        rfn_opts = rfn_opts.with_sim_seed(seed);
    }
    if let Some(limit) = cluster_limit {
        rfn_opts = rfn_opts.with_cluster_limit(limit);
    }
    if let Some(order) = static_order_flag(rest)? {
        rfn_opts = rfn_opts.with_static_order(order);
    }
    if let Some(dir) = flag_value(rest, "--order-cache-dir") {
        rfn_opts = rfn_opts.with_order_cache_dir(dir);
    }
    if let Some(dir) = flag_value(rest, "--checkpoint-dir") {
        rfn_opts = rfn_opts.with_checkpoint_dir(dir);
    }
    if rest.iter().any(|a| a.as_str() == "--resume") {
        rfn_opts = rfn_opts.with_resume(true);
    }
    let mut session = VerifySession::new(n)
        .rfn_options(rfn_opts)
        .design_identity(&loaded.identity)
        .engine(engine_kind(rest)?)
        .properties(properties)
        .threads(thread_count(rest)?)
        .verbosity(u8::from(rest.iter().any(|a| a.as_str() == "-v")));
    if rest.iter().any(|a| a.as_str() == "--no-group") {
        session = session.grouping(false);
    }
    if let Some(s) = flag_value(rest, "--group-threshold") {
        let t = s
            .parse::<f64>()
            .map_err(|_| format!("bad --group-threshold `{s}`"))?;
        session = session.group_threshold(t);
    }
    if let Some(limit) = time_limit(rest)? {
        session = session.time_limit(limit);
    }
    if let Some(sink) = obs.sink.clone() {
        session = session.trace(sink);
    }
    let report = session.run().map_err(|e| e.to_string())?;
    for result in &report.results {
        report_result(n, result);
    }
    finish_observers(&obs)?;
    Ok(ExitCode::from(report.worst_exit_code()))
}

/// Prints one property's verdict. RFN statistics are appended when the RFN
/// lane produced the verdict; the plain and BMC lanes print without them.
fn report_result(n: &Netlist, result: &PropertyResult) {
    match &result.verdict {
        Verdict::Proved => match &result.stats {
            Some(stats) => println!(
                "PROVED `{}`: abstraction {} of {} COI registers, {} iterations, {:.2?}",
                result.property.name,
                stats.abstract_registers,
                stats.coi_registers,
                stats.iterations,
                stats.elapsed
            ),
            None => println!("PROVED `{}`", result.property.name),
        },
        Verdict::Falsified { trace, depth } => {
            // The plain/BMC lanes report the step index of the violation;
            // when a concrete trace exists, its cycle count is the length.
            let shape = match trace {
                Some(t) => format!("{}-cycle error trace", t.num_cycles()),
                None => format!("target hit at depth {depth}"),
            };
            match &result.stats {
                Some(stats) => println!(
                    "FALSIFIED `{}`: {shape} ({} iterations, {:.2?})",
                    result.property.name, stats.iterations, stats.elapsed
                ),
                None => println!("FALSIFIED `{}`: {shape}", result.property.name),
            }
            if let Some(trace) = trace {
                print!("{}", trace.display(n));
            }
        }
        Verdict::Inconclusive { reason } => {
            println!("INCONCLUSIVE `{}`: {reason}", result.property.name);
        }
    }
}

fn coverage(n: &Netlist, rest: &[&String]) -> Result<ExitCode, String> {
    let signals = flag_value(rest, "--signals").ok_or("coverage needs --signals <a,b,c>")?;
    let sigs: Result<Vec<SignalId>, String> =
        signals.split(',').map(|s| lookup(n, s.trim())).collect();
    let set = CoverageSet::new("cli", sigs?);
    let obs = observers(rest)?;
    let (sim_batches, sim_seed) = sim_flags(rest)?;
    let (cluster_limit, frontier_simplify) = image_flags(rest)?;
    let mut cov_opts = CoverageOptions::default().with_frontier_simplify(frontier_simplify);
    if let Some(batches) = sim_batches {
        cov_opts.concretize_sim.batches = batches;
    }
    if let Some(seed) = sim_seed {
        cov_opts.concretize_sim.seed = seed;
    }
    if let Some(limit) = cluster_limit {
        cov_opts = cov_opts.with_cluster_limit(limit);
    }
    let static_order = static_order_flag(rest)?;
    if let Some(order) = static_order {
        cov_opts.reach.static_order = order;
    }
    let mut session = VerifySession::new(n)
        .coverage_options(cov_opts)
        .coverage_set(&set);
    if let Some(limit) = time_limit(rest)? {
        session = session.time_limit(limit);
    }
    if let Some(sink) = obs.sink.clone() {
        session = session.trace(sink);
    }
    let report = session.run().map_err(|e| e.to_string())?;
    let cov = &report.coverage[0];
    println!(
        "coverage: {} states | {} unreachable, {} reachable, {} unresolved \
         | abstraction {} regs | {:.2?}",
        cov.total_states,
        cov.unreachable,
        cov.reachable,
        cov.unresolved,
        cov.abstract_registers,
        cov.elapsed
    );
    if let Some(k) = flag_value(rest, "--bfs") {
        let k: usize = k.parse().map_err(|_| format!("bad --bfs `{k}`"))?;
        let mut bfs_reach = ReachOptions::default().with_frontier_simplify(frontier_simplify);
        if let Some(limit) = cluster_limit {
            bfs_reach = bfs_reach.with_cluster_limit(limit);
        }
        if let Some(order) = static_order {
            bfs_reach = bfs_reach.with_static_order(order);
        }
        let bfs = bfs_coverage(n, &set, k, 4_000_000, &bfs_reach).map_err(|e| e.to_string())?;
        println!(
            "BFS({k}):  {} unreachable | abstraction {} regs | {:.2?}",
            bfs.unreachable, bfs.abstract_registers, bfs.elapsed
        );
    }
    finish_observers(&obs)?;
    Ok(ExitCode::SUCCESS)
}
