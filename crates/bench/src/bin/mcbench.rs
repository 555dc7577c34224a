//! Image-computation benchmark: clustered transition relations plus
//! don't-care frontier minimization vs. the seed's linear per-register
//! relational product, on the bundled benchmark designs.
//!
//! ```text
//! cargo run -p rfn-bench --bin mcbench --release [-- --quick] [--smoke]
//! ```
//!
//! Five sections:
//!
//! 1. **Lockstep equivalence** — on one shared BDD manager per design, each
//!    BFS step computes the new states twice: through a seed-style linear
//!    relational product replayed over the per-register partitions, and
//!    through the precomputed clustered schedule applied to the
//!    restrict-minimized frontier. Canonicity makes functional equality a
//!    handle comparison; any mismatch exits nonzero. This is the CI smoke
//!    gate for both clustering and frontier minimization.
//! 2. **Reachability throughput** — step-capped forward fixpoints under the
//!    seed configuration (linear schedule, no minimization) and the
//!    overhauled one (clustered, minimized), on separate managers with
//!    reordering disabled. Reached-set cardinalities and verdicts must
//!    agree; wall time and unique-table probes quantify the speedup.
//! 3. **Property verdicts** — the same two configurations must return
//!    identical verdicts (and hit depths) for the bundled property and
//!    coverage targets.
//! 4. **Ordering** — the same fixpoint three ways: *cold* under the seed
//!    declaration order, *cold* under the FORCE static pre-order, and
//!    *warm* from the order/ring store the seed run persisted (the
//!    repeat-run path behind `--order-cache-dir`). All three must agree on
//!    the verdict, the step count and every ring's state-set *cardinality*
//!    (node counts legitimately differ across variable orders, so the gate
//!    is `sat_count`, not size). Wall-clock, peak nodes and sift counts
//!    quantify the win; under `--smoke` the warm run must also sift no more
//!    than the cold run it resumed from.
//! 5. **Multi-property grouping** — two legs. Per design, a multi-target
//!    `forward_reach_multi` over the case target plus register sub-targets
//!    must reproduce every dedicated single-target run's verdict and hit
//!    depth from one shared fixpoint. Then the many-property synthetic
//!    (disjoint saturating counters, several properties each) runs through
//!    `VerifySession` grouped and ungrouped at one thread: verdicts and
//!    depths must match property-for-property, the clustering must recover
//!    at least one non-singleton group, and — outside `--smoke` — the
//!    grouped portfolio must be at least 2x faster in aggregate wall time.
//!
//! The models are bounded abstractions — the BFS-nearest registers of each
//! target, as the coverage engine's initial abstraction would pick — since
//! full-COI reachability on the paper-sized processor is exactly the
//! capacity wall the RFN loop exists to avoid. Results are written to
//! `BENCH_mc.json` (hand-rolled JSON, no dependencies; a `--smoke` run
//! writes `target/bench-smoke/BENCH_mc.json` instead). `--smoke` shrinks
//! the register and step caps for CI; `--quick` selects the scaled-down
//! designs (paper-sized otherwise).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rfn_bdd::{Bdd, BddManager, VarId};
use rfn_bench::common::{build_model, grouped_synthetic, make_case, Case};
use rfn_bench::Scale;
use rfn_designs::{fifo_controller, integer_unit, processor_module, usb_controller};
use rfn_mc::{
    forward_reach, forward_reach_multi, forward_reach_warm, ModelOptions, ModelSpec, ReachOptions,
    ReachResult, ReachVerdict, SymbolicModel,
};
use rfn_netlist::SignalId;

/// One configuration's measurements for a reachability run.
struct Run {
    build_ms: f64,
    reach_ms: f64,
    steps: usize,
    unique_probes: u64,
    peak_nodes: usize,
    clusters: usize,
    restrict_hits: u64,
    restrict_misses: u64,
    verdict: ReachVerdict,
    reached_nodes: usize,
    ring_nodes: Vec<usize>,
}

/// A throughput-comparison row (section 2).
struct ReachRow {
    design: String,
    target: String,
    registers: usize,
    linear: Run,
    clustered: Run,
}

impl ReachRow {
    fn time_speedup(&self) -> f64 {
        self.linear.reach_ms / self.clustered.reach_ms.max(1e-9)
    }

    fn ops_ratio(&self) -> f64 {
        self.linear.unique_probes as f64 / (self.clustered.unique_probes as f64).max(1.0)
    }
}

/// A verdict-comparison row (section 3).
struct VerdictRow {
    design: String,
    target: String,
    verdict: ReachVerdict,
    linear_ms: f64,
    clustered_ms: f64,
}

/// One ordering configuration's measurements (section 4).
struct OrderRun {
    build_ms: f64,
    reach_ms: f64,
    steps: usize,
    peak_nodes: usize,
    sift_runs: u64,
    verdict: ReachVerdict,
}

impl OrderRun {
    fn total_ms(&self) -> f64 {
        self.build_ms + self.reach_ms
    }
}

/// An ordering-comparison row (section 4): cold seed order vs. FORCE
/// pre-order vs. warm-start from the persisted store.
struct OrderRow {
    design: String,
    target: String,
    registers: usize,
    cold: OrderRun,
    force: OrderRun,
    warm: OrderRun,
}

impl OrderRow {
    /// Reach wall-time speedup of the FORCE pre-order over the cold seed
    /// run (`build_ms` reports FORCE's up-front arrangement cost
    /// separately).
    fn force_speedup(&self) -> f64 {
        self.cold.reach_ms / self.force.reach_ms.max(1e-9)
    }

    /// Reach wall-time speedup of the warm-started repeat run over the
    /// cold one (the store load and order rebuild are in the warm run's
    /// `build_ms`).
    fn warm_speedup(&self) -> f64 {
        self.cold.reach_ms / self.warm.reach_ms.max(1e-9)
    }
}

/// A multi-target grouping row (section 5): the case target plus register
/// sub-targets, resolved by one shared fixpoint vs dedicated runs.
struct MultiRow {
    design: String,
    targets: usize,
    single_ms_total: f64,
    multi_ms: f64,
}

impl MultiRow {
    fn speedup(&self) -> f64 {
        self.single_ms_total / self.multi_ms.max(1e-9)
    }
}

/// The session-level synthetic comparison (section 5): one netlist of
/// disjoint counters, verified grouped and ungrouped.
struct SyntheticRow {
    groups: usize,
    props: usize,
    non_singleton: usize,
    ungrouped_ms: f64,
    grouped_ms: f64,
}

impl SyntheticRow {
    fn speedup(&self) -> f64 {
        self.ungrouped_ms / self.grouped_ms.max(1e-9)
    }
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let step_cap = usize_flag("--steps").unwrap_or(if smoke { 10 } else { 24 });
    let reg_override = usize_flag("--regs").or(if smoke { Some(20) } else { None });
    let only = string_flag("--only");
    println!("mcbench: image computation (scale: {scale:?}, smoke: {smoke})");
    println!();

    // `--design <spec>` (repeatable) replaces the builtin case list with
    // designs loaded through `DesignSource` — any spec form works
    // (`builtin:<name>`, `fuzz:<seed>`, `.aag`/`.aig`/`.cnf` paths).
    let design_specs = string_flags("--design");
    let mut cases = if design_specs.is_empty() {
        build_cases(scale, reg_override, step_cap)
    } else {
        let mut cases = Vec::new();
        for spec in &design_specs {
            match rfn_bench::common::design_case(spec, reg_override.unwrap_or(32), step_cap) {
                Ok(case) => cases.push(case),
                Err(e) => {
                    eprintln!("mcbench: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        cases
    };
    if let Some(only) = &only {
        cases.retain(|c| c.name == *only);
    }

    // Section 1: lockstep equivalence on a shared manager.
    for case in &cases {
        match lockstep_equivalence(case) {
            Ok((steps, clusters)) => println!(
                "lockstep ok: {}/{} ({} steps, {} partitions -> {} clusters)",
                case.name,
                case.target_name,
                steps,
                case.spec.registers.len(),
                clusters
            ),
            Err(msg) => {
                eprintln!(
                    "mcbench: clustered/linear image MISMATCH on {}/{}: {msg}",
                    case.name, case.target_name
                );
                return ExitCode::from(1);
            }
        }
    }
    println!();

    // Section 2: step-capped reachability throughput, seed vs. overhauled.
    let mut reach_rows = Vec::new();
    for case in &cases {
        let linear = run_seed_reach(case, None);
        let clustered = run_reach(case, None);
        if let Err(msg) = check_agreement(&linear, &clustered) {
            eprintln!(
                "mcbench: reachability DISAGREEMENT on {}/{}: {msg}",
                case.name, case.target_name
            );
            return ExitCode::from(1);
        }
        let row = ReachRow {
            design: case.name.clone(),
            target: case.target_name.clone(),
            registers: case.spec.registers.len(),
            linear,
            clustered,
        };
        println!(
            "{:<14} {:>3} regs  linear {:>9.1} ms  clustered {:>9.1} ms  {:>5.1}x time  {:>5.1}x ops",
            row.design,
            row.registers,
            row.linear.reach_ms,
            row.clustered.reach_ms,
            row.time_speedup(),
            row.ops_ratio()
        );
        reach_rows.push(row);
    }
    println!();

    // Section 3: property/coverage verdict equivalence.
    let mut verdict_rows = Vec::new();
    for case in &cases {
        let linear = run_seed_reach(case, Some((case.target, case.value)));
        let clustered = run_reach(case, Some((case.target, case.value)));
        if let Err(msg) = check_agreement(&linear, &clustered) {
            eprintln!(
                "mcbench: verdict DISAGREEMENT on {}/{}: {msg}",
                case.name, case.target_name
            );
            return ExitCode::from(1);
        }
        println!(
            "verdict ok: {}/{} -> {:?} (linear {:.1} ms, clustered {:.1} ms)",
            case.name, case.target_name, clustered.verdict, linear.reach_ms, clustered.reach_ms
        );
        verdict_rows.push(VerdictRow {
            design: case.name.clone(),
            target: case.target_name.clone(),
            verdict: clustered.verdict,
            linear_ms: linear.reach_ms,
            clustered_ms: clustered.reach_ms,
        });
    }
    println!();

    // Section 4: ordering. Cold seed order vs. FORCE pre-order vs. a warm
    // start from the store the cold run saved. The gates are semantic
    // (verdict, steps, per-ring cardinalities); the times are the payoff.
    let cache_dir = std::env::temp_dir().join("rfn-mcbench-order");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut order_rows = Vec::new();
    for case in &cases {
        match ordering_case(case, &cache_dir, smoke) {
            Ok(row) => {
                println!(
                    "ordering ok: {:<14} cold {:>8.1} ms  force {:>8.1} ms ({:.2}x)  \
                     warm {:>8.1} ms ({:.2}x)  sifts {}:{}:{}",
                    row.design,
                    row.cold.reach_ms,
                    row.force.reach_ms,
                    row.force_speedup(),
                    row.warm.reach_ms,
                    row.warm_speedup(),
                    row.cold.sift_runs,
                    row.force.sift_runs,
                    row.warm.sift_runs
                );
                order_rows.push(row);
            }
            Err(msg) => {
                eprintln!(
                    "mcbench: ordering FAILURE on {}/{}: {msg}",
                    case.name, case.target_name
                );
                return ExitCode::from(1);
            }
        }
    }

    println!();

    // Section 5: multi-property grouping. Per design, one shared fixpoint
    // must resolve several targets with the depths dedicated runs find;
    // then the synthetic portfolio gates the session-level speedup.
    let mut multi_rows = Vec::new();
    for case in &cases {
        match multi_target_case(case) {
            Ok(row) => {
                println!(
                    "multi ok: {:<14} {} targets  singles {:>8.1} ms  multi {:>8.1} ms ({:.2}x)",
                    row.design,
                    row.targets,
                    row.single_ms_total,
                    row.multi_ms,
                    row.speedup()
                );
                multi_rows.push(row);
            }
            Err(msg) => {
                eprintln!(
                    "mcbench: multi-target DISAGREEMENT on {}/{}: {msg}",
                    case.name, case.target_name
                );
                return ExitCode::from(1);
            }
        }
    }
    let synthetic = match synthetic_sessions(smoke) {
        Ok(row) => {
            println!(
                "synthetic ok: {} groups x {} props  ungrouped {:>8.1} ms  grouped {:>8.1} ms \
                 ({:.2}x, {} non-singleton groups)",
                row.groups,
                row.props / row.groups,
                row.ungrouped_ms,
                row.grouped_ms,
                row.speedup(),
                row.non_singleton
            );
            row
        }
        Err(msg) => {
            eprintln!("mcbench: synthetic grouping FAILURE: {msg}");
            return ExitCode::from(1);
        }
    };
    if !smoke && synthetic.speedup() < 2.0 {
        eprintln!(
            "mcbench: synthetic grouping speedup {:.2}x below the 2x gate",
            synthetic.speedup()
        );
        return ExitCode::from(1);
    }

    let json = render_json(
        &reach_rows,
        &verdict_rows,
        &order_rows,
        &multi_rows,
        &synthetic,
        smoke,
    );
    match rfn_bench::write_bench_json("BENCH_mc.json", &json, smoke) {
        Ok(path) => {
            println!();
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mcbench: writing BENCH_mc.json: {e}");
            ExitCode::from(1)
        }
    }
}

/// Parses a `--flag <n>` override from the command line.
fn usize_flag(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

/// Parses a `--flag <value>` string override from the command line.
fn string_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// All values of a repeatable `--flag <value>`, in command-line order.
fn string_flags(flag: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

/// Assembles the benchmark cases: the Table 1 property designs plus the
/// Table 2 coverage designs, each bounded to the BFS-nearest registers of
/// its target. The per-design register caps are tuned so a reorder-free
/// fixpoint stays in the seconds range while the state space is still large
/// enough to exercise the image pipeline (`--regs` overrides all of them).
fn build_cases(scale: Scale, reg_override: Option<usize>, steps: usize) -> Vec<Case> {
    let cap = |default: usize| reg_override.unwrap_or(default);
    let mut cases = Vec::new();
    let fifo = fifo_controller(&scale.fifo());
    let p = fifo.property("psh_full").expect("bundled property");
    cases.push(make_case(
        "fifo",
        fifo.netlist.clone(),
        p.name.clone(),
        p.signal,
        p.value,
        cap(24),
        steps,
    ));

    let iu = integer_unit(&scale.integer_unit());
    let set = &iu.coverage_sets[0];
    let target = set.signals[0];
    cases.push(make_case(
        "integer_unit",
        iu.netlist.clone(),
        set.name.clone(),
        target,
        true,
        cap(40),
        steps,
    ));

    let usb = usb_controller(&scale.usb());
    let set = &usb.coverage_sets[0];
    let target = set.signals[0];
    cases.push(make_case(
        "usb",
        usb.netlist.clone(),
        set.name.clone(),
        target,
        true,
        cap(32),
        steps,
    ));

    let proc = processor_module(&scale.processor());
    let p = proc.property("error_flag").expect("bundled property");
    cases.push(make_case(
        "processor",
        proc.netlist.clone(),
        p.name.clone(),
        p.signal,
        p.value,
        cap(96),
        steps,
    ));
    cases
}

/// Runs a BFS where every step's new states are computed both by a
/// seed-style linear relational product over the raw partitions and by the
/// model's clustered schedule on a restrict-minimized frontier, on the SAME
/// manager. Canonicity reduces functional equality to handle equality.
fn lockstep_equivalence(case: &Case) -> Result<(usize, usize), String> {
    let mut model =
        SymbolicModel::new(&case.netlist, case.spec.clone()).map_err(|e| format!("model: {e}"))?;
    let clusters = model.transition().num_clusters();
    let quant = post_quant_vars(&model, &case.spec);
    let zero = model.manager_ref().zero();
    let init = model.init_states().map_err(|e| format!("init: {e}"))?;
    let mut reached = init;
    let mut frontier = init;
    for step in 0..case.steps {
        let img_lin = linear_post_image(&mut model, frontier, &quant)
            .map_err(|e| format!("linear image, step {step}: {e}"))?;
        let (min, not_reached) = {
            let mgr = model.manager();
            let not_reached = mgr.not(reached).map_err(|e| e.to_string())?;
            let care = mgr.or(frontier, not_reached).map_err(|e| e.to_string())?;
            let min = mgr.gc_restrict(frontier, care).map_err(|e| e.to_string())?;
            (min, not_reached)
        };
        let img_clu = model
            .post_image(min)
            .map_err(|e| format!("clustered image, step {step}: {e}"))?;
        let mgr = model.manager();
        let new_lin = mgr.and(img_lin, not_reached).map_err(|e| e.to_string())?;
        let new_clu = mgr.and(img_clu, not_reached).map_err(|e| e.to_string())?;
        if new_lin != new_clu {
            return Err(format!(
                "step {step}: linear new-states differ from clustered+minimized"
            ));
        }
        if new_lin == zero {
            return Ok((step, clusters));
        }
        reached = mgr.or(reached, new_lin).map_err(|e| e.to_string())?;
        frontier = new_lin;
    }
    Ok((case.steps, clusters))
}

/// The seed's post-image: one `and_exists` per register partition in index
/// order, quantifying each variable at the last partition that mentions it
/// (per-call suffix-support scan, exactly as the pre-overhaul code did).
fn linear_post_image(
    model: &mut SymbolicModel,
    q: Bdd,
    quant: &BTreeSet<VarId>,
) -> Result<Bdd, rfn_bdd::BddError> {
    let parts: Vec<Bdd> = model.transition().parts().to_vec();
    let n = parts.len();
    let mut suffix: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); n + 1];
    for i in (0..n).rev() {
        let mut s = suffix[i + 1].clone();
        s.extend(model.manager_ref().support(parts[i]));
        suffix[i] = s;
    }
    let mut remaining = quant.clone();
    let mut acc = q;
    for (i, part) in parts.iter().enumerate() {
        let now: Vec<VarId> = remaining
            .iter()
            .copied()
            .filter(|v| !suffix[i + 1].contains(v))
            .collect();
        for v in &now {
            remaining.remove(v);
        }
        let mgr = model.manager();
        let cube = mgr.var_cube(now);
        acc = mgr.and_exists(acc, *part, cube)?;
    }
    if !remaining.is_empty() {
        let mgr = model.manager();
        let cube = mgr.var_cube(remaining.iter().copied());
        acc = mgr.exists(acc, cube)?;
    }
    model.nxt_to_cur(acc)
}

/// The variables a post-image quantifies: current-state and input.
fn post_quant_vars(model: &SymbolicModel, spec: &ModelSpec) -> BTreeSet<VarId> {
    spec.registers
        .iter()
        .map(|&r| model.current_var(r).expect("register has a variable"))
        .chain(model.transition().input_vars().iter().copied())
        .collect()
}

/// A step-capped BFS through the seed's image pipeline: per-call
/// suffix-support scan, per-call quantification-cube rebuild, one
/// `and_exists` per register partition, no frontier minimization. The loop
/// mirrors `forward_reach`'s verdict semantics exactly. The collector stays
/// off (it only costs time at these model sizes), which favors this
/// baseline and keeps the reported speedups conservative.
fn run_seed_reach(case: &Case, target: Option<(SignalId, bool)>) -> Run {
    let (mut model, target_bdd, build_ms) = build_model(case, target, 0);
    let quant = post_quant_vars(&model, &case.spec);
    let zero = model.manager_ref().zero();
    let before = model.manager_ref().stats();
    let reach_start = Instant::now();
    let init = model.init_states().expect("no node limit set");
    let mut rings = vec![init];
    let mut reached = init;
    let mut frontier = init;
    let mut steps = 0usize;
    let mut peak = model.manager_ref().num_nodes();
    let mut verdict = ReachVerdict::Aborted;
    let mgr_and = |model: &mut SymbolicModel, a: Bdd, b: Bdd| -> Bdd {
        model.manager().and(a, b).expect("no node limit set")
    };
    if mgr_and(&mut model, init, target_bdd) != zero {
        verdict = ReachVerdict::TargetHit { step: 0 };
    } else {
        loop {
            if steps >= case.steps {
                break;
            }
            let img = linear_post_image(&mut model, frontier, &quant).expect("no node limit set");
            let nr = model.manager().not(reached).expect("no node limit set");
            let new = mgr_and(&mut model, img, nr);
            steps += 1;
            peak = peak.max(model.manager_ref().num_nodes());
            if new == zero {
                verdict = ReachVerdict::FixpointProved;
                break;
            }
            reached = model.manager().or(reached, new).expect("no node limit set");
            rings.push(new);
            frontier = new;
            if mgr_and(&mut model, new, target_bdd) != zero {
                verdict = ReachVerdict::TargetHit { step: steps };
                break;
            }
        }
    }
    let reach_ms = reach_start.elapsed().as_secs_f64() * 1e3;
    let stats = model.manager_ref().stats();
    Run {
        build_ms,
        reach_ms,
        steps,
        unique_probes: stats.unique_probes - before.unique_probes,
        peak_nodes: peak,
        clusters: model.transition().num_clusters(),
        restrict_hits: stats.restrict_hits,
        restrict_misses: stats.restrict_misses,
        verdict,
        reached_nodes: model.manager_ref().size(reached),
        ring_nodes: rings.iter().map(|&r| model.manager_ref().size(r)).collect(),
    }
}

/// One step-capped `forward_reach` under the overhauled configuration
/// (clustered schedule, frontier minimization; `--cluster-limit` and
/// `--no-frontier-simplify` override). `target` of `None` runs a pure
/// reachability sweep (target never hit).
fn run_reach(case: &Case, target: Option<(SignalId, bool)>) -> Run {
    let cluster_limit =
        rfn_bench::cluster_limit_from_args().unwrap_or(rfn_mc::DEFAULT_CLUSTER_LIMIT);
    let frontier_simplify = rfn_bench::frontier_simplify_from_args();
    let (mut model, target_bdd, build_ms) = build_model(case, target, cluster_limit);
    let opts = ReachOptions::default()
        .with_max_steps(case.steps)
        .with_reorder(false)
        .with_cluster_limit(cluster_limit)
        .with_frontier_simplify(frontier_simplify);
    // Snapshot the counters so the probe delta covers the fixpoint only,
    // not the transition-relation build (whose cost `build_ms` reports).
    let before = model.manager_ref().stats();
    let reach_start = Instant::now();
    let result: ReachResult =
        forward_reach(&mut model, target_bdd, &opts).expect("no node limit set");
    let reach_ms = reach_start.elapsed().as_secs_f64() * 1e3;
    let stats = result.stats;
    let probes = stats.unique_probes - before.unique_probes;
    Run {
        build_ms,
        reach_ms,
        steps: result.steps,
        unique_probes: probes,
        peak_nodes: result.peak_nodes,
        clusters: model.transition().num_clusters(),
        restrict_hits: stats.restrict_hits,
        restrict_misses: stats.restrict_misses,
        verdict: result.verdict,
        reached_nodes: model.manager_ref().size(result.reached),
        ring_nodes: result
            .rings
            .iter()
            .map(|&r| model.manager_ref().size(r))
            .collect(),
    }
}

/// One ordering case (section 4), end to end: a cold seed run that
/// persists its converged order and rings to `cache_dir`, a cold FORCE
/// run, and a warm run that loads the store back from disk. Both
/// challengers must agree with the cold run exactly; under `--smoke` the
/// warm run must additionally sift no more than the cold run it resumed.
fn ordering_case(
    case: &Case,
    cache_dir: &std::path::Path,
    smoke: bool,
) -> Result<OrderRow, String> {
    // The cold model stays alive as the referee manager for the exact
    // ring-equality checks below.
    let (mut cold_model, cold_result, cold) =
        run_order_reach(case, rfn_mc::StaticOrder::Seed, None, smoke);
    let store = rfn_mc::store::snapshot_model(&cold_model, &case.target_name, &cold_result.rings)
        .map_err(|e| format!("snapshotting cold run: {e}"))?;
    rfn_mc::store::save_store(cache_dir, &store).map_err(|e| format!("saving store: {e}"))?;

    let (force_model, force_result, force) =
        run_order_reach(case, rfn_mc::StaticOrder::Force, None, smoke);
    check_order_agreement(
        "force",
        &mut cold_model,
        (&cold_result, &cold),
        (&force_model, &force_result, &force),
        &case.target_name,
    )?;
    drop(force_model);

    let loaded =
        rfn_mc::store::load_store(cache_dir, case.netlist.structural_hash(), &case.target_name)
            .map_err(|e| format!("loading store: {e}"))?
            .ok_or("order store vanished between save and load")?;
    let (warm_model, warm_result, warm) =
        run_order_reach(case, rfn_mc::StaticOrder::Seed, Some(&loaded), smoke);
    check_order_agreement(
        "warm",
        &mut cold_model,
        (&cold_result, &cold),
        (&warm_model, &warm_result, &warm),
        &case.target_name,
    )?;
    if smoke && warm.sift_runs > cold.sift_runs {
        return Err(format!(
            "warm start sifted MORE than cold ({} vs {})",
            warm.sift_runs, cold.sift_runs
        ));
    }
    Ok(OrderRow {
        design: case.name.clone(),
        target: case.target_name.clone(),
        registers: case.spec.registers.len(),
        cold,
        force,
        warm,
    })
}

/// One ordering run (section 4): cold seed order, cold FORCE order, or —
/// when `warm` carries the store a previous run saved — the warm-start
/// repeat path. Reordering runs under the doubling trigger at the default
/// sift floor; only `--smoke`, whose shrunken designs would never cross
/// that floor, lowers it so the trigger (and the sifts-less warm-start
/// gate) is still exercised. The model and full reach result
/// are returned so the caller can run exact cross-run equality checks.
fn run_order_reach<'n>(
    case: &'n Case,
    order: rfn_mc::StaticOrder,
    warm: Option<&rfn_bdd::BddStore>,
    smoke: bool,
) -> (SymbolicModel<'n>, ReachResult, OrderRun) {
    let build_start = Instant::now();
    let mut model = SymbolicModel::with_options(
        &case.netlist,
        case.spec.clone(),
        BddManager::new(),
        ModelOptions {
            static_order: order,
            ..ModelOptions::default()
        },
    )
    .expect("bundled designs validate");
    let rings = match warm {
        Some(store) => rfn_mc::store::apply_store(&mut model, store, &case.target_name)
            .expect("the store this bench just saved applies"),
        None => Vec::new(),
    };
    // A pure reachability sweep (no target), like section 2: the early-hit
    // properties would end after one or two images and turn the ordering
    // comparison into sub-millisecond noise. Section 3 gates verdicts on
    // the real targets; this section measures image throughput per order.
    let target_bdd = model.manager_ref().zero();
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let mut opts = ReachOptions::default()
        .with_max_steps(case.steps)
        .with_static_order(order);
    if smoke {
        opts.reorder_threshold = 1_000;
    }
    let before = model.manager_ref().stats();
    let reach_start = Instant::now();
    let result =
        forward_reach_warm(&mut model, target_bdd, &opts, &rings).expect("no node limit set");
    let reach_ms = reach_start.elapsed().as_secs_f64() * 1e3;
    let run = OrderRun {
        build_ms,
        reach_ms,
        steps: result.steps,
        peak_nodes: result.peak_nodes,
        sift_runs: result.stats.sift_runs - before.sift_runs,
        verdict: result.verdict,
    };
    (model, result, run)
}

/// Exact semantic agreement between two ordering runs: identical verdicts
/// and step counts, and every onion ring must denote the identical state
/// set. Node counts are order-dependent and `sat_count` overflows past
/// ~1000 variables, so the ring check is exact instead: the challenger's
/// rings are serialized through the store (labels, not raw variable ids),
/// rebuilt inside the *cold* run's manager, and compared handle-for-handle
/// — ROBDD canonicity makes that a precise functional equality even though
/// the two runs sifted to different orders.
fn check_order_agreement(
    label: &str,
    referee: &mut SymbolicModel<'_>,
    cold: (&ReachResult, &OrderRun),
    other: (&SymbolicModel<'_>, &ReachResult, &OrderRun),
    key: &str,
) -> Result<(), String> {
    let (cold_result, cold_run) = cold;
    let (other_model, other_result, other_run) = other;
    if cold_run.verdict != other_run.verdict {
        return Err(format!(
            "{label}: verdicts differ: cold {:?} vs {:?}",
            cold_run.verdict, other_run.verdict
        ));
    }
    if cold_run.steps != other_run.steps {
        return Err(format!(
            "{label}: step counts differ: cold {} vs {}",
            cold_run.steps, other_run.steps
        ));
    }
    let store = rfn_mc::store::snapshot_model(other_model, key, &other_result.rings)
        .map_err(|e| format!("{label}: snapshotting challenger: {e}"))?;
    let rebuilt = rfn_mc::store::apply_store(referee, &store, key)
        .map_err(|e| format!("{label}: rebuilding challenger rings in referee: {e}"))?;
    if rebuilt.len() != cold_result.rings.len() {
        return Err(format!(
            "{label}: ring counts differ: cold {} vs {}",
            cold_result.rings.len(),
            rebuilt.len()
        ));
    }
    for (k, (&theirs, &ours)) in rebuilt.iter().zip(&cold_result.rings).enumerate() {
        if theirs != ours {
            return Err(format!("{label}: ring {k} denotes a different state set"));
        }
    }
    Ok(())
}

/// Both configurations must agree on the verdict, the step count and the
/// reached set. The managers differ so handles cannot be compared, but both
/// models build the identical variable order (clustering happens after the
/// partitions fix it) and reordering is off, so ROBDD canonicity makes the
/// node counts of the reached set and every ring an exact functional check.
fn check_agreement(linear: &Run, clustered: &Run) -> Result<(), String> {
    if linear.verdict != clustered.verdict {
        return Err(format!(
            "verdicts differ: linear {:?} vs clustered {:?}",
            linear.verdict, clustered.verdict
        ));
    }
    if linear.steps != clustered.steps {
        return Err(format!(
            "step counts differ: linear {} vs clustered {}",
            linear.steps, clustered.steps
        ));
    }
    if linear.reached_nodes != clustered.reached_nodes {
        return Err(format!(
            "reached-set node counts differ: linear {} vs clustered {}",
            linear.reached_nodes, clustered.reached_nodes
        ));
    }
    if linear.ring_nodes != clustered.ring_nodes {
        return Err(format!(
            "ring node counts differ: linear {:?} vs clustered {:?}",
            linear.ring_nodes, clustered.ring_nodes
        ));
    }
    Ok(())
}

/// The section-5 target list for a case: the real case target plus the
/// first two bounded-abstraction registers as value-1 sub-targets, all on
/// the given model's manager.
fn group_targets(model: &mut SymbolicModel, case: &Case) -> Vec<Bdd> {
    let sig = model
        .signal_bdd(case.target)
        .expect("target is in the bounded cone");
    let first = if case.value {
        sig
    } else {
        model.manager().not(sig).expect("no node limit set")
    };
    let mut targets = vec![first];
    for &r in case.spec.registers.iter().take(2) {
        targets.push(model.signal_bdd(r).expect("spec register has a variable"));
    }
    targets
}

/// One multi-target case (section 5): every target's verdict and hit depth
/// from the shared `forward_reach_multi` fixpoint must equal its one-target
/// `forward_reach` run's (the same loop on a group of one, so this gates
/// that a target's verdict does not depend on its group).
fn multi_target_case(case: &Case) -> Result<MultiRow, String> {
    let opts = ReachOptions::default()
        .with_max_steps(case.steps)
        .with_reorder(false);

    let (mut model, _, _) = build_model(case, None, rfn_mc::DEFAULT_CLUSTER_LIMIT);
    let targets = group_targets(&mut model, case);
    let n_targets = targets.len();
    let multi_start = Instant::now();
    let multi =
        forward_reach_multi(&mut model, &targets, &opts).map_err(|e| format!("multi: {e}"))?;
    let multi_ms = multi_start.elapsed().as_secs_f64() * 1e3;
    drop(model);

    let mut single_ms_total = 0.0;
    for (k, verdict) in multi.verdicts.iter().enumerate() {
        let (mut model, _, _) = build_model(case, None, rfn_mc::DEFAULT_CLUSTER_LIMIT);
        let target = group_targets(&mut model, case)[k];
        let start = Instant::now();
        let single =
            forward_reach(&mut model, target, &opts).map_err(|e| format!("single {k}: {e}"))?;
        single_ms_total += start.elapsed().as_secs_f64() * 1e3;
        if *verdict != single.verdict {
            return Err(format!(
                "target {k}: multi {verdict:?} vs one-target {:?}",
                single.verdict
            ));
        }
    }
    Ok(MultiRow {
        design: case.name.clone(),
        targets: n_targets,
        single_ms_total,
        multi_ms,
    })
}

/// The session-level synthetic comparison (section 5): the many-property
/// synthetic verified grouped and ungrouped through `VerifySession` at one
/// thread. Verdict/depth equality and at least one non-singleton group are
/// hard gates here; the 2x speedup gate is applied by the caller outside
/// `--smoke`.
fn synthetic_sessions(smoke: bool) -> Result<SyntheticRow, String> {
    let (groups, props_per_group) = if smoke { (2, 3) } else { (6, 12) };
    let (netlist, props) = grouped_synthetic(groups, props_per_group);
    let run = |grouping: bool| -> Result<(rfn_core::SessionReport, f64), String> {
        let start = Instant::now();
        let report = rfn_core::VerifySession::new(&netlist)
            .properties(props.iter().cloned())
            .engine(rfn_core::EngineKind::PlainMc)
            .grouping(grouping)
            .threads(1)
            .run()
            .map_err(|e| e.to_string())?;
        Ok((report, start.elapsed().as_secs_f64() * 1e3))
    };
    let (grouped, grouped_ms) = run(true)?;
    let (ungrouped, ungrouped_ms) = run(false)?;
    for ((g, u), prop) in grouped.results.iter().zip(&ungrouped.results).zip(&props) {
        let gv = format!("{:?}", g.verdict);
        let uv = format!("{:?}", u.verdict);
        if gv != uv {
            return Err(format!("`{}`: grouped {gv} vs ungrouped {uv}", prop.name));
        }
    }
    let non_singleton = grouped.groups.iter().filter(|g| g.len() > 1).count();
    if non_singleton == 0 {
        return Err("clustering produced no non-singleton group".to_owned());
    }
    Ok(SyntheticRow {
        groups,
        props: props.len(),
        non_singleton,
        ungrouped_ms,
        grouped_ms,
    })
}

fn render_run(run: &Run) -> String {
    format!(
        "{{\"build_ms\": {:.1}, \"reach_ms\": {:.1}, \"steps\": {}, \"clusters\": {}, \
         \"unique_probes\": {}, \"peak_nodes\": {}, \"restrict_hits\": {}, \
         \"restrict_misses\": {}}}",
        run.build_ms,
        run.reach_ms,
        run.steps,
        run.clusters,
        run.unique_probes,
        run.peak_nodes,
        run.restrict_hits,
        run.restrict_misses
    )
}

fn render_order_run(run: &OrderRun) -> String {
    format!(
        "{{\"build_ms\": {:.1}, \"reach_ms\": {:.1}, \"total_ms\": {:.1}, \"steps\": {}, \
         \"peak_nodes\": {}, \"sift_runs\": {}}}",
        run.build_ms,
        run.reach_ms,
        run.total_ms(),
        run.steps,
        run.peak_nodes,
        run.sift_runs
    )
}

fn render_json(
    reach: &[ReachRow],
    verdicts: &[VerdictRow],
    ordering: &[OrderRow],
    multi: &[MultiRow],
    synthetic: &SyntheticRow,
    smoke: bool,
) -> String {
    let mut s = String::from("{\n  \"bench\": \"mc\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"reach\": [\n");
    for (k, r) in reach.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"design\": \"{}\", \"target\": \"{}\", \"registers\": {}, \
             \"linear\": {}, \"clustered\": {}, \"time_speedup\": {:.2}, \"ops_ratio\": {:.2}}}",
            r.design,
            r.target,
            r.registers,
            render_run(&r.linear),
            render_run(&r.clustered),
            r.time_speedup(),
            r.ops_ratio()
        );
        s.push_str(if k + 1 < reach.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"verdicts\": [\n");
    for (k, v) in verdicts.iter().enumerate() {
        let verdict = match v.verdict {
            ReachVerdict::FixpointProved => "proved".to_owned(),
            ReachVerdict::TargetHit { step } => format!("hit@{step}"),
            ReachVerdict::Aborted => "step_capped".to_owned(),
        };
        let _ = write!(
            s,
            "    {{\"design\": \"{}\", \"target\": \"{}\", \"verdict\": \"{verdict}\", \
             \"linear_ms\": {:.1}, \"clustered_ms\": {:.1}, \"agree\": true}}",
            v.design, v.target, v.linear_ms, v.clustered_ms
        );
        s.push_str(if k + 1 < verdicts.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"ordering\": [\n");
    for (k, o) in ordering.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"design\": \"{}\", \"target\": \"{}\", \"registers\": {}, \
             \"cold\": {}, \"force\": {}, \"warm\": {}, \
             \"force_speedup\": {:.2}, \"warm_speedup\": {:.2}, \"agree\": true}}",
            o.design,
            o.target,
            o.registers,
            render_order_run(&o.cold),
            render_order_run(&o.force),
            render_order_run(&o.warm),
            o.force_speedup(),
            o.warm_speedup()
        );
        s.push_str(if k + 1 < ordering.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"groups\": {\n    \"multi_target\": [\n");
    for (k, m) in multi.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"design\": \"{}\", \"targets\": {}, \"single_ms_total\": {:.1}, \
             \"multi_ms\": {:.1}, \"speedup\": {:.2}, \"agree\": true}}",
            m.design,
            m.targets,
            m.single_ms_total,
            m.multi_ms,
            m.speedup()
        );
        s.push_str(if k + 1 < multi.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        s,
        "    ],\n    \"synthetic\": {{\"groups\": {}, \"properties\": {}, \
         \"non_singleton_groups\": {}, \"ungrouped_ms\": {:.1}, \"grouped_ms\": {:.1}, \
         \"speedup\": {:.2}, \"agree\": true}}\n",
        synthetic.groups,
        synthetic.props,
        synthetic.non_singleton,
        synthetic.ungrouped_ms,
        synthetic.grouped_ms,
        synthetic.speedup()
    );
    s.push_str("  }\n}\n");
    s
}
