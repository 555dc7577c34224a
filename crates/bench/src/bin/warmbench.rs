//! Warm-start smoke: the same property verified twice through one
//! `--order-cache-dir`, gating that the repeat run actually reuses the
//! persisted variable order.
//!
//! ```text
//! cargo run -p rfn-bench --bin warmbench --release [-- --quick]
//! ```
//!
//! Run 1 proves the fifo `psh_full` property cold, converging its variable
//! order through dynamic reordering and persisting it to the cache
//! directory on the conclusive verdict. Run 2 repeats the identical job
//! against the same cache. The gates, each a hard nonzero exit:
//!
//! 1. both runs reach the same conclusive verdict (and the same error
//!    trace length when falsified);
//! 2. the cold run demonstrably reordered — otherwise the smoke proves
//!    nothing;
//! 3. the warm run sifts strictly less: no more sift *passes* than cold,
//!    and strictly fewer nodes moved by them. The pass count alone is
//!    schedule-structural — the doubling trigger fires whenever a model
//!    outgrows the floor, converged order or not — so the work those
//!    passes find left to do is what measures how warm the start was.
//!
//! The sift floor is lowered to smoke scale so the cold run's reordering
//! is exercised at all; verdict equality under that churn is part of the
//! point. The whole job is deterministic (one property, one thread, seeded
//! simulation), so the node counts gate exactly, not statistically.
//!
//! Two grouped phases follow, exercising the *group* warm-start store
//! behind `--group-threshold`:
//!
//! * all three fifo `psh_*` properties run as one grouped plain-MC session
//!   against a fresh cache, twice. The fifo is scaled down further for this
//!   phase: grouping feeds the *unabstracted* union COI to the plain
//!   engine, and the phase-1 fifo's full data pipeline blows the plain
//!   node ceiling (by design — that is what the RFN loop is for). The
//!   clustering must produce a non-singleton group, the cache must hold
//!   exactly one store entry per non-singleton group, both runs must agree
//!   verdict-for-verdict, and the warm repeat must do strictly less sift
//!   work than the cold run (same gates as phase 1);
//! * the many-property synthetic (two disjoint counters) gates the
//!   one-entry-per-group invariant with *several* groups: two clusters in,
//!   exactly two store files out, identical verdicts on the repeat run.

use std::process::ExitCode;

use rfn_bench::common::grouped_synthetic;
use rfn_bench::Scale;
use rfn_core::{EngineKind, Rfn, RfnOptions, RfnOutcome, VerifySession};
use rfn_designs::fifo_controller;
use rfn_mc::PlainOptions;

/// Verdict fingerprint plus the reordering bookkeeping of one run.
struct RunSummary {
    verdict: &'static str,
    trace_cycles: usize,
    iterations: usize,
    sift_runs: u64,
    sift_shrunk: u64,
}

fn run_once(
    netlist: &rfn_netlist::Netlist,
    property: &rfn_netlist::Property,
    cache_dir: &std::path::Path,
) -> Result<RunSummary, String> {
    let mut options = RfnOptions::default().with_order_cache_dir(cache_dir);
    // Smoke-scale sift floor: the fifo abstractions stay small, and the
    // default floor would leave the reorder trigger idle in both runs.
    options.reach.reorder_threshold = 500;
    let outcome = Rfn::new(netlist, property, options)
        .map_err(|e| format!("building RFN loop: {e}"))?
        .run()
        .map_err(|e| format!("running RFN loop: {e}"))?;
    Ok(match outcome {
        RfnOutcome::Proved { stats } => RunSummary {
            verdict: "proved",
            trace_cycles: 0,
            iterations: stats.iterations,
            sift_runs: stats.bdd.sift_runs,
            sift_shrunk: stats.bdd.sift_nodes_shrunk,
        },
        RfnOutcome::Falsified { trace, stats } => RunSummary {
            verdict: "falsified",
            trace_cycles: trace.num_cycles(),
            iterations: stats.iterations,
            sift_runs: stats.bdd.sift_runs,
            sift_shrunk: stats.bdd.sift_nodes_shrunk,
        },
        RfnOutcome::Inconclusive { reason, .. } => {
            return Err(format!("inconclusive: {reason}"));
        }
    })
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let design = fifo_controller(&scale.fifo());
    let property = design.property("psh_full").expect("bundled property");
    println!(
        "warmbench: {} ({} registers), property `{}` (scale: {scale:?})",
        design.netlist.name(),
        design.netlist.num_registers(),
        property.name
    );

    let cache_dir = std::env::temp_dir().join(format!("rfn-warmbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let cold = match run_once(&design.netlist, property, &cache_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warmbench: cold run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cold: {} ({} cycles, {} iterations, {} sift runs moving {} nodes)",
        cold.verdict, cold.trace_cycles, cold.iterations, cold.sift_runs, cold.sift_shrunk
    );

    let warm = match run_once(&design.netlist, property, &cache_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warmbench: warm run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "warm: {} ({} cycles, {} iterations, {} sift runs moving {} nodes)",
        warm.verdict, warm.trace_cycles, warm.iterations, warm.sift_runs, warm.sift_shrunk
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    if warm.verdict != cold.verdict || warm.trace_cycles != cold.trace_cycles {
        eprintln!(
            "warmbench: FAILURE: warm verdict {} ({} cycles) != cold {} ({} cycles)",
            warm.verdict, warm.trace_cycles, cold.verdict, cold.trace_cycles
        );
        return ExitCode::FAILURE;
    }
    if cold.sift_runs == 0 || cold.sift_shrunk == 0 {
        eprintln!(
            "warmbench: FAILURE: cold run never reordered productively \
             ({} sift runs moving {} nodes); the smoke proves nothing",
            cold.sift_runs, cold.sift_shrunk
        );
        return ExitCode::FAILURE;
    }
    if warm.sift_runs > cold.sift_runs || warm.sift_shrunk >= cold.sift_shrunk {
        eprintln!(
            "warmbench: FAILURE: warm run sifted {} times moving {} nodes vs cold \
             {} times moving {} — the order cache did not reduce reordering work",
            warm.sift_runs, warm.sift_shrunk, cold.sift_runs, cold.sift_shrunk
        );
        return ExitCode::FAILURE;
    }
    println!(
        "warmbench ok: warm start cut reordering work {} -> {} nodes ({} -> {} sift runs)",
        cold.sift_shrunk, warm.sift_shrunk, cold.sift_runs, warm.sift_runs
    );

    if let Err(e) = grouped_fifo_phase() {
        eprintln!("warmbench: grouped fifo phase FAILURE: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = synthetic_store_phase() {
        eprintln!("warmbench: synthetic store phase FAILURE: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One grouped plain-MC session summary: portfolio verdicts plus the sift
/// work of each scheduled group's shared manager.
struct GroupRunSummary {
    verdicts: Vec<String>,
    non_singleton: usize,
    sift_runs: u64,
    sift_shrunk: u64,
}

/// Runs the properties as one grouped plain-MC session against the given
/// order-cache directory (the group warm-start store lives there).
fn run_grouped(
    netlist: &rfn_netlist::Netlist,
    properties: &[rfn_netlist::Property],
    cache_dir: &std::path::Path,
) -> Result<GroupRunSummary, String> {
    let mut plain = PlainOptions::default();
    // The same smoke-scale sift floor as phase 1, for the same reason.
    plain.reach.reorder_threshold = 500;
    let report = VerifySession::new(netlist)
        .properties(properties.iter().cloned())
        .engine(EngineKind::PlainMc)
        .rfn_options(RfnOptions::default().with_order_cache_dir(cache_dir))
        .plain_options(plain)
        .threads(1)
        .run()
        .map_err(|e| format!("grouped session: {e}"))?;
    let verdicts = report
        .results
        .iter()
        .map(|r| format!("{:?}", r.verdict))
        .collect();
    // Group members share one manager, so read each group's stats once
    // (through its leader) instead of once per member.
    let mut sift_runs = 0u64;
    let mut sift_shrunk = 0u64;
    for group in &report.groups {
        if let Some(plain) = &report.results[group[0]].plain {
            sift_runs += plain.stats.sift_runs;
            sift_shrunk += plain.stats.sift_nodes_shrunk;
        }
    }
    Ok(GroupRunSummary {
        verdicts,
        non_singleton: report.groups.iter().filter(|g| g.len() > 1).count(),
        sift_runs,
        sift_shrunk,
    })
}

/// Counts the `.store` entries the group warm-start saved under `dir`.
fn store_entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "store"))
                .count()
        })
        .unwrap_or(0)
}

/// Grouped warm-start on the fifo's three `psh_*` properties: one shared
/// model and fixpoint cold, then a warm repeat from the per-group store.
///
/// Uses a smaller fifo than phase 1: the grouped plain engine checks the
/// full union COI without abstraction, so the model must fit the plain
/// node ceiling outright.
fn grouped_fifo_phase() -> Result<(), String> {
    let design = fifo_controller(&rfn_designs::FifoParams {
        depth: 8,
        data_width: 4,
        data_stages: 2,
        inject_half_flag_bug: false,
    });
    let (netlist, properties) = (&design.netlist, &design.properties[..]);
    let cache_dir = std::env::temp_dir().join(format!("rfn-warmbench-g-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold = run_grouped(netlist, properties, &cache_dir)?;
    let warm = run_grouped(netlist, properties, &cache_dir)?;
    let entries = store_entries(&cache_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "grouped fifo: {} non-singleton groups, {} store entries, sift work {} -> {} nodes \
         ({} -> {} runs)",
        cold.non_singleton,
        entries,
        cold.sift_shrunk,
        warm.sift_shrunk,
        cold.sift_runs,
        warm.sift_runs
    );
    if cold.non_singleton == 0 {
        return Err("the fifo psh_* properties did not form a group".to_owned());
    }
    if entries != cold.non_singleton {
        return Err(format!(
            "expected one store entry per group ({}), found {entries}",
            cold.non_singleton
        ));
    }
    if warm.verdicts != cold.verdicts {
        return Err(format!(
            "warm verdicts {:?} != cold {:?}",
            warm.verdicts, cold.verdicts
        ));
    }
    if cold.sift_runs == 0 || cold.sift_shrunk == 0 {
        return Err(format!(
            "cold grouped run never reordered productively ({} sift runs moving {} nodes)",
            cold.sift_runs, cold.sift_shrunk
        ));
    }
    if warm.sift_runs > cold.sift_runs || warm.sift_shrunk >= cold.sift_shrunk {
        return Err(format!(
            "warm grouped run sifted {} times moving {} nodes vs cold {} moving {}",
            warm.sift_runs, warm.sift_shrunk, cold.sift_runs, cold.sift_shrunk
        ));
    }
    println!(
        "grouped fifo ok: group store cut reordering work {} -> {} nodes",
        cold.sift_shrunk, warm.sift_shrunk
    );
    Ok(())
}

/// One-entry-per-group with several groups: the synthetic's two disjoint
/// counters must produce exactly two store entries, and the warm repeat the
/// same verdicts.
fn synthetic_store_phase() -> Result<(), String> {
    let (netlist, properties) = grouped_synthetic(2, 3);
    let cache_dir = std::env::temp_dir().join(format!("rfn-warmbench-s-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold = run_grouped(&netlist, &properties, &cache_dir)?;
    let warm = run_grouped(&netlist, &properties, &cache_dir)?;
    let entries = store_entries(&cache_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
    if cold.non_singleton != 2 {
        return Err(format!(
            "expected 2 groups from 2 disjoint counters, got {}",
            cold.non_singleton
        ));
    }
    if entries != 2 {
        return Err(format!(
            "expected 2 store entries (one per group), found {entries}"
        ));
    }
    if warm.verdicts != cold.verdicts {
        return Err(format!(
            "warm verdicts {:?} != cold {:?}",
            warm.verdicts, cold.verdicts
        ));
    }
    println!("synthetic store ok: 2 groups -> 2 store entries, verdicts stable");
    Ok(())
}
