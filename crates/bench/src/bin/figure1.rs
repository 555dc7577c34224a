//! Regenerates Figure 1 of the paper: the anatomy of no-cut and min-cut
//! cubes. The figure itself is a schematic; this harness reports the
//! quantitative reality behind it — the signal classes of an abstract model
//! vs. its min-cut design, the input reduction the min-cut achieves, and how
//! many hybrid-engine steps resolve via no-cut vs. min-cut cubes.
//!
//! ```text
//! cargo run -p rfn-bench --bin figure1 --release [-- --quick]
//!           [--trace-out <file>]
//! ```
//!
//! `--trace-out <file>` writes the hybrid demo's structured event stream as
//! JSONL and appends a per-phase time-breakdown table.

use std::sync::Arc;

use rfn_atpg::AtpgOptions;
use rfn_bench::{row, rule, BenchTrace, Scale};
use rfn_core::HybridEngine;
use rfn_designs::{fifo_controller, processor_module};
use rfn_mc::{forward_reach, ModelSpec, ReachOptions, SymbolicModel};
use rfn_netlist::{
    compute_free_cut, compute_min_cut, Abstraction, Coi, Netlist, Property, SignalId,
};
use rfn_trace::{MemorySink, TraceCtx};

fn main() {
    let scale = Scale::from_args();
    println!("Figure 1: no-cut and min-cut cube anatomy (scale: {scale:?})");
    println!();
    let widths = [12, 10, 9, 9, 9, 9, 9];
    row(
        &[
            "design",
            "abs regs",
            "N gates",
            "N inputs",
            "FC gates",
            "MC gates",
            "MC inputs",
        ],
        &widths,
    );
    rule(&widths);

    let processor = processor_module(&scale.processor());
    let fifo = fifo_controller(&scale.fifo());
    // Growing abstractions of each design around its first property's
    // watchdog register — the same shape RFN's refinement produces.
    for (label, design) in [("processor", &processor), ("fifo", &fifo)] {
        let p = &design.properties[0];
        let coi = Coi::of(&design.netlist, [p.signal]);
        for take in [1usize, 4, 16, 64] {
            let mut regs: Vec<SignalId> = vec![p.signal];
            regs.extend(
                coi.registers()
                    .iter()
                    .copied()
                    .filter(|&r| r != p.signal)
                    .take(take - 1),
            );
            if regs.len() < take {
                break;
            }
            report_cut(&design.netlist, label, p, regs, &widths);
        }
    }

    println!();
    let trace = BenchTrace::from_args();
    let buffer = Arc::new(MemorySink::new());
    demo_hybrid_classification(&fifo.netlist, &fifo.properties[0], trace.job_ctx(&buffer));
    trace.emit_merged(vec![buffer.take()]);
    trace.finish();
}

fn report_cut(
    netlist: &Netlist,
    label: &str,
    property: &Property,
    regs: Vec<SignalId>,
    widths: &[usize],
) {
    let nregs = regs.len();
    let view = Abstraction::from_registers(regs)
        .view(netlist, [property.signal])
        .expect("view builds");
    let fc = compute_free_cut(netlist, &view);
    let mc = compute_min_cut(netlist, &view);
    row(
        &[
            label,
            &nregs.to_string(),
            &view.num_gates().to_string(),
            &mc.original_input_count.to_string(),
            &fc.gates.len().to_string(),
            &mc.gates.len().to_string(),
            &mc.num_inputs().to_string(),
        ],
        widths,
    );
}

/// Runs the hybrid engine once on the FIFO's control-cone abstraction and
/// prints the cube-class statistics — the dynamic counterpart of Figure 1.
fn demo_hybrid_classification(netlist: &Netlist, property: &Property, ctx: TraceCtx) {
    // The control cone of the `full` flag (count, flags, pointers); the
    // datapath checksum stays outside, exactly as in an RFN abstraction.
    let full = netlist.find("full").expect("fifo has a full flag");
    let regs: Vec<SignalId> = Coi::of(netlist, [full]).registers().to_vec();
    let view = Abstraction::from_registers(regs)
        .view(netlist, [full])
        .expect("view builds");
    let _ = property;
    let mut reach_opts = ReachOptions::default()
        .with_frontier_simplify(rfn_bench::frontier_simplify_from_args())
        .with_trace(ctx.clone());
    if let Some(limit) = rfn_bench::cluster_limit_from_args() {
        reach_opts = reach_opts.with_cluster_limit(limit);
    }
    let model_opts = rfn_mc::ModelOptions {
        cluster_limit: reach_opts.cluster_limit,
        static_order: reach_opts.static_order,
    };
    let mut model = SymbolicModel::with_options(
        netlist,
        ModelSpec::from_view(&view),
        rfn_bdd::BddManager::new(),
        model_opts,
    )
    .expect("model builds");
    // Target an interesting deep state: the FIFO's full flag.
    let full = netlist.find("full").expect("fifo has a full flag");
    let targets = model.signal_bdd(full).expect("flag in model");
    let reach = forward_reach(&mut model, targets, &reach_opts).expect("reach runs");
    println!("kernel stats (fifo reachability): {}", reach.stats);
    let rfn_mc::ReachVerdict::TargetHit { step } = reach.verdict else {
        println!("hybrid demo: full flag unreachable in this configuration");
        return;
    };
    let atpg_opts = AtpgOptions {
        trace: ctx,
        ..AtpgOptions::default()
    };
    let engine = HybridEngine::new(netlist, &view, &mut model, &atpg_opts).expect("engine builds");
    let (traces, stats) = engine
        .traces(&mut model, &reach.rings, step, targets, 1)
        .expect("hybrid runs");
    match traces.first() {
        Some(trace) => {
            println!(
                "hybrid engine on `fifo` (target: full flag, depth {step}): \
                 {} trace cycles",
                trace.num_cycles()
            );
            println!(
                "  steps resolved by no-cut cubes:   {:>4}",
                stats.no_cut_steps
            );
            println!(
                "  steps lifted from min-cut cubes:  {:>4} (combinational ATPG)",
                stats.min_cut_steps
            );
            println!(
                "  exact-pre-image fallback steps:   {:>4}",
                stats.fallback_steps
            );
            println!(
                "  abstract-model inputs {} -> min-cut inputs {}",
                stats.abstract_inputs, stats.min_cut_inputs
            );
        }
        None => {
            println!("hybrid demo failed: {stats:?}");
        }
    }
}
