//! Simulation-kernel benchmark: scalar reference vs. the bit-parallel
//! packed kernel, plus the random-simulation concretization engine's
//! hit-rate, on the bundled benchmark designs.
//!
//! ```text
//! cargo run -p rfn-bench --bin simbench --release [-- --quick] [--smoke]
//! ```
//!
//! Three sections:
//!
//! 1. **Equivalence** — the packed kernel must agree with the scalar
//!    reference on every signal over random concrete stimulus (lanes 0 and
//!    63 are cross-checked against two independent scalar runs). Any
//!    mismatch exits nonzero; this is the CI smoke gate.
//! 2. **Throughput** — gate-evaluations per second free-running each design
//!    under random stimulus. The packed kernel evaluates 64 patterns per
//!    gate visit, so its pattern-gate-evals/s rate is the scalar rate
//!    multiplied by the effective parallel speedup.
//! 3. **Random engine** — corridor-guided vs. unguided hit-rate of
//!    [`rfn_sim::random_concretize`] on the processor module's falsifiable
//!    `error_flag` property: with the stall corridor pinned the stall
//!    counter marches deterministically and every pattern hits; unguided
//!    random stimulus essentially never does (the paper's argument for
//!    trace-guided engines, Section 2.3).
//!
//! Results are written to `BENCH_sim.json` (hand-rolled JSON, no
//! dependencies; a `--smoke` run writes `target/bench-smoke/BENCH_sim.json`
//! instead). `--smoke` shrinks the cycle counts for CI; `--quick`
//! selects the scaled-down designs (paper-sized otherwise).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rfn_bench::Scale;
use rfn_designs::{fifo_controller, integer_unit, processor_module, usb_controller, Design};
use rfn_netlist::{Cube, Netlist};
use rfn_sim::{
    random_concretize, PackedSim, PackedTv, RandomSimOptions, Simulator, Tv, XorShift64,
};

struct Throughput {
    name: String,
    gates: usize,
    registers: usize,
    scalar_evals_per_sec: f64,
    packed_evals_per_sec: f64,
    speedup: f64,
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (eq_cycles, warmup, measure) = if smoke {
        (32, 16, 256)
    } else {
        (128, 512, 4096)
    };
    println!("simbench: simulation kernels (scale: {scale:?}, smoke: {smoke})");
    println!();

    let designs: Vec<(&str, Design)> = vec![
        ("fifo", fifo_controller(&scale.fifo())),
        ("integer_unit", integer_unit(&scale.integer_unit())),
        ("usb", usb_controller(&scale.usb())),
        ("processor", processor_module(&scale.processor())),
    ];

    // Section 1: equivalence gate.
    for (name, design) in &designs {
        if let Err(msg) = check_equivalence(&design.netlist, eq_cycles) {
            eprintln!("simbench: packed/scalar MISMATCH on {name}: {msg}");
            return ExitCode::from(1);
        }
        println!("equivalence ok: {name} ({eq_cycles} cycles, lanes 0 and 63)");
    }
    println!();

    // Section 2: throughput.
    let mut rows = Vec::new();
    for (name, design) in &designs {
        let t = measure_throughput(name, &design.netlist, warmup, measure);
        println!(
            "{:<14} {:>7} gates  scalar {:>12.0} evals/s  packed {:>14.0} evals/s  {:>6.1}x",
            t.name, t.gates, t.scalar_evals_per_sec, t.packed_evals_per_sec, t.speedup
        );
        rows.push(t);
    }
    println!();

    // Section 3: the random concretization engine on the processor's
    // falsifiable `error_flag` property.
    let processor = &designs.last().expect("processor is bundled").1;
    let engine = random_engine_hit_rate(processor, scale, smoke);
    match &engine {
        Some(e) => println!("{e}"),
        None => println!("random engine: no hit found in the scanned depth window"),
    }

    let json = render_json(&rows, engine.as_ref(), smoke);
    match rfn_bench::write_bench_json("BENCH_sim.json", &json, smoke) {
        Ok(path) => {
            println!();
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: writing BENCH_sim.json: {e}");
            ExitCode::from(1)
        }
    }
}

/// Drives both kernels with the same random concrete stimulus and compares
/// every signal; lanes 0 and 63 of the packed run are checked against two
/// independent scalar runs.
fn check_equivalence(netlist: &Netlist, cycles: usize) -> Result<(), String> {
    let mut packed = PackedSim::new(netlist).map_err(|e| e.to_string())?;
    let mut lane0 = Simulator::new(netlist).map_err(|e| e.to_string())?;
    let mut lane63 = Simulator::new(netlist).map_err(|e| e.to_string())?;
    packed.reset();
    lane0.reset();
    lane63.reset();
    let mut rng = XorShift64::new(0xE0_0E10);
    let inputs = netlist.inputs().to_vec();
    for cycle in 0..cycles {
        for &i in &inputs {
            let word = rng.next_u64();
            packed.set(i, PackedTv::from_bits(word));
            lane0.set(i, Tv::from(word & 1 == 1));
            lane63.set(i, Tv::from(word >> 63 & 1 == 1));
        }
        packed.step_comb();
        lane0.step_comb();
        lane63.step_comb();
        for s in netlist.signals() {
            if packed.lane(s, 0) != lane0.value(s) || packed.lane(s, 63) != lane63.value(s) {
                return Err(format!("cycle {cycle}, signal {}", netlist.label(s)));
            }
        }
        packed.latch();
        lane0.latch();
        lane63.latch();
    }
    Ok(())
}

/// Free-runs both kernels under random stimulus and reports
/// gate-evaluations per second (the packed kernel counts 64 patterns per
/// gate visit).
fn measure_throughput(name: &str, netlist: &Netlist, warmup: usize, measure: usize) -> Throughput {
    let inputs = netlist.inputs().to_vec();

    // Scalar: one pattern per cycle.
    let mut scalar = Simulator::new(netlist).expect("bundled designs validate");
    scalar.reset();
    let mut rng = XorShift64::new(0x51CA_1A12);
    let drive_scalar = |sim: &mut Simulator, rng: &mut XorShift64| {
        let cube: Cube = inputs
            .iter()
            .map(|&i| (i, rng.next_u64() & 1 == 1))
            .collect();
        sim.step(&cube);
    };
    for _ in 0..warmup {
        drive_scalar(&mut scalar, &mut rng);
    }
    let start = Instant::now();
    for _ in 0..measure {
        drive_scalar(&mut scalar, &mut rng);
    }
    let scalar_elapsed = start.elapsed().as_secs_f64();
    let scalar_evals = (netlist.num_gates() * measure) as f64;

    // Packed: 64 patterns per cycle; count actual gate visits (the
    // dirty-level skip may avoid some levels).
    let mut packed = PackedSim::new(netlist).expect("bundled designs validate");
    packed.reset();
    let mut rng = XorShift64::new(0x9AC4_ED12);
    let drive_packed = |sim: &mut PackedSim, rng: &mut XorShift64| {
        for &i in &inputs {
            sim.set(i, PackedTv::from_bits(rng.next_u64()));
        }
        sim.step_comb();
        sim.latch();
    };
    for _ in 0..warmup {
        drive_packed(&mut packed, &mut rng);
    }
    let before = packed.counters().gate_evals;
    let start = Instant::now();
    for _ in 0..measure {
        drive_packed(&mut packed, &mut rng);
    }
    let packed_elapsed = start.elapsed().as_secs_f64();
    let packed_evals = (packed.counters().gate_evals - before) as f64 * 64.0;

    let scalar_rate = scalar_evals / scalar_elapsed.max(1e-9);
    let packed_rate = packed_evals / packed_elapsed.max(1e-9);
    Throughput {
        name: name.to_owned(),
        gates: netlist.num_gates(),
        registers: netlist.num_registers(),
        scalar_evals_per_sec: scalar_rate,
        packed_evals_per_sec: packed_rate,
        speedup: packed_rate / scalar_rate.max(1e-9),
    }
}

struct EngineResult {
    depth: usize,
    guided_hits: u64,
    guided_patterns: u64,
    unguided_hits: u64,
    unguided_patterns: u64,
}

impl std::fmt::Display for EngineResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "random engine on processor/error_flag, depth {}: guided {}/{} hits, \
             unguided {}/{} hits",
            self.depth,
            self.guided_hits,
            self.guided_patterns,
            self.unguided_hits,
            self.unguided_patterns
        )
    }
}

/// Corridor-guided vs. unguided hit-rate of the random engine on the
/// processor's `error_flag` property. The guided corridor pins `start` at
/// cycle 0 and `in_stall` every cycle — the inputs an abstract error trace
/// would pin — so the stall counter marches deterministically to the
/// threshold; the depth is scanned since the exact firing cycle depends on
/// the boot pipeline.
fn random_engine_hit_rate(processor: &Design, scale: Scale, smoke: bool) -> Option<EngineResult> {
    let netlist = &processor.netlist;
    let property = processor.property("error_flag").expect("bundled property");
    let target: Cube = [(property.signal, property.value)].into_iter().collect();
    let start = netlist.find("start").expect("processor has start");
    let in_stall = netlist.find("in_stall").expect("processor has in_stall");
    let threshold = scale.processor().stall_threshold as usize;
    let options = RandomSimOptions {
        batches: if smoke { 4 } else { 16 },
        ..RandomSimOptions::default()
    };
    let mut sim = PackedSim::new(netlist).expect("design validates");
    let mut replay = None;
    for depth in threshold + 2..threshold + 10 {
        let guidance: Vec<Cube> = (0..depth)
            .map(|t| {
                let mut cube: Cube = [(in_stall, true)].into_iter().collect();
                if t == 0 {
                    cube.insert(start, true).expect("distinct literals");
                }
                cube
            })
            .collect();
        let (found, stats) = random_concretize(&mut sim, &mut replay, &target, &guidance, &options)
            .expect("design validates");
        if found.is_some() {
            // Unguided baseline at the same depth: empty corridor cubes.
            let unguided: Vec<Cube> = (0..depth).map(|_| Cube::new()).collect();
            let (_, ustats) =
                random_concretize(&mut sim, &mut replay, &target, &unguided, &options)
                    .expect("design validates");
            return Some(EngineResult {
                depth,
                guided_hits: stats.hits,
                guided_patterns: stats.patterns,
                unguided_hits: ustats.hits,
                unguided_patterns: ustats.patterns,
            });
        }
    }
    None
}

fn render_json(rows: &[Throughput], engine: Option<&EngineResult>, smoke: bool) -> String {
    let mut s = String::from("{\n  \"bench\": \"sim\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"throughput\": [\n");
    for (k, t) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"design\": \"{}\", \"gates\": {}, \"registers\": {}, \
             \"scalar_evals_per_sec\": {:.0}, \"packed_evals_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}",
            t.name, t.gates, t.registers, t.scalar_evals_per_sec, t.packed_evals_per_sec, t.speedup
        );
        s.push_str(if k + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    match engine {
        Some(e) => {
            let _ = writeln!(
                s,
                "  \"random_engine\": {{\"design\": \"processor\", \"property\": \"error_flag\", \
                 \"depth\": {}, \"guided_hits\": {}, \"guided_patterns\": {}, \
                 \"unguided_hits\": {}, \"unguided_patterns\": {}}}",
                e.depth, e.guided_hits, e.guided_patterns, e.unguided_hits, e.unguided_patterns
            );
        }
        None => {
            s.push_str("  \"random_engine\": null\n");
        }
    }
    s.push_str("}\n");
    s
}
