//! `perfbench`: end-to-end and per-layer benchmark of the RFN verifier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|table2|bmc|portfolio> [--seed <u64>] [--seconds <n>]
//!     [--trace <0|1>] [--smoke]
//! ```
//!
//! One process runs one workload through the public `VerifySession` API,
//! one session at a time on one worker thread. After building the
//! workload's designs (timed, repeated, reported as `setup_s`), it runs
//! passes over the workload's jobs until `--seconds` have elapsed (at least
//! one pass), then checks every verdict against its reference and prints
//! its metrics: a readable table, then one JSON object as the last line.
//!
//! With `--trace 0` the metrics are the end-to-end ones, from untraced
//! passes. With `--trace 1` passes alternate between untraced and traced
//! (a `MemorySink` on every session); the traced passes give the per-layer
//! metrics, and the two kinds together give the tracing overhead. A wrong
//! verdict makes the exit code 1.

mod layers;
mod measure;
mod selftime;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfn_trace::MemorySink;

use layers::{LayerPass, LAYERS, PER_LAYER};
use measure::{cpu_seconds, median, peak_rss_mb, tail, tail_percentile};
use workloads::{setup, Outcome, Setup, Workload};

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: perfbench --workload <table1|table2|bmc|portfolio> [--seed <u64>] \
                     [--seconds <n>] [--trace <0|1>] [--smoke]";

/// Set-up is repeated at least this often, and until this much time has
/// passed, so the median of a millisecond-scale set-up is steady.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 50;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Table1,
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        parsed.workload = workload.ok_or("`--workload` is required")?;
        Ok(parsed)
    }
}

/// One pass over a workload's jobs.
struct Pass {
    traced: bool,
    /// Summed wall time of the pass's `run` calls.
    wall_s: f64,
    /// Process CPU time over the pass, race lane threads included.
    cpu_s: f64,
    /// Time spent generating the designs of fuzz jobs just before them.
    generate_s: f64,
    /// Median and tail (see [`tail`]) of the pass's job times.
    job_p50_s: f64,
    job_tail_s: f64,
    layers: Option<LayerPass>,
}

/// Per job, each distinct list of outcomes its passes produced, with the
/// number of passes and of untraced passes that produced it. Verdicts are
/// deterministic, so a job normally has one entry, and memory stays flat
/// however many passes run.
type Tally = Vec<Vec<(Vec<Outcome>, u64, u64)>>;

fn run_pass(setup: &Setup, traced: bool, tally: &mut Tally) -> Result<Pass, String> {
    let cpu_start = cpu_seconds()?;
    let mut generate_s = 0.0;
    let mut job_s = Vec::with_capacity(setup.jobs.len());
    let mut layers = traced.then(LayerPass::default);
    for (job, seen) in setup.jobs.iter().zip(tally.iter_mut()) {
        let design = setup.prepare(job);
        generate_s += design.generate_s;
        let sink = traced.then(|| Arc::new(MemorySink::new()));
        let (secs, result) = job.run(&design, sink.clone());
        if let (Some(layers), Some(sink)) = (&mut layers, sink) {
            layers.add_job(secs, &sink.take(), result.as_ref().ok());
        }
        let outcomes = job.outcomes(&design, &result);
        let untraced = u64::from(!traced);
        match seen.iter_mut().find(|(o, _, _)| *o == outcomes) {
            Some((_, passes, untraced_passes)) => {
                *passes += 1;
                *untraced_passes += untraced;
            }
            None => seen.push((outcomes, 1, untraced)),
        }
        job_s.push(secs);
    }
    Ok(Pass {
        traced,
        wall_s: job_s.iter().sum(),
        cpu_s: cpu_seconds()? - cpu_start,
        generate_s,
        job_p50_s: median(&job_s),
        job_tail_s: tail(&job_s),
        layers,
    })
}

/// Builds the workload repeatedly; returns the last build and the median
/// set-up and corpus-load times.
fn measured_setup(args: &Args) -> Result<(Setup, f64, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut loads = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || (start.elapsed() < SETUP_MIN && times.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let built = setup(args.workload, args.seed, args.smoke)?;
        times.push(t.elapsed().as_secs_f64());
        loads.push(built.load_s);
        last = Some(built);
    }
    let built = last.expect("set-up ran at least once");
    Ok((built, median(&times), median(&loads)))
}

/// How the verdicts of every pass compared with their references.
#[derive(Debug, Default)]
struct Verdicts {
    attempted: u64,
    failed: u64,
    wrong: u64,
    unchecked: u64,
    /// Expected verdicts reached by untraced passes.
    good_untraced: u64,
}

/// At most this many failed or wrong verdicts are listed in the report.
const LISTED_PROBLEMS: usize = 10;

fn check_verdicts(setup: &Setup, tally: &Tally, report: &mut String) -> Verdicts {
    let mut v = Verdicts::default();
    let mut problems = Vec::new();
    for (j, (job, seen)) in setup.jobs.iter().zip(tally).enumerate() {
        // References for the fuzz designs come from an untimed run of a
        // second engine, made here, after every pass.
        let want = job.expected(&setup.prepare(job));
        for (got, passes, untraced) in seen {
            if got.len() != want.len() {
                v.attempted += passes * want.len() as u64;
                v.wrong += passes * want.len() as u64;
                problems.push(format!(
                    "WRONG job {j}: {} verdicts for {}",
                    got.len(),
                    want.len()
                ));
                continue;
            }
            for (k, (got, want)) in got.iter().zip(&want).enumerate() {
                v.attempted += passes;
                match (got, want) {
                    (Outcome::Failed(why), _) => {
                        v.failed += passes;
                        problems.push(format!("FAILED job {j} verdict {k}: {why}"));
                    }
                    (_, None) => v.unchecked += passes,
                    (got, Some(want)) if got != want => {
                        v.wrong += passes;
                        problems.push(format!(
                            "WRONG job {j} verdict {k}: got {got:?}, expected {want:?}"
                        ));
                    }
                    _ => v.good_untraced += untraced,
                }
            }
        }
    }
    for problem in problems.iter().take(LISTED_PROBLEMS) {
        let _ = writeln!(report, "# {problem}");
    }
    v
}

type Metric = (&'static str, &'static str, f64);

struct RunResult {
    verdicts: Verdicts,
    metrics: Vec<Metric>,
    /// Traced runs: span self times plus session self time, as a share of
    /// traced wall time.
    attributed: Option<f64>,
    report: String,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let (built, setup_s, load_s) = measured_setup(args)?;
    let mut passes: Vec<Pass> = Vec::new();
    let mut tally: Tally = vec![Vec::new(); built.jobs.len()];
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // The memory of one run of the workload, as a user would make it: the
    // allocator's heap keeps growing over repeated passes, and the number
    // of passes depends on machine speed.
    let mut peak_rss = 0.0;
    loop {
        // Traced runs alternate untraced and traced passes, so both kinds
        // see the same machine conditions.
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(run_pass(&built, traced, &mut tally)?);
        if passes.len() == 1 {
            peak_rss = peak_rss_mb()?;
        }
        let both_kinds = !args.trace || passes.len() >= 2;
        if start.elapsed() >= deadline && both_kinds {
            break;
        }
    }

    let mut report = String::new();
    let verdicts = check_verdicts(&built, &tally, &mut report);
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let untraced_median =
        |f: fn(&Pass) -> f64| median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let untraced_wall: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let _ = writeln!(
        report,
        "# perfbench workload={} seed={} smoke={} nproc={} passes={} traced_passes={} \
         jobs_per_pass={} job_tail={} unchecked_verdicts={}",
        args.workload.name(),
        args.seed,
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        untraced.len(),
        traced.len(),
        built.jobs.len(),
        tail_percentile(built.jobs.len()).0,
        verdicts.unchecked,
    );
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.4}{}", p.wall_s, if p.traced { "t" } else { "" }))
        .collect();
    let _ = writeln!(
        report,
        "# pass wall times (t = traced): {}",
        walls.join(" ")
    );

    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                // Fuzz designs are generated per pass, just before their
                // sessions; the other designs once per set-up.
                "setup_s" => setup_s + untraced_median(|p| p.generate_s),
                "wall_s" => untraced_median(|p| p.wall_s),
                "cpu_s" => untraced_median(|p| p.cpu_s),
                "verdicts_per_s" => {
                    verdicts.good_untraced as f64 / untraced_wall.iter().sum::<f64>()
                }
                "job_p50_s" => untraced_median(|p| p.job_p50_s),
                "job_tail_s" => untraced_median(|p| p.job_tail_s),
                "peak_rss_mb" => peak_rss,
                _ => unreachable!("every end-to-end metric is computed"),
            };
            (name, unit, value)
        })
        .collect();
    if !args.trace {
        return Ok(RunResult {
            verdicts,
            metrics: end_to_end,
            attributed: None,
            report,
        });
    }
    let layers: Vec<&LayerPass> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    let (metrics, attributed) = layer_metrics(&layers, &untraced_wall, load_s, &mut report);
    // The untraced passes' end-to-end numbers, for reading alongside.
    for (name, unit, value) in end_to_end {
        let _ = writeln!(report, "# (untraced) {name:<17} {value:>16.6} {unit}");
    }
    Ok(RunResult {
        verdicts,
        metrics,
        attributed: Some(attributed),
        report,
    })
}

/// The per-layer metrics (each the median over the traced passes) and the
/// share of traced wall time the spans account for; writes a readable
/// self-time breakdown to `report`.
fn layer_metrics(
    layers: &[&LayerPass],
    untraced_wall: &[f64],
    load_s: f64,
    report: &mut String,
) -> (Vec<Metric>, f64) {
    let per_pass: Vec<_> = layers.iter().map(|l| l.metrics()).collect();
    let traced_wall = median(&layers.iter().map(|l| l.wall_s()).collect::<Vec<_>>());
    let layer = |name: &str| median(&per_pass.iter().map(|m| m[name]).collect::<Vec<_>>());
    let _ = writeln!(
        report,
        "# self time by layer (median traced pass {traced_wall:.4} s):"
    );
    let mut covered = 0.0;
    for (layer_name, parts) in LAYERS {
        let secs: f64 = parts.iter().map(|p| layer(p)).sum();
        covered += secs;
        let _ = writeln!(
            report,
            "#   {layer_name:<8} {secs:>10.4} s {:>6.1} %",
            100.0 * secs / traced_wall
        );
    }
    let _ = writeln!(
        report,
        "#   {:<8} {:>10.4} s (other spans; negative when race lanes overlap)",
        "rest",
        traced_wall - covered
    );
    let attributed = median(
        &layers
            .iter()
            .map(|l| l.attributed_frac())
            .collect::<Vec<_>>(),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "source.load_s" => load_s,
                "trace.overhead_frac" => traced_wall / median(untraced_wall) - 1.0,
                _ => layer(name),
            };
            (name, unit, value)
        })
        .collect();
    (metrics, attributed)
}

impl RunResult {
    fn correct(&self) -> bool {
        self.verdicts.wrong == 0
    }

    /// The single-line JSON result object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.verdicts.attempted,
            self.verdicts.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            print!("{}", result.report);
            if let Some(attributed) = result.attributed {
                println!(
                    "# span self times + session self time = {:.2} % of traced wall time",
                    100.0 * attributed
                );
            }
            for (name, unit, value) in &result.metrics {
                println!("# {name:<28} {value:>16.6} {unit}");
            }
            println!("{}", result.json());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at quick scale, one untraced and one traced pass,
    /// through the verdict referee and the trace accounting.
    #[test]
    fn smoke_runs_every_workload_correctly() {
        // `portfolio` reads the corpus relative to the checkout root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
            .expect("the repository root");
        for workload in Workload::ALL {
            let args = Args {
                workload,
                seed: 1,
                seconds: 0.0,
                trace: true,
                smoke: true,
            };
            let result = run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let v = &result.verdicts;
            assert!(result.correct(), "{}: {}", workload.name(), result.report);
            assert_eq!(v.failed, 0, "{}: {}", workload.name(), result.report);
            assert!(v.attempted > 0);
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            // No traced time is lost or counted twice.
            let attributed = result.attributed.expect("a traced run");
            assert!(
                (attributed - 1.0).abs() <= 0.05,
                "{}: {attributed}",
                workload.name()
            );
        }
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        ours.extend(END_TO_END.iter().map(|m| m.0));
        ours.extend(PER_LAYER.iter().map(|m| m.0));
        listed.sort_unstable();
        ours.sort_unstable();
        assert_eq!(listed, ours);
    }

    #[test]
    fn args_reject_unknown_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload bmc --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Bmc, 7, 2.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload bmc --trace 2").is_err());
        assert!(parse("--workload bmc --seconds -1").is_err());
        assert!(parse("--workload bmc --bogus 1").is_err());
    }
}
