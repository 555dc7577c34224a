//! Shared infrastructure for the table/figure regeneration harnesses.
//!
//! Each binary in this crate regenerates one table or figure of the DAC 2001
//! RFN paper (see `EXPERIMENTS.md` at the repository root):
//!
//! * `table1` — property verification: RFN vs. plain symbolic model checking
//!   with COI reduction,
//! * `table2` — unreachable-coverage-state analysis: RFN vs. the BFS
//!   abstraction baseline,
//! * `figure1` — min-cut anatomy: signal classes and no-cut/min-cut cube
//!   statistics of the hybrid engine.
//!
//! All binaries accept `--quick` to run scaled-down workloads (used by CI
//! and the Criterion benches); the default parameters match the paper's
//! design sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rfn_designs::{FifoParams, IntegerUnitParams, ProcessorParams, UsbParams};
use rfn_trace::{
    merge_streams, Event, FanoutSink, JsonlSink, MemorySink, TimeBreakdown, TraceCtx, TraceSink,
};

/// Workload scale for a harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized designs (≈5,000-register processor, 32-deep FIFO).
    Paper,
    /// Scaled-down designs for fast iteration and benches.
    Quick,
}

impl Scale {
    /// Parses `--quick` from the command line (anything else = paper scale).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Processor-module parameters at this scale.
    pub fn processor(self) -> ProcessorParams {
        match self {
            Scale::Paper => ProcessorParams::default(),
            Scale::Quick => ProcessorParams {
                width: 16,
                regfile_words: 8,
                store_entries: 4,
                cache_lines: 4,
                pipe_stages: 2,
                multipliers: 2,
                stall_threshold: 27,
            },
        }
    }

    /// FIFO-controller parameters at this scale.
    pub fn fifo(self) -> FifoParams {
        match self {
            Scale::Paper => FifoParams::default(),
            Scale::Quick => FifoParams {
                depth: 16,
                data_width: 8,
                data_stages: 3,
                inject_half_flag_bug: false,
            },
        }
    }

    /// Integer-unit parameters at this scale.
    pub fn integer_unit(self) -> IntegerUnitParams {
        match self {
            Scale::Paper => IntegerUnitParams::default(),
            Scale::Quick => IntegerUnitParams {
                stages: 5,
                counters_per_stage: 1,
                counter_width: 5,
                data_width: 4,
            },
        }
    }

    /// USB-controller parameters at this scale.
    pub fn usb(self) -> UsbParams {
        match self {
            Scale::Paper => UsbParams::default(),
            Scale::Quick => UsbParams {
                endpoints: 3,
                nak_width: 6,
            },
        }
    }

    /// Per-experiment time limit at this scale (the paper used 1,800 s for
    /// Table 2; we scale down since modern hardware is far faster).
    pub fn time_limit(self) -> Duration {
        match self {
            Scale::Paper => Duration::from_secs(300),
            Scale::Quick => Duration::from_secs(60),
        }
    }
}

/// Structured-event output for a harness run, parsed from
/// `--trace-out <file>`.
///
/// When the flag is present, every job's events are written to the file as
/// JSONL (schema: `rfn_trace` crate docs) *and* buffered so [`finish`]
/// can print the per-phase time-breakdown table. Per-job buffers handed to
/// [`emit_merged`] are renumbered into one deterministic stream, so the
/// file is identical at any `--threads` setting (modulo timestamps).
///
/// [`finish`]: BenchTrace::finish
/// [`emit_merged`]: BenchTrace::emit_merged
#[derive(Default)]
pub struct BenchTrace {
    sink: Option<Arc<dyn TraceSink>>,
    memory: Option<Arc<MemorySink>>,
    jsonl: Option<Arc<JsonlSink>>,
}

impl BenchTrace {
    /// Parses `--trace-out <file>`; tracing stays off without it.
    pub fn from_args() -> BenchTrace {
        let args: Vec<String> = std::env::args().collect();
        let path = args
            .iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| args.get(i + 1));
        let Some(path) = path else {
            return BenchTrace::default();
        };
        let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
        let jsonl = Arc::new(JsonlSink::new(Box::new(std::io::BufWriter::new(file))));
        let memory = Arc::new(MemorySink::new());
        let sink = Arc::new(FanoutSink::new(vec![
            jsonl.clone() as Arc<dyn TraceSink>,
            memory.clone() as Arc<dyn TraceSink>,
        ]));
        BenchTrace {
            sink: Some(sink),
            memory: Some(memory),
            jsonl: Some(jsonl),
        }
    }

    /// Whether `--trace-out` was given.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A per-job context writing into the given buffer (disabled when
    /// tracing is off, so jobs skip event construction entirely).
    pub fn job_ctx(&self, buffer: &Arc<MemorySink>) -> TraceCtx {
        if self.enabled() {
            TraceCtx::new(buffer.clone() as Arc<dyn TraceSink>)
        } else {
            TraceCtx::disabled()
        }
    }

    /// Merges per-job event buffers (in job order) into the output sink.
    pub fn emit_merged(&self, buffers: Vec<Vec<Event>>) {
        if let Some(sink) = &self.sink {
            for event in merge_streams(buffers) {
                sink.emit(&event);
            }
        }
    }

    /// Flushes the JSONL file and prints the per-phase breakdown table.
    pub fn finish(&self) {
        if let Some(jsonl) = &self.jsonl {
            jsonl.flush();
        }
        if let Some(memory) = &self.memory {
            let table = TimeBreakdown::from_events(&memory.take()).render();
            if !table.is_empty() {
                println!();
                println!("Per-phase time breakdown:");
                print!("{table}");
            }
        }
    }
}

/// Parses `--threads <n>` from the command line; defaults to the machine's
/// available parallelism. The table harnesses run their independent
/// property/coverage jobs on this many workers (one BDD manager per job);
/// output order is deterministic at any thread count.
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(rfn_core::default_threads)
}

/// Parses `--cluster-limit <nodes>` from the command line (`None` keeps the
/// engine default; `0` disables clustering for the seed-style linear
/// schedule).
pub fn cluster_limit_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--cluster-limit")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
}

/// Parses `--no-frontier-simplify` from the command line; returns whether
/// don't-care frontier minimization stays enabled.
pub fn frontier_simplify_from_args() -> bool {
    !std::env::args().any(|a| a == "--no-frontier-simplify")
}

/// Writes a bench bin's JSON report: to `file` in the working directory,
/// where the committed full-scale numbers live, or — for a `--smoke` run —
/// under `target/bench-smoke/`, so a smoke never overwrites them. Returns
/// the path written.
///
/// # Errors
///
/// Creating the smoke directory or writing the file failed.
pub fn write_bench_json(file: &str, json: &str, smoke: bool) -> std::io::Result<PathBuf> {
    let path = if smoke {
        let dir = Path::new("target").join("bench-smoke");
        std::fs::create_dir_all(&dir)?;
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Formats a duration as seconds with one decimal.
pub fn secs(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// Prints an aligned table row.
pub fn row(cells: &[&str], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule matching the given column widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}
