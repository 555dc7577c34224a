//! The four workloads: the designs and jobs each one builds from the seed,
//! and the verdict every job must reach.
//!
//! A job is one `VerifySession::run` call. Expected verdicts are pinned
//! here, except for the fuzz designs of `portfolio`, whose reference comes
//! from an untimed run of a second engine after timing (see
//! [`Job::expected`]).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rfn_bench::{common::grouped_synthetic, Scale};
use rfn_core::prelude::*;
use rfn_core::{PropertyResult, DEFAULT_BMC_MAX_DEPTH};
use rfn_designs::{fifo_controller, integer_unit, processor_module, usb_controller};
use rfn_designs::{Design, FifoParams, ProcessorParams};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The five Table 1 properties, RFN engine.
    Table1,
    /// The seven Table 2 coverage sets.
    Table2,
    /// The SAT lane alone: single and grouped bounded model checking.
    Bmc,
    /// Many small jobs: fuzz designs, the AIGER/DIMACS corpus under race,
    /// and a 2,048-property grouped plain-MC session.
    Portfolio,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::Table2,
        Workload::Bmc,
        Workload::Portfolio,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Table2 => "table2",
            Workload::Bmc => "bmc",
            Workload::Portfolio => "portfolio",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one property or coverage set concluded, normalized across engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Safe at every depth.
    Proved,
    /// Falsified; the minimal violating cycle index.
    Falsified(usize),
    /// BMC found no counterexample up to this frame (its bounded verdict).
    BoundedSafe(usize),
    /// A coverage set with this many unreachable states and none unresolved.
    Unreachable(u64),
    /// An `Err`, a panic, or an inconclusive verdict.
    Failed(String),
}

/// A design a job runs on.
#[derive(Clone)]
pub struct Input {
    netlist: Netlist,
    /// The identity [`DesignSource::load`] assigned, for loaded designs.
    identity: Option<DesignIdentity>,
}

/// Where a job's design, properties and expected verdicts come from.
enum Source {
    /// A design the set-up built, the properties (or coverage set) to check
    /// on it, and their pinned verdicts.
    Built {
        input: usize,
        properties: Vec<Property>,
        coverage: Option<CoverageSet>,
        expect: Vec<Outcome>,
    },
    /// The fuzz design of this seed, generated just before its session:
    /// every property it carries, checked against an untimed RFN run.
    Fuzz(u64),
}

/// One `VerifySession::run` call.
pub struct Job {
    source: Source,
    engine: EngineKind,
    sim_seed: Option<u64>,
    bmc_depth: Option<usize>,
}

/// A job's design and properties, ready to run.
pub struct Prepared<'s> {
    input: Cow<'s, Input>,
    properties: Cow<'s, [Property]>,
    /// Seconds spent generating the design for this job (fuzz designs).
    pub generate_s: f64,
}

/// A workload's designs and jobs.
pub struct Setup {
    inputs: Vec<Input>,
    /// The jobs of one pass, in run order.
    pub jobs: Vec<Job>,
    /// Seconds spent in `DesignSource::load` of corpus files.
    pub load_s: f64,
}

/// Table 1's processor at half the paper's datapath width (about 1,070
/// registers and 7,100 gates against the paper-size 5,000 and 100,000):
/// `error_flag` still falsifies with the 31-cycle trace after 16 refinement
/// iterations, but a pass takes about 2 s instead of 40 s, so a run
/// measures several passes.
const BENCH_PROCESSOR: ProcessorParams = ProcessorParams {
    width: 24,
    regfile_words: 12,
    store_entries: 8,
    cache_lines: 6,
    pipe_stages: 3,
    multipliers: 3,
    stall_threshold: 27,
};

/// The committed AIGER/DIMACS corpus and its hand-computed verdicts, as
/// pinned by the repository's frontend tests.
const CORPUS: &[(&str, &[Outcome])] = &[
    ("toggle.aag", &[Outcome::Falsified(1)]),
    ("stuck.aag", &[Outcome::Proved]),
    ("latch_or.aag", &[Outcome::Falsified(1)]),
    ("counter3_bad7.aag", &[Outcome::Falsified(7)]),
    ("two_props.aag", &[Outcome::Proved, Outcome::Falsified(1)]),
    ("outputs_as_bad.aag", &[Outcome::Proved]),
    ("sat2.cnf", &[Outcome::Falsified(0)]),
    ("unsat1.cnf", &[Outcome::Proved]),
];

impl Setup {
    /// The job's design and properties; fuzz designs are generated here.
    pub fn prepare<'s>(&'s self, job: &'s Job) -> Prepared<'s> {
        match &job.source {
            Source::Built {
                input, properties, ..
            } => Prepared {
                input: Cow::Borrowed(&self.inputs[*input]),
                properties: Cow::Borrowed(properties),
                generate_s: 0.0,
            },
            Source::Fuzz(seed) => {
                let start = Instant::now();
                let loaded = DesignSource::Fuzz(*seed)
                    .load()
                    .expect("fuzz designs always load");
                Prepared {
                    generate_s: start.elapsed().as_secs_f64(),
                    input: Cow::Owned(Input {
                        netlist: loaded.design.netlist,
                        identity: Some(loaded.identity),
                    }),
                    properties: Cow::Owned(loaded.design.properties),
                }
            }
        }
    }

    fn add(&mut self, input: Input, jobs: impl IntoIterator<Item = Job>) {
        self.inputs.push(input);
        self.jobs.extend(jobs);
    }
}

impl Job {
    fn built(
        input: usize,
        engine: EngineKind,
        properties: Vec<Property>,
        expect: Vec<Outcome>,
    ) -> Job {
        Job {
            source: Source::Built {
                input,
                properties,
                coverage: None,
                expect,
            },
            engine,
            sim_seed: None,
            bmc_depth: None,
        }
    }

    fn coverage(&self) -> Option<&CoverageSet> {
        match &self.source {
            Source::Built { coverage, .. } => coverage.as_ref(),
            Source::Fuzz(_) => None,
        }
    }

    /// Runs the job's session on its prepared design, catching panics;
    /// returns the wall time of the `run` call alone with the result.
    pub fn run(
        &self,
        design: &Prepared,
        sink: Option<Arc<MemorySink>>,
    ) -> (f64, Result<SessionReport, String>) {
        let mut rfn = RfnOptions::default();
        let mut coverage = CoverageOptions::default();
        if let Some(seed) = self.sim_seed {
            rfn = rfn.with_sim_seed(seed);
            coverage.concretize_sim.seed = seed;
        }
        let mut bmc = BmcOptions::default();
        if let Some(depth) = self.bmc_depth {
            bmc = bmc.with_max_depth(depth);
        }
        let mut session = VerifySession::new(&design.input.netlist)
            .engine(self.engine)
            .properties(design.properties.iter().cloned())
            .rfn_options(rfn)
            .bmc_options(bmc)
            .coverage_options(coverage);
        if let Some(set) = self.coverage() {
            session = session.coverage_set(set);
        }
        if let Some(identity) = &design.input.identity {
            session = session.design_identity(identity);
        }
        if let Some(sink) = sink {
            session = session.trace(sink);
        }
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| session.run()));
        let secs = start.elapsed().as_secs_f64();
        let result = match result {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(format!(
                "panic: {}",
                panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string payload)")
            )),
        };
        (secs, result)
    }

    /// Normalizes a session result into one outcome per property, then one
    /// for the coverage set.
    pub fn outcomes(
        &self,
        design: &Prepared,
        result: &Result<SessionReport, String>,
    ) -> Vec<Outcome> {
        match result {
            Err(e) => {
                let n = design.properties.len() + usize::from(self.coverage().is_some());
                vec![Outcome::Failed(e.clone()); n]
            }
            Ok(report) => report
                .results
                .iter()
                .map(|r| property_outcome(r, self.engine))
                .chain(report.coverage.iter().map(|c| {
                    if c.unresolved == 0 {
                        Outcome::Unreachable(c.unreachable)
                    } else {
                        Outcome::Failed(format!("{} coverage states unresolved", c.unresolved))
                    }
                }))
                .collect(),
        }
    }

    /// The reference verdicts, in [`Job::outcomes`] order; `None` where
    /// there is no reference.
    ///
    /// For a fuzz design the reference is an untimed run of the RFN engine,
    /// independent of the plain engine the workload times: RFN proofs come
    /// from a fixpoint on an over-approximation and its counterexamples are
    /// replayed on the design, so a conclusive RFN verdict is exact. Where
    /// RFN is inconclusive the property is unchecked.
    pub fn expected(&self, design: &Prepared) -> Vec<Option<Outcome>> {
        match &self.source {
            Source::Built { expect, .. } => expect.iter().cloned().map(Some).collect(),
            &Source::Fuzz(seed) => (0..design.properties.len())
                .map(|i| {
                    let check = Prepared {
                        input: Cow::Borrowed(&design.input),
                        properties: Cow::Borrowed(&design.properties[i..=i]),
                        generate_s: 0.0,
                    };
                    let rfn = Job {
                        source: Source::Fuzz(seed),
                        engine: EngineKind::Rfn,
                        sim_seed: None,
                        bmc_depth: None,
                    };
                    match rfn.outcomes(&check, &rfn.run(&check, None).1).pop() {
                        Some(Outcome::Failed(_)) | None => None,
                        outcome => outcome,
                    }
                })
                .collect(),
        }
    }
}

fn property_outcome(r: &PropertyResult, engine: EngineKind) -> Outcome {
    match &r.verdict {
        Verdict::Proved => Outcome::Proved,
        // RFN and BMC carry a trace whose last cycle is the violation; the
        // plain engine reports the violating step directly.
        Verdict::Falsified { trace, depth } => {
            Outcome::Falsified(trace.as_ref().map_or(*depth, |t| t.num_cycles() - 1))
        }
        Verdict::Inconclusive { reason } => match (engine, r.bmc.as_ref().map(|b| &b.verdict)) {
            (EngineKind::Bmc, Some(BmcVerdict::BoundedSafe { depth })) => {
                Outcome::BoundedSafe(*depth)
            }
            _ => Outcome::Failed(reason.clone()),
        },
    }
}

/// Builds a workload's designs and jobs from the seed.
///
/// # Errors
///
/// A corpus file that is missing or fails to load (`portfolio` reads
/// `tests/data/` relative to the working directory, the checkout root).
pub fn setup(workload: Workload, seed: u64, smoke: bool) -> Result<Setup, String> {
    let scale = if smoke { Scale::Quick } else { Scale::Paper };
    let processor = || {
        processor_module(&if smoke {
            scale.processor()
        } else {
            BENCH_PROCESSOR
        })
    };
    let generated = |netlist: Netlist| Input {
        netlist,
        identity: None,
    };
    let property = |design: &Design, name: &str| {
        vec![design.property(name).expect("bundled property").clone()]
    };
    let mut setup = Setup {
        inputs: Vec::new(),
        jobs: Vec::new(),
        load_s: 0.0,
    };
    match workload {
        Workload::Table1 => {
            let jobs = |input, design: &Design, cases: &[(&str, Outcome)]| -> Vec<Job> {
                cases
                    .iter()
                    .map(|(name, expect)| Job {
                        sim_seed: Some(seed),
                        ..Job::built(
                            input,
                            EngineKind::Rfn,
                            property(design, name),
                            vec![expect.clone()],
                        )
                    })
                    .collect()
            };
            let processor = processor();
            let processor_jobs = jobs(
                0,
                &processor,
                &[
                    ("mutex", Outcome::Proved),
                    ("error_flag", Outcome::Falsified(30)),
                ],
            );
            setup.add(generated(processor.netlist), processor_jobs);
            let fifo = fifo_controller(&scale.fifo());
            let fifo_jobs = jobs(
                1,
                &fifo,
                &[
                    ("psh_hf", Outcome::Proved),
                    ("psh_af", Outcome::Proved),
                    ("psh_full", Outcome::Proved),
                ],
            );
            setup.add(generated(fifo.netlist), fifo_jobs);
        }
        Workload::Table2 => {
            // Unreachable-state counts with nothing left unresolved: facts
            // of the designs, the same at every simulation seed. A set
            // without a count is not run: quick scale leaves out USB2, whose
            // 21 signals cost 2.5 s at any scale.
            let usb_counts: &[u64] = if smoke { &[48] } else { &[48, 2_095_552] };
            let designs = [
                (
                    integer_unit(&scale.integer_unit()),
                    &[977, 904, 995, 924, 997][..],
                ),
                (usb_controller(&scale.usb()), usb_counts),
            ];
            // The simulation seed moves the hybrid engine's work by up to a
            // fifth (which states simulation reaches first), so each pass
            // runs every set at three consecutive seeds.
            let sim_seeds = if smoke { 1 } else { 3 };
            for sim_seed in (0..sim_seeds).map(|k| seed.wrapping_add(k)) {
                for (input, (design, counts)) in designs.iter().enumerate() {
                    let sets = design.coverage_sets.iter().zip(*counts);
                    setup.jobs.extend(sets.map(|(set, &count)| Job {
                        source: Source::Built {
                            input,
                            properties: Vec::new(),
                            coverage: Some(set.clone()),
                            expect: vec![Outcome::Unreachable(count)],
                        },
                        engine: EngineKind::Rfn,
                        sim_seed: Some(sim_seed),
                        bmc_depth: None,
                    }));
                }
            }
            for (design, _) in designs {
                setup.inputs.push(generated(design.netlist));
            }
        }
        Workload::Bmc => {
            // The solver is deterministic: the seed does not change this
            // workload. `mutex` and `error_flag` stay in separate sessions;
            // together they form one BMC group whose run is far slower.
            let bounded = |input, properties, depth, expect| Job {
                bmc_depth: Some(depth),
                ..Job::built(input, EngineKind::Bmc, properties, vec![expect])
            };
            let processor = processor();
            let processor_jobs = [
                bounded(
                    0,
                    property(&processor, "error_flag"),
                    40,
                    Outcome::Falsified(30),
                ),
                bounded(
                    0,
                    property(&processor, "mutex"),
                    16,
                    Outcome::BoundedSafe(16),
                ),
            ];
            setup.add(generated(processor.netlist), processor_jobs);
            let params = scale.fifo();
            let buggy = fifo_controller(&FifoParams {
                inject_half_flag_bug: true,
                ..params
            });
            let buggy_job = bounded(
                1,
                property(&buggy, "psh_hf"),
                64,
                Outcome::Falsified(params.depth / 2),
            );
            setup.add(generated(buggy.netlist), [buggy_job]);
            let fifo = fifo_controller(&params);
            let fifo_job = bounded(2, property(&fifo, "psh_full"), 64, Outcome::BoundedSafe(64));
            setup.add(generated(fifo.netlist), [fifo_job]);
            let (groups, per_group) = if smoke { (4, 4) } else { (16, 8) };
            let (synthetic, properties) = grouped_synthetic(groups, per_group);
            let expect = synthetic_expect(
                properties.len(),
                per_group,
                Outcome::BoundedSafe(DEFAULT_BMC_MAX_DEPTH),
            );
            let job = Job::built(3, EngineKind::Bmc, properties, expect);
            setup.add(generated(synthetic), [job]);
        }
        Workload::Portfolio => {
            let fuzz_designs: u64 = if smoke { 200 } else { 10_000 };
            let first = seed.wrapping_mul(1_000_000);
            setup.jobs.extend((0..fuzz_designs).map(|i| Job {
                source: Source::Fuzz(first.wrapping_add(i)),
                engine: EngineKind::PlainMc,
                sim_seed: None,
                bmc_depth: None,
            }));
            let load_start = Instant::now();
            for (file, expect) in CORPUS {
                let path = format!("tests/data/{file}");
                let loaded = DesignSource::parse(&path)
                    .and_then(|source| source.load())
                    .map_err(|e| format!("loading {path}: {e}"))?;
                let job = Job::built(
                    setup.inputs.len(),
                    EngineKind::Race,
                    loaded.design.properties,
                    expect.to_vec(),
                );
                let input = Input {
                    netlist: loaded.design.netlist,
                    identity: Some(loaded.identity),
                };
                setup.add(input, [job]);
            }
            setup.load_s = load_start.elapsed().as_secs_f64();
            let (groups, per_group) = if smoke { (16, 8) } else { (256, 8) };
            let (synthetic, properties) = grouped_synthetic(groups, per_group);
            let expect = synthetic_expect(properties.len(), per_group, Outcome::Proved);
            let job = Job::built(setup.inputs.len(), EngineKind::PlainMc, properties, expect);
            setup.add(generated(synthetic), [job]);
        }
    }
    Ok(setup)
}

/// Verdicts of `grouped_synthetic`'s properties: per counter, detectors
/// falsified at their values 1, 2, ..., then a watchdog that never fires.
fn synthetic_expect(properties: usize, per_group: usize, watchdog: Outcome) -> Vec<Outcome> {
    (0..properties)
        .map(|i| match i % per_group {
            v if v + 1 < per_group => Outcome::Falsified(v + 1),
            _ => watchdog.clone(),
        })
        .collect()
}
