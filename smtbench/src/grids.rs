//! The three registry-grid workloads, run through the experiment engine.
//!
//! * `policy_grid_4t`: `fig13_four_thread_policies` at the `test` scale.
//! * `chip_grid_4c2t`: `chip_4c2t_allocation_matrix` at the `standard` scale.
//! * `sampled_grid_4t`: `sampled_4t_policies` at the `standard` scale.
//!
//! The untraced run times whole `run_spec_with_threads` calls on
//! [`WORKERS`] engine workers. The traced run times one such call, one
//! serial call, and then replays the grid serially through the runner's
//! public calls under spans, so each layer's self time can be separated.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

use smt_core::chip::ChipSimulator;
use smt_core::experiments::{
    run_spec_with_threads, ExperimentRegistry, ExperimentReport, ExperimentSpec,
};
use smt_core::runner::{
    build_trace, evaluate_chip_workload_with_intensities, evaluate_workload_sampled,
    evaluate_workload_with, mlp_intensity, CheckpointCache, RunScale, StReferenceCache,
};
use smt_core::workloads::Workload;
use smt_core::SmtSimulator;
use smt_types::config::FetchPolicyKind;
use smt_types::{SimError, SmtConfig};

use crate::digest::Digest;
use crate::metrics::{Counters, Metrics, Outcome, Timings};
use crate::spans::{self, Span};
use crate::stats::{percentile, Summary};

/// Engine worker threads of the timed runs.
pub const WORKERS: usize = 2;

/// Engine runs timed before the deadline is checked.
const MIN_REPS: usize = 3;

/// Set-ups timed before each engine run. Spreading them over the whole run
/// exposes them to the same host conditions as the engine runs; the median
/// over all of them is reported.
const SETUPS_PER_REP: usize = 5;

/// One of the registry-grid workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// `fig13_four_thread_policies` at the `test` scale.
    Policy,
    /// `chip_4c2t_allocation_matrix` at the `standard` scale.
    Chip,
    /// `sampled_4t_policies` at the `standard` scale.
    Sampled,
}

impl Grid {
    /// The registry entry the workload runs.
    pub fn registry_name(self) -> &'static str {
        match self {
            Grid::Policy => "fig13_four_thread_policies",
            Grid::Chip => "chip_4c2t_allocation_matrix",
            Grid::Sampled => "sampled_4t_policies",
        }
    }

    /// The workload's scale preset with the given trace seed.
    pub fn scale(self, seed: u64) -> RunScale {
        let preset = match self {
            Grid::Policy => RunScale::test(),
            Grid::Chip | Grid::Sampled => RunScale::standard(),
        };
        RunScale { seed, ..preset }
    }
}

/// Looks the grid up in the registry, applies the scale and validates it.
pub fn spec(grid: Grid, scale: RunScale) -> Result<ExperimentSpec, SimError> {
    let registry = ExperimentRegistry::builtin();
    let spec = registry
        .get(grid.registry_name())
        .ok_or_else(|| SimError::internal(format!("no registry entry {}", grid.registry_name())))?
        .clone()
        .with_scale(scale);
    spec.validate()?;
    Ok(spec)
}

fn workloads(spec: &ExperimentSpec) -> Result<Vec<Workload>, SimError> {
    spec.workloads
        .iter()
        .map(|benchmarks| Workload::new(benchmarks.clone()))
        .collect()
}

/// Everything before the first simulated cycle: the registry spec, its
/// validation, the workloads, and the first cell's trace sources and
/// simulator.
pub fn set_up(grid: Grid, scale: RunScale) -> Result<ExperimentSpec, SimError> {
    let spec = spec(grid, scale)?;
    let first = workloads(&spec)?
        .into_iter()
        .next()
        .ok_or_else(|| SimError::invalid_workload("grid has no workloads"))?;
    let traces = first
        .benchmarks
        .iter()
        .map(|b| build_trace(b, scale))
        .collect::<Result<Vec<_>, _>>()?;
    if spec.chip.is_some() {
        let chip = spec.chip_config_for(first.num_threads(), None);
        let per_core = chip.core.num_threads;
        let mut traces = traces.into_iter();
        let per_core_traces = (0..chip.num_cores)
            .map(|_| traces.by_ref().take(per_core).collect())
            .collect();
        black_box(ChipSimulator::new(chip, per_core_traces)?);
    } else {
        let mut config = spec.config_for(first.num_threads(), None);
        config.fetch_policy = spec.policies[0];
        black_box(SmtSimulator::new(config, traces)?);
    }
    Ok(spec)
}

/// The deterministic outputs of one pass over a grid.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GridResult {
    /// One digest per completed cell (STP, ANTT and per-thread IPC bits).
    pub cells: Vec<u64>,
    /// Cells planned.
    pub planned: u64,
    /// Cells that failed or reported a non-finite metric.
    pub bad_cells: u64,
    /// Single-thread reference simulations run.
    pub reference_runs: u64,
    /// Warm checkpoints captured.
    pub captures: u64,
    /// Cells served an already-captured checkpoint.
    pub hits: u64,
}

impl GridResult {
    fn push_cell(&mut self, stp: f64, antt: f64, ipc: &[f64]) {
        if !(stp.is_finite() && antt.is_finite() && ipc.iter().all(|v| v.is_finite())) {
            self.bad_cells += 1;
        }
        self.cells
            .push(Digest::default().f64(stp).f64(antt).f64s(ipc).value());
    }

    /// The run digest: every cell digest plus the reference and checkpoint
    /// counts. The report carries no MLP-probe count, so none is hashed.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &cell in &self.cells {
            d.u64(cell);
        }
        d.u64(self.reference_runs)
            .u64(self.captures)
            .u64(self.hits)
            .value()
    }

    /// Planned cells of this pass that count as failed against `reference`:
    /// its own failed or non-finite cells plus every cell whose digest
    /// differs (all of them when the run-level counts differ).
    pub fn failed_against(&self, reference: &GridResult) -> u64 {
        let differing = if self.digest() == reference.digest() {
            0
        } else if self.cells.len() == reference.cells.len() {
            let cells = self
                .cells
                .iter()
                .zip(&reference.cells)
                .filter(|(a, b)| a != b)
                .count() as u64;
            if cells == 0 {
                self.planned
            } else {
                cells
            }
        } else {
            self.planned
        };
        (self.bad_cells + differing).min(self.planned)
    }
}

/// One `run_spec_with_threads` call: its report reduced to a [`GridResult`],
/// the cells' detailed cycles, and the model's STP gain.
pub struct EngineRun {
    /// The deterministic outputs.
    pub result: GridResult,
    /// Measured-phase cycles the cells simulated in detail, reconstructed
    /// from the report, which carries no cycle counts. A cell ends when its
    /// fastest thread commits the per-thread budget (the paper's stop rule),
    /// so it ran `budget / max IPC` cycles; a sampled cell simulated only
    /// its `detailed_fraction` of those in detail. Warm-up and reference
    /// runs are not counted. It is a constant of the spec and seed, so
    /// `sim_cycles_per_s` on a grid is this constant over `wall_s`.
    pub detailed_cycles: f64,
    /// Harmonic-mean STP of MLP-aware flush over ICOUNT, minus one (0 when
    /// the grid lacks either policy).
    pub stp_gain: f64,
}

/// Runs the grid on `threads` engine workers.
pub fn run_engine(spec: &ExperimentSpec, threads: usize) -> Result<EngineRun, SimError> {
    let report = run_spec_with_threads(spec, threads)?;
    Ok(reduce_report(spec, &report))
}

fn reduce_report(spec: &ExperimentSpec, report: &ExperimentReport) -> EngineRun {
    let health = report.health.as_ref();
    let mut result = GridResult {
        planned: health.map_or(report.policy_cells.len() as u64, |h| h.planned_cells),
        bad_cells: health.map_or(0, |h| h.failed_cells),
        reference_runs: report.reference_runs,
        captures: report.checkpoints.map_or(0, |c| c.captures),
        hits: report.checkpoints.map_or(0, |c| c.hits),
        ..GridResult::default()
    };
    let budget = spec.scale.instructions_per_thread as f64;
    let mut detailed_cycles = 0.0;
    for cell in &report.policy_cells {
        result.push_cell(cell.stp, cell.antt, &cell.per_thread_ipc);
        let fastest = cell.per_thread_ipc.iter().copied().fold(0.0, f64::max);
        let detailed = cell.sampled.as_ref().map_or(1.0, |s| s.detailed_fraction);
        if fastest > 0.0 {
            detailed_cycles += (budget / fastest).round() * detailed;
        }
    }
    let hmean = |policy: FetchPolicyKind| {
        let stps: Vec<f64> = report
            .policy_cells
            .iter()
            .filter(|c| c.policy == policy)
            .map(|c| c.stp)
            .collect();
        stps.len() as f64 / stps.iter().map(|s| 1.0 / s).sum::<f64>()
    };
    let has = |policy| spec.policies.contains(&policy);
    let stp_gain = if has(FetchPolicyKind::Icount) && has(FetchPolicyKind::MlpFlush) {
        hmean(FetchPolicyKind::MlpFlush) / hmean(FetchPolicyKind::Icount) - 1.0
    } else {
        0.0
    };
    EngineRun {
        result,
        detailed_cycles,
        stp_gain,
    }
}

fn distinct_benchmarks(spec: &ExperimentSpec) -> BTreeSet<&str> {
    spec.workloads
        .iter()
        .flatten()
        .map(String::as_str)
        .collect()
}

/// The untraced run: [`SETUPS_PER_REP`] set-ups, one whole engine run on
/// [`WORKERS`] workers and the calibration kernel on as many threads, back
/// to back until `seconds` have passed.
pub fn run(grid: Grid, seed: u64, seconds: f64) -> Result<Outcome, SimError> {
    let scale = grid.scale(seed);
    let began = Instant::now();
    let mut timings = Timings::new(WORKERS);
    let mut outcome = Outcome::default();
    let mut first: Option<GridResult> = None;
    while timings.reps() < MIN_REPS || timings.fits(began, seconds) {
        let rep_began = Instant::now();
        let mut setups = [0.0; SETUPS_PER_REP];
        let mut spec = None;
        for setup in &mut setups {
            let t = Instant::now();
            spec = Some(set_up(grid, scale)?);
            *setup = t.elapsed().as_secs_f64();
        }
        let spec = spec.expect("set-up ran");
        let t = Instant::now();
        let run = run_engine(&spec, WORKERS)?;
        timings.finish_rep(
            rep_began,
            &setups,
            t.elapsed().as_secs_f64(),
            run.detailed_cycles,
        )?;
        let reference = first.get_or_insert_with(|| run.result.clone());
        outcome.attempted += run.result.planned;
        outcome.failed += run.result.failed_against(reference);
    }
    let first = first.expect("engine ran");
    outcome.digest = first.digest();
    outcome.record_timings(&timings);
    outcome.notes.push(format!(
        "grid: {} at {} instructions/thread, seed {seed}, {} cells on {WORKERS} engine workers; \
         sim_cycles_per_s is the cells' detailed cycles (reconstructed from the report, \
         warm-up and references excluded) over wall_s",
        grid.registry_name(),
        scale.instructions_per_thread,
        first.planned
    ));
    Ok(outcome)
}

/// What the serial replay measured besides its [`GridResult`].
#[derive(Default)]
struct Replay {
    result: GridResult,
    /// MLP-intensity probes run.
    probes: u64,
    counters: Counters,
    chip_cycles: u64,
    core_cycles: u64,
    windows: u64,
    detailed_fraction: Vec<f64>,
    /// Sampled grids: total-IPC estimate of each workload's cell under the
    /// first policy, for the sampling-layer probes to match.
    first_policy_ipc: Vec<f64>,
}

/// One `st_cpi` per benchmark of a cell, each under a `runner.st_reference`
/// span. The first touch of a reference runs it; later touches are cache
/// lookups, so first touches dominate the span time.
fn touch_references(
    cache: &StReferenceCache,
    benchmarks: &[String],
    config: &SmtConfig,
    scale: RunScale,
) -> Result<(), SimError> {
    for benchmark in benchmarks {
        let _span = spans::enter("runner.st_reference");
        cache.st_cpi(benchmark, config, scale, 1)?;
    }
    Ok(())
}

/// Replays the grid serially, cell by cell in the engine's order, through
/// the runner's public calls: reference touches, MLP-intensity probes,
/// checkpoint requests and one `runner.cell` span per evaluation.
fn replay(spec: &ExperimentSpec) -> Result<Replay, SimError> {
    let workloads = workloads(spec)?;
    let scale = spec.scale;
    let cache = StReferenceCache::new();
    let checkpoints = CheckpointCache::new();
    let points = spec.sweep_points();
    let mut out = Replay::default();
    if let Some(chip) = &spec.chip {
        let probe_config = spec.config_for(1, None);
        let mut intensities = HashMap::new();
        for benchmark in distinct_benchmarks(spec) {
            let _span = spans::enter("runner.mlp_probe");
            intensities.insert(
                benchmark,
                mlp_intensity(benchmark, &probe_config, scale.seed)?,
            );
            out.probes += 1;
        }
        for &point in &points {
            for &policy in &spec.policies {
                for &allocation in &chip.allocations {
                    for workload in &workloads {
                        let chip_config = spec.chip_config_for(workload.num_threads(), point);
                        let mut st_config = chip_config.core.clone();
                        st_config.l3 = chip_config.shared_llc;
                        touch_references(&cache, &workload.benchmarks, &st_config, scale)?;
                        let thread_intensities: Vec<f64> = workload
                            .benchmarks
                            .iter()
                            .map(|b| intensities[b.as_str()])
                            .collect();
                        let r = {
                            let _span = spans::enter("runner.cell");
                            evaluate_chip_workload_with_intensities(
                                &workload.benchmarks,
                                &thread_intensities,
                                policy,
                                allocation,
                                &chip_config,
                                scale,
                                &cache,
                            )?
                        };
                        out.result.push_cell(r.stp, r.antt, &r.per_thread_ipc);
                        r.chip_stats
                            .cores
                            .iter()
                            .for_each(|core| out.counters.add(core));
                        out.chip_cycles += r.chip_stats.cycles;
                        out.core_cycles += r.chip_stats.cycles * r.chip_stats.cores.len() as u64;
                    }
                }
            }
        }
    } else {
        let sampling = spec.sampling.as_ref().map(|s| s.config());
        // `warmed` calls of the replay itself, each also counted as a hit or
        // capture by the cache; the engine makes none of them.
        let mut own_requests = 0;
        for &point in &points {
            for (policy_index, &policy) in spec.policies.iter().enumerate() {
                for workload in &workloads {
                    let config = spec.config_for(workload.num_threads(), point);
                    touch_references(&cache, &workload.benchmarks, &config, scale)?;
                    let Some(sampling) = &sampling else {
                        let r = {
                            let _span = spans::enter("runner.cell");
                            evaluate_workload_with(
                                &workload.benchmarks,
                                policy,
                                &config,
                                scale,
                                &cache,
                            )?
                        };
                        out.result.push_cell(r.stp, r.antt, &r.per_thread_ipc);
                        out.counters.add(&r.mt_stats);
                        continue;
                    };
                    let names: Vec<&str> = workload.benchmarks.iter().map(String::as_str).collect();
                    {
                        let _span = spans::enter("runner.checkpoint_capture");
                        checkpoints.warmed(&names, &config, scale)?;
                        own_requests += 1;
                    }
                    let r = {
                        let _span = spans::enter("runner.cell");
                        evaluate_workload_sampled(
                            &workload.benchmarks,
                            policy,
                            &config,
                            scale,
                            sampling,
                            &cache,
                            &checkpoints,
                        )?
                    };
                    let ipc: Vec<f64> = r.per_thread_ipc.iter().map(|e| e.mean).collect();
                    out.result.push_cell(r.stp.mean, r.antt.mean, &ipc);
                    out.windows += u64::from(r.windows);
                    out.detailed_fraction.push(r.detailed_fraction);
                    if policy_index == 0 && point == points[0] {
                        out.first_policy_ipc.push(r.total_ipc.mean);
                    }
                }
            }
        }
        out.result.captures = checkpoints.captures();
        out.result.hits = checkpoints.hits() - own_requests;
    }
    out.result.planned = out.result.cells.len() as u64;
    out.result.reference_runs = cache.reference_runs();
    Ok(out)
}

/// Sampling- and checkpoint-layer probes of a sampled grid: for each
/// workload under the first policy, `fast_forward` over the warm prefix,
/// `checkpoint`, `restore_checkpoint` into a fresh simulator and
/// `run_sampled`, each under its own span. Returns how many probes
/// disagreed with the replayed cell's total-IPC estimate.
fn sampling_probes(spec: &ExperimentSpec, expected_ipc: &[f64]) -> Result<u64, SimError> {
    let sampling = spec
        .sampling
        .as_ref()
        .map(|s| s.config())
        .ok_or_else(|| SimError::internal("sampled grid without sampling parameters"))?;
    let scale = spec.scale;
    let mut mismatches = 0;
    for (workload, &expected) in workloads(spec)?.iter().zip(expected_ipc) {
        let traces = || {
            workload
                .benchmarks
                .iter()
                .map(|b| build_trace(b, scale))
                .collect::<Result<Vec<_>, _>>()
        };
        let mut warm_config = spec.config_for(workload.num_threads(), None);
        warm_config.fetch_policy = FetchPolicyKind::Icount;
        let mut warm = SmtSimulator::new(warm_config.clone(), traces()?)?;
        {
            let _span = spans::enter("sampling.fast_forward");
            warm.fast_forward(scale.warmup_instructions);
        }
        let checkpoint = {
            let _span = spans::enter("checkpoint.capture");
            warm.checkpoint(scale.seed)?
        };
        let mut config = warm_config;
        config.fetch_policy = spec.policies[0];
        let mut sim = SmtSimulator::new(config, traces()?)?;
        {
            let _span = spans::enter("checkpoint.restore");
            sim.restore_checkpoint(&checkpoint)?;
        }
        let run = {
            let _span = spans::enter("sampling.run_sampled");
            sim.run_sampled(scale.sim_options(), &sampling)?
        };
        if run.estimate.total_ipc.mean.to_bits() != expected.to_bits() {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// The traced run, [`TRACED_PASSES`] times over: one untraced engine run
/// on [`WORKERS`] workers, one serial engine run, and the serial replay
/// under spans; then (sampled grid) the sampling-layer probes. Every pass
/// must produce the same digest. Host-time metrics come from the fastest
/// pass of each kind, which is the one least disturbed by other load.
pub fn run_traced(grid: Grid, seed: u64) -> Result<Outcome, SimError> {
    let spec = set_up(grid, grid.scale(seed))?;
    traced(&spec)
}

/// Passes of each kind in the traced run.
const TRACED_PASSES: usize = 2;

/// [`run_traced`] on an explicit spec.
pub fn traced(spec: &ExperimentSpec) -> Result<Outcome, SimError> {
    spans::start();
    let root = spans::enter("traced_run");
    let timed = |name: &'static str, threads: usize| -> Result<(f64, EngineRun), SimError> {
        let _span = spans::enter(name);
        let t = Instant::now();
        let run = run_engine(spec, threads)?;
        Ok((t.elapsed().as_secs_f64(), run))
    };
    let (mut parallel, mut serial, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACED_PASSES {
        parallel.push(timed("engine.run_spec", WORKERS)?);
        serial.push(timed("engine.run_spec_serial", 1)?);
        let _span = spans::enter("replay");
        replays.push(replay(spec)?);
    }
    let probe_mismatches = if spec.sampling.is_some() {
        let _span = spans::enter("probes");
        sampling_probes(spec, &replays[0].first_policy_ipc)?
    } else {
        0
    };
    drop(root);
    let spans = spans::finish();

    let reference = &parallel[0].1.result;
    let mut outcome = Outcome {
        metrics: Metrics::per_layer(),
        digest: reference.digest(),
        ..Outcome::default()
    };
    let passes = parallel.iter().chain(&serial).map(|(_, run)| &run.result);
    for pass in passes.chain(replays.iter().map(|r| &r.result)) {
        outcome.attempted += pass.planned;
        outcome.failed += pass.failed_against(reference);
    }
    outcome.attempted += replays[0].first_policy_ipc.len() as u64;
    outcome.failed += probe_mismatches;

    let fastest =
        |passes: &[(f64, EngineRun)]| passes.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let (parallel_wall, serial_wall) = (fastest(&parallel), fastest(&serial));
    let subtrees = |name: &str| -> Vec<Vec<Span>> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| spans::subtree(&spans, i))
            .collect()
    };
    let replay_spans = subtrees("replay");
    let best = (0..replay_spans.len())
        .min_by_key(|&k| replay_spans[k][0].duration_ns())
        .expect("the replay ran");
    let best_spans = &replay_spans[best];
    let replay_wall = best_spans[0].duration_ns() as f64 * 1e-9;
    let runner_s = runner_ns(best_spans) as f64 * 1e-9;
    let m = &mut outcome.metrics;
    record_traced(m, spec, &spans, best_spans, &replays[best]);
    m.set("model.stp_gain_mlpflush_vs_icount", parallel[0].1.stp_gain);
    m.set(
        "engine.parallel_efficiency",
        runner_s / (WORKERS as f64 * parallel_wall),
    );
    m.set("engine.self_s", serial_wall - runner_s);
    m.set("tracing.overhead", replay_wall / serial_wall - 1.0);
    // The traced passes are the replays and the sampling probes; the engine
    // passes around them are timed whole and attribute nothing inside.
    let traced_passes = [replay_spans.clone(), subtrees("probes")].concat();
    let traced_ns: u64 = traced_passes.iter().map(|t| t[0].duration_ns()).sum();
    let unattributed_ns: u64 = traced_passes
        .iter()
        .map(|t| spans::unattributed_ns(t, t[0].duration_ns()))
        .sum();
    m.set(
        "tracing.unattributed_share",
        unattributed_ns as f64 / traced_ns.max(1) as f64,
    );
    let list = |walls: &mut dyn Iterator<Item = f64>| {
        walls
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join("/")
    };
    outcome.notes.push(format!(
        "traced: {TRACED_PASSES} passes each, in s: engine on {WORKERS} workers {}, engine serial {}, \
         serial replay {}; {} spans",
        list(&mut parallel.iter().map(|p| p.0)),
        list(&mut serial.iter().map(|p| p.0)),
        list(&mut replay_spans.iter().map(|s| s[0].duration_ns() as f64 * 1e-9)),
        spans.len()
    ));
    Ok(outcome)
}

/// Host time inside the runner's public calls.
fn runner_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.layer() == Some("runner"))
        .map(Span::duration_ns)
        .sum()
}

/// Per-layer metrics of a grid: runner and engine figures from the fastest
/// replay's spans (`best`), sampling-probe figures from the whole recording
/// (`all`).
fn record_traced(
    m: &mut Metrics,
    spec: &ExperimentSpec,
    all: &[Span],
    best: &[Span],
    replayed: &Replay,
) {
    let seconds = |name| spans::total_ns(best, name) as f64 * 1e-9;
    let mean = |name| {
        let d = spans::durations(all, name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
    };
    let cells = spans::durations(best, "runner.cell");
    let cell_ns: u64 = cells.iter().sum();
    m.set("engine.cells", replayed.result.planned as f64);
    m.set("engine.cell_ms_p50", percentile(&cells, 0.5) as f64 * 1e-6);
    m.set(
        "engine.cell_ms_max",
        cells.iter().copied().max().unwrap_or(0) as f64 * 1e-6,
    );
    m.set(
        "runner.st_reference_runs",
        replayed.result.reference_runs as f64,
    );
    m.set("runner.st_reference_s", seconds("runner.st_reference"));
    m.set("runner.mlp_probes", replayed.probes as f64);
    m.set("runner.mlp_probe_s", seconds("runner.mlp_probe"));
    m.set(
        "runner.checkpoint_captures",
        replayed.result.captures as f64,
    );
    m.set("runner.checkpoint_hits", replayed.result.hits as f64);
    m.set(
        "runner.checkpoint_capture_s",
        seconds("runner.checkpoint_capture"),
    );
    m.set("runner.cell_s", cell_ns as f64 * 1e-9);
    if spec.chip.is_some() {
        replayed.counters.record(m);
        m.set("pipeline.sim_cycles", replayed.core_cycles as f64);
        m.set("chip.sim_cycles", replayed.chip_cycles as f64);
        m.set(
            "chip.ns_per_core_cycle",
            cell_ns as f64 / replayed.core_cycles.max(1) as f64,
        );
    } else if spec.sampling.is_some() {
        m.set("sampling.windows", replayed.windows as f64);
        m.set(
            "sampling.detailed_fraction",
            Summary::of(&replayed.detailed_fraction).map_or(0.0, |s| s.median),
        );
        m.set("sampling.run_s", mean("sampling.run_sampled") * 1e-9);
        let threads = spec.workloads.first().map_or(1, Vec::len) as u64;
        let ff_instructions = spec.scale.warmup_instructions
            * threads
            * spans::durations(all, "sampling.fast_forward").len() as u64;
        m.set(
            "sampling.ff_ns_per_instr",
            spans::total_ns(all, "sampling.fast_forward") as f64 / ff_instructions.max(1) as f64,
        );
        m.set("checkpoint.capture_ms", mean("checkpoint.capture") * 1e-6);
        m.set("checkpoint.restore_ms", mean("checkpoint.restore") * 1e-6);
    } else {
        replayed.counters.record(m);
        m.set(
            "pipeline.ns_per_cycle",
            cell_ns as f64 / replayed.counters.cycles().max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid cut to its first workload at the `tiny` scale.
    fn tiny(grid: Grid, seed: u64) -> ExperimentSpec {
        let scale = RunScale {
            seed,
            ..RunScale::tiny()
        };
        set_up(grid, scale).unwrap().with_workload_limit(1)
    }

    #[test]
    fn digests_are_stable_and_traced_replay_matches_the_engine() {
        for grid in [Grid::Policy, Grid::Chip, Grid::Sampled] {
            let spec = tiny(grid, 42);
            let a = run_engine(&spec, WORKERS).unwrap();
            let b = run_engine(&spec, 1).unwrap();
            assert_eq!(
                a.result, b.result,
                "{grid:?}: worker count changed the results"
            );
            assert_eq!(a.result.bad_cells, 0);
            assert!(a.detailed_cycles > 0.0);
            let traced = traced(&spec).unwrap();
            assert_eq!(traced.digest, a.result.digest(), "{grid:?}");
            assert_eq!(
                traced.failed, 0,
                "{grid:?}: replay disagreed with the engine"
            );
            assert!(traced.metrics.non_finite().is_empty());
            assert!(traced.metrics.get("runner.cell_s").unwrap() > 0.0);
            // The reconstructed cycles of exact cells match the cycles the
            // replay's simulations report, up to the fastest thread's
            // overshoot of the budget in its last commit cycles.
            let counted = match grid {
                Grid::Policy => traced.metrics.get("pipeline.sim_cycles"),
                Grid::Chip => traced.metrics.get("chip.sim_cycles"),
                Grid::Sampled => None,
            };
            if let Some(counted) = counted {
                let error = (a.detailed_cycles - counted).abs() / counted;
                assert!(error < 0.01, "{grid:?}: {} vs {counted}", a.detailed_cycles);
            }
            let other = run_engine(&tiny(grid, 43), 1).unwrap();
            assert_ne!(
                other.result.digest(),
                a.result.digest(),
                "{grid:?}: seed ignored"
            );
        }
    }

    #[test]
    fn a_changed_cell_counts_as_failed() {
        let spec = tiny(Grid::Policy, 42);
        let reference = run_engine(&spec, 1).unwrap().result;
        assert_eq!(reference.failed_against(&reference), 0);
        let mut changed = reference.clone();
        changed.cells[0] ^= 1;
        assert_eq!(changed.failed_against(&reference), 1);
        let mut recounted = reference.clone();
        recounted.reference_runs += 1;
        assert_eq!(recounted.failed_against(&reference), reference.planned);
    }
}
