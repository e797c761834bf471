//! `exact_4t_mix`: one exact four-thread ICOUNT simulation of
//! mcf/swim/perlbmk/mesa at the `full` scale, with the benchmark owning the
//! `SmtSimulator::step` loop. Only the pipeline, memory, predictor,
//! fetch-policy and trace layers work here; the experiment engine and runner
//! do none.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smt_core::runner::{build_trace, RunScale};
use smt_core::SmtSimulator;
use smt_mem::{SetAssocCache, TlbFile};
use smt_predictors::MlpDistancePredictor;
use smt_trace::{TraceSource, TraceSourceState};
use smt_types::config::FetchPolicyKind;
use smt_types::op::{OpKind, TraceOp};
use smt_types::{MachineStats, SimError, SmtConfig};

use crate::digest::Digest;
use crate::metrics::{Counters, Metrics, Outcome, Timings};
use crate::spans::{self, Span};
use crate::stats::{percentile, Summary};

/// The co-scheduled benchmarks, one per hardware thread.
pub const BENCHMARKS: [&str; 4] = ["mcf", "swim", "perlbmk", "mesa"];

/// Simulations timed before the deadline is checked.
const MIN_REPS: usize = 3;

/// The traced run times one `step()` in this many.
const STEP_SAMPLE_EVERY: u64 = 64;

/// Untraced and traced repetitions of the traced run.
const TRACED_REPS: usize = 3;

/// Replay passes per layer microbenchmark; the median pass is reported.
const REPLAY_PASSES: usize = 5;

/// The workload's scale: the `full` preset (150K instructions per thread
/// after a 20K warm-up) with the given trace seed.
pub fn scale(seed: u64) -> RunScale {
    RunScale {
        seed,
        ..RunScale::full()
    }
}

/// The machine: the four-thread baseline under ICOUNT, exactly as
/// `runner::run_multiprogram` configures it.
fn config() -> SmtConfig {
    let mut config = SmtConfig::baseline(BENCHMARKS.len());
    config.fetch_policy = FetchPolicyKind::Icount;
    config
}

/// Builds the trace sources (wrapped in a [`Tap`] when `tap` is given) and
/// the simulator.
pub fn build(scale: RunScale, tap: Option<&Arc<Mutex<TapLog>>>) -> Result<SmtSimulator, SimError> {
    let mut traces = Vec::with_capacity(BENCHMARKS.len());
    for (thread, benchmark) in BENCHMARKS.iter().enumerate() {
        let inner = build_trace(benchmark, scale)?;
        traces.push(match tap {
            Some(log) => Box::new(Tap {
                inner,
                thread,
                log: Arc::clone(log),
            }) as Box<dyn TraceSource>,
            None => inner,
        });
    }
    SmtSimulator::new(config(), traces)
}

/// The measured phase: steps until any thread commits the instruction
/// budget (the paper's stop rule, as in `SmtSimulator::run`) or the cycle
/// cap, and returns its statistics with the measured cycle count.
pub fn measure(
    sim: &mut SmtSimulator,
    scale: RunScale,
    mut step: impl FnMut(&mut SmtSimulator),
) -> MachineStats {
    let budget = scale.instructions_per_thread;
    let max_cycles = scale.sim_options().max_cycles;
    while sim.cycle() < max_cycles
        && sim
            .stats()
            .threads
            .iter()
            .all(|t| t.committed_instructions < budget)
    {
        step(sim);
    }
    let mut stats = sim.stats().clone();
    stats.cycles = sim.measured_cycles();
    stats
}

/// Warm-up plus measured phase, untraced.
pub fn simulate(sim: &mut SmtSimulator, scale: RunScale) -> MachineStats {
    sim.warm_up(scale.warmup_instructions, scale.sim_options().max_cycles);
    measure(sim, scale, SmtSimulator::step)
}

/// Digest of a run's statistics (every counter of every thread).
pub fn digest(stats: &MachineStats) -> u64 {
    let json = serde_json::to_string(stats).expect("machine statistics serialize");
    Digest::default().bytes(json.as_bytes()).value()
}

/// Whether a finished run honoured its budget (it did not stop on the cap).
fn completed(stats: &MachineStats, scale: RunScale) -> bool {
    stats
        .threads
        .iter()
        .any(|t| t.committed_instructions >= scale.instructions_per_thread)
}

/// One load of the traced op stream.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    thread: usize,
    pc: u64,
    addr: u64,
}

/// What the [`Tap`]s of one simulator observed.
#[derive(Debug, Default)]
pub struct TapLog {
    /// Ops handed to the pipeline, all threads.
    pub ops: u64,
    /// Every load handed to the pipeline, in per-thread stream order.
    pub loads: Vec<Load>,
}

/// A forwarding [`TraceSource`]: hands the pipeline exactly the wrapped
/// source's ops, timing each pull as a `trace.refill` span and logging the
/// ops outside the span.
pub struct Tap {
    inner: Box<dyn TraceSource>,
    thread: usize,
    log: Arc<Mutex<TapLog>>,
}

impl Tap {
    fn observe(&self, ops: &[TraceOp]) {
        let mut log = self
            .log
            .lock()
            .expect("no thread panics holding the tap log");
        log.ops += ops.len() as u64;
        for op in ops {
            if let (OpKind::Load, Some(mem)) = (op.kind, op.mem) {
                log.loads.push(Load {
                    thread: self.thread,
                    pc: op.pc,
                    addr: mem.addr,
                });
            }
        }
    }
}

impl TraceSource for Tap {
    fn next_op(&mut self) -> TraceOp {
        let op = {
            let _span = spans::enter("trace.refill");
            self.inner.next_op()
        };
        self.observe(std::slice::from_ref(&op));
        op
    }

    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        let start = buf.len();
        {
            let _span = spans::enter("trace.refill");
            self.inner.refill(buf, n);
        }
        self.observe(&buf[start..]);
    }

    fn skip(&mut self, n: u64) {
        self.inner.skip(n);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self) -> Option<TraceSourceState> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &TraceSourceState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// The untraced run: whole simulations (set-up, warm-up, measured phase),
/// each followed by the calibration kernel on one thread, back to back
/// until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, SimError> {
    let scale = scale(seed);
    let began = Instant::now();
    let mut timings = Timings::new(1);
    let mut outcome = Outcome::default();
    let mut first_digest = None;
    while timings.reps() < MIN_REPS || timings.fits(began, seconds) {
        let t0 = Instant::now();
        let mut sim = build(scale, None)?;
        let t1 = Instant::now();
        let stats = simulate(&mut sim, scale);
        let t2 = Instant::now();
        timings.finish_rep(
            t0,
            &[(t1 - t0).as_secs_f64()],
            (t2 - t1).as_secs_f64(),
            sim.cycle() as f64,
        )?;
        let d = digest(&stats);
        outcome.attempted += 1;
        if !completed(&stats, scale) || *first_digest.get_or_insert(d) != d {
            outcome.failed += 1;
        }
    }
    outcome.digest = first_digest.unwrap_or_default();
    outcome.record_timings(&timings);
    outcome.notes.push(format!(
        "scale: {} instructions/thread after a {}-instruction warm-up, seed {seed}",
        scale.instructions_per_thread, scale.warmup_instructions
    ));
    Ok(outcome)
}

/// The traced run: [`TRACED_REPS`] untraced simulations for the overhead
/// baseline, then as many traced ones (spans around `SmtSimulator::new`,
/// `warm_up`, one `step()` in [`STEP_SAMPLE_EVERY`] and every trace
/// `refill`), then the memory and predictor layers timed on the traced op
/// stream.
pub fn run_traced(seed: u64) -> Result<Outcome, SimError> {
    let scale = scale(seed);
    let mut outcome = Outcome {
        metrics: Metrics::per_layer(),
        ..Outcome::default()
    };
    let mut untraced_wall = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..TRACED_REPS {
        let mut sim = build(scale, None)?;
        let t = Instant::now();
        let stats = simulate(&mut sim, scale);
        untraced_wall.push(t.elapsed().as_secs_f64());
        digests.push((digest(&stats), completed(&stats, scale)));
    }

    spans::start();
    let root = spans::enter("traced_run");
    let mut traced_wall = Vec::new();
    let mut counters = Counters::default();
    let (mut total_cycles, mut total_ops, mut measured_ops) = (0u64, 0u64, 0u64);
    let mut loads = Vec::new();
    for _ in 0..TRACED_REPS {
        let log = Arc::new(Mutex::new(TapLog::default()));
        let mut sim = {
            let _span = spans::enter("pipeline.new");
            build(scale, Some(&log))?
        };
        let t = Instant::now();
        {
            let _span = spans::enter("pipeline.warm_up");
            sim.warm_up(scale.warmup_instructions, scale.sim_options().max_cycles);
        }
        let ops_after_warm_up = log
            .lock()
            .expect("no thread panics holding the tap log")
            .ops;
        let mut cycle = 0u64;
        let stats = {
            let _span = spans::enter("pipeline.run");
            measure(&mut sim, scale, |sim| {
                cycle += 1;
                if cycle.is_multiple_of(STEP_SAMPLE_EVERY) {
                    let _span = spans::enter("pipeline.step");
                    sim.step();
                } else {
                    sim.step();
                }
            })
        };
        traced_wall.push(t.elapsed().as_secs_f64());
        digests.push((digest(&stats), completed(&stats, scale)));
        counters.add(&stats);
        total_cycles += sim.cycle();
        let mut log = log.lock().expect("no thread panics holding the tap log");
        total_ops += log.ops;
        measured_ops += log.ops - ops_after_warm_up;
        loads = std::mem::take(&mut log.loads);
    }
    let replay = replay_layers(&loads);
    drop(root);
    let spans = spans::finish();

    outcome.attempted = digests.len() as u64;
    outcome.digest = digests[0].0;
    outcome.failed = digests
        .iter()
        .filter(|&&(d, ok)| !ok || d != outcome.digest)
        .count() as u64;
    let m = &mut outcome.metrics;
    counters.record(m);
    record_pipeline_spans(m, &spans, total_cycles);
    m.set(
        "trace.refill_ns_per_op",
        spans::total_ns(&spans, "trace.refill") as f64 / total_ops.max(1) as f64,
    );
    m.set(
        "trace.ops_per_commit",
        measured_ops as f64 / counters.committed().max(1) as f64,
    );
    m.set("mem.l1d_access_ns", replay.l1d_ns);
    m.set("mem.dtlb_access_ns", replay.dtlb_ns);
    m.set("predictors.mlp_distance_ns", replay.mlp_distance_ns);
    // The fastest repetition of each kind is the least disturbed by other load.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    m.set(
        "tracing.overhead",
        fastest(&traced_wall) / fastest(&untraced_wall) - 1.0,
    );
    let root_ns = spans
        .iter()
        .find(|s| s.name == "traced_run")
        .map_or(0, Span::duration_ns);
    m.set(
        "tracing.unattributed_share",
        spans::unattributed_share(&spans, root_ns),
    );
    outcome.notes.push(format!(
        "traced: {TRACED_REPS} untraced + {TRACED_REPS} traced simulations, {} spans, \
         {} loads replayed",
        spans.len(),
        loads.len()
    ));
    Ok(outcome)
}

/// Pipeline metrics from the traced run's spans: pipeline self time per
/// simulated cycle (trace refills inside steps excluded), the sampled
/// `step()` percentiles, and the warm-up time per simulation.
fn record_pipeline_spans(m: &mut Metrics, spans: &[Span], total_cycles: u64) {
    let pipeline_ns = spans::layer_self_ns(spans)
        .get("pipeline")
        .copied()
        .unwrap_or(0)
        - spans::total_ns(spans, "pipeline.new");
    m.set(
        "pipeline.ns_per_cycle",
        pipeline_ns as f64 / total_cycles.max(1) as f64,
    );
    let steps = spans::durations(spans, "pipeline.step");
    m.set("pipeline.step_ns_p50", percentile(&steps, 0.50) as f64);
    m.set("pipeline.step_ns_p99", percentile(&steps, 0.99) as f64);
    let warm_ups = spans::durations(spans, "pipeline.warm_up");
    m.set(
        "pipeline.warm_up_s",
        warm_ups.iter().sum::<u64>() as f64 / warm_ups.len().max(1) as f64 * 1e-9,
    );
}

/// Per-access times of the memory and predictor layers on the traced loads.
struct ReplayTimes {
    l1d_ns: f64,
    dtlb_ns: f64,
    mlp_distance_ns: f64,
}

/// Replays `loads` through a fresh L1D (`SetAssocCache` access, fill on
/// miss), a fresh DTLB file (`TlbFile`) and a fresh MLP-distance predictor
/// (predict, then train), each under its own span. Each layer runs
/// [`REPLAY_PASSES`] times; the median pass is reported.
fn replay_layers(loads: &[Load]) -> ReplayTimes {
    let config = config();
    let per_access = |name: &'static str, pass: &mut dyn FnMut() -> u64| -> f64 {
        let times: Vec<f64> = (0..REPLAY_PASSES)
            .map(|_| {
                let _span = spans::enter(name);
                let t = Instant::now();
                black_box(pass());
                t.elapsed().as_nanos() as f64 / loads.len().max(1) as f64
            })
            .collect();
        Summary::of(&times).map_or(0.0, |s| s.median)
    };
    let l1d_ns = per_access("mem.replay_l1d", &mut || {
        let mut cache = SetAssocCache::new(&config.l1d);
        for load in loads {
            if !cache.access(load.addr) {
                cache.fill(load.addr);
            }
        }
        cache.misses()
    });
    let dtlb_ns = per_access("mem.replay_dtlb", &mut || {
        let mut tlbs = TlbFile::new(&config.dtlb, BENCHMARKS.len());
        for load in loads {
            tlbs.access(load.thread, load.addr);
        }
        tlbs.misses()
    });
    let max_distance = config.llsr_length();
    let mlp_distance_ns = per_access("predictors.replay_mlp_distance", &mut || {
        let mut predictor = MlpDistancePredictor::new(config.mlp_predictor_entries, max_distance);
        let mut predicted = 0u64;
        for load in loads {
            predicted += u64::from(predictor.predict(load.pc));
            predictor.update(load.pc, ((load.addr >> 6) % u64::from(max_distance)) as u32);
        }
        predicted
    });
    ReplayTimes {
        l1d_ns,
        dtlb_ns,
        mlp_distance_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> RunScale {
        RunScale {
            seed,
            ..RunScale::tiny()
        }
    }

    #[test]
    fn owned_step_loop_matches_simulator_run() {
        let scale = tiny(42);
        let mut owned = build(scale, None).unwrap();
        let ours = simulate(&mut owned, scale);
        let mut reference = build(scale, None).unwrap();
        let theirs = reference.run(scale.sim_options());
        assert_eq!(ours, theirs);
    }

    #[test]
    fn tap_leaves_machine_stats_unchanged() {
        let scale = tiny(7);
        let mut plain = build(scale, None).unwrap();
        let untapped = simulate(&mut plain, scale);
        let log = Arc::new(Mutex::new(TapLog::default()));
        spans::start();
        let mut tapped_sim = build(scale, Some(&log)).unwrap();
        let tapped = simulate(&mut tapped_sim, scale);
        let spans = spans::finish();
        assert_eq!(untapped, tapped);
        assert_eq!(digest(&untapped), digest(&tapped));
        let log = log.lock().unwrap();
        assert!(log.ops > 0 && !log.loads.is_empty());
        assert!(!spans::durations(&spans, "trace.refill").is_empty());
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        let run = |seed| {
            let scale = tiny(seed);
            digest(&simulate(&mut build(scale, None).unwrap(), scale))
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
