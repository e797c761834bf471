//! SMARTS-style sampled execution: interleave cheap functional fast-forward
//! phases with cycle-accurate measurement windows and extrapolate whole-run
//! metrics with per-metric confidence intervals from the between-window
//! variance.
//!
//! One sampling unit is `skip → ff → warm → measure → drain`:
//!
//! 1. **skip** `skip_instructions` per thread at raw trace speed (warm state
//!    frozen, nothing updated — the cheap phase that makes large budgets
//!    tractable; zero for full SMARTS-style functional warming);
//! 2. **fast-forward** `ff_instructions` per thread functionally (trace
//!    consumed, warm state hot, no cycles — the `fast_forward` pipeline
//!    module);
//! 3. **warm** `warm_instructions` per thread in detailed mode to re-fill the
//!    short-lived pipeline state (window occupancy, in-flight misses) the
//!    functional path does not model; statistics reset at the end;
//! 4. **measure** a detailed window until any thread commits
//!    `measure_instructions` (the paper's stop criterion at window scale),
//!    recording the window's cycle count and per-thread committed
//!    instructions;
//! 5. **drain** with fetch frozen until the pipeline is empty, so the next
//!    fast-forward starts from a sound boundary.

use smt_types::{MetricEstimate, SampledEstimate, SamplingConfig, SimError};

use super::{SimOptions, SmtSimulator};

/// Safety multiplier bounding the cycles one detailed phase may take per
/// instruction: generous enough for the most memory-bound workload (CPI well
/// under 1000) while still guaranteeing termination.
const MAX_CYCLES_PER_INSTRUCTION: u64 = 1_000;

/// Hard bound on the cycles a drain may take: the slowest in-flight miss
/// resolves in well under this.
const MAX_DRAIN_CYCLES: u64 = 1_000_000;

/// The result of a sampled run: the extrapolated estimate plus the raw
/// per-window counts, from which callers derive ratio estimates of compound
/// metrics (STP, ANTT) without re-introducing per-window ratio bias.
#[derive(Clone, PartialEq, Debug)]
pub struct SampledRun {
    /// Extrapolated IPC estimates with confidence intervals.
    pub estimate: SampledEstimate,
    /// Detailed cycles spent in each measurement window.
    pub window_cycles: Vec<u64>,
    /// Instructions committed per thread in each measurement window (outer
    /// index: window; inner index: thread).
    pub window_thread_committed: Vec<Vec<u64>>,
}

impl SmtSimulator {
    /// Freezes or unfreezes the fetch stage (used by the sampled loop's drain;
    /// exposed for tests).
    pub fn freeze_fetch(&mut self, frozen: bool) {
        self.core.fetch_frozen = frozen;
        self.core.wake();
    }

    /// Runs with fetch frozen until the pipeline holds no in-flight work (all
    /// windows empty, completion queue empty, write buffer drained), then
    /// unfreezes fetch. Returns whether the pipeline fully drained within the
    /// safety cycle bound.
    pub fn drain_pipeline(&mut self) -> bool {
        self.freeze_fetch(true);
        let limit = self.core.cycle() + MAX_DRAIN_CYCLES;
        while !self.core.is_drained() && self.core.cycle() < limit {
            self.step();
        }
        self.freeze_fetch(false);
        self.core.is_drained()
    }

    /// Runs the workload in sampled mode and returns extrapolated IPC
    /// estimates with 95% confidence intervals.
    ///
    /// `options.max_instructions_per_thread` is the total per-thread
    /// instruction budget (as in [`SmtSimulator::run`]); the number of
    /// sampling units is the budget divided by
    /// [`SamplingConfig::unit_instructions`], floored at
    /// `sampling.min_windows`. `options.warmup_instructions_per_thread` is
    /// ignored — the fast-forward phases replace the monolithic warm-up.
    /// `options.max_cycles` caps total detailed cycles as usual.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `sampling` does not validate.
    pub fn run_sampled(
        &mut self,
        options: SimOptions,
        sampling: &SamplingConfig,
    ) -> Result<SampledRun, SimError> {
        sampling.validate()?;
        let num_threads = self.config().num_threads;
        let unit = sampling.unit_instructions();
        let units = options
            .max_instructions_per_thread
            .div_ceil(unit)
            .max(u64::from(sampling.min_windows));

        // analyze: allow(hot-path-alloc) reason="window accumulators, once per run"
        let mut window_cycles: Vec<u64> = Vec::new();
        // analyze: allow(hot-path-alloc) reason="window accumulators, once per run"
        let mut window_thread_committed: Vec<Vec<u64>> = Vec::new();

        for _ in 0..units {
            if self.core.cycle() >= options.max_cycles {
                break;
            }
            if sampling.skip_instructions > 0 {
                self.skip_forward(sampling.skip_instructions);
            }
            self.fast_forward(sampling.ff_instructions);

            // Detailed warm-up: re-fills the transient pipeline state the
            // functional path does not model; resets statistics at the end.
            let warm_cap = options.max_cycles.min(
                self.core.cycle()
                    + sampling.warm_instructions * MAX_CYCLES_PER_INSTRUCTION
                    + MAX_DRAIN_CYCLES,
            );
            self.warm_up(sampling.warm_instructions, warm_cap);
            self.reset_stats();

            // Measurement window: the paper's any-thread stop criterion at
            // window scale.
            // analyze: allow(hot-path-alloc) reason="once per measurement window, not per cycle"
            let baselines: Vec<u64> = self.core.committed().collect();
            let measure_cap = options.max_cycles.min(
                self.core.cycle()
                    + sampling.measure_instructions * MAX_CYCLES_PER_INSTRUCTION
                    + MAX_DRAIN_CYCLES,
            );
            while self.core.cycle() < measure_cap {
                if self
                    .core
                    .committed()
                    .zip(&baselines)
                    .any(|(committed, &base)| committed - base >= sampling.measure_instructions)
                {
                    break;
                }
                self.step();
            }
            let cycles = self.measured_cycles();
            if cycles > 0 {
                let stats = self.stats();
                window_cycles.push(cycles);
                window_thread_committed.push(
                    stats
                        .threads
                        .iter()
                        .map(|t| t.committed_instructions)
                        // analyze: allow(hot-path-alloc) reason="once per measurement window, not per cycle"
                        .collect(),
                );
            }

            // Drain so the next fast-forward starts from a sound boundary.
            self.drain_pipeline();
        }

        // Ratio estimates (Σ committed / Σ cycles): equal weight per cycle,
        // matching what an exact run measures. Averaging per-window IPCs
        // instead would over-weight lucky fast windows (see
        // [`MetricEstimate::from_ratio`]).
        let per_thread_ipc = (0..num_threads)
            .map(|ti| {
                let pairs: Vec<(f64, f64)> = window_thread_committed
                    .iter()
                    .zip(&window_cycles)
                    .map(|(w, &c)| (w[ti] as f64, c as f64))
                    // analyze: allow(hot-path-alloc) reason="once per thread at estimate assembly, not per cycle"
                    .collect();
                MetricEstimate::from_ratio(&pairs)
            })
            // analyze: allow(hot-path-alloc) reason="once per run at estimate assembly, not per cycle"
            .collect();
        let total_pairs: Vec<(f64, f64)> = window_thread_committed
            .iter()
            .zip(&window_cycles)
            .map(|(w, &c)| (w.iter().sum::<u64>() as f64, c as f64))
            // analyze: allow(hot-path-alloc) reason="once per run at estimate assembly, not per cycle"
            .collect();
        let estimate = SampledEstimate {
            windows: window_cycles.len() as u32,
            total_ipc: MetricEstimate::from_ratio(&total_pairs),
            per_thread_ipc,
            detailed_fraction: sampling.detailed_fraction(),
        };
        Ok(SampledRun {
            estimate,
            window_cycles,
            window_thread_committed,
        })
    }
}
