//! The cycle-level SMT out-of-order pipeline (the SMTSIM substitute).
//!
//! The simulator is trace driven: each hardware thread pulls [`smt_types::TraceOp`]
//! records from a [`smt_trace::TraceSource`] and moves them through a
//! fetch → (14-stage front end) → dispatch → issue → execute → commit pipeline with
//! the shared resources of Table IV (256-entry ROB, 128-entry LSQ, 64-entry issue
//! queues, 100+100 rename registers, 4-wide everywhere). The fetch stage is driven
//! by an [`smt_fetch::FetchPolicy`]; loads access the [`smt_mem::MemoryHierarchy`];
//! long-latency loads feed the LLSR/MLP predictors of [`smt_predictors`].
//!
//! Per-thread in-flight instructions live in a struct-of-arrays ring buffer
//! ([`window::OpWindow`]) so each pipeline phase streams only the columns it
//! reads; the trace front end is refilled in batches so the `Box<dyn
//! TraceSource>` virtual call is paid once per ~64 fetched instructions.
//!
//! The pipeline is organised one phase per module, in commit-to-fetch order
//! exactly as the per-cycle step runs them:
//!
//! * [`commit_phase`](self) — in-order retirement and LLSR/MLP training,
//! * [`writeback_phase`](self) — event-driven completion (calendar queue)
//!   and dependence wakeup,
//! * [`issue_phase`](self) — ready-instruction selection and memory access,
//! * [`dispatch_phase`](self) — shared-buffer allocation and resource stalls,
//! * [`fetch_phase`](self) — policy-prioritized instruction fetch,
//! * `squash` — branch/flush recovery, `stats` — per-cycle accounting,
//! * [`adaptive`] — the interval-telemetry collector and runtime
//!   fetch-policy switching ([`Core::swap_policy`]).
//!
//! # Cycle cost
//!
//! A simulated cycle costs host time only when the pipeline does something.
//! Every phase raises a progress flag when it commits, completes, issues,
//! dispatches, fetches or squashes anything. A full cycle that raises none
//! leaves the machine exactly as it found it, apart from the per-cycle
//! counters, so the core records the earliest cycle at which something
//! clock-driven can change — the next completion event, a front-end
//! instruction becoming dispatchable, the write buffer's next pending
//! drain, the next adaptive interval boundary — and until then each cycle
//! only replays the accounting ([`Core::quiet_cycles`] counts these). This
//! relies on the fetch-policy contract documented on
//! [`smt_fetch::FetchPolicy`]; every mutation from outside the cycle loop
//! (fetch freezing, fast-forward, checkpoint restore, policy swaps,
//! statistics resets) ends the quiescent stretch. Debug builds run the full
//! phases under every fast-path cycle and assert they agree.

pub mod adaptive;
mod calendar;
pub mod checkpoint;
mod commit_phase;
mod dispatch_phase;
mod fast_forward;
mod fetch_phase;
mod issue_phase;
pub mod sampling;
mod squash;
mod stats;
mod thread;
pub mod window;
mod writeback_phase;

use smt_fetch::{build_policy, FetchPolicy, FlushRequest, ResourceCaps};
use smt_mem::{CoreMemory, SharedLevel, SharedLlc, WriteBuffer};
use smt_trace::TraceSource;
use smt_types::{AdaptiveConfig, MachineStats, SimError, SmtConfig, SmtSnapshot, ThreadId};

use adaptive::AdaptiveState;
use calendar::CompletionQueue;
use stats::SharedTotals;
use thread::ThreadContext;

/// Wheel span of the completion calendar, in cycles: wide enough that a
/// memory-latency miss lands on the wheel directly (under 1% of the
/// completions of the baseline machine are scheduled further out; those
/// wait in the calendar's overflow list).
const COMPLETION_SPAN: usize = 512;

/// Run-length options for a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimOptions {
    /// Stop once any thread has committed this many instructions (the paper stops
    /// at 200 M; the default here is sized for laptop-scale runs).
    pub max_instructions_per_thread: u64,
    /// Instructions each thread commits before measurement starts. The warm-up
    /// phase fills caches, TLBs and predictors (the paper's SimPoints serve the
    /// same purpose) and is excluded from all reported statistics.
    pub warmup_instructions_per_thread: u64,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_instructions_per_thread: 50_000,
            warmup_instructions_per_thread: 5_000,
            max_cycles: 50_000_000,
        }
    }
}

impl SimOptions {
    /// Options that stop after `instructions` committed instructions on any thread,
    /// after a proportional warm-up.
    pub fn with_instructions(instructions: u64) -> Self {
        SimOptions {
            max_instructions_per_thread: instructions,
            warmup_instructions_per_thread: (instructions / 4).clamp(500, 20_000),
            ..Self::default()
        }
    }

    /// Options with an explicit warm-up length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup_instructions_per_thread = warmup;
        self
    }
}

/// One SMT core: the full out-of-order pipeline plus the core-private memory
/// levels, stepping against a [`SharedLlc`] borrowed from its owner.
///
/// The single-core machine ([`SmtSimulator`]) owns one `Core` and one shared
/// level; a chip ([`crate::chip::ChipSimulator`]) owns N cores stepping in
/// lockstep against one shared level. The core never touches anything outside
/// its own state and the borrowed shared level, which is what makes chip
/// results independent of anything but the per-cycle shared-level discipline.
pub struct Core {
    config: SmtConfig,
    policy: Box<dyn FetchPolicy>,
    mem: CoreMemory,
    write_buffer: WriteBuffer,
    threads: Vec<ThreadContext>,
    stats: MachineStats,
    cycle: u64,
    stats_cycle_base: u64,
    rotate: usize,
    frontend_capacity: u32,
    /// Shared-resource occupancy totals, updated at every allocate/release.
    totals: SharedTotals,
    /// Pending execution completions, ordered by completion cycle.
    completions: CompletionQueue,
    /// Set by every phase that commits, completes, issues, dispatches,
    /// fetches or squashes something in the current cycle.
    progress: bool,
    /// Cycles before this one are quiescent: the last full cycle made no
    /// progress and nothing clock-driven changes until then.
    quiet_until: u64,
    /// Threads (bitmask) the fetch policy gated in the last full cycle.
    gated: u64,
    /// Cycles that took the quiescent fast path (host-side diagnostic).
    quiet_cycles: u64,
    /// Debug builds: scratch copy of the statistics the shadow check
    /// compares the full phases against.
    #[cfg(debug_assertions)]
    shadow_stats: MachineStats,
    /// The adaptive policy engine, when enabled: interval telemetry collector
    /// plus the selector that picks the next interval's fetch policy.
    adaptive: Option<AdaptiveState>,
    /// When set, the fetch phase pulls nothing: the sampled loop freezes
    /// fetch to drain in-flight work before a fast-forward phase.
    fetch_frozen: bool,
    // Reusable per-cycle buffers: the steady-state cycle loop performs no heap
    // allocation.
    snapshot: SmtSnapshot,
    priority: Vec<ThreadId>,
    flushes: Vec<FlushRequest>,
    caps: Vec<ResourceCaps>,
    /// Ready-to-issue candidate indices of the thread currently being scanned
    /// by the issue phase (reused scratch).
    issue_candidates: Vec<u32>,
    /// Per-thread oldest mispredicted-branch seq completing this cycle.
    mispredicts: Vec<Option<u64>>,
    /// Saved start-of-cycle snapshot fields overwritten for the resource-stall
    /// policy callback, restored before fetch.
    stall_view: Vec<(u32, Option<u64>)>,
}

impl Core {
    /// Builds core `core_id` for `config`, running one trace source per
    /// hardware thread under an explicitly provided fetch policy. The core id
    /// determines the chip-wide requester ids of the core's threads (and with
    /// them the core's disjoint physical address range).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration does not validate
    /// and [`SimError::InvalidWorkload`] if the number of traces does not match
    /// `config.num_threads`.
    pub(crate) fn with_policy(
        config: SmtConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn FetchPolicy>,
        core_id: usize,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if traces.len() != config.num_threads {
            return Err(SimError::invalid_workload(format!(
                "expected {} trace sources, got {}",
                config.num_threads,
                traces.len()
            )));
        }
        let mem = CoreMemory::new(&config, core_id);
        // Stores retire from the write buffer at L1 store-port speed; the buffer
        // exists to absorb commit bursts (Section 5), not to throttle throughput.
        let write_buffer = WriteBuffer::new(
            config.write_buffer_entries as usize,
            config.l1d.latency.max(1),
        );
        let threads: Vec<ThreadContext> = traces
            .into_iter()
            .map(|t| ThreadContext::new(&config, t))
            .collect();
        let frontend_capacity = config.frontend_depth * config.fetch_width;
        let num_threads = config.num_threads;
        let window_capacity = threads[0].window.capacity();
        let rob_size = config.rob_size as usize;
        #[cfg(debug_assertions)]
        let shadow_stats = stats::shadow_stats(&config);
        Ok(Core {
            stats: MachineStats::new(num_threads),
            snapshot: SmtSnapshot::new(num_threads),
            config,
            policy,
            mem,
            write_buffer,
            threads,
            cycle: 0,
            stats_cycle_base: 0,
            rotate: 0,
            frontend_capacity,
            totals: SharedTotals::default(),
            completions: CompletionQueue::new(
                num_threads,
                window_capacity,
                rob_size,
                COMPLETION_SPAN,
            ),
            progress: false,
            quiet_until: 0,
            gated: 0,
            quiet_cycles: 0,
            #[cfg(debug_assertions)]
            shadow_stats,
            adaptive: None,
            fetch_frozen: false,
            priority: Vec::with_capacity(num_threads),
            flushes: Vec::new(),
            caps: vec![ResourceCaps::default(); num_threads],
            issue_candidates: Vec::with_capacity(64),
            mispredicts: vec![None; num_threads],
            stall_view: Vec::with_capacity(num_threads),
        })
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &SmtConfig {
        &self.config
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics accumulated so far.
    ///
    /// `stats().cycles` is finalized by the owning simulator's `run`; while
    /// stepping manually, read the live count from [`Core::measured_cycles`]
    /// instead.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Cycles elapsed in the current measurement phase, i.e. since the last
    /// statistics reset (warm-up end).
    pub fn measured_cycles(&self) -> u64 {
        self.cycle - self.stats_cycle_base
    }

    /// Committed instruction count of every hardware thread, in thread order.
    pub(crate) fn committed(&self) -> impl Iterator<Item = u64> + '_ {
        self.threads.iter().map(|t| t.committed)
    }

    /// Cycles that took the quiescent fast path so far (a host-side
    /// diagnostic of simulation cost, not part of [`MachineStats`]).
    pub fn quiet_cycles(&self) -> u64 {
        self.quiet_cycles
    }

    /// Ends any quiescent stretch: the next cycle runs every phase. Called
    /// by every mutation from outside the cycle loop.
    pub(crate) fn wake(&mut self) {
        self.quiet_until = 0;
    }

    /// Zeroes all statistics counters without disturbing microarchitectural state.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = MachineStats::new(self.threads.len());
        self.stats_cycle_base = self.cycle;
        self.reset_adaptive_baselines();
        self.wake();
    }

    /// Writes the measured cycle count into the statistics record (the owning
    /// simulator's `run` is the single writer of the aggregate count).
    pub(crate) fn finalize_cycles(&mut self) {
        self.stats.cycles = self.measured_cycles();
    }

    /// Advances the core by one cycle against the given shared level.
    ///
    /// Inside a quiescent stretch (see the module docs) the cycle only
    /// replays the per-cycle accounting; otherwise every phase runs, and a
    /// cycle that makes no progress opens a stretch lasting until the
    /// earliest clock-driven wake-up.
    pub(crate) fn step_against<S: SharedLevel>(&mut self, shared: &mut S) {
        if self.cycle < self.quiet_until {
            self.quiet_cycle(shared);
        } else {
            self.progress = false;
            self.run_phases(shared);
            if !self.progress {
                self.quiet_until = self.next_wake();
            }
        }
        self.cycle += 1;
        self.rotate += 1;
        if self.rotate == self.threads.len() {
            self.rotate = 0;
        }
        // The sanctioned policy-swap point: interval telemetry is published
        // and the selector consulted only here, at end-of-cycle, after every
        // phase has run — a pure function of core-local state, so chip
        // results stay invariant to core stepping order.
        self.adaptive_interval_tick();
        #[cfg(debug_assertions)]
        self.debug_check_invariants();
    }

    /// Runs every pipeline phase of one cycle, commit to fetch.
    fn run_phases<S: SharedLevel>(&mut self, shared: &mut S) {
        // Move the reusable buffers out of `self` for the duration of the cycle
        // (a pointer-sized swap, not an allocation) so the phases can borrow
        // them alongside `&mut self`.
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.refresh_snapshot(&mut snapshot);
        let mut caps = std::mem::take(&mut self.caps);
        caps.fill(ResourceCaps::default());
        let caps_apply = self
            .policy
            .resource_caps(&snapshot, &self.config, &mut caps);
        self.commit_phase(shared);
        self.writeback_phase();
        self.issue_phase(shared);
        self.dispatch_phase(&mut snapshot, caps_apply.then_some(caps.as_slice()));
        self.fetch_phase(&snapshot);
        stats::account_mlp(&mut self.stats, &self.threads);
        self.snapshot = snapshot;
        self.caps = caps;
    }

    /// One cycle of a quiescent stretch: the full phases would change
    /// nothing but the fetch-gated and MLP cycle counters, so only those are
    /// replayed. Debug builds run the full phases anyway and assert that
    /// they make no progress and leave the statistics exactly as the
    /// replay would.
    fn quiet_cycle<S: SharedLevel>(&mut self, shared: &mut S) {
        self.quiet_cycles += 1;
        #[cfg(debug_assertions)]
        {
            let mut expect = std::mem::take(&mut self.shadow_stats);
            stats::copy_stats(&mut expect, &self.stats);
            stats::account_quiet(&mut expect, self.gated, &self.threads);
            let (rotate, gated) = (self.rotate, self.gated);
            self.progress = false;
            self.run_phases(shared);
            assert!(
                !self.progress,
                "cycle {}: the full phases made progress inside a quiescent stretch \
                 (a missed wake source or a fetch-policy contract violation)",
                self.cycle
            );
            assert_eq!(
                (&self.stats, self.rotate, self.gated),
                (&expect, rotate, gated),
                "cycle {}: the quiescent fast path diverged from the full phases",
                self.cycle
            );
            self.shadow_stats = expect;
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = shared;
            stats::account_quiet(&mut self.stats, self.gated, &self.threads);
        }
    }

    /// The earliest cycle after a progress-free cycle at which something
    /// clock-driven can change: a completion event falls due, a front-end
    /// instruction becomes dispatchable, the write buffer frees an entry, or
    /// an adaptive interval ends. Everything else only changes when one of
    /// these (or an outside mutation) does.
    fn next_wake(&self) -> u64 {
        let now = self.cycle;
        let mut wake = self.completions.next_due().unwrap_or(u64::MAX);
        for ctx in &self.threads {
            if ctx.occ.frontend > 0 {
                let ready_at = ctx
                    .window
                    .frontend_ready_at(ctx.window.first_undispatched_index());
                if ready_at > now {
                    wake = wake.min(ready_at);
                }
            }
        }
        if let Some(drain) = self.write_buffer.next_pending_drain(now) {
            wake = wake.min(drain);
        }
        if let Some(boundary) = self.next_interval_boundary() {
            wake = wake.min(boundary);
        }
        wake
    }
}

/// The single-core SMT processor simulator: one [`Core`] plus an exclusively
/// owned shared level. This is the machine of the paper; behaviour is
/// bit-for-bit identical to the pre-chip-refactor simulator.
///
/// # Example
///
/// ```
/// use smt_core::pipeline::{SimOptions, SmtSimulator};
/// use smt_trace::{spec, SyntheticTraceGenerator};
/// use smt_types::SmtConfig;
///
/// # fn main() -> Result<(), smt_types::SimError> {
/// let cfg = SmtConfig::baseline(2);
/// let t0 = SyntheticTraceGenerator::new(spec::benchmark("mcf")?, 1);
/// let t1 = SyntheticTraceGenerator::new(spec::benchmark("gcc")?, 2);
/// let mut sim = SmtSimulator::new(cfg, vec![Box::new(t0), Box::new(t1)])?;
/// let stats = sim.run(SimOptions::with_instructions(2_000));
/// assert!(stats.cycles > 0);
/// assert!(stats.threads[0].committed_instructions >= 2_000
///     || stats.threads[1].committed_instructions >= 2_000);
/// # Ok(())
/// # }
/// ```
pub struct SmtSimulator {
    core: Core,
    shared: SharedLlc,
}

impl SmtSimulator {
    /// Builds a simulator for `config` running one trace source per hardware
    /// thread, using the fetch policy named in the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration does not validate
    /// and [`SimError::InvalidWorkload`] if the number of traces does not match
    /// `config.num_threads`.
    pub fn new(config: SmtConfig, traces: Vec<Box<dyn TraceSource>>) -> Result<Self, SimError> {
        let policy = build_policy(config.fetch_policy, &config);
        Self::with_policy(config, traces, policy)
    }

    /// Builds a simulator with an explicitly provided fetch policy (used to test
    /// custom policies against the built-in ones).
    ///
    /// # Errors
    ///
    /// Same as [`SmtSimulator::new`].
    pub fn with_policy(
        config: SmtConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn FetchPolicy>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let shared = SharedLlc::single_core(&config);
        let core = Core::with_policy(config, traces, policy, 0)?;
        Ok(SmtSimulator { core, shared })
    }

    /// Builds a simulator driven by the adaptive policy engine: the machine
    /// starts on `adaptive.candidates[0]` (overriding `config.fetch_policy`)
    /// and re-evaluates the selector at every interval boundary.
    ///
    /// # Errors
    ///
    /// Same as [`SmtSimulator::new`], plus [`SimError::InvalidConfig`] for an
    /// invalid adaptive configuration.
    pub fn with_adaptive(
        config: SmtConfig,
        traces: Vec<Box<dyn TraceSource>>,
        adaptive: AdaptiveConfig,
    ) -> Result<Self, SimError> {
        adaptive.validate()?;
        let policy = build_policy(adaptive.initial_policy(), &config);
        let mut sim = Self::with_policy(config, traces, policy)?;
        sim.core.set_adaptive(adaptive)?;
        Ok(sim)
    }

    /// The configuration the simulator was built with.
    pub fn config(&self) -> &SmtConfig {
        self.core.config()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.core.cycle()
    }

    /// Statistics accumulated so far.
    ///
    /// `stats().cycles` is finalized by [`SmtSimulator::run`]; while stepping
    /// the simulator manually, read the live count from
    /// [`SmtSimulator::measured_cycles`] instead.
    pub fn stats(&self) -> &MachineStats {
        self.core.stats()
    }

    /// Cycles elapsed in the current measurement phase, i.e. since the last
    /// statistics reset (warm-up end).
    pub fn measured_cycles(&self) -> u64 {
        self.core.measured_cycles()
    }

    /// Direct access to the simulator's core (policy swapping, adaptive
    /// residency).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Replaces the running fetch policy with a freshly built `kind` policy
    /// (see [`Core::swap_policy`]). Returns whether a swap happened.
    pub fn swap_policy(&mut self, kind: smt_types::config::FetchPolicyKind) -> bool {
        self.core.swap_policy(kind) // analyze: allow(swap-point) reason="public passthrough for tests and tooling; the cycle loop swaps only via adaptive_interval_tick"
    }

    /// Runs the warm-up phase followed by the measured phase, stopping the
    /// measured phase once any thread has committed the instruction budget (the
    /// paper's stop criterion) or the cycle limit is hit, and returns the
    /// statistics of the measured phase.
    pub fn run(&mut self, options: SimOptions) -> MachineStats {
        self.warm_up(options.warmup_instructions_per_thread, options.max_cycles);
        // analyze: allow(hot-path-alloc) reason="once per run at measured-phase entry, not per cycle"
        let baselines: Vec<u64> = self.core.committed().collect();
        while self.core.cycle() < options.max_cycles {
            if self
                .core
                .committed()
                .zip(&baselines)
                .any(|(committed, &base)| committed - base >= options.max_instructions_per_thread)
            {
                break;
            }
            self.step();
        }
        // `run` is the single writer of the aggregate cycle count; `step` only
        // advances the raw cycle counter.
        self.core.finalize_cycles();
        self.core.stats().clone() // analyze: allow(hot-path-alloc) reason="once per run when returning final statistics"
    }

    /// Runs until every thread has committed `instructions` further instructions,
    /// then clears all statistics (microarchitectural state — caches, TLBs,
    /// predictors, stream buffers — stays warm). A zero-length warm-up is a no-op.
    pub fn warm_up(&mut self, instructions: u64, max_cycles: u64) {
        if instructions == 0 {
            return;
        }
        // analyze: allow(hot-path-alloc) reason="once per warm-up phase, not per cycle"
        let targets: Vec<u64> = self.core.committed().map(|c| c + instructions).collect();
        while self.core.cycle() < max_cycles
            && self
                .core
                .committed()
                .zip(&targets)
                .any(|(committed, &target)| committed < target)
        {
            self.step();
        }
        self.reset_stats();
    }

    /// Zeroes all statistics counters without disturbing microarchitectural state.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.core.step_against(&mut self.shared);
    }
}
