//! Per-cycle accounting: the incrementally maintained shared-resource
//! occupancy totals, the start-of-cycle snapshot refresh handed to fetch
//! policies, the MLP and fetch-gated cycle accounting (shared by full and
//! quiescent cycles), and the debug-build invariant checks.

use smt_types::{MachineStats, SmtSnapshot, ThreadId};
#[cfg(debug_assertions)]
use smt_types::{SmtConfig, ThreadStats};

use super::thread::ThreadContext;
use super::Core;

/// Machine-level occupancy of the shared buffer resources, maintained
/// incrementally at every allocate/release instead of being recomputed from the
/// per-thread counters each cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(super) struct SharedTotals {
    pub(super) rob: u32,
    pub(super) lsq: u32,
    pub(super) iq_int: u32,
    pub(super) iq_fp: u32,
    pub(super) rename_int: u32,
    pub(super) rename_fp: u32,
}

impl Core {
    /// Rewrites the reused snapshot buffer in place with the start-of-cycle
    /// machine state (no allocation in steady state).
    pub(super) fn refresh_snapshot(&self, snap: &mut SmtSnapshot) {
        snap.begin_cycle(self.cycle);
        snap.rob_total_occupancy = self.totals.rob;
        snap.lsq_total_occupancy = self.totals.lsq;
        snap.iq_int_total_occupancy = self.totals.iq_int;
        snap.iq_fp_total_occupancy = self.totals.iq_fp;
        snap.rename_int_total_used = self.totals.rename_int;
        snap.rename_fp_total_used = self.totals.rename_fp;
        for (i, ctx) in self.threads.iter().enumerate() {
            let t = &mut snap.threads[i];
            t.active = ctx.active;
            t.icount = ctx.occ.icount;
            t.rob_occupancy = ctx.occ.rob;
            t.lsq_occupancy = ctx.occ.lsq;
            t.iq_int_occupancy = ctx.occ.iq_int;
            t.iq_fp_occupancy = ctx.occ.iq_fp;
            t.rename_int_used = ctx.occ.rename_int;
            t.rename_fp_used = ctx.occ.rename_fp;
            t.outstanding_long_latency_loads = ctx.outstanding_lll.len() as u32;
            t.outstanding_l1d_misses = ctx.outstanding_l1d;
            t.oldest_lll_cycle = ctx.oldest_lll_cycle();
        }
    }

    /// Verifies (in debug builds), after every cycle, that the incremental
    /// shared-resource totals agree with a from-scratch recomputation over
    /// the per-thread counters, that the window cursors agree with the
    /// occupancy counters, that every dispatched, unissued instruction's
    /// ready bit equals a fresh [`OpWindow::deps_ready`] recomputation, that
    /// the completion calendar holds exactly one event per issued, incomplete
    /// instruction (squashed instructions unlink theirs, so none is stale),
    /// and that `outstanding_l1d` counts the issued, incomplete loads that
    /// missed the L1.
    ///
    /// [`OpWindow::deps_ready`]: super::window::OpWindow::deps_ready
    #[cfg(debug_assertions)]
    pub(super) fn debug_check_invariants(&self) {
        let mut expect = SharedTotals::default();
        let mut in_flight = 0;
        for ctx in &self.threads {
            expect.rob += ctx.occ.rob;
            expect.lsq += ctx.occ.lsq;
            expect.iq_int += ctx.occ.iq_int;
            expect.iq_fp += ctx.occ.iq_fp;
            expect.rename_int += ctx.occ.rename_int;
            expect.rename_fp += ctx.occ.rename_fp;
            let window = &ctx.window;
            debug_assert_eq!(
                window.first_undispatched_index(),
                window.len() - ctx.occ.frontend as usize,
                "dispatch cursor drifted from front-end occupancy"
            );
            let mut l1_misses = 0;
            for i in 0..window.len() {
                let flags = window.flags_at(i);
                debug_assert_eq!(
                    window.is_ready(i),
                    flags.dispatched() && !flags.issued() && window.deps_ready(i),
                    "ready bit of window index {i} disagrees with deps_ready"
                );
                if flags.issued() && !flags.completed() {
                    in_flight += 1;
                    l1_misses += u32::from(flags.l1_missed());
                }
            }
            debug_assert_eq!(
                ctx.outstanding_l1d, l1_misses,
                "outstanding_l1d drifted from the issued, incomplete L1-missing loads"
            );
        }
        debug_assert_eq!(self.totals, expect, "incremental occupancy totals drifted");
        debug_assert_eq!(
            self.completions.len(),
            in_flight,
            "completion calendar length drifted from the live events (stale events: 0)"
        );
    }
}

/// Adds one cycle's MLP accounting: every thread with outstanding
/// long-latency loads accrues an MLP cycle and its outstanding count.
pub(super) fn account_mlp(stats: &mut MachineStats, threads: &[ThreadContext]) {
    for (ti, ctx) in threads.iter().enumerate() {
        let outstanding = ctx.outstanding_lll.len() as u64;
        if outstanding > 0 {
            let tstats = stats.thread_mut(ThreadId::new(ti));
            tstats.mlp_cycles += 1;
            tstats.mlp_outstanding_sum += outstanding;
        }
    }
}

/// Adds one fetch-gated cycle to every thread in the `gated` bitmask.
pub(super) fn account_gated(stats: &mut MachineStats, gated: u64) {
    let mut bits = gated;
    while bits != 0 {
        let ti = bits.trailing_zeros() as usize;
        stats.thread_mut(ThreadId::new(ti)).fetch_gated_cycles += 1;
        bits &= bits - 1;
    }
}

/// Everything a quiescent cycle adds to the statistics: the fetch-gated
/// cycles of the threads gated in the last full cycle, and the MLP cycle
/// accounting.
pub(super) fn account_quiet(stats: &mut MachineStats, gated: u64, threads: &[ThreadContext]) {
    account_gated(stats, gated);
    account_mlp(stats, threads);
}

/// A statistics record for the debug shadow check, with histogram capacity
/// for every MLP distance `config`'s predictors can produce, so
/// [`copy_stats`] never reallocates inside the cycle loop.
#[cfg(debug_assertions)]
pub(super) fn shadow_stats(config: &SmtConfig) -> MachineStats {
    let bins = (config.llsr_length() / ThreadStats::MLP_HIST_BIN) as usize + 1;
    let mut stats = MachineStats::new(config.num_threads);
    for t in &mut stats.threads {
        t.mlp_distance_histogram.reserve(bins);
    }
    stats
}

/// Copies `src` into `dst` in place, reusing `dst`'s histogram buffers.
#[cfg(debug_assertions)]
pub(super) fn copy_stats(dst: &mut MachineStats, src: &MachineStats) {
    dst.cycles = src.cycles;
    debug_assert_eq!(dst.threads.len(), src.threads.len());
    for (d, s) in dst.threads.iter_mut().zip(&src.threads) {
        let mut histogram = std::mem::take(&mut d.mlp_distance_histogram);
        histogram.clone_from(&s.mlp_distance_histogram);
        *d = ThreadStats {
            mlp_distance_histogram: histogram,
            ..*s
        };
    }
}
