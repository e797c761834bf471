//! Event-driven writeback: completion events due this cycle pop from the
//! calendar queue in `(done_at, thread, seq)` order, and each completion
//! wakes the consumers waiting on it, instead of the whole window being
//! rescanned each cycle.

use smt_types::{OpKind, SeqNum, ThreadId};

use super::squash::SquashCause;
use super::Core;

impl Core {
    /// Event-driven writeback: pop the completion events that are due from
    /// the calendar queue and mark their instructions completed, waking
    /// their dependants. Squashed instructions unlinked their events, so
    /// every event names a live instruction by its window slot.
    pub(super) fn writeback_phase(&mut self) {
        let cycle = self.cycle;
        self.mispredicts.fill(None);
        while let Some(event) = self.completions.pop_due(cycle) {
            self.progress = true;
            let ti = event.thread;
            let ctx = &mut self.threads[ti];
            let idx = ctx.window.index_of_slot(event.slot);
            let flags = ctx.window.flags_at(idx);
            debug_assert!(
                flags.issued() && !flags.completed() && ctx.window.seq_at(idx) == event.seq
            );
            debug_assert_eq!(
                event.done_at, cycle,
                "completion delivered late: a quiescent stretch overslept its wake-up"
            );
            ctx.window.mark_completed(idx);
            let seq = event.seq;
            let was_lll = flags.is_long_latency();
            let was_l1_miss = flags.l1_missed();
            let mispredicted_branch =
                ctx.window.op_at(idx).kind == OpKind::Branch && flags.mispredicted();
            if was_l1_miss && ctx.outstanding_l1d > 0 {
                ctx.outstanding_l1d -= 1;
            }
            if was_lll && ctx.outstanding_lll.remove(seq) {
                self.policy
                    .on_long_latency_resolved(ThreadId::new(ti), SeqNum(seq));
            }
            if mispredicted_branch {
                let oldest = &mut self.mispredicts[ti];
                *oldest = Some(oldest.map_or(seq, |s: u64| s.min(seq)));
            }
        }
        for ti in 0..self.threads.len() {
            if let Some(seq) = self.mispredicts[ti] {
                self.stats
                    .thread_mut(ThreadId::new(ti))
                    .branch_mispredictions += 1;
                self.squash(ti, seq, SquashCause::BranchMisprediction);
            }
        }
    }
}
