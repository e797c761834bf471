//! Fetch phase: ask the fetch policy for this cycle's thread priority,
//! account gated cycles, and pull instructions (fresh or re-fetched) into the
//! front end, predicting branches exactly once per dynamic branch.

use smt_types::{OpFlags, OpKind, SeqNum, SmtSnapshot};

use super::{stats, Core};

impl Core {
    pub(super) fn fetch_phase(&mut self, snapshot: &SmtSnapshot) {
        if self.fetch_frozen {
            // The sampled loop is draining in-flight work before a
            // fast-forward phase: nothing enters the pipeline.
            self.gated = 0;
            return;
        }
        let cycle = self.cycle;
        let mut priority = std::mem::take(&mut self.priority);
        self.policy.fetch_priority(snapshot, &mut priority);
        // Account gated cycles for active threads the policy excluded, via a
        // "selected" bitmask filled in one pass over the priority list
        // (MAX_THREADS <= 64) instead of an O(threads) scan per thread. The
        // gated mask is kept: quiescent cycles replay it.
        let mut selected: u64 = 0;
        for t in &priority {
            selected |= 1 << t.index();
        }
        let mut gated: u64 = 0;
        for (ti, ctx) in self.threads.iter().enumerate() {
            if ctx.active && selected & (1 << ti) == 0 {
                gated |= 1 << ti;
            }
        }
        self.gated = gated;
        stats::account_gated(&mut self.stats, gated);
        let mut budget = self.config.fetch_width;
        let mut threads_used = 0;
        let frontend_ready_at = cycle + self.config.frontend_depth as u64;
        for &t in &priority {
            if budget == 0 || threads_used >= self.config.fetch_threads_per_cycle {
                break;
            }
            let ti = t.index();
            if !self.threads[ti].active {
                continue;
            }
            if self.threads[ti].occ.frontend >= self.frontend_capacity {
                continue;
            }
            let mut fetched_here = 0;
            while budget > 0
                && fetched_here < self.config.fetch_width
                && self.threads[ti].occ.frontend < self.frontend_capacity
            {
                let ctx = &mut self.threads[ti];
                let (op, replay) = ctx.pull_op();
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                ctx.latest_fetched_seq = seq;
                let mut mispredicted = false;
                let mut predicted_taken = false;
                if let Some(entry) = replay {
                    // Re-fetch of a squashed instruction: replay the original
                    // prediction outcome; the predictor was already trained.
                    mispredicted = entry.mispredicted;
                    predicted_taken = entry.predicted_taken;
                } else if let (OpKind::Branch, Some(info)) = (op.kind, op.branch) {
                    // First fetch of this dynamic branch: predict and train at the
                    // same global-history point, exactly once per dynamic branch.
                    let pred = ctx.branch_predictor.predict(op.pc);
                    mispredicted =
                        ctx.branch_predictor
                            .update(op.pc, info.taken, info.target, pred);
                    predicted_taken = pred.taken;
                }
                let mut flags = OpFlags::default();
                flags.set_mispredicted(mispredicted);
                flags.set_predicted_taken(predicted_taken);
                ctx.window.push_back(seq, op, frontend_ready_at, flags);
                ctx.occ.frontend += 1;
                ctx.occ.icount += 1;
                self.stats.thread_mut(t).fetched_instructions += 1;
                self.policy.on_fetch(t, SeqNum(seq));
                budget -= 1;
                fetched_here += 1;
                self.progress = true;
                if predicted_taken {
                    // The fetch group ends at a predicted-taken branch.
                    break;
                }
            }
            if fetched_here > 0 {
                threads_used += 1;
            }
        }
        self.priority = priority;
    }
}
