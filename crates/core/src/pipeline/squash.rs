//! Squash machinery: remove the youngest instructions of a thread (after a
//! branch misprediction or a fetch-policy flush) and queue them for re-fetch
//! in program order.

use smt_fetch::FlushRequest;
use smt_types::{SeqNum, ThreadId};

use super::thread::RefetchEntry;
use super::Core;

/// Why a range of instructions was squashed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum SquashCause {
    BranchMisprediction,
    PolicyFlush,
}

impl Core {
    pub(super) fn apply_flush(&mut self, request: FlushRequest) {
        let ti = request.thread.index();
        if ti >= self.threads.len() {
            return;
        }
        let squashed = self.squash(ti, request.keep_up_to.0, SquashCause::PolicyFlush);
        if squashed > 0 {
            self.stats.thread_mut(request.thread).policy_flushes += 1;
        }
    }

    /// Removes every instruction of thread `ti` with a sequence number greater than
    /// `keep_up_to`, returning how many were squashed. Squashed operations are
    /// queued for re-fetch in program order.
    pub(super) fn squash(&mut self, ti: usize, keep_up_to: u64, cause: SquashCause) -> u64 {
        let thread_id = ThreadId::new(ti);
        let mut squashed = 0;
        {
            let ctx = &mut self.threads[ti];
            while !ctx.window.is_empty() {
                let last = ctx.window.len() - 1;
                let seq = ctx.window.seq_at(last);
                if seq <= keep_up_to {
                    break;
                }
                let flags = ctx.window.flags_at(last);
                let op = ctx.window.op_at(last);
                if flags.issued() && !flags.completed() {
                    // Unlink the pending completion event: the calendar never
                    // holds events of squashed instructions.
                    self.completions.remove(ti, ctx.window.slot_of(last));
                }
                ctx.window.pop_back();
                if flags.dispatched() {
                    ctx.occ.rob -= 1;
                    self.totals.rob -= 1;
                    if flags.uses_lsq() {
                        ctx.occ.lsq -= 1;
                        self.totals.lsq -= 1;
                    }
                    if !flags.issued() {
                        if flags.uses_fp_iq() {
                            ctx.occ.iq_fp -= 1;
                            self.totals.iq_fp -= 1;
                        } else {
                            ctx.occ.iq_int -= 1;
                            self.totals.iq_int -= 1;
                        }
                        ctx.occ.icount -= 1;
                    }
                    if flags.has_dest() {
                        if flags.dest_fp() {
                            ctx.occ.rename_fp -= 1;
                            self.totals.rename_fp -= 1;
                        } else {
                            ctx.occ.rename_int -= 1;
                            self.totals.rename_int -= 1;
                        }
                    }
                    if flags.issued() && !flags.completed() {
                        if flags.is_long_latency() {
                            ctx.outstanding_lll.remove(seq);
                        }
                        if flags.l1_missed() && ctx.outstanding_l1d > 0 {
                            ctx.outstanding_l1d -= 1;
                        }
                    }
                } else {
                    ctx.occ.frontend -= 1;
                    ctx.occ.icount -= 1;
                }
                ctx.refetch.push_front(RefetchEntry {
                    op,
                    mispredicted: flags.mispredicted(),
                    predicted_taken: flags.predicted_taken(),
                });
                squashed += 1;
            }
            ctx.latest_fetched_seq = ctx.latest_fetched_seq.min(keep_up_to);
        }
        if squashed > 0 {
            self.progress = true;
            let tstats = self.stats.thread_mut(thread_id);
            match cause {
                SquashCause::BranchMisprediction => tstats.squashed_by_branch += squashed,
                SquashCause::PolicyFlush => tstats.squashed_by_policy += squashed,
            }
            self.policy.on_squash(thread_id, SeqNum(keep_up_to));
        }
        squashed
    }
}
