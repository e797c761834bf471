//! Commit phase: retire completed instructions in program order, drain
//! stores into the write buffer, and feed the LLSR / MLP-predictor training
//! pipeline at window exit.

use smt_mem::SharedLevel;
use smt_types::{OpKind, ThreadId};

use super::thread::PendingMlpEval;
use super::Core;

impl Core {
    pub(super) fn commit_phase<S: SharedLevel>(&mut self, shared: &mut S) {
        let cycle = self.cycle;
        let commit_width = self.config.commit_width;
        for ti in 0..self.threads.len() {
            let mut done = 0;
            while done < commit_width {
                let ctx = &mut self.threads[ti];
                if ctx.window.is_empty() {
                    break;
                }
                let flags = ctx.window.flags_at(0);
                if !flags.commit_ready() {
                    break;
                }
                let op = ctx.window.op_at(0);
                if op.kind == OpKind::Store && !self.write_buffer.try_push(cycle) {
                    // Commit blocks when the write buffer is full (Section 5).
                    break;
                }
                let predicted_mlp_distance = ctx.window.predicted_mlp_distance_at(0);
                ctx.window.pop_front();
                ctx.occ.rob -= 1;
                self.totals.rob -= 1;
                if flags.uses_lsq() {
                    ctx.occ.lsq -= 1;
                    self.totals.lsq -= 1;
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
                ctx.committed += 1;
                let thread_id = ThreadId::new(ti);
                if op.kind == OpKind::Store {
                    if let Some(addr) = op.addr() {
                        self.mem.store_access(shared, thread_id, addr, cycle);
                    }
                }
                let tstats = self.stats.thread_mut(thread_id);
                tstats.committed_instructions += 1;
                match op.kind {
                    OpKind::Load => tstats.loads += 1,
                    OpKind::Store => tstats.stores += 1,
                    OpKind::Branch => tstats.branches += 1,
                    _ => {}
                }
                // Feed the LLSR and, when a long-latency load leaves the window,
                // train the MLP predictors and score the earlier prediction.
                let is_lll_load = flags.is_long_latency() && op.kind == OpKind::Load;
                if is_lll_load {
                    ctx.pending_mlp_evals.push_back(PendingMlpEval {
                        pc: op.pc,
                        predicted_distance: predicted_mlp_distance,
                    });
                }
                if let Some(obs) = ctx.llsr.commit(op.pc, is_lll_load) {
                    ctx.mlp_predictor.update(obs.pc, obs.mlp_distance);
                    ctx.binary_mlp_predictor
                        .update(obs.pc, obs.mlp_distance > 0);
                    if let Some(eval) = ctx.pending_mlp_evals.pop_front() {
                        debug_assert_eq!(eval.pc, obs.pc, "LLSR and prediction FIFOs diverged");
                        let tstats = self.stats.thread_mut(thread_id);
                        let predicted_mlp = eval.predicted_distance > 0;
                        let actual_mlp = obs.mlp_distance > 0;
                        match (predicted_mlp, actual_mlp) {
                            (true, true) => tstats.mlp_pred_true_positive += 1,
                            (false, false) => tstats.mlp_pred_true_negative += 1,
                            (true, false) => tstats.mlp_pred_false_positive += 1,
                            (false, true) => tstats.mlp_pred_false_negative += 1,
                        }
                        tstats.mlp_distance_total += 1;
                        if eval.predicted_distance >= obs.mlp_distance {
                            tstats.mlp_distance_far_enough += 1;
                        }
                    }
                }
                done += 1;
                self.progress = true;
            }
        }
    }
}
