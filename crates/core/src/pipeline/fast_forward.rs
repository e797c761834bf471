//! Functional fast-forward: consume the trace and keep the warm state hot —
//! caches, TLBs, stream buffers, branch predictor, LLL/MLP predictors and the
//! LLSR — with no cycle accounting, no window occupancy and no statistics.
//!
//! This is the SMARTS-style "functional warming" phase of sampled simulation
//! (see [`super::SmtSimulator::run_sampled`]): between detailed measurement
//! windows the machine advances at trace speed, paying only the state updates
//! a committed instruction would have made. The per-instruction protocol
//! replicates the detailed pipeline's warm-state effects exactly:
//!
//! * **branches** — predict then train once per dynamic branch, at the same
//!   global-history point, exactly as the fetch phase does on first fetch
//!   (re-fetches replay the recorded outcome and skip the predictor);
//! * **loads** — the functional memory walk ([`smt_mem::CoreMemory::warm_load`])
//!   performs the TLB installs, fills and stream-buffer transitions of a real
//!   access and yields the paper's long-latency classification, which trains
//!   the LLL predictor and (for long-latency loads) enqueues an MLP-prediction
//!   evaluation exactly as issue + commit would;
//! * **stores** — the (already timing-free) functional store walk;
//! * **every op** — shifts through the LLSR; produced observations train the
//!   MLP distance/binary predictors and retire the matching pending
//!   evaluation, keeping the two FIFOs aligned across mode switches.
//!
//! Statistics are deliberately untouched here: the `sampling-discipline`
//! analyze rule pins that fast-forward code never reaches a statistics
//! counter.

use smt_mem::SharedLevel;
use smt_predictors::LongLatencyPredictor;
use smt_types::{OpKind, ThreadId};

use super::thread::PendingMlpEval;
use super::{Core, SmtSimulator};

impl Core {
    /// Whether the pipeline holds no in-flight work: all windows empty, no
    /// pending completion events, and the write buffer fully drained. Only a
    /// drained pipeline may fast-forward — otherwise in-flight instructions
    /// would later retire *behind* trace ops the fast-forward already
    /// consumed, reordering the LLSR commit stream.
    pub(crate) fn is_drained(&mut self) -> bool {
        let now = self.cycle;
        self.completions.is_empty()
            && self.write_buffer.occupancy(now) == 0
            && self.threads.iter().all(|t| t.window.is_empty())
    }

    /// Functionally advances every active thread by `instructions`
    /// instructions against the given shared level, interleaving threads one
    /// instruction at a time (the same fairness detailed stepping gives
    /// threads that share the private cache levels).
    ///
    /// The core's cycle counter does not move; `self.cycle` only stamps
    /// stream-buffer availability, frozen at the current value.
    pub(crate) fn fast_forward_against<S: SharedLevel>(
        &mut self,
        shared: &mut S,
        instructions: u64,
    ) {
        debug_assert!(
            self.is_drained(),
            "fast-forward requires a drained pipeline"
        );
        self.wake();
        let now = self.cycle;
        for _ in 0..instructions {
            for ti in 0..self.threads.len() {
                if !self.threads[ti].active {
                    continue;
                }
                let thread_id = ThreadId::new(ti);
                let ctx = &mut self.threads[ti];
                let (op, replay) = ctx.pull_op();
                ctx.committed += 1;
                let mut is_lll_load = false;
                match op.kind {
                    OpKind::Branch => {
                        // First sight of this dynamic branch: predict and
                        // train at the same global-history point. Replays of
                        // squashed instructions already trained the predictor.
                        if let (None, Some(info)) = (replay, op.branch) {
                            let pred = ctx.branch_predictor.predict(op.pc);
                            ctx.branch_predictor
                                .update(op.pc, info.taken, info.target, pred);
                        }
                    }
                    OpKind::Load => {
                        let addr = op.addr().unwrap_or(0);
                        let long = self.mem.warm_load(shared, thread_id, op.pc, addr, now);
                        ctx.lll_predictor.update(op.pc, long);
                        if long {
                            is_lll_load = true;
                            ctx.pending_mlp_evals.push_back(PendingMlpEval {
                                pc: op.pc,
                                predicted_distance: ctx.mlp_predictor.predict(op.pc),
                            });
                        }
                    }
                    OpKind::Store => {
                        if let Some(addr) = op.addr() {
                            self.mem.warm_store(shared, thread_id, addr);
                        }
                    }
                    _ => {}
                }
                if let Some(obs) = ctx.llsr.commit(op.pc, is_lll_load) {
                    ctx.mlp_predictor.update(obs.pc, obs.mlp_distance);
                    ctx.binary_mlp_predictor
                        .update(obs.pc, obs.mlp_distance > 0);
                    if let Some(eval) = ctx.pending_mlp_evals.pop_front() {
                        debug_assert_eq!(eval.pc, obs.pc, "LLSR and prediction FIFOs diverged");
                    }
                }
            }
        }
    }
}

impl Core {
    /// Advances every active thread by `instructions` instructions at raw
    /// trace speed: ops are pulled and discarded, committed-instruction
    /// counters advance, and *nothing else* is touched — no caches, TLBs,
    /// predictors or LLSR, no cycles, no statistics.
    ///
    /// This is the skip phase of a `skip → ff → warm → measure` sampling
    /// unit: warm state is frozen (not lost) across the skip and gets a fresh
    /// functional-warming horizon before the next window. Several times
    /// cheaper per instruction than [`Core::fast_forward_against`].
    pub(crate) fn skip_forward(&mut self, instructions: u64) {
        debug_assert!(
            self.is_drained(),
            "skip-forward requires a drained pipeline"
        );
        self.wake();
        // Threads consume independent streams and nothing but per-thread
        // cursors move, so the old one-instruction-round-robin interleaving
        // and this per-thread bulk skip are observationally identical — and
        // the bulk form lets seekable sources (`FileTraceSource`) take their
        // O(1) `skip` instead of decoding every skipped op.
        for ctx in self.threads.iter_mut().filter(|t| t.active) {
            ctx.skip_ops(instructions);
            ctx.committed += instructions;
        }
    }
}

impl SmtSimulator {
    /// Functionally fast-forwards every thread by `instructions_per_thread`
    /// instructions: the trace is consumed and all warm state (caches, TLBs,
    /// stream buffers, branch/LLL/MLP predictors, LLSR) advances, but no
    /// cycles elapse and no statistics change.
    ///
    /// # Panics
    ///
    /// Debug builds assert the pipeline is drained (no in-flight
    /// instructions); call it on a fresh simulator or after the sampled loop's
    /// drain.
    pub fn fast_forward(&mut self, instructions_per_thread: u64) {
        self.core
            .fast_forward_against(&mut self.shared, instructions_per_thread);
    }

    /// Skips every thread ahead by `instructions_per_thread` instructions at
    /// raw trace speed without updating any warm state: ops are pulled and
    /// discarded, committed-instruction counters advance, and nothing else is
    /// touched — no caches, TLBs, predictors or LLSR, no cycles, no
    /// statistics.
    ///
    /// # Panics
    ///
    /// Debug builds assert the pipeline is drained, as for
    /// [`SmtSimulator::fast_forward`].
    pub fn skip_forward(&mut self, instructions_per_thread: u64) {
        self.core.skip_forward(instructions_per_thread);
    }
}
