//! Dispatch phase: move front-end instructions into the shared back-end
//! buffers (ROB, LSQ, issue queues, rename registers), honouring per-thread
//! caps from explicit resource-management policies, and fire the
//! resource-stall policy callback when a shared resource is exhausted.

use smt_fetch::ResourceCaps;
use smt_types::{OpKind, SeqNum, SmtSnapshot, ThreadId};

use super::stats::SharedTotals;
use super::Core;

impl Core {
    pub(super) fn dispatch_phase(
        &mut self,
        snapshot: &mut SmtSnapshot,
        caps: Option<&[ResourceCaps]>,
    ) {
        let cycle = self.cycle;
        let cfg = &self.config;
        let mut remaining = cfg.dispatch_width;
        // Shared occupancy comes from the incrementally maintained totals; the
        // locals track this cycle's allocations and are folded back afterwards.
        let mut rob_total = self.totals.rob;
        let mut lsq_total = self.totals.lsq;
        let mut iq_int_total = self.totals.iq_int;
        let mut iq_fp_total = self.totals.iq_fp;
        let mut ren_int_total = self.totals.rename_int;
        let mut ren_fp_total = self.totals.rename_fp;
        let mut shared_blocked = false;
        let num_threads = self.threads.len();

        for offset in 0..num_threads {
            if remaining == 0 {
                break;
            }
            // `rotate + offset < 2 * num_threads`: wrap without a division.
            let ti = match self.rotate + offset {
                ti if ti >= num_threads => ti - num_threads,
                ti => ti,
            };
            let thread_id = ThreadId::new(ti);
            loop {
                if remaining == 0 {
                    break;
                }
                let ctx = &self.threads[ti];
                if ctx.occ.frontend == 0 {
                    break;
                }
                // The dispatch cursor is the first undispatched instruction;
                // it coincides with `len - frontend` (checked in debug builds
                // each cycle) but needs no recomputation.
                let idx = ctx.window.first_undispatched_index();
                if ctx.window.frontend_ready_at(idx) > cycle {
                    break;
                }
                let op = ctx.window.op_at(idx);
                let uses_lsq = op.kind.is_mem();
                let uses_fp_iq = op.kind.is_fp();
                let has_dest = matches!(
                    op.kind,
                    OpKind::IntAlu | OpKind::IntMul | OpKind::FpOp | OpKind::FpLong | OpKind::Load
                );
                let dest_fp = op.kind.is_fp();

                // Shared-resource availability (ROB, LSQ, IQs, rename registers).
                let shared_ok = rob_total < cfg.rob_size
                    && (!uses_lsq || lsq_total < cfg.lsq_size)
                    && (uses_fp_iq && iq_fp_total < cfg.iq_fp_size
                        || !uses_fp_iq && iq_int_total < cfg.iq_int_size)
                    && (!has_dest
                        || (dest_fp && ren_fp_total < cfg.rename_fp
                            || !dest_fp && ren_int_total < cfg.rename_int));
                if !shared_ok {
                    shared_blocked = true;
                    break;
                }

                // Per-thread caps from explicit resource-management policies.
                if let Some(caps) = caps {
                    let cap = &caps[ti];
                    let occ = &ctx.occ;
                    let cap_ok = cap.rob.is_none_or(|c| occ.rob < c)
                        && (!uses_lsq || cap.lsq.is_none_or(|c| occ.lsq < c))
                        && (uses_fp_iq && cap.iq_fp.is_none_or(|c| occ.iq_fp < c)
                            || !uses_fp_iq && cap.iq_int.is_none_or(|c| occ.iq_int < c))
                        && (!has_dest
                            || (dest_fp && cap.rename_fp.is_none_or(|c| occ.rename_fp < c)
                                || !dest_fp && cap.rename_int.is_none_or(|c| occ.rename_int < c)));
                    if !cap_ok {
                        break;
                    }
                }

                // Resolve source-operand producers once; issue then checks
                // readiness by window offset instead of re-searching each cycle.
                let dep_offsets = ctx.window.resolve_dep_offsets(idx);

                // Allocate and mark dispatched.
                let ctx = &mut self.threads[ti];
                let seq = ctx.window.seq_at(idx);
                let pc = op.pc;
                ctx.window.set_src_dep_offsets(idx, dep_offsets);
                ctx.window.mark_dispatched(idx);
                {
                    let flags = ctx.window.flags_mut(idx);
                    flags.set_uses_lsq(uses_lsq);
                    flags.set_uses_fp_iq(uses_fp_iq);
                    flags.set_has_dest(has_dest);
                    flags.set_dest_fp(dest_fp);
                }
                ctx.occ.frontend -= 1;
                ctx.occ.rob += 1;
                rob_total += 1;
                if uses_lsq {
                    ctx.occ.lsq += 1;
                    lsq_total += 1;
                }
                if uses_fp_iq {
                    ctx.occ.iq_fp += 1;
                    iq_fp_total += 1;
                } else {
                    ctx.occ.iq_int += 1;
                    iq_int_total += 1;
                }
                if has_dest {
                    if dest_fp {
                        ctx.occ.rename_fp += 1;
                        ren_fp_total += 1;
                    } else {
                        ctx.occ.rename_int += 1;
                        ren_int_total += 1;
                    }
                }
                remaining -= 1;
                self.progress = true;

                // Front-end long-latency / MLP prediction for loads.
                if op.kind == OpKind::Load {
                    let (lll, distance, has_mlp) = ctx.predict_load(pc);
                    let flags = ctx.window.flags_mut(idx);
                    flags.set_predicted_lll(lll);
                    flags.set_predicted_has_mlp(has_mlp);
                    ctx.window.set_predicted_mlp_distance(idx, distance);
                    self.policy.on_load_predicted(
                        thread_id,
                        pc,
                        SeqNum(seq),
                        lll,
                        distance,
                        has_mlp,
                    );
                }
            }
        }

        // Fold this cycle's allocations back into the running totals before any
        // stall-triggered flush (whose squashes decrement them again).
        self.totals = SharedTotals {
            rob: rob_total,
            lsq: lsq_total,
            iq_int: iq_int_total,
            iq_fp: iq_fp_total,
            rename_int: ren_int_total,
            rename_fp: ren_fp_total,
        };

        if shared_blocked {
            // Flip the stall flag and refresh the outstanding-load view in
            // place (saving the overwritten start-of-cycle values) instead of
            // cloning the snapshot for the policy callback.
            snapshot.resource_stalled = true;
            let mut stall_view = std::mem::take(&mut self.stall_view);
            stall_view.clear();
            for (i, ctx) in self.threads.iter().enumerate() {
                let t = &mut snapshot.threads[i];
                stall_view.push((t.outstanding_long_latency_loads, t.oldest_lll_cycle));
                t.outstanding_long_latency_loads = ctx.outstanding_lll.len() as u32;
                t.oldest_lll_cycle = ctx.oldest_lll_cycle();
            }
            let mut flushes = std::mem::take(&mut self.flushes);
            flushes.clear();
            self.policy.on_resource_stall(snapshot, &mut flushes);
            // An emitted flush is progress even when it squashes nothing: the
            // fetch-policy contract lets the policy change state only then.
            self.progress |= !flushes.is_empty();
            for req in flushes.drain(..) {
                self.apply_flush(req);
            }
            self.flushes = flushes;
            // Restore the start-of-cycle view: the fetch phase must see the
            // same snapshot the pre-refactor pipeline handed it.
            snapshot.resource_stalled = false;
            for (i, (lll, oldest)) in stall_view.drain(..).enumerate() {
                snapshot.threads[i].outstanding_long_latency_loads = lll;
                snapshot.threads[i].oldest_lll_cycle = oldest;
            }
            self.stall_view = stall_view;
        }
    }
}
