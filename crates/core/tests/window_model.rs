//! Model-based tests for the struct-of-arrays instruction window: a naive
//! `VecDeque`-of-structs reference model is driven through random
//! fetch/dispatch/issue/complete/commit/squash sequences in lockstep with
//! [`OpWindow`], asserting identical observable state after every step —
//! including the ready-bitmap issue candidates against the model's naive
//! rescan — plus a deterministic squash-at-wraparound regression test for the
//! ring buffer.

use std::collections::VecDeque;

use proptest::prelude::*;

use smt_core::pipeline::window::{OpWindow, NO_DEP};
use smt_types::{OpFlags, TraceOp};

/// The naive all-in-one-struct reference entry (what the pre-SoA pipeline kept
/// in its `VecDeque<InFlight>`).
#[derive(Clone, Debug)]
struct RefEntry {
    seq: u64,
    op: TraceOp,
    frontend_ready_at: u64,
    dispatched: bool,
    issued: bool,
    completed: bool,
    mispredicted: bool,
    predicted_taken: bool,
    src_dep_offsets: [u32; 2],
}

/// Reference model: program-order deque with front-to-back scans everywhere.
#[derive(Default)]
struct RefWindow {
    entries: VecDeque<RefEntry>,
}

impl RefWindow {
    fn first_undispatched_index(&self) -> usize {
        self.entries
            .iter()
            .position(|e| !e.dispatched)
            .unwrap_or(self.entries.len())
    }

    fn deps_ready(&self, idx: usize) -> bool {
        self.entries[idx].src_dep_offsets.iter().all(|&offset| {
            offset == NO_DEP
                || (offset as usize) > idx
                || self.entries[idx - offset as usize].completed
        })
    }

    fn resolve_dep_offsets(&self, idx: usize) -> [u32; 2] {
        let e = &self.entries[idx];
        let mut offsets = [NO_DEP; 2];
        for (out, dep) in offsets.iter_mut().zip(e.op.src_deps) {
            let Some(distance) = dep else { continue };
            if (distance as u64) >= e.seq {
                continue;
            }
            let producer_seq = e.seq - distance as u64;
            // Naive linear search, front to back.
            if let Some(pos) = self.entries.iter().position(|p| p.seq == producer_seq) {
                *out = (idx - pos) as u32;
            }
        }
        offsets
    }

    /// Dispatched, unissued, operands ready — in program order.
    fn issue_candidates(&self) -> Vec<u32> {
        (0..self.first_undispatched_index())
            .filter(|&i| !self.entries[i].issued && self.deps_ready(i))
            .map(|i| i as u32)
            .collect()
    }
}

/// Asserts that every observable column of `w` matches the reference deque.
fn assert_same_state(w: &OpWindow, r: &RefWindow) {
    assert_eq!(w.len(), r.entries.len());
    assert_eq!(w.is_empty(), r.entries.is_empty());
    assert_eq!(w.first_undispatched_index(), r.first_undispatched_index());
    for (i, e) in r.entries.iter().enumerate() {
        assert_eq!(w.seq_at(i), e.seq, "seq at {i}");
        assert_eq!(w.op_at(i), e.op, "op at {i}");
        assert_eq!(w.frontend_ready_at(i), e.frontend_ready_at, "ready at {i}");
        assert_eq!(w.src_dep_offsets_at(i), e.src_dep_offsets, "deps at {i}");
        let f = w.flags_at(i);
        assert_eq!(f.dispatched(), e.dispatched, "dispatched at {i}");
        assert_eq!(f.issued(), e.issued, "issued at {i}");
        assert_eq!(f.completed(), e.completed, "completed at {i}");
        assert_eq!(f.mispredicted(), e.mispredicted, "mispredicted at {i}");
        assert_eq!(f.predicted_taken(), e.predicted_taken, "ptaken at {i}");
        assert_eq!(w.deps_ready(i), r.deps_ready(i), "deps_ready at {i}");
        assert_eq!(
            w.is_ready(i),
            e.dispatched && !e.issued && r.deps_ready(i),
            "ready bit at {i}"
        );
        assert_eq!(
            w.position_of_seq(e.seq),
            Some(i),
            "position_of_seq {}",
            e.seq
        );
    }
}

/// One scripted action of the random driver. The parameter selects among the
/// currently legal targets, so every generated sequence is valid by
/// construction.
#[derive(Clone, Copy, Debug)]
enum Action {
    Fetch,
    Dispatch,
    Issue(u64),
    Complete(u64),
    Commit(u64),
    Squash(u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    (0u8..6, any::<u64>()).prop_map(|(kind, param)| match kind {
        0 => Action::Fetch,
        1 => Action::Dispatch,
        2 => Action::Issue(param),
        3 => Action::Complete(param),
        4 => Action::Commit(param),
        _ => Action::Squash(param),
    })
}

/// A deterministic little op generator so dependence resolution is exercised
/// with realistic producer distances.
fn op_for(seq: u64) -> TraceOp {
    let pc = 0x1000 + 4 * seq;
    match seq % 4 {
        0 => TraceOp::int_alu(pc).with_dep((seq % 3 + 1) as u32),
        1 => TraceOp::load(pc, 0x100 * seq).with_dep((seq % 5 + 1) as u32),
        2 => TraceOp::branch(pc, seq.is_multiple_of(2), pc + 0x40),
        _ => TraceOp::int_alu(pc)
            .with_dep(1)
            .with_dep((seq % 7 + 2) as u32),
    }
}

fn apply(action: Action, w: &mut OpWindow, r: &mut RefWindow, next_seq: &mut u64) {
    match action {
        Action::Fetch => {
            // Keep the window smaller than its (tiny) capacity so the ring
            // wraps many times per run.
            if w.len() == w.capacity() {
                return;
            }
            let seq = *next_seq;
            *next_seq += 1;
            let op = op_for(seq);
            let mut flags = OpFlags::default();
            flags.set_mispredicted(seq.is_multiple_of(11));
            flags.set_predicted_taken(seq.is_multiple_of(5));
            let ready_at = seq % 17;
            w.push_back(seq, op, ready_at, flags);
            r.entries.push_back(RefEntry {
                seq,
                op,
                frontend_ready_at: ready_at,
                dispatched: false,
                issued: false,
                completed: false,
                mispredicted: seq.is_multiple_of(11),
                predicted_taken: seq.is_multiple_of(5),
                src_dep_offsets: [NO_DEP; 2],
            });
        }
        Action::Dispatch => {
            let idx = r.first_undispatched_index();
            if idx == r.entries.len() {
                return;
            }
            let expect = r.resolve_dep_offsets(idx);
            let offsets = w.resolve_dep_offsets(idx);
            assert_eq!(offsets, expect, "dep resolution diverged at {idx}");
            w.set_src_dep_offsets(idx, offsets);
            w.mark_dispatched(idx);
            let e = &mut r.entries[idx];
            e.src_dep_offsets = expect;
            e.dispatched = true;
        }
        Action::Issue(param) => {
            let expect = r.issue_candidates();
            let mut got = Vec::new();
            w.ready_candidates(&mut got);
            assert_eq!(got, expect, "issue candidates diverged");
            if expect.is_empty() {
                return;
            }
            let idx = expect[(param % expect.len() as u64) as usize] as usize;
            w.mark_issued(idx);
            r.entries[idx].issued = true;
        }
        Action::Complete(param) => {
            let pending: Vec<usize> = (0..r.entries.len())
                .filter(|&i| r.entries[i].issued && !r.entries[i].completed)
                .collect();
            if pending.is_empty() {
                return;
            }
            let idx = pending[(param % pending.len() as u64) as usize];
            let seq = r.entries[idx].seq;
            // Completion events address instructions by window slot.
            assert_eq!(w.position_of_seq(seq), Some(idx));
            assert_eq!(w.index_of_slot(w.slot_of(idx)), idx);
            w.mark_completed(idx);
            r.entries[idx].completed = true;
        }
        Action::Commit(param) => {
            let width = param % 4 + 1;
            for _ in 0..width {
                let Some(front) = r.entries.front() else {
                    break;
                };
                if !(front.dispatched && front.issued && front.completed) {
                    break;
                }
                assert!(w.flags_at(0).commit_ready());
                w.pop_front();
                r.entries.pop_front();
            }
        }
        Action::Squash(param) => {
            if r.entries.is_empty() {
                return;
            }
            let keep_idx = (param % r.entries.len() as u64) as usize;
            let keep_up_to = r.entries[keep_idx].seq;
            while let Some(back) = r.entries.back() {
                if back.seq <= keep_up_to {
                    break;
                }
                let last = w.len() - 1;
                assert_eq!(w.seq_at(last), back.seq);
                w.pop_back();
                r.entries.pop_back();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA ring buffer and the naive deque-of-structs model agree on every
    /// observable after every random pipeline operation.
    #[test]
    fn op_window_matches_vecdeque_reference(
        actions in prop::collection::vec(action_strategy(), 1..600),
    ) {
        // Capacity 16 with up to 600 operations: the ring wraps repeatedly and
        // squashes regularly cross the wrap boundary.
        let mut w = OpWindow::new(16);
        let mut r = RefWindow::default();
        let mut next_seq = 1u64;
        for action in actions {
            apply(action, &mut w, &mut r, &mut next_seq);
            assert_same_state(&w, &r);
        }
        prop_assert!(w.position_of_seq(next_seq).is_none());
    }
}

/// The ready-bitmap scan of `ready_candidates` crosses 64-bit word
/// boundaries only in windows larger than one word; pin that path directly
/// with a production-sized (capacity 128) window, both head-aligned and with
/// the live region wrapping across the ring's end.
#[test]
fn issue_candidates_cross_bitmap_words() {
    for retire_first in [0usize, 100] {
        let mut w = OpWindow::new(128);
        let mut r = RefWindow::default();
        let mut next_seq = 1u64;
        // Optionally march the head forward so the live region starts at slot
        // 100 and wraps: fill, retire, then refill.
        for _ in 0..retire_first {
            apply(Action::Fetch, &mut w, &mut r, &mut next_seq);
            apply(Action::Dispatch, &mut w, &mut r, &mut next_seq);
            apply(Action::Issue(0), &mut w, &mut r, &mut next_seq);
            apply(Action::Complete(0), &mut w, &mut r, &mut next_seq);
            apply(Action::Commit(0), &mut w, &mut r, &mut next_seq);
        }
        assert!(w.is_empty());
        // 120 in-flight entries spanning two (aligned) or three (wrapped)
        // bitmap words; dispatch everything, then issue a scattered subset so
        // unissued bits survive in every word.
        for _ in 0..120 {
            apply(Action::Fetch, &mut w, &mut r, &mut next_seq);
        }
        for _ in 0..120 {
            apply(Action::Dispatch, &mut w, &mut r, &mut next_seq);
        }
        assert_eq!(w.len(), 120);
        for param in [0u64, 17, 63, 64, 65, 90, 118, 3, 77, 111, 40] {
            apply(Action::Issue(param), &mut w, &mut r, &mut next_seq);
        }
        let expect = r.issue_candidates();
        assert!(!expect.is_empty());
        let mut got = Vec::new();
        w.ready_candidates(&mut got);
        assert_eq!(got, expect, "retire_first={retire_first}");
        assert_same_state(&w, &r);
    }
}

/// Regression: squashing a suffix whose physical slots straddle the ring's
/// wrap point must leave exactly the kept prefix, with cursors clamped.
#[test]
fn squash_across_ring_wraparound() {
    let mut w = OpWindow::new(8); // capacity 8
                                  // Fill, retire the first six, and refill: head sits at slot 6, and the
                                  // window's 8 entries occupy slots 6,7,0,1,2,3,4,5 — wrapping physically.
    for seq in 1..=8u64 {
        w.push_back(seq, TraceOp::int_alu(0x40 + seq), 0, OpFlags::default());
    }
    for i in 0..6 {
        w.mark_dispatched(i);
        w.mark_issued(i);
        w.mark_completed(i);
    }
    for _ in 0..6 {
        w.pop_front();
    }
    for seq in 9..=14u64 {
        w.push_back(seq, TraceOp::int_alu(0x40 + seq), 0, OpFlags::default());
    }
    assert_eq!(w.len(), 8);
    // Dispatch and issue a few of the survivors so the squash crosses both
    // cursor positions and the wrap boundary.
    for i in 0..5 {
        w.mark_dispatched(i);
    }
    w.mark_issued(0);
    w.mark_issued(2);

    // Squash everything younger than seq 9: removes seqs 14..=10 whose slots
    // straddle the wrap point.
    while w.seq_at(w.len() - 1) > 9 {
        w.pop_back();
    }
    assert_eq!(w.len(), 3);
    let seqs: Vec<u64> = (0..w.len()).map(|i| w.seq_at(i)).collect();
    assert_eq!(seqs, vec![7, 8, 9]);
    // The dispatch cursor clamps to the shortened window: entries 0..3 stay
    // dispatched (the cursor was at 5, now clamps to 3), and the unissued
    // survivor (index 1) is the one issue candidate.
    assert_eq!(w.first_undispatched_index(), 3);
    let mut candidates = Vec::new();
    w.ready_candidates(&mut candidates);
    assert_eq!(candidates, vec![1]);
    assert_eq!(w.position_of_seq(9), Some(2));
    assert_eq!(w.position_of_seq(10), None);

    // The freed slots are reusable: refill to capacity across the wrap again.
    for seq in 20..=24u64 {
        w.push_back(seq, TraceOp::int_alu(0x80 + seq), 0, OpFlags::default());
    }
    assert_eq!(w.len(), 8);
    assert_eq!(w.seq_at(3), 20);
    assert_eq!(w.position_of_seq(24), Some(7));
}
