//! Struct-of-arrays ring buffer holding one thread's in-flight instructions.
//!
//! The window replaces a `VecDeque` of ~100-byte AoS records with parallel
//! columns (sequence numbers, trace ops, timestamps, dependence offsets and one
//! packed [`OpFlags`] word per slot) over a fixed power-of-two ring, so each
//! pipeline phase streams only the columns it actually reads: commit tests one
//! `u16` per head entry, the issue scan walks a ready bitmap, and writeback
//! addresses instructions by physical slot. A monotone first-undispatched
//! cursor lets dispatch resume where it stopped. Completion cycles live in
//! the core's completion calendar, not here.
//!
//! Issue readiness is event driven: dispatch registers each consumer with its
//! not-yet-completed producers, completion ([`OpWindow::mark_completed`])
//! wakes the registered consumers, and the issue scan walks a ready bitmap
//! instead of re-testing every blocked instruction each cycle. Consumer
//! lists are last-in, first-out, so the youngest consumer heads each list —
//! and since squash pops the youngest instruction, it always unlinks list
//! heads.
//!
//! Mutation is restricted to the three pipeline-shaped operations — push at the
//! back (fetch), pop at the front (commit), pop at the back (squash) — which is
//! what makes the dispatch-time dependence offsets, the dispatch cursor and
//! the consumer lists stable.

use smt_types::{OpFlags, TraceOp};

/// Sentinel marking an absent source-dependence offset (the producer was
/// outside the window at dispatch time, so the operand is always ready).
pub const NO_DEP: u32 = u32::MAX;

/// End-of-list marker of the consumer wake lists. Zero, so the lists start
/// out as zeroed memory the allocator need not touch until first use.
const NO_WAITER: u32 = 0;

/// Wake-list node of source `operand` of the consumer in `slot` (never
/// [`NO_WAITER`]).
#[inline(always)]
fn waiter_node(slot: usize, operand: usize) -> u32 {
    (slot * 2 + operand + 1) as u32
}

/// Fixed-capacity struct-of-arrays ring buffer of in-flight instructions, in
/// program order (front = oldest).
///
/// Logical index 0 is the oldest instruction; [`OpWindow::push_back`] appends
/// at fetch, [`OpWindow::pop_front`] retires at commit, [`OpWindow::pop_back`]
/// squashes from the youngest end. Sequence numbers are strictly increasing
/// from front to back.
///
/// # Example
///
/// ```
/// use smt_core::pipeline::window::OpWindow;
/// use smt_types::{OpFlags, TraceOp};
///
/// let mut w = OpWindow::new(8);
/// w.push_back(1, TraceOp::int_alu(0x40), 14, OpFlags::default());
/// w.push_back(2, TraceOp::int_alu(0x44), 14, OpFlags::default());
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.seq_at(0), 1);
/// w.mark_dispatched(0);
/// w.mark_issued(0);
/// w.mark_completed(0);
/// w.pop_front();
/// assert_eq!(w.seq_at(0), 2);
/// ```
#[derive(Clone, Debug)]
pub struct OpWindow {
    /// Physical index of logical slot 0.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Capacity - 1; capacity is a power of two.
    mask: usize,
    /// Entries ever popped from the front: the global position of logical 0.
    /// Cursors are stored in this monotone coordinate system so front pops
    /// never invalidate them.
    base: u64,
    /// Global position of the oldest undispatched instruction. Everything
    /// before it is dispatched; everything at or after it is not (dispatch is
    /// strictly in order).
    first_undispatched: u64,
    seq: Box<[u64]>,
    op: Box<[TraceOp]>,
    frontend_ready_at: Box<[u64]>,
    predicted_mlp_distance: Box<[u32]>,
    src_dep_offsets: Box<[[u32; 2]]>,
    flags: Box<[OpFlags]>,
    /// One bit per physical slot, set exactly while the slot holds a
    /// dispatched, unissued instruction whose producers have all completed.
    ready: Box<[u64]>,
    /// Number of set bits in `ready`, so a blocked thread's issue scan is
    /// skipped outright.
    ready_count: u32,
    /// Per slot: producers of the (dispatched) instruction that had not
    /// completed at dispatch and have not completed since.
    pending_producers: Box<[u8]>,
    /// Per producer slot: head of its consumer wake list, a node id
    /// [`waiter_node`] (or [`NO_WAITER`]).
    waiters: Box<[u32]>,
    /// Per consumer slot and source operand: the next node of the wake list
    /// the operand is registered in.
    next_waiter: Box<[[u32; 2]]>,
}

impl OpWindow {
    /// Creates a window able to hold at least `capacity` instructions (rounded
    /// up to the next power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        let capacity = capacity.next_power_of_two();
        OpWindow {
            head: 0,
            len: 0,
            mask: capacity - 1,
            base: 0,
            first_undispatched: 0,
            seq: vec![0; capacity].into_boxed_slice(),
            op: vec![TraceOp::int_alu(0); capacity].into_boxed_slice(),
            frontend_ready_at: vec![0; capacity].into_boxed_slice(),
            predicted_mlp_distance: vec![0; capacity].into_boxed_slice(),
            src_dep_offsets: vec![[NO_DEP; 2]; capacity].into_boxed_slice(),
            flags: vec![OpFlags::default(); capacity].into_boxed_slice(),
            ready: vec![0; capacity.div_ceil(64)].into_boxed_slice(),
            ready_count: 0,
            pending_producers: vec![0; capacity].into_boxed_slice(),
            waiters: vec![NO_WAITER; capacity].into_boxed_slice(),
            next_waiter: vec![[NO_WAITER; 2]; capacity].into_boxed_slice(),
        }
    }

    /// Number of instructions currently in flight.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no instructions.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline(always)]
    fn slot(&self, index: usize) -> usize {
        debug_assert!(index < self.len, "index {index} out of {}", self.len);
        (self.head + index) & self.mask
    }

    /// Physical slot of the instruction at logical `index` (the identity
    /// completion events carry).
    #[inline(always)]
    pub fn slot_of(&self, index: usize) -> usize {
        self.slot(index)
    }

    /// Logical index of the live instruction in physical `slot`.
    #[inline(always)]
    pub fn index_of_slot(&self, slot: usize) -> usize {
        let index = slot.wrapping_sub(self.head) & self.mask;
        debug_assert!(index < self.len, "slot {slot} is not live");
        index
    }

    // ------------------------------------------------------------ mutation

    /// Appends a fetched instruction at the back. `flags` carries the
    /// fetch-time bits (branch outcome replay); all pipeline-progress bits
    /// must be clear.
    ///
    /// # Panics
    ///
    /// Panics if the window is full or `seq` does not exceed the youngest
    /// in-flight sequence number.
    #[inline]
    pub fn push_back(&mut self, seq: u64, op: TraceOp, frontend_ready_at: u64, flags: OpFlags) {
        assert!(self.len <= self.mask, "instruction window overflow");
        debug_assert!(
            !(flags.dispatched() || flags.issued() || flags.completed()),
            "fetch-time flags must not carry pipeline progress"
        );
        debug_assert!(
            self.len == 0 || self.seq_at(self.len - 1) < seq,
            "sequence numbers must be strictly increasing"
        );
        let slot = (self.head + self.len) & self.mask;
        self.seq[slot] = seq;
        self.op[slot] = op;
        self.frontend_ready_at[slot] = frontend_ready_at;
        self.predicted_mlp_distance[slot] = 0;
        self.src_dep_offsets[slot] = [NO_DEP; 2];
        self.flags[slot] = flags;
        debug_assert!(self.ready[slot / 64] & (1 << (slot % 64)) == 0);
        debug_assert_eq!(self.waiters[slot], NO_WAITER);
        self.len += 1;
    }

    /// Retires the oldest instruction (callers read its columns at logical
    /// index 0 first).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the window is empty.
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop_front on empty window");
        debug_assert!(
            self.flags[self.head].issued(),
            "pop_front may only retire issued instructions"
        );
        // A retiring producer has completed, which emptied its wake list.
        debug_assert_eq!(self.waiters[self.head], NO_WAITER);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.base += 1;
        // Commit only retires dispatched instructions, so the dispatch cursor
        // can never fall behind the new front.
        debug_assert!(self.first_undispatched >= self.base);
    }

    /// Squashes the youngest instruction (callers read its columns at logical
    /// index `len() - 1` first). The dispatch cursor is clamped to the
    /// shortened window — the one sanctioned way it moves backwards — and a
    /// dispatched instruction leaves the wake lists of its pending producers,
    /// where as the youngest consumer it is always the head.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the window is empty.
    #[inline]
    pub fn pop_back(&mut self) {
        debug_assert!(self.len > 0, "pop_back on empty window");
        let index = self.len - 1;
        let slot = self.slot(index);
        // Younger consumers were squashed first and unlinked themselves.
        debug_assert_eq!(self.waiters[slot], NO_WAITER);
        if self.flags[slot].dispatched() && !self.flags[slot].issued() {
            let offsets = self.src_dep_offsets[slot];
            for operand in (0..2).rev() {
                if let Some(producer) = self.pending_producer(index, offsets, operand) {
                    let node = waiter_node(slot, operand);
                    debug_assert_eq!(
                        self.waiters[producer], node,
                        "squashed consumer not at head"
                    );
                    self.waiters[producer] = self.next_waiter[slot][operand];
                }
            }
            self.clear_ready(slot);
        }
        self.len -= 1;
        let end = self.base + self.len as u64;
        self.first_undispatched = self.first_undispatched.min(end);
    }

    /// Physical slot of the producer of source `operand` of the instruction
    /// at logical `index` (with dependence `offsets`), if that producer is
    /// in the window and has not completed — i.e. if the operand is
    /// registered in the producer's wake list. Two operands naming the same
    /// producer register once, through operand 0.
    #[inline]
    fn pending_producer(&self, index: usize, offsets: [u32; 2], operand: usize) -> Option<usize> {
        let offset = offsets[operand];
        if offset == NO_DEP || offset as usize > index || (operand == 1 && offsets[0] == offset) {
            return None;
        }
        let producer = self.slot(index - offset as usize);
        (!self.flags[producer].completed()).then_some(producer)
    }

    // ------------------------------------------------------------ cursors

    /// Logical index of the oldest undispatched instruction — where the
    /// in-order dispatch phase resumes. Equals `len()` when everything in the
    /// window has dispatched.
    #[inline(always)]
    pub fn first_undispatched_index(&self) -> usize {
        (self.first_undispatched - self.base) as usize
    }

    /// Marks the instruction at `index` dispatched and advances the dispatch
    /// cursor past it. Dispatch is strictly in order: `index` must be exactly
    /// [`OpWindow::first_undispatched_index`].
    ///
    /// The instruction registers in the wake list of every producer (named
    /// by the offsets stored with [`OpWindow::set_src_dep_offsets`]) that has
    /// not completed yet; with none pending it is ready to issue at once.
    #[inline]
    pub fn mark_dispatched(&mut self, index: usize) {
        debug_assert_eq!(
            index,
            self.first_undispatched_index(),
            "dispatch must proceed in order (cursor may never move backwards)"
        );
        let slot = self.slot(index);
        debug_assert!(!self.flags[slot].dispatched());
        self.flags[slot].set_dispatched(true);
        self.first_undispatched += 1;
        let offsets = self.src_dep_offsets[slot];
        let mut pending = 0;
        for operand in 0..2 {
            if let Some(producer) = self.pending_producer(index, offsets, operand) {
                self.next_waiter[slot][operand] = self.waiters[producer];
                self.waiters[producer] = waiter_node(slot, operand);
                pending += 1;
            }
        }
        self.pending_producers[slot] = pending;
        if pending == 0 {
            self.set_ready(slot);
        }
    }

    #[inline(always)]
    fn set_ready(&mut self, slot: usize) {
        debug_assert!(self.ready[slot / 64] & (1 << (slot % 64)) == 0);
        self.ready[slot / 64] |= 1 << (slot % 64);
        self.ready_count += 1;
    }

    #[inline(always)]
    fn clear_ready(&mut self, slot: usize) {
        let bit = 1 << (slot % 64);
        if self.ready[slot / 64] & bit != 0 {
            self.ready[slot / 64] &= !bit;
            self.ready_count -= 1;
        }
    }

    /// Marks the (dispatched, unissued, ready) instruction at logical `index`
    /// as issued, clearing its ready bit.
    #[inline]
    pub fn mark_issued(&mut self, index: usize) {
        let slot = self.slot(index);
        debug_assert!(self.flags[slot].dispatched() && !self.flags[slot].issued());
        self.flags[slot].set_issued(true);
        self.clear_ready(slot);
    }

    /// Marks the issued instruction at logical `index` completed and wakes
    /// its registered consumers: each loses one pending producer and turns
    /// ready when none is left.
    #[inline]
    pub fn mark_completed(&mut self, index: usize) {
        let slot = self.slot(index);
        debug_assert!(self.flags[slot].issued() && !self.flags[slot].completed());
        self.flags[slot].set_completed(true);
        let mut node = std::mem::replace(&mut self.waiters[slot], NO_WAITER);
        while node != NO_WAITER {
            let (consumer, operand) = ((node as usize - 1) / 2, (node as usize - 1) % 2);
            node = self.next_waiter[consumer][operand];
            self.pending_producers[consumer] -= 1;
            if self.pending_producers[consumer] == 0 {
                self.set_ready(consumer);
            }
        }
    }

    /// Appends to `out` the logical index of every instruction that can
    /// issue — dispatched, unissued, all producers completed — in program
    /// order: one pass over the ready bitmap from the head slot around the
    /// ring, never touching a blocked instruction.
    ///
    /// Readiness is stable for the duration of an issue phase (ready bits
    /// are only set at dispatch and writeback), so collecting up front is
    /// equivalent to re-testing each candidate mid-scan.
    pub fn ready_candidates(&self, out: &mut Vec<u32>) {
        if self.ready_count == 0 {
            return;
        }
        let words = self.ready.len();
        let head_bit = self.head % 64;
        let mut w = self.head / 64;
        let mut bits = self.ready[w] & (u64::MAX << head_bit);
        // Visit the head word's upper part, every other word in ring order,
        // then the head word's slots below the head.
        let mut words_left = words;
        loop {
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                out.push((slot.wrapping_sub(self.head) & self.mask) as u32);
                bits &= bits - 1;
            }
            if words_left == 0 {
                break;
            }
            words_left -= 1;
            w += 1;
            if w == words {
                w = 0;
            }
            bits = self.ready[w];
            if words_left == 0 {
                bits &= !(u64::MAX << head_bit);
            }
        }
    }

    /// Whether the ready bit of the instruction at logical `index` is set
    /// (debug invariant checks compare it with [`OpWindow::deps_ready`]).
    pub fn is_ready(&self, index: usize) -> bool {
        let slot = self.slot(index);
        self.ready[slot / 64] >> (slot % 64) & 1 == 1
    }

    // ------------------------------------------------------------ lookup

    /// Logical index of the in-flight instruction with sequence number `seq`,
    /// if present. Sequence numbers are dense except across squash gaps, so
    /// the common case is a single O(1) probe at `seq - front_seq`; the
    /// fallback is a binary search over the (strictly increasing) sequence
    /// column.
    pub fn position_of_seq(&self, seq: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let front = self.seq[self.head];
        if seq < front {
            return None;
        }
        let guess = (seq - front) as usize;
        if guess < self.len && self.seq[(self.head + guess) & self.mask] == seq {
            return Some(guess);
        }
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let s = self.seq[(self.head + mid) & self.mask];
            if s < seq {
                lo = mid + 1;
            } else if s > seq {
                hi = mid;
            } else {
                return Some(mid);
            }
        }
        None
    }

    // ------------------------------------------------------------ columns

    /// Sequence number of the instruction at logical `index`.
    #[inline(always)]
    pub fn seq_at(&self, index: usize) -> u64 {
        self.seq[self.slot(index)]
    }

    /// Trace operation of the instruction at logical `index`.
    #[inline(always)]
    pub fn op_at(&self, index: usize) -> TraceOp {
        self.op[self.slot(index)]
    }

    /// Cycle at which the instruction at logical `index` has traversed the
    /// front end and may dispatch.
    #[inline(always)]
    pub fn frontend_ready_at(&self, index: usize) -> u64 {
        self.frontend_ready_at[self.slot(index)]
    }

    /// Predicted (or detection-time) MLP distance of the load at logical
    /// `index`.
    #[inline(always)]
    pub fn predicted_mlp_distance_at(&self, index: usize) -> u32 {
        self.predicted_mlp_distance[self.slot(index)]
    }

    /// Sets the predicted MLP distance of the load at logical `index`.
    #[inline(always)]
    pub fn set_predicted_mlp_distance(&mut self, index: usize, distance: u32) {
        let slot = self.slot(index);
        self.predicted_mlp_distance[slot] = distance;
    }

    /// Source-dependence offsets of the instruction at logical `index`
    /// ([`NO_DEP`] = no in-window producer).
    #[inline(always)]
    pub fn src_dep_offsets_at(&self, index: usize) -> [u32; 2] {
        self.src_dep_offsets[self.slot(index)]
    }

    /// Stores the dispatch-time dependence offsets of the instruction at
    /// logical `index`.
    #[inline(always)]
    pub fn set_src_dep_offsets(&mut self, index: usize, offsets: [u32; 2]) {
        let slot = self.slot(index);
        self.src_dep_offsets[slot] = offsets;
    }

    /// Packed status flags of the instruction at logical `index`.
    #[inline(always)]
    pub fn flags_at(&self, index: usize) -> OpFlags {
        self.flags[self.slot(index)]
    }

    /// Mutable access to the packed status flags at logical `index`.
    ///
    /// The `dispatched`, `issued` and `completed` bits must be set through
    /// [`OpWindow::mark_dispatched`], [`OpWindow::mark_issued`] and
    /// [`OpWindow::mark_completed`] so the dispatch cursor and the ready
    /// bitmap stay consistent.
    #[inline(always)]
    pub fn flags_mut(&mut self, index: usize) -> &mut OpFlags {
        let slot = self.slot(index);
        &mut self.flags[slot]
    }

    /// Whether the source operands of the instruction at logical `index` are
    /// available, using the producer offsets resolved at dispatch: a live
    /// producer sits exactly `offset` slots earlier; an offset beyond `index`
    /// means the producer has committed (its value is available).
    #[inline]
    pub fn deps_ready(&self, index: usize) -> bool {
        let [a, b] = self.src_dep_offsets[self.slot(index)];
        for offset in [a, b] {
            if offset == NO_DEP {
                continue;
            }
            let offset = offset as usize;
            if offset <= index && !self.flags[self.slot(index - offset)].completed() {
                return false;
            }
        }
        true
    }

    /// Resolves the source-operand producers of the (about to dispatch)
    /// instruction at logical `index` into backward slot offsets, once. The
    /// common case (no squash gap in the sequence numbers between producer and
    /// consumer) is a single O(1) probe; after a squash gap it falls back to a
    /// binary search. A missing producer (already committed, or unreachable
    /// across a squash) yields [`NO_DEP`] = always ready.
    pub fn resolve_dep_offsets(&self, index: usize) -> [u32; 2] {
        let slot = self.slot(index);
        let seq = self.seq[slot];
        let op = &self.op[slot];
        let mut offsets = [NO_DEP; 2];
        for (out, dep) in offsets.iter_mut().zip(op.src_deps) {
            let Some(distance) = dep else { continue };
            let distance = distance as u64;
            if distance >= seq {
                continue;
            }
            let producer_seq = seq - distance;
            let pos = match (index as u64).checked_sub(distance) {
                Some(pos) if self.seq_at(pos as usize) == producer_seq => Some(pos as usize),
                _ => self.position_of_seq(producer_seq),
            };
            if let Some(pos) = pos {
                *out = (index - pos) as u32;
            }
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn push(w: &mut OpWindow, seq: u64) {
        w.push_back(
            seq,
            TraceOp::int_alu(0x40 + 4 * seq),
            14,
            OpFlags::default(),
        );
    }

    /// The per-cycle rescan the ready bitmap replaced, kept as the oracle:
    /// every dispatched, unissued instruction whose operands are ready per
    /// [`OpWindow::deps_ready`], in program order, via an unissued-slot
    /// bitmap (rebuilt here from the flags column; the window no longer
    /// keeps one).
    fn collect_issue_candidates(w: &OpWindow, out: &mut Vec<u32>) {
        let mut unissued = vec![0u64; w.capacity().div_ceil(64)];
        for (slot, flags) in w.flags.iter().enumerate() {
            if !flags.issued() {
                unissued[slot / 64] |= 1 << (slot % 64);
            }
        }
        let end = w.first_undispatched_index();
        let mut idx = 0;
        while idx < end {
            let slot = (w.head + idx) & w.mask;
            // The physical run from `slot` is contiguous until the ring wraps
            // or the dispatched region ends.
            let run = (w.capacity() - slot).min(end - idx);
            let run_end = slot + run;
            let mut word_idx = slot / 64;
            let mut word = unissued[word_idx] >> (slot % 64) << (slot % 64);
            'words: loop {
                while word != 0 {
                    let bit = (word_idx * 64) + word.trailing_zeros() as usize;
                    if bit >= run_end {
                        break 'words;
                    }
                    let candidate = idx + (bit - slot);
                    if w.deps_ready(candidate) {
                        out.push(candidate as u32);
                    }
                    word &= word - 1;
                }
                word_idx += 1;
                if word_idx * 64 >= run_end {
                    break;
                }
                word = unissued[word_idx];
            }
            idx += run;
        }
    }

    fn ready_list(w: &OpWindow) -> Vec<u32> {
        let mut out = Vec::new();
        w.ready_candidates(&mut out);
        out
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(OpWindow::new(1).capacity(), 1);
        assert_eq!(OpWindow::new(5).capacity(), 8);
        assert_eq!(OpWindow::new(312).capacity(), 512);
    }

    #[test]
    fn ring_wraps_across_capacity() {
        let mut w = OpWindow::new(4);
        for seq in 1..=4 {
            push(&mut w, seq);
        }
        // Retire two, fetch two more: the new entries reuse the freed slots.
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        w.mark_issued(0);
        w.mark_issued(1);
        w.mark_completed(0);
        w.mark_completed(1);
        w.pop_front();
        w.pop_front();
        push(&mut w, 5);
        push(&mut w, 6);
        assert_eq!(w.len(), 4);
        let seqs: Vec<u64> = (0..w.len()).map(|i| w.seq_at(i)).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert_eq!(w.position_of_seq(5), Some(2));
        assert_eq!(w.position_of_seq(2), None);
        assert_eq!(w.index_of_slot(w.slot_of(3)), 3);
    }

    #[test]
    fn cursors_track_dispatch_and_issue() {
        let mut w = OpWindow::new(8);
        for seq in 1..=5 {
            push(&mut w, seq);
        }
        assert_eq!(w.first_undispatched_index(), 0);
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        w.mark_dispatched(2);
        assert_eq!(w.first_undispatched_index(), 3);
        // No deps in this test: everything dispatched is ready at once.
        assert_eq!(ready_list(&w), vec![0, 1, 2]);
        // Issue out of order: 0 and 2, leaving 1.
        w.mark_issued(0);
        w.mark_issued(2);
        assert_eq!(ready_list(&w), vec![1]);
        w.mark_issued(1);
        assert!(ready_list(&w).is_empty());
    }

    #[test]
    fn squash_clamps_cursors() {
        let mut w = OpWindow::new(8);
        for seq in 1..=4 {
            push(&mut w, seq);
        }
        for i in 0..4 {
            w.mark_dispatched(i);
        }
        w.mark_issued(0);
        w.mark_issued(1);
        w.pop_back();
        w.pop_back();
        assert_eq!(w.first_undispatched_index(), 2);
        assert!(ready_list(&w).is_empty());
        push(&mut w, 9);
        assert_eq!(w.first_undispatched_index(), 2);
        assert!(ready_list(&w).is_empty());
    }

    #[test]
    fn dep_offsets_resolve_and_probe() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        push(&mut w, 2);
        let op = TraceOp::int_alu(0x100).with_dep(1).with_dep(2);
        w.push_back(3, op, 14, OpFlags::default());
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        let offsets = w.resolve_dep_offsets(2);
        assert_eq!(offsets, [1, 2]);
        w.set_src_dep_offsets(2, offsets);
        w.mark_dispatched(2);
        assert!(!w.deps_ready(2) && !w.is_ready(2));
        w.mark_issued(0);
        w.mark_issued(1);
        w.mark_completed(0);
        assert!(!w.is_ready(2));
        w.mark_completed(1);
        assert!(w.deps_ready(2) && w.is_ready(2));
        assert_eq!(ready_list(&w), vec![2]);
    }

    #[test]
    fn same_producer_on_both_operands_registers_once() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        let op = TraceOp::int_alu(0x100).with_dep(1).with_dep(1);
        w.push_back(2, op, 14, OpFlags::default());
        w.mark_dispatched(0);
        let offsets = w.resolve_dep_offsets(1);
        assert_eq!(offsets, [1, 1]);
        w.set_src_dep_offsets(1, offsets);
        w.mark_dispatched(1);
        assert!(!w.is_ready(1));
        // Squash the consumer (unlinks its one registration), then re-check
        // the producer's list is empty by completing it.
        w.pop_back();
        w.mark_issued(0);
        w.mark_completed(0);
        w.pop_front();
        assert!(w.is_empty());
    }

    #[test]
    fn committed_producer_is_always_ready() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        w.mark_dispatched(0);
        w.mark_issued(0);
        w.mark_completed(0);
        w.pop_front();
        let op = TraceOp::int_alu(0x100).with_dep(1);
        w.push_back(2, op, 14, OpFlags::default());
        // Producer seq 1 has committed: no in-window position, offset = NO_DEP.
        let offsets = w.resolve_dep_offsets(0);
        assert_eq!(offsets, [NO_DEP, NO_DEP]);
        w.set_src_dep_offsets(0, offsets);
        w.mark_dispatched(0);
        assert!(w.deps_ready(0) && w.is_ready(0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut w = OpWindow::new(2);
        for seq in 1..=3 {
            push(&mut w, seq);
        }
    }

    /// One random pipeline operation; the parameter picks among the legal
    /// targets, so every sequence is valid by construction.
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
        (0u8..7, any::<u64>()).prop_map(|(kind, param)| match kind {
            0 | 1 => Action::Fetch,
            2 => Action::Dispatch,
            3 => Action::Issue(param),
            4 => Action::Complete(param),
            5 => Action::Commit(param),
            _ => Action::Squash(param),
        })
    }

    /// Ops with short producer distances (often both operands on one
    /// producer) so wake lists grow several consumers deep.
    fn op_for(seq: u64) -> TraceOp {
        let pc = 0x1000 + 4 * seq;
        match seq % 5 {
            0 => TraceOp::int_alu(pc).with_dep((seq % 3 + 1) as u32),
            1 => TraceOp::load(pc, 0x40 * seq).with_dep(1).with_dep(1),
            2 => TraceOp::int_alu(pc),
            3 => TraceOp::int_alu(pc)
                .with_dep(2)
                .with_dep((seq % 4 + 1) as u32),
            _ => TraceOp::int_alu(pc).with_dep((seq % 9 + 1) as u32),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The ready-bitmap candidate list equals the old per-cycle rescan
        /// after every random dispatch/complete/issue/squash/commit step,
        /// with a 16-slot ring that wraps many times per run.
        #[test]
        fn ready_bitmap_matches_rescan_oracle(
            actions in prop::collection::vec(action_strategy(), 1..700),
        ) {
            let mut w = OpWindow::new(16);
            let mut next_seq = 1u64;
            for action in actions {
                match action {
                    Action::Fetch => {
                        if w.len() < w.capacity() {
                            w.push_back(next_seq, op_for(next_seq), 0, OpFlags::default());
                            next_seq += 1;
                        }
                    }
                    Action::Dispatch => {
                        let idx = w.first_undispatched_index();
                        if idx < w.len() {
                            let offsets = w.resolve_dep_offsets(idx);
                            w.set_src_dep_offsets(idx, offsets);
                            w.mark_dispatched(idx);
                        }
                    }
                    Action::Issue(param) => {
                        let ready = ready_list(&w);
                        if !ready.is_empty() {
                            w.mark_issued(ready[(param % ready.len() as u64) as usize] as usize);
                        }
                    }
                    Action::Complete(param) => {
                        let pending: Vec<usize> = (0..w.len())
                            .filter(|&i| w.flags_at(i).issued() && !w.flags_at(i).completed())
                            .collect();
                        if !pending.is_empty() {
                            w.mark_completed(pending[(param % pending.len() as u64) as usize]);
                        }
                    }
                    Action::Commit(param) => {
                        for _ in 0..param % 4 + 1 {
                            if w.is_empty() || !w.flags_at(0).completed() {
                                break;
                            }
                            w.pop_front();
                        }
                    }
                    Action::Squash(param) => {
                        if !w.is_empty() {
                            let keep = (param % w.len() as u64) as usize;
                            while w.len() > keep + 1 {
                                w.pop_back();
                            }
                        }
                    }
                }
                let mut expect = Vec::new();
                collect_issue_candidates(&w, &mut expect);
                prop_assert_eq!(ready_list(&w), expect);
                for i in 0..w.len() {
                    let f = w.flags_at(i);
                    let live = f.dispatched() && !f.issued() && w.deps_ready(i);
                    prop_assert_eq!(w.is_ready(i), live, "ready bit of index {}", i);
                }
            }
        }
    }
}
