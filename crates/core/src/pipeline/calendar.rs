//! Calendar queue of execution-completion events.
//!
//! Every issued, not yet completed instruction owns exactly one pending
//! completion event, and every such instruction holds a reorder-buffer
//! entry, so the queue is a fixed pool of `rob_size` event nodes allocated
//! once when the core is built. Events hang off a wheel of `span` buckets
//! (one bucket per cycle modulo the span) as circular doubly linked lists
//! with sentinel heads; events due `span` or more cycles past the delivery
//! horizon wait in one unsorted overflow list and migrate onto the wheel as
//! the horizon approaches them.
//!
//! Delivery order is exactly the `(done_at, thread, seq)` order of the
//! min-heap this queue replaces: each wheel bucket holds a single
//! completion cycle and stays sorted by `(thread, seq)`. A squashed
//! instruction's event is unlinked on the spot ([`CompletionQueue::remove`])
//! instead of lingering until its cycle, so the queue never holds stale
//! events and the next due cycle ([`CompletionQueue::next_due`]) is exact —
//! the wake source the pipeline's quiescent fast path sleeps on.

/// End-of-list marker of the free-node stack.
const NO_NODE: u32 = u32::MAX;

/// Links of one list node: a bucket/overflow sentinel or an event node.
#[derive(Clone, Copy, Debug)]
struct Link {
    next: u32,
    prev: u32,
}

/// Payload of one event node.
#[derive(Clone, Copy, Debug, Default)]
struct Event {
    /// Completion cycle.
    done_at: u64,
    /// `(thread << SEQ_BITS) | seq`: the within-cycle delivery key.
    key: u64,
    /// The instruction's `(thread << slot_bits) | slot` window position.
    owner: u32,
}

/// Bits of the delivery key holding the sequence number.
const SEQ_BITS: u32 = 56;

/// A delivered completion event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Completion {
    /// Cycle the instruction's execution completes.
    pub done_at: u64,
    /// Hardware thread of the instruction.
    pub thread: usize,
    /// Physical window slot of the instruction.
    pub slot: usize,
    /// Sequence number of the instruction.
    pub seq: u64,
}

/// Fixed-capacity calendar queue of completion events (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct CompletionQueue {
    /// `[0, span)` bucket sentinels, `span` the overflow sentinel, then the
    /// event nodes (free ones chained through `next` from `free`).
    links: Box<[Link]>,
    /// Payload of event node `span + 1 + i` at index `i`.
    events: Box<[Event]>,
    /// Per `(thread << slot_bits) | slot`: the node of the slot's pending
    /// event, or 0 (a sentinel, never an event node) when it has none.
    slot_nodes: Box<[u32]>,
    /// Top of the free-node stack.
    free: u32,
    /// One bit per wheel bucket, set while the bucket holds an event.
    occupied: Box<[u64]>,
    /// `span - 1`; the span is a power of two.
    span_mask: u64,
    /// log2 of the window slots per thread.
    slot_bits: u32,
    /// Delivery horizon: every event due before `base` has been delivered,
    /// the wheel holds events due in `[base, base + span)`, and the overflow
    /// list holds the later ones.
    base: u64,
    /// Events in the queue (wheel plus overflow).
    len: usize,
    /// Events in the overflow list.
    overflow_len: usize,
    /// Earliest completion cycle in the overflow list (`u64::MAX` if empty).
    overflow_min: u64,
}

impl CompletionQueue {
    /// Creates an empty queue for `threads` threads of `slots_per_thread`
    /// window slots each, holding at most `capacity` pending events, with a
    /// wheel of `span` one-cycle buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `slots_per_thread` and `span` are powers of two.
    pub(crate) fn new(
        threads: usize,
        slots_per_thread: usize,
        capacity: usize,
        span: usize,
    ) -> Self {
        assert!(slots_per_thread.is_power_of_two() && span.is_power_of_two());
        let sentinels = span + 1;
        let total = sentinels + capacity;
        assert!(total < NO_NODE as usize, "completion queue too large");
        let links = (0..total)
            .map(|i| {
                if i < sentinels {
                    Link {
                        next: i as u32,
                        prev: i as u32,
                    }
                } else {
                    // Free nodes form a stack through `next`.
                    let next = if i + 1 < total { i as u32 + 1 } else { NO_NODE };
                    Link {
                        next,
                        prev: NO_NODE,
                    }
                }
            })
            .collect();
        CompletionQueue {
            links,
            events: vec![Event::default(); capacity].into_boxed_slice(),
            slot_nodes: vec![0; threads * slots_per_thread].into_boxed_slice(),
            free: if capacity > 0 {
                sentinels as u32
            } else {
                NO_NODE
            },
            occupied: vec![0; span.div_ceil(64)].into_boxed_slice(),
            span_mask: span as u64 - 1,
            slot_bits: slots_per_thread.trailing_zeros(),
            base: 0,
            len: 0,
            overflow_len: 0,
            overflow_min: u64::MAX,
        }
    }

    /// Number of pending events.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn span(&self) -> u64 {
        self.span_mask + 1
    }

    fn overflow_sentinel(&self) -> u32 {
        self.span() as u32
    }

    fn event(&self, node: u32) -> &Event {
        &self.events[node as usize - self.span() as usize - 1]
    }

    fn event_mut(&mut self, node: u32) -> &mut Event {
        let first = self.span() as usize + 1;
        &mut self.events[node as usize - first]
    }

    fn in_wheel(&self, done_at: u64) -> bool {
        done_at - self.base < self.span()
    }

    /// Schedules the completion of instruction `seq`, held in `slot` of
    /// `thread`'s window, at cycle `done_at`.
    ///
    /// # Panics
    ///
    /// Panics if more events are pending than the queue's capacity (the
    /// ROB size: every pending instruction holds a ROB entry), and in debug
    /// builds if the slot already has a pending event or `done_at` lies
    /// before the delivery horizon.
    pub(crate) fn push(&mut self, done_at: u64, thread: usize, slot: usize, seq: u64) {
        debug_assert!(done_at >= self.base, "event scheduled in the past");
        debug_assert!(seq < 1 << SEQ_BITS);
        let owner = (thread << self.slot_bits) | slot;
        debug_assert_eq!(self.slot_nodes[owner], 0, "slot already pending");
        let node = self.free;
        assert_ne!(node, NO_NODE, "more pending completions than ROB entries");
        self.free = self.links[node as usize].next;
        self.slot_nodes[owner] = node;
        *self.event_mut(node) = Event {
            done_at,
            key: ((thread as u64) << SEQ_BITS) | seq,
            owner: owner as u32,
        };
        if self.in_wheel(done_at) {
            self.insert_sorted(node);
        } else {
            let sentinel = self.overflow_sentinel();
            self.link_after(sentinel, node);
            self.overflow_len += 1;
            self.overflow_min = self.overflow_min.min(done_at);
        }
        self.len += 1;
    }

    /// Removes the pending event of `slot` in `thread`'s window (its
    /// instruction was squashed), returning its completion cycle.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slot has no pending event.
    pub(crate) fn remove(&mut self, thread: usize, slot: usize) -> u64 {
        let node = std::mem::take(&mut self.slot_nodes[(thread << self.slot_bits) | slot]);
        debug_assert_ne!(node, 0, "no pending event");
        let done_at = self.event(node).done_at;
        self.unlink(node);
        if self.in_wheel(done_at) {
            self.clear_if_empty(done_at);
        } else {
            self.overflow_len -= 1;
            if done_at == self.overflow_min {
                self.overflow_min = self.scan_overflow_min();
            }
        }
        self.release(node);
        done_at
    }

    /// The earliest pending completion cycle, if any. Bounded by one pass
    /// over the `span / 64` occupancy words.
    pub(crate) fn next_due(&self) -> Option<u64> {
        if self.len == self.overflow_len {
            return (self.overflow_len > 0).then_some(self.overflow_min);
        }
        // Wheel events are due in [base, base + span), one cycle per bucket:
        // the first occupied bucket at or after `base` (circularly) holds the
        // earliest one.
        let words = self.occupied.len();
        let start = (self.base & self.span_mask) as usize;
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (u64::MAX << (start % 64));
        // At most one lap: the start word's upper part, the other words,
        // then the start word again (its lower part, i.e. the latest cycles).
        for _ in 0..=words {
            if bits != 0 {
                let bucket = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.event(self.links[bucket].next).done_at);
            }
            w += 1;
            if w == words {
                w = 0;
            }
            bits = self.occupied[w];
        }
        unreachable!("wheel events present but no bucket occupied")
    }

    /// Removes and returns the next event due at or before `now`, in
    /// `(done_at, thread, seq)` order. Once it returns `None` every event
    /// due by `now` has been delivered and the horizon moves to `now + 1`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<Completion> {
        while self.base <= now {
            // The horizon's bucket holds exactly the events due at `base`.
            let bucket = (self.base & self.span_mask) as u32;
            let node = self.links[bucket as usize].next;
            if node != bucket {
                self.unlink(node);
                self.clear_if_empty(self.base);
                let Event {
                    done_at,
                    key,
                    owner,
                } = *self.event(node);
                self.slot_nodes[owner as usize] = 0;
                self.release(node);
                let owner = owner as usize;
                return Some(Completion {
                    done_at,
                    thread: owner >> self.slot_bits,
                    slot: owner & ((1 << self.slot_bits) - 1),
                    seq: key & ((1 << SEQ_BITS) - 1),
                });
            }
            // Nothing is due at `base`: jump to the next due cycle, or past
            // `now` when nothing else is due by then.
            match self.next_due() {
                Some(due) if due <= now => self.advance(due),
                _ => self.advance(now + 1),
            }
        }
        None
    }

    /// Returns an unlinked event node to the free stack.
    fn release(&mut self, node: u32) {
        self.links[node as usize].next = self.free;
        self.free = node;
        self.len -= 1;
    }

    /// Moves the delivery horizon to `to` (no wheel event may be due before
    /// it) and migrates overflow events that now fall inside the wheel.
    fn advance(&mut self, to: u64) {
        debug_assert!(to >= self.base);
        self.base = to;
        if self.overflow_len == 0 || self.overflow_min - to >= self.span() {
            return;
        }
        let sentinel = self.overflow_sentinel();
        let mut node = self.links[sentinel as usize].next;
        let mut min = u64::MAX;
        while node != sentinel {
            let next = self.links[node as usize].next;
            let done_at = self.event(node).done_at;
            if self.in_wheel(done_at) {
                self.unlink(node);
                self.overflow_len -= 1;
                self.insert_sorted(node);
            } else {
                min = min.min(done_at);
            }
            node = next;
        }
        self.overflow_min = min;
    }

    /// Inserts `node` into its wheel bucket, keeping the bucket sorted by
    /// delivery key. Events mostly arrive in key order, so the walk starts
    /// at the tail.
    fn insert_sorted(&mut self, node: u32) {
        let Event { done_at, key, .. } = *self.event(node);
        let bucket = (done_at & self.span_mask) as u32;
        let mut after = self.links[bucket as usize].prev;
        while after != bucket && self.event(after).key > key {
            after = self.links[after as usize].prev;
        }
        self.link_after(after, node);
        let b = bucket as usize;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    fn link_after(&mut self, after: u32, node: u32) {
        let next = self.links[after as usize].next;
        self.links[node as usize] = Link { next, prev: after };
        self.links[after as usize].next = node;
        self.links[next as usize].prev = node;
    }

    fn unlink(&mut self, node: u32) {
        let Link { next, prev } = self.links[node as usize];
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    fn clear_if_empty(&mut self, done_at: u64) {
        let b = (done_at & self.span_mask) as usize;
        if self.links[b].next == b as u32 {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
    }

    fn scan_overflow_min(&self) -> u64 {
        let sentinel = self.overflow_sentinel();
        let mut node = self.links[sentinel as usize].next;
        let mut min = u64::MAX;
        while node != sentinel {
            min = min.min(self.event(node).done_at);
            node = self.links[node as usize].next;
        }
        min
    }

    /// Walks every list and checks the bookkeeping (unit tests): list
    /// lengths add up to `len`, each bucket holds one completion cycle inside
    /// the wheel window in key order, the occupancy bits match, overflow
    /// events lie beyond the wheel, every queued event is its slot's pending
    /// event, and the free stack holds every other node.
    #[cfg(test)]
    fn debug_check(&self) {
        let span = self.span() as usize;
        let mut wheel = 0;
        for b in 0..span {
            let mut node = self.links[b].next;
            let occupied = self.occupied[b / 64] >> (b % 64) & 1 == 1;
            debug_assert_eq!(occupied, node != b as u32, "occupancy bit of bucket {b}");
            let mut last_key = None;
            while node != b as u32 {
                let e = self.event(node);
                debug_assert!(self.in_wheel(e.done_at) && (e.done_at as usize) & (span - 1) == b);
                debug_assert!(last_key < Some(e.key), "bucket {b} out of key order");
                debug_assert_eq!(self.slot_nodes[e.owner as usize], node);
                last_key = Some(e.key);
                wheel += 1;
                node = self.links[node as usize].next;
            }
        }
        let sentinel = self.overflow_sentinel();
        let mut node = self.links[sentinel as usize].next;
        let mut overflow = 0;
        while node != sentinel {
            debug_assert!(!self.in_wheel(self.event(node).done_at));
            overflow += 1;
            node = self.links[node as usize].next;
        }
        let mut free = 0;
        let mut node = self.free;
        while node != NO_NODE {
            free += 1;
            node = self.links[node as usize].next;
        }
        debug_assert_eq!(overflow, self.overflow_len, "overflow length drifted");
        debug_assert_eq!(wheel + overflow, self.len, "queue length drifted");
        debug_assert_eq!(self.len + free, self.events.len(), "event nodes leaked");
        debug_assert_eq!(
            self.slot_nodes.iter().filter(|&&n| n != 0).count(),
            self.len
        );
        debug_assert_eq!(self.overflow_min, self.scan_overflow_min());
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use proptest::prelude::*;

    use super::*;

    /// The min-heap event the calendar replaced, kept as the delivery-order
    /// oracle: `(done_at, thread, seq)`, squashed events dropped lazily.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct CompletionEvent {
        done_at: u64,
        thread: u32,
        seq: u64,
    }

    #[test]
    fn delivers_ties_in_thread_then_seq_order() {
        let mut q = CompletionQueue::new(2, 8, 8, 16);
        q.push(5, 1, 0, 10);
        q.push(5, 0, 3, 12);
        q.push(5, 0, 1, 11);
        q.push(3, 1, 2, 20);
        assert_eq!(q.next_due(), Some(3));
        assert_eq!(q.pop_due(2), None);
        let order: Vec<(u64, usize, u64)> = std::iter::from_fn(|| q.pop_due(5))
            .map(|c| (c.done_at, c.thread, c.seq))
            .collect();
        assert_eq!(order, vec![(3, 1, 20), (5, 0, 11), (5, 0, 12), (5, 1, 10)]);
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn far_events_wait_in_overflow_and_migrate() {
        let mut q = CompletionQueue::new(1, 8, 4, 4);
        q.push(100, 0, 0, 1);
        q.push(2, 0, 1, 2);
        q.push(101, 0, 2, 3);
        assert_eq!(q.next_due(), Some(2));
        assert_eq!(q.pop_due(50).map(|c| c.seq), Some(2));
        assert_eq!(q.pop_due(50), None);
        assert_eq!(q.next_due(), Some(100));
        assert_eq!(q.remove(0, 0), 100);
        assert_eq!(q.next_due(), Some(101));
        assert_eq!(q.pop_due(101).map(|c| (c.done_at, c.slot)), Some((101, 2)));
        q.debug_check();
        assert!(q.is_empty());
    }

    /// One random queue operation.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Schedule an event `delay` cycles past the horizon on a free slot.
        Push { delay: u64, pick: u64 },
        /// Deliver everything due within `advance` cycles.
        Take { advance: u64 },
        /// Squash the pending event of a random slot.
        Remove { pick: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..7, 0u64..40, any::<u64>()).prop_map(|(kind, n, pick)| match kind {
            // Mostly short delays (ties on the same cycle), sometimes far
            // beyond the 8-cycle wheel span.
            0..=2 => Op::Push { delay: n % 6, pick },
            3 => Op::Push { delay: n, pick },
            4 | 5 => Op::Take { advance: n % 5 },
            _ => Op::Remove { pick },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The calendar delivers exactly the heap's live events in the heap's
        /// `(done_at, thread, seq)` order, ties and beyond-span events
        /// included, and its next due cycle is the earliest live event.
        #[test]
        fn calendar_matches_binary_heap(ops in prop::collection::vec(op_strategy(), 1..400)) {
            const THREADS: usize = 3;
            const SLOTS: usize = 8;
            // Fewer event nodes than slots (as the ROB bounds them in the
            // core), so nodes are recycled across slots and threads.
            const CAPACITY: usize = 10;
            let mut q = CompletionQueue::new(THREADS, SLOTS, CAPACITY, 8);
            let mut heap: BinaryHeap<Reverse<CompletionEvent>> = BinaryHeap::new();
            // Live (thread, slot) -> (done_at, seq); removed events stay in
            // the heap and are skipped on pop, as the old writeback did.
            let mut live: Vec<Option<(u64, u64)>> = vec![None; THREADS * SLOTS];
            let mut squashed: HashSet<(u32, u64)> = HashSet::new();
            let mut now = 0u64;
            let mut next_seq = 1u64;
            for op in ops {
                match op {
                    Op::Push { delay, pick } => {
                        let free: Vec<usize> = (0..live.len()).filter(|&i| live[i].is_none()).collect();
                        if free.len() == THREADS * SLOTS - CAPACITY {
                            continue;
                        }
                        let id = free[(pick % free.len() as u64) as usize];
                        let done_at = now + 1 + delay;
                        let seq = next_seq;
                        next_seq += 1;
                        q.push(done_at, id / SLOTS, id % SLOTS, seq);
                        heap.push(Reverse(CompletionEvent { done_at, thread: (id / SLOTS) as u32, seq }));
                        live[id] = Some((done_at, seq));
                    }
                    Op::Remove { pick } => {
                        let busy: Vec<usize> = (0..live.len()).filter(|&i| live[i].is_some()).collect();
                        if busy.is_empty() {
                            continue;
                        }
                        let id = busy[(pick % busy.len() as u64) as usize];
                        let (done_at, seq) = live[id].take().unwrap();
                        prop_assert_eq!(q.remove(id / SLOTS, id % SLOTS), done_at);
                        squashed.insert(((id / SLOTS) as u32, seq));
                    }
                    Op::Take { advance } => {
                        now += advance;
                        let mut expect = Vec::new();
                        while let Some(&Reverse(e)) = heap.peek() {
                            if e.done_at > now {
                                break;
                            }
                            heap.pop();
                            if !squashed.remove(&(e.thread, e.seq)) {
                                expect.push((e.done_at, e.thread as usize, e.seq));
                            }
                        }
                        let mut got = Vec::new();
                        while let Some(c) = q.pop_due(now) {
                            prop_assert_eq!(live[c.thread * SLOTS + c.slot].take(), Some((c.done_at, c.seq)));
                            got.push((c.done_at, c.thread, c.seq));
                        }
                        prop_assert_eq!(got, expect);
                    }
                }
                q.debug_check();
                let earliest = live.iter().flatten().map(|&(d, _)| d).min();
                prop_assert_eq!(q.next_due(), earliest);
                prop_assert_eq!(q.len(), live.iter().flatten().count());
            }
        }
    }
}
