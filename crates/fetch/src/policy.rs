//! The [`FetchPolicy`] trait and shared helpers.

use smt_types::config::{FetchPolicyKind, SmtConfig};
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

/// A request by the fetch policy to squash the youngest instructions of a thread.
///
/// Every in-flight instruction of `thread` with a sequence number strictly greater
/// than `keep_up_to` is removed from the pipeline and will be refetched later.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlushRequest {
    /// Thread to flush.
    pub thread: ThreadId,
    /// Youngest sequence number to keep.
    pub keep_up_to: SeqNum,
}

/// Per-thread occupancy caps imposed by explicit resource-management policies.
///
/// `None` in a field means "no cap" for that resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceCaps {
    /// Maximum reorder-buffer entries the thread may occupy.
    pub rob: Option<u32>,
    /// Maximum load/store-queue entries.
    pub lsq: Option<u32>,
    /// Maximum integer issue-queue entries.
    pub iq_int: Option<u32>,
    /// Maximum floating-point issue-queue entries.
    pub iq_fp: Option<u32>,
    /// Maximum integer rename registers.
    pub rename_int: Option<u32>,
    /// Maximum floating-point rename registers.
    pub rename_fp: Option<u32>,
}

/// The interface between the SMT pipeline and a fetch policy.
///
/// The pipeline owns all predictors (long-latency load predictor, MLP distance
/// predictor, LLSR); policies receive the relevant predictions inside the event
/// callbacks and only keep the decision state they need. All callbacks have no-op
/// defaults so simple policies (ICOUNT) only implement [`fetch_priority`].
///
/// The per-cycle queries ([`fetch_priority`], [`on_resource_stall`],
/// [`resource_caps`]) write into caller-provided scratch buffers instead of
/// returning fresh allocations, so the pipeline's steady state is
/// allocation-free; allocating `*_vec` convenience wrappers exist behind
/// `cfg(any(test, feature = "test-util"))` for tests and one-off callers. Within one cycle the pipeline may deliver per-thread
/// callbacks in any thread order; policies must not rely on cross-thread
/// ordering.
///
/// # Quiescence contract
///
/// When a simulated cycle commits, completes, issues, dispatches, fetches and
/// squashes nothing, the pipeline skips the per-cycle queries until the next
/// clock-driven event (a completion, a front-end instruction becoming
/// dispatchable, a write-buffer drain, an adaptive interval boundary) and
/// replays the previous answers instead. That is exact only if every policy
/// keeps two promises:
///
/// * [`fetch_priority`], [`resource_caps`] and [`on_resource_stall`] give the
///   same result when called again with the same snapshot and no event
///   callback in between. In particular they never read
///   [`SmtSnapshot::cycle`], which is the one field that moves during such a
///   stretch; the `snapshot-clock` rule of `smt-analyze` forbids that read in
///   this crate and in `smt-adapt`.
/// * Policy state changes only in the event callbacks (`on_fetch`,
///   `on_load_predicted`, `on_load_executed_hit`, `on_long_latency_detected`,
///   `on_long_latency_resolved`, `on_squash`), or when [`on_resource_stall`]
///   emits a flush. A query may tidy its own state (closing an idle episode,
///   say) only idempotently: a second call with the same snapshot changes
///   nothing.
///
/// Debug builds check the contract on every skipped cycle: they run the full
/// pipeline phases anyway and assert that nothing happens.
///
/// [`fetch_priority`]: FetchPolicy::fetch_priority
/// [`on_resource_stall`]: FetchPolicy::on_resource_stall
/// [`resource_caps`]: FetchPolicy::resource_caps
pub trait FetchPolicy: Send {
    /// Which policy this is (used for reporting).
    fn kind(&self) -> FetchPolicyKind;

    /// Writes the threads allowed to fetch this cycle into `priority`,
    /// most-preferred first (clearing whatever the buffer held). Threads not in
    /// the list are fetch gated this cycle.
    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>);

    /// Allocating convenience wrapper around [`FetchPolicy::fetch_priority`]
    /// for tests and examples; the pipeline reuses a scratch buffer instead.
    /// Only compiled for tests and under the `test-util` feature, so the
    /// production build has a single, non-allocating query surface.
    #[cfg(any(test, feature = "test-util"))]
    fn fetch_priority_vec(&mut self, snapshot: &SmtSnapshot) -> Vec<ThreadId> {
        let mut priority = Vec::new();
        self.fetch_priority(snapshot, &mut priority);
        priority
    }

    /// An instruction with sequence number `seq` was fetched for `thread`.
    fn on_fetch(&mut self, thread: ThreadId, seq: SeqNum) {
        let _ = (thread, seq);
    }

    /// A load reached the front-end predictors. `predicted_long_latency` is the
    /// miss-pattern predictor's verdict; `predicted_mlp_distance` /
    /// `predicted_has_mlp` come from the MLP predictors.
    fn on_load_predicted(
        &mut self,
        thread: ThreadId,
        pc: u64,
        seq: SeqNum,
        predicted_long_latency: bool,
        predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) {
        let _ = (
            thread,
            pc,
            seq,
            predicted_long_latency,
            predicted_mlp_distance,
            predicted_has_mlp,
        );
    }

    /// A load executed and turned out *not* to be long latency.
    fn on_load_executed_hit(&mut self, thread: ThreadId, pc: u64, seq: SeqNum) {
        let _ = (thread, pc, seq);
    }

    /// A long-latency load (L3 or D-TLB miss) was detected at execute.
    ///
    /// `latest_fetched_seq` is the youngest instruction fetched so far for the
    /// thread, which flush-style policies compare against `seq +
    /// predicted_mlp_distance` to decide whether to flush. Returns an optional
    /// flush request.
    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        let _ = (
            thread,
            pc,
            seq,
            latest_fetched_seq,
            predicted_mlp_distance,
            predicted_has_mlp,
        );
        None
    }

    /// The data of a previously detected long-latency load returned from memory.
    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        let _ = (thread, seq);
    }

    /// Dispatch was blocked this cycle because a shared resource (ROB, issue queue,
    /// LSQ or rename registers) is exhausted. Flush-at-resource-stall policies
    /// append their flush requests to `flushes` (the caller clears the buffer
    /// beforehand); others leave it untouched.
    fn on_resource_stall(&mut self, snapshot: &SmtSnapshot, flushes: &mut Vec<FlushRequest>) {
        let _ = (snapshot, flushes);
    }

    /// Allocating convenience wrapper around [`FetchPolicy::on_resource_stall`]
    /// for tests and examples (see [`FetchPolicy::fetch_priority_vec`] for the
    /// gating rationale).
    #[cfg(any(test, feature = "test-util"))]
    fn on_resource_stall_vec(&mut self, snapshot: &SmtSnapshot) -> Vec<FlushRequest> {
        let mut flushes = Vec::new();
        self.on_resource_stall(snapshot, &mut flushes);
        flushes
    }

    /// Instructions of `thread` younger than `keep_up_to` were squashed (by a
    /// branch misprediction or a policy flush); policies drop any per-seq state.
    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let _ = (thread, keep_up_to);
    }

    /// Per-thread occupancy caps for explicit resource management policies.
    ///
    /// `caps` is a scratch slice with one entry per hardware thread, reset to
    /// [`ResourceCaps::default`] (no caps) by the caller each cycle. Policies
    /// that manage resources overwrite the entries and return `true`; the
    /// default implementation returns `false`, meaning no caps apply.
    fn resource_caps(
        &mut self,
        snapshot: &SmtSnapshot,
        config: &SmtConfig,
        caps: &mut [ResourceCaps],
    ) -> bool {
        let _ = (snapshot, config, caps);
        false
    }

    /// Allocating convenience wrapper around [`FetchPolicy::resource_caps`]
    /// for tests and examples (see [`FetchPolicy::fetch_priority_vec`] for the
    /// gating rationale).
    #[cfg(any(test, feature = "test-util"))]
    fn resource_caps_vec(
        &mut self,
        snapshot: &SmtSnapshot,
        config: &SmtConfig,
    ) -> Option<Vec<ResourceCaps>> {
        let mut caps = vec![ResourceCaps::default(); snapshot.num_threads()];
        self.resource_caps(snapshot, config, &mut caps)
            .then_some(caps)
    }

    /// Human-readable policy name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Writes all threads into `order`, sorted by ascending ICOUNT (ties broken by
/// thread id) — the ICOUNT 2.4 priority rule every policy falls back to. The
/// buffer is cleared first and reused across cycles by the pipeline.
pub fn icount_order(snapshot: &SmtSnapshot, order: &mut Vec<ThreadId>) {
    order.clear();
    order.extend(ThreadId::all(snapshot.num_threads()));
    // The keys are unique (the thread index breaks every tie), so the
    // unstable sort yields the stable order without its merge machinery.
    order.sort_unstable_by_key(|t| (snapshot.thread(*t).icount, t.index()));
}

/// Applies gating with the continue-oldest-thread exemption: writes the ICOUNT
/// ordering of threads into `order`, with gated threads removed — unless *every*
/// active thread is both gated and stalled on a long-latency load, in which case
/// the thread whose long-latency load is oldest is re-admitted (COT, Cazorla et
/// al. 2004a).
pub fn gated_icount_order(
    snapshot: &SmtSnapshot,
    gated: impl Fn(ThreadId) -> bool,
    order: &mut Vec<ThreadId>,
) {
    icount_order(snapshot, order);
    if order.iter().any(|&t| !gated(t)) {
        order.retain(|&t| !gated(t));
        return;
    }
    // Nothing is allowed: re-admit the continue-oldest thread when every active
    // thread is memory-stalled; otherwise fall back to plain ICOUNT (already in
    // `order`) so the machine never deadlocks.
    if snapshot.all_active_threads_stalled_on_memory() {
        if let Some(cot) = snapshot.oldest_memory_stalled_thread() {
            order.clear();
            order.push(cot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with_icounts(icounts: &[u32]) -> SmtSnapshot {
        let mut s = SmtSnapshot::new(icounts.len());
        for (i, &c) in icounts.iter().enumerate() {
            s.threads[i].icount = c;
            s.threads[i].active = true;
        }
        s
    }

    fn icount_order_vec(s: &SmtSnapshot) -> Vec<ThreadId> {
        let mut order = Vec::new();
        icount_order(s, &mut order);
        order
    }

    fn gated_order_vec(s: &SmtSnapshot, gated: impl Fn(ThreadId) -> bool) -> Vec<ThreadId> {
        let mut order = Vec::new();
        gated_icount_order(s, gated, &mut order);
        order
    }

    #[test]
    fn icount_order_prefers_emptier_threads() {
        let s = snapshot_with_icounts(&[10, 3, 7]);
        let order = icount_order_vec(&s);
        assert_eq!(
            order.iter().map(|t| t.index()).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The unstable sort gives exactly the stable-sort order: the
        /// `(icount, thread)` keys are unique, so no two elements tie.
        #[test]
        fn icount_order_matches_stable_sort(
            icounts in proptest::prop::collection::vec(0u32..6, 1..9),
        ) {
            let s = snapshot_with_icounts(&icounts);
            let mut stable: Vec<ThreadId> = ThreadId::all(icounts.len()).collect();
            stable.sort_by_key(|t| (s.thread(*t).icount, t.index()));
            proptest::prop_assert_eq!(icount_order_vec(&s), stable);
        }
    }

    #[test]
    fn icount_order_breaks_ties_by_id() {
        let s = snapshot_with_icounts(&[5, 5]);
        let order = icount_order_vec(&s);
        assert_eq!(order[0].index(), 0);
    }

    #[test]
    fn order_buffers_are_cleared_on_reuse() {
        // The pipeline hands the same scratch buffer in every cycle; stale
        // contents must never leak into the new ordering.
        let s = snapshot_with_icounts(&[5, 2]);
        let mut order = vec![ThreadId::new(0); 7];
        icount_order(&s, &mut order);
        assert_eq!(order.len(), 2);
        order.push(ThreadId::new(0));
        gated_icount_order(&s, |_| false, &mut order);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].index(), 1);
    }

    #[test]
    fn gating_removes_threads() {
        let s = snapshot_with_icounts(&[5, 2]);
        let order = gated_order_vec(&s, |t| t.index() == 1);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].index(), 0);
    }

    #[test]
    fn cot_readmits_oldest_stalled_thread_when_all_gated() {
        let mut s = snapshot_with_icounts(&[5, 2]);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(50);
        s.threads[1].outstanding_long_latency_loads = 1;
        s.threads[1].oldest_lll_cycle = Some(80);
        let order = gated_order_vec(&s, |_| true);
        assert_eq!(order, vec![ThreadId::new(0)]);
    }

    #[test]
    fn all_gated_without_memory_stall_falls_back_to_icount() {
        let s = snapshot_with_icounts(&[5, 2]);
        let order = gated_order_vec(&s, |_| true);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].index(), 1);
    }

    #[test]
    fn flush_request_and_caps_are_plain_data() {
        let r = FlushRequest {
            thread: ThreadId::new(1),
            keep_up_to: SeqNum(42),
        };
        assert_eq!(r.thread.index(), 1);
        let caps = ResourceCaps::default();
        assert!(caps.rob.is_none());
    }
}
