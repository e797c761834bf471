//! Synthetic trace generator driven by a [`BenchmarkProfile`].
//!
//! The generator is a small state machine that interleaves four access streams:
//!
//! 1. a *hot* load/store stream confined to a cache-resident working set,
//! 2. an occasional *warm* stream that reaches into an L2/L3-resident region,
//! 3. a *miss* stream of long-latency loads, organised as bursts of independent
//!    loads so that the targeted amount of MLP exists within a ROB-sized window,
//! 4. computational (integer / floating-point) and branch instructions filling the
//!    rest of the mix.
//!
//! Miss bursts alternate between strided streams (coverable by the hardware
//! prefetcher) and pointer-chase-like random streams, in the proportion given by
//! the profile's `prefetch_friendliness`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use smt_types::{OpKind, TraceOp};

use crate::profile::BenchmarkProfile;
use crate::{TraceSource, TraceSourceState};

/// Base virtual address of the hot (L1-resident) data region.
const HOT_BASE: u64 = 0x1000_0000;
/// Base virtual address of the warm (L2/L3-resident) data region.
const WARM_BASE: u64 = 0x2000_0000;
/// Base of the strided long-latency region.
const STRIDE_BASE: u64 = 0x8000_0000;
/// Base of the random (pointer-chase) long-latency region.
const RANDOM_BASE: u64 = 0x10_0000_0000;
/// Size of the random long-latency region in bytes (1 GiB: essentially never
/// cache- or TLB-resident).
const RANDOM_SPAN: u64 = 1 << 30;
/// Cache line size assumed by the generator.
const LINE: u64 = 64;
/// Number of lines in the warm region (fits in the 4 MB L3 but not the 64 KB L1).
const WARM_LINES: u64 = 24 * 1024;

/// Code-region layout: each instruction class gets its own PC pool so that the
/// PC-indexed predictors observe stable per-PC behaviour. The offsets are chosen
/// so that the pools do not alias in the 2K-entry PC-indexed predictor tables
/// (which index with `pc / 4 mod 2048`, i.e. alias every 8 KiB of code).
const CODE_ALU_BASE: u64 = 0x0040_0000;
const CODE_BRANCH_BASE: u64 = 0x0041_1000;
const CODE_HITLOAD_BASE: u64 = 0x0042_0400;
const CODE_STORE_BASE: u64 = 0x0043_1400;
const CODE_MISSLOAD_BASE: u64 = 0x0044_1c00;
const CODE_STRIDELOAD_BASE: u64 = 0x0044_1e00;

/// Number of distinct static long-latency ("delinquent") load PCs used by
/// pointer-chase style (non-strided) miss bursts — one per position within a
/// burst, so each static load has a stable MLP distance.
const DELINQUENT_PCS: u64 = 12;
/// Number of distinct strided miss streams, each with its own static load PC and
/// its own array region — one per position within a strided burst, mimicking loop
/// bodies that walk several arrays in lockstep (swim, applu, mgrid).
const STRIDE_STREAMS: u64 = 12;
/// Byte distance between the array regions of consecutive strided streams.
const STRIDE_REGION_BYTES: u64 = 1 << 28;

/// A deterministic, profile-driven synthetic instruction stream.
///
/// Two generators constructed with the same profile and seed produce identical
/// streams, which the STP/ANTT methodology relies on (the single-threaded
/// reference run replays exactly the instructions the SMT run executed).
#[derive(Clone, Debug)]
pub struct SyntheticTraceGenerator {
    profile: BenchmarkProfile,
    rng: StdRng,
    seq: u64,
    /// Instructions remaining until the next miss burst begins.
    gap_to_next_burst: u64,
    /// Long-latency loads still to be emitted in the current burst.
    burst_remaining: u32,
    /// Instructions between consecutive long-latency loads of the current burst.
    burst_gap: u32,
    /// Countdown to the next long-latency load within the burst.
    next_miss_in: u32,
    /// Whether the current burst walks strided (prefetchable) streams.
    burst_strided: bool,
    /// Position within the current burst (selects the static load PC and stream).
    burst_position: u64,
    /// Per-stream next-line cursors of the strided miss region.
    stride_cursors: Vec<u64>,
    /// Rotating cursors for hot loads / stores / ALU PCs.
    hot_cursor: u64,
    alu_pc_cursor: u64,
    /// Rotating cursor over the static branch pool, so branches appear in a
    /// loop-body-like order and the gshare global history is learnable.
    branch_cursor: usize,
    branch_bias: Vec<bool>,
    emitted_long_latency: u64,
}

impl SyntheticTraceGenerator {
    /// Creates a generator for `profile`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Each static branch has a fixed bias; the taken rate controls how many of
        // them are taken-biased. Predictable branches always follow their bias.
        let taken_rate = profile.branch_taken_rate;
        let branch_bias = (0..64).map(|_| rng.gen_bool(taken_rate)).collect();
        let mut this = SyntheticTraceGenerator {
            profile,
            rng,
            seq: 0,
            gap_to_next_burst: 0,
            burst_remaining: 0,
            burst_gap: 1,
            next_miss_in: 0,
            burst_strided: false,
            burst_position: 0,
            stride_cursors: vec![0; STRIDE_STREAMS as usize],
            hot_cursor: 0,
            alu_pc_cursor: 0,
            branch_cursor: 0,
            branch_bias,
            emitted_long_latency: 0,
        };
        this.gap_to_next_burst = this.sample_burst_gap();
        this
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Number of intended long-latency loads emitted so far (before any prefetch
    /// coverage is applied by the memory hierarchy).
    pub fn emitted_long_latency(&self) -> u64 {
        self.emitted_long_latency
    }

    /// Average number of instructions between the start of consecutive miss bursts
    /// implied by the profile (burst size / loads-per-instruction).
    fn mean_burst_interval(&self) -> f64 {
        let rate = (self.profile.lll_per_kinst / 1000.0).max(1e-7);
        (self.profile.target_mlp / rate).max(self.profile.burst_span as f64 + 1.0)
    }

    fn sample_burst_gap(&mut self) -> u64 {
        let mean = self.mean_burst_interval();
        // Mild jitter keeps the long-run rate at the target without making the
        // inter-burst spacing (and therefore the observed MLP distances) so
        // irregular that the last-value MLP distance predictor cannot track them.
        let factor = self.rng.gen_range(0.85..1.15);
        (mean * factor).max(1.0) as u64
    }

    fn sample_burst_size(&mut self) -> u32 {
        // Bursts have a fixed size of round(target MLP): real delinquent loops
        // issue the same cluster of independent misses every iteration, which is
        // what makes the per-PC MLP distance predictable (Figures 4 and 8). The
        // long-run miss rate is controlled by the inter-burst gap, so Table I's
        // LLL/1K-instruction column is preserved independently.
        self.profile.target_mlp.round().max(1.0) as u32
    }

    fn start_burst(&mut self) {
        self.burst_remaining = self.sample_burst_size();
        self.burst_strided = self.rng.gen_bool(self.profile.prefetch_friendliness);
        // Spread the burst's independent loads over the profile's burst span.
        self.burst_gap = (self.profile.burst_span / self.burst_remaining.max(1)).max(1);
        self.next_miss_in = 0;
        self.burst_position = 0;
        self.gap_to_next_burst = self.sample_burst_gap();
    }

    fn hot_address(&mut self) -> u64 {
        if self.rng.gen_bool(self.profile.l2_fraction) {
            let line = self.rng.gen_range(0..WARM_LINES);
            return WARM_BASE + line * LINE;
        }
        self.hot_cursor = self.hot_cursor.wrapping_add(1);
        let line = (self.hot_cursor * 7) % self.profile.hot_working_set_lines as u64;
        HOT_BASE + line * LINE
    }

    fn dep_distance(&mut self) -> u32 {
        let mean = self.profile.dep_distance_mean;
        let d = self.rng.gen_range(1.0..(2.0 * mean).max(2.0));
        d.round().clamp(1.0, 48.0) as u32
    }

    fn hit_load(&mut self) -> TraceOp {
        let slot = self.rng.gen_range(0..self.profile.static_mem_pcs as u64);
        let pc = CODE_HITLOAD_BASE + slot * 8;
        let addr = self.hot_address();
        let dep = self.dep_distance();
        TraceOp::load(pc, addr).with_dep(dep)
    }

    fn store(&mut self) -> TraceOp {
        let slot = self
            .rng
            .gen_range(0..(self.profile.static_mem_pcs as u64 / 2).max(1));
        let pc = CODE_STORE_BASE + slot * 8;
        let addr = self.hot_address();
        let dep = self.dep_distance();
        TraceOp::store(pc, addr).with_dep(dep)
    }

    fn branch(&mut self) -> TraceOp {
        // Branches appear in round-robin static order (as in a loop body), so the
        // global history seen by each static branch is stable and learnable; only
        // the `branch_randomness` fraction of outcomes is inherently unpredictable.
        self.branch_cursor = (self.branch_cursor + 1) % self.branch_bias.len();
        let slot = self.branch_cursor;
        let pc = CODE_BRANCH_BASE + (slot as u64) * 8;
        let taken = if self.rng.gen_bool(self.profile.branch_randomness) {
            self.rng.gen_bool(0.5)
        } else {
            self.branch_bias[slot]
        };
        let target = pc + 0x80;
        TraceOp::branch(pc, taken, target)
    }

    fn alu(&mut self) -> TraceOp {
        self.alu_pc_cursor = (self.alu_pc_cursor + 1) % 2048;
        let pc = CODE_ALU_BASE + self.alu_pc_cursor * 4;
        let kind = if self.rng.gen_bool(self.profile.fp_fraction) {
            if self.rng.gen_bool(0.06) {
                OpKind::FpLong
            } else {
                OpKind::FpOp
            }
        } else if self.rng.gen_bool(0.04) {
            OpKind::IntMul
        } else {
            OpKind::IntAlu
        };
        let dep = self.dep_distance();
        TraceOp {
            pc,
            kind,
            src_deps: [None, None],
            mem: None,
            branch: None,
        }
        .with_dep(dep)
    }

    /// Emits the next long-latency load of the current burst. Position `i` of a
    /// burst always uses the same static load PC (and, for strided bursts, walks
    /// its own array region), so the PC-indexed predictors see per-PC behaviour
    /// that is stable across dynamic instances — just like the delinquent loads of
    /// a loop body in the real benchmarks.
    fn long_latency_load(&mut self) -> TraceOp {
        self.emitted_long_latency += 1;
        let position = self.burst_position;
        self.burst_position += 1;
        let (pc, addr) = if self.burst_strided {
            let slot = (position % STRIDE_STREAMS) as usize;
            self.stride_cursors[slot] += 1;
            let addr =
                STRIDE_BASE + slot as u64 * STRIDE_REGION_BYTES + self.stride_cursors[slot] * LINE;
            (CODE_STRIDELOAD_BASE + (slot as u64) * 8, addr)
        } else {
            let slot = position % DELINQUENT_PCS;
            let line = self.rng.gen_range(0..(RANDOM_SPAN / LINE));
            (CODE_MISSLOAD_BASE + slot * 8, RANDOM_BASE + line * LINE)
        };
        // Independent of in-flight producers so overlapping misses really overlap.
        TraceOp::load(pc, addr)
    }

    /// Advances the generator past one instruction without building it: the
    /// same random draws and cursor moves as [`Self::gen_op`], without the
    /// address, PC and dependence arithmetic that only shapes the discarded
    /// op. Sampled simulation skips most of a long budget this way.
    fn skip_op(&mut self) {
        self.seq += 1;
        if self.burst_remaining > 0 {
            if self.next_miss_in == 0 {
                self.burst_remaining -= 1;
                self.next_miss_in = self.burst_gap;
                self.long_latency_load();
                return;
            }
            self.next_miss_in -= 1;
        } else if self.gap_to_next_burst == 0 {
            if self.profile.lll_per_kinst > 0.0 {
                self.start_burst();
            } else {
                self.gap_to_next_burst = u64::MAX;
            }
        } else {
            self.gap_to_next_burst -= 1;
        }
        let roll: f64 = self.rng.gen();
        let p = &self.profile;
        if roll < p.load_fraction + p.store_fraction {
            // Hit load or store: the static-PC slot, the hot or warm address,
            // the dependence distance.
            self.rng.next_u64();
            if self.rng.gen_bool(self.profile.l2_fraction) {
                self.rng.next_u64();
            } else {
                self.hot_cursor = self.hot_cursor.wrapping_add(1);
            }
            self.rng.next_u64();
        } else if roll < p.load_fraction + p.store_fraction + p.branch_fraction {
            self.branch_cursor = (self.branch_cursor + 1) % self.branch_bias.len();
            if self.rng.gen_bool(self.profile.branch_randomness) {
                self.rng.next_u64();
            }
        } else {
            self.alu_pc_cursor = (self.alu_pc_cursor + 1) % 2048;
            // The FP draw, then the FP-long or integer-multiply draw, then the
            // dependence distance.
            self.rng.next_u64();
            self.rng.next_u64();
            self.rng.next_u64();
        }
    }

    /// Generates the next dynamic instruction. This is the monomorphic core
    /// shared by [`TraceSource::next_op`] and the natively batched
    /// [`TraceSource::refill`].
    fn gen_op(&mut self) -> TraceOp {
        self.seq += 1;

        // Miss-burst scheduling takes precedence over the background mix.
        if self.burst_remaining > 0 {
            if self.next_miss_in == 0 {
                self.burst_remaining -= 1;
                self.next_miss_in = self.burst_gap;
                return self.long_latency_load();
            }
            self.next_miss_in -= 1;
        } else if self.gap_to_next_burst == 0 {
            if self.profile.lll_per_kinst > 0.0 {
                self.start_burst();
            } else {
                self.gap_to_next_burst = u64::MAX;
            }
        } else {
            self.gap_to_next_burst -= 1;
        }

        let roll: f64 = self.rng.gen();
        let p = &self.profile;
        if roll < p.load_fraction {
            self.hit_load()
        } else if roll < p.load_fraction + p.store_fraction {
            self.store()
        } else if roll < p.load_fraction + p.store_fraction + p.branch_fraction {
            self.branch()
        } else {
            self.alu()
        }
    }
}

impl TraceSource for SyntheticTraceGenerator {
    fn next_op(&mut self) -> TraceOp {
        self.gen_op()
    }

    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        // Native batched implementation: one virtual call fills the whole
        // batch through the monomorphic generator core.
        buf.reserve(n);
        for _ in 0..n {
            buf.push(self.gen_op());
        }
    }

    fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.skip_op();
        }
    }

    fn name(&self) -> &str {
        &self.profile.name
    }

    fn save_state(&self) -> Option<TraceSourceState> {
        Some(TraceSourceState {
            name: self.profile.name.clone(),
            rng_state: self.rng.state(),
            seq: self.seq,
            gap_to_next_burst: self.gap_to_next_burst,
            burst_remaining: self.burst_remaining,
            burst_gap: self.burst_gap,
            next_miss_in: self.next_miss_in,
            burst_strided: self.burst_strided,
            burst_position: self.burst_position,
            stride_cursors: self.stride_cursors.clone(),
            hot_cursor: self.hot_cursor,
            alu_pc_cursor: self.alu_pc_cursor,
            branch_cursor: self.branch_cursor as u64,
            branch_bias: self.branch_bias.clone(),
            emitted_long_latency: self.emitted_long_latency,
        })
    }

    fn restore_state(&mut self, state: &TraceSourceState) -> Result<(), String> {
        if state.name != self.profile.name {
            return Err(format!(
                "trace state belongs to `{}`, target generator runs `{}`",
                state.name, self.profile.name
            ));
        }
        if state.stride_cursors.len() != self.stride_cursors.len()
            || state.branch_bias.len() != self.branch_bias.len()
        {
            return Err(format!(
                "trace state geometry mismatch for `{}` (different generator version?)",
                state.name
            ));
        }
        self.rng = StdRng::from_state(state.rng_state);
        self.seq = state.seq;
        self.gap_to_next_burst = state.gap_to_next_burst;
        self.burst_remaining = state.burst_remaining;
        self.burst_gap = state.burst_gap;
        self.next_miss_in = state.next_miss_in;
        self.burst_strided = state.burst_strided;
        self.burst_position = state.burst_position;
        self.stride_cursors.copy_from_slice(&state.stride_cursors);
        self.hot_cursor = state.hot_cursor;
        self.alu_pc_cursor = state.alu_pc_cursor;
        self.branch_cursor = state.branch_cursor as usize;
        self.branch_bias.copy_from_slice(&state.branch_bias);
        self.emitted_long_latency = state.emitted_long_latency;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn gen_for(name: &str, seed: u64) -> SyntheticTraceGenerator {
        SyntheticTraceGenerator::new(spec::benchmark(name).unwrap(), seed)
    }

    fn classify(ops: &[TraceOp]) -> (usize, usize, usize, usize) {
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count();
        let stores = ops.iter().filter(|o| o.kind == OpKind::Store).count();
        let branches = ops.iter().filter(|o| o.kind == OpKind::Branch).count();
        let alu = ops.len() - loads - stores - branches;
        (loads, stores, branches, alu)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = gen_for("mcf", 7);
        let mut b = gen_for("mcf", 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn skip_matches_generate_and_discard() {
        // The specialised skip must leave every benchmark's generator in
        // exactly the state generating and discarding the same ops would,
        // across burst boundaries and both burst kinds.
        for profile in spec::all_benchmarks() {
            for seed in [1, 42] {
                for n in [0, 1, 17, 1_000, 50_000] {
                    let mut skipped = SyntheticTraceGenerator::new(profile.clone(), seed);
                    let mut generated = SyntheticTraceGenerator::new(profile.clone(), seed);
                    skipped.skip(n);
                    for _ in 0..n {
                        generated.next_op();
                    }
                    assert_eq!(
                        skipped.save_state(),
                        generated.save_state(),
                        "{} seed {seed} skip {n}",
                        profile.name
                    );
                    for _ in 0..200 {
                        assert_eq!(skipped.next_op(), generated.next_op());
                    }
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = gen_for("mcf", 7);
        let mut b = gen_for("mcf", 8);
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 1000);
    }

    #[test]
    fn all_ops_well_formed() {
        let mut g = gen_for("swim", 1);
        for _ in 0..20_000 {
            assert!(g.next_op().is_well_formed());
        }
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let mut g = gen_for("gcc", 3);
        let ops: Vec<_> = (0..50_000).map(|_| g.next_op()).collect();
        let (loads, stores, branches, _alu) = classify(&ops);
        let p = g.profile();
        let lf = loads as f64 / ops.len() as f64;
        let sf = stores as f64 / ops.len() as f64;
        let bf = branches as f64 / ops.len() as f64;
        assert!((lf - p.load_fraction).abs() < 0.05, "load fraction {lf}");
        assert!((sf - p.store_fraction).abs() < 0.05, "store fraction {sf}");
        assert!(
            (bf - p.branch_fraction).abs() < 0.05,
            "branch fraction {bf}"
        );
    }

    #[test]
    fn long_latency_rate_tracks_table1() {
        for (name, tolerance) in [("mcf", 0.4), ("swim", 0.4), ("equake", 0.4)] {
            let mut g = gen_for(name, 11);
            let n = 200_000u64;
            for _ in 0..n {
                let _ = g.next_op();
            }
            let rate = g.emitted_long_latency() as f64 * 1000.0 / n as f64;
            let target = g.profile().lll_per_kinst;
            assert!(
                (rate - target).abs() / target < tolerance,
                "{name}: emitted LLL/kinst {rate:.2} vs target {target:.2}"
            );
        }
    }

    #[test]
    fn low_miss_benchmarks_emit_few_long_latency_loads() {
        let mut g = gen_for("gcc", 5);
        let n = 100_000u64;
        for _ in 0..n {
            let _ = g.next_op();
        }
        let rate = g.emitted_long_latency() as f64 * 1000.0 / n as f64;
        assert!(
            rate < 0.5,
            "gcc should have almost no long-latency loads, got {rate}"
        );
    }

    #[test]
    fn miss_loads_are_independent_and_use_delinquent_pcs() {
        let mut g = gen_for("fma3d", 9);
        let mut seen = 0;
        for _ in 0..100_000 {
            let op = g.next_op();
            if op.kind == OpKind::Load && op.pc >= CODE_MISSLOAD_BASE {
                assert_eq!(
                    op.src_deps,
                    [None, None],
                    "delinquent loads must be independent"
                );
                seen += 1;
            }
        }
        assert!(seen > 500, "expected many delinquent loads, saw {seen}");
    }

    #[test]
    fn bursts_fit_within_burst_span() {
        // All long-latency loads of one burst must fall within roughly one ROB's
        // worth of instructions so they can overlap; check the gap between
        // consecutive delinquent loads never exceeds the burst span.
        let mut g = gen_for("lucas", 13);
        let mut last_miss_at: Option<u64> = None;
        let mut within = 0u64;
        let mut beyond = 0u64;
        for i in 0..200_000u64 {
            let op = g.next_op();
            if op.kind == OpKind::Load && op.pc >= CODE_MISSLOAD_BASE {
                if let Some(prev) = last_miss_at {
                    if i - prev <= g.profile().burst_span as u64 {
                        within += 1;
                    } else {
                        beyond += 1;
                    }
                }
                last_miss_at = Some(i);
            }
        }
        // Most consecutive-miss gaps are intra-burst and therefore short.
        assert!(within > beyond, "within={within} beyond={beyond}");
    }

    #[test]
    fn fp_benchmarks_emit_fp_ops() {
        let mut g = gen_for("applu", 17);
        let fp = (0..20_000)
            .map(|_| g.next_op())
            .filter(|o| o.kind.is_fp())
            .count();
        assert!(fp > 2_000, "applu should be FP heavy, got {fp}");
        let mut g = gen_for("gcc", 17);
        let fp = (0..20_000)
            .map(|_| g.next_op())
            .filter(|o| o.kind.is_fp())
            .count();
        assert!(fp < 2_000, "gcc should be integer dominated, got {fp}");
    }

    #[test]
    #[should_panic]
    fn invalid_profile_panics() {
        let mut p = spec::benchmark("gcc").unwrap();
        p.load_fraction = 2.0;
        let _ = SyntheticTraceGenerator::new(p, 0);
    }
}
