//! Serializable warm simulator checkpoints.
//!
//! A checkpoint captures everything that is *warm* at a pure
//! fast-forward-from-reset boundary: trace positions, branch/LLL/MLP
//! predictors, the LLSR and its pending evaluations, the private cache/TLB/
//! prefetcher levels and the shared LLC. At that boundary every transient
//! structure is empty by construction — the cycle counter is zero, the
//! pipeline windows, completion queue, write buffer, MSHRs, bus and staged
//! fills hold nothing, and all statistics are zero — so none of it needs
//! capturing, and restoring into a freshly built simulator reproduces the
//! fast-forwarded machine bit for bit.
//!
//! Sweeps branch from one shared checkpoint: fast-forward the warm prefix
//! once, [`SmtSimulator::checkpoint`] it, then
//! [`SmtSimulator::restore_checkpoint`] into each cell's fresh simulator
//! instead of re-running the prefix.

use serde::{Deserialize, Serialize};
use smt_branch::BranchPredictorState;
use smt_mem::{CoreMemoryState, SharedLlcState};
use smt_predictors::{BinaryMlpState, LlsrState, MissPatternState, MlpDistanceState};
use smt_trace::TraceSourceState;
use smt_types::{CheckpointMeta, SimError, TraceOp};

use super::thread::PendingMlpEval;
use super::SmtSimulator;

/// A pending MLP-prediction evaluation, serialized.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PendingEvalState {
    /// PC of the long-latency load awaiting its LLSR ground truth.
    pub pc: u64,
    /// The MLP distance predicted when the load was processed.
    pub predicted_distance: u32,
}

/// Per-thread warm state of a checkpoint.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThreadCheckpoint {
    /// Trace-source position (benchmark name, RNG, cursors).
    pub trace: TraceSourceState,
    /// Trace ops pulled into the refill buffer but not yet consumed.
    pub pending_ops: Vec<TraceOp>,
    /// Instructions committed (functionally executed) so far.
    pub committed: u64,
    /// Branch predictor state.
    pub branch_predictor: BranchPredictorState,
    /// Long-latency load predictor state.
    pub lll_predictor: MissPatternState,
    /// MLP distance predictor state.
    pub mlp_predictor: MlpDistanceState,
    /// Binary MLP predictor state.
    pub binary_mlp_predictor: BinaryMlpState,
    /// Long-latency shift register contents.
    pub llsr: LlsrState,
    /// Predictions awaiting their LLSR ground truth, in commit order.
    pub pending_mlp_evals: Vec<PendingEvalState>,
}

/// A complete warm checkpoint of a single-core simulator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimCheckpoint {
    /// Identity and provenance (validated on restore).
    pub meta: CheckpointMeta,
    /// Per-thread warm state, in thread order.
    pub threads: Vec<ThreadCheckpoint>,
    /// Core-private memory levels (L1s, L2, TLBs, prefetcher).
    pub memory: CoreMemoryState,
    /// Shared last-level cache.
    pub shared: SharedLlcState,
}

impl SimCheckpoint {
    /// Checks the checkpoint's standalone invariants: a supported schema
    /// version and metadata consistent with the captured thread states.
    /// [`SmtSimulator::restore_checkpoint`] additionally validates the
    /// checkpoint against the restoring simulator's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.meta.schema_version != CheckpointMeta::SCHEMA_VERSION {
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            return Err(SimError::invalid_config(format!(
                "unsupported checkpoint schema version {} (expected {})",
                self.meta.schema_version,
                CheckpointMeta::SCHEMA_VERSION
            )));
        }
        if self.meta.num_threads as usize != self.threads.len() {
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            return Err(SimError::invalid_config(format!(
                "checkpoint metadata claims {} threads but {} are captured",
                self.meta.num_threads,
                self.threads.len()
            )));
        }
        if self.meta.benchmarks.len() != self.threads.len() {
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            return Err(SimError::invalid_config(format!(
                "checkpoint names {} benchmarks for {} captured threads",
                self.meta.benchmarks.len(),
                self.threads.len()
            )));
        }
        Ok(())
    }
}

impl SmtSimulator {
    /// Captures a warm checkpoint. Legal only at a pure
    /// fast-forward-from-reset boundary: the cycle counter must still be zero
    /// and the pipeline empty, so every transient structure is structurally
    /// empty and only warm state needs saving.
    ///
    /// `seed` records the workload seed the simulator was built with (the
    /// simulator itself does not know it); restore validates it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Internal`] when the simulator is not at a
    /// checkpointable boundary and [`SimError::InvalidWorkload`] when a trace
    /// source does not support checkpointing.
    pub fn checkpoint(&mut self, seed: u64) -> Result<SimCheckpoint, SimError> {
        if self.core.cycle() != 0 || !self.core.is_drained() {
            return Err(SimError::internal(
                "checkpoints may only be captured after a pure fast-forward from reset \
                 (cycle 0, empty pipeline)",
            ));
        }
        let shared = self.shared.state().map_err(SimError::internal)?;
        let mut threads = Vec::with_capacity(self.core.threads.len());
        let mut benchmarks = Vec::with_capacity(self.core.threads.len());
        let mut warmed = u64::MAX;
        for ctx in &self.core.threads {
            let trace = ctx.trace.save_state().ok_or_else(|| {
                SimError::invalid_workload(format!(
                    "trace source '{}' does not support checkpointing",
                    ctx.trace.name()
                ))
            })?;
            benchmarks.push(ctx.trace.name().to_string());
            warmed = warmed.min(ctx.committed);
            threads.push(ThreadCheckpoint {
                trace,
                pending_ops: ctx.pending_trace_ops().to_vec(),
                committed: ctx.committed,
                branch_predictor: ctx.branch_predictor.state(),
                lll_predictor: ctx.lll_predictor.state(),
                mlp_predictor: ctx.mlp_predictor.state(),
                binary_mlp_predictor: ctx.binary_mlp_predictor.state(),
                llsr: ctx.llsr.state(),
                pending_mlp_evals: ctx
                    .pending_mlp_evals
                    .iter()
                    .map(|e| PendingEvalState {
                        pc: e.pc,
                        predicted_distance: e.predicted_distance,
                    })
                    .collect(),
            });
        }
        let meta = CheckpointMeta {
            schema_version: CheckpointMeta::SCHEMA_VERSION,
            benchmarks,
            seed,
            num_threads: self.config().num_threads as u32,
            warmed_instructions: if warmed == u64::MAX { 0 } else { warmed },
        };
        Ok(SimCheckpoint {
            meta,
            threads,
            memory: self.core.mem.state(),
            shared,
        })
    }

    /// Restores a checkpoint into this simulator, which must be freshly built
    /// for the same configuration and workload (same benchmarks, same seed
    /// derivation, same geometry). After a successful restore the simulator is
    /// bit-for-bit the machine that was checkpointed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on a schema or geometry mismatch
    /// and [`SimError::InvalidWorkload`] on a workload mismatch.
    pub fn restore_checkpoint(&mut self, ck: &SimCheckpoint) -> Result<(), SimError> {
        if ck.meta.schema_version != CheckpointMeta::SCHEMA_VERSION {
            return Err(SimError::invalid_config(format!(
                "unsupported checkpoint schema version {} (expected {})",
                ck.meta.schema_version,
                CheckpointMeta::SCHEMA_VERSION
            )));
        }
        if self.core.cycle() != 0 || !self.core.is_drained() {
            return Err(SimError::internal(
                "checkpoints may only be restored into a freshly built simulator",
            ));
        }
        let num_threads = self.config().num_threads;
        if ck.meta.num_threads as usize != num_threads || ck.threads.len() != num_threads {
            return Err(SimError::invalid_config(format!(
                "checkpoint has {} threads, simulator has {num_threads}",
                ck.threads.len()
            )));
        }
        for (ctx, t) in self.core.threads.iter_mut().zip(&ck.threads) {
            ctx.trace
                .restore_state(&t.trace)
                .map_err(SimError::invalid_workload)?;
            ctx.set_pending_trace_ops(t.pending_ops.clone());
            ctx.committed = t.committed;
            ctx.branch_predictor
                .restore_state(&t.branch_predictor)
                .map_err(SimError::invalid_config)?;
            ctx.lll_predictor
                .restore_state(&t.lll_predictor)
                .map_err(SimError::invalid_config)?;
            ctx.mlp_predictor
                .restore_state(&t.mlp_predictor)
                .map_err(SimError::invalid_config)?;
            ctx.binary_mlp_predictor
                .restore_state(&t.binary_mlp_predictor)
                .map_err(SimError::invalid_config)?;
            ctx.llsr
                .restore_state(&t.llsr)
                .map_err(SimError::invalid_config)?;
            ctx.pending_mlp_evals = t
                .pending_mlp_evals
                .iter()
                .map(|e| PendingMlpEval {
                    pc: e.pc,
                    predicted_distance: e.predicted_distance,
                })
                .collect();
        }
        self.core
            .mem
            .restore_state(&ck.memory)
            .map_err(SimError::invalid_config)?;
        self.shared
            .restore_state(&ck.shared)
            .map_err(SimError::invalid_config)?;
        self.core.wake();
        Ok(())
    }
}
