//! End-to-end integration tests: full simulations across fetch policies, checking
//! the qualitative results the paper reports.

use smt_core::experiments::{
    engine, ExperimentKind, ExperimentRegistry, ExperimentReport, ExperimentSpec, SummaryRow,
};
use smt_core::runner::{evaluate_workload, run_multiprogram, RunScale};
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

fn scale() -> RunScale {
    RunScale::test()
}

/// Runs a baseline-machine policy × workload grid through the engine.
fn policy_grid(policies: &[FetchPolicyKind], workloads: &[[&str; 2]]) -> ExperimentReport {
    let spec = ExperimentSpec {
        name: "end-to-end-grid".to_string(),
        title: "end-to-end policy grid".to_string(),
        paper_ref: String::new(),
        kind: ExperimentKind::PolicyGrid,
        policies: policies.to_vec(),
        workloads: workloads
            .iter()
            .map(|w| w.iter().map(|b| b.to_string()).collect())
            .collect(),
        sweep: None,
        overrides: None,
        chip: None,
        adaptive: None,
        resilience: None,
        sampling: None,
        scale: scale(),
    };
    let report = engine::run_spec(&spec).unwrap();
    assert!(report.health.as_ref().unwrap().is_complete());
    report
}

/// The all-workloads aggregate of one policy.
fn overall(report: &ExperimentReport, policy: FetchPolicyKind) -> &SummaryRow {
    report
        .summaries
        .iter()
        .find(|row| row.policy == policy && row.group.is_none())
        .unwrap_or_else(|| panic!("no summary for {}", policy.name()))
}

#[test]
fn every_policy_completes_an_mlp_intensive_workload() {
    let cfg = SmtConfig::baseline(2);
    for policy in [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::PredictiveStall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpStall,
        FetchPolicyKind::MlpFlush,
        FetchPolicyKind::MlpBinaryFlush,
        FetchPolicyKind::MlpDistanceFlushAtStall,
        FetchPolicyKind::MlpBinaryFlushAtStall,
        FetchPolicyKind::StaticPartition,
        FetchPolicyKind::Dcra,
    ] {
        let stats = run_multiprogram(&["mcf", "swim"], policy, &cfg, scale()).unwrap();
        let max_committed = stats
            .threads
            .iter()
            .map(|t| t.committed_instructions)
            .max()
            .unwrap();
        assert!(
            max_committed >= scale().instructions_per_thread,
            "{}: did not reach the instruction budget",
            policy.name()
        );
        assert!(stats.cycles > 0);
        for t in &stats.threads {
            assert!(
                t.committed_instructions > 0,
                "{}: a thread starved",
                policy.name()
            );
        }
    }
}

#[test]
fn long_latency_aware_policies_beat_icount_on_mlp_workloads() {
    let report = policy_grid(
        &[
            FetchPolicyKind::Icount,
            FetchPolicyKind::Flush,
            FetchPolicyKind::MlpFlush,
        ],
        &[["mcf", "swim"], ["mcf", "galgel"]],
    );
    let icount = overall(&report, FetchPolicyKind::Icount);
    let flush = overall(&report, FetchPolicyKind::Flush);
    let mlp_flush = overall(&report, FetchPolicyKind::MlpFlush);
    assert!(
        flush.avg_stp > icount.avg_stp,
        "flush STP {} should beat ICOUNT {}",
        flush.avg_stp,
        icount.avg_stp
    );
    assert!(
        mlp_flush.avg_stp > icount.avg_stp,
        "MLP-aware flush STP {} should beat ICOUNT {}",
        mlp_flush.avg_stp,
        icount.avg_stp
    );
    assert!(
        mlp_flush.avg_antt < icount.avg_antt,
        "MLP-aware flush ANTT {} should beat ICOUNT {}",
        mlp_flush.avg_antt,
        icount.avg_antt
    );
    // The headline claim: MLP awareness improves turnaround time over plain flush
    // for MLP-intensive workloads.
    assert!(
        mlp_flush.avg_antt <= flush.avg_antt * 1.02,
        "MLP-aware flush ANTT {} should not be worse than flush {}",
        mlp_flush.avg_antt,
        flush.avg_antt
    );
}

#[test]
fn mlp_flush_beats_icount_on_mlp_intensive_workload() {
    let report = policy_grid(
        &[FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
        &[["mcf", "swim"]],
    );
    let icount = overall(&report, FetchPolicyKind::Icount);
    let mlp_flush = overall(&report, FetchPolicyKind::MlpFlush);
    assert!(
        mlp_flush.avg_stp >= icount.avg_stp * 0.98,
        "MLP-aware flush STP {} should not trail ICOUNT {} on an MLP-intensive mix",
        mlp_flush.avg_stp,
        icount.avg_stp
    );
}

#[test]
fn ipc_stacks_have_one_entry_per_policy() {
    // Figures 11/12: per-thread IPC stacks of the first MLP-intensive
    // two-thread workload under every main policy.
    let spec = ExperimentRegistry::builtin()
        .get("fig09_two_thread_policies")
        .unwrap()
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit_per_group(1)
        .unwrap();
    let report = engine::run_spec(&spec).unwrap();
    let stack: Vec<_> = report
        .policy_cells
        .iter()
        .filter(|cell| cell.group == "MLP")
        .collect();
    let policies: Vec<FetchPolicyKind> = stack.iter().map(|cell| cell.policy).collect();
    assert_eq!(policies, FetchPolicyKind::MAIN_COMPARISON);
    for cell in &stack {
        assert_eq!(cell.per_thread_ipc.len(), 2);
        assert!(cell.per_thread_ipc.iter().all(|&v| v > 0.0));
    }
}

#[test]
fn simulations_are_deterministic() {
    let a = evaluate_workload(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale()).unwrap();
    let b = evaluate_workload(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale()).unwrap();
    assert_eq!(a.mt_stats.cycles, b.mt_stats.cycles);
    assert_eq!(
        a.mt_stats.threads[0].committed_instructions,
        b.mt_stats.threads[0].committed_instructions
    );
    assert_eq!(a.stp, b.stp);
    assert_eq!(a.antt, b.antt);
}

#[test]
fn different_seeds_change_the_timing() {
    let mut other = scale();
    other.seed = 1234;
    let a = evaluate_workload(&["mcf", "swim"], FetchPolicyKind::Icount, scale()).unwrap();
    let b = evaluate_workload(&["mcf", "swim"], FetchPolicyKind::Icount, other).unwrap();
    assert_ne!(a.mt_stats.cycles, b.mt_stats.cycles);
}

#[test]
fn four_thread_workload_runs_under_mlp_flush() {
    let cfg = SmtConfig::baseline(4);
    let stats = run_multiprogram(
        &["mcf", "swim", "gcc", "twolf"],
        FetchPolicyKind::MlpFlush,
        &cfg,
        RunScale::tiny(),
    )
    .unwrap();
    assert_eq!(stats.threads.len(), 4);
    for t in &stats.threads {
        assert!(t.committed_instructions > 0);
    }
}

#[test]
fn stp_and_antt_are_within_theoretical_bounds() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let r = evaluate_workload(&["swim", "twolf"], policy, scale()).unwrap();
        assert!(r.stp > 0.0 && r.stp <= 2.05, "STP {} out of bounds", r.stp);
        assert!(
            r.antt >= 0.85,
            "ANTT {} below the no-slowdown bound",
            r.antt
        );
    }
}

#[test]
fn flush_policies_actually_flush_and_refetch() {
    let cfg = SmtConfig::baseline(2);
    let stats =
        run_multiprogram(&["mcf", "equake"], FetchPolicyKind::Flush, &cfg, scale()).unwrap();
    let squashes: u64 = stats.threads.iter().map(|t| t.squashed_by_policy).sum();
    let flushes: u64 = stats.threads.iter().map(|t| t.policy_flushes).sum();
    assert!(
        flushes > 0,
        "the flush policy never flushed on an MLP-heavy mix"
    );
    assert!(squashes > 0);
    // ICOUNT never flushes.
    let stats =
        run_multiprogram(&["mcf", "equake"], FetchPolicyKind::Icount, &cfg, scale()).unwrap();
    let squashes: u64 = stats.threads.iter().map(|t| t.squashed_by_policy).sum();
    assert_eq!(squashes, 0);
}

#[test]
fn dcra_and_static_partitioning_respect_thread_progress() {
    let cfg = SmtConfig::baseline(2);
    for policy in [FetchPolicyKind::StaticPartition, FetchPolicyKind::Dcra] {
        let stats = run_multiprogram(&["mcf", "gcc"], policy, &cfg, scale()).unwrap();
        for t in &stats.threads {
            assert!(
                t.committed_instructions > scale().instructions_per_thread / 20,
                "{}: a thread made almost no progress",
                policy.name()
            );
        }
    }
}
