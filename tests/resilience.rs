//! End-to-end resilience properties of the experiment engine.
//!
//! Three contracts from the resilient-engine work are pinned here, from the
//! outside, against the public API:
//!
//! 1. **Transient chaos is invisible.** Any fault plan whose faults all
//!    recover within the retry budget yields a report bit-for-bit identical
//!    to the fault-free run (modulo wall-clock time and thread count), for
//!    single-core policy grids and chip grids alike.
//! 2. **Degradation is deterministic.** A permanently failing cell produces
//!    the same degraded report on 1 engine thread and on 4.
//! 3. **Artifact writes are crash-safe.** Killing a process mid-write leaves
//!    either the old artifact or the complete new one on disk — never a
//!    truncated hybrid.

use proptest::prelude::*;
use smt_core::experiments::{
    run_spec_with_policy, ExperimentRegistry, ExperimentReport, RunPolicy,
};
use smt_core::runner::RunScale;
use smt_resil::{FaultAction, FaultPlan, FaultSpec};

/// The small spec every engine test here runs: two workloads of the paper's
/// two-thread policy comparison at the tiny scale.
fn tiny_spec() -> smt_core::experiments::ExperimentSpec {
    ExperimentRegistry::builtin()
        .get("fig09_two_thread_policies")
        .expect("registry entry exists")
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit(1)
}

/// A two-core chip grid at the tiny scale: one workload under two policies.
fn tiny_chip_spec() -> smt_core::experiments::ExperimentSpec {
    let mut spec = ExperimentRegistry::builtin()
        .get("chip_2c2t_allocation_matrix")
        .expect("registry entry exists")
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit(1);
    spec.policies.truncate(2);
    spec
}

/// Zeroes the report fields that legitimately differ between runs (wall
/// clock) and thread counts, leaving everything the results contract pins.
fn comparable(mut report: ExperimentReport) -> ExperimentReport {
    report.wall_ms = 0;
    report.threads_used = 0;
    report
}

fn transient_fault(site: &str, action: FaultAction, cell: u64, hits: u64) -> FaultSpec {
    FaultSpec {
        site: site.to_string(),
        action,
        cell: Some(cell),
        hits: Some(hits),
        delay_ms: None,
        probability_pct: None,
        detail: Some("resilience integration test".to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract 1: a transient-only plan (every fault disarms within the
    /// retry budget) must recover to bit-for-bit parity with the fault-free
    /// run — same cells, same metrics, complete health, exit-code-0 shape.
    #[test]
    fn transient_chaos_recovers_to_bit_for_bit_parity(
        seed in 0u64..1_000,
        site_finish in any::<bool>(),
        panic_not_fail in any::<bool>(),
        cell in 0u64..6,
        hits in 1u64..3,
    ) {
        let spec = tiny_spec();
        let site = if site_finish { "cell-finish" } else { "cell-start" };
        let action = if panic_not_fail { FaultAction::Panic } else { FaultAction::Fail };
        let plan = FaultPlan {
            seed,
            faults: vec![transient_fault(site, action, cell, hits)],
        };
        let policy = RunPolicy {
            max_retries: 2,
            fault_plan: Some(plan.clone()),
            ..RunPolicy::default()
        };
        prop_assert!(plan.recovers_within(policy.max_attempts()));

        let clean = run_spec_with_policy(&spec, 2, &RunPolicy::default()).unwrap();
        let chaotic = run_spec_with_policy(&spec, 2, &policy).unwrap();
        prop_assert!(chaotic.health.as_ref().unwrap().is_complete());
        prop_assert_eq!(comparable(clean), comparable(chaotic));
    }
}

/// Contract 1 on a chip grid: a panic in one chip cell that recovers within
/// the retry budget leaves the report identical to the fault-free run.
#[test]
fn chip_grid_chaos_recovers_to_bit_for_bit_parity() {
    let plan = FaultPlan {
        seed: 7,
        faults: vec![transient_fault("cell-start", FaultAction::Panic, 1, 1)],
    };
    let policy = RunPolicy {
        max_retries: 2,
        fault_plan: Some(plan.clone()),
        ..RunPolicy::default()
    };
    assert!(plan.recovers_within(policy.max_attempts()));

    let spec = tiny_chip_spec();
    let clean = run_spec_with_policy(&spec, 2, &RunPolicy::default()).expect("clean grid runs");
    let chaotic = run_spec_with_policy(&spec, 2, &policy).expect("chaotic grid runs");
    assert!(chaotic.health.as_ref().unwrap().is_complete());
    assert_eq!(comparable(chaotic), comparable(clean));
}

/// Contract 2: degraded reports — which cells failed, with what error, after
/// how many attempts — are a pure function of the spec and the policy, not
/// of the engine's thread count.
#[test]
fn degraded_reports_are_identical_across_thread_counts() {
    let spec = tiny_spec();
    let plan = FaultPlan {
        seed: 13,
        faults: vec![FaultSpec {
            site: "cell-start".to_string(),
            action: FaultAction::Fail,
            cell: Some(1),
            hits: None, // permanent
            delay_ms: None,
            probability_pct: None,
            detail: Some("permanent integration fault".to_string()),
        }],
    };
    let policy = RunPolicy {
        fault_plan: Some(plan),
        ..RunPolicy::default()
    };
    let serial = run_spec_with_policy(&spec, 1, &policy).unwrap();
    let parallel = run_spec_with_policy(&spec, 4, &policy).unwrap();
    let health = serial.health.clone().unwrap();
    assert!(!health.is_complete());
    assert_eq!(health.failed_cells, 1);
    assert_eq!(comparable(serial), comparable(parallel));
}

/// Two distinguishable multi-megabyte payloads: large enough that a kill
/// reliably lands inside a write, single-valued so corruption is detectable.
fn kill_write_payload(tag: &str) -> String {
    format!("{{\"tag\": \"{}\"}}\n", tag.repeat(2_000_000))
}

/// Child half of the kill-mid-write test, re-executed from the test binary
/// itself: loops forever alternating two large payloads through
/// [`smt_core::artifacts::write_atomic`] until the parent kills it. Runs
/// (and immediately passes) as an ordinary empty test when the env var is
/// absent.
#[test]
fn kill_write_child_helper() {
    let Ok(path) = std::env::var("SMT_KILL_WRITE_PATH") else {
        return;
    };
    let a = kill_write_payload("a");
    let b = kill_write_payload("b");
    loop {
        smt_core::artifacts::write_atomic(&path, &a).expect("child write");
        smt_core::artifacts::write_atomic(&path, &b).expect("child write");
    }
}

/// Contract 3: `write_atomic` under `SIGKILL`. A child process (this same
/// test binary running [`kill_write_child_helper`]) overwrites a
/// trajectory-like JSON artifact in a tight loop; the parent kills it
/// mid-flight. Whatever instant the kill landed, the file must hold one
/// complete payload — never a truncation or interleaving — and the only
/// possible debris is the protocol's `*.tmp` sibling.
#[test]
fn killing_a_writer_mid_write_never_corrupts_the_artifact() {
    let dir = std::env::temp_dir().join(format!("smt-kill-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("BENCH_throughput.json");

    let original = kill_write_payload("a");
    let rewrite = kill_write_payload("b");
    smt_core::artifacts::write_atomic(&path, &original).expect("seed artifact");

    let mut child = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["kill_write_child_helper", "--exact", "--test-threads=1"])
        .env("SMT_KILL_WRITE_PATH", &path)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn writer child");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("kill writer");
    let _ = child.wait();

    let found = std::fs::read_to_string(&path).expect("artifact still readable");
    assert!(
        found == original || found == rewrite,
        "artifact is a {}-byte hybrid (original {} bytes, rewrite {} bytes)",
        found.len(),
        original.len(),
        rewrite.len()
    );
    // The only debris a kill may leave is the child's own temp sibling.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name == "BENCH_throughput.json" || name.ends_with(".tmp"),
            "unexpected file in scratch dir: {name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
