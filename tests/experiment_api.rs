//! Integration tests of the declarative experiment API: sweep grids,
//! report serialization round-trips, thread-count invariance, and
//! exactly-once semantics of the shared single-threaded reference cache
//! under concurrency.

use smt_core::experiments::{
    engine, ExperimentRegistry, ExperimentReport, ExperimentSpec, SummaryRow,
};
use smt_core::runner::{RunScale, StReferenceCache};
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

fn scale() -> RunScale {
    RunScale::tiny()
}

fn spec(name: &str) -> ExperimentSpec {
    ExperimentRegistry::builtin()
        .get(name)
        .unwrap_or_else(|| panic!("registry entry `{name}` missing"))
        .clone()
        .with_scale(scale())
}

fn summary<'a>(
    report: &'a ExperimentReport,
    policy: FetchPolicyKind,
    group: Option<&str>,
    parameter: Option<u64>,
) -> &'a SummaryRow {
    report
        .summaries
        .iter()
        .find(|row| {
            row.policy == policy && row.group.as_deref() == group && row.parameter == parameter
        })
        .unwrap_or_else(|| panic!("no summary for {policy:?} {group:?} {parameter:?}"))
}

/// `spec` with its sweep restricted to `values`.
fn swept(mut spec: ExperimentSpec, values: &[u64]) -> ExperimentSpec {
    spec.sweep.as_mut().expect("sweep spec").values = values.to_vec();
    spec
}

#[test]
fn memory_latency_grid_produces_points() {
    let report = engine::run_spec(&swept(spec("fig15_memory_latency_sweep"), &[200, 600])).unwrap();
    for latency in [200, 600] {
        let policies: Vec<FetchPolicyKind> = report
            .summaries
            .iter()
            .filter(|row| row.parameter == Some(latency) && row.group.is_none())
            .map(|row| row.policy)
            .collect();
        assert_eq!(policies, FetchPolicyKind::MAIN_COMPARISON);
        let icount = summary(&report, FetchPolicyKind::Icount, None, Some(latency));
        let mlp_flush = summary(&report, FetchPolicyKind::MlpFlush, None, Some(latency));
        let rel = mlp_flush.avg_stp / icount.avg_stp;
        assert!(rel > 0.5 && rel < 2.0, "relative STP {rel} out of range");
    }
}

#[test]
fn window_grid_scales_configuration() {
    let report = engine::run_spec(&swept(spec("fig17_window_size_sweep"), &[128])).unwrap();
    assert!(report
        .policy_cells
        .iter()
        .all(|cell| cell.parameter == Some(128)));
    let icount = summary(&report, FetchPolicyKind::Icount, None, Some(128));
    let flush = summary(&report, FetchPolicyKind::Flush, None, Some(128));
    assert!((flush.avg_antt / icount.avg_antt).is_finite());
}

#[test]
fn report_round_trips_through_json_and_toml() {
    let report = engine::run_spec(
        &spec("fig09_two_thread_policies")
            .with_workload_limit_per_group(1)
            .unwrap(),
    )
    .unwrap();
    let json = report.to_json().unwrap();
    let from_json: ExperimentReport = serde_json::from_str(&json).unwrap();
    assert_eq!(from_json, report);
    let toml_text = report.to_toml().unwrap();
    let from_toml: ExperimentReport = toml::from_str(&toml_text).unwrap();
    assert_eq!(from_toml, report);
}

#[test]
fn shared_reference_cache_simulates_each_reference_exactly_once() {
    let cache = StReferenceCache::new();
    let run_scale = scale();
    let baseline = SmtConfig::baseline(2);
    let slow_memory = baseline.clone().with_memory_latency(600);
    // 4 benchmarks x 2 configurations = 8 distinct references.
    let benchmarks = ["mcf", "swim", "gcc", "gap"];
    let configs = [&baseline, &slow_memory];
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let cache = &cache;
            let configs = &configs;
            scope.spawn(move || {
                // Each worker asks for every reference, in a different order.
                for step in 0..benchmarks.len() * configs.len() {
                    let index = (step + worker) % (benchmarks.len() * configs.len());
                    let benchmark = benchmarks[index % benchmarks.len()];
                    let config = configs[index / benchmarks.len()];
                    let cpi = cache.st_cpi(benchmark, config, run_scale, 1_000).unwrap();
                    assert!(cpi > 0.0);
                }
            });
        }
    });
    assert_eq!(cache.len(), 8, "8 distinct references should be cached");
    assert_eq!(
        cache.reference_runs(),
        8,
        "every reference must be simulated exactly once across 8 threads"
    );
}

#[test]
fn engine_results_do_not_depend_on_thread_count() {
    let grid_spec = spec("fig09_two_thread_policies")
        .with_workload_limit_per_group(1)
        .unwrap();
    let serial = engine::run_spec_with_threads(&grid_spec, 1).unwrap();
    let parallel = engine::run_spec_with_threads(&grid_spec, 8).unwrap();
    assert_eq!(serial.policy_cells, parallel.policy_cells);
    assert_eq!(serial.summaries, parallel.summaries);
    assert_eq!(serial.reference_runs, parallel.reference_runs);
}
