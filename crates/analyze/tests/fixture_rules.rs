//! End-to-end fixture tests: each rule fires exactly where the fixture
//! plants a violation, clean constructs stay clean, allow annotations
//! suppress, and stale annotations are reported.
//!
//! Fixture sources live in `tests/fixtures/` and are fed to the analyzer
//! under synthetic workspace paths; they are never compiled.

use smt_analyze::{analyze_inputs, Input};

fn input(path: &str, text: &str) -> Input {
    Input {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// `(line, rule)` of every finding, in report order.
fn hits(report: &smt_analyze::Report) -> Vec<(usize, &'static str)> {
    report.findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn hot_path_alloc_fires_outside_constructors_and_tests() {
    let report = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/hot_path.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![
            (22, "hot-path-alloc"),
            (23, "hot-path-alloc"),
            (24, "hot-path-alloc"),
            (30, "hot-path-alloc"),
        ]
    );
}

#[test]
fn hot_path_alloc_is_scoped_to_hot_crates() {
    let report = analyze_inputs(&[input(
        "crates/cli/src/fake.rs",
        include_str!("fixtures/hot_path.rs"),
    )]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn determinism_fires_on_clock_env_and_hash_iteration() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![
            (5, "determinism"),
            (15, "determinism"),
            (16, "determinism"),
            (18, "determinism"),
            (19, "determinism"),
            (23, "determinism"),
        ]
    );
}

#[test]
fn determinism_is_scoped_to_simulation_crates() {
    let report = analyze_inputs(&[input(
        "crates/bench/src/fake.rs",
        include_str!("fixtures/determinism.rs"),
    )]);
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn swap_point_fires_everywhere_but_the_sanctioned_file() {
    let outside = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/swap_point.rs"),
    )]);
    assert_eq!(hits(&outside), vec![(13, "swap-point")]);

    let sanctioned = analyze_inputs(&[input(
        "crates/core/src/pipeline/adaptive.rs",
        include_str!("fixtures/swap_point.rs"),
    )]);
    assert!(sanctioned.is_clean(), "{:?}", sanctioned.findings);
}

#[test]
fn sampling_discipline_fires_only_in_the_fast_forward_file() {
    let report = analyze_inputs(&[input(
        "crates/core/src/pipeline/fast_forward.rs",
        include_str!("fixtures/sampling_discipline.rs"),
    )]);
    // Plain `self.cycle` reads and `cycle ==` comparisons are legal; the
    // allowed counter touch on line 21 is suppressed, not reported.
    assert_eq!(
        hits(&report),
        vec![
            (12, "sampling-discipline"),
            (13, "sampling-discipline"),
            (14, "sampling-discipline"),
            (15, "sampling-discipline"),
        ]
    );
    assert_eq!(report.suppressed.len(), 1);

    let elsewhere = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/sampling_discipline.rs"),
    )]);
    // Outside the fast-forward file the rule does not apply, so the allow
    // annotation has nothing to suppress and is itself reported as stale.
    assert_eq!(hits(&elsewhere), vec![(20, "unused-allow")]);
}

#[test]
fn snapshot_clock_fires_in_policy_and_selector_crates() {
    for path in ["crates/fetch/src/fake.rs", "crates/adapt/src/fake.rs"] {
        let report = analyze_inputs(&[input(path, include_str!("fixtures/snapshot_clock.rs"))]);
        // `oldest_lll_cycle`, `.cycles`, `.cycle()` and `.cycle_*` are legal;
        // the allowed read on line 20 is suppressed, not reported.
        assert_eq!(
            hits(&report),
            vec![
                (7, "snapshot-clock"),
                (8, "snapshot-clock"),
                (13, "snapshot-clock"),
            ],
            "{path}"
        );
        assert_eq!(report.suppressed.len(), 1, "{path}");
    }

    // The pipeline owns the clock: outside the policy crates the rule does
    // not apply, and the allow annotation is reported as stale.
    let pipeline = analyze_inputs(&[input(
        "crates/core/src/pipeline/fake.rs",
        include_str!("fixtures/snapshot_clock.rs"),
    )]);
    assert_eq!(hits(&pipeline), vec![(19, "unused-allow")]);
}

#[test]
fn sync_discipline_fires_in_sim_crates_outside_the_pool_module() {
    let report = analyze_inputs(&[input(
        "crates/adapt/src/fake.rs",
        include_str!("fixtures/sync_discipline.rs"),
    )]);
    // `&self` view queries (line 14) and `&mut self` methods on non-view
    // impls (line 24) are legal; the allowed Mutex on line 38 is suppressed,
    // not reported.
    assert_eq!(
        hits(&report),
        vec![
            (6, "sync-discipline"),
            (7, "sync-discipline"),
            (18, "sync-discipline"),
            (30, "sync-discipline"),
            (31, "sync-discipline"),
            (32, "sync-discipline"),
        ]
    );
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn sync_discipline_spares_the_pool_module_and_the_harness() {
    for path in [
        "crates/core/src/chip/parallel.rs",
        "crates/core/src/runner.rs",
        "crates/core/src/throughput.rs",
        "crates/core/src/experiments/engine.rs",
        "crates/cli/src/fake.rs",
    ] {
        let report = analyze_inputs(&[input(path, include_str!("fixtures/sync_discipline.rs"))]);
        // Out of scope the rule never fires, so the allow annotation has
        // nothing to suppress and is itself reported as stale.
        assert_eq!(hits(&report), vec![(37, "unused-allow")], "{path}");
    }
}

#[test]
fn config_hygiene_flags_only_underivative_deserialize_structs() {
    let report = analyze_inputs(&[input(
        "crates/types/src/fake.rs",
        include_str!("fixtures/config_hygiene.rs"),
    )]);
    // `Loose` is flagged; `Strict` (denying), `Kind` (enum) and
    // `SerializeOnly` (no Deserialize) are not.
    assert_eq!(hits(&report), vec![(6, "config-hygiene")]);
}

#[test]
fn allows_suppress_and_stale_allows_are_reported() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        include_str!("fixtures/allows.rs"),
    )]);
    assert_eq!(
        hits(&report),
        vec![(13, "unused-allow"), (14, "hot-path-alloc")]
    );
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn registry_drift_catches_phantom_citations_and_undocumented_names() {
    let registry = input(
        "crates/core/src/experiments/registry.rs",
        r#"
fn builtin() {
    single_thread("fig09_two_thread_policies", "...");
    single_thread("fig99_forgotten", "...");
}
"#,
    );
    let readme = input(
        "README.md",
        "Run `cargo run -p smt-cli -- run fig09_two_thread_policies` or cite `fig12_phantom`.\n",
    );
    let experiments = input(
        "EXPERIMENTS.md",
        "## fig09_two_thread_policies\n\nDocumented.\n",
    );
    let report = analyze_inputs(&[registry, readme, experiments]);
    let drift: Vec<(&str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // `fig12_phantom` cited but unregistered; `fig99_forgotten` registered
    // but undocumented.
    assert_eq!(
        drift,
        vec![
            ("README.md", 1),
            ("crates/core/src/experiments/registry.rs", 4),
        ]
    );
    assert!(report.findings.iter().all(|f| f.rule == "registry-drift"));
}

#[test]
fn registry_drift_checks_bench_scenarios_against_throughput_matrix() {
    let throughput = input(
        "crates/core/src/throughput.rs",
        "fn matrix() { scenario(\"4t_mix_icount\"); }\n",
    );
    let bench = input(
        "BENCH_throughput.json",
        "{\n  \"entries\": [\n    { \"name\": \"4t_mix_icount\" },\n    { \"name\": \"9t_legacy\" }\n  ]\n}\n",
    );
    let report = analyze_inputs(&[throughput, bench]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(
        (f.file.as_str(), f.line, f.rule),
        ("BENCH_throughput.json", 4, "registry-drift")
    );
}

#[test]
fn json_report_shape_is_stable() {
    let report = analyze_inputs(&[input(
        "crates/fetch/src/fake.rs",
        "fn step() { let v = Vec::new(); }\n",
    )]);
    let json = report.to_json();
    assert!(json.contains("\"file\": \"crates/fetch/src/fake.rs\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"scanned_files\": 1"));
    assert!(json.ends_with("}\n"));
}
