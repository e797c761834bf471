//! Registry golden-report regression test: pins the full
//! [`ExperimentReport`] of every built-in registry entry, bit for bit.
//!
//! Each entry runs at [`RunScale::tiny`] with one workload, sweeps trimmed to
//! their first two values, on two engine threads. The fixture
//! (`tests/golden/registry_reports.json`) covers every experiment kind the
//! engine knows — exact, sweep, sampled, chip, adaptive at machine and chip
//! level, trace replay and the four single-thread kinds — so any change to
//! cell expansion, labels, summaries, reference-run counts or checkpoint
//! traffic fails here. Only `wall_ms` and `threads_used` are zeroed.
//! Regenerate deliberately with:
//!
//! ```text
//! SMT_GOLDEN_REGEN=1 cargo test --test registry_golden
//! ```

use serde::{Deserialize, Serialize};
use smt_core::experiments::{engine, ExperimentRegistry, ExperimentReport, ExperimentSpec};
use smt_core::runner::RunScale;

/// One pinned registry run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct GoldenReport {
    name: String,
    report: ExperimentReport,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("registry_reports.json")
}

/// The pinned, shrunk form of a registry entry.
fn golden_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut spec = spec
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit(1);
    if let Some(sweep) = spec.sweep.as_mut() {
        sweep.values.truncate(2);
    }
    spec
}

fn run_all() -> Vec<GoldenReport> {
    ExperimentRegistry::builtin()
        .specs()
        .iter()
        .map(|spec| {
            let mut report = engine::run_spec_with_threads(&golden_spec(spec), 2)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            report.wall_ms = 0;
            report.threads_used = 0;
            GoldenReport {
                name: spec.name.clone(),
                report,
            }
        })
        .collect()
}

#[test]
fn registry_reports_match_golden_fixture_bit_for_bit() {
    let current = run_all();
    let path = golden_path();
    if std::env::var("SMT_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("fixture serializes");
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        smt_core::artifacts::write_atomic(&path, json + "\n").expect("fixture written");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SMT_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let golden: Vec<GoldenReport> = serde_json::from_str(&text).expect("fixture parses");
    let names = |runs: &[GoldenReport]| runs.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&current),
        names(&golden),
        "registry entries drifted; regenerate deliberately with SMT_GOLDEN_REGEN=1"
    );
    for (now, pinned) in current.iter().zip(&golden) {
        let (now, pinned) = (&now.report, &pinned.report);
        let name = &pinned.experiment;
        // A pinned failure would only prove the failure is stable.
        assert!(
            now.health.as_ref().is_some_and(|h| h.is_complete()),
            "{name}: run did not complete: {:?}",
            now.health
        );
        assert_eq!(
            now.cell_outcomes, pinned.cell_outcomes,
            "{name}: cell outcomes"
        );
        assert_eq!(now.health, pinned.health, "{name}: health");
        assert_eq!(
            now.policy_cells, pinned.policy_cells,
            "{name}: policy cells"
        );
        assert_eq!(now.summaries, pinned.summaries, "{name}: summaries");
        assert_eq!(now.bench_rows, pinned.bench_rows, "{name}: bench rows");
        assert_eq!(
            now.reference_runs, pinned.reference_runs,
            "{name}: reference runs"
        );
        assert_eq!(now.checkpoints, pinned.checkpoints, "{name}: checkpoints");
        assert_eq!(now, pinned, "{name}: report header");
    }
}

#[test]
fn golden_registry_covers_every_kind() {
    let registry = ExperimentRegistry::builtin();
    let specs = registry.specs();
    let kinds: Vec<_> = specs.iter().map(|s| s.kind).collect();
    for kind in smt_core::experiments::ExperimentKind::ALL {
        assert!(kinds.contains(&kind), "no registry entry of kind {kind:?}");
    }
    assert!(specs.iter().any(|s| s.sweep.is_some()));
    assert!(specs.iter().any(|s| s.sampling.is_some()));
    assert!(specs
        .iter()
        .any(|s| s.adaptive.is_some() && s.chip.is_some()));
    assert!(specs.iter().any(|s| s
        .workloads
        .iter()
        .flatten()
        .any(|b| b.starts_with("trace:"))));
}
