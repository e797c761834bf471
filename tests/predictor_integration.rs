//! Integration tests for the predictor stack (long-latency load predictor, LLSR,
//! MLP distance predictor) and the single-thread characterizations measured
//! through full pipeline runs — the Table I and Figures 4-8 claims at
//! unit-test scale, through the registry specs where one exists.

use smt_core::experiments::{engine, BenchRow, ExperimentRegistry};
use smt_core::runner::{run_single_thread, RunScale};
use smt_types::SmtConfig;

/// Runs the single-thread registry entry `name` at `scale`, restricted to
/// `benchmarks` (every benchmark of the entry when empty).
fn bench_rows(name: &str, benchmarks: &[&str], scale: RunScale) -> Vec<BenchRow> {
    let mut spec = ExperimentRegistry::builtin()
        .get(name)
        .unwrap_or_else(|| panic!("registry entry `{name}` missing"))
        .clone()
        .with_scale(scale);
    if !benchmarks.is_empty() {
        spec.workloads = benchmarks.iter().map(|b| vec![b.to_string()]).collect();
    }
    let report = engine::run_spec(&spec).unwrap();
    assert!(report.health.as_ref().unwrap().is_complete(), "{name}");
    report.bench_rows
}

fn row<'a>(rows: &'a [BenchRow], benchmark: &str) -> &'a BenchRow {
    rows.iter()
        .find(|r| r.benchmark == benchmark)
        .unwrap_or_else(|| panic!("no row for {benchmark}"))
}

/// Fraction of predicted MLP distances at or below `distance` instructions.
fn fraction_within(row: &BenchRow, distance: u32) -> f64 {
    smt_core::metrics::cdf_fraction_within(row.mlp_distance_cdf.as_deref().unwrap(), distance)
}

#[test]
fn long_latency_predictor_accuracy_is_high_across_memory_benchmarks() {
    // Figure 6: "no less than 94%, average 99.4%". At unit-test scale we require a
    // slightly looser floor but the same character. Predictors are characterized
    // on the raw miss stream (prefetcher off), as in the Table I setup.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "equake", "applu", "lucas", "mcf"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].lll_predictor_accuracy();
        assert!(acc > 0.90, "{name}: long-latency predictor accuracy {acc}");
    }
}

#[test]
fn lll_predictor_is_accurate_on_memory_intensive_benchmark() {
    let rows = bench_rows("fig06_08_predictor_accuracy", &["swim"], RunScale::test());
    let acc = row(&rows, "swim").lll_accuracy.unwrap();
    assert!(acc > 0.90, "swim long-latency predictor accuracy {acc}");
}

#[test]
fn miss_prediction_accuracy_is_reasonable_for_memory_intensive_benchmarks() {
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "equake", "applu"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].lll_predictor_miss_accuracy();
        assert!(
            acc > 0.5,
            "{name}: accuracy over actual misses is only {acc}"
        );
    }
}

#[test]
fn mlp_predictor_classifies_mlp_correctly_most_of_the_time() {
    // Figure 7: average binary MLP prediction accuracy 91.5%.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "fma3d", "mcf"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].mlp_predictor_accuracy();
        assert!(acc > 0.6, "{name}: binary MLP prediction accuracy {acc}");
    }
}

#[test]
fn mlp_distance_predictions_are_far_enough_most_of_the_time() {
    // Figure 8: the paper reports 87.8% on real SPEC traces. The synthetic miss
    // streams have more cross-burst irregularity inside the LLSR window, so the
    // bound here is looser (see EXPERIMENTS.md); the property that most
    // predictions cover the actual distance for the most regular benchmarks still
    // holds.
    let cfg = SmtConfig::baseline(1).with_prefetcher(false);
    for name in ["swim", "fma3d", "equake"] {
        let stats = run_single_thread(name, &cfg, RunScale::test()).unwrap();
        let acc = stats.threads[0].mlp_distance_accuracy();
        assert!(acc > 0.40, "{name}: far-enough accuracy {acc}");
    }
}

#[test]
fn characterization_rows_cover_all_benchmarks_with_valid_fractions() {
    let rows = bench_rows("fig06_08_predictor_accuracy", &[], RunScale::tiny());
    assert_eq!(rows.len(), 26);
    for row in &rows {
        let mlp_accuracy = row.mlp_accuracy.unwrap();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&mlp_accuracy),
            "{}: MLP outcome fractions sum to {mlp_accuracy}",
            row.benchmark
        );
        let lll_accuracy = row.lll_accuracy.unwrap();
        let distance_accuracy = row.mlp_distance_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&lll_accuracy));
        assert!((0.0..=1.0).contains(&distance_accuracy));
    }
}

#[test]
fn figure4_cdfs_are_monotone_and_complete() {
    let rows = bench_rows("fig04_mlp_distance_cdf", &[], RunScale::test());
    assert_eq!(rows.len(), 6);
    for row in &rows {
        let cdf = row.mlp_distance_cdf.as_ref().unwrap();
        assert!(
            !cdf.is_empty(),
            "{} produced no MLP-distance observations",
            row.benchmark
        );
        let mut last = 0.0;
        for &(_, fraction) in cdf {
            assert!(
                fraction >= last - 1e-12,
                "{}: CDF must be monotone",
                row.benchmark
            );
            last = fraction;
        }
        assert!(
            (last - 1.0).abs() < 1e-9,
            "{}: CDF must reach 1.0",
            row.benchmark
        );
    }
}

#[test]
fn figure4_cdf_reaches_one_and_orders_lucas_before_mcf() {
    let rows = bench_rows("fig04_mlp_distance_cdf", &[], RunScale::test());
    assert_eq!(rows.len(), 6);
    let lucas = row(&rows, "lucas");
    let mcf = row(&rows, "mcf");
    let lucas_cdf = lucas.mlp_distance_cdf.as_ref().unwrap();
    assert!(!lucas_cdf.is_empty() && !mcf.mlp_distance_cdf.as_ref().unwrap().is_empty());
    assert!((lucas_cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    // lucas exposes its MLP over short distances, mcf over long distances
    // (Section 4.2): at 48 instructions lucas has seen most of its MLP.
    assert!(
        fraction_within(lucas, 48) > fraction_within(mcf, 48),
        "lucas {} vs mcf {}",
        fraction_within(lucas, 48),
        fraction_within(mcf, 48)
    );
}

#[test]
fn prefetcher_speeds_up_strided_benchmark() {
    let rows = bench_rows("fig05_prefetcher", &[], RunScale::test());
    assert_eq!(rows.len(), 26);
    let speedup = |benchmark| row(&rows, benchmark).prefetch_speedup.unwrap();
    assert!(
        speedup("swim") > 1.05,
        "swim should benefit from prefetching, speedup {}",
        speedup("swim")
    );
    assert!(
        speedup("swim") > speedup("mcf"),
        "strided swim ({}) should gain more than pointer-chasing mcf ({})",
        speedup("swim"),
        speedup("mcf")
    );
}

#[test]
fn mcf_is_characterized_as_mlp_intensive() {
    let rows = bench_rows("table1_characterization", &["mcf"], RunScale::test());
    let mcf = row(&rows, "mcf");
    let lll_per_kinst = mcf.lll_per_kinst.unwrap();
    let mlp = mcf.mlp.unwrap();
    let mlp_impact = mcf.mlp_impact.unwrap();
    assert!(lll_per_kinst > 5.0, "mcf LLL/1K = {lll_per_kinst}");
    assert!(mlp > 1.5, "mcf MLP = {mlp}");
    assert!(mlp_impact > 0.10, "mcf MLP impact = {mlp_impact}");
    assert_eq!(mcf.class.as_deref(), Some("MLP"));
    assert_eq!(mcf.paper_class.as_deref(), Some("MLP"));
}

#[test]
fn bzip2_is_characterized_as_ilp_intensive() {
    // At unit-test scale a handful of cold warm-region misses add noise, so the
    // bound is looser than the paper's 10% classification threshold; the
    // ordering against a genuinely MLP-intensive benchmark is what matters.
    let rows = bench_rows(
        "table1_characterization",
        &["bzip2", "mcf"],
        RunScale::test(),
    );
    let bzip2 = row(&rows, "bzip2");
    let mcf = row(&rows, "mcf");
    let lll_per_kinst = bzip2.lll_per_kinst.unwrap();
    let bzip2_impact = bzip2.mlp_impact.unwrap();
    let mcf_impact = mcf.mlp_impact.unwrap();
    assert!(lll_per_kinst < 2.0, "bzip2 LLL/1K = {lll_per_kinst}");
    assert!(bzip2_impact < 0.20, "bzip2 MLP impact = {bzip2_impact}");
    assert!(
        bzip2_impact < mcf_impact,
        "bzip2 ({bzip2_impact}) should be far less MLP sensitive than mcf ({mcf_impact})"
    );
    assert_eq!(bzip2.paper_class.as_deref(), Some("ILP"));
}

#[test]
fn mlp_distances_respect_the_llsr_bound() {
    // Predicted MLP distances are clamped at the LLSR length (ROB / threads).
    let cfg = SmtConfig::baseline(1);
    let stats = run_single_thread("fma3d", &cfg, RunScale::test()).unwrap();
    let hist = &stats.threads[0].mlp_distance_histogram;
    assert!(!hist.is_empty());
    let max_bin_bound = hist.len() as u32 * smt_types::ThreadStats::MLP_HIST_BIN;
    assert!(
        max_bin_bound <= 256 + smt_types::ThreadStats::MLP_HIST_BIN,
        "predicted distances exceed the LLSR bound: up to {max_bin_bound}"
    );
}
