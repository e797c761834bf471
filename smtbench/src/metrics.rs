//! Metric names, units and the result every workload run returns.
//!
//! The two tables below are the benchmark's public vocabulary; they mirror
//! `BENCHMARK.json` entry for entry (a test checks that). An untraced run
//! reports every end-to-end metric and a traced run every per-layer metric.
//! A per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

use smt_types::{MachineStats, SimError};

use crate::calib;
use crate::stats::Summary;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("engine.cells", "count"),
    ("engine.cell_ms_p50", "ms"),
    ("engine.cell_ms_max", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.self_s", "s"),
    ("runner.st_reference_runs", "count"),
    ("runner.st_reference_s", "s"),
    ("runner.mlp_probes", "count"),
    ("runner.mlp_probe_s", "s"),
    ("runner.checkpoint_captures", "count"),
    ("runner.checkpoint_hits", "count"),
    ("runner.checkpoint_capture_s", "s"),
    ("runner.cell_s", "s"),
    ("pipeline.ns_per_cycle", "ns"),
    ("pipeline.step_ns_p50", "ns"),
    ("pipeline.step_ns_p99", "ns"),
    ("pipeline.sim_cycles", "cycles"),
    ("pipeline.committed", "count"),
    ("pipeline.commit_per_fetch", "ratio"),
    ("pipeline.squashed_by_policy", "count"),
    ("pipeline.squashed_by_branch", "count"),
    ("pipeline.warm_up_s", "s"),
    ("sampling.windows", "count"),
    ("sampling.detailed_fraction", "ratio"),
    ("sampling.run_s", "s"),
    ("sampling.ff_ns_per_instr", "ns"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("chip.ns_per_core_cycle", "ns"),
    ("chip.sim_cycles", "cycles"),
    ("mem.l1d_access_ns", "ns"),
    ("mem.dtlb_access_ns", "ns"),
    ("predictors.mlp_distance_ns", "ns"),
    ("mem.l1d_mpki", "misses/kinstr"),
    ("mem.l2_mpki", "misses/kinstr"),
    ("mem.l3_mpki", "misses/kinstr"),
    ("mem.dtlb_mpki", "misses/kinstr"),
    ("mem.mlp", "misses"),
    ("predictors.lll_accuracy", "ratio"),
    ("predictors.mlp_accuracy", "ratio"),
    ("fetch.policy_flushes", "count"),
    ("fetch.gated_cycles", "cycles"),
    ("trace.refill_ns_per_op", "ns"),
    ("trace.ops_per_commit", "ratio"),
    ("model.stp_gain_mlpflush_vs_icount", "ratio"),
    ("tracing.overhead", "ratio"),
    ("tracing.unattributed_share", "ratio"),
    ("failed_cell_ratio", "ratio"),
];

/// Metric values keyed by name; every name must be in one of the tables.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every per-layer metric, at 0.
    pub fn per_layer() -> Self {
        Metrics(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit(name).is_some(),
            "metric `{name}` is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(&name, _)| name)
            .collect()
    }

    /// The contract's `metrics` object: `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    unit(name).unwrap_or_default()
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The unit of a metric named in either table.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells (or exact simulations) the run planned.
    pub attempted: u64,
    /// Planned cells that failed, reported a non-finite metric, or whose
    /// output digest disagreed.
    pub failed: u64,
    /// Digest of the workload's deterministic results.
    pub digest: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Writes the medians of the calibrated end-to-end samples and the peak
    /// RSS, and a summary line (median, quartiles, extremes, count) for each
    /// timed metric and for the raw host times and the calibration kernel.
    pub fn record_timings(&mut self, timings: &Timings) {
        self.metrics.set("peak_rss_mb", timings.peak_rss_mb);
        for (name, samples) in [
            ("wall_s", &timings.wall),
            ("sim_cycles_per_s", &timings.rate),
            ("setup_s", &timings.setup),
        ] {
            let summary = Summary::of(samples).expect("at least one repetition");
            self.metrics.set(name, summary.median);
            self.notes.push(format!("{name}: {}", summary.line()));
        }
        for (name, samples) in [
            ("host wall_s", &timings.host_wall),
            ("host setup_s", &timings.host_setup),
            ("calibration kernel_s", &timings.kernel),
        ] {
            let summary = Summary::of(samples).expect("at least one repetition");
            self.notes.push(format!("{name}: {}", summary.line()));
        }
    }
}

/// The timed samples of an untraced run. Each repetition's host times are
/// calibrated with kernel runs that follow it (see [`crate::calib`]).
#[derive(Debug)]
pub struct Timings {
    threads: usize,
    setup: Vec<f64>,
    wall: Vec<f64>,
    rate: Vec<f64>,
    host_setup: Vec<f64>,
    host_wall: Vec<f64>,
    kernel: Vec<f64>,
    last_rep_s: f64,
    peak_rss_mb: f64,
}

impl Timings {
    /// Samples of repetitions that run on `threads` (1 or 2) threads.
    pub fn new(threads: usize) -> Self {
        Timings {
            threads,
            setup: Vec::new(),
            wall: Vec::new(),
            rate: Vec::new(),
            host_setup: Vec::new(),
            host_wall: Vec::new(),
            kernel: Vec::new(),
            last_rep_s: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// Ends a repetition that began at `began`: runs the calibration kernel
    /// until it has taken a fifth of the repetition's host time (at least
    /// once), then records the repetition's set-up times, its timed region
    /// and the cycles simulated in it, calibrated with the median kernel
    /// time. After the first repetition it first reads the process's peak
    /// RSS, which the kernel's tables would otherwise mask; every repetition
    /// does the same work.
    pub fn finish_rep(
        &mut self,
        began: Instant,
        setups: &[f64],
        wall: f64,
        cycles: f64,
    ) -> Result<(), SimError> {
        if self.kernel.is_empty() {
            self.peak_rss_mb = peak_rss_mb().map_err(SimError::internal)?;
        }
        let rep_s = began.elapsed().as_secs_f64();
        let mut kernels = vec![calib::kernel_s(self.threads)];
        while kernels.iter().sum::<f64>() < rep_s / 5.0 {
            kernels.push(calib::kernel_s(self.threads));
        }
        let kernel = Summary::of(&kernels).expect("the kernel ran").median;
        let calibrate = |seconds| calib::calibrate(seconds, kernel, self.threads);
        self.wall.push(calibrate(wall));
        self.rate.push(cycles / calibrate(wall));
        self.host_wall.push(wall);
        for &setup in setups {
            self.setup.push(calibrate(setup));
            self.host_setup.push(setup);
        }
        self.kernel.push(kernel);
        self.last_rep_s = began.elapsed().as_secs_f64();
        Ok(())
    }

    /// Repetitions recorded.
    pub fn reps(&self) -> usize {
        self.wall.len()
    }

    /// Whether another repetition as long as the last one (kernel runs
    /// included) still ends within `seconds` of `began`.
    pub fn fits(&self, began: Instant, seconds: f64) -> bool {
        began.elapsed().as_secs_f64() + self.last_rep_s <= seconds
    }
}

/// Pipeline, memory, predictor and fetch-policy counters summed over the
/// measured phases of one or more simulations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    cycles: u64,
    committed: u64,
    fetched: u64,
    squashed_by_policy: u64,
    squashed_by_branch: u64,
    l1d_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    dtlb_misses: u64,
    mlp_outstanding: u64,
    mlp_cycles: u64,
    lll_correct: u64,
    lll_total: u64,
    mlp_correct: u64,
    mlp_total: u64,
    policy_flushes: u64,
    gated_cycles: u64,
}

impl Counters {
    /// Adds one simulation's (or one chip core's) measured-phase statistics.
    pub fn add(&mut self, stats: &MachineStats) {
        self.cycles += stats.cycles;
        for t in &stats.threads {
            self.committed += t.committed_instructions;
            self.fetched += t.fetched_instructions;
            self.squashed_by_policy += t.squashed_by_policy;
            self.squashed_by_branch += t.squashed_by_branch;
            self.l1d_misses += t.l1d_load_misses;
            self.l2_misses += t.l2_load_misses;
            self.l3_misses += t.l3_load_misses;
            self.dtlb_misses += t.dtlb_misses;
            self.mlp_outstanding += t.mlp_outstanding_sum;
            self.mlp_cycles += t.mlp_cycles;
            self.lll_correct += t.lll_pred_correct;
            self.lll_total += t.lll_pred_total;
            self.mlp_correct += t.mlp_pred_true_positive + t.mlp_pred_true_negative;
            self.mlp_total += t.mlp_pred_true_positive
                + t.mlp_pred_true_negative
                + t.mlp_pred_false_positive
                + t.mlp_pred_false_negative;
            self.policy_flushes += t.policy_flushes;
            self.gated_cycles += t.fetch_gated_cycles;
        }
    }

    /// Simulated cycles summed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Committed instructions summed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Writes the counter-derived per-layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mpki = |misses: u64| ratio(misses * 1000, self.committed);
        m.set("pipeline.sim_cycles", self.cycles as f64);
        m.set("pipeline.committed", self.committed as f64);
        m.set(
            "pipeline.commit_per_fetch",
            ratio(self.committed, self.fetched),
        );
        m.set(
            "pipeline.squashed_by_policy",
            self.squashed_by_policy as f64,
        );
        m.set(
            "pipeline.squashed_by_branch",
            self.squashed_by_branch as f64,
        );
        m.set("mem.l1d_mpki", mpki(self.l1d_misses));
        m.set("mem.l2_mpki", mpki(self.l2_misses));
        m.set("mem.l3_mpki", mpki(self.l3_misses));
        m.set("mem.dtlb_mpki", mpki(self.dtlb_misses));
        m.set("mem.mlp", ratio(self.mlp_outstanding, self.mlp_cycles));
        m.set(
            "predictors.lll_accuracy",
            ratio(self.lll_correct, self.lll_total),
        );
        m.set(
            "predictors.mlp_accuracy",
            ratio(self.mlp_correct, self.mlp_total),
        );
        m.set("fetch.policy_flushes", self.policy_flushes as f64);
        m.set("fetch.gated_cycles", self.gated_cycles as f64);
    }
}

/// Host memory high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units of one `BENCHMARK.json` metric list, in file order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..json[start..].find(']').unwrap() + start];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = rest[open..].find('"').unwrap() + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_mirror_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_rendering_and_guards() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25);
        m.set("setup_s", 0.5);
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}"
        );
        assert!(m.non_finite().is_empty());
        m.set("wall_s", f64::NAN);
        assert_eq!(m.non_finite(), vec!["wall_s"]);
        assert_eq!(Metrics::per_layer().get("failed_cell_ratio"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn unknown_metric_is_rejected() {
        Metrics::default().set("made_up", 1.0);
    }
}
