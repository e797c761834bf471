//! `smtbench`: the repository benchmark of the SMT simulator.
//!
//! ```text
//! smtbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off, calibrated for the host's speed (see `calib`); `--trace 1` makes one
//! traced run and reports the per-layer metrics.
//! Every run checks the simulator's outputs with a digest and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `smtbench/README.md` for the workloads and metrics.

mod calib;
mod digest;
mod exact;
mod grids;
mod metrics;
mod spans;
mod stats;

use std::process::ExitCode;

use grids::Grid;
use metrics::Outcome;
use smt_types::SimError;

/// The registry seed; the recorded digests are for this seed.
const DEFAULT_SEED: u64 = 42;

/// Expected output digests at [`DEFAULT_SEED`], one `workload digest` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Environment variables that steer the simulator's threading; the benchmark
/// removes them so it always runs the configuration it reports.
const PINNED_ENV: [&str; 2] = ["SMT_CHIP_THREADS", "SMT_THREADS"];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Exact,
    Grid(Grid),
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("exact_4t_mix", Workload::Exact),
        ("policy_grid_4t", Workload::Grid(Grid::Policy)),
        ("chip_grid_4c2t", Workload::Grid(Grid::Chip)),
        ("sampled_grid_4t", Workload::Grid(Grid::Sampled)),
    ];
}

struct Args {
    workload: &'static str,
    kind: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload: Option<(&'static str, Workload)> = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let known = Workload::ALL.iter().find(|(n, _)| *n == value);
                workload = Some(*known.ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    let (workload, kind) = workload.ok_or(format!(
        "--workload is required: one of {}",
        names.join(", ")
    ))?;
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Removes the threading knobs and describes the run environment.
fn pin_environment() -> String {
    let mut fields = vec![format!("engine_workers={}", grids::WORKERS)];
    fields.push(format!(
        "nproc={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    for var in PINNED_ENV {
        match std::env::var(var) {
            Ok(value) => {
                std::env::remove_var(var);
                fields.push(format!("{var}=unset(removed {value:?})"));
            }
            Err(_) => fields.push(format!("{var}=unset")),
        }
    }
    fields.push(format!("commit={}", commit()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    fields.push(format!("profile={profile}"));
    fields.join(" ")
}

/// The recorded seed-42 digest of `workload`.
fn expected_digest(workload: &str) -> Option<u64> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// `BENCH_throughput.json`'s latest `4t_mix_icount` row, for context.
fn throughput_context() -> Option<(f64, u64)> {
    let text = std::fs::read_to_string("BENCH_throughput.json").ok()?;
    let row = &text[text.rfind("\"name\": \"4t_mix_icount\"")?..];
    let number = |key: &str| -> Option<f64> {
        let rest = &row[row.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let end = rest.find([',', '}', '\n'])?;
        rest[..end].trim().parse().ok()
    };
    Some((
        number("cycles_per_second")?,
        number("instructions_per_thread")? as u64,
    ))
}

fn run_workload(args: &Args) -> Result<Outcome, SimError> {
    match (args.kind, args.trace) {
        (Workload::Exact, false) => exact::run(args.seed, args.seconds),
        (Workload::Exact, true) => exact::run_traced(args.seed),
        (Workload::Grid(grid), false) => grids::run(grid, args.seed, args.seconds),
        (Workload::Grid(grid), true) => grids::run_traced(grid, args.seed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("smtbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "smtbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("env: {}", pin_environment());
    let mut outcome = match run_workload(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("smtbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let digest = digest::hex(outcome.digest);
    match (args.seed == DEFAULT_SEED, expected_digest(args.workload)) {
        (true, Some(expected)) if expected != outcome.digest => {
            println!(
                "digest: {digest} MISMATCH (recorded for seed {DEFAULT_SEED}: {})",
                digest::hex(expected)
            );
            outcome.failed = outcome.attempted;
        }
        (true, Some(_)) => {
            println!("digest: {digest} (matches the recorded seed-{DEFAULT_SEED} digest)")
        }
        (true, None) => println!("digest: {digest} (no digest recorded for seed {DEFAULT_SEED})"),
        (false, _) => println!("digest: {digest} (compared across this run's passes)"),
    }
    if args.trace {
        let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("failed_cell_ratio", ratio);
    }
    if args.kind == Workload::Exact && !args.trace {
        let ours = outcome.metrics.get("sim_cycles_per_s").unwrap_or(0.0);
        let scale = exact::scale(args.seed);
        match throughput_context() {
            Some((theirs, instructions)) => println!(
                "context: sim_cycles_per_s {ours:.0} at {} instructions/thread; latest \
                 BENCH_throughput.json 4t_mix_icount {theirs:.0} cycles/s at {instructions} \
                 instructions/thread (ratio {:.3}). The run lengths differ, so the ratio is \
                 context, not a comparison.",
                scale.instructions_per_thread,
                ours / theirs
            ),
            None => println!("context: BENCH_throughput.json not found"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "failed_cell_ratio: {}/{} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let non_finite = outcome.metrics.non_finite();
    if !non_finite.is_empty() {
        eprintln!("smtbench: non-finite metrics: {}", non_finite.join(", "));
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "chip_grid_4c2t",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("chip_grid_4c2t", 7, 12.0, true)
        );
        let a = args(&["--workload", "exact_4t_mix"]).unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "exact_4t_mix", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for (name, _) in Workload::ALL {
            assert!(expected_digest(name).is_some(), "{name}");
        }
    }
}
