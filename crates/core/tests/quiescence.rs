//! The quiescent fast path fires where the paper's clog lives, and stays
//! invisible everywhere else.
//!
//! Under ICOUNT a thread waiting on a long-latency load fills the shared
//! window, and most cycles of the 4-thread mix commit, complete, issue,
//! dispatch and fetch nothing. Those cycles must take the fast path — a
//! fast path that silently never fires would cost nothing in correctness
//! but everything in speed, so the share is asserted here. Bit-for-bit
//! equality of the fast path with the full phases is checked on every
//! skipped cycle by the debug-build shadow check and pinned end to end by
//! the golden fixtures.

use smt_core::pipeline::SmtSimulator;
use smt_core::runner::{build_trace, RunScale};
use smt_core::throughput::{prepare_scenario, scenario_matrix, BenchOptions, BASELINE_SCENARIO};
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

#[test]
fn most_cycles_of_the_clogged_icount_mix_take_the_fast_path() {
    let scenario = scenario_matrix()
        .into_iter()
        .find(|s| s.name == BASELINE_SCENARIO)
        .expect("headline scenario exists");
    assert_eq!(scenario.name, "4t_mix_icount");
    let (mut sim, options) =
        prepare_scenario(&scenario, &BenchOptions::standard()).expect("scenario builds");
    let stats = sim.run(options);
    let quiet = sim.core().quiet_cycles();
    assert!(
        2 * quiet > stats.cycles,
        "only {quiet} of {} cycles took the quiescent fast path",
        stats.cycles
    );
}

#[test]
fn every_step_advances_exactly_one_cycle() {
    let mut config = SmtConfig::baseline(2);
    config.fetch_policy = FetchPolicyKind::Icount;
    let scale = RunScale::tiny();
    let traces = ["mcf", "swim"]
        .iter()
        .map(|b| build_trace(b, scale).expect("trace builds"))
        .collect();
    let mut sim = SmtSimulator::new(config, traces).expect("machine builds");
    let mut quiet_steps = 0;
    for expect in 1..=20_000u64 {
        let before = sim.core().quiet_cycles();
        sim.step();
        assert_eq!(sim.cycle(), expect, "one step, one cycle");
        quiet_steps += sim.core().quiet_cycles() - before;
    }
    assert!(
        quiet_steps > 0,
        "the memory-bound pair never went quiescent"
    );
    assert_eq!(quiet_steps, sim.core().quiet_cycles());
}

#[test]
fn outside_mutations_end_a_quiescent_stretch() {
    // Freeze fetch on an empty machine: nothing is in flight, so the first
    // cycle opens a stretch that would never end on its own. Unfreezing
    // must wake the core, or fetch would stay silent forever.
    let config = SmtConfig::baseline(1);
    let traces = vec![build_trace("gcc", RunScale::tiny()).expect("trace builds")];
    let mut sim = SmtSimulator::new(config, traces).expect("machine builds");
    sim.freeze_fetch(true);
    for _ in 0..100 {
        sim.step();
    }
    assert!(
        sim.core().quiet_cycles() >= 98,
        "a frozen, empty core is quiescent"
    );
    sim.freeze_fetch(false);
    let fetched = sim.stats().threads[0].fetched_instructions;
    sim.step();
    assert!(
        sim.stats().threads[0].fetched_instructions > fetched,
        "unfreezing fetch must end the quiescent stretch"
    );
}
