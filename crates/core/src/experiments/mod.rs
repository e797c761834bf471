//! The declarative experiment API: every table/figure of the paper's
//! evaluation as a named, serde-serializable [`spec::ExperimentSpec`] in the
//! [`registry`], run by the [`engine`] in parallel across OS threads with a
//! shared single-threaded reference cache, producing a uniform
//! [`report::ExperimentReport`]. Every spec takes a
//! [`crate::runner::RunScale`], so the same code powers the fast regression
//! tests, the examples, and the Criterion benchmark harness that regenerates
//! the paper's numbers (see `EXPERIMENTS.md`).

pub mod engine;
pub mod registry;
pub mod report;
pub mod spec;

pub use engine::{run_spec, run_spec_with_policy, run_spec_with_threads, RunPolicy};
pub use registry::ExperimentRegistry;
pub use report::{BenchRow, ExperimentReport, PolicyCell, SummaryRow};
pub use spec::{
    AdaptiveSpec, ChipSpec, ConfigOverrides, ExperimentKind, ExperimentSpec, ResilienceSpec,
    SamplingSpec, SweepParameter, SweepSpec,
};
