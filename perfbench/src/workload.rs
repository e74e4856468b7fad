//! The interface every workload implements, and the sizes they run at.

use std::sync::Arc;

use crate::record::{Metric, Recorder};

/// Inputs sizes of the four workloads. [`Sizes::BENCH`] is what the
/// benchmark measures; [`Sizes::TINY`] is the self-test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Work scale of every `paper` / `replay` grid point and managed run.
    pub paper_scale: f64,
    /// Simulation seeds per `paper` / `replay` pass.
    pub paper_seeds: usize,
    /// Work scale of `paper`'s energy-manager runs and their baselines:
    /// large enough for many 5 ms manager quanta per run.
    pub manager_scale: f64,
    /// Simulation seeds of `paper`'s energy-manager runs.
    pub manager_seeds: usize,
    /// Work scale of `paper`'s warm-up pass (its set-up), for the grid
    /// and the manager runs alike.
    pub warmup_scale: f64,
    /// Characterization scale of the fleet workloads.
    pub fleet_scale: f64,
    /// Machines in both fleet workloads.
    pub fleet_machines: usize,
    /// Rounds of `fleet-flat`.
    pub flat_rounds: usize,
    /// Rounds of `fleet-storm`.
    pub storm_rounds: usize,
}

impl Sizes {
    /// The measured sizes: each pass does roughly 0.5 to 1 s of work on
    /// a 2-core host, so a run's median is taken over many passes.
    pub const BENCH: Sizes = Sizes {
        paper_scale: 0.01,
        paper_seeds: 8,
        manager_scale: 0.05,
        manager_seeds: 2,
        warmup_scale: 0.005,
        fleet_scale: 0.1,
        fleet_machines: 320,
        flat_rounds: 100,
        storm_rounds: 1000,
    };

    /// Self-test sizes: every code path, milliseconds of work.
    pub const TINY: Sizes = Sizes {
        paper_scale: 0.005,
        paper_seeds: 2,
        manager_scale: 0.005,
        manager_seeds: 1,
        warmup_scale: 0.002,
        fleet_scale: 0.01,
        fleet_machines: 24,
        flat_rounds: 6,
        storm_rounds: 60,
    };
}

/// What one timed pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host wall seconds of the timed region (digesting the outputs is
    /// not part of it).
    pub wall_s: f64,
    /// Process CPU seconds of the same region, all threads.
    pub cpu_s: f64,
    /// Digest of every output the pass produced.
    pub digest: u64,
    /// Points (paper, replay) or machine-rounds (fleet) completed.
    pub items: f64,
    /// The workload's own end-to-end figures (simulated-system metrics,
    /// simulation speed).
    pub figures: Vec<Metric>,
}

/// One benchmark workload: a closed-loop batch job with a single driver.
pub trait Workload {
    /// The workload's name on the command line.
    fn name(&self) -> &'static str;

    /// Name and unit of the workload's throughput, `items / wall_s`.
    fn rate(&self) -> (&'static str, &'static str);

    /// Builds the inputs from scratch, replacing any earlier set-up. The
    /// driver times and repeats it. With `rec`, set-up spans are recorded.
    fn setup(&mut self, rec: Option<&Arc<Recorder>>) -> Result<(), String>;

    /// The digest every pass must reproduce, when set-up already knows it.
    fn reference(&self) -> Option<u64>;

    /// One timed pass. With `rec`, the timing wrappers are installed and
    /// spans recorded around every call into a layer.
    fn pass(&mut self, rec: Option<&Arc<Recorder>>) -> Result<Pass, String>;

    /// Traced runs only, after a traced pass and outside its timing:
    /// direct calls into the layers the pass reached only through other
    /// layers, so their cost can be measured on its own.
    fn probe(&mut self, rec: &Arc<Recorder>, pass: &Pass) -> Result<(), String>;
}
