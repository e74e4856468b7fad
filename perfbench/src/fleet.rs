//! The fleet workloads: `fleet-flat` (one flat `CentralGovernor`, chaos
//! and thermal off) and `fleet-storm` (8 regions under a hierarchy,
//! thermal/throttle/breaker armed, chaos 0.5 plus brownout, region-crash
//! and sensor-stuck, ten times the rounds).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dacapo_sim::Benchmark;
use dvfs_trace::{Freq, FreqLadder};
use energyx::{CentralGovernor, GovernorPolicy, HierarchicalGovernor, MachineView, PowerModel};
use harness::experiments::fleet::{
    self, CharactPoint, FleetConfig, FleetOutcome, FleetReport, REQS,
};
use harness::{ExecCtx, SimPoint, SweepPlan};
use serde::Serialize;
use simx::fleet::{region_of, ChaosConfig};
use simx::{MachineConfig, ThermalConfig};

use crate::record::{count, median, span, Digest, Metric, Recorder, Stopwatch};
use crate::workload::{Pass, Workload};

/// Shards the machines are stepped in (the `fleet` binary's default).
const SHARDS: usize = 4;

/// Regions of `fleet-storm`.
const STORM_REGIONS: usize = 8;

/// Repetitions of each governor probe; the median is reported.
const GOVERNOR_REPS: usize = 5;

/// Calls per `rebalance_masked` timing sample (one call is well under a
/// microsecond).
const REBALANCE_CALLS: u32 = 1000;

/// The `fleet-flat` configuration.
#[must_use]
pub fn flat_config(machines: usize, rounds: usize, scale: f64, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(machines, SHARDS, rounds, scale, seed);
    config.policy = GovernorPolicy::DepBurst;
    config
}

/// The `fleet-storm` configuration (the armed row of `scripts/bench.sh`,
/// at 8 regions).
#[must_use]
pub fn storm_config(machines: usize, rounds: usize, scale: f64, seed: u64) -> FleetConfig {
    let mut config = flat_config(machines, rounds, scale, seed);
    config.chaos = ChaosConfig::uniform(0.5, seed);
    config.chaos.brownout = 0.3;
    config.chaos.aggregator_crash = 0.2;
    config.chaos.sensor_stuck = 0.2;
    config.regions = STORM_REGIONS;
    config.hierarchy = true;
    config.thermal = ThermalConfig::datacenter(seed);
    config
}

/// Digest of a fleet report: its whole serialized form.
fn report_digest(report: &FleetReport) -> u64 {
    let mut d = Digest::default();
    d.value(&report.to_value());
    d.finish()
}

/// A fleet workload over a warm characterization memo.
#[derive(Debug)]
pub struct Fleet {
    name: &'static str,
    config: FleetConfig,
    jobs: usize,
    ctx: Option<ExecCtx>,
    /// The last traced pass's report and characterization points, for
    /// the probes.
    traced: Option<(FleetReport, Vec<CharactPoint>)>,
}

impl Fleet {
    /// A fleet workload named `name` running `config` on `jobs` workers.
    #[must_use]
    pub fn new(name: &'static str, config: FleetConfig, jobs: usize) -> Self {
        Fleet {
            name,
            config,
            jobs,
            ctx: None,
            traced: None,
        }
    }

    /// One `fleet::run_with` on the warm memo: its wall and CPU seconds
    /// and its outcome.
    fn run(&self, rec: Option<&Recorder>) -> Result<(f64, f64, FleetOutcome), String> {
        let ctx = self.ctx.as_ref().ok_or("fleet pass before set-up")?;
        let misses = ctx.cache.stats().misses;
        let watch = Stopwatch::start();
        let outcome = span(rec, "fleet.rounds_s", || fleet::run_with(ctx, &self.config))
            .map_err(|e| format!("{}: {e}", self.name))?;
        let (wall_s, cpu_s) = watch.read();
        if ctx.cache.stats().misses != misses {
            return Err(format!(
                "{}: the characterization memo was not warm",
                self.name
            ));
        }
        Ok((wall_s, cpu_s, outcome))
    }
}

impl Workload for Fleet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rate(&self) -> (&'static str, &'static str) {
        ("machine_rounds_per_s", "1/s")
    }

    /// Warms the characterization memo: every benchmark at 1 and 4 GHz.
    fn setup(&mut self, rec: Option<&Arc<Recorder>>) -> Result<(), String> {
        let ctx = ExecCtx::new(self.jobs);
        let mut plan = SweepPlan::new();
        for bench in &self.config.benches {
            for ghz in [1.0, 4.0] {
                plan.push(SimPoint::new(
                    bench,
                    Freq::from_ghz(ghz),
                    self.config.scale,
                    self.config.seed,
                ));
            }
        }
        span(rec.map(Arc::as_ref), "fleet.characterize_s", || {
            ctx.execute(&plan)
        })
        .map_err(|e| format!("{} characterization: {e}", self.name))?;
        self.ctx = Some(ctx);
        Ok(())
    }

    fn reference(&self) -> Option<u64> {
        None
    }

    fn pass(&mut self, rec: Option<&Arc<Recorder>>) -> Result<Pass, String> {
        let rec_ref = rec.map(Arc::as_ref);
        let (wall_s, cpu_s, FleetOutcome { report, charact }) = self.run(rec_ref)?;
        let s = &report.summary;
        let machine_rounds = (s.machines * s.rounds) as f64;
        count(rec_ref, "fleet.machine_rounds", machine_rounds);
        count(
            rec_ref,
            "fleet.degraded_machine_rounds",
            s.degraded_machine_rounds as f64,
        );
        count(rec_ref, "fleet.overshoot_rounds", s.overshoot_rounds as f64);
        let opt = |v: Option<u64>| v.unwrap_or(0) as f64;
        count(
            rec_ref,
            "thermal.emergency_throttles",
            opt(s.emergency_throttles),
        );
        count(rec_ref, "thermal.shutdowns", opt(s.thermal_shutdowns));
        count(rec_ref, "thermal.black_starts", opt(s.black_starts));
        count(rec_ref, "thermal.breaker_trips", opt(s.breaker_trips));
        let pass = Pass {
            wall_s,
            cpu_s,
            digest: report_digest(&report),
            items: machine_rounds,
            figures: vec![Metric::new(
                "slo_attainment_pct",
                "%",
                100.0 * s.slo_attainment,
            )],
        };
        if rec.is_some() {
            self.traced = Some((report, charact));
        }
        Ok(pass)
    }

    /// The same run at `jobs = 1` (its rounds time, and a digest that must
    /// match), then one round's allocation and one root rebalance at the
    /// workload's machine count, called directly.
    fn probe(&mut self, rec: &Arc<Recorder>, pass: &Pass) -> Result<(), String> {
        let ctx = self.ctx.as_mut().ok_or("fleet probe before set-up")?;
        ctx.jobs = 1;
        let sequential = self.run(None);
        if let Some(ctx) = self.ctx.as_mut() {
            ctx.jobs = self.jobs;
        }
        let (secs, _, FleetOutcome { report, .. }) = sequential?;
        rec.add("fleet.rounds_jobs1_s", secs);
        if report_digest(&report) != pass.digest {
            return Err(format!(
                "{}: jobs = 1 report differs from jobs = {}",
                self.name, self.jobs
            ));
        }
        let (report, charact) = self
            .traced
            .take()
            .ok_or("fleet probe without a traced pass")?;
        governor_probe(&self.config, &report, &charact, rec)
    }
}

/// Times `CentralGovernor::allocate` for one round — one call over all
/// machines when flat, one call per region when hierarchical — and
/// `HierarchicalGovernor::rebalance_masked`, on views built from
/// `fleet::machine_ladder` and the two-point `A/f + B` fit of the
/// characterization, as the fleet builds them at zero backlog. Each
/// region's call covers as many machines as the run kept under central
/// control in a mean round (`rounds_central` over the report's rows),
/// since only those are allocated, and shares the run's mean effective
/// (browned-out) budget equally with the other regions.
fn governor_probe(
    config: &FleetConfig,
    report: &FleetReport,
    charact: &[CharactPoint],
    rec: &Recorder,
) -> Result<(), String> {
    let mut fit: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for p in charact {
        let entry = fit.entry(p.bench.as_str()).or_insert((0.0, 0.0));
        if p.ghz == 1.0 {
            entry.0 = p.summary.exec.as_secs();
        } else {
            entry.1 = p.summary.exec.as_secs();
        }
    }
    let machines = config.machines;
    let regions = if config.hierarchy { config.regions } else { 1 };
    let cores = MachineConfig::haswell_quad().cores;
    let ladders: Vec<FreqLadder> = (0..machines).map(fleet::machine_ladder).collect();
    let mut groups: Vec<Vec<MachineView<'_>>> = vec![Vec::new(); regions];
    for (m, ladder) in ladders.iter().enumerate() {
        let bench: &Benchmark = config.benches[m % config.benches.len()];
        let &(t1, t4) = fit
            .get(bench.name)
            .ok_or_else(|| format!("no characterization of {}", bench.name))?;
        let a = ((t1 - t4) * 4.0 / 3.0).max(0.0);
        let b = (t4 - a / 4.0).max(t4 * 0.01).max(1e-9);
        groups[region_of(machines, regions, m)].push(MachineView {
            id: m,
            ladder,
            scaling_s: a / REQS,
            fixed_s: b / REQS,
            cores,
        });
    }
    let mut central = vec![0.0f64; regions];
    for row in &report.machines {
        central[region_of(machines, regions, row.machine)] += f64::from(row.rounds_central);
    }
    let rounds = config.rounds.max(1) as f64;
    let members: Vec<usize> = central
        .iter()
        .map(|c| (c / rounds).round() as usize)
        .collect();
    let model = PowerModel::haswell_22nm();
    let budget_w = report
        .summary
        .mean_effective_budget_w
        .unwrap_or(config.budget_w);
    let slice_w = budget_w / regions as f64;
    let mut samples = Vec::with_capacity(GOVERNOR_REPS);
    for _ in 0..GOVERNOR_REPS {
        let t0 = Instant::now();
        for (region, &n) in groups.iter().zip(&members) {
            let views = &region[..n.min(region.len())];
            if !views.is_empty() {
                let governor = CentralGovernor::new(slice_w);
                black_box(governor.allocate(&model, black_box(views), region.len()));
            }
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    rec.add("governor.allocate_us", median(&samples) * 1e6);

    // A skewed demand, so each call really moves the shares.
    let demand: Vec<f64> = groups
        .iter()
        .enumerate()
        .map(|(r, g)| g.len() as f64 * (1.0 + r as f64))
        .collect();
    let frozen = vec![false; regions];
    let mut samples = Vec::with_capacity(GOVERNOR_REPS);
    for _ in 0..GOVERNOR_REPS {
        let mut govs: Vec<HierarchicalGovernor> = (0..REBALANCE_CALLS)
            .map(|_| HierarchicalGovernor::new(regions))
            .collect();
        let t0 = Instant::now();
        for gov in &mut govs {
            gov.rebalance_masked(black_box(&demand), &frozen, false);
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(REBALANCE_CALLS));
        black_box(&govs);
    }
    rec.add("governor.rebalance_us", median(&samples) * 1e6);
    Ok(())
}
