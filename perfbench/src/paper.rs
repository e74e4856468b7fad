//! The paper pipeline (`paper`) and its disk-cache replay (`replay`).
//!
//! `paper` runs the Fig. 3 grid cold against an in-memory memo — 7
//! benchmarks × {1,2,3,4} GHz exact points for each of the pass's seeds,
//! planned in both directions as the figure plans them — then every model
//! of `paper_roster()` in both directions. Then the Fig. 6 pipeline: the
//! 4 GHz baselines and the DEP+BURST energy manager at 5% tolerable
//! slowdown on every benchmark, at a larger scale so that each managed
//! run spans many 5 ms quanta. Like the paper, which averages 4 runs, a
//! pass averages its figures over several seeds.
//!
//! `replay` serves the same grid from `SimCache::persistent` over a
//! directory its set-up filled, and records every point to a fresh
//! checkpoint `Journal`: no simulation and no prediction.

use std::sync::Arc;
use std::time::Instant;

use dacapo_sim::{all_benchmarks, BenchClass, Benchmark};
use depburst::{paper_roster, relative_error, Dep, DvfsPredictor};
use dvfs_trace::{EpochEnd, Freq};
use energyx::{EnergyManager, ManagerConfig, ManagerReport};
use harness::experiments::fig3::Direction;
use harness::{ExecCtx, Journal, RealVfs, RunSummary, SimCache, SimPoint, SweepPlan, Vfs};
use serde::Serialize;
use simx::{Machine, MachineConfig, RunOutcome};

use crate::record::{count, span, Digest, Metric, Recorder, Stopwatch};
use crate::tempdir::TempDir;
use crate::workload::{Pass, Workload};
use crate::wrappers::{TimedPredictor, TimedVfs};

/// Both prediction directions, in the order the grid is planned.
const DIRECTIONS: [Direction; 2] = [Direction::LowToHigh, Direction::HighToLow];

/// The energy manager's tolerable slowdown (Fig. 6a).
const THRESHOLD: f64 = 0.05;

/// The grid one pass runs: every benchmark at every paper frequency, at
/// one scale, for each of several workload seeds.
#[derive(Debug, Clone)]
pub struct Grid {
    scale: f64,
    seeds: Vec<u64>,
}

impl Grid {
    /// `count` simulation seeds derived from the benchmark seed; distinct
    /// benchmark seeds give disjoint sets.
    #[must_use]
    pub fn new(scale: f64, seed: u64, count: usize) -> Self {
        let first = seed.wrapping_mul(count as u64);
        Grid {
            scale,
            seeds: (0..count as u64).map(|i| first.wrapping_add(i)).collect(),
        }
    }

    /// Points in one direction's plan — every distinct point once.
    fn per_direction(&self) -> usize {
        all_benchmarks().len() * self.seeds.len() * 4
    }

    /// Index in one direction's plan of benchmark `b`, seed `k`'s base
    /// point; its targets follow it.
    fn base_index(&self, b: usize, k: usize) -> usize {
        4 * (b * self.seeds.len() + k)
    }

    /// The Fig. 3 plan of one direction: per benchmark and seed, the base
    /// point followed by the target points.
    fn plan(&self, direction: Direction) -> SweepPlan {
        let mut plan = SweepPlan::new();
        for bench in all_benchmarks() {
            for &seed in &self.seeds {
                plan.push(SimPoint::new(bench, direction.base(), self.scale, seed));
                for &target in &direction.targets() {
                    plan.push(SimPoint::new(bench, target, self.scale, seed));
                }
            }
        }
        plan
    }

    /// Executes both directions' plans on `ctx`. Returns the summaries in
    /// plan order and the host seconds spent inside `ExecCtx::execute`.
    fn run(
        &self,
        ctx: &ExecCtx,
        rec: Option<&Recorder>,
    ) -> Result<(Vec<Arc<RunSummary>>, f64), String> {
        let mut grid = Vec::with_capacity(2 * self.per_direction());
        let mut secs = 0.0;
        for direction in DIRECTIONS {
            let plan = self.plan(direction);
            let t0 = Instant::now();
            let results = span(rec, "runner.execute_s", || ctx.execute(&plan))
                .map_err(|e| format!("grid {direction:?}: {e}"))?;
            secs += t0.elapsed().as_secs_f64();
            count(rec, "runner.points", plan.points.len() as f64);
            grid.extend(results);
        }
        Ok((grid, secs))
    }

    /// Simulated instructions in the traces of one direction's grid
    /// (every distinct point once), summed from the epoch counters.
    fn instructions(&self, grid: &[Arc<RunSummary>]) -> u64 {
        grid[..self.per_direction()]
            .iter()
            .flat_map(|s| &s.trace.epochs)
            .flat_map(|e| &e.threads)
            .map(|t| t.counters.instructions)
            .sum()
    }

    /// Every roster model over every cell, as Fig. 3 computes it: signed
    /// errors averaged over the seeds per (direction, benchmark, target,
    /// model) cell, in that order; plus the mean absolute DEP+BURST error
    /// over the cells.
    fn predict(
        &self,
        grid: &[Arc<RunSummary>],
        rec: Option<&Recorder>,
    ) -> Result<(Vec<f64>, f64), String> {
        let models = paper_roster();
        let names: Vec<String> = models.iter().map(|m| m.name()).collect();
        let dep_burst = names
            .iter()
            .position(|n| n == "DEP+BURST")
            .ok_or("paper_roster() has no DEP+BURST model")?;
        let per_dir = self.per_direction();
        let seeds = self.seeds.len() as f64;
        let mut errors = Vec::new();
        let mut dep_abs = Vec::new();
        for (d, direction) in DIRECTIONS.iter().enumerate() {
            let results = &grid[d * per_dir..(d + 1) * per_dir];
            for b in 0..all_benchmarks().len() {
                for (t, &target) in direction.targets().iter().enumerate() {
                    let mut cell = vec![0.0f64; models.len()];
                    for k in 0..self.seeds.len() {
                        let base = &results[self.base_index(b, k)];
                        let actual = &results[self.base_index(b, k) + 1 + t];
                        for (m, model) in models.iter().enumerate() {
                            let predicted = span(rec, "depburst.predict_s", || {
                                model.predict(&base.trace, target)
                            });
                            count(rec, "depburst.predict_calls", 1.0);
                            let err =
                                relative_error(base.rescale_prediction(predicted), actual.exec);
                            if !err.is_finite() {
                                return Err(format!("{} predicted a non-finite error", names[m]));
                            }
                            cell[m] += err / seeds;
                        }
                    }
                    dep_abs.push(cell[dep_burst].abs());
                    errors.extend(cell);
                }
            }
        }
        let mean = dep_abs.iter().sum::<f64>() / dep_abs.len() as f64;
        Ok((errors, mean))
    }

    /// Runs every benchmark and seed under the DEP+BURST energy manager
    /// on `ctx`'s pool, one managed machine each, in (benchmark, seed)
    /// order.
    fn manage(
        &self,
        ctx: &ExecCtx,
        rec: Option<&Arc<Recorder>>,
    ) -> Result<Vec<ManagerReport>, String> {
        let runs: Vec<(&'static Benchmark, u64)> = all_benchmarks()
            .iter()
            .flat_map(|b| self.seeds.iter().map(move |&s| (b, s)))
            .collect();
        let rec_ref = rec.map(Arc::as_ref);
        let reports = ctx.map(runs, |(bench, seed)| {
            let mut mc = MachineConfig::haswell_quad();
            mc.initial_freq = Freq::from_ghz(4.0);
            let mut machine = span(rec_ref, "simx.new_s", || Machine::new(mc));
            let runtime = span(rec_ref, "workloads.install_s", || {
                bench.install(&mut machine, self.scale, seed)
            });
            let predictor: Box<dyn DvfsPredictor> = match rec {
                Some(rec) => Box::new(TimedPredictor::new(Dep::dep_burst(), Arc::clone(rec))),
                None => Box::new(Dep::dep_burst()),
            };
            let manager = EnergyManager::new(ManagerConfig::with_threshold(THRESHOLD), predictor);
            let report = span(rec_ref, "manager.run_s", || manager.run(&mut machine))
                .map_err(|e| format!("manager on {} seed {seed}: {e}", bench.name))?;
            count(rec_ref, "mrt.gc_count", runtime.gc_count() as f64);
            count(
                rec_ref,
                "mrt.allocated_mb",
                runtime.total_allocated() as f64 / 1048576.0,
            );
            count(rec_ref, "manager.decisions", report.decisions as f64);
            count(rec_ref, "manager.switches", report.switches as f64);
            Ok::<_, String>(report)
        });
        reports.into_iter().collect()
    }

    /// The Fig. 6 baselines: every benchmark and seed at 4 GHz, in
    /// (benchmark, seed) order, through the runner.
    fn baselines(
        &self,
        ctx: &ExecCtx,
        rec: Option<&Recorder>,
    ) -> Result<Vec<Arc<RunSummary>>, String> {
        let mut plan = SweepPlan::new();
        for bench in all_benchmarks() {
            for &seed in &self.seeds {
                plan.push(SimPoint::new(bench, Freq::from_ghz(4.0), self.scale, seed));
            }
        }
        let results = span(rec, "runner.execute_s", || ctx.execute(&plan))
            .map_err(|e| format!("baselines: {e}"))?;
        count(rec, "runner.points", plan.points.len() as f64);
        Ok(results)
    }

    /// Mean energy savings (%) of the managed runs on the memory-bound
    /// benchmarks, each against its 4 GHz baseline (Fig. 6a).
    fn memory_savings_pct(&self, baselines: &[Arc<RunSummary>], reports: &[ManagerReport]) -> f64 {
        let power = ManagerConfig::with_threshold(THRESHOLD).power;
        let cores = MachineConfig::haswell_quad().cores;
        let f4 = Freq::from_ghz(4.0);
        let per_bench = self.seeds.len();
        let savings: Vec<f64> = baselines
            .iter()
            .zip(reports)
            .enumerate()
            .filter(|(i, _)| all_benchmarks()[i / per_bench].class == BenchClass::Memory)
            .map(|(_, (base, report))| {
                let base_energy = power.energy_of_run(f4, base.exec, base.total_active, cores);
                1.0 - report.energy_j / base_energy
            })
            .collect();
        100.0 * savings.iter().sum::<f64>() / savings.len() as f64
    }
}

/// Digest of the grid summaries, in plan order.
fn grid_digest(grid: &[Arc<RunSummary>]) -> u64 {
    let mut d = Digest::default();
    for summary in grid {
        summary_digest(&mut d, summary);
    }
    d.finish()
}

/// Mixes in every field a summary serializes. The epochs — nearly all of
/// a summary's bytes — are walked field by field rather than through the
/// serialized value tree, which would cost as much as the replay itself.
fn summary_digest(d: &mut Digest, s: &RunSummary) {
    d.f64(s.exec.as_secs());
    d.f64(s.gc_time.as_secs());
    d.u64(s.gc_count);
    d.u64(s.allocated);
    d.f64(s.total_active.as_secs());
    if let Some(sampled) = &s.sampled {
        d.value(&sampled.to_value());
    }
    let t = &s.trace;
    d.f64(t.base.hz());
    d.f64(t.start.as_secs());
    d.f64(t.total.as_secs());
    d.u64(t.epochs.len() as u64);
    for e in &t.epochs {
        d.f64(e.start.as_secs());
        d.f64(e.duration.as_secs());
        let (tag, thread) = match e.end {
            EpochEnd::Stall(id) => (0, id.0),
            EpochEnd::Wake(id) => (1, id.0),
            EpochEnd::Exit(id) => (2, id.0),
            EpochEnd::QuantumBoundary => (3, 0),
            EpochEnd::TraceEnd => (4, 0),
        };
        d.u64(tag);
        d.u64(thread.into());
        d.u64(e.threads.len() as u64);
        for slice in &e.threads {
            let c = &slice.counters;
            d.u64(slice.thread.0.into());
            for v in [c.active, c.crit, c.leading_loads, c.stall, c.sq_full] {
                d.f64(v.as_secs());
            }
            for v in [c.instructions, c.loads, c.stores, c.llc_misses] {
                d.u64(v);
            }
        }
    }
    d.value(&t.markers.to_value());
    d.value(&t.threads.to_value());
}

/// The `paper` workload.
#[derive(Debug)]
pub struct Paper {
    grid: Grid,
    manager: Grid,
    warmup: (Grid, Grid),
    jobs: usize,
    /// The last traced pass's grid, which the probe re-simulates.
    traced_grid: Option<Vec<Arc<RunSummary>>>,
}

impl Paper {
    /// `paper` over the Fig. 3 `grid` and the Fig. 6 `manager` runs, set
    /// up by one pass over the smaller `warmup` pair.
    #[must_use]
    pub fn new(grid: Grid, manager: Grid, warmup: (Grid, Grid), jobs: usize) -> Self {
        Paper {
            grid,
            manager,
            warmup,
            jobs,
            traced_grid: None,
        }
    }
}

/// Everything one `paper` pass produced.
struct PaperOut {
    wall_s: f64,
    cpu_s: f64,
    execute_s: f64,
    grid: Vec<Arc<RunSummary>>,
    errors: Vec<f64>,
    dep_burst_err: f64,
    baselines: Vec<Arc<RunSummary>>,
    reports: Vec<ManagerReport>,
}

/// One cold pass: the Fig. 3 `grid` and its predictions, then the
/// Fig. 6 `manager` baselines and managed runs. Returns the timed
/// seconds, the grid's execute seconds, and everything produced.
fn paper_pass(
    grid: &Grid,
    manager: &Grid,
    jobs: usize,
    rec: Option<&Arc<Recorder>>,
) -> Result<PaperOut, String> {
    let rec_ref = rec.map(Arc::as_ref);
    let watch = Stopwatch::start();
    let ctx = ExecCtx::new(jobs);
    let (summaries, execute_s) = grid.run(&ctx, rec_ref)?;
    let (errors, dep_burst_err) = grid.predict(&summaries, rec_ref)?;
    let baselines = manager.baselines(&ctx, rec_ref)?;
    let reports = manager.manage(&ctx, rec)?;
    let (wall_s, cpu_s) = watch.read();
    Ok(PaperOut {
        wall_s,
        cpu_s,
        execute_s,
        grid: summaries,
        errors,
        dep_burst_err,
        baselines,
        reports,
    })
}

impl Workload for Paper {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn rate(&self) -> (&'static str, &'static str) {
        ("points_per_s", "1/s")
    }

    fn setup(&mut self, _rec: Option<&Arc<Recorder>>) -> Result<(), String> {
        // Warm-up: the whole pipeline once at a small scale, so the pool,
        // allocator and page cache are in steady state before timing.
        paper_pass(&self.warmup.0, &self.warmup.1, self.jobs, None).map(|_| ())
    }

    fn reference(&self) -> Option<u64> {
        None
    }

    fn pass(&mut self, rec: Option<&Arc<Recorder>>) -> Result<Pass, String> {
        let out = paper_pass(&self.grid, &self.manager, self.jobs, rec)?;
        let mut d = Digest::default();
        d.u64(grid_digest(&out.grid));
        d.u64(grid_digest(&out.baselines));
        for &e in &out.errors {
            d.f64(e);
        }
        for r in &out.reports {
            d.f64(r.exec.as_secs());
            d.f64(r.energy_j);
            d.u64(r.decisions);
            d.u64(r.switches);
            for (f, t) in &r.freq_time {
                d.u64(f.mhz().into());
                d.f64(t.as_secs());
            }
        }
        let mips = self.grid.instructions(&out.grid) as f64 / 1e6 / out.execute_s;
        let savings = self
            .manager
            .memory_savings_pct(&out.baselines, &out.reports);
        let figures = vec![
            Metric::new("sim_mips", "Minstr/s", mips),
            Metric::new("depburst_err_pct", "%", 100.0 * out.dep_burst_err),
            Metric::new("energy_savings_pct", "%", savings),
        ];
        let items = (out.grid.len() + out.baselines.len()) as f64;
        if rec.is_some() {
            self.traced_grid = Some(out.grid);
        }
        Ok(Pass {
            wall_s: out.wall_s,
            cpu_s: out.cpu_s,
            digest: d.finish(),
            items,
            figures,
        })
    }

    /// Re-runs every distinct grid point through the simulator's public
    /// calls, timing each, and checks the result equals the pipeline's.
    fn probe(&mut self, rec: &Arc<Recorder>, _pass: &Pass) -> Result<(), String> {
        let grid = self
            .traced_grid
            .take()
            .ok_or("paper probe without a traced pass")?;
        let points: Vec<(SimPoint, Arc<RunSummary>)> = self
            .grid
            .plan(DIRECTIONS[0])
            .points
            .into_iter()
            .zip(grid)
            .collect();
        let rec: &Recorder = rec;
        let outcomes = harness::pool::map(points, self.jobs, |(point, expected)| {
            let label = format!(
                "{} @ {} seed {}",
                point.bench.name, point.config.freq, point.config.seed
            );
            let mut mc = MachineConfig::haswell_quad();
            mc.initial_freq = point.config.freq;
            let mut machine = rec.span("simx.new_s", || Machine::new(mc));
            let runtime = rec.span("workloads.install_s", || {
                point
                    .bench
                    .install(&mut machine, point.config.scale, point.config.seed)
            });
            let outcome = rec
                .span("simx.run_s", || machine.run())
                .map_err(|e| format!("{label}: {e}"))?;
            let RunOutcome::Completed(end) = outcome else {
                return Err(format!("{label}: run() returned before completion"));
            };
            let trace = rec.span("simx.harvest_s", || machine.harvest_trace());
            let stats = rec.span("simx.stats_s", || machine.stats());
            rec.add("simx.events", stats.events_dispatched as f64);
            rec.add("simx.instructions", stats.total_instructions() as f64);
            rec.add("simx.dram_reads", stats.dram.reads as f64);
            rec.add("simx.epochs", stats.epochs as f64);
            rec.add("mrt.gc_count", runtime.gc_count() as f64);
            rec.add(
                "mrt.allocated_mb",
                runtime.total_allocated() as f64 / 1048576.0,
            );
            let direct = RunSummary {
                exec: end.since(dvfs_trace::Time::ZERO),
                gc_time: trace.gc_time(),
                gc_count: runtime.gc_count(),
                allocated: runtime.total_allocated(),
                total_active: stats.total_active(),
                trace,
                sampled: None,
            };
            if direct == *expected {
                Ok(())
            } else {
                Err(format!(
                    "{label}: direct run differs from the pipeline's summary"
                ))
            }
        });
        outcomes.into_iter().collect()
    }
}

/// The `replay` workload.
#[derive(Debug)]
pub struct Replay {
    grid: Grid,
    jobs: usize,
    dir: Option<TempDir>,
    reference: Option<u64>,
}

impl Replay {
    /// `replay` of `grid`.
    #[must_use]
    pub fn new(grid: Grid, jobs: usize) -> Self {
        Replay {
            grid,
            jobs,
            dir: None,
            reference: None,
        }
    }
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn rate(&self) -> (&'static str, &'static str) {
        ("points_per_s", "1/s")
    }

    /// Simulates the grid cold into a fresh persistent cache directory.
    /// The digest of that (paper-identical) grid is what every replay
    /// must reproduce.
    fn setup(&mut self, _rec: Option<&Arc<Recorder>>) -> Result<(), String> {
        self.dir = None;
        let dir = TempDir::new("replay").map_err(|e| format!("replay temp dir: {e}"))?;
        let ctx =
            ExecCtx::new(self.jobs).with_cache(SimCache::persistent(dir.path().join("cache")));
        let (grid, _) = self.grid.run(&ctx, None)?;
        let stats = ctx.cache.stats();
        if stats.misses != self.grid.per_direction() as u64 || stats.persist_failures != 0 {
            return Err(format!("replay set-up: unexpected cache fill {stats:?}"));
        }
        self.reference = Some(grid_digest(&grid));
        self.dir = Some(dir);
        Ok(())
    }

    fn reference(&self) -> Option<u64> {
        self.reference
    }

    fn pass(&mut self, rec: Option<&Arc<Recorder>>) -> Result<Pass, String> {
        let dir = self.dir.as_ref().ok_or("replay pass before set-up")?.path();
        let rec_ref = rec.map(Arc::as_ref);
        let watch = Stopwatch::start();
        let vfs: Arc<dyn Vfs> = match rec {
            Some(rec) => Arc::new(TimedVfs::new(Arc::clone(rec))),
            None => Arc::new(RealVfs),
        };
        let cache = SimCache::persistent(dir.join("cache")).with_vfs(Arc::clone(&vfs));
        let journal = Journal::create_at_with(dir.join("journal.jsonl"), vfs)
            .map_err(|e| format!("replay journal: {e}"))?;
        let ctx = ExecCtx::new(self.jobs)
            .with_cache(cache)
            .with_journal(journal);
        let (grid, _) = self.grid.run(&ctx, rec_ref)?;
        let (wall_s, cpu_s) = watch.read();

        let cstats = ctx.cache.stats();
        let jstats = ctx.journal().map(Journal::stats).unwrap_or_default();
        count(rec_ref, "cache.disk_hits", cstats.disk_hits as f64);
        count(rec_ref, "cache.misses", cstats.misses as f64);
        count(rec_ref, "journal.appends", jstats.appends as f64);
        count(
            rec_ref,
            "journal.append_failures",
            jstats.append_failures as f64,
        );
        let distinct = self.grid.per_direction() as u64;
        if cstats.misses != 0 || cstats.disk_hits != distinct || cstats.quarantined != 0 {
            return Err(format!(
                "replay: cache did not serve every point from disk: {cstats:?}"
            ));
        }
        if jstats.appends != distinct || jstats.append_failures != 0 || jstats.fsync_failures != 0 {
            return Err(format!(
                "replay: journal did not record every point: {jstats:?}"
            ));
        }
        Ok(Pass {
            wall_s,
            cpu_s,
            digest: grid_digest(&grid),
            items: grid.len() as f64,
            figures: Vec::new(),
        })
    }

    fn probe(&mut self, _rec: &Arc<Recorder>, _pass: &Pass) -> Result<(), String> {
        Ok(())
    }
}

/// The grid digest of a cold in-memory run (the replay reference).
#[cfg(test)]
pub fn cold_grid_digest(grid: &Grid, jobs: usize) -> u64 {
    let ctx = ExecCtx::new(jobs);
    let (summaries, _) = grid.run(&ctx, None).expect("cold grid");
    grid_digest(&summaries)
}
