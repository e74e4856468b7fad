//! Ablation studies beyond the paper's figures (called out in DESIGN.md):
//!
//! 1. **Per-thread model ablation**: DEP composed with each published
//!    single-thread scaling model (stall time, leading loads, CRIT),
//!    with and without BURST — quantifies how much of DEP+BURST's
//!    accuracy comes from CRIT itself vs from the epoch machinery.
//! 2. **Manager parameter sweep**: energy savings and slowdown as a
//!    function of the `hold_off` parameter and the scheduling quantum
//!    (paper §VI-A introduces both but evaluates only one setting).

use dacapo_sim::all_benchmarks;
use depburst::{relative_error, CtpMode, Dep, DvfsPredictor, ErrorStats, NonScalingModel};
use dvfs_trace::{Freq, TimeDelta};
use energyx::{EnergyManager, ManagerConfig, PowerModel};
use serde::Serialize;
use simx::MachineConfig;

use crate::report::{pct, pct_abs, TextTable};
use crate::run::{ExecCtx, SimPoint, SweepPlan};

/// Per-thread-model ablation row: one benchmark, six DEP variants.
#[derive(Debug, Clone, Serialize)]
pub struct ModelAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// (variant name, signed error at 4 GHz from a 1 GHz base).
    pub errors: Vec<(String, f64)>,
}

/// DEP composed with each per-thread model, ± BURST.
#[must_use]
pub fn dep_variants() -> Vec<Dep> {
    let mut v = Vec::new();
    for model in [
        NonScalingModel::StallTime,
        NonScalingModel::LeadingLoads,
        NonScalingModel::Crit,
    ] {
        for burst in [false, true] {
            v.push(Dep::new(model, burst, CtpMode::AcrossEpoch));
        }
    }
    v
}

/// Runs the per-thread-model ablation on `ctx`'s pool and cache.
pub fn model_ablation_with(
    ctx: &ExecCtx,
    scale: f64,
    seed: u64,
) -> depburst_core::Result<Vec<ModelAblationRow>> {
    let variants = dep_variants();
    let target = Freq::from_ghz(4.0);
    let mut plan = SweepPlan::new();
    for bench in all_benchmarks() {
        plan.push(SimPoint::new(bench, Freq::from_ghz(1.0), scale, seed));
        plan.push(SimPoint::new(bench, target, scale, seed));
    }
    let results = ctx.execute(&plan)?;
    let mut next = results.iter();
    Ok(all_benchmarks()
        .iter()
        .map(|bench| {
            let base = next.next().expect("plan covers base run");
            let actual = next.next().expect("plan covers target run");
            ModelAblationRow {
                benchmark: bench.name.to_owned(),
                errors: variants
                    .iter()
                    .map(|v| {
                        let predicted = base.rescale_prediction(v.predict(&base.trace, target));
                        (v.name(), relative_error(predicted, actual.exec))
                    })
                    .collect(),
            }
        })
        .collect())
}

/// Renders the model ablation.
#[must_use]
pub fn render_model_ablation(rows: &[ModelAblationRow]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let names: Vec<String> = first.errors.iter().map(|(n, _)| n.clone()).collect();
    let mut header = vec!["benchmark"];
    for n in &names {
        header.push(n);
    }
    let mut t = TextTable::new(&header);
    for r in rows {
        let mut row = vec![r.benchmark.clone()];
        for (_, e) in &r.errors {
            row.push(pct(*e));
        }
        t.row(row);
    }
    let mut avg_row = vec!["avg |err|".to_owned()];
    for i in 0..names.len() {
        let errs: Vec<f64> = rows.iter().map(|r| r.errors[i].1).collect();
        avg_row.push(pct_abs(ErrorStats::from_errors(&errs).mean_abs));
    }
    t.row(avg_row);
    format!("DEP per-thread-model ablation, 1 GHz -> 4 GHz\n{}", t.render())
}

/// One manager-parameter configuration's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ManagerSweepRow {
    /// Hold-off in quanta.
    pub hold_off: u32,
    /// Quantum in milliseconds.
    pub quantum_ms: f64,
    /// Measured slowdown vs. 4 GHz.
    pub slowdown: f64,
    /// Energy savings vs. 4 GHz.
    pub savings: f64,
    /// Frequency switches performed.
    pub switches: u64,
}

/// Sweeps hold-off and quantum on `ctx`: the 4 GHz baseline is a shared
/// cacheable point, and the six managed configurations fan out across
/// workers (managed runs mutate frequency mid-run, so they stay
/// uncached). Configurations run under the context's resilience stack;
/// the sweep is complete-or-failed (`SweepIncomplete` after the
/// surviving configurations finished).
pub fn manager_sweep_with(
    ctx: &ExecCtx,
    bench_name: &str,
    scale: f64,
    seed: u64,
) -> depburst_core::Result<Vec<ManagerSweepRow>> {
    let Some(bench) = dacapo_sim::benchmark(bench_name) else {
        return Err(depburst_core::DepburstError::Machine {
            detail: format!("unknown benchmark {bench_name}"),
        });
    };
    let power = PowerModel::haswell_22nm();
    let mut plan = SweepPlan::new();
    plan.push(SimPoint::new(bench, Freq::from_ghz(4.0), scale, seed));
    let base = ctx.execute(&plan)?.remove(0);
    let base_energy = power.energy_of_run(Freq::from_ghz(4.0), base.exec, base.total_active, 4);

    let grid: Vec<(String, (u32, f64))> = [
        (1u32, 5.0f64),
        (2, 5.0),
        (4, 5.0),
        (8, 5.0),
        (1, 1.0),
        (1, 20.0),
    ]
    .into_iter()
    .map(|(h, q)| (format!("ablation hold-off {h} quantum {q}ms"), (h, q)))
    .collect();
    ctx.collect_resilient(grid, |&(hold_off, quantum_ms), _attempt| {
        let mut config = ManagerConfig::with_threshold(0.05);
        config.hold_off = hold_off;
        config.quantum = TimeDelta::from_millis(quantum_ms);
        let mut mc = MachineConfig::haswell_quad();
        mc.initial_freq = Freq::from_ghz(4.0);
        let mut machine = ctx.machine(mc);
        bench.install(&mut machine, scale, seed);
        let manager = EnergyManager::new(config, Box::new(Dep::dep_burst()));
        let report = manager.run(&mut machine)?;
        Ok(ManagerSweepRow {
            hold_off,
            quantum_ms,
            slowdown: report.exec.as_secs() / base.exec.as_secs() - 1.0,
            savings: 1.0 - report.energy_j / base_energy,
            switches: report.switches,
        })
    })
}

/// Renders the manager sweep.
#[must_use]
pub fn render_manager_sweep(bench_name: &str, rows: &[ManagerSweepRow]) -> String {
    let mut t = TextTable::new(&["hold-off", "quantum", "slowdown", "savings", "switches"]);
    for r in rows {
        t.row(vec![
            r.hold_off.to_string(),
            format!("{} ms", r.quantum_ms),
            pct(r.slowdown),
            pct(r.savings),
            r.switches.to_string(),
        ]);
    }
    format!(
        "energy-manager parameter sweep on {bench_name}, 5% threshold\n{}",
        t.render()
    )
}

/// Leave-one-benchmark-out evaluation of the offline-regression predictor
/// (the related-work family of §VII-A) against DEP+BURST.
#[derive(Debug, Clone, Serialize)]
pub struct RegressionRow {
    /// The held-out benchmark.
    pub benchmark: String,
    /// Regression error at 4 GHz from a 1 GHz base (trained on the other
    /// six benchmarks).
    pub regression: f64,
    /// DEP+BURST error on the same runs (no training needed).
    pub dep_burst: f64,
}

/// Runs the leave-one-out study on `ctx`'s pool and cache. Every point
/// here (1/2/3/4 GHz per benchmark) is shared with the fig3 grid.
pub fn regression_ablation_with(
    ctx: &ExecCtx,
    scale: f64,
    seed: u64,
) -> depburst_core::Result<Vec<RegressionRow>> {
    use depburst::RegressionTrainer;
    let target = Freq::from_ghz(4.0);
    let mut plan = SweepPlan::new();
    for bench in all_benchmarks() {
        plan.push(SimPoint::new(bench, Freq::from_ghz(1.0), scale, seed));
        plan.push(SimPoint::new(bench, target, scale, seed));
        for g in [2.0, 3.0] {
            plan.push(SimPoint::new(bench, Freq::from_ghz(g), scale, seed));
        }
    }
    let results = ctx.execute(&plan)?;
    let mut next = results.iter();
    // Gather each benchmark's (base trace, actual-at-target) once.
    let data: Vec<_> = all_benchmarks()
        .iter()
        .map(|bench| {
            let base = next.next().expect("plan covers base run");
            let actual = next.next().expect("plan covers target run");
            // Intermediate targets sampled for the training set.
            let mid: Vec<_> = [2.0, 3.0]
                .iter()
                .map(|&g| {
                    let r = next.next().expect("plan covers mid run");
                    (Freq::from_ghz(g), r.exec)
                })
                .collect();
            (bench.name.to_owned(), base, actual, mid)
        })
        .collect();

    let dep = Dep::dep_burst();
    Ok(data
        .iter()
        .map(|(held_out, base, actual, _)| {
            let mut trainer = RegressionTrainer::new();
            for (name, b, a, mid) in &data {
                if name == held_out {
                    continue;
                }
                trainer.observe(&b.trace, target, a.exec);
                for (f, exec) in mid {
                    trainer.observe(&b.trace, *f, *exec);
                }
            }
            let model = trainer.fit().expect("six benchmarks suffice");
            RegressionRow {
                benchmark: held_out.clone(),
                regression: relative_error(
                    base.rescale_prediction(model.predict(&base.trace, target)),
                    actual.exec,
                ),
                dep_burst: relative_error(
                    base.rescale_prediction(dep.predict(&base.trace, target)),
                    actual.exec,
                ),
            }
        })
        .collect())
}

/// Renders the leave-one-out comparison.
#[must_use]
pub fn render_regression(rows: &[RegressionRow]) -> String {
    let mut t = TextTable::new(&["held-out benchmark", "REGRESSION", "DEP+BURST"]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            pct(r.regression),
            pct(r.dep_burst),
        ]);
    }
    let reg: Vec<f64> = rows.iter().map(|r| r.regression).collect();
    let dep: Vec<f64> = rows.iter().map(|r| r.dep_burst).collect();
    t.row(vec![
        "avg |err|".into(),
        pct_abs(ErrorStats::from_errors(&reg).mean_abs),
        pct_abs(ErrorStats::from_errors(&dep).mean_abs),
    ]);
    format!(
        "offline regression (leave-one-benchmark-out) vs DEP+BURST, 1 GHz -> 4 GHz\n{}",
        t.render()
    )
}
