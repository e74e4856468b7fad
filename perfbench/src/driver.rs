//! Runs one workload: repeated set-up, timed passes for the run's
//! seconds, output checks, and the metrics it prints.

use std::sync::Arc;
use std::time::Instant;

use crate::record::{median, peak_rss_mb, Metric, Recorder, Stopwatch};
use crate::workload::{Pass, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Fewest timed passes a run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Fewest traced passes a traced run makes.
pub const MIN_TRACED: usize = 2;

/// The end-to-end metrics every untraced run prints, in `BENCHMARK.json`
/// order. Both are process CPU seconds: on a shared 2-core host, steal
/// and other tenants doubled the wall time of identical passes at times,
/// while their CPU time moved by at most 15%. The wall figures are in the
/// table and the per-layer metrics, and so is `peak_rss_mb`, whose
/// high-water mark depends on allocator history (it varied by up to 29%,
/// quartile spread over median, between runs of identical inputs).
pub const END_TO_END: [(&str, &str); 2] = [("cpu_s", "s"), ("setup_s", "s")];

/// The per-layer metrics every traced run prints, in `BENCHMARK.json`
/// order. Layers a workload bypasses read 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("simx.new_s", "s"),
    ("simx.run_s", "s"),
    ("simx.harvest_s", "s"),
    ("simx.stats_s", "s"),
    ("simx.events", "count"),
    ("simx.ns_per_event", "ns"),
    ("simx.instructions", "count"),
    ("simx.dram_reads", "count"),
    ("simx.epochs", "count"),
    ("workloads.install_s", "s"),
    ("mrt.gc_count", "count"),
    ("mrt.allocated_mb", "MB"),
    ("depburst.predict_s", "s"),
    ("depburst.predict_calls", "count"),
    ("depburst.us_per_predict", "us"),
    ("manager.run_s", "s"),
    ("manager.predict_s", "s"),
    ("manager.predict_calls", "count"),
    ("manager.decisions", "count"),
    ("manager.switches", "count"),
    ("runner.execute_s", "s"),
    ("runner.points", "count"),
    ("vfs.reads", "count"),
    ("vfs.read_mb", "MB"),
    ("vfs.read_s", "s"),
    ("vfs.writes", "count"),
    ("vfs.write_s", "s"),
    ("vfs.appends", "count"),
    ("vfs.append_mb", "MB"),
    ("vfs.append_s", "s"),
    ("vfs.fsyncs", "count"),
    ("vfs.fsync_s", "s"),
    ("vfs.other_s", "s"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.decode_s", "s"),
    ("journal.appends", "count"),
    ("journal.append_failures", "count"),
    ("fleet.characterize_s", "s"),
    ("fleet.rounds_s", "s"),
    ("fleet.ns_per_machine_round", "ns"),
    ("pool.round_spawn_s", "s"),
    ("fleet.degraded_machine_rounds", "count"),
    ("fleet.overshoot_rounds", "count"),
    ("thermal.emergency_throttles", "count"),
    ("thermal.shutdowns", "count"),
    ("thermal.black_starts", "count"),
    ("thermal.breaker_trips", "count"),
    ("governor.allocate_us", "us"),
    ("governor.rebalance_us", "us"),
    ("trace.overhead_s", "s"),
    ("wall_s", "s"),
    ("setup_wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("points_per_s", "1/s"),
    ("machine_rounds_per_s", "1/s"),
    ("depburst_err_pct", "%"),
    ("energy_savings_pct", "%"),
    ("slo_attainment_pct", "%"),
    ("error_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("passes", "count"),
];

/// What a run of one workload measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// Set-ups plus passes made.
    pub attempted: u64,
    /// Set-ups and passes that failed an output check.
    pub failed: u64,
    /// The contract metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Every end-to-end figure of the run, for the human-readable table.
    pub table: Vec<Metric>,
    /// Untraced passes the time metrics are medians of.
    pub passes: usize,
    /// Spread of the untraced pass times: (first quartile, third quartile).
    pub wall_quartiles: (f64, f64),
}

impl Report {
    /// True when every check passed and every value is a number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The per-layer metrics derived from one traced pass's recorder.
fn layer_metrics(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let g = |name: &str| rec.get(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "simx.ns_per_event" => ratio(g("simx.run_s"), g("simx.events")) * 1e9,
                "depburst.us_per_predict" => {
                    ratio(g("depburst.predict_s"), g("depburst.predict_calls")) * 1e6
                }
                "cache.disk_hit_ratio" => ratio(
                    g("cache.disk_hits"),
                    g("cache.disk_hits") + g("cache.misses"),
                ),
                // The part of the replay's execute time spent outside the
                // storage calls: envelope parse, checksum verify, record
                // encode. Only defined when the disk cache served points.
                "cache.decode_s" if g("cache.disk_hits") > 0.0 => {
                    g("runner.execute_s") - g("vfs.read_s") - g("vfs.append_s") - g("vfs.fsync_s")
                }
                "fleet.ns_per_machine_round" => {
                    ratio(g("fleet.rounds_s"), g("fleet.machine_rounds")) * 1e9
                }
                "pool.round_spawn_s" if g("fleet.rounds_jobs1_s") > 0.0 => {
                    g("fleet.rounds_s") - g("fleet.rounds_jobs1_s")
                }
                _ => g(name),
            };
            (name, value)
        })
        .collect()
}

/// Element-wise median of several metric lists of the same names.
fn median_by_name(lists: &[Vec<(&'static str, f64)>], name: &str) -> f64 {
    let values: Vec<f64> = lists
        .iter()
        .filter_map(|l| l.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
        .collect();
    median(&values)
}

/// Quartiles as `statistics.quantiles(values, n=4)` computes them
/// (exclusive method); the median for fewer than two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let q = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(0.25), q(0.75))
}

/// Bookkeeping of the output checks across a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    reference: Option<u64>,
}

impl Checks {
    /// Counts one pass; fails it on an error or a digest that differs
    /// from the run's reference (set-up's, else the first pass's).
    fn pass(&mut self, workload: &str, what: &str, outcome: Result<Pass, String>) -> Option<Pass> {
        self.attempted += 1;
        let failure = match outcome {
            Ok(pass) => match self.reference {
                Some(want) if want != pass.digest => format!(
                    "{what} digest {:016x} differs from the reference {want:016x}",
                    pass.digest
                ),
                _ => {
                    self.reference.get_or_insert(pass.digest);
                    return Some(pass);
                }
            },
            Err(e) => e,
        };
        self.failed += 1;
        eprintln!("perfbench {workload}: FAILED {what}: {failure}");
        None
    }

    fn fail(&mut self, workload: &str, what: &str, error: &str) {
        self.failed += 1;
        eprintln!("perfbench {workload}: FAILED {what}: {error}");
    }
}

/// Runs `w`: [`SETUPS`] set-ups, then passes until `seconds` have gone
/// by (at least [`MIN_PASSES`]). A traced run interleaves untraced and
/// traced passes, probing the layers after each traced one.
pub fn run(w: &mut dyn Workload, seconds: f64, trace: bool) -> Report {
    let name = w.name();
    let mut checks = Checks::default();
    let mut setup_wall = Vec::with_capacity(SETUPS);
    let mut setup_cpu = Vec::with_capacity(SETUPS);
    let mut characterize_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let rec = Arc::new(Recorder::default());
        let watch = Stopwatch::start();
        let outcome = w.setup(trace.then_some(&rec));
        let (wall, cpu) = watch.read();
        setup_wall.push(wall);
        setup_cpu.push(cpu);
        characterize_s.push(rec.get("fleet.characterize_s"));
        checks.attempted += 1;
        if let Err(e) = outcome {
            checks.fail(name, "set-up", &e);
            return Report {
                workload: name,
                attempted: checks.attempted,
                failed: checks.failed,
                metrics: Vec::new(),
                table: Vec::new(),
                passes: 0,
                wall_quartiles: (0.0, 0.0),
            };
        }
    }
    checks.reference = w.reference();

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let start = Instant::now();
    loop {
        if let Some(pass) = checks.pass(name, "pass", w.pass(None)) {
            eprintln!(
                "perfbench {name}: pass {} wall {:.4} s, cpu {:.4} s",
                untraced.len() + 1,
                pass.wall_s,
                pass.cpu_s
            );
            untraced.push(pass);
        }
        if trace {
            let rec = Arc::new(Recorder::default());
            if let Some(pass) = checks.pass(name, "traced pass", w.pass(Some(&rec))) {
                match w.probe(&rec, &pass) {
                    Ok(()) => layers.push(layer_metrics(&rec)),
                    Err(e) => checks.fail(name, "probe", &e),
                }
                traced.push(pass);
            }
        }
        let done = start.elapsed().as_secs_f64() >= seconds
            && untraced.len() >= MIN_PASSES
            && (!trace || traced.len() >= MIN_TRACED);
        // A run whose passes keep failing stops once its time is up.
        if done || (start.elapsed().as_secs_f64() >= seconds && checks.failed > 0) {
            break;
        }
    }

    let of =
        |passes: &[Pass], f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let items = untraced.first().map_or(0.0, |p| p.items);
    let items_per_s = if wall_s > 0.0 { items / wall_s } else { 0.0 };
    let (rate_name, rate_unit) = w.rate();
    let mut table = vec![
        Metric::new("setup_s", "s", median(&setup_cpu)),
        Metric::new("setup_wall_s", "s", median(&setup_wall)),
        Metric::new("cpu_s", "s", of(&untraced, |p| p.cpu_s)),
        Metric::new("wall_s", "s", wall_s),
        Metric::new("items_per_s", "1/s", items_per_s),
        Metric::new(rate_name, rate_unit, items_per_s),
    ];
    if let Some(first) = untraced.first() {
        for fig in &first.figures {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|p| p.figures.iter().find(|f| f.name == fig.name))
                .map(|f| f.value)
                .collect();
            table.push(Metric::new(fig.name, fig.unit, median(&values)));
        }
    }
    table.push(Metric::new(
        "peak_rss_mb",
        "MB",
        peak_rss_mb().unwrap_or(0.0),
    ));
    let error_rate = checks.failed as f64 / checks.attempted as f64;
    table.push(Metric::new("error_rate", "ratio", error_rate));

    let find = |name: &str| table.iter().find(|m| m.name == name).map(|m| m.value);
    let metrics = if trace {
        let traced_wall = of(&traced, |p| p.wall_s);
        PER_LAYER
            .iter()
            .map(|&(n, unit)| {
                let value = match n {
                    "fleet.characterize_s" => median(&characterize_s),
                    "trace.overhead_s" => traced_wall - wall_s,
                    "passes" => untraced.len() as f64,
                    _ => find(n).unwrap_or_else(|| median_by_name(&layers, n)),
                };
                Metric::new(n, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, unit)| Metric::new(n, unit, find(n).unwrap_or(0.0)))
            .collect()
    };
    Report {
        workload: name,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        table,
        passes: untraced.len(),
        wall_quartiles: quartiles(&walls),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn per_layer_names_are_unique() {
        for (i, (a, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|(b, _)| a != b), "{a} twice");
        }
    }
}
