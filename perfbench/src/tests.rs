//! Self-tests: every workload at [`Sizes::TINY`], through the same driver
//! the benchmark runs.

use super::*;

fn nproc() -> usize {
    harness::pool::default_jobs().max(2)
}

fn run(name: &str, jobs: usize, trace: bool) -> Report {
    let mut w = make(name, Sizes::TINY, 3, jobs).expect("known workload");
    driver::run(w.as_mut(), 0.0, trace)
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} did not print {name}", report.workload))
        .value
}

/// The workload-specific figures each workload prints in its table.
fn figures_of(name: &str) -> &'static [&'static str] {
    match name {
        "paper" => &[
            "points_per_s",
            "sim_mips",
            "depburst_err_pct",
            "energy_savings_pct",
        ],
        "replay" => &["points_per_s"],
        _ => &["machine_rounds_per_s", "slo_attainment_pct"],
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for name in WORKLOADS {
        let untraced = run(name, nproc(), false);
        assert!(untraced.correct(), "{name}: {untraced:?}");
        let printed: Vec<(&str, &str)> =
            untraced.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, driver::END_TO_END.to_vec(), "{name}");
        for m in &untraced.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }
        for fig in figures_of(name) {
            assert!(
                untraced
                    .table
                    .iter()
                    .any(|m| m.name == *fig && m.value.is_finite()),
                "{name}: table lacks {fig}"
            );
        }
        assert!(untraced
            .table
            .iter()
            .any(|m| m.name == "error_rate" && m.value == 0.0));

        let traced = run(name, nproc(), true);
        assert!(traced.correct(), "{name} traced: {traced:?}");
        let printed: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, driver::PER_LAYER.to_vec(), "{name}");
    }
}

#[test]
fn traced_runs_confirm_each_workload_purpose() {
    let paper = run("paper", nproc(), true);
    assert!(value(&paper, "simx.run_s") > 0.0);
    assert!(value(&paper, "simx.events") > 0.0);
    assert!(value(&paper, "depburst.predict_calls") > 0.0);
    assert!(value(&paper, "manager.predict_calls") > 0.0);
    for m in paper.metrics.iter().filter(|m| m.name.starts_with("vfs.")) {
        assert_eq!(m.value, 0.0, "paper touched storage: {}", m.name);
    }

    let replay = run("replay", nproc(), true);
    assert_eq!(value(&replay, "simx.run_s"), 0.0);
    assert_eq!(value(&replay, "depburst.predict_calls"), 0.0);
    assert_eq!(value(&replay, "cache.disk_hit_ratio"), 1.0);
    assert!(value(&replay, "vfs.reads") > 0.0);
    assert!(value(&replay, "journal.appends") > 0.0);
    assert_eq!(value(&replay, "journal.append_failures"), 0.0);

    let storm = run("fleet-storm", nproc(), true);
    assert!(value(&storm, "governor.allocate_us") > 0.0);
    assert!(value(&storm, "governor.rebalance_us") > 0.0);
    assert!(value(&storm, "fleet.characterize_s") > 0.0);
    assert_eq!(value(&storm, "simx.run_s"), 0.0);
}

#[test]
fn digests_agree_between_one_worker_and_nproc() {
    for name in WORKLOADS {
        let digest = |jobs: usize| {
            let mut w = make(name, Sizes::TINY, 5, jobs).expect("known workload");
            w.setup(None).expect("set-up");
            w.pass(None).expect("pass").digest
        };
        assert_eq!(digest(1), digest(nproc()), "{name}");
    }
}

#[test]
fn replay_reproduces_the_paper_grid() {
    let mut replay = make("replay", Sizes::TINY, 9, nproc()).expect("replay");
    replay.setup(None).expect("set-up");
    let grid = paper::Grid::new(Sizes::TINY.paper_scale, 9, Sizes::TINY.paper_seeds);
    let cold = paper::cold_grid_digest(&grid, nproc());
    assert_eq!(replay.reference(), Some(cold));
    assert_eq!(replay.pass(None).expect("pass").digest, cold);
}

#[test]
fn seeds_change_the_inputs() {
    let digest = |seed: u64| {
        let mut w = make("fleet-flat", Sizes::TINY, seed, 1).expect("fleet-flat");
        w.setup(None).expect("set-up");
        w.pass(None).expect("pass").digest
    };
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1), digest(2));
}

#[test]
fn command_line_is_validated() {
    let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let ok = parse_args(&args("--workload paper --seed 4 --seconds 10 --trace 1")).expect("valid");
    assert_eq!((ok.seed, ok.trace), (4, true));
    assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(parse_args(&args("--workload paper --seed x --seconds 1 --trace 0")).is_err());
    assert!(parse_args(&args("--workload paper --seed 1 --seconds 1 --trace 2")).is_err());
    assert!(parse_args(&args("--workload paper --seconds 1")).is_err());
}

#[test]
fn result_line_is_one_json_object() {
    let m = Metric::new("cpu_s", "s", 1.25);
    let line = result_line(3, 0, true, &[("cpu_s".to_owned(), &m)]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
    );
    assert_eq!(json_number(f64::NAN), "null");
}
