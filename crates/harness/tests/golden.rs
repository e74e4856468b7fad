//! Golden-trace determinism suite.
//!
//! Two benchmarks (one memory-bound, one compute-bound) at two
//! frequencies, tiny scale, serialized as JSON and compared **byte for
//! byte** against checked-in goldens under `tests/goldens/`. The JSON
//! shim prints floats with the shortest exact-roundtrip representation,
//! so byte equality of the files is equivalent to bit-pattern equality
//! of every `f64` in the summaries; the summary-level fields are also
//! compared through `f64::to_bits` explicitly.
//!
//! Regenerate after an intentional simulator change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p harness --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use dvfs_trace::Freq;
use harness::run::RunSummary;
use harness::{ExecCtx, SimPoint, SweepPlan};

/// The golden grid: (benchmark, GHz). Scale and seed are fixed below.
const GRID: [(&str, f64); 4] = [
    ("lusearch", 1.0),
    ("lusearch", 4.0),
    ("sunflow", 1.0),
    ("sunflow", 4.0),
];
const SCALE: f64 = 0.05;
const SEED: u64 = 1;

fn golden_path(bench: &str, ghz: f64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{bench}_{ghz:.0}ghz.json"))
}

fn compute_summaries() -> Vec<std::sync::Arc<RunSummary>> {
    let ctx = ExecCtx::sequential();
    let mut plan = SweepPlan::new();
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        plan.push(SimPoint::new(bench, Freq::from_ghz(ghz), SCALE, SEED));
    }
    ctx.execute(&plan).expect("golden runs succeed")
}

#[test]
fn summaries_match_goldens() {
    let updating = std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1");
    let results = compute_summaries();
    let mut mismatches = Vec::new();
    for ((name, ghz), summary) in GRID.iter().zip(&results) {
        let json = serde_json::to_string_pretty(&**summary).expect("summary serializes");
        let path = golden_path(name, *ghz);
        if updating {
            fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir goldens");
            fs::write(&path, &json).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; regenerate with UPDATE_GOLDENS=1 cargo test -p harness --test golden",
                path.display()
            )
        });
        if want != json {
            // Pinpoint the first diverging line so a drift report is
            // readable without a JSON diff tool.
            let line = want
                .lines()
                .zip(json.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            mismatches.push(format!("{name} @ {ghz} GHz (first differing line {line})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden drift in: {}. If the simulator change is intentional, regenerate with \
         UPDATE_GOLDENS=1 cargo test -p harness --test golden",
        mismatches.join(", ")
    );
}

#[test]
fn golden_grid_is_clean_under_the_full_invariant_monitor() {
    // The golden configurations are the repo's reference physics: every
    // invariant the monitor knows must hold on them at the strictest
    // tier. A violation here is a simulator bug (or an over-tight
    // tolerance), never acceptable drift.
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        let config = harness::RunConfig {
            freq: Freq::from_ghz(ghz),
            scale: SCALE,
            seed: SEED,
        };
        harness::try_run_benchmark(bench, config, simx::InvariantMode::Full)
            .unwrap_or_else(|e| panic!("{name} @ {ghz} GHz violates an invariant: {e}"));
    }
}

#[test]
fn every_invariant_tier_produces_byte_identical_summaries() {
    // The batched counter harvest accumulates per-slice counters on the
    // core bank and copies them back to threads only at slice boundaries —
    // but the invariant monitor (and `Machine::stats`) read cumulative
    // counters *mid-run*. This test proves the harvest path is observation
    // independent: every monitor tier, including the tiers that read
    // counters at each harvest, serializes to the exact same bytes.
    for (name, ghz) in GRID {
        let bench = dacapo_sim::benchmark(name).expect("golden benchmark exists");
        let config = harness::RunConfig {
            freq: Freq::from_ghz(ghz),
            scale: SCALE,
            seed: SEED,
        };
        let tiers = [
            simx::InvariantMode::Off,
            simx::InvariantMode::Cheap,
            simx::InvariantMode::Full,
        ];
        let jsons: Vec<String> = tiers
            .iter()
            .map(|&mode| {
                let r = harness::try_run_benchmark(bench, config, mode)
                    .unwrap_or_else(|e| panic!("{name} @ {ghz} GHz under {mode:?}: {e}"));
                serde_json::to_string_pretty(&r.summarize()).expect("summary serializes")
            })
            .collect();
        assert_eq!(jsons[0], jsons[1], "{name} @ {ghz} GHz: off vs cheap tier drift");
        assert_eq!(jsons[0], jsons[2], "{name} @ {ghz} GHz: off vs full tier drift");
    }
}

#[test]
fn goldens_roundtrip_with_exact_f64_bits() {
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        return; // goldens are being rewritten by the other test
    }
    let results = compute_summaries();
    for ((name, ghz), summary) in GRID.iter().zip(&results) {
        let path = golden_path(name, *ghz);
        let Ok(text) = fs::read_to_string(&path) else {
            panic!("missing golden {}", path.display());
        };
        let stored: RunSummary = serde_json::from_str(&text).expect("golden parses");
        for (field, ours, theirs) in [
            ("exec", summary.exec.as_secs(), stored.exec.as_secs()),
            ("gc_time", summary.gc_time.as_secs(), stored.gc_time.as_secs()),
            (
                "total_active",
                summary.total_active.as_secs(),
                stored.total_active.as_secs(),
            ),
        ] {
            assert_eq!(
                ours.to_bits(),
                theirs.to_bits(),
                "{name} @ {ghz} GHz: {field} bit pattern drifted ({ours} vs {theirs})"
            );
        }
        assert_eq!(summary.gc_count, stored.gc_count, "{name} @ {ghz} GHz gc_count");
        assert_eq!(summary.allocated, stored.allocated, "{name} @ {ghz} GHz allocated");
        assert_eq!(
            summary.trace.epochs.len(),
            stored.trace.epochs.len(),
            "{name} @ {ghz} GHz epoch count"
        );
    }
}
