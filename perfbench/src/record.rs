//! What a run measures: span totals recorded around calls into the
//! program's layers, the metric list a run prints, and small statistics.
//!
//! Spans are aggregated in memory by name (total seconds) and written out
//! once, when the run ends. Counts recorded at the same boundaries share
//! the map, so a ratio is always formed from numbers measured where the
//! work happened.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-name totals of the spans and counts one traced pass recorded.
/// Shared by reference (or `Arc`) across pool workers.
#[derive(Debug, Default)]
pub struct Recorder {
    totals: Mutex<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    /// Runs `f`, adding its host seconds to `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Adds `value` to the total under `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .totals
            .lock()
            .expect("recorder lock poisoned by a panicking span")
            .entry(name)
            .or_default() += value;
    }

    /// The total under `name` (0 when nothing was recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.totals
            .lock()
            .expect("recorder lock poisoned by a panicking span")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Runs `f` inside a span when a recorder is present, bare otherwise.
pub fn span<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

/// Adds a count when a recorder is present.
pub fn count(rec: Option<&Recorder>, name: &'static str, value: f64) {
    if let Some(rec) = rec {
        rec.add(name, value);
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`, in `unit`.
    #[must_use]
    pub const fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall and process CPU time of a timed region.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// (wall seconds, CPU seconds) since [`start`](Self::start).
    #[must_use]
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// CPU seconds the process has used so far: user and system time of all
/// its threads, including threads that have exited. A guest kernel with
/// paravirtual steal accounting leaves out the time the hypervisor gave
/// to other tenants.
#[cfg(target_os = "linux")]
#[must_use]
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux), and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds are only read on Linux; elsewhere they are not a number,
/// which makes a run incorrect rather than silently wrong.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// The process's peak resident set size in MB (`VmHWM`), or `None` where
/// the kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, fed piecewise: the output digests of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes an `f64` in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes in a serialized value tree: everything the program would
    /// write for it, without rendering the JSON text.
    pub fn value(&mut self, v: &serde::Value) {
        match v {
            serde::Value::Null => self.bytes(b"n"),
            serde::Value::Bool(b) => self.bytes(if *b { b"t" } else { b"f" }),
            serde::Value::U64(x) => {
                self.bytes(b"u");
                self.u64(*x);
            }
            serde::Value::I64(x) => {
                self.bytes(b"i");
                self.u64(*x as u64);
            }
            serde::Value::F64(x) => {
                self.bytes(b"d");
                self.f64(*x);
            }
            serde::Value::Str(s) => {
                self.bytes(b"s");
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            serde::Value::Seq(items) => {
                self.bytes(b"[");
                self.u64(items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            serde::Value::Map(entries) => {
                self.bytes(b"{");
                self.u64(entries.len() as u64);
                for (k, item) in entries {
                    self.bytes(k.as_bytes());
                    self.value(item);
                }
            }
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stopwatch_counts_cpu_time_of_busy_threads() {
        let watch = Stopwatch::start();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t0 = Instant::now();
                    while t0.elapsed().as_secs_f64() < 0.05 {
                        std::hint::black_box(t0);
                    }
                });
            }
        });
        let (wall, cpu) = watch.read();
        assert!(wall >= 0.05, "{wall}");
        assert!(cpu >= 0.05 && cpu.is_finite(), "{cpu}");
    }

    #[test]
    fn recorder_sums_spans_and_counts() {
        let rec = Recorder::default();
        rec.add("x", 2.0);
        count(Some(&rec), "x", 3.0);
        count(None, "x", 100.0);
        assert_eq!(rec.get("x"), 5.0);
        assert_eq!(span(Some(&rec), "t", || 7), 7);
        assert!(rec.get("t") >= 0.0);
        assert_eq!(rec.get("absent"), 0.0);
    }

    #[test]
    fn digest_separates_values_by_type_and_bits() {
        let of = |v: serde::Value| {
            let mut d = Digest::default();
            d.value(&v);
            d.finish()
        };
        assert_ne!(of(serde::Value::U64(1)), of(serde::Value::I64(1)));
        assert_ne!(of(serde::Value::F64(0.0)), of(serde::Value::F64(-0.0)));
        assert_eq!(
            of(serde::Value::Str("a".into())),
            of(serde::Value::Str("a".into()))
        );
    }
}
