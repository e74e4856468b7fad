//! Benchmark-owned wrappers that time a layer from outside: a [`Vfs`]
//! that times every storage call before handing it to [`RealVfs`], and a
//! [`DvfsPredictor`] that times every prediction the energy manager asks
//! for. Both forward every call unchanged, so a wrapped run's outputs
//! equal an unwrapped one's (the driver checks the digests).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use depburst::DvfsPredictor;
use dvfs_trace::{ExecutionTrace, Freq, TimeDelta};
use harness::{RealVfs, Vfs};

use crate::record::Recorder;

const MB: f64 = 1024.0 * 1024.0;

/// [`RealVfs`] with every call timed into a [`Recorder`].
#[derive(Debug)]
pub struct TimedVfs {
    rec: Arc<Recorder>,
}

impl TimedVfs {
    /// A timing passthrough recording into `rec`.
    #[must_use]
    pub fn new(rec: Arc<Recorder>) -> Self {
        TimedVfs { rec }
    }
}

impl Vfs for TimedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.rec.span("vfs.read_s", || RealVfs.read(path));
        self.rec.add("vfs.reads", 1.0);
        if let Ok(bytes) = &out {
            self.rec.add("vfs.read_mb", bytes.len() as f64 / MB);
        }
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.rec.add("vfs.writes", 1.0);
        self.rec.span("vfs.write_s", || RealVfs.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.rec.add("vfs.appends", 1.0);
        self.rec.add("vfs.append_mb", bytes.len() as f64 / MB);
        self.rec
            .span("vfs.append_s", || RealVfs.append(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.rec.add("vfs.fsyncs", 1.0);
        self.rec.span("vfs.fsync_s", || RealVfs.fsync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.rec.span("vfs.other_s", || RealVfs.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.rec.span("vfs.other_s", || RealVfs.remove(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.rec
            .span("vfs.other_s", || RealVfs.create_dir_all(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.rec.span("vfs.other_s", || RealVfs.list(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.rec.span("vfs.other_s", || RealVfs.exists(path))
    }
}

/// A predictor timed into `manager.predict_s` / `manager.predict_calls`.
/// Each trait method is timed at this, the outermost, level: the inner
/// predictor's own default methods call its `predict`, not this one's, so
/// no call is counted twice.
#[derive(Debug)]
pub struct TimedPredictor<P> {
    inner: P,
    rec: Arc<Recorder>,
}

impl<P: DvfsPredictor> TimedPredictor<P> {
    /// Wraps `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: P, rec: Arc<Recorder>) -> Self {
        TimedPredictor { inner, rec }
    }

    fn timed<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        self.rec.add("manager.predict_calls", 1.0);
        self.rec.span("manager.predict_s", || f(&self.inner))
    }
}

impl<P: DvfsPredictor> DvfsPredictor for TimedPredictor<P> {
    fn predict(&self, trace: &ExecutionTrace, target: Freq) -> TimeDelta {
        self.timed(|p| p.predict(trace, target))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn predict_slowdown(&self, trace: &ExecutionTrace, target: Freq, reference: Freq) -> f64 {
        self.timed(|p| p.predict_slowdown(trace, target, reference))
    }

    fn predict_slowdown_clamped(
        &self,
        trace: &ExecutionTrace,
        target: Freq,
        reference: Freq,
        clamp: f64,
    ) -> f64 {
        self.timed(|p| p.predict_slowdown_clamped(trace, target, reference, clamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_vfs_counts_and_forwards() {
        let dir = crate::tempdir::TempDir::new("vfs-test").expect("temp dir");
        let rec = Arc::new(Recorder::default());
        let vfs = TimedVfs::new(Arc::clone(&rec));
        let file = dir.path().join("f");
        vfs.write(&file, b"ab").expect("write");
        vfs.append(&file, b"cd").expect("append");
        vfs.fsync(&file).expect("fsync");
        assert_eq!(vfs.read(&file).expect("read"), b"abcd");
        assert!(vfs.exists(&file));
        assert_eq!(rec.get("vfs.writes"), 1.0);
        assert_eq!(rec.get("vfs.appends"), 1.0);
        assert_eq!(rec.get("vfs.fsyncs"), 1.0);
        assert_eq!(rec.get("vfs.reads"), 1.0);
        assert!((rec.get("vfs.read_mb") - 4.0 / MB).abs() < 1e-15);
    }
}
