//! Scratch directories for the replay workload's cache and journal. They
//! live under `.perfbench-tmp/` in the working directory (never under
//! `results/`) and are removed when dropped, also on an error path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parent of every scratch directory, relative to the working directory.
pub const ROOT: &str = ".perfbench-tmp";

/// A fresh directory, removed with its contents on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.perfbench-tmp/<label>-<pid>-<n>`, fresh for this process.
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(ROOT);
    }
}
