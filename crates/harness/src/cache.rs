//! Content-addressed memoization of simulation runs.
//!
//! A seeded simulation is a pure function of (workload spec, machine
//! config, fault config, scale, seed) — the frequency rides inside the
//! machine config. The cache keys a [`RunSummary`] by a stable 128-bit
//! digest of exactly those inputs ([`sim_key`]) so that experiments
//! sharing points (every figure re-runs the same baselines) simulate each
//! point once.
//!
//! Results are memoized in-process always; optionally they also persist
//! under `results/cache/v<N>/<hex-key>.json` as versioned JSON envelopes.
//! Persistence is **off by default** (hermetic tests) and enabled by
//! [`SimCache::persistent`]; the `depburst` binary turns it on with the
//! `DEPBURST_CACHE` setting (see [`crate::cli`]). A bump of
//! [`SCHEMA_VERSION`] — required whenever the simulator's observable
//! behaviour or the summary layout changes — retires every old entry by
//! moving to a fresh subdirectory; envelopes whose schema or key do not
//! match are ignored and recomputed.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use dacapo_sim::Benchmark;
use depburst_core::stablehash::StableHasher;
#[cfg(test)]
use serde::{Deserialize, Serialize};
use simx::{FaultConfig, MachineConfig};

use crate::run::RunSummary;
use crate::vfs::{write_atomic, RealVfs, Vfs};

pub(crate) mod envelope;

use envelope::Encoded;

/// Version of the cached-entry schema. Bump on any change to the
/// simulator's observable behaviour, the workload models, or the
/// [`RunSummary`] layout — stale entries are then simply never looked at.
/// v2: DRAM round sampling (`dram_round_sample_cap`), the multiplicative
/// random address map, and digest-composed keys.
/// v3: FNV-1a integrity checksum on every envelope and journal record
/// (backward compatible by construction: old entries live under `v2/`
/// and are simply never read).
/// v4: `trace.epochs` stored as one base64 columnar, bit-exact payload
/// inside the summary JSON (see [`envelope`]); v3 journals resumed at v4
/// are skipped line by line and counted, never served.
pub const SCHEMA_VERSION: u32 = 4;

/// The content digest keying one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey(pub u128);

impl SimKey {
    /// The key as the fixed-width hex string used for file names.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Derives the key this run records under inside `namespace`.
    ///
    /// Fleet sweeps run the *same* characterization point on many shards;
    /// the memo cache must share those (one simulation fleet-wide), but
    /// the checkpoint journal must not — replaying shard A's point as
    /// shard B's would corrupt a resumed run if the shards ever diverge.
    /// Journal entries for namespaced executions therefore key under
    /// `key.in_namespace("shard3")` while the cache keeps the raw key.
    #[must_use]
    pub fn in_namespace(&self, namespace: &str) -> SimKey {
        let mut h = StableHasher::new();
        h.write_tag("depburst::sim_key::namespace");
        h.write_u64((self.0 >> 64) as u64);
        h.write_u64(self.0 as u64);
        h.write_str(namespace);
        SimKey(h.finish())
    }

    /// Derives the key a *sampled* execution of this point caches and
    /// journals under (see `simx::sampling`): the exact key plus the
    /// digest of the sampling configuration. A sampled result is an
    /// extrapolation, not a simulation — it must never collide with the
    /// exact entry for the same point, and two different region
    /// placements must not collide with each other. The probe/measure
    /// prefix runs themselves are plain exact runs at reduced scales and
    /// key normally.
    #[must_use]
    pub fn with_sampling(&self, sampling: u128) -> SimKey {
        let mut h = StableHasher::new();
        h.write_tag("depburst::sim_key::sampled");
        h.write_u64((self.0 >> 64) as u64);
        h.write_u64(self.0 as u64);
        h.write_u64((sampling >> 64) as u64);
        h.write_u64(sampling as u64);
        SimKey(h.finish())
    }
}

/// Stable digest of a sampled-tier configuration (the second input of
/// [`SimKey::with_sampling`]).
#[must_use]
pub fn sampling_digest(cfg: &simx::SamplingConfig) -> u128 {
    let mut h = StableHasher::new();
    cfg.hash_into(&mut h);
    h.finish()
}

/// Computes the cache key of one run: every input the simulation result
/// depends on. `fault` is the injector configuration installed on the
/// machine, if any (`None` hashes like an inert config — installing an
/// inert injector is bit-identical to not installing one).
///
/// Composed from per-input digests so sweep executors can pre-digest the
/// expensive parts (the benchmark spec and the machine config, shared by
/// hundreds of points) once and derive per-point keys with
/// [`sim_key_from_digests`] — three words hashed per point instead of a
/// full config walk.
#[must_use]
pub fn sim_key(
    bench: &Benchmark,
    machine: &MachineConfig,
    fault: Option<&FaultConfig>,
    scale: f64,
    seed: u64,
) -> SimKey {
    sim_key_from_digests(bench_digest(bench), machine.digest(), fault_digest(fault), scale, seed)
}

/// Stable digest of a benchmark's workload spec (the machine-independent
/// part of a [`sim_key`]).
#[must_use]
pub fn bench_digest(bench: &Benchmark) -> u128 {
    let mut h = StableHasher::new();
    bench.hash_into(&mut h);
    h.finish()
}

/// Stable digest of a fault-injector configuration; `None` digests like an
/// inert config, so an uninstalled injector keys identically to an
/// installed-but-inert one.
#[must_use]
pub fn fault_digest(fault: Option<&FaultConfig>) -> u128 {
    let mut h = StableHasher::new();
    fault
        .copied()
        .unwrap_or_else(|| FaultConfig::none(0))
        .hash_into(&mut h);
    h.finish()
}

/// Derives a run's key from pre-computed input digests (see [`sim_key`];
/// the machine digest is [`MachineConfig::digest`]).
#[must_use]
pub fn sim_key_from_digests(
    bench: u128,
    machine: u128,
    fault: u128,
    scale: f64,
    seed: u64,
) -> SimKey {
    let mut h = StableHasher::new();
    h.write_tag("depburst::sim_key");
    h.write_u32(SCHEMA_VERSION);
    for digest in [bench, machine, fault] {
        h.write_u64((digest >> 64) as u64);
        h.write_u64(digest as u64);
    }
    h.write_f64(scale);
    h.write_u64(seed);
    SimKey(h.finish())
}

/// The derived parse of an on-disk envelope: the verifier before
/// [`envelope::open`], kept as the test oracle it is compared against.
/// The summary stays an untyped JSON value: its epochs are a columnar
/// string only [`envelope`] decodes.
#[cfg(test)]
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEnvelope {
    schema: u32,
    key: String,
    checksum: String,
    summary: serde::Value,
}

/// Hit/miss counters of a cache (for CI logs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Results served from the in-process map.
    pub memory_hits: u64,
    /// Results served from a persisted JSON envelope.
    pub disk_hits: u64,
    /// Results that had to be simulated.
    pub misses: u64,
    /// Corrupt or mismatched envelopes moved to the quarantine directory.
    pub quarantined: u64,
    /// Persist attempts that failed (serialization or I/O); the run keeps
    /// going in memory but loses that entry's warm-start.
    pub persist_failures: u64,
}

/// A content-addressed memo of simulation results: always in-process,
/// optionally persistent. Shared by reference across pool workers.
#[derive(Debug)]
pub struct SimCache {
    mem: Mutex<HashMap<u128, Arc<RunSummary>>>,
    /// Keys currently being computed, so concurrent workers hitting the
    /// same key wait for the one computation instead of duplicating it.
    in_flight: Mutex<HashSet<u128>>,
    flight_done: Condvar,
    dir: Option<PathBuf>,
    /// The storage layer all persistence I/O routes through. [`RealVfs`]
    /// by default; the storage-fault harness swaps in a `FaultyVfs`.
    vfs: Arc<dyn Vfs>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    persist_failures: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl SimCache {
    /// A purely in-process cache (no filesystem traffic).
    #[must_use]
    pub fn in_memory() -> Self {
        SimCache {
            mem: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashSet::new()),
            flight_done: Condvar::new(),
            dir: None,
            vfs: Arc::new(RealVfs),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
        }
    }

    /// A cache that additionally persists under `dir` (the schema
    /// subdirectory is appended automatically).
    #[must_use]
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        let mut cache = Self::in_memory();
        cache.dir = Some(dir.into().join(format!("v{SCHEMA_VERSION}")));
        cache
    }

    /// Routes this cache's persistence I/O through `vfs` (builder
    /// style). The default is [`RealVfs`]; the torture harness installs
    /// a `FaultyVfs` here.
    #[must_use]
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// The hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
        }
    }

    /// Returns the summary for `key`, computing (and memoizing) it with
    /// `compute` on a miss. Concurrent callers of the same key are
    /// deduplicated: exactly one computes while the rest block until the
    /// result lands in the memo, so the hit/miss statistics — like the
    /// results themselves — do not depend on worker scheduling.
    pub fn get_or_compute<F>(
        &self,
        key: SimKey,
        compute: F,
    ) -> depburst_core::Result<Arc<RunSummary>>
    where
        F: FnOnce() -> depburst_core::Result<RunSummary>,
    {
        self.fetch(key, compute).map(|(summary, _)| summary)
    }

    /// [`get_or_compute`](Self::get_or_compute), also handing back the
    /// summary's encoding when this call already holds one: the verified
    /// bytes of a disk hit, or the encoding a persisted miss stored.
    /// `None` on a memory hit or an in-memory cache. The checkpoint
    /// journal frames that encoding instead of serializing the summary
    /// again.
    pub(crate) fn fetch<F>(
        &self,
        key: SimKey,
        compute: F,
    ) -> depburst_core::Result<(Arc<RunSummary>, Option<Encoded>)>
    where
        F: FnOnce() -> depburst_core::Result<RunSummary>,
    {
        loop {
            if let Some(hit) = self.mem.lock().expect("cache lock").get(&key.0) {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(hit), None));
            }
            let mut flying = self.in_flight.lock().expect("flight lock");
            if flying.insert(key.0) {
                break; // this caller owns the computation
            }
            // Wait out the owner, then re-check the memo. A spurious
            // wakeup or an owner that errored just loops again.
            drop(self.flight_done.wait(flying).expect("flight lock"));
        }
        let guard = FlightGuard { cache: self, key };
        let outcome = self.load_or_compute(key, compute);
        if let Ok((summary, _)) = &outcome {
            self.mem
                .lock()
                .expect("cache lock")
                .insert(key.0, Arc::clone(summary));
        }
        drop(guard); // release waiters only after the memo is populated
        outcome
    }

    fn load_or_compute<F>(
        &self,
        key: SimKey,
        compute: F,
    ) -> depburst_core::Result<(Arc<RunSummary>, Option<Encoded>)>
    where
        F: FnOnce() -> depburst_core::Result<RunSummary>,
    {
        if let Some((summary, encoded)) = self.load_from_disk(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::new(summary), Some(encoded)));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let summary = Arc::new(compute()?);
        let encoded = self.store_to_disk(key, &summary);
        Ok((summary, encoded))
    }

    fn entry_path(&self, key: SimKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.json", key.hex())))
    }

    fn load_from_disk(&self, key: SimKey) -> Option<(RunSummary, Encoded)> {
        let path = self.entry_path(key)?;
        // An absent entry is the ordinary cold-cache case, not corruption.
        let bytes = self.vfs.read(&path).ok()?;
        match decode_entry(&bytes, key) {
            Ok(loaded) => Some(loaded),
            Err(why) => {
                // Corrupt bytes, a stale schema or a renamed file:
                // quarantine rather than serve it, or leave a
                // permanently-unusable entry shadowing the slot.
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Moves a corrupt or mismatched envelope aside — to
    /// `<cache-root>/quarantine/` — so the slot can be recomputed and the
    /// bad bytes stay available for diagnosis, and says so once on stderr.
    /// Silently degrading to in-memory (the old behaviour) hid real
    /// corruption *and* threw persistence away for the whole process.
    fn quarantine(&self, path: &Path, why: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let Some(schema_dir) = self.dir.as_deref() else {
            return;
        };
        let qdir = schema_dir.parent().unwrap_or(schema_dir).join("quarantine");
        let dest = qdir.join(path.file_name().unwrap_or_default());
        let moved = self
            .vfs
            .create_dir_all(&qdir)
            .and_then(|()| self.vfs.rename(path, &dest));
        match moved {
            Ok(()) => eprintln!(
                "warning: quarantined corrupt cache entry {} -> {}: {why}",
                path.display(),
                dest.display()
            ),
            Err(io_err) => eprintln!(
                "warning: corrupt cache entry {} ({why}) could not be quarantined: {io_err}",
                path.display()
            ),
        }
    }

    /// Best-effort persistence: a full results directory or read-only
    /// checkout must never fail the experiment itself — but dropped
    /// persist attempts are counted (and the CLI warns) instead of being
    /// silently discarded.
    ///
    /// Returns the encoding it stored (even if the write then failed), so
    /// the caller can journal the same bytes.
    fn store_to_disk(&self, key: SimKey, summary: &RunSummary) -> Option<Encoded> {
        let path = self.entry_path(key)?;
        let Ok(encoded) = Encoded::of(summary) else {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if let Some(parent) = path.parent() {
            let _ = self.vfs.create_dir_all(parent); // a failure surfaces in the write below
        }
        let json = envelope::frame(key, &encoded);
        if write_atomic(self.vfs.as_ref(), &path, json.as_bytes()).is_err() {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
        }
        Some(encoded)
    }

    /// Quarantines `key`'s cache envelope (and drops the in-process
    /// entry): the slot's persisted bytes move to
    /// `<cache-root>/quarantine/` exactly like a corrupt envelope's
    /// would. Used when an invariant violation is discovered mid-sweep —
    /// the entry's inputs produced self-inconsistent physics, so neither
    /// this run nor a later resume should trust the envelope. A no-op
    /// beyond the counter when the cache is in-memory or the slot was
    /// never persisted.
    pub fn quarantine_key(&self, key: SimKey, why: &str) {
        self.mem.lock().expect("cache lock").remove(&key.0);
        if let Some(path) = self.entry_path(key) {
            if self.vfs.exists(&path) {
                self.quarantine(&path, why);
                return;
            }
        }
        // Still count the event so the failure report's `quarantined`
        // field reflects every envelope withdrawn from service.
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Seeds the in-process memo with a summary replayed from a
    /// checkpoint journal (no disk-cache traffic, no stats impact beyond
    /// later memory hits). First write wins, matching `get_or_compute`.
    pub fn seed(&self, key: SimKey, summary: &Arc<RunSummary>) {
        self.mem
            .lock()
            .expect("cache lock")
            .entry(key.0)
            .or_insert_with(|| Arc::clone(summary));
    }

    /// Looks up `key` in the in-process memo only (no disk traffic, no
    /// stats impact). Used by the journal-replay fast path.
    #[must_use]
    pub fn peek(&self, key: SimKey) -> Option<Arc<RunSummary>> {
        self.mem.lock().expect("cache lock").get(&key.0).cloned()
    }
}

/// Verifies the envelope `bytes` read from `key`'s slot and decodes its
/// summary: the framing and checksum ([`envelope::open`]), then the schema
/// and key, then one decode. The error says why the entry must be
/// quarantined.
fn decode_entry(bytes: &[u8], key: SimKey) -> Result<(RunSummary, Encoded), String> {
    let framed = envelope::open(bytes).map_err(|reject| reject.to_string())?;
    if framed.schema != SCHEMA_VERSION || framed.key != key {
        return Err(format!(
            "envelope mismatch (schema {}, key {})",
            framed.schema,
            framed.key.hex()
        ));
    }
    Ok((framed.summary()?, framed.encoded()))
}

/// Removes a key from the in-flight set on scope exit — including an
/// unwinding `compute` — so waiters blocked on the same key never hang.
struct FlightGuard<'a> {
    cache: &'a SimCache,
    key: SimKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache
            .in_flight
            .lock()
            .expect("flight lock")
            .remove(&self.key.0);
        self.cache.flight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo_sim::benchmark;

    fn key_for(seed: u64) -> SimKey {
        sim_key(
            benchmark("lusearch").expect("exists"),
            &MachineConfig::haswell_quad(),
            None,
            0.05,
            seed,
        )
    }

    fn dummy_summary(marker: u64) -> RunSummary {
        RunSummary {
            exec: dvfs_trace::TimeDelta::from_millis(marker as f64),
            gc_time: dvfs_trace::TimeDelta::ZERO,
            gc_count: marker,
            allocated: 0,
            total_active: dvfs_trace::TimeDelta::ZERO,
            trace: dvfs_trace::ExecutionTrace {
                base: dvfs_trace::Freq::from_ghz(1.0),
                start: dvfs_trace::Time::ZERO,
                total: dvfs_trace::TimeDelta::ZERO,
                epochs: vec![],
                markers: vec![],
                threads: vec![],
            },
            sampled: None,
        }
    }

    #[test]
    fn memoizes_in_process() {
        let cache = SimCache::in_memory();
        let mut computes = 0;
        for _ in 0..3 {
            let s = cache
                .get_or_compute(key_for(1), || {
                    computes += 1;
                    Ok(dummy_summary(42))
                })
                .expect("ok");
            assert_eq!(s.gc_count, 42);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SimCache::in_memory();
        let r = cache.get_or_compute(key_for(2), || {
            Err(depburst_core::DepburstError::Machine {
                detail: "boom".into(),
            })
        });
        assert!(r.is_err());
        let s = cache
            .get_or_compute(key_for(2), || Ok(dummy_summary(7)))
            .expect("retry succeeds");
        assert_eq!(s.gc_count, 7);
    }

    #[test]
    fn persists_and_reloads_across_instances() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = SimCache::persistent(&dir);
        writer
            .get_or_compute(key_for(3), || Ok(dummy_summary(9)))
            .expect("ok");
        // A second instance (fresh process, same directory) hits disk.
        let reader = SimCache::persistent(&dir);
        let s = reader
            .get_or_compute(key_for(3), || panic!("must not recompute"))
            .expect("ok");
        assert_eq!(s.gc_count, 9);
        assert_eq!(reader.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_entries_recompute() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::persistent(&dir);
        let path = cache.entry_path(key_for(4)).expect("persistent");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, b"{ not json").expect("write");
        let s = cache
            .get_or_compute(key_for(4), || Ok(dummy_summary(11)))
            .expect("ok");
        assert_eq!(s.gc_count, 11);
        assert_eq!(cache.stats().misses, 1);
        // The corrupt bytes were moved aside, not deleted or left in place.
        assert_eq!(cache.stats().quarantined, 1);
        let quarantined = dir
            .join("quarantine")
            .join(path.file_name().expect("file name"));
        assert_eq!(
            std::fs::read(&quarantined).expect("quarantined file exists"),
            b"{ not json"
        );
        // The recompute re-persisted a good envelope in the original slot.
        let fresh = SimCache::persistent(&dir);
        let replayed = fresh
            .get_or_compute(key_for(4), || panic!("must hit disk"))
            .expect("ok");
        assert_eq!(replayed.gc_count, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real simulated point: a multi-KB summary with every field kind.
    fn real_summary() -> RunSummary {
        crate::run::run_benchmark(
            benchmark("lusearch").expect("exists"),
            crate::run::RunConfig::at_ghz(2.0).scaled(0.02),
        )
        .summarize()
    }

    /// A parsed summary with its `trace.epochs` swapped for `[]`, and the
    /// value that was there.
    fn take_epochs(summary: &serde::Value) -> (serde::Value, serde::Value) {
        let mut shell = summary.clone();
        let serde::Value::Map(fields) = &mut shell else {
            panic!("summary is a map");
        };
        let Some((_, serde::Value::Map(trace))) = fields.iter_mut().find(|(k, _)| k == "trace")
        else {
            panic!("summary has a trace map");
        };
        let (_, epochs) = trace
            .iter_mut()
            .find(|(k, _)| k == "epochs")
            .expect("trace has epochs");
        let taken = std::mem::replace(epochs, serde::Value::Seq(Vec::new()));
        (shell, taken)
    }

    #[test]
    fn composed_envelope_matches_the_derived_serializer() {
        // `frame` composes the envelope text around the once-encoded
        // summary and `open` verifies it without the derived Deserialize.
        // Both must agree byte for byte with the derived serde oracle, the
        // summary must be its JSON oracle with only the epochs array
        // replaced by a newline-free string, and re-encoding the summary
        // the codec hands back must reproduce the stored bytes: the
        // canonical round-trip the checksum relies on.
        for summary in [dummy_summary(23), real_summary()] {
            let encoded = Encoded::of(&summary).expect("serialize");
            let framed = envelope::frame(key_for(1), &encoded);
            assert!(!framed.contains('\n'), "journal lines frame on newlines");
            let oracle: CacheEnvelope = serde_json::from_str(&framed).expect("parses");
            assert_eq!(oracle.schema, SCHEMA_VERSION);
            assert_eq!(oracle.key, key_for(1).hex());
            assert_eq!(oracle.checksum, format!("{:016x}", encoded.checksum));
            assert_eq!(
                serde_json::to_string(&oracle).expect("re-serialize"),
                framed,
                "manual composition is byte-identical to the derived serializer"
            );
            let json_oracle: serde::Value =
                serde_json::from_str(&serde_json::to_string(&summary).expect("JSON oracle"))
                    .expect("parses");
            let (shell, columns) = take_epochs(&oracle.summary);
            assert_eq!(
                shell,
                take_epochs(&json_oracle).0,
                "all but the epochs stays JSON"
            );
            assert!(
                matches!(columns, serde::Value::Str(_)),
                "epochs are one string"
            );

            let (decoded, reused) = decode_entry(framed.as_bytes(), key_for(1)).expect("verifies");
            assert_eq!(decoded, summary, "the codec hands back the summary");
            assert_eq!(
                reused, encoded,
                "the verified bytes are the stored encoding"
            );
            assert_eq!(
                Encoded::of(&decoded).expect("re-encode"),
                encoded,
                "re-encoding the decoded summary reproduces the exact bytes"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_of_an_envelope_is_rejected() {
        let framed = envelope::frame(
            key_for(2),
            &Encoded::of(&dummy_summary(19)).expect("encode"),
        )
        .into_bytes();
        assert!(decode_entry(&framed, key_for(2)).is_ok());
        for bit in 0..framed.len() * 8 {
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_entry(&bad, key_for(2)).is_err(),
                "flipping bit {bit} (byte {:?}) went undetected",
                framed[bit / 8] as char
            );
        }
    }

    #[test]
    fn reformatted_envelopes_are_quarantined_not_served() {
        // A pretty-printed or field-reordered envelope carries the same
        // values and the oracle parse accepts it, but it is not the stored
        // bytes the checksum framing promises: it is quarantined and
        // recomputed. Nothing in the repository writes such files.
        let summary = dummy_summary(29);
        let encoded = Encoded::of(&summary).expect("encode");
        let oracle: CacheEnvelope =
            serde_json::from_str(&envelope::frame(key_for(9), &encoded)).expect("parses");
        let pretty = serde_json::to_string_pretty(&oracle).expect("pretty");
        let reordered = format!(
            "{{\"summary\":{},\"schema\":{SCHEMA_VERSION},\"key\":\"{}\",\"checksum\":\"{}\"}}",
            encoded.json, oracle.key, oracle.checksum
        );
        for (name, text) in [("pretty", pretty), ("reordered", reordered)] {
            assert_eq!(
                serde_json::from_str::<CacheEnvelope>(&text)
                    .expect("oracle accepts")
                    .summary,
                oracle.summary,
                "{name}: same values"
            );
            let dir =
                std::env::temp_dir().join(format!("depburst-cache-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = SimCache::persistent(&dir);
            let path = cache.entry_path(key_for(9)).expect("persistent");
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(&path, &text).expect("plant");
            let served = cache
                .get_or_compute(key_for(9), || Ok(dummy_summary(31)))
                .expect("recomputes");
            assert_eq!(served.gc_count, 31, "{name}: served from recompute");
            let stats = cache.stats();
            assert_eq!(
                (stats.disk_hits, stats.quarantined, stats.misses),
                (0, 1, 1),
                "{name}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fetch_hands_back_the_encoding_it_holds() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-fetch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let expected = Encoded::of(&dummy_summary(37)).expect("encode");
        // A persisted miss hands back the encoding it stored ...
        let writer = SimCache::persistent(&dir);
        let (_, stored) = writer
            .fetch(key_for(10), || Ok(dummy_summary(37)))
            .expect("ok");
        assert_eq!(stored.as_ref(), Some(&expected));
        // ... a memory hit holds none ...
        let (_, memo) = writer
            .fetch(key_for(10), || panic!("memoized"))
            .expect("ok");
        assert_eq!(memo, None);
        // ... a disk hit hands back the verified bytes ...
        let reader = SimCache::persistent(&dir);
        let (_, loaded) = reader.fetch(key_for(10), || panic!("on disk")).expect("ok");
        assert_eq!(loaded.as_ref(), Some(&expected));
        // ... and an in-memory cache never encodes.
        let mem = SimCache::in_memory();
        let (_, none) = mem
            .fetch(key_for(10), || Ok(dummy_summary(37)))
            .expect("ok");
        assert_eq!(none, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_framing_detects_payload_bit_flips() {
        let dir =
            std::env::temp_dir().join(format!("depburst-cache-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = SimCache::persistent(&dir);
        writer
            .get_or_compute(key_for(12), || Ok(dummy_summary(31)))
            .expect("ok");
        let path = writer.entry_path(key_for(12)).expect("persistent");
        let good = std::fs::read(&path).expect("envelope");
        // Flip one bit inside the payload (past the header fields) such
        // that the envelope still parses: pick a digit of a number after
        // the `"summary":` marker, so the checksum branch (not the
        // schema/key mismatch branch) is the one that must catch it.
        let text = String::from_utf8(good.clone()).expect("utf8");
        let payload_at = text.find("\"summary\":").expect("summary field");
        let pos = payload_at
            + good[payload_at..]
                .iter()
                .position(|b| b.is_ascii_digit())
                .expect("numbers in payload");
        let mut bad = good.clone();
        bad[pos] ^= 0x01; // '0' <-> '1', '2' <-> '3', ... stays a digit
        assert_ne!(bad, good);
        std::fs::write(&path, &bad).expect("corrupt");
        let reader = SimCache::persistent(&dir);
        let served = reader
            .get_or_compute(key_for(12), || Ok(dummy_summary(31)))
            .expect("recomputes");
        assert_eq!(served.gc_count, 31, "served from recompute, not the flipped bytes");
        let stats = reader.stats();
        assert_eq!(stats.disk_hits, 0, "the corrupt envelope must not count as a hit");
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(
            std::fs::read(dir.join("quarantine").join(path.file_name().expect("name")))
                .expect("quarantined"),
            bad
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_persist_attempts_are_counted_not_silent() {
        // Make the schema directory path unusable by planting a regular
        // file where the directory should go: every persist must fail.
        let root =
            std::env::temp_dir().join(format!("depburst-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join(format!("v{SCHEMA_VERSION}")), b"in the way").expect("plant");
        let cache = SimCache::persistent(&root);
        let s = cache
            .get_or_compute(key_for(6), || Ok(dummy_summary(21)))
            .expect("the experiment itself must not fail");
        assert_eq!(s.gc_count, 21);
        assert_eq!(cache.stats().persist_failures, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seed_and_peek_bypass_disk_and_stats() {
        let cache = SimCache::in_memory();
        assert!(cache.peek(key_for(8)).is_none());
        let summary = Arc::new(dummy_summary(5));
        cache.seed(key_for(8), &summary);
        assert_eq!(cache.peek(key_for(8)).expect("seeded").gc_count, 5);
        // First write wins: re-seeding does not replace the entry.
        cache.seed(key_for(8), &Arc::new(dummy_summary(99)));
        assert_eq!(cache.peek(key_for(8)).expect("seeded").gc_count, 5);
        assert_eq!(cache.stats(), CacheStats::default(), "no stats impact");
        // get_or_compute then serves the seeded entry as a memory hit.
        let served = cache
            .get_or_compute(key_for(8), || panic!("must not recompute"))
            .expect("ok");
        assert_eq!(served.gc_count, 5);
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn quarantine_key_withdraws_the_envelope_and_memo_entry() {
        let dir = std::env::temp_dir().join(format!("depburst-cache-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SimCache::persistent(&dir);
        cache
            .get_or_compute(key_for(7), || Ok(dummy_summary(17)))
            .expect("ok");
        let path = cache.entry_path(key_for(7)).expect("persistent");
        assert!(path.exists());
        cache.quarantine_key(key_for(7), "invariant violation [test]");
        assert!(!path.exists(), "envelope moved out of the slot");
        assert!(dir
            .join("quarantine")
            .join(path.file_name().expect("file name"))
            .exists());
        assert!(cache.peek(key_for(7)).is_none(), "memo entry dropped");
        assert_eq!(cache.stats().quarantined, 1);
        // In-memory caches only count the event.
        let mem = SimCache::in_memory();
        mem.quarantine_key(key_for(7), "whatever");
        assert_eq!(mem.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let cache = SimCache::in_memory();
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let s = cache
                        .get_or_compute(key_for(5), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: without in-flight
                            // dedup every thread would land in here.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(dummy_summary(13))
                        })
                        .expect("ok");
                    assert_eq!(s.gc_count, 13);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "one computation total");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 3);
    }

    #[test]
    fn pre_digested_keys_match_the_direct_form() {
        let mc = MachineConfig::haswell_quad();
        let lu = benchmark("lusearch").expect("exists");
        let bd = bench_digest(lu);
        let md = mc.digest();
        let fd = fault_digest(None);
        assert_eq!(
            sim_key(lu, &mc, None, 0.25, 7),
            sim_key_from_digests(bd, md, fd, 0.25, 7)
        );
        // The inert-injector equivalence holds through the digest form.
        let inert = FaultConfig::none(0);
        assert_eq!(fault_digest(Some(&inert)), fd);
    }

    #[test]
    fn sampled_keys_never_collide_with_exact_or_each_other() {
        let base = key_for(1);
        let cfg = simx::SamplingConfig::default();
        let sampled = base.with_sampling(sampling_digest(&cfg));
        assert_ne!(sampled, base, "sampled result must not shadow the exact one");
        let wider = simx::SamplingConfig {
            measure_fraction: 0.5,
            ..cfg
        };
        assert_ne!(
            base.with_sampling(sampling_digest(&wider)),
            sampled,
            "different region placements are different results"
        );
        assert_eq!(base.with_sampling(sampling_digest(&cfg)), sampled);
        assert_ne!(base.in_namespace("x"), sampled);
    }

    #[test]
    fn keys_separate_benchmarks_and_seeds() {
        let mc = MachineConfig::haswell_quad();
        let lu = benchmark("lusearch").expect("exists");
        let sf = benchmark("sunflow").expect("exists");
        assert_ne!(sim_key(lu, &mc, None, 0.05, 1), sim_key(sf, &mc, None, 0.05, 1));
        assert_ne!(key_for(1), key_for(2));
        assert_eq!(key_for(1), key_for(1));
    }
}
