//! The `{schema, key, checksum, summary}` framing shared by persisted
//! cache envelopes and checkpoint-journal lines, and the v4 summary codec
//! inside it: the one writer ([`Encoded::of`]) and the one reader
//! ([`Framed::summary`]) of every persisted `RunSummary`.
//!
//! The summary layout: the summary's JSON with `trace.epochs` — nearly all
//! of its bytes — replaced by one base64 string holding a columnar,
//! bit-exact payload (see [`columns`]). The scalars, `markers`, `threads`
//! and `sampled` stay JSON, so a record is still one line of valid JSON:
//!
//! ```text
//! {"exec":…,"trace":{"base":…,"start":…,"total":…,"epochs":"<base64>","markers":[…],"threads":[…]}}
//! ```
//!
//! Base64 carries no `\n`, which the journal frames its lines on, and no
//! `"` or `\`, so the string needs no escaping. Reading it costs a base64
//! pass and a bounds-checked walk over raw f64 bits instead of float-text
//! parsing into a `serde::Value` tree, over about a fifth of the bytes.
//!
//! Writing: a summary is encoded once into an [`Encoded`] — its text and
//! the checksum of exactly those bytes — and [`frame`] wraps the header
//! around it. The same `Encoded` can frame a cache envelope and a journal
//! line under different keys, because the checksum covers only the
//! summary.
//!
//! Reading: [`open`] parses the canonical header strictly and checks the
//! checksum over the *stored* summary bytes, so verifying a record costs
//! one hash pass and no serialization; the caller then checks schema and
//! key and decodes the summary once. Any changed byte is rejected: a
//! changed header byte breaks the strict parse or the caller's schema and
//! key check, and a changed summary byte changes the checksum (FNV-1a
//! folds each byte in through a bijection of the running state, so two
//! inputs differing in one byte never collide). A reformatted or
//! field-reordered file is rejected too, even when it holds the same
//! values.
//!
//! The checksum stays [`fnv1a64`] rather than the repository's
//! `depburst_core::stablehash`: the 16-hex-digit FNV-1a field is part of
//! the on-disk format, so replacing it means a schema bump that retires
//! every existing cache and journal; it runs directly over the raw stored
//! bytes; and `stablehash` serves a different job, deriving 128-bit keys
//! from typed, tagged fields.

use std::fmt::{self, Write};

use dvfs_trace::ExecutionTrace;

use super::{SimKey, SCHEMA_VERSION};
use crate::run::RunSummary;
use crate::vfs::fnv1a64;

mod columns;

/// The key whose value the columnar string replaces, and the shell
/// summary's stand-in for that value. Every field before `trace.epochs`
/// is a number, so the first occurrence of either is the trace's.
const EMPTY_EPOCHS: &str = "\"epochs\":[]";
const EPOCHS_KEY: &str = "\"epochs\":";

/// A summary encoded once, with the checksum of those bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Encoded {
    /// The summary's v4 text (see the module docs).
    pub(crate) json: String,
    /// [`fnv1a64`] of `json`.
    pub(crate) checksum: u64,
}

impl Encoded {
    /// Encodes `summary` in the v4 layout and checksums the result.
    pub(crate) fn of(summary: &RunSummary) -> Result<Self, serde_json::Error> {
        let shell = serde_json::to_string(&without_epochs(summary))?;
        let (head, tail) = shell
            .split_once(EMPTY_EPOCHS)
            .expect("a summary's JSON carries trace.epochs");
        let mut bytes = Vec::with_capacity(shell.len());
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(EPOCHS_KEY.as_bytes());
        bytes.push(b'"');
        columns::encode(&summary.trace.epochs, &mut bytes);
        bytes.push(b'"');
        bytes.extend_from_slice(tail.as_bytes());
        let json = String::from_utf8(bytes).expect("JSON around ASCII base64 is UTF-8");
        let checksum = fnv1a64(json.as_bytes());
        Ok(Encoded { json, checksum })
    }
}

/// `summary` with an empty epoch list: everything that stays JSON.
fn without_epochs(summary: &RunSummary) -> RunSummary {
    let trace = &summary.trace;
    RunSummary {
        exec: summary.exec,
        gc_time: summary.gc_time,
        gc_count: summary.gc_count,
        allocated: summary.allocated,
        total_active: summary.total_active,
        trace: ExecutionTrace {
            base: trace.base,
            start: trace.start,
            total: trace.total,
            epochs: Vec::new(),
            markers: trace.markers.clone(),
            threads: trace.threads.clone(),
        },
        sampled: summary.sampled.clone(),
    }
}

/// Decodes summary text written by [`Encoded::of`].
fn decode(json: &str) -> Result<RunSummary, String> {
    let (head, value) = json.split_once(EPOCHS_KEY).ok_or("summary has no epochs")?;
    let (columns, tail) = value
        .strip_prefix('"')
        .and_then(|v| v.split_once('"'))
        .ok_or("epochs are not one closed string")?;
    let shell = [head, EMPTY_EPOCHS, tail].concat();
    let mut summary: RunSummary = serde_json::from_str(&shell).map_err(|e| e.to_string())?;
    summary.trace.epochs =
        columns::decode(columns.as_bytes()).map_err(|why| format!("columnar epochs: {why}"))?;
    Ok(summary)
}

/// The envelope text of `encoded` stored under `key`, in the one
/// canonical layout [`open`] accepts.
pub(crate) fn frame(key: SimKey, encoded: &Encoded) -> String {
    // Room for the header, the closing brace and a journal's newline.
    let mut out = String::with_capacity(encoded.json.len() + 112);
    write!(
        out,
        "{{\"schema\":{SCHEMA_VERSION},\"key\":\"{:032x}\",\"checksum\":\"{:016x}\",\"summary\":{}}}",
        key.0, encoded.checksum, encoded.json
    )
    .expect("writing to a String cannot fail");
    out
}

/// A record whose framing and checksum verified. Its schema and key are
/// still the caller's to check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Framed<'a> {
    /// Schema version the record was written under.
    pub(crate) schema: u32,
    /// The key the record was written under.
    pub(crate) key: SimKey,
    /// The stored checksum, equal to [`fnv1a64`] of `summary_json`.
    pub(crate) checksum: u64,
    /// The stored summary bytes, exactly as written.
    pub(crate) summary_json: &'a str,
}

impl Framed<'_> {
    /// The verified summary bytes, reusable to frame the same summary
    /// under another key without encoding it again.
    pub(crate) fn encoded(&self) -> Encoded {
        Encoded {
            json: self.summary_json.to_owned(),
            checksum: self.checksum,
        }
    }

    /// Decodes the verified summary bytes. An error means the bytes are
    /// not a summary [`Encoded::of`] wrote, though their checksum holds.
    pub(crate) fn summary(&self) -> Result<RunSummary, String> {
        decode(self.summary_json)
    }
}

/// Why [`open`] refused a record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reject {
    /// Not the canonical framing: truncated, reformatted, reordered, or a
    /// header field out of shape. Names the part that failed.
    Malformed(&'static str),
    /// The framing is intact, but the summary bytes no longer hash to the
    /// stored checksum.
    Checksum {
        /// The checksum in the header.
        stored: u64,
        /// The checksum of the summary bytes as read.
        computed: u64,
    },
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Malformed(what) => write!(f, "malformed envelope: {what}"),
            Reject::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
        }
    }
}

/// Parses the canonical framing
/// `{"schema":N,"key":"<32 hex>","checksum":"<16 hex>","summary":…}`
/// and verifies the checksum over the raw summary bytes.
pub(crate) fn open(bytes: &[u8]) -> Result<Framed<'_>, Reject> {
    let rest = expect(bytes, b"{\"schema\":", "expected `{\"schema\":`")?;
    let (schema, rest) = decimal_u32(rest)?;
    let rest = expect(rest, b",\"key\":\"", "expected `,\"key\":\"`")?;
    let (key, rest) = hex(rest, 32, "key is not 32 lowercase hex digits")?;
    let rest = expect(rest, b"\",\"checksum\":\"", "expected `\",\"checksum\":\"`")?;
    let (stored, rest) = hex(rest, 16, "checksum is not 16 lowercase hex digits")?;
    let stored = u64::try_from(stored).expect("16 hex digits fit a u64");
    let rest = expect(rest, b"\",\"summary\":", "expected `\",\"summary\":`")?;
    let summary = rest
        .strip_suffix(b"}")
        .ok_or(Reject::Malformed("envelope is not closed"))?;
    let computed = fnv1a64(summary);
    if computed != stored {
        return Err(Reject::Checksum { stored, computed });
    }
    let summary_json =
        std::str::from_utf8(summary).map_err(|_| Reject::Malformed("summary is not UTF-8"))?;
    Ok(Framed {
        schema,
        key: SimKey(key),
        checksum: stored,
        summary_json,
    })
}

fn expect<'a>(bytes: &'a [u8], literal: &[u8], what: &'static str) -> Result<&'a [u8], Reject> {
    bytes.strip_prefix(literal).ok_or(Reject::Malformed(what))
}

/// A `u32` in canonical decimal: no sign, no leading zero.
fn decimal_u32(bytes: &[u8]) -> Result<(u32, &[u8]), Reject> {
    const WHAT: &str = "schema is not a canonical u32";
    let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    let (digits, rest) = bytes.split_at(len);
    if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
        return Err(Reject::Malformed(WHAT));
    }
    let mut value = 0u32;
    for &d in digits {
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u32::from(d - b'0')))
            .ok_or(Reject::Malformed(WHAT))?;
    }
    Ok((value, rest))
}

/// Exactly `digits` lowercase hex digits (at most 32).
fn hex<'a>(bytes: &'a [u8], digits: usize, what: &'static str) -> Result<(u128, &'a [u8]), Reject> {
    if bytes.len() < digits {
        return Err(Reject::Malformed(what));
    }
    let (field, rest) = bytes.split_at(digits);
    let mut value = 0u128;
    for &b in field {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return Err(Reject::Malformed(what)),
        };
        value = value << 4 | u128::from(nibble);
    }
    Ok((value, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::SampledInfo;
    use dvfs_trace::{
        DvfsCounters, EpochEnd, EpochRecord, Freq, PhaseKind, PhaseMarker, ThreadId, ThreadInfo,
        ThreadRole, ThreadSlice, Time, TimeDelta,
    };
    use proptest::prelude::*;
    use proptest::TestRng;

    /// One draw from a palette of the f64 shapes a codec gets wrong:
    /// signed zeros, subnormals, extremes, and (unless `finite`)
    /// infinities and arbitrary bit patterns, NaN payloads included.
    fn any_f64(rng: &mut TestRng, finite: bool) -> f64 {
        let x = match rng.next_u64() % 10 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1 + rng.next_u64() % 0x000f_ffff_ffff_ffff),
            3 => f64::MAX,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::from_bits(rng.next_u64()),
            _ => rng.next_f64() * 1e-3,
        };
        if finite && !x.is_finite() {
            -rng.next_f64()
        } else {
            x
        }
    }

    fn any_u64(rng: &mut TestRng) -> u64 {
        match rng.next_u64() % 4 {
            0 => 0,
            1 => rng.next_u64() % 300,
            2 => u64::MAX,
            _ => rng.next_u64() >> (rng.next_u64() % 64),
        }
    }

    fn any_thread(rng: &mut TestRng) -> ThreadId {
        ThreadId(match rng.next_u64() % 3 {
            0 => 0,
            1 => (rng.next_u64() % 20) as u32,
            _ => u32::MAX - (rng.next_u64() % 2) as u32,
        })
    }

    fn secs(x: f64) -> TimeDelta {
        TimeDelta::from_secs(x)
    }

    fn any_counters(rng: &mut TestRng, finite: bool) -> DvfsCounters {
        if rng.next_u64().is_multiple_of(4) {
            return DvfsCounters::zero();
        }
        DvfsCounters {
            active: secs(any_f64(rng, finite)),
            crit: secs(any_f64(rng, finite)),
            leading_loads: secs(any_f64(rng, finite)),
            stall: secs(any_f64(rng, finite)),
            sq_full: secs(any_f64(rng, finite)),
            instructions: any_u64(rng),
            loads: any_u64(rng),
            stores: any_u64(rng),
            llc_misses: any_u64(rng),
        }
    }

    /// An arbitrary summary: empty and zero-thread epochs, durations that
    /// are and are not the gap to the next start, every end tag, exact
    /// and sampled. Only the epochs hold non-finite values: the JSON
    /// fields cannot carry them in either encoding.
    fn any_summary(seed: u64) -> RunSummary {
        let mut rng = TestRng::new(seed);
        let rng = &mut rng;
        let finite = rng.next_u64().is_multiple_of(2);
        let count = (rng.next_u64() % 9) as usize;
        let starts: Vec<f64> = (0..count).map(|_| any_f64(rng, finite)).collect();
        let epochs = (0..count)
            .map(|i| EpochRecord {
                start: Time::from_secs(starts[i]),
                duration: match (starts.get(i + 1), rng.next_u64() % 3) {
                    (Some(next), 0 | 1) => secs(next - starts[i]),
                    _ => secs(any_f64(rng, finite)),
                },
                threads: (0..rng.next_u64() % 6)
                    .map(|_| ThreadSlice {
                        thread: any_thread(rng),
                        counters: any_counters(rng, finite),
                    })
                    .collect(),
                end: match rng.next_u64() % 5 {
                    0 => EpochEnd::Stall(any_thread(rng)),
                    1 => EpochEnd::Wake(any_thread(rng)),
                    2 => EpochEnd::Exit(any_thread(rng)),
                    3 => EpochEnd::QuantumBoundary,
                    _ => EpochEnd::TraceEnd,
                },
            })
            .collect();
        let markers = (0..rng.next_u64() % 3)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    PhaseKind::GcStart
                } else {
                    PhaseKind::GcEnd
                };
                PhaseMarker::new(Time::from_secs(any_f64(rng, true)), kind)
            })
            .collect();
        let threads = (0..rng.next_u64() % 3)
            .map(|i| ThreadInfo {
                id: ThreadId(i as u32),
                role: ThreadRole::Application,
                // A name that spells the codec's own markers must stay inert.
                name: format!("app-{i} \"epochs\":\"x\n\\"),
                spawn: Time::from_secs(any_f64(rng, true)),
                exit: (i % 2 == 0).then(|| Time::from_secs(any_f64(rng, true))),
            })
            .collect();
        let sampled = rng.next_u64().is_multiple_of(2).then(|| SampledInfo {
            probe_fraction: any_f64(rng, true),
            measure_fraction: any_f64(rng, true),
            extended: rng.next_u64().is_multiple_of(2),
            exec_half_ci: secs(any_f64(rng, true)),
            gc_half_ci: secs(any_f64(rng, true)),
            recurrence: any_f64(rng, true),
            clusters: (rng.next_u64() % 9) as usize,
        });
        RunSummary {
            exec: secs(any_f64(rng, true)),
            gc_time: secs(any_f64(rng, true)),
            gc_count: any_u64(rng),
            allocated: any_u64(rng),
            total_active: secs(any_f64(rng, true)),
            trace: ExecutionTrace {
                base: Freq::from_ghz(1.0 + (rng.next_u64() % 25) as f64 * 0.125),
                start: Time::from_secs(any_f64(rng, true)),
                total: secs(any_f64(rng, true)),
                epochs,
                markers,
                threads,
            },
            sampled,
        }
    }

    /// Everything a summary holds, bit for bit: its JSON fields as text
    /// (shortest-roundtrip floats print each finite bit pattern uniquely)
    /// and every epoch value as raw bits.
    fn fingerprint(s: &RunSummary) -> (String, Vec<u64>) {
        let mut words = Vec::new();
        for e in &s.trace.epochs {
            words.extend([e.start.as_secs().to_bits(), e.duration.as_secs().to_bits()]);
            words.push(match e.end {
                EpochEnd::Stall(id) => u64::from(id.0) << 3,
                EpochEnd::Wake(id) => u64::from(id.0) << 3 | 1,
                EpochEnd::Exit(id) => u64::from(id.0) << 3 | 2,
                EpochEnd::QuantumBoundary => 3,
                EpochEnd::TraceEnd => 4,
            });
            words.push(e.threads.len() as u64);
            for t in &e.threads {
                let c = &t.counters;
                words.push(u64::from(t.thread.0));
                words.extend(
                    [c.active, c.crit, c.leading_loads, c.stall, c.sq_full]
                        .map(|v| v.as_secs().to_bits()),
                );
                words.extend([c.instructions, c.loads, c.stores, c.llc_misses]);
            }
        }
        let shell = serde_json::to_string(&without_epochs(s)).expect("serializes");
        (shell, words)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn columnar_round_trip_is_the_json_round_trip_bit_for_bit(seed in 0u64..u64::MAX) {
            let summary = any_summary(seed);
            let encoded = Encoded::of(&summary).expect("encodes");
            prop_assert!(!encoded.json.contains('\n'), "journal lines frame on newlines");
            let columnar = decode(&encoded.json).expect("decodes");
            prop_assert_eq!(fingerprint(&columnar), fingerprint(&summary));
            prop_assert_eq!(Encoded::of(&columnar).expect("re-encodes"), encoded);
            // The JSON oracle: where it can carry the trace at all (it
            // writes non-finite floats as `null`), it agrees bit for bit.
            let json = serde_json::to_string(&summary).expect("serializes");
            match serde_json::from_str::<RunSummary>(&json) {
                Ok(oracle) => prop_assert_eq!(fingerprint(&oracle), fingerprint(&columnar)),
                Err(_) => prop_assert!(
                    fingerprint(&summary).1.iter().any(|&w| !f64::from_bits(w).is_finite()),
                    "the JSON oracle only fails on non-finite epoch values"
                ),
            }
        }
    }

    #[test]
    fn simulated_summaries_shrink_to_under_a_third_of_their_json() {
        for name in ["lusearch", "xalan"] {
            let summary = crate::run::run_benchmark(
                dacapo_sim::benchmark(name).expect("exists"),
                crate::run::RunConfig::at_ghz(2.0).scaled(0.02),
            )
            .summarize();
            assert!(summary.trace.epochs.len() > 50, "{name}: a real trace");
            let v4 = Encoded::of(&summary).expect("encodes").json.len();
            let json = serde_json::to_string(&summary).expect("serializes").len();
            assert!(3 * v4 <= json, "{name}: v4 {v4} B vs JSON {json} B");
            assert_eq!(
                decode(&Encoded::of(&summary).expect("encodes").json),
                Ok(summary)
            );
        }
    }
}
