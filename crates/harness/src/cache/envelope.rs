//! The `{schema, key, checksum, summary}` framing shared by persisted
//! cache envelopes and checkpoint-journal lines.
//!
//! Writing: a summary is serialized once into an [`Encoded`] — its JSON
//! and the checksum of exactly those bytes — and [`frame`] wraps the
//! header around it. The same `Encoded` can frame a cache envelope and a
//! journal line under different keys, because the checksum covers only
//! the summary.
//!
//! Reading: [`open`] parses the canonical header strictly and checks the
//! checksum over the *stored* summary bytes, so verifying a record costs
//! one hash pass and no serialization; the caller then parses the summary
//! JSON once. Any changed byte is rejected: a changed header byte breaks
//! the strict parse or the caller's schema and key check, and a changed
//! summary byte changes the checksum (FNV-1a folds each byte in through a
//! bijection of the running state, so two inputs differing in one byte
//! never collide). A reformatted or field-reordered file is rejected too,
//! even when it holds the same values.
//!
//! The checksum stays [`fnv1a64`] rather than the repository's
//! `depburst_core::stablehash`: the 16-hex-digit FNV-1a field is part of
//! the v3 on-disk format, so replacing it means a schema bump that retires
//! every existing cache and journal; it runs directly over the raw stored
//! bytes; and `stablehash` serves a different job, deriving 128-bit keys
//! from typed, tagged fields.

use std::fmt::{self, Write};

use super::{SimKey, SCHEMA_VERSION};
use crate::run::RunSummary;
use crate::vfs::fnv1a64;

/// A summary serialized once, with the checksum of those bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Encoded {
    /// The summary's canonical JSON.
    pub(crate) json: String,
    /// [`fnv1a64`] of `json`.
    pub(crate) checksum: u64,
}

impl Encoded {
    /// Serializes `summary` and checksums the result.
    pub(crate) fn of(summary: &RunSummary) -> Result<Self, serde_json::Error> {
        let json = serde_json::to_string(summary)?;
        let checksum = fnv1a64(json.as_bytes());
        Ok(Encoded { json, checksum })
    }
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
    /// under another key without serializing it again.
    pub(crate) fn encoded(&self) -> Encoded {
        Encoded {
            json: self.summary_json.to_owned(),
            checksum: self.checksum,
        }
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
