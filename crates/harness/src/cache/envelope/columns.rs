//! The columnar, bit-exact encoding of `ExecutionTrace::epochs` that a v4
//! summary carries as one base64 string.
//!
//! Layout (varint = unsigned LEB128, f64 = its raw bits, 8 bytes
//! little-endian, so every value — `-0.0`, subnormals, infinities, NaN
//! payloads — round-trips bit for bit):
//!
//! ```text
//! varint                epoch count E
//! E × f64               epoch starts
//! ⌈E/8⌉ bytes           derived-duration bitmap: bit i set when duration i
//!                       is exactly start i+1 − start i (the simulator's own
//!                       arithmetic), so it is not stored
//! f64 per clear bit     the remaining durations
//! per epoch             end tag: one byte (0 Stall, 1 Wake, 2 Exit,
//!                       3 QuantumBoundary, 4 TraceEnd), then the thread id
//!                       as a varint for tags 0–2
//! E × varint            thread entries per epoch
//! per epoch, n entries:
//!   ⌈n/8⌉ bytes         all-zero bitmap: bit j set when entry j's counters
//!                       are all zero bits; such an entry stores only its id
//!   n × varint          thread ids
//!   per non-zero entry  a mask byte (bit k: time field k of active, crit,
//!                       leading_loads, stall, sq_full is not +0.0), the
//!                       f64 of each set bit, then instructions, loads,
//!                       stores and llc_misses as varints
//! ```
//!
//! Base64 uses the standard alphabet without padding: no `\n` (journal
//! lines are framed on it), no `"` or `\` (the string sits inside the
//! summary JSON unescaped).

use dvfs_trace::{DvfsCounters, EpochEnd, EpochRecord, ThreadId, ThreadSlice, Time, TimeDelta};

/// Appends the base64 text of `epochs`' columnar payload to `out`.
pub(super) fn encode(epochs: &[EpochRecord], out: &mut Vec<u8>) {
    let derived = |i: usize| {
        let stored = epochs[i].duration.as_secs().to_bits();
        epochs.get(i + 1).is_some_and(|next| {
            derive(epochs[i].start, next.start).is_some_and(|d| d.as_secs().to_bits() == stored)
        })
    };
    let mut w = Writer::default();
    w.varint(epochs.len() as u64);
    for e in epochs {
        w.f64(e.start.as_secs());
    }
    w.bitmap((0..epochs.len()).map(derived));
    for (i, e) in epochs.iter().enumerate() {
        if !derived(i) {
            w.f64(e.duration.as_secs());
        }
    }
    for e in epochs {
        match e.end {
            EpochEnd::Stall(id) => w.tagged(0, id),
            EpochEnd::Wake(id) => w.tagged(1, id),
            EpochEnd::Exit(id) => w.tagged(2, id),
            EpochEnd::QuantumBoundary => w.bytes.push(3),
            EpochEnd::TraceEnd => w.bytes.push(4),
        }
    }
    for e in epochs {
        w.varint(e.threads.len() as u64);
    }
    for e in epochs {
        w.bitmap(e.threads.iter().map(|s| all_zero(&s.counters)));
        for s in &e.threads {
            w.varint(u64::from(s.thread.0));
        }
        for c in e
            .threads
            .iter()
            .map(|s| &s.counters)
            .filter(|c| !all_zero(c))
        {
            let times = times_of(c);
            let stored = |k: &usize| times[*k].to_bits() != 0;
            w.bytes
                .push((0..5).filter(stored).fold(0u8, |m, k| m | 1 << k));
            for k in (0..5).filter(stored) {
                w.f64(times[k]);
            }
            for n in [c.instructions, c.loads, c.stores, c.llc_misses] {
                w.varint(n);
            }
        }
    }
    base64_encode(&w.bytes, out);
}

/// The duration an epoch starting at `start` has when the next one starts
/// at `next`, computed as the simulator computes it (`Time::since`), or
/// `None` when that is NaN: NaN payloads from arithmetic may differ
/// between platforms, so such a duration is always stored.
fn derive(start: Time, next: Time) -> Option<TimeDelta> {
    let d = next.as_secs() - start.as_secs();
    (!d.is_nan()).then_some(TimeDelta::from_secs(d))
}

/// Decodes [`encode`]'s base64 text back into the epochs. A malformed
/// payload — truncated, with trailing bytes, an unknown tag or mask bit,
/// set padding bits, or a count larger than the payload — is an error.
pub(super) fn decode(text: &[u8]) -> Result<Vec<EpochRecord>, &'static str> {
    let bytes = base64_decode(text)?;
    let mut r = Reader::new(&bytes);
    let count = r.len(8)?;
    let starts = (0..count)
        .map(|_| r.f64().map(Time::from_secs))
        .collect::<Result<Vec<_>, _>>()?;
    let derived = r.bitmap(count)?;
    let mut durations = Vec::with_capacity(count);
    for i in 0..count {
        durations.push(if bit(derived, i) {
            let next = starts
                .get(i + 1)
                .ok_or("the last duration cannot be derived")?;
            derive(starts[i], *next).ok_or("a derived duration is NaN")?
        } else {
            TimeDelta::from_secs(r.f64()?)
        });
    }
    let mut ends = Vec::with_capacity(count);
    for _ in 0..count {
        ends.push(match r.byte()? {
            0 => EpochEnd::Stall(r.thread()?),
            1 => EpochEnd::Wake(r.thread()?),
            2 => EpochEnd::Exit(r.thread()?),
            3 => EpochEnd::QuantumBoundary,
            4 => EpochEnd::TraceEnd,
            _ => return Err("unknown epoch end tag"),
        });
    }
    let counts = (0..count)
        .map(|_| r.len(1))
        .collect::<Result<Vec<_>, _>>()?;
    let mut epochs = Vec::with_capacity(count);
    for (((start, duration), end), n) in starts.into_iter().zip(durations).zip(ends).zip(counts) {
        let zero = r.bitmap(n)?;
        let mut threads = (0..n)
            .map(|_| {
                r.thread().map(|thread| ThreadSlice {
                    thread,
                    counters: DvfsCounters::zero(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (j, slice) in threads.iter_mut().enumerate() {
            if !bit(zero, j) {
                slice.counters = r.counters()?;
            }
        }
        epochs.push(EpochRecord {
            start,
            duration,
            threads,
            end,
        });
    }
    if r.pos != bytes.len() {
        return Err("trailing bytes after the epochs");
    }
    Ok(epochs)
}

/// Bit `i` of a little-endian bitmap.
fn bit(map: &[u8], i: usize) -> bool {
    map[i / 8] >> (i % 8) & 1 == 1
}

/// True when every counter is zero bits (`-0.0` is not: it is stored).
fn all_zero(c: &DvfsCounters) -> bool {
    times_of(c).iter().all(|t| t.to_bits() == 0)
        && (c.instructions | c.loads | c.stores | c.llc_misses) == 0
}

/// The five time-valued counters, in mask-bit order.
fn times_of(c: &DvfsCounters) -> [f64; 5] {
    [c.active, c.crit, c.leading_loads, c.stall, c.sq_full].map(TimeDelta::as_secs)
}

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn f64(&mut self, x: f64) {
        self.bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.bytes.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.bytes.push(n as u8);
    }

    fn tagged(&mut self, tag: u8, id: ThreadId) {
        self.bytes.push(tag);
        self.varint(u64::from(id.0));
    }

    fn bitmap(&mut self, bits: impl Iterator<Item = bool>) {
        let (mut byte, mut k) = (0u8, 0);
        for set in bits {
            byte |= u8::from(set) << k;
            k += 1;
            if k == 8 {
                self.bytes.push(byte);
                (byte, k) = (0, 0);
            }
        }
        if k > 0 {
            self.bytes.push(byte);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn byte(&mut self) -> Result<u8, &'static str> {
        let b = *self.bytes.get(self.pos).ok_or("payload truncated")?;
        self.pos += 1;
        Ok(b)
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        let raw = self
            .bytes
            .get(self.pos..self.pos + 8)
            .ok_or("payload truncated")?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(
            raw.try_into().expect("an 8-byte slice"),
        )))
    }

    fn varint(&mut self) -> Result<u64, &'static str> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if bits << shift >> shift != bits {
                return Err("varint overflows u64");
            }
            n |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err("varint overflows u64")
    }

    /// A count whose items take at least `min_bytes` each: bounded by
    /// what is left, so a bad count cannot request a huge allocation.
    fn len(&mut self, min_bytes: usize) -> Result<usize, &'static str> {
        let n = usize::try_from(self.varint()?).map_err(|_| "count overflows usize")?;
        if n > (self.bytes.len() - self.pos) / min_bytes {
            return Err("count exceeds the payload");
        }
        Ok(n)
    }

    fn thread(&mut self) -> Result<ThreadId, &'static str> {
        u32::try_from(self.varint()?)
            .map(ThreadId)
            .map_err(|_| "thread id overflows u32")
    }

    /// A bitmap of `n` bits whose unused high bits are clear.
    fn bitmap(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let raw = self
            .bytes
            .get(self.pos..self.pos + n.div_ceil(8))
            .ok_or("payload truncated")?;
        self.pos += raw.len();
        if !n.is_multiple_of(8) && raw[raw.len() - 1] >> (n % 8) != 0 {
            return Err("bitmap padding bits are set");
        }
        Ok(raw)
    }

    fn counters(&mut self) -> Result<DvfsCounters, &'static str> {
        let mask = self.byte()?;
        if mask >> 5 != 0 {
            return Err("unknown counter mask bits");
        }
        let mut times = [0.0f64; 5];
        for (k, t) in times.iter_mut().enumerate() {
            if mask >> k & 1 == 1 {
                *t = self.f64()?;
            }
        }
        let [active, crit, leading_loads, stall, sq_full] = times.map(TimeDelta::from_secs);
        Ok(DvfsCounters {
            active,
            crit,
            leading_loads,
            stall,
            sq_full,
            instructions: self.varint()?,
            loads: self.varint()?,
            stores: self.varint()?,
            llc_misses: self.varint()?,
        })
    }
}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The 6-bit value of each base64 character; `0xff` for any other byte.
const SEXTETS: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

fn base64_encode(bytes: &[u8], out: &mut Vec<u8>) {
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift & 63) as usize];
    out.reserve(bytes.len().div_ceil(3) * 4);
    let mut chunks = bytes.chunks_exact(3);
    for c in &mut chunks {
        let n = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let n = rest
            .iter()
            .enumerate()
            .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        out.extend(
            [18, 12, 6, 0]
                .into_iter()
                .take(rest.len() + 1)
                .map(|s| sextet(n, s)),
        );
    }
}

/// Decodes unpadded base64, rejecting foreign characters, an impossible
/// length, and non-zero unused bits in the final character.
fn base64_decode(text: &[u8]) -> Result<Vec<u8>, &'static str> {
    if text.len() % 4 == 1 {
        return Err("base64 length is impossible");
    }
    let mut out = Vec::with_capacity(text.len() / 4 * 3 + 2);
    let mut chunks = text.chunks_exact(4);
    for c in &mut chunks {
        let n = sextets(c)?;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let n = sextets(rest)? << (6 * (4 - rest.len()));
        let tail = [(n >> 16) as u8, (n >> 8) as u8];
        let kept = rest.len() - 1;
        if n & (0xff_ffff >> (8 * kept)) != 0 {
            return Err("base64 tail has stray bits");
        }
        out.extend_from_slice(&tail[..kept]);
    }
    Ok(out)
}

/// Up to four base64 characters as one big-endian group of sextets.
fn sextets(chars: &[u8]) -> Result<u32, &'static str> {
    chars
        .iter()
        .try_fold(0u32, |n, &c| match SEXTETS[usize::from(c)] {
            0xff => Err("not a base64 character"),
            v => Ok(n << 6 | u32::from(v)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips_every_tail_length() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut text = Vec::new();
            base64_encode(&bytes, &mut text);
            assert!(!text.iter().any(|b| b"\n\"\\=".contains(b)), "{text:?}");
            assert_eq!(base64_decode(&text), Ok(bytes), "length {len}");
        }
        // The reference vectors of RFC 4648, unpadded.
        let mut text = Vec::new();
        base64_encode(b"foobar", &mut text);
        assert_eq!(text, b"Zm9vYmFy");
        text.clear();
        base64_encode(b"fo", &mut text);
        assert_eq!(text, b"Zm8");
    }

    #[test]
    fn base64_rejects_what_it_never_writes() {
        assert!(base64_decode(b"Zm9vY").is_err(), "impossible length");
        assert!(base64_decode(b"Zm9=").is_err(), "padding");
        assert!(base64_decode(b"Zm\n9").is_err(), "newline");
        assert_eq!(base64_decode(b"Zm8"), Ok(b"fo".to_vec()));
        assert!(base64_decode(b"Zm-").is_err(), "url-safe alphabet");
        assert!(base64_decode(b"Zm9").is_err(), "stray bits");
    }

    #[test]
    fn varints_round_trip_at_every_width_and_reject_overflow() {
        let mut w = Writer::default();
        let values = [
            0,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            w.varint(v);
        }
        let mut r = Reader::new(&w.bytes);
        for v in values {
            assert_eq!(r.varint(), Ok(v));
        }
        assert_eq!(r.pos, w.bytes.len());
        assert!(Reader::new(&[0xff; 11]).varint().is_err(), "eleven bytes");
        let high = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(Reader::new(&high).varint().is_err(), "bit 64 set");
    }

    #[test]
    fn corrupt_payloads_are_errors_not_panics() {
        let epochs = vec![EpochRecord {
            start: Time::from_secs(0.5),
            duration: TimeDelta::from_secs(0.25),
            threads: vec![ThreadSlice {
                thread: ThreadId(3),
                counters: DvfsCounters {
                    active: TimeDelta::from_secs(0.2),
                    instructions: 1000,
                    ..DvfsCounters::zero()
                },
            }],
            end: EpochEnd::Wake(ThreadId(4)),
        }];
        let mut text = Vec::new();
        encode(&epochs, &mut text);
        assert_eq!(decode(&text), Ok(epochs));
        let bytes = base64_decode(&text).expect("valid");
        for cut in 0..bytes.len() {
            let mut short = Vec::new();
            base64_encode(&bytes[..cut], &mut short);
            assert!(decode(&short).is_err(), "truncated at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        let mut text = Vec::new();
        base64_encode(&long, &mut text);
        assert!(decode(&text).is_err(), "trailing byte");
        let mut huge = Vec::new();
        base64_encode(&[0xff, 0xff, 0xff, 0xff, 0x0f], &mut huge);
        assert!(decode(&huge).is_err(), "an epoch count past the payload");
    }
}
