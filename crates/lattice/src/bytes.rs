//! The one byte layer: a fail-closed [`Reader`], a [`Writer`], and the
//! tamper harness every binary format of the workspace is proven with.
//!
//! `SBGTSNAP`, `SBGTCKPT`, `SBGTPLAN`, the wire frames and `ObsFrame` all
//! encode and decode through this module (it lives here because this is
//! the one crate every codec owner already depends on). All integers are
//! little-endian; floats travel as raw IEEE-754 bits, so a decode returns
//! the same bits or an error.
//!
//! **The one allocation rule.** A count read from bytes may size an
//! allocation or drive a loop only after [`Reader::fits`] (or its
//! [`Reader::count32`] / [`Reader::count64`] spellings) has checked that
//! `count × min_item_bytes` does not exceed the bytes still unread. A
//! hostile count is therefore rejected at the count, naming it, before
//! anything is reserved.
//!
//! A failed read is a [`ByteError`] — where the cursor stood and what went
//! wrong — which each format's own error type absorbs through `From`.

use std::fmt;

/// A failed read: the cursor offset and the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteError {
    /// Offset of the cursor when the read failed.
    pub at: usize,
    /// What went wrong there.
    pub fault: Fault,
}

/// The three ways a buffer can disagree with its format's framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The buffer ends before a field of `wanted` bytes does.
    Truncated {
        /// Size of the field being read.
        wanted: usize,
    },
    /// A count claims more items than the unread bytes could hold.
    Count {
        /// Which count (`"shard"`, `"marginals"`, …).
        what: &'static str,
        /// The value read.
        claimed: u64,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// How many.
        extra: usize,
    },
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match self.fault {
            Fault::Truncated { wanted } => {
                write!(f, "truncated at byte {at} (wanted {wanted} more)")
            }
            Fault::Count { what, claimed } => write!(
                f,
                "{what} count {claimed} at byte {at} exceeds what the remaining bytes can hold"
            ),
            Fault::Trailing { extra } => write!(f, "{extra} trailing byte(s) after byte {at}"),
        }
    }
}

impl std::error::Error for ByteError {}

/// Bounds-checked read cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn fail<T>(&self, fault: Fault) -> Result<T, ByteError> {
        Err(ByteError {
            at: self.pos,
            fault,
        })
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if n > self.remaining() {
            return self.fail(Fault::Truncated { wanted: n });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ByteError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The allocation rule: `n` items of at least `min_item` bytes each
    /// must fit in the unread bytes, or the count `what` is rejected here.
    #[inline]
    pub fn fits(&self, n: u64, min_item: usize, what: &'static str) -> Result<usize, ByteError> {
        match usize::try_from(n) {
            Ok(len) if len.saturating_mul(min_item.max(1)) <= self.remaining() => Ok(len),
            _ => self.fail(Fault::Count { what, claimed: n }),
        }
    }

    /// A `u32` count of items at least `min_item` bytes each, bounded by
    /// [`Self::fits`].
    #[inline]
    pub fn count32(&mut self, min_item: usize, what: &'static str) -> Result<usize, ByteError> {
        let n = self.u32()?;
        self.fits(u64::from(n), min_item, what)
    }

    /// A `u64` count of items at least `min_item` bytes each, bounded by
    /// [`Self::fits`].
    #[inline]
    pub fn count64(&mut self, min_item: usize, what: &'static str) -> Result<usize, ByteError> {
        let n = self.u64()?;
        self.fits(n, min_item, what)
    }

    /// A `u32`-length-prefixed byte string, borrowed from the buffer.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], ByteError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    #[inline]
    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a, ByteError> {
        let Some(len) = n.checked_mul(8) else {
            return self.fail(Fault::Truncated { wanted: usize::MAX });
        };
        Ok(self.take(len)?.chunks_exact(8).map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            u64::from_le_bytes(word)
        }))
    }

    /// `n` little-endian `u64`s; nothing is allocated unless all are there.
    #[inline]
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ByteError> {
        Ok(self.words(n)?.collect())
    }

    /// `n` `f64` bit patterns; nothing is allocated unless all are there.
    #[inline]
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ByteError> {
        Ok(self.words(n)?.map(f64::from_bits).collect())
    }

    /// The buffer must be fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            extra => self.fail(Fault::Trailing { extra }),
        }
    }
}

/// Append-only little-endian writer; the mirror of [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[inline]
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The finished buffer.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes verbatim, no length prefix (magics, embedded blobs).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// An `f64` as its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// `u64`s back to back, no count.
    #[inline]
    pub fn u64s(&mut self, values: &[u64]) {
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.u64(*v);
        }
    }

    /// `f64` bit patterns back to back, no count.
    #[inline]
    pub fn f64s(&mut self, values: &[f64]) {
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.f64(*v);
        }
    }
}

/// Bytes of a recorded golden line (lowercase hex, two digits per byte).
///
/// # Panics
/// Panics on anything that is not hex — golden files are test fixtures.
pub fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden files hold hex"))
        .collect()
}

/// Every single-bit flip of a byte, plus its full inversion.
const FLIPS: [u8; 9] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];

/// The tamper harness for a format whose encoder is canonical: `good`
/// must re-encode to itself. See [`check_against`].
pub fn check<E: fmt::Debug>(good: &[u8], reencode: impl Fn(&[u8]) -> Result<Vec<u8>, E>) {
    check_against(good, good, reencode);
}

/// The tamper harness. `reencode` decodes a whole buffer and encodes the
/// result again (and may exercise whatever consumes the decoded value —
/// a restore, a merge — on the way). Asserted, deterministically:
///
/// * `good` re-encodes to exactly `canonical` (pass `good` itself unless
///   it is an older layout the encoder no longer writes), and `canonical`
///   re-encodes to itself;
/// * every proper prefix of `good` is an error;
/// * `good` plus one trailing byte is an error;
/// * every single-bit flip and full inversion of every byte is an error
///   or decodes to something whose encoding re-encodes to itself;
///
/// and none of it panics.
pub fn check_against<E: fmt::Debug>(
    good: &[u8],
    canonical: &[u8],
    reencode: impl Fn(&[u8]) -> Result<Vec<u8>, E>,
) {
    let stable = |bytes: &[u8], label: fmt::Arguments<'_>| match reencode(bytes) {
        Ok(again) => assert!(again == bytes, "{label}: re-encoding is not a fixed point"),
        Err(e) => panic!("{label}: encoder output does not decode: {e:?}"),
    };
    match reencode(good) {
        Ok(first) => assert!(first == canonical, "good bytes re-encode differently"),
        Err(e) => panic!("good bytes do not decode: {e:?}"),
    }
    stable(canonical, format_args!("canonical bytes"));
    for cut in 0..good.len() {
        assert!(
            reencode(&good[..cut]).is_err(),
            "the {cut}-byte prefix of {} bytes decoded",
            good.len()
        );
    }
    let mut bad = good.to_vec();
    for extra in [0x00, 0xFF] {
        bad.push(extra);
        assert!(
            reencode(&bad).is_err(),
            "a trailing {extra:#04x} was accepted"
        );
        bad.pop();
    }
    for at in 0..good.len() {
        for flip in FLIPS {
            bad[at] = good[at] ^ flip;
            if let Ok(out) = reencode(&bad) {
                stable(&out, format_args!("byte {at} ^ {flip:#04x}"));
            }
        }
        bad[at] = good[at];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy format on the shared cursor: magic, a counted `f64` list, a
    /// flag byte that decodes leniently (so some flips survive).
    fn toy_encode(values: &[f64], flag: bool) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(b"TOY");
        w.u32(values.len() as u32);
        w.f64s(values);
        w.u8(u8::from(flag));
        w.into_bytes()
    }

    fn toy_reencode(bytes: &[u8]) -> Result<Vec<u8>, ByteError> {
        let mut r = Reader::new(bytes);
        if r.take(3)? != b"TOY" {
            return Err(ByteError {
                at: 0,
                fault: Fault::Truncated { wanted: 3 },
            });
        }
        let n = r.count32(8, "value")?;
        let values = r.f64s(n)?;
        let flag = r.u8()? != 0;
        r.finish()?;
        Ok(toy_encode(&values, flag))
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::with_capacity(64);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.1 + 0.2);
        w.bytes(b"abc");
        w.u64s(&[1, 2]);
        w.f64s(&[f64::MIN_POSITIVE, -0.0]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8 + 7 + 16 + 16);
        let mut r = Reader::new(&bytes);
        assert_eq!(from_hex("07efbe"), bytes[..3]);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.u64s(2).unwrap(), vec![1, 2]);
        let floats = r.f64s(2).unwrap();
        assert_eq!(floats[0].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(floats[1].to_bits(), (-0.0f64).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn faults_are_positional() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        assert_eq!(err.at, 1);
        assert_eq!(err.fault, Fault::Truncated { wanted: 4 });
        assert_eq!(err.to_string(), "truncated at byte 1 (wanted 4 more)");
        assert_eq!(
            r.finish().unwrap_err().fault,
            Fault::Trailing { extra: 2 },
            "a failed read consumes nothing"
        );
        // A bulk read whose byte length overflows is a truncation, not a
        // wrapped multiply.
        assert!(Reader::new(&[0; 16]).u64s(usize::MAX / 4).is_err());
    }

    #[test]
    fn the_allocation_rule_is_count_times_item_size() {
        // 16 unread bytes hold two 8-byte items, not three — and sixteen
        // one-byte items, not seventeen.
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.fits(2, 8, "word"), Ok(2));
        assert_eq!(r.fits(16, 0, "byte"), Ok(16), "min_item floors at 1");
        for (n, item) in [(3, 8), (17, 1), (u64::MAX, 1), (u64::MAX, 24)] {
            let err = r.fits(n, item, "word").unwrap_err();
            assert_eq!(
                err.fault,
                Fault::Count {
                    what: "word",
                    claimed: n
                }
            );
        }
        // The counted readers apply it after consuming the count itself.
        let mut w = Writer::new();
        w.u32(2);
        w.u64s(&[5]);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).count32(8, "word").unwrap_err();
        assert_eq!(
            (err.at, err.to_string().contains("word count 2")),
            (4, true)
        );
        let mut w = Writer::new();
        w.u64(1);
        w.u64(9);
        assert_eq!(
            Reader::new(&w.into_bytes()).count64(8, "word"),
            Ok(1),
            "exactly full is accepted"
        );
    }

    #[test]
    fn harness_accepts_a_sound_codec() {
        check(&toy_encode(&[0.25, -1.5, f64::NAN], true), toy_reencode);
        check(&toy_encode(&[], false), toy_reencode);
        // An older layout that re-encodes to the current one.
        let mut old = toy_encode(&[0.5], true);
        *old.last_mut().unwrap() = 9;
        check_against(&old, &toy_encode(&[0.5], true), toy_reencode);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn harness_catches_an_accepted_truncation() {
        // A decoder that papers over a missing last byte.
        check(&toy_encode(&[0.5], false), |bytes| {
            toy_reencode(bytes).or_else(|e| {
                let mut padded = bytes.to_vec();
                padded.push(0);
                toy_reencode(&padded).map_err(|_| e)
            })
        });
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn harness_catches_accepted_trailing_bytes() {
        let good = toy_encode(&[0.5], true);
        let len = good.len();
        check(&good, move |bytes| {
            toy_reencode(&bytes[..len.min(bytes.len())])
        });
    }

    #[test]
    #[should_panic(expected = "fixed point")]
    fn harness_catches_an_unstable_reencode() {
        // An "encoder" that keeps the raw flag byte the decoder
        // normalises: a flipped flag re-encodes differently each time.
        check(&toy_encode(&[0.5], true), |bytes| {
            let canonical = toy_reencode(bytes)?;
            let mut out = canonical.clone();
            let flag = *bytes.last().unwrap();
            *out.last_mut().unwrap() = if flag > 1 { flag - 1 } else { flag };
            Ok::<_, ByteError>(out)
        });
    }
}
