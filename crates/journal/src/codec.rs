//! Little-endian byte codec for journal record payloads.
//!
//! Deliberately minimal: fixed-width integers, booleans, and
//! length-prefixed byte strings, composed by the record layer into the
//! structured encodings of DESIGN §11. Every decode step is bounds
//! checked and returns a typed [`DecodeError`] naming the field that
//! could not be read and the offset where decoding stopped — the reader
//! turns these into `JournalError::Decode` with a recovery point, never
//! a panic.

/// A decode failure: `what` names the field being read, `at` is the
/// payload offset where the read began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    pub what: &'static str,
    pub at: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot decode {} at payload offset {}",
            self.what, self.at
        )
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Unsigned LEB128 varint: 7 value bits per byte, high bit =
    /// continuation. Small values — the overwhelmingly common case in
    /// event chunks — cost one byte instead of eight.
    pub fn vu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// `vu64` restricted to `u32` values.
    pub fn vu32(&mut self, v: u32) {
        self.vu64(v as u64);
    }

    /// Zigzag-mapped signed varint (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`),
    /// so small magnitudes of either sign stay short.
    pub fn vi64(&mut self, v: i64) {
        self.vu64(((v << 1) ^ (v >> 63)) as u64);
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor decoder over one record payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let end = at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                self.pos = end;
                Ok(&self.buf[at..end])
            }
            None => Err(DecodeError { what, at }),
        }
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                what,
                at: self.pos - 1,
            }),
        }
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    pub fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let at = self.pos;
        let b = self.bytes(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError { what, at })
    }

    /// Unsigned LEB128 varint. Rejects truncation, more than 10 bytes,
    /// and bits beyond the 64th — all as typed errors.
    pub fn vu64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let at = self.pos;
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.take(1, what)?[0];
            let bits = (byte & 0x7F) as u64;
            // The 10th byte may only carry the single remaining bit.
            if i == 9 && bits > 1 {
                return Err(DecodeError { what, at });
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError { what, at })
    }

    /// `vu64` checked into `u32` range.
    pub fn vu32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let at = self.pos;
        u32::try_from(self.vu64(what)?).map_err(|_| DecodeError { what, at })
    }

    /// Zigzag-mapped signed varint (inverse of [`Enc::vi64`]).
    pub fn vi64(&mut self, what: &'static str) -> Result<i64, DecodeError> {
        let z = self.vu64(what)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// A well-formed payload is consumed exactly.
    pub fn finish(self, what: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError { what, at: self.pos })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.str("soak");
        e.bytes(&[1, 2, 3]);
        let buf = e.into_vec();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert!(d.bool("b").unwrap());
        assert_eq!(d.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(d.str("e").unwrap(), "soak");
        assert_eq!(d.bytes("f").unwrap(), &[1, 2, 3]);
        d.finish("tail").unwrap();
    }

    #[test]
    fn truncation_yields_typed_errors_not_panics() {
        let mut e = Enc::new();
        e.u64(42);
        e.str("hello");
        let buf = e.into_vec();
        // Chop at every possible length: each prefix must decode to
        // either the full value or a typed error.
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            let got = d.u64("v").and_then(|_| d.str("s"));
            assert!(got.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims ~4 GiB follow
        let buf = e.into_vec();
        let mut d = Dec::new(&buf);
        let err = d.bytes("blob").unwrap_err();
        assert_eq!(err.what, "blob");
    }

    #[test]
    fn varints_round_trip_and_reject_garbage() {
        let samples: &[u64] = &[
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in samples {
            let mut e = Enc::new();
            e.vu64(v);
            let buf = e.into_vec();
            let mut d = Dec::new(&buf);
            assert_eq!(d.vu64("v").unwrap(), v);
            d.finish("tail").unwrap();
            // Every truncation is a typed error.
            for cut in 0..buf.len() {
                assert!(Dec::new(&buf[..cut]).vu64("v").is_err());
            }
        }
        for &v in &[0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut e = Enc::new();
            e.vi64(v);
            let buf = e.into_vec();
            assert_eq!(Dec::new(&buf).vi64("v").unwrap(), v);
        }
        // vu32 rejects out-of-range values.
        let mut e = Enc::new();
        e.vu64(u32::MAX as u64 + 1);
        let buf = e.into_vec();
        assert!(Dec::new(&buf).vu32("v").is_err());
        // An all-continuation run never terminates within 10 bytes.
        let bad = [0xFFu8; 11];
        assert!(Dec::new(&bad).vu64("v").is_err());
        // A 10th byte with bits above the 64th is rejected.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert!(Dec::new(&overflow).vu64("v").is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut e = Enc::new();
        e.u32(5);
        let mut buf = e.into_vec();
        buf.push(0xAB);
        let mut d = Dec::new(&buf);
        d.u32("v").unwrap();
        assert!(d.finish("tail").is_err());
    }
}
