//! A small length-prefixed binary codec.
//!
//! Coign persists profile summaries, classifier maps, and the chosen
//! distribution into a *configuration record* appended to the application
//! binary. This module provides the byte-level encoding used for all such
//! records: fixed-width little-endian integers and length-prefixed strings
//! and sequences. It is deliberately dependency-free and fully
//! property-tested for round-tripping.

use crate::error::{ComError, ComResult};
use crate::guid::Guid;

/// Serializer accumulating bytes.
#[derive(Default, Debug, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Finishes encoding, yielding the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an IEEE-754 f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a 128-bit GUID.
    pub fn put_guid(&mut self, g: Guid) {
        self.buf.extend_from_slice(&g.0.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Writes a sequence length prefix (pair with `Decoder::get_seq`).
    pub fn put_seq(&mut self, len: usize) {
        self.put_u32(len as u32);
    }
}

/// Deserializer consuming a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> ComResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ComError::Codec(format!(
                "buffer underrun: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> ComResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> ComResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> ComResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> ComResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an IEEE-754 f64.
    pub fn get_f64(&mut self) -> ComResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool.
    pub fn get_bool(&mut self) -> ComResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ComError::Codec(format!("invalid bool byte 0x{other:02x}"))),
        }
    }

    /// Reads a 128-bit GUID.
    pub fn get_guid(&mut self) -> ComResult<Guid> {
        Ok(Guid(u128::from_le_bytes(
            self.take(16)?.try_into().unwrap(),
        )))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> ComResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ComError::Codec(format!("invalid utf-8 string: {e}")))
    }

    /// Reads a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> ComResult<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence length prefix, validating it against the remaining
    /// buffer so corrupted lengths fail fast.
    ///
    /// `min_elem_size` is the minimum encoded size of one element.
    pub fn get_seq(&mut self, min_elem_size: usize) -> ComResult<usize> {
        let len = self.get_u32()? as usize;
        if min_elem_size > 0 && len.saturating_mul(min_elem_size) > self.remaining() {
            return Err(ComError::Codec(format!(
                "sequence of {len} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0xCDEF);
        e.put_u32(0xDEADBEEF);
        e.put_u64(u64::MAX - 1);
        e.put_f64(3.25);
        e.put_bool(true);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xCDEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_f64().unwrap(), 3.25);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.put_str("héllo wörld");
        e.put_bytes(&[1, 2, 3]);
        e.put_str("");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str().unwrap(), "héllo wörld");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_str().unwrap(), "");
    }

    #[test]
    fn guid_roundtrip() {
        let g = Guid::from_name("IClassFactory");
        let mut e = Encoder::new();
        e.put_guid(g);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_guid().unwrap(), g);
    }

    #[test]
    fn underrun_is_an_error() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.get_u32(), Err(ComError::Codec(_))));
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let mut d = Decoder::new(&[7]);
        assert!(matches!(d.get_bool(), Err(ComError::Codec(_))));
    }

    #[test]
    fn truncated_string_is_an_error() {
        let mut e = Encoder::new();
        e.put_str("hello");
        let mut bytes = e.finish();
        bytes.truncate(6); // length prefix says 5, only 2 bytes present
        assert!(Decoder::new(&bytes).get_str().is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.finish();
        assert!(Decoder::new(&bytes).get_str().is_err());
    }

    #[test]
    fn hostile_sequence_length_is_rejected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX); // absurd element count
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_seq(8).is_err());
    }

    #[test]
    fn zero_min_elem_size_skips_validation() {
        let mut e = Encoder::new();
        e.put_seq(1000);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_seq(0).unwrap(), 1000);
    }
}

#[cfg(test)]
pub(crate) mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::ops::{Range, RangeInclusive};

    const CASES: u64 = 64;

    /// A string whose length is drawn from `len` and whose every char
    /// picks one range of `set`, then a code point in it (surrogates are
    /// redrawn, so `'\0'..=char::MAX` yields any `char`).
    pub(crate) fn random_string(
        rng: &mut StdRng,
        set: &[RangeInclusive<char>],
        len: Range<usize>,
    ) -> String {
        (0..rng.gen_range(len))
            .map(|_| loop {
                let range = &set[rng.gen_range(0..set.len())];
                let code = rng.gen_range(u32::from(*range.start())..=u32::from(*range.end()));
                if let Some(c) = char::from_u32(code) {
                    break c;
                }
            })
            .collect()
    }

    /// Fewer than `max` random bytes.
    pub(crate) fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
        let mut bytes = vec![0; rng.gen_range(0..max)];
        rng.fill_bytes(&mut bytes);
        bytes
    }

    pub(crate) fn random_u128(rng: &mut StdRng) -> u128 {
        u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
    }

    #[test]
    fn mixed_roundtrip() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let a = rng.next_u64();
            // Any bit pattern, NaN payloads included: compared by bits.
            let c = f64::from_bits(rng.next_u64());
            let s = random_string(&mut rng, &['\0'..=char::MAX], 0..65);
            let bytes = random_bytes(&mut rng, 128);
            let flag = rng.gen_bool(0.5);
            let g = random_u128(&mut rng);
            let mut e = Encoder::new();
            e.put_u64(a);
            e.put_f64(c);
            e.put_str(&s);
            e.put_bytes(&bytes);
            e.put_bool(flag);
            e.put_guid(Guid(g));
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            assert_eq!(d.get_u64().unwrap(), a, "case {case}");
            assert_eq!(d.get_f64().unwrap().to_bits(), c.to_bits(), "case {case}");
            assert_eq!(d.get_str().unwrap(), s, "case {case}");
            assert_eq!(d.get_bytes().unwrap(), bytes, "case {case}");
            assert_eq!(d.get_bool().unwrap(), flag, "case {case}");
            assert_eq!(d.get_guid().unwrap(), Guid(g), "case {case}");
            assert_eq!(d.remaining(), 0, "case {case}");
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage() {
        for case in 0..CASES {
            let data = random_bytes(&mut StdRng::seed_from_u64(case), 64);
            let mut d = Decoder::new(&data);
            // Whatever the bytes are, decoding returns Ok or Err, never panics.
            let _ = d.get_str();
            let _ = d.get_u64();
            let _ = d.get_bool();
            let _ = d.get_guid();
        }
    }
}
