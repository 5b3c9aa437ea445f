//! The workspace's binary codec.
//!
//! The workspace is deliberately free of external crates, so everything it
//! serializes goes through this small hand-rolled codec instead of
//! serde/bincode: little-endian scalars, LEB128 varints, length-prefixed
//! byte strings, one tag byte per enum variant, and [`fnv1a64`] as the one
//! checksum. Three formats are built on it: real-transport frames (the
//! [`Wire`] trait is what a message type must implement to ride
//! [`RealTransport`](crate::RealTransport); the DSM's `NetMsg` codec lives
//! next to the message definitions in `midway-core`), the trace file
//! format in `midway-replay`, and the checkpoint images and write-ahead
//! log of `midway-core`'s crash recovery.
//!
//! Every read is bounds-checked, and a count read through
//! [`WireReader::varint_len`] or [`WireReader::u32_len`] can never claim
//! more items than the bytes that remain, so a corrupted length prefix
//! fails the decode instead of sizing a huge allocation.

use std::fmt;

/// A malformed or truncated wire frame.
///
/// Decoding failures are protocol-fatal on a real transport (there is no
/// way to resynchronize a corrupt stream), so errors carry a description
/// good enough to debug from a poison report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    /// Convenience constructor.
    pub fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over encoded bytes: a frame payload, a trace
/// body, a checkpoint image or a log segment.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a complete encoding.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "truncated frame: wanted {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.raw(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.raw(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.raw(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an unsigned LEB128 varint of at most ten bytes.
    pub fn varint(&mut self, what: &str) -> Result<u64, WireError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError(format!(
            "varint for {what} is longer than 64 bits"
        )))
    }

    /// Checks a count read from the frame: `n` items of at least
    /// `min_item_bytes` bytes each must fit in the bytes that remain.
    fn count(&self, n: u64, min_item_bytes: usize, what: &str) -> Result<usize, WireError> {
        let need = n.checked_mul(min_item_bytes.max(1) as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(n as usize),
            _ => Err(WireError(format!(
                "{what} claims {n} items, but only {} bytes remain",
                self.remaining()
            ))),
        }
    }

    /// Reads a varint count of items that each take at least
    /// `min_item_bytes` bytes, rejecting one the remaining bytes cannot
    /// hold.
    pub fn varint_len(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, WireError> {
        let n = self.varint(what)?;
        self.count(n, min_item_bytes, what)
    }

    /// Reads a little-endian `u32` count of items that each take at least
    /// `min_item_bytes` bytes, rejecting one the remaining bytes cannot
    /// hold.
    pub fn u32_len(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32(what)?;
        self.count(u64::from(n), min_item_bytes, what)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>, WireError> {
        let len = self.u32_len(1, what)?;
        Ok(self.raw(len, what)?.to_vec())
    }

    /// Asserts the frame is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if !self.is_empty() {
            return Err(WireError(format!(
                "{} trailing bytes after a complete message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an unsigned LEB128 varint: seven bits per byte, low bits
/// first, high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// FNV-1a 64-bit hash, the checksum footer of trace files and checkpoint
/// images.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(
        out,
        u32::try_from(b.len()).expect("byte string fits in u32"),
    );
    out.extend_from_slice(b);
}

/// A message that can cross a real socket.
///
/// `encode` appends the full message to `out`; `decode` consumes exactly
/// one message from the reader. Round-tripping must be lossless:
/// `decode(encode(m)) == m`.
pub trait Wire: Sized {
    /// Serializes `self` onto the end of `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Deserializes one message, consuming its bytes from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a message into a fresh buffer (helper for one-shot callers).
pub fn encode_to_vec<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decodes a complete frame payload, requiring full consumption.
pub fn decode_exact<M: Wire>(buf: &[u8]) -> Result<M, WireError> {
    let mut r = WireReader::new(buf);
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Probe {
        a: u64,
        b: u32,
        tag: u8,
        blob: Vec<u8>,
    }

    impl Wire for Probe {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u64(out, self.a);
            put_u32(out, self.b);
            out.push(self.tag);
            put_bytes(out, &self.blob);
        }

        fn decode(r: &mut WireReader<'_>) -> Result<Probe, WireError> {
            Ok(Probe {
                a: r.u64("a")?,
                b: r.u32("b")?,
                tag: r.u8("tag")?,
                blob: r.bytes("blob")?,
            })
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let p = Probe {
            a: u64::MAX - 3,
            b: 0xDEAD_BEEF,
            tag: 7,
            blob: vec![1, 2, 3, 0, 255],
        };
        assert_eq!(decode_exact::<Probe>(&encode_to_vec(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let p = Probe {
            a: 1,
            b: 2,
            tag: 3,
            blob: vec![9; 10],
        };
        let full = encode_to_vec(&p);
        for cut in 0..full.len() {
            assert!(
                decode_exact::<Probe>(&full[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut out = Vec::new();
        let values = [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for v in values {
            put_varint(&mut out, v);
        }
        // One byte per started 7 bits.
        assert_eq!(out.len(), 1 + 1 + 1 + 2 + 2 + 3 + 5 + 10);
        let mut r = WireReader::new(&out);
        for v in values {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        assert!(r.is_empty());
        // An eleventh continuation byte is rejected, not wrapped.
        assert!(WireReader::new(&[0x80; 11]).varint("v").is_err());
    }

    #[test]
    fn counts_cannot_claim_more_than_the_remaining_bytes() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 6]);
        assert_eq!(WireReader::new(&out).u32_len(2, "n"), Ok(3));
        assert!(WireReader::new(&out).u32_len(3, "n").is_err());
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert!(WireReader::new(&out).varint_len(1, "n").is_err());
        assert!(WireReader::new(&out).varint_len(usize::MAX, "n").is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let p = Probe {
            a: 1,
            b: 2,
            tag: 3,
            blob: vec![],
        };
        let mut full = encode_to_vec(&p);
        full.push(0);
        assert!(decode_exact::<Probe>(&full).is_err());
    }
}
