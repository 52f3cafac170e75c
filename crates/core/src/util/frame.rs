//! Shared CRC-32 frame codec for the workspace's durable binary formats.
//!
//! The merge WAL ([`crate::wal`]), the fitted-model artifact
//! ([`crate::artifact`]) and `rock-data`'s stream `Checkpoint` persist
//! themselves as a magic prefix followed by CRC-framed records:
//!
//! ```text
//! frame := type:u8  len:u32le  payload[len]  crc32:u32le
//! crc32 := CRC-32/IEEE over type ‖ len ‖ payload
//! ```
//!
//! This module is the single implementation of that frame (writer,
//! checked reader, bounds-checked payload cursor and the little-endian
//! `put_*` helpers) and of the primitives every record shares: exact
//! `f64` bits, counted `u32` lists, strings, optional `u64`s and counted
//! lists of length-prefixed blobs. Each record's own layout lives next to
//! its type (`MergeRecord` in [`crate::cluster`], `StalenessPolicy`,
//! `UpdateProvenance` and the update fingerprint in
//! [`crate::incremental`]); the formats differ only in their record
//! vocabulary and damage semantics (the WAL truncates torn tails, the
//! artifact and the checkpoint reject any damage outright).

use crate::util::crc32;

/// Appends one CRC-framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let mut head = Vec::with_capacity(5 + payload.len());
    head.push(kind);
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    head.extend_from_slice(payload);
    let crc = crc32(&head);
    buf.extend_from_slice(&head);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Reads and CRC-verifies the frame at `at`; returns
/// `(type, payload, offset past the frame)` or `None` if the frame is
/// incomplete or fails its checksum.
pub fn read_frame(bytes: &[u8], at: usize) -> Option<(u8, &[u8], usize)> {
    // Every access below is `get`-checked: this function parses bytes
    // straight off disk, so no index may assume anything about them —
    // and `checked_add` keeps a hostile `at`/`len` from overflowing.
    let kind = *bytes.get(at)?;
    let header_end = at.checked_add(5)?;
    let len_bytes: [u8; 4] = bytes.get(at + 1..header_end)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    let payload_end = header_end.checked_add(len)?;
    let frame_end = payload_end.checked_add(4)?;
    let crc_bytes: [u8; 4] = bytes.get(payload_end..frame_end)?.try_into().ok()?;
    let stored = u32::from_le_bytes(crc_bytes);
    if crc32(bytes.get(at..payload_end)?) != stored {
        return None;
    }
    Some((kind, bytes.get(header_end..payload_end)?, frame_end))
}

/// A forward-only, bounds-checked byte reader for record payloads.
///
/// Every accessor returns `None` past the end (or when a length prefix
/// promises more items than bytes remain), so a damaged payload can never
/// index out of bounds or over-allocate.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Takes the next `n` bytes, if present.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }

    /// Reads an `f64` persisted as exact bits.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads an optional `u64` (see [`put_option_u64`]); the outer
    /// `None` means the bytes do not decode.
    pub(crate) fn option_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => self.u64().map(Some),
            _ => None,
        }
    }

    /// Reads `n` items with `item`, each encoded in at least `min_len`
    /// bytes. A count read from disk can never promise more items than
    /// bytes remain, so a lying count fails before anything is
    /// allocated.
    pub fn list<T>(
        &mut self,
        n: usize,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        if n > self.remaining() / min_len {
            return None;
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Some(items)
    }

    /// Reads a `u32`-counted `u32` list (see [`put_u32_slice`]).
    pub(crate) fn u32_vec(&mut self) -> Option<Vec<u32>> {
        let n = self.u32()? as usize;
        self.list(n, 4, Cursor::u32)
    }

    /// Reads a `u32`-length-prefixed byte string (see [`put_blob`]).
    pub(crate) fn blob(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-counted list of blobs (see [`put_blobs`]).
    pub(crate) fn blobs(&mut self) -> Option<Vec<Vec<u8>>> {
        let n = self.u32()? as usize;
        self.list(n, 4, |c| c.blob().map(<[u8]>::to_vec))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.blob()?.to_vec()).ok()
    }

    /// Bytes remaining past the cursor.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Whether the payload was consumed exactly.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact bit pattern (round-trips NaN payloads
/// and signed zeros — bit-identity is the repo's core guarantee).
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `u32` count followed by each element (see
/// [`Cursor::u32_vec`]).
pub(crate) fn put_u32_slice(buf: &mut Vec<u8>, vs: &[u32]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u32(buf, v);
    }
}

/// Appends an optional `u64`: a `0` byte, or a `1` byte and the value
/// (see [`Cursor::option_u64`]).
pub(crate) fn put_option_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u64(buf, x);
        }
    }
}

/// Appends a `u32`-length-prefixed byte string (see [`Cursor::blob`]).
pub(crate) fn put_blob(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a `u32` count followed by each blob, length-prefixed (see
/// [`Cursor::blobs`]).
pub(crate) fn put_blobs<B: AsRef<[u8]>>(
    buf: &mut Vec<u8>,
    blobs: impl ExactSizeIterator<Item = B>,
) {
    put_u32(buf, blobs.len() as u32);
    for b in blobs {
        put_blob(buf, b.as_ref());
    }
}

/// Appends a `u32`-length-prefixed UTF-8 string (see [`Cursor::str`]).
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_blob(buf, s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"payload");
        append_frame(&mut buf, 9, b"");
        let (kind, payload, next) = read_frame(&buf, 0).unwrap();
        assert_eq!((kind, payload), (7, &b"payload"[..]));
        let (kind2, payload2, end) = read_frame(&buf, next).unwrap();
        assert_eq!((kind2, payload2), (9, &b""[..]));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 3, b"abcdef");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x55;
            // A flipped length field may make the frame "incomplete";
            // any other flip fails the CRC. Either way: None.
            assert!(read_frame(&bad, 0).is_none(), "flip at {i} undetected");
        }
    }

    #[test]
    fn any_truncation_is_detected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 3, b"abcdef");
        for cut in 0..buf.len() {
            assert!(read_frame(&buf[..cut], 0).is_none(), "cut at {cut} undetected");
        }
    }

    #[test]
    fn cursor_reads_and_bounds() {
        let mut p = Vec::new();
        put_u32(&mut p, 17);
        put_u64(&mut p, u64::MAX);
        put_f64(&mut p, -0.0);
        put_u32_slice(&mut p, &[1, 2, 3]);
        put_str(&mut p, "rock");
        let mut c = Cursor::new(&p);
        assert_eq!(c.u32(), Some(17));
        assert_eq!(c.u64(), Some(u64::MAX));
        assert_eq!(c.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(c.u32_vec(), Some(vec![1, 2, 3]));
        assert_eq!(c.str().as_deref(), Some("rock"));
        assert!(c.done());
        assert_eq!(c.u8(), None);
    }

    #[test]
    fn option_and_blob_primitives_round_trip() {
        let mut p = Vec::new();
        put_option_u64(&mut p, None);
        put_option_u64(&mut p, Some(u64::MAX));
        put_blobs(&mut p, [&b"ab"[..], b"", b"xyz"].into_iter());
        assert_eq!(p[0], 0);
        let mut c = Cursor::new(&p);
        assert_eq!(c.option_u64(), Some(None));
        assert_eq!(c.option_u64(), Some(Some(u64::MAX)));
        assert_eq!(
            c.blobs(),
            Some(vec![b"ab".to_vec(), Vec::new(), b"xyz".to_vec()])
        );
        assert!(c.done());
        assert_eq!(Cursor::new(&[2]).option_u64(), None);
    }

    #[test]
    fn lying_length_prefixes_fail_cleanly() {
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX); // promises 4 billion items
        assert_eq!(Cursor::new(&p).u32_vec(), None);
        let mut q = Vec::new();
        put_u32(&mut q, 100); // promises 100 string bytes, has none
        assert_eq!(Cursor::new(&q).str(), None);
        // Each blob costs at least its 4-byte length.
        let mut b = Vec::new();
        put_u32(&mut b, 3);
        put_blob(&mut b, b"");
        put_blob(&mut b, b"");
        assert_eq!(Cursor::new(&b).blobs(), None);
    }

    #[test]
    fn non_utf8_string_is_none() {
        let mut p = Vec::new();
        put_u32(&mut p, 2);
        p.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Cursor::new(&p).str(), None);
    }
}
