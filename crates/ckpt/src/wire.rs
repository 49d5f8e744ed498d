//! A small explicit wire encoder/decoder for checkpoint images.
//!
//! The format is spelled out, fixed-endian (little) and stable, with no
//! serialization framework. It is compact: pages travel as 64-bit
//! fingerprints, so an encoded image is not the size the real system would
//! ship. Only three record sizes here feed the migration timing model, through
//! [`IncrementalUpdate::transfer_bytes`](crate::dirty::IncrementalUpdate::transfer_bytes):
//! [`UPDATE_HEADER_LEN`], [`VMA_RESIZE_RECORD_LEN`] and
//! [`VMA_REMOVE_RECORD_LEN`]. Image and page records are charged by the
//! constants in [`image`](crate::image) instead.
//!
//! The codec's one caller outside tests is the benchmark's
//! `ckpt.encode_4096p_ns` probe, which times
//! [`CheckpointImage::encode`](crate::image::CheckpointImage::encode); the
//! codec stays while that probe does.

/// Transfer size of one VMA-resize diff record, bytes: record tag `u32` +
/// region id `u64` + new page count `u64` + reserved `u32`. Shared between
/// the [`VmaDiff`](crate::dirty::VmaDiff) codec and its transfer-size
/// accounting so the timing model charges exactly what the wire carries.
pub const VMA_RESIZE_RECORD_LEN: u64 = 24;
/// Transfer size of one VMA-remove diff record, bytes: record tag `u32` +
/// region id `u64`.
pub const VMA_REMOVE_RECORD_LEN: u64 = 12;
/// Transfer size of the incremental-update header, bytes: iteration `u32` +
/// three `u32` record counts (inserted / resized+removed / pages).
pub const UPDATE_HEADER_LEN: u64 = 16;

/// Record tag opening a VMA-resize diff record.
pub const VMA_RESIZE_TAG: u32 = 0x5253_5a31; // "RSZ1"
/// Record tag opening a VMA-remove diff record.
pub const VMA_REMOVE_TAG: u32 = 0x524d_5631; // "RMV1"

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A record opened with an unexpected tag.
    BadTag(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in wire string"),
            WireError::BadTag(t) => write!(f, "unexpected record tag {t:#x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start decoding `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("length checked"),
        ))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("length checked"),
        ))
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("length checked"),
        ))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(3.5);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn string_roundtrip() {
        let mut w = WireWriter::new();
        w.put_str("zone_serv17");
        w.put_str("");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_str().unwrap(), "zone_serv17");
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn truncated_is_detected() {
        let mut w = WireWriter::new();
        w.put_u64(1);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..7]);
        assert_eq!(r.get_u64(), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_string_is_detected() {
        let mut w = WireWriter::new();
        w.put_str("hello");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..6]);
        assert_eq!(r.get_bytes().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_utf8_is_detected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_str(), Err(WireError::BadUtf8));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mixed_roundtrip(vals in proptest::collection::vec((0u64..u64::MAX, ".{0,32}"), 0..50)) {
            let mut w = WireWriter::new();
            for (n, s) in &vals {
                w.put_u64(*n);
                w.put_str(s);
            }
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            for (n, s) in &vals {
                prop_assert_eq!(r.get_u64().unwrap(), *n);
                prop_assert_eq!(r.get_str().unwrap(), s.as_str());
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
