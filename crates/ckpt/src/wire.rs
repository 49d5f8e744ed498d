//! A small explicit wire encoder for checkpoint images.
//!
//! The format is spelled out, fixed-endian (little) and stable, with no
//! serialization framework. It is compact: pages travel as 64-bit
//! fingerprints, so an encoded image is not the size the real system would
//! ship, and no byte count of the migration timing model comes from here —
//! the transfer-size constants live next to the records they charge
//! ([`image`](crate::image) and [`dirty`](crate::dirty)).
//!
//! There is no decoder: restore rebuilds the process from the in-memory
//! [`CheckpointImage`](crate::image::CheckpointImage). The encoder's one
//! caller is the benchmark's `ckpt.encode_4096p_ns` probe, which times
//! [`CheckpointImage::encode`](crate::image::CheckpointImage::encode);
//! deleting the encoder means changing that benchmark.

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

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}
