//! A test-only writer for the legacy `SNPX` weight stream, so the
//! parser and the converter can be fed legacy bytes without the
//! library writing the format. Shared by the `serialize` unit tests and
//! the artifact integration tests.

use snappix_tensor::Tensor;

/// Encodes `(name, tensor)` entries as a legacy `SNPX` stream: magic,
/// version 1, count, then per entry the length-prefixed name, the rank,
/// the `u64` extents and the little-endian `f32` data.
pub fn legacy_bytes<'a>(entries: impl IntoIterator<Item = (&'a str, &'a Tensor)>) -> Vec<u8> {
    let entries: Vec<_> = entries.into_iter().collect();
    let mut bytes = b"SNPX".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, value) in entries {
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&(value.rank() as u32).to_le_bytes());
        for &d in value.shape() {
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &x in value.as_slice() {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    bytes
}
