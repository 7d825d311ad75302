//! The legacy `SNPX` weight stream, kept only as the input of
//! [`convert_params_to_artifact`](crate::convert_params_to_artifact),
//! plus the bounds-checked cursor both weight parsers share.
//!
//! Layout: magic `b"SNPX"`, format version `u32`, parameter count `u32`,
//! then per parameter: name length `u32` + UTF-8 name, rank `u32` +
//! little-endian `u64` extents, and the `f32` data.
//!
//! The stream has no checksum and no payload-length field, so the parser
//! bounds-checks every record against the real byte count before
//! allocating or interpreting data — a truncated or corrupt file fails
//! with a typed [`NnError::Format`] instead of converting garbage.

use crate::{NnError, Result};
use snappix_tensor::Tensor;

const MAGIC: &[u8; 4] = b"SNPX";
const VERSION: u32 = 1;

/// Parses a legacy `SNPX` weight file into `(name, tensor)` entries.
///
/// Every length that the file declares (name length, rank, extents) is
/// checked against the bytes that remain *before* any allocation or
/// data read, so truncation and corrupt counts surface as
/// [`NnError::Format`] rather than garbage tensors or huge allocations.
pub(crate) fn read_legacy(bytes: &[u8]) -> Result<Vec<(String, Tensor)>> {
    let mut c = Cursor::new(bytes);
    if c.take(4)? != MAGIC {
        return Err(NnError::Format {
            context: "bad magic (not a SnapPix weight file)".to_string(),
        });
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(NnError::Format {
            context: format!("unsupported version {version}"),
        });
    }
    let count = c.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name_len = c.u32()? as usize;
        let name = String::from_utf8(c.take(name_len)?.to_vec()).map_err(|_| NnError::Format {
            context: "parameter name is not UTF-8".to_string(),
        })?;
        let rank = c.u32()? as usize;
        if c.remaining() < rank.saturating_mul(8) {
            return Err(NnError::Format {
                context: format!("truncated file: rank {rank} shape for {name} cut short"),
            });
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(c.u64()? as usize);
        }
        let n = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| NnError::Format {
                context: format!("element count overflow in shape {shape:?} for {name}"),
            })?;
        // Payload-length check before allocating: the remaining bytes
        // must hold all n floats this record declares.
        let data_bytes = n.checked_mul(4).ok_or_else(|| NnError::Format {
            context: format!("payload size overflow for {name}"),
        })?;
        if c.remaining() < data_bytes {
            return Err(NnError::Format {
                context: format!(
                    "truncated file: {name} declares {data_bytes} data bytes but only {} remain",
                    c.remaining()
                ),
            });
        }
        let data = c
            .take(data_bytes)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        entries.push((name, Tensor::from_vec(data, &shape)?));
    }
    // The declared parameter count must account for the whole file: bytes
    // past the last parameter mean the header lied (or the file was
    // concatenated/corrupted), and silently ignoring them would mask it.
    if c.remaining() != 0 {
        return Err(NnError::Format {
            context: format!("trailing bytes after the last of {count} parameters"),
        });
    }
    Ok(entries)
}

/// A bounds-checked reader over an in-memory byte slice. Running past
/// the end is always a typed [`NnError::Format`] ("truncated"), never a
/// panic — both weight-file parsers are built on it.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(NnError::Format {
                context: format!(
                    "truncated file: needed {n} bytes at offset {}, {} remain",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
#[path = "../tests/support/legacy.rs"]
mod legacy;

#[cfg(test)]
mod tests {
    use super::*;

    fn pristine() -> Vec<u8> {
        let w = Tensor::arange(4).reshape(&[2, 2]).unwrap();
        let b = Tensor::full(&[2], 0.25);
        super::legacy::legacy_bytes([("w", &w), ("b", &b)])
    }

    #[test]
    fn roundtrip_rejects_trailing_bytes_and_truncation() {
        // The unmodified stream parses back to the written entries.
        let pristine = pristine();
        let entries = read_legacy(&pristine).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "w");
        assert_eq!(entries[0].1.shape(), &[2, 2]);
        assert_eq!(entries[0].1.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(entries[1].0, "b");
        assert_eq!(entries[1].1.as_slice(), &[0.25, 0.25]);

        // Trailing garbage after the last parameter is a format error,
        // not silently accepted (a single stray byte must be enough).
        for junk in [&b"\0"[..], &b"SNPXtrailing"[..]] {
            let mut bytes = pristine.clone();
            bytes.extend_from_slice(junk);
            match read_legacy(&bytes).unwrap_err() {
                NnError::Format { context } => {
                    assert!(context.contains("trailing"), "{context}")
                }
                other => panic!("expected Format, got {other:?}"),
            }
        }

        // A truncated stream fails the payload-length check at every
        // prefix length (header, name, shape, or data cut short) — a
        // typed format error, never garbage weights.
        for cut in [pristine.len() - 1, pristine.len() / 2, 6, 2] {
            match read_legacy(&pristine[..cut]).unwrap_err() {
                NnError::Format { context } => assert!(
                    context.contains("truncated") || context.contains("unsupported"),
                    "prefix of {cut} bytes: unexpected context {context}"
                ),
                other => panic!("prefix of {cut} bytes: expected Format, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_count_cannot_cause_huge_allocation() {
        // A header that declares a giant tensor over a tiny payload must
        // be rejected before any allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one parameter
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name "w"
        bytes.push(b'w');
        bytes.extend_from_slice(&1u32.to_le_bytes()); // rank 1
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd extent
        assert!(matches!(read_legacy(&bytes), Err(NnError::Format { .. })));
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            read_legacy(b"NOPE0000"),
            Err(NnError::Format { .. })
        ));
    }
}
