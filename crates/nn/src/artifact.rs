//! The `.spx` model artifact: a sealed, checksummed weight file whose
//! payload is loaded into memory **once** and handed out as zero-copy
//! shared tensors.
//!
//! `.spx` separates *description* from *data*. A fixed 64-byte
//! header and a tensor-info table describe every tensor (name, dtype,
//! shape, payload offset); the payload is one contiguous, 64-byte-aligned
//! block of little-endian element data; a trailing FNV-1a 64 checksum
//! seals the file. [`ArtifactReader::open`] reads and validates the file
//! once, converts the payload into a single shared buffer, and every
//! [`ArtifactReader::tensor`] / [`ArtifactReader::load_into`] call hands
//! out read-only windows into that buffer — n serve replicas loaded from
//! one artifact share one copy of the weights.
//!
//! The byte-for-byte layout is specified in `docs/FORMAT.md`; the
//! golden-header test in `crates/nn/tests/artifact.rs` pins it against
//! accidental drift.

use crate::serialize::{read_legacy, Cursor};
use crate::{NnError, ParamStore, Result};
use snappix_tensor::{DType, SharedBuffer, Tensor};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every `.spx` file.
pub const SPX_MAGIC: &[u8; 8] = b"SNPX.SPX";
/// Current format version. Bumped only for incompatible layout changes;
/// dtype additions reuse the tag byte and do not bump it.
pub const SPX_VERSION: u32 = 1;
/// Alignment (bytes) of the payload start and of every tensor's offset
/// within the payload.
pub const SPX_ALIGN: usize = 64;
/// Fixed size of the header in bytes.
pub const SPX_HEADER_BYTES: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` — the checksum sealing every `.spx` file.
/// Simple, dependency-free, and byte-order independent; this is an
/// integrity check against truncation and bit rot, not a cryptographic
/// signature.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

fn format_err(context: impl Into<String>) -> NnError {
    NnError::Format {
        context: context.into(),
    }
}

/// One row of the tensor-info table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorInfo {
    name: String,
    dtype: DType,
    shape: Vec<usize>,
    /// Byte offset of this tensor's data relative to the payload start;
    /// always a multiple of [`SPX_ALIGN`].
    offset: usize,
    /// Exact size of this tensor's data in bytes.
    data_bytes: usize,
}

/// Writes every parameter of `store` as a sealed `.spx` artifact.
///
/// Tensors are laid out in registration order, each at the next
/// 64-byte-aligned payload offset. The store's parameter names must be
/// unique — readers index by name.
///
/// # Errors
///
/// Returns [`NnError::Io`] on filesystem failures and
/// [`NnError::Format`] when the store has duplicate parameter names.
pub fn write_artifact(store: &ParamStore, path: impl AsRef<Path>) -> Result<()> {
    let mut names = std::collections::HashSet::new();
    for (_, name, _) in store.iter() {
        if !names.insert(name) {
            return Err(format_err(format!(
                "cannot write artifact: duplicate parameter name {name}"
            )));
        }
    }

    // Lay out the table and payload offsets first. payload_bytes ends at
    // the last tensor's data — no trailing alignment padding, since
    // nothing comes after it.
    let mut table = Vec::new();
    let mut offset = 0usize;
    let mut payload_bytes = 0usize;
    for (_, name, value) in store.iter() {
        let data_bytes = value.len() * value.dtype().size_of();
        table.extend_from_slice(&(name.len() as u32).to_le_bytes());
        table.extend_from_slice(name.as_bytes());
        table.push(value.dtype().tag());
        table.push(value.rank() as u8);
        table.extend_from_slice(&0u16.to_le_bytes());
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&(data_bytes as u64).to_le_bytes());
        for &d in value.shape() {
            table.extend_from_slice(&(d as u64).to_le_bytes());
        }
        payload_bytes = offset + data_bytes;
        offset = align_up(payload_bytes, SPX_ALIGN);
    }

    let mut bytes = Vec::with_capacity(
        SPX_HEADER_BYTES + table.len() + payload_bytes + SPX_ALIGN + size_of::<u64>(),
    );
    bytes.extend_from_slice(SPX_MAGIC);
    bytes.extend_from_slice(&SPX_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(store.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(table.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(payload_bytes as u64).to_le_bytes());
    bytes.resize(SPX_HEADER_BYTES, 0); // reserved header bytes, zero
    bytes.extend_from_slice(&table);
    // Zero padding up to the 64-byte-aligned payload start.
    bytes.resize(align_up(bytes.len(), SPX_ALIGN), 0);

    let payload_start = bytes.len();
    for (_, _, value) in store.iter() {
        bytes.resize(
            align_up(bytes.len() - payload_start, SPX_ALIGN) + payload_start,
            0,
        );
        for &x in value.as_slice() {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    debug_assert_eq!(bytes.len() - payload_start, payload_bytes);

    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());

    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(&bytes)?;
    file.flush()?;
    Ok(())
}

/// Converts a legacy `.snpx` weight file into a sealed `.spx` artifact.
///
/// The legacy file is self-describing (names, shapes, data), so no
/// model is needed. This one-shot upgrade is the only reader of the
/// legacy format.
///
/// # Errors
///
/// Returns [`NnError::Io`] on filesystem failures and
/// [`NnError::Format`] when the source file is malformed.
pub fn convert_params_to_artifact(src: impl AsRef<Path>, dst: impl AsRef<Path>) -> Result<()> {
    let bytes = std::fs::read(src)?;
    let mut store = ParamStore::new();
    for (name, tensor) in read_legacy(&bytes)? {
        store.register(name, tensor);
    }
    write_artifact(&store, dst)
}

/// An opened, fully validated `.spx` artifact.
///
/// Construction reads the file once, verifies the checksum and every
/// table invariant, and converts the payload into one shared buffer.
/// Every tensor handed out afterwards is a zero-copy read-only window
/// into that buffer: cloning it, or cloning a [`ParamStore`] filled by
/// [`ArtifactReader::load_into`], bumps a reference count instead of
/// copying weights.
#[derive(Debug, Clone)]
pub struct ArtifactReader {
    infos: Vec<TensorInfo>,
    payload: SharedBuffer,
}

impl ArtifactReader {
    /// Opens and validates the artifact at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] when the file cannot be read and
    /// [`NnError::Format`] for every structural violation: bad magic,
    /// unknown version, nonzero reserved bytes, a table that does not
    /// parse exactly within its declared size, non-UTF-8 or duplicate
    /// names, unknown dtype tags, misaligned or out-of-bounds or
    /// overlapping tensor offsets, size mismatches, trailing bytes, or
    /// a checksum mismatch.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::parse(&bytes)
    }

    fn parse(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < SPX_HEADER_BYTES + size_of::<u64>() {
            return Err(format_err(format!(
                "truncated artifact: {} bytes is smaller than header + checksum",
                bytes.len()
            )));
        }
        // Checksum first: it covers everything before it, so any other
        // corruption this parser detects is also a checksum mismatch —
        // but checking up front gives corrupt files one uniform error.
        let (body, tail) = bytes.split_at(bytes.len() - size_of::<u64>());
        let declared = u64::from_le_bytes(tail.try_into().expect("8-byte split"));
        let actual = fnv1a64(body);
        if declared != actual {
            return Err(format_err(format!(
                "checksum mismatch: file says {declared:#018x}, computed {actual:#018x}"
            )));
        }

        let mut c = Cursor::new(body);
        if c.take(SPX_MAGIC.len())? != SPX_MAGIC {
            return Err(format_err("bad magic (not a .spx artifact)"));
        }
        let version = c.u32()?;
        if version != SPX_VERSION {
            return Err(format_err(format!(
                "unsupported artifact version {version} (this build reads {SPX_VERSION})"
            )));
        }
        let count = c.u32()? as usize;
        let table_bytes = c.u64()? as usize;
        let payload_bytes = c.u64()? as usize;
        if c.take(SPX_HEADER_BYTES - 32)?.iter().any(|&b| b != 0) {
            return Err(format_err("reserved header bytes are not zero"));
        }

        let table = c.take(table_bytes).map_err(|_| {
            format_err(format!(
                "table_bytes {table_bytes} exceeds the file's {} remaining bytes",
                body.len() - SPX_HEADER_BYTES
            ))
        })?;
        let mut infos = Vec::with_capacity(count.min(1024));
        let mut names = std::collections::HashSet::new();
        let mut t = Cursor::new(table);
        for i in 0..count {
            let name_len = t.u32()? as usize;
            let name = String::from_utf8(t.take(name_len)?.to_vec())
                .map_err(|_| format_err(format!("tensor {i}: name is not UTF-8")))?;
            if !names.insert(name.clone()) {
                return Err(format_err(format!("duplicate tensor name {name}")));
            }
            let tag = t.take(1)?[0];
            let dtype = DType::from_tag(tag)
                .ok_or_else(|| format_err(format!("{name}: unknown dtype tag {tag}")))?;
            let rank = t.take(1)?[0] as usize;
            let reserved = t.take(2)?;
            if reserved != [0, 0] {
                return Err(format_err(format!("{name}: reserved table bytes not zero")));
            }
            let offset = t.u64()? as usize;
            let data_bytes = t.u64()? as usize;
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                shape.push(t.u64()? as usize);
            }
            let elems = shape
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| format_err(format!("{name}: element count overflow")))?;
            let expected = elems
                .checked_mul(dtype.size_of())
                .ok_or_else(|| format_err(format!("{name}: data size overflow")))?;
            if data_bytes != expected {
                return Err(format_err(format!(
                    "{name}: data_bytes {data_bytes} does not match shape {shape:?} ({expected})"
                )));
            }
            if !offset.is_multiple_of(SPX_ALIGN) {
                return Err(format_err(format!(
                    "{name}: payload offset {offset} is not {SPX_ALIGN}-byte aligned"
                )));
            }
            let end = offset
                .checked_add(data_bytes)
                .ok_or_else(|| format_err(format!("{name}: payload extent overflow")))?;
            if end > payload_bytes {
                return Err(format_err(format!(
                    "{name}: payload window {offset}..{end} exceeds payload of {payload_bytes} bytes"
                )));
            }
            infos.push(TensorInfo {
                name,
                dtype,
                shape,
                offset,
                data_bytes,
            });
        }
        if t.remaining() != 0 {
            return Err(format_err(format!(
                "table declares {count} tensors but {} bytes of table remain",
                t.remaining()
            )));
        }
        // Tensor data regions must not overlap.
        let mut spans: Vec<(usize, usize, &str)> = infos
            .iter()
            .map(|i| (i.offset, i.offset + i.data_bytes, i.name.as_str()))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format_err(format!(
                    "tensors {} and {} overlap in the payload",
                    pair[0].2, pair[1].2
                )));
            }
        }

        let payload_start = align_up(SPX_HEADER_BYTES + table_bytes, SPX_ALIGN);
        let expected_len = payload_start
            .checked_add(payload_bytes)
            .ok_or_else(|| format_err("file size overflow"))?;
        match body.len().cmp(&expected_len) {
            std::cmp::Ordering::Less => {
                return Err(format_err(format!(
                    "truncated artifact: header promises {expected_len} bytes before the \
                     checksum, file has {}",
                    body.len()
                )))
            }
            std::cmp::Ordering::Greater => {
                return Err(format_err(format!(
                    "trailing bytes: {} past the declared payload",
                    body.len() - expected_len
                )))
            }
            std::cmp::Ordering::Equal => {}
        }
        if !payload_bytes.is_multiple_of(4) {
            return Err(format_err(format!(
                "payload of {payload_bytes} bytes is not a whole number of f32 elements"
            )));
        }

        // The single copy from disk bytes into the shared element
        // buffer; everything handed out after this is zero-copy.
        let payload: Vec<f32> = body[payload_start..]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(ArtifactReader {
            infos,
            payload: Arc::new(payload),
        })
    }

    /// Number of tensors in the artifact.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Returns `true` when the artifact holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Tensor names in table order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.infos.iter().map(|i| i.name.as_str())
    }

    /// Shape of the named tensor, when present.
    pub fn shape(&self, name: &str) -> Option<&[usize]> {
        self.info(name).map(|i| i.shape.as_slice())
    }

    /// The named tensor as a zero-copy window into the shared payload
    /// buffer, or `None` when the artifact has no tensor of that name.
    pub fn tensor(&self, name: &str) -> Option<Tensor> {
        let info = self.info(name)?;
        let offset_elems = info.offset / info.dtype.size_of();
        Some(
            Tensor::from_shared(Arc::clone(&self.payload), offset_elems, &info.shape)
                .expect("validated at open: window within payload"),
        )
    }

    /// Loads every tensor into `store`, matching by name: every
    /// artifact tensor must name a store parameter of identical shape,
    /// and store parameters absent from the artifact keep their values
    /// (this is how a pre-trained encoder is loaded underneath a fresh
    /// task head). The assigned tensors share this reader's payload
    /// buffer instead of owning copies.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Format`] for unknown names or shape
    /// mismatches.
    pub fn load_into(&self, store: &mut ParamStore) -> Result<()> {
        let entries = self
            .infos
            .iter()
            .map(|i| {
                (
                    i.name.clone(),
                    self.tensor(&i.name).expect("info exists for its own name"),
                )
            })
            .collect();
        apply_entries(store, entries)
    }

    /// The shared payload buffer. Two readers (or tensors) sharing
    /// weights satisfy [`Arc::ptr_eq`] on their buffers.
    pub fn payload_buffer(&self) -> &SharedBuffer {
        &self.payload
    }

    /// Bytes of weight data resident in memory for this artifact — the
    /// size of the single shared payload buffer, however many replicas
    /// reference it.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len() * size_of::<f32>()
    }

    fn info(&self, name: &str) -> Option<&TensorInfo> {
        self.infos.iter().find(|i| i.name == name)
    }
}

/// Writes `(name, tensor)` entries into `store`, matching by name.
///
/// The load rule of [`ArtifactReader::load_into`]: every entry must
/// name a store parameter of identical shape; store parameters absent
/// from `entries` keep their current values.
fn apply_entries(store: &mut ParamStore, entries: Vec<(String, Tensor)>) -> Result<()> {
    let by_name: std::collections::HashMap<String, crate::ParamId> = store
        .iter()
        .map(|(id, name, _)| (name.to_string(), id))
        .collect();
    for (name, tensor) in entries {
        let id = *by_name.get(&name).ok_or_else(|| NnError::Format {
            context: format!("file contains unknown parameter {name}"),
        })?;
        if store.value(id).shape() != tensor.shape() {
            return Err(NnError::Format {
                context: format!(
                    "shape mismatch for {name}: file {:?} vs store {:?}",
                    tensor.shape(),
                    store.value(id).shape()
                ),
            });
        }
        *store.value_mut(id) = tensor;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn align_up_rounds_to_boundary() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn empty_store_round_trips() {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "snappix_nn_artifact_empty_{}.spx",
            std::process::id()
        ));
        write_artifact(&ParamStore::new(), &p).unwrap();
        let reader = ArtifactReader::open(&p).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.payload_bytes(), 0);
        std::fs::remove_file(p).ok();
    }
}
