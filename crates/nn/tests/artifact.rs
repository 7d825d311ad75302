//! Integration tests for the `.spx` model artifact: round-trips,
//! zero-copy sharing, the legacy converter, a golden header hexdump
//! pinning the byte layout, a corrupt-file rejection suite and a
//! mutation fuzz over both weight parsers — every malformed input must
//! fail with a typed [`NnError`], never a panic.

#[path = "support/legacy.rs"]
mod legacy;

use legacy::legacy_bytes;
use proptest::prelude::*;
use snappix_nn::{
    convert_params_to_artifact, fnv1a64, write_artifact, ArtifactReader, NnError, ParamStore,
    SPX_HEADER_BYTES,
};
use snappix_tensor::Tensor;
use std::sync::Arc;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "snappix_artifact_{}_{name}.spx",
        std::process::id()
    ));
    p
}

/// A small store with varied shapes; values are deterministic.
fn sample_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.register("codec.mask", Tensor::arange(64).reshape(&[8, 8]).unwrap());
    store.register(
        "head.weight",
        Tensor::linspace(-1.0, 1.0, 80).reshape(&[5, 16]).unwrap(),
    );
    store.register("head.bias", Tensor::full(&[5], 0.125));
    store
}

fn fresh_target() -> ParamStore {
    let mut store = ParamStore::new();
    store.register("codec.mask", Tensor::zeros(&[8, 8]));
    store.register("head.weight", Tensor::zeros(&[5, 16]));
    store.register("head.bias", Tensor::zeros(&[5]));
    store
}

/// Recomputes the trailing checksum after a deliberate mutation, so the
/// parser exercises the *specific* validation under test rather than
/// reporting every corruption as a checksum mismatch.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..n]);
    bytes[n..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn open_bytes(name: &str, bytes: &[u8]) -> Result<ArtifactReader, NnError> {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let out = ArtifactReader::open(&path);
    std::fs::remove_file(path).ok();
    out
}

fn expect_format(name: &str, bytes: &[u8], needle: &str) {
    match open_bytes(name, bytes) {
        Err(NnError::Format { context }) => assert!(
            context.contains(needle),
            "{name}: expected context containing {needle:?}, got {context:?}"
        ),
        Err(other) => panic!("{name}: expected Format, got {other:?}"),
        Ok(_) => panic!("{name}: corrupt artifact was accepted"),
    }
}

fn pristine_bytes() -> Vec<u8> {
    // Per-thread file: tests run in parallel and each removes its copy.
    let path = temp_path(&format!("pristine_{:?}", std::thread::current().id()));
    write_artifact(&sample_store(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    bytes
}

fn legacy_store_bytes(store: &ParamStore) -> Vec<u8> {
    legacy_bytes(store.iter().map(|(_, name, value)| (name, value)))
}

#[test]
fn round_trip_hands_back_identical_values() {
    let store = sample_store();
    let path = temp_path("round_trip");
    write_artifact(&store, &path).unwrap();
    let reader = ArtifactReader::open(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reader.len(), 3);
    assert!(!reader.is_empty());
    assert_eq!(
        reader.names().collect::<Vec<_>>(),
        ["codec.mask", "head.weight", "head.bias"]
    );
    assert_eq!(reader.shape("head.weight"), Some(&[5usize, 16][..]));
    assert_eq!(reader.shape("nope"), None);
    assert!(reader.tensor("nope").is_none());
    for (_, name, value) in store.iter() {
        let loaded = reader.tensor(name).unwrap();
        assert_eq!(&loaded, value, "tensor {name} must round-trip bit-for-bit");
        assert!(Arc::ptr_eq(loaded.shared_buffer(), reader.payload_buffer()));
    }
}

#[test]
fn load_into_semantics_match_the_source_store() {
    let store = sample_store();
    let spx = temp_path("load_into");
    write_artifact(&store, &spx).unwrap();
    let reader = ArtifactReader::open(&spx).unwrap();
    std::fs::remove_file(spx).ok();

    let mut loaded = fresh_target();
    reader.load_into(&mut loaded).unwrap();
    for ((_, name, a), (_, _, b)) in loaded.iter().zip(store.iter()) {
        assert_eq!(a, b, "parameter {name} must match the source store");
    }

    // Store params absent from the artifact keep their values…
    let mut bigger = fresh_target();
    let extra = bigger.register("extra.head", Tensor::full(&[3], 7.0));
    reader.load_into(&mut bigger).unwrap();
    assert_eq!(bigger.value(extra).as_slice(), &[7.0; 3]);

    // …but artifact tensors unknown to the store are an error, as is a
    // shape mismatch.
    let mut unknown = ParamStore::new();
    unknown.register("codec.mask", Tensor::zeros(&[8, 8]));
    assert!(matches!(
        reader.load_into(&mut unknown),
        Err(NnError::Format { .. })
    ));
    let mut misshapen = fresh_target();
    *misshapen.value_mut(misshapen.ids()[0]) = Tensor::zeros(&[4, 16]);
    assert!(matches!(
        reader.load_into(&mut misshapen),
        Err(NnError::Format { .. })
    ));
}

#[test]
fn loaded_tensors_share_one_payload_buffer() {
    let path = temp_path("zero_copy");
    write_artifact(&sample_store(), &path).unwrap();
    let reader = ArtifactReader::open(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Every handed-out tensor is a window into the reader's buffer.
    let a = reader.tensor("codec.mask").unwrap();
    let b = reader.tensor("head.weight").unwrap();
    assert!(Arc::ptr_eq(a.shared_buffer(), reader.payload_buffer()));
    assert!(Arc::ptr_eq(a.shared_buffer(), b.shared_buffer()));

    // Two stores loaded from the same reader share it too — this is the
    // n-replica case.
    let mut r1 = fresh_target();
    let mut r2 = fresh_target();
    reader.load_into(&mut r1).unwrap();
    reader.load_into(&mut r2).unwrap();
    for (id1, id2) in r1.ids().into_iter().zip(r2.ids()) {
        assert!(Arc::ptr_eq(
            r1.value(id1).shared_buffer(),
            r2.value(id2).shared_buffer()
        ));
    }
    // Shared resident bytes: two replicas cost one payload.
    let one = snappix_nn::resident_weight_bytes([&r1]);
    let two = snappix_nn::resident_weight_bytes([&r1, &r2]);
    assert_eq!(one, reader.payload_bytes());
    assert_eq!(two, one, "a second replica must add no resident bytes");

    // Mutating a shared parameter detaches a private copy and leaves
    // the payload untouched.
    let id = r1.ids()[0];
    let before = reader.tensor("codec.mask").unwrap();
    r1.value_mut(id).as_mut_slice()[0] = -999.0;
    assert_eq!(before, reader.tensor("codec.mask").unwrap());
    assert_eq!(r2.value(r2.ids()[0]).as_slice()[0], 0.0);
}

#[test]
fn converter_upgrades_legacy_files() {
    let store = sample_store();
    let legacy = temp_path("convert_src");
    let spx = temp_path("convert_dst");
    std::fs::write(&legacy, legacy_store_bytes(&store)).unwrap();
    convert_params_to_artifact(&legacy, &spx).unwrap();
    let reader = ArtifactReader::open(&spx).unwrap();
    for (_, name, value) in store.iter() {
        assert_eq!(&reader.tensor(name).unwrap(), value);
    }
    // Converting a malformed legacy file is a typed error.
    std::fs::write(&legacy, b"NOPE").unwrap();
    assert!(matches!(
        convert_params_to_artifact(&legacy, &spx),
        Err(NnError::Format { .. })
    ));
    std::fs::remove_file(legacy).ok();
    std::fs::remove_file(spx).ok();
}

#[test]
fn duplicate_store_names_are_rejected_at_write_time() {
    let mut store = ParamStore::new();
    store.register("w", Tensor::zeros(&[2]));
    store.register("w", Tensor::zeros(&[2]));
    let path = temp_path("dup_write");
    assert!(matches!(
        write_artifact(&store, &path),
        Err(NnError::Format { .. })
    ));
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------------
// Corrupt-artifact rejection suite. Header layout (see docs/FORMAT.md):
// magic 0..8, version 8..12, count 12..16, table_bytes 16..24,
// payload_bytes 24..32, reserved 32..64, table from 64. For
// `sample_store()` the first table row is "codec.mask" (rank 2):
// name_len at 64, name at 68, dtype at 78, rank at 79, reserved 80..82,
// offset 82..90, data_bytes 90..98, extents 98..114.
// ---------------------------------------------------------------------

const ROW0_NAME: usize = 68;
const ROW0_DTYPE: usize = 78;
const ROW0_RESERVED: usize = 80;
const ROW0_OFFSET: usize = 82;
const ROW0_DATA_BYTES: usize = 90;

#[test]
fn rejects_bad_magic() {
    let mut bytes = pristine_bytes();
    bytes[0] ^= 0xff;
    expect_format("bad_magic", &reseal(bytes), "bad magic");
}

#[test]
fn rejects_unknown_version() {
    let mut bytes = pristine_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    expect_format("version", &reseal(bytes), "unsupported artifact version");
}

#[test]
fn rejects_nonzero_reserved_header_bytes() {
    let mut bytes = pristine_bytes();
    bytes[40] = 1;
    expect_format("reserved_header", &reseal(bytes), "reserved header");
}

#[test]
fn rejects_non_utf8_name() {
    let mut bytes = pristine_bytes();
    bytes[ROW0_NAME] = 0xff;
    expect_format("utf8_name", &reseal(bytes), "not UTF-8");
}

#[test]
fn rejects_unknown_dtype_tag() {
    let mut bytes = pristine_bytes();
    bytes[ROW0_DTYPE] = 0x7f;
    expect_format("dtype", &reseal(bytes), "unknown dtype tag");
}

#[test]
fn rejects_nonzero_reserved_table_bytes() {
    let mut bytes = pristine_bytes();
    bytes[ROW0_RESERVED] = 1;
    expect_format("reserved_table", &reseal(bytes), "reserved table bytes");
}

#[test]
fn rejects_misaligned_payload_offset() {
    let mut bytes = pristine_bytes();
    bytes[ROW0_OFFSET..ROW0_OFFSET + 8].copy_from_slice(&1u64.to_le_bytes());
    expect_format("misaligned", &reseal(bytes), "not 64-byte aligned");
}

#[test]
fn rejects_out_of_bounds_offset() {
    let mut bytes = pristine_bytes();
    // Aligned, but the 256-byte window starting there runs past the
    // payload.
    bytes[ROW0_OFFSET..ROW0_OFFSET + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
    expect_format("oob", &reseal(bytes), "exceeds payload");
}

#[test]
fn rejects_overlapping_tensors() {
    let mut bytes = pristine_bytes();
    // Point "codec.mask" (offset 0 already) and "head.weight" at the
    // same payload region. Row 1 starts at 114; its offset field sits
    // after name_len(4) + "head.weight"(11) + dtype(1) + rank(1) +
    // reserved(2) = 19 bytes.
    let row1_offset = 114 + 19;
    bytes[row1_offset..row1_offset + 8].copy_from_slice(&0u64.to_le_bytes());
    expect_format("overlap", &reseal(bytes), "overlap");
}

#[test]
fn rejects_data_bytes_shape_mismatch() {
    let mut bytes = pristine_bytes();
    bytes[ROW0_DATA_BYTES..ROW0_DATA_BYTES + 8].copy_from_slice(&12u64.to_le_bytes());
    expect_format("size_mismatch", &reseal(bytes), "does not match shape");
}

#[test]
fn rejects_duplicate_names() {
    // Two equal-length names so row 1's can be overwritten with row 0's
    // without shifting any table offsets.
    let mut store = ParamStore::new();
    store.register("aaaa", Tensor::zeros(&[2]));
    store.register("bbbb", Tensor::zeros(&[2]));
    let path = temp_path("dup_src");
    write_artifact(&store, &path).unwrap();
    let mut raw = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // Row 0 name at 68..72, row 1 name at 64 + 32 + 4 = 100..104 (each
    // row: 4 + 4 + 1 + 1 + 2 + 8 + 8 + 8 = 36 bytes; row 1 name_len at
    // 100, name at 104).
    raw.copy_within(68..72, 104);
    expect_format("dup_names", &reseal(raw), "duplicate tensor name");
}

#[test]
fn rejects_table_not_parsing_exactly() {
    let mut bytes = pristine_bytes();
    // Declare zero tensors while the table bytes stay: leftover table.
    bytes[12..16].copy_from_slice(&0u32.to_le_bytes());
    expect_format("table_leftover", &reseal(bytes), "bytes of table remain");

    // Declare a table larger than the file.
    let mut bytes = pristine_bytes();
    bytes[16..24].copy_from_slice(&(1u64 << 32).to_le_bytes());
    expect_format("table_huge", &reseal(bytes), "table_bytes");
}

#[test]
fn rejects_trailing_bytes() {
    let mut bytes = pristine_bytes();
    let checksum_at = bytes.len() - 8;
    bytes.insert(checksum_at, 0xAA); // one byte between payload and seal
    expect_format("trailing", &reseal(bytes), "trailing bytes");
}

#[test]
fn rejects_checksum_mismatch() {
    let mut bytes = pristine_bytes();
    let n = bytes.len();
    bytes[n - 20] ^= 0x01; // flip one payload bit, leave the seal stale
    expect_format("checksum", &bytes, "checksum mismatch");
}

#[test]
fn rejects_truncation_at_every_cut() {
    let bytes = pristine_bytes();
    for cut in [
        bytes.len() - 1,
        bytes.len() - 9,
        bytes.len() / 2,
        SPX_HEADER_BYTES + 3,
        SPX_HEADER_BYTES,
        10,
        0,
    ] {
        match open_bytes("truncate", &bytes[..cut]) {
            Err(NnError::Format { .. }) => {}
            Err(other) => panic!("cut at {cut}: expected Format, got {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated artifact was accepted"),
        }
    }
    // A truncation that is re-sealed (checksum valid over the shorter
    // body) must still fail the declared-length check.
    let mut shorter = bytes[..bytes.len() - 8 - 16].to_vec();
    shorter.extend_from_slice(&[0u8; 8]);
    expect_format("truncate_resealed", &reseal(shorter), "truncated artifact");
}

// ---------------------------------------------------------------------
// Mutation fuzz over both weight parsers: random single-byte overwrites
// (resealed and stale), truncations and appended tails of a valid file.
// Each outcome must be a typed format error or a reader whose tensors
// are all present and load cleanly — never a panic.
// ---------------------------------------------------------------------

/// Checks what opening (or converting) a mutated file produced, and
/// returns whether it was accepted. An accepted reader must hand out
/// every tensor it lists, and loading it into [`fresh_target`] must
/// succeed exactly when its names and shapes all match the target.
fn check_outcome(label: &str, outcome: Result<ArtifactReader, NnError>) -> bool {
    let reader = match outcome {
        Err(NnError::Format { .. }) => return false,
        Err(other) => panic!("{label}: expected Format, got {other:?}"),
        Ok(reader) => reader,
    };
    let mut target = fresh_target();
    let mut fits = true;
    for name in reader.names() {
        let tensor = reader
            .tensor(name)
            .unwrap_or_else(|| panic!("{label}: listed tensor {name} is missing"));
        assert_eq!(Some(tensor.shape()), reader.shape(name), "{label}: {name}");
        fits &= target
            .iter()
            .any(|(_, n, v)| n == name && v.shape() == tensor.shape());
    }
    match reader.load_into(&mut target) {
        Ok(()) => assert!(fits, "{label}: a mismatched artifact loaded"),
        Err(NnError::Format { .. }) => assert!(!fits, "{label}: a matching artifact failed"),
        Err(other) => panic!("{label}: expected Format, got {other:?}"),
    }
    true
}

/// Runs legacy bytes through the converter and opens its output.
fn convert_bytes(name: &str, bytes: &[u8]) -> Result<ArtifactReader, NnError> {
    let src = temp_path(&format!("{name}_src"));
    let dst = temp_path(&format!("{name}_dst"));
    std::fs::write(&src, bytes).unwrap();
    let out = convert_params_to_artifact(&src, &dst)
        .map(|()| ArtifactReader::open(&dst).expect("the converter writes valid artifacts"));
    std::fs::remove_file(src).ok();
    std::fs::remove_file(dst).ok();
    out
}

/// The header's `table_bytes` field.
fn table_bytes(artifact: &[u8]) -> usize {
    u64::from_le_bytes(artifact[16..24].try_into().unwrap()) as usize
}

fn overwrite(mut bytes: Vec<u8>, at: usize, byte: u16) -> Vec<u8> {
    let at = at % bytes.len();
    bytes[at] = byte as u8;
    bytes
}

fn with_tail(mut bytes: Vec<u8>, tail: &[u16]) -> Vec<u8> {
    bytes.extend(tail.iter().map(|&b| b as u8));
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn artifact_parser_survives_random_mutations(
        at in 0usize..1 << 16,
        byte in 0u16..256,
        cut in 0usize..1 << 16,
        tail in prop::collection::vec(0u16..256, 1..24),
    ) {
        let pristine = pristine_bytes();
        // Most bytes are weight values; aim one overwrite at the header
        // and table, where a resealed change alters structure.
        let described = SPX_HEADER_BYTES + table_bytes(&pristine);
        let in_table = overwrite(pristine.clone(), at % described, byte);
        check_outcome("resealed table overwrite", open_bytes("fuzz", &reseal(in_table)));
        let mutated = overwrite(pristine.clone(), at, byte);
        check_outcome("resealed overwrite", open_bytes("fuzz", &reseal(mutated.clone())));
        // FNV-1a 64 changes with every single-byte change, so a stale
        // seal admits only the unchanged file.
        let accepted = check_outcome("stale overwrite", open_bytes("fuzz", &mutated));
        prop_assert_eq!(accepted, mutated == pristine);
        let cut = cut % pristine.len();
        prop_assert!(!check_outcome("truncation", open_bytes("fuzz", &pristine[..cut])));
        let longer = with_tail(pristine.clone(), &tail);
        prop_assert!(!check_outcome("stale tail", open_bytes("fuzz", &longer)));
        prop_assert!(!check_outcome("resealed tail", open_bytes("fuzz", &reseal(longer))));
    }

    #[test]
    fn legacy_converter_survives_random_mutations(
        at in 0usize..1 << 16,
        byte in 0u16..256,
        cut in 0usize..1 << 16,
        tail in prop::collection::vec(0u16..256, 1..24),
    ) {
        let pristine = legacy_store_bytes(&sample_store());
        // The first 64 bytes hold the stream header and the first
        // record's name and shape.
        let in_head = overwrite(pristine.clone(), at % 64, byte);
        check_outcome("head overwrite", convert_bytes("fuzz_legacy", &in_head));
        let mutated = overwrite(pristine.clone(), at, byte);
        check_outcome("overwrite", convert_bytes("fuzz_legacy", &mutated));
        let cut = cut % pristine.len();
        prop_assert!(!check_outcome("truncation", convert_bytes("fuzz_legacy", &pristine[..cut])));
        let longer = with_tail(pristine, &tail);
        prop_assert!(!check_outcome("tail", convert_bytes("fuzz_legacy", &longer)));
    }
}

// ---------------------------------------------------------------------
// Golden header: pins the byte-for-byte layout of the header + table
// against accidental format drift. Regenerate deliberately with
// `SNAPPIX_UPDATE_GOLDEN=1 cargo test -p snappix-nn --test artifact`.
// ---------------------------------------------------------------------

fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(&format!("{:08x}:", i * 16));
        for b in chunk {
            out.push_str(&format!(" {b:02x}"));
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_header_pins_byte_layout() {
    let bytes = pristine_bytes();
    let dump = hexdump(&bytes[..SPX_HEADER_BYTES + table_bytes(&bytes)]);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/header.hex");
    if std::env::var_os("SNAPPIX_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden, &dump).unwrap();
    }
    let expected = std::fs::read_to_string(golden).expect("golden header checked in");
    assert_eq!(
        dump, expected,
        "artifact header/table bytes drifted from tests/golden/header.hex; if the \
         format change is deliberate, bump SPX_VERSION, update docs/FORMAT.md, and \
         regenerate with SNAPPIX_UPDATE_GOLDEN=1"
    );
}
