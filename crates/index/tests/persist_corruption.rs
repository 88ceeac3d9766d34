//! Corruption suite for the persisted artifacts: the full index
//! (`VERIDX\x04`) and a shard of it (`VERSHD\x02`), which share one
//! section framing.
//!
//! The crash-safety contract under test: **any** single-byte flip and
//! **any** truncation of a saved artifact must come back from its loader
//! ([`index_from_bytes`] / [`shard_from_bytes`]) as `VerError::Serde` —
//! never a panic, never a successfully-loaded wrong index. The whole-file
//! trailer checksum is verified before any parsing, which is what makes
//! the property hold at *every* offset (payloads, length fields, section
//! checksums, the trailer itself, even the magic — a damaged magic falls
//! through to the bad-magic error, still `Serde`). Alongside the
//! properties, the retired `VERIDX\x02`, `VERIDX\x03` and `VERSHD\x01`
//! layouts are pinned as *rejected*: typed error naming the magic, never a
//! panic, never a partial index.

use proptest::prelude::*;
use std::sync::OnceLock;
use ver_common::error::VerError;
use ver_common::value::Value;
use ver_index::persist::{index_from_bytes, index_to_bytes};
use ver_index::shard::{partition_index, shard_from_bytes, shard_to_bytes};
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

/// Small two-table catalog with joinable text columns, ints and nulls —
/// enough to populate every section of the artifact.
fn catalog() -> TableCatalog {
    let mut cat = TableCatalog::new();
    let states: Vec<String> = (0..50).map(|i| format!("state_{i}")).collect();
    let mut b = TableBuilder::new("airports", &["iata", "state"]);
    for (i, s) in states.iter().take(40).enumerate() {
        b.push_row(vec![
            Value::text(format!("A{i:03}")),
            Value::text(s.clone()),
        ])
        .unwrap();
    }
    cat.add_table(b.build()).unwrap();
    let mut b = TableBuilder::new("states", &["name", "pop"]);
    for (i, s) in states.iter().enumerate() {
        let pop = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int(1000 + i as i64)
        };
        b.push_row(vec![Value::text(s.clone()), pop]).unwrap();
    }
    cat.add_table(b.build()).unwrap();
    cat
}

fn index() -> &'static DiscoveryIndex {
    static IDX: OnceLock<DiscoveryIndex> = OnceLock::new();
    IDX.get_or_init(|| {
        build_index(
            &catalog(),
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap()
    })
}

/// The canonical `\x04` artifact, built once for all properties.
fn v4_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| index_to_bytes(index()).to_vec())
}

/// An artifact and its loader, reduced to "did it load".
type Artifact = (&'static [u8], fn(&[u8]) -> Result<(), VerError>);

/// The inputs every property runs over: the full index, and shard 0 of a
/// two-way partition of it.
fn artifact(shard: bool) -> Artifact {
    static SHARD: OnceLock<Vec<u8>> = OnceLock::new();
    if shard {
        let bytes = SHARD.get_or_init(|| shard_to_bytes(&partition_index(index(), 2)[0]).to_vec());
        (bytes, |b| shard_from_bytes(b).map(drop))
    } else {
        (v4_bytes(), |b| index_from_bytes(b).map(drop))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn any_single_byte_flip_fails_with_serde(
        shard in any::<bool>(),
        offset_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let (bytes, load) = artifact(shard);
        let offset = (offset_seed % bytes.len() as u64) as usize;
        let mut bad = bytes.to_vec();
        bad[offset] ^= 1u8 << bit;
        match load(&bad) {
            Err(VerError::Serde(_)) => {}
            Ok(_) => prop_assert!(
                false,
                "flip at offset {offset} bit {bit} loaded successfully"
            ),
            Err(e) => prop_assert!(
                false,
                "flip at offset {offset} bit {bit}: non-Serde error {e:?}"
            ),
        }
    }

    #[test]
    fn any_truncation_fails_with_serde(shard in any::<bool>(), len_seed in any::<u64>()) {
        let (bytes, load) = artifact(shard);
        // Every proper prefix, including the empty one.
        let keep = (len_seed % bytes.len() as u64) as usize;
        match load(&bytes[..keep]) {
            Err(VerError::Serde(_)) => {}
            Ok(_) => prop_assert!(false, "truncation to {keep} bytes loaded"),
            Err(e) => prop_assert!(false, "truncation to {keep}: non-Serde {e:?}"),
        }
    }

    #[test]
    fn any_two_byte_swap_fails_or_is_identity(
        shard in any::<bool>(),
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
    ) {
        // Transpositions model a different physical failure than flips;
        // swapping two unequal bytes must also be caught by the trailer.
        let (bytes, load) = artifact(shard);
        let a = (a_seed % bytes.len() as u64) as usize;
        let b = (b_seed % bytes.len() as u64) as usize;
        let mut bad = bytes.to_vec();
        bad.swap(a, b);
        if bad == bytes {
            // Swapped equal bytes: still the intact artifact.
            prop_assert!(load(&bad).is_ok());
        } else {
            match load(&bad) {
                Err(VerError::Serde(_)) => {}
                Ok(_) => prop_assert!(false, "swap ({a},{b}) loaded"),
                Err(e) => prop_assert!(false, "swap ({a},{b}): non-Serde {e:?}"),
            }
        }
    }
}

#[test]
fn intact_v4_round_trips_to_same_contents() {
    // The current magics, pinned: a format bump must rename these tests.
    assert_eq!(&v4_bytes()[..8], b"VERIDX\x04\x00");
    assert_eq!(&artifact(true).0[..8], b"VERSHD\x02\x00");
    let loaded = index_from_bytes(v4_bytes()).unwrap();
    assert!(loaded.same_contents(index()));
}

#[test]
fn retired_v2_magic_fails_typed_naming_the_magic() {
    // A retired-magic file — here the worst case, an otherwise byte-valid
    // artifact — is refused before any decoding: the `\x02` and `\x03`
    // full indexes and the `\x01` shard, which carried signatures.
    let shard = shard_to_bytes(&partition_index(index(), 2)[0]).to_vec();
    type Load = fn(&[u8]) -> Result<(), VerError>;
    let cases: [(&[u8], u8, &str, Load); 3] = [
        (v4_bytes(), 0x02, "VERIDX\\x02", |b| {
            index_from_bytes(b).map(drop)
        }),
        (v4_bytes(), 0x03, "VERIDX\\x03", |b| {
            index_from_bytes(b).map(drop)
        }),
        (&shard, 0x01, "VERSHD\\x01", |b| {
            shard_from_bytes(b).map(drop)
        }),
    ];
    for (bytes, version, name, load) in cases {
        let mut retired = bytes.to_vec();
        retired[6] = version;
        match load(&retired) {
            Err(VerError::Serde(m)) => assert!(m.contains("bad magic") && m.contains(name), "{m}"),
            other => panic!("expected Serde naming {name}, got {other:?}"),
        }
    }
    // Re-saving a load produces the canonical bytes.
    let loaded = index_from_bytes(v4_bytes()).unwrap();
    assert_eq!(index_to_bytes(&loaded).as_ref(), v4_bytes());
}

#[test]
fn empty_and_garbage_inputs_are_serde_errors() {
    for bad in [
        &[][..],
        b"VERIDX",
        b"VERIDX\x01\x00",
        b"VERIDX\x03\x00",
        b"VERIDX\x04\x00",
        b"not an artifact at all",
        &[0u8; 64][..],
    ] {
        match index_from_bytes(bad) {
            Err(VerError::Serde(_)) => {}
            other => panic!("{bad:?}: expected Serde, got {other:?}"),
        }
    }
}
