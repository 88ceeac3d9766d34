//! Binary persistence of the offline pass's products.
//!
//! One format lives here, hand-rolled on the byte-level kit in
//! [`ver_common::codec`] (the serde stand-in under `vendor/` is a no-op, so
//! persistence cannot lean on derives); this module owns the layout and
//! the codecs of the index's own types, the kit the integers, strings,
//! counts and the checksum fold: the **checksummed full-index format**
//! (`VERIDX\x04`) — everything [`DiscoveryIndex`] holds, as four payload
//! sections (build config, column profiles, keyword index, hypergraph),
//! each framed as `len u64 · payload · checksum u64`, followed by a
//! whole-file trailer checksum. The build's MinHash signatures and
//! distinct-hash vectors are not stored: no query reads them, and they end
//! with the build. (The layouts before it — the hypergraph-only
//! `VERIDX\x01`, the unchecksummed `VERIDX\x02`, and `VERIDX\x03`, which
//! also carried signatures, value samples and table-name postings — are
//! not read: such a file fails with a typed bad-magic error naming the
//! magic it carries.) This is what [`save_index`] writes and what the
//! `ver-serve` serving layer warm-starts from: [`load_index`] must
//! reproduce the in-memory index **exactly**
//! ([`DiscoveryIndex::same_contents`]), so a warm-started engine answers
//! queries bit-identically to one that rebuilt the index from the catalog.
//! See ARCHITECTURE.md ("Offline → online contract").
//!
//! ```text
//! full index  "VERIDX\x04"
//!   4 × section   len u64 · payload · checksum u64     (fxhash-folded)
//!     config      minhash_k u32 · containment f64 · verify_exact u8 ·
//!                 threads u32 · seed u64 · value_cap u64
//!     profiles    n u32 × { id u32 · table u32 · ordinal u16 · dtype u8 ·
//!                           rows/nulls/distinct u64 }
//!     keyword     values/attributes [str → [u32]]   (key-sorted = canonical)
//!     graph       ncols u32 · tabs u32×n · edges u64 × (u32, u32, f32)
//!   trailer       checksum u64 over every preceding byte (magic included)
//! ```
//!
//! **Corruption detection.** The trailer checksum is verified over the raw
//! bytes *before any parsing*, so a truncated download, a torn write, or a
//! single flipped bit anywhere in the artifact — length fields and the
//! trailer itself included — fails with [`VerError::Serde`] up front. The
//! per-section checksums then localise the damage ("profiles section
//! checksum mismatch") for artifacts corrupted in ways the trailer cannot
//! attribute. All lengths are still validated against the remaining input
//! before allocation, so a hostile artifact with valid checksums fails with
//! [`VerError::Serde`] instead of panicking or over-allocating.
//!
//! **Crash safety.** [`save_index`] writes through a temp file in the
//! destination directory, `fsync`s it, and atomically renames it into
//! place — a crash mid-save leaves either the old artifact or the new one,
//! never a torn hybrid. The writer also hosts the `persist.save` /
//! `persist.bytes` fault-injection points ([`ver_common::fault`]), which
//! the chaos suite uses to prove exactly that.

use crate::builder::IndexConfig;
use crate::engine::DiscoveryIndex;
use crate::hypergraph::{JoinHypergraph, JoinableEdge};
use crate::valueindex::KeywordIndex;
use bytes::Bytes;
use ver_common::codec::{
    checksum_fold, put_f32, put_f64, put_string, put_u16, put_u32, put_u64, Reader,
};
use ver_common::error::{Result, VerError};
use ver_common::fxhash::fx_step;
use ver_common::ids::{ColumnId, ColumnRef, TableId};
use ver_common::value::DataType;
use ver_store::profile::ColumnProfile;

const MAGIC_FULL: &[u8; 8] = b"VERIDX\x04\x00";

/// Section names in on-disk order, used to name the damaged section in
/// checksum-mismatch errors.
const SECTIONS: [&str; 4] = ["config", "profiles", "keyword", "hypergraph"];

/// Section checksum: [`checksum_fold`] seeded with the artifact constant
/// and the section index, so swapped sections cannot pass for each other.
pub(crate) fn checksum(section: u64, payload: &[u8]) -> u64 {
    checksum_fold(fx_step(0xc3a5_c85c_97cb_3127, section), payload)
}

/// A kit reader over artifact bytes: every malformed read is
/// [`VerError::Serde`] — a file on disk rotted.
fn reader(data: &[u8]) -> Reader<'_> {
    Reader::new(data, VerError::Serde)
}

/// Decode one section with `read`, which must consume the payload exactly.
pub(crate) fn section<T>(
    payload: &[u8],
    name: &str,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<T> {
    let mut r = reader(payload);
    let value = read(&mut r)?;
    r.finish(name)?;
    Ok(value)
}

fn put_column_ids(buf: &mut Vec<u8>, v: &[ColumnId]) {
    put_u32(buf, v.len() as u32);
    for c in v {
        put_u32(buf, c.0);
    }
}

/// A posting list. Postings index into the profile table at query time
/// (`DiscoveryIndex::profile` is a plain `Vec` lookup), so every id is
/// validated against `ncols` here — an
/// out-of-range posting in a corrupt artifact must fail the load, not
/// panic the first query.
fn column_ids(r: &mut Reader<'_>, ncols: usize, what: &str) -> Result<Vec<ColumnId>> {
    r.seq(4, what, |r| {
        let c = ColumnId(r.u32(what)?);
        if c.idx() >= ncols {
            return Err(VerError::Serde(format!(
                "{what} references column {c:?} but only {ncols} exist"
            )));
        }
        Ok(c)
    })
}

/// The full format's hypergraph section: the column→table map, then the
/// edges. The table adjacency is derived on load, never stored.
pub(crate) fn put_hypergraph(buf: &mut Vec<u8>, g: &JoinHypergraph) {
    put_u32(buf, g.column_count() as u32);
    for i in 0..g.column_count() {
        put_u32(buf, g.table_of(ColumnId(i as u32)).0);
    }
    put_edges(buf, g.joinable_pairs(), g.edges());
}

/// The edge list that closes a graph section: `n u64 × (u32, u32, f32)`.
pub(crate) fn put_edges(buf: &mut Vec<u8>, n: usize, edges: impl Iterator<Item = JoinableEdge>) {
    put_u64(buf, n as u64);
    for e in edges {
        put_u32(buf, e.a.0);
        put_u32(buf, e.b.0);
        put_f32(buf, e.score);
    }
}

/// A graph section (full index or shard): the
/// column→table map, then edges validated against it.
pub(crate) fn read_graph(r: &mut Reader<'_>) -> Result<(Vec<TableId>, Vec<JoinableEdge>)> {
    let col_table = r.seq(4, "column table", |r| Ok(TableId(r.u32("column table")?)))?;
    let ncols = col_table.len();
    let nedges = r.u64("edge count")? as usize;
    if nedges.saturating_mul(12) > r.remaining() {
        return Err(VerError::Serde(format!(
            "edge count {nedges} exceeds the {} bytes that remain",
            r.remaining()
        )));
    }
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let a = ColumnId(r.u32("edge")?);
        let b = ColumnId(r.u32("edge")?);
        let score = r.f32("edge")?;
        if a.idx() >= ncols || b.idx() >= ncols || a == b {
            return Err(VerError::Serde(format!("invalid edge {a:?}-{b:?}")));
        }
        edges.push(JoinableEdge { a, b, score });
    }
    Ok((col_table, edges))
}

/// Decode a [`put_hypergraph`] section into a finalized graph.
pub(crate) fn read_hypergraph(r: &mut Reader<'_>) -> Result<JoinHypergraph> {
    let (col_table, edges) = read_graph(r)?;
    let mut g = JoinHypergraph::new(col_table);
    for e in edges {
        g.add_edge(e.a, e.b, e.score);
    }
    g.finalize();
    Ok(g)
}

// ---------------------------------------------------------------------------
// Full-index format (VERIDX\x04, checksummed).

/// Config section. `threads` is canonicalised to `0` (auto): the build-time worker count
/// is not index content.
pub(crate) fn put_config(buf: &mut Vec<u8>, c: &IndexConfig) {
    put_u32(buf, c.minhash_k as u32);
    put_f64(buf, c.containment_threshold);
    buf.push(u8::from(c.verify_exact));
    put_u32(buf, 0);
    put_u64(buf, c.seed);
    put_u64(buf, c.value_index_cap as u64);
}

/// Encoded size of one column profile.
pub(crate) const PROFILE_BYTES: usize = 4 + 4 + 2 + 1 + 3 * 8;

/// One column profile (shared by the full-index and shard formats).
pub(crate) fn put_profile(buf: &mut Vec<u8>, p: &ColumnProfile) {
    put_u32(buf, p.id.0);
    put_u32(buf, p.cref.table.0);
    put_u16(buf, p.cref.ordinal);
    buf.push(p.dtype.code());
    put_u64(buf, p.rows as u64);
    put_u64(buf, p.nulls as u64);
    put_u64(buf, p.distinct as u64);
}

/// Column-profile section.
fn put_profiles(buf: &mut Vec<u8>, index: &DiscoveryIndex) {
    put_u32(buf, index.profiles().len() as u32);
    for p in index.profiles() {
        put_profile(buf, p);
    }
}

/// Keyword-index section, key-sorted for canonical bytes.
pub(crate) fn put_keyword(buf: &mut Vec<u8>, keyword: &KeywordIndex) {
    for postings in keyword.persist_parts() {
        put_u32(buf, postings.len() as u32);
        for (key, cols) in postings {
            put_string(buf, key);
            put_column_ids(buf, cols);
        }
    }
}

/// Serialise a complete [`DiscoveryIndex`] to bytes in the current
/// (`VERIDX\x04`) checksummed format.
///
/// The encoding is canonical: two indexes for which
/// [`DiscoveryIndex::same_contents`] holds produce identical bytes (keyword
/// maps are written in key order and the build-time `threads` knob is
/// canonicalised to `0`), so persisted artifacts can be compared
/// byte-for-byte across builds and thread counts.
pub fn index_to_bytes(index: &DiscoveryIndex) -> Bytes {
    let mut sections: [Vec<u8>; 4] = Default::default();
    put_config(&mut sections[0], index.config());
    put_profiles(&mut sections[1], index);
    put_keyword(&mut sections[2], index.keyword_index());
    put_hypergraph(&mut sections[3], index.hypergraph());
    frame_sections(MAGIC_FULL, &sections)
}

/// Frame payload sections in the checksummed layout shared by the
/// `VERIDX\x04` full-index and `VERSHD\x02` shard formats: magic, then each
/// section as `len u64 · payload · checksum u64`, then a whole-file trailer
/// checksum (trailer pseudo-section index = number of sections, so a
/// section checksum can never masquerade as the trailer).
pub(crate) fn frame_sections(magic: &[u8; 8], sections: &[Vec<u8>]) -> Bytes {
    let total: usize = sections.iter().map(|s| s.len() + 16).sum();
    let mut buf = Vec::with_capacity(magic.len() + total + 8);
    buf.extend_from_slice(magic);
    for (i, payload) in sections.iter().enumerate() {
        put_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        put_u64(&mut buf, checksum(i as u64, payload));
    }
    let trailer = checksum(sections.len() as u64, &buf);
    put_u64(&mut buf, trailer);
    Bytes::from(buf)
}

/// Decode a [`frame_sections`] artifact. The magic is checked first, so a
/// file of another format or version (e.g. a `VERIDX\x03` artifact that
/// still carries signatures) fails with an error naming the magic it
/// carries. Then the whole-file trailer is verified over the raw bytes
/// *before any parsing*, and each named section is checked and sliced out.
/// Returns one payload slice per name, in order.
pub(crate) fn read_framed_sections<'a>(
    data: &'a [u8],
    magic: &[u8; 8],
    names: &[&str],
) -> Result<Vec<&'a [u8]>> {
    if !data.starts_with(magic) {
        let found = &data[..data.len().min(magic.len())];
        return Err(VerError::Serde(format!(
            "bad magic header \"{}\" (expected \"{}\")",
            found.escape_ascii(),
            magic.escape_ascii()
        )));
    }
    let body_len = data.len().saturating_sub(8);
    if body_len < magic.len() {
        return Err(VerError::Serde(
            "truncated artifact (missing trailer)".into(),
        ));
    }
    let (body, trailer) = data.split_at(body_len);
    let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if checksum(names.len() as u64, body) != expected {
        return Err(VerError::Serde(
            "trailer checksum mismatch (corrupt or truncated artifact)".into(),
        ));
    }
    let mut r = reader(&body[magic.len()..]);
    let mut payloads = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let len = r.u64(name)? as usize;
        let payload = r.bytes(len, name)?;
        let sum = r.u64(name)?;
        if checksum(i as u64, payload) != sum {
            return Err(VerError::Serde(format!("{name} section checksum mismatch")));
        }
        payloads.push(payload);
    }
    r.finish("sections")?;
    Ok(payloads)
}

/// Deserialise a [`DiscoveryIndex`] from bytes produced by
/// [`index_to_bytes`]. The result satisfies
/// [`DiscoveryIndex::same_contents`] with the original.
///
/// A file of another format or version fails with an error naming the
/// magic it carries; any flipped bit or truncation — in payloads, length
/// fields, section checksums, or the trailer itself — fails with a typed
/// error before parsing; the per-section checksums then attribute damage
/// to a named section.
pub fn index_from_bytes(data: &[u8]) -> Result<DiscoveryIndex> {
    let payloads = read_framed_sections(data, MAGIC_FULL, &SECTIONS)?;

    let config = section(payloads[0], "config section", read_config)?;
    let profiles = section(payloads[1], "profiles section", read_profiles)?;
    let keyword = section(payloads[2], "keyword section", |r| {
        read_keyword(r, profiles.len())
    })?;
    let hypergraph = section(payloads[3], "hypergraph section", read_hypergraph)?;

    if hypergraph.column_count() != profiles.len() {
        return Err(VerError::Serde(format!(
            "hypergraph columns {} != profile count {}",
            hypergraph.column_count(),
            profiles.len()
        )));
    }
    Ok(DiscoveryIndex::assemble(
        config, profiles, keyword, hypergraph,
    ))
}

pub(crate) fn read_config(r: &mut Reader<'_>) -> Result<IndexConfig> {
    let config = IndexConfig {
        minhash_k: r.u32("config")? as usize,
        containment_threshold: r.f64("config")?,
        verify_exact: r.u8("config")? != 0,
        threads: r.u32("config")? as usize,
        seed: r.u64("config")?,
        value_index_cap: r.u64("config")? as usize,
    };
    if config.minhash_k == 0 || config.minhash_k > 1 << 20 {
        return Err(VerError::Serde(format!(
            "implausible minhash_k {}",
            config.minhash_k
        )));
    }
    Ok(config)
}

/// Profiles ([`PROFILE_BYTES`] each). Profile ids must be the
/// sequence 0..n — that is what the builder produces and what every
/// `Vec`-indexed lookup downstream assumes.
fn read_profiles(r: &mut Reader<'_>) -> Result<Vec<ColumnProfile>> {
    let nprofiles = r.count(PROFILE_BYTES, "profile table")?;
    let mut profiles = Vec::with_capacity(nprofiles);
    for expected in 0..nprofiles {
        let p = read_profile(r)?;
        if p.id.idx() != expected {
            return Err(VerError::Serde(format!(
                "profile id {:?} out of sequence (expected {expected})",
                p.id
            )));
        }
        profiles.push(p);
    }
    Ok(profiles)
}

/// One column profile (shared by the full-index and shard decoders; id
/// sequencing is the caller's concern — the full format requires the dense
/// sequence `0..n`, a shard a strictly increasing subsequence).
pub(crate) fn read_profile(r: &mut Reader<'_>) -> Result<ColumnProfile> {
    let id = ColumnId(r.u32("profile id")?);
    let cref = ColumnRef {
        table: TableId(r.u32("profile cref")?),
        ordinal: r.u16("profile cref")?,
    };
    let code = r.u8("profile dtype")?;
    let dtype = DataType::from_code(code)
        .ok_or_else(|| VerError::Serde(format!("unknown dtype code {code}")))?;
    let rows = r.u64("profile rows")? as usize;
    let nulls = r.u64("profile nulls")? as usize;
    let distinct = r.u64("profile distinct")? as usize;
    Ok(ColumnProfile {
        id,
        cref,
        dtype,
        rows,
        nulls,
        distinct,
    })
}

pub(crate) fn read_keyword(r: &mut Reader<'_>, nprofiles: usize) -> Result<KeywordIndex> {
    let values = r.seq(8, "keyword values", |r| {
        let value = r.string("keyword value")?;
        Ok((value, column_ids(r, nprofiles, "keyword posting")?))
    })?;
    let attributes = r.seq(8, "keyword attributes", |r| {
        let name = r.string("attribute name")?;
        Ok((name, column_ids(r, nprofiles, "attribute posting")?))
    })?;
    Ok(KeywordIndex::from_persist_parts(values, attributes))
}

// ---------------------------------------------------------------------------
// Crash-safe file I/O.

/// Write `bytes` to `path` atomically: temp file in the destination
/// directory → `fsync` → rename over the target → `fsync` the directory.
/// A crash at any point leaves either the complete old file or the
/// complete new one, never a torn hybrid (rename within one directory is
/// atomic on POSIX filesystems).
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut name = path
        .file_name()
        .ok_or_else(|| VerError::Io(format!("cannot write to {}", path.display())))?
        .to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&name),
        None => std::path::PathBuf::from(&name),
    };
    let result = (|| -> Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
        return result;
    }
    // Make the rename itself durable. Directories cannot be opened for
    // writing on all platforms; treat a failed dir sync as best-effort.
    if let Some(d) = dir {
        if let Ok(dirf) = std::fs::File::open(d) {
            dirf.sync_all().ok();
        }
    }
    Ok(())
}

/// Persist a complete discovery index to a file (checksummed `\x04`
/// format, atomic temp-file + fsync + rename write).
pub fn save_index(index: &DiscoveryIndex, path: &std::path::Path) -> Result<()> {
    ver_common::fault::hit(ver_common::fault::points::PERSIST_SAVE)?;
    let mut bytes = index_to_bytes(index).to_vec();
    ver_common::fault::corrupt_bytes(ver_common::fault::points::PERSIST_BYTES, &mut bytes);
    atomic_write(path, &bytes)
}

/// Load a complete discovery index from a file written by [`save_index`].
pub fn load_index(path: &std::path::Path) -> Result<DiscoveryIndex> {
    ver_common::fault::hit(ver_common::fault::points::PERSIST_LOAD)?;
    let data = std::fs::read(path)?;
    index_from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_index;
    use ver_common::value::Value;
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// A catalog exercising every persisted feature: joinable text columns,
    /// numeric columns, nulls, and an unnamed-header table.
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

    fn build(verify_exact: bool) -> DiscoveryIndex {
        build_index(
            &catalog(),
            IndexConfig {
                threads: 1,
                verify_exact,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn full_index_roundtrips_exactly() {
        for verify_exact in [false, true] {
            let idx = build(verify_exact);
            let bytes = index_to_bytes(&idx);
            let loaded = index_from_bytes(&bytes).unwrap();
            assert!(
                loaded.same_contents(&idx),
                "verify_exact={verify_exact}: loaded index diverged"
            );
            // Config fields round-trip too (not covered by same_contents).
            assert_eq!(loaded.config().minhash_k, idx.config().minhash_k);
            assert_eq!(loaded.config().seed, idx.config().seed);
            assert_eq!(loaded.config().verify_exact, verify_exact);
            assert!(
                (loaded.config().containment_threshold - idx.config().containment_threshold).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn full_index_encoding_is_canonical() {
        // Thread counts build identical indexes; their bytes must match too.
        let one = build_index(
            &catalog(),
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap();
        let four = build_index(
            &catalog(),
            IndexConfig {
                threads: 4,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap();
        // The writer canonicalises the build-time `threads` knob, so the
        // artifacts match without masking anything.
        assert_eq!(
            index_to_bytes(&one).to_vec(),
            index_to_bytes(&four).to_vec(),
            "canonical encoding differs across thread counts"
        );
    }

    #[test]
    fn v2_magic_is_rejected_with_a_typed_error_naming_it() {
        // The pre-checksum `\x02` layout and the `\x03` layout that still
        // carried signatures are no longer read. Whatever follows the magic
        // — even a byte-valid v4 body — the load fails up front, typed,
        // naming the magic it found: never a panic, never a partially
        // decoded index.
        let idx = build(true);
        for version in [0x02u8, 0x03] {
            let mut bytes = index_to_bytes(&idx).to_vec();
            bytes[6] = version;
            let magic = [b'V', b'E', b'R', b'I', b'D', b'X', version, 0];
            let name = format!("VERIDX\\x0{version}");
            for artifact in [&bytes[..], &magic[..]] {
                match index_from_bytes(artifact) {
                    Err(VerError::Serde(m)) => {
                        assert!(m.contains("bad magic"), "{m}");
                        assert!(m.contains(&name), "must name the magic found: {m}");
                    }
                    other => panic!("expected Serde(bad magic), got {other:?}"),
                }
            }
        }
        // v4 canonicalises the build-time threads knob.
        let from_v4 = index_from_bytes(&index_to_bytes(&idx)).unwrap();
        assert_eq!(from_v4.config().threads, 0);
    }

    #[test]
    fn v4_flipped_bits_fail_with_serde() {
        let idx = build(false);
        let bytes = index_to_bytes(&idx).to_vec();
        assert_eq!(&bytes[..8], b"VERIDX\x04\x00");
        // Flip one bit at a spread of offsets covering the magic, section
        // framing, payloads, section checksums, and the trailer.
        for frac in 0..32 {
            let off = (bytes.len() - 1) * frac / 31;
            let mut bad = bytes.clone();
            bad[off] ^= 0x10;
            let err = index_from_bytes(&bad);
            assert!(
                matches!(err, Err(VerError::Serde(_))),
                "flip at {off}: got {err:?}"
            );
        }
    }

    #[test]
    fn v4_section_checksum_names_the_damaged_section() {
        let idx = build(false);
        let bytes = index_to_bytes(&idx).to_vec();
        // Corrupt one byte inside the profiles payload (section 1) and
        // recompute the trailer so only the section check can catch it.
        let config_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let profiles_payload_start = 8 + 8 + config_len + 8 + 8;
        let mut bad = bytes.clone();
        bad[profiles_payload_start + 10] ^= 0xFF;
        let body_len = bad.len() - 8;
        let trailer = checksum(SECTIONS.len() as u64, &bad[..body_len]);
        bad[body_len..].copy_from_slice(&trailer.to_le_bytes());
        match index_from_bytes(&bad) {
            Err(VerError::Serde(m)) => {
                assert!(m.contains("profiles section"), "message: {m:?}")
            }
            other => panic!("expected named section error, got {other:?}"),
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("ver_index_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        let idx = build(false);
        // Overwrite an existing (garbage) file in place.
        std::fs::write(&path, b"old garbage").unwrap();
        save_index(&idx, &path).unwrap();
        assert!(load_index(&path).unwrap().same_contents(&idx));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "index.bin")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn injected_save_faults_surface_and_clear() {
        use ver_common::fault::{self, points, FaultKind};
        let dir = std::env::temp_dir().join(format!("ver_index_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        let idx = build(false);

        // Injected IO error on save: typed, and nothing is written.
        fault::arm_times(points::PERSIST_SAVE, FaultKind::IoError, 1);
        let err = save_index(&idx, &path);
        assert!(matches!(err, Err(VerError::Io(_))), "got {err:?}");
        assert!(!path.exists(), "failed save must not leave a file");

        // Injected byte corruption on save: the checksum catches it at load.
        fault::arm_times(points::PERSIST_BYTES, FaultKind::CorruptByte, 1);
        save_index(&idx, &path).unwrap();
        let err = load_index(&path);
        assert!(matches!(err, Err(VerError::Serde(_))), "got {err:?}");

        // Harness disarmed: the same path works again.
        fault::reset();
        save_index(&idx, &path).unwrap();
        assert!(load_index(&path).unwrap().same_contents(&idx));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn full_index_file_roundtrip_and_api_equivalence() {
        let dir = std::env::temp_dir().join(format!("ver_index_full_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        let idx = build(true);
        save_index(&idx, &path).unwrap();
        let loaded = load_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();

        // The three Appendix-A API calls answer identically.
        use crate::valueindex::{Fuzziness, SearchTarget};
        assert_eq!(
            loaded.search_keyword("state_7", SearchTarget::Values, Fuzziness::Exact),
            idx.search_keyword("state_7", SearchTarget::Values, Fuzziness::Exact)
        );
        assert_eq!(
            loaded.neighbors(ColumnId(1), 0.8),
            idx.neighbors(ColumnId(1), 0.8)
        );
        let tabs = [TableId(0), TableId(1)];
        assert_eq!(
            loaded.generate_join_graphs(&tabs, 2).len(),
            idx.generate_join_graphs(&tabs, 2).len()
        );
    }

    #[test]
    fn full_index_rejects_wrong_magic_and_truncation() {
        let idx = build(false);
        let bytes = index_to_bytes(&idx).to_vec();
        // The retired hypergraph-only magic is not a full-index artifact.
        assert!(index_from_bytes(b"VERIDX\x01\x00").is_err());
        // Any truncation point must error, never panic.
        for frac in 1..20 {
            let cut = bytes.len() * frac / 20;
            assert!(index_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 3]);
        assert!(index_from_bytes(&padded).is_err());
    }

    #[test]
    fn full_index_rejects_out_of_range_postings() {
        // A structurally valid artifact whose keyword postings point past
        // the profile table must fail the load with a typed error — not
        // panic at query time inside a Vec lookup.
        let idx = build(false);
        let bytes = index_to_bytes(&idx).to_vec();
        let good = index_from_bytes(&bytes).unwrap();
        let nprofiles = good.profiles().len() as u32;
        // Find a keyword posting: scan for any 4-byte LE value equal to a
        // known posting id is fragile; instead corrupt via the API surface —
        // rebuild bytes from parts with one posting bumped out of range.
        let [mut values, attrs] =
            good.keyword_index()
                .persist_parts()
                .map(|postings| -> Vec<(String, Vec<ColumnId>)> {
                    postings
                        .into_iter()
                        .map(|(s, c)| (s.clone(), c.clone()))
                        .collect()
                });
        values[0].1[0] = ColumnId(nprofiles + 7);
        let corrupt = DiscoveryIndex::assemble(
            good.config().clone(),
            good.profiles().to_vec(),
            KeywordIndex::from_persist_parts(values, attrs),
            good.hypergraph().clone(),
        );
        let err = index_from_bytes(&index_to_bytes(&corrupt));
        assert!(matches!(err, Err(VerError::Serde(_))), "got {err:?}");
    }

    #[test]
    fn full_index_rejects_implausible_lengths() {
        // Frame a hostile profiles section by hand so every checksum is
        // valid and the length validation itself is exercised (a bit flip
        // in a real artifact would be rejected at the trailer first).
        let idx = build(false);
        let mut sections: [Vec<u8>; 4] = Default::default();
        put_config(&mut sections[0], idx.config());
        put_u32(&mut sections[1], u32::MAX);
        put_keyword(&mut sections[2], idx.keyword_index());
        put_hypergraph(&mut sections[3], idx.hypergraph());
        let bytes = frame_sections(MAGIC_FULL, &sections);
        match index_from_bytes(&bytes) {
            Err(VerError::Serde(m)) => assert!(m.contains("profile"), "{m}"),
            other => panic!("expected a length error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_edge_ids_rejected() {
        // A graph section whose checksums are valid but whose edge names a
        // column past the column table, or joins a column to itself, must
        // fail the load with a typed error, not build a broken graph.
        let idx = build(false);
        let ncols = idx.profiles().len() as u32;
        for (a, b) in [(ncols + 7, 0), (0, ncols), (1, 1)] {
            let mut sections: [Vec<u8>; 4] = Default::default();
            put_config(&mut sections[0], idx.config());
            put_profiles(&mut sections[1], &idx);
            put_keyword(&mut sections[2], idx.keyword_index());
            let g = idx.hypergraph();
            put_u32(&mut sections[3], ncols);
            for i in 0..ncols {
                put_u32(&mut sections[3], g.table_of(ColumnId(i)).0);
            }
            let edge = JoinableEdge {
                a: ColumnId(a),
                b: ColumnId(b),
                score: 0.9,
            };
            put_edges(&mut sections[3], 1, std::iter::once(edge));
            let bytes = frame_sections(MAGIC_FULL, &sections);
            match index_from_bytes(&bytes) {
                Err(VerError::Serde(m)) => assert!(m.contains("invalid edge"), "{m}"),
                other => panic!("edge {a}-{b}: expected Serde, got {other:?}"),
            }
        }
    }
}
