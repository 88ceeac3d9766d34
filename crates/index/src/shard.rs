//! Sharding one logical discovery index across N shard handles.
//!
//! The "millions of users" axis (ROADMAP direction 2): one logical catalog
//! is hashed **by table** onto `shard_count` shards. Each shard owns its
//! tables' column profiles, keyword postings, and the hypergraph edges
//! incident to its tables (an edge crossing a shard boundary is stored by
//! both endpoints' shards and deduplicated on merge). Shards persist
//! independently in a checksummed `VERSHD\x02` artifact — the sibling of
//! the full-index `VERIDX\x04` format, sharing its section framing,
//! checksums, bad-magic refusal and atomic write path — so shard builds and
//! loads can eventually live in separate processes. (`VERSHD\x01`, which
//! also carried MinHash signatures, is refused by name.)
//!
//! **Determinism invariant 11 (shard-count invariance).** Partitioning is a
//! pure function of `(TableId, shard_count)` ([`shard_of_table`]), and
//! [`merge_shards`] reconstructs the unsharded index **exactly**
//! ([`DiscoveryIndex::same_contents`] holds against a single-engine build)
//! for every shard count: profiles interleave back into dense `ColumnId`
//! order, keyword posting lists re-sort into the builder's canonical
//! ascending order, and the hypergraph is rebuilt from the edge union. The sharded serving path (`ver-serve::ShardedEngine`)
//! is bit-identical to the single-engine run *because* the merged index is
//! — see `tests/parallel_determinism.rs`.

use crate::builder::IndexConfig;
use crate::engine::DiscoveryIndex;
use crate::hypergraph::{JoinHypergraph, JoinableEdge};
use crate::persist;
use crate::valueindex::KeywordIndex;
use bytes::Bytes;
use ver_common::codec::put_u32;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::fx_step;
use ver_common::ids::{ColumnId, TableId};
use ver_store::profile::ColumnProfile;

const MAGIC_SHARD: &[u8; 8] = b"VERSHD\x02\x00";

/// Section names of the `VERSHD\x02` layout, in on-disk order.
const SHARD_SECTIONS: [&str; 5] = ["config", "shard", "profiles", "keyword", "hypergraph"];

/// Owning shard of a table: a pure hash of `(table id, shard_count)`.
///
/// This mapping is the sharding contract — it decides which shard holds a
/// table's index slices at build time, which shard materializes a
/// candidate at query time, and which persisted shard artifact a table's
/// data lives in. It must stay stable across processes and releases, or
/// persisted shard sets stop matching their ids.
pub fn shard_of_table(table: TableId, shard_count: usize) -> usize {
    assert!(shard_count >= 1, "shard_count must be at least 1");
    // One fx round over a fixed seed scatters consecutive table ids; plain
    // modulo would lane all early tables onto shard 0 for small catalogs.
    (fx_step(0x5ee0_5ee0_5ee0_5ee0, table.0 as u64) % shard_count as u64) as usize
}

/// One shard's slice of a logical [`DiscoveryIndex`].
///
/// Holds everything the owning shard needs to answer for its tables: the
/// owned profiles (tagged with their **global** `ColumnId`s —
/// ids are never renumbered, so merging is a pure interleave), the owned
/// keyword postings, the incident hypergraph edges, and the full
/// column→table mapping (4 bytes per column) so any shard can resolve
/// ownership of any column without consulting its peers.
#[derive(Debug, Clone)]
pub struct IndexShard {
    config: IndexConfig,
    shard: u32,
    count: u32,
    /// Column → owning table, for **all** columns of the logical index.
    col_table: Vec<TableId>,
    /// Owned profiles, ascending global `ColumnId`.
    profiles: Vec<ColumnProfile>,
    /// Owned tables' keyword postings.
    keyword: KeywordIndex,
    /// Hypergraph edges incident to an owned table. A cross-shard edge is
    /// replicated on both endpoints' shards; [`merge_shards`] deduplicates.
    edges: Vec<JoinableEdge>,
}

impl IndexShard {
    /// This shard's id in `0..shard_count()`.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Total number of shards in the set this shard belongs to.
    pub fn shard_count(&self) -> usize {
        self.count as usize
    }

    /// Build configuration of the logical index.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Number of columns owned by this shard.
    pub fn owned_columns(&self) -> usize {
        self.profiles.len()
    }

    /// Number of hypergraph edges stored on this shard (cross-shard edges
    /// count once per incident shard).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Structural equality ignoring the build config (mirrors
    /// [`DiscoveryIndex::same_contents`]).
    pub fn same_contents(&self, other: &IndexShard) -> bool {
        self.shard == other.shard
            && self.count == other.count
            && self.col_table == other.col_table
            && self.profiles == other.profiles
            && self.keyword == other.keyword
            && self.edges == other.edges
    }
}

/// Partition a built index into `shard_count` shards by table ownership.
///
/// Pure and deterministic: the same index and shard count always produce
/// the same shards, and `merge_shards(&partition_index(idx, n))` satisfies
/// [`DiscoveryIndex::same_contents`] with `idx` for every `n >= 1`.
pub fn partition_index(index: &DiscoveryIndex, shard_count: usize) -> Vec<IndexShard> {
    assert!(shard_count >= 1, "shard_count must be at least 1");
    let g = index.hypergraph();
    let ncols = g.column_count();
    let col_table: Vec<TableId> = (0..ncols).map(|i| g.table_of(ColumnId(i as u32))).collect();
    let owner_of_col = |c: ColumnId| shard_of_table(col_table[c.idx()], shard_count);

    let mut shards: Vec<IndexShard> = (0..shard_count)
        .map(|s| IndexShard {
            config: index.config().clone(),
            shard: s as u32,
            count: shard_count as u32,
            col_table: col_table.clone(),
            profiles: Vec::new(),
            keyword: KeywordIndex::new(),
            edges: Vec::new(),
        })
        .collect();

    for p in index.profiles() {
        shards[owner_of_col(p.id)].profiles.push(p.clone());
    }
    let keyword_parts = index.keyword_index().partition(shard_count, owner_of_col);
    for (shard, part) in shards.iter_mut().zip(keyword_parts) {
        shard.keyword = part;
    }
    for e in g.edges() {
        let sa = owner_of_col(e.a);
        let sb = owner_of_col(e.b);
        shards[sa].edges.push(e);
        if sb != sa {
            shards[sb].edges.push(e);
        }
    }
    shards
}

/// Merge a complete shard set back into the logical [`DiscoveryIndex`].
///
/// Validates that the set is complete and consistent (every shard id
/// `0..count` exactly once, matching column→table maps, globally dense
/// column ids), then reconstructs the index exactly as the unsharded
/// builder would have produced it.
pub fn merge_shards(shards: &[IndexShard]) -> Result<DiscoveryIndex> {
    let first = shards
        .first()
        .ok_or_else(|| VerError::Serde("cannot merge an empty shard set".into()))?;
    let count = first.count as usize;
    if shards.len() != count {
        return Err(VerError::Serde(format!(
            "shard set has {} shards but each claims a set of {count}",
            shards.len()
        )));
    }
    let mut by_id: Vec<Option<&IndexShard>> = vec![None; count];
    for s in shards {
        if s.count as usize != count {
            return Err(VerError::Serde(format!(
                "shard {} claims {} total shards, set has {count}",
                s.shard, s.count
            )));
        }
        if s.col_table != first.col_table {
            return Err(VerError::Serde(format!(
                "shard {} column→table map diverges from shard {}",
                s.shard, first.shard
            )));
        }
        let slot = by_id
            .get_mut(s.shard as usize)
            .ok_or_else(|| VerError::Serde(format!("shard id {} out of range", s.shard)))?;
        if slot.replace(s).is_some() {
            return Err(VerError::Serde(format!("duplicate shard id {}", s.shard)));
        }
    }
    let ordered: Vec<&IndexShard> = by_id.into_iter().flatten().collect();

    // Profiles interleave back into dense ColumnId order.
    let ncols = first.col_table.len();
    let mut profiles: Vec<ColumnProfile> = ordered
        .iter()
        .flat_map(|s| s.profiles.iter().cloned())
        .collect();
    profiles.sort_unstable_by_key(|p| p.id);
    if profiles.len() != ncols {
        return Err(VerError::Serde(format!(
            "merged shards hold {} profiles, index has {ncols} columns",
            profiles.len()
        )));
    }
    for (i, p) in profiles.iter().enumerate() {
        if p.id.idx() != i {
            return Err(VerError::Serde(format!(
                "merged profile ids not dense at {i} (got {:?})",
                p.id
            )));
        }
    }
    // Keyword postings: concatenate per-shard partitions, then restore the
    // builder's canonical ascending posting order (each column lives on
    // exactly one shard, so sorting is a pure permutation — no dedup).
    let mut keyword = KeywordIndex::new();
    for s in &ordered {
        keyword.merge(s.keyword.clone());
    }
    keyword.sort_postings();

    // Hypergraph: union of the incident-edge lists (cross-shard edges are
    // stored twice with identical scores; `add_edge` deduplicates).
    let mut g = JoinHypergraph::new(first.col_table.clone());
    for s in &ordered {
        for e in &s.edges {
            g.add_edge(e.a, e.b, e.score);
        }
    }
    g.finalize();

    Ok(DiscoveryIndex::assemble(
        first.config.clone(),
        profiles,
        keyword,
        g,
    ))
}

// ---------------------------------------------------------------------------
// Persistence (VERSHD\x02): the shard sibling of the VERIDX\x04 format.

/// Serialise one shard in the checksummed `VERSHD\x02` layout. Canonical
/// for the same reason `VERIDX\x04` is: keyword maps key-sorted, the
/// build-time `threads` knob canonicalised to `0`.
pub fn shard_to_bytes(shard: &IndexShard) -> Bytes {
    let mut sections: [Vec<u8>; 5] = Default::default();
    persist::put_config(&mut sections[0], &shard.config);
    put_u32(&mut sections[1], shard.shard);
    put_u32(&mut sections[1], shard.count);
    put_u32(&mut sections[2], shard.profiles.len() as u32);
    for p in &shard.profiles {
        persist::put_profile(&mut sections[2], p);
    }
    persist::put_keyword(&mut sections[3], &shard.keyword);
    put_u32(&mut sections[4], shard.col_table.len() as u32);
    for t in &shard.col_table {
        put_u32(&mut sections[4], t.0);
    }
    persist::put_edges(
        &mut sections[4],
        shard.edges.len(),
        shard.edges.iter().copied(),
    );
    persist::frame_sections(MAGIC_SHARD, &sections)
}

/// Deserialise a shard written by [`shard_to_bytes`]. Validation mirrors
/// the full-index decoder: magic and checksums first, then bounds-checked
/// parsing, then structural checks (shard id in range, owned ids strictly
/// increasing and actually owned under [`shard_of_table`], postings and
/// edges within the column table).
pub fn shard_from_bytes(data: &[u8]) -> Result<IndexShard> {
    let payloads = persist::read_framed_sections(data, MAGIC_SHARD, &SHARD_SECTIONS)?;

    let config = persist::section(payloads[0], "config section", persist::read_config)?;
    let (shard, count) = persist::section(payloads[1], "shard section", |r| {
        Ok((r.u32("shard id")?, r.u32("shard count")?))
    })?;
    if count == 0 || shard >= count {
        return Err(VerError::Serde(format!(
            "shard id {shard} out of range for {count} shards"
        )));
    }
    let (col_table, edges) =
        persist::section(payloads[4], "hypergraph section", persist::read_graph)?;
    let ncols = col_table.len();
    let owned = |c: ColumnId| shard_of_table(col_table[c.idx()], count as usize) == shard as usize;

    let profiles = persist::section(payloads[2], "profiles section", |r| {
        let nprofiles = r.count(persist::PROFILE_BYTES, "shard profile table")?;
        let mut profiles: Vec<ColumnProfile> = Vec::with_capacity(nprofiles);
        for _ in 0..nprofiles {
            let p = persist::read_profile(r)?;
            if p.id.idx() >= ncols || !owned(p.id) {
                return Err(VerError::Serde(format!(
                    "profile {:?} is not owned by shard {shard}/{count}",
                    p.id
                )));
            }
            if profiles.last().is_some_and(|prev| prev.id >= p.id) {
                return Err(VerError::Serde(format!(
                    "shard profile ids not strictly increasing at {:?}",
                    p.id
                )));
            }
            profiles.push(p);
        }
        Ok(profiles)
    })?;
    let keyword = persist::section(payloads[3], "keyword section", |r| {
        persist::read_keyword(r, ncols)
    })?;

    Ok(IndexShard {
        config,
        shard,
        count,
        col_table,
        profiles,
        keyword,
        edges,
    })
}

/// Persist one shard (atomic temp-file + fsync + rename, same crash-safety
/// and fault-injection points as [`persist::save_index`]).
pub fn save_shard(shard: &IndexShard, path: &std::path::Path) -> Result<()> {
    ver_common::fault::hit(ver_common::fault::points::PERSIST_SAVE)?;
    let mut bytes = shard_to_bytes(shard).to_vec();
    ver_common::fault::corrupt_bytes(ver_common::fault::points::PERSIST_BYTES, &mut bytes);
    persist::atomic_write(path, &bytes)
}

/// Load one shard from a file written by [`save_shard`].
pub fn load_shard(path: &std::path::Path) -> Result<IndexShard> {
    ver_common::fault::hit(ver_common::fault::points::PERSIST_LOAD)?;
    let data = std::fs::read(path)?;
    shard_from_bytes(&data)
}

/// Canonical file name of shard `shard` in a set of `count`.
pub fn shard_file_name(shard: usize, count: usize) -> String {
    format!("shard-{shard}-of-{count}.versh")
}

/// Partition `index` into `shard_count` shards and persist each under
/// `dir` with its [`shard_file_name`]. Returns the written paths.
pub fn save_sharded_index(
    index: &DiscoveryIndex,
    shard_count: usize,
    dir: &std::path::Path,
) -> Result<Vec<std::path::PathBuf>> {
    let shards = partition_index(index, shard_count);
    let mut paths = Vec::with_capacity(shards.len());
    for s in &shards {
        let path = dir.join(shard_file_name(s.shard(), s.shard_count()));
        save_shard(s, &path)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Load a complete shard set (written by [`save_sharded_index`]) from
/// `dir` and merge it back into the logical index.
pub fn load_sharded_index(dir: &std::path::Path, shard_count: usize) -> Result<DiscoveryIndex> {
    let mut shards = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        shards.push(load_shard(&dir.join(shard_file_name(i, shard_count)))?);
    }
    merge_shards(&shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_index;
    use ver_common::value::Value;
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// Joinable tables plus numeric/null columns, enough tables that every
    /// shard count under test owns at least one.
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
        let mut b = TableBuilder::new("codes", &["iata", "city"]);
        for i in 0..30 {
            b.push_row(vec![
                Value::text(format!("A{i:03}")),
                Value::text(format!("city_{i}")),
            ])
            .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("census", &["name", "year"]);
        for (i, s) in states.iter().take(35).enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(1990 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    fn index() -> DiscoveryIndex {
        build_index(
            &catalog(),
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for count in 1..8usize {
            for t in 0..200u32 {
                let s = shard_of_table(TableId(t), count);
                assert!(s < count);
                assert_eq!(s, shard_of_table(TableId(t), count), "deterministic");
            }
        }
        // Not everything lands on one shard for a small catalog.
        let hits: std::collections::HashSet<usize> =
            (0..16u32).map(|t| shard_of_table(TableId(t), 4)).collect();
        assert!(hits.len() > 1, "hash must scatter small table ids");
    }

    #[test]
    fn partition_then_merge_reconstructs_the_index_exactly() {
        let idx = index();
        for count in [1usize, 2, 3, 4, 7] {
            let shards = partition_index(&idx, count);
            assert_eq!(shards.len(), count);
            let total: usize = shards.iter().map(|s| s.owned_columns()).sum();
            assert_eq!(total, idx.profiles().len(), "columns partition exactly");
            let merged = merge_shards(&shards).unwrap();
            assert!(
                merged.same_contents(&idx),
                "merge of {count} shards diverged from the unsharded index"
            );
        }
    }

    #[test]
    fn merge_order_does_not_matter() {
        let idx = index();
        let mut shards = partition_index(&idx, 3);
        shards.reverse();
        assert!(merge_shards(&shards).unwrap().same_contents(&idx));
    }

    #[test]
    fn incomplete_or_inconsistent_shard_sets_are_rejected() {
        let idx = index();
        let shards = partition_index(&idx, 3);
        assert!(merge_shards(&[]).is_err(), "empty set");
        assert!(merge_shards(&shards[..2]).is_err(), "missing shard");
        let dup = vec![shards[0].clone(), shards[0].clone(), shards[1].clone()];
        assert!(merge_shards(&dup).is_err(), "duplicate shard id");
        let mixed = vec![
            shards[0].clone(),
            shards[1].clone(),
            partition_index(&idx, 2)[1].clone(),
        ];
        assert!(merge_shards(&mixed).is_err(), "mixed shard counts");
    }

    #[test]
    fn shard_bytes_roundtrip_exactly() {
        let idx = index();
        for s in partition_index(&idx, 2) {
            let bytes = shard_to_bytes(&s);
            assert_eq!(&bytes[..8], MAGIC_SHARD);
            let back = shard_from_bytes(&bytes).unwrap();
            assert!(back.same_contents(&s), "shard {} diverged", s.shard());
            // Canonical: re-encoding the decoded shard is byte-identical.
            assert_eq!(shard_to_bytes(&back).to_vec(), bytes.to_vec());
        }
    }

    #[test]
    fn corrupt_shard_artifacts_are_rejected() {
        let idx = index();
        let bytes = shard_to_bytes(&partition_index(&idx, 2)[0]).to_vec();
        // Any single flipped bit fails the checksummed load with Serde.
        for frac in 0..24 {
            let off = (bytes.len() - 1) * frac / 23;
            let mut bad = bytes.clone();
            bad[off] ^= 0x08;
            assert!(
                matches!(shard_from_bytes(&bad), Err(VerError::Serde(_))),
                "flip at {off} must fail"
            );
        }
        // A full-index artifact is not a shard, nor is a retired `\x01`
        // shard, which still carried signatures: both are refused by name.
        let mut v1 = bytes.clone();
        v1[6] = 0x01;
        for (artifact, found) in [
            (persist::index_to_bytes(&idx).to_vec(), "VERIDX\\x04"),
            (v1, "VERSHD\\x01"),
        ] {
            match shard_from_bytes(&artifact) {
                Err(VerError::Serde(m)) => {
                    assert!(m.contains("bad magic") && m.contains(found), "{m}")
                }
                other => panic!("expected Serde naming {found}, got {other:?}"),
            }
        }
        // Truncations fail, never panic.
        for frac in 1..12 {
            let cut = bytes.len() * frac / 12;
            assert!(shard_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn sharded_file_roundtrip_and_warm_start_contract() {
        let dir = std::env::temp_dir().join(format!("ver_shard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let idx = index();
        let paths = save_sharded_index(&idx, 3, &dir).unwrap();
        assert_eq!(paths.len(), 3);
        let merged = load_sharded_index(&dir, 3).unwrap();
        assert!(merged.same_contents(&idx), "sharded warm start diverged");
        // A wrong count does not find a complete set.
        assert!(load_sharded_index(&dir, 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
