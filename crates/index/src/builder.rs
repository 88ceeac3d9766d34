//! Offline discovery-index construction (the DISCOVERY ENGINE's build pass).
//!
//! Builds, over a [`TableCatalog`]:
//! 1. per-column profiles (exact cardinalities),
//! 2. MinHash signatures, sketched from each column's sorted distinct-hash
//!    vector,
//! 3. keyword indexes over values and attribute names (built per-table,
//!    then merged),
//! 4. the join hypergraph: candidate pairs from LSH with one-row bands —
//!    columns sharing a MinHash value at some position — deduplicated up
//!    front and verified by estimated (or optionally exact) containment at
//!    `containment_threshold`.
//!
//! Signatures and hash vectors exist only to find joinable pairs: they are
//! intermediates of this pass and are dropped when [`build_index`] returns.
//! The [`DiscoveryIndex`] it hands over holds only what online discovery
//! reads — profiles, keyword postings and the hypergraph.
//!
//! Every stage runs on one [`ThreadPool`] from [`ver_common::pool`]
//! (`threads: 0` = one worker per hardware thread), whose workers claim
//! small grains from a shared counter — that keeps the heavy-tailed column
//! sizes of pathless collections from idling threads behind one static
//! share. All stages are order-preserving, so the built index is
//! **bit-identical across thread counts**.

use crate::engine::DiscoveryIndex;
use crate::hypergraph::JoinHypergraph;
use crate::minhash::{
    estimated_containment_max, hashed_containment_max, MinHashSignature, MinHasher, DEFAULT_K,
};
use crate::valueindex::KeywordIndex;
use ver_common::error::Result;
use ver_common::fxhash::{FxHashMap, FxHashSet};
use ver_common::ids::ColumnId;
use ver_common::pool::ThreadPool;
use ver_common::value::DataType;
use ver_store::catalog::TableCatalog;
use ver_store::profile::{profile_catalog, ColumnProfile};
use ver_store::table::Table;

/// Tunables for index construction.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// MinHash functions per signature.
    pub minhash_k: usize,
    /// Containment threshold for hypergraph edges (paper/Aurum default 0.8;
    /// Fig. 8a sweeps 0.8 → 0.5 by rebuilding).
    pub containment_threshold: f64,
    /// Verify candidate pairs with exact containment instead of the
    /// estimate. Slower but eliminates MinHash estimation error (used by
    /// small corpora). Verification compares the columns' 64-bit
    /// distinct-value hashes, so it is exact up to Fx-hash collisions
    /// (vanishingly rare on non-adversarial data); it also keeps every
    /// column's hash vector alive until the hypergraph is built, where
    /// estimated mode drops each one as soon as it is sketched.
    pub verify_exact: bool,
    /// Worker threads for the offline build (`0` = one per available
    /// hardware thread, the default; `1` = sequential). The built index is
    /// identical for every value.
    pub threads: usize,
    /// Seed for the MinHash family.
    pub seed: u64,
    /// Skip indexing values of columns with more distinct values than this
    /// (guards the keyword index against enormous key columns).
    pub value_index_cap: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            minhash_k: DEFAULT_K,
            containment_threshold: 0.8,
            verify_exact: false,
            threads: 0,
            seed: 0x5eed,
            value_index_cap: 1_000_000,
        }
    }
}

/// Build the discovery index for `catalog`.
pub fn build_index(catalog: &TableCatalog, config: IndexConfig) -> Result<DiscoveryIndex> {
    let pool = ThreadPool::new(config.threads);
    let profiles = profile_catalog(catalog, &pool);
    let sketches = sketch(catalog, &profiles, &config, &pool);
    let keyword = build_keyword_index(catalog, &config, &pool);
    let hypergraph = build_hypergraph(&profiles, &sketches, &config, &pool);
    Ok(DiscoveryIndex::assemble(
        config, profiles, keyword, hypergraph,
    ))
}

/// The build's per-column intermediates, in `ColumnId` order. Both feed
/// only the hypergraph stage and die with [`build_index`].
struct Sketches {
    signatures: Vec<MinHashSignature>,
    /// Sorted, deduplicated Fx hashes of each column's distinct values
    /// (`Column::distinct_hashes`) — the exact verifier's input. Empty
    /// vectors in estimated mode, which reads only the signatures.
    hashes: Vec<Vec<u64>>,
}

/// Hash each column's distinct set once and sketch it from those hashes —
/// no re-hashing of values, no per-column set clones. Output is in
/// `ColumnId` order for any worker count.
fn sketch(
    catalog: &TableCatalog,
    profiles: &[ColumnProfile],
    config: &IndexConfig,
    pool: &ThreadPool,
) -> Sketches {
    let hasher = MinHasher::new(config.minhash_k, config.seed);
    let (signatures, hashes) = pool
        .par_map(profiles, |p| {
            let col = catalog.column(p.cref).expect("profiled column");
            let hashes = col.distinct_hashes();
            let signature = hasher.signature_of_hash_slice(&hashes, p.distinct);
            // Estimated mode frees each vector as soon as it is sketched,
            // rather than keep ~8 bytes per distinct value alive through
            // the keyword and hypergraph stages.
            let kept = if config.verify_exact {
                hashes
            } else {
                Vec::new()
            };
            (signature, kept)
        })
        .into_iter()
        .unzip();
    Sketches { signatures, hashes }
}

/// Keyword indexes are built per table on the pool, then merged in table
/// order — giving exactly the postings the sequential build produces.
fn build_keyword_index(
    catalog: &TableCatalog,
    config: &IndexConfig,
    pool: &ThreadPool,
) -> KeywordIndex {
    let partials = pool.par_map(catalog.tables(), |table| {
        keyword_index_of_table(catalog, table, config)
    });
    let mut idx = KeywordIndex::new();
    for partial in partials {
        idx.merge(partial);
    }
    idx
}

/// One table's contribution to the keyword index.
fn keyword_index_of_table(
    catalog: &TableCatalog,
    table: &Table,
    config: &IndexConfig,
) -> KeywordIndex {
    let mut idx = KeywordIndex::new();
    let cols: Vec<ColumnId> = (0..table.column_count())
        .map(|o| {
            catalog
                .column_id(ver_common::ids::ColumnRef {
                    table: table.id,
                    ordinal: o as u16,
                })
                .expect("registered column")
        })
        .collect();
    for (ordinal, cid) in cols.iter().enumerate() {
        if let Some(name) = &table.schema.columns[ordinal].name {
            idx.add_attribute(name, *cid);
        }
        let col = table.column(ordinal).expect("ordinal in range");
        if col.distinct_count() > config.value_index_cap {
            continue;
        }
        // One column is scanned at a time, so the posting list's tail entry
        // already tells us whether *this* column saw the value — no
        // side-table of seen strings, no clone per cell.
        for v in col.non_null() {
            idx.add_value_owned(v.normalized(), *cid);
        }
    }
    idx
}

/// Candidate pairs come from [`shared_minhash_pairs`], already deduplicated
/// and canonically ordered; verification — the dominant cost of the
/// offline pass — then fans out over the pool. Scores depend only on the
/// pair, so edge insertion in pair order is deterministic for any worker
/// count.
fn build_hypergraph(
    profiles: &[ColumnProfile],
    sketches: &Sketches,
    config: &IndexConfig,
    pool: &ThreadPool,
) -> JoinHypergraph {
    let col_table: Vec<_> = profiles.iter().map(|p| p.cref.table).collect();
    let mut graph = JoinHypergraph::new(col_table);

    let mut pairs = shared_minhash_pairs(&sketches.signatures, config.minhash_k);
    pairs.retain(|&(a, b)| compatible(&profiles[a as usize], &profiles[b as usize]));

    let scores = pool.par_map(&pairs, |&(a, b)| {
        // Symmetric-max scoring shares one intersection/agreement count per
        // pair (bit-identical to taking the max of both directions).
        let (a, b) = (a as usize, b as usize);
        if config.verify_exact {
            hashed_containment_max(&sketches.hashes[a], &sketches.hashes[b])
        } else {
            estimated_containment_max(&sketches.signatures[a], &sketches.signatures[b])
        }
    });
    for (&(a, b), &score) in pairs.iter().zip(&scores) {
        if score >= config.containment_threshold {
            graph.add_edge(ColumnId(a), ColumnId(b), score as f32);
        }
    }
    graph.finalize();
    graph
}

/// Candidate pairs: LSH with one-row bands, i.e. columns sharing a MinHash
/// value at some position. Returns every `(a, b)`, `a < b`, whose
/// signatures are both non-empty and agree at some `i < k`, sorted and
/// unique.
///
/// One-row bands (r = 1, b = k) are the containment-friendly banding: a
/// pair with Jaccard similarity s collides with probability
/// 1 − (1 − s)^k, ≈ 1 for any s ≳ 3/k. High-containment pairs of
/// asymmetric sizes have *low similarity* (A ⊂ B with |B| ≫ |A| gives
/// J ≈ |A|/|B|), so banding tuned to the containment threshold would miss
/// them — the problem LSH Ensemble/Lazo address. False candidates are
/// discarded by the containment check in [`build_hypergraph`].
fn shared_minhash_pairs(sigs: &[MinHashSignature], k: usize) -> Vec<(u32, u32)> {
    let mut groups: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
    for i in 0..k {
        groups.clear();
        for (id, sig) in sigs.iter().enumerate() {
            if !sig.is_empty() {
                groups.entry(sig.sig[i]).or_default().push(id as u32);
            }
        }
        // Ids enter each group in ascending order, so every pair is `a < b`.
        for group in groups.values() {
            for (j, &a) in group.iter().enumerate() {
                pairs.extend(group[j + 1..].iter().map(|&b| (a, b)));
            }
        }
    }
    let mut pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

/// Edge admissibility: different tables, same broad type family, both
/// non-empty. Joining text to numbers manufactures nonsense paths.
fn compatible(a: &ColumnProfile, b: &ColumnProfile) -> bool {
    if a.cref.table == b.cref.table || a.distinct == 0 || b.distinct == 0 {
        return false;
    }
    type_family(a.dtype) == type_family(b.dtype)
}

fn type_family(t: DataType) -> u8 {
    match t {
        DataType::Int | DataType::Float => 0,
        DataType::Text => 1,
        DataType::Unknown => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ver_common::value::Value;
    use ver_store::column::Column;
    use ver_store::table::TableBuilder;

    /// Catalog where airports.state ⊆ states.name exactly, and a numeric
    /// column pair that should never link to text.
    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..60).map(|i| format!("state_{i}")).collect();

        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().take(50).enumerate() {
            b.push_row(vec![
                Value::text(format!("A{i:03}")),
                Value::text(s.clone()),
            ])
            .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("states", &["name", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(1000 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    /// Brute-force reference for [`shared_minhash_pairs`]: every `a < b`,
    /// both non-empty, agreeing at some position.
    fn brute_force_pairs(sigs: &[MinHashSignature]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (a, sa) in sigs.iter().enumerate() {
            for (b, sb) in sigs.iter().enumerate().skip(a + 1) {
                let agree = sa.sig.iter().zip(&sb.sig).any(|(x, y)| x == y);
                if agree && !sa.is_empty() && !sb.is_empty() {
                    pairs.push((a as u32, b as u32));
                }
            }
        }
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

        #[test]
        fn shared_minhash_pairs_match_brute_force(
            k in 1usize..20,
            n in 0usize..12,
            span in 1u64..64,
            raw in prop::collection::vec(any::<u64>(), 12 * 20),
            empty in prop::collection::vec(0u8..4, 12),
        ) {
            // Values drawn from `0..span` so positions collide often, and
            // about one column in four is empty (its values still collide).
            let sigs: Vec<MinHashSignature> = (0..n)
                .map(|c| MinHashSignature {
                    sig: raw[c * k..(c + 1) * k].iter().map(|v| v % span).collect(),
                    cardinality: usize::from(empty[c] != 0),
                })
                .collect();
            prop_assert_eq!(shared_minhash_pairs(&sigs, k), brute_force_pairs(&sigs));
        }
    }

    fn int_column(range: std::ops::Range<i64>) -> Column {
        range.map(Value::Int).collect()
    }

    #[test]
    fn near_duplicates_pair_disjoint_do_not() {
        let h = MinHasher::new(DEFAULT_K, 11);
        let sigs = [
            h.signature_of_column(&int_column(0..1000)),
            h.signature_of_column(&int_column(0..990)), // J ≈ 0.99
            h.signature_of_column(&int_column(50_000..51_000)), // disjoint
            h.signature_of_column(&int_column(0..1000)), // identical to 0
        ];
        assert_eq!(
            shared_minhash_pairs(&sigs, DEFAULT_K),
            vec![(0, 1), (0, 3), (1, 3)]
        );
    }

    #[test]
    fn empty_signatures_never_pair() {
        let h = MinHasher::new(16, 1);
        let empty = h.signature_of_column(&Column::new());
        let full = h.signature_of_column(&int_column(0..10));
        // Two empty signatures agree everywhere (all `u64::MAX`).
        let sigs = [empty.clone(), empty, full];
        assert!(shared_minhash_pairs(&sigs, 16).is_empty());
    }

    fn config() -> IndexConfig {
        IndexConfig {
            threads: 1,
            verify_exact: true,
            ..Default::default()
        }
    }

    #[test]
    fn builds_expected_join_edge() {
        let cat = catalog();
        let idx = build_index(&cat, config()).unwrap();
        // airports.state (C1) ⊆ states.name (C2), containment 1.0.
        let n = idx.hypergraph().neighbors(ColumnId(1), 0.8);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].0, ColumnId(2));
        assert!(n[0].1 > 0.99);
    }

    #[test]
    fn estimated_mode_finds_the_same_edge() {
        let cat = catalog();
        let idx = build_index(
            &cat,
            IndexConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let n = idx.hypergraph().neighbors(ColumnId(1), 0.8);
        assert!(n.iter().any(|(c, _)| *c == ColumnId(2)));
    }

    #[test]
    fn no_cross_type_edges() {
        let cat = catalog();
        let idx = build_index(&cat, config()).unwrap();
        for e in idx.hypergraph().edges() {
            let ta = idx.profile(e.a).dtype;
            let tb = idx.profile(e.b).dtype;
            assert_eq!(type_family(ta), type_family(tb));
        }
    }

    #[test]
    fn no_intra_table_edges() {
        let cat = catalog();
        let idx = build_index(&cat, config()).unwrap();
        for e in idx.hypergraph().edges() {
            assert_ne!(idx.profile(e.a).cref.table, idx.profile(e.b).cref.table);
        }
    }

    #[test]
    fn parallel_and_sequential_signatures_agree() {
        let cat = catalog();
        let config = IndexConfig {
            minhash_k: 64,
            seed: 1,
            ..Default::default()
        };
        let pool = ThreadPool::new(1);
        let profiles = profile_catalog(&cat, &pool);
        let seq = sketch(&cat, &profiles, &config, &pool).signatures;
        let par = sketch(&cat, &profiles, &config, &ThreadPool::new(4)).signatures;
        assert_eq!(seq, par);
        // And they match direct column sketching (pre-hash fidelity).
        let h = MinHasher::new(64, 1);
        let direct: Vec<MinHashSignature> = cat
            .all_columns()
            .map(|(_, cref)| h.signature_of_column(cat.column(cref).unwrap()))
            .collect();
        assert_eq!(seq, direct);
    }

    /// Tables of skewed sizes over shared value ranges, so eight workers
    /// claim uneven grains.
    fn skewed_catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        for t in 0..24i64 {
            let mut b = TableBuilder::new(format!("t{t}"), &["code", "n"]);
            for i in 0..(8 + t * t * 3) {
                b.push_row(vec![
                    Value::text(format!("c{}", i % 97)),
                    Value::Int(i % (t + 5)),
                ])
                .unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        cat
    }

    #[test]
    fn one_thread_and_eight_threads_sketch_identically() {
        let cat = skewed_catalog();
        for verify_exact in [false, true] {
            let config = IndexConfig {
                verify_exact,
                ..Default::default()
            };
            let run = |threads| {
                let pool = ThreadPool::new(threads);
                sketch(&cat, &profile_catalog(&cat, &pool), &config, &pool)
            };
            let (seq, par) = (run(1), run(8));
            assert_eq!(
                seq.signatures, par.signatures,
                "signatures (verify_exact={verify_exact})"
            );
            assert_eq!(
                seq.hashes, par.hashes,
                "hashes (verify_exact={verify_exact})"
            );
        }
    }

    #[test]
    fn hashes_cover_the_distinct_set() {
        let cat = catalog();
        let pool = ThreadPool::new(1);
        let profiles = profile_catalog(&cat, &pool);
        let exact = IndexConfig {
            verify_exact: true,
            ..Default::default()
        };
        let hashes = sketch(&cat, &profiles, &exact, &pool).hashes;
        for (p, h) in profiles.iter().zip(&hashes) {
            assert_eq!(h.len(), p.distinct);
            assert!(h.windows(2).all(|w| w[0] < w[1]));
        }
        // Estimated mode keeps none of them past sketching.
        let estimated = sketch(&cat, &profiles, &IndexConfig::default(), &pool).hashes;
        assert!(estimated.iter().all(Vec::is_empty));
    }

    #[test]
    fn keyword_index_covers_values_and_attributes() {
        let cat = catalog();
        let idx = build_index(&cat, config()).unwrap();
        use crate::valueindex::{Fuzziness, SearchTarget};
        let hits = idx.search_keyword("state_7", SearchTarget::Values, Fuzziness::Exact);
        assert_eq!(
            hits.len(),
            2,
            "value occurs in airports.state and states.name"
        );
        let hits = idx.search_keyword("iata", SearchTarget::Attributes, Fuzziness::Exact);
        assert_eq!(hits, vec![ColumnId(0)]);
    }

    #[test]
    fn thread_counts_build_identical_indexes() {
        let cat = catalog();
        for verify_exact in [false, true] {
            let base = IndexConfig {
                verify_exact,
                ..Default::default()
            };
            let one = build_index(
                &cat,
                IndexConfig {
                    threads: 1,
                    ..base.clone()
                },
            )
            .unwrap();
            for threads in [0, 3, 8] {
                let many = build_index(
                    &cat,
                    IndexConfig {
                        threads,
                        ..base.clone()
                    },
                )
                .unwrap();
                assert!(
                    one.same_contents(&many),
                    "threads={threads} verify_exact={verify_exact} diverged"
                );
            }
        }
    }
}
