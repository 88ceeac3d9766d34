//! Row-index join states for shared sub-join execution.
//!
//! [`execute_plan`](crate::exec::execute_plan) materialises every candidate
//! independently: it clones the base table and gathers *all* columns of
//! every intermediate at every step. Candidate PJ-views share join
//! prefixes — Algorithm 5 enumerates combinations over the same join paths,
//! and on the pinned `wdc120` tier 21.9 % of all join steps repeat a prefix
//! another candidate already executed (see `ver_search::materialize`) — so
//! that repeats the identical hash joins and value copies once per view.
//!
//! This module factors the executor into a value-free core: a [`JoinState`]
//! holds, for each joined table, a flat `Vec<u32>` of *source row indices*
//! — one entry per output row of the partial join. [`JoinState::step`]
//! only touches the two key columns, and the final projection
//! ([`materialize_state`]) stays value-free too: it deduplicates through
//! the row indices and hands the [`View`] the kept source rows plus their
//! row hashes. No payload value is cloned anywhere in this module — a
//! view's cells are copied out of the base tables at most once, on first
//! read, by its [`ViewTable`]. Because a state is a pure value, it can be
//! shared by every plan with the same oriented step prefix — the shared
//! sub-join DAG that `ver_search::materialize::materialize_batch` builds.
//! Both functions read key and cell hashes from a batch-scoped
//! [`ColumnHashes`], which the caller fills for every plan before it runs
//! any of them.
//!
//! **Bit-identity contract**: for any valid plan, [`JoinState::base`],
//! one [`JoinState::step`] per join and [`materialize_state`] return
//! exactly what `execute_plan` returns — same rows in the same order, same
//! schema, same chained `a⋈b⋈c` view name, same provenance. The row
//! *order* is what makes this delicate:
//! downstream deduplication keeps first occurrences, and the golden
//! snapshots are byte-identical renders. Each step therefore replicates
//! [`hash_join`](crate::join::hash_join)'s observable semantics:
//!
//! * the hash index is built over the **smaller** side (accumulated rows
//!   vs. the attached table), probed with the larger;
//! * output rows are ordered probe-row-major, then by build-side insertion
//!   order within a key bucket;
//! * null keys never match;
//! * keys compare as typed [`Value`]s (`Int(1)` ≠ `Text("1")`).

use crate::plan::{JoinStep, PjPlan};
use crate::rowhash::{cell_hash, mix};
use crate::view::{Provenance, SourceColumn, View, ViewTable};
use std::sync::Arc;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::value::Value;
use ver_store::catalog::TableCatalog;
use ver_store::schema::TableSchema;
use ver_store::table::Table;

/// Batch-scoped cache of per-column [`cell_hash`] arrays.
///
/// Joining and deduplicating hash the same key and projection columns over
/// and over — once per DAG node and once per candidate. A batch hashes
/// each column **once** up front ([`ColumnHashes::ensure`] per plan) and
/// shares the `Vec<u64>` across every step and projection that touches it.
/// Hashes only pre-bucket candidates; every match is verified by typed
/// [`Value`] equality, and a view's row hashes are
/// [`hash_table_row`](crate::rowhash::hash_table_row) of its rows.
#[derive(Debug, Default)]
pub struct ColumnHashes {
    map: FxHashMap<(TableId, u16), Vec<u64>>,
}

impl ColumnHashes {
    /// Empty cache: [`ColumnHashes::ensure`] each plan before running it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash every key and projection column of `plan` not cached yet.
    /// Unresolvable refs are skipped — the executor reports them with the
    /// proper error before it looks for their hashes.
    pub fn ensure(&mut self, catalog: &TableCatalog, plan: &PjPlan) {
        let keys = plan.joins.iter().flat_map(|j| [j.left, j.right]);
        for cref in keys.chain(plan.projection.iter().copied()) {
            let key = (cref.table, cref.ordinal);
            if self.map.contains_key(&key) {
                continue;
            }
            let Ok(table) = catalog.table(cref.table) else {
                continue;
            };
            if let Some(col) = table.column(cref.ordinal as usize) {
                self.map
                    .insert(key, col.values().iter().map(cell_hash).collect());
            }
        }
    }

    /// `cref`'s hashes. A resolvable column the batch did not
    /// [`ensure`](ColumnHashes::ensure) is a bug in the caller.
    fn get(&self, cref: ColumnRef) -> Result<&[u64]> {
        self.map
            .get(&(cref.table, cref.ordinal))
            .map(Vec::as_slice)
            .ok_or_else(|| {
                VerError::Internal(format!("column {cref} was not hashed for the batch"))
            })
    }
}

/// Sentinel for "no next entry" in the flat chains below.
const NONE: u32 = u32::MAX;

/// Spread a 64-bit key hash over a power-of-two slot table. The tables'
/// hashes end in a multiply, so the high bits carry the mixing; fold them
/// into the low bits the mask keeps.
#[inline]
fn slot_of(h: u64, mask: usize) -> usize {
    ((h ^ (h >> 32)) as usize) & mask
}

/// Epoch-stamped open-addressed slot table: `u32` payloads addressed by
/// 64-bit key hash, reusable across thousands of joins without clearing
/// (a slot is live only when its stamp equals the current epoch).
struct SlotTable {
    slots: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
    mask: usize,
}

impl SlotTable {
    fn new() -> Self {
        SlotTable {
            slots: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
            mask: 0,
        }
    }

    /// Begin a fresh use with room for `n` entries at ≤50% load.
    fn reset(&mut self, n: usize) {
        let cap = (n.max(1) * 2).next_power_of_two();
        if self.slots.len() < cap {
            self.slots = vec![0; cap];
            self.stamps = vec![0; cap];
            self.epoch = 1;
        } else {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                // Stamp wrap-around: old stamps could alias, so clear once.
                self.stamps.fill(0);
                self.epoch = 1;
            }
        }
        self.mask = self.slots.len() - 1;
    }

    /// Walk the probe sequence for `h`: returns `Ok(payload)` for the
    /// first live slot accepted by `matches`, or `Err(slot)` at the first
    /// free slot (where the caller may `fill`).
    #[inline]
    fn find(
        &self,
        h: u64,
        mut matches: impl FnMut(u32) -> bool,
    ) -> std::result::Result<u32, usize> {
        let mut s = slot_of(h, self.mask);
        loop {
            if self.stamps[s] != self.epoch {
                return Err(s);
            }
            let payload = self.slots[s];
            if matches(payload) {
                return Ok(payload);
            }
            s = (s + 1) & self.mask;
        }
    }

    #[inline]
    fn fill(&mut self, slot: usize, payload: u32) {
        self.stamps[slot] = self.epoch;
        self.slots[slot] = payload;
    }
}

/// Hash-join build index: key hash → groups of build rows with equal key
/// values, stored as flat chain arenas over an open-addressed slot table
/// (no per-key allocations, no per-op rehashing).
///
/// A group's `head` is a *source* row whose value stands in for the
/// group's key; distinct values colliding on one 64-bit hash live in
/// separate groups on a per-hash chain, so probes match exactly the rows
/// an equal-key join matches. Rows inside a group chain in insertion
/// order — [`hash_join`](crate::join::hash_join)'s within-bucket order.
struct GroupIndex {
    /// Key hash → first group id with that hash.
    table: SlotTable,
    groups: Vec<Group>,
    /// Row chain arena: `(build row payload, next chain slot)`.
    chain: Vec<(u32, u32)>,
}

struct Group {
    /// The group's full key hash (distinguishes probe-sequence neighbours).
    hash: u64,
    /// Build-side *source* row representing the group's key value.
    head: u32,
    /// First and last slot of the group's row chain.
    first: u32,
    last: u32,
    /// Next group with the same hash (true collision), or [`NONE`].
    next: u32,
}

impl GroupIndex {
    fn empty() -> Self {
        GroupIndex {
            table: SlotTable::new(),
            groups: Vec::new(),
            chain: Vec::new(),
        }
    }

    /// Clear for reuse with room for `n_build` rows, keeping allocated
    /// capacity (the whole point of the thread-local scratch: a handful of
    /// allocations amortised over thousands of joins).
    fn reset(&mut self, n_build: usize) {
        self.table.reset(n_build);
        self.groups.clear();
        self.chain.clear();
    }

    /// Append build `row` under key hash `h`; `head` is its source row and
    /// `same_key(g.head)` decides whether an existing group shares the key.
    fn insert(&mut self, h: u64, head: u32, row: u32, mut same_key: impl FnMut(u32) -> bool) {
        let slot = self.chain.len() as u32;
        self.chain.push((row, NONE));
        let groups = &mut self.groups;
        match self.table.find(h, |gid| groups[gid as usize].hash == h) {
            Err(free) => {
                self.table.fill(free, groups.len() as u32);
                groups.push(Group {
                    hash: h,
                    head,
                    first: slot,
                    last: slot,
                    next: NONE,
                });
            }
            Ok(gid) => {
                let mut gid = gid as usize;
                loop {
                    if same_key(groups[gid].head) {
                        let tail = groups[gid].last as usize;
                        self.chain[tail].1 = slot;
                        groups[gid].last = slot;
                        return;
                    }
                    if groups[gid].next == NONE {
                        break;
                    }
                    gid = groups[gid].next as usize;
                }
                // Distinct key on the same hash: new group on the chain
                // (it shares the first group's table slot).
                let ng = groups.len() as u32;
                groups[gid].next = ng;
                groups.push(Group {
                    hash: h,
                    head,
                    first: slot,
                    last: slot,
                    next: NONE,
                });
            }
        }
    }

    /// Visit every build row whose key equals the probe's (per `same_key`
    /// against group heads), in insertion order.
    fn for_each_match(
        &self,
        h: u64,
        mut same_key: impl FnMut(u32) -> bool,
        mut emit: impl FnMut(u32),
    ) {
        let groups = &self.groups;
        let Ok(gid) = self.table.find(h, |gid| groups[gid as usize].hash == h) else {
            return;
        };
        let mut gid = gid as usize;
        loop {
            let g = &groups[gid];
            if same_key(g.head) {
                let mut slot = g.first as usize;
                loop {
                    let (row, next) = self.chain[slot];
                    emit(row);
                    if next == NONE {
                        return;
                    }
                    slot = next as usize;
                }
            }
            if g.next == NONE {
                return;
            }
            gid = g.next as usize;
        }
    }
}

thread_local! {
    /// Per-thread hash-join scratch, reused across every step a worker
    /// executes: the build index plus the (accumulated row, right row)
    /// match-pair buffers. Purely scratch: reset before each use.
    #[allow(clippy::type_complexity)]
    static JOIN_SCRATCH: std::cell::RefCell<(GroupIndex, Vec<u32>, Vec<u32>)> =
        std::cell::RefCell::new((GroupIndex::empty(), Vec::new(), Vec::new()));
    /// Per-thread dedup scratch for [`materialize_state`]:
    /// `(row hashes, hash → arena head slot table, (kept row, next) chain
    /// arena, kept row list)`.
    #[allow(clippy::type_complexity)]
    static DEDUP_SCRATCH: std::cell::RefCell<(
        Vec<u64>,
        SlotTable,
        Vec<(u32, u32)>,
        Vec<u32>,
    )> = std::cell::RefCell::new((Vec::new(), SlotTable::new(), Vec::new(), Vec::new()));
}

/// A partial join result as row indices into the source tables.
///
/// `row_col(t)[i]` is the source row (in table `tables()[t]`) backing
/// output row `i`. Storage is one flat table-major `Vec<u32>` of
/// `tables.len() × len` entries — a single allocation per state, which
/// matters when a batch executes tens of thousands of them. The base
/// state is the identity mapping over the base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinState {
    tables: Vec<TableId>,
    /// Output row count.
    n: usize,
    /// Table-major: `rows[t*n..(t+1)*n]` is table `t`'s row-index column.
    rows: Vec<u32>,
}

impl JoinState {
    /// Identity state over `base`: one output row per source row.
    pub fn base(catalog: &TableCatalog, base: TableId) -> Result<JoinState> {
        let table = catalog.table(base)?;
        let n = table.row_count();
        Ok(JoinState {
            tables: vec![base],
            n,
            rows: (0..n as u32).collect(),
        })
    }

    /// Number of rows in the partial join.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Table `t`'s row-index column (`t` indexes into [`JoinState::tables`]).
    fn row_col(&self, t: usize) -> &[u32] {
        &self.rows[t * self.n..(t + 1) * self.n]
    }

    /// True when the partial join matched nothing — every downstream step
    /// and projection of this prefix is empty too, so executors can prune.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tables joined so far, base first, in join order.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// The chained `base⋈t1⋈t2` view name this state materialises under —
    /// shared by every candidate projecting the same state, so batch
    /// executors build it once per distinct leaf.
    pub fn joined_name(&self, catalog: &TableCatalog) -> Result<Arc<str>> {
        let mut name = String::new();
        for (i, &t) in self.tables.iter().enumerate() {
            if i > 0 {
                name.push('⋈');
            }
            name.push_str(catalog.table(t)?.name());
        }
        Ok(name.into())
    }

    /// Execute one join step, attaching `step.right.table`, with the key
    /// hashes read from the batch's `hashes`.
    ///
    /// Mirrors [`hash_join`](crate::join::hash_join) exactly (build side,
    /// match order, null and type semantics) — see the module docs. An
    /// empty state short-circuits: the child is empty without probing.
    pub fn step(
        &self,
        catalog: &TableCatalog,
        step: JoinStep,
        hashes: &ColumnHashes,
    ) -> Result<JoinState> {
        let li = self
            .tables
            .iter()
            .position(|&t| t == step.left.table)
            .ok_or_else(|| {
                VerError::JoinError(format!(
                    "table {} missing from intermediate",
                    step.left.table
                ))
            })?;
        if self.tables.contains(&step.right.table) {
            return Err(VerError::JoinError(format!(
                "table {} already in intermediate (cycles/self-joins unsupported)",
                step.right.table
            )));
        }
        let left_table = catalog.table(step.left.table)?;
        let lcol = left_table
            .column(step.left.ordinal as usize)
            .ok_or_else(|| {
                VerError::JoinError(format!(
                    "left key ordinal {} out of range",
                    step.left.ordinal
                ))
            })?;
        let right_table = catalog.table(step.right.table)?;
        let rcol = right_table
            .column(step.right.ordinal as usize)
            .ok_or_else(|| {
                VerError::JoinError(format!(
                    "right key ordinal {} out of range",
                    step.right.ordinal
                ))
            })?;

        let lrows = self.row_col(li);
        let lvals = lcol.values();
        let rvals = rcol.values();
        // Per-row key hashes from the batch cache. Hashes only pre-bucket;
        // every match below is verified by typed Value equality, so the
        // output never depends on the hash function (or on collisions).
        let lh = hashes.get(step.left)?;
        let rh = hashes.get(step.right)?;

        // Match pairs (accumulated output row, right source row), ordered
        // exactly as hash_join orders them, collected into thread-local
        // scratch (contents never cross joins, only capacity does) and then
        // gathered into the child state's flat row storage.
        let mut tables = self.tables.clone();
        tables.push(step.right.table);
        if self.is_empty() {
            return Ok(JoinState {
                tables,
                n: 0,
                rows: Vec::new(),
            });
        }
        JOIN_SCRATCH.with(|scratch| {
            let (index, acc, right) = &mut *scratch.borrow_mut();
            index.reset(self.len().min(right_table.row_count()));
            acc.clear();
            right.clear();
            if self.len() <= right_table.row_count() {
                // Build over the accumulated side (insertion order =
                // output row order), probe the attached table ascending.
                for (i, &src) in lrows.iter().enumerate() {
                    let v = &lvals[src as usize];
                    if v.is_null() {
                        continue;
                    }
                    index.insert(lh[src as usize], src, i as u32, |head| {
                        &lvals[head as usize] == v
                    });
                }
                for (j, v) in rvals.iter().enumerate() {
                    if v.is_null() {
                        continue;
                    }
                    index.for_each_match(
                        rh[j],
                        |head| &lvals[head as usize] == v,
                        |i| {
                            acc.push(i);
                            right.push(j as u32);
                        },
                    );
                }
            } else {
                // Attached table is smaller: build over it, probe the
                // accumulated rows ascending.
                for (j, v) in rvals.iter().enumerate() {
                    if v.is_null() {
                        continue;
                    }
                    index.insert(rh[j], j as u32, j as u32, |head| &rvals[head as usize] == v);
                }
                for (i, &src) in lrows.iter().enumerate() {
                    let v = &lvals[src as usize];
                    if v.is_null() {
                        continue;
                    }
                    index.for_each_match(
                        lh[src as usize],
                        |head| &rvals[head as usize] == v,
                        |j| {
                            acc.push(i as u32);
                            right.push(j);
                        },
                    );
                }
            }

            let m = acc.len();
            let nt = self.tables.len();
            let mut rows: Vec<u32> = Vec::with_capacity((nt + 1) * m);
            for t in 0..nt {
                let col = self.row_col(t);
                rows.extend(acc.iter().map(|&i| col[i as usize]));
            }
            rows.extend_from_slice(right);
            Ok(JoinState { tables, n: m, rows })
        })
    }
}

/// One projected column while its candidate is deduplicated.
struct Projected<'a> {
    /// The base table holding the column, and the column's ordinal in it.
    table: &'a Arc<Table>,
    ordinal: u16,
    /// The column's values.
    vals: &'a [Value],
    /// Position of `table` among the state's joined tables, and the
    /// state's row-index column for it.
    ti: usize,
    idx: &'a [u32],
}

/// Project a finished [`JoinState`] and wrap it as a [`View`] — the tail of
/// plan execution.
///
/// The view reads exactly as what [`execute_plan`](crate::exec::execute_plan)
/// would produce for the same plan: the chained `base⋈t1⋈t2` table name,
/// the source tables' column metadata, stable first-occurrence
/// deduplication, and the same [`Provenance`]. Its cells, however, stay in
/// the base tables until they are first read (see [`crate::view`]): what is
/// computed here is which source rows survive dedup, and their row hashes.
/// The returned view has `ViewId::default()`.
///
/// `name` must equal [`JoinState::joined_name`] for `state` — a batch
/// builds it once per distinct DAG leaf and hands every candidate over
/// that leaf the same `Arc<str>`. Cell hashes come from the batch's
/// `hashes`.
///
/// Deduplication needs no gathered row: rows are bucketed by a combined
/// hash of their source-cell hashes and verified by typed [`Value`]
/// equality through the row indices. This keeps first occurrences in row
/// order — exactly what [`dedup_rows`](crate::dedup::dedup_rows) does after
/// a full gather.
pub fn materialize_state(
    catalog: &TableCatalog,
    state: &JoinState,
    plan: &PjPlan,
    join_score: f64,
    hashes: &ColumnHashes,
    name: Arc<str>,
) -> Result<View> {
    // Resolve each projected column once, folding its per-row cell hashes
    // into the row hash as it is resolved — column-outer for locality, and
    // no per-candidate hash-slice bookkeeping. The fold is `rowhash`'s `H`,
    // so a kept row's dedup hash is `hash_table_row` of the gathered row
    // and is handed to the view instead of thrown away. For dedup itself it
    // only pre-buckets: duplicates are confirmed by value equality.
    let n_rows = if plan.projection.is_empty() {
        0
    } else {
        state.len()
    };
    let mut metas = Vec::with_capacity(plan.projection.len());
    let mut cols: Vec<Projected<'_>> = Vec::with_capacity(plan.projection.len());
    type Kept = (Vec<SourceColumn>, Arc<[u64]>);
    let (columns, row_hashes) = DEDUP_SCRATCH.with(|scratch| -> Result<Kept> {
        let (rowh, slots, arena, keep) = &mut *scratch.borrow_mut();
        rowh.clear();
        rowh.resize(n_rows, 0);
        for p in &plan.projection {
            let ti = state
                .tables()
                .iter()
                .position(|&t| t == p.table)
                .ok_or_else(|| {
                    VerError::JoinError(format!("projected table {} not in plan", p.table))
                })?;
            let table = catalog.table_shared(p.table)?;
            let col = table.column(p.ordinal as usize).ok_or_else(|| {
                VerError::InvalidQuery(format!(
                    "projection ordinal {} out of range for '{}' (arity {})",
                    p.ordinal,
                    table.name(),
                    table.column_count()
                ))
            })?;
            metas.push(table.schema.columns[p.ordinal as usize].clone());
            let vals = col.values();
            let idx = state.row_col(ti);
            let ch = hashes.get(*p)?;
            for (h, &src) in rowh.iter_mut().zip(idx.iter()) {
                *h = mix(*h, ch[src as usize]);
            }
            cols.push(Projected {
                table,
                ordinal: p.ordinal,
                vals,
                ti,
                idx,
            });
        }

        // Keep-first dedup over row indices. Kept rows sharing a hash
        // chain through a flat arena (true 64-bit collisions are rare, so
        // chains are almost always length 1); a new row is a duplicate iff
        // it value-equals some kept row on its chain.
        let rows_equal = |a: usize, b: usize| {
            cols.iter()
                .all(|c| c.vals[c.idx[a] as usize] == c.vals[c.idx[b] as usize])
        };
        slots.reset(n_rows);
        arena.clear();
        keep.clear();
        'rows: for (r, &h) in rowh.iter().enumerate() {
            match slots.find(h, |ai| rowh[arena[ai as usize].0 as usize] == h) {
                Err(free) => {
                    slots.fill(free, arena.len() as u32);
                }
                Ok(ai) => {
                    let mut ai = ai as usize;
                    loop {
                        let (prev, next) = arena[ai];
                        if rows_equal(prev as usize, r) {
                            continue 'rows;
                        }
                        if next == NONE {
                            break;
                        }
                        ai = next as usize;
                    }
                    arena[ai].1 = arena.len() as u32;
                }
            }
            arena.push((r as u32, NONE));
            keep.push(r as u32);
        }

        // The view is the kept rows' source indices — one vector per joined
        // table, shared by the columns projected from it. No cell leaves a
        // base column here: `ViewTable` copies them out on first read.
        let mut columns: Vec<SourceColumn> = Vec::with_capacity(cols.len());
        for (i, c) in cols.iter().enumerate() {
            let rows = match cols[..i].iter().position(|earlier| earlier.ti == c.ti) {
                Some(j) => Arc::clone(&columns[j].rows),
                None => keep.iter().map(|&r| c.idx[r as usize]).collect(),
            };
            columns.push(SourceColumn {
                table: Arc::clone(c.table),
                ordinal: c.ordinal,
                rows,
            });
        }
        Ok((columns, keep.iter().map(|&r| rowh[r as usize]).collect()))
    })?;
    Ok(View::with_row_hashes(
        ViewId::default(),
        ViewTable::lazy(TableSchema::new(name, metas), row_hashes.len(), columns),
        Provenance {
            join_edges: plan.joins.iter().map(|j| (j.left, j.right)).collect(),
            source_tables: plan.tables(),
            projection: plan.projection.clone(),
            join_score,
        },
        row_hashes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_plan;
    use ver_common::ids::ColumnRef;
    use ver_common::value::Value;
    use ver_store::table::TableBuilder;

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    /// Skewed many-to-many catalog: row order and build-side selection both
    /// matter. airports (6 rows) ⋈ states (2 rows) ⋈ regions (8 rows).
    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in [
            ("IND", "Indiana"),
            ("ATL", "Georgia"),
            ("SAV", "Georgia"),
            ("GRY", "Indiana"),
            ("XNA", "Arkansas"),
            ("MCN", "Georgia"),
        ] {
            b.push_row(vec![i.into(), s.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("states", &["name", "pop"]);
        for (s, p) in [("Indiana", 6_800_000i64), ("Georgia", 10_700_000)] {
            b.push_row(vec![s.into(), Value::Int(p)]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("regions", &["state", "region"]);
        for (s, r) in [
            ("Indiana", "Midwest"),
            ("Georgia", "South"),
            ("Georgia", "Southeast"),
            ("Texas", "South"),
            ("Indiana", "Rust Belt"),
            ("Arkansas", "South"),
            ("Georgia", "Atlantic"),
            ("Indiana", "Central"),
        ] {
            b.push_row(vec![s.into(), r.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    fn chain_plan() -> PjPlan {
        PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(1, 0),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(0, 0), cref(1, 1), cref(2, 1)],
        }
    }

    /// Hashes for every column of `plans`, as a batch ensures them.
    fn hashes_for(cat: &TableCatalog, plans: &[&PjPlan]) -> ColumnHashes {
        let mut hashes = ColumnHashes::new();
        plans.iter().for_each(|p| hashes.ensure(cat, p));
        hashes
    }

    /// `plan` alone through the row-index core: base, one step per join,
    /// projection.
    fn execute_shared(cat: &TableCatalog, plan: &PjPlan, join_score: f64) -> View {
        let hashes = hashes_for(cat, &[plan]);
        let mut state = JoinState::base(cat, plan.base).unwrap();
        for &step in &plan.joins {
            state = state.step(cat, step, &hashes).unwrap();
        }
        let name = state.joined_name(cat).unwrap();
        materialize_state(cat, &state, plan, join_score, &hashes, name).unwrap()
    }

    /// The contract everything above relies on: the shared-kernel executor
    /// reproduces `execute_plan` *including row order* (Table is PartialEq
    /// over schema and cell values in order).
    #[test]
    fn shared_execution_is_bit_identical_to_execute_plan() {
        let cat = catalog();
        let plans = [
            PjPlan::single(TableId(0), vec![cref(0, 1), cref(0, 0)]),
            PjPlan {
                base: TableId(0),
                joins: vec![JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                }],
                projection: vec![cref(0, 0), cref(1, 1)],
            },
            chain_plan(),
            // Star: both arms off the base; projection reordered + repeated.
            PjPlan {
                base: TableId(0),
                joins: vec![
                    JoinStep {
                        left: cref(0, 1),
                        right: cref(1, 0),
                    },
                    JoinStep {
                        left: cref(0, 1),
                        right: cref(2, 0),
                    },
                ],
                projection: vec![cref(2, 1), cref(0, 0), cref(2, 1)],
            },
            // Projection collapsing to few distinct rows exercises dedup
            // order sensitivity.
            PjPlan {
                base: TableId(0),
                joins: vec![JoinStep {
                    left: cref(0, 1),
                    right: cref(2, 0),
                }],
                projection: vec![cref(2, 1)],
            },
        ];
        for (i, plan) in plans.iter().enumerate() {
            let a = execute_plan(&cat, plan, 0.7).unwrap();
            let b = execute_shared(&cat, plan, 0.7);
            assert_eq!(a.row_count(), b.row_count(), "plan {i}: row counts differ");
            assert_eq!(a.schema(), b.schema(), "plan {i}: schemas differ");
            assert!(!b.table.is_gathered(), "plan {i}: gathered before any read");
            assert_eq!(a.table, b.table, "plan {i}: tables differ");
            assert_eq!(a.provenance, b.provenance, "plan {i}: provenance differs");
            assert_eq!(a.table.name(), b.table.name(), "plan {i}: name differs");
            // The dedup hashes the DAG hands the view are `H` of its rows:
            // what `execute_plan`'s hash-less view computes from the cells.
            assert_eq!(b.row_hashes(), a.row_hashes(), "plan {i}: row hashes");
            for (r, &h) in b.row_hashes().iter().enumerate() {
                assert_eq!(h, crate::rowhash::hash_table_row(&b.table, r));
            }
        }
    }

    #[test]
    fn build_side_swap_still_matches_reference() {
        // Base smaller than attached table AND base larger than attached
        // table, same data — both sides of hash_join's build-side pivot.
        let cat = catalog();
        let small_base = PjPlan {
            base: TableId(1), // 2 rows, attaches 8-row regions
            joins: vec![JoinStep {
                left: cref(1, 0),
                right: cref(2, 0),
            }],
            projection: vec![cref(1, 1), cref(2, 1)],
        };
        let large_base = PjPlan {
            base: TableId(2), // 8 rows, attaches 2-row states
            joins: vec![JoinStep {
                left: cref(2, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(2, 1), cref(1, 1)],
        };
        for plan in [&small_base, &large_base] {
            let a = execute_plan(&cat, plan, 1.0).unwrap();
            let b = execute_shared(&cat, plan, 1.0);
            assert_eq!(a.table, b.table);
        }
    }

    #[test]
    fn null_and_typed_keys_match_reference() {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("l", &["k", "x"]);
        b.push_row(vec![Value::Null, "a".into()]).unwrap();
        b.push_row(vec![Value::Int(1), "b".into()]).unwrap();
        b.push_row(vec![Value::text("1"), "c".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("r", &["k", "y"]);
        b.push_row(vec![Value::Int(1), "p".into()]).unwrap();
        b.push_row(vec![Value::Null, "q".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 1), cref(1, 1)],
        };
        let a = execute_plan(&cat, &plan, 1.0).unwrap();
        let b = execute_shared(&cat, &plan, 1.0);
        assert_eq!(a.table, b.table);
        assert_eq!(a.row_count(), 1, "only Int(1) keys join");
    }

    #[test]
    fn states_share_across_prefixes() {
        // Two plans sharing the one-hop prefix: computing the prefix once
        // and branching reproduces both independent executions.
        let cat = catalog();
        let plan_a = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 1),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 0), cref(1, 1)],
        };
        let plan_b = chain_plan();
        let hashes = hashes_for(&cat, &[&plan_a, &plan_b]);
        let prefix = JoinState::base(&cat, TableId(0))
            .unwrap()
            .step(&cat, plan_a.joins[0], &hashes)
            .unwrap();
        assert_eq!(prefix.tables(), &[TableId(0), TableId(1)]);

        let name = prefix.joined_name(&cat).unwrap();
        let via_shared = materialize_state(&cat, &prefix, &plan_a, 0.5, &hashes, name).unwrap();
        let independent = execute_plan(&cat, &plan_a, 0.5).unwrap();
        assert_eq!(via_shared.table, independent.table);

        let extended = prefix.step(&cat, plan_b.joins[1], &hashes).unwrap();
        let name = extended.joined_name(&cat).unwrap();
        let via_shared = materialize_state(&cat, &extended, &plan_b, 0.5, &hashes, name).unwrap();
        let independent = execute_plan(&cat, &plan_b, 0.5).unwrap();
        assert_eq!(via_shared.table, independent.table);
    }

    #[test]
    fn empty_prefix_short_circuits_and_stays_identical() {
        let mut cat = catalog();
        let mut b = TableBuilder::new("nomatch", &["state"]);
        b.push_row(vec!["Nowhere".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let plan = PjPlan {
            base: TableId(3),
            joins: vec![
                JoinStep {
                    left: cref(3, 0),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(1, 0),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(3, 0), cref(2, 1)],
        };
        let hashes = hashes_for(&cat, &[&plan]);
        let state = JoinState::base(&cat, TableId(3))
            .unwrap()
            .step(&cat, plan.joins[0], &hashes)
            .unwrap();
        assert!(state.is_empty());
        let tail = state.step(&cat, plan.joins[1], &hashes).unwrap();
        assert!(tail.is_empty());
        let a = execute_plan(&cat, &plan, 1.0).unwrap();
        let b = execute_shared(&cat, &plan, 1.0);
        assert_eq!(a.table, b.table);
        assert_eq!(a.row_count(), 0);
    }

    #[test]
    fn step_errors_on_missing_or_duplicate_tables() {
        let cat = catalog();
        let base = JoinState::base(&cat, TableId(0)).unwrap();
        let step = |left, right| JoinStep { left, right };
        // Checked before any hash is looked up, so none need exist.
        let none = ColumnHashes::new();
        // Left table not in the intermediate.
        assert!(base
            .step(&cat, step(cref(1, 0), cref(2, 0)), &none)
            .is_err());
        // Right table already present.
        assert!(base
            .step(&cat, step(cref(0, 1), cref(0, 0)), &none)
            .is_err());
        // Key ordinal out of range.
        assert!(base
            .step(&cat, step(cref(0, 9), cref(1, 0)), &none)
            .is_err());
        // Unknown base table.
        assert!(JoinState::base(&cat, TableId(42)).is_err());
        // A valid step whose keys the batch never hashed is a caller bug,
        // reported with the column it missed.
        match base.step(&cat, step(cref(0, 1), cref(1, 0)), &none) {
            Err(VerError::Internal(m)) => assert!(m.contains("T0.1"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
