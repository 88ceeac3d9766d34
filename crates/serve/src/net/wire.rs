//! Request/response codecs for the `verd` protocol.
//!
//! Everything here is hand-rolled little-endian binary on plain byte
//! buffers, written on the byte-level kit in [`ver_common::codec`]:
//! explicit length prefixes, tagged unions, a bounds-checked reader that
//! turns every malformed payload into [`VerError::Protocol`] instead of a
//! panic (a short read here means a peer sent garbage), and no reliance on
//! untrusted counts for allocation sizing. This module owns the message
//! layouts and the codecs of the types they carry; payloads produced here
//! travel inside the checksummed frames of [`super::frame`].
//!
//! The response side ships *materialized view data* — schemas and rows —
//! not just metadata, so a client can reassemble a byte-identical replica
//! of the in-process [`QueryResult`] rendering
//! (invariant 12: over-the-wire result ≡ in-process result).
//! `f64` scores travel as raw IEEE-754 bits to keep that equivalence
//! bit-exact.
//!
//! Two writers, one layout. [`Response::encode`] writes the public types
//! ([`QueryHead`], [`Page`], [`WireView`]); the server writes the same
//! messages straight from a cached result's `&[View]` slice
//! ([`encode_query_head`], `encode_page`), with no `WireView`, row `Vec`
//! or text-cell clone in between. Both go through one writer of a head's
//! fixed fields and one of a view header; only the cell loop differs.
//!
//! On the read side, decoding a view reply is validation. [`Response::decode`]
//! copies the payload once into one `Arc<[u8]>` and walks it once, making
//! every check a reader of the cells would make: tags, bounded counts, the
//! zero-column rule, UTF-8 of every text cell and header, trailing bytes.
//! A [`WireView`] keeps its header fields and a [`RowBlock`] — a handle on
//! its row block inside that buffer — and its cells are read on access as
//! borrowed [`WireCell`]s. No row or cell is built at decode time, and
//! dropping a reply frees one buffer for all of its row data. Shard-leg
//! outputs and QBE specs decode into owned tables and values instead,
//! their text cells interned per message.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;

use ver_common::codec::{put_opt_string, put_string, put_u16, put_u32, put_u64, Reader};
use ver_common::error::{Result, VerError};
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::value::{DataType, Value};
use ver_core::engine::{Provenance, View};
use ver_core::QueryResult;
use ver_qbe::{ExampleQuery, QueryColumn, ViewSpec};
use ver_search::{SearchStats, ShardSearchOutput};
use ver_store::column::Column;
use ver_store::schema::{ColumnMeta, TableSchema};
use ver_store::table::Table;

use crate::ServeStats;

/// Wire-format version carried in `Health` replies; bump on any breaking
/// codec change (the frame preamble version covers framing only).
///
/// v2: `ShardQuery` / `ShardOutput` messages for remote scatter legs, and
/// per-leg router stats appended to `Stats` replies.
/// v3: `Stats` replies drop the three session counters.
/// v4: a shard-leg view carries its rank key only in its provenance
/// (`ShardOutput` views drop the score, canonical form and projection
/// sent before it).
///
/// A router and its legs upgrade together: neither reads the other's
/// older layout.
pub const PROTOCOL_VERSION: u32 = 4;

fn reader(payload: &[u8]) -> Reader<'_> {
    Reader::new(payload, VerError::Protocol)
}

// ---------------------------------------------------------------------
// cells and row blocks
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Text(t) => {
            out.push(3);
            put_string(out, t);
        }
    }
}

/// One cell of a row block, borrowed from the bytes it is read from.
#[derive(Debug, Clone, Copy)]
pub enum WireCell<'a> {
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
}

impl WireCell<'_> {
    /// The owned [`Value`] this cell encodes.
    pub fn to_value(self) -> Value {
        match self {
            WireCell::Null => Value::Null,
            WireCell::Int(i) => Value::Int(i),
            WireCell::Float(f) => Value::Float(f),
            WireCell::Text(t) => Value::text(t),
        }
    }
}

/// One cell as [`put_value`] wrote it: its tag, then 8 bytes or a
/// length-prefixed UTF-8 text borrowed from the payload.
fn read_cell<'a>(r: &mut Reader<'a>, what: &str) -> Result<WireCell<'a>> {
    match r.u8(what)? {
        0 => Ok(WireCell::Null),
        1 => Ok(WireCell::Int(r.u64(what)? as i64)),
        2 => Ok(WireCell::Float(f64::from_bits(r.u64(what)?))),
        3 => {
            let len = r.count(1, what)?;
            std::str::from_utf8(r.bytes(len, what)?)
                .map(WireCell::Text)
                .map_err(|_| VerError::Protocol(format!("invalid utf-8 in {what}")))
        }
        t => Err(VerError::Protocol(format!("bad value tag {t} for {what}"))),
    }
}

/// The text cells of one decoded shard output or QBE spec, which become
/// owned values: a repeated string is a refcount bump on the `Arc<str>` its
/// first occurrence allocated. The keys come from a peer, so the map keeps
/// std's randomly seeded hasher.
#[derive(Default)]
struct TextCells<'a>(HashMap<&'a str, Arc<str>>);

fn read_value<'a>(r: &mut Reader<'a>, text: &mut TextCells<'a>, what: &str) -> Result<Value> {
    Ok(match read_cell(r, what)? {
        WireCell::Text(t) => Value::Text(Arc::clone(text.0.entry(t).or_insert_with(|| t.into()))),
        cell => cell.to_value(),
    })
}

/// A table's row block straight from its columns: `nrows u32`, then the
/// `nrows × ncols` cells row-major.
fn put_rows(out: &mut Vec<u8>, table: &Table) {
    put_u32(out, table.row_count() as u32);
    let columns = table.columns();
    for row in 0..table.row_count() {
        for col in columns {
            put_value(out, &col.values()[row]);
        }
    }
}

/// The row count that opens a view's row block (`nrows u32`, then
/// `nrows × ncols` cells, row-major), checked against the bytes that
/// remain at one byte per cell. A table with no columns has no rows, so a
/// row count on a zero-column view is rejected here — it would otherwise
/// let every remaining payload byte claim a row that costs the decoder an
/// allocation.
fn read_row_count(r: &mut Reader<'_>, ncols: usize, what: &str) -> Result<usize> {
    let nrows = r.count(ncols, what)?;
    if ncols == 0 && nrows > 0 {
        return Err(VerError::Protocol(format!(
            "{nrows} rows for {what} of a view with no columns"
        )));
    }
    Ok(nrows)
}

/// What a cell accessor says of a block it cannot read, which no block
/// can be: a decoded block was walked cell by cell when its reply was
/// decoded, and every other block was written by [`put_value`].
const CHECKED: &str = "row block checked when it was made";

/// A view's row block, read in place: a handle on the bytes `put_rows`
/// writes (`nrows u32`, then `nrows × width` cells, row-major) inside one
/// shared buffer. For a decoded view that buffer is its reply's payload,
/// shared by every view of the reply, so a clone is a refcount bump and
/// the cells are read on access.
#[derive(Clone)]
pub struct RowBlock {
    buf: Arc<[u8]>,
    range: Range<usize>,
    rows: usize,
    width: usize,
}

impl RowBlock {
    /// The block of `rows`, each as wide as the first.
    ///
    /// # Panics
    /// If the rows differ in width, or have no cells at all: a view with no
    /// columns has no rows.
    pub fn from_rows(rows: &[Vec<Value>]) -> RowBlock {
        let width = rows.first().map_or(0, Vec::len);
        assert!(
            rows.is_empty() || width > 0,
            "rows of a view with no columns"
        );
        let mut out = Vec::new();
        put_u32(&mut out, rows.len() as u32);
        for row in rows {
            assert_eq!(row.len(), width, "rows of one block differ in width");
            for v in row {
                put_value(&mut out, v);
            }
        }
        RowBlock::written(out, rows.len(), width)
    }

    /// The block of `table`'s rows; forces the gather.
    fn from_table(table: &Table) -> RowBlock {
        let mut out = Vec::new();
        put_rows(&mut out, table);
        RowBlock::written(out, table.row_count(), table.column_count())
    }

    fn written(out: Vec<u8>, rows: usize, width: usize) -> RowBlock {
        RowBlock {
            range: 0..out.len(),
            buf: out.into(),
            rows,
            width,
        }
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The block's wire bytes, row count first.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }

    /// The buffer the block reads from: for a decoded view, the whole
    /// payload of its reply.
    pub fn buffer(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// Every cell, row-major.
    pub fn cells(&self) -> Cells<'_> {
        Cells {
            rest: &self.as_bytes()[4..],
            left: self.rows * self.width,
        }
    }

    /// The rows in order, each the cells of one row.
    pub fn rows(&self) -> impl Iterator<Item = Cells<'_>> + '_ {
        let mut cells = self.cells();
        (0..self.rows).map(move |_| {
            let row = Cells {
                rest: cells.rest,
                left: self.width,
            };
            cells.nth(self.width - 1);
            row
        })
    }
}

/// Byte equality of two blocks is equality of their rows, cell by cell:
/// * `put_value` has exactly one encoding per [`Value`], prefix-free, and
///   `Value::eq` compares floats by their bits, so two cell sequences are
///   equal exactly when their bytes are — `NaN` payloads and `-0.0`
///   included;
/// * a block opens with its row count, and `nrows × width` cells then fix
///   the width whenever there is a row (with none, there is nothing for
///   the width to split).
impl PartialEq for RowBlock {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for RowBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.rows().map(Iterator::collect::<Vec<_>>))
            .finish()
    }
}

/// Cells of a [`RowBlock`], row-major, each read as the iterator reaches
/// it.
#[derive(Clone)]
pub struct Cells<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Cells<'a> {
    type Item = WireCell<'a>;

    fn next(&mut self) -> Option<WireCell<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut r = reader(self.rest);
        let cell = read_cell(&mut r, "view cell").expect(CHECKED);
        self.rest = &self.rest[self.rest.len() - r.remaining()..];
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

// ---------------------------------------------------------------------
// ViewSpec codec
// ---------------------------------------------------------------------

fn put_spec(out: &mut Vec<u8>, spec: &ViewSpec) {
    match spec {
        ViewSpec::Qbe(q) => {
            out.push(0);
            put_u32(out, q.columns.len() as u32);
            for col in &q.columns {
                put_opt_string(out, col.name_hint.as_deref());
                put_u32(out, col.examples.len() as u32);
                for v in &col.examples {
                    put_value(out, v);
                }
            }
        }
        ViewSpec::Keyword(terms) => {
            out.push(1);
            put_terms(out, terms);
        }
        ViewSpec::Attribute(terms) => {
            out.push(2);
            put_terms(out, terms);
        }
    }
}

fn put_terms(out: &mut Vec<u8>, terms: &[String]) {
    put_u32(out, terms.len() as u32);
    for t in terms {
        put_string(out, t);
    }
}

fn read_terms(r: &mut Reader<'_>, what: &str) -> Result<Vec<String>> {
    r.seq(4, what, |r| r.string(what))
}

fn read_spec(r: &mut Reader<'_>) -> Result<ViewSpec> {
    match r.u8("spec tag")? {
        0 => {
            let mut text = TextCells::default();
            let columns = r.seq(1, "qbe columns", |r| {
                let name_hint = r.opt_string("qbe name hint")?;
                let examples = r.seq(1, "qbe examples", |r| {
                    read_value(r, &mut text, "qbe example")
                })?;
                let col = QueryColumn::of_values(examples);
                Ok(match name_hint {
                    Some(h) => col.named(h),
                    None => col,
                })
            })?;
            // Re-validate: a hostile peer can encode a spec the public
            // constructor would reject (zero columns, all-empty column).
            let q = ExampleQuery::new(columns)
                .map_err(|e| VerError::Protocol(format!("invalid qbe spec on wire: {e}")))?;
            Ok(ViewSpec::Qbe(q))
        }
        1 => Ok(ViewSpec::Keyword(read_terms(r, "keyword terms")?)),
        2 => Ok(ViewSpec::Attribute(read_terms(r, "attribute terms")?)),
        t => Err(VerError::Protocol(format!("bad spec tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a discovery query. `page_size == 0` defers to the server's
    /// default page size (itself 0, the whole result inline, unless
    /// `verd --page-size` says otherwise); a result longer than the page
    /// size comes back as a head with the first page and a cursor for
    /// [`Request::FetchPage`]. `timeout_ms == 0` means no deadline.
    Query {
        spec: ViewSpec,
        page_size: u32,
        timeout_ms: u64,
    },
    /// Fetch page `page` (0-based; page 0 is the one already delivered
    /// inline) from a server-side cursor opened by a paginated `Query`.
    FetchPage { cursor: u64, page: u32 },
    /// Snapshot engine + network counters.
    Stats,
    /// Liveness / deployment-shape probe.
    Health,
    /// Ask the server to stop accepting connections and exit its accept
    /// loop. Acked before the listener closes.
    Shutdown,
    /// Run **one scatter leg** of a sharded query: this server's owned
    /// slice of the candidate space, returned raw (rank keys + full view
    /// data) for the router to merge. `budget_ms` is the budget
    /// *remaining* at the router when the request was sent (`0` = no
    /// deadline) — retries deduct elapsed time, so a retried leg races a
    /// shrinking clock.
    ShardQuery {
        spec: ViewSpec,
        shard: u32,
        shard_count: u32,
        budget_ms: u64,
    },
}

const REQ_QUERY: u8 = 1;
const REQ_FETCH_PAGE: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_HEALTH: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_SHARD_QUERY: u8 = 6;

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query {
                spec,
                page_size,
                timeout_ms,
            } => {
                out.push(REQ_QUERY);
                put_spec(&mut out, spec);
                put_u32(&mut out, *page_size);
                put_u64(&mut out, *timeout_ms);
            }
            Request::FetchPage { cursor, page } => {
                out.push(REQ_FETCH_PAGE);
                put_u64(&mut out, *cursor);
                put_u32(&mut out, *page);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Health => out.push(REQ_HEALTH),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::ShardQuery {
                spec,
                shard,
                shard_count,
                budget_ms,
            } => {
                out.push(REQ_SHARD_QUERY);
                put_spec(&mut out, spec);
                put_u32(&mut out, *shard);
                put_u32(&mut out, *shard_count);
                put_u64(&mut out, *budget_ms);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = reader(payload);
        let req = match r.u8("request tag")? {
            REQ_QUERY => {
                let spec = read_spec(&mut r)?;
                let page_size = r.u32("page size")?;
                let timeout_ms = r.u64("timeout")?;
                Request::Query {
                    spec,
                    page_size,
                    timeout_ms,
                }
            }
            REQ_FETCH_PAGE => Request::FetchPage {
                cursor: r.u64("cursor")?,
                page: r.u32("page")?,
            },
            REQ_STATS => Request::Stats,
            REQ_HEALTH => Request::Health,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_SHARD_QUERY => {
                let spec = read_spec(&mut r)?;
                let shard = r.u32("shard")?;
                let shard_count = r.u32("shard count")?;
                let budget_ms = r.u64("budget")?;
                if shard_count == 0 || shard >= shard_count {
                    return Err(VerError::Protocol(format!(
                        "shard {shard} out of range for {shard_count} shards"
                    )));
                }
                Request::ShardQuery {
                    spec,
                    shard,
                    shard_count,
                    budget_ms,
                }
            }
            t => return Err(VerError::Protocol(format!("bad request tag {t}"))),
        };
        r.finish("request")?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// response payload types
// ---------------------------------------------------------------------

/// One materialized view, shipped whole: identity, provenance summary,
/// schema, and row data. Carrying the data (not just metadata) is what
/// lets the client verify invariant 12 byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct WireView {
    /// `ViewId` ordinal.
    pub id: u32,
    /// `provenance.join_score` as IEEE-754 bits (bit-exact transport).
    pub score_bits: u64,
    /// Join hops (`provenance.hops()`).
    pub hops: u32,
    /// Source `TableId` ordinals, base table first.
    pub source_tables: Vec<u32>,
    /// Column headers; `None` models a missing header.
    pub columns: Vec<Option<String>>,
    /// Materialized, deduplicated rows (each `columns.len()` wide), read in
    /// place from their wire bytes.
    pub rows: RowBlock,
}

impl WireView {
    pub fn join_score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }

    pub fn from_view(v: &View) -> WireView {
        WireView {
            id: v.id.0,
            score_bits: v.provenance.join_score.to_bits(),
            hops: v.provenance.hops() as u32,
            source_tables: v.provenance.source_tables.iter().map(|t| t.0).collect(),
            columns: v
                .schema()
                .columns
                .iter()
                .map(|c| c.name.as_deref().map(str::to_string))
                .collect(),
            // Forces the gather: the wire carries every row.
            rows: RowBlock::from_table(&v.table),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_view_header(
            out,
            self.id,
            self.score_bits,
            self.hops,
            self.source_tables.iter().copied(),
            self.columns.iter().map(Option::as_deref),
        );
        out.extend_from_slice(self.rows.as_bytes());
    }

    /// One view read by `r` from a reply whose payload `buf` is a copy of:
    /// its header decoded, its row block walked cell by cell and kept as
    /// a handle on `buf`.
    fn decode(r: &mut Reader<'_>, buf: &Arc<[u8]>) -> Result<WireView> {
        let id = r.u32("view id")?;
        let score_bits = r.u64("view score")?;
        let hops = r.u32("view hops")?;
        let source_tables = r.seq(4, "view tables", |r| r.u32("view table id"))?;
        let columns = r.seq(1, "view columns", |r| r.opt_string("view column name"))?;
        let width = columns.len();
        let start = buf.len() - r.remaining();
        let rows = read_row_count(r, width, "view rows")?;
        // At most one cell per remaining byte: `read_row_count` bounds it.
        for _ in 0..rows * width {
            read_cell(r, "view cell")?;
        }
        Ok(WireView {
            id,
            score_bits,
            hops,
            source_tables,
            columns,
            rows: RowBlock {
                buf: Arc::clone(buf),
                range: start..buf.len() - r.remaining(),
                rows,
                width,
            },
        })
    }
}

/// A view's fields before its row block, in wire order — shared by
/// [`WireView`]'s codec and [`put_cached_view`].
fn put_view_header<'s>(
    out: &mut Vec<u8>,
    id: u32,
    score_bits: u64,
    hops: u32,
    source_tables: impl ExactSizeIterator<Item = u32>,
    columns: impl ExactSizeIterator<Item = Option<&'s str>>,
) {
    put_u32(out, id);
    put_u64(out, score_bits);
    put_u32(out, hops);
    put_u32(out, source_tables.len() as u32);
    for t in source_tables {
        put_u32(out, t);
    }
    put_u32(out, columns.len() as u32);
    for c in columns {
        put_opt_string(out, c);
    }
}

/// One cached view in [`WireView`] layout, written from its gathered table:
/// the bytes [`WireView::from_view`] would encode to.
fn put_cached_view(out: &mut Vec<u8>, v: &View) {
    put_view_header(
        out,
        v.id.0,
        v.provenance.join_score.to_bits(),
        v.provenance.hops() as u32,
        v.provenance.source_tables.iter().map(|t| t.0),
        v.schema().columns.iter().map(|c| c.name.as_deref()),
    );
    put_rows(out, &v.table);
}

/// `views`, every one gathered before the caller builds a byte or a row
/// from the first. The gathered tables outlive the reply — the result LRU
/// and the view LRU share them — while what is built from them dies with
/// it. Built interleaved, the tables end up threaded through the holes the
/// reply leaves behind, and every later read of the result pays for that
/// (a whole-result hit over the wire: +2 ms of 16). Views outside the
/// slice are not touched.
fn gathered(views: &[View]) -> &[View] {
    for v in views {
        v.table.gather();
    }
    views
}

fn put_search_stats(out: &mut Vec<u8>, s: &SearchStats) {
    put_u64(out, s.combinations as u64);
    put_u64(out, s.skipped_by_cache as u64);
    put_u64(out, s.joinable_groups as u64);
    put_u64(out, s.join_graphs as u64);
    put_u64(out, s.views as u64);
}

fn read_search_stats(r: &mut Reader<'_>) -> Result<SearchStats> {
    Ok(SearchStats {
        combinations: r.u64("stats combinations")? as usize,
        skipped_by_cache: r.u64("stats skipped")? as usize,
        joinable_groups: r.u64("stats groups")? as usize,
        join_graphs: r.u64("stats graphs")? as usize,
        views: r.u64("stats views")? as usize,
    })
}

// ---------------------------------------------------------------------
// shard-leg output
// ---------------------------------------------------------------------

fn put_cref(out: &mut Vec<u8>, c: &ColumnRef) {
    put_u32(out, c.table.0);
    put_u16(out, c.ordinal);
}

fn read_cref(r: &mut Reader<'_>, what: &str) -> Result<ColumnRef> {
    Ok(ColumnRef {
        table: TableId(r.u32(what)?),
        ordinal: r.u16(what)?,
    })
}

/// One view of a shard leg's output in *full fidelity* — id, schema
/// metadata, rows, provenance — so the router rebuilds the exact [`View`]
/// the in-process scatter would have produced and merges legs
/// bit-identically (invariant 13). The provenance carries the view's rank
/// key (join score, join edges, projection); nothing else repeats it. Rows
/// stream straight out of the columnar table, row-major.
fn put_shard_view(out: &mut Vec<u8>, v: &View) {
    put_u32(out, v.id.0);
    // Forces the gather: a leg ships its views' rows to the router.
    let table: &Table = &v.table;
    put_u32(out, table.id.0);
    put_string(out, table.name());
    put_u32(out, table.column_count() as u32);
    for c in &table.schema.columns {
        put_opt_string(out, c.name.as_deref());
        out.push(c.dtype.code());
    }
    put_rows(out, table);
    let prov = &v.provenance;
    put_u32(out, prov.join_edges.len() as u32);
    for (a, b) in &prov.join_edges {
        put_cref(out, a);
        put_cref(out, b);
    }
    put_u32(out, prov.source_tables.len() as u32);
    for t in &prov.source_tables {
        put_u32(out, t.0);
    }
    put_u32(out, prov.projection.len() as u32);
    for c in &prov.projection {
        put_cref(out, c);
    }
    put_u64(out, prov.join_score.to_bits());
}

/// Decode one shard view straight into columns → [`Table::new`] →
/// [`View::new`]. A payload that parses cleanly can still describe an
/// impossible table (hostile peer); that too is [`VerError::Protocol`].
fn read_shard_view<'a>(r: &mut Reader<'a>, text: &mut TextCells<'a>) -> Result<View> {
    let view_id = ViewId(r.u32("shard view id")?);
    let table_id = TableId(r.u32("shard view table id")?);
    let table_name = r.string("shard view table name")?;
    let metas = r.seq(2, "shard view columns", |r| {
        let name = r.opt_string("shard view column name")?;
        let tag = r.u8("shard view column dtype")?;
        let dtype = DataType::from_code(tag).ok_or_else(|| {
            VerError::Protocol(format!("bad dtype tag {tag} for shard view column"))
        })?;
        Ok(ColumnMeta {
            name: name.as_deref().map(Arc::from),
            dtype,
        })
    })?;
    let nrows = read_row_count(r, metas.len(), "shard view rows")?;
    let mut cols: Vec<Vec<Value>> = metas.iter().map(|_| Vec::new()).collect();
    for _ in 0..nrows {
        for col in &mut cols {
            col.push(read_value(r, text, "shard view cell")?);
        }
    }
    let provenance = Provenance {
        join_edges: r.seq(12, "shard view join edges", |r| {
            Ok((read_cref(r, "join edge")?, read_cref(r, "join edge")?))
        })?,
        source_tables: r.seq(4, "shard view source tables", |r| {
            Ok(TableId(r.u32("source table")?))
        })?,
        projection: r.seq(6, "shard view projection", |r| {
            read_cref(r, "projection column")
        })?,
        join_score: f64::from_bits(r.u64("shard view join score")?),
    };
    let columns = cols.into_iter().map(Column::from_values).collect();
    let mut table = Table::new(TableSchema::new(table_name, metas), columns)
        .map_err(|e| VerError::Protocol(format!("shard view table on wire: {e}")))?;
    table.id = table_id;
    Ok(View::new(view_id, table, provenance))
}

/// One whole shard leg's output: this shard's owned slice of the global
/// ranking. The leg's DAG counters and stage timers stay server-side —
/// they never influence merged *results* (only local diagnostics), so
/// shipping them would buy nothing but bytes; the decoder resets them.
fn put_shard_output(out: &mut Vec<u8>, o: &ShardSearchOutput) {
    put_u32(out, o.shard as u32);
    put_u32(out, o.shard_count as u32);
    out.push(o.partial as u8);
    put_search_stats(out, &o.stats);
    put_u32(out, o.views.len() as u32);
    for v in &o.views {
        put_shard_view(out, v);
    }
}

fn read_shard_output(r: &mut Reader<'_>) -> Result<ShardSearchOutput> {
    let shard = r.u32("shard")? as usize;
    let shard_count = r.u32("shard count")? as usize;
    let partial = r.bool("shard partial")?;
    let stats = read_search_stats(r)?;
    let mut text = TextCells::default();
    let views = r.seq(40, "shard views", |r| read_shard_view(r, &mut text))?;
    Ok(ShardSearchOutput {
        shard,
        shard_count,
        views,
        stats,
        dag: ver_search::MaterializeStats::default(),
        timer: ver_common::timer::PhaseTimer::new(),
        partial,
    })
}

/// The head of a query response: result-level facts plus the first page
/// of views. `cursor == 0` means the result is complete as delivered;
/// otherwise the remaining pages are fetched with [`Request::FetchPage`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHead {
    pub partial: bool,
    pub stats: SearchStats,
    /// C2 survivor `ViewId` ordinals (distillation output).
    pub survivors_c2: Vec<u32>,
    /// Ranked `(ViewId ordinal, overlap score)` pairs.
    pub ranked: Vec<(u32, u64)>,
    /// Total views in the result across all pages.
    pub total_views: u32,
    /// Effective page size the server applied (0 = everything inline).
    pub page_size: u32,
    /// Cursor id for `FetchPage`; 0 when no pages remain.
    pub cursor: u64,
    /// Page 0 of the views, id order.
    pub views: Vec<WireView>,
}

/// One follow-up page from a server-side cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    pub cursor: u64,
    pub page: u32,
    /// `true` on the final page; the server frees the cursor after
    /// serving it.
    pub last: bool,
    pub views: Vec<WireView>,
}

/// Network-layer counters, snapshot over the server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted (including ones later rejected by the cap).
    pub accepted: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Connections turned away by the `max_conns` cap.
    pub rejected_conns: u64,
    /// Connections dropped by peer death, timeouts, or handler panics.
    pub dropped_conns: u64,
    /// Malformed frames / payloads received.
    pub protocol_errors: u64,
    /// Request handlers that panicked (each cost its connection only).
    pub handler_panics: u64,
    /// Frames successfully read.
    pub frames_in: u64,
    /// Frames successfully written.
    pub frames_out: u64,
    /// Queries answered with a result.
    pub queries_ok: u64,
    /// Queries answered with an error status.
    pub queries_err: u64,
    /// Follow-up pages served from cursors.
    pub pages_served: u64,
    /// Cursors currently open.
    pub cursors_open: u64,
    /// Cursors evicted before being drained (FIFO cap).
    pub cursors_evicted: u64,
}

impl NetStats {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.accepted,
            self.active,
            self.rejected_conns,
            self.dropped_conns,
            self.protocol_errors,
            self.handler_panics,
            self.frames_in,
            self.frames_out,
            self.queries_ok,
            self.queries_err,
            self.pages_served,
            self.cursors_open,
            self.cursors_evicted,
        ] {
            put_u64(out, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<NetStats> {
        Ok(NetStats {
            accepted: r.u64("net accepted")?,
            active: r.u64("net active")?,
            rejected_conns: r.u64("net rejected")?,
            dropped_conns: r.u64("net dropped")?,
            protocol_errors: r.u64("net protocol errors")?,
            handler_panics: r.u64("net panics")?,
            frames_in: r.u64("net frames in")?,
            frames_out: r.u64("net frames out")?,
            queries_ok: r.u64("net queries ok")?,
            queries_err: r.u64("net queries err")?,
            pages_served: r.u64("net pages")?,
            cursors_open: r.u64("net cursors open")?,
            cursors_evicted: r.u64("net cursors evicted")?,
        })
    }
}

fn put_cache_stats(out: &mut Vec<u8>, c: &ver_common::cache::CacheStats) {
    put_u64(out, c.hits);
    put_u64(out, c.misses);
    out.push(c.disabled as u8);
}

fn read_cache_stats(r: &mut Reader<'_>, what: &str) -> Result<ver_common::cache::CacheStats> {
    Ok(ver_common::cache::CacheStats {
        hits: r.u64(what)?,
        misses: r.u64(what)?,
        disabled: r.bool(what)?,
    })
}

/// Health of one remote scatter leg, as the router's `Stats` reply
/// reports it. Single and sharded backends reply with an empty leg list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireRouterLeg {
    /// The leg's shard-server address, as configured on the router.
    pub addr: String,
    /// Wire attempts made to this leg (first tries and retries alike).
    pub attempts: u64,
    /// Attempts beyond the first for some query (failure → backoff → retry).
    pub retries: u64,
    /// Attempts that failed (the breaker counts these consecutively).
    pub failures: u64,
    /// Queries that gave up on this leg and degraded the merge to partial.
    pub failovers: u64,
    /// Circuit-breaker state: 0 = closed, 1 = open, 2 = half-open.
    pub breaker: u8,
}

impl WireRouterLeg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.addr);
        put_u64(out, self.attempts);
        put_u64(out, self.retries);
        put_u64(out, self.failures);
        put_u64(out, self.failovers);
        out.push(self.breaker);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireRouterLeg> {
        Ok(WireRouterLeg {
            addr: r.string("router leg addr")?,
            attempts: r.u64("router leg attempts")?,
            retries: r.u64("router leg retries")?,
            failures: r.u64("router leg failures")?,
            failovers: r.u64("router leg failovers")?,
            breaker: {
                let b = r.u8("router leg breaker")?;
                if b > 2 {
                    return Err(VerError::Protocol(format!("bad breaker state {b}")));
                }
                b
            },
        })
    }
}

/// Engine + network counters together, plus per-leg router health when
/// the server is a router over remote shard legs.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    pub serve: ServeStats,
    pub net: NetStats,
    pub router: Vec<WireRouterLeg>,
}

impl StatsReply {
    fn encode(&self, out: &mut Vec<u8>) {
        let s = &self.serve;
        put_u64(out, s.queries);
        put_cache_stats(out, &s.result_cache);
        put_cache_stats(out, &s.view_cache);
        put_cache_stats(out, &s.score_memo);
        put_u64(out, s.cached_views as u64);
        put_u64(out, s.rejected);
        put_u64(out, s.partial_results);
        put_u64(out, s.in_flight as u64);
        self.net.encode(out);
        put_u32(out, self.router.len() as u32);
        for leg in &self.router {
            leg.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<StatsReply> {
        let serve = ServeStats {
            queries: r.u64("serve queries")?,
            result_cache: read_cache_stats(r, "result cache")?,
            view_cache: read_cache_stats(r, "view cache")?,
            score_memo: read_cache_stats(r, "score memo")?,
            cached_views: r.u64("cached views")? as usize,
            rejected: r.u64("rejected")?,
            partial_results: r.u64("partial results")?,
            in_flight: r.u64("in flight")? as usize,
        };
        let net = NetStats::decode(r)?;
        let router = r.seq(37, "router legs", WireRouterLeg::decode)?;
        Ok(StatsReply { serve, net, router })
    }
}

/// Liveness + deployment shape (the `ViewDiscoveryService` health
/// endpoint, over binary frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReply {
    pub protocol_version: u32,
    /// Tables in the served catalog.
    pub tables: u64,
    /// Columns in the served catalog.
    pub columns: u64,
    /// Index shards behind this server (1 = single engine).
    pub shards: u32,
    pub uptime_ms: u64,
}

impl HealthReply {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.protocol_version);
        put_u64(out, self.tables);
        put_u64(out, self.columns);
        put_u32(out, self.shards);
        put_u64(out, self.uptime_ms);
    }

    fn decode(r: &mut Reader<'_>) -> Result<HealthReply> {
        Ok(HealthReply {
            protocol_version: r.u32("protocol version")?,
            tables: r.u64("health tables")?,
            columns: r.u64("health columns")?,
            shards: r.u32("health shards")?,
            uptime_ms: r.u64("health uptime")?,
        })
    }
}

// ---------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------

/// A server→client message.
#[derive(Debug)]
pub enum Response {
    Query(QueryHead),
    Page(Page),
    Stats(StatsReply),
    Health(HealthReply),
    ShutdownAck,
    /// One shard leg's raw output (reply to [`Request::ShardQuery`]).
    ShardOutput(ShardSearchOutput),
    /// Typed failure: `code` is [`VerError::wire_code`], `message` the
    /// error's inner message. The client rebuilds the `VerError` with
    /// [`VerError::from_wire`].
    Error {
        code: u16,
        message: String,
    },
}

const RESP_QUERY: u8 = 1;
const RESP_PAGE: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_HEALTH: u8 = 4;
const RESP_SHUTDOWN_ACK: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_SHARD_OUTPUT: u8 = 7;

/// A `Query` head's fields before its views, in wire order — shared by
/// [`Response::encode`] and [`encode_query_head`].
#[allow(clippy::too_many_arguments)]
fn put_head_fields(
    out: &mut Vec<u8>,
    partial: bool,
    stats: &SearchStats,
    survivors_c2: impl ExactSizeIterator<Item = u32>,
    ranked: impl ExactSizeIterator<Item = (u32, u64)>,
    total_views: u32,
    page_size: u32,
    cursor: u64,
) {
    out.push(RESP_QUERY);
    out.push(partial as u8);
    put_search_stats(out, stats);
    put_u32(out, survivors_c2.len() as u32);
    for v in survivors_c2 {
        put_u32(out, v);
    }
    put_u32(out, ranked.len() as u32);
    for (v, s) in ranked {
        put_u32(out, v);
        put_u64(out, s);
    }
    put_u32(out, total_views);
    put_u32(out, page_size);
    put_u64(out, cursor);
}

/// A `Page`'s fields before its views, in wire order.
fn put_page_fields(out: &mut Vec<u8>, cursor: u64, page: u32, last: bool) {
    out.push(RESP_PAGE);
    put_u64(out, cursor);
    put_u32(out, page);
    out.push(last as u8);
}

fn put_views(out: &mut Vec<u8>, views: &[WireView]) {
    put_u32(out, views.len() as u32);
    for v in views {
        v.encode(out);
    }
}

fn put_cached_views(out: &mut Vec<u8>, views: &[View]) {
    put_u32(out, views.len() as u32);
    for v in gathered(views) {
        put_cached_view(out, v);
    }
}

/// One reply's views, read by `r` from `payload`: the one copy of the
/// payload their row blocks share is made here.
fn read_views(r: &mut Reader<'_>, payload: &[u8]) -> Result<Vec<WireView>> {
    let buf: Arc<[u8]> = payload.into();
    r.seq(20, "views", |r| WireView::decode(r, &buf))
}

/// The `Response::Query` payload of a head over `result` that ships
/// `views` — the whole result inline (`page_size` 0, `cursor` 0), or its
/// first page under a cursor — written straight from the cached views.
/// Byte-for-byte what [`Response::encode`] makes of the same head built
/// from [`WireResult::from_query_result`], with no [`WireView`] in between.
/// The shipped views are gathered first; the rest of `result` is not
/// touched.
pub fn encode_query_head(
    result: &QueryResult,
    views: &[View],
    page_size: u32,
    cursor: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_head_fields(
        &mut out,
        result.partial,
        &result.search_stats,
        result.distill.survivors_c2.iter().map(|v| v.0),
        result.ranked.iter().map(|(v, s)| (v.0, *s as u64)),
        result.views.len() as u32,
        page_size,
        cursor,
    );
    put_cached_views(&mut out, views);
    out
}

/// The `Response::Page` payload of page `page` of `cursor`, written straight
/// from the cached `views` it ships, as [`encode_query_head`] writes a head.
pub(crate) fn encode_page(cursor: u64, page: u32, last: bool, views: &[View]) -> Vec<u8> {
    let mut out = Vec::new();
    put_page_fields(&mut out, cursor, page, last);
    put_cached_views(&mut out, views);
    out
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Query(head) => {
                put_head_fields(
                    &mut out,
                    head.partial,
                    &head.stats,
                    head.survivors_c2.iter().copied(),
                    head.ranked.iter().copied(),
                    head.total_views,
                    head.page_size,
                    head.cursor,
                );
                put_views(&mut out, &head.views);
            }
            Response::Page(p) => {
                put_page_fields(&mut out, p.cursor, p.page, p.last);
                put_views(&mut out, &p.views);
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                s.encode(&mut out);
            }
            Response::Health(h) => {
                out.push(RESP_HEALTH);
                h.encode(&mut out);
            }
            Response::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
            Response::ShardOutput(o) => {
                out.push(RESP_SHARD_OUTPUT);
                put_shard_output(&mut out, o);
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                put_u16(&mut out, *code);
                put_string(&mut out, message);
            }
        }
        out
    }

    /// Decode one reply, checking all of it: a malformed payload is
    /// [`VerError::Protocol`]. A head or a page keeps one copy of `payload`
    /// that its views' [`RowBlock`]s read from, so reading their cells
    /// later never fails.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = reader(payload);
        let resp = match r.u8("response tag")? {
            RESP_QUERY => {
                let partial = r.bool("partial flag")?;
                let stats = read_search_stats(&mut r)?;
                let survivors_c2 = r.seq(4, "survivors", |r| r.u32("survivor id"))?;
                let ranked = r.seq(12, "ranked", |r| {
                    Ok((r.u32("ranked id")?, r.u64("ranked score")?))
                })?;
                let total_views = r.u32("total views")?;
                let page_size = r.u32("page size")?;
                let cursor = r.u64("cursor")?;
                let views = read_views(&mut r, payload)?;
                Response::Query(QueryHead {
                    partial,
                    stats,
                    survivors_c2,
                    ranked,
                    total_views,
                    page_size,
                    cursor,
                    views,
                })
            }
            RESP_PAGE => {
                let cursor = r.u64("cursor")?;
                let page = r.u32("page")?;
                let last = r.bool("last flag")?;
                let views = read_views(&mut r, payload)?;
                Response::Page(Page {
                    cursor,
                    page,
                    last,
                    views,
                })
            }
            RESP_STATS => Response::Stats(StatsReply::decode(&mut r)?),
            RESP_HEALTH => Response::Health(HealthReply::decode(&mut r)?),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_SHARD_OUTPUT => Response::ShardOutput(read_shard_output(&mut r)?),
            RESP_ERROR => {
                let code = r.u16("error code")?;
                let message = r.string("error message")?;
                Response::Error { code, message }
            }
            t => return Err(VerError::Protocol(format!("bad response tag {t}"))),
        };
        r.finish("response")?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// assembled results
// ---------------------------------------------------------------------

/// A fully reassembled query result on the client side: the head's
/// result-level facts plus every page of views. `PartialEq` makes
/// "paginated fetch ≡ single-shot fetch" a one-line assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    pub partial: bool,
    pub stats: SearchStats,
    pub survivors_c2: Vec<u32>,
    pub ranked: Vec<(u32, u64)>,
    pub views: Vec<WireView>,
}

impl WireResult {
    /// Server-side conversion from the in-process result. The golden
    /// test pins `render` of this against `render` of a client-fetched
    /// copy *and* against the in-process snapshot file.
    /// It is also the reference the server's direct writers
    /// ([`encode_query_head`] and its page twin) are tested against.
    pub fn from_query_result(result: &QueryResult) -> WireResult {
        WireResult {
            partial: result.partial,
            stats: result.search_stats,
            survivors_c2: result.distill.survivors_c2.iter().map(|v| v.0).collect(),
            ranked: result
                .ranked
                .iter()
                .map(|(v, s)| (v.0, *s as u64))
                .collect(),
            views: gathered(&result.views)
                .iter()
                .map(WireView::from_view)
                .collect(),
        }
    }

    /// Render in the exact format of `ver_bench::golden::render_query`,
    /// byte-for-byte — the network half of invariant 12.
    pub fn render(&self, out: &mut String, name: &str) {
        let s = &self.stats;
        let _ = writeln!(out, "# query {name}");
        let _ = writeln!(
            out,
            "stats combinations={} groups={} graphs={} views={}",
            s.combinations, s.joinable_groups, s.join_graphs, s.views
        );
        for v in &self.views {
            let tables: Vec<String> = v.source_tables.iter().map(|t| format!("T{t}")).collect();
            let _ = writeln!(
                out,
                "view V{} score={:.6} rows={} cols={} hops={} tables={}",
                v.id,
                v.join_score(),
                v.rows.len(),
                v.columns.len(),
                v.hops,
                tables.join(",")
            );
        }
        let survivors: Vec<String> = self.survivors_c2.iter().map(|v| format!("V{v}")).collect();
        let _ = writeln!(out, "survivors_c2 {}", survivors.join(" "));
        let ranked: Vec<String> = self
            .ranked
            .iter()
            .map(|(v, score)| format!("V{v}:{score}"))
            .collect();
        let _ = writeln!(out, "ranked {}", ranked.join(" "));
        let _ = writeln!(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_qbe::QueryColumn;

    fn sample_specs() -> Vec<ViewSpec> {
        vec![
            ViewSpec::Qbe(
                ExampleQuery::new(vec![
                    QueryColumn::of_strs(&["ATL", "JFK"]).named("code"),
                    QueryColumn::of_values(vec![Value::Int(42), Value::Null, Value::Float(2.5)]),
                ])
                .unwrap(),
            ),
            ViewSpec::Keyword(vec!["population".into(), "city".into()]),
            ViewSpec::Attribute(vec!["state".into()]),
        ]
    }

    fn sample_view() -> WireView {
        WireView {
            id: 7,
            score_bits: 1.25f64.to_bits(),
            hops: 1,
            source_tables: vec![0, 3],
            columns: vec![Some("a".into()), None],
            rows: RowBlock::from_rows(&[
                vec![Value::text("x"), Value::Int(-1)],
                vec![Value::Null, Value::Float(0.5)],
            ]),
        }
    }

    fn cref(table: u32, ordinal: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(table),
            ordinal,
        }
    }

    fn sample_shard_output() -> ShardSearchOutput {
        let schema = TableSchema::new(
            "joined",
            vec![
                ColumnMeta::named("a", DataType::Text),
                ColumnMeta::anonymous(DataType::Int),
            ],
        );
        let columns = vec![
            Column::from_values(vec![Value::text("x"), Value::Null]),
            Column::from_values(vec![Value::Int(-1), Value::Int(7)]),
        ];
        let mut table = Table::new(schema, columns).unwrap();
        table.id = TableId(3);
        let provenance = Provenance {
            join_edges: vec![(cref(0, 1), cref(3, 0))],
            source_tables: vec![TableId(0), TableId(3)],
            projection: vec![cref(0, 0), cref(3, 1)],
            join_score: 0.75,
        };
        ShardSearchOutput {
            shard: 1,
            shard_count: 2,
            views: vec![View::new(ViewId(5), table, provenance)],
            stats: SearchStats {
                combinations: 5,
                skipped_by_cache: 0,
                joinable_groups: 5,
                join_graphs: 9,
                views: 1,
            },
            dag: ver_search::MaterializeStats::default(),
            timer: ver_common::timer::PhaseTimer::new(),
            partial: true,
        }
    }

    #[test]
    fn requests_round_trip() {
        let mut reqs = vec![
            Request::FetchPage { cursor: 9, page: 2 },
            Request::Stats,
            Request::Health,
            Request::Shutdown,
        ];
        for spec in sample_specs() {
            reqs.push(Request::Query {
                spec: spec.clone(),
                page_size: 16,
                timeout_ms: 250,
            });
            reqs.push(Request::ShardQuery {
                spec,
                shard: 1,
                shard_count: 4,
                budget_ms: 1500,
            });
        }
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req);
        }
    }

    #[test]
    fn shard_query_with_out_of_range_shard_is_a_protocol_error() {
        for (shard, shard_count) in [(2u32, 2u32), (0, 0), (7, 3)] {
            let enc = Request::ShardQuery {
                spec: sample_specs().remove(1),
                shard,
                shard_count,
                budget_ms: 0,
            }
            .encode();
            assert!(
                matches!(Request::decode(&enc), Err(VerError::Protocol(_))),
                "shard {shard}/{shard_count} must be rejected"
            );
        }
    }

    #[test]
    fn shard_view_reconstruction_is_lossless() {
        // in-process → wire → in-process → wire must be the identity: the
        // router's merge works on reconstructed views, so any loss here
        // would silently break invariant 13.
        let bytes = Response::ShardOutput(sample_shard_output()).encode();
        let back = Response::decode(&bytes).unwrap();
        let Response::ShardOutput(out) = &back else {
            panic!("expected ShardOutput, got {back:?}");
        };
        let sv = &out.views[0];
        assert_eq!(sv.table.row_count(), 2);
        assert_eq!(sv.table.schema.columns[0].name.as_deref(), Some("a"));
        assert_eq!(sv.table.cell(1, 1), Some(&Value::Int(7)));
        assert_eq!(sv.provenance.join_edges.len(), 1);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn shard_view_with_an_unknown_dtype_is_a_protocol_error() {
        let mut bytes = Response::ShardOutput(sample_shard_output()).encode();
        // Column "a": option tag, length-prefixed name, then its dtype code.
        let column = [1, 1, 0, 0, 0, b'a', DataType::Text.code()];
        let at = bytes
            .windows(column.len())
            .position(|w| w == column)
            .expect("column header in payload");
        bytes[at + column.len() - 1] = 9;
        assert!(matches!(
            Response::decode(&bytes),
            Err(VerError::Protocol(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Request::Stats.encode();
        enc.push(0);
        assert!(matches!(Request::decode(&enc), Err(VerError::Protocol(_))));
        let mut enc = Response::ShutdownAck.encode();
        enc.push(0);
        assert!(matches!(Response::decode(&enc), Err(VerError::Protocol(_))));
    }

    #[test]
    fn hostile_counts_fail_before_allocation() {
        // A Query head whose view count claims 4 billion entries must be
        // rejected by the count/remaining-bytes check, not OOM.
        let mut enc = Response::Page(Page {
            cursor: 1,
            page: 1,
            last: true,
            views: vec![],
        })
        .encode();
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Response::decode(&enc), Err(VerError::Protocol(_))));
    }

    #[test]
    fn invalid_qbe_spec_on_wire_is_a_protocol_error() {
        // Hand-encode a Qbe spec with zero columns — the public
        // constructor forbids it, so decode must too.
        let payload = vec![REQ_QUERY, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Request::decode(&payload),
            Err(VerError::Protocol(_))
        ));
    }

    #[test]
    fn float_scores_travel_bit_exactly() {
        let v = WireView {
            score_bits: f64::NEG_INFINITY.to_bits(),
            ..sample_view()
        };
        let resp = Response::Page(Page {
            cursor: 0,
            page: 0,
            last: true,
            views: vec![v.clone()],
        });
        match Response::decode(&resp.encode()).unwrap() {
            Response::Page(p) => assert_eq!(p.views[0].score_bits, v.score_bits),
            other => panic!("expected Page, got {other:?}"),
        }
    }

    #[test]
    fn text_cells_are_read_from_the_reply_payload() {
        let other = WireView {
            id: 8,
            rows: RowBlock::from_rows(&[vec![Value::text("x"), Value::text("y")]]),
            ..sample_view()
        };
        let resp = Response::Page(Page {
            cursor: 1,
            page: 1,
            last: true,
            views: vec![sample_view(), other],
        });
        let Response::Page(p) = Response::decode(&resp.encode()).unwrap() else {
            panic!("expected a page");
        };
        let buf = p.views[0].rows.buffer();
        let within = buf.as_ptr_range();
        let mut texts = Vec::new();
        for v in &p.views {
            assert!(Arc::ptr_eq(buf, v.rows.buffer()));
            for cell in v.rows.cells() {
                if let WireCell::Text(t) = cell {
                    let cell = t.as_bytes().as_ptr_range();
                    assert!(
                        within.start <= cell.start && cell.end <= within.end,
                        "{t:?}"
                    );
                    texts.push(t);
                }
            }
        }
        assert_eq!(texts, ["x", "x", "y"]);
    }

    #[test]
    fn a_repeat_with_invalid_utf8_is_still_a_protocol_error() {
        let view = WireView {
            columns: vec![None],
            rows: RowBlock::from_rows(&[vec![Value::text("ab")], vec![Value::text("ab")]]),
            ..sample_view()
        };
        let mut bytes = Response::Page(Page {
            cursor: 1,
            page: 1,
            last: true,
            views: vec![view],
        })
        .encode();
        // The second `ab` cell ends the payload; its bytes become 0xff 0xfe.
        let n = bytes.len();
        assert_eq!(&bytes[n - 2..], b"ab");
        bytes[n - 2..].copy_from_slice(&[0xff, 0xfe]);
        match Response::decode(&bytes) {
            Err(VerError::Protocol(m)) => assert!(m.contains("utf-8"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
