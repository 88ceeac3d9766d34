//! A decoded view is a handle on its reply's payload; these properties pin
//! what that design rests on.
//!
//! * **Equality.** `WireView`'s `PartialEq` compares row blocks by their
//!   bytes. Over random views — `NaN` payloads, `0.0` and `-0.0`, empty
//!   and multibyte text, `None` headers, zero-row and zero-column views —
//!   a decoded reply equals what was encoded, handle equality agrees with
//!   cell-by-cell `Value` equality on every pair, and `render` is
//!   unchanged by the round trip.
//! * **Decode is validation.** A corrupted cell in the last row of the
//!   last view of a multi-view reply — a bad tag, bad UTF-8, or a text
//!   length that runs past the end — fails `Response::decode` with a typed
//!   `VerError::Protocol`, so no cell accessor ever sees unchecked bytes.

use proptest::prelude::*;
use ver_common::error::VerError;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::value::{DataType, Value};
use ver_core::engine::{Provenance, View};
use ver_search::SearchStats;
use ver_serve::net::{Page, QueryHead, Response, RowBlock, WireResult, WireView};
use ver_store::column::Column;
use ver_store::schema::{ColumnMeta, TableSchema};
use ver_store::table::Table;

/// SplitMix64: the view generator's own stream, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// Floats whose bits `==` would not tell apart: two `NaN` payloads, both
/// signs of each, and both zeros.
const FLOATS: [u64; 8] = [
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_0000,
    0xfff0_0000_dead_beef,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x3ff8_0000_0000_0000,
    0x7ff0_0000_0000_0000,
];

const TEXTS: [&str; 6] = ["", "a", "é", "日本", "a\u{0}b", "ab"];

/// A small pool, so that equal cells, rows and views turn up by chance.
fn cell(rng: &mut Rng) -> Value {
    match rng.below(4) {
        0 => Value::Null,
        1 => Value::Int(rng.pick(&[0, -1, 1, i64::MIN, i64::MAX])),
        2 => Value::Float(f64::from_bits(rng.pick(&FLOATS))),
        _ => Value::text(rng.pick(&TEXTS)),
    }
}

fn rows(rng: &mut Rng, width: usize) -> Vec<Vec<Value>> {
    let n = if width == 0 { 0 } else { rng.below(4) };
    (0..n)
        .map(|_| (0..width).map(|_| cell(rng)).collect())
        .collect()
}

fn view(rng: &mut Rng, id: u32) -> (WireView, Vec<Vec<Value>>) {
    let width = rng.below(3);
    let columns = (0..width)
        .map(|_| rng.pick(&[None, Some(""), Some("état"), Some("名")]))
        .map(|c| c.map(str::to_string))
        .collect();
    let rows = rows(rng, width);
    let view = WireView {
        id,
        score_bits: rng.pick(&FLOATS),
        hops: rng.below(3) as u32,
        source_tables: (0..rng.below(3) as u32).collect(),
        columns,
        rows: RowBlock::from_rows(&rows),
    };
    (view, rows)
}

/// A view's rows as owned values, read through the cell accessor.
fn values(v: &WireView) -> Vec<Vec<Value>> {
    v.rows
        .rows()
        .map(|row| row.map(|c| c.to_value()).collect())
        .collect()
}

type Header<'a> = (u32, u64, u32, &'a [u32], &'a [Option<String>]);

fn header(v: &WireView) -> Header<'_> {
    (v.id, v.score_bits, v.hops, &v.source_tables, &v.columns)
}

fn render(views: Vec<WireView>) -> String {
    let result = WireResult {
        partial: false,
        stats: SearchStats {
            combinations: 1,
            skipped_by_cache: 0,
            joinable_groups: 1,
            join_graphs: views.len(),
            views: views.len(),
        },
        survivors_c2: views.iter().map(|v| v.id).collect(),
        ranked: views.iter().map(|v| (v.id, 1)).collect(),
        views,
    };
    let mut out = String::new();
    result.render(&mut out, "q");
    out
}

/// `WireView::from_view` of an in-process view with these rows, which
/// writes its block with the server's row writer.
fn from_table(v: &WireView, rows: &[Vec<Value>]) -> WireView {
    let metas = v
        .columns
        .iter()
        .map(|c| match c {
            Some(name) => ColumnMeta::named(name.as_str(), DataType::Text),
            None => ColumnMeta::anonymous(DataType::Text),
        })
        .collect();
    let columns = (0..v.columns.len())
        .map(|c| Column::from_values(rows.iter().map(|r| r[c].clone()).collect()))
        .collect();
    let table = Table::new(TableSchema::new("t", metas), columns).expect("table");
    let edge = ColumnRef {
        table: TableId(0),
        ordinal: 0,
    };
    let provenance = Provenance {
        join_edges: vec![(edge, edge); v.hops as usize],
        source_tables: v.source_tables.iter().map(|&t| TableId(t)).collect(),
        projection: vec![],
        join_score: f64::from_bits(v.score_bits),
    };
    WireView::from_view(&View::new(ViewId(v.id), table, provenance))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_decoded_reply_equals_what_was_encoded(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let made: Vec<(WireView, Vec<Vec<Value>>)> =
            (0..1 + rng.below(6)).map(|i| view(&mut rng, i as u32)).collect();
        let views: Vec<WireView> = made.iter().map(|(v, _)| v.clone()).collect();
        for (v, rows) in &made {
            prop_assert_eq!(&values(v), rows);
            prop_assert_eq!(&from_table(v, rows), v);
        }

        let head = Response::Query(QueryHead {
            partial: false,
            stats: SearchStats::default(),
            survivors_c2: vec![],
            ranked: vec![],
            total_views: views.len() as u32,
            page_size: 0,
            cursor: 0,
            views: views.clone(),
        });
        let bytes = head.encode();
        let Ok(Response::Query(back)) = Response::decode(&bytes) else {
            panic!("expected a head");
        };
        prop_assert_eq!(&back.views, &views);
        prop_assert_eq!(Response::Query(back.clone()).encode(), bytes);
        for ((v, rows), got) in made.iter().zip(&back.views) {
            prop_assert_eq!(&values(got), rows);
            prop_assert_eq!(got.rows.len(), rows.len());
            prop_assert_eq!(got.rows.width(), v.columns.len());
        }
        prop_assert_eq!(render(back.views), render(views));
    }

    #[test]
    fn handle_equality_is_cell_equality(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut views: Vec<WireView> = (0..8).map(|i| view(&mut rng, i % 2).0).collect();
        // The same views again, each a handle into one decoded payload.
        let Ok(Response::Page(page)) = Response::decode(
            &Response::Page(Page { cursor: 1, page: 1, last: true, views: views.clone() })
                .encode(),
        ) else {
            panic!("expected a page");
        };
        views.extend(page.views);
        let mut equal_pairs = 0;
        for a in &views {
            for b in &views {
                let cells_equal = values(a) == values(b);
                prop_assert_eq!(a.rows == b.rows, cells_equal);
                prop_assert_eq!(a == b, header(a) == header(b) && cells_equal);
                equal_pairs += usize::from(cells_equal);
            }
        }
        // Every view equals itself and its decoded copy, at least.
        prop_assert!(equal_pairs >= 2 * views.len());
    }
}

/// Three views whose last cell — the last cell of the last row of the
/// last view, the last bytes of the payload — is the text `zz`.
fn three_views() -> Vec<WireView> {
    (0..3)
        .map(|id| WireView {
            id,
            score_bits: 0.5f64.to_bits(),
            hops: 1,
            source_tables: vec![0, id],
            columns: vec![Some("état".into()), None],
            rows: RowBlock::from_rows(&[
                vec![Value::Int(id as i64), Value::text("日本")],
                vec![Value::Float(-0.0), Value::text("zz")],
            ]),
        })
        .collect()
}

/// The head and the page that carry [`three_views`]; each ends in the
/// cell `3, 2u32, b"zz"`.
fn replies() -> Vec<Vec<u8>> {
    let views = three_views();
    let head = Response::Query(QueryHead {
        partial: false,
        stats: SearchStats::default(),
        survivors_c2: vec![0, 2],
        ranked: vec![(2, 9), (0, 4)],
        total_views: 3,
        page_size: 0,
        cursor: 0,
        views: views.clone(),
    });
    let page = Response::Page(Page {
        cursor: 7,
        page: 1,
        last: true,
        views,
    });
    let replies = vec![head.encode(), page.encode()];
    for bytes in &replies {
        assert!(bytes.ends_with(&[3, 2, 0, 0, 0, b'z', b'z']));
        assert!(Response::decode(bytes).is_ok());
    }
    replies
}

fn assert_protocol_error(bytes: &[u8], what: &str) {
    match Response::decode(bytes) {
        Err(VerError::Protocol(_)) => {}
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_bad_tag_in_the_last_cell_fails_decode() {
    for mut bytes in replies() {
        let tag = bytes.len() - 7;
        for bad in 4..=u8::MAX {
            bytes[tag] = bad;
            assert_protocol_error(&bytes, &format!("tag {bad}"));
        }
    }
}

#[test]
fn bad_utf8_in_the_last_cell_fails_decode() {
    for mut bytes in replies() {
        let n = bytes.len();
        for bad in [[0xff, 0xfe], [0xc3, b'z'], [b'z', 0x80]] {
            bytes[n - 2..].copy_from_slice(&bad);
            match Response::decode(&bytes) {
                Err(VerError::Protocol(m)) => assert!(m.contains("utf-8"), "{m}"),
                other => panic!("{bad:?}: expected a protocol error, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_text_length_past_the_end_fails_decode() {
    for mut bytes in replies() {
        let len = bytes.len() - 6;
        for bad in [3u32, 4, 1 << 20, u32::MAX] {
            bytes[len..len + 4].copy_from_slice(&bad.to_le_bytes());
            assert_protocol_error(&bytes, &format!("length {bad}"));
        }
    }
}

#[test]
fn bad_utf8_in_a_column_header_fails_decode() {
    for mut bytes in replies() {
        let name = "état".as_bytes();
        let at = bytes
            .windows(name.len())
            .rposition(|w| w == name)
            .expect("the last view's header");
        bytes[at] = 0xff;
        assert_protocol_error(&bytes, "column header");
    }
}
