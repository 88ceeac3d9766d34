//! Corruption suite for the `verd` wire protocol (`VERNET\x01`).
//!
//! The robustness contract under test, mirroring the persisted-index
//! corruption suite (`persist_corruption.rs`): **any** single-byte flip,
//! **any** truncation, an oversized length prefix, and a garbage preamble
//! must all decode to a typed [`VerError::Protocol`] — never a panic,
//! never an unbounded allocation, never a successfully-decoded wrong
//! message. The frame checksum is verified before the payload codec runs,
//! which is what makes the flip property hold at *every* offset (magic,
//! length field, payload, the checksum itself). On top of that, the
//! payload codecs must survive *arbitrary* bytes inside a valid frame:
//! decode may succeed or fail typed, but must never panic or hang.

use proptest::prelude::*;
use std::sync::OnceLock;
use ver_common::error::VerError;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::value::{DataType, Value};
use ver_core::engine::{Provenance, View};
use ver_qbe::{ExampleQuery, QueryColumn, ViewSpec};
use ver_search::{SearchStats, ShardSearchOutput};
use ver_serve::net::frame::{
    decode_frame, encode_frame, read_frame, write_frame, ReadOutcome, MAGIC,
};
use ver_serve::net::{
    Client, HealthReply, NetStats, Page, QueryHead, Request, Response, RowBlock, StatsReply,
    WireResult, WireRouterLeg, WireView, PROTOCOL_VERSION,
};
use ver_serve::ServeStats;
use ver_store::column::Column;
use ver_store::schema::{ColumnMeta, TableSchema};
use ver_store::table::Table;

fn sample_view(id: u32) -> WireView {
    WireView {
        id,
        score_bits: (1.5 + id as f64).to_bits(),
        hops: 1,
        source_tables: vec![0, id + 1],
        columns: vec![Some("state".into()), None],
        rows: RowBlock::from_rows(&[
            vec![Value::text(format!("state_{id}")), Value::Int(id as i64)],
            vec![Value::Null, Value::Float(0.25 * id as f64)],
        ]),
    }
}

/// One of every request type.
fn request_corpus() -> Vec<Request> {
    let qbe = ViewSpec::Qbe(
        ExampleQuery::new(vec![
            QueryColumn::of_strs(&["ATL", "IND"]).named("iata"),
            QueryColumn::of_values(vec![Value::Int(7), Value::Null, Value::Float(1.25)]),
        ])
        .unwrap(),
    );
    vec![
        Request::Query {
            spec: qbe,
            page_size: 8,
            timeout_ms: 500,
        },
        Request::Query {
            spec: ViewSpec::Keyword(vec!["population".into(), "staté".into()]),
            page_size: 0,
            timeout_ms: 0,
        },
        Request::Query {
            spec: ViewSpec::Attribute(vec!["name".into()]),
            page_size: u32::MAX,
            timeout_ms: u64::MAX,
        },
        Request::FetchPage {
            cursor: 0xDEAD_BEEF,
            page: 3,
        },
        Request::ShardQuery {
            spec: ViewSpec::Keyword(vec!["city".into()]),
            shard: 1,
            shard_count: 4,
            budget_ms: 750,
        },
        Request::Stats,
        Request::Health,
        Request::Shutdown,
    ]
}

fn sample_shard_view(id: u32) -> View {
    let cref = |table: u32, ordinal: u16| ColumnRef {
        table: TableId(table),
        ordinal,
    };
    let schema = TableSchema::new(
        format!("view_{id}"),
        vec![
            ColumnMeta::named("state", DataType::Text),
            ColumnMeta::anonymous(DataType::Int),
        ],
    );
    let columns = vec![
        Column::from_values(vec![Value::text(format!("state_{id}")), Value::Null]),
        Column::from_values(vec![Value::Int(id as i64), Value::Int(-1)]),
    ];
    let mut table = Table::new(schema, columns).unwrap();
    table.id = TableId(40 + id);
    let provenance = Provenance {
        join_edges: vec![(cref(0, 0), cref(id + 1, 1))],
        source_tables: vec![TableId(0), TableId(id + 1)],
        projection: vec![cref(0, 0)],
        join_score: 0.25 * id as f64,
    };
    View::new(ViewId(id), table, provenance)
}

/// One of every response type.
fn response_corpus() -> Vec<Response> {
    vec![
        Response::Query(QueryHead {
            partial: true,
            stats: SearchStats {
                combinations: 21,
                skipped_by_cache: 3,
                joinable_groups: 21,
                join_graphs: 402,
                views: 402,
            },
            survivors_c2: vec![0, 2, 5, 9],
            ranked: vec![(2, 40), (0, 12), (5, 1)],
            total_views: 5,
            page_size: 2,
            cursor: 11,
            views: vec![sample_view(0), sample_view(1)],
        }),
        Response::Page(Page {
            cursor: 11,
            page: 2,
            last: true,
            views: vec![sample_view(4)],
        }),
        Response::Stats(StatsReply {
            serve: ServeStats::default(),
            net: NetStats {
                accepted: 10,
                dropped_conns: 2,
                protocol_errors: 1,
                ..NetStats::default()
            },
            router: vec![
                WireRouterLeg {
                    addr: "127.0.0.1:7201".into(),
                    attempts: 31,
                    retries: 4,
                    failures: 5,
                    failovers: 1,
                    breaker: 0,
                },
                WireRouterLeg {
                    addr: "[::1]:7202".into(),
                    attempts: 9,
                    retries: 9,
                    failures: 9,
                    failovers: 3,
                    breaker: 2,
                },
            ],
        }),
        Response::ShardOutput(ShardSearchOutput {
            shard: 3,
            shard_count: 4,
            views: vec![sample_shard_view(0), sample_shard_view(5)],
            stats: SearchStats {
                combinations: 7,
                skipped_by_cache: 1,
                joinable_groups: 6,
                join_graphs: 12,
                views: 2,
            },
            dag: ver_search::MaterializeStats::default(),
            timer: ver_common::timer::PhaseTimer::new(),
            partial: true,
        }),
        Response::Health(HealthReply {
            protocol_version: PROTOCOL_VERSION,
            tables: 60,
            columns: 241,
            shards: 2,
            uptime_ms: 99_000,
        }),
        Response::ShutdownAck,
        Response::Error {
            code: VerError::DeadlineExceeded(String::new()).wire_code(),
            message: "jgs stage".into(),
        },
    ]
}

/// Every corpus message as a complete encoded frame.
fn frame_corpus() -> &'static Vec<Vec<u8>> {
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let mut frames: Vec<Vec<u8>> = request_corpus()
            .iter()
            .map(|r| encode_frame(&r.encode()))
            .collect();
        frames.extend(response_corpus().iter().map(|r| encode_frame(&r.encode())));
        frames
    })
}

#[test]
fn every_request_type_round_trips() {
    for req in request_corpus() {
        let framed = encode_frame(&req.encode());
        let payload = decode_frame(&framed).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }
}

/// `Response` carries a `ShardSearchOutput`, which has no `PartialEq`:
/// compare every other variant structurally and a leg output by everything
/// the merge reads.
fn assert_same_response(a: &Response, b: &Response) {
    match (a, b) {
        (Response::Query(a), Response::Query(b)) => assert_eq!(a, b),
        (Response::Page(a), Response::Page(b)) => assert_eq!(a, b),
        (Response::Stats(a), Response::Stats(b)) => assert_eq!(a, b),
        (Response::Health(a), Response::Health(b)) => assert_eq!(a, b),
        (Response::ShutdownAck, Response::ShutdownAck) => {}
        (
            Response::Error { code, message },
            Response::Error {
                code: c,
                message: m,
            },
        ) => assert_eq!((code, message), (c, m)),
        (Response::ShardOutput(a), Response::ShardOutput(b)) => {
            assert_eq!(
                (a.shard, a.shard_count, a.partial, a.stats),
                (b.shard, b.shard_count, b.partial, b.stats)
            );
            assert_eq!(a.views.len(), b.views.len());
            for (x, y) in a.views.iter().zip(&b.views) {
                assert_eq!(x.table.id, y.table.id);
                assert_eq!(x.table.name(), y.table.name());
                assert!(x.same_contents(y), "{x:?} != {y:?}");
            }
        }
        _ => panic!("{a:?} is not a {b:?}"),
    }
}

#[test]
fn every_response_type_round_trips() {
    for resp in response_corpus() {
        let framed = encode_frame(&resp.encode());
        let payload = decode_frame(&framed).unwrap();
        let back = Response::decode(&payload).unwrap();
        assert_same_response(&back, &resp);
        assert_eq!(back.encode(), payload);
    }
}

#[test]
fn streaming_reader_agrees_with_buffer_decoder() {
    for frame in frame_corpus() {
        let mut cursor = std::io::Cursor::new(frame.clone());
        match read_frame(&mut cursor).unwrap() {
            ReadOutcome::Frame(p) => assert_eq!(p, decode_frame(frame).unwrap()),
            ReadOutcome::Eof => panic!("unexpected eof"),
        }
    }
}

#[test]
fn garbage_preambles_are_protocol_errors() {
    let payload = Request::Stats.encode();
    let good = encode_frame(&payload);
    for preamble in [
        &b"GARBAGE"[..],
        b"VERNET\x02", // wrong framing version
        b"VERIDX\x03", // the *index* magic must not be accepted
        b"\x00\x00\x00\x00\x00\x00\x00",
    ] {
        let mut bad = good.clone();
        bad[..MAGIC.len()].copy_from_slice(&preamble[..MAGIC.len()]);
        if bad == good {
            continue;
        }
        assert!(
            matches!(decode_frame(&bad), Err(VerError::Protocol(_))),
            "preamble {preamble:?} not rejected"
        );
    }
}

#[test]
fn oversized_length_prefix_is_a_protocol_error_for_every_message() {
    for frame in frame_corpus() {
        let mut bad = frame.clone();
        bad[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bad) {
            Err(VerError::Protocol(m)) => assert!(m.contains("exceeds cap"), "{m}"),
            other => panic!("expected Protocol, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    #[test]
    fn any_single_byte_flip_is_a_protocol_error(
        frame_seed in any::<u64>(),
        offset_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let frames = frame_corpus();
        let frame = &frames[(frame_seed % frames.len() as u64) as usize];
        let offset = (offset_seed % frame.len() as u64) as usize;
        let mut bad = frame.clone();
        bad[offset] ^= 1u8 << bit;
        match decode_frame(&bad) {
            Err(VerError::Protocol(_)) => {}
            Ok(_) => prop_assert!(false, "flip at {offset} bit {bit} decoded"),
            Err(e) => prop_assert!(false, "flip at {offset} bit {bit}: non-Protocol {e:?}"),
        }
        // The streaming reader must agree (a flipped length field can
        // also surface as a truncated read — still Protocol).
        let mut cursor = std::io::Cursor::new(bad);
        match read_frame(&mut cursor) {
            Err(VerError::Protocol(_)) | Ok(ReadOutcome::Eof) => {}
            Ok(ReadOutcome::Frame(_)) =>
                prop_assert!(false, "stream flip at {offset} bit {bit} decoded"),
            Err(e) =>
                prop_assert!(false, "stream flip at {offset} bit {bit}: non-Protocol {e:?}"),
        }
    }

    #[test]
    fn any_truncation_is_a_protocol_error(
        frame_seed in any::<u64>(),
        len_seed in any::<u64>(),
    ) {
        let frames = frame_corpus();
        let frame = &frames[(frame_seed % frames.len() as u64) as usize];
        let keep = (len_seed % frame.len() as u64) as usize;
        match decode_frame(&frame[..keep]) {
            Err(VerError::Protocol(_)) => {}
            Ok(_) => prop_assert!(false, "truncation to {keep} decoded"),
            Err(e) => prop_assert!(false, "truncation to {keep}: non-Protocol {e:?}"),
        }
        // Streaming: a truncated stream is a peer that died mid-frame —
        // Protocol, except the empty prefix which is a clean EOF.
        let mut cursor = std::io::Cursor::new(frame[..keep].to_vec());
        match read_frame(&mut cursor) {
            Ok(ReadOutcome::Eof) => prop_assert!(keep == 0, "eof at {keep}"),
            Err(VerError::Protocol(_)) => prop_assert!(keep > 0),
            Ok(ReadOutcome::Frame(_)) => prop_assert!(false, "stream truncation to {keep} decoded"),
            Err(e) => prop_assert!(false, "stream truncation to {keep}: non-Protocol {e:?}"),
        }
    }

    #[test]
    fn arbitrary_payload_bytes_never_panic_the_codecs(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Inside a *valid* frame, the payload codec sees attacker-chosen
        // bytes. Decode may succeed (a valid encoding exists by chance)
        // or fail — but only ever with the typed protocol error.
        if let Err(e) = Request::decode(&bytes) {
            prop_assert!(matches!(e, VerError::Protocol(_)), "request: {e:?}");
        }
        if let Err(e) = Response::decode(&bytes) {
            prop_assert!(matches!(e, VerError::Protocol(_)), "response: {e:?}");
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocation(
        count in any::<u32>(),
    ) {
        // A Page response whose trailing view count is arbitrary: the
        // codec must reject impossible counts from the remaining-bytes
        // bound, not trust them into an allocation.
        let mut payload = Response::Page(Page {
            cursor: 1,
            page: 0,
            last: false,
            views: vec![],
        })
        .encode();
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&count.to_le_bytes());
        match Response::decode(&payload) {
            Ok(Response::Page(p)) => prop_assert!(p.views.is_empty() && count == 0),
            Ok(other) => prop_assert!(false, "decoded {other:?}"),
            Err(e) => {
                prop_assert!(matches!(e, VerError::Protocol(_)), "{e:?}");
                prop_assert!(count > 0);
            }
        }

        // A view that claims no columns may not claim rows: each would
        // cost the decoder an allocation for no payload bytes at all. The
        // error must come from the row count itself, before any row is
        // built — not from the trailing-bytes check after all of them
        // (the padding lets the count pass the remaining-bytes bound).
        let rows = (count % 4096).max(1);
        let mut payload = Response::Page(Page {
            cursor: 1,
            page: 0,
            last: false,
            views: vec![WireView {
                columns: vec![],
                rows: RowBlock::from_rows(&[]),
                ..sample_view(0)
            }],
        })
        .encode();
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&rows.to_le_bytes());
        payload.resize(n + rows as usize, 0);
        match Response::decode(&payload) {
            Err(VerError::Protocol(m)) => {
                prop_assert!(m.contains(&format!("{rows} ")) && !m.contains("trailing"), "{m}")
            }
            other => prop_assert!(false, "zero-column view with {rows} rows: {other:?}"),
        }
    }
}

/// A one-connection scripted peer: binds an ephemeral port, accepts a
/// single connection, and hands it to `script` on a background thread.
/// Lets the tests below play a *misbehaving* server — something the real
/// `Server` (correctly) refuses to be.
fn scripted_server<F>(script: F) -> std::net::SocketAddr
where
    F: FnOnce(std::net::TcpStream) + Send + 'static,
{
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            script(stream);
        }
    });
    addr
}

/// A head promising 3 views, delivering 1, with cursor 7 for the rest.
fn head_of_three_on_cursor_7() -> Response {
    Response::Query(QueryHead {
        partial: false,
        stats: SearchStats {
            combinations: 1,
            skipped_by_cache: 0,
            joinable_groups: 1,
            join_graphs: 1,
            views: 3,
        },
        survivors_c2: vec![0],
        ranked: vec![(0, 1)],
        total_views: 3,
        page_size: 1,
        cursor: 7,
        views: vec![sample_view(0)],
    })
}

/// Regression: a server that hands back an empty-but-not-final page used
/// to spin `Client::query`'s reassembly loop forever (the loop condition
/// `views.len() < total` never advanced). It must now surface as a typed
/// protocol error and poison the connection — the stream's pagination
/// state is unrecoverable.
#[test]
fn zero_progress_pagination_is_a_typed_error_not_an_infinite_loop() {
    let addr = scripted_server(|mut s| {
        read_frame(&mut s).unwrap();
        write_frame(&mut s, &head_of_three_on_cursor_7().encode()).unwrap();
        // FetchPage → an empty page that is *not* last: zero progress.
        read_frame(&mut s).unwrap();
        let page = Response::Page(Page {
            cursor: 7,
            page: 1,
            last: false,
            views: vec![],
        });
        write_frame(&mut s, &page.encode()).unwrap();
        // Keep the socket open so the failure can't be blamed on EOF.
        let _ = read_frame(&mut s);
    });

    let mut client = Client::connect(addr).unwrap();
    match client.query(&ViewSpec::Keyword(vec!["x".into()]), 1, 0) {
        Err(VerError::Protocol(m)) => assert!(m.contains("zero-progress"), "{m}"),
        other => panic!("expected zero-progress Protocol error, got {other:?}"),
    }
    assert!(client.is_poisoned());
    // Later calls fail fast, without touching the desynced stream.
    match client.health() {
        Err(VerError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
        other => panic!("expected poisoned Protocol error, got {other:?}"),
    }
}

/// `Client::query` asked cursor 7 for page 1; a page answering for another
/// page number or another cursor must not be spliced into the result. It
/// is a typed protocol error, and the connection is poisoned.
#[test]
fn a_page_for_another_cursor_or_page_is_a_typed_error() {
    for (cursor, page) in [(7, 2), (8, 1)] {
        let addr = scripted_server(move |mut s| {
            read_frame(&mut s).unwrap();
            write_frame(&mut s, &head_of_three_on_cursor_7().encode()).unwrap();
            read_frame(&mut s).unwrap();
            let reply = Response::Page(Page {
                cursor,
                page,
                last: true,
                views: vec![sample_view(1), sample_view(2)],
            });
            write_frame(&mut s, &reply.encode()).unwrap();
            let _ = read_frame(&mut s);
        });

        let mut client = Client::connect(addr).unwrap();
        match client.query(&ViewSpec::Keyword(vec!["x".into()]), 1, 0) {
            Err(VerError::Protocol(m)) => {
                assert!(
                    m.contains(&format!("got cursor {cursor} page {page}")),
                    "{m}"
                )
            }
            other => panic!("cursor {cursor} page {page}: expected Protocol error, got {other:?}"),
        }
        assert!(client.is_poisoned());
    }
}

/// A cleanly-delivered `Error` frame is a complete exchange: the stream is
/// still frame-aligned, so the connection stays usable.
#[test]
fn a_clean_server_error_frame_does_not_poison_the_connection() {
    let addr = scripted_server(|mut s| {
        read_frame(&mut s).unwrap();
        let err = Response::Error {
            code: VerError::InvalidQuery(String::new()).wire_code(),
            message: "empty spec".into(),
        };
        write_frame(&mut s, &err.encode()).unwrap();
        read_frame(&mut s).unwrap();
        let health = Response::Health(HealthReply {
            protocol_version: PROTOCOL_VERSION,
            tables: 1,
            columns: 2,
            shards: 1,
            uptime_ms: 5,
        });
        write_frame(&mut s, &health.encode()).unwrap();
    });

    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(client.stats(), Err(VerError::InvalidQuery(_))));
    assert!(!client.is_poisoned(), "typed server error must not poison");
    assert_eq!(client.health().unwrap().tables, 1);
}

/// A server dying mid-exchange leaves the stream in an unknowable state:
/// the first error poisons, and every later call on the same connection
/// fails fast with a reconnect hint instead of reading garbage.
#[test]
fn a_mid_exchange_close_poisons_the_connection() {
    let addr = scripted_server(|mut s| {
        read_frame(&mut s).unwrap();
        // Drop without replying.
    });

    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(client.health(), Err(VerError::Protocol(_))));
    assert!(client.is_poisoned());
    match client.stats() {
        Err(VerError::Protocol(m)) => assert!(m.contains("poisoned"), "{m}"),
        other => panic!("expected poisoned Protocol error, got {other:?}"),
    }
}

#[test]
fn render_matches_the_golden_format_shape() {
    // `WireResult::render` must produce the exact golden snapshot line
    // grammar; the over-the-wire golden test pins it against the real
    // snapshot file, this pins the shape without an engine.
    let result = WireResult {
        partial: false,
        stats: SearchStats {
            combinations: 2,
            skipped_by_cache: 0,
            joinable_groups: 2,
            join_graphs: 3,
            views: 1,
        },
        survivors_c2: vec![0],
        ranked: vec![(0, 4)],
        views: vec![WireView {
            id: 0,
            score_bits: 1.0f64.to_bits(),
            hops: 1,
            source_tables: vec![0, 1],
            columns: vec![Some("a".into()), Some("b".into())],
            rows: RowBlock::from_rows(&[vec![Value::text("x"), Value::text("y")]]),
        }],
    };
    let mut out = String::new();
    result.render(&mut out, "Q1");
    assert_eq!(
        out,
        "# query Q1\n\
         stats combinations=2 groups=2 graphs=3 views=1\n\
         view V0 score=1.000000 rows=1 cols=2 hops=1 tables=T0,T1\n\
         survivors_c2 V0\n\
         ranked V0:4\n\n"
    );
}
