//! The server writes view replies straight from the cached views; this
//! suite pins that those bytes are the reference encoding.
//!
//! For every golden spec and page sizes 0, 1, 2 and 16, the head and every
//! page a live `verd` writes over a raw socket equal `Response::encode` of
//! the same head and pages built from `WireResult::from_query_result` —
//! the conversion the server no longer runs. The decoded reply interns its
//! text cells: equal strings share one allocation.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;

use ver_bench::golden::{golden_catalog, golden_queries};
use ver_common::value::Value;
use ver_core::QueryResult;
use ver_index::{build_index, IndexConfig};
use ver_serve::net::frame::{read_frame, write_frame, ReadOutcome};
use ver_serve::net::{Backend, NetConfig, Page, QueryHead, Request, Response, Server, WireResult};
use ver_serve::{ServeConfig, ServeEngine};

const PAGE_SIZES: [u32; 4] = [0, 1, 2, 16];

/// One raw request→reply exchange: the reply payload exactly as framed.
fn exchange(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_frame(stream, &req.encode()).expect("write request");
    match read_frame(stream).expect("read reply") {
        ReadOutcome::Frame(payload) => payload,
        ReadOutcome::Eof => panic!("server closed the connection"),
    }
}

/// `Response::encode` of the head and pages of `result` at `page_size`
/// under `cursor`, converted through `WireResult::from_query_result`.
fn reference_replies(result: &QueryResult, page_size: u32, cursor: u64) -> Vec<Vec<u8>> {
    let wire = WireResult::from_query_result(result);
    let total = wire.views.len();
    let paged = cursor != 0;
    let size = if paged {
        page_size as usize
    } else {
        total.max(1)
    };
    let mut chunks = wire.views.chunks(size);
    let head = QueryHead {
        partial: wire.partial,
        stats: wire.stats,
        survivors_c2: wire.survivors_c2.clone(),
        ranked: wire.ranked.clone(),
        total_views: total as u32,
        page_size: if paged { page_size } else { 0 },
        cursor,
        views: chunks.next().unwrap_or_default().to_vec(),
    };
    let mut replies = vec![Response::Query(head).encode()];
    let pages: Vec<_> = chunks.collect();
    for (i, views) in pages.iter().enumerate() {
        let page = Page {
            cursor,
            page: i as u32 + 1,
            last: i + 1 == pages.len(),
            views: views.to_vec(),
        };
        replies.push(Response::Page(page).encode());
    }
    replies
}

#[test]
fn served_heads_and_pages_are_the_reference_bytes() {
    let catalog = Arc::new(golden_catalog());
    let queries = golden_queries(&catalog);
    let index = Arc::new(build_index(&catalog, IndexConfig::default()).expect("index build"));
    let engine = Arc::new(
        ServeEngine::warm_start(Arc::clone(&catalog), index, ServeConfig::default())
            .expect("warm start"),
    );
    let config = NetConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        ..NetConfig::default()
    };
    let handle = Server::bind(Backend::Single(Arc::clone(&engine)), config)
        .expect("bind")
        .spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");

    let mut paginated = 0;
    for (name, spec) in &queries {
        for page_size in PAGE_SIZES {
            let query = Request::Query {
                spec: spec.clone(),
                page_size,
                timeout_ms: 0,
            };
            let head = exchange(&mut stream, &query);
            let Response::Query(decoded) = Response::decode(&head).expect("decode head") else {
                panic!("{name} at page size {page_size}: expected a head");
            };
            let mut served = vec![head];
            if decoded.cursor != 0 {
                paginated += 1;
                for page in 1.. {
                    let fetch = Request::FetchPage {
                        cursor: decoded.cursor,
                        page,
                    };
                    let reply = exchange(&mut stream, &fetch);
                    let Ok(Response::Page(p)) = Response::decode(&reply) else {
                        panic!("{name}: page {page} at page size {page_size}");
                    };
                    served.push(reply);
                    if p.last {
                        break;
                    }
                }
            }
            // A result-LRU hit: the very result the server wrote from.
            let result = engine.query(spec).expect("query");
            assert_eq!(
                served,
                reference_replies(&result, page_size, decoded.cursor),
                "{name} at page size {page_size}"
            );
        }
    }
    assert!(paginated > 0, "no golden result was long enough to page");
}

#[test]
fn a_decoded_reply_holds_one_allocation_per_distinct_string() {
    let catalog = golden_catalog();
    let queries = golden_queries(&catalog);
    let ver = ver_core::Ver::build(catalog, ver_core::VerConfig::default()).expect("index build");
    let (_, spec) = &queries[0];
    let wire = WireResult::from_query_result(&ver.run(spec).expect("run"));
    let head = QueryHead {
        partial: wire.partial,
        stats: wire.stats,
        survivors_c2: wire.survivors_c2,
        ranked: wire.ranked,
        total_views: wire.views.len() as u32,
        page_size: 0,
        cursor: 0,
        views: wire.views,
    };
    let Response::Query(decoded) = Response::decode(&Response::Query(head).encode()).unwrap()
    else {
        panic!("expected a head");
    };
    let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
    let mut cells = 0;
    for row in decoded.views.iter().flat_map(|v| &v.rows) {
        for cell in row {
            if let Value::Text(t) = cell {
                cells += 1;
                let seen = first.entry(&**t).or_insert(t);
                assert!(Arc::ptr_eq(seen, t), "{t:?} decoded twice");
            }
        }
    }
    assert!(
        cells > first.len(),
        "the golden head repeats no string ({cells} text cells)"
    );
}
