//! Byte pins for the three binary formats (`VERIDX`, `VERSHD`, `VERNET`).
//!
//! The golden snapshot pins rendered text and invariants 5/12/13 pin round
//! trips; neither notices a writer that changes the bytes and a reader that
//! follows it. This suite pins the bytes themselves — length plus fx digest
//! of every artifact and message over the golden workload — so a codec
//! refactor that is supposed to keep on-disk and on-wire bytes identical
//! can prove it. The constants were recorded at the commit before the
//! codecs moved onto `ver_common::codec`; after an *intentional* format
//! change, run the test and paste the table it prints.

use ver_bench::golden::{golden_catalog, golden_queries};
use ver_common::budget::QueryBudget;
use ver_common::error::VerError;
use ver_common::fxhash::fx_hash_bytes;
use ver_core::{Ver, VerConfig};
use ver_index::persist::index_to_bytes;
use ver_index::shard::{partition_index, shard_to_bytes};
use ver_serve::net::frame::encode_frame;
use ver_serve::net::{
    HealthReply, NetStats, Page, QueryHead, Request, Response, StatsReply, WireResult,
    WireRouterLeg, PROTOCOL_VERSION,
};
use ver_serve::ServeStats;

/// `(artifact, byte length, fx digest)`, in the order `pins()` emits them.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("WDC-Q1 head", 733464, 0xbee7543fa2febbdc),
    ("WDC-Q1 leg 0/2", 73, 0x829a1b57ac3e10fe),
    ("WDC-Q1 leg 1/2", 766923, 0x151d421537f08dfb),
    ("WDC-Q1 query request", 113, 0x16aa8500c7917bf0),
    ("WDC-Q1 shard request", 117, 0xaa51e3ce7a160e53),
    ("WDC-Q2 head", 615115, 0xdfbf2634c347fb28),
    ("WDC-Q2 leg 0/2", 46021, 0x38b2b49571f4e960),
    ("WDC-Q2 leg 1/2", 601002, 0x46af1c1dbac85279),
    ("WDC-Q2 query request", 158, 0x7e4c7c0ad94556cb),
    ("WDC-Q2 shard request", 162, 0xa43a2d2271cd3810),
    ("WDC-Q3 head", 602295, 0xcd172061f8990caa),
    ("WDC-Q3 leg 0/2", 464168, 0xea0f3cd3eccb41f0),
    ("WDC-Q3 leg 1/2", 246072, 0xd0370d618b4ad33f),
    ("WDC-Q3 query request", 111, 0xe3016a52aa13c38f),
    ("WDC-Q3 shard request", 115, 0x7d2f722655e2e3fc),
    ("WDC-Q4 head", 850874, 0x99820cf21af7092f),
    ("WDC-Q4 leg 0/2", 827117, 0x595c6562cff995a0),
    ("WDC-Q4 leg 1/2", 57933, 0x3e3f1a6684b48cf7),
    ("WDC-Q4 query request", 137, 0x5d73805788a9d1b9),
    ("WDC-Q4 shard request", 141, 0xf54a41ad58382543),
    ("WDC-Q5 head", 328490, 0x63bfd871d753ad93),
    ("WDC-Q5 leg 0/2", 223959, 0xa97f3c327692bc0a),
    ("WDC-Q5 leg 1/2", 153477, 0x41d128b03e1ddb18),
    ("WDC-Q5 query request", 112, 0x8bdf65d159e363ae),
    ("WDC-Q5 shard request", 116, 0xe5a8398f2993e861),
    ("paged head", 5831, 0x5c73bd96ad66ff77),
    ("page 1", 4932, 0xe1edd2fb237c5d3f),
    ("stats", 270, 0xf97468526c60530b),
    ("health", 52, 0x509ea2eedd275a91),
    ("error", 51, 0x1935e70327de7d5c),
    ("shutdown ack", 20, 0xa280ec77c039946f),
    ("keyword request", 61, 0x21e91b445f422f8d),
    ("attribute request", 45, 0x57ad4a8d66af030b),
    ("fetch page request", 32, 0x52ea962082f09d2b),
    ("stats request", 20, 0xbd8943c91ad465e2),
    ("health request", 20, 0xebc2ebc26a10d004),
    ("shutdown request", 20, 0xa280ec77c039946f),
    ("VERIDX\\x04 index", 55081, 0xc65454ad17943aa3),
    ("VERSHD\\x02 shard 0/2", 40073, 0x877396780b274f30),
    ("VERSHD\\x02 shard 1/2", 22674, 0x298ad8cef133d20a),
];

/// A whole result as the server ships it unpaginated.
fn inline_head(wire: WireResult) -> QueryHead {
    QueryHead {
        partial: wire.partial,
        stats: wire.stats,
        survivors_c2: wire.survivors_c2,
        ranked: wire.ranked,
        total_views: wire.views.len() as u32,
        page_size: 0,
        cursor: 0,
        views: wire.views,
    }
}

fn pins() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    let mut pin = |name: String, bytes: &[u8]| out.push((name, bytes.len(), fx_hash_bytes(bytes)));
    // A wire message is pinned as its frame, which embeds the payload
    // verbatim and closes it with the frame checksum.
    let mut pin_msg = |name: &str, payload: Vec<u8>| pin(name.into(), &encode_frame(&payload));

    let cat = golden_catalog();
    let queries = golden_queries(&cat);
    let ver = Ver::build(cat, VerConfig::default()).expect("index build");
    let budget = QueryBudget::none();

    let mut paged = None;
    for (name, spec) in &queries {
        let wire = WireResult::from_query_result(&ver.run(spec).expect("run"));
        if paged.is_none() && wire.views.len() > 4 {
            paged = Some(wire.clone());
        }
        pin_msg(
            &format!("{name} head"),
            Response::Query(inline_head(wire)).encode(),
        );
        for shard in 0..2 {
            let leg = ver
                .run_shard_leg(spec, None, &budget, shard, 2)
                .expect("leg run");
            pin_msg(
                &format!("{name} leg {shard}/2"),
                Response::ShardOutput(leg).encode(),
            );
        }
        pin_msg(
            &format!("{name} query request"),
            Request::Query {
                spec: spec.clone(),
                page_size: 16,
                timeout_ms: 250,
            }
            .encode(),
        );
        pin_msg(
            &format!("{name} shard request"),
            Request::ShardQuery {
                spec: spec.clone(),
                shard: 1,
                shard_count: 2,
                budget_ms: 1500,
            }
            .encode(),
        );
    }

    let wire = paged.expect("a golden query with more than four views");
    let page_views = wire.views[2..4].to_vec();
    let mut head = inline_head(wire);
    head.views.truncate(2);
    head.page_size = 2;
    head.cursor = 9;
    pin_msg("paged head", Response::Query(head).encode());
    pin_msg(
        "page 1",
        Response::Page(Page {
            cursor: 9,
            page: 1,
            last: false,
            views: page_views,
        })
        .encode(),
    );

    let stats = StatsReply {
        serve: ServeStats {
            queries: 12,
            cached_views: 7,
            partial_results: 1,
            ..ServeStats::default()
        },
        net: NetStats {
            accepted: 4,
            frames_in: 31,
            frames_out: 30,
            cursors_evicted: 2,
            ..NetStats::default()
        },
        router: vec![WireRouterLeg {
            addr: "127.0.0.1:7201".into(),
            attempts: 12,
            retries: 3,
            failures: 3,
            failovers: 1,
            breaker: 2,
        }],
    };
    pin_msg("stats", Response::Stats(stats).encode());
    let health = HealthReply {
        protocol_version: PROTOCOL_VERSION,
        tables: 60,
        columns: 240,
        shards: 2,
        uptime_ms: 1234,
    };
    pin_msg("health", Response::Health(health).encode());
    pin_msg(
        "error",
        Response::Error {
            code: VerError::Overloaded(String::new()).wire_code(),
            message: "at capacity: 64 in flight".into(),
        }
        .encode(),
    );
    pin_msg("shutdown ack", Response::ShutdownAck.encode());
    pin_msg(
        "keyword request",
        Request::Query {
            spec: ver_qbe::ViewSpec::Keyword(vec!["population".into(), "staté".into()]),
            page_size: 0,
            timeout_ms: 0,
        }
        .encode(),
    );
    pin_msg(
        "attribute request",
        Request::Query {
            spec: ver_qbe::ViewSpec::Attribute(vec!["name".into()]),
            page_size: u32::MAX,
            timeout_ms: u64::MAX,
        }
        .encode(),
    );
    pin_msg(
        "fetch page request",
        Request::FetchPage { cursor: 9, page: 1 }.encode(),
    );
    pin_msg("stats request", Request::Stats.encode());
    pin_msg("health request", Request::Health.encode());
    pin_msg("shutdown request", Request::Shutdown.encode());

    let index = ver.index();
    pin("VERIDX\\x04 index".into(), &index_to_bytes(index));
    for (i, shard) in partition_index(index, 2).iter().enumerate() {
        pin(format!("VERSHD\\x02 shard {i}/2"), &shard_to_bytes(shard));
    }
    out
}

#[test]
fn on_disk_and_on_wire_bytes_are_pinned() {
    let actual = pins();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((n, l, d), (en, el, ed))| n == en && l == el && d == ed);
    if !matches {
        let mut table = String::new();
        for (name, len, digest) in &actual {
            table.push_str(&format!("    ({name:?}, {len}, {digest:#018x}),\n"));
        }
        panic!("format bytes moved; if intended, EXPECTED becomes:\n{table}");
    }
}
