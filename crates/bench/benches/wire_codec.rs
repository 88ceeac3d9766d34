//! Criterion: the WIRE CODEC of a whole-result hit, over one `wdc120`
//! answer (120 tables, the pinned benchmark's tier, its first QBE spec).
//!
//! * `reference_encode` — `WireResult::from_query_result` then
//!   `Response::encode`: the conversion a hit paid before the server wrote
//!   replies from the cache, and what the pinned benchmark still replays
//!   for `wire.to_wire_ms` + `wire.encode_ms`.
//! * `direct_encode` — `wire::encode_query_head`, what `verd` runs now.
//!   Same bytes (asserted before timing).
//! * `decode` — `Response::decode` of that payload: one copy of the
//!   payload and one validating walk over it, which builds no row and no
//!   cell. Its output is dropped after the clock stops.
//! * `decode_read_all` — `decode`, then every cell of every view read
//!   through `RowBlock::cells`; dropped after the clock stops. With cells
//!   read on access, `decode` alone would hide work moved to the reader;
//!   this case cannot.
//! * `drop` — dropping one decoded result: one payload buffer plus each
//!   view's header, the client's cost after it has read the reply.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ver_core::{QueryResult, Ver, VerConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{generate_workload, wdc_ground_truths};
use ver_qbe::ViewSpec;
use ver_serve::net::wire::encode_query_head;
use ver_serve::net::{QueryHead, Response, WireResult};

/// The first spec of the pinned benchmark's workload at seed 1, answered
/// in process with every view gathered.
fn wdc120_result() -> QueryResult {
    let catalog = generate_wdc(&WdcConfig {
        n_tables: 120,
        ..WdcConfig::default()
    })
    .expect("wdc120 corpus");
    let gts = wdc_ground_truths(&catalog).expect("ground truths");
    let workload = generate_workload(&catalog, &gts, 2, 3, 1).expect("workload");
    let spec = ViewSpec::Qbe(workload[0].query.clone());
    let ver = Ver::build(catalog, VerConfig::default().with_threads(1)).expect("index build");
    ver.run(&spec).expect("query")
}

/// `Response::encode` of `result` shipped whole, through the wire types.
fn reference_encode(result: &QueryResult) -> Vec<u8> {
    let wire = WireResult::from_query_result(result);
    Response::Query(QueryHead {
        partial: wire.partial,
        stats: wire.stats,
        survivors_c2: wire.survivors_c2,
        ranked: wire.ranked,
        total_views: wire.views.len() as u32,
        page_size: 0,
        cursor: 0,
        views: wire.views,
    })
    .encode()
}

fn bench_wire_codec(c: &mut Criterion) {
    let result = wdc120_result();
    let payload = encode_query_head(&result, &result.views, 0, 0);
    assert_eq!(
        payload,
        reference_encode(&result),
        "the two writers disagree"
    );
    println!(
        "wire_codec: {} views, {} payload bytes",
        result.views.len(),
        payload.len()
    );

    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(20);
    group.bench_function("reference_encode", |b| b.iter(|| reference_encode(&result)));
    group.bench_function("direct_encode", |b| {
        b.iter(|| encode_query_head(&result, &result.views, 0, 0))
    });
    group.bench_function("decode", |b| {
        b.iter_batched(
            || (),
            |()| Response::decode(&payload).expect("decode"),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("decode_read_all", |b| {
        b.iter_batched(
            || (),
            |()| {
                let decoded = Response::decode(&payload).expect("decode");
                let Response::Query(head) = &decoded else {
                    panic!("expected a head");
                };
                for view in &head.views {
                    for cell in view.rows.cells() {
                        black_box(cell);
                    }
                }
                decoded
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("drop", |b| {
        b.iter_batched(
            || Response::decode(&payload).expect("decode"),
            drop,
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
