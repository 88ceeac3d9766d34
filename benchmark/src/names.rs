//! The benchmark's stable vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root lists exactly these (a unit test compares them).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Workload name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lib_cold",
        "in-process Ver::run with no caches: all time is select, search, materialize, 4C, rank; serve, net and wire do nothing",
    ),
    (
        "wire_hot",
        "whole results over loopback VERNET, every op a result-LRU hit: all time is lookup, to-wire, encode, frame, socket, decode",
    ),
    (
        "wire_paged",
        "same warm server read 48 views at a time: head plus two pages, cursor abandoned; head cost, cursor table at its cap, its memory",
    ),
    (
        "shard_miss",
        "2-shard in-process scatter/gather with the result cache off: every op a real miss through legs, gather, view LRU and score memo",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The time and memory bounds sit at the most the driver allows. On the
/// shared two-thread box this was written on, ten runs with ten seeds
/// spread a speed-corrected time by 6 to 15 % of its median, half of that
/// from the seeds themselves, and the seeds alone spread `lib_cold`'s peak
/// memory by 14 % (README, "Noise"); a bound needs room above its spread.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_ms", "ms", Better::Lower, 0.25),
    e2e("lat_p90_ms", "ms", Better::Lower, 0.25),
    e2e("gt_hit_ratio", "ratio", Better::Higher, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Per-layer metrics: `(name, unit, better)`. A time is what the layer's
/// spans took within one operation (mean over specs of each spec's
/// fastest pass); a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, Better); 60] = {
    use Better::{Higher, Lower};
    [
        ("select.select_ms", "ms", Lower),
        ("select.columns_selected", "count", Lower),
        ("search.search_ms", "ms", Lower),
        ("search.jgs_ms", "ms", Lower),
        ("search.combinations", "count", Lower),
        ("search.join_graphs", "count", Lower),
        ("search.views", "count", Lower),
        ("engine.materialize_ms", "ms", Lower),
        ("engine.dag_distinct_steps", "count", Lower),
        ("engine.dag_shared_ratio", "ratio", Higher),
        ("distill.distill_ms", "ms", Lower),
        ("distill.schema_partition_ms", "ms", Lower),
        ("distill.hash_c1_ms", "ms", Lower),
        ("distill.c2_ms", "ms", Lower),
        ("distill.c3_c4_ms", "ms", Lower),
        ("distill.survivor_ratio", "ratio", Lower),
        ("present.rank_ms", "ms", Lower),
        ("core.run_ms", "ms", Lower),
        ("core.glue_ms", "ms", Lower),
        ("serve.lru_hit_ms", "ms", Lower),
        ("serve.query_ms", "ms", Lower),
        ("serve.result_hit_ratio", "ratio", Higher),
        ("serve.view_hit_ratio", "ratio", Higher),
        ("serve.score_memo_hit_ratio", "ratio", Higher),
        ("serve.cached_views", "count", Lower),
        ("serve.open_ms", "ms", Lower),
        ("serve.warmup_ms", "ms", Lower),
        ("shard.leg_sum_ms", "ms", Lower),
        ("shard.leg_max_ms", "ms", Lower),
        ("shard.gather_ms", "ms", Lower),
        ("shard.redundancy_ratio", "ratio", Lower),
        ("shard.skew_ratio", "ratio", Lower),
        ("shard.failed_legs", "count", Lower),
        ("wire.to_wire_ms", "ms", Lower),
        ("wire.encode_ms", "ms", Lower),
        ("wire.decode_ms", "ms", Lower),
        ("wire.bytes_per_op", "bytes", Lower),
        ("wire.views_per_op", "count", Lower),
        ("frame.encode_ms", "ms", Lower),
        ("frame.decode_ms", "ms", Lower),
        ("client.drop_ms", "ms", Lower),
        ("net.roundtrip_ms", "ms", Lower),
        ("net.transport_ms", "ms", Lower),
        ("net.head_ms", "ms", Lower),
        ("net.page_ms", "ms", Lower),
        ("net.frames_per_op", "count", Lower),
        ("net.cursors_open", "count", Lower),
        ("net.cursors_evicted_per_op", "count", Lower),
        ("net.cursor_evict_ms", "ms", Lower),
        ("net.protocol_errors", "count", Lower),
        ("net.bind_ms", "ms", Lower),
        ("index.build_ms", "ms", Lower),
        ("index.save_ms", "ms", Lower),
        ("index.load_ms", "ms", Lower),
        ("index.partition_ms", "ms", Lower),
        ("index.artifact_kb", "kB", Lower),
        ("trace.coverage_ratio", "ratio", Higher),
        ("harness.trace_overhead_ratio", "ratio", Lower),
        ("harness.calib_ms", "ms", Lower),
        ("harness.calib_drift_ratio", "ratio", Lower),
    ]
};

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|(n, _, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for name in &all {
            assert!(valid_name(name), "bad name {name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
    }

    /// `BENCHMARK.json` lists exactly the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(String::from);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
            .collect();
        assert_eq!(layers, expected);

        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
