//! One workload, one process: generate inputs, set up, measure or trace,
//! check the conditions the window must have run under, read peak memory,
//! verify the answers, set up twice more (for a steady set-up figure),
//! correct the times for the speed of the box and build the run record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ver_common::error::{Result, VerError};

use crate::inputs::{Inputs, TIER};
use crate::json::Json;
use crate::names::{is_per_layer, END_TO_END, PER_LAYER};
use crate::reference::{correct_passes, correction, quiet_ms};
use crate::stats::{median, percentile};
use crate::trace::run_traced;
use crate::workloads::{measure, set_up, verify, window_conditions, Kind, SetUp};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A run whose reference slices took on average this much longer than its
/// quiet ones spent most of its time in a slow spell: the correction then
/// rests on few quiet moments, and `diff` will not call a regression on it.
pub const NOISY_DRIFT: f64 = 0.5;

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| VerError::Internal("no VmHWM in /proc/self/status".into()))
}

/// Median over the run's set-ups of each timed phase, every set-up first
/// scaled to the quiet box by its own reference slices: `(metric, ms)`.
fn setup_medians(all: &[SetUp], quiet_ms: f64) -> Vec<(&'static str, f64)> {
    let ms = |s: &SetUp, phase| {
        s.timer.get(phase).as_secs_f64() * 1e3 * correction(&s.reference_ms, quiet_ms)
    };
    all[0]
        .timer
        .phases()
        .map(|(phase, _)| {
            let samples: Vec<f64> = all.iter().map(|s| ms(s, phase)).collect();
            (phase, median(&samples))
        })
        .collect()
}

fn metrics_json(
    values: &BTreeMap<&'static str, f64>,
    order: &[(&'static str, &'static str)],
) -> Json {
    Json::obj(order.iter().map(|(name, unit)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(values.get(name).copied().unwrap_or(0.0))),
                ("unit", Json::str(*unit)),
            ]),
        )
    }))
}

/// The four time figures of a window, from its set-up time and its
/// operation-order series: once scaled to the quiet box (the metrics), once
/// as the clock read them (`observed`).
fn time_figures(
    setup_s: f64,
    latencies_ms: &[f64],
    turnarounds_ms: &[f64],
) -> [(&'static str, f64); 4] {
    let turnaround_s = turnarounds_ms.iter().sum::<f64>() / 1e3;
    [
        ("setup_s", setup_s),
        ("ops_per_s", latencies_ms.len() as f64 / turnaround_s),
        ("lat_p50_ms", median(latencies_ms)),
        ("lat_p90_ms", percentile(latencies_ms, 90.0)),
    ]
}

/// Run one workload in this process and return its record: the four keys
/// the driver reads (`correct`, `attempted`, `failed`, `metrics`) plus
/// what `repeat` and `diff` need.
pub fn run_workload(args: &RunArgs) -> Result<Json> {
    let inputs = Inputs::generate(args.seed)?;
    let dir = args
        .scratch
        .join(format!("{}-{}", args.kind.name(), std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let outcome = run_in(args, &inputs, &dir);
    std::fs::remove_dir_all(&dir)?;
    outcome
}

fn run_in(args: &RunArgs, inputs: &Inputs, dir: &Path) -> Result<Json> {
    // The first set-up is the measured one, so the window and the
    // peak-memory reading see a process that has set up exactly once.
    let (mut engine, first) = set_up(args.kind, inputs, dir)?;

    let before = (engine.serve_stats(), engine.net_stats());
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (window, lookups) = if args.trace {
        let spans = args
            .scratch
            .join(format!("spans_{}.jsonl", args.kind.name()));
        let traced = run_traced(&mut engine, inputs, &first.totals, args.seconds, &spans)?;
        values.extend(traced.metrics);
        (traced.window, traced.lookups)
    } else {
        let window = measure(&mut engine, inputs, &first.totals, args.seconds);
        let lookups = window.attempted;
        (window, lookups)
    };
    let mut violations = window_conditions(&engine, before, lookups);
    let peak_rss = peak_rss_mb()?;
    let verification = verify(&mut engine, inputs, &first.totals)?;
    violations.extend(verification.violations);
    drop(engine);

    // Further set-ups, torn down at once, only steady the set-up figure.
    let mut setups = vec![first];
    while setups.len() < SETUPS {
        setups.push(set_up(args.kind, inputs, dir)?.1);
    }

    // The speed of the quiet box, from every reference slice of the run.
    let slices: Vec<f64> = setups
        .iter()
        .flat_map(|s| &s.reference_ms)
        .chain(&window.reference_ms)
        .copied()
        .collect();
    let quiet = quiet_ms(&slices);
    let drift = 1.0 / correction(&slices, quiet) - 1.0;
    let setup = setup_medians(&setups, quiet);

    let n_specs = inputs.specs.len();
    let (order, observed): (Vec<(&'static str, &'static str)>, Json) = if args.trace {
        values.extend(setup.iter().copied());
        values.extend([
            ("index.artifact_kb", setups[0].artifact_kb),
            ("harness.calib_ms", quiet),
            ("harness.calib_drift_ratio", drift),
        ]);
        assert!(
            values.keys().all(|k| is_per_layer(k)),
            "a traced metric is missing from PER_LAYER"
        );
        (
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
            Json::Null,
        )
    } else {
        // Pooled over every operation of the window, each pass first scaled
        // to the quiet box; the figures as the clock read them go into
        // `observed`.
        let corrected =
            |series: &[f64]| correct_passes(series, &window.reference_ms, n_specs, quiet);
        values.extend(time_figures(
            setup.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3,
            &corrected(&window.latencies_ms),
            &corrected(&window.turnarounds_ms),
        ));
        values.extend([
            ("gt_hit_ratio", verification.gt_hits as f64 / n_specs as f64),
            ("peak_rss_mb", peak_rss),
        ]);
        let raw_setups: Vec<f64> = setups
            .iter()
            .map(|s| s.timer.total().as_secs_f64())
            .collect();
        let raw = time_figures(
            median(&raw_setups),
            &window.latencies_ms,
            &window.turnarounds_ms,
        );
        (
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Json::obj(
                std::iter::once(("window_s", window.wall_s))
                    .chain(raw)
                    .map(|(name, value)| (name, Json::Num(value))),
            ),
        )
    };

    for v in &violations {
        eprintln!("ver-benchmark: correctness gate: {v}");
    }
    Ok(Json::obj([
        (
            "correct",
            Json::Bool(violations.is_empty() && window.failed == 0),
        ),
        ("attempted", Json::Num(window.attempted as f64)),
        ("failed", Json::Num(window.failed as f64)),
        ("metrics", metrics_json(&values, &order)),
        ("workload", Json::str(args.kind.name())),
        ("tier", Json::str(TIER)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("specs", Json::Num(n_specs as f64)),
        ("observed", observed),
        ("reference_quiet_ms", Json::Num(quiet)),
        ("reference_slices", Json::Num(slices.len() as f64)),
        ("box_slowdown", Json::Num(drift)),
        ("noisy", Json::Bool(drift > NOISY_DRIFT)),
        (
            "hardware_threads",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
    ]))
}
