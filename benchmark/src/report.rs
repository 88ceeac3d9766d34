//! Running workloads in fresh child processes, `repeat` (interleaved sets
//! with medians and quartiles over sets) and `diff` (the per-metric bounds
//! applied to two repeat files).

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::names::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Kind;

/// Run one workload in a fresh child process of this executable and read
/// its record back. Waits for the child; its standard output is discarded
/// (the record travels through `--out`).
pub fn run_child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Json, String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let out = scratch.join(format!("run_{}_{}.json", kind.name(), std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["run", "--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .arg("--scratch")
        .arg(scratch)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    // A failed correctness gate exits non-zero but still leaves a record.
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{} left no record ({status}): {e}", kind.name()))?;
    std::fs::remove_file(&out).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

fn metric_value(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Fold one workload's records (one per set) into medians and quartiles.
fn summarize(records: &[Json]) -> Json {
    let metrics = END_TO_END.iter().map(|m| {
        let values: Vec<f64> = records
            .iter()
            .filter_map(|r| metric_value(r, m.name))
            .collect();
        let (q1, q3) = quartiles(&values).unwrap_or((median(&values), median(&values)));
        (
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("n", Json::Num(values.len() as f64)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    });
    let flagged = |key: &str| records.iter().filter(|r| r.flag(key)).count() as f64;
    Json::obj([
        (
            "attempted",
            Json::Num(records.iter().map(|r| r.num("attempted")).sum()),
        ),
        (
            "failed",
            Json::Num(records.iter().map(|r| r.num("failed")).sum()),
        ),
        ("correct_sets", Json::Num(flagged("correct"))),
        ("noisy_sets", Json::Num(flagged("noisy"))),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Run `sets` interleaved sets (`lib_cold, wire_hot, wire_paged,
/// shard_miss`, then again), so a slow minute on a shared box lands on one
/// set of each workload and not on every set of one. Set `i` uses seed
/// `seed + i`, the same list on every invocation.
pub fn repeat(sets: usize, seed: u64, seconds: f64, scratch: &Path) -> Result<Json, String> {
    let mut records: Vec<Vec<Json>> = vec![Vec::new(); Kind::ALL.len()];
    for set in 0..sets {
        for (slot, kind) in Kind::ALL.into_iter().enumerate() {
            eprintln!("ver-benchmark: set {}/{sets} {}", set + 1, kind.name());
            records[slot].push(run_child(kind, seed + set as u64, seconds, false, scratch)?);
        }
    }
    Ok(Json::obj([
        ("kind", Json::str("repeat")),
        ("sets", Json::Num(sets as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "workloads",
            Json::obj(
                Kind::ALL
                    .into_iter()
                    .zip(&records)
                    .map(|(kind, recs)| (kind.name(), summarize(recs))),
            ),
        ),
    ]))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the values of a metric over sets, and
/// whether any of those sets ran under a drifting calibration kernel.
pub struct Side<'a> {
    pub values: &'a [f64],
    pub noisy: bool,
}

/// Apply a metric's bound to the medians of two sides. A candidate worse
/// than the bound is a regression only when both sides are quiet and
/// tighter than the bound; otherwise the comparison cannot tell.
pub fn verdict(metric: &EndToEnd, base: &Side, cand: &Side) -> Verdict {
    let (b, c) = (median(base.values), median(cand.values));
    let worse_by = match metric.better {
        Better::Lower => (c - b) / b.abs(),
        Better::Higher => (b - c) / b.abs(),
    };
    if worse_by <= metric.bound {
        return Verdict::Ok;
    }
    let loose = |side: &Side| side.noisy || spread(side.values).is_some_and(|s| s > metric.bound);
    if loose(base) || loose(cand) {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn side_values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compare two repeat files. Returns the printed table and whether the
/// candidate regressed anywhere (a metric past its bound, a higher share
/// of failed operations, or a workload missing from the candidate).
pub fn diff(base: &Json, cand: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<11} {:<13} {:>12} {:>12} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "ratio"
    );
    for kind in Kind::ALL {
        let side = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(kind.name()))
                .cloned()
        };
        let (Some(b), Some(c)) = (side(base), side(cand)) else {
            let _ = writeln!(out, "{:<11} missing from one side  regressed", kind.name());
            regressed = true;
            continue;
        };
        for metric in &END_TO_END {
            let (bv, cv) = (side_values(&b, metric.name), side_values(&c, metric.name));
            let v = verdict(
                metric,
                &Side {
                    values: &bv,
                    noisy: b.num("noisy_sets") > 0.0,
                },
                &Side {
                    values: &cv,
                    noisy: c.num("noisy_sets") > 0.0,
                },
            );
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<11} {:<13} {:>12.4} {:>12.4} {:>7.3}  {}",
                kind.name(),
                metric.name,
                median(&bv),
                median(&cv),
                median(&cv) / median(&bv),
                v.label()
            );
        }
        let share = |w: &Json| w.num("failed") / w.num("attempted").max(1.0);
        let more_failures = share(&c) > share(&b);
        regressed |= more_failures;
        let _ = writeln!(
            out,
            "{:<11} {:<13} {:>12} {:>12} {:>7}  {}",
            kind.name(),
            "failed",
            format!("{}/{}", b.num("failed"), b.num("attempted")),
            format!("{}/{}", c.num("failed"), c.num("attempted")),
            "",
            if more_failures { "regressed" } else { "ok" }
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 % bound whatever the shipped table says.
    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    fn quiet(values: &[f64]) -> Side<'_> {
        Side {
            values,
            noisy: false,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let ops = &metric(Better::Higher);
        let base = [100.0, 100.5, 99.5, 100.2, 99.8];
        let scaled = |f: f64| base.map(|v| v * f);
        assert_eq!(
            verdict(ops, &quiet(&base), &quiet(&scaled(0.91))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(ops, &quiet(&base), &quiet(&scaled(0.89))),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(ops, &quiet(&base), &quiet(&scaled(1.5))),
            Verdict::Ok
        );

        let lat = &metric(Better::Lower);
        assert_eq!(
            verdict(lat, &quiet(&base), &quiet(&scaled(1.09))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(lat, &quiet(&base), &quiet(&scaled(1.11))),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(lat, &quiet(&base), &quiet(&scaled(0.5))),
            Verdict::Ok
        );
    }

    #[test]
    fn noise_turns_a_regression_into_unresolved() {
        let lat = &metric(Better::Lower);
        let base = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slow = base.map(|v| v * 1.2);
        let noisy = Side {
            values: &slow,
            noisy: true,
        };
        assert_eq!(verdict(lat, &quiet(&base), &noisy), Verdict::Unresolved);
        // A spread wider than the bound cannot resolve an 11 % difference.
        let wide = [90.0, 131.0, 111.0, 95.0, 140.0];
        assert_eq!(
            verdict(lat, &quiet(&base), &quiet(&wide)),
            Verdict::Unresolved
        );
        // Noise never hides an improvement or a tie.
        assert_eq!(verdict(lat, &noisy, &quiet(&base)), Verdict::Ok);
    }

    fn repeat_file(p50: [f64; 3], failed: f64, noisy_sets: f64) -> Json {
        let workload = |scale: f64| {
            let metrics = END_TO_END.iter().map(|m| {
                let values = if m.name == "lat_p50_ms" {
                    p50.map(|v| v * scale)
                } else {
                    [10.0 * scale, 10.1 * scale, 9.9 * scale]
                };
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("median", Json::Num(median(&values))),
                        ("values", Json::Arr(values.map(Json::Num).to_vec())),
                    ]),
                )
            });
            Json::obj([
                ("attempted", Json::Num(1000.0)),
                ("failed", Json::Num(failed)),
                ("noisy_sets", Json::Num(noisy_sets)),
                ("metrics", Json::obj(metrics)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj(
                Kind::ALL
                    .into_iter()
                    .zip(1..)
                    .map(|(k, i)| (k.name(), workload(f64::from(i)))),
            ),
        )])
    }

    #[test]
    fn diff_reads_files_and_flags_regressions_and_failures() {
        let base = repeat_file([20.0, 20.1, 19.9], 0.0, 0.0);
        // A repeat file survives the JSON round trip unchanged.
        assert_eq!(Json::parse(&base.render()).unwrap(), base);

        let (table, regressed) = diff(&base, &base);
        assert!(!regressed, "{table}");
        assert_eq!(table.lines().count(), 1 + 4 * (END_TO_END.len() + 1));

        let slower = repeat_file([28.0, 28.1, 27.9], 0.0, 0.0);
        let (table, regressed) = diff(&base, &slower);
        assert!(regressed);
        assert_eq!(table.matches("regressed").count(), 4, "{table}");
        let (_, regressed) = diff(&slower, &base);
        assert!(!regressed, "an improvement is not a regression");

        let (table, regressed) = diff(&base, &repeat_file([28.0, 28.1, 27.9], 0.0, 1.0));
        assert!(
            !regressed && table.matches("unresolved").count() == 4,
            "{table}"
        );

        let (_, regressed) = diff(&base, &repeat_file([20.0, 20.1, 19.9], 3.0, 0.0));
        assert!(regressed, "more failed operations is a regression");
    }
}
