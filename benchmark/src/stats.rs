//! Order statistics over small samples, and the whole-pass measured window.
//!
//! The harness's own code, not `ver_common::stats`: a product change must
//! not be able to move how the benchmark counts, and the quartile rule has
//! to be the accepting driver's (Python's), which that module's is not.

use std::time::Duration;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle values for an even count). `0` for an
/// empty sample so an unmeasured layer reads as "did nothing".
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the spread rule the accepting driver applies. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (`None` under two
/// samples or for a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The fastest sample of each spec over all passes of an operation-order
/// series. Interference on a shared box only ever adds time, so a spec's
/// minimum over many passes estimates its undisturbed cost far more
/// steadily than a pooled median does.
pub fn spec_floors(series: &[f64], n_specs: usize) -> Vec<f64> {
    let mut floors = vec![f64::INFINITY; n_specs.min(series.len())];
    for (k, &v) in series.iter().enumerate() {
        let floor = &mut floors[k % n_specs];
        *floor = floor.min(v);
    }
    floors
}

/// Replay `n_specs` operations in whole passes until the first pass that
/// ends at or after `limit`; returns the elapsed time at close. Every spec
/// therefore contributes equally to every percentile. `clock` reads the
/// time since the window opened (injected so the closing rule is testable).
pub fn run_window(
    limit: Duration,
    n_specs: usize,
    mut clock: impl FnMut() -> Duration,
    mut op: impl FnMut(usize),
) -> Duration {
    loop {
        for i in 0..n_specs {
            op(i);
        }
        let now = clock();
        if now >= limit {
            return now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn spec_floors_take_each_specs_fastest_pass() {
        // Three specs, three passes; pass 2 ran in a slow spell.
        let series = [5.0, 9.0, 2.0, 8.0, 14.0, 3.5, 5.5, 8.5, 2.5];
        assert_eq!(spec_floors(&series, 3), [5.0, 8.5, 2.0]);
        assert_eq!(spec_floors(&[], 3), Vec::<f64>::new());
        assert_eq!(spec_floors(&[4.0, 1.0], 3), [4.0, 1.0]);
    }

    #[test]
    fn window_closes_at_the_end_of_the_first_pass_past_the_limit() {
        // Each op costs 1 s on a fake clock; 4 specs; limit 10 s: the pass
        // in flight at 10 s is finished, so the window closes at 12 s.
        let ticks = std::cell::Cell::new(0u64);
        let mut ops = Vec::new();
        let closed = run_window(
            Duration::from_secs(10),
            4,
            || Duration::from_secs(ticks.get()),
            |i| {
                ticks.set(ticks.get() + 1);
                ops.push(i);
            },
        );
        assert_eq!(closed, Duration::from_secs(12));
        assert_eq!(ops.len(), 12);
        assert!(ops.chunks(4).all(|pass| pass == [0, 1, 2, 3]));
        // A limit of zero still measures one whole pass.
        let mut count = 0;
        run_window(Duration::ZERO, 3, || Duration::from_secs(1), |_| count += 1);
        assert_eq!(count, 3);
    }
}
