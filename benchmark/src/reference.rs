//! The reference kernel and the speed correction built on it.
//!
//! The box this benchmark runs on slows user code down by up to a half for
//! seconds to minutes at a time (a neighbour on the host; the guest's other
//! processor is idle and no time is stolen meanwhile). A wall-clock figure
//! taken in such a spell says more about the neighbour than about the
//! product. So a fixed slice of harness-owned work — allocation-heavy, like
//! the product's hot paths, and about 2 ms long — runs after every
//! operation, outside every product clock. The slices measure how fast the
//! box is *right now*; each pass of operations is then scaled to the speed
//! of the run's fastest slices.
//!
//! A product change cannot move the kernel, so a product regression shows
//! in the corrected figures exactly as in the raw ones, which are kept in
//! every run file under `observed`.

use crate::stats::percentile;

/// Strings allocated, formatted and freed per round, and rounds per slice.
const STRINGS: usize = 2000;
const ROUNDS: usize = 12;

/// The slices at or below this percentile of a run ran on a quiet box.
/// Low, so that a run needs only a few quiet moments to find its scale;
/// not the minimum, which is an extreme value and wanders.
const QUIET_PERCENTILE: f64 = 5.0;

/// Run one slice of the reference kernel; returns its duration in ms.
pub fn slice() -> f64 {
    let start = std::time::Instant::now();
    for round in 0..ROUNDS {
        let strings: Vec<String> = (0..STRINGS).map(|i| format!("value-{round}-{i}")).collect();
        std::hint::black_box(&strings);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// How fast a slice runs on the quiet box, estimated from every slice of a
/// run, in ms.
pub fn quiet_ms(slices: &[f64]) -> f64 {
    percentile(slices, QUIET_PERCENTILE)
}

/// Factor that takes times measured while `slices` ran to the speed of the
/// quiet box: 1 when the slices ran at `quiet_ms`, 0.5 when they took twice
/// as long. 1 when there is nothing to go by.
pub fn correction(slices: &[f64], quiet_ms: f64) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    quiet_ms / (slices.iter().sum::<f64>() / slices.len() as f64)
}

/// Scale an operation-order series pass by pass: entry `k` is multiplied by
/// the correction of the slices that ran in its pass (`k / n_specs`).
pub fn correct_passes(
    series_ms: &[f64],
    slices: &[f64],
    n_specs: usize,
    quiet_ms: f64,
) -> Vec<f64> {
    series_ms
        .chunks(n_specs)
        .zip(slices.chunks(n_specs))
        .flat_map(|(pass, pass_slices)| {
            let factor = correction(pass_slices, quiet_ms);
            pass.iter().map(move |ms| ms * factor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_pass_is_scaled_back_to_quiet_speed() {
        // Two specs, three passes; the box ran the second pass at half speed.
        let latencies = [10.0, 20.0, 20.0, 40.0, 10.0, 20.0];
        let slices = [2.0, 2.0, 4.0, 4.0, 2.0, 2.0];
        let quiet = 2.0;
        assert_eq!(
            correct_passes(&latencies, &slices, 2, quiet),
            [10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
        );
        assert_eq!(correction(&[3.0, 5.0], 2.0), 0.5);
        assert_eq!(correction(&[], 2.0), 1.0);
    }

    #[test]
    fn the_quiet_speed_is_a_low_percentile_not_the_minimum() {
        // 100 slices: one freak at 1.0, most at 2.0, a slow spell at 3.0.
        let mut slices = vec![2.0; 80];
        slices.extend([3.0; 19]);
        slices.push(1.0);
        assert_eq!(quiet_ms(&slices), 2.0);
    }

    #[test]
    fn a_slice_does_measurable_work() {
        assert!(slice() > 0.0);
    }
}
