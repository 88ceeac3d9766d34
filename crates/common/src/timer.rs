//! Phase timers used to reproduce the paper's runtime breakdowns.
//!
//! Fig. 4(a) breaks 4C runtime into schema-partition / hash+C1 / C2 / C3+C4
//! phases; Fig. 4(b) breaks the end-to-end runtime into
//! COLUMN-SELECTION / JOIN-GRAPH-SEARCH / MATERIALIZER / VD-IO / 4C. The
//! components accumulate wall-clock time into a [`PhaseTimer`] keyed by phase
//! name, which the harness then prints.

use std::time::{Duration, Instant};

/// Accumulates wall-clock durations per named phase.
///
/// Phase names are interned as `&'static str` to keep recording allocation
/// free on the hot path.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(&'static str, Duration)>,
}

impl PhaseTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` and attribute its wall time to `phase`.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Add a pre-measured duration to `phase`.
    pub fn add(&mut self, phase: &'static str, d: Duration) {
        if let Some(entry) = self.phases.iter_mut().find(|(p, _)| *p == phase) {
            entry.1 += d;
        } else {
            self.phases.push((phase, d));
        }
    }

    /// Total accumulated across all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Duration recorded for `phase` (zero if never recorded).
    pub fn get(&self, phase: &str) -> Duration {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Phases in first-recorded order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.phases.iter().copied()
    }

    /// Merge another timer into this one (phase-wise sum).
    pub fn merge(&mut self, other: &PhaseTimer) {
        for (p, d) in other.phases() {
            self.add(p, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_per_phase() {
        let mut t = PhaseTimer::new();
        let v = t.time("a", || 21 * 2);
        assert_eq!(v, 42);
        t.time("a", || std::thread::sleep(Duration::from_millis(1)));
        t.time("b", || ());
        assert!(t.get("a") >= Duration::from_millis(1));
        assert_eq!(t.phases().count(), 2);
        assert!(t.total() >= t.get("a"));
    }

    #[test]
    fn get_missing_phase_is_zero() {
        let t = PhaseTimer::new();
        assert_eq!(t.get("nope"), Duration::ZERO);
    }

    #[test]
    fn merge_sums_durations() {
        let mut a = PhaseTimer::new();
        a.add("x", Duration::from_millis(5));
        let mut b = PhaseTimer::new();
        b.add("x", Duration::from_millis(7));
        b.add("y", Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_millis(12));
        assert_eq!(a.get("y"), Duration::from_millis(1));
    }

    #[test]
    fn phase_order_is_first_recorded() {
        let mut t = PhaseTimer::new();
        t.add("later", Duration::ZERO);
        t.add("first?", Duration::ZERO);
        t.add("later", Duration::from_millis(1));
        let names: Vec<&str> = t.phases().map(|(p, _)| p).collect();
        assert_eq!(names, vec!["later", "first?"]);
    }
}
