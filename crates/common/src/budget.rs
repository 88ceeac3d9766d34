//! Per-query budgets: wall-clock deadlines and work caps.
//!
//! "In the wild" a discovery query can fan out to thousands of candidate
//! join graphs; a production front end cannot let one pathological query
//! hold a connection for minutes. A [`QueryBudget`] bounds a single query
//! three ways:
//!
//! * a **wall-clock deadline** — checked *cooperatively* at stage
//!   boundaries (per candidate scored, per DAG materialization level, per
//!   view distilled). There is no preemption: a check is one monotonic
//!   clock read, and the stages between checks are short, so overshoot is
//!   bounded by the largest single stage step;
//! * a **candidate cap** — the search path truncates the generated
//!   candidate list before scoring;
//! * a **view cap** — an upper bound on how many ranked candidates are
//!   materialized.
//!
//! Budget exhaustion is reported as [`VerError::DeadlineExceeded`] naming
//! the stage that tripped. The serving layer converts that into a
//! *partial* result (best views completed so far, `partial: true`) rather
//! than an error wherever it already has ranked views in hand — see the
//! "Failure model" section of `ARCHITECTURE.md`.
//!
//! Determinism note: a query with **no deadline** never consults the
//! clock, so budget-free runs are bit-identical to pre-budget builds. The
//! caps are deterministic (they truncate content-ranked lists), so two
//! runs with the same caps also produce identical output.

use crate::error::{Result, VerError};
use std::time::{Duration, Instant};

/// Budget for one query: optional deadline plus optional work caps.
///
/// `Copy` by design — it is threaded by value through the search stages as
/// a cheap cooperative cancellation token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    deadline: Option<Instant>,
    max_candidates: Option<usize>,
    max_views: Option<usize>,
}

impl QueryBudget {
    /// The unlimited budget: no deadline, no caps, never trips.
    pub fn none() -> Self {
        QueryBudget::default()
    }

    /// Set a wall-clock deadline `timeout` from now.
    ///
    /// A timeout too large for the monotonic clock to represent (e.g.
    /// `Duration::MAX` as "effectively unlimited") degrades to **no
    /// deadline** instead of panicking on `Instant` overflow — an absurdly
    /// distant deadline and no deadline are observationally identical.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Cap the number of candidate join graphs scored (`0` = reject all).
    pub fn with_max_candidates(mut self, cap: usize) -> Self {
        self.max_candidates = Some(cap);
        self
    }

    /// Cap the number of ranked candidates materialized into views.
    pub fn with_max_views(mut self, cap: usize) -> Self {
        self.max_views = Some(cap);
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Candidate cap, if set.
    pub fn max_candidates(&self) -> Option<usize> {
        self.max_candidates
    }

    /// View (materialization) cap, if set.
    pub fn max_views(&self) -> Option<usize> {
        self.max_views
    }

    /// True once the deadline has passed. Budgets without a deadline never
    /// expire and never read the clock.
    pub fn expired(&self) -> bool {
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Cooperative cancellation check, called at stage boundaries.
    ///
    /// Returns [`VerError::DeadlineExceeded`] naming `stage` once the
    /// deadline has passed; a deadline-free budget short-circuits to `Ok`
    /// without touching the clock.
    #[inline]
    pub fn check(&self, stage: &str) -> Result<()> {
        if self.expired() {
            Err(VerError::DeadlineExceeded(stage.to_string()))
        } else {
            Ok(())
        }
    }

    /// Apply the candidate cap to a count: how many of `n` candidates the
    /// search stage should keep.
    pub fn cap_candidates(&self, n: usize) -> usize {
        self.max_candidates.map_or(n, |cap| cap.min(n))
    }

    /// Apply the view cap to a count: how many ranked candidates the
    /// materialization stage should execute.
    pub fn cap_views(&self, n: usize) -> usize {
        self.max_views.map_or(n, |cap| cap.min(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = QueryBudget::none();
        assert_eq!(
            (b.deadline(), b.max_candidates(), b.max_views()),
            (None, None, None)
        );
        assert!(!b.expired());
        assert!(b.check("any").is_ok());
        assert_eq!(b.cap_candidates(17), 17);
        assert_eq!(b.cap_views(17), 17);
    }

    #[test]
    fn elapsed_deadline_trips_with_stage_name() {
        let b = QueryBudget::none().with_timeout(Duration::ZERO);
        assert!(b.expired());
        match b.check("search.score") {
            Err(VerError::DeadlineExceeded(stage)) => assert_eq!(stage, "search.score"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let b = QueryBudget::none().with_timeout(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.check("search.score").is_ok());
        assert!(b.deadline().is_some());
    }

    #[test]
    fn huge_timeout_degrades_to_no_deadline_instead_of_panicking() {
        // Regression: `Instant::now() + Duration::MAX` panics on overflow;
        // callers use huge timeouts to mean "effectively unlimited".
        let b = QueryBudget::none().with_timeout(Duration::MAX);
        assert_eq!(b.deadline(), None, "unrepresentable deadline degrades");
        assert!(!b.expired());
        assert!(b.check("search.score").is_ok());

        // A representable but distant timeout still sets a real deadline.
        let b = QueryBudget::none().with_timeout(Duration::from_secs(3600));
        assert!(b.deadline().is_some());
    }

    #[test]
    fn caps_are_minima() {
        let b = QueryBudget::none().with_max_candidates(5).with_max_views(2);
        assert_eq!(b.cap_candidates(100), 5);
        assert_eq!(b.cap_candidates(3), 3);
        assert_eq!(b.cap_views(100), 2);
        assert_eq!(b.cap_views(1), 1);
        assert_eq!((b.max_candidates(), b.max_views()), (Some(5), Some(2)));
    }
}
