//! A resilient wrapper around [`Client`] for remote scatter legs.
//!
//! A remote shard leg can fail in ways the in-process scatter never sees:
//! the peer process dies mid-frame, the network stalls, a connect is
//! refused while the leg restarts. This module gives the router one
//! envelope for all of it:
//!
//! * **per-attempt timeouts** — every attempt gets a fresh socket
//!   deadline, so a slow-loris leg costs bounded wall-clock;
//! * **reconnect on error** — a [`Client`] that failed mid-exchange is
//!   poisoned (the stream may be mid-frame) and is dropped, never reused;
//! * **jittered exponential backoff with a retry budget** — attempt `n`
//!   retries after a deterministic jittered delay (the vendored RNG story,
//!   invariant 7: jitter comes from [`fx_hash_u64`], so the proptests can
//!   pin its bounds exactly);
//! * **a per-leg circuit breaker** — after [`RetryPolicy::breaker_threshold`]
//!   *consecutive* failures the breaker opens and the leg fails fast
//!   without touching the network; after [`RetryPolicy::cooldown`] one
//!   caller is admitted as a half-open probe (a cheap `Health` exchange)
//!   that either closes the breaker or re-opens it.
//!
//! Every tunable is a [`RetryPolicy`] field; its defaults are constants
//! ([`DEFAULT_RETRIES`], [`DEFAULT_BACKOFF_MS`],
//! [`DEFAULT_BREAKER_THRESHOLD`]).
//!
//! What the envelope does **not** decide: whether a failed leg degrades
//! the query to a partial result or fails it — that is the router's merge
//! contract (`ShardBackend::degradable`, ARCHITECTURE.md "Failure model").

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::fault;
use ver_common::fxhash::fx_hash_u64;
use ver_qbe::ViewSpec;
use ver_search::ShardSearchOutput;

use super::client::Client;
use super::wire::HealthReply;

/// Default extra attempts per call.
pub const DEFAULT_RETRIES: u32 = 2;
/// Default base backoff, in milliseconds.
pub const DEFAULT_BACKOFF_MS: u64 = 50;
/// Default breaker threshold.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 4;

/// Retry/backoff/breaker tunables for one remote leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first, per call (`2` ⇒ at most 3 attempts;
    /// `0` disables retries).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per retry up to
    /// `backoff_cap`. Zero retries immediately.
    pub backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failures that open the circuit breaker (≥ 1).
    pub breaker_threshold: u32,
    /// Open-state dwell before the breaker half-opens for one probe.
    pub cooldown: Duration,
    /// Socket read/write/connect timeout applied to each attempt.
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    /// Fixed defaults suited to a LAN deployment.
    fn default() -> Self {
        RetryPolicy {
            retries: DEFAULT_RETRIES,
            backoff: Duration::from_millis(DEFAULT_BACKOFF_MS),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
            cooldown: Duration::from_millis(500),
            attempt_timeout: Duration::from_secs(10),
        }
    }
}

/// Deterministic jittered exponential backoff.
///
/// Retry `attempt` (0-based) sleeps within `[exp/2, exp]` where
/// `exp = backoff · 2^attempt`, capped at `backoff_cap`. The jitter is a
/// pure function of `(seed, attempt)` via [`fx_hash_u64`] — no entropy
/// source (the vendored RNG is a stub, and determinism keeps the bounds
/// testable exactly).
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32, seed: u64) -> Duration {
    let base = policy.backoff.as_millis().min(u128::from(u64::MAX)) as u64;
    let cap = policy.backoff_cap.as_millis().min(u128::from(u64::MAX)) as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(32)).min(cap);
    if exp == 0 {
        return Duration::ZERO;
    }
    let jitter = fx_hash_u64(&(seed, attempt)) % (exp / 2 + 1);
    Duration::from_millis(exp - jitter)
}

/// Circuit-breaker state, as reported in per-leg router stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; counting consecutive failures.
    Closed,
    /// Failing fast; no network traffic until the cooldown elapses.
    Open,
    /// One probe is out deciding whether to close or re-open.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire tag for `RouterStats` (`0` closed, `1` open, `2`
    /// half-open) — part of the protocol, do not renumber.
    pub fn wire_tag(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// What the breaker lets one caller do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: proceed normally.
    Allow,
    /// Half-open: *this* caller is the single probe; verify the leg with
    /// a cheap exchange before trusting it with real work.
    Probe,
    /// Open (or another probe is already out): fail fast.
    Reject,
}

/// A per-leg circuit breaker. Time is passed in (every transition takes a
/// `now: Instant`) so the state machine is clock-free and the proptests
/// can drive it through arbitrary schedules.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// (clamped to ≥ 1) and half-opens `cooldown` after opening.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// Current state (for stats; [`Breaker::admit`] is the decision API).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Decide whether a call may proceed at `now`. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits *this*
    /// caller as the probe; until the probe reports back, everyone else is
    /// rejected.
    pub fn admit(&mut self, now: Instant) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Reject,
            BreakerState::Open => {
                let opened = self.opened_at.expect("open breaker has an open time");
                if now.saturating_duration_since(opened) >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
        }
    }

    /// A call (or probe) succeeded: close and forget the failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// A call (or probe) failed at `now`. In the closed state the streak
    /// grows and opens the breaker at exactly `threshold`; a failed
    /// half-open probe re-opens immediately and restarts the cooldown.
    pub fn record_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::Closed => {
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                }
            }
            BreakerState::HalfOpen | BreakerState::Open => {
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
            }
        }
    }
}

/// Attempt/retry/failure counters for one leg, surfaced as `RouterStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilientCounters {
    /// Network attempts made (first tries, retries, and probes).
    pub attempts: u64,
    /// Attempts beyond the first within a single call.
    pub retries: u64,
    /// Attempts that failed at the transport level.
    pub failures: u64,
}

/// A [`Client`] to one remote shard leg, wrapped in the retry/backoff/
/// breaker envelope. Healthy connections are kept and reused across
/// calls; any failed exchange drops the connection (see [`Client`]'s
/// poisoning contract) and the next attempt reconnects.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    breaker: Breaker,
    conn: Option<Client>,
    /// Jitter seed: fxhash of the address, so legs desynchronize their
    /// retry schedules without an entropy source.
    seed: u64,
    calls: u64,
    counters: ResilientCounters,
}

impl ResilientClient {
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr,
            breaker: Breaker::new(policy.breaker_threshold, policy.cooldown),
            policy,
            conn: None,
            seed: fx_hash_u64(&addr.to_string()),
            calls: 0,
            counters: ResilientCounters::default(),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    pub fn counters(&self) -> ResilientCounters {
        self.counters
    }

    /// Run one scatter leg remotely, deducting the elapsed budget before
    /// every attempt: the wire carries the *remaining* milliseconds, so a
    /// leg reached after a retry storm gets a correspondingly smaller
    /// deadline (`0` on the wire = no deadline).
    pub fn shard_query(
        &mut self,
        spec: &ViewSpec,
        shard: u32,
        shard_count: u32,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput> {
        self.call(budget, |client, budget_ms| {
            client.shard_query(spec, shard, shard_count, budget_ms)
        })
    }

    /// Liveness probe through the same envelope (no deadline).
    pub fn health(&mut self) -> Result<HealthReply> {
        self.call(&QueryBudget::none(), |client, _| client.health())
    }

    /// The envelope: breaker admission, per-attempt budget deduction,
    /// reconnect, and jittered backoff around `op`.
    fn call<T>(
        &mut self,
        budget: &QueryBudget,
        mut op: impl FnMut(&mut Client, u64) -> Result<T>,
    ) -> Result<T> {
        self.calls += 1;
        let call_seed = fx_hash_u64(&(self.seed, self.calls));
        let mut last_err = None;
        for attempt in 0..=self.policy.retries {
            // Deduct the elapsed budget first: an expired deadline means
            // no network traffic at all for this attempt.
            let budget_ms = match remaining_ms(budget) {
                Ok(ms) => ms,
                Err(e) => return Err(last_err.unwrap_or(e)),
            };
            match self.breaker.admit(Instant::now()) {
                Admission::Allow => {}
                Admission::Reject => {
                    return Err(VerError::Overloaded(format!(
                        "circuit open for shard leg {}",
                        self.addr
                    )));
                }
                Admission::Probe => {
                    // Half-open: one cheap Health exchange decides. A
                    // failed probe re-opens the breaker, so further
                    // attempts in this call would only be rejected.
                    self.counters.attempts += 1;
                    match self.probe() {
                        Ok(()) => self.breaker.record_success(),
                        Err(e) => {
                            self.counters.failures += 1;
                            self.breaker.record_failure(Instant::now());
                            return Err(e);
                        }
                    }
                }
            }
            self.counters.attempts += 1;
            if attempt > 0 {
                self.counters.retries += 1;
            }
            match self.attempt(budget_ms, &mut op) {
                Ok(v) => {
                    self.breaker.record_success();
                    return Ok(v);
                }
                // Only transport failures and shedding are worth a retry:
                // a typed answer (a malformed query, an exceeded deadline)
                // comes from a healthy leg, and retrying cannot change it.
                Err(e) if e.is_transport() => {
                    self.counters.failures += 1;
                    self.breaker.record_failure(Instant::now());
                    last_err = Some(e);
                    if attempt < self.policy.retries {
                        sleep_within(backoff_delay(&self.policy, attempt, call_seed), budget);
                    }
                }
                Err(e) => {
                    // A clean typed answer from a healthy leg — not a
                    // transport failure, so the streak resets.
                    self.breaker.record_success();
                    return Err(e);
                }
            }
        }
        Err(last_err.expect("loop ran at least once and only exits on error"))
    }

    /// One attempt: (re)connect if needed, run `op`, keep the connection
    /// only if it stayed trustworthy.
    fn attempt<T>(
        &mut self,
        budget_ms: u64,
        op: &mut impl FnMut(&mut Client, u64) -> Result<T>,
    ) -> Result<T> {
        fault::hit(fault::points::REMOTE_LEG)?;
        let mut client = match self.conn.take() {
            Some(c) => c,
            None => Client::connect_with_timeouts(
                self.addr,
                self.policy.attempt_timeout,
                self.policy.attempt_timeout,
            )?,
        };
        let result = op(&mut client, budget_ms);
        if !client.is_poisoned() {
            self.conn = Some(client);
        }
        result
    }

    /// Half-open probe: a fresh connection and one `Health` exchange.
    fn probe(&mut self) -> Result<()> {
        self.conn = None;
        let mut client = Client::connect_with_timeouts(
            self.addr,
            self.policy.attempt_timeout,
            self.policy.attempt_timeout,
        )?;
        client.health()?;
        self.conn = Some(client);
        Ok(())
    }
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addr", &self.addr)
            .field("breaker", &self.breaker.state())
            .field("counters", &self.counters)
            .finish()
    }
}

/// Remaining budget in whole milliseconds for the wire (`0` = no
/// deadline); an already-expired budget is a `DeadlineExceeded` without
/// any network traffic.
fn remaining_ms(budget: &QueryBudget) -> Result<u64> {
    match budget.deadline() {
        None => Ok(0),
        Some(d) => {
            let rem = d.saturating_duration_since(Instant::now());
            if rem.is_zero() {
                Err(VerError::DeadlineExceeded("remote leg attempt".into()))
            } else {
                // Round sub-millisecond remainders up: a live deadline
                // must never encode as 0 ("no deadline") on the wire.
                Ok((rem.as_millis() as u64).max(1))
            }
        }
    }
}

/// Sleep for `delay`, clipped so the backoff never outlives the deadline.
fn sleep_within(delay: Duration, budget: &QueryBudget) {
    let d = match budget.deadline() {
        Some(deadline) => delay.min(deadline.saturating_duration_since(Instant::now())),
        None => delay,
    };
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(retries: u32, backoff_ms: u64, threshold: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            backoff: Duration::from_millis(backoff_ms),
            backoff_cap: Duration::from_millis(400),
            breaker_threshold: threshold,
            cooldown: Duration::from_millis(100),
            attempt_timeout: Duration::from_millis(200),
        }
    }

    #[test]
    fn backoff_doubles_and_stays_jittered_within_bounds() {
        let p = policy(8, 50, 4);
        for seed in [0u64, 1, 42, u64::MAX] {
            for attempt in 0..8u32 {
                let exp = (50u64 << attempt).min(400);
                let d = backoff_delay(&p, attempt, seed).as_millis() as u64;
                assert!(
                    d >= exp / 2 && d <= exp,
                    "attempt {attempt} seed {seed}: {d}ms outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = policy(4, 50, 4);
        assert_eq!(backoff_delay(&p, 2, 7), backoff_delay(&p, 2, 7));
    }

    #[test]
    fn zero_base_backoff_is_zero() {
        let p = policy(4, 0, 4);
        assert_eq!(backoff_delay(&p, 3, 9), Duration::ZERO);
    }

    #[test]
    fn breaker_opens_at_exactly_threshold_consecutive_failures() {
        let t0 = Instant::now();
        let mut b = Breaker::new(3, Duration::from_millis(100));
        for i in 0..2 {
            b.record_failure(t0);
            assert_eq!(b.state(), BreakerState::Closed, "failure {i} keeps closed");
        }
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open, "third failure opens");
        assert_eq!(b.admit(t0), Admission::Reject);
    }

    #[test]
    fn success_resets_the_streak() {
        let t0 = Instant::now();
        let mut b = Breaker::new(2, Duration::from_millis(100));
        b.record_failure(t0);
        b.record_success();
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let t0 = Instant::now();
        let mut b = Breaker::new(1, Duration::from_millis(100));
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        // Before the cooldown: reject.
        assert_eq!(b.admit(t0 + Duration::from_millis(50)), Admission::Reject);
        // After the cooldown: exactly one probe, everyone else rejected.
        let later = t0 + Duration::from_millis(150);
        assert_eq!(b.admit(later), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(later), Admission::Reject);
        // Probe success closes; probe failure would re-open.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(later), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_the_cooldown() {
        let t0 = Instant::now();
        let mut b = Breaker::new(1, Duration::from_millis(100));
        b.record_failure(t0);
        let probe_at = t0 + Duration::from_millis(150);
        assert_eq!(b.admit(probe_at), Admission::Probe);
        b.record_failure(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(
            b.admit(probe_at + Duration::from_millis(50)),
            Admission::Reject,
            "cooldown restarted from the failed probe"
        );
        assert_eq!(
            b.admit(probe_at + Duration::from_millis(150)),
            Admission::Probe
        );
    }

    #[test]
    fn dead_address_exhausts_the_retry_budget_with_typed_errors() {
        // Port 1 on localhost: connection refused, instantly.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c = ResilientClient::new(addr, policy(2, 0, 10));
        let err = c
            .shard_query(
                &sample_spec(),
                0,
                2,
                &QueryBudget::none().with_timeout(Duration::from_secs(5)),
            )
            .expect_err("nothing listens on port 1");
        assert!(matches!(err, VerError::Io(_)), "got {err:?}");
        let counters = c.counters();
        assert_eq!(counters.attempts, 3, "1 try + 2 retries");
        assert_eq!(counters.retries, 2);
        assert_eq!(counters.failures, 3);
        assert_eq!(c.breaker_state(), BreakerState::Closed, "threshold is 10");
    }

    #[test]
    fn breaker_fails_fast_once_open() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        // Threshold 2: the first call's two attempts open the breaker.
        let mut c = ResilientClient::new(addr, policy(1, 0, 2));
        let budget = QueryBudget::none().with_timeout(Duration::from_secs(5));
        let err = c
            .shard_query(&sample_spec(), 0, 2, &budget)
            .expect_err("refused");
        assert!(matches!(err, VerError::Io(_)));
        assert_eq!(c.breaker_state(), BreakerState::Open);
        let attempts_so_far = c.counters().attempts;
        let err = c
            .shard_query(&sample_spec(), 0, 2, &budget)
            .expect_err("open circuit");
        assert!(
            matches!(err, VerError::Overloaded(ref m) if m.contains("circuit open")),
            "got {err:?}"
        );
        assert_eq!(
            c.counters().attempts,
            attempts_so_far,
            "open circuit makes no network attempts"
        );
    }

    #[test]
    fn expired_budget_never_touches_the_network() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c = ResilientClient::new(addr, policy(3, 0, 10));
        let dead = QueryBudget::none().with_timeout(Duration::ZERO);
        let err = c
            .shard_query(&sample_spec(), 0, 2, &dead)
            .expect_err("budget already spent");
        assert!(matches!(err, VerError::DeadlineExceeded(_)), "got {err:?}");
        assert_eq!(c.counters().attempts, 0);
    }

    #[test]
    fn injected_remote_leg_fault_is_retried_through_the_envelope() {
        let _g = ver_common::sync::lock_unpoisoned(fault_guard());
        fault::reset();
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c = ResilientClient::new(addr, policy(0, 0, 10));
        fault::arm_times(fault::points::REMOTE_LEG, fault::FaultKind::IoError, 1);
        let err = c.health().expect_err("fault fires before the connect");
        assert!(
            matches!(err, VerError::Io(ref m) if m.contains("injected")),
            "got {err:?}"
        );
        fault::reset();
    }

    fn fault_guard() -> &'static std::sync::Mutex<()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        &LOCK
    }

    fn sample_spec() -> ViewSpec {
        ViewSpec::Keyword(vec!["city".into()])
    }
}
