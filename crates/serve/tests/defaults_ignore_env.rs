//! Regression: config defaults are constants, never process state.
//!
//! Sets every environment variable that once tuned a default to a
//! non-default value before any config is built, then checks that the
//! pipeline, server and retry defaults did not move. Its own test binary,
//! so nothing else in the process can have read the defaults first.

use std::time::Duration;
use ver_core::VerConfig;
use ver_serve::net::resilient::{DEFAULT_BACKOFF_MS, DEFAULT_BREAKER_THRESHOLD, DEFAULT_RETRIES};
use ver_serve::net::{NetConfig, RetryPolicy, DEFAULT_ADDR, DEFAULT_MAX_CONNS};

#[test]
fn defaults_ignore_the_retired_environment_variables() {
    for (name, value) in [
        ("VER_THREADS", "3"),
        ("VER_SIMD", "0"),
        ("VER_SHARDS", "2"),
        ("VER_ADDR", "10.0.0.1:9999"),
        ("VER_MAX_CONNS", "3"),
        ("VER_RETRIES", "7"),
        ("VER_BACKOFF_MS", "999"),
        ("VER_BREAKER", "9"),
    ] {
        std::env::set_var(name, value);
    }

    let pipeline = VerConfig::default();
    assert_eq!(pipeline.index.threads, 0);
    assert_eq!(pipeline.search.threads, 0);
    assert_eq!(pipeline.distill.threads, 0);

    let net = NetConfig::default();
    assert_eq!(net.addr, DEFAULT_ADDR.parse().unwrap());
    assert_eq!(net.max_conns, DEFAULT_MAX_CONNS);

    let policy = RetryPolicy::default();
    assert_eq!(policy.retries, DEFAULT_RETRIES);
    assert_eq!(policy.backoff, Duration::from_millis(DEFAULT_BACKOFF_MS));
    assert_eq!(policy.breaker_threshold, DEFAULT_BREAKER_THRESHOLD);
}
