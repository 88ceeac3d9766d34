//! Regression: malformed `VER_ADDR` / `VER_MAX_CONNS` values can neither
//! panic nor move the server defaults, which are the `DEFAULT_*`
//! constants whatever the environment says. A malformed `--addr` is
//! rejected by [`parse_addr`] (`verd` prints it with its usage and
//! exits). Its own test binary, so the variables are set before anything
//! in the process builds a config.

use std::net::SocketAddr;
use ver_serve::net::config::parse_addr;
use ver_serve::net::{NetConfig, DEFAULT_ADDR, DEFAULT_MAX_CONNS};

#[test]
fn malformed_net_knobs_warn_and_fall_back() {
    std::env::set_var("VER_ADDR", "not-an-address:maybe");
    std::env::set_var("VER_MAX_CONNS", "lots");

    let fallback_addr: SocketAddr = DEFAULT_ADDR.parse().unwrap();
    let config = NetConfig::default();
    assert_eq!(config.addr, fallback_addr);
    assert_eq!(config.max_conns, DEFAULT_MAX_CONNS);

    assert_eq!(parse_addr("not-an-address:maybe"), None);

    // Fixing the environment later changes nothing either.
    std::env::set_var("VER_ADDR", "10.0.0.1:9999");
    std::env::set_var("VER_MAX_CONNS", "3");
    let config = NetConfig::default();
    assert_eq!(config.addr, fallback_addr);
    assert_eq!(config.max_conns, DEFAULT_MAX_CONNS);
}
