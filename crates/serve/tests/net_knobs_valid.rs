//! Regression: the bind address and connection cap are set on
//! [`NetConfig`] (which `verd` fills from `--addr` / `--max-conns`), never
//! from the environment. Well-formed `VER_ADDR` / `VER_MAX_CONNS` values
//! are set first and must not move the defaults; the same values given
//! the way `verd` takes them are honored. Its own test binary, so the
//! variables are set before anything in the process builds a config.

use std::net::SocketAddr;
use ver_serve::net::config::parse_addr;
use ver_serve::net::{NetConfig, DEFAULT_ADDR, DEFAULT_MAX_CONNS};

#[test]
fn valid_net_knobs_are_honored() {
    std::env::set_var("VER_ADDR", "127.0.0.1:0");
    std::env::set_var("VER_MAX_CONNS", "3");

    let config = NetConfig::default();
    let default_addr: SocketAddr = DEFAULT_ADDR.parse().unwrap();
    assert_eq!(config.addr, default_addr);
    assert_eq!(config.max_conns, DEFAULT_MAX_CONNS);

    let expected: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let addr = parse_addr("127.0.0.1:0").expect("a well-formed --addr parses");
    assert_eq!(addr, expected);
    let config = NetConfig {
        addr,
        max_conns: 3,
        ..NetConfig::default()
    };
    assert_eq!(config.addr, expected);
    assert_eq!(config.max_conns, 3);
}
