//! Server configuration. Every default is a constant; a `verd` process
//! overrides the bind address and connection cap with `--addr` and
//! `--max-conns`.

use std::net::SocketAddr;
use std::time::Duration;

/// Bind address used when `--addr` does not say otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Connection cap used when `--max-conns` does not say otherwise.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Open-cursor cap of one server; the oldest cursor is evicted (FIFO) when
/// a new paginated query would exceed it.
pub const MAX_CURSORS: usize = 64;

/// Parse a `--addr`-style value: a socket address like `127.0.0.1:7117`
/// or `[::1]:7117`.
pub fn parse_addr(raw: &str) -> Option<SocketAddr> {
    raw.trim().parse::<SocketAddr>().ok()
}

/// Tunables for one [`Server`](super::server::Server).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address ([`DEFAULT_ADDR`] by default).
    pub addr: SocketAddr,
    /// Concurrent-connection cap; `0` = uncapped. Connections over the
    /// cap are told `Overloaded` and closed, mirroring the engine's
    /// admission gate one layer down ([`DEFAULT_MAX_CONNS`] by default).
    pub max_conns: usize,
    /// Per-read socket timeout; a peer that stays silent longer loses
    /// its connection (`Io` on the read path).
    pub read_timeout: Duration,
    /// Per-write socket timeout; a peer that won't drain its responses
    /// (slow-loris) loses its connection.
    pub write_timeout: Duration,
    /// Page size applied when a `Query` asks for `page_size == 0`;
    /// `0` here means "whole result inline".
    pub default_page_size: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: DEFAULT_ADDR.parse().expect("default addr parses"),
            max_conns: DEFAULT_MAX_CONNS,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            default_page_size: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_knob_parses_socket_addresses() {
        assert_eq!(
            parse_addr("127.0.0.1:7117"),
            Some("127.0.0.1:7117".parse().unwrap())
        );
        assert_eq!(
            parse_addr("  0.0.0.0:80  "),
            Some("0.0.0.0:80".parse().unwrap())
        );
        assert_eq!(parse_addr("localhost:7117"), None); // no resolver — the flag wants a literal
        assert_eq!(parse_addr("7117"), None);
        assert_eq!(parse_addr(""), None);
        assert_eq!(parse_addr("127.0.0.1:"), None);
    }

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert!(c.read_timeout > Duration::ZERO);
        assert!(c.write_timeout > Duration::ZERO);
    }
}
