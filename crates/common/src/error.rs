//! Error type shared across the Ver workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, VerError>;

/// Unified error for all Ver components.
///
/// The variants map to the stages of the reference architecture so callers
/// can tell *where* in the funnel a failure happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerError {
    /// A table / column / view id did not resolve in the catalog.
    NotFound(String),
    /// Malformed input data (CSV parse failure, ragged rows, ...).
    InvalidData(String),
    /// A query was malformed (zero columns, ragged example rows, ...).
    InvalidQuery(String),
    /// The discovery index is missing information required by a component.
    IndexError(String),
    /// A join could not be executed (incompatible key columns, ...).
    JoinError(String),
    /// Configuration error (bad threshold, zero interfaces, ...).
    Config(String),
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
    /// (De)serialisation failure for persisted indexes.
    Serde(String),
    /// The serving layer's admission gate rejected the request because too
    /// many queries are already in flight. Retryable: back off and resend.
    Overloaded(String),
    /// A query's [`QueryBudget`](crate::budget::QueryBudget) deadline passed
    /// before the stage named in the message completed. The serving layer
    /// converts this into a `partial: true` result wherever it already has
    /// ranked views in hand.
    DeadlineExceeded(String),
    /// An isolated internal failure — typically a worker panic caught by
    /// `ver_common::pool` and confined to the item it was processing. The
    /// process, the engine, and its caches all remain usable.
    Internal(String),
    /// A malformed wire frame or payload on the network serving path: bad
    /// preamble, oversized or truncated frame, checksum mismatch, unknown
    /// tag. Always fatal to the *connection*, never to the server — the
    /// peer cannot be trusted to stay in sync after a framing error.
    Protocol(String),
}

impl fmt::Display for VerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerError::NotFound(m) => write!(f, "not found: {m}"),
            VerError::InvalidData(m) => write!(f, "invalid data: {m}"),
            VerError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            VerError::IndexError(m) => write!(f, "index error: {m}"),
            VerError::JoinError(m) => write!(f, "join error: {m}"),
            VerError::Config(m) => write!(f, "configuration error: {m}"),
            VerError::Io(m) => write!(f, "io error: {m}"),
            VerError::Serde(m) => write!(f, "serialisation error: {m}"),
            VerError::Overloaded(m) => write!(f, "overloaded: {m}"),
            VerError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            VerError::Internal(m) => write!(f, "internal error: {m}"),
            VerError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl VerError {
    /// Stable numeric status code for the network serving protocol
    /// (`ver_serve::net`). `0` is reserved for "ok" and never produced
    /// here. The mapping is part of the wire format — reassigning a code
    /// is a protocol break, so new variants must take fresh numbers.
    pub fn wire_code(&self) -> u16 {
        match self {
            VerError::NotFound(_) => 1,
            VerError::InvalidData(_) => 2,
            VerError::InvalidQuery(_) => 3,
            VerError::IndexError(_) => 4,
            VerError::JoinError(_) => 5,
            VerError::Config(_) => 6,
            VerError::Io(_) => 7,
            VerError::Serde(_) => 8,
            VerError::Overloaded(_) => 9,
            VerError::DeadlineExceeded(_) => 10,
            VerError::Internal(_) => 11,
            VerError::Protocol(_) => 12,
        }
    }

    /// Reconstruct an error from its wire status code and message — the
    /// inverse of [`VerError::wire_code`]. An unknown code (a newer server
    /// talking to an older client) degrades to [`VerError::Internal`] with
    /// the code preserved in the message rather than failing to decode.
    pub fn from_wire(code: u16, message: String) -> VerError {
        match code {
            1 => VerError::NotFound(message),
            2 => VerError::InvalidData(message),
            3 => VerError::InvalidQuery(message),
            4 => VerError::IndexError(message),
            5 => VerError::JoinError(message),
            6 => VerError::Config(message),
            7 => VerError::Io(message),
            8 => VerError::Serde(message),
            9 => VerError::Overloaded(message),
            10 => VerError::DeadlineExceeded(message),
            11 => VerError::Internal(message),
            12 => VerError::Protocol(message),
            other => VerError::Internal(format!("unknown wire status {other}: {message}")),
        }
    }

    /// Whether this error **degrades** the unit of work it hit — the unit
    /// is skipped and the result flagged partial — instead of failing the
    /// query: a deadline that passed, or a worker panic confined to its
    /// item. Every other error is a real failure.
    pub fn degrades(&self) -> bool {
        matches!(self, VerError::DeadlineExceeded(_) | VerError::Internal(_))
    }

    /// Whether this error is a transport-level failure of a remote peer —
    /// a broken socket, a desynced frame, or a shedding server — which a
    /// reconnect-and-retry can change. Typed answers from a healthy peer
    /// are not.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            VerError::Io(_) | VerError::Protocol(_) | VerError::Overloaded(_)
        )
    }
}

impl std::error::Error for VerError {}

impl From<std::io::Error> for VerError {
    fn from(e: std::io::Error) -> Self {
        VerError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_message() {
        let e = VerError::JoinError("no shared key".into());
        assert_eq!(e.to_string(), "join error: no shared key");
        let e = VerError::NotFound("table t7".into());
        assert!(e.to_string().contains("table t7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: VerError = io.into();
        assert!(matches!(e, VerError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(VerError::Config("x".into()), VerError::Config("x".into()));
        assert_ne!(VerError::Config("x".into()), VerError::Io("x".into()));
    }

    fn every_variant() -> [VerError; 12] {
        [
            VerError::NotFound("m".into()),
            VerError::InvalidData("m".into()),
            VerError::InvalidQuery("m".into()),
            VerError::IndexError("m".into()),
            VerError::JoinError("m".into()),
            VerError::Config("m".into()),
            VerError::Io("m".into()),
            VerError::Serde("m".into()),
            VerError::Overloaded("m".into()),
            VerError::DeadlineExceeded("m".into()),
            VerError::Internal("m".into()),
            VerError::Protocol("m".into()),
        ]
    }

    #[test]
    fn wire_codes_round_trip_every_variant() {
        let mut seen = std::collections::HashSet::new();
        for e in every_variant() {
            let code = e.wire_code();
            assert_ne!(code, 0, "0 is reserved for ok");
            assert!(seen.insert(code), "duplicate wire code {code}");
            assert_eq!(VerError::from_wire(code, "m".into()), e);
        }
    }

    #[test]
    fn degrade_and_transport_sets_are_pinned_over_every_variant() {
        let of = |pick: fn(&VerError) -> bool| -> Vec<VerError> {
            every_variant().into_iter().filter(pick).collect()
        };
        assert_eq!(
            of(VerError::degrades),
            [
                VerError::DeadlineExceeded("m".into()),
                VerError::Internal("m".into())
            ]
        );
        assert_eq!(
            of(VerError::is_transport),
            [
                VerError::Io("m".into()),
                VerError::Overloaded("m".into()),
                VerError::Protocol("m".into())
            ]
        );
    }

    #[test]
    fn unknown_wire_code_degrades_to_internal() {
        match VerError::from_wire(9999, "later".into()) {
            VerError::Internal(m) => {
                assert!(m.contains("9999"));
                assert!(m.contains("later"));
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
