//! Typed errors: wire-level protocol error codes (sent inside `Error`
//! replies) and the client/server library error type wrapping them.

use std::fmt;

/// Stable protocol error codes carried by `Error` replies.
///
/// The daemon never closes a connection without first answering the
/// offending request with one of these (when a request id could still be
/// parsed); malformed framing that destroys synchronization is answered
/// with request id 0 and the connection is then closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrCode {
    /// The frame's version byte is not a protocol version this daemon
    /// speaks.
    UnsupportedVersion,
    /// The opcode byte does not name a known request.
    UnknownOp,
    /// The payload could not be decoded (truncated, trailing garbage,
    /// structurally invalid FALLS trees, over-deep nesting, …).
    Malformed,
    /// The frame length prefix exceeds the daemon's frame budget.
    FrameTooLarge,
    /// An operation referenced a file this daemon does not host.
    UnknownFile,
    /// `Open` for an existing file with a different length.
    FileMismatch,
    /// `Write`/`Read` with no view registered for the requesting compute
    /// node.
    NoView,
    /// A `SetView` pattern was rejected by the `parafile-audit` verifier;
    /// the reply carries the PA diagnostic codes.
    PatternRejected,
    /// An interval with `l > r` or otherwise unusable bounds.
    BadRange,
    /// A `Write` payload whose size does not match the projected segments
    /// of the requested interval.
    SizeMismatch,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
    /// An internal storage failure (I/O error on a file-backed store).
    Internal,
    /// Stored data failed its CRC32C verification; the replica should be
    /// read from another copy and queued for repair.
    ChecksumMismatch,
    /// The request's propagated deadline budget was already spent when the
    /// daemon was about to execute it; nothing was applied.
    DeadlineExceeded,
}

impl ErrCode {
    /// The stable numeric identifier put on the wire.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        match self {
            ErrCode::UnsupportedVersion => 1,
            ErrCode::UnknownOp => 2,
            ErrCode::Malformed => 3,
            ErrCode::FrameTooLarge => 4,
            ErrCode::UnknownFile => 5,
            ErrCode::FileMismatch => 6,
            ErrCode::NoView => 7,
            ErrCode::PatternRejected => 8,
            ErrCode::BadRange => 9,
            ErrCode::SizeMismatch => 10,
            ErrCode::ShuttingDown => 11,
            ErrCode::Internal => 12,
            ErrCode::ChecksumMismatch => 13,
            ErrCode::DeadlineExceeded => 14,
        }
    }

    /// Decodes a wire identifier back to a code.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrCode::UnsupportedVersion,
            2 => ErrCode::UnknownOp,
            3 => ErrCode::Malformed,
            4 => ErrCode::FrameTooLarge,
            5 => ErrCode::UnknownFile,
            6 => ErrCode::FileMismatch,
            7 => ErrCode::NoView,
            8 => ErrCode::PatternRejected,
            9 => ErrCode::BadRange,
            10 => ErrCode::SizeMismatch,
            11 => ErrCode::ShuttingDown,
            12 => ErrCode::Internal,
            13 => ErrCode::ChecksumMismatch,
            14 => ErrCode::DeadlineExceeded,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrCode::UnsupportedVersion => "unsupported protocol version",
            ErrCode::UnknownOp => "unknown opcode",
            ErrCode::Malformed => "malformed payload",
            ErrCode::FrameTooLarge => "frame exceeds the size budget",
            ErrCode::UnknownFile => "unknown file",
            ErrCode::FileMismatch => "file exists with a different length",
            ErrCode::NoView => "no view set for this compute node",
            ErrCode::PatternRejected => "view pattern rejected by the audit",
            ErrCode::BadRange => "invalid interval",
            ErrCode::SizeMismatch => "payload size does not match the projection",
            ErrCode::ShuttingDown => "daemon is shutting down",
            ErrCode::Internal => "internal storage error",
            ErrCode::ChecksumMismatch => "stored data failed checksum verification",
            ErrCode::DeadlineExceeded => "request deadline expired before execution",
        };
        f.write_str(s)
    }
}

/// A structured protocol error: the code, the PA diagnostic codes when the
/// audit rejected a pattern, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What class of failure this is.
    pub code: ErrCode,
    /// `parafile-audit` codes (e.g. `"PA020"`) for [`ErrCode::PatternRejected`].
    pub pa_codes: Vec<String>,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error with no PA codes.
    #[must_use]
    pub fn new(code: ErrCode, message: impl Into<String>) -> Self {
        Self { code, pa_codes: Vec::new(), message: message.into() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code, self.message)?;
        if !self.pa_codes.is_empty() {
            write!(f, " [{}]", self.pa_codes.join(", "))?;
        }
        Ok(())
    }
}

/// Errors surfaced by the client library and daemon plumbing.
#[derive(Debug)]
pub enum NetError {
    /// The peer answered with a typed protocol error.
    Protocol(ProtocolError),
    /// A socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// A reply frame that could not be decoded.
    BadReply(String),
    /// The peer echoed a request id we did not send.
    IdMismatch {
        /// Id we sent.
        sent: u64,
        /// Id that came back.
        got: u64,
    },
    /// The daemon shed the request before executing it (admission control:
    /// `Busy` means this request was declined, `Overloaded` means the whole
    /// connection was). Nothing was applied either way, so
    /// retrying after the hinted delay is always safe — this variant
    /// surfaces only when the retry budget or deadline forbids the client
    /// from retrying itself.
    Busy {
        /// The daemon's suggested wait before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// A client-side usage error (unknown file id, view not set, …).
    Usage(String),
    /// An invalid partition/FALLS structure on the client side.
    Model(parafile::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Io(e) => write!(f, "I/O error: {e}"),
            NetError::BadReply(m) => write!(f, "undecodable reply: {m}"),
            NetError::IdMismatch { sent, got } => {
                write!(f, "reply id {got} does not match request id {sent}")
            }
            NetError::Busy { retry_after_ms } => {
                write!(f, "daemon shed the request; retry after {retry_after_ms} ms")
            }
            NetError::Usage(m) => write!(f, "{m}"),
            NetError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<parafile::Error> for NetError {
    fn from(e: parafile::Error) -> Self {
        NetError::Model(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for v in 1..=14u16 {
            let c = ErrCode::from_u16(v).expect("code defined");
            assert_eq!(c.as_u16(), v);
        }
        assert_eq!(ErrCode::from_u16(0), None);
        assert_eq!(ErrCode::from_u16(999), None);
    }

    #[test]
    fn errors_render() {
        let mut e = ProtocolError::new(ErrCode::PatternRejected, "2 error diagnostics");
        e.pa_codes = vec!["PA020".into(), "PA021".into()];
        let s = NetError::Protocol(e).to_string();
        assert!(s.contains("PA020"));
        assert!(s.contains("audit"));
    }
}
