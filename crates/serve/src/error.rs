//! The service-level error taxonomy.
//!
//! Every way a request can fail to produce a result is a typed variant
//! here, layered on top of the evaluation taxonomy of
//! [`tecopt::OptError`] (DESIGN.md §9): admission control sheds with
//! [`ServeError::Overloaded`], a dying client surfaces as
//! [`ServeError::Disconnected`], a malformed frame as
//! [`ServeError::DecodeError`], and a draining server as
//! [`ServeError::ShuttingDown`]. Nothing in the service layer panics the
//! process — a panicking evaluation is contained per request and comes
//! back as `Eval(OptError::WorkerPanicked)`.

use core::fmt;
use tecopt::OptError;

/// A service-layer failure for one request (or one connection).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded admission queue was full: the request was shed *before*
    /// any work was spent on it. Back off and retry — this is the typed
    /// load-shedding signal, deliberately distinct from a timeout.
    Overloaded {
        /// Requests queued when the request was rejected.
        depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The server is draining: admission is closed, in-flight requests are
    /// being finished, and no new work is accepted.
    ShuttingDown,
    /// The peer vanished: EOF or a connection reset in the middle of a
    /// frame, or while a request was in flight.
    Disconnected {
        /// What the service was doing when the peer vanished.
        detail: String,
    },
    /// A frame failed to parse. The offending input is described but never
    /// echoed verbatim at full length (frames are capped; see
    /// `wire::MAX_FRAME_LEN`).
    DecodeError(String),
    /// The evaluation itself failed — the full `tecopt` taxonomy rides
    /// along, including the supervision variants (`Cancelled`,
    /// `DeadlineExceeded`, `WorkerPanicked`).
    Eval(OptError),
    /// The fleet router has no shards to route to. A configuration
    /// failure, not a transient one: an empty fleet never heals by
    /// retrying.
    NoShards,
    /// Every failover attempt across the fleet's replicas failed with a
    /// retryable error; the final failure rides along. Whether a *later*
    /// retry may help is the last error's verdict.
    FailoverExhausted {
        /// Routed attempts made (primary + failovers + final backstops).
        attempts: usize,
        /// The failure of the last attempt.
        last: Box<ServeError>,
    },
}

impl ServeError {
    /// Stable machine-readable code used on the wire (`err <key> <code>
    /// <message>`), and by clients to pick a retry policy.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Disconnected { .. } => "disconnected",
            ServeError::DecodeError(_) => "decode",
            ServeError::Eval(OptError::DeadlineExceeded { .. }) => "deadline",
            ServeError::Eval(OptError::Cancelled { .. }) => "cancelled",
            ServeError::Eval(OptError::WorkerPanicked { .. }) => "panic",
            ServeError::Eval(_) => "eval",
            ServeError::NoShards => "no-shards",
            ServeError::FailoverExhausted { .. } => "failover-exhausted",
        }
    }

    /// Reconstructs a service error from its wire code and message — the
    /// inverse a fleet peer applies to an `err <key> <code> <msg>` frame.
    /// Lossy by design: structured payloads (queue depths, probe counts)
    /// do not travel on the wire, so they come back zeroed; an unknown
    /// code (a newer peer) degrades to a non-retryable `Eval` carrier.
    pub fn from_wire_code(code: &str, message: &str) -> ServeError {
        match code {
            "overloaded" => ServeError::Overloaded {
                depth: 0,
                capacity: 0,
            },
            "shutting-down" => ServeError::ShuttingDown,
            "disconnected" => ServeError::Disconnected {
                detail: message.to_string(),
            },
            "decode" => ServeError::DecodeError(message.to_string()),
            "deadline" => ServeError::Eval(OptError::DeadlineExceeded {
                completed: 0,
                remaining: 1,
            }),
            "cancelled" => ServeError::Eval(OptError::Cancelled { completed: 0 }),
            "panic" => ServeError::Eval(OptError::WorkerPanicked {
                index: 0,
                payload: message.to_string(),
            }),
            "no-shards" => ServeError::NoShards,
            _ => ServeError::Eval(OptError::InvalidParameter(format!("[{code}] {message}"))),
        }
    }

    /// `true` for failures a client may safely retry (with its idempotency
    /// key): the request was shed, interrupted, or never decoded — never
    /// completed with a deterministic answer.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Overloaded { .. }
            | ServeError::Disconnected { .. }
            | ServeError::Eval(OptError::Cancelled { .. })
            | ServeError::Eval(OptError::WorkerPanicked { .. }) => true,
            // The fleet already retried; whether one more round may help
            // is the last underlying failure's verdict.
            ServeError::FailoverExhausted { last, .. } => last.is_retryable(),
            _ => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => write!(
                f,
                "overloaded: admission queue full ({depth} of {capacity} slots)"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down; admission closed"),
            ServeError::Disconnected { detail } => write!(f, "peer disconnected: {detail}"),
            ServeError::DecodeError(msg) => write!(f, "cannot decode frame: {msg}"),
            ServeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ServeError::NoShards => write!(f, "fleet router has no shards configured"),
            ServeError::FailoverExhausted { attempts, last } => {
                write!(f, "failover exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl From<tecopt::record::FieldError> for ServeError {
    fn from(e: tecopt::record::FieldError) -> ServeError {
        ServeError::DecodeError(e.to_string())
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Eval(e) => Some(e),
            ServeError::FailoverExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<OptError> for ServeError {
    fn from(e: OptError) -> ServeError {
        ServeError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let samples = [
            ServeError::Overloaded {
                depth: 4,
                capacity: 4,
            },
            ServeError::ShuttingDown,
            ServeError::Disconnected {
                detail: "mid-frame EOF".into(),
            },
            ServeError::DecodeError("bad field".into()),
            ServeError::Eval(OptError::NoDevicesDeployed),
            ServeError::Eval(OptError::DeadlineExceeded {
                completed: 0,
                remaining: 1,
            }),
            ServeError::Eval(OptError::Cancelled { completed: 0 }),
            ServeError::Eval(OptError::WorkerPanicked {
                index: 0,
                payload: "boom".into(),
            }),
            ServeError::NoShards,
            ServeError::FailoverExhausted {
                attempts: 3,
                last: Box::new(ServeError::ShuttingDown),
            },
        ];
        let codes: Vec<&str> = samples.iter().map(ServeError::code).collect();
        assert_eq!(
            codes,
            vec![
                "overloaded",
                "shutting-down",
                "disconnected",
                "decode",
                "eval",
                "deadline",
                "cancelled",
                "panic",
                "no-shards",
                "failover-exhausted"
            ]
        );
    }

    #[test]
    fn wire_codes_reconstruct_matching_variants() {
        // Every code a server can emit maps back to a variant with the
        // same code — retry decisions survive one wire round trip.
        let cases = [
            "overloaded",
            "shutting-down",
            "disconnected",
            "decode",
            "deadline",
            "cancelled",
            "panic",
            "no-shards",
        ];
        for code in cases {
            let e = ServeError::from_wire_code(code, "msg");
            assert_eq!(e.code(), code, "round trip of `{code}`");
        }
        // An unknown (newer-peer) code degrades to a non-retryable eval
        // error instead of being dropped or mis-retried.
        let e = ServeError::from_wire_code("brand-new-code", "details");
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("brand-new-code"));
    }

    #[test]
    fn retryability_matches_the_design() {
        assert!(ServeError::Overloaded {
            depth: 1,
            capacity: 1
        }
        .is_retryable());
        assert!(ServeError::Disconnected { detail: "x".into() }.is_retryable());
        assert!(ServeError::Eval(OptError::Cancelled { completed: 2 }).is_retryable());
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::DecodeError("x".into()).is_retryable());
        assert!(!ServeError::Eval(OptError::NoDevicesDeployed).is_retryable());
        // A deadline overrun is the caller's budget speaking — retrying
        // the identical budget would fail the same way.
        assert!(!ServeError::Eval(OptError::DeadlineExceeded {
            completed: 0,
            remaining: 3
        })
        .is_retryable());
        // An exhausted failover inherits the last error's verdict; an
        // empty fleet never heals by retrying.
        assert!(ServeError::FailoverExhausted {
            attempts: 2,
            last: Box::new(ServeError::Disconnected { detail: "x".into() })
        }
        .is_retryable());
        assert!(!ServeError::FailoverExhausted {
            attempts: 2,
            last: Box::new(ServeError::DecodeError("x".into()))
        }
        .is_retryable());
        assert!(!ServeError::NoShards.is_retryable());
    }

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = ServeError::Overloaded {
            depth: 16,
            capacity: 16,
        };
        assert!(e.to_string().contains("16 of 16"));
        assert!(e.source().is_none());
        let e = ServeError::Eval(OptError::NoDevicesDeployed);
        assert!(e.source().is_some());
    }
}
