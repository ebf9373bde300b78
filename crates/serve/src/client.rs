//! A retrying client for the line-framed protocol.
//!
//! Retries are safe by construction: every request is stamped with an
//! idempotency key (caller-provided or generated), so a retry after an
//! `overloaded` shed, a dropped connection, or a contained worker panic
//! either joins the still-running evaluation or replays the cached
//! result — the server never doubles the work. Backoff is exponential
//! with deterministic-per-client jitter so a thundering herd of retries
//! decorrelates.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::util::{backoff_duration, pause};
use crate::wire::{decode_response, encode_request, split_frame, Request, RequestFrame, Response};

/// Why a client call failed for good.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// A socket-level failure (connect, read, or write).
    Io(String),
    /// The server's reply did not parse.
    Decode(String),
    /// The server answered with a typed, non-retryable error.
    Server {
        /// The stable wire code (`ServeError::code`).
        code: String,
        /// The human-readable message.
        message: String,
    },
    /// Every attempt failed with a retryable error; the last one rides
    /// along.
    RetriesExhausted {
        /// Attempts made.
        attempts: usize,
        /// The final failure.
        last: Box<ClientError>,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "i/o failure: {msg}"),
            ClientError::Decode(msg) => write!(f, "cannot decode server reply: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry and timeout policy of a [`Client`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Most attempts per request (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// How long to wait for a response before declaring the connection
    /// dead. A request's own deadline extends this wait when longer.
    pub response_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            response_timeout: Duration::from_secs(30),
        }
    }
}

/// Turns Nagle's algorithm off on a new connection: every frame is one
/// small write that waits for its reply. The client, the fleet's
/// `RemoteShard` and the server's accepted connections all pass through
/// here.
pub(crate) fn no_delay(s: TcpStream) -> TcpStream {
    // tecopt:allow(swallowed-result) — Nagle on costs latency, not answers
    let _ = s.set_nodelay(true);
    s
}

/// A synchronous client with reconnection, idempotent retries, and
/// jittered exponential backoff.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    jitter: u64,
}

/// Auto-generated idempotency keys must be unique across every client in
/// the process, not merely within one instance: two clients both naming
/// their first request `c<pid>-0` would silently deduplicate onto one
/// evaluation server-side.
static NEXT_AUTO_KEY: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Client {
    /// A client for a TCP endpoint, e.g. `"127.0.0.1:7878"`.
    pub fn tcp(addr: impl Into<String>) -> Client {
        let pid = u64::from(std::process::id());
        Client {
            addr: addr.into(),
            policy: RetryPolicy::default(),
            conn: None,
            buf: Vec::new(),
            // Seed per process so concurrent clients' backoff schedules
            // decorrelate; determinism per client keeps tests stable.
            jitter: pid.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Client {
        self.policy = policy;
        self
    }

    /// Sends `request` and waits for its result, retrying retryable
    /// failures under one idempotency key. `deadline_ms` rides to the
    /// server as the request's evaluation budget.
    ///
    /// # Errors
    ///
    /// - [`ClientError::Server`] for a typed, non-retryable server error.
    /// - [`ClientError::RetriesExhausted`] once every attempt failed.
    /// - [`ClientError::Decode`] for an unparseable reply.
    pub fn request(
        &mut self,
        request: Request,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let n = NEXT_AUTO_KEY.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let key = format!("c{}-{}", std::process::id(), n);
        self.request_keyed(&key, request, deadline_ms)
    }

    /// Like [`Client::request`] but under a caller-chosen idempotency key
    /// — e.g. a stable job name that survives process restarts, so a
    /// rerun resumes the server-side checkpoint instead of starting over.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_keyed(
        &mut self,
        key: &str,
        request: Request,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let frame = RequestFrame {
            key: Some(key.to_string()),
            deadline_ms,
            request,
        };
        let mut line = encode_request(&frame);
        line.push('\n');
        let attempts = self.policy.max_attempts.max(1);
        let mut last = ClientError::Io("no attempt made".into());
        for attempt in 0..attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            match self.attempt(&line, deadline_ms) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    let retryable = match &e {
                        ClientError::Io(_) => true,
                        ClientError::Server { code, .. } => {
                            matches!(
                                code.as_str(),
                                "overloaded" | "disconnected" | "cancelled" | "panic"
                            )
                        }
                        _ => return Err(e),
                    };
                    if !retryable {
                        return Err(e);
                    }
                    last = e;
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        })
    }

    /// One wire round trip. Any I/O failure poisons the cached
    /// connection so the next attempt reconnects.
    fn attempt(&mut self, line: &str, deadline_ms: Option<u64>) -> Result<Response, ClientError> {
        let outcome = self.round_trip(line, deadline_ms);
        match outcome {
            Err(ClientError::Io(_)) | Err(ClientError::Decode(_)) => {
                self.conn = None;
                self.buf.clear();
            }
            _ => {}
        }
        outcome
    }

    fn round_trip(
        &mut self,
        line: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.ensure_connected()?;
        // The server may legitimately take the whole request deadline
        // before answering; give it that long plus slack.
        let wait = deadline_ms
            .map(|ms| Duration::from_millis(ms) + Duration::from_secs(5))
            .map_or(self.policy.response_timeout, |d| {
                d.max(self.policy.response_timeout)
            });
        let io_err = |e: io::Error| ClientError::Io(e.to_string());
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => return Err(ClientError::Io("not connected".into())),
        };
        conn.set_read_timeout(Some(wait)).map_err(io_err)?;
        conn.write_all(line.as_bytes()).map_err(io_err)?;
        let reply = read_line(conn, &mut self.buf).map_err(io_err)?;
        let text = std::str::from_utf8(&reply)
            .map_err(|_| ClientError::Decode("reply is not valid UTF-8".into()))?;
        let frame = decode_response(text).map_err(|e| ClientError::Decode(e.to_string()))?;
        match frame.result {
            Ok(response) => Ok(response),
            Err((code, message)) => Err(ClientError::Server { code, message }),
        }
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr).map_err(|e| ClientError::Io(e.to_string()))?;
        self.buf.clear();
        self.conn = Some(no_delay(stream));
        Ok(())
    }

    /// Capped exponential backoff with ±50% deterministic jitter
    /// (`util::backoff_duration`, shared with the router's failover).
    fn backoff(&mut self, attempt: usize) {
        pause(backoff_duration(
            self.policy.base_backoff,
            self.policy.max_backoff,
            attempt,
            &mut self.jitter,
        ));
    }
}

/// Reads one `\n`-terminated line (terminator stripped), buffering any
/// pipelined overflow bytes in `buf` for the next call. Shared with the
/// fleet's `RemoteShard`.
pub(crate) fn read_line(conn: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Vec<u8>> {
    let mut chunk = [0u8; 4096];
    loop {
        let frame = split_frame(buf).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "reply exceeds the frame length cap",
            )
        })?;
        if let Some(line) = frame {
            return Ok(line);
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_by_the_cap() {
        let mut c = Client::tcp("127.0.0.1:1").with_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            response_timeout: Duration::from_millis(100),
        });
        // Exercise the arithmetic at large attempt numbers: must neither
        // overflow nor stall (cap = 4 ms → pause ≤ 4 ms per call).
        for attempt in [1, 2, 3, 16, 63, 64, 1000] {
            c.backoff(attempt);
        }
    }

    #[test]
    fn connecting_to_a_dead_endpoint_is_a_typed_io_error() {
        // Port 1 on localhost: refused immediately, no server needed.
        let mut c = Client::tcp("127.0.0.1:1").with_policy(RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            response_timeout: Duration::from_millis(100),
        });
        match c.request(
            Request::Steady {
                current: tecopt_units::Amperes(1.0),
            },
            None,
        ) {
            Err(ClientError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 2);
                assert!(matches!(*last, ClientError::Io(_)));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_refusing_listener_exhausts_retries_with_bounded_jittered_backoff() {
        // Regression for the backoff overflow audit: bind a listener to
        // grab a real free port, drop it so every connect is refused, and
        // check the client walks all attempts with *bounded* pauses — a
        // wrapped backoff would either stall for minutes or spin with no
        // pause at all.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        let addr = listener.local_addr().expect("probe addr").to_string();
        drop(listener);
        let mut c = Client::tcp(addr).with_policy(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(16),
            response_timeout: Duration::from_millis(200),
        });
        let t0 = std::time::Instant::now();
        match c.request(
            Request::Steady {
                current: tecopt_units::Amperes(1.0),
            },
            None,
        ) {
            Err(ClientError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 4);
                assert!(matches!(*last, ClientError::Io(_)));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // 3 retry pauses capped at 16 ms each plus connect overhead: far
        // under this bound unless backoff arithmetic went wrong.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn generated_keys_are_unique_across_clients() {
        // Two clients in the same process must never collide on their
        // auto keys, or the server would deduplicate unrelated requests.
        let k0 = NEXT_AUTO_KEY.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut a = Client::tcp("127.0.0.1:1");
        let mut b = Client::tcp("127.0.0.1:1");
        let req = || Request::Steady {
            current: tecopt_units::Amperes(1.0),
        };
        let _ = a.request(req(), None);
        let _ = b.request(req(), None);
        let k3 = NEXT_AUTO_KEY.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert!(
            k3 >= k0 + 3,
            "counter must advance per request: {k0} -> {k3}"
        );
    }
}
