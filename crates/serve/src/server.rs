//! The socket front end: line-framed protocol over TCP, using nothing
//! beyond `std::net`.
//!
//! Threading model (all threads come from the sanctioned
//! [`tecopt::parallel::service_workers`] pool — the server never spawns
//! dynamically, so load cannot grow the thread count):
//!
//! - `eval_workers` threads run [`Engine::worker_loop`];
//! - `handlers` threads accept and serve one connection at a time each —
//!   the handler count *is* the concurrent-connection bound, with excess
//!   connections waiting in the OS accept backlog;
//! - one supervisor thread watches the shutdown token and runs the
//!   graceful drain: stop admission, wait up to `drain_timeout` for
//!   in-flight work, then cancel whatever remains (checkpointed sweeps
//!   persist their completed probes first).
//!
//! Client-failure containment: a peer that dies mid-frame yields a typed
//! [`ServeError::Disconnected`]; one that dies while its request is in
//! flight is noticed by a non-blocking poll during the result wait, the
//! ticket is abandoned (cancelling the evaluation if it was the last
//! waiter), and the handler moves on. A hung or slow client can stall
//! only its own handler slot, never an evaluation worker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::no_delay;
use crate::engine::{Engine, Evaluator, MetricsSnapshot};
use crate::error::ServeError;
use crate::util::pause;
use crate::wire::{
    decode_extension, decode_ping, decode_request, encode_pong, encode_response,
    is_extension_frame, split_frame, MAX_FRAME_LEN,
};
use tecopt::CancelToken;

/// A bound, non-blocking TCP listening socket.
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Binds a TCP listener and switches it to non-blocking accepts.
    ///
    /// # Errors
    ///
    /// Any socket-level failure from bind.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(Listener { inner })
    }

    /// The bound address (`None` if the socket cannot report it) — tests
    /// bind port 0 and read the real port back from here.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr().ok()
    }

    fn accept(&self) -> io::Result<TcpStream> {
        Ok(no_delay(self.inner.accept()?.0))
    }
}

/// `true` for I/O errors that mean "the peer is gone", as opposed to a
/// timeout or transient condition.
fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// Sizing and timing knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads; also the concurrent-connection bound.
    pub handlers: usize,
    /// Evaluation worker threads feeding off the admission queue.
    pub eval_workers: usize,
    /// Granularity of shutdown checks and disconnect polling.
    pub poll_interval: Duration,
    /// How long a graceful shutdown waits for in-flight work before
    /// cancelling it.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            handlers: 4,
            eval_workers: 2,
            poll_interval: Duration::from_millis(20),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// What [`Server::run`] reports after the drain completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Engine counters at shutdown.
    pub engine: MetricsSnapshot,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections that ended in a mid-frame or mid-request disconnect.
    pub disconnects: u64,
    /// Frames refused with a decode error.
    pub decode_errors: u64,
    /// `true` when every in-flight request finished inside the drain
    /// window (no cancellation was needed).
    pub drained_cleanly: bool,
}

/// The blocking socket server around an [`Engine`].
pub struct Server<E: Evaluator> {
    engine: Arc<Engine<E>>,
    listener: Listener,
    config: ServerConfig,
    shutdown: CancelToken,
    connections: AtomicU64,
    disconnects: AtomicU64,
    decode_errors: AtomicU64,
    drained_cleanly: AtomicBool,
}

enum FrameRead {
    /// One complete line, terminator stripped.
    Frame(Vec<u8>),
    /// EOF at a frame boundary: normal close.
    CleanClose,
    /// The peer vanished (EOF mid-frame or a reset).
    Disconnected,
    /// The server is shutting down; stop serving this connection.
    Shutdown,
    /// The peer exceeded [`MAX_FRAME_LEN`] without a terminator.
    TooLong(ServeError),
}

impl<E: Evaluator> Server<E> {
    /// Wraps `engine` behind `listener`.
    pub fn new(listener: Listener, engine: Arc<Engine<E>>, config: ServerConfig) -> Server<E> {
        Server {
            engine,
            listener,
            config,
            shutdown: CancelToken::new(),
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            drained_cleanly: AtomicBool::new(true),
        }
    }

    /// The token that triggers graceful shutdown — raise it from any
    /// thread (a signal handler, a test, an operator command connection).
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// The bound TCP address, when listening on TCP.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server until the shutdown token is raised and the drain
    /// completes, then reports. Blocks the calling thread; every internal
    /// thread comes from the fixed `service_workers` pool.
    pub fn run(&self) -> ServerReport {
        let handlers = self.config.handlers.max(1);
        let eval_workers = self.config.eval_workers.max(1);
        let total = handlers + eval_workers + 1;
        tecopt::parallel::service_workers(total, |w| {
            if w < eval_workers {
                self.engine.worker_loop(w);
            } else if w < eval_workers + handlers {
                self.handler_loop();
            } else {
                self.supervise();
            }
        });
        ServerReport {
            engine: self.engine.metrics(),
            connections: self.connections.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            drained_cleanly: self.drained_cleanly.load(Ordering::Relaxed),
        }
    }

    /// The shutdown sequencer: wait for the token, stop admission, drain,
    /// then cancel stragglers. Workers exit once the closed queue is
    /// empty; handlers exit once their connection ends.
    fn supervise(&self) {
        while !self.shutdown.is_cancelled() {
            pause(self.config.poll_interval);
        }
        self.engine.begin_drain();
        if !self.engine.await_drained(self.config.drain_timeout) {
            self.drained_cleanly.store(false, Ordering::Relaxed);
            self.engine.cancel_outstanding();
            // Cancelled evaluations still run to their next supervision
            // gate; bound the wait for their tickets to resolve.
            self.engine.await_drained(self.config.drain_timeout);
        }
    }

    fn handler_loop(&self) {
        loop {
            if self.shutdown.is_cancelled() {
                return;
            }
            match self.listener.accept() {
                Ok(conn) => {
                    self.connections.fetch_add(1, Ordering::Relaxed);
                    self.handle_connection(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pause(self.config.poll_interval);
                }
                Err(_) => pause(self.config.poll_interval),
            }
        }
    }

    /// Serves one connection until clean close, disconnect, decode
    /// overflow, or shutdown. Synchronous: one frame in, one frame out.
    fn handle_connection(&self, mut conn: TcpStream) {
        if conn
            .set_read_timeout(Some(self.config.poll_interval))
            .is_err()
        {
            return;
        }
        let mut buf: Vec<u8> = Vec::new();
        loop {
            match self.read_frame(&mut conn, &mut buf) {
                FrameRead::Frame(line) => {
                    if !self.serve_frame(&mut conn, &mut buf, &line) {
                        return;
                    }
                }
                FrameRead::CleanClose | FrameRead::Shutdown => return,
                FrameRead::Disconnected => {
                    self.disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                FrameRead::TooLong(err) => {
                    self.decode_errors.fetch_add(1, Ordering::Relaxed);
                    // Best-effort error reply on a connection we are
                    // about to drop anyway.
                    // tecopt:allow(swallowed-result) — the connection closes next
                    let _ = conn.write_all(respond(None, &Err(err)).as_bytes());
                    return;
                }
            }
        }
    }

    /// Decodes, submits, awaits, and replies to one frame. Returns
    /// `false` when the connection must close.
    fn serve_frame(&self, conn: &mut TcpStream, buf: &mut Vec<u8>, line: &[u8]) -> bool {
        let text = match std::str::from_utf8(line) {
            Ok(t) => t,
            Err(_) => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                let err = ServeError::DecodeError("frame is not valid UTF-8".into());
                return conn.write_all(respond(None, &Err(err)).as_bytes()).is_ok();
            }
        };
        // Fleet liveness probe: answered before admission, so a draining
        // or saturated server still tells its router it is reachable
        // (drain state travels on the *request* path as `shutting-down`).
        if let Some(nonce) = decode_ping(text) {
            let mut pong = encode_pong(nonce);
            pong.push('\n');
            return conn.write_all(pong.as_bytes()).is_ok();
        }
        // Extension frames (`#`-prefixed) are one-way by contract: never
        // answered, never fatal. Unknown tags from newer peers are
        // ignored; a malformed known tag only bumps the decode counter.
        if is_extension_frame(text) {
            match decode_extension(text) {
                Ok(Some(repl)) => {
                    self.engine
                        .insert_replicated(repl.request_fp, &repl.key, repl.response);
                }
                Ok(None) => {}
                Err(_) => {
                    self.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            return true;
        }
        let frame = match decode_request(text) {
            Ok(f) => f,
            Err(e) => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                return conn.write_all(respond(None, &Err(e)).as_bytes()).is_ok();
            }
        };
        let key = frame.key.clone();
        let result = match self.engine.submit(frame) {
            Err(e) => Err(e),
            Ok(ticket) => {
                let waited =
                    ticket.wait_polling(self.config.poll_interval, || poll_disconnect(conn, buf));
                if let Err(ServeError::Disconnected { .. }) = &waited {
                    // The client died while its request was in flight:
                    // abandon the ticket (cancelling the evaluation if no
                    // other retry still wants it) and free this slot.
                    self.engine.abandon(&ticket, key.as_deref());
                    self.disconnects.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                waited
            }
        };
        conn.write_all(respond(key.as_deref(), &result).as_bytes())
            .is_ok()
    }

    /// Accumulates bytes until `buf` holds a full line, polling the
    /// shutdown token at every read-timeout tick.
    fn read_frame(&self, conn: &mut TcpStream, buf: &mut Vec<u8>) -> FrameRead {
        let mut chunk = [0u8; 4096];
        loop {
            match split_frame(buf) {
                Ok(Some(line)) => return FrameRead::Frame(line),
                Ok(None) => {}
                Err(e) => return FrameRead::TooLong(e),
            }
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return if buf.is_empty() {
                        FrameRead::CleanClose
                    } else {
                        FrameRead::Disconnected
                    };
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutdown.is_cancelled() {
                        return FrameRead::Shutdown;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(e.kind()) => {
                    return FrameRead::Disconnected;
                }
                Err(_) => return FrameRead::Disconnected,
            }
        }
    }
}

/// Encodes a reply and appends the frame terminator.
fn respond(key: Option<&str>, result: &Result<crate::wire::Response, ServeError>) -> String {
    let mut line = encode_response(key, result);
    line.push('\n');
    line
}

/// One non-blocking probe of the connection while a request is in
/// flight: detects a dead peer, and banks any pipelined bytes the client
/// sent early into `buf` for the next frame read.
///
/// # Errors
///
/// [`ServeError::Disconnected`] when the peer is gone.
fn poll_disconnect(conn: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(), ServeError> {
    if conn.set_nonblocking(true).is_err() {
        return Err(ServeError::Disconnected {
            detail: "cannot poll connection".into(),
        });
    }
    let mut chunk = [0u8; 1024];
    let verdict = loop {
        match conn.read(&mut chunk) {
            Ok(0) => {
                break Err(ServeError::Disconnected {
                    detail: "peer closed while request in flight".into(),
                })
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_FRAME_LEN {
                    // Stop banking a runaway pipeline; the frame reader
                    // will refuse it as TooLong after the response.
                    break Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_disconnect(e.kind()) => {
                break Err(ServeError::Disconnected {
                    detail: "connection reset while request in flight".into(),
                })
            }
            Err(_) => {
                break Err(ServeError::Disconnected {
                    detail: "poll error while request in flight".into(),
                })
            }
        }
    };
    // Back to blocking-with-timeout for the frame reader. If restoring
    // blocking mode fails the next read errors immediately and the
    // connection is torn down there.
    // tecopt:allow(swallowed-result) — the next read reports the failure
    let _ = conn.set_nonblocking(false);
    verdict
}
