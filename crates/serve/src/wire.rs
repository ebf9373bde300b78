//! The line-framed wire protocol and its codec.
//!
//! One frame is one `\n`-terminated UTF-8 line of space-separated fields.
//! Every message is a [`field_table!`](tecopt::field_table) over the one
//! field vocabulary of `tecopt::record`, which derives both directions,
//! so encoder and decoder cannot drift apart. Floats travel as bit-exact
//! hex, so responses are reproducible across the wire.
//!
//! ```text
//! client:  req <key|-> <deadline_ms|-> steady <current>
//!          req <key|-> <deadline_ms|-> runaway <lambda_tol> <f1> [<f2> ...]
//!          req <key|-> <deadline_ms|-> designer <r:c[,r:c...][;r:c...]>
//!          req <key|-> <deadline_ms|-> transient <dt> <limit> <envelope> <controller> <seg;...>
//!          req <key|-> <deadline_ms|-> explore <limit> <s,...> <s,...> <g|t:r.c,...[;...]>
//! server:  ok  <key|-> <kind> <fields...>
//!          err <key|-> <code> <message...>
//! fleet:   ping <nonce>                 -> pong <nonce>   (health checks)
//!          #repl <req_fp> <body_fp> <key> ok - <body...>  (one-way)
//! ```
//!
//! `#`-prefixed frames are **one-way extension frames**: a peer never
//! replies to them, and silently ignores any it does not understand —
//! an old shard keeps its connection alive when a newer peer sends tags
//! it has never heard of (forward compatibility for the fleet tier).
//!
//! Robustness properties enforced here:
//!
//! - a frame is at most [`MAX_FRAME_LEN`] bytes, terminator included:
//!   [`split_frame`] and every decoder refuse a longer one;
//! - every list has a cap, checked before each item is read; the response
//!   caps derive from the field widths, so the worst-case response fits
//!   one frame even inside `#repl` (const assertions below);
//! - every key, in any frame, passes [`valid_key`];
//! - every malformed input decodes to a typed [`ServeError::DecodeError`]
//!   naming the field that failed, never a panic — including torn frames,
//!   non-UTF-8 bytes, and NaN smuggled into a sweep plan.

use crate::error::ServeError;
pub use tecopt::record::valid_key;
use tecopt::record::{
    fields, fingerprint, read, Checked, Count, Field, FieldError, FieldReader, FieldWriter, Flag,
    Group, Hex, Id, Key, List, Opt, Taken, COUNT_WIDTH, HEX_WIDTH, KEY_WIDTH,
};
use tecopt::runaway::SweepPoint;
use tecopt::transient::ControllerSpec;
use tecopt::{field_table, CandidateScore, EnvelopeSettings, TileIndex};
use tecopt_explore::{ParetoPoint, Placement};
use tecopt_units::{Amperes, Celsius, Watts};

/// Hard cap on one frame, bytes, terminator included. Large enough for a
/// designer sweep over a 32×32 grid; small enough that a hostile peer
/// cannot balloon server memory.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Most list entries of `width` bytes one response frame of `kind` with
/// `head` bytes of fixed fields holds in the worst case: wrapped in
/// `#repl` (tag, two digests, a maximal key, `ok -`) and terminated.
const fn capacity(kind: &str, head: usize, width: usize) -> usize {
    let repl = "#repl ".len() + 2 * (HEX_WIDTH + 1) + KEY_WIDTH + " ok - ".len();
    (MAX_FRAME_LEN - repl - kind.len() - head - 1) / (1 + width)
}

/// Encoded widths of the list entries responses carry.
const SWEEP_POINT_WIDTH: usize = 3 * HEX_WIDTH + 2;
const SCORE_WIDTH: usize = 2 * COUNT_WIDTH + 3 * HEX_WIDTH + 4;
const PARETO_POINT_WIDTH: usize = 4 * HEX_WIDTH + 3;
const RUNAWAY_HEAD: usize = 1 + HEX_WIDTH;
const EXPLORE_HEAD: usize = 5 * (1 + COUNT_WIDTH);

/// Most sample fractions one runaway-sweep request may carry: as many
/// sweep points as the worst-case response frame holds.
pub const MAX_SWEEP_FRACTIONS: usize = capacity("runaway", RUNAWAY_HEAD, SWEEP_POINT_WIDTH);

/// Most candidate deployments one designer-sweep request may carry: as
/// many scores as the worst-case response frame holds.
pub const MAX_CANDIDATES: usize = capacity("designer", 0, SCORE_WIDTH);

/// Most tiles one candidate deployment may carry.
pub const MAX_TILES_PER_CANDIDATE: usize = 4096;

/// Most workload segments one transient request may carry.
pub const MAX_SCHEDULE_SEGMENTS: usize = 256;

/// Most tile powers one workload segment may carry.
pub const MAX_TILES_PER_SEGMENT: usize = 4096;

/// Most timesteps one transient request may imply (`Σ ceil(duration/dt)`),
/// checked at decode so an admitted frame can never demand unbounded work.
pub const MAX_TRANSIENT_STEPS: usize = 200_000;

/// Most values one explore scale axis (thickness / contact) may carry.
pub const MAX_EXPLORE_SCALES: usize = 64;

/// Most placements one explore request may carry.
pub const MAX_EXPLORE_PLACEMENTS: usize = 256;

/// Most candidates one explore request may imply (the product of its
/// axes), checked at decode so a frame never demands unbounded work.
pub const MAX_EXPLORE_CANDIDATES: usize = 100_000;

/// Most Pareto points one explore response may carry. Larger fronts are
/// truncated at encode time in canonical (deterministic) order, with the
/// untruncated size reported in the `front_total` field.
pub const MAX_EXPLORE_FRONT: usize = 896;

// The worst-case response of every list-carrying kind fits one frame, so
// `encode_response` never produces a frame that a reader refuses.
const _: () = assert!(MAX_SWEEP_FRACTIONS <= capacity("runaway", RUNAWAY_HEAD, SWEEP_POINT_WIDTH));
const _: () = assert!(MAX_CANDIDATES <= capacity("designer", 0, SCORE_WIDTH));
const _: () = assert!(MAX_EXPLORE_FRONT <= capacity("explore", EXPLORE_HEAD, PARETO_POINT_WIDTH));

/// One evaluation request, as admitted by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single steady-state solve `(G − i·D)·θ = p(i)` at one current.
    Steady {
        /// The supply current to solve at.
        current: Amperes,
    },
    /// A λ_m-relative runaway sweep (the paper's Sec. V.C.1 demonstration).
    Runaway {
        /// Relative tolerance of the λ_m bisection.
        lambda_tolerance: f64,
        /// Sample currents as fractions of λ_m (may exceed 1).
        fractions: Vec<f64>,
    },
    /// A designer sweep scoring candidate deployments, each with its own
    /// optimized current (checkpointable; see DESIGN.md §12).
    Designer {
        /// Candidate deployments, each a set of tiles.
        candidates: Vec<Vec<TileIndex>>,
    },
    /// A safety-enveloped transient trace playback (checkpointable; see
    /// DESIGN.md §14).
    Transient {
        /// Backward-Euler timestep, seconds.
        dt: f64,
        /// Peak-temperature threshold for the violation-fraction summary.
        limit: Celsius,
        /// Safety-envelope tuning applied around the controller.
        envelope: EnvelopeSettings,
        /// The current-control policy to play the trace under.
        controller: ControllerSpec,
        /// Piecewise-constant workload: `(duration_seconds, tile_powers)`.
        schedule: Vec<(f64, Vec<Watts>)>,
    },
    /// A crash-safe design-space exploration (ledger-checkpointable; see
    /// DESIGN.md §18). The grid is the cross product of the three axes.
    Explore {
        /// The feasibility target every candidate is judged against.
        theta_limit: Celsius,
        /// Film thickness scales relative to the base device.
        thickness_scales: Vec<f64>,
        /// Contact conductance scales relative to the base device.
        contact_scales: Vec<f64>,
        /// Device placements (fixed masks and/or greedy deployment).
        placements: Vec<Placement>,
    },
}

/// The successful result of one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of [`Request::Steady`].
    Steady {
        /// Peak silicon temperature at the requested current.
        peak: Celsius,
        /// Electrical power drawn by the TECs.
        tec_power: Watts,
    },
    /// Result of [`Request::Runaway`].
    Runaway {
        /// The computed runaway limit λ_m.
        lambda: Amperes,
        /// Samples in ascending current order.
        points: Vec<SweepPoint>,
    },
    /// Result of [`Request::Designer`].
    Designer {
        /// One score per candidate, input order preserved.
        scores: Vec<CandidateScore>,
    },
    /// Result of [`Request::Transient`]: the trace summary.
    Transient {
        /// Timesteps simulated.
        steps: usize,
        /// Hottest recorded peak temperature.
        peak: Celsius,
        /// Fraction of samples whose peak exceeded the request's limit.
        violation_fraction: f64,
        /// Electrical energy the TEC array consumed, joules.
        tec_energy_joules: f64,
        /// Envelope violations latched over the run.
        envelope_events: usize,
        /// Whether the envelope's trip latch ever engaged.
        tripped: bool,
        /// Implicit solves issued (all with `i < λ_m`, by the guard).
        solves: u64,
    },
    /// Result of [`Request::Explore`]: ledger-total counts and the
    /// deterministic Pareto front, bit-identical across resume cycles and
    /// shard handoffs.
    Explore {
        /// Candidates fully evaluated (feasible or not).
        evaluated: usize,
        /// Candidates rejected by the analytical first cut.
        pruned: usize,
        /// Evaluated candidates that met the temperature limit.
        feasible: usize,
        /// Candidates blacklisted with typed quarantine records.
        quarantined: usize,
        /// Size of the full Pareto front before any wire truncation.
        /// `front_total > front.len()` tells the client the front was
        /// capped at [`MAX_EXPLORE_FRONT`] points.
        front_total: usize,
        /// The Pareto front over (peak temperature, TEC power), in
        /// canonical order, truncated to [`MAX_EXPLORE_FRONT`] points.
        front: Vec<ParetoPoint>,
    },
}

/// One parsed client frame: idempotency key, deadline budget, request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen idempotency key (`None` encoded as `-`). Retries
    /// reusing the key deduplicate against the server's result cache.
    pub key: Option<String>,
    /// Deadline budget in milliseconds from admission (`None` = server
    /// default).
    pub deadline_ms: Option<u64>,
    /// The request body.
    pub request: Request,
}

/// The field type of a value only the wire writes (`Group` is core's own).
struct Wire(char);

/// A finite hex `f64`.
const FINITE: Checked = Checked(f64::is_finite);

/// A finite, positive hex `f64`.
const POSITIVE: Checked = Checked(|v| v.is_finite() && v > 0.0);

/// A list of `min..=max` `item`s joined by `sep`.
const fn list<F>(sep: char, min: usize, max: usize, item: F) -> List<F> {
    List {
        sep,
        len: min..=max,
        item,
    }
}

field_table!(Wire => RequestFrame {
    key: Opt(Key),
    deadline_ms: Opt(Count),
    request: Wire(' '),
});

field_table!(Wire => Request {
    "steady" => Steady { current: Hex },
    "runaway" => Runaway {
        lambda_tolerance: Hex,
        fractions: list(' ', 1, MAX_SWEEP_FRACTIONS, Hex),
    },
    "designer" => Designer {
        candidates: list(';', 1, MAX_CANDIDATES, list(',', 0, MAX_TILES_PER_CANDIDATE, Wire(':'))),
    },
    "transient" => Transient {
        dt: POSITIVE,
        limit: FINITE,
        envelope: Wire(':'),
        controller: Group(':'),
        schedule: list(';', 1, MAX_SCHEDULE_SEGMENTS, Wire(':')),
    },
    "explore" => Explore {
        theta_limit: FINITE,
        thickness_scales: list(',', 1, MAX_EXPLORE_SCALES, POSITIVE),
        contact_scales: list(',', 1, MAX_EXPLORE_SCALES, POSITIVE),
        placements: list(';', 1, MAX_EXPLORE_PLACEMENTS, Wire(':')),
    },
});

field_table!(Wire => Response {
    "steady" => Steady { peak: Hex, tec_power: Hex },
    "runaway" => Runaway {
        lambda: Hex,
        points: list(' ', 0, MAX_SWEEP_FRACTIONS, Group(':')),
    },
    "designer" => Designer { scores: list(' ', 0, MAX_CANDIDATES, Group(':')) },
    "transient" => Transient {
        steps: Count,
        peak: Hex,
        violation_fraction: Hex,
        tec_energy_joules: Hex,
        envelope_events: Count,
        tripped: Flag,
        solves: Count,
    },
    "explore" => Explore {
        evaluated: Count,
        pruned: Count,
        feasible: Count,
        quarantined: Count,
        front_total: Count,
        front: Front,
    },
});

// Semantic validation (margin range, fallback bound, and the controller,
// whose table `tecopt::transient` shares with its digest) happens against
// λ_m at evaluation time; the decode layer only rejects malformed fields.
field_table!(Wire => EnvelopeSettings {
    margin: Hex,
    trip_after: Count,
    fallback: Hex,
    recovery_steps: Count,
});

field_table!(Wire => TileIndex { row: Count, col: Count });

/// `g` for greedy, `t:r.c,r.c` for a fixed mask (`t:` = empty mask).
impl Field<Placement> for Wire {
    fn put(&self, w: &mut FieldWriter<'_>, p: &Placement) {
        match p {
            Placement::Greedy => w.text("g"),
            Placement::Tiles(tiles) => w.group(self.0, |w| {
                w.text("t")
                    .put(&list(',', 0, MAX_TILES_PER_CANDIDATE, Wire('.')), tiles);
            }),
        };
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<Placement> {
        r.group(name, self.0, |r| match r.text(name)? {
            "g" => Ok(Placement::Greedy),
            "t" => r
                .take(&list(',', 0, MAX_TILES_PER_CANDIDATE, Wire('.')), "tiles")
                .map(Placement::Tiles),
            _ => Err(FieldError::Malformed(name)),
        })
    }
}

/// One workload segment, `duration:p0:p1...`: a positive duration and
/// finite powers, so a NaN smuggled into a trace never reaches the engine.
impl Field<(f64, Vec<Watts>)> for Wire {
    fn put(&self, w: &mut FieldWriter<'_>, (duration, powers): &(f64, Vec<Watts>)) {
        w.group(self.0, |w| {
            w.put(&Hex, duration)
                .put(&list(self.0, 1, MAX_TILES_PER_SEGMENT, FINITE), powers);
        });
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<(f64, Vec<Watts>)> {
        r.group(name, self.0, |r| {
            let duration = r.take(&POSITIVE, "duration")?;
            let powers = list(self.0, 1, MAX_TILES_PER_SEGMENT, FINITE);
            Ok((duration, r.take(&powers, "tile powers")?))
        })
    }
}

/// The constructor is the NaN gate: a non-finite coordinate smuggled over
/// the wire is a decode error, never a poisoned front.
impl Field<ParetoPoint> for Wire {
    fn put(&self, w: &mut FieldWriter<'_>, p: &ParetoPoint) {
        w.group(self.0, |w| {
            w.put(&Id, &p.id())
                .put(&Hex, &p.current())
                .put(&Hex, &p.peak())
                .put(&Hex, &p.tec_power());
        });
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<ParetoPoint> {
        r.group(name, self.0, |r| {
            let id = r.take(&Id, "id")?;
            let (current, peak) = (r.take(&Hex, "current")?, r.take(&Hex, "peak")?);
            ParetoPoint::new(id, current, peak, r.take(&Hex, "power")?)
                .ok_or(FieldError::Malformed(name))
        })
    }
}

/// The Pareto front: truncated at encode time to the cap the readers
/// enforce, in canonical (deterministic) order.
struct Front;

impl Field<Vec<ParetoPoint>> for Front {
    fn put(&self, w: &mut FieldWriter<'_>, front: &Vec<ParetoPoint>) {
        for p in front.iter().take(MAX_EXPLORE_FRONT) {
            w.put(&Wire(':'), p);
        }
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<Vec<ParetoPoint>> {
        r.take(&list(' ', 0, MAX_EXPLORE_FRONT, Wire(':')), name)
    }
}

/// Decoded-request checks no single field can make: the total timestep
/// count of a transient schedule and the size of an explore grid.
fn check_request(request: &Request) -> Taken<()> {
    match request {
        Request::Transient { dt, schedule, .. } => {
            // Durations and dt are finite and positive, so the total is
            // never NaN; an overflow to +inf still trips the cap.
            let steps: f64 = schedule.iter().map(|(d, _)| (d / dt).ceil()).sum();
            if steps > MAX_TRANSIENT_STEPS as f64 {
                return Err(FieldError::TooMany("schedule steps", MAX_TRANSIENT_STEPS));
            }
        }
        Request::Explore {
            thickness_scales,
            contact_scales,
            placements,
            ..
        } => {
            let grid = thickness_scales
                .len()
                .saturating_mul(contact_scales.len())
                .saturating_mul(placements.len());
            if grid > MAX_EXPLORE_CANDIDATES {
                return Err(FieldError::TooMany("explore grid", MAX_EXPLORE_CANDIDATES));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Takes the first frame off the front of a receive buffer: the bytes
/// before the first `\n`, with one trailing `\r` stripped; `Ok(None)`
/// while no complete frame is buffered, and a [`ServeError::DecodeError`]
/// when the first [`MAX_FRAME_LEN`] bytes hold no terminator.
pub fn split_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ServeError> {
    match buf.iter().take(MAX_FRAME_LEN).position(|&b| b == b'\n') {
        Some(end) => {
            let mut line: Vec<u8> = buf.drain(..=end).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            Ok(Some(line))
        }
        None if buf.len() >= MAX_FRAME_LEN => Err(ServeError::DecodeError(format!(
            "frame exceeds {MAX_FRAME_LEN} bytes without a terminator"
        ))),
        None => Ok(None),
    }
}

/// Reads a whole frame with `take`: the one header reader every decoder
/// shares, so all of them refuse the same oversized lines.
fn read_frame<'a, T>(
    line: &'a str,
    take: impl FnOnce(&mut FieldReader<'a>) -> Taken<T>,
) -> Taken<T> {
    if line.len() >= MAX_FRAME_LEN {
        return Err(FieldError::TooMany("frame", MAX_FRAME_LEN - 1));
    }
    read(line, ' ', "frame", take)
}

/// Encodes a request frame as one line (no terminator).
pub fn encode_request(frame: &RequestFrame) -> String {
    fields(' ', |w| {
        w.text("req").put(&Wire(' '), frame);
    })
}

/// Decodes what [`encode_request`] produced, or a [`ServeError::DecodeError`]
/// naming the first malformed field.
pub fn decode_request(line: &str) -> Result<RequestFrame, ServeError> {
    let frame: RequestFrame = read_frame(line, |r| {
        r.tag("req")?;
        r.take(&Wire(' '), "request")
    })?;
    check_request(&frame.request)?;
    Ok(frame)
}

/// The canonical fingerprint of a request: the FNV-1a digest of its bare
/// wire encoding (no key, no deadline). Every parameter contributes its
/// exact bits, so two requests share a fingerprint iff they are the same
/// evaluation — the identity that binds a replicated cache entry to the
/// one request it may ever answer.
pub fn request_fingerprint(request: &Request) -> u64 {
    fingerprint(&fields(' ', |w| {
        // The header of a frame with no key and no deadline.
        w.text("req").text("-").text("-").put(&Wire(' '), request);
    }))
}

/// Encodes a server reply to `key` as one line (no terminator).
pub fn encode_response(key: Option<&str>, result: &Result<Response, ServeError>) -> String {
    fields(' ', |w| match result {
        Ok(response) => {
            w.text("ok")
                .text(key.unwrap_or("-"))
                .put(&Wire(' '), response);
        }
        Err(e) => {
            // The message is free text but must stay a single line.
            let message = e.to_string().replace(['\n', '\r'], " ");
            w.text("err")
                .text(key.unwrap_or("-"))
                .text(e.code())
                .text(&message);
        }
    })
}

/// One decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request's idempotency key.
    pub key: Option<String>,
    /// The response, or the typed error code + human message.
    pub result: Result<Response, (String, String)>,
}

/// Decodes what [`encode_response`] produced, or a [`ServeError::DecodeError`]
/// naming the first malformed field.
pub fn decode_response(line: &str) -> Result<ResponseFrame, ServeError> {
    Ok(read_frame(line, |r| {
        let status = r.text("status")?;
        let key = r.take(&Opt(Key), "key")?;
        let result = match status {
            "ok" => Ok(r.take(&Wire(' '), "response")?),
            "err" => Err((r.text("error code")?.to_string(), r.rest().to_string())),
            _ => return Err(FieldError::Malformed("status")),
        };
        if let Ok(Response::Explore {
            front_total, front, ..
        }) = &result
        {
            if *front_total < front.len() {
                return Err(FieldError::Malformed("front_total"));
            }
        }
        Ok(ResponseFrame { key, result })
    })?)
}

fn nonce_frame(tag: &str, nonce: u64) -> String {
    fields(' ', |w| {
        w.text(tag).put(&Id, &nonce);
    })
}

/// Encodes a health-check ping (no terminator). Pings are answered ahead
/// of admission control, so an overloaded shard still counts as alive.
pub fn encode_ping(nonce: u64) -> String {
    nonce_frame("ping", nonce)
}

/// Encodes the reply to [`encode_ping`] (no terminator).
pub fn encode_pong(nonce: u64) -> String {
    nonce_frame("pong", nonce)
}

/// The nonce of a ping frame, or `None` when `line` is not a ping.
pub fn decode_ping(line: &str) -> Option<u64> {
    read_frame(line, |r| r.tag("ping").and_then(|()| r.take(&Id, "nonce"))).ok()
}

/// The nonce of a pong frame, or `None` when `line` is not a pong.
pub fn decode_pong(line: &str) -> Option<u64> {
    read_frame(line, |r| r.tag("pong").and_then(|()| r.take(&Id, "nonce"))).ok()
}

/// `true` when `line` is a one-way extension frame: the receiver must
/// never reply to it, and must silently ignore any tag it does not know.
pub fn is_extension_frame(line: &str) -> bool {
    line.starts_with('#')
}

/// One replicated result-cache entry on its way to a peer shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplFrame {
    /// [`request_fingerprint`] of the request this entry answers. The
    /// receiver serves the entry only to a request whose own canonical
    /// fingerprint matches — a poisoned or stale replica can never answer
    /// the wrong evaluation.
    pub request_fp: u64,
    /// The idempotency key the entry is filed under.
    pub key: String,
    /// The successful result being replicated (only `Ok` outcomes are).
    pub response: Response,
}

/// Encodes a replication frame (no terminator):
/// `#repl <req_fp> <body_fp> <key> ok - <body...>` where `body_fp`
/// digests the embedded response line, so truncation or corruption in
/// flight is detected before anything reaches a cache.
pub fn encode_repl(frame: &ReplFrame) -> String {
    let body = fields(' ', |w| {
        w.text("ok").text("-").put(&Wire(' '), &frame.response);
    });
    fields(' ', |w| {
        w.text("#repl")
            .put(&Id, &frame.request_fp)
            .put(&Id, &fingerprint(&body))
            .text(&frame.key)
            .text(&body);
    })
}

/// Decodes a `#`-prefixed extension frame: `Ok(None)` for an unknown tag,
/// which the caller ignores, keeping the connection (forward
/// compatibility), and a [`ServeError::DecodeError`] for a `#repl` frame
/// that is malformed, oversized, or fails its body-fingerprint check,
/// which the caller drops (replication is best-effort) but may count.
pub fn decode_extension(line: &str) -> Result<Option<ReplFrame>, ServeError> {
    let repl = read_frame(line, |r| {
        if r.text("extension tag")? != "#repl" {
            r.rest();
            return Ok(None);
        }
        let fps = (r.take(&Id, "request fp")?, r.take(&Id, "body fp")?);
        Ok(Some((fps, r.take(&Key, "key")?, r.rest())))
    })?;
    let Some(((request_fp, body_fp), key, body)) = repl else {
        return Ok(None);
    };
    let bad = |why: &str| ServeError::DecodeError(format!("replication frame: {why}"));
    if fingerprint(body) != body_fp {
        return Err(bad("body fingerprint mismatch"));
    }
    let response = decode_response(body)?.result;
    let response = response.map_err(|_| bad("only ok results replicate"))?;
    Ok(Some(ReplFrame {
        request_fp,
        key,
        response,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_explore_requests_yield_typed_decode_errors() {
        let one = "3ff0000000000000";
        let nan = "7ff8000000000000";
        let big: Vec<String> = (0..MAX_EXPLORE_SCALES).map(|_| one.to_string()).collect();
        let big_axis = big.join(",");
        let cases = [
            // Limit and scales must be finite (and scales positive).
            format!("req - - explore {nan} {one} {one} g"),
            format!("req - - explore 4055400000000000 {nan} {one} g"),
            format!("req - - explore 4055400000000000 0000000000000000 {one} g"),
            // Unknown placement tag and malformed tiles.
            format!("req - - explore 4055400000000000 {one} {one} x"),
            format!("req - - explore 4055400000000000 {one} {one} t:1:2"),
            // The candidate-count cap (64 × 64 × 256 > 100 000).
            format!(
                "req - - explore 4055400000000000 {big_axis} {big_axis} {}",
                vec!["g"; MAX_EXPLORE_PLACEMENTS].join(";")
            ),
        ];
        for line in &cases {
            match decode_request(line) {
                Err(ServeError::DecodeError(_)) => {}
                other => panic!("`{line}` should fail decode, got {other:?}"),
            }
        }
    }

    #[test]
    fn explore_responses_round_trip_and_refuse_nan_points() {
        let front = vec![
            ParetoPoint::new(0xabcd, Amperes(2.5), Celsius(78.0), Watts(0.75)).unwrap(),
            ParetoPoint::new(7, Amperes(1.5), Celsius(82.0), Watts(0.25)).unwrap(),
        ];
        let result = Ok(Response::Explore {
            evaluated: 40,
            pruned: 9,
            feasible: 12,
            quarantined: 2,
            front_total: 2,
            front,
        });
        let line = encode_response(Some("k"), &result);
        let frame = decode_response(&line).unwrap();
        assert_eq!(frame.result.as_ref().unwrap(), result.as_ref().unwrap());

        // A NaN smuggled into a front coordinate is a decode error.
        let nan = "7ff8000000000000";
        let poisoned = format!(
            "ok k explore 1 0 1 0 1 000000000000abcd:3ff0000000000000:{nan}:3ff0000000000000"
        );
        assert!(matches!(
            decode_response(&poisoned),
            Err(ServeError::DecodeError(_))
        ));
        // A front total smaller than the carried points is inconsistent.
        let short = "ok k explore 1 0 1 0 0 \
                     000000000000abcd:3ff0000000000000:3ff0000000000000:3ff0000000000000";
        assert!(matches!(
            decode_response(short),
            Err(ServeError::DecodeError(_))
        ));
    }

    /// `n` distinct valid points with full-width coordinate encodings.
    fn synthetic_front(n: usize) -> Vec<ParetoPoint> {
        (0..n)
            .map(|i| {
                ParetoPoint::new(
                    u64::MAX - i as u64,
                    Amperes(1.0 + i as f64 * 1e-6),
                    Celsius(70.0 + i as f64 * 1e-6),
                    Watts(0.5 + i as f64 * 1e-6),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn oversized_explore_fronts_are_truncated_at_encode_time() {
        let full = synthetic_front(MAX_EXPLORE_FRONT + 5);
        let result = Ok(Response::Explore {
            evaluated: full.len(),
            pruned: 0,
            feasible: full.len(),
            quarantined: 0,
            front_total: full.len(),
            front: full.clone(),
        });
        let line = encode_response(Some("k"), &result);
        assert!(line.len() < MAX_FRAME_LEN);
        let frame = decode_response(&line).unwrap();
        match frame.result.unwrap() {
            Response::Explore {
                front_total, front, ..
            } => {
                // The canonical-order prefix survives; the total records
                // what was dropped.
                assert_eq!(front_total, MAX_EXPLORE_FRONT + 5);
                assert_eq!(front.len(), MAX_EXPLORE_FRONT);
                assert_eq!(front[..], full[..MAX_EXPLORE_FRONT]);
            }
            other => panic!("expected an explore response, got {other:?}"),
        }
    }

    #[test]
    fn malformed_transient_requests_yield_typed_decode_errors() {
        let env = "3feccccccccccccd:3:0000000000000000:8";
        let seg = "3ff0000000000000:3fa999999999999a";
        let nan = "7ff8000000000000";
        let cases = [
            // dt must be positive and finite.
            format!("req - - transient 0000000000000000 4054000000000000 {env} const:00 {seg}"),
            format!("req - - transient {nan} 4054000000000000 {env} const:0000000000000000 {seg}"),
            // Limit must be finite.
            format!("req - - transient 3ff0000000000000 {nan} {env} const:0000000000000000 {seg}"),
            // Envelope spec arity.
            format!("req - - transient 3ff0000000000000 4054000000000000 3feccccccccccccd:3 const:0000000000000000 {seg}"),
            // Unknown controller tag / arity.
            format!("req - - transient 3ff0000000000000 4054000000000000 {env} pid:00:00:00 {seg}"),
            format!("req - - transient 3ff0000000000000 4054000000000000 {env} bang:0000000000000000 {seg}"),
            // Schedule: bad duration, NaN power, empty segment.
            format!("req - - transient 3ff0000000000000 4054000000000000 {env} const:0000000000000000 8000000000000000:3fa999999999999a"),
            format!("req - - transient 3ff0000000000000 4054000000000000 {env} const:0000000000000000 3ff0000000000000:{nan}"),
            format!("req - - transient 3ff0000000000000 4054000000000000 {env} const:0000000000000000 3ff0000000000000"),
        ];
        for line in &cases {
            match decode_request(line) {
                Err(ServeError::DecodeError(_)) => {}
                other => panic!("`{line}` should fail decode, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_step_cap_is_enforced_at_decode() {
        // One segment of 1e9 s at dt = 1 s implies 1e9 steps: far beyond
        // the cap, rejected before any work is admitted.
        let frame = RequestFrame {
            key: None,
            deadline_ms: None,
            request: Request::Transient {
                dt: 1.0,
                limit: Celsius(85.0),
                envelope: EnvelopeSettings::default(),
                controller: ControllerSpec::Constant {
                    current: Amperes(1.0),
                },
                schedule: vec![(1e9, vec![Watts(0.05)])],
            },
        };
        let line = encode_request(&frame);
        assert!(matches!(
            decode_request(&line),
            Err(ServeError::DecodeError(_))
        ));
    }

    #[test]
    fn malformed_requests_yield_typed_decode_errors() {
        let cases = [
            "",
            "bogus - - steady 0000000000000000",
            "req",
            "req -",
            "req - -",
            "req - - steady",
            "req - - steady nothex",
            "req - notanumber steady 0000000000000000",
            "req has space - steady 0000000000000000",
            "req - - runaway 3ff0000000000000",
            "req - - designer",
            "req - - designer 1:x",
            "req - - designer 1",
            "req - - unknown 00",
            "req - - steady 0000000000000000 trailing",
            "req .dotfile - steady 0000000000000000",
        ];
        for line in cases {
            match decode_request(line) {
                Err(ServeError::DecodeError(_)) => {}
                other => panic!("`{line}` should fail decode, got {other:?}"),
            }
        }
    }

    #[test]
    fn cardinality_caps_are_enforced() {
        let mut line = "req - - runaway 3ff0000000000000".to_string();
        for _ in 0..(MAX_SWEEP_FRACTIONS + 1) {
            line.push(' ');
            line.push_str("3ff0000000000000");
        }
        assert!(matches!(
            decode_request(&line),
            Err(ServeError::DecodeError(_))
        ));
        let cands = vec!["1:1"; MAX_CANDIDATES + 1].join(";");
        let line = format!("req - - designer {cands}");
        assert!(matches!(
            decode_request(&line),
            Err(ServeError::DecodeError(_))
        ));
    }

    #[test]
    fn ping_pong_round_trip_and_reject_noise() {
        for nonce in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(decode_ping(&encode_ping(nonce)), Some(nonce));
            assert_eq!(decode_pong(&encode_pong(nonce)), Some(nonce));
        }
        assert_eq!(decode_ping("pong 00"), None);
        assert_eq!(decode_ping("ping"), None);
        assert_eq!(decode_ping("ping zz"), None);
        assert_eq!(decode_ping("ping 00 extra"), None);
        assert_eq!(decode_pong("ok - steady"), None);
    }

    fn sample_repl() -> ReplFrame {
        ReplFrame {
            request_fp: request_fingerprint(&Request::Steady {
                current: Amperes(2.5),
            }),
            key: "job-7".into(),
            response: Response::Steady {
                peak: Celsius(81.5),
                tec_power: Watts(0.25),
            },
        }
    }

    #[test]
    fn unknown_extension_tags_are_ignored_not_errors() {
        for line in ["#future-tag a b c", "#", "#repl2 00 00 k ok - steady"] {
            assert!(is_extension_frame(line));
            assert_eq!(decode_extension(line).unwrap(), None, "via `{line}`");
        }
        // Non-extension lines are not the codec's business.
        assert!(!is_extension_frame("req - - steady 00"));
    }

    #[test]
    fn torn_or_corrupted_replication_frames_fail_the_body_fingerprint() {
        let line = encode_repl(&sample_repl());
        // Torn mid-body: the digest no longer matches.
        let torn = &line[..line.len() - 4];
        assert!(matches!(
            decode_extension(torn),
            Err(ServeError::DecodeError(_))
        ));
        // One flipped byte inside the body.
        let mut corrupt = line.clone();
        corrupt.pop();
        corrupt.push('Z');
        assert!(matches!(
            decode_extension(&corrupt),
            Err(ServeError::DecodeError(_))
        ));
    }

    #[test]
    fn malformed_replication_frames_yield_typed_decode_errors() {
        let cases = [
            "#repl",
            "#repl zz 00 k ok - steady 0000000000000000 0000000000000000",
            "#repl 00 zz k ok - steady 0000000000000000 0000000000000000",
            "#repl 00 00",
            "#repl 00 00 .dotfile ok - steady 00 00",
            "#repl 00 00 bad/key ok - steady 00 00",
        ];
        for line in cases {
            match decode_extension(line) {
                Err(ServeError::DecodeError(_)) => {}
                other => panic!("`{line}` should fail decode, got {other:?}"),
            }
        }
        // An `err` body never replicates, even when correctly digested.
        let body = encode_response(None, &Err(ServeError::ShuttingDown));
        let line = format!(
            "#repl 0000000000000000 {:016x} k {body}",
            fingerprint(&body)
        );
        assert!(matches!(
            decode_extension(&line),
            Err(ServeError::DecodeError(_))
        ));
    }

    #[test]
    fn request_fingerprint_ignores_key_and_deadline_but_not_parameters() {
        let a = Request::Steady {
            current: Amperes(1.0),
        };
        let b = Request::Steady {
            current: Amperes(1.0 + f64::EPSILON),
        };
        assert_eq!(request_fingerprint(&a), request_fingerprint(&a));
        assert_ne!(request_fingerprint(&a), request_fingerprint(&b));
        // The frame's key/deadline are routing metadata, not identity.
        let framed = fingerprint(&encode_request(&RequestFrame {
            key: Some("k".into()),
            deadline_ms: Some(10),
            request: a.clone(),
        }));
        assert_ne!(framed, request_fingerprint(&a));
    }

    #[test]
    fn key_validation() {
        assert!(valid_key("abc-123_X.y"));
        assert!(!valid_key(""));
        assert!(!valid_key(".hidden"));
        assert!(!valid_key("a/b"));
        assert!(!valid_key("a b"));
        assert!(!valid_key(&"k".repeat(129)));
    }
}
