//! The line-framed wire protocol and its dependency-free codec.
//!
//! One frame is one `\n`-terminated UTF-8 line of space-separated fields.
//! Floating-point payloads travel as the bit-exact 16-digit hex encoding
//! of `tecopt::record` (`hex_f64`), so a value decodes to the same
//! bits it was encoded from — responses are reproducible across the wire.
//!
//! ```text
//! client:  req <key|-> <deadline_ms|-> steady <current>
//!          req <key|-> <deadline_ms|-> runaway <lambda_tol> <f1> [<f2> ...]
//!          req <key|-> <deadline_ms|-> designer <r:c[,r:c...][;r:c...]>
//! server:  ok  <key|-> <body...>
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
//! - frames are capped at [`MAX_FRAME_LEN`] bytes — a peer streaming
//!   garbage cannot grow a buffer without bound;
//! - request cardinalities are capped ([`MAX_SWEEP_FRACTIONS`],
//!   [`MAX_CANDIDATES`], [`MAX_TILES_PER_CANDIDATE`]) before any work is
//!   admitted;
//! - every malformed input decodes to a typed
//!   [`ServeError::DecodeError`], never a panic — including torn frames,
//!   non-UTF-8 bytes, and NaN smuggled into a sweep plan.

use crate::error::ServeError;
use tecopt::record::{fingerprint, hex_f64, hex_opt, parse_hex_f64, parse_hex_opt, parse_hex_u64};
use tecopt::runaway::SweepPoint;
use tecopt::transient::ControllerSpec;
use tecopt::{CandidateScore, EnvelopeSettings, TileIndex};
use tecopt_explore::{ParetoPoint, Placement};
use tecopt_units::{Amperes, Celsius, Watts};

/// Hard cap on one frame, bytes, terminator included. Large enough for a
/// designer sweep over a 32×32 grid; small enough that a hostile peer
/// cannot balloon server memory.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Most sample fractions one runaway-sweep request may carry.
pub const MAX_SWEEP_FRACTIONS: usize = 4096;

/// Most candidate deployments one designer-sweep request may carry.
pub const MAX_CANDIDATES: usize = 1024;

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
/// axes), checked at decode so an admitted frame can never demand
/// unbounded work.
pub const MAX_EXPLORE_CANDIDATES: usize = 100_000;

/// Most Pareto points one explore response may carry — chosen so the
/// worst-case encoded response always fits one frame. Each point encodes
/// to 68 bytes (`␣id:current:peak:power`, four 16-hex-digit fields), and
/// the frame overhead tops out near 350 bytes (`#repl` replication prefix
/// with two digests, a 128-char key, the `ok <key> explore` prefix, five
/// counts and the terminator), so `896 × 68 + 350 < 64 KiB` holds with
/// margin — [`encode_response`] can never produce an explore frame that
/// `decode_response`, the server reader, or the client reader rejects.
/// Larger fronts are truncated at encode time in canonical (deterministic)
/// order, with the untruncated size reported in the `front_total` field.
pub const MAX_EXPLORE_FRONT: usize = 896;

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

fn decode_err(msg: impl Into<String>) -> ServeError {
    ServeError::DecodeError(msg.into())
}

fn encode_key(key: Option<&str>) -> &str {
    key.unwrap_or("-")
}

/// `true` for a key a client may use: non-empty, bounded, and free of
/// whitespace/path characters (keys name checkpoint files).
pub fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 128
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        && !key.starts_with('.')
}

// ---------------------------------------------------------------------
// Request encoding
// ---------------------------------------------------------------------

/// Encodes a request frame as one line (no terminator).
pub fn encode_request(frame: &RequestFrame) -> String {
    let deadline = match frame.deadline_ms {
        Some(ms) => ms.to_string(),
        None => "-".to_string(),
    };
    let body = match &frame.request {
        Request::Steady { current } => format!("steady {}", hex_f64(current.value())),
        Request::Runaway {
            lambda_tolerance,
            fractions,
        } => {
            let mut s = format!("runaway {}", hex_f64(*lambda_tolerance));
            for f in fractions {
                s.push(' ');
                s.push_str(&hex_f64(*f));
            }
            s
        }
        Request::Designer { candidates } => {
            let cands: Vec<String> = candidates
                .iter()
                .map(|tiles| {
                    let ts: Vec<String> = tiles
                        .iter()
                        .map(|t| format!("{}:{}", t.row, t.col))
                        .collect();
                    ts.join(",")
                })
                .collect();
            format!("designer {}", cands.join(";"))
        }
        Request::Transient {
            dt,
            limit,
            envelope,
            controller,
            schedule,
        } => {
            let ctl = match controller {
                ControllerSpec::Constant { current } => {
                    format!("const:{}", hex_f64(current.value()))
                }
                ControllerSpec::BangBang {
                    upper,
                    lower,
                    on_current,
                } => format!(
                    "bang:{}:{}:{}",
                    hex_f64(upper.value()),
                    hex_f64(lower.value()),
                    hex_f64(on_current.value())
                ),
                ControllerSpec::Proportional {
                    target,
                    gain,
                    max_current,
                } => format!(
                    "prop:{}:{}:{}",
                    hex_f64(target.value()),
                    hex_f64(*gain),
                    hex_f64(max_current.value())
                ),
            };
            let segs: Vec<String> = schedule
                .iter()
                .map(|(duration, powers)| {
                    let mut s = hex_f64(*duration);
                    for p in powers {
                        s.push(':');
                        s.push_str(&hex_f64(p.value()));
                    }
                    s
                })
                .collect();
            format!(
                "transient {} {} {}:{}:{}:{} {ctl} {}",
                hex_f64(*dt),
                hex_f64(limit.value()),
                hex_f64(envelope.margin),
                envelope.trip_after,
                hex_f64(envelope.fallback.value()),
                envelope.recovery_steps,
                segs.join(";")
            )
        }
        Request::Explore {
            theta_limit,
            thickness_scales,
            contact_scales,
            placements,
        } => {
            let axis = |scales: &[f64]| {
                scales
                    .iter()
                    .map(|s| hex_f64(*s))
                    .collect::<Vec<String>>()
                    .join(",")
            };
            let places: Vec<String> = placements.iter().map(encode_placement).collect();
            format!(
                "explore {} {} {} {}",
                hex_f64(theta_limit.value()),
                axis(thickness_scales),
                axis(contact_scales),
                places.join(";")
            )
        }
    };
    format!(
        "req {} {} {}",
        encode_key(frame.key.as_deref()),
        deadline,
        body
    )
}

/// `g` for greedy, `t:r.c,r.c` for a fixed mask (`t:` = empty mask).
fn encode_placement(p: &Placement) -> String {
    match p {
        Placement::Greedy => "g".to_string(),
        Placement::Tiles(tiles) => {
            let ts: Vec<String> = tiles
                .iter()
                .map(|t| format!("{}.{}", t.row, t.col))
                .collect();
            format!("t:{}", ts.join(","))
        }
    }
}

fn parse_placement(spec: &str) -> Result<Placement, ServeError> {
    if spec == "g" {
        return Ok(Placement::Greedy);
    }
    let tiles_spec = spec
        .strip_prefix("t:")
        .ok_or_else(|| decode_err(format!("malformed placement `{spec}` (want g or t:...)")))?;
    let mut tiles = Vec::new();
    for tile in tiles_spec.split(',') {
        if tile.is_empty() {
            continue; // `t:` is the valid empty mask
        }
        if tiles.len() >= MAX_TILES_PER_CANDIDATE {
            return Err(decode_err(format!(
                "placement exceeds {MAX_TILES_PER_CANDIDATE} tiles"
            )));
        }
        let (r, c) = tile
            .split_once('.')
            .ok_or_else(|| decode_err(format!("malformed placement tile `{tile}` (want r.c)")))?;
        let row = r
            .parse::<usize>()
            .map_err(|_| decode_err(format!("malformed placement row `{r}`")))?;
        let col = c
            .parse::<usize>()
            .map_err(|_| decode_err(format!("malformed placement col `{c}`")))?;
        tiles.push(TileIndex::new(row, col));
    }
    Ok(Placement::Tiles(tiles))
}

fn parse_scale_axis(spec: &str, what: &str) -> Result<Vec<f64>, ServeError> {
    let mut scales = Vec::new();
    for field in spec.split(',') {
        if scales.len() >= MAX_EXPLORE_SCALES {
            return Err(decode_err(format!(
                "{what} axis exceeds {MAX_EXPLORE_SCALES} scales"
            )));
        }
        let v = parse_hex(field, what)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(decode_err(format!(
                "{what} must be positive and finite, got {v}"
            )));
        }
        scales.push(v);
    }
    Ok(scales)
}

/// Decodes what [`encode_request`] produced.
///
/// # Errors
///
/// [`ServeError::DecodeError`] describing the first malformed field.
pub fn decode_request(line: &str) -> Result<RequestFrame, ServeError> {
    let mut it = line.split_ascii_whitespace();
    match it.next() {
        Some("req") => {}
        Some(other) => return Err(decode_err(format!("expected `req`, got `{other}`"))),
        None => return Err(decode_err("empty frame")),
    }
    let key = match it.next() {
        Some("-") => None,
        Some(k) if valid_key(k) => Some(k.to_string()),
        Some(_) => return Err(decode_err("invalid idempotency key")),
        None => return Err(decode_err("missing idempotency key field")),
    };
    let deadline_ms = match it.next() {
        Some("-") => None,
        Some(ms) => Some(
            ms.parse::<u64>()
                .map_err(|_| decode_err(format!("invalid deadline `{ms}`")))?,
        ),
        None => return Err(decode_err("missing deadline field")),
    };
    let kind = it
        .next()
        .ok_or_else(|| decode_err("missing request kind"))?;
    let request = match kind {
        "steady" => {
            let current = next_hex(&mut it, "steady current")?;
            Request::Steady {
                current: Amperes(current),
            }
        }
        "runaway" => {
            let lambda_tolerance = next_hex(&mut it, "lambda tolerance")?;
            let mut fractions = Vec::new();
            for field in it.by_ref() {
                if fractions.len() >= MAX_SWEEP_FRACTIONS {
                    return Err(decode_err(format!(
                        "runaway sweep exceeds {MAX_SWEEP_FRACTIONS} fractions"
                    )));
                }
                fractions.push(parse_hex(field, "sweep fraction")?);
            }
            if fractions.is_empty() {
                return Err(decode_err("runaway sweep needs at least one fraction"));
            }
            Request::Runaway {
                lambda_tolerance,
                fractions,
            }
        }
        "designer" => {
            let spec = it
                .next()
                .ok_or_else(|| decode_err("designer sweep needs a candidate list"))?;
            Request::Designer {
                candidates: parse_candidates(spec)?,
            }
        }
        "transient" => {
            let dt = next_hex(&mut it, "transient dt")?;
            if !dt.is_finite() || dt <= 0.0 {
                return Err(decode_err(format!(
                    "transient dt must be positive and finite, got {dt}"
                )));
            }
            let limit = next_hex(&mut it, "transient limit")?;
            if !limit.is_finite() {
                return Err(decode_err("transient limit must be finite"));
            }
            let envelope = parse_envelope(
                it.next()
                    .ok_or_else(|| decode_err("missing envelope spec"))?,
            )?;
            let controller = parse_controller(
                it.next()
                    .ok_or_else(|| decode_err("missing controller spec"))?,
            )?;
            let schedule = parse_schedule(
                it.next()
                    .ok_or_else(|| decode_err("transient request needs a schedule"))?,
                dt,
            )?;
            Request::Transient {
                dt,
                limit: Celsius(limit),
                envelope,
                controller,
                schedule,
            }
        }
        "explore" => {
            let theta_limit = next_hex(&mut it, "explore limit")?;
            if !theta_limit.is_finite() {
                return Err(decode_err("explore limit must be finite"));
            }
            let thickness_scales = parse_scale_axis(
                it.next()
                    .ok_or_else(|| decode_err("missing thickness-scale axis"))?,
                "thickness scale",
            )?;
            let contact_scales = parse_scale_axis(
                it.next()
                    .ok_or_else(|| decode_err("missing contact-scale axis"))?,
                "contact scale",
            )?;
            let spec = it
                .next()
                .ok_or_else(|| decode_err("explore request needs a placement list"))?;
            let mut placements = Vec::new();
            for p in spec.split(';') {
                if placements.len() >= MAX_EXPLORE_PLACEMENTS {
                    return Err(decode_err(format!(
                        "explore request exceeds {MAX_EXPLORE_PLACEMENTS} placements"
                    )));
                }
                placements.push(parse_placement(p)?);
            }
            let candidates = thickness_scales
                .len()
                .saturating_mul(contact_scales.len())
                .saturating_mul(placements.len());
            if candidates > MAX_EXPLORE_CANDIDATES {
                return Err(decode_err(format!(
                    "explore grid implies {candidates} candidates (cap {MAX_EXPLORE_CANDIDATES})"
                )));
            }
            Request::Explore {
                theta_limit: Celsius(theta_limit),
                thickness_scales,
                contact_scales,
                placements,
            }
        }
        other => return Err(decode_err(format!("unknown request kind `{other}`"))),
    };
    if it.next().is_some() {
        return Err(decode_err("trailing fields after request body"));
    }
    Ok(RequestFrame {
        key,
        deadline_ms,
        request,
    })
}

fn next_hex(it: &mut std::str::SplitAsciiWhitespace<'_>, what: &str) -> Result<f64, ServeError> {
    let field = it
        .next()
        .ok_or_else(|| decode_err(format!("missing {what}")))?;
    parse_hex(field, what)
}

fn parse_hex(field: &str, what: &str) -> Result<f64, ServeError> {
    parse_hex_f64(field).ok_or_else(|| decode_err(format!("malformed {what} `{field}`")))
}

fn parse_candidates(spec: &str) -> Result<Vec<Vec<TileIndex>>, ServeError> {
    let mut candidates = Vec::new();
    for cand in spec.split(';') {
        if candidates.len() >= MAX_CANDIDATES {
            return Err(decode_err(format!(
                "designer sweep exceeds {MAX_CANDIDATES} candidates"
            )));
        }
        let mut tiles = Vec::new();
        for tile in cand.split(',') {
            if tile.is_empty() {
                continue; // an empty candidate is a valid passive baseline
            }
            if tiles.len() >= MAX_TILES_PER_CANDIDATE {
                return Err(decode_err(format!(
                    "candidate exceeds {MAX_TILES_PER_CANDIDATE} tiles"
                )));
            }
            let (r, c) = tile
                .split_once(':')
                .ok_or_else(|| decode_err(format!("malformed tile `{tile}` (want r:c)")))?;
            let row = r
                .parse::<usize>()
                .map_err(|_| decode_err(format!("malformed tile row `{r}`")))?;
            let col = c
                .parse::<usize>()
                .map_err(|_| decode_err(format!("malformed tile col `{c}`")))?;
            tiles.push(TileIndex::new(row, col));
        }
        candidates.push(tiles);
    }
    Ok(candidates)
}

/// Parses `margin:trip_after:fallback:recovery_steps`. Semantic envelope
/// validation (margin range, fallback bound) happens against λ_m at
/// evaluation time; the decode layer only rejects malformed fields.
fn parse_envelope(spec: &str) -> Result<EnvelopeSettings, ServeError> {
    let bad = || decode_err(format!("malformed envelope spec `{spec}`"));
    let mut parts = spec.split(':');
    let margin = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let trip_after = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(bad)?;
    let fallback = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let recovery_steps = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(EnvelopeSettings {
        margin,
        trip_after,
        fallback: Amperes(fallback),
        recovery_steps,
    })
}

/// Parses `const:<i>`, `bang:<upper>:<lower>:<on>` or
/// `prop:<target>:<gain>:<max>`. Semantic validation is
/// [`ControllerSpec::build`]'s job at evaluation time.
fn parse_controller(spec: &str) -> Result<ControllerSpec, ServeError> {
    let bad = || decode_err(format!("malformed controller spec `{spec}`"));
    let mut parts = spec.split(':');
    let tag = parts.next().ok_or_else(bad)?;
    let next = |parts: &mut std::str::Split<'_, char>| -> Result<f64, ServeError> {
        parts.next().and_then(parse_hex_f64).ok_or_else(bad)
    };
    let ctl = match tag {
        "const" => ControllerSpec::Constant {
            current: Amperes(next(&mut parts)?),
        },
        "bang" => ControllerSpec::BangBang {
            upper: Celsius(next(&mut parts)?),
            lower: Celsius(next(&mut parts)?),
            on_current: Amperes(next(&mut parts)?),
        },
        "prop" => ControllerSpec::Proportional {
            target: Celsius(next(&mut parts)?),
            gain: next(&mut parts)?,
            max_current: Amperes(next(&mut parts)?),
        },
        _ => return Err(bad()),
    };
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(ctl)
}

/// Parses `dur:p0:p1,...` segments joined by `;`, enforcing the segment,
/// tile and total-step caps and rejecting non-finite fields — a NaN
/// smuggled into a trace never reaches the engine.
fn parse_schedule(spec: &str, dt: f64) -> Result<Vec<(f64, Vec<Watts>)>, ServeError> {
    let mut schedule = Vec::new();
    let mut total_steps = 0.0f64;
    for seg in spec.split(';') {
        if schedule.len() >= MAX_SCHEDULE_SEGMENTS {
            return Err(decode_err(format!(
                "schedule exceeds {MAX_SCHEDULE_SEGMENTS} segments"
            )));
        }
        let mut parts = seg.split(':');
        let duration = parts
            .next()
            .and_then(parse_hex_f64)
            .ok_or_else(|| decode_err(format!("malformed schedule segment `{seg}`")))?;
        if !duration.is_finite() || duration <= 0.0 {
            return Err(decode_err(format!(
                "segment duration must be positive and finite, got {duration}"
            )));
        }
        let mut powers = Vec::new();
        for field in parts {
            if powers.len() >= MAX_TILES_PER_SEGMENT {
                return Err(decode_err(format!(
                    "segment exceeds {MAX_TILES_PER_SEGMENT} tile powers"
                )));
            }
            let p = parse_hex(field, "tile power")?;
            if !p.is_finite() {
                return Err(decode_err("non-finite tile power in schedule"));
            }
            powers.push(Watts(p));
        }
        if powers.is_empty() {
            return Err(decode_err("schedule segment carries no tile powers"));
        }
        // Durations and dt are finite and positive here, so the running
        // total is never NaN; an overflow to +inf still trips the cap.
        total_steps += (duration / dt).ceil();
        if total_steps > MAX_TRANSIENT_STEPS as f64 {
            return Err(decode_err(format!(
                "schedule implies more than {MAX_TRANSIENT_STEPS} timesteps"
            )));
        }
        schedule.push((duration, powers));
    }
    Ok(schedule)
}

/// The canonical fingerprint of a request: the FNV-1a digest of its bare
/// wire encoding (no key, no deadline). Every parameter contributes its
/// exact bits, so two requests share a fingerprint iff they are the same
/// evaluation — the identity that binds a replicated cache entry to the
/// one request it may ever answer.
pub fn request_fingerprint(request: &Request) -> u64 {
    fingerprint(&encode_request(&RequestFrame {
        key: None,
        deadline_ms: None,
        request: request.clone(),
    }))
}

// ---------------------------------------------------------------------
// Fleet frames: health pings and one-way replication
// ---------------------------------------------------------------------

/// Encodes a health-check ping (no terminator). Pings are answered ahead
/// of admission control, so an overloaded shard still counts as alive.
pub fn encode_ping(nonce: u64) -> String {
    format!("ping {nonce:016x}")
}

/// Encodes the reply to [`encode_ping`] (no terminator).
pub fn encode_pong(nonce: u64) -> String {
    format!("pong {nonce:016x}")
}

/// The nonce of a ping frame, or `None` when `line` is not a ping.
pub fn decode_ping(line: &str) -> Option<u64> {
    decode_nonce_frame(line, "ping")
}

/// The nonce of a pong frame, or `None` when `line` is not a pong.
pub fn decode_pong(line: &str) -> Option<u64> {
    decode_nonce_frame(line, "pong")
}

fn decode_nonce_frame(line: &str, tag: &str) -> Option<u64> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some(tag) {
        return None;
    }
    let nonce = parse_hex_u64(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some(nonce)
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
    let body = encode_response(None, &Ok(frame.response.clone()));
    format!(
        "#repl {:016x} {:016x} {} {body}",
        frame.request_fp,
        fingerprint(&body),
        frame.key
    )
}

/// Decodes a `#`-prefixed extension frame.
///
/// Returns `Ok(None)` for an unknown extension tag — the caller ignores
/// it and keeps the connection (forward compatibility).
///
/// # Errors
///
/// [`ServeError::DecodeError`] for a `#repl` frame that is malformed,
/// oversized, or fails its body-fingerprint check. The caller drops the
/// frame (replication is best-effort) but may count the error.
pub fn decode_extension(line: &str) -> Result<Option<ReplFrame>, ServeError> {
    if line.len() > MAX_FRAME_LEN {
        return Err(decode_err("extension frame exceeds the length cap"));
    }
    let mut it = line.splitn(5, ' ');
    match it.next() {
        Some("#repl") => {}
        _ => return Ok(None),
    }
    let bad = |what: &str| decode_err(format!("malformed replication frame: {what}"));
    let request_fp = it
        .next()
        .and_then(parse_hex_u64)
        .ok_or_else(|| bad("request fingerprint"))?;
    let body_fp = it
        .next()
        .and_then(parse_hex_u64)
        .ok_or_else(|| bad("body fingerprint"))?;
    let key = it.next().ok_or_else(|| bad("missing key"))?;
    if !valid_key(key) {
        return Err(bad("invalid key"));
    }
    let body = it.next().ok_or_else(|| bad("missing response body"))?;
    if fingerprint(body) != body_fp {
        return Err(bad("body fingerprint mismatch"));
    }
    let decoded = decode_response(body)?;
    match decoded.result {
        Ok(response) => Ok(Some(ReplFrame {
            request_fp,
            key: key.to_string(),
            response,
        })),
        Err(_) => Err(bad("only ok results replicate")),
    }
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

/// Encodes a server reply to `key` as one line (no terminator).
pub fn encode_response(key: Option<&str>, result: &Result<Response, ServeError>) -> String {
    match result {
        Ok(resp) => {
            let body = match resp {
                Response::Steady { peak, tec_power } => format!(
                    "steady {} {}",
                    hex_f64(peak.value()),
                    hex_f64(tec_power.value())
                ),
                Response::Runaway { lambda, points } => {
                    let mut s = format!("runaway {}", hex_f64(lambda.value()));
                    for p in points {
                        s.push(' ');
                        s.push_str(&format!(
                            "{}:{}:{}",
                            hex_f64(p.current.value()),
                            hex_opt(p.peak.map(|c| c.value())),
                            hex_opt(p.tec_power.map(|w| w.value()))
                        ));
                    }
                    s
                }
                Response::Designer { scores } => {
                    let mut s = "designer".to_string();
                    for sc in scores {
                        s.push(' ');
                        s.push_str(&format!(
                            "{}:{}:{}:{}:{}",
                            sc.device_count,
                            hex_f64(sc.current.value()),
                            hex_f64(sc.peak.value()),
                            hex_f64(sc.tec_power.value()),
                            sc.evaluations
                        ));
                    }
                    s
                }
                Response::Transient {
                    steps,
                    peak,
                    violation_fraction,
                    tec_energy_joules,
                    envelope_events,
                    tripped,
                    solves,
                } => format!(
                    "transient {steps} {} {} {} {envelope_events} {} {solves}",
                    hex_f64(peak.value()),
                    hex_f64(*violation_fraction),
                    hex_f64(*tec_energy_joules),
                    u8::from(*tripped),
                ),
                Response::Explore {
                    evaluated,
                    pruned,
                    feasible,
                    quarantined,
                    front_total,
                    front,
                } => {
                    let mut s = format!(
                        "explore {evaluated} {pruned} {feasible} {quarantined} {front_total}"
                    );
                    // The cap is enforced at encode time so this can never
                    // emit a frame the (capped) readers refuse; truncation
                    // in canonical order stays deterministic.
                    for p in front.iter().take(MAX_EXPLORE_FRONT) {
                        s.push(' ');
                        s.push_str(&format!(
                            "{:016x}:{}:{}:{}",
                            p.id(),
                            hex_f64(p.current().value()),
                            hex_f64(p.peak().value()),
                            hex_f64(p.tec_power().value())
                        ));
                    }
                    s
                }
            };
            format!("ok {} {body}", encode_key(key))
        }
        Err(e) => {
            // The message is free text but must stay a single line.
            let msg: String = e
                .to_string()
                .chars()
                .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                .collect();
            format!("err {} {} {msg}", encode_key(key), e.code())
        }
    }
}

/// One decoded server reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request's idempotency key.
    pub key: Option<String>,
    /// The response, or the typed error code + human message.
    pub result: Result<Response, (String, String)>,
}

/// Decodes what [`encode_response`] produced.
///
/// # Errors
///
/// [`ServeError::DecodeError`] describing the first malformed field.
pub fn decode_response(line: &str) -> Result<ResponseFrame, ServeError> {
    let mut it = it_or_err(line)?;
    let status = it
        .next()
        .ok_or_else(|| decode_err("empty response frame"))?;
    let key = match it.next() {
        Some("-") => None,
        Some(k) => Some(k.to_string()),
        None => return Err(decode_err("missing response key")),
    };
    match status {
        "ok" => {
            let kind = it
                .next()
                .ok_or_else(|| decode_err("missing response kind"))?;
            let resp = match kind {
                "steady" => Response::Steady {
                    peak: Celsius(next_hex(&mut it, "peak")?),
                    tec_power: Watts(next_hex(&mut it, "tec power")?),
                },
                "runaway" => {
                    let lambda = Amperes(next_hex(&mut it, "lambda")?);
                    let mut points = Vec::new();
                    for field in it.by_ref() {
                        if points.len() >= MAX_SWEEP_FRACTIONS {
                            return Err(decode_err("oversized runaway response"));
                        }
                        points.push(parse_point(field)?);
                    }
                    Response::Runaway { lambda, points }
                }
                "designer" => {
                    let mut scores = Vec::new();
                    for field in it.by_ref() {
                        if scores.len() >= MAX_CANDIDATES {
                            return Err(decode_err("oversized designer response"));
                        }
                        scores.push(parse_score(field)?);
                    }
                    Response::Designer { scores }
                }
                "transient" => {
                    let bad = |what: &str| decode_err(format!("malformed transient {what}"));
                    let steps = it
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| bad("steps"))?;
                    let peak = Celsius(next_hex(&mut it, "transient peak")?);
                    let violation_fraction = next_hex(&mut it, "violation fraction")?;
                    let tec_energy_joules = next_hex(&mut it, "tec energy")?;
                    let envelope_events = it
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| bad("event count"))?;
                    let tripped = match it.next() {
                        Some("0") => false,
                        Some("1") => true,
                        _ => return Err(bad("trip flag")),
                    };
                    let solves = it
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| bad("solve count"))?;
                    Response::Transient {
                        steps,
                        peak,
                        violation_fraction,
                        tec_energy_joules,
                        envelope_events,
                        tripped,
                        solves,
                    }
                }
                "explore" => {
                    let bad = |what: &str| decode_err(format!("malformed explore {what}"));
                    let mut count = |what: &'static str| -> Result<usize, ServeError> {
                        it.next()
                            .and_then(|s| s.parse::<usize>().ok())
                            .ok_or_else(|| bad(what))
                    };
                    let evaluated = count("evaluated count")?;
                    let pruned = count("pruned count")?;
                    let feasible = count("feasible count")?;
                    let quarantined = count("quarantined count")?;
                    let front_total = count("front total")?;
                    let mut front = Vec::new();
                    for field in it.by_ref() {
                        if front.len() >= MAX_EXPLORE_FRONT {
                            return Err(decode_err("oversized explore response"));
                        }
                        front.push(parse_pareto_point(field)?);
                    }
                    if front_total < front.len() {
                        return Err(decode_err("explore front total below carried points"));
                    }
                    Response::Explore {
                        evaluated,
                        pruned,
                        feasible,
                        quarantined,
                        front_total,
                        front,
                    }
                }
                other => return Err(decode_err(format!("unknown response kind `{other}`"))),
            };
            Ok(ResponseFrame {
                key,
                result: Ok(resp),
            })
        }
        "err" => {
            let code = it
                .next()
                .ok_or_else(|| decode_err("missing error code"))?
                .to_string();
            let message = it.collect::<Vec<&str>>().join(" ");
            Ok(ResponseFrame {
                key,
                result: Err((code, message)),
            })
        }
        other => Err(decode_err(format!("unknown response status `{other}`"))),
    }
}

fn it_or_err(line: &str) -> Result<std::str::SplitAsciiWhitespace<'_>, ServeError> {
    if line.len() > MAX_FRAME_LEN {
        return Err(decode_err("frame exceeds the length cap"));
    }
    Ok(line.split_ascii_whitespace())
}

fn parse_point(field: &str) -> Result<SweepPoint, ServeError> {
    let bad = || decode_err(format!("malformed sweep point `{field}`"));
    let mut parts = field.split(':');
    let current = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let peak = parts.next().and_then(parse_hex_opt).ok_or_else(bad)?;
    let tec_power = parts.next().and_then(parse_hex_opt).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(SweepPoint {
        current: Amperes(current),
        peak: peak.map(Celsius),
        tec_power: tec_power.map(Watts),
    })
}

fn parse_score(field: &str) -> Result<CandidateScore, ServeError> {
    let bad = || decode_err(format!("malformed candidate score `{field}`"));
    let mut parts = field.split(':');
    let device_count = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let current = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let peak = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let tec_power = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let evaluations = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(CandidateScore {
        device_count,
        current: Amperes(current),
        peak: Celsius(peak),
        tec_power: Watts(tec_power),
        evaluations,
    })
}

fn parse_pareto_point(field: &str) -> Result<ParetoPoint, ServeError> {
    let bad = || decode_err(format!("malformed pareto point `{field}`"));
    let mut parts = field.split(':');
    let id = parts.next().and_then(parse_hex_u64).ok_or_else(bad)?;
    let current = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let peak = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    let tec_power = parts.next().and_then(parse_hex_f64).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    // The constructor is the NaN gate: a non-finite coordinate smuggled
    // over the wire is a decode error, never a poisoned front.
    ParetoPoint::new(id, Amperes(current), Celsius(peak), Watts(tec_power)).ok_or_else(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(frame: RequestFrame) {
        let line = encode_request(&frame);
        assert_eq!(decode_request(&line).unwrap(), frame, "via `{line}`");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(RequestFrame {
            key: Some("job-1".into()),
            deadline_ms: Some(1500),
            request: Request::Steady {
                current: Amperes(3.25),
            },
        });
        round_trip_request(RequestFrame {
            key: None,
            deadline_ms: None,
            request: Request::Runaway {
                lambda_tolerance: 1e-9,
                fractions: vec![0.1, 0.5, 0.9, 1.1],
            },
        });
        round_trip_request(RequestFrame {
            key: Some("d_2.a".into()),
            deadline_ms: Some(0),
            request: Request::Designer {
                candidates: vec![
                    vec![TileIndex::new(1, 1)],
                    vec![TileIndex::new(0, 3), TileIndex::new(2, 2)],
                    vec![],
                ],
            },
        });
    }

    #[test]
    fn transient_requests_round_trip() {
        for controller in [
            ControllerSpec::Constant {
                current: Amperes(2.5),
            },
            ControllerSpec::BangBang {
                upper: Celsius(80.0),
                lower: Celsius(76.0),
                on_current: Amperes(4.0),
            },
            ControllerSpec::Proportional {
                target: Celsius(78.0),
                gain: 0.75,
                max_current: Amperes(6.0),
            },
        ] {
            round_trip_request(RequestFrame {
                key: Some("t-1".into()),
                deadline_ms: Some(2000),
                request: Request::Transient {
                    dt: 0.5,
                    limit: Celsius(85.0),
                    envelope: EnvelopeSettings {
                        margin: 0.9,
                        trip_after: 3,
                        fallback: Amperes(0.25),
                        recovery_steps: 8,
                    },
                    controller,
                    schedule: vec![
                        (2.0, vec![Watts(0.05), Watts(0.6)]),
                        (3.0, vec![Watts(0.02), Watts(0.02)]),
                    ],
                },
            });
        }
    }

    #[test]
    fn explore_requests_round_trip() {
        round_trip_request(RequestFrame {
            key: Some("x-1".into()),
            deadline_ms: Some(30_000),
            request: Request::Explore {
                theta_limit: Celsius(85.0),
                thickness_scales: vec![0.5, 1.0, 2.0],
                contact_scales: vec![1.0],
                placements: vec![
                    Placement::Greedy,
                    Placement::Tiles(vec![TileIndex::new(1, 1), TileIndex::new(2, 3)]),
                    Placement::Tiles(vec![]),
                ],
            },
        });
    }

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
    fn a_maximal_explore_response_fits_one_frame_even_replicated() {
        // Worst case everywhere: a full front, counts at the candidate
        // cap, and a maximum-length key — both as a bare response line
        // and wrapped in a `#repl` replication frame. The readers cap
        // frames at MAX_FRAME_LEN (terminator included), so a response
        // the encoder can produce must stay strictly within it.
        let key = "k".repeat(128);
        let response = Response::Explore {
            evaluated: MAX_EXPLORE_CANDIDATES,
            pruned: MAX_EXPLORE_CANDIDATES,
            feasible: MAX_EXPLORE_CANDIDATES,
            quarantined: MAX_EXPLORE_CANDIDATES,
            front_total: MAX_EXPLORE_CANDIDATES,
            front: synthetic_front(MAX_EXPLORE_FRONT),
        };
        let result = Ok(response.clone());
        let line = encode_response(Some(&key), &result);
        // The frame cap counts the `\n` terminator: strictly under it.
        assert!(
            line.len() < MAX_FRAME_LEN,
            "explore response frame is {} bytes + terminator, cap {MAX_FRAME_LEN}",
            line.len()
        );
        let frame = decode_response(&line).unwrap();
        assert_eq!(frame.result.as_ref().unwrap(), &response);

        let repl = ReplFrame {
            request_fp: u64::MAX,
            key,
            response,
        };
        let line = encode_repl(&repl);
        assert!(
            line.len() < MAX_FRAME_LEN,
            "replicated explore frame is {} bytes + terminator, cap {MAX_FRAME_LEN}",
            line.len()
        );
        assert_eq!(decode_extension(&line).unwrap(), Some(repl));
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
    fn responses_round_trip() {
        let cases = vec![
            Ok(Response::Steady {
                peak: Celsius(81.5),
                tec_power: Watts(0.25),
            }),
            Ok(Response::Runaway {
                lambda: Amperes(7.75),
                points: vec![
                    SweepPoint {
                        current: Amperes(1.0),
                        peak: Some(Celsius(90.0)),
                        tec_power: Some(Watts(0.5)),
                    },
                    SweepPoint {
                        current: Amperes(9.0),
                        peak: None,
                        tec_power: None,
                    },
                ],
            }),
            Ok(Response::Designer {
                scores: vec![tecopt::CandidateScore {
                    device_count: 3,
                    current: Amperes(2.5),
                    peak: Celsius(79.0),
                    tec_power: Watts(0.4),
                    evaluations: 17,
                }],
            }),
        ];
        for result in cases {
            let line = encode_response(Some("k"), &result);
            let frame = decode_response(&line).unwrap();
            assert_eq!(frame.key.as_deref(), Some("k"));
            assert_eq!(frame.result.as_ref().unwrap(), result.as_ref().unwrap());
        }
    }

    #[test]
    fn error_responses_round_trip_code_and_message() {
        let err = ServeError::Overloaded {
            depth: 8,
            capacity: 8,
        };
        let line = encode_response(None, &Err(err.clone()));
        let frame = decode_response(&line).unwrap();
        let (code, message) = frame.result.unwrap_err();
        assert_eq!(code, "overloaded");
        assert!(message.contains("8 of 8"));
        // Newlines in a message can never tear the framing.
        let sneaky = ServeError::DecodeError("line one\nline two".into());
        let line = encode_response(None, &Err(sneaky));
        assert!(!line.contains('\n'));
        assert!(decode_response(&line).is_ok());
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
    fn replication_frames_round_trip() {
        let frame = sample_repl();
        let line = encode_repl(&frame);
        assert!(is_extension_frame(&line));
        assert_eq!(decode_extension(&line).unwrap(), Some(frame));
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
    fn oversized_replication_frames_are_capped() {
        let line = format!("#repl 00 00 k ok - {}", "x".repeat(MAX_FRAME_LEN));
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
