//! The wire codec's contract, shown by golden frames and property tests.
//!
//! - **Golden frames** pin the exact bytes of one instance of every
//!   request, response, ping, pong and `#repl` frame, and of one record
//!   line per durable-record codec. Replicated cache entries are bound by
//!   `request_fingerprint` across shards and record files stay at one
//!   format version, so these bytes must never drift.
//! - **Round trips**: `decode(encode(m)) == m` for every message kind.
//! - **Hostile bytes**: arbitrary, truncated and oversized inputs decode
//!   to a typed `DecodeError`, never a panic, and never to a list longer
//!   than its cap.

use std::path::PathBuf;

use proptest::prelude::*;
use tecopt::record::{Header, RecordFile};
use tecopt::runaway::SweepPoint;
use tecopt::supervise::Checkpointable;
use tecopt::transient::ControllerSpec;
use tecopt::{CandidateScore, CertificateOutcome, EnvelopeSettings, TileIndex};
use tecopt_explore::{
    EvalRecord, Ledger, ParetoPoint, PartialPrefix, Placement, QuarantineReason, QuarantineRecord,
};
use tecopt_serve::wire::{
    decode_extension, decode_ping, decode_pong, decode_request, decode_response, encode_ping,
    encode_pong, encode_repl, encode_request, encode_response, request_fingerprint, ReplFrame,
    MAX_FRAME_LEN,
};
use tecopt_serve::{Request, RequestFrame, Response, ServeError};
use tecopt_units::{Amperes, Celsius, Watts};

/// A fresh path in a per-process scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tecopt-wire-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn frame(key: Option<&str>, deadline_ms: Option<u64>, request: Request) -> RequestFrame {
    RequestFrame {
        key: key.map(str::to_string),
        deadline_ms,
        request,
    }
}

fn envelope() -> EnvelopeSettings {
    EnvelopeSettings {
        margin: 0.9,
        trip_after: 3,
        fallback: Amperes(0.25),
        recovery_steps: 8,
    }
}

fn transient(controller: ControllerSpec) -> Request {
    Request::Transient {
        dt: 0.5,
        limit: Celsius(85.0),
        envelope: envelope(),
        controller,
        schedule: vec![
            (2.0, vec![Watts(0.05), Watts(0.6)]),
            (3.0, vec![Watts(0.02)]),
        ],
    }
}

fn golden_requests() -> Vec<(RequestFrame, &'static str)> {
    vec![
        (
            frame(
                Some("job-1"),
                Some(1500),
                Request::Steady {
                    current: Amperes(3.25),
                },
            ),
            "req job-1 1500 steady 400a000000000000",
        ),
        (
            frame(
                None,
                None,
                Request::Runaway {
                    lambda_tolerance: 1e-9,
                    fractions: vec![0.1, 0.5, 1.1],
                },
            ),
            "req - - runaway 3e112e0be826d695 3fb999999999999a 3fe0000000000000 3ff199999999999a",
        ),
        (
            frame(
                Some("d_2.a"),
                Some(0),
                Request::Designer {
                    candidates: vec![
                        vec![TileIndex::new(1, 1)],
                        vec![TileIndex::new(0, 3), TileIndex::new(12, 2)],
                        vec![],
                    ],
                },
            ),
            "req d_2.a 0 designer 1:1;0:3,12:2;",
        ),
        (
            frame(
                Some("t-1"),
                Some(2000),
                transient(ControllerSpec::Constant {
                    current: Amperes(2.5),
                }),
            ),
            "req t-1 2000 transient 3fe0000000000000 4055400000000000 \
             3feccccccccccccd:3:3fd0000000000000:8 const:4004000000000000 \
             4000000000000000:3fa999999999999a:3fe3333333333333;\
             4008000000000000:3f947ae147ae147b",
        ),
        (
            frame(
                None,
                None,
                transient(ControllerSpec::BangBang {
                    upper: Celsius(80.0),
                    lower: Celsius(76.0),
                    on_current: Amperes(4.0),
                }),
            ),
            "req - - transient 3fe0000000000000 4055400000000000 \
             3feccccccccccccd:3:3fd0000000000000:8 \
             bang:4054000000000000:4053000000000000:4010000000000000 \
             4000000000000000:3fa999999999999a:3fe3333333333333;\
             4008000000000000:3f947ae147ae147b",
        ),
        (
            frame(
                None,
                None,
                transient(ControllerSpec::Proportional {
                    target: Celsius(78.0),
                    gain: 0.75,
                    max_current: Amperes(6.0),
                }),
            ),
            "req - - transient 3fe0000000000000 4055400000000000 \
             3feccccccccccccd:3:3fd0000000000000:8 \
             prop:4053800000000000:3fe8000000000000:4018000000000000 \
             4000000000000000:3fa999999999999a:3fe3333333333333;\
             4008000000000000:3f947ae147ae147b",
        ),
        (
            frame(
                Some("x-1"),
                Some(30_000),
                Request::Explore {
                    theta_limit: Celsius(85.0),
                    thickness_scales: vec![0.5, 2.0],
                    contact_scales: vec![1.0],
                    placements: vec![
                        Placement::Greedy,
                        Placement::Tiles(vec![TileIndex::new(1, 1), TileIndex::new(2, 13)]),
                        Placement::Tiles(vec![]),
                    ],
                },
            ),
            "req x-1 30000 explore 4055400000000000 3fe0000000000000,4000000000000000 \
             3ff0000000000000 g;t:1.1,2.13;t:",
        ),
    ]
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Steady {
                peak: Celsius(81.5),
                tec_power: Watts(0.25),
            },
            "ok k steady 4054600000000000 3fd0000000000000",
        ),
        (
            Response::Runaway {
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
            },
            "ok k runaway 401f000000000000 \
             3ff0000000000000:4056800000000000:3fe0000000000000 4022000000000000:-:-",
        ),
        (
            Response::Designer {
                scores: vec![
                    CandidateScore {
                        device_count: 3,
                        current: Amperes(2.5),
                        peak: Celsius(79.0),
                        tec_power: Watts(0.4),
                        evaluations: 17,
                    },
                    CandidateScore {
                        device_count: 0,
                        current: Amperes(0.0),
                        peak: Celsius(95.0),
                        tec_power: Watts(0.0),
                        evaluations: 1,
                    },
                ],
            },
            "ok k designer 3:4004000000000000:4053c00000000000:3fd999999999999a:17 \
             0:0000000000000000:4057c00000000000:0000000000000000:1",
        ),
        (
            Response::Transient {
                steps: 10,
                peak: Celsius(83.25),
                violation_fraction: 0.1,
                tec_energy_joules: 1.5,
                envelope_events: 2,
                tripped: true,
                solves: 12,
            },
            "ok k transient 10 4054d00000000000 3fb999999999999a 3ff8000000000000 2 1 12",
        ),
        (
            Response::Explore {
                evaluated: 40,
                pruned: 9,
                feasible: 12,
                quarantined: 2,
                front_total: 2,
                front: vec![
                    ParetoPoint::new(0xabcd, Amperes(2.5), Celsius(78.0), Watts(0.75)).unwrap(),
                    ParetoPoint::new(7, Amperes(1.5), Celsius(82.0), Watts(0.25)).unwrap(),
                ],
            },
            "ok k explore 40 9 12 2 2 \
             000000000000abcd:4004000000000000:4053800000000000:3fe8000000000000 \
             0000000000000007:3ff8000000000000:4054800000000000:3fd0000000000000",
        ),
        (
            Response::Explore {
                evaluated: 0,
                pruned: 0,
                feasible: 0,
                quarantined: 0,
                front_total: 0,
                front: vec![],
            },
            "ok k explore 0 0 0 0 0",
        ),
    ]
}

#[test]
fn golden_request_frames_are_byte_identical() {
    for (frame, want) in golden_requests() {
        assert_eq!(encode_request(&frame), want);
        assert_eq!(decode_request(want).unwrap(), frame, "via `{want}`");
    }
    // The fingerprint binds replicated cache entries across shards.
    let steady = Request::Steady {
        current: Amperes(3.25),
    };
    assert_eq!(request_fingerprint(&steady), 0xc08a_955e_2d09_b29e);
}

#[test]
fn golden_response_frames_are_byte_identical() {
    for (response, want) in golden_responses() {
        let result = Ok(response);
        assert_eq!(encode_response(Some("k"), &result), want);
        let back = decode_response(want).unwrap();
        assert_eq!(back.key.as_deref(), Some("k"));
        assert_eq!(back.result.as_ref().ok(), result.as_ref().ok());
    }
    let err = ServeError::Overloaded {
        depth: 8,
        capacity: 8,
    };
    let line = encode_response(None, &Err(err));
    assert_eq!(
        line,
        "err - overloaded overloaded: admission queue full (8 of 8 slots)"
    );
    let back = decode_response(&line).unwrap();
    assert_eq!(back.key, None);
    assert_eq!(
        back.result.unwrap_err(),
        (
            "overloaded".to_string(),
            "overloaded: admission queue full (8 of 8 slots)".to_string()
        )
    );
}

#[test]
fn golden_fleet_frames_are_byte_identical() {
    assert_eq!(encode_ping(0xab), "ping 00000000000000ab");
    assert_eq!(encode_pong(u64::MAX), "pong ffffffffffffffff");
    assert_eq!(decode_ping("ping 00000000000000ab"), Some(0xab));
    assert_eq!(decode_pong("pong ffffffffffffffff"), Some(u64::MAX));
    let repl = ReplFrame {
        request_fp: 0x0123_4567_89ab_cdef,
        key: "job-7".into(),
        response: Response::Steady {
            peak: Celsius(81.5),
            tec_power: Watts(0.25),
        },
    };
    let want = "#repl 0123456789abcdef 3060abdfd110874e job-7 \
                ok - steady 4054600000000000 3fd0000000000000";
    assert_eq!(encode_repl(&repl), want);
    assert_eq!(decode_extension(want).unwrap(), Some(repl));
}

/// The full text of a one-record checkpoint file holding `record`.
fn checkpoint_text<R: Checkpointable>(record: &R) -> String {
    let path = scratch(&format!("golden-{}", R::KIND));
    let header = Header {
        noun: "checkpoint",
        kind: R::KIND,
        fingerprint: 0x5eed,
        total: 1,
    };
    let file = RecordFile::open(&path, &header, |_| {}).unwrap();
    file.append("item", "0", &record.encode()).unwrap();
    std::fs::read_to_string(&path).unwrap()
}

fn header_text(kind: &str, total: usize) -> String {
    format!("tecopt-record v2\nkind {kind}\nfingerprint 0000000000005eed\ntotal {total}\n")
}

#[test]
fn golden_record_lines_are_byte_identical() {
    let point = SweepPoint {
        current: Amperes(1.0),
        peak: Some(Celsius(90.0)),
        tec_power: None,
    };
    assert_eq!(
        checkpoint_text(&point),
        header_text("runaway-sweep", 1)
            + "item 0 70dea89b9c3c77a7 3ff0000000000000 4056800000000000 -\n"
    );
    let score = CandidateScore {
        device_count: 3,
        current: Amperes(2.5),
        peak: Celsius(79.0),
        tec_power: Watts(0.4),
        evaluations: 17,
    };
    assert_eq!(
        checkpoint_text(&score),
        header_text("designer-candidates", 1)
            + "item 0 5bab6f919fe01952 3 4004000000000000 4053c00000000000 \
               3fd999999999999a 17\n"
    );
    let outcomes: [(Option<CertificateOutcome>, &str); 3] = [
        (None, "item 0 84fa7fdd934091e3 pass\n"),
        (
            Some(CertificateOutcome::Certified),
            "item 0 c7af320a6504e1e7 certified\n",
        ),
        (
            Some(CertificateOutcome::Inconclusive {
                tile: 5,
                interval: (0.5, 1.5),
                lower_bound: -0.25,
            }),
            "item 0 33551388945b36de inconclusive 5 3fe0000000000000 3ff8000000000000 \
             bfd0000000000000\n",
        ),
    ];
    for (outcome, line) in outcomes {
        assert_eq!(
            checkpoint_text(&outcome),
            header_text("convexity-subranges", 1) + line
        );
    }

    let path = scratch("golden-ledger");
    let (ledger, _) = Ledger::open(&path, 0x5eed, 4).unwrap();
    ledger.claim(7, 2).unwrap();
    ledger.record(&EvalRecord::Pruned { id: 8 }).unwrap();
    ledger
        .record(&EvalRecord::Evaluated {
            id: 9,
            feasible: true,
            devices: 4,
            current: Amperes(2.5),
            peak: Celsius(79.0),
            tec_power: Watts(0.4),
            evaluations: 33,
        })
        .unwrap();
    ledger
        .quarantine(&QuarantineRecord::new(
            10,
            3,
            QuarantineReason::Envelope,
            "beyond λ_m: i = 9 A",
            Some(PartialPrefix {
                devices: 2,
                peak: Celsius(88.0),
            }),
        ))
        .unwrap();
    ledger
        .quarantine(&QuarantineRecord::new(
            11,
            1,
            QuarantineReason::Panicked,
            "",
            None,
        ))
        .unwrap();
    drop(ledger);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        header_text("explore-candidates", 4)
            + "claim 0000000000000007 86f948e013455d0e 2\n\
               done 0000000000000008 c8f506e8f093ce35 pruned\n\
               done 0000000000000009 3abbd05f7a152aca eval 1 4 4004000000000000 \
               4053c00000000000 3fd999999999999a 33\n\
               quar 000000000000000a 57c27b4f11d59f8f 3 envelope 2:4056000000000000 \
               beyond λ_m: i = 9 A\n\
               quar 000000000000000b e9dd201168833d83 1 panic - \n"
    );
}

// ---------------------------------------------------------------------
// Generated messages
// ---------------------------------------------------------------------

/// A deterministic source of message parts, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    /// Any bits: NaN, infinities and subnormals included.
    fn bits(&mut self) -> f64 {
        f64::from_bits(self.next())
    }
    fn finite(&mut self) -> f64 {
        let v = self.bits();
        if v.is_finite() {
            v
        } else {
            self.below(1000) as f64 - 500.0
        }
    }
    fn positive(&mut self) -> f64 {
        let v = self.finite().abs();
        if v > 0.0 {
            v
        } else {
            1.0
        }
    }
    fn count(&mut self) -> usize {
        [0, 1, 17, usize::MAX, self.next() as usize][self.below(5)]
    }
    fn vec<T>(&mut self, min: usize, max: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = min + self.below(max - min + 1);
        (0..n).map(|_| item(self)).collect()
    }
    fn key(&mut self) -> Option<String> {
        const CHARS: &[u8] = b"abcXYZ019-_.";
        match self.below(3) {
            0 => None,
            _ => {
                let mut key: String = self
                    .vec(1, 12, |g| CHARS[g.below(CHARS.len())] as char)
                    .into_iter()
                    .collect();
                if key.starts_with('.') || key == "-" {
                    key.insert(0, 'k');
                }
                Some(key)
            }
        }
    }
    fn tile(&mut self) -> TileIndex {
        TileIndex::new(self.count(), self.below(64))
    }
    fn request(&mut self) -> Request {
        match self.below(5) {
            0 => Request::Steady {
                current: Amperes(self.bits()),
            },
            1 => Request::Runaway {
                lambda_tolerance: self.bits(),
                fractions: self.vec(1, 6, Gen::bits),
            },
            2 => {
                // `[[]]` and `[]` share the encoding `designer `, which the
                // decoder refuses: a sweep needs at least one candidate.
                let mut candidates = self.vec(1, 4, |g| g.vec(0, 3, Gen::tile));
                if candidates.len() == 1 && candidates[0].is_empty() {
                    candidates[0].push(self.tile());
                }
                Request::Designer { candidates }
            }
            3 => {
                let controller = match self.below(3) {
                    0 => ControllerSpec::Constant {
                        current: Amperes(self.bits()),
                    },
                    1 => ControllerSpec::BangBang {
                        upper: Celsius(self.bits()),
                        lower: Celsius(self.bits()),
                        on_current: Amperes(self.bits()),
                    },
                    _ => ControllerSpec::Proportional {
                        target: Celsius(self.bits()),
                        gain: self.bits(),
                        max_current: Amperes(self.bits()),
                    },
                };
                Request::Transient {
                    dt: 1.0 + self.below(5) as f64,
                    limit: Celsius(self.finite()),
                    envelope: EnvelopeSettings {
                        margin: self.bits(),
                        trip_after: self.count(),
                        fallback: Amperes(self.bits()),
                        recovery_steps: self.count(),
                    },
                    controller,
                    schedule: self.vec(1, 3, |g| {
                        (
                            1.0 + g.below(100) as f64,
                            g.vec(1, 4, |g| Watts(g.finite())),
                        )
                    }),
                }
            }
            _ => Request::Explore {
                theta_limit: Celsius(self.finite()),
                thickness_scales: self.vec(1, 4, Gen::positive),
                contact_scales: self.vec(1, 4, Gen::positive),
                placements: self.vec(1, 4, |g| match g.below(2) {
                    0 => Placement::Greedy,
                    _ => Placement::Tiles(g.vec(0, 3, Gen::tile)),
                }),
            },
        }
    }
    fn response(&mut self) -> Response {
        match self.below(5) {
            0 => Response::Steady {
                peak: Celsius(self.bits()),
                tec_power: Watts(self.bits()),
            },
            1 => Response::Runaway {
                lambda: Amperes(self.bits()),
                points: self.vec(0, 5, |g| SweepPoint {
                    current: Amperes(g.bits()),
                    peak: (g.below(2) == 0).then(|| Celsius(g.bits())),
                    tec_power: (g.below(2) == 0).then(|| Watts(g.bits())),
                }),
            },
            2 => Response::Designer {
                scores: self.vec(0, 5, |g| CandidateScore {
                    device_count: g.count(),
                    current: Amperes(g.bits()),
                    peak: Celsius(g.bits()),
                    tec_power: Watts(g.bits()),
                    evaluations: g.count(),
                }),
            },
            3 => Response::Transient {
                steps: self.count(),
                peak: Celsius(self.bits()),
                violation_fraction: self.bits(),
                tec_energy_joules: self.bits(),
                envelope_events: self.count(),
                tripped: self.below(2) == 1,
                solves: self.next(),
            },
            _ => {
                let front = self.vec(0, 5, |g| {
                    ParetoPoint::new(
                        g.next(),
                        Amperes(g.finite()),
                        Celsius(g.finite()),
                        Watts(g.finite()),
                    )
                    .unwrap()
                });
                Response::Explore {
                    evaluated: self.count(),
                    pruned: self.count(),
                    feasible: self.count(),
                    quarantined: self.count(),
                    front_total: front.len() + self.below(3),
                    front,
                }
            }
        }
    }
}

/// Bit-exact structural identity: `Debug` prints every field and
/// re-encoding pins every bit (NaN payloads included), which `==` on
/// `f64` cannot.
fn same<T: std::fmt::Debug>(a: &T, b: &T, line_a: &str, line_b: &str) -> bool {
    format!("{a:?}") == format!("{b:?}") && line_a == line_b
}

/// Every decoder, fed `line`: each either decodes or returns a typed
/// `DecodeError`, and nothing decoded is longer than its cap.
fn decode_everything(line: &str) {
    use tecopt_serve::wire::{MAX_CANDIDATES, MAX_EXPLORE_FRONT, MAX_SWEEP_FRACTIONS};
    match decode_request(line) {
        Ok(frame) => match frame.request {
            Request::Runaway { fractions, .. } => assert!(fractions.len() <= MAX_SWEEP_FRACTIONS),
            Request::Designer { candidates } => assert!(candidates.len() <= MAX_CANDIDATES),
            _ => {}
        },
        Err(ServeError::DecodeError(_)) => {}
        Err(other) => panic!("`{line}`: untyped request error {other:?}"),
    }
    let check_response = |r: &Response| match r {
        Response::Runaway { points, .. } => assert!(points.len() <= MAX_SWEEP_FRACTIONS),
        Response::Designer { scores } => assert!(scores.len() <= MAX_CANDIDATES),
        Response::Explore { front, .. } => assert!(front.len() <= MAX_EXPLORE_FRONT),
        _ => {}
    };
    match decode_response(line) {
        Ok(frame) => {
            if let Ok(r) = &frame.result {
                check_response(r);
            }
        }
        Err(ServeError::DecodeError(_)) => {}
        Err(other) => panic!("`{line}`: untyped response error {other:?}"),
    }
    match decode_extension(line) {
        Ok(Some(repl)) => check_response(&repl.response),
        Ok(None) | Err(ServeError::DecodeError(_)) => {}
        Err(other) => panic!("`{line}`: untyped extension error {other:?}"),
    }
    let _ = (decode_ping(line), decode_pong(line));
}

/// Tokens the codec knows, so generated garbage reaches deep parser paths.
const TOKENS: &[&str] = &[
    "req",
    "ok",
    "err",
    "#repl",
    "ping",
    "pong",
    "-",
    "steady",
    "runaway",
    "designer",
    "transient",
    "explore",
    "const",
    "bang",
    "prop",
    "g",
    "t",
    "0",
    "1",
    "17",
    "99999999999999999999999",
    "3ff0000000000000",
    "7ff8000000000000",
    "0000000000000000",
    "fff0000000000000",
    "zz",
    "",
    "k",
    ".k",
    "é",
];
const SEPARATORS: &[&str] = &[" ", " ", " ", ":", ",", ";", ".", "  ", "\t", "\r"];

fn soup(g: &mut Gen) -> String {
    let mut line = String::new();
    for _ in 0..g.below(40) {
        line.push_str(TOKENS[g.below(TOKENS.len())]);
        line.push_str(SEPARATORS[g.below(SEPARATORS.len())]);
    }
    line
}

fn truncate_at_char(line: &str, at: f64) -> &str {
    let mut cut = ((line.len() as f64) * at) as usize;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    &line[..cut]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(seed in 0u64..=u64::MAX, deadline in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let frame = RequestFrame {
            key: g.key(),
            deadline_ms: (g.below(2) == 0).then_some(deadline),
            request: g.request(),
        };
        let line = encode_request(&frame);
        let back = decode_request(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        prop_assert!(same(&back, &frame, &encode_request(&back), &line), "via `{line}`");
        prop_assert_eq!(request_fingerprint(&back.request), request_fingerprint(&frame.request));
    }

    #[test]
    fn every_response_round_trips_bare_and_replicated(seed in 0u64..=u64::MAX, fp in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let key = g.key();
        let response = g.response();
        let line = encode_response(key.as_deref(), &Ok(response.clone()));
        let back = decode_response(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        prop_assert_eq!(&back.key, &key);
        let again = encode_response(back.key.as_deref(), &back.result.clone().map_err(|_| ServeError::ShuttingDown));
        prop_assert!(same(back.result.as_ref().unwrap(), &response, &again, &line), "via `{line}`");

        let repl = ReplFrame { request_fp: fp, key: key.unwrap_or_else(|| "k".into()), response };
        let line = encode_repl(&repl);
        let back = decode_extension(&line).unwrap().unwrap();
        prop_assert!(same(&back, &repl, &encode_repl(&back), &line), "via `{line}`");

        let err = ServeError::DecodeError(format!("bad {seed}\nline two"));
        let line = encode_response(None, &Err(err.clone()));
        let (code, message) = decode_response(&line).unwrap().result.unwrap_err();
        prop_assert_eq!(code, "decode");
        prop_assert_eq!(message, err.to_string().replace('\n', " "));
    }

    #[test]
    fn ping_and_pong_round_trip(nonce in 0u64..=u64::MAX) {
        prop_assert_eq!(decode_ping(&encode_ping(nonce)), Some(nonce));
        prop_assert_eq!(decode_pong(&encode_pong(nonce)), Some(nonce));
        prop_assert_eq!(decode_ping(&encode_pong(nonce)), None);
    }

    #[test]
    fn arbitrary_bytes_decode_to_typed_errors(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        decode_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_decodes_to_typed_errors(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let line = soup(&mut g);
        decode_everything(&line);
        for tag in ["req - - ", "ok - ", "err k ", "#repl 0000000000000000 0000000000000000 k "] {
            decode_everything(&format!("{tag}{line}"));
        }
    }

    #[test]
    fn truncated_frames_decode_to_typed_errors(seed in 0u64..=u64::MAX, at in 0.0f64..1.0) {
        let mut g = Gen(seed);
        let frames = [
            encode_request(&RequestFrame { key: g.key(), deadline_ms: None, request: g.request() }),
            encode_response(g.key().as_deref(), &Ok(g.response())),
            encode_repl(&ReplFrame { request_fp: g.next(), key: "k".into(), response: g.response() }),
        ];
        for line in &frames {
            decode_everything(truncate_at_char(line, at));
        }
    }

    #[test]
    fn oversized_frames_are_refused_by_every_reader(seed in 0u64..=u64::MAX, pad in 0usize..64) {
        let mut g = Gen(seed);
        let fill = |head: String| {
            let mut line = head;
            while line.len() < MAX_FRAME_LEN + pad {
                line.push_str(" 3ff0000000000000");
            }
            line
        };
        let request = fill(format!("req - - runaway {}", g.next() % 10));
        let response = fill("ok - runaway 3ff0000000000000".to_string());
        for line in [&request, &response] {
            prop_assert!(matches!(decode_request(line), Err(ServeError::DecodeError(_))));
            prop_assert!(matches!(decode_response(line), Err(ServeError::DecodeError(_))));
            prop_assert!(matches!(decode_extension(line), Err(ServeError::DecodeError(_))));
            let mut buf = line.as_bytes().to_vec();
            prop_assert!(tecopt_serve::wire::split_frame(&mut buf).is_err());
        }
    }

    #[test]
    fn the_frame_splitter_recovers_every_frame_from_any_chunking(
        seed in 0u64..=u64::MAX,
        chunks in proptest::collection::vec(1usize..300, 1..40),
    ) {
        let mut g = Gen(seed);
        let frames: Vec<String> = (0..4).map(|_| encode_response(None, &Ok(g.response()))).collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| format!("{f}\r\n").into_bytes()).collect();
        let (mut buf, mut got, mut at) = (Vec::new(), Vec::new(), 0);
        for size in chunks.iter().cycle() {
            if at >= stream.len() {
                break;
            }
            let end = (at + size).min(stream.len());
            buf.extend_from_slice(&stream[at..end]);
            at = end;
            while let Some(frame) = tecopt_serve::wire::split_frame(&mut buf).unwrap() {
                got.push(String::from_utf8(frame).unwrap());
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert!(buf.is_empty());
    }
}

// ---------------------------------------------------------------------
// Frame-size and decoder-consistency regressions
// ---------------------------------------------------------------------

/// `n` sweep points whose every field takes its full encoded width.
fn full_width_points(n: usize) -> Vec<SweepPoint> {
    (0..n)
        .map(|i| SweepPoint {
            current: Amperes(1.0 + i as f64 * 1e-6),
            peak: Some(Celsius(70.0 + i as f64 * 1e-6)),
            tec_power: Some(Watts(0.5 + i as f64 * 1e-6)),
        })
        .collect()
}

/// Encodes `response` under a maximal key, bare and wrapped in `#repl`,
/// and checks both frames fit the cap (terminator included) and decode.
fn assert_deliverable(response: Response) {
    let key = "k".repeat(128);
    let line = encode_response(Some(&key), &Ok(response.clone()));
    assert!(
        line.len() < MAX_FRAME_LEN,
        "response frame is {} bytes + terminator",
        line.len()
    );
    let back = decode_response(&line).unwrap();
    assert_eq!(back.result.unwrap(), response);
    let repl = ReplFrame {
        request_fp: u64::MAX,
        key,
        response,
    };
    let line = encode_repl(&repl);
    assert!(
        line.len() < MAX_FRAME_LEN,
        "#repl frame is {} bytes + terminator",
        line.len()
    );
    assert_eq!(decode_extension(&line).unwrap(), Some(repl));
}

#[test]
fn a_runaway_sweep_that_fits_one_request_gets_a_response_that_fits_one_frame() {
    use tecopt_serve::wire::MAX_SWEEP_FRACTIONS;
    assert_eq!(MAX_SWEEP_FRACTIONS, 1281);
    let request = |n: usize| {
        encode_request(&frame(
            Some(&"k".repeat(128)),
            Some(u64::MAX),
            Request::Runaway {
                lambda_tolerance: 1e-9,
                fractions: (0..n).map(|i| 0.5 + i as f64 * 1e-6).collect(),
            },
        ))
    };
    // The largest sweep a request may carry is admitted...
    assert!(decode_request(&request(MAX_SWEEP_FRACTIONS)).is_ok());
    assert!(matches!(
        decode_request(&request(MAX_SWEEP_FRACTIONS + 1)),
        Err(ServeError::DecodeError(_))
    ));
    // ...and its worst-case answer reaches the client, even replicated.
    assert_deliverable(Response::Runaway {
        lambda: Amperes(7.75),
        points: full_width_points(MAX_SWEEP_FRACTIONS),
    });
}

#[test]
fn maximal_designer_and_explore_responses_fit_one_frame_even_replicated() {
    use tecopt_serve::wire::{MAX_CANDIDATES, MAX_EXPLORE_CANDIDATES, MAX_EXPLORE_FRONT};
    assert_eq!(MAX_CANDIDATES, 702);
    let score = CandidateScore {
        device_count: usize::MAX,
        current: Amperes(2.5),
        peak: Celsius(79.0),
        tec_power: Watts(0.4),
        evaluations: usize::MAX,
    };
    assert_deliverable(Response::Designer {
        scores: vec![score; MAX_CANDIDATES],
    });
    let front = (0..MAX_EXPLORE_FRONT)
        .map(|i| {
            let d = i as f64 * 1e-6;
            ParetoPoint::new(
                u64::MAX - i as u64,
                Amperes(1.0 + d),
                Celsius(70.0 + d),
                Watts(0.5 + d),
            )
            .unwrap()
        })
        .collect();
    assert_deliverable(Response::Explore {
        evaluated: MAX_EXPLORE_CANDIDATES,
        pruned: MAX_EXPLORE_CANDIDATES,
        feasible: MAX_EXPLORE_CANDIDATES,
        quarantined: MAX_EXPLORE_CANDIDATES,
        front_total: MAX_EXPLORE_CANDIDATES,
        front,
    });
}

#[test]
fn every_decoder_enforces_the_same_length_cap_and_key_rule() {
    // A designer sweep within every cardinality cap but past the frame
    // cap: refused like any oversized response or `#repl` frame.
    let candidates = vec![vec![TileIndex::new(10, 10); 20]; 600];
    let line = encode_request(&frame(None, None, Request::Designer { candidates }));
    assert!(line.len() > MAX_FRAME_LEN);
    assert!(matches!(
        decode_request(&line),
        Err(ServeError::DecodeError(_))
    ));
    // A response key is held to the same rule as a request key.
    for key in ["bad/key", ".hidden", &"k".repeat(129)] {
        for line in [
            format!("req {key} - steady 4054600000000000"),
            format!("ok {key} steady 4054600000000000 3fd0000000000000"),
            format!("err {key} overloaded full"),
        ] {
            assert!(
                matches!(decode_request(&line), Err(ServeError::DecodeError(_)))
                    && matches!(decode_response(&line), Err(ServeError::DecodeError(_))),
                "`{line}` must be refused"
            );
        }
    }
}
