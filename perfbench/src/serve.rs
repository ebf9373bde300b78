//! `serve`: a closed loop of `nproc` clients, one TCP loopback
//! connection each, no retries, against one in-process `Server` with
//! `ServerConfig::default()` running `TecEvaluator` on the Alpha
//! deployment. The seeded script is mostly distinct un-keyed `Steady`
//! requests at varied currents plus one short, distinct `Transient`
//! playback in every [`TRANSIENT_EVERY`]; no request repeats, so neither
//! the idempotency cache nor the transient result cache answers any.
//! The default admission queue (32) exceeds the client count, so
//! nothing sheds.

use crate::common::{
    nodes_of, repeated_setup, report_linalg, report_shared_layers, Rng, Run, Sampler,
};
use crate::report::Report;
use crate::stats::{median, nearest_rank, reportable_tail};
use crate::trace::{Tracer, GLUE};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tecopt::parallel::worker_count;
use tecopt::transient::ControllerSpec;
use tecopt::{runaway_limit, CoolingSystem, CurrentSettings, EnvelopeSettings, RunContext};
use tecopt_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use tecopt_serve::{
    Engine, EngineConfig, Evaluator, Listener, Request, RequestFrame, Server, ServerConfig,
    ServerReport, TecEvaluator,
};
use tecopt_units::{Amperes, Celsius, Watts};

/// Requests each client sends per round.
const CLIENT_REQUESTS: usize = 96;
/// One request in this many is a transient playback.
const TRANSIENT_EVERY: usize = 16;
/// Transient playback shape: two segments of this many seconds at `DT`.
const SEGMENT_S: f64 = 5.0;
const DT: f64 = 0.5;
/// Rounds the traced run plays untraced and then traced.
const TRACED_ROUNDS: usize = 3;

/// The seeded request script: request `k` of the run, distinct for
/// every `k`. Steady currents follow a golden-ratio rotation from a
/// seeded offset (distinct, evenly spread over 0.2–6.2 A); transient
/// playbacks run a constant current from the same rotation over a
/// seeded scaling of the worst-case powers.
struct Script {
    offset: f64,
    power_scale: f64,
    powers: Vec<Watts>,
}

impl Script {
    fn new(seed: u64, system: &CoolingSystem) -> Script {
        let mut rng = Rng::new(seed, 4);
        Script {
            offset: rng.unit(),
            power_scale: 0.6 + 0.3 * rng.unit(),
            powers: system.tile_powers().to_vec(),
        }
    }

    fn current(&self, k: usize) -> Amperes {
        let u = (k as f64 * 0.618_033_988_749_894_9 + self.offset).fract();
        Amperes(0.2 + 6.0 * u)
    }

    fn request(&self, k: usize) -> Request {
        if !is_transient(k) {
            return Request::Steady {
                current: self.current(k),
            };
        }
        let low: Vec<Watts> = self
            .powers
            .iter()
            .map(|p| Watts(p.value() * self.power_scale))
            .collect();
        Request::Transient {
            dt: DT,
            limit: Celsius(85.0),
            envelope: EnvelopeSettings::default(),
            controller: ControllerSpec::Constant {
                current: self.current(k),
            },
            schedule: vec![(SEGMENT_S, self.powers.clone()), (SEGMENT_S, low)],
        }
    }

    fn frame(&self, k: usize) -> RequestFrame {
        RequestFrame {
            key: None,
            deadline_ms: None,
            request: self.request(k),
        }
    }
}

/// `true` for the script's transient requests.
fn is_transient(k: usize) -> bool {
    k % TRANSIENT_EVERY == TRANSIENT_EVERY - 1
}

struct Setup {
    system: CoolingSystem,
    server: Server<TecEvaluator>,
    addr: String,
}

fn build(seed: u64) -> Result<Setup, String> {
    let system = crate::table1::alpha_deployment()?;
    let evaluator = TecEvaluator::new(system.clone(), CurrentSettings::default());
    // The evaluator computes λ_m on its first transient request; a
    // warm-up playback outside the script does that here.
    let warm = Script::new(seed ^ 0x5741_524d, &system).request(TRANSIENT_EVERY - 1);
    evaluator
        .evaluate(&warm, &RunContext::unbounded())
        .map_err(|e| format!("warm-up: {e}"))?;
    let engine = Arc::new(Engine::new(evaluator, EngineConfig::default()));
    let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .ok_or("listener has no address")?
        .to_string();
    let server = Server::new(listener, engine, ServerConfig::default());
    Ok(Setup {
        system,
        server,
        addr,
    })
}

/// One client request as observed from outside: latency and the raw
/// response line.
struct Observed {
    k: usize,
    latency_s: f64,
    line: String,
}

fn round_trip(stream: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
    stream
        .get_mut()
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    stream.read_line(&mut reply).map_err(|e| e.to_string())?;
    reply.truncate(reply.trim_end().len());
    Ok(reply)
}

/// One client's share of a round: requests `first_k`, `first_k +
/// stride`, … sent one after another on its connection.
fn client_round(
    stream: &mut BufReader<TcpStream>,
    script: &Script,
    first_k: usize,
    stride: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Observed>, String> {
    let mut out = Vec::with_capacity(CLIENT_REQUESTS);
    for j in 0..CLIENT_REQUESTS {
        let k = first_k + j * stride;
        let frame = script.frame(k);
        let start = Instant::now();
        let line = match tracer.as_deref_mut() {
            Some(t) => {
                let line = t.span("wire", |_| encode_request(&frame) + "\n");
                t.span("server", |_| round_trip(stream, &line))?
            }
            None => round_trip(stream, &(encode_request(&frame) + "\n"))?,
        };
        out.push(Observed {
            k,
            latency_s: start.elapsed().as_secs_f64(),
            line,
        });
    }
    Ok(out)
}

/// Every observation of some rounds, and the rounds' times.
type Played = (Vec<Observed>, Sampler);

/// One client's observations of a round, and its spans when traced.
type ClientRound = Result<(Vec<Observed>, Option<Tracer>), String>;

/// Plays rounds on the clients' connections until `seconds` pass, at
/// least `min_rounds` and at most `max_rounds` of them. Request indices
/// continue from `next_k`.
#[allow(clippy::too_many_arguments)]
fn play(
    conns: &mut [BufReader<TcpStream>],
    script: &Script,
    next_k: &mut usize,
    seconds: f64,
    (min_rounds, max_rounds): (usize, usize),
    tracers: Option<&mut Vec<Tracer>>,
    origin: Instant,
) -> Result<Played, String> {
    let clients = conns.len();
    let mut seen = Vec::new();
    let mut times = Sampler::default();
    let start = Instant::now();
    let mut traced: Vec<Tracer> = Vec::new();
    while times.raw.len() < min_rounds
        || (times.raw.len() < max_rounds && start.elapsed().as_secs_f64() < seconds)
    {
        let base = *next_k;
        let results: Vec<ClientRound> = times.time(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let trace = tracers.is_some();
                        s.spawn(move || {
                            if trace {
                                let mut tr = Tracer::new(origin);
                                let obs = tr.span(GLUE, |t| {
                                    client_round(conn, script, base + c, clients, Some(t))
                                })?;
                                Ok((obs, Some(tr)))
                            } else {
                                Ok((client_round(conn, script, base + c, clients, None)?, None))
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("client thread panicked".into()))
                    })
                    .collect()
            })
        });
        for r in results {
            let (obs, tr) = r?;
            seen.extend(obs);
            traced.extend(tr);
        }
        *next_k += clients * CLIENT_REQUESTS;
    }
    if let Some(out) = tracers {
        out.extend(traced);
    }
    Ok((seen, times))
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let setup = repeated_setup(report, || build(run.seed))?;
    let script = Script::new(run.seed, &setup.system);
    let clients = worker_count();
    let shutdown = setup.server.shutdown_token();
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = Vec::new();

    type Outcome = Result<(Played, Option<Played>), String>;
    let (outcome, server_report): (Outcome, Result<ServerReport, String>) =
        std::thread::scope(|s| {
            let server = s.spawn(|| setup.server.run());
            let outcome = (|| {
                let mut conns = Vec::new();
                for _ in 0..clients {
                    let stream = TcpStream::connect(&setup.addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .map_err(|e| e.to_string())?;
                    conns.push(BufReader::new(stream));
                }
                let mut next_k = 0;
                let fixed = (TRACED_ROUNDS, TRACED_ROUNDS);
                let rounds = if run.trace { fixed } else { (1, usize::MAX) };
                let plain = play(
                    &mut conns,
                    &script,
                    &mut next_k,
                    run.seconds,
                    rounds,
                    None,
                    origin,
                )?;
                let traced = if run.trace {
                    Some(play(
                        &mut conns,
                        &script,
                        &mut next_k,
                        0.0,
                        fixed,
                        Some(&mut tracers),
                        origin,
                    )?)
                } else {
                    None
                };
                drop(conns);
                Ok((plain, traced))
            })();
            shutdown.cancel();
            let report = server
                .join()
                .map_err(|_| "server thread panicked".to_string());
            (outcome, report)
        });
    let ((observed, times), traced) = outcome?;
    let server_report = server_report?;

    // Every response must be bit-identical to a direct evaluation: one
    // shared evaluator, the requests split over `clients` threads.
    let checking = Instant::now();
    let oracle = TecEvaluator::new(setup.system.clone(), CurrentSettings::default());
    let all: Vec<&Observed> = observed
        .iter()
        .chain(traced.iter().flat_map(|(o, _)| o))
        .collect();
    let direct: Vec<(String, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(clients).max(1))
            .map(|chunk| {
                let (oracle, script) = (&oracle, &script);
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|obs| {
                            let t = Instant::now();
                            let out = oracle
                                .evaluate(&script.request(obs.k), &RunContext::unbounded())
                                .map_err(tecopt_serve::ServeError::from);
                            (encode_response(None, &out), t.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    report.check(direct.len() == all.len(), || {
        "an oracle thread failed".into()
    });
    let mut eval_s = Vec::with_capacity(all.len());
    for (obs, (expected, took)) in all.iter().zip(&direct) {
        eval_s.push(*took);
        report.check(obs.line == *expected, || {
            format!(
                "request {}: served {:?}, direct evaluation {:?}",
                obs.k, obs.line, expected
            )
        });
    }
    let e = server_report.engine;
    report.check(
        e.shed_overload == 0 && e.completed_err == 0 && e.deduplicated == 0,
        || {
            format!(
                "engine shed {}, failed {}, deduplicated {}",
                e.shed_overload, e.completed_err, e.deduplicated
            )
        },
    );
    let frames: BTreeSet<String> = all
        .iter()
        .map(|o| encode_request(&script.frame(o.k)))
        .collect();
    let repeated = all.len() - frames.len();

    let latencies: Vec<f64> = observed.iter().map(|o| o.latency_s).collect();
    let wall_s = times.median();
    eprintln!(
        "serve: {clients} clients, {} requests in {} rounds, round {wall_s:.3} s, p50 {:.3} ms; checked in {:.1} s",
        observed.len(),
        times.raw.len(),
        median(&latencies).unwrap_or(0.0) * 1e3,
        checking.elapsed().as_secs_f64()
    );
    if let Some((obs, traced_times)) = &traced {
        return traced_metrics(
            report,
            &setup,
            &script,
            obs,
            &all,
            &eval_s,
            server_report,
            repeated,
            wall_s,
            traced_times,
            tracers,
        );
    }
    report.metric("wall_s", wall_s, "s");
    report.metric("wall_raw_s", median(&times.raw).unwrap_or(0.0), "s");
    report.metric(
        "latency_p50_ms",
        median(&latencies).unwrap_or(0.0) * 1e3,
        "ms",
    );
    if let Some((p, v)) = reportable_tail(&latencies) {
        report.metric(&format!("latency_p{p}_ms"), v * 1e3, "ms");
    }
    report.count("latency_samples", latencies.len());
    report.count("serve.repeated_requests", repeated);
    Ok(())
}

/// Per-layer metrics of the traced run: the wire cost of the workload's
/// own frames, direct evaluation, in-process queueing and the transport
/// share of the client round trip, the server's counters, and the
/// shared layers.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    report: &mut Report,
    setup: &Setup,
    script: &Script,
    traced_obs: &[Observed],
    all: &[&Observed],
    eval_s: &[f64],
    server: ServerReport,
    repeated: usize,
    untraced_wall_s: f64,
    traced_times: &Sampler,
    tracers: Vec<Tracer>,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now());
    for t in tracers {
        tracer.absorb(t);
    }
    // Set-up's layer calls, once more under spans.
    let probes = tracer.span(GLUE, |t| -> Result<usize, String> {
        let system = t.span("assembly", |_| crate::table1::alpha_deployment())?;
        let lim = t
            .span("lambda", |_| {
                runaway_limit(&system, CurrentSettings::default().lambda_tolerance)
            })
            .map_err(|e| e.to_string())?;
        Ok(lim.probes())
    })?;

    // Wire, on the workload's own frames: encode = encode_request (client)
    // + encode_response (server), decode = decode_request (server) +
    // decode_response (client).
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for obs in traced_obs {
        let frame = script.frame(obs.k);
        let t = Instant::now();
        let line = encode_request(&frame);
        let enc_req = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = decode_request(&line).map_err(|e| e.to_string())?;
        let dec_req = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parsed = decode_response(&obs.line).map_err(|e| e.to_string())?;
        let dec_resp = t.elapsed().as_secs_f64();
        let result = parsed
            .result
            .map_err(|(code, msg)| format!("{code}: {msg}"))?;
        let t = Instant::now();
        let reply = encode_response(None, &Ok(result));
        let enc_resp = t.elapsed().as_secs_f64();
        std::hint::black_box((back, reply));
        enc.push(enc_req + enc_resp);
        dec.push(dec_req + dec_resp);
        bytes += line.len() + obs.line.len() + 2;
    }
    report.metric("wire.encode_us", median(&enc).unwrap_or(0.0) * 1e6, "us");
    report.metric("wire.decode_us", median(&dec).unwrap_or(0.0) * 1e6, "us");
    report.count("wire.frame_bytes", bytes / traced_obs.len().max(1));

    // In-process: the traced rounds' Steady requests through
    // Engine::submit → Ticket::wait with the server's worker count, from
    // the same number of clients, on a fresh evaluator (so no result cache
    // already holds them).
    let eval_of: BTreeMap<usize, f64> = all
        .iter()
        .map(|o| o.k)
        .zip(eval_s.iter().copied())
        .collect();
    let steady: Vec<&Observed> = traced_obs.iter().filter(|o| !is_transient(o.k)).collect();
    let engine = Engine::new(
        TecEvaluator::new(setup.system.clone(), CurrentSettings::default()),
        EngineConfig::default(),
    );
    let clients = worker_count();
    let inproc: Vec<(usize, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..ServerConfig::default().eval_workers)
            .map(|w| {
                let engine = &engine;
                s.spawn(move || engine.worker_loop(w))
            })
            .collect();
        let submitters: Vec<_> = steady
            .chunks(steady.len().div_ceil(clients).max(1))
            .map(|chunk| {
                let engine = &engine;
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|o| {
                            let t = Instant::now();
                            engine.submit(script.frame(o.k)).ok()?.wait().ok()?;
                            Some((o.k, t.elapsed().as_secs_f64()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let out: Vec<(usize, f64)> = submitters
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect();
        engine.begin_drain();
        for w in workers {
            let _ = w.join();
        }
        out
    });
    report.check(inproc.len() == steady.len(), || {
        format!(
            "in-process engine answered {} of {}",
            inproc.len(),
            steady.len()
        )
    });
    let latency_of: BTreeMap<usize, f64> = steady.iter().map(|o| (o.k, o.latency_s)).collect();
    let queue: Vec<f64> = inproc.iter().map(|&(k, t)| t - eval_of[&k]).collect();
    let transport: Vec<f64> = inproc.iter().map(|&(k, t)| latency_of[&k] - t).collect();
    report.metric(
        "engine.eval_ms_p50",
        median(eval_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.metric(
        "engine.queue_ms_p50",
        median(&queue).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.metric(
        "transport_ms_p50",
        median(&transport).unwrap_or(0.0) * 1e3,
        "ms",
    );
    let by_kind = |transient: bool| -> Vec<f64> {
        all.iter()
            .filter(|o| is_transient(o.k) == transient)
            .map(|o| o.latency_s)
            .collect()
    };
    report.metric(
        "serve.steady_p50_ms",
        median(&by_kind(false)).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.metric(
        "serve.transient_p50_ms",
        median(&by_kind(true)).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.count("serve.repeated_requests", repeated);
    let e = server.engine;
    report.count("engine.submitted", e.submitted as usize);
    report.count("engine.completed_ok", e.completed_ok as usize);
    report.count("engine.completed_err", e.completed_err as usize);
    report.count("engine.deduplicated", e.deduplicated as usize);
    report.count("engine.shed", e.shed_overload as usize);
    report.count("server.decode_errors", server.decode_errors as usize);

    let traced_wall_s = traced_times.median();
    report_shared_layers(
        report,
        &tracer,
        probes,
        nodes_of(&setup.system),
        traced_wall_s,
        untraced_wall_s,
    );
    let currents: Vec<f64> = all.iter().map(|o| script.current(o.k).value()).collect();
    report_linalg(
        report,
        &setup.system,
        Amperes(nearest_rank(&currents, 0.5).unwrap_or(1.0)),
    )
}
