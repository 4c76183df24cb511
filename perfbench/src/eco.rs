//! `eco_serve`: the placement-loop use of the server. The 7 test designs
//! at scale 0.05 are registered in-process on a server built by
//! `ServeConfig::from_env`; two closed-loop clients send a seeded stream
//! of 80% `move_pins` and 20% `slack` requests over random designs.
//!
//! Client `c` only moves pins whose index is `c` modulo 2, so the final
//! placement of every session does not depend on how the two streams
//! interleave, and a twin that replays both streams can check it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use tp_data::DesignGraph;
use tp_gen::BenchmarkSpec;
use tp_gnn::{IncrementalGnn, ModelConfig, TimingGnn, TrainConfig, Trainer};
use tp_place::Placement;
use tp_rng::{Rng, StdRng};
use tp_serve::protocol::{parse_request, Request};
use tp_serve::{prediction_hash, Client, JsonValue, ServeConfig, Server};

use crate::common::{self, CpuWindow, FlowPasses, Outcome, Params, PredictPasses};
use crate::stats::{median, percentile};
use crate::trace::{self, timed};

/// Design scale of the workload.
pub const SCALE: f64 = 0.05;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Share of requests that move pins; the rest ask for slack.
pub const MOVE_SHARE: f64 = 0.8;
/// Fewest requests per op phase, so p99 has 10 samples beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// Completions per window of the `ops_per_s` rate.
const RATE_WINDOW: usize = 200;
/// Moves the traced run replays through an in-process incremental twin.
const TWIN_MOVES: usize = 1000;
/// Share of `--seconds` spent after the client phase on `predict_ms` and
/// `flow_ms` passes over the moved designs.
const EVAL_SHARE: f64 = 0.2;
/// Fewest predict passes of that phase.
const MIN_EVAL_PASSES: usize = 3;
/// Route+STA passes per predict pass (a flow pass is a tenth as long).
const FLOW_PER_PREDICT: usize = 3;

/// A registered design as it was before any move.
struct Original {
    name: &'static str,
    circuit: tp_graph::Circuit,
    design: DesignGraph,
    placement: Placement,
}

struct Setup {
    server: Server,
    originals: Vec<Original>,
}

fn slack_line(name: &str, id: u64) -> String {
    format!(r#"{{"op":"slack","design":"{name}","id":{id}}}"#)
}

/// Whether a reply is a success.
fn reply_ok(reply: &JsonValue) -> bool {
    reply.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn send(client: &mut Client, line: &str) -> Result<JsonValue, String> {
    let raw = client
        .send(line)
        .map_err(|e| format!("socket error: {e}"))?
        .ok_or_else(|| "connection closed without a reply".to_string())?;
    tp_serve::json::parse(&raw).map_err(|e| format!("reply is not JSON ({e}): {raw}"))
}

/// Builds the designs, starts the server, registers every design and
/// warms each session with one `slack` request.
fn set_up(
    p: &Params,
    library: &tp_liberty::Library,
    cfg: &ModelConfig,
    out: &mut Outcome,
) -> Setup {
    let specs: Vec<&'static BenchmarkSpec> = BenchmarkSpec::test().collect();
    let built = common::build_designs(&specs, SCALE * p.scale_mul, p.seed, false, library);
    let server = Server::start(ServeConfig::from_env(cfg.clone()), TimingGnn::new(cfg))
        .expect("the server binds its configured address");
    let mut originals = Vec::new();
    for b in built {
        originals.push(Original {
            name: b.name,
            circuit: b.circuit,
            design: b.design.deep_clone(),
            placement: b.placement.clone(),
        });
        timed("serve.register", || {
            server.register_design(b.name, b.design, b.placement)
        });
    }
    let mut client = Client::connect(server.local_addr()).expect("loopback connect");
    for (i, o) in originals.iter().enumerate() {
        let reply = timed("serve.cold", || {
            send(&mut client, &slack_line(o.name, i as u64))
        })
        .0;
        let ok = reply.as_ref().is_ok_and(reply_ok);
        out.check(ok, || {
            format!("{}: warm-up slack failed: {reply:?}", o.name)
        });
    }
    Setup { server, originals }
}

/// What one client saw during an op phase.
#[derive(Default)]
struct ClientLog {
    rtt_move_ms: Vec<f64>,
    rtt_slack_ms: Vec<f64>,
    /// `(design index, request line)` of every successful move.
    moves: Vec<(usize, String)>,
    recomputed: Vec<u64>,
    changed: Vec<u64>,
    /// `recomputed / rows of a full forward` per move.
    cone_share: Vec<f64>,
    /// Completion time of every request, seconds into the phase.
    done_s: Vec<f64>,
    failures: Vec<String>,
}

/// Rows a full forward evaluates, counted the way `UpdateStats` counts an
/// incremental one: three net-embedding layers and the propagation state
/// over every pin, plus every cell arc.
fn full_rows(d: &DesignGraph) -> f64 {
    (4 * d.num_pins + d.num_cell_edges()) as f64
}

fn client_loop(
    c: usize,
    addr: SocketAddr,
    stream: StdRng,
    originals: &[Original],
    (start, until): (Instant, Instant),
    min_requests: usize,
) -> ClientLog {
    let mut rng = stream;
    let mut client = Client::connect(addr).expect("loopback connect");
    let mut log = ClientLog::default();
    let mut sent = 0usize;
    while Instant::now() < until || sent < min_requests {
        let d = rng.gen_range(0..originals.len());
        let o = &originals[d];
        let id = sent as u64;
        let is_move = rng.gen_bool(MOVE_SHARE);
        let line = if is_move {
            let die = o.placement.die();
            let n = o.design.num_pins;
            let moves: Vec<String> = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let pin = 2 * rng.gen_range(0..(n - c).div_ceil(2)) + c;
                    let x = rng.gen_range(0.0..die.width);
                    let y = rng.gen_range(0.0..die.height);
                    format!(r#"{{"pin":{pin},"x":{x},"y":{y}}}"#)
                })
                .collect();
            format!(
                r#"{{"op":"move_pins","design":"{}","moves":[{}],"id":{id}}}"#,
                o.name,
                moves.join(",")
            )
        } else {
            slack_line(o.name, id)
        };
        let op = if is_move {
            "serve.rtt_move"
        } else {
            "serve.rtt_slack"
        };
        let (reply, ms) = timed(op, || send(&mut client, &line));
        sent += 1;
        log.done_s.push(start.elapsed().as_secs_f64());
        match reply {
            Ok(v) if reply_ok(&v) => {
                if is_move {
                    log.rtt_move_ms.push(ms);
                    let field = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                    log.recomputed.push(field("recomputed_rows"));
                    log.changed.push(field("changed_rows"));
                    log.cone_share
                        .push(field("recomputed_rows") as f64 / full_rows(&o.design));
                    log.moves.push((d, line));
                } else {
                    log.rtt_slack_ms.push(ms);
                }
            }
            other => log
                .failures
                .push(format!("{}: {line} -> {other:?}", o.name)),
        }
    }
    trace::flush_thread();
    log
}

/// One closed-loop op phase. Each phase and client draws its own request
/// stream, so a second phase does not repeat the first one's moves.
fn op_phase(p: &Params, phase: u64, s: &Setup, seconds: f64) -> Vec<ClientLog> {
    let addr = s.server.local_addr();
    let t0 = Instant::now();
    let until = t0 + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let originals = &s.originals;
                let per_client = MIN_REQUESTS.div_ceil(CLIENTS);
                let stream = StdRng::seed_from_u64(p.seed)
                    .fork(0xC11E_0000 + phase * CLIENTS as u64 + c as u64);
                scope
                    .spawn(move || client_loop(c, addr, stream, originals, (t0, until), per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Counts every request of a phase as attempted, and every failed one.
fn count_requests(out: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        out.attempted += (log.rtt_move_ms.len() + log.rtt_slack_ms.len()) as u64;
        for f in &log.failures {
            out.check(false, || f.clone());
        }
    }
}

/// Requests completed per second: the median, over consecutive runs of
/// [`RATE_WINDOW`] completions, of the window's completion rate (the mean
/// rate when the phase completed fewer than two windows). A median keeps
/// one burst of large dirty cones from setting the figure.
fn requests_per_s(logs: &[ClientLog]) -> f64 {
    let mut done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    done.sort_by(f64::total_cmp);
    let end = done.last().copied().unwrap_or(0.0);
    if done.len() < 2 * RATE_WINDOW + 1 {
        return done.len() as f64 / end.max(1e-9);
    }
    let rates: Vec<f64> = done
        .iter()
        .step_by(RATE_WINDOW)
        .zip(done.iter().skip(RATE_WINDOW).step_by(RATE_WINDOW))
        .map(|(a, b)| RATE_WINDOW as f64 / (b - a).max(1e-9))
        .collect();
    median(&rates)
}

fn requests(logs: &[ClientLog]) -> usize {
    logs.iter()
        .map(|l| l.rtt_move_ms.len() + l.rtt_slack_ms.len() + l.failures.len())
        .sum()
}

fn all<'a>(logs: &'a [ClientLog], f: impl Fn(&'a ClientLog) -> &'a Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// Every successful round trip of a phase (ms).
fn round_trips(logs: &[ClientLog]) -> Vec<f64> {
    let mut rtt = all(logs, |l| &l.rtt_move_ms);
    rtt.extend(all(logs, |l| &l.rtt_slack_ms));
    rtt
}

/// Decodes a logged move request exactly as the server did.
fn decode_moves(line: &str) -> Vec<tp_data::PinMove> {
    match parse_request(line).map(|e| e.request) {
        Ok(Request::MovePins { moves, .. }) => moves,
        other => panic!("logged move request no longer parses as a move: {other:?}"),
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    common::base_config(&mut out, "eco_serve", p, SCALE * p.scale_mul);
    let cfg = common::model_config(p.seed);
    out.config.push((
        "serve_config".to_string(),
        tp_obs::json::escape(&format!("{:?}", ServeConfig::from_env(cfg.clone()))),
    ));
    let library = common::library();
    let (s, setup_s) = common::set_up_repeatedly(p, || set_up(p, &library, &cfg, &mut out));

    let cpu = CpuWindow::start();
    let client_s = p.seconds * (1.0 - EVAL_SHARE);
    let plain_s = if p.trace { client_s / 2.0 } else { client_s };
    let plain = op_phase(p, 0, &s, plain_s);
    count_requests(&mut out, &plain);
    let mut traced = Vec::new();
    let mut obs = tp_obs::ObsData::default();
    if p.trace {
        common::begin_traced();
        traced = op_phase(p, 1, &s, client_s / 2.0);
        obs = common::end_traced();
        count_requests(&mut out, &traced);
    }
    let cpu = cpu.finish();

    // Each session must equal a full forward over its twin: the original
    // design with every move of both phases replayed.
    let mut client = Client::connect(s.server.local_addr()).expect("loopback connect");
    let mut served = Vec::new();
    for o in &s.originals {
        let reply = send(
            &mut client,
            &format!(r#"{{"op":"predict","design":"{}"}}"#, o.name),
        );
        let hash = reply.as_ref().ok().filter(|v| reply_ok(v)).and_then(|v| {
            let h = v.get("prediction_hash").and_then(JsonValue::as_str)?;
            u64::from_str_radix(h, 16).ok()
        });
        out.check(hash.is_some(), || {
            format!("{}: predict failed: {reply:?}", o.name)
        });
        served.push(hash.unwrap_or_default());
    }
    drop(client);
    let drain = s.server.shutdown();
    out.check(drain.panicked == 0 && drain.dropped == 0, || {
        format!("server drain: {drain:?}")
    });
    let originals = s.originals;
    let mut twins: Vec<(DesignGraph, Placement)> = originals
        .iter()
        .map(|o| (o.design.deep_clone(), o.placement.clone()))
        .collect();
    for (d, line) in plain.iter().chain(&traced).flat_map(|l| l.moves.iter()) {
        let (design, placement) = &mut twins[*d];
        design
            .apply_moves(placement, &decode_moves(line))
            .expect("the server accepted these moves");
    }

    // The GNN-vs-flow comparison on the moved designs: a full forward
    // (checked against the sessions) and the flow that would give exact
    // slacks, alternated for the rest of the run.
    if p.trace {
        trace::enable();
    }
    let mut trainer = Trainer::new(TimingGnn::new(&cfg), TrainConfig::default());
    let designs: Vec<&DesignGraph> = twins.iter().map(|t| &t.0).collect();
    let placed: Vec<(&str, &tp_graph::Circuit, &Placement)> = originals
        .iter()
        .zip(&twins)
        .map(|(o, t)| (o.name, &o.circuit, &t.1))
        .collect();
    let mut predict = PredictPasses::new(served);
    let mut flow = FlowPasses::new(vec![None; placed.len()]);
    let t1 = Instant::now();
    while t1.elapsed().as_secs_f64() < p.seconds * EVAL_SHARE
        || predict.pass_ms.len() < MIN_EVAL_PASSES
    {
        predict.pass(&mut trainer, &designs, &mut out);
        for _ in 0..FLOW_PER_PREDICT {
            flow.pass(&placed, &library, &mut out);
        }
    }
    trace::disable();

    if !p.trace {
        let rate = requests_per_s(&plain);
        common::end_to_end(
            &mut out,
            &setup_s,
            (&round_trips(&plain), MIN_REQUESTS),
            rate,
            (&predict.pass_ms, &flow.pass_ms),
        );
        return out;
    }

    // Replay the first traced moves through an in-process incremental
    // twin to time `parse_request` and `IncrementalGnn::apply_moves`.
    trace::enable();
    let model = Arc::new(TimingGnn::new(&cfg));
    let mut engines: Vec<Option<IncrementalGnn>> = originals.iter().map(|_| None).collect();
    let mut apply_ms = Vec::new();
    let mut parse_us = Vec::new();
    for (d, line) in traced.iter().flat_map(|l| l.moves.iter()).take(TWIN_MOVES) {
        let (moves, ms) = timed("serve.parse", || decode_moves(line));
        parse_us.push(ms * 1e3);
        let engine = engines[*d].get_or_insert_with(|| {
            let o = &originals[*d];
            IncrementalGnn::new(
                Arc::clone(&model),
                o.design.deep_clone(),
                o.placement.clone(),
            )
        });
        let (r, ms) = timed("eco.apply", || engine.apply_moves(&moves));
        out.check(r.is_ok(), || format!("twin rejected {line}: {r:?}"));
        apply_ms.push(ms);
    }
    trace::disable();
    for (engine, o) in engines.iter().zip(&originals) {
        if let Some(e) = engine {
            let full = tp_tensor::no_grad(|| model.forward(e.design(), e.plan()));
            out.check(
                prediction_hash(&e.prediction()) == prediction_hash(&full),
                || format!("{}: incremental twin differs from a full forward", o.name),
            );
        }
    }

    let spans = trace::take();
    common::Common {
        spans: &spans,
        designs: originals.len(),
        obs: &obs,
        ops: requests(&traced),
        cpu,
    }
    .emit(&mut out);
    predict.layer_metrics(&designs, &mut out);
    for (name, span) in [
        ("serve.register_ms", "serve.register"),
        ("serve.cold_ms", "serve.cold"),
    ] {
        let per_setup = trace::total_ms(&spans, span) / common::SETUPS as f64;
        out.metric(name, per_setup, "ms");
    }
    let p99 = |v: &[f64]| percentile(v, 990);
    let rtt_move = all(&traced, |l| &l.rtt_move_ms);
    let rtt_slack = all(&traced, |l| &l.rtt_slack_ms);
    out.metric("serve.rtt_move_ms.p50", median(&rtt_move), "ms");
    out.metric("serve.rtt_move_ms.p99", p99(&rtt_move), "ms");
    out.metric("serve.rtt_slack_ms.p50", median(&rtt_slack), "ms");
    out.metric("serve.rtt_slack_ms.p99", p99(&rtt_slack), "ms");
    let rtt_traced = round_trips(&traced);
    if let Some(h) = obs.histogram("serve.request_ns") {
        out.metric("serve.handler_ms.p50", h.p50 as f64 / 1e6, "ms");
        out.metric("serve.handler_ms.p99", h.p99 as f64 / 1e6, "ms");
        let rtt_mean = rtt_traced.iter().sum::<f64>() / rtt_traced.len().max(1) as f64;
        let handler_mean = h.sum as f64 / h.count.max(1) as f64 / 1e6;
        out.metric("serve.wait_ms", rtt_mean - handler_mean, "ms");
    }
    out.metric("serve.parse_us", median(&parse_us), "us");
    out.metric(
        "serve.batches",
        obs.counter_value("serve.batches") as f64,
        "count",
    );
    out.metric("eco.apply_ms.p50", median(&apply_ms), "ms");
    out.metric("eco.apply_ms.p99", p99(&apply_ms), "ms");
    let recomputed: Vec<f64> = traced
        .iter()
        .flat_map(|l| l.recomputed.iter().map(|&r| r as f64))
        .collect();
    let changed: u64 = traced.iter().flat_map(|l| l.changed.iter()).sum();
    out.metric("eco.recomputed_rows", median(&recomputed), "count");
    out.metric(
        "eco.useful_ratio",
        changed as f64 / recomputed.iter().sum::<f64>().max(1.0),
        "ratio",
    );
    out.metric(
        "eco.cone_share",
        median(&all(&traced, |l| &l.cone_share)),
        "ratio",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&rtt_traced) / median(&round_trips(&plain)) - 1.0),
        "%",
    );
    crate::write_spans("eco_serve", p.seed, &spans);
    out
}
