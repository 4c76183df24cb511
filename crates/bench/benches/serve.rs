//! Benchmarks for the inference server: end-to-end request throughput
//! over a real loopback socket (queries/sec, with per-request latency
//! percentiles pulled from the `serve.request_ns` tp-obs histogram) plus
//! codec micro-benchmarks. Emits `BENCH_serve.json` (collected by
//! `scripts/bench.sh`).
//!
//! `TP_BENCH_FAST` shrinks the request counts along with the sample
//! counts, so `scripts/bench.sh --smoke` stays cheap.

use tp_bench::micro::{black_box, BenchResult, Suite};
use tp_data::DesignGraph;
use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
use tp_gnn::{FaultPlan, ModelConfig, TimingGnn};
use tp_liberty::Library;
use tp_place::{place_circuit, PlacementConfig};
use tp_serve::{protocol, Client, ServeConfig, Server};
use tp_sta::flow::run_full_flow;
use tp_sta::StaConfig;

fn main() {
    let mut suite = Suite::new("serve");
    let fast = std::env::var("TP_BENCH_FAST").is_ok();

    // One small design served end to end.
    let lib = Library::synthetic_sky130(0);
    let circuit = generate(
        &BENCHMARKS[18], // spm
        &lib,
        &GeneratorConfig {
            scale: 0.01,
            seed: 11,
            depth: Some(6),
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &lib, &sta);
    let design = DesignGraph::from_flow("spm", false, &circuit, &placement, &lib, &flow, &sta);
    let die = *placement.die();

    let model_config = ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed: 1,
        ablation: Default::default(),
    };
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 64,
        deadline_ms: 60_000,
        snapshot_dir: None,
        lib_seed: 0,
        model_config: model_config.clone(),
        faults: FaultPlan::none(),
        fault_seed: 0,
        obs_out: None,
    };

    tp_obs::reset();
    tp_obs::enable();
    let server = Server::start(config, TimingGnn::new(&model_config)).expect("bind loopback");
    server.register_design("spm", design, placement);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Warm the session (first predict runs the full forward pass).
    client
        .send(r#"{"op":"predict","design":"spm","id":0}"#)
        .expect("socket")
        .expect("reply");

    // End-to-end queries/sec: a serial client is the paper-relevant shape
    // (a placement loop asking for slack after each change).
    let requests = if fast { 50u64 } else { 500 };
    let t0 = std::time::Instant::now();
    for i in 0..requests {
        let reply = client
            .send(&format!(r#"{{"op":"predict","design":"spm","id":{i}}}"#))
            .expect("socket")
            .expect("reply");
        black_box(reply);
    }
    let predict_ns = t0.elapsed().as_nanos() as f64 / requests as f64;
    eprintln!("[serve] predict throughput: {:.0} queries/sec", 1e9 / predict_ns);

    // ECO round-trips: move one pin back and forth through the
    // incremental engine.
    let eco_requests = if fast { 20u64 } else { 200 };
    let t1 = std::time::Instant::now();
    for i in 0..eco_requests {
        let frac = if i % 2 == 0 { 0.4 } else { 0.6 };
        let reply = client
            .send(&format!(
                r#"{{"op":"move_pins","design":"spm","moves":[{{"pin":2,"x":{},"y":{}}}],"id":{i}}}"#,
                die.width * frac,
                die.height * frac,
            ))
            .expect("socket")
            .expect("reply");
        black_box(reply);
    }
    let eco_ns = t1.elapsed().as_nanos() as f64 / eco_requests as f64;
    eprintln!("[serve] ECO throughput: {:.0} edits/sec", 1e9 / eco_ns);

    server.shutdown();
    tp_obs::disable();
    let data = tp_obs::drain();
    let hist = data
        .histogram("serve.request_ns")
        .expect("server records request latency");

    suite.record(BenchResult {
        name: "request/predict_roundtrip".into(),
        median_ns: predict_ns,
        mean_ns: predict_ns,
        min_ns: hist.min as f64,
        max_ns: hist.max as f64,
        iters_per_sample: requests,
        samples: 1,
    });
    suite.record(BenchResult {
        name: "request/move_pins_roundtrip".into(),
        median_ns: eco_ns,
        mean_ns: eco_ns,
        min_ns: hist.min as f64,
        max_ns: hist.max as f64,
        iters_per_sample: eco_requests,
        samples: 1,
    });
    suite.record(BenchResult {
        name: "request/handler_latency_p50".into(),
        median_ns: hist.p50 as f64,
        mean_ns: hist.sum as f64 / hist.count.max(1) as f64,
        min_ns: hist.min as f64,
        max_ns: hist.max as f64,
        iters_per_sample: 1,
        samples: hist.count as usize,
    });
    suite.record(BenchResult {
        name: "request/handler_latency_p99".into(),
        median_ns: hist.p99 as f64,
        mean_ns: hist.sum as f64 / hist.count.max(1) as f64,
        min_ns: hist.min as f64,
        max_ns: hist.max as f64,
        iters_per_sample: 1,
        samples: hist.count as usize,
    });

    // Codec micro-benchmarks: parse + render, no socket.
    let line = r#"{"op":"move_pins","design":"spm","moves":[{"pin":5,"x":12.5,"y":-3.25},{"pin":9,"x":0.125,"y":7.75}],"id":42}"#;
    suite.bench("codec/parse_request", || {
        protocol::parse_request(black_box(line)).expect("valid")
    });
    let values: Vec<f32> = (0..64).map(|i| i as f32 * 0.37 - 11.0).collect();
    suite.bench("codec/render_f32x64", || {
        protocol::f32_array(black_box(&values))
    });

    suite.finish();
}
