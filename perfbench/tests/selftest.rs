//! Self-tests of the benchmark: metric names, the `BENCHMARK.json`
//! metric lists, and a tiny-scale smoke run of every workload in both
//! modes.

use std::sync::Mutex;

use perfbench::{Params, END_TO_END, WORKLOADS};
use tp_serve::JsonValue;

/// Runs share the process-wide span recorder and tp-obs registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    tp_serve::json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(json: &JsonValue, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(perfbench::per_layer_metrics().into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(perfbench::valid_metric_name(n), "bad metric name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "metric names repeat");
    assert!(!perfbench::valid_metric_name("a b"));
    assert!(!perfbench::valid_metric_name(".lead"));
    assert!(!perfbench::valid_metric_name(&"x".repeat(65)));
}

#[test]
fn required_layers_are_per_layer_metrics() {
    let all: Vec<String> = perfbench::per_layer_metrics()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for w in WORKLOADS {
        for name in perfbench::positive_layers(w) {
            assert!(all.contains(&name), "{w}: unknown per-layer metric {name}");
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_runs_print() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = perfbench::per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

fn smoke(workload: &str, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let params = Params {
        seed: 1,
        seconds: 0.3,
        trace,
        scale_mul: 0.05,
    };
    let out = perfbench::run(workload, &params).expect("known workload");
    assert!(
        out.correct(),
        "{workload}: checks failed: {:?}",
        out.failures
    );
    let expected: Vec<(String, &str)> = if trace {
        perfbench::per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let printed: Vec<(String, &str)> = out
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), *u))
        .collect();
    assert_eq!(printed, expected);
    let positive = if trace {
        perfbench::positive_layers(workload)
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    for (name, value, _) in &out.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if positive.contains(name) {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
    }
    if trace {
        // Every metric that reads 0 without being measured says why.
        let config = perfbench::config_json(&out);
        let config = tp_serve::json::parse(&config).expect("config line is JSON");
        let absent = config
            .get("config")
            .and_then(|c| c.get("absent"))
            .expect("traced runs list their absent layers");
        for (name, value, _) in &out.metrics {
            if absent.get(name).is_some() {
                assert_eq!(*value, 0.0, "{workload}: absent {name} reads {value}");
                assert!(!positive.contains(name), "{workload}: {name} is required");
            }
        }
    }
    let line = perfbench::result_json(&out);
    tp_obs::json::validate(&line).expect("result line is JSON");
    tp_obs::json::validate(&perfbench::config_json(&out)).expect("config line is JSON");
}

#[test]
fn predict_smoke() {
    smoke("predict", false);
    smoke("predict", true);
}

#[test]
fn train_smoke() {
    smoke("train", false);
    smoke("train", true);
}

#[test]
fn eco_serve_smoke() {
    smoke("eco_serve", false);
    smoke("eco_serve", true);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(perfbench::run("nope", &Params::new(1, 1.0, false)).is_err());
}
