//! End-to-end and per-layer benchmark of the timing-predict workspace.
//!
//! Three workloads run the shipped defaults through the crates' public
//! functions and check every output:
//!
//! - `predict` — the paper's Table-5 comparison: `Trainer::predict` on the
//!   7 test designs alternated with the route+STA flow on the same
//!   placements;
//! - `train` — one `Trainer::fit_with` epoch per op over the 14 training
//!   designs;
//! - `eco_serve` — two closed-loop clients sending `move_pins`/`slack`
//!   requests to an in-process `tp-serve` server.
//!
//! An untraced run prints the [`END_TO_END`] metrics; a traced run
//! (`--trace 1`) records spans around each layer call and prints the
//! [`PER_LAYER`] metrics. `METRICS.md` maps each per-layer metric to the
//! end-to-end metric it should move.

pub mod common;
pub mod eco;
pub mod predict;
pub mod stats;
pub mod trace;
pub mod train;

pub use common::{Outcome, Params};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["predict", "train", "eco_serve"];

/// The test designs, whose per-design forward times are reported.
pub const TEST_DESIGNS: [&str; 7] = [
    "jpeg_encoder",
    "usbf_device",
    "aes192",
    "xtea",
    "spm",
    "y_huff",
    "synth_ram",
];

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("predict_ms", "ms"),
    ("flow_ms", "ms"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`. A layer a
/// workload does not run reads 0, and the run's configuration line says
/// why. The per-design forward times follow these as
/// `gnn.forward_ms.<design>` for each of [`TEST_DESIGNS`].
pub const PER_LAYER: [(&str, &str); 43] = [
    ("gen.generate_ms", "ms"),
    ("place.place_ms", "ms"),
    ("data.lower_ms", "ms"),
    ("gnn.plan_ms", "ms"),
    ("route.route_ms", "ms"),
    ("sta.run_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.embed_ms", "ms"),
    ("gnn.prop_self_ms", "ms"),
    ("gnn.pins_per_s", "1/s"),
    ("proc.sys_share", "ratio"),
    ("proc.cpu_per_wall", "ratio"),
    ("par.forked_regions", "count"),
    ("par.inlined_regions", "count"),
    ("train.validate_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.loss_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optim_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.guard_ms", "ms"),
    ("train.rollbacks", "count"),
    ("train.skipped_designs", "count"),
    ("train.final_loss", "loss"),
    ("serve.rtt_move_ms.p50", "ms"),
    ("serve.rtt_move_ms.p99", "ms"),
    ("serve.rtt_slack_ms.p50", "ms"),
    ("serve.rtt_slack_ms.p99", "ms"),
    ("serve.handler_ms.p50", "ms"),
    ("serve.handler_ms.p99", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.batches", "count"),
    ("serve.register_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("eco.apply_ms.p50", "ms"),
    ("eco.apply_ms.p99", "ms"),
    ("eco.recomputed_rows", "count"),
    ("eco.useful_ratio", "ratio"),
    ("eco.cone_share", "ratio"),
    ("setup.other_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metrics every workload measures; a traced run fails its
/// check when one reads 0 or less (a renamed span or counter would).
const MEASURED_BY_ALL: [&str; 13] = [
    "gen.generate_ms",
    "place.place_ms",
    "data.lower_ms",
    "gnn.plan_ms",
    "setup.other_ms",
    "route.route_ms",
    "sta.run_ms",
    "gnn.forward_ms",
    "gnn.embed_ms",
    "gnn.prop_self_ms",
    "gnn.pins_per_s",
    "proc.cpu_per_wall",
    "trace.spans",
];

/// The per-layer metrics `workload` measures that must read above 0. Its
/// other measured metrics may read 0 or below (`serve.batches` with
/// batching off, `train.rollbacks`, `trace.overhead_pct`, ...).
pub fn positive_layers(workload: &str) -> Vec<String> {
    let mut names: Vec<String> = MEASURED_BY_ALL.iter().map(|n| n.to_string()).collect();
    let own: &[&str] = match workload {
        "train" => &[
            "train.validate_ms",
            "train.forward_ms",
            "train.loss_ms",
            "train.backward_ms",
            "train.optim_ms",
            "train.step_ms",
            "train.final_loss",
        ],
        "eco_serve" => &[
            "serve.rtt_move_ms.p50",
            "serve.rtt_move_ms.p99",
            "serve.rtt_slack_ms.p50",
            "serve.rtt_slack_ms.p99",
            "serve.handler_ms.p50",
            "serve.handler_ms.p99",
            "serve.wait_ms",
            "serve.parse_us",
            "serve.register_ms",
            "serve.cold_ms",
            "eco.apply_ms.p50",
            "eco.apply_ms.p99",
            "eco.recomputed_rows",
            "eco.useful_ratio",
            "eco.cone_share",
        ],
        _ => &[],
    };
    names.extend(own.iter().map(|n| n.to_string()));
    if workload != "train" {
        names.extend(TEST_DESIGNS.iter().map(|d| format!("gnn.forward_ms.{d}")));
    }
    names
}

/// Why a per-layer metric `name` reads 0 on `workload`, which does not
/// measure it.
fn absent_reason(workload: &str, name: &str) -> String {
    if workload == "train" && name.starts_with("gnn.forward_ms.") {
        "train predicts on the training designs, not the test designs".to_string()
    } else {
        format!("the {workload} workload does not run this layer")
    }
}

/// Every per-layer metric name with its unit, per-design ones included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        TEST_DESIGNS
            .iter()
            .map(|d| (format!("gnn.forward_ms.{d}"), "ms")),
    );
    out
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs one workload and returns its outcome with the metrics of its
/// mode: end-to-end untraced, per-layer traced (absent layers read 0 and
/// are listed with the reason under `absent` in the configuration).
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(workload: &str, params: &Params) -> Result<Outcome, String> {
    let mut out = match workload {
        "predict" => predict::run(params),
        "train" => train::run(params),
        "eco_serve" => eco::run(params),
        other => return Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    };
    let wanted: Vec<(String, &'static str)> = if params.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let measured = std::mem::take(&mut out.metrics);
    let positive = if params.trace {
        positive_layers(workload)
    } else {
        // An end-to-end figure that is missing, zero or not finite means
        // a phase measured nothing.
        wanted.iter().map(|(n, _)| n.clone()).collect()
    };
    let mut absent = Vec::new();
    for (name, unit) in wanted {
        let value = measured
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v);
        if positive.contains(&name) {
            let v = value.unwrap_or(0.0);
            out.check(v.is_finite() && v > 0.0, || {
                format!("metric {name} = {v}: its layer was not measured")
            });
        } else if let Some(v) = value {
            out.check(v.is_finite(), || format!("metric {name} = {v}"));
        } else {
            absent.push(format!(
                "{}: {}",
                tp_obs::json::escape(&name),
                tp_obs::json::escape(&absent_reason(workload, &name))
            ));
        }
        out.metric(name, value.unwrap_or(0.0), unit);
    }
    if params.trace {
        out.config
            .push(("absent".to_string(), format!("{{{}}}", absent.join(", "))));
    }
    Ok(out)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                tp_obs::json::escape(name),
                tp_obs::json::fmt_f64(v),
                tp_obs::json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The resolved-config line printed before the result.
pub fn config_json(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .config
        .iter()
        .map(|(k, v)| format!("{}: {v}", tp_obs::json::escape(k)))
        .collect();
    format!("{{\"config\": {{{}}}}}", fields.join(", "))
}

/// Writes a traced run's spans as JSON lines under `perfbench/out/`.
/// A write failure is reported on stderr and does not fail the run.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans_{workload}_{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
