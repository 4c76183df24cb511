//! `predict`: the paper's Table-5 comparison. Each pass runs
//! `Trainer::predict` on the 7 test designs at scale 0.1, then the
//! route+STA flow on the same circuits and placements.

use std::time::Instant;

use tp_data::DesignGraph;
use tp_gen::BenchmarkSpec;
use tp_gnn::{PropPlan, TimingGnn, TrainConfig, Trainer};
use tp_serve::prediction_hash;

use crate::common::{self, Built, CpuWindow, FlowPasses, Outcome, Params, PredictPasses};
use crate::stats::median;
use crate::trace;

/// Design scale of the workload.
pub const SCALE: f64 = 0.1;
/// Fewest passes of the untraced op phase. With 7 calls a pass that is
/// at least 105 predict calls, enough for a p90 `op_tail_ms` with 10
/// calls beyond it.
pub const MIN_PASSES: usize = 15;

struct Setup {
    built: Vec<Built>,
    trainer: Trainer,
    /// Prediction hash per design from the warm-up pass.
    hashes: Vec<u64>,
}

/// Builds the designs and model, then runs one warm-up predict pass that
/// fills the trainer's per-design plan cache.
fn set_up(p: &Params, library: &tp_liberty::Library, out: &mut Outcome) -> Setup {
    let specs: Vec<&'static BenchmarkSpec> = BenchmarkSpec::test().collect();
    let built = common::build_designs(&specs, SCALE * p.scale_mul, p.seed, false, library);
    let mut trainer = Trainer::new(
        TimingGnn::new(&common::model_config(p.seed)),
        TrainConfig::default(),
    );
    let designs: Vec<&DesignGraph> = built.iter().map(|b| &b.design).collect();
    let mut warm = PredictPasses::default();
    warm.pass(&mut trainer, &designs, out);
    Setup {
        hashes: warm.hashes,
        built,
        trainer,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    common::base_config(&mut out, "predict", p, SCALE * p.scale_mul);
    let library = common::library();
    let (setup, setup_s) = common::set_up_repeatedly(p, || set_up(p, &library, &mut out));
    let Setup {
        built,
        mut trainer,
        hashes,
    } = setup;
    let designs: Vec<&DesignGraph> = built.iter().map(|b| &b.design).collect();
    let placed: Vec<(&str, &tp_graph::Circuit, &tp_place::Placement)> = built
        .iter()
        .map(|b| (b.name, &b.circuit, &b.placement))
        .collect();
    let labels = || built.iter().map(|b| Some(b.label_hash)).collect();

    // Traced runs measure the first half of the op phase untraced, so the
    // tracing overhead is the difference between the halves.
    let mut plain = (
        PredictPasses::new(hashes.clone()),
        FlowPasses::new(labels()),
    );
    let mut traced = (
        PredictPasses::new(hashes.clone()),
        FlowPasses::new(labels()),
    );
    let cpu = CpuWindow::start();
    let t0 = Instant::now();
    let plain_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    while t0.elapsed().as_secs_f64() < plain_s || plain.0.pass_ms.len() < MIN_PASSES {
        plain.0.pass(&mut trainer, &designs, &mut out);
        plain.1.pass(&placed, &library, &mut out);
    }
    let mut obs = tp_obs::ObsData::default();
    if p.trace {
        common::begin_traced();
        let t1 = Instant::now();
        while t1.elapsed().as_secs_f64() < p.seconds / 2.0 || traced.0.pass_ms.is_empty() {
            traced.0.pass(&mut trainer, &designs, &mut out);
            traced.1.pass(&placed, &library, &mut out);
        }
        obs = common::end_traced();
    }
    let cpu = cpu.finish();

    // The tape-free forward must give the same bits as `Trainer::predict`.
    for (b, want) in built.iter().zip(&hashes) {
        let plan = PropPlan::build(&b.design);
        let hash = prediction_hash(&tp_tensor::no_grad(|| {
            trainer.model().forward(&b.design, &plan)
        }));
        out.check(hash == *want, || {
            format!(
                "{}: no_grad forward {hash:016x} != predict {want:016x}",
                b.name
            )
        });
    }

    let (predict, flow) = plain;
    if !p.trace {
        let rate = common::serial_rate(&predict.op_ms);
        common::end_to_end(
            &mut out,
            &setup_s,
            (&predict.op_ms, MIN_PASSES * designs.len()),
            rate,
            (&predict.pass_ms, &flow.pass_ms),
        );
        return out;
    }

    let spans = trace::take();
    common::Common {
        spans: &spans,
        designs: built.len(),
        obs: &obs,
        ops: traced.0.pass_ms.len(),
        cpu,
    }
    .emit(&mut out);
    traced.0.layer_metrics(&designs, &mut out);
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced.0.pass_ms) / median(&predict.pass_ms) - 1.0),
        "%",
    );
    crate::write_spans("predict", p.seed, &spans);
    out
}
