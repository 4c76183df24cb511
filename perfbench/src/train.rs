//! `train`: one `Trainer::fit_with` epoch per op over the 14 training
//! designs at scale 0.02, with `TrainConfig::default()` apart from
//! `epochs`.

use std::time::Instant;

use tp_data::{Dataset, DesignGraph};
use tp_gen::BenchmarkSpec;
use tp_gnn::{combined_loss, FitOptions, PropPlan, TimingGnn, TrainConfig, Trainer};
use tp_nn::optim::{clip_grad_norm, Adam};
use tp_nn::Module;

use crate::common::{self, Built, CpuWindow, FlowPasses, Outcome, Params, PredictPasses};
use crate::stats::median;
use crate::trace::{self, timed};

/// Design scale of the workload.
pub const SCALE: f64 = 0.02;
/// Route+STA passes per evaluation pass. A flow pass over these small
/// designs takes ~20 ms, a fiftieth of an epoch, so each epoch gets
/// several.
const FLOW_PASSES_PER_EPOCH: usize = 4;

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    }
}

struct Setup {
    built: Vec<Built>,
    dataset: Dataset,
    trainer: Trainer,
    first_loss: f32,
}

/// Builds the designs and trainer, then runs one warm-up epoch that fills
/// the trainer's plan cache; its loss is the reference the last epoch
/// must beat.
fn set_up(p: &Params, library: &tp_liberty::Library, out: &mut Outcome) -> Setup {
    let specs: Vec<&'static BenchmarkSpec> = BenchmarkSpec::train().collect();
    let built = common::build_designs(&specs, SCALE * p.scale_mul, p.seed, true, library);
    let dataset = Dataset::from_designs(built.iter().map(|b| b.design.clone()).collect());
    let mut trainer = Trainer::new(
        TimingGnn::new(&common::model_config(p.seed)),
        train_config(),
    );
    let first_loss = epoch(&mut trainer, &dataset, out).loss;
    Setup {
        built,
        dataset,
        trainer,
        first_loss,
    }
}

/// The pieces of `Trainer::step`, timed one by one on a separate model
/// that follows the same recipe (traced runs only).
struct StepProbe {
    model: TimingGnn,
    params: Vec<tp_tensor::Tensor>,
    adam: Adam,
    plans: Vec<PropPlan>,
    twin: Trainer,
}

impl StepProbe {
    fn new(p: &Params, dataset: &Dataset) -> StepProbe {
        let model = TimingGnn::new(&common::model_config(p.seed));
        let params = model.parameters();
        let adam = Adam::new(params.clone(), train_config().lr);
        let plans = dataset.train().map(PropPlan::build).collect();
        let mut twin = Trainer::new(
            TimingGnn::new(&common::model_config(p.seed)),
            train_config(),
        );
        for d in dataset.train() {
            twin.step(d);
        }
        StepProbe {
            model,
            params,
            adam,
            plans,
            twin,
        }
    }

    /// One pass of each probe over the designs; returns the summed
    /// `Trainer::step` time (ms).
    fn pass(&mut self, dataset: &Dataset) -> f64 {
        let aux = train_config().aux;
        let clip = train_config().grad_clip;
        for d in dataset.train() {
            timed("train.validate", || d.validate())
                .0
                .expect("set-up designs validate");
        }
        for (d, plan) in dataset.train().zip(&self.plans) {
            let pred = timed("train.forward", || self.model.forward(d, plan)).0;
            let (loss, _) = timed("train.loss", || combined_loss(d, plan, &pred, aux)).0;
            self.adam.zero_grad();
            timed("train.backward", || loss.backward());
            timed("train.optim", || {
                clip_grad_norm(&self.params, clip);
                self.adam.step();
            });
        }
        dataset
            .train()
            .map(|d| timed("train.step", || self.twin.step(d)).1)
            .sum()
    }
}

/// One op: a `fit_with` epoch whose loss must be finite.
struct Epoch {
    ms: f64,
    loss: f32,
    /// Rollbacks and skipped designs the divergence guard reported.
    rollbacks: usize,
    skipped: usize,
}

fn epoch(trainer: &mut Trainer, dataset: &Dataset, out: &mut Outcome) -> Epoch {
    let (report, ms) = timed("train.epoch", || {
        trainer.fit_with(dataset, &FitOptions::default())
    });
    let e = report.epochs.first().copied().unwrap_or_default();
    out.check(
        e.total.is_finite() && report.invalid_designs.is_empty(),
        || {
            format!(
                "epoch loss {} (invalid designs: {:?})",
                e.total, report.invalid_designs
            )
        },
    );
    for d in report.divergences.iter().filter(|d| !d.recovered) {
        eprintln!(
            "perfbench: divergence guard skipped design {} at step {}",
            d.design, d.step
        );
    }
    Epoch {
        ms,
        loss: e.total,
        rollbacks: e.rollbacks,
        skipped: e.skipped,
    }
}

/// What an evaluation pass runs over: the trained designs and their
/// placed circuits.
struct Eval<'a> {
    designs: Vec<&'a DesignGraph>,
    placed: Vec<(&'a str, &'a tp_graph::Circuit, &'a tp_place::Placement)>,
    library: &'a tp_liberty::Library,
}

impl Eval<'_> {
    /// One `Trainer::predict` pass over the designs and
    /// [`FLOW_PASSES_PER_EPOCH`] route+STA passes over their placements.
    /// Training changes the weights, so the predict pass sets the hashes
    /// a following pass over an unchanged model must repeat.
    fn pass(
        &self,
        trainer: &mut Trainer,
        (predict, flow): &mut (PredictPasses, FlowPasses),
        out: &mut Outcome,
    ) {
        predict.hashes.clear();
        predict.pass(trainer, &self.designs, out);
        for _ in 0..FLOW_PASSES_PER_EPOCH {
            flow.pass(&self.placed, self.library, out);
        }
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    common::base_config(&mut out, "train", p, SCALE * p.scale_mul);
    let library = common::library();
    let (setup, setup_s) = common::set_up_repeatedly(p, || set_up(p, &library, &mut out));
    let Setup {
        built,
        dataset,
        mut trainer,
        first_loss,
    } = setup;
    let mut probe = p.trace.then(|| StepProbe::new(p, &dataset));

    // Each epoch is followed by an evaluation pass, for `predict_ms` and
    // `flow_ms`; interleaving spreads those samples over the whole run
    // instead of one burst at its end.
    let eval = Eval {
        designs: dataset.train().collect(),
        placed: built
            .iter()
            .map(|b| (b.name, &b.circuit, &b.placement))
            .collect(),
        library: &library,
    };
    let passes = || {
        (
            PredictPasses::default(),
            FlowPasses::new(built.iter().map(|b| Some(b.label_hash)).collect()),
        )
    };
    let (mut plain, mut traced) = (passes(), passes());

    let cpu = CpuWindow::start();
    let mut plain_ms = Vec::new();
    let mut last_loss = f32::NAN;
    let mut guarded = (0, 0);
    let t0 = Instant::now();
    let plain_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    while t0.elapsed().as_secs_f64() < plain_s || plain_ms.is_empty() {
        let e = epoch(&mut trainer, &dataset, &mut out);
        plain_ms.push(e.ms);
        last_loss = e.loss;
        eval.pass(&mut trainer, &mut plain, &mut out);
    }
    let mut traced_ms = Vec::new();
    let mut guard_ms = Vec::new();
    let mut obs = tp_obs::ObsData::default();
    if let Some(probe) = probe.as_mut() {
        common::begin_traced();
        let t1 = Instant::now();
        while t1.elapsed().as_secs_f64() < p.seconds / 2.0 || traced_ms.is_empty() {
            let e = epoch(&mut trainer, &dataset, &mut out);
            traced_ms.push(e.ms);
            last_loss = e.loss;
            guarded = (guarded.0 + e.rollbacks, guarded.1 + e.skipped);
            guard_ms.push(e.ms - probe.pass(&dataset));
            eval.pass(&mut trainer, &mut traced, &mut out);
        }
        obs = common::end_traced();
    }
    let cpu = cpu.finish();
    out.check(last_loss < first_loss, || {
        format!("last epoch loss {last_loss} is not below the first epoch's {first_loss}")
    });
    // The model is unchanged since the last evaluation pass, so one more
    // pass must repeat its predictions bit for bit.
    let last = if p.trace { &mut traced.0 } else { &mut plain.0 };
    last.pass(&mut trainer, &eval.designs, &mut out);

    if !p.trace {
        let rate = common::serial_rate(&plain_ms);
        common::end_to_end(
            &mut out,
            &setup_s,
            (&plain_ms, 1),
            rate,
            (&plain.0.pass_ms, &plain.1.pass_ms),
        );
        return out;
    }

    let spans = trace::take();
    let epochs = traced_ms.len();
    common::Common {
        spans: &spans,
        designs: built.len(),
        obs: &obs,
        ops: epochs,
        cpu,
    }
    .emit(&mut out);
    traced.0.layer_metrics(&eval.designs, &mut out);
    for (name, span) in [
        ("train.validate_ms", "train.validate"),
        ("train.forward_ms", "train.forward"),
        ("train.loss_ms", "train.loss"),
        ("train.backward_ms", "train.backward"),
        ("train.optim_ms", "train.optim"),
        ("train.step_ms", "train.step"),
    ] {
        out.metric(name, trace::total_ms(&spans, span) / epochs as f64, "ms");
    }
    out.metric("train.guard_ms", median(&guard_ms), "ms");
    out.metric("train.rollbacks", guarded.0 as f64 / epochs as f64, "count");
    out.metric(
        "train.skipped_designs",
        guarded.1 as f64 / epochs as f64,
        "count",
    );
    out.metric("train.final_loss", f64::from(last_loss), "loss");
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0),
        "%",
    );
    crate::write_spans("train", p.seed, &spans);
    out
}
