//! Pieces every workload shares: run parameters, the result record,
//! design set-up through the flow, and output checks.

use std::time::Instant;

use tp_data::DesignGraph;
use tp_gen::{generate, BenchmarkSpec, GeneratorConfig};
use tp_gnn::{ModelConfig, PropPlan, Trainer};
use tp_graph::{Circuit, PinId};
use tp_liberty::Library;
use tp_place::{place_circuit, Placement, PlacementConfig};
use tp_serve::prediction_hash;
use tp_sta::flow::{run_full_flow, FlowResult};
use tp_sta::{StaConfig, StaEngine, TimingReport};

use crate::trace::timed;

/// How one workload run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives generator, placement, model init and request stream.
    pub seed: u64,
    /// Length of the measured op phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Multiplier on the workload's design scale (1.0 in real runs; the
    /// self-tests shrink designs with it).
    pub scale_mul: f64,
}

/// Set-ups per run; `setup_s` is their median. The first set-up of a
/// process runs cold (page faults, allocator growth, thread-pool start)
/// and takes ~1.4× as long as the rest, so the median of five is a warm
/// one.
pub const SETUPS: usize = 5;

impl Params {
    /// The parameters of a real run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            scale_mul: 1.0,
        }
    }
}

/// What a workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops (and output checks) attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Why each failed op failed (first few).
    pub failures: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Resolved configuration, as `(key, JSON value)`.
    pub config: Vec<(String, String)>,
}

impl Outcome {
    /// Records one attempted check; a failing one is counted with its
    /// reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// One design carried through generate → place → route+STA → lowering.
pub struct Built {
    /// Benchmark name.
    pub name: &'static str,
    /// The netlist.
    pub circuit: Circuit,
    /// Its placement.
    pub placement: Placement,
    /// Hash of the flow's timing labels.
    pub label_hash: u64,
    /// The lowered tensors.
    pub design: DesignGraph,
}

/// Sets up [`SETUPS`] times, dropping each set-up before building the
/// next, and returns the last one with every set-up's time (s). Set-ups
/// are traced in a traced run.
pub fn set_up_repeatedly<S>(p: &Params, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    if p.trace {
        crate::trace::enable();
    }
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (s, ms) = timed("setup", &mut build);
        times.push(ms / 1e3);
        last = Some(s);
    }
    crate::trace::disable();
    (last.expect("at least one set-up"), times)
}

/// The end-to-end metrics of an untraced run, from its samples: set-up
/// times (s), op latencies (ms) of a phase that completes at least
/// `min_ops` ops, op rate, and predict and flow passes (ms).
///
/// `op_tail_ms` is the percentile [`tail_permille`] picks for `min_ops`,
/// not for the ops the run happened to complete, so a faster program
/// reports the same percentile.
///
/// [`tail_permille`]: crate::stats::tail_permille
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    (op_ms, min_ops): (&[f64], usize),
    ops_per_s: f64,
    passes: (&[f64], &[f64]),
) {
    use crate::stats::{median, tail_at};
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("op_p50_ms", median(op_ms), "ms");
    out.metric("op_tail_ms", tail_at(op_ms, min_ops), "ms");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("predict_ms", median(passes.0), "ms");
    out.metric("flow_ms", median(passes.1), "ms");
}

/// Ops per second of op time, for a workload that runs its ops one at a
/// time.
pub fn serial_rate(op_ms: &[f64]) -> f64 {
    1e3 * op_ms.len() as f64 / op_ms.iter().sum::<f64>()
}

/// The cell library every workload uses.
pub fn library() -> Library {
    Library::synthetic_sky130(0)
}

/// The shipped model architecture, with its weights seeded from the run.
pub fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        seed: seed ^ 0xD1CE,
        ..ModelConfig::default()
    }
}

/// Builds each spec at `scale`.
///
/// Spans: `gen.generate`, `place.place`, `flow` (with `route.route` and
/// `sta.run` inside when tracing), `data.lower`, and `gnn.plan` — the
/// last only when tracing, as a probe of `PropPlan::build` (the trainer
/// and server build their own plans).
pub fn build_designs(
    specs: &[&'static BenchmarkSpec],
    scale: f64,
    seed: u64,
    is_train: bool,
    library: &Library,
) -> Vec<Built> {
    let gen = GeneratorConfig {
        scale,
        seed,
        depth: None,
    };
    let sta = StaConfig::default();
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (circuit, _) = timed("gen.generate", || generate(spec, library, &gen));
            let (placement, _) = timed("place.place", || {
                place_circuit(
                    &circuit,
                    &PlacementConfig::default(),
                    seed.wrapping_add(i as u64),
                )
            });
            let flow = timed("flow", || flow_pass(&circuit, &placement, library, &sta)).0;
            let label_hash = report_hash(&flow.report);
            let (design, _) = timed("data.lower", || {
                DesignGraph::from_flow(
                    spec.name, is_train, &circuit, &placement, library, &flow, &sta,
                )
            });
            if crate::trace::is_enabled() {
                timed("gnn.plan", || PropPlan::build(&design));
            }
            Built {
                name: spec.name,
                circuit,
                placement,
                label_hash,
                design,
            }
        })
        .collect()
}

/// Routing + STA over one placed design. Untraced this is
/// `run_full_flow`; traced, the same two calls are made separately so
/// each gets its own span.
pub fn flow_pass(
    circuit: &Circuit,
    placement: &Placement,
    library: &Library,
    sta: &StaConfig,
) -> FlowResult {
    if !crate::trace::is_enabled() {
        return run_full_flow(circuit, placement, library, sta);
    }
    let (routing, routing_ms) = timed("route.route", || {
        tp_route::route_circuit(circuit, placement, library, &sta.routing)
    });
    let (report, sta_ms) = timed("sta.run", || {
        let topology = circuit.topology();
        StaEngine::new(library, *sta).run_with_routing(circuit, &topology, &routing)
    });
    FlowResult {
        routing_seconds: routing_ms / 1e3,
        sta_seconds: sta_ms / 1e3,
        routing,
        report,
    }
}

/// Repeated route+STA passes over a set of placed designs.
#[derive(Debug, Default)]
pub struct FlowPasses {
    /// Time of each pass (ms).
    pub pass_ms: Vec<f64>,
    /// Label hash every pass must reproduce, per design (taken from the
    /// first pass where the caller gave none).
    pub expect: Vec<Option<u64>>,
}

impl FlowPasses {
    /// Passes whose labels must equal `expect` (`None` entries: the first
    /// pass's labels).
    pub fn new(expect: Vec<Option<u64>>) -> FlowPasses {
        FlowPasses {
            pass_ms: Vec::new(),
            expect,
        }
    }

    /// Runs one checked pass over `designs` (`(name, circuit, placement)`
    /// in the order of `expect`).
    pub fn pass(
        &mut self,
        designs: &[(&str, &Circuit, &Placement)],
        library: &Library,
        out: &mut Outcome,
    ) {
        let sta = StaConfig::default();
        let mut pass_ms = 0.0;
        for (&(name, circuit, placement), want) in designs.iter().zip(&mut self.expect) {
            let (flow, ms) = timed("flow", || flow_pass(circuit, placement, library, &sta));
            pass_ms += ms;
            let hash = report_hash(&flow.report);
            let want = *want.get_or_insert(hash);
            out.check(hash == want, || {
                format!("{name}: flow labels {hash:016x} != {want:016x}")
            });
        }
        self.pass_ms.push(pass_ms);
    }
}

/// Repeated `Trainer::predict` passes over a set of designs.
#[derive(Debug, Default)]
pub struct PredictPasses {
    /// Sum of the predict calls of each pass (ms).
    pub pass_ms: Vec<f64>,
    /// Sum of the `NetEmbed::embed` probe calls of each traced pass (ms).
    pub embed_ms: Vec<f64>,
    /// Every predict call (ms).
    pub op_ms: Vec<f64>,
    /// Per design, its predict calls (ms).
    pub per_design_ms: Vec<Vec<f64>>,
    /// Prediction hash every pass must reproduce, per design (taken from
    /// the first pass where the caller gave none).
    pub hashes: Vec<u64>,
}

impl PredictPasses {
    /// Passes whose predictions must hash to `hashes` (empty: to the
    /// first pass's).
    pub fn new(hashes: Vec<u64>) -> PredictPasses {
        PredictPasses {
            hashes,
            ..PredictPasses::default()
        }
    }

    /// Runs one pass over `designs`, checking that every output is finite
    /// and repeats the expected bits. Traced, each design also gets a
    /// `NetEmbed::embed` probe call.
    pub fn pass(&mut self, trainer: &mut Trainer, designs: &[&DesignGraph], out: &mut Outcome) {
        self.per_design_ms.resize(designs.len(), Vec::new());
        let mut pass_ms = 0.0;
        let mut embed_ms = 0.0;
        for (i, d) in designs.iter().enumerate() {
            let (pred, ms) = timed("gnn.forward", || trainer.predict(d));
            pass_ms += ms;
            self.op_ms.push(ms);
            self.per_design_ms[i].push(ms);
            let hash = prediction_hash(&pred);
            let finite = prediction_finite(&pred);
            drop(pred);
            if self.hashes.len() == i {
                self.hashes.push(hash);
            }
            let want = self.hashes[i];
            out.check(finite && hash == want, || {
                format!(
                    "{}: prediction {hash:016x} != {want:016x} (finite: {finite})",
                    d.name
                )
            });
            if crate::trace::is_enabled() {
                let model = trainer.model();
                embed_ms += timed("gnn.embed", || model.net_embed().embed(d)).1;
            }
        }
        self.pass_ms.push(pass_ms);
        if crate::trace::is_enabled() {
            self.embed_ms.push(embed_ms);
        }
    }

    /// The GNN per-layer metrics of these passes over `designs`:
    /// forward, embed, propagation (forward minus embed) and pins/s.
    pub fn layer_metrics(&self, designs: &[&DesignGraph], out: &mut Outcome) {
        let forward = crate::stats::median(&self.pass_ms);
        let embed = crate::stats::median(&self.embed_ms);
        let pins: usize = designs.iter().map(|d| d.num_pins).sum();
        out.metric("gnn.forward_ms", forward, "ms");
        out.metric("gnn.embed_ms", embed, "ms");
        out.metric("gnn.prop_self_ms", forward - embed, "ms");
        out.metric("gnn.pins_per_s", pins as f64 / (forward / 1e3), "1/s");
        for (d, ms) in designs.iter().zip(&self.per_design_ms) {
            out.metric(
                format!("gnn.forward_ms.{}", d.name),
                crate::stats::median(ms),
                "ms",
            );
        }
    }
}

/// Bit-exact digest of a timing report's per-pin labels (arrival, slew,
/// required time at every corner).
pub fn report_hash(report: &TimingReport) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..report.num_pins() {
        let p = PinId::new(i);
        for x in report
            .arrival(p)
            .into_iter()
            .chain(report.slew(p))
            .chain(report.required(p))
        {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    tp_gnn::checkpoint::fnv1a64(&bytes)
}

/// Whether every output of a prediction is finite.
pub fn prediction_finite(pred: &tp_gnn::Prediction) -> bool {
    [&pred.arrival, &pred.slew, &pred.net_delay, &pred.cell_delay]
        .iter()
        .all(|t| t.data().iter().all(|v| v.is_finite()))
}

/// User and system CPU time of this process, in clock ticks, from
/// `/proc/self/stat` (zeros where it cannot be read).
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0);
    (get(11), get(12))
}

/// Linux's fixed user-space clock tick rate (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU use over a measured phase.
pub struct CpuWindow {
    ticks: (u64, u64),
    wall: Instant,
}

impl CpuWindow {
    /// Opens the window now.
    pub fn start() -> CpuWindow {
        CpuWindow {
            ticks: cpu_ticks(),
            wall: Instant::now(),
        }
    }

    /// `(system share of CPU time, CPU seconds per wall second)`.
    pub fn finish(&self) -> (f64, f64) {
        let (u1, s1) = cpu_ticks();
        let user = u1.saturating_sub(self.ticks.0) as f64;
        let sys = s1.saturating_sub(self.ticks.1) as f64;
        let wall = self.wall.elapsed().as_secs_f64();
        let share = if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        };
        (share, (user + sys) / TICKS_PER_S / wall.max(1e-9))
    }
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> f64 {
    tp_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// The resolved settings every run records: thread counts, the trainer's
/// manifest config (which echoes the partition budget in force) and any
/// `TP_*` overrides present in the environment. The benchmark itself sets
/// none.
pub fn base_config(out: &mut Outcome, workload: &str, p: &Params, scale: f64) {
    let manifest = tp_gnn::TrainReport::default()
        .run_report(
            p.seed,
            &tp_gnn::TrainConfig::default(),
            &tp_obs::ObsData::default(),
        )
        .to_json();
    let trainer_config = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"config\": "))
        .map_or("null", |c| c.trim_end_matches(','))
        .to_string();
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TP_"))
        .map(|(k, v)| format!("{}:{}", tp_obs::json::escape(&k), tp_obs::json::escape(&v)))
        .collect();
    env.sort();
    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.config.extend([
        ("workload".to_string(), tp_obs::json::escape(workload)),
        ("seed".to_string(), p.seed.to_string()),
        ("scale".to_string(), tp_obs::json::fmt_f64(scale)),
        ("threads".to_string(), tp_par::threads().to_string()),
        ("available_parallelism".to_string(), hw.to_string()),
        ("trainer_config".to_string(), trainer_config),
        ("tp_env".to_string(), format!("{{{}}}", env.join(","))),
    ]);
}

/// Starts the traced half of an op phase: spans on, and tp-obs on with
/// its counters zeroed so they cover only this half.
pub fn begin_traced() {
    tp_gnn::install_par_metrics();
    tp_obs::reset();
    tp_obs::enable();
    crate::trace::enable();
}

/// Ends the traced half; returns what tp-obs collected during it.
pub fn end_traced() -> tp_obs::ObsData {
    crate::trace::disable();
    tp_obs::disable();
    let data = tp_obs::drain();
    tp_obs::reset();
    data
}

/// Per-layer metrics every workload derives the same way: set-up layers
/// per set-up, route and STA per flow pass over the `designs` designs,
/// and process and fork-join counts over the op phase (`ops` traced ops).
pub struct Common<'a> {
    /// Every span of the run.
    pub spans: &'a [crate::trace::Span],
    /// Designs in one flow pass.
    pub designs: usize,
    /// What tp-obs counted during the traced half.
    pub obs: &'a tp_obs::ObsData,
    /// Ops in the traced half.
    pub ops: usize,
    /// `(system share, CPU per wall)` over the op phase.
    pub cpu: (f64, f64),
}

impl Common<'_> {
    /// Appends the metrics.
    pub fn emit(&self, out: &mut Outcome) {
        use crate::trace::{count, self_ms, total_ms, total_self_ms};
        let setups = SETUPS as f64;
        for (name, span) in [
            ("gen.generate_ms", "gen.generate"),
            ("place.place_ms", "place.place"),
            ("data.lower_ms", "data.lower"),
            ("gnn.plan_ms", "gnn.plan"),
        ] {
            out.metric(name, total_ms(self.spans, span) / setups, "ms");
        }
        let own = self_ms(self.spans);
        out.metric(
            "setup.other_ms",
            total_self_ms(self.spans, &own, "setup") / setups,
            "ms",
        );
        let flow_passes = (count(self.spans, "flow") as f64 / self.designs.max(1) as f64).max(1.0);
        out.metric(
            "route.route_ms",
            total_ms(self.spans, "route.route") / flow_passes,
            "ms",
        );
        out.metric(
            "sta.run_ms",
            total_ms(self.spans, "sta.run") / flow_passes,
            "ms",
        );
        out.metric("proc.sys_share", self.cpu.0, "ratio");
        out.metric("proc.cpu_per_wall", self.cpu.1, "ratio");
        let ops = self.ops.max(1) as f64;
        let regions = ["par.forked_regions", "par.inlined_regions"]
            .map(|name| (name, self.obs.counter_value(name) as f64 / ops));
        // Either count may be 0, but not both: every op runs parallel
        // regions.
        out.check(regions.iter().any(|&(_, n)| n > 0.0), || {
            "tp-obs counted no par.* regions over the traced ops".to_string()
        });
        for (name, n) in regions {
            out.metric(name, n, "count");
        }
        out.metric("trace.spans", self.spans.len() as f64, "count");
    }
}
