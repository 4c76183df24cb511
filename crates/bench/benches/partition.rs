//! Micro-benchmarks for the partitioned execution path: chunked vs
//! monolithic GNN forward and the tensor pool hit rate under streaming
//! inference.
//!
//! All knobs are restored after each section so suites stay independent.

use tp_bench::micro::{BenchResult, Suite};
use tp_data::{Dataset, DatasetConfig, DesignGraph};
use tp_gen::GeneratorConfig;
use tp_gnn::{ModelConfig, PropPlan, TimingGnn};
use tp_liberty::Library;

fn design(scale: f64) -> DesignGraph {
    let library = Library::synthetic_sky130(1);
    let ds = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale,
                seed: 1,
                depth: None,
            },
            ..Default::default()
        },
    );
    ds.by_name("usbf_device").expect("suite member").clone()
}

/// Chunked (streaming, pooled) vs monolithic forward at a handful of
/// node budgets. `0` is the baseline: the untouched monolithic path.
fn bench_chunked_forward(suite: &mut Suite, d: &DesignGraph) {
    let plan = PropPlan::build(d);
    let model = TimingGnn::new(&ModelConfig::default());
    for budget in [0usize, 256, 1024, 4096] {
        tp_partition::set_partition_nodes(budget);
        let label = if budget == 0 {
            "gnn_forward/monolithic".to_string()
        } else {
            format!("gnn_forward/chunk_{budget}")
        };
        suite.bench(&label, || {
            tp_tensor::no_grad(|| model.forward(d, &plan))
        });
    }
    tp_partition::clear_partition_nodes();
}

/// Steady-state pool hit rate of a chunked forward: after a warm-up pass
/// has populated the free lists, nearly every allocation should be
/// served from the pool. Recorded as a percentage in the `median_ns`
/// column (the suite schema's one numeric slot).
fn bench_pool_hit_rate(suite: &mut Suite, d: &DesignGraph) {
    let plan = PropPlan::build(d);
    let model = TimingGnn::new(&ModelConfig::default());
    tp_partition::set_partition_nodes(1024);
    let _scope = tp_tensor::pool::scope();
    tp_tensor::no_grad(|| model.forward(d, &plan));
    tp_tensor::pool::reset_stats();
    tp_tensor::no_grad(|| model.forward(d, &plan));
    let stats = tp_tensor::pool::stats();
    let total = stats.hits + stats.misses;
    let rate_pct = if total == 0 {
        0.0
    } else {
        100.0 * stats.hits as f64 / total as f64
    };
    suite.record(BenchResult {
        name: "pool_hit_rate_pct/chunk_1024".to_string(),
        median_ns: rate_pct,
        mean_ns: rate_pct,
        min_ns: rate_pct,
        max_ns: rate_pct,
        iters_per_sample: 1,
        samples: 1,
    });
    tp_partition::clear_partition_nodes();
}

fn main() {
    let d = design(0.02);
    let mut suite = Suite::new("partition");
    bench_chunked_forward(&mut suite, &d);
    bench_pool_hit_rate(&mut suite, &d);
    suite.finish();
}
