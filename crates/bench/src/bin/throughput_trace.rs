//! Within-epoch PFS throughput trace (§II-A): shows the Lustre bandwidth
//! regimes shifting under background interference during a vanilla run,
//! and the epoch-1 hand-off from PFS to SSD under MONARCH.

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::sim::SimTrainer;
use monarch_core::telemetry::{TelemetrySnapshot, TimeSeries};
use serde::Serialize;

#[derive(Serialize)]
struct TraceDoc {
    setup: String,
    window_secs: f64,
    /// Shared schema with the real trainer's trace (`RealEpoch::throughput`).
    series: TimeSeries,
    /// Full telemetry snapshot of the run (MONARCH setups only): latency
    /// quantiles, copy counters, journal totals.
    #[serde(skip_serializing_if = "Option::is_none")]
    telemetry: Option<TelemetrySnapshot>,
}

fn sparkline(rate: f64, max: f64) -> String {
    let width = 46usize;
    let filled = ((rate / max) * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

fn main() {
    let env = EnvConfig::default();
    let geom = DatasetGeom::imagenet_100g();
    let model = ModelProfile::lenet();
    let window = 20.0;
    let mut docs = Vec::new();
    for setup in [
        Setup::VanillaLustre,
        Setup::Monarch(MonarchSimConfig::paper_default()),
    ] {
        let label = setup.label().to_string();
        let pipeline = PipelineConfig {
            trace_interval_secs: Some(window),
            ..PipelineConfig::default().with_seed(0x7ace)
        };
        let r = SimTrainer::new(setup, geom.clone(), model.clone(), pipeline, env.clone()).run(2);
        println!("\n## PFS read throughput over time — {label} (LeNet, 100 GiB, 2 epochs)");
        let max = r.pfs_throughput_series.max_value().max(1.0);
        for &(t, rate) in &r.pfs_throughput_series {
            println!(
                "{:7.0}s {:7.0} MB/s |{}",
                t,
                rate / 1e6,
                sparkline(rate, max)
            );
        }
        if let Some(t) = r.telemetry.as_ref() {
            println!(
                " placement: {} copies, p50 {:.1}s / p99 {:.1}s, queue-wait p99 {:.1}s",
                t.stats.copies_completed,
                t.copy_duration.p50_nanos as f64 / 1e9,
                t.copy_duration.p99_nanos as f64 / 1e9,
                t.queue_wait.p99_nanos as f64 / 1e9,
            );
        }
        docs.push(TraceDoc {
            setup: label,
            window_secs: window,
            series: r.pfs_throughput_series,
            telemetry: r.telemetry,
        });
    }
    println!("\n(vanilla: plateaus at the interference regimes; monarch: epoch-1 copy");
    println!(" burst, then the PFS falls silent as epoch 2 runs off the SSD)");
    monarch_bench::save_json("throughput_trace", &docs);
}
