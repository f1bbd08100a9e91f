//! Acceptance test for causal request tracing: one real (tempdir) epoch
//! and one simulated (virtual-time) epoch each export Perfetto-loadable
//! Chrome JSON in which at least one foreground `driver_pread` served by
//! the PFS tier is flow-linked to a completed background `copy_exec`
//! that wrote the fast tier.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use monarch::core::config::{MonarchConfig, TelemetryConfig, TierConfig};
use monarch::core::Monarch;
use monarch::dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup};
use monarch::dlpipe::geometry::DatasetGeom;
use monarch::dlpipe::models::ModelProfile;
use monarch::dlpipe::real::{RealBackend, RealTrainer};
use monarch::dlpipe::sim::SimTrainer;
use monarch::tfrecord::synth::{generate, DatasetSpec};
use serde_json::Value;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("monarch-trace-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The cross-setup invariant: the export parses, and some PFS-tier
/// `driver_pread` carries a flow id that a completed `copy_exec`
/// finishes — with the copy's `copy_write` child on the fast tier and
/// both `s`/`f` flow events present so the arrow renders in Perfetto.
fn assert_flow_linked(json: &str, pfs_tier: &str, fast_tier: &str) {
    let v: Value = serde_json::from_str(json).expect("export must be valid JSON");
    assert_eq!(v["displayTimeUnit"], "ms");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let x = |name: &'static str| {
        events
            .iter()
            .filter(move |e| e["ph"] == "X" && e["name"] == name)
    };

    let pread_flows: HashSet<u64> = x("driver_pread")
        .filter(|e| e["args"]["tier"] == pfs_tier)
        .filter_map(|e| e["args"]["flow"].as_u64())
        .collect();
    assert!(
        !pread_flows.is_empty(),
        "no flow-carrying driver_pread on {pfs_tier}"
    );

    let mut linked = 0;
    for e in x("copy_exec") {
        let Some(flow) = e["args"]["flow"].as_u64() else {
            continue;
        };
        if !pread_flows.contains(&flow) || e["args"]["outcome"] != "completed" {
            continue;
        }
        let exec_id = e["args"]["span_id"].as_u64().expect("copy_exec span_id");
        let wrote_fast = x("copy_write").any(|w| {
            w["args"]["parent_id"].as_u64() == Some(exec_id) && w["args"]["tier"] == fast_tier
        });
        let starts = events
            .iter()
            .any(|ev| ev["ph"] == "s" && ev["id"].as_u64() == Some(flow));
        let finishes = events
            .iter()
            .any(|ev| ev["ph"] == "f" && ev["id"].as_u64() == Some(flow));
        if wrote_fast && starts && finishes {
            linked += 1;
        }
    }
    assert!(
        linked >= 1,
        "no {pfs_tier} read flow-linked to a completed {fast_tier} copy"
    );
}

/// Real epoch over a tempdir dataset: posix tiers, the real pipeline,
/// tracing on every read.
#[test]
fn real_epoch_exports_flow_linked_trace() {
    let root = tmp("real");
    let data = root.join("pfs");
    let spec = DatasetSpec::miniature(1 << 20, 96, 17);
    let ds = generate(&spec, &data).unwrap();

    let cfg = MonarchConfig {
        pool_threads: 4,
        telemetry: TelemetryConfig::with_tracing(),
        ..MonarchConfig::new(vec![
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
            TierConfig::posix("pfs", data.to_string_lossy().to_string()),
        ])
    };
    let m = Arc::new(Monarch::new(cfg).unwrap());
    m.init().unwrap();

    let trainer = RealTrainer::new(
        RealBackend::Monarch(Arc::clone(&m)),
        &data,
        PipelineConfig {
            readers: 4,
            chunk_bytes: 16 << 10,
            prefetch_batches: 2,
            seed: 11,
            trace_interval_secs: None,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    trainer.run_epoch(0).unwrap();
    m.wait_placement_idle();

    assert_flow_linked(&m.trace_json(), "pfs", "ssd");
    fs::remove_dir_all(&root).unwrap();
}

/// Simulated epoch: same span taxonomy and flow links, in virtual time,
/// exported through `RunReport::trace_json`.
#[test]
fn sim_epoch_exports_flow_linked_trace() {
    let model = ModelProfile {
        name: "tiny".into(),
        per_sample_step: 50e-6,
        gpu_fraction: 0.7,
        cpu_per_sample: 60e-6,
        batch_size: 128,
    };
    let r = SimTrainer::new(
        Setup::Monarch(MonarchSimConfig::with_tracing()),
        DatasetGeom::miniature("trace", 16_384, 42),
        model,
        PipelineConfig::default().with_seed(1),
        EnvConfig::default(),
    )
    .run(1);
    let json = r
        .trace_json
        .as_deref()
        .expect("traced sim run exports JSON");
    assert_flow_linked(json, "lustre", "ssd0");
}
