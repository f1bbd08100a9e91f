//! The figure table: every figure and quantitative table of the paper's
//! evaluation, and the extensions beyond it, as one scenario each.
//! `bench fig <name>` runs one and `bench fig all` runs them in table
//! order; each prints its rows and saves them as `results/<name>.json`,
//! the numbers `EXPERIMENTS.md` cites.

use dlpipe::config::{EnvConfig, MonarchSimConfig, PipelineConfig, Setup, SimTierKind};
use dlpipe::geometry::DatasetGeom;
use dlpipe::models::ModelProfile;
use dlpipe::report::{mean_std, RunReport, TrialSummary};
use dlpipe::sim::{ClusterConfig, ClusterTrainer, Sharding, SimTrainer};
use monarch_core::config::PolicyKind;
use serde_json::Value;

use crate::{reduction_pct, trials, EPOCHS};

/// One figure or table: what `bench fig <name>` runs.
pub struct Figure {
    /// The name `bench fig` takes and the stem of `results/<name>.json`.
    pub name: &'static str,
    /// What the rows show and the paper's numbers to hold them against.
    pub note: &'static str,
    /// Run the scenario: one JSON object per row.
    pub rows: fn() -> Vec<Value>,
}

/// `name: note,` pairs as [`Figure`]s whose rows come from `name()`.
macro_rules! figures {
    ($($name:ident: $note:expr,)+) => {
        [$(Figure { name: stringify!($name), note: $note, rows: $name }),+]
    };
}

/// Every figure, in the order `bench fig all` runs them. A figure's name
/// is the name of the function that runs it.
pub const FIGURES: &[Figure] = &figures! {
    fig1: "Fig. 1 (motivation): vanilla setups, 100 GiB ImageNet-1k, 3 epochs. Paper \
        totals (lustre/local/caching): lenet 1205/650/917 s, alexnet 1193/976/1058 s.",
    fig3: "Fig. 3: all setups, MONARCH with 6 copy threads and a 115 GiB SSD, 100 GiB. \
        Paper: lustre -> monarch lenet 1205 -> 811 s (33%), alexnet 1193 -> 1018 s (15%). \
        cpu/gpu % (§II-A/§IV-B), lustre/local/caching/monarch: lenet 30/22 57/39 37/28 \
        44/31, alexnet 31/58 42/72 34/63 37/68, resnet ~10/90.",
    fig4: "Fig. 4: 200 GiB, which only partly fits the 115 GiB SSD. Paper: lenet 2842 -> \
        2155 s (24%), alexnet 3567 -> 3138 s (12%). cpu/gpu % (§IV-B), lustre/monarch: \
        lenet 36/30 46/38, alexnet 31/63 33/69, resnet ~9/90.",
    variability: "§II-A: one LeNet epoch on 100 GiB over max(trials, 10) seeds, the error \
        bars of Fig. 1. Paper: Lustre epochs vary visibly run to run; local ones do not.",
    io_ops: "§IV-A: operations sent to the PFS. Paper (200 GiB): 798,340 per epoch, \
        ~360,000 of them still in MONARCH's epochs 2-3; up to 45% fewer (abstract), 55% \
        fewer on average in epochs 2-3 (§IV-A).",
    metadata_init: "§IV-A: MONARCH's scan of the dataset into its namespace. Paper: ~13 s \
        (100 GiB), ~52 s (200 GiB).",
    throughput_trace: "§II-A: PFS read throughput in 20 s windows, LeNet, 100 GiB, 2 epochs. \
        Vanilla holds the interference plateaus; MONARCH copies in epoch 1, then the PFS \
        idles.",
    ablation_eviction: "§III-A: no-eviction first-fit (paper) vs LRU eviction vs no \
        full-file fetch, LeNet, 200 GiB. Paper: eviction moves more bytes for no time gain.",
    ablation_pool: "Placement pool size, LeNet, 200 GiB. The paper fixes 6 threads.",
    ablation_prestage: "§III-A: placement option (i) pre-stage vs (ii) on-demand (paper), \
        LeNet. Pre-staging buys a local-speed first epoch with an idle staging phase.",
    ablation_tiers: "§VI: RAM (48 GiB) over SSD (115 GiB) over Lustre vs the paper's two \
        levels, 200 GiB. More local capacity, fewer PFS ops.",
    capacity_sweep: "Local capacity as a fraction of the 200 GiB dataset, LeNet; op \
        reduction vs vanilla-lustre. Fig. 4 sits at 115/200 = 0.575.",
    distributed: "§VI: 1-8 nodes on one Lustre backend, LeNet, 200 GiB. Static shard \
        ownership keeps every cache hot; reshuffling sends most reads back to the PFS.",
    peer_scaling: "Peer cache, warm epoch, 9.8 GiB, per-node quota 1/16. Static ownership: \
        aggregate throughput grows with nodes, per-node PFS bytes stay ~flat; reshuffling \
        re-warms from the PFS.",
    chaos_outage: "SSD outage over the middle half of epoch 2, LeNet, fully fitting. \
        Acceptance: the outage's window rate is >= 0.9x the floor's, and the tier recovers.",
};

/// Run `fig`, print its rows under its note, and save them as
/// `results/<name>.json`.
pub fn run(fig: &Figure) {
    let rows = (fig.rows)();
    println!("\n## {}\n{}\n", fig.name, fig.note);
    crate::print_table(&rows);
    crate::save_json(fig.name, &rows);
}

/// A row: a JSON object holding `field: value` in the order written, each
/// value serialized as a derived struct field would be.
macro_rules! row {
    ($($field:ident: $value:expr),+ $(,)?) => {
        Value::Object(serde_json::Map::from(vec![$((
            stringify!($field).to_string(),
            serde_json::to_value(&$value).expect("row field serializes"),
        )),+]))
    };
}

/// One LeNet run in the default environment.
fn lenet(setup: &Setup, geom: &DatasetGeom, seed: u64, epochs: usize) -> RunReport {
    let env = EnvConfig::default();
    crate::run_once(setup, geom, &ModelProfile::lenet(), &env, seed, epochs)
}

/// `min(trials(), 3)` MONARCH runs under `cfg` (default environment, 3
/// epochs): their summary, and the first run (seed `0xbeef`), whose
/// counts the ablations report.
fn ablate(
    cfg: &MonarchSimConfig,
    geom: &DatasetGeom,
    model: &ModelProfile,
) -> (TrialSummary, RunReport) {
    let (setup, env) = (Setup::Monarch(cfg.clone()), EnvConfig::default());
    let runs = crate::trial_runs(&setup, geom, model, &env, trials().min(3), EPOCHS);
    let summary = TrialSummary::from_runs(&runs);
    (summary, runs.into_iter().next().expect("one trial"))
}

/// Every paper model under every setup, `trials()` runs each.
fn grid(geom: &DatasetGeom, setups: &[Setup]) -> Vec<Value> {
    let (env, mut rows) = (EnvConfig::default(), Vec::new());
    for model in ModelProfile::paper_models() {
        for setup in setups {
            let runs = crate::trial_runs(setup, geom, &model, &env, trials(), EPOCHS);
            let summary = TrialSummary::from_runs(&runs);
            rows.push(serde_json::to_value(&summary).expect("summary serializes"));
        }
    }
    rows
}

fn fig1() -> Vec<Value> {
    let setups = [
        Setup::VanillaLustre,
        Setup::VanillaLocal,
        Setup::VanillaCaching,
    ];
    grid(&DatasetGeom::imagenet_100g(), &setups)
}

fn fig3() -> Vec<Value> {
    let monarch = Setup::Monarch(MonarchSimConfig::paper_default());
    let setups = [
        Setup::VanillaLustre,
        Setup::VanillaLocal,
        Setup::VanillaCaching,
        monarch,
    ];
    grid(&DatasetGeom::imagenet_100g(), &setups)
}

fn fig4() -> Vec<Value> {
    let monarch = Setup::Monarch(MonarchSimConfig::paper_default());
    grid(
        &DatasetGeom::imagenet_200g(),
        &[Setup::VanillaLustre, monarch],
    )
}

fn variability() -> Vec<Value> {
    let (geom, n) = (DatasetGeom::imagenet_100g(), trials().max(10));
    let row = |setup: Setup| {
        let xs: Vec<f64> = (0..n)
            .map(|t| lenet(&setup, &geom, 0xaaaa + t * 37, 1).epochs[0].seconds)
            .collect();
        let (mean, std) = mean_std(&xs);
        row! {
            setup: setup.label(),
            trials: n,
            mean_seconds: mean,
            std_seconds: std,
            min_seconds: xs.iter().copied().fold(f64::MAX, f64::min),
            max_seconds: xs.iter().copied().fold(f64::MIN, f64::max),
            cov_pct: if mean > 0.0 { std / mean * 100.0 } else { 0.0 },
        }
    };
    vec![row(Setup::VanillaLustre), row(Setup::VanillaLocal)]
}

fn io_ops() -> Vec<Value> {
    let mut rows = Vec::new();
    for geom in [DatasetGeom::imagenet_100g(), DatasetGeom::imagenet_200g()] {
        let paper = Setup::Monarch(MonarchSimConfig::paper_default());
        let lustre = lenet(&Setup::VanillaLustre, &geom, 0xbeef, EPOCHS);
        let monarch = lenet(&paper, &geom, 0xbeef, EPOCHS);
        let base = lustre.pfs_ops() as f64;
        for run in [&lustre, &monarch] {
            let epoch_ops: Vec<u64> = (0..run.epochs.len())
                .map(|e| run.pfs_ops_epoch(e))
                .collect();
            rows.push(row! {
                dataset: geom.name,
                setup: run.setup,
                epoch_ops: epoch_ops,
                total_ops: run.pfs_ops(),
                reduction_vs_lustre_pct: reduction_pct(base, run.pfs_ops() as f64),
            });
        }
    }
    rows
}

fn metadata_init() -> Vec<Value> {
    let setup = Setup::Monarch(MonarchSimConfig::paper_default());
    let row = |geom: DatasetGeom| {
        // One epoch suffices: the scan happens before training.
        let xs: Vec<f64> = (0..trials())
            .map(|t| lenet(&setup, &geom, 0x1111 + t * 31, 1).metadata_init_seconds)
            .collect();
        let (mean, std) = mean_std(&xs);
        row! {
            dataset: geom.name,
            shards: geom.num_shards(),
            init_seconds_mean: mean,
            init_seconds_std: std,
        }
    };
    vec![
        row(DatasetGeom::imagenet_100g()),
        row(DatasetGeom::imagenet_200g()),
    ]
}

fn throughput_trace() -> Vec<Value> {
    let window = 20.0;
    let row = |setup: Setup| {
        let pipeline = PipelineConfig {
            trace_interval_secs: Some(window),
            ..PipelineConfig::default().with_seed(0x7ace)
        };
        let (geom, model) = (DatasetGeom::imagenet_100g(), ModelProfile::lenet());
        let label = setup.label().to_string();
        let r = SimTrainer::new(setup, geom, model, pipeline, EnvConfig::default()).run(2);
        // The series shares its schema with the real trainer's trace.
        let mut row = row! { setup: label, window_secs: window, series: r.pfs_throughput_series };
        // Only MONARCH runs carry a telemetry snapshot.
        if let (Value::Object(fields), Some(t)) = (&mut row, &r.telemetry) {
            let t = serde_json::to_value(t).expect("telemetry serializes");
            fields.insert("telemetry".into(), t);
        }
        row
    };
    let monarch = Setup::Monarch(MonarchSimConfig::paper_default());
    vec![row(Setup::VanillaLustre), row(monarch)]
}

fn ablation_eviction() -> Vec<Value> {
    let paper = MonarchSimConfig::paper_default();
    let lru = MonarchSimConfig {
        policy: PolicyKind::LruEvict,
        ..paper.clone()
    };
    let no_fetch = MonarchSimConfig {
        full_file_fetch: false,
        ..paper.clone()
    };
    let geom = DatasetGeom::imagenet_200g();
    let row = |variant: &str, cfg: &MonarchSimConfig| {
        let (s, once) = ablate(cfg, &geom, &ModelProfile::lenet());
        let stats = once.telemetry.as_ref().map(|t| &t.stats);
        let ssd_written: u64 = once
            .epochs
            .iter()
            .map(|e| e.devices[0].bytes_written())
            .sum();
        row! {
            variant: variant,
            total_seconds: s.total_mean,
            pfs_ops: once.pfs_ops(),
            pfs_bytes_read: crate::pfs_bytes_read(&once),
            ssd_bytes_written: ssd_written,
            copies_completed: stats.map_or(0, |s| s.copies_completed),
            // Files pushed out to make room (LRU only), a subset of `removes`.
            evictions: stats.map_or(0, |s| s.evictions),
            removes: stats.map_or(0, |s| s.removes),
        }
    };
    vec![
        row("first-fit (paper)", &paper),
        row("lru-evict", &lru),
        row("first-fit, no full-file fetch", &no_fetch),
    ]
}

fn ablation_pool() -> Vec<Value> {
    let geom = DatasetGeom::imagenet_200g();
    let row = |threads: usize| {
        let cfg = MonarchSimConfig {
            pool_threads: threads,
            ..MonarchSimConfig::paper_default()
        };
        let (s, once) = ablate(&cfg, &geom, &ModelProfile::lenet());
        row! {
            pool_threads: threads,
            total_seconds: s.total_mean,
            epoch1_seconds: s.epoch_mean[0],
            pfs_ops: once.pfs_ops(),
        }
    };
    [1, 2, 4, 6, 8, 12, 16].into_iter().map(row).collect()
}

fn ablation_prestage() -> Vec<Value> {
    let mut rows = Vec::new();
    for geom in [DatasetGeom::imagenet_100g(), DatasetGeom::imagenet_200g()] {
        for (variant, prestage) in [("on-demand (paper)", false), ("pre-stage", true)] {
            let cfg = MonarchSimConfig {
                prestage,
                ..MonarchSimConfig::paper_default()
            };
            let r = lenet(&Setup::Monarch(cfg), &geom, 0xbeef, EPOCHS);
            let epoch_seconds: Vec<f64> = r.epochs.iter().map(|e| e.seconds).collect();
            rows.push(row! {
                dataset: geom.name,
                variant: variant,
                prestage_seconds: r.prestage_seconds,
                epoch_seconds: epoch_seconds,
                total_with_staging: r.total_seconds() + r.prestage_seconds,
            });
        }
    }
    rows
}

fn ablation_tiers() -> Vec<Value> {
    let geom = DatasetGeom::imagenet_200g();
    let two_level = MonarchSimConfig::paper_default();
    let three_level = MonarchSimConfig {
        tiers: vec![(SimTierKind::Ram, 48 << 30), (SimTierKind::Ssd, 115 << 30)],
        ..MonarchSimConfig::paper_default()
    };
    let mut rows = Vec::new();
    for model in [ModelProfile::lenet(), ModelProfile::alexnet()] {
        for (variant, cfg) in [
            ("ssd+lustre (paper)", &two_level),
            ("ram+ssd+lustre", &three_level),
        ] {
            let (s, once) = ablate(cfg, &geom, &model);
            rows.push(row! {
                variant: variant,
                model: model.name,
                total_seconds: s.total_mean,
                pfs_ops: once.pfs_ops(),
            });
        }
    }
    rows
}

fn capacity_sweep() -> Vec<Value> {
    let geom = DatasetGeom::imagenet_200g();
    let base = lenet(&Setup::VanillaLustre, &geom, 0xbeef, EPOCHS).pfs_ops() as f64;
    let row = |frac: f64| {
        let cap = ((geom.total_bytes() as f64 * frac) as u64).max(1);
        let cfg = MonarchSimConfig::with_ssd_capacity(cap);
        let (s, once) = ablate(&cfg, &geom, &ModelProfile::lenet());
        row! {
            capacity_fraction: frac,
            total_seconds: s.total_mean,
            pfs_ops: once.pfs_ops(),
            pfs_op_reduction_pct: reduction_pct(base, once.pfs_ops() as f64),
        }
    };
    let fractions = [0.0, 0.15, 0.3, 0.45, 0.575, 0.7, 0.85, 1.0, 1.15];
    fractions.into_iter().map(row).collect()
}

fn distributed() -> Vec<Value> {
    let mut rows = Vec::new();
    for nodes in [1, 2, 4, 8] {
        for cfg in [
            ClusterConfig::vanilla(nodes),
            ClusterConfig::monarch(nodes, Sharding::Static),
            ClusterConfig::monarch(nodes, Sharding::Reshuffled),
        ] {
            let (geom, model) = (DatasetGeom::imagenet_200g(), ModelProfile::lenet());
            let pipeline = PipelineConfig::default().with_seed(0xd157);
            let r =
                ClusterTrainer::new(cfg, geom, model, pipeline, EnvConfig::default()).run(EPOCHS);
            let epoch_seconds: Vec<f64> = r.epochs.iter().map(|e| e.seconds).collect();
            rows.push(row! {
                label: r.label,
                nodes: nodes,
                epoch_seconds: epoch_seconds,
                total_seconds: r.total_seconds(),
                pfs_ops: r.pfs_ops(),
                final_hit_ratio: r.epochs.last().map_or(0.0, |e| e.local_hit_ratio),
            });
        }
    }
    rows
}

fn peer_scaling() -> Vec<Value> {
    const GIB: f64 = (1u64 << 30) as f64;
    let geom = DatasetGeom::miniature("peer-scaling", 98_304, 11);
    let mut rows = Vec::new();
    for nodes in [1, 2, 4, 8] {
        for sharding in [Sharding::Static, Sharding::Reshuffled] {
            let r = crate::peer_cluster(&geom, nodes, sharding, 0xfa2, 3);
            let warm = r.epochs.len() - 1;
            let e = &r.epochs[warm];
            rows.push(row! {
                label: r.label,
                nodes: nodes,
                warm_epoch_seconds: e.seconds,
                agg_gib_per_s: r.agg_bytes_per_s(warm) / GIB,
                pfs_gib_per_node: r.pfs_bytes_per_node(warm) / GIB,
                peer_hits: e.peer_hits,
                peer_gib: e.peer_bytes as f64 / GIB,
                peer_fallbacks: e.peer_fallbacks,
            });
        }
    }
    rows
}

fn chaos_outage() -> Vec<Value> {
    let run = crate::ssd_outage(&DatasetGeom::miniature("chaos", 32_768, 42), 0xc405, 1);
    let row = |setup: &str, r: &RunReport| {
        let stats = r.telemetry.as_ref().map(|t| &t.stats);
        let health = r.telemetry.as_ref().and_then(|t| t.health.as_ref());
        let epoch_secs: Vec<f64> = r.epochs.iter().map(|e| e.seconds).collect();
        row! {
            setup: setup,
            window_samples_per_s: r.fault_windows.first().map_or(0.0, |w| w.samples_per_s),
            epoch_secs: epoch_secs,
            degraded_reads: stats.map_or(0, |s| s.degraded_reads),
            read_retries: stats.map_or(0, |s| s.read_retries),
            copy_requeues: stats.map_or(0, |s| s.copy_requeues),
            quarantines: health.map_or(0, |h| h.tiers.iter().map(|t| t.quarantines).sum::<u64>()),
            recoveries: health.map_or(0, |h| h.tiers.iter().map(|t| t.recoveries).sum::<u64>()),
        }
    };
    vec![
        row("monarch (healthy)", &run.healthy),
        row("monarch (ssd outage)", &run.faulted),
        row("vanilla-lustre (floor)", &run.floor),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(name: &str) -> std::path::PathBuf {
        crate::snapshot::repo_root().join("results").join(name)
    }

    #[test]
    fn chaos_outage_matches_its_committed_figure() {
        let fig = FIGURES.iter().find(|f| f.name == "chaos_outage").unwrap();
        let json = serde_json::to_string_pretty(&(fig.rows)()).unwrap();
        let committed = std::fs::read_to_string(results("chaos_outage.json")).unwrap();
        assert!(
            json == committed,
            "results/chaos_outage.json is stale:\n{json}"
        );
    }

    #[test]
    fn table_and_results_agree_one_to_one() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "two figures share a name");
        let mut files: Vec<String> = std::fs::read_dir(results(""))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".json").map(str::to_string))
            .collect();
        files.sort_unstable();
        assert_eq!(names, files, "figure table vs results/*.json");
    }
}
