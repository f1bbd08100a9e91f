//! Library behind the `monarch` CLI binary (kept as a lib so the argument
//! parser and command implementations are unit-testable).

use std::path::PathBuf;

use dlpipe::config::PipelineConfig;
use dlpipe::real::{RealBackend, RealTrainer};
use monarch_core::config::PolicyKind;
use monarch_core::{Monarch, MonarchConfig};
use tfrecord::synth::{generate, DatasetSpec};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic TFRecord dataset.
    GenDataset {
        /// Output directory.
        dir: PathBuf,
        /// Approximate total payload bytes.
        bytes: u64,
        /// Number of samples.
        samples: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Initialise the middleware and pre-stage the dataset.
    Stage {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Placement policy override.
        policy: Option<PolicyKind>,
    },
    /// Initialise the middleware and print the composed policy engine:
    /// the admission/eviction/scorer triple and its decision counters.
    Policy {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Policy override (same spellings as `stage --policy`).
        policy: Option<PolicyKind>,
        /// Emit the snapshot as JSON instead of the human table.
        json: bool,
    },
    /// Initialise the middleware and print the namespace summary.
    Inspect {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
    },
    /// Stream the dataset through the middleware for N epochs
    /// (subcommand `epoch`, alias `run`).
    Epoch {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Dataset directory (logical namespace root — the PFS tier).
        data: PathBuf,
        /// Parallel readers.
        readers: usize,
        /// Chunk size per read, bytes.
        chunk: u64,
        /// Number of epochs.
        epochs: usize,
        /// Clairvoyant prefetch lookahead override: submit each epoch's
        /// shard order as an access plan and stage that many files ahead
        /// of the read cursor (`0` = use the config file's setting).
        prefetch: usize,
    },
    /// Render the telemetry registry (same registry the FFI exposes via
    /// `monarch_metrics_text`).
    Metrics {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Output format.
        format: MetricsFormat,
        /// Re-render every N seconds until interrupted.
        watch: Option<f64>,
    },
    /// Initialise the middleware and expose the observability endpoints
    /// (`/metrics`, `/snapshot`, `/trace`, `/healthz`) over HTTP.
    Serve {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Bind address (port `0` picks a free port; the bound address is
        /// printed). Ignored when the config's `metrics_addr` already
        /// started an exporter.
        addr: String,
        /// Shut down after this many seconds (`None` = until killed).
        duration: Option<f64>,
    },
    /// Stream the dataset through the middleware with the access profiler
    /// on and print the epoch bottleneck-attribution report.
    Report {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Chunk size per read, bytes.
        chunk: u64,
        /// Number of epochs.
        epochs: usize,
        /// Clairvoyant prefetch lookahead (`0` = use the config file's
        /// setting; the report is most useful with prefetch on).
        prefetch: usize,
        /// Top-K entries in the hot and wasted-prefetch lists.
        top: usize,
        /// Emit the report as JSON instead of the human table.
        json: bool,
    },
    /// Initialise the middleware in cluster mode and print the node
    /// roster plus shard statistics for the scanned namespace.
    Cluster {
        /// Path to a `MonarchConfig` JSON file (must carry a `cluster`
        /// section).
        config: PathBuf,
        /// Emit the snapshot as JSON instead of the human table.
        json: bool,
    },
    /// Initialise the middleware and print the per-tier health table
    /// (state machine, error rates, quarantine/probe counters).
    Health {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Emit the snapshot as JSON instead of the human table.
        json: bool,
    },
    /// Stream the dataset through the middleware with causal tracing on
    /// and write a Chrome Trace Event / Perfetto JSON file.
    Trace {
        /// Path to a `MonarchConfig` JSON file.
        config: PathBuf,
        /// Dataset directory (logical namespace root — the PFS tier).
        data: PathBuf,
        /// Output path for the trace JSON.
        out: PathBuf,
        /// Parallel readers.
        readers: usize,
        /// Chunk size per read, bytes.
        chunk: u64,
        /// Keep running whole epochs until this many seconds elapsed
        /// (`None` = exactly one epoch).
        duration: Option<f64>,
        /// Trace every N-th read (1 = every read).
        sample: u64,
    },
}

/// Output format for `monarch metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus-style exposition text.
    Text,
    /// Pretty-printed `TelemetrySnapshot` JSON.
    Json,
}

impl Command {
    /// Usage text.
    #[must_use]
    pub fn usage() -> &'static str {
        "usage:\n  \
         monarch gen-dataset --dir DIR --bytes N --samples N [--seed N]\n  \
         monarch stage       --config CFG.json [--policy KIND]\n  \
         monarch policy      --config CFG.json [--policy KIND] [--json]\n  \
         \x20                (KIND: first_fit|round_robin|lru_evict|lfu|cost_aware|clairvoyant|learned)\n  \
         monarch inspect     --config CFG.json\n  \
         monarch epoch|run   --config CFG.json --data DIR [--readers N] [--chunk BYTES] [--epochs N] [--prefetch N]\n  \
         monarch metrics     --config CFG.json [--format text|json] [--watch SECS]\n  \
         monarch serve       --config CFG.json [--addr HOST:PORT] [--duration SECS]\n  \
         monarch report      --config CFG.json [--chunk BYTES] [--epochs N] [--prefetch N] [--top K] [--json]\n  \
         monarch cluster     --config CFG.json [--json]\n  \
         monarch health      --config CFG.json [--json]\n  \
         monarch trace       --config CFG.json --data DIR --out TRACE.json [--readers N] [--chunk BYTES] [--duration SECS] [--sample N]"
    }

    /// Parse an argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        // Flags that take no value (presence alone means "true").
        const SWITCHES: &[&str] = &["json"];
        let mut it = args.iter();
        let sub = it.next().ok_or("missing subcommand")?;
        let mut flags = std::collections::BTreeMap::new();
        let mut key: Option<String> = None;
        for a in it {
            if let Some(stripped) = a.strip_prefix("--") {
                if let Some(k) = key.take() {
                    if SWITCHES.contains(&k.as_str()) {
                        flags.insert(k, "true".to_string());
                    } else {
                        return Err(format!("flag --{k} is missing a value"));
                    }
                }
                key = Some(stripped.to_string());
            } else if let Some(k) = key.take() {
                flags.insert(k, a.clone());
            } else {
                return Err(format!("unexpected argument: {a}"));
            }
        }
        if let Some(k) = key {
            if SWITCHES.contains(&k.as_str()) {
                flags.insert(k, "true".to_string());
            } else {
                return Err(format!("flag --{k} is missing a value"));
            }
        }
        let get = |k: &str| -> Result<String, String> {
            flags
                .get(k)
                .cloned()
                .ok_or_else(|| format!("missing --{k}"))
        };
        let get_u64 = |k: &str, default: Option<u64>| -> Result<u64, String> {
            match flags.get(k) {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--{k} wants a number, got {v}")),
                None => default.ok_or_else(|| format!("missing --{k}")),
            }
        };
        match sub.as_str() {
            "gen-dataset" => Ok(Command::GenDataset {
                dir: PathBuf::from(get("dir")?),
                bytes: get_u64("bytes", None)?,
                samples: get_u64("samples", None)?,
                seed: get_u64("seed", Some(1))?,
            }),
            "stage" => Ok(Command::Stage {
                config: PathBuf::from(get("config")?),
                policy: parse_policy_flag(&flags)?,
            }),
            "policy" => Ok(Command::Policy {
                config: PathBuf::from(get("config")?),
                policy: parse_policy_flag(&flags)?,
                json: matches!(flags.get("json").map(String::as_str), Some("true")),
            }),
            "inspect" => Ok(Command::Inspect {
                config: PathBuf::from(get("config")?),
            }),
            "epoch" | "run" => Ok(Command::Epoch {
                config: PathBuf::from(get("config")?),
                data: PathBuf::from(get("data")?),
                readers: get_u64("readers", Some(8))? as usize,
                chunk: get_u64("chunk", Some(256 << 10))?,
                epochs: get_u64("epochs", Some(3))? as usize,
                prefetch: get_u64("prefetch", Some(0))? as usize,
            }),
            "metrics" => Ok(Command::Metrics {
                config: PathBuf::from(get("config")?),
                format: match flags.get("format").map(String::as_str) {
                    None | Some("text") => MetricsFormat::Text,
                    Some("json") => MetricsFormat::Json,
                    Some(other) => return Err(format!("unknown format: {other}")),
                },
                watch: match flags.get("watch") {
                    None => None,
                    Some(v) => match v.parse::<f64>() {
                        Ok(secs) if secs > 0.0 => Some(secs),
                        _ => {
                            return Err(format!(
                                "--watch wants a positive number of seconds, got {v}"
                            ))
                        }
                    },
                },
            }),
            "serve" => Ok(Command::Serve {
                config: PathBuf::from(get("config")?),
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:9464".to_string()),
                duration: match flags.get("duration") {
                    None => None,
                    Some(v) => match v.parse::<f64>() {
                        Ok(secs) if secs > 0.0 => Some(secs),
                        _ => {
                            return Err(format!(
                                "--duration wants a positive number of seconds, got {v}"
                            ))
                        }
                    },
                },
            }),
            "report" => Ok(Command::Report {
                config: PathBuf::from(get("config")?),
                chunk: get_u64("chunk", Some(256 << 10))?,
                epochs: match get_u64("epochs", Some(2))? {
                    0 => return Err("--epochs must be >= 1".into()),
                    n => n as usize,
                },
                prefetch: get_u64("prefetch", Some(16))? as usize,
                top: get_u64("top", Some(5))? as usize,
                json: matches!(flags.get("json").map(String::as_str), Some("true")),
            }),
            "cluster" => Ok(Command::Cluster {
                config: PathBuf::from(get("config")?),
                json: matches!(flags.get("json").map(String::as_str), Some("true")),
            }),
            "health" => Ok(Command::Health {
                config: PathBuf::from(get("config")?),
                json: matches!(flags.get("json").map(String::as_str), Some("true")),
            }),
            "trace" => Ok(Command::Trace {
                config: PathBuf::from(get("config")?),
                data: PathBuf::from(get("data")?),
                out: PathBuf::from(get("out")?),
                readers: get_u64("readers", Some(4))? as usize,
                chunk: get_u64("chunk", Some(256 << 10))?,
                duration: match flags.get("duration") {
                    None => None,
                    Some(v) => match v.parse::<f64>() {
                        Ok(secs) if secs > 0.0 => Some(secs),
                        _ => {
                            return Err(format!(
                                "--duration wants a positive number of seconds, got {v}"
                            ))
                        }
                    },
                },
                sample: match get_u64("sample", Some(1))? {
                    0 => return Err("--sample must be >= 1 (0 disables tracing)".into()),
                    n => n,
                },
            }),
            other => Err(format!("unknown subcommand: {other}")),
        }
    }
}

/// Resolve an optional `--policy` flag through [`PolicyKind::parse`].
fn parse_policy_flag(
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<Option<PolicyKind>, String> {
    match flags.get("policy") {
        None => Ok(None),
        Some(s) => PolicyKind::parse(s).map(Some).ok_or_else(|| {
            let known = PolicyKind::all().map(PolicyKind::as_str).join("|");
            format!("unknown policy: {s} (known: {known})")
        }),
    }
}

/// Load a `MonarchConfig` from a JSON file, optionally overriding the
/// policy and the prefetch lookahead, and build + init the middleware.
fn load_monarch(
    config: &PathBuf,
    policy: Option<PolicyKind>,
    prefetch: Option<usize>,
) -> Result<Monarch, String> {
    let json =
        std::fs::read_to_string(config).map_err(|e| format!("read {}: {e}", config.display()))?;
    let mut cfg = MonarchConfig::from_json(&json).map_err(|e| format!("parse config: {e}"))?;
    if let Some(p) = policy {
        cfg.policy = p;
    }
    if let Some(n) = prefetch {
        cfg.prefetch_lookahead = n;
    }
    let m = Monarch::new(cfg).map_err(|e| format!("build middleware: {e}"))?;
    let report = m.init().map_err(|e| format!("namespace scan: {e}"))?;
    // Status goes to stderr: commands like `health --json` must keep
    // stdout machine-parseable.
    eprintln!(
        "namespace: {} files, {:.1} MiB, scanned in {:?}",
        report.files,
        report.bytes as f64 / (1 << 20) as f64,
        report.elapsed
    );
    Ok(m)
}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::GenDataset {
            dir,
            bytes,
            samples,
            seed,
        } => {
            let spec = DatasetSpec::miniature(bytes, samples, seed);
            let ds = generate(&spec, &dir).map_err(|e| e.to_string())?;
            println!(
                "wrote {} records / {:.1} MiB across {} shards under {}",
                ds.total_records,
                ds.total_bytes as f64 / (1 << 20) as f64,
                ds.shards.len(),
                dir.display()
            );
            Ok(())
        }
        Command::Stage { config, policy } => {
            let m = load_monarch(&config, policy, None)?;
            let scheduled = m.prestage();
            m.wait_placement_idle();
            let stats = m.stats();
            println!(
                "staged: {scheduled} scheduled, {} completed, {} skipped (no room), {} failed",
                stats.copies_completed, stats.placement_skipped, stats.copies_failed
            );
            let hist = m.metadata().residency_histogram(m.hierarchy().levels());
            println!("residency per tier: {hist:?}");
            Ok(())
        }
        Command::Policy {
            config,
            policy,
            json,
        } => {
            let m = load_monarch(&config, policy, None)?;
            let snap = m
                .telemetry_snapshot()
                .policy
                .ok_or("snapshot carries no policy section")?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
                );
            } else {
                println!("policy: {}", snap.name);
                println!("  admission: {}", snap.admission);
                println!(
                    "  eviction:  {} ({})",
                    snap.eviction,
                    if snap.may_evict {
                        "may evict"
                    } else {
                        "never evicts"
                    }
                );
                println!("  scorer:    {}", snap.scorer);
                println!(
                    "  demand admits/denials:   {} / {}",
                    snap.demand_admits, snap.demand_denials
                );
                println!(
                    "  prefetch admits/denials: {} / {}",
                    snap.prefetch_admits, snap.prefetch_denials
                );
                println!(
                    "  evictions selected: {} (+{} under pressure), {} pinned",
                    snap.evictions_selected, snap.pressure_victims, snap.pinned
                );
            }
            Ok(())
        }
        Command::Inspect { config } => {
            let m = load_monarch(&config, None, None)?;
            for tier in m.hierarchy().tiers() {
                match tier.quota.as_ref() {
                    Some(q) => println!(
                        "tier {} ({}): {:.1} / {:.1} MiB used",
                        tier.id,
                        tier.name,
                        q.used() as f64 / (1 << 20) as f64,
                        q.capacity() as f64 / (1 << 20) as f64
                    ),
                    None => println!("tier {} ({}): source (read-only)", tier.id, tier.name),
                }
            }
            println!(
                "stats: {}",
                serde_json::to_string_pretty(&m.stats()).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Epoch {
            config,
            data,
            readers,
            chunk,
            epochs,
            prefetch,
        } => {
            let m = std::sync::Arc::new(load_monarch(
                &config,
                None,
                (prefetch > 0).then_some(prefetch),
            )?);
            let trainer = RealTrainer::new(
                RealBackend::Monarch(std::sync::Arc::clone(&m)),
                &data,
                PipelineConfig {
                    readers,
                    chunk_bytes: chunk,
                    prefetch_batches: 4,
                    seed: 1,
                    trace_interval_secs: None,
                    ..PipelineConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            for epoch in 0..epochs {
                let before = m.stats();
                // The trainer's shuffle is seeded, so the upcoming shard
                // order is known exactly: hand it to the middleware as a
                // clairvoyant access plan (no-op when prefetch is off).
                let plan = monarch_core::AccessPlan::new(trainer.epoch_order(epoch));
                let admitted = m.submit_plan(&plan);
                let e = trainer.run_epoch(epoch).map_err(|e| e.to_string())?;
                m.wait_placement_idle();
                let after = m.stats();
                let local = after.local_reads().saturating_sub(before.local_reads());
                let pfs = after.pfs_reads().saturating_sub(before.pfs_reads());
                print!(
                    "epoch {}: {:.2}s, {} chunk reads ({:.1} MiB) — local {} / pfs {}",
                    epoch + 1,
                    e.seconds,
                    e.chunk_reads,
                    e.bytes as f64 / (1 << 20) as f64,
                    local,
                    pfs
                );
                if admitted > 0 {
                    println!(
                        " — prefetch: {} staged, {} hits, {} promoted",
                        after.prefetches_scheduled - before.prefetches_scheduled,
                        after.prefetch_hits - before.prefetch_hits,
                        after.prefetch_promoted - before.prefetch_promoted
                    );
                } else {
                    println!();
                }
            }
            println!(
                "final stats: {}",
                serde_json::to_string(&m.stats()).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Metrics {
            config,
            format,
            watch,
        } => {
            let m = load_monarch(&config, None, None)?;
            let render = |m: &Monarch| -> Result<String, String> {
                match format {
                    MetricsFormat::Text => Ok(m.metrics_text()),
                    MetricsFormat::Json => serde_json::to_string_pretty(&m.telemetry_snapshot())
                        .map_err(|e| e.to_string()),
                }
            };
            match watch {
                None => println!("{}", render(&m)?),
                // Both renderers are non-draining (snapshots, not queue
                // pops), so every tick sees the full cumulative state —
                // a watch loop never steals events from another consumer.
                Some(secs) => loop {
                    println!("{}", render(&m)?);
                    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
                },
            }
            Ok(())
        }
        Command::Serve {
            config,
            addr,
            duration,
        } => {
            let m = load_monarch(&config, None, None)?;
            // A `metrics_addr` in the config already started the exporter
            // during build; otherwise bind the --addr flag now.
            let bound = match m.serve_addr() {
                Some(a) => a,
                None => m.serve(&addr).map_err(|e| format!("start exporter: {e}"))?,
            };
            println!("serving /metrics /snapshot /trace /healthz on http://{bound}");
            match duration {
                Some(secs) => {
                    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
                    println!("duration elapsed, shutting down");
                    m.shutdown();
                }
                None => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
            }
            Ok(())
        }
        Command::Report {
            config,
            chunk,
            epochs,
            prefetch,
            top,
            json,
        } => {
            let cfg_json = std::fs::read_to_string(&config)
                .map_err(|e| format!("read {}: {e}", config.display()))?;
            let mut cfg =
                MonarchConfig::from_json(&cfg_json).map_err(|e| format!("parse config: {e}"))?;
            // The subcommand's whole point is the observatory: force
            // telemetry and the access profiler on regardless of the
            // config file, like `trace` forces tracing on.
            cfg.telemetry.enabled = true;
            cfg.telemetry.profiler = true;
            if prefetch > 0 {
                cfg.prefetch_lookahead = prefetch;
            }
            let lookahead = cfg.prefetch_lookahead;
            let m = Monarch::new(cfg).map_err(|e| format!("build middleware: {e}"))?;
            let init = m.init().map_err(|e| format!("namespace scan: {e}"))?;
            if !json {
                println!(
                    "namespace: {} files, {:.1} MiB, scanned in {:?}",
                    init.files,
                    init.bytes as f64 / (1 << 20) as f64,
                    init.elapsed
                );
            }
            let mut files: Vec<(String, u64)> = Vec::new();
            m.metadata()
                .for_each(|name, info| files.push((name.to_string(), info.size)));
            files.sort();
            if files.is_empty() {
                return Err("the source tier holds no files — nothing to profile".into());
            }
            // Hold back a tail of the namespace: those files stay in the
            // plan (so the prefetcher stages the ones within lookahead of
            // the final cursor) but are never read — the report's
            // wasted-prefetch list gets a deterministic population.
            let hold = if files.len() >= 4 && lookahead > 0 {
                (files.len() / 8).clamp(1, lookahead)
            } else {
                0
            };
            let read_set = &files[..files.len() - hold];
            let plan_names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
            let mut buf = vec![0u8; (chunk.max(1)) as usize];
            let t0 = std::time::Instant::now();
            for _ in 0..epochs {
                let plan = monarch_core::AccessPlan::new(plan_names.clone());
                m.submit_plan(&plan);
                for (name, size) in read_set {
                    let mut off = 0u64;
                    while off < *size {
                        let n = m.read(name, off, &mut buf).map_err(|e| e.to_string())?;
                        if n == 0 {
                            break;
                        }
                        off += n as u64;
                    }
                }
            }
            m.wait_placement_idle();
            let wall = t0.elapsed().as_secs_f64();
            let snap = m.telemetry_snapshot();
            let report = monarch_core::ObserveReport::from_snapshot(&snap, wall, 1, top)
                .ok_or("telemetry snapshot carries no observe section")?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", report.render_table());
            }
            m.shutdown();
            Ok(())
        }
        Command::Cluster { config, json } => {
            let m = load_monarch(&config, None, None)?;
            let (Some(cluster), Some(snap)) = (m.cluster(), m.telemetry_snapshot().cluster) else {
                return Err("config has no `cluster` section — nothing to report".into());
            };
            // Shard statistics over the scanned namespace: how the
            // consistent-hash ring splits this node's file set by count
            // and by bytes.
            let mut nodes = vec![(0u64, 0u64); cluster.config().nodes.len()];
            m.metadata().for_each(|name, info| {
                let owner = cluster.shard_map().owner(name);
                if let Some((files, bytes)) = nodes.get_mut(owner) {
                    *files += 1;
                    *bytes += info.size;
                }
            });
            if json {
                let shard: Vec<serde_json::Value> = nodes
                    .iter()
                    .enumerate()
                    .map(|(id, (files, bytes))| {
                        let mut entry = serde_json::Map::new();
                        entry.insert("node".into(), serde_json::Value::UInt(id as u64));
                        entry.insert("files".into(), serde_json::Value::UInt(*files));
                        entry.insert("bytes".into(), serde_json::Value::UInt(*bytes));
                        serde_json::Value::Object(entry)
                    })
                    .collect();
                let mut out = serde_json::Map::new();
                out.insert(
                    "cluster".into(),
                    serde_json::to_value(&snap).map_err(|e| e.to_string())?,
                );
                out.insert("shard_load".into(), serde_json::Value::Array(shard));
                println!(
                    "{}",
                    serde_json::to_string_pretty(&serde_json::Value::Object(out))
                        .map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", snap.render_table());
                println!("shard assignment over the namespace:");
                for (id, (files, bytes)) in nodes.iter().enumerate() {
                    println!(
                        "   node {id:<3} owns {files:>6} file(s) / {:.1} MiB",
                        *bytes as f64 / (1 << 20) as f64
                    );
                }
            }
            m.shutdown();
            Ok(())
        }
        Command::Health { config, json } => {
            let m = load_monarch(&config, None, None)?;
            let snap = m
                .telemetry_snapshot()
                .health
                .ok_or("snapshot carries no health section")?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", snap.render_table());
            }
            m.shutdown();
            Ok(())
        }
        Command::Trace {
            config,
            data,
            out,
            readers,
            chunk,
            duration,
            sample,
        } => {
            let json = std::fs::read_to_string(&config)
                .map_err(|e| format!("read {}: {e}", config.display()))?;
            let mut cfg =
                MonarchConfig::from_json(&json).map_err(|e| format!("parse config: {e}"))?;
            // The subcommand's whole point is a trace: force telemetry on
            // and apply the sampling rate regardless of what the config
            // file says.
            cfg.telemetry.enabled = true;
            cfg.telemetry.trace_sample_every_n = sample;
            let m = Monarch::new(cfg).map_err(|e| format!("build middleware: {e}"))?;
            m.init().map_err(|e| format!("namespace scan: {e}"))?;
            let m = std::sync::Arc::new(m);
            let trainer = RealTrainer::new(
                RealBackend::Monarch(std::sync::Arc::clone(&m)),
                &data,
                PipelineConfig {
                    readers,
                    chunk_bytes: chunk,
                    prefetch_batches: 4,
                    seed: 1,
                    trace_interval_secs: None,
                    ..PipelineConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let deadline = duration
                .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs_f64(secs));
            let mut epochs = 0usize;
            loop {
                let e = trainer.run_epoch(epochs).map_err(|e| e.to_string())?;
                m.wait_placement_idle();
                epochs += 1;
                println!(
                    "epoch {epochs}: {:.2}s, {} chunk reads",
                    e.seconds, e.chunk_reads
                );
                match deadline {
                    Some(d) if std::time::Instant::now() < d => {}
                    _ => break,
                }
            }
            let trace = m.trace_json();
            std::fs::write(&out, &trace).map_err(|e| format!("write {}: {e}", out.display()))?;
            let tr = m.telemetry().trace();
            println!(
                "trace: {} spans recorded ({} dropped) over {epochs} epoch(s) → {}",
                tr.spans_recorded(),
                tr.spans_dropped(),
                out.display()
            );
            println!("open it in https://ui.perfetto.dev or chrome://tracing");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Command::parse(&v)
    }

    #[test]
    fn parses_gen_dataset() {
        let cmd = parse(&[
            "gen-dataset",
            "--dir",
            "/tmp/x",
            "--bytes",
            "1048576",
            "--samples",
            "64",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::GenDataset {
                dir: PathBuf::from("/tmp/x"),
                bytes: 1 << 20,
                samples: 64,
                seed: 1
            }
        );
    }

    #[test]
    fn parses_stage_with_policy() {
        let cmd = parse(&["stage", "--config", "c.json", "--policy", "lru_evict"]).unwrap();
        assert_eq!(
            cmd,
            Command::Stage {
                config: PathBuf::from("c.json"),
                policy: Some(PolicyKind::LruEvict)
            }
        );
        // Every selector the core knows parses here too.
        for kind in PolicyKind::all() {
            let cmd = parse(&["stage", "--config", "c.json", "--policy", kind.as_str()]).unwrap();
            assert_eq!(
                cmd,
                Command::Stage {
                    config: PathBuf::from("c.json"),
                    policy: Some(kind)
                }
            );
        }
    }

    #[test]
    fn parses_policy_view() {
        let cmd = parse(&["policy", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Policy {
                config: PathBuf::from("c.json"),
                policy: None,
                json: false
            }
        );
        let cmd = parse(&[
            "policy", "--config", "c.json", "--policy", "learned", "--json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Policy {
                config: PathBuf::from("c.json"),
                policy: Some(PolicyKind::Learned),
                json: true
            }
        );
        assert!(parse(&["policy", "--config", "c", "--policy", "nope"]).is_err());
    }

    #[test]
    fn parses_epoch_defaults() {
        let cmd = parse(&["epoch", "--config", "c.json", "--data", "/d"]).unwrap();
        assert_eq!(
            cmd,
            Command::Epoch {
                config: PathBuf::from("c.json"),
                data: PathBuf::from("/d"),
                readers: 8,
                chunk: 256 << 10,
                epochs: 3,
                prefetch: 0
            }
        );
    }

    #[test]
    fn run_is_an_epoch_alias_with_prefetch() {
        let cmd = parse(&[
            "run",
            "--config",
            "c.json",
            "--data",
            "/d",
            "--prefetch",
            "16",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Epoch {
                config: PathBuf::from("c.json"),
                data: PathBuf::from("/d"),
                readers: 8,
                chunk: 256 << 10,
                epochs: 3,
                prefetch: 16
            }
        );
        assert!(parse(&["run", "--config", "c", "--data", "/d", "--prefetch", "x"]).is_err());
    }

    #[test]
    fn parses_metrics_defaults_and_overrides() {
        let cmd = parse(&["metrics", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Metrics {
                config: PathBuf::from("c.json"),
                format: MetricsFormat::Text,
                watch: None
            }
        );
        let cmd = parse(&[
            "metrics", "--config", "c.json", "--format", "json", "--watch", "0.5",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Metrics {
                config: PathBuf::from("c.json"),
                format: MetricsFormat::Json,
                watch: Some(0.5)
            }
        );
    }

    #[test]
    fn parses_serve_defaults_and_overrides() {
        let cmd = parse(&["serve", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                config: PathBuf::from("c.json"),
                addr: "127.0.0.1:9464".to_string(),
                duration: None
            }
        );
        let cmd = parse(&[
            "serve",
            "--config",
            "c.json",
            "--addr",
            "0.0.0.0:0",
            "--duration",
            "1.5",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                config: PathBuf::from("c.json"),
                addr: "0.0.0.0:0".to_string(),
                duration: Some(1.5)
            }
        );
        assert!(parse(&["serve", "--config", "c", "--duration", "0"]).is_err());
        assert!(parse(&["serve", "--config", "c", "--duration", "x"]).is_err());
    }

    #[test]
    fn parses_report_defaults_switch_and_overrides() {
        let cmd = parse(&["report", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                config: PathBuf::from("c.json"),
                chunk: 256 << 10,
                epochs: 2,
                prefetch: 16,
                top: 5,
                json: false
            }
        );
        // `--json` is a switch: valid bare, before another flag, or last.
        let cmd = parse(&["report", "--json", "--config", "c.json", "--top", "3"]).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                config: PathBuf::from("c.json"),
                chunk: 256 << 10,
                epochs: 2,
                prefetch: 16,
                top: 3,
                json: true
            }
        );
        let cmd = parse(&["report", "--config", "c.json", "--json"]).unwrap();
        assert!(matches!(cmd, Command::Report { json: true, .. }));
        assert!(parse(&["report", "--config", "c", "--epochs", "0"]).is_err());
        assert!(
            parse(&["report", "--json"]).is_err(),
            "still missing --config"
        );
    }

    #[test]
    fn parses_cluster_defaults_and_json_switch() {
        let cmd = parse(&["cluster", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                config: PathBuf::from("c.json"),
                json: false
            }
        );
        let cmd = parse(&["cluster", "--config", "c.json", "--json"]).unwrap();
        assert!(matches!(cmd, Command::Cluster { json: true, .. }));
        assert!(parse(&["cluster"]).is_err(), "missing --config");
    }

    #[test]
    fn parses_health_defaults_and_json_switch() {
        let cmd = parse(&["health", "--config", "c.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Health {
                config: PathBuf::from("c.json"),
                json: false
            }
        );
        let cmd = parse(&["health", "--config", "c.json", "--json"]).unwrap();
        assert!(matches!(cmd, Command::Health { json: true, .. }));
        assert!(parse(&["health"]).is_err(), "missing --config");
    }

    #[test]
    fn parses_trace_defaults_and_overrides() {
        let cmd = parse(&[
            "trace", "--config", "c.json", "--data", "/d", "--out", "t.json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                config: PathBuf::from("c.json"),
                data: PathBuf::from("/d"),
                out: PathBuf::from("t.json"),
                readers: 4,
                chunk: 256 << 10,
                duration: None,
                sample: 1
            }
        );
        let cmd = parse(&[
            "trace",
            "--config",
            "c.json",
            "--data",
            "/d",
            "--out",
            "t.json",
            "--duration",
            "2.5",
            "--sample",
            "8",
            "--readers",
            "2",
            "--chunk",
            "4096",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                config: PathBuf::from("c.json"),
                data: PathBuf::from("/d"),
                out: PathBuf::from("t.json"),
                readers: 2,
                chunk: 4096,
                duration: Some(2.5),
                sample: 8
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["stage"]).is_err(), "missing --config");
        assert!(parse(&["stage", "--config"]).is_err(), "dangling flag");
        assert!(parse(&["stage", "--config", "c", "--policy", "nope"]).is_err());
        assert!(parse(&["epoch", "--config", "c", "--data", "/d", "--readers", "x"]).is_err());
        assert!(parse(&["gen-dataset", "stray", "--dir", "x"]).is_err());
        assert!(parse(&["metrics", "--config", "c", "--format", "yaml"]).is_err());
        assert!(parse(&["metrics", "--config", "c", "--watch", "-1"]).is_err());
        assert!(parse(&["metrics", "--config", "c", "--watch", "soon"]).is_err());
        assert!(
            parse(&["trace", "--config", "c", "--data", "/d"]).is_err(),
            "missing --out"
        );
        assert!(
            parse(&["trace", "--config", "c", "--data", "/d", "--out", "t", "--sample", "0"])
                .is_err()
        );
        assert!(parse(&[
            "trace",
            "--config",
            "c",
            "--data",
            "/d",
            "--out",
            "t",
            "--duration",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn end_to_end_gen_stage_epoch() {
        let root = std::env::temp_dir().join(format!("monarch-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let data = root.join("pfs");
        run(Command::GenDataset {
            dir: data.clone(),
            bytes: 512 << 10,
            samples: 32,
            seed: 7,
        })
        .unwrap();

        // Write a config pointing at the generated data.
        let cfg = monarch_core::config::MonarchConfig::builder()
            .tier(
                monarch_core::config::TierConfig::posix(
                    "ssd",
                    root.join("ssd").to_string_lossy().to_string(),
                )
                .with_capacity(1 << 20),
            )
            .tier(monarch_core::config::TierConfig::posix(
                "pfs",
                data.to_string_lossy().to_string(),
            ))
            .pool_threads(2)
            .build();
        let cfg_path = root.join("cfg.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();

        run(Command::Stage {
            config: cfg_path.clone(),
            policy: None,
        })
        .unwrap();
        run(Command::Inspect {
            config: cfg_path.clone(),
        })
        .unwrap();
        run(Command::Epoch {
            config: cfg_path.clone(),
            data: data.clone(),
            readers: 2,
            chunk: 8 << 10,
            epochs: 2,
            prefetch: 0,
        })
        .unwrap();
        // The `run --prefetch` path: plan-driven staging over the same data.
        run(Command::Epoch {
            config: cfg_path.clone(),
            data,
            readers: 2,
            chunk: 8 << 10,
            epochs: 1,
            prefetch: 8,
        })
        .unwrap();
        // One-shot metrics renders in both formats against the same config.
        run(Command::Metrics {
            config: cfg_path.clone(),
            format: MetricsFormat::Text,
            watch: None,
        })
        .unwrap();
        run(Command::Metrics {
            config: cfg_path.clone(),
            format: MetricsFormat::Json,
            watch: None,
        })
        .unwrap();
        // The report subcommand runs its own plan-driven epoch loop and
        // prints the bottleneck-attribution table.
        run(Command::Report {
            config: cfg_path.clone(),
            chunk: 8 << 10,
            epochs: 2,
            prefetch: 8,
            top: 5,
            json: false,
        })
        .unwrap();
        // A cluster-mode config renders the node roster and the shard
        // assignment over the generated namespace.
        let ccfg = monarch_core::config::MonarchConfig::builder()
            .tier(
                monarch_core::config::TierConfig::posix(
                    "ssd",
                    root.join("ssd-cluster").to_string_lossy().to_string(),
                )
                .with_capacity(1 << 20),
            )
            .tier(monarch_core::config::TierConfig::posix(
                "pfs",
                root.join("pfs").to_string_lossy().to_string(),
            ))
            .pool_threads(2)
            .cluster(monarch_core::ClusterConfig::new(
                0,
                vec!["127.0.0.1:0".to_string()],
            ))
            .build();
        let ccfg_path = root.join("cluster-cfg.json");
        std::fs::write(&ccfg_path, ccfg.to_json()).unwrap();
        run(Command::Cluster {
            config: ccfg_path.clone(),
            json: false,
        })
        .unwrap();
        run(Command::Cluster {
            config: ccfg_path,
            json: true,
        })
        .unwrap();
        // A traced run writes a Perfetto-loadable JSON file with flow-linked
        // read and copy spans.
        let trace_path = root.join("trace.json");
        run(Command::Trace {
            config: cfg_path,
            data: root.join("pfs"),
            out: trace_path.clone(),
            readers: 2,
            chunk: 8 << 10,
            duration: None,
            sample: 1,
        })
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["name"] == "read"));
        assert!(events.iter().any(|e| e["name"] == "driver_pread"));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
