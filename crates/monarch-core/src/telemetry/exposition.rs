//! The Prometheus text exposition: a pure function of the one document.

use std::borrow::Cow;

use super::histogram::LE_LADDER;
use super::{HistogramSnapshot, TelemetrySnapshot};
use crate::stats::TierSnapshot;

/// Escape a Prometheus label value: `\`, `"` and newline must be
/// backslash-escaped per the text exposition format. Returns the input
/// unchanged (borrowed) when no escaping is needed — the common case for
/// tier and lane names.
fn escape_label_value(v: &str) -> Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 4);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Nanoseconds as the exposition's seconds.
fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn family(o: &mut String, name: &str, help: &str, kind: &str) {
    o.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// One histogram's cumulative `_bucket` ladder, `+Inf`, `_sum` and
/// `_count` lines, labelled with its tier when it has one.
fn histogram(o: &mut String, name: &str, tier: Option<&str>, h: &HistogramSnapshot) {
    let labels = |le: &str| match tier {
        Some(t) => format!("{{tier=\"{t}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    for (i, bound) in LE_LADDER.into_iter().enumerate() {
        let count = h.count_le.get(i).copied().unwrap_or(0);
        o.push_str(&format!(
            "{name}_bucket{} {count}\n",
            labels(&secs(bound).to_string())
        ));
    }
    o.push_str(&format!("{name}_bucket{} {}\n", labels("+Inf"), h.count));
    let plain = tier.map_or_else(String::new, |t| format!("{{tier=\"{t}\"}}"));
    o.push_str(&format!("{name}_sum{plain} {}\n", secs(h.sum_nanos)));
    o.push_str(&format!("{name}_count{plain} {}\n", h.count));
}

impl TelemetrySnapshot {
    /// Prometheus-style text exposition of this document: counters as
    /// `counter` metrics, the latency summaries as `histogram` metrics
    /// with cumulative `_bucket{le="..."}` lines in seconds (from each
    /// summary's `count_le`, so `histogram_quantile()` works on the scraped
    /// series), and the gauges as `gauge` metrics, each family one
    /// contiguous block. Every sample is a value of the document and
    /// nothing live is read, so a scrape is a projection of the snapshot it
    /// renders.
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut o = String::with_capacity(4096);
        let tiers: Vec<Cow<'_, str>> = self
            .tier_names
            .iter()
            .map(|t| escape_label_value(t))
            .collect();

        let per_tier =
            |get: fn(&TierSnapshot) -> u64| self.stats.tiers.iter().map(get).collect::<Vec<_>>();
        for (name, help, values) in [
            (
                "monarch_tier_reads_total",
                "Read operations served per tier.",
                per_tier(|t| t.reads),
            ),
            (
                "monarch_tier_read_bytes_total",
                "Bytes read per tier.",
                per_tier(|t| t.bytes_read),
            ),
            (
                "monarch_tier_writes_total",
                "Write operations (placement copies) per tier.",
                per_tier(|t| t.writes),
            ),
            (
                "monarch_tier_written_bytes_total",
                "Bytes written per tier.",
                per_tier(|t| t.bytes_written),
            ),
            (
                "monarch_tier_removes_total",
                "Files removed per tier (evictions plus cleanup).",
                per_tier(|t| t.removes),
            ),
        ] {
            family(&mut o, name, help, "counter");
            for (tier, v) in tiers.iter().zip(values) {
                o.push_str(&format!("{name}{{tier=\"{tier}\"}} {v}\n"));
            }
        }

        let (files_tracked, untracked_reads) = self.observe.as_ref().map_or((0, 0), |obs| {
            (obs.profiler.tracked, obs.profiler.untracked_reads)
        });
        let scalars = self.stats.counters().into_iter().chain([
            (
                "monarch_journal_events_total",
                "Telemetry events recorded.",
                self.events_recorded,
            ),
            // Bounded-buffer drops must be visible, not silent.
            (
                "monarch_events_dropped_total",
                "Journal events overwritten by the ring bound.",
                self.events_dropped,
            ),
            (
                "monarch_trace_spans_total",
                "Trace spans recorded.",
                self.spans_recorded,
            ),
            (
                "monarch_trace_spans_dropped_total",
                "Trace spans dropped by the span-ring bound.",
                self.spans_dropped,
            ),
            (
                "monarch_profile_files_tracked",
                "Distinct files tracked by the access profiler.",
                files_tracked,
            ),
            (
                "monarch_profile_untracked_reads_total",
                "Reads of files past the profiler's tracking bound.",
                untracked_reads,
            ),
        ]);
        for (name, help, v) in scalars {
            family(&mut o, name, help, "counter");
            o.push_str(&format!("{name} {v}\n"));
        }

        for (name, help, hists) in [
            (
                "monarch_read_latency_seconds",
                "Per-tier read latency.",
                &self.read_latency,
            ),
            (
                "monarch_write_latency_seconds",
                "Per-tier write latency.",
                &self.write_latency,
            ),
        ] {
            family(&mut o, name, help, "histogram");
            for (tier, h) in tiers.iter().zip(hists) {
                histogram(&mut o, name, Some(tier), h);
            }
        }
        let stall = &self.stall_profile;
        for (name, help, h) in [
            (
                "monarch_copy_duration_seconds",
                "Background-copy duration (schedule-to-install).",
                &self.copy_duration,
            ),
            (
                "monarch_pool_queue_wait_seconds",
                "Demand-lane copy-pool queue wait (submit to task start).",
                &self.queue_wait,
            ),
            (
                "monarch_pool_remote_queue_wait_seconds",
                "Remote-lane copy-pool queue wait (submit to task start).",
                &self.queue_wait_remote,
            ),
            (
                "monarch_pool_prefetch_queue_wait_seconds",
                "Prefetch-lane copy-pool queue wait (submit to task start).",
                &self.queue_wait_prefetch,
            ),
            (
                "monarch_pool_exec_seconds",
                "Copy-pool task execution time.",
                &self.pool_exec,
            ),
            (
                "monarch_read_stall_lock_wait_seconds",
                "Sampled-read stall: metadata lock/lookup phase.",
                &stall.lock_wait,
            ),
            (
                "monarch_read_stall_queue_wait_seconds",
                "Sampled-read stall: pre-pread bookkeeping phase.",
                &stall.queue_wait,
            ),
            (
                "monarch_read_stall_driver_pread_seconds",
                "Sampled-read stall: backend pread phase.",
                &stall.driver_pread,
            ),
            (
                "monarch_read_stall_copy_wait_seconds",
                "Sampled-read stall: post-pread bookkeeping phase.",
                &stall.copy_wait,
            ),
            (
                "monarch_read_degraded_fallback_seconds",
                "Wall time of reads served down-hierarchy from a failing tier.",
                &stall.degraded_fallback,
            ),
        ] {
            family(&mut o, name, help, "histogram");
            histogram(&mut o, name, None, h);
        }

        // The producer emits a family's cells one after another, so a new
        // name opens the next family.
        let mut open = None;
        for g in &self.gauges {
            if open != Some(&g.name) {
                family(&mut o, &g.name, &g.help, "gauge");
                open = Some(&g.name);
            }
            let labels: Vec<String> = g
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            if labels.is_empty() {
                o.push_str(&format!("{} {}\n", g.name, g.value));
            } else {
                o.push_str(&format!("{}{{{}}} {}\n", g.name, labels.join(","), g.value));
            }
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use serde_json::Value;

    use super::super::{GaugeSnapshot, StallProfileSnapshot};
    use super::*;
    use crate::observe::{ObserveSnapshot, ProfilerSnapshot};
    use crate::stats::StatsSnapshot;

    /// The `le` ladder as the exposition spells it.
    const LES: [&str; 8] = [
        "0.000001", "0.00001", "0.0001", "0.001", "0.01", "0.1", "1", "10",
    ];

    /// A document whose every counter, histogram field and gauge holds a
    /// value no other one does, over a tier whose name needs escaping.
    fn frozen(observe: bool) -> TelemetrySnapshot {
        let next = Cell::new(1_000u64);
        let next = || {
            next.set(next.get() + 7);
            next.get()
        };
        let defaults = serde_json::to_value(&StatsSnapshot::default()).unwrap();
        let mut fields = vec![
            r#""tiers":[{"reads":1,"bytes_read":2,"writes":3,"bytes_written":4,"removes":5},"#
                .to_string()
                + r#"{"reads":6,"bytes_read":7,"writes":8,"bytes_written":9,"removes":10}]"#,
        ];
        for (key, value) in defaults.as_object().unwrap().iter() {
            if value.is_u64() {
                fields.push(format!("\"{key}\":{}", next()));
            }
        }
        let stats: StatsSnapshot =
            serde_json::from_str(&format!("{{{}}}", fields.join(","))).unwrap();
        let hist = || HistogramSnapshot {
            count: next(),
            sum_nanos: next() * 1_000_003,
            count_le: (0..LES.len()).map(|_| next()).collect(),
            ..HistogramSnapshot::default()
        };
        let gauge = |name: &str, labels: &[(&str, &str)], value: f64| GaugeSnapshot {
            name: name.into(),
            help: format!("Help of {name}."),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).into(), (*v).into()))
                .collect(),
            value,
        };
        TelemetrySnapshot {
            tier_names: vec!["ss\"d".into(), "pfs".into()],
            stats,
            read_latency: vec![hist(), hist()],
            write_latency: vec![hist(), hist()],
            copy_duration: hist(),
            queue_wait: hist(),
            queue_wait_remote: hist(),
            queue_wait_prefetch: hist(),
            pool_exec: hist(),
            stall_profile: StallProfileSnapshot {
                lock_wait: hist(),
                queue_wait: hist(),
                driver_pread: hist(),
                copy_wait: hist(),
                degraded_fallback: hist(),
            },
            gauges: vec![
                gauge("monarch_tier_files", &[("tier", "ss\"d")], 11.0),
                gauge("monarch_tier_files", &[("tier", "pfs")], 12.0),
                gauge("monarch_lane_queued", &[("lane", "demand")], 13.0),
                gauge("monarch_draining", &[], 14.0),
            ],
            events_recorded: next(),
            events_dropped: next(),
            spans_recorded: next(),
            spans_dropped: next(),
            observe: observe.then(|| ObserveSnapshot {
                profiler: ProfilerSnapshot {
                    tracked: next(),
                    untracked_reads: next(),
                    ..ProfilerSnapshot::default()
                },
            }),
            ..TelemetrySnapshot::default()
        }
    }

    /// Every sample the exposition of `doc` must carry, keyed by its
    /// `name{labels}`, each read off the serialised document by its path.
    fn samples_by_path(doc: &Value) -> BTreeMap<String, f64> {
        let n = |v: &Value| v.as_f64().unwrap();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let tiers: Vec<String> = doc["tier_names"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| esc(t.as_str().unwrap()))
            .collect();
        let mut want = BTreeMap::new();
        for (key, value) in doc["stats"].as_object().unwrap().iter() {
            if value.is_u64() {
                want.insert(format!("monarch_{key}_total"), n(value));
            }
        }
        for (family, key) in [
            ("monarch_tier_reads_total", "reads"),
            ("monarch_tier_read_bytes_total", "bytes_read"),
            ("monarch_tier_writes_total", "writes"),
            ("monarch_tier_written_bytes_total", "bytes_written"),
            ("monarch_tier_removes_total", "removes"),
        ] {
            for (i, tier) in tiers.iter().enumerate() {
                let v = n(&doc["stats"]["tiers"][i][key]);
                want.insert(format!("{family}{{tier=\"{tier}\"}}"), v);
            }
        }
        for (family, key) in [
            ("monarch_journal_events_total", "events_recorded"),
            ("monarch_events_dropped_total", "events_dropped"),
            ("monarch_trace_spans_total", "spans_recorded"),
            ("monarch_trace_spans_dropped_total", "spans_dropped"),
        ] {
            want.insert(family.into(), n(&doc[key]));
        }
        let profiler = doc.get("observe").map(|o| &o["profiler"]);
        for (family, key) in [
            ("monarch_profile_files_tracked", "tracked"),
            ("monarch_profile_untracked_reads_total", "untracked_reads"),
        ] {
            want.insert(family.into(), profiler.map_or(0.0, |p| n(&p[key])));
        }
        let mut histogram = |family: &str, tier: Option<&str>, h: &Value| {
            let with = |le: &str| match tier {
                Some(t) => format!("{{tier=\"{t}\",le=\"{le}\"}}"),
                None => format!("{{le=\"{le}\"}}"),
            };
            for (j, le) in LES.iter().enumerate() {
                want.insert(format!("{family}_bucket{}", with(le)), n(&h["count_le"][j]));
            }
            want.insert(format!("{family}_bucket{}", with("+Inf")), n(&h["count"]));
            let plain = tier.map_or_else(String::new, |t| format!("{{tier=\"{t}\"}}"));
            let secs = h["sum_nanos"].as_u64().unwrap() as f64 / 1e9;
            want.insert(format!("{family}_sum{plain}"), secs);
            want.insert(format!("{family}_count{plain}"), n(&h["count"]));
        };
        for (family, key) in [
            ("monarch_read_latency_seconds", "read_latency"),
            ("monarch_write_latency_seconds", "write_latency"),
        ] {
            for (i, tier) in tiers.iter().enumerate() {
                histogram(family, Some(tier), &doc[key][i]);
            }
        }
        for (family, path) in [
            ("monarch_copy_duration_seconds", ["copy_duration", ""]),
            ("monarch_pool_queue_wait_seconds", ["queue_wait", ""]),
            (
                "monarch_pool_remote_queue_wait_seconds",
                ["queue_wait_remote", ""],
            ),
            (
                "monarch_pool_prefetch_queue_wait_seconds",
                ["queue_wait_prefetch", ""],
            ),
            ("monarch_pool_exec_seconds", ["pool_exec", ""]),
            (
                "monarch_read_stall_lock_wait_seconds",
                ["stall_profile", "lock_wait"],
            ),
            (
                "monarch_read_stall_queue_wait_seconds",
                ["stall_profile", "queue_wait"],
            ),
            (
                "monarch_read_stall_driver_pread_seconds",
                ["stall_profile", "driver_pread"],
            ),
            (
                "monarch_read_stall_copy_wait_seconds",
                ["stall_profile", "copy_wait"],
            ),
            (
                "monarch_read_degraded_fallback_seconds",
                ["stall_profile", "degraded_fallback"],
            ),
        ] {
            let h = match path {
                [key, ""] => &doc[key],
                [section, key] => &doc[section][key],
            };
            histogram(family, None, h);
        }
        for g in doc["gauges"].as_array().unwrap() {
            let labels: Vec<String> = g["labels"]
                .as_array()
                .unwrap()
                .iter()
                .map(|kv| {
                    format!(
                        "{}=\"{}\"",
                        kv[0].as_str().unwrap(),
                        esc(kv[1].as_str().unwrap())
                    )
                })
                .collect();
            let name = g["name"].as_str().unwrap();
            let key = if labels.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{}}}", labels.join(","))
            };
            want.insert(key, n(&g["value"]));
        }
        want
    }

    /// The exposition's samples, keyed by `name{labels}`; a sample that
    /// appears twice fails.
    fn samples(text: &str) -> BTreeMap<String, f64> {
        let mut got = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (key, value) = line.rsplit_once(' ').expect("a sample has a value");
            let value: f64 = value.parse().expect("the value parses");
            assert!(
                got.insert(key.to_string(), value).is_none(),
                "`{key}` twice"
            );
        }
        got
    }

    #[test]
    fn every_sample_is_the_value_at_its_path_in_the_document() {
        for observe in [true, false] {
            let snap = frozen(observe);
            let doc = serde_json::to_value(&snap).unwrap();
            let want = samples_by_path(&doc);
            let got = samples(&snap.exposition());
            for (key, value) in &got {
                assert_eq!(want.get(key), Some(value), "`{key}` (observe {observe})");
            }
            assert_eq!(got.len(), want.len(), "observe {observe}");
            // The values are distinct (`+Inf` and `_count` repeat `count`),
            // so a sample read off the wrong path cannot pass by chance.
            let mut values: Vec<u64> = want
                .iter()
                .filter(|(key, _)| !key.contains("_count") && !key.contains("+Inf"))
                .map(|(_, v)| v.to_bits())
                .collect();
            let all = values.len();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), all - usize::from(!observe), "distinct values");
        }
        // Without the observe section the profiler's two families read 0.
        let got = samples(&frozen(false).exposition());
        assert_eq!(got["monarch_profile_files_tracked"], 0.0);
        assert_eq!(got["monarch_profile_untracked_reads_total"], 0.0);
    }
}
