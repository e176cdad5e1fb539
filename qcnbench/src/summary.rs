//! The trace summariser: turns a traced run's span file into the
//! per-layer metrics. A metric of a layer the workload does not run reads
//! 0 (its predicted change is none).

use crate::stats;
use crate::trace::{self_times, Span, TraceFile};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.evaluations", "count"),
    ("core.memo_hits", "count"),
    ("core.stages_run", "count"),
    ("core.stage_reuse_ratio", "ratio"),
    ("core.early_exits", "count"),
    ("core.useful_probe_ratio", "ratio"),
    ("core.self_frac", "ratio"),
    ("core.run_s.TRN", "s"),
    ("core.run_s.RTN", "s"),
    ("core.run_s.SR", "s"),
    ("capsnet.L1_us", "us"),
    ("capsnet.L2_us", "us"),
    ("capsnet.L3_us", "us"),
    ("intinfer.L1_us", "us"),
    ("intinfer.L2_us", "us"),
    ("intinfer.L3_us", "us"),
    ("kernels.gmac_per_s", "GMAC/s"),
    ("tensor.dispatches_per_sample", "count"),
    ("serve.mean_batch", "count"),
    ("engine.fused_share", "ratio"),
    ("engine.batch_ms_p50", "ms"),
    ("engine.busy_frac", "ratio"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("wire.bytes_per_req", "B"),
    ("wire.hop_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.balance_max_share", "ratio"),
    ("router.retries", "count"),
    ("router.budget_denied", "count"),
    ("router.ejections", "count"),
    ("request.p50_ms", "ms"),
    ("request.p99_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Computes every [`PER_LAYER`] metric from a parsed trace.
pub fn summarise(file: &TraceFile) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let c = |name: &str| file.counts.get(name).copied().unwrap_or(0.0);
    let start = c("phase.start_ns") as u64;
    let spans: Vec<&Span> = file.spans.iter().filter(|s| s.start_ns >= start).collect();
    let named = |name: &'static str| spans.iter().copied().filter(move |s| s.name == name);
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();

    // qcapsnets: counts per library call, per-scheme run time, self time.
    let calls = c("core.library_calls");
    if calls > 0.0 {
        for k in [
            "core.evaluations",
            "core.memo_hits",
            "core.stages_run",
            "core.early_exits",
        ] {
            m.insert(k, c(k) / calls);
        }
        let (run, skipped) = (c("core.stages_run"), c("core.stages_skipped"));
        m.insert("core.stage_reuse_ratio", skipped / (run + skipped).max(1.0));
        m.insert(
            "core.useful_probe_ratio",
            1.0 - c("core.speculative_probes") / c("core.evaluations").max(1.0),
        );
        let owned: Vec<Span> = spans.iter().map(|s| (*s).clone()).collect();
        let selfs = self_times(&owned);
        let runs: Vec<&Span> = named("core.run").collect();
        let total: u64 = runs.iter().map(|s| s.dur_ns()).sum();
        let own: u64 = runs
            .iter()
            .map(|s| selfs.get(&s.id).copied().unwrap_or(s.dur_ns()))
            .sum();
        m.insert("core.self_frac", own as f64 / total.max(1) as f64);
        for (label, key) in [
            ("TRN", "core.run_s.TRN"),
            ("RTN", "core.run_s.RTN"),
            ("SR", "core.run_s.SR"),
        ] {
            let d: Vec<f64> = runs
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .collect();
            m.insert(key, stats::median(&d).unwrap_or(0.0));
        }
    }

    // The engines: samples through the engine wrapper (serving) or full
    // forward passes through the staged pipeline (search).
    let engine: Vec<&Span> = named("engine.infer_batch").collect();
    let stage = |label: &str| -> (u64, u64) {
        named("capsnet.stage")
            .filter(|s| s.label == label)
            .fold((0, 0), |(n, t), s| (n + s.size, t + s.dur_ns()))
    };
    let layers = [stage("L1"), stage("L2"), stage("L3")];
    let macs = [c("model.macs.L1"), c("model.macs.L2"), c("model.macs.L3")];
    for (i, key) in ["capsnet.L1_us", "capsnet.L2_us", "capsnet.L3_us"]
        .iter()
        .enumerate()
    {
        let (n, t) = layers[i];
        m.insert(
            key,
            if n == 0 {
                0.0
            } else {
                t as f64 / 1e3 / n as f64
            },
        );
    }
    let engine_samples: u64 = engine.iter().map(|s| s.size).sum();
    let engine_ns: u64 = engine.iter().map(|s| s.dur_ns()).sum();
    for (i, key) in ["intinfer.L1_us", "intinfer.L2_us", "intinfer.L3_us"]
        .iter()
        .enumerate()
    {
        let us = c(&format!("registry.stage_us.integer.L{}", i + 1));
        m.insert(
            key,
            if engine_samples == 0 {
                0.0
            } else {
                us / engine_samples as f64
            },
        );
    }
    let (samples, gmac) = if engine_samples > 0 {
        let per_sample: f64 = macs.iter().sum();
        (
            engine_samples as f64,
            engine_samples as f64 * per_sample / engine_ns.max(1) as f64,
        )
    } else {
        let work: f64 = layers
            .iter()
            .zip(macs)
            .map(|(l, mac)| l.0 as f64 * mac)
            .sum();
        let busy: u64 = layers.iter().map(|l| l.1).sum();
        (layers[2].0 as f64, work / busy.max(1) as f64)
    };
    m.insert("kernels.gmac_per_s", gmac);
    m.insert(
        "tensor.dispatches_per_sample",
        c("registry.pool_dispatches") / samples.max(1.0),
    );

    // The serving layer.
    if !engine.is_empty() {
        let mut batch_ms: Vec<f64> = engine.iter().map(|s| ms(s.dur_ns())).collect();
        batch_ms.sort_by(f64::total_cmp);
        let batch_p50 = stats::supported(&batch_ms, 0.5)?;
        let server_p50 = c("serve.server_p50_ms");
        let wall = ms(c("phase.end_ns") as u64 - start) / 1e3;
        m.insert(
            "serve.mean_batch",
            c("serve.batched_samples") / c("serve.batches").max(1.0),
        );
        let fused: u64 = engine.iter().filter(|s| s.size > 1).map(|s| s.size).sum();
        m.insert("engine.fused_share", fused as f64 / engine_samples as f64);
        m.insert("engine.batch_ms_p50", batch_p50);
        m.insert(
            "engine.busy_frac",
            engine_ns as f64 / 1e9 / (c("serve.replicas") * wall),
        );
        m.insert("serve.server_p50_ms", server_p50);
        m.insert("serve.server_p99_ms", c("serve.server_p99_ms"));
        m.insert("serve.queue_wait_ms", server_p50 - batch_p50);
        m.insert("serve.max_queue_depth", c("serve.max_queue_depth"));
        m.insert("serve.rejected", c("serve.rejected"));

        // Client round trip: from starting to write a request to reading
        // its response, per trace id.
        let mut sends: BTreeMap<u64, u64> = BTreeMap::new();
        named("client.send").for_each(|s| {
            sends.insert(s.trace, s.start_ns);
        });
        let mut rtt: Vec<f64> = named("client.wait")
            .filter_map(|s| sends.get(&s.trace).map(|&b| ms(s.end_ns - b)))
            .collect();
        rtt.sort_by(f64::total_cmp);
        let routed = file.counts.contains_key("router.p50_ms");
        let first_tier_p50 = if routed {
            c("router.p50_ms")
        } else {
            server_p50
        };
        let bytes = if routed {
            c("router.bytes")
        } else {
            c("serve.bytes")
        };
        m.insert("wire.bytes_per_req", bytes / c("serve.requests").max(1.0));
        m.insert("wire.hop_ms", stats::supported(&rtt, 0.5)? - first_tier_p50);
        if routed {
            m.insert("router.hop_ms", c("router.p50_ms") - server_p50);
            for k in [
                "router.balance_max_share",
                "router.retries",
                "router.budget_denied",
                "router.ejections",
            ] {
                m.insert(k, c(k));
            }
        }
        let mut request: Vec<f64> = named("request").map(|s| ms(s.dur_ns())).collect();
        request.sort_by(f64::total_cmp);
        m.insert("request.p50_ms", stats::supported(&request, 0.5)?);
        m.insert("request.p99_ms", stats::supported(&request, 0.99)?);
        let mut lag: Vec<f64> = named("loadgen.lag").map(|s| ms(s.dur_ns())).collect();
        lag.sort_by(f64::total_cmp);
        m.insert("loadgen.lag_ms_p99", stats::supported(&lag, 0.99)?);
    }
    m.insert(
        "trace.overhead_pct",
        (c("headline.traced") / c("headline.untraced") - 1.0) * 100.0,
    );
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, label: &str, size: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: name.into(),
            label: label.into(),
            size,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn search_trace_yields_per_call_counts_and_stage_costs() {
        let mut f = TraceFile::default();
        for (k, v) in [
            ("core.library_calls", 2.0),
            ("core.evaluations", 20.0),
            ("core.stages_run", 30.0),
            ("core.stages_skipped", 10.0),
            ("core.speculative_probes", 5.0),
            ("model.macs.L1", 1000.0),
            ("model.macs.L2", 2000.0),
            ("model.macs.L3", 0.0),
            ("headline.untraced", 0.5),
            ("headline.traced", 0.55),
        ] {
            f.counts.insert(k.into(), v);
        }
        f.spans = vec![
            span(1, 0, "core.run", "RTN", 0, 0, 10_000),
            span(2, 1, "capsnet.stage", "L1", 4, 1_000, 3_000),
            span(3, 1, "capsnet.stage", "L2", 4, 3_000, 7_000),
            span(4, 1, "capsnet.stage", "L3", 4, 7_000, 8_000),
        ];
        let got: BTreeMap<_, _> = summarise(&f)
            .unwrap()
            .into_iter()
            .map(|(k, v, _)| (k, v))
            .collect();
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got["core.evaluations"], 10.0);
        assert_eq!(got["core.stage_reuse_ratio"], 0.25);
        assert_eq!(got["core.useful_probe_ratio"], 0.75);
        assert_eq!(got["core.self_frac"], 0.3);
        assert_eq!(got["core.run_s.RTN"], 1e-5);
        assert_eq!(got["core.run_s.SR"], 0.0);
        assert_eq!(got["capsnet.L2_us"], 1.0);
        // 4 samples × (1000 + 2000) MACs over 7 µs of stage time.
        assert!((got["kernels.gmac_per_s"] - 12_000.0 / 7_000.0).abs() < 1e-12);
        assert!((got["trace.overhead_pct"] - 10.0).abs() < 1e-9);
        assert_eq!(got["engine.busy_frac"], 0.0);
    }
}
