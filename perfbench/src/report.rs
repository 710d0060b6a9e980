//! Run results, metric assembly and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use autonet_core::RouteCacheStats;
use autonet_sim::ShardTelemetry;

use crate::fabric::Fabric;
use crate::routes::RouteReplay;
use crate::spans::Spans;
use crate::stats::{median, Summary};

/// The end-to-end metrics, in report order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("wall_per_sim_s", "s/s"),
    ("bringup_sim_ms", "ms"),
    ("reconfig_sim_ms.p50", "ms"),
    ("reconfig_sim_ms.p90", "ms"),
    ("bringup_wall_s", "s"),
    ("reconfig_wall_ms.p50", "ms"),
    ("reconfig_wall_ms.p90", "ms"),
    ("campaign_wall_ms.p50", "ms"),
    ("campaign_wall_ms.p90", "ms"),
    ("blackout_sim_ms.p50", "ms"),
    ("blackout_sim_ms.p90", "ms"),
];

/// The per-layer metrics, in report order, with their units. A count a
/// workload cannot have (probes on the host-less fat tree) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_ratio", "ratio"),
    ("process.peak_rss_mb", "MB"),
    ("topo.gen_ms", "ms"),
    ("net.build_ms", "ms"),
    ("sim.events", "count"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.self_ms", "ms"),
    ("sim.shard.wall_ratio", "ratio"),
    ("sim.shard.build_ms", "ms"),
    ("sim.shard.work_ms", "ms"),
    ("sim.shard.barrier_wait_ms", "ms"),
    ("sim.shard.barrier_wait_frac", "ratio"),
    ("sim.shard.busy_window_ratio", "ratio"),
    ("sim.shard.mailbox_msgs", "count"),
    ("sim.shard.load_imbalance", "ratio"),
    ("net.poll_ms", "ms"),
    ("net.poll_calls", "count"),
    ("net.quiescent_ms", "ms"),
    ("net.observe_ms", "ms"),
    ("net.drain_ms", "ms"),
    ("net.audit_ms", "ms"),
    ("check.engine_self_ms", "ms"),
    ("check.records_ingested", "count"),
    ("core.route_cache.builds", "count"),
    ("core.route_cache.synthesized", "count"),
    ("core.route_cache.served_memo", "count"),
    ("core.route_cache.delta_reused", "count"),
    ("core.route_cache.reuse_ratio", "ratio"),
    ("core.route_cache.builds_per_serve", "ratio"),
    ("core.route_cache.build_ms", "ms"),
    ("core.route_cache.serve_ms", "ms"),
    ("core.route_cache.delta_ms", "ms"),
    ("core.route_cache.delta_us_per_reuse", "us"),
    ("core.routes.scratch_us_per_switch", "us"),
    ("core.route_cache.cold_ms", "ms"),
    ("core.route_cache.warm_us_per_switch", "us"),
    ("core.autopilot.epochs_per_fault", "count"),
    ("core.autopilot.control_per_fault", "count"),
    ("net.cpu_drop_ratio", "ratio"),
    ("host.probes_sent", "count"),
    ("host.probe_delivery_ratio", "ratio"),
    ("trace.records", "count"),
    ("trace.timeline_ms", "ms"),
    ("trace.interruption_ms", "ms"),
    ("trace.spans_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until `seconds` of host time have passed and at least the
    /// simulated-metric prefix is done.
    Time { seconds: f64 },
    /// Exactly this many operations (the traced pass replays the
    /// untraced pass's count).
    Ops(usize),
}

impl Budget {
    /// Whether another operation should start.
    pub fn more(&self, done: usize, prefix: usize, start: Instant) -> bool {
        match *self {
            Budget::Time { seconds } => done < prefix || start.elapsed().as_secs_f64() < seconds,
            Budget::Ops(n) => done < n,
        }
    }
}

/// Everything one pass over a workload measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completed operations: churn cycles or campaigns.
    pub ops: usize,
    pub setup_s: Vec<f64>,
    pub bringup_wall_s: Vec<f64>,
    pub bringup_sim_ms: Vec<f64>,
    pub reconfig_sim_ms: Vec<f64>,
    pub reconfig_wall_ms: Vec<f64>,
    pub campaign_wall_ms: Vec<f64>,
    pub blackout_sim_ms: Vec<f64>,
    /// Host and simulated seconds the measured operations took.
    pub wall_s: f64,
    pub sim_s: f64,
    /// Every simulated output of the prefix, for the determinism gate.
    pub fingerprint: Vec<u64>,
    /// Peak live heap of each episode (bring-up or campaign), MB.
    pub heap_mb: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub routes: RouteReplay,
    pub spans: Spans,
}

impl RunResult {
    pub fn new(traced: bool) -> Self {
        RunResult {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            ops: 0,
            setup_s: Vec::new(),
            bringup_wall_s: Vec::new(),
            bringup_sim_ms: Vec::new(),
            reconfig_sim_ms: Vec::new(),
            reconfig_wall_ms: Vec::new(),
            campaign_wall_ms: Vec::new(),
            blackout_sim_ms: Vec::new(),
            wall_s: 0.0,
            sim_s: 0.0,
            fingerprint: Vec::new(),
            heap_mb: Vec::new(),
            layers: BTreeMap::new(),
            routes: RouteReplay::default(),
            spans: Spans::new(traced),
        }
    }

    /// Counts a failed operation or gate.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Kernel time from the `sim.run_for` spans, net of the route-cache
    /// wall the program accounts inside them.
    pub fn sim_layer(&mut self, spans: &Spans, events: u64, rc: &RouteCacheStats) {
        let run_ms = spans.total_ms("sim", "run_for");
        let cache_ms = (rc.build_wall_ns + rc.serve_wall_ns + rc.delta_wall_ns) as f64 / 1e6;
        self.set_layer("sim.run_ms", run_ms);
        self.set_layer("sim.ns_per_event", run_ms * 1e6 / events.max(1) as f64);
        self.set_layer("sim.self_ms", run_ms - cache_ms);
    }

    /// Per-shard kernel totals (never quantiles over them), plus the two
    /// ratios the executor reports itself; nothing without telemetry.
    pub fn shard_layer<F: Fabric>(&mut self, net: &F) {
        let (Some(tel), Some(frac), Some(imbalance)) = (
            net.shard_telemetry(),
            net.barrier_wait_fraction(),
            net.load_imbalance(),
        ) else {
            return;
        };
        let sum = |f: fn(&ShardTelemetry) -> u64| tel.iter().map(f).sum::<u64>();
        self.set_layer("sim.shard.work_ms", sum(|t| t.work_ns) as f64 / 1e6);
        self.set_layer(
            "sim.shard.barrier_wait_ms",
            sum(|t| t.barrier_wait_ns) as f64 / 1e6,
        );
        self.set_layer("sim.shard.barrier_wait_frac", frac);
        self.set_layer(
            "sim.shard.busy_window_ratio",
            sum(|t| t.busy_windows) as f64 / sum(|t| t.windows).max(1) as f64,
        );
        self.set_layer("sim.shard.mailbox_msgs", sum(|t| t.mailbox_out) as f64);
        self.set_layer("sim.shard.load_imbalance", imbalance);
    }

    pub fn route_cache_layer(&mut self, rc: &RouteCacheStats) {
        let serves = rc.served_memo + rc.delta_reused + rc.synthesized + rc.unroutable;
        self.set_layer("core.route_cache.builds", rc.builds as f64);
        self.set_layer("core.route_cache.synthesized", rc.synthesized as f64);
        self.set_layer("core.route_cache.served_memo", rc.served_memo as f64);
        self.set_layer("core.route_cache.delta_reused", rc.delta_reused as f64);
        self.set_layer(
            "core.route_cache.reuse_ratio",
            (rc.served_memo + rc.delta_reused) as f64 / serves.max(1) as f64,
        );
        self.set_layer(
            "core.route_cache.builds_per_serve",
            rc.builds as f64 / serves.max(1) as f64,
        );
        self.set_layer("core.route_cache.build_ms", rc.build_wall_ns as f64 / 1e6);
        self.set_layer("core.route_cache.serve_ms", rc.serve_wall_ns as f64 / 1e6);
        self.set_layer("core.route_cache.delta_ms", rc.delta_wall_ns as f64 / 1e6);
        self.set_layer(
            "core.route_cache.delta_us_per_reuse",
            rc.delta_wall_ns as f64 / 1e3 / rc.delta_reused.max(1) as f64,
        );
    }

    /// Folds the route replay into the per-layer metrics; a cached table
    /// that differs from the scratch one is a failed gate.
    pub fn finish_routes(&mut self) {
        let rr = self.routes;
        if rr.mismatches > 0 {
            self.fail(format!(
                "route replay: {} cached tables differ from scratch",
                rr.mismatches
            ));
        }
        let per_switch = |ns: u64| ns as f64 / 1e3 / rr.switches.max(1) as f64;
        self.set_layer(
            "core.routes.scratch_us_per_switch",
            per_switch(rr.scratch_ns),
        );
        self.set_layer(
            "core.route_cache.cold_ms",
            rr.cold_ns as f64 / 1e6 / rr.replays.max(1) as f64,
        );
        self.set_layer(
            "core.route_cache.warm_us_per_switch",
            per_switch(rr.warm_ns),
        );
    }

    /// The end-to-end metric values of this (untraced) pass, in
    /// [`END_TO_END`] order; a metric without samples reads 0 and is
    /// reported as missing (`false`).
    pub fn end_to_end(&self) -> (Vec<(&'static str, f64)>, bool) {
        let rs = Summary::of(&self.reconfig_sim_ms);
        let rw = Summary::of(&self.reconfig_wall_ms);
        let cw = Summary::of(&self.campaign_wall_ms);
        let bo = Summary::of(&self.blackout_sim_ms);
        let values = [
            ("setup_s", median(&self.setup_s)),
            ("peak_heap_mb", median(&self.heap_mb)),
            (
                "wall_per_sim_s",
                (self.sim_s > 0.0).then(|| self.wall_s / self.sim_s),
            ),
            ("bringup_sim_ms", median(&self.bringup_sim_ms)),
            ("reconfig_sim_ms.p50", rs.map(|s| s.p50)),
            ("reconfig_sim_ms.p90", rs.map(|s| s.p90)),
            ("bringup_wall_s", median(&self.bringup_wall_s)),
            ("reconfig_wall_ms.p50", rw.map(|s| s.p50)),
            ("reconfig_wall_ms.p90", rw.map(|s| s.p90)),
            ("campaign_wall_ms.p50", cw.map(|s| s.p50)),
            ("campaign_wall_ms.p90", cw.map(|s| s.p90)),
            ("blackout_sim_ms.p50", bo.map(|s| s.p50)),
            ("blackout_sim_ms.p90", bo.map(|s| s.p90)),
        ];
        let complete = values.iter().all(|(_, v)| v.is_some());
        let out = values.iter().map(|&(n, v)| (n, v.unwrap_or(0.0))).collect();
        (out, complete)
    }
}

/// The unit of a listed metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite JSON number with all its digits.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let unit = unit_of(n.rsplit('/').next().unwrap_or(n));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_line(true, 3, 0, &[("setup_s".to_string(), 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }

    #[test]
    fn end_to_end_values_follow_the_listed_order() {
        let (values, complete) = RunResult::new(false).end_to_end();
        assert!(!complete, "an empty pass has no samples");
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return; // Outside a full checkout.
        };
        let listed = spec.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
