//! `src30_campaigns`: open-loop fault campaigns on the paper's 30-switch
//! SRC fabric under the tuned preset, each run through
//! `autonet_check::run_scenario` with every oracle, over a timing
//! wrapper around `PacketSubstrate`.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use autonet_check::{
    run_scenario, FaultOp, NodeSnapshot, OracleConfig, PacketSubstrate, PortObservation, Substrate,
};
use autonet_core::ProbeRecord;
use autonet_net::{NetParams, NetStats, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{HostId, NetView, Topology};
use autonet_trace::{InterruptionConfig, InterruptionReport, SpanTree, Timeline, TraceRecord};

use crate::alloc;
use crate::report::{Budget, RunResult};
use crate::routes::{replay_routes, RouteReplay};
use crate::schedule::{campaign, check_campaign, src30_spec, CAMPAIGN_FAULTS};
use crate::spans::Spans;
use crate::stats::median;

/// A transparent `Substrate` wrapper: every call is forwarded unchanged
/// and timed as a span; the drained spine is kept for the benchmark's
/// own reconstruction, and the first and last quiescence are stamped.
pub struct Timed<'a> {
    pub inner: PacketSubstrate,
    spans: &'a RefCell<Spans>,
    /// Every record drained, in order.
    pub records: Vec<TraceRecord>,
    /// Host time of the first fault applied.
    pub first_fault: Option<Instant>,
    /// Host time and counters at the first quiescence (end of bring-up).
    pub first_quiescent: Cell<Option<(Instant, NetStats)>>,
    /// Host time of the latest quiescence (the final settle, at the end).
    pub last_quiescent: Cell<Option<Instant>>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: PacketSubstrate, spans: &'a RefCell<Spans>) -> Self {
        Timed {
            inner,
            spans,
            records: Vec::new(),
            first_fault: None,
            first_quiescent: Cell::new(None),
            last_quiescent: Cell::new(None),
        }
    }

    fn timed<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.spans.borrow_mut().begin(layer, name);
        let out = f();
        self.spans.borrow_mut().end(s);
        out
    }
}

impl Substrate for Timed<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn run_for(&mut self, span: SimDuration) {
        let s = self.spans.borrow_mut().begin("sim", "run_for");
        self.inner.run_for(span);
        self.spans.borrow_mut().end(s);
    }

    fn apply(&mut self, op: &FaultOp, topo: &Topology) {
        self.first_fault.get_or_insert_with(Instant::now);
        let s = self.spans.borrow_mut().begin("net", "apply");
        self.inner.apply(op, topo);
        self.spans.borrow_mut().end(s);
    }

    fn drain_control(&mut self) -> Vec<TraceRecord> {
        let s = self.spans.borrow_mut().begin("net", "drain");
        let records = self.inner.drain_control();
        self.spans.borrow_mut().end(s);
        let s = self.spans.borrow_mut().begin("bench", "keep_spine");
        self.records.extend_from_slice(&records);
        self.spans.borrow_mut().end(s);
        records
    }

    fn snapshots(&self, topo: &Topology) -> Vec<NodeSnapshot> {
        self.timed("net", "observe", || self.inner.snapshots(topo))
    }

    fn observe_ports(&self, topo: &Topology) -> Vec<PortObservation> {
        self.timed("net", "observe", || self.inner.observe_ports(topo))
    }

    fn quiescent(&self, view: &NetView<'_>) -> bool {
        let q = self.timed("net", "quiescent", || self.inner.quiescent(view));
        if q {
            let now = Instant::now();
            if self.first_quiescent.get().is_none() {
                self.first_quiescent
                    .set(Some((now, self.inner.network().stats())));
            }
            self.last_quiescent.set(Some(now));
        }
        q
    }

    fn final_audit(&self) -> Result<(), String> {
        self.timed("net", "audit", || self.inner.final_audit())
    }

    fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        let s = self.spans.borrow_mut().begin("net", "start_probes");
        self.inner.start_probes(pairs, interval);
        self.spans.borrow_mut().end(s);
    }

    fn probe_records(&self) -> Vec<ProbeRecord> {
        self.timed("net", "probe_ledger", || self.inner.probe_records())
    }

    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        self.timed("net", "probe_ledger", || self.inner.probe_pairs())
    }
}

/// Probe accounting summed over campaigns.
#[derive(Default)]
struct Probes {
    sent: u64,
    delivered: u64,
    lost: u64,
}

/// Runs the campaign stream (program tracing on: the oracles read the
/// spine). `prefix` campaigns feed the simulated metrics, so they do not
/// depend on host speed.
pub fn run(seed: u64, budget: Budget, traced: bool, prefix: usize) -> RunResult {
    let mut r = RunResult::new(traced);
    let spans = RefCell::new(Spans::new(traced));
    let params = NetParams {
        tracing: true,
        ..NetParams::tuned()
    };
    let cfg = OracleConfig::from_params(&params.autopilot);
    let spec = src30_spec();
    let gen_topo = spec.build();

    let (mut gen_ms, mut build_ms) = (Vec::new(), Vec::new());
    let (mut events_prefix, mut events_total, mut ingested) = (0u64, 0u64, 0u64);
    let (mut epochs, mut control, mut control_sent, mut drops) = (0u64, 0u64, 0u64, 0u64);
    let (mut timeline_ms, mut interruption_ms, mut spantree_ms) = (0.0, 0.0, 0.0);
    let mut rc_total = autonet_core::RouteCacheStats::default();
    let mut routes = RouteReplay::default();
    let mut probes = Probes::default();
    let loop_start = Instant::now();

    while budget.more(r.ops, prefix, loop_start) {
        let index = r.ops as u64;
        let in_prefix = r.ops < prefix;
        let scenario = campaign(&spec, &gen_topo, seed, index);
        if let Err(e) = check_campaign(&gen_topo, &scenario) {
            r.fail(format!("campaign {index} schedule: {e}"));
        }
        spans.borrow_mut().set_op(index + 1);
        let op = spans.borrow_mut().begin("bench", "campaign");

        alloc::reset_peak();
        let t0 = Instant::now();
        let s = spans.borrow_mut().begin("topo", "generate");
        let topo = scenario.topo.build();
        spans.borrow_mut().end(s);
        let t1 = Instant::now();
        let s = spans.borrow_mut().begin("net", "build");
        let sub = PacketSubstrate::new(Network::new(topo.clone(), params, scenario.seed));
        spans.borrow_mut().end(s);
        let t2 = Instant::now();
        r.setup_s.push((t2 - t0).as_secs_f64());
        gen_ms.push((t1 - t0).as_secs_f64() * 1e3);
        build_ms.push((t2 - t1).as_secs_f64() * 1e3);

        let mut timed = Timed::new(sub, &spans);
        let s = spans.borrow_mut().begin("check", "run_scenario");
        let out = run_scenario(&scenario, &mut timed, &topo, &cfg);
        spans.borrow_mut().end(s);
        let done = Instant::now();
        spans.borrow_mut().end(op);
        r.campaign_wall_ms.push((done - t2).as_secs_f64() * 1e3);
        r.wall_s += (done - t0).as_secs_f64();
        r.sim_s += out.end.as_secs_f64();
        r.attempted += 1;
        r.ops += 1;
        r.heap_mb.push(alloc::peak_mb());

        let net = timed.inner.network();
        // The oracles and the final audit (`check_against_reference`:
        // every open switch's table against a from-scratch one) decide.
        if let Some(v) = &out.violation {
            r.fail(format!("campaign {index}: {v:?}"));
        }
        let Some((bring_wall, at_origin)) = timed.first_quiescent.get() else {
            continue;
        };
        r.bringup_wall_s.push((bring_wall - t2).as_secs_f64());
        if let (Some(first), Some(last)) = (timed.first_fault, timed.last_quiescent.get()) {
            r.reconfig_wall_ms
                .push(last.saturating_duration_since(first).as_secs_f64() * 1e3);
        }

        // The benchmark's own reconstruction of the drained spine.
        let t = Instant::now();
        let s = spans.borrow_mut().begin("trace", "timeline");
        let timeline = Timeline::build(&timed.records);
        spans.borrow_mut().end(s);
        timeline_ms += t.elapsed().as_secs_f64() * 1e3;
        let fault_epochs: Vec<_> = timeline
            .epochs
            .iter()
            .filter(|e| e.closed.is_some_and(|c| c >= out.origin))
            .collect();
        let end = net.stats();
        epochs += fault_epochs.len() as u64;
        control += end.control_sent - at_origin.control_sent;
        control_sent += end.control_sent;
        drops += end.cpu_queue_drops;
        ingested += timed.records.len() as u64;
        events_total += net.events_processed();
        let rc = net.route_cache_stats().unwrap_or_default();
        rc_total.builds += rc.builds;
        rc_total.served_memo += rc.served_memo;
        rc_total.delta_reused += rc.delta_reused;
        rc_total.synthesized += rc.synthesized;
        rc_total.unroutable += rc.unroutable;
        rc_total.build_wall_ns += rc.build_wall_ns;
        rc_total.serve_wall_ns += rc.serve_wall_ns;
        rc_total.delta_wall_ns += rc.delta_wall_ns;
        let ledger = net.probe_records();
        probes.sent += ledger.len() as u64;
        if let Some(report) = &out.interruption {
            for p in &report.pairs {
                probes.delivered += p.delivered;
                probes.lost += p.dropped + p.dead_letters;
            }
        }

        if in_prefix {
            let stamp = at_origin.last_state_change;
            r.bringup_sim_ms.push(stamp.as_millis_f64());
            r.fingerprint.extend([
                stamp.as_nanos(),
                out.origin.as_nanos(),
                out.end.as_nanos(),
                net.events_processed(),
                u64::from(out.violation.is_some()),
            ]);
            events_prefix += net.events_processed();
            for e in &fault_epochs {
                if let (Some(c), Some(o)) = (e.closed, e.opened) {
                    r.reconfig_sim_ms
                        .push(o.saturating_since(c).as_millis_f64());
                    r.fingerprint.push(o.saturating_since(c).as_nanos());
                }
            }
            // A pair touching a host that lost power is dark because of
            // the fault itself, as the blackout oracle also rules.
            let powered_off: Vec<usize> = scenario
                .events
                .iter()
                .filter_map(|e| match e.op {
                    FaultOp::HostPowerOff(h) => Some(h),
                    _ => None,
                })
                .collect();
            let pairs = out.interruption.iter().flat_map(|rep| &rep.pairs);
            for p in
                pairs.filter(|p| !powered_off.contains(&p.src) && !powered_off.contains(&p.dst))
            {
                for w in &p.windows {
                    r.blackout_sim_ms.push(w.duration().as_millis_f64());
                    r.fingerprint.push(w.duration().as_nanos());
                }
            }
        }

        if traced {
            // Replays of the trace layer and the route layer over this
            // campaign's drained spine and final agreed topology.
            let t = Instant::now();
            let s = spans.borrow_mut().begin("trace", "interruption");
            let report = InterruptionReport::build(
                &net.probe_pairs(),
                ledger,
                &timeline,
                out.end,
                InterruptionConfig {
                    interval: cfg.probe_interval,
                    min_run: 2,
                },
            );
            spans.borrow_mut().end(s);
            interruption_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let s = spans.borrow_mut().begin("trace", "span_tree");
            let tree = SpanTree::build(&timeline, Some(&report));
            spans.borrow_mut().end(s);
            spantree_ms += t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(tree);
            let fleet: Vec<_> = topo
                .switch_ids()
                .filter(|&s| net.switch_is_up(s))
                .map(|s| net.autopilot(s))
                .collect();
            routes.add(&replay_routes(&fleet, &mut spans.borrow_mut()));
        }
    }

    let spans = spans.into_inner();
    let faults = (r.ops * CAMPAIGN_FAULTS).max(1) as f64;
    r.set_layer("topo.gen_ms", median(&gen_ms).unwrap_or(0.0));
    r.set_layer("net.build_ms", median(&build_ms).unwrap_or(0.0));
    r.set_layer("sim.events", events_prefix as f64);
    r.sim_layer(&spans, events_total, &rc_total);
    for (metric, call) in [
        ("net.quiescent_ms", "quiescent"),
        ("net.observe_ms", "observe"),
        ("net.drain_ms", "drain"),
        ("net.audit_ms", "audit"),
    ] {
        r.set_layer(metric, spans.total_ms("net", call));
    }
    r.set_layer(
        "check.engine_self_ms",
        spans.self_ms("check", "run_scenario"),
    );
    r.set_layer("check.records_ingested", ingested as f64);
    r.route_cache_layer(&rc_total);
    r.set_layer("core.autopilot.epochs_per_fault", epochs as f64 / faults);
    r.set_layer("core.autopilot.control_per_fault", control as f64 / faults);
    r.set_layer(
        "net.cpu_drop_ratio",
        drops as f64 / control_sent.max(1) as f64,
    );
    r.set_layer("host.probes_sent", probes.sent as f64);
    r.set_layer(
        "host.probe_delivery_ratio",
        probes.delivered as f64 / (probes.delivered + probes.lost).max(1) as f64,
    );
    r.set_layer("trace.records", ingested as f64);
    r.set_layer("trace.timeline_ms", timeline_ms);
    r.set_layer("trace.interruption_ms", interruption_ms);
    r.set_layer("trace.spans_ms", spantree_ms);
    r.routes = routes;
    r.spans = spans;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_check::run_packet;

    /// The wrapper changes nothing the engine can see: a small src-30
    /// campaign ends identically through it and through `run_packet`.
    #[test]
    fn timing_wrapper_is_transparent() {
        let spec = src30_spec();
        let topo = spec.build();
        let mut scenario = campaign(&spec, &topo, 11, 0);
        scenario.events.truncate(3);
        let params = NetParams::tuned();
        let cfg = OracleConfig::from_params(&params.autopilot);
        let direct = run_packet(&scenario, &params, &cfg);

        for traced in [false, true] {
            let spans = RefCell::new(Spans::new(traced));
            let sub = PacketSubstrate::new(Network::new(topo.clone(), params, scenario.seed));
            let mut timed = Timed::new(sub, &spans);
            let wrapped = run_scenario(&scenario, &mut timed, &topo, &cfg);
            assert_eq!(wrapped.end, direct.end);
            assert_eq!(wrapped.origin, direct.origin);
            assert_eq!(wrapped.violation, direct.violation);
            assert_eq!(wrapped.damage, direct.damage);
            assert!(wrapped.passed(), "{:?}", wrapped.violation);
            assert!(timed.first_quiescent.get().is_some());
            assert!(!timed.records.is_empty());
            assert_eq!(spans.borrow().spans().is_empty(), !traced);
        }
    }
}
