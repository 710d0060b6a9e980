//! `fat_tree_churn`: closed-loop trunk churn on the 256-switch fat tree
//! under the scale preset (and, in traced runs, a short replay of its
//! start on both executors).
//!
//! Cold bring-up, then cycles of: cut a seeded random trunk, run until
//! quiescent, heal it, run until quiescent. Further cold bring-ups of
//! fabrics seeded apart run between cycles. The benchmark polls
//! `control_plane_consistent()` itself, with the loop of
//! `run_until_stable_every`, so the quadratic consistency poll is timed
//! as its own layer.

use std::time::Instant;

use autonet_check::TopoSpec;
use autonet_net::{NetEventKind, NetParams};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::SwitchId;

use crate::alloc;
use crate::fabric::{audit_fabric, Fabric};
use crate::report::{Budget, RunResult};
use crate::routes::replay_routes;
use crate::schedule::{check_churn, episode_seed, fat_tree_spec, Churn, ChurnOp};
use crate::spans::Spans;
use crate::stats::median;

/// Poll step during bring-up and during churn (the E22 grains).
const BRINGUP_STEP: SimDuration = SimDuration::from_millis(100);
const CHURN_STEP: SimDuration = SimDuration::from_millis(50);
/// Liveness deadlines: bring-up from t = 0, each fault from its instant.
const BRINGUP_DEADLINE: SimTime = SimTime::from_secs(300);
const FAULT_DEADLINE: SimDuration = SimDuration::from_secs(60);
/// Cold bring-ups per run, each of a fabric seeded apart; the bring-up
/// metrics are medians over them.
pub const BRINGUPS: usize = 10;

/// How much of the churn workload one pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Timed set-ups; `setup_s` is their median.
    pub setup_reps: usize,
    /// Cold bring-ups: first the fabric that goes on to churn, then one
    /// more before every `prefix_cycles / bringups` cycles, so that the
    /// bring-up samples spread over the run as the churn samples do.
    pub bringups: usize,
    /// Cycles the simulated metrics cover, so they do not depend on
    /// host speed.
    pub prefix_cycles: usize,
}

/// Runs the closed poll loop until the control plane is consistent or
/// `deadline` passes.
fn settle<F: Fabric>(
    net: &mut F,
    spans: &mut Spans,
    polls: &mut u64,
    step: SimDuration,
    deadline: SimTime,
) -> bool {
    while net.now() < deadline {
        let s = spans.begin("sim", "run_for");
        net.run_for(step);
        spans.end(s);
        let s = spans.begin("net", "poll");
        let ok = net.consistent();
        spans.end(s);
        *polls += 1;
        if ok {
            return true;
        }
    }
    false
}

/// Cold bring-up of a fresh fabric seeded for `episode`, recorded as a
/// bring-up sample; `None` (and a failure) if it misses its deadline.
fn bring_up<F: Fabric>(
    spec: &TopoSpec,
    params: NetParams,
    seed: u64,
    episode: usize,
    r: &mut RunResult,
    spans: &mut Spans,
    polls: &mut u64,
) -> Option<F> {
    let mut net = F::build(spec.build(), params, episode_seed(seed, episode as u64));
    spans.set_op(episode as u64);
    let op = spans.begin("bench", "bringup");
    let t = Instant::now();
    let ok = settle(&mut net, spans, polls, BRINGUP_STEP, BRINGUP_DEADLINE);
    let wall = t.elapsed().as_secs_f64();
    spans.end(op);
    r.wall_s += wall;
    r.sim_s += net.now().as_secs_f64();
    r.attempted += 1;
    if !ok {
        r.fail(format!(
            "bring-up {episode} missed its {BRINGUP_DEADLINE} deadline"
        ));
        return None;
    }
    r.bringup_wall_s.push(wall);
    let at = net.stats().last_state_change;
    r.bringup_sim_ms.push(at.as_millis_f64());
    r.fingerprint.push(at.as_nanos());
    Some(net)
}

/// One fault: when it was scheduled, when the poll saw quiescence, and
/// the host time in between.
struct Fault {
    at: SimTime,
    settled: SimTime,
    wall_ms: f64,
}

/// Runs the churn workload on executor `F`. `program_tracing` turns on
/// `NetParams::tracing` (the sharded replay reads shard telemetry
/// through it, which changes no behaviour).
pub fn run<F: Fabric>(
    seed: u64,
    budget: Budget,
    traced: bool,
    program_tracing: bool,
    plan: Plan,
) -> RunResult {
    let prefix_cycles = plan.prefix_cycles;
    assert!((1..=prefix_cycles.max(1)).contains(&plan.bringups));
    let mut r = RunResult::new(traced);
    let mut spans = Spans::new(traced);
    let params = NetParams {
        tracing: program_tracing,
        ..NetParams::scale()
    };
    let spec = fat_tree_spec();

    let run_start = Instant::now();
    let (mut gen_ms, mut build_ms) = (Vec::new(), Vec::new());
    for _ in 0..plan.setup_reps {
        let t0 = Instant::now();
        let s = spans.begin("topo", "generate");
        let topo = spec.build();
        spans.end(s);
        let t1 = Instant::now();
        let s = spans.begin("net", "build");
        let net = F::build(topo, params, seed);
        spans.end(s);
        let t2 = Instant::now();
        drop(net);
        r.setup_s.push((t2 - t0).as_secs_f64());
        gen_ms.push((t1 - t0).as_secs_f64() * 1e3);
        build_ms.push((t2 - t1).as_secs_f64() * 1e3);
    }

    let mut polls = 0u64;
    let Some(mut net) = bring_up::<F>(&spec, params, seed, 0, &mut r, &mut spans, &mut polls)
    else {
        return r;
    };
    let mut churn = Churn::new(net.topology(), seed);
    let after_bringup = (net.stats(), net.autopilot(SwitchId(0)).epoch().0, net.now());

    let mut faults: Vec<Fault> = Vec::new();
    let mut ops = Vec::new();
    let mut events_at_prefix = None;
    let mut heap_mb: f64 = 0.0;
    let mut next_bringup = 1;
    'cycles: while budget.more(r.ops, prefix_cycles, run_start) {
        if next_bringup < plan.bringups && r.ops == next_bringup * prefix_cycles / plan.bringups {
            // Only the bring-up is measured; the fabric is dropped.
            drop(bring_up::<F>(
                &spec,
                params,
                seed,
                next_bringup,
                &mut r,
                &mut spans,
                &mut polls,
            ));
            next_bringup += 1;
        }
        // The heap metric covers the churn cycles: the fabric's standing
        // state plus what each reconfiguration allocates.
        alloc::reset_peak();
        let link = churn.next_link();
        let cycle_start = Instant::now();
        for cut in [true, false] {
            // Operation ids: bring-ups take 0..BRINGUPS, faults follow.
            spans.set_op((BRINGUPS + faults.len()) as u64);
            let op = spans.begin("bench", if cut { "cut" } else { "heal" });
            let t = Instant::now();
            let at = net.now();
            ops.push(if cut {
                ChurnOp::Cut(link)
            } else {
                ChurnOp::Heal(link)
            });
            let s = spans.begin("net", "schedule");
            if cut {
                net.schedule_link_down(at, link);
            } else {
                net.schedule_link_up(at, link);
            }
            spans.end(s);
            let ok = settle(
                &mut net,
                &mut spans,
                &mut polls,
                CHURN_STEP,
                at + FAULT_DEADLINE,
            );
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            spans.end(op);
            r.attempted += 1;
            if !ok {
                r.fail(format!("fault {} on {link:?} did not settle", faults.len()));
                break 'cycles;
            }
            faults.push(Fault {
                at,
                settled: net.now(),
                wall_ms,
            });
        }
        let cycle_s = cycle_start.elapsed().as_secs_f64();
        r.campaign_wall_ms.push(cycle_s * 1e3);
        r.wall_s += cycle_s;
        heap_mb = heap_mb.max(alloc::peak_mb());
        r.ops += 1;
        if r.ops == prefix_cycles {
            r.heap_mb.push(heap_mb);
            events_at_prefix = Some(net.events_processed());
        }
    }
    // The churn fabric's bring-up time was counted at its bring-up.
    r.sim_s += (net.now() - after_bringup.2).as_secs_f64();
    r.reconfig_wall_ms = faults.iter().map(|f| f.wall_ms).collect();

    if let Err(e) = check_churn(net.topology(), &ops) {
        r.fail(format!("churn schedule: {e}"));
    }
    let s = spans.begin("core", "table_audit");
    let audit = audit_fabric(&net);
    spans.end(s);
    if let Err(e) = audit {
        r.fail(format!("final table audit: {e}"));
    }

    // Simulated reconfiguration windows of the prefix, from the event
    // log: first switch closing to last switch reopening after each fault.
    let events = net.net_events();
    for (k, f) in faults.iter().take(2 * prefix_cycles).enumerate() {
        let window = events
            .iter()
            .filter(|e| e.time >= f.at && e.time <= f.settled);
        let mut first_close = None;
        let mut last_open = None;
        for e in window {
            match e.kind {
                NetEventKind::SwitchClosed(_) if first_close.is_none() => {
                    first_close = Some(e.time)
                }
                NetEventKind::SwitchOpened(..) => last_open = Some(e.time),
                _ => {}
            }
        }
        match (first_close, last_open) {
            (Some(c), Some(o)) if o >= c => {
                // Service is lost at a cut's instant, but a heal leaves
                // every path intact until the network closes.
                let lost = if k % 2 == 0 { f.at } else { c };
                r.reconfig_sim_ms
                    .push(o.saturating_since(c).as_millis_f64());
                r.blackout_sim_ms
                    .push(o.saturating_since(lost).as_millis_f64());
                r.fingerprint.extend([c.as_nanos(), o.as_nanos()]);
            }
            _ => r.fail(format!("fault {k} settled without a reconfiguration")),
        }
    }
    r.fingerprint.push(events_at_prefix.unwrap_or(0));

    let stats = net.stats();
    let n_faults = faults.len().max(1) as f64;
    let rc = net.route_cache_stats().unwrap_or_default();
    r.set_layer("topo.gen_ms", median(&gen_ms).unwrap_or(0.0));
    r.set_layer("net.build_ms", median(&build_ms).unwrap_or(0.0));
    r.set_layer("sim.events", events_at_prefix.unwrap_or(0) as f64);
    r.sim_layer(&spans, net.events_processed(), &rc);
    r.shard_layer(&net);
    r.set_layer("net.poll_ms", spans.total_ms("net", "poll"));
    r.set_layer("net.poll_calls", polls as f64);
    r.route_cache_layer(&rc);
    r.set_layer(
        "core.autopilot.epochs_per_fault",
        (net.autopilot(SwitchId(0)).epoch().0 - after_bringup.1) as f64 / n_faults,
    );
    r.set_layer(
        "core.autopilot.control_per_fault",
        (stats.control_sent - after_bringup.0.control_sent) as f64 / n_faults,
    );
    r.set_layer(
        "net.cpu_drop_ratio",
        stats.cpu_queue_drops as f64 / stats.control_sent.max(1) as f64,
    );
    if traced {
        let switches: Vec<_> = net
            .topology()
            .switch_ids()
            .map(|s| net.autopilot(s))
            .collect();
        r.routes = replay_routes(&switches, &mut spans);
    }
    r.spans = spans;
    r
}
