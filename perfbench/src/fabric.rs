//! The two executors behind one driving interface, and the table audit
//! that both must pass.

use autonet_core::{compute_forwarding_table, Autopilot, RouteCacheStats, RouteKind};
use autonet_net::{NetEvent, NetParams, NetStats, Network, PartitionedNetwork};
use autonet_sim::{ShardTelemetry, SimDuration, SimTime};
use autonet_topo::{LinkId, SwitchId, Topology};

/// What the churn workload needs from an executor: the public surface
/// `Network` and `PartitionedNetwork` share.
pub trait Fabric {
    fn build(topo: Topology, params: NetParams, seed: u64) -> Self;
    fn now(&self) -> SimTime;
    fn run_for(&mut self, span: SimDuration);
    fn consistent(&self) -> bool;
    fn schedule_link_down(&mut self, at: SimTime, l: LinkId);
    fn schedule_link_up(&mut self, at: SimTime, l: LinkId);
    fn events_processed(&self) -> u64;
    fn net_events(&self) -> Vec<NetEvent>;
    fn stats(&self) -> NetStats;
    fn route_cache_stats(&self) -> Option<RouteCacheStats>;
    fn topology(&self) -> &Topology;
    fn autopilot(&self, s: SwitchId) -> &Autopilot;
    fn table_digest(&self, s: SwitchId) -> u64;
    fn shard_telemetry(&self) -> Option<Vec<ShardTelemetry>>;
    fn barrier_wait_fraction(&self) -> Option<f64>;
    fn load_imbalance(&self) -> Option<f64>;
}

impl Fabric for Network {
    fn build(topo: Topology, params: NetParams, seed: u64) -> Self {
        Network::new(topo, params, seed)
    }
    fn now(&self) -> SimTime {
        Network::now(self)
    }
    fn run_for(&mut self, span: SimDuration) {
        Network::run_for(self, span);
    }
    fn consistent(&self) -> bool {
        self.control_plane_consistent()
    }
    fn schedule_link_down(&mut self, at: SimTime, l: LinkId) {
        Network::schedule_link_down(self, at, l);
    }
    fn schedule_link_up(&mut self, at: SimTime, l: LinkId) {
        Network::schedule_link_up(self, at, l);
    }
    fn events_processed(&self) -> u64 {
        Network::events_processed(self)
    }
    fn net_events(&self) -> Vec<NetEvent> {
        self.events().to_vec()
    }
    fn stats(&self) -> NetStats {
        Network::stats(self)
    }
    fn route_cache_stats(&self) -> Option<RouteCacheStats> {
        Network::route_cache_stats(self)
    }
    fn topology(&self) -> &Topology {
        Network::topology(self)
    }
    fn autopilot(&self, s: SwitchId) -> &Autopilot {
        Network::autopilot(self, s)
    }
    fn table_digest(&self, s: SwitchId) -> u64 {
        self.forwarding_table(s).canonical_digest()
    }
    fn shard_telemetry(&self) -> Option<Vec<ShardTelemetry>> {
        None
    }
    fn barrier_wait_fraction(&self) -> Option<f64> {
        None
    }
    fn load_imbalance(&self) -> Option<f64> {
        None
    }
}

/// Shards of the partitioned executor (at most 2 threads run: the
/// benchmark machine class has 2 cores).
pub const PARTITIONS: usize = 2;

impl Fabric for PartitionedNetwork {
    fn build(topo: Topology, params: NetParams, seed: u64) -> Self {
        PartitionedNetwork::new(topo, params, seed, PARTITIONS)
    }
    fn now(&self) -> SimTime {
        PartitionedNetwork::now(self)
    }
    fn run_for(&mut self, span: SimDuration) {
        PartitionedNetwork::run_for(self, span);
    }
    fn consistent(&self) -> bool {
        self.control_plane_consistent()
    }
    fn schedule_link_down(&mut self, at: SimTime, l: LinkId) {
        PartitionedNetwork::schedule_link_down(self, at, l);
    }
    fn schedule_link_up(&mut self, at: SimTime, l: LinkId) {
        PartitionedNetwork::schedule_link_up(self, at, l);
    }
    fn events_processed(&self) -> u64 {
        PartitionedNetwork::events_processed(self)
    }
    fn net_events(&self) -> Vec<NetEvent> {
        self.events()
    }
    fn stats(&self) -> NetStats {
        PartitionedNetwork::stats(self)
    }
    fn route_cache_stats(&self) -> Option<RouteCacheStats> {
        PartitionedNetwork::route_cache_stats(self)
    }
    fn topology(&self) -> &Topology {
        PartitionedNetwork::topology(self)
    }
    fn autopilot(&self, s: SwitchId) -> &Autopilot {
        PartitionedNetwork::autopilot(self, s)
    }
    fn table_digest(&self, s: SwitchId) -> u64 {
        self.forwarding_table(s).canonical_digest()
    }
    fn shard_telemetry(&self) -> Option<Vec<ShardTelemetry>> {
        PartitionedNetwork::shard_telemetry(self)
    }
    fn barrier_wait_fraction(&self) -> Option<f64> {
        PartitionedNetwork::barrier_wait_fraction(self)
    }
    fn load_imbalance(&self) -> Option<f64> {
        PartitionedNetwork::load_imbalance(self)
    }
}

/// The end-of-run table audit of a churn fabric (the churn workload
/// never takes a switch down): every switch is open, its installed table
/// equals a from-scratch `compute_forwarding_table` over its own agreed
/// topology (compared by `canonical_digest`), and all of them agree on
/// one topology `content_digest`.
pub fn audit_fabric<F: Fabric>(net: &F) -> Result<(), String> {
    let mut shared: Option<u64> = None;
    for s in net.topology().switch_ids() {
        let ap = net.autopilot(s);
        if !ap.is_open() {
            return Err(format!("switch {} is closed at quiescence", s.0));
        }
        let g = ap
            .global()
            .ok_or_else(|| format!("switch {} has no agreed topology", s.0))?;
        let digest = g.content_digest();
        if *shared.get_or_insert(digest) != digest {
            return Err(format!("switch {} disagrees on the topology digest", s.0));
        }
        let scratch = compute_forwarding_table(g, ap.uid(), &ap.host_ports(), RouteKind::UpDown)
            .ok_or_else(|| format!("switch {}: agreed topology is unroutable", s.0))?;
        if scratch.canonical_digest() != net.table_digest(s) {
            return Err(format!(
                "switch {}: installed table differs from the from-scratch table",
                s.0
            ));
        }
    }
    Ok(())
}
