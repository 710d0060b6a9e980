//! Seeded fault-schedule generators: the benchmark's inputs.
//!
//! Both generators are pure functions of their seed and keep every
//! operation legal: nothing heals an up link, restores an up switch or
//! powers on a running host, and the switch fabric stays connected
//! (flapping links count as down while they flap).

use autonet_check::{FaultEvent, FaultOp, Scenario, TopoSpec};
use autonet_sim::SimRng;
use autonet_topo::{is_connected, LinkId, SwitchId, Topology};

/// The fat-tree arities: 256 switches, 896 trunks.
const FAT_TREE_ARITIES: [usize; 3] = [8, 2, 4];
/// Topology seeds. The run seed drives the simulation and the fault
/// schedule; the topology (its switch UIDs, hence its root) stays fixed,
/// because a different root moves every reconfiguration time of a run
/// together, an offset no number of faults per run averages out.
const FAT_TREE_TOPO_SEED: u64 = 99;
const SRC_TOPO_SEED: u64 = 1991;

/// One closed-loop churn operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    Cut(LinkId),
    Heal(LinkId),
}

/// The fat-tree churn stream: cut a seeded random trunk, heal it, repeat.
/// Only trunks whose loss keeps the fabric connected are drawn.
pub struct Churn {
    rng: SimRng,
    candidates: Vec<LinkId>,
}

impl Churn {
    pub fn new(topo: &Topology, seed: u64) -> Self {
        let candidates = topo
            .link_ids()
            .filter(|&l| {
                let mut view = topo.view_all();
                view.fail_link(l);
                !topo.link(l).is_loopback() && is_connected(&view)
            })
            .collect();
        Churn {
            rng: SimRng::new(seed ^ 0xC4_0C4),
            candidates,
        }
    }

    /// The trunk the next cycle cuts and then heals.
    pub fn next_link(&mut self) -> LinkId {
        self.candidates[self.rng.index(self.candidates.len())]
    }

    /// The first `cycles` cycles as an operation list.
    #[cfg(test)]
    pub fn ops(&mut self, cycles: usize) -> Vec<ChurnOp> {
        (0..cycles)
            .flat_map(|_| {
                let l = self.next_link();
                [ChurnOp::Cut(l), ChurnOp::Heal(l)]
            })
            .collect()
    }
}

/// Replays churn `ops` against the physical state and reports the first
/// illegal one: a cut of a down trunk, a heal of an up trunk, or a cut
/// that disconnects the fabric.
pub fn check_churn(topo: &Topology, ops: &[ChurnOp]) -> Result<(), String> {
    let mut view = topo.view_all();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ChurnOp::Cut(l) => {
                if !view.link_usable(l) {
                    return Err(format!("op {i}: cut of down trunk {l:?}"));
                }
                view.fail_link(l);
                if !is_connected(&view) {
                    return Err(format!("op {i}: cutting {l:?} disconnects the fabric"));
                }
            }
            ChurnOp::Heal(l) => {
                if view.link_usable(l) {
                    return Err(format!("op {i}: heal of up trunk {l:?}"));
                }
                view.repair_link(l);
            }
        }
    }
    Ok(())
}

/// The churn topology: the 256-switch fat tree.
pub fn fat_tree_spec() -> TopoSpec {
    TopoSpec::FatTree {
        arities: FAT_TREE_ARITIES.to_vec(),
        seed: FAT_TREE_TOPO_SEED,
    }
}

/// The src-30 campaign topology recipe: the paper's SRC fabric with one
/// dual-homed host per switch.
pub fn src30_spec() -> TopoSpec {
    TopoSpec::Hosted {
        base: Box::new(TopoSpec::Src {
            seed: SRC_TOPO_SEED,
        }),
        per_switch: 1,
        seed: SRC_TOPO_SEED,
    }
}

/// Faults per campaign.
pub const CAMPAIGN_FAULTS: usize = 8;
/// The fault classes of every campaign, as `Mirror::candidates` kinds:
/// two cuts and a heal, a flap, a switch crash and its restore, a host
/// power-off and its power-on. The seed picks their order and targets.
const CAMPAIGN_KINDS: [u64; CAMPAIGN_FAULTS] = [0, 0, 3, 5, 6, 7, 8, 9];
/// Open-loop spacing of a campaign's faults, in simulated ms: shorter
/// than one tuned reconfiguration, so epochs overlap.
pub const FAULT_SPACING_MS: u64 = 80;
/// Liveness budget for the final settle of a campaign, in simulated ms.
pub const CAMPAIGN_SETTLE_MS: u64 = 30_000;

/// Physical state a campaign generator tracks to keep its ops legal.
struct Mirror {
    link_up: Vec<bool>,
    switch_up: Vec<bool>,
    host_on: Vec<bool>,
    /// A flapping link counts as down until this offset (ms).
    flap_until: Vec<u64>,
}

impl Mirror {
    fn new(topo: &Topology) -> Self {
        Mirror {
            link_up: vec![true; topo.num_links()],
            switch_up: vec![true; topo.num_switches()],
            host_on: vec![true; topo.num_hosts()],
            flap_until: vec![0; topo.num_links()],
        }
    }

    /// Whether the fabric stays connected at `at_ms` with `link` and
    /// `switch` (if given) also taken out.
    fn connected_without(
        &self,
        topo: &Topology,
        at_ms: u64,
        link: Option<usize>,
        switch: Option<usize>,
    ) -> bool {
        let mut view = topo.view_all();
        for l in 0..topo.num_links() {
            if !self.link_up[l] || self.flap_until[l] > at_ms || link == Some(l) {
                view.fail_link(LinkId(l));
            }
        }
        for s in 0..topo.num_switches() {
            if !self.switch_up[s] || switch == Some(s) {
                view.fail_switch(SwitchId(s));
            }
        }
        is_connected(&view)
    }

    /// Trunks that are up, not flapping, between two up switches.
    fn steady_up_links(&self, topo: &Topology, at_ms: u64) -> Vec<usize> {
        (0..topo.num_links())
            .filter(|&l| {
                let spec = topo.link(LinkId(l));
                self.link_up[l]
                    && self.flap_until[l] <= at_ms
                    && !spec.is_loopback()
                    && self.switch_up[spec.a.switch.0]
                    && self.switch_up[spec.b.switch.0]
            })
            .collect()
    }

    /// The legal ops of `kind` at `at_ms`.
    fn candidates(&self, topo: &Topology, kind: u64, at_ms: u64) -> Vec<FaultOp> {
        let removable = |l: &usize| self.connected_without(topo, at_ms, Some(*l), None);
        match kind {
            // Link cut.
            0..=2 => self
                .steady_up_links(topo, at_ms)
                .into_iter()
                .filter(removable)
                .map(FaultOp::LinkDown)
                .collect(),
            // Link heal.
            3 | 4 => (0..topo.num_links())
                .filter(|&l| !self.link_up[l])
                .map(FaultOp::LinkUp)
                .collect(),
            // Flapping cable.
            5 => self
                .steady_up_links(topo, at_ms)
                .into_iter()
                .filter(removable)
                .map(|link| FaultOp::LinkFlaps {
                    link,
                    half_period_ms: 0,
                    cycles: 0,
                })
                .collect(),
            // Switch crash: at most one switch down at a time, so every
            // dual-homed host keeps one live attachment.
            6 if self.switch_up.iter().all(|&u| u) => (0..topo.num_switches())
                .filter(|&s| self.connected_without(topo, at_ms, None, Some(s)))
                .map(FaultOp::SwitchDown)
                .collect(),
            6 => Vec::new(),
            // Switch restore.
            7 => (0..topo.num_switches())
                .filter(|&s| !self.switch_up[s])
                .map(FaultOp::SwitchUp)
                .collect(),
            // Host power off / on.
            8 => (0..topo.num_hosts())
                .filter(|&h| self.host_on[h])
                .map(FaultOp::HostPowerOff)
                .collect(),
            _ => (0..topo.num_hosts())
                .filter(|&h| !self.host_on[h])
                .map(FaultOp::HostPowerOn)
                .collect(),
        }
    }

    fn apply(&mut self, op: &FaultOp, at_ms: u64) {
        match *op {
            FaultOp::LinkDown(l) => self.link_up[l] = false,
            FaultOp::LinkUp(l) => self.link_up[l] = true,
            FaultOp::LinkFlaps {
                link,
                half_period_ms,
                cycles,
            } => self.flap_until[link] = at_ms + 2 * half_period_ms * cycles as u64,
            FaultOp::SwitchDown(s) => self.switch_up[s] = false,
            FaultOp::SwitchUp(s) => self.switch_up[s] = true,
            FaultOp::HostPowerOff(h) => self.host_on[h] = false,
            FaultOp::HostPowerOn(h) => self.host_on[h] = true,
            FaultOp::Partition { .. } | FaultOp::Heal { .. } | FaultOp::Waypoint { .. } => {}
        }
    }
}

/// The simulation seed of episode (bring-up or campaign) `index` of a run
/// seeded `seed`.
pub fn episode_seed(seed: u64, index: u64) -> u64 {
    SimRng::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Campaign `index` of the src-30 stream: [`CAMPAIGN_FAULTS`] faults at
/// fixed offsets, [`FAULT_SPACING_MS`] apart, one of each class in
/// `CAMPAIGN_KINDS` (a class with no legal target at its slot falls back
/// to the next class that has one), in a seeded order in which each
/// repair follows the fault it repairs.
pub fn campaign(spec: &TopoSpec, topo: &Topology, seed: u64, index: u64) -> Scenario {
    let sim_seed = episode_seed(seed, index);
    let mut rng = SimRng::new(sim_seed ^ 0xFA17);
    let mut mirror = Mirror::new(topo);
    let mut events = Vec::with_capacity(CAMPAIGN_FAULTS);
    let mut kinds = CAMPAIGN_KINDS;
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.index(i + 1));
    }
    // Each repair follows the fault it repairs: the earlier of the two
    // shuffled slots takes the fault.
    for (fault, repair) in [(0, 3), (6, 7), (8, 9)] {
        let f = kinds.iter().position(|&k| k == fault);
        let r = kinds.iter().position(|&k| k == repair);
        if let (Some(f), Some(r)) = (f, r) {
            if r < f {
                kinds.swap(r, f);
            }
        }
    }
    for (i, &first) in kinds.iter().enumerate() {
        let at_ms = i as u64 * FAULT_SPACING_MS;
        let mut op = None;
        for k in 0..10 {
            let ops = mirror.candidates(topo, (first + k) % 10, at_ms);
            if !ops.is_empty() {
                op = Some(ops[rng.index(ops.len())].clone());
                break;
            }
        }
        let mut op = op.expect("a connected fabric always has a legal fault");
        if let FaultOp::LinkFlaps {
            half_period_ms,
            cycles,
            ..
        } = &mut op
        {
            *half_period_ms = 20 + rng.below(60);
            *cycles = 1 + rng.index(3);
        }
        mirror.apply(&op, at_ms);
        events.push(FaultEvent { at_ms, op });
    }
    Scenario {
        name: format!("src30-{seed}-{index}"),
        topo: spec.clone(),
        seed: sim_seed,
        events,
        settle_ms: CAMPAIGN_SETTLE_MS,
    }
}

/// Replays a campaign's schedule and reports the first illegal op.
pub fn check_campaign(topo: &Topology, scenario: &Scenario) -> Result<(), String> {
    let mut m = Mirror::new(topo);
    for (i, e) in scenario.events.iter().enumerate() {
        let at = e.at_ms;
        let ok = match e.op {
            FaultOp::LinkDown(l) => {
                m.link_up[l]
                    && m.flap_until[l] <= at
                    && m.connected_without(topo, at, Some(l), None)
            }
            FaultOp::LinkUp(l) => !m.link_up[l],
            FaultOp::LinkFlaps { link, .. } => {
                m.link_up[link]
                    && m.flap_until[link] <= at
                    && m.connected_without(topo, at, Some(link), None)
            }
            FaultOp::SwitchDown(s) => {
                m.switch_up.iter().all(|&u| u) && m.connected_without(topo, at, None, Some(s))
            }
            FaultOp::SwitchUp(s) => !m.switch_up[s],
            FaultOp::HostPowerOff(h) => m.host_on[h],
            FaultOp::HostPowerOn(h) => !m.host_on[h],
            _ => false,
        };
        if !ok {
            return Err(format!("event {i} ({:?}) is illegal at {at} ms", e.op));
        }
        m.apply(&e.op, at);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_topo::gen;

    #[test]
    fn churn_is_deterministic_legal_and_connected() {
        let topo = fat_tree_spec().build();
        assert_eq!((topo.num_switches(), topo.num_links()), (256, 896));
        let a = Churn::new(&topo, 3).ops(200);
        assert_eq!(a, Churn::new(&topo, 3).ops(200));
        assert_ne!(a, Churn::new(&topo, 4).ops(200));
        check_churn(&topo, &a).expect("generated churn is legal");
        // The checker does catch what the generator must never emit.
        let l = LinkId(0);
        assert!(check_churn(&topo, &[ChurnOp::Heal(l)]).is_err());
        assert!(check_churn(&topo, &[ChurnOp::Cut(l), ChurnOp::Cut(l)]).is_err());
        // A line's trunks are all bridges: no cut keeps it connected.
        let line = gen::line(3, 1);
        assert!(check_churn(&line, &[ChurnOp::Cut(LinkId(0))]).is_err());
        assert!(Churn::new(&line, 1).candidates.is_empty());
    }

    #[test]
    fn campaigns_are_deterministic_and_legal() {
        let spec = src30_spec();
        let topo = spec.build();
        assert_eq!((topo.num_switches(), topo.num_hosts()), (30, 30));
        let mut kinds = std::collections::HashSet::new();
        let mut off_slots = std::collections::BTreeSet::new();
        for index in 0..200 {
            let c = campaign(&spec, &topo, 5, index);
            assert_eq!(c, campaign(&spec, &topo, 5, index));
            assert_eq!(c.events.len(), CAMPAIGN_FAULTS);
            check_campaign(&topo, &c).expect("generated campaign is legal");
            for e in &c.events {
                kinds.insert(std::mem::discriminant(&e.op));
            }
            let slot = |pick: fn(&FaultOp) -> bool| c.events.iter().position(|e| pick(&e.op));
            let off = slot(|op| matches!(op, FaultOp::HostPowerOff(_)));
            let on = slot(|op| matches!(op, FaultOp::HostPowerOn(_)));
            let (Some(off), Some(on)) = (off, on) else {
                panic!("no power-off and power-on: {:?}", c.events);
            };
            assert!(off < on, "{:?}", c.events);
            off_slots.insert(off);
        }
        // The power-off takes no fixed slot: the seeded order moves it.
        assert!(off_slots.len() >= 6, "{off_slots:?}");
        assert_ne!(campaign(&spec, &topo, 5, 0), campaign(&spec, &topo, 6, 0));
        // Cut, heal, flap, crash, restore, power off, power on.
        assert_eq!(kinds.len(), 7);
        // The replay checker rejects a heal of an up link.
        let mut bad = campaign(&spec, &topo, 5, 0);
        bad.events[0].op = FaultOp::LinkUp(0);
        assert!(check_campaign(&topo, &bad).is_err());
    }
}
