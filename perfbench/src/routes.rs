//! Route work replayed over a final agreed topology, from outside: the
//! from-scratch computation against a cold and then a warm route cache.

use std::time::Instant;

use autonet_core::{compute_forwarding_table, Autopilot, RouteCache, RouteKind};

use crate::spans::Spans;

/// Accumulated replay timings (one replay = every open switch once).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteReplay {
    pub replays: u64,
    pub switches: u64,
    pub scratch_ns: u64,
    pub cold_ns: u64,
    pub warm_ns: u64,
    /// Cached tables whose digest differed from the from-scratch table.
    pub mismatches: u64,
}

impl RouteReplay {
    pub fn add(&mut self, o: &RouteReplay) {
        self.replays += o.replays;
        self.switches += o.switches;
        self.scratch_ns += o.scratch_ns;
        self.cold_ns += o.cold_ns;
        self.warm_ns += o.warm_ns;
        self.mismatches += o.mismatches;
    }
}

/// Replays the route work of every open switch in `fleet` over its own
/// agreed topology: `compute_forwarding_table` from scratch, then a fresh
/// `RouteCache` serving each table twice (cold, then warm). Cached tables
/// must equal the scratch ones.
pub fn replay_routes(fleet: &[&Autopilot], spans: &mut Spans) -> RouteReplay {
    let members: Vec<_> = fleet
        .iter()
        .filter(|ap| ap.is_open())
        .filter_map(|ap| Some((ap.global()?, ap.uid(), ap.host_ports())))
        .collect();
    let mut out = RouteReplay {
        replays: 1,
        switches: members.len() as u64,
        ..RouteReplay::default()
    };

    let s = spans.begin("core", "compute_forwarding_table");
    let t = Instant::now();
    let scratch: Vec<Option<u64>> = members
        .iter()
        .map(|(g, uid, hosts)| {
            compute_forwarding_table(g, *uid, hosts, RouteKind::UpDown)
                .map(|t| t.canonical_digest())
        })
        .collect();
    out.scratch_ns = t.elapsed().as_nanos() as u64;
    spans.end(s);

    let cache = RouteCache::new();
    for (pass, name) in [(0, "route_cache_cold"), (1, "route_cache_warm")] {
        let s = spans.begin("core", name);
        let t = Instant::now();
        let served: Vec<Option<u64>> = members
            .iter()
            .map(|(g, uid, hosts)| {
                cache
                    .table_for(g, *uid, hosts)
                    .map(|t| t.canonical_digest())
            })
            .collect();
        let ns = t.elapsed().as_nanos() as u64;
        spans.end(s);
        if pass == 0 {
            out.cold_ns = ns;
        } else {
            out.warm_ns = ns;
        }
        out.mismatches += served.iter().zip(&scratch).filter(|(a, b)| a != b).count() as u64;
    }
    out
}
