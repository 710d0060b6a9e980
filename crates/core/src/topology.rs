//! Topology descriptions exchanged during reconfiguration.
//!
//! As stability moves up the forming spanning tree, each switch's "I am
//! stable" message grows into a [`SubtreeReport`] describing the stable
//! subtree below it (companion paper §6.6.1 step 2). The root merges the
//! reports of all its children with its own adjacency to obtain the
//! [`GlobalTopology`], assigns switch numbers, and floods the result down
//! the tree (steps 3–4), from which every switch computes its forwarding
//! table locally (step 5).

use std::collections::BTreeMap;
use std::sync::Arc;

use autonet_wire::{PortIndex, SwitchNumber, Uid};

use crate::epoch::Epoch;

/// One switch-to-switch adjacency as seen from one end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkInfo {
    /// The local port the link is cabled to.
    pub local_port: PortIndex,
    /// UID of the switch at the far end.
    pub neighbor: Uid,
    /// The far end's port number.
    pub neighbor_port: PortIndex,
}

/// Everything one switch contributes to the topology description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchInfo {
    /// The switch's UID.
    pub uid: Uid,
    /// The switch number it held last epoch and proposes to keep (1 for a
    /// freshly powered-on switch).
    pub proposed_number: SwitchNumber,
    /// UID of its tree parent (its own UID if it is the root).
    pub parent: Uid,
    /// Its local port to the parent (0 for the root).
    pub parent_port: PortIndex,
    /// Its usable switch-to-switch links (state `s.switch.good`).
    pub links: Vec<LinkInfo>,
    /// Ports classified `s.host`.
    pub host_ports: Vec<PortIndex>,
}

/// The topology and spanning tree of a stable subtree, accumulated on the
/// way up to the root.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SubtreeReport {
    /// All switches in the subtree, the reporting switch first.
    pub switches: Vec<SwitchInfo>,
}

impl SubtreeReport {
    /// A leaf report containing just the reporting switch.
    pub fn leaf(info: SwitchInfo) -> Self {
        SubtreeReport {
            switches: vec![info],
        }
    }

    /// Merges the reporting switch's own info with its children's reports.
    pub fn merge(own: SwitchInfo, children: impl IntoIterator<Item = SubtreeReport>) -> Self {
        let mut switches = vec![own];
        for child in children {
            switches.extend(child.switches);
        }
        SubtreeReport { switches }
    }

    /// Number of switches described.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether the report describes a well-formed spanning tree rooted at
    /// `root`: every switch appears exactly once and is reachable from the
    /// root via parent pointers. A report collected while a re-parenting
    /// notice is still in flight can violate this (the moved switch shows
    /// up under both its old and new parent, or under neither); the root
    /// must not terminate on such a snapshot.
    pub fn describes_tree(&self, root: Uid) -> bool {
        let mut children: BTreeMap<Uid, Vec<Uid>> = BTreeMap::new();
        let mut uids = std::collections::BTreeSet::new();
        for s in &self.switches {
            if !uids.insert(s.uid) {
                return false;
            }
            if s.uid != root {
                children.entry(s.parent).or_default().push(s.uid);
            }
        }
        if !uids.contains(&root) {
            return false;
        }
        let mut reached = 1usize;
        let mut frontier = vec![root];
        while let Some(u) = frontier.pop() {
            if let Some(kids) = children.get(&u) {
                reached += kids.len();
                frontier.extend(kids.iter().copied());
            }
        }
        reached == self.switches.len()
    }

    /// Returns `true` if the report is empty.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }
}

/// The complete topology the root floods down the tree: every switch's
/// adjacency, the spanning tree (via parent pointers), and the assigned
/// switch numbers.
///
/// The switch list and number assignment are behind [`Arc`]: the flood
/// clones this structure once per child and once per retransmission, and
/// at the scale tier (1024 switches, ~13 heap blocks per entry) deep
/// copies dominated the whole reconfiguration wall clock. Cloning now
/// bumps two refcounts; the (rare) mutators go through [`Arc::make_mut`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalTopology {
    /// The epoch this topology belongs to.
    pub epoch: Epoch,
    /// UID of the spanning-tree root.
    pub root: Uid,
    /// Every switch in the configuration.
    pub switches: Arc<Vec<SwitchInfo>>,
    /// The root's switch-number assignment.
    pub numbers: Arc<BTreeMap<Uid, SwitchNumber>>,
}

impl GlobalTopology {
    /// Looks up a switch's info by UID.
    pub fn switch(&self, uid: Uid) -> Option<&SwitchInfo> {
        self.switches.iter().find(|s| s.uid == uid)
    }

    /// The assigned number of a switch.
    pub fn number_of(&self, uid: Uid) -> Option<SwitchNumber> {
        self.numbers.get(&uid).copied()
    }

    /// The tree level of every switch (root = 0), computed by following
    /// parent pointers. Returns `None` if the parent pointers are broken
    /// (a cycle or a missing parent) — which a well-formed reconfiguration
    /// never produces, but corrupted reports could.
    pub fn levels(&self) -> Option<BTreeMap<Uid, u32>> {
        let mut levels: BTreeMap<Uid, u32> = BTreeMap::new();
        levels.insert(self.root, 0);
        // Iterate to fixpoint; n passes suffice for a tree of n switches.
        for _ in 0..self.switches.len() {
            let mut changed = false;
            for s in self.switches.iter() {
                if levels.contains_key(&s.uid) {
                    continue;
                }
                if let Some(&pl) = levels.get(&s.parent) {
                    levels.insert(s.uid, pl + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if levels.len() == self.switches.len() {
            Some(levels)
        } else {
            None
        }
    }

    /// The tree children of `uid`: switches whose parent pointer names it.
    pub fn children_of(&self, uid: Uid) -> impl Iterator<Item = &SwitchInfo> {
        self.switches
            .iter()
            .filter(move |s| s.parent == uid && s.uid != uid)
    }

    /// A canonical 64-bit digest of the topology *content* — everything
    /// forwarding tables are derived from — excluding the epoch number.
    ///
    /// Two epochs whose agreed topologies are byte-identical (a fault
    /// detected and repaired between snapshots, or back-to-back faults
    /// that converge to the same shape) hash equal, so a route cache
    /// keyed on this digest coalesces their table computations into one.
    /// The in-memory order is itself canonical: the switch list is the
    /// root's tree accumulation order and the number map iterates sorted
    /// by UID.
    ///
    /// The content is packed into a word stream that is injective given
    /// its counts (a 48-bit UID and up to 16 bits of ports or number per
    /// word), and each word is folded in by [`mix64`]. The mixer is a
    /// bijection, so two streams of equal length that differ in a single
    /// word always digest differently.
    pub fn content_digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        let mut eat = |word: u64| h = mix64(h ^ word);
        let uid_and = |u: Uid, low: u64| (u.as_u64() << 16) | low;
        eat(self.root.as_u64());
        eat(self.switches.len() as u64);
        for s in self.switches.iter() {
            eat(uid_and(s.uid, u64::from(s.proposed_number)));
            eat(uid_and(s.parent, u64::from(s.parent_port)));
            eat(((s.links.len() as u64) << 32) | s.host_ports.len() as u64);
            for l in &s.links {
                let ports = (u64::from(l.local_port) << 8) | u64::from(l.neighbor_port);
                eat(uid_and(l.neighbor, ports));
            }
            for chunk in s.host_ports.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                eat(u64::from_le_bytes(word));
            }
        }
        eat(self.numbers.len() as u64);
        for (&uid, &num) in self.numbers.iter() {
            eat(uid_and(uid, u64::from(num)));
        }
        h
    }

    /// Whether two topologies have the same content, ignoring the epoch:
    /// the equality that [`content_digest`](Self::content_digest) stands
    /// in for.
    pub(crate) fn content_eq(&self, other: &GlobalTopology) -> bool {
        self.root == other.root && self.switches == other.switches && self.numbers == other.numbers
    }
}

/// Starting state of [`GlobalTopology::content_digest`].
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The MurmurHash3 64-bit finalizer: a bijection on `u64` in which every
/// input bit flips every output bit with probability close to one half.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(uid: u64, parent: u64) -> SwitchInfo {
        SwitchInfo {
            uid: Uid::new(uid),
            proposed_number: 1,
            parent: Uid::new(parent),
            parent_port: if uid == parent { 0 } else { 1 },
            links: Vec::new(),
            host_ports: Vec::new(),
        }
    }

    fn three_chain() -> GlobalTopology {
        // 1 <- 2 <- 3.
        let mut numbers = BTreeMap::new();
        numbers.insert(Uid::new(1), 1);
        numbers.insert(Uid::new(2), 2);
        numbers.insert(Uid::new(3), 3);
        GlobalTopology {
            epoch: Epoch(1),
            root: Uid::new(1),
            switches: Arc::new(vec![info(1, 1), info(2, 1), info(3, 2)]),
            numbers: Arc::new(numbers),
        }
    }

    #[test]
    fn merge_concatenates() {
        let r = SubtreeReport::merge(
            info(2, 1),
            [
                SubtreeReport::leaf(info(3, 2)),
                SubtreeReport::leaf(info(4, 2)),
            ],
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.switches[0].uid, Uid::new(2));
    }

    #[test]
    fn levels_follow_parents() {
        let g = three_chain();
        let levels = g.levels().expect("well-formed tree");
        assert_eq!(levels[&Uid::new(1)], 0);
        assert_eq!(levels[&Uid::new(2)], 1);
        assert_eq!(levels[&Uid::new(3)], 2);
    }

    #[test]
    fn children_lookup() {
        let g = three_chain();
        let kids: Vec<Uid> = g.children_of(Uid::new(1)).map(|s| s.uid).collect();
        assert_eq!(kids, vec![Uid::new(2)]);
        assert_eq!(g.children_of(Uid::new(3)).count(), 0);
    }

    #[test]
    fn broken_parent_pointers_detected() {
        let mut g = three_chain();
        // Point 3's parent at a nonexistent switch.
        Arc::make_mut(&mut g.switches)[2].parent = Uid::new(99);
        assert!(g.levels().is_none());
    }

    #[test]
    fn describes_tree_accepts_well_formed_reports() {
        let r = SubtreeReport {
            switches: vec![info(1, 1), info(2, 1), info(3, 2)],
        };
        assert!(r.describes_tree(Uid::new(1)));
    }

    #[test]
    fn describes_tree_rejects_duplicates_and_orphans() {
        // Switch 3 listed under both its old and new parent.
        let dup = SubtreeReport {
            switches: vec![info(1, 1), info(2, 1), info(3, 2), info(3, 1)],
        };
        assert!(!dup.describes_tree(Uid::new(1)));
        // Switch 3's parent is not in the report.
        let orphan = SubtreeReport {
            switches: vec![info(1, 1), info(3, 9)],
        };
        assert!(!orphan.describes_tree(Uid::new(1)));
        // The root itself is missing.
        let rootless = SubtreeReport {
            switches: vec![info(2, 1), info(3, 2)],
        };
        assert!(!rootless.describes_tree(Uid::new(1)));
    }

    #[test]
    fn content_digest_ignores_epoch_only() {
        let a = three_chain();
        let mut b = three_chain();
        b.epoch = Epoch(99);
        assert_eq!(a.content_digest(), b.content_digest());
        assert!(a.content_eq(&b));
        // Any single-field change moves the digest.
        let mut base = three_chain();
        Arc::make_mut(&mut base.switches)[1].links = vec![LinkInfo {
            local_port: 2,
            neighbor: Uid::new(3),
            neighbor_port: 4,
        }];
        Arc::make_mut(&mut base.switches)[1].host_ports = vec![5, 6];
        type Edit = (&'static str, fn(&mut GlobalTopology));
        let edits: [Edit; 10] = [
            ("link local port", |g| {
                Arc::make_mut(&mut g.switches)[1].links[0].local_port = 7
            }),
            ("link neighbor port", |g| {
                Arc::make_mut(&mut g.switches)[1].links[0].neighbor_port = 7
            }),
            ("link neighbor", |g| {
                Arc::make_mut(&mut g.switches)[1].links[0].neighbor = Uid::new(1)
            }),
            ("host port", |g| {
                Arc::make_mut(&mut g.switches)[1].host_ports[1] = 7
            }),
            ("proposed number", |g| {
                Arc::make_mut(&mut g.switches)[2].proposed_number = 7
            }),
            ("assigned number", |g| {
                Arc::make_mut(&mut g.numbers).insert(Uid::new(3), 9);
            }),
            ("parent", |g| {
                Arc::make_mut(&mut g.switches)[2].parent = Uid::new(1)
            }),
            ("parent port", |g| {
                Arc::make_mut(&mut g.switches)[2].parent_port = 7
            }),
            ("root", |g| g.root = Uid::new(2)),
            ("host port removed", |g| {
                Arc::make_mut(&mut g.switches)[1].host_ports.pop();
            }),
        ];
        for (field, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert!(!base.content_eq(&changed), "{field}");
            assert_ne!(base.content_digest(), changed.content_digest(), "{field}");
        }
    }

    #[test]
    fn lookup_by_uid() {
        let g = three_chain();
        assert_eq!(g.switch(Uid::new(2)).unwrap().parent, Uid::new(1));
        assert!(g.switch(Uid::new(9)).is_none());
        assert_eq!(g.number_of(Uid::new(3)), Some(3));
    }
}
