//! Byte pins for the control-message codec.
//!
//! Transmission time is charged by encoded size and every switch decodes
//! what its neighbors encoded, so the codec's bytes are part of the
//! simulation's contract, not an implementation detail. These tests pin a
//! hash of `ControlMsg::encode()` for one message of every tag — the
//! compact tags 12 and 13 on a real 256-switch fat tree after bring-up —
//! so an encoder rewrite that moves a single byte fails here, before it
//! shows up as a golden-trace diff or a shifted reconfiguration time.

use std::sync::Arc;

use autonet::autopilot::{
    ControlMsg, Epoch, GlobalTopology, LinkInfo, SrpPayload, SubtreeReport, SwitchInfo,
    TreePosition,
};
use autonet::net::{NetParams, Network};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, SwitchId, Topology};
use autonet::wire::{ShortAddress, Uid};

/// FNV-1a over the encoded bytes: stable across Rust releases, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts the encoding's tag, length and hash, and that it decodes back.
fn assert_pinned(name: &str, msg: &ControlMsg, tag: u8, len: usize, hash: u64) {
    let bytes = msg.encode();
    let got = (bytes[0], bytes.len(), fnv1a(&bytes));
    assert_eq!(
        got,
        (tag, len, hash),
        "{name}: encoding moved: got (tag, len, hash) = ({}, {}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
    assert_eq!(&ControlMsg::decode(&bytes).expect("decodes"), msg, "{name}");
}

/// The agreed topology after a cold bring-up.
fn brought_up(topo: Topology, params: NetParams) -> GlobalTopology {
    let mut net = Network::new(topo, params, 2);
    net.run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(300))
        .expect("bring-up converges");
    net.autopilot(SwitchId(0))
        .global()
        .expect("configured")
        .clone()
}

fn pos() -> TreePosition {
    TreePosition {
        root: Uid::new(0x0102_0304_0506),
        level: 3,
        parent: Uid::new(0x0A0B_0C0D_0E0F),
        parent_port: 11,
    }
}

#[test]
fn fixed_size_tags_are_pinned() {
    let cases = [
        (
            ControlMsg::Probe {
                seq: 42,
                origin: Uid::new(0xF00),
                origin_port: 4,
            },
            1,
            16,
            0x6445_842a_44d1_ed2b,
        ),
        (
            ControlMsg::ProbeReply {
                seq: 42,
                origin: Uid::new(0xF00),
                origin_port: 4,
                responder: Uid::new(0xBAA),
                responder_port: 12,
            },
            2,
            23,
            0x66f3_928c_8659_46bb,
        ),
        (
            ControlMsg::TreePosition {
                epoch: Epoch(9),
                seq: 3,
                from_port: 2,
                pos: pos(),
            },
            3,
            35,
            0xaf6a_0c49_1948_5f0c,
        ),
        (
            ControlMsg::TreePositionAck {
                epoch: Epoch(9),
                seq: 3,
                is_parent: true,
                sender_seq: 8,
                sender_from_port: 5,
                sender_pos: pos(),
            },
            4,
            44,
            0x87b8_7560_4a4d_818f,
        ),
        (
            ControlMsg::TopologyReportAck {
                epoch: Epoch(9),
                seq: 5,
            },
            6,
            17,
            0xb834_1f9e_0883_edbd,
        ),
        (
            ControlMsg::TopologyDownAck { epoch: Epoch(9) },
            8,
            9,
            0x8157_2426_c967_cb0c,
        ),
        (
            ControlMsg::ShortAddrRequest {
                host_uid: Uid::new(77),
            },
            9,
            7,
            0xdccc_2fdc_f351_af33,
        ),
        (
            ControlMsg::ShortAddrReply {
                host_uid: Uid::new(77),
                addr: ShortAddress::assigned(3, 4),
            },
            10,
            9,
            0x97c9_bce0_c756_701a,
        ),
    ];
    for (i, (msg, tag, len, hash)) in cases.iter().enumerate() {
        assert_pinned(&format!("case {i}"), msg, *tag, *len, *hash);
    }
}

#[test]
fn srp_payloads_are_pinned() {
    let payloads = [
        (SrpPayload::Ping, 0x3bf6_4fd8_a013_4d8b),
        (
            SrpPayload::Pong {
                uid: Uid::new(5),
                epoch: Epoch(2),
            },
            0x3c08_6b47_e19f_17dd,
        ),
        (SrpPayload::GetState, 0x3bf6_51d8_a013_50f1),
        (
            SrpPayload::State {
                uid: Uid::new(5),
                epoch: Epoch(2),
                good_ports: 4,
                open: true,
            },
            0x111d_bfc2_2a62_ad48,
        ),
    ];
    let lens = [9, 23, 9, 25];
    for ((payload, hash), len) in payloads.into_iter().zip(lens) {
        let name = format!("srp {payload:?}");
        let msg = ControlMsg::Srp {
            route: vec![1, 4, 2],
            hop: 1,
            back_route: vec![9],
            payload,
        };
        assert_pinned(&name, &msg, 11, len, hash);
    }
}

/// Tags 5 and 7: the classic encoding, on the paper's 30-switch SRC
/// network (hosts attached, so host ports are on the wire too).
#[test]
fn classic_topology_tags_are_pinned() {
    let global = brought_up(gen::src_network(1991), NetParams::tuned());
    let report = ControlMsg::TopologyReport {
        epoch: global.epoch,
        seq: 7,
        report: SubtreeReport {
            switches: global.switches.to_vec(),
        },
    };
    assert_pinned("report", &report, 5, 1485, 0x5575_d741_fba3_7d95);
    let down = ControlMsg::TopologyDown {
        epoch: global.epoch,
        global,
    };
    assert_pinned("down", &down, 7, 1725, 0x398b_1bfa_e1d8_02c6);
}

/// Tags 12 and 13: the compact encoding, on the 256-switch fat tree.
#[test]
fn compact_topology_tags_are_pinned() {
    let global = brought_up(gen::fat_tree(&[8, 2, 4], 99), NetParams::scale());
    let report = ControlMsg::TopologyReport {
        epoch: global.epoch,
        seq: 7,
        report: SubtreeReport {
            switches: global.switches.to_vec(),
        },
    };
    assert_pinned("report", &report, 12, 8467, 0x35d0_e2f8_8d0e_8b1e);
    let down = ControlMsg::TopologyDown {
        epoch: global.epoch,
        global,
    };
    assert_pinned("down", &down, 13, 9491, 0xad03_b3e3_3e83_bdc8);
}

/// A compact report naming a switch outside its table (a literal UID
/// reference) and listing one UID twice. A reference to the duplicated
/// UID encodes the index of its *last* occurrence.
#[test]
fn compact_literal_and_duplicate_references_are_pinned() {
    const N: u64 = 130;
    let dup = Uid::new(1000 + 5);
    let mut switches: Vec<SwitchInfo> = (0..N)
        .map(|i| SwitchInfo {
            uid: Uid::new(1000 + i),
            proposed_number: i as u16 + 1,
            parent: Uid::new(1000 + i / 2),
            parent_port: if i == 0 { 0 } else { 1 },
            links: vec![LinkInfo {
                local_port: 2,
                neighbor: Uid::new(1000 + (i + 1) % N),
                neighbor_port: 3,
            }],
            host_ports: vec![4],
        })
        .collect();
    switches[100].uid = dup;
    switches[0].links.push(LinkInfo {
        local_port: 5,
        neighbor: Uid::new(0xDEAD_BEEF), // outside the table
        neighbor_port: 6,
    });
    switches[1].links.push(LinkInfo {
        local_port: 7,
        neighbor: dup,
        neighbor_port: 8,
    });
    let report = SubtreeReport { switches };
    let msg = ControlMsg::TopologyReport {
        epoch: Epoch(4),
        seq: 2,
        report: report.clone(),
    };
    let bytes = msg.encode();
    // The reference to `dup` from switch 1: after the u16 count, the UID
    // table, switch 0's entry (number, parent ref, counts, parent port,
    // two links of which one is literal, one host port) and switch 1's
    // number, parent ref, counts, parent port and first link.
    let at = 1 + 8 + 8 + 2 + 6 * N as usize + (2 + 2 + 1 + 1 + 3 + 9 + 1) + (2 + 2 + 1 + 1 + 3) + 1;
    assert_eq!(
        u16::from_be_bytes([bytes[at], bytes[at + 1]]),
        100,
        "a duplicated UID resolves to its last table index"
    );
    assert_pinned("report", &msg, 12, 2117, 0x85f0_17a5_f17a_3ee4);
    let numbers = report
        .switches
        .iter()
        .map(|s| (s.uid, s.proposed_number))
        .chain([(Uid::new(0xDEAD_BEEF), 999)])
        .collect();
    let down = ControlMsg::TopologyDown {
        epoch: Epoch(4),
        global: GlobalTopology {
            epoch: Epoch(4),
            root: Uid::new(1000),
            switches: Arc::new(report.switches),
            numbers: Arc::new(numbers),
        },
    };
    assert_pinned("down", &down, 13, 2643, 0x1d2b_92be_8e4e_4e75);
}
