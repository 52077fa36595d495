//! Exhaustive corruption sweep over the snapshot format.
//!
//! Every byte of a snapshot is covered by exactly one checksum (the header
//! CRC or one section CRC), so *any* single-byte damage must surface as a
//! typed [`rap_core::SnapshotError`] — from the cheap `verify` path and
//! from both decoders (the resume decode and the serving decode) — and
//! must never panic. The sweep is exhaustive, not sampled: every offset,
//! two flip masks (single-bit and full-byte), plus every possible
//! truncation length and a trailing-garbage extension.
//!
//! Past the checksums, a re-sealed mutation battery edits one decoded
//! field at a time and recomputes the checksums, so the bytes reach the
//! checks on the decoded state: both decoders must accept exactly the same
//! inputs, fail with the same error text, and on acceptance serve the
//! scenario a resume materializes.

use rap_core::fixtures::reseal_snapshot;
use rap_core::{
    decode_serving_snapshot, decode_snapshot, encode_snapshot, verify_snapshot, FlowDelta,
    MutableScenario, Placement, SnapshotError, UtilityKind,
};
use rap_graph::{Distance, GridGraph, NodeId};
use rap_traffic::{FlowSet, FlowSpec};

/// A small but fully-populated snapshot: live flows, a tombstone, an
/// overlay (post-compaction adds), a placement, and an extra section.
fn snapshot_bytes() -> Vec<u8> {
    let grid = GridGraph::new(4, 4, Distance::from_feet(100));
    let specs = vec![
        FlowSpec::new(NodeId::new(0), NodeId::new(15), 900.0)
            .unwrap()
            .with_attractiveness(0.3)
            .unwrap(),
        FlowSpec::new(NodeId::new(3), NodeId::new(12), 500.0)
            .unwrap()
            .with_attractiveness(0.2)
            .unwrap(),
    ];
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    let mut scenario = MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![NodeId::new(5)],
        UtilityKind::Linear.instantiate(Distance::from_feet(600)),
    )
    .unwrap();
    scenario
        .apply(&FlowDelta::RemoveFlow { flow: 0 })
        .expect("flow 0 is live");
    scenario
        .apply(&FlowDelta::AddFlow {
            origin: NodeId::new(12),
            destination: NodeId::new(2),
            volume: 250.0,
            alpha: 0.4,
        })
        .expect("valid add");
    let placement = Placement::new(vec![NodeId::new(5), NodeId::new(9)]);
    encode_snapshot(&scenario, Some(&placement), 7, &[0xAB, 0, 0xCD]).unwrap()
}

#[test]
fn every_single_byte_flip_is_detected() {
    let bytes = snapshot_bytes();
    for mask in [0x01u8, 0xFF] {
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= mask;
            let verify_err = match verify_snapshot(&corrupt) {
                Err(e) => e,
                Ok(_) => panic!("verify accepted a flip of byte {offset} (mask {mask:#04x})"),
            };
            let decode_err = match decode_snapshot(&corrupt) {
                Err(e) => e,
                Ok(_) => panic!("decode accepted a flip of byte {offset} (mask {mask:#04x})"),
            };
            let serving_err = match decode_serving_snapshot(&corrupt, 1) {
                Err(e) => e,
                Ok(_) => {
                    panic!("serving decode accepted a flip of byte {offset} (mask {mask:#04x})")
                }
            };
            // Every error renders (no Display panics anywhere in the
            // variant space the sweep reaches), and both decoders name the
            // same damage.
            let _ = verify_err.to_string();
            assert_eq!(decode_err.to_string(), serving_err.to_string());
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let bytes = snapshot_bytes();
    for len in 0..bytes.len() {
        let prefix = &bytes[..len];
        assert!(
            verify_snapshot(prefix).is_err(),
            "verify accepted a truncation to {len} bytes"
        );
        assert!(
            decode_snapshot(prefix).is_err(),
            "decode accepted a truncation to {len} bytes"
        );
        assert!(
            decode_serving_snapshot(prefix, 1).is_err(),
            "serving decode accepted a truncation to {len} bytes"
        );
    }
}

#[test]
fn trailing_garbage_is_detected() {
    // The directory pins every section's extent; bytes past the final
    // section mean the file is not the one that was written.
    for garbage in [vec![0u8], vec![0xFF; 17]] {
        let mut extended = snapshot_bytes();
        extended.extend_from_slice(&garbage);
        assert!(verify_snapshot(&extended).is_err());
        assert!(decode_snapshot(&extended).is_err());
        assert!(decode_serving_snapshot(&extended, 1).is_err());
    }
}

#[test]
fn the_undamaged_snapshot_still_loads() {
    // Guards the sweep itself: if the fixture were unloadable, the flip
    // assertions above would pass vacuously.
    let bytes = snapshot_bytes();
    let info = verify_snapshot(&bytes).unwrap();
    assert_eq!(info.node_count, 16);
    assert_eq!(info.placement_len, 2);
    assert_eq!(info.extra_len, 3);
    let mut contents = decode_snapshot(&bytes).unwrap();
    assert_eq!(contents.scenario.live_flows(), 2);
    assert_eq!(contents.source_position, 7);
    let served = decode_serving_snapshot(&bytes, 1).unwrap();
    assert_eq!(served.live_flows, 2);
    assert_eq!(served.placement, contents.placement);
    assert_eq!(served.file_crc32, rap_core::snapshot_crc32(&bytes));
    assert_eq!(
        format!("{:?}", served.scenario),
        format!("{:?}", contents.scenario.snapshot())
    );
}

/// Values a re-sealed mutation writes into one little-endian `u32` word,
/// given the word's original value: small counts and ids, boundaries, and
/// the neighbours of the original.
fn word_variants(original: u32) -> [u32; 10] {
    [
        0,
        1,
        2,
        15,
        16,
        17,
        u32::MAX,
        original.wrapping_add(1),
        original.wrapping_sub(1),
        original ^ 0x8000_0000,
    ]
}

#[test]
fn resealed_mutations_meet_the_same_checks_in_both_decoders() {
    let bytes = snapshot_bytes();
    let first_section = verify_snapshot(&bytes).unwrap().sections[0].offset as usize;
    let (mut accepted, mut rejected, mut state_checks) = (0, 0, 0);
    // Every aligned word of every section (fixed-width fields are u32 or
    // pairs of u32 words), each set to every variant.
    for at in (first_section..bytes.len()).step_by(4) {
        let width = (bytes.len() - at).min(4);
        let mut word = [0u8; 4];
        word[..width].copy_from_slice(&bytes[at..at + width]);
        let original = u32::from_le_bytes(word);
        for value in word_variants(original) {
            if value == original {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            reseal_snapshot(&mut mutated);
            let resumed = decode_snapshot(&mutated);
            let served = decode_serving_snapshot(&mutated, 1);
            match (resumed, served) {
                (Ok(mut resumed), Ok(served)) => {
                    // Accepted state materializes without a panic, and the
                    // serving decode builds exactly that scenario.
                    assert_eq!(
                        format!("{:?}", served.scenario),
                        format!("{:?}", resumed.scenario.snapshot()),
                        "word at {at} set to {value:#x}"
                    );
                    accepted += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        a.to_string(),
                        b.to_string(),
                        "word at {at} set to {value:#x}"
                    );
                    if matches!(
                        a,
                        SnapshotError::Malformed {
                            section: "state",
                            ..
                        }
                    ) {
                        state_checks += 1;
                    }
                    rejected += 1;
                }
                (a, b) => panic!(
                    "word at {at} set to {value:#x}: resume decode {:?}, serving decode {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }
    // The battery reaches both outcomes, and the validator's checks.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    assert!(state_checks > 0);
}

/// A snapshot whose first flow drives 0 → 1 → 2 along the bottom row of a
/// 4×4 grid, and `edits` applied to it as `(section, byte offset, u32)`
/// writes, re-sealed so every checksum holds.
fn edited_short_flow_snapshot(edits: &[(&str, usize, u32)]) -> Vec<u8> {
    let grid = GridGraph::new(4, 4, Distance::from_feet(100));
    let specs = vec![
        FlowSpec::new(NodeId::new(0), NodeId::new(2), 900.0).unwrap(),
        FlowSpec::new(NodeId::new(3), NodeId::new(12), 500.0).unwrap(),
    ];
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    let scenario = MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![NodeId::new(5)],
        UtilityKind::Linear.instantiate(Distance::from_feet(600)),
    )
    .unwrap();
    let mut bytes = encode_snapshot(&scenario, None, 0, &[]).unwrap();
    let sections = verify_snapshot(&bytes).unwrap().sections;
    for &(name, at, value) in edits {
        let section = sections.iter().find(|s| s.name == name).unwrap();
        let at = section.offset as usize + at;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }
    reseal_snapshot(&mut bytes);
    bytes
}

/// Both decoders reject `bytes` with the same error, which contains `what`.
fn assert_both_reject(bytes: &[u8], what: &str) {
    let Err(resumed) = decode_snapshot(bytes) else {
        panic!("resume decode accepted");
    };
    let served = decode_serving_snapshot(bytes, 1).expect_err("serving decode accepted");
    assert!(
        matches!(
            resumed,
            SnapshotError::Malformed {
                section: "state",
                ..
            }
        ),
        "{resumed}"
    );
    assert_eq!(resumed.to_string(), served.to_string());
    assert!(resumed.to_string().contains(what), "{resumed}");
}

#[test]
fn a_live_path_hop_with_no_edge_is_malformed() {
    assert!(decode_snapshot(&edited_short_flow_snapshot(&[])).is_ok());
    // Path 0 → 9 → 2: the endpoints still match the flow, but neither hop
    // is a street.
    let bytes = edited_short_flow_snapshot(&[("paths", 4, 9)]);
    assert_both_reject(&bytes, "hops V0 → V9, which no edge connects");
}

#[test]
fn a_live_flow_that_ends_where_it_starts_is_malformed() {
    // Path 0 → 1 → 0 and destination 0: every hop is a street, but the
    // flow has no distinct endpoints.
    let bytes = edited_short_flow_snapshot(&[("paths", 8, 0), ("flows", 12, 0)]);
    assert_both_reject(&bytes, "live flow #0 starts and ends at V0");
}
