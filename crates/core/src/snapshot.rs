//! Versioned, checksummed, offset-based binary snapshots of a
//! [`MutableScenario`], plus the recovery path that replays a write-ahead
//! log on top ([`restore`]) and the serving decode that goes straight to
//! an immutable [`Scenario`] ([`decode_serving_snapshot`]).
//!
//! ## File layout (version 1, all integers little-endian)
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic  "RAPSNAP1"                              8 bytes │
//! │ version u32 · section_count u32                8 bytes │
//! │ directory: section_count × {                           │
//! │     id u32 · crc32 u32 · offset u64 · len u64 }   ×24  │
//! │ header_crc32 u32 (over all bytes above)        4 bytes │
//! ├────────────────────────────────────────────────────────┤
//! │ sections, back to back, in directory order             │
//! │   1 META             fixed scalars (epoch, counts, …)  │
//! │   2 POINTS           node_count × (x f64, y f64)       │
//! │   3 EDGES            edge_count × (src, dst, len u64)  │
//! │   4 SHOPS            shop_count × u32                  │
//! │   5 FLOWS            flow_count × 48-byte record       │
//! │   6 PATHS            concatenated path node ids, u32   │
//! │   7 OFFSETS          (node_count + 1) × u32 base CSR   │
//! │   8 ENTRIES          entry_count × (flow, pos, detour) │
//! │   9 OVERLAY_OFFSETS  (node_count + 1) × u32            │
//! │  10 OVERLAY          overlay_count × (flow,pos,detour) │
//! │  11 PLACEMENT        placement_len × u32               │
//! │  12 EXTRA            opaque caller bytes               │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! Section offsets are absolute and strictly sequential, and the file must
//! end exactly where the last section does — so every byte of the file is
//! covered either by the header checksum or by exactly one section
//! checksum, and any single-byte corruption is detected (the exhaustive
//! flip sweep in `tests/snapshot_corruption.rs` asserts this). All reads
//! are bounds-checked; every failure is a typed [`SnapshotError`], never a
//! panic. The file's own CRC32, the identity a server reports, is folded
//! from the section checksums (zlib's `crc32_combine`), so a load hashes
//! every byte once.
//!
//! ## One reader, one validator, two assemblers
//!
//! A single reader parses every section and a single validator checks the
//! decoded state against every invariant the assemblers rely on, so bytes
//! that pass every checksum but describe an impossible scenario (a path
//! hop no street makes, a live flow that ends where it starts) are
//! rejected as [`SnapshotError::Malformed`] instead of panicking later.
//! Two assemblers then build different outputs from the same parts:
//!
//! - [`decode_snapshot`] rebuilds the [`MutableScenario`] a stream resume
//!   continues from;
//! - [`decode_serving_snapshot`] builds the immutable [`Scenario`] a server
//!   answers from, with none of the mutable state.
//!
//! Both accept exactly the same bytes and fail with the same error text;
//! on acceptance the serving scenario equals the resumed one's
//! [`MutableScenario::snapshot`] bit for bit (`tests/persist_prop.rs`).
//!
//! ## What is persisted vs. recomputed
//!
//! The snapshot stores the *exact* mutable state — every flow including
//! tombstones, the base CSR, the overlay rows, epoch/compaction counters —
//! so a restored scenario continues bit-identically: the same deltas hit
//! the same compaction trigger points and produce the same entry orders.
//! Entry *values* are never stored: they are recomputed from
//! `f(detour, α) · volume` (the invariant the incremental maintenance
//! preserves), as are the per-shop Dijkstra trees, the flow→location
//! indexes, and the routing workspace.

use crate::detour::FlowDetour;
use crate::faults::{DiskFault, FaultPlan};
use crate::mutable::{live_scenario, live_spec, MutableScenario, PersistedFlow, PersistedState};
use crate::placement::Placement;
use crate::scenario::Scenario;
use crate::utility::{UtilityFunction, UtilityKind};
use crate::wal::{self, ReplayReport, WalStop};
use rap_graph::{Distance, GraphBuilder, GraphError, NodeId, Path, Point, RoadGraph};
use rap_traffic::{FlowId, TrafficError};
use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::sync::Arc;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"RAPSNAP1";
/// Current format version.
pub const VERSION: u32 = 1;

const SEC_META: u32 = 1;
const SEC_POINTS: u32 = 2;
const SEC_EDGES: u32 = 3;
const SEC_SHOPS: u32 = 4;
const SEC_FLOWS: u32 = 5;
const SEC_PATHS: u32 = 6;
const SEC_OFFSETS: u32 = 7;
const SEC_ENTRIES: u32 = 8;
const SEC_OVERLAY_OFFSETS: u32 = 9;
const SEC_OVERLAY: u32 = 10;
const SEC_PLACEMENT: u32 = 11;
const SEC_EXTRA: u32 = 12;
const SECTION_IDS: [u32; 12] = [
    SEC_META,
    SEC_POINTS,
    SEC_EDGES,
    SEC_SHOPS,
    SEC_FLOWS,
    SEC_PATHS,
    SEC_OFFSETS,
    SEC_ENTRIES,
    SEC_OVERLAY_OFFSETS,
    SEC_OVERLAY,
    SEC_PLACEMENT,
    SEC_EXTRA,
];

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_POINTS => "points",
        SEC_EDGES => "edges",
        SEC_SHOPS => "shops",
        SEC_FLOWS => "flows",
        SEC_PATHS => "paths",
        SEC_OFFSETS => "offsets",
        SEC_ENTRIES => "entries",
        SEC_OVERLAY_OFFSETS => "overlay-offsets",
        SEC_OVERLAY => "overlay",
        SEC_PLACEMENT => "placement",
        SEC_EXTRA => "extra",
        _ => "unknown",
    }
}

/// Why a snapshot failed to load. Every variant is a clean, typed error;
/// corrupt or truncated bytes can never panic the loader or produce a
/// silently wrong scenario.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure (including injected disk faults).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The file is shorter (or longer) than its layout demands.
    Truncated {
        /// Bytes the layout demands.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The header is structurally invalid (bad section count, ids out of
    /// order, non-sequential offsets, …).
    HeaderCorrupt {
        /// What was wrong.
        detail: String,
    },
    /// The header's CRC32 does not match its bytes.
    HeaderChecksum,
    /// A section's CRC32 does not match its bytes.
    SectionChecksum {
        /// The failing section.
        section: &'static str,
    },
    /// A section's checksummed content violates a structural invariant.
    Malformed {
        /// The failing section.
        section: &'static str,
        /// The first violated invariant.
        detail: String,
    },
    /// The scenario's utility function has no persistent encoding.
    UnsupportedUtility {
        /// The utility's reported name.
        name: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {VERSION})"
                )
            }
            SnapshotError::Truncated { expected, found } => {
                write!(
                    f,
                    "snapshot length mismatch: layout demands {expected} bytes, file has {found}"
                )
            }
            SnapshotError::HeaderCorrupt { detail } => {
                write!(f, "snapshot header corrupt: {detail}")
            }
            SnapshotError::HeaderChecksum => write!(f, "snapshot header checksum mismatch"),
            SnapshotError::SectionChecksum { section } => {
                write!(f, "snapshot section `{section}` checksum mismatch")
            }
            SnapshotError::Malformed { section, detail } => {
                write!(f, "snapshot section `{section}` malformed: {detail}")
            }
            SnapshotError::UnsupportedUtility { name } => {
                write!(f, "utility function `{name}` has no persistent encoding")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// CRC32 (IEEE 802.3 polynomial, the zlib/PNG variant), slice-by-8.
///
/// Snapshot loads checksum every byte of a multi-megabyte file before any
/// decoding happens, so the CRC is on the recovery-latency critical path.
/// The classic one-byte-per-step table walk serializes on an 8-cycle
/// dependent-load chain per byte; slicing consumes 8 bytes per step
/// through 8 independent tables, which the CPU overlaps (~6-8x faster on
/// large buffers). All tables are built at compile time from the same
/// polynomial, and the result is bit-identical to the byte-at-a-time walk.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    const fn make_tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            t += 1;
        }
        tables
    }
    static T: [[u32; 256]; 8] = make_tables();
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = T[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Everything a snapshot holds, decoded and validated.
pub struct SnapshotContents {
    /// The restored scenario, bit-identical in behavior to the one saved.
    pub scenario: MutableScenario,
    /// The serving placement at save time, if one was recorded.
    pub placement: Option<Placement>,
    /// The delta-source position at save time: the number of stream items
    /// consumed before the snapshot was taken.
    pub source_position: u64,
    /// Opaque caller bytes (e.g. the stream maintainer's state), returned
    /// verbatim.
    pub extra: Vec<u8>,
}

/// Header-level facts about a snapshot, from [`verify_snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// CRC32 of the whole file, equal to [`snapshot_crc32`] of its bytes,
    /// folded from the section checksums.
    pub file_crc32: u32,
    /// Scenario epoch at save time.
    pub epoch: u64,
    /// Compactions run before the save.
    pub compactions: u64,
    /// Next stable flow id.
    pub next_stable: u64,
    /// Delta-source position at save time.
    pub source_position: u64,
    /// Graph node count.
    pub node_count: u64,
    /// Graph directed-edge count.
    pub edge_count: u64,
    /// Shop count.
    pub shop_count: u64,
    /// Flow records (live + tombstoned).
    pub flow_count: u64,
    /// Base CSR entries.
    pub entry_count: u64,
    /// Overlay entries.
    pub overlay_count: u64,
    /// Recorded placement size (0 = none recorded).
    pub placement_len: u64,
    /// Opaque extra-section length.
    pub extra_len: u64,
    /// Utility function name.
    pub utility: &'static str,
    /// Utility threshold `D` in feet.
    pub threshold_feet: u64,
    /// The section directory, every checksum verified.
    pub sections: Vec<SectionInfo>,
}

/// A scenario restored from snapshot + WAL, with the replay accounting.
pub struct Restored {
    /// The recovered scenario: snapshot state plus the valid WAL prefix.
    pub scenario: MutableScenario,
    /// The placement recorded in the snapshot, if any.
    pub placement: Option<Placement>,
    /// Opaque extra bytes from the snapshot, verbatim.
    pub extra: Vec<u8>,
    /// What the WAL replay did.
    pub replay: ReplayReport,
    /// Why the on-disk WAL scan stopped early (torn/corrupt tail), if it did.
    pub wal_stop: Option<WalStop>,
    /// Length of the WAL's valid prefix; a resuming writer must truncate
    /// the log here before appending.
    pub wal_valid_len: u64,
    /// The delta-source position to resume from.
    pub source_position: u64,
}

// ---------------------------------------------------------------------------
// Little-endian field codecs.

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

// Readers of one field at a byte offset. Every caller has checked the
// bounds: the header length, or a section sized exactly by `cross_check`.

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn f64_at(bytes: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(bytes, at))
}

// ---------------------------------------------------------------------------
// Encode.

/// Serializes the scenario (plus an optional placement, the delta-source
/// position, and opaque `extra` bytes) into a self-contained snapshot.
///
/// # Errors
///
/// [`SnapshotError::UnsupportedUtility`] when the scenario's utility
/// function is not one of the paper's three named kinds.
pub fn encode_snapshot(
    scenario: &MutableScenario,
    placement: Option<&Placement>,
    source_position: u64,
    extra: &[u8],
) -> Result<Vec<u8>, SnapshotError> {
    let st = scenario.persisted_state();
    let graph = scenario.graph();
    let utility = scenario.utility_arc();
    let utility_kind = match utility.name() {
        "threshold" => 0u32,
        "linear" => 1,
        "sqrt" => 2,
        other => return Err(SnapshotError::UnsupportedUtility { name: other.into() }),
    };
    let path_nodes_total: u64 = st.flows.iter().map(|f| f.path_nodes.len() as u64).sum();
    let raps: &[NodeId] = placement.map(Placement::raps).unwrap_or(&[]);

    let mut meta = ByteWriter::new();
    meta.u64(st.epoch);
    meta.u64(st.next_stable);
    meta.u64(st.compactions);
    meta.f64(st.compact_ratio);
    meta.u64(source_position);
    meta.u64(graph.node_count() as u64);
    meta.u64(graph.edges().len() as u64);
    meta.u64(scenario.shops().len() as u64);
    meta.u64(st.flows.len() as u64);
    meta.u64(path_nodes_total);
    meta.u64(st.entries.len() as u64);
    meta.u64(st.overlay_entries.len() as u64);
    meta.u64(raps.len() as u64);
    meta.u64(extra.len() as u64);
    meta.u32(utility_kind);
    meta.u64(utility.threshold().feet());

    let mut points = ByteWriter::new();
    for v in 0..graph.node_count() {
        let p = graph.point(NodeId::new(v as u32));
        points.f64(p.x);
        points.f64(p.y);
    }

    let mut edges = ByteWriter::new();
    for e in graph.edges() {
        edges.u32(e.src.raw());
        edges.u32(e.dst.raw());
        edges.u64(e.length.feet());
    }

    let mut shops = ByteWriter::new();
    for s in scenario.shops() {
        shops.u32(s.raw());
    }

    let mut flows = ByteWriter::new();
    let mut paths = ByteWriter::new();
    for f in &st.flows {
        flows.u64(f.stable);
        flows.u32(f.origin.raw());
        flows.u32(f.destination.raw());
        flows.f64(f.volume);
        flows.f64(f.alpha);
        flows.u32(u32::from(f.live));
        flows.u32(f.path_nodes.len() as u32);
        flows.u64(f.path_length.feet());
        for node in &f.path_nodes {
            paths.u32(node.raw());
        }
    }

    let mut offsets = ByteWriter::new();
    for &o in &st.offsets {
        offsets.u32(o);
    }

    let mut entries = ByteWriter::new();
    for e in &st.entries {
        entries.u32(e.flow.raw());
        entries.u32(e.position);
        entries.u64(e.detour.feet());
    }

    let mut overlay_offsets = ByteWriter::new();
    for &o in &st.overlay_offsets {
        overlay_offsets.u32(o);
    }

    let mut overlay = ByteWriter::new();
    for e in &st.overlay_entries {
        overlay.u32(e.flow.raw());
        overlay.u32(e.position);
        overlay.u64(e.detour.feet());
    }

    let mut placement_sec = ByteWriter::new();
    for r in raps {
        placement_sec.u32(r.raw());
    }

    let sections: Vec<(u32, Vec<u8>)> = vec![
        (SEC_META, meta.buf),
        (SEC_POINTS, points.buf),
        (SEC_EDGES, edges.buf),
        (SEC_SHOPS, shops.buf),
        (SEC_FLOWS, flows.buf),
        (SEC_PATHS, paths.buf),
        (SEC_OFFSETS, offsets.buf),
        (SEC_ENTRIES, entries.buf),
        (SEC_OVERLAY_OFFSETS, overlay_offsets.buf),
        (SEC_OVERLAY, overlay.buf),
        (SEC_PLACEMENT, placement_sec.buf),
        (SEC_EXTRA, extra.to_vec()),
    ];

    let header_len = 16 + 24 * sections.len() + 4;
    let total: usize = header_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&crc32(bytes).to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        offset += bytes.len() as u64;
    }
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
    debug_assert_eq!(out.len(), total);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decode: one reader, one validator, two assemblers.
//
// `read_parts` parses every section and runs every check the assemblers
// rely on but one: the path-hop check of live flows (`check_live_hops`).
// `decode_snapshot` makes that check as its own pass; the serving decode
// gets it from `FlowSet::try_from_routed`, which looks up the same edges,
// in the same order, to build the first-visit index. Either way it runs
// last, so both decoders accept the same bytes and fail with the same
// error.

/// `a(x) · b(x) mod p(x)` over the reflected polynomial (zlib's
/// `multmodp`): bit 31 holds `x^0`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `x^(2^k) mod p(x)` for `k` in `0..32` (zlib's `x2n_table`).
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// `x^(n · 2^k) mod p(x)` (zlib's `x2nmodp`): one table product per set
/// bit of `n`.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()` (zlib's
/// `crc32_combine`), in `O(32 · log len)` without touching the bytes: a
/// snapshot's file CRC is its per-section checksums folded together.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Appending `len_b` bytes multiplies `a`'s register by x^(8 · len_b).
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

/// Parses and checksums the header, the directory and every section,
/// returning the directory and the whole file's CRC32, folded from the
/// checksums just verified. Performs every structural check that does not
/// require interpreting section contents.
fn parse_sections(bytes: &[u8]) -> Result<(Vec<SectionInfo>, u32), SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated {
            expected: 16,
            found: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32_at(bytes, 8);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = u32_at(bytes, 12);
    if count as usize != SECTION_IDS.len() {
        return Err(SnapshotError::HeaderCorrupt {
            detail: format!(
                "version {VERSION} has {} sections, header claims {count}",
                SECTION_IDS.len()
            ),
        });
    }
    let header_len = 16 + 24 * count as usize + 4;
    if bytes.len() < header_len {
        return Err(SnapshotError::Truncated {
            expected: header_len as u64,
            found: bytes.len() as u64,
        });
    }
    let stored_crc = u32_at(bytes, header_len - 4);
    let header_crc = crc32(&bytes[..header_len - 4]);
    if header_crc != stored_crc {
        return Err(SnapshotError::HeaderChecksum);
    }
    let mut file_crc = crc32_combine(header_crc, crc32(&bytes[header_len - 4..header_len]), 4);
    let mut sections = Vec::with_capacity(count as usize);
    let mut expected_offset = header_len as u64;
    for (i, &want_id) in SECTION_IDS.iter().enumerate() {
        let at = 16 + 24 * i;
        let id = u32_at(bytes, at);
        let crc = u32_at(bytes, at + 4);
        let offset = u64_at(bytes, at + 8);
        let len = u64_at(bytes, at + 16);
        if id != want_id {
            return Err(SnapshotError::HeaderCorrupt {
                detail: format!("directory slot {i} holds section id {id}, expected {want_id}"),
            });
        }
        if offset != expected_offset {
            return Err(SnapshotError::HeaderCorrupt {
                detail: format!(
                    "section `{}` at offset {offset}, expected {expected_offset} (sections must be sequential)",
                    section_name(id)
                ),
            });
        }
        let end = offset
            .checked_add(len)
            .ok_or(SnapshotError::HeaderCorrupt {
                detail: format!("section `{}` length overflows", section_name(id)),
            })?;
        if end > bytes.len() as u64 {
            return Err(SnapshotError::Truncated {
                expected: end,
                found: bytes.len() as u64,
            });
        }
        let section = SectionInfo {
            id,
            name: section_name(id),
            offset,
            len,
            crc32: crc,
        };
        if crc32(&bytes[section.range()]) != crc {
            return Err(SnapshotError::SectionChecksum {
                section: section.name,
            });
        }
        file_crc = crc32_combine(file_crc, crc, len);
        sections.push(section);
        expected_offset = end;
    }
    if expected_offset != bytes.len() as u64 {
        return Err(SnapshotError::Truncated {
            expected: expected_offset,
            found: bytes.len() as u64,
        });
    }
    Ok((sections, file_crc))
}

/// Rewrites every section checksum in the directory, then the header
/// checksum, trusting the directory's offsets and lengths. Backs
/// [`crate::fixtures::reseal_snapshot`].
pub(crate) fn reseal(bytes: &mut [u8]) {
    let header_len = 16 + 24 * SECTION_IDS.len() + 4;
    for i in 0..SECTION_IDS.len() {
        let at = 16 + 24 * i;
        let offset = u64_at(bytes, at + 8) as usize;
        let len = u64_at(bytes, at + 16) as usize;
        let crc = crc32(&bytes[offset..offset + len]);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
    let crc = crc32(&bytes[..header_len - 4]);
    bytes[header_len - 4..header_len].copy_from_slice(&crc.to_le_bytes());
}

/// One row of a snapshot's section directory, as validated and returned in
/// [`SnapshotInfo::sections`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id as stored in the directory.
    pub id: u32,
    /// Human-readable section name.
    pub name: &'static str,
    /// Byte offset of the section payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 of the payload, as pinned by the directory.
    pub crc32: u32,
}

impl SectionInfo {
    /// The payload's byte range; `parse_sections` checked it lies in the
    /// file.
    fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// CRC32 of an entire snapshot file: a cheap identity tag for "which bytes
/// am I serving" (reported by the serving layer's `/metrics`). Not stored
/// in the file itself — the per-section CRCs in the directory cover it,
/// and the decoders and [`verify_snapshot`] fold this value from them
/// instead of hashing the file again. This function is the reference they
/// are tested against.
#[must_use]
pub fn snapshot_crc32(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

struct Meta {
    epoch: u64,
    next_stable: u64,
    compactions: u64,
    compact_ratio: f64,
    source_position: u64,
    node_count: u64,
    edge_count: u64,
    shop_count: u64,
    flow_count: u64,
    path_nodes_total: u64,
    entry_count: u64,
    overlay_count: u64,
    placement_len: u64,
    extra_len: u64,
    utility_kind: u32,
    threshold_feet: u64,
}

/// Byte length of the META section: fourteen `u64` fields, the utility
/// kind (`u32`) and the threshold (`u64`), in `encode_snapshot`'s order.
const META_LEN: usize = 14 * 8 + 4 + 8;

fn parse_meta(bytes: &[u8]) -> Result<Meta, SnapshotError> {
    if bytes.len() != META_LEN {
        return Err(SnapshotError::Malformed {
            section: "meta",
            detail: format!("{} bytes, the layout has {META_LEN}", bytes.len()),
        });
    }
    let field = |i: usize| u64_at(bytes, 8 * i);
    let meta = Meta {
        epoch: field(0),
        next_stable: field(1),
        compactions: field(2),
        compact_ratio: f64::from_bits(field(3)),
        source_position: field(4),
        node_count: field(5),
        edge_count: field(6),
        shop_count: field(7),
        flow_count: field(8),
        path_nodes_total: field(9),
        entry_count: field(10),
        overlay_count: field(11),
        placement_len: field(12),
        extra_len: field(13),
        utility_kind: u32_at(bytes, 14 * 8),
        threshold_feet: u64_at(bytes, 14 * 8 + 4),
    };
    if meta.utility_kind > 2 {
        return Err(SnapshotError::Malformed {
            section: "meta",
            detail: format!("unknown utility kind {}", meta.utility_kind),
        });
    }
    if meta.threshold_feet == 0 {
        return Err(SnapshotError::Malformed {
            section: "meta",
            detail: "zero detour threshold".into(),
        });
    }
    Ok(meta)
}

/// Checks that a section's byte length equals `count × record` exactly.
fn check_section_len(id: u32, len: u64, count: u64, record: u64) -> Result<(), SnapshotError> {
    let want = count.checked_mul(record).ok_or(SnapshotError::Malformed {
        section: section_name(id),
        detail: "record count overflows".into(),
    })?;
    if len != want {
        return Err(SnapshotError::Malformed {
            section: section_name(id),
            detail: format!("{count} records need {want} bytes, section holds {len}"),
        });
    }
    Ok(())
}

fn cross_check(meta: &Meta, sections: &[SectionInfo]) -> Result<(), SnapshotError> {
    for s in sections {
        let (id, len) = (s.id, s.len);
        match id {
            SEC_META => {}
            SEC_POINTS => check_section_len(id, len, meta.node_count, 16)?,
            SEC_EDGES => check_section_len(id, len, meta.edge_count, 16)?,
            SEC_SHOPS => check_section_len(id, len, meta.shop_count, 4)?,
            SEC_FLOWS => check_section_len(id, len, meta.flow_count, 48)?,
            SEC_PATHS => check_section_len(id, len, meta.path_nodes_total, 4)?,
            SEC_OFFSETS | SEC_OVERLAY_OFFSETS => {
                check_section_len(id, len, meta.node_count + 1, 4)?
            }
            SEC_ENTRIES => check_section_len(id, len, meta.entry_count, 16)?,
            SEC_OVERLAY => check_section_len(id, len, meta.overlay_count, 16)?,
            SEC_PLACEMENT => check_section_len(id, len, meta.placement_len, 4)?,
            SEC_EXTRA => check_section_len(id, len, meta.extra_len, 1)?,
            _ => unreachable!("parse_sections admits known ids only"),
        }
    }
    Ok(())
}

/// The checksummed directory, the meta section and the folded file CRC:
/// everything [`verify_snapshot`] reports and the reader starts from.
fn parse_header(bytes: &[u8]) -> Result<(Vec<SectionInfo>, Meta, u32), SnapshotError> {
    let (sections, file_crc) = parse_sections(bytes)?;
    let meta = parse_meta(&bytes[sections[0].range()])?;
    cross_check(&meta, &sections)?;
    Ok((sections, meta, file_crc))
}

/// Validates checksums and structure without rebuilding the scenario — no
/// graph construction, no Dijkstra runs. This is `rap snapshot verify` and
/// `rap snapshot info`; the file CRC it reports is folded from the section
/// checksums, so the file is hashed once.
///
/// # Errors
///
/// Any [`SnapshotError`] the full decode would raise at the header or
/// section-shape level.
pub fn verify_snapshot(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let (sections, meta, file_crc32) = parse_header(bytes)?;
    Ok(SnapshotInfo {
        version: VERSION,
        file_len: bytes.len() as u64,
        file_crc32,
        epoch: meta.epoch,
        compactions: meta.compactions,
        next_stable: meta.next_stable,
        source_position: meta.source_position,
        node_count: meta.node_count,
        edge_count: meta.edge_count,
        shop_count: meta.shop_count,
        flow_count: meta.flow_count,
        entry_count: meta.entry_count,
        overlay_count: meta.overlay_count,
        placement_len: meta.placement_len,
        extra_len: meta.extra_len,
        utility: match meta.utility_kind {
            0 => "threshold",
            1 => "linear",
            _ => "sqrt",
        },
        threshold_feet: meta.threshold_feet,
        sections,
    })
}

/// A snapshot's sections, read and validated: what both assemblers start
/// from.
struct Parts<'a> {
    graph: RoadGraph,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    state: PersistedState,
    placement: Option<Placement>,
    source_position: u64,
    extra: &'a [u8],
    file_crc: u32,
}

/// The one reader: parses every section and runs the validator
/// ([`validate_state`]), leaving only [`check_live_hops`] to the caller.
/// Sections are read as fixed-size records, which `cross_check` sized
/// exactly.
fn read_parts(bytes: &[u8]) -> Result<Parts<'_>, SnapshotError> {
    let (sections, meta, file_crc) = parse_header(bytes)?;
    let sec = |id: u32| &bytes[sections[id as usize - 1].range()];

    // Graph: nodes then edges, in stored order — `GraphBuilder::build` is a
    // deterministic counting sort, so the rebuilt CSR is identical to the
    // saved graph's.
    let node_count = meta.node_count as usize;
    let mut builder = GraphBuilder::with_capacity(node_count, meta.edge_count as usize);
    for p in sec(SEC_POINTS).chunks_exact(16) {
        builder.add_node(Point::new(f64_at(p, 0), f64_at(p, 8)));
    }
    for (i, e) in sec(SEC_EDGES).chunks_exact(16).enumerate() {
        let (src, dst) = (NodeId::new(u32_at(e, 0)), NodeId::new(u32_at(e, 4)));
        builder
            .add_edge(src, dst, Distance::from_feet(u64_at(e, 8)))
            .map_err(|err| SnapshotError::Malformed {
                section: "edges",
                detail: format!("edge {i}: {err}"),
            })?;
    }
    let graph: RoadGraph = builder.build();

    let shops: Vec<NodeId> = sec(SEC_SHOPS)
        .chunks_exact(4)
        .map(|c| NodeId::new(u32_at(c, 0)))
        .collect();

    // Flow records plus their concatenated paths. A record's path length
    // is checked against the bytes left before anything is allocated.
    let paths = sec(SEC_PATHS);
    let mut path_at = 0usize;
    let mut flows = Vec::with_capacity(meta.flow_count as usize);
    for (i, r) in sec(SEC_FLOWS).chunks_exact(48).enumerate() {
        let live = match u32_at(r, 32) {
            0 => false,
            1 => true,
            other => {
                return Err(SnapshotError::Malformed {
                    section: "flows",
                    detail: format!("flow #{i} live flag is {other}"),
                })
            }
        };
        let path_end = (u32_at(r, 36) as usize)
            .checked_mul(4)
            .and_then(|len| path_at.checked_add(len))
            .filter(|&end| end <= paths.len())
            .ok_or_else(|| SnapshotError::Malformed {
                section: "paths",
                detail: format!("flow #{i} path runs past the end of the section"),
            })?;
        let path_nodes = paths[path_at..path_end]
            .chunks_exact(4)
            .map(|c| NodeId::new(u32_at(c, 0)))
            .collect();
        path_at = path_end;
        flows.push(PersistedFlow {
            stable: u64_at(r, 0),
            origin: NodeId::new(u32_at(r, 8)),
            destination: NodeId::new(u32_at(r, 12)),
            volume: f64_at(r, 16),
            alpha: f64_at(r, 24),
            live,
            path_nodes,
            path_length: Distance::from_feet(u64_at(r, 40)),
        });
    }
    if path_at != paths.len() {
        return Err(SnapshotError::Malformed {
            section: "paths",
            detail: format!(
                "{} bytes follow the last flow's path",
                paths.len() - path_at
            ),
        });
    }

    let u32s = |id: u32| -> Vec<u32> { sec(id).chunks_exact(4).map(|c| u32_at(c, 0)).collect() };
    let detours = |id: u32| -> Vec<FlowDetour> {
        sec(id)
            .chunks_exact(16)
            .map(|c| FlowDetour {
                flow: FlowId::new(u32_at(c, 0)),
                position: u32_at(c, 4),
                detour: Distance::from_feet(u64_at(c, 8)),
            })
            .collect()
    };
    let offsets = u32s(SEC_OFFSETS);
    let overlay_offsets = u32s(SEC_OVERLAY_OFFSETS);
    let entries = detours(SEC_ENTRIES);
    let overlay_entries = detours(SEC_OVERLAY);

    let mut raps = Vec::with_capacity(meta.placement_len as usize);
    for c in sec(SEC_PLACEMENT).chunks_exact(4) {
        let node = NodeId::new(u32_at(c, 0));
        if node.index() >= node_count {
            return Err(SnapshotError::Malformed {
                section: "placement",
                detail: format!("{node} is outside the graph"),
            });
        }
        raps.push(node);
    }
    let placement = (!raps.is_empty()).then(|| Placement::new(raps));

    let utility = match meta.utility_kind {
        0 => UtilityKind::Threshold,
        1 => UtilityKind::Linear,
        _ => UtilityKind::Sqrt,
    }
    .instantiate(Distance::from_feet(meta.threshold_feet));

    let state = PersistedState {
        epoch: meta.epoch,
        next_stable: meta.next_stable,
        compactions: meta.compactions,
        compact_ratio: meta.compact_ratio,
        flows,
        offsets,
        entries,
        overlay_offsets,
        overlay_entries,
    };
    validate_state(&graph, &shops, &state)?;
    Ok(Parts {
        graph,
        shops,
        utility,
        state,
        placement,
        source_position: meta.source_position,
        extra: sec(SEC_EXTRA),
        file_crc,
    })
}

/// A violated scenario invariant, as the validator reports it.
fn invalid(detail: String) -> SnapshotError {
    SnapshotError::Malformed {
        section: "state",
        detail,
    }
}

/// The validator: every invariant of the persisted state that the section
/// shapes do not already guarantee and that the assemblers rely on — shops
/// and path nodes inside the graph, well-formed CSRs, entries naming known
/// flows, and for live flows a valid volume and `α`, distinct stable ids
/// and distinct endpoints. Its last check, the path hops of live flows, is
/// [`check_live_hops`].
fn validate_state(
    graph: &RoadGraph,
    shops: &[NodeId],
    st: &PersistedState,
) -> Result<(), SnapshotError> {
    let n = graph.node_count();
    if shops.is_empty() {
        return Err(invalid("shop list is empty".into()));
    }
    for &s in shops {
        if !graph.contains_node(s) {
            return Err(invalid(format!("shop {s} is outside the graph")));
        }
    }
    check_csr(&st.offsets, n, st.entries.len(), "base")?;
    check_csr(&st.overlay_offsets, n, st.overlay_entries.len(), "overlay")?;
    if !(0.0..=1.0).contains(&st.compact_ratio) {
        return Err(invalid(format!(
            "compact ratio {} outside [0, 1]",
            st.compact_ratio
        )));
    }

    // Tombstones keep their parameters (their values are zeroed, never
    // read), but every path must still be in-bounds.
    let mut live_stable = HashSet::new();
    for (i, pf) in st.flows.iter().enumerate() {
        if pf.stable >= st.next_stable {
            return Err(invalid(format!(
                "flow #{} stable id {} is not below next_stable {}",
                i, pf.stable, st.next_stable
            )));
        }
        if pf.path_nodes.is_empty() {
            return Err(invalid(format!("flow #{i} has an empty path")));
        }
        for &node in &pf.path_nodes {
            if !graph.contains_node(node) {
                return Err(invalid(format!(
                    "flow #{i} path visits {node} outside the graph"
                )));
            }
        }
        if pf.path_nodes.first() != Some(&pf.origin)
            || pf.path_nodes.last() != Some(&pf.destination)
        {
            return Err(invalid(format!(
                "flow #{i} path does not span origin → destination"
            )));
        }
        if pf.live {
            if !pf.volume.is_finite() || pf.volume <= 0.0 {
                return Err(invalid(format!(
                    "flow #{} volume {} is invalid",
                    i, pf.volume
                )));
            }
            if !pf.alpha.is_finite() || !(0.0..=1.0).contains(&pf.alpha) {
                return Err(invalid(format!(
                    "flow #{} alpha {} is invalid",
                    i, pf.alpha
                )));
            }
            if pf.origin == pf.destination {
                return Err(invalid(format!(
                    "live flow #{i} starts and ends at {}",
                    pf.origin
                )));
            }
            if !live_stable.insert(pf.stable) {
                return Err(invalid(format!("duplicate live stable id {}", pf.stable)));
            }
        }
    }
    for (i, e) in st.entries.iter().enumerate() {
        if e.flow.index() >= st.flows.len() {
            return Err(invalid(format!(
                "base entry {i} names unknown flow {}",
                e.flow
            )));
        }
    }
    for (i, e) in st.overlay_entries.iter().enumerate() {
        if e.flow.index() >= st.flows.len() {
            return Err(invalid(format!(
                "overlay entry {i} names unknown flow {}",
                e.flow
            )));
        }
    }
    Ok(())
}

/// CSR shape validation shared by the base and overlay tables.
fn check_csr(offsets: &[u32], n: usize, entries: usize, what: &str) -> Result<(), SnapshotError> {
    if offsets.len() != n + 1 {
        return Err(invalid(format!(
            "{} CSR has {} offsets for {} nodes",
            what,
            offsets.len(),
            n
        )));
    }
    if offsets[0] != 0 {
        return Err(invalid(format!("{what} CSR does not start at 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid(format!("{what} CSR offsets decrease")));
    }
    if offsets[n] as usize != entries {
        return Err(invalid(format!(
            "{} CSR ends at {} but holds {} entries",
            what, offsets[n], entries
        )));
    }
    Ok(())
}

/// The validator's last check: every hop of a live flow's path is an edge
/// of the graph, or the first-visit index cannot be built. Tombstones are
/// never indexed. The serving decode makes this check inside
/// [`rap_traffic::FlowSet::try_from_routed`], which visits the hops in this
/// order.
fn check_live_hops(graph: &RoadGraph, flows: &[PersistedFlow]) -> Result<(), SnapshotError> {
    for pf in flows.iter().filter(|pf| pf.live) {
        for hop in pf.path_nodes.windows(2) {
            if graph.edge_length(hop[0], hop[1]).is_none() {
                return Err(hop_error(hop[0], hop[1]));
            }
        }
    }
    Ok(())
}

fn hop_error(from: NodeId, to: NodeId) -> SnapshotError {
    invalid(format!(
        "a live flow's path hops {from} → {to}, which no edge connects"
    ))
}

/// Decodes a snapshot into a live [`MutableScenario`] (sequential derived-
/// state rebuild).
///
/// # Errors
///
/// Any [`SnapshotError`]; never panics on corrupt input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotContents, SnapshotError> {
    decode_snapshot_with_threads(bytes, 1)
}

/// [`decode_snapshot`] with the per-shop Dijkstra rebuild fanned across
/// `threads` workers (bit-identical result — distances are exact integers).
///
/// This is the decode a stream resume needs: the mutable state with its
/// overlay rows, tombstones and per-shop trees. A server needs only the
/// immutable scenario; [`decode_serving_snapshot`] builds that directly.
///
/// # Errors
///
/// Any [`SnapshotError`]; never panics on corrupt input.
pub fn decode_snapshot_with_threads(
    bytes: &[u8],
    threads: usize,
) -> Result<SnapshotContents, SnapshotError> {
    let parts = read_parts(bytes)?;
    check_live_hops(&parts.graph, &parts.state.flows)?;
    let scenario = MutableScenario::from_persisted(
        parts.graph,
        parts.shops,
        parts.utility,
        threads,
        parts.state,
    );
    Ok(SnapshotContents {
        scenario,
        placement: parts.placement,
        source_position: parts.source_position,
        extra: parts.extra.to_vec(),
    })
}

/// A snapshot decoded for serving, from [`decode_serving_snapshot`].
#[derive(Debug)]
pub struct ServingSnapshot {
    /// The immutable scenario of the live flows: field for field and bit
    /// for bit, `decode_snapshot(bytes)?.scenario.snapshot()`.
    pub scenario: Scenario,
    /// The placement recorded at save time, if one was.
    pub placement: Option<Placement>,
    /// The scenario's delta epoch at save time.
    pub scenario_epoch: u64,
    /// Live (non-tombstoned) flows, the flows `scenario` holds.
    pub live_flows: usize,
    /// CRC32 of the whole file, equal to [`snapshot_crc32`] of its bytes,
    /// folded from the section checksums the decode verified.
    pub file_crc32: u32,
}

/// Decodes a snapshot straight to the immutable [`Scenario`] a server
/// answers from, with the same checks and the same errors as
/// [`decode_snapshot`], but none of the state only a stream resume needs:
///
/// - live flows become routed flows by moving their decoded paths, and
///   base and overlay rows merge per node under the live-id remap, by the
///   same code [`MutableScenario::snapshot`] runs;
/// - [`rap_traffic::FlowSet::try_from_routed`] indexes the flows' first
///   visits, and its edge lookups are the path-hop check;
/// - shop distances come from one reverse Dijkstra per shop, fanned across
///   `threads` workers; the forward trees only serve flow additions;
/// - entry values are computed once, by the scenario itself.
///
/// # Errors
///
/// Any [`SnapshotError`]; never panics on corrupt input.
pub fn decode_serving_snapshot(
    bytes: &[u8],
    threads: usize,
) -> Result<ServingSnapshot, SnapshotError> {
    let Parts {
        graph,
        shops,
        utility,
        state: st,
        placement,
        file_crc,
        ..
    } = read_parts(bytes)?;
    let to_shop = crate::detour::shop_distances(&graph, &shops, threads);
    let flows = st.flows.into_iter().map(|pf| {
        pf.live.then(|| {
            let path = Path::from_parts_unchecked(pf.path_nodes, pf.path_length);
            (
                live_spec(pf.origin, pf.destination, pf.volume, pf.alpha),
                path,
            )
        })
    });
    let scenario = live_scenario(
        graph,
        shops,
        utility,
        flows,
        (&st.offsets, &st.entries),
        |v| {
            let row = st.overlay_offsets[v] as usize..st.overlay_offsets[v + 1] as usize;
            st.overlay_entries[row].iter().copied()
        },
        to_shop,
    )
    .map_err(|e| match e {
        TrafficError::Graph(GraphError::Unreachable { from, to }) => hop_error(from, to),
        other => invalid(other.to_string()),
    })?;
    Ok(ServingSnapshot {
        live_flows: scenario.flows().len(),
        scenario,
        placement,
        scenario_epoch: st.epoch,
        file_crc32: file_crc,
    })
}

// ---------------------------------------------------------------------------
// Files.

/// Writes a snapshot atomically: the bytes go to a `.tmp` sibling which is
/// fsynced and then renamed over `path`, so a crash at any point leaves
/// either the old snapshot or the new one, never a torn mix. The
/// [`FaultPlan`] disk script is consulted for the write (op 0) and fsync
/// (op 0), letting tests model a crash mid-write: the torn bytes stay in
/// the `.tmp` file and the published snapshot is untouched.
///
/// # Errors
///
/// Any I/O failure, including injected ones.
pub fn write_snapshot_atomic(
    path: &std::path::Path,
    bytes: &[u8],
    faults: &FaultPlan,
) -> Result<(), SnapshotError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    let mut owned;
    let mut payload = bytes;
    match faults.disk_write_fault(0) {
        Some(DiskFault::TornWrite { keep_bytes }) => {
            let keep = (keep_bytes as usize).min(bytes.len());
            file.write_all(&bytes[..keep])?;
            let _ = file.sync_all();
            return Err(SnapshotError::Io(std::io::Error::other(format!(
                "injected torn write: {keep} of {} bytes persisted",
                bytes.len()
            ))));
        }
        Some(DiskFault::BitFlip { byte_offset }) if !bytes.is_empty() => {
            owned = bytes.to_vec();
            let i = (byte_offset % bytes.len() as u64) as usize;
            owned[i] ^= 0x01;
            payload = &owned;
        }
        _ => {}
    }
    file.write_all(payload)?;
    if faults.disk_fsync_fails(0) {
        return Err(SnapshotError::Io(std::io::Error::other(
            "injected fsync failure",
        )));
    }
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it; failure
    // to sync the directory is not fatal (the data file is already synced).
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads a snapshot file, applying any scripted short-read fault (read
/// op 0) — the injected equivalent of a file that lost its tail.
///
/// # Errors
///
/// Any I/O failure from reading the file.
pub fn read_snapshot_file(
    path: &std::path::Path,
    faults: &FaultPlan,
) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = std::fs::read(path)?;
    if let Some(DiskFault::ShortRead { keep_bytes }) = faults.disk_read_fault(0) {
        bytes.truncate(keep_bytes as usize);
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Recovery.

/// Restores a scenario from a snapshot plus a write-ahead log: decodes the
/// snapshot, scans the log's valid prefix ([`wal::read_wal`]), skips
/// records a newer snapshot already covers, and replays the rest. Stops
/// cleanly at the first torn or corrupt record — the recovered scenario is
/// bit-identical to the original at the moment the last whole record was
/// logged.
///
/// # Errors
///
/// Any [`SnapshotError`] from the snapshot decode. WAL damage is *not* an
/// error: it bounds the replay and is reported in [`Restored::wal_stop`] /
/// [`Restored::replay`].
pub fn restore(snapshot: &[u8], wal_bytes: &[u8]) -> Result<Restored, SnapshotError> {
    restore_with_threads(snapshot, wal_bytes, 1)
}

/// [`restore`] with a threaded derived-state rebuild.
///
/// # Errors
///
/// Same contract as [`restore`].
pub fn restore_with_threads(
    snapshot: &[u8],
    wal_bytes: &[u8],
    threads: usize,
) -> Result<Restored, SnapshotError> {
    let contents = decode_snapshot_with_threads(snapshot, threads)?;
    let scan = wal::read_wal(wal_bytes);
    let mut scenario = contents.scenario;
    let replay = wal::replay(&mut scenario, &scan.records, contents.source_position);
    let source_position = replay.next_source_index;
    Ok(Restored {
        scenario,
        placement: contents.placement,
        extra: contents.extra,
        replay,
        wal_stop: scan.stop,
        wal_valid_len: scan.valid_len,
        source_position,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutable::FlowDelta;
    use crate::utility::UtilityFunction;
    use rap_graph::GridGraph;
    use rap_traffic::{FlowSet, FlowSpec};
    use std::sync::Arc;

    fn substrate() -> (RoadGraph, Vec<NodeId>, Arc<dyn UtilityFunction>) {
        let grid = GridGraph::new(4, 4, Distance::from_feet(100));
        (
            grid.graph().clone(),
            vec![NodeId::new(5)],
            UtilityKind::Linear.instantiate(Distance::from_feet(600)),
        )
    }

    fn scenario() -> MutableScenario {
        let (graph, shops, utility) = substrate();
        let specs = vec![
            FlowSpec::new(NodeId::new(0), NodeId::new(15), 800.0)
                .unwrap()
                .with_attractiveness(0.1)
                .unwrap(),
            FlowSpec::new(NodeId::new(12), NodeId::new(3), 400.0)
                .unwrap()
                .with_attractiveness(0.05)
                .unwrap(),
        ];
        let flows = FlowSet::route(&graph, specs).unwrap();
        MutableScenario::new(graph, flows, shops, utility).unwrap()
    }

    /// A scenario with overlay entries, tombstones, and an epoch history.
    fn dirty_scenario() -> MutableScenario {
        let mut m = scenario().with_compact_ratio(1.0);
        m.apply(&FlowDelta::AddFlow {
            origin: NodeId::new(2),
            destination: NodeId::new(13),
            volume: 650.0,
            alpha: 0.2,
        })
        .unwrap();
        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        m.apply(&FlowDelta::RescaleFlow {
            flow: 0,
            factor: 1.7,
        })
        .unwrap();
        m
    }

    fn assert_same_state(a: &mut MutableScenario, b: &mut MutableScenario) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.compactions(), b.compactions());
        assert_eq!(a.next_stable_id(), b.next_stable_id());
        assert_eq!(a.live_stable_ids(), b.live_stable_ids());
        assert_eq!(a.total_entries(), b.total_entries());
        assert_eq!(a.dead_entries(), b.dead_entries());
        let sa = a.snapshot();
        let sb = b.snapshot();
        for v in 0..sa.graph().node_count() {
            let node = NodeId::new(v as u32);
            assert_eq!(sa.entries_at(node), sb.entries_at(node));
            let (af, av) = sa.value_entries_at(node);
            let (bf, bv) = sb.value_entries_at(node);
            assert_eq!(af, bf);
            let a_bits: Vec<u64> = av.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u64> = bv.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "values at {node}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);

        // The slice-by-8 kernel agrees with a plain byte-at-a-time walk at
        // every alignment and remainder length.
        fn reference(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let buf: Vec<u8> = (0..603u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 601, 602, 603] {
            assert_eq!(crc32(&buf[..len]), reference(&buf[..len]), "len {len}");
        }
        for start in 0..9 {
            assert_eq!(
                crc32(&buf[start..]),
                reference(&buf[start..]),
                "start {start}"
            );
        }
    }

    proptest::proptest! {
        /// Folding the pieces' CRCs with `crc32_combine` gives the CRC of
        /// their concatenation, for any cut (empty pieces included).
        #[test]
        fn folded_crc_equals_the_whole_crc(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
            cuts in proptest::collection::vec(0usize..601, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut folded = crc32(&[]);
            for piece in cuts.windows(2) {
                let piece = &bytes[piece[0]..piece[1]];
                folded = crc32_combine(folded, crc32(piece), piece.len() as u64);
            }
            proptest::prop_assert_eq!(folded, snapshot_crc32(&bytes));
        }
    }

    #[test]
    fn folded_crc_handles_long_pieces() {
        // Lengths with high bits set walk the whole x^(2^k) table.
        let a = b"snapshot header";
        let b = vec![0xA5u8; (1 << 20) + 7];
        let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
        assert_eq!(
            crc32_combine(crc32(a), crc32(&b), b.len() as u64),
            crc32(&whole)
        );
    }

    #[test]
    fn roundtrip_preserves_exact_state() {
        let mut m = dirty_scenario();
        let bytes = encode_snapshot(&m, None, 3, b"opaque").unwrap();
        let mut loaded = decode_snapshot(&bytes).unwrap();
        assert_eq!(loaded.source_position, 3);
        assert_eq!(loaded.extra, b"opaque");
        assert!(loaded.placement.is_none());
        assert_same_state(&mut m, &mut loaded.scenario);
        // The restored scenario keeps evolving identically.
        let delta = FlowDelta::SetAlpha {
            flow: 2,
            alpha: 0.01,
        };
        m.apply(&delta).unwrap();
        loaded.scenario.apply(&delta).unwrap();
        assert_same_state(&mut m, &mut loaded.scenario);
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let m = dirty_scenario();
        let placement = Placement::new(vec![NodeId::new(5), NodeId::new(9)]);
        let bytes = encode_snapshot(&m, Some(&placement), 7, b"x").unwrap();
        let loaded = decode_snapshot(&bytes).unwrap();
        let again = encode_snapshot(&loaded.scenario, loaded.placement.as_ref(), 7, b"x").unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn section_directory_reports_every_section() {
        let m = dirty_scenario();
        let bytes = encode_snapshot(&m, None, 0, b"tail").unwrap();
        let info = verify_snapshot(&bytes).unwrap();
        assert_eq!(info.file_crc32, snapshot_crc32(&bytes));
        let dir = info.sections;
        assert_eq!(dir.len(), SECTION_IDS.len());
        assert_eq!(dir[0].name, "meta");
        assert_eq!(dir.last().unwrap().name, "extra");
        assert_eq!(dir.last().unwrap().len, 4);
        // Sections tile the file exactly: sequential, ending at EOF.
        let header_len = 16 + 24 * SECTION_IDS.len() + 4;
        let mut expected = header_len as u64;
        for s in &dir {
            assert_eq!(s.offset, expected, "section `{}`", s.name);
            let range = s.offset as usize..(s.offset + s.len) as usize;
            assert_eq!(s.crc32, crc32(&bytes[range]), "section `{}`", s.name);
            expected += s.len;
        }
        assert_eq!(expected, bytes.len() as u64);
        // Corruption in any section is caught before a directory is returned.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert!(matches!(
            verify_snapshot(&bad),
            Err(SnapshotError::SectionChecksum { section: "extra" })
        ));
        assert_ne!(snapshot_crc32(&bad), snapshot_crc32(&bytes));
    }

    #[test]
    fn placement_roundtrips() {
        let m = scenario();
        let placement = Placement::new(vec![NodeId::new(1), NodeId::new(14)]);
        let bytes = encode_snapshot(&m, Some(&placement), 0, &[]).unwrap();
        let loaded = decode_snapshot(&bytes).unwrap();
        assert_eq!(loaded.placement.as_ref(), Some(&placement));
    }

    #[test]
    fn verify_reports_header_facts_without_rebuilding() {
        let m = dirty_scenario();
        let bytes = encode_snapshot(&m, None, 11, b"abc").unwrap();
        let info = verify_snapshot(&bytes).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.epoch, m.epoch());
        assert_eq!(info.node_count, 16);
        assert_eq!(info.flow_count, 3);
        assert_eq!(info.source_position, 11);
        assert_eq!(info.extra_len, 3);
        assert_eq!(info.utility, "linear");
        assert_eq!(info.threshold_feet, 600);
        assert_eq!(info.file_len, bytes.len() as u64);
    }

    #[test]
    fn typed_errors_for_classic_damage() {
        let bytes = encode_snapshot(&scenario(), None, 0, &[]).unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::BadMagic)
        ));

        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));

        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));

        assert!(matches!(
            decode_snapshot(&bytes[..4]),
            Err(SnapshotError::Truncated { .. })
        ));

        // Flip one byte of the meta section: its checksum must catch it.
        let mut bad = bytes.clone();
        let header_len = 16 + 24 * SECTION_IDS.len() + 4;
        bad[header_len] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::SectionChecksum { section: "meta" })
        ));

        // Flip one header byte: header checksum (or a structural check).
        let mut bad = bytes.clone();
        bad[13] ^= 0xFF;
        assert!(decode_snapshot(&bad).is_err());

        // Trailing garbage is a length mismatch, not silently ignored.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn atomic_write_and_read_roundtrip() {
        let m = scenario();
        let bytes = encode_snapshot(&m, None, 0, &[]).unwrap();
        let path = std::env::temp_dir().join("rap_snapshot_atomic_test.snap");
        write_snapshot_atomic(&path, &bytes, &FaultPlan::none()).unwrap();
        let read = read_snapshot_file(&path, &FaultPlan::none()).unwrap();
        assert_eq!(read, bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_snapshot_write_never_publishes() {
        let m = scenario();
        let bytes = encode_snapshot(&m, None, 0, &[]).unwrap();
        let path = std::env::temp_dir().join("rap_snapshot_torn_test.snap");
        let _ = std::fs::remove_file(&path);
        // First write tears mid-file: the target path must not appear.
        let err = write_snapshot_atomic(&path, &bytes, &FaultPlan::torn_write(0, 100)).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(!path.exists(), "torn write must not publish the snapshot");
        // A clean retry succeeds over the leftover temp file.
        write_snapshot_atomic(&path, &bytes, &FaultPlan::none()).unwrap();
        assert_eq!(
            read_snapshot_file(&path, &FaultPlan::none()).unwrap(),
            bytes
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn bit_flipped_snapshot_write_is_caught_at_load() {
        let m = scenario();
        let bytes = encode_snapshot(&m, None, 0, &[]).unwrap();
        let path = std::env::temp_dir().join("rap_snapshot_flip_test.snap");
        write_snapshot_atomic(&path, &bytes, &FaultPlan::bit_flip(0, 2000)).unwrap();
        let read = read_snapshot_file(&path, &FaultPlan::none()).unwrap();
        assert!(decode_snapshot(&read).is_err(), "silent flip must not load");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_read_is_a_typed_truncation() {
        let m = scenario();
        let bytes = encode_snapshot(&m, None, 0, &[]).unwrap();
        let path = std::env::temp_dir().join("rap_snapshot_short_test.snap");
        write_snapshot_atomic(&path, &bytes, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::none().with_disk_event(0, DiskFault::ShortRead { keep_bytes: 64 });
        let read = read_snapshot_file(&path, &plan).unwrap();
        assert_eq!(read.len(), 64);
        assert!(matches!(
            decode_snapshot(&read),
            Err(SnapshotError::Truncated { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_replays_the_wal_suffix_bit_identically() {
        use crate::wal::{encode_record, WalOp};
        // Reference run: 5 deltas applied in memory, never crashed.
        let deltas = [
            FlowDelta::AddFlow {
                origin: NodeId::new(2),
                destination: NodeId::new(13),
                volume: 650.0,
                alpha: 0.2,
            },
            FlowDelta::RescaleFlow {
                flow: 0,
                factor: 1.3,
            },
            FlowDelta::RemoveFlow { flow: 1 },
            FlowDelta::SetAlpha {
                flow: 2,
                alpha: 0.4,
            },
            FlowDelta::RescaleFlow {
                flow: 2,
                factor: 0.5,
            },
        ];
        let mut reference = scenario();
        for d in &deltas {
            reference.apply(d).unwrap();
        }
        // Crashed run: snapshot after 2 deltas, WAL holds all 5 (the first
        // two are skipped by position), process dies before delta 6.
        let mut crashed = scenario();
        let mut log = Vec::new();
        for (i, d) in deltas.iter().enumerate() {
            log.extend_from_slice(&encode_record(crashed.epoch(), i as u64, &WalOp::Delta(*d)));
            crashed.apply(d).unwrap();
            if i == 1 {
                // snapshot rotation happens here; WAL not truncated (crash
                // between rename and truncate is the worst case).
            }
        }
        let mut after_two = scenario();
        after_two.apply(&deltas[0]).unwrap();
        after_two.apply(&deltas[1]).unwrap();
        let snap = encode_snapshot(&after_two, None, 2, &[]).unwrap();
        let mut restored = restore(&snap, &log).unwrap();
        assert!(restored.wal_stop.is_none());
        assert_eq!(restored.replay.applied, 3);
        assert_eq!(restored.replay.skipped, 2);
        assert_eq!(restored.source_position, 5);
        assert_same_state(&mut reference, &mut restored.scenario);
    }

    #[test]
    fn restore_stops_cleanly_at_a_torn_wal_tail() {
        use crate::wal::{encode_record, WalOp, WalStopReason};
        let mut m = scenario();
        let snap = encode_snapshot(&m, None, 0, &[]).unwrap();
        let d0 = FlowDelta::RescaleFlow {
            flow: 0,
            factor: 2.0,
        };
        let d1 = FlowDelta::RemoveFlow { flow: 1 };
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(m.epoch(), 0, &WalOp::Delta(d0)));
        m.apply(&d0).unwrap();
        let rec2 = encode_record(m.epoch(), 1, &WalOp::Delta(d1));
        log.extend_from_slice(&rec2[..rec2.len() - 3]); // torn mid-write
        let mut restored = restore(&snap, &log).unwrap();
        assert_eq!(restored.replay.applied, 1);
        assert_eq!(
            restored.wal_stop.map(|s| s.reason),
            Some(WalStopReason::TornPayload)
        );
        assert_eq!(restored.source_position, 1);
        // Only d0 made it: the recovered state equals the 1-delta run.
        let mut reference = scenario();
        reference.apply(&d0).unwrap();
        assert_same_state(&mut reference, &mut restored.scenario);
    }

    #[test]
    fn restore_rejects_a_foreign_wal() {
        use crate::wal::{encode_record, WalOp, WalStopReason};
        let m = scenario();
        let snap = encode_snapshot(&m, None, 0, &[]).unwrap();
        // A record claiming epoch 40 cannot continue an epoch-0 snapshot.
        let log = encode_record(40, 0, &WalOp::Compact);
        let restored = restore(&snap, &log).unwrap();
        assert_eq!(restored.replay.applied, 0);
        assert_eq!(
            restored.replay.stop.map(|s| s.reason),
            Some(WalStopReason::EpochMismatch)
        );
    }

    #[test]
    fn restore_replays_rejections_deterministically() {
        use crate::wal::{encode_record, WalOp};
        let mut m = scenario();
        let snap = encode_snapshot(&m, None, 0, &[]).unwrap();
        let bad = FlowDelta::RemoveFlow { flow: 999 };
        let good = FlowDelta::RescaleFlow {
            flow: 0,
            factor: 3.0,
        };
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(m.epoch(), 0, &WalOp::Delta(bad)));
        assert!(m.apply(&bad).is_err()); // epoch unchanged
        log.extend_from_slice(&encode_record(m.epoch(), 1, &WalOp::Delta(good)));
        m.apply(&good).unwrap();
        let mut restored = restore(&snap, &log).unwrap();
        assert_eq!(restored.replay.rejected, 1);
        assert_eq!(restored.replay.applied, 1);
        assert_same_state(&mut m, &mut restored.scenario);
    }

    #[test]
    fn unsupported_utility_fails_at_save_not_load() {
        #[derive(Debug)]
        struct Custom;
        impl UtilityFunction for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn threshold(&self) -> Distance {
                Distance::from_feet(100)
            }
            fn probability(&self, _d: Distance, alpha: f64) -> f64 {
                alpha
            }
        }
        let (graph, shops, _) = substrate();
        let flows = FlowSet::route(&graph, vec![]).unwrap();
        let m = MutableScenario::new(graph, flows, shops, Arc::new(Custom)).unwrap();
        assert!(matches!(
            encode_snapshot(&m, None, 0, &[]),
            Err(SnapshotError::UnsupportedUtility { .. })
        ));
    }
}
