//! Write-ahead log for streaming traffic deltas: the record codec and the
//! writer. Recovery policy — which records to replay and whether a log
//! continues a snapshot — lives with the stream that replays them
//! (`rap_stream::persist`).
//!
//! Each consumed stream item — applied, rejected, or a forced compaction —
//! is appended as one length-prefixed, CRC32-checksummed binary record
//! *before* it is applied, so a crash at any instruction boundary loses at
//! most the record being written. A record carries:
//!
//! * `seq` — the scenario epoch immediately before the item was processed,
//!   which lets recovery detect a log that does not continue the state it
//!   resumes from;
//! * `source_index` — the 0-based position of the item in the delta source,
//!   which lets recovery resume the source exactly where the crashed
//!   process stopped (and skip records already covered by a newer
//!   snapshot when the crash landed between snapshot rotation and WAL
//!   truncation);
//! * the operation itself, encoded with `f64::to_bits` so replayed values
//!   are bit-identical to the originals.
//!
//! [`read_wal`] never fails: it returns every record of the longest valid
//! prefix plus a [`WalStop`] describing why scanning stopped (torn header,
//! torn payload, checksum mismatch, …). Anything after the first bad byte
//! is unreachable by construction — records are only trusted whole.
//!
//! Durability is governed by [`FsyncPolicy`]: `Always` fsyncs after every
//! record (no applied delta can be lost), `EveryN(n)` bounds the loss
//! window to `n` records, `Never` leaves flushing to the OS. The
//! [`WalWriter`] consults the [`FaultPlan`] disk-fault script on every
//! write and fsync, so torn writes, silent bit flips, and fsync failures
//! are injectable deterministically in tests.

use crate::faults::{DiskFault, FaultPlan};
use crate::mutable::FlowDelta;
use rap_graph::NodeId;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Records larger than this are rejected as implausible during scanning
/// (the largest real payload is 41 bytes), so a corrupt length prefix can
/// not make recovery mis-trust megabytes of garbage as one record.
pub const MAX_RECORD_LEN: u32 = 1024;

/// One loggable operation: a traffic delta or a forced compaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalOp {
    /// A flow mutation, exactly as the scenario applies it.
    Delta(FlowDelta),
    /// A forced compaction control op.
    Compact,
}

/// One decoded WAL record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalRecord {
    /// Scenario epoch immediately before the item was processed.
    pub seq: u64,
    /// 0-based position of the item in the delta source.
    pub source_index: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Why a WAL scan stopped before the end of the bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalStopReason {
    /// Fewer than 8 bytes remained: the length/CRC header itself is torn.
    TornHeader,
    /// The length prefix is zero or beyond [`MAX_RECORD_LEN`].
    BadLength,
    /// The payload extends past the end of the log: torn mid-record.
    TornPayload,
    /// The payload's CRC32 does not match its header.
    Checksum,
    /// The checksummed payload does not decode to a known operation — the
    /// writer and reader disagree about the format.
    BadPayload,
}

impl std::fmt::Display for WalStopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            WalStopReason::TornHeader => "torn record header",
            WalStopReason::BadLength => "implausible record length",
            WalStopReason::TornPayload => "torn record payload",
            WalStopReason::Checksum => "record checksum mismatch",
            WalStopReason::BadPayload => "undecodable record payload",
        };
        f.write_str(what)
    }
}

/// Where and why a WAL scan stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalStop {
    /// Byte offset of the first untrusted frame.
    pub offset: u64,
    /// What was wrong with it.
    pub reason: WalStopReason,
}

/// The result of scanning a log: the longest valid record prefix.
#[derive(Clone, Debug)]
pub struct WalScan {
    /// Every record of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Why scanning stopped, or `None` at a clean end of log.
    pub stop: Option<WalStop>,
    /// Bytes of the log covered by valid records; a writer resuming this
    /// log must truncate to this length first, or new records would land
    /// after garbage and be unreachable.
    pub valid_len: u64,
}

/// When the write-ahead log reaches the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: no applied delta is ever lost.
    Always,
    /// `fsync` after every `n` appended records: at most `n` records of
    /// loss window, a fraction of the fsync cost. `EveryN(0)` is `Never`.
    EveryN(u64),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

const OP_ADD: u8 = 0;
const OP_REMOVE: u8 = 1;
const OP_RESCALE: u8 = 2;
const OP_SET_ALPHA: u8 = 3;
const OP_COMPACT: u8 = 4;

/// Encodes one record as its on-disk frame: `len u32 | crc u32 | payload`.
pub fn encode_record(seq: u64, source_index: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&source_index.to_le_bytes());
    match *op {
        WalOp::Delta(FlowDelta::AddFlow {
            origin,
            destination,
            volume,
            alpha,
        }) => {
            payload.push(OP_ADD);
            payload.extend_from_slice(&origin.raw().to_le_bytes());
            payload.extend_from_slice(&destination.raw().to_le_bytes());
            payload.extend_from_slice(&volume.to_bits().to_le_bytes());
            payload.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
        WalOp::Delta(FlowDelta::RemoveFlow { flow }) => {
            payload.push(OP_REMOVE);
            payload.extend_from_slice(&flow.to_le_bytes());
        }
        WalOp::Delta(FlowDelta::RescaleFlow { flow, factor }) => {
            payload.push(OP_RESCALE);
            payload.extend_from_slice(&flow.to_le_bytes());
            payload.extend_from_slice(&factor.to_bits().to_le_bytes());
        }
        WalOp::Delta(FlowDelta::SetAlpha { flow, alpha }) => {
            payload.push(OP_SET_ALPHA);
            payload.extend_from_slice(&flow.to_le_bytes());
            payload.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
        WalOp::Compact => payload.push(OP_COMPACT),
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crate::snapshot::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> Option<(u64, u64, WalOp)> {
    if payload.len() < 17 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let source_index = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let body = &payload[17..];
    let u32_at = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
    let u64_at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
    let op = match payload[16] {
        OP_ADD if body.len() == 24 => WalOp::Delta(FlowDelta::AddFlow {
            origin: NodeId::new(u32_at(body, 0)),
            destination: NodeId::new(u32_at(body, 4)),
            volume: f64::from_bits(u64_at(body, 8)),
            alpha: f64::from_bits(u64_at(body, 16)),
        }),
        OP_REMOVE if body.len() == 8 => WalOp::Delta(FlowDelta::RemoveFlow {
            flow: u64_at(body, 0),
        }),
        OP_RESCALE if body.len() == 16 => WalOp::Delta(FlowDelta::RescaleFlow {
            flow: u64_at(body, 0),
            factor: f64::from_bits(u64_at(body, 8)),
        }),
        OP_SET_ALPHA if body.len() == 16 => WalOp::Delta(FlowDelta::SetAlpha {
            flow: u64_at(body, 0),
            alpha: f64::from_bits(u64_at(body, 8)),
        }),
        OP_COMPACT if body.is_empty() => WalOp::Compact,
        _ => return None,
    };
    Some((seq, source_index, op))
}

/// Scans a log and returns its longest valid record prefix. Never fails:
/// corruption anywhere — torn frames, flipped bits, garbage lengths —
/// terminates the scan cleanly at the last whole, checksummed record.
pub fn read_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let stop = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break None;
        }
        let offset = pos as u64;
        if remaining < 8 {
            break Some(WalStop {
                offset,
                reason: WalStopReason::TornHeader,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_LEN {
            break Some(WalStop {
                offset,
                reason: WalStopReason::BadLength,
            });
        }
        if len as usize > remaining - 8 {
            break Some(WalStop {
                offset,
                reason: WalStopReason::TornPayload,
            });
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crate::snapshot::crc32(payload) != crc {
            break Some(WalStop {
                offset,
                reason: WalStopReason::Checksum,
            });
        }
        let Some((seq, source_index, op)) = decode_payload(payload) else {
            break Some(WalStop {
                offset,
                reason: WalStopReason::BadPayload,
            });
        };
        records.push(WalRecord {
            seq,
            source_index,
            op,
        });
        pos += 8 + len as usize;
    };
    WalScan {
        records,
        stop,
        valid_len: pos as u64,
    }
}

/// Appends checksummed records to a log file under a configurable fsync
/// policy, consulting a [`FaultPlan`] disk script on every write and fsync.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    /// Appends since the last fsync.
    pending: u64,
    /// 0-based write-operation counter, the address disk write faults key on.
    write_ops: u64,
    /// 0-based fsync-operation counter for fsync faults.
    fsync_ops: u64,
    faults: FaultPlan,
}

impl WalWriter {
    /// Creates (or truncates) a log at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the file.
    pub fn create(path: &Path, policy: FsyncPolicy) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(WalWriter::from_file(file, policy))
    }

    /// Opens an existing log for appending after recovery, first truncating
    /// it to `valid_len` — the valid-prefix length [`read_wal`] reported —
    /// so new records continue the trusted prefix rather than landing after
    /// a torn tail.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening, truncating, or seeking the file.
    pub fn open_truncated(path: &Path, valid_len: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut writer = WalWriter::from_file(file, policy);
        writer.file.seek(SeekFrom::Start(valid_len))?;
        Ok(writer)
    }

    fn from_file(file: File, policy: FsyncPolicy) -> Self {
        WalWriter {
            file,
            policy,
            pending: 0,
            write_ops: 0,
            fsync_ops: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Installs a disk-fault script (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Appends one record and applies the fsync policy.
    ///
    /// # Errors
    ///
    /// I/O failures, including injected torn writes and fsync failures. An
    /// injected bit flip is *silent* by design — the call succeeds and only
    /// [`read_wal`]'s checksum can expose it.
    pub fn append(&mut self, seq: u64, source_index: u64, op: &WalOp) -> io::Result<()> {
        let mut frame = encode_record(seq, source_index, op);
        let op_index = self.write_ops;
        self.write_ops += 1;
        match self.faults.disk_write_fault(op_index) {
            Some(DiskFault::TornWrite { keep_bytes }) => {
                let keep = (keep_bytes as usize).min(frame.len());
                self.file.write_all(&frame[..keep])?;
                let _ = self.file.sync_data();
                return Err(io::Error::other(format!(
                    "injected torn write: {keep} of {} bytes persisted",
                    frame.len()
                )));
            }
            Some(DiskFault::BitFlip { byte_offset }) => {
                let i = (byte_offset % frame.len() as u64) as usize;
                frame[i] ^= 0x01;
            }
            _ => {}
        }
        self.file.write_all(&frame)?;
        self.pending += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) if n > 0 && self.pending >= n => self.sync(),
            FsyncPolicy::EveryN(_) | FsyncPolicy::Never => Ok(()),
        }
    }

    /// Forces written records to disk.
    ///
    /// # Errors
    ///
    /// The underlying `fsync` failure, or an injected one.
    pub fn sync(&mut self) -> io::Result<()> {
        let op_index = self.fsync_ops;
        self.fsync_ops += 1;
        self.pending = 0;
        if self.faults.disk_fsync_fails(op_index) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.file.sync_data()
    }

    /// Empties the log after a successful snapshot rotation: everything it
    /// recorded is now covered by the snapshot.
    ///
    /// # Errors
    ///
    /// Any I/O error from truncating or syncing the file.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample_ops() -> Vec<(u64, u64, WalOp)> {
        vec![
            (
                0,
                0,
                WalOp::Delta(FlowDelta::AddFlow {
                    origin: NodeId::new(3),
                    destination: NodeId::new(9),
                    volume: 123.456,
                    alpha: 0.25,
                }),
            ),
            (1, 1, WalOp::Delta(FlowDelta::RemoveFlow { flow: 7 })),
            (
                2,
                2,
                WalOp::Delta(FlowDelta::RescaleFlow {
                    flow: 1,
                    factor: 1.5,
                }),
            ),
            (
                3,
                3,
                WalOp::Delta(FlowDelta::SetAlpha {
                    flow: 1,
                    alpha: 0.75,
                }),
            ),
            (4, 4, WalOp::Compact),
        ]
    }

    fn encoded_log() -> Vec<u8> {
        let mut log = Vec::new();
        for (seq, idx, op) in sample_ops() {
            log.extend_from_slice(&encode_record(seq, idx, &op));
        }
        log
    }

    #[test]
    fn every_op_roundtrips_bit_exactly() {
        let scan = read_wal(&encoded_log());
        assert!(scan.stop.is_none());
        assert_eq!(scan.valid_len as usize, encoded_log().len());
        let got: Vec<(u64, u64, WalOp)> = scan
            .records
            .iter()
            .map(|r| (r.seq, r.source_index, r.op))
            .collect();
        assert_eq!(got, sample_ops());
    }

    #[test]
    fn truncation_at_every_byte_stops_cleanly() {
        let log = encoded_log();
        let full = read_wal(&log).records.len();
        for cut in 0..log.len() {
            let scan = read_wal(&log[..cut]);
            // The valid prefix is exactly the records whose frames fit.
            assert!(scan.records.len() <= full);
            assert!(scan.valid_len as usize <= cut);
            if cut < log.len() {
                // Some truncations land exactly on a frame boundary (clean
                // stop), the rest report a torn header or payload.
                if scan.valid_len as usize != cut {
                    let stop = scan.stop.expect("mid-frame cut must report a stop");
                    assert!(matches!(
                        stop.reason,
                        WalStopReason::TornHeader | WalStopReason::TornPayload
                    ));
                    assert_eq!(stop.offset, scan.valid_len);
                }
            }
            // Records that did decode are untouched originals.
            for (rec, want) in scan.records.iter().zip(sample_ops()) {
                assert_eq!((rec.seq, rec.source_index, rec.op), want);
            }
        }
    }

    #[test]
    fn bit_flips_anywhere_never_yield_wrong_records() {
        let log = encoded_log();
        let originals = sample_ops();
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x40;
            let scan = read_wal(&bad);
            // Every surviving record must be one of the originals, in
            // order: corruption may shorten the prefix, never alter it.
            assert!(scan.records.len() <= originals.len());
            for (rec, want) in scan.records.iter().zip(&originals) {
                assert_eq!(
                    &(rec.seq, rec.source_index, rec.op),
                    want,
                    "flip at byte {i}"
                );
            }
        }
    }

    #[test]
    fn implausible_length_prefix_is_rejected() {
        let mut log = encoded_log();
        log[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let scan = read_wal(&log);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(
            scan.stop,
            Some(WalStop {
                offset: 0,
                reason: WalStopReason::BadLength
            })
        );
    }

    #[test]
    fn writer_appends_a_readable_log_and_truncates() {
        let dir = std::env::temp_dir();
        let path = dir.join("rap_wal_writer_test.wal");
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        for (seq, idx, op) in sample_ops() {
            w.append(seq, idx, &op).unwrap();
        }
        let scan = read_wal(&fs::read(&path).unwrap());
        assert!(scan.stop.is_none());
        assert_eq!(scan.records.len(), sample_ops().len());
        w.truncate().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn injected_torn_write_leaves_a_recoverable_prefix() {
        let dir = std::env::temp_dir();
        let path = dir.join("rap_wal_torn_test.wal");
        let mut w = WalWriter::create(&path, FsyncPolicy::Always)
            .unwrap()
            .with_faults(FaultPlan::torn_write(2, 5));
        let mut failed = 0;
        for (seq, idx, op) in sample_ops() {
            if w.append(seq, idx, &op).is_err() {
                failed += 1;
                break;
            }
        }
        assert_eq!(failed, 1, "the third write must tear");
        let scan = read_wal(&fs::read(&path).unwrap());
        assert_eq!(scan.records.len(), 2, "two whole records survive");
        assert_eq!(
            scan.stop.map(|s| s.reason),
            Some(WalStopReason::TornHeader),
            "5 torn bytes cannot form a header"
        );
        // Recovery truncates the torn tail and appending continues cleanly.
        let mut w = WalWriter::open_truncated(&path, scan.valid_len, FsyncPolicy::Always).unwrap();
        w.append(9, 9, &WalOp::Compact).unwrap();
        let scan = read_wal(&fs::read(&path).unwrap());
        assert!(scan.stop.is_none());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].op, WalOp::Compact);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_flip_is_silent_until_read() {
        let dir = std::env::temp_dir();
        let path = dir.join("rap_wal_flip_test.wal");
        let mut w = WalWriter::create(&path, FsyncPolicy::Never)
            .unwrap()
            .with_faults(FaultPlan::bit_flip(1, 20));
        for (seq, idx, op) in sample_ops() {
            w.append(seq, idx, &op).unwrap(); // no error: silent corruption
        }
        let scan = read_wal(&fs::read(&path).unwrap());
        assert_eq!(scan.records.len(), 1, "the flipped record stops the scan");
        assert_eq!(scan.stop.map(|s| s.reason), Some(WalStopReason::Checksum));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn injected_fsync_failure_surfaces_per_policy() {
        let dir = std::env::temp_dir();
        let path = dir.join("rap_wal_fsync_test.wal");
        let mut w = WalWriter::create(&path, FsyncPolicy::Always)
            .unwrap()
            .with_faults(FaultPlan::none().with_disk_event(1, DiskFault::FsyncFail));
        let ops = sample_ops();
        assert!(w.append(ops[0].0, ops[0].1, &ops[0].2).is_ok());
        let err = w.append(ops[1].0, ops[1].1, &ops[1].2).unwrap_err();
        assert!(err.to_string().contains("injected fsync"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let dir = std::env::temp_dir();
        let path = dir.join("rap_wal_everyn_test.wal");
        // Fsync op 0 is scripted to fail; with EveryN(3) the first two
        // appends must not sync at all, the third must.
        let mut w = WalWriter::create(&path, FsyncPolicy::EveryN(3))
            .unwrap()
            .with_faults(FaultPlan::none().with_disk_event(0, DiskFault::FsyncFail));
        let ops = sample_ops();
        assert!(w.append(ops[0].0, ops[0].1, &ops[0].2).is_ok());
        assert!(w.append(ops[1].0, ops[1].1, &ops[1].2).is_ok());
        assert!(w.append(ops[2].0, ops[2].1, &ops[2].2).is_err());
        let _ = fs::remove_file(&path);
    }
}
