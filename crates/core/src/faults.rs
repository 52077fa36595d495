//! Deterministic disk-fault injection for the persistence layer.
//!
//! A [`FaultPlan`] is a fully deterministic script of storage
//! faults — torn writes, silent bit flips, failed `fsync`s and short reads —
//! that the snapshot writer/reader ([`crate::snapshot`]) and the WAL
//! ([`crate::wal`]) consult on every I/O operation. Production callers pass
//! [`FaultPlan::none`]; the crash-recovery tests script a plan and assert
//! that every fault surfaces as a typed error or a checksum rejection,
//! never as silently wrong state.

/// An injectable storage fault, modelling what real disks and kernels do to
/// persistence layers: a crash mid-`write` leaves a prefix (torn write), a
/// cosmic ray or firmware bug flips a bit without any I/O error (silent
/// corruption), `fsync` reports failure, and a read returns fewer bytes than
/// the file should hold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskFault {
    /// The write persists only the first `keep_bytes` bytes, then fails —
    /// the on-disk record is torn exactly there.
    TornWrite {
        /// Bytes of the attempted write that reach the medium.
        keep_bytes: u64,
    },
    /// The write succeeds but one byte is flipped in flight; no error is
    /// reported (only checksums can catch this).
    BitFlip {
        /// Offset of the corrupted byte within the written buffer
        /// (wrapped modulo the buffer length).
        byte_offset: u64,
    },
    /// `fsync` fails; previously written data may or may not be durable.
    FsyncFail,
    /// The read yields only the first `keep_bytes` bytes of the file.
    ShortRead {
        /// Bytes of the file the read returns.
        keep_bytes: u64,
    },
}

/// One scripted disk fault, addressed by the 0-based index of the I/O
/// operation (write, fsync, or read — each category counts independently)
/// within the writer or reader consulting the plan.
#[derive(Clone, Copy, Debug)]
pub struct DiskFaultEvent {
    /// 0-based index of the I/O operation the fault fires at.
    pub op_index: u64,
    /// The fault to inject.
    pub fault: DiskFault,
}

/// A deterministic script of disk faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    disk_events: Vec<DiskFaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds one scripted disk fault (builder style).
    #[must_use]
    pub fn with_disk_event(mut self, op_index: u64, fault: DiskFault) -> Self {
        self.disk_events.push(DiskFaultEvent { op_index, fault });
        self
    }

    /// A plan whose `op_index`-th write is torn after `keep_bytes` bytes.
    pub fn torn_write(op_index: u64, keep_bytes: u64) -> Self {
        FaultPlan::none().with_disk_event(op_index, DiskFault::TornWrite { keep_bytes })
    }

    /// A plan whose `op_index`-th write silently flips the byte at
    /// `byte_offset` (modulo the buffer length).
    pub fn bit_flip(op_index: u64, byte_offset: u64) -> Self {
        FaultPlan::none().with_disk_event(op_index, DiskFault::BitFlip { byte_offset })
    }

    /// True when the plan scripts no disk faults.
    pub fn disk_is_empty(&self) -> bool {
        self.disk_events.is_empty()
    }

    /// The write-corrupting fault (torn write or bit flip), if any, scripted
    /// for the `op_index`-th write operation.
    pub fn disk_write_fault(&self, op_index: u64) -> Option<DiskFault> {
        self.disk_events
            .iter()
            .find(|e| {
                e.op_index == op_index
                    && matches!(
                        e.fault,
                        DiskFault::TornWrite { .. } | DiskFault::BitFlip { .. }
                    )
            })
            .map(|e| e.fault)
    }

    /// Whether the `op_index`-th fsync operation is scripted to fail.
    pub fn disk_fsync_fails(&self, op_index: u64) -> bool {
        self.disk_events
            .iter()
            .any(|e| e.op_index == op_index && e.fault == DiskFault::FsyncFail)
    }

    /// The short-read fault, if any, scripted for the `op_index`-th read
    /// operation.
    pub fn disk_read_fault(&self, op_index: u64) -> Option<DiskFault> {
        self.disk_events
            .iter()
            .find(|e| e.op_index == op_index && matches!(e.fault, DiskFault::ShortRead { .. }))
            .map(|e| e.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_faults_address_independent_op_counters() {
        let plan = FaultPlan::none()
            .with_disk_event(2, DiskFault::TornWrite { keep_bytes: 7 })
            .with_disk_event(2, DiskFault::FsyncFail)
            .with_disk_event(0, DiskFault::ShortRead { keep_bytes: 16 })
            .with_disk_event(3, DiskFault::BitFlip { byte_offset: 5 });
        assert!(!plan.disk_is_empty());
        assert!(FaultPlan::none().disk_is_empty());
        assert_eq!(
            plan.disk_write_fault(2),
            Some(DiskFault::TornWrite { keep_bytes: 7 })
        );
        assert_eq!(
            plan.disk_write_fault(3),
            Some(DiskFault::BitFlip { byte_offset: 5 })
        );
        assert_eq!(
            plan.disk_write_fault(0),
            None,
            "short reads never tear writes"
        );
        assert!(plan.disk_fsync_fails(2));
        assert!(!plan.disk_fsync_fails(0));
        assert_eq!(
            plan.disk_read_fault(0),
            Some(DiskFault::ShortRead { keep_bytes: 16 })
        );
        assert_eq!(plan.disk_read_fault(2), None);
    }
}
