//! The write-pipeline staging buffer (group commit).
//!
//! Every flush trigger drains the dirty set into framed [`LogEntry`]s and
//! marks each block staged; one `commit` appends a batch to the HDD log.
//! At `group_commit_depth = 1` the trigger commits its batch at once and
//! this buffer stays empty. Above 1, triggers file their entries here, and
//! every `depth`-th trigger (or any barrier / eviction demand) commits the
//! whole buffer as **one** sequential multi-entry log append — the group
//! commit. Staged entries are keyed by the monotonic flush tickets of
//! [`FlushProgress`], so callers can ask "is my write durable yet?"
//! ([`FlushProgress::is_completed`]) and wait on exactly the commit that
//! covers it.
//!
//! The buffer also serves read-your-writes: a staged block's delta is
//! re-installable from RAM without a device operation (see
//! `Icash::fetch_staged_delta`), so a read between stage and commit never
//! pays a log fetch for data the controller still holds.

use crate::delta_log::LogEntry;
use icash_delta::codec::Delta;
use icash_storage::block::Lba;
use icash_storage::hash::AddrMap;
use icash_storage::pipeline::{FlushProgress, Ticket};

/// One encoded-but-uncommitted delta awaiting group commit.
#[derive(Debug, Clone)]
pub(crate) struct StagedEntry {
    /// The framed log entry, ready for `DeltaLog::append`.
    pub entry: LogEntry,
    /// The write-acceptance watermark at stage time: once the commit that
    /// drains this entry completes, every ticket up to this one is durable.
    pub ticket: Ticket,
}

/// Encoded-but-unflushed deltas between the encode and commit stages of the
/// write pipeline, in stage order. Superseded entries are invalidated in
/// place (their slot becomes `None`) so commit order stays append order.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    entries: Vec<Option<StagedEntry>>,
    by_lba: AddrMap<Lba, usize>,
    live: usize,
    bytes: u64,
    batches: u64,
    /// Reserve/complete ticket watermarks for the barrier API.
    pub progress: FlushProgress,
}

impl Staging {
    /// An empty staging buffer.
    pub fn new() -> Self {
        Staging::default()
    }

    /// Live (not superseded) staged entries.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Encoded payload bytes currently staged (live entries only).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush triggers staged since the last commit (at least one entry each).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Stages `entry` under `ticket`. A live entry for the same LBA is
    /// replaced in place (the newer delta supersedes it).
    pub fn push(&mut self, lba: Lba, entry: LogEntry, ticket: Ticket) {
        let bytes = entry.payload_len() as u64;
        let staged = StagedEntry { entry, ticket };
        if let Some(&slot) = self.by_lba.get(&lba) {
            if let Some(old) = self.entries[slot].replace(staged) {
                self.bytes -= old.entry.payload_len() as u64;
            } else {
                self.live += 1;
            }
            self.bytes += bytes;
            return;
        }
        self.by_lba.insert(lba, self.entries.len());
        self.entries.push(Some(staged));
        self.live += 1;
        self.bytes += bytes;
    }

    /// The staged delta for `lba`, if live (read-your-writes).
    pub fn get(&self, lba: Lba) -> Option<&Delta> {
        let &slot = self.by_lba.get(&lba)?;
        self.entries[slot].as_ref()?.entry.delta()
    }

    /// Invalidates the staged entry for `lba` (a newer write superseded it
    /// before commit). The slot stays so commit order is stable.
    pub fn invalidate(&mut self, lba: Lba) {
        if let Some(slot) = self.by_lba.remove(&lba) {
            if let Some(old) = self.entries[slot].take() {
                self.live -= 1;
                self.bytes -= old.entry.payload_len() as u64;
            }
        }
    }

    /// Marks the end of one staged flush trigger (counted toward the
    /// group-commit depth only if the buffer holds anything).
    pub fn finish_batch(&mut self) {
        if self.live > 0 {
            self.batches += 1;
        }
    }

    /// Drains every live entry in stage order, resetting the buffer (the
    /// ticket watermarks are untouched — completing them is the committing
    /// caller's job). Returns the staged entries and their payload bytes.
    pub fn drain(&mut self) -> (Vec<StagedEntry>, u64) {
        let bytes = self.bytes;
        let entries: Vec<StagedEntry> = self.entries.drain(..).flatten().collect();
        self.by_lba.clear();
        self.live = 0;
        self.bytes = 0;
        self.batches = 0;
        (entries, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_delta::codec::DeltaCodec;

    fn entry(lba: u64, tweak: u8) -> LogEntry {
        let reference = vec![0u8; 4096];
        let mut target = reference.clone();
        target[7] = tweak;
        let delta = DeltaCodec::default().encode(&reference, &target);
        LogEntry::new(Lba::new(lba), Lba::new(lba), u64::from(tweak) + 1, delta)
    }

    #[test]
    fn push_lookup_drain_roundtrip() {
        let mut s = Staging::new();
        assert_eq!(s.live(), 0);
        let t = s.progress.reserve();
        s.push(Lba::new(1), entry(1, 1), t);
        s.push(Lba::new(2), entry(2, 2), t);
        s.finish_batch();
        assert_eq!(s.live(), 2);
        assert_eq!(s.batches(), 1);
        assert!(s.get(Lba::new(1)).is_some());
        assert!(s.get(Lba::new(9)).is_none());
        let (entries, bytes) = s.drain();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.ticket == t));
        assert!(bytes > 0);
        assert_eq!(s.live(), 0);
        assert_eq!(s.batches(), 0);
    }

    #[test]
    fn replace_in_place_keeps_stage_order() {
        let mut s = Staging::new();
        let t = s.progress.reserve();
        s.push(Lba::new(5), entry(5, 1), t);
        s.push(Lba::new(6), entry(6, 2), t);
        s.push(Lba::new(5), entry(5, 3), t);
        assert_eq!(s.live(), 2);
        let (entries, _) = s.drain();
        assert_eq!(entries[0].entry.lba, Lba::new(5));
        assert_eq!(
            entries[0].entry.generation, 4,
            "newer delta replaced in place"
        );
        assert_eq!(entries[1].entry.lba, Lba::new(6));
    }

    #[test]
    fn invalidate_removes_without_reordering() {
        let mut s = Staging::new();
        let t = s.progress.reserve();
        s.push(Lba::new(1), entry(1, 1), t);
        s.push(Lba::new(2), entry(2, 2), t);
        s.invalidate(Lba::new(1));
        assert_eq!(s.live(), 1);
        assert!(s.get(Lba::new(1)).is_none());
        let (entries, _) = s.drain();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].entry.lba, Lba::new(2));
    }

    #[test]
    fn empty_batches_do_not_count_toward_depth() {
        let mut s = Staging::new();
        s.finish_batch();
        assert_eq!(s.batches(), 0);
    }
}
