//! The HDD-resident packed delta log (paper §3.1, §3.3).
//!
//! Dirty deltas accumulate in RAM and are periodically packed into 4 KB
//! *delta blocks* appended sequentially to the log region of the HDD. This
//! is where I-CASH's two headline effects come from:
//!
//! * **Writes**: many small deltas leave the controller in one sequential
//!   HDD operation instead of many random ones.
//! * **Reads**: fetching one delta block recovers *every* delta packed in
//!   it, so one random HDD read services a batch of future requests.
//!
//! The log is append-only; superseded entries become stale and are
//! reclaimed by [`DeltaLog::clean`], which compacts live entries to the
//! front (a simple log-structured cleaner in the spirit of the paper's
//! cited log-disk designs).

use icash_delta::codec::{Delta, Encoding};
use icash_storage::block::{Lba, BLOCK_SIZE};
use icash_storage::fault::{crc32_shift, Crc32};
use icash_storage::hash::AddrMap;
use std::cell::Cell;

thread_local! {
    /// Keeps every payload the log would release (this thread's logs
    /// only): the lockstep oracle for the release rule, which must change
    /// no read, live or recovered.
    #[doc(hidden)]
    pub static KEEP_PAYLOADS: Cell<bool> = const { Cell::new(false) };
}

/// One delta stored in the log: which block it patches, which reference it
/// decodes against, and the patch itself. Entries are self-describing so
/// crash recovery (paper §3.3) can rebuild the block table by unrolling the
/// log against the SSD's reference blocks.
///
/// Each entry is CRC32-framed and stamped with the controller's monotonic
/// generation counter. Recovery uses the checksum to detect torn/corrupt
/// frames (truncating the log at the first bad one) and the generation to
/// refuse stale entries for a block whose slot-directory record is newer —
/// a reused SSD slot must never resurrect old data.
///
/// An entry no read and no recovery can reach any more gives up its
/// payload ([`DeltaLog`]'s release rule) and keeps its framing: the length
/// and encoding tag it packs with, and the payload's checksum, so its
/// header still verifies. Only [`LogEntry::delta`] hands out the payload.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The logical block this delta reconstructs.
    pub lba: Lba,
    /// The reference block the delta decodes against; equal to `lba` for a
    /// written reference block's own delta.
    pub reference: Lba,
    /// Monotonic stamp ordering this entry against the slot directory.
    pub generation: u64,
    /// CRC32 over the framed fields and the delta payload.
    pub crc: u32,
    payload: Payload,
}

/// What an entry keeps of its delta.
#[derive(Debug, Clone)]
enum Payload {
    Held(Delta),
    /// Released: the tag and length it is framed with, and the CRC32 of the
    /// bytes that are gone.
    Released {
        encoding: Encoding,
        len: u32,
        crc: u32,
    },
}

impl LogEntry {
    /// Frames an entry: the CRC is computed over the addressing fields, the
    /// generation, the encoding tag, and the delta payload.
    pub fn new(lba: Lba, reference: Lba, generation: u64, delta: Delta) -> Self {
        let mut c = Self::header_crc(lba, reference, generation, delta.encoding());
        c.update(delta.payload());
        LogEntry {
            lba,
            reference,
            generation,
            crc: c.finish(),
            payload: Payload::Held(delta),
        }
    }

    /// The running checksum over everything framed before the payload.
    fn header_crc(lba: Lba, reference: Lba, generation: u64, encoding: Encoding) -> Crc32 {
        let mut c = Crc32::new();
        c.update(&lba.raw().to_le_bytes());
        c.update(&reference.raw().to_le_bytes());
        c.update(&generation.to_le_bytes());
        c.update(&[encoding as u8]);
        c
    }

    /// The delta, unless the log has released it.
    pub fn delta(&self) -> Option<&Delta> {
        match &self.payload {
            Payload::Held(delta) => Some(delta),
            Payload::Released { .. } => None,
        }
    }

    /// The payload's encoding tag.
    fn encoding(&self) -> Encoding {
        match &self.payload {
            Payload::Held(delta) => delta.encoding(),
            &Payload::Released { encoding, .. } => encoding,
        }
    }

    /// The payload's length in bytes, held or released.
    pub fn payload_len(&self) -> usize {
        match &self.payload {
            Payload::Held(delta) => delta.len(),
            &Payload::Released { len, .. } => len as usize,
        }
    }

    /// Whether the stored CRC matches the entry's content (a torn or
    /// corrupted frame fails this). A released entry checks its header
    /// against the payload checksum it kept: CRC32 is linear, so the
    /// frame's checksum is the header's carried past the payload length,
    /// XOR the payload's.
    pub fn verify(&self) -> bool {
        let header = Self::header_crc(self.lba, self.reference, self.generation, self.encoding());
        match &self.payload {
            Payload::Held(delta) => {
                let mut c = header;
                c.update(delta.payload());
                self.crc == c.finish()
            }
            &Payload::Released { len, crc, .. } => {
                self.crc == crc32_shift(header.finish(), len as usize) ^ crc
            }
        }
    }

    /// Drops the payload, keeping its checksum — derived from the frame's,
    /// with no pass over the bytes. Returns the bytes released.
    fn release(&mut self) -> usize {
        let Payload::Held(delta) = &self.payload else {
            return 0;
        };
        let (encoding, len) = (delta.encoding(), delta.len());
        let header = Self::header_crc(self.lba, self.reference, self.generation, encoding);
        self.payload = Payload::Released {
            encoding,
            len: len as u32,
            crc: self.crc ^ crc32_shift(header.finish(), len),
        };
        len
    }

    /// On-disk size of this entry: LBA varint + reference varint + length
    /// varint + encoding tag + payload.
    ///
    /// The generation stamp and frame CRC ride inside the per-entry header
    /// allowance this formula already budgets; keeping the formula unchanged
    /// keeps packing density — and with it every timing and flush count the
    /// experiment tables pin — identical to the unframed layout.
    pub fn wire_len(&self) -> usize {
        let len = self.payload_len();
        varint_len(self.lba.raw())
            + varint_len(self.reference.raw())
            + varint_len(len as u64)
            + 1
            + len
    }
}

fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// A packed 4 KB delta block.
#[derive(Debug, Clone, Default)]
pub struct PackedBlock {
    /// Entries packed into this block, in pack order.
    pub entries: Vec<LogEntry>,
    /// Bytes used (≤ 4096).
    pub bytes: usize,
    /// Whether a crash tore the write of this block (its tail — and
    /// therefore its entry checksums — cannot be trusted).
    pub torn: bool,
}

/// Result of appending dirty deltas: where they landed and what to write.
#[derive(Debug, Clone)]
pub struct AppendReport {
    /// Log-block id assigned to each appended entry, in input order.
    pub entry_locs: Vec<u32>,
    /// First log-block offset written (relative to the log region).
    pub first_block: u64,
    /// Number of consecutive log blocks written.
    pub blocks_written: u32,
}

/// The append-only packed delta log.
///
/// # Releasing payloads
///
/// The log keeps an entry's payload only while a read or a recovery can
/// reach it. A crash tears at most the last append no barrier sealed
/// ([`DeltaLog::last_append_span`]), and recovery replays each block's
/// highest generation. So once a newer entry for the same block sits in a
/// *sealed* append — one another append, a [`seal`](DeltaLog::seal) or a
/// clean came after — the older entry is never replayed; and it was marked
/// stale when its block left it ([`DeltaLog::mark_stale`]), so no placement
/// names it. Its bytes go, its framing stays: packing, cleaning,
/// truncation and verification see the entry they saw. Which stale entries
/// wait for a sealed successor is RAM state: a crash forgets it
/// ([`DeltaLog::restart`]) and so does a clean, and an entry it forgets
/// keeps its bytes until a clean drops it.
///
/// # Examples
///
/// ```
/// use icash_core::delta_log::{DeltaLog, LogEntry};
/// use icash_delta::codec::DeltaCodec;
/// use icash_storage::block::Lba;
///
/// let mut log = DeltaLog::new(1024);
/// let codec = DeltaCodec::default();
/// let reference = vec![0u8; 4096];
/// let mut target = reference.clone();
/// target[3] = 9;
/// let delta = codec.encode(&reference, &target);
///
/// let entry = LogEntry::new(Lba::new(5), Lba::new(9), 1, delta);
/// assert!(entry.verify());
/// let report = log.append(vec![entry]);
/// assert_eq!(report.blocks_written, 1);
/// let packed = log.fetch(report.entry_locs[0]);
/// assert_eq!(packed.entries[0].lba, Lba::new(5));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaLog {
    capacity_blocks: u64,
    blocks: Vec<PackedBlock>,
    /// Stale entries per block (diagnostics for the cleaner).
    stale: Vec<u32>,
    total_entries: u64,
    stale_entries: u64,
    /// `(first block, block count)` of the most recent append — the span a
    /// crash-time torn write can land in. Empty once a barrier has returned
    /// after it ([`DeltaLog::seal`]) or a clean has rewritten the log.
    last_append: (u32, u32),
    /// Stale entries still holding their payload, by address: the log
    /// block of each, waiting for a newer entry of its block.
    stale_held: AddrMap<Lba, u32>,
    /// `(log block, address)` of held entries a newer entry in the last
    /// append superseded: released when that append is sealed.
    superseded: Vec<(u32, Lba)>,
    /// Payload bytes the log's entries hold.
    held_bytes: u64,
}

impl DeltaLog {
    /// Creates a log with room for `capacity_blocks` packed blocks.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_blocks: u64) -> Self {
        assert!(capacity_blocks > 0, "log capacity must be nonzero");
        DeltaLog {
            capacity_blocks,
            blocks: Vec::new(),
            stale: Vec::new(),
            total_entries: 0,
            stale_entries: 0,
            last_append: (0, 0),
            stale_held: AddrMap::default(),
            superseded: Vec::new(),
            held_bytes: 0,
        }
    }

    /// Log blocks currently in use.
    pub fn len_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Whether an append of roughly `entries` more blocks would overflow.
    pub fn is_nearly_full(&self) -> bool {
        self.len_blocks() * 10 >= self.capacity_blocks * 9
    }

    /// Whether [`DeltaLog::append`] of `entries` stays within capacity.
    pub fn fits(&self, entries: &[LogEntry]) -> bool {
        let (mut blocks, mut used) = (self.len_blocks(), 0);
        for len in entries.iter().map(LogEntry::wire_len) {
            if used > 0 && used + len > BLOCK_SIZE {
                used = 0;
            }
            blocks += u64::from(used == 0);
            used += len;
        }
        blocks <= self.capacity_blocks
    }

    /// Live (not superseded) entries in the log.
    pub fn live_entries(&self) -> u64 {
        self.total_entries - self.stale_entries
    }

    /// Payload bytes the log's entries still hold (released ones hold none).
    pub fn held_payload_bytes(&self) -> u64 {
        self.held_bytes
    }

    /// Packs `entries` into as few 4 KB blocks as possible and appends them.
    /// The append before it is sealed now: a crash can tear only this one.
    ///
    /// # Panics
    ///
    /// Panics if the log would exceed its capacity (run [`DeltaLog::clean`]
    /// first) or `entries` is empty.
    pub fn append(&mut self, entries: Vec<LogEntry>) -> AppendReport {
        assert!(!entries.is_empty(), "nothing to append");
        self.release_superseded();
        let first_block = self.blocks.len() as u64;
        let mut entry_locs = Vec::with_capacity(entries.len());
        let mut current = PackedBlock::default();
        for entry in entries {
            if let Some(older) = self.stale_held.remove(&entry.lba) {
                self.superseded.push((older, entry.lba));
            }
            self.held_bytes += entry.delta().map_or(0, Delta::len) as u64;
            let len = entry.wire_len();
            if !current.entries.is_empty() && current.bytes + len > BLOCK_SIZE {
                self.push_block(std::mem::take(&mut current));
            }
            entry_locs.push(self.blocks.len() as u32);
            current.bytes += len;
            current.entries.push(entry);
            self.total_entries += 1;
        }
        if !current.entries.is_empty() {
            self.push_block(current);
        }
        assert!(
            self.blocks.len() as u64 <= self.capacity_blocks,
            "delta log overflow: {} blocks > capacity {}",
            self.blocks.len(),
            self.capacity_blocks
        );
        let blocks_written = (self.blocks.len() as u64 - first_block) as u32;
        self.last_append = (first_block as u32, blocks_written);
        AppendReport {
            entry_locs,
            first_block,
            blocks_written,
        }
    }

    /// `(first block, block count)` of the most recent append — the span an
    /// in-flight sequential write occupies at crash time. Empty when no
    /// append is in flight: a barrier returned after it, or a clean came
    /// after it.
    pub fn last_append_span(&self) -> (u32, u32) {
        self.last_append
    }

    /// A durability barrier has returned: the most recent append is on the
    /// platter, and a crash can no longer tear it. The next append is
    /// tearable again.
    pub fn seal(&mut self) {
        self.last_append.1 = 0;
        self.release_superseded();
    }

    /// Power came back: which stale entries wait for a sealed successor was
    /// RAM state, and is gone. Every entry still holding its payload keeps
    /// it until a clean drops the entry.
    pub fn restart(&mut self) {
        self.stale_held.clear();
        self.superseded.clear();
    }

    /// Releases the entries the last append superseded: it is sealed.
    fn release_superseded(&mut self) {
        for (loc, lba) in std::mem::take(&mut self.superseded) {
            self.release(loc, lba);
        }
    }

    /// Releases the payload of `lba`'s entry in block `loc`, if it is there.
    fn release(&mut self, loc: u32, lba: Lba) {
        if KEEP_PAYLOADS.with(Cell::get) {
            return;
        }
        let Some(block) = self.blocks.get_mut(loc as usize) else {
            return;
        };
        if let Some(entry) = block.entries.iter_mut().find(|e| e.lba == lba) {
            self.held_bytes -= entry.release() as u64;
        }
    }

    /// Simulates a torn write: block `loc` was partially written (its torn
    /// flag is set so its checksums no longer verify) and everything after
    /// it never reached the platter.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn tear_from(&mut self, loc: u32) {
        assert!(
            (loc as usize) < self.blocks.len(),
            "tear point out of range"
        );
        self.blocks[loc as usize].torn = true;
        self.truncate_from(loc + 1);
    }

    /// Simulates a torn *multi-entry* write: the crash interrupted the
    /// append inside block `loc`, after its first `keep` entries reached
    /// the platter with valid checksums. Recovery's contract for group
    /// commits: the frame replays up to its last complete entry — the
    /// verified prefix survives, the unverifiable tail entries and every
    /// later block are dropped. Returns `(frames dropped, entries dropped
    /// from the torn frame)`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn tear_within(&mut self, loc: u32, keep: usize) -> (u64, u64) {
        assert!(
            (loc as usize) < self.blocks.len(),
            "tear point out of range"
        );
        let frames_after = self.blocks.len() as u64 - loc as u64 - 1;
        self.truncate_from(loc + 1);
        let block = &mut self.blocks[loc as usize];
        let torn_entries = block.entries.len().saturating_sub(keep) as u64;
        block.entries.truncate(keep);
        block.bytes = block.entries.iter().map(LogEntry::wire_len).sum();
        if block.entries.is_empty() {
            // Nothing of the frame verified: the whole block is gone.
            self.truncate_from(loc);
            return (frames_after + 1, torn_entries);
        }
        // Re-derive accounting for the shortened frame; the per-block stale
        // count is clamped so diagnostics cannot exceed what remains.
        let kept = self.blocks[loc as usize].entries.len() as u32;
        self.stale[loc as usize] = self.stale[loc as usize].min(kept);
        self.recount();
        (frames_after, torn_entries)
    }

    /// Drops blocks `loc..` (recovery truncating at the first bad frame)
    /// and recomputes entry accounting from what remains.
    pub fn truncate_from(&mut self, loc: u32) {
        self.blocks.truncate(loc as usize);
        self.stale.truncate(loc as usize);
        self.recount();
        let (first, count) = self.last_append;
        if (first + count) as usize > self.blocks.len() {
            self.last_append = (
                first.min(self.blocks.len() as u32),
                (self.blocks.len() as u32).saturating_sub(first),
            );
        }
    }

    /// Recomputes the entry and byte counts from the blocks that remain.
    fn recount(&mut self) {
        let entries = || self.blocks.iter().flat_map(|b| &b.entries);
        self.total_entries = entries().count() as u64;
        self.held_bytes = entries()
            .filter_map(LogEntry::delta)
            .map(|d| d.len() as u64)
            .sum();
        self.stale_entries = self.stale.iter().map(|&s| s as u64).sum();
    }

    /// The first block whose frame fails verification — torn, or holding an
    /// entry whose CRC does not match. `None` when the whole log verifies.
    pub fn first_invalid_frame(&self) -> Option<u32> {
        self.blocks
            .iter()
            .position(|b| b.torn || b.entries.iter().any(|e| !e.verify()))
            .map(|i| i as u32)
    }

    fn push_block(&mut self, block: PackedBlock) {
        self.blocks.push(block);
        self.stale.push(0);
    }

    /// The packed block with id `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn fetch(&self, loc: u32) -> &PackedBlock {
        &self.blocks[loc as usize]
    }

    /// The first entry for `lba` in packed block `loc`, if the block exists
    /// and holds one. (The controller's appends frame each block's delta
    /// once, so its log blocks hold at most one entry per address.)
    pub fn entry(&self, loc: u32, lba: Lba) -> Option<&LogEntry> {
        let block = self.blocks.get(loc as usize)?;
        block.entries.iter().find(|e| e.lba == lba)
    }

    /// Marks `lba`'s entry in block `loc` superseded: its block has left
    /// it, and no placement names it any more. Its payload goes once a
    /// newer entry of `lba` is in a sealed append — an older stale entry
    /// of `lba` goes on the same terms, this entry being newer.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn mark_stale(&mut self, loc: u32, lba: Lba) {
        self.stale[loc as usize] += 1;
        self.stale_entries += 1;
        if let Some(older) = self.stale_held.insert(lba, loc) {
            debug_assert!(older < loc, "{lba:?}: stale at {older}, then at {loc}");
            let (first, count) = self.last_append;
            if (first..first + count).contains(&loc) {
                self.superseded.push((older, lba));
            } else {
                self.release(older, lba);
            }
        }
    }

    /// Checks the byte count, and that every released entry has a newer
    /// entry of its block in a sealed append — the one recovery replays
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn validate(&self) {
        let (first, count) = self.last_append;
        let mut newest_sealed: AddrMap<Lba, u64> = AddrMap::default();
        let mut held = 0;
        for (loc, block) in (0u32..).zip(&self.blocks) {
            for e in &block.entries {
                held += e.delta().map_or(0, |d| d.len() as u64);
                if !(first..first + count).contains(&loc) {
                    let newest = newest_sealed.entry(e.lba).or_insert(e.generation);
                    *newest = (*newest).max(e.generation);
                }
            }
        }
        assert_eq!(held, self.held_bytes, "held payload bytes");
        for (loc, block) in (0u32..).zip(&self.blocks) {
            for e in block.entries.iter().filter(|e| e.delta().is_none()) {
                assert!(
                    newest_sealed.get(&e.lba).is_some_and(|&g| g > e.generation),
                    "{:?}: released in block {loc} with no newer sealed entry",
                    e.lba
                );
            }
        }
    }

    /// Compacts the log, keeping only entries for which `live` returns
    /// true given `(lba, current block id)`. Returns the new location of
    /// every surviving LBA and the number of blocks the compacted log
    /// occupies (the controller charges one sequential HDD write of that
    /// many blocks). A clean is copy-then-switch — a crash in the middle
    /// leaves the old log — so it leaves no append a crash can tear.
    pub fn clean(&mut self, live: impl Fn(Lba, u32) -> bool) -> (AddrMap<Lba, u32>, u64) {
        let old_blocks = std::mem::take(&mut self.blocks);
        self.stale.clear();
        self.total_entries = 0;
        self.stale_entries = 0;
        self.held_bytes = 0;
        self.restart();

        let mut survivors = Vec::new();
        for (id, block) in old_blocks.into_iter().enumerate() {
            for entry in block.entries {
                if live(entry.lba, id as u32) {
                    survivors.push(entry);
                }
            }
        }
        if survivors.is_empty() {
            return (AddrMap::default(), 0);
        }
        // `entry_locs[i]` is where the i-th appended entry went.
        let lbas: Vec<Lba> = survivors.iter().map(|e| e.lba).collect();
        let report = self.append(survivors);
        self.seal();
        let locs = lbas.into_iter().zip(report.entry_locs).collect();
        (locs, self.len_blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_delta::codec::DeltaCodec;

    fn delta_of_size(approx: usize) -> Delta {
        let reference = vec![0u8; 4096];
        let mut target = reference.clone();
        target[..approx.min(4000)].fill(1);
        DeltaCodec::default().encode(&reference, &target)
    }

    fn entry(lba: u64, approx: usize) -> LogEntry {
        LogEntry::new(
            Lba::new(lba),
            Lba::new(lba + 1000),
            lba + 1,
            delta_of_size(approx),
        )
    }

    #[test]
    fn many_small_deltas_pack_into_one_block() {
        let mut log = DeltaLog::new(100);
        let entries: Vec<LogEntry> = (0..40).map(|i| entry(i, 64)).collect();
        let report = log.append(entries);
        assert_eq!(report.blocks_written, 1, "40 × ~70 B fits one 4 KB block");
        assert_eq!(log.fetch(0).entries.len(), 40);
        assert!(log.fetch(0).bytes <= BLOCK_SIZE);
    }

    #[test]
    fn large_deltas_split_across_blocks() {
        let mut log = DeltaLog::new(100);
        let entries: Vec<LogEntry> = (0..5).map(|i| entry(i, 1500)).collect();
        let report = log.append(entries);
        assert!(report.blocks_written >= 2);
        for loc in &report.entry_locs {
            assert!(log.fetch(*loc).bytes <= BLOCK_SIZE);
        }
    }

    #[test]
    fn entry_locs_point_to_their_entries() {
        let mut log = DeltaLog::new(100);
        let entries: Vec<LogEntry> = (0..100).map(|i| entry(i, 200)).collect();
        let report = log.append(entries);
        for (i, &loc) in report.entry_locs.iter().enumerate() {
            let packed = log.fetch(loc);
            assert!(
                packed.entries.iter().any(|e| e.lba == Lba::new(i as u64)),
                "entry {i} not found in block {loc}"
            );
        }
    }

    #[test]
    fn clean_drops_stale_entries() {
        let mut log = DeltaLog::new(100);
        let r1 = log.append((0..20).map(|i| entry(i, 500)).collect());
        let _r2 = log.append((0..20).map(|i| entry(i, 500)).collect());
        let before = log.len_blocks();
        for (lba, loc) in (0..).zip(&r1.entry_locs) {
            log.mark_stale(*loc, Lba::new(lba));
        }
        // Only generation-2 entries are live (their block ids are ≥ r1 end).
        let boundary = r1.entry_locs.iter().copied().max().unwrap();
        let (locs, blocks) = log.clean(|_, block| block > boundary);
        assert_eq!(locs.len(), 20);
        assert!(blocks < before);
        for (lba, loc) in &locs {
            assert!(log.fetch(*loc).entries.iter().any(|e| e.lba == *lba));
        }
    }

    impl DeltaLog {
        /// [`DeltaLog::clean`] as it was: each survivor's offset within its
        /// block found by re-walking `entry_locs` from the start — n²/2
        /// steps for n survivors. Kept as the oracle.
        fn clean_rewalk(&mut self, live: impl Fn(Lba, u32) -> bool) -> (AddrMap<Lba, u32>, u64) {
            let old_blocks = std::mem::take(&mut self.blocks);
            self.stale.clear();
            self.total_entries = 0;
            self.stale_entries = 0;
            let mut survivors = Vec::new();
            for (id, block) in old_blocks.into_iter().enumerate() {
                for entry in block.entries {
                    if live(entry.lba, id as u32) {
                        survivors.push(entry);
                    }
                }
            }
            if survivors.is_empty() {
                return (AddrMap::default(), 0);
            }
            let report = self.append(survivors);
            let mut locs = AddrMap::default();
            for (i, &block_id) in report.entry_locs.iter().enumerate() {
                let offset = report.entry_locs[..i]
                    .iter()
                    .filter(|&&b| b == block_id)
                    .count();
                locs.insert(self.blocks[block_id as usize].entries[offset].lba, block_id);
            }
            (locs, self.len_blocks())
        }
    }

    proptest::proptest! {
        /// Random appends (an LBA may recur, in one block or several) and a
        /// random survivor set: the one-pass clean relocates every survivor
        /// where the re-walk did and leaves the same log behind.
        #[test]
        fn clean_matches_the_rewalk_oracle(
            appends in proptest::collection::vec(
                proptest::collection::vec((0u64..48, 0usize..3), 1..40), 1..6),
            keep in proptest::collection::vec(proptest::prelude::any::<bool>(), 200..201),
        ) {
            let sizes = [40, 700, 1800];
            let mut log = DeltaLog::new(1 << 10);
            for batch in &appends {
                log.append(batch.iter().map(|&(lba, size)| entry(lba, sizes[size])).collect());
            }
            // Survival is decided per (lba, block), as the controller does.
            let live = |lba: Lba, block: u32| keep[(lba.raw() as usize * 7 + block as usize) % keep.len()];
            let mut oracle = log.clone();
            let (locs, blocks) = log.clean(live);
            let (want_locs, want_blocks) = oracle.clean_rewalk(live);
            proptest::prop_assert_eq!(blocks, want_blocks);
            proptest::prop_assert_eq!(&locs, &want_locs);
            proptest::prop_assert_eq!(log.live_entries(), oracle.live_entries());
            for loc in 0..blocks as u32 {
                let lbas = |l: &DeltaLog| l.fetch(loc).entries.iter().map(|e| e.lba).collect::<Vec<_>>();
                proptest::prop_assert_eq!(lbas(&log), lbas(&oracle));
            }
            for (lba, loc) in &locs {
                proptest::prop_assert!(log.fetch(*loc).entries.iter().any(|e| e.lba == *lba));
            }
        }
    }

    /// The re-walk made a clean of n live entries cost n²/2 steps — over a
    /// billion at this size, seconds even optimised.
    #[test]
    fn cleaning_fifty_thousand_live_entries_is_linear() {
        const N: u64 = 50_000;
        let mut log = DeltaLog::new(1 << 12);
        let delta = delta_of_size(48);
        let entries = (0..N).map(|i| LogEntry::new(Lba::new(i), Lba::new(i), i + 1, delta.clone()));
        log.append(entries.collect());
        let started = std::time::Instant::now();
        let (locs, blocks) = log.clean(|_, _| true);
        let took = started.elapsed();
        assert_eq!(locs.len() as u64, N);
        assert_eq!(log.live_entries(), N);
        assert!(blocks > 100, "the survivors span many blocks: {blocks}");
        for lba in [0, 1, N / 2, N - 1] {
            let loc = locs[&Lba::new(lba)];
            assert!(log
                .fetch(loc)
                .entries
                .iter()
                .any(|e| e.lba == Lba::new(lba)));
        }
        assert!(
            took.as_millis() < 500,
            "clean of {N} live entries took {took:?}"
        );
    }

    #[test]
    fn clean_to_empty() {
        let mut log = DeltaLog::new(100);
        log.append(vec![entry(1, 100)]);
        let (locs, blocks) = log.clean(|_, _| false);
        assert!(locs.is_empty());
        assert_eq!(blocks, 0);
        assert_eq!(log.len_blocks(), 0);
    }

    #[test]
    fn nearly_full_detection() {
        let mut log = DeltaLog::new(10);
        assert!(!log.is_nearly_full());
        log.append((0..36).map(|i| entry(i, 1000)).collect());
        assert!(log.is_nearly_full());
    }

    #[test]
    #[should_panic(expected = "nothing to append")]
    fn empty_append_rejected() {
        let mut log = DeltaLog::new(10);
        log.append(Vec::new());
    }

    /// `fits` packs as `append` does: at every fill level, exactly the
    /// batches that overflow are refused.
    #[test]
    fn fits_agrees_with_append() {
        for size in [40, 700, 1800, 4096] {
            for n in 1..12 {
                let batch = || (0..n).map(|i| entry(i, size)).collect::<Vec<_>>();
                let needed = u64::from(DeltaLog::new(100).append(batch()).blocks_written);
                // One block in use, then room for exactly that many more,
                // or one fewer.
                for room in [needed, needed - 1] {
                    let mut log = DeltaLog::new(1 + room);
                    log.append(vec![entry(99, 40)]);
                    assert_eq!(log.fits(&batch()), room == needed, "{n} x {size} B");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut log = DeltaLog::new(2);
        log.append((0..20).map(|i| entry(i, 1500)).collect());
    }

    #[test]
    fn frames_verify_and_detect_tampering() {
        for released in [false, true] {
            let framed = |lba| {
                let mut e = entry(lba, 300);
                if released {
                    assert!(e.release() > 0);
                }
                e
            };
            let mut e = framed(7);
            assert!(e.verify(), "released: {released}");
            e.generation += 1; // stale-entry forgery: stamp moved without reframe
            assert!(!e.verify(), "released: {released}");
            let mut e2 = framed(8);
            e2.lba = Lba::new(9); // misdirected frame
            assert!(!e2.verify(), "released: {released}");
            let mut e3 = framed(10);
            e3.reference = Lba::new(7); // rebound to another reference
            assert!(!e3.verify(), "released: {released}");
            let mut e4 = framed(11);
            e4.crc ^= 1 << 20;
            assert!(!e4.verify(), "released: {released}");
        }
    }

    /// A released entry keeps what its frame is made of: the pinned frame
    /// CRCs, the packed length and tag, and a header that verifies — the
    /// payload checksum derived from the frame's without the bytes.
    #[test]
    fn a_released_entry_keeps_its_frame() {
        for (at, run) in [(0, 0), (100, 297), (200, 2496), (0, BLOCK_SIZE)] {
            let delta = if run == 0 {
                Delta::identity()
            } else {
                delta_with_run(at, run)
            };
            let mut e = LogEntry::new(
                Lba::new(0x1234).with_vm(3),
                Lba::new(77),
                1 << 40,
                delta.clone(),
            );
            let (crc, wire_len) = (e.crc, e.wire_len());
            assert_eq!(e.release(), delta.len());
            assert_eq!(e.release(), 0, "released once");
            assert!(e.delta().is_none());
            assert_eq!((e.crc, e.wire_len()), (crc, wire_len));
            assert_eq!(
                (e.payload_len(), e.encoding()),
                (delta.len(), delta.encoding())
            );
            assert!(e.verify(), "{run}-byte run");
        }
    }

    /// A released payload leaves room for its framing: the entry stays as
    /// large as the delta it held.
    #[test]
    fn a_payload_costs_an_entry_no_bytes() {
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<Delta>());
    }

    /// Superseded entries of `lbas`: the first append's, marked stale and
    /// then rewritten by a second append, which nothing has sealed yet.
    fn superseded(lbas: std::ops::Range<u64>) -> (DeltaLog, AppendReport) {
        let mut log = DeltaLog::new(100);
        let first = log.append(lbas.clone().map(|i| entry(i, 500)).collect());
        for (lba, loc) in lbas.clone().zip(&first.entry_locs) {
            log.mark_stale(*loc, Lba::new(lba));
        }
        let newer =
            |i: u64| LogEntry::new(Lba::new(i), Lba::new(i + 1000), i + 100, delta_of_size(500));
        log.append(lbas.map(newer).collect());
        (log, first)
    }

    fn held(log: &DeltaLog, report: &AppendReport) -> usize {
        let lbas = 0u64..;
        let held = |(lba, &loc): (u64, &u32)| {
            log.entry(loc, Lba::new(lba))
                .and_then(LogEntry::delta)
                .is_some()
        };
        lbas.zip(&report.entry_locs).filter(|&e| held(e)).count()
    }

    /// A stale entry's payload goes when a newer entry of its block is
    /// sealed — by a barrier, or by the next append — and not before; its
    /// frame stays and verifies.
    #[test]
    fn a_stale_entry_is_released_once_its_successor_is_sealed() {
        for seal_by_append in [false, true] {
            let (mut log, first) = superseded(0..8);
            assert_eq!(held(&log, &first), 8, "the successors can still tear");
            assert_eq!(
                log.held_payload_bytes(),
                16 * delta_of_size(500).len() as u64
            );
            log.validate();
            if seal_by_append {
                log.append(vec![entry(50, 40)]);
            } else {
                log.seal();
            }
            assert_eq!(held(&log, &first), 0);
            let live = 8 * delta_of_size(500).len()
                + if seal_by_append {
                    delta_of_size(40).len()
                } else {
                    0
                };
            assert_eq!(log.held_payload_bytes(), live as u64);
            assert_eq!(log.first_invalid_frame(), None);
            log.validate();
        }
    }

    /// Nothing is released without a newer entry of the block, nor once a
    /// crash has wiped the bookkeeping, nor while the oracle keeps every
    /// payload.
    #[test]
    fn nothing_else_is_released() {
        let mut log = DeltaLog::new(100);
        let report = log.append((0..4).map(|i| entry(i, 500)).collect());
        for (lba, loc) in (0..).zip(&report.entry_locs) {
            log.mark_stale(*loc, Lba::new(lba));
        }
        log.append((10..14).map(|i| entry(i, 500)).collect());
        log.seal();
        assert_eq!(held(&log, &report), 4, "no successor");

        let (mut log, first) = superseded(0..4);
        log.restart();
        log.seal();
        assert_eq!(held(&log, &first), 4, "forgotten in the crash");

        let (mut log, first) = superseded(0..4);
        KEEP_PAYLOADS.with(|k| k.set(true));
        log.seal();
        KEEP_PAYLOADS.with(|k| k.set(false));
        assert_eq!(held(&log, &first), 4, "kept by the oracle");
    }

    /// An entry left stale behind a newer stale entry of its block goes
    /// once that newer one is sealed: recovery prefers the newer one.
    #[test]
    fn a_stale_entry_behind_a_newer_stale_one_is_released() {
        let mut log = DeltaLog::new(100);
        let old = log.append(vec![entry(3, 500)]);
        log.mark_stale(old.entry_locs[0], Lba::new(3));
        let newer = log.append(vec![LogEntry::new(
            Lba::new(3),
            Lba::new(3),
            9,
            delta_of_size(500),
        )]);
        // The first entry now waits for the second's seal.
        log.mark_stale(newer.entry_locs[0], Lba::new(3));
        assert!(log
            .entry(old.entry_locs[0], Lba::new(3))
            .and_then(LogEntry::delta)
            .is_some());
        log.seal();
        assert!(log
            .entry(old.entry_locs[0], Lba::new(3))
            .and_then(LogEntry::delta)
            .is_none());
        assert!(log
            .entry(newer.entry_locs[0], Lba::new(3))
            .and_then(LogEntry::delta)
            .is_some());
        log.validate();
    }

    /// A delta whose payload is `run` bytes of literal at `at` (sparse), or
    /// the whole block when `run` is the block (raw), over a fixed pattern.
    fn delta_with_run(at: usize, run: usize) -> Delta {
        let target: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 131 + 7) as u8).collect();
        let mut reference = target.clone();
        for b in &mut reference[at..at + run] {
            *b ^= 0xFF;
        }
        DeltaCodec::default().encode(&reference, &target)
    }

    /// What recovery's `verify()` accepts, as values: the frame CRC of four
    /// fixed entries, one per payload shape the log stores. Recorded under
    /// the slice-by-8 `Crc32`; any kernel under `Crc32::update` must
    /// reproduce them, or logs written before it stop verifying.
    #[test]
    fn frame_crcs_are_pinned() {
        let frames = [
            (Delta::identity(), 0, 0x11E0_235Au32),
            (delta_with_run(100, 297), 300, 0xBCB6_BD7B),
            (delta_with_run(200, 2496), 2500, 0x7A4C_C826),
            (delta_with_run(0, BLOCK_SIZE), 4096, 0x31CA_10EF),
        ];
        for (i, (delta, len, crc)) in frames.into_iter().enumerate() {
            assert_eq!(delta.len(), len, "frame {i}: payload size");
            let lba = Lba::new(0x0012_3456_789A + i as u64).with_vm(3);
            let reference = Lba::new(0x00FE_DCBA_9876 - i as u64).with_vm(3);
            let e = LogEntry::new(lba, reference, 0x0102_0304_0506_0708 << i, delta);
            assert_eq!(e.crc, crc, "frame {i}: {:#010X}", e.crc);
            assert!(e.verify());
        }
    }

    #[test]
    fn tear_marks_block_and_drops_tail() {
        let mut log = DeltaLog::new(100);
        let report = log.append((0..12).map(|i| entry(i, 1500)).collect());
        assert!(report.blocks_written >= 3);
        assert_eq!(log.last_append_span(), (0, report.blocks_written));
        assert_eq!(log.first_invalid_frame(), None);

        log.tear_from(1);
        assert_eq!(log.len_blocks(), 2, "blocks after the tear are gone");
        assert!(log.fetch(1).torn);
        assert_eq!(log.first_invalid_frame(), Some(1));

        log.truncate_from(1);
        assert_eq!(log.len_blocks(), 1);
        assert_eq!(log.first_invalid_frame(), None);
        assert_eq!(log.live_entries(), log.fetch(0).entries.len() as u64);
    }

    #[test]
    fn tear_within_keeps_the_verified_prefix() {
        let mut log = DeltaLog::new(100);
        // One multi-entry group-commit frame: 8 small entries in block 0,
        // then a later frame in block 1 that never reached the platter.
        log.append((0..8).map(|i| entry(i, 64)).collect());
        log.append((10..14).map(|i| entry(i, 1500)).collect());
        assert!(log.len_blocks() >= 2);
        let tail = log.len_blocks() - 1;

        let (frames, torn) = log.tear_within(0, 5);
        assert_eq!(frames, tail, "every later block is dropped");
        assert_eq!(torn, 3, "the unverifiable tail entries are dropped");
        assert_eq!(log.len_blocks(), 1);
        assert_eq!(log.fetch(0).entries.len(), 5);
        assert_eq!(log.live_entries(), 5);
        assert_eq!(log.first_invalid_frame(), None, "the prefix still verifies");
        assert!(log.fetch(0).entries.iter().all(LogEntry::verify));
    }

    #[test]
    fn tear_within_nothing_verified_drops_the_block() {
        let mut log = DeltaLog::new(100);
        log.append((0..8).map(|i| entry(i, 64)).collect());
        let (frames, torn) = log.tear_within(0, 0);
        assert_eq!(frames, 1, "keep=0 drops the torn block itself");
        assert_eq!(torn, 8);
        assert_eq!(log.len_blocks(), 0);
        assert_eq!(log.live_entries(), 0);
    }

    #[test]
    fn tear_within_clamps_stale_accounting() {
        let mut log = DeltaLog::new(100);
        let report = log.append((0..8).map(|i| entry(i, 64)).collect());
        // Mark 6 of the 8 entries stale, then tear so only 2 survive: the
        // per-block stale count must clamp to what remains.
        for lba in 0..6 {
            log.mark_stale(report.entry_locs[0], Lba::new(lba));
        }
        log.tear_within(0, 2);
        assert_eq!(log.fetch(0).entries.len(), 2);
        assert!(
            log.live_entries() <= 2,
            "stale count clamped to kept entries"
        );
    }

    #[test]
    fn truncate_recomputes_stale_accounting() {
        let mut log = DeltaLog::new(100);
        let r1 = log.append((0..4).map(|i| entry(i, 1500)).collect());
        log.append((10..14).map(|i| entry(i, 1500)).collect());
        for (lba, loc) in (0..).zip(&r1.entry_locs) {
            log.mark_stale(*loc, Lba::new(lba));
        }
        let live_before = log.live_entries();
        log.truncate_from(r1.blocks_written);
        // All surviving entries are the (stale) first append's.
        assert_eq!(log.live_entries(), 0);
        assert!(live_before > 0);
    }
}
