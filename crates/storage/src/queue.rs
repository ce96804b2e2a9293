//! The HDD's native command queue: bounded, deterministic, SPTF-scheduled.
//!
//! Real drives do not service requests strictly in arrival order. A SATA
//! drive with NCQ holds up to 32 commands and services whichever needs the
//! least head movement next. A [`CommandQueue`] admits commands against a
//! bounded depth (typed [`QueueFull`] backpressure, never silent drops),
//! dispatches the one with the shortest positioning time first (SPTF), ages
//! passed-over commands so no request starves, and exposes adjacent
//! commands for coalescing into one sequential media transfer.
//!
//! Everything is virtual-time and seeded-state deterministic: the same
//! admission sequence and cost function produce the same dispatch order on
//! every host, which is what lets the queue-on campaigns assert byte-equal
//! output at any worker count. With no queue installed
//! (`HddConfig::queue = None`) none of this code runs and the drive is
//! bit-identical to its pre-queue behavior — the differential tests and
//! pinned goldens in `./ci.sh golden` hold that line.

use crate::time::Ns;
use core::fmt;
use serde::{Deserialize, Serialize};

/// How many consecutive dispatches may pass over a pending command before
/// aging forces it to the front. Combined with the queue depth this bounds
/// the wait of any command: it is dispatched within `AGING_BOUND + depth`
/// dispatches of its admission (proved by the no-starvation proptest in
/// `hdd.rs`).
pub const AGING_BOUND: u32 = 4;

/// Configuration of the HDD's command queue: the admission bound. Carried
/// as `Option<QueueConfig>` on [`HddConfig`](crate::hdd::HddConfig);
/// `None` (the default) means no queue exists and the drive behaves
/// exactly as before this layer was added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum commands held at once. Depth 1 admits one command at a time,
    /// which degenerates to service in arrival order.
    pub depth: u32,
}

impl QueueConfig {
    /// An NCQ-style queue of `depth` commands.
    pub fn depth(depth: u32) -> Self {
        QueueConfig { depth }
    }

    /// Asserts the configuration is usable.
    ///
    /// # Panics
    ///
    /// Panics when `depth` is zero — a queue that can hold nothing can
    /// never admit a command.
    pub fn validate(&self) {
        assert!(self.depth >= 1, "queue depth must be at least 1");
    }
}

/// The typed backpressure error: the queue is at its configured depth and
/// the command was *not* admitted. The caller must dispatch (or drain)
/// before retrying — exactly how a full NCQ tag set stalls the host link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured depth the queue is pinned at.
    pub depth: u32,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "command queue full at depth {}", self.depth)
    }
}

impl std::error::Error for QueueFull {}

/// One queued device command: a contiguous block-addressed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// First block of the access.
    pub lba: u64,
    /// Blocks covered.
    pub blocks: u32,
    /// True for writes, false for reads. Only same-direction commands
    /// coalesce.
    pub write: bool,
    /// Admission sequence number — the arrival-order tie-breaker.
    pub seq: u64,
    /// Dispatches that have passed this command over (the aging counter).
    pub skipped: u32,
}

/// A dispatched command plus how it left the queue — the raw material for
/// the `QueueReorder` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The command chosen for service.
    pub cmd: Command,
    /// Earlier-arrived commands still pending when this one was chosen —
    /// zero means the dispatch was in arrival order.
    pub jumped: u32,
}

/// A bounded, deterministic device command queue.
///
/// The queue itself is pure scheduling state: it never touches a device.
/// Owners (the HDD batch paths, tests) drive the
/// admit → dispatch → coalesce cycle and apply the chosen commands to
/// their timing models.
///
/// # Examples
///
/// ```
/// use icash_storage::queue::{CommandQueue, QueueConfig};
/// use icash_storage::time::Ns;
///
/// let mut q = CommandQueue::new(QueueConfig::depth(2));
/// q.admit(100, 1, true).unwrap();
/// q.admit(5, 1, true).unwrap();
/// q.admit(7, 1, true).unwrap_err(); // depth 2: backpressure
/// // SPTF: with the head near block 0, lba 5 wins despite arriving second.
/// let d = q.dispatch(|lba, _| Ns::from_ns(lba)).unwrap();
/// assert_eq!(d.cmd.lba, 5);
/// assert_eq!(d.jumped, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CommandQueue {
    cfg: QueueConfig,
    pending: Vec<Command>,
    next_seq: u64,
}

impl CommandQueue {
    /// An empty queue under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is invalid (zero depth).
    pub fn new(cfg: QueueConfig) -> Self {
        cfg.validate();
        CommandQueue {
            cfg,
            pending: Vec::with_capacity(cfg.depth as usize),
            next_seq: 0,
        }
    }

    /// Commands currently held.
    pub fn len(&self) -> u32 {
        self.pending.len() as u32
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits a command, returning the occupancy after admission, or
    /// [`QueueFull`] (and no state change) at the depth bound.
    pub fn admit(&mut self, lba: u64, blocks: u32, write: bool) -> Result<u32, QueueFull> {
        if self.pending.len() as u32 >= self.cfg.depth {
            return Err(QueueFull {
                depth: self.cfg.depth,
            });
        }
        self.pending.push(Command {
            lba,
            blocks,
            write,
            seq: self.next_seq,
            skipped: 0,
        });
        self.next_seq += 1;
        Ok(self.pending.len() as u32)
    }

    /// Chooses the next command to service and removes it.
    ///
    /// Any command passed over [`AGING_BOUND`] times is *starved* and takes
    /// absolute priority (oldest starved first); otherwise the one with the
    /// least `cost` goes, ties broken by arrival order so the choice is
    /// deterministic. Every
    /// command left behind ages by one skip.
    pub fn dispatch(&mut self, mut cost: impl FnMut(u64, u32) -> Ns) -> Option<Dispatch> {
        if self.pending.is_empty() {
            return None;
        }
        let starved = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, c)| c.skipped >= AGING_BOUND)
            .min_by_key(|(_, c)| c.seq)
            .map(|(i, _)| i);
        let pick = starved.unwrap_or_else(|| {
            self.pending
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (cost(c.lba, c.blocks), c.seq))
                .map(|(i, _)| i)
                .unwrap_or(0)
        });
        let cmd = self.pending.swap_remove(pick);
        let mut jumped = 0u32;
        for other in &mut self.pending {
            other.skipped += 1;
            if other.seq < cmd.seq {
                jumped += 1;
            }
        }
        Some(Dispatch { cmd, jumped })
    }

    /// Removes and returns the pending command that starts exactly at
    /// `lba` in the same direction (`write`), if any — the coalescing hook:
    /// after dispatching a command ending at block `lba`, the owner keeps
    /// pulling adjacent commands and services the whole run as one
    /// sequential transfer. Coalesced commands do not age the rest of the
    /// queue (they ride along with the dispatch that pulled them).
    pub fn take_adjacent(&mut self, lba: u64, write: bool) -> Option<Command> {
        let at = self
            .pending
            .iter()
            .position(|c| c.lba == lba && c.write == write)?;
        Some(self.pending.swap_remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_bounded_and_typed() {
        let mut q = CommandQueue::new(QueueConfig::depth(2));
        assert_eq!(q.admit(1, 1, true), Ok(1));
        assert_eq!(q.admit(2, 1, true), Ok(2));
        assert_eq!(q.admit(3, 1, true), Err(QueueFull { depth: 2 }));
        assert_eq!(q.len(), 2, "a refused command leaves no residue");
        let _ = q.dispatch(|_, _| Ns::ZERO);
        assert_eq!(q.admit(3, 1, true), Ok(2), "dispatch frees a slot");
    }

    #[test]
    fn sptf_picks_cheapest_and_reports_jumps() {
        let mut q = CommandQueue::new(QueueConfig::depth(4));
        for lba in [100u64, 5, 50] {
            q.admit(lba, 1, true).unwrap();
        }
        let d = q.dispatch(|lba, _| Ns::from_ns(lba)).unwrap();
        assert_eq!(d.cmd.lba, 5);
        assert_eq!(d.jumped, 1, "jumped the earlier-arrived lba 100");
        let d = q.dispatch(|lba, _| Ns::from_ns(lba)).unwrap();
        assert_eq!(d.cmd.lba, 50);
        assert_eq!(d.jumped, 1);
    }

    #[test]
    fn sptf_tie_breaks_by_arrival() {
        let mut q = CommandQueue::new(QueueConfig::depth(4));
        for lba in [8u64, 4, 6] {
            q.admit(lba, 1, true).unwrap();
        }
        let d = q.dispatch(|_, _| Ns::from_us(1)).unwrap();
        assert_eq!(d.cmd.lba, 8, "equal costs fall back to arrival order");
    }

    #[test]
    fn aging_forces_a_starved_command_out() {
        let mut q = CommandQueue::new(QueueConfig::depth(2));
        // A command SPTF would never pick while closer work keeps arriving.
        q.admit(1_000_000, 1, true).unwrap();
        let mut dispatched = Vec::new();
        for round in 0..AGING_BOUND + 1 {
            q.admit(round as u64, 1, true).unwrap();
            dispatched.push(q.dispatch(|lba, _| Ns::from_ns(lba)).unwrap().cmd.lba);
        }
        assert!(
            dispatched.contains(&1_000_000),
            "aging must dispatch the distant command within {} rounds: {dispatched:?}",
            AGING_BOUND + 1
        );
    }

    #[test]
    fn take_adjacent_matches_direction_and_lba() {
        let mut q = CommandQueue::new(QueueConfig::depth(4));
        q.admit(10, 2, true).unwrap();
        q.admit(12, 1, false).unwrap(); // adjacent but a read
        q.admit(12, 1, true).unwrap(); // adjacent write
        assert!(q.take_adjacent(11, true).is_none());
        let got = q.take_adjacent(12, true).unwrap();
        assert!(got.write);
        assert_eq!(got.lba, 12);
        assert!(
            q.take_adjacent(12, true).is_none(),
            "only the write matched"
        );
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_is_rejected() {
        let _ = CommandQueue::new(QueueConfig::depth(0));
    }
}
