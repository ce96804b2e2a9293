//! Flash wear tracking.
//!
//! The paper's Table 6 motivates I-CASH partly by reduced SSD wear: fewer
//! random writes means fewer erases means longer device life. This module
//! counts per-block erases and summarises wear the way an SSD SMART report
//! would.

use serde::{Deserialize, Serialize};

/// Per-erase-block wear counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WearTracker {
    erase_counts: Vec<u32>,
    endurance: u32,
    bad_blocks: u32,
}

impl WearTracker {
    /// Creates a tracker for `blocks` erase blocks with the given endurance.
    ///
    /// # Panics
    ///
    /// Panics if `endurance` is zero.
    pub fn new(blocks: u32, endurance: u32) -> Self {
        assert!(endurance > 0, "endurance must be nonzero");
        WearTracker {
            erase_counts: vec![0; blocks as usize],
            endurance,
            bad_blocks: 0,
        }
    }

    /// Counts an erase of `block`. Returns `true` if the block just reached
    /// its endurance limit and must be retired.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn count_erase(&mut self, block: u32) -> bool {
        let c = &mut self.erase_counts[block as usize];
        *c += 1;
        if *c == self.endurance {
            self.bad_blocks += 1;
            true
        } else {
            false
        }
    }

    /// Total erases across all blocks.
    pub fn total_erases(&self) -> u64 {
        self.erase_counts.iter().map(|&c| c as u64).sum()
    }

    /// Highest per-block erase count.
    pub fn max_erases(&self) -> u32 {
        self.erase_counts.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-block erase count.
    pub fn mean_erases(&self) -> f64 {
        if self.erase_counts.is_empty() {
            0.0
        } else {
            self.total_erases() as f64 / self.erase_counts.len() as f64
        }
    }

    /// Blocks retired at the endurance limit.
    pub fn bad_blocks(&self) -> u32 {
        self.bad_blocks
    }

    /// Fraction of total endurance consumed, 0.0 (new) to 1.0 (worn out),
    /// using the mean erase count as a device-life proxy.
    pub fn life_used(&self) -> f64 {
        (self.mean_erases() / self.endurance as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erases_accumulate() {
        let mut w = WearTracker::new(4, 10);
        assert!(!w.count_erase(0));
        assert!(!w.count_erase(0));
        assert!(!w.count_erase(1));
        assert_eq!(w.total_erases(), 3);
        assert_eq!(w.max_erases(), 2);
        assert!((w.mean_erases() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn endurance_limit_retires_block() {
        let mut w = WearTracker::new(2, 3);
        assert!(!w.count_erase(0));
        assert!(!w.count_erase(0));
        assert!(w.count_erase(0));
        assert_eq!(w.bad_blocks(), 1);
        // Further erases past the limit do not re-retire.
        assert!(!w.count_erase(0));
        assert_eq!(w.bad_blocks(), 1);
    }

    #[test]
    fn life_used_is_the_mean_share_of_endurance() {
        let mut w = WearTracker::new(2, 100);
        for _ in 0..50 {
            w.count_erase(0);
        }
        assert!((w.life_used() - 0.25).abs() < 1e-12);
        let fresh = WearTracker::new(2, 100);
        assert_eq!(fresh.life_used(), 0.0);
    }
}
