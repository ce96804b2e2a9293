//! Host-level block I/O requests and completions.

use crate::block::{BlockBuf, Lba, BLOCK_SIZE};
use crate::time::Ns;
use serde::{Deserialize, Serialize};

/// Direction of a block I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Transfer data from the storage system to the host.
    Read,
    /// Transfer data from the host to the storage system.
    Write,
}

impl Op {
    /// Whether this is a read.
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, Op::Read)
    }
}

/// A host block I/O request, addressed in whole 4 KB blocks.
///
/// Multi-block requests (`blocks > 1`) model the variable request lengths of
/// Table 4; storage systems treat them as a run of consecutive block
/// operations issued together.
#[derive(Debug, Clone)]
pub struct Request {
    /// Read or write.
    pub op: Op,
    /// First block address.
    pub lba: Lba,
    /// Number of consecutive 4 KB blocks covered.
    pub blocks: u32,
    /// Virtual arrival instant.
    pub at: Ns,
    /// Content for each block of a write request, in LBA order.
    ///
    /// Empty for reads. Systems that do not inspect content (e.g. the RAID0
    /// baseline) may ignore it.
    pub payload: Vec<BlockBuf>,
}

impl Request {
    /// Creates a single-block read.
    pub fn read(lba: Lba, at: Ns) -> Self {
        Self::read_span(lba, 1, at)
    }

    /// Creates a multi-block read of `blocks` consecutive blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn read_span(lba: Lba, blocks: u32, at: Ns) -> Self {
        assert!(blocks > 0, "requests must cover at least one block");
        Request {
            op: Op::Read,
            lba,
            blocks,
            at,
            payload: Vec::new(),
        }
    }

    /// Creates a single-block write carrying `content`.
    pub fn write(lba: Lba, at: Ns, content: BlockBuf) -> Self {
        Self::write_span(lba, at, vec![content])
    }

    /// Creates a multi-block write; one buffer per block.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn write_span(lba: Lba, at: Ns, payload: Vec<BlockBuf>) -> Self {
        assert!(!payload.is_empty(), "writes must carry at least one block");
        Request {
            op: Op::Write,
            lba,
            blocks: payload.len() as u32,
            at,
            payload,
        }
    }

    /// Total bytes moved by this request.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.blocks as usize * BLOCK_SIZE
    }

    /// Iterator over the block addresses this request covers.
    pub fn lbas(&self) -> impl Iterator<Item = Lba> + '_ {
        (0..self.blocks as u64).map(move |i| self.lba.plus(i))
    }
}

/// The class of failure a block-level error reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoErrorKind {
    /// HDD media failure (latent sector error the retries couldn't clear).
    HddMedia,
    /// SSD media failure (uncorrectable page the fallbacks couldn't repair).
    SsdMedia,
    /// SSD allocation failure (full or worn out) on a required write.
    SsdSpace,
    /// Controller metadata inconsistency detected and contained.
    Metadata,
    /// Admission refused: the staging buffer hit its backpressure cap.
    /// Transient — the host may resubmit once buffered state drains.
    Busy,
    /// A required device is in the `Failed` health state; the operation
    /// was failed fast without touching hardware.
    DeviceFailed,
}

/// One block of a request that could not be served correctly.
///
/// The end-to-end integrity contract: a storage system must never return
/// wrong data silently. When data is genuinely lost (media failure after
/// retry and repair both failed), the system reports the block here instead
/// — the campaign harness treats "mismatch without a reported error" as
/// corruption and fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockError {
    /// The block that failed.
    pub lba: Lba,
    /// What failed.
    pub kind: IoErrorKind,
}

impl core::fmt::Display for BlockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let kind = match self.kind {
            IoErrorKind::HddMedia => "HDD media error",
            IoErrorKind::SsdMedia => "SSD media error",
            IoErrorKind::SsdSpace => "SSD out of space",
            IoErrorKind::Metadata => "metadata inconsistency",
            IoErrorKind::Busy => "staging buffer full (busy)",
            IoErrorKind::DeviceFailed => "device failed",
        };
        write!(f, "{kind} at block {}", self.lba)
    }
}

/// The completion report of a processed request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Virtual instant at which the host sees the request finished.
    pub finished: Ns,
    /// Content returned for reads, one buffer per block in LBA order.
    ///
    /// Empty when the system was configured not to materialise data
    /// (timing-only runs) or for writes. Blocks listed in `errors` hold a
    /// placeholder buffer so indexes stay aligned with the request.
    pub data: Vec<BlockBuf>,
    /// Blocks the system could not serve correctly, reported instead of
    /// returning wrong data. Empty on every fault-free run.
    pub errors: Vec<BlockError>,
}

impl Completion {
    /// A completion at `finished` with no data.
    pub fn at(finished: Ns) -> Self {
        Completion {
            finished,
            data: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// A completion at `finished` returning `data`.
    pub fn with_data(finished: Ns, data: Vec<BlockBuf>) -> Self {
        Completion {
            finished,
            data,
            errors: Vec::new(),
        }
    }

    /// Attaches block-level error reports.
    pub fn with_errors(mut self, errors: Vec<BlockError>) -> Self {
        self.errors = errors;
        self
    }

    /// Whether `lba` was reported as failed.
    pub fn failed(&self, lba: Lba) -> bool {
        self.errors.iter().any(|e| e.lba == lba)
    }

    /// Service latency relative to the request arrival.
    pub fn latency(&self, req: &Request) -> Ns {
        self.finished.saturating_sub(req.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_span_covers_lbas() {
        let r = Request::read_span(Lba::new(10), 3, Ns::ZERO);
        let lbas: Vec<u64> = r.lbas().map(Lba::raw).collect();
        assert_eq!(lbas, vec![10, 11, 12]);
        assert_eq!(r.bytes(), 3 * BLOCK_SIZE);
    }

    #[test]
    fn write_span_counts_payload() {
        let r = Request::write_span(
            Lba::new(1),
            Ns::ZERO,
            vec![BlockBuf::zeroed(), BlockBuf::filled(1)],
        );
        assert_eq!(r.blocks, 2);
        assert_eq!(r.op, Op::Write);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_block_read_rejected() {
        let _ = Request::read_span(Lba::new(0), 0, Ns::ZERO);
    }

    #[test]
    fn latency_is_relative_to_arrival() {
        let r = Request::read(Lba::new(0), Ns::from_us(10));
        let c = Completion::at(Ns::from_us(35));
        assert_eq!(c.latency(&r), Ns::from_us(25));
    }

    #[test]
    fn errors_are_attached_and_queryable() {
        let c = Completion::at(Ns::from_us(5)).with_errors(vec![BlockError {
            lba: Lba::new(9),
            kind: IoErrorKind::HddMedia,
        }]);
        assert!(c.failed(Lba::new(9)));
        assert!(!c.failed(Lba::new(10)));
        assert!(c.errors[0].to_string().contains("HDD media"));
        assert!(Completion::at(Ns::ZERO).errors.is_empty());
    }
}
