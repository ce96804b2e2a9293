//! Block-trace record and replay.
//!
//! Generated op streams can be captured once and replayed bit-identically
//! against every storage system, removing generator nondeterminism from
//! A/B comparisons (the paper runs the same benchmark against all five
//! systems). Traces live in memory only; the one on-disk input format is
//! [`replay::parse_csv`](crate::replay::parse_csv).

use crate::spec::WorkloadSpec;
use crate::workload::{Workload, WorkloadOp};
use std::sync::Arc;

/// A recorded operation stream.
///
/// Immutable once built, so clones share one buffer: cloning is a
/// refcount, and every system a stream is replayed against reads the same
/// ops without a copy.
#[derive(Debug, Clone)]
pub struct Trace {
    ops: Arc<[WorkloadOp]>,
}

impl Trace {
    /// Captures `n` operations from a workload.
    pub fn record(workload: &mut dyn Workload, n: u64) -> Trace {
        Trace {
            ops: (0..n).map(|_| workload.next_op()).collect(),
        }
    }

    /// Wraps an existing op list.
    pub fn from_ops(ops: Vec<WorkloadOp>) -> Trace {
        Trace { ops: ops.into() }
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[WorkloadOp] {
        &self.ops
    }
}

/// Replays a trace as a [`Workload`], looping when it runs out.
#[derive(Debug)]
pub struct TracePlayer {
    spec: WorkloadSpec,
    trace: Trace,
    universe: Vec<(u8, u64)>,
    pos: usize,
}

impl TracePlayer {
    /// Creates a player over `trace`, described by `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(spec: WorkloadSpec, trace: Trace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        let universe = vec![(0, spec.data_blocks())];
        TracePlayer {
            spec,
            trace,
            universe,
            pos: 0,
        }
    }

    /// Overrides the address universe (multi-VM traces).
    pub fn with_universe(mut self, universe: Vec<(u8, u64)>) -> Self {
        self.universe = universe;
        self
    }
}

impl Workload for TracePlayer {
    fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn address_universe(&self) -> Vec<(u8, u64)> {
        self.universe.clone()
    }

    fn next_op(&mut self) -> WorkloadOp {
        let op = self.trace.ops[self.pos];
        self.pos = (self.pos + 1) % self.trace.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysbench;

    #[test]
    fn player_replays_and_loops() {
        let mut wl = sysbench::workload(4);
        let trace = Trace::record(&mut wl, 3);
        let expected: Vec<WorkloadOp> = trace.ops().to_vec();
        let mut player = TracePlayer::new(sysbench::spec(), trace);
        for i in 0..7 {
            assert_eq!(player.next_op(), expected[i % 3]);
        }
    }

    #[test]
    fn clones_share_one_buffer() {
        let mut wl = sysbench::workload(4);
        let trace = Trace::record(&mut wl, 50);
        let copy = trace.clone();
        assert!(std::ptr::eq(trace.ops().as_ptr(), copy.ops().as_ptr()));
        let mut player = TracePlayer::new(sysbench::spec(), copy);
        for op in trace.ops() {
            assert_eq!(player.next_op(), *op);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let _ = TracePlayer::new(sysbench::spec(), Trace::from_ops(Vec::new()));
    }
}
