//! The fixture the identity table (`identity.rs`) and the shard suite
//! share: one small I-CASH geometry, one seeded op stream, one traced run.

// Each suite compiles its own copy and uses a part of it.
#![allow(dead_code)]

use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::fault_roll;
use icash::storage::trace::Tracer;
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};

/// Hot block space every op lands in.
pub const SPACE: u64 = 512;
/// Ops per [`Stream::drive`].
pub const OPS: u64 = 600;
/// Data set of [`config`].
pub const DATA: u64 = 8 << 20;
/// SSD of [`config`].
pub const SSD: u64 = 1 << 20;

/// The small, fast-cycling controller every suite starts from; the caller
/// switches its feature on.
pub fn config() -> IcashConfig {
    IcashConfig::builder(SSD, 256 << 10, DATA)
        .scan_interval(50)
        .scan_window(64)
        .flush_interval(20)
        .build()
}

/// A suite's seeded op stream: 3:2 write:read over the hot block space.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Seed of the LBA and read/write rolls.
    pub seed: u64,
    /// Salt of the LBA roll; the read/write roll uses `salt + 1`.
    pub salt: u64,
    /// Fill byte of written blocks (the op number goes in the first 8).
    pub fill: u8,
    /// Widen every fifth read to a 4-block span, so the batched home-read
    /// prefetch path runs.
    pub span_reads: bool,
}

impl Stream {
    /// Issues op number `op` at `t`; returns the completion so callers can
    /// diff two runs op by op.
    pub fn step(
        &self,
        sys: &mut dyn StorageSystem,
        ctx: &mut IoCtx<'_>,
        op: u64,
        t: Ns,
    ) -> (Ns, Vec<BlockBuf>) {
        let lba = fault_roll(self.seed, self.salt, op, 0) % SPACE;
        let req = if fault_roll(self.seed, self.salt + 1, op, lba) % 5 < 3 {
            let mut bytes = vec![self.fill; 4096];
            bytes[..8].copy_from_slice(&op.to_le_bytes());
            Request::write(Lba::new(lba), t, BlockBuf::from_vec(bytes))
        } else if self.span_reads && op.is_multiple_of(5) {
            Request::read_span(Lba::new(lba.min(SPACE - 4)), 4, t)
        } else {
            Request::read(Lba::new(lba), t)
        };
        let c = sys.submit(&req, ctx);
        (c.finished, c.data)
    }

    /// Runs [`OPS`] ops back to back through any system, handing each
    /// completion to `each(op, finished, data)`; `flush` ends with a full
    /// durability flush. Returns the last op's completion instant.
    pub fn drive(
        &self,
        sys: &mut dyn StorageSystem,
        flush: bool,
        mut each: impl FnMut(u64, Ns, Vec<BlockBuf>),
    ) -> Ns {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut t = Ns::ZERO;
        for op in 0..OPS {
            let (done, data) = self.step(sys, &mut ctx, op, t);
            t = done;
            each(op, done, data);
        }
        if flush {
            let end = sys.flush(t, &mut ctx);
            assert!(end >= t);
        }
        t
    }

    /// [`drive`](Self::drive) through I-CASH under a ring tracer, then
    /// `debug_validate`. Returns the last op's completion instant, the
    /// traced JSONL and the controller.
    pub fn run(
        &self,
        mut sys: Icash,
        flush: bool,
        each: impl FnMut(u64, Ns, Vec<BlockBuf>),
    ) -> (Ns, Vec<String>, Icash) {
        let (tracer, ring) = Tracer::ring(1 << 16);
        sys.set_tracer(tracer);
        let t = self.drive(&mut sys, flush, each);
        sys.debug_validate();
        let ring = ring.lock().expect("ring sink");
        assert_eq!(ring.dropped(), 0, "ring must hold the whole event stream");
        let jsonl = ring.events().iter().map(|e| e.to_json()).collect();
        (t, jsonl, sys)
    }
}
