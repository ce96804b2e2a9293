//! The fixture the per-feature differentials (`health_free`, `queue_free`)
//! share: one small I-CASH geometry, one seeded op stream, one traced run.

use icash::core::{Icash, IcashConfig};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::fault_roll;
use icash::storage::trace::Tracer;
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};

/// Hot block space every op lands in.
pub const SPACE: u64 = 512;
/// Ops per [`run`].
pub const OPS: u64 = 600;

/// The small, fast-cycling controller both suites start from; the caller
/// switches its feature on.
pub fn config() -> IcashConfig {
    IcashConfig::builder(1 << 20, 256 << 10, 8 << 20)
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

    /// Runs [`OPS`] ops back to back under a ring tracer, handing each
    /// completion to `each(op, finished, data)`; `flush` ends with a full
    /// durability flush. Returns the final instant, the traced JSONL and
    /// the controller.
    pub fn run(
        &self,
        mut sys: Icash,
        flush: bool,
        mut each: impl FnMut(u64, Ns, Vec<BlockBuf>),
    ) -> (Ns, Vec<String>, Icash) {
        let (tracer, ring) = Tracer::ring(1 << 16);
        sys.set_tracer(tracer);
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut t = Ns::ZERO;
        for op in 0..OPS {
            let (done, data) = self.step(&mut sys, &mut ctx, op, t);
            t = done;
            each(op, done, data);
        }
        if flush {
            let end = StorageSystem::flush(&mut sys, t, &mut ctx);
            assert!(end >= t);
        }
        sys.debug_validate();
        let ring = ring.lock().expect("ring sink");
        assert_eq!(ring.dropped(), 0, "ring must hold the whole event stream");
        let jsonl = ring.events().iter().map(|e| e.to_json()).collect();
        (t, jsonl, sys)
    }
}
