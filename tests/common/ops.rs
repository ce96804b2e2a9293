//! The op history the whole-system property suites (`prop_system`,
//! `fault_recovery`) draw from. Single-block writes of one similar family
//! are not enough to reach a placement *transition*: the generator also
//! writes dissimilar "noise" (which leaves the delta path for an SSD slot)
//! and multi-block spans (which take the streaming write path), so blocks
//! move between slot, delta, log and home in every order. For I-CASH a rare
//! cold sweep overflows the virtual-block table, so they also leave it as
//! eviction records and come back.

#[path = "content.rs"]
mod content;

pub use content::{block_for, Family};
use icash::storage::model::VersionModel;
use icash::storage::request::Completion;
use icash::storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem};
use proptest::prelude::*;

/// Block address space of the generated histories.
pub const SPAN: u64 = 64;

/// Blocks one cold sweep reads: more than the controller's smallest table
/// bound (4 096 tracked blocks), so the trim runs and reaches the hot set.
pub const COLD_BLOCKS: u64 = 4_200;

/// First cold address: above every address any suite writes.
const COLD_BASE: u64 = 1 << 10;

#[derive(Debug, Clone)]
pub enum SysOp {
    Write {
        lba: u64,
        tag: u8,
        family: Family,
    },
    /// One request of `blocks` consecutive blocks from `lba` — long enough
    /// (>= 8) to take the controller's streaming write path.
    WriteSpan {
        lba: u64,
        blocks: u32,
        tag: u8,
        family: Family,
    },
    Read {
        lba: u64,
    },
    Flush,
    /// A full pipeline barrier: `sync` awaits the newest write ticket, so
    /// everything accepted so far must be durable when it returns.
    Barrier,
    /// Reads [`COLD_BLOCKS`] never-written addresses (the `lap`-th run of
    /// them above the written space). I-CASH only: the baselines' 4 MiB
    /// devices have no such addresses.
    ColdSweep {
        lap: u64,
    },
}

fn family() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::Similar),
        Just(Family::Similar),
        Just(Family::Noise)
    ]
}

/// 1–199 ops: single writes and reads dominate, with spans, flushes and
/// barriers mixed in.
pub fn ops_strategy() -> impl Strategy<Value = Vec<SysOp>> {
    ops_with(false)
}

/// [`ops_strategy`] for an I-CASH controller: one op in 400 is a cold sweep.
pub fn icash_ops_strategy() -> impl Strategy<Value = Vec<SysOp>> {
    ops_with(true)
}

fn ops_with(cold_sweeps: bool) -> impl Strategy<Value = Vec<SysOp>> {
    let write = || {
        (0..SPAN, any::<u8>(), family()).prop_map(|(lba, tag, family)| SysOp::Write {
            lba,
            tag,
            family,
        })
    };
    let read = || (0..SPAN).prop_map(|lba| SysOp::Read { lba });
    let span =
        (0..SPAN - 24, 8u32..25, any::<u8>(), family()).prop_map(|(lba, blocks, tag, family)| {
            SysOp::WriteSpan {
                lba,
                blocks,
                tag,
                family,
            }
        });
    prop::collection::vec(
        prop_oneof![
            write(),
            write(),
            write(),
            read(),
            read(),
            read(),
            span,
            Just(SysOp::Flush),
            Just(SysOp::Barrier),
            (0u8..40, 0u64..4).prop_map(move |(roll, lap)| {
                if cold_sweeps && roll == 0 {
                    SysOp::ColdSweep { lap }
                } else {
                    SysOp::Flush
                }
            }),
        ],
        1..200,
    )
}

impl SysOp {
    /// The blocks this op writes, as `(lba, content)` in address order
    /// (empty for reads, flushes and barriers).
    pub fn payload(&self) -> Vec<(u64, BlockBuf)> {
        match *self {
            SysOp::Write { lba, tag, family } => vec![(lba, block_for(lba, tag, family))],
            SysOp::WriteSpan {
                lba,
                blocks,
                tag,
                family,
            } => (lba..lba + u64::from(blocks))
                .map(|l| (l, block_for(l, tag, family)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Submits a write op as one host request at `*now` and advances the
    /// clock. Every block the completion acknowledged joins `model`; a
    /// block refused with a typed error stays on its old versions.
    pub fn issue_write(
        &self,
        system: &mut dyn StorageSystem,
        now: &mut Ns,
        ctx: &mut IoCtx<'_>,
        model: &mut VersionModel,
    ) -> Completion {
        let payload = self.payload();
        let blocks = payload.iter().map(|(_, b)| b.clone()).collect();
        let req = Request::write_span(Lba::new(payload[0].0), *now, blocks);
        let completion = system.submit(&req, ctx);
        *now = completion.finished;
        for (lba, content) in payload {
            if !completion.failed(Lba::new(lba)) {
                model.ack(lba, content);
            }
        }
        completion
    }

    /// Runs the op against `system` at `*now`, advancing the clock, without
    /// looking at what a read returns — the history a crash property builds
    /// up before it pulls the plug. Writes go through [`SysOp::issue_write`].
    pub fn apply(
        &self,
        system: &mut dyn StorageSystem,
        now: &mut Ns,
        ctx: &mut IoCtx<'_>,
        model: &mut VersionModel,
    ) {
        match self {
            SysOp::Write { .. } | SysOp::WriteSpan { .. } => {
                self.issue_write(system, now, ctx, model);
            }
            SysOp::Read { lba } => {
                *now = system
                    .submit(&Request::read(Lba::new(*lba), *now), ctx)
                    .finished;
            }
            SysOp::Flush => *now = system.flush(*now, ctx),
            SysOp::Barrier => *now = system.sync(*now, ctx),
            SysOp::ColdSweep { lap } => cold_sweep(*lap, system, now, ctx),
        }
    }
}

/// Runs lap `lap` of a cold sweep as one stream of span reads at `*now`,
/// advancing the clock. Every block that did not fail with a typed error
/// must read as zeroes: nothing was ever written there.
pub fn cold_sweep(lap: u64, system: &mut dyn StorageSystem, now: &mut Ns, ctx: &mut IoCtx<'_>) {
    const STRIDE: u64 = 32;
    let collect = std::mem::replace(&mut ctx.collect_data, true);
    let first = COLD_BASE + lap * COLD_BLOCKS;
    for lba in (first..first + COLD_BLOCKS).step_by(STRIDE as usize) {
        let blocks = STRIDE.min(first + COLD_BLOCKS - lba) as u32;
        let completion = system.submit(&Request::read_span(Lba::new(lba), blocks, *now), ctx);
        *now = completion.finished;
        for (l, got) in (lba..).zip(&completion.data) {
            assert!(
                completion.failed(Lba::new(l)) || *got == BlockBuf::zeroed(),
                "cold lba {l} read back something"
            );
        }
    }
    ctx.collect_data = collect;
}
