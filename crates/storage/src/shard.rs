//! Sharded multi-controller engine: N independent storage systems behind
//! one [`StorageSystem`] facade.
//!
//! One controller on one virtual clock caps how much of the device
//! parallelism the layers above can use. [`ShardRouter`] stripes the block
//! space round-robin across N complete, independent shards — for I-CASH
//! that means each shard owns its own SSD slot range, delta log and staging
//! buffer; for the baselines, their own device array — and splits every
//! request into at most one contiguous sub-request per shard. The same
//! router wraps all five architectures, so sharded comparisons stay
//! like-for-like.
//!
//! Determinism is preserved by construction:
//!
//! * **Striping is pure arithmetic** ([`shard_of`] / [`inner_lba`] /
//!   [`outer_lba`]): shard `lba.offset() % n`, inner offset
//!   `lba.offset() / n`, VM tag untouched. Consecutive outer blocks land
//!   on consecutive shards, and one shard's share of a span is a single
//!   contiguous inner span ([`stripes`]; of an address universe,
//!   [`universe_share`]). The router and the bench's scale campaign both
//!   stripe through these two functions.
//! * **Per-shard virtual clocks** never interact inside the router; a
//!   request's completion is the max over its sub-completions. Every
//!   shard traces through the one tracer tagged with its index, so a
//!   sharded trace is one stream in emission order, split by tag.
//! * **A barrier reaches every shard**: the router hands out its own
//!   tickets, one per written block, and its `await_flush` / `sync` is a
//!   `sync` of every shard, whatever the router's watermark says
//!   ([`ShardRouter::await_flush`]). The router's durability watermark
//!   moves to its acceptance watermark when every shard reports all it
//!   accepted durable.
//!
//! A one-shard router is the identity: requests pass through unsplit,
//! tracer shard tags stay 0 (serialized identically to untagged events),
//! and `tests/shard.rs` proves the output byte-identical to the bare
//! system.

use crate::block::{BlockBuf, Lba};
use crate::pipeline::{FlushProgress, Ticket};
use crate::request::{BlockError, Completion, Op, Request};
use crate::system::{IoCtx, StorageSystem, SystemReport};
use crate::time::Ns;
use crate::trace::Tracer;
use std::fmt;

/// The shard owning an outer block address (round-robin striping).
pub fn shard_of(lba: Lba, shards: u32) -> u32 {
    (lba.offset() % shards.max(1) as u64) as u32
}

/// Translates an outer address to the owning shard's local address space.
/// The VM tag rides along unchanged.
pub fn inner_lba(lba: Lba, shards: u32) -> Lba {
    Lba::new(lba.offset() / shards.max(1) as u64).with_vm(lba.vm_id())
}

/// Inverse of [`inner_lba`]: maps a shard-local address back to the outer
/// block space.
pub fn outer_lba(inner: Lba, shard: u32, shards: u32) -> Lba {
    Lba::new(inner.offset() * shards.max(1) as u64 + shard as u64).with_vm(inner.vm_id())
}

/// Each shard's share of the outer span of `blocks` blocks from `lba`, in
/// ascending shard order, as `(shard, skew, inner lba, count)`: the share
/// is every `shards`-th outer block from offset `skew` of the span, and on
/// the shard it is the `count` inner blocks from `inner lba`. Shards the
/// span misses are left out.
pub fn stripes(lba: Lba, blocks: u64, shards: u32) -> impl Iterator<Item = (u32, u64, Lba, u64)> {
    let n = shards.max(1) as u64;
    let base = lba.offset();
    (0..n).filter_map(move |shard| {
        // First outer offset in [base, base+blocks) owned by `shard`.
        let skew = (shard + n - base % n) % n;
        let inner = Lba::new((base + skew) / n).with_vm(lba.vm_id());
        (skew < blocks).then(|| (shard as u32, skew, inner, (blocks - skew - 1) / n + 1))
    })
}

/// Shard `shard`'s slice of an address universe: per `(vm, blocks)` span,
/// how many of the outer offsets `[0, blocks)` it owns; spans it owns none
/// of are left out.
pub fn universe_share(universe: &[(u8, u64)], shards: u32, shard: u32) -> Vec<(u8, u64)> {
    universe
        .iter()
        .filter_map(|&(vm, blocks)| {
            stripes(Lba::new(0), blocks, shards)
                .find(|&(owner, ..)| owner == shard)
                .map(|(.., count)| (vm, count))
        })
        .collect()
}

/// N independent storage systems behind one [`StorageSystem`] facade.
///
/// Generic over the shard type so tests can route over concrete systems
/// (and keep access to architecture-specific APIs like crash recovery);
/// the harness uses the default `Box<dyn StorageSystem>`.
pub struct ShardRouter<S: StorageSystem = Box<dyn StorageSystem>> {
    shards: Vec<S>,
    name: String,
    /// Router-level acceptance/durability watermarks (one ticket per
    /// written block, mirroring the unsharded systems).
    progress: FlushProgress,
}

impl<S: StorageSystem> ShardRouter<S> {
    /// Routes over `shards` (all of one architecture).
    ///
    /// # Panics
    ///
    /// Panics on an empty shard list.
    pub fn new(shards: Vec<S>) -> Self {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        let name = shards[0].name().to_string();
        ShardRouter {
            shards,
            name,
            progress: FlushProgress::new(),
        }
    }

    /// The shards, in shard-id order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Mutable access to the shards (tests: crash individual shards).
    pub fn shards_mut(&mut self) -> &mut [S] {
        &mut self.shards
    }

    /// Dissolves the router back into its shards.
    pub fn into_shards(self) -> Vec<S> {
        self.shards
    }

    /// Splits one outer request into at most one contiguous sub-request
    /// per shard ([`stripes`]); `(shard, request)` in ascending shard order.
    pub fn split(&self, req: &Request) -> Vec<(u32, Request)> {
        let n = self.shards.len();
        stripes(req.lba, req.blocks as u64, n as u32)
            .map(|(shard, skew, lba, count)| {
                let sub = match req.op {
                    Op::Read => Request::read_span(lba, count as u32, req.at),
                    Op::Write => {
                        let payload = req.payload[skew as usize..].iter().step_by(n);
                        Request::write_span(lba, req.at, payload.cloned().collect())
                    }
                };
                (shard, sub)
            })
            .collect()
    }

    /// Moves the durability watermark to the acceptance watermark once
    /// every shard has made durable all it accepted. Between barriers the
    /// router's watermark can trail the exact per-ticket answer; a barrier
    /// syncs every shard, so after one it is exact.
    fn settle(&mut self) {
        let settled = |s: &S| s.flushed_ticket() >= s.write_ticket();
        if self.shards.iter().all(settled) {
            let all = self.progress.reserved();
            self.progress.complete_through(all);
        }
    }

    /// Draws one router ticket per written block.
    fn note_write(&mut self, blocks: u32) {
        for _ in 0..blocks {
            self.progress.reserve();
        }
        self.settle();
    }
}

impl<S: StorageSystem> StorageSystem for ShardRouter<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        let n = self.shards.len() as u32;
        let parts = self.split(req);
        let mut finished = req.at;
        let mut errors: Vec<BlockError> = Vec::new();
        let mut data: Vec<Vec<BlockBuf>> = vec![Vec::new(); self.shards.len()];
        for (shard, sub) in &parts {
            let idx = *shard as usize;
            let completion = self.shards[idx].submit(sub, ctx);
            finished = finished.max(completion.finished);
            errors.extend(completion.errors.iter().map(|e| BlockError {
                lba: outer_lba(e.lba, *shard, n),
                kind: e.kind,
            }));
            data[idx] = completion.data;
        }
        if req.op == Op::Write {
            self.note_write(req.blocks);
        }
        // Reassemble read data in outer block order (each shard returned
        // its share in inner — hence outer — ascending order).
        let merged_data = if req.op == Op::Read && ctx.collect_data {
            let mut cursors = vec![0usize; self.shards.len()];
            req.lbas()
                .map(|lba| {
                    let idx = shard_of(lba, n) as usize;
                    let buf = data[idx][cursors[idx]].clone();
                    cursors[idx] += 1;
                    buf
                })
                .collect()
        } else {
            Vec::new()
        };
        Completion::with_data(finished, merged_data).with_errors(errors)
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let mut done = now;
        for shard in &mut self.shards {
            done = done.max(shard.flush(now, ctx));
        }
        self.settle();
        done
    }

    fn write_ticket(&self) -> Ticket {
        self.progress.reserved()
    }

    fn flushed_ticket(&self) -> Ticket {
        self.progress.completed()
    }

    /// Every shard's full barrier, whatever `ticket` and the router's
    /// watermark say: a shard's barrier does more than settle tickets (an
    /// I-CASH shard also drains its drive's write-behind cache and seals
    /// its last log append against a torn crash), and the router cannot
    /// tell from its own watermark whether a shard still owes one.
    fn await_flush(&mut self, _ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let mut done = now;
        for shard in &mut self.shards {
            done = done.max(shard.sync(now, ctx));
        }
        self.settle();
        done
    }

    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        let n = self.shards.len() as u32;
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            shard.preload(&universe_share(universe, n, idx as u32), ctx);
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            shard.set_tracer(tracer.clone().with_shard(idx as u32));
        }
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        let mut merged = self.shards[0].report(elapsed);
        for shard in &self.shards[1..] {
            merged.merge(&shard.report(elapsed));
        }
        merged
    }
}

impl<S: StorageSystem> fmt::Debug for ShardRouter<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRouter")
            .field("name", &self.name)
            .field("width", &self.shards.len())
            .field("in_flight", &self.progress.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;
    use crate::pipeline::WriteThrough;
    use crate::system::ZeroSource;
    use std::collections::HashMap;

    /// A write-through RAM system that records what it saw: enough to
    /// check striping, reassembly, tickets, barriers and preload splitting.
    #[derive(Debug, Default)]
    struct Probe {
        map: HashMap<Lba, BlockBuf>,
        tickets: WriteThrough,
        submits: Vec<(Op, Lba, u32)>,
        barriers: u32,
        preloaded: Vec<(u8, u64)>,
        shard_tag: u32,
    }

    impl StorageSystem for Probe {
        fn name(&self) -> &str {
            "Probe"
        }

        fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
            self.submits.push((req.op, req.lba, req.blocks));
            let done = req.at + Ns::from_us(1) * req.blocks as u64;
            match req.op {
                Op::Write => {
                    for (lba, buf) in req.lbas().zip(req.payload.iter()) {
                        self.tickets.accept();
                        self.map.insert(lba, buf.clone());
                    }
                    self.tickets.settle();
                    Completion::at(done)
                }
                Op::Read => {
                    if !ctx.collect_data {
                        return Completion::at(done);
                    }
                    let data = req
                        .lbas()
                        .map(|lba| {
                            self.map
                                .get(&lba)
                                .cloned()
                                .unwrap_or_else(|| ctx.backing.initial_content(lba))
                        })
                        .collect();
                    Completion::with_data(done, data)
                }
            }
        }

        fn write_ticket(&self) -> Ticket {
            self.tickets.write_ticket()
        }

        fn flushed_ticket(&self) -> Ticket {
            self.tickets.flushed_ticket()
        }

        /// Write-through: every barrier is free, and counted.
        fn await_flush(&mut self, _ticket: Ticket, now: Ns, _ctx: &mut IoCtx<'_>) -> Ns {
            self.barriers += 1;
            now
        }

        fn preload(&mut self, universe: &[(u8, u64)], _ctx: &mut IoCtx<'_>) {
            self.preloaded = universe.to_vec();
        }

        fn set_tracer(&mut self, tracer: Tracer) {
            self.shard_tag = tracer.shard();
        }

        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport {
                name: self.name().to_string(),
                ..SystemReport::default()
            }
        }
    }

    fn router(n: usize) -> ShardRouter<Probe> {
        ShardRouter::new((0..n).map(|_| Probe::default()).collect())
    }

    #[test]
    fn striping_round_trips() {
        for n in [1, 2, 3, 8] {
            for raw in [0u64, 1, 7, 1000, 12345] {
                let outer = Lba::new(raw).with_vm(3);
                let s = shard_of(outer, n);
                assert!(s < n);
                let inner = inner_lba(outer, n);
                assert_eq!(outer_lba(inner, s, n), outer);
                assert_eq!(inner.vm_id(), 3);
            }
        }
    }

    #[test]
    fn span_splits_into_contiguous_inner_spans() {
        let mut r = router(3);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        // Blocks 4..11 over 3 shards: shard 1 gets {4,7,10}, shard 2 gets
        // {5,8}, shard 0 gets {6,9}.
        let req = Request::read_span(Lba::new(4), 7, Ns::ZERO);
        let _ = r.submit(&req, &mut ctx);
        assert_eq!(r.shards()[0].submits, vec![(Op::Read, Lba::new(2), 2)]);
        assert_eq!(r.shards()[1].submits, vec![(Op::Read, Lba::new(1), 3)]);
        assert_eq!(r.shards()[2].submits, vec![(Op::Read, Lba::new(1), 2)]);
    }

    #[test]
    fn write_then_read_reassembles_in_outer_order() {
        let mut r = router(4);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let payload: Vec<BlockBuf> = (0..9u8).map(BlockBuf::filled).collect();
        let w = Request::write_span(Lba::new(10), Ns::ZERO, payload.clone());
        let done = r.submit(&w, &mut ctx).finished;
        let c = r.submit(&Request::read_span(Lba::new(10), 9, done), &mut ctx);
        assert_eq!(c.data, payload);
        // Unwritten blocks still come from the backing image.
        let c2 = r.submit(&Request::read_span(Lba::new(100), 5, done), &mut ctx);
        assert_eq!(c2.data, vec![BlockBuf::zeroed(); 5]);
    }

    #[test]
    fn sync_reaches_every_shard_even_when_the_router_is_settled() {
        let mut r = router(3);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        assert_eq!(r.write_ticket(), Ticket::ZERO);
        let w = Request::write_span(
            Lba::new(0),
            Ns::ZERO,
            vec![BlockBuf::filled(1); 5], // shards 0,1,2 touched
        );
        r.submit(&w, &mut ctx);
        // One router ticket per block; write-through shards settle
        // immediately, so the router watermark follows.
        assert_eq!(r.write_ticket(), Ticket::from_u64(5));
        assert_eq!(r.flushed_ticket(), Ticket::from_u64(5));
        // Nothing pending: the barrier is free. The router's watermark was
        // already met, and still every shard took the barrier.
        let end = r.sync(Ns::from_ms(1), &mut ctx);
        assert_eq!(end, Ns::from_ms(1));
        let barriers: Vec<u32> = r.shards().iter().map(|s| s.barriers).collect();
        assert_eq!(barriers, vec![1, 1, 1]);
    }

    #[test]
    fn stripes_are_the_identity_at_one_shard() {
        for (raw, blocks) in [(0u64, 1u64), (7, 25), (12345, 64)] {
            let lba = Lba::new(raw).with_vm(2);
            let got: Vec<_> = stripes(lba, blocks, 1).collect();
            assert_eq!(got, vec![(0, 0, lba, blocks)]);
        }
    }

    /// Every block of a span lands in exactly one stripe, on the shard that
    /// owns it, at the inner address it maps to, `skew` naming the span
    /// offset of each stripe's first block.
    #[test]
    fn stripes_conserve_blocks_and_stripe_correctly() {
        for n in [2u32, 3, 8, 64] {
            for base in 0..70u64 {
                for blocks in 1..=70u64 {
                    let mut hits = vec![0u32; blocks as usize];
                    let mut shards = Vec::new();
                    for (shard, skew, inner, count) in stripes(Lba::new(base).with_vm(1), blocks, n)
                    {
                        shards.push(shard);
                        assert_eq!(inner.vm_id(), 1);
                        assert_eq!(outer_lba(inner, shard, n), Lba::new(base + skew).with_vm(1));
                        for k in 0..count {
                            let outer = outer_lba(Lba::new(inner.offset() + k), shard, n);
                            assert_eq!(shard_of(outer, n), shard);
                            hits[(outer.offset() - base) as usize] += 1;
                        }
                    }
                    assert!(shards.windows(2).all(|w| w[0] < w[1]), "ascending shards");
                    assert!(hits.iter().all(|&h| h == 1), "{n} shards, {base}+{blocks}");
                }
            }
        }
    }

    #[test]
    fn universe_slices_cover_every_block_once() {
        let universe = [(0u8, 100u64), (3, 7)];
        for shards in [1u32, 2, 3, 8, 64] {
            for (vm, blocks) in universe {
                let total: u64 = (0..shards)
                    .flat_map(|shard| universe_share(&universe, shards, shard))
                    .filter(|&(v, _)| v == vm)
                    .map(|(_, b)| b)
                    .sum();
                assert_eq!(total, blocks, "{shards} shards");
            }
        }
    }

    #[test]
    fn preload_splits_the_universe() {
        let mut r = router(3);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        r.preload(&[(0, 7), (2, 2)], &mut ctx);
        // 7 blocks over 3 shards: 3/2/2. 2 blocks: 1/1/0 (filtered).
        assert_eq!(r.shards()[0].preloaded, vec![(0, 3), (2, 1)]);
        assert_eq!(r.shards()[1].preloaded, vec![(0, 2), (2, 1)]);
        assert_eq!(r.shards()[2].preloaded, vec![(0, 2)]);
    }

    #[test]
    fn tracer_tags_shards_in_order() {
        let mut r = router(3);
        let (tracer, _ring) = Tracer::ring(8);
        r.set_tracer(tracer);
        let tags: Vec<u32> = r.shards().iter().map(|s| s.shard_tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_router_is_rejected() {
        let _ = ShardRouter::<Probe>::new(Vec::new());
    }
}
