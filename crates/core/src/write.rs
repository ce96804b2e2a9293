//! The write path: single-block writes, streaming spans, and the online
//! pairing of a block with a similar reference (paper §3.1, §5.1, §5.3).

use crate::controller::Icash;
use crate::placement::RefSource;
use crate::table::VbId;
use crate::virtual_block::{CachedData, DeltaHome, Placement};
use icash_delta::codec::Delta;
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuOp;
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};

/// Write requests at least this many blocks long stream: every block still
/// tries the delta bind (or becomes a zero-based log entry), but skips the
/// RAM data cache, since stream data is not expected to be re-read soon.
/// The span reaches the HDD as sequential log appends — the third leg of
/// the paper's design triangle ("reliable/durable/sequential write
/// performance of HDD").
pub(crate) const STREAM_WRITE_BLOCKS: u32 = 8;

impl Icash {
    pub(crate) fn write_block(
        &mut self,
        lba: Lba,
        content: BlockBuf,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> Ns {
        self.stats.writes += 1;
        let sig = BlockSignature::of(content.as_slice());
        let sig_cost = ctx.cpu.charge(CpuOp::Signature);
        let copy_cost = ctx.cpu.charge(CpuOp::Memcpy);
        // The fast-path response: the write is acknowledged once the data is
        // staged in the controller RAM; delta derivation overlaps I/O
        // processing (paper §5.1).
        let mut resp = at + sig_cost + copy_cost;
        self.volatile.heatmap.record(&sig);

        let id = self.materialize_vb(lba, at, ctx);
        let vb = self.volatile.table.get(id);
        let (placement, dependants) = (vb.placement, vb.dependants);

        match placement {
            _ if self.writes_degraded(id) => resp = self.write_degraded(id, &content, at),
            Placement::Reference { slot, .. } => {
                // The SSD copy is immutable while referenced: store the
                // reference's own changes as a delta against it.
                let delta = self.encode_against(at, lba, RefSource::Slot(slot), &content);
                ctx.cpu.charge(CpuOp::DeltaEncode);
                if delta.len() <= self.cfg.delta_threshold || dependants > 0 {
                    let own = Some(DeltaHome::Dirty);
                    self.store_delta(id, delta, at, Placement::Reference { slot, own });
                    self.stats.delta_writes += 1;
                } else {
                    // No dependants and nothing similar left: retire the
                    // reference and overwrite its SSD copy in place. Its old
                    // self-delta describes the *previous* slot content and
                    // goes whether or not the flash takes the rewrite.
                    let sig_old = self.volatile.table.get(id).sig;
                    let installed = self.install_slot(lba, slot, &content, at);
                    self.volatile.ref_index.remove(lba, &sig_old);
                    self.supersede_delta(id, Placement::Slot { slot });
                    match installed {
                        Ok(t) => {
                            resp = t;
                            self.stats.ssd_direct_writes += 1;
                        }
                        Err(_) => {
                            // Flash refused the rewrite: the delta log
                            // absorbs the write (and releases the slot).
                            self.stats.degraded_writes += 1;
                            self.write_as_independent(id, &content, at, ctx);
                        }
                    }
                }
            }
            Placement::Associate { reference, .. } => {
                // Charge the device/LRU effects of touching the reference,
                // then encode against its slot's content.
                let _ = self.reference_content(reference, at, ctx);
                let (_, rslot) = self
                    .pinned(reference)
                    .expect("an associate's reference is tracked and pinned");
                let delta = self.encode_against(at, lba, RefSource::Slot(rslot), &content);
                ctx.cpu.charge(CpuOp::DeltaEncode);
                if delta.len() <= self.cfg.delta_threshold {
                    let to = Placement::Associate {
                        reference,
                        delta: DeltaHome::Dirty,
                    };
                    self.store_delta(id, delta, at, to);
                    self.stats.delta_writes += 1;
                } else {
                    // Content diverged from the reference: unbind and write
                    // the new data directly to the SSD (paper §5.3).
                    resp = self.direct_ssd_write(id, &content, at, ctx).max(resp);
                }
            }
            Placement::Slot { slot } => {
                // Already SSD-resident from an earlier direct write.
                match self.install_slot(lba, slot, &content, at) {
                    Ok(t) => {
                        resp = t;
                        self.stats.ssd_direct_writes += 1;
                    }
                    Err(_) => {
                        self.stats.degraded_writes += 1;
                        self.write_as_independent(id, &content, at, ctx);
                    }
                }
            }
            Placement::Home | Placement::Logged { .. } => {
                if !self.try_bind(id, &content, &sig, at, ctx) {
                    self.write_as_independent(id, &content, at, ctx);
                } else {
                    self.stats.delta_writes += 1;
                }
            }
        }

        // Keep the freshly written content cached and the signature current.
        self.set_written_sig(id, sig);
        self.cache_data(id, CachedData::Ready(content), at);
        self.volatile.table.touch(id);
        self.after_io(at, ctx);
        // Reserve the write's flush ticket last: a flush triggered inside
        // this write's own `after_io` must not claim to cover it (the
        // completed watermark stays conservative).
        self.volatile.staging.progress.reserve();
        resp
    }

    /// Stores an independent block as a zero-based delta bound for the
    /// sequential HDD log (the paper's log-of-deltas covers *all* writes;
    /// blocks without a useful reference simply encode against zero).
    fn write_as_independent(&mut self, id: VbId, content: &BlockBuf, at: Ns, ctx: &mut IoCtx<'_>) {
        let lba = self.volatile.table.get(id).lba;
        let delta = self.encode_against(at, lba, RefSource::Zero, content);
        ctx.cpu.charge(CpuOp::DeltaEncode);
        // The log entry is the block's placement from here on; a slot kept
        // alongside it would go on serving the previous version, so the
        // store releases it.
        let to = Placement::Logged {
            delta: DeltaHome::Dirty,
        };
        self.store_delta(id, delta, at, to);
        self.stats.independent_writes += 1;
    }

    /// The paper's oversize-delta rule: "the new data are written directly
    /// to the SSD to release delta buffer". Falls back to a log-resident
    /// independent block (acknowledged from RAM, at `at`) when no SSD slot
    /// is free or the flash refuses.
    fn direct_ssd_write(
        &mut self,
        id: VbId,
        content: &BlockBuf,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> Ns {
        let vb = self.volatile.table.get(id);
        debug_assert_eq!(vb.placement.slot(), None);
        let lba = vb.lba;
        let Some(slot) = self.durable.slots.alloc() else {
            self.write_as_independent(id, content, at, ctx);
            return at;
        };
        match self.install_slot(lba, slot, content, at) {
            Ok(t) => {
                self.supersede_delta(id, Placement::Slot { slot });
                self.stats.ssd_direct_writes += 1;
                t
            }
            Err(_) => {
                // Flash refused the program (worn out / no reclaimable
                // space): degrade to a log-resident independent.
                self.stats.degraded_writes += 1;
                self.durable.slots.unalloc(slot);
                self.write_as_independent(id, content, at, ctx);
                at
            }
        }
    }

    /// Tries to bind a block to a similar reference online (paper §5.1:
    /// "the online similarity detection of I-CASH is effective under read
    /// intensive workloads"). Returns whether it became an associate.
    pub(crate) fn try_bind(
        &mut self,
        id: VbId,
        content: &BlockBuf,
        sig: &BlockSignature,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> bool {
        let lba = self.volatile.table.get(id).lba;
        // A loose pre-filter (3 of 8 sub-signatures) is enough: the codec
        // verifies true similarity, so false candidates only cost an
        // encode attempt.
        let candidates = self.volatile.ref_index.candidates(sig, 3, 3);
        let probed = candidates.len() as u32;
        for cand in candidates {
            if cand == lba {
                continue;
            }
            let Some((_, rslot)) = self.pinned(cand) else {
                continue;
            };
            let delta = self.encode_against(at, lba, RefSource::Slot(rslot), content);
            ctx.cpu.charge(CpuOp::DeltaEncode);
            if delta.len() <= self.cfg.delta_threshold {
                self.bind(id, cand, delta, at);
                self.note_probe(at, lba, probed, true);
                return true;
            }
        }
        self.note_probe(at, lba, probed, false);
        false
    }

    /// Mirrors one similarity probe into the trace.
    fn note_probe(&self, at: Ns, lba: Lba, candidates: u32, bound: bool) {
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::SigProbe {
                lba: lba.raw(),
                candidates,
                bound,
            },
        });
    }

    /// Binds `id` as an associate of `reference` with `delta`. An associate
    /// lives in reference + delta: a slot kept alongside would leak, and
    /// recovery would rank its pin above the deltas, so the store releases
    /// whatever slot the block held.
    fn bind(&mut self, id: VbId, reference: Lba, delta: Delta, at: Ns) {
        let to = Placement::Associate {
            reference,
            delta: DeltaHome::Dirty,
        };
        self.store_delta(id, delta, at, to);
        self.stats.binds += 1;
    }

    /// Keeps the signature current after a write — except a reference's,
    /// which stays that of its immutable SSD copy.
    fn set_written_sig(&mut self, id: VbId, sig: BlockSignature) {
        let vb = self.volatile.table.get_mut(id);
        if !matches!(vb.placement, Placement::Reference { .. }) {
            vb.sig = sig;
        }
    }

    /// One block of a streaming write ([`STREAM_WRITE_BLOCKS`]): the delta
    /// path without the RAM data cache, so the span leaves the controller
    /// as one sequential log flush — the paper's "pack deltas of all
    /// sequential I/Os into one delta block".
    pub(crate) fn stream_write_block(
        &mut self,
        lba: Lba,
        buf: &BlockBuf,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> Ns {
        let sig = BlockSignature::of(buf.as_slice());
        let mut resp = at + ctx.cpu.charge(CpuOp::Signature);
        self.volatile.heatmap.record(&sig);
        let id = self.materialize_vb(lba, at, ctx);
        if self.writes_degraded(id) {
            resp = resp.max(self.write_degraded(id, buf, at));
        } else if let Placement::Reference { slot, .. } = self.volatile.table.get(id).placement {
            // A reference's SSD copy is the decode source for its
            // associates: track the new content as the reference's own
            // delta.
            let delta = self.encode_against(at, lba, RefSource::Slot(slot), buf);
            ctx.cpu.charge(CpuOp::DeltaEncode);
            let own = Some(DeltaHome::Dirty);
            self.store_delta(id, delta, at, Placement::Reference { slot, own });
            self.stats.delta_writes += 1;
        } else if self.try_bind(id, buf, &sig, at, ctx) {
            self.stats.delta_writes += 1;
        } else {
            self.write_as_independent(id, buf, at, ctx);
        }
        self.set_written_sig(id, sig);
        self.drop_data(id);
        self.volatile.table.touch(id);
        self.stats.writes += 1;
        self.after_io(at, ctx);
        self.volatile.staging.progress.reserve();
        resp
    }
}
